//! The hardware cost model.
//!
//! Each parameter corresponds to a cost the paper's prototype paid on its
//! 300 MHz Pentium II / 100 Mbps Fast Ethernet testbed. Substrate code
//! charges abstract [`Cost`]s; the model translates them into nanoseconds
//! and advances the caller's virtual clock. A [`CostSnapshot`] additionally
//! counts how many of each kind of charge happened, which backs the
//! per-op counts of the bench grid and `figure6`'s accounting view.

use std::sync::Arc;

use crate::clock;
use crate::metric_family;
use crate::stripe::Tally;

/// Which protection boundary a handoff crosses. Determines whether a
/// blocking handoff costs a process context switch, a thread switch, or
/// nothing (inline call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossingKind {
    /// Between two processes (the paper's process-based strategies).
    InterProcess,
    /// Between two threads of one process (the DLL-with-thread strategy).
    InterThread,
    /// No boundary (the DLL-only strategy).
    None,
}

impl CrossingKind {
    /// Number of domain crossings a single round trip over this boundary
    /// performs (out and back).
    pub fn round_trip_switches(self) -> u64 {
        match self {
            CrossingKind::None => 0,
            _ => 2,
        }
    }
}

/// An abstract cost charged by substrate code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// Entering and leaving the kernel once.
    Syscall,
    /// A full process context switch (address-space change).
    ProcessSwitch,
    /// A same-process thread switch.
    ThreadSwitch,
    /// A user-level memory copy of `bytes`.
    Memcpy {
        /// Number of bytes.
        bytes: usize,
    },
    /// One user<->kernel copy of `bytes` (half of a pipe transfer).
    PipeCopy {
        /// Number of bytes.
        bytes: usize,
    },
    /// Fixed per-message pipe bookkeeping (buffer management, wakeup).
    PipeMessage,
    /// A network round trip (request out, response header back).
    NetRoundTrip,
    /// Streaming `bytes` over the network (no round trip).
    NetBytes {
        /// Number of bytes.
        bytes: usize,
    },
    /// Seek + rotational latency of one disk access.
    DiskAccess,
    /// Transferring `bytes` from/to the disk surface.
    DiskReadBytes {
        /// Number of bytes.
        bytes: usize,
    },
    /// Transferring `bytes` to the disk write cache.
    DiskWriteBytes {
        /// Number of bytes.
        bytes: usize,
    },
    /// Signalling an event object (SetEvent + wait-satisfy).
    EventSignal,
    /// A context switch across the given boundary.
    Crossing(CrossingKind),
}

/// Calibrated per-operation costs, all in nanoseconds (per byte where
/// noted).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    /// Human-readable name, e.g. `"pentium-ii-300"`.
    pub name: &'static str,
    /// One kernel entry/exit.
    pub syscall_ns: u64,
    /// One process (address space) context switch.
    pub process_switch_ns: u64,
    /// One intra-process thread switch.
    pub thread_switch_ns: u64,
    /// User-level memcpy, per byte.
    pub memcpy_ns_per_byte: u64,
    /// One user<->kernel pipe copy, per byte.
    pub pipe_copy_ns_per_byte: u64,
    /// Fixed overhead per pipe message.
    pub pipe_message_ns: u64,
    /// Small-message network round-trip time.
    pub net_round_trip_ns: u64,
    /// Network streaming cost per byte (100 Mbps = 80 ns/B).
    pub net_ns_per_byte: u64,
    /// Disk access (seek + rotation) latency.
    pub disk_access_ns: u64,
    /// Disk read transfer per byte (through the filesystem).
    pub disk_read_ns_per_byte: u64,
    /// Disk write transfer per byte (into the write cache).
    pub disk_write_ns_per_byte: u64,
    /// Signalling an event object.
    pub event_signal_ns: u64,
}

impl HardwareProfile {
    /// The paper's testbed: 300 MHz Pentium II PCs, Windows NT, 100 Mbps
    /// Fast Ethernet (§6). Values are calibrated so that the regenerated
    /// Figure 6 lands in the same range as the published plots; the *shape*
    /// claims (ordering, growth with block size, read/write asymmetry) are
    /// insensitive to modest recalibration — see EXPERIMENTS.md.
    pub fn pentium_ii_300() -> Self {
        HardwareProfile {
            name: "pentium-ii-300",
            syscall_ns: 2_000,
            process_switch_ns: 15_000,
            thread_switch_ns: 5_000,
            memcpy_ns_per_byte: 12,
            pipe_copy_ns_per_byte: 30,
            pipe_message_ns: 10_000,
            net_round_trip_ns: 130_000,
            net_ns_per_byte: 80,
            disk_access_ns: 250_000,
            disk_read_ns_per_byte: 120,
            disk_write_ns_per_byte: 60,
            event_signal_ns: 2_000,
        }
    }

    /// A roughly contemporary machine, used by ablation benches to show how
    /// the strategy trade-off shifts when context switches get cheaper
    /// faster than memory copies do.
    pub fn modern() -> Self {
        HardwareProfile {
            name: "modern",
            syscall_ns: 300,
            process_switch_ns: 2_000,
            thread_switch_ns: 700,
            memcpy_ns_per_byte: 1,
            pipe_copy_ns_per_byte: 1,
            pipe_message_ns: 500,
            net_round_trip_ns: 30_000,
            net_ns_per_byte: 1,
            disk_access_ns: 80_000,
            disk_read_ns_per_byte: 2,
            disk_write_ns_per_byte: 1,
            event_signal_ns: 200,
        }
    }

    /// All-zero profile: charges advance no time. The default world
    /// profile; used by semantics-only tests and by `benchmark/`'s
    /// host-time probes.
    pub fn free() -> Self {
        HardwareProfile {
            name: "free",
            syscall_ns: 0,
            process_switch_ns: 0,
            thread_switch_ns: 0,
            memcpy_ns_per_byte: 0,
            pipe_copy_ns_per_byte: 0,
            pipe_message_ns: 0,
            net_round_trip_ns: 0,
            net_ns_per_byte: 0,
            disk_access_ns: 0,
            disk_read_ns_per_byte: 0,
            disk_write_ns_per_byte: 0,
            event_signal_ns: 0,
        }
    }

    /// Nanoseconds for one instance of `cost` under this profile.
    pub fn price(&self, cost: Cost) -> u64 {
        match cost {
            Cost::Syscall => self.syscall_ns,
            Cost::ProcessSwitch => self.process_switch_ns,
            Cost::ThreadSwitch => self.thread_switch_ns,
            Cost::Memcpy { bytes } => self.memcpy_ns_per_byte * bytes as u64,
            Cost::PipeCopy { bytes } => self.pipe_copy_ns_per_byte * bytes as u64,
            Cost::PipeMessage => self.pipe_message_ns,
            Cost::NetRoundTrip => self.net_round_trip_ns,
            Cost::NetBytes { bytes } => self.net_ns_per_byte * bytes as u64,
            Cost::DiskAccess => self.disk_access_ns,
            Cost::DiskReadBytes { bytes } => self.disk_read_ns_per_byte * bytes as u64,
            Cost::DiskWriteBytes { bytes } => self.disk_write_ns_per_byte * bytes as u64,
            Cost::EventSignal => self.event_signal_ns,
            Cost::Crossing(kind) => match kind {
                CrossingKind::InterProcess => self.process_switch_ns,
                CrossingKind::InterThread => self.thread_switch_ns,
                CrossingKind::None => 0,
            },
        }
    }
}

metric_family! {
    /// Per-kind counters accumulated by a [`CostModel`], one set per
    /// stripe: a charge adds to the charging thread's stripe, a reader
    /// sums them all. They back the per-op counts of the bench grid and
    /// `figure6`'s accounting view.
    CostCounters striped(CostCell) => CostSnapshot {
        /// Process context switches.
        process_switches: counter "afs_cost_process_switches_total",
        /// Thread switches.
        thread_switches: counter "afs_cost_thread_switches_total",
        /// Total buffer copies of any kind (memcpy + pipe copies), counted
        /// per copy operation rather than per byte.
        copies: counter "afs_cost_copies_total",
        /// Kernel entries.
        syscalls: counter "afs_cost_syscalls_total",
        /// Bytes moved by user-level memcpy.
        memcpy_bytes: counter "afs_cost_memcpy_bytes_total",
        /// Bytes moved through pipe (user<->kernel) copies.
        pipe_copy_bytes: counter "afs_cost_pipe_copy_bytes_total",
        /// Pipe messages.
        pipe_messages: counter "afs_cost_pipe_messages_total",
        /// Network round trips.
        net_round_trips: counter "afs_cost_net_round_trips_total",
        /// Bytes streamed over the network.
        net_bytes: counter "afs_cost_net_bytes_total",
        /// Disk accesses.
        disk_accesses: counter "afs_cost_disk_accesses_total",
        /// Bytes moved to/from disk.
        disk_bytes: counter "afs_cost_disk_bytes_total",
        /// Event signals.
        event_signals: counter "afs_cost_event_signals_total",
    }
}

/// Translates abstract costs into virtual time and counts them.
///
/// Cloning is cheap (`Arc` internally); clones share counters.
#[derive(Debug, Clone)]
pub struct CostModel {
    profile: Arc<HardwareProfile>,
    counters: Arc<CostCounters>,
}

impl CostModel {
    /// Creates a model from a profile.
    pub fn new(profile: HardwareProfile) -> Self {
        CostModel {
            profile: Arc::new(profile),
            counters: Arc::default(),
        }
    }

    /// A model that charges nothing (wall-clock mode).
    pub fn free() -> Self {
        CostModel::new(HardwareProfile::free())
    }

    /// The profile this model prices against.
    pub fn profile(&self) -> &HardwareProfile {
        &self.profile
    }

    /// Charges `cost` to the current thread's virtual clock and updates the
    /// shared counters. If the thread has no clock the time is dropped but
    /// the counters still move (so copy accounting works in wall-clock
    /// benches too).
    pub fn charge(&self, cost: Cost) {
        self.count(cost);
        let ns = self.profile.price(cost);
        if ns > 0 {
            clock::advance(ns);
        }
    }

    /// Charges the crossings of one round trip over `crossing`.
    pub fn charge_round_trip(&self, crossing: CrossingKind) {
        (0..crossing.round_trip_switches()).for_each(|_| self.charge(Cost::Crossing(crossing)));
    }

    /// Prices a cost without charging it; useful for analytic assertions in
    /// tests.
    pub fn price(&self, cost: Cost) -> u64 {
        self.profile.price(cost)
    }

    fn count(&self, cost: Cost) {
        let (c, writer) = self.counters.cells.mine();
        let add = |tally: &Tally, n: u64| tally.add(writer, n);
        match cost {
            Cost::Syscall => add(&c.syscalls, 1),
            Cost::ProcessSwitch | Cost::Crossing(CrossingKind::InterProcess) => {
                add(&c.process_switches, 1)
            }
            Cost::ThreadSwitch | Cost::Crossing(CrossingKind::InterThread) => {
                add(&c.thread_switches, 1)
            }
            Cost::Crossing(CrossingKind::None) => {}
            Cost::Memcpy { bytes } => {
                add(&c.memcpy_bytes, bytes as u64);
                add(&c.copies, 1);
            }
            Cost::PipeCopy { bytes } => {
                add(&c.pipe_copy_bytes, bytes as u64);
                add(&c.copies, 1);
            }
            Cost::PipeMessage => add(&c.pipe_messages, 1),
            Cost::NetRoundTrip => add(&c.net_round_trips, 1),
            Cost::NetBytes { bytes } => add(&c.net_bytes, bytes as u64),
            Cost::DiskAccess => add(&c.disk_accesses, 1),
            Cost::DiskReadBytes { bytes } | Cost::DiskWriteBytes { bytes } => {
                add(&c.disk_bytes, bytes as u64);
            }
            Cost::EventSignal => add(&c.event_signals, 1),
        }
    }

    /// Copies out the current counters, summed over every stripe.
    pub fn snapshot(&self) -> CostSnapshot {
        self.counters.snapshot()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::free()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::borrow::Borrow;

    use super::*;
    use crate::clock;
    use crate::rng::SimRng;

    #[test]
    fn prices_follow_profile() {
        let p = HardwareProfile::pentium_ii_300();
        assert_eq!(p.price(Cost::Syscall), p.syscall_ns);
        assert_eq!(
            p.price(Cost::Memcpy { bytes: 10 }),
            10 * p.memcpy_ns_per_byte
        );
        assert_eq!(
            p.price(Cost::Crossing(CrossingKind::InterProcess)),
            p.process_switch_ns
        );
        assert_eq!(p.price(Cost::Crossing(CrossingKind::None)), 0);
    }

    #[test]
    fn charge_advances_installed_clock() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        let _g = clock::install(0);
        model.charge(Cost::Syscall);
        assert_eq!(clock::now(), model.price(Cost::Syscall));
    }

    #[test]
    fn charge_without_clock_counts_but_keeps_time_zero() {
        let model = CostModel::new(HardwareProfile::pentium_ii_300());
        model.charge(Cost::PipeCopy { bytes: 128 });
        assert_eq!(clock::now(), 0);
        let snap = model.snapshot();
        assert_eq!(snap.pipe_copy_bytes, 128);
        assert_eq!(snap.copies, 1);
    }

    #[test]
    fn free_model_is_zero_cost() {
        let model = CostModel::free();
        let _g = clock::install(0);
        model.charge(Cost::NetRoundTrip);
        model.charge(Cost::DiskAccess);
        assert_eq!(clock::now(), 0);
        // Counters still move.
        assert_eq!(model.snapshot().net_round_trips, 1);
    }

    #[test]
    fn snapshot_since_subtracts() {
        let model = CostModel::free();
        model.charge(Cost::Syscall);
        let a = model.snapshot();
        model.charge(Cost::Syscall);
        model.charge(Cost::Memcpy { bytes: 7 });
        let b = model.snapshot();
        let d = b.since(&a);
        assert_eq!(d.syscalls, 1);
        assert_eq!(d.memcpy_bytes, 7);
    }

    #[test]
    fn clones_share_counters() {
        let model = CostModel::free();
        let clone = model.clone();
        clone.charge(Cost::EventSignal);
        assert_eq!(model.snapshot().event_signals, 1);
        // From another thread's stripe too.
        std::thread::spawn(move || clone.charge(Cost::EventSignal))
            .join()
            .expect("charging thread");
        assert_eq!(model.snapshot().event_signals, 2);
    }

    /// A seeded charge of any kind.
    pub(crate) fn seeded_charge(rng: &mut SimRng) -> Cost {
        let bytes = rng.next_below(4096) as usize;
        let crossing = [
            CrossingKind::InterProcess,
            CrossingKind::InterThread,
            CrossingKind::None,
        ][rng.next_below(3) as usize];
        [
            Cost::Syscall,
            Cost::ProcessSwitch,
            Cost::ThreadSwitch,
            Cost::Memcpy { bytes },
            Cost::PipeCopy { bytes },
            Cost::PipeMessage,
            Cost::NetRoundTrip,
            Cost::NetBytes { bytes },
            Cost::DiskAccess,
            Cost::DiskReadBytes { bytes },
            Cost::DiskWriteBytes { bytes },
            Cost::EventSignal,
            Cost::Crossing(crossing),
        ][rng.next_below(13) as usize]
    }

    /// The arithmetic the counters must agree with: what `costs` add up
    /// to, charge by charge.
    pub(crate) fn sum_of<C: Borrow<Cost>>(costs: impl IntoIterator<Item = C>) -> CostSnapshot {
        let mut sum = CostSnapshot::default();
        for cost in costs {
            match *cost.borrow() {
                Cost::Syscall => sum.syscalls += 1,
                Cost::ProcessSwitch | Cost::Crossing(CrossingKind::InterProcess) => {
                    sum.process_switches += 1;
                }
                Cost::ThreadSwitch | Cost::Crossing(CrossingKind::InterThread) => {
                    sum.thread_switches += 1;
                }
                Cost::Crossing(CrossingKind::None) => {}
                Cost::Memcpy { bytes } => {
                    sum.memcpy_bytes += bytes as u64;
                    sum.copies += 1;
                }
                Cost::PipeCopy { bytes } => {
                    sum.pipe_copy_bytes += bytes as u64;
                    sum.copies += 1;
                }
                Cost::PipeMessage => sum.pipe_messages += 1,
                Cost::NetRoundTrip => sum.net_round_trips += 1,
                Cost::NetBytes { bytes } => sum.net_bytes += bytes as u64,
                Cost::DiskAccess => sum.disk_accesses += 1,
                Cost::DiskReadBytes { bytes } | Cost::DiskWriteBytes { bytes } => {
                    sum.disk_bytes += bytes as u64;
                }
                Cost::EventSignal => sum.event_signals += 1,
            }
        }
        sum
    }

    /// Runs `threads` chargers of `model` side by side, each making
    /// `charges` seeded charges; returns everything they charged.
    fn charge_from(model: &CostModel, threads: u64, charges: u32) -> Vec<Cost> {
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            let chargers: Vec<_> = (0..threads)
                .map(|t| {
                    let start = &start;
                    scope.spawn(move || {
                        let mut rng = SimRng::new(0xC057 + t);
                        let costs: Vec<Cost> =
                            (0..charges).map(|_| seeded_charge(&mut rng)).collect();
                        start.wait();
                        costs.iter().for_each(|&cost| model.charge(cost));
                        costs
                    })
                })
                .collect();
            chargers
                .into_iter()
                .flat_map(|c| c.join().expect("charging thread"))
                .collect()
        })
    }

    #[test]
    fn striped_counters_sum_exactly_under_threads() {
        let model = CostModel::free();
        let expect = sum_of(charge_from(&model, 8, 10_000));
        assert_eq!(model.snapshot(), expect);
    }

    /// More chargers than owned cells, so some write the shared one: the
    /// totals stay exact.
    #[test]
    fn totals_stay_exact_when_chargers_outnumber_cells() {
        let model = CostModel::free();
        let charged = charge_from(&model, 12, 2_000);
        assert_eq!(model.snapshot(), sum_of(&charged));
    }

    #[test]
    fn round_trip_switch_counts() {
        assert_eq!(CrossingKind::InterProcess.round_trip_switches(), 2);
        assert_eq!(CrossingKind::InterThread.round_trip_switches(), 2);
        assert_eq!(CrossingKind::None.round_trip_switches(), 0);
    }
}
