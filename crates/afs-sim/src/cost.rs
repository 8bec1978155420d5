//! The hardware cost model.
//!
//! Each parameter corresponds to a cost the paper's prototype paid on its
//! 300 MHz Pentium II / 100 Mbps Fast Ethernet testbed. Substrate code
//! charges abstract [`Cost`]s; the model translates them into nanoseconds
//! and advances the caller's virtual clock. A [`CostSnapshot`] additionally
//! counts how many of each kind of charge happened, which backs the
//! per-op counts of the bench grid and `figure6`'s accounting view.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock;
use crate::stripe::Striped;

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

/// Per-kind counters accumulated by a [`CostModel`], one set per stripe:
/// a charge adds to the charging thread's stripe, a reader sums them all.
/// They back the "copies per operation" diagnostic of the benchmark
/// harness. The three an [`OpWindow`] reads come first, so the window
/// loads one line per stripe.
#[derive(Debug, Default)]
#[repr(C)]
struct Counters {
    process_switches: AtomicU64,
    thread_switches: AtomicU64,
    copies: AtomicU64,
    syscalls: AtomicU64,
    memcpy_bytes: AtomicU64,
    pipe_copy_bytes: AtomicU64,
    pipe_messages: AtomicU64,
    net_round_trips: AtomicU64,
    net_bytes: AtomicU64,
    disk_accesses: AtomicU64,
    disk_bytes: AtomicU64,
    event_signals: AtomicU64,
}

/// A point-in-time copy of the model's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    /// Kernel entries.
    pub syscalls: u64,
    /// Process context switches.
    pub process_switches: u64,
    /// Thread switches.
    pub thread_switches: u64,
    /// Bytes moved by user-level memcpy.
    pub memcpy_bytes: u64,
    /// Bytes moved through pipe (user<->kernel) copies.
    pub pipe_copy_bytes: u64,
    /// Pipe messages.
    pub pipe_messages: u64,
    /// Network round trips.
    pub net_round_trips: u64,
    /// Bytes streamed over the network.
    pub net_bytes: u64,
    /// Disk accesses.
    pub disk_accesses: u64,
    /// Bytes moved to/from disk.
    pub disk_bytes: u64,
    /// Event signals.
    pub event_signals: u64,
    /// Total buffer copies of any kind (memcpy + pipe copies), counted per
    /// copy operation rather than per byte.
    pub copies: u64,
}

impl CostSnapshot {
    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            syscalls: self.syscalls.saturating_sub(earlier.syscalls),
            process_switches: self
                .process_switches
                .saturating_sub(earlier.process_switches),
            thread_switches: self.thread_switches.saturating_sub(earlier.thread_switches),
            memcpy_bytes: self.memcpy_bytes.saturating_sub(earlier.memcpy_bytes),
            pipe_copy_bytes: self.pipe_copy_bytes.saturating_sub(earlier.pipe_copy_bytes),
            pipe_messages: self.pipe_messages.saturating_sub(earlier.pipe_messages),
            net_round_trips: self.net_round_trips.saturating_sub(earlier.net_round_trips),
            net_bytes: self.net_bytes.saturating_sub(earlier.net_bytes),
            disk_accesses: self.disk_accesses.saturating_sub(earlier.disk_accesses),
            disk_bytes: self.disk_bytes.saturating_sub(earlier.disk_bytes),
            event_signals: self.event_signals.saturating_sub(earlier.event_signals),
            copies: self.copies.saturating_sub(earlier.copies),
        }
    }
}

/// The part of the counters one operation's record is made of, read
/// before and after the operation: protection-domain crossings (process
/// plus thread switches) and buffer copies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpWindow {
    /// Process switches plus thread switches.
    pub crossings: u64,
    /// Buffer copies of any kind, per copy operation.
    pub copies: u64,
}

thread_local! {
    /// What this thread has charged, to any model: its simulation state
    /// beside the virtual clock.
    static OWN: Cell<OpWindow> = const { Cell::new(OpWindow { crossings: 0, copies: 0 }) };
}

impl OpWindow {
    /// The calling thread's own charges since it started, whatever model
    /// they went to. Moves only when this thread charges, so a difference
    /// of two readings is exact whatever other threads do meanwhile — the
    /// window of an operation that runs wholly on its caller's thread.
    pub fn of_this_thread() -> OpWindow {
        OWN.get()
    }

    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &OpWindow) -> OpWindow {
        OpWindow {
            crossings: self.crossings.saturating_sub(earlier.crossings),
            copies: self.copies.saturating_sub(earlier.copies),
        }
    }
}

/// Translates abstract costs into virtual time and counts them.
///
/// Cloning is cheap (`Arc` internally); clones share counters.
#[derive(Debug, Clone)]
pub struct CostModel {
    profile: Arc<HardwareProfile>,
    counters: Arc<Striped<Counters>>,
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

    /// Prices a cost without charging it; useful for analytic assertions in
    /// tests.
    pub fn price(&self, cost: Cost) -> u64 {
        self.profile.price(cost)
    }

    fn count(&self, cost: Cost) {
        let c = self.counters.mine();
        let add = |counter: &AtomicU64, n: u64| {
            counter.fetch_add(n, Ordering::Relaxed);
        };
        let own = |crossings: u64, copies: u64| {
            let was = OWN.get();
            OWN.set(OpWindow {
                crossings: was.crossings + crossings,
                copies: was.copies + copies,
            });
        };
        match cost {
            Cost::Syscall => add(&c.syscalls, 1),
            Cost::ProcessSwitch | Cost::Crossing(CrossingKind::InterProcess) => {
                add(&c.process_switches, 1);
                own(1, 0);
            }
            Cost::ThreadSwitch | Cost::Crossing(CrossingKind::InterThread) => {
                add(&c.thread_switches, 1);
                own(1, 0);
            }
            Cost::Crossing(CrossingKind::None) => {}
            Cost::Memcpy { bytes } => {
                add(&c.memcpy_bytes, bytes as u64);
                add(&c.copies, 1);
                own(0, 1);
            }
            Cost::PipeCopy { bytes } => {
                add(&c.pipe_copy_bytes, bytes as u64);
                add(&c.copies, 1);
                own(0, 1);
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
        let sum = |pick: fn(&Counters) -> &AtomicU64| {
            let load = |c| pick(c).load(Ordering::Relaxed);
            self.counters.iter().map(load).sum()
        };
        CostSnapshot {
            syscalls: sum(|c| &c.syscalls),
            process_switches: sum(|c| &c.process_switches),
            thread_switches: sum(|c| &c.thread_switches),
            memcpy_bytes: sum(|c| &c.memcpy_bytes),
            pipe_copy_bytes: sum(|c| &c.pipe_copy_bytes),
            pipe_messages: sum(|c| &c.pipe_messages),
            net_round_trips: sum(|c| &c.net_round_trips),
            net_bytes: sum(|c| &c.net_bytes),
            disk_accesses: sum(|c| &c.disk_accesses),
            disk_bytes: sum(|c| &c.disk_bytes),
            event_signals: sum(|c| &c.event_signals),
            copies: sum(|c| &c.copies),
        }
    }

    /// The [`OpWindow`] of everything charged to this model by any thread:
    /// the three counters a record needs and no others, which is what an
    /// operation served on another thread has to be measured with.
    pub fn op_window(&self) -> OpWindow {
        let mut window = OpWindow::default();
        for c in self.counters.iter() {
            window.crossings += c.process_switches.load(Ordering::Relaxed)
                + c.thread_switches.load(Ordering::Relaxed);
            window.copies += c.copies.load(Ordering::Relaxed);
        }
        window
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::free()
    }
}

#[cfg(test)]
mod tests {
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
    fn seeded_charge(rng: &mut SimRng) -> Cost {
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
    fn sum_of(costs: &[Cost]) -> CostSnapshot {
        let mut sum = CostSnapshot::default();
        for &cost in costs {
            match cost {
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
    /// `charges` seeded charges and checking that its own window moved by
    /// exactly those; returns everything they charged.
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
                        let before = OpWindow::of_this_thread();
                        costs.iter().for_each(|&cost| model.charge(cost));
                        let own = OpWindow::of_this_thread().since(&before);
                        let sum = sum_of(&costs);
                        assert_eq!(own.crossings, sum.process_switches + sum.thread_switches);
                        assert_eq!(own.copies, sum.copies);
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
        let expect = sum_of(&charge_from(&model, 8, 10_000));
        assert_eq!(model.snapshot(), expect);
        let window = model.op_window();
        assert_eq!(
            window.crossings,
            expect.process_switches + expect.thread_switches
        );
        assert_eq!(window.copies, expect.copies);
    }

    /// More chargers than stripes, so some share a stripe: a thread's own
    /// window still moves by its own charges only (checked in every
    /// charger), and the totals stay exact.
    #[test]
    fn own_window_moves_only_by_the_callers_charges() {
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
