//! The hardware cost model.
//!
//! Each parameter corresponds to a cost the paper's prototype paid on its
//! 300 MHz Pentium II / 100 Mbps Fast Ethernet testbed. Substrate code
//! charges abstract [`Cost`]s; the model translates them into nanoseconds
//! and advances the caller's virtual clock. A [`CostSnapshot`] additionally
//! counts how many of each kind of charge happened, which backs the
//! `figure6 --copies` diagnostic table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock;

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

/// Per-kind counters accumulated by a [`CostModel`].
///
/// The counters are global across all threads sharing the model; they back
/// the "copies per operation" diagnostic of the benchmark harness.
#[derive(Debug, Default)]
struct Counters {
    syscalls: AtomicU64,
    process_switches: AtomicU64,
    thread_switches: AtomicU64,
    memcpy_bytes: AtomicU64,
    pipe_copy_bytes: AtomicU64,
    pipe_messages: AtomicU64,
    net_round_trips: AtomicU64,
    net_bytes: AtomicU64,
    disk_accesses: AtomicU64,
    disk_bytes: AtomicU64,
    event_signals: AtomicU64,
    copies: AtomicU64,
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

/// Translates abstract costs into virtual time and counts them.
///
/// Cloning is cheap (`Arc` internally); clones share counters.
#[derive(Debug, Clone)]
pub struct CostModel {
    profile: Arc<HardwareProfile>,
    counters: Arc<Counters>,
}

impl CostModel {
    /// Creates a model from a profile.
    pub fn new(profile: HardwareProfile) -> Self {
        CostModel {
            profile: Arc::new(profile),
            counters: Arc::new(Counters::default()),
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
        let c = &*self.counters;
        match cost {
            Cost::Syscall => {
                c.syscalls.fetch_add(1, Ordering::Relaxed);
            }
            Cost::ProcessSwitch | Cost::Crossing(CrossingKind::InterProcess) => {
                c.process_switches.fetch_add(1, Ordering::Relaxed);
            }
            Cost::ThreadSwitch | Cost::Crossing(CrossingKind::InterThread) => {
                c.thread_switches.fetch_add(1, Ordering::Relaxed);
            }
            Cost::Crossing(CrossingKind::None) => {}
            Cost::Memcpy { bytes } => {
                c.memcpy_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
                c.copies.fetch_add(1, Ordering::Relaxed);
            }
            Cost::PipeCopy { bytes } => {
                c.pipe_copy_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
                c.copies.fetch_add(1, Ordering::Relaxed);
            }
            Cost::PipeMessage => {
                c.pipe_messages.fetch_add(1, Ordering::Relaxed);
            }
            Cost::NetRoundTrip => {
                c.net_round_trips.fetch_add(1, Ordering::Relaxed);
            }
            Cost::NetBytes { bytes } => {
                c.net_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
            Cost::DiskAccess => {
                c.disk_accesses.fetch_add(1, Ordering::Relaxed);
            }
            Cost::DiskReadBytes { bytes } | Cost::DiskWriteBytes { bytes } => {
                c.disk_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
            Cost::EventSignal => {
                c.event_signals.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Copies out the current counters.
    pub fn snapshot(&self) -> CostSnapshot {
        let c = &*self.counters;
        CostSnapshot {
            syscalls: c.syscalls.load(Ordering::Relaxed),
            process_switches: c.process_switches.load(Ordering::Relaxed),
            thread_switches: c.thread_switches.load(Ordering::Relaxed),
            memcpy_bytes: c.memcpy_bytes.load(Ordering::Relaxed),
            pipe_copy_bytes: c.pipe_copy_bytes.load(Ordering::Relaxed),
            pipe_messages: c.pipe_messages.load(Ordering::Relaxed),
            net_round_trips: c.net_round_trips.load(Ordering::Relaxed),
            net_bytes: c.net_bytes.load(Ordering::Relaxed),
            disk_accesses: c.disk_accesses.load(Ordering::Relaxed),
            disk_bytes: c.disk_bytes.load(Ordering::Relaxed),
            event_signals: c.event_signals.load(Ordering::Relaxed),
            copies: c.copies.load(Ordering::Relaxed),
        }
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
    }

    #[test]
    fn round_trip_switch_counts() {
        assert_eq!(CrossingKind::InterProcess.round_trip_switches(), 2);
        assert_eq!(CrossingKind::InterThread.round_trip_switches(), 2);
        assert_eq!(CrossingKind::None.round_trip_switches(), 0);
    }
}
