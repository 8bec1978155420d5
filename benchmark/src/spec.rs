//! The benchmark's declared surface: workloads and metrics, by name.
//! `BENCHMARK.json` at the repo root mirrors these tables; a test keeps
//! the two identical.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the simulator sees on the host
/// clock. Same names on every workload; all come from the dark pass.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ref_ops_per_s", "1/s", Higher, 0.25),
    e2e("ref_p50_us", "us", Lower, 0.25),
    e2e("ref_cpu_us_per_op", "us", Lower, 0.25),
    e2e("host_peak_rss_mb", "MiB", Lower, 0.15),
];

/// Per-layer metrics (traced pass), layer = crate. `sim_ns` is virtual
/// time under `HardwareProfile::pentium_ii_300()`; plain `ns`/`us` is
/// host time.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("interpose.dispatch_ns", "ns", Lower),
    layer("interpose.calls_per_op", "count", Lower),
    layer("winapi.handle_lookup_ns", "ns", Lower),
    layer("winapi.passive_read_ns", "ns", Lower),
    layer("vfs.stream_read_ns", "ns", Lower),
    layer("vfs.stream_write_ns", "ns", Lower),
    layer("vfs.read_2t_speedup", "x", Higher),
    layer("ipc.shm_roundtrip_ns", "ns", Lower),
    layer("ipc.pipe_roundtrip_ns", "ns", Lower),
    layer("ipc.ring_batch_roundtrip_ns", "ns", Lower),
    layer("ipc.pool_reuse_share", "share", Higher),
    layer("ipc.mux_coalesced_share", "share", Higher),
    layer("ipc.mux_flushes_per_op", "count", Lower),
    layer("ipc.pipe_buffered_peak_bytes", "B", Lower),
    layer("core.handoff_ns", "ns", Lower),
    layer("core.crossings_per_op", "count", Lower),
    layer("core.copies_per_op", "count", Lower),
    layer("core.syscalls_per_op", "count", Lower),
    layer("core.exec_polls_per_op", "count", Lower),
    layer("core.exec_wakeups_per_op", "count", Lower),
    layer("core.exec_parks_per_op", "count", Lower),
    layer("core.exec_steals_per_op", "count", Lower),
    layer("core.exec_queue_depth_peak", "count", Lower),
    layer("core.open_close_ns", "ns", Lower),
    layer("core.ring_ops_per_batch", "count", Higher),
    layer("core.ring_readahead_hit_share", "share", Higher),
    layer("core.ring_out_of_order_share", "share", Lower),
    layer("sentinels.logic_ns", "ns", Lower),
    layer("sentinels.filter_ns_per_byte", "ns/B", Lower),
    layer("store.commit_ns", "ns", Lower),
    layer("store.checkpoint_ns", "ns", Lower),
    layer("store.wal_bytes_per_user_byte", "count", Lower),
    layer("store.fsyncs_per_commit", "count", Lower),
    layer("store.commits_per_op", "count", Lower),
    layer("store.checkpoints", "count", Higher),
    layer("store.recovery_ns_per_record", "ns", Lower),
    layer("net.rpc_ns", "ns", Lower),
    layer("net.wire_roundtrip_ns", "ns", Lower),
    layer("net.placement_lookup_ns", "ns", Lower),
    layer("net.round_trips_per_op", "count", Lower),
    layer("net.bytes_per_op", "B", Lower),
    layer("net.retries_per_op", "count", Lower),
    layer("net.dropped", "count", Lower),
    layer("remote.server_handle_ns", "ns", Lower),
    layer("remote.cluster_messages_per_op", "count", Lower),
    layer("remote.cluster_read_failover_share", "share", Lower),
    layer("remote.cluster_stale_waits_per_op", "count", Lower),
    layer("remote.cluster_stale_rejects", "count", Lower),
    layer("remote.cluster_replication_failures", "count", Lower),
    layer("sim.mean_ns", "sim_ns", Lower),
    layer("sim.p50_ns", "sim_ns", Lower),
    layer("sim.p99_ns", "sim_ns", Lower),
    layer("sim.charge_ns", "ns", Lower),
    layer("sim.charge_2t_ns", "ns", Lower),
    layer("sim.share.crossing_ns", "sim_ns", Lower),
    layer("sim.share.copy_ns", "sim_ns", Lower),
    layer("sim.share.syscall_ns", "sim_ns", Lower),
    layer("sim.share.pipe_ns", "sim_ns", Lower),
    layer("sim.share.event_ns", "sim_ns", Lower),
    layer("sim.share.net_ns", "sim_ns", Lower),
    layer("sim.share.disk_ns", "sim_ns", Lower),
    layer("sim.share.unattributed_ns", "sim_ns", Lower),
    layer("sim.unattributed_share", "share", Lower),
    layer("telemetry.overhead_share", "share", Lower),
    layer("telemetry.span_record_ns", "ns", Lower),
    layer("telemetry.spans_per_op", "count", Lower),
    layer("bench.host_allocs_per_op", "count", Lower),
    layer("bench.host_ops_per_s", "1/s", Higher),
    layer("bench.host_p50_us", "us", Lower),
    layer("bench.host_cpu_us_per_op", "us", Lower),
    layer("bench.yardstick_ns_per_step", "ns", Lower),
    layer("bench.ctx_switches_per_op", "count", Lower),
    layer("bench.host_p99_us", "us", Lower),
    layer("bench.host_p999_us", "us", Lower),
    layer("bench.slice_spread_share", "share", Lower),
    layer("bench.scale_speedup", "x", Higher),
    layer("bench.failed_ops_share", "share", Lower),
];

/// One declared workload and its calibration on the 2-core sandbox.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why it is in the set — one line, mirrored into `BENCHMARK.json`.
    pub why: &'static str,
    /// Closed-loop client threads.
    pub clients: usize,
    /// CPUs the process is pinned to (clients never exceed this).
    pub cpus: usize,
    /// Ops per client per timed slice (≈ 25 ms on the sandbox: long
    /// beside the 0.4 ms yardstick run that follows it, short beside
    /// the seconds over which the host's speed moves).
    pub slice_ops: u64,
    /// Ops per client of warm-up inside set-up.
    pub warmup_ops: u64,
    /// Ops per client of each fixed-count leg in the traced pass at
    /// `--seconds 10`; scales linearly with `--seconds`.
    pub traced_ops: u64,
}

/// The seven workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "fig6-thread-read",
        why: "Fig 6(c) Thread point over the private DispatchTask loop: shm PairTransport, Events and executor wake/poll do the host work; store, net, cluster do none",
        clients: 1,
        cpus: 1,
        slice_ops: 6 * 1024,
        warmup_ops: 16 * 1024,
        traced_ops: 64 * 1024,
    },
    WorkloadSpec {
        name: "mux-shared-rw",
        why: "two sessions on one shared ProcessControl sentinel, writes beside reads: kernel-pipe transport and MuxLoop coalescing/flush-before-reply; a handoff win that costs write streaming shows here",
        clients: 1,
        cpus: 1,
        slice_ops: 14 * 1024,
        warmup_ops: 48 * 1024,
        traced_ops: 128 * 1024,
    },
    WorkloadSpec {
        name: "ring-batch-read",
        why: "batch=on ring_depth=8: the third loop (RingDispatchTask), RingPair and readahead harvest; the one path whose virtual time is not yet reproducible, so its drift stays visible",
        clients: 1,
        cpus: 1,
        slice_ops: 24 * 1024,
        warmup_ops: 96 * 1024,
        traced_ops: 256 * 1024,
    },
    WorkloadSpec {
        name: "remote-mirror-read",
        why: "the whole path end to end, interpose to afs-remote FileServer over the simulated Network: net dominates virtual time, handoff dominates host time",
        clients: 1,
        cpus: 1,
        slice_ops: 5 * 1024,
        warmup_ops: 16 * 1024,
        traced_ops: 64 * 1024,
    },
    WorkloadSpec {
        name: "durable-commit",
        why: "DllOnly null sentinel over the WAL page store with checkpointing on: afs-store does the work, transport/executor none; set-up includes a crash-reopen with redo recovery",
        clients: 1,
        cpus: 1,
        slice_ops: 18 * 1024,
        warmup_ops: 96 * 1024,
        traced_ops: 256 * 1024,
    },
    WorkloadSpec {
        name: "cluster-zipf",
        why: "ClusterClient sessions (zipf 0.99 over 64 files, 90/10 r/w, read-your-writes checked) on a 5-member fleet: afs-net placement and afs-remote with no active file in front",
        clients: 2,
        cpus: 2,
        slice_ops: 1024,
        warmup_ops: 8 * 1024,
        traced_ops: 64 * 1024,
    },
    WorkloadSpec {
        name: "dll-scale-2t",
        why: "two threads on their own DllOnly files, open/1024 ops/close: no handoff, only the shared namespace (Vfs lock, HandleTable, sharing registry, CostModel atomics); lock work can only show here",
        clients: 2,
        cpus: 2,
        slice_ops: 22 * 1024,
        warmup_ops: 192 * 1024,
        traced_ops: 256 * 1024,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Slices of every fixed-count leg of the traced pass.
pub const MIN_SLICES: usize = 5;

/// How long each leg of the dark pass's timed phase runs (at least one
/// slice) before the next starts on fresh client threads.
pub const LEG_TIME: std::time::Duration = std::time::Duration::from_millis(100);

/// Host latency is sampled on every `HOST_SAMPLE_STRIDE`-th op: a
/// fixed stride, odd so that it walks through every position of
/// `mux-shared-rw`'s 4-op turns and `ring-batch-read`'s 8-op batches
/// (a stride of 16 only ever sees the first op of each).
pub const HOST_SAMPLE_STRIDE: u64 = 17;

/// Set-up is repeated this many times per dark run; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 5;
