//! Per-layer counter metrics: deltas of the stack's public counters
//! over a fixed-count leg, divided by ops.

use afs_interpose::CountersSnapshot;
use afs_net::{reliability::ReliabilitySnapshot, NetworkStats};
use afs_sim::{Cost, CostSnapshot, HardwareProfile};
use afs_telemetry::{
    ClusterSnapshot, FleetSnapshot, GaugesSnapshot, RingSnapshot, SessionSnapshot, StoreSnapshot,
};

use crate::workloads::{Sources, BLOCK};

/// Every public counter the benchmark reads, at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    cost: CostSnapshot,
    queue: GaugesSnapshot,
    sessions: SessionSnapshot,
    fleet: FleetSnapshot,
    store: StoreSnapshot,
    rings: RingSnapshot,
    cluster: ClusterSnapshot,
    net: NetworkStats,
    reliability: ReliabilitySnapshot,
    calls: CountersSnapshot,
    telemetry_spans: u64,
}

impl Counters {
    /// Reads every counter `sources` exposes.
    pub fn read(sources: &Sources) -> Counters {
        let mut c = Counters {
            cost: sources.model.snapshot(),
            net: sources.net.stats(),
            reliability: sources.net.reliability(),
            ..Counters::default()
        };
        if let Some(t) = &sources.telemetry {
            c.queue = t.gauges().snapshot();
            c.sessions = t.sessions().snapshot();
            c.fleet = t.fleet().snapshot();
            c.store = t.store().snapshot();
            c.rings = t.rings().snapshot();
            c.telemetry_spans = t.span_count();
        }
        if let Some(calls) = &sources.calls {
            c.calls = calls.snapshot();
        }
        if let Some(cluster) = &sources.cluster {
            c.cluster = cluster.snapshot();
        }
        c
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Appends the counter-sourced per-layer metrics for a leg of `ops`
/// ops whose virtual latencies sum to `sim_total_ns`.
pub fn counter_metrics(
    before: &Counters,
    after: &Counters,
    ops: u64,
    sim_total_ns: u64,
    profile: &HardwareProfile,
    out: &mut Vec<(&'static str, f64)>,
) {
    let per_op = |n: u64| ratio(n, ops);
    let d = |a: u64, b: u64| a.saturating_sub(b);
    let cost = after.cost.since(&before.cost);
    let calls = {
        let (a, b) = (&after.calls, &before.calls);
        [
            d(a.create_file, b.create_file),
            d(a.read_file, b.read_file),
            d(a.write_file, b.write_file),
            d(a.close_handle, b.close_handle),
            d(a.get_file_size, b.get_file_size),
            d(a.set_file_pointer, b.set_file_pointer),
            d(a.flush_file_buffers, b.flush_file_buffers),
            d(a.device_io_control, b.device_io_control),
            d(a.read_file_scatter, b.read_file_scatter),
            d(a.write_file_gather, b.write_file_gather),
            d(a.other, b.other),
        ]
    };
    let write_calls = calls[2];
    out.push(("interpose.calls_per_op", per_op(calls.iter().sum())));

    let (q, qb) = (&after.queue, &before.queue);
    let reuses = d(q.pool_reuses, qb.pool_reuses);
    let allocations = d(q.pool_allocations, qb.pool_allocations);
    out.push(("ipc.pool_reuse_share", ratio(reuses, reuses + allocations)));
    let (s, sb) = (&after.sessions, &before.sessions);
    out.push((
        "ipc.mux_coalesced_share",
        ratio(d(s.coalesced_writes, sb.coalesced_writes), write_calls),
    ));
    out.push((
        "ipc.mux_flushes_per_op",
        per_op(d(s.flushed_batches, sb.flushed_batches)),
    ));
    out.push(("ipc.pipe_buffered_peak_bytes", q.pipe_buffered_peak as f64));

    out.push((
        "core.crossings_per_op",
        per_op(cost.process_switches + cost.thread_switches),
    ));
    out.push(("core.copies_per_op", per_op(cost.copies)));
    out.push(("core.syscalls_per_op", per_op(cost.syscalls)));
    let (f, fb) = (&after.fleet, &before.fleet);
    out.push(("core.exec_polls_per_op", per_op(d(f.polls, fb.polls))));
    out.push(("core.exec_wakeups_per_op", per_op(d(f.wakeups, fb.wakeups))));
    out.push(("core.exec_parks_per_op", per_op(d(f.parks, fb.parks))));
    out.push(("core.exec_steals_per_op", per_op(d(f.steals, fb.steals))));
    out.push(("core.exec_queue_depth_peak", f.queue_depth_peak as f64));
    let (r, rb) = (&after.rings, &before.rings);
    out.push((
        "core.ring_ops_per_batch",
        ratio(
            d(r.ops_submitted, rb.ops_submitted),
            d(r.batches, rb.batches),
        ),
    ));
    out.push((
        "core.ring_readahead_hit_share",
        per_op(d(r.readahead_hits, rb.readahead_hits)),
    ));
    out.push((
        "core.ring_out_of_order_share",
        ratio(
            d(r.completions_out_of_order, rb.completions_out_of_order),
            d(r.completions, rb.completions),
        ),
    ));

    let (st, stb) = (&after.store, &before.store);
    let commits = d(st.commits, stb.commits);
    out.push((
        "store.wal_bytes_per_user_byte",
        ratio(d(st.wal_bytes, stb.wal_bytes), write_calls * BLOCK as u64),
    ));
    out.push((
        "store.fsyncs_per_commit",
        ratio(d(st.fsyncs, stb.fsyncs), commits),
    ));
    out.push(("store.commits_per_op", per_op(commits)));
    out.push((
        "store.checkpoints",
        d(st.checkpoints, stb.checkpoints) as f64,
    ));

    let (n, nb) = (&after.net, &before.net);
    out.push(("net.round_trips_per_op", per_op(cost.net_round_trips)));
    out.push((
        "net.bytes_per_op",
        per_op(d(n.bytes_sent, nb.bytes_sent) + d(n.bytes_received, nb.bytes_received)),
    ));
    out.push((
        "net.retries_per_op",
        per_op(d(after.reliability.retries, before.reliability.retries)),
    ));
    out.push(("net.dropped", d(n.dropped, nb.dropped) as f64));

    let (c, cb) = (&after.cluster, &before.cluster);
    let cluster_ops = d(c.reads, cb.reads) + d(c.writes, cb.writes);
    let messages = d(n.rpcs, nb.rpcs) + d(n.casts, nb.casts);
    out.push((
        "remote.cluster_messages_per_op",
        if cluster_ops == 0 {
            0.0
        } else {
            per_op(messages)
        },
    ));
    out.push((
        "remote.cluster_read_failover_share",
        ratio(d(c.read_failovers, cb.read_failovers), d(c.reads, cb.reads)),
    ));
    out.push((
        "remote.cluster_stale_waits_per_op",
        per_op(d(c.stale_waits, cb.stale_waits)),
    ));
    out.push((
        "remote.cluster_stale_rejects",
        d(c.stale_rejects, cb.stale_rejects) as f64,
    ));
    out.push((
        "remote.cluster_replication_failures",
        d(c.replication_failures, cb.replication_failures) as f64,
    ));

    out.push((
        "telemetry.spans_per_op",
        per_op(d(after.telemetry_spans, before.telemetry_spans)),
    ));

    sim_shares(&cost, ops, sim_total_ns, profile, out);
}

/// Figure 6's decomposition from outside: counts × prices ÷ ops. The
/// eight shares sum to the mean virtual op time exactly — whatever the
/// priced counts do not explain (waits, work charged off the
/// application's critical path, which comes out negative) is
/// `unattributed`. `disk_bytes` lumps reads and writes; it is priced
/// at the write rate.
fn sim_shares(
    cost: &CostSnapshot,
    ops: u64,
    sim_total_ns: u64,
    profile: &HardwareProfile,
    out: &mut Vec<(&'static str, f64)>,
) {
    let price = |c: Cost| profile.price(c);
    let bytes = |n: u64| n as usize;
    let parts: [(&'static str, u64); 7] = [
        (
            "sim.share.crossing_ns",
            cost.process_switches * price(Cost::ProcessSwitch)
                + cost.thread_switches * price(Cost::ThreadSwitch),
        ),
        (
            "sim.share.copy_ns",
            price(Cost::Memcpy {
                bytes: bytes(cost.memcpy_bytes),
            }) + price(Cost::PipeCopy {
                bytes: bytes(cost.pipe_copy_bytes),
            }),
        ),
        ("sim.share.syscall_ns", cost.syscalls * price(Cost::Syscall)),
        (
            "sim.share.pipe_ns",
            cost.pipe_messages * price(Cost::PipeMessage),
        ),
        (
            "sim.share.event_ns",
            cost.event_signals * price(Cost::EventSignal),
        ),
        (
            "sim.share.net_ns",
            cost.net_round_trips * price(Cost::NetRoundTrip)
                + price(Cost::NetBytes {
                    bytes: bytes(cost.net_bytes),
                }),
        ),
        (
            "sim.share.disk_ns",
            cost.disk_accesses * price(Cost::DiskAccess)
                + price(Cost::DiskWriteBytes {
                    bytes: bytes(cost.disk_bytes),
                }),
        ),
    ];
    let ops_f = ops.max(1) as f64;
    let priced: u64 = parts.iter().map(|(_, ns)| ns).sum();
    for (name, ns) in parts {
        out.push((name, ns as f64 / ops_f));
    }
    let unattributed = sim_total_ns as f64 - priced as f64;
    out.push(("sim.share.unattributed_ns", unattributed / ops_f));
    out.push((
        "sim.unattributed_share",
        if sim_total_ns == 0 {
            0.0
        } else {
            unattributed / sim_total_ns as f64
        },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_the_mean_exactly() {
        let profile = HardwareProfile::pentium_ii_300();
        let cost = CostSnapshot {
            thread_switches: 2000,
            memcpy_bytes: 128_000,
            event_signals: 2000,
            syscalls: 7,
            ..CostSnapshot::default()
        };
        let mut out = Vec::new();
        let (ops, total) = (1000u64, 19_072_000u64);
        sim_shares(&cost, ops, total, &profile, &mut out);
        let sum: f64 = out
            .iter()
            .filter(|(name, _)| name.starts_with("sim.share."))
            .map(|(_, v)| v)
            .sum();
        assert!((sum - total as f64 / ops as f64).abs() < 1e-6, "{sum}");
    }
}
