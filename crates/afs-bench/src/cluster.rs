//! The cluster workload: zipfian client sessions over a replicated
//! active-file fleet.
//!
//! The paper's §5 distribution story puts the active file in front of a
//! *fleet*, not a single server. This module drives the
//! [`ClusterClient`] (consistent-hash placement, primary-ack writes with
//! async replication, bounded-staleness read-your-writes reads) with a
//! generated workload: zipfian file popularity, a configurable
//! read/write mix, bursty session arrivals, and client counts swept
//! 1k → 100k → 1M — all in virtual time, so the per-op latency
//! distribution is bit-for-bit reproducible and CI can gate it.
//!
//! Three gate cells come from here: `cluster-100k` and `cluster-1m`
//! (the flat-p99 claim: per-op latency does not grow with the session
//! count at a fixed fleet size) and `cluster-rebalance` (a node join
//! moves at most `1/N + 5%` of the keys, and every key stays readable
//! through the membership change).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use afs_net::{Network, Service};
use afs_remote::{ClusterClient, FileServer};
use afs_sim::{clock, CostModel, HardwareProfile, Series};
use afs_telemetry::{ClusterGauges, ClusterSnapshot};

use crate::workload::Zipf;

/// Fleet size (member file servers) behind the cluster cells.
pub const CLUSTER_FLEET: usize = 5;

/// Total copies kept per file (primary + replicas).
pub const CLUSTER_COPIES: usize = 2;

/// Block size of every cluster operation (the Figure 6 midpoint).
pub const CLUSTER_BLOCK: usize = 128;

/// Distinct files the zipfian popularity ranks over.
pub const CLUSTER_FILES: usize = 64;

/// Fraction of operations that are reads (the rest are primary-ack
/// writes).
pub const CLUSTER_READ_FRACTION: f64 = 0.9;

/// Zipf skew of the file popularity (the classic YCSB default).
pub const CLUSTER_THETA: f64 = 0.99;

/// `staleness_ms` bound every session reads under.
pub const CLUSTER_STALENESS_MS: u64 = 10;

/// Sessions arriving per burst: the arrival process is bursty, not
/// uniform — every [`CLUSTER_BURST_GAP_NS`] of virtual time, this many
/// sessions start at once.
pub const CLUSTER_BURST: usize = 64;

/// Virtual gap between arrival bursts.
pub const CLUSTER_BURST_GAP_NS: u64 = 1_000_000;

/// Keys written before the `cluster-rebalance` join.
pub const CLUSTER_REBALANCE_KEYS: usize = 256;

/// Real threads the virtual sessions are sharded over. Fixed (not
/// core-count-derived) so the pooled latency series is identical on
/// every machine.
const CLUSTER_SHARDS: usize = 8;

/// Labels and client counts of the two gated cluster cells. Release
/// builds gate the headline 100k and 1M points; debug builds (the in-repo
/// test suite) scale down to 1k and 10k so `cargo test` stays quick — the
/// label carries the count, so a debug-produced document can never pass
/// silently against the release baseline.
pub(crate) const GATE_CLUSTER: [(&str, usize); 2] = if cfg!(debug_assertions) {
    [("cluster-1k", 1_000), ("cluster-10k", 10_000)]
} else {
    [("cluster-100k", 100_000), ("cluster-1m", 1_000_000)]
};

fn cluster_file(rank: usize) -> String {
    format!("/data/f{rank}.af")
}

fn member(i: usize) -> String {
    format!("files-{i}")
}

/// One measured cluster cell.
#[derive(Debug, Clone)]
pub struct ClusterMeasurement {
    /// Virtual client sessions driven.
    pub clients: usize,
    /// Pooled per-op virtual latencies across every session.
    pub summary: afs_sim::Summary,
    /// Cluster gauges accumulated over the run.
    pub cluster: ClusterSnapshot,
    /// Network messages (RPCs + replication casts) per operation — the
    /// cluster's crossing count, gated alongside p99.
    pub messages_per_op: f64,
}

/// Runs one cluster cell: `clients` virtual sessions over a
/// [`CLUSTER_FLEET`]-node fleet keeping [`CLUSTER_COPIES`] copies per
/// file. Each session arrives in a burst ([`CLUSTER_BURST`] sessions
/// per [`CLUSTER_BURST_GAP_NS`] of virtual time), picks a file by
/// zipfian popularity, and issues one 128-byte operation —
/// [`CLUSTER_READ_FRACTION`] reads, the rest primary-ack writes — timed
/// under its own virtual clock.
///
/// Sessions are sharded over a fixed number of real threads; the
/// virtual latencies are independent of the real thread count, so the
/// pooled summary is deterministic.
pub fn measure_cluster(clients: usize, profile: HardwareProfile) -> ClusterMeasurement {
    let net = Network::new(CostModel::new(profile));
    let gauges = Arc::new(ClusterGauges::default());
    let seed_block: Vec<u8> = (0..CLUSTER_BLOCK).map(|i| (i % 251) as u8).collect();
    for i in 0..CLUSTER_FLEET {
        let server = FileServer::new();
        for rank in 0..CLUSTER_FILES {
            server.seed(&cluster_file(rank), &seed_block);
        }
        net.register(&member(i), server as Arc<dyn Service>);
    }

    let shards = CLUSTER_SHARDS.min(clients).max(1);
    let per = clients / shards;
    let extra = clients % shards;
    let mut joins = Vec::new();
    for shard in 0..shards {
        let net = net.clone();
        let gauges = Arc::clone(&gauges);
        let count = per + usize::from(shard < extra);
        let first = shard * per + shard.min(extra);
        joins.push(std::thread::spawn(move || {
            let zipf = Zipf::new(CLUSTER_FILES, CLUSTER_THETA);
            let mut rng = SmallRng::seed_from_u64(0xC10D + shard as u64);
            let session = ClusterClient::new(net, CLUSTER_COPIES, Some(CLUSTER_STALENESS_MS));
            for i in 0..CLUSTER_FLEET {
                session.add_node(&member(i));
            }
            // Gauges attach after the initial membership: only real
            // churn counts as a rebalance.
            let session = session.with_gauges(gauges);
            let payload = vec![0xB7u8; CLUSTER_BLOCK];
            let mut latencies = Vec::with_capacity(count);
            for c in 0..count {
                let arrival = ((first + c) / CLUSTER_BURST) as u64 * CLUSTER_BURST_GAP_NS;
                let _guard = clock::install(arrival);
                let path = cluster_file(zipf.sample(&mut rng));
                let start = clock::now();
                if rng.gen_bool(CLUSTER_READ_FRACTION) {
                    let data = session.read(&path, 0, CLUSTER_BLOCK).expect("cluster read");
                    assert_eq!(data.len(), CLUSTER_BLOCK);
                } else {
                    let n = session.write(&path, 0, &payload).expect("cluster write");
                    assert_eq!(n, CLUSTER_BLOCK as u64);
                }
                latencies.push(clock::now() - start);
            }
            latencies
        }));
    }
    let mut series = Series::with_capacity(clients);
    for join in joins {
        series.extend(join.join().expect("cluster shard"));
    }
    let stats = net.stats();
    ClusterMeasurement {
        clients,
        summary: series.summarize(),
        cluster: gauges.snapshot(),
        messages_per_op: (stats.rpcs + stats.casts) as f64 / clients.max(1) as f64,
    }
}

/// The `cluster-rebalance` cell: key movement and post-join read
/// behaviour when a node joins the fleet.
#[derive(Debug, Clone)]
pub struct RebalanceMeasurement {
    /// Keys written before the join.
    pub keys: usize,
    /// Keys whose primary moved to the joiner.
    pub moved: usize,
    /// The movement bound the join must respect:
    /// `keys / (N + 1) + 5%` — consistent hashing's fair share plus
    /// slack for virtual-node granularity.
    pub moved_limit: f64,
    /// Per-key post-join read latencies (moved keys fail over to the
    /// surviving copies, so the tail carries the failover cost).
    pub summary: afs_sim::Summary,
    /// Cluster gauges after the run (`read_failovers` > 0 proves moved
    /// keys really re-routed).
    pub cluster: ClusterSnapshot,
    /// Network messages per post-join read.
    pub messages_per_op: f64,
}

/// Writes `keys` files into a [`CLUSTER_FLEET`]-node fleet, joins one
/// more node, and measures what moved: the fraction of primaries the
/// joiner took over, and the per-key read latency *through* the
/// rebalance — every key must stay readable at the session's own
/// read-your-writes floor, moved keys via failover to their surviving
/// copies.
pub fn measure_cluster_rebalance(keys: usize, profile: HardwareProfile) -> RebalanceMeasurement {
    let net = Network::new(CostModel::new(profile));
    // The joiner's server is registered up front; it only enters the
    // placement ring at the join.
    for i in 0..=CLUSTER_FLEET {
        net.register(&member(i), FileServer::new() as Arc<dyn Service>);
    }
    let gauges = Arc::new(ClusterGauges::default());
    let _guard = clock::install(0);
    let session = ClusterClient::new(net.clone(), CLUSTER_COPIES, Some(CLUSTER_STALENESS_MS));
    for i in 0..CLUSTER_FLEET {
        session.add_node(&member(i));
    }
    let session = session.with_gauges(Arc::clone(&gauges));
    let paths: Vec<String> = (0..keys).map(|k| format!("/data/k{k}.af")).collect();
    let payload = vec![0x5Cu8; CLUSTER_BLOCK];
    for path in &paths {
        session.write(path, 0, &payload).expect("seed write");
    }
    let before: Vec<String> = paths.iter().map(|p| session.owners(p)[0].clone()).collect();

    session.add_node(&member(CLUSTER_FLEET));
    let moved = paths
        .iter()
        .zip(&before)
        .filter(|(path, old)| &session.owners(path)[0] != *old)
        .count();

    let msgs_before = net.stats();
    let mut series = Series::with_capacity(keys);
    for path in &paths {
        let start = clock::now();
        let data = session
            .read(path, 0, CLUSTER_BLOCK)
            .expect("post-join read");
        assert_eq!(data, payload, "rebalance must not lose bytes: {path}");
        series.push(clock::now() - start);
    }
    let msgs_after = net.stats();
    let moved_limit = keys as f64 / (CLUSTER_FLEET + 1) as f64 + keys as f64 * 0.05;
    RebalanceMeasurement {
        keys,
        moved,
        moved_limit,
        summary: series.summarize(),
        cluster: gauges.snapshot(),
        messages_per_op: ((msgs_after.rpcs + msgs_after.casts)
            - (msgs_before.rpcs + msgs_before.casts)) as f64
            / keys.max(1) as f64,
    }
}

/// Client counts swept by `figure6 --cluster`: a 1k reference plus the
/// two gated counts (1k → 100k → 1M in release builds).
pub fn cluster_panel_clients() -> Vec<usize> {
    let mut counts = vec![1_000];
    for (_, clients) in GATE_CLUSTER {
        if !counts.contains(&clients) {
            counts.push(clients);
        }
    }
    counts
}

/// Runs the cluster sweep and the rebalance cell and renders them as
/// the text table `figure6 --cluster` prints.
pub fn render_cluster_panel(profile: &HardwareProfile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Cluster panel — {CLUSTER_FLEET}-node fleet, {CLUSTER_COPIES} copies per file, \
         zipf({CLUSTER_THETA}) over {CLUSTER_FILES} files, {:.0}% reads, \
         {CLUSTER_BLOCK}-byte ops, staleness_ms={CLUSTER_STALENESS_MS}\n",
        CLUSTER_READ_FRACTION * 100.0
    ));
    out.push_str(&format!(
        "{:>9} {:>10} {:>10} {:>8} {:>10} {:>12} {:>11}\n",
        "clients", "p50", "p99", "msgs/op", "failovers", "replications", "stale-waits"
    ));
    for clients in cluster_panel_clients() {
        let m = measure_cluster(clients, profile.clone());
        out.push_str(&format!(
            "{:>9} {:>8.1}us {:>8.1}us {:>8.2} {:>10} {:>12} {:>11}\n",
            m.clients,
            m.summary.p50_ns as f64 / 1_000.0,
            m.summary.p99_ns as f64 / 1_000.0,
            m.messages_per_op,
            m.cluster.read_failovers,
            m.cluster.replications,
            m.cluster.stale_waits,
        ));
    }
    let r = measure_cluster_rebalance(CLUSTER_REBALANCE_KEYS, profile.clone());
    out.push_str(&format!(
        "rebalance: {} joins {} nodes — {} of {} primaries moved (bound {:.1}), \
         post-join read p99 {:.1}us, failovers {}\n",
        member(CLUSTER_FLEET),
        CLUSTER_FLEET,
        r.moved,
        r.keys,
        r.moved_limit,
        r.summary.p99_ns as f64 / 1_000.0,
        r.cluster.read_failovers,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_cell_is_deterministic() {
        let a = measure_cluster(500, HardwareProfile::pentium_ii_300());
        let b = measure_cluster(500, HardwareProfile::pentium_ii_300());
        assert_eq!(a.summary, b.summary, "virtual latencies reproduce");
        assert_eq!(a.cluster.reads, b.cluster.reads);
        assert_eq!(a.cluster.writes, b.cluster.writes);
        assert_eq!(a.messages_per_op, b.messages_per_op);
        assert_eq!(
            a.cluster.reads + a.cluster.writes,
            500,
            "one op per session"
        );
        assert!(a.cluster.reads > a.cluster.writes, "read-heavy mix");
    }

    /// The headline: per-op p99 does not grow with the session count at
    /// a fixed fleet size — the replication protocol's cost is
    /// per-operation, not per-population.
    #[test]
    fn cluster_p99_stays_flat_as_clients_scale() {
        let small = measure_cluster(1_000, HardwareProfile::pentium_ii_300());
        let big = measure_cluster(5_000, HardwareProfile::pentium_ii_300());
        assert!(
            (big.summary.p99_ns as f64 - small.summary.p99_ns as f64).abs()
                <= small.summary.p99_ns as f64 * 0.10,
            "p99 must stay flat: 5k clients {} ns vs 1k clients {} ns",
            big.summary.p99_ns,
            small.summary.p99_ns
        );
    }

    #[test]
    fn rebalance_moves_a_bounded_fraction_and_keeps_keys_readable() {
        let r = measure_cluster_rebalance(200, HardwareProfile::pentium_ii_300());
        assert!(r.moved > 0, "a join must take over some primaries");
        assert!(
            (r.moved as f64) <= r.moved_limit,
            "join moved {} of {} keys, over the 1/N + 5% bound {:.1}",
            r.moved,
            r.keys,
            r.moved_limit
        );
        assert!(
            r.cluster.read_failovers > 0,
            "moved keys read through failover"
        );
        assert_eq!(r.cluster.rebalances, 1, "exactly one membership change");
    }

    #[test]
    fn panel_renders_every_swept_count() {
        let text = render_cluster_panel(&HardwareProfile::free());
        for clients in cluster_panel_clients() {
            assert!(text.contains(&format!("{clients}")), "{text}");
        }
        assert!(text.contains("rebalance:"), "{text}");
    }
}
