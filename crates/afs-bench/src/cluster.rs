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
//! The grid's cluster cells come from here: one per swept session count
//! (the flat-p99 claim: per-op latency does not grow with the session
//! count at a fixed fleet size), `cluster-rebalance` (a node join moves
//! at most `1/N + 5%` of the keys, and every key stays readable through
//! the membership change) and `cluster-mirror` (the same mix issued by an
//! application through `mirror` active files that name the fleet,
//! Figure 6(a) over the replicated path).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use afs_core::{AfsWorld, SentinelSpec, Strategy};
use afs_net::{Fleet, Network, Service};
use afs_remote::{ClusterClient, FileServer};
use afs_sim::{clock, CostModel, HardwareProfile, Series};
use afs_telemetry::{ClusterGauges, ClusterSnapshot};
use afs_winapi::{Access, Disposition, FileApi, SeekMethod};

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

/// Operations the `cluster-mirror` cell issues: the panel's 1k point.
pub const CLUSTER_MIRROR_OPS: usize = 1_000;

/// Keys written before the `cluster-rebalance` join.
pub const CLUSTER_REBALANCE_KEYS: usize = 256;

/// Real threads the virtual sessions are sharded over. Fixed (not
/// core-count-derived) so the pooled latency series is identical on
/// every machine.
const CLUSTER_SHARDS: usize = 8;

/// Session counts of the cluster sweep: the 1k reference and the two
/// headline counts. Release builds sweep 1k → 100k → 1M; debug builds
/// (the in-repo test suite) stop at 10k so `cargo test` stays quick — the
/// cell name carries the count, so a debug-produced document can never
/// pass silently against the release baseline.
pub const CLUSTER_SESSIONS: &[usize] = if cfg!(debug_assertions) {
    &[1_000, 10_000]
} else {
    &[1_000, 100_000, 1_000_000]
};

fn cluster_file(rank: usize) -> String {
    format!("/data/f{rank}.af")
}

fn member(i: usize) -> String {
    format!("files-{i}")
}

/// [`CLUSTER_FLEET`] file servers on `net`, each seeded with every
/// cluster file.
fn seeded_fleet(net: &Network) {
    let seed_block: Vec<u8> = (0..CLUSTER_BLOCK).map(|i| (i % 251) as u8).collect();
    for i in 0..CLUSTER_FLEET {
        let server = FileServer::new();
        for rank in 0..CLUSTER_FILES {
            server.seed(&cluster_file(rank), &seed_block);
        }
        net.register(&member(i), server as Arc<dyn Service>);
    }
}

/// One measured cluster cell.
#[derive(Debug, Clone)]
pub struct ClusterMeasurement {
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
    seeded_fleet(&net);

    let shards = CLUSTER_SHARDS.min(clients).max(1);
    let per = clients / shards;
    let extra = clients % shards;
    let mut joins = Vec::new();
    for shard in 0..shards {
        let net = net.clone();
        let gauges = Arc::clone(&gauges);
        let count = per + usize::from(shard < extra);
        let first = shard * per + shard.min(extra);
        joins.push(afs_sim::spawn(format!("shard-{shard}"), None, move || {
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
        summary: series.summarize(),
        cluster: gauges.snapshot(),
        messages_per_op: (stats.rpcs + stats.casts) as f64 / clients.max(1) as f64,
    }
}

/// The `cluster-mirror` cell: the panel's mix — zipfian files, the read
/// fraction, [`CLUSTER_BLOCK`]-byte ops — as an application issues it:
/// `ops` `ReadFile`/`WriteFile` calls on [`CLUSTER_FILES`] `mirror`
/// active files (`DllThread`, `service=fleet`, `remote=/data/f{rank}.af`)
/// over the same fleet, registered as `fleet`. Each call is timed under
/// the application's virtual clock; `messages_per_op` is the network
/// messages per call.
pub fn measure_cluster_mirror(ops: usize, profile: HardwareProfile) -> ClusterMeasurement {
    let world = AfsWorld::builder().profile(profile).build();
    afs_sentinels::register_all(world.sentinels());
    let net = world.net();
    seeded_fleet(net);
    let fleet = Fleet::new(CLUSTER_COPIES);
    for i in 0..CLUSTER_FLEET {
        fleet.add_node(&member(i));
    }
    net.register_fleet("fleet", fleet);
    let api = world.api();
    let _guard = clock::install(0);
    let handles: Vec<_> = (0..CLUSTER_FILES)
        .map(|rank| {
            let file = format!("/f{rank}.af");
            let spec = SentinelSpec::new("mirror", Strategy::DllThread)
                .with("service", "fleet")
                .with("remote", &cluster_file(rank))
                .with("staleness_ms", &CLUSTER_STALENESS_MS.to_string());
            world.install_active_file(&file, &spec).expect("install");
            api.create_file(&file, Access::read_write(), Disposition::OpenExisting)
                .expect("open")
        })
        .collect();
    let zipf = Zipf::new(CLUSTER_FILES, CLUSTER_THETA);
    let mut rng = SmallRng::seed_from_u64(0xC10D);
    let (payload, mut buf) = ([0xB7u8; CLUSTER_BLOCK], [0u8; CLUSTER_BLOCK]);
    let mut series = Series::with_capacity(ops);
    let before = net.stats();
    for _ in 0..ops {
        let handle = handles[zipf.sample(&mut rng)];
        api.set_file_pointer(handle, 0, SeekMethod::Begin)
            .expect("seek");
        let start = clock::now();
        let n = if rng.gen_bool(CLUSTER_READ_FRACTION) {
            api.read_file(handle, &mut buf).expect("mirror read")
        } else {
            api.write_file(handle, &payload).expect("mirror write")
        };
        assert_eq!(n, CLUSTER_BLOCK);
        series.push(clock::now() - start);
    }
    // Closing waits for the posted writes, and their messages.
    for handle in handles {
        api.close_handle(handle).expect("close");
    }
    let after = net.stats();
    ClusterMeasurement {
        summary: series.summarize(),
        cluster: world.telemetry().cluster().snapshot(),
        messages_per_op: ((after.rpcs + after.casts) - (before.rpcs + before.casts)) as f64
            / ops.max(1) as f64,
    }
}

/// The `cluster-rebalance` cell: key movement and post-join read
/// behaviour when a node joins the fleet.
#[derive(Debug, Clone)]
pub struct RebalanceMeasurement {
    /// Keys whose primary moved to the joiner.
    pub moved: usize,
    /// The movement bound the join must respect:
    /// `keys / (N + 1) + 5%` — consistent hashing's fair share plus
    /// slack for virtual-node granularity.
    pub moved_limit: f64,
    /// The post-join reads, one per key (moved keys fail over to the
    /// surviving copies, so the tail carries the failover cost, and
    /// `read_failovers` > 0 proves they really re-routed).
    pub reads: ClusterMeasurement,
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
        moved,
        moved_limit,
        reads: ClusterMeasurement {
            summary: series.summarize(),
            cluster: gauges.snapshot(),
            messages_per_op: ((msgs_after.rpcs + msgs_after.casts)
                - (msgs_before.rpcs + msgs_before.casts)) as f64
                / keys.max(1) as f64,
        },
    }
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
            "join moved {} of 200 keys, over the 1/N + 5% bound {:.1}",
            r.moved,
            r.moved_limit
        );
        assert!(
            r.reads.cluster.read_failovers > 0,
            "moved keys read through failover"
        );
        assert_eq!(
            r.reads.cluster.rebalances, 1,
            "exactly one membership change"
        );
    }
}
