//! Seeded chaos for the replicated active-file cluster.
//!
//! Two scenarios the ISSUE's cluster work must survive, both driven from
//! a seeded RNG so the CI seed sweep varies the workload shape, the
//! victim choice, and the write contents:
//!
//! * **Partition during rebalance** — a node joins the fleet while
//!   another node is partitioned away. Every key must remain either
//!   readable at the session's own read-your-writes floor or fail with
//!   a *bounded* error (transport fault or staleness rejection) — a
//!   successful read returning bytes older than the session's last
//!   acked write is the one forbidden outcome. After the partition
//!   heals, every key reads back its last write.
//!
//! * **Node kill mid-replication** — a replica misses a replication
//!   cast and the primary is killed right after acknowledging the
//!   write. The read must fail over to the caught-up replica, never
//!   serve the laggard's stale copy; with the caught-up replica also
//!   gone, the read must reject (bounded staleness), not regress.
//!
//! The seed honours `AFS_TEST_SEED`, so the CI seed sweep exercises
//! eight different chaos shapes.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use activefiles::{clock, ClusterClient, CostModel, FileServer, NetError, Network, Service};

fn member(i: usize) -> String {
    format!("files-{i}")
}

/// Registers `nodes` file servers (all reachable) and returns a cluster
/// session over the first `initial` of them.
fn fleet(net: &Network, nodes: usize, initial: usize, copies: usize) -> ClusterClient {
    for i in 0..nodes {
        net.register(&member(i), FileServer::new() as Arc<dyn Service>);
    }
    let client = ClusterClient::new(net.clone(), copies, Some(10));
    for i in 0..initial {
        client.add_node(&member(i));
    }
    client
}

#[test]
fn partition_during_rebalance_preserves_read_your_writes() {
    let seed = afs_sim::test_seed(42);
    let mut rng = SmallRng::seed_from_u64(seed);
    let _clock = clock::install(0);
    let net = Network::new(CostModel::free());
    let client = fleet(&net, 4, 3, 2);

    // A seeded working set, every path carrying a distinct payload the
    // session has been acknowledged.
    let paths: Vec<String> = (0..32).map(|i| format!("/chaos/{seed}-{i}.af")).collect();
    let mut payloads = Vec::with_capacity(paths.len());
    for path in &paths {
        let byte: u8 = rng.gen_range(1u8..=255);
        let payload = vec![byte; 64];
        client.write(path, 0, &payload).expect("seed write");
        payloads.push(payload);
    }

    // The chaos: one of the original members drops off the network, and
    // while it is gone a new node joins — rebalance and partition overlap.
    let victim = member(rng.gen_range(0usize..3));
    net.plan(&victim)
        .expect("victim plan")
        .set_partitioned(true);
    client.add_node(&member(3));

    // Mid-chaos reads: a success must return the session's own last
    // write; failures must be bounded (a transport fault or a staleness
    // rejection), never silently stale bytes.
    let mut failed = Vec::new();
    for (path, payload) in paths.iter().zip(&payloads) {
        match client.read(path, 0, payload.len()) {
            Ok(bytes) => assert_eq!(
                &bytes, payload,
                "{path} read bytes older than the session's acked write"
            ),
            Err(NetError::Malformed(e)) => panic!("{path}: protocol error {e:?}"),
            Err(_) => failed.push(path.clone()),
        }
    }

    // Heal: the partitioned member returns, and every key — including
    // the ones that errored mid-chaos — reads back its last acked write.
    net.plan(&victim).expect("victim plan").clear();
    for (path, payload) in paths.iter().zip(&payloads) {
        let bytes = client.read(path, 0, payload.len()).expect("healed read");
        assert_eq!(&bytes, payload, "{path} after heal");
    }
    let snap = client.gauges().snapshot();
    assert_eq!(snap.rebalances, 4, "three initial members plus the join");
    assert!(
        snap.read_failovers > 0,
        "some reads must have routed around the moved primary or the \
         partition: {snap:?} (mid-chaos failures: {failed:?})"
    );
}

#[test]
fn node_kill_mid_replication_fails_over_to_the_caught_up_replica() {
    let seed = afs_sim::test_seed(42);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD0D0);
    let _clock = clock::install(0);
    let net = Network::new(CostModel::free());
    // Three copies per file over four nodes: after losing the primary
    // and one lagging replica there is still a caught-up copy.
    let client = fleet(&net, 4, 4, 3);

    let path = format!("/chaos/kill-{seed}.af");
    let v1 = vec![rng.gen_range(1u8..=127); 48];
    let v2 = vec![rng.gen_range(128u8..=255); 48];
    client.write(&path, 0, &v1).expect("warm write");
    let owners = client.owners(&path);
    assert_eq!(owners.len(), 3);

    // One replica (seeded choice) misses the next replication cast, and
    // the primary dies immediately after acknowledging — the classic
    // mid-replication kill.
    let laggard = owners[1 + rng.gen_range(0usize..2)].clone();
    net.plan(&laggard).expect("laggard plan").drop_next(1);
    client.write(&path, 0, &v2).expect("primary-acked write");
    assert_eq!(client.acked_seq(&path), 2);
    net.plan(&owners[0])
        .expect("primary plan")
        .set_partitioned(true);

    // The session's floor is seq 2; only the caught-up replica can
    // serve it. The laggard's seq-1 copy must never be returned.
    let bytes = client.read(&path, 0, v2.len()).expect("failover read");
    assert_eq!(bytes, v2, "read-your-writes across the kill");
    let snap = client.gauges().snapshot();
    assert!(snap.read_failovers >= 1, "{snap:?}");
    assert_eq!(
        snap.replication_failures, 1,
        "exactly the laggard's cast was lost: {snap:?}"
    );

    // Losing the caught-up replica too leaves only the laggard: the read
    // must reject after burning the staleness budget — stale bytes are
    // never an answer.
    let caught_up = owners
        .iter()
        .find(|o| **o != owners[0] && **o != laggard)
        .expect("three owners");
    net.plan(caught_up)
        .expect("caught-up plan")
        .set_partitioned(true);
    let err = client
        .read(&path, 0, v2.len())
        .expect_err("bounded staleness");
    assert!(matches!(err, NetError::Rejected(_)), "{err:?}");
    assert!(client.gauges().snapshot().stale_rejects >= 1);

    // The primary comes back: its copy is at the session's floor, reads
    // settle immediately.
    net.plan(&owners[0]).expect("primary plan").clear();
    let bytes = client.read(&path, 0, v2.len()).expect("healed read");
    assert_eq!(bytes, v2);
}
