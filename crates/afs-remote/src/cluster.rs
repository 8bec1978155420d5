//! [`ClusterClient`]: a file session over a fleet of its own.
use afs_net::Fleet;

/// A [`FileClient`](crate::FileClient) over a private [`Fleet`], kept
/// for `benchmark/`: the issue re-basing `cluster-zipf` onto `read_file` deletes it.
#[derive(Debug)]
pub struct ClusterClient(crate::FileClient);

impl ClusterClient {
    /// A session over an empty fleet of `copies` copies; lag waited out `staleness_ms`.
    pub fn new(net: afs_net::Network, copies: usize, staleness_ms: Option<u64>) -> ClusterClient {
        let ns = staleness_ms.map(|ms| ms.saturating_mul(1_000_000));
        let placed = net.placed(Fleet::new(copies));
        ClusterClient(crate::FileClient::new(placed.for_session(ns, None)))
    }
    /// [`FileClient::with_gauges`](crate::FileClient::with_gauges).
    pub fn with_gauges(self, gauges: std::sync::Arc<afs_telemetry::ClusterGauges>) -> Self {
        ClusterClient(self.0.with_gauges(gauges))
    }
    /// [`Fleet::add_node`] on the session's fleet.
    pub fn add_node(&self, name: &str) {
        self.0.endpoint.fleet().expect("placed").add_node(name);
    }
    /// [`FileClient::put`](crate::FileClient::put).
    pub fn write(&self, path: &str, offset: u64, data: &[u8]) -> afs_net::Result<u64> {
        self.0.put(path, offset, data)
    }
    /// [`FileClient::get`](crate::FileClient::get).
    pub fn read(&self, path: &str, offset: u64, len: usize) -> afs_net::Result<Vec<u8>> {
        self.0.get(path, offset, len)
    }
}

impl std::ops::Deref for ClusterClient {
    type Target = crate::FileClient;
    fn deref(&self) -> &crate::FileClient {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileClient, FileServer};
    use afs_net::{NetError, Network, Service};
    use afs_sim::CostModel;
    use std::sync::Arc;

    /// Removes `name` from the session's fleet.
    fn remove_node(client: &ClusterClient, name: &str) {
        client.endpoint.fleet().expect("placed").remove_node(name);
    }

    fn fleet(n: usize) -> (Network, Vec<Arc<FileServer>>, ClusterClient) {
        let net = Network::new(CostModel::free());
        let mut servers = Vec::new();
        let client = ClusterClient::new(net.clone(), 2, Some(10));
        for i in 0..n {
            let name = format!("files-{i}");
            let server = FileServer::new();
            net.register(&name, Arc::clone(&server) as Arc<dyn Service>);
            client.add_node(&name);
            servers.push(server);
        }
        (net, servers, client)
    }

    #[test]
    fn write_acks_on_primary_and_replicates() {
        let (_net, servers, client) = fleet(3);
        let path = "/data/a.af";
        client.write(path, 0, b"hello").expect("write");
        assert_eq!(client.acked_seq(path), 1);
        let owners = client.owners(path);
        assert_eq!(owners.len(), 2);
        // Both owners hold the bytes at the same version; the third
        // server holds nothing.
        let by_name = |name: &str| {
            servers[name
                .strip_prefix("files-")
                .and_then(|s| s.parse::<usize>().ok())
                .expect("node index")]
            .clone()
        };
        for owner in &owners {
            assert_eq!(by_name(owner).version(path), 1, "{owner}");
        }
        let outsiders: Vec<_> = (0..3)
            .map(|i| format!("files-{i}"))
            .filter(|n| !owners.contains(n))
            .collect();
        for outsider in outsiders {
            assert_eq!(by_name(&outsider).version(path), 0, "{outsider}");
        }
        assert_eq!(client.read(path, 0, 5).expect("read"), b"hello");
        let snap = client.gauges().snapshot();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.replications, 1);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.read_failovers, 0);
    }

    #[test]
    fn read_your_writes_survives_primary_failure() {
        let (net, _servers, client) = fleet(3);
        let path = "/data/b.af";
        client.write(path, 0, b"durable").expect("write");
        let primary = client.owners(path)[0].clone();
        net.plan(&primary).expect("plan").set_partitioned(true);
        // The replica acknowledged the same sequence, so the session's
        // floor is satisfied by the failover copy.
        assert_eq!(client.read(path, 0, 7).expect("failover read"), b"durable");
        assert!(client.gauges().snapshot().read_failovers >= 1);
    }

    #[test]
    fn lagging_replica_is_rejected_within_the_budget() {
        let _clock = afs_sim::clock::install(0);
        let (net, _servers, client) = fleet(3);
        let path = "/data/c.af";
        client.write(path, 0, b"v1").expect("warm");
        let owners = client.owners(path);
        // The replica misses the next write's cast, then the primary
        // dies: every reachable copy is behind the session's ack.
        net.plan(&owners[1]).expect("plan").drop_next(1);
        client
            .write(path, 0, b"v2")
            .expect("write acked by primary");
        assert_eq!(client.acked_seq(path), 2);
        net.plan(&owners[0]).expect("plan").set_partitioned(true);
        let err = client.read(path, 0, 2).expect_err("bounded staleness");
        assert!(matches!(err, NetError::Rejected(_)), "{err:?}");
        let snap = client.gauges().snapshot();
        assert!(snap.stale_waits >= 1, "{snap:?}");
        assert_eq!(snap.stale_rejects, 1);
        // The budget was burned in virtual time, not wall-clock.
        assert!(afs_sim::clock::now() >= 10_000_000);
    }

    #[test]
    fn write_failover_never_acks_on_a_lagging_replica() {
        let (net, _servers, client) = fleet(3);
        let path = "/data/s.af";
        client.write(path, 0, b"w1").expect("w1");
        let owners = client.owners(path);
        // The replica misses the second write's cast, then the primary
        // partitions: the only reachable owner is behind the floor.
        net.plan(&owners[1]).expect("plan").drop_next(1);
        client.write(path, 0, b"w2").expect("w2");
        assert_eq!(client.acked_seq(path), 2);
        net.plan(&owners[0]).expect("plan").set_partitioned(true);
        // A failover ack on the laggard would re-issue seq 2 — a
        // sequence the session already holds — so the write must fail
        // rather than split the sequence space.
        let err = client
            .write(path, 0, b"w3")
            .expect_err("lagging ack refused");
        assert!(matches!(err, NetError::Rejected(_)), "{err:?}");
        assert_eq!(client.acked_seq(path), 2, "floor unmoved by the failure");
    }

    #[test]
    fn write_fails_over_to_a_caught_up_replica() {
        let (net, _servers, client) = fleet(3);
        let path = "/data/t.af";
        client.write(path, 0, b"w1").expect("w1");
        let owners = client.owners(path);
        net.plan(&owners[0]).expect("plan").set_partitioned(true);
        // The replica holds seq 1 = the session's floor, so it may
        // allocate seq 2 and acknowledge.
        client.write(path, 0, b"w2").expect("failover write");
        assert_eq!(client.acked_seq(path), 2);
        assert_eq!(client.read(path, 0, 2).expect("read"), b"w2");
    }

    /// A policy governs the session's one walk: a partitioned primary is
    /// asked once and the replica serves in the same pass — no backoff,
    /// no retry loop of its own around each owner.
    #[test]
    fn a_policy_walks_the_owners_not_each_owner() {
        use afs_net::{ReliabilityPolicy, RetryPolicy};

        let _clock = afs_sim::clock::install(0);
        let (net, _servers, _) = fleet(3);
        let reliable = net.with_policy(ReliabilityPolicy {
            retry: RetryPolicy {
                attempts: 3,
                ..RetryPolicy::default()
            },
            ..ReliabilityPolicy::default()
        });
        let client = ClusterClient::new(reliable, 2, Some(10));
        for i in 0..3 {
            client.add_node(&format!("files-{i}"));
        }
        let path = "/data/p.af";
        client.write(path, 0, b"bytes").expect("write");
        let primary = client.owners(path)[0].clone();
        net.plan(&primary).expect("plan").set_partitioned(true);
        assert_eq!(client.read(path, 0, 5).expect("replica"), b"bytes");
        assert_eq!(net.reliability().retries, 0);
        assert_eq!(afs_sim::clock::now(), 0, "no backoff was waited out");
        assert_eq!(client.gauges().snapshot().read_failovers, 1);
    }

    #[test]
    fn read_fails_over_when_the_primary_drops_the_read() {
        use std::sync::atomic::{AtomicBool, Ordering};

        // Wraps a file server, failing the next read (`GET`, op byte 1)
        // with a transport fault — the primary "dies" with the
        // read in flight.
        struct ReadFlaky {
            inner: Arc<FileServer>,
            fail_next_read: Arc<AtomicBool>,
        }
        impl Service for ReadFlaky {
            fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
                if request.first() == Some(&1) && self.fail_next_read.swap(false, Ordering::SeqCst)
                {
                    return Err(NetError::Dropped("read lost in flight".to_owned()));
                }
                self.inner.handle(request)
            }
        }

        let net = Network::new(CostModel::free());
        let fail_next_read = Arc::new(AtomicBool::new(false));
        let client = ClusterClient::new(net.clone(), 2, Some(10));
        for i in 0..3 {
            let wrapped = ReadFlaky {
                inner: FileServer::new(),
                fail_next_read: Arc::clone(&fail_next_read),
            };
            net.register(&format!("files-{i}"), Arc::new(wrapped) as Arc<dyn Service>);
            client.add_node(&format!("files-{i}"));
        }
        let path = "/data/g.af";
        client.write(path, 0, b"payload").expect("write");
        fail_next_read.store(true, Ordering::SeqCst);
        // The primary's read faults: the read must fail over to the
        // replica, not surface the fault.
        assert_eq!(client.read(path, 0, 7).expect("read"), b"payload");
        assert!(!fail_next_read.load(Ordering::SeqCst), "the fault fired");
        assert!(client.gauges().snapshot().read_failovers >= 1);
    }

    #[test]
    fn fresh_session_read_walks_past_owners_without_a_copy() {
        let (net, _servers, client) = fleet(3);
        let paths: Vec<String> = (0..64).map(|i| format!("/data/j{i}.af")).collect();
        for path in &paths {
            client.write(path, 0, b"seeded").expect("write");
        }
        let joiner = FileServer::new();
        net.register("files-3", joiner as Arc<dyn Service>);
        client.add_node("files-3");
        let moved = paths
            .iter()
            .find(|p| client.owners(p)[0] == "files-3")
            .expect("some path's primary moved to the joiner");
        // A session that never wrote the path (floor 0) reads it: the
        // new primary holds no copy and rejects the read — the walk
        // must continue to the owner that has the bytes instead of
        // surfacing the joiner's rejection.
        let fresh = ClusterClient::new(net.clone(), 2, Some(10));
        for i in 0..4 {
            fresh.add_node(&format!("files-{i}"));
        }
        assert_eq!(
            fresh.read(moved, 0, 6).expect("read via replica"),
            b"seeded"
        );
        assert!(fresh.gauges().snapshot().read_failovers >= 1);
        // A path no owner holds still rejects promptly — absence is
        // not staleness, no budget is burned.
        let err = fresh.read("/data/never.af", 0, 4).expect_err("absent");
        assert!(matches!(err, NetError::Rejected(_)), "{err:?}");
        assert_eq!(fresh.gauges().snapshot().stale_waits, 0);
    }

    #[test]
    fn membership_changes_land_between_ops() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::{mpsc, Barrier};
        use std::time::Duration;

        const CHURNS: usize = 1_000;
        let (net, _servers, client) = fleet(3);
        net.register("files-3", FileServer::new() as Arc<dyn Service>);
        let paths: Vec<String> = (0..16).map(|i| format!("/data/k{i}.af")).collect();
        // The two owner lists an op may see for a path: the fleet's
        // without the fourth member, and with it.
        let without: Vec<Vec<String>> = paths.iter().map(|p| client.owners(p)).collect();
        client.add_node("files-3");
        let with: Vec<Vec<String>> = paths.iter().map(|p| client.owners(p)).collect();
        remove_node(&client, "files-3");
        assert_ne!(without, with, "the joiner owns something");

        let (done, finished) = mpsc::channel();
        let watched = std::thread::spawn(move || {
            let (start, churned) = (Barrier::new(3), AtomicBool::new(false));
            let ops = AtomicU64::new(0);
            std::thread::scope(|scope| {
                // Each worker owns every second path: it reads back
                // exactly what it last wrote there, whoever the owners
                // are by then (one of them always outlives the change).
                for worker in 0..2 {
                    let (client, paths, start, churned) = (&client, &paths, &start, &churned);
                    let ops = &ops;
                    let (without, with) = (&without, &with);
                    scope.spawn(move || {
                        let mine = || (worker..paths.len()).step_by(2);
                        let mut last = vec![0u64; paths.len()];
                        for i in mine() {
                            client
                                .write(&paths[i], 0, &last[i].to_le_bytes())
                                .expect("seed");
                        }
                        start.wait();
                        let mut rounds = 0u64;
                        while !churned.load(Ordering::SeqCst) {
                            rounds += 1;
                            for i in mine() {
                                if (rounds + i as u64).is_multiple_of(3) {
                                    last[i] = rounds;
                                    let wrote = client.write(&paths[i], 0, &rounds.to_le_bytes());
                                    assert_eq!(wrote, Ok(8), "{}", paths[i]);
                                }
                                let read = client.read(&paths[i], 0, 8).expect("read");
                                assert_eq!(read, last[i].to_le_bytes(), "{}", paths[i]);
                                ops.fetch_add(1, Ordering::SeqCst);
                                let owners = client.owners(&paths[i]);
                                assert!(
                                    owners == without[i] || owners == with[i],
                                    "{}: half-changed owner list {owners:?}",
                                    paths[i]
                                );
                            }
                        }
                    });
                }
                start.wait();
                for _ in 0..CHURNS {
                    // Every change has ops around it: the next waits for
                    // one to finish after this one.
                    let seen = ops.load(Ordering::SeqCst);
                    client.add_node("files-3");
                    remove_node(&client, "files-3");
                    while ops.load(Ordering::SeqCst) == seen {
                        std::thread::yield_now();
                    }
                }
                churned.store(true, Ordering::SeqCst);
            });
            done.send(client.gauges().snapshot().rebalances)
                .expect("report");
        });
        // The watchdog: an op that nested the placement's read side
        // behind a waiting writer would hang here, not fail.
        let rebalances = finished
            .recv_timeout(Duration::from_secs(120))
            .expect("ops and membership changes deadlocked");
        watched.join().expect("workers");
        assert_eq!(rebalances as usize, 3 + 2 + 2 * CHURNS);
    }

    #[test]
    fn membership_change_keeps_files_readable() {
        let (net, _servers, client) = fleet(3);
        let paths: Vec<String> = (0..40).map(|i| format!("/data/m{i}.af")).collect();
        for path in &paths {
            client.write(path, 0, path.as_bytes()).expect("seed");
        }
        let joiner = FileServer::new();
        net.register("files-3", joiner as Arc<dyn Service>);
        client.add_node("files-3");
        // Keys that moved to the joiner read through replicas (their old
        // primary is still an owner or holds the only copy); nothing is
        // lost, reads stay within the session's floor.
        for path in &paths {
            let got = client.read(path, 0, path.len());
            // A key whose *entire* owner set rotated away from the old
            // copies would be unreadable; with copies=2 and one joiner
            // at most one owner slot changes, so the old primary or old
            // replica is still in the set.
            assert_eq!(got.expect("read"), path.as_bytes(), "{path}");
        }
        assert_eq!(client.gauges().snapshot().rebalances, 4);
    }

    /// Whether the reference walk below moves past an owner's error.
    fn transport_fault(err: &NetError) -> bool {
        matches!(
            err,
            NetError::Dropped(_) | NetError::Partitioned(_) | NetError::ServiceNotFound(_)
        )
    }

    /// The read walk as it was before the floor rode the read: per owner
    /// a `STAT` for the copy's version, then a `GET` from the first one
    /// caught up, each owner looped over by hand. Kept as the reference
    /// the one-message walk must agree with, result for result and gauge
    /// for gauge. `budget_ms` is the session's staleness budget.
    fn read_stat_then_get(
        client: &ClusterClient,
        net: &Network,
        budget_ms: Option<u64>,
        path: &str,
        offset: u64,
        len: usize,
    ) -> afs_net::Result<Vec<u8>> {
        const STALE_WAIT_STEP_NS: u64 = 1_000_000;
        let required = client.acked_seq(path);
        let mut budget = budget_ms.unwrap_or(0) * 1_000_000;
        loop {
            let mut last_err = None;
            let mut missing = None;
            let mut behind = 0usize;
            let mut served = None;
            for (idx, owner) in client.owners(path).iter().enumerate() {
                // A fresh session reads at floor 0: unconditionally.
                let remote = FileClient::new(net.endpoint([owner.as_str()]));
                match remote.stat(path) {
                    Ok(stat) if stat.version >= required => match remote.get(path, offset, len) {
                        Ok(data) => {
                            served = Some((idx, data));
                            break;
                        }
                        Err(e) if transport_fault(&e) => last_err = Some(e),
                        Err(e) => return Err(e),
                    },
                    Ok(_) => behind += 1,
                    Err(e @ NetError::Rejected(_)) => {
                        if required > 0 {
                            behind += 1;
                        } else {
                            missing = Some(e);
                        }
                    }
                    Err(e) if transport_fault(&e) => last_err = Some(e),
                    Err(e) => return Err(e),
                }
            }
            if let Some((idx, data)) = served {
                client.gauges().read(idx != 0);
                return Ok(data);
            }
            if behind == 0 {
                return Err(last_err.or(missing).expect("owners existed"));
            }
            if budget < STALE_WAIT_STEP_NS {
                client.gauges().stale_reject();
                return Err(NetError::Rejected(format!(
                    "staleness bound exceeded for {path}: no replica at seq {required}"
                )));
            }
            budget -= STALE_WAIT_STEP_NS;
            client.gauges().stale_wait();
            afs_sim::clock::advance(STALE_WAIT_STEP_NS);
        }
    }

    /// The read gauges a walk moves.
    fn read_gauges(client: &ClusterClient) -> [u64; 4] {
        let snap = client.gauges().snapshot();
        [
            snap.reads,
            snap.read_failovers,
            snap.stale_waits,
            snap.stale_rejects,
        ]
    }

    /// Seeded schedules of state faults — owners partitioned and healed,
    /// a replica that missed a cast, a joiner with no copy, a path nobody
    /// holds — read at floors of 0 and above by both walks over the same
    /// fleet. Reads change no server state, so each walk sees what the
    /// other saw; nothing here reads the clock or counts messages, which
    /// the one-message walk changes on purpose.
    #[test]
    fn the_one_message_read_agrees_with_stat_then_get() {
        const MEMBERS: usize = 4;
        const PATHS: [&str; 6] = ["/d/a", "/d/b", "/d/c", "/d/e", "/d/f", "/d/never"];
        let _clock = afs_sim::clock::install(0);
        let pick = |rng: &mut afs_sim::SimRng, n: usize| rng.next_below(n as u64) as usize;
        let member = |i: usize| format!("files-{i}");
        let index = |name: &str| name["files-".len()..].parse::<usize>().expect("member");
        // Served, rejected by the staleness bound, rejected as missing,
        // partitioned away.
        let mut outcomes = [0usize; 4];
        for seed in 0..8 {
            let mut rng = afs_sim::SimRng::new(seed);
            let net = Network::new(CostModel::free());
            // The last member joins later, with no copy of anything.
            let plans: Vec<_> = (0..=MEMBERS)
                .map(|i| net.register(&member(i), FileServer::new() as Arc<dyn Service>))
                .collect();
            // Two writers (one bounded, one not) and a session that never
            // writes, so reads at floor 0.
            let budgets = [Some(3), None, Some(2)];
            let sessions = [
                ClusterClient::new(net.clone(), 2, budgets[0]),
                ClusterClient::new(net.clone(), 3, budgets[1]),
                ClusterClient::new(net.clone(), 2, budgets[2]),
            ];
            for session in &sessions {
                for i in 0..MEMBERS {
                    session.add_node(&member(i));
                }
            }
            let (mut partitioned, mut joined) = ([false; MEMBERS + 1], false);
            for step in 0..400u64 {
                let writer = &sessions[pick(&mut rng, 2)];
                let path = PATHS[pick(&mut rng, PATHS.len() - 1)];
                let offset = [0, 0, 3][pick(&mut rng, 3)];
                let data = vec![step as u8; 1 + pick(&mut rng, 8)];
                match rng.next_below(20) {
                    0..=4 => drop(writer.write(path, offset, &data)),
                    5..=7 => {
                        // Partitioned one time in three, healed otherwise.
                        let i = pick(&mut rng, MEMBERS + 1);
                        partitioned[i] = rng.next_below(3) == 0;
                        plans[i].set_partitioned(partitioned[i]);
                    }
                    8..=9 => {
                        // The last owner misses this write's cast.
                        let last = index(&writer.owners(path).pop().expect("owners"));
                        plans[last].set_partitioned(true);
                        drop(writer.write(path, offset, &data));
                        plans[last].set_partitioned(partitioned[last]);
                    }
                    10 => {
                        joined = !joined;
                        for session in &sessions {
                            if joined {
                                session.add_node(&member(MEMBERS));
                            } else {
                                remove_node(session, &member(MEMBERS));
                            }
                        }
                    }
                    _ => {
                        let which = pick(&mut rng, sessions.len());
                        let session = &sessions[which];
                        let path = PATHS[pick(&mut rng, PATHS.len())];
                        let offset = [0, 1, 4, 100][pick(&mut rng, 4)];
                        let len = [0, 3, 16][pick(&mut rng, 3)];
                        let what = format!(
                            "seed {seed} step {step}: {path} at floor {}",
                            session.acked_seq(path)
                        );
                        let before = read_gauges(session);
                        let one = session.read(path, offset, len);
                        let between = read_gauges(session);
                        let two =
                            read_stat_then_get(session, &net, budgets[which], path, offset, len);
                        let after = read_gauges(session);
                        match (&one, &two) {
                            (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}"),
                            (Err(a), Err(b)) => assert_eq!(
                                std::mem::discriminant(a),
                                std::mem::discriminant(b),
                                "{what}: {a:?} / {b:?}"
                            ),
                            _ => panic!("{what}: {one:?} / {two:?}"),
                        }
                        let moved =
                            |from: [u64; 4], to: [u64; 4]| [0, 1, 2, 3].map(|g| to[g] - from[g]);
                        assert_eq!(moved(before, between), moved(between, after), "{what}");
                        let outcome = match one {
                            Ok(_) => 0,
                            Err(NetError::Rejected(_)) if between[3] > before[3] => 1,
                            Err(NetError::Rejected(_)) => 2,
                            Err(NetError::Partitioned(_)) => 3,
                            Err(e) => panic!("{what}: {e:?}"),
                        };
                        outcomes[outcome] += 1;
                    }
                }
            }
        }
        // The schedules reach every outcome, not only the happy one.
        assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
        assert!(
            outcomes[0] > outcomes.iter().sum::<usize>() / 3,
            "{outcomes:?}"
        );
    }
}
