//! The replica-aware cluster client: one [`FileClient`](crate::FileClient)-shaped surface
//! over a fleet of [`FileServer`](crate::FileServer)s.
//!
//! Placement comes from a consistent-hash [`Placement`]: every path has
//! a primary and `copies - 1` replicas, stable under membership churn.
//! The write path is **primary-ack with asynchronous replication**: the
//! write round-trips to the primary (which allocates the replication
//! sequence number by bumping the file version) and fans out to the
//! replicas as fire-and-forget casts carrying that sequence. Replicas
//! apply casts strictly in sequence order — a copy's version never
//! claims writes whose bytes it does not hold — and an ack carries the
//! session's floor, so an owner that missed casts refuses to allocate
//! a sequence (no split-brain re-issue across failover). The client
//! remembers the last sequence it was acknowledged per path, so reads
//! are **read-your-writes**: a read walks the owners in placement order
//! and only accepts a copy whose version has caught up to the session's
//! sequence. Both walks are the network's one failover walk
//! ([`Network::walk`]) over the placement's owners; the session keeps
//! only its reading of an owner's refusal.
//!
//! When every reachable owner is behind — a replica missed a cast and
//! the primary then failed — the `staleness_ms` budget decides the
//! outcome: the reader burns virtual time in bounded waits, re-polling
//! the owners, and surfaces an error once the budget is spent. This
//! tightens the single-service degraded mode's "stale allowed" into
//! *bounded* staleness: the application never observes data older than
//! its own acknowledged writes plus the configured bound.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use afs_net::{cluster::Placement, NetError, Network};
use afs_telemetry::{backend_span, ClusterGauges};

use crate::file_server::{repl_request, Remote};

/// How long one bounded-staleness wait round burns before re-polling
/// the owners (virtual time).
const STALE_WAIT_STEP_NS: u64 = 1_000_000; // 1 ms

/// Owner lists up to this long are walked on the stack; a session
/// keeping more copies than this spills to the heap.
const INLINE_OWNERS: usize = 8;

/// A fleet-routing file client: consistent-hash placement, primary-ack
/// writes with async replication, and bounded-staleness
/// read-your-writes reads.
pub struct ClusterClient {
    net: Network,
    /// The session's membership. An op holds the read side while it
    /// walks its owners; [`add_node`](ClusterClient::add_node) and
    /// [`remove_node`](ClusterClient::remove_node) take the write side.
    placement: RwLock<Placement>,
    /// Read-your-writes floor: per path, the highest replication
    /// sequence this session has been acknowledged.
    acked: Mutex<HashMap<String, u64>>,
    /// Bounded-staleness budget for reads (`None`: a lagging fleet is
    /// surfaced immediately).
    staleness_budget_ns: Option<u64>,
    gauges: Arc<ClusterGauges>,
}

impl ClusterClient {
    /// Creates a client over `net` keeping `copies` total copies per
    /// file. `staleness_ms` bounds how long a read may wait for a
    /// lagging owner to catch up to the session's own writes.
    pub fn new(net: Network, copies: usize, staleness_ms: Option<u64>) -> ClusterClient {
        ClusterClient {
            net,
            placement: RwLock::new(Placement::new(copies)),
            acked: Mutex::new(HashMap::new()),
            staleness_budget_ns: staleness_ms.map(|ms| ms.saturating_mul(1_000_000)),
            gauges: Arc::new(ClusterGauges::default()),
        }
    }

    /// Shares `gauges` as the client's metrics sink (e.g. the world
    /// telemetry hub's cluster gauges).
    pub fn with_gauges(mut self, gauges: Arc<ClusterGauges>) -> ClusterClient {
        self.gauges = gauges;
        self
    }

    /// The gauges this client feeds.
    pub fn gauges(&self) -> &Arc<ClusterGauges> {
        &self.gauges
    }

    /// Adds a member service to the fleet (placement rebalances
    /// deterministically; at most `1/N` of keys move). The change lands
    /// between ops: it waits for the owner walks in flight, and an op
    /// sees the membership from before it or from after it, never a mix.
    pub fn add_node(&self, name: &str) {
        let mut placement = self.placement.write();
        placement.add_node(name);
        self.gauges.membership(placement.nodes().len() as u64);
    }

    /// Removes a member service from the fleet; like
    /// [`add_node`](ClusterClient::add_node), between ops.
    pub fn remove_node(&self, name: &str) {
        let mut placement = self.placement.write();
        placement.remove_node(name);
        self.gauges.membership(placement.nodes().len() as u64);
    }

    /// The current owner list for `path`: `[primary, replicas...]`.
    pub fn owners(&self, path: &str) -> Vec<String> {
        self.placement.read().owners(path)
    }

    /// Runs `walk` over the fleet's names and, as indices into them,
    /// `path`'s owners, primary first — both borrowed from the placement
    /// for the walk's duration: nothing is cloned and, up to
    /// [`INLINE_OWNERS`] copies, nothing allocated. The walk runs under
    /// the placement's read side, so it must not reach for the placement
    /// again: a second read nested behind a waiting `add_node` can
    /// deadlock. An empty fleet has nobody to walk: `ServiceNotFound`.
    fn with_owners<T>(
        &self,
        path: &str,
        walk: impl FnOnce(&[String], &[usize]) -> afs_net::Result<T>,
    ) -> afs_net::Result<T> {
        let placement = self.placement.read();
        let mut inline = [0; INLINE_OWNERS];
        let mut spilled = Vec::new();
        let ids = if placement.copies() <= INLINE_OWNERS {
            &mut inline[..]
        } else {
            spilled.resize(placement.copies(), 0);
            &mut spilled[..]
        };
        let owners = placement.owner_indices(path, ids);
        if owners.is_empty() {
            return Err(NetError::ServiceNotFound("empty cluster".to_owned()));
        }
        walk(placement.nodes(), owners)
    }

    /// The session's read-your-writes floor for `path` (0 when this
    /// session has not written it).
    pub fn acked_seq(&self, path: &str) -> u64 {
        *self.acked.lock().get(path).unwrap_or(&0)
    }

    /// Writes `data` at `offset`: acknowledged by the first owner in
    /// placement order (normally the primary) whose copy has caught up
    /// to this session's acknowledged floor, then fanned out to the
    /// remaining owners as replication casts carrying the acknowledged
    /// sequence. Sending the floor with the ack keeps sequence
    /// allocation monotonic across failover: an owner behind the floor
    /// refuses (it would re-issue an already-acknowledged sequence) and
    /// the write moves on to a caught-up owner. Returns bytes written.
    ///
    /// # Errors
    ///
    /// The last owner's transport fault when none is reachable, or
    /// [`NetError::Rejected`] when every reachable owner is behind the
    /// session's floor.
    pub fn write(&self, path: &str, offset: u64, data: &[u8]) -> afs_net::Result<u64> {
        self.with_owners(path, |nodes, owners| {
            let floor = self.acked_seq(path);
            let mut last_err = None;
            let names = owners.iter().map(|&owner| nodes[owner].as_str());
            let acked = self.net.walk(names, |owner| {
                let ack = owner.put_acked(path, offset, data, floor);
                last_err = ack.as_ref().err().cloned();
                match ack {
                    Ok(ack) => Ok(Some((owner.index(), ack))),
                    // A refusal is a lagging copy that will not allocate a
                    // sequence behind the session's floor: the next may.
                    Err(NetError::Rejected(_)) => Ok(None),
                    Err(e) => Err(e),
                }
            });
            let Ok(Some((acker, (n, seq)))) = acked else {
                return Err(acked.err().or(last_err).expect("an owner refused"));
            };
            let mut acked = self.acked.lock();
            match acked.get_mut(path) {
                Some(floor) => *floor = (*floor).max(seq),
                None => drop(acked.insert(path.to_owned(), seq)),
            }
            drop(acked);
            // Owners are distinct: everyone but the one that acknowledged
            // gets the cast.
            let mut failed = 0u64;
            for (_, &other) in owners.iter().enumerate().filter(|&(i, _)| i != acker) {
                let _bk = backend_span("remote-replicate");
                let cast = repl_request(path, offset, seq, data);
                if self.net.cast(&nodes[other], &cast).is_err() {
                    failed += 1;
                }
            }
            self.gauges.write(owners.len() as u64 - 1, failed);
            Ok(n)
        })
    }

    /// Reads up to `len` bytes at `offset` from the first owner (in
    /// placement order) whose copy has caught up to this session's
    /// acknowledged writes, waiting out replication lag within the
    /// staleness budget. Each owner asked costs one message: the read
    /// carries the session's floor and the owner checks it under the
    /// same lock as it reads the bytes.
    ///
    /// # Errors
    ///
    /// A transport fault when no owner is reachable; [`NetError::
    /// Rejected`] when reachable owners stayed behind the session's
    /// sequence past the staleness budget.
    pub fn read(&self, path: &str, offset: u64, len: usize) -> afs_net::Result<Vec<u8>> {
        let required = self.acked_seq(path);
        let mut budget = self.staleness_budget_ns.unwrap_or(0);
        loop {
            // One round over the owners: the bytes, or `None` when every
            // reachable owner is behind the session's writes.
            let round = self.with_owners(path, |nodes, owners| {
                let (mut behind, mut missing, mut fault) = (false, None, None);
                let names = owners.iter().map(|&owner| nodes[owner].as_str());
                let served = self.net.walk(names, |owner| {
                    match owner.get_at_floor(path, offset, len, required) {
                        Ok(data) => Ok(Some((owner.index(), data))),
                        // A refusal means this owner's copy is behind the
                        // floor or absent. With a non-zero floor either is
                        // replication lag (a joiner the casts have not
                        // caught up) — wait for it. With no floor the file
                        // may simply live on a later owner (written by
                        // another session): keep walking, and only surface
                        // the refusal if no owner serves the read.
                        Err(e @ NetError::Rejected(_)) => {
                            behind |= required > 0;
                            missing = Some(e);
                            Ok(None)
                        }
                        Err(e) => Err(fault.insert(e).clone()),
                    }
                });
                match served? {
                    Some((index, data)) => {
                        self.gauges.read(index != 0);
                        Ok(Some(data))
                    }
                    None if behind => Ok(None),
                    // No owner is lagging: the failure is a transport fault
                    // or a genuinely absent file, not staleness — surface
                    // it rather than burning the staleness budget.
                    None => Err(fault.or(missing).expect("an owner refused")),
                }
            });
            if let Some(data) = round? {
                return Ok(data);
            }
            // Burn bounded-staleness budget and re-poll — with the
            // placement released, so a membership change can land
            // between rounds; once the budget is spent the lag becomes
            // the application's problem — bounded, never silent.
            if budget < STALE_WAIT_STEP_NS {
                self.gauges.stale_reject();
                return Err(NetError::Rejected(format!(
                    "staleness bound exceeded for {path}: no replica at seq {required}"
                )));
            }
            budget -= STALE_WAIT_STEP_NS;
            self.gauges.stale_wait();
            afs_sim::clock::advance(STALE_WAIT_STEP_NS);
        }
    }
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let placement = self.placement.read();
        f.debug_struct("ClusterClient")
            .field("nodes", &placement.nodes().len())
            .field("copies", &placement.copies())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileServer;
    use afs_net::Service;
    use afs_sim::CostModel;

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

        // Wraps a file server, failing the next floor-checked read (op
        // byte 10) with a transport fault — the primary "dies" with the
        // read in flight.
        struct ReadFlaky {
            inner: Arc<FileServer>,
            fail_next_read: Arc<AtomicBool>,
        }
        impl Service for ReadFlaky {
            fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
                if request.first() == Some(&10) && self.fail_next_read.swap(false, Ordering::SeqCst)
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
        client.remove_node("files-3");
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
                    client.remove_node("files-3");
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
    /// for gauge.
    fn read_stat_then_get(
        client: &ClusterClient,
        path: &str,
        offset: u64,
        len: usize,
    ) -> afs_net::Result<Vec<u8>> {
        let required = client.acked_seq(path);
        let mut budget = client.staleness_budget_ns.unwrap_or(0);
        loop {
            let round = client.with_owners(path, |nodes, owners| {
                let mut last_err = None;
                let mut missing = None;
                let mut behind = 0usize;
                for (idx, &owner) in owners.iter().enumerate() {
                    let remote = client.net.endpoint([nodes[owner].as_str()]);
                    match remote.stat(path) {
                        Ok(stat) if stat.version >= required => {
                            match remote.get(path, offset, len) {
                                Ok(data) => {
                                    client.gauges.read(idx != 0);
                                    return Ok(Some(data));
                                }
                                Err(e) if transport_fault(&e) => last_err = Some(e),
                                Err(e) => return Err(e),
                            }
                        }
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
                if behind == 0 {
                    return Err(last_err.or(missing).expect("owners existed"));
                }
                Ok(None)
            });
            if let Some(data) = round? {
                return Ok(data);
            }
            if budget < STALE_WAIT_STEP_NS {
                client.gauges.stale_reject();
                return Err(NetError::Rejected(format!(
                    "staleness bound exceeded for {path}: no replica at seq {required}"
                )));
            }
            budget -= STALE_WAIT_STEP_NS;
            client.gauges.stale_wait();
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
            let sessions = [
                ClusterClient::new(net.clone(), 2, Some(3)),
                ClusterClient::new(net.clone(), 3, None),
                ClusterClient::new(net.clone(), 2, Some(2)),
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
                                session.remove_node(&member(MEMBERS));
                            }
                        }
                    }
                    _ => {
                        let session = &sessions[pick(&mut rng, sessions.len())];
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
                        let two = read_stat_then_get(session, path, offset, len);
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
