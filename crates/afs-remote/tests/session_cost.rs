//! What a cluster session costs the host, in heap allocations.
//!
//! A workload of short `ClusterClient` sessions opens one every few ops,
//! so an open has to cost about what an op costs, and an op about what
//! its messages carry. Neither was so: the ring used to be built per
//! session with a `format!`, a `String` clone and a `BTreeMap` insert per
//! point (1035 allocations for the open and first read below on a
//! five-member fleet), then built flat but still per session (40); and a
//! read re-derived per message what its receiver already knew (23
//! allocations where 4 carry bytes). A session now steps its membership
//! through the thread's memo of built rings and holds the one it reaches,
//! shared with every other session that took the same steps; a read is one
//! message (the session's floor rides it; it was a `STAT` and a `GET`);
//! and a message's request and reply are two buffers its thread keeps
//! between messages, so a message allocates nothing once they have grown.
//! The open-and-first-read budget sits above what the code does today; the
//! rest are exact, as are the message counts: the open allocates its fleet,
//! a read into the caller's buffer nothing, a read that returns a `Vec`
//! that `Vec`, and a write nothing.

use std::sync::Arc;

use afs_net::{Network, Service};
use afs_remote::{ClusterClient, FileServer};
use afs_sim::{allocations, CostModel, CountingAlloc};
use afs_telemetry::ClusterGauges;

/// One open — `new`, five `add_node`s, `with_gauges` — and the first
/// read, on a fleet some session of this thread has placed on before
/// (measured: 2 — the fleet the session's endpoint shares and the `Vec`
/// the read returns; 3 while a message allocated its request and reply,
/// 10 while the session kept its own copy of the member names, 9 while it
/// owned its placement outright, 10 while `new` made gauges that
/// `with_gauges` threw away, 12 while a read was two round trips, 40 while
/// every session built its ring, and the thread's first session still
/// builds the rings its steps pass through, its first message the
/// thread's message buffers).
const OPEN_AND_FIRST_READ_BUDGET: u64 = 4;
/// One steady-state read that returns a `Vec`, one round trip: exactly
/// that `Vec` (2 while the message allocated its request and reply, 4 as
/// a stat and a get, 23 while the server parsed the path of every
/// message).
const READ_BUDGET: u64 = 1;
/// One steady-state write at two copies, a put-ack round trip and one
/// replication cast: exactly nothing (4 while each message allocated its
/// request and reply, 7 while the replica queued every cast before
/// applying it: its bytes, its path, a map node; 32 before that).
const WRITE_BUDGET: u64 = 0;

const FLEET: usize = 5;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn member(i: usize) -> String {
    format!("files-{i}")
}

/// A five-member fleet holding `/data/f.af` on every member.
fn fleet() -> Network {
    let net = Network::new(CostModel::free());
    for i in 0..FLEET {
        let server = FileServer::new();
        server.seed("/data/f.af", &[7u8; 256]);
        net.register(&member(i), server as Arc<dyn Service>);
    }
    net
}

fn open(net: &Network, members: &[String], gauges: &Arc<ClusterGauges>) -> ClusterClient {
    let session = ClusterClient::new(net.clone(), 2, Some(10));
    for name in members {
        session.add_node(name);
    }
    session.with_gauges(Arc::clone(gauges))
}

#[test]
fn opening_a_session_costs_about_what_its_ops_cost() {
    let net = fleet();
    let members: Vec<String> = (0..FLEET).map(member).collect();
    let gauges = Arc::new(ClusterGauges::default());
    // The fleet's first placement builds its ring, and the thread's first
    // message its two message buffers; every session after that, this one
    // included, finds both built.
    let warm = open(&net, &members, &gauges);
    warm.read("/data/f.af", 0, 128).expect("warm-up read");
    drop(warm);
    let (spent, ()) = allocations(|| {
        let session = open(&net, &members, &gauges);
        assert_eq!(session.read("/data/f.af", 0, 128).expect("read").len(), 128);
    });
    assert!(
        spent <= OPEN_AND_FIRST_READ_BUDGET,
        "open + first read made {spent} allocations, budget {OPEN_AND_FIRST_READ_BUDGET}"
    );
}

#[test]
fn an_open_given_its_gauges_allocates_only_its_fleet() {
    let net = fleet();
    let gauges = Arc::new(ClusterGauges::default());
    let (spent, ()) = allocations(|| {
        let session = ClusterClient::new(net.clone(), 2, Some(10));
        drop(session.with_gauges(Arc::clone(&gauges)));
    });
    // The fleet is the one cell its endpoint shares; a session's own
    // gauges are made only if asked for.
    assert_eq!(spent, 1, "an open allocates its fleet and nothing else");
}

#[test]
fn a_steady_state_read_stays_within_its_budget() {
    let net = fleet();
    let members: Vec<String> = (0..FLEET).map(member).collect();
    let session = open(&net, &members, &Arc::new(ClusterGauges::default()));
    session.read("/data/f.af", 0, 128).expect("warm-up read");
    const READS: u64 = 100;
    let before = net.stats();
    let (spent, ()) = allocations(|| {
        for _ in 0..READS {
            session.read("/data/f.af", 0, 128).expect("read");
        }
    });
    assert_eq!(
        spent,
        READS * READ_BUDGET,
        "{READS} reads made {spent} allocations, {READ_BUDGET} each expected"
    );
    // A healthy read is one request and its reply.
    let after = net.stats();
    assert_eq!(after.rpcs - before.rpcs, READS);
    assert_eq!(after.casts - before.casts, 0);
}

#[test]
fn a_steady_state_read_into_the_callers_buffer_allocates_nothing() {
    let net = fleet();
    let members: Vec<String> = (0..FLEET).map(member).collect();
    let session = open(&net, &members, &Arc::new(ClusterGauges::default()));
    let mut buf = [0u8; 128];
    session
        .get_into("/data/f.af", 0, &mut buf)
        .expect("warm-up read");
    const READS: u64 = 100;
    let (spent, ()) = allocations(|| {
        for _ in 0..READS {
            buf.fill(0);
            assert_eq!(session.get_into("/data/f.af", 0, &mut buf), Ok(128));
            assert_eq!(buf, [7u8; 128]);
        }
    });
    assert_eq!(
        spent, 0,
        "{READS} reads into the caller's buffer made {spent} allocations"
    );
}

#[test]
fn a_steady_state_write_stays_within_its_budget() {
    let net = fleet();
    let members: Vec<String> = (0..FLEET).map(member).collect();
    let session = open(&net, &members, &Arc::new(ClusterGauges::default()));
    session
        .write("/data/f.af", 0, &[1u8; 128])
        .expect("warm-up write");
    const WRITES: u64 = 100;
    let before = net.stats();
    let (spent, ()) = allocations(|| {
        for _ in 0..WRITES {
            assert_eq!(session.write("/data/f.af", 0, &[2u8; 128]), Ok(128));
        }
    });
    assert_eq!(
        spent,
        WRITES * WRITE_BUDGET,
        "{WRITES} writes made {spent} allocations, {WRITE_BUDGET} each expected"
    );
    // A write at two copies: the ack's round trip and one cast.
    let after = net.stats();
    assert_eq!(after.rpcs - before.rpcs, WRITES);
    assert_eq!(after.casts - before.casts, WRITES);
}
