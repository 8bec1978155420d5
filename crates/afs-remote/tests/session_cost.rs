//! What a cluster session costs the host, in heap allocations.
//!
//! A workload of short `ClusterClient` sessions opens one every few ops,
//! so an open has to cost about what an op costs, and an op about what
//! its messages carry. Neither was so: the ring used to be built per
//! session with a `format!`, a `String` clone and a `BTreeMap` insert per
//! point (1035 allocations for the open and first read below on a
//! five-member fleet), then built flat but still per session (40); and a
//! read re-derived per message what its receiver already knew (23
//! allocations where 4 carry bytes). A session now owns its member names
//! and shares the fleet's one built ring with every other session of the
//! same membership, a message is one buffer each way, and a read is one
//! message (the session's floor rides it; it was a `STAT` and a `GET`).
//! These budgets keep the rest from coming back unnoticed: they sit
//! ~20 % above what the code does today. The message counts are exact,
//! and so is the open itself: it allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use afs_net::{Network, Service};
use afs_remote::{ClusterClient, FileServer};
use afs_sim::CostModel;
use afs_telemetry::ClusterGauges;

/// One open — `new`, five `add_node`s, `with_gauges` — and the first
/// read, on a fleet some session of this thread has placed on before
/// (measured: 9 — the five names, their `Vec` grown twice, and the read;
/// 10 while `new` made gauges that `with_gauges` threw away, 12 while a
/// read was two round trips, 40 while every session built its ring, and
/// the thread's first session still pays 18 more to build the one they
/// share).
const OPEN_AND_FIRST_READ_BUDGET: u64 = 11;
/// One steady-state read, one round trip (measured: 2 — the request and
/// the reply, nothing else; 4 as a stat and a get, 23 while the server
/// parsed the path of every message).
const READ_BUDGET: u64 = 3;
/// One steady-state write at two copies, a put-ack round trip and one
/// replication cast (measured: 4 — the two requests and the two replies;
/// 7 while the replica queued every cast before applying it: its bytes,
/// its path, a map node; 32 before that).
const WRITE_BUDGET: u64 = 5;

const FLEET: usize = 5;

thread_local! {
    /// Allocations made by this thread: the harness runs tests on
    /// threads of their own, so a count is one test's alone.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a `const`
// thread-local `Cell` and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is
        // the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    work();
    ALLOCS.with(Cell::get) - before
}

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
    // The fleet's first placement builds its ring; every session after
    // that, this one included, finds it built.
    drop(open(&net, &members, &gauges).owners("/data/f.af"));
    let spent = allocations(|| {
        let session = open(&net, &members, &gauges);
        assert_eq!(session.read("/data/f.af", 0, 128).expect("read").len(), 128);
    });
    assert!(
        spent <= OPEN_AND_FIRST_READ_BUDGET,
        "open + first read made {spent} allocations, budget {OPEN_AND_FIRST_READ_BUDGET}"
    );
}

#[test]
fn an_open_given_its_gauges_allocates_nothing() {
    let net = fleet();
    let gauges = Arc::new(ClusterGauges::default());
    let spent = allocations(|| {
        let session = ClusterClient::new(net.clone(), 2, Some(10));
        drop(session.with_gauges(Arc::clone(&gauges)));
    });
    assert_eq!(
        spent, 0,
        "a session's own gauges are made only if asked for"
    );
}

#[test]
fn a_steady_state_read_stays_within_its_budget() {
    let net = fleet();
    let members: Vec<String> = (0..FLEET).map(member).collect();
    let session = open(&net, &members, &Arc::new(ClusterGauges::default()));
    session.read("/data/f.af", 0, 128).expect("warm-up read");
    const READS: u64 = 100;
    let before = net.stats();
    let spent = allocations(|| {
        for _ in 0..READS {
            session.read("/data/f.af", 0, 128).expect("read");
        }
    });
    assert!(
        spent <= READS * READ_BUDGET,
        "{READS} reads made {spent} allocations, budget {READ_BUDGET} each"
    );
    // A healthy read is one request and its reply.
    let after = net.stats();
    assert_eq!(after.rpcs - before.rpcs, READS);
    assert_eq!(after.casts - before.casts, 0);
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
    let spent = allocations(|| {
        for _ in 0..WRITES {
            assert_eq!(session.write("/data/f.af", 0, &[2u8; 128]), Ok(128));
        }
    });
    assert!(
        spent <= WRITES * WRITE_BUDGET,
        "{WRITES} writes made {spent} allocations, budget {WRITE_BUDGET} each"
    );
    // A write at two copies: the ack's round trip and one cast.
    let after = net.stats();
    assert_eq!(after.rpcs - before.rpcs, WRITES);
    assert_eq!(after.casts - before.casts, WRITES);
}
