//! What a cluster session costs the host, in heap allocations.
//!
//! A `ClusterClient` session owns a private copy of the fleet's hash
//! ring, and a workload of short sessions opens one every few ops. The
//! ring used to be built with a `format!`, a `String` clone and a
//! `BTreeMap` insert per point — 1035 allocations for the open and first
//! read below on a five-member fleet, against 24 for each read after it.
//! These budgets keep that from coming back unnoticed: they sit ~20 %
//! above what the code does today, far below what it did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use afs_net::{Network, Service};
use afs_remote::{ClusterClient, FileServer};
use afs_sim::CostModel;
use afs_telemetry::ClusterGauges;

/// One open — `new`, five `add_node`s, `with_gauges` — and the first
/// read (measured: 40, of which the read is 23).
const OPEN_AND_FIRST_READ_BUDGET: u64 = 48;
/// One steady-state read, a stat and a get round trip (measured: 23,
/// most of them the servers' request parsing and replies).
const READ_BUDGET: u64 = 28;

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
fn a_steady_state_read_stays_within_its_budget() {
    let net = fleet();
    let members: Vec<String> = (0..FLEET).map(member).collect();
    let session = open(&net, &members, &Arc::new(ClusterGauges::default()));
    session.read("/data/f.af", 0, 128).expect("warm-up read");
    const READS: u64 = 100;
    let spent = allocations(|| {
        for _ in 0..READS {
            session.read("/data/f.af", 0, 128).expect("read");
        }
    });
    assert!(
        spent <= READS * READ_BUDGET,
        "{READS} reads made {spent} allocations, budget {READ_BUDGET} each"
    );
}
