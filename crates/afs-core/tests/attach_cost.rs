//! What a second session on a shared sentinel costs the host, in heap
//! allocations.
//!
//! A long-lived shared sentinel takes a new session on every open of its
//! file, and a session id only ever grows. So whatever an attach keeps
//! for good must not depend on the id: when every attach interned its own
//! `session=<id> file=<path>` span note, each open leaked one string into
//! the global interner (behind its one lock), with telemetry off too. A
//! session's spans now carry the id as a number beside the file note the
//! sentinel interned once, and an attach-and-close allocates as much on
//! its two-hundredth cycle as on its second.

use std::time::{Duration, Instant};

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_sim::{allocations, CountingAlloc};
use afs_winapi::{Access, Disposition, FileApi, Handle};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One open of a shared §4.3 file beside a session that stays, and its
/// close (measured: 20 — the handle and its table entry, the session's
/// wiring and its records on both sides; 22 while the attach interned a
/// note per session id, a leaked string and the `format!` that built it).
const ATTACH_AND_CLOSE: u64 = 20;

/// Opens before the measured ones: a handle table is eight maps, and a
/// map's first entry allocates it.
const WARM_UP: usize = 8;

const CYCLES: usize = 200;

/// A one-worker world holding `/s.af`, a §4.3 file whose sentinel its
/// opens share, opened once and held: the session every later one joins.
fn shared_file(telemetry: bool) -> (AfsWorld, Handle) {
    let world = AfsWorld::builder().fleet_workers(1).build();
    world.telemetry().set_enabled(telemetry);
    let spec = SentinelSpec::new("null", Strategy::DllThread).backing(Backing::Memory);
    world.install_active_file("/s.af", &spec).expect("install");
    let first = open(&world);
    let fleet = world.telemetry().fleet();
    let deadline = Instant::now() + Duration::from_secs(10);
    while fleet.snapshot().polls < 1 || world.fleet_queued() != 0 {
        assert!(Instant::now() < deadline, "the sentinel never settled");
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(50));
    (world, first)
}

fn open(world: &AfsWorld) -> Handle {
    world
        .api()
        .create_file("/s.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open")
}

/// The allocations of each of `CYCLES` second sessions' attach and
/// close, after `WARM_UP` of them.
fn cycles(telemetry: bool) -> Vec<u64> {
    let (world, first) = shared_file(telemetry);
    let cycle = || {
        let (spent, ()) = allocations(|| {
            let h = open(&world);
            world.api().close_handle(h).expect("close");
        });
        spent
    };
    for _ in 0..WARM_UP {
        cycle();
    }
    let counts = (0..CYCLES).map(|_| cycle()).collect();
    assert_eq!(world.shared_sentinels().len(), 1, "one sentinel served all");
    world.api().close_handle(first).expect("close the first");
    counts
}

#[test]
fn a_second_session_allocates_the_same_on_every_cycle() {
    for telemetry in [false, true] {
        let counts = cycles(telemetry);
        assert_eq!(
            counts[1],
            counts[CYCLES - 1],
            "telemetry {telemetry}: cycle 2 and cycle {CYCLES}: {counts:?}"
        );
        assert!(
            counts.iter().all(|&n| n == ATTACH_AND_CLOSE),
            "telemetry {telemetry}: {ATTACH_AND_CLOSE} each expected: {counts:?}"
        );
    }
}
