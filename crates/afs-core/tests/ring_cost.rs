//! What a batched read costs the host, in heap allocations.
//!
//! A `batch=on` file crosses once per ring of reads, so the host work per
//! read has to be small beside the crossing it saves. It was not: each
//! read's bytes came back in a `Vec` the sentinel allocated, each
//! doorbell's entries in a `Vec` of their own, and the completion index
//! and the readahead cache were hash maps. Now the driver keeps one batch
//! `Vec` across doorbells, the completion index and the readahead are
//! short lists scanned by id and span, and a read's buffer travels to the
//! sentinel in its submission entry and back in its completion, then
//! waits on the driver's spare list for the next read.
//!
//! The reads run on the caller-runs path (an idle sentinel is polled by
//! the thread that waits on it; `tests/caller_runs.rs` at the root pins
//! the rule), so the sentinel's allocations land on the counting thread
//! too: the test checks that no worker was woken.

use std::time::{Duration, Instant};

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_sim::{allocations, CountingAlloc};
use afs_vfs::VPath;
use afs_winapi::{Access, Disposition, FileApi, Handle, SeekMethod};

/// Steady-state sequential 128 B reads on a private `batch=on` §4.3 file,
/// depth 8: exactly nothing (9 per 8 reads while each completion's bytes
/// were a fresh `Vec` and each doorbell's entries another).
const READ_BUDGET: u64 = 0;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BLOCK: usize = 128;
const FILE: usize = 256 * 1024;

/// A one-worker world holding `/r.af`, `FILE` bytes of a known pattern
/// behind a private batched §4.3 sentinel, opened for reading.
fn batched_file() -> (AfsWorld, Handle) {
    let world = AfsWorld::builder().fleet_workers(1).build();
    let spec = SentinelSpec::new("null", Strategy::DllThread)
        .backing(Backing::Memory)
        .with("share", "off")
        .with("batch", "on")
        .with("ring_depth", "8");
    world.install_active_file("/r.af", &spec).expect("install");
    let pattern: Vec<u8> = (0..FILE).map(|i| (i % 251) as u8).collect();
    world
        .vfs()
        .write_stream_replace(&VPath::parse("/r.af").expect("path"), &pattern)
        .expect("seed");
    let h = world
        .api()
        .create_file("/r.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    (world, h)
}

/// Waits until the world's one worker has run the sentinel's first poll
/// and gone back to sleep, leaving the sentinel idle.
fn settle(world: &AfsWorld) {
    let fleet = world.telemetry().fleet();
    let deadline = Instant::now() + Duration::from_secs(10);
    while fleet.snapshot().polls < 1 || world.fleet_queued() != 0 {
        assert!(Instant::now() < deadline, "the sentinel never settled");
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(50));
}

#[test]
fn a_steady_state_batched_read_allocates_nothing() {
    const READS: usize = 256;
    let (world, h) = batched_file();
    let api = world.api();
    settle(&world);
    let mut buf = [0u8; BLOCK];
    // Warm-up: the ring's lists and the buffers that circulate grow to
    // their steady size.
    for _ in 0..4 * READS {
        assert_eq!(api.read_file(h, &mut buf), Ok(BLOCK));
    }
    api.set_file_pointer(h, 0, SeekMethod::Begin)
        .expect("rewind");
    let fleet = world.telemetry().fleet();
    let before = fleet.snapshot();
    let (spent, ()) = allocations(|| {
        for i in 0..READS {
            assert_eq!(api.read_file(h, &mut buf), Ok(BLOCK));
            assert_eq!(buf[0], (i * BLOCK % 251) as u8, "read {i} is in order");
        }
    });
    let after = fleet.snapshot();
    assert_eq!(after.wakeups, before.wakeups, "the caller ran the sentinel");
    assert_eq!(after.parks, before.parks, "no worker went back to sleep");
    assert_eq!(
        spent, READ_BUDGET,
        "{READS} batched reads made {spent} allocations, budget {READ_BUDGET}"
    );
    api.close_handle(h).expect("close");
}
