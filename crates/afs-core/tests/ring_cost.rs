//! What a batched read and write cost the host, in heap allocations.
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
//! A write's bytes are staged in a buffer from the driver's spare list
//! and travel in their entry; the sentinel keeps the buffer, pays the ring
//! back with a spare from its staging list when it takes the write, and
//! the driver's next doorbell collects that.
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

/// Steady-state 128 B writes to one offset on the same file, so that none
/// merges into another and every eighth rings the doorbell: exactly
/// nothing (one per write while a write's buffer stayed with the sentinel
/// and only a read's completion brought one back).
const WRITE_BUDGET: u64 = 0;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BLOCK: usize = 128;
const FILE: usize = 256 * 1024;

/// A one-worker world holding `/r.af`, `FILE` bytes of a known pattern
/// behind a private batched §4.3 sentinel, opened for reading.
fn batched_file() -> (AfsWorld, Handle) {
    batched_file_for(Access::read_only())
}

/// [`batched_file`], opened with `access`.
fn batched_file_for(access: Access) -> (AfsWorld, Handle) {
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
        .create_file("/r.af", access, Disposition::OpenExisting)
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

#[test]
fn a_steady_state_batched_write_allocates_nothing() {
    const WRITES: usize = 256;
    let (world, h) = batched_file_for(Access::read_write());
    let api = world.api();
    settle(&world);
    let fleet = world.telemetry().fleet();
    let block = [7u8; BLOCK];
    // One write at offset 0, and when it rang the doorbell, a wait until
    // the worker has run the batch and parked: its takes have paid the
    // ring back before the next doorbell collects.
    let write = || {
        let before = fleet.snapshot();
        api.set_file_pointer(h, 0, SeekMethod::Begin)
            .expect("rewind");
        let (spent, ()) = allocations(|| assert_eq!(api.write_file(h, &block), Ok(BLOCK)));
        if fleet.snapshot().wakeups > before.wakeups {
            let deadline = Instant::now() + Duration::from_secs(10);
            while fleet.snapshot().parks == before.parks {
                assert!(Instant::now() < deadline, "the batch was never run");
                std::thread::yield_now();
            }
        }
        spent
    };
    // Warm-up: the buffers that circulate settle on their lists.
    for _ in 0..64 {
        write();
    }
    let spent: u64 = (0..WRITES).map(|_| write()).sum();
    assert_eq!(
        spent, WRITE_BUDGET,
        "{WRITES} batched writes made {spent} allocations, budget {WRITE_BUDGET}"
    );
    api.close_handle(h).expect("close");
    let mut back = [0u8; BLOCK];
    let read = world
        .vfs()
        .read_stream_to_end(&VPath::parse("/r.af").expect("path"));
    back.copy_from_slice(&read.expect("read back")[..BLOCK]);
    assert_eq!(back, block, "the writes landed");
}
