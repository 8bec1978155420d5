//! What a §4.3 read costs the host, in heap allocations and shim locks.
//!
//! A read over the DLL-with-thread wiring sends its command on one lane
//! and takes its reply, bytes and all, off another: the sentinel hands
//! over the buffer it staged the bytes in, the application copies them
//! into the caller's buffer and leaves the buffer on the reply lane, and
//! the next reply's send hands it back to the sentinel's staging list. So
//! a steady read allocates nothing, and it takes each lane's lock once per
//! side and the handle's and the executor's own. When the bytes followed
//! the reply in a one-slot buffer of their own, the slot's send and take
//! were two more locks per read.
//!
//! The reads run on the caller-runs path (an idle sentinel is polled by
//! the thread that waits on it; `tests/caller_runs.rs` at the root pins
//! the rule), so the sentinel's allocations and locks land on the
//! counting thread too: the test checks that no worker was woken. Locks
//! are counted by the `parking_lot` shim's `count` feature, which this
//! crate's dev-dependencies turn on.

use std::time::{Duration, Instant};

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_sim::{allocations, CountingAlloc};
use afs_vfs::VPath;
use afs_winapi::{Access, Disposition, FileApi, Handle, SeekMethod};
use parking_lot::locks_taken;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BLOCK: usize = 128;
const FILE: usize = 256 * 1024;
const READS: usize = 256;

/// A steady 128 B read of a private §4.3 file (`share=off`, the bare
/// pair): the `HandleTable` shard, the handle's pointer, the sentinel's
/// task cell, and the command lane's and the reply lane's stamped locks
/// once per side. 9 while the bytes followed the reply in a shared buffer
/// of their own, whose send and take took one lock each.
const PRIVATE_LOCKS: u64 = 7;

/// The same read of a one-session shared §4.3 file (a `MuxHub` in front
/// of the pair): the hub's send lock and its receive lock on top of the
/// private read's. 11 while the bytes followed the reply in a shared
/// buffer.
const HUB_LOCKS: u64 = 9;

/// A one-worker world holding `/p.af`, `FILE` bytes of a known pattern
/// behind a §4.3 sentinel shared as `share` says, opened for reading.
fn thread_file(share: &str) -> (AfsWorld, Handle) {
    let world = AfsWorld::builder().fleet_workers(1).build();
    let spec = SentinelSpec::new("null", Strategy::DllThread)
        .backing(Backing::Memory)
        .with("share", share);
    world.install_active_file("/p.af", &spec).expect("install");
    let pattern: Vec<u8> = (0..FILE).map(|i| (i % 251) as u8).collect();
    world
        .vfs()
        .write_stream_replace(&VPath::parse("/p.af").expect("path"), &pattern)
        .expect("seed");
    let h = world
        .api()
        .create_file("/p.af", Access::read_only(), Disposition::OpenExisting)
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

/// `READS` steady sequential 128 B reads of a §4.3 file shared as `share`
/// says, on the caller-runs path: the allocations and locks they took.
fn steady_reads(share: &str) -> (u64, u64) {
    let (world, h) = thread_file(share);
    let api = world.api();
    settle(&world);
    let mut buf = [0u8; BLOCK];
    // Warm-up: the buffers that circulate settle on their lists.
    for _ in 0..4 * READS {
        assert_eq!(api.read_file(h, &mut buf), Ok(BLOCK));
    }
    api.set_file_pointer(h, 0, SeekMethod::Begin)
        .expect("rewind");
    let fleet = world.telemetry().fleet();
    let before = fleet.snapshot();
    let (allocs, (locks, ())) = allocations(|| {
        locks_taken(|| {
            for i in 0..READS {
                assert_eq!(api.read_file(h, &mut buf), Ok(BLOCK));
                assert_eq!(buf[0], (i * BLOCK % 251) as u8, "read {i} is in order");
            }
        })
    });
    let after = fleet.snapshot();
    assert_eq!(after.wakeups, before.wakeups, "the caller ran the sentinel");
    assert_eq!(after.parks, before.parks, "no worker went back to sleep");
    api.close_handle(h).expect("close");
    (allocs, locks)
}

#[test]
fn a_steady_private_thread_read_allocates_nothing_and_takes_seven_locks() {
    let (allocs, locks) = steady_reads("off");
    assert_eq!(allocs, 0, "{READS} reads made {allocs} allocations");
    assert_eq!(
        locks,
        PRIVATE_LOCKS * READS as u64,
        "{READS} reads took {locks} locks, {PRIVATE_LOCKS} each expected"
    );
}

#[test]
fn a_steady_one_session_hub_read_allocates_nothing_and_takes_nine_locks() {
    let (allocs, locks) = steady_reads("on");
    assert_eq!(allocs, 0, "{READS} reads made {allocs} allocations");
    assert_eq!(
        locks,
        HUB_LOCKS * READS as u64,
        "{READS} reads took {locks} locks, {HUB_LOCKS} each expected"
    );
}
