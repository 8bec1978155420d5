//! What a §4.3 read and write cost the host, in heap allocations and shim
//! locks.
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
//! A write runs the same way to the sentinel: its bytes are copied into a
//! buffer from the command lane's list and travel in the command, the
//! sentinel keeps the buffer, and its next take of a write hands the lane
//! a spare from its staging list. So a steady write allocates nothing
//! either, and takes the command lane's lock once per side: two fewer
//! than when its bytes followed it in a one-slot buffer.
//!
//! The reads run on the caller-runs path (an idle sentinel is polled by
//! the thread that waits on it; `tests/caller_runs.rs` at the root pins
//! the rule), so the sentinel's allocations and locks land on the
//! counting thread too: the test checks that no worker was woken. Nobody
//! waits on a write, so a worker serves it; its locks are read on that
//! thread, in the sentinel's write routine. Locks are counted by the
//! `parking_lot` shim's `count` feature, which this crate's
//! dev-dependencies turn on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use afs_core::{
    AfsWorld, Backing, SentinelCtx, SentinelLogic, SentinelResult, SentinelSpec, Strategy,
};
use afs_sim::{allocations, CountingAlloc};
use afs_vfs::VPath;
use afs_winapi::{Access, Disposition, FileApi, Handle, SeekMethod};
use parking_lot::{locks_taken, thread_locks};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BLOCK: usize = 128;
const FILE: usize = 256 * 1024;
const READS: usize = 256;
const WRITES: usize = 256;

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

/// A steady 128 B write of a private §4.3 file, which a worker serves: on
/// the writing thread the `HandleTable` shard, the handle's pointer, the
/// command lane's stamped lock and the run queue's, to schedule the
/// sentinel; on the worker the run queue's, the sentinel's task cell and
/// the command lane's. 9 (5 writing, 4 serving) while the bytes followed
/// the command in a shared buffer of their own, whose send and take took
/// one lock each.
const PRIVATE_WRITE_LOCKS: u64 = 7;

/// The same write through a one-session hub: the hub's send lock on top
/// of the private write's. 10 while the bytes followed the command in a
/// shared buffer.
const HUB_WRITE_LOCKS: u64 = 8;

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

/// What the [`Noting`] sentinel has served: how many writes, and the lock
/// count of the thread that served the newest, read in its routine.
#[derive(Default)]
struct Served {
    writes: AtomicU64,
    locks: AtomicU64,
}

/// A §4.3 sentinel whose write routine does nothing but note, for the
/// test, the locks its serving thread has taken so far.
struct Noting(Arc<Served>);

impl SentinelLogic for Noting {
    fn read(&mut self, _: &mut SentinelCtx, _: u64, _: &mut [u8]) -> SentinelResult<usize> {
        Ok(0)
    }

    fn write(&mut self, _: &mut SentinelCtx, _: u64, data: &[u8]) -> SentinelResult<usize> {
        self.0.locks.store(thread_locks(), Ordering::SeqCst);
        self.0.writes.fetch_add(1, Ordering::SeqCst);
        Ok(data.len())
    }
}

/// What `WRITES` steady 128 B writes of a §4.3 file shared as `share`
/// says cost: the allocations and locks of the writing thread, and the
/// locks of the worker that served them. Each write is posted (nobody
/// waits on it, so a worker serves it), and the next goes only once the
/// worker has served it and parked again, so both counts are exact.
fn steady_writes(share: &str) -> (u64, u64, u64) {
    let world = AfsWorld::builder().fleet_workers(1).build();
    let served = Arc::new(Served::default());
    let noted = Arc::clone(&served);
    world
        .sentinels()
        .register("noting", move |_| Box::new(Noting(Arc::clone(&noted))));
    let spec = SentinelSpec::new("noting", Strategy::DllThread).with("share", share);
    world.install_active_file("/w.af", &spec).expect("install");
    let api = world.api();
    let h = api
        .create_file("/w.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    settle(&world);
    let fleet = world.telemetry().fleet();
    let block = [7u8; BLOCK];
    let write = || {
        let parks = fleet.snapshot().parks;
        let writes = served.writes.load(Ordering::SeqCst);
        let (allocs, (locks, ())) =
            allocations(|| locks_taken(|| assert_eq!(api.write_file(h, &block), Ok(BLOCK))));
        let deadline = Instant::now() + Duration::from_secs(10);
        while served.writes.load(Ordering::SeqCst) == writes || fleet.snapshot().parks == parks {
            assert!(Instant::now() < deadline, "the write was never served");
            std::thread::yield_now();
        }
        (allocs, locks)
    };
    // Warm-up: the buffers that circulate settle on their lists.
    for _ in 0..64 {
        write();
    }
    let worker_before = served.locks.load(Ordering::SeqCst);
    let (mut allocs, mut locks) = (0, 0);
    for _ in 0..WRITES {
        let (a, l) = write();
        allocs += a;
        locks += l;
    }
    let worker = served.locks.load(Ordering::SeqCst) - worker_before;
    api.close_handle(h).expect("close");
    (allocs, locks, worker)
}

#[test]
fn a_steady_private_thread_write_allocates_nothing_and_takes_seven_locks() {
    let (allocs, app, worker) = steady_writes("off");
    assert_eq!(allocs, 0, "{WRITES} writes made {allocs} allocations");
    assert_eq!(
        app + worker,
        PRIVATE_WRITE_LOCKS * WRITES as u64,
        "{WRITES} writes took {app} locks writing and {worker} serving, \
         {PRIVATE_WRITE_LOCKS} each expected"
    );
}

#[test]
fn a_steady_one_session_hub_write_allocates_nothing_and_takes_eight_locks() {
    let (allocs, app, worker) = steady_writes("on");
    assert_eq!(allocs, 0, "{WRITES} writes made {allocs} allocations");
    assert_eq!(
        app + worker,
        HUB_WRITE_LOCKS * WRITES as u64,
        "{WRITES} writes took {app} locks writing and {worker} serving, \
         {HUB_WRITE_LOCKS} each expected"
    );
}
