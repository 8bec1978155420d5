//! What a durable commit costs the host, in heap allocations.
//!
//! The rig is the `durable-commit` workload's store: a `VfsMedium` over a
//! 1 MiB seeded extent, 128-byte writes at random offsets, each committed,
//! auto-checkpointing at 64 pages. Before the staged batch became its own
//! WAL image, on this rig a `write_at` made 1.03 allocations (the
//! record's copy of the bytes, now and then a `BTreeSet` node), a
//! `commit` 9.13 (a body `Vec` per record and the batch buffer, each grown
//! in steps, the WAL stream's name per append, the auto-checkpoints
//! amortised) and an explicit checkpoint 215 over 214 dirty pages (the
//! pages stream's name per page written; 257 when all 256 are dirty).
//! Now the batch frames into one buffer the store keeps, dirty pages are
//! bits, and a stream's name is allocated only when the stream is
//! created — so once the streams have grown to their working size, none
//! of the three allocates at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use afs_sim::CostModel;
use afs_store::{PageStore, StoreOptions, VfsMedium};
use afs_telemetry::StoreGauges;
use afs_vfs::{VPath, Vfs};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

const EXTENT: usize = 1 << 20;
const BLOCK: usize = 128;

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

fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = work();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The rig, checkpointed over its seed and run until the WAL has been
/// checkpointed away twice: every stream and buffer at working size.
fn warm_store(rng: &mut SmallRng) -> PageStore {
    let vfs = Arc::new(Vfs::new());
    let path = VPath::parse("/store.af").expect("path");
    vfs.create_file(&path).expect("create");
    let medium = VfsMedium::new(Arc::clone(&vfs), &path);
    let (mut store, _) = PageStore::open(
        Box::new(medium),
        StoreOptions::default(),
        CostModel::free(),
        Arc::new(StoreGauges::default()),
    )
    .expect("open");
    let mut extent = vec![0u8; EXTENT];
    rng.fill_bytes(&mut extent);
    store.seed(&extent);
    store.checkpoint().expect("checkpoint the seed");
    let mut block = [0u8; BLOCK];
    while store.stats().checkpoints < 3 {
        write_and_commit(&mut store, rng, &mut block);
    }
    store
}

fn write_and_commit(store: &mut PageStore, rng: &mut SmallRng, block: &mut [u8; BLOCK]) -> u64 {
    rng.fill_bytes(block);
    let offset = (rng.gen_range(0..EXTENT / BLOCK) * BLOCK) as u64;
    store.write_at(offset, block).expect("write");
    store.commit().expect("commit").expect("a staged batch")
}

#[test]
fn a_steady_write_and_commit_allocate_nothing_checkpoint_included() {
    let mut rng = SmallRng::seed_from_u64(21);
    let mut store = warm_store(&mut rng);
    let mut block = [0u8; BLOCK];
    let checkpoints = store.stats().checkpoints;
    // Long enough for auto-checkpoints: ~1 600 commits fill 64 pages.
    const OPS: u64 = 4_000;
    let (mut in_write, mut in_commit) = (0, 0);
    for _ in 0..OPS {
        rng.fill_bytes(&mut block);
        let offset = (rng.gen_range(0..EXTENT / BLOCK) * BLOCK) as u64;
        in_write += allocations(|| store.write_at(offset, &block).expect("write")).0;
        in_commit += allocations(|| store.commit().expect("commit")).0;
    }
    assert!(
        store.stats().checkpoints >= checkpoints + 2,
        "auto-checkpoints ran"
    );
    assert_eq!(
        in_write, 0,
        "{OPS} write_at calls made {in_write} allocations"
    );
    assert_eq!(in_commit, 0, "{OPS} commits made {in_commit} allocations");
}

#[test]
fn an_explicit_checkpoint_allocates_nothing() {
    let mut rng = SmallRng::seed_from_u64(34);
    let mut store = warm_store(&mut rng);
    let mut block = [0u8; BLOCK];
    for _ in 0..500 {
        write_and_commit(&mut store, &mut rng, &mut block);
    }
    let (spent, report) = allocations(|| store.checkpoint().expect("checkpoint"));
    assert!(report.pages_written > 100, "{report:?}");
    assert_eq!(spent, 0, "a checkpoint made {spent} allocations");
}
