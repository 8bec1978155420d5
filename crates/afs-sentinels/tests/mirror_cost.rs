//! What a remote mirror's readahead costs the host, in heap allocations.
//!
//! With `readahead=on` the mirror fetches twice what a read asks for and
//! serves the second half to the next sequential read. The fetch used to
//! come back in a `Vec` of its own and the second half was copied out
//! into another; now it lands in one buffer the sentinel keeps and the
//! half is served from where it landed. The file is a §4.4 `DllOnly`
//! one, so the sentinel runs on the reading thread and every allocation
//! of the read path is counted here.

use std::sync::Arc;

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_net::Service;
use afs_remote::FileServer;
use afs_sim::{allocations, CountingAlloc};
use afs_winapi::{Access, Disposition, FileApi, SeekMethod};

/// A miss (one remote fetch of two blocks) and the prefetch hit that
/// follows it: exactly nothing (2 while the fetch returned a `Vec` and
/// the prefetched half was copied into another).
const MISS_AND_HIT_BUDGET: u64 = 0;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BLOCK: usize = 128;

#[test]
fn a_readahead_miss_and_its_prefetch_hit_allocate_nothing() {
    let world = AfsWorld::new();
    afs_sentinels::register_all(world.sentinels());
    let blob: Vec<u8> = (0..64 * BLOCK).map(|i| (i % 251) as u8).collect();
    let server = FileServer::new();
    server.seed("/blob", &blob);
    world.net().register("files", server as Arc<dyn Service>);
    let spec = SentinelSpec::new("mirror", Strategy::DllOnly)
        .backing(Backing::None)
        .with("service", "files")
        .with("remote", "/blob")
        .with("readahead", "on");
    world.install_active_file("/m.af", &spec).expect("install");
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; BLOCK];
    // Warm-up: the fetch buffer and this thread's message buffers grow.
    for _ in 0..4 {
        assert_eq!(api.read_file(h, &mut buf), Ok(BLOCK));
    }
    let at = 32 * BLOCK;
    api.set_file_pointer(h, at as i64, SeekMethod::Begin)
        .expect("seek past the prefetch");
    let rpcs = world.net().stats().rpcs;
    let (spent, ()) = allocations(|| {
        for block in 0..2 {
            assert_eq!(api.read_file(h, &mut buf), Ok(BLOCK));
            let from = at + block * BLOCK;
            assert_eq!(buf[..], blob[from..from + BLOCK], "block {block}");
        }
    });
    assert_eq!(
        world.net().stats().rpcs - rpcs,
        1,
        "one fetch for two reads"
    );
    assert_eq!(
        spent, MISS_AND_HIT_BUDGET,
        "a miss and a hit made {spent} allocations, budget {MISS_AND_HIT_BUDGET}"
    );
    api.close_handle(h).expect("close");
}
