//! Cross-strategy equivalence of the shared-sentinel session layer.
//!
//! A handle attached to a shared sentinel must be indistinguishable from
//! a handle with a private sentinel: same returned values op for op, same
//! final file content. These tests drive the same interleaved two-handle
//! script with sharing on (the default — both opens are sessions on one
//! sentinel, over a pair hub or one ring) and off (`share=off` — one
//! sentinel per open), unbatched and over rings of depth 1 and 8, and
//! compare the transcripts byte for byte, for every strategy that can
//! share. Sharing and batching compose: they are inputs to one
//! sentinel-side loop, so they are inputs to one script here.

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_sim::clock;
use afs_winapi::{Access, Disposition, FileApi, SeekMethod};

/// Strategies with session support (§4.1 streams never share; its opens
/// are private by construction).
const SHARABLE: [Strategy; 3] = [
    Strategy::ProcessControl,
    Strategy::DllThread,
    Strategy::DllOnly,
];

/// Ring depths swept beside the unbatched wiring (`None`).
const BATCH: [Option<&str>; 3] = [None, Some("1"), Some("8")];

fn build(strategy: Strategy, share: bool, batch: Option<&str>) -> AfsWorld {
    let world = AfsWorld::new();
    let mut spec = SentinelSpec::new("null", strategy).backing(Backing::Disk);
    if !share {
        spec = spec.with("share", "off");
    }
    if let Some(depth) = batch {
        spec = spec.with("batch", "on").with("ring_depth", depth);
    }
    world.install_active_file("/eq.af", &spec).expect("install");
    world
}

/// Runs a fixed interleaved two-handle script and returns everything the
/// application could observe: each op's returned value and the bytes of
/// every read, then the final regenerated file content.
fn transcript(strategy: Strategy, share: bool, batch: Option<&str>) -> Vec<Vec<u8>> {
    let world = build(strategy, share, batch);
    let api = world.api();
    // Two private sentinels promise no order between the two handles: a
    // write is acknowledged before its sentinel (or, batched, its ring)
    // has applied it, so whether the other handle's sentinel sees it is a
    // race. Where the script depends on that order, the `share=off` legs
    // settle the writing handle with a synchronous op first. The shared
    // legs — pair hub and ring alike — get no such help: flush-before-reply
    // across sessions is what they check.
    let settle = |h| {
        if !share {
            api.get_file_size(h).expect("settle");
        }
    };
    let _clock = clock::install(0);
    let mut log: Vec<Vec<u8>> = Vec::new();
    let mut note = |tag: &str, bytes: &[u8]| {
        let mut entry = tag.as_bytes().to_vec();
        entry.extend_from_slice(bytes);
        log.push(entry);
    };

    let h1 = api
        .create_file("/eq.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open h1");
    let h2 = api
        .create_file("/eq.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open h2");

    // Interleaved writes at independent pointers.
    assert_eq!(api.write_file(h1, b"alpha-").expect("w1"), 6);
    settle(h1);
    assert_eq!(api.write_file(h2, b"HELLO").expect("w2"), 5);
    note("size1", &api.get_file_size(h1).expect("size").to_le_bytes());

    // h2 overwrote h1's prefix; h1 keeps writing at its own pointer.
    assert_eq!(api.write_file(h1, b"beta").expect("w3"), 4);
    settle(h1);

    // Cross-session read-your-writes: h2 rewinds and must see the merged
    // image, including h1's writes that may still sit in a write batch.
    api.set_file_pointer(h2, 0, SeekMethod::Begin).expect("rw");
    let mut buf = vec![0u8; 10];
    let n = api.read_file(h2, &mut buf).expect("read h2");
    note("read2", &buf[..n]);

    // End-relative seek on h1, then append.
    let end = api.set_file_pointer(h1, 0, SeekMethod::End).expect("end");
    note("end1", &end.to_le_bytes());
    assert_eq!(api.write_file(h1, b"!").expect("w4"), 1);

    // Flush one session, read back through the other.
    api.flush_file_buffers(h2).expect("flush");
    api.set_file_pointer(h1, 0, SeekMethod::Begin).expect("rw1");
    let mut all = vec![0u8; 32];
    let n = api.read_file(h1, &mut all).expect("read h1");
    note("read1", &all[..n]);

    // Scatter read through h2.
    api.set_file_pointer(h2, 2, SeekMethod::Begin).expect("s2");
    let mut a = [0u8; 3];
    let mut b = [0u8; 3];
    let n = api
        .read_file_scatter(h2, &mut [&mut a[..], &mut b[..]])
        .expect("scatter");
    note("scat-n", &(n as u64).to_le_bytes());
    note("scat-a", &a);
    note("scat-b", &b);

    api.close_handle(h1).expect("close h1");
    // h2 outlives h1's session; its view must survive the detach.
    note(
        "size2",
        &api.get_file_size(h2).expect("size2").to_le_bytes(),
    );
    api.close_handle(h2).expect("close h2");

    // Final content via a fresh open (close persisted the cache).
    let h = api
        .create_file("/eq.af", Access::read_only(), Disposition::OpenExisting)
        .expect("reopen");
    let mut final_buf = vec![0u8; 64];
    let n = api.read_file(h, &mut final_buf).expect("final read");
    note("final", &final_buf[..n]);
    api.close_handle(h).expect("close");
    log
}

#[test]
fn multiplexed_handles_are_indistinguishable_from_private() {
    for strategy in SHARABLE {
        let shared = transcript(strategy, true, None);
        for share in [true, false] {
            for batch in BATCH {
                assert_eq!(
                    shared,
                    transcript(strategy, share, batch),
                    "{strategy:?}: share={share} batch={batch:?} must match \
                     the shared unbatched sentinel"
                );
            }
        }
    }
}

#[test]
fn second_open_attaches_to_the_running_sentinel() {
    for strategy in SHARABLE {
        let world = build(strategy, true, None);
        let api = world.api();
        let _clock = clock::install(0);
        let h1 = api
            .create_file("/eq.af", Access::read_write(), Disposition::OpenExisting)
            .expect("open h1");
        let before = world.shared_sentinels();
        assert_eq!(before.len(), 1, "{strategy:?}: one shared sentinel");
        assert_eq!(before[0].3, 1, "{strategy:?}: one session");
        let h2 = api
            .create_file("/eq.af", Access::read_write(), Disposition::OpenExisting)
            .expect("open h2");
        let during = world.shared_sentinels();
        assert_eq!(
            during[0].3, 2,
            "{strategy:?}: second open joined as a session"
        );
        assert_eq!(during[0].1, "null", "sentinel name reported");
        assert_eq!(during[0].0, "/eq.af", "path reported");
        api.close_handle(h1).expect("close h1");
        assert_eq!(
            world.shared_sentinels()[0].3,
            1,
            "{strategy:?}: detach drops the session count"
        );
        api.close_handle(h2).expect("close h2");
        assert!(
            world.shared_sentinels().is_empty(),
            "{strategy:?}: last close retires the sentinel"
        );
    }
}

#[test]
fn share_off_forces_private_sentinels() {
    let world = build(Strategy::DllThread, false, None);
    let api = world.api();
    let _clock = clock::install(0);
    let h1 = api
        .create_file("/eq.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open h1");
    let h2 = api
        .create_file("/eq.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open h2");
    assert!(
        world.shared_sentinels().is_empty(),
        "share=off: every open gets a private sentinel"
    );
    api.close_handle(h1).expect("close");
    api.close_handle(h2).expect("close");
}

#[test]
fn truncating_dispositions_never_share() {
    let world = build(Strategy::DllThread, true, None);
    let api = world.api();
    let _clock = clock::install(0);
    let h1 = api
        .create_file("/eq.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open h1");
    assert_eq!(world.shared_sentinels()[0].3, 1);
    // A truncating open must not join (or truncate under) the running
    // sessions: it gets a private sentinel.
    let h2 = api
        .create_file("/eq.af", Access::read_write(), Disposition::CreateAlways)
        .expect("truncating open");
    assert_eq!(
        world.shared_sentinels()[0].3,
        1,
        "truncating open stayed private"
    );
    api.close_handle(h2).expect("close h2");
    api.close_handle(h1).expect("close h1");
}

#[test]
fn simple_process_streams_never_share() {
    let world = AfsWorld::new();
    world
        .install_active_file(
            "/eq.af",
            &SentinelSpec::new("null", Strategy::Process).backing(Backing::Disk),
        )
        .expect("install");
    let api = world.api();
    let _clock = clock::install(0);
    let h1 = api
        .create_file("/eq.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open h1");
    let h2 = api
        .create_file("/eq.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open h2");
    assert!(
        world.shared_sentinels().is_empty(),
        "§4.1 has no session protocol to multiplex"
    );
    api.close_handle(h1).expect("close");
    api.close_handle(h2).expect("close");
}

/// The out-of-line strategies, whose batched opens share one ring.
const RINGED: [Strategy; 2] = [Strategy::ProcessControl, Strategy::DllThread];

/// Bytes per block of the ring tests' file.
const BLOCK: usize = 16;

/// A world holding `/ring.af`, batched at `depth` over a memory cache and
/// seeded with eight blocks of `b'a' + block`.
fn ring_world(strategy: Strategy, depth: &str) -> AfsWorld {
    let world = AfsWorld::new();
    let spec = SentinelSpec::new("null", strategy)
        .backing(Backing::Memory)
        .with("batch", "on")
        .with("ring_depth", depth);
    world
        .install_active_file("/ring.af", &spec)
        .expect("install");
    let seed: Vec<u8> = (0..8u8).flat_map(|b| [b'a' + b; BLOCK]).collect();
    let path = afs_vfs::VPath::parse("/ring.af").expect("path");
    world
        .vfs()
        .write_stream_replace(&path, &seed)
        .expect("seed");
    world
}

#[test]
fn a_second_batched_open_joins_the_ring() {
    for strategy in RINGED {
        for depth in ["1", "8"] {
            let world = ring_world(strategy, depth);
            let api = world.api();
            let _clock = clock::install(0);
            let open = || {
                api.create_file("/ring.af", Access::read_write(), Disposition::OpenExisting)
                    .expect("open")
            };
            let (a, b) = (open(), open());
            let shared = world.shared_sentinels();
            assert_eq!(shared.len(), 1, "{strategy:?} depth {depth}: {shared:?}");
            assert_eq!(shared[0].3, 2, "{strategy:?} depth {depth}: two sessions");
            api.close_handle(a).expect("close a");
            api.close_handle(b).expect("close b");
            assert!(world.shared_sentinels().is_empty(), "{strategy:?}");
        }
    }
}

#[test]
fn no_session_reads_speculation_older_than_another_sessions_write() {
    for strategy in RINGED {
        for depth in ["1", "8"] {
            let world = ring_world(strategy, depth);
            let api = world.api();
            let _clock = clock::install(0);
            let open = || {
                api.create_file("/ring.af", Access::read_write(), Disposition::OpenExisting)
                    .expect("open")
            };
            let (a, b) = (open(), open());
            // A's read of block 0 speculates the blocks after it.
            let mut block = [0u8; BLOCK];
            assert_eq!(api.read_file(a, &mut block), Ok(BLOCK));
            assert_eq!(block, [b'a'; BLOCK]);
            // B's write of block 1 is acknowledged, staged, not synced.
            api.set_file_pointer(b, BLOCK as i64, SeekMethod::Begin)
                .expect("seek b");
            assert_eq!(api.write_file(b, &[b'B'; BLOCK]), Ok(BLOCK));
            assert_eq!(api.read_file(a, &mut block), Ok(BLOCK));
            assert_eq!(
                block, [b'B'; BLOCK],
                "{strategy:?} depth {depth}: A read block 1 older than B's write"
            );
            api.close_handle(a).expect("close a");
            api.close_handle(b).expect("close b");
        }
    }
}
