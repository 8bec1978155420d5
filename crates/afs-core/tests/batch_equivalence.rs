//! Ring batching is a transport optimisation, not a semantic change: a
//! handle opened with `batch=on` must be indistinguishable from an
//! unbatched one, op for op, under every §4 strategy, whether or not the
//! sentinel may be joined (`share=`). These tests drive the same
//! single-handle script over every combination and compare the
//! transcripts byte for byte, assert the crossing reduction the ring
//! exists for, check the ring gauges, and pin the spec-key validation
//! (`batch=`, `ring_depth=`) to clear `InvalidParameter` failures.
//!
//! (Out-of-order completion ordering under a seeded interleaving is
//! covered at the ring layer, in `afs-ipc`'s `ring` unit tests.)

use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
use afs_sim::{clock, HardwareProfile};
use afs_winapi::{Access, Disposition, FileApi, SeekMethod, Win32Error};

/// Ring depths the equivalence script sweeps: a degenerate one-slot ring
/// (every op flushes), a depth that never fills mid-script, and the
/// default.
const DEPTHS: [&str; 3] = ["1", "3", "8"];

fn build(strategy: Strategy, backing: Backing, share: bool, batch: Option<&str>) -> AfsWorld {
    let world = AfsWorld::new();
    let mut spec = SentinelSpec::new("null", strategy).backing(backing);
    if !share {
        spec = spec.with("share", "off");
    }
    if let Some(depth) = batch {
        spec = spec.with("batch", "on").with("ring_depth", depth);
    }
    world.install_active_file("/b.af", &spec).expect("install");
    world
}

/// Runs a fixed single-handle script and returns everything the
/// application could observe: each op's returned value, the bytes of
/// every read, every error, and the final regenerated file content.
///
/// The script interleaves adjacent writes (coalescing candidates),
/// sequential reads (readahead candidates), seeks, size queries, a
/// scatter read, a refused control op, and short/EOF reads — every path
/// the ring driver routes differently from the plain transport.
fn transcript(
    strategy: Strategy,
    backing: Backing,
    share: bool,
    batch: Option<&str>,
) -> Vec<Vec<u8>> {
    let world = build(strategy, backing, share, batch);
    let api = world.api();
    let _clock = clock::install(0);
    let mut log: Vec<Vec<u8>> = Vec::new();
    let mut note = |tag: &str, bytes: &[u8]| {
        let mut entry = tag.as_bytes().to_vec();
        entry.extend_from_slice(bytes);
        log.push(entry);
    };

    let h = api
        .create_file("/b.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");

    if strategy == Strategy::Process {
        // §4.1 has no control channel: the handle is a byte stream, so
        // the script is write-everything, reopen, stream it back.
        assert_eq!(api.write_file(h, b"0123456789abcdef").expect("w"), 16);
        assert_eq!(api.write_file(h, b"TAIL").expect("w2"), 4);
        api.close_handle(h).expect("close");
        let h = api
            .create_file("/b.af", Access::read_only(), Disposition::OpenExisting)
            .expect("reopen");
        let mut buf = [0u8; 7];
        loop {
            let n = api.read_file(h, &mut buf).expect("stream read");
            if n == 0 {
                break;
            }
            note("chunk", &buf[..n]);
        }
        api.close_handle(h).expect("close");
        return log;
    }

    // Adjacent writes — the ring driver coalesces these into one span.
    assert_eq!(api.write_file(h, b"01234567").expect("w1"), 8);
    assert_eq!(api.write_file(h, b"89abcdef").expect("w2"), 8);
    note("size", &api.get_file_size(h).expect("size").to_le_bytes());

    // Sequential reads from the top — readahead territory. The staged
    // writes above must be visible (they travel ahead of the demand read
    // in the same batch).
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("rw");
    let mut buf = [0u8; 4];
    for _ in 0..4 {
        let n = api.read_file(h, &mut buf).expect("seq read");
        note("seq", &buf[..n]);
    }

    // Overwrite mid-file, then re-read the same range: the write must
    // invalidate any readahead that already cached the old bytes.
    api.set_file_pointer(h, 4, SeekMethod::Begin).expect("seek");
    assert_eq!(api.write_file(h, b"WXYZ").expect("w3"), 4);
    api.set_file_pointer(h, 2, SeekMethod::Begin).expect("seek");
    let mut mid = [0u8; 8];
    let n = api.read_file(h, &mut mid).expect("mid read");
    note("mid", &mid[..n]);

    // Scatter read — rides the ring as one sync span.
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    let mut a = [0u8; 3];
    let mut b = [0u8; 5];
    let n = api
        .read_file_scatter(h, &mut [&mut a[..], &mut b[..]])
        .expect("scatter");
    note("scat-n", &(n as u64).to_le_bytes());
    note("scat-a", &a);
    note("scat-b", &b);

    // The null logic refuses control: the refusal must surface
    // identically through the ring's sync path.
    note(
        "ctl",
        format!("{:?}", api.device_io_control(h, 9, b"p")).as_bytes(),
    );

    // Short read at the tail, then a read at EOF (zero bytes): the
    // speculative reads these trigger must be dropped silently.
    api.set_file_pointer(h, -2, SeekMethod::End).expect("seek");
    let mut tail = [0u8; 6];
    let n = api.read_file(h, &mut tail).expect("tail read");
    note("tail", &tail[..n]);
    let n = api.read_file(h, &mut tail).expect("eof read");
    note("eof", &(n as u64).to_le_bytes());

    api.close_handle(h).expect("close");

    // Final content via a fresh open — close must have flushed every
    // staged write.
    let h = api
        .create_file("/b.af", Access::read_only(), Disposition::OpenExisting)
        .expect("reopen");
    let mut final_buf = [0u8; 64];
    let n = api.read_file(h, &mut final_buf).expect("final read");
    note("final", &final_buf[..n]);
    api.close_handle(h).expect("close");
    log
}

#[test]
fn batched_transcripts_match_unbatched_across_all_strategies() {
    for strategy in Strategy::ALL {
        for backing in [Backing::Memory, Backing::Disk] {
            let plain = transcript(strategy, backing, true, None);
            for share in [true, false] {
                assert_eq!(
                    plain,
                    transcript(strategy, backing, share, None),
                    "{strategy:?}/{backing:?}: share={share} must be transcript-equivalent"
                );
                for depth in DEPTHS {
                    assert_eq!(
                        plain,
                        transcript(strategy, backing, share, Some(depth)),
                        "{strategy:?}/{backing:?}: share={share} batch=on \
                         ring_depth={depth} must be transcript-equivalent"
                    );
                }
            }
        }
    }
}

/// What the data part holds after a handle took three writes and was
/// abandoned — dropped at world teardown without `CloseHandle`.
fn abandoned_handle_content(strategy: Strategy, batch: Option<&str>) -> Vec<u8> {
    let world = build(strategy, Backing::Memory, false, batch);
    let api = world.api();
    let _clock = clock::install(0);
    let h = api
        .create_file("/b.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    for chunk in [b"0123", b"4567", b"89ab"] {
        assert_eq!(api.write_file(h, chunk).expect("write"), 4);
    }
    world.quiesce();
    world
        .vfs()
        .read_stream_to_end(&afs_vfs::VPath::parse("/b.af").expect("path"))
        .expect("data part")
}

/// Every `WriteFile` that returned is owed to the sentinel, `CloseHandle`
/// or not: a batched handle must not take its staged writes with it.
#[test]
fn an_abandoned_batched_handle_loses_no_acknowledged_write() {
    for strategy in [Strategy::ProcessControl, Strategy::DllThread] {
        let plain = abandoned_handle_content(strategy, None);
        assert_eq!(plain, b"0123456789ab", "{strategy:?}: unbatched");
        for depth in DEPTHS {
            assert_eq!(
                plain,
                abandoned_handle_content(strategy, Some(depth)),
                "{strategy:?}: batch=on ring_depth={depth} abandoned"
            );
        }
    }
}

/// The tentpole number, asserted at the strategy layer: sequential reads
/// over the ring cross protection domains about `ring_depth` times less
/// often than unbatched reads, for both boundary strategies.
#[test]
fn batched_sequential_reads_cut_crossings_by_about_ring_depth() {
    const DEPTH: usize = 8;
    const OPS: usize = 64;
    const BLOCK: usize = 32;
    for strategy in [Strategy::ProcessControl, Strategy::DllThread] {
        let crossings = |batch: bool| {
            let world = AfsWorld::builder()
                .profile(HardwareProfile::pentium_ii_300())
                .build();
            let mut spec = SentinelSpec::new("null", strategy).backing(Backing::Memory);
            if batch {
                spec = spec
                    .with("batch", "on")
                    .with("ring_depth", &DEPTH.to_string());
            }
            world.install_active_file("/x.af", &spec).expect("install");
            world
                .vfs()
                .write_stream_replace(
                    &afs_vfs::VPath::parse("/x.af").expect("p"),
                    &vec![0x5Au8; BLOCK * OPS],
                )
                .expect("seed");
            let _clock = clock::install(0);
            let api = world.api();
            let h = api
                .create_file("/x.af", Access::read_only(), Disposition::OpenExisting)
                .expect("open");
            let model = world.model().clone();
            let before = model.snapshot();
            let mut buf = [0u8; BLOCK];
            for _ in 0..OPS {
                assert_eq!(api.read_file(h, &mut buf).expect("read"), BLOCK);
            }
            let delta = model.snapshot().since(&before);
            api.close_handle(h).expect("close");
            delta.process_switches + delta.thread_switches
        };
        let unbatched = crossings(false);
        let batched = crossings(true);
        assert!(
            batched * (DEPTH as u64 * 3 / 4) <= unbatched,
            "{strategy:?}: {unbatched} unbatched vs {batched} batched crossings \
             is less than a {}x cut (ring depth {DEPTH})",
            DEPTH * 3 / 4
        );
    }
}

/// The ring gauges must see the traffic: fewer batches than ops
/// (coalescing worked), readahead hits on the sequential scan, and
/// completions for every submission that got one.
#[test]
fn ring_gauges_record_batches_and_readahead_hits() {
    const OPS: usize = 32;
    const BLOCK: usize = 16;
    let world = AfsWorld::new();
    world
        .install_active_file(
            "/g.af",
            &SentinelSpec::new("null", Strategy::DllThread)
                .backing(Backing::Memory)
                .with("batch", "on")
                .with("ring_depth", "4"),
        )
        .expect("install");
    world
        .vfs()
        .write_stream_replace(
            &afs_vfs::VPath::parse("/g.af").expect("p"),
            &vec![0xA5u8; BLOCK * OPS],
        )
        .expect("seed");
    let _clock = clock::install(0);
    let api = world.api();
    let h = api
        .create_file("/g.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; BLOCK];
    for _ in 0..OPS {
        assert_eq!(api.read_file(h, &mut buf).expect("read"), BLOCK);
    }
    api.close_handle(h).expect("close");
    let rg = world.telemetry().rings().snapshot();
    assert!(rg.batches > 0, "batches were submitted");
    assert!(
        rg.batches < rg.ops_submitted,
        "batching amortised: {} batches carried {} ops",
        rg.batches,
        rg.ops_submitted
    );
    assert!(rg.readahead_hits > 0, "sequential scan hit the readahead");
    assert!(rg.completions > 0, "completions were posted");
    assert!(rg.occupancy_peak >= 2, "the ring filled past one entry");
}

#[test]
fn a_zero_ring_depth_is_rejected_at_open() {
    let world = AfsWorld::new();
    world
        .install_active_file(
            "/z.af",
            &SentinelSpec::new("null", Strategy::DllThread)
                .backing(Backing::Memory)
                .with("batch", "on")
                .with("ring_depth", "0"),
        )
        .expect("install");
    assert_eq!(
        world
            .api()
            .create_file("/z.af", Access::read_only(), Disposition::OpenExisting),
        Err(Win32Error::InvalidParameter),
        "a zero-slot ring cannot carry a submission"
    );
}

#[test]
fn garbage_batch_and_ring_depth_values_are_rejected_at_open() {
    for (key, value) in [
        ("batch", "maybe"),
        ("ring_depth", "-3"),
        ("ring_depth", "eight"),
    ] {
        let world = AfsWorld::new();
        let mut spec = SentinelSpec::new("null", Strategy::DllThread).backing(Backing::Memory);
        if key == "ring_depth" {
            spec = spec.with("batch", "on");
        }
        spec = spec.with(key, value);
        world.install_active_file("/v.af", &spec).expect("install");
        assert_eq!(
            world
                .api()
                .create_file("/v.af", Access::read_only(), Disposition::OpenExisting),
            Err(Win32Error::InvalidParameter),
            "{key}={value} must fail the open"
        );
    }
}

#[test]
fn a_ring_depth_without_batch_is_rejected_at_open() {
    let world = AfsWorld::new();
    world
        .install_active_file(
            "/d.af",
            &SentinelSpec::new("null", Strategy::DllThread)
                .backing(Backing::Memory)
                .with("ring_depth", "8"),
        )
        .expect("install");
    assert_eq!(
        world
            .api()
            .create_file("/d.af", Access::read_only(), Disposition::OpenExisting),
        Err(Win32Error::InvalidParameter),
        "ring_depth only means something with batch=on"
    );
}

#[test]
fn batch_on_defaults_the_ring_depth_and_batch_off_is_plain() {
    // `batch=on` alone (in any spelling of the one boolean grammar) opens
    // with the default depth; `batch=off` (and no keys at all) opens
    // unbatched. All must just work.
    for extra in [
        Some(("batch", "on")),
        Some(("batch", "1")),
        Some(("batch", "off")),
        None,
    ] {
        let world = AfsWorld::new();
        let mut spec = SentinelSpec::new("null", Strategy::DllThread).backing(Backing::Memory);
        if let Some((k, v)) = extra {
            spec = spec.with(k, v);
        }
        world.install_active_file("/ok.af", &spec).expect("install");
        let api = world.api();
        let _clock = clock::install(0);
        let h = api
            .create_file("/ok.af", Access::read_write(), Disposition::OpenExisting)
            .expect("open {extra:?}");
        assert_eq!(api.write_file(h, b"ping").expect("write"), 4);
        api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
        let mut buf = [0u8; 4];
        assert_eq!(api.read_file(h, &mut buf).expect("read"), 4);
        assert_eq!(&buf, b"ping");
        api.close_handle(h).expect("close");
    }
}
