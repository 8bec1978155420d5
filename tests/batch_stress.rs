//! Seeded stress for the submission/completion-ring transport.
//!
//! Eight threads each drive their own `batch=on` active file — private
//! ring, private sentinel — with a seeded mix of reads, writes, seeks,
//! and size queries, at per-thread ring depths drawn from the seed. The
//! same scripts are then replayed serially over the plain (unbatched)
//! transport, and every thread's transcript must match byte for byte:
//! whatever interleaving the executor picked for the concurrent rings,
//! batching must never change what an application observes.
//!
//! A shared leg runs two handles per file, each on its own half, as two
//! sessions on the file's one ring: every read must return that
//! session's own last writes, and the final contents and transcripts must
//! equal a serial unbatched replay.
//!
//! After the runs, teardown must be clean — no live sentinels — so a
//! ring that wedged its drain loop or leaked a completion fails here.
//!
//! The seed honours `AFS_TEST_SEED`, so the CI seed sweep exercises
//! eight different schedules and ring-depth mixes.

use std::sync::{Arc, Barrier};

use activefiles::prelude::*;
use activefiles::{clock, FileClient, FileServer, Service, VPath};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 60;
const EXTENT: usize = 1024;

fn test_seed() -> u64 {
    std::env::var("AFS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn stress_path(idx: usize) -> String {
    format!("/batch/{idx}.af")
}

/// Builds a world with one active file per thread, seeded extents, and
/// the given batching configuration.
fn build_world(strategy: Strategy, depths: Option<&[usize]>) -> Arc<AfsWorld> {
    let world = Arc::new(AfsWorld::new());
    activefiles::register_standard_sentinels(&world);
    for idx in 0..THREADS {
        let mut spec = SentinelSpec::new("null", strategy).backing(Backing::Memory);
        if let Some(depths) = depths {
            spec = spec
                .with("batch", "on")
                .with("ring_depth", &depths[idx].to_string());
        }
        world
            .install_active_file(&stress_path(idx), &spec)
            .expect("install");
        world
            .vfs()
            .write_stream_replace(
                &VPath::parse(&stress_path(idx)).expect("path"),
                &vec![idx as u8; EXTENT],
            )
            .expect("seed extent");
    }
    world
}

/// Runs one thread's seeded script against its file and returns the
/// transcript: every op's result and every byte read.
fn run_script(world: &AfsWorld, idx: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9));
    let api = world.api();
    let _clock = clock::install(0);
    let path = stress_path(idx);
    let h = api
        .create_file(&path, Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    let mut log: Vec<Vec<u8>> = Vec::new();
    for _ in 0..OPS_PER_THREAD {
        match rng.gen_range(0..10u32) {
            // Mostly reads: the sequential runs between seeks are what
            // the readahead speculates over.
            0..=5 => {
                let len = rng.gen_range(1..=96usize);
                let mut buf = vec![0u8; len];
                let n = api.read_file(h, &mut buf).expect("read");
                buf.truncate(n);
                buf.insert(0, b'r');
                log.push(buf);
            }
            6..=7 => {
                let len = rng.gen_range(1..=48usize);
                let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255) as u8).collect();
                let n = api.write_file(h, &data).expect("write");
                log.push(vec![b'w', n as u8]);
            }
            8 => {
                let off = rng.gen_range(0..(2 * EXTENT) as i64);
                let pos = api
                    .set_file_pointer(h, off, SeekMethod::Begin)
                    .expect("seek");
                log.push(pos.to_le_bytes().to_vec());
            }
            _ => {
                let size = api.get_file_size(h).expect("size");
                log.push(size.to_le_bytes().to_vec());
            }
        }
    }
    api.close_handle(h).expect("close");
    log
}

/// Regression test: a queued-write replay on heal must retire the
/// batched ring's speculative-cache epoch.
///
/// While a partition is up, degraded mode serves speculative readahead
/// from the last-good cache — those completions describe the pre-replay
/// file. If the remote changes while the partition is up and the heal
/// then replays the queued writes, a driver that kept its old epoch
/// would serve the stale speculation to the first post-heal read. The
/// ring drains submissions in order, so waiting on any synchronous op
/// proves every earlier speculative read has produced its (stale)
/// completion — no wall-clock races.
#[test]
fn post_heal_reads_never_observe_pre_replay_speculation() {
    const HALF: usize = 64;
    let _clock = clock::install(0);
    let world = AfsWorld::new();
    activefiles::register_standard_sentinels(&world);
    let server = FileServer::new();
    let v1: Vec<u8> = [vec![b'A'; HALF], vec![b'B'; HALF]].concat();
    server.seed("/blob", &v1);
    world
        .net()
        .register("files", Arc::clone(&server) as Arc<dyn Service>);
    let spec = SentinelSpec::new("mirror", Strategy::DllThread)
        .backing(Backing::Memory)
        .with("service", "files")
        .with("remote", "/blob")
        .with("degraded", "true")
        .with("batch", "on")
        .with("ring_depth", "3");
    world.install_active_file("/m.af", &spec).expect("install");

    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; HALF];

    // Warm both halves (reads refresh the last-good cache as they go).
    assert_eq!(api.read_file(h, &mut buf).expect("warm front"), HALF);
    assert_eq!(&buf[..], &v1[..HALF]);
    assert_eq!(api.read_file(h, &mut buf).expect("warm back"), HALF);
    assert_eq!(&buf[..], &v1[HALF..]);

    // Partition, then write: the write is accepted locally and queued
    // for replay. The demand read it flushes with drags a speculative
    // read of the back half into the same batch — served stale from
    // the last-good cache because the remote is down.
    let plan = world.net().plan("files").expect("plan");
    plan.set_partitioned(true);
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    api.write_file(h, b"EDIT").expect("queued while down");
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    api.read_file(h, &mut buf).expect("degraded demand read");
    assert_eq!(&buf[..4], b"EDIT", "local view reflects the queued write");
    // A synchronous op (GetSize stages no speculation of its own)
    // completes only after the in-order drain has served the
    // speculative read above, so its stale completion has landed.
    api.get_file_size(h).expect("degraded size");
    assert!(world.net().reliability().queued_writes >= 1);

    // The remote's back half changes while the partition is still up,
    // then the network heals and the next op replays the queue.
    let v2: Vec<u8> = [vec![b'A'; HALF], vec![b'C'; HALF]].concat();
    server.seed("/blob", &v2);
    plan.set_partitioned(false);
    api.get_file_size(h)
        .expect("post-heal op replays the queue");
    assert!(world.net().reliability().replayed_writes >= 1);

    // The first post-heal read of the back half must come from the
    // healed remote, not from the pre-replay speculative completion.
    api.set_file_pointer(h, HALF as i64, SeekMethod::Begin)
        .expect("seek");
    assert_eq!(api.read_file(h, &mut buf).expect("post-heal read"), HALF);
    assert_eq!(
        &buf[..],
        &v2[HALF..],
        "replay must retire the ring's speculative epoch"
    );
    api.close_handle(h).expect("close");
    // And the replayed write reached the remote.
    let check = FileClient::new(world.net().endpoint(["files"]));
    assert_eq!(check.get("/blob", 0, 4).expect("remote read"), b"EDIT");
}

#[test]
fn concurrent_batched_rings_match_serial_unbatched_replay() {
    let seed = test_seed();
    for strategy in [Strategy::ProcessControl, Strategy::DllThread] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let depths: Vec<usize> = (0..THREADS).map(|_| rng.gen_range(1..=12)).collect();

        // Concurrent batched run: every thread on its own ring.
        let world = build_world(strategy, Some(&depths));
        let mut joins = Vec::new();
        for idx in 0..THREADS {
            let world = Arc::clone(&world);
            joins.push(std::thread::spawn(move || run_script(&world, idx, seed)));
        }
        let batched: Vec<Vec<Vec<u8>>> = joins
            .into_iter()
            .map(|j| j.join().expect("stress thread"))
            .collect();
        assert_eq!(
            world.open_sentinel_count(),
            0,
            "{strategy:?}: every ring drained and every sentinel reaped"
        );

        // Serial unbatched replay of the identical scripts.
        let world = build_world(strategy, None);
        for (idx, batched_log) in batched.iter().enumerate() {
            let plain = run_script(&world, idx, seed);
            assert_eq!(
                &plain, batched_log,
                "{strategy:?} seed {seed}: thread {idx} (ring_depth {}) diverged \
                 from the unbatched replay",
                depths[idx]
            );
        }
    }
}

/// Handles per file in the shared leg, each on its own region.
const SHARERS: usize = 2;

/// One session's seeded script over region `half` of file `file`: reads,
/// writes and seeks that stay inside the region, every read checked
/// against the session's own model of it. `opened` is waited on between
/// the open and the first op, so every session of a file is attached
/// before any of them runs.
fn run_region(
    world: &AfsWorld,
    file: usize,
    half: usize,
    seed: u64,
    opened: &Barrier,
) -> Vec<Vec<u8>> {
    let region = EXTENT / SHARERS;
    let base = (half * region) as i64;
    let salt = (file * SHARERS + half) as u64;
    let mut rng = SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9));
    let api = world.api();
    let _clock = clock::install(0);
    let h = api
        .create_file(
            &stress_path(file),
            Access::read_write(),
            Disposition::OpenExisting,
        )
        .expect("open");
    opened.wait();
    let mut model = vec![file as u8; region];
    let mut pos = region;
    let mut log: Vec<Vec<u8>> = Vec::new();
    for _ in 0..OPS_PER_THREAD {
        let op = rng.gen_range(0..10u32);
        if pos == region || op == 8 {
            pos = rng.gen_range(0..region);
            let at = api
                .set_file_pointer(h, base + pos as i64, SeekMethod::Begin)
                .expect("seek");
            log.push(at.to_le_bytes().to_vec());
            continue;
        }
        match op {
            0..=5 => {
                let mut buf = vec![0u8; rng.gen_range(1..=96usize).min(region - pos)];
                let n = api.read_file(h, &mut buf).expect("read");
                assert_eq!(
                    buf[..n],
                    model[pos..pos + n],
                    "file {file} half {half}: a read missed this session's own writes"
                );
                pos += n;
                buf.insert(0, b'r');
                log.push(buf);
            }
            6..=7 => {
                let len = rng.gen_range(1..=48usize).min(region - pos);
                let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255) as u8).collect();
                let n = api.write_file(h, &data).expect("write");
                model[pos..pos + n].copy_from_slice(&data[..n]);
                pos += n;
                log.push(vec![b'w', n as u8]);
            }
            _ => {
                let size = api.get_file_size(h).expect("size");
                log.push(size.to_le_bytes().to_vec());
            }
        }
    }
    api.close_handle(h).expect("close");
    log
}

/// Every file's data part, once its sessions have closed.
fn contents(world: &AfsWorld, files: usize) -> Vec<Vec<u8>> {
    (0..files)
        .map(|idx| {
            let path = VPath::parse(&stress_path(idx)).expect("path");
            world.vfs().read_stream_to_end(&path).expect("data part")
        })
        .collect()
}

#[test]
fn sessions_sharing_a_ring_match_serial_unbatched_replay() {
    let seed = test_seed();
    let files = THREADS / SHARERS;
    for strategy in [Strategy::ProcessControl, Strategy::DllThread] {
        let mut rng = SmallRng::seed_from_u64(seed.rotate_left(17));
        let depths: Vec<usize> = (0..THREADS).map(|_| rng.gen_range(1..=12)).collect();

        // Concurrent run: two threads per file, one ring per file.
        let world = build_world(strategy, Some(&depths));
        let mut joins = Vec::new();
        for file in 0..files {
            let opened = Arc::new(Barrier::new(SHARERS));
            for half in 0..SHARERS {
                let (world, opened) = (Arc::clone(&world), Arc::clone(&opened));
                joins.push(std::thread::spawn(move || {
                    run_region(&world, file, half, seed, &opened)
                }));
            }
        }
        let shared: Vec<Vec<Vec<u8>>> = joins
            .into_iter()
            .map(|j| j.join().expect("stress thread"))
            .collect();
        assert_eq!(world.open_sentinel_count(), 0, "{strategy:?}: teardown");
        let peak = world.telemetry().sessions().snapshot().sessions_peak;
        assert_eq!(
            peak, SHARERS as u64,
            "{strategy:?}: the sessions shared a ring"
        );
        let shared_contents = contents(&world, files);

        // Serial unbatched replay: one session at a time.
        let world = build_world(strategy, None);
        let alone = Barrier::new(1);
        for (at, log) in shared.iter().enumerate() {
            let (file, half) = (at / SHARERS, at % SHARERS);
            assert_eq!(
                &run_region(&world, file, half, seed, &alone),
                log,
                "{strategy:?} seed {seed}: file {file} (ring_depth {}) half {half} diverged \
                 from the unbatched replay",
                depths[file]
            );
        }
        assert_eq!(
            contents(&world, files),
            shared_contents,
            "{strategy:?} seed {seed}: final contents"
        );
    }
}
