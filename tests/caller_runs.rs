//! The caller runs the sentinel it waits on.
//!
//! An application thread that sends a command and blocks on its reply may
//! poll an idle sentinel itself instead of waking a worker and sleeping
//! until the worker is done — but only when nothing the sentinel sends
//! while serving the command can wait on the caller's own drain. A §4.2
//! data pipe holds 16 KiB: a 64 KiB reply over it must be drained while
//! it is written, so a caller that ran such a sentinel would wait on
//! itself for ever. These tests pin the rule from the application's side:
//!
//! - a 64 KiB `read_file` from an idle sentinel returns, on every carrier
//!   (it hangs, and fails here by timeout, if the fit check is dropped);
//! - on a private §4.3 file a run of reads wakes no worker and parks none,
//!   and costs one sentinel poll per read;
//! - a read that follows posted writes returns them, whichever thread
//!   ends up serving it — on a shared carrier, through another session
//!   than the writes';
//! - on a shared pair the read carries the flush it forces: the staged
//!   writes ring nothing of their own, so the reader serves them and the
//!   read with no worker woken — unless a staged payload would wait for
//!   the sentinel's drain (more than a 16 KiB pipe holds, or a second
//!   message for the one-slot §4.3 buffer), which is rung for first (the
//!   reads hang, and fail here by timeout, if that fit check is dropped).
//!
//! The world's seed is irrelevant here, but the suite runs in the CI seed
//! sweep beside the other concurrency suites.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use activefiles::prelude::*;
use activefiles::{Handle, SeekMethod, VPath};

/// One reply bigger than the §4.2 data pipe.
const BIG: usize = 64 * 1024;

/// The carriers a command can take: both out-of-line strategies, private
/// and shared, over the pair lane and over the batched ring, and how many
/// sessions each test opens on it.
fn carriers() -> Vec<(&'static str, SentinelSpec, usize)> {
    let spec = |strategy| SentinelSpec::new("null", strategy).backing(Backing::Memory);
    let mut all = Vec::new();
    for (name, strategy) in [
        ("process-control", Strategy::ProcessControl),
        ("dll-thread", Strategy::DllThread),
    ] {
        all.push((name, spec(strategy).with("share", "off"), 1));
        all.push((name, spec(strategy).with("share", "on"), 1));
        all.push((name, spec(strategy).with("share", "on"), 2));
        let batched = spec(strategy).with("batch", "on");
        all.push((name, batched.clone().with("share", "off"), 1));
        all.push((name, batched, 2));
    }
    all
}

/// Opens `sessions` handles on `/c.af`.
fn open(world: &AfsWorld, sessions: usize) -> Vec<Handle> {
    let api = world.api();
    let open = || api.create_file("/c.af", Access::read_write(), Disposition::OpenExisting);
    (0..sessions).map(|_| open().expect("open")).collect()
}

/// A one-worker world holding `/c.af` under `spec`, seeded with `BIG`
/// bytes of a known pattern.
fn world_with(spec: &SentinelSpec) -> Arc<AfsWorld> {
    let world = Arc::new(AfsWorld::builder().fleet_workers(1).build());
    activefiles::register_standard_sentinels(&world);
    world.install_active_file("/c.af", spec).expect("install");
    world
        .vfs()
        .write_stream_replace(&VPath::parse("/c.af").expect("path"), &pattern(BIG))
        .expect("seed");
    world
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Spins until `cond` holds; fails after 10 s instead of hanging.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "never: {what}");
        std::thread::yield_now();
    }
}

/// Waits until the world's one worker has run the sentinel's first poll
/// and gone back to sleep, leaving the sentinel idle.
fn settle(world: &AfsWorld) {
    let fleet = world.telemetry().fleet();
    eventually("the sentinel's first poll", || fleet.snapshot().polls >= 1);
    eventually("an empty run queue", || {
        world.fleet_shards().iter().all(|s| s.queued == 0)
    });
    std::thread::sleep(Duration::from_millis(50));
}

#[test]
fn a_reply_bigger_than_the_pipe_comes_back_from_an_idle_sentinel() {
    for (name, spec, sessions) in carriers() {
        let world = world_with(&spec);
        let api = world.api();
        let handles = open(&world, sessions);
        let h = handles[sessions - 1];
        settle(&world);
        let (done, result) = mpsc::channel();
        // The reader holds a reference to the world, so a hang fails
        // this test instead of wedging its teardown.
        let reader = Arc::clone(&world);
        std::thread::spawn(move || {
            let mut buf = vec![0u8; BIG];
            let read = reader.api().read_file(h, &mut buf);
            let _ = done.send(read.map(|n| (n, buf[..n] == pattern(BIG)[..n])));
        });
        let got = result
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{name} {spec:?}: a {BIG}-byte read hung"));
        assert_eq!(got, Ok((BIG, true)), "{name} {spec:?}");
        for h in handles {
            api.close_handle(h).expect("close");
        }
    }
}

#[test]
fn reads_on_a_private_thread_file_wake_no_worker() {
    const READS: u64 = 200;
    let world = world_with(
        &SentinelSpec::new("null", Strategy::DllThread)
            .backing(Backing::Memory)
            .with("share", "off"),
    );
    let api = world.api();
    let h = api
        .create_file("/c.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    settle(&world);
    let fleet = world.telemetry().fleet();
    let before = fleet.snapshot();
    let mut buf = [0u8; 128];
    for _ in 0..READS {
        assert_eq!(api.read_file(h, &mut buf), Ok(buf.len()));
    }
    let after = fleet.snapshot();
    assert_eq!(after.wakeups, before.wakeups, "no worker was woken");
    assert_eq!(after.parks, before.parks, "no worker went back to sleep");
    assert_eq!(after.polls - before.polls, READS, "one poll per read");
    api.close_handle(h).expect("close");
}

#[test]
fn a_read_after_posted_writes_returns_them() {
    for (name, spec, sessions) in carriers() {
        let world = world_with(&spec);
        let api = world.api();
        let handles = open(&world, sessions);
        let (writer, reader) = (handles[0], handles[sessions - 1]);
        settle(&world);
        for round in 0..50u8 {
            let at = u64::from(round) * 64;
            api.set_file_pointer(writer, at as i64, SeekMethod::Begin)
                .expect("seek");
            let data = [round; 48];
            for chunk in data.chunks(16) {
                assert_eq!(api.write_file(writer, chunk), Ok(chunk.len()), "{name}");
            }
            api.set_file_pointer(reader, at as i64, SeekMethod::Begin)
                .expect("seek back");
            let mut back = [0u8; 64];
            assert_eq!(api.read_file(reader, &mut back), Ok(64), "{name} {spec:?}");
            assert_eq!(back[..48], data, "{name} {spec:?}: round {round}");
            assert_eq!(back[48..], pattern(BIG)[at as usize + 48..][..16], "{name}");
        }
        for h in handles {
            api.close_handle(h).expect("close");
        }
    }
}

#[test]
fn a_read_after_staged_writes_on_a_shared_pair_wakes_no_worker() {
    const ROUNDS: u8 = 50;
    for strategy in [Strategy::ProcessControl, Strategy::DllThread] {
        let spec = SentinelSpec::new("null", strategy)
            .backing(Backing::Memory)
            .with("share", "on");
        let world = world_with(&spec);
        let api = world.api();
        let handles = open(&world, 2);
        let (writer, reader) = (handles[0], handles[1]);
        settle(&world);
        let fleet = world.telemetry().fleet();
        let before = fleet.snapshot();
        for round in 0..ROUNDS {
            let at = i64::from(round) * 64;
            api.set_file_pointer(writer, at, SeekMethod::Begin)
                .expect("seek");
            for _ in 0..3 {
                assert_eq!(api.write_file(writer, &[round; 16]), Ok(16));
            }
            api.set_file_pointer(reader, at, SeekMethod::Begin)
                .expect("seek back");
            let mut back = [0u8; 64];
            assert_eq!(api.read_file(reader, &mut back), Ok(64), "{strategy:?}");
            assert_eq!(back[..48], [round; 48], "{strategy:?}: round {round}");
        }
        let after = fleet.snapshot();
        assert_eq!(
            after.wakeups, before.wakeups,
            "{strategy:?}: no worker was woken"
        );
        assert_eq!(
            after.parks, before.parks,
            "{strategy:?}: no worker slept again"
        );
        assert_eq!(
            after.polls - before.polls,
            u64::from(ROUNDS),
            "{strategy:?}: one poll per read-back"
        );
        for h in handles {
            api.close_handle(h).expect("close");
        }
    }
}

#[test]
fn staged_writes_that_outgrow_the_lane_still_flush() {
    // (strategy, sessions, bytes each writer stages): one 20 KiB entry
    // over a 16 KiB pipe; two entries for the one-slot shared buffer.
    let cases = [
        (Strategy::ProcessControl, 2, 20 * 1024),
        (Strategy::DllThread, 3, 1024),
    ];
    for (strategy, sessions, staged) in cases {
        let spec = SentinelSpec::new("null", strategy)
            .backing(Backing::Memory)
            .with("share", "on");
        let world = world_with(&spec);
        let handles = open(&world, sessions);
        settle(&world);
        let (done, result) = mpsc::channel();
        // The thread holds a reference to the world, so a hang fails this
        // test instead of wedging its teardown.
        let worker = Arc::clone(&world);
        std::thread::spawn(move || {
            let api = worker.api();
            let (writers, reader) = handles.split_at(sessions - 1);
            let mut expect = pattern(BIG);
            for (i, &writer) in writers.iter().enumerate() {
                let at = i * staged;
                let data: Vec<u8> = (0..staged).map(|b| (b % 7 + i * 16) as u8).collect();
                api.set_file_pointer(writer, at as i64, SeekMethod::Begin)
                    .expect("seek");
                for chunk in data.chunks(1024) {
                    assert_eq!(api.write_file(writer, chunk), Ok(chunk.len()));
                }
                expect[at..at + staged].copy_from_slice(&data);
            }
            // Read back in 4 KiB pieces: the first read flushes every
            // staged entry.
            let written = &expect[..writers.len() * staged];
            api.set_file_pointer(reader[0], 0, SeekMethod::Begin)
                .expect("seek back");
            for want in written.chunks(4096) {
                let mut back = vec![0u8; want.len()];
                let read = api.read_file(reader[0], &mut back);
                let _ = done.send(read.map(|n| n == want.len() && back == want));
            }
            for h in handles {
                api.close_handle(h).expect("close");
            }
        });
        for i in 0..((sessions - 1) * staged).div_ceil(4096) {
            let got = result
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{strategy:?}: read {i} after the flush hung"));
            assert_eq!(got, Ok(true), "{strategy:?}: read {i}");
        }
    }
}
