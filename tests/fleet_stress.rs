//! Seeded fleet stress for the sentinel executor.
//!
//! A bounded two-worker pool multiplexes a dozen executor-routed
//! sentinels (§4.2 process-plus-control and §4.3 DLL-with-thread) while
//! eight application threads hammer them with a deliberately *skewed*
//! load — most operations target one hot file. The suite asserts the
//! properties the executor refactor must preserve:
//!
//! 1. **No sentinel starves** — every file is served by every thread and
//!    each operation's virtual-time latency stays bounded, however hot
//!    the popular sentinel gets. (Virtual time only advances by charged
//!    costs, so a scheduler that spun, double-charged, or wedged a shard
//!    would blow the bound or hang the run.)
//! 2. **The pool stays bounded** — the live-worker gauge never exceeds
//!    the configured cap, no matter how many sentinels are registered.
//! 3. **Teardown is deterministic** — after the threads finish,
//!    [`AfsWorld::quiesce`] drains every sentinel cleanly: zero live
//!    tasks, zero workers, zero abandoned state machines.
//! 4. **Composition cannot starve the pool** — a sentinel that waits on a
//!    sentinel it opened completes even when it holds the pool's only
//!    worker.
//!
//! The seed honours `AFS_TEST_SEED`, so the CI seed sweep exercises
//! eight different skew schedules.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use activefiles::prelude::*;
use activefiles::{clock, Handle, HardwareProfile, SentinelCtx, SentinelError, SentinelResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WORKERS: usize = 2;
const FILES: usize = 12;
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 40;
/// A shared sentinel serialises its sessions' virtual work, so a single
/// op on the hot file can legitimately queue behind every other thread:
/// the worst case is all 320 ops landing on one sentinel at roughly a
/// hundred virtual microseconds each (§4.2 round trips), ~32 ms. Beyond
/// that, the executor charged costs it never should have — spinning,
/// double-charging, or wedging a shard.
const MAX_OP_LATENCY_NS: u64 = (THREADS * OPS_PER_THREAD) as u64 * 100_000;

fn fleet_path(idx: usize) -> String {
    format!("/fleet/f{idx}.af")
}

/// Builds a costed world with a bounded pool and `FILES` executor-routed
/// active files, alternating the two strategies that run on the pool.
fn build_fleet_world() -> Arc<AfsWorld> {
    let world = Arc::new(
        AfsWorld::builder()
            .profile(HardwareProfile::pentium_ii_300())
            .fleet_workers(WORKERS)
            .build(),
    );
    activefiles::register_standard_sentinels(&world);
    for idx in 0..FILES {
        let strategy = if idx % 2 == 0 {
            Strategy::DllThread
        } else {
            Strategy::ProcessControl
        };
        world
            .install_active_file(
                &fleet_path(idx),
                &SentinelSpec::new("null", strategy).backing(Backing::Memory),
            )
            .expect("install");
    }
    world
}

/// One thread's report: how many ops it issued per file and the worst
/// virtual-time latency it observed on any single operation.
struct ThreadReport {
    per_file: [u64; FILES],
    max_latency_ns: u64,
}

fn stress_one_thread(api: afs_interpose::ApiHandle, thread_idx: usize, seed: u64) -> ThreadReport {
    let _clock = clock::install(0);
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(1000).wrapping_add(thread_idx as u64));
    let handles: Vec<_> = (0..FILES)
        .map(|idx| {
            api.create_file(
                &fleet_path(idx),
                Access::read_write(),
                Disposition::OpenExisting,
            )
            .expect("open")
        })
        .collect();
    let mut report = ThreadReport {
        per_file: [0; FILES],
        max_latency_ns: 0,
    };
    for op in 0..OPS_PER_THREAD {
        // The first sweep touches every file once so no sentinel can dodge
        // the starvation check; after that ~70% of the load piles onto
        // file 0 while the rest spreads uniformly.
        let target = if op < FILES {
            op
        } else if rng.gen_range(0..10) < 7 {
            0
        } else {
            rng.gen_range(0..FILES)
        };
        let started = clock::now();
        if rng.gen_bool(0.5) {
            let data = vec![thread_idx as u8; 1 + rng.gen_range(0..32) as usize];
            assert_eq!(
                api.write_file(handles[target], &data).expect("write"),
                data.len()
            );
        } else {
            let mut buf = [0u8; 24];
            api.read_file(handles[target], &mut buf).expect("read");
        }
        let latency = clock::now() - started;
        report.max_latency_ns = report.max_latency_ns.max(latency);
        report.per_file[target] += 1;
    }
    for h in handles {
        api.close_handle(h).expect("close");
    }
    report
}

#[test]
fn skewed_fleet_load_starves_no_sentinel_and_quiesces() {
    let world = build_fleet_world();
    let seed = afs_sim::test_seed(42);
    let fleet = Arc::clone(world.telemetry().fleet());

    let joins: Vec<_> = (0..THREADS)
        .map(|idx| {
            let api = world.api();
            std::thread::spawn(move || stress_one_thread(api, idx, seed))
        })
        .collect();
    let reports: Vec<ThreadReport> = joins
        .into_iter()
        .map(|j| j.join().expect("stress thread"))
        .collect();

    // No sentinel starves: every thread reached every file, and no single
    // operation's virtual latency blew the bound.
    for (idx, report) in reports.iter().enumerate() {
        for file in 0..FILES {
            assert!(
                report.per_file[file] > 0,
                "thread {idx} never got service from {}",
                fleet_path(file)
            );
        }
        assert!(
            report.max_latency_ns <= MAX_OP_LATENCY_NS,
            "thread {idx} saw a {} ns op (bound {MAX_OP_LATENCY_NS} ns)",
            report.max_latency_ns
        );
    }

    // The pool stayed bounded while every sentinel was live at once.
    let mid = fleet.snapshot();
    assert!(
        mid.workers <= WORKERS as u64,
        "pool grew past its cap: {} > {WORKERS}",
        mid.workers
    );
    assert!(
        mid.sentinels_peak >= FILES as u64,
        "all {FILES} sentinels should have been live together (peak {})",
        mid.sentinels_peak
    );
    assert!(mid.wakeups > 0, "readiness wakeups drove the scheduling");

    // Deterministic teardown: every handle was closed above, so quiescing
    // retires every state machine cleanly and stops the pool.
    world.quiesce();
    assert_eq!(world.fleet_task_count(), 0, "no live tasks after quiesce");
    let end = fleet.snapshot();
    assert_eq!(end.sentinels, 0, "no live sentinels after quiesce");
    assert_eq!(end.workers, 0, "workers joined at shutdown");
    assert_eq!(end.abandoned, 0, "clean closes never abandon a sentinel");
}

/// Regression test for the join-handle leak: the old thread-per-sentinel
/// wiring parked one OS thread per open and leaked its join handle when a
/// strategy handle was dropped early. Opening a thousand thread-strategy
/// files must leave the pool at its configured size, and dropping them —
/// half through explicit closes, half abandoned to world teardown — must
/// leave zero residual live sentinels.
#[test]
fn thousand_thread_strategy_opens_leave_no_residual_sentinels() {
    const OPENS: usize = 1000;
    let world = build_fleet_world();
    let fleet = Arc::clone(world.telemetry().fleet());
    let api = world.api();
    let _clock = clock::install(0);

    let handles: Vec<_> = (0..OPENS)
        .map(|idx| {
            let path = format!("/fleet/leak{idx}.af");
            world
                .install_active_file(
                    &path,
                    &SentinelSpec::new("null", Strategy::DllThread).backing(Backing::Memory),
                )
                .expect("install");
            api.create_file(&path, Access::read_write(), Disposition::OpenExisting)
                .expect("open")
        })
        .collect();

    let mid = fleet.snapshot();
    assert!(
        mid.sentinels_peak >= OPENS as u64,
        "each open registered a sentinel (peak {})",
        mid.sentinels_peak
    );
    assert!(
        mid.workers <= WORKERS as u64,
        "a thousand sentinels still run on {WORKERS} workers (got {})",
        mid.workers
    );

    // Close half the handles the polite way; the other half are dropped
    // "early" — still open when the world tears down.
    for (idx, h) in handles.into_iter().enumerate() {
        if idx % 2 == 0 {
            api.close_handle(h).expect("close");
        }
    }

    world.quiesce();
    assert_eq!(world.fleet_task_count(), 0, "no residual live sentinels");
    let end = fleet.snapshot();
    assert_eq!(end.sentinels, 0, "live gauge agrees");
    assert_eq!(end.workers, 0, "no residual worker threads");
    assert!(
        end.spawned >= OPENS as u64,
        "every open went through the executor"
    );
    assert_eq!(
        end.abandoned, 0,
        "draining the handle table closes sentinels cleanly, not by abandonment"
    );
}

/// The builder knob is honoured and survives into the running world.
#[test]
fn fleet_workers_knob_is_honoured() {
    let world = AfsWorld::builder().fleet_workers(3).build();
    assert_eq!(world.fleet_workers(), 3);
}

/// Passes each write through `/inner.af` before accepting it: one op that
/// posts to the sentinel it composed over, then waits on its answer.
/// Records which thread served each write.
struct EchoThrough {
    inner: Option<Handle>,
    served_on: Arc<Mutex<Vec<String>>>,
}

fn failed(e: Win32Error) -> SentinelError {
    SentinelError::Other(e.to_string())
}

impl SentinelLogic for EchoThrough {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let api = ctx.api()?;
        let h = api.create_file("/inner.af", Access::read_write(), Disposition::OpenExisting);
        self.inner = Some(h.map_err(failed)?);
        Ok(())
    }

    fn read(&mut self, _: &mut SentinelCtx, _: u64, _: &mut [u8]) -> SentinelResult<usize> {
        Ok(0)
    }

    fn write(&mut self, ctx: &mut SentinelCtx, _: u64, data: &[u8]) -> SentinelResult<usize> {
        let thread = std::thread::current().name().unwrap_or("").to_owned();
        self.served_on.lock().expect("log").push(thread);
        let (api, h) = (ctx.api()?, self.inner.ok_or(SentinelError::NoCache)?);
        api.set_file_pointer(h, 0, SeekMethod::Begin)
            .map_err(failed)?;
        // Posted: wakes the inner sentinel without waiting for it.
        api.write_file(h, data).map_err(failed)?;
        api.set_file_pointer(h, 0, SeekMethod::Begin)
            .map_err(failed)?;
        // Awaited: this thread blocks until the inner sentinel answers.
        let mut back = vec![0u8; data.len()];
        let n = api.read_file(h, &mut back).map_err(failed)?;
        if back[..n] != *data {
            return Err(SentinelError::Other("the inner file lost the write".into()));
        }
        Ok(data.len())
    }

    fn on_close(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        match self.inner.take() {
            Some(h) => ctx.api()?.close_handle(h).map_err(failed),
            None => Ok(()),
        }
    }
}

/// §3 composition on a one-worker pool: the outer sentinel's write is
/// served by the pool's only worker, and blocks it on a call to the inner
/// sentinel, which the write has just queued. Pinned to a thread of its
/// own, the inner sentinel answers; on the pool it would wait for the
/// worker that waits on it, and the close below would hang.
#[test]
fn composition_on_a_one_worker_pool_completes() {
    const RUNS: usize = 20;
    for run in 0..RUNS {
        let world = Arc::new(AfsWorld::builder().fleet_workers(1).build());
        register_standard_sentinels(&world);
        let served_on = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&served_on);
        world.sentinels().register("echo-through", move |_| {
            Box::new(EchoThrough {
                inner: None,
                served_on: Arc::clone(&log),
            })
        });
        for (path, name) in [("/inner.af", "null"), ("/outer.af", "echo-through")] {
            let spec = SentinelSpec::new(name, Strategy::DllThread)
                .backing(Backing::Memory)
                .with("share", "off");
            world.install_active_file(path, &spec).expect("install");
        }
        let (done, result) = mpsc::channel();
        // The application thread holds a reference to the world, so a hang
        // fails this test instead of wedging its teardown.
        let app = Arc::clone(&world);
        std::thread::spawn(move || {
            let api = app.api();
            let outcome = api
                .create_file("/outer.af", Access::read_write(), Disposition::OpenExisting)
                .and_then(|h| {
                    api.write_file(h, b"composed")?;
                    // A failed write-behind surfaces here.
                    api.close_handle(h)
                });
            let _ = done.send(outcome);
        });
        let outcome = result
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("run {run}: the composed write hung"));
        assert_eq!(outcome, Ok(()), "run {run}");
        assert_eq!(
            *served_on.lock().expect("log"),
            ["afs-fleet-0"],
            "run {run}: the pool's only worker served the outer write"
        );
        assert_eq!(world.telemetry().fleet().snapshot().pinned, 1, "run {run}");
    }
}
