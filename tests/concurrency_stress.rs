//! Seeded multi-handle concurrency stress across all four §4 strategies.
//!
//! Eight threads each open their own handle on one active file and issue
//! a seeded mix of reads, writes, seeks, and controls. The suite asserts
//! the three invariants the shared-sentinel session layer must preserve:
//!
//! 1. **Pointer integrity** — every handle's file pointer advances exactly
//!    by what that handle read/wrote/sought, regardless of what the other
//!    seven sessions are doing (checked with `seek(0, Current)` after
//!    every operation).
//! 2. **Trace-total exactness** — the world's [`OpTrace`] totals count
//!    every issued operation exactly once (no drops, no double counts),
//!    even when the multiplexer coalesces adjacent writes on the wire.
//! 3. **Span-tree validity** — with telemetry on, every recorded span's
//!    parent either is a recorded span or is 0 (a root); cross-thread
//!    parenting through the context each command's frame carries never
//!    fabricates ids.
//!
//! The seed honours `AFS_TEST_SEED`, so the CI seed sweep exercises eight
//! different interleaving schedules.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use activefiles::prelude::*;
use activefiles::{clock, OpKind, CTL_QUERY_STALE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 30;

fn build_world(strategy: Strategy) -> Arc<AfsWorld> {
    let world = Arc::new(AfsWorld::new());
    activefiles::register_standard_sentinels(&world);
    world
        .install_active_file(
            "/stress.af",
            &SentinelSpec::new("null", strategy).backing(Backing::Memory),
        )
        .expect("install");
    world
}

/// Issued-operation counts one thread reports back for the trace audit.
#[derive(Default, Clone, Copy)]
struct Issued {
    reads: u64,
    writes: u64,
    controls: u64,
    sizes: u64,
}

fn stress_one_thread(
    api: afs_interpose::ApiHandle,
    strategy: Strategy,
    thread_idx: usize,
    seed: u64,
) -> Issued {
    let _clock = clock::install(0);
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(1000).wrapping_add(thread_idx as u64));
    let h = api
        .create_file(
            "/stress.af",
            Access::read_write(),
            Disposition::OpenExisting,
        )
        .expect("open");
    let mut issued = Issued::default();
    if strategy == Strategy::Process {
        // §4.1 is streaming-only: no pointer, no seek, no control. The
        // stress here is concurrent sentinel lifecycles, not sessions
        // (the simple process strategy never shares).
        for _ in 0..OPS_PER_THREAD {
            let len = 1 + rng.gen_range(0..16) as usize;
            let data = vec![thread_idx as u8; len];
            assert_eq!(api.write_file(h, &data).expect("stream write"), len);
            issued.writes += 1;
        }
        api.close_handle(h).expect("close");
        return issued;
    }
    let mut expected_ptr: u64 = 0;
    for _ in 0..OPS_PER_THREAD {
        match rng.gen_range(0..5) {
            0 | 1 => {
                // Write at the session pointer.
                let len = 1 + rng.gen_range(0..32) as usize;
                let data = vec![thread_idx as u8; len];
                assert_eq!(api.write_file(h, &data).expect("write"), len);
                expected_ptr += len as u64;
                issued.writes += 1;
            }
            2 => {
                let mut buf = [0u8; 16];
                let n = api.read_file(h, &mut buf).expect("read");
                expected_ptr += n as u64;
                issued.reads += 1;
            }
            3 => {
                let target = rng.gen_range(0..256) as i64;
                assert_eq!(
                    api.set_file_pointer(h, target, SeekMethod::Begin)
                        .expect("seek"),
                    target as u64
                );
                expected_ptr = target as u64;
            }
            _ => {
                let stale = api
                    .device_io_control(h, CTL_QUERY_STALE, &[])
                    .expect("control");
                assert!(!stale.is_empty(), "stale query replies at least one byte");
                issued.controls += 1;
            }
        }
        // Pointer integrity: this session's pointer reflects exactly this
        // session's history, whatever the other seven are doing.
        assert_eq!(
            api.set_file_pointer(h, 0, SeekMethod::Current)
                .expect("tell"),
            expected_ptr,
            "thread {thread_idx} pointer drifted"
        );
    }
    api.close_handle(h).expect("close");
    issued
}

fn run_stress(strategy: Strategy) {
    let world = build_world(strategy);
    world.telemetry().set_enabled(true);
    let seed = afs_sim::test_seed(42);
    let mut joins = Vec::new();
    for idx in 0..THREADS {
        let api = world.api();
        joins.push(std::thread::spawn(move || {
            stress_one_thread(api, strategy, idx, seed)
        }));
    }
    let mut total = Issued::default();
    for join in joins {
        let one = join.join().expect("stress thread");
        total.reads += one.reads;
        total.writes += one.writes;
        total.controls += one.controls;
        total.sizes += one.sizes;
    }

    // Trace-total exactness: every issued op appears in the totals exactly
    // once, plus one Close per handle.
    let mut by_op: HashMap<OpKind, u64> = HashMap::new();
    for row in world.trace().summary() {
        assert_eq!(row.strategy, strategy.label(), "one strategy per world");
        *by_op.entry(row.op).or_default() += row.count;
    }
    let count = |op: OpKind| by_op.get(&op).copied().unwrap_or(0);
    assert_eq!(count(OpKind::Write), total.writes, "{strategy:?} writes");
    assert_eq!(count(OpKind::Read), total.reads, "{strategy:?} reads");
    assert_eq!(
        count(OpKind::Control),
        total.controls,
        "{strategy:?} controls"
    );
    assert_eq!(count(OpKind::Size), total.sizes, "{strategy:?} sizes");
    assert_eq!(
        count(OpKind::Close),
        THREADS as u64,
        "{strategy:?} one close per handle"
    );

    // Span-tree validity: parents are recorded spans or roots.
    let spans = world.telemetry().spans();
    assert!(!spans.is_empty(), "telemetry was on");
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for span in &spans {
        assert!(
            span.parent == 0 || ids.contains(&span.parent),
            "{strategy:?}: span {} ({}) has unknown parent {}",
            span.id,
            span.name,
            span.parent
        );
    }
}

#[test]
fn stress_simple_process() {
    run_stress(Strategy::Process);
}

#[test]
fn stress_process_control() {
    run_stress(Strategy::ProcessControl);
}

#[test]
fn stress_dll_thread() {
    run_stress(Strategy::DllThread);
}

#[test]
fn stress_dll_only() {
    run_stress(Strategy::DllOnly);
}

/// An inline (§4.4) operation's record is made of its own thread's
/// charges, so the `DLL` rows stay exact whatever other clients charge
/// meanwhile: twelve threads — more than the cost model has stripes —
/// each reading its own DLL-only file, and every read is recorded with
/// exactly the one copy it made.
#[test]
fn inline_rows_are_exact_under_concurrent_clients() {
    const CLIENTS: usize = 12;
    const READS: u64 = 50_000;
    let world = AfsWorld::new();
    activefiles::register_standard_sentinels(&world);
    let dll = SentinelSpec::new("null", Strategy::DllOnly).backing(Backing::Memory);
    let start = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let path = format!("/inline-{client}.af");
            world.install_active_file(&path, &dll).expect("install");
            let (api, start) = (world.api(), &start);
            scope.spawn(move || {
                let _clock = clock::install(0);
                let h = api
                    .create_file(&path, Access::read_only(), Disposition::OpenExisting)
                    .expect("open");
                start.wait();
                for _ in 0..READS {
                    api.read_file(h, &mut [0u8; 8]).expect("read");
                }
                api.close_handle(h).expect("close");
            });
        }
    });
    let reads = world
        .trace()
        .summary()
        .into_iter()
        .find(|row| row.strategy == "DLL" && row.op == OpKind::Read)
        .expect("a DLL read row");
    assert_eq!(reads.count, CLIENTS as u64 * READS);
    assert_eq!(
        (reads.copies, reads.crossings),
        (reads.count, 0),
        "one copy per read"
    );
}

/// Bytes of the file each client of [`handoffs_lose_no_wake`] owns.
const REGION: usize = 4096;

/// One client of [`handoffs_lose_no_wake`]: a seeded mix of writes and
/// checked reads inside the region `[base, base + REGION)` of `path`.
fn handoff_client(world: &AfsWorld, path: &str, base: usize, seed: u64) {
    const OPS: usize = 20_000;
    let _clock = clock::install(0);
    let api = world.api();
    let mut rng = SmallRng::seed_from_u64(seed);
    let h = api
        .create_file(path, Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    let seek = |at: usize| {
        api.set_file_pointer(h, (base + at) as i64, SeekMethod::Begin)
            .expect("seek");
    };
    // The region exists, whole, before anything reads it.
    let mut shadow = vec![0u8; REGION];
    seek(0);
    assert_eq!(api.write_file(h, &shadow).expect("fill"), REGION);
    for op in 0..OPS {
        let len = 1 + rng.gen_range(0..64) as usize;
        let at = rng.gen_range(0..(REGION - len) as u32) as usize;
        seek(at);
        if rng.gen_range(0..2) == 0 {
            shadow[at..at + len].fill(op as u8);
            assert_eq!(
                api.write_file(h, &shadow[at..at + len]).expect("write"),
                len
            );
        } else {
            let mut buf = [0u8; 64];
            assert_eq!(api.read_file(h, &mut buf[..len]).expect("read"), len);
            assert_eq!(&buf[..len], &shadow[at..at + len], "{path} op {op}");
        }
    }
    seek(0);
    let mut back = vec![0u8; REGION];
    assert_eq!(api.read_file(h, &mut back).expect("read back"), REGION);
    assert!(back == shadow, "{path}: the final read-back differs");
    api.close_handle(h).expect("close");
}

/// Handoff liveness: on an out-of-line file every read is a wake of the
/// sentinel side and a wake back, so a wake lost anywhere between the
/// wire's condvars and the executor's parked workers is a client that
/// never returns. Two application threads × 20 000 operations each — on
/// one file when the wiring shares its sentinel (no `keys`: two sessions
/// of one hub), on a file each when every open gets a sentinel of its
/// own. A watchdog turns a hang into a failure; the sweep seed shapes
/// the op mix.
fn handoffs_lose_no_wake(strategy: Strategy, keys: &'static [(&'static str, &'static str)]) {
    let seed = afs_sim::test_seed(42);
    let (done, finished) = std::sync::mpsc::channel();
    let clients = std::thread::spawn(move || {
        let world = AfsWorld::new();
        activefiles::register_standard_sentinels(&world);
        let mut spec = SentinelSpec::new("null", strategy).backing(Backing::Memory);
        for (key, value) in keys {
            spec = spec.with(key, value);
        }
        let paths = ["/handoff-0.af", "/handoff-1.af"];
        std::thread::scope(|scope| {
            for (client, own) in paths.iter().enumerate() {
                world.install_active_file(own, &spec).expect("install");
                let path = if keys.is_empty() { paths[0] } else { own };
                let (world, seed) = (&world, seed.wrapping_mul(31) + client as u64);
                scope.spawn(move || handoff_client(world, path, client * REGION, seed));
            }
        });
        let _ = done.send(());
    });
    match finished.recv_timeout(std::time::Duration::from_secs(300)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{strategy:?} {keys:?}: a client hung, a wake was lost")
        }
        // Finished, or panicked (the sender dropped): the join says which.
        _ => clients.join().expect("handoff clients"),
    }
}

/// An open that launches a shared sentinel attaches its own session before
/// other opens can find the sentinel: were it published first, another
/// open could join, close, and with that terminal close end the sentinel
/// before the launching open attached, which then failed with
/// `BrokenPipe` (it did, 3 to 41 times in 8 000 opens per strategy).
#[test]
fn an_open_racing_a_joiners_close_still_attaches() {
    const THREADS: usize = 4;
    const OPENS: usize = 2_000;
    for strategy in [
        Strategy::DllThread,
        Strategy::ProcessControl,
        Strategy::DllOnly,
    ] {
        let world = build_world(strategy);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let api = world.api();
                s.spawn(move || {
                    for _ in 0..OPENS {
                        let h = api
                            .create_file(
                                "/stress.af",
                                Access::read_write(),
                                Disposition::OpenExisting,
                            )
                            .unwrap_or_else(|e| panic!("{strategy:?} open: {e:?}"));
                        api.close_handle(h).expect("close");
                    }
                });
            }
        });
        world.quiesce();
        assert_eq!(
            world.fleet_task_count(),
            0,
            "{strategy:?}: every sentinel ended"
        );
    }
}

#[test]
fn handoffs_lose_no_wake_on_any_out_of_line_wiring() {
    for strategy in [Strategy::DllThread, Strategy::ProcessControl] {
        handoffs_lose_no_wake(strategy, &[("share", "off")]);
        handoffs_lose_no_wake(strategy, &[]);
        handoffs_lose_no_wake(strategy, &[("batch", "on")]);
    }
}

/// Regression test for the file-pointer bug this change fixes: an
/// End-relative seek resolves the size and stores the pointer as two
/// steps; without `op_lock` around both, a concurrent write on the same
/// handle lands between them and the stored pointer silently rewinds the
/// file, overwriting data. With the fix, appends through one handle while
/// another thread hammers `seek(0, End)` never lose a byte.
#[test]
fn end_relative_seek_serialises_with_writes() {
    const WRITES: usize = 300;
    let world = build_world(Strategy::DllThread);
    let api = world.api();
    let h = api
        .create_file(
            "/stress.af",
            Access::read_write(),
            Disposition::OpenExisting,
        )
        .expect("open");
    let writer = {
        let api = world.api();
        std::thread::spawn(move || {
            let _clock = clock::install(0);
            for _ in 0..WRITES {
                assert_eq!(api.write_file(h, b"x").expect("write"), 1);
            }
        })
    };
    let seeker = {
        let api = world.api();
        std::thread::spawn(move || {
            let _clock = clock::install(0);
            for _ in 0..WRITES {
                api.set_file_pointer(h, 0, SeekMethod::End).expect("seek");
            }
        })
    };
    writer.join().expect("writer");
    seeker.join().expect("seeker");
    let _clock = clock::install(0);
    assert_eq!(
        api.get_file_size(h).expect("size"),
        WRITES as u64,
        "every append landed at the true end of file"
    );
    api.close_handle(h).expect("close");
}
