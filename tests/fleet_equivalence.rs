//! Worker-count equivalence: the sentinel executor schedules
//! *real* threads, but every cost is charged on *virtual* clocks — so the
//! transcript of a workload must be bit-identical whether the pool has
//! one worker or many. This is the refactor's core safety claim: moving
//! sentinels from dedicated threads onto a bounded pool moved the
//! scheduling, not the semantics or the charging.
//!
//! For each of the four §4 strategies the same workload runs on a
//! one-worker world and a four-worker world; the test compares the
//! [`OpTrace`] summaries — operation counts, payload bytes and *total
//! virtual nanoseconds* — and the cost model's crossings total after the
//! close for exact equality.
//!
//! Two quantities are deliberately outside the claim, because they were
//! racy *before* the refactor too (dedicated sentinel threads interleave
//! with the application exactly as pool workers do):
//!
//! - **copies** — a sentinel's pipe drain takes as many reads as the
//!   bytes it finds buffered, so the copies a write costs depend on when
//!   the drain runs;
//! - **§4.1 latencies and crossings** — the simple-process strategy
//!   streams through pipes with no per-op handshake, so nothing
//!   synchronises the virtual clocks; only its operation counts and
//!   payload bytes are stable.
//!
//! The worker count is not the only schedule that varies: `AfsWorld`'s
//! default seed reads `AFS_TEST_SEED`, and CI's seed sweep runs this
//! suite under each of its seeds.
//!
//! [`OpTrace`]: activefiles::OpTrace

use activefiles::prelude::*;
use activefiles::{clock, Access, Disposition, HardwareProfile, OpKind, OpSummary, SeekMethod};

/// A fixed mixed workload against one handle: writes, rewinds, reads,
/// and an interior seek, sized so every op kind lands in the trace.
/// Returns the trace and the model's crossings once the handle closed.
fn run_workload(world: &AfsWorld, streaming: bool) -> (Vec<OpSummary>, u64) {
    let api = world.api();
    let _guard = clock::install(0);
    let h = api
        .create_file("/eq.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    for round in 0..10u8 {
        let data = vec![round; 16 + round as usize];
        assert_eq!(api.write_file(h, &data).expect("write"), data.len());
        if !streaming {
            // §4.1 streams have no pointer; every other strategy rewinds
            // and reads its bytes back.
            api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
            let mut buf = vec![0u8; data.len()];
            assert_eq!(api.read_file(h, &mut buf).expect("read"), buf.len());
            assert_eq!(buf, data, "null sentinel echoes the bytes");
            api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
        }
    }
    api.close_handle(h).expect("close");
    let cost = world.model().snapshot();
    (
        world.trace().summary(),
        cost.process_switches + cost.thread_switches,
    )
}

fn transcript(strategy: Strategy, workers: usize) -> (Vec<OpSummary>, u64) {
    let world = AfsWorld::builder()
        .profile(HardwareProfile::pentium_ii_300())
        .fleet_workers(workers)
        .build();
    activefiles::register_standard_sentinels(&world);
    world
        .install_active_file(
            "/eq.af",
            &SentinelSpec::new("null", strategy).backing(Backing::Memory),
        )
        .expect("install");
    run_workload(&world, strategy == Strategy::Process)
}

/// The deterministic projection of one transcript row (see the module
/// docs for why §4.1 drops times).
#[derive(Debug, PartialEq, Eq)]
struct Row {
    strategy: &'static str,
    op: OpKind,
    count: u64,
    bytes: u64,
    elapsed_ns: Option<u64>,
}

/// The deterministic projection of a transcript: its rows, and the
/// crossings total but on §4.1.
fn project(
    (summary, crossings): (Vec<OpSummary>, u64),
    streaming: bool,
) -> (Vec<Row>, Option<u64>) {
    let rows = summary
        .into_iter()
        .map(|row| Row {
            strategy: row.strategy,
            op: row.op,
            count: row.count,
            bytes: row.bytes,
            elapsed_ns: (!streaming).then_some(row.elapsed_ns),
        })
        .collect();
    (rows, (!streaming).then_some(crossings))
}

fn assert_worker_count_invariant(strategy: Strategy) {
    let streaming = strategy == Strategy::Process;
    let one = project(transcript(strategy, 1), streaming);
    let four = project(transcript(strategy, 4), streaming);
    assert!(
        !one.0.is_empty(),
        "{strategy:?}: workload left a transcript"
    );
    assert_eq!(
        one, four,
        "{strategy:?}: transcript (counts, bytes, virtual time, crossings) \
         must not depend on the worker count"
    );
}

#[test]
fn simple_process_transcript_is_worker_count_invariant() {
    assert_worker_count_invariant(Strategy::Process);
}

#[test]
fn process_control_transcript_is_worker_count_invariant() {
    assert_worker_count_invariant(Strategy::ProcessControl);
}

#[test]
fn dll_thread_transcript_is_worker_count_invariant() {
    assert_worker_count_invariant(Strategy::DllThread);
}

#[test]
fn dll_only_transcript_is_worker_count_invariant() {
    assert_worker_count_invariant(Strategy::DllOnly);
}
