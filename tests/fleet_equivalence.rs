//! Worker-count equivalence: the sentinel executor schedules
//! *real* threads, but every cost is charged on *virtual* clocks — so the
//! transcript of a workload must be bit-identical whether the pool has
//! one worker or many. This is the refactor's core safety claim: moving
//! sentinels from dedicated threads onto a bounded pool moved the
//! scheduling, not the semantics or the charging.
//!
//! For each of the four §4 strategies the same workload runs on a
//! one-worker world and a four-worker world; the test compares the
//! [`OpTrace`] summaries — operation counts, payload bytes, *total
//! virtual nanoseconds*, and crossings — for exact equality.
//!
//! Two fields are deliberately outside the claim, because they were racy
//! *before* the refactor too (dedicated sentinel threads interleave with
//! the application exactly as pool workers do):
//!
//! - **copies** — per-op copy counts are attributed by sampling the cost
//!   model's global counters around each call, so a sentinel-side copy
//!   that completes after the reply (staged flushes, read-ahead) lands in
//!   whichever op's window happens to be open;
//! - **§4.1 latencies** — the simple-process strategy streams through
//!   pipes with no per-op handshake, so nothing synchronises the virtual
//!   clocks; only its operation counts and payload bytes are stable.
//!
//! [`OpTrace`]: activefiles::OpTrace

use activefiles::prelude::*;
use activefiles::{clock, Access, Disposition, HardwareProfile, OpKind, OpSummary, SeekMethod};

/// A fixed mixed workload against one handle: writes, rewinds, reads,
/// and an interior seek, sized so every op kind lands in the trace.
fn run_workload(world: &AfsWorld, streaming: bool) -> Vec<OpSummary> {
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
    world.trace().summary()
}

fn transcript(strategy: Strategy, workers: usize) -> Vec<OpSummary> {
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
/// docs for why `copies` is excluded, and why §4.1 also drops times).
#[derive(Debug, PartialEq, Eq)]
struct Row {
    strategy: &'static str,
    op: OpKind,
    count: u64,
    bytes: u64,
    elapsed_ns: Option<u64>,
    crossings: Option<u64>,
}

fn project(summary: Vec<OpSummary>, streaming: bool) -> Vec<Row> {
    summary
        .into_iter()
        .map(|row| Row {
            strategy: row.strategy,
            op: row.op,
            count: row.count,
            bytes: row.bytes,
            elapsed_ns: (!streaming).then_some(row.elapsed_ns),
            crossings: (!streaming).then_some(row.crossings),
        })
        .collect()
}

fn assert_worker_count_invariant(strategy: Strategy) {
    let streaming = strategy == Strategy::Process;
    let one = project(transcript(strategy, 1), streaming);
    let four = project(transcript(strategy, 4), streaming);
    assert!(!one.is_empty(), "{strategy:?}: workload left a transcript");
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
