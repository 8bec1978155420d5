//! One benchmark run of one workload: the dark pass (end-to-end
//! metrics) or the traced pass (per-layer metrics).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use afs_sim::HardwareProfile;

use crate::host::{self, Yardstick};
use crate::layers::{self, Counters};
use crate::probes;
use crate::run::{self, Leg, Plan, Stop};
use crate::seams;
use crate::spec::{self, WorkloadSpec, LEG_TIME, MIN_SLICES, SETUP_REPEATS};
use crate::stats::{self, Slice};
use crate::workloads::{self, Rig};

/// Spans written to `out/<workload>.trace.json`; the metrics use all.
const TRACE_FILE_SPANS: usize = 20_000;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub spec: &'static WorkloadSpec,
    /// Drives every generated choice.
    pub seed: u64,
    /// How long the dark pass measures; scales the traced pass.
    pub seconds: f64,
    /// Traced pass instead of dark pass.
    pub trace: bool,
    /// Where `<workload>.trace.json` goes, if anywhere.
    pub out_dir: Option<PathBuf>,
    /// The committed `BENCH_baseline.json` the reference check reads.
    pub baseline: PathBuf,
    /// When the process started (set-up is timed from here).
    pub started: Instant,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every op succeeded and every check held.
    pub correct: bool,
    /// Ops attempted, set-up and read-back included.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// `(name, value)` in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Within-run spread (IQR ÷ median) of the metrics that have one.
    pub spreads: Vec<(&'static str, f64)>,
    /// CPUs the process was pinned to; empty if pinning failed.
    pub pinned: Vec<usize>,
    /// Hash of the seeded contents and generated warm-up ops.
    pub ops_hash: u64,
    /// Op counts of the run, for the record: `(what, count)`.
    pub op_counts: Vec<(&'static str, u64)>,
    /// Raw host-clock medians behind the `ref_*` metrics, for the record.
    pub host: Vec<(&'static str, f64)>,
    /// Reasons `correct` is false, for the log.
    pub complaints: Vec<String>,
}

/// `--seconds` relative to the calibrated 10: shrinks op counts for
/// short (smoke) runs, never grows them.
fn scale(seconds: f64) -> f64 {
    (seconds / 10.0).clamp(1.0 / 1024.0, 1.0)
}

fn scaled_ops(ops: u64, scale: f64) -> u64 {
    (((ops as f64 * scale) as u64).div_ceil(1024)).max(1) * 1024
}

fn scaled_spec(spec: &WorkloadSpec, seconds: f64) -> WorkloadSpec {
    let s = scale(seconds);
    WorkloadSpec {
        slice_ops: scaled_ops(spec.slice_ops, s),
        warmup_ops: scaled_ops(spec.warmup_ops, s),
        traced_ops: scaled_ops(spec.traced_ops, s),
        ..*spec
    }
}

/// Scheduler hygiene: pins the process to the first `cpus` allowed CPUs
/// and puts it under `SCHED_BATCH`. Returns the CPUs pinned to (empty
/// if the kernel refused either) and, for the two-thread probes, two
/// distinct allowed CPUs if there are two.
fn pin(cpus: usize) -> (Vec<usize>, Option<[usize; 2]>) {
    let allowed = host::allowed_cpus();
    let two = (allowed.len() >= 2).then(|| [allowed[0], allowed[1]]);
    let wanted: Vec<usize> = allowed.into_iter().take(cpus).collect();
    if host::pin_current_thread(&wanted) && host::use_batch_scheduling() {
        (wanted, two)
    } else {
        (Vec::new(), two)
    }
}

fn assert_dark(rig: &Rig) {
    assert!(
        !host::alloc_counter_armed(),
        "dark pass: allocator counter must be disarmed"
    );
    assert!(
        rig.sources.calls.is_none(),
        "dark pass: no seam wrappers installed"
    );
    if let Some(t) = &rig.sources.telemetry {
        assert!(!t.enabled(), "dark pass: telemetry must be off");
    }
}

fn note_setup(rig: &Rig, out: &mut Outcome) {
    out.attempted += rig.setup_attempted;
    out.failed += rig.setup_failed;
    if rig.setup_failed > 0 {
        out.complaints
            .push(format!("{} ops failed during set-up", rig.setup_failed));
    }
}

fn note_leg(leg: &Leg, what: &str, out: &mut Outcome) {
    out.attempted += leg.attempted();
    out.failed += leg.failed();
    if leg.failed() > 0 {
        out.complaints
            .push(format!("{} ops failed in the {what}", leg.failed()));
    }
}

fn note_read_back(rig: &mut Rig, out: &mut Outcome) {
    let clients = rig.clients.len();
    let (attempted, failed) = run::read_back(rig, clients);
    out.attempted += attempted;
    out.failed += failed;
    if failed > 0 {
        out.complaints
            .push(format!("{failed} read-back reads returned wrong bytes"));
    }
}

fn spread(slices: &[Slice], figure: impl Fn(&Slice) -> f64) -> f64 {
    stats::iqr_share(&slices.iter().map(figure).collect::<Vec<_>>())
}

fn host_p50_us(s: &Slice) -> f64 {
    s.p50_ns as f64 / 1_000.0
}

fn host_cpu_us_per_op(s: &Slice) -> f64 {
    s.cpu_us as f64 / s.ops.max(1) as f64
}

fn yardstick_ns_per_step(s: &Slice) -> f64 {
    s.yardstick_ns as f64 / host::YARDSTICK_STEPS as f64
}

/// The raw host-clock figures behind the `ref_*` metrics and the
/// yardstick they were divided by, as the dark pass records them and
/// as the traced pass reports them.
const HOST_FIGURES: [(&str, &str); 4] = [
    ("host_ops_per_s", "bench.host_ops_per_s"),
    ("host_p50_us", "bench.host_p50_us"),
    ("host_cpu_us_per_op", "bench.host_cpu_us_per_op"),
    ("yardstick_ns_per_step", "bench.yardstick_ns_per_step"),
];

/// Medians over `slices`, in the order of [`HOST_FIGURES`].
fn host_figures(slices: &[Slice]) -> [f64; 4] {
    [
        stats::median_of_slices(slices, Slice::host_rate),
        stats::median_of_slices(slices, host_p50_us),
        stats::median_of_slices(slices, host_cpu_us_per_op),
        stats::median_of_slices(slices, yardstick_ns_per_step),
    ]
}

/// One set-up, timed on the host clock and scaled to reference-core
/// seconds by the yardstick run right after it.
fn timed_setup(
    spec: &WorkloadSpec,
    seed: u64,
    begun: Instant,
    yardstick: &mut Yardstick,
) -> (Rig, f64) {
    let rig = workloads::setup(spec, seed, false);
    let host_s = begun.elapsed().as_secs_f64();
    let speed: Vec<f64> = (0..3).map(|_| yardstick.run_ns() as f64).collect();
    (rig, host_s * host::YARDSTICK_REF_NS / stats::median(&speed))
}

/// The dark pass: set-up (several times), timed slices for
/// `--seconds`, read-back. Nothing observes the program but the clock.
fn dark(args: &RunArgs, out: &mut Outcome) {
    let spec = scaled_spec(args.spec, args.seconds);
    let mut yardstick = Yardstick::default();
    // The first set-up is timed from process start.
    let (mut rig, first) = timed_setup(&spec, args.seed, args.started, &mut yardstick);
    let mut setup_s = vec![first];
    for _ in 1..SETUP_REPEATS {
        drop(rig);
        let again;
        (rig, again) = timed_setup(&spec, args.seed, Instant::now(), &mut yardstick);
        setup_s.push(again);
    }
    out.ops_hash = rig.ops_hash();
    note_setup(&rig, out);
    assert_dark(&rig);

    // Two free-running threads that share locks settle into a rhythm:
    // mostly colliding (2.3 M ops/s on `dll-scale-2t`), sometimes
    // interleaving cleanly (5.4 M), and which one is decided when the
    // threads start and can last for seconds. So the timed phase is a
    // run of short legs, each on fresh threads, and the medians are
    // over the slices of all of them: one run samples the rhythms a
    // hundred times and reports the usual one.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut leg = Leg::default();
    while leg.slices.is_empty() || Instant::now() < deadline {
        let until = deadline.min(Instant::now() + LEG_TIME);
        let plan = Plan {
            slice_ops: spec.slice_ops,
            stop: Stop::Deadline(1, until),
            keep_samples: false,
            traced: false,
        };
        leg.absorb(run::run_leg(&mut rig, spec.clients, &out.pinned, plan));
    }
    note_leg(&leg, "timed phase", out);
    note_read_back(&mut rig, out);
    let sim_mean = leg.sim_total_ns() as f64 / leg.attempted().max(1) as f64;
    reference_check(spec.name, sim_mean, &args.baseline, out);
    out.op_counts = vec![
        ("warmup_ops_per_client", spec.warmup_ops),
        ("slice_ops_per_client", spec.slice_ops),
        ("legs", (leg.recorders.len() / spec.clients) as u64),
        ("slices", leg.slices.len() as u64),
        ("timed_ops", leg.attempted()),
    ];

    type Figure = fn(&Slice) -> f64;
    let per_slice: [(&'static str, Figure); 3] = [
        ("ref_ops_per_s", Slice::ref_rate),
        ("ref_p50_us", Slice::ref_p50_us),
        ("ref_cpu_us_per_op", Slice::ref_cpu_us_per_op),
    ];
    out.metrics.push(("setup_s", stats::median(&setup_s)));
    out.spreads.push(("setup_s", stats::iqr_share(&setup_s)));
    for (name, figure) in per_slice {
        out.metrics
            .push((name, stats::median_of_slices(&leg.slices, figure)));
        out.spreads.push((name, spread(&leg.slices, figure)));
    }
    out.metrics.push(("host_peak_rss_mb", host::peak_rss_mib()));
    out.host = HOST_FIGURES
        .iter()
        .map(|names| names.0)
        .zip(host_figures(&leg.slices))
        .collect();
}

/// The committed virtual-time cell this workload must reproduce, if
/// any: the harness has to drive the path the existing gate drives.
fn reference_cell(workload: &str) -> Option<&'static str> {
    match workload {
        "fig6-thread-read" => Some("Thread"),
        "dll-scale-2t" => Some("DLL"),
        _ => None,
    }
}

fn reference_check(workload: &str, sim_mean_ns: f64, baseline: &Path, out: &mut Outcome) {
    let Some(cell) = reference_cell(workload) else {
        return;
    };
    let committed = std::fs::read_to_string(baseline)
        .map_err(|e| e.to_string())
        .and_then(|text| afs_bench::parse_bench_doc(&text))
        .map(|doc| doc.strategies.get(cell).map(|s| s.mean_ns));
    match committed {
        Ok(Some(mean_ns)) => {
            println!(
                "reference check: sim.mean_ns {sim_mean_ns} vs {} `{cell}` mean_ns {mean_ns}",
                baseline.display()
            );
            if mean_ns != sim_mean_ns {
                out.complaints.push(format!(
                    "reference mismatch: measured {sim_mean_ns} ns, committed `{cell}` cell {mean_ns} ns"
                ));
            }
        }
        Ok(None) => out
            .complaints
            .push(format!("{} has no `{cell}` cell", baseline.display())),
        Err(e) => out
            .complaints
            .push(format!("cannot read {}: {e}", baseline.display())),
    }
}

/// The traced pass: a dark fixed-count leg, the same leg again with the
/// seam wrappers, call counters and the program's telemetry on, then
/// the probes.
fn traced(args: &RunArgs, two_cpus: Option<[usize; 2]>, out: &mut Outcome) {
    let spec = scaled_spec(args.spec, args.seconds);
    let plan = Plan {
        // A multiple of 4: `mux-shared-rw` issues whole 4-op turns.
        slice_ops: (spec.traced_ops / MIN_SLICES as u64) & !3,
        stop: Stop::Slices(MIN_SLICES),
        keep_samples: true,
        traced: false,
    };
    let leg_ops = plan.slice_ops * MIN_SLICES as u64 * spec.clients as u64;

    // Dark leg: the untraced rate the overhead is measured against, the
    // host tail, and the allocation count (the counter is bench-owned,
    // one relaxed add per allocation).
    let mut rig = workloads::setup(&spec, args.seed, false);
    out.ops_hash = rig.ops_hash();
    note_setup(&rig, out);
    let allocs_before = host::allocs_counted();
    host::arm_alloc_counter(true);
    let dark = run::run_leg(&mut rig, spec.clients, &out.pinned, plan);
    host::arm_alloc_counter(false);
    let allocs = host::allocs_counted() - allocs_before;
    note_leg(&dark, "dark leg", out);
    let solo_rate = (spec.clients > 1).then(|| {
        let solo = run::run_leg(&mut rig, 1, &out.pinned, plan);
        note_leg(&solo, "one-client leg", out);
        solo.ref_ops_per_s()
    });
    drop(rig);

    // Traced leg.
    let mut rig = workloads::setup(&spec, args.seed, true);
    note_setup(&rig, out);
    seams::drain();
    let before = Counters::read(&rig.sources);
    let traced_plan = Plan {
        traced: true,
        ..plan
    };
    let leg = run::run_leg(&mut rig, spec.clients, &out.pinned, traced_plan);
    let after = Counters::read(&rig.sources);
    note_leg(&leg, "traced leg", out);
    note_read_back(&mut rig, out);
    drop(rig);
    // Chronological, so the file's first spans are whole ops and not
    // one thread's buffer.
    let mut spans = seams::drain();
    spans.sort_unstable_by_key(|s| s.start);
    let seam = seams::analyse(&spans);
    if let Some(dir) = &args.out_dir {
        let path = dir.join(format!("{}.trace.json", spec.name));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, seams::trace_json(&spans, TRACE_FILE_SPANS)));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }

    let budget = probes::Budget {
        scale: scale(args.seconds),
        two_cpus,
    };
    // Probes time one layer, not this workload's placement: the
    // ping-pong pairs share one CPU (a context switch, as on the
    // handoff workloads) whatever the workload was pinned to, and the
    // two-thread probes pin themselves apart.
    if let Some(first) = out.pinned.first() {
        host::pin_current_thread(&[*first]);
    }
    let mut found = probes::run_all(workloads::block_size(spec.name), &budget);

    let sim = leg.sim_latencies_sorted();
    let sim_total = leg.sim_total_ns();
    let sim_mean = sim_total as f64 / leg_ops as f64;
    found.push(("sim.mean_ns", sim_mean));
    found.push(("sim.p50_ns", stats::percentile_sorted(&sim, 50.0) as f64));
    found.push(("sim.p99_ns", stats::percentile_sorted(&sim, 99.0) as f64));
    layers::counter_metrics(
        &before,
        &after,
        leg_ops,
        sim_total,
        &HardwareProfile::pentium_ii_300(),
        &mut found,
    );
    found.push(("core.handoff_ns", seam.handoff_ns));
    found.push(("sentinels.logic_ns", seam.logic_ns));
    found.push(("remote.server_handle_ns", seam.service_ns));

    let host_lat = dark.host_latencies_sorted();
    let us = |ns: u64| ns as f64 / 1_000.0;
    found.push((
        "telemetry.overhead_share",
        1.0 - leg.ref_ops_per_s() / dark.ref_ops_per_s().max(1.0),
    ));
    found.push(("bench.host_allocs_per_op", allocs as f64 / leg_ops as f64));
    found.push((
        "bench.host_p99_us",
        us(stats::percentile_sorted(&host_lat, 99.0)),
    ));
    found.push((
        "bench.host_p999_us",
        us(stats::percentile_sorted(&host_lat, 99.9)),
    ));
    found.push((
        "bench.slice_spread_share",
        spread(&dark.slices, Slice::ref_rate),
    ));
    found.extend(
        HOST_FIGURES
            .iter()
            .map(|names| names.1)
            .zip(host_figures(&dark.slices)),
    );
    found.push((
        "bench.ctx_switches_per_op",
        dark.slices.iter().map(|s| s.ctx_switches).sum::<u64>() as f64 / leg_ops as f64,
    ));
    found.push((
        "bench.scale_speedup",
        solo_rate.map_or(1.0, |solo| dark.ref_ops_per_s() / solo.max(1.0)),
    ));
    found.push((
        "bench.failed_ops_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    ));

    let shares: f64 = found
        .iter()
        .filter(|(name, _)| name.starts_with("sim.share."))
        .map(|(_, v)| v)
        .sum();
    if (shares - sim_mean).abs() > 1e-6 * sim_mean.max(1.0) {
        out.complaints.push(format!(
            "sim.share.* sum to {shares}, not sim.mean_ns {sim_mean}"
        ));
    }
    reference_check(spec.name, sim_mean, &args.baseline, out);
    out.op_counts = vec![
        ("warmup_ops_per_client", spec.warmup_ops),
        ("leg_ops", leg_ops),
    ];

    // Declaration order, and exactly the declared set.
    for declared in spec::PER_LAYER {
        match found.iter().find(|(name, _)| *name == declared.name) {
            Some(&(name, value)) => out.metrics.push((name, value)),
            None => out.complaints.push(format!(
                "per-layer metric {} was not measured",
                declared.name
            )),
        }
    }
    debug_assert_eq!(found.len(), spec::PER_LAYER.len());
}

/// Runs one pass of one workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (pinned, two_cpus) = pin(args.spec.cpus);
    out.pinned = pinned;
    if out.pinned.is_empty() {
        eprintln!(
            "warning: sched_setaffinity or sched_setscheduler failed; {} runs unpinned and its host numbers will be noisy",
            args.spec.name
        );
    }
    if args.trace {
        traced(args, two_cpus, &mut out);
    } else {
        dark(args, &mut out);
    }
    for (_, value) in &mut out.metrics {
        if !value.is_finite() {
            *value = 0.0;
        }
    }
    out.correct = out.complaints.is_empty() && out.attempted > 0;
    out
}
