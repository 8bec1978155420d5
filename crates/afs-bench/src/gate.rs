//! The bench-regression gate: machine-readable Figure 6 summaries and the
//! comparison CI runs against the committed baseline.
//!
//! [`bench_json`] measures every row of the [`GATE_CELLS`] table — the
//! per-strategy read latency distribution (memory path, 128-byte blocks:
//! the cheapest cell that still exercises every strategy's full hot path)
//! and the ablation cells beside it — and renders it as a small JSON
//! document. Because every sample is *virtual* time from the calibrated
//! cost model, the numbers are bit-for-bit reproducible across machines,
//! so CI holds them to the committed baseline exactly.
//!
//! [`parse_bench_doc`] + [`compare`] implement the gate itself, used by
//! the `bench_gate` binary against the committed `BENCH_baseline.json`.

use std::collections::BTreeMap;

use afs_core::Strategy;
use afs_sim::{HardwareProfile, Summary};

use crate::cluster::GATE_CLUSTER;
use crate::{measure, Direction, PathKind};

/// Schema version stamped into the document.
pub const BENCH_SCHEMA: u64 = 1;

/// Per-strategy latency summary, ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyStats {
    /// Mean per-op latency.
    pub mean_ns: f64,
    /// Median per-op latency.
    pub p50_ns: u64,
    /// 99th-percentile per-op latency.
    pub p99_ns: u64,
}

/// A parsed bench document: ops count plus per-strategy summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Calls measured per strategy.
    pub ops: u64,
    /// Summaries keyed by strategy label.
    pub strategies: BTreeMap<String, StrategyStats>,
}

/// Committed WAL batches behind the `store-recovery` cell: enough that
/// redo replay dominates the reopen, small enough to keep CI quick.
pub const STORE_RECOVERY_COMMITS: usize = 32;

/// Cold reopens sampled by the `store-recovery` cell. Every reopen
/// replays the same WAL under a fresh virtual clock, so the summary is
/// identical for any count ≥ 1; a handful guards against accidental
/// statefulness.
pub const STORE_RECOVERY_REOPENS: usize = 8;

/// Label and size of the gated fleet cell. Release builds gate the
/// headline ten-thousand-file point; debug builds (the in-repo test
/// suite) scale down to one thousand so `cargo test` stays quick — the
/// label carries the size, so a debug-produced document can never pass
/// silently against the release baseline.
const GATE_FLEET: (&str, usize) = if cfg!(debug_assertions) {
    ("fleet-1k", 1_000)
} else {
    ("fleet-10k", 10_000)
};

/// Concurrent files in the gated fleet cell.
pub fn gate_fleet_files() -> usize {
    GATE_FLEET.1
}

/// The measurement behind one gate cell: `(ops, profile)` to the latency
/// summary plus, on the batching and cluster cells, the boundary
/// crossings per operation.
pub type CellRun = fn(usize, &HardwareProfile) -> (Summary, Option<f64>);

/// Every cell of the gate document as `(label, run)`, in document order;
/// [`bench_json`] renders exactly these rows. A run panics if the batched
/// and unbatched transcripts diverge, if the cluster p99 is not flat
/// across the session counts, or if a node join moves more than
/// `1/N + 5%` of the keys, so the gate proves those claims on every run.
pub const GATE_CELLS: [(&str, CellRun); 19] = [
    // The four §4 strategies: memory path, 128-byte sequential reads.
    ("SimpleProcess", |ops, p| {
        strategy_cell(Strategy::Process, ops, p)
    }),
    ("Process", |ops, p| {
        strategy_cell(Strategy::ProcessControl, ops, p)
    }),
    ("Thread", |ops, p| {
        strategy_cell(Strategy::DllThread, ops, p)
    }),
    ("DLL", |ops, p| strategy_cell(Strategy::DllOnly, ops, p)),
    // Sequential writes from 1 and 8 clients, one shared sentinel vs one
    // per open: the single-client cells pin the no-sharing baseline cost,
    // the 8-client cells the contended behaviour. (The 32-client sweep
    // stays in `figure6 --concurrency`, where one slow cell does not slow
    // every CI run.)
    ("mux-1-shared", |ops, p| mux_cell(1, true, ops, p)),
    ("mux-1-private", |ops, p| mux_cell(1, false, ops, p)),
    ("mux-8-shared", |ops, p| mux_cell(8, true, ops, p)),
    ("mux-8-private", |ops, p| mux_cell(8, false, ops, p)),
    // The executor: one read across every concurrently-open file, and one
    // file on a one-worker pool — the single-sentinel number scheduling
    // must not move.
    (GATE_FLEET.0, |_, p| {
        let m = crate::measure_fleet(GATE_FLEET.1, 1, None, p.clone());
        (m.summary, None)
    }),
    ("fleet-1-parity", |ops, p| {
        let m = crate::measure_fleet(1, ops, Some(1), p.clone());
        (m.summary, None)
    }),
    // The Thread cell again with telemetry fully on.
    ("ablation_trace", |ops, p| {
        let t = crate::measure_trace_ablation(ops, p.clone());
        (t.traced, None)
    }),
    // Per-committed-write latency through a WAL-backed null sentinel, and
    // cold reopen + redo replay.
    ("store-durable", |ops, p| {
        (crate::measure_store(ops, p.clone()).summary, None)
    }),
    ("store-recovery", |_, p| {
        let m = crate::measure_store_recovery(
            STORE_RECOVERY_COMMITS,
            STORE_RECOVERY_REOPENS,
            p.clone(),
        );
        (m.summary, None)
    }),
    // Zipfian sessions over the replicated fleet at the two gated counts,
    // and post-join reads through a membership change. The crossings
    // column carries network messages per op (RPCs + replication casts).
    (GATE_CLUSTER[0].0, |_, p| cluster_cell(GATE_CLUSTER[0].1, p)),
    (GATE_CLUSTER[1].0, |_, p| cluster_cell(GATE_CLUSTER[1].1, p)),
    ("cluster-rebalance", |_, p| {
        // measure_cluster_rebalance itself panics unless every key stays
        // readable at its session's read-your-writes floor.
        let r = crate::measure_cluster_rebalance(crate::CLUSTER_REBALANCE_KEYS, p.clone());
        assert!(
            (r.moved as f64) <= r.moved_limit,
            "node join moved {} of {} keys, over the 1/N + 5% bound {:.1}",
            r.moved,
            r.keys,
            r.moved_limit
        );
        (r.summary, Some(r.messages_per_op))
    }),
    // The same zipfian mix through `mirror` active files that name the
    // fleet: the replicated path behind the paper's own seam.
    ("cluster-mirror", |_, p| {
        let m = crate::measure_cluster_mirror(crate::CLUSTER_MIRROR_OPS, p.clone());
        (m.summary, Some(m.messages_per_op))
    }),
    // The Thread cell over the plain transport and over the
    // submission/completion ring.
    ("ablation_batch-off", |ops, p| {
        let (summary, crossings, _) = crate::measure_batch_side(false, ops, p.clone());
        (summary, Some(crossings))
    }),
    ("ablation_batch-on", |ops, p| {
        let b = crate::measure_batch_ablation(ops, p.clone());
        assert!(
            b.transcripts_match,
            "batched and unbatched reads must return identical transcripts"
        );
        (b.batched, Some(b.crossings_per_op_batched))
    }),
];

fn strategy_cell(
    strategy: Strategy,
    ops: usize,
    profile: &HardwareProfile,
) -> (Summary, Option<f64>) {
    let m = measure(
        PathKind::Memory,
        strategy,
        Direction::Read,
        128,
        ops,
        profile.clone(),
    );
    (m.series.summarize(), None)
}

fn mux_cell(
    clients: usize,
    shared: bool,
    ops: usize,
    profile: &HardwareProfile,
) -> (Summary, Option<f64>) {
    let m = crate::measure_concurrency(clients, shared, ops, profile.clone());
    (m.summary, None)
}

/// One cluster cell, asserting the flat-p99 claim against a 1k-session
/// reference at the same fleet size.
fn cluster_cell(clients: usize, profile: &HardwareProfile) -> (Summary, Option<f64>) {
    let reference = crate::measure_cluster(1_000, profile.clone())
        .summary
        .p99_ns;
    let c = crate::measure_cluster(clients, profile.clone());
    assert!(
        (c.summary.p99_ns as f64 - reference as f64).abs() <= reference as f64 * 0.10,
        "cluster p99 must stay flat at a fixed fleet size: \
         {clients} clients {} ns vs 1k clients {reference} ns",
        c.summary.p99_ns,
    );
    (c.summary, Some(c.messages_per_op))
}

/// Measures every row of [`GATE_CELLS`] (`ops` calls each, where the cell
/// takes a count) and renders the gate document.
pub fn bench_json(ops: usize, profile: HardwareProfile) -> String {
    let mut out = format!(
        "{{\n  \"schema\": {BENCH_SCHEMA},\n  \"ops\": {ops},\n  \"profile\": \"{}\",\n  \"strategies\": {{\n",
        profile.name
    );
    for (i, (label, run)) in GATE_CELLS.iter().enumerate() {
        let (s, crossings) = run(ops, &profile);
        let extra = crossings
            .map(|c| format!(", \"crossings_per_op\": {c:.2}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "    \"{}\": {{\"mean_ns\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}{extra}}}{}\n",
            label,
            s.mean_ns as f64,
            s.p50_ns,
            s.p99_ns,
            if i + 1 < GATE_CELLS.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Parses a [`bench_json`] document.
///
/// The parser is deliberately strict about the fields the gate needs
/// (`ops`, `strategies.*.{mean_ns,p50_ns,p99_ns}`) and tolerant of
/// anything extra.
///
/// # Errors
///
/// A human-readable message naming what is malformed or missing.
pub fn parse_bench_doc(text: &str) -> Result<BenchDoc, String> {
    let root = json::parse(text)?;
    let obj = root.as_object().ok_or("top level must be an object")?;
    let ops = obj
        .get("ops")
        .and_then(json::Value::as_u64)
        .ok_or("missing numeric `ops`")?;
    let strategies_val = obj.get("strategies").ok_or("missing `strategies`")?;
    let strategies_obj = strategies_val
        .as_object()
        .ok_or("`strategies` must be an object")?;
    let mut strategies = BTreeMap::new();
    for (label, entry) in strategies_obj {
        let entry = entry
            .as_object()
            .ok_or_else(|| format!("strategy `{label}` must be an object"))?;
        let field = |name: &str| {
            entry
                .get(name)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("strategy `{label}` missing numeric `{name}`"))
        };
        strategies.insert(
            label.clone(),
            StrategyStats {
                mean_ns: field("mean_ns")?,
                p50_ns: field("p50_ns")? as u64,
                p99_ns: field("p99_ns")? as u64,
            },
        );
    }
    if strategies.is_empty() {
        return Err("no strategies in document".to_owned());
    }
    Ok(BenchDoc { ops, strategies })
}

/// Compares `current` against `baseline` with zero tolerance — every cell
/// is virtual time, reproducible to the bit. Returns `(cell, what)`: one
/// entry per field (`mean_ns`, `p50_ns`, `p99_ns`) of every cell that
/// differs, per cell the baseline has and the current run lacks (a
/// silently dropped series must not pass the gate), and per cell only
/// the current run has. Empty means the gate passes.
pub fn compare(baseline: &BenchDoc, current: &BenchDoc) -> Vec<(String, String)> {
    let mut differences = Vec::new();
    let mut differs = |cell: &String, what: String| differences.push((cell.clone(), what));
    for (cell, base) in &baseline.strategies {
        let Some(cur) = current.strategies.get(cell) else {
            differs(cell, "missing from current run".to_owned());
            continue;
        };
        if cur.mean_ns != base.mean_ns {
            let (cur, base) = (cur.mean_ns, base.mean_ns);
            differs(cell, format!("mean_ns {cur:.1} (baseline {base:.1})"));
        }
        for (field, cur, base) in [
            ("p50_ns", cur.p50_ns, base.p50_ns),
            ("p99_ns", cur.p99_ns, base.p99_ns),
        ] {
            if cur != base {
                differs(cell, format!("{field} {cur} (baseline {base})"));
            }
        }
    }
    for cell in current.strategies.keys() {
        if !baseline.strategies.contains_key(cell) {
            differs(cell, "not in baseline".to_owned());
        }
    }
    differences
}

/// The workspace's one JSON reader, at the path the bench documents and
/// the whole-path benchmark have always imported it from.
pub use afs_telemetry::json;

#[cfg(test)]
mod tests {
    use super::*;

    /// The cell labels of a gate document, in document order.
    fn cell_labels(doc: &str) -> Vec<&str> {
        doc.lines()
            .filter(|line| line.contains("\"mean_ns\""))
            .map(|line| line.split('"').nth(1).expect("quoted label"))
            .collect()
    }

    #[test]
    fn gate_cell_labels_are_unique() {
        let labels: std::collections::BTreeSet<&str> =
            GATE_CELLS.iter().map(|(label, _)| *label).collect();
        assert_eq!(labels.len(), GATE_CELLS.len());
    }

    #[test]
    fn bench_json_renders_the_table_row_for_row_and_roundtrips() {
        let doc = bench_json(20, HardwareProfile::pentium_ii_300());
        assert!(afs_telemetry::json_is_valid(&doc), "valid JSON: {doc}");
        let table: Vec<&str> = GATE_CELLS.iter().map(|(label, _)| *label).collect();
        assert_eq!(
            cell_labels(&doc),
            table,
            "one entry per row, in table order"
        );
        for line in doc.lines().filter(|line| line.contains("\"mean_ns\"")) {
            let counted = line.contains("\"ablation_batch-") || line.contains("\"cluster-");
            assert_eq!(
                line.contains("\"crossings_per_op\""),
                counted,
                "crossings ride the batching and cluster rows only: {line}"
            );
        }
        let parsed = parse_bench_doc(&doc).expect("parse");
        assert_eq!(parsed.ops, 20);
        assert_eq!(parsed.strategies.len(), GATE_CELLS.len());
        for (label, s) in &parsed.strategies {
            assert!(s.p99_ns >= s.p50_ns, "percentiles ordered for {label}");
            assert!(s.mean_ns > 0.0, "{label} must cost virtual time");
        }
        assert!(compare(&parsed, &parsed).is_empty());
    }

    /// Debug builds scale the fleet and cluster cells down and label them
    /// so; only a release build produces the committed document's labels.
    #[cfg(not(debug_assertions))]
    #[test]
    fn the_table_lists_exactly_the_baseline_cells() {
        let baseline = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline.json"
        ));
        let table: Vec<&str> = GATE_CELLS.iter().map(|(label, _)| *label).collect();
        assert_eq!(
            table,
            cell_labels(baseline),
            "a cell is added or renamed together with BENCH_baseline.json"
        );
    }

    /// The tentpole claim, asserted at gate granularity: the ring cuts
    /// protection-domain crossings per sequential read by about the ring
    /// depth, without changing what the reads return.
    #[test]
    fn batch_ablation_cuts_crossings_by_about_ring_depth() {
        let a = crate::measure_batch_ablation(64, HardwareProfile::pentium_ii_300());
        assert!(
            a.transcripts_match,
            "batched reads returned different bytes"
        );
        let reduction = a.crossings_per_op_unbatched / a.crossings_per_op_batched.max(f64::EPSILON);
        assert!(
            reduction >= crate::BATCH_RING_DEPTH as f64 * 0.75,
            "crossings/op {:.2} -> {:.2} is only a {reduction:.1}x drop (ring depth {})",
            a.crossings_per_op_unbatched,
            a.crossings_per_op_batched,
            crate::BATCH_RING_DEPTH
        );
    }

    #[test]
    fn trace_ablation_is_free() {
        // The acceptance bound is <= 5% p99 overhead with zero extra §4
        // charges; in virtual time the two must in fact coincide, because
        // spans, slow-op scans, SLO windows, and flight rings charge the
        // cost model nothing — the 5% headroom is for the day that stops
        // being true, so the gate fails loudly rather than drifting.
        let a = crate::measure_trace_ablation(50, HardwareProfile::pentium_ii_300());
        assert!(a.charges_match, "tracing charged the §4 cost model");
        assert!(
            a.traced.p99_ns as f64 <= a.base.p99_ns as f64 * 1.05,
            "instrumented p99 {} ns exceeds dark p99 {} ns by more than 5%",
            a.traced.p99_ns,
            a.base.p99_ns
        );
        assert_eq!(
            a.traced.p50_ns, a.base.p50_ns,
            "identical charges must mean identical virtual medians"
        );
    }

    #[test]
    fn bench_json_is_deterministic() {
        let a = bench_json(10, HardwareProfile::pentium_ii_300());
        let b = bench_json(10, HardwareProfile::pentium_ii_300());
        assert_eq!(a, b, "virtual-clock measurements are reproducible");
    }

    #[test]
    fn compare_names_every_field_that_moved_and_every_cell_missing_or_extra() {
        let baseline = parse_bench_doc(
            r#"{"ops": 10, "strategies": {
                "DLL": {"mean_ns": 100.0, "p50_ns": 100, "p99_ns": 100},
                "Process": {"mean_ns": 300.0, "p50_ns": 300, "p99_ns": 300},
                "Thread": {"mean_ns": 200.0, "p50_ns": 200, "p99_ns": 200}
            }}"#,
        )
        .expect("baseline");
        let current = parse_bench_doc(
            r#"{"ops": 10, "strategies": {
                "DLL": {"mean_ns": 100.5, "p50_ns": 100, "p99_ns": 99},
                "Process": {"mean_ns": 300.0, "p50_ns": 300, "p99_ns": 300},
                "mux-1-shared": {"mean_ns": 1.0, "p50_ns": 1, "p99_ns": 1}
            }}"#,
        )
        .expect("current");
        let differences: Vec<String> = compare(&baseline, &current)
            .iter()
            .map(|(cell, what)| format!("{cell}: {what}"))
            .collect();
        assert_eq!(
            differences,
            [
                "DLL: mean_ns 100.5 (baseline 100.0)",
                "DLL: p99_ns 99 (baseline 100)",
                "Thread: missing from current run",
                "mux-1-shared: not in baseline",
            ],
            "an improvement is a difference too: the baseline is regenerated on purpose"
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_bench_doc("").is_err());
        assert!(parse_bench_doc("[1,2]").is_err());
        assert!(parse_bench_doc(r#"{"ops": 5}"#).is_err());
        assert!(parse_bench_doc(r#"{"ops": 5, "strategies": {}}"#).is_err());
        assert!(parse_bench_doc(r#"{"ops": 5, "strategies": {"DLL": {"p99_ns": 1}}}"#).is_err());
    }
}
