//! The bench-regression gate: machine-readable Figure 6 summaries and the
//! comparison CI runs against the committed baseline.
//!
//! [`bench_json`] measures the per-strategy read latency distribution
//! (memory path, 128-byte blocks — the cheapest cell that still exercises
//! every strategy's full hot path) and renders it as a small JSON
//! document. Because every sample is *virtual* time from the calibrated
//! cost model, the numbers are bit-for-bit reproducible across machines,
//! so CI holds them to the committed baseline exactly.
//!
//! [`parse_bench_doc`] + [`compare`] implement the gate itself, used by
//! the `bench_gate` binary against the committed `BENCH_baseline.json`.

use std::collections::BTreeMap;

use afs_core::Strategy;
use afs_sim::HardwareProfile;

use crate::{measure, Direction, PathKind};

/// Schema version stamped into the document.
pub const BENCH_SCHEMA: u64 = 1;

/// The strategies the gate tracks — all four of §4.
pub const GATE_STRATEGIES: [Strategy; 4] = [
    Strategy::Process,
    Strategy::ProcessControl,
    Strategy::DllThread,
    Strategy::DllOnly,
];

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

/// Client counts the gate tracks from the concurrency ablation. A subset
/// of [`crate::MUX_CLIENTS`]: the single-client cells pin the no-sharing
/// baseline cost, the 8-client cells pin the contended behaviour. (The
/// 32-client sweep stays in `figure6 --concurrency` / `ablation_mux`
/// where one slow cell does not slow every CI run.)
pub const GATE_MUX_CLIENTS: [usize; 2] = [1, 8];

/// Committed WAL batches behind the `store-recovery` cell: enough that
/// redo replay dominates the reopen, small enough to keep CI quick.
pub const STORE_RECOVERY_COMMITS: usize = 32;

/// Cold reopens sampled by the `store-recovery` cell. Every reopen
/// replays the same WAL under a fresh virtual clock, so the summary is
/// identical for any count ≥ 1; a handful guards against accidental
/// statefulness.
pub const STORE_RECOVERY_REOPENS: usize = 8;

/// Concurrent files in the gated fleet cell. Release builds gate the
/// headline ten-thousand-file point; debug builds (the in-repo test
/// suite) scale down to one thousand so `cargo test` stays quick — the
/// label carries the size, so a debug-produced document can never pass
/// silently against the release baseline.
pub fn gate_fleet_files() -> usize {
    if cfg!(debug_assertions) {
        1_000
    } else {
        10_000
    }
}

/// Measures every gate strategy (memory path, 128-byte sequential reads,
/// `ops` calls each), the gated concurrency cells (`mux-N-shared` /
/// `mux-N-private` sequential writes, see [`crate::measure_concurrency`]),
/// and the two executor cells — `fleet-Nk` (one read across
/// [`gate_fleet_files`] concurrently-open files) and `fleet-1-parity`
/// (one file, `ops` reads, a one-worker pool: the single-sentinel number
/// the refactor must not move) — plus the two durable-store cells:
/// `store-durable` (per-committed-write latency through a WAL-backed
/// null sentinel, [`crate::measure_store`]) and `store-recovery` (cold
/// reopen + redo replay, [`crate::measure_store_recovery`]) — and the
/// two batching cells, `ablation_batch-off` / `ablation_batch-on`
/// ([`crate::measure_batch_ablation`]: the same sequential-read cell
/// over the plain transport and over the submission/completion ring,
/// each carrying its crossings-per-op) — and the three cluster cells:
/// `cluster-100k` / `cluster-1m` (zipfian sessions over the replicated
/// fleet at the gated counts, see [`crate::measure_cluster`]; debug
/// builds scale to `cluster-1k` / `cluster-10k`) and
/// `cluster-rebalance` (post-join reads through a membership change,
/// [`crate::measure_cluster_rebalance`]) — and renders the result as
/// JSON. Panics if the batched and unbatched transcripts diverge, if
/// the cluster p99 is not flat across the session counts, or if a node
/// join moves more than `1/N + 5%` of the keys, so the gate proves
/// those claims on every run.
pub fn bench_json(ops: usize, profile: HardwareProfile) -> String {
    const BLOCK: usize = 128;
    // (label, mean, p50, p99, crossings-per-op). The crossings column is
    // only rendered for the batching and cluster cells; `compare` reads
    // the three latency fields (CI's `cmp` covers the rest).
    let mut entries: Vec<(String, f64, u64, u64, Option<f64>)> = Vec::new();
    for strategy in GATE_STRATEGIES {
        let m = measure(
            PathKind::Memory,
            strategy,
            Direction::Read,
            BLOCK,
            ops,
            profile.clone(),
        );
        let s = m.series.summarize();
        entries.push((
            strategy.label().to_owned(),
            s.mean_ns as f64,
            s.p50_ns,
            s.p99_ns,
            None,
        ));
    }
    for clients in GATE_MUX_CLIENTS {
        for shared in [true, false] {
            let m = crate::measure_concurrency(clients, shared, ops, profile.clone());
            let label = format!(
                "mux-{clients}-{}",
                if shared { "shared" } else { "private" }
            );
            entries.push((
                label,
                m.summary.mean_ns as f64,
                m.summary.p50_ns,
                m.summary.p99_ns,
                None,
            ));
        }
    }
    {
        let files = gate_fleet_files();
        let f = crate::measure_fleet(files, 1, None, profile.clone());
        entries.push((
            format!("fleet-{}k", files / 1000),
            f.summary.mean_ns as f64,
            f.summary.p50_ns,
            f.summary.p99_ns,
            None,
        ));
        let p = crate::measure_fleet(1, ops, Some(1), profile.clone());
        entries.push((
            "fleet-1-parity".to_owned(),
            p.summary.mean_ns as f64,
            p.summary.p50_ns,
            p.summary.p99_ns,
            None,
        ));
    }
    {
        let t = crate::measure_trace_ablation(ops, profile.clone());
        entries.push((
            "ablation_trace".to_owned(),
            t.traced.mean_ns as f64,
            t.traced.p50_ns,
            t.traced.p99_ns,
            None,
        ));
    }
    {
        let d = crate::measure_store(ops, profile.clone());
        entries.push((
            "store-durable".to_owned(),
            d.summary.mean_ns as f64,
            d.summary.p50_ns,
            d.summary.p99_ns,
            None,
        ));
        let r = crate::measure_store_recovery(
            STORE_RECOVERY_COMMITS,
            STORE_RECOVERY_REOPENS,
            profile.clone(),
        );
        entries.push((
            "store-recovery".to_owned(),
            r.summary.mean_ns as f64,
            r.summary.p50_ns,
            r.summary.p99_ns,
            None,
        ));
    }
    {
        // The cluster cells: per-op latency over the replicated fleet at
        // the two gated session counts, plus the rebalance cell. The
        // `crossings_per_op` column carries network messages per op
        // (RPCs + replication casts) — the cluster's boundary-crossing
        // count. Three claims are asserted on every gate run: p99 stays
        // flat (within 10%) from 1k sessions to the largest gated count,
        // a node join moves at most `1/N + 5%` of the primaries, and
        // every key stays readable at its session's read-your-writes
        // floor through the join (measure_cluster_rebalance panics
        // otherwise).
        let reference = crate::measure_cluster(1_000, profile.clone());
        for clients in crate::gate_cluster_clients() {
            let c = crate::measure_cluster(clients, profile.clone());
            assert!(
                (c.summary.p99_ns as f64 - reference.summary.p99_ns as f64).abs()
                    <= reference.summary.p99_ns as f64 * 0.10,
                "cluster p99 must stay flat at a fixed fleet size: \
                 {clients} clients {} ns vs 1k clients {} ns",
                c.summary.p99_ns,
                reference.summary.p99_ns
            );
            entries.push((
                crate::cluster_cell_label(clients),
                c.summary.mean_ns as f64,
                c.summary.p50_ns,
                c.summary.p99_ns,
                Some(c.messages_per_op),
            ));
        }
        let r = crate::measure_cluster_rebalance(crate::CLUSTER_REBALANCE_KEYS, profile.clone());
        assert!(
            (r.moved as f64) <= r.moved_limit,
            "node join moved {} of {} keys, over the 1/N + 5% bound {:.1}",
            r.moved,
            r.keys,
            r.moved_limit
        );
        entries.push((
            "cluster-rebalance".to_owned(),
            r.summary.mean_ns as f64,
            r.summary.p50_ns,
            r.summary.p99_ns,
            Some(r.messages_per_op),
        ));
    }
    {
        let b = crate::measure_batch_ablation(ops, profile.clone());
        assert!(
            b.transcripts_match,
            "batched and unbatched reads must return identical transcripts"
        );
        entries.push((
            "ablation_batch-off".to_owned(),
            b.unbatched.mean_ns as f64,
            b.unbatched.p50_ns,
            b.unbatched.p99_ns,
            Some(b.crossings_per_op_unbatched),
        ));
        entries.push((
            "ablation_batch-on".to_owned(),
            b.batched.mean_ns as f64,
            b.batched.p50_ns,
            b.batched.p99_ns,
            Some(b.crossings_per_op_batched),
        ));
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"schema\": {BENCH_SCHEMA},\n  \"ops\": {ops},\n  \"profile\": \"{}\",\n  \"strategies\": {{\n",
        profile.name
    ));
    for (i, (label, mean, p50, p99, cross)) in entries.iter().enumerate() {
        let extra = cross
            .map(|c| format!(", \"crossings_per_op\": {c:.2}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "    \"{label}\": {{\"mean_ns\": {mean:.1}, \"p50_ns\": {p50}, \"p99_ns\": {p99}{extra}}}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
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

    #[test]
    fn bench_json_roundtrips_through_the_parser() {
        let doc = bench_json(20, HardwareProfile::pentium_ii_300());
        assert!(afs_telemetry::json_is_valid(&doc), "valid JSON: {doc}");
        let parsed = parse_bench_doc(&doc).expect("parse");
        assert_eq!(parsed.ops, 20);
        assert_eq!(
            parsed.strategies.len(),
            GATE_STRATEGIES.len() + 2 * GATE_MUX_CLIENTS.len() + 2 + 1 + 2 + 2 + 3,
            "four strategies, shared/private per gated client count, two fleet cells, \
             the trace ablation, two store cells, two batching cells, three cluster cells"
        );
        for strategy in GATE_STRATEGIES {
            let s = parsed.strategies.get(strategy.label()).expect("strategy");
            assert!(s.p99_ns >= s.p50_ns, "percentiles ordered");
            assert!(s.mean_ns > 0.0);
        }
        for clients in GATE_MUX_CLIENTS {
            for mode in ["shared", "private"] {
                let label = format!("mux-{clients}-{mode}");
                let s = parsed.strategies.get(&label).expect("mux cell");
                assert!(s.p99_ns >= s.p50_ns, "percentiles ordered for {label}");
            }
        }
        let fleet_label = format!("fleet-{}k", gate_fleet_files() / 1000);
        for label in [fleet_label.as_str(), "fleet-1-parity"] {
            let s = parsed.strategies.get(label).expect("fleet cell");
            assert!(s.p99_ns >= s.p50_ns, "percentiles ordered for {label}");
        }
        let t = parsed.strategies.get("ablation_trace").expect("trace cell");
        assert!(
            t.p99_ns >= t.p50_ns,
            "percentiles ordered for ablation_trace"
        );
        for label in ["store-durable", "store-recovery"] {
            let s = parsed.strategies.get(label).expect("store cell");
            assert!(s.p99_ns >= s.p50_ns, "percentiles ordered for {label}");
            assert!(s.mean_ns > 0.0, "durability must cost virtual time");
        }
        for label in ["ablation_batch-off", "ablation_batch-on"] {
            let s = parsed.strategies.get(label).expect("batch cell");
            assert!(s.p99_ns >= s.p50_ns, "percentiles ordered for {label}");
        }
        let mut cluster_labels: Vec<String> = crate::gate_cluster_clients()
            .iter()
            .map(|&c| crate::cluster_cell_label(c))
            .collect();
        cluster_labels.push("cluster-rebalance".to_owned());
        for label in &cluster_labels {
            let s = parsed.strategies.get(label.as_str()).expect("cluster cell");
            assert!(s.p99_ns >= s.p50_ns, "percentiles ordered for {label}");
            assert!(s.mean_ns > 0.0, "cluster ops must cost virtual time");
        }
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
    fn compare_passes_identical_documents() {
        let doc = parse_bench_doc(&bench_json(10, HardwareProfile::pentium_ii_300())).expect("doc");
        assert!(compare(&doc, &doc).is_empty());
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
