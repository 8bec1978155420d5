//! The measured document: every cell `figure6` can print, measured once,
//! and the exact comparison CI runs against the committed baseline.
//!
//! [`grid`] measures every cell — the six Figure 6 panels and the
//! SimpleProcess column, the concurrency, fleet, batching and cluster
//! panels, and the store and trace-ablation cells — into one [`BenchDoc`];
//! [`bench_json`] writes it as a small JSON document and
//! [`parse_bench_doc`] reads it back, so what a view prints is what the
//! gate holds. Because every sample is *virtual* time from the calibrated
//! cost model, the numbers are bit-for-bit reproducible across machines,
//! so CI holds every field of every cell to the committed baseline
//! exactly ([`compare`], the `bench_gate` binary).

use std::collections::BTreeMap;
use std::fmt::Write;

use afs_core::Strategy;
use afs_sim::{HardwareProfile, Summary};

use crate::cluster::{
    measure_cluster, measure_cluster_mirror, measure_cluster_rebalance, ClusterMeasurement,
    CLUSTER_MIRROR_OPS, CLUSTER_REBALANCE_KEYS, CLUSTER_SESSIONS,
};
use crate::{
    measure, measure_baseline, measure_batched, measure_concurrency, measure_fleet,
    measure_instrumented, measure_store, measure_store_recovery, Direction, Measurement, PathKind,
    BLOCK_SIZES, FLEET_SIZES, MUX_CLIENTS,
};

/// Schema version stamped into the document.
pub const BENCH_SCHEMA: u64 = 2;

/// The crossings count: protection-domain crossings (process plus thread
/// switches) per operation, or network messages per operation on the
/// cluster cells. The gate has always held it to hundredths.
pub const CROSSINGS: &str = "crossings_per_op";

/// One measured cell: its latency summary and the counts its views print.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Mean per-op latency.
    pub mean_ns: f64,
    /// Median per-op latency.
    pub p50_ns: u64,
    /// 99th-percentile per-op latency.
    pub p99_ns: u64,
    /// Every other field, by name: per-op counts (`*_per_op`) and the
    /// run totals some panels print (`failovers`, `sentinels`, …).
    pub counts: BTreeMap<String, f64>,
}

impl Cell {
    fn new(s: &Summary) -> Cell {
        Cell {
            mean_ns: s.mean_ns as f64,
            p50_ns: s.p50_ns,
            p99_ns: s.p99_ns,
            counts: BTreeMap::new(),
        }
    }

    /// Adds a count, holding [`CROSSINGS`] to the hundredths the document
    /// writes, so a cell holds exactly what its document line holds.
    fn with(mut self, field: &str, value: f64) -> Cell {
        let value = if field == CROSSINGS {
            (value * 100.0).round() / 100.0
        } else {
            value
        };
        self.counts.insert(field.to_owned(), value);
        self
    }

    /// A field by name — `mean_ns`, `p50_ns`, `p99_ns` or a count — if the
    /// cell has it.
    pub fn field(&self, name: &str) -> Option<f64> {
        self.fields().find(|(f, _)| *f == name).map(|(_, v)| v)
    }

    /// Every field of the cell in document order, as numbers.
    pub fn fields(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        [
            ("mean_ns", self.mean_ns),
            ("p50_ns", self.p50_ns as f64),
            ("p99_ns", self.p99_ns as f64),
        ]
        .into_iter()
        .chain(self.counts.iter().map(|(k, v)| (k.as_str(), *v)))
    }
}

/// A measured or parsed document: the ops count, the hardware profile and
/// every cell by name.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Calls measured per cell that takes a count.
    pub ops: u64,
    /// Name of the hardware profile the cells were measured under.
    pub profile: String,
    /// The cells, keyed by name (the key the document has always used).
    pub strategies: BTreeMap<String, Cell>,
}

/// Committed WAL batches behind the `store-recovery` cell: enough that
/// redo replay dominates the reopen, small enough to keep CI quick.
pub const STORE_RECOVERY_COMMITS: usize = 32;

/// Cold reopens sampled by the `store-recovery` cell. Every reopen
/// replays the same WAL under a fresh virtual clock, so the summary is
/// identical for any count ≥ 1; a handful guards against accidental
/// statefulness.
pub const STORE_RECOVERY_REOPENS: usize = 8;

/// The name of one Figure 6 cell: `series` is a strategy label or
/// `"baseline"`. The memory-path read at 128 bytes of each strategy is
/// the gate's headline cell and keeps the bare label it has always been
/// gated under (`SimpleProcess`, `Process`, `Thread`, `DLL`).
pub fn fig6_cell(path: PathKind, direction: Direction, series: &str, block: usize) -> String {
    if (path, direction, block) == (PathKind::Memory, Direction::Read, 128) && series != "baseline"
    {
        series.to_owned()
    } else {
        format!("{}-{}-{series}-{block}", path.panel(), direction.label())
    }
}

/// The name of one concurrency cell.
pub fn mux_cell(clients: usize, shared: bool) -> String {
    let sharing = if shared { "shared" } else { "private" };
    format!("mux-{clients}-{sharing}")
}

/// A count as cell names carry it: 100, 1k, 10k, 100k, 1m.
pub fn count_label(n: usize) -> String {
    match n {
        n if n >= 1_000_000 && n % 1_000_000 == 0 => format!("{}m", n / 1_000_000),
        n if n >= 1_000 && n % 1_000 == 0 => format!("{}k", n / 1_000),
        n => n.to_string(),
    }
}

/// A cell measured through the cost model's counters: its latency and its
/// per-op crossings, syscalls, copies, copy bytes, and process and thread
/// switches.
///
/// Only a read of a command strategy (or of the baseline) carries counts:
/// the application waits out its round trip, so everything the read
/// charges is charged inside the op. A write is posted, and a §4.1 stream
/// is pumped eagerly; what the sentinel's side charges for them — how many
/// pipe reads a burst of writes takes — depends on the real schedule, so
/// those cells carry their latency alone.
fn counted(m: &Measurement) -> Cell {
    let c = &m.counters;
    let per = |v: u64| v as f64 / m.series.len().max(1) as f64;
    Cell::new(&m.series.summarize())
        .with(CROSSINGS, per(c.process_switches + c.thread_switches))
        .with("syscalls_per_op", per(c.syscalls))
        .with("copies_per_op", per(c.copies))
        .with("copy_bytes_per_op", per(c.pipe_copy_bytes + c.memcpy_bytes))
        .with("process_switches_per_op", per(c.process_switches))
        .with("thread_switches_per_op", per(c.thread_switches))
}

/// The cell of one Figure 6 point: [`counted`] when it is a read of a
/// command strategy or of the baseline (`commands`), its latency alone
/// otherwise.
fn read_counted(direction: Direction, commands: bool, m: &Measurement) -> Cell {
    if commands && direction == Direction::Read {
        counted(m)
    } else {
        Cell::new(&m.series.summarize())
    }
}

/// A cluster cell: latency, messages per op and the fleet gauges.
fn clustered(m: &ClusterMeasurement) -> Cell {
    let g = &m.cluster;
    Cell::new(&m.summary)
        .with(CROSSINGS, m.messages_per_op)
        .with("failovers", g.read_failovers as f64)
        .with("replications", g.replications as f64)
        .with("stale_waits", g.stale_waits as f64)
}

/// Measures every cell `figure6` can print, each exactly once (`ops` calls
/// each, where the cell takes a count; `workers` pins the fleet cells'
/// pool, which moves no virtual number). Panics if a claim the document
/// carries fails: batched reads that do not return the seeded bytes, a
/// cluster p99 that is not flat across the session counts, or a node join
/// that moves more than `1/N + 5%` of the keys.
///
/// Not measured: the SimpleProcess reads at 2048 bytes. A §4.1 stream is
/// a pipe and `ReadFile` returns whatever is buffered, so how many reads —
/// and syscalls — a block takes depends on the real schedule.
pub fn grid(ops: usize, profile: &HardwareProfile, workers: Option<usize>) -> BenchDoc {
    let mut cells = BTreeMap::new();
    let mut put = |name: &str, cell: Cell| {
        let again = cells.insert(name.to_owned(), cell);
        assert!(again.is_none(), "cell `{name}` measured twice");
    };
    let p = || profile.clone();
    for path in PathKind::ALL {
        for direction in Direction::BOTH {
            for block in BLOCK_SIZES {
                for strategy in [
                    Strategy::Process,
                    Strategy::ProcessControl,
                    Strategy::DllThread,
                    Strategy::DllOnly,
                ] {
                    if (strategy, direction, block) == (Strategy::Process, Direction::Read, 2048) {
                        continue;
                    }
                    let m = measure(path, strategy, direction, block, ops, p());
                    let cell = read_counted(direction, strategy != Strategy::Process, &m);
                    put(&fig6_cell(path, direction, strategy.label(), block), cell);
                }
                let m = measure_baseline(path, direction, block, ops, p());
                let cell = read_counted(direction, true, &m);
                put(&fig6_cell(path, direction, "baseline", block), cell);
            }
        }
    }
    for clients in MUX_CLIENTS {
        for shared in [true, false] {
            let m = measure_concurrency(clients, shared, ops, p());
            let crossings = m.counters.process_switches + m.counters.thread_switches;
            let cell = Cell::new(&m.series.summarize()).with("crossings", crossings as f64);
            put(&mux_cell(clients, shared), cell);
        }
    }
    let fleet = |files, ops, workers| {
        let m = measure_fleet(files, ops, workers, p());
        Cell::new(&m.summary).with("sentinels", m.fleet.sentinels as f64)
    };
    for &files in FLEET_SIZES {
        put(
            &format!("fleet-{}", count_label(files)),
            fleet(files, 1, workers),
        );
    }
    // One file on a one-worker pool: the single-sentinel number
    // scheduling must not move.
    put("fleet-1-parity", fleet(1, ops, Some(1)));
    put("ablation_trace", counted(&measure_instrumented(ops, p())));
    put("ablation_batch-on", counted(&measure_batched(ops, p())));
    let durable = measure_store(ops, p()).series.summarize();
    put("store-durable", Cell::new(&durable));
    let recovery = measure_store_recovery(STORE_RECOVERY_COMMITS, STORE_RECOVERY_REOPENS, p());
    put("store-recovery", Cell::new(&recovery.summarize()));
    for &sessions in CLUSTER_SESSIONS {
        let cell = clustered(&measure_cluster(sessions, p()));
        put(&format!("cluster-{}", count_label(sessions)), cell);
    }
    let mirror = measure_cluster_mirror(CLUSTER_MIRROR_OPS, p());
    put("cluster-mirror", clustered(&mirror));
    // measure_cluster_rebalance itself panics unless every key stays
    // readable at its session's read-your-writes floor.
    let r = measure_cluster_rebalance(CLUSTER_REBALANCE_KEYS, p());
    assert!(
        (r.moved as f64) <= r.moved_limit,
        "node join moved {} of {CLUSTER_REBALANCE_KEYS} keys, over the 1/N + 5% bound {:.1}",
        r.moved,
        r.moved_limit
    );
    let cell = clustered(&r.reads)
        .with("moved", r.moved as f64)
        .with("moved_bound", r.moved_limit);
    put("cluster-rebalance", cell);

    let doc = BenchDoc {
        ops: ops as u64,
        profile: profile.name.to_string(),
        strategies: cells,
    };
    let p99 = |sessions| doc.strategies[&format!("cluster-{}", count_label(sessions))].p99_ns;
    let reference = p99(CLUSTER_SESSIONS[0]);
    for &sessions in &CLUSTER_SESSIONS[1..] {
        assert!(
            (p99(sessions) as f64 - reference as f64).abs() <= reference as f64 * 0.10,
            "cluster p99 must stay flat at a fixed fleet size: {sessions} sessions {} ns vs \
             {} sessions {reference} ns",
            p99(sessions),
            CLUSTER_SESSIONS[0],
        );
    }
    doc
}

/// Writes the document: one line per cell, in name order. Means keep one
/// decimal and [`CROSSINGS`] two, as the gate has always written them;
/// every other count is written in full, so parsing it back yields the
/// same number.
pub fn bench_json(doc: &BenchDoc) -> String {
    let mut out = format!(
        "{{\n  \"schema\": {BENCH_SCHEMA},\n  \"ops\": {},\n  \"profile\": \"{}\",\n  \"strategies\": {{\n",
        doc.ops, doc.profile
    );
    for (i, (name, cell)) in doc.strategies.iter().enumerate() {
        let mut line = format!(
            "    \"{name}\": {{\"mean_ns\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}",
            cell.mean_ns, cell.p50_ns, cell.p99_ns
        );
        for (field, value) in &cell.counts {
            let _ = if field == CROSSINGS {
                write!(line, ", \"{field}\": {value:.2}")
            } else {
                write!(line, ", \"{field}\": {value}")
            };
        }
        let comma = if i + 1 < doc.strategies.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!("{line}}}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

/// Parses a [`bench_json`] document.
///
/// `ops`, `profile` and every cell's `mean_ns`/`p50_ns`/`p99_ns` are
/// required; every other field of a cell must be a number and is read
/// into its counts.
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
    let profile = obj
        .get("profile")
        .and_then(json::Value::as_str)
        .ok_or("missing string `profile`")?
        .to_owned();
    let cells = obj
        .get("strategies")
        .ok_or("missing `strategies`")?
        .as_object()
        .ok_or("`strategies` must be an object")?;
    let mut strategies = BTreeMap::new();
    for (label, entry) in cells {
        let entry = entry
            .as_object()
            .ok_or_else(|| format!("cell `{label}` must be an object"))?;
        let mut counts = BTreeMap::new();
        for (field, value) in entry {
            let value = value
                .as_f64()
                .ok_or_else(|| format!("cell `{label}` field `{field}` must be a number"))?;
            counts.insert(field.clone(), value);
        }
        let mut take = |name: &str| {
            counts
                .remove(name)
                .ok_or_else(|| format!("cell `{label}` missing numeric `{name}`"))
        };
        let (mean_ns, p50_ns, p99_ns) = (take("mean_ns")?, take("p50_ns")?, take("p99_ns")?);
        strategies.insert(
            label.clone(),
            Cell {
                mean_ns,
                p50_ns: p50_ns as u64,
                p99_ns: p99_ns as u64,
                counts,
            },
        );
    }
    if strategies.is_empty() {
        return Err("no cells in document".to_owned());
    }
    Ok(BenchDoc {
        ops,
        profile,
        strategies,
    })
}

/// Compares `current` against `baseline` with zero tolerance — every cell
/// is virtual time, reproducible to the bit. Returns `(cell, what)`, where
/// `what` starts with the field's name: one entry per field of every cell
/// that differs or is missing on either side, per cell the baseline has
/// and the current run lacks (a silently dropped series must not pass the
/// gate), and per cell only the current run has. A differing `ops` or
/// `profile` is reported against the cell `(document)`. Empty means the
/// gate passes.
pub fn compare(baseline: &BenchDoc, current: &BenchDoc) -> Vec<(String, String)> {
    let mut differences = Vec::new();
    let mut differs = |cell: &str, what: String| differences.push((cell.to_owned(), what));
    if current.ops != baseline.ops {
        let (cur, base) = (current.ops, baseline.ops);
        differs("(document)", format!("ops {cur} (baseline {base})"));
    }
    if current.profile != baseline.profile {
        let (cur, base) = (&current.profile, &baseline.profile);
        differs("(document)", format!("profile {cur} (baseline {base})"));
    }
    for (name, base) in &baseline.strategies {
        let Some(cur) = current.strategies.get(name) else {
            differs(name, "missing from current run".to_owned());
            continue;
        };
        for (field, b) in base.fields() {
            match cur.field(field) {
                Some(c) if c == b => {}
                Some(c) => differs(name, format!("{field} {c} (baseline {b})")),
                None => differs(name, format!("{field} missing from current run")),
            }
        }
        for (field, _) in cur.fields() {
            if base.field(field).is_none() {
                differs(name, format!("{field} not in baseline"));
            }
        }
    }
    for name in current.strategies.keys() {
        if !baseline.strategies.contains_key(name) {
            differs(name, "not in baseline".to_owned());
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
    use crate::view::render;

    fn doc(cells: &str) -> BenchDoc {
        let text = format!(r#"{{"ops": 10, "profile": "p", "strategies": {{{cells}}}}}"#);
        parse_bench_doc(&text).expect("document")
    }

    /// The grid is measured once per call and every view reads the
    /// document: the grid, written and parsed back, is the same grid, and
    /// renders the same text byte for byte — so no view can print a
    /// number the gate does not hold.
    #[test]
    fn the_document_is_the_grid_and_the_views_read_only_it() {
        let grid = grid(20, &HardwareProfile::pentium_ii_300(), None);
        let text = bench_json(&grid);
        assert!(afs_telemetry::json_is_valid(&text), "valid JSON: {text}");
        let parsed = parse_bench_doc(&text).expect("parse");
        assert_eq!(parsed, grid, "the document holds exactly the grid");
        assert_eq!(bench_json(&parsed), text, "writing is canonical");
        assert_eq!(render(&parsed), render(&grid));
        assert!(compare(&parsed, &grid).is_empty());
        assert_eq!(parsed.ops, 20);
        for (label, cell) in &parsed.strategies {
            assert!(
                cell.p99_ns >= cell.p50_ns,
                "percentiles ordered for {label}"
            );
            assert!(cell.mean_ns > 0.0, "{label} must cost virtual time");
        }
        let thread = &grid.strategies["Thread"];
        assert_eq!(
            thread.counts, grid.strategies["ablation_trace"].counts,
            "tracing charges the §4 cost model nothing"
        );
        assert_eq!(thread.field(CROSSINGS), Some(2.0));
    }

    #[test]
    fn bench_json_is_deterministic() {
        let profile = HardwareProfile::pentium_ii_300();
        let a = bench_json(&grid(10, &profile, None));
        let b = bench_json(&grid(10, &profile, Some(1)));
        assert_eq!(a, b, "virtual-clock measurements are reproducible");
    }

    /// The committed baseline is this build's grid at `--ops 200`, byte
    /// for byte (debug builds scale the fleet and cluster cells down and
    /// name them so; only a release build measures the committed cells).
    #[cfg(not(debug_assertions))]
    #[test]
    fn the_grid_is_the_committed_document() {
        let baseline = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline.json"
        ));
        let grid = bench_json(&grid(200, &HardwareProfile::pentium_ii_300(), None));
        assert!(
            grid == baseline,
            "a cell moves together with BENCH_baseline.json"
        );
    }

    #[test]
    fn compare_names_every_field_that_moved_and_every_cell_missing_or_extra() {
        let baseline = doc(r#"
            "DLL": {"mean_ns": 100.0, "p50_ns": 100, "p99_ns": 100},
            "Process": {"mean_ns": 300.0, "p50_ns": 300, "p99_ns": 300, "copies_per_op": 2},
            "Thread": {"mean_ns": 200.0, "p50_ns": 200, "p99_ns": 200}"#);
        let current = doc(r#"
            "DLL": {"mean_ns": 100.5, "p50_ns": 100, "p99_ns": 99, "sentinels": 1},
            "Process": {"mean_ns": 300.0, "p50_ns": 300, "p99_ns": 300},
            "mux-1-shared": {"mean_ns": 1.0, "p50_ns": 1, "p99_ns": 1}"#);
        let differences: Vec<String> = compare(&baseline, &current)
            .iter()
            .map(|(cell, what)| format!("{cell}: {what}"))
            .collect();
        assert_eq!(
            differences,
            [
                "DLL: mean_ns 100.5 (baseline 100)",
                "DLL: p99_ns 99 (baseline 100)",
                "DLL: sentinels not in baseline",
                "Process: copies_per_op missing from current run",
                "Thread: missing from current run",
                "mux-1-shared: not in baseline",
            ],
            "an improvement is a difference too: the baseline is regenerated on purpose"
        );
        let mut other = current.clone();
        other.ops = 20;
        other.profile = "modern".to_owned();
        let document: Vec<_> = compare(&current, &other)
            .into_iter()
            .map(|(cell, what)| format!("{cell}: {what}"))
            .collect();
        assert_eq!(
            document,
            [
                "(document): ops 20 (baseline 10)",
                "(document): profile modern (baseline p)"
            ]
        );
    }

    /// A count the views print is gated like a latency: a moved
    /// `crossings_per_op` alone fails the gate, naming its cell and field.
    #[test]
    fn compare_gates_a_count_that_moved_alone() {
        let cells = |crossings: &str| {
            doc(&format!(
                r#""cluster-1k": {{"mean_ns": 5.0, "p50_ns": 5, "p99_ns": 5, "crossings_per_op": {crossings}}},
                "Thread": {{"mean_ns": 2.0, "p50_ns": 2, "p99_ns": 2, "crossings_per_op": 2.00}}"#
            ))
        };
        assert_eq!(
            compare(&cells("1.10"), &cells("1.20")),
            [(
                "cluster-1k".to_owned(),
                "crossings_per_op 1.2 (baseline 1.1)".to_owned()
            )]
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        let cell = r#"{"mean_ns": 1.0, "p50_ns": 1, "p99_ns": 1}"#;
        assert!(parse_bench_doc("").is_err());
        assert!(parse_bench_doc("[1,2]").is_err());
        assert!(parse_bench_doc(r#"{"ops": 5, "profile": "p"}"#).is_err());
        assert!(parse_bench_doc(r#"{"ops": 5, "profile": "p", "strategies": {}}"#).is_err());
        let one = |top: &str, cell: &str| format!(r#"{{{top}"strategies": {{"DLL": {cell}}}}}"#);
        assert!(parse_bench_doc(&one(r#""ops": 5, "profile": "p", "#, cell)).is_ok());
        assert!(parse_bench_doc(&one(r#""ops": 5, "#, cell)).is_err());
        assert!(
            parse_bench_doc(&one(r#""ops": 5, "profile": "p", "#, r#"{"p99_ns": 1}"#)).is_err()
        );
        let text = r#"{"mean_ns": 1.0, "p50_ns": 1, "p99_ns": 1, "note": "x"}"#;
        assert!(parse_bench_doc(&one(r#""ops": 5, "profile": "p", "#, text)).is_err());
    }

    #[test]
    fn cell_names_carry_their_counts() {
        let names: Vec<String> = [100, 1_000, 10_000, 100_000, 1_000_000]
            .into_iter()
            .map(count_label)
            .collect();
        assert_eq!(names, ["100", "1k", "10k", "100k", "1m"]);
        assert_eq!(
            fig6_cell(PathKind::Memory, Direction::Read, "Thread", 128),
            "Thread"
        );
        assert_eq!(
            fig6_cell(PathKind::Memory, Direction::Read, "baseline", 128),
            "c-read-baseline-128"
        );
        assert_eq!(
            fig6_cell(PathKind::Remote, Direction::Write, "DLL", 2048),
            "a-write-DLL-2048"
        );
    }
}
