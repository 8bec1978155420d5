//! The CI bench-regression gate.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--summary FILE]
//! ```
//!
//! Both files are `figure6 --json` documents of virtual-time numbers,
//! reproducible to the bit, so the rule is exact: the gate prints one
//! line per field of every cell that differs from the baseline (and per
//! cell missing from either side) and exits non-zero on any. A change
//! that moves a cell on purpose regenerates the baseline in the same PR.
//! `--summary FILE` appends the per-cell comparison as a GitHub-flavoured
//! markdown table — CI points it at `$GITHUB_STEP_SUMMARY` so the moved
//! cells are marked on the run page.

use std::io::Write;
use std::process::ExitCode;

use afs_bench::{compare, parse_bench_doc, BenchDoc};

/// Renders the comparison as a markdown table: one row per cell of either
/// document, marked when any of `differences` names it.
fn markdown_summary(
    baseline: &BenchDoc,
    current: &BenchDoc,
    differences: &[(String, String)],
) -> String {
    let mut out = format!(
        "## Bench gate\n\nEvery field of every cell equals the baseline, exactly \
         ({} ops per cell).\n\n\
         | cell | baseline mean / p50 / p99 (ns) | current mean / p50 / p99 (ns) | status |\n\
         |---|---:|---:|---|\n",
        current.ops
    );
    let cell = |doc: &BenchDoc, label: &str| match doc.strategies.get(label) {
        Some(s) => format!("{:.1} / {} / {}", s.mean_ns, s.p50_ns, s.p99_ns),
        None => "—".to_owned(),
    };
    let labels: std::collections::BTreeSet<&String> = baseline
        .strategies
        .keys()
        .chain(current.strategies.keys())
        .collect();
    for label in labels {
        let moved: Vec<&str> = differences
            .iter()
            .filter(|(cell, _)| cell == label)
            .map(|(_, what)| what.as_str())
            .collect();
        let status = if moved.is_empty() {
            "✅".to_owned()
        } else {
            format!("❌ {}", moved.join("; "))
        };
        out.push_str(&format!(
            "| {label} | {} | {} | {status} |\n",
            cell(baseline, label),
            cell(current, label)
        ));
    }
    out.push('\n');
    out
}

fn die(msg: &str) -> ExitCode {
    eprintln!("bench_gate: {msg}");
    eprintln!("usage: bench_gate <baseline.json> <current.json> [--summary FILE]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut summary_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--summary" => {
                let Some(value) = iter.next() else {
                    return die("--summary needs an output path");
                };
                summary_path = Some(value.clone());
            }
            other if other.starts_with("--") => {
                return die(&format!("unknown flag {other}"));
            }
            path => paths.push(path.to_owned()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return die("expected exactly two file arguments");
    };

    let load = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_bench_doc(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = match load(baseline_path) {
        Ok(doc) => doc,
        Err(e) => return die(&e),
    };
    let current = match load(current_path) {
        Ok(doc) => doc,
        Err(e) => return die(&e),
    };

    let differences = compare(&baseline, &current);
    if let Some(path) = summary_path {
        // Append rather than truncate: $GITHUB_STEP_SUMMARY accumulates
        // sections from every step in the job.
        let table = markdown_summary(&baseline, &current, &differences);
        let write = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(table.as_bytes()));
        if let Err(e) = write {
            return die(&format!("cannot write summary {path}: {e}"));
        }
    }
    if differences.is_empty() {
        println!(
            "bench gate: PASS ({} cells, every field equal)",
            current.strategies.len()
        );
        ExitCode::SUCCESS
    } else {
        for (cell, what) in &differences {
            eprintln!("bench gate: MOVED — {cell}: {what}");
        }
        ExitCode::FAILURE
    }
}
