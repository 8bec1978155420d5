//! Output: the one-line result of a run, the full `result.json` of all
//! workloads, and the comparison of two result files.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use afs_bench::gate::json::{self, Value};

use crate::bench::Outcome;
use crate::host;
use crate::spec::{self, Better, MetricSpec, WorkloadSpec};

fn metric_spec(name: &str) -> Option<&'static MetricSpec> {
    spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .find(|m| m.name == name)
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = metric_spec(name).map_or("", |m| m.unit);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn info_json(workload: &WorkloadSpec, seed: u64, trace: bool, outcome: &Outcome) -> String {
    let pinned: Vec<String> = outcome.pinned.iter().map(usize::to_string).collect();
    let spreads: Vec<String> = outcome
        .spreads
        .iter()
        .map(|(name, share)| format!("\"{name}\": {share}"))
        .collect();
    let host: Vec<String> = outcome
        .host
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    let op_counts: Vec<String> = outcome
        .op_counts
        .iter()
        .map(|(what, count)| format!("\"{what}\": {count}"))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"clients\": {}, \
         \"pinned_cpus\": [{}], \"unpinned\": {}, \"ops_hash\": \"{:016x}\", \
         \"op_counts\": {{{}}}, \"host\": {{{}}}, \"spreads\": {{{}}}}}",
        workload.name,
        u8::from(trace),
        workload.clients,
        pinned.join(", "),
        outcome.pinned.is_empty(),
        outcome.ops_hash,
        op_counts.join(", "),
        host.join(", "),
        spreads.join(", ")
    )
}

/// Prints every metric by name with its unit, then an `info:` line, then
/// — last — the result object.
pub fn print_outcome(workload: &WorkloadSpec, seed: u64, trace: bool, outcome: &Outcome) {
    for complaint in &outcome.complaints {
        eprintln!("{}: FAILED CHECK: {complaint}", workload.name);
    }
    for (name, value) in &outcome.metrics {
        let unit = metric_spec(name).map_or("", |m| m.unit);
        println!("{:<20} {name:<40} {value:>16.4} {unit}", workload.name);
    }
    println!("info: {}", info_json(workload, seed, trace, outcome));
    println!("{}", result_json(outcome));
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One child pass: its `info:` object and result object, raw.
struct Pass {
    info: String,
    result: String,
    ok: bool,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Pass {
    let failed = |why: String| {
        eprintln!("{workload}: {why}");
        Pass {
            info: "null".to_owned(),
            result: "null".to_owned(),
            ok: false,
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("cannot find own executable: {e}")),
    };
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(output) => output,
        Err(e) => return failed(format!("cannot start child: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    let Some(result) = lines.last().filter(|l| l.starts_with('{')) else {
        return failed(format!("child printed no result ({})", output.status));
    };
    let info = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("info: "))
        .unwrap_or("null");
    let parsed = json::parse(result).ok();
    let correct = parsed
        .as_ref()
        .and_then(Value::as_object)
        .is_some_and(|o| o.get("correct") == Some(&Value::Bool(true)));
    let unpinned = info.contains("\"unpinned\": true");
    if unpinned {
        eprintln!("{workload}: ran unpinned");
    }
    Pass {
        info: info.to_owned(),
        result: (*result).to_owned(),
        ok: output.status.success() && correct && !unpinned,
    }
}

/// Runs both passes of every workload, each in its own child process,
/// and writes `<out_dir>/result.json`. Fails if any op failed, any
/// check (the reference check included) did not hold, or a child ran
/// unpinned.
pub fn run_all(seed: u64, seconds: f64, out_dir: &Path) -> ExitCode {
    let env = format!(
        "{{\"nproc\": {}, \"loadavg_1m\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\"}}",
        host::allowed_cpus().len(),
        host::loadavg_1m(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
    );
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for workload in spec::WORKLOADS {
        let dark = run_child(workload.name, seed, seconds, false, out_dir);
        let traced = run_child(workload.name, seed, seconds, true, out_dir);
        all_ok &= dark.ok && traced.ok;
        workloads.push(format!(
            "\"{}\": {{\"dark\": {{\"info\": {}, \"result\": {}}}, \
             \"traced\": {{\"info\": {}, \"result\": {}}}}}",
            workload.name, dark.info, dark.result, traced.info, traced.result
        ));
    }
    let doc = format!(
        "{{\"env\": {env}, \"seed\": {seed}, \"seconds\": {seconds}, \"workloads\": {{\n{}\n}}}}\n",
        workloads.join(",\n")
    );
    let path = out_dir.join("result.json");
    let written = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, doc));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            all_ok = false;
        }
    }
    if all_ok {
        println!("all workloads correct, pinned, and reference-checked");
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: see the messages above");
        ExitCode::FAILURE
    }
}

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound.
    Ok,
    /// Worse than the bound, and the runs are steadier than the bound.
    Regressed,
    /// Worse than the bound, but the within-run spread is wider than
    /// the bound, so one pair of runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against base `a`.
pub fn judge(better: Better, bound: f64, spread: f64, a: f64, b: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worse_by <= bound * a.abs() {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

/// Per-layer metrics `compare` also pins, because they repeat:
/// `(name, bound, bound on ring-batch-read)`. The ring path's virtual
/// time is not reproducible yet (ROADMAP 1(a)).
const PINNED_LAYER_ROWS: &[(&str, f64, f64)] = &[
    ("sim.mean_ns", 0.0, 0.05),
    ("sim.p50_ns", 0.0, 0.05),
    ("sim.p99_ns", 0.0, 0.05),
    ("bench.failed_ops_share", 0.0, 0.0),
    ("bench.host_allocs_per_op", 0.02, 0.02),
];

fn dig<'a>(doc: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(doc, |v, key| v.as_object()?.get(*key))
}

fn metric_value(doc: &Value, workload: &str, pass: &str, metric: &str) -> Option<f64> {
    dig(
        doc,
        &[
            "workloads",
            workload,
            pass,
            "result",
            "metrics",
            metric,
            "value",
        ],
    )?
    .as_f64()
}

fn metric_spread(doc: &Value, workload: &str, metric: &str) -> f64 {
    dig(
        doc,
        &["workloads", workload, "dark", "info", "spreads", metric],
    )
    .and_then(Value::as_f64)
    .unwrap_or(0.0)
}

/// Compares two parsed result documents; returns the printed rows and
/// whether any row regressed.
pub fn compare(a: &Value, b: &Value) -> (Vec<String>, bool) {
    let mut rows = vec![format!(
        "{:<20} {:<26} {:>14} {:>14} {:>18} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "bound"
    )];
    let mut regressed = false;
    for workload in spec::WORKLOADS {
        let e2e = spec::END_TO_END
            .iter()
            .map(|m| ("dark", m.name, m.better, m.bound));
        let pinned = PINNED_LAYER_ROWS.iter().map(|&(name, bound, ring_bound)| {
            let bound = if workload.name == "ring-batch-read" {
                ring_bound
            } else {
                bound
            };
            ("traced", name, Better::Lower, bound)
        });
        for (pass, metric, better, bound) in e2e.chain(pinned) {
            let values = (
                metric_value(a, workload.name, pass, metric),
                metric_value(b, workload.name, pass, metric),
            );
            let (Some(va), Some(vb)) = values else {
                rows.push(format!(
                    "{:<20} {metric:<26} missing from one file  regressed",
                    workload.name
                ));
                regressed = true;
                continue;
            };
            let spread = metric_spread(a, workload.name, metric).max(metric_spread(
                b,
                workload.name,
                metric,
            ));
            let verdict = judge(better, bound, spread, va, vb);
            regressed |= verdict == Verdict::Regressed;
            let ratio = if va == 0.0 {
                if vb == 0.0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                vb / va
            };
            rows.push(format!(
                "{:<20} {metric:<26} {va:>14.4} {vb:>14.4} {ratio:>9.4} of {va:<8.4} {:>6.1}%  {}",
                workload.name,
                bound * 100.0,
                verdict.label()
            ));
        }
    }
    (rows, regressed)
}

/// `afs-benchmark compare A.json B.json`.
pub fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text))
            .map_err(|e| eprintln!("cannot read {path}: {e}"))
    };
    let (Ok(a), Ok(b)) = (load(a), load(b)) else {
        return ExitCode::from(2);
    };
    let (rows, regressed) = compare(&a, &b);
    for row in rows {
        println!("{row}");
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(judge(Lower, 0.10, 0.0, 100.0, 109.0), Verdict::Ok);
        assert_eq!(judge(Lower, 0.10, 0.0, 100.0, 111.0), Verdict::Regressed);
        assert_eq!(judge(Lower, 0.10, 0.2, 100.0, 111.0), Verdict::Unresolved);
        assert_eq!(judge(Higher, 0.10, 0.0, 100.0, 91.0), Verdict::Ok);
        assert_eq!(judge(Higher, 0.10, 0.0, 100.0, 89.0), Verdict::Regressed);
        assert_eq!(judge(Higher, 0.10, 0.0, 100.0, 500.0), Verdict::Ok);
        assert_eq!(judge(Lower, 0.0, 0.0, 19072.0, 19072.0), Verdict::Ok);
        assert_eq!(judge(Lower, 0.0, 0.0, 19072.0, 19073.0), Verdict::Regressed);
        assert_eq!(judge(Lower, 0.0, 0.0, 0.0, 0.0), Verdict::Ok);
    }
}
