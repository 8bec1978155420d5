//! `afs-benchmark`: see `benchmark/README.md`.
//!
//! * `afs-benchmark --workload W --seed N --seconds S --trace 0|1`
//!   runs one pass of one workload and prints one JSON object as the
//!   last line of stdout.
//! * `afs-benchmark [--seed N] [--seconds S | --smoke]` runs both
//!   passes of all seven workloads, each in its own child process, and
//!   writes `benchmark/out/result.json`.
//! * `afs-benchmark compare A.json B.json` compares two result files.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use afs_benchmark::bench::{self, RunArgs};
use afs_benchmark::{report, spec};

const USAGE: &str = "usage: afs-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out DIR]\n       afs-benchmark compare A.json B.json";

/// `--smoke`: every workload at 1/64 size.
const SMOKE_SECONDS: f64 = 10.0 / 64.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--smoke" => cli.seconds = SMOKE_SECONDS,
            "--out" => cli.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => report::compare_files(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = &cli.workload else {
        return report::run_all(cli.seed, cli.seconds, &cli.out_dir);
    };
    let Some(workload) = spec::workload(name) else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    let outcome = bench::run(&RunArgs {
        spec: workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out_dir: Some(cli.out_dir),
        // `run.sh` runs the binary from the repo root.
        baseline: PathBuf::from("BENCH_baseline.json"),
        started,
    });
    report::print_outcome(workload, cli.seed, cli.trace, &outcome);
    ExitCode::SUCCESS
}
