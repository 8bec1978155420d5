//! Regenerates Figure 6 of the paper: ReadFile and WriteFile overheads
//! (µs) of the three active-file implementations across the three
//! critical caching paths, block sizes 8–2048, 1000 calls each.
//!
//! Usage:
//!
//! ```text
//! figure6 [--ops N] [--profile pentium|modern] [--csv] [--copies] [--trace] [--simple-process] [--concurrency] [--fleet] [--workers M] [--batch] [--cluster] [--spans FILE] [--json FILE]
//! ```
//!
//! `--copies` appends the per-operation accounting table (syscalls,
//! copies, switches) that explains *why* the curves order the way they
//! do; `--trace` appends the per-op [`afs_sim::OpTrace`] summary — the
//! live §4 cost profile (crossings/copies per op) as the strategy handles
//! recorded it; `--simple-process` adds the §4.1 strategy as an extra
//! series; `--profile modern` reruns the sweep with present-day constants
//! as an ablation; `--csv` emits machine-readable rows
//! (`panel,direction,strategy,block,mean_us`) for plotting;
//! `--concurrency` skips the sweep and prints the shared-sentinel
//! ablation instead: per-write latency and total domain crossings for
//! 1/2/8/32 concurrent clients, shared sentinel vs one sentinel per open;
//! `--fleet` skips the sweep and prints the sharded-executor panel:
//! per-read latency and executor gauges for 100/1k/10k concurrently-open
//! active files multiplexed over the bounded worker pool (`--workers M`
//! pins the pool size; the default is one worker per core);
//! `--batch` skips the sweep and prints the ring-batching ablation:
//! latency and protection-domain crossings per op for the same
//! sequential-read cell run unbatched and over the submission/completion
//! ring (`batch=on`, see `docs/BATCHING.md`);
//! `--cluster` skips the sweep and prints the replicated-cluster panel:
//! per-op latency and fleet gauges for zipfian client sessions swept
//! 1k → 100k → 1M over the consistent-hash fleet, plus the node-join
//! rebalance line (see `docs/CLUSTER.md`);
//! `--spans FILE` skips the sweep and instead records a telemetry span
//! trace of `--ops` reads per strategy, written as chrome://tracing JSON
//! (open in `chrome://tracing` or Perfetto); `--json FILE` skips the
//! sweep and writes the per-strategy latency summary the CI bench gate
//! compares against `BENCH_baseline.json` (see the `bench_gate` binary).

use afs_bench::{
    measure, measure_traced, render_panel, run_panel, Direction, PathKind, BLOCK_SIZES,
    DEFAULT_OPS, FIGURE6_STRATEGIES,
};
use afs_core::Strategy;
use afs_sim::HardwareProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ops = DEFAULT_OPS;
    let mut profile = HardwareProfile::pentium_ii_300();
    let mut show_copies = false;
    let mut show_trace = false;
    let mut simple_process = false;
    let mut csv = false;
    let mut concurrency = false;
    let mut fleet = false;
    let mut batch = false;
    let mut cluster = false;
    let mut fleet_workers: Option<usize> = None;
    let mut spans_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => csv = true,
            "--ops" => {
                i += 1;
                ops = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--ops needs a number"));
            }
            "--profile" => {
                i += 1;
                profile = match args.get(i).map(String::as_str) {
                    Some("pentium") => HardwareProfile::pentium_ii_300(),
                    Some("modern") => HardwareProfile::modern(),
                    _ => die("--profile pentium|modern"),
                };
            }
            "--concurrency" => concurrency = true,
            "--fleet" => fleet = true,
            "--batch" => batch = true,
            "--cluster" => cluster = true,
            "--workers" => {
                i += 1;
                fleet_workers = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--workers needs a number")),
                );
            }
            "--copies" => show_copies = true,
            "--trace" => show_trace = true,
            "--simple-process" => simple_process = true,
            "--spans" => {
                i += 1;
                spans_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--spans needs an output path")),
                );
            }
            "--json" => {
                i += 1;
                json_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--json needs an output path")),
                );
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    if concurrency {
        print!("{}", afs_bench::render_concurrency_panel(ops, &profile));
        return;
    }

    if fleet {
        print!("{}", afs_bench::render_fleet_panel(&profile, fleet_workers));
        return;
    }

    if batch {
        print!("{}", afs_bench::render_batch_panel(ops, &profile));
        return;
    }

    if cluster {
        print!("{}", afs_bench::render_cluster_panel(&profile));
        return;
    }

    if let Some(out) = json_out {
        let json = afs_bench::bench_json(ops, profile);
        std::fs::write(&out, &json).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
        eprintln!("figure6: wrote bench-gate summary JSON to {out}");
        return;
    }

    if let Some(out) = spans_out {
        let json = afs_bench::span_trace(ops, profile);
        std::fs::write(&out, &json).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
        eprintln!("figure6: wrote chrome-trace span JSON to {out}");
        return;
    }

    if csv {
        println!("panel,direction,strategy,block,mean_us");
        for path in PathKind::ALL {
            for direction in [Direction::Read, Direction::Write] {
                let dir = if direction == Direction::Read {
                    "read"
                } else {
                    "write"
                };
                let panel = run_panel(path, direction, ops, &profile);
                for (si, strategy) in FIGURE6_STRATEGIES.iter().enumerate() {
                    for (bi, block) in BLOCK_SIZES.iter().enumerate() {
                        println!(
                            "{},{},{},{},{:.2}",
                            path.panel(),
                            dir,
                            strategy.label(),
                            block,
                            panel.rows[si][bi]
                        );
                    }
                }
                for (bi, block) in BLOCK_SIZES.iter().enumerate() {
                    println!(
                        "{},{},baseline,{},{:.2}",
                        path.panel(),
                        dir,
                        block,
                        panel.baseline[bi]
                    );
                }
            }
        }
        return;
    }

    println!(
        "Active Files — Figure 6 reproduction ({} profile, {} calls per point)\n",
        profile.name, ops
    );
    for path in PathKind::ALL {
        for direction in [Direction::Read, Direction::Write] {
            let panel = run_panel(path, direction, ops, &profile);
            print!("{}", render_panel(&panel));
            if simple_process {
                print!("{:>8}", "block");
                println!("{:>10}", Strategy::Process.label());
                for block in BLOCK_SIZES {
                    let m = measure(
                        path,
                        Strategy::Process,
                        direction,
                        block,
                        ops,
                        profile.clone(),
                    );
                    println!("{block:>8}{:>10.1}", m.mean_us());
                }
            }
            println!();
        }
    }

    if show_copies {
        println!("Per-operation accounting at block=2048 (averages over {ops} ops)");
        println!(
            "{:>10} {:>8} {:>9} {:>9} {:>10} {:>10} {:>10}",
            "strategy", "path", "syscalls", "copies", "copy-bytes", "proc-sw", "thread-sw"
        );
        for path in PathKind::ALL {
            for strategy in FIGURE6_STRATEGIES {
                let m = measure(path, strategy, Direction::Read, 2048, ops, profile.clone());
                let per = |v: u64| v as f64 / ops as f64;
                println!(
                    "{:>10} {:>8} {:>9.1} {:>9.1} {:>10.0} {:>10.1} {:>10.1}",
                    strategy.label(),
                    path.panel(),
                    per(m.counters.syscalls),
                    per(m.counters.copies),
                    per(m.counters.pipe_copy_bytes + m.counters.memcpy_bytes),
                    per(m.counters.process_switches),
                    per(m.counters.thread_switches),
                );
            }
        }
    }

    if show_trace {
        println!();
        println!("Per-op trace at block=2048, memory path ({ops} reads per strategy)");
        println!(
            "{:>14} {:>8} {:>6} {:>10} {:>9} {:>10} {:>9}",
            "strategy", "op", "count", "bytes/op", "us/op", "cross/op", "copies/op"
        );
        for strategy in FIGURE6_STRATEGIES {
            let (_, summary) = measure_traced(
                PathKind::Memory,
                strategy,
                Direction::Read,
                2048,
                ops,
                profile.clone(),
            );
            for row in summary {
                println!(
                    "{:>14} {:>8} {:>6} {:>10.1} {:>9.2} {:>10.2} {:>9.2}",
                    row.strategy,
                    row.op.label(),
                    row.count,
                    row.bytes_per_op(),
                    row.micros_per_op(),
                    row.crossings_per_op(),
                    row.copies_per_op(),
                );
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("figure6: {msg}");
    std::process::exit(2);
}
