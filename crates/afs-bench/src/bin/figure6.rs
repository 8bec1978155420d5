//! Regenerates Figure 6 of the paper: ReadFile and WriteFile overheads
//! (µs) of the three active-file implementations across the three
//! critical caching paths, block sizes 8–2048, 1000 calls each — and every
//! ablation panel beside it.
//!
//! Usage:
//!
//! ```text
//! figure6 [--ops N] [--profile pentium|modern] [--workers M] [--trace] [--spans FILE] [--json FILE]
//! ```
//!
//! `figure6` measures every cell of the grid once (`afs_bench::grid`) and
//! prints every table from it as markdown: the six panels, the
//! SimpleProcess column, the per-operation accounting, and the
//! concurrency, fleet, batching, cluster and store/tracing panels.
//! `--json FILE` also writes the grid as the document the CI bench gate
//! compares against `BENCH_baseline.json` (see the `bench_gate` binary);
//! `--profile modern` measures it with present-day constants as an
//! ablation; `--workers M` pins the fleet cells' pool (no virtual number
//! moves); `--trace` appends the per-op [`afs_sim::OpTrace`] summary —
//! the live §4 cost profile (crossings/copies per op) as the strategy
//! handles recorded it; `--spans FILE` measures no grid and instead
//! records a telemetry span trace of `--ops` reads per strategy, written
//! as chrome://tracing JSON (open in `chrome://tracing` or Perfetto).

use afs_bench::DEFAULT_OPS;
use afs_sim::HardwareProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ops = DEFAULT_OPS;
    let mut profile = HardwareProfile::pentium_ii_300();
    let mut show_trace = false;
    let mut fleet_workers: Option<usize> = None;
    let mut spans_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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
            "--workers" => {
                i += 1;
                fleet_workers = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--workers needs a number")),
                );
            }
            "--trace" => show_trace = true,
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

    if let Some(out) = spans_out {
        let json = afs_bench::span_trace(ops, profile);
        std::fs::write(&out, &json).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
        eprintln!("figure6: wrote chrome-trace span JSON to {out}");
        return;
    }

    let grid = afs_bench::grid(ops, &profile, fleet_workers);
    if let Some(out) = json_out {
        let json = afs_bench::bench_json(&grid);
        std::fs::write(&out, &json).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
        eprintln!("figure6: wrote the measured document to {out}");
    }
    print!("{}", afs_bench::render(&grid));
    if show_trace {
        println!();
        print!("{}", afs_bench::op_trace_rows(ops, &profile));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("figure6: {msg}");
    std::process::exit(2);
}
