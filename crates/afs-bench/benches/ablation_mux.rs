//! Ablation: shared-sentinel session multiplexing vs one sentinel per
//! open.
//!
//! The second open of an active file normally attaches to the running
//! sentinel as a new session (`MuxSession`); `share=off` forces the
//! paper's literal model — a private sentinel per open. This bench drives
//! the same concurrent-writer workload as `figure6 --concurrency` at
//! 1/2/8/32 clients in both modes and reports wall-clock per iteration;
//! the virtual-time story (per-write p50/p99 and total protection-domain
//! crossings) is printed once per cell on stderr, since Criterion only
//! plots wall time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use afs_bench::{measure_concurrency, MUX_CLIENTS};
use afs_sim::HardwareProfile;

const OPS_PER_CLIENT: usize = 128;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mux");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1200));
    for clients in MUX_CLIENTS {
        for shared in [true, false] {
            let mode = if shared { "shared" } else { "private" };
            // One untimed run surfaces the numbers Criterion cannot plot.
            let m = measure_concurrency(
                clients,
                shared,
                OPS_PER_CLIENT,
                HardwareProfile::pentium_ii_300(),
            );
            eprintln!(
                "ablation_mux: {clients} clients {mode}: write p50 {} ns, \
                 p99 {} ns, {} crossings",
                m.summary.p50_ns, m.summary.p99_ns, m.total_crossings
            );
            group.bench_function(BenchmarkId::new(mode, clients), |b| {
                b.iter(|| {
                    measure_concurrency(
                        clients,
                        shared,
                        OPS_PER_CLIENT,
                        HardwareProfile::pentium_ii_300(),
                    )
                    .total_crossings
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
