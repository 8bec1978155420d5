//! Trace-driven macro workloads.
//!
//! Figure 6 is a microbenchmark (fixed-size blocks, one direction at a
//! time). Real legacy applications mix reads, writes, and seeks; this
//! module generates seeded traces of such applications and replays them
//! against an active file, measuring end-to-end virtual time per
//! strategy. Used by tests that need "an application-shaped" op stream.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use afs_core::Strategy;
use afs_sim::{clock, HardwareProfile};
use afs_winapi::{Access, Disposition, FileApi, SeekMethod};

/// Zipfian popularity sampler: rank `i` (0-based, most popular first) is
/// drawn with probability proportional to `1 / (i + 1)^theta`. Backed by
/// a precomputed CDF and inverse-transform sampling, so a draw is one
/// uniform variate plus a binary search. `theta = 0.99` is the classic
/// YCSB skew; `theta = 0` degenerates to uniform.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler over `items` ranks.
    ///
    /// # Panics
    ///
    /// Panics when `items` is zero.
    pub fn new(items: usize, theta: f64) -> Zipf {
        assert!(items > 0, "zipf needs at least one item");
        let mut cdf = Vec::with_capacity(items);
        let mut total = 0.0;
        for rank in 0..items {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks the sampler draws from.
    pub fn items(&self) -> usize {
        self.cdf.len()
    }

    /// Draws a rank in `0..items`.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        // A uniform variate in [0, 1) from the top 53 bits of one raw
        // word (the vendored rand stub has no float sampling).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One operation of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Read this many bytes at the current pointer.
    Read(usize),
    /// Write this many bytes at the current pointer.
    Write(usize),
    /// Seek to this absolute offset.
    Seek(u64),
}

/// A seeded application trace.
#[derive(Debug, Clone)]
pub struct Trace {
    ops: Vec<TraceOp>,
    /// Largest offset the trace touches, for pre-seeding files.
    pub extent: u64,
}

impl Trace {
    /// Generates a mixed read/write/seek trace.
    ///
    /// `read_fraction` in `[0.0, 1.0]` splits reads vs writes; seeks are
    /// interleaved every few operations, staying within a 64 KiB window
    /// (a "document editing" footprint).
    pub fn generate(seed: u64, ops: usize, read_fraction: f64) -> Trace {
        const WINDOW: u64 = 64 * 1024;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut trace = Vec::with_capacity(ops);
        let mut extent = 0u64;
        let mut pointer = 0u64;
        for i in 0..ops {
            if i % 5 == 4 {
                pointer = rng.gen_range(0..WINDOW);
                trace.push(TraceOp::Seek(pointer));
                continue;
            }
            let len = *[64usize, 256, 1024]
                .get(rng.gen_range(0..3))
                .expect("index");
            if rng.gen_bool(read_fraction) {
                trace.push(TraceOp::Read(len));
            } else {
                trace.push(TraceOp::Write(len));
            }
            pointer += len as u64;
            extent = extent.max(pointer);
        }
        Trace {
            ops: trace,
            extent: extent.max(WINDOW),
        }
    }

    /// The operations.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Replays the trace against an open handle, returning bytes moved.
    ///
    /// # Panics
    ///
    /// Panics on API errors — traces are only replayed against files that
    /// support every operation.
    pub fn replay(&self, api: &dyn FileApi, h: afs_winapi::Handle) -> u64 {
        let mut moved = 0u64;
        let mut buf = vec![0u8; 1024];
        let payload = vec![0xBBu8; 1024];
        for op in &self.ops {
            match op {
                TraceOp::Read(len) => {
                    moved += api.read_file(h, &mut buf[..*len]).expect("trace read") as u64;
                }
                TraceOp::Write(len) => {
                    moved += api.write_file(h, &payload[..*len]).expect("trace write") as u64;
                }
                TraceOp::Seek(offset) => {
                    api.set_file_pointer(h, *offset as i64, SeekMethod::Begin)
                        .expect("trace seek");
                }
            }
        }
        moved
    }
}

/// Replays a trace against a fresh world per strategy and returns the
/// total virtual time consumed (ns), read back from the telemetry
/// latency histograms: every strategy-layer operation records its virtual
/// duration into the per-(strategy, op) histogram, and the histogram sums
/// are exact — no ad-hoc clock arithmetic around the replay loop.
pub fn replay_virtual_time(
    trace: &Trace,
    path: crate::PathKind,
    strategy: Strategy,
    profile: HardwareProfile,
) -> u64 {
    let extent = crate::filler(trace.extent as usize + 2048);
    let (world, file) = crate::build_world(path, strategy, profile, &extent, &[]);
    world.telemetry().set_enabled(true);
    let api = world.api();
    let _guard = clock::install(0);
    let h = api
        .create_file(file, Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    trace.replay(&api, h);
    api.close_handle(h).expect("close");
    world.telemetry().strategy_elapsed_total_ns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PathKind;

    #[test]
    fn zipf_is_deterministic_and_skewed_to_the_head() {
        let zipf = Zipf::new(64, 0.99);
        let draw = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7), "same seed, same stream");
        let samples = draw(7);
        assert!(samples.iter().all(|&r| r < 64), "ranks stay in range");
        let head = samples.iter().filter(|&&r| r == 0).count();
        // Uniform would give ~31 hits on rank 0 out of 2000; zipf(0.99)
        // concentrates over 10% of the mass there.
        assert!(head > 150, "rank 0 drew only {head} of 2000");
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for (rank, &count) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&count),
                "rank {rank} drew {count} of 4000 under theta=0"
            );
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = Trace::generate(9, 50, 0.7);
        let b = Trace::generate(9, 50, 0.7);
        assert_eq!(a.ops(), b.ops());
        let c = Trace::generate(10, 50, 0.7);
        assert_ne!(a.ops(), c.ops());
    }

    #[test]
    fn read_fraction_biases_the_mix() {
        let heavy_read = Trace::generate(1, 400, 0.95);
        let heavy_write = Trace::generate(1, 400, 0.05);
        let reads = |t: &Trace| {
            t.ops()
                .iter()
                .filter(|o| matches!(o, TraceOp::Read(_)))
                .count()
        };
        assert!(reads(&heavy_read) > 3 * reads(&heavy_write));
    }

    #[test]
    fn macro_replay_preserves_strategy_ordering() {
        let trace = Trace::generate(7, 120, 0.6);
        let profile = HardwareProfile::pentium_ii_300();
        let process = replay_virtual_time(
            &trace,
            PathKind::Memory,
            Strategy::ProcessControl,
            profile.clone(),
        );
        let thread = replay_virtual_time(
            &trace,
            PathKind::Memory,
            Strategy::DllThread,
            profile.clone(),
        );
        let dll = replay_virtual_time(&trace, PathKind::Memory, Strategy::DllOnly, profile);
        assert!(
            process > thread && thread > dll,
            "macro trace keeps the Figure 6 ordering: {process} > {thread} > {dll}"
        );
    }

    #[test]
    fn replay_moves_bytes() {
        let trace = Trace::generate(3, 60, 0.5);
        let (world, file) = crate::build_world(
            PathKind::Memory,
            Strategy::DllOnly,
            HardwareProfile::free(),
            &crate::filler(trace.extent as usize + 2048),
            &[],
        );
        let api = world.api();
        let h = api
            .create_file(file, Access::read_write(), Disposition::OpenExisting)
            .expect("open");
        assert!(trace.replay(&api, h) > 0);
        api.close_handle(h).expect("close");
    }
}
