//! Fixed-bucket log2 latency histograms.
//!
//! Recording is lock-free (a few relaxed atomic adds) and never allocates,
//! so histograms can sit on the per-op hot path. Bucket `0` holds exactly
//! the value 0; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`. Quantiles are read
//! from a [`HistogramSnapshot`] as the upper bound of the bucket holding
//! the requested rank, capped at the observed maximum — at most a factor of
//! 2 above the true order statistic.

use std::sync::atomic::{AtomicU64, Ordering};

use afs_sim::{HistogramSnapshot, HIST_BUCKETS};

fn bucket_index(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// A lock-free latency histogram with log2 buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (nanoseconds).
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Copies out a consistent-enough view of the counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum.load(Ordering::Relaxed),
            max_ns: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Brute-force order statistic matching `quantile`'s rank definition.
    fn brute_quantile(samples: &[u64], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50_ns(), 0);
        assert_eq!(snap.p99_ns(), 0);
        assert_eq!(snap.mean_ns(), 0);
    }

    #[test]
    fn percentiles_bound_brute_force_within_2x() {
        let samples: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 100_000).collect();
        let hist = LatencyHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let snap = hist.snapshot();
        for q in [0.50, 0.90, 0.99] {
            let exact = brute_quantile(&samples, q);
            let approx = snap.quantile(q);
            assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
            assert!(
                exact == 0 || approx < exact.saturating_mul(2),
                "q={q}: {approx} not within 2x of {exact}"
            );
        }
        assert_eq!(snap.max_ns, *samples.iter().max().unwrap());
        assert_eq!(snap.count, samples.len() as u64);
        assert_eq!(snap.sum_ns, samples.iter().sum::<u64>());
    }

    #[test]
    fn max_caps_the_top_quantile() {
        let hist = LatencyHistogram::new();
        hist.record(1_000);
        let snap = hist.snapshot();
        assert_eq!(snap.quantile(1.0), 1_000, "capped at observed max");
    }

    proptest! {
        #[test]
        fn quantile_brackets_brute_force(
            samples in proptest::collection::vec(0u64..10_000_000, 1..200),
            pct in 1u32..100,
        ) {
            let q = pct as f64 / 100.0;
            let hist = LatencyHistogram::new();
            for &s in &samples {
                hist.record(s);
            }
            let approx = hist.snapshot().quantile(q);
            let exact = brute_quantile(&samples, q);
            prop_assert!(approx >= exact);
            prop_assert!(exact == 0 || approx < exact.saturating_mul(2));
        }
    }
}
