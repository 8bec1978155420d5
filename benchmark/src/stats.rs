//! Order statistics used by every reported number.

use crate::host::YARDSTICK_REF_NS;

/// The `pct`-th percentile (nearest rank, rounding down) of an
/// ascending slice; 0 for an empty one.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * (sorted.len() - 1) as f64).floor() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Sorts `samples` in place and returns its `pct`-th percentile.
pub fn percentile(samples: &mut [u64], pct: f64) -> u64 {
    samples.sort_unstable();
    percentile_sorted(samples, pct)
}

/// Median of floats (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median; 0 when the median is.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// One timed slice of the clients' op streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Ops completed in the slice.
    pub ops: u64,
    /// Host wall time of the slice, ns.
    pub wall_ns: u64,
    /// Process CPU time (user+sys) spent during the slice, µs.
    pub cpu_us: u64,
    /// Context switches of the process during the slice.
    pub ctx_switches: u64,
    /// Median sampled host latency inside the slice, ns.
    pub p50_ns: u64,
    /// Host ns one yardstick run took right after the slice (mean over
    /// clients).
    pub yardstick_ns: u64,
}

impl Slice {
    /// Ops per second of host wall time.
    pub fn host_rate(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// Reference-core time per unit of host time during this slice.
    pub fn ref_per_host(&self) -> f64 {
        YARDSTICK_REF_NS / self.yardstick_ns.max(1) as f64
    }

    /// Ops per second of reference-core time.
    pub fn ref_rate(&self) -> f64 {
        self.host_rate() / self.ref_per_host()
    }

    /// Median sampled latency, µs of reference-core time.
    pub fn ref_p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1_000.0 * self.ref_per_host()
    }

    /// CPU time per op, µs of reference-core time.
    pub fn ref_cpu_us_per_op(&self) -> f64 {
        self.cpu_us as f64 / self.ops.max(1) as f64 * self.ref_per_host()
    }
}

/// Median over slices of a per-slice figure.
pub fn median_of_slices(slices: &[Slice], figure: impl Fn(&Slice) -> f64) -> f64 {
    median(&slices.iter().map(figure).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(percentile_sorted(&[7], 99.9), 7);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn median_of_slices_ignores_one_slow_slice() {
        let slice = |wall_ns| Slice {
            ops: 1000,
            wall_ns,
            cpu_us: 10,
            ctx_switches: 0,
            p50_ns: 5,
            yardstick_ns: YARDSTICK_REF_NS as u64,
        };
        let slices = [
            slice(1_000_000),
            slice(1_000_000),
            slice(9_000_000),
            slice(1_000_000),
            slice(1_100_000),
        ];
        assert_eq!(median_of_slices(&slices, Slice::host_rate), 1_000_000.0);
    }

    #[test]
    fn reference_time_cancels_a_slow_core() {
        let quiet = Slice {
            ops: 1000,
            wall_ns: 1_000_000,
            cpu_us: 1000,
            ctx_switches: 0,
            p50_ns: 1000,
            yardstick_ns: YARDSTICK_REF_NS as u64,
        };
        // The same work on a core running at two-thirds speed.
        let busy = Slice {
            wall_ns: 1_500_000,
            cpu_us: 1500,
            p50_ns: 1500,
            yardstick_ns: (YARDSTICK_REF_NS * 1.5) as u64,
            ..quiet
        };
        assert_eq!(quiet.ref_rate(), quiet.host_rate());
        assert!((busy.ref_rate() - quiet.ref_rate()).abs() < 1e-6 * quiet.ref_rate());
        assert!((busy.ref_p50_us() - 1.0).abs() < 1e-9);
        assert!((busy.ref_cpu_us_per_op() - 1.0).abs() < 1e-9);
    }
}
