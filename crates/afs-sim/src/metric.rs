//! Metric families, each declared once: [`metric_family!`](crate::metric_family)
//! turns one list of `field: kind "exported_name"` lines into the live
//! counters, their snapshot, `snapshot()`, `since()` and the exporter hook,
//! so a signal cannot exist in one of them and be forgotten in another.
//! [`Metric`] is what the hook exports: a name, labels and a value.

/// Declares one metric family from a single field list:
///
/// * `$live` — `Default` struct of one relaxed `AtomicU64` per field, with
///   `snapshot()`; or, declared `$live striped($cell)`, one
///   [`Striped`](crate::Striped) set of those fields (the `#[repr(C)]`
///   struct `$cell`, fields in declaration order) plus the optional
///   `{ extra: Type }` non-metric fields, so that threads writing it
///   write lines of their own: a counter is a [`Tally`](crate::Tally)
///   added to the writer's stripe and summed by `snapshot()`, a gauge is
///   a level, not a sum, an `AtomicU64` on the first stripe alone;
/// * `$snap` — `Copy` struct of `pub u64` fields carrying the doc comments,
///   with `since(earlier)`, `METRICS` (the `(exported name, kind)` rows,
///   in export order) and `metrics(labels, out)`, which pushes one
///   [`Metric`](crate::Metric) per row.
///
/// Event methods (which fields an event touches) stay hand-written on
/// `$live`.
#[macro_export]
macro_rules! metric_family {
    (@cell counter) => { $crate::Tally };
    (@cell gauge) => { ::std::sync::atomic::AtomicU64 };
    (@striped counter $cells:expr, $field:ident) => {
        $cells.iter().map(|cell| cell.$field.get()).sum()
    };
    (@striped gauge $cells:expr, $field:ident) => {
        $cells.first().$field.load(::std::sync::atomic::Ordering::Relaxed)
    };
    (
        $(#[$live_doc:meta])*
        $live:ident striped($cell:ident) $({ $($extra:ident: $extra_ty:ty),* $(,)? })? => $snap:ident {
            $($(#[$doc:meta])* $field:ident: $kind:ident $name:literal,)+
        }
    ) => {
        #[doc = concat!("One stripe of [`", stringify!($live), "`].")]
        #[derive(Debug, Default)]
        #[repr(C)]
        struct $cell {
            $($field: $crate::metric_family!(@cell $kind),)+
        }

        $(#[$live_doc])*
        #[derive(Debug, Default)]
        pub struct $live {
            cells: $crate::Striped<$cell>,
            $($($extra: $extra_ty,)*)?
        }

        impl $live {
            /// Copies out the current values: each counter summed over
            /// the stripes, each gauge read from the first.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: $crate::metric_family!(@striped $kind self.cells, $field),)+
                }
            }
        }

        $crate::metric_family!(@snapshot $live => $snap {
            $($(#[$doc])* $field: $kind $name,)+
        });
    };
    (
        $(#[$live_doc:meta])*
        $live:ident => $snap:ident {
            $($(#[$doc:meta])* $field:ident: $kind:ident $name:literal,)+
        }
    ) => {
        $(#[$live_doc])*
        #[derive(Debug, Default)]
        pub struct $live {
            $($field: ::std::sync::atomic::AtomicU64,)+
        }

        impl $live {
            /// Copies out the current values.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)+
                }
            }
        }

        $crate::metric_family!(@snapshot $live => $snap {
            $($(#[$doc])* $field: $kind $name,)+
        });
    };
    (@snapshot $live:ident => $snap:ident {
        $($(#[$doc:meta])* $field:ident: $kind:ident $name:literal,)+
    }) => {
        #[doc = concat!("A point-in-time copy of [`", stringify!($live), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $snap {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl $snap {
            /// `(exported name, kind)` of every metric of the family, in
            /// export order.
            pub const METRICS: &'static [(&'static str, &'static str)] =
                &[$(($name, stringify!($kind)),)+];

            /// Component-wise difference `self - earlier`, saturating at
            /// zero.
            pub fn since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $($field: self.$field.saturating_sub(earlier.$field),)+
                }
            }

            /// Appends the family's metrics, each carrying `labels`.
            pub fn metrics(&self, labels: &[(&'static str, &str)], out: &mut Vec<$crate::Metric>) {
                let tag = |m: $crate::Metric| labels.iter().fold(m, |m, &(k, v)| m.label(k, v));
                $(out.push(tag($crate::Metric::$kind($name, self.$field)));)+
            }
        }
    };
}

/// A named measurement with optional labels.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `"afs_cost_syscalls_total"`.
    pub name: String,
    /// Label pairs, e.g. `[("strategy", "Process"), ("op", "read")]`.
    pub labels: Vec<(&'static str, String)>,
    /// The measurement.
    pub value: MetricValue,
}

/// The kinds of measurement a [`Metric`] can carry. Summaries embed the
/// full bucket array; metrics only exist in snapshot vectors, never on the
/// per-op hot path, so the size skew is irrelevant.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Instantaneous level.
    Gauge(u64),
    /// Latency distribution (rendered as quantiles).
    Summary(HistogramSnapshot),
}

impl Metric {
    /// A counter metric.
    pub fn counter(name: impl Into<String>, value: u64) -> Metric {
        Metric {
            name: name.into(),
            labels: Vec::new(),
            value: MetricValue::Counter(value),
        }
    }

    /// A gauge metric.
    pub fn gauge(name: impl Into<String>, value: u64) -> Metric {
        Metric {
            name: name.into(),
            labels: Vec::new(),
            value: MetricValue::Gauge(value),
        }
    }

    /// A latency-summary metric.
    pub fn summary(name: impl Into<String>, snapshot: HistogramSnapshot) -> Metric {
        Metric {
            name: name.into(),
            labels: Vec::new(),
            value: MetricValue::Summary(snapshot),
        }
    }

    /// Adds one label pair (builder style).
    pub fn label(mut self, key: &'static str, value: impl Into<String>) -> Metric {
        self.labels.push((key, value.into()));
        self
    }
}

/// Number of buckets of a log2 latency histogram: one for zero plus one
/// per power of two up to `2^63`. Bucket `0` holds exactly the value 0;
/// bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
pub const HIST_BUCKETS: usize = 64;

/// Upper bound (inclusive) of values landing in `bucket`.
fn bucket_upper(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 63 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// A point-in-time copy of a log2 latency histogram. Quantiles are read
/// as the upper bound of the bucket holding the requested rank, capped at
/// the observed maximum — at most a factor of 2 above the true order
/// statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, ns.
    pub sum_ns: u64,
    /// Largest sample, ns.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0u64; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The `q`-quantile (0.0 ..= 1.0): upper bound of the bucket holding
    /// the `ceil(q * count)`-th smallest sample, capped at the observed
    /// max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median estimate, ns.
    pub fn p50_ns(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate, ns.
    pub fn p90_ns(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate, ns.
    pub fn p99_ns(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean, ns (exact: the sum is tracked directly).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}
