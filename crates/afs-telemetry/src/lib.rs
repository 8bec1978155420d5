//! End-to-end telemetry for the Active Files runtime.
//!
//! The paper's §4 argument is a cost-accounting exercise: protection-domain
//! crossings, buffer copies, and switches *per operation*. The
//! [`CostModel`](afs_sim) counts those costs and the
//! [`OpTrace`](afs_sim) totals each (strategy, op)'s count, bytes and
//! time; this crate makes one operation followable end to end:
//!
//! * **Spans** ([`Telemetry`], [`SpanGuard`], [`Layer`]) — every
//!   application-visible op produces a span tree covering
//!   interpose → strategy handle → transport → sentinel → backend, stamped
//!   in virtual [`SimClock`](afs_sim::clock) time when a clock is installed
//!   (wall time otherwise, so the interactive shell still gets real data).
//! * **Latency histograms** ([`LatencyHistogram`]) — fixed log2 buckets,
//!   lock-free recording, p50/p90/p99/max without retaining raw samples.
//! * **Queue gauges** ([`QueueGauges`]) — pipe/shared-memory depths, fed
//!   by the `afs-ipc` transports, and staging-buffer reuse, fed by the
//!   pair lanes' dispatch loops.
//! * **Metrics registry** ([`MetricsRegistry`]) — one snapshot API over the
//!   scattered counters (`CostModel`, `CallCounters`, histograms, gauges).
//! * **Exporters** ([`prometheus_text`], [`json_snapshot`],
//!   [`chrome_trace`]) — text metrics plus `trace_event` JSON loadable in
//!   `chrome://tracing` / Perfetto.
//! * **Trace context** ([`TraceContext`]) — a propagated (trace id,
//!   parent span, sampling bit) triple that rides the frame carrying an
//!   op to its sentinel (across mux sessions and executor poll/steal
//!   boundaries) and RPC recovery, so one
//!   causal trace covers interpose → strategy → executor → net → backend.
//! * **Flight recorder** ([`FlightRecorder`]) — breaker-open /
//!   degraded-entry / slow-op triggers, fired on the thread running the
//!   failing op, freeze post-mortem [`FlightBundle`]s (`afsh dump`): a cut
//!   of the span ring plus that thread's open spans. Torn-tail detection
//!   in the store freezes a bundle with no spans. The span ring and each
//!   thread's stack of open frames are the only recorders; a span opens
//!   and closes on its thread's frame stack alone.
//! * **Per-sentinel accounting** ([`SentinelStats`]) — ops, errors,
//!   faults, bytes in and out, and queue-depth peak per sentinel.
//!
//! Telemetry is **off by default** and adds no allocation to the per-op hot
//! path: a single relaxed atomic load gates span creation, and the span
//! ring is preallocated when telemetry is enabled and reused from then on.

#![warn(missing_docs)]

mod export;
mod flight;
mod gauges;
mod hist;
pub mod json;
mod registry;
mod span;

/// The family declaration and what it is built on: the stripes a
/// `striped` [`metric_family!`] keeps its counters in, and the exported
/// [`Metric`] rows, a summary carrying a [`HistogramSnapshot`].
pub use afs_sim::{
    metric_family, HistogramSnapshot, Metric, MetricValue, Striped, Tally, HIST_BUCKETS,
};
pub use export::{
    chrome_trace, flight_bundles_json, json_is_valid, json_snapshot, prometheus_is_valid,
    prometheus_text,
};
pub use flight::{FlightBundle, FlightRecorder};
pub use gauges::{
    ClusterGauges, ClusterSnapshot, FleetGauges, FleetSnapshot, GaugesSnapshot, QueueGauges,
    RingGauges, RingSnapshot, SentinelStats, SentinelStatsSnapshot, SessionGauges, SessionSnapshot,
    StoreGauges, StoreSnapshot,
};
pub use hist::LatencyHistogram;
pub use registry::MetricsRegistry;
pub use span::{
    backend_span, flight_trigger, intern, now_ns, retry_span, Layer, SlowOp, SpanGuard, SpanRecord,
    Telemetry, TraceContext, DEFAULT_SPAN_CAPACITY,
};
