//! End-to-end telemetry for the Active Files runtime.
//!
//! The paper's §4 argument is a cost-accounting exercise: protection-domain
//! crossings, buffer copies, and switches *per operation*. The
//! [`OpTrace`](afs_sim) totals aggregate those costs after the fact; this
//! crate makes one operation followable end to end:
//!
//! * **Spans** ([`Telemetry`], [`SpanGuard`], [`Layer`]) — every
//!   application-visible op produces a span tree covering
//!   interpose → strategy handle → transport → sentinel → backend, stamped
//!   in virtual [`SimClock`](afs_sim::clock) time when a clock is installed
//!   (wall time otherwise, so the interactive shell still gets real data).
//! * **Latency histograms** ([`LatencyHistogram`]) — fixed log2 buckets,
//!   lock-free recording, p50/p90/p99/max without retaining raw samples.
//! * **Queue gauges** ([`QueueGauges`]) — pipe/shared-memory depths and
//!   buffer-pool reuse, fed by the `afs-ipc` transports.
//! * **Metrics registry** ([`MetricsRegistry`]) — one snapshot API over the
//!   scattered counters (`CostModel`, `CallCounters`, histograms, gauges).
//! * **Exporters** ([`prometheus_text`], [`json_snapshot`],
//!   [`chrome_trace`]) — text metrics plus `trace_event` JSON loadable in
//!   `chrome://tracing` / Perfetto.
//! * **Trace context** ([`TraceContext`], [`SpanScope`]) — a propagated
//!   (trace id, parent span, sampling bit) triple that crosses mux
//!   sessions, executor poll/steal boundaries, and RPC recovery, so one
//!   causal trace covers interpose → strategy → executor → net → backend.
//! * **Flight recorder** ([`FlightRecorder`]) — always-on bounded event
//!   rings; breaker-open / degraded-entry / torn-tail / slow-op triggers
//!   freeze post-mortem [`FlightBundle`]s (`afsh dump`).
//! * **SLO burn rates** ([`SloTracker`]) — per-file latency/error
//!   objectives from spec keys, multi-window burn evaluation in virtual
//!   time, plus per-sentinel resource accounting ([`SentinelStats`]).
//!
//! Telemetry is **off by default** and adds no allocation to the per-op hot
//! path: a single relaxed atomic load gates span creation, and the span
//! ring is preallocated when telemetry is enabled (BufferPool-style reuse).

#![warn(missing_docs)]

mod export;
mod flight;
mod gauges;
mod hist;
pub mod json;
mod registry;
mod slo;
mod span;

pub use export::{
    chrome_trace, flight_bundles_json, json_is_valid, json_snapshot, prometheus_is_valid,
    prometheus_text,
};
pub use flight::{FlightBundle, FlightEvent, FlightRecorder, PendingSpan};
pub use gauges::{
    ClusterGauges, ClusterSnapshot, FleetGauges, FleetSnapshot, GaugesSnapshot, QueueGauges,
    RingGauges, RingSnapshot, SentinelStats, SentinelStatsSnapshot, SessionGauges, SessionSnapshot,
    StoreGauges, StoreSnapshot,
};
pub use hist::{HistogramSnapshot, LatencyHistogram, HIST_BUCKETS};
pub use registry::{Metric, MetricValue, MetricsRegistry};
pub use slo::{BurnRates, SloSnapshot, SloSpec, SloTracker};
pub use span::{
    backend_span, flight_note, flight_trigger, intern, now_ns, retry_span, retry_span_noted, Layer,
    SlowOp, SpanGuard, SpanRecord, SpanScope, Telemetry, TraceContext, DEFAULT_SPAN_CAPACITY,
};
