//! The span model: one record per layer an operation passes through.
//!
//! A span is opened with [`Telemetry::span`] (or a sibling) and closed when
//! the returned [`SpanGuard`] drops. An open span is a frame on its
//! thread's stack, holding its record; closing pops the frame and pushes
//! the record to the hub's ring. A span's parent is one of:
//!
//! * **the innermost open span on this thread** created by the *same*
//!   `Telemetry` instance (a thread-local stack of open frames). This
//!   covers interpose → strategy → transport nesting on the application
//!   thread, and the backend and retry spans under a sentinel span.
//! * **an explicit [`TraceContext`]** ([`Telemetry::span_in_context`]).
//!   The sentinel side opens its span under the context its command's
//!   frame carried — the op's transport span — whichever thread serves
//!   the frame and whenever. A posted write's sentinel span can therefore
//!   *outlive* its parent; parentage is attribution there, strict
//!   containment is only guaranteed for synchronous reads (see
//!   `docs/OBSERVABILITY.md`).
//!
//! Every span belongs to a **trace**: a root span mints the trace id (its
//! own span id), and children inherit it through frames or an explicit
//! [`TraceContext`], so one causal trace covers interpose →
//! strategy → executor poll → net RPC → remote backend even across retry,
//! failover, and a sentinel moving between executor threads.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use afs_sim::clock;
use parking_lot::Mutex;

use crate::flight::FlightRecorder;
use crate::gauges::{
    ClusterGauges, FleetGauges, QueueGauges, RingGauges, SentinelStats, SentinelStatsSnapshot,
    SessionGauges, StoreGauges,
};
use crate::hist::{HistogramSnapshot, LatencyHistogram};

/// Which layer of the interposition chain a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layer {
    /// Win32 API entry in the interposition layer (`ReadFile`, ...).
    #[default]
    Interpose,
    /// Strategy-handle operation (one per `OpTrace` record).
    Strategy,
    /// Transport interaction: pipe stream, control round trip, or inline
    /// dispatch.
    Transport,
    /// Sentinel-side execution of the operation.
    Sentinel,
    /// Remote file server, cache store, or other backing-store work.
    Backend,
    /// Reliability-layer recovery: retry backoff, replica failover, and
    /// circuit-breaker probing around a remote call.
    Retry,
}

impl Layer {
    /// Short human-readable label (also the chrome-trace category).
    pub fn label(self) -> &'static str {
        match self {
            Layer::Interpose => "interpose",
            Layer::Strategy => "strategy",
            Layer::Transport => "transport",
            Layer::Sentinel => "sentinel",
            Layer::Backend => "backend",
            Layer::Retry => "retry",
        }
    }
}

/// Propagated causal context: which trace an operation belongs to, which
/// span should parent the next child, and whether the trace is sampled.
/// This is what crosses session, executor, and RPC boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id — the root span's own id (0 = no active trace).
    pub trace: u64,
    /// Span id a child opened under this context parents to.
    pub parent: u64,
    /// Sampling bit: `false` means carriers may drop the context.
    pub sampled: bool,
}

impl TraceContext {
    /// Whether the context carries an active, sampled trace.
    pub fn is_active(&self) -> bool {
        self.sampled && self.trace != 0
    }
}

/// One finished span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, or 0 for a root.
    pub parent: u64,
    /// Trace id: the root span's own id, shared by every span in the
    /// causal chain (equals `id` for roots).
    pub trace: u64,
    /// Layer of the chain this span covers.
    pub layer: Layer,
    /// Operation or site name (e.g. `"ReadFile"`, `"read"`, `"round-trip"`).
    pub name: &'static str,
    /// Strategy label when known (`"Process"`, `"Thread"`, ...), else `""`.
    pub strategy: &'static str,
    /// Annotation (interned), e.g. `"cause=breaker_open"` on a rejection
    /// span or `"session=3 file=/t.af"` on a mux sentinel span; `""` when
    /// unannotated.
    pub note: &'static str,
    /// Start timestamp, ns (virtual when a sim clock is installed).
    pub start: u64,
    /// End timestamp, ns.
    pub end: u64,
    /// Payload bytes attributed to the span (0 when not applicable).
    pub bytes: u64,
    /// Small per-thread integer id, for trace-viewer lanes.
    pub thread: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that exceeded the configured slow-op threshold, with its
/// ancestors as the span ring holds them.
#[derive(Debug, Clone)]
pub struct SlowOp {
    /// The offending span.
    pub record: SpanRecord,
    /// Ancestor chain rendered outermost-first, e.g.
    /// `"ReadFile > read > round-trip"`; an ancestor still open or already
    /// evicted from the ring renders as `#<id>` and ends the walk.
    pub ancestry: String,
}

/// Default capacity of the preallocated span ring.
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// Most slow-op reports retained.
const MAX_SLOW: usize = 64;

#[derive(Debug, Default)]
struct SpanRing {
    buf: Vec<SpanRecord>,
    head: usize,
    len: usize,
    pushed: u64,
}

impl SpanRing {
    fn ensure_capacity(&mut self, capacity: usize) {
        if self.buf.len() < capacity {
            self.buf.resize(capacity, SpanRecord::default());
        }
    }

    fn push(&mut self, record: SpanRecord) {
        let cap = self.buf.len();
        if cap == 0 {
            return;
        }
        if self.len == cap {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % cap;
        } else {
            let idx = (self.head + self.len) % cap;
            self.buf[idx] = record;
            self.len += 1;
        }
        self.pushed += 1;
    }

    fn snapshot(&self) -> Vec<SpanRecord> {
        let cap = self.buf.len().max(1);
        (0..self.len)
            .map(|i| self.buf[(self.head + i) % cap])
            .collect()
    }
}

/// Shared values found or made by key under one lock, read back in key
/// order.
#[derive(Debug)]
struct Keyed<K, V>(Mutex<Vec<(K, Arc<V>)>>);

impl<K: Ord + Copy, V> Keyed<K, V> {
    const fn new() -> Self {
        Keyed(Mutex::new(Vec::new()))
    }

    fn get_or(&self, key: K, make: impl FnOnce() -> V) -> Arc<V> {
        let mut rows = self.0.lock();
        if let Some((_, v)) = rows.iter().find(|(k, _)| *k == key) {
            return Arc::clone(v);
        }
        let v = Arc::new(make());
        rows.push((key, Arc::clone(&v)));
        v
    }

    fn sorted<T>(&self, f: impl Fn(&Arc<V>) -> T) -> Vec<(K, T)> {
        let mut out: Vec<_> = self.0.lock().iter().map(|(k, v)| (*k, f(v))).collect();
        out.sort_by_key(|row| row.0);
        out
    }
}

/// The telemetry hub: span recorder, per-(strategy, op) and per-sentinel
/// latency histograms, and queue gauges. Cheap to clone behind an [`Arc`];
/// disabled instances cost one relaxed atomic load per would-be span.
#[derive(Debug)]
pub struct Telemetry {
    enabled: AtomicBool,
    next_id: AtomicU64,
    slow_ns: AtomicU64,
    capacity: usize,
    ring: Mutex<SpanRing>,
    slow: Mutex<Vec<SpanRecord>>,
    gauges: Arc<QueueGauges>,
    sessions: Arc<SessionGauges>,
    fleet: Arc<FleetGauges>,
    store: Arc<StoreGauges>,
    rings: Arc<RingGauges>,
    cluster: Arc<ClusterGauges>,
    flight: Arc<FlightRecorder>,
    sentinel_stats: Keyed<&'static str, SentinelStats>,
    strategy_hists: Keyed<(&'static str, &'static str), LatencyHistogram>,
    sentinel_hists: Keyed<&'static str, LatencyHistogram>,
}

impl Telemetry {
    /// Creates a disabled hub with the default span-ring capacity.
    pub fn new() -> Arc<Self> {
        Telemetry::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// Creates a disabled hub retaining up to `capacity` recent spans.
    pub fn with_span_capacity(capacity: usize) -> Arc<Self> {
        let flight = Arc::new(FlightRecorder::new());
        let store = Arc::new(StoreGauges::default());
        // Torn-tail detection in the durable store is a flight-recorder
        // trigger even though afs-store never sees the hub.
        store.set_flight(Arc::clone(&flight));
        Arc::new(Telemetry {
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            slow_ns: AtomicU64::new(0),
            capacity: capacity.max(1),
            ring: Mutex::new(SpanRing::default()),
            slow: Mutex::new(Vec::new()),
            gauges: Arc::new(QueueGauges::default()),
            sessions: Arc::new(SessionGauges::default()),
            fleet: Arc::new(FleetGauges::default()),
            store,
            rings: Arc::new(RingGauges::default()),
            cluster: Arc::new(ClusterGauges::default()),
            flight,
            sentinel_stats: Keyed::new(),
            strategy_hists: Keyed::new(),
            sentinel_hists: Keyed::new(),
        })
    }

    /// Whether span/histogram recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Enabling preallocates the span ring so
    /// the per-op path never grows it.
    pub fn set_enabled(&self, on: bool) {
        if on {
            self.ring.lock().ensure_capacity(self.capacity);
        }
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Sets the slow-op threshold in nanoseconds (0 disables reporting).
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// Opens a span parented to the innermost open span on this thread
    /// created by this hub (a root if there is none). Returns `None` when
    /// telemetry is disabled.
    pub fn span(self: &Arc<Self>, layer: Layer, name: &'static str) -> Option<SpanGuard> {
        self.begin(layer, name, "", "", None)
    }

    /// Like [`Telemetry::span`] but tags the span with a strategy label.
    pub fn span_tagged(
        self: &Arc<Self>,
        layer: Layer,
        name: &'static str,
        strategy: &'static str,
    ) -> Option<SpanGuard> {
        self.begin(layer, name, strategy, "", None)
    }

    /// Opens a span under an explicit propagated [`TraceContext`] — the
    /// cross-boundary form used by sentinel-side execution (the context
    /// its command's frame carried) and RPC recovery. `note` annotates the
    /// span (`""` for none); an unsampled context still records, as a new
    /// root.
    pub fn span_in_context(
        self: &Arc<Self>,
        layer: Layer,
        name: &'static str,
        strategy: &'static str,
        ctx: TraceContext,
        note: &'static str,
    ) -> Option<SpanGuard> {
        self.begin(layer, name, strategy, note, Some(ctx))
    }

    fn begin(
        self: &Arc<Self>,
        layer: Layer,
        name: &'static str,
        strategy: &'static str,
        note: &'static str,
        ctx: Option<TraceContext>,
    ) -> Option<SpanGuard> {
        if !self.enabled() {
            return None;
        }
        let (parent, inherited) = match ctx {
            Some(ctx) => (ctx.parent, ctx.trace),
            None => current_context(self).map_or((0, 0), |c| (c.parent, c.trace)),
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // A root (or a span whose parent's trace is unknown) mints the
        // trace: the trace id IS the root span's id.
        let trace = if inherited != 0 { inherited } else { id };
        let record = SpanRecord {
            id,
            parent,
            trace,
            layer,
            name,
            strategy,
            note,
            start: now_ns(),
            end: 0,
            bytes: 0,
            thread: thread_id(),
        };
        FRAMES.with(|frames| {
            frames.borrow_mut().push(Frame {
                tel: Arc::clone(self),
                record,
            })
        });
        Some(SpanGuard {
            id,
            trace,
            _thread: PhantomData,
        })
    }

    fn finish(&self, record: SpanRecord) {
        self.ring.lock().push(record);
        let slow = self.slow_ns.load(Ordering::Relaxed);
        if slow > 0 && record.duration_ns() >= slow {
            {
                let mut reports = self.slow.lock();
                if reports.len() < MAX_SLOW {
                    reports.push(record);
                }
            }
            self.flight_trigger(
                "slow_op",
                format!(
                    "name={} trace={} duration_ns={}",
                    record.name,
                    record.trace,
                    record.duration_ns()
                ),
            );
        }
    }

    /// Copies out the retained spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.lock().snapshot()
    }

    /// Total spans ever recorded (survives ring eviction).
    pub fn span_count(&self) -> u64 {
        self.ring.lock().pushed
    }

    /// Slow-op reports collected so far (bounded), each with its ancestry
    /// read from the span ring as it is now.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        let spans = self.spans();
        let entry = |s: &SpanRecord| match s.note {
            "" => s.name.to_owned(),
            note => format!("{}[{note}]", s.name),
        };
        let slow = self.slow.lock().clone();
        slow.into_iter()
            .map(|record| {
                let mut chain = vec![entry(&record)];
                let mut parent = record.parent;
                while parent != 0 && chain.len() <= 16 {
                    match spans.iter().find(|s| s.id == parent) {
                        Some(anc) => {
                            chain.push(entry(anc));
                            parent = anc.parent;
                        }
                        None => {
                            chain.push(format!("#{parent}"));
                            break;
                        }
                    }
                }
                chain.reverse();
                SlowOp {
                    record,
                    ancestry: chain.join(" > "),
                }
            })
            .collect()
    }

    /// The queue gauges fed by the IPC layer. Always live, even when span
    /// recording is off — gauges are a handful of relaxed atomics.
    pub fn gauges(&self) -> &Arc<QueueGauges> {
        &self.gauges
    }

    /// The shared-sentinel session gauges fed by the multiplexing layer.
    /// Always live, like the queue gauges.
    pub fn sessions(&self) -> &Arc<SessionGauges> {
        &self.sessions
    }

    /// The sentinel-executor fleet gauges fed by its scheduler.
    /// Always live, like the queue gauges.
    pub fn fleet(&self) -> &Arc<FleetGauges> {
        &self.fleet
    }

    /// The durable page-store gauges fed by WAL-backed caches. Always
    /// live, like the queue gauges.
    pub fn store(&self) -> &Arc<StoreGauges> {
        &self.store
    }

    /// The submission/completion-ring gauges fed by the batching
    /// transports. Always live, like the queue gauges.
    pub fn rings(&self) -> &Arc<RingGauges> {
        &self.rings
    }

    /// The replicated-cluster gauges fed by the cluster client. Always
    /// live, like the queue gauges.
    pub fn cluster(&self) -> &Arc<ClusterGauges> {
        &self.cluster
    }

    /// The flight recorder: the post-mortem bundles captured on trigger.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Fires a flight-recorder trigger, capturing the span ring and this
    /// thread's open spans of this hub — the failing op's chain, when the
    /// thread running it fires — into a post-mortem bundle. `cause` is
    /// one of the documented trigger kinds (`breaker_open`,
    /// `degraded_enter`, `slow_op`).
    pub fn flight_trigger(&self, cause: &'static str, detail: String) {
        let spans = self.spans();
        let open = FRAMES.with(|frames| {
            frames
                .borrow()
                .iter()
                .filter(|f| std::ptr::eq(Arc::as_ptr(&f.tel), self))
                .map(|f| f.record)
                .collect()
        });
        self.flight.capture(cause, detail, spans, open);
    }

    /// Finds or creates the per-sentinel resource-accounting counters
    /// (ops, errors, faults, bytes in/out, queue-depth peak).
    pub fn sentinel_stats(&self, name: &str) -> Arc<SentinelStats> {
        self.sentinel_stats
            .get_or(intern(name), SentinelStats::default)
    }

    /// Snapshots every per-sentinel resource counter set, sorted by name.
    pub fn sentinel_stats_snapshots(&self) -> Vec<(&'static str, SentinelStatsSnapshot)> {
        self.sentinel_stats.sorted(|s| s.snapshot())
    }

    /// Finds or creates the latency histogram for one (strategy, op) pair.
    pub fn strategy_hist(&self, strategy: &'static str, op: &'static str) -> Arc<LatencyHistogram> {
        self.strategy_hists
            .get_or((strategy, op), LatencyHistogram::new)
    }

    /// Finds or creates the latency histogram for one sentinel (by name;
    /// the name is interned).
    pub fn sentinel_hist(&self, name: &str) -> Arc<LatencyHistogram> {
        self.sentinel_hists
            .get_or(intern(name), LatencyHistogram::new)
    }

    /// Snapshots every (strategy, op) histogram, sorted by key.
    pub fn strategy_hist_snapshots(
        &self,
    ) -> Vec<((&'static str, &'static str), HistogramSnapshot)> {
        self.strategy_hists.sorted(|h| h.snapshot())
    }

    /// Snapshots every per-sentinel histogram, sorted by name.
    pub fn sentinel_hist_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        self.sentinel_hists.sorted(|h| h.snapshot())
    }
}

/// Closes its span when dropped: pops the span's frame off this thread's
/// stack and records it. A span opens and closes on one thread, so the
/// guard is neither `Send` nor `Sync`.
#[derive(Debug)]
pub struct SpanGuard {
    id: u64,
    trace: u64,
    _thread: PhantomData<*const ()>,
}

impl SpanGuard {
    /// The span's unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace id this span belongs to.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// The [`TraceContext`] a child of this span should adopt — what the
    /// strategy handle puts on the frame that carries its op.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace: self.trace,
            parent: self.id,
            sampled: true,
        }
    }

    /// Attributes payload bytes to the span.
    pub fn set_bytes(&mut self, bytes: u64) {
        self.edit(|r| r.bytes = bytes);
    }

    /// Annotates the span (interned string), e.g. `"cause=breaker_open"`.
    pub fn set_note(&mut self, note: &'static str) {
        self.edit(|r| r.note = note);
    }

    fn edit(&self, f: impl FnOnce(&mut SpanRecord)) {
        FRAMES.with(|frames| {
            if let Some(frame) = frames
                .borrow_mut()
                .iter_mut()
                .rfind(|f| f.record.id == self.id)
            {
                f(&mut frame.record);
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let frame = FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            let pos = frames.iter().rposition(|f| f.record.id == self.id)?;
            Some(frames.remove(pos))
        });
        if let Some(Frame { tel, mut record }) = frame {
            record.end = now_ns();
            tel.finish(record);
        }
    }
}

/// One open span: its hub and its record so far (`end` 0).
struct Frame {
    tel: Arc<Telemetry>,
    record: SpanRecord,
}

impl Frame {
    /// The context a child of this span adopts.
    fn context(&self) -> TraceContext {
        TraceContext {
            trace: self.record.trace,
            parent: self.record.id,
            sampled: true,
        }
    }
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    THREAD_ID.with(|slot| {
        if slot.get() == 0 {
            slot.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        slot.get()
    })
}

/// The innermost open frame on this thread created by `tel`, as the
/// [`TraceContext`] a new child of it should adopt.
fn current_context(tel: &Arc<Telemetry>) -> Option<TraceContext> {
    FRAMES.with(|frames| {
        frames
            .borrow()
            .iter()
            .rev()
            .find(|f| Arc::ptr_eq(&f.tel, tel))
            .map(|f| f.context())
    })
}

/// The innermost open frame on this thread from *any* hub: the hub plus
/// the context a child should adopt. This is how layers with no hub
/// reference (afs-net, afs-store) join the caller's trace.
fn top_frame() -> Option<(Arc<Telemetry>, TraceContext)> {
    FRAMES.with(|frames| {
        frames
            .borrow()
            .last()
            .map(|f| (Arc::clone(&f.tel), f.context()))
    })
}

/// Opens a [`Layer::Backend`] span parented to the innermost open span on
/// this thread, using that span's own telemetry hub. Returns `None` (and
/// allocates nothing) when no span is open — which is also the
/// telemetry-disabled case, so backend code can call this unconditionally.
pub fn backend_span(name: &'static str) -> Option<SpanGuard> {
    let (tel, ctx) = top_frame()?;
    tel.span_in_context(Layer::Backend, name, "", ctx, "")
}

/// Opens a [`Layer::Retry`] span parented like [`backend_span`] and
/// annotated with `note` (`""` for none). The reliability layer in
/// `afs-net` opens one when a remote call enters recovery (backoff,
/// failover, breaker probing), marked with a `cause=` note, so retried
/// operations are visible in the span tree without any hub plumbed
/// through.
pub fn retry_span(name: &'static str, note: &'static str) -> Option<SpanGuard> {
    let (tel, ctx) = top_frame()?;
    tel.span_in_context(Layer::Retry, name, "", ctx, note)
}

/// Fires a flight-recorder trigger against the hub of the innermost open
/// span on this thread (see [`Telemetry::flight_trigger`]). A no-op when
/// no span is open (which is also the telemetry-disabled case), so any
/// layer can call it unconditionally.
pub fn flight_trigger(cause: &'static str, detail: String) {
    if let Some((tel, _)) = top_frame() {
        tel.flight_trigger(cause, detail);
    }
}

static WALL_EPOCH: OnceLock<Instant> = OnceLock::new();

/// Current timestamp in nanoseconds: the virtual [`clock`] when one is
/// installed on this thread, else monotonic wall time from a process-wide
/// epoch (so the interactive shell still measures something real).
pub fn now_ns() -> u64 {
    if clock::is_active() {
        clock::now()
    } else {
        WALL_EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

type Interned = HashSet<&'static str, BuildHasherDefault<DefaultHasher>>;

static INTERNED: Mutex<Interned> = Mutex::new(HashSet::with_hasher(BuildHasherDefault::new()));

/// Interns a string, returning a `&'static str` (leaked once per distinct
/// value, found by hash after that). Used for sentinel names and span
/// notes so [`SpanRecord`] stays `Copy`.
pub fn intern(name: &str) -> &'static str {
    let mut table = INTERNED.lock();
    if let Some(&existing) = table.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The open record behind `guard`, read off this thread's frames.
    fn record(guard: &SpanGuard) -> SpanRecord {
        FRAMES.with(|frames| {
            let frames = frames.borrow();
            let frame = frames.iter().find(|f| f.record.id == guard.id());
            frame.expect("an open span has a frame").record
        })
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let tel = Telemetry::new();
        assert!(tel.span(Layer::Interpose, "ReadFile").is_none());
        assert_eq!(tel.span_count(), 0);
        assert!(tel.spans().is_empty());
    }

    #[test]
    fn nested_spans_parent_on_the_same_thread() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        {
            let outer = tel.span(Layer::Interpose, "ReadFile").expect("outer");
            let outer_id = outer.id();
            {
                let inner = tel.span(Layer::Strategy, "read").expect("inner");
                assert_eq!(record(&inner).parent, outer_id);
            }
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.layer == Layer::Strategy).unwrap();
        let outer = spans.iter().find(|s| s.layer == Layer::Interpose).unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start >= outer.start);
        assert!(inner.end <= outer.end);
    }

    #[test]
    fn explicit_parent_wins_over_stack() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        let _outer = tel.span(Layer::Interpose, "WriteFile").expect("outer");
        let ctx = TraceContext {
            trace: 7000,
            parent: 7777,
            sampled: true,
        };
        let cross = tel
            .span_in_context(Layer::Sentinel, "write", "Process", ctx, "")
            .expect("cross");
        let cross = record(&cross);
        assert_eq!((cross.parent, cross.trace), (7777, 7000));
    }

    #[test]
    fn backend_span_requires_an_open_frame() {
        assert!(backend_span("remote-get").is_none());
        let tel = Telemetry::new();
        tel.set_enabled(true);
        let outer = tel.span(Layer::Strategy, "read").expect("outer");
        let nested = backend_span("remote-get").expect("nested");
        assert_eq!(record(&nested).parent, outer.id());
    }

    #[test]
    fn ring_wraps_but_count_is_exact() {
        let tel = Telemetry::with_span_capacity(8);
        tel.set_enabled(true);
        for _ in 0..20 {
            let _s = tel.span(Layer::Strategy, "read");
        }
        assert_eq!(tel.spans().len(), 8);
        assert_eq!(tel.span_count(), 20);
    }

    #[test]
    fn slow_ops_capture_ancestry() {
        let tel = Telemetry::new();
        tel.set_enabled(true);
        tel.set_slow_threshold_ns(1);
        let _clock = afs_sim::clock::install(0);
        {
            let _a = tel.span(Layer::Interpose, "ReadFile");
            let _b = tel.span(Layer::Strategy, "read");
            let _c = tel.span(Layer::Transport, "round-trip");
            afs_sim::clock::advance(5_000);
        }
        let slow = tel.slow_ops();
        assert!(!slow.is_empty());
        let deepest = slow
            .iter()
            .find(|s| s.record.name == "round-trip")
            .expect("transport span is slow");
        assert_eq!(deepest.ancestry, "ReadFile > read > round-trip");
    }

    #[test]
    fn interning_dedupes() {
        let a = intern("mirror-test-sentinel");
        let b = intern("mirror-test-sentinel");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn histograms_are_keyed_and_cached() {
        let tel = Telemetry::new();
        let h1 = tel.strategy_hist("DLL", "read");
        let h2 = tel.strategy_hist("DLL", "read");
        assert!(Arc::ptr_eq(&h1, &h2));
        h1.record(100);
        assert_eq!(tel.strategy_hist_snapshots()[0].1.count, 1);
        let s1 = tel.sentinel_hist("null");
        let s2 = tel.sentinel_hist("null");
        assert!(Arc::ptr_eq(&s1, &s2));
    }
}
