//! Seam spans: bench-owned timing wrappers installed through the
//! stack's public extension points — an [`ApiLayer`] on the
//! [`MediatingConnector`](afs_interpose::MediatingConnector), a
//! [`SentinelLogic`] around the registered factory, a [`Service`]
//! around the [`FileServer`](afs_remote::FileServer) — each recording
//! `{name, start, end, parent, op}` in host ns. Nothing inside the
//! program changes; only the traced pass installs them.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use afs_core::{SentinelCtx, SentinelLogic, SentinelResult};
use afs_interpose::ApiLayer;
use afs_net::Service;
use afs_winapi::{ApiResult, DelegateFileApi, FileApi, Handle, Layered};

use crate::stats;

/// Span names, one per seam.
pub const APP_OP: &str = "app.op";
/// One intercepted API call (the timing [`ApiLayer`]).
pub const INTERPOSE_CALL: &str = "interpose.call";
/// One call into the wrapped [`SentinelLogic`].
pub const SENTINEL_LOGIC: &str = "sentinel.logic";
/// One request handled by the wrapped [`Service`].
pub const REMOTE_SERVICE: &str = "remote.service";

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which seam.
    pub name: &'static str,
    /// Host ns since the recorder's epoch.
    pub start: u64,
    /// Host ns since the recorder's epoch.
    pub end: u64,
    /// This span's id (unique across threads).
    pub id: u64,
    /// The span that caused it; 0 for a root.
    pub parent: u64,
    /// The generated op it belongs to.
    pub op: u64,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
// What the (single) application thread is doing right now, for spans
// recorded on a sentinel worker thread, which has no open span of its
// own. Two-client workloads run their sentinels and services inline, so
// the thread-local cells below always win there.
static REMOTE_SPAN: AtomicU64 = AtomicU64::new(0);
static REMOTE_OP: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MY_BUFFER: Buffer = {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().expect("span registry").push(Arc::clone(&buffer));
        buffer
    };
    static MY_THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static NEXT_SEQ: Cell<u64> = const { Cell::new(1) };
    static OPEN_SPAN: Cell<u64> = const { Cell::new(0) };
    static OPEN_OP: Cell<u64> = const { Cell::new(0) };
    static IS_APP: Cell<bool> = const { Cell::new(false) };
}

/// Host ns since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; [`OpenSpan::end`] records it.
pub struct OpenSpan {
    name: &'static str,
    start: u64,
    id: u64,
    parent: u64,
    op: u64,
    enclosing: u64,
}

fn next_id() -> u64 {
    let seq = NEXT_SEQ.get();
    NEXT_SEQ.set(seq + 1);
    (MY_THREAD.with(|t| *t) << 40) | seq
}

/// Opens a span on this thread, parented to the innermost span open on
/// it, or — on a thread with none — to the application thread's.
pub fn begin(name: &'static str) -> OpenSpan {
    let enclosing = OPEN_SPAN.get();
    let (parent, op) = if enclosing != 0 {
        (enclosing, OPEN_OP.get())
    } else {
        (
            REMOTE_SPAN.load(Ordering::Relaxed),
            REMOTE_OP.load(Ordering::Relaxed),
        )
    };
    let id = next_id();
    OPEN_SPAN.set(id);
    OPEN_OP.set(op);
    if IS_APP.get() {
        REMOTE_SPAN.store(id, Ordering::Relaxed);
    }
    OpenSpan {
        name,
        start: now_ns(),
        id,
        parent,
        op,
        enclosing,
    }
}

/// Opens the root span of generated op `op`; the calling thread is an
/// application thread from here on.
pub fn begin_op(op: u64) -> OpenSpan {
    IS_APP.set(true);
    let id = next_id();
    OPEN_SPAN.set(id);
    OPEN_OP.set(op);
    REMOTE_SPAN.store(id, Ordering::Relaxed);
    REMOTE_OP.store(op, Ordering::Relaxed);
    OpenSpan {
        name: APP_OP,
        start: now_ns(),
        id,
        parent: 0,
        op,
        enclosing: 0,
    }
}

impl OpenSpan {
    /// Closes and records the span.
    pub fn end(self) {
        let end = now_ns();
        OPEN_SPAN.set(self.enclosing);
        if IS_APP.get() {
            REMOTE_SPAN.store(self.enclosing, Ordering::Relaxed);
        }
        MY_BUFFER.with(|b| {
            b.lock().expect("span buffer").push(Span {
                name: self.name,
                start: self.start,
                end,
                id: self.id,
                parent: self.parent,
                op: self.op,
            })
        });
    }
}

/// Takes every span recorded so far, from every thread.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buffer in BUFFERS.lock().expect("span registry").iter() {
        all.append(&mut buffer.lock().expect("span buffer"));
    }
    all
}

/// The timing [`ApiLayer`]: one `interpose.call` span per intercepted
/// data-path call. Installed outermost, so the span covers the whole
/// active-files layer below it.
pub struct TimingLayer;

struct TimingApi {
    inner: Arc<dyn FileApi>,
}

impl ApiLayer for TimingLayer {
    fn name(&self) -> &str {
        "bench-seam-timing"
    }

    fn wrap(&self, inner: Arc<dyn FileApi>) -> Arc<dyn FileApi> {
        Arc::new(Layered(TimingApi { inner }))
    }
}

impl DelegateFileApi for TimingApi {
    fn delegate(&self) -> &dyn FileApi {
        &*self.inner
    }

    fn read_file(&self, handle: Handle, buf: &mut [u8]) -> ApiResult<usize> {
        let span = begin(INTERPOSE_CALL);
        let out = self.inner.read_file(handle, buf);
        span.end();
        out
    }

    fn write_file(&self, handle: Handle, data: &[u8]) -> ApiResult<usize> {
        let span = begin(INTERPOSE_CALL);
        let out = self.inner.write_file(handle, data);
        span.end();
        out
    }

    fn flush_file_buffers(&self, handle: Handle) -> ApiResult<()> {
        let span = begin(INTERPOSE_CALL);
        let out = self.inner.flush_file_buffers(handle);
        span.end();
        out
    }
}

/// The timing [`SentinelLogic`]: one `sentinel.logic` span per data-path
/// call into the real logic it wraps.
pub struct TimedLogic {
    inner: Box<dyn SentinelLogic>,
}

impl TimedLogic {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn SentinelLogic>) -> Self {
        TimedLogic { inner }
    }
}

impl SentinelLogic for TimedLogic {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        self.inner.on_open(ctx)
    }

    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        let span = begin(SENTINEL_LOGIC);
        let out = self.inner.read(ctx, offset, buf);
        span.end();
        out
    }

    fn write(&mut self, ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize> {
        let span = begin(SENTINEL_LOGIC);
        let out = self.inner.write(ctx, offset, data);
        span.end();
        out
    }

    fn len(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<u64> {
        self.inner.len(ctx)
    }

    fn control(
        &mut self,
        ctx: &mut SentinelCtx,
        code: u32,
        payload: &[u8],
    ) -> SentinelResult<Vec<u8>> {
        self.inner.control(ctx, code, payload)
    }

    fn flush(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let span = begin(SENTINEL_LOGIC);
        let out = self.inner.flush(ctx);
        span.end();
        out
    }

    fn on_close(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        self.inner.on_close(ctx)
    }
}

/// The timing [`Service`]: one `remote.service` span per request.
pub struct TimedService {
    inner: Arc<dyn Service>,
}

impl TimedService {
    /// Wraps `inner`.
    pub fn wrap(inner: Arc<dyn Service>) -> Arc<dyn Service> {
        Arc::new(TimedService { inner })
    }
}

impl Service for TimedService {
    fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
        let span = begin(REMOTE_SERVICE);
        let out = self.inner.handle(request);
        span.end();
        out
    }

    fn handle_cast(&self, request: &[u8]) {
        let span = begin(REMOTE_SERVICE);
        self.inner.handle_cast(request);
        span.end();
    }
}

/// Per-layer host times read off a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeamTimes {
    /// Median per op of `interpose.call` time not covered by
    /// `sentinel.logic`: transport + executor.
    pub handoff_ns: f64,
    /// Median per op of `sentinel.logic` self time.
    pub logic_ns: f64,
    /// Median per request of `remote.service` time.
    pub service_ns: f64,
    /// Spans recorded per generated op.
    pub spans_per_op: f64,
}

#[derive(Default, Clone, Copy)]
struct PerOp {
    interpose: u64,
    logic: u64,
    service_in_logic: u64,
    has_interpose: bool,
    has_logic: bool,
}

/// Computes [`SeamTimes`]: a layer's self time is its span's duration
/// minus what its child spans cover.
pub fn analyse(spans: &[Span]) -> SeamTimes {
    let name_of: HashMap<u64, &'static str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let mut per_op: HashMap<u64, PerOp> = HashMap::new();
    let mut service = Vec::new();
    let mut ops = 0u64;
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let entry = per_op.entry(s.op).or_default();
        match s.name {
            APP_OP => ops += 1,
            INTERPOSE_CALL => {
                entry.interpose += dur;
                entry.has_interpose = true;
            }
            SENTINEL_LOGIC => {
                entry.logic += dur;
                entry.has_logic = true;
            }
            REMOTE_SERVICE => {
                service.push(dur);
                if name_of.get(&s.parent) == Some(&SENTINEL_LOGIC) {
                    entry.service_in_logic += dur;
                }
            }
            _ => {}
        }
    }
    let mut handoff: Vec<u64> = per_op
        .values()
        .filter(|p| p.has_interpose)
        .map(|p| p.interpose.saturating_sub(p.logic))
        .collect();
    let mut logic: Vec<u64> = per_op
        .values()
        .filter(|p| p.has_logic)
        .map(|p| p.logic.saturating_sub(p.service_in_logic))
        .collect();
    SeamTimes {
        handoff_ns: stats::percentile(&mut handoff, 50.0) as f64,
        logic_ns: stats::percentile(&mut logic, 50.0) as f64,
        service_ns: stats::percentile(&mut service, 50.0) as f64,
        spans_per_op: spans.len() as f64 / ops.max(1) as f64,
    }
}

/// Renders up to `limit` spans as the `out/<workload>.trace.json`
/// document: `{"unit":"host_ns","recorded":N,"spans":[{...}]}`.
pub fn trace_json(spans: &[Span], limit: usize) -> String {
    let mut out = format!(
        "{{\"unit\":\"host_ns\",\"recorded\":{},\"spans\":[",
        spans.len()
    );
    for (i, s) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"start\":{},\"end\":{},\"id\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start, s.end, s.id, s.parent, s.op
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, id: u64, parent: u64, op: u64) -> Span {
        Span {
            name,
            start,
            end,
            id,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            span(APP_OP, 0, 100, 1, 0, 1),
            span(INTERPOSE_CALL, 5, 95, 2, 1, 1),
            span(SENTINEL_LOGIC, 30, 70, 3, 2, 1),
            span(REMOTE_SERVICE, 40, 50, 4, 3, 1),
        ];
        let t = analyse(&spans);
        assert_eq!(t.handoff_ns, 50.0);
        assert_eq!(t.logic_ns, 30.0);
        assert_eq!(t.service_ns, 10.0);
        assert_eq!(t.spans_per_op, 4.0);
    }

    #[test]
    fn nested_spans_on_one_thread_parent_to_the_enclosing_span() {
        let root = begin_op(77);
        let root_id = root.id;
        let call = begin(INTERPOSE_CALL);
        let call_id = call.id;
        let logic = begin(SENTINEL_LOGIC);
        assert_eq!(logic.parent, call_id);
        assert_eq!(logic.op, 77);
        logic.end();
        call.end();
        root.end();
        let mine: Vec<Span> = drain().into_iter().filter(|s| s.op == 77).collect();
        assert_eq!(mine.len(), 3);
        let call = mine
            .iter()
            .find(|s| s.name == INTERPOSE_CALL)
            .expect("call");
        assert_eq!(call.parent, root_id);
        assert!(trace_json(&mine, 2).matches("\"name\"").count() == 2);
    }
}
