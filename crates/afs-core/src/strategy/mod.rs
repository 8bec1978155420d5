//! The four implementation approaches of §4.
//!
//! Each submodule builds an `ActiveOps` — the per-open object the
//! intercepted stubs dispatch `ReadFile`/`WriteFile`/… to — with a
//! different partitioning of functionality between the application and an
//! external "process":
//!
//! | Module | Paper §| Sentinel runs as | Carrier | Crossings/op | Copies/transfer |
//! |--------|---------|------------------|---------|--------------|-----------------|
//! | [`process`] | 4.1 | separate process (thread stand-in) | two pipes | 2 process switches | 2 kernel copies |
//! | [`control`] | 4.2 | separate process | two pipes + control channel | 2 process switches | 2 kernel copies |
//! | [`thread`]  | 4.3 | thread in the app | shared memory + events | 2 thread switches | 1 user copy |
//! | [`dll`]     | 4.4 | inline call | none | 0 | logic's own only |
//!
//! Since the strategies trade copies and crossings — not semantics — the
//! whole hot path is written once, around two seams where an operation is
//! one value: the [`Op`]/[`OpReply`] command set here, handed by one
//! generic [`StrategyHandle`](handle::StrategyHandle) to a carrier as
//! [`post`/`call`](afs_ipc::AppPort), taken from the wire by the sentinel
//! side as [`next`/`reply`](dispatch::SentinelPort), and executed by
//! [`execute_op`] wherever the sentinel lives. Out of line (§4.2/§4.3)
//! the sentinel is one poll-driven [`dispatch::SentinelLoop`] on the
//! [`executor::SentinelExecutor`], wired by the one builder in
//! [`wire`]; private or shared, batched or not are inputs to that loop —
//! which port it drains and which sessions it is handed — not code paths
//! beside it. Inline (§4.4) the sentinel is an [`dll::InlineShared`] whose
//! sessions call [`execute_op`] on the application thread; a private open
//! is its one-session case. §4.1 carries no commands at all: its handle
//! streams over the two pipes and drops the rest "with an appropriate
//! return code". Out of line, the loop stages each command's payload in
//! an [`afs_ipc::FreeList`] it owns, so a settled sentinel allocates
//! nothing and locks nothing for it per operation; inline, a read lands
//! in the caller's buffer and nothing is staged at all.

pub(crate) mod batch;
pub mod control;
pub(crate) mod dispatch;
pub mod dll;
pub(crate) mod executor;
pub(crate) mod handle;
pub(crate) mod mux;
pub mod process;
pub mod thread;
pub(crate) mod wire;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{IpcError, SentinelExit};
use afs_sim::{clock, CostModel, CrossingKind, OpKind, OpTrace};
use afs_telemetry::{now_ns, LatencyHistogram, Layer, Telemetry, TraceContext};
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::{SentinelError, SentinelLogic};

/// Where one session's write-behind failures park until its next
/// synchronous operation; shared by the session's two ends.
pub(crate) type Sticky = Arc<StickySlot>;

/// The slot behind a [`Sticky`]. Both ends look into it on every
/// operation and it is empty unless a write has just failed, so the
/// empty answer comes from a flag, not from taking the lock.
#[derive(Debug, Default)]
pub(crate) struct StickySlot {
    /// `parked.is_some()`, written only under the lock.
    armed: AtomicBool,
    parked: Mutex<Option<SentinelError>>,
}

impl StickySlot {
    /// Parks `e`, replacing an earlier failure nobody collected.
    pub(crate) fn park(&self, e: SentinelError) {
        let mut parked = self.parked.lock();
        *parked = Some(e);
        self.armed.store(true, Ordering::Release);
    }

    /// Collects the parked failure, if any.
    pub(crate) fn take(&self) -> Option<SentinelError> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        let mut parked = self.parked.lock();
        self.armed.store(false, Ordering::Release);
        parked.take()
    }
}

/// Per-open wiring handed to a strategy `open`: the cost model and trace
/// ring the new handle records into, the telemetry hub, and the executor
/// the sentinel's dispatch task will be scheduled on.
#[derive(Clone)]
pub(crate) struct Instruments {
    pub(crate) model: CostModel,
    pub(crate) trace: Arc<OpTrace>,
    /// The strategy's label on trace records and spans
    /// ([`Strategy::label`](crate::spec::Strategy::label)).
    pub(crate) strategy: &'static str,
    pub(crate) tel: Arc<Telemetry>,
    /// Interned name of the sentinel being opened.
    pub(crate) sentinel: &'static str,
    pub(crate) exec: Arc<executor::SentinelExecutor>,
    /// `true` when this open came through a sentinel's own ctx API (§3
    /// composition): the new sentinel is pinned to a dedicated thread so
    /// the opener — which may block a pool worker waiting on it — cannot
    /// starve it of the bounded pool.
    pub(crate) pinned: bool,
}

impl Instruments {
    /// Registers a sentinel state machine: pooled normally, pinned to a
    /// dedicated thread for composition opens (see `pinned`).
    pub(crate) fn spawn_task<F>(&self, build: F) -> Arc<SentinelExit>
    where
        F: FnOnce(afs_ipc::ChannelWaker) -> Box<dyn executor::SentinelPoll>,
    {
        let stats = self.tel.sentinel_stats(self.sentinel);
        self.exec.spawn(self.pinned, stats, build)
    }

    /// The sentinel-side observation bundle.
    pub(crate) fn sentinel_side(&self) -> SentinelSide {
        SentinelSide {
            hist: self.tel.sentinel_hist(self.sentinel),
            tel: Arc::clone(&self.tel),
            strategy: self.strategy,
            note: "",
            session: 0,
        }
    }

    /// What an application-side handle of this open records its
    /// operations into — they cross `crossing`.
    pub(crate) fn recorder(&self, crossing: CrossingKind) -> handle::Recorder {
        handle::Recorder::new(
            self.model.clone(),
            Arc::clone(&self.trace),
            self.strategy,
            crossing,
            Arc::clone(&self.tel),
        )
    }

    /// The application end of `session`: a [`StrategyHandle`] driving
    /// `port`, surfacing the failures its sentinel end parks in `sticky`,
    /// and reaping a private sentinel's `exit` on close.
    ///
    /// [`StrategyHandle`]: handle::StrategyHandle
    pub(crate) fn handle(
        &self,
        port: Arc<impl afs_ipc::AppPort<mux::OpMux> + 'static>,
        session: u32,
        sticky: Sticky,
        exit: Option<Arc<SentinelExit>>,
    ) -> Arc<dyn ActiveOps> {
        let rec = self.recorder(port.crossing());
        let handle = handle::StrategyHandle::new(port, session, rec, sticky, exit);
        Arc::new(handle)
    }
}

/// Sentinel-side telemetry: span creation (parented to the op whose frame
/// the sentinel is serving) and the per-sentinel latency histogram.
#[derive(Clone)]
pub(crate) struct SentinelSide {
    tel: Arc<Telemetry>,
    hist: Arc<LatencyHistogram>,
    strategy: &'static str,
    /// Annotation applied to every span this side opens; a shared
    /// sentinel's session sets `"file=<path>"` and its id, so slow-op
    /// ancestry and traces name the owning session.
    note: &'static str,
    /// The session every span this side opens serves (0: none).
    session: u32,
}

impl SentinelSide {
    /// Returns this side annotating every span it opens with `session`
    /// and `file`, the interned `"file=<path>"` note.
    pub(crate) fn in_session(mut self, session: u32, file: &'static str) -> SentinelSide {
        (self.session, self.note) = (session, file);
        self
    }

    /// Runs one sentinel-side op execution under a [`Layer::Sentinel`] span
    /// parented to `trace` — the op's transport span, carried on the frame
    /// that brought the command (`TraceContext::default()`, a root, for
    /// the §4.1 pump, whose chunks serve no one op) — recording the
    /// execution latency in the per-sentinel histogram. Whichever thread
    /// serves the frame, and however late, the span joins its own op.
    pub(crate) fn observe<R>(
        &self,
        name: &'static str,
        trace: TraceContext,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.tel.enabled() {
            return f();
        }
        let _span = self.tel.span_in_context(
            Layer::Sentinel,
            name,
            self.strategy,
            trace,
            self.note,
            self.session,
        );
        let started = now_ns();
        let result = f();
        self.hist.record(now_ns().saturating_sub(started));
        result
    }
}

/// Application-side operations on one open active file. The file pointer
/// lives in the implementing handle; stubs call these.
pub(crate) trait ActiveOps: Send + Sync {
    /// Reads at the current pointer, advancing it.
    fn read(&self, buf: &mut [u8]) -> Result<usize, Win32Error>;
    /// Writes at the current pointer, advancing it.
    fn write(&self, data: &[u8]) -> Result<usize, Win32Error>;
    /// Moves the pointer; `Err(CallNotImplemented)` where the strategy
    /// cannot seek (§4.1).
    fn seek(&self, offset: i64, method: afs_winapi::SeekMethod) -> Result<u64, Win32Error>;
    /// `GetFileSize`.
    fn size(&self) -> Result<u64, Win32Error>;
    /// `ReadFileScatter`: one round trip fills the buffers in order,
    /// advancing the pointer by the total read.
    fn read_scatter(&self, bufs: &mut [&mut [u8]]) -> Result<usize, Win32Error>;
    /// `DeviceIoControl`: a sentinel-defined control exchange (the
    /// `AF_Control` entry point of §4.4).
    fn control(&self, code: u32, payload: &[u8]) -> Result<Vec<u8>, Win32Error>;
    /// `FlushFileBuffers`.
    fn flush(&self) -> Result<(), Win32Error>;
    /// `CloseHandle`: terminates the sentinel and reaps it.
    fn close(&self) -> Result<(), Win32Error>;
}

/// Control code answered by the runtime itself (never forwarded to the
/// sentinel logic): returns one byte, `1` when the file is currently
/// serving stale data (degraded reads from the last-good cache, or queued
/// writes awaiting replay), `0` otherwise.
pub const CTL_QUERY_STALE: u32 = 0xAF00_57A1;

/// Runtime control (pragma-style, never forwarded to sentinel logic):
/// checkpoints the durable store now. Replies with a text payload
/// `pages_written=<n> wal_truncated_bytes=<n>`. Fails with
/// `NotSupported` when the cache is not durable.
pub const CTL_STORE_CHECKPOINT: u32 = 0xAF00_57C1;

/// Runtime control: returns the durable store's counters as a text
/// payload of space-separated `key=value` pairs (`wal_appends`,
/// `wal_bytes`, `fsyncs`, `commits`, `checkpoints`, `staged`, `wal_len`,
/// `content_len`, `recovered`, `torn`, `sync`). Fails with
/// `NotSupported` when the cache is not durable.
pub const CTL_STORE_STATS: u32 = 0xAF00_57C2;

/// Runtime control: switches the durable store's sync mode. The request
/// payload is `always`, `commit`, or `off`; the reply echoes the new
/// mode. This is the consistency knob: `always` is strictest,
/// `off` trades the fsync barrier for speed (recovery still never
/// corrupts — it drops the torn tail).
pub const CTL_STORE_SYNC: u32 = 0xAF00_57C3;

/// Takes the parked write-behind failure when `op` is a synchronous
/// command it should pre-empt. Writes never pre-empt (they are the ops
/// that *park* failures) and Close reports through its own reply, with
/// the handle re-checking sticky afterwards.
pub(crate) fn take_sticky_preemption(sticky: &StickySlot, op: &Op) -> Option<SentinelError> {
    if matches!(op, Op::Write { .. } | Op::Close) {
        None
    } else {
        sticky.take()
    }
}

/// Maps sentinel failures to the Win32 codes the application sees.
pub(crate) fn to_win32(e: &SentinelError) -> Win32Error {
    match e {
        SentinelError::Unsupported => Win32Error::NotSupported,
        SentinelError::NoCache => Win32Error::InvalidParameter,
        SentinelError::InvalidParameter => Win32Error::InvalidParameter,
        SentinelError::Denied(_) => Win32Error::AccessDenied,
        SentinelError::Net(_) => Win32Error::NetworkError,
        SentinelError::Vfs(_) => Win32Error::AccessDenied,
        SentinelError::Other(_) => Win32Error::InvalidParameter,
    }
}

/// Commands carried on the control channel (§4.2: "a 'read 50' command is
/// sent to the sentinel…", "all other file operations are now passed to
/// the sentinel process as commands with arguments"). This is the full
/// `ActiveOps` surface: one protocol for every strategy that can carry
/// commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    /// Produce `len` bytes at `offset`; data follows on the read lane.
    Read { offset: u64, len: u32 },
    /// Produce the concatenation of the scatter segments starting at
    /// `offset`; data follows on the read lane in one message.
    ReadScatter { offset: u64, lens: Vec<u32> },
    /// Consume `len` bytes at `offset`; data follows on the write lane.
    Write { offset: u64, len: u32 },
    /// Report the logical file size.
    GetSize,
    /// Flush pending state.
    Flush,
    /// A sentinel-defined control exchange; the request payload rides the
    /// command itself (control payloads are small, like the commands).
    Control { code: u32, payload: Vec<u8> },
    /// Terminate after running the close hook.
    Close,
}

/// Replies (returned "along with the data via the read pipe" in the
/// prototype; a typed reply channel here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum OpReply {
    /// `n` bytes follow on the data lane (also the scatter reply).
    Read { n: u32 },
    /// The file size.
    Size(u64),
    /// The control exchange's response payload.
    Control { payload: Vec<u8> },
    /// Generic success.
    Done,
    /// The operation failed.
    Failed(SentinelError),
}

impl Op {
    /// The application-visible operation this command carries; its
    /// [`label`](OpKind::label) names the command's sentinel span.
    pub(crate) fn kind(&self) -> OpKind {
        match self {
            Op::Read { .. } => OpKind::Read,
            Op::ReadScatter { .. } => OpKind::ReadScatter,
            Op::Write { .. } => OpKind::Write,
            Op::GetSize => OpKind::Size,
            Op::Flush => OpKind::Flush,
            Op::Control { .. } => OpKind::Control,
            Op::Close => OpKind::Close,
        }
    }

    /// How many bytes a read command asks for — the room its bytes need
    /// where they land; `None` for every other command.
    pub(crate) fn read_room(&self) -> Option<usize> {
        match self {
            Op::Read { len, .. } => Some(*len as usize),
            Op::ReadScatter { lens, .. } => Some(lens.iter().map(|&l| l as usize).sum()),
            _ => None,
        }
    }
}

impl OpReply {
    /// How many bytes the reply announces behind it.
    pub(crate) fn announced(&self) -> usize {
        match self {
            OpReply::Read { n } => *n as usize,
            _ => 0,
        }
    }
}

/// Executes one protocol command against the sentinel logic, wherever the
/// sentinel runs: the dispatch loop (§4.2, §4.3) and the inline DLL-only
/// transport (§4.4) both funnel through here, so all four strategies share
/// operation semantics by construction.
///
/// `payload` carries the bytes of a `Write`; a read's bytes land in the
/// front of `into`, which the caller sizes by [`Op::read_room`] — staging
/// where the reply has to travel, the application's own buffer where it
/// does not. Other commands ignore both. A `Write` failure comes back as
/// `Failed` — the caller decides whether to park it (write-behind) or
/// surface it.
///
/// # Errors
///
/// [`IpcError::BrokenPipe`](afs_ipc::IpcError::BrokenPipe) when a read
/// routine reports more bytes than it was given room for: over-delivery,
/// the violation [`AppPort::call`](afs_ipc::AppPort::call) names, caught
/// where the bytes land. Nothing is delivered and the sentinel stays up.
pub(crate) fn execute_op(
    logic: &mut dyn SentinelLogic,
    ctx: &mut SentinelCtx,
    op: Op,
    payload: &[u8],
    into: &mut [u8],
) -> afs_ipc::Result<OpReply> {
    // Writes queued while the remote was down replay ahead of the next
    // command, so a healed remote catches up before new state lands on it.
    if ctx.degraded_enabled() && ctx.write_queue_len() > 0 {
        replay_queued_writes(logic, ctx);
    }
    Ok(match op {
        Op::Read { offset, len } => {
            read_segments(logic, ctx, offset, std::iter::once(len as usize), into)?
        }
        Op::ReadScatter { offset, lens } => {
            // An empty segment asks the sentinel nothing.
            let lens = lens.iter().map(|&l| l as usize).filter(|&l| l != 0);
            read_segments(logic, ctx, offset, lens, into)?
        }
        Op::Write { offset, .. } => match logic.write(ctx, offset, payload) {
            Ok(_) => OpReply::Done,
            Err(SentinelError::Net(e)) if e.is_fault() && ctx.degraded_enabled() => {
                // The remote is down: accept the write into the last-good
                // cache and queue it for replay on heal.
                let _ = ctx.cache().write_at(offset, payload);
                ctx.write_queue().push((offset, payload.to_vec()));
                note_degraded_entry(ctx, "write");
                ctx.set_stale(true);
                ctx.net().reliability_stats().note_queued_write();
                OpReply::Done
            }
            Err(e) => OpReply::Failed(e),
        },
        Op::GetSize => match logic.len(ctx) {
            Ok(n) => OpReply::Size(n),
            Err(SentinelError::Net(e)) if ctx.may_serve_last_good(&e) => match ctx.cache().len() {
                Ok(n) => {
                    note_degraded_entry(ctx, "size");
                    ctx.set_stale(true);
                    OpReply::Size(n)
                }
                Err(e) => OpReply::Failed(e),
            },
            Err(e) => OpReply::Failed(e),
        },
        Op::Flush => match logic.flush(ctx) {
            // `FlushFileBuffers` is the group-commit point of a durable
            // cache: after the logic's own flush, seal the staged WAL
            // batch.
            Ok(()) => match flush_durable_cache(ctx) {
                Ok(()) => OpReply::Done,
                Err(e) => OpReply::Failed(e),
            },
            Err(e) => OpReply::Failed(e),
        },
        Op::Control {
            code,
            payload: request,
        } => {
            if code == CTL_QUERY_STALE {
                let payload = vec![u8::from(ctx.is_stale())];
                OpReply::Control { payload }
            } else if let Some(reply) = store_control(ctx, code, &request) {
                reply
            } else {
                match logic.control(ctx, code, &request) {
                    Ok(response) => OpReply::Control { payload: response },
                    Err(e) => OpReply::Failed(e),
                }
            }
        }
        Op::Close => {
            let reply = match logic.on_close(ctx) {
                Ok(()) => OpReply::Done,
                Err(e) => OpReply::Failed(e),
            };
            ctx.persist_cache();
            reply
        }
    })
}

/// Serves a read of consecutive segments starting at `offset` into the
/// front of `into`; `Read` is the one-segment scatter. A short segment is
/// the end of the data and ends the read; a segment reported longer than
/// it is — or one `into` has no room for — is over-delivery.
fn read_segments(
    logic: &mut dyn SentinelLogic,
    ctx: &mut SentinelCtx,
    offset: u64,
    lens: impl Iterator<Item = usize>,
    into: &mut [u8],
) -> afs_ipc::Result<OpReply> {
    let mut filled = 0usize;
    for len in lens {
        let segment = into
            .get_mut(filled..filled + len)
            .ok_or(IpcError::BrokenPipe)?;
        match read_segment(logic, ctx, offset + filled as u64, segment) {
            Ok(n) if n > len => return Err(IpcError::BrokenPipe),
            Ok(n) => {
                filled += n;
                if n < len {
                    break;
                }
            }
            Err(e) => return Ok(OpReply::Failed(e)),
        }
    }
    Ok(OpReply::Read { n: filled as u32 })
}

/// Reads one segment through the sentinel logic under the degraded-mode
/// contract: a read the remote answered refreshes the last-good cache,
/// and one it could not answer is served from that cache with the handle
/// flagged stale.
fn read_segment(
    logic: &mut dyn SentinelLogic,
    ctx: &mut SentinelCtx,
    offset: u64,
    buf: &mut [u8],
) -> Result<usize, SentinelError> {
    match logic.read(ctx, offset, buf) {
        Ok(n) => {
            if ctx.degraded_enabled() {
                // A fresh remote read with nothing queued means we are
                // current again. (An over-reported count vouches for no
                // bytes; `read_segments` fails it.)
                if let Some(fresh) = buf.get(..n) {
                    let _ = ctx.cache().write_at(offset, fresh);
                }
                if ctx.write_queue_len() == 0 {
                    ctx.set_stale(false);
                }
            }
            Ok(n)
        }
        Err(SentinelError::Net(e)) if ctx.may_serve_last_good(&e) => {
            // Every replica is down: serve the last-good bytes and flag
            // the handle stale (§6's availability argument, extended —
            // the legacy application keeps running). An owner's refusal
            // is an answer, never served from the cache.
            let n = ctx.cache().read_at(offset, buf)?;
            note_degraded_entry(ctx, "read");
            ctx.set_stale(true);
            ctx.net().reliability_stats().note_degraded_read();
            Ok(n)
        }
        Err(e) => Err(e),
    }
}

/// Fires the `degraded_enter` flight-recorder trigger on the transition
/// into stale service (not on every degraded op). The recorder is reached
/// through the open sentinel span's hub; with telemetry disabled there is
/// no open span and this is a no-op.
fn note_degraded_entry(ctx: &SentinelCtx, op: &str) {
    if !ctx.is_stale() {
        afs_telemetry::flight_trigger("degraded_enter", format!("path={} op={op}", ctx.path()));
    }
}

/// Group-commits a durable cache; a no-op for every other backing.
fn flush_durable_cache(ctx: &mut SentinelCtx) -> Result<(), SentinelError> {
    if ctx.cache().kind() == Some(afs_store::BackendKind::Durable) {
        ctx.cache().flush()?;
    }
    Ok(())
}

/// Answers the `CTL_STORE_*` runtime controls, or `None` for any other
/// code (which then forwards to the sentinel logic as usual).
fn store_control(ctx: &mut SentinelCtx, code: u32, request: &[u8]) -> Option<OpReply> {
    match code {
        CTL_STORE_CHECKPOINT => Some(match ctx.cache().checkpoint() {
            Ok(report) => OpReply::Control {
                payload: format!(
                    "pages_written={} wal_truncated_bytes={}",
                    report.pages_written, report.wal_truncated_bytes
                )
                .into_bytes(),
            },
            Err(e) => OpReply::Failed(e),
        }),
        CTL_STORE_STATS => Some(match ctx.cache().store_stats() {
            Some(s) => OpReply::Control {
                payload: format!(
                    "wal_appends={} wal_bytes={} fsyncs={} commits={} checkpoints={} \
                     staged={} wal_len={} content_len={} recovered={} torn={} sync={}",
                    s.wal_appends,
                    s.wal_bytes,
                    s.fsyncs,
                    s.commits,
                    s.checkpoints,
                    s.staged_records,
                    s.wal_len,
                    s.content_len,
                    s.recovered_records,
                    s.torn_detected,
                    s.sync.label()
                )
                .into_bytes(),
            },
            None => OpReply::Failed(SentinelError::Unsupported),
        }),
        CTL_STORE_SYNC => Some({
            let mode = std::str::from_utf8(request)
                .ok()
                .and_then(afs_store::SyncMode::parse);
            match mode {
                None => OpReply::Failed(SentinelError::InvalidParameter),
                Some(mode) => {
                    if ctx.cache().set_sync_mode(mode) {
                        OpReply::Control {
                            payload: mode.label().as_bytes().to_vec(),
                        }
                    } else {
                        OpReply::Failed(SentinelError::Unsupported)
                    }
                }
            }
        }),
        _ => None,
    }
}

/// Replays writes queued while the remote was down, in arrival order,
/// stopping at the first failure (the remote is still down — the rest of
/// the queue stays, preserving order). Draining the queue clears the
/// stale flag: the remote has caught up with everything we accepted.
fn replay_queued_writes(logic: &mut dyn SentinelLogic, ctx: &mut SentinelCtx) {
    // Replay is about to mutate remote state: any speculative readahead
    // the batched-ring driver staged before this point describes the
    // pre-replay world and must not be harvested afterwards. Bumping the
    // heal generation makes the driver retire its completion-cache epoch
    // (and drop queued speculative reads) before serving anything else.
    ctx.bump_heal_generation();
    while let Some((offset, data)) = ctx.write_queue().first().cloned() {
        if logic.write(ctx, offset, &data).is_err() {
            return;
        }
        ctx.write_queue().remove(0);
        ctx.net().reliability_stats().note_replayed_write();
    }
    ctx.set_stale(false);
}

/// Runs `body` as `instr`'s sentinel on a thread of its own that inherits
/// the opener's virtual clock, and returns its exit, signalled when the
/// body returns or faults. A fault is counted; what the body held — its
/// pipe ends — dropped in the unwind.
pub(crate) fn spawn_sentinel<F>(name: &str, instr: &Instruments, body: F) -> Arc<SentinelExit>
where
    F: FnOnce() + Send + 'static,
{
    let stats = instr.tel.sentinel_stats(instr.sentinel);
    let exit = Arc::new(SentinelExit::default());
    let signal = Arc::clone(&exit);
    afs_sim::spawn(format!("sentinel-{name}"), clock::current(), move || {
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_err() {
            stats.fault();
        }
        signal.signal(clock::now());
    });
    exit
}
