//! The application side of every command-carrying strategy: one seam, one
//! handle.
//!
//! [`AppPort`] is the mirror image of the sentinel side's
//! [`SentinelPort`](super::dispatch::SentinelPort): where the loop takes a
//! whole command with `next` and answers it with `reply`, the application
//! hands a carrier a whole operation — [`AppPort::post`] for the
//! write-behind command nobody waits on, [`AppPort::call`] for everything
//! else, the bytes that follow a reply landing in the caller's buffer.
//! Four carriers implement it, and they differ only in what moves the
//! bytes:
//!
//! | Carrier | `call` does | and charges |
//! |---------|-------------|-------------|
//! | [`PairTransport<Op, OpReply>`] (§4.2/§4.3, private) | command, reply, payload over the four lanes | the lanes' syscalls/events and copies; the handle adds the round trip's two switches |
//! | [`MuxSession`] (shared) | flushes staged writes, frames the command, pulls its reply or takes it from its mailbox | two switches per transmitted frame, `Memcpy` per staging copy |
//! | [`RingDriver`](super::batch::RingDriver) (`batch=on`) | staged writes + the command (+ readahead) in one batch, or a readahead hit | one doorbell and one switch pair per batch, `Memcpy` per entry |
//! | `InlineSession` (§4.4) | `execute_op` on this thread under the core lock | nothing beyond the logic's own |
//!
//! A [`StrategyHandle`] drives the [`Op`]/[`OpReply`] protocol over any of
//! them and keeps what is per-open: the file pointer, the sticky
//! write-behind error, the reaper. (§4.1 has no commands to carry; its
//! handle is the stream handle in [`process`](super::process).)
//!
//! Every operation is recorded by a [`Recorder`] in an [`OpTrace`]:
//! virtual elapsed time, payload bytes, and the protection-domain
//! crossings and buffer copies charged while it ran, so a run can be
//! audited against the per-strategy cost table of §4. The inline carrier's
//! operations are measured by their own thread's charges, the others' by
//! the whole model's (see `Recorder::window`). One caveat: writes
//! are acknowledged eagerly (write-behind), so sentinel-side charges for a
//! write may land in a *later* operation's record — per-op write costs are
//! eventual, while totals stay exact.

use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{BufferPool, IpcError, MuxSession, PairTransport};
use afs_sim::{clock, Cost, CostModel, CrossingKind, OpKind, OpTrace, OpWindow, TraceRecord};
use afs_telemetry::{now_ns, LatencyHistogram, Layer, SloTracker, SpanGuard, SpanScope, Telemetry};
use afs_winapi::{SeekMethod, Win32Error};

use crate::strategy::mux::OpMux;
use crate::strategy::{reap, to_win32, ActiveOps, Op, OpReply, Reaper, Sticky};

/// The application end of one session's wire, as much of it as the
/// handle needs: an operation goes in whole and comes back whole.
pub(crate) trait AppPort: Send + Sync {
    /// Which protection boundary an operation round-trip crosses.
    fn crossing(&self) -> CrossingKind;

    /// Whether the carrier charges its own crossings. One that batches or
    /// coalesces must, since an operation's crossing count is no longer a
    /// per-op constant; the handle then skips its round-trip charge.
    fn charges_own_crossings(&self) -> bool {
        false
    }

    /// Sends a `Write` and its bytes; nobody waits for the outcome (a
    /// failure parks in the session's sticky slot).
    ///
    /// # Errors
    ///
    /// The sentinel end is gone.
    fn post(&self, op: Op, payload: &[u8]) -> afs_ipc::Result<()>;

    /// Sends `op`, waits for its reply, and lands the bytes that follow
    /// the reply in the front of `into`; returns the reply and how many.
    ///
    /// # Errors
    ///
    /// [`IpcError::BrokenPipe`] when the command went nowhere because the
    /// sentinel end was already gone — or when the reply announced more
    /// bytes than `into` has room for, a protocol violation that fails the
    /// operation and leaves the wire usable. Anything else: the wire died
    /// under the operation.
    fn call(&self, op: Op, into: &mut [u8]) -> afs_ipc::Result<(OpReply, usize)>;
}

/// The private §4.2/§4.3 wire: exactly the paper's sequence — "a 'read
/// 50' command is sent to the sentinel, and then 50 bytes are read from
/// the read pipe".
impl AppPort for PairTransport<Op, OpReply> {
    fn crossing(&self) -> CrossingKind {
        PairTransport::crossing(self)
    }

    fn post(&self, op: Op, payload: &[u8]) -> afs_ipc::Result<()> {
        self.send_cmd(op)?;
        if payload.is_empty() {
            return Ok(());
        }
        self.send_data(payload)
    }

    fn call(&self, op: Op, into: &mut [u8]) -> afs_ipc::Result<(OpReply, usize)> {
        self.send_cmd(op)?;
        let reply = self.recv_reply()?;
        let n = match reply {
            OpReply::Read { n } => self.recv_payload(n as usize, into)?,
            _ => 0,
        };
        Ok((reply, n))
    }
}

/// One session of a shared sentinel; the hub charges per transmitted
/// frame, so a coalesced write crosses nothing.
impl AppPort for MuxSession<OpMux> {
    fn crossing(&self) -> CrossingKind {
        MuxSession::crossing(self)
    }

    fn charges_own_crossings(&self) -> bool {
        true
    }

    fn post(&self, op: Op, payload: &[u8]) -> afs_ipc::Result<()> {
        MuxSession::post(self, op, payload)
    }

    fn call(&self, op: Op, into: &mut [u8]) -> afs_ipc::Result<(OpReply, usize)> {
        MuxSession::call(self, op, into)
    }
}

/// Lands the bytes a reply came with in the front of `into`, for the
/// carrier that holds reply and bytes together (a ring completion). The
/// count the reply announces is what is delivered, under the same rule as
/// on a wire: more than `into` holds fails the operation.
pub(crate) fn deliver(
    reply: OpReply,
    data: Option<&[u8]>,
    into: &mut [u8],
) -> afs_ipc::Result<(OpReply, usize)> {
    let n = reply.announced();
    match (into.get_mut(..n), data.unwrap_or_default().get(..n)) {
        (Some(dst), Some(src)) => dst.copy_from_slice(src),
        _ => return Err(IpcError::BrokenPipe),
    }
    Ok((reply, n))
}

/// Every [`OpKind`] in [`op_index`] order, for the per-op histogram cache.
const OP_KINDS: [OpKind; 7] = [
    OpKind::Read,
    OpKind::ReadScatter,
    OpKind::Write,
    OpKind::Size,
    OpKind::Flush,
    OpKind::Control,
    OpKind::Close,
];

fn op_index(op: OpKind) -> usize {
    match op {
        OpKind::Read => 0,
        OpKind::ReadScatter => 1,
        OpKind::Write => 2,
        OpKind::Size => 3,
        OpKind::Flush => 4,
        OpKind::Control => 5,
        OpKind::Close => 6,
    }
}

/// What every application-side handle records an operation into: the
/// op trace, the file's SLO tracker, the per-(strategy, op) histogram
/// and the op's strategy span.
pub(crate) struct Recorder {
    model: CostModel,
    trace: Arc<OpTrace>,
    strategy: &'static str,
    /// The boundary this handle's operations cross.
    crossing: CrossingKind,
    tel: Arc<Telemetry>,
    /// Publishes the in-flight op's trace context so the sentinel task can
    /// parent (and trace) its spans to the op it is serving, no matter
    /// which executor worker polls it.
    scope: Arc<SpanScope>,
    /// The file's SLO tracker, when objectives are declared in the spec.
    slo: Option<Arc<SloTracker>>,
    /// Per-(strategy, op) latency histograms, resolved once at open.
    hists: [Arc<LatencyHistogram>; 7],
}

impl Recorder {
    pub(crate) fn new(
        model: CostModel,
        trace: Arc<OpTrace>,
        strategy: &'static str,
        crossing: CrossingKind,
        tel: Arc<Telemetry>,
        scope: Arc<SpanScope>,
        slo: Option<Arc<SloTracker>>,
    ) -> Self {
        let hists = OP_KINDS.map(|kind| tel.strategy_hist(strategy, kind.label()));
        Recorder {
            model,
            trace,
            strategy,
            crossing,
            tel,
            scope,
            slo,
            hists,
        }
    }

    /// Opens a [`Layer::Transport`] span for the wire exchange of the
    /// current op (no-op while telemetry is disabled).
    pub(crate) fn transport_span(&self, name: &'static str) -> Option<SpanGuard> {
        self.tel.span_tagged(Layer::Transport, name, self.strategy)
    }

    /// Charges the two switches of one round trip across the boundary.
    pub(crate) fn charge_round_trip(&self) {
        for _ in 0..self.crossing.round_trip_switches() {
            self.model.charge(Cost::Crossing(self.crossing));
        }
    }

    /// The counters an operation's record is the movement of. An inline
    /// (§4.4) operation runs wholly on its caller's thread, so that
    /// thread's own charges are its cost exactly, whatever other handles
    /// do meanwhile — and reading them touches nothing shared. An
    /// operation served across a boundary is charged on other threads
    /// too, so its window is the whole model's (and takes in whatever
    /// else was charged while it ran).
    fn window(&self) -> OpWindow {
        match self.crossing {
            CrossingKind::None => OpWindow::of_this_thread(),
            _ => self.model.op_window(),
        }
    }

    /// Runs one operation under trace: the closure returns the result plus
    /// the payload byte count, and the wrapper attributes the virtual time
    /// and the cost-counter deltas that accrued meanwhile. With telemetry
    /// enabled it additionally opens the op's [`Layer::Strategy`] span
    /// (published through `scope` for sentinel-side parenting) and records
    /// the latency histogram for `(strategy, op)`.
    pub(crate) fn traced<R>(
        &self,
        op: OpKind,
        f: impl FnOnce() -> (Result<R, Win32Error>, u64),
    ) -> Result<R, Win32Error> {
        let tel_on = self.tel.enabled();
        let mut span = None;
        let mut tel_started = 0;
        if tel_on {
            span = self
                .tel
                .span_tagged(Layer::Strategy, op.label(), self.strategy);
            if let Some(sp) = &span {
                self.scope.publish(sp.context());
            }
            tel_started = now_ns();
        }
        let started = clock::now();
        let before = self.window();
        let (result, bytes) = f();
        let elapsed_ns = clock::now().saturating_sub(started);
        let charged = self.window().since(&before);
        self.trace.record(TraceRecord {
            strategy: self.strategy,
            op,
            bytes,
            elapsed_ns,
            crossings: charged.crossings,
            copies: charged.copies,
        });
        if let Some(slo) = &self.slo {
            // Virtual elapsed time, so burn rates are exact under the sim
            // clock and objectives survive telemetry being off.
            slo.record(elapsed_ns, result.is_err());
        }
        if tel_on {
            self.hists[op_index(op)].record(now_ns().saturating_sub(tel_started));
            if let Some(sp) = span.as_mut() {
                sp.set_bytes(bytes);
            }
        }
        result
    }
}

/// Application-side handle: one implementation of the full `ActiveOps`
/// surface, generic over what carries its operations to the sentinel.
pub(crate) struct StrategyHandle<P: AppPort> {
    port: P,
    rec: Recorder,
    /// The file pointer. Holding it is what serialises the handle's
    /// operations: commands carry absolute offsets, so an operation owns
    /// the pointer from the offset it sends to the count it adds.
    pointer: Mutex<u64>,
    sticky: Sticky,
    reaper: Mutex<Option<Reaper>>,
    /// Scratch buffers for scatter reassembly.
    pool: BufferPool,
}

impl<P: AppPort> StrategyHandle<P> {
    pub(crate) fn new(port: P, rec: Recorder, sticky: Sticky, reaper: Option<Reaper>) -> Self {
        StrategyHandle {
            port,
            rec,
            pointer: Mutex::new(0),
            sticky,
            reaper: Mutex::new(reaper),
            pool: BufferPool::new(),
        }
    }

    fn charge_round_trip(&self) {
        if !self.port.charges_own_crossings() {
            self.rec.charge_round_trip();
        }
    }

    fn check_sticky(&self) -> Result<(), Win32Error> {
        match self.sticky.take() {
            Some(e) => Err(to_win32(&e)),
            None => Ok(()),
        }
    }

    /// One charged round trip under its transport span; a `Failed` reply
    /// and a failed wire both come back as the Win32 code the stub
    /// returns. The caller holds the pointer.
    fn round_trip(&self, op: Op, into: &mut [u8]) -> Result<(OpReply, usize), Win32Error> {
        let _wire = self.rec.transport_span("round-trip");
        self.charge_round_trip();
        match self.port.call(op, into) {
            Ok((OpReply::Failed(e), _)) => Err(to_win32(&e)),
            Ok(answer) => Ok(answer),
            Err(_) => Err(Win32Error::BrokenPipe),
        }
    }

    /// The command read shared by `read` and `read_scatter`: `op` reads at
    /// `*pointer` into `into`, and the pointer moves by what arrived.
    /// Returns the result and the traced byte count.
    fn read_at(
        &self,
        pointer: &mut u64,
        op: Op,
        into: &mut [u8],
    ) -> (Result<usize, Win32Error>, u64) {
        let result = match self.round_trip(op, into) {
            Ok((OpReply::Read { .. }, n)) => Ok(n),
            Ok(_) => Err(Win32Error::BrokenPipe),
            Err(e) => Err(e),
        };
        let n = *result.as_ref().unwrap_or(&0) as u64;
        *pointer += n;
        (result, n)
    }

    /// The traced `GetSize` round trip. The caller holds the pointer.
    fn size_locked(&self) -> Result<u64, Win32Error> {
        self.rec.traced(OpKind::Size, || {
            let r = match self.round_trip(Op::GetSize, &mut []) {
                Ok((OpReply::Size(n), _)) => Ok(n),
                Ok(_) => Err(Win32Error::BrokenPipe),
                Err(e) => Err(e),
            };
            (r, 0)
        })
    }
}

impl<P: AppPort> ActiveOps for StrategyHandle<P> {
    fn read(&self, buf: &mut [u8]) -> Result<usize, Win32Error> {
        let mut pointer = self.pointer.lock();
        self.check_sticky()?;
        self.rec.traced(OpKind::Read, || {
            let op = Op::Read {
                offset: *pointer,
                len: buf.len() as u32,
            };
            self.read_at(&mut pointer, op, buf)
        })
    }

    fn write(&self, data: &[u8]) -> Result<usize, Win32Error> {
        let mut pointer = self.pointer.lock();
        self.check_sticky()?;
        self.rec.traced(OpKind::Write, || {
            let _wire = self.rec.transport_span("send");
            self.charge_round_trip();
            let result = (|| {
                let op = Op::Write {
                    offset: *pointer,
                    len: data.len() as u32,
                };
                self.port
                    .post(op, data)
                    .map_err(|_| Win32Error::BrokenPipe)?;
                if self.port.crossing() == CrossingKind::None {
                    // §4.4: the sentinel routine ran inline on this call,
                    // so its error is already known — surface it now
                    // rather than write-behind style on a later op.
                    self.check_sticky()?;
                }
                *pointer += data.len() as u64;
                Ok(data.len())
            })();
            (result, data.len() as u64)
        })
    }

    fn seek(&self, offset: i64, method: SeekMethod) -> Result<u64, Win32Error> {
        // Seeks are resolved application-side: commands carry absolute
        // offsets, so moving the pointer costs nothing remote — except
        // End-relative seeks, which need the size. The pointer is held
        // across the whole resolve-and-store: a read/write interleaving
        // between the base query and the store would make the stored
        // position stale, silently rewinding the file pointer.
        let mut pointer = self.pointer.lock();
        let base: i64 = match method {
            SeekMethod::Begin => 0,
            SeekMethod::Current => *pointer as i64,
            SeekMethod::End => {
                self.check_sticky()?;
                self.size_locked()? as i64
            }
        };
        let target = base
            .checked_add(offset)
            .ok_or(Win32Error::InvalidParameter)?;
        if target < 0 {
            return Err(Win32Error::InvalidParameter);
        }
        *pointer = target as u64;
        Ok(target as u64)
    }

    fn size(&self) -> Result<u64, Win32Error> {
        let _pointer = self.pointer.lock();
        self.check_sticky()?;
        self.size_locked()
    }

    fn read_scatter(&self, bufs: &mut [&mut [u8]]) -> Result<usize, Win32Error> {
        let mut pointer = self.pointer.lock();
        self.check_sticky()?;
        self.rec.traced(OpKind::ReadScatter, || {
            let op = Op::ReadScatter {
                offset: *pointer,
                lens: bufs.iter().map(|b| b.len() as u32).collect(),
            };
            // The sentinel produces one contiguous message; it lands in
            // pooled scratch and is dealt out to the caller's buffers in
            // order. The deal-out is pointer shuffling inside the
            // application, not a transfer, so it is not charged.
            let mut scratch = self.pool.take(bufs.iter().map(|b| b.len()).sum());
            let (result, n) = self.read_at(&mut pointer, op, &mut scratch);
            let mut rest = &scratch[..n as usize];
            for buf in bufs.iter_mut() {
                let (head, tail) = rest.split_at(buf.len().min(rest.len()));
                buf[..head.len()].copy_from_slice(head);
                rest = tail;
            }
            self.pool.put(scratch);
            (result, n)
        })
    }

    fn control(&self, code: u32, payload: &[u8]) -> Result<Vec<u8>, Win32Error> {
        let _pointer = self.pointer.lock();
        self.check_sticky()?;
        self.rec.traced(OpKind::Control, || {
            let op = Op::Control {
                code,
                payload: payload.to_vec(),
            };
            match self.round_trip(op, &mut []) {
                Ok((OpReply::Control { payload: response }, _)) => {
                    let bytes = (payload.len() + response.len()) as u64;
                    (Ok(response), bytes)
                }
                Ok(_) => (Err(Win32Error::BrokenPipe), payload.len() as u64),
                Err(e) => (Err(e), payload.len() as u64),
            }
        })
    }

    fn flush(&self) -> Result<(), Win32Error> {
        let _pointer = self.pointer.lock();
        self.check_sticky()?;
        self.rec.traced(OpKind::Flush, || {
            let r = match self.round_trip(Op::Flush, &mut []) {
                Ok((OpReply::Done, _)) => Ok(()),
                Ok(_) => Err(Win32Error::BrokenPipe),
                Err(e) => Err(e),
            };
            (r, 0)
        })
    }

    fn close(&self) -> Result<(), Win32Error> {
        let result = self.rec.traced(OpKind::Close, || {
            let _pointer = self.pointer.lock();
            let _wire = self.rec.transport_span("round-trip");
            self.charge_round_trip();
            let r = match self.port.call(Op::Close, &mut []) {
                Ok((OpReply::Done, _)) => Ok(()),
                Ok((OpReply::Failed(e), _)) => Err(to_win32(&e)),
                // Never delivered — the sentinel is already gone; close
                // is idempotent.
                Err(IpcError::BrokenPipe) => Ok(()),
                _ => Err(Win32Error::BrokenPipe),
            };
            (r, 0)
        });
        reap(&self.reaper);
        let sticky = self.check_sticky();
        result.and(sticky)
    }
}

#[cfg(test)]
mod tests;
