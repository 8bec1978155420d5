//! The application side of every command-carrying strategy: one seam, one
//! handle.
//!
//! [`AppPort`] is the mirror image of the sentinel side's
//! [`SentinelPort`](super::dispatch::SentinelPort): where the loop takes a
//! whole command with `next` and answers it with `reply`, the application
//! hands a carrier a whole operation — [`AppPort::post`] for the
//! write-behind command nobody waits on, [`AppPort::call`] for everything
//! else, the bytes that follow a reply landing in the caller's buffer.
//! Four carriers implement it — the bare pair, and each of three session
//! hubs (see [`mux`](super::mux)) — and they differ only in what moves
//! the bytes; each charges its own crossings:
//!
//! | Carrier | `call` does | and charges |
//! |---------|-------------|-------------|
//! | [`PairTransport`](afs_ipc::PairTransport) (§4.2/§4.3, private) | command out; reply back with its payload (behind it on a §4.2 pipe, in it on §4.3) | two switches per command, the lanes' syscalls/events and copies |
//! | [`MuxHub`](afs_ipc::MuxHub) (shared) | flushes staged writes, frames the command, pulls its reply or takes it from its mailbox | two switches per transmitted frame, `Memcpy` per staging copy |
//! | [`RingDriver`](super::batch::RingDriver) (`batch=on`) | every session's staged writes + the command (+ readahead) in one batch, or a readahead hit | one doorbell and one switch pair per batch, `Memcpy` per staging copy |
//! | [`InlineShared`](super::dll::InlineShared) (§4.4) | `execute_op` on this thread under the core lock | nothing beyond the logic's own |
//!
//! A [`StrategyHandle`] drives the [`Op`]/[`OpReply`] protocol over any of
//! them and keeps what is per-open: its session, the file pointer, the
//! sticky write-behind error, its private sentinel's exit. (§4.1 has no
//! commands to carry; its handle is the stream handle in [`process`](super::process).)
//!
//! Every command goes in a [`Framed`] envelope with its session and the
//! [`TraceContext`] of its op's transport span (`send` or `round-trip`):
//! the out-of-line carriers put it on the wire, the inline one hands it
//! to the sentinel, so a sentinel span joins the op it serves however
//! late the command is served. A command is charged per message, never
//! by size, so the envelope costs nothing.
//!
//! Every operation is recorded by a [`Recorder`] in an [`OpTrace`]: its
//! count, payload bytes and virtual elapsed time. The crossings and
//! copies it made are the cost model's count alone
//! ([`CostModel::snapshot`]); a run is audited against §4's per-strategy
//! cost table from that.

use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{AppPort, Framed, FreeList, IpcError, SentinelExit};
use afs_sim::{clock, CostModel, CrossingKind, OpKind, OpTrace, TraceRecord};
use afs_telemetry::{now_ns, LatencyHistogram, Layer, SpanGuard, Telemetry, TraceContext};
use afs_winapi::{SeekMethod, Win32Error};

use crate::strategy::mux::OpMux;
use crate::strategy::{to_win32, ActiveOps, Op, OpReply, Sticky};

/// Lands the bytes a reply came with in the front of `into`, for a ring
/// completion, which holds reply and bytes together as a §4.3 pair reply
/// does. The count the reply announces is what is delivered, under the
/// rule of a pair wire's `afs_ipc::Payload::land`: more than `into` holds
/// fails the operation.
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

/// What every application-side handle records an operation into: the
/// op trace, the per-(strategy, op) histogram and the op's strategy span.
pub(crate) struct Recorder {
    model: CostModel,
    trace: Arc<OpTrace>,
    strategy: &'static str,
    /// The boundary this handle's operations cross.
    crossing: CrossingKind,
    tel: Arc<Telemetry>,
    /// Per-(strategy, op) latency histograms, resolved once at open, in
    /// [`OpKind::ALL`] order.
    hists: [Arc<LatencyHistogram>; OpKind::ALL.len()],
}

impl Recorder {
    pub(crate) fn new(
        model: CostModel,
        trace: Arc<OpTrace>,
        strategy: &'static str,
        crossing: CrossingKind,
        tel: Arc<Telemetry>,
    ) -> Self {
        let hists = OpKind::ALL.map(|kind| tel.strategy_hist(strategy, kind.label()));
        Recorder {
            model,
            trace,
            strategy,
            crossing,
            tel,
            hists,
        }
    }

    /// Opens a [`Layer::Transport`] span for the wire exchange of the
    /// current op (no-op while telemetry is disabled), and returns it with
    /// the context its command carries to the sentinel (the default while
    /// disabled).
    pub(crate) fn transport_span(&self, name: &'static str) -> (Option<SpanGuard>, TraceContext) {
        let span = self.tel.span_tagged(Layer::Transport, name, self.strategy);
        let trace = span
            .as_ref()
            .map_or_else(TraceContext::default, SpanGuard::context);
        (span, trace)
    }

    /// Charges the two switches of one round trip across the boundary.
    pub(crate) fn charge_round_trip(&self) {
        self.model.charge_round_trip(self.crossing);
    }

    /// Runs one operation under trace: the closure returns the result plus
    /// the payload byte count, and the wrapper records it with the virtual
    /// time that accrued meanwhile on this thread. With telemetry
    /// enabled it additionally opens the op's [`Layer::Strategy`] span and
    /// records the latency histogram for `(strategy, op)`.
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
            tel_started = now_ns();
        }
        let started = clock::now();
        let (result, bytes) = f();
        let elapsed_ns = clock::now().saturating_sub(started);
        self.trace.record(TraceRecord {
            strategy: self.strategy,
            op,
            bytes,
            elapsed_ns,
        });
        if tel_on {
            self.hists[op as usize].record(now_ns().saturating_sub(tel_started));
            if let Some(sp) = span.as_mut() {
                sp.set_bytes(bytes);
            }
        }
        result
    }
}

/// Application-side handle: one implementation of the full `ActiveOps`
/// surface, generic over what carries its operations to the sentinel.
pub(crate) struct StrategyHandle<P: AppPort<OpMux> + ?Sized> {
    port: Arc<P>,
    /// The session its commands are framed in.
    session: u32,
    rec: Recorder,
    /// The file pointer. Holding it is what serialises the handle's
    /// operations: commands carry absolute offsets, so an operation owns
    /// the pointer from the offset it sends to the count it adds.
    pointer: Mutex<Cursor>,
    sticky: Sticky,
    /// A private sentinel's exit, reaped on close; a hub reaps its own.
    exit: Option<Arc<SentinelExit>>,
}

/// What the pointer lock guards: the offset, and the scratch a scatter
/// read reassembles in, which needs no lock of its own.
#[derive(Default)]
struct Cursor {
    at: u64,
    scratch: FreeList,
}

impl<P: AppPort<OpMux> + ?Sized> StrategyHandle<P> {
    pub(crate) fn new(
        port: Arc<P>,
        session: u32,
        rec: Recorder,
        sticky: Sticky,
        exit: Option<Arc<SentinelExit>>,
    ) -> Self {
        StrategyHandle {
            port,
            session,
            rec,
            pointer: Mutex::default(),
            sticky,
            exit,
        }
    }

    /// `op` in this handle's session, under its op's `trace`.
    fn frame(&self, op: Op, trace: TraceContext) -> Framed<Op> {
        Framed {
            session: self.session,
            trace,
            body: op,
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
        let (_wire, trace) = self.rec.transport_span("round-trip");
        match self.port.call(self.frame(op, trace), into) {
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

impl<P: AppPort<OpMux> + ?Sized> ActiveOps for StrategyHandle<P> {
    fn read(&self, buf: &mut [u8]) -> Result<usize, Win32Error> {
        let mut pointer = self.pointer.lock();
        self.check_sticky()?;
        self.rec.traced(OpKind::Read, || {
            let op = Op::Read {
                offset: pointer.at,
                len: buf.len() as u32,
            };
            self.read_at(&mut pointer.at, op, buf)
        })
    }

    fn write(&self, data: &[u8]) -> Result<usize, Win32Error> {
        let mut pointer = self.pointer.lock();
        self.check_sticky()?;
        self.rec.traced(OpKind::Write, || {
            let (_wire, trace) = self.rec.transport_span("send");
            let result = (|| {
                let op = Op::Write {
                    offset: pointer.at,
                    len: data.len() as u32,
                };
                self.port
                    .post(self.frame(op, trace), data)
                    .map_err(|_| Win32Error::BrokenPipe)?;
                if self.port.crossing() == CrossingKind::None {
                    // §4.4: the sentinel routine ran inline on this call,
                    // so its error is already known — surface it now
                    // rather than write-behind style on a later op.
                    self.check_sticky()?;
                }
                pointer.at += data.len() as u64;
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
            SeekMethod::Current => pointer.at as i64,
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
        pointer.at = target as u64;
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
        let Cursor { at, scratch } = &mut *pointer;
        self.rec.traced(OpKind::ReadScatter, || {
            let op = Op::ReadScatter {
                offset: *at,
                lens: bufs.iter().map(|b| b.len() as u32).collect(),
            };
            // The sentinel produces one contiguous message; it lands in
            // the handle's scratch and is dealt out to the caller's
            // buffers in order. The deal-out is pointer shuffling inside
            // the application, not a transfer, so it is not charged.
            let mut message = scratch.take(bufs.iter().map(|b| b.len()).sum());
            let (result, n) = self.read_at(at, op, &mut message);
            let mut rest = &message[..n as usize];
            for buf in bufs.iter_mut() {
                let (head, tail) = rest.split_at(buf.len().min(rest.len()));
                buf[..head.len()].copy_from_slice(head);
                rest = tail;
            }
            scratch.put(message);
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
            let (_wire, trace) = self.rec.transport_span("round-trip");
            let r = match self.port.call(self.frame(Op::Close, trace), &mut []) {
                Ok((OpReply::Done, _)) => Ok(()),
                Ok((OpReply::Failed(e), _)) => Err(to_win32(&e)),
                // Never delivered — the sentinel is already gone; close
                // is idempotent.
                Err(IpcError::BrokenPipe) => Ok(()),
                _ => Err(Win32Error::BrokenPipe),
            };
            (r, 0)
        });
        if let Some(exit) = &self.exit {
            exit.reap();
        }
        let sticky = self.check_sticky();
        result.and(sticky)
    }
}

#[cfg(test)]
mod tests;
