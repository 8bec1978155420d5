//! The one application-side handle behind all four strategies.
//!
//! A [`StrategyHandle`] drives the [`Op`]/[`OpReply`] protocol over any
//! [`Transport`]: kernel pipes plus a control channel (§4.2), shared
//! memory plus user-level events (§4.3), the inline call path (§4.4), or —
//! when the transport has no control lane (§4.1) — plain streaming with
//! every command-shaped operation failing as the paper prescribes
//! ("operations such as ReadFileScatter … cannot be implemented as there
//! is no method of passing control information").
//!
//! Every operation is recorded in an [`OpTrace`]: virtual elapsed time,
//! payload bytes, and the protection-domain crossings and buffer copies
//! charged while it ran, so a run can be audited against the per-strategy
//! cost table of §4. One caveat: writes are acknowledged eagerly
//! (write-behind), so sentinel-side charges for a write may land in a
//! *later* operation's record — per-op write costs are eventual, while
//! totals stay exact.

use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{BufferPool, Transport};
use afs_sim::{clock, Cost, CostModel, CrossingKind, OpKind, OpTrace, TraceRecord};
use afs_telemetry::{now_ns, LatencyHistogram, Layer, SloTracker, SpanGuard, SpanScope, Telemetry};
use afs_winapi::{SeekMethod, Win32Error};

use crate::strategy::{reap, to_win32, ActiveOps, Op, OpObserver, OpReply, Reaper, Sticky};

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

/// Application-side handle: one implementation of the full `ActiveOps`
/// surface, generic over where the sentinel lives.
pub(crate) struct StrategyHandle<T: Transport<Cmd = Op, Reply = OpReply>> {
    transport: T,
    model: CostModel,
    trace: Arc<OpTrace>,
    strategy: &'static str,
    pointer: Mutex<u64>,
    op_lock: Mutex<()>,
    sticky: Sticky,
    reaper: Mutex<Option<Reaper>>,
    /// Scratch buffers for scatter reassembly.
    pool: BufferPool,
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

impl<T: Transport<Cmd = Op, Reply = OpReply>> StrategyHandle<T> {
    pub(crate) fn new(
        transport: T,
        model: CostModel,
        trace: Arc<OpTrace>,
        strategy: &'static str,
        sticky: Sticky,
        reaper: Option<Reaper>,
        obs: OpObserver,
    ) -> Self {
        let hists = OP_KINDS.map(|kind| obs.tel.strategy_hist(strategy, kind.label()));
        StrategyHandle {
            transport,
            model,
            trace,
            strategy,
            pointer: Mutex::new(0),
            op_lock: Mutex::new(()),
            sticky,
            reaper: Mutex::new(reaper),
            pool: BufferPool::new(),
            tel: obs.tel,
            scope: obs.scope,
            slo: obs.slo,
            hists,
        }
    }

    /// Opens a [`Layer::Transport`] span for the wire exchange of the
    /// current op (no-op while telemetry is disabled).
    fn transport_span(&self, name: &'static str) -> Option<SpanGuard> {
        self.tel.span_tagged(Layer::Transport, name, self.strategy)
    }

    /// Runs one operation under trace: the closure returns the result plus
    /// the payload byte count, and the wrapper attributes the virtual time
    /// and the cost-counter deltas that accrued meanwhile. With telemetry
    /// enabled it additionally opens the op's [`Layer::Strategy`] span
    /// (published through `scope` for sentinel-side parenting) and records
    /// the latency histogram for `(strategy, op)`.
    fn traced<R>(
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
        let before = self.model.snapshot();
        let (result, bytes) = f();
        let elapsed_ns = clock::now().saturating_sub(started);
        let delta = self.model.snapshot().since(&before);
        self.trace.record(TraceRecord {
            strategy: self.strategy,
            op,
            bytes,
            elapsed_ns,
            crossings: delta.process_switches + delta.thread_switches,
            copies: delta.copies,
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

    fn charge_round_trip(&self) {
        if self.transport.charges_own_crossings() {
            // A multiplexing transport charges per transmitted frame —
            // a coalesced write crosses nothing.
            return;
        }
        let crossing = self.transport.crossing();
        for _ in 0..crossing.round_trip_switches() {
            self.model.charge(Cost::Crossing(crossing));
        }
    }

    fn check_sticky(&self) -> Result<(), Win32Error> {
        match self.sticky.take() {
            Some(e) => Err(to_win32(&e)),
            None => Ok(()),
        }
    }

    fn recv_reply(&self) -> Result<OpReply, Win32Error> {
        self.transport
            .recv_reply()
            .map_err(|_| Win32Error::BrokenPipe)
    }

    /// The traced `GetSize` round trip. Callers must hold `op_lock`
    /// (parking_lot mutexes are not reentrant, so `seek` cannot simply
    /// call [`ActiveOps::size`] once it has serialised itself).
    fn size_locked(&self) -> Result<u64, Win32Error> {
        self.traced(OpKind::Size, || {
            let _wire = self.transport_span("round-trip");
            self.charge_round_trip();
            let r = (|| {
                self.transport
                    .send_cmd(Op::GetSize)
                    .map_err(|_| Win32Error::BrokenPipe)?;
                match self.recv_reply() {
                    Ok(OpReply::Size(n)) => Ok(n),
                    Ok(OpReply::Failed(e)) => Err(to_win32(&e)),
                    _ => Err(Win32Error::BrokenPipe),
                }
            })();
            (r, 0)
        })
    }

    /// The command-protocol read shared by `read` and `read_scatter`:
    /// sends `op`, receives the reply, and pulls `n` bytes into the
    /// buffer `fill` returns for them.
    fn command_read(
        &self,
        op: Op,
        mut fill: impl FnMut(usize) -> Result<usize, Win32Error>,
    ) -> Result<usize, Win32Error> {
        self.transport
            .send_cmd(op)
            .map_err(|_| Win32Error::BrokenPipe)?;
        match self.recv_reply()? {
            OpReply::Read { n } => fill(n as usize),
            OpReply::Failed(e) => Err(to_win32(&e)),
            _ => Err(Win32Error::BrokenPipe),
        }
    }
}

impl<T: Transport<Cmd = Op, Reply = OpReply>> ActiveOps for StrategyHandle<T> {
    fn read(&self, buf: &mut [u8]) -> Result<usize, Win32Error> {
        if !self.transport.supports_control() {
            // §4.1 streaming: no commands, no pointer, no op serialisation
            // (a blocked read must not stall a concurrent write).
            return self.traced(OpKind::Read, || {
                let _wire = self.transport_span("stream-recv");
                self.charge_round_trip();
                let r = self
                    .transport
                    .recv_data(buf)
                    .map_err(|_| Win32Error::BrokenPipe);
                let n = *r.as_ref().unwrap_or(&0) as u64;
                (r, n)
            });
        }
        let _op = self.op_lock.lock();
        self.check_sticky()?;
        self.traced(OpKind::Read, || {
            let _wire = self.transport_span("round-trip");
            self.charge_round_trip();
            let mut pointer = self.pointer.lock();
            let result = self.command_read(
                Op::Read {
                    offset: *pointer,
                    len: buf.len() as u32,
                },
                |n| {
                    if n > buf.len() {
                        // Over-delivery is a protocol violation (same rule
                        // as `read_scatter`): drain the wire so a shared
                        // transport stays framed, then fail the op.
                        let mut scratch = self.pool.take(n);
                        let _ = self.transport.recv_data_exact(&mut scratch);
                        self.pool.put(scratch);
                        return Err(Win32Error::BrokenPipe);
                    }
                    if n > 0 {
                        self.transport
                            .recv_data_exact(&mut buf[..n])
                            .map_err(|_| Win32Error::BrokenPipe)?;
                    }
                    Ok(n)
                },
            );
            if let Ok(n) = result {
                *pointer += n as u64;
            }
            let n = *result.as_ref().unwrap_or(&0) as u64;
            (result, n)
        })
    }

    fn write(&self, data: &[u8]) -> Result<usize, Win32Error> {
        if !self.transport.supports_control() {
            return self.traced(OpKind::Write, || {
                let _wire = self.transport_span("stream-send");
                self.charge_round_trip();
                let r = self
                    .transport
                    .send_data(data)
                    .map(|()| data.len())
                    .map_err(|_| Win32Error::BrokenPipe);
                (r, data.len() as u64)
            });
        }
        let _op = self.op_lock.lock();
        self.check_sticky()?;
        self.traced(OpKind::Write, || {
            let _wire = self.transport_span("send");
            self.charge_round_trip();
            let mut pointer = self.pointer.lock();
            let result = (|| {
                self.transport
                    .send_cmd(Op::Write {
                        offset: *pointer,
                        len: data.len() as u32,
                    })
                    .map_err(|_| Win32Error::BrokenPipe)?;
                if !data.is_empty() {
                    self.transport
                        .send_data(data)
                        .map_err(|_| Win32Error::BrokenPipe)?;
                }
                if self.transport.crossing() == CrossingKind::None {
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
        if !self.transport.supports_control() {
            // "seek in Unix … cannot be implemented" (§4.1).
            return Err(Win32Error::CallNotImplemented);
        }
        // Seeks are resolved application-side: commands carry absolute
        // offsets, so moving the pointer costs nothing remote — except
        // End-relative seeks, which need the size. The whole resolve-and-
        // store runs under `op_lock`: a read/write interleaving between the
        // base query and the pointer store would make the stored position
        // stale, silently rewinding the file pointer.
        let _op = self.op_lock.lock();
        let base: i64 = match method {
            SeekMethod::Begin => 0,
            SeekMethod::Current => *self.pointer.lock() as i64,
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
        *self.pointer.lock() = target as u64;
        Ok(target as u64)
    }

    fn size(&self) -> Result<u64, Win32Error> {
        if !self.transport.supports_control() {
            // "GetFileSize cannot be implemented" (§4.1).
            return Err(Win32Error::CallNotImplemented);
        }
        let _op = self.op_lock.lock();
        self.check_sticky()?;
        self.size_locked()
    }

    fn read_scatter(&self, bufs: &mut [&mut [u8]]) -> Result<usize, Win32Error> {
        if !self.transport.supports_control() {
            // "Operations such as ReadFileScatter … cannot be implemented"
            // (§4.1).
            return Err(Win32Error::CallNotImplemented);
        }
        let _op = self.op_lock.lock();
        self.check_sticky()?;
        self.traced(OpKind::ReadScatter, || {
            let _wire = self.transport_span("round-trip");
            self.charge_round_trip();
            let mut pointer = self.pointer.lock();
            let lens: Vec<u32> = bufs.iter().map(|b| b.len() as u32).collect();
            let requested: usize = bufs.iter().map(|b| b.len()).sum();
            let result = self.command_read(
                Op::ReadScatter {
                    offset: *pointer,
                    lens,
                },
                |n| {
                    if n == 0 {
                        return Ok(0);
                    }
                    // The sentinel produced one contiguous message; pull
                    // it into pooled scratch, then deal it out to the
                    // caller's buffers in order. The deal-out is pointer
                    // shuffling inside the application, not a transfer, so
                    // it is not charged.
                    let mut scratch = self.pool.take(n);
                    self.transport
                        .recv_data_exact(&mut scratch)
                        .map_err(|_| Win32Error::BrokenPipe)?;
                    if n > requested {
                        // Over-delivery is a protocol violation: accepting
                        // it would silently drop the excess bytes while
                        // advancing the pointer past what the caller saw.
                        // The wire is drained (scratch above), the op fails.
                        self.pool.put(scratch);
                        return Err(Win32Error::BrokenPipe);
                    }
                    let mut offset = 0;
                    for buf in bufs.iter_mut() {
                        if offset >= n {
                            break;
                        }
                        let take = buf.len().min(n - offset);
                        buf[..take].copy_from_slice(&scratch[offset..offset + take]);
                        offset += take;
                    }
                    self.pool.put(scratch);
                    Ok(n)
                },
            );
            if let Ok(n) = result {
                *pointer += n as u64;
            }
            let n = *result.as_ref().unwrap_or(&0) as u64;
            (result, n)
        })
    }

    fn control(&self, code: u32, payload: &[u8]) -> Result<Vec<u8>, Win32Error> {
        if !self.transport.supports_control() {
            // "There is no method of passing control information" (§4.1).
            return Err(Win32Error::CallNotImplemented);
        }
        let _op = self.op_lock.lock();
        self.check_sticky()?;
        self.traced(OpKind::Control, || {
            let _wire = self.transport_span("round-trip");
            self.charge_round_trip();
            if self
                .transport
                .send_cmd(Op::Control {
                    code,
                    payload: payload.to_vec(),
                })
                .is_err()
            {
                return (Err(Win32Error::BrokenPipe), payload.len() as u64);
            }
            match self.recv_reply() {
                Ok(OpReply::Control { payload: response }) => {
                    let bytes = (payload.len() + response.len()) as u64;
                    (Ok(response), bytes)
                }
                Ok(OpReply::Failed(e)) => (Err(to_win32(&e)), payload.len() as u64),
                _ => (Err(Win32Error::BrokenPipe), payload.len() as u64),
            }
        })
    }

    fn flush(&self) -> Result<(), Win32Error> {
        if !self.transport.supports_control() {
            // Nothing to command; the stream itself is the flush.
            return Ok(());
        }
        let _op = self.op_lock.lock();
        self.check_sticky()?;
        self.traced(OpKind::Flush, || {
            let _wire = self.transport_span("round-trip");
            self.charge_round_trip();
            let r = (|| {
                self.transport
                    .send_cmd(Op::Flush)
                    .map_err(|_| Win32Error::BrokenPipe)?;
                match self.recv_reply()? {
                    OpReply::Done => Ok(()),
                    OpReply::Failed(e) => Err(to_win32(&e)),
                    _ => Err(Win32Error::BrokenPipe),
                }
            })();
            (r, 0)
        })
    }

    fn close(&self) -> Result<(), Win32Error> {
        if !self.transport.supports_control() {
            return self.traced(OpKind::Close, || {
                // "The CloseHandle call just shuts down the created pipes"
                // (Appendix A.2); the sentinel sees EOF, finishes, and is
                // reaped.
                let _wire = self.transport_span("shutdown");
                self.transport.shutdown();
                reap(&self.reaper);
                (Ok(()), 0)
            });
        }
        let result = self.traced(OpKind::Close, || {
            let _op = self.op_lock.lock();
            let _wire = self.transport_span("round-trip");
            self.charge_round_trip();
            let r = match self.transport.send_cmd(Op::Close) {
                Ok(()) => match self.recv_reply() {
                    Ok(OpReply::Done) => Ok(()),
                    Ok(OpReply::Failed(e)) => Err(to_win32(&e)),
                    _ => Err(Win32Error::BrokenPipe),
                },
                // Sentinel already gone; close is idempotent.
                Err(_) => Ok(()),
            };
            (r, 0)
        });
        reap(&self.reaper);
        let sticky = self.check_sticky();
        result.and(sticky)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::HardwareProfile;

    /// A scripted wire that replies `Read { n }` to every command and
    /// serves however many payload bytes are asked for — a sentinel that
    /// delivers more than the caller requested.
    struct OverDeliver {
        n: u32,
    }

    impl Transport for OverDeliver {
        type Cmd = Op;
        type Reply = OpReply;

        fn crossing(&self) -> CrossingKind {
            CrossingKind::InterProcess
        }

        fn supports_control(&self) -> bool {
            true
        }

        fn send_cmd(&self, _cmd: Op) -> afs_ipc::Result<()> {
            Ok(())
        }

        fn recv_reply(&self) -> afs_ipc::Result<OpReply> {
            Ok(OpReply::Read { n: self.n })
        }

        fn send_data(&self, _data: &[u8]) -> afs_ipc::Result<()> {
            Ok(())
        }

        fn recv_data(&self, buf: &mut [u8]) -> afs_ipc::Result<usize> {
            buf.fill(0xAB);
            Ok(buf.len())
        }

        fn recv_data_exact(&self, buf: &mut [u8]) -> afs_ipc::Result<usize> {
            buf.fill(0xAB);
            Ok(buf.len())
        }

        fn shutdown(&self) {}
    }

    fn handle_over(n: u32) -> StrategyHandle<OverDeliver> {
        let tel = Telemetry::new();
        let obs = OpObserver {
            tel: Arc::clone(&tel),
            scope: Arc::new(SpanScope::default()),
            slo: None,
        };
        StrategyHandle::new(
            OverDeliver { n },
            CostModel::new(HardwareProfile::pentium_ii_300()),
            Arc::new(OpTrace::new()),
            "Process",
            Sticky::default(),
            None,
            obs,
        )
    }

    #[test]
    fn scatter_over_delivery_is_a_protocol_error() {
        let _clock = clock::install(0);
        // 8 bytes requested across two buffers; the sentinel claims 12.
        let handle = handle_over(12);
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let before = *handle.pointer.lock();
        let err = handle
            .read_scatter(&mut [&mut a[..], &mut b[..]])
            .expect_err("over-delivery must fail");
        assert_eq!(err, Win32Error::BrokenPipe);
        assert_eq!(
            *handle.pointer.lock(),
            before,
            "pointer must not advance past a rejected transfer"
        );
    }

    #[test]
    fn scatter_exact_delivery_still_works() {
        let _clock = clock::install(0);
        let handle = handle_over(8);
        let mut a = [0u8; 4];
        let mut b = [0u8; 4];
        let n = handle
            .read_scatter(&mut [&mut a[..], &mut b[..]])
            .expect("exact delivery");
        assert_eq!(n, 8);
        assert_eq!(a, [0xAB; 4]);
        assert_eq!(b, [0xAB; 4]);
        assert_eq!(*handle.pointer.lock(), 8);
    }

    #[test]
    fn plain_read_over_delivery_cannot_overrun() {
        let _clock = clock::install(0);
        // `read` slices its own buffer by the reply count, so an
        // oversized reply fails before any copy can overrun.
        let handle = handle_over(64);
        let mut buf = [0u8; 8];
        // n=64 > buf.len()=8: the fill closure indexes buf[..n] — guard
        // rejects rather than panics.
        let r = handle.read(&mut buf);
        assert!(r.is_err(), "oversized read reply must not succeed");
    }
}
