//! §4.4 — the DLL-only strategy.
//!
//! "The DLL-only implementation approach eliminates this switch by
//! directly routing file system API calls to appropriate routines in the
//! sentinel DLL. … This clearly is the most efficient implementation."
//! The sentinel's `AF_ReadFile`/`AF_WriteFile`/`AF_Control` routines are
//! the [`SentinelLogic`] methods called inline on the application thread:
//! no pipes, no events, no domain crossing — the only costs are whatever
//! the logic itself does.
//!
//! Rather than a bespoke handle, the strategy implements the
//! [`Transport`] protocol *inline*: an [`InlineSession`] runs each command
//! through the same [`execute_op`] the dispatch loop uses, at the moment
//! the shared [`StrategyHandle`](super::handle::StrategyHandle) "sends"
//! it. Its [`CrossingKind::None`] boundary makes the handle charge zero
//! crossings, so the §4.4 cost profile falls out of the wiring. The
//! sentinel itself is an [`InlineShared`] — the logic and context behind
//! one lock — and every open is a session on one: an open nobody else can
//! join simply stays its only session.

use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use afs_ipc::{BufferPool, IpcError, Transport};
use afs_sim::CrossingKind;
use afs_telemetry::{SessionGauges, SpanScope};
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::mux::SharedSentinel;
use crate::strategy::{
    execute_op, op_name, to_win32, ActiveOps, Instruments, Op, OpReply, SentinelSide, Sticky,
};

/// The sentinel logic and context shared by every session of one
/// DLL-only sentinel. All execution serialises on this lock — the §4.4
/// analogue of the wire strategies' single dispatch loop.
struct InlineCore {
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    live: usize,
    closed: bool,
}

/// The §4.4 sentinel: one logic/context pair, its sessions calling into
/// it inline. Per-session state (staged reply bytes, the parked write,
/// the sticky error) lives in each [`InlineSession`].
pub(crate) struct InlineShared {
    core: Mutex<InlineCore>,
    pool: BufferPool,
    instr: Instruments,
    gauges: Arc<SessionGauges>,
    weak_self: Weak<InlineShared>,
}

/// What one session has staged between the protocol's steps: the command
/// awaiting its payload, then the reply and bytes awaiting collection.
struct SessionStaging {
    pending_write: Option<Op>,
    reply: Option<OpReply>,
    outbound: Vec<u8>,
    outbound_pos: usize,
}

/// One session's inline transport over the shared core.
struct InlineSession {
    shared: Arc<InlineShared>,
    staging: Mutex<SessionStaging>,
    /// Shared with the handle: write failures park here, exactly like the
    /// dispatch loop's write-behind semantics.
    sticky: Sticky,
    /// Sentinel-side telemetry; the inline sentinel's spans nest under the
    /// calling thread's open transport span.
    side: SentinelSide,
}

impl InlineSession {
    fn run(&self, op: Op, payload: &[u8]) {
        let name = op_name(&op);
        let mut core = self.shared.core.lock();
        let InlineCore { logic, ctx, .. } = &mut *core;
        let (reply, data) = self.side.observe_inline(name, || {
            execute_op(logic.as_mut(), ctx, op, payload, &self.shared.pool)
        });
        drop(core);
        let mut staging = self.staging.lock();
        staging.reply = Some(reply);
        let drained = std::mem::replace(&mut staging.outbound, data.unwrap_or_default());
        staging.outbound_pos = 0;
        self.shared.pool.put(drained);
    }

    fn run_write(&self, op: Op, payload: &[u8]) {
        let mut core = self.shared.core.lock();
        let InlineCore { logic, ctx, .. } = &mut *core;
        let (reply, _) = self.side.observe_inline("write", || {
            execute_op(logic.as_mut(), ctx, op, payload, &self.shared.pool)
        });
        if let OpReply::Failed(e) = reply {
            self.sticky.park(e);
        }
    }
}

impl Transport for InlineSession {
    type Cmd = Op;
    type Reply = OpReply;

    fn crossing(&self) -> CrossingKind {
        CrossingKind::None
    }

    fn supports_control(&self) -> bool {
        true
    }

    fn send_cmd(&self, op: Op) -> Result<(), IpcError> {
        if self.shared.core.lock().closed {
            return Err(IpcError::Closed);
        }
        match op {
            Op::Write { len, .. } if len > 0 => {
                self.staging.lock().pending_write = Some(op);
            }
            Op::Write { .. } => self.run_write(op, &[]),
            Op::Close => {
                let mut core = self.shared.core.lock();
                core.live -= 1;
                self.shared.gauges.detached();
                if core.live == 0 {
                    // Last session out runs the real close hook.
                    let InlineCore { logic, ctx, .. } = &mut *core;
                    let (reply, _) = self.side.observe_inline("close", || {
                        execute_op(logic.as_mut(), ctx, Op::Close, &[], &self.shared.pool)
                    });
                    core.closed = true;
                    drop(core);
                    self.staging.lock().reply = Some(reply);
                } else {
                    // The sentinel stays up for the other sessions; this
                    // session's close is acknowledged locally.
                    drop(core);
                    self.staging.lock().reply = Some(OpReply::Done);
                }
            }
            other => self.run(other, &[]),
        }
        Ok(())
    }

    fn recv_reply(&self) -> Result<OpReply, IpcError> {
        self.staging.lock().reply.take().ok_or(IpcError::Closed)
    }

    fn send_data(&self, data: &[u8]) -> Result<(), IpcError> {
        let Some(op) = self.staging.lock().pending_write.take() else {
            return Err(IpcError::BrokenPipe);
        };
        self.run_write(op, data);
        Ok(())
    }

    fn recv_data(&self, buf: &mut [u8]) -> Result<usize, IpcError> {
        self.recv_data_exact(buf)
    }

    fn recv_data_exact(&self, buf: &mut [u8]) -> Result<usize, IpcError> {
        let mut staging = self.staging.lock();
        let available = staging.outbound.len() - staging.outbound_pos;
        let take = buf.len().min(available);
        let from = staging.outbound_pos;
        buf[..take].copy_from_slice(&staging.outbound[from..from + take]);
        staging.outbound_pos += take;
        if staging.outbound_pos >= staging.outbound.len() {
            let drained = std::mem::take(&mut staging.outbound);
            staging.outbound_pos = 0;
            self.shared.pool.put(drained);
        }
        Ok(take)
    }

    fn shutdown(&self) {}
}

impl SharedSentinel for InlineShared {
    fn attach(&self) -> Option<Arc<dyn ActiveOps>> {
        let me = self.weak_self.upgrade()?;
        {
            let mut core = self.core.lock();
            if core.closed {
                return None;
            }
            core.live += 1;
            self.gauges.attached(core.live as u64);
        }
        let sticky = Sticky::default();
        let scope = Arc::new(SpanScope::default());
        let session = InlineSession {
            shared: me,
            staging: Mutex::new(SessionStaging {
                pending_write: None,
                reply: None,
                outbound: Vec::new(),
                outbound_pos: 0,
            }),
            sticky: Arc::clone(&sticky),
            side: self.instr.sentinel_side(Arc::clone(&scope)),
        };
        Some(self.instr.handle(session, sticky, scope, None))
    }

    fn session_count(&self) -> usize {
        self.core.lock().live
    }
}

/// Builds the DLL-only sentinel: runs the open hook once and returns the
/// [`SharedSentinel`] this open — and, if the caller registers it, later
/// opens — attach through.
pub(crate) fn open_shared(
    mut logic: Box<dyn SentinelLogic>,
    mut ctx: SentinelCtx,
    instr: Instruments,
) -> Result<Arc<InlineShared>, Win32Error> {
    logic.on_open(&mut ctx).map_err(|e| to_win32(&e))?;
    let pool = BufferPool::observed(Arc::clone(instr.tel.gauges()));
    let gauges = Arc::clone(instr.tel.sessions());
    Ok(Arc::new_cyclic(|weak_self| InlineShared {
        core: Mutex::new(InlineCore {
            logic,
            ctx,
            live: 0,
            closed: false,
        }),
        pool,
        instr,
        gauges,
        weak_self: weak_self.clone(),
    }))
}
