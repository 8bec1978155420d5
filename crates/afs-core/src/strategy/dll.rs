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
//! Rather than a bespoke handle, the strategy is one more
//! [`AppPort`] carrier: an [`InlineSession`] runs each operation through
//! the same [`execute_op`] the dispatch loop uses, at the moment the
//! shared [`StrategyHandle`](super::handle::StrategyHandle) posts or
//! calls it. Its [`CrossingKind::None`] boundary makes the handle charge
//! zero crossings, so the §4.4 cost profile falls out of the wiring. The
//! sentinel itself is an [`InlineShared`] — the logic and context behind
//! one lock — and every open is a session on one: an open nobody else can
//! join simply stays its only session.

use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use afs_ipc::IpcError;
use afs_sim::CrossingKind;
use afs_telemetry::{SessionGauges, TraceContext};
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::handle::AppPort;
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
/// it inline. Per-session state (the sticky error) lives in each
/// [`InlineSession`].
pub(crate) struct InlineShared {
    core: Mutex<InlineCore>,
    instr: Instruments,
    gauges: Arc<SessionGauges>,
    weak_self: Weak<InlineShared>,
}

/// One session's inline carrier over the shared core.
struct InlineSession {
    shared: Arc<InlineShared>,
    /// Shared with the handle: write failures park here, exactly like the
    /// dispatch loop's write-behind semantics.
    sticky: Sticky,
    /// Sentinel-side telemetry; the inline sentinel's spans nest under the
    /// op's transport span, whose context the handle passes in.
    side: SentinelSide,
}

impl InlineSession {
    /// Runs `op` under its op's `trace` on this thread under the core
    /// lock — all there is to a §4.4 operation: the routine reads straight
    /// into `into`, nothing is staged. A closed sentinel takes no more
    /// commands.
    fn run(
        &self,
        op: Op,
        trace: TraceContext,
        payload: &[u8],
        into: &mut [u8],
    ) -> afs_ipc::Result<OpReply> {
        let mut core = self.shared.core.lock();
        if core.closed {
            return Err(IpcError::BrokenPipe);
        }
        if matches!(op, Op::Close) {
            core.live -= 1;
            self.shared.gauges.detached();
            if core.live > 0 {
                // The sentinel stays up for the other sessions; this
                // session's close is acknowledged locally.
                return Ok(OpReply::Done);
            }
            // Last session out runs the real close hook.
            core.closed = true;
        }
        let InlineCore { logic, ctx, .. } = &mut *core;
        self.side.observe(op_name(&op), trace, || {
            execute_op(logic.as_mut(), ctx, op, payload, into)
        })
    }
}

impl AppPort for InlineSession {
    fn crossing(&self) -> CrossingKind {
        CrossingKind::None
    }

    fn post(&self, op: Op, trace: TraceContext, payload: &[u8]) -> afs_ipc::Result<()> {
        if let OpReply::Failed(e) = self.run(op, trace, payload, &mut [])? {
            self.sticky.park(e);
        }
        Ok(())
    }

    fn call(
        &self,
        op: Op,
        trace: TraceContext,
        into: &mut [u8],
    ) -> afs_ipc::Result<(OpReply, usize)> {
        let reply = self.run(op, trace, &[], into)?;
        let n = reply.announced();
        Ok((reply, n))
    }
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
        let session = InlineSession {
            shared: me,
            sticky: Arc::clone(&sticky),
            side: self.instr.sentinel_side(),
        };
        Some(self.instr.handle(session, sticky, None))
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
    let gauges = Arc::clone(instr.tel.sessions());
    Ok(Arc::new_cyclic(|weak_self| InlineShared {
        core: Mutex::new(InlineCore {
            logic,
            ctx,
            live: 0,
            closed: false,
        }),
        instr,
        gauges,
        weak_self: weak_self.clone(),
    }))
}
