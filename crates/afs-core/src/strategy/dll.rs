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
//! Rather than a bespoke handle, the strategy is one more session hub:
//! each session's `AppPort` runs its operations through the same
//! [`execute_op`] the dispatch loop uses, at the moment the shared
//! [`StrategyHandle`](super::handle::StrategyHandle) posts or calls it.
//! Its [`CrossingKind::None`] boundary makes the handle charge zero
//! crossings, so the §4.4 cost profile falls out of the wiring. The
//! sentinel itself is an [`InlineShared`] — the logic and context behind
//! one lock — and every open is a session on one: an open nobody else can
//! join simply stays its only session.

use std::sync::Arc;

use parking_lot::Mutex;

use afs_ipc::{AppPort, Framed, IpcError, SessionHub, Sessions};
use afs_sim::CrossingKind;
use afs_telemetry::SentinelStats;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::dispatch::{Joiners, SessionTable};
use crate::strategy::mux::{Joinable, OpMux};
use crate::strategy::{execute_op, Instruments, Op, OpReply};

/// The §4.4 sentinel: one logic/context pair behind one lock, its
/// sessions calling into it inline. All execution serialises on this
/// lock — the §4.4 analogue of the wire strategies' single dispatch loop,
/// whose session table it keeps too: a write failure parks in its
/// session's sticky slot, and a span joins its session's note.
pub(crate) struct InlineShared {
    core: Mutex<InlineCore>,
}

struct InlineCore {
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    sessions: Sessions,
    table: SessionTable,
    stats: Arc<SentinelStats>,
}

impl InlineShared {
    /// Runs `frame` on this thread under the core lock — all there is to
    /// a §4.4 operation: the routine reads straight into `into`, nothing
    /// is staged. A closed sentinel takes no more commands; a routine that
    /// faults ends every session, and the op fails as on a dead wire.
    fn run(&self, frame: Framed<Op>, payload: &[u8], into: &mut [u8]) -> afs_ipc::Result<OpReply> {
        let mut core = self.core.lock();
        if core.sessions.is_closed() {
            return Err(IpcError::BrokenPipe);
        }
        // The last session out runs the real close hook, on this thread:
        // there is nothing to reap.
        if matches!(frame.body, Op::Close) && !core.sessions.detach(frame.session) {
            // The sentinel stays up for the other sessions; this
            // session's close is acknowledged locally.
            return Ok(OpReply::Done);
        }
        let InlineCore {
            logic, ctx, table, ..
        } = &mut *core;
        let side = &table.get(frame.session).side;
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            side.observe(frame.body.kind().label(), frame.trace, || {
                execute_op(logic.as_mut(), ctx, frame.body, payload, into)
            })
        }));
        served.unwrap_or_else(|_| {
            core.stats.fault();
            core.sessions.end();
            Err(IpcError::Closed)
        })
    }
}

impl SessionHub<OpMux> for InlineShared {
    fn attach(&self) -> Option<(u32, Vec<u32>)> {
        self.core.lock().sessions.attach()
    }

    fn session_count(&self) -> usize {
        self.core.lock().sessions.count()
    }
}

impl AppPort<OpMux> for InlineShared {
    fn crossing(&self) -> CrossingKind {
        CrossingKind::None
    }

    fn post(&self, frame: Framed<Op>, payload: &[u8]) -> afs_ipc::Result<()> {
        let session = frame.session;
        if let OpReply::Failed(e) = self.run(frame, payload, &mut [])? {
            self.core.lock().table.get(session).sticky.park(e);
        }
        Ok(())
    }

    fn call(&self, frame: Framed<Op>, into: &mut [u8]) -> afs_ipc::Result<(OpReply, usize)> {
        let reply = self.run(frame, &[], into)?;
        let n = reply.announced();
        Ok((reply, n))
    }
}

/// Builds the DLL-only sentinel around `logic`, already opened, and
/// returns what this open — and, if the caller registers it, later opens
/// — attach through.
pub(crate) fn open_shared(
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    instr: Instruments,
) -> Arc<Joinable<InlineShared>> {
    let path = ctx.path().clone();
    let joiners = Joiners::default();
    let core = InlineCore {
        logic,
        ctx,
        sessions: Sessions::new(Arc::clone(instr.tel.sessions()), None),
        table: SessionTable::new(joiners.clone(), instr.sentinel_side()),
        stats: instr.tel.sentinel_stats(instr.sentinel),
    };
    let hub = InlineShared {
        core: Mutex::new(core),
    };
    Joinable::new(hub, joiners, &path, instr)
}
