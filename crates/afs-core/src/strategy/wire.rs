//! The one builder behind the two out-of-line strategies (§4.2, §4.3).
//!
//! A wire sentinel is the product of three independent choices, none of
//! which selects different sentinel-side code:
//!
//! * **boundary** — kernel pipes and process switches (§4.2) or shared
//!   memory, events and thread switches (§4.3);
//! * **lane** — the command/reply pair, or a submission/completion ring
//!   when the spec says `batch=on` (see [`batch`](super::batch));
//! * **joinable or not** — whether later opens of the same file may attach
//!   as further sessions (see [`mux`](super::mux)).
//!
//! Every combination runs the same [`SentinelLoop`] over the matching
//! [`SentinelPort`](super::dispatch::SentinelPort). The application side
//! is layered only as far as the choice needs: a sentinel nobody can join
//! is driven through the bare transport, because the session hub costs
//! about a third of a microsecond of host time per operation that a lone
//! handle has no use for.

use std::sync::Arc;

use afs_ipc::{Framed, MuxHub, PairPort, PairTransport, RingPair};
use afs_telemetry::intern;
use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::batch::RingDriver;
use crate::strategy::dispatch::{
    Joiners, RingSentinelPort, SentinelLoop, Session, PRIVATE_SESSION,
};
use crate::strategy::mux::{MuxShared, SharedSentinel};
use crate::strategy::{to_win32, ActiveOps, Instruments, Op, OpReply, Reaper, Sticky};

/// Which protection boundary the wire crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Boundary {
    /// §4.2: kernel control channels and anonymous pipes between processes.
    Kernel,
    /// §4.3: user-level channels and shared memory between threads.
    UserLevel,
}

/// What an open launched.
pub(crate) enum Launched {
    /// A sentinel serving this open alone; the ops are its only session.
    Private(Arc<dyn ActiveOps>),
    /// A sentinel whose sessions come from [`SharedSentinel::attach`] —
    /// this open's included.
    Shared(Arc<dyn SharedSentinel>),
}

/// Builds a wire sentinel: runs the open hook, registers the dispatch
/// loop on the sentinel executor (the stand-in for launching the sentinel
/// process, or for "starts a thread for running the orchestration
/// routine"), and wires the application side to it.
///
/// `batch = Some(depth)` makes the lane a ring of that depth. A batched
/// sentinel is never joinable: its driver stages writes and speculates
/// reads application-side, which a hub over it would have to order across
/// sessions, and that hub costs more host time per operation than a whole
/// batched read. The loop is not what stands in the way — it takes the
/// session from the port on every lane.
pub(crate) fn open(
    boundary: Boundary,
    mut logic: Box<dyn SentinelLogic>,
    mut ctx: SentinelCtx,
    instr: Instruments,
    batch: Option<usize>,
    joinable: bool,
) -> Result<Launched, Win32Error> {
    logic.on_open(&mut ctx).map_err(|e| to_win32(&e))?;
    let joiners = Joiners::default();
    if joinable && batch.is_none() {
        let file = intern(&ctx.path().file_path().to_string());
        let (transport, port) = pair(boundary, &instr);
        let hub = MuxHub::new(
            transport,
            instr.model.clone(),
            Some(Arc::clone(instr.tel.sessions())),
        );
        let done = SentinelLoop::spawn(&instr, logic, ctx, port, joiners.clone());
        // The hub reaps by waiting on the executor's completion cell, the
        // task-world stand-in for joining a dedicated sentinel thread.
        hub.set_reaper(Box::new(move || done.wait()));
        return Ok(Launched::Shared(Arc::new(MuxShared {
            hub,
            joiners,
            file,
            instr,
        })));
    }
    let sticky = Sticky::default();
    joiners.admit(
        Session {
            id: PRIVATE_SESSION,
            sticky: Arc::clone(&sticky),
            side: instr.sentinel_side(),
        },
        vec![PRIVATE_SESSION],
    );
    let ops = match batch {
        None => {
            let (transport, port) = pair(boundary, &instr);
            let done = SentinelLoop::spawn(&instr, logic, ctx, port, joiners);
            instr.handle(transport, sticky, Some(Reaper::Task(done)))
        }
        Some(depth) => {
            let rings = Arc::clone(instr.tel.rings());
            let (ring, port) = match boundary {
                Boundary::Kernel => RingPair::kernel_observed(instr.model.clone(), depth, rings),
                Boundary::UserLevel => RingPair::shared_observed(instr.model.clone(), depth, rings),
            };
            // The driver watches the ctx's heal generation: a queued-write
            // replay on the sentinel side bumps it, and the driver retires
            // its speculative-cache epoch in response.
            let driver = RingDriver::new(ring, &instr, ctx.heal_generation());
            let port = RingSentinelPort::new(port);
            let done = SentinelLoop::spawn(&instr, logic, ctx, port, joiners);
            instr.handle(driver, sticky, Some(Reaper::Task(done)))
        }
    };
    Ok(Launched::Private(ops))
}

/// A command/reply pair lane, private or shared: its application end and
/// its sentinel end.
type Lane = (
    PairTransport<Framed<Op>, Framed<OpReply>>,
    PairPort<Framed<Op>, Framed<OpReply>>,
);

/// The pair lane over `boundary`'s substrate.
fn pair(boundary: Boundary, instr: &Instruments) -> Lane {
    let gauges = Arc::clone(instr.tel.gauges());
    match boundary {
        Boundary::Kernel => PairTransport::kernel_observed(instr.model.clone(), gauges),
        Boundary::UserLevel => PairTransport::shared_observed(instr.model.clone(), gauges),
    }
}
