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
//! of a ring is always its session hub, a private one holding one
//! session. A pair lane nobody can join is driven through the bare
//! transport instead: a one-session [`MuxHub`] costs 115–141 ns (8–11 %)
//! more per 128-byte read of a memory `mirror` file than the bare pair
//! (41 alternating rounds of 20 000 reads, one CPU under `SCHED_BATCH`,
//! hub slower in 35–41 of them), and a lone handle has no use for it.

use std::sync::Arc;

use afs_ipc::{Framed, FreeList, MuxHub, PairPort, PairTransport, RingPair};

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::batch::RingDriver;
use crate::strategy::dispatch::{Joiners, SentinelLoop, Session, PRIVATE_SESSION};
use crate::strategy::mux::{Joinable, SharedSentinel};
use crate::strategy::{ActiveOps, Instruments, Op, OpReply, Sticky};

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

/// Builds a wire sentinel around `logic`, already opened: registers the
/// dispatch loop on the sentinel executor (the stand-in for launching the
/// sentinel process, or for "starts a thread for running the orchestration
/// routine"), and wires the application side to it.
///
/// `batch = Some(depth)` makes the lane a ring of that depth, always
/// launched as a hub; whether later opens join it is the caller's
/// registration. Otherwise a `joinable` sentinel gets a [`MuxHub`] and
/// the rest the bare pair.
pub(crate) fn open(
    boundary: Boundary,
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    instr: Instruments,
    batch: Option<usize>,
    joinable: bool,
) -> Launched {
    let joiners = Joiners::default();
    let path = ctx.path().clone();
    let shared: Arc<dyn SharedSentinel> = match batch {
        Some(depth) => {
            let rings = Arc::clone(instr.tel.rings());
            let (ring, port) = match boundary {
                Boundary::Kernel => RingPair::kernel_observed(instr.model.clone(), depth, rings),
                Boundary::UserLevel => RingPair::shared_observed(instr.model.clone(), depth, rings),
            };
            // The driver watches the ctx's heal generation: a queued-write
            // replay on the sentinel side bumps it, and the driver retires
            // its speculative-cache epoch in response.
            let heal = ctx.heal_generation();
            let staging = FreeList::default();
            let exit = SentinelLoop::spawn(&instr, logic, ctx, port, joiners.clone(), staging);
            let driver = RingDriver::new(ring, &instr, heal, exit);
            Joinable::new(driver, joiners, &path, instr)
        }
        None if joinable => {
            let (transport, port, staging) = pair(boundary, &instr);
            let exit = SentinelLoop::spawn(&instr, logic, ctx, port, joiners.clone(), staging);
            let sessions = Arc::clone(instr.tel.sessions());
            let hub = MuxHub::new(transport, instr.model.clone(), sessions, Some(exit));
            Joinable::new(hub, joiners, &path, instr)
        }
        None => {
            let sticky = Sticky::default();
            let side = instr.sentinel_side();
            let session = Session {
                id: PRIVATE_SESSION,
                sticky: Arc::clone(&sticky),
                side,
            };
            joiners.admit(session, vec![PRIVATE_SESSION]);
            let (transport, port, staging) = pair(boundary, &instr);
            let exit = SentinelLoop::spawn(&instr, logic, ctx, port, joiners, staging);
            let ops = instr.handle(Arc::new(transport), PRIVATE_SESSION, sticky, Some(exit));
            return Launched::Private(ops);
        }
    };
    Launched::Shared(shared)
}

/// A command/reply pair lane, private or shared: its application end, its
/// sentinel end, and the list its loop stages in.
type Lane = (
    PairTransport<Framed<Op>, Framed<OpReply>>,
    PairPort<Framed<Op>, Framed<OpReply>>,
    FreeList,
);

/// The pair lane over `boundary`'s substrate. Its loop's staging counts
/// into `afs_pool_*`; a ring loop's counts nowhere.
fn pair(boundary: Boundary, instr: &Instruments) -> Lane {
    let gauges = Arc::clone(instr.tel.gauges());
    let staging = FreeList::observed(Arc::clone(&gauges));
    let (transport, port) = match boundary {
        Boundary::Kernel => PairTransport::kernel_observed(instr.model.clone(), gauges),
        Boundary::UserLevel => PairTransport::shared_observed(instr.model.clone(), gauges),
    };
    (transport, port, staging)
}
