//! §4.3 — the DLL-with-thread strategy.
//!
//! "Instead of a stand-alone process, this approach encapsulates sentinel
//! functionality into a separate DLL … Opening an active file 'injects'
//! the sentinel DLL associated with the file into the application and
//! starts a thread for running the orchestration routine." Data moves
//! through shared memory with event signalling — one user-level copy per
//! transfer instead of the pipes' two kernel copies, and thread switches
//! instead of process switches.
//!
//! The wiring is [`PairTransport::shared`]; the command protocol is
//! identical to the process-plus-control strategy (the six `AF_*` library
//! calls of Appendix A.3 map onto it):
//!
//! | Appendix A.3 call        | Here                                                  |
//! |--------------------------|-------------------------------------------------------|
//! | `AF_SendControl`         | command send on the user-level channel                |
//! | `AF_GetControl`          | command recv in the dispatch loop                     |
//! | `AF_SendDataToSentinel`  | [`SharedBuffer::send`] app → sentinel                 |
//! | `AF_GetDataFromAppl`     | `recv` in the dispatch loop                           |
//! | `AF_SendDataToAppl`      | [`PairPort::send_reply_with`]: the reply carries the buffer the bytes were staged in |
//! | `AF_GetDataFromSentinel` | [`Payload::land`] in the pair wire's `call`: the one copy into the caller's buffer |
//!
//! [`SharedBuffer::send`]: afs_ipc::SharedBuffer::send
//! [`PairPort::send_reply_with`]: afs_ipc::PairPort::send_reply_with
//! [`Payload::land`]: afs_ipc::Payload::land
//! [`PairTransport::shared`]: afs_ipc::PairTransport::shared

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::wire::{self, Boundary, Launched};
use crate::strategy::Instruments;

/// Builds the DLL-with-thread strategy for one open: the
/// `SentinelThrdMain` dispatch loop is registered with the sentinel
/// executor (the bounded-pool stand-in for "starts a thread for running
/// the orchestration routine") and wired over shared-memory buffers plus
/// user-level control channels. With `batch = Some(depth)` the same
/// substrate is wired as a submission/completion ring instead — one
/// crossing per batch (see [`crate::strategy::batch`]).
pub(crate) fn open(
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    instr: Instruments,
    batch: Option<usize>,
    joinable: bool,
) -> Launched {
    wire::open(Boundary::UserLevel, logic, ctx, instr, batch, joinable)
}
