//! §4.2 — the process-plus-control strategy.
//!
//! "This approach solves the problem of handshaking between the user and
//! sentinel processes by adding a control channel in addition to the two
//! pipes. … So when the application process wants to read 50 bytes, a
//! 'read 50' command is sent to the sentinel, and then 50 bytes are read
//! from the read pipe."
//!
//! The wiring is [`PairTransport::kernel`]: kernel control channels plus
//! two anonymous pipes across the process boundary, driven by the same
//! [`StrategyHandle`] as every other strategy — the DLL-with-thread
//! strategy (§4.3) plugs in shared-memory transports instead, which is
//! precisely the paper's point that the strategies trade copies and
//! crossings, not semantics.
//!
//! [`PairTransport::kernel`]: afs_ipc::PairTransport::kernel
//! [`StrategyHandle`]: crate::strategy::handle::StrategyHandle

use afs_winapi::Win32Error;

use crate::ctx::SentinelCtx;
use crate::logic::SentinelLogic;
use crate::strategy::wire::{self, Boundary, Launched};
use crate::strategy::Instruments;

/// Builds the process-plus-control strategy for one open: the sentinel
/// "process" is a dispatch loop on the sentinel executor, wired to the
/// application over two data pipes plus the control channel. With
/// `batch = Some(depth)` the boundary is wired as a submission/completion
/// ring instead — one kernel doorbell per batch (see
/// [`crate::strategy::batch`]).
pub(crate) fn open(
    logic: Box<dyn SentinelLogic>,
    ctx: SentinelCtx,
    instr: Instruments,
    batch: Option<usize>,
    joinable: bool,
) -> Result<Launched, Win32Error> {
    wire::open(Boundary::Kernel, logic, ctx, instr, batch, joinable)
}
