#![warn(missing_docs)]
//! Simulated NT IPC primitives for the Active Files runtime.
//!
//! The paper's prototype moves data between the instrumented application
//! and the sentinel over Windows NT kernel objects: anonymous pipes
//! (process-based strategies), a control pipe (process-plus-control), and
//! events plus shared memory (DLL-with-thread). This crate rebuilds each of
//! those as a user-level primitive backed by real blocking (`parking_lot`
//! mutexes and condvars) and *virtual-time accounting* (see [`afs_sim`]):
//!
//! * [`pipe::Pipe`] — a bounded byte pipe. Every transfer is charged as a
//!   syscall + a user→kernel copy on the writer and a syscall + a
//!   kernel→user copy on the reader, exactly the two copies the paper
//!   attributes to pipe-based strategies (§6).
//! * [`control::ControlChannel`] — a typed command channel modelling the
//!   third (control) pipe of the process-plus-control strategy (§4.2).
//! * [`event::Event`] — an auto/manual reset event, the synchronisation
//!   object of the DLL-with-thread strategy (Appendix A.3).
//! * [`shared_buf::SharedBuffer`] — a single-copy shared-memory handoff
//!   ("File data is not copied from user space to kernel space and then to
//!   user space …, instead using only one user-level copy", §4.3).
//! * [`sync::SyncRegistry`] — named semaphores/mutexes, the mechanism
//!   multiple sentinels on the same active file use to synchronise
//!   "amongst themselves in a program-dependent fashion" (§2.2).
//!
//! On top of the primitives, [`transport::PairTransport`] packages the
//! complete §4.2/§4.3 wiring (typed command/reply lanes plus a data lane
//! each way), [`mux::MuxHub`] shares one such wire among many sessions,
//! [`ring::RingPair`] adds io_uring-style submission/completion rings
//! that cross the boundary once per *batch* instead of once per op, and
//! [`pool::BufferPool`] recycles the staging buffers all of them use, so
//! the hot path settles into a steady state with no per-operation
//! allocation.
//!
//! All primitives work identically with or without a virtual clock
//! installed, so the same code paths serve both the Figure 6 simulation and
//! the wall-clock `benchmark/` harness.

pub mod control;
pub mod error;
pub mod event;
pub mod mux;
pub mod pipe;
pub mod pool;
pub mod ring;
pub mod shared_buf;
pub mod sync;
pub mod transport;

pub use control::{ChannelWaker, ControlChannel, ControlReceiver, ControlSender};
pub use error::IpcError;
pub use event::{Event, ResetMode};
pub use mux::{Framed, MuxHub, MuxProtocol, MuxSession, SentinelReaper, STAGE_CAPACITY};
pub use pipe::{Pipe, PipeReader, PipeWriter};
pub use pool::BufferPool;
pub use ring::{Cqe, RingPair, RingPort, RingTransport, Sqe};
pub use shared_buf::SharedBuffer;
pub use sync::{NamedSemaphore, SyncRegistry};
pub use transport::{DataRx, DataTx, PairPort, PairTransport};

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, IpcError>;
