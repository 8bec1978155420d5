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
//!   third (control) pipe of the process-plus-control strategy (§4.2), or,
//!   at user level, the event-signalled messages of the DLL-with-thread
//!   strategy (Appendix A.3).
//! * [`event::Event`] — an NT auto-reset event.
//! * [`shared_buf::SharedBuffer`] — a single-copy shared-memory handoff
//!   ("File data is not copied from user space to kernel space and then to
//!   user space …, instead using only one user-level copy", §4.3), which
//!   carries a write's bytes to a §4.3 sentinel; a read's come back inside
//!   their reply.
//! * [`sync::SyncRegistry`] — named semaphores/mutexes, the mechanism
//!   multiple sentinels on the same active file use to synchronise
//!   "amongst themselves in a program-dependent fashion" (§2.2).
//!
//! The pipe, the shared buffer, the control channel, the §4.3 reply lane
//! and the ring's submission queue are instances of one [stamped
//! channel](stamped), which holds the crate's whole virtual-time rule.
//!
//! On top of the primitives, [`transport::PairTransport`] packages the
//! complete §4.2/§4.3 wiring (typed command and reply lanes, a data lane
//! to the sentinel, and a read's bytes behind or inside its reply),
//! [`mux::MuxHub`] shares one such wire among many sessions
//! (under the one session rule and write stager of [`mux`]),
//! [`ring::RingPair`] adds io_uring-style submission/completion rings
//! that cross the boundary once per *batch* instead of once per op. Each
//! byte lane recycles its buffers in a [`FreeList`] under the lock its
//! crossing already takes, and whoever stages bytes keeps one where it
//! already holds `&mut` or a lock, so the hot path settles into a steady
//! state with no per-operation allocation and no lock of its own.
//!
//! All primitives work identically with or without a virtual clock
//! installed, so the same code paths serve both the Figure 6 simulation and
//! the wall-clock `benchmark/` harness.

pub mod control;
pub mod error;
pub mod event;
pub mod mux;
pub mod pipe;
pub mod ring;
pub mod shared_buf;
pub mod stamped;
pub mod sync;
pub mod transport;

pub use control::{ChannelWaker, ControlChannel, ControlReceiver, ControlSender, Wake};
pub use error::IpcError;
pub use event::{Event, ResetMode};
pub use mux::{
    AppPort, Framed, MuxHub, MuxProtocol, SentinelExit, SessionHub, Sessions, Stager,
    STAGE_CAPACITY,
};
pub use pipe::{Pipe, PipeReader, PipeWriter};
pub use ring::{Cqe, RingPair, RingPort, RingTransport, Sqe};
pub use shared_buf::SharedBuffer;
pub use stamped::FreeList;
pub use sync::{NamedSemaphore, SyncRegistry};
pub use transport::{DataRx, DataTx, PairPort, PairTransport, Payload};

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, IpcError>;
