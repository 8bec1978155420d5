#![warn(missing_docs)]
//! Deterministic virtual-time simulation substrate for the Active Files
//! reproduction.
//!
//! The original paper measured its prototype on a 300 MHz Pentium II cluster
//! connected by 100 Mbps Fast Ethernet. We cannot re-run that hardware, so
//! every substrate component in this workspace (pipes, shared buffers, the
//! simulated network, the simulated disk) *charges* the cost of what it does
//! to a per-thread **virtual clock**. Charges are expressed through a
//! [`CostModel`] whose parameters are calibrated to the paper's platform
//! (see [`HardwareProfile::pentium_ii_300`]).
//!
//! The design is a lightweight Lamport-style virtual time scheme:
//!
//! * every simulated thread owns a thread-local clock ([`clock`]),
//! * local work advances the local clock ([`CostModel::charge`]),
//! * data handed between threads carries the producer's timestamp, and the
//!   consumer synchronises its clock to `max(own, producer)` when it picks
//!   the data up ([`clock::sync_to`]).
//!
//! This reproduces the two behaviours Figure 6 of the paper hinges on
//! without any wall-clock timing:
//!
//! * **reads are latency-bound** — the application blocks until the sentinel
//!   produced the data, so the sentinel's work lands on the application's
//!   critical path, and
//! * **writes are bandwidth-bound** — the application returns as soon as the
//!   bytes are in the pipe; only when the bounded pipe fills up does
//!   backpressure transfer the sentinel's drain rate onto the application
//!   ("data streaming hides some of the latency", §6).
//!
//! When no virtual clock is registered on the current thread every charge is
//! a no-op, so the exact same component code can be timed on the host
//! clock (`benchmark/`).
//!
//! # Examples
//!
//! ```
//! use afs_sim::{clock, Cost, CostModel, HardwareProfile};
//!
//! let model = CostModel::new(HardwareProfile::pentium_ii_300());
//! let _guard = clock::install(0);
//! model.charge(Cost::Syscall);
//! model.charge(Cost::Memcpy { bytes: 1024 });
//! assert!(clock::now() > 0);
//! ```

pub mod clock;
pub mod cost;
pub mod rng;
pub mod stats;
mod stripe;
pub mod trace;

pub use clock::{ClockGuard, SimTime};
pub use cost::{Cost, CostModel, CostSnapshot, CrossingKind, HardwareProfile, OpWindow};
pub use rng::SimRng;
pub use stats::{Series, Summary};
pub use trace::{OpKind, OpSummary, OpTrace, TraceRecord};
