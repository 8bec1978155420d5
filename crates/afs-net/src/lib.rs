#![warn(missing_docs)]
//! Simulated message network for the Active Files reproduction.
//!
//! The paper's sentinels reach "multiple remote sites with varied
//! authentication and access-control policies" over 100 Mbps Fast Ethernet
//! (§6). This crate provides the transport those interactions run on:
//!
//! * [`Network`] — a registry of named [`Service`]s plus two call shapes:
//!   [`Network::rpc`] (synchronous request/response, charged one round
//!   trip plus per-byte streaming both ways) and [`Network::cast`]
//!   (fire-and-forget, charged only the outbound per-byte cost — the
//!   "writes are issued without waiting for their completion" path of §6).
//! * [`wire`] — a small length-prefixed binary codec every service
//!   protocol in [`afs_remote`](../afs_remote/index.html) is defined in,
//!   standing in for the FTP/HTTP/POP wire formats the paper mentions.
//! * [`FaultPlan`] — deterministic fault injection (drop or flake the next
//!   N messages, partition a service away or over a scheduled virtual-time
//!   window, inject seeded latency and probabilistic loss) for the failure
//!   tests.
//! * [`cluster`] — consistent-hash placement, and the [`Fleet`] a
//!   placement is shared as: a replicated service a sentinel names.
//! * [`Network::walk`] — the one failover walk: a caller's owners,
//!   primary first, each asked once per pass. An [`Endpoint`] gives each
//!   path its owners — a listed service and replicas, or a fleet's.
//! * [`reliability`] — retry policies with deterministic exponential
//!   backoff, per-service circuit breakers, and the counters the
//!   telemetry exports. A [`Network::with_policy`] clone walks every call
//!   under its policy.
//!
//! Services execute inline on the caller's thread; their compute is free,
//! which matches the paper's measurement focus on the *client-side*
//! overheads of reaching them.

pub mod cluster;
pub mod error;
pub mod net;
pub mod reliability;
mod spare;
pub mod wire;

pub use cluster::{Fleet, HashRing, Placement};
pub use error::NetError;
pub use net::{Endpoint, FaultPlan, Members, Network, NetworkStats, Owner, Service, Target};
pub use reliability::{
    BreakerConfig, CircuitBreaker, ReliabilityPolicy, ReliabilitySnapshot, ReliabilityStats,
    RetryPolicy,
};
pub use wire::{WireError, WireReader, WireWriter};

/// Result alias for network operations.
pub type Result<T> = std::result::Result<T, NetError>;
