#![warn(missing_docs)]
//! # Active Files
//!
//! A Rust reproduction of *“Active Files: A Mechanism for Integrating
//! Legacy Applications into Distributed Systems”* (Dasgupta, Itzkovitz,
//! Karamcheti — ICDCS 2000).
//!
//! An **active file** looks exactly like a regular file to an unmodified
//! ("legacy") application, but opening it launches a **sentinel** that
//! interposes on every file operation. The sentinel can generate data,
//! filter reads and writes, aggregate remote sources (file servers, POP
//! mailboxes, stock feeds, registries, databases) into one local file, or
//! distribute writes back out — all without the application knowing.
//!
//! This crate is the workspace façade: it re-exports the public API of
//! every member crate. Start with [`AfsWorld`] and the `examples/`
//! directory.
//!
//! ```
//! use activefiles::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let world = AfsWorld::new();
//! activefiles::register_standard_sentinels(&world);
//! world.install_active_file(
//!     "/shout.af",
//!     &SentinelSpec::new("uppercase", Strategy::DllThread).backing(Backing::Disk),
//! )?;
//! let api = world.api();
//! let h = api.create_file("/shout.af", Access::read_write(), Disposition::OpenExisting)?;
//! api.write_file(h, b"whisper")?;
//! api.set_file_pointer(h, 0, SeekMethod::Begin)?;
//! let mut buf = [0u8; 7];
//! api.read_file(h, &mut buf)?;
//! assert_eq!(&buf, b"WHISPER");
//! api.close_handle(h)?;
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | `afs-sim` | virtual clocks + the calibrated hardware cost model |
//! | `afs-vfs` | in-memory VFS with NTFS-style named streams |
//! | `afs-ipc` | pipes, control channels, events, shared buffers, named semaphores |
//! | `afs-winapi` | the Win32-shaped [`FileApi`] surface + handle tables |
//! | `afs-interpose` | runtime API interception (Mediating Connectors analogue) |
//! | `afs-net` | simulated network with latency/bandwidth accounting |
//! | `afs-remote` | remote services: files, mail, quotes, registry, database |
//! | `afs-core` | the active-files runtime and the four strategies of §4 |
//! | `afs-sentinels` | ready-made sentinels for every §3 use case |

pub use afs_core::{
    ActiveFileSystem, ActiveFilesLayer, AfsWorld, AfsWorldBuilder, Backing, CacheStore,
    NullSentinel, ProcessIo, RawProcessSentinel, SentinelCtx, SentinelError, SentinelLogic,
    SentinelRegistry, SentinelResult, SentinelSpec, Strategy, ACTIVE_EXTENSION, CTL_QUERY_STALE,
};
pub use afs_interpose::{ApiHandle, ApiLayer, CallCounters, CountingLayer, MediatingConnector};
pub use afs_ipc::{
    BufferPool, ControlChannel, Event, PairTransport, Pipe, ResetMode, SharedBuffer, SyncRegistry,
};
pub use afs_net::{
    BreakerConfig, CircuitBreaker, FaultPlan, NetError, Network, ReliabilityPolicy,
    ReliabilitySnapshot, RetryPolicy, Service,
};
pub use afs_remote::{
    ClusterClient, DbClient, DbServer, FileClient, FileServer, MailClient, MailStore, PopServer,
    QuoteClient, QuoteServer, RegistryClient, RegistryServer, RegistryValue, SmtpServer,
};
pub use afs_sim::{
    clock, Cost, CostModel, CrossingKind, HardwareProfile, OpKind, OpSummary, OpTrace, Series,
    Summary, TraceRecord,
};
pub use afs_telemetry::{
    chrome_trace, flight_bundles_json, json_is_valid, json_snapshot, prometheus_is_valid,
    prometheus_text, BurnRates, FlightBundle, FlightEvent, FlightRecorder, GaugesSnapshot,
    HistogramSnapshot, LatencyHistogram, Layer, Metric, MetricValue, MetricsRegistry, QueueGauges,
    SentinelStatsSnapshot, SloSnapshot, SloSpec, SlowOp, SpanRecord, Telemetry, TraceContext,
};
pub use afs_vfs::{VPath, Vfs, VfsError};
pub use afs_winapi::{
    Access, Disposition, FileApi, Handle, PassiveFileApi, SeekMethod, ShareMode, Win32Error,
};

pub mod shell;

/// Registers the full standard sentinel library (see
/// [`afs_sentinels::register_all`]) into a world.
pub fn register_standard_sentinels(world: &AfsWorld) {
    afs_sentinels::register_all(world.sentinels());
}

/// Everything most programs need, in one import.
pub mod prelude {
    pub use crate::register_standard_sentinels;
    pub use afs_core::{AfsWorld, Backing, SentinelLogic, SentinelSpec, Strategy};
    pub use afs_winapi::{Access, Disposition, FileApi, SeekMethod, Win32Error};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_everything_together() {
        let world = AfsWorld::new();
        crate::register_standard_sentinels(&world);
        assert!(world.sentinels().contains("compress"));
        assert!(world.sentinels().contains("null"));
    }
}
