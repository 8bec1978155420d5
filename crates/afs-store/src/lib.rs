//! # afs-store — durable WAL-backed page store for active files
//!
//! The durability subsystem of the Active Files reproduction: a page-based
//! backing store whose mutations go through a checksummed write-ahead log
//! (group commit in virtual time), with redo-on-reopen recovery,
//! torn-write detection, checkpointing, serialize/deserialize, and a
//! crash-injection harness that kills a run at *every* WAL byte boundary
//! and proves recovery is exact.
//!
//! Layout:
//!
//! - [`checksum`] — CRC-32C for per-record integrity.
//! - [`wal`] — record framing, scanning, redo application.
//! - [`medium`] — the two-area persistence substrate ([`MemMedium`] for
//!   tests and crash injection, [`VfsMedium`] over named streams of the
//!   active file).
//! - [`store`] — [`PageStore`]: staging, commit, checkpoint, recovery,
//!   serialize/deserialize.
//! - [`crash`] — [`crash_sweep`]: the every-boundary kill-point harness.
//!
//! Costs are charged to the §4 virtual-time model at the medium boundary
//! (WAL appends, fsync barriers, checkpoint writes, recovery scans), so
//! durability shows up honestly in `OpTrace`s and bench cells.

pub mod backend;
pub mod checksum;
pub mod crash;
pub mod medium;
pub mod store;
pub mod wal;

pub use backend::{BackendKind, DurableBackend, MemBackend, StoreBackend, VfsBackend};
pub use crash::{crash_sweep, CrashOp, CrashReport};
pub use medium::{MemMedium, StoreMedium, VfsMedium, PAGES_STREAM, WAL_STREAM};
pub use store::{
    CheckpointReport, PageStore, RecoveryReport, StoreOptions, StoreStats, SyncMode, PAGES_HEADER,
};
pub use wal::{WalRecord, WalScan, RECORD_OVERHEAD};

use afs_vfs::VfsError;

/// Errors from the store layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A caller-supplied parameter was invalid (zero page size, bad sync
    /// mode, overlong offset).
    InvalidParameter,
    /// The medium holds bytes the store cannot interpret — *not* a torn
    /// WAL tail (that is recovered from silently) but structural damage
    /// like a bad pages header.
    Corrupt(String),
    /// The underlying medium failed.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::InvalidParameter => write!(f, "invalid store parameter"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::Io(msg) => write!(f, "store I/O error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<VfsError> for StoreError {
    fn from(e: VfsError) -> Self {
        StoreError::Io(e.to_string())
    }
}
