#![warn(missing_docs)]
//! The Active Files runtime — the paper's primary contribution.
//!
//! "An active file is a regular file that is associated with an executable
//! program. When an active file is opened, the associated executable is
//! run as a sentinel process" (§2). This crate implements that lifecycle
//! end-to-end over the simulated substrates:
//!
//! * **Representation** — an active file is one VFS file whose default
//!   stream is the *data part* (local cache) and whose `:active` stream
//!   holds a [`SentinelSpec`] (name + strategy + configuration), packaged
//!   the way the prototype packages both parts in NTFS streams
//!   (Appendix A). Copying or renaming the file carries both parts.
//! * **Behaviour** — sentinel behaviour is written once against the
//!   [`SentinelLogic`] trait and registered by name in a
//!   [`SentinelRegistry`] (the stand-in for executables/DLLs on disk).
//! * **Strategies** — the four implementation approaches of §4, selected
//!   per file by [`Strategy`]:
//!   [`Strategy::Process`] (two pipes, streaming only — seek and
//!   `GetFileSize` unsupported, §4.1), [`Strategy::ProcessControl`]
//!   (adds the control channel, full API, §4.2), [`Strategy::DllThread`]
//!   (in-process sentinel thread over shared memory + events, §4.3), and
//!   [`Strategy::DllOnly`] (inline routines, §4.4).
//! * **Caching paths** — [`Backing`] selects the critical path of
//!   Figure 5: no cache (remote only), on-disk cache (the data part), or
//!   in-memory cache.
//! * **Interception** — [`ActiveFilesLayer`] plugs into the
//!   [`afs_interpose::MediatingConnector`] so an unmodified application's
//!   `CreateFile`/`ReadFile`/`WriteFile` calls are transparently diverted
//!   when (and only when) the target is an active file.
//! * **Assembly** — [`AfsWorld`] wires VFS, network, services, registry,
//!   and connector together for applications, tests, and benches.
//!
//! # Examples
//!
//! ```
//! use afs_core::{AfsWorld, Backing, SentinelSpec, Strategy};
//! use afs_winapi::{Access, Disposition, FileApi};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let world = AfsWorld::builder().build();
//! // A "null filter" active file: indistinguishable from a passive file.
//! world.install_active_file(
//!     "/plain.af",
//!     &SentinelSpec::new("null", Strategy::DllOnly).backing(Backing::Disk),
//! )?;
//! let api = world.api();
//! let h = api.create_file("/plain.af", Access::read_write(), Disposition::OpenExisting)?;
//! api.write_file(h, b"hello")?;
//! api.set_file_pointer(h, 0, afs_winapi::SeekMethod::Begin)?;
//! let mut buf = [0u8; 5];
//! api.read_file(h, &mut buf)?;
//! assert_eq!(&buf, b"hello");
//! api.close_handle(h)?;
//! # Ok(())
//! # }
//! ```

mod afs;
mod cache;
mod ctx;
mod logic;
mod registry;
pub mod security;
mod spec;
pub mod strategy;
mod world;

pub use afs::{ActiveFileSystem, ActiveFilesLayer};
pub use cache::CacheStore;
pub use ctx::SentinelCtx;
pub use logic::{NullSentinel, SentinelError, SentinelLogic, SentinelResult};
pub use registry::{LogicFactory, SentinelRegistry};
pub use security::{check_active_file, sign_active_file, SIGNATURE_STREAM};
pub use spec::{Backing, SentinelSpec, Strategy};
pub use strategy::process::{ProcessIo, RawProcessSentinel};
pub use strategy::{CTL_QUERY_STALE, CTL_STORE_CHECKPOINT, CTL_STORE_STATS, CTL_STORE_SYNC};
pub use world::{AfsWorld, AfsWorldBuilder};

/// The file extension conventionally used for active files, checked by the
/// open stub just as the prototype checks the extension (Appendix A.2).
pub const ACTIVE_EXTENSION: &str = "af";
