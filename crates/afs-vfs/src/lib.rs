#![warn(missing_docs)]
//! In-memory virtual file system for the Active Files reproduction.
//!
//! The paper's prototype stores an active file as a single NTFS file whose
//! *data part* and *active part* live in separate NTFS streams, "which
//! exhibits compatible behavior for standard file operations such as
//! copying and renaming" (Appendix A). This crate provides exactly that
//! substrate:
//!
//! * hierarchical directories and files ([`Vfs`]),
//! * **named streams** per file (the default stream is the empty name;
//!   `"/x/report.af:active"` addresses the `active` stream — see
//!   [`VPath`]),
//! * whole-file copy/rename/delete that carry *all* streams, which is what
//!   makes "a copy operation produce a second active file with the same
//!   data and executable components" (§2.1),
//! * NT-style byte-range locks ([`Vfs::lock_range`]) checked by the file
//!   API layer, and
//! * read-only/hidden attributes plus logical timestamps.
//!
//! A file keeps its default stream, the data part that every read of a
//! passive or remote file reaches, in a field beside its map of named
//! streams, so no op looks the empty name up in a map: that lookup was the
//! biggest single cost of a file server's read (docs/CONCURRENCY.md, "An
//! empty name is not free").
//!
//! A caller that reaches one file many times can [`Vfs::pin`] it: a
//! [`Pin`] is the file's slot in the node table plus the namespace epoch,
//! a counter of the whole `Vfs` that every [`Vfs::delete`] and
//! [`Vfs::rename`] bumps. The pinned calls ([`Vfs::read_stream_pinned`],
//! [`Vfs::write_stream_pinned`], [`Vfs::stream_len_pinned`]) go straight
//! to the slot while the epoch is the pin's, and otherwise resolve the path
//! exactly as the path forms do, with the same errors; the path forms are
//! the pinned ones with a pin that never holds. A per-slot generation
//! would not be enough: it misses a rename of the file or of a directory
//! above it. The epoch is a full `u64`, so it never wraps back to a stale
//! pin's. A file server that keeps a table of its files holds one pin per
//! entry, so a read of a known file walks no directory.
//!
//! The VFS is deliberately time-free: simulated disk costs are charged by
//! the layers that decide whether a particular access models a disk (the
//! sentinel's on-disk cache) or not.
//!
//! # Examples
//!
//! ```
//! use afs_vfs::{Vfs, VPath};
//!
//! # fn main() -> Result<(), afs_vfs::VfsError> {
//! let vfs = Vfs::new();
//! vfs.create_dir_all(&VPath::parse("/docs")?)?;
//! let p = VPath::parse("/docs/hello.txt")?;
//! vfs.create_file(&p)?;
//! vfs.write_stream(&p, 0, b"hi")?;
//! assert_eq!(vfs.read_stream_to_end(&p)?, b"hi");
//! # Ok(())
//! # }
//! ```

mod error;
mod node;
mod path;
mod vfs;

pub use error::VfsError;
pub use node::{DirEntry, FileAttributes, Metadata, NodeKind};
pub use path::VPath;
pub use vfs::{LockKind, LockOwner, Pin, PinCell, Vfs};

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, VfsError>;

/// Name of the default (anonymous) data stream, matching NTFS's unnamed
/// `$DATA` stream.
pub const DEFAULT_STREAM: &str = "";

/// Conventional name of the stream holding an active file's active part.
pub const ACTIVE_STREAM: &str = "active";
