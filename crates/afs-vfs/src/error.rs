//! VFS error type.

use std::error::Error;
use std::fmt;

/// Errors produced by [`crate::Vfs`] operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum VfsError {
    /// The path (or one of its parents) does not exist.
    NotFound(String),
    /// A path component that must be a directory is a file.
    NotADirectory(String),
    /// The operation requires a file but the path names a directory.
    IsADirectory(String),
    /// The target already exists.
    AlreadyExists(String),
    /// The path is syntactically invalid.
    InvalidPath(String),
    /// The file's read-only attribute forbids the operation.
    AccessDenied(String),
    /// A byte-range lock held by another owner conflicts.
    LockConflict(String),
    /// The requested named stream does not exist.
    StreamNotFound(String),
    /// A directory slated for non-recursive deletion is not empty.
    NotEmpty(String),
    /// A byte range no stream can hold: its end overflows `u64` or lies
    /// past `isize::MAX`.
    OutOfRange(String),
}

impl VfsError {
    /// The path the error refers to.
    pub fn path(&self) -> &str {
        match self {
            VfsError::NotFound(p)
            | VfsError::NotADirectory(p)
            | VfsError::IsADirectory(p)
            | VfsError::AlreadyExists(p)
            | VfsError::InvalidPath(p)
            | VfsError::AccessDenied(p)
            | VfsError::LockConflict(p)
            | VfsError::StreamNotFound(p)
            | VfsError::NotEmpty(p)
            | VfsError::OutOfRange(p) => p,
        }
    }
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound(p) => write!(f, "path not found: {p}"),
            VfsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            VfsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            VfsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            VfsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            VfsError::AccessDenied(p) => write!(f, "access denied: {p}"),
            VfsError::LockConflict(p) => write!(f, "byte-range lock conflict: {p}"),
            VfsError::StreamNotFound(p) => write!(f, "stream not found: {p}"),
            VfsError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            VfsError::OutOfRange(p) => write!(f, "byte range out of reach: {p}"),
        }
    }
}

impl Error for VfsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_accessor_returns_offending_path() {
        assert_eq!(VfsError::NotFound("/a".into()).path(), "/a");
        assert_eq!(VfsError::LockConflict("/b".into()).path(), "/b");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<T: Error + Send + Sync + 'static>() {}
        assert_err::<VfsError>();
    }

    #[test]
    fn display_contains_path() {
        let msg = VfsError::AlreadyExists("/x/y".into()).to_string();
        assert!(msg.contains("/x/y"));
    }
}
