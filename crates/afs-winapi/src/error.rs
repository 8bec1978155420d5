//! Win32-style error codes.

use std::error::Error;
use std::fmt;

use afs_vfs::VfsError;

/// A Win32 file-API error, mirroring `GetLastError` codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Win32Error {
    /// `ERROR_FILE_NOT_FOUND` (2).
    FileNotFound,
    /// `ERROR_PATH_NOT_FOUND` (3).
    PathNotFound,
    /// `ERROR_ACCESS_DENIED` (5).
    AccessDenied,
    /// `ERROR_INVALID_HANDLE` (6).
    InvalidHandle,
    /// `ERROR_HANDLE_EOF` (38).
    HandleEof,
    /// `ERROR_NOT_SUPPORTED` (50) — e.g. `ReadFileScatter` against a
    /// simple process-based active file (§4.1).
    NotSupported,
    /// `ERROR_FILE_EXISTS` (80).
    FileExists,
    /// `ERROR_INVALID_PARAMETER` (87).
    InvalidParameter,
    /// `ERROR_BROKEN_PIPE` (109).
    BrokenPipe,
    /// `ERROR_CALL_NOT_IMPLEMENTED` (120).
    CallNotImplemented,
    /// `ERROR_INVALID_NAME` (123).
    InvalidName,
    /// `ERROR_DIR_NOT_EMPTY` (145).
    DirNotEmpty,
    /// `ERROR_ALREADY_EXISTS` (183).
    AlreadyExists,
    /// `ERROR_SHARING_VIOLATION` (32).
    SharingViolation,
    /// `ERROR_LOCK_VIOLATION` (33).
    LockViolation,
    /// `ERROR_DIRECTORY` (267) — directory operation on a file or vice
    /// versa.
    Directory,
    /// A failure reported by a remote information source through the
    /// sentinel (no single Win32 analogue; surfaced as code 59,
    /// `ERROR_UNEXP_NET_ERR`).
    NetworkError,
}

impl Win32Error {
    /// The numeric `GetLastError` code.
    pub fn code(self) -> u32 {
        match self {
            Win32Error::FileNotFound => 2,
            Win32Error::PathNotFound => 3,
            Win32Error::AccessDenied => 5,
            Win32Error::InvalidHandle => 6,
            Win32Error::SharingViolation => 32,
            Win32Error::LockViolation => 33,
            Win32Error::HandleEof => 38,
            Win32Error::NotSupported => 50,
            Win32Error::NetworkError => 59,
            Win32Error::FileExists => 80,
            Win32Error::InvalidParameter => 87,
            Win32Error::BrokenPipe => 109,
            Win32Error::CallNotImplemented => 120,
            Win32Error::InvalidName => 123,
            Win32Error::DirNotEmpty => 145,
            Win32Error::AlreadyExists => 183,
            Win32Error::Directory => 267,
        }
    }
}

impl fmt::Display for Win32Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Win32Error::FileNotFound => "file not found",
            Win32Error::PathNotFound => "path not found",
            Win32Error::AccessDenied => "access denied",
            Win32Error::InvalidHandle => "invalid handle",
            Win32Error::SharingViolation => "sharing violation",
            Win32Error::LockViolation => "lock violation",
            Win32Error::HandleEof => "end of file",
            Win32Error::NotSupported => "operation not supported",
            Win32Error::NetworkError => "unexpected network error",
            Win32Error::FileExists => "file exists",
            Win32Error::InvalidParameter => "invalid parameter",
            Win32Error::BrokenPipe => "broken pipe",
            Win32Error::CallNotImplemented => "call not implemented",
            Win32Error::InvalidName => "invalid name",
            Win32Error::DirNotEmpty => "directory not empty",
            Win32Error::AlreadyExists => "already exists",
            Win32Error::Directory => "invalid directory operation",
        };
        write!(f, "{name} (error {})", self.code())
    }
}

impl Error for Win32Error {}

impl From<VfsError> for Win32Error {
    fn from(e: VfsError) -> Self {
        match e {
            VfsError::NotFound(_) => Win32Error::FileNotFound,
            VfsError::NotADirectory(_) => Win32Error::PathNotFound,
            VfsError::IsADirectory(_) => Win32Error::Directory,
            VfsError::AlreadyExists(_) => Win32Error::AlreadyExists,
            VfsError::InvalidPath(_) => Win32Error::InvalidName,
            VfsError::AccessDenied(_) => Win32Error::AccessDenied,
            VfsError::LockConflict(_) => Win32Error::LockViolation,
            VfsError::StreamNotFound(_) => Win32Error::FileNotFound,
            VfsError::NotEmpty(_) => Win32Error::DirNotEmpty,
            VfsError::OutOfRange(_) => Win32Error::InvalidParameter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_win32() {
        assert_eq!(Win32Error::FileNotFound.code(), 2);
        assert_eq!(Win32Error::AccessDenied.code(), 5);
        assert_eq!(Win32Error::InvalidHandle.code(), 6);
        assert_eq!(Win32Error::HandleEof.code(), 38);
        assert_eq!(Win32Error::CallNotImplemented.code(), 120);
    }

    #[test]
    fn vfs_errors_map() {
        assert_eq!(
            Win32Error::from(VfsError::LockConflict("/f".into())),
            Win32Error::LockViolation
        );
        assert_eq!(
            Win32Error::from(VfsError::NotFound("/f".into())),
            Win32Error::FileNotFound
        );
        assert_eq!(
            Win32Error::from(VfsError::OutOfRange("/f".into())),
            Win32Error::InvalidParameter
        );
    }

    #[test]
    fn display_includes_code() {
        assert!(Win32Error::NotSupported.to_string().contains("50"));
    }
}
