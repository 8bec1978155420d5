//! The [`SentinelLogic`] trait — how active-file behaviour is written.
//!
//! The paper sketches four fundamental sentinel actions (§3): data
//! generation, input/output filtering, aggregation, and distribution. All
//! of them reduce to intercepting reads and writes plus open/close hooks,
//! which is exactly this trait. A logic written once runs under **all
//! four** implementation strategies via the per-strategy adapters in
//! [`crate::strategy`] — realising the "automatic translation strategies"
//! the paper leaves as future work (§5).

use std::error::Error;
use std::fmt;

use afs_net::NetError;
use afs_vfs::VfsError;

use crate::ctx::SentinelCtx;

/// Errors a sentinel can raise; the strategy stubs map them to Win32
/// codes at the application boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SentinelError {
    /// The operation is not meaningful for this sentinel (e.g. writing a
    /// read-only aggregate).
    Unsupported,
    /// The sentinel has no cache but a cache operation was attempted.
    NoCache,
    /// An argument is out of range for the operation (e.g. an offset so
    /// large that `offset + len` cannot be represented).
    InvalidParameter,
    /// Access denied by sentinel policy (resource-centric access control,
    /// §7).
    Denied(String),
    /// A remote source failed: no owner answered, or one refused.
    Net(NetError),
    /// A local file-system failure.
    Vfs(String),
    /// Any other failure, with a message.
    Other(String),
}

impl fmt::Display for SentinelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SentinelError::Unsupported => f.write_str("operation unsupported by sentinel"),
            SentinelError::NoCache => f.write_str("sentinel has no cache"),
            SentinelError::InvalidParameter => f.write_str("parameter out of range"),
            SentinelError::Denied(m) => write!(f, "denied by sentinel: {m}"),
            SentinelError::Net(m) => write!(f, "remote source error: {m}"),
            SentinelError::Vfs(m) => write!(f, "local file error: {m}"),
            SentinelError::Other(m) => write!(f, "sentinel error: {m}"),
        }
    }
}

impl Error for SentinelError {}

impl From<NetError> for SentinelError {
    fn from(e: NetError) -> Self {
        SentinelError::Net(e)
    }
}

impl From<VfsError> for SentinelError {
    fn from(e: VfsError) -> Self {
        SentinelError::Vfs(e.to_string())
    }
}

/// Result alias for sentinel operations.
pub type SentinelResult<T> = Result<T, SentinelError>;

/// Behaviour of one active file, written strategy-independently.
///
/// One instance serves one open of one active file ("if multiple user
/// processes open the same active file, multiple sentinels are created",
/// §2.2); instances coordinate through
/// [`SentinelCtx::semaphore`]/[`SentinelCtx::mutex`].
///
/// Offsets are always explicit: the application-side stub owns the file
/// pointer, so strategies that support seeking just pass different
/// offsets.
pub trait SentinelLogic: Send {
    /// Called once when the user process opens the active file, before any
    /// I/O. Aggregating sentinels typically populate the cache here (the
    /// stock-quote and inbox examples of §3).
    ///
    /// # Errors
    ///
    /// Failing the open makes the application's `CreateFile` fail.
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let _ = ctx;
        Ok(())
    }

    /// Produces up to `buf.len()` bytes at `offset`; returns 0 at
    /// end-of-file. Infinite generators simply never return 0.
    ///
    /// # Errors
    ///
    /// Any [`SentinelError`]; surfaced to the application's `ReadFile`.
    fn read(&mut self, ctx: &mut SentinelCtx, offset: u64, buf: &mut [u8])
        -> SentinelResult<usize>;

    /// Consumes `data` written at `offset`; returns bytes accepted.
    ///
    /// # Errors
    ///
    /// Any [`SentinelError`]; under write-behind strategies the error may
    /// surface on a *later* operation or on close rather than this write.
    fn write(&mut self, ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize>;

    /// The logical file length, backing `GetFileSize`.
    ///
    /// # Errors
    ///
    /// Default: the cache length; [`SentinelError::NoCache`] without one.
    /// Generators with no meaningful size return
    /// [`SentinelError::Unsupported`].
    fn len(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<u64> {
        ctx.cache().len()
    }

    /// Backs `DeviceIoControl`: an out-of-band request identified by
    /// `code` with an opaque `payload`, returning opaque response bytes.
    /// This is the paper's `AF_Control`/"control information" lane (§4.2,
    /// Appendix A.3); sentinels use it for knobs that are not reads or
    /// writes (e.g. toggling readahead).
    ///
    /// # Errors
    ///
    /// Default: [`SentinelError::Unsupported`] — most sentinels have no
    /// control surface.
    fn control(
        &mut self,
        ctx: &mut SentinelCtx,
        code: u32,
        payload: &[u8],
    ) -> SentinelResult<Vec<u8>> {
        let _ = (ctx, code, payload);
        Err(SentinelError::Unsupported)
    }

    /// Backs `FlushFileBuffers`; write-behind sentinels push pending data
    /// out here.
    ///
    /// # Errors
    ///
    /// Any [`SentinelError`].
    fn flush(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let _ = ctx;
        Ok(())
    }

    /// Called when the user process closes the file; the sentinel
    /// terminates afterwards (§2.2). Distribution sentinels often act
    /// here (the outbox of §3 sends accumulated mail).
    ///
    /// # Errors
    ///
    /// Any [`SentinelError`]; surfaced to `CloseHandle`.
    fn on_close(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let _ = ctx;
        Ok(())
    }
}

/// The null filter of §2.2/Figure 2: the active file behaves exactly like
/// a passive file, reading and writing the cache.
///
/// "The sentinel can be a null filter, in which case the active file has
/// the semantics of a passive file."
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSentinel;

impl NullSentinel {
    /// Creates the null filter.
    pub fn new() -> Self {
        NullSentinel
    }
}

impl SentinelLogic for NullSentinel {
    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        ctx.cache().read_at(offset, buf)
    }

    fn write(&mut self, ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize> {
        ctx.cache().write_at(offset, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_error_is_send_sync() {
        fn assert_err<T: Error + Send + Sync + 'static>() {}
        assert_err::<SentinelError>();
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let e: SentinelError = NetError::ServiceNotFound("x".into()).into();
        assert!(matches!(e, SentinelError::Net(_)));
        let e: SentinelError = VfsError::NotFound("/p".into()).into();
        assert!(matches!(e, SentinelError::Vfs(_)));
    }

    #[test]
    fn logic_trait_is_object_safe() {
        fn _takes(_l: &mut dyn SentinelLogic) {}
    }
}
