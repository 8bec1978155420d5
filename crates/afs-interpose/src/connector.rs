//! The connector and the application-side dispatch handle.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use afs_vfs::{DirEntry, FileAttributes};
use afs_winapi::{
    Access, ApiResult, Disposition, FileApi, FileInformation, Handle, SeekMethod, ShareMode,
};

/// A single interception layer: given the next implementation down the
/// chain, produce the diverted implementation.
pub trait ApiLayer: Send + Sync {
    /// Stable name used for install/uninstall bookkeeping.
    fn name(&self) -> &str;

    /// Wraps `inner`, returning the diverted API.
    fn wrap(&self, inner: Arc<dyn FileApi>) -> Arc<dyn FileApi>;
}

/// Errors from connector management operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterposeError {
    /// A layer with this name is already installed.
    DuplicateLayer(String),
    /// No layer with this name is installed.
    UnknownLayer(String),
    /// The layer was installed securely and cannot be removed (§4: the
    /// application cannot undo the interception).
    SecuredLayer(String),
}

impl fmt::Display for InterposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterposeError::DuplicateLayer(n) => write!(f, "layer already installed: {n}"),
            InterposeError::UnknownLayer(n) => write!(f, "layer not installed: {n}"),
            InterposeError::SecuredLayer(n) => write!(f, "layer is secured against removal: {n}"),
        }
    }
}

impl Error for InterposeError {}

struct Installed {
    layer: Arc<dyn ApiLayer>,
    secure: bool,
}

/// One generation of the chain — the simulated IAT as it stood between
/// two layer changes — and the link to the generation that replaced it.
/// The list only ever grows at its tail, so finding the current chain is
/// a walk over loads.
struct Generation {
    chain: Arc<dyn FileApi>,
    next: OnceLock<Box<Generation>>,
}

impl Generation {
    fn new(chain: Arc<dyn FileApi>) -> Self {
        Generation {
            chain,
            next: OnceLock::new(),
        }
    }

    fn newest(&self) -> &Generation {
        let mut generation = self;
        while let Some(next) = generation.next.get() {
            generation = next;
        }
        generation
    }
}

/// Runtime manager of the interception chain over a base [`FileApi`].
///
/// The chain is rebuilt whenever layers change; handles obtained earlier
/// from [`MediatingConnector::api`] observe the new chain immediately.
/// Every rebuild appends a generation that lives until the connector and
/// all its handles are gone: one small `Arc` chain per install or
/// uninstall, which is what lets a call dispatch without taking a lock or
/// a reference.
pub struct MediatingConnector {
    base: Arc<dyn FileApi>,
    /// Installed layers, innermost first. Holding this lock is what
    /// serialises layer changes, so each appends to the true tail.
    layers: Mutex<Vec<Installed>>,
    first: Arc<Generation>,
}

impl MediatingConnector {
    /// Creates a connector whose initial chain is just `base`.
    pub fn new(base: Arc<dyn FileApi>) -> Self {
        MediatingConnector {
            first: Arc::new(Generation::new(Arc::clone(&base))),
            layers: Mutex::new(Vec::new()),
            base,
        }
    }

    /// Returns the application-side dispatch handle (the simulated IAT).
    /// Cheap to clone; all clones observe chain changes.
    pub fn api(&self) -> ApiHandle {
        ApiHandle {
            first: Arc::clone(&self.first),
        }
    }

    /// Installs `layer` as the new outermost diversion.
    ///
    /// # Errors
    ///
    /// [`InterposeError::DuplicateLayer`] if a layer with the same name is
    /// installed.
    pub fn install(&self, layer: Arc<dyn ApiLayer>) -> Result<(), InterposeError> {
        self.install_inner(layer, false)
    }

    /// Installs `layer` such that [`MediatingConnector::uninstall`] refuses
    /// to remove it.
    ///
    /// # Errors
    ///
    /// As [`MediatingConnector::install`].
    pub fn install_secure(&self, layer: Arc<dyn ApiLayer>) -> Result<(), InterposeError> {
        self.install_inner(layer, true)
    }

    fn install_inner(&self, layer: Arc<dyn ApiLayer>, secure: bool) -> Result<(), InterposeError> {
        let mut layers = self.layers.lock();
        if layers.iter().any(|l| l.layer.name() == layer.name()) {
            return Err(InterposeError::DuplicateLayer(layer.name().to_owned()));
        }
        layers.push(Installed { layer, secure });
        self.publish(&layers);
        Ok(())
    }

    /// Removes the named layer and rebuilds the chain.
    ///
    /// # Errors
    ///
    /// [`InterposeError::UnknownLayer`] if not installed,
    /// [`InterposeError::SecuredLayer`] if installed via
    /// [`MediatingConnector::install_secure`].
    pub fn uninstall(&self, name: &str) -> Result<(), InterposeError> {
        let mut layers = self.layers.lock();
        let idx = layers
            .iter()
            .position(|l| l.layer.name() == name)
            .ok_or_else(|| InterposeError::UnknownLayer(name.to_owned()))?;
        if layers[idx].secure {
            return Err(InterposeError::SecuredLayer(name.to_owned()));
        }
        layers.remove(idx);
        self.publish(&layers);
        Ok(())
    }

    /// Names of installed layers, innermost first.
    pub fn installed(&self) -> Vec<String> {
        self.layers
            .lock()
            .iter()
            .map(|l| l.layer.name().to_owned())
            .collect()
    }

    /// Builds the chain for `layers` and appends it as the newest
    /// generation. The caller holds the layer lock.
    fn publish(&self, layers: &[Installed]) {
        let mut chain = Arc::clone(&self.base);
        for installed in layers {
            chain = installed.layer.wrap(chain);
        }
        let appended = self
            .first
            .newest()
            .next
            .set(Box::new(Generation::new(chain)));
        assert!(appended.is_ok(), "layer changes are serialised");
    }
}

/// The application's view of the file API: a stable handle that always
/// dispatches through the connector's *current* chain — the paper's IAT
/// is a pointer the call jumps through, so a dispatch is a few loads and
/// writes nothing. A call in flight when the layers change finishes on
/// the generation it started on.
#[derive(Clone)]
pub struct ApiHandle {
    first: Arc<Generation>,
}

impl ApiHandle {
    fn chain(&self) -> &dyn FileApi {
        &*self.first.newest().chain
    }
}

impl fmt::Debug for ApiHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ApiHandle").finish_non_exhaustive()
    }
}

impl FileApi for ApiHandle {
    fn create_file(
        &self,
        path: &str,
        access: Access,
        disposition: Disposition,
    ) -> ApiResult<Handle> {
        self.chain().create_file(path, access, disposition)
    }

    fn create_file_shared(
        &self,
        path: &str,
        access: Access,
        share: ShareMode,
        disposition: Disposition,
    ) -> ApiResult<Handle> {
        self.chain()
            .create_file_shared(path, access, share, disposition)
    }

    fn read_file(&self, handle: Handle, buf: &mut [u8]) -> ApiResult<usize> {
        self.chain().read_file(handle, buf)
    }

    fn write_file(&self, handle: Handle, data: &[u8]) -> ApiResult<usize> {
        self.chain().write_file(handle, data)
    }

    fn close_handle(&self, handle: Handle) -> ApiResult<()> {
        self.chain().close_handle(handle)
    }

    fn get_file_size(&self, handle: Handle) -> ApiResult<u64> {
        self.chain().get_file_size(handle)
    }

    fn set_file_pointer(&self, handle: Handle, offset: i64, method: SeekMethod) -> ApiResult<u64> {
        self.chain().set_file_pointer(handle, offset, method)
    }

    fn read_file_scatter(&self, handle: Handle, bufs: &mut [&mut [u8]]) -> ApiResult<usize> {
        self.chain().read_file_scatter(handle, bufs)
    }

    fn write_file_gather(&self, handle: Handle, bufs: &[&[u8]]) -> ApiResult<usize> {
        self.chain().write_file_gather(handle, bufs)
    }

    fn flush_file_buffers(&self, handle: Handle) -> ApiResult<()> {
        self.chain().flush_file_buffers(handle)
    }

    fn lock_file(&self, handle: Handle, offset: u64, len: u64, exclusive: bool) -> ApiResult<()> {
        self.chain().lock_file(handle, offset, len, exclusive)
    }

    fn unlock_file(&self, handle: Handle, offset: u64, len: u64) -> ApiResult<()> {
        self.chain().unlock_file(handle, offset, len)
    }

    fn delete_file(&self, path: &str) -> ApiResult<()> {
        self.chain().delete_file(path)
    }

    fn copy_file(&self, from: &str, to: &str) -> ApiResult<()> {
        self.chain().copy_file(from, to)
    }

    fn move_file(&self, from: &str, to: &str) -> ApiResult<()> {
        self.chain().move_file(from, to)
    }

    fn get_file_attributes(&self, path: &str) -> ApiResult<FileAttributes> {
        self.chain().get_file_attributes(path)
    }

    fn find_files(&self, dir: &str) -> ApiResult<Vec<DirEntry>> {
        self.chain().find_files(dir)
    }

    fn create_directory(&self, path: &str) -> ApiResult<()> {
        self.chain().create_directory(path)
    }

    fn get_file_information(&self, handle: Handle) -> ApiResult<FileInformation> {
        self.chain().get_file_information(handle)
    }

    fn set_end_of_file(&self, handle: Handle) -> ApiResult<()> {
        self.chain().set_end_of_file(handle)
    }

    fn device_io_control(&self, handle: Handle, code: u32, input: &[u8]) -> ApiResult<Vec<u8>> {
        self.chain().device_io_control(handle, code, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    use afs_sim::CostModel;
    use afs_vfs::Vfs;
    use afs_winapi::PassiveFileApi;

    /// Test layer: uppercases everything read through it.
    struct Shout;

    struct ShoutApi {
        inner: Arc<dyn FileApi>,
    }

    impl ApiLayer for Shout {
        fn name(&self) -> &str {
            "shout"
        }

        fn wrap(&self, inner: Arc<dyn FileApi>) -> Arc<dyn FileApi> {
            Arc::new(ShoutApi { inner })
        }
    }

    impl FileApi for ShoutApi {
        fn create_file(&self, p: &str, a: Access, d: Disposition) -> ApiResult<Handle> {
            self.inner.create_file(p, a, d)
        }
        fn read_file(&self, h: Handle, buf: &mut [u8]) -> ApiResult<usize> {
            let n = self.inner.read_file(h, buf)?;
            buf[..n].make_ascii_uppercase();
            Ok(n)
        }
        fn write_file(&self, h: Handle, d: &[u8]) -> ApiResult<usize> {
            self.inner.write_file(h, d)
        }
        fn close_handle(&self, h: Handle) -> ApiResult<()> {
            self.inner.close_handle(h)
        }
        fn get_file_size(&self, h: Handle) -> ApiResult<u64> {
            self.inner.get_file_size(h)
        }
        fn set_file_pointer(&self, h: Handle, o: i64, m: SeekMethod) -> ApiResult<u64> {
            self.inner.set_file_pointer(h, o, m)
        }
        fn read_file_scatter(&self, h: Handle, b: &mut [&mut [u8]]) -> ApiResult<usize> {
            self.inner.read_file_scatter(h, b)
        }
        fn write_file_gather(&self, h: Handle, b: &[&[u8]]) -> ApiResult<usize> {
            self.inner.write_file_gather(h, b)
        }
        fn flush_file_buffers(&self, h: Handle) -> ApiResult<()> {
            self.inner.flush_file_buffers(h)
        }
        fn lock_file(&self, h: Handle, o: u64, l: u64, e: bool) -> ApiResult<()> {
            self.inner.lock_file(h, o, l, e)
        }
        fn unlock_file(&self, h: Handle, o: u64, l: u64) -> ApiResult<()> {
            self.inner.unlock_file(h, o, l)
        }
        fn delete_file(&self, p: &str) -> ApiResult<()> {
            self.inner.delete_file(p)
        }
        fn copy_file(&self, f: &str, t: &str) -> ApiResult<()> {
            self.inner.copy_file(f, t)
        }
        fn move_file(&self, f: &str, t: &str) -> ApiResult<()> {
            self.inner.move_file(f, t)
        }
        fn get_file_attributes(&self, p: &str) -> ApiResult<FileAttributes> {
            self.inner.get_file_attributes(p)
        }
        fn find_files(&self, d: &str) -> ApiResult<Vec<DirEntry>> {
            self.inner.find_files(d)
        }
        fn create_directory(&self, p: &str) -> ApiResult<()> {
            self.inner.create_directory(p)
        }
        fn get_file_information(&self, h: Handle) -> ApiResult<FileInformation> {
            self.inner.get_file_information(h)
        }
        fn set_end_of_file(&self, h: Handle) -> ApiResult<()> {
            self.inner.set_end_of_file(h)
        }
    }

    fn connector() -> MediatingConnector {
        let base = Arc::new(PassiveFileApi::new(Arc::new(Vfs::new()), CostModel::free()));
        MediatingConnector::new(base)
    }

    fn seed(api: &dyn FileApi, path: &str, data: &[u8]) {
        let h = api
            .create_file(path, Access::read_write(), Disposition::CreateAlways)
            .expect("create");
        api.write_file(h, data).expect("write");
        api.close_handle(h).expect("close");
    }

    fn read_all(api: &dyn FileApi, path: &str) -> Vec<u8> {
        let h = api
            .create_file(path, Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let mut out = Vec::new();
        let mut buf = [0u8; 8];
        loop {
            let n = api.read_file(h, &mut buf).expect("read");
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        api.close_handle(h).expect("close");
        out
    }

    #[test]
    fn handles_observe_runtime_installs() {
        let conn = connector();
        let api = conn.api();
        seed(&api, "/f", b"quiet");
        assert_eq!(read_all(&api, "/f"), b"quiet");
        conn.install(Arc::new(Shout)).expect("install");
        // Same ApiHandle, new behaviour — the IAT was patched underneath.
        assert_eq!(read_all(&api, "/f"), b"QUIET");
        conn.uninstall("shout").expect("uninstall");
        assert_eq!(read_all(&api, "/f"), b"quiet");
    }

    #[test]
    fn duplicate_install_rejected() {
        let conn = connector();
        conn.install(Arc::new(Shout)).expect("first");
        assert_eq!(
            conn.install(Arc::new(Shout)).expect_err("dup"),
            InterposeError::DuplicateLayer("shout".into())
        );
    }

    #[test]
    fn unknown_uninstall_rejected() {
        let conn = connector();
        assert_eq!(
            conn.uninstall("ghost").expect_err("unknown"),
            InterposeError::UnknownLayer("ghost".into())
        );
    }

    #[test]
    fn secure_layer_cannot_be_removed() {
        let conn = connector();
        conn.install_secure(Arc::new(Shout))
            .expect("secure install");
        assert_eq!(
            conn.uninstall("shout").expect_err("secured"),
            InterposeError::SecuredLayer("shout".into())
        );
        let api = conn.api();
        seed(&api, "/f", b"abc");
        assert_eq!(read_all(&api, "/f"), b"ABC", "diversion stays in force");
    }

    #[test]
    fn installed_lists_layers_in_order() {
        let conn = connector();
        conn.install(Arc::new(Shout)).expect("install");
        assert_eq!(conn.installed(), vec!["shout".to_owned()]);
    }

    #[test]
    fn cloned_handles_share_the_chain() {
        let conn = connector();
        let a = conn.api();
        let b = a.clone();
        seed(&a, "/f", b"x");
        conn.install(Arc::new(Shout)).expect("install");
        // Once `install` has returned, every handle — cloned before or
        // taken after — dispatches through the layer.
        for api in [&a, &b, &a.clone(), &conn.api()] {
            assert_eq!(read_all(api, "/f"), b"X");
        }
    }

    #[test]
    fn calls_race_layer_changes_without_ever_failing() {
        let conn = connector();
        let api = conn.api();
        seed(&api, "/f", b"quiet");
        let (changing, started) = (AtomicBool::new(true), Barrier::new(2));
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut reads = 0u32;
                started.wait();
                while changing.load(Ordering::Acquire) || reads == 0 {
                    // A call in flight when the layers change finishes
                    // on the chain it started on, so each read is wholly
                    // one or the other.
                    let got = read_all(&api, "/f");
                    assert!(got == b"quiet" || got == b"QUIET", "read {got:?}");
                    reads += 1;
                }
            });
            started.wait();
            for _ in 0..100 {
                conn.install(Arc::new(Shout)).expect("install");
                conn.uninstall("shout").expect("uninstall");
            }
            changing.store(false, Ordering::Release);
            reader.join().expect("reader");
        });
        assert_eq!(read_all(&api, "/f"), b"quiet");
    }

    #[test]
    fn a_handle_outlives_its_connector() {
        let conn = connector();
        let api = conn.api();
        seed(&api, "/f", b"kept");
        conn.install(Arc::new(Shout)).expect("install");
        drop(conn);
        assert_eq!(read_all(&api.clone(), "/f"), b"KEPT");
    }
}
