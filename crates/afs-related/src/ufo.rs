//! The Ufo baseline: hard-coded seamless remote file access.
//!
//! Ufo (Alexandrov et al., ACM TOCS 1998) intercepts system calls to give
//! a "personal global file system": paths under a mapped prefix resolve
//! to remote files, fetched whole on open and written back on close. The
//! behaviour is fixed by the interposer — every mapped file gets the same
//! treatment, which is precisely the limitation active files remove.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use afs_interpose::ApiLayer;
use afs_net::{Endpoint, Network};
use afs_remote::FileClient;
use afs_winapi::{
    Access, ApiResult, DelegateFileApi, Disposition, FileApi, Handle, Layered, Win32Error,
};

/// The installable Ufo layer: maps `<prefix>/x` to `<remote_root>/x` on a
/// file server.
pub struct UfoLayer {
    prefix: String,
    remote_root: String,
    service: Endpoint,
}

impl UfoLayer {
    /// Creates the layer. `prefix` must start and end without a trailing
    /// slash (e.g. `/remote`); `service` is the file-server name.
    pub fn new(net: Network, service: &str, prefix: &str, remote_root: &str) -> Self {
        UfoLayer {
            prefix: prefix.trim_end_matches('/').to_owned(),
            remote_root: remote_root.trim_end_matches('/').to_owned(),
            service: net.endpoint([service]),
        }
    }
}

impl ApiLayer for UfoLayer {
    fn name(&self) -> &str {
        "ufo"
    }

    fn wrap(&self, inner: Arc<dyn FileApi>) -> Arc<dyn FileApi> {
        Arc::new(Layered(UfoApi {
            inner,
            prefix: self.prefix.clone(),
            remote_root: self.remote_root.clone(),
            client: FileClient::new(self.service.clone()),
            opens: Mutex::new(HashMap::new()),
        }))
    }
}

struct OpenState {
    remote: String,
    dirty: bool,
    local: String,
}

struct UfoApi {
    inner: Arc<dyn FileApi>,
    prefix: String,
    remote_root: String,
    client: FileClient,
    opens: Mutex<HashMap<Handle, OpenState>>,
}

impl UfoApi {
    fn map(&self, path: &str) -> Option<String> {
        let rest = path.strip_prefix(&self.prefix)?;
        if !rest.starts_with('/') {
            return None;
        }
        Some(format!("{}{}", self.remote_root, rest))
    }
}

impl DelegateFileApi for UfoApi {
    fn delegate(&self) -> &dyn FileApi {
        &*self.inner
    }

    fn create_file(
        &self,
        path: &str,
        access: Access,
        disposition: Disposition,
    ) -> ApiResult<Handle> {
        let Some(remote) = self.map(path) else {
            return self.delegate().create_file(path, access, disposition);
        };
        // Fetch-on-open into a hidden local shadow file (the "local copy"
        // of Ufo), uniform for every mapped path.
        let data = match disposition {
            Disposition::OpenExisting | Disposition::OpenAlways => self
                .client
                .get_all(&remote)
                .map_err(|_| Win32Error::FileNotFound)?,
            Disposition::CreateNew | Disposition::CreateAlways | Disposition::TruncateExisting => {
                Vec::new()
            }
        };
        let local = format!("/.ufo{}", path.replace('/', "_"));
        let h =
            self.delegate()
                .create_file(&local, Access::read_write(), Disposition::CreateAlways)?;
        if !data.is_empty() {
            self.delegate().write_file(h, &data)?;
            self.delegate()
                .set_file_pointer(h, 0, afs_winapi::SeekMethod::Begin)?;
        }
        self.opens.lock().insert(
            h,
            OpenState {
                remote,
                dirty: false,
                local,
            },
        );
        Ok(h)
    }

    fn write_file(&self, handle: Handle, data: &[u8]) -> ApiResult<usize> {
        let n = self.delegate().write_file(handle, data)?;
        if let Some(state) = self.opens.lock().get_mut(&handle) {
            state.dirty = true;
        }
        Ok(n)
    }

    fn close_handle(&self, handle: Handle) -> ApiResult<()> {
        let state = self.opens.lock().remove(&handle);
        if let Some(state) = state {
            if state.dirty {
                // Write-back-on-close: read the shadow and replace the
                // remote file.
                self.delegate()
                    .set_file_pointer(handle, 0, afs_winapi::SeekMethod::Begin)?;
                let size = self.delegate().get_file_size(handle)? as usize;
                let mut data = vec![0u8; size];
                let mut total = 0;
                while total < size {
                    let n = self.delegate().read_file(handle, &mut data[total..])?;
                    if n == 0 {
                        break;
                    }
                    total += n;
                }
                self.client
                    .replace(&state.remote, &data)
                    .map_err(|_| Win32Error::NetworkError)?;
            }
            self.delegate().close_handle(handle)?;
            // The shadow is transient.
            let _ = self.delegate().delete_file(&state.local);
            return Ok(());
        }
        self.delegate().close_handle(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_net::Service;
    use afs_remote::FileServer;
    use afs_sim::CostModel;
    use afs_vfs::Vfs;
    use afs_winapi::{PassiveFileApi, SeekMethod};

    fn setup() -> (afs_interpose::ApiHandle, Arc<FileServer>, Network) {
        let net = Network::new(CostModel::free());
        let server = FileServer::new();
        server.seed("/home/user/doc.txt", b"remote document");
        net.register("nfs", Arc::clone(&server) as Arc<dyn Service>);
        let base = Arc::new(PassiveFileApi::new(Arc::new(Vfs::new()), CostModel::free()));
        let connector = afs_interpose::MediatingConnector::new(base);
        connector
            .install(Arc::new(UfoLayer::new(
                net.clone(),
                "nfs",
                "/remote",
                "/home/user",
            )))
            .expect("install ufo");
        (connector.api(), server, net)
    }

    #[test]
    fn mapped_paths_read_remote_content() {
        let (api, _server, _net) = setup();
        let h = api
            .create_file(
                "/remote/doc.txt",
                Access::read_only(),
                Disposition::OpenExisting,
            )
            .expect("open");
        let mut buf = [0u8; 32];
        let n = api.read_file(h, &mut buf).expect("read");
        assert_eq!(&buf[..n], b"remote document");
        api.close_handle(h).expect("close");
    }

    #[test]
    fn writes_flow_back_on_close() {
        let (api, server, _net) = setup();
        let h = api
            .create_file(
                "/remote/doc.txt",
                Access::read_write(),
                Disposition::OpenExisting,
            )
            .expect("open");
        api.set_file_pointer(h, 0, SeekMethod::End).expect("seek");
        api.write_file(h, b" + edits").expect("write");
        api.close_handle(h).expect("close writes back");
        assert_eq!(
            server
                .vfs()
                .read_stream_to_end(&"/home/user/doc.txt".parse().expect("p"))
                .expect("read"),
            b"remote document + edits"
        );
    }

    #[test]
    fn unmapped_paths_pass_through() {
        let (api, _server, _net) = setup();
        let h = api
            .create_file("/local.txt", Access::read_write(), Disposition::CreateNew)
            .expect("create local");
        api.write_file(h, b"local").expect("write");
        api.close_handle(h).expect("close");
    }

    #[test]
    fn missing_remote_file_fails_the_open() {
        let (api, _server, _net) = setup();
        assert_eq!(
            api.create_file(
                "/remote/ghost",
                Access::read_only(),
                Disposition::OpenExisting
            ),
            Err(Win32Error::FileNotFound)
        );
    }
}
