//! The benchmark sentinel behind Figure 6.
//!
//! §6 measures "an application that reads and writes fixed-size blocks
//! from an active file" where the sentinel either contacts a remote
//! service (path 1), a local on-disk cache (path 2), or an in-memory
//! cache (path 3). [`MirrorSentinel`] is that sentinel:
//!
//! * with configuration `service`/`remote` set, reads issue a remote GET
//!   for exactly the requested range and writes stream an asynchronous
//!   PUT ("the buffer is sent directly to the sentinel, which then sends
//!   an update message to the remote service");
//! * without a remote, it reads/writes the cache selected by the spec's
//!   [`Backing`](afs_core::Backing) — disk or memory.

use afs_core::{SentinelCtx, SentinelError, SentinelLogic, SentinelRegistry, SentinelResult};
use afs_remote::FileClient;

/// `DeviceIoControl` code: set readahead from the first payload byte
/// (non-zero = on); the reply is the *previous* setting as one byte.
pub const CTL_SET_READAHEAD: u32 = 1;

/// `DeviceIoControl` code: query readahead; the reply is one byte,
/// `1` when on.
pub const CTL_GET_READAHEAD: u32 = 2;

/// The Figure 6 workload sentinel. See the module docs.
///
/// With `readahead=true` the sentinel implements §4.2's eager
/// optimisation ("the sentinel process might choose to eagerly inject
/// data … anticipating read requests from the user"): each remote fetch
/// pulls twice the requested range and the second half is served from
/// memory if the next read is sequential — halving round trips for
/// streaming readers.
pub struct MirrorSentinel {
    /// The remote file, when configured: a client for its service (built
    /// once, at open) and its path there.
    remote: Option<(FileClient, String)>,
    readahead: bool,
    prefetched: Option<(u64, Vec<u8>)>,
}

impl MirrorSentinel {
    /// Creates a cache-backed mirror.
    pub fn new() -> Self {
        MirrorSentinel {
            remote: None,
            readahead: false,
            prefetched: None,
        }
    }

    fn serve_prefetch(&self, offset: u64, buf: &mut [u8]) -> Option<usize> {
        let (start, data) = self.prefetched.as_ref()?;
        let start = *start;
        if offset < start || offset >= start + data.len() as u64 {
            return None;
        }
        let begin = (offset - start) as usize;
        let n = buf.len().min(data.len() - begin);
        if n < buf.len() && begin + n < data.len() {
            return None; // partial hit; go remote for a clean answer
        }
        buf[..n].copy_from_slice(&data[begin..begin + n]);
        Some(n)
    }
}

impl Default for MirrorSentinel {
    fn default() -> Self {
        MirrorSentinel::new()
    }
}

impl SentinelLogic for MirrorSentinel {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        self.remote = match (ctx.config_str("service"), ctx.config_str("remote")) {
            (Some(s), Some(r)) => Some((ctx.file_client(s), r.to_owned())),
            _ => None,
        };
        self.readahead = ctx.config_bool("readahead");
        Ok(())
    }

    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        let Some((client, remote)) = &self.remote else {
            return ctx.cache().read_at(offset, buf);
        };
        if self.readahead {
            if let Some(n) = self.serve_prefetch(offset, buf) {
                return Ok(n);
            }
            let want = buf.len() * 2;
            let data = client.get(remote, offset, want)?;
            let n = buf.len().min(data.len());
            buf[..n].copy_from_slice(&data[..n]);
            if data.len() > n {
                self.prefetched = Some((offset + n as u64, data[n..].to_vec()));
            } else {
                self.prefetched = None;
            }
            return Ok(n);
        }
        // A service may answer with more than was asked for; only what
        // fits is the caller's.
        let data = client.get(remote, offset, buf.len())?;
        let n = buf.len().min(data.len());
        buf[..n].copy_from_slice(&data[..n]);
        Ok(n)
    }

    fn write(&mut self, ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize> {
        match &self.remote {
            Some((client, remote)) => {
                // Any write invalidates the readahead window — cheap and
                // always safe.
                self.prefetched = None;
                client.put_async(remote, offset, data)?;
                Ok(data.len())
            }
            None => ctx.cache().write_at(offset, data),
        }
    }

    fn len(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<u64> {
        match &self.remote {
            Some((client, remote)) => Ok(client.stat(remote)?.len),
            None => ctx.cache().len(),
        }
    }

    fn control(
        &mut self,
        _ctx: &mut SentinelCtx,
        code: u32,
        payload: &[u8],
    ) -> SentinelResult<Vec<u8>> {
        match code {
            CTL_SET_READAHEAD => {
                let previous = self.readahead;
                self.readahead = payload.first().copied().unwrap_or(0) != 0;
                if !self.readahead {
                    self.prefetched = None;
                }
                Ok(vec![u8::from(previous)])
            }
            CTL_GET_READAHEAD => Ok(vec![u8::from(self.readahead)]),
            _ => Err(SentinelError::Unsupported),
        }
    }
}

/// Registers `mirror`.
pub fn register(registry: &SentinelRegistry) {
    registry.register("mirror", |_| Box::new(MirrorSentinel::new()));
}

#[cfg(test)]
mod tests {
    #[allow(unused_imports)]
    use super::*;
    use crate::{read_active, test_world, write_active};
    use afs_core::{Backing, SentinelSpec, Strategy};
    use afs_net::Service;
    use afs_remote::FileServer;
    use std::sync::Arc;

    #[test]
    fn remote_mode_reads_and_writes_through() {
        let world = test_world();
        let server = FileServer::new();
        server.seed("/blob", b"0123456789abcdef");
        world
            .net()
            .register("files", Arc::clone(&server) as Arc<dyn Service>);
        world
            .install_active_file(
                "/m.af",
                &SentinelSpec::new("mirror", Strategy::ProcessControl)
                    .with("service", "files")
                    .with("remote", "/blob"),
            )
            .expect("install");
        assert_eq!(read_active(&world, "/m.af"), b"0123456789abcdef");
        write_active(&world, "/m.af", b"XY");
        let client = afs_remote::FileClient::new(world.net().clone(), "files");
        assert_eq!(client.get_all("/blob").expect("get"), b"XY23456789abcdef");
    }

    /// A file service that answers every GET with as much of the file as
    /// it has, whatever length was asked for.
    struct OverDelivering(Arc<FileServer>);

    impl Service for OverDelivering {
        fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
            let mut request = request.to_vec();
            // GET is opcode 1 and ends with the requested length (u32).
            if let [1, .., a, b, c, d] = request.as_mut_slice() {
                [*a, *b, *c, *d] = u32::MAX.to_le_bytes();
            }
            self.0.handle(&request)
        }
    }

    #[test]
    fn a_service_answering_with_more_than_asked_is_clamped() {
        use afs_winapi::{Access, Disposition, FileApi};
        let world = test_world();
        let server = FileServer::new();
        server.seed("/blob", b"0123456789abcdef");
        world.net().register(
            "files",
            Arc::new(OverDelivering(server)) as Arc<dyn Service>,
        );
        world
            .install_active_file(
                "/m.af",
                &SentinelSpec::new("mirror", Strategy::ProcessControl)
                    .with("service", "files")
                    .with("remote", "/blob"),
            )
            .expect("install");
        let api = world.api();
        let h = api
            .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 4];
        assert_eq!(api.read_file(h, &mut buf).expect("read"), 4);
        assert_eq!(&buf, b"0123");
        // The sentinel is still there to serve the next operation.
        assert_eq!(api.read_file(h, &mut buf).expect("next read"), 4);
        assert_eq!(&buf, b"4567");
        api.close_handle(h).expect("close");
    }

    #[test]
    fn remote_mode_reports_remote_size() {
        use afs_winapi::{Access, Disposition, FileApi};
        let world = test_world();
        let server = FileServer::new();
        server.seed("/blob", &[0u8; 321]);
        world
            .net()
            .register("files", Arc::clone(&server) as Arc<dyn Service>);
        world
            .install_active_file(
                "/m.af",
                &SentinelSpec::new("mirror", Strategy::DllOnly)
                    .with("service", "files")
                    .with("remote", "/blob"),
            )
            .expect("install");
        let api = world.api();
        let h = api
            .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        assert_eq!(api.get_file_size(h).expect("size"), 321);
        api.close_handle(h).expect("close");
    }

    #[test]
    fn cache_mode_uses_backing() {
        let world = test_world();
        world
            .install_active_file(
                "/c.af",
                &SentinelSpec::new("mirror", Strategy::DllThread).backing(Backing::Disk),
            )
            .expect("install");
        write_active(&world, "/c.af", b"cached bytes");
        assert_eq!(read_active(&world, "/c.af"), b"cached bytes");
    }

    #[test]
    fn remote_reads_charge_round_trips() {
        use afs_sim::{clock, HardwareProfile};
        use afs_winapi::{Access, Disposition, FileApi};
        let world = afs_core::AfsWorld::builder()
            .profile(HardwareProfile::pentium_ii_300())
            .build();
        crate::register_all(world.sentinels());
        let server = FileServer::new();
        server.seed("/blob", &[0u8; 4096]);
        world
            .net()
            .register("files", Arc::clone(&server) as Arc<dyn Service>);
        world
            .install_active_file(
                "/m.af",
                &SentinelSpec::new("mirror", Strategy::DllOnly)
                    .with("service", "files")
                    .with("remote", "/blob"),
            )
            .expect("install");
        let api = world.api();
        let _guard = clock::install(0);
        let h = api
            .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let before = clock::now();
        let mut buf = [0u8; 2048];
        api.read_file(h, &mut buf).expect("read");
        let elapsed = clock::now() - before;
        // At minimum one network round trip plus the response bytes.
        let floor = world.model().profile().net_round_trip_ns
            + 2048 * world.model().profile().net_ns_per_byte;
        assert!(
            elapsed >= floor,
            "read {elapsed} ns must include the network, floor {floor}"
        );
        api.close_handle(h).expect("close");
    }
}

#[cfg(test)]
mod readahead_tests {
    use crate::{read_active, test_world};
    use afs_core::{SentinelSpec, Strategy};
    use afs_net::Service;
    use afs_remote::FileServer;
    use std::sync::Arc;

    fn world_with_blob(readahead: &str) -> (afs_core::AfsWorld, afs_net::Network) {
        let world = test_world();
        let server = FileServer::new();
        server.seed("/blob", &(0..=255u8).collect::<Vec<u8>>().repeat(8));
        world
            .net()
            .register("files", Arc::clone(&server) as Arc<dyn Service>);
        world
            .install_active_file(
                "/m.af",
                &SentinelSpec::new("mirror", Strategy::DllOnly)
                    .with("service", "files")
                    .with("remote", "/blob")
                    .with("readahead", readahead),
            )
            .expect("install");
        let net = world.net().clone();
        (world, net)
    }

    #[test]
    fn readahead_preserves_content_exactly() {
        let (plain_world, _) = world_with_blob("false");
        let (eager_world, _) = world_with_blob("true");
        assert_eq!(
            read_active(&plain_world, "/m.af"),
            read_active(&eager_world, "/m.af"),
            "eager injection must be invisible to the application"
        );
    }

    #[test]
    fn readahead_halves_round_trips_for_sequential_reads() {
        let (plain_world, plain_net) = world_with_blob("false");
        let _ = read_active(&plain_world, "/m.af");
        let plain_rpcs = plain_net.stats().rpcs;
        // `on` is the one boolean grammar's spelling; `config_bool` used
        // to read it as off.
        for spelling in ["true", "on"] {
            let (eager_world, eager_net) = world_with_blob(spelling);
            let _ = read_active(&eager_world, "/m.af");
            let eager_rpcs = eager_net.stats().rpcs;
            assert!(
                eager_rpcs * 1000 <= plain_rpcs * 700,
                "readahead={spelling} ({eager_rpcs}) should need far fewer round trips \
                 than lazy ({plain_rpcs})"
            );
        }
    }

    #[test]
    fn control_toggles_readahead_at_runtime() {
        use afs_winapi::{Access, Disposition, FileApi, Win32Error};
        let (world, net) = world_with_blob("false");
        let api = world.api();
        let h = api
            .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        // Query, then flip on via DeviceIoControl, then confirm the
        // round-trip saving shows up in live traffic.
        assert_eq!(
            api.device_io_control(h, super::CTL_GET_READAHEAD, &[])
                .expect("get"),
            vec![0]
        );
        assert_eq!(
            api.device_io_control(h, super::CTL_SET_READAHEAD, &[1])
                .expect("set"),
            vec![0],
            "reply is the previous setting"
        );
        assert_eq!(
            api.device_io_control(h, super::CTL_GET_READAHEAD, &[])
                .expect("get"),
            vec![1]
        );
        let before = net.stats().rpcs;
        let mut buf = [0u8; 64];
        api.read_file(h, &mut buf).expect("read primes prefetch");
        api.read_file(h, &mut buf)
            .expect("sequential read hits prefetch");
        assert_eq!(net.stats().rpcs - before, 1, "two reads, one fetch");
        assert_eq!(
            api.device_io_control(h, 999, &[]),
            Err(Win32Error::NotSupported),
            "unknown codes are refused"
        );
        api.close_handle(h).expect("close");
    }

    #[test]
    fn writes_invalidate_the_readahead_window() {
        use afs_winapi::{Access, Disposition, FileApi, SeekMethod};
        let (world, _) = world_with_blob("true");
        let api = world.api();
        let h = api
            .create_file("/m.af", Access::read_write(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 64];
        api.read_file(h, &mut buf).expect("read primes prefetch");
        // Overwrite the region the prefetch covers.
        api.set_file_pointer(h, 64, SeekMethod::Begin)
            .expect("seek");
        api.write_file(h, &[0xEE; 64]).expect("write");
        api.set_file_pointer(h, 64, SeekMethod::Begin)
            .expect("seek back");
        api.read_file(h, &mut buf).expect("read");
        assert_eq!(buf, [0xEE; 64], "stale prefetch must not be served");
        api.close_handle(h).expect("close");
    }
}
