//! The FTP/HTTP-style remote file server.
//!
//! "The sentinel accesses the remote file using a standard protocol (e.g.,
//! FTP or HTTP), creates a local copy, and makes the copy available to the
//! client application" (§3, Aggregation). The server stores its files in
//! its own [`Vfs`] instance and keeps a per-file **version counter** so
//! consistency-tracking sentinels can detect remote updates — the ability
//! the paper's intermediary approach lacks.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use afs_net::{NetError, Network, Service, WireWriter};
use afs_telemetry::backend_span;
use afs_vfs::{VPath, Vfs};

use crate::{check_status, err_response, ok_response};

const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const OP_APPEND: u8 = 3;
const OP_STAT: u8 = 4;
const OP_LIST: u8 = 5;
const OP_DELETE: u8 = 6;
const OP_REPLACE: u8 = 7;
const OP_PUT_ACK: u8 = 8;
const OP_REPL: u8 = 9;

/// Largest single GET transfer the server satisfies (1 MiB).
pub const MAX_TRANSFER: usize = 1 << 20;

/// Most replication casts held back per path waiting for a sequence
/// gap to fill. Beyond this the newest cast is dropped — safe, because
/// the copy simply stays behind and reads detect that via the version.
const MAX_PENDING_REPL: usize = 256;

/// Held-back replication casts for one path: sequence → `(offset,
/// bytes)`, drained in order as the gaps fill in.
type PendingCasts = BTreeMap<u64, (u64, Vec<u8>)>;

/// Remote file metadata returned by [`FileClient::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteStat {
    /// File length in bytes.
    pub len: u64,
    /// Monotonic version, bumped on every mutation.
    pub version: u64,
}

/// A remote file store speaking a GET/PUT/STAT/LIST protocol.
pub struct FileServer {
    vfs: Arc<Vfs>,
    versions: Mutex<HashMap<String, u64>>,
    /// Replication casts that arrived ahead of a sequence gap, held
    /// back until the missing sequences fill in ([`MAX_PENDING_REPL`]
    /// per path).
    pending_repl: Mutex<HashMap<String, PendingCasts>>,
}

impl FileServer {
    /// Creates an empty server.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Direct (out-of-band) access to the server's file system, used by
    /// tests and examples to seed content or mutate it "behind the
    /// sentinel's back".
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    /// Seeds a file, creating parent directories. Intended for experiment
    /// setup.
    ///
    /// # Panics
    ///
    /// Panics on invalid paths — setup code should fail loudly.
    pub fn seed(&self, path: &str, data: &[u8]) {
        let vpath = VPath::parse(path).expect("valid seed path");
        if let Some(parent) = vpath.parent() {
            self.vfs.create_dir_all(&parent).expect("seed parents");
        }
        if !self.vfs.is_file(&vpath) {
            self.vfs.create_file(&vpath).expect("seed create");
        }
        self.vfs
            .write_stream_replace(&vpath, data)
            .expect("seed write");
        self.bump(path);
    }

    /// Current version of a path (0 if never written).
    pub fn version(&self, path: &str) -> u64 {
        *self.versions.lock().get(path).unwrap_or(&0)
    }

    fn bump(&self, path: &str) -> u64 {
        let mut versions = self.versions.lock();
        let v = versions.entry(path.to_owned()).or_insert(0);
        *v += 1;
        *v
    }

    /// Applies one replication cast. Bytes apply **only in sequence
    /// order**: a stale or re-delivered cast (`seq <= version`) is
    /// skipped entirely (old bytes never overwrite newer ones), and a
    /// cast that arrived ahead of a gap is held back until the missing
    /// sequences fill in. The version therefore never advances past the
    /// writes this copy actually holds — the invariant the cluster's
    /// read-your-writes floor check relies on: `version >= floor`
    /// implies every acknowledged write up to `floor` is present.
    fn apply_repl(&self, path: &str, offset: u64, seq: u64, data: Vec<u8>) -> Result<u64, String> {
        let vpath = Self::parse(path)?;
        let mut versions = self.versions.lock();
        let v = versions.entry(path.to_owned()).or_insert(0);
        if seq <= *v {
            return Ok(*v);
        }
        let mut pending = self.pending_repl.lock();
        let queue = pending.entry(path.to_owned()).or_default();
        if queue.len() < MAX_PENDING_REPL || queue.contains_key(&seq) {
            queue.insert(seq, (offset, data));
        }
        while let Some((off, bytes)) = queue.remove(&(*v + 1)) {
            self.ensure_file(&vpath)?;
            self.vfs
                .write_stream(&vpath, off, &bytes)
                .map_err(|e| e.to_string())?;
            *v += 1;
        }
        if queue.is_empty() {
            pending.remove(path);
        }
        Ok(*v)
    }

    fn parse(path: &str) -> Result<VPath, String> {
        VPath::parse(path).map_err(|e| e.to_string())
    }

    fn ensure_file(&self, vpath: &VPath) -> Result<(), String> {
        if self.vfs.is_file(vpath) {
            return Ok(());
        }
        if let Some(parent) = vpath.parent() {
            self.vfs
                .create_dir_all(&parent)
                .map_err(|e| e.to_string())?;
        }
        self.vfs.create_file(vpath).map_err(|e| e.to_string())
    }

    fn dispatch(&self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        let mut r = afs_net::WireReader::new(request);
        let op = r.u8()?;
        let reply = match op {
            OP_GET => {
                let path = r.str()?.to_owned();
                let offset = r.u64()?;
                // The requested length is untrusted: cap the transfer
                // unit so a bogus request cannot force a giant
                // allocation. Clients split larger reads.
                let len = (r.u32()? as usize).min(MAX_TRANSFER);
                match Self::parse(&path).and_then(|vp| {
                    let mut buf = vec![0u8; len];
                    let n = self
                        .vfs
                        .read_stream(&vp, offset, &mut buf)
                        .map_err(|e| e.to_string())?;
                    buf.truncate(n);
                    Ok(buf)
                }) {
                    Ok(data) => ok_response(|w| {
                        w.bytes(&data);
                    }),
                    Err(e) => err_response(&e),
                }
            }
            OP_PUT => {
                let path = r.str()?.to_owned();
                let offset = r.u64()?;
                let data = r.bytes()?.to_vec();
                match Self::parse(&path).and_then(|vp| {
                    self.ensure_file(&vp)?;
                    self.vfs
                        .write_stream(&vp, offset, &data)
                        .map_err(|e| e.to_string())
                }) {
                    Ok(n) => {
                        self.bump(&path);
                        ok_response(|w| {
                            w.u64(n as u64);
                        })
                    }
                    Err(e) => err_response(&e),
                }
            }
            OP_PUT_ACK => {
                // A cluster primary write: same mutation as OP_PUT, but
                // the request carries the session's acknowledged floor
                // and the acknowledgement carries the new version — the
                // replication sequence number the writer fans out to the
                // replicas and remembers for read-your-writes. A copy
                // behind the floor refuses the ack: letting a laggard
                // allocate a sequence would collide with sequences
                // already acknowledged elsewhere (split-brain) and would
                // acknowledge a copy missing earlier acked writes.
                let path = r.str()?.to_owned();
                let offset = r.u64()?;
                let floor = r.u64()?;
                let data = r.bytes()?.to_vec();
                match Self::parse(&path).and_then(|vp| {
                    let mut versions = self.versions.lock();
                    let v = versions.entry(path.clone()).or_insert(0);
                    if *v < floor {
                        return Err(format!(
                            "copy at version {v} is behind session floor {floor}"
                        ));
                    }
                    self.ensure_file(&vp)?;
                    let n = self
                        .vfs
                        .write_stream(&vp, offset, &data)
                        .map_err(|e| e.to_string())?;
                    *v += 1;
                    Ok((n, *v))
                }) {
                    Ok((n, seq)) => ok_response(|w| {
                        w.u64(n as u64).u64(seq);
                    }),
                    Err(e) => err_response(&e),
                }
            }
            OP_REPL => {
                // Replication apply: the write plus the primary's
                // sequence number, applied strictly in sequence order
                // (stale casts skipped, gap casts held back) — see
                // [`FileServer::apply_repl`].
                let path = r.str()?.to_owned();
                let offset = r.u64()?;
                let seq = r.u64()?;
                let data = r.bytes()?.to_vec();
                match self.apply_repl(&path, offset, seq, data) {
                    Ok(version) => ok_response(|w| {
                        w.u64(version);
                    }),
                    Err(e) => err_response(&e),
                }
            }
            OP_APPEND => {
                let path = r.str()?.to_owned();
                let data = r.bytes()?.to_vec();
                match Self::parse(&path).and_then(|vp| {
                    self.ensure_file(&vp)?;
                    let len = self.vfs.stream_len(&vp).map_err(|e| e.to_string())?;
                    self.vfs
                        .write_stream(&vp, len, &data)
                        .map_err(|e| e.to_string())
                }) {
                    Ok(n) => {
                        self.bump(&path);
                        ok_response(|w| {
                            w.u64(n as u64);
                        })
                    }
                    Err(e) => err_response(&e),
                }
            }
            OP_REPLACE => {
                let path = r.str()?.to_owned();
                let data = r.bytes()?.to_vec();
                match Self::parse(&path).and_then(|vp| {
                    self.ensure_file(&vp)?;
                    self.vfs
                        .write_stream_replace(&vp, &data)
                        .map_err(|e| e.to_string())
                }) {
                    Ok(()) => {
                        self.bump(&path);
                        ok_response(|_| {})
                    }
                    Err(e) => err_response(&e),
                }
            }
            OP_STAT => {
                let path = r.str()?.to_owned();
                match Self::parse(&path)
                    .and_then(|vp| self.vfs.stream_len(&vp).map_err(|e| e.to_string()))
                {
                    Ok(len) => {
                        let version = self.version(&path);
                        ok_response(|w| {
                            w.u64(len).u64(version);
                        })
                    }
                    Err(e) => err_response(&e),
                }
            }
            OP_LIST => {
                let dir = r.str()?.to_owned();
                match Self::parse(&dir)
                    .and_then(|vp| self.vfs.list_dir(&vp).map_err(|e| e.to_string()))
                {
                    Ok(entries) => ok_response(|w| {
                        w.seq(entries.len());
                        for e in &entries {
                            w.str(&e.name)
                                .bool(e.kind == afs_vfs::NodeKind::Directory)
                                .u64(e.len);
                        }
                    }),
                    Err(e) => err_response(&e),
                }
            }
            OP_DELETE => {
                let path = r.str()?.to_owned();
                match Self::parse(&path)
                    .and_then(|vp| self.vfs.delete(&vp).map_err(|e| e.to_string()))
                {
                    Ok(()) => {
                        self.bump(&path);
                        ok_response(|_| {})
                    }
                    Err(e) => err_response(&e),
                }
            }
            t => err_response(&format!("unknown file-server op {t}")),
        };
        Ok(reply)
    }
}

impl Default for FileServer {
    fn default() -> Self {
        FileServer {
            vfs: Arc::new(Vfs::new()),
            versions: Mutex::new(HashMap::new()),
            pending_repl: Mutex::new(HashMap::new()),
        }
    }
}

impl Service for FileServer {
    fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
        self.dispatch(request)
    }
}

/// A [`FileClient`] that borrows its network and service name: the one
/// copy of the encoders a cluster session uses, which picks the service
/// per op and so has nothing to own. The calls are documented on the
/// [`FileClient`] methods that delegate here.
#[derive(Clone, Copy)]
pub(crate) struct Remote<'a> {
    pub(crate) net: &'a Network,
    pub(crate) service: &'a str,
}

impl Remote<'_> {
    pub(crate) fn get(self, path: &str, offset: u64, len: usize) -> afs_net::Result<Vec<u8>> {
        let _bk = backend_span("remote-get");
        let mut w = WireWriter::new();
        w.u8(OP_GET).str(path).u64(offset).u32(len as u32);
        let resp = self.net.rpc(self.service, &w.finish())?;
        let mut r = check_status(&resp)?;
        Ok(r.bytes()?.to_vec())
    }

    pub(crate) fn put_acked(
        self,
        path: &str,
        offset: u64,
        data: &[u8],
        floor: u64,
    ) -> afs_net::Result<(u64, u64)> {
        let _bk = backend_span("remote-put-acked");
        let mut w = WireWriter::new();
        w.u8(OP_PUT_ACK)
            .str(path)
            .u64(offset)
            .u64(floor)
            .bytes(data);
        let resp = self.net.rpc(self.service, &w.finish())?;
        let mut r = check_status(&resp)?;
        Ok((r.u64()?, r.u64()?))
    }

    pub(crate) fn replicate(
        self,
        path: &str,
        offset: u64,
        seq: u64,
        data: &[u8],
    ) -> afs_net::Result<()> {
        let _bk = backend_span("remote-replicate");
        let mut w = WireWriter::new();
        w.u8(OP_REPL).str(path).u64(offset).u64(seq).bytes(data);
        self.net.cast(self.service, &w.finish())
    }

    pub(crate) fn stat(self, path: &str) -> afs_net::Result<RemoteStat> {
        let _bk = backend_span("remote-stat");
        let mut w = WireWriter::new();
        w.u8(OP_STAT).str(path);
        let resp = self.net.rpc(self.service, &w.finish())?;
        let mut r = check_status(&resp)?;
        Ok(RemoteStat {
            len: r.u64()?,
            version: r.u64()?,
        })
    }
}

/// Typed client for [`FileServer`], used from sentinel code.
#[derive(Debug, Clone)]
pub struct FileClient {
    net: Network,
    service: String,
}

impl FileClient {
    /// Creates a client talking to `service` over `net`.
    pub fn new(net: Network, service: &str) -> Self {
        FileClient {
            net,
            service: service.to_owned(),
        }
    }

    /// The service name this client targets.
    pub fn service(&self) -> &str {
        &self.service
    }

    fn remote(&self) -> Remote<'_> {
        Remote {
            net: &self.net,
            service: &self.service,
        }
    }

    /// Reads up to `len` bytes at `offset` (FTP `REST`+`RETR` / HTTP range
    /// GET).
    ///
    /// # Errors
    ///
    /// Network faults, or [`NetError::Rejected`] if the file is missing.
    pub fn get(&self, path: &str, offset: u64, len: usize) -> afs_net::Result<Vec<u8>> {
        self.remote().get(path, offset, len)
    }

    /// Fetches a whole file by statting then reading, splitting the
    /// transfer into [`MAX_TRANSFER`]-sized chunks.
    ///
    /// # Errors
    ///
    /// As [`FileClient::get`].
    pub fn get_all(&self, path: &str) -> afs_net::Result<Vec<u8>> {
        let stat = self.stat(path)?;
        let total = stat.len as usize;
        let mut out = Vec::with_capacity(total.min(MAX_TRANSFER));
        while out.len() < total {
            let want = (total - out.len()).min(MAX_TRANSFER);
            let chunk = self.get(path, out.len() as u64, want)?;
            if chunk.is_empty() {
                break;
            }
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    /// Writes `data` at `offset`, creating the file if needed. Returns
    /// bytes written. Synchronous (waits for the server).
    ///
    /// # Errors
    ///
    /// Network faults or server rejection.
    pub fn put(&self, path: &str, offset: u64, data: &[u8]) -> afs_net::Result<u64> {
        let _bk = backend_span("remote-put");
        let mut w = WireWriter::new();
        w.u8(OP_PUT).str(path).u64(offset).bytes(data);
        let resp = self.net.rpc(&self.service, &w.finish())?;
        let mut r = check_status(&resp)?;
        Ok(r.u64()?)
    }

    /// Writes `data` at `offset` like [`FileClient::put`], but the
    /// acknowledgement also returns the file's new version — the
    /// replication sequence number a cluster writer fans out to replicas
    /// via [`FileClient::replicate`]. `floor` is the session's highest
    /// previously acknowledged sequence for the path: a server whose
    /// copy is behind it refuses the ack (it missed replicated writes
    /// and must not allocate a colliding sequence), so the returned
    /// sequence is always `> floor`. Returns `(bytes_written, seq)`.
    ///
    /// # Errors
    ///
    /// Network faults, or [`NetError::Rejected`] when this server's
    /// copy is behind `floor`.
    pub fn put_acked(
        &self,
        path: &str,
        offset: u64,
        data: &[u8],
        floor: u64,
    ) -> afs_net::Result<(u64, u64)> {
        self.remote().put_acked(path, offset, data, floor)
    }

    /// Fans a primary-acknowledged write out to a replica without
    /// waiting: the replica applies the bytes in sequence order (stale
    /// casts skipped, gap casts held until the missing sequences
    /// arrive) and its version tracks the highest contiguously applied
    /// sequence. Fire-and-forget, like [`FileClient::put_async`].
    ///
    /// # Errors
    ///
    /// Only local faults (unknown service, injected drops).
    pub fn replicate(&self, path: &str, offset: u64, seq: u64, data: &[u8]) -> afs_net::Result<()> {
        self.remote().replicate(path, offset, seq, data)
    }

    /// Streams `data` at `offset` without waiting for acknowledgement —
    /// the sentinel's write-behind path ("the sentinel … sends an update
    /// message to the remote service", §6).
    ///
    /// # Errors
    ///
    /// Only local faults (unknown service, injected drops).
    pub fn put_async(&self, path: &str, offset: u64, data: &[u8]) -> afs_net::Result<()> {
        let _bk = backend_span("remote-put-async");
        let mut w = WireWriter::new();
        w.u8(OP_PUT).str(path).u64(offset).bytes(data);
        self.net.cast(&self.service, &w.finish())
    }

    /// Appends `data`, returning bytes written.
    ///
    /// # Errors
    ///
    /// Network faults or server rejection.
    pub fn append(&self, path: &str, data: &[u8]) -> afs_net::Result<u64> {
        let _bk = backend_span("remote-append");
        let mut w = WireWriter::new();
        w.u8(OP_APPEND).str(path).bytes(data);
        let resp = self.net.rpc(&self.service, &w.finish())?;
        let mut r = check_status(&resp)?;
        Ok(r.u64()?)
    }

    /// Replaces a file's contents.
    ///
    /// # Errors
    ///
    /// Network faults or server rejection.
    pub fn replace(&self, path: &str, data: &[u8]) -> afs_net::Result<()> {
        let _bk = backend_span("remote-replace");
        let mut w = WireWriter::new();
        w.u8(OP_REPLACE).str(path).bytes(data);
        let resp = self.net.rpc(&self.service, &w.finish())?;
        check_status(&resp)?;
        Ok(())
    }

    /// Returns length and version.
    ///
    /// # Errors
    ///
    /// [`NetError::Rejected`] if the file is missing.
    pub fn stat(&self, path: &str) -> afs_net::Result<RemoteStat> {
        self.remote().stat(path)
    }

    /// Lists a directory: `(name, is_dir, len)` triples.
    ///
    /// # Errors
    ///
    /// Network faults or server rejection.
    pub fn list(&self, dir: &str) -> afs_net::Result<Vec<(String, bool, u64)>> {
        let _bk = backend_span("remote-list");
        let mut w = WireWriter::new();
        w.u8(OP_LIST).str(dir);
        let resp = self.net.rpc(&self.service, &w.finish())?;
        let mut r = check_status(&resp)?;
        let n = r.seq()?;
        let mut out = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let name = r.str()?.to_owned();
            let is_dir = r.bool()?;
            let len = r.u64()?;
            out.push((name, is_dir, len));
        }
        Ok(out)
    }

    /// Deletes a file.
    ///
    /// # Errors
    ///
    /// Network faults or server rejection.
    pub fn delete(&self, path: &str) -> afs_net::Result<()> {
        let _bk = backend_span("remote-delete");
        let mut w = WireWriter::new();
        w.u8(OP_DELETE).str(path);
        let resp = self.net.rpc(&self.service, &w.finish())?;
        check_status(&resp)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::CostModel;

    fn setup() -> (Arc<FileServer>, FileClient) {
        let net = Network::new(CostModel::free());
        let server = FileServer::new();
        net.register("files", Arc::clone(&server) as Arc<dyn Service>);
        (server, FileClient::new(net, "files"))
    }

    #[test]
    fn get_after_seed() {
        let (server, client) = setup();
        server.seed("/pub/readme.txt", b"remote content");
        assert_eq!(
            client.get_all("/pub/readme.txt").expect("get"),
            b"remote content"
        );
        assert_eq!(client.get("/pub/readme.txt", 7, 4).expect("range"), b"cont");
    }

    #[test]
    fn get_missing_is_rejected() {
        let (_server, client) = setup();
        assert!(matches!(
            client.get("/nope", 0, 4),
            Err(NetError::Rejected(_))
        ));
    }

    #[test]
    fn put_creates_and_bumps_version() {
        let (server, client) = setup();
        assert_eq!(server.version("/data/x"), 0);
        client.put("/data/x", 0, b"v1").expect("put");
        assert_eq!(server.version("/data/x"), 1);
        client.put("/data/x", 2, b"v2").expect("put2");
        assert_eq!(server.version("/data/x"), 2);
        assert_eq!(client.get_all("/data/x").expect("get"), b"v1v2");
    }

    #[test]
    fn append_and_stat() {
        let (_server, client) = setup();
        client.append("/log", b"a").expect("a");
        client.append("/log", b"bc").expect("bc");
        let stat = client.stat("/log").expect("stat");
        assert_eq!(stat.len, 3);
        assert_eq!(stat.version, 2);
    }

    #[test]
    fn replace_overwrites() {
        let (_server, client) = setup();
        client.put("/f", 0, b"0123456789").expect("put");
        client.replace("/f", b"xy").expect("replace");
        assert_eq!(client.get_all("/f").expect("get"), b"xy");
    }

    #[test]
    fn list_and_delete() {
        let (server, client) = setup();
        server.seed("/d/a", b"1");
        server.seed("/d/b", b"22");
        let listing = client.list("/d").expect("list");
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0], ("a".to_owned(), false, 1));
        assert_eq!(listing[1], ("b".to_owned(), false, 2));
        client.delete("/d/a").expect("delete");
        assert_eq!(client.list("/d").expect("list").len(), 1);
    }

    #[test]
    fn put_async_is_delivered() {
        let (server, client) = setup();
        client
            .put_async("/bg", 0, b"fire-and-forget")
            .expect("cast");
        // Cast delivers synchronously in simulation; check server state.
        assert_eq!(
            server
                .vfs()
                .read_stream_to_end(&VPath::parse("/bg").expect("p"))
                .expect("read"),
            b"fire-and-forget"
        );
    }

    #[test]
    fn put_acked_returns_the_replication_seq() {
        let (server, client) = setup();
        let (n, seq) = client.put_acked("/c/x", 0, b"v1", 0).expect("put-ack");
        assert_eq!((n, seq), (2, 1));
        let (_, seq) = client.put_acked("/c/x", 0, b"v2", 1).expect("put-ack");
        assert_eq!(seq, 2);
        assert_eq!(server.version("/c/x"), 2);
    }

    #[test]
    fn put_acked_refuses_a_copy_behind_the_floor() {
        let (server, client) = setup();
        client.put_acked("/c/f", 0, b"v1", 0).expect("put-ack");
        // A session acked seq 3 elsewhere; this copy only holds seq 1.
        // Acking here would allocate seq 2 — a sequence the session
        // already holds — so the server must refuse.
        let err = client
            .put_acked("/c/f", 0, b"v4", 3)
            .expect_err("behind floor");
        assert!(matches!(err, NetError::Rejected(_)), "{err:?}");
        assert_eq!(server.version("/c/f"), 1, "no sequence allocated");
        assert_eq!(client.get_all("/c/f").expect("get"), b"v1");
    }

    #[test]
    fn replicate_applies_in_sequence_order() {
        let (server, client) = setup();
        client.replicate("/c/y", 0, 1, b"fresh").expect("repl");
        assert_eq!(server.version("/c/y"), 1);
        assert_eq!(client.get_all("/c/y").expect("get"), b"fresh");
        // A stale or re-delivered cast is skipped entirely: neither
        // the version nor the bytes regress.
        client.replicate("/c/y", 0, 1, b"dup!!").expect("repl");
        assert_eq!(server.version("/c/y"), 1);
        assert_eq!(client.get_all("/c/y").expect("get"), b"fresh");
    }

    #[test]
    fn gap_casts_are_held_until_the_sequence_fills_in() {
        let (server, client) = setup();
        // Seq 2 arrives before seq 1: the version must not claim a
        // write whose bytes this copy does not hold yet.
        client.replicate("/c/z", 3, 2, b"bbb").expect("repl");
        assert_eq!(server.version("/c/z"), 0);
        client.replicate("/c/z", 0, 1, b"aaa").expect("repl");
        assert_eq!(server.version("/c/z"), 2);
        assert_eq!(client.get_all("/c/z").expect("get"), b"aaabbb");
    }

    #[test]
    fn a_missed_cast_keeps_the_version_behind() {
        let (server, client) = setup();
        client.replicate("/c/w", 0, 1, b"one").expect("repl");
        // Seq 2 was dropped in flight; seq 3 arrives. The version must
        // stay at 1 — advancing to 3 would make a read-your-writes
        // floor check accept a copy missing write 2's bytes.
        client.replicate("/c/w", 0, 3, b"three").expect("repl");
        assert_eq!(server.version("/c/w"), 1);
        assert_eq!(client.get_all("/c/w").expect("get"), b"one");
    }

    #[test]
    fn behind_the_back_updates_change_version() {
        let (server, client) = setup();
        server.seed("/shared", b"v1");
        let v1 = client.stat("/shared").expect("stat").version;
        server.seed("/shared", b"v2");
        let v2 = client.stat("/shared").expect("stat").version;
        assert!(
            v2 > v1,
            "sentinels can track changes in the original source"
        );
    }
}
