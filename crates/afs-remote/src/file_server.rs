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

use parking_lot::{Mutex, RwLock};

use afs_net::{NetError, Network, Service, WireWriter};
use afs_telemetry::backend_span;
use afs_vfs::{VPath, Vfs};

use crate::{check_status, err_response, ok_response, STATUS_OK};

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

/// Where a write from the wire may end at most (64 MiB). Its offset is
/// as untrusted as a GET's length: unchecked, one message zero-fills a
/// terabyte, or wraps `offset + len` and panics inside the `Vfs` with
/// its lock held.
const MAX_FILE_LEN: u64 = 1 << 26;

/// What precedes the payload in a GET reply: the status byte and the
/// payload's `u32` length.
const GET_HEADER: usize = 5;

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

/// What the server keeps for a wire path it has versioned.
struct Tracked {
    /// The path as the `Vfs` takes it, parsed when the entry was made.
    vpath: VPath,
    /// Monotonic version, bumped on every mutation.
    version: u64,
}

/// A remote file store speaking a GET/PUT/STAT/LIST protocol.
///
/// Lock order, wherever more than one is held: `files`, then
/// `pending_repl`, then the `Vfs`'s own lock.
pub struct FileServer {
    vfs: Arc<Vfs>,
    /// Every wire path a mutation has succeeded on. GET and STAT take the
    /// read side and find the path already parsed; mutations take the
    /// write side for their whole length, so a version and the bytes it
    /// counts move together.
    files: RwLock<HashMap<String, Tracked>>,
    /// Replication casts that arrived ahead of a sequence gap, held
    /// back until the missing sequences fill in ([`MAX_PENDING_REPL`]
    /// per path).
    pending_repl: Mutex<HashMap<String, PendingCasts>>,
}

/// An OK reply of `u64` fields, sized before it is written: one
/// allocation.
fn ok_u64s(fields: &[u64]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(1 + 8 * fields.len());
    w.u8(STATUS_OK);
    for &field in fields {
        w.u64(field);
    }
    w.finish()
}

/// Refuses a write from the wire that would end past [`MAX_FILE_LEN`].
fn check_extent(offset: u64, data: &[u8]) -> Result<(), String> {
    match offset.checked_add(data.len() as u64) {
        Some(end) if end <= MAX_FILE_LEN => Ok(()),
        _ => Err(format!(
            "write of {} bytes at offset {offset} ends past the {MAX_FILE_LEN}-byte file limit",
            data.len()
        )),
    }
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
        self.mutate(path, |file| {
            if let Some(parent) = file.vpath.parent() {
                self.vfs.create_dir_all(&parent).expect("seed parents");
            }
            if !self.vfs.is_file(&file.vpath) {
                self.vfs.create_file(&file.vpath).expect("seed create");
            }
            self.vfs
                .write_stream_replace(&file.vpath, data)
                .expect("seed write");
            file.version += 1;
            Ok(())
        })
        .expect("valid seed path");
    }

    /// Current version of a path (0 if never written).
    pub fn version(&self, path: &str) -> u64 {
        self.files.read().get(path).map_or(0, |file| file.version)
    }

    /// Runs a read of `path` on its parsed form and version, under the
    /// table's read side. A path the table does not hold is parsed here
    /// and not kept: the request is untrusted, and a table that reads
    /// could grow is memory anyone can spend.
    fn inspect<T>(
        &self,
        path: &str,
        read: impl FnOnce(&VPath, u64) -> Result<T, String>,
    ) -> Result<T, String> {
        match self.files.read().get(path) {
            Some(file) => read(&file.vpath, file.version),
            None => read(&Self::parse(path)?, 0),
        }
    }

    /// Runs a mutation of `path` on its table entry, under the table's
    /// write side. A path enters the table, parsed once, when a mutation
    /// of it first succeeds.
    fn mutate<T>(
        &self,
        path: &str,
        apply: impl FnOnce(&mut Tracked) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut files = self.files.write();
        if let Some(file) = files.get_mut(path) {
            return apply(file);
        }
        let mut file = Tracked {
            vpath: Self::parse(path)?,
            version: 0,
        };
        let done = apply(&mut file);
        if done.is_ok() {
            files.insert(path.to_owned(), file);
        }
        done
    }

    /// Applies one replication cast. Bytes apply **only in sequence
    /// order**: a stale or re-delivered cast (`seq <= version`) is
    /// skipped entirely (old bytes never overwrite newer ones), and a
    /// cast that arrived ahead of a gap is held back until the missing
    /// sequences fill in. The version therefore never advances past the
    /// writes this copy actually holds — the invariant the cluster's
    /// read-your-writes floor check relies on: `version >= floor`
    /// implies every acknowledged write up to `floor` is present.
    fn apply_repl(
        &self,
        path: &str,
        file: &mut Tracked,
        offset: u64,
        seq: u64,
        data: &[u8],
    ) -> Result<u64, String> {
        if seq <= file.version {
            return Ok(file.version);
        }
        let mut pending = self.pending_repl.lock();
        let queue = pending.entry(path.to_owned()).or_default();
        if queue.len() < MAX_PENDING_REPL || queue.contains_key(&seq) {
            queue.insert(seq, (offset, data.to_vec()));
        }
        while let Some((off, bytes)) = queue.remove(&(file.version + 1)) {
            self.write_at(&file.vpath, off, &bytes)?;
            file.version += 1;
        }
        if queue.is_empty() {
            pending.remove(path);
        }
        Ok(file.version)
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

    /// Writes `data` at `offset`, creating the file if needed.
    fn write_at(&self, vpath: &VPath, offset: u64, data: &[u8]) -> Result<usize, String> {
        self.ensure_file(vpath)?;
        self.vfs
            .write_stream(vpath, offset, data)
            .map_err(|e| e.to_string())
    }

    fn dispatch(&self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        let mut r = afs_net::WireReader::new(request);
        let reply = match r.u8()? {
            OP_GET => {
                let path = r.str()?;
                let offset = r.u64()?;
                // The requested length is untrusted: cap the transfer
                // unit so a bogus request cannot force a giant
                // allocation. Clients split larger reads.
                let len = (r.u32()? as usize).min(MAX_TRANSFER);
                self.inspect(path, |vp, _| {
                    // The reply is built in place: the stream's bytes
                    // land behind the header, which is filled in after.
                    let mut reply = vec![STATUS_OK; GET_HEADER + len];
                    let n = self
                        .vfs
                        .read_stream(vp, offset, &mut reply[GET_HEADER..])
                        .map_err(|e| e.to_string())?;
                    reply[1..GET_HEADER].copy_from_slice(&(n as u32).to_le_bytes());
                    reply.truncate(GET_HEADER + n);
                    Ok(reply)
                })
            }
            OP_PUT => {
                let path = r.str()?;
                let offset = r.u64()?;
                let data = r.bytes()?;
                check_extent(offset, data).and_then(|()| {
                    self.mutate(path, |file| {
                        let n = self.write_at(&file.vpath, offset, data)?;
                        file.version += 1;
                        Ok(ok_u64s(&[n as u64]))
                    })
                })
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
                let path = r.str()?;
                let offset = r.u64()?;
                let floor = r.u64()?;
                let data = r.bytes()?;
                check_extent(offset, data).and_then(|()| {
                    self.mutate(path, |file| {
                        let v = file.version;
                        if v < floor {
                            return Err(format!(
                                "copy at version {v} is behind session floor {floor}"
                            ));
                        }
                        let n = self.write_at(&file.vpath, offset, data)?;
                        file.version += 1;
                        Ok(ok_u64s(&[n as u64, file.version]))
                    })
                })
            }
            OP_REPL => {
                // Replication apply: the write plus the primary's
                // sequence number, applied strictly in sequence order
                // (stale casts skipped, gap casts held back) — see
                // [`FileServer::apply_repl`].
                let path = r.str()?;
                let offset = r.u64()?;
                let seq = r.u64()?;
                let data = r.bytes()?;
                check_extent(offset, data)
                    .and_then(|()| {
                        self.mutate(path, |file| self.apply_repl(path, file, offset, seq, data))
                    })
                    .map(|version| ok_u64s(&[version]))
            }
            OP_APPEND => {
                let path = r.str()?;
                let data = r.bytes()?;
                self.mutate(path, |file| {
                    self.ensure_file(&file.vpath)?;
                    let len = self
                        .vfs
                        .stream_len(&file.vpath)
                        .map_err(|e| e.to_string())?;
                    let n = self
                        .vfs
                        .write_stream(&file.vpath, len, data)
                        .map_err(|e| e.to_string())?;
                    file.version += 1;
                    Ok(ok_u64s(&[n as u64]))
                })
            }
            OP_REPLACE => {
                let path = r.str()?;
                let data = r.bytes()?;
                self.mutate(path, |file| {
                    self.ensure_file(&file.vpath)?;
                    self.vfs
                        .write_stream_replace(&file.vpath, data)
                        .map_err(|e| e.to_string())?;
                    file.version += 1;
                    Ok(ok_response(|_| {}))
                })
            }
            OP_STAT => {
                let path = r.str()?;
                self.inspect(path, |vp, version| {
                    let len = self.vfs.stream_len(vp).map_err(|e| e.to_string())?;
                    Ok(ok_u64s(&[len, version]))
                })
            }
            OP_LIST => Self::parse(r.str()?)
                .and_then(|vp| self.vfs.list_dir(&vp).map_err(|e| e.to_string()))
                .map(|entries| {
                    ok_response(|w| {
                        w.seq(entries.len());
                        for e in &entries {
                            w.str(&e.name)
                                .bool(e.kind == afs_vfs::NodeKind::Directory)
                                .u64(e.len);
                        }
                    })
                }),
            OP_DELETE => {
                let path = r.str()?;
                self.mutate(path, |file| {
                    self.vfs.delete(&file.vpath).map_err(|e| e.to_string())?;
                    file.version += 1;
                    Ok(ok_response(|_| {}))
                })
            }
            t => Err(format!("unknown file-server op {t}")),
        };
        Ok(reply.unwrap_or_else(|e| err_response(&e)))
    }
}

impl Default for FileServer {
    fn default() -> Self {
        FileServer {
            vfs: Arc::new(Vfs::new()),
            files: RwLock::new(HashMap::new()),
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
        let mut w = WireWriter::with_capacity(1 + (4 + path.len()) + 8 + 4);
        w.u8(OP_GET).str(path).u64(offset).u32(len as u32);
        let mut resp = self.net.rpc(self.service, &w.finish())?;
        let len = check_status(&resp)?.bytes()?.len();
        // The reply is this call's own: the payload stays where it
        // arrived, minus the header before it and anything after it.
        resp.drain(..GET_HEADER);
        resp.truncate(len);
        Ok(resp)
    }

    pub(crate) fn put_acked(
        self,
        path: &str,
        offset: u64,
        data: &[u8],
        floor: u64,
    ) -> afs_net::Result<(u64, u64)> {
        let _bk = backend_span("remote-put-acked");
        let mut w = WireWriter::with_capacity(1 + (4 + path.len()) + 8 + 8 + (4 + data.len()));
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
        let mut w = WireWriter::with_capacity(1 + (4 + path.len()) + 8 + 8 + (4 + data.len()));
        w.u8(OP_REPL).str(path).u64(offset).u64(seq).bytes(data);
        self.net.cast(self.service, &w.finish())
    }

    pub(crate) fn stat(self, path: &str) -> afs_net::Result<RemoteStat> {
        let _bk = backend_span("remote-stat");
        let mut w = WireWriter::with_capacity(1 + (4 + path.len()));
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

    /// `op`, `path` and the rest of a write request as the wire carries
    /// them: `extra` is the floor (PUT_ACK) or the sequence (REPL).
    fn write_request(op: u8, path: &str, offset: u64, extra: Option<u64>, data: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u8(op).str(path).u64(offset);
        if let Some(extra) = extra {
            w.u64(extra);
        }
        w.bytes(data);
        w.finish()
    }

    #[test]
    fn a_write_past_the_file_limit_is_rejected_not_applied() {
        let (server, client) = setup();
        client.put("/w/x", 0, b"before").expect("put");
        let rejected = |request: Vec<u8>| {
            let reply = server.handle(&request).expect("well-formed");
            assert!(
                matches!(check_status(&reply), Err(NetError::Rejected(_))),
                "{request:?} answered {reply:?}"
            );
        };
        // An offset that wraps `offset + len`, and one that merely ends a
        // byte past the limit.
        for offset in [u64::MAX - 1, MAX_FILE_LEN - 1] {
            rejected(write_request(OP_PUT, "/w/x", offset, None, b"xy"));
            rejected(write_request(OP_PUT_ACK, "/w/x", offset, Some(0), b"xy"));
            // In sequence, and ahead of a gap: a cast is refused when it
            // arrives, not when its turn to apply comes.
            rejected(write_request(OP_REPL, "/w/x", offset, Some(2), b"xy"));
            rejected(write_request(OP_REPL, "/w/x", offset, Some(9), b"xy"));
            // A path no write has named is not left behind in the table.
            rejected(write_request(OP_PUT, "/w/fresh", offset, None, b"xy"));
        }
        assert!(server.pending_repl.lock().is_empty(), "nothing held back");
        assert!(!server.files.read().contains_key("/w/fresh"));
        // The server still serves, and nothing moved.
        assert_eq!(server.version("/w/x"), 1);
        assert_eq!(client.get_all("/w/x").expect("get"), b"before");
        client.replicate("/w/x", 0, 2, b"after!").expect("repl");
        assert_eq!(client.get_all("/w/x").expect("get"), b"after!");
    }

    #[test]
    fn a_write_ending_exactly_at_the_file_limit_succeeds() {
        let (_server, client) = setup();
        client.put("/w/big", MAX_FILE_LEN - 2, b"xy").expect("put");
        let stat = client.stat("/w/big").expect("stat");
        assert_eq!(stat.len, MAX_FILE_LEN);
        assert_eq!(
            client.get("/w/big", MAX_FILE_LEN - 2, 8).expect("get"),
            b"xy"
        );
    }

    /// The server as it was before the table: a `versions` map beside
    /// the `Vfs`, every message's path copied out and parsed again, every
    /// reply built through `ok_response`. Kept as the reference the
    /// table must agree with, reply for reply. (One client at a time, so
    /// no locks; the write limit sits where the server's does.)
    #[derive(Default)]
    struct Model {
        vfs: Vfs,
        versions: HashMap<String, u64>,
        pending_repl: HashMap<String, PendingCasts>,
    }

    impl Model {
        fn version(&self, path: &str) -> u64 {
            *self.versions.get(path).unwrap_or(&0)
        }

        fn bump(&mut self, path: &str) {
            *self.versions.entry(path.to_owned()).or_insert(0) += 1;
        }

        fn ensure_file(vfs: &Vfs, vpath: &VPath) -> Result<(), String> {
            if vfs.is_file(vpath) {
                return Ok(());
            }
            if let Some(parent) = vpath.parent() {
                vfs.create_dir_all(&parent).map_err(|e| e.to_string())?;
            }
            vfs.create_file(vpath).map_err(|e| e.to_string())
        }

        fn apply_repl(
            &mut self,
            path: &str,
            offset: u64,
            seq: u64,
            data: Vec<u8>,
        ) -> Result<u64, String> {
            let vpath = FileServer::parse(path)?;
            let v = self.versions.entry(path.to_owned()).or_insert(0);
            if seq <= *v {
                return Ok(*v);
            }
            let queue = self.pending_repl.entry(path.to_owned()).or_default();
            if queue.len() < MAX_PENDING_REPL || queue.contains_key(&seq) {
                queue.insert(seq, (offset, data));
            }
            while let Some((off, bytes)) = queue.remove(&(*v + 1)) {
                Self::ensure_file(&self.vfs, &vpath)?;
                self.vfs
                    .write_stream(&vpath, off, &bytes)
                    .map_err(|e| e.to_string())?;
                *v += 1;
            }
            if queue.is_empty() {
                self.pending_repl.remove(path);
            }
            Ok(*v)
        }

        fn handle(&mut self, request: &[u8]) -> Result<Vec<u8>, NetError> {
            let mut r = afs_net::WireReader::new(request);
            let op = r.u8()?;
            let reply = match op {
                OP_GET => {
                    let path = r.str()?.to_owned();
                    let offset = r.u64()?;
                    let len = (r.u32()? as usize).min(MAX_TRANSFER);
                    match FileServer::parse(&path).and_then(|vp| {
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
                    match check_extent(offset, &data)
                        .and_then(|()| FileServer::parse(&path))
                        .and_then(|vp| {
                            Self::ensure_file(&self.vfs, &vp)?;
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
                    let path = r.str()?.to_owned();
                    let offset = r.u64()?;
                    let floor = r.u64()?;
                    let data = r.bytes()?.to_vec();
                    match check_extent(offset, &data)
                        .and_then(|()| FileServer::parse(&path))
                        .and_then(|vp| {
                            let v = self.versions.entry(path.clone()).or_insert(0);
                            if *v < floor {
                                return Err(format!(
                                    "copy at version {v} is behind session floor {floor}"
                                ));
                            }
                            Self::ensure_file(&self.vfs, &vp)?;
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
                    let path = r.str()?.to_owned();
                    let offset = r.u64()?;
                    let seq = r.u64()?;
                    let data = r.bytes()?.to_vec();
                    match check_extent(offset, &data)
                        .and_then(|()| self.apply_repl(&path, offset, seq, data))
                    {
                        Ok(version) => ok_response(|w| {
                            w.u64(version);
                        }),
                        Err(e) => err_response(&e),
                    }
                }
                OP_APPEND => {
                    let path = r.str()?.to_owned();
                    let data = r.bytes()?.to_vec();
                    match FileServer::parse(&path).and_then(|vp| {
                        Self::ensure_file(&self.vfs, &vp)?;
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
                    match FileServer::parse(&path).and_then(|vp| {
                        Self::ensure_file(&self.vfs, &vp)?;
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
                    match FileServer::parse(&path)
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
                    match FileServer::parse(&dir)
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
                    match FileServer::parse(&path)
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

    /// Paths only reads name, so the table must never hold them: a file
    /// put there behind the server's back (its reads succeed), files that
    /// never exist, and four paths that do not parse.
    const READ_ONLY_PATHS: [&str; 8] = [
        "/oob", "/never", "/never:s", "/d/never", "x", "/a//b", "/a:", "/a:s:t",
    ];
    /// Paths writes name too: a file beside one of its named streams,
    /// two files in one directory, that directory itself (no write to it
    /// can succeed), a path under a file (nor to it), and two that do
    /// not parse.
    const WRITTEN_PATHS: [&str; 9] = [
        "/a", "/a:s", "/d/b", "/d/c.af", "/d", "/a/under", "/e/f/g", "x", "/a//b",
    ];

    fn pick<T: Copy>(rng: &mut afs_sim::SimRng, from: &[T]) -> T {
        from[rng.next_below(from.len() as u64) as usize]
    }

    /// One seeded request: any of the nine ops (or 0, which is none),
    /// aimed to hit the edges as often as the middle.
    fn request(rng: &mut afs_sim::SimRng, server: &FileServer) -> Vec<u8> {
        let op = rng.next_below(10) as u8;
        let reads = matches!(op, OP_GET | OP_STAT | OP_LIST);
        let path = if reads && rng.next_below(3) == 0 {
            pick(rng, &READ_ONLY_PATHS)
        } else {
            pick(rng, &WRITTEN_PATHS)
        };
        let version = server.version(path);
        let mut data = vec![0u8; rng.next_below(12) as usize];
        data.fill_with(|| rng.next_u64() as u8);
        // Mostly inside small files; sometimes past the file limit.
        let offset = pick(rng, &[0, 0, 1, 5, 40, 300, MAX_FILE_LEN + 1, u64::MAX - 1]);
        let mut w = WireWriter::new();
        w.u8(op).str(path);
        match op {
            OP_GET => {
                // Nothing, a little, past any file's end, past the cap.
                let len = pick(rng, &[0, 1, 7, 4096, MAX_TRANSFER as u32 + 1, u32::MAX]);
                w.u64(offset).u32(len);
            }
            OP_PUT => {
                w.u64(offset).bytes(&data);
            }
            OP_PUT_ACK => {
                // At, below and above what the copy holds.
                let floor = pick(rng, &[0, version, version, version + 1, version + 7]);
                w.u64(offset).u64(floor).bytes(&data);
            }
            OP_REPL => {
                // In sequence, duplicates, stale ones, and gaps.
                let ahead = pick(rng, &[1, 1, 1, 2, 2, 3, 5]);
                let seq = pick(rng, &[0, version, version + ahead, version + ahead]);
                w.u64(offset).u64(seq).bytes(&data);
            }
            OP_APPEND | OP_REPLACE => {
                w.bytes(&data);
            }
            _ => {}
        }
        w.finish()
    }

    #[test]
    fn the_table_changes_no_reply() {
        for seed in 0..6 {
            let mut rng = afs_sim::SimRng::new(seed);
            let server = FileServer::new();
            let mut model = Model::default();
            for vfs in [&*server.vfs, &model.vfs] {
                let oob = VPath::parse("/oob").expect("path");
                vfs.create_file(&oob).expect("create");
                vfs.write_stream(&oob, 0, b"out of band").expect("write");
            }
            let mut step = |request: Vec<u8>, what: &str| {
                assert_eq!(
                    server.handle(&request),
                    model.handle(&request),
                    "seed {seed} {what}: {request:?}"
                );
                for path in READ_ONLY_PATHS.iter().chain(&WRITTEN_PATHS) {
                    assert_eq!(
                        server.version(path),
                        model.version(path),
                        "seed {seed} {what}: version of {path} after {request:?}"
                    );
                }
                let files = server.files.read();
                for path in files.keys() {
                    assert!(
                        WRITTEN_PATHS.contains(&path.as_str()) && model.versions.contains_key(path),
                        "seed {seed} {what}: the table holds {path}"
                    );
                }
            };
            // More casts than a path may hold back: the newest are
            // dropped, and so, the queue being full, is the one that
            // would fill the gap. One cast fewer, and it fills: the held
            // ones drain in order.
            let held = MAX_PENDING_REPL as u64;
            for (path, last, drained) in [("/d/b", held + 40, 0), ("/d/c.af", held, held)] {
                for seq in 2..=last {
                    let cast = write_request(OP_REPL, path, seq % 50, Some(seq), b"held");
                    step(cast, "flood");
                }
                let queued = server.pending_repl.lock()[path].len();
                assert_eq!(queued, MAX_PENDING_REPL.min(last as usize - 1));
                step(write_request(OP_REPL, path, 0, Some(1), b"gap"), "fill");
                assert_eq!(server.version(path), drained);
            }
            for n in 0..1500 {
                let request = request(&mut rng, &server);
                step(request, &format!("step {n}"));
            }
            // And the bytes behind the replies.
            for path in WRITTEN_PATHS {
                let Ok(vpath) = VPath::parse(path) else {
                    continue;
                };
                assert_eq!(
                    server.vfs.read_stream_to_end(&vpath).ok(),
                    model.vfs.read_stream_to_end(&vpath).ok(),
                    "seed {seed}: bytes of {path}"
                );
            }
        }
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
