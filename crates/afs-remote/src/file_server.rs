//! The FTP/HTTP-style remote file server.
//!
//! "The sentinel accesses the remote file using a standard protocol (e.g.,
//! FTP or HTTP), creates a local copy, and makes the copy available to the
//! client application" (§3, Aggregation). The server stores its files in
//! its own [`Vfs`] instance and keeps a per-file **version counter** so
//! consistency-tracking sentinels can detect remote updates — the ability
//! the paper's intermediary approach lacks.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use afs_net::{Endpoint, NetError, Owner, Service, WireReader, WireWriter};
use afs_telemetry::{backend_span, intern, retry_span, ClusterGauges};
use afs_vfs::{Pin, PinCell, VPath, Vfs};

use crate::{check_status, err_into, STATUS_OK};

const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const OP_APPEND: u8 = 3;
const OP_STAT: u8 = 4;
const OP_LIST: u8 = 5;
const OP_DELETE: u8 = 6;
const OP_REPLACE: u8 = 7;
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
/// gap to fill. Beyond this a new gap cast is dropped — safe, because
/// the copy simply stays behind and reads detect that via the version.
/// The cast that fills the gap is never held, so it always applies.
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
    /// Its file in the `Vfs`, pinned when a mutation made sure of it: GET,
    /// STAT, PUT and REPL reach the file through it and walk no path while
    /// it holds. A mutation refreshes it under the table's write side, and
    /// a read that finds it ended by a delete or rename of any path pins
    /// the file again on the read side.
    pin: PinCell,
    /// Monotonic version, bumped on every mutation.
    version: u64,
    /// Replication casts that arrived ahead of a sequence gap, held
    /// back until the missing sequences fill in ([`MAX_PENDING_REPL`]
    /// at most). Every key is above `version`.
    held: PendingCasts,
}

impl Tracked {
    /// Drops the held casts the version has reached by other means (a
    /// local `PUT` overtook them): they would be skipped on arrival, so
    /// they must not wait, or count toward the cap, for ever.
    fn drop_overtaken(&mut self) {
        while self
            .held
            .first_key_value()
            .is_some_and(|(&seq, _)| seq <= self.version)
        {
            self.held.pop_first();
        }
    }
}

/// A remote file store speaking a GET/PUT/STAT/LIST protocol.
///
/// Lock order, wherever more than one is held: `files`, then the `Vfs`'s
/// own lock.
pub struct FileServer {
    vfs: Arc<Vfs>,
    /// Every wire path a mutation has succeeded on. GET and STAT take the
    /// read side and find the path already parsed; mutations take the
    /// write side for their whole length, so a version, the bytes it
    /// counts and the casts held for it move together.
    files: RwLock<HashMap<String, Tracked>>,
}

/// Why a copy refuses a session: it is missing acknowledged writes.
fn check_floor(version: u64, floor: u64) -> Result<(), String> {
    if version < floor {
        return Err(format!(
            "copy at version {version} is behind session floor {floor}"
        ));
    }
    Ok(())
}

/// Appends an OK reply of `u64` fields.
fn ok_u64s(reply: &mut Vec<u8>, fields: &[u64]) {
    reply.push(STATUS_OK);
    for field in fields {
        reply.extend_from_slice(&field.to_le_bytes());
    }
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
            file.pin
                .set(self.vfs.pin(&file.vpath).expect("seeded file"));
            file.version += 1;
            Ok(())
        })
        .expect("valid seed path");
    }

    /// Current version of a path (0 if never written).
    pub fn version(&self, path: &str) -> u64 {
        self.files.read().get(path).map_or(0, |file| file.version)
    }

    /// Runs a read of `path` on its parsed form, pin and version, under
    /// the table's read side. A path the table does not hold is parsed
    /// here, pinned to nothing and not kept: the request is untrusted, and
    /// a table that reads could grow is memory anyone can spend.
    fn inspect<T>(
        &self,
        path: &str,
        read: impl FnOnce(&VPath, Pin, u64) -> Result<T, String>,
    ) -> Result<T, String> {
        match self.files.read().get(path) {
            Some(file) => read(&file.vpath, self.pinned(file), file.version),
            None => read(&Self::parse(path)?, Pin::default(), 0),
        }
    }

    /// `file`'s pin for a read: the one it has while that holds, else the
    /// file pinned again and published for the reads after this one (one
    /// walk of the path). A file that is gone keeps its ended pin, and the
    /// read resolves the path and fails as it would unpinned.
    fn pinned(&self, file: &Tracked) -> Pin {
        let pin = file.pin.get();
        if self.vfs.holds(pin) {
            return pin;
        }
        let Ok(fresh) = self.vfs.pin(&file.vpath) else {
            return pin;
        };
        file.pin.set(fresh);
        fresh
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
            let done = apply(file);
            file.drop_overtaken();
            return done;
        }
        let mut file = Tracked {
            vpath: Self::parse(path)?,
            pin: PinCell::default(),
            version: 0,
            held: PendingCasts::new(),
        };
        let done = apply(&mut file);
        if done.is_ok() {
            files.insert(path.to_owned(), file);
        }
        done
    }

    /// Applies one replication cast. Bytes apply **only in sequence
    /// order**: a stale or re-delivered cast (`seq <= version`) is
    /// skipped entirely (old bytes never overwrite newer ones), a cast
    /// that arrived ahead of a gap is held back until the missing
    /// sequences fill in, and the cast that fills the gap applies from
    /// the request, then drains the held ones it unblocked. The version
    /// therefore never advances past the writes this copy actually holds
    /// — the invariant the cluster's read-your-writes floor check relies
    /// on: `version >= floor` implies every acknowledged write up to
    /// `floor` is present.
    fn apply_repl(
        &self,
        file: &mut Tracked,
        offset: u64,
        seq: u64,
        data: &[u8],
    ) -> Result<u64, String> {
        if seq <= file.version {
            return Ok(file.version);
        }
        if seq == file.version + 1 {
            self.write_at(file, offset, data)?;
            file.version += 1;
        } else if file.held.len() < MAX_PENDING_REPL || file.held.contains_key(&seq) {
            file.held.insert(seq, (offset, data.to_vec()));
        }
        // Held casts now in sequence drain: the ones this cast unblocked,
        // or one a local write took the version up to.
        while let Some((off, bytes)) = file.held.remove(&(file.version + 1)) {
            self.write_at(file, off, &bytes)?;
            file.version += 1;
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

    /// `file`'s pin, made to hold: while the one it has holds, the file
    /// is there; else the file is made sure of, created if missing, and
    /// pinned again.
    fn hold(&self, file: &Tracked) -> Result<Pin, String> {
        let pin = file.pin.get();
        if self.vfs.holds(pin) {
            return Ok(pin);
        }
        self.ensure_file(&file.vpath)?;
        let pin = self.vfs.pin(&file.vpath).unwrap_or_default();
        file.pin.set(pin);
        Ok(pin)
    }

    /// Writes `data` at `offset`, creating the file if needed.
    fn write_at(&self, file: &mut Tracked, offset: u64, data: &[u8]) -> Result<usize, String> {
        let pin = self.hold(file)?;
        self.vfs
            .write_stream_pinned(pin, &file.vpath, offset, data)
            .map_err(|e| e.to_string())
    }

    /// Serves `request`, appending the reply to `reply`: a GET's bytes go
    /// from the file straight behind the reply's header, and no reply
    /// allocates once `reply` has grown.
    fn dispatch(&self, request: &[u8], reply: &mut Vec<u8>) -> Result<(), NetError> {
        let start = reply.len();
        let mut r = WireReader::new(request);
        let done = match r.u8()? {
            OP_GET => {
                let path = r.str()?;
                let offset = r.u64()?;
                // The requested length is untrusted: cap the transfer
                // unit so a bogus request cannot force a giant
                // allocation. Clients split larger reads.
                let len = (r.u32()? as usize).min(MAX_TRANSFER);
                // A read carries the session's floor: a copy behind it
                // refuses, as it refuses a PUT, and the version it checks
                // is the one the bytes are read under.
                let floor = r.u64()?;
                self.inspect(path, |vp, pin, version| {
                    check_floor(version, floor)?;
                    // The stream's bytes land behind the header, whose
                    // length is filled in after; room for the most the
                    // reply can carry is made first, so a new buffer is
                    // allocated once.
                    reply.reserve(GET_HEADER + len);
                    reply.extend_from_slice(&[STATUS_OK; GET_HEADER]);
                    let n = self
                        .vfs
                        .read_stream_pinned_into(pin, vp, offset, len, reply)
                        .map_err(|e| e.to_string())?;
                    reply[start + 1..start + GET_HEADER].copy_from_slice(&(n as u32).to_le_bytes());
                    Ok(())
                })
            }
            OP_PUT => {
                // The request carries the session's acknowledged floor
                // and the acknowledgement the new version — the
                // replication sequence number the writer fans out to the
                // replicas and remembers for read-your-writes. A copy
                // behind the floor refuses: letting a laggard allocate a
                // sequence would collide with sequences already
                // acknowledged elsewhere (split-brain) and would
                // acknowledge a copy missing earlier acked writes.
                let path = r.str()?;
                let offset = r.u64()?;
                let floor = r.u64()?;
                let data = r.bytes()?;
                check_extent(offset, data).and_then(|()| {
                    self.mutate(path, |file| {
                        check_floor(file.version, floor)?;
                        let n = self.write_at(file, offset, data)?;
                        file.version += 1;
                        ok_u64s(reply, &[n as u64, file.version]);
                        Ok(())
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
                        self.mutate(path, |file| self.apply_repl(file, offset, seq, data))
                    })
                    .map(|version| ok_u64s(reply, &[version]))
            }
            OP_APPEND => {
                let path = r.str()?;
                let data = r.bytes()?;
                self.mutate(path, |file| {
                    let pin = self.hold(file)?;
                    let len = self
                        .vfs
                        .stream_len_pinned(pin, &file.vpath)
                        .map_err(|e| e.to_string())?;
                    let n = self
                        .vfs
                        .write_stream_pinned(pin, &file.vpath, len, data)
                        .map_err(|e| e.to_string())?;
                    file.version += 1;
                    ok_u64s(reply, &[n as u64]);
                    Ok(())
                })
            }
            OP_REPLACE => {
                let path = r.str()?;
                let data = r.bytes()?;
                self.mutate(path, |file| {
                    self.hold(file)?;
                    self.vfs
                        .write_stream_replace(&file.vpath, data)
                        .map_err(|e| e.to_string())?;
                    file.version += 1;
                    ok_u64s(reply, &[]);
                    Ok(())
                })
            }
            OP_STAT => {
                let path = r.str()?;
                let floor = r.u64()?;
                self.inspect(path, |vp, pin, version| {
                    check_floor(version, floor)?;
                    let len = self
                        .vfs
                        .stream_len_pinned(pin, vp)
                        .map_err(|e| e.to_string())?;
                    ok_u64s(reply, &[len, version]);
                    Ok(())
                })
            }
            OP_LIST => Self::parse(r.str()?)
                .and_then(|vp| self.vfs.list_dir(&vp).map_err(|e| e.to_string()))
                .map(|entries| {
                    let mut w = WireWriter::from(std::mem::take(reply));
                    w.u8(STATUS_OK).seq(entries.len());
                    for e in &entries {
                        w.str(&e.name)
                            .bool(e.kind == afs_vfs::NodeKind::Directory)
                            .u64(e.len);
                    }
                    *reply = w.finish();
                }),
            OP_DELETE => {
                let path = r.str()?;
                self.mutate(path, |file| {
                    self.vfs.delete(&file.vpath).map_err(|e| e.to_string())?;
                    file.version += 1;
                    ok_u64s(reply, &[]);
                    Ok(())
                })
            }
            t => Err(format!("unknown file-server op {t}")),
        };
        if let Err(e) = done {
            reply.truncate(start);
            err_into(reply, &e);
        }
        Ok(())
    }
}

impl Default for FileServer {
    fn default() -> Self {
        FileServer {
            vfs: Arc::new(Vfs::new()),
            files: RwLock::new(HashMap::new()),
        }
    }
}

impl Service for FileServer {
    fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
        let mut reply = Vec::new();
        self.dispatch(request, &mut reply)?;
        Ok(reply)
    }

    fn handle_into(&self, request: &[u8], reply: &mut Vec<u8>) -> afs_net::Result<()> {
        self.dispatch(request, reply)
    }
}

/// One wait for lagging owners, in virtual time.
const STALE_WAIT_STEP_NS: u64 = 1_000_000; // 1 ms

/// Encodes a `GET`, served only by a copy at or above `floor` (0: by
/// any).
fn encode_get(w: &mut WireWriter, path: &str, offset: u64, len: usize, floor: u64) {
    w.u8(OP_GET).str(path).u64(offset);
    w.u32(len as u32).u64(floor);
}

/// Encodes a `PUT`, acknowledged only by a copy at or above `floor`.
fn encode_put(w: &mut WireWriter, path: &str, offset: u64, floor: u64, data: &[u8]) {
    w.u8(OP_PUT).str(path).u64(offset).u64(floor).bytes(data);
}

/// Encodes a `STAT`, answered only by a copy at or above `floor`.
fn encode_stat(w: &mut WireWriter, path: &str, floor: u64) {
    w.u8(OP_STAT).str(path).u64(floor);
}

/// A `PUT`'s (bytes written, version) or a `STAT`'s (length, version).
fn two_u64s(resp: &[u8]) -> afs_net::Result<(u64, u64)> {
    let mut r = check_status(resp)?;
    Ok((r.u64()?, r.u64()?))
}

/// Encodes a replication cast: a write at the sequence its primary
/// acknowledged.
fn encode_repl(w: &mut WireWriter, path: &str, offset: u64, seq: u64, data: &[u8]) {
    w.u8(OP_REPL).str(path).u64(offset).u64(seq).bytes(data);
}

/// Typed client for [`FileServer`], and the one file session: every op
/// walks its path's owners ([`Endpoint::with_owners`]). Listed owners are
/// failover spares: the first to answer serves, unsequenced. Over a fleet
/// the owners are copies: a read carries the session's read-your-writes
/// floor — per path, the highest version it was acknowledged — and waits
/// out copies behind it within the endpoint's staleness budget; a write is
/// acknowledged by the first owner at the floor and cast, at the new
/// version, to the others; and an op the copies do not sequence (append,
/// replace, delete) is refused for a path with more than one.
#[derive(Debug)]
pub struct FileClient {
    pub(crate) endpoint: Endpoint,
    acked: Mutex<HashMap<String, u64>>,
    /// The endpoint's gauges, the ones `with_gauges` attached, or the
    /// session's own, made when first needed.
    gauges: OnceLock<Arc<ClusterGauges>>,
}

impl FileClient {
    /// Creates a session with the file service `endpoint` reaches,
    /// feeding the endpoint's gauges if it carries any.
    pub fn new(endpoint: Endpoint) -> Self {
        let gauges = endpoint.gauges().cloned();
        FileClient {
            endpoint,
            acked: Mutex::new(HashMap::new()),
            gauges: gauges.map_or_else(OnceLock::new, OnceLock::from),
        }
    }

    /// Shares `gauges` as the session's metrics sink; over a fleet they
    /// also count its membership changes from now on.
    pub fn with_gauges(mut self, gauges: Arc<ClusterGauges>) -> Self {
        if let Some(fleet) = self.endpoint.fleet() {
            fleet.count_in(&gauges, false);
        }
        self.gauges = OnceLock::from(gauges);
        self
    }

    /// The gauges this session feeds, made here if it was given none (over
    /// a fleet they count its changes so far). Never called in a walk.
    pub fn gauges(&self) -> &Arc<ClusterGauges> {
        self.gauges.get_or_init(|| {
            let gauges = Arc::new(ClusterGauges::default());
            if let Some(fleet) = self.endpoint.fleet() {
                fleet.count_in(&gauges, true);
            }
            gauges
        })
    }

    /// `path`'s owners, primary first.
    pub fn owners(&self, path: &str) -> Vec<String> {
        let named = self.endpoint.with_owners(path, |members, owners| {
            Ok(owners
                .iter()
                .map(|&owner| members.name(owner).to_owned())
                .collect())
        });
        named.unwrap_or_default()
    }

    /// How many copies of `path` the session keeps in step: a fleet's
    /// owners of it; listed owners are spares, not copies.
    fn copies(&self, path: &str) -> afs_net::Result<usize> {
        if self.endpoint.fleet().is_none() {
            return Ok(1);
        }
        self.endpoint
            .with_owners(path, |_, owners| Ok(owners.len()))
    }

    /// The session's read-your-writes floor for `path` (0: never written).
    pub fn acked_seq(&self, path: &str) -> u64 {
        *self.acked.lock().get(path).unwrap_or(&0)
    }

    /// The read walk: `path`'s owners asked with the floor until one
    /// serves. Only a refusal above floor 0 is lag worth waiting for (at 0
    /// the file may live on a later owner); the fleet is released between
    /// rounds, so a membership change can land. Listed owners read at
    /// floor 0 without the floor's lock: only a fleet's writes set one.
    fn read<T>(
        &self,
        path: &str,
        mut ask: impl FnMut(Owner<'_>, u64) -> afs_net::Result<T>,
    ) -> afs_net::Result<T> {
        let floor = self.endpoint.fleet().map_or(0, |_| self.acked_seq(path));
        let mut budget = self.endpoint.staleness_ns().unwrap_or(0);
        loop {
            // The value and who served it, or the last owner behind.
            let round = self.endpoint.with_owners(path, |members, owners| {
                let (mut behind, mut missing, mut fault) = (None, None, None);
                let targets = owners.iter().map(|&owner| members.target(owner));
                let served =
                    self.endpoint
                        .net()
                        .walk(targets, |owner| match ask(owner, floor) {
                            Ok(value) => Ok(Some((owner.index(), value))),
                            Err(e @ NetError::Rejected(_)) => {
                                if floor > 0 {
                                    behind = Some(owner.index());
                                }
                                missing = Some(e);
                                Ok(None)
                            }
                            Err(e) => Err(fault.insert(e).clone()),
                        })?;
                match (served, behind) {
                    (Some(served), _) => Ok(Ok(served)),
                    (None, Some(at)) => Ok(Err(members.name(owners[at]).to_owned())),
                    // Nobody is lagging: a transport fault or a file no
                    // owner holds, not staleness — no budget is burned.
                    (None, None) => Err(fault.or(missing).expect("an owner refused")),
                }
            })?;
            match round {
                Ok((index, value)) => {
                    // Only a fleet's reads count: listed owners are spares.
                    if self.endpoint.fleet().is_some() {
                        self.gauges().read(index != 0);
                    }
                    return Ok(value);
                }
                Err(owner) if budget < STALE_WAIT_STEP_NS => {
                    let mut span = retry_span("stale-reject", "");
                    if let Some(span) = &mut span {
                        span.set_note(intern(&format!("cause=stale owner={owner} floor={floor}")));
                    }
                    self.gauges().stale_reject();
                    return Err(NetError::Rejected(format!(
                        "staleness bound exceeded for {path}: no replica at seq {floor}"
                    )));
                }
                Err(_) => {}
            }
            let _span = retry_span("stale-wait", "cause=stale");
            budget -= STALE_WAIT_STEP_NS;
            self.gauges().stale_wait();
            afs_sim::clock::advance(STALE_WAIT_STEP_NS);
        }
    }

    /// The acknowledged write over a fleet's owners of `path`: applied by
    /// the first at the floor, cast to the rest at the version it answers.
    /// Returns bytes written.
    fn write(&self, path: &str, offset: u64, data: &[u8]) -> afs_net::Result<u64> {
        let (gauges, floor) = (self.gauges(), self.acked_seq(path));
        self.endpoint.with_owners(path, |members, owners| {
            let mut last_err = None;
            let targets = owners.iter().map(|&owner| members.target(owner));
            let acked = self.endpoint.net().walk(targets, |owner| {
                let put = |w: &mut WireWriter| encode_put(w, path, offset, floor, data);
                let ack = owner.rpc_with(put, two_u64s);
                last_err = ack.as_ref().err().cloned();
                match ack {
                    Ok(ack) => Ok(Some((owner.index(), ack))),
                    // A copy behind the floor will not allocate a sequence
                    // the session already holds: the next owner may.
                    Err(NetError::Rejected(_)) => Ok(None),
                    Err(e) => Err(e),
                }
            });
            let Ok(Some((acker, (n, seq)))) = acked else {
                return Err(acked.err().or(last_err).expect("an owner refused"));
            };
            let mut acked = self.acked.lock();
            match acked.get_mut(path) {
                Some(floor) => *floor = (*floor).max(seq),
                None => drop(acked.insert(path.to_owned(), seq)),
            }
            drop(acked);
            let mut failed = 0u64;
            for (_, &other) in owners.iter().enumerate().filter(|&(i, _)| i != acker) {
                let _bk = backend_span("remote-replicate");
                let repl = |w: &mut WireWriter| encode_repl(w, path, offset, seq, data);
                if self
                    .endpoint
                    .net()
                    .cast_with(members.target(other), repl)
                    .is_err()
                {
                    failed += 1;
                }
            }
            gauges.write(owners.len() as u64 - 1, failed);
            Ok(n)
        })
    }

    /// Reads up to `len` bytes at `offset` (FTP `REST`+`RETR` / HTTP range
    /// GET) from the first owner whose copy holds this session's writes.
    ///
    /// # Errors
    ///
    /// Network faults; [`NetError::Rejected`] if no owner holds the file or
    /// the reachable ones stayed behind past the staleness budget.
    pub fn get(&self, path: &str, offset: u64, len: usize) -> afs_net::Result<Vec<u8>> {
        let mut out = vec![0; len.min(MAX_TRANSFER)];
        let n = self.get_into(path, offset, &mut out)?;
        out.truncate(n);
        Ok(out)
    }

    /// [`get`](FileClient::get) of up to `buf.len()` bytes into `buf`,
    /// returning how many: the payload is copied once, from the reply
    /// where it landed, and the message allocates nothing. A service that
    /// answers with more than was asked for is cut to what fits.
    ///
    /// # Errors
    ///
    /// As [`FileClient::get`].
    pub fn get_into(&self, path: &str, offset: u64, buf: &mut [u8]) -> afs_net::Result<usize> {
        let _bk = backend_span("remote-get");
        let len = buf.len().min(MAX_TRANSFER);
        self.read(path, |owner, floor| {
            owner.rpc_with(
                |w| encode_get(w, path, offset, len, floor),
                |reply| {
                    let payload = check_status(reply)?.bytes()?;
                    let n = payload.len().min(buf.len());
                    buf[..n].copy_from_slice(&payload[..n]);
                    Ok(n)
                },
            )
        })
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

    /// Writes `data` at `offset`, creating the file if needed, and waits
    /// for the acknowledgement. Returns bytes written.
    ///
    /// # Errors
    ///
    /// Network faults; [`NetError::Rejected`] when every reachable owner
    /// refused it.
    pub fn put(&self, path: &str, offset: u64, data: &[u8]) -> afs_net::Result<u64> {
        let _bk = backend_span("remote-put");
        if self.endpoint.fleet().is_some() {
            return self.write(path, offset, data);
        }
        let put = |w: &mut WireWriter| encode_put(w, path, offset, 0, data);
        let (n, _) = self.endpoint.rpc_at_with(path, put, two_u64s)??;
        Ok(n)
    }

    /// Streams `data` at `offset` without waiting — the sentinel's
    /// write-behind path (§6) — unless a fleet keeps more than one copy of
    /// `path`: then it is [`put`](FileClient::put), since copies apply only
    /// sequenced writes.
    ///
    /// # Errors
    ///
    /// As one copy, only local faults; over more, `put`'s.
    pub fn put_async(&self, path: &str, offset: u64, data: &[u8]) -> afs_net::Result<()> {
        let _bk = backend_span("remote-put-async");
        if self.copies(path)? > 1 {
            return self.write(path, offset, data).map(drop);
        }
        self.endpoint
            .cast_at_with(path, |w| encode_put(w, path, offset, 0, data))
    }

    /// The request `encode` writes, an op copies do not sequence, for the
    /// first of `path`'s owners to serve, and its reply as `read` reads
    /// it; refused over more than one copy, which it would leave a version
    /// apart for good (every later cast waits on a gap).
    fn unsequenced<T>(
        &self,
        path: &str,
        encode: impl FnMut(&mut WireWriter),
        read: impl FnMut(&[u8]) -> afs_net::Result<T>,
    ) -> afs_net::Result<T> {
        match self.copies(path)? {
            1 => self.endpoint.rpc_at_with(path, encode, read)?,
            n => Err(NetError::Rejected(format!(
                "{path} has {n} copies: only put replicates"
            ))),
        }
    }

    /// Appends `data`, returning bytes written.
    ///
    /// # Errors
    ///
    /// Network faults or server rejection; [`NetError::Rejected`] over a
    /// fleet keeping more than one copy of `path`.
    pub fn append(&self, path: &str, data: &[u8]) -> afs_net::Result<u64> {
        let _bk = backend_span("remote-append");
        self.unsequenced(
            path,
            |w| {
                w.u8(OP_APPEND).str(path).bytes(data);
            },
            |reply| Ok(check_status(reply)?.u64()?),
        )
    }

    /// Replaces a file's contents.
    ///
    /// # Errors
    ///
    /// As [`FileClient::append`].
    pub fn replace(&self, path: &str, data: &[u8]) -> afs_net::Result<()> {
        let _bk = backend_span("remote-replace");
        self.unsequenced(
            path,
            |w| {
                w.u8(OP_REPLACE).str(path).bytes(data);
            },
            |reply| check_status(reply).map(drop),
        )
    }

    /// Returns length and version, as [`get`](FileClient::get) reads.
    ///
    /// # Errors
    ///
    /// As [`FileClient::get`].
    pub fn stat(&self, path: &str) -> afs_net::Result<RemoteStat> {
        let _bk = backend_span("remote-stat");
        let (len, version) = self.read(path, |owner, floor| {
            owner.rpc_with(|w| encode_stat(w, path, floor), two_u64s)
        })?;
        Ok(RemoteStat { len, version })
    }

    /// Lists a directory: `(name, is_dir, len)` triples.
    ///
    /// # Errors
    ///
    /// Network faults or server rejection.
    pub fn list(&self, dir: &str) -> afs_net::Result<Vec<(String, bool, u64)>> {
        let _bk = backend_span("remote-list");
        let list = |w: &mut WireWriter| {
            w.u8(OP_LIST).str(dir);
        };
        self.endpoint.rpc_at_with(dir, list, listing)?
    }

    /// Deletes a file.
    ///
    /// # Errors
    ///
    /// As [`FileClient::append`].
    pub fn delete(&self, path: &str) -> afs_net::Result<()> {
        let _bk = backend_span("remote-delete");
        self.unsequenced(
            path,
            |w| {
                w.u8(OP_DELETE).str(path);
            },
            |reply| check_status(reply).map(drop),
        )
    }
}

/// A `LIST` reply's `(name, is_dir, len)` triples.
fn listing(reply: &[u8]) -> afs_net::Result<Vec<(String, bool, u64)>> {
    let mut r = check_status(reply)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{err_response, ok_response};
    use afs_sim::CostModel;

    /// One request as the wire carries it.
    fn request_of(encode: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let mut w = WireWriter::new();
        encode(&mut w);
        w.finish()
    }

    fn get_request(path: &str, offset: u64, len: usize, floor: u64) -> Vec<u8> {
        request_of(|w| encode_get(w, path, offset, len, floor))
    }

    fn put_request(path: &str, offset: u64, floor: u64, data: &[u8]) -> Vec<u8> {
        request_of(|w| encode_put(w, path, offset, floor, data))
    }

    fn stat_request(path: &str, floor: u64) -> Vec<u8> {
        request_of(|w| encode_stat(w, path, floor))
    }

    fn repl_request(path: &str, offset: u64, seq: u64, data: &[u8]) -> Vec<u8> {
        request_of(|w| encode_repl(w, path, offset, seq, data))
    }

    /// Casts one replication write to the client's server.
    fn replicate(
        client: &FileClient,
        path: &str,
        offset: u64,
        seq: u64,
        data: &[u8],
    ) -> afs_net::Result<()> {
        client.endpoint.cast(&repl_request(path, offset, seq, data))
    }

    fn setup() -> (Arc<FileServer>, FileClient) {
        let net = afs_net::Network::new(CostModel::free());
        let server = FileServer::new();
        net.register("files", Arc::clone(&server) as Arc<dyn Service>);
        (server, FileClient::new(net.endpoint(["files"])))
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
    fn listed_owners_are_failover_spares_not_copies() {
        let net = afs_net::Network::new(CostModel::free());
        let (primary, spare) = (FileServer::new(), FileServer::new());
        net.register("files", Arc::clone(&primary) as Arc<dyn Service>);
        net.register("spare", Arc::clone(&spare) as Arc<dyn Service>);
        spare.seed("/f", b"spare's own");
        let client = FileClient::new(net.endpoint(["files", "spare"]));
        // A write reaches the first owner alone, unsequenced, and leaves
        // the session no floor; appends and replaces are not refused.
        client.put("/f", 0, b"primary").expect("put");
        client.put_async("/f", 0, b"PRIMARY").expect("put_async");
        client.append("/f", b"!").expect("append");
        assert_eq!((primary.version("/f"), spare.version("/f")), (3, 1));
        assert_eq!(client.acked_seq("/f"), 0);
        // No path has a floor, so a listed read skips the lookup.
        client.put("/g", 0, b"another path").expect("put");
        assert!(
            client.acked.lock().is_empty(),
            "a listed session keeps no floor"
        );
        // With the first owner gone the spare serves its own bytes.
        net.plan("files").expect("plan").set_partitioned(true);
        assert_eq!(client.get_all("/f").expect("failover"), b"spare's own");
        assert_eq!(client.gauges().snapshot().reads, 0, "not a fleet's read");
    }

    /// A `PUT` at `floor` straight to the client's server, as one owner
    /// of a walk receives it: `(bytes written, new version)`.
    fn put_at(
        client: &FileClient,
        path: &str,
        data: &[u8],
        floor: u64,
    ) -> afs_net::Result<(u64, u64)> {
        two_u64s(&client.endpoint.rpc(&put_request(path, 0, floor, data))?)
    }

    /// A `GET` of up to 8 bytes at `floor` straight to the client's server.
    fn get_at(client: &FileClient, path: &str, floor: u64) -> afs_net::Result<Vec<u8>> {
        let reply = client.endpoint.rpc(&get_request(path, 0, 8, floor))?;
        Ok(check_status(&reply)?.bytes()?.to_vec())
    }

    #[test]
    fn a_put_acknowledges_the_replication_seq() {
        let (server, client) = setup();
        assert_eq!(put_at(&client, "/c/x", b"v1", 0).expect("put"), (2, 1));
        let (_, seq) = put_at(&client, "/c/x", b"v2", 1).expect("put");
        assert_eq!(seq, 2);
        assert_eq!(server.version("/c/x"), 2);
        // One listed owner holds no copies to keep in step: the session
        // keeps no floor (over a fleet it keeps the version acknowledged).
        client.put("/c/x", 0, b"v3").expect("put");
        assert_eq!(client.acked_seq("/c/x"), 0);
    }

    #[test]
    fn a_put_refuses_a_copy_behind_the_floor() {
        let (server, client) = setup();
        put_at(&client, "/c/f", b"v1", 0).expect("put");
        // A session acked seq 3 elsewhere; this copy only holds seq 1.
        // Acking here would allocate seq 2 — a sequence the session
        // already holds — so the server must refuse.
        let err = put_at(&client, "/c/f", b"v4", 3).expect_err("behind floor");
        assert!(matches!(err, NetError::Rejected(_)), "{err:?}");
        assert_eq!(server.version("/c/f"), 1, "no sequence allocated");
        assert_eq!(client.get_all("/c/f").expect("get"), b"v1");
    }

    #[test]
    fn replicate_applies_in_sequence_order() {
        let (server, client) = setup();
        replicate(&client, "/c/y", 0, 1, b"fresh").expect("repl");
        assert_eq!(server.version("/c/y"), 1);
        assert_eq!(client.get_all("/c/y").expect("get"), b"fresh");
        // A stale or re-delivered cast is skipped entirely: neither
        // the version nor the bytes regress.
        replicate(&client, "/c/y", 0, 1, b"dup!!").expect("repl");
        assert_eq!(server.version("/c/y"), 1);
        assert_eq!(client.get_all("/c/y").expect("get"), b"fresh");
    }

    #[test]
    fn gap_casts_are_held_until_the_sequence_fills_in() {
        let (server, client) = setup();
        // Seq 2 arrives before seq 1: the version must not claim a
        // write whose bytes this copy does not hold yet.
        replicate(&client, "/c/z", 3, 2, b"bbb").expect("repl");
        assert_eq!(server.version("/c/z"), 0);
        replicate(&client, "/c/z", 0, 1, b"aaa").expect("repl");
        assert_eq!(server.version("/c/z"), 2);
        assert_eq!(client.get_all("/c/z").expect("get"), b"aaabbb");
    }

    #[test]
    fn a_missed_cast_keeps_the_version_behind() {
        let (server, client) = setup();
        replicate(&client, "/c/w", 0, 1, b"one").expect("repl");
        // Seq 2 was dropped in flight; seq 3 arrives. The version must
        // stay at 1 — advancing to 3 would make a read-your-writes
        // floor check accept a copy missing write 2's bytes.
        replicate(&client, "/c/w", 0, 3, b"three").expect("repl");
        assert_eq!(server.version("/c/w"), 1);
        assert_eq!(client.get_all("/c/w").expect("get"), b"one");
    }

    #[test]
    fn a_held_cast_a_local_write_overtook_is_dropped() {
        let (server, client) = setup();
        let held = |server: &FileServer| server.files.read()["/c/o"].held.len();
        replicate(&client, "/c/o", 0, 1, b"one!").expect("repl");
        // Casts 3 and on wait for seq 2, until the queue is full.
        let last = 2 + MAX_PENDING_REPL as u64;
        for seq in 3..=last {
            replicate(&client, "/c/o", 0, seq, b"held").expect("repl");
        }
        assert_eq!(held(&server), MAX_PENDING_REPL);
        // Local writes take the version past every held cast: each
        // would be skipped on arrival now, so none may wait on or keep
        // its place in the queue.
        for _ in 1..last {
            client.put("/c/o", 0, b"own!").expect("put");
        }
        assert_eq!(server.version("/c/o"), last);
        assert_eq!(held(&server), 0);
        assert_eq!(client.get_all("/c/o").expect("get"), b"own!");
        // The queue has room again: a gap cast is held, then drained.
        replicate(&client, "/c/o", 0, last + 2, b"next").expect("repl");
        assert_eq!(held(&server), 1);
        replicate(&client, "/c/o", 0, last + 1, b"fill").expect("repl");
        assert_eq!(server.version("/c/o"), last + 2);
        assert_eq!(client.get_all("/c/o").expect("get"), b"next");
    }

    #[test]
    fn a_read_at_floor_refuses_a_copy_behind_it() {
        let (server, client) = setup();
        client.put("/c/r", 0, b"v1").expect("put");
        client.put("/c/r", 0, b"v2").expect("put");
        assert_eq!(get_at(&client, "/c/r", 0).expect("floor 0"), b"v2");
        assert_eq!(get_at(&client, "/c/r", 2).expect("at"), b"v2");
        let err = get_at(&client, "/c/r", 3).expect_err("behind");
        assert!(matches!(err, NetError::Rejected(_)), "{err:?}");
        // A STAT refuses the same copy.
        let stat = client.endpoint.rpc(&stat_request("/c/r", 3));
        assert!(matches!(
            two_u64s(&stat.expect("reply")),
            Err(NetError::Rejected(_))
        ));
        // No file: rejected at any floor, as a GET is.
        for floor in [0, 1] {
            let err = get_at(&client, "/c/none", floor).expect_err("absent");
            assert!(matches!(err, NetError::Rejected(_)), "{err:?}");
        }
        assert_eq!(server.version("/c/r"), 2);
    }

    /// `op`, `path` and the rest of a write request as the wire carries
    /// them: `extra` is the floor (PUT) or the sequence (REPL).
    fn write_request(op: u8, path: &str, offset: u64, extra: u64, data: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u8(op).str(path).u64(offset).u64(extra).bytes(data);
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
            rejected(write_request(OP_PUT, "/w/x", offset, 0, b"xy"));
            // In sequence, and ahead of a gap: a cast is refused when it
            // arrives, not when its turn to apply comes.
            rejected(write_request(OP_REPL, "/w/x", offset, 2, b"xy"));
            rejected(write_request(OP_REPL, "/w/x", offset, 9, b"xy"));
            // A path no write has named is not left behind in the table.
            rejected(write_request(OP_PUT, "/w/fresh", offset, 0, b"xy"));
        }
        assert!(
            server
                .files
                .read()
                .values()
                .all(|file| file.held.is_empty()),
            "nothing held back"
        );
        assert!(!server.files.read().contains_key("/w/fresh"));
        // The server still serves, and nothing moved.
        assert_eq!(server.version("/w/x"), 1);
        assert_eq!(client.get_all("/w/x").expect("get"), b"before");
        replicate(&client, "/w/x", 0, 2, b"after!").expect("repl");
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
            self.drop_overtaken(path);
        }

        /// Forgets `path`'s held casts at or below its version.
        fn drop_overtaken(&mut self, path: &str) {
            let version = self.version(path);
            if let Some(queue) = self.pending_repl.get_mut(path) {
                queue.retain(|&seq, _| seq > version);
                if queue.is_empty() {
                    self.pending_repl.remove(path);
                }
            }
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
            let mut next = if seq == *v + 1 {
                Some((offset, data))
            } else {
                let queue = self.pending_repl.entry(path.to_owned()).or_default();
                if queue.len() < MAX_PENDING_REPL || queue.contains_key(&seq) {
                    queue.insert(seq, (offset, data));
                }
                queue.remove(&(*v + 1))
            };
            while let Some((off, bytes)) = next {
                Self::ensure_file(&self.vfs, &vpath)?;
                self.vfs
                    .write_stream(&vpath, off, &bytes)
                    .map_err(|e| e.to_string())?;
                *v += 1;
                next = self
                    .pending_repl
                    .get_mut(path)
                    .and_then(|queue| queue.remove(&(*v + 1)));
            }
            if self.pending_repl.get(path).is_some_and(BTreeMap::is_empty) {
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
                    let floor = r.u64()?;
                    match FileServer::parse(&path).and_then(|vp| {
                        let v = self.version(&path);
                        if v < floor {
                            return Err(format!(
                                "copy at version {v} is behind session floor {floor}"
                            ));
                        }
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
                        Ok((n, seq)) => {
                            self.drop_overtaken(&path);
                            ok_response(|w| {
                                w.u64(n as u64).u64(seq);
                            })
                        }
                        Err(e) => err_response(&e),
                    }
                }
                OP_REPL => {
                    let path = r.str()?.to_owned();
                    let offset = r.u64()?;
                    let seq = r.u64()?;
                    let data = r.bytes()?.to_vec();
                    let applied = check_extent(offset, &data)
                        .and_then(|()| self.apply_repl(&path, offset, seq, data));
                    // A gap cast held before a local write took the
                    // version up to it is overtaken once this one lands.
                    self.drop_overtaken(&path);
                    match applied {
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
                    let floor = r.u64()?;
                    let v = self.version(&path);
                    match FileServer::parse(&path).and_then(|vp| {
                        if v < floor {
                            return Err(format!(
                                "copy at version {v} is behind session floor {floor}"
                            ));
                        }
                        self.vfs.stream_len(&vp).map_err(|e| e.to_string())
                    }) {
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

    /// One seeded request: any of the eight ops (or 0, 8 or 10, which
    /// are none), aimed to hit the edges as often as the middle.
    fn request(rng: &mut afs_sim::SimRng, server: &FileServer) -> Vec<u8> {
        let op = rng.next_below(11) as u8;
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
        // At, below and above what the copy holds.
        let floor = pick(rng, &[0, version, version, version + 1, version + 7]);
        match op {
            OP_GET => {
                // Nothing, a little, past any file's end, past the cap.
                let len = pick(rng, &[0, 1, 7, 4096, MAX_TRANSFER as u32 + 1, u32::MAX]);
                w.u64(offset).u32(len).u64(floor);
            }
            OP_PUT => {
                w.u64(offset).u64(floor).bytes(&data);
            }
            OP_STAT => {
                w.u64(floor);
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

    /// Namespace changes made behind the server's back, in order, each
    /// ending pins the table holds: the two files in `/d` deleted and
    /// recreated in the other order with other bytes (so each may take the
    /// other's node slot), `/d` renamed away and back, and `/d/c.af` renamed
    /// over the vacated `/a`. What each call answered.
    fn out_of_band(vfs: &Vfs, change: usize) -> Vec<afs_vfs::Result<()>> {
        let p = |path: &str| VPath::parse(path).expect("path");
        match change {
            0 => vec![
                vfs.delete(&p("/d/b")),
                vfs.delete(&p("/d/c.af")),
                vfs.create_file(&p("/d/b")),
                vfs.write_stream(&p("/d/b"), 0, b"recreated b").map(drop),
                vfs.create_file(&p("/d/c.af")),
                vfs.write_stream(&p("/d/c.af"), 0, b"recreated c").map(drop),
            ],
            1 => vec![vfs.rename(&p("/d"), &p("/away"))],
            2 => vec![vfs.rename(&p("/away"), &p("/d"))],
            _ => vec![vfs.delete(&p("/a")), vfs.rename(&p("/d/c.af"), &p("/a"))],
        }
    }

    #[test]
    fn the_table_changes_no_reply() {
        for seed in 0..6 {
            let mut rng = afs_sim::SimRng::new(seed);
            let server = FileServer::new();
            let mut model = Model::default();
            for vfs in [server.vfs(), &model.vfs] {
                let oob = VPath::parse("/oob").expect("path");
                vfs.create_file(&oob).expect("create");
                vfs.write_stream(&oob, 0, b"out of band").expect("write");
            }
            let step = |model: &mut Model, request: Vec<u8>, what: &str| {
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
                for (path, file) in files.iter() {
                    assert!(
                        WRITTEN_PATHS.contains(&path.as_str()) && model.versions.contains_key(path),
                        "seed {seed} {what}: the table holds {path}"
                    );
                    assert_eq!(
                        file.held.len(),
                        model.pending_repl.get(path).map_or(0, BTreeMap::len),
                        "seed {seed} {what}: casts held for {path} after {request:?}"
                    );
                }
            };
            // More casts than a path may hold back: the newest are
            // dropped, but the one that fills the gap is never held, so
            // it applies even with the queue full and drains the held
            // ones in order. One cast fewer, and it fills all the same.
            let held = MAX_PENDING_REPL as u64;
            for (path, last, drained) in [("/d/b", held + 40, held + 1), ("/d/c.af", held, held)] {
                for seq in 2..=last {
                    let cast = write_request(OP_REPL, path, seq % 50, seq, b"held");
                    step(&mut model, cast, "flood");
                }
                let queued = server.files.read()[path].held.len();
                assert_eq!(queued, MAX_PENDING_REPL.min(last as usize - 1));
                let fill = write_request(OP_REPL, path, 0, 1, b"gap");
                step(&mut model, fill, "fill");
                assert_eq!(server.version(path), drained);
            }
            for n in 0..1500 {
                if n % 300 == 150 {
                    // Every path is written, which pins its file, then
                    // changed behind the server's back, then read back
                    // while the pins taken before the change are still in
                    // the table.
                    for change in 0..4 {
                        let what = format!("step {n} out-of-band change {change}");
                        for path in WRITTEN_PATHS {
                            let put = write_request(OP_PUT, path, 0, 0, b"pinned");
                            step(&mut model, put, &what);
                        }
                        let answered = out_of_band(server.vfs(), change);
                        let modelled = out_of_band(&model.vfs, change);
                        assert_eq!(answered, modelled, "seed {seed} {what}");
                        for path in WRITTEN_PATHS {
                            step(&mut model, get_request(path, 0, 64, 0), &what);
                            step(&mut model, stat_request(path, 0), &what);
                        }
                    }
                }
                let request = request(&mut rng, &server);
                step(&mut model, request, &format!("step {n}"));
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
    fn a_read_pins_again_what_a_delete_of_another_path_ended() {
        let (server, client) = setup();
        server.seed("/keep", b"kept");
        server.seed("/gone", b"gone");
        let pin = || server.files.read()["/keep"].pin.get();
        assert!(server.vfs().holds(pin()));
        let gone = VPath::parse("/gone").expect("path");
        server.vfs().delete(&gone).expect("out-of-band delete");
        assert!(!server.vfs().holds(pin()), "a delete ends every pin");
        assert_eq!(client.get("/keep", 0, 8).expect("first get"), b"kept");
        let refreshed = pin();
        assert!(
            server.vfs().holds(refreshed),
            "the first read pinned it again"
        );
        assert_eq!(client.get("/keep", 0, 8).expect("second get"), b"kept");
        assert_eq!(pin(), refreshed, "the second read went through that pin");
        assert_eq!(client.stat("/keep").expect("stat").len, 4);
        assert_eq!(pin(), refreshed);
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
