//! The virtual file system proper.

use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

use parking_lot::RwLock;

use crate::node::{DirNode, FileNode, Node};
use crate::{
    DirEntry, FileAttributes, Metadata, NodeKind, Result, VPath, VfsError, DEFAULT_STREAM,
};

/// Identifies the holder of byte-range locks (a handle, in the file API
/// layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockOwner(pub u64);

/// Shared (read) or exclusive (write) byte-range lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// Concurrent readers allowed.
    Shared,
    /// No other lock may overlap.
    Exclusive,
}

#[derive(Debug, Clone)]
struct RangeLock {
    stream: String,
    start: u64,
    end: u64, // exclusive
    owner: LockOwner,
    kind: LockKind,
}

impl RangeLock {
    fn overlaps(&self, stream: &str, start: u64, end: u64) -> bool {
        self.stream == stream && self.start < end && start < self.end
    }
}

#[derive(Debug)]
struct Inner {
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    root: usize,
    locks: HashMap<usize, Vec<RangeLock>>,
}

/// A file's slot in one [`Vfs`]'s node table, taken at a namespace epoch.
///
/// A pin holds while no [`Vfs::delete`] or [`Vfs::rename`] has run since it
/// was taken: only those free a slot or move a name, so until then the slot
/// is the file the path named. A pinned call ([`Vfs::read_stream_pinned`],
/// [`Vfs::write_stream_pinned`], [`Vfs::stream_len_pinned`]) goes straight
/// to the slot while its pin holds and otherwise resolves the path, exactly
/// as the path form does. `Pin::default()` pins nothing. A pin is only
/// meaningful to the `Vfs` that made it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pin {
    slot: usize,
    /// The epoch it was taken at; 0 is never one.
    epoch: u64,
}

/// A [`Pin`] that readers share and any of them may replace, published
/// seqlock-style: [`get`](PinCell::get) returns a pin one
/// [`set`](PinCell::set) stored whole, or [`Pin::default`] (which never
/// holds) while a store is under way. Of two stores at once, the first
/// stands and the other is skipped.
///
/// Orderings: a store's `Release` fence after it makes `seq` odd pairs
/// with a load's `Acquire` fence before it reads `seq` again, so a load
/// that saw any of the store's fields sees `seq` moved; the store's final
/// `Release` of the even `seq` pairs with the load's first `Acquire`, so
/// a load that saw it sees both fields.
#[derive(Debug, Default)]
pub struct PinCell {
    /// Even while no store is under way; odd during one.
    seq: AtomicU64,
    slot: AtomicUsize,
    epoch: AtomicU64,
}

impl PinCell {
    /// The pin last stored, or [`Pin::default`] while a store is under way.
    pub fn get(&self) -> Pin {
        let seq = self.seq.load(Ordering::Acquire);
        let pin = Pin {
            slot: self.slot.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
        };
        fence(Ordering::Acquire);
        if seq % 2 == 1 || self.seq.load(Ordering::Relaxed) != seq {
            return Pin::default();
        }
        pin
    }

    /// Stores `pin`, unless another store is under way.
    pub fn set(&self, pin: Pin) {
        let seq = self.seq.load(Ordering::Relaxed);
        if seq % 2 == 1
            || (self.seq)
                .compare_exchange(seq, seq + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        fence(Ordering::Release);
        self.slot.store(pin.slot, Ordering::Relaxed);
        self.epoch.store(pin.epoch, Ordering::Relaxed);
        self.seq.store(seq + 2, Ordering::Release);
    }
}

/// A thread-safe in-memory file system with NTFS-style named streams.
///
/// All methods take `&self`; interior locking uses a reader-writer lock.
/// See the [crate docs](crate) for an overview and example.
#[derive(Debug)]
pub struct Vfs {
    inner: RwLock<Inner>,
    ticks: AtomicU64,
    /// The namespace epoch, from 1: bumped, under the write lock, by every
    /// delete and rename. A full `u64`, so it never wraps back to a pin's.
    epoch: AtomicU64,
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::new()
    }
}

impl Vfs {
    /// Creates an empty file system containing only the root directory.
    pub fn new() -> Self {
        let root = Node::Dir(DirNode {
            children: Default::default(),
            created: 0,
            modified: 0,
        });
        Vfs {
            inner: RwLock::new(Inner {
                nodes: vec![Some(root)],
                free: Vec::new(),
                root: 0,
                locks: HashMap::new(),
            }),
            ticks: AtomicU64::new(1),
            epoch: AtomicU64::new(1),
        }
    }

    fn tick(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }

    /// Ends every pin taken so far. Called with the write lock held.
    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    // ---- resolution helpers -------------------------------------------------

    fn resolve(inner: &Inner, path: &VPath) -> Result<usize> {
        let mut idx = inner.root;
        for comp in path.components() {
            let node = inner.nodes[idx].as_ref().expect("live node");
            match node {
                Node::Dir(dir) => {
                    idx = *dir
                        .children
                        .get(comp)
                        .ok_or_else(|| VfsError::NotFound(path.to_string()))?;
                }
                Node::File(_) => return Err(VfsError::NotADirectory(path.to_string())),
            }
        }
        Ok(idx)
    }

    fn resolve_parent<'p>(inner: &Inner, path: &'p VPath) -> Result<(usize, &'p str)> {
        let name = path
            .file_name()
            .ok_or_else(|| VfsError::InvalidPath(path.to_string()))?;
        let parent = path.parent().expect("non-root has parent");
        let idx = Self::resolve(inner, &parent)?;
        match inner.nodes[idx].as_ref().expect("live node") {
            Node::Dir(_) => Ok((idx, name)),
            Node::File(_) => Err(VfsError::NotADirectory(parent.to_string())),
        }
    }

    /// The slot `path` names: `pin`'s while it holds, else the path's walk.
    /// Called with the lock held, so no delete or rename runs meanwhile.
    fn locate(&self, inner: &Inner, pin: Pin, path: &VPath) -> Result<usize> {
        if self.holds(pin) {
            Ok(pin.slot)
        } else {
            Self::resolve(inner, path)
        }
    }

    fn file_at<'a>(inner: &'a Inner, idx: usize, path: &VPath) -> Result<&'a FileNode> {
        match inner.nodes[idx].as_ref().expect("live node") {
            Node::File(f) => Ok(f),
            Node::Dir(_) => Err(VfsError::IsADirectory(path.to_string())),
        }
    }

    fn file_node<'a>(inner: &'a Inner, path: &VPath) -> Result<(usize, &'a FileNode)> {
        let idx = Self::resolve(inner, path)?;
        Ok((idx, Self::file_at(inner, idx, path)?))
    }

    fn file_at_mut<'a>(inner: &'a mut Inner, idx: usize, path: &VPath) -> Result<&'a mut FileNode> {
        match inner.nodes[idx].as_mut().expect("live node") {
            Node::File(f) => Ok(f),
            Node::Dir(_) => Err(VfsError::IsADirectory(path.to_string())),
        }
    }

    fn file_node_mut<'a>(inner: &'a mut Inner, path: &VPath) -> Result<(usize, &'a mut FileNode)> {
        let idx = Self::resolve(inner, path)?;
        Ok((idx, Self::file_at_mut(inner, idx, path)?))
    }

    /// The file a stream write may change, found through `pin`: an
    /// existing, writable file.
    fn writable<'a>(
        &self,
        inner: &'a mut Inner,
        pin: Pin,
        path: &VPath,
    ) -> Result<&'a mut FileNode> {
        let idx = self.locate(inner, pin, path)?;
        let file = Self::file_at_mut(inner, idx, path)?;
        if file.attributes.readonly {
            return Err(VfsError::AccessDenied(path.to_string()));
        }
        Ok(file)
    }

    /// The end of `len` bytes at `offset`, or [`VfsError::OutOfRange`]
    /// when no stream can reach it: the sum overflows or passes
    /// `isize::MAX`.
    fn range_end(path: &VPath, offset: u64, len: usize) -> Result<usize> {
        offset
            .checked_add(len as u64)
            .filter(|&end| end <= isize::MAX as u64)
            .map(|end| end as usize)
            .ok_or_else(|| VfsError::OutOfRange(path.to_string()))
    }

    fn alloc(inner: &mut Inner, node: Node) -> usize {
        if let Some(idx) = inner.free.pop() {
            inner.nodes[idx] = Some(node);
            idx
        } else {
            inner.nodes.push(Some(node));
            inner.nodes.len() - 1
        }
    }

    // ---- namespace operations ----------------------------------------------

    /// Creates a directory. The parent must exist.
    ///
    /// # Errors
    ///
    /// [`VfsError::AlreadyExists`] if the name is taken,
    /// [`VfsError::NotFound`]/[`VfsError::NotADirectory`] if the parent is
    /// missing or not a directory.
    pub fn create_dir(&self, path: &VPath) -> Result<()> {
        let tick = self.tick();
        let mut inner = self.inner.write();
        let (parent, name) = Self::resolve_parent(&inner, path)?;
        if let Node::Dir(dir) = inner.nodes[parent].as_ref().expect("live node") {
            if dir.children.contains_key(name) {
                return Err(VfsError::AlreadyExists(path.to_string()));
            }
        }
        let idx = Self::alloc(
            &mut inner,
            Node::Dir(DirNode {
                children: Default::default(),
                created: tick,
                modified: tick,
            }),
        );
        let name = name.to_owned();
        if let Node::Dir(dir) = inner.nodes[parent].as_mut().expect("live node") {
            dir.children.insert(name, idx);
            dir.modified = tick;
        }
        Ok(())
    }

    /// Creates a directory and all missing ancestors. Existing directories
    /// are not an error.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotADirectory`] if a prefix names a file.
    pub fn create_dir_all(&self, path: &VPath) -> Result<()> {
        let mut cur = VPath::root();
        for comp in path.components() {
            cur = cur.join(comp)?;
            match self.create_dir(&cur) {
                Ok(()) => {}
                Err(VfsError::AlreadyExists(_)) => {
                    if !self.is_dir(&cur) {
                        return Err(VfsError::NotADirectory(cur.to_string()));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Creates an empty file (with an empty default stream).
    ///
    /// # Errors
    ///
    /// [`VfsError::AlreadyExists`] if the name is taken.
    pub fn create_file(&self, path: &VPath) -> Result<()> {
        let tick = self.tick();
        let mut inner = self.inner.write();
        let (parent, name) = Self::resolve_parent(&inner, path)?;
        if let Node::Dir(dir) = inner.nodes[parent].as_ref().expect("live node") {
            if dir.children.contains_key(name) {
                return Err(VfsError::AlreadyExists(path.to_string()));
            }
        }
        let idx = Self::alloc(
            &mut inner,
            Node::File(Box::new(FileNode {
                created: tick,
                modified: tick,
                ..FileNode::default()
            })),
        );
        let name = name.to_owned();
        if let Node::Dir(dir) = inner.nodes[parent].as_mut().expect("live node") {
            dir.children.insert(name, idx);
            dir.modified = tick;
        }
        Ok(())
    }

    /// Deletes a file or an *empty* directory, ending every [`Pin`].
    ///
    /// # Errors
    ///
    /// [`VfsError::NotEmpty`] for non-empty directories,
    /// [`VfsError::AccessDenied`] for read-only files.
    pub fn delete(&self, path: &VPath) -> Result<()> {
        let tick = self.tick();
        let mut inner = self.inner.write();
        let (parent, name) = Self::resolve_parent(&inner, path)?;
        let idx = match inner.nodes[parent].as_ref().expect("live node") {
            Node::Dir(dir) => *dir
                .children
                .get(name)
                .ok_or_else(|| VfsError::NotFound(path.to_string()))?,
            Node::File(_) => unreachable!("parent checked to be a directory"),
        };
        match inner.nodes[idx].as_ref().expect("live node") {
            Node::Dir(dir) if !dir.children.is_empty() => {
                return Err(VfsError::NotEmpty(path.to_string()));
            }
            Node::File(f) if f.attributes.readonly => {
                return Err(VfsError::AccessDenied(path.to_string()));
            }
            _ => {}
        }
        let name = name.to_owned();
        if let Node::Dir(dir) = inner.nodes[parent].as_mut().expect("live node") {
            dir.children.remove(&name);
            dir.modified = tick;
        }
        inner.nodes[idx] = None;
        inner.free.push(idx);
        inner.locks.remove(&idx);
        self.bump_epoch();
        Ok(())
    }

    /// Renames/moves a file or directory, ending every [`Pin`]. The
    /// destination must not exist.
    ///
    /// Because all streams travel with the node, renaming an active file
    /// keeps its data and active parts together (Appendix A).
    ///
    /// # Errors
    ///
    /// [`VfsError::AlreadyExists`] if `to` exists, plus the usual
    /// resolution errors for either path.
    pub fn rename(&self, from: &VPath, to: &VPath) -> Result<()> {
        let tick = self.tick();
        let mut inner = self.inner.write();
        let (to_parent, to_name) = Self::resolve_parent(&inner, to)?;
        if let Node::Dir(dir) = inner.nodes[to_parent].as_ref().expect("live node") {
            if dir.children.contains_key(to_name) {
                return Err(VfsError::AlreadyExists(to.to_string()));
            }
        }
        let (from_parent, from_name) = Self::resolve_parent(&inner, from)?;
        let idx = match inner.nodes[from_parent].as_ref().expect("live node") {
            Node::Dir(dir) => *dir
                .children
                .get(from_name)
                .ok_or_else(|| VfsError::NotFound(from.to_string()))?,
            Node::File(_) => unreachable!("parent checked to be a directory"),
        };
        let from_name = from_name.to_owned();
        let to_name = to_name.to_owned();
        if let Node::Dir(dir) = inner.nodes[from_parent].as_mut().expect("live node") {
            dir.children.remove(&from_name);
            dir.modified = tick;
        }
        if let Node::Dir(dir) = inner.nodes[to_parent].as_mut().expect("live node") {
            dir.children.insert(to_name, idx);
            dir.modified = tick;
        }
        self.bump_epoch();
        Ok(())
    }

    /// Copies a file, carrying **all** streams and attributes — this is
    /// what makes a copy of an active file another active file with the
    /// same data and executable components (§2.1). Locks do not copy.
    ///
    /// # Errors
    ///
    /// [`VfsError::IsADirectory`] if `from` is a directory,
    /// [`VfsError::AlreadyExists`] if `to` exists.
    pub fn copy_file(&self, from: &VPath, to: &VPath) -> Result<()> {
        let tick = self.tick();
        let mut inner = self.inner.write();
        let (_, file) = Self::file_node(&inner, from)?;
        let mut copied = Box::new(file.clone());
        copied.created = tick;
        copied.modified = tick;
        let (to_parent, to_name) = Self::resolve_parent(&inner, to)?;
        if let Node::Dir(dir) = inner.nodes[to_parent].as_ref().expect("live node") {
            if dir.children.contains_key(to_name) {
                return Err(VfsError::AlreadyExists(to.to_string()));
            }
        }
        let idx = Self::alloc(&mut inner, Node::File(copied));
        let to_name = to_name.to_owned();
        if let Node::Dir(dir) = inner.nodes[to_parent].as_mut().expect("live node") {
            dir.children.insert(to_name, idx);
            dir.modified = tick;
        }
        Ok(())
    }

    /// Lists a directory, sorted by name. Hidden entries are included;
    /// filtering is the caller's policy.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotADirectory`] if the path names a file.
    pub fn list_dir(&self, path: &VPath) -> Result<Vec<DirEntry>> {
        let inner = self.inner.read();
        let idx = Self::resolve(&inner, path)?;
        let Node::Dir(dir) = inner.nodes[idx].as_ref().expect("live node") else {
            return Err(VfsError::NotADirectory(path.to_string()));
        };
        Ok(dir
            .children
            .iter()
            .map(|(name, &child)| {
                let node = inner.nodes[child].as_ref().expect("live node");
                match node {
                    Node::File(f) => DirEntry {
                        name: name.clone(),
                        kind: NodeKind::File,
                        len: f.data.len() as u64,
                        attributes: f.attributes,
                    },
                    Node::Dir(_) => DirEntry {
                        name: name.clone(),
                        kind: NodeKind::Directory,
                        len: 0,
                        attributes: FileAttributes::default(),
                    },
                }
            })
            .collect())
    }

    /// Returns metadata for a file or directory.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if the path does not resolve.
    pub fn stat(&self, path: &VPath) -> Result<Metadata> {
        let inner = self.inner.read();
        let idx = Self::resolve(&inner, path)?;
        Ok(match inner.nodes[idx].as_ref().expect("live node") {
            Node::File(f) => Metadata {
                kind: NodeKind::File,
                len: f.data.len() as u64,
                total_len: f.total_len(),
                streams: f.stream_names(),
                attributes: f.attributes,
                created: f.created,
                modified: f.modified,
            },
            Node::Dir(d) => Metadata {
                kind: NodeKind::Directory,
                len: 0,
                total_len: 0,
                streams: Vec::new(),
                attributes: FileAttributes::default(),
                created: d.created,
                modified: d.modified,
            },
        })
    }

    /// `true` if the path resolves to anything.
    pub fn exists(&self, path: &VPath) -> bool {
        Self::resolve(&self.inner.read(), path).is_ok()
    }

    /// `true` if the path resolves to a directory.
    pub fn is_dir(&self, path: &VPath) -> bool {
        let inner = self.inner.read();
        Self::resolve(&inner, path)
            .map(|idx| inner.nodes[idx].as_ref().expect("live node").kind() == NodeKind::Directory)
            .unwrap_or(false)
    }

    /// `true` if the path resolves to a file.
    pub fn is_file(&self, path: &VPath) -> bool {
        let inner = self.inner.read();
        Self::resolve(&inner, path)
            .map(|idx| inner.nodes[idx].as_ref().expect("live node").kind() == NodeKind::File)
            .unwrap_or(false)
    }

    // ---- pins ----------------------------------------------------------------

    /// Pins the file `path` names (its stream suffix aside), for the
    /// pinned calls to reach without walking the path.
    ///
    /// # Errors
    ///
    /// Resolution errors if the path is not a file.
    pub fn pin(&self, path: &VPath) -> Result<Pin> {
        let inner = self.inner.read();
        let (slot, _) = Self::file_node(&inner, path)?;
        let epoch = self.epoch.load(Ordering::Acquire);
        Ok(Pin { slot, epoch })
    }

    /// `true` while `pin` names the file it was taken for: no delete or
    /// rename has run since. Without the lock this is a hint; a pinned
    /// call checks again under it.
    pub fn holds(&self, pin: Pin) -> bool {
        pin.epoch == self.epoch.load(Ordering::Acquire)
    }

    // ---- stream I/O ----------------------------------------------------------

    /// Reads from the stream addressed by `path` (default stream unless the
    /// path carries a `:stream` suffix) starting at `offset`, filling as
    /// much of `buf` as the stream allows. Returns the bytes read (0 at or
    /// past end-of-stream).
    ///
    /// # Errors
    ///
    /// [`VfsError::StreamNotFound`] if the named stream does not exist.
    pub fn read_stream(&self, path: &VPath, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.read_stream_pinned(Pin::default(), path, offset, buf)
    }

    /// [`read_stream`](Vfs::read_stream) of `path`'s stream in the file
    /// `pin` names while it holds.
    ///
    /// # Errors
    ///
    /// As [`Vfs::read_stream`].
    pub fn read_stream_pinned(
        &self,
        pin: Pin,
        path: &VPath,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize> {
        self.read_range(pin, path, offset, buf.len(), |bytes| {
            buf[..bytes.len()].copy_from_slice(bytes);
        })
    }

    /// [`read_stream_pinned`](Vfs::read_stream_pinned) of up to `len`
    /// bytes, appended to `out`: the bytes go from the stream to the end
    /// of `out` in one copy, with nothing zero-filled first.
    ///
    /// # Errors
    ///
    /// As [`Vfs::read_stream`].
    pub fn read_stream_pinned_into(
        &self,
        pin: Pin,
        path: &VPath,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<usize> {
        self.read_range(pin, path, offset, len, |bytes| out.extend_from_slice(bytes))
    }

    /// Hands `take` up to `len` bytes of `path`'s stream from `offset`
    /// (none at or past its end), in the file `pin` names while it holds;
    /// returns how many.
    fn read_range(
        &self,
        pin: Pin,
        path: &VPath,
        offset: u64,
        len: usize,
        take: impl FnOnce(&[u8]),
    ) -> Result<usize> {
        let inner = self.inner.read();
        let file = Self::file_at(&inner, self.locate(&inner, pin, path)?, path)?;
        let data = file
            .stream(path.stream())
            .ok_or_else(|| VfsError::StreamNotFound(path.to_string()))?;
        let start = (offset as usize).min(data.len());
        let n = len.min(data.len() - start);
        take(&data[start..start + n]);
        Ok(n)
    }

    /// Reads an entire stream into a vector.
    ///
    /// # Errors
    ///
    /// Same as [`Vfs::read_stream`].
    pub fn read_stream_to_end(&self, path: &VPath) -> Result<Vec<u8>> {
        let inner = self.inner.read();
        let (_, file) = Self::file_node(&inner, path)?;
        file.stream(path.stream())
            .cloned()
            .ok_or_else(|| VfsError::StreamNotFound(path.to_string()))
    }

    /// Writes `data` at `offset`, zero-filling any gap and creating the
    /// named stream on first write. Returns the bytes written.
    ///
    /// # Errors
    ///
    /// [`VfsError::AccessDenied`] if the file is read-only;
    /// [`VfsError::OutOfRange`] if `offset + data.len()` is out of reach.
    pub fn write_stream(&self, path: &VPath, offset: u64, data: &[u8]) -> Result<usize> {
        self.write_stream_pinned(Pin::default(), path, offset, data)
    }

    /// [`write_stream`](Vfs::write_stream) to `path`'s stream in the file
    /// `pin` names while it holds.
    ///
    /// # Errors
    ///
    /// As [`Vfs::write_stream`].
    pub fn write_stream_pinned(
        &self,
        pin: Pin,
        path: &VPath,
        offset: u64,
        data: &[u8],
    ) -> Result<usize> {
        let end = Self::range_end(path, offset, data.len())?;
        let tick = self.tick();
        let mut inner = self.inner.write();
        let file = self.writable(&mut inner, pin, path)?;
        let stream = file.stream_or_new(path.stream());
        if stream.len() < end {
            stream.resize(end, 0);
        }
        stream[offset as usize..end].copy_from_slice(data);
        file.modified = tick;
        Ok(data.len())
    }

    /// Appends `data` at the end of the stream, creating it on first
    /// write, under one lock and one path walk. Returns the offset the
    /// bytes landed at.
    ///
    /// # Errors
    ///
    /// Same as [`Vfs::write_stream`].
    pub fn append_stream(&self, path: &VPath, data: &[u8]) -> Result<u64> {
        let tick = self.tick();
        let mut inner = self.inner.write();
        let file = self.writable(&mut inner, Pin::default(), path)?;
        let stream = file.stream_or_new(path.stream());
        let at = stream.len() as u64;
        Self::range_end(path, at, data.len())?;
        stream.extend_from_slice(data);
        file.modified = tick;
        Ok(at)
    }

    /// Replaces the stream's entire contents, in the stream's own buffer
    /// when it has room: a sentinel that writes its cache back at close
    /// allocates nothing, on whichever thread runs the close.
    ///
    /// # Errors
    ///
    /// Same as [`Vfs::write_stream`].
    pub fn write_stream_replace(&self, path: &VPath, data: &[u8]) -> Result<()> {
        let tick = self.tick();
        let mut inner = self.inner.write();
        let file = self.writable(&mut inner, Pin::default(), path)?;
        let stream = file.stream_or_new(path.stream());
        stream.clear();
        stream.extend_from_slice(data);
        file.modified = tick;
        Ok(())
    }

    /// Current length of the stream addressed by `path`.
    ///
    /// # Errors
    ///
    /// [`VfsError::StreamNotFound`] if the stream does not exist.
    pub fn stream_len(&self, path: &VPath) -> Result<u64> {
        self.stream_len_pinned(Pin::default(), path)
    }

    /// [`stream_len`](Vfs::stream_len) of `path`'s stream in the file
    /// `pin` names while it holds.
    ///
    /// # Errors
    ///
    /// As [`Vfs::stream_len`].
    pub fn stream_len_pinned(&self, pin: Pin, path: &VPath) -> Result<u64> {
        let inner = self.inner.read();
        let file = Self::file_at(&inner, self.locate(&inner, pin, path)?, path)?;
        file.stream(path.stream())
            .map(|s| s.len() as u64)
            .ok_or_else(|| VfsError::StreamNotFound(path.to_string()))
    }

    /// Truncates or zero-extends the stream to `len`.
    ///
    /// # Errors
    ///
    /// [`VfsError::AccessDenied`] if the file is read-only;
    /// [`VfsError::StreamNotFound`] if the stream does not exist;
    /// [`VfsError::OutOfRange`] if `len` is out of reach.
    pub fn set_stream_len(&self, path: &VPath, len: u64) -> Result<()> {
        let len = Self::range_end(path, len, 0)?;
        let tick = self.tick();
        let mut inner = self.inner.write();
        let file = self.writable(&mut inner, Pin::default(), path)?;
        let stream = file
            .stream_mut(path.stream())
            .ok_or_else(|| VfsError::StreamNotFound(path.to_string()))?;
        stream.resize(len, 0);
        file.modified = tick;
        Ok(())
    }

    /// Deletes a named stream (the default stream cannot be deleted).
    ///
    /// # Errors
    ///
    /// [`VfsError::InvalidPath`] when addressing the default stream,
    /// [`VfsError::StreamNotFound`] if the stream does not exist.
    pub fn delete_stream(&self, path: &VPath) -> Result<()> {
        if path.stream() == DEFAULT_STREAM {
            return Err(VfsError::InvalidPath(path.to_string()));
        }
        let tick = self.tick();
        let mut inner = self.inner.write();
        let (_, file) = Self::file_node_mut(&mut inner, path)?;
        if file.named.remove(path.stream()).is_none() {
            return Err(VfsError::StreamNotFound(path.to_string()));
        }
        file.modified = tick;
        Ok(())
    }

    /// Sets or clears the read-only attribute.
    ///
    /// # Errors
    ///
    /// Resolution errors if the path is not a file.
    pub fn set_readonly(&self, path: &VPath, readonly: bool) -> Result<()> {
        let tick = self.tick();
        let mut inner = self.inner.write();
        let (_, file) = Self::file_node_mut(&mut inner, path)?;
        file.attributes.readonly = readonly;
        file.modified = tick;
        Ok(())
    }

    /// Sets or clears the hidden attribute.
    ///
    /// # Errors
    ///
    /// Resolution errors if the path is not a file.
    pub fn set_hidden(&self, path: &VPath, hidden: bool) -> Result<()> {
        let tick = self.tick();
        let mut inner = self.inner.write();
        let (_, file) = Self::file_node_mut(&mut inner, path)?;
        file.attributes.hidden = hidden;
        file.modified = tick;
        Ok(())
    }

    // ---- byte-range locks -----------------------------------------------------

    /// Acquires a byte-range lock on the stream addressed by `path`.
    ///
    /// Lock semantics follow NT `LockFile`: exclusive locks conflict with
    /// any overlapping lock by another owner; shared locks conflict only
    /// with overlapping exclusive locks. Locking never blocks — callers
    /// poll or fail, as the Win32 API does.
    ///
    /// # Errors
    ///
    /// [`VfsError::LockConflict`] on overlap.
    pub fn lock_range(
        &self,
        path: &VPath,
        owner: LockOwner,
        start: u64,
        len: u64,
        kind: LockKind,
    ) -> Result<()> {
        let mut inner = self.inner.write();
        let (idx, _) = Self::file_node(&inner, path)?;
        let end = start.saturating_add(len);
        let locks = inner.locks.entry(idx).or_default();
        for lock in locks.iter() {
            if lock.owner != owner && lock.overlaps(path.stream(), start, end) {
                let conflict = kind == LockKind::Exclusive || lock.kind == LockKind::Exclusive;
                if conflict {
                    return Err(VfsError::LockConflict(path.to_string()));
                }
            }
        }
        locks.push(RangeLock {
            stream: path.stream().to_owned(),
            start,
            end,
            owner,
            kind,
        });
        Ok(())
    }

    /// Releases one previously acquired lock with identical coordinates.
    ///
    /// # Errors
    ///
    /// [`VfsError::LockConflict`] if no matching lock is held by `owner`.
    pub fn unlock_range(&self, path: &VPath, owner: LockOwner, start: u64, len: u64) -> Result<()> {
        let mut inner = self.inner.write();
        let (idx, _) = Self::file_node(&inner, path)?;
        let end = start.saturating_add(len);
        let locks = inner.locks.entry(idx).or_default();
        let pos = locks
            .iter()
            .position(|l| {
                l.owner == owner && l.stream == path.stream() && l.start == start && l.end == end
            })
            .ok_or_else(|| VfsError::LockConflict(path.to_string()))?;
        locks.remove(pos);
        Ok(())
    }

    /// Releases every lock held by `owner` on the file (handle close).
    pub fn unlock_all(&self, path: &VPath, owner: LockOwner) {
        let mut inner = self.inner.write();
        if let Ok((idx, _)) = Self::file_node(&inner, path) {
            if let Some(locks) = inner.locks.get_mut(&idx) {
                locks.retain(|l| l.owner != owner);
            }
        }
    }

    /// Checks whether `owner` may access `[start, start+len)` of the stream
    /// for reading (`kind == Shared`) or writing (`kind == Exclusive`)
    /// given current locks by *other* owners.
    ///
    /// # Errors
    ///
    /// [`VfsError::LockConflict`] if a conflicting lock exists.
    pub fn check_access(
        &self,
        path: &VPath,
        owner: LockOwner,
        start: u64,
        len: u64,
        kind: LockKind,
    ) -> Result<()> {
        let inner = self.inner.read();
        let (idx, _) = Self::file_node(&inner, path)?;
        let end = start.saturating_add(len);
        if let Some(locks) = inner.locks.get(&idx) {
            for lock in locks {
                if lock.owner != owner && lock.overlaps(path.stream(), start, end) {
                    let conflict = kind == LockKind::Exclusive || lock.kind == LockKind::Exclusive;
                    if conflict {
                        return Err(VfsError::LockConflict(path.to_string()));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s).expect("valid path")
    }

    fn vfs_with_file(path: &str) -> Vfs {
        let vfs = Vfs::new();
        let vp = p(path);
        if let Some(parent) = vp.parent() {
            vfs.create_dir_all(&parent).expect("mkdirs");
        }
        vfs.create_file(&vp).expect("create");
        vfs
    }

    #[test]
    fn a_pin_cell_never_reads_a_torn_pin() {
        let pins = [Pin { slot: 3, epoch: 7 }, Pin { slot: 9, epoch: 2 }];
        let cell = PinCell::default();
        assert_eq!(cell.get(), Pin::default());
        std::thread::scope(|scope| {
            for writer in 0..2 {
                let cell = &cell;
                scope.spawn(move || {
                    for n in 0..20_000 {
                        cell.set(pins[(n + writer) % 2]);
                    }
                });
            }
            for _ in 0..40_000 {
                let pin = cell.get();
                assert!(pins.contains(&pin) || pin == Pin::default(), "{pin:?}");
            }
        });
        cell.set(pins[0]);
        assert_eq!(cell.get(), pins[0], "a store with none under way stands");
    }

    #[test]
    fn create_read_write_roundtrip() {
        let vfs = vfs_with_file("/a/b/f.txt");
        vfs.write_stream(&p("/a/b/f.txt"), 0, b"hello")
            .expect("write");
        assert_eq!(
            vfs.read_stream_to_end(&p("/a/b/f.txt")).expect("read"),
            b"hello"
        );
    }

    #[test]
    fn offset_write_zero_fills_gap() {
        let vfs = vfs_with_file("/f");
        vfs.write_stream(&p("/f"), 4, b"xy").expect("write");
        assert_eq!(
            vfs.read_stream_to_end(&p("/f")).expect("read"),
            vec![0, 0, 0, 0, b'x', b'y']
        );
    }

    #[test]
    fn partial_read_past_end() {
        let vfs = vfs_with_file("/f");
        vfs.write_stream(&p("/f"), 0, b"abc").expect("write");
        let mut buf = [0u8; 8];
        assert_eq!(vfs.read_stream(&p("/f"), 1, &mut buf).expect("read"), 2);
        assert_eq!(&buf[..2], b"bc");
        assert_eq!(vfs.read_stream(&p("/f"), 10, &mut buf).expect("read"), 0);
    }

    #[test]
    fn named_streams_are_independent() {
        let vfs = vfs_with_file("/x.af");
        vfs.write_stream(&p("/x.af"), 0, b"data part")
            .expect("write data");
        vfs.write_stream(&p("/x.af:active"), 0, b"active part")
            .expect("write active");
        assert_eq!(
            vfs.read_stream_to_end(&p("/x.af")).expect("read"),
            b"data part"
        );
        assert_eq!(
            vfs.read_stream_to_end(&p("/x.af:active")).expect("read"),
            b"active part"
        );
        let meta = vfs.stat(&p("/x.af")).expect("stat");
        assert_eq!(meta.streams, vec![String::new(), "active".to_owned()]);
        assert_eq!(meta.len, 9);
        assert_eq!(meta.total_len, 9 + 11);
    }

    #[test]
    fn copy_carries_all_streams() {
        let vfs = vfs_with_file("/orig.af");
        vfs.write_stream(&p("/orig.af"), 0, b"d").expect("w");
        vfs.write_stream(&p("/orig.af:active"), 0, b"sentinel-spec")
            .expect("w");
        vfs.copy_file(&p("/orig.af"), &p("/copy.af")).expect("copy");
        assert_eq!(
            vfs.read_stream_to_end(&p("/copy.af:active")).expect("read"),
            b"sentinel-spec"
        );
        // Independent after copy.
        vfs.write_stream(&p("/copy.af"), 0, b"X").expect("w");
        assert_eq!(vfs.read_stream_to_end(&p("/orig.af")).expect("read"), b"d");
    }

    #[test]
    fn rename_preserves_streams() {
        let vfs = vfs_with_file("/a.af");
        vfs.write_stream(&p("/a.af:active"), 0, b"s").expect("w");
        vfs.rename(&p("/a.af"), &p("/b.af")).expect("rename");
        assert!(!vfs.exists(&p("/a.af")));
        assert_eq!(
            vfs.read_stream_to_end(&p("/b.af:active")).expect("read"),
            b"s"
        );
    }

    #[test]
    fn delete_file_and_empty_dir() {
        let vfs = Vfs::new();
        vfs.create_dir(&p("/d")).expect("mkdir");
        vfs.create_file(&p("/d/f")).expect("touch");
        assert_eq!(vfs.delete(&p("/d")), Err(VfsError::NotEmpty("/d".into())));
        vfs.delete(&p("/d/f")).expect("rm file");
        vfs.delete(&p("/d")).expect("rm dir");
        assert!(!vfs.exists(&p("/d")));
    }

    #[test]
    fn readonly_blocks_writes_and_delete() {
        let vfs = vfs_with_file("/ro");
        vfs.set_readonly(&p("/ro"), true).expect("set ro");
        assert!(matches!(
            vfs.write_stream(&p("/ro"), 0, b"x"),
            Err(VfsError::AccessDenied(_))
        ));
        assert!(matches!(
            vfs.delete(&p("/ro")),
            Err(VfsError::AccessDenied(_))
        ));
        vfs.set_readonly(&p("/ro"), false).expect("clear ro");
        vfs.write_stream(&p("/ro"), 0, b"x")
            .expect("write after clear");
    }

    #[test]
    fn list_dir_is_sorted_and_typed() {
        let vfs = Vfs::new();
        vfs.create_file(&p("/b")).expect("b");
        vfs.create_dir(&p("/a")).expect("a");
        let entries = vfs.list_dir(&VPath::root()).expect("list");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "a");
        assert_eq!(entries[0].kind, NodeKind::Directory);
        assert_eq!(entries[1].name, "b");
        assert_eq!(entries[1].kind, NodeKind::File);
    }

    #[test]
    fn node_slots_are_reused() {
        let vfs = Vfs::new();
        for i in 0..100 {
            let path = p(&format!("/f{}", i % 3));
            vfs.create_file(&path).expect("create");
            vfs.delete(&path).expect("delete");
        }
        let inner = vfs.inner.read();
        assert!(
            inner.nodes.len() < 10,
            "free list should bound arena growth"
        );
    }

    #[test]
    fn exclusive_lock_conflicts() {
        let vfs = vfs_with_file("/log");
        let a = LockOwner(1);
        let b = LockOwner(2);
        vfs.lock_range(&p("/log"), a, 0, 10, LockKind::Exclusive)
            .expect("lock a");
        assert!(matches!(
            vfs.lock_range(&p("/log"), b, 5, 10, LockKind::Exclusive),
            Err(VfsError::LockConflict(_))
        ));
        // Non-overlapping is fine.
        vfs.lock_range(&p("/log"), b, 10, 5, LockKind::Exclusive)
            .expect("lock b disjoint");
        // Same owner may re-lock.
        vfs.lock_range(&p("/log"), a, 0, 10, LockKind::Exclusive)
            .expect("re-lock a");
    }

    #[test]
    fn shared_locks_coexist_but_block_writers() {
        let vfs = vfs_with_file("/f");
        let a = LockOwner(1);
        let b = LockOwner(2);
        vfs.lock_range(&p("/f"), a, 0, 100, LockKind::Shared)
            .expect("shared a");
        vfs.lock_range(&p("/f"), b, 0, 100, LockKind::Shared)
            .expect("shared b");
        assert!(vfs
            .check_access(&p("/f"), b, 0, 10, LockKind::Shared)
            .is_ok());
        assert!(matches!(
            vfs.check_access(&p("/f"), b, 0, 10, LockKind::Exclusive),
            Err(VfsError::LockConflict(_))
        ));
    }

    #[test]
    fn unlock_and_unlock_all() {
        let vfs = vfs_with_file("/f");
        let a = LockOwner(1);
        vfs.lock_range(&p("/f"), a, 0, 10, LockKind::Exclusive)
            .expect("lock");
        assert!(
            vfs.unlock_range(&p("/f"), a, 0, 5).is_err(),
            "coordinates must match"
        );
        vfs.unlock_range(&p("/f"), a, 0, 10).expect("unlock");
        vfs.lock_range(&p("/f"), a, 0, 10, LockKind::Exclusive)
            .expect("relock");
        vfs.unlock_all(&p("/f"), a);
        assert!(vfs
            .check_access(&p("/f"), LockOwner(2), 0, 10, LockKind::Exclusive)
            .is_ok());
    }

    #[test]
    fn locks_vanish_with_the_file() {
        let vfs = vfs_with_file("/f");
        vfs.lock_range(&p("/f"), LockOwner(1), 0, 10, LockKind::Exclusive)
            .expect("lock");
        vfs.delete(&p("/f")).expect("delete");
        vfs.create_file(&p("/f")).expect("recreate");
        vfs.check_access(&p("/f"), LockOwner(2), 0, 10, LockKind::Exclusive)
            .expect("fresh file has no locks");
    }

    #[test]
    fn stream_len_and_truncate() {
        let vfs = vfs_with_file("/f");
        vfs.write_stream(&p("/f"), 0, b"0123456789").expect("w");
        assert_eq!(vfs.stream_len(&p("/f")).expect("len"), 10);
        vfs.set_stream_len(&p("/f"), 4).expect("truncate");
        assert_eq!(vfs.read_stream_to_end(&p("/f")).expect("read"), b"0123");
        vfs.set_stream_len(&p("/f"), 6).expect("extend");
        assert_eq!(
            vfs.read_stream_to_end(&p("/f")).expect("read"),
            vec![b'0', b'1', b'2', b'3', 0, 0]
        );
    }

    #[test]
    fn append_lands_at_the_end_and_creates_the_stream() {
        let vfs = vfs_with_file("/f");
        assert_eq!(vfs.append_stream(&p("/f:log"), b"one").expect("a"), 0);
        assert_eq!(vfs.append_stream(&p("/f:log"), b"two").expect("a"), 3);
        assert_eq!(vfs.read_stream_to_end(&p("/f:log")).expect("r"), b"onetwo");
        assert_eq!(vfs.read_stream_to_end(&p("/f")).expect("r"), b"");
        vfs.set_readonly(&p("/f"), true).expect("ro");
        assert!(matches!(
            vfs.append_stream(&p("/f:log"), b"x"),
            Err(VfsError::AccessDenied(_))
        ));
    }

    #[test]
    fn a_range_no_stream_can_reach_is_refused_not_a_panic() {
        let vfs = vfs_with_file("/f");
        vfs.write_stream(&p("/f"), 0, b"kept").expect("w");
        let max = isize::MAX as u64;
        for offset in [u64::MAX - 1, u64::MAX, max - 3] {
            assert!(matches!(
                vfs.write_stream(&p("/f"), offset, b"four"),
                Err(VfsError::OutOfRange(_))
            ));
        }
        for len in [max + 1, u64::MAX] {
            assert!(matches!(
                vfs.set_stream_len(&p("/f"), len),
                Err(VfsError::OutOfRange(_))
            ));
        }
        // The lock was not taken, let alone held through a panic.
        assert_eq!(vfs.read_stream_to_end(&p("/f")).expect("r"), b"kept");
        vfs.write_stream(&p("/f"), 4, b"!").expect("w");
        // The boundary itself is in reach (too large to allocate here).
        assert_eq!(Vfs::range_end(&p("/f"), max - 4, 4), Ok(max as usize));
        assert_eq!(Vfs::range_end(&p("/f"), max, 0), Ok(max as usize));
    }

    #[test]
    fn delete_stream_rules() {
        let vfs = vfs_with_file("/f");
        vfs.write_stream(&p("/f:meta"), 0, b"m").expect("w");
        assert!(
            vfs.delete_stream(&p("/f")).is_err(),
            "default stream protected"
        );
        vfs.delete_stream(&p("/f:meta")).expect("drop stream");
        assert!(matches!(
            vfs.read_stream_to_end(&p("/f:meta")),
            Err(VfsError::StreamNotFound(_))
        ));
    }

    #[test]
    fn modified_tick_advances() {
        let vfs = vfs_with_file("/f");
        let before = vfs.stat(&p("/f")).expect("stat").modified;
        vfs.write_stream(&p("/f"), 0, b"x").expect("w");
        let after = vfs.stat(&p("/f")).expect("stat").modified;
        assert!(after > before);
    }

    #[test]
    fn file_as_directory_component_errors() {
        let vfs = vfs_with_file("/f");
        assert!(matches!(
            vfs.create_file(&p("/f/child")),
            Err(VfsError::NotADirectory(_))
        ));
    }

    #[test]
    fn concurrent_writers_to_distinct_files() {
        let vfs = std::sync::Arc::new(Vfs::new());
        let mut handles = Vec::new();
        for i in 0..8 {
            let vfs = std::sync::Arc::clone(&vfs);
            handles.push(std::thread::spawn(move || {
                let path = p(&format!("/t{i}"));
                vfs.create_file(&path).expect("create");
                for round in 0..50u64 {
                    vfs.write_stream(&path, round * 4, &(round as u32).to_le_bytes())
                        .expect("write");
                }
                assert_eq!(vfs.stream_len(&path).expect("len"), 200);
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
    }
}
