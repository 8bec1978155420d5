//! The persistence substrate a [`crate::PageStore`] sits on.
//!
//! A medium owns two byte areas: the *pages* area (checkpointed content
//! behind a small header) and the *WAL* area (the redo log). The two real
//! media are [`VfsMedium`] — NTFS-style named streams of the active file,
//! so durability travels with the file — and [`MemMedium`], whose byte
//! images can be captured and re-installed, which is what the
//! crash-injection harness cuts at arbitrary byte positions.

use std::cell::Cell;
use std::sync::Arc;

use parking_lot::Mutex;

use afs_vfs::{Pin, VPath, Vfs, VfsError};

use crate::StoreError;

/// Stream name of the checkpointed pages area (`file:store.pages`).
pub const PAGES_STREAM: &str = "store.pages";
/// Stream name of the write-ahead log (`file:store.wal`).
pub const WAL_STREAM: &str = "store.wal";

/// A two-area persistence substrate. All offsets are bytes; `sync` is the
/// fsync barrier (a no-op for these in-memory media — the *cost* of the
/// barrier is charged by the store, which is what the simulation
/// measures).
pub trait StoreMedium: Send + std::fmt::Debug {
    /// Reads the whole pages area.
    fn read_pages(&self) -> Result<Vec<u8>, StoreError>;
    /// Writes `data` into the pages area at `offset`, zero-extending.
    fn write_pages_at(&self, offset: u64, data: &[u8]) -> Result<(), StoreError>;
    /// Truncates (or zero-extends) the pages area.
    fn set_pages_len(&self, len: u64) -> Result<(), StoreError>;
    /// Reads the whole WAL area.
    fn read_wal(&self) -> Result<Vec<u8>, StoreError>;
    /// Appends `data` to the WAL area.
    fn append_wal(&self, data: &[u8]) -> Result<(), StoreError>;
    /// Truncates the WAL area to `len` bytes.
    fn truncate_wal(&self, len: u64) -> Result<(), StoreError>;
    /// The fsync barrier.
    fn sync(&self) -> Result<(), StoreError>;
}

#[derive(Debug, Default)]
struct MemAreas {
    pages: Vec<u8>,
    wal: Vec<u8>,
}

/// An in-memory medium whose areas outlive the store: clones share the
/// same byte images, so a test can drop a store ("crash"), keep the
/// medium, and reopen over it — or capture the images, cut the WAL at a
/// kill point, and reopen over the damaged copy.
#[derive(Debug, Clone, Default)]
pub struct MemMedium {
    areas: Arc<Mutex<MemAreas>>,
}

impl MemMedium {
    /// An empty medium.
    pub fn new() -> Self {
        MemMedium::default()
    }

    /// A medium pre-loaded with captured (possibly damaged) images.
    pub fn from_parts(pages: Vec<u8>, wal: Vec<u8>) -> Self {
        MemMedium {
            areas: Arc::new(Mutex::new(MemAreas { pages, wal })),
        }
    }

    /// Copies out the current `(pages, wal)` images.
    pub fn images(&self) -> (Vec<u8>, Vec<u8>) {
        let a = self.areas.lock();
        (a.pages.clone(), a.wal.clone())
    }
}

impl StoreMedium for MemMedium {
    fn read_pages(&self) -> Result<Vec<u8>, StoreError> {
        Ok(self.areas.lock().pages.clone())
    }

    fn write_pages_at(&self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        let mut a = self.areas.lock();
        let end = offset as usize + data.len();
        if a.pages.len() < end {
            a.pages.resize(end, 0);
        }
        a.pages[offset as usize..end].copy_from_slice(data);
        Ok(())
    }

    fn set_pages_len(&self, len: u64) -> Result<(), StoreError> {
        self.areas.lock().pages.resize(len as usize, 0);
        Ok(())
    }

    fn read_wal(&self) -> Result<Vec<u8>, StoreError> {
        Ok(self.areas.lock().wal.clone())
    }

    fn append_wal(&self, data: &[u8]) -> Result<(), StoreError> {
        self.areas.lock().wal.extend_from_slice(data);
        Ok(())
    }

    fn truncate_wal(&self, len: u64) -> Result<(), StoreError> {
        self.areas.lock().wal.truncate(len as usize);
        Ok(())
    }

    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// A medium stored in two named streams of a VFS file, so the durable
/// state is part of the active file itself: copying the file copies the
/// store, and reopening the file recovers it.
///
/// The streams are reached through a [`Pin`] of the file, so an append or
/// a page write walks no path while it holds; a delete or rename ends it,
/// and the next call pins the file again (or, if the path no longer names
/// a file, resolves it and fails as an unpinned call would).
#[derive(Debug)]
pub struct VfsMedium {
    vfs: Arc<Vfs>,
    pages: VPath,
    wal: VPath,
    pin: Cell<Pin>,
}

impl VfsMedium {
    /// A medium over `path`'s `store.pages`/`store.wal` streams. `path`
    /// must name an existing file.
    pub fn new(vfs: Arc<Vfs>, path: &VPath) -> Self {
        let file = path.file_path();
        VfsMedium {
            pages: file.with_stream(PAGES_STREAM),
            wal: file.with_stream(WAL_STREAM),
            pin: Cell::default(),
            vfs,
        }
    }

    /// The file's pin: the one held while it holds, else the file pinned
    /// again (one walk of the path; a path that names no file pins
    /// nothing, and the call resolves it).
    fn pinned(&self) -> Pin {
        let pin = self.pin.get();
        if self.vfs.holds(pin) {
            return pin;
        }
        let fresh = self.vfs.pin(&self.wal).unwrap_or_default();
        self.pin.set(fresh);
        fresh
    }

    fn read_area(&self, path: &VPath) -> Result<Vec<u8>, StoreError> {
        match self.vfs.read_stream_to_end(path) {
            Ok(bytes) => Ok(bytes),
            // A stream that was never written reads as empty.
            Err(VfsError::StreamNotFound(_)) => Ok(Vec::new()),
            Err(e) => Err(StoreError::from(e)),
        }
    }
}

impl StoreMedium for VfsMedium {
    fn read_pages(&self) -> Result<Vec<u8>, StoreError> {
        self.read_area(&self.pages)
    }

    fn write_pages_at(&self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        let pin = self.pinned();
        self.vfs
            .write_stream_pinned(pin, &self.pages, offset, data)?;
        Ok(())
    }

    fn set_pages_len(&self, len: u64) -> Result<(), StoreError> {
        let pin = self.pinned();
        self.vfs.set_stream_len_pinned(pin, &self.pages, len)?;
        Ok(())
    }

    fn read_wal(&self) -> Result<Vec<u8>, StoreError> {
        self.read_area(&self.wal)
    }

    fn append_wal(&self, data: &[u8]) -> Result<(), StoreError> {
        let pin = self.pinned();
        self.vfs.append_stream_pinned(pin, &self.wal, data)?;
        Ok(())
    }

    fn truncate_wal(&self, len: u64) -> Result<(), StoreError> {
        let pin = self.pinned();
        match self.vfs.set_stream_len_pinned(pin, &self.wal, len) {
            // A WAL never written is already empty.
            Err(VfsError::StreamNotFound(_) | VfsError::NotFound(_)) if len == 0 => Ok(()),
            other => other.map_err(StoreError::from),
        }
    }

    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_medium_clones_share_images() {
        let m = MemMedium::new();
        let clone = m.clone();
        m.append_wal(b"abc").expect("append");
        m.write_pages_at(2, b"xy").expect("write");
        let (pages, wal) = clone.images();
        assert_eq!(wal, b"abc");
        assert_eq!(pages, &[0, 0, b'x', b'y']);
        clone.truncate_wal(1).expect("truncate");
        assert_eq!(m.read_wal().expect("read"), b"a");
    }

    #[test]
    fn vfs_medium_round_trips_streams() {
        let vfs = Arc::new(Vfs::new());
        let path = VPath::parse("/f.af").expect("path");
        vfs.create_file(&path).expect("create");
        let m = VfsMedium::new(Arc::clone(&vfs), &path);
        assert_eq!(m.read_wal().expect("empty"), b"");
        m.append_wal(b"one").expect("append");
        m.append_wal(b"two").expect("append");
        assert_eq!(m.read_wal().expect("read"), b"onetwo");
        m.truncate_wal(3).expect("truncate");
        assert_eq!(m.read_wal().expect("read"), b"one");
        m.write_pages_at(0, b"pp").expect("pages");
        assert_eq!(m.read_pages().expect("read"), b"pp");
        // The data part is untouched by store traffic.
        assert_eq!(vfs.read_stream_to_end(&path).expect("data part"), b"");
    }

    #[test]
    fn vfs_medium_follows_its_path_across_a_rename_and_a_delete() {
        let vfs = Arc::new(Vfs::new());
        let (path, away) = (VPath::parse("/f.af"), VPath::parse("/g.af"));
        let (path, away) = (path.expect("path"), away.expect("path"));
        vfs.create_file(&path).expect("create");
        let m = VfsMedium::new(Arc::clone(&vfs), &path);
        m.append_wal(b"one").expect("append, pinning the file");
        vfs.rename(&path, &away).expect("rename");
        assert!(m.append_wal(b"lost").is_err(), "the path names no file");
        assert!(m.write_pages_at(0, b"lost").is_err());
        vfs.create_file(&path).expect("a new file at the path");
        m.append_wal(b"two").expect("append to the new file");
        assert_eq!(m.read_wal().expect("read"), b"two");
        vfs.delete(&path).expect("delete");
        vfs.rename(&away, &path).expect("the first file back");
        m.append_wal(b"three").expect("append");
        m.write_pages_at(1, b"p").expect("pages");
        m.set_pages_len(3).expect("pages");
        assert_eq!(m.read_wal().expect("read"), b"onethree");
        assert_eq!(m.read_pages().expect("read"), b"\0p\0");
    }
}
