//! Pluggable cache backings behind one [`StoreBackend`] trait.
//!
//! The sentinel cache layer (`afs-core`'s `CacheStore`) dispatches through
//! this trait so the Figure 5 paths and the durable store are
//! interchangeable:
//!
//! * [`MemBackend`] — the in-memory cache (path 3), charged a user-level
//!   memcpy per access;
//! * [`VfsBackend`] — the active file's data part (path 2), charged
//!   syscall + disk access + per-byte transfer;
//! * [`DurableBackend`] — a [`PageStore`] over the file's
//!   `store.pages`/`store.wal` streams: memory-speed reads, WAL-staged
//!   writes, crash-exact recovery.
//!
//! The cost charges of the first two replicate the pre-trait `CacheStore`
//! arms byte-for-byte — the bench gate holds existing cells bit-identical
//! across this refactor.

use std::sync::Arc;

use afs_sim::{Cost, CostModel};
use afs_telemetry::StoreGauges;

use afs_vfs::{VPath, Vfs};

use crate::medium::VfsMedium;
use crate::store::{
    CheckpointReport, PageStore, RecoveryReport, StoreOptions, StoreStats, SyncMode,
};
use crate::StoreError;

/// Which backing a backend is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// In-memory buffer.
    Memory,
    /// The data part of the active file.
    Disk,
    /// WAL-backed durable page store.
    Durable,
}

/// Positioned storage under the sentinel cache. Implementations charge
/// the cost model for their medium; callers validate address ranges
/// before dispatching (except `set_len`, where only the memory backing
/// historically range-checks).
pub trait StoreBackend: Send + std::fmt::Debug {
    /// Which backing this is.
    fn kind(&self) -> BackendKind;
    /// Reads at `offset` into `buf`, returning bytes read.
    ///
    /// # Errors
    ///
    /// Medium errors.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StoreError>;
    /// Writes `data` at `offset`, extending as needed; returns bytes
    /// written.
    ///
    /// # Errors
    ///
    /// Medium errors.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<usize, StoreError>;
    /// Current length in bytes.
    ///
    /// # Errors
    ///
    /// Medium errors.
    fn len(&self) -> Result<u64, StoreError>;
    /// Whether the content is empty.
    ///
    /// # Errors
    ///
    /// Medium errors.
    fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }
    /// Truncates or zero-extends.
    ///
    /// # Errors
    ///
    /// Medium errors; [`StoreError::InvalidParameter`] from backings that
    /// range-check.
    fn set_len(&mut self, len: u64) -> Result<(), StoreError>;
    /// Replaces the entire contents.
    ///
    /// # Errors
    ///
    /// Medium errors.
    fn replace(&mut self, contents: &[u8]) -> Result<(), StoreError>;
    /// Close-time persistence into the active file's data part
    /// (best-effort, uncharged — matches the historical memory-cache
    /// write-back).
    fn persist(&mut self, vfs: &Vfs, path: &VPath);
    /// Makes buffered state durable (a WAL group commit). No-op for
    /// non-durable backings.
    ///
    /// # Errors
    ///
    /// Medium errors.
    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
    /// Checkpoints the durable store; `None` for backings without one.
    fn checkpoint(&mut self) -> Option<Result<CheckpointReport, StoreError>> {
        None
    }
    /// Durable-store counters; `None` for backings without one.
    fn store_stats(&self) -> Option<StoreStats> {
        None
    }
    /// Switches the durability mode; `false` when unsupported.
    fn set_sync_mode(&mut self, _sync: SyncMode) -> bool {
        false
    }
}

/// The in-memory cache (Figure 5, path 3).
#[derive(Debug)]
pub struct MemBackend {
    data: Vec<u8>,
    model: CostModel,
}

impl MemBackend {
    /// A memory backing warmed with `data`.
    pub fn new(data: Vec<u8>, model: CostModel) -> Self {
        MemBackend { data, model }
    }
}

impl StoreBackend for MemBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StoreError> {
        let start = (offset as usize).min(self.data.len());
        let n = buf.len().min(self.data.len() - start);
        buf[..n].copy_from_slice(&self.data[start..start + n]);
        self.model.charge(Cost::Memcpy { bytes: n });
        Ok(n)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<usize, StoreError> {
        let end = offset as usize + data.len();
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.data[offset as usize..end].copy_from_slice(data);
        self.model.charge(Cost::Memcpy { bytes: data.len() });
        Ok(data.len())
    }

    fn len(&self) -> Result<u64, StoreError> {
        Ok(self.data.len() as u64)
    }

    fn set_len(&mut self, len: u64) -> Result<(), StoreError> {
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l as u64 <= isize::MAX as u64)
            .ok_or(StoreError::InvalidParameter)?;
        self.data.resize(len, 0);
        Ok(())
    }

    fn replace(&mut self, contents: &[u8]) -> Result<(), StoreError> {
        self.data.clear();
        self.data.extend_from_slice(contents);
        self.model.charge(Cost::Memcpy {
            bytes: contents.len(),
        });
        Ok(())
    }

    fn persist(&mut self, vfs: &Vfs, path: &VPath) {
        let _ = vfs.write_stream_replace(path, &self.data);
    }
}

/// The data part of the active file (Figure 5, path 2).
#[derive(Debug)]
pub struct VfsBackend {
    vfs: Arc<Vfs>,
    path: VPath,
    model: CostModel,
}

impl VfsBackend {
    /// A disk backing over `path`'s default stream.
    pub fn new(vfs: Arc<Vfs>, path: VPath, model: CostModel) -> Self {
        VfsBackend { vfs, path, model }
    }
}

impl StoreBackend for VfsBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Disk
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StoreError> {
        self.model.charge(Cost::Syscall);
        self.model.charge(Cost::DiskAccess);
        let n = self.vfs.read_stream(&self.path, offset, buf)?;
        self.model.charge(Cost::DiskReadBytes { bytes: n });
        Ok(n)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<usize, StoreError> {
        self.model.charge(Cost::Syscall);
        let n = self.vfs.write_stream(&self.path, offset, data)?;
        self.model.charge(Cost::DiskWriteBytes { bytes: n });
        Ok(n)
    }

    fn len(&self) -> Result<u64, StoreError> {
        Ok(self.vfs.stream_len(&self.path)?)
    }

    fn set_len(&mut self, len: u64) -> Result<(), StoreError> {
        self.model.charge(Cost::Syscall);
        self.vfs.set_stream_len(&self.path, len)?;
        Ok(())
    }

    fn replace(&mut self, contents: &[u8]) -> Result<(), StoreError> {
        self.model.charge(Cost::Syscall);
        self.vfs.write_stream_replace(&self.path, contents)?;
        self.model.charge(Cost::DiskWriteBytes {
            bytes: contents.len(),
        });
        Ok(())
    }

    fn persist(&mut self, _vfs: &Vfs, _path: &VPath) {
        // The disk cache *is* the data part; nothing to write back.
    }
}

/// The WAL-backed durable store over the active file's
/// `store.pages`/`store.wal` streams.
#[derive(Debug)]
pub struct DurableBackend {
    store: PageStore,
    model: CostModel,
}

impl DurableBackend {
    /// Opens (and recovers) the durable backing for `path`. A fresh store
    /// is seeded from the data part, mirroring the memory cache's warm-up,
    /// so a pre-populated active file reads the same under every backing.
    ///
    /// # Errors
    ///
    /// Store open/recovery errors.
    pub fn open(
        vfs: Arc<Vfs>,
        path: &VPath,
        opts: StoreOptions,
        model: CostModel,
        gauges: Arc<StoreGauges>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let medium = VfsMedium::new(Arc::clone(&vfs), path);
        let (mut store, report) = PageStore::open(Box::new(medium), opts, model.clone(), gauges)?;
        if report.fresh {
            let seed = vfs
                .read_stream_to_end(&path.file_path())
                .unwrap_or_default();
            if !seed.is_empty() {
                store.seed(&seed);
            }
        }
        Ok((DurableBackend { store, model }, report))
    }

    /// The underlying store.
    pub fn store(&self) -> &PageStore {
        &self.store
    }
}

impl StoreBackend for DurableBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Durable
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StoreError> {
        // Reads are memory-speed: the store keeps content resident.
        let n = self.store.read_at(offset, buf);
        self.model.charge(Cost::Memcpy { bytes: n });
        Ok(n)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<usize, StoreError> {
        let n = self.store.write_at(offset, data)?;
        self.model.charge(Cost::Memcpy { bytes: data.len() });
        Ok(n)
    }

    fn len(&self) -> Result<u64, StoreError> {
        Ok(self.store.len())
    }

    fn set_len(&mut self, len: u64) -> Result<(), StoreError> {
        self.store.set_len(len)
    }

    fn replace(&mut self, contents: &[u8]) -> Result<(), StoreError> {
        self.store.replace(contents)?;
        self.model.charge(Cost::Memcpy {
            bytes: contents.len(),
        });
        Ok(())
    }

    fn persist(&mut self, vfs: &Vfs, path: &VPath) {
        // Seal the staged batch, then mirror the content into the data
        // part (uncharged, like the memory write-back) so legacy readers
        // of the plain file see the durable state.
        let _ = self.store.commit();
        let _ = vfs.write_stream_replace(path, self.store.contents());
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.store.commit()?;
        Ok(())
    }

    fn checkpoint(&mut self) -> Option<Result<CheckpointReport, StoreError>> {
        Some(self.store.checkpoint())
    }

    fn store_stats(&self) -> Option<StoreStats> {
        Some(self.store.stats())
    }

    fn set_sync_mode(&mut self, sync: SyncMode) -> bool {
        self.store.set_sync_mode(sync);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn durable(vfs: &Arc<Vfs>, path: &VPath) -> DurableBackend {
        DurableBackend::open(
            Arc::clone(vfs),
            path,
            StoreOptions {
                checkpoint_pages: 0,
                ..StoreOptions::default()
            },
            CostModel::free(),
            Arc::new(StoreGauges::default()),
        )
        .expect("open")
        .0
    }

    #[test]
    fn durable_backend_round_trips_and_recovers() {
        let vfs = Arc::new(Vfs::new());
        let path = VPath::parse("/d.af").expect("path");
        vfs.create_file(&path).expect("create");
        let mut b = durable(&vfs, &path);
        b.write_at(0, b"persist me").expect("write");
        b.flush().expect("flush");
        drop(b); // crash after commit
        let mut b2 = durable(&vfs, &path);
        let mut buf = [0u8; 10];
        assert_eq!(b2.read_at(0, &mut buf).expect("read"), 10);
        assert_eq!(&buf, b"persist me");
    }

    #[test]
    fn fresh_durable_store_seeds_from_data_part() {
        let vfs = Arc::new(Vfs::new());
        let path = VPath::parse("/seeded.af").expect("path");
        vfs.create_file(&path).expect("create");
        vfs.write_stream(&path, 0, b"warm").expect("seed");
        let b = durable(&vfs, &path);
        assert_eq!(b.len().expect("len"), 4);
        assert_eq!(b.store().contents(), b"warm");
    }

    #[test]
    fn persist_mirrors_content_into_data_part() {
        let vfs = Arc::new(Vfs::new());
        let path = VPath::parse("/m.af").expect("path");
        vfs.create_file(&path).expect("create");
        let mut b = durable(&vfs, &path);
        b.write_at(0, b"mirrored").expect("write");
        b.persist(&vfs, &path);
        assert_eq!(vfs.read_stream_to_end(&path).expect("read"), b"mirrored");
    }

    #[test]
    fn mem_backend_matches_legacy_memory_charges() {
        let model = CostModel::new(afs_sim::HardwareProfile::pentium_ii_300());
        let mut b = MemBackend::new(Vec::new(), model.clone());
        b.write_at(2, b"xy").expect("write");
        let mut buf = [0u8; 4];
        assert_eq!(b.read_at(0, &mut buf).expect("read"), 4);
        let snap = model.snapshot();
        assert_eq!(snap.disk_accesses, 0, "memory backing never hits disk");
        assert_eq!(b.len().expect("len"), 4);
        assert_eq!(&buf, &[0, 0, b'x', b'y']);
    }

    #[test]
    fn vfs_backend_charges_disk_per_read() {
        let vfs = Arc::new(Vfs::new());
        let path = VPath::parse("/disk.af").expect("path");
        vfs.create_file(&path).expect("create");
        let model = CostModel::new(afs_sim::HardwareProfile::pentium_ii_300());
        let mut b = VfsBackend::new(Arc::clone(&vfs), path, model.clone());
        b.write_at(0, b"persisted").expect("write");
        let mut buf = [0u8; 9];
        b.read_at(0, &mut buf).expect("read");
        let snap = model.snapshot();
        assert_eq!(snap.disk_accesses, 1, "one access per cache read");
        assert_eq!(snap.disk_bytes, 9 + 9);
    }
}
