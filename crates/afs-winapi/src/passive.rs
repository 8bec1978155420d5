//! The direct (uninstrumented) implementation of [`FileApi`] over the
//! VFS — the paper's baseline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use afs_sim::{Cost, CostModel};
use afs_vfs::{DirEntry, FileAttributes, LockKind, LockOwner, NodeKind, Pin, PinCell, VPath, Vfs};

use std::collections::HashMap;

use crate::api::{Access, Disposition, FileApi, FileInformation, SeekMethod, ShareMode};
use crate::handle::{Handle, HandleTable};
use crate::{ApiResult, Win32Error};

#[derive(Debug)]
pub(crate) struct OpenFile {
    path: VPath,
    /// The file `path` named at open, or when a delete or rename last
    /// ended the pin: reads, writes and sizes reach it without walking
    /// the path while it holds, and resolve the path as before otherwise.
    pin: PinCell,
    access: Access,
    pos: Mutex<u64>,
    lock_owner: LockOwner,
}

/// One live open recorded in the sharing table.
#[derive(Debug, Clone, Copy)]
struct ShareEntry {
    handle: Handle,
    access: Access,
    share: ShareMode,
}

fn share_compatible(existing: &ShareEntry, access: Access, share: ShareMode) -> bool {
    // NT rules: the new access must be permitted by every existing
    // handle's share mode, and every existing access must be permitted by
    // the new share mode.
    (!access.read || existing.share.read)
        && (!access.write || existing.share.write)
        && (!existing.access.read || share.read)
        && (!existing.access.write || share.write)
}

/// Direct implementation of the Win32 file API against the simulated VFS.
///
/// Each call charges one syscall to the cost model; the VFS content itself
/// is memory-resident (the Figure 6 baselines model their disk/network
/// costs at the point where a sentinel decides which backing it uses).
#[derive(Debug)]
pub struct PassiveFileApi {
    vfs: Arc<Vfs>,
    model: CostModel,
    handles: HandleTable<OpenFile>,
    next_owner: AtomicU64,
    sharing: Mutex<HashMap<String, Vec<ShareEntry>>>,
}

impl PassiveFileApi {
    /// Creates the API over `vfs`, charging to `model`.
    pub fn new(vfs: Arc<Vfs>, model: CostModel) -> Self {
        PassiveFileApi {
            vfs,
            model,
            handles: HandleTable::new(),
            next_owner: AtomicU64::new(1),
            sharing: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying file system (shared).
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    /// The cost model charged by this API.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    fn parse(path: &str) -> ApiResult<VPath> {
        VPath::parse(path).map_err(Win32Error::from)
    }

    /// `open`'s pin, taken again if a delete or rename ended it (a pin
    /// that still cannot be taken pins nothing, and the path resolves).
    fn pinned(&self, open: &OpenFile) -> Pin {
        let pin = open.pin.get();
        if self.vfs.holds(pin) {
            return pin;
        }
        let fresh = self.vfs.pin(&open.path).unwrap_or_default();
        open.pin.set(fresh);
        fresh
    }
}

impl FileApi for PassiveFileApi {
    fn create_file(
        &self,
        path: &str,
        access: Access,
        disposition: Disposition,
    ) -> ApiResult<Handle> {
        self.create_file_shared(path, access, ShareMode::all(), disposition)
    }

    fn create_file_shared(
        &self,
        path: &str,
        access: Access,
        share: ShareMode,
        disposition: Disposition,
    ) -> ApiResult<Handle> {
        self.model.charge(Cost::Syscall);
        let vpath = Self::parse(path)?;
        let file_path = vpath.file_path();
        let exists = self.vfs.is_file(&file_path);
        if self.vfs.is_dir(&file_path) {
            return Err(Win32Error::Directory);
        }
        match disposition {
            Disposition::CreateNew => {
                if exists {
                    return Err(Win32Error::FileExists);
                }
                self.vfs.create_file(&file_path)?;
            }
            Disposition::CreateAlways => {
                if exists {
                    self.vfs.write_stream_replace(&vpath, &[])?;
                } else {
                    self.vfs.create_file(&file_path)?;
                }
            }
            Disposition::OpenExisting => {
                if !exists {
                    return Err(Win32Error::FileNotFound);
                }
            }
            Disposition::OpenAlways => {
                if !exists {
                    self.vfs.create_file(&file_path)?;
                }
            }
            Disposition::TruncateExisting => {
                if !exists {
                    return Err(Win32Error::FileNotFound);
                }
                if !access.write {
                    return Err(Win32Error::AccessDenied);
                }
                self.vfs.write_stream_replace(&vpath, &[])?;
            }
        }
        // Opening a named stream for the first time materialises it lazily
        // on first write; reads of a missing stream report FileNotFound,
        // as NT does.
        // Share-mode admission against every live open of this file.
        let key = file_path.to_string();
        let mut sharing = self.sharing.lock();
        let entries = sharing.entry(key).or_default();
        if entries.iter().any(|e| !share_compatible(e, access, share)) {
            return Err(Win32Error::SharingViolation);
        }
        let owner = LockOwner(self.next_owner.fetch_add(1, Ordering::Relaxed));
        let pin = PinCell::default();
        pin.set(self.vfs.pin(&vpath).unwrap_or_default());
        let handle = self.handles.insert(OpenFile {
            path: vpath,
            pin,
            access,
            pos: Mutex::new(0),
            lock_owner: owner,
        });
        entries.push(ShareEntry {
            handle,
            access,
            share,
        });
        Ok(handle)
    }

    fn read_file(&self, handle: Handle, buf: &mut [u8]) -> ApiResult<usize> {
        self.model.charge(Cost::Syscall);
        let open = self.handles.get(handle)?;
        if !open.access.read {
            return Err(Win32Error::AccessDenied);
        }
        let mut pos = open.pos.lock();
        let pin = self.pinned(&open);
        self.vfs.check_access_pinned(
            pin,
            &open.path,
            open.lock_owner,
            *pos,
            buf.len() as u64,
            LockKind::Shared,
        )?;
        let n = self.vfs.read_stream_pinned(pin, &open.path, *pos, buf)?;
        self.model.charge(Cost::Memcpy { bytes: n });
        *pos += n as u64;
        Ok(n)
    }

    fn write_file(&self, handle: Handle, data: &[u8]) -> ApiResult<usize> {
        self.model.charge(Cost::Syscall);
        let open = self.handles.get(handle)?;
        if !open.access.write {
            return Err(Win32Error::AccessDenied);
        }
        let mut pos = open.pos.lock();
        let pin = self.pinned(&open);
        self.vfs.check_access_pinned(
            pin,
            &open.path,
            open.lock_owner,
            *pos,
            data.len() as u64,
            LockKind::Exclusive,
        )?;
        let n = self.vfs.write_stream_pinned(pin, &open.path, *pos, data)?;
        self.model.charge(Cost::Memcpy { bytes: n });
        *pos += n as u64;
        Ok(n)
    }

    fn close_handle(&self, handle: Handle) -> ApiResult<()> {
        self.model.charge(Cost::Syscall);
        let open = self.handles.remove(handle)?;
        self.vfs.unlock_all(&open.path, open.lock_owner);
        let key = open.path.file_path().to_string();
        let mut sharing = self.sharing.lock();
        if let Some(entries) = sharing.get_mut(&key) {
            entries.retain(|e| e.handle != handle);
            if entries.is_empty() {
                sharing.remove(&key);
            }
        }
        Ok(())
    }

    fn get_file_size(&self, handle: Handle) -> ApiResult<u64> {
        self.model.charge(Cost::Syscall);
        let open = self.handles.get(handle)?;
        let pin = self.pinned(&open);
        Ok(self.vfs.stream_len_pinned(pin, &open.path).unwrap_or(0))
    }

    fn set_file_pointer(&self, handle: Handle, offset: i64, method: SeekMethod) -> ApiResult<u64> {
        self.model.charge(Cost::Syscall);
        let open = self.handles.get(handle)?;
        let mut pos = open.pos.lock();
        let base: i64 = match method {
            SeekMethod::Begin => 0,
            SeekMethod::Current => *pos as i64,
            SeekMethod::End => {
                let pin = self.pinned(&open);
                self.vfs.stream_len_pinned(pin, &open.path).unwrap_or(0) as i64
            }
        };
        let target = base
            .checked_add(offset)
            .ok_or(Win32Error::InvalidParameter)?;
        if target < 0 {
            return Err(Win32Error::InvalidParameter);
        }
        *pos = target as u64;
        Ok(*pos)
    }

    fn read_file_scatter(&self, handle: Handle, bufs: &mut [&mut [u8]]) -> ApiResult<usize> {
        let mut total = 0;
        for buf in bufs.iter_mut() {
            let n = self.read_file(handle, buf)?;
            total += n;
            if n < buf.len() {
                break;
            }
        }
        Ok(total)
    }

    fn write_file_gather(&self, handle: Handle, bufs: &[&[u8]]) -> ApiResult<usize> {
        let mut total = 0;
        for buf in bufs {
            total += self.write_file(handle, buf)?;
        }
        Ok(total)
    }

    fn flush_file_buffers(&self, handle: Handle) -> ApiResult<()> {
        self.model.charge(Cost::Syscall);
        self.handles.get(handle).map(|_| ())
    }

    fn lock_file(&self, handle: Handle, offset: u64, len: u64, exclusive: bool) -> ApiResult<()> {
        self.model.charge(Cost::Syscall);
        let open = self.handles.get(handle)?;
        let kind = if exclusive {
            LockKind::Exclusive
        } else {
            LockKind::Shared
        };
        self.vfs
            .lock_range(&open.path, open.lock_owner, offset, len, kind)
            .map_err(Win32Error::from)
    }

    fn unlock_file(&self, handle: Handle, offset: u64, len: u64) -> ApiResult<()> {
        self.model.charge(Cost::Syscall);
        let open = self.handles.get(handle)?;
        self.vfs
            .unlock_range(&open.path, open.lock_owner, offset, len)
            .map_err(Win32Error::from)
    }

    fn delete_file(&self, path: &str) -> ApiResult<()> {
        self.model.charge(Cost::Syscall);
        let vpath = Self::parse(path)?;
        // NT refuses deletion while any open lacks FILE_SHARE_DELETE.
        {
            let sharing = self.sharing.lock();
            if let Some(entries) = sharing.get(&vpath.file_path().to_string()) {
                if entries.iter().any(|e| !e.share.delete) {
                    return Err(Win32Error::SharingViolation);
                }
            }
        }
        self.vfs
            .delete(&vpath.file_path())
            .map_err(Win32Error::from)
    }

    fn copy_file(&self, from: &str, to: &str) -> ApiResult<()> {
        self.model.charge(Cost::Syscall);
        let from = Self::parse(from)?;
        let to = Self::parse(to)?;
        self.vfs
            .copy_file(&from.file_path(), &to.file_path())
            .map_err(Win32Error::from)
    }

    fn move_file(&self, from: &str, to: &str) -> ApiResult<()> {
        self.model.charge(Cost::Syscall);
        let from = Self::parse(from)?;
        let to = Self::parse(to)?;
        self.vfs
            .rename(&from.file_path(), &to.file_path())
            .map_err(Win32Error::from)
    }

    fn get_file_attributes(&self, path: &str) -> ApiResult<FileAttributes> {
        self.model.charge(Cost::Syscall);
        let vpath = Self::parse(path)?;
        Ok(self.vfs.stat(&vpath.file_path())?.attributes)
    }

    fn find_files(&self, dir: &str) -> ApiResult<Vec<DirEntry>> {
        self.model.charge(Cost::Syscall);
        let vpath = Self::parse(dir)?;
        let meta = self.vfs.stat(&vpath)?;
        if meta.kind != NodeKind::Directory {
            return Err(Win32Error::Directory);
        }
        self.vfs.list_dir(&vpath).map_err(Win32Error::from)
    }

    fn create_directory(&self, path: &str) -> ApiResult<()> {
        self.model.charge(Cost::Syscall);
        let vpath = Self::parse(path)?;
        self.vfs.create_dir(&vpath).map_err(Win32Error::from)
    }

    fn get_file_information(&self, handle: Handle) -> ApiResult<FileInformation> {
        self.model.charge(Cost::Syscall);
        let open = self.handles.get(handle)?;
        let meta = self.vfs.stat(&open.path.file_path())?;
        Ok(FileInformation {
            size: self.vfs.stream_len(&open.path).unwrap_or(0),
            attributes: meta.attributes,
            created: meta.created,
            modified: meta.modified,
        })
    }

    fn set_end_of_file(&self, handle: Handle) -> ApiResult<()> {
        self.model.charge(Cost::Syscall);
        let open = self.handles.get(handle)?;
        if !open.access.write {
            return Err(Win32Error::AccessDenied);
        }
        let pos = *open.pos.lock();
        self.vfs
            .set_stream_len(&open.path, pos)
            .map_err(Win32Error::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn api() -> PassiveFileApi {
        PassiveFileApi::new(Arc::new(Vfs::new()), CostModel::free())
    }

    #[test]
    fn create_write_seek_read() {
        let api = api();
        let h = api
            .create_file("/f.txt", Access::read_write(), Disposition::CreateNew)
            .expect("create");
        assert_eq!(api.write_file(h, b"hello world").expect("write"), 11);
        api.set_file_pointer(h, 6, SeekMethod::Begin).expect("seek");
        let mut buf = [0u8; 5];
        assert_eq!(api.read_file(h, &mut buf).expect("read"), 5);
        assert_eq!(&buf, b"world");
        assert_eq!(api.get_file_size(h).expect("size"), 11);
        api.close_handle(h).expect("close");
    }

    #[test]
    fn dispositions_behave_like_win32() {
        let api = api();
        let h = api
            .create_file("/f", Access::read_write(), Disposition::CreateNew)
            .expect("create new");
        api.write_file(h, b"data").expect("write");
        api.close_handle(h).expect("close");
        assert_eq!(
            api.create_file("/f", Access::read_write(), Disposition::CreateNew),
            Err(Win32Error::FileExists)
        );
        assert_eq!(
            api.create_file("/missing", Access::read_only(), Disposition::OpenExisting),
            Err(Win32Error::FileNotFound)
        );
        // CreateAlways truncates.
        let h = api
            .create_file("/f", Access::read_write(), Disposition::CreateAlways)
            .expect("create always");
        assert_eq!(api.get_file_size(h).expect("size"), 0);
        api.close_handle(h).expect("close");
        // OpenAlways creates when missing.
        let h = api
            .create_file("/new", Access::read_write(), Disposition::OpenAlways)
            .expect("open always");
        api.close_handle(h).expect("close");
        // TruncateExisting needs write access.
        assert_eq!(
            api.create_file("/new", Access::read_only(), Disposition::TruncateExisting),
            Err(Win32Error::AccessDenied)
        );
    }

    #[test]
    fn access_rights_enforced() {
        let api = api();
        let h = api
            .create_file("/f", Access::read_only(), Disposition::OpenAlways)
            .expect("create");
        let mut buf = [0u8; 1];
        assert_eq!(api.read_file(h, &mut buf).expect("read"), 0);
        assert_eq!(api.write_file(h, b"x"), Err(Win32Error::AccessDenied));
        api.close_handle(h).expect("close");
        let h = api
            .create_file("/f", Access::write_only(), Disposition::OpenExisting)
            .expect("open");
        assert_eq!(api.read_file(h, &mut buf), Err(Win32Error::AccessDenied));
        api.write_file(h, b"x").expect("write");
        api.close_handle(h).expect("close");
    }

    #[test]
    fn seek_variants_and_bad_seek() {
        let api = api();
        let h = api
            .create_file("/f", Access::read_write(), Disposition::CreateNew)
            .expect("create");
        api.write_file(h, b"0123456789").expect("write");
        assert_eq!(
            api.set_file_pointer(h, -3, SeekMethod::End).expect("end-3"),
            7
        );
        assert_eq!(
            api.set_file_pointer(h, 1, SeekMethod::Current)
                .expect("cur+1"),
            8
        );
        assert_eq!(
            api.set_file_pointer(h, -20, SeekMethod::Current),
            Err(Win32Error::InvalidParameter)
        );
        api.close_handle(h).expect("close");
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let api = api();
        let h = api
            .create_file("/f", Access::read_write(), Disposition::CreateNew)
            .expect("create");
        api.write_file_gather(h, &[b"ab", b"cd", b"ef"])
            .expect("gather");
        api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
        let mut b1 = [0u8; 3];
        let mut b2 = [0u8; 3];
        let n = api
            .read_file_scatter(h, &mut [&mut b1[..], &mut b2[..]])
            .expect("scatter");
        assert_eq!(n, 6);
        assert_eq!((&b1[..], &b2[..]), (&b"abc"[..], &b"def"[..]));
        api.close_handle(h).expect("close");
    }

    #[test]
    fn locks_block_other_handles() {
        let api = api();
        let h1 = api
            .create_file("/f", Access::read_write(), Disposition::CreateNew)
            .expect("h1");
        api.write_file(h1, b"0123456789").expect("seed");
        let h2 = api
            .create_file("/f", Access::read_write(), Disposition::OpenExisting)
            .expect("h2");
        api.lock_file(h1, 0, 5, true).expect("lock");
        api.set_file_pointer(h2, 0, SeekMethod::Begin)
            .expect("seek");
        assert_eq!(api.write_file(h2, b"XX"), Err(Win32Error::LockViolation));
        // Reads under an exclusive lock by another handle also fail.
        let mut buf = [0u8; 2];
        assert_eq!(api.read_file(h2, &mut buf), Err(Win32Error::LockViolation));
        api.unlock_file(h1, 0, 5).expect("unlock");
        assert_eq!(api.write_file(h2, b"XX").expect("write"), 2);
        api.close_handle(h1).expect("close1");
        api.close_handle(h2).expect("close2");
    }

    #[test]
    fn close_releases_locks() {
        let api = api();
        let h1 = api
            .create_file("/f", Access::read_write(), Disposition::CreateNew)
            .expect("h1");
        api.write_file(h1, b"abcdef").expect("seed");
        api.lock_file(h1, 0, 6, true).expect("lock");
        api.close_handle(h1).expect("close");
        let h2 = api
            .create_file("/f", Access::read_write(), Disposition::OpenExisting)
            .expect("h2");
        api.write_file(h2, b"zz").expect("write freely");
        api.close_handle(h2).expect("close");
    }

    #[test]
    fn named_stream_io_via_api() {
        let api = api();
        let h = api
            .create_file("/f.af:active", Access::read_write(), Disposition::CreateNew)
            .expect("create stream handle");
        api.write_file(h, b"spec").expect("write");
        api.close_handle(h).expect("close");
        let h = api
            .create_file("/f.af", Access::read_only(), Disposition::OpenExisting)
            .expect("default stream");
        assert_eq!(
            api.get_file_size(h).expect("size"),
            0,
            "default stream untouched"
        );
        api.close_handle(h).expect("close");
    }

    #[test]
    fn directory_operations() {
        let api = api();
        api.create_directory("/d").expect("mkdir");
        assert_eq!(api.create_directory("/d"), Err(Win32Error::AlreadyExists));
        let h = api
            .create_file("/d/f", Access::read_write(), Disposition::CreateNew)
            .expect("create");
        api.close_handle(h).expect("close");
        let listing = api.find_files("/d").expect("list");
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].name, "f");
        assert_eq!(api.find_files("/d/f"), Err(Win32Error::Directory));
        assert_eq!(
            api.create_file("/d", Access::read_only(), Disposition::OpenExisting),
            Err(Win32Error::Directory)
        );
    }

    #[test]
    fn copy_and_move_files() {
        let api = api();
        let h = api
            .create_file("/a", Access::read_write(), Disposition::CreateNew)
            .expect("create");
        api.write_file(h, b"payload").expect("write");
        api.close_handle(h).expect("close");
        api.copy_file("/a", "/b").expect("copy");
        api.move_file("/b", "/c").expect("move");
        let h = api
            .create_file("/c", Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 7];
        assert_eq!(api.read_file(h, &mut buf).expect("read"), 7);
        assert_eq!(&buf, b"payload");
        api.close_handle(h).expect("close");
    }

    #[test]
    fn set_end_of_file_truncates_at_pointer() {
        let api = api();
        let h = api
            .create_file("/f", Access::read_write(), Disposition::CreateNew)
            .expect("create");
        api.write_file(h, b"0123456789").expect("write");
        api.set_file_pointer(h, 4, SeekMethod::Begin).expect("seek");
        api.set_end_of_file(h).expect("truncate");
        assert_eq!(api.get_file_size(h).expect("size"), 4);
        api.close_handle(h).expect("close");
    }

    #[test]
    fn file_information_reflects_state() {
        let api = api();
        let h = api
            .create_file("/f", Access::read_write(), Disposition::CreateNew)
            .expect("create");
        api.write_file(h, b"xyz").expect("write");
        let info = api.get_file_information(h).expect("info");
        assert_eq!(info.size, 3);
        assert!(info.modified >= info.created);
        api.close_handle(h).expect("close");
    }

    /// A handle reads, writes and sizes its file through the pin it took
    /// at open: after a delete elsewhere ends the pin, and after a rename
    /// of the file's parent moves its name, each call answers what the
    /// path form answers, bytes and errors alike.
    #[test]
    fn a_pinned_handle_answers_as_the_path_form_does() {
        let api = api();
        let vfs = Arc::clone(api.vfs());
        api.create_directory("/d").expect("mkdir");
        for name in ["/d/f", "/other"] {
            let h = api
                .create_file(name, Access::read_write(), Disposition::CreateNew)
                .expect("create");
            api.write_file(h, b"0123456789").expect("seed");
            api.close_handle(h).expect("close");
        }
        let h = api
            .create_file("/d/f", Access::read_write(), Disposition::OpenExisting)
            .expect("open");
        let path = VPath::parse("/d/f").expect("path");
        // Reads 4 bytes and writes 2 through the handle, then through the
        // path form at the same offsets; both must agree.
        let step = |at: u64, write: &[u8]| {
            api.set_file_pointer(h, at as i64, SeekMethod::Begin)
                .expect("seek");
            let mut by_handle = [0u8; 4];
            let read = api.read_file(h, &mut by_handle);
            let mut by_path = [0u8; 4];
            let expected = vfs
                .read_stream(&path, at, &mut by_path)
                .map_err(Win32Error::from);
            assert_eq!((read, by_handle), (expected, by_path), "read at {at}");
            let wrote = api.write_file(h, write);
            let expected = vfs
                .write_stream(&path, at + 4, write)
                .map_err(Win32Error::from);
            assert_eq!(wrote, expected, "write at {}", at + 4);
            let size = vfs.stream_len(&path).unwrap_or(0);
            assert_eq!(api.get_file_size(h), Ok(size), "size");
        };
        step(0, b"ab");
        api.delete_file("/other").expect("delete another file");
        step(2, b"cd");
        assert_eq!(
            vfs.read_stream_to_end(&path).expect("bytes"),
            b"0123abcd89",
            "both forms wrote through to one file"
        );
        api.move_file("/d", "/e").expect("rename the parent");
        step(0, b"ef");
        assert_eq!(
            api.read_file(h, &mut [0u8; 4]),
            Err(Win32Error::FileNotFound),
            "the name the handle holds is gone"
        );
        api.move_file("/e", "/d").expect("rename it back");
        step(6, b"gh");
        assert_eq!(
            vfs.read_stream_to_end(&path).expect("bytes"),
            b"0123abcd89gh"
        );
    }

    #[test]
    fn operations_on_closed_handle_fail() {
        let api = api();
        let h = api
            .create_file("/f", Access::read_write(), Disposition::CreateNew)
            .expect("create");
        api.close_handle(h).expect("close");
        let mut buf = [0u8; 1];
        assert_eq!(api.read_file(h, &mut buf), Err(Win32Error::InvalidHandle));
        assert_eq!(api.write_file(h, b"x"), Err(Win32Error::InvalidHandle));
        assert_eq!(api.close_handle(h), Err(Win32Error::InvalidHandle));
    }
}
