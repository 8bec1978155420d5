//! The durable page store: in-memory content, WAL-first durability.
//!
//! All reads and writes act on an in-memory copy of the content; every
//! mutation is *staged* by framing its WAL record straight onto one
//! reusable buffer, so the staged batch is its own WAL image. It becomes
//! durable when the batch commits — a
//! [`Commit`](crate::WalRecord::Commit) seal framed onto the end and that
//! one slice appended (group commit), followed by an fsync barrier. A
//! checkpoint writes the dirty pages (one bit each) into the pages area
//! and truncates the WAL. Reopening replays the committed WAL prefix over
//! the checkpointed pages (redo recovery) and discards any torn tail.
//!
//! Costs are charged to the §4 virtual-time model at the medium boundary:
//! one [`Cost::Syscall`] plus [`Cost::DiskWriteBytes`] per WAL append or
//! checkpoint write, one [`Cost::DiskAccess`] per fsync barrier, and a
//! [`Cost::DiskReadBytes`] scan on open — so durability has an honest,
//! reproducible price in every `OpTrace` and bench cell.

use std::sync::Arc;

use afs_sim::{Cost, CostModel};
use afs_telemetry::StoreGauges;

use crate::medium::StoreMedium;
use crate::wal::{self, KIND_COMMIT, KIND_SET_LEN, KIND_WRITE};
use crate::StoreError;

const MAGIC: &[u8; 4] = b"AFPG";
const VERSION: u32 = 1;
/// Pages-area header: magic, version, page size, content length,
/// checkpoint commit sequence.
pub const PAGES_HEADER: usize = 4 + 4 + 4 + 8 + 8;

/// When the WAL becomes durable relative to the application's writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Commit (append + fsync) after every mutation.
    Always,
    /// Group commit: mutations stage until an explicit commit point
    /// (flush, close, checkpoint), then one append + one fsync.
    #[default]
    Commit,
    /// Commits append but skip the fsync barrier (fast, loses the tail on
    /// a crash — still never corrupts: recovery drops the torn tail).
    Off,
}

impl SyncMode {
    /// Parses `always`/`commit`/`off`.
    pub fn parse(s: &str) -> Option<SyncMode> {
        match s {
            "always" => Some(SyncMode::Always),
            "commit" => Some(SyncMode::Commit),
            "off" => Some(SyncMode::Off),
            _ => None,
        }
    }

    /// The spec-key spelling.
    pub fn label(self) -> &'static str {
        match self {
            SyncMode::Always => "always",
            SyncMode::Commit => "commit",
            SyncMode::Off => "off",
        }
    }
}

/// Store tuning, mapped one-to-one from `SentinelSpec` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Page granularity of the checkpointed area (`page_size=N`).
    pub page_size: u32,
    /// Durability mode (`sync=always|commit|off`).
    pub sync: SyncMode,
    /// Auto-checkpoint once the WAL exceeds this many pages
    /// (`checkpoint_pages=N`); `0` disables auto-checkpointing.
    pub checkpoint_pages: u32,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            page_size: 4096,
            sync: SyncMode::Commit,
            checkpoint_pages: 64,
        }
    }
}

/// What redo recovery found and did on open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Neither a pages area nor a WAL existed — a brand-new store.
    pub fresh: bool,
    /// WAL records replayed (data records inside the committed prefix).
    pub recovered_records: u64,
    /// Commit seals inside the committed prefix.
    pub recovered_commits: u64,
    /// A torn (partial or checksum-failing) WAL tail was detected.
    pub torn_detected: bool,
    /// WAL bytes after the committed prefix, discarded by recovery.
    pub discarded_bytes: u64,
    /// Content length after recovery.
    pub content_len: u64,
}

/// What one checkpoint wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Dirty pages written into the pages area.
    pub pages_written: u64,
    /// WAL bytes truncated away.
    pub wal_truncated_bytes: u64,
}

/// Point-in-time per-store counters (the gauges aggregate across stores).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// WAL records appended (data + commit seals).
    pub wal_appends: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// fsync barriers issued.
    pub fsyncs: u64,
    /// Batches committed.
    pub commits: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Records replayed by recovery when this store opened.
    pub recovered_records: u64,
    /// Whether recovery discarded a torn tail when this store opened.
    pub torn_detected: bool,
    /// Records currently staged (uncommitted).
    pub staged_records: u64,
    /// Durable WAL length in bytes.
    pub wal_len: u64,
    /// Content length in bytes.
    pub content_len: u64,
    /// The current sync mode.
    pub sync: SyncMode,
}

/// A WAL-backed page store over a [`StoreMedium`].
#[derive(Debug)]
pub struct PageStore {
    medium: Box<dyn StoreMedium>,
    content: Vec<u8>,
    /// The staged batch, framed exactly as it will land in the WAL.
    staged: Vec<u8>,
    staged_records: u64,
    /// One bit per page changed since the last checkpoint.
    dirty: Vec<u64>,
    wal_len: u64,
    commit_seq: u64,
    checkpoint_seq: u64,
    opts: StoreOptions,
    model: CostModel,
    gauges: Arc<StoreGauges>,
    stats: StoreStats,
}

fn parse_header(image: &[u8]) -> Result<(u32, u64, u64), StoreError> {
    let bad = |m: &str| StoreError::Corrupt(format!("pages area: {m}"));
    if image.len() < PAGES_HEADER {
        return Err(bad("short header"));
    }
    if &image[..4] != MAGIC {
        return Err(bad("bad magic"));
    }
    let version = u32::from_le_bytes(image[4..8].try_into().expect("4"));
    if version != VERSION {
        return Err(bad("unsupported version"));
    }
    let page_size = u32::from_le_bytes(image[8..12].try_into().expect("4"));
    if page_size == 0 {
        return Err(bad("zero page size"));
    }
    let content_len = u64::from_le_bytes(image[12..20].try_into().expect("8"));
    let checkpoint_seq = u64::from_le_bytes(image[20..28].try_into().expect("8"));
    Ok((page_size, content_len, checkpoint_seq))
}

fn encode_header(page_size: u32, content_len: u64, checkpoint_seq: u64) -> [u8; PAGES_HEADER] {
    let mut h = [0u8; PAGES_HEADER];
    h[..4].copy_from_slice(MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..12].copy_from_slice(&page_size.to_le_bytes());
    h[12..20].copy_from_slice(&content_len.to_le_bytes());
    h[20..28].copy_from_slice(&checkpoint_seq.to_le_bytes());
    h
}

impl PageStore {
    /// Opens (and recovers) a store over `medium`.
    ///
    /// A non-empty pages area must carry a valid header; its stored page
    /// size overrides `opts.page_size`. The WAL's committed prefix is
    /// replayed over the checkpointed content; a torn or uncommitted tail
    /// is truncated away so the durable image always ends at a commit
    /// seal.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for an unreadable pages header; medium
    /// errors pass through.
    pub fn open(
        medium: Box<dyn StoreMedium>,
        mut opts: StoreOptions,
        model: CostModel,
        gauges: Arc<StoreGauges>,
    ) -> Result<(PageStore, RecoveryReport), StoreError> {
        if opts.page_size == 0 {
            return Err(StoreError::InvalidParameter);
        }
        let pages_image = medium.read_pages()?;
        let wal_image = medium.read_wal()?;
        // One open-time scan of both areas: a syscall, a disk access, and
        // the bytes actually read.
        model.charge(Cost::Syscall);
        model.charge(Cost::DiskAccess);
        model.charge(Cost::DiskReadBytes {
            bytes: pages_image.len() + wal_image.len(),
        });

        let fresh = pages_image.is_empty() && wal_image.is_empty();
        let (content, checkpoint_seq) = if pages_image.is_empty() {
            (Vec::new(), 0)
        } else {
            let (page_size, content_len, checkpoint_seq) = parse_header(&pages_image)?;
            opts.page_size = page_size;
            let end = PAGES_HEADER as u64 + content_len;
            if (pages_image.len() as u64) < end {
                return Err(StoreError::Corrupt("pages area shorter than header".into()));
            }
            (
                pages_image[PAGES_HEADER..end as usize].to_vec(),
                checkpoint_seq,
            )
        };

        let scan = wal::scan(&wal_image);
        let mut store = PageStore {
            medium,
            content,
            staged: Vec::new(),
            staged_records: 0,
            dirty: Vec::new(),
            wal_len: scan.committed_len,
            commit_seq: scan.last_commit_seq.max(checkpoint_seq),
            checkpoint_seq,
            opts,
            model,
            gauges,
            stats: StoreStats::default(),
        };
        let mut recovered_records = 0u64;
        let mut recovered_commits = 0u64;
        for record in &scan.records[..scan.committed_records as usize] {
            match record.parts() {
                (KIND_COMMIT, ..) => recovered_commits += 1,
                (kind, word, data) => {
                    store.apply(kind, word, data);
                    recovered_records += 1;
                }
            }
        }
        let discarded = wal_image.len() as u64 - scan.committed_len;
        if discarded > 0 {
            // Cleanly drop the tail so later appends land at a seal.
            store.medium.truncate_wal(scan.committed_len)?;
        }
        store.gauges.recovered(recovered_records);
        if scan.torn {
            store.gauges.torn();
        }
        let report = RecoveryReport {
            fresh,
            recovered_records,
            recovered_commits,
            torn_detected: scan.torn,
            discarded_bytes: discarded,
            content_len: store.len(),
        };
        store.stats = StoreStats {
            recovered_records,
            torn_detected: scan.torn,
            sync: opts.sync,
            ..StoreStats::default()
        };
        Ok((store, report))
    }

    /// Current content length.
    pub fn len(&self) -> u64 {
        self.content.len() as u64
    }

    /// `true` when the content is empty.
    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }

    /// The in-memory content (staged mutations included).
    pub fn contents(&self) -> &[u8] {
        &self.content
    }

    /// The highest committed sequence number.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// The commit sequence the pages area was checkpointed at.
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// The page size in effect.
    pub fn page_size(&self) -> u32 {
        self.opts.page_size
    }

    /// Records staged since the last commit.
    pub fn staged_records(&self) -> u64 {
        self.staged_records
    }

    /// Switches the durability mode at runtime (the consistency knob).
    pub fn set_sync_mode(&mut self, sync: SyncMode) {
        self.opts.sync = sync;
        self.stats.sync = sync;
    }

    /// Per-store counters.
    pub fn stats(&self) -> StoreStats {
        let mut s = self.stats;
        s.staged_records = self.staged_records;
        s.wal_len = self.wal_len;
        s.content_len = self.content.len() as u64;
        s
    }

    /// Reads at `offset` into `buf` (in-memory; the caller charges the
    /// copy if it models one). Returns bytes read.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> usize {
        let start = (offset as usize).min(self.content.len());
        let n = buf.len().min(self.content.len() - start);
        buf[..n].copy_from_slice(&self.content[start..start + n]);
        n
    }

    /// Seeds content without staging a WAL record — used to warm a fresh
    /// store from an active file's data part, mirroring the memory
    /// cache's warm-up. The seed becomes durable at the next checkpoint.
    pub fn seed(&mut self, contents: &[u8]) {
        debug_assert!(self.content.is_empty() && self.wal_len == 0);
        self.apply(KIND_WRITE, 0, contents);
    }

    /// Writes `data` at `offset`, staging a redo record.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidParameter`] for a range past `isize::MAX`
    /// (the WAL range rule); medium errors from an auto-commit
    /// (`sync=always`).
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<usize, StoreError> {
        wal::range_end(offset, data.len()).ok_or(StoreError::InvalidParameter)?;
        self.stage(KIND_WRITE, offset, data);
        self.after_mutation()?;
        Ok(data.len())
    }

    /// Truncates or zero-extends the content, staging a redo record.
    ///
    /// # Errors
    ///
    /// As [`PageStore::write_at`].
    pub fn set_len(&mut self, len: u64) -> Result<(), StoreError> {
        wal::range_end(len, 0).ok_or(StoreError::InvalidParameter)?;
        self.stage(KIND_SET_LEN, len, &[]);
        self.after_mutation()
    }

    /// Replaces the whole content (a truncate plus one write).
    ///
    /// # Errors
    ///
    /// Medium errors from an auto-commit (`sync=always`).
    pub fn replace(&mut self, contents: &[u8]) -> Result<(), StoreError> {
        self.stage(KIND_SET_LEN, contents.len() as u64, &[]);
        if !contents.is_empty() {
            self.stage(KIND_WRITE, 0, contents);
        }
        self.after_mutation()
    }

    /// Applies one mutation to the content and marks the pages it changed:
    /// a write its bytes, a `SetLen` every page in `[min(old, new),
    /// max(old, new))` — bytes a truncate dropped must reach the pages
    /// area as zeros if the content grows back over them.
    fn apply(&mut self, kind: u8, word: u64, data: &[u8]) {
        let old = self.len();
        wal::redo(&mut self.content, kind, word, data);
        let (from, to) = if kind == KIND_WRITE {
            (word, word + data.len() as u64)
        } else {
            (old.min(word), old.max(word))
        };
        if from < to {
            let ps = u64::from(self.opts.page_size);
            let (first, last) = (from / ps, (to - 1) / ps);
            if self.dirty.len() as u64 <= last / 64 {
                self.dirty.resize(last as usize / 64 + 1, 0);
            }
            for page in first..=last {
                self.dirty[page as usize / 64] |= 1 << (page % 64);
            }
        }
    }

    /// Applies one mutation and frames its record onto the staged batch.
    fn stage(&mut self, kind: u8, word: u64, data: &[u8]) {
        self.apply(kind, word, data);
        wal::frame(&mut self.staged, kind, word, data);
        self.staged_records += 1;
    }

    fn after_mutation(&mut self) -> Result<(), StoreError> {
        if self.opts.sync == SyncMode::Always {
            self.commit()?;
        }
        Ok(())
    }

    /// Commits the staged batch: the commit seal framed onto its end, the
    /// whole batch appended in one call, then (unless `sync=off`) an fsync
    /// barrier. Returns the commit sequence, or `None` when nothing was
    /// staged.
    ///
    /// # Errors
    ///
    /// Medium errors; the batch stays staged on failure, without its seal,
    /// so a retry seals it once, with the same sequence number.
    pub fn commit(&mut self) -> Result<Option<u64>, StoreError> {
        if self.staged_records == 0 {
            return Ok(None);
        }
        let seq = self.commit_seq + 1;
        let batch_len = self.staged.len();
        wal::frame(&mut self.staged, KIND_COMMIT, seq, &[]);
        if let Err(e) = self.append_staged() {
            self.staged.truncate(batch_len);
            return Err(e);
        }
        self.wal_len += self.staged.len() as u64;
        self.staged.clear();
        // Steady batches reuse the buffer; a one-off large one is released.
        self.staged.shrink_to(self.opts.page_size as usize);
        self.staged_records = 0;
        self.commit_seq = seq;
        self.gauges.commit();
        self.stats.commits += 1;
        if self.opts.checkpoint_pages > 0
            && self.wal_len
                >= u64::from(self.opts.checkpoint_pages) * u64::from(self.opts.page_size)
        {
            self.checkpoint()?;
        }
        Ok(Some(seq))
    }

    /// Appends the sealed staged batch and, unless `sync=off`, syncs it.
    fn append_staged(&mut self) -> Result<(), StoreError> {
        let bytes = self.staged.len();
        self.medium.append_wal(&self.staged)?;
        self.model.charge(Cost::Syscall);
        self.model.charge(Cost::DiskWriteBytes { bytes });
        self.gauges.wal_append(bytes as u64);
        self.stats.wal_appends += self.staged_records + 1;
        self.stats.wal_bytes += bytes as u64;
        if self.opts.sync != SyncMode::Off {
            self.medium.sync()?;
            self.model.charge(Cost::DiskAccess);
            self.gauges.fsync();
            self.stats.fsyncs += 1;
        }
        Ok(())
    }

    /// Commits, then writes every dirty page (and the header) into the
    /// pages area and truncates the WAL.
    ///
    /// # Errors
    ///
    /// Medium errors.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, StoreError> {
        // Seal the staged batch first so the checkpoint captures it. An
        // auto-checkpoint arrives *from* commit with nothing staged, so
        // this cannot recurse.
        self.commit()?;
        let ps = u64::from(self.opts.page_size);
        let len = self.len();
        let mut pages_written = 0u64;
        let mut bytes_written = 0u64;
        for (i, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let start = (i as u64 * 64 + u64::from(bits.trailing_zeros())) * ps;
                bits &= bits - 1;
                if start >= len {
                    continue;
                }
                let end = (start + ps).min(len);
                self.medium.write_pages_at(
                    PAGES_HEADER as u64 + start,
                    &self.content[start as usize..end as usize],
                )?;
                pages_written += 1;
                bytes_written += end - start;
            }
        }
        let header = encode_header(
            self.opts.page_size,
            self.content.len() as u64,
            self.commit_seq,
        );
        self.medium.write_pages_at(0, &header)?;
        self.medium
            .set_pages_len(PAGES_HEADER as u64 + self.content.len() as u64)?;
        let truncated = self.wal_len;
        self.medium.truncate_wal(0)?;
        self.medium.sync()?;
        // One checkpoint = one syscall burst, the written bytes, and the
        // barrier that makes the truncation safe.
        self.model.charge(Cost::Syscall);
        self.model.charge(Cost::DiskWriteBytes {
            bytes: (bytes_written + PAGES_HEADER as u64) as usize,
        });
        self.model.charge(Cost::DiskAccess);
        self.gauges.checkpoint();
        self.gauges.fsync();
        self.stats.checkpoints += 1;
        self.stats.fsyncs += 1;
        self.wal_len = 0;
        self.checkpoint_seq = self.commit_seq;
        self.dirty.fill(0);
        Ok(CheckpointReport {
            pages_written,
            wal_truncated_bytes: truncated,
        })
    }

    /// Flattens the store into a standalone image (header + content), the
    /// `serialize` half of rusqlite's serialize/deserialize pair. Staged
    /// (uncommitted) mutations are included — it is a logical snapshot of
    /// what the store currently reads as.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PAGES_HEADER + self.content.len());
        out.extend_from_slice(&encode_header(
            self.opts.page_size,
            self.content.len() as u64,
            self.commit_seq,
        ));
        out.extend_from_slice(&self.content);
        out
    }

    /// Rebuilds a store from a [`PageStore::serialize`] image onto a fresh
    /// `medium`, checkpointing immediately so the medium holds the image
    /// durably.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for a malformed image; medium errors.
    pub fn deserialize(
        image: &[u8],
        medium: Box<dyn StoreMedium>,
        opts: StoreOptions,
        model: CostModel,
        gauges: Arc<StoreGauges>,
    ) -> Result<PageStore, StoreError> {
        let (page_size, content_len, seq) = parse_header(image)?;
        let end = PAGES_HEADER as u64 + content_len;
        if (image.len() as u64) < end {
            return Err(StoreError::Corrupt("image shorter than header".into()));
        }
        let (mut store, _) =
            PageStore::open(medium, StoreOptions { page_size, ..opts }, model, gauges)?;
        store.replace(&image[PAGES_HEADER..end as usize])?;
        store.commit_seq = store.commit_seq.max(seq);
        store.checkpoint()?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    use super::*;
    use crate::checksum::tests::crc32_bytewise;
    use crate::medium::MemMedium;
    use crate::wal::WalRecord;

    fn open_mem(medium: &MemMedium, opts: StoreOptions) -> (PageStore, RecoveryReport) {
        PageStore::open(
            Box::new(medium.clone()),
            opts,
            CostModel::free(),
            Arc::new(StoreGauges::default()),
        )
        .expect("open")
    }

    fn no_auto() -> StoreOptions {
        StoreOptions {
            checkpoint_pages: 0,
            ..StoreOptions::default()
        }
    }

    #[test]
    fn committed_writes_survive_reopen() {
        let medium = MemMedium::new();
        let (mut store, report) = open_mem(&medium, no_auto());
        assert!(report.fresh);
        store.write_at(0, b"hello").expect("write");
        store.write_at(5, b" world").expect("write");
        store.commit().expect("commit");
        drop(store);
        let (store, report) = open_mem(&medium, no_auto());
        assert_eq!(store.contents(), b"hello world");
        assert_eq!(report.recovered_records, 2);
        assert_eq!(report.recovered_commits, 1);
        assert!(!report.torn_detected);
    }

    #[test]
    fn uncommitted_batch_is_not_durable_and_reopen_is_clean() {
        let medium = MemMedium::new();
        let (mut store, _) = open_mem(&medium, no_auto());
        store.write_at(0, b"committed").expect("write");
        store.commit().expect("commit");
        store.write_at(0, b"UNCOMMITTED").expect("write");
        assert_eq!(store.staged_records(), 1);
        drop(store); // crash with a staged batch: nothing reached the WAL
        let (store, report) = open_mem(&medium, no_auto());
        assert_eq!(store.contents(), b"committed");
        assert!(!report.torn_detected, "no half-record on the medium");
        assert_eq!(report.discarded_bytes, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_discarded() {
        let medium = MemMedium::new();
        let (mut store, _) = open_mem(&medium, no_auto());
        store.write_at(0, b"stable").expect("write");
        store.commit().expect("commit");
        store.write_at(0, b"doomed batch").expect("write");
        store.commit().expect("commit");
        let (pages, wal) = medium.images();
        // Cut mid-way through the second batch: a torn append.
        let cut = wal.len() - 5;
        let damaged = MemMedium::from_parts(pages, wal[..cut].to_vec());
        let (store2, report) = open_mem(&damaged, no_auto());
        assert_eq!(store2.contents(), b"stable");
        assert!(report.torn_detected);
        assert!(report.discarded_bytes > 0);
        // The damaged medium was truncated back to the committed seal.
        let (_, wal_after) = damaged.images();
        assert_eq!(wal_after.len() as u64, cut as u64 - report.discarded_bytes);
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives() {
        let medium = MemMedium::new();
        let (mut store, _) = open_mem(&medium, no_auto());
        store.write_at(0, b"page data").expect("write");
        let report = store.checkpoint().expect("checkpoint");
        assert!(report.pages_written >= 1);
        let (_, wal) = medium.images();
        assert!(wal.is_empty(), "checkpoint truncates the WAL");
        store.write_at(9, b" + tail").expect("write");
        store.commit().expect("commit");
        drop(store);
        let (store, report) = open_mem(&medium, no_auto());
        assert_eq!(store.contents(), b"page data + tail");
        assert_eq!(
            report.recovered_records, 1,
            "only the post-checkpoint record replays"
        );
    }

    #[test]
    fn sync_always_commits_every_mutation() {
        let medium = MemMedium::new();
        let opts = StoreOptions {
            sync: SyncMode::Always,
            checkpoint_pages: 0,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&medium, opts);
        store.write_at(0, b"a").expect("write");
        store.write_at(1, b"b").expect("write");
        assert_eq!(store.staged_records(), 0);
        assert_eq!(store.commit_seq(), 2);
        drop(store);
        let (store, _) = open_mem(&medium, opts);
        assert_eq!(store.contents(), b"ab");
    }

    #[test]
    fn sync_off_skips_fsync_but_still_appends() {
        let medium = MemMedium::new();
        let opts = StoreOptions {
            sync: SyncMode::Off,
            checkpoint_pages: 0,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&medium, opts);
        store.write_at(0, b"x").expect("write");
        store.commit().expect("commit");
        assert_eq!(store.stats().fsyncs, 0);
        assert_eq!(store.stats().commits, 1);
        drop(store);
        let (store, _) = open_mem(&medium, opts);
        assert_eq!(store.contents(), b"x");
    }

    #[test]
    fn auto_checkpoint_fires_on_wal_growth() {
        let medium = MemMedium::new();
        let opts = StoreOptions {
            page_size: 32,
            checkpoint_pages: 1,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&medium, opts);
        store.write_at(0, &[7u8; 64]).expect("write");
        store.commit().expect("commit");
        assert_eq!(store.stats().checkpoints, 1);
        let (_, wal) = medium.images();
        assert!(wal.is_empty());
    }

    #[test]
    fn serialize_deserialize_round_trip() {
        let medium = MemMedium::new();
        let (mut store, _) = open_mem(&medium, no_auto());
        store.write_at(0, b"snapshot me").expect("write");
        store.commit().expect("commit");
        let image = store.serialize();
        let fresh = MemMedium::new();
        let store2 = PageStore::deserialize(
            &image,
            Box::new(fresh.clone()),
            no_auto(),
            CostModel::free(),
            Arc::new(StoreGauges::default()),
        )
        .expect("deserialize");
        assert_eq!(store2.contents(), b"snapshot me");
        drop(store2);
        let (store3, _) = open_mem(&fresh, no_auto());
        assert_eq!(store3.contents(), b"snapshot me", "image landed durably");
    }

    #[test]
    fn costs_are_charged_at_the_medium_boundary() {
        let medium = MemMedium::new();
        let model = CostModel::new(afs_sim::HardwareProfile::pentium_ii_300());
        let (mut store, _) = PageStore::open(
            Box::new(medium.clone()),
            no_auto(),
            model.clone(),
            Arc::new(StoreGauges::default()),
        )
        .expect("open");
        let after_open = model.snapshot();
        assert_eq!(after_open.disk_accesses, 1, "open scans the areas");
        store.write_at(0, b"abc").expect("write");
        let before = model.snapshot();
        assert_eq!(
            before.disk_bytes, after_open.disk_bytes,
            "staging costs nothing on disk"
        );
        store.commit().expect("commit");
        let after = model.snapshot();
        assert!(after.disk_bytes > before.disk_bytes, "append charged");
        assert_eq!(
            after.disk_accesses,
            before.disk_accesses + 1,
            "fsync charged"
        );
    }

    #[test]
    fn a_truncate_then_checkpoint_leaves_zeros_not_the_old_bytes() {
        let medium = MemMedium::new();
        let opts = StoreOptions {
            page_size: 32,
            ..no_auto()
        };
        let (mut store, _) = open_mem(&medium, opts);
        store.write_at(0, &[0xAA; 119]).expect("write");
        store.checkpoint().expect("checkpoint");
        store.set_len(50).expect("truncate");
        store.write_at(110, &[0xBB; 9]).expect("write");
        store.checkpoint().expect("checkpoint");
        let mut expected = [0xAA; 119];
        expected[50..110].fill(0);
        expected[110..].fill(0xBB);
        assert_eq!(store.contents(), expected);
        let (pages, wal) = medium.images();
        assert!(wal.is_empty());
        assert_eq!(&pages[PAGES_HEADER..], expected, "the pages area alone");
        drop(store);
        let (store, _) = open_mem(&medium, opts);
        assert_eq!(store.contents(), expected, "bytes 50..110 read back zero");
    }

    #[test]
    fn a_range_no_buffer_can_hold_is_refused_and_recovered_from() {
        let medium = MemMedium::new();
        let (mut store, _) = open_mem(&medium, no_auto());
        store.write_at(0, b"kept").expect("write");
        store.commit().expect("commit");
        let max = isize::MAX as u64;
        assert_eq!(
            store.write_at(u64::MAX - 1, b"wrap"),
            Err(StoreError::InvalidParameter)
        );
        assert_eq!(store.set_len(max + 1), Err(StoreError::InvalidParameter));
        assert_eq!(store.staged_records(), 0, "a refusal stages nothing");
        drop(store);
        // Well framed, checksum-valid and sealed, yet no content buffer
        // can hold it: recovery reads it as damage instead of panicking.
        let (pages, good) = medium.images();
        for bad in [
            WalRecord::Write {
                offset: u64::MAX - 1,
                data: vec![0xEE; 4],
            },
            WalRecord::SetLen { len: max + 1 },
        ] {
            let mut wal = good.clone();
            bad.encode_into(&mut wal);
            WalRecord::Commit { seq: 2 }.encode_into(&mut wal);
            let damaged = MemMedium::from_parts(pages.clone(), wal.clone());
            let (store, report) = open_mem(&damaged, no_auto());
            assert_eq!(store.contents(), b"kept", "{bad:?}");
            assert!(report.torn_detected, "{bad:?}");
            assert_eq!(report.discarded_bytes, (wal.len() - good.len()) as u64);
            assert_eq!(store.commit_seq(), 1);
        }
    }

    /// A [`MemMedium`] whose next append or sync fails when armed.
    #[derive(Debug, Clone, Default)]
    struct Failing {
        inner: MemMedium,
        fail_append: Arc<AtomicBool>,
        fail_sync: Arc<AtomicBool>,
    }

    impl StoreMedium for Failing {
        fn read_pages(&self) -> Result<Vec<u8>, StoreError> {
            self.inner.read_pages()
        }
        fn write_pages_at(&self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
            self.inner.write_pages_at(offset, data)
        }
        fn set_pages_len(&self, len: u64) -> Result<(), StoreError> {
            self.inner.set_pages_len(len)
        }
        fn read_wal(&self) -> Result<Vec<u8>, StoreError> {
            self.inner.read_wal()
        }
        fn append_wal(&self, data: &[u8]) -> Result<(), StoreError> {
            if self.fail_append.swap(false, Ordering::Relaxed) {
                return Err(StoreError::Io("append refused".into()));
            }
            self.inner.append_wal(data)
        }
        fn truncate_wal(&self, len: u64) -> Result<(), StoreError> {
            self.inner.truncate_wal(len)
        }
        fn sync(&self) -> Result<(), StoreError> {
            if self.fail_sync.swap(false, Ordering::Relaxed) {
                return Err(StoreError::Io("sync refused".into()));
            }
            Ok(())
        }
    }

    #[test]
    fn a_failed_commit_leaves_the_batch_staged_and_the_retry_seals_it_once() {
        for fail_sync in [false, true] {
            let medium = Failing::default();
            let (mut store, _) = PageStore::open(
                Box::new(medium.clone()),
                no_auto(),
                CostModel::free(),
                Arc::new(StoreGauges::default()),
            )
            .expect("open");
            store.write_at(0, b"abc").expect("write");
            store.set_len(5).expect("set_len");
            let armed = if fail_sync {
                &medium.fail_sync
            } else {
                &medium.fail_append
            };
            armed.store(true, Ordering::Relaxed);
            assert!(store.commit().is_err(), "fail_sync={fail_sync}");
            assert_eq!((store.staged_records(), store.commit_seq()), (2, 0));
            let (_, first) = medium.inner.images();
            assert_eq!(store.commit(), Ok(Some(1)), "the retry commits as seq 1");
            assert_eq!(store.staged_records(), 0);
            let (_, wal) = medium.inner.images();
            let retry = &wal[first.len()..];
            let scan = wal::scan(retry);
            assert_eq!(
                scan.records,
                [
                    WalRecord::Write {
                        offset: 0,
                        data: b"abc".to_vec()
                    },
                    WalRecord::SetLen { len: 5 },
                    WalRecord::Commit { seq: 1 },
                ],
                "fail_sync={fail_sync}: one batch, one seal"
            );
            assert_eq!(scan.committed_len, retry.len() as u64);
            if fail_sync {
                // The failed attempt's append reached the medium; the
                // retry appended the very same bytes.
                assert_eq!(first, retry);
            } else {
                assert!(first.is_empty());
            }
            drop(store);
            let (store, _) = PageStore::open(
                Box::new(medium),
                no_auto(),
                CostModel::free(),
                Arc::new(StoreGauges::default()),
            )
            .expect("reopen");
            assert_eq!((store.contents(), store.commit_seq()), (&b"abc\0\0"[..], 1));
        }
    }

    /// The staging this module did before a batch was its own WAL image,
    /// kept as the reference the framed batch is held to: records staged
    /// as [`WalRecord`]s, each framed through a body `Vec` with the
    /// bytewise CRC, dirty pages in a `BTreeSet`, and — the bug — a
    /// `set_len` that marks no page.
    #[derive(Debug)]
    struct Reference {
        medium: MemMedium,
        content: Vec<u8>,
        staged: Vec<WalRecord>,
        dirty: BTreeSet<u64>,
        wal_len: u64,
        commit_seq: u64,
        opts: StoreOptions,
        stats: StoreStats,
    }

    fn reference_encode(record: &WalRecord, out: &mut Vec<u8>) {
        let mut body = Vec::new();
        match record {
            WalRecord::Write { offset, data } => {
                body.push(1);
                body.extend_from_slice(&offset.to_le_bytes());
                body.extend_from_slice(data);
            }
            WalRecord::SetLen { len } => {
                body.push(2);
                body.extend_from_slice(&len.to_le_bytes());
            }
            WalRecord::Commit { seq } => {
                body.push(3);
                body.extend_from_slice(&seq.to_le_bytes());
            }
        }
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32_bytewise(&body).to_le_bytes());
    }

    impl Reference {
        fn new(opts: StoreOptions) -> Self {
            Reference {
                medium: MemMedium::new(),
                content: Vec::new(),
                staged: Vec::new(),
                dirty: BTreeSet::new(),
                wal_len: 0,
                commit_seq: 0,
                opts,
                stats: StoreStats {
                    sync: opts.sync,
                    ..StoreStats::default()
                },
            }
        }

        fn stage(&mut self, record: WalRecord) {
            match &record {
                WalRecord::Write { offset, data } => {
                    let end = *offset as usize + data.len();
                    if self.content.len() < end {
                        self.content.resize(end, 0);
                    }
                    self.content[*offset as usize..end].copy_from_slice(data);
                    let ps = u64::from(self.opts.page_size);
                    if !data.is_empty() {
                        let last = (offset + data.len() as u64 - 1) / ps;
                        self.dirty.extend(offset / ps..=last);
                    }
                }
                WalRecord::SetLen { len } => self.content.resize(*len as usize, 0),
                WalRecord::Commit { .. } => unreachable!("commits are not staged"),
            }
            self.staged.push(record);
        }

        fn mutated(&mut self) {
            if self.opts.sync == SyncMode::Always {
                self.commit();
            }
        }

        fn write_at(&mut self, offset: u64, data: &[u8]) {
            let data = data.to_vec();
            self.stage(WalRecord::Write { offset, data });
            self.mutated();
        }

        fn set_len(&mut self, len: u64) {
            self.stage(WalRecord::SetLen { len });
            self.mutated();
        }

        fn replace(&mut self, contents: &[u8]) {
            self.stage(WalRecord::SetLen {
                len: contents.len() as u64,
            });
            if !contents.is_empty() {
                let data = contents.to_vec();
                self.stage(WalRecord::Write { offset: 0, data });
            }
            self.mutated();
        }

        fn commit(&mut self) {
            if self.staged.is_empty() {
                return;
            }
            let seq = self.commit_seq + 1;
            let mut buf = Vec::new();
            for record in &self.staged {
                reference_encode(record, &mut buf);
            }
            reference_encode(&WalRecord::Commit { seq }, &mut buf);
            self.medium.append_wal(&buf).expect("append");
            self.stats.wal_appends += self.staged.len() as u64 + 1;
            self.stats.wal_bytes += buf.len() as u64;
            if self.opts.sync != SyncMode::Off {
                self.stats.fsyncs += 1;
            }
            self.staged.clear();
            self.wal_len += buf.len() as u64;
            self.commit_seq = seq;
            self.stats.commits += 1;
            let limit = u64::from(self.opts.checkpoint_pages) * u64::from(self.opts.page_size);
            if self.opts.checkpoint_pages > 0 && self.wal_len >= limit {
                self.checkpoint();
            }
        }

        fn checkpoint(&mut self) {
            self.commit();
            let ps = u64::from(self.opts.page_size);
            let len = self.content.len() as u64;
            for &page in &self.dirty {
                let start = page * ps;
                if start < len {
                    let end = (start + ps).min(len) as usize;
                    let bytes = &self.content[start as usize..end];
                    let at = PAGES_HEADER as u64 + start;
                    self.medium.write_pages_at(at, bytes).expect("pages");
                }
            }
            let header = encode_header(self.opts.page_size, len, self.commit_seq);
            self.medium.write_pages_at(0, &header).expect("header");
            self.medium
                .set_pages_len(PAGES_HEADER as u64 + len)
                .expect("pages len");
            self.medium.truncate_wal(0).expect("truncate");
            self.stats.checkpoints += 1;
            self.stats.fsyncs += 1;
            self.wal_len = 0;
            self.dirty.clear();
        }

        fn stats(&self) -> StoreStats {
            StoreStats {
                staged_records: self.staged.len() as u64,
                wal_len: self.wal_len,
                content_len: self.content.len() as u64,
                ..self.stats
            }
        }
    }

    fn seed_from_env() -> u64 {
        std::env::var("AFS_TEST_SEED")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0xAF5_0001)
    }

    /// The framing change alters nothing a reader of the medium can see:
    /// seeded scripts drive the store and the reference side by side, and
    /// after every step the WAL images are byte-equal, and so are the
    /// pages areas except where the reference kept bytes a truncate had
    /// dropped — there the store holds zeros, as its content does.
    /// `AFS_TEST_SEED` varies the scripts (CI's crash-sweep lanes).
    #[test]
    fn the_medium_holds_the_reference_framings_bytes() {
        let seed = seed_from_env();
        for page_size in [8u32, 4096] {
            for sync in [SyncMode::Always, SyncMode::Commit, SyncMode::Off] {
                let opts = StoreOptions {
                    page_size,
                    sync,
                    checkpoint_pages: 4,
                };
                let label = format!("seed {seed} page {page_size} sync {}", sync.label());
                let mut rng = SmallRng::seed_from_u64(seed ^ u64::from(page_size) ^ sync as u64);
                let medium = MemMedium::new();
                let (mut store, _) = open_mem(&medium, opts);
                let mut reference = Reference::new(opts);
                let (mut checkpoints, mut checkpointed) = (0, None);
                for step in 0..300 {
                    let len = store.len();
                    match rng.gen_range(0..16) {
                        0..=6 => {
                            let offset = rng.gen_range(0..len + 2 * u64::from(page_size.min(64)));
                            let size = if rng.gen_range(0..8) == 0 {
                                rng.gen_range(0..3 * page_size as usize)
                            } else {
                                rng.gen_range(1..48)
                            };
                            let mut data = vec![0u8; size];
                            rng.fill_bytes(&mut data);
                            store.write_at(offset, &data).expect("write");
                            reference.write_at(offset, &data);
                        }
                        7..=8 => {
                            let to = rng.gen_range(0..len + 24);
                            store.set_len(to).expect("set_len");
                            reference.set_len(to);
                        }
                        9 => {
                            let mut data = vec![0u8; rng.gen_range(0..80)];
                            rng.fill_bytes(&mut data);
                            store.replace(&data).expect("replace");
                            reference.replace(&data);
                        }
                        10..=13 => {
                            store.commit().expect("commit");
                            reference.commit();
                        }
                        _ => {
                            store.checkpoint().expect("checkpoint");
                            reference.checkpoint();
                        }
                    }
                    let at = format!("{label} step {step}");
                    assert_eq!(store.stats(), reference.stats(), "{at}");
                    assert_eq!(store.staged_records(), reference.staged.len() as u64);
                    assert_eq!(store.contents(), reference.content, "{at}");
                    let (pages, wal) = medium.images();
                    let (ref_pages, ref_wal) = reference.medium.images();
                    assert_eq!(wal, ref_wal, "{at}: the WAL bytes");
                    if store.stats().checkpoints > checkpoints {
                        checkpoints = store.stats().checkpoints;
                        checkpointed = Some(store.contents().to_vec());
                    }
                    assert_eq!(pages.len(), ref_pages.len(), "{at}");
                    if let Some(content) = &checkpointed {
                        assert_eq!(pages[..PAGES_HEADER], ref_pages[..PAGES_HEADER], "{at}");
                        assert_eq!(&pages[PAGES_HEADER..], content, "{at}: the pages area");
                        let stale = pages.iter().zip(&ref_pages).filter(|(p, r)| p != r);
                        assert!(stale.clone().all(|(&p, _)| p == 0), "{at}");
                    }
                }
            }
        }
    }
}
