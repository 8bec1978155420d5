//! The durable page store: in-memory content, WAL-first durability.
//!
//! All reads and writes act on an in-memory copy of the content; every
//! mutation is *staged* as a [`WalRecord`] and becomes durable when the
//! batch commits — one framed append of the whole batch plus a
//! [`WalRecord::Commit`] seal (group commit), followed by an fsync
//! barrier. A checkpoint writes the dirty pages into the pages area and
//! truncates the WAL. Reopening replays the committed WAL prefix over the
//! checkpointed pages (redo recovery) and discards any torn tail.
//!
//! Costs are charged to the §4 virtual-time model at the medium boundary:
//! one [`Cost::Syscall`] plus [`Cost::DiskWriteBytes`] per WAL append or
//! checkpoint write, one [`Cost::DiskAccess`] per fsync barrier, and a
//! [`Cost::DiskReadBytes`] scan on open — so durability has an honest,
//! reproducible price in every `OpTrace` and bench cell.

use std::collections::BTreeSet;
use std::sync::Arc;

use afs_sim::{Cost, CostModel};
use afs_telemetry::StoreGauges;

use crate::medium::StoreMedium;
use crate::wal::{self, WalRecord};
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
    staged: Vec<WalRecord>,
    dirty_pages: BTreeSet<u64>,
    len_dirty: bool,
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
        let (mut content, checkpoint_seq) = if pages_image.is_empty() {
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
        let mut dirty_pages = BTreeSet::new();
        let mut len_dirty = false;
        let mut recovered_records = 0u64;
        let mut recovered_commits = 0u64;
        for record in &scan.records[..scan.committed_records as usize] {
            wal::apply(&mut content, record);
            match record {
                WalRecord::Write { offset, data } => {
                    mark_dirty(&mut dirty_pages, opts.page_size, *offset, data.len());
                    recovered_records += 1;
                }
                WalRecord::SetLen { .. } => {
                    len_dirty = true;
                    recovered_records += 1;
                }
                WalRecord::Commit { .. } => recovered_commits += 1,
            }
        }
        let discarded = wal_image.len() as u64 - scan.committed_len;
        if discarded > 0 {
            // Cleanly drop the tail so later appends land at a seal.
            medium.truncate_wal(scan.committed_len)?;
        }
        gauges.recovered(recovered_records);
        if scan.torn {
            gauges.torn();
        }
        let report = RecoveryReport {
            fresh,
            recovered_records,
            recovered_commits,
            torn_detected: scan.torn,
            discarded_bytes: discarded,
            content_len: content.len() as u64,
        };
        let commit_seq = scan.last_commit_seq.max(checkpoint_seq);
        let stats = StoreStats {
            recovered_records,
            torn_detected: scan.torn,
            wal_len: scan.committed_len,
            content_len: content.len() as u64,
            sync: opts.sync,
            ..StoreStats::default()
        };
        Ok((
            PageStore {
                medium,
                content,
                staged: Vec::new(),
                dirty_pages,
                len_dirty,
                wal_len: scan.committed_len,
                commit_seq,
                checkpoint_seq,
                opts,
                model,
                gauges,
                stats,
            },
            report,
        ))
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
        self.staged.len() as u64
    }

    /// Switches the durability mode at runtime (the consistency knob).
    pub fn set_sync_mode(&mut self, sync: SyncMode) {
        self.opts.sync = sync;
        self.stats.sync = sync;
    }

    /// Per-store counters.
    pub fn stats(&self) -> StoreStats {
        let mut s = self.stats;
        s.staged_records = self.staged.len() as u64;
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
        self.content = contents.to_vec();
        mark_dirty(
            &mut self.dirty_pages,
            self.opts.page_size,
            0,
            contents.len(),
        );
        self.len_dirty = !contents.is_empty();
    }

    /// Writes `data` at `offset`, staging a redo record.
    ///
    /// # Errors
    ///
    /// Medium errors from an auto-commit (`sync=always`).
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<usize, StoreError> {
        let record = WalRecord::Write {
            offset,
            data: data.to_vec(),
        };
        wal::apply(&mut self.content, &record);
        mark_dirty(
            &mut self.dirty_pages,
            self.opts.page_size,
            offset,
            data.len(),
        );
        self.staged.push(record);
        self.after_mutation()?;
        Ok(data.len())
    }

    /// Truncates or zero-extends the content, staging a redo record.
    ///
    /// # Errors
    ///
    /// Medium errors from an auto-commit (`sync=always`).
    pub fn set_len(&mut self, len: u64) -> Result<(), StoreError> {
        let record = WalRecord::SetLen { len };
        wal::apply(&mut self.content, &record);
        self.len_dirty = true;
        self.staged.push(record);
        self.after_mutation()
    }

    /// Replaces the whole content (a truncate plus one write).
    ///
    /// # Errors
    ///
    /// Medium errors from an auto-commit (`sync=always`).
    pub fn replace(&mut self, contents: &[u8]) -> Result<(), StoreError> {
        self.set_len_quiet(contents.len() as u64);
        if !contents.is_empty() {
            let record = WalRecord::Write {
                offset: 0,
                data: contents.to_vec(),
            };
            wal::apply(&mut self.content, &record);
            mark_dirty(
                &mut self.dirty_pages,
                self.opts.page_size,
                0,
                contents.len(),
            );
            self.staged.push(record);
        }
        self.after_mutation()
    }

    fn set_len_quiet(&mut self, len: u64) {
        let record = WalRecord::SetLen { len };
        wal::apply(&mut self.content, &record);
        self.len_dirty = true;
        self.staged.push(record);
    }

    fn after_mutation(&mut self) -> Result<(), StoreError> {
        if self.opts.sync == SyncMode::Always {
            self.commit()?;
        }
        Ok(())
    }

    /// Commits the staged batch: one framed append of every staged record
    /// plus a commit seal, then (unless `sync=off`) an fsync barrier.
    /// Returns the commit sequence, or `None` when nothing was staged.
    ///
    /// # Errors
    ///
    /// Medium errors; the batch stays staged on failure.
    pub fn commit(&mut self) -> Result<Option<u64>, StoreError> {
        if self.staged.is_empty() {
            return Ok(None);
        }
        let seq = self.commit_seq + 1;
        let mut buf = Vec::new();
        let mut records = 0u64;
        for record in &self.staged {
            record.encode_into(&mut buf);
            records += 1;
        }
        WalRecord::Commit { seq }.encode_into(&mut buf);
        records += 1;
        self.medium.append_wal(&buf)?;
        self.model.charge(Cost::Syscall);
        self.model.charge(Cost::DiskWriteBytes { bytes: buf.len() });
        self.gauges.wal_append(buf.len() as u64);
        self.stats.wal_appends += records;
        self.stats.wal_bytes += buf.len() as u64;
        if self.opts.sync != SyncMode::Off {
            self.medium.sync()?;
            self.model.charge(Cost::DiskAccess);
            self.gauges.fsync();
            self.stats.fsyncs += 1;
        }
        self.staged.clear();
        self.wal_len += buf.len() as u64;
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
        let mut pages_written = 0u64;
        let mut bytes_written = 0u64;
        for &page in &self.dirty_pages {
            let start = page * ps;
            if start >= self.content.len() as u64 {
                continue;
            }
            let end = (start + ps).min(self.content.len() as u64);
            self.medium.write_pages_at(
                PAGES_HEADER as u64 + start,
                &self.content[start as usize..end as usize],
            )?;
            pages_written += 1;
            bytes_written += end - start;
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
        self.dirty_pages.clear();
        self.len_dirty = false;
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

fn mark_dirty(dirty: &mut BTreeSet<u64>, page_size: u32, offset: u64, len: usize) {
    if len == 0 {
        return;
    }
    let ps = u64::from(page_size);
    let first = offset / ps;
    let last = (offset + len as u64 - 1) / ps;
    for page in first..=last {
        dirty.insert(page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MemMedium;

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
}
