//! Write-ahead-log record format: length-prefixed, checksummed, redo-only.
//!
//! Every record is `[u32 body_len][body][u32 crc32c(body)]`, little-endian,
//! where the body starts with a one-byte kind tag. A batch of data records
//! terminated by a [`WalRecord::Commit`] is the unit of atomicity: redo
//! recovery replays complete, checksum-valid, commit-terminated batches
//! and discards everything after the last one — a valid-but-uncommitted
//! tail is dropped silently (the batch never committed), while a partial
//! or checksum-failing tail is a detected *torn write*.

use crate::checksum::crc32;
use crate::StoreError;

/// Record kinds (the body's leading byte).
pub(crate) const KIND_WRITE: u8 = 1;
pub(crate) const KIND_SET_LEN: u8 = 2;
pub(crate) const KIND_COMMIT: u8 = 3;

/// Per-record framing overhead: length prefix + trailing CRC.
pub const RECORD_OVERHEAD: usize = 8;

/// One redo record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Bytes written at an offset (zero-extending the content).
    Write {
        /// Byte offset of the write.
        offset: u64,
        /// The written bytes.
        data: Vec<u8>,
    },
    /// The content truncated or zero-extended to `len`.
    SetLen {
        /// The new content length.
        len: u64,
    },
    /// Seals the batch staged since the previous commit; `seq` is the
    /// store's monotonically increasing commit number.
    Commit {
        /// Commit sequence number.
        seq: u64,
    },
}

impl WalRecord {
    /// The record as its body reads: kind tag, the `u64` (offset, length
    /// or sequence), and the data bytes (empty but for a write).
    pub(crate) fn parts(&self) -> (u8, u64, &[u8]) {
        match self {
            WalRecord::Write { offset, data } => (KIND_WRITE, *offset, data),
            WalRecord::SetLen { len } => (KIND_SET_LEN, *len, &[]),
            WalRecord::Commit { seq } => (KIND_COMMIT, *seq, &[]),
        }
    }

    /// Appends the framed record to `out`, returning its encoded length.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let (kind, word, data) = self.parts();
        frame(out, kind, word, data)
    }

    fn decode_body(body: &[u8]) -> Result<WalRecord, StoreError> {
        let bad = || StoreError::Corrupt("malformed WAL record body".to_owned());
        let (&kind, rest) = body.split_first().ok_or_else(bad)?;
        let u64_at = |b: &[u8]| -> Result<u64, StoreError> {
            Ok(u64::from_le_bytes(
                b.get(..8).ok_or_else(bad)?.try_into().expect("8 bytes"),
            ))
        };
        // A range no content buffer can hold is damage, not a record to
        // replay (the WAL range rule, `range_end`).
        match kind {
            KIND_WRITE => {
                let (offset, data) = (u64_at(rest)?, rest.get(8..).ok_or_else(bad)?);
                range_end(offset, data.len()).ok_or_else(bad)?;
                Ok(WalRecord::Write {
                    offset,
                    data: data.to_vec(),
                })
            }
            KIND_SET_LEN if rest.len() == 8 => {
                let len = u64_at(rest)?;
                range_end(len, 0).ok_or_else(bad)?;
                Ok(WalRecord::SetLen { len })
            }
            KIND_COMMIT if rest.len() == 8 => Ok(WalRecord::Commit { seq: u64_at(rest)? }),
            _ => Err(bad()),
        }
    }
}

/// Frames one record straight onto the end of `out` — length, body
/// (`kind`, `word`, `data`), CRC of the body as it lies in `out` — and
/// returns its encoded length. No body is built on the side: a staged
/// batch is its WAL image byte for byte.
pub(crate) fn frame(out: &mut Vec<u8>, kind: u8, word: u64, data: &[u8]) -> usize {
    let body_len = 1 + 8 + data.len();
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    let body_start = out.len();
    out.push(kind);
    out.extend_from_slice(&word.to_le_bytes());
    out.extend_from_slice(data);
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    body_len + RECORD_OVERHEAD
}

/// The end of `len` bytes at `offset`, if a content buffer can reach it:
/// no `u64` overflow and no further than `isize::MAX` (the WAL range rule
/// — a store refuses such a mutation and recovery reads one as damage).
pub(crate) fn range_end(offset: u64, len: usize) -> Option<usize> {
    offset
        .checked_add(len as u64)
        .filter(|&end| end <= isize::MAX as u64)
        .map(|end| end as usize)
}

/// The result of scanning a WAL image from the medium.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every structurally valid record, in log order (committed or not).
    pub records: Vec<WalRecord>,
    /// Byte offset just past each valid record (`boundaries[i]` ends
    /// `records[i]`); crash harnesses enumerate kill points from this.
    pub boundaries: Vec<u64>,
    /// Byte offset just past the last [`WalRecord::Commit`] — the durable
    /// prefix recovery keeps. Everything after is discarded.
    pub committed_len: u64,
    /// Records (including the commits) inside the committed prefix.
    pub committed_records: u64,
    /// Highest commit sequence number inside the committed prefix.
    pub last_commit_seq: u64,
    /// Whether the scan stopped at a partial or checksum-failing tail (a
    /// torn write), as opposed to ending exactly at a record boundary.
    pub torn: bool,
}

/// Scans a WAL byte image, stopping at the first damage.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut out = WalScan::default();
    let mut pos = 0usize;
    let mut records_seen = 0u64;
    while pos < bytes.len() {
        let Some(len_bytes) = bytes.get(pos..pos + 4) else {
            out.torn = true;
            break;
        };
        let body_len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        let body_start = pos + 4;
        let crc_end = body_start + body_len + 4;
        let Some(body) = bytes.get(body_start..body_start + body_len) else {
            out.torn = true;
            break;
        };
        let Some(crc_bytes) = bytes.get(body_start + body_len..crc_end) else {
            out.torn = true;
            break;
        };
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if stored != crc32(body) {
            out.torn = true;
            break;
        }
        let Ok(record) = WalRecord::decode_body(body) else {
            out.torn = true;
            break;
        };
        pos = crc_end;
        records_seen += 1;
        if let WalRecord::Commit { seq } = record {
            out.committed_len = pos as u64;
            out.committed_records = records_seen;
            out.last_commit_seq = seq;
        }
        out.records.push(record);
        out.boundaries.push(pos as u64);
    }
    out
}

/// Applies one redo record to a content buffer.
pub fn apply(content: &mut Vec<u8>, record: &WalRecord) {
    let (kind, word, data) = record.parts();
    redo(content, kind, word, data);
}

/// Applies one redo mutation, in [`WalRecord::parts`] form, to a content
/// buffer. The range must obey [`range_end`].
pub(crate) fn redo(content: &mut Vec<u8>, kind: u8, word: u64, data: &[u8]) {
    match kind {
        KIND_WRITE => {
            let end = word as usize + data.len();
            if content.len() < end {
                content.resize(end, 0);
            }
            content[word as usize..end].copy_from_slice(data);
        }
        KIND_SET_LEN => content.resize(word as usize, 0),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> Vec<u8> {
        let mut bytes = Vec::new();
        WalRecord::Write {
            offset: 0,
            data: b"hello".to_vec(),
        }
        .encode_into(&mut bytes);
        WalRecord::SetLen { len: 3 }.encode_into(&mut bytes);
        WalRecord::Commit { seq: 1 }.encode_into(&mut bytes);
        WalRecord::Write {
            offset: 3,
            data: b"p!".to_vec(),
        }
        .encode_into(&mut bytes);
        bytes
    }

    #[test]
    fn scan_finds_committed_prefix_and_uncommitted_tail() {
        let bytes = sample_log();
        let scan = scan(&bytes);
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.committed_records, 3);
        assert_eq!(scan.last_commit_seq, 1);
        assert!(!scan.torn, "a valid uncommitted tail is not torn");
        assert_eq!(scan.boundaries[2], scan.committed_len);
        assert!(scan.committed_len < bytes.len() as u64);
    }

    #[test]
    fn truncated_record_is_torn() {
        let bytes = sample_log();
        for cut in [1usize, 5, 14] {
            let scan = scan(&bytes[..cut]);
            assert!(scan.torn, "cut at {cut} must read as torn");
            assert_eq!(scan.committed_records, 0);
        }
    }

    #[test]
    fn bit_flip_is_torn() {
        let mut bytes = sample_log();
        let mid = bytes.len() / 4;
        bytes[mid] ^= 0x40;
        assert!(scan(&bytes).torn);
    }

    #[test]
    fn replaying_committed_prefix_reconstructs_state() {
        let bytes = sample_log();
        let s = scan(&bytes);
        let mut content = Vec::new();
        for r in &s.records[..s.committed_records as usize] {
            apply(&mut content, r);
        }
        assert_eq!(content, b"hel");
    }

    #[test]
    fn a_range_no_buffer_can_hold_is_damage_but_its_boundary_is_not() {
        let max = isize::MAX as u64;
        let log = |record: WalRecord| {
            let mut bytes = Vec::new();
            record.encode_into(&mut bytes);
            WalRecord::Commit { seq: 1 }.encode_into(&mut bytes);
            scan(&bytes)
        };
        let write = |offset| WalRecord::Write {
            offset,
            data: vec![0xEE; 4],
        };
        for bad in [
            write(u64::MAX - 1),
            write(max - 3),
            WalRecord::SetLen { len: max + 1 },
            WalRecord::SetLen { len: u64::MAX },
        ] {
            let s = log(bad.clone());
            assert!(s.torn, "{bad:?} must read as damage");
            assert_eq!((s.records.len(), s.committed_records), (0, 0), "{bad:?}");
        }
        for edge in [write(max - 4), WalRecord::SetLen { len: max }] {
            let s = log(edge.clone());
            assert!(!s.torn, "{edge:?} ends exactly at isize::MAX");
            assert_eq!(s.records[0], edge);
            assert_eq!(s.committed_records, 2);
        }
    }

    #[test]
    fn cut_exactly_at_each_boundary_is_never_torn() {
        let bytes = sample_log();
        let full = scan(&bytes);
        for &b in &full.boundaries {
            assert!(!scan(&bytes[..b as usize]).torn, "boundary {b}");
        }
    }
}
