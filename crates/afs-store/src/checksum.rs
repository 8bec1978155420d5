//! CRC-32C (Castagnoli polynomial) for per-record WAL checksums.
//!
//! The checksum is what turns a half-written record into a *detected* torn
//! write instead of silent corruption: recovery accepts a record only when
//! its stored CRC matches the bytes on the medium.
//!
//! Castagnoli, not IEEE, because x86's SSE4.2 computes it in hardware —
//! the reason ext4, iSCSI and LevelDB checksum with it too. Where the CPU
//! has SSE4.2 (checked once per call, a cached load), the `crc32`
//! instruction folds eight bytes a step; everywhere else a slice-by-8
//! table loop gives the same values: table `k` holds the CRC of a byte
//! followed by `k` zero bytes, so eight table lookups fold eight input
//! bytes in one step instead of eight dependent ones. The tests check
//! every path against the byte-at-a-time loop.

/// Reflected Castagnoli polynomial, the one SSE4.2's `crc32` computes.
const POLY: u32 = 0x82F6_3B78;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Computes the CRC-32C of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32_sse42` needs SSE4.2 and nothing else, and the
        // CPU has it: checked just above.
        return unsafe { crc32_sse42(bytes) };
    }
    crc32_sliced(bytes)
}

/// [`crc32`] on SSE4.2's `crc32` instruction: eight bytes a step, then
/// the tail a byte at a time.
///
/// # Safety
///
/// The CPU must have SSE4.2: a call from code not compiled for it is
/// `unsafe` for that reason alone.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(u32::MAX);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc ^ u32::MAX
}

/// [`crc32`] by the slice-by-8 tables, on any CPU.
fn crc32_sliced(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The byte-at-a-time form: the reference every sliced and hardware
    /// value is checked against.
    pub(crate) fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Every length 0..=300 at every start offset 0..8 of one buffer.
    fn slices(mut check: impl FnMut(&[u8], usize, usize)) {
        let bytes: Vec<u8> = (0..320u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=300 {
            for start in 0..8 {
                check(&bytes[start..start + len], len, start);
            }
        }
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32C (iSCSI, RFC 3720).
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32_sliced(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = crc32(b"hello world");
        let mut flipped = b"hello world".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        slices(|slice, len, start| {
            assert_eq!(
                crc32_sliced(slice),
                crc32_bytewise(slice),
                "len {len} at offset {start}"
            );
        });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_equals_tables_at_every_length_and_alignment() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            return;
        }
        slices(|slice, len, start| {
            // SAFETY: the CPU has SSE4.2, checked above.
            let hw = unsafe { crc32_sse42(slice) };
            assert_eq!(hw, crc32_sliced(slice), "len {len} at offset {start}");
            assert_eq!(crc32(slice), hw, "len {len} at offset {start}");
        });
    }
}
