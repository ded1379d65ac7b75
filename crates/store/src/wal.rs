//! WAL record framing: `u32_le(len) ‖ u32_le(crc32(payload)) ‖ payload`.
//!
//! The framing mirrors `xft-wire`'s length-prefixed stream framing with one
//! addition: a CRC-32 over the payload, because unlike a TCP stream a disk
//! file has no transport checksum — a torn write or flipped bit must be
//! detectable at recovery time. Scanning a buffer yields the longest prefix
//! of intact records and classifies whatever follows as torn (incomplete
//! tail) or corrupt (CRC mismatch), which is exactly the committed-prefix
//! contract crash recovery needs.

use crate::TailState;

/// Upper bound on one record's payload (16 MiB, matching
/// `xft_wire::DEFAULT_MAX_FRAME`): far above anything the replica logs,
/// small enough that a corrupted length prefix cannot demand an outsized
/// allocation.
pub const MAX_RECORD: usize = 16 << 20;

/// Bytes of framing per record (length + CRC).
pub const RECORD_HEADER: usize = 8;

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven with
/// slicing-by-8: the hot loop folds 8 input bytes per iteration through 8
/// precomputed tables, breaking the per-byte load-use dependency chain of
/// the classic algorithm (~5-8× faster on large buffers; every WAL append
/// and scan pays this, and the evidence log checksums full batch messages).
///
/// Guarantees detection of any single-bit error and any burst up to 32 bits
/// — the failure modes the WAL property tests inject.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut rest = data;
    while rest.len() >= 8 {
        let lo = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
        rest = &rest[8..];
    }
    for &b in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    // Table k maps a byte to its CRC contribution k positions further into
    // the stream: t[k][b] = shift(t[k-1][b]) folded through table 0.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The header that frames `payload`: its length and CRC. Writing it and then
/// the payload produces the same bytes as [`frame_record`] without copying
/// the payload into a second buffer.
///
/// Panics if the payload exceeds [`MAX_RECORD`] — the replica never produces
/// one, and silently truncating would corrupt the log.
pub fn record_header(payload: &[u8]) -> [u8; RECORD_HEADER] {
    assert!(
        payload.len() <= MAX_RECORD,
        "WAL record of {} bytes exceeds MAX_RECORD",
        payload.len()
    );
    let mut header = [0u8; RECORD_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Frames one record (header + payload) into a fresh buffer; panics like
/// [`record_header`].
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&record_header(payload));
    out.extend_from_slice(payload);
    out
}

/// Result of scanning a WAL byte buffer.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// Every intact record, in order.
    pub records: Vec<Vec<u8>>,
    /// Length of the valid prefix in bytes; everything beyond it should be
    /// truncated before appending continues.
    pub valid_len: usize,
    /// How the scan ended.
    pub tail: TailState,
}

/// Scans `bytes` as a sequence of framed records, stopping at the first torn
/// or corrupt one.
///
/// * An incomplete header or payload at the end is **torn**: the crash
///   interrupted a write; the partial record is dropped.
/// * A CRC mismatch (or an impossible length prefix) is **corrupt**: the
///   record's content cannot be trusted, and since record boundaries are
///   self-described, neither can anything after it.
pub fn scan_records(bytes: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return ScanOutcome {
                records,
                valid_len: pos,
                tail: TailState::Clean,
            };
        }
        if remaining < RECORD_HEADER {
            return ScanOutcome {
                records,
                valid_len: pos,
                tail: TailState::Torn {
                    dropped: remaining as u64,
                },
            };
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            // A length beyond the hard cap can only be a damaged header;
            // classify as corruption (truncation alone cannot produce it).
            return ScanOutcome {
                records,
                valid_len: pos,
                tail: TailState::Corrupt {
                    dropped: remaining as u64,
                },
            };
        }
        if remaining - RECORD_HEADER < len {
            return ScanOutcome {
                records,
                valid_len: pos,
                tail: TailState::Torn {
                    dropped: remaining as u64,
                },
            };
        }
        let payload = &bytes[pos + RECORD_HEADER..pos + RECORD_HEADER + len];
        if crc32(payload) != crc {
            return ScanOutcome {
                records,
                valid_len: pos,
                tail: TailState::Corrupt {
                    dropped: remaining as u64,
                },
            };
        }
        records.push(payload.to_vec());
        pos += RECORD_HEADER + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frame_and_scan_round_trip() {
        let mut wal = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![], vec![7u8; 300]];
        for p in &payloads {
            wal.extend_from_slice(&frame_record(p));
        }
        let out = scan_records(&wal);
        assert_eq!(out.records, payloads);
        assert_eq!(out.valid_len, wal.len());
        assert_eq!(out.tail, TailState::Clean);
    }

    #[test]
    fn torn_tail_drops_only_the_partial_record() {
        let mut wal = frame_record(b"first");
        let second = frame_record(b"second-record");
        wal.extend_from_slice(&second[..second.len() - 3]);
        let out = scan_records(&wal);
        assert_eq!(out.records, vec![b"first".to_vec()]);
        assert_eq!(
            out.tail,
            TailState::Torn {
                dropped: (second.len() - 3) as u64
            }
        );
        assert_eq!(out.valid_len, frame_record(b"first").len());
    }

    #[test]
    fn corrupt_record_drops_it_and_everything_after() {
        let first = frame_record(b"first");
        let mut wal = first.clone();
        let mut second = frame_record(b"second");
        second[RECORD_HEADER + 2] ^= 0x40; // flip a payload bit
        wal.extend_from_slice(&second);
        wal.extend_from_slice(&frame_record(b"third"));
        let out = scan_records(&wal);
        assert_eq!(out.records, vec![b"first".to_vec()]);
        assert!(matches!(out.tail, TailState::Corrupt { .. }));
        assert_eq!(out.valid_len, first.len());
    }

    #[test]
    fn impossible_length_prefix_is_corruption() {
        let mut wal = frame_record(b"ok");
        let keep = wal.len();
        wal.extend_from_slice(&(u32::MAX).to_le_bytes());
        wal.extend_from_slice(&[0u8; 4]);
        wal.extend_from_slice(&[1u8; 64]);
        let out = scan_records(&wal);
        assert_eq!(out.records.len(), 1);
        assert!(matches!(out.tail, TailState::Corrupt { .. }));
        assert_eq!(out.valid_len, keep);
    }
}
