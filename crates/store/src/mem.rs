//! The deterministic in-memory backend, used by `xft-simnet` clusters and
//! the chaos explorer.
//!
//! It stores exactly the bytes the disk backend would (framed records in one
//! buffer, the snapshot blob in another), so [`DiskFault`] injection behaves
//! identically on both: a torn tail or flipped bit hits the same byte layout
//! a real data directory has, and recovery goes through the same
//! [`scan_records`] path.

use crate::wal::{frame_record, scan_records};
use crate::{DiskFault, Recovered, Storage, StorageStats};

/// In-memory stable storage. "Durable" means "present in the buffers": the
/// simulator parks actors (and their storage) across crashes, so whatever is
/// in here survives a simulated crash exactly as an fsynced file would.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    wal: Vec<u8>,
    snapshot: Option<Vec<u8>>,
    stats: StorageStats,
}

impl MemStorage {
    /// Creates empty storage. Memory is always "durable", so every append
    /// counts as one sync, as under
    /// [`SyncPolicy::EVERY_APPEND`](crate::SyncPolicy::EVERY_APPEND).
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// The raw WAL bytes (tests and fault-injection helpers).
    pub fn wal_bytes(&self) -> &[u8] {
        &self.wal
    }
}

impl Storage for MemStorage {
    fn append(&mut self, record: &[u8]) {
        self.wal.extend_from_slice(&frame_record(record));
        self.stats.appends += 1;
        self.stats.wal_bytes = self.wal.len() as u64;
        self.stats.syncs += 1;
    }

    /// Nothing to do: every append was counted as synced.
    fn sync(&mut self) {}

    fn install_snapshot(&mut self, snapshot: &[u8], records: &[Vec<u8>]) {
        self.snapshot = Some(snapshot.to_vec());
        self.wal.clear();
        for r in records {
            self.wal.extend_from_slice(&frame_record(r));
        }
        self.stats.snapshots += 1;
        self.stats.wal_bytes = self.wal.len() as u64;
    }

    fn load(&mut self) -> Recovered {
        let out = scan_records(&self.wal);
        self.wal.truncate(out.valid_len);
        self.stats.wal_bytes = self.wal.len() as u64;
        Recovered {
            snapshot: self.snapshot.clone(),
            records: out.records,
            tail: out.tail,
        }
    }

    fn wipe(&mut self) {
        self.wal.clear();
        self.snapshot = None;
        self.stats.wal_bytes = 0;
    }

    fn inject(&mut self, fault: DiskFault) {
        match fault {
            DiskFault::TornTail { bytes } => {
                let keep = self.wal.len().saturating_sub(bytes as usize);
                self.wal.truncate(keep);
            }
            DiskFault::FlipBit { bit } => {
                if !self.wal.is_empty() {
                    let bit = (bit % (self.wal.len() as u64 * 8)) as usize;
                    self.wal[bit / 8] ^= 1 << (bit % 8);
                }
            }
        }
        self.stats.wal_bytes = self.wal.len() as u64;
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TailState;

    #[test]
    fn append_load_round_trip() {
        let mut s = MemStorage::new();
        s.append(b"one");
        s.append(b"two");
        let rec = s.load();
        assert_eq!(rec.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(rec.tail, TailState::Clean);
        assert!(rec.snapshot.is_none());
        assert_eq!(s.stats().appends, 2);
        assert_eq!(s.stats().syncs, 2, "EVERY_APPEND syncs per record");
    }

    #[test]
    fn snapshot_resets_wal_to_reseeded_records() {
        let mut s = MemStorage::new();
        s.append(b"old-1");
        s.append(b"old-2");
        s.install_snapshot(b"SNAP", &[b"keep".to_vec()]);
        s.append(b"new");
        let rec = s.load();
        assert_eq!(rec.snapshot.as_deref(), Some(b"SNAP".as_ref()));
        assert_eq!(rec.records, vec![b"keep".to_vec(), b"new".to_vec()]);
    }

    #[test]
    fn faults_truncate_or_corrupt_and_load_repairs() {
        let mut s = MemStorage::new();
        s.append(b"aaaa");
        s.append(b"bbbb");
        s.inject(DiskFault::TornTail { bytes: 2 });
        let rec = s.load();
        assert_eq!(rec.records, vec![b"aaaa".to_vec()]);
        assert!(matches!(rec.tail, TailState::Torn { .. }));
        // load() truncated the torn tail: appending continues cleanly.
        s.append(b"cccc");
        let rec = s.load();
        assert_eq!(rec.records, vec![b"aaaa".to_vec(), b"cccc".to_vec()]);
        assert_eq!(rec.tail, TailState::Clean);

        let mut s = MemStorage::new();
        s.append(b"aaaa");
        s.append(b"bbbb");
        s.inject(DiskFault::FlipBit { bit: 8 * 9 + 1 }); // inside record 1's payload
        let rec = s.load();
        assert!(
            rec.records.len() < 2,
            "corruption must not survive recovery"
        );
    }

    #[test]
    fn wipe_loses_everything() {
        let mut s = MemStorage::new();
        s.append(b"x");
        s.install_snapshot(b"S", &[]);
        s.wipe();
        assert!(s.load().is_empty());
    }
}
