//! The on-disk backend: one data directory per replica.
//!
//! Layout:
//!
//! * `wal.log` — framed records appended through a buffered writer; fsync
//!   cadence follows the [`SyncPolicy`] (group commit);
//! * `snapshot.bin` — the latest snapshot blob, framed like a WAL record so
//!   it carries its own CRC; installed by writing `snapshot.tmp`, fsyncing
//!   it, then renaming over the old file (crash-atomic on POSIX).
//!
//! I/O errors are fatal by design (see [`Storage`]): a replica that cannot
//! persist its log must stop rather than keep acknowledging writes it may
//! forget.

use crate::wal::{frame_record, scan_records};
use crate::{DiskFault, Recovered, Storage, StorageStats, SyncNotifier, SyncPolicy, TailState};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// WAL file name inside a storage directory. Public so read-only consumers
/// (the `/evidence` scrape route) can find the log without going through
/// [`DiskStorage::open`] — opening would truncate a torn tail out from under
/// the live writer.
pub const WAL_FILE: &str = "wal.log";
const WAL_TMP: &str = "wal.tmp";
/// Snapshot file name inside a storage directory (same read-only rationale
/// as [`WAL_FILE`]).
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Shared state of the background fsync thread (overlapped group commit).
///
/// The appending thread writes records and bumps `appended`; the fsync
/// thread captures that LSN, dups the WAL handle, `sync_data`s it, and
/// advances `durable` — so while one fsync is in flight the next batch of
/// appends accumulates, and durability completion is decoupled from append
/// admission exactly as the pipelined-commit design wants.
struct Overlap {
    appended: Arc<AtomicU64>,
    durable: Arc<AtomicU64>,
    syncs: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    wake: Arc<(Mutex<()>, Condvar)>,
    notifier: SyncNotifier,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Overlap {
    fn new() -> Self {
        Overlap {
            appended: Arc::new(AtomicU64::new(0)),
            durable: Arc::new(AtomicU64::new(0)),
            syncs: Arc::new(AtomicU64::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
            wake: Arc::new((Mutex::new(()), Condvar::new())),
            notifier: SyncNotifier::default(),
            thread: None,
        }
    }

    /// Wakes the fsync thread; the lock round-trip closes the race between
    /// its predicate check and its wait.
    fn wake(&self) {
        let _guard = self.wake.0.lock().expect("fsync wake lock poisoned");
        self.wake.1.notify_all();
    }
}

/// Durable storage rooted at a data directory.
pub struct DiskStorage {
    dir: PathBuf,
    /// Shared with the overlap fsync thread, which dups the handle under the
    /// lock and syncs outside it — appends only hold the lock for the write
    /// syscall, never for a disk flush.
    wal: Arc<Mutex<File>>,
    policy: SyncPolicy,
    stats: StorageStats,
    unsynced: u64,
    telemetry: std::sync::Arc<xft_telemetry::Telemetry>,
    overlap: Option<Overlap>,
}

impl std::fmt::Debug for DiskStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStorage")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish()
    }
}

impl DiskStorage {
    /// Opens (creating if needed) the data directory and its WAL.
    pub fn open(dir: impl AsRef<Path>, policy: SyncPolicy) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // Leftovers of an interrupted atomic rewrite are dead weight: the
        // rename never happened, so the live files are authoritative.
        let _ = std::fs::remove_file(dir.join(WAL_TMP));
        let _ = std::fs::remove_file(dir.join(SNAPSHOT_TMP));
        let wal = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join(WAL_FILE))?;
        let wal_bytes = wal.metadata()?.len();
        Ok(DiskStorage {
            dir,
            wal: Arc::new(Mutex::new(wal)),
            policy,
            stats: StorageStats {
                wal_bytes,
                ..Default::default()
            },
            unsynced: 0,
            telemetry: xft_telemetry::Telemetry::disabled(),
            overlap: policy.overlap.then(Overlap::new),
        })
    }

    /// The completion-callback slot of an overlapped storage (`None` without
    /// `SyncPolicy::overlapped`). Install the callback once the receiver
    /// exists — typically a closure posting a "sync done" message into the
    /// protocol runtime's inbox.
    pub fn sync_notifier_slot(&self) -> Option<SyncNotifier> {
        self.overlap.as_ref().map(|o| o.notifier.clone())
    }

    /// Spawns the background fsync thread on first use (lazily, so it
    /// captures the telemetry hub attached after `open`).
    fn ensure_overlap_thread(&mut self) {
        let telemetry = self.telemetry.clone();
        let wal = self.wal.clone();
        let Some(overlap) = self.overlap.as_mut() else {
            return;
        };
        if overlap.thread.is_some() {
            return;
        }
        let (appended, durable, syncs) = (
            overlap.appended.clone(),
            overlap.durable.clone(),
            overlap.syncs.clone(),
        );
        let (stop, wake, notifier) = (
            overlap.stop.clone(),
            overlap.wake.clone(),
            overlap.notifier.clone(),
        );
        let thread = std::thread::Builder::new()
            .name("xft-fsync".into())
            .spawn(move || loop {
                {
                    let (lock, cv) = &*wake;
                    let mut guard = lock.lock().expect("fsync wake lock poisoned");
                    while !stop.load(Ordering::Relaxed)
                        && appended.load(Ordering::Acquire) <= durable.load(Ordering::Acquire)
                    {
                        guard = cv.wait(guard).expect("fsync wake lock poisoned");
                    }
                }
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                // Everything written before this load is covered by the
                // sync below; anything racing in after it rides the next
                // round (that is the pipelining).
                let target = appended.load(Ordering::Acquire);
                let file = Self::fatal(
                    wal.lock().expect("WAL lock poisoned").try_clone(),
                    "WAL handle dup",
                );
                let started = telemetry.is_enabled().then(std::time::Instant::now);
                // A sync failure panics this thread: `durable` stops
                // advancing, so the replica stalls its durability promises
                // rather than acknowledging writes the disk never took.
                Self::fatal(file.sync_data(), "WAL fsync");
                durable.fetch_max(target, Ordering::AcqRel);
                syncs.fetch_add(1, Ordering::Relaxed);
                if let Some(started) = started {
                    telemetry.add("xft_wal_fsyncs_total", 1);
                    telemetry.observe(
                        "xft_wal_fsync_seconds",
                        1e-9,
                        started.elapsed().as_nanos() as u64,
                    );
                }
                if let Some(notify) = notifier.get() {
                    notify(target);
                }
            })
            .expect("spawn fsync thread");
        overlap.thread = Some(thread);
    }

    /// Marks everything appended so far durable (callers that just performed
    /// a full synchronous barrier themselves: snapshot install, WAL rewrite,
    /// fault injection).
    fn mark_all_durable(&self) {
        if let Some(overlap) = &self.overlap {
            overlap
                .durable
                .fetch_max(overlap.appended.load(Ordering::Acquire), Ordering::AcqRel);
        }
    }

    /// Attaches a telemetry hub: WAL appends and fsyncs are counted and
    /// fsync latency lands in the `xft_wal_fsync_seconds` histogram. Disk
    /// storage only backs live (`xft-net`) deployments — simulated runs use
    /// [`crate::MemStorage`] — so wall-clock timing here never touches the
    /// deterministic simulator.
    pub fn with_telemetry(mut self, telemetry: std::sync::Arc<xft_telemetry::Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Whether the directory already holds durable state (drives the
    /// fresh-start vs recover decision in `xpaxos-server`).
    pub fn has_state(&self) -> bool {
        self.stats.wal_bytes > 0 || self.dir.join(SNAPSHOT_FILE).exists()
    }

    /// The data directory this storage is rooted at.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn fatal<T>(res: std::io::Result<T>, what: &str) -> T {
        match res {
            Ok(v) => v,
            Err(e) => panic!("xft-store: fatal {what} failure: {e}"),
        }
    }

    fn read_wal_bytes(&mut self) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut wal = self.wal.lock().expect("WAL lock poisoned");
        Self::fatal(wal.seek(SeekFrom::Start(0)), "WAL seek");
        Self::fatal(wal.read_to_end(&mut bytes), "WAL read");
        bytes
    }

    fn rewrite_wal(&mut self, records: &[Vec<u8>]) {
        // Crash-atomic: build the re-seeded WAL in a temp file, fsync it,
        // then rename over the live log. Truncating wal.log in place would
        // open a window where a crash loses durably acknowledged records
        // that were meant to survive the snapshot.
        let tmp = self.dir.join(WAL_TMP);
        let path = self.dir.join(WAL_FILE);
        let mut bytes = Vec::new();
        for r in records {
            bytes.extend_from_slice(&frame_record(r));
        }
        let mut file = Self::fatal(File::create(&tmp), "WAL tmp create");
        Self::fatal(file.write_all(&bytes), "WAL rewrite");
        Self::fatal(file.sync_all(), "WAL tmp fsync");
        drop(file);
        Self::fatal(std::fs::rename(&tmp, &path), "WAL rename");
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all(); // directory entry durability (best effort)
        }
        *self.wal.lock().expect("WAL lock poisoned") = Self::fatal(
            OpenOptions::new().read(true).append(true).open(&path),
            "WAL reopen",
        );
        self.stats.wal_bytes = bytes.len() as u64;
        self.unsynced = 0;
        // The rewrite itself was a full synchronous barrier.
        self.mark_all_durable();
    }
}

impl Drop for DiskStorage {
    fn drop(&mut self) {
        if let Some(overlap) = self.overlap.as_mut() {
            overlap.stop.store(true, Ordering::Relaxed);
            let thread = overlap.thread.take();
            overlap.wake();
            if let Some(thread) = thread {
                let _ = thread.join();
            }
        }
    }
}

impl Storage for DiskStorage {
    fn append(&mut self, record: &[u8]) {
        if self.policy.overlap {
            self.ensure_overlap_thread();
        }
        let framed = frame_record(record);
        Self::fatal(
            self.wal
                .lock()
                .expect("WAL lock poisoned")
                .write_all(&framed),
            "WAL append",
        );
        self.stats.appends += 1;
        self.stats.wal_bytes += framed.len() as u64;
        self.unsynced += 1;
        self.telemetry.add("xft_wal_appends_total", 1);
        self.telemetry
            .add("xft_wal_bytes_written_total", framed.len() as u64);
        if let Some(overlap) = &self.overlap {
            // Overlapped: every append wakes the fsync thread, whatever
            // `policy.batch` says (see `SyncPolicy`).
            overlap
                .appended
                .store(self.stats.appends, Ordering::Release);
            overlap.wake();
        } else if self.policy.batch > 0 && self.unsynced >= self.policy.batch {
            self.sync();
        }
    }

    fn sync(&mut self) {
        if let Some(overlap) = &self.overlap {
            // Explicit barrier: catch up synchronously instead of waiting on
            // the background thread.
            let target = overlap.appended.load(Ordering::Acquire);
            if overlap.durable.load(Ordering::Acquire) < target {
                Self::fatal(
                    self.wal.lock().expect("WAL lock poisoned").sync_data(),
                    "WAL fsync",
                );
                overlap.durable.fetch_max(target, Ordering::AcqRel);
                overlap.syncs.fetch_add(1, Ordering::Relaxed);
            }
            self.unsynced = 0;
            return;
        }
        if self.unsynced > 0 {
            let started = self.telemetry.is_enabled().then(std::time::Instant::now);
            Self::fatal(
                self.wal.lock().expect("WAL lock poisoned").sync_data(),
                "WAL fsync",
            );
            self.stats.syncs += 1;
            self.unsynced = 0;
            if let Some(started) = started {
                self.telemetry.add("xft_wal_fsyncs_total", 1);
                self.telemetry.observe(
                    "xft_wal_fsync_seconds",
                    1e-9,
                    started.elapsed().as_nanos() as u64,
                );
            }
        }
    }

    fn install_snapshot(&mut self, snapshot: &[u8], records: &[Vec<u8>]) {
        // 1. Write the framed snapshot to a temp file and fsync it.
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let finala = self.dir.join(SNAPSHOT_FILE);
        let mut file = Self::fatal(File::create(&tmp), "snapshot create");
        Self::fatal(file.write_all(&frame_record(snapshot)), "snapshot write");
        Self::fatal(file.sync_all(), "snapshot fsync");
        drop(file);
        // 2. Atomically publish it.
        Self::fatal(std::fs::rename(&tmp, &finala), "snapshot rename");
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all(); // directory entry durability (best effort)
        }
        // 3. Re-seed the WAL with the entries that outlive the snapshot. A
        //    crash between 2 and 3 leaves the new snapshot with the old WAL,
        //    which recovery tolerates (stale records replay as no-ops).
        self.rewrite_wal(records);
        self.stats.snapshots += 1;
    }

    fn load(&mut self) -> Recovered {
        let snapshot = match std::fs::read(self.dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => {
                // The snapshot file is one framed record; a damaged one is
                // treated as absent (the replica re-fetches state from peers).
                let scan = scan_records(&bytes);
                if scan.records.len() == 1 && scan.tail == TailState::Clean {
                    scan.records.into_iter().next()
                } else {
                    None
                }
            }
            Err(_) => None,
        };
        let bytes = self.read_wal_bytes();
        let out = scan_records(&bytes);
        if out.valid_len < bytes.len() {
            // Truncate the torn/corrupt tail so appends continue from the
            // last intact record.
            let wal = self.wal.lock().expect("WAL lock poisoned");
            Self::fatal(wal.set_len(out.valid_len as u64), "WAL repair truncate");
            Self::fatal(wal.sync_data(), "WAL repair fsync");
        }
        self.stats.wal_bytes = out.valid_len as u64;
        Recovered {
            snapshot,
            records: out.records,
            tail: out.tail,
        }
    }

    fn wipe(&mut self) {
        let _ = std::fs::remove_file(self.dir.join(SNAPSHOT_FILE));
        let _ = std::fs::remove_file(self.dir.join(SNAPSHOT_TMP));
        self.rewrite_wal(&[]);
    }

    fn inject(&mut self, fault: DiskFault) {
        let mut bytes = self.read_wal_bytes();
        match fault {
            DiskFault::TornTail { bytes: n } => {
                let keep = bytes.len().saturating_sub(n as usize);
                bytes.truncate(keep);
            }
            DiskFault::FlipBit { bit } => {
                if !bytes.is_empty() {
                    let bit = (bit % (bytes.len() as u64 * 8)) as usize;
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
        }
        // Write the damaged image back verbatim (bypassing framing).
        let path = self.dir.join(WAL_FILE);
        let mut file = Self::fatal(
            OpenOptions::new().write(true).truncate(true).open(&path),
            "WAL damage rewrite",
        );
        Self::fatal(file.write_all(&bytes), "WAL damage write");
        Self::fatal(file.sync_all(), "WAL damage fsync");
        drop(file);
        *self.wal.lock().expect("WAL lock poisoned") = Self::fatal(
            OpenOptions::new().read(true).append(true).open(&path),
            "WAL reopen",
        );
        self.stats.wal_bytes = bytes.len() as u64;
        self.mark_all_durable();
    }

    fn stats(&self) -> StorageStats {
        let mut stats = self.stats;
        if let Some(overlap) = &self.overlap {
            stats.syncs += overlap.syncs.load(Ordering::Relaxed);
        }
        stats
    }

    fn wal_lsn(&self) -> u64 {
        self.stats.appends
    }

    fn durable_lsn(&self) -> u64 {
        match &self.overlap {
            Some(overlap) => overlap.durable.load(Ordering::Acquire),
            None => self.stats.appends,
        }
    }

    fn overlapped(&self) -> bool {
        self.overlap.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xft-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut s = DiskStorage::open(&dir, SyncPolicy::EVERY_APPEND).unwrap();
            assert!(!s.has_state());
            s.append(b"one");
            s.append(b"two");
            s.install_snapshot(b"SNAP", &[b"two".to_vec()]);
            s.append(b"three");
        }
        let mut s = DiskStorage::open(&dir, SyncPolicy::EVERY_APPEND).unwrap();
        assert!(s.has_state());
        let rec = s.load();
        assert_eq!(rec.snapshot.as_deref(), Some(b"SNAP".as_ref()));
        assert_eq!(rec.records, vec![b"two".to_vec(), b"three".to_vec()]);
        assert_eq!(rec.tail, TailState::Clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = temp_dir("torn");
        let mut s = DiskStorage::open(&dir, SyncPolicy::every(0)).unwrap();
        s.append(b"alpha");
        s.append(b"beta");
        s.inject(DiskFault::TornTail { bytes: 3 });
        let rec = s.load();
        assert_eq!(rec.records, vec![b"alpha".to_vec()]);
        assert!(matches!(rec.tail, TailState::Torn { .. }));
        s.append(b"gamma");
        let rec = s.load();
        assert_eq!(rec.records, vec![b"alpha".to_vec(), b"gamma".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_cannot_forge_a_record() {
        let dir = temp_dir("flip");
        let mut s = DiskStorage::open(&dir, SyncPolicy::EVERY_APPEND).unwrap();
        s.append(b"payload-under-test");
        s.inject(DiskFault::FlipBit { bit: 8 * 10 });
        let rec = s.load();
        assert!(rec.records.is_empty(), "damaged record must not decode");
        assert!(matches!(rec.tail, TailState::Corrupt { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let dir = temp_dir("batch");
        let mut s = DiskStorage::open(&dir, SyncPolicy::every(8)).unwrap();
        for i in 0..20u8 {
            s.append(&[i]);
        }
        assert_eq!(s.stats().syncs, 2);
        s.sync();
        assert_eq!(s.stats().syncs, 3);
        assert_eq!(s.stats().appends, 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapped_fsync_reports_durability_and_notifies() {
        let dir = temp_dir("overlap");
        let mut s = DiskStorage::open(&dir, SyncPolicy::every(1).overlapped()).unwrap();
        assert!(Storage::overlapped(&s));
        let slot = s
            .sync_notifier_slot()
            .expect("overlap exposes a notifier slot");
        let seen = Arc::new(AtomicU64::new(0));
        let seen_in_cb = seen.clone();
        let _ = slot.set(Box::new(move |lsn| {
            seen_in_cb.fetch_max(lsn, Ordering::Relaxed);
        }));
        for i in 0..32u8 {
            s.append(&[i]);
        }
        assert_eq!(s.wal_lsn(), 32);
        // The background thread catches up without any explicit sync().
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while s.durable_lsn() < 32 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(s.durable_lsn(), 32);
        assert_eq!(
            seen.load(Ordering::Relaxed),
            32,
            "notifier saw the last LSN"
        );
        assert!(s.stats().syncs >= 1);
        // An explicit sync() is a synchronous barrier.
        s.append(b"tail");
        s.sync();
        assert_eq!(s.durable_lsn(), 33);
        drop(s);
        let mut s = DiskStorage::open(&dir, SyncPolicy::EVERY_APPEND).unwrap();
        let rec = s.load();
        assert_eq!(rec.records.len(), 33);
        assert_eq!(rec.tail, TailState::Clean);
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapped_policy_ignores_batch() {
        for batch in [0, 64] {
            let dir = temp_dir(&format!("overlap-batch-{batch}"));
            let mut s = DiskStorage::open(&dir, SyncPolicy::every(batch).overlapped()).unwrap();
            for i in 0..5u8 {
                s.append(&[i]);
            }
            // No explicit sync(): the background thread reaches the WAL end
            // though 5 appends are fewer than 64 and batch 0 means "never".
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while s.durable_lsn() < s.wal_lsn() && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(s.durable_lsn(), s.wal_lsn(), "batch {batch}");
            drop(s);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn damaged_snapshot_reads_as_absent() {
        let dir = temp_dir("snapdmg");
        let mut s = DiskStorage::open(&dir, SyncPolicy::EVERY_APPEND).unwrap();
        s.install_snapshot(b"GOOD", &[]);
        // Flip a byte inside the snapshot file on disk.
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(s.load().snapshot.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
