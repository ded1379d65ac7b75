//! The on-disk backend: one data directory per replica.
//!
//! Layout:
//!
//! * `wal.log` — framed records appended straight to the file; fsync
//!   cadence follows the [`SyncPolicy`] (group commit);
//! * `snapshot.bin` — the latest snapshot blob, framed like a WAL record so
//!   it carries its own CRC;
//! * `LOCK` — exclusively locked for the life of a [`DiskStorage`], so a
//!   second open of a live directory fails instead of interleaving two
//!   writers in one log.
//!
//! # Snapshot installs run in the background
//!
//! [`Storage::install_snapshot`] copies its arguments, records the WAL's
//! current length as the *cut*, hands the job to the storage's installer
//! thread (`xft-fsync-snap`, started by the first install) and returns. The
//! installer persists it in two steps:
//!
//! 1. write `snapshot.tmp`, fsync it, rename it over `snapshot.bin` and
//!    fsync the directory;
//! 2. only then compact the WAL: write `wal.tmp` with the re-seed records
//!    and every byte of `wal.log` from the cut on, fdatasync it, then —
//!    holding the WAL lock, the only moment appends wait — copy what was
//!    appended meanwhile, fdatasync again if anything was, rename it over
//!    `wal.log` and swap in the new append handle.
//!
//! A crash before step 1's rename recovers the old snapshot and the whole
//! WAL; between the steps, the new snapshot and the whole old WAL (whose
//! stale records replay as no-ops); after step 2, the new snapshot, the
//! re-seed records and every record appended since the cut. Every byte of
//! the new `wal.log` is synced before its rename, so durability reported
//! for an append holds whichever file the append landed in.
//!
//! At most one install is in flight: the next install, `load`, `wipe`,
//! `inject` and dropping the storage wait for it. WAL fsyncs never queue
//! behind an install — they run on the appending thread or, with an
//! overlapped policy, on the separate `xft-fsync` thread.
//!
//! I/O errors are fatal by design (see [`Storage`]): a replica that cannot
//! persist its log must stop rather than keep acknowledging writes it may
//! forget. A failed install panics the installer with its lock held, so the
//! owner panics at its next install, `load`, `wipe` or `inject` (dropping
//! the storage does not panic); a failed background fsync stops
//! [`Storage::durable_lsn`] from advancing.

use crate::wal::{frame_record, record_header, scan_records};
use crate::{DiskFault, Recovered, Storage, StorageStats, SyncNotifier, SyncPolicy, TailState};
use std::fs::{File, OpenOptions, TryLockError};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
const LOCK_FILE: &str = "LOCK";

/// A storage's long-lived background thread. It sleeps on the condvar until
/// `pending` holds for the shared state, then hands the locked state to
/// `work`, which decides whether to release the lock before its I/O. Once
/// stopped it exits without running pending work: whoever needs a job
/// finished waits for it first ([`Worker::wait_until`]).
struct Worker<T> {
    shared: Arc<Shared<T>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

struct Shared<T> {
    state: Mutex<T>,
    wake: Condvar,
    stop: AtomicBool,
}

impl<T: Send + 'static> Worker<T> {
    fn spawn(
        name: &str,
        state: T,
        pending: impl Fn(&T) -> bool + Send + 'static,
        mut work: impl FnMut(MutexGuard<'_, T>, &Condvar) + Send + 'static,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let inner = shared.clone();
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || loop {
                let mut state = inner.state.lock().expect("storage worker lock poisoned");
                while !inner.stop.load(Ordering::Relaxed) && !pending(&state) {
                    state = inner
                        .wake
                        .wait(state)
                        .expect("storage worker lock poisoned");
                }
                if inner.stop.load(Ordering::Relaxed) {
                    return;
                }
                work(state, &inner.wake);
            })
            .expect("spawn storage worker thread");
        Worker {
            shared,
            thread: Some(thread),
        }
    }

    /// Applies `update` under the state lock and wakes the thread and every
    /// waiter; the lock closes the race between the thread's predicate check
    /// and its wait.
    fn wake(&self, update: impl FnOnce(&mut T)) {
        let mut state = self.shared.state.lock().expect("storage worker failed");
        update(&mut state);
        self.shared.wake.notify_all();
    }

    /// Blocks until `done` holds for the state. Returns `false` instead if
    /// the worker died holding the lock (a fatal I/O failure).
    fn wait_until(&self, done: impl Fn(&T) -> bool) -> bool {
        let Ok(mut state) = self.shared.state.lock() else {
            return false;
        };
        while !done(&state) {
            match self.shared.wake.wait(state) {
                Ok(next) => state = next,
                Err(_) => return false,
            }
        }
        true
    }
}

impl<T> Drop for Worker<T> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        {
            let _state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.wake.notify_all();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Wakes a condvar's waiters when dropped — also while a panic unwinds, so
/// they learn of a dead worker instead of sleeping forever.
struct NotifyOnDrop<'a>(&'a Condvar);

impl Drop for NotifyOnDrop<'_> {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

/// LSN counters shared with the background fsync thread (overlapped group
/// commit).
///
/// The appending thread writes records and bumps `appended`; the fsync
/// thread captures that LSN, dups the WAL handle, `sync_data`s it, and
/// advances `durable` — so while one fsync is in flight the next batch of
/// appends accumulates, and durability completion is decoupled from append
/// admission exactly as the pipelined-commit design wants.
#[derive(Default)]
struct Lsns {
    appended: AtomicU64,
    durable: AtomicU64,
    syncs: AtomicU64,
}

/// Overlapped group commit: the counters, the completion callback and the
/// `xft-fsync` thread (started by the first append).
struct Overlap {
    lsn: Arc<Lsns>,
    notifier: SyncNotifier,
    fsync: Option<Worker<()>>,
}

/// The live WAL: its append handle and its length, swapped together when an
/// install compacts the log.
struct Wal {
    file: File,
    len: u64,
}

/// An install handed to the installer thread (see the module docs).
struct InstallJob {
    snapshot: Vec<u8>,
    records: Vec<Vec<u8>>,
    /// `wal.log`'s length when the install was queued: the records before
    /// it are superseded by the snapshot and the re-seed records.
    cut: u64,
}

/// Durable storage rooted at a data directory.
pub struct DiskStorage {
    dir: PathBuf,
    /// Shared with the fsync thread, which dups the handle under the lock
    /// and syncs outside it, and with the installer, which swaps it — so
    /// appends hold the lock for the write syscall and, once per install,
    /// for the final catch-up copy and rename.
    wal: Arc<Mutex<Wal>>,
    policy: SyncPolicy,
    /// Counters kept by the owner; `wal_bytes` is read from `wal`.
    stats: StorageStats,
    unsynced: u64,
    telemetry: std::sync::Arc<xft_telemetry::Telemetry>,
    overlap: Option<Overlap>,
    /// The installer thread, started by the first install. Its state is the
    /// install in flight, `None` once it is durable.
    installer: Option<Worker<Option<InstallJob>>>,
    /// The directory's `LOCK`, held until the handle (and its threads) are
    /// gone.
    _lock: File,
}

impl std::fmt::Debug for DiskStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStorage")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DiskStorage {
    /// Opens (creating if needed) the data directory and its WAL. Fails if
    /// another live `DiskStorage` holds the directory.
    pub fn open(dir: impl AsRef<Path>, policy: SyncPolicy) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let lock = File::create(dir.join(LOCK_FILE))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!("{} is already open in another storage", dir.display()),
                ))
            }
            Err(TryLockError::Error(e)) => return Err(e),
        }
        // Leftovers of an interrupted atomic rewrite are dead weight: the
        // rename never happened, so the live files are authoritative (and
        // with the lock held, no installer is still writing them).
        let _ = std::fs::remove_file(dir.join(WAL_TMP));
        let _ = std::fs::remove_file(dir.join(SNAPSHOT_TMP));
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join(WAL_FILE))?;
        let len = file.metadata()?.len();
        Ok(DiskStorage {
            dir,
            wal: Arc::new(Mutex::new(Wal { file, len })),
            policy,
            stats: StorageStats::default(),
            unsynced: 0,
            telemetry: xft_telemetry::Telemetry::disabled(),
            overlap: policy.overlap.then(|| Overlap {
                lsn: Arc::default(),
                notifier: SyncNotifier::default(),
                fsync: None,
            }),
            installer: None,
            _lock: lock,
        })
    }

    /// The completion-callback slot of an overlapped storage (`None` without
    /// `SyncPolicy::overlapped`). Install the callback once the receiver
    /// exists — typically a closure posting a "sync done" message into the
    /// protocol runtime's inbox.
    pub fn sync_notifier_slot(&self) -> Option<SyncNotifier> {
        self.overlap.as_ref().map(|o| o.notifier.clone())
    }

    /// The background fsync thread of an overlapped storage, started on
    /// first use (lazily, so it captures the telemetry hub attached after
    /// `open`).
    fn fsync_worker(&mut self) -> Option<&Worker<()>> {
        let overlap = self.overlap.as_mut()?;
        let (lsn, notifier) = (&overlap.lsn, &overlap.notifier);
        let (wal, telemetry) = (&self.wal, &self.telemetry);
        Some(overlap.fsync.get_or_insert_with(|| {
            let (backlog, lsn) = (lsn.clone(), lsn.clone());
            let (notifier, wal, telemetry) = (notifier.clone(), wal.clone(), telemetry.clone());
            Worker::spawn(
                "xft-fsync",
                (),
                move |_| {
                    backlog.appended.load(Ordering::Acquire)
                        > backlog.durable.load(Ordering::Acquire)
                },
                move |wake, _| {
                    drop(wake);
                    // Everything written before this load is covered by the
                    // sync below; anything racing in after it rides the next
                    // round (that is the pipelining).
                    let target = lsn.appended.load(Ordering::Acquire);
                    let file = fatal(lock_wal(&wal).file.try_clone(), "WAL handle dup");
                    let started = telemetry.is_enabled().then(std::time::Instant::now);
                    // A sync failure panics this thread: `durable` stops
                    // advancing, so the replica stalls its durability
                    // promises rather than acknowledging writes the disk
                    // never took.
                    fatal(file.sync_data(), "WAL fsync");
                    lsn.durable.fetch_max(target, Ordering::AcqRel);
                    lsn.syncs.fetch_add(1, Ordering::Relaxed);
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
                },
            )
        }))
    }

    /// Blocks until no install is in flight.
    fn wait_installed(&self) {
        if let Some(installer) = &self.installer {
            assert!(
                installer.wait_until(Option::is_none),
                "xft-store: the snapshot installer failed"
            );
        }
    }

    /// Marks everything appended so far durable (callers that just performed
    /// a full synchronous barrier themselves: wipe, fault injection).
    fn mark_all_durable(&self) {
        if let Some(overlap) = &self.overlap {
            let appended = overlap.lsn.appended.load(Ordering::Acquire);
            overlap.lsn.durable.fetch_max(appended, Ordering::AcqRel);
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
        lock_wal(&self.wal).len > 0 || self.dir.join(SNAPSHOT_FILE).exists()
    }

    /// The data directory this storage is rooted at.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn read_wal_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut wal = lock_wal(&self.wal);
        fatal(wal.file.seek(SeekFrom::Start(0)), "WAL seek");
        fatal(wal.file.read_to_end(&mut bytes), "WAL read");
        bytes
    }
}

fn fatal<T>(res: io::Result<T>, what: &str) -> T {
    match res {
        Ok(v) => v,
        Err(e) => panic!("xft-store: fatal {what} failure: {e}"),
    }
}

fn lock_wal(wal: &Mutex<Wal>) -> MutexGuard<'_, Wal> {
    wal.lock().expect("WAL lock poisoned")
}

/// Makes a rename inside `dir` durable.
fn sync_dir(dir: &Path) {
    let d = fatal(File::open(dir), "directory open");
    fatal(d.sync_all(), "directory sync");
}

/// The installer's job: step 1, then step 2 (see the module docs).
fn install(dir: &Path, wal: &Mutex<Wal>, job: &InstallJob) {
    let tmp = dir.join(SNAPSHOT_TMP);
    let mut file = fatal(File::create(&tmp), "snapshot create");
    fatal(
        file.write_all(&record_header(&job.snapshot)),
        "snapshot write",
    );
    fatal(file.write_all(&job.snapshot), "snapshot write");
    fatal(file.sync_all(), "snapshot fsync");
    drop(file);
    fatal(
        std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE)),
        "snapshot rename",
    );
    sync_dir(dir);
    compact_wal(dir, wal, &job.records, job.cut);
}

/// Replaces `wal.log` with `records` followed by its bytes from `cut` on,
/// crash-atomically: a truncate in place would open a window where a crash
/// loses durably acknowledged records. Appends continue during the bulk
/// copy and wait only for the catch-up and the swap.
fn compact_wal(dir: &Path, wal: &Mutex<Wal>, records: &[Vec<u8>], cut: u64) {
    let tmp_path = dir.join(WAL_TMP);
    let path = dir.join(WAL_FILE);
    let mut tmp = fatal(File::create(&tmp_path), "WAL tmp create");
    for r in records {
        fatal(tmp.write_all(&record_header(r)), "WAL rewrite");
        fatal(tmp.write_all(r), "WAL rewrite");
    }
    let mut live = fatal(File::open(&path), "WAL open");
    fatal(live.seek(SeekFrom::Start(cut)), "WAL seek");
    // Appends bump `len` only once their bytes are written, so everything
    // below `end` is whole.
    let end = lock_wal(wal).len;
    copy_exact(&live, &mut tmp, end - cut);
    fatal(tmp.sync_data(), "WAL tmp fsync");
    let mut wal = lock_wal(wal);
    if wal.len > end {
        copy_exact(&live, &mut tmp, wal.len - end);
        fatal(tmp.sync_data(), "WAL tmp fsync");
    }
    let len = fatal(tmp.metadata(), "WAL tmp stat").len();
    drop(tmp);
    fatal(std::fs::rename(&tmp_path, &path), "WAL rename");
    sync_dir(dir);
    wal.file = fatal(
        OpenOptions::new().read(true).append(true).open(&path),
        "WAL reopen",
    );
    wal.len = len;
}

/// Copies the next `n` bytes of `from` to `to`.
fn copy_exact(from: &File, to: &mut File, n: u64) {
    let copied = fatal(io::copy(&mut from.take(n), to), "WAL copy");
    assert_eq!(copied, n, "xft-store: wal.log shrank during compaction");
}

impl Drop for DiskStorage {
    fn drop(&mut self) {
        // An install in flight becomes durable before the handle and its
        // LOCK go away; the threads stop as their fields drop. A dead
        // installer has already reported its failure, and Drop must not
        // panic.
        if let Some(installer) = &self.installer {
            let _ = installer.wait_until(Option::is_none);
        }
    }
}

impl Storage for DiskStorage {
    fn append(&mut self, record: &[u8]) {
        let framed = frame_record(record);
        {
            let mut wal = lock_wal(&self.wal);
            fatal(wal.file.write_all(&framed), "WAL append");
            wal.len += framed.len() as u64;
        }
        self.stats.appends += 1;
        self.unsynced += 1;
        self.telemetry.add("xft_wal_appends_total", 1);
        self.telemetry
            .add("xft_wal_bytes_written_total", framed.len() as u64);
        if let Some(overlap) = &self.overlap {
            overlap
                .lsn
                .appended
                .store(self.stats.appends, Ordering::Release);
        }
        if let Some(fsync) = self.fsync_worker() {
            // Overlapped: every append wakes the fsync thread, whatever
            // `policy.batch` says (see `SyncPolicy`).
            fsync.wake(|_| ());
        } else if self.policy.batch > 0 && self.unsynced >= self.policy.batch {
            self.sync();
        }
    }

    fn sync(&mut self) {
        if let Some(overlap) = &self.overlap {
            // Explicit barrier: catch up synchronously instead of waiting on
            // the background thread.
            let target = overlap.lsn.appended.load(Ordering::Acquire);
            if overlap.lsn.durable.load(Ordering::Acquire) < target {
                fatal(lock_wal(&self.wal).file.sync_data(), "WAL fsync");
                overlap.lsn.durable.fetch_max(target, Ordering::AcqRel);
                overlap.lsn.syncs.fetch_add(1, Ordering::Relaxed);
            }
            self.unsynced = 0;
            return;
        }
        if self.unsynced > 0 {
            let started = self.telemetry.is_enabled().then(std::time::Instant::now);
            fatal(lock_wal(&self.wal).file.sync_data(), "WAL fsync");
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
        self.wait_installed();
        let job = InstallJob {
            snapshot: snapshot.to_vec(),
            records: records.to_vec(),
            cut: lock_wal(&self.wal).len,
        };
        let (dir, wal) = (&self.dir, &self.wal);
        let installer = self.installer.get_or_insert_with(|| {
            let (dir, wal) = (dir.clone(), wal.clone());
            // The `xft-fsync` prefix files the installer's CPU with the WAL
            // fsyncs wherever threads are accounted by name.
            Worker::spawn(
                "xft-fsync-snap",
                None,
                Option::is_some,
                move |mut job: MutexGuard<'_, Option<InstallJob>>, done| {
                    let _done = NotifyOnDrop(done);
                    if let Some(job) = job.as_ref() {
                        install(&dir, &wal, job);
                    }
                    *job = None;
                },
            )
        });
        installer.wake(|slot| *slot = Some(job));
        self.stats.snapshots += 1;
    }

    fn load(&mut self) -> Recovered {
        self.wait_installed();
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
        let mut wal = lock_wal(&self.wal);
        if out.valid_len < bytes.len() {
            // Truncate the torn/corrupt tail so appends continue from the
            // last intact record.
            fatal(
                wal.file.set_len(out.valid_len as u64),
                "WAL repair truncate",
            );
            fatal(wal.file.sync_data(), "WAL repair fsync");
        }
        wal.len = out.valid_len as u64;
        Recovered {
            snapshot,
            records: out.records,
            tail: out.tail,
        }
    }

    fn wipe(&mut self) {
        self.wait_installed();
        let _ = std::fs::remove_file(self.dir.join(SNAPSHOT_FILE));
        let end = lock_wal(&self.wal).len;
        compact_wal(&self.dir, &self.wal, &[], end);
        self.unsynced = 0;
        // The rewrite itself was a full synchronous barrier.
        self.mark_all_durable();
    }

    fn inject(&mut self, fault: DiskFault) {
        self.wait_installed();
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
        let mut file = fatal(
            OpenOptions::new().write(true).truncate(true).open(&path),
            "WAL damage rewrite",
        );
        fatal(file.write_all(&bytes), "WAL damage write");
        fatal(file.sync_all(), "WAL damage fsync");
        drop(file);
        *lock_wal(&self.wal) = Wal {
            file: fatal(
                OpenOptions::new().read(true).append(true).open(&path),
                "WAL reopen",
            ),
            len: bytes.len() as u64,
        };
        self.mark_all_durable();
    }

    fn stats(&self) -> StorageStats {
        let mut stats = self.stats;
        stats.wal_bytes = lock_wal(&self.wal).len;
        if let Some(overlap) = &self.overlap {
            stats.syncs += overlap.lsn.syncs.load(Ordering::Relaxed);
        }
        stats
    }

    fn wal_lsn(&self) -> u64 {
        self.stats.appends
    }

    fn durable_lsn(&self) -> u64 {
        match &self.overlap {
            Some(overlap) => overlap.lsn.durable.load(Ordering::Acquire),
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
    #[should_panic(expected = "fatal directory open failure")]
    fn sync_dir_fails_loudly_on_a_missing_directory() {
        sync_dir(&temp_dir("missing-dir"));
    }

    /// The background-install tests run under both kinds of policy.
    fn policies() -> [SyncPolicy; 2] {
        [SyncPolicy::EVERY_APPEND, SyncPolicy::every(1).overlapped()]
    }

    fn policy_tag(policy: SyncPolicy) -> &'static str {
        if policy.overlap {
            "overlapped"
        } else {
            "sync"
        }
    }

    /// Large enough that its install is still running when the next call
    /// arrives.
    fn big_snapshot(fill: u8) -> Vec<u8> {
        vec![fill; 4 << 20]
    }

    /// The snapshot `snapshot.bin` holds, read without opening the storage.
    fn snapshot_on_disk(dir: &Path) -> Option<Vec<u8>> {
        let scan = scan_records(&std::fs::read(dir.join(SNAPSHOT_FILE)).ok()?);
        (scan.records.len() == 1 && scan.tail == TailState::Clean)
            .then(|| scan.records.into_iter().next().expect("one record"))
    }

    fn temp_files_left(dir: &Path) -> bool {
        dir.join(SNAPSHOT_TMP).exists() || dir.join(WAL_TMP).exists()
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
    fn a_live_directory_cannot_be_opened_twice() {
        let dir = temp_dir("lock");
        let first = DiskStorage::open(&dir, SyncPolicy::EVERY_APPEND).unwrap();
        let err = DiskStorage::open(&dir, SyncPolicy::every(1).overlapped()).unwrap_err();
        assert!(
            err.to_string().contains(&dir.display().to_string()),
            "the error names the directory: {err}"
        );
        drop(first);
        let mut second = DiskStorage::open(&dir, SyncPolicy::EVERY_APPEND).unwrap();
        assert!(second.load().is_empty());
        drop(second);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_racing_an_install_survive_in_order() {
        for policy in policies() {
            let dir = temp_dir(&format!("race-{}", policy_tag(policy)));
            let reseed: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 100 + i as usize]).collect();
            // Mixed sizes: empty, small, and every 100th one 64 KiB.
            let later: Vec<Vec<u8>> = (0..1200usize)
                .map(|i| {
                    let len = if i % 100 == 99 {
                        64 << 10
                    } else {
                        i * 37 % 3000
                    };
                    vec![(i % 251) as u8; len]
                })
                .collect();
            {
                let mut s = DiskStorage::open(&dir, policy).unwrap();
                for i in 0..50u8 {
                    s.append(&[i; 64]);
                }
                s.install_snapshot(&big_snapshot(7), &reseed);
                // Paced so that appends land before, during and after both
                // installer steps, whatever the policy's append cost.
                for r in &later {
                    s.append(r);
                    std::thread::sleep(std::time::Duration::from_micros(20));
                }
            }
            let mut s = DiskStorage::open(&dir, policy).unwrap();
            let rec = s.load();
            assert_eq!(rec.snapshot, Some(big_snapshot(7)), "{policy:?}");
            assert!(
                rec.records == [reseed, later].concat(),
                "{policy:?}: the re-seed records, then every later record once and in order"
            );
            assert_eq!(rec.tail, TailState::Clean, "{policy:?}");
            drop(s);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// The three directories a crash mid-install can leave behind, built by
    /// hand on top of an old snapshot and a three-record WAL.
    #[test]
    fn every_intermediate_install_state_recovers() {
        let old_wal = vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()];
        let new_snapshot = frame_record(b"NEW");
        let partial_snapshot = new_snapshot[..new_snapshot.len() - 1].to_vec();
        let partial_wal = [frame_record(b"c"), frame_record(b"d")[..5].to_vec()].concat();
        let cases = [
            // Crash while writing snapshot.tmp: the old state.
            (
                "snapshot-tmp",
                vec![(SNAPSHOT_TMP, partial_snapshot)],
                b"OLD",
            ),
            // Crash between the steps: the new snapshot, the whole old WAL.
            (
                "new-snapshot",
                vec![(SNAPSHOT_FILE, new_snapshot.clone())],
                b"NEW",
            ),
            // Crash while writing wal.tmp: the same.
            (
                "wal-tmp",
                vec![(SNAPSHOT_FILE, new_snapshot), (WAL_TMP, partial_wal)],
                b"NEW",
            ),
        ];
        for policy in policies() {
            for (tag, files, snapshot) in &cases {
                let dir = temp_dir(&format!("mid-{tag}-{}", policy_tag(policy)));
                {
                    let mut s = DiskStorage::open(&dir, policy).unwrap();
                    s.install_snapshot(b"OLD", &[]);
                    for r in &old_wal {
                        s.append(r);
                    }
                }
                for (name, bytes) in files {
                    std::fs::write(dir.join(name), bytes).unwrap();
                }
                let mut s = DiskStorage::open(&dir, policy).unwrap();
                assert!(!temp_files_left(&dir), "{tag}: open clears temp files");
                let rec = s.load();
                assert_eq!(
                    rec.snapshot.as_deref(),
                    Some(snapshot.as_slice()),
                    "{tag} {policy:?}"
                );
                assert_eq!(rec.records, old_wal, "{tag} {policy:?}");
                assert_eq!(rec.tail, TailState::Clean, "{tag} {policy:?}");
                s.append(b"next");
                assert_eq!(s.load().records.last().unwrap(), b"next");
                drop(s);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn calls_wait_for_the_install_in_flight() {
        let keep = vec![b"keep".to_vec()];
        for policy in policies() {
            for op in ["load", "wipe", "inject", "install", "drop"] {
                let dir = temp_dir(&format!("wait-{op}-{}", policy_tag(policy)));
                let mut s = DiskStorage::open(&dir, policy).unwrap();
                s.append(b"old");
                s.install_snapshot(&big_snapshot(1), &keep);
                let ctx = format!("{op} {policy:?}");
                match op {
                    "load" => {
                        let rec = s.load();
                        assert_eq!(rec.snapshot, Some(big_snapshot(1)), "{ctx}");
                        assert_eq!(rec.records, keep, "{ctx}");
                    }
                    "wipe" => {
                        s.wipe();
                        assert!(!temp_files_left(&dir), "{ctx}");
                        assert!(s.load().is_empty(), "{ctx}: nothing reappears");
                    }
                    "inject" => {
                        s.inject(DiskFault::TornTail { bytes: 1 });
                        assert!(!temp_files_left(&dir), "{ctx}");
                        assert_eq!(snapshot_on_disk(&dir), Some(big_snapshot(1)), "{ctx}");
                        let rec = s.load();
                        assert!(rec.records.is_empty(), "{ctx}: the damage is kept");
                        assert!(matches!(rec.tail, TailState::Torn { .. }), "{ctx}");
                    }
                    "install" => {
                        s.append(b"mid");
                        s.install_snapshot(&big_snapshot(2), &[]);
                        let on_disk = snapshot_on_disk(&dir);
                        assert!(
                            on_disk == Some(big_snapshot(1)) || on_disk == Some(big_snapshot(2)),
                            "{ctx}: the first install finished before the second was queued"
                        );
                        s.append(b"after");
                        let rec = s.load();
                        assert_eq!(rec.snapshot, Some(big_snapshot(2)), "{ctx}");
                        // The second cut was taken in the compacted WAL.
                        assert_eq!(rec.records, [b"after".to_vec()], "{ctx}");
                        assert_eq!(rec.tail, TailState::Clean, "{ctx}");
                    }
                    _ => {
                        drop(s);
                        assert_eq!(snapshot_on_disk(&dir), Some(big_snapshot(1)), "{ctx}");
                        let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
                        assert_eq!(scan_records(&wal).records, keep, "{ctx}");
                        assert!(!temp_files_left(&dir), "{ctx}");
                        std::fs::remove_dir_all(&dir).unwrap();
                        continue;
                    }
                }
                assert!(!temp_files_left(&dir), "{ctx}");
                drop(s);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn a_failed_install_is_fatal_to_the_owner_but_not_to_drop() {
        let dir = temp_dir("failed-install");
        let mut s = DiskStorage::open(&dir, SyncPolicy::EVERY_APPEND).unwrap();
        s.append(b"one");
        // The installer cannot create its temp file in a deleted directory.
        std::fs::remove_dir_all(&dir).unwrap();
        s.install_snapshot(b"SNAP", &[]);
        let load = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.load()));
        assert!(load.is_err(), "the owner learns of the failure");
        drop(s);
    }

    #[test]
    fn counters_follow_background_installs() {
        for policy in policies() {
            let dir = temp_dir(&format!("counters-{}", policy_tag(policy)));
            let mut s = DiskStorage::open(&dir, policy).unwrap();
            for i in 0..20u8 {
                s.append(&[i; 100]);
            }
            for n in 1..=3u8 {
                s.install_snapshot(&big_snapshot(n), &[vec![n; 10]]);
                for i in 0..50u8 {
                    s.append(&[i; 200]);
                }
                assert_eq!(s.stats().snapshots, n as u64, "{policy:?}");
                s.load(); // waits for the install
                let on_disk = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
                assert_eq!(s.stats().wal_bytes, on_disk, "{policy:?} install {n}");
            }
            drop(s);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        // Overlapped: whatever the fsync thread declared durable across an
        // install is in the reopened WAL.
        let dir = temp_dir("counters-durable");
        let mut s = DiskStorage::open(&dir, SyncPolicy::every(1).overlapped()).unwrap();
        s.install_snapshot(&big_snapshot(9), &[]);
        for i in 0..200u8 {
            s.append(&[i; 300]);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while s.durable_lsn() < s.wal_lsn() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let durable = s.durable_lsn();
        drop(s);
        let mut s = DiskStorage::open(&dir, SyncPolicy::EVERY_APPEND).unwrap();
        assert!(s.load().records.len() as u64 >= durable);
        drop(s);
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
        s.load(); // lets the install finish before the file is damaged
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
