//! # xft-store — durable replica state for the XFT reproduction
//!
//! XPaxos's checkpointing and lazy replication (paper §4.5) assume a replica
//! can lose its volatile state and still come back: the fault model explicitly
//! includes machine crash–recover. This crate is the stable storage those
//! assumptions lean on:
//!
//! * an **append-only WAL** of length-prefixed, CRC-checked records
//!   ([`wal`]) with a group-commit fsync-batching knob ([`SyncPolicy`]) —
//!   the replica appends its prepare/commit/view transitions here;
//! * **snapshot files**: one opaque snapshot blob (the replica's encoded
//!   state-machine snapshot plus the t + 1-signed CHKPT proof) installed
//!   atomically via write-to-temp + rename, re-seeding the WAL with the
//!   entries that must outlive it — on [`DiskStorage`], off the caller's
//!   thread (see [`disk`]);
//! * **crash recovery**: scan the WAL, verify every record's CRC, truncate a
//!   torn or corrupt tail, and hand the intact prefix back for replay.
//!
//! Everything sits behind the [`Storage`] trait with two backends:
//! [`DiskStorage`] for real `xft-net` deployments (`xpaxos-server
//! --data-dir`), and the deterministic in-memory [`MemStorage`] for
//! `xft-simnet` runs and the chaos explorer's disk-fault injection
//! ([`DiskFault`]).
//!
//! The crate is protocol-agnostic: records and snapshots are opaque byte
//! strings (the replica encodes them with `xft-wire`), so `xft-store` sits
//! below `xft-core` in the workspace DAG and depends only on `std` and the
//! equally dependency-free `xft-telemetry` (WAL append/fsync latency
//! instrumentation on [`DiskStorage`], see
//! [`DiskStorage::with_telemetry`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod mem;
pub mod wal;

pub use disk::{DiskStorage, SNAPSHOT_FILE, WAL_FILE};
pub use mem::MemStorage;
pub use wal::{crc32, MAX_RECORD};

/// How the tail of a recovered WAL looked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// Every byte of the WAL parsed as intact records.
    Clean,
    /// The WAL ended mid-record (a crash between `write` and completion);
    /// the partial record was dropped.
    Torn {
        /// Bytes discarded from the tail.
        dropped: u64,
    },
    /// A record failed its CRC check; it and everything after it were
    /// dropped (a corrupt record makes the remainder unattributable).
    Corrupt {
        /// Bytes discarded from the first bad record onward.
        dropped: u64,
    },
}

impl TailState {
    /// Whether recovery had to discard any bytes.
    pub fn lossy(&self) -> bool {
        !matches!(self, TailState::Clean)
    }
}

/// Everything a backend recovered from stable storage.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The installed snapshot blob, if one exists.
    pub snapshot: Option<Vec<u8>>,
    /// Every intact WAL record, in append order.
    pub records: Vec<Vec<u8>>,
    /// What happened at the end of the WAL.
    pub tail: TailState,
}

impl Recovered {
    /// Whether any durable state was found at all.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.records.is_empty()
    }
}

/// Group-commit policy: how many appended records may accumulate before the
/// backend forces them to stable storage.
///
/// * `SyncPolicy::EVERY_APPEND` (batch = 1) fsyncs after each record — the
///   strongest durability, one fsync per operation;
/// * `SyncPolicy::every(n)` fsyncs once per `n` appends (group commit) —
///   a crash can lose at most the last `n − 1` records;
/// * `SyncPolicy::every(0)` never fsyncs explicitly and leaves durability to
///   the OS page cache — the fastest and weakest setting.
///
/// `overlap` replaces that cadence rather than adding to it: appends return
/// immediately, and a background thread fsyncs whenever anything is
/// unsynced, as fast as the disk allows (natural group commit — everything
/// appended during one fsync rides the next). **An overlapped policy ignores
/// `batch`**: `every(0).overlapped()` and `every(64).overlapped()` sync
/// exactly like `every(1).overlapped()`, the spelling to use. Completion is
/// reported through [`Storage::durable_lsn`] plus an optional
/// [`SyncNotifier`] callback. Callers that promised durability (the
/// replica's client replies) wait for the LSN instead of the fsync itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncPolicy {
    /// Appends per fsync; `0` disables explicit fsyncs. Ignored when
    /// `overlap` is set.
    pub batch: u64,
    /// Run fsyncs on a background thread, overlapped with appends, whenever
    /// anything is unsynced.
    pub overlap: bool,
}

impl SyncPolicy {
    /// Fsync after every single append.
    pub const EVERY_APPEND: SyncPolicy = SyncPolicy {
        batch: 1,
        overlap: false,
    };
    /// Fsync once per `batch` appends (`0` = never).
    pub fn every(batch: u64) -> Self {
        SyncPolicy {
            batch,
            overlap: false,
        }
    }

    /// Moves fsyncs to a background thread (pipelined group commit) that
    /// syncs whenever anything is unsynced; `batch` no longer applies.
    pub fn overlapped(mut self) -> Self {
        self.overlap = true;
        self
    }
}

/// Late-bound completion callback for overlapped fsyncs: the backend invokes
/// it with the newly durable LSN after each background fsync. A `OnceLock`
/// slot because the receiver (the protocol runtime's inbox) usually does not
/// exist yet when the storage is constructed — install the callback whenever
/// it is ready; completions before that are still visible through
/// [`Storage::durable_lsn`].
pub type SyncNotifier = std::sync::Arc<std::sync::OnceLock<Box<dyn Fn(u64) + Send + Sync>>>;

impl Default for SyncPolicy {
    /// Default to per-append durability; benchmarks opt into batching.
    fn default() -> Self {
        SyncPolicy::EVERY_APPEND
    }
}

/// Cumulative counters a backend maintains (benchmarks and tests read them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Records appended to the WAL since open.
    pub appends: u64,
    /// Explicit fsync (or equivalent) barriers issued.
    pub syncs: u64,
    /// Snapshots installed.
    pub snapshots: u64,
    /// Bytes currently in the WAL.
    pub wal_bytes: u64,
}

/// A storage-level fault, injected by the chaos explorer's disk-fault
/// schedule entries. Both backends honour them, so a fault found in
/// simulation reproduces against a real data directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Chop `bytes` off the end of the WAL (a torn write / lost tail).
    TornTail {
        /// Bytes to drop from the end (clamped to the WAL length).
        bytes: u64,
    },
    /// Flip one bit somewhere in the WAL body (silent media corruption).
    FlipBit {
        /// Bit offset, interpreted modulo the WAL's length in bits.
        bit: u64,
    },
}

/// Stable storage for one replica: an append-only WAL plus a snapshot slot.
///
/// Implementations must make [`Storage::load`] reflect exactly what survived:
/// the snapshot installed last, plus the longest intact prefix of records
/// appended (re-seeded) since. I/O failures are fatal by design — a replica
/// that cannot write its log can no longer uphold its durability promises,
/// so backends panic rather than silently degrade.
pub trait Storage: Send {
    /// Appends one logical record to the WAL. The backend frames and
    /// checksums it; durability follows the backend's [`SyncPolicy`].
    fn append(&mut self, record: &[u8]);

    /// Forces everything appended so far to stable storage.
    fn sync(&mut self);

    /// Installs `snapshot` as the new recovery base and re-seeds the WAL
    /// with `records` (the entries that must survive past the snapshot),
    /// dropping the records appended before the call.
    ///
    /// A backend may return before the install is durable ([`DiskStorage`]
    /// persists it on a background thread); appends made meanwhile land
    /// after the re-seed records. The switch is crash-safe. Depending on
    /// when a crash strikes, recovery sees:
    ///
    /// * the old snapshot and every record appended so far;
    /// * the new snapshot and every record appended so far, including those
    ///   the snapshot supersedes (the caller must replay them as no-ops);
    /// * the new snapshot, `records`, and every record appended after the
    ///   call.
    ///
    /// A later `install_snapshot`, [`Storage::load`], [`Storage::wipe`] or
    /// [`Storage::inject`] first waits for an install still in flight.
    fn install_snapshot(&mut self, snapshot: &[u8], records: &[Vec<u8>]);

    /// Reads back everything durable, truncating any torn or corrupt WAL
    /// tail in the process (so a subsequent append continues from the last
    /// intact record).
    fn load(&mut self) -> Recovered;

    /// Destroys all durable state (the amnesia fault, or re-provisioning).
    fn wipe(&mut self);

    /// Damages the stored bytes in a controlled way (chaos disk faults).
    fn inject(&mut self, fault: DiskFault);

    /// Cumulative counters.
    fn stats(&self) -> StorageStats;

    /// Log sequence number of the last appended record (1-based count of
    /// appends since open).
    fn wal_lsn(&self) -> u64 {
        self.stats().appends
    }

    /// Highest LSN known to be on stable storage. For synchronous backends
    /// this equals [`Storage::wal_lsn`] (durability is whatever the policy
    /// bought at append time); overlapped backends lag behind it until the
    /// background fsync catches up.
    fn durable_lsn(&self) -> u64 {
        self.wal_lsn()
    }

    /// Whether fsyncs run overlapped (callers should then gate durability-
    /// promising actions on [`Storage::durable_lsn`]).
    fn overlapped(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_policy_constants_and_default() {
        assert_eq!(SyncPolicy::default(), SyncPolicy::EVERY_APPEND);
        assert_eq!(SyncPolicy::every(1), SyncPolicy::EVERY_APPEND);
        assert_eq!(SyncPolicy::every(8).batch, 8);
        assert!(SyncPolicy::every(1).overlapped().overlap);
    }

    #[test]
    fn tail_state_lossiness() {
        assert!(!TailState::Clean.lossy());
        assert!(TailState::Torn { dropped: 1 }.lossy());
        assert!(TailState::Corrupt { dropped: 9 }.lossy());
    }
}
