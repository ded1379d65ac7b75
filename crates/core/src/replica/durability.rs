//! Replica persistence and crash recovery.
//!
//! With storage attached ([`Replica::with_storage`]) the replica appends a
//! [`DurableEvent`] WAL record for every prepare, first-time commit and view
//! install — always *inside* the protocol callback, so the record hits the
//! WAL before the callback's outgoing messages (replies included) are
//! released. Stable checkpoints install a [`SealedSnapshot`] file and re-seed
//! the WAL with the entries that outlive it.
//!
//! Recovery ([`Replica::recover_from_storage`]) is the reverse: adopt the
//! snapshot, replay the intact WAL prefix, and re-execute the committed
//! entries through the *same* execution path used live (inside a detached
//! context), so exactly-once bookkeeping and executed history are rebuilt
//! rather than trusted.

use super::state_transfer::{ChunkProgress, PendingTransfer};
use super::{Phase, Replica};
use crate::durable::{DurableEvent, ReplicaSnapshot, SealedSnapshot, SnapshotImage};
use crate::messages::{CheckpointMsg, ReplyMsg, XPaxosMsg};
use crate::types::{SeqNum, ViewNumber};
use bytes::Reader;
use std::sync::Arc;
use xft_simnet::Context;
use xft_store::{DiskFault, Recovered};
use xft_wire::{WireDecode, WireEncode};

/// What [`Replica::recover_from_storage`] found and rebuilt (logged by
/// `xpaxos-server` at startup).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Whether any durable state existed at all.
    pub had_state: bool,
    /// Whether a snapshot file was adopted, and at which sequence number.
    pub snapshot_sn: Option<SeqNum>,
    /// A snapshot file existed but failed its consistency check (or did not
    /// decode or restore) and was left out: the replica holds only what the
    /// WAL gives it and must state-transfer the rest.
    pub snapshot_rejected: bool,
    /// Intact WAL records replayed.
    pub wal_records: usize,
    /// Whether a torn or corrupt WAL tail had to be truncated.
    pub lossy_tail: bool,
    /// The view the replica recovered into.
    pub view: ViewNumber,
    /// The highest sequence number re-executed.
    pub exec_sn: SeqNum,
}

impl Replica {
    /// Appends one WAL record, if storage is attached. Proof-strengthening
    /// re-inserts of an already-committed entry are deliberately *not*
    /// persisted (the first commit record is what recovery needs; signatures
    /// regrow through the protocol).
    pub(crate) fn persist(&mut self, event: impl FnOnce() -> DurableEvent) {
        if let Some(storage) = self.storage.as_mut() {
            storage.append(&event().wire_bytes());
        }
    }

    /// Sends a REPLY to its client now, or — when the attached storage runs
    /// overlapped fsyncs and the WAL tip is not yet durable — defers it until
    /// the background fsync reaches the current append LSN. Admission and
    /// ordering are never gated; only the durability promise a reply carries.
    pub(crate) fn send_reply(&mut self, reply: ReplyMsg, ctx: &mut Context<XPaxosMsg>) {
        let (node, msg) = (self.client_node(reply.client), XPaxosMsg::Reply(reply));
        if let Some(storage) = self.storage.as_ref() {
            if storage.overlapped() {
                let required = storage.wal_lsn();
                if storage.durable_lsn() < required {
                    self.deferred_replies.push_back((required, node, msg));
                    return;
                }
                // The gate is open: anything still queued is durable too
                // (LSNs in the queue are non-decreasing), so flush it first
                // to keep replies in execution order.
                self.release_durable_replies(ctx);
            }
        }
        ctx.send(node, msg);
    }

    /// Releases deferred replies whose required LSN the background fsync has
    /// passed. Re-reads the durable LSN from our own storage, so a forged or
    /// stale `SyncDone` can never release a reply early.
    pub(crate) fn release_durable_replies(&mut self, ctx: &mut Context<XPaxosMsg>) {
        if self.deferred_replies.is_empty() {
            return;
        }
        let durable = match self.storage.as_ref() {
            Some(storage) => storage.durable_lsn(),
            // Storage detached with replies still queued (amnesia paths clear
            // the queue, so this is unreachable in practice): nothing gates
            // them any more.
            None => u64::MAX,
        };
        while let Some((required, _, _)) = self.deferred_replies.front() {
            if *required > durable {
                break;
            }
            let (_, node, msg) = self.deferred_replies.pop_front().expect("front checked");
            ctx.send(node, msg);
        }
    }

    /// Persists a sealed snapshot and re-seeds the WAL with everything that
    /// must outlive it: the current view, and the log entries beyond the
    /// snapshot's sequence number.
    pub(crate) fn persist_sealed_snapshot(&mut self, sealed: &SealedSnapshot) {
        if self.storage.is_none() {
            return;
        }
        let sn = sealed.sn();
        let mut records: Vec<Vec<u8>> = Vec::new();
        // Always re-seed the last *installed* view: a checkpoint can seal
        // while a view change is in flight, and dropping the View record
        // here would make a later crash recover the replica into view 0.
        records.push(DurableEvent::View(self.installed_view).wire_bytes());
        for entry in self.commit_log.iter().filter(|e| e.sn > sn) {
            records.push(DurableEvent::Commit(entry.clone()).wire_bytes());
        }
        for entry in self.prepare_log.iter().filter(|e| e.sn > sn) {
            records.push(DurableEvent::Prepare(entry.clone()).wire_bytes());
        }
        let bytes = sealed.to_bytes();
        let storage = self.storage.as_mut().expect("checked above");
        storage.install_snapshot(&bytes, &records);
    }

    /// The deterministic window base for a checkpoint captured at `sn`: one
    /// checkpoint interval back (saturating at genesis). Derived from the
    /// capture point and the cluster-uniform interval *only* — never from
    /// the locally observed `last_checkpoint`, which differs transiently
    /// across replicas while a CHKPT quorum forms, and the PRECHK round
    /// needs every active replica to encode a byte-identical snapshot.
    pub(crate) fn checkpoint_base(&self, sn: SeqNum) -> SeqNum {
        if self.config.checkpoint_interval == 0 {
            return SeqNum(0);
        }
        SeqNum(sn.0.saturating_sub(self.config.checkpoint_interval))
    }

    /// Captures this replica's state at its current execution point, once:
    /// the canonical snapshot, its encoding and its chunk tree. Everything a
    /// checkpoint does afterwards — the PRECHK vote, the comparison against
    /// an agreed digest, sealing, the snapshot file, served chunks — reads
    /// the returned image. (Used at PRECHK initiation, so the captured state
    /// is exactly the one whose digest the checkpoint round agrees on.) The
    /// snapshot is *windowed*: executed history and cached replies at or
    /// below the window base are attested by the previous seal and excluded,
    /// so apart from the application bytes the capture is O(checkpoint
    /// interval) however long the run.
    pub(crate) fn capture_checkpoint(&self, ctx: &mut Context<XPaxosMsg>) -> Arc<SnapshotImage> {
        let started = self.telemetry.is_enabled().then(std::time::Instant::now);
        let sn = self.exec_sn;
        let base = self.checkpoint_base(sn);
        let snapshot = ReplicaSnapshot {
            sn,
            base,
            app: self.state.snapshot(),
            executed: self
                .executed_history
                .iter()
                .filter(|(s, _)| *s > base)
                .cloned()
                .collect(),
            clients: self.sessions.snapshot(base),
        };
        // Any earlier image serves as the memo (blocks are compared by
        // content, so it never needs invalidating); the newest one shares
        // the most with the state being captured.
        let memo = self
            .pending_snapshots
            .values()
            .next_back()
            .or(self.latest_snapshot.as_ref().map(|s| &s.image));
        let (image, stats) =
            SnapshotImage::capture(&snapshot, self.config.state_chunk_bytes, memo.map(|m| &**m));
        if let Some(started) = started {
            self.telemetry.observe(
                "xft_checkpoint_capture_seconds",
                1e-9,
                started.elapsed().as_nanos() as u64,
            );
        }
        ctx.count("checkpoint_blocks", stats.blocks_total);
        ctx.count("checkpoint_blocks_rehashed", stats.blocks_rehashed);
        Arc::new(image)
    }

    /// Seals a captured image with the CHKPT quorum that agreed on its
    /// commitment: this replica can now serve verified state transfer for
    /// it and roll back to it, and the snapshot file is installed.
    pub(crate) fn seal_checkpoint(&mut self, image: Arc<SnapshotImage>, proof: Vec<CheckpointMsg>) {
        let sealed = SealedSnapshot { image, proof };
        self.persist_sealed_snapshot(&sealed);
        self.latest_snapshot = Some(sealed);
    }

    /// Replaces this replica's executed state with a sealed snapshot:
    /// application state, executed history, exactly-once table, checkpoint
    /// bookkeeping and log truncation — the *adoption* half of state
    /// transfer. The caller is responsible for having verified the seal
    /// (proof signatures + image commitment); this only cross-checks that the
    /// restored state machine holds the agreed application state, i.e. that
    /// it snapshots back to the very bytes the seal covers.
    ///
    /// Returns `false` (best-effort restoring a blank state) when the
    /// image or its application snapshot does not decode or restores to a
    /// different state — all indicate a faulty responder or a local
    /// `restore` bug, and the caller should retry elsewhere.
    pub(crate) fn adopt_sealed_snapshot(
        &mut self,
        sealed: SealedSnapshot,
        persist: bool,
        ctx: &mut Context<XPaxosMsg>,
    ) -> bool {
        let Some(snap) = sealed.image.decode() else {
            ctx.count("state_transfer_bad_snapshot", 1);
            return false;
        };
        if !self.state.restore(&snap.app) {
            ctx.count("state_transfer_bad_snapshot", 1);
            return false;
        }
        if self.state.snapshot() != snap.app {
            // The blob decoded but rebuilt the wrong state — and `restore`
            // has already overwritten the previous application state. Roll
            // back *coherently* (blank state, blank bookkeeping) rather than
            // leaving a blank state machine under live exec_sn/client-table
            // values; execution stalls here until a good snapshot arrives
            // (the pending transfer stays armed and retries elsewhere).
            self.discard_executed_state();
            ctx.count("state_transfer_bad_snapshot", 1);
            return false;
        }
        let sn = snap.sn;
        self.exec_sn = sn;
        self.executed_history = snap.executed;
        self.sessions.restore(&snap.clients, self.view, self.id);
        self.advance_checkpoint(sn, sealed.proof.clone());
        if self.next_sn < sn {
            self.next_sn = sn;
        }
        // A transfer whose goal moved past the snapshot keeps going.
        if self
            .pending_transfer
            .as_ref()
            .is_some_and(|p| p.target <= sn)
        {
            self.end_state_transfer(ctx);
        }
        if persist {
            self.persist_sealed_snapshot(&sealed);
        }
        self.latest_snapshot = Some(sealed);
        true
    }

    /// Rebuilds the replica from its attached storage: adopt the snapshot
    /// file, replay the intact WAL prefix, re-execute committed entries.
    /// Call once after construction (before the runtime starts) when
    /// restarting from a `--data-dir`; the disk-fault injection path reuses
    /// the same logic mid-run.
    pub fn recover_from_storage(&mut self) -> RecoveryReport {
        let node = self.config.node_of(self.id);
        xft_simnet::with_offline_context::<XPaxosMsg, _>(node, |ctx| self.recover_with(ctx))
    }

    /// Recovery body, parameterized over the context so the in-run disk-fault
    /// path can reuse it. Effects recorded during replay are either discarded
    /// (offline context) or harmless (replay suppresses client replies).
    pub(crate) fn recover_with(&mut self, ctx: &mut Context<XPaxosMsg>) -> RecoveryReport {
        let Some(storage) = self.storage.as_mut() else {
            return RecoveryReport::default();
        };
        let recovered: Recovered = storage.load();
        let mut report = RecoveryReport {
            had_state: !recovered.is_empty(),
            lossy_tail: recovered.tail.lossy(),
            ..Default::default()
        };
        if let Some(bytes) = recovered.snapshot.as_deref() {
            // Check the file against its own embedded proof digest (full
            // signature verification is pointless against our own disk). A
            // file that does not decode, commits to something else — a
            // damaged byte, another leaf format or chunk size — or does not
            // restore is not adopted; say so, because the replica then comes
            // up without its checkpointed state and has to fetch it.
            let adopted = SealedSnapshot::from_bytes(bytes, self.config.state_chunk_bytes)
                .filter(|sealed| {
                    let agreed = sealed.proof.first().map(|m| m.state_digest);
                    agreed == Some(sealed.image.commitment())
                })
                .is_some_and(|sealed| self.adopt_sealed_snapshot(sealed, false, ctx));
            if adopted {
                report.snapshot_sn = Some(self.last_checkpoint);
            } else {
                report.snapshot_rejected = true;
                ctx.count("snapshots_rejected", 1);
            }
        }
        let mut chunk_progress: Option<ChunkProgress> = None;
        for raw in &recovered.records {
            let mut r = Reader::new(raw);
            let Some(event) = DurableEvent::decode_from(&mut r) else {
                continue; // unknown record tag (downgrade tolerance)
            };
            report.wal_records += 1;
            match event {
                DurableEvent::View(v) => {
                    if v >= self.view {
                        self.view = v;
                        self.installed_view = v;
                        self.phase = Phase::Active;
                    }
                }
                DurableEvent::Commit(entry) => {
                    if entry.sn > self.last_checkpoint {
                        if entry.sn > self.next_sn {
                            self.next_sn = entry.sn;
                        }
                        self.commit_log.insert(entry);
                    }
                }
                DurableEvent::Prepare(entry) => {
                    if entry.sn > self.last_checkpoint {
                        if entry.sn > self.next_sn {
                            self.next_sn = entry.sn;
                        }
                        self.prepare_log.insert(entry);
                    }
                }
                // Rebuild the in-flight transfer by the rule the wire uses
                // (the reassembled snapshot is digest-checked again before
                // adoption, so a tampered WAL can stall recovery but not
                // corrupt it). The adopted snapshot supersedes older chunks.
                DurableEvent::TransferChunk(c) => {
                    if c.sn > self.last_checkpoint {
                        let chunk_bytes = self.config.state_chunk_bytes;
                        ChunkProgress::absorb(&mut chunk_progress, &c, chunk_bytes);
                    }
                }
            }
        }
        // Re-execute the committed tail through the normal path, with client
        // replies suppressed (retransmissions are answered from the rebuilt
        // reply cache instead).
        self.replaying = true;
        self.try_execute(ctx);
        self.replaying = false;
        // Resume a transfer that was mid-flight at the crash. No timer is
        // armed here (recovery may run in an offline context); the first
        // live `begin_state_transfer` — triggered by observing the cluster's
        // checkpoint, or immediately by `on_disk_fault` — resumes it.
        if let Some(progress) = chunk_progress {
            if progress.sn > self.exec_sn && self.pending_transfer.is_none() {
                ctx.count("state_transfer_resumes", 1);
                self.pending_transfer =
                    Some(PendingTransfer::new(self.id, progress.sn, Some(progress)));
            }
        }
        report.view = self.view;
        report.exec_sn = self.exec_sn;
        ctx.count("storage_recoveries", 1);
        report
    }

    /// A disk fault struck ([`crate::byzantine::CONTROL_TORN_TAIL`] /
    /// [`crate::byzantine::CONTROL_CORRUPT_WAL`]): damage the stored bytes,
    /// then restart the replica from whatever recovery salvages. Without
    /// attached storage the fault degrades to full amnesia.
    pub(crate) fn on_disk_fault(&mut self, code: u64, ctx: &mut Context<XPaxosMsg>) {
        if self.storage.is_none() {
            self.forget_state();
            ctx.count("disk_fault_without_storage", 1);
            return;
        }
        let fault = if code == crate::byzantine::CONTROL_TORN_TAIL {
            DiskFault::TornTail {
                bytes: 1 + ctx.rng().next_below(96),
            }
        } else {
            // The backend reduces the offset modulo the WAL length, so any
            // draw lands on a real bit.
            DiskFault::FlipBit {
                bit: ctx.rng().next_below(u64::MAX / 2),
            }
        };
        if let Some(storage) = self.storage.as_mut() {
            storage.inject(fault);
        }
        self.clear_volatile_state();
        self.recover_with(ctx);
        // This context is live: a transfer rebuilt from journaled chunks
        // resumes now instead of waiting to observe a peer checkpoint.
        self.resume_state_transfer(ctx);
        ctx.count("disk_fault_restarts", 1);
    }
}
