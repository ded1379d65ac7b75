//! The durable, tamper-evident **evidence log**: every signed protocol
//! message a replica sends or accepts, hash-chained and persisted through
//! `xft-store`, bounded by checkpoint-horizon garbage collection.
//!
//! XFT's accountability story (CFT-Forensics applied to XPaxos) rests on the
//! observation that the protocol's signed messages — PREPARE / COMMIT-CARRY /
//! COMMIT / CHKPT / VIEW-CHANGE and the entries they embed — already form a
//! complete evidence trail: two conflicting signed statements from the same
//! replica are a self-contained, independently verifiable proof of
//! culpability. This module is the *recording* half of that story; the
//! cross-replica auditor and the proof format live in the `xft-forensics`
//! crate (which depends on this one for the record format).
//!
//! Design points:
//!
//! * **Tamper-evident**: each [`EvidenceRecord`] carries the digest of its
//!   predecessor, so a log whose holder retroactively deletes or rewrites an
//!   entry breaks the chain from that point on ([`verify_chain`]). The chain
//!   protects the *holder's own* log from silent editing; the statements
//!   inside remain individually signed by their authors, so even a log with
//!   a broken chain still yields valid proofs.
//! * **Durable**: records are framed, CRC-checked and persisted through any
//!   [`xft_store::Storage`] backend — [`xft_store::MemStorage`] for
//!   deterministic simulation, [`xft_store::DiskStorage`] for
//!   `xpaxos-server --evidence-dir`.
//! * **Bounded**: every record is keyed by the protocol sequence number it
//!   is *about* ([`evidence_sn`]); checkpoint garbage collection drops
//!   records at or below the checkpoint window base, exactly like the
//!   replica's own logs, so the evidence stays O(checkpoint interval). The
//!   GC writes a fresh [`EvidenceAnchor`] snapshot so chain verification
//!   restarts from the post-GC anchor.
//! * **Compact**: bulk messages (batches, lazy shipments, state chunks) are
//!   recorded digest-compacted ([`EvidenceMsg::Compact`]) — the protocol's
//!   signatures bind payload *digests*, so the compact form convicts exactly
//!   as well as the original at a tiny fraction of the bytes.

use crate::messages::{CheckpointMsg, XPaxosMsg};
use crate::types::{SeqNum, ViewNumber};
use bytes::{BufMut, Bytes, Reader};
use xft_crypto::{Digest, Signature};
use xft_simnet::SimMessage;
use xft_store::{MemStorage, Storage};
use xft_wire::{domain_digest, struct_codec, WireDecode, WireEncode};

/// Direction tag: the recording replica sent this message.
pub const DIR_SENT: u8 = 0;
/// Direction tag: the recording replica received (accepted for processing)
/// this message.
pub const DIR_RECEIVED: u8 = 1;

/// Peer id recorded when the counterparty is not a replica (or unknown).
pub const PEER_UNKNOWN: u64 = u64::MAX;

/// One evidence entry: a protocol message this replica sent or accepted,
/// with arrival metadata and the hash-chain link to its predecessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceRecord {
    /// Position in this replica's evidence chain (monotone, survives GC).
    pub seq: u64,
    /// Digest of the predecessor record (or the anchor head for the first).
    pub prev: Digest,
    /// Runtime clock at recording (simulated or origin-relative wall time).
    pub at_ns: u64,
    /// Replica id of the recorder.
    pub recorder: u64,
    /// [`DIR_SENT`] or [`DIR_RECEIVED`].
    pub direction: u8,
    /// Replica id of the counterparty ([`PEER_UNKNOWN`] if not a replica).
    pub peer: u64,
    /// Trace correlation id active when the message was recorded (0 = none).
    pub trace: u64,
    /// The sequence number this message is *about* — the GC key.
    pub sn: u64,
    /// The [`EvidenceMsg`] payload encoding: the full message for compact
    /// traffic, the digest-compacted form for bulk traffic.
    pub msg: Bytes,
}

impl EvidenceRecord {
    /// The record's chain digest (what the successor's `prev` must equal).
    pub fn digest(&self) -> Digest {
        domain_digest(b"evidence", self)
    }

    /// Decodes the recorded message payload (full or digest-compacted).
    pub fn decode_evidence(&self) -> Option<EvidenceMsg> {
        EvidenceMsg::decode_exact(&self.msg)
    }
}

struct_codec!(EvidenceRecord {
    seq,
    prev,
    at_ns,
    recorder,
    direction,
    peer,
    trace,
    sn,
    msg
});

/// The chain state *before* the oldest retained record: written as the
/// storage snapshot blob at every GC, so verification of a garbage-collected
/// log starts from a known anchor instead of the genesis digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvidenceAnchor {
    /// Sequence the next retained (or appended) record must carry.
    pub next_seq: u64,
    /// Chain head the next record's `prev` must equal.
    pub head: Digest,
    /// Records dropped by GC so far (observability only).
    pub dropped: u64,
}

impl EvidenceAnchor {
    /// The genesis anchor of an empty log.
    pub fn genesis() -> Self {
        EvidenceAnchor {
            next_seq: 0,
            head: Digest::of(b"evidence-genesis"),
            dropped: 0,
        }
    }
}

struct_codec!(EvidenceAnchor {
    next_seq,
    head,
    dropped
});

/// Whether a protocol message belongs in the evidence log: the signed
/// replica-to-replica messages accountability proofs can be built from.
/// Client traffic, replies and runtime notifications carry no replica
/// statements and are excluded.
pub fn is_accountable(msg: &XPaxosMsg) -> bool {
    !matches!(
        msg,
        XPaxosMsg::Replicate(_)
            | XPaxosMsg::Resend(_)
            | XPaxosMsg::Reply(_)
            | XPaxosMsg::Busy(_)
            | XPaxosMsg::SuspectToClient(_)
            | XPaxosMsg::SyncDone(_)
    )
}

/// Whether an accountable message embeds bulk payload — full request
/// batches, lazy-replication shipments, state chunks. Bulk messages are
/// recorded **digest-compacted** ([`EvidenceMsg::Compact`]): every signature
/// in the protocol covers a *digest* of the payload, never the payload
/// bytes, so a record holding `(view, sn, batch digest, signatures)` convicts
/// exactly as well as one holding the multi-kilobyte original — a fabricated
/// digest fails signature verification, and a verifying one proves the
/// culprit signed it. Recording batches in full would multiply the evidence
/// volume by the request payload (~5× write amplification measured on the
/// loopback bench) for bytes with zero additional conviction power.
pub fn is_bulk(msg: &XPaxosMsg) -> bool {
    matches!(
        msg,
        XPaxosMsg::Prepare(_)
            | XPaxosMsg::CommitCarry(_)
            | XPaxosMsg::LazyReplicate { .. }
            | XPaxosMsg::StateChunkResponse(_)
    )
}

/// Compact-kind tag: a digest-compacted PREPARE.
pub const COMPACT_PREPARE: u8 = 1;
/// Compact-kind tag: a digest-compacted COMMIT-CARRY.
pub const COMPACT_COMMIT_CARRY: u8 = 2;
/// Compact-kind tag: a digest-compacted LAZY-REPLICATE.
pub const COMPACT_LAZY_REPLICATE: u8 = 3;
/// Compact-kind tag: a digest-compacted STATE-CHUNK-RESPONSE.
pub const COMPACT_STATE_CHUNK_RESPONSE: u8 = 4;

/// Display name of a compact-kind tag (the original message's kind).
pub fn compact_kind_name(kind: u8) -> &'static str {
    match kind {
        COMPACT_PREPARE => "PREPARE",
        COMPACT_COMMIT_CARRY => "COMMIT-CARRY",
        COMPACT_LAZY_REPLICATE => "LAZY-REPLICATE",
        COMPACT_STATE_CHUNK_RESPONSE => "STATE-CHUNK-RESPONSE",
        _ => "UNKNOWN",
    }
}

/// One digest-compacted ordering claim: everything a bulk message's
/// signatures actually cover. `primary_sig` is the primary's prepare- or
/// commit-domain signature over `(batch, sn, view)`; `commit_sigs` are the
/// follower commit signatures a lazy-replication entry carries alongside it.
/// `requests` preserves the batch size as forensic context (it is not
/// signed).
#[derive(Debug, Clone, PartialEq)]
pub struct OrderingClaim {
    /// View the batch was ordered in.
    pub view: ViewNumber,
    /// Sequence number assigned.
    pub sn: SeqNum,
    /// Digest of the ordered batch — the quantity every signature binds.
    pub batch: Digest,
    /// Number of requests the batch held.
    pub requests: u32,
    /// The primary's ordering signature.
    pub primary_sig: Signature,
    /// Follower commit signatures, as `(replica, signature)` pairs.
    pub commit_sigs: Vec<(u64, Signature)>,
}

struct_codec!(OrderingClaim {
    view,
    sn,
    batch,
    requests,
    primary_sig,
    commit_sigs
});

/// What an [`EvidenceRecord`] holds: the full protocol message for compact
/// traffic, or the digest-compacted form of a bulk message — the signed
/// claims verbatim, the payload bytes replaced by the digests the signatures
/// bind.
#[derive(Debug, Clone, PartialEq)]
pub enum EvidenceMsg {
    /// The message's canonical wire encoding, verbatim.
    Full(XPaxosMsg),
    /// A digest-compacted bulk message.
    Compact {
        /// Which bulk message this compacts (`COMPACT_*`).
        kind: u8,
        /// The ordering claims it carried (one for PREPARE / COMMIT-CARRY,
        /// one per entry for LAZY-REPLICATE).
        claims: Vec<OrderingClaim>,
        /// The signed CHKPT votes it carried (a STATE-CHUNK-RESPONSE's
        /// sealing proof).
        chkpts: Vec<CheckpointMsg>,
    },
}

const EV_FULL: u8 = 0;
const EV_COMPACT: u8 = 1;

impl EvidenceMsg {
    /// Kind string of the (possibly compacted) message.
    pub fn kind(&self) -> &'static str {
        match self {
            EvidenceMsg::Full(m) => m.kind(),
            EvidenceMsg::Compact { kind, .. } => compact_kind_name(*kind),
        }
    }

    /// Whether this is a digest-compacted record.
    pub fn is_compact(&self) -> bool {
        matches!(self, EvidenceMsg::Compact { .. })
    }
}

impl WireEncode for EvidenceMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        match self {
            EvidenceMsg::Full(m) => (EV_FULL, m).encode_into(out),
            EvidenceMsg::Compact {
                kind,
                claims,
                chkpts,
            } => (EV_COMPACT, kind, claims, chkpts).encode_into(out),
        }
    }
}

impl WireDecode for EvidenceMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.get_u8()? {
            EV_FULL => EvidenceMsg::Full(WireDecode::decode_from(r)?),
            EV_COMPACT => {
                let (kind, claims, chkpts) = WireDecode::decode_from(r)?;
                EvidenceMsg::Compact {
                    kind,
                    claims,
                    chkpts,
                }
            }
            _ => return None,
        })
    }
}

fn claim_of(
    view: ViewNumber,
    sn: SeqNum,
    batch: &crate::types::Batch,
    primary_sig: Signature,
    commit_sigs: Vec<(u64, Signature)>,
) -> OrderingClaim {
    OrderingClaim {
        view,
        sn,
        batch: batch.digest(),
        requests: batch.requests.len() as u32,
        primary_sig,
        commit_sigs,
    }
}

/// Encodes the evidence payload for `msg`: bulk messages ([`is_bulk`]) are
/// digest-compacted, everything else is recorded in full. This is the single
/// place the compaction happens, so the inline and threaded logs produce
/// byte-identical records.
pub fn evidence_payload(msg: &XPaxosMsg) -> Vec<u8> {
    let compacted = match msg {
        XPaxosMsg::Prepare(m) => Some((
            COMPACT_PREPARE,
            vec![claim_of(m.view, m.sn, &m.batch, m.signature, Vec::new())],
            Vec::new(),
        )),
        XPaxosMsg::CommitCarry(m) => Some((
            COMPACT_COMMIT_CARRY,
            vec![claim_of(m.view, m.sn, &m.batch, m.signature, Vec::new())],
            Vec::new(),
        )),
        XPaxosMsg::LazyReplicate { entries, .. } => Some((
            COMPACT_LAZY_REPLICATE,
            entries
                .iter()
                .map(|e| {
                    claim_of(
                        e.view,
                        e.sn,
                        &e.batch,
                        e.primary_sig,
                        e.commit_sigs
                            .iter()
                            .map(|(r, sig)| (*r as u64, *sig))
                            .collect(),
                    )
                })
                .collect(),
            Vec::new(),
        )),
        XPaxosMsg::StateChunkResponse(m) => {
            Some((COMPACT_STATE_CHUNK_RESPONSE, Vec::new(), m.proof.clone()))
        }
        _ => None,
    };
    let mut out = Vec::with_capacity(128);
    match compacted {
        Some((kind, claims, chkpts)) => (EV_COMPACT, kind, claims, chkpts).encode_into(&mut out),
        None => (EV_FULL, msg).encode_into(&mut out),
    }
    out
}

/// The sequence number a message is *about* — the GC key. Messages that do
/// not reference a slot (SUSPECT, VIEW-CHANGE traffic, FD notices) return
/// `None`; the recorder keys them by its own execution point so they age out
/// one checkpoint window after the views they testify about.
pub fn evidence_sn(msg: &XPaxosMsg) -> Option<u64> {
    match msg {
        XPaxosMsg::Prepare(m) => Some(m.sn.0),
        XPaxosMsg::CommitCarry(m) => Some(m.sn.0),
        XPaxosMsg::Commit(m) => Some(m.sn.0),
        XPaxosMsg::Checkpoint(m) => Some(m.sn.0),
        XPaxosMsg::LazyCheckpoint { proof } => proof.first().map(|m| m.sn.0),
        // A lazy-replication shipment spans a range of slots; key it by the
        // newest so it survives until the whole range is checkpointed away.
        XPaxosMsg::LazyReplicate { entries, .. } => {
            Some(entries.iter().map(|e| e.sn.0).max().unwrap_or(0))
        }
        XPaxosMsg::StateChunkRequest(m) => Some(m.want_sn.0.max(m.min_sn.0)),
        XPaxosMsg::StateChunkResponse(m) => Some(m.sn.0),
        _ => None,
    }
}

/// Verifies a hash chain starting at `anchor`: every record's `seq` and
/// `prev` must continue the chain. Returns the resulting head, or the index
/// of the first record that breaks the chain.
pub fn verify_chain(anchor: &EvidenceAnchor, records: &[EvidenceRecord]) -> Result<Digest, usize> {
    let mut head = anchor.head;
    for (i, record) in records.iter().enumerate() {
        if record.seq != anchor.next_seq + i as u64 || record.prev != head {
            return Err(i);
        }
        head = record.digest();
    }
    Ok(head)
}

/// The chain state and storage backing one evidence log — the single-owner
/// core that both the inline and the threaded front end drive.
struct Core {
    storage: Box<dyn Storage>,
    anchor: EvidenceAnchor,
    records: Vec<EvidenceRecord>,
    head: Digest,
    next_seq: u64,
    recorder: u64,
}

impl Core {
    fn record(
        &mut self,
        direction: u8,
        peer: u64,
        at_ns: u64,
        trace: u64,
        sn: u64,
        msg: &XPaxosMsg,
    ) {
        self.record_payload(direction, peer, at_ns, trace, sn, evidence_payload(msg));
    }

    fn record_payload(
        &mut self,
        direction: u8,
        peer: u64,
        at_ns: u64,
        trace: u64,
        sn: u64,
        payload: Vec<u8>,
    ) {
        let record = EvidenceRecord {
            seq: self.next_seq,
            prev: self.head,
            at_ns,
            recorder: self.recorder,
            direction,
            peer,
            trace,
            sn,
            msg: Bytes::from(payload),
        };
        self.head = record.digest();
        self.next_seq = record.seq + 1;
        self.storage.append(&record.wire_bytes());
        self.records.push(record);
    }

    fn gc_below(&mut self, base: SeqNum) {
        // The chain must stay contiguous, so GC drops a *prefix*: the oldest
        // records up to (excluding) the first survivor. A record about an
        // old slot sitting behind a survivor stays alive with it; evidence
        // sns are near-monotone (ordering is sequential), so the prefix rule
        // and the pure sn rule coincide to within a few records.
        let keep_from = self
            .records
            .iter()
            .position(|r| r.sn > base.0)
            .unwrap_or(self.records.len());
        if keep_from == 0 {
            return;
        }
        let dropped = keep_from as u64;
        let retained: Vec<EvidenceRecord> = self.records.split_off(keep_from);
        let last_dropped = self.records.last().expect("keep_from > 0");
        self.anchor = EvidenceAnchor {
            next_seq: last_dropped.seq + 1,
            head: last_dropped.digest(),
            dropped: self.anchor.dropped + dropped,
        };
        self.records = retained;
        let framed: Vec<Vec<u8>> = self.records.iter().map(|r| r.wire_bytes()).collect();
        self.storage
            .install_snapshot(&self.anchor.wire_bytes(), &framed);
    }

    fn wipe(&mut self) {
        self.storage.wipe();
        self.anchor = EvidenceAnchor::genesis();
        self.records.clear();
        self.head = self.anchor.head;
        self.next_seq = 0;
    }
}

/// A command shipped to the threaded log's worker. Records travel as the
/// already-encoded payload: [`evidence_payload`] is cheap on the caller
/// (bulk messages compact to digests the protocol has already computed and
/// cached), and shipping bytes avoids cloning multi-kilobyte messages into
/// the channel.
enum Cmd {
    Record {
        direction: u8,
        peer: u64,
        at_ns: u64,
        trace: u64,
        sn: u64,
        payload: Vec<u8>,
    },
    Gc(SeqNum),
    Wipe,
    SetRecorder(u64),
}

/// The threaded front end: a channel to the worker that owns the [`Core`].
/// Dropping it closes the channel and joins the worker, so every queued
/// record is encoded, chained and appended before shutdown.
struct ThreadedLog {
    tx: Option<std::sync::mpsc::Sender<Cmd>>,
    handle: Option<std::thread::JoinHandle<Core>>,
    /// Chain state at spawn time (served to observers; the live chain
    /// advances on the worker).
    anchor: EvidenceAnchor,
    resume_seq: u64,
}

impl ThreadedLog {
    fn send(&self, cmd: Cmd) {
        if let Some(tx) = &self.tx {
            // A dead worker means the storage backend panicked (fatal I/O);
            // recording stops rather than taking the protocol thread down.
            let _ = tx.send(cmd);
        }
    }

    fn shutdown(&mut self) -> Option<Core> {
        self.tx = None; // close the channel; the worker drains and returns
        self.handle.take().and_then(|h| h.join().ok())
    }
}

impl Drop for ThreadedLog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

enum Inner {
    Inline(Core),
    Threaded(ThreadedLog),
}

/// A replica's evidence log: an in-memory view mirrored onto a durable
/// [`Storage`] backend.
///
/// Two modes:
///
/// * **inline** ([`EvidenceLog::new`] / [`EvidenceLog::in_memory`]) —
///   encode, hash-chain and append on the caller's thread. Deterministic;
///   what simulations and the chaos harness use.
/// * **threaded** ([`EvidenceLog::into_threaded`]) — recording encodes the
///   (compacted) payload and hands it to a dedicated worker thread that does
///   the SHA-256 chaining and storage appends. This keeps the cost off
///   the protocol's serial ordering path (`xpaxos-server --evidence-dir`
///   uses it); the in-process observers ([`EvidenceLog::records`],
///   [`EvidenceLog::head`]) then reflect the state recovered at spawn time,
///   while the durable files advance on the worker.
pub struct EvidenceLog {
    inner: Inner,
}

impl std::fmt::Debug for EvidenceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("EvidenceLog");
        match &self.inner {
            Inner::Inline(core) => s
                .field("records", &core.records.len())
                .field("next_seq", &core.next_seq)
                .field("dropped", &core.anchor.dropped),
            Inner::Threaded(t) => s
                .field("threaded", &true)
                .field("resume_seq", &t.resume_seq),
        }
        .finish()
    }
}

impl EvidenceLog {
    /// Opens an evidence log over `storage`, recovering any prior state
    /// (anchor snapshot + record WAL). Records that fail to decode, or that
    /// no longer continue the recovered chain, are discarded along with
    /// everything after them — the durable layer already CRC-checks frames,
    /// so this only triggers on version skew or manual tampering.
    pub fn new(mut storage: Box<dyn Storage>) -> Self {
        let recovered = storage.load();
        let anchor = recovered
            .snapshot
            .as_deref()
            .and_then(EvidenceAnchor::decode_exact)
            .unwrap_or_else(EvidenceAnchor::genesis);
        let mut records = Vec::with_capacity(recovered.records.len());
        for raw in &recovered.records {
            match EvidenceRecord::decode_exact(raw) {
                Some(record) => records.push(record),
                None => break,
            }
        }
        // Keep the longest prefix that continues the chain.
        if let Err(break_at) = verify_chain(&anchor, &records) {
            records.truncate(break_at);
        }
        let head = verify_chain(&anchor, &records).expect("truncated to a valid prefix");
        let next_seq = anchor.next_seq + records.len() as u64;
        EvidenceLog {
            inner: Inner::Inline(Core {
                storage,
                anchor,
                records,
                head,
                next_seq,
                recorder: PEER_UNKNOWN,
            }),
        }
    }

    /// A deterministic in-memory log (simulation / tests).
    pub fn in_memory() -> Self {
        EvidenceLog::new(Box::new(MemStorage::new()))
    }

    /// Moves the log's recording pipeline onto a dedicated worker thread:
    /// [`EvidenceLog::record`] becomes a payload encode plus a channel send,
    /// and the hash-chain / append work runs off the caller's thread. A
    /// no-op if already threaded.
    pub fn into_threaded(self) -> Self {
        let core = match self.inner {
            Inner::Inline(core) => core,
            threaded @ Inner::Threaded(_) => return EvidenceLog { inner: threaded },
        };
        let anchor = core.anchor;
        let resume_seq = core.next_seq;
        let (tx, rx) = std::sync::mpsc::channel::<Cmd>();
        let handle = std::thread::Builder::new()
            .name("xft-evidence".into())
            .spawn(move || {
                let mut core = core;
                while let Ok(cmd) = rx.recv() {
                    match cmd {
                        Cmd::Record {
                            direction,
                            peer,
                            at_ns,
                            trace,
                            sn,
                            payload,
                        } => core.record_payload(direction, peer, at_ns, trace, sn, payload),
                        Cmd::Gc(base) => core.gc_below(base),
                        Cmd::Wipe => core.wipe(),
                        Cmd::SetRecorder(r) => core.recorder = r,
                    }
                }
                core
            })
            .expect("spawn evidence worker");
        EvidenceLog {
            inner: Inner::Threaded(ThreadedLog {
                tx: Some(tx),
                handle: Some(handle),
                anchor,
                resume_seq,
            }),
        }
    }

    /// Appends one message to the chain and the durable backend.
    pub fn record(
        &mut self,
        direction: u8,
        peer: u64,
        at_ns: u64,
        trace: u64,
        sn: u64,
        msg: &XPaxosMsg,
    ) {
        match &mut self.inner {
            Inner::Inline(core) => core.record(direction, peer, at_ns, trace, sn, msg),
            Inner::Threaded(t) => t.send(Cmd::Record {
                direction,
                peer,
                at_ns,
                trace,
                sn,
                payload: evidence_payload(msg),
            }),
        }
    }

    /// Sets the replica id stamped on every subsequent record.
    pub fn set_recorder(&mut self, recorder: u64) {
        match &mut self.inner {
            Inner::Inline(core) => core.recorder = recorder,
            Inner::Threaded(t) => t.send(Cmd::SetRecorder(recorder)),
        }
    }

    /// Hands the storage backend back (tests / offline tooling). A threaded
    /// log drains its queue first, so everything recorded is on the backend.
    pub fn into_storage(self) -> Box<dyn Storage> {
        match self.inner {
            Inner::Inline(core) => core.storage,
            Inner::Threaded(mut t) => t.shutdown().expect("evidence worker panicked").storage,
        }
    }

    /// Drops every record about a slot at or below `base` (the checkpoint
    /// window base), rewriting the durable snapshot so the chain re-anchors
    /// at the oldest survivor. Mirrors the replica's own log truncation.
    pub fn gc_below(&mut self, base: SeqNum) {
        match &mut self.inner {
            Inner::Inline(core) => core.gc_below(base),
            Inner::Threaded(t) => t.send(Cmd::Gc(base)),
        }
    }

    /// Destroys the log (the amnesia fault: the machine lost *everything*,
    /// its evidence included — culprits are pinned from other replicas'
    /// logs).
    pub fn wipe(&mut self) {
        match &mut self.inner {
            Inner::Inline(core) => core.wipe(),
            Inner::Threaded(t) => t.send(Cmd::Wipe),
        }
    }

    /// The retained records, oldest first (empty in threaded mode — the
    /// records live with the worker; read the durable files instead).
    pub fn records(&self) -> &[EvidenceRecord] {
        match &self.inner {
            Inner::Inline(core) => &core.records,
            Inner::Threaded(_) => &[],
        }
    }

    /// The post-GC chain anchor (spawn-time state in threaded mode).
    pub fn anchor(&self) -> EvidenceAnchor {
        match &self.inner {
            Inner::Inline(core) => core.anchor,
            Inner::Threaded(t) => t.anchor,
        }
    }

    /// The current chain head (spawn-time state in threaded mode).
    pub fn head(&self) -> Digest {
        match &self.inner {
            Inner::Inline(core) => core.head,
            Inner::Threaded(t) => t.anchor.head,
        }
    }

    /// Total records ever appended (retained + GC'd; spawn-time state in
    /// threaded mode).
    pub fn appended_total(&self) -> u64 {
        match &self.inner {
            Inner::Inline(core) => core.next_seq,
            Inner::Threaded(t) => t.resume_seq,
        }
    }

    /// Records dropped by garbage collection (spawn-time state in threaded
    /// mode).
    pub fn gc_dropped(&self) -> u64 {
        self.anchor().dropped
    }

    /// Verifies the retained chain against the anchor (trivially `Ok` in
    /// threaded mode, where no records are resident).
    pub fn verify(&self) -> Result<Digest, usize> {
        match &self.inner {
            Inner::Inline(core) => verify_chain(&core.anchor, &core.records),
            Inner::Threaded(t) => Ok(t.anchor.head),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::SuspectMsg;
    use crate::types::ViewNumber;
    use xft_crypto::Signature;

    fn msg(view: u64) -> XPaxosMsg {
        XPaxosMsg::Suspect(SuspectMsg {
            view: ViewNumber(view),
            replica: 0,
            signature: Signature::forged(crate::types::replica_key(0)),
        })
    }

    fn log_with(n: u64) -> EvidenceLog {
        let mut log = EvidenceLog::in_memory();
        log.set_recorder(7);
        for i in 0..n {
            log.record(DIR_SENT, 1, i * 10, 0, i + 1, &msg(i));
        }
        log
    }

    #[test]
    fn chain_links_and_verifies() {
        let log = log_with(5);
        assert_eq!(log.records().len(), 5);
        assert!(log.verify().is_ok());
        assert_eq!(log.records()[0].prev, EvidenceAnchor::genesis().head);
        for w in log.records().windows(2) {
            assert_eq!(w[1].prev, w[0].digest());
        }
    }

    #[test]
    fn tampering_breaks_the_chain() {
        let log = log_with(4);
        let mut records = log.records().to_vec();
        records[2].at_ns = 999_999; // rewrite history
        assert_eq!(verify_chain(&log.anchor(), &records), Err(3));
    }

    #[test]
    fn threaded_log_drains_to_the_same_chain() {
        // The threaded front end must produce byte-identical durable state:
        // same records, same chain, recoverable by the inline opener.
        let mut log = EvidenceLog::in_memory();
        log.set_recorder(7);
        let mut threaded = log.into_threaded();
        threaded.set_recorder(7);
        for i in 0..6 {
            threaded.record(DIR_SENT, 1, i * 10, 0, i + 1, &msg(i));
        }
        threaded.gc_below(SeqNum(2));
        assert!(threaded.records().is_empty(), "records live on the worker");
        let reopened = EvidenceLog::new(threaded.into_storage());
        assert_eq!(reopened.records().len(), 4);
        assert_eq!(reopened.gc_dropped(), 2);
        assert!(reopened.verify().is_ok());

        let mut inline = log_with(6);
        inline.gc_below(SeqNum(2));
        assert_eq!(reopened.records(), inline.records());
        assert_eq!(reopened.head(), inline.head());
    }

    #[test]
    fn records_survive_storage_round_trip() {
        let mut log = EvidenceLog::in_memory();
        log.set_recorder(3);
        for i in 0..6 {
            log.record(DIR_RECEIVED, 2, i, 0x42, i + 1, &msg(i));
        }
        log.gc_below(SeqNum(2));
        let storage = log.into_storage();
        let log = EvidenceLog::new(storage);
        assert_eq!(log.records().len(), 4, "records 3..=6 survive GC + reload");
        assert_eq!(log.gc_dropped(), 2);
        assert!(log.verify().is_ok());
        assert_eq!(log.records()[0].sn, 3);
        assert_eq!(log.records()[0].msg, Bytes::from(evidence_payload(&msg(2))));
        assert_eq!(
            log.records()[0].decode_evidence(),
            Some(EvidenceMsg::Full(msg(2)))
        );
    }

    #[test]
    fn gc_is_idempotent_and_reanchors() {
        let mut log = log_with(10);
        log.gc_below(SeqNum(4));
        assert_eq!(log.records().len(), 6);
        assert_eq!(log.gc_dropped(), 4);
        assert!(log.verify().is_ok());
        log.gc_below(SeqNum(4));
        assert_eq!(log.records().len(), 6, "second GC at the same base: no-op");
        // Appends continue the re-anchored chain.
        log.record(DIR_SENT, 0, 0, 0, 11, &msg(99));
        assert!(log.verify().is_ok());
        assert_eq!(log.appended_total(), 11);
    }

    #[test]
    fn accountability_filter_excludes_client_traffic() {
        assert!(is_accountable(&msg(0)));
        assert!(!is_accountable(&XPaxosMsg::SyncDone(1)));
        assert_eq!(evidence_sn(&msg(0)), None);
    }

    #[test]
    fn wipe_resets_to_genesis() {
        let mut log = log_with(3);
        log.wipe();
        assert!(log.records().is_empty());
        assert_eq!(log.appended_total(), 0);
        log.record(DIR_SENT, 0, 0, 0, 1, &msg(1));
        assert!(log.verify().is_ok());
    }
}
