//! Chunked, verifiable, resumable state transfer: pulling a sealed
//! checkpoint snapshot from peers in bounded frames and verifying every
//! frame before adoption.
//!
//! Checkpointing (paper §4.5.1) lets replicas garbage-collect their log
//! prefixes; a replica that falls behind a checkpoint — a promoted passive
//! replica, a restarted machine, an amnesia victim — can then no longer
//! catch up by replay alone: it needs the checkpointed *state*. The paper
//! waves at this ("a lagging replica obtains the checkpoint"); here it is a
//! real protocol, and one that scales to snapshots far larger than a
//! network frame:
//!
//! 1. the lagging replica sends a signed `STATE-CHUNK-REQUEST(min_sn, 0)`
//!    to one peer at a time (active replicas of its current view first),
//!    with a retransmission timer rotating through peers;
//! 2. once a manifest is known, subsequent requests *pin* that snapshot
//!    generation (`want_sn`), and peers keep serving a pinned generation's
//!    image even after sealing newer checkpoints — a
//!    transfer slower than the checkpoint cadence would otherwise restart
//!    on every seal and never complete; a peer holding a sealed snapshot
//!    at `sn ≥ min_sn` answers each index
//!    with a `STATE-CHUNK-RESPONSE` carrying at most
//!    [`crate::config::XPaxosConfig::state_chunk_bytes`] of the snapshot's
//!    canonical encoding, the chunk-tree manifest (`chunk_bytes`,
//!    `total_len`, Merkle `root`), a Merkle audit path for the chunk, and
//!    the t + 1 signed CHKPT proof of the seal — every response is
//!    independently verifiable, so a transfer survives primary failover and
//!    peer rotation mid-flight;
//! 3. the requester verifies the proof signatures, checks that the agreed
//!    digest equals [`crate::durable::snapshot_commitment`] over the
//!    manifest, verifies the chunk's audit path against the root, and only
//!    then journals the chunk to its WAL ([`DurableEvent::TransferChunk`])
//!    — a crash mid-transfer resumes from the journaled chunks instead of
//!    refetching;
//! 4. the first verified response doubles as the manifest; the requester
//!    then keeps up to [`crate::config::XPaxosConfig::state_fetch_window`]
//!    chunk requests outstanding (the *repair budget*: at most
//!    `window × chunk` recovery bytes in flight), self-clocking like a
//!    transport window;
//! 5. once every chunk is in, the snapshot is reassembled, decoded, and
//!    cross-checked against the sealed digest one final time before
//!    adoption — the per-chunk Merkle checks reject garbage early on the
//!    wire, the whole-snapshot check is the authoritative gate.
//!
//! A faulty peer can therefore delay a transfer (ignored request, garbage
//! chunk) but never corrupt one: every byte adopted is covered by t + 1
//! signatures, at least one from a correct replica.
//!
//! Each lifecycle rule is written once. `PendingTransfer::new` builds the
//! transfer (live start and WAL recovery) and mints its trace.
//! `resume_state_transfer` drives one that no live timer drives (rebuilt
//! from the WAL, or its timer died with a crash); `arm_transfer_timer` is
//! the one retry timer; `ChunkProgress::claim` fills the fetch window with
//! the lowest chunks neither held nor in flight; `end_state_transfer` is
//! the one teardown. `ChunkProgress::absorb` admits a chunk, from the wire
//! or from WAL replay alike: it drops one of another size, an index outside
//! its manifest, an older generation or another manifest at the same one,
//! starts over on a newer generation, and says whether the chunk was new.

use super::{Replica, TOKEN_STATE_TRANSFER};
use crate::auth::verify_replica_sig;
use crate::durable::{
    chunk_count, chunk_leaf, snapshot_commitment, DurableEvent, SealedSnapshot, SnapshotImage,
    TransferChunkRecord,
};
use crate::messages::{
    state_chunk_request_digest, state_chunk_response_digest, CheckpointMsg, StateChunkRequestMsg,
    StateChunkResponseMsg, XPaxosMsg,
};
use crate::types::{ReplicaId, SeqNum};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};
use xft_crypto::{merkle_path, merkle_verify, CryptoOp, Digest};
use xft_simnet::{Context, SimMessage, TimerId};

/// An in-progress state transfer: the replica is missing executed state up
/// to `target` (a checkpoint its peers garbage-collected their logs at) and
/// is pulling the sealed snapshot chunk by chunk. Execution stalls at
/// `exec_sn` until the reassembled snapshot is verified and adopted; the
/// retry timer rotates through peers.
#[derive(Debug, Clone)]
pub(crate) struct PendingTransfer {
    /// The checkpoint sequence number needed (the snapshot adopted may be
    /// newer).
    pub(crate) target: SeqNum,
    /// Requests sent so far (selects the next peer to ask).
    pub(crate) attempts: u64,
    /// Retry timer.
    pub(crate) timer: Option<TimerId>,
    /// Correlation ID every chunk request of this transfer carries, so the
    /// whole fetch groups as one trace in the flight recorder.
    pub(crate) trace: u64,
    /// Chunk-level progress, established by the first verified response
    /// (which doubles as the transfer manifest) or rebuilt from WAL
    /// `TransferChunk` records after a crash.
    pub(crate) progress: Option<ChunkProgress>,
}

impl PendingTransfer {
    /// Replica `id`'s transfer towards `target`, driven by no timer yet. The
    /// trace id is minted from both (deterministic, so replays mint it too).
    pub(crate) fn new(id: ReplicaId, target: SeqNum, progress: Option<ChunkProgress>) -> Self {
        PendingTransfer {
            target,
            attempts: 0,
            timer: None,
            trace: xft_telemetry::trace::mint(id as u64, target.0),
            progress,
        }
    }
}

/// Verified progress of one chunked snapshot transfer: the manifest the
/// t + 1-signed seal commits to, plus every chunk verified so far. Each
/// verified chunk is journaled to the WAL, so a crash mid-transfer resumes
/// from here instead of refetching.
#[derive(Debug, Clone)]
pub(crate) struct ChunkProgress {
    /// The sealed checkpoint being fetched.
    pub(crate) sn: SeqNum,
    /// Chunk size the seal commits to (the configured one).
    pub(crate) chunk_bytes: u32,
    /// Total length of the snapshot's canonical encoding.
    pub(crate) total_len: u64,
    /// Merkle root over the chunk leaves.
    pub(crate) root: Digest,
    /// The t + 1 signed CHKPT proof carried by every verified response.
    pub(crate) proof: Vec<CheckpointMsg>,
    /// Verified chunks by index.
    pub(crate) chunks: BTreeMap<u32, Bytes>,
    /// Indices requested and not yet answered (bounds in-flight repair
    /// traffic to `state_fetch_window × state_chunk_bytes`).
    pub(crate) inflight: BTreeSet<u32>,
}

/// What [`ChunkProgress::absorb`] did with a chunk: refused it, already
/// held it, or newly holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Absorbed {
    Dropped,
    Duplicate,
    Fresh,
}

impl ChunkProgress {
    /// Number of chunks the manifest describes.
    pub(crate) fn chunk_count(&self) -> u32 {
        chunk_count(self.total_len, self.chunk_bytes)
    }

    /// Whether every chunk has been verified.
    pub(crate) fn is_complete(&self) -> bool {
        self.chunks.len() as u32 == self.chunk_count()
    }

    /// The chunk rule (see the module docs) for a replica configured with
    /// `chunk_bytes`-byte chunks. A newer generation means the peers sealed
    /// again and dropped the old snapshot.
    pub(crate) fn absorb(
        progress: &mut Option<ChunkProgress>,
        c: &TransferChunkRecord,
        chunk_bytes: u32,
    ) -> Absorbed {
        // The seal binds the chunk size: another one comes from a faulty or
        // misconfigured peer, or a journal written under another setting.
        if c.chunk_bytes != chunk_bytes || c.index >= chunk_count(c.total_len, c.chunk_bytes) {
            return Absorbed::Dropped;
        }
        let same_generation = match progress.as_ref() {
            Some(p) if c.sn < p.sn => return Absorbed::Dropped,
            Some(p) if c.sn == p.sn && (c.root, c.total_len) != (p.root, p.total_len) => {
                return Absorbed::Dropped;
            }
            Some(p) => c.sn == p.sn,
            None => false,
        };
        if !same_generation {
            *progress = Some(ChunkProgress {
                sn: c.sn,
                chunk_bytes: c.chunk_bytes,
                total_len: c.total_len,
                root: c.root,
                proof: c.proof.clone(),
                chunks: BTreeMap::new(),
                inflight: BTreeSet::new(),
            });
        }
        let p = progress.as_mut().expect("ensured above");
        p.inflight.remove(&c.index);
        match p.chunks.insert(c.index, c.data.clone()) {
            None => Absorbed::Fresh,
            Some(_) => Absorbed::Duplicate,
        }
    }

    /// The next chunks to request: the lowest indices neither held nor in
    /// flight, up to `window` in flight in all, marked in flight.
    pub(crate) fn claim(&mut self, window: usize) -> Vec<u32> {
        let room = window.saturating_sub(self.inflight.len());
        let claimed: Vec<u32> = (0..self.chunk_count())
            .filter(|i| !self.chunks.contains_key(i) && !self.inflight.contains(i))
            .take(room)
            .collect();
        self.inflight.extend(&claimed);
        claimed
    }
}

impl Replica {
    /// Starts (or extends) a state transfer towards the checkpoint at
    /// `target`. No-op if the replica has already executed past it.
    pub(crate) fn begin_state_transfer(&mut self, target: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        if self.exec_sn >= target {
            return;
        }
        if let Some(pending) = self.pending_transfer.as_mut() {
            pending.target = pending.target.max(target);
            // A live timer drives retries; without one (rebuilt from the
            // WAL, or orphaned by a timer race) the transfer is driven now.
            self.resume_state_transfer(ctx);
            return;
        }
        self.pending_transfer = Some(PendingTransfer::new(self.id, target, None));
        ctx.count("state_transfers_started", 1);
        self.continue_state_transfer(ctx);
    }

    /// Drives a pending transfer that no live timer is driving: one rebuilt
    /// from the WAL, or one whose timer died with a crash.
    pub(crate) fn resume_state_transfer(&mut self, ctx: &mut Context<XPaxosMsg>) {
        if self
            .pending_transfer
            .as_ref()
            .is_some_and(|p| p.timer.is_none())
        {
            self.continue_state_transfer(ctx);
        }
    }

    /// Drops the pending transfer, if any, and cancels its retry timer.
    pub(crate) fn end_state_transfer(&mut self, ctx: &mut Context<XPaxosMsg>) {
        if let Some(timer) = self.pending_transfer.take().and_then(|p| p.timer) {
            ctx.cancel_timer(timer);
        }
    }

    /// (Re-)arms the transfer's retry timer, cancelling the one it replaces.
    fn arm_transfer_timer(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let timer = ctx.set_timer(self.config.replica_retransmit, TOKEN_STATE_TRANSFER);
        if let Some(old) = self
            .pending_transfer
            .as_mut()
            .and_then(|p| p.timer.replace(timer))
        {
            ctx.cancel_timer(old);
        }
    }

    /// Sends the next round of `STATE-CHUNK-REQUEST`s and re-arms the retry
    /// timer. Peers are tried round-robin: the active replicas of the
    /// current view first (they hold the freshest checkpoint), then everyone
    /// else. Without a manifest yet, chunk 0 is requested (its response
    /// doubles as the manifest); with one, the lowest missing chunks up to
    /// the fetch window.
    pub(crate) fn continue_state_transfer(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let Some(pending) = self.pending_transfer.as_mut() else {
            return;
        };
        let (attempts, target) = (pending.attempts, pending.target);
        pending.attempts += 1;

        let actives = self.groups.active_replicas(self.view);
        let candidates: Vec<ReplicaId> = (actives.iter().copied())
            .chain((0..self.config.n()).filter(|r| !actives.contains(r)))
            .filter(|r| *r != self.id)
            .collect();
        if candidates.is_empty() {
            return;
        }
        let peer = candidates[attempts as usize % candidates.len()];

        // Mid-transfer, requests pin the generation already in progress
        // (`want_sn`) and lower `min_sn` to it: finishing the pinned
        // snapshot beats restarting on whatever newer seal exists, even if
        // the target has crept past it — adoption re-arms the transfer for
        // the remainder of the gap. With every chunk already held (a journal
        // replayed in full) chunk 0 is refetched: its response finishes the
        // transfer, or restarts it on a newer generation.
        let (mut min_sn, mut want_sn, mut indices) = (target, SeqNum(0), vec![0]);
        let window = self.config.state_fetch_window as usize;
        if let Some(progress) = self
            .pending_transfer
            .as_mut()
            .and_then(|p| p.progress.as_mut())
        {
            // Retry path: anything still marked in flight is presumed lost
            // with the peer being rotated away from.
            progress.inflight.clear();
            let missing = progress.claim(window);
            if !missing.is_empty() {
                (min_sn, want_sn, indices) = (progress.sn, progress.sn, missing);
            }
        }
        for index in indices {
            self.send_chunk_request(peer, index, min_sn, want_sn, ctx);
        }
        self.arm_transfer_timer(ctx);
    }

    /// Signs and sends one chunk request.
    fn send_chunk_request(
        &mut self,
        peer: ReplicaId,
        index: u32,
        min_sn: SeqNum,
        want_sn: SeqNum,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        ctx.charge(CryptoOp::Sign);
        let msg = StateChunkRequestMsg {
            min_sn,
            want_sn,
            index,
            replica: self.id,
            signature: self.sign(&state_chunk_request_digest(min_sn, want_sn, index, self.id)),
        };
        ctx.count("state_chunk_requests_sent", 1);
        // Stamp the request with the transfer's trace id so the whole fetch
        // correlates in the flight recorder (the responder's reply inherits
        // it from the delivery, like every other message). Timer-driven
        // retries otherwise carry trace 0; the step's own id is restored so
        // an in-handler caller (e.g. a response topping up the window) keeps
        // its own correlation for anything else it sends.
        let step_trace = ctx.trace();
        ctx.set_trace(self.pending_transfer.as_ref().map_or(0, |p| p.trace));
        ctx.send(self.node_of(peer), XPaxosMsg::StateChunkRequest(msg));
        ctx.set_trace(step_trace);
    }

    /// The transfer retry timer fired: give up if the gap closed by other
    /// means (lazy replication), otherwise re-request the missing chunks
    /// from the next peer.
    pub(crate) fn on_state_transfer_timer(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let Some(pending) = self.pending_transfer.as_mut() else {
            return;
        };
        pending.timer = None;
        if self.exec_sn >= pending.target {
            self.end_state_transfer(ctx);
        } else {
            self.continue_state_transfer(ctx);
        }
    }

    /// A peer asks for a snapshot chunk: serve it from the latest sealed
    /// checkpoint if it satisfies `min_sn`. Served in any phase — state
    /// transfer must work *during* view changes, which is precisely when
    /// promoted passive replicas need it. An out-of-range index is answered
    /// with chunk 0, re-manifesting the transfer (the requester's manifest
    /// may describe a snapshot this replica has since superseded).
    pub(crate) fn on_state_chunk_request(
        &mut self,
        m: StateChunkRequestMsg,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        ctx.charge(CryptoOp::VerifySig);
        if m.replica >= self.config.n() || m.replica == self.id {
            return;
        }
        let signed = state_chunk_request_digest(m.min_sn, m.want_sn, m.index, m.replica);
        if !verify_replica_sig(&self.verifier, m.replica, &signed, &m.signature) {
            return;
        }
        // Keep serving the pinned generation whenever it satisfies the
        // request: the requester pinned exactly this generation, or it
        // takes anything at or beyond `min_sn`. Holding it stable across
        // newer seals is what lets a transfer slower than the checkpoint
        // cadence finish at all — switching eagerly would restart every
        // in-flight requester on each seal.
        let pinned = self
            .serving_snapshot
            .as_ref()
            .is_some_and(|s| s.sn() >= m.min_sn && (m.want_sn == s.sn() || m.want_sn == SeqNum(0)));
        if !pinned {
            let Some(sealed) = self.latest_snapshot.as_ref().filter(|s| s.sn() >= m.min_sn) else {
                ctx.count("state_chunk_requests_unserved", 1);
                return;
            };
            self.serving_snapshot = Some(sealed.clone());
        }
        let sealed = self.serving_snapshot.as_ref().expect("just pinned");
        let image = &sealed.image;
        let sn = sealed.sn();
        let count = image.leaves().len() as u32;
        let index = if m.index < count { m.index } else { 0 };
        let data = image.chunk(index).expect("index below the chunk count");
        let path = merkle_path(image.leaves(), index as usize).unwrap_or_default();

        let mut response = StateChunkResponseMsg {
            sn,
            chunk_bytes: image.chunk_bytes(),
            total_len: image.total_len(),
            root: image.root(),
            index,
            data,
            path,
            proof: sealed.proof.clone(),
            replica: self.id,
            signature: xft_crypto::Signature::forged(self.signer.id()),
        };
        ctx.charge(CryptoOp::Sign);
        response.signature = self.sign(&state_chunk_response_digest(&response));
        let served_bytes = response.data.len() as u64;
        ctx.count("state_chunks_served", 1);
        ctx.count("state_transfer_bytes", served_bytes);
        let msg = XPaxosMsg::StateChunkResponse(response);
        let frame = msg.size_bytes() as u64;
        self.telemetry.observe("xft_state_chunk_bytes", 1.0, frame);
        if self.telemetry.is_enabled() {
            // Peak frame gauge: what CI asserts stays bounded however large
            // the snapshot grows.
            let peak = self.telemetry.gauge("xft_state_chunk_frame_bytes_max");
            if frame as i64 > peak.get() {
                peak.set(frame as i64);
            }
        }
        self.tel_event(ctx, "xfer", || {
            format!(
                "served sn={} chunk {}/{} to replica {} ({} bytes)",
                sn.0, index, count, m.replica, served_bytes
            )
        });
        ctx.send(self.node_of(m.replica), msg);
    }

    /// A snapshot chunk arrived: verify it in isolation (sender signature,
    /// t + 1 seal proof, manifest commitment, Merkle audit path, exact
    /// length), journal it for crash-resume, and either finish the transfer
    /// or keep the fetch window full.
    pub(crate) fn on_state_chunk_response(
        &mut self,
        m: StateChunkResponseMsg,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let Some(pending) = self.pending_transfer.as_ref() else {
            return; // unsolicited or already satisfied
        };
        // The floor is the pinned generation if one is in progress — NOT the
        // target, which may have crept past it while we fetched. Finishing
        // the pinned snapshot is still forward progress; adoption re-arms
        // the transfer for whatever gap remains.
        let floor = pending.progress.as_ref().map_or(pending.target, |p| p.sn);
        if m.sn <= self.exec_sn || m.sn < floor {
            return; // too old to close the gap / below the pinned generation
        }
        let verified = 'verify: {
            // The seal binds the chunk size: another one is refused before
            // paying for the signature check.
            if m.chunk_bytes != self.config.state_chunk_bytes {
                break 'verify false;
            }
            ctx.charge(CryptoOp::VerifySig);
            if m.replica >= self.config.n() || m.replica == self.id {
                return; // names no peer
            }
            // Index in range, exact chunk length (full-size except the final
            // chunk; the index check keeps the subtraction from
            // underflowing), an audit path proving the chunk's leaf under
            // the manifest root, and a t + 1 seal vouching for exactly this
            // manifest.
            let count = chunk_count(m.total_len, m.chunk_bytes);
            let (index, chunk) = (m.index as u64, m.chunk_bytes as u64);
            let signed = state_chunk_response_digest(&m);
            verify_replica_sig(&self.verifier, m.replica, &signed, &m.signature)
                && m.index < count
                && m.data.len() as u64 == (m.total_len - index * chunk).min(chunk)
                && merkle_verify(
                    &chunk_leaf(m.index, &m.data),
                    m.index as usize,
                    count as usize,
                    &m.path,
                    &m.root,
                )
                && self.proven_checkpoint(&m.proof, m.sn, ctx)
                    == Some(snapshot_commitment(m.chunk_bytes, m.total_len, &m.root))
        };
        if !verified {
            ctx.count("state_chunks_rejected", 1);
            return;
        }

        let peer = m.replica;
        let record = TransferChunkRecord {
            sn: m.sn,
            chunk_bytes: m.chunk_bytes,
            total_len: m.total_len,
            root: m.root,
            index: m.index,
            data: m.data,
            proof: m.proof,
        };
        let pending = self.pending_transfer.as_mut().expect("checked above");
        let chunk_bytes = self.config.state_chunk_bytes;
        let fresh = match ChunkProgress::absorb(&mut pending.progress, &record, chunk_bytes) {
            Absorbed::Dropped => return, // another manifest at the pinned generation
            Absorbed::Duplicate => false,
            Absorbed::Fresh => true,
        };
        let progress = pending.progress.as_mut().expect("absorbed");
        let complete = progress.is_complete();
        let to_request = progress.claim(self.config.state_fetch_window as usize);

        let sn = record.sn;
        if fresh {
            ctx.count("state_chunks_verified", 1);
            // Journal the verified chunk so a crash resumes the transfer
            // from the WAL instead of refetching every chunk.
            self.persist(|| DurableEvent::TransferChunk(record));
        }

        if complete {
            self.finish_chunk_transfer(ctx);
            return;
        }

        // Self-clocked window: top up requests towards the peer that just
        // answered — pinned to the generation it is serving — and grant the
        // transfer a fresh retransmit period.
        for index in to_request {
            self.send_chunk_request(peer, index, sn, sn, ctx);
        }
        if fresh {
            self.arm_transfer_timer(ctx);
        }
    }

    /// Every chunk is in: reassemble the snapshot, run the authoritative
    /// whole-snapshot check (a from-scratch image of the reassembled bytes
    /// must reproduce the sealed commitment), and adopt. On any failure the
    /// progress is discarded (the retry timer refetches from scratch) — with
    /// verified chunks this can only mean a bug or a hostile WAL, never a
    /// slow path.
    pub(crate) fn finish_chunk_transfer(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let Some(progress) = self
            .pending_transfer
            .as_mut()
            .and_then(|p| p.progress.take())
        else {
            return;
        };
        let mut bytes = Vec::with_capacity(progress.total_len as usize);
        for data in progress.chunks.values() {
            bytes.extend_from_slice(data);
        }
        // Built at the *configured* chunk size, which is what this replica
        // will serve the image at; a journaled transfer from under another
        // setting then fails the comparison instead of being served wrong.
        let (image, _) = SnapshotImage::of_encoded(
            progress.sn,
            Bytes::from(bytes),
            self.config.state_chunk_bytes,
            None,
        );
        let commitment =
            snapshot_commitment(progress.chunk_bytes, progress.total_len, &progress.root);
        if image.commitment() != commitment {
            ctx.count("state_transfer_bad_snapshot", 1);
            return;
        }
        let sn = progress.sn;
        let adopted_bytes = progress.total_len;
        let sealed = SealedSnapshot {
            image: std::sync::Arc::new(image),
            proof: progress.proof,
        };
        if self.adopt_sealed_snapshot(sealed, true, ctx) {
            ctx.count("state_transfers_adopted", 1);
            self.tel_event(ctx, "xfer", || {
                format!("adopted sn={} ({adopted_bytes} bytes, chunked)", sn.0)
            });
            // Resume execution past the snapshot, release any proposals that
            // were deferred while execution lagged, and rejoin the
            // checkpoint cadence.
            self.try_execute(ctx);
            self.drain_stashed(ctx);
            self.maybe_checkpoint(ctx);
        }
    }

    /// Verifies a checkpoint proof ([`crate::auth::verify_checkpoint_proof`]),
    /// charging one batched verification of its signatures.
    pub(crate) fn verify_checkpoint_proof(
        &self,
        proof: &[CheckpointMsg],
        ctx: &mut Context<XPaxosMsg>,
    ) -> Option<(SeqNum, Digest)> {
        if !proof.is_empty() {
            ctx.charge(CryptoOp::VerifyBatch { count: proof.len() });
        }
        crate::auth::verify_checkpoint_proof(&self.verifier, self.config.t, proof)
    }

    /// The state digest `proof` proves for checkpoint `sn`: `None` unless it
    /// verifies (charged as in [`Self::verify_checkpoint_proof`]) and
    /// proves exactly `sn`.
    pub(crate) fn proven_checkpoint(
        &self,
        proof: &[CheckpointMsg],
        sn: SeqNum,
        ctx: &mut Context<XPaxosMsg>,
    ) -> Option<Digest> {
        self.verify_checkpoint_proof(proof, ctx)
            .and_then(|(proven, digest)| (proven == sn).then_some(digest))
    }
}

#[cfg(test)]
mod tests {
    use super::{Absorbed, ChunkProgress};
    use crate::client::ClientWorkload;
    use crate::config::XPaxosConfig;
    use crate::durable::{DurableEvent, SealedSnapshot, SnapshotImage, TransferChunkRecord};
    use crate::harness::{ClusterBuilder, LatencySpec, XPaxosCluster};
    use crate::messages::{
        checkpoint_vote_digest, state_chunk_request_digest, state_chunk_response_digest,
        CheckpointMsg, StateChunkRequestMsg, StateChunkResponseMsg, XPaxosMsg,
    };
    use crate::replica::{Replica, TOKEN_STATE_TRANSFER};
    use crate::state_machine::DigestChainService;
    use crate::types::{replica_key, ReplicaId, SeqNum, ViewNumber};
    use bytes::Bytes;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use xft_crypto::{merkle_path, Digest, KeyRegistry, Signature, Signer};
    use xft_simnet::{with_offline_context, Actor, Context, SimDuration};
    use xft_store::Storage;
    use xft_wire::WireEncode;

    /// Replica 0's snapshots of two checkpoint generations of a t = 1
    /// cluster (512-byte chunks, fetch window 2), `old` sealed before `new`,
    /// and a replica 2 that lost everything, so it can pull either one.
    struct Fixture {
        cluster: XPaxosCluster,
        old: SealedSnapshot,
        new: SealedSnapshot,
    }

    fn fixture() -> Fixture {
        let mut cluster = ClusterBuilder::new(1, 4)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(1)))
            .with_workload(ClientWorkload {
                requests: Some(100),
                ..Default::default()
            })
            .with_config(|c| {
                c.with_checkpoint_interval(16)
                    .with_state_chunk_bytes(512)
                    .with_state_fetch_window(2)
            })
            .build();
        let mut seals: Vec<SealedSnapshot> = Vec::new();
        for _ in 0..400 {
            cluster.run_for(SimDuration::from_millis(10));
            let latest = cluster.replica(0).latest_snapshot.clone();
            if let Some(sealed) = latest.filter(|s| seals.last().is_none_or(|l| l.sn() < s.sn())) {
                seals.push(sealed);
            }
        }
        let (old, new) = (seals[0].clone(), seals[seals.len() - 1].clone());
        assert!(old.sn() < new.sn(), "two checkpoint generations sealed");
        assert!(
            chunks(&old) >= 2 && chunks(&new) >= 5,
            "multi-chunk snapshots"
        );
        cluster.replica_mut(2).forget_state();
        Fixture { cluster, old, new }
    }

    fn chunks(s: &SealedSnapshot) -> u32 {
        s.image.leaves().len() as u32
    }

    fn signer(f: &Fixture, r: ReplicaId) -> Signer {
        Signer::new(&f.cluster.registry, replica_key(r))
    }

    /// A request for chunk `index` in replica `name`'s name, signed by
    /// replica `signer_id`, sent by replica 2.
    fn request(
        f: &Fixture,
        name: ReplicaId,
        signer_id: ReplicaId,
        index: u32,
        (min, want): (SeqNum, SeqNum),
    ) -> Input {
        let signed = state_chunk_request_digest(min, want, index, name);
        Input::msg(
            2,
            XPaxosMsg::StateChunkRequest(StateChunkRequestMsg {
                min_sn: min,
                want_sn: want,
                index,
                replica: name,
                signature: signer(f, signer_id).sign_digest(&signed),
            }),
        )
    }

    /// Replica 0's response carrying chunk `index` of `s`.
    fn response(f: &Fixture, s: &SealedSnapshot, index: u32) -> StateChunkResponseMsg {
        let image = &s.image;
        let m = StateChunkResponseMsg {
            sn: s.sn(),
            chunk_bytes: image.chunk_bytes(),
            total_len: image.total_len(),
            root: image.root(),
            index,
            data: image.chunk(index).unwrap_or_default(),
            path: merkle_path(image.leaves(), index as usize).unwrap_or_default(),
            proof: s.proof.clone(),
            replica: 0,
            signature: Signature::forged(replica_key(0)),
        };
        signed_by(f, 0, m)
    }

    /// `m` signed by replica `signer_id`, in whichever name it carries.
    fn signed_by(
        f: &Fixture,
        signer_id: ReplicaId,
        mut m: StateChunkResponseMsg,
    ) -> StateChunkResponseMsg {
        m.signature = signer(f, signer_id).sign_digest(&state_chunk_response_digest(&m));
        m
    }

    /// `m`, delivered from replica 0.
    fn deliver(m: StateChunkResponseMsg) -> Input {
        Input::msg(0, XPaxosMsg::StateChunkResponse(m))
    }

    /// Chunk `index` of `s`, delivered from replica 0.
    fn chunk(f: &Fixture, s: &SealedSnapshot, index: u32) -> Input {
        deliver(response(f, s, index))
    }

    /// A snapshot at `new`'s sequence number over other bytes, proven by
    /// view 0's actives: another manifest at the same generation.
    fn forged_generation(f: &Fixture) -> SealedSnapshot {
        let sn = f.new.sn();
        let (image, _) = SnapshotImage::of_encoded(sn, Bytes::from(vec![7u8; 1500]), 512, None);
        let state = image.commitment();
        let proof = (0..2)
            .map(|replica| CheckpointMsg {
                sn,
                view: ViewNumber(0),
                state_digest: state,
                replica,
                signed: true,
                signature: signer(f, replica).sign_digest(&checkpoint_vote_digest(
                    ViewNumber(0),
                    sn,
                    &state,
                )),
            })
            .collect();
        SealedSnapshot {
            image: Arc::new(image),
            proof,
        }
    }

    enum Input {
        /// A message from a replica.
        Msg(ReplicaId, Box<XPaxosMsg>),
        /// The transfer retry timer fires.
        Timer,
        /// `begin_state_transfer` towards a sequence number.
        Begin(SeqNum),
        /// A direct change to the replica's state.
        Set(Box<dyn FnOnce(&mut Replica)>),
    }

    impl Input {
        fn msg(from: ReplicaId, m: XPaxosMsg) -> Self {
            Input::Msg(from, Box::new(m))
        }

        fn set(f: impl FnOnce(&mut Replica) + 'static) -> Self {
            Input::Set(Box::new(f))
        }
    }

    /// What one input made a replica do.
    #[derive(Debug, PartialEq)]
    struct Seen {
        /// The non-zero counters among `COUNTERS`.
        counted: Vec<(&'static str, u64)>,
        sends: Vec<Sent>,
        /// Whether a transfer is pending afterwards.
        pending: bool,
    }

    #[derive(Debug, PartialEq)]
    enum Sent {
        /// A chunk request: to, index, min_sn, want_sn.
        Request(ReplicaId, u32, u64, u64),
        /// A chunk response: to, sn, index.
        Response(ReplicaId, u64, u32),
    }

    const COUNTERS: [&str; 8] = [
        "state_transfers_started",
        "state_chunk_requests_sent",
        "state_chunk_requests_unserved",
        "state_chunks_served",
        "state_chunks_rejected",
        "state_chunks_verified",
        "state_transfers_adopted",
        "state_transfer_bad_snapshot",
    ];

    fn run(replica: &mut Replica, input: Input, ctx: &mut Context<XPaxosMsg>) {
        match input {
            Input::Msg(from, msg) => replica.on_message(replica.node_of(from), *msg, ctx),
            Input::Timer => replica.on_timer(TOKEN_STATE_TRANSFER, ctx),
            Input::Begin(sn) => replica.begin_state_transfer(sn, ctx),
            Input::Set(change) => change(replica),
        }
    }

    /// Runs `setup` and then `input` at replica `at`, each in its own
    /// callback, and reports what `input` did.
    fn drive(f: &mut Fixture, at: ReplicaId, setup: Vec<Input>, input: Input) -> Seen {
        let replica = f.cluster.replica_mut(at);
        let node = replica.node_of(at);
        for step in setup {
            with_offline_context(node, |ctx| run(replica, step, ctx));
        }
        let (counted, sends) = with_offline_context(node, |ctx| {
            run(replica, input, ctx);
            let sends: Vec<Sent> = ctx
                .pending_sends()
                .iter()
                .map(|out| {
                    let to = replica.replica_of_node(out.to).expect("sent to a replica");
                    match &out.msg {
                        XPaxosMsg::StateChunkRequest(m) => {
                            Sent::Request(to, m.index, m.min_sn.0, m.want_sn.0)
                        }
                        XPaxosMsg::StateChunkResponse(m) => Sent::Response(to, m.sn.0, m.index),
                        other => panic!("unexpected send {other:?}"),
                    }
                })
                .collect();
            let counted: Vec<(&'static str, u64)> = COUNTERS
                .iter()
                .map(|name| (*name, ctx.counted(name)))
                .filter(|(_, n)| *n > 0)
                .collect();
            (counted, sends)
        });
        Seen {
            counted,
            sends,
            pending: replica.pending_transfer.is_some(),
        }
    }

    type Row = (
        &'static str,
        ReplicaId,
        fn(&Fixture) -> (Vec<Input>, Input),
        fn(&Fixture) -> Seen,
    );

    fn seen(counted: &[(&'static str, u64)], sends: Vec<Sent>, pending: bool) -> Seen {
        Seen {
            counted: counted.to_vec(),
            sends,
            pending,
        }
    }

    /// One row per branch of the STATE-CHUNK-REQUEST handler (at replica
    /// 0, asked by replica 2), the STATE-CHUNK-RESPONSE handler and the
    /// retry timer (at replica 2, answered by replica 0).
    #[test]
    fn state_chunk_handler_table() {
        const SERVED: &[(&str, u64)] = &[("state_chunks_served", 1)];
        const REJECTED: &[(&str, u64)] = &[("state_chunks_rejected", 1)];
        let rows: Vec<Row> = vec![
            (
                "REQUEST naming the server itself: dropped",
                0,
                |f| (vec![], request(f, 0, 0, 0, (f.new.sn(), SeqNum(0)))),
                |_| seen(&[], vec![], false),
            ),
            (
                "REQUEST under another key: dropped",
                0,
                |f| (vec![], request(f, 2, 1, 0, (f.new.sn(), SeqNum(0)))),
                |_| seen(&[], vec![], false),
            ),
            (
                "REQUEST above every seal: unserved",
                0,
                |f| (vec![], request(f, 2, 2, 0, (f.new.sn().next(), SeqNum(0)))),
                |_| seen(&[("state_chunk_requests_unserved", 1)], vec![], false),
            ),
            (
                "REQUEST: served from the latest seal",
                0,
                |f| (vec![], request(f, 2, 2, 1, (f.new.sn(), SeqNum(0)))),
                |f| seen(SERVED, vec![Sent::Response(2, f.new.sn().0, 1)], false),
            ),
            (
                "REQUEST past the manifest: chunk 0 re-manifests the transfer",
                0,
                |f| (vec![], request(f, 2, 2, 999, (f.new.sn(), SeqNum(0)))),
                |f| seen(SERVED, vec![Sent::Response(2, f.new.sn().0, 0)], false),
            ),
            (
                "REQUEST pinning the generation being served: served from it",
                0,
                |f| {
                    let old = f.old.sn();
                    let serving = f.old.clone();
                    let pin = Input::set(move |r| r.serving_snapshot = Some(serving));
                    (vec![pin], request(f, 2, 2, 1, (old, old)))
                },
                |f| seen(SERVED, vec![Sent::Response(2, f.old.sn().0, 1)], false),
            ),
            (
                "REQUEST taking any generation: the one being served is kept",
                0,
                |f| {
                    let serving = f.old.clone();
                    let pin = Input::set(move |r| r.serving_snapshot = Some(serving));
                    (vec![pin], request(f, 2, 2, 1, (f.old.sn(), SeqNum(0))))
                },
                |f| seen(SERVED, vec![Sent::Response(2, f.old.sn().0, 1)], false),
            ),
            (
                "REQUEST above the generation being served: re-pinned to the latest",
                0,
                |f| {
                    let serving = f.old.clone();
                    let pin = Input::set(move |r| r.serving_snapshot = Some(serving));
                    (
                        vec![pin],
                        request(f, 2, 2, 1, (f.old.sn().next(), SeqNum(0))),
                    )
                },
                |f| seen(SERVED, vec![Sent::Response(2, f.new.sn().0, 1)], false),
            ),
            (
                "RESPONSE with no transfer pending: dropped",
                2,
                |f| (vec![], chunk(f, &f.new, 0)),
                |_| seen(&[], vec![], false),
            ),
            (
                "RESPONSE below the target: dropped",
                2,
                |f| (vec![Input::Begin(f.new.sn())], chunk(f, &f.old, 0)),
                |_| seen(&[], vec![], true),
            ),
            (
                "RESPONSE at or below the executed point: dropped",
                2,
                |f| {
                    let sn = f.new.sn();
                    let executed = Input::set(move |r| r.exec_sn = sn);
                    (vec![Input::Begin(sn), executed], chunk(f, &f.new, 0))
                },
                |_| seen(&[], vec![], true),
            ),
            (
                "RESPONSE below the pinned generation: dropped",
                2,
                |f| {
                    let setup = vec![Input::Begin(f.old.sn()), chunk(f, &f.new, 0)];
                    (setup, chunk(f, &f.old, 1))
                },
                |_| seen(&[], vec![], true),
            ),
            (
                "RESPONSE of another chunk size: rejected",
                2,
                |f| {
                    let mut m = response(f, &f.new, 0);
                    m.chunk_bytes = 1024;
                    (vec![Input::Begin(f.new.sn())], deliver(signed_by(f, 0, m)))
                },
                |_| seen(REJECTED, vec![], true),
            ),
            (
                "RESPONSE naming the requester itself: dropped",
                2,
                |f| {
                    let mut m = response(f, &f.new, 0);
                    m.replica = 2;
                    (vec![Input::Begin(f.new.sn())], deliver(signed_by(f, 2, m)))
                },
                |_| seen(&[], vec![], true),
            ),
            (
                "RESPONSE under another key: rejected",
                2,
                |f| {
                    let m = signed_by(f, 1, response(f, &f.new, 0));
                    (vec![Input::Begin(f.new.sn())], deliver(m))
                },
                |_| seen(REJECTED, vec![], true),
            ),
            (
                "RESPONSE for an index past the manifest: rejected",
                2,
                |f| {
                    let mut m = response(f, &f.new, 0);
                    m.index = chunks(&f.new);
                    (vec![Input::Begin(f.new.sn())], deliver(signed_by(f, 0, m)))
                },
                |_| seen(REJECTED, vec![], true),
            ),
            (
                "RESPONSE with a truncated chunk: rejected",
                2,
                |f| {
                    let mut m = response(f, &f.new, 0);
                    m.data = Bytes::from(m.data[..10].to_vec());
                    (vec![Input::Begin(f.new.sn())], deliver(signed_by(f, 0, m)))
                },
                |_| seen(REJECTED, vec![], true),
            ),
            (
                "RESPONSE with another chunk's audit path: rejected",
                2,
                |f| {
                    let mut m = response(f, &f.new, 0);
                    m.path = response(f, &f.new, 1).path;
                    (vec![Input::Begin(f.new.sn())], deliver(signed_by(f, 0, m)))
                },
                |_| seen(REJECTED, vec![], true),
            ),
            (
                "RESPONSE whose proof seals another sequence number: rejected",
                2,
                |f| {
                    let mut m = response(f, &f.new, 0);
                    m.proof = f.old.proof.clone();
                    (vec![Input::Begin(f.new.sn())], deliver(signed_by(f, 0, m)))
                },
                |_| seen(REJECTED, vec![], true),
            ),
            (
                "RESPONSE with another manifest at the pinned generation: dropped",
                2,
                |f| {
                    let setup = vec![Input::Begin(f.new.sn()), chunk(f, &f.new, 0)];
                    (setup, chunk(f, &forged_generation(f), 0))
                },
                |_| seen(&[], vec![], true),
            ),
            (
                "first RESPONSE: the manifest is pinned and the window filled from its sender",
                2,
                |f| (vec![Input::Begin(f.new.sn())], chunk(f, &f.new, 0)),
                |f| {
                    let new = f.new.sn().0;
                    let counted = [
                        ("state_chunk_requests_sent", 2),
                        ("state_chunks_verified", 1),
                    ];
                    let sends = vec![Sent::Request(0, 1, new, new), Sent::Request(0, 2, new, new)];
                    seen(&counted, sends, true)
                },
            ),
            (
                "duplicate RESPONSE: nothing verified, the window is full",
                2,
                |f| {
                    let setup = vec![Input::Begin(f.new.sn()), chunk(f, &f.new, 0)];
                    (setup, chunk(f, &f.new, 0))
                },
                |_| seen(&[], vec![], true),
            ),
            (
                "next RESPONSE: the window is topped up",
                2,
                |f| {
                    let setup = vec![Input::Begin(f.new.sn()), chunk(f, &f.new, 0)];
                    (setup, chunk(f, &f.new, 1))
                },
                |f| {
                    let new = f.new.sn().0;
                    let counted = [
                        ("state_chunk_requests_sent", 1),
                        ("state_chunks_verified", 1),
                    ];
                    seen(&counted, vec![Sent::Request(0, 3, new, new)], true)
                },
            ),
            (
                "RESPONSE of a newer generation: the transfer restarts on it",
                2,
                |f| {
                    let setup = vec![Input::Begin(f.old.sn()), chunk(f, &f.old, 0)];
                    (setup, chunk(f, &f.new, 0))
                },
                |f| {
                    let new = f.new.sn().0;
                    let counted = [
                        ("state_chunk_requests_sent", 2),
                        ("state_chunks_verified", 1),
                    ];
                    let sends = vec![Sent::Request(0, 1, new, new), Sent::Request(0, 2, new, new)];
                    seen(&counted, sends, true)
                },
            ),
            (
                "last RESPONSE: the snapshot is reassembled and adopted",
                2,
                |f| {
                    let last = chunks(&f.new) - 1;
                    let mut setup = vec![Input::Begin(f.new.sn())];
                    setup.extend((0..last).map(|i| chunk(f, &f.new, i)));
                    (setup, chunk(f, &f.new, last))
                },
                |_| {
                    let counted = [("state_chunks_verified", 1), ("state_transfers_adopted", 1)];
                    seen(&counted, vec![], false)
                },
            ),
            (
                "retry timer without a manifest: chunk 0 from the next peer",
                2,
                |f| (vec![Input::Begin(f.new.sn())], Input::Timer),
                |f| {
                    let counted = [("state_chunk_requests_sent", 1)];
                    seen(&counted, vec![Sent::Request(1, 0, f.new.sn().0, 0)], true)
                },
            ),
            (
                "retry timer: the chunks in flight go to the next peer",
                2,
                |f| {
                    let setup = vec![Input::Begin(f.new.sn()), chunk(f, &f.new, 0)];
                    (setup, Input::Timer)
                },
                |f| {
                    let new = f.new.sn().0;
                    let counted = [("state_chunk_requests_sent", 2)];
                    let sends = vec![Sent::Request(1, 1, new, new), Sent::Request(1, 2, new, new)];
                    seen(&counted, sends, true)
                },
            ),
            (
                "retry timer once the gap closed: the transfer ends",
                2,
                |f| {
                    let sn = f.new.sn();
                    let executed = Input::set(move |r| r.exec_sn = sn);
                    (vec![Input::Begin(sn), executed], Input::Timer)
                },
                |_| seen(&[], vec![], false),
            ),
        ];
        for (name, at, build, expect) in rows {
            let mut f = fixture();
            let (setup, input) = build(&f);
            let expected = expect(&f);
            assert_eq!(drive(&mut f, at, setup, input), expected, "{name}");
        }
    }

    /// A journaled chunk of sealed generation `sn` and manifest `root`: one
    /// of five `chunk_bytes`-byte chunks.
    fn record(sn: u64, root: &[u8], chunk_bytes: u32, index: u32) -> TransferChunkRecord {
        TransferChunkRecord {
            sn: SeqNum(sn),
            chunk_bytes,
            total_len: 5 * chunk_bytes as u64 - 100,
            root: Digest::of(root),
            index,
            data: Bytes::from(vec![index as u8; 8]),
            proof: Vec::new(),
        }
    }

    /// Progress at generation 10 (manifest "a", 512-byte chunks) holding
    /// chunks 0 and 2, with 1 in flight.
    fn progress() -> Option<ChunkProgress> {
        let mut progress = None;
        for index in [0, 1, 2] {
            ChunkProgress::absorb(&mut progress, &record(10, b"a", 512, index), 512);
        }
        let p = progress.as_mut().expect("started");
        p.chunks.remove(&1);
        p.inflight.insert(1);
        progress
    }

    #[test]
    fn absorb_table() {
        let held = |p: &Option<ChunkProgress>| {
            p.as_ref().map(|p| {
                let chunks: Vec<u32> = p.chunks.keys().copied().collect();
                (
                    p.sn.0,
                    chunks,
                    p.inflight.iter().copied().collect::<Vec<u32>>(),
                )
            })
        };
        type Held = Option<(u64, Vec<u32>, Vec<u32>)>;
        let rows: Vec<(
            &str,
            Option<ChunkProgress>,
            TransferChunkRecord,
            Absorbed,
            Held,
        )> = vec![
            (
                "the first chunk starts the progress",
                None,
                record(10, b"a", 512, 3),
                Absorbed::Fresh,
                Some((10, vec![3], vec![])),
            ),
            (
                "a chunk of another size is dropped",
                None,
                record(10, b"a", 1024, 0),
                Absorbed::Dropped,
                None,
            ),
            (
                "an index past the manifest is dropped",
                progress(),
                record(10, b"a", 512, 5),
                Absorbed::Dropped,
                Some((10, vec![0, 2], vec![1])),
            ),
            (
                "an older generation is dropped",
                progress(),
                record(9, b"a", 512, 1),
                Absorbed::Dropped,
                Some((10, vec![0, 2], vec![1])),
            ),
            (
                "another root at the same generation is dropped",
                progress(),
                record(10, b"b", 512, 1),
                Absorbed::Dropped,
                Some((10, vec![0, 2], vec![1])),
            ),
            (
                "another length at the same generation is dropped",
                progress(),
                TransferChunkRecord {
                    total_len: 100,
                    ..record(10, b"a", 512, 0)
                },
                Absorbed::Dropped,
                Some((10, vec![0, 2], vec![1])),
            ),
            (
                "a newer generation starts over",
                progress(),
                record(11, b"b", 512, 4),
                Absorbed::Fresh,
                Some((11, vec![4], vec![])),
            ),
            (
                "a chunk in flight is held and no longer in flight",
                progress(),
                record(10, b"a", 512, 1),
                Absorbed::Fresh,
                Some((10, vec![0, 1, 2], vec![])),
            ),
            (
                "a chunk already held is a duplicate",
                progress(),
                record(10, b"a", 512, 2),
                Absorbed::Duplicate,
                Some((10, vec![0, 2], vec![1])),
            ),
        ];
        for (name, mut progress, c, absorbed, expected) in rows {
            assert_eq!(
                ChunkProgress::absorb(&mut progress, &c, 512),
                absorbed,
                "{name}"
            );
            assert_eq!(held(&progress), expected, "{name}");
        }
    }

    #[test]
    fn claim_table() {
        // Chunks 0 and 2 of 5 held, 1 in flight.
        let rows: Vec<(&str, usize, Vec<u32>, Vec<u32>)> = vec![
            ("the window is full", 1, vec![], vec![1]),
            (
                "the lowest free index fills the room",
                2,
                vec![3],
                vec![1, 3],
            ),
            (
                "held and in-flight indices are skipped",
                9,
                vec![3, 4],
                vec![1, 3, 4],
            ),
        ];
        for (name, window, claimed, inflight) in rows {
            let mut p = progress().expect("started");
            assert_eq!(p.claim(window), claimed, "{name}");
            assert_eq!(p.inflight, BTreeSet::from_iter(inflight), "{name}");
        }
        let mut done = progress().expect("started");
        done.chunks.extend([1, 3, 4].map(|i| (i, Bytes::new())));
        done.inflight.clear();
        assert_eq!(done.claim(4), Vec::<u32>::new(), "nothing is left to claim");
    }

    /// A replica configured for 2048-byte chunks whose WAL holds one chunk
    /// of a transfer under another setting: recovery must drop it by the
    /// rule the wire uses, not resume a transfer that can never finish.
    #[test]
    fn recovery_admits_only_journaled_chunks_of_the_configured_size() {
        for (chunk_bytes, resumed) in [(2048, Some(2048)), (1024, None)] {
            let config = XPaxosConfig::new(1, 1).with_state_chunk_bytes(2048);
            let registry = KeyRegistry::new(1);
            let mut storage = xft_store::MemStorage::new();
            let event = DurableEvent::TransferChunk(record(32, b"a", chunk_bytes, 0));
            storage.append(&event.wire_bytes());
            let mut replica =
                Replica::new(0, config, &registry, Box::new(DigestChainService::new()))
                    .with_storage(Box::new(storage));
            replica.recover_from_storage();
            let progress = replica
                .pending_transfer
                .as_ref()
                .and_then(|p| p.progress.as_ref());
            assert_eq!(
                progress.map(|p| p.chunk_bytes),
                resumed,
                "{chunk_bytes}-byte chunk"
            );
        }
    }
}
