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

use super::{ChunkProgress, PendingTransfer, Replica, TOKEN_STATE_TRANSFER};
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
use xft_simnet::{Context, SimMessage};

impl Replica {
    /// Starts (or extends) a state transfer towards the checkpoint at
    /// `target`. No-op if the replica has already executed past it; a
    /// transfer resumed from the WAL (no retry timer armed yet) is kicked
    /// back into motion.
    pub(crate) fn begin_state_transfer(&mut self, target: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        if self.exec_sn >= target {
            return;
        }
        if let Some(pending) = self.pending_transfer.as_mut() {
            if target > pending.target {
                pending.target = target;
            }
            if pending.timer.is_none() {
                // Rebuilt from the WAL after a crash, or orphaned by a timer
                // race: nothing is driving it, so drive it now.
                self.continue_state_transfer(ctx);
            }
            return; // otherwise a request is in flight; the timer drives retries
        }
        self.pending_transfer = Some(PendingTransfer {
            target,
            attempts: 0,
            timer: None,
            // Correlate the whole fetch under one trace id, minted from the
            // puller's identity and the checkpoint it is chasing (both words
            // deterministic, so replays mint the same id).
            trace: xft_telemetry::trace::mint(self.id as u64, target.0),
            progress: None,
        });
        ctx.count("state_transfers_started", 1);
        self.continue_state_transfer(ctx);
    }

    /// Sends the next round of `STATE-CHUNK-REQUEST`s and re-arms the retry
    /// timer. Peers are tried round-robin: the active replicas of the
    /// current view first (they hold the freshest checkpoint), then everyone
    /// else. Without a manifest yet, chunk 0 is requested (its response
    /// doubles as the manifest); with one, the lowest missing chunks up to
    /// the fetch window.
    pub(crate) fn continue_state_transfer(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let (attempts, target) = match self.pending_transfer.as_mut() {
            Some(pending) => {
                let attempts = pending.attempts;
                pending.attempts += 1;
                (attempts, pending.target)
            }
            None => return,
        };

        let mut candidates: Vec<ReplicaId> = self
            .groups
            .active_replicas(self.view)
            .iter()
            .copied()
            .filter(|r| *r != self.id)
            .collect();
        for r in 0..self.config.n() {
            if r != self.id && !candidates.contains(&r) {
                candidates.push(r);
            }
        }
        if candidates.is_empty() {
            return;
        }
        let peer = candidates[attempts as usize % candidates.len()];

        let window = self.config.state_fetch_window as usize;
        // Mid-transfer, requests pin the generation already in progress
        // (`want_sn`) and lower `min_sn` to it: finishing the pinned
        // snapshot beats restarting on whatever newer seal exists, even if
        // the target has crept past it — adoption re-arms the transfer for
        // the remainder of the gap.
        let mut min_sn = target;
        let mut want_sn = SeqNum(0);
        let indices: Vec<u32> = match self
            .pending_transfer
            .as_mut()
            .and_then(|p| p.progress.as_mut())
        {
            None => vec![0],
            Some(progress) => {
                // Retry path: anything still marked in flight is presumed
                // lost with the peer being rotated away from.
                progress.inflight.clear();
                let count = progress.chunk_count();
                let missing: Vec<u32> = (0..count)
                    .filter(|i| !progress.chunks.contains_key(i))
                    .take(window)
                    .collect();
                if missing.is_empty() {
                    // Complete-but-unadopted progress only survives a failed
                    // adoption; refetch the manifest from scratch.
                    vec![0]
                } else {
                    min_sn = progress.sn;
                    want_sn = progress.sn;
                    for i in &missing {
                        progress.inflight.insert(*i);
                    }
                    missing
                }
            }
        };
        for index in indices {
            self.send_chunk_request(peer, index, min_sn, want_sn, ctx);
        }

        let timer = ctx.set_timer(self.config.replica_retransmit, TOKEN_STATE_TRANSFER);
        if let Some(pending) = self.pending_transfer.as_mut() {
            if let Some(old) = pending.timer.replace(timer) {
                ctx.cancel_timer(old);
            }
        }
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
        // retries otherwise carry trace 0; the ambient trace is restored so
        // an in-handler caller (e.g. a response topping up the window) keeps
        // its own correlation for anything else it sends.
        let transfer_trace = self.pending_transfer.as_ref().map_or(0, |p| p.trace);
        let ambient = xft_telemetry::trace::current();
        xft_telemetry::trace::set_current(transfer_trace);
        ctx.send(self.node_of(peer), XPaxosMsg::StateChunkRequest(msg));
        xft_telemetry::trace::set_current(ambient);
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
            self.pending_transfer = None;
            return;
        }
        self.continue_state_transfer(ctx);
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
            total_len: image.bytes().len() as u64,
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
        let sn = m.sn;
        // The floor is the pinned generation if one is in progress — NOT the
        // target, which may have crept past it while we fetched. Finishing
        // the pinned snapshot is still forward progress; adoption re-arms
        // the transfer for whatever gap remains.
        let floor = pending
            .progress
            .as_ref()
            .map(|p| p.sn)
            .unwrap_or(pending.target);
        if sn <= self.exec_sn || sn < floor {
            return; // too old to close the gap / below the pinned generation
        }
        if m.chunk_bytes != self.config.state_chunk_bytes {
            // The seal binds the chunk size; a different one can only come
            // from a misconfigured or faulty peer.
            ctx.count("state_chunks_rejected", 1);
            return;
        }
        ctx.charge(CryptoOp::VerifySig);
        if m.replica >= self.config.n() || m.replica == self.id {
            return;
        }
        let signed = state_chunk_response_digest(&m);
        if !verify_replica_sig(&self.verifier, m.replica, &signed, &m.signature) {
            ctx.count("state_chunks_rejected", 1);
            return;
        }
        // Structural checks: index in range, exact chunk length (full-size
        // except the final chunk), audit path proving the chunk's leaf
        // under the manifest root.
        let count = chunk_count(m.total_len, m.chunk_bytes);
        if m.index >= count {
            ctx.count("state_chunks_rejected", 1);
            return;
        }
        let expected_len = if m.index + 1 == count {
            m.total_len - (count as u64 - 1) * m.chunk_bytes as u64
        } else {
            m.chunk_bytes as u64
        };
        if m.data.len() as u64 != expected_len {
            ctx.count("state_chunks_rejected", 1);
            return;
        }
        let leaf = chunk_leaf(m.index, &m.data);
        if !merkle_verify(&leaf, m.index as usize, count as usize, &m.path, &m.root) {
            ctx.count("state_chunks_rejected", 1);
            return;
        }
        // The t + 1 seal must vouch for exactly this manifest.
        let commitment = snapshot_commitment(m.chunk_bytes, m.total_len, &m.root);
        if self.proven_checkpoint(&m.proof, sn, ctx) != Some(commitment) {
            ctx.count("state_chunks_rejected", 1);
            return;
        }

        // Verified. Integrate into (or restart) the progress: a response for
        // a newer seal than the one in progress means the peers sealed again
        // and garbage-collected the old snapshot — start over on the new one.
        let pending = self.pending_transfer.as_mut().expect("checked above");
        let restart = match pending.progress.as_ref() {
            None => true,
            Some(p) => {
                if sn < p.sn || (sn == p.sn && p.root != m.root) {
                    return; // a stale generation (or an impossible conflicting manifest)
                }
                sn > p.sn
            }
        };
        if restart {
            pending.progress = Some(ChunkProgress {
                sn,
                chunk_bytes: m.chunk_bytes,
                total_len: m.total_len,
                root: m.root,
                proof: m.proof.clone(),
                chunks: BTreeMap::new(),
                inflight: BTreeSet::new(),
            });
        }
        let progress = pending.progress.as_mut().expect("just ensured");
        progress.inflight.remove(&m.index);
        let fresh = progress.chunks.insert(m.index, m.data.clone()).is_none();
        let complete = progress.is_complete();
        let mut to_request: Vec<u32> = Vec::new();
        if !complete {
            let window = self.config.state_fetch_window as usize;
            let room = window.saturating_sub(progress.inflight.len());
            to_request = (0..progress.chunk_count())
                .filter(|i| !progress.chunks.contains_key(i) && !progress.inflight.contains(i))
                .take(room)
                .collect();
            for i in &to_request {
                progress.inflight.insert(*i);
            }
        }

        if fresh {
            ctx.count("state_chunks_verified", 1);
            // Journal the verified chunk so a crash resumes the transfer
            // from the WAL instead of refetching every chunk.
            self.persist(|| {
                DurableEvent::TransferChunk(TransferChunkRecord {
                    sn,
                    chunk_bytes: m.chunk_bytes,
                    total_len: m.total_len,
                    root: m.root,
                    index: m.index,
                    data: m.data.clone(),
                    proof: m.proof.clone(),
                })
            });
        }

        if complete {
            self.finish_chunk_transfer(ctx);
            return;
        }

        // Self-clocked window: top up requests towards the peer that just
        // answered — pinned to the generation it is serving — and grant the
        // transfer a fresh retransmit period.
        for index in to_request {
            self.send_chunk_request(m.replica, index, sn, sn, ctx);
        }
        if fresh {
            let timer = ctx.set_timer(self.config.replica_retransmit, TOKEN_STATE_TRANSFER);
            if let Some(pending) = self.pending_transfer.as_mut() {
                if let Some(old) = pending.timer.replace(timer) {
                    ctx.cancel_timer(old);
                }
            }
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
