//! Checkpointing and lazy replication (paper §4.5, Figures 4 and 5).
//!
//! Active replicas agree on a state digest every `checkpoint_interval` sequence numbers
//! through a MAC-authenticated PRECHK round followed by a signed CHKPT round; the
//! resulting proof lets them garbage-collect their prepare and commit logs and is
//! lazily propagated to the passive replicas. Followers also lazily propagate committed
//! entries to the passive replicas so that a passive replica promoted by a view change
//! has most of the state already ("this fast execution of the view-change subprotocol is
//! a consequence of lazy replication" — §5.4).
//!
//! The checkpoint horizon moves through three transitions, each written here
//! once and shared by every role that reaches a checkpoint:
//! `advance_checkpoint` garbage-collects up to a proven
//! checkpoint (CHKPT quorum, LAZY-CHECKPOINT, NEW-VIEW horizon, adopted
//! snapshot); `settle_at_checkpoint` compares the state of a
//! replica standing exactly at a proven checkpoint and either seals it or
//! discards it and fetches the agreed one (LAZY-CHECKPOINT, NEW-VIEW
//! horizon); and `repair_forked_suffix` is the one rollback
//! (a passive's fork repair, a NEW-VIEW rebuild).

use super::{Phase, Replica};
use crate::auth::verify_replica_sig;
use crate::log::CommitEntry;
use crate::messages::{CheckpointMsg, XPaxosMsg};
use crate::types::SeqNum;
use xft_crypto::{CryptoOp, Digest};
use xft_simnet::{Context, NodeId};

impl Replica {
    /// After executing a batch, starts a checkpoint round if the interval was crossed.
    pub(crate) fn maybe_checkpoint(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let interval = self.config.checkpoint_interval;
        if interval == 0 || self.phase != Phase::Active || !self.is_active_in(self.view) {
            return;
        }
        let sn = self.exec_sn;
        if sn.0 == 0 || !sn.0.is_multiple_of(interval) || sn <= self.last_checkpoint {
            return;
        }
        // Capture the snapshot *now*, at the execution point whose digest the
        // round agrees on; it is retained until the CHKPT quorum seals it
        // (execution moves on in the meantime).
        let image = self.capture_checkpoint(ctx);
        let digest = image.commitment();
        self.pending_snapshots.insert(sn.0, image);
        // PRECHK round: MAC-authenticated state digest exchange among active replicas.
        ctx.charge(CryptoOp::Mac { len: 64 });
        let msg = CheckpointMsg {
            sn,
            view: self.view,
            state_digest: digest,
            replica: self.id,
            signed: false,
            signature: xft_crypto::Signature::forged(self.signer.id()),
        };
        self.prechk_votes
            .entry(sn.0)
            .or_default()
            .insert(self.id, msg.state_digest);
        for node in self.other_active_nodes(self.view) {
            ctx.send(node, XPaxosMsg::Checkpoint(msg.clone()));
        }
        self.check_prechk_quorum(sn, ctx);
    }

    /// Handles both PRECHK (unsigned) and CHKPT (signed) messages from node
    /// `from`.
    pub(crate) fn on_checkpoint(
        &mut self,
        from: NodeId,
        m: CheckpointMsg,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        if !self.is_active_in(self.view) {
            return;
        }
        if m.signed {
            // Verify before admitting the vote: CHKPT messages become part
            // of durable checkpoint *proofs* (state transfer, VIEW-CHANGE
            // horizons), and one garbage signature would poison every proof
            // built from the vote set.
            ctx.charge(CryptoOp::VerifySig);
            if m.replica >= self.config.n() {
                return;
            }
            let expected = crate::messages::checkpoint_vote_digest(m.view, m.sn, &m.state_digest);
            if !verify_replica_sig(&self.verifier, m.replica, &expected, &m.signature) {
                return;
            }
            let sn = m.sn;
            self.chkpt_votes
                .entry(sn.0)
                .or_default()
                .insert(m.replica, m);
            self.check_chkpt_quorum(sn, ctx);
        } else {
            ctx.charge(CryptoOp::VerifyMac { len: 64 });
            // The MAC authenticates the channel, not a name: a PRECHK counts
            // only for the active replica that sent it.
            let sender = self.replica_of_node(from);
            if sender != Some(m.replica) || !self.groups.is_active(self.view, m.replica) {
                return;
            }
            self.prechk_votes
                .entry(m.sn.0)
                .or_default()
                .insert(m.replica, m.state_digest);
            self.check_prechk_quorum(m.sn, ctx);
        }
    }

    /// Once t + 1 matching PRECHK digests are in, send the signed CHKPT message.
    fn check_prechk_quorum(&mut self, sn: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        let Some(votes) = self.prechk_votes.get(&sn.0) else {
            return;
        };
        if votes.len() < self.config.active_count() {
            return;
        }
        // All active replicas must report the same digest; otherwise states diverged
        // and the view must be suspected.
        let Some(&first) = votes.agreed() else {
            self.suspect_view(None, ctx);
            return;
        };
        // Send our signed CHKPT (once).
        if self
            .chkpt_votes
            .get(&sn.0)
            .and_then(|v| v.get(self.id))
            .is_some()
        {
            return;
        }
        ctx.charge(CryptoOp::Sign);
        let msg = CheckpointMsg {
            sn,
            view: self.view,
            state_digest: first,
            replica: self.id,
            signed: true,
            signature: self.sign(&crate::messages::checkpoint_vote_digest(
                self.view, sn, &first,
            )),
        };
        self.chkpt_votes
            .entry(sn.0)
            .or_default()
            .insert(self.id, msg.clone());
        for node in self.other_active_nodes(self.view) {
            ctx.send(node, XPaxosMsg::Checkpoint(msg.clone()));
        }
        self.check_chkpt_quorum(sn, ctx);
    }

    /// Once t + 1 *distinct* replicas' signed CHKPT messages agree on one
    /// digest, the checkpoint is stable: truncate the logs, seal the captured
    /// snapshot with the proof (retaining it for state transfer, persisting
    /// it to storage) and propagate the proof to passive replicas (LAZYCHK).
    fn check_chkpt_quorum(&mut self, sn: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        if sn <= self.last_checkpoint {
            return;
        }
        // A quorum is t + 1 different replicas vouching for the state of
        // *this replica's own* vote: our vote is only cast once we executed
        // to `sn` and captured the snapshot, so requiring it guarantees the
        // truncation below never discards entries we have not executed, and
        // that the agreed digest is ours (no fork can be laundered under a
        // checkpoint this replica never reached).
        let Some(votes) = self.chkpt_votes.get(&sn.0) else {
            return;
        };
        let Some(digest) = votes.get(self.id).map(|own| own.state_digest) else {
            return;
        };
        let proof: Vec<CheckpointMsg> = votes
            .values()
            .filter(|m| m.state_digest == digest)
            .cloned()
            .collect();
        if proof.len() < self.config.active_count() {
            return;
        }

        // Take the image captured at PRECHK time out before the horizon
        // moves past it, then seal it with the quorum proof — this replica
        // can now serve verified state transfer for `sn` — and persist it,
        // re-seeding the WAL with the surviving log tail.
        let image = self.pending_snapshots.remove(&sn.0);
        self.advance_checkpoint(sn, proof.clone());
        ctx.count("checkpoints", 1);
        self.tel_event(ctx, "chkpt", || {
            format!("sn={} view={} stable", sn.0, self.view.0)
        });
        if let Some(image) = image.filter(|image| image.commitment() == digest) {
            self.seal_checkpoint(image, proof.clone());
        }

        // Propagate the checkpoint proof to the passive replicas.
        for passive in self.groups.passive_replicas(self.view) {
            ctx.send(
                self.node_of(passive),
                XPaxosMsg::LazyCheckpoint {
                    proof: proof.clone(),
                },
            );
        }
    }

    /// A passive replica receives a checkpoint proof: verify it, then either
    /// garbage-collect (caught up) or fetch the checkpointed state through a
    /// real, verified state transfer (lagging). The seed's one-line
    /// "`exec_sn = sn`, modeling snapshot transfer" is gone — a replica never
    /// skips execution it cannot account for.
    pub(crate) fn on_lazy_checkpoint(
        &mut self,
        proof: Vec<CheckpointMsg>,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let Some((sn, digest)) = self.verify_checkpoint_proof(&proof, ctx) else {
            return;
        };
        if sn <= self.last_checkpoint {
            return;
        }
        // Drain whatever lazy replication already delivered — but stop *at*
        // the checkpoint boundary, so a replica that can reach it compares
        // its state against the agreed digest before executing past it.
        self.try_execute_upto(sn, ctx);
        if self.exec_sn < sn {
            ctx.count("lazy_checkpoints_behind", 1);
            self.begin_state_transfer(sn, ctx);
            return;
        }
        // At the checkpoint exactly, this replica can *compare* its state
        // against the agreed digest; past it, there is no state to compare
        // at `sn`, and any fork in the prefix was repaired when the
        // conflicting entries arrived (`on_lazy_replicate`).
        if self.exec_sn > sn {
            self.advance_checkpoint(sn, proof);
        } else if !self.settle_at_checkpoint(sn, digest, proof, ctx) {
            return;
        }
        // Resume execution past the boundary we stopped at.
        self.try_execute(ctx);
        ctx.count("lazy_checkpoints", 1);
    }

    /// Moves the checkpoint horizon up to the proven checkpoint `sn`. This
    /// is the one rule for every way a replica learns a checkpoint: its
    /// CHKPT quorum, a LAZY-CHECKPOINT, a NEW-VIEW's merged horizon and an
    /// adopted snapshot. The proof is kept for VIEW-CHANGE claims, and the
    /// ordering state at or below `sn` goes (`drop_through`). Evidence,
    /// executed history and cached client replies below the window base go
    /// too, the last two by the rule the capture path uses, so a veteran
    /// replica's live tables stay byte-equivalent to what an adopting
    /// replica decodes from the snapshot. One interval of history is kept
    /// so fork detection works across a view change straddling the seal.
    /// This is what keeps a long-lived replica O(interval) instead of
    /// O(history).
    pub(crate) fn advance_checkpoint(&mut self, sn: SeqNum, proof: Vec<CheckpointMsg>) {
        self.last_checkpoint = sn;
        self.checkpoint_proof = proof;
        self.drop_through(sn);
        let base = self.checkpoint_base(sn);
        if let Some(evidence) = self.evidence.as_mut() {
            evidence.gc_below(base);
        }
        self.executed_history.retain(|(s, _)| *s > base);
        self.sessions.prune_replies(base);
    }

    /// Drops the ordering state a checkpoint at `sn` makes dead: log
    /// entries, uncollected commit signatures, cached follower COMMITs,
    /// PRECHK and CHKPT votes and captured images, all at or below `sn`.
    fn drop_through(&mut self, sn: SeqNum) {
        self.prepare_log.truncate_upto(sn);
        self.commit_log.truncate_upto(sn);
        self.pending_commits.retain(|k, _| *k > sn.0);
        self.follower_commits.retain(|k, _| *k > sn.0);
        self.prechk_votes.retain(|k, _| *k > sn.0);
        self.chkpt_votes.retain(|k, _| *k > sn.0);
        self.pending_snapshots.retain(|k, _| *k > sn.0);
    }

    /// This replica executed exactly up to the proven checkpoint `sn`
    /// (agreed state `digest`): capture and compare. A match advances the
    /// horizon and seals the capture with `proof`, making this replica a
    /// transfer source too. A mismatch proves the executed prefix forked at
    /// or below `sn` — garbage-collecting now would launder the fork below
    /// every later divergence check, and the local log may hold the forked
    /// entries, so a replay can only reproduce it: drop everything up to the
    /// checkpoint, discard the executed state and fetch the agreed one.
    /// Returns whether the state matched.
    pub(crate) fn settle_at_checkpoint(
        &mut self,
        sn: SeqNum,
        digest: Digest,
        proof: Vec<CheckpointMsg>,
        ctx: &mut Context<XPaxosMsg>,
    ) -> bool {
        let image = self.capture_checkpoint(ctx);
        if image.commitment() == digest {
            self.advance_checkpoint(sn, proof.clone());
            self.seal_checkpoint(image, proof);
            return true;
        }
        ctx.count("lazy_checkpoint_state_mismatch", 1);
        self.drop_through(sn);
        self.pending_snapshots.clear();
        self.refetch_checkpoint(sn, ctx);
        false
    }

    /// This replica's executed suffix is proven divergent from the canonical
    /// order (a speculatively executed entry was selected out by a view
    /// change it missed — paper Lemma 1). The one rollback: back to the
    /// sealed snapshot at the last checkpoint, or — without one — to a blank
    /// slate that replays from sequence number 1 (full log) or fetches the
    /// checkpoint from a peer. The caller's `try_execute` replays the
    /// corrected log from there.
    pub(crate) fn repair_forked_suffix(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let base = self.last_checkpoint;
        match self.latest_snapshot.clone().filter(|s| s.sn() == base) {
            Some(sealed) => {
                self.adopt_sealed_snapshot(sealed, false, ctx);
            }
            None => self.refetch_checkpoint(base, ctx),
        }
    }

    /// Discards the executed state and the seal it stood on, then fetches
    /// the checkpoint at `target` (a no-op at 0: a full log replays from the
    /// start).
    fn refetch_checkpoint(&mut self, target: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        self.discard_executed_state();
        self.begin_state_transfer(target, ctx);
    }

    /// Resets executed state to a blank slate — application state, executed
    /// history, exactly-once table and the fast-path commit cache — and
    /// forgets the checkpoint it stood on. The logs are the caller's.
    pub(crate) fn discard_executed_state(&mut self) {
        self.state.reset();
        self.executed_history.clear();
        self.sessions.forget_executed();
        self.follower_commits.clear();
        self.exec_sn = SeqNum(0);
        self.last_checkpoint = SeqNum(0);
        self.checkpoint_proof.clear();
    }

    /// Followers lazily propagate the committed entry at `sn` to passive replicas.
    pub(crate) fn lazy_replicate(&mut self, sn: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        if self.phase != Phase::Active {
            return;
        }
        // Only followers propagate (the primary's uplink is the throughput bottleneck
        // in WAN deployments, so the paper keeps it out of lazy replication).
        let followers = self.groups.followers(self.view);
        let Some(my_follower_index) = followers.iter().position(|f| *f == self.id) else {
            return;
        };
        let Some(entry) = self.commit_log.get(sn) else {
            return;
        };
        let entry = entry.clone();
        let passives = self.groups.passive_replicas(self.view);
        if passives.is_empty() {
            return;
        }
        // Follower j serves passive replicas j, j + t, … (round-robin split of the
        // lazy-replication work among the t followers).
        for (i, passive) in passives.iter().enumerate() {
            if i % followers.len() == my_follower_index {
                ctx.send(
                    self.node_of(*passive),
                    XPaxosMsg::LazyReplicate {
                        view: self.view,
                        entries: vec![entry.clone()],
                    },
                );
            }
        }
    }

    /// A passive replica receives lazily replicated commit entries.
    pub(crate) fn on_lazy_replicate(
        &mut self,
        entries: Vec<CommitEntry>,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let mut forked = false;
        // One batched verification charge for the whole entry set instead of
        // a per-entry pass (the entries share the sender's signing key, so
        // the batch path's midstate reuse applies).
        ctx.charge(CryptoOp::VerifyBatch {
            count: entries.len(),
        });
        for entry in entries {
            if entry.sn <= self.last_checkpoint {
                continue;
            }
            let keep = match self.commit_log.get(entry.sn) {
                Some(existing) => existing.view < entry.view,
                None => true,
            };
            if keep {
                // A higher-view committed entry landing on a slot this
                // replica already *executed* with a different batch is proof
                // its speculative suffix forked (the isolated follower of
                // paper Lemma 1): the entry it executed was selected out by
                // a view change it missed. Repair below, before executing
                // anything else on the forked state.
                if entry.sn <= self.exec_sn {
                    let new_digest = entry.batch.digest();
                    forked |= self
                        .executed_history
                        .iter()
                        .any(|(sn, digest)| *sn == entry.sn && *digest != new_digest);
                }
                if entry.sn > self.next_sn {
                    self.next_sn = entry.sn;
                }
                self.log_commit(entry);
            }
        }
        if forked {
            ctx.count("fork_repairs", 1);
            self.repair_forked_suffix(ctx);
        }
        self.try_execute(ctx);
        ctx.count("lazy_entries", 1);
    }
}

#[cfg(test)]
mod tests {
    use crate::client::ClientWorkload;
    use crate::harness::{ClusterBuilder, LatencySpec, XPaxosCluster};
    use crate::messages::{
        checkpoint_vote_digest, state_chunk_request_digest, CheckpointMsg, StateChunkRequestMsg,
        XPaxosMsg,
    };
    use crate::replica::view_change::Selection;
    use crate::replica::votes::Votes;
    use crate::replica::Replica;
    use crate::types::{replica_key, ReplicaId, SeqNum, ViewNumber};
    use xft_crypto::{Digest, Signer};
    use xft_simnet::{with_offline_context, Actor, SimDuration, SimMessage};

    /// A t = 1 cluster that ran a short workload to quiescence with
    /// checkpointing off: every replica — the passive one (2) through lazy
    /// replication — executed the same prefix and still holds its log.
    /// Returns the cluster and that prefix's last sequence number.
    fn quiescent_cluster() -> (XPaxosCluster, SeqNum) {
        let mut cluster = ClusterBuilder::new(1, 2)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(1)))
            .with_workload(ClientWorkload {
                requests: Some(10),
                ..Default::default()
            })
            .with_config(|c| c.with_checkpoint_interval(0))
            .build();
        cluster.run_for(SimDuration::from_secs(2));
        let sn = cluster.replica(0).executed_upto();
        assert!(sn >= SeqNum(4), "only {} batches executed", sn.0);
        for r in 1..3 {
            assert_eq!(cluster.replica(r).executed_upto(), sn, "replica {r} lags");
        }
        (cluster, sn)
    }

    /// A t + 1 proof that view 0's actives agreed on `state` at `sn`.
    fn proof(cluster: &XPaxosCluster, sn: SeqNum, state: Digest) -> Vec<CheckpointMsg> {
        (0..2)
            .map(|replica| CheckpointMsg {
                sn,
                view: ViewNumber(0),
                state_digest: state,
                replica,
                signed: true,
                signature: Signer::new(&cluster.registry, replica_key(replica))
                    .sign_digest(&checkpoint_vote_digest(ViewNumber(0), sn, &state)),
            })
            .collect()
    }

    /// The digest a checkpoint of replica `r`'s current state would agree on.
    fn state_of(cluster: &XPaxosCluster, r: ReplicaId) -> Digest {
        let replica = cluster.replica(r);
        with_offline_context(replica.node_of(r), |ctx| {
            replica.capture_checkpoint(ctx).commitment()
        })
    }

    fn counter(cluster: &XPaxosCluster, name: &str) -> u64 {
        cluster.sim.metrics().counter(name)
    }

    fn lazy_checkpoint(cluster: &mut XPaxosCluster, proof: Vec<CheckpointMsg>) {
        cluster
            .sim
            .post_message(0, 2, XPaxosMsg::LazyCheckpoint { proof });
        cluster.run_for(SimDuration::from_millis(50));
    }

    /// Nothing at or below `sn` survives at replica `r`: no log entry, no
    /// vote, no captured image.
    fn assert_nothing_at_or_below(cluster: &XPaxosCluster, r: ReplicaId, sn: SeqNum) {
        let replica = cluster.replica(r);
        assert!(replica.commit_log.iter().all(|e| e.sn > sn));
        assert!(replica.prepare_log.iter().all(|e| e.sn > sn));
        assert!(replica.prechk_votes.keys().all(|k| *k > sn.0));
        assert!(replica.chkpt_votes.keys().all(|k| *k > sn.0));
        assert!(replica.pending_snapshots.keys().all(|k| *k > sn.0));
    }

    #[test]
    fn a_passive_behind_the_proof_starts_a_state_transfer() {
        let (mut cluster, sn) = quiescent_cluster();
        let ahead = SeqNum(sn.0 + 8);
        let proof = proof(
            &cluster,
            ahead,
            Digest::of(b"a state this replica never saw"),
        );
        lazy_checkpoint(&mut cluster, proof);
        assert_eq!(counter(&cluster, "lazy_checkpoints_behind"), 1);
        assert_eq!(counter(&cluster, "state_transfers_started"), 1);
        let passive = cluster.replica(2);
        assert_eq!(
            passive.pending_transfer.as_ref().map(|p| p.target),
            Some(ahead)
        );
        assert_eq!(
            (passive.executed_upto(), passive.last_checkpoint()),
            (sn, SeqNum(0))
        );
    }

    #[test]
    fn a_passive_at_the_proof_with_matching_state_seals_and_serves_it() {
        let (mut cluster, sn) = quiescent_cluster();
        let proof = proof(&cluster, sn, state_of(&cluster, 0));
        lazy_checkpoint(&mut cluster, proof);
        assert_eq!(counter(&cluster, "lazy_checkpoints"), 1);
        assert_eq!(counter(&cluster, "lazy_checkpoint_state_mismatch"), 0);
        let passive = cluster.replica(2);
        assert_eq!(passive.last_checkpoint(), sn);
        assert_eq!(passive.latest_snapshot.as_ref().map(|s| s.sn()), Some(sn));
        assert_nothing_at_or_below(&cluster, 2, sn);

        // The sealed capture is a transfer source: replica 1 asks for it.
        let request = StateChunkRequestMsg {
            min_sn: sn,
            want_sn: SeqNum(0),
            index: 0,
            replica: 1,
            signature: Signer::new(&cluster.registry, replica_key(1))
                .sign_digest(&state_chunk_request_digest(sn, SeqNum(0), 0, 1)),
        };
        cluster
            .sim
            .post_message(1, 2, XPaxosMsg::StateChunkRequest(request));
        cluster.run_for(SimDuration::from_millis(50));
        assert_eq!(counter(&cluster, "state_chunks_served"), 1);
    }

    #[test]
    fn a_passive_at_the_proof_with_diverged_state_discards_it_and_refetches() {
        let (mut cluster, sn) = quiescent_cluster();
        // Stale checkpoint leftovers from an earlier view as an active.
        let image = {
            let passive = cluster.replica(2);
            with_offline_context(passive.node_of(2), |ctx| passive.capture_checkpoint(ctx))
        };
        let stale_vote = proof(&cluster, sn, image.commitment()).remove(0);
        let passive = cluster.replica_mut(2);
        passive
            .prechk_votes
            .entry(sn.0)
            .or_default()
            .insert(0, image.commitment());
        passive
            .chkpt_votes
            .entry(sn.0 - 1)
            .or_default()
            .insert(stale_vote.replica, stale_vote.clone());
        passive
            .chkpt_votes
            .entry(sn.0)
            .or_default()
            .insert(stale_vote.replica, stale_vote);
        passive.pending_snapshots.insert(sn.0, image);

        let proof = proof(&cluster, sn, Digest::of(b"the agreed state"));
        lazy_checkpoint(&mut cluster, proof);
        assert_eq!(counter(&cluster, "lazy_checkpoint_state_mismatch"), 1);
        assert_eq!(counter(&cluster, "lazy_checkpoints"), 0);
        assert_eq!(counter(&cluster, "state_transfers_started"), 1);
        let passive = cluster.replica(2);
        assert_eq!(passive.executed_upto(), SeqNum(0));
        assert!(passive.executed_history().is_empty());
        assert_eq!(passive.last_checkpoint(), SeqNum(0));
        assert!(passive.checkpoint_proof.is_empty() && passive.latest_snapshot.is_none());
        assert_eq!(
            passive.pending_transfer.as_ref().map(|p| p.target),
            Some(sn)
        );
        assert_nothing_at_or_below(&cluster, 2, sn);
        assert!(passive.pending_snapshots.is_empty());
    }

    #[test]
    fn a_passive_past_the_proof_advances_without_sealing() {
        let (mut cluster, sn) = quiescent_cluster();
        let behind = SeqNum(sn.0 - 2);
        let proof = proof(&cluster, behind, Digest::of(b"not compared"));
        lazy_checkpoint(&mut cluster, proof);
        assert_eq!(counter(&cluster, "lazy_checkpoints"), 1);
        assert_eq!(counter(&cluster, "lazy_checkpoint_state_mismatch"), 0);
        assert_eq!(counter(&cluster, "state_transfers_started"), 0);
        let passive = cluster.replica(2);
        assert_eq!(
            (passive.executed_upto(), passive.last_checkpoint()),
            (sn, behind)
        );
        assert_eq!(passive.checkpoint_proof.len(), 2);
        assert!(passive.latest_snapshot.is_none());
        assert_nothing_at_or_below(&cluster, 2, behind);
        assert!(passive.commit_log.get(sn).is_some());
    }

    /// A NEW-VIEW floored on a proven horizon that a replica stands exactly
    /// at settles like a LAZY-CHECKPOINT: replica 2 (active in view 1) holds
    /// a diverged state and refetches, replica 1 (active in view 2) holds the
    /// agreed one and seals it.
    #[test]
    fn a_new_view_horizon_settles_like_a_lazy_checkpoint() {
        let (mut cluster, sn) = quiescent_cluster();
        let agreed = state_of(&cluster, 0);
        for (r, target, state) in [
            (2, ViewNumber(1), Digest::of(b"not replica 2's state")),
            (1, ViewNumber(2), agreed),
        ] {
            let proof = proof(&cluster, sn, state);
            let replica = cluster.replica_mut(r);
            let sent = with_offline_context(replica.node_of(r), |ctx| {
                replica.enter_view_change(target, ctx);
                let vc = replica.vc.as_mut().expect("active in the target view");
                vc.selection = Some(Selection {
                    horizon: sn,
                    horizon_proof: proof,
                    ..Selection::default()
                });
                replica.install_new_view(target, Vec::new(), ctx);
                ctx.pending_sends()
                    .iter()
                    .filter(|out| matches!(out.msg, XPaxosMsg::StateChunkRequest(_)))
                    .count()
            });
            if state == agreed {
                assert_eq!(replica.last_checkpoint(), sn);
                assert_eq!(replica.executed_upto(), sn);
                assert_eq!(replica.latest_snapshot.as_ref().map(|s| s.sn()), Some(sn));
                assert_eq!(sent, 0);
            } else {
                assert_eq!(replica.last_checkpoint(), SeqNum(0));
                assert_eq!(replica.executed_upto(), SeqNum(0));
                assert_eq!(
                    replica.pending_transfer.as_ref().map(|p| p.target),
                    Some(sn)
                );
                assert_eq!(sent, 1, "the refetch asks one peer for chunk 0");
            }
            assert_nothing_at_or_below(&cluster, r, sn);
        }
    }

    /// Replica 0 copies its own CHKPT vote under replica 1's id to forge a
    /// t + 1 proof of a checkpoint nobody reached. The passive replica must
    /// reject the proof rather than start fetching that state.
    #[test]
    fn a_copied_chkpt_vote_starts_no_state_transfer_at_a_passive() {
        let mut cluster = ClusterBuilder::new(1, 1)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(1)))
            .with_workload(ClientWorkload {
                requests: Some(0),
                ..Default::default()
            })
            .build();
        let (sn, view, state) = (SeqNum(128), ViewNumber(0), Digest::of(b"never reached"));
        let signer = Signer::new(&cluster.registry, replica_key(0));
        let vote = CheckpointMsg {
            sn,
            view,
            state_digest: state,
            replica: 0,
            signed: true,
            signature: signer.sign_digest(&checkpoint_vote_digest(view, sn, &state)),
        };
        let copy = CheckpointMsg {
            replica: 1,
            ..vote.clone()
        };
        let proof = vec![vote, copy];
        cluster
            .sim
            .post_message(0, 2, XPaxosMsg::LazyCheckpoint { proof });
        cluster.run_for(SimDuration::from_millis(50));
        assert!(cluster.replica(2).pending_transfer.is_none());
        assert_eq!(cluster.sim.metrics().counter("state_transfers_started"), 0);
    }

    /// A t = 1 cluster of 2 clients × 400 requests with a checkpoint every
    /// 32 slots, into which passive replica 2 — while execution is around
    /// sn 50 — sends each active one PRECHK for sn 96 with a garbage digest
    /// under every name in `names`, then runs 20 s.
    fn run_with_forged_prechks(names: &[ReplicaId]) -> XPaxosCluster {
        let mut cluster = ClusterBuilder::new(1, 2)
            .with_workload(ClientWorkload {
                requests: Some(400),
                ..Default::default()
            })
            .with_config(|c| c.with_checkpoint_interval(32))
            .build();
        while cluster.replica(0).executed_upto() < SeqNum(50) {
            cluster.run_for(SimDuration::from_millis(1));
        }
        for &replica in names {
            let prechk = CheckpointMsg {
                sn: SeqNum(96),
                view: ViewNumber(0),
                state_digest: Digest::of(b"garbage"),
                replica,
                signed: false,
                signature: xft_crypto::Signature::forged(replica_key(2)),
            };
            for active in 0..2 {
                let msg = XPaxosMsg::Checkpoint(prechk.clone());
                cluster.sim.post_message(2, active, msg);
            }
        }
        cluster.run_for(SimDuration::from_secs(20));
        cluster
    }

    /// Every slot executed at both actives, in view 0, with no checkpoint
    /// past what they executed.
    fn assert_unharmed(cluster: &XPaxosCluster) {
        assert_eq!(counter(cluster, "view_changes_started"), 0);
        for r in 0..2 {
            let replica = cluster.replica(r);
            assert_eq!(replica.view(), ViewNumber(0), "replica {r}");
            assert_eq!(replica.executed_upto(), SeqNum(800), "replica {r}");
            assert!(replica.last_checkpoint() <= replica.executed_upto());
        }
    }

    #[test]
    fn prechks_a_passive_sends_in_the_actives_names_stabilize_nothing() {
        let cluster = run_with_forged_prechks(&[0, 1]);
        assert_unharmed(&cluster);
    }

    #[test]
    fn a_prechk_from_a_passive_in_its_own_name_raises_no_suspicion() {
        let cluster = run_with_forged_prechks(&[2]);
        assert_unharmed(&cluster);
    }

    /// The sequence number every row of the handler table votes on.
    const SN: SeqNum = SeqNum(8);

    /// A PRECHK for `state` in `name`'s name.
    fn prechk(name: ReplicaId, state: &[u8]) -> CheckpointMsg {
        CheckpointMsg {
            sn: SN,
            view: ViewNumber(0),
            state_digest: Digest::of(state),
            replica: name,
            signed: false,
            signature: xft_crypto::Signature::forged(replica_key(name)),
        }
    }

    /// A CHKPT for `state` in `name`'s name, signed with replica `key`'s key.
    fn chkpt(
        cluster: &XPaxosCluster,
        name: ReplicaId,
        key: ReplicaId,
        state: &[u8],
    ) -> CheckpointMsg {
        let state_digest = Digest::of(state);
        let signer = Signer::new(&cluster.registry, replica_key(key));
        CheckpointMsg {
            signed: true,
            signature: signer.sign_digest(&checkpoint_vote_digest(
                ViewNumber(0),
                SN,
                &state_digest,
            )),
            ..prechk(name, state)
        }
    }

    fn no_votes(_: &mut Replica) {}

    /// Replica 0 has voted PRECHK for state `S`.
    fn own_prechk(r: &mut Replica) {
        r.prechk_votes
            .entry(SN.0)
            .or_default()
            .insert(0, Digest::of(b"S"));
    }

    /// Replica 0 has voted CHKPT for state `S`.
    fn own_chkpt(r: &mut Replica) {
        let state_digest = Digest::of(b"S");
        let vote = CheckpointMsg {
            signed: true,
            signature: r.sign(&checkpoint_vote_digest(ViewNumber(0), SN, &state_digest)),
            ..prechk(0, b"S")
        };
        r.chkpt_votes.entry(SN.0).or_default().insert(0, vote);
    }

    /// What the receiver holds and sent after a row.
    #[derive(Debug, Default, PartialEq)]
    struct Seen {
        prechk: Vec<ReplicaId>,
        chkpt: Vec<ReplicaId>,
        sent: Vec<(ReplicaId, &'static str)>,
        suspects: u64,
        stable: bool,
    }

    /// One row per branch of the CHECKPOINT handlers, at an idle t = 1
    /// cluster (view 0: replicas 0 and 1 active, 2 passive). Each row
    /// delivers its (sender, message) inputs to the receiver after a setup.
    #[test]
    fn checkpoint_handler_table() {
        type Build = fn(&XPaxosCluster) -> Vec<(ReplicaId, CheckpointMsg)>;
        type Row = (&'static str, ReplicaId, fn(&mut Replica), Build, Seen);
        let seen =
            |prechk: &[ReplicaId], chkpt: &[ReplicaId], sent: &[(ReplicaId, &'static str)]| Seen {
                prechk: prechk.to_vec(),
                chkpt: chkpt.to_vec(),
                sent: sent.to_vec(),
                ..Seen::default()
            };
        let rows: Vec<Row> = vec![
            (
                "a passive receiver: PRECHK and CHKPT dropped",
                2,
                no_votes,
                |c| vec![(0, prechk(0, b"S")), (0, chkpt(c, 0, 0, b"S"))],
                Seen::default(),
            ),
            (
                "PRECHK in another replica's name: dropped, the real votes agree",
                0,
                own_prechk,
                |_| vec![(1, prechk(0, b"X")), (1, prechk(1, b"S"))],
                seen(&[0, 1], &[0], &[(1, "CHKPT")]),
            ),
            (
                "PRECHK from a passive, in its own name: dropped",
                0,
                own_prechk,
                |_| vec![(2, prechk(2, b"X"))],
                seen(&[0], &[], &[]),
            ),
            (
                "PRECHK before this replica's own: pending",
                0,
                no_votes,
                |_| vec![(1, prechk(1, b"S"))],
                seen(&[1], &[], &[]),
            ),
            (
                "PRECHK quorum that agrees: CHKPT sent once",
                0,
                own_prechk,
                |_| vec![(1, prechk(1, b"S")), (1, prechk(1, b"S"))],
                seen(&[0, 1], &[0], &[(1, "CHKPT")]),
            ),
            (
                "PRECHK quorum that splits: the view is suspected",
                0,
                own_prechk,
                |_| vec![(1, prechk(1, b"X"))],
                Seen {
                    suspects: 1,
                    ..seen(
                        &[0, 1],
                        &[],
                        &[
                            (1, "SUSPECT"),
                            (2, "SUSPECT"),
                            (0, "VIEW-CHANGE"),
                            (2, "VIEW-CHANGE"),
                        ],
                    )
                },
            ),
            (
                "CHKPT signed with another replica's key: dropped",
                0,
                own_chkpt,
                |c| vec![(1, chkpt(c, 1, 2, b"S"))],
                seen(&[], &[0], &[]),
            ),
            (
                "CHKPT naming a replica out of range: dropped",
                0,
                own_chkpt,
                |c| vec![(1, chkpt(c, 7, 1, b"S"))],
                seen(&[], &[0], &[]),
            ),
            (
                "CHKPT quorum without this replica's own vote: pending",
                0,
                no_votes,
                |c| vec![(1, chkpt(c, 1, 1, b"S")), (2, chkpt(c, 2, 2, b"S"))],
                seen(&[], &[1, 2], &[]),
            ),
            (
                "CHKPT quorum on another state than this replica's: pending",
                0,
                own_chkpt,
                |c| vec![(1, chkpt(c, 1, 1, b"X"))],
                seen(&[], &[0, 1], &[]),
            ),
            (
                "CHKPT quorum with this replica's own vote: stable, LAZYCHK to the passive",
                0,
                own_chkpt,
                |c| vec![(1, chkpt(c, 1, 1, b"S"))],
                Seen {
                    stable: true,
                    ..seen(&[], &[], &[(2, "LAZYCHK")])
                },
            ),
        ];
        for (what, at, setup, build, want) in rows {
            let mut cluster = ClusterBuilder::new(1, 1)
                .with_latency(LatencySpec::Constant(SimDuration::from_millis(1)))
                .with_workload(ClientWorkload {
                    requests: Some(0),
                    ..Default::default()
                })
                .build();
            let inputs = build(&cluster);
            let replica = cluster.replica_mut(at);
            setup(replica);
            let got = with_offline_context(replica.node_of(at), |ctx| {
                for (from, m) in inputs {
                    replica.on_message(replica.node_of(from), XPaxosMsg::Checkpoint(m), ctx);
                }
                Seen {
                    prechk: replica
                        .prechk_votes
                        .get(&SN.0)
                        .map_or_else(Vec::new, Votes::voters),
                    chkpt: replica
                        .chkpt_votes
                        .get(&SN.0)
                        .map_or_else(Vec::new, Votes::voters),
                    sent: ctx
                        .pending_sends()
                        .iter()
                        .map(|o| (replica.replica_of_node(o.to).unwrap(), o.msg.kind()))
                        .collect(),
                    suspects: ctx.counted("suspects_sent"),
                    stable: replica.last_checkpoint() == SN,
                }
            });
            assert_eq!(got, want, "{what}");
        }
    }
}
