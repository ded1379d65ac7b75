//! Checkpointing and lazy replication (paper §4.5, Figures 4 and 5).
//!
//! Active replicas agree on a state digest every `checkpoint_interval` sequence numbers
//! through a MAC-authenticated PRECHK round followed by a signed CHKPT round; the
//! resulting proof lets them garbage-collect their prepare and commit logs and is
//! lazily propagated to the passive replicas. Followers also lazily propagate committed
//! entries to the passive replicas so that a passive replica promoted by a view change
//! has most of the state already ("this fast execution of the view-change subprotocol is
//! a consequence of lazy replication" — §5.4).

use super::{Phase, Replica};
use crate::log::CommitEntry;
use crate::messages::{CheckpointMsg, XPaxosMsg};
use crate::types::{ReplicaId, SeqNum};
use std::collections::BTreeMap;
use xft_crypto::{CryptoOp, Digest};
use xft_simnet::Context;

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
        let image = self.capture_checkpoint();
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

    /// Handles both PRECHK (unsigned) and CHKPT (signed) messages.
    pub(crate) fn on_checkpoint(&mut self, m: CheckpointMsg, ctx: &mut Context<XPaxosMsg>) {
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
            if !self.verifier.is_valid_digest(&expected, &m.signature) {
                return;
            }
            self.chkpt_votes.entry(m.sn.0).or_default().push(m.clone());
            self.check_chkpt_quorum(m.sn, ctx);
        } else {
            ctx.charge(CryptoOp::VerifyMac { len: 64 });
            self.prechk_votes
                .entry(m.sn.0)
                .or_default()
                .insert(m.replica, m.state_digest);
            self.check_prechk_quorum(m.sn, ctx);
        }
    }

    /// Once t + 1 matching PRECHK digests are in, send the signed CHKPT message.
    fn check_prechk_quorum(&mut self, sn: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        let needed = self.config.active_count();
        let Some(votes) = self.prechk_votes.get(&sn.0) else {
            return;
        };
        if votes.len() < needed {
            return;
        }
        // All active replicas must report the same digest; otherwise states diverged
        // and the view must be suspected.
        let mut digests = votes.values();
        let first = *digests.next().expect("non-empty votes");
        if !digests.all(|d| *d == first) {
            self.suspect_view(ctx);
            return;
        }
        // Send our signed CHKPT (once).
        let already_sent = self
            .chkpt_votes
            .get(&sn.0)
            .map(|v| v.iter().any(|m| m.replica == self.id))
            .unwrap_or(false);
        if already_sent {
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
        self.chkpt_votes.entry(sn.0).or_default().push(msg.clone());
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
        let needed = self.config.active_count();
        let (digest, proof): (Digest, Vec<CheckpointMsg>) = {
            let Some(votes) = self.chkpt_votes.get(&sn.0) else {
                return;
            };
            if sn <= self.last_checkpoint {
                return;
            }
            // Group by digest and dedupe by sender: a quorum means t + 1
            // different replicas vouching for the same state, not t + 1
            // messages. The quorum must include *this replica's own* vote:
            // our vote is only cast once we executed to `sn` and captured
            // the snapshot, so requiring it guarantees the truncation below
            // never discards entries we have not executed, and that the
            // agreed digest is ours (no fork can be laundered under a
            // checkpoint this replica never reached).
            let mut by_digest: BTreeMap<Digest, BTreeMap<ReplicaId, CheckpointMsg>> =
                BTreeMap::new();
            for m in votes {
                if m.signed && m.replica < self.config.n() {
                    by_digest
                        .entry(m.state_digest)
                        .or_default()
                        .entry(m.replica)
                        .or_insert_with(|| m.clone());
                }
            }
            let Some((digest, group)) = by_digest
                .into_iter()
                .find(|(_, group)| group.len() >= needed && group.contains_key(&self.id))
            else {
                return;
            };
            (digest, group.into_values().collect())
        };

        self.last_checkpoint = sn;
        self.checkpoint_proof = proof.clone();
        self.prepare_log.truncate_upto(sn);
        self.commit_log.truncate_upto(sn);
        self.pending_commits.retain(|k, _| *k > sn.0);
        self.follower_commits.retain(|k, _| *k > sn.0);
        self.prechk_votes.retain(|k, _| *k > sn.0);
        self.chkpt_votes.retain(|k, _| *k >= sn.0);
        // Garbage-collect executed history and dead cached replies below the
        // new window base — this is what keeps long-lived replicas O(interval)
        // instead of O(history).
        self.truncate_below_checkpoint(sn);
        ctx.count("checkpoints", 1);
        self.telemetry.add("xft_checkpoints_total", 1);
        self.tel_event(ctx, "chkpt", || {
            format!("sn={} view={} stable", sn.0, self.view.0)
        });

        // Seal the snapshot captured at PRECHK time with the quorum proof —
        // this replica can now serve verified state transfer for `sn` — and
        // persist it, re-seeding the WAL with the surviving log tail.
        if let Some(image) = self.pending_snapshots.remove(&sn.0) {
            if image.commitment() == digest {
                self.seal_checkpoint(image, proof.clone());
            }
        }
        self.pending_snapshots.retain(|k, _| *k > sn.0);

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
        // against the agreed digest. A mismatch means a forked suffix
        // survived into the checkpointed prefix — garbage-collecting now
        // would launder the fork below every later divergence check, so roll
        // back and refetch instead of adopting the proof.
        if self.exec_sn == sn {
            let image = self.capture_checkpoint();
            if image.commitment() == digest {
                // Seal our own snapshot with the received proof — this
                // replica becomes a transfer source too (useful when the
                // active replicas of a later view lag).
                self.last_checkpoint = sn;
                self.checkpoint_proof = proof.clone();
                self.prepare_log.truncate_upto(sn);
                self.commit_log.truncate_upto(sn);
                self.truncate_below_checkpoint(sn);
                self.seal_checkpoint(image, proof);
            } else {
                // The t + 1-signed quorum proves this replica's executed
                // prefix forked somewhere at or below `sn` — and its *own
                // log* may hold the forked entries, so a local replay can
                // only reproduce the fork. Discard everything up to the
                // checkpoint and fetch the agreed state instead.
                ctx.count("lazy_checkpoint_state_mismatch", 1);
                self.reset_execution_state();
                self.last_checkpoint = SeqNum(0);
                self.checkpoint_proof.clear();
                self.prepare_log.truncate_upto(sn);
                self.commit_log.truncate_upto(sn);
                self.pending_commits.retain(|k, _| *k > sn.0);
                self.pending_snapshots.clear();
                self.begin_state_transfer(sn, ctx);
                return;
            }
        } else {
            // Executed past the checkpoint already (no state to compare at
            // `sn`): adopt the proof and garbage-collect. Any fork in the
            // prefix was repaired when the conflicting entries arrived
            // (`on_lazy_replicate`).
            self.last_checkpoint = sn;
            self.checkpoint_proof = proof.clone();
            self.prepare_log.truncate_upto(sn);
            self.commit_log.truncate_upto(sn);
            self.truncate_below_checkpoint(sn);
        }
        // Resume execution past the boundary we stopped at.
        self.try_execute(ctx);
        ctx.count("lazy_checkpoints", 1);
    }

    /// Followers lazily propagate the committed entry at `sn` to passive replicas.
    pub(crate) fn lazy_replicate(&mut self, sn: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        if !self.config.lazy_replication || self.phase != Phase::Active {
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
                self.persist(|| crate::durable::DurableEvent::Commit(entry.clone()));
                self.commit_log.insert(entry);
            }
        }
        if forked {
            self.repair_forked_suffix(ctx);
        }
        self.try_execute(ctx);
        ctx.count("lazy_entries", 1);
    }
}
