//! The decentralized XPaxos view change (paper §4.3, Algorithm 3) and, when fault
//! detection is enabled, the extra VC-CONFIRM round of Algorithm 5.
//!
//! Unlike classical view changes led by the new primary, *every* active replica of the
//! new synchronous group collects VIEW-CHANGE messages from all replicas (waiting at
//! least 2Δ and for at least n − t messages), exchanges the collected sets in VC-FINAL
//! messages, and only then lets the new primary re-propose the selected requests in a
//! NEW-VIEW message.

use super::{Phase, Replica, ViewChangeState, TOKEN_VC_COLLECT, TOKEN_VC_TIMEOUT};
use crate::auth::verify_replica_sig;
use crate::byzantine::ByzantineBehavior;
use crate::log::{proposal_digest, CommitEntry, PrepareEntry};
use crate::messages::{
    new_view_digest, suspect_digest, NewViewMsg, SuspectMsg, VcFinalMsg, ViewChangeMsg, XPaxosMsg,
};
use crate::types::{Batch, SeqNum, ViewNumber};
use std::collections::BTreeMap;
use xft_crypto::{CryptoOp, Digest};
use xft_simnet::{Context, MetricEvent};

impl Replica {
    /// Builds a signed SUSPECT message for `view`.
    pub(crate) fn make_suspect(&self, view: ViewNumber) -> SuspectMsg {
        SuspectMsg {
            view,
            replica: self.id,
            signature: self.sign(&suspect_digest(view, self.id)),
        }
    }

    /// Initiates a view change from the current view (only active replicas may do so).
    pub(crate) fn suspect_view(&mut self, ctx: &mut Context<XPaxosMsg>) {
        if !self.is_active_in(self.view) {
            return;
        }
        let view = self.view;
        ctx.charge(CryptoOp::Sign);
        let suspect = self.make_suspect(view);
        ctx.count("suspects_sent", 1);
        self.telemetry.record_suspect(
            ctx.now().as_nanos(),
            self.id as u64,
            view.0,
            "local suspicion (timeout, bad signature or divergence)",
        );
        for node in self.other_replica_nodes() {
            ctx.send(node, XPaxosMsg::Suspect(suspect.clone()));
        }
        self.enter_view_change(view.next(), ctx);
    }

    /// Handles a SUSPECT message: verify, forward once, and move to the next view.
    pub(crate) fn on_suspect(&mut self, m: SuspectMsg, ctx: &mut Context<XPaxosMsg>) {
        // Only active replicas of the suspected view may initiate its view change.
        if !self.groups.is_active(m.view, m.replica) {
            return;
        }
        ctx.charge(CryptoOp::VerifySig);
        let signed = suspect_digest(m.view, m.replica);
        if !verify_replica_sig(&self.verifier, m.replica, &signed, &m.signature) {
            return;
        }
        if m.view < self.view {
            return; // stale
        }
        // Forward the suspect to everyone the first time we see one for this view.
        if self.forwarded_suspects.insert(m.view.0) {
            for node in self.other_replica_nodes() {
                ctx.send(node, XPaxosMsg::Suspect(m.clone()));
            }
        }
        self.enter_view_change(m.view.next(), ctx);
    }

    /// Moves this replica into the view change installing `target`.
    pub(crate) fn enter_view_change(&mut self, target: ViewNumber, ctx: &mut Context<XPaxosMsg>) {
        // Already installing or installed `target` (or something later): nothing to do.
        if target < self.view || (target == self.view && self.phase == Phase::ViewChange) {
            return;
        }
        if target == self.view && self.phase == Phase::Active {
            return;
        }

        self.view = target;
        self.phase = Phase::ViewChange;
        if let Some(old) = self.vc.take() {
            if let Some(t) = old.collect_timer {
                ctx.cancel_timer(t);
            }
            if let Some(t) = old.timeout_timer {
                ctx.cancel_timer(t);
            }
        }
        if let Some(t) = self.batch_timer.take() {
            ctx.cancel_timer(t);
        }
        self.pending_commits.clear();
        // Proposals in flight in the old view either survive into the new view
        // through the log transfer or are re-proposed after client
        // retransmission; the pipeline restarts empty either way.
        self.proposed_in_flight = 0;
        self.stashed_proposals.clear();
        self.early_commits.clear();
        ctx.count("view_changes_started", 1);

        // Build and send our VIEW-CHANGE message to the active replicas of the target
        // view, applying any configured data-loss fault.
        let mut commit_log = self.commit_log.to_vec();
        let mut prepare_log = if self.config.fault_detection {
            self.prepare_log.to_vec()
        } else {
            Vec::new()
        };
        match self.behavior {
            ByzantineBehavior::DataLossCommitLog { keep } => {
                commit_log.retain(|e| e.sn <= keep);
            }
            ByzantineBehavior::DataLossBothLogs { keep } => {
                commit_log.retain(|e| e.sn <= keep);
                prepare_log.retain(|e| e.sn <= keep);
            }
            _ => {}
        }
        // Claim the checkpoint horizon only when the stored proof actually
        // verifies: a replica whose proof was assembled while it (or a peer)
        // was corrupting signatures would otherwise have its VIEW-CHANGE
        // rejected by every receiver, locking it out of view changes for
        // good. Under-claiming is safe — the horizon is the *maximum* over
        // the merged set, and correct replicas' proofs always verify.
        let (claimed_checkpoint, claimed_proof) = if self.last_checkpoint > SeqNum(0)
            && matches!(
                self.verify_checkpoint_proof(&self.checkpoint_proof, ctx),
                Some((sn, _)) if sn == self.last_checkpoint
            ) {
            (self.last_checkpoint, self.checkpoint_proof.clone())
        } else {
            (SeqNum(0), Vec::new())
        };
        ctx.charge(CryptoOp::Sign);
        let mut vc = ViewChangeMsg {
            new_view: target,
            replica: self.id,
            commit_log,
            prepare_log,
            last_checkpoint: claimed_checkpoint,
            checkpoint_proof: claimed_proof,
            signature: xft_crypto::Signature::forged(self.signer.id()),
        };
        vc.signature = self.sign(&vc.digest());
        self.tel_event(ctx, "vc-send", || {
            format!(
                "target={} chkpt={} commits={}..{} n={} exec={}",
                target.0,
                vc.last_checkpoint.0,
                vc.commit_log.first().map_or(0, |e| e.sn.0),
                vc.commit_log.last().map_or(0, |e| e.sn.0),
                vc.commit_log.len(),
                self.exec_sn.0,
            )
        });

        for replica in self.groups.active_replicas(target).to_vec() {
            ctx.send(self.node_of(replica), XPaxosMsg::ViewChange(vc.clone()));
        }

        if self.is_active_in(target) {
            // Active replicas of the new view collect messages from everyone else.
            let collect_timer = ctx.set_timer(self.config.two_delta(), TOKEN_VC_COLLECT + target.0);
            let timeout_timer = ctx.set_timer(
                self.config.view_change_timeout(),
                TOKEN_VC_TIMEOUT + target.0,
            );
            self.vc = Some(ViewChangeState {
                target,
                vc_msgs: BTreeMap::new(),
                collect_deadline_passed: false,
                vc_final_sent: false,
                vc_finals: BTreeMap::new(),
                vc_confirms: BTreeMap::new(),
                confirm_sent: false,
                merged: None,
                selection_digests: BTreeMap::new(),
                horizon: SeqNum(0),
                horizon_proof: Vec::new(),
                pending_new_view: None,
                collect_timer: Some(collect_timer),
                timeout_timer: Some(timeout_timer),
            });
        } else {
            // Passive replicas have done their part (log transfer): they simply adopt
            // the new view number and keep serving lazy replication.
            self.vc = None;
            self.phase = Phase::Active;
        }
    }

    /// Full validity check for a VIEW-CHANGE message: the sender's signature
    /// plus the checkpoint-horizon proof. A claimed horizon must be backed by
    /// its t + 1-signed CHKPT proof: the selection trusts it to distinguish
    /// "checkpointed history" from "never-committed hole", and an unproven
    /// claim could otherwise bury committed requests. Applied to directly
    /// received messages *and* to messages embedded in VC-FINAL sets.
    fn valid_view_change_msg(&self, m: &ViewChangeMsg, ctx: &mut Context<XPaxosMsg>) -> bool {
        ctx.charge(CryptoOp::VerifySig);
        if !verify_replica_sig(&self.verifier, m.replica, &m.digest(), &m.signature) {
            return false;
        }
        if m.last_checkpoint > SeqNum(0) {
            match self.verify_checkpoint_proof(&m.checkpoint_proof, ctx) {
                Some((sn, _)) if sn == m.last_checkpoint => {}
                _ => return false,
            }
        }
        true
    }

    /// Handles a VIEW-CHANGE message addressed to an active replica of the new view.
    pub(crate) fn on_view_change(&mut self, m: ViewChangeMsg, ctx: &mut Context<XPaxosMsg>) {
        if !self.valid_view_change_msg(&m, ctx) {
            return;
        }
        if m.new_view > self.view {
            // Someone is ahead of us: join that view change.
            self.enter_view_change(m.new_view, ctx);
        }
        let Some(vc) = self.vc.as_mut() else {
            return;
        };
        if vc.target != m.new_view {
            return;
        }
        vc.vc_msgs.insert(m.replica, m);
        self.check_vc_progress(ctx);
    }

    /// The 2Δ collection window elapsed.
    pub(crate) fn on_vc_collect_deadline(
        &mut self,
        target: ViewNumber,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let mut relevant = false;
        if let Some(vc) = self.vc.as_mut() {
            if vc.target == target {
                vc.collect_deadline_passed = true;
                relevant = true;
            }
        }
        if relevant {
            self.check_vc_progress(ctx);
        }
    }

    /// Sends VC-FINAL once the collection condition of Algorithm 3 line 13 holds:
    /// either every replica answered, or the 2Δ window elapsed with at least n − t
    /// answers.
    pub(crate) fn check_vc_progress(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let n = self.config.n();
        let t = self.config.t;
        let (target, set) = {
            let Some(vc) = self.vc.as_mut() else {
                return;
            };
            if vc.vc_final_sent {
                let _ = vc;
                self.maybe_merge(ctx);
                return;
            }
            let enough =
                vc.vc_msgs.len() == n || (vc.collect_deadline_passed && vc.vc_msgs.len() >= n - t);
            if !enough {
                return;
            }
            vc.vc_final_sent = true;
            let set: Vec<ViewChangeMsg> = vc.vc_msgs.values().cloned().collect();
            (vc.target, set)
        };

        ctx.charge(CryptoOp::Sign);
        let digest = vc_set_digest(&set);
        let msg = VcFinalMsg {
            new_view: target,
            replica: self.id,
            vc_set: set,
            signature: self.sign(&digest),
        };
        // Record our own VC-FINAL, then send to the other active replicas.
        if let Some(vc) = self.vc.as_mut() {
            vc.vc_finals.insert(self.id, msg.clone());
        }
        for node in self.other_active_nodes(target) {
            ctx.send(node, XPaxosMsg::VcFinal(msg.clone()));
        }
        self.maybe_merge(ctx);
    }

    /// Handles a VC-FINAL message from another active replica of the new view.
    pub(crate) fn on_vc_final(&mut self, m: VcFinalMsg, ctx: &mut Context<XPaxosMsg>) {
        ctx.charge(CryptoOp::VerifySig);
        let signed = vc_set_digest(&m.vc_set);
        if !verify_replica_sig(&self.verifier, m.replica, &signed, &m.signature) {
            return;
        }
        if m.new_view > self.view {
            self.enter_view_change(m.new_view, ctx);
        }
        {
            let Some(vc) = self.vc.as_mut() else {
                return;
            };
            if vc.target != m.new_view {
                return;
            }
            if !self.groups.is_active(m.new_view, m.replica) {
                return;
            }
            vc.vc_finals.insert(m.replica, m);
        }
        self.maybe_merge(ctx);
    }

    /// Once VC-FINAL messages from all t + 1 active replicas of the new view are in,
    /// merge the sets and either run fault detection (VC-CONFIRM) or select directly.
    pub(crate) fn maybe_merge(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let fd = self.config.fault_detection;
        let (direct, embedded) = {
            let Some(vc) = self.vc.as_mut() else {
                return;
            };
            if vc.merged.is_some() || !vc.vc_final_sent {
                return;
            }
            let active = self.groups.active_replicas(vc.target);
            if !active.iter().all(|r| vc.vc_finals.contains_key(r)) {
                return;
            }
            let direct: Vec<ViewChangeMsg> = vc.vc_msgs.values().cloned().collect();
            let embedded: Vec<ViewChangeMsg> = vc
                .vc_finals
                .values()
                .flat_map(|f| f.vc_set.iter().cloned())
                .collect();
            (direct, embedded)
        };

        // Union of every received set, keyed by the sender of the VIEW-CHANGE
        // message. Directly received messages were fully verified in
        // `on_view_change` and take precedence; messages reaching us only
        // *inside* a peer's VC-FINAL set must pass the same signature and
        // checkpoint-proof verification here — otherwise one faulty active
        // replica could smuggle in a forged log or a fictitious checkpoint
        // horizon under another replica's name.
        let mut merged: BTreeMap<usize, ViewChangeMsg> = BTreeMap::new();
        for m in direct {
            merged.entry(m.replica).or_insert(m);
        }
        for m in embedded {
            if merged.contains_key(&m.replica) {
                continue;
            }
            if self.valid_view_change_msg(&m, ctx) {
                merged.insert(m.replica, m);
            }
        }
        let merged: Vec<ViewChangeMsg> = merged.into_values().collect();
        let Some(vc) = self.vc.as_mut() else {
            return;
        };
        vc.merged = Some(merged.clone());

        if fd {
            self.run_fault_detection_and_confirm(merged, ctx);
        } else {
            self.proceed_with_selection(merged, ctx);
        }
    }

    /// Computes the selection from the merged view-change set and, if this replica is
    /// the new primary, broadcasts NEW-VIEW.
    pub(crate) fn proceed_with_selection(
        &mut self,
        merged: Vec<ViewChangeMsg>,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let fd = self.config.fault_detection;
        let target = match self.vc.as_ref() {
            Some(vc) => vc.target,
            None => return,
        };

        // The checkpoint horizon of the merged set: the highest *proven*
        // stable checkpoint any contributor reached. Everything at or below
        // it is checkpointed, executed history — garbage-collected from the
        // logs and re-obtainable only through state transfer. Stale log
        // entries below the horizon (a long-isolated replica's leftovers)
        // must not be re-proposed, and the gap between them and the
        // surviving logs must never be mistaken for never-committed holes:
        // that would bury hundreds of committed requests under no-ops (the
        // fork the chaos explorer caught the moment checkpointing was
        // allowed into its schedules).
        let horizon = merged
            .iter()
            .map(|m| m.last_checkpoint)
            .max()
            .unwrap_or(SeqNum(0));
        self.tel_event(ctx, "vc-select", || {
            let who: Vec<String> = merged
                .iter()
                .map(|m| {
                    format!(
                        "r{}:chkpt={},log={}..{}({})",
                        m.replica,
                        m.last_checkpoint.0,
                        m.commit_log.first().map_or(0, |e| e.sn.0),
                        m.commit_log.last().map_or(0, |e| e.sn.0),
                        m.commit_log.len()
                    )
                })
                .collect();
            format!(
                "target={} horizon={} merged=[{}]",
                target.0,
                horizon.0,
                who.join(" ")
            )
        });

        // For each sequence number above the horizon keep the batch with the
        // highest view number found in any commit log (and, with FD, any
        // prepare log).
        let mut selected: BTreeMap<u64, (ViewNumber, Batch)> = BTreeMap::new();
        for m in &merged {
            for entry in m.commit_log.iter().filter(|e| e.sn > horizon) {
                let slot = selected
                    .entry(entry.sn.0)
                    .or_insert((entry.view, entry.batch.clone()));
                if entry.view > slot.0 {
                    *slot = (entry.view, entry.batch.clone());
                }
            }
            if fd {
                for entry in m.prepare_log.iter().filter(|e| e.sn > horizon) {
                    let slot = selected
                        .entry(entry.sn.0)
                        .or_insert((entry.view, entry.batch.clone()));
                    if entry.view > slot.0 {
                        *slot = (entry.view, entry.batch.clone());
                    }
                }
            }
        }
        let selection_digests: BTreeMap<u64, Digest> = selected
            .iter()
            .map(|(sn, (_, batch))| (*sn, batch.digest()))
            .collect();
        // Remember the horizon together with its proof (every merged claim
        // was proof-verified on receipt, so the max claim's proof is the one
        // backing `horizon`): installation needs it to seal or fetch the
        // checkpointed prefix it floors the new view on.
        let horizon_proof = merged
            .iter()
            .find(|m| m.last_checkpoint == horizon)
            .map(|m| m.checkpoint_proof.clone())
            .unwrap_or_default();
        if let Some(vc) = self.vc.as_mut() {
            vc.selection_digests = selection_digests;
            vc.horizon = horizon;
            vc.horizon_proof = horizon_proof;
        }

        if self.groups.is_primary(target, self.id) {
            // Re-propose every selected request in the new view.
            let mut prepare_log = Vec::with_capacity(selected.len());
            for (sn, (_, batch)) in &selected {
                ctx.charge(CryptoOp::Sign);
                let sn = SeqNum(*sn);
                let signed = proposal_digest(self.config.t, &batch.digest(), sn, target);
                prepare_log.push(PrepareEntry {
                    view: target,
                    sn,
                    batch: batch.clone(),
                    client_sigs: Vec::new(),
                    primary_sig: self.sign(&signed),
                });
            }
            ctx.charge(CryptoOp::Sign);
            let nv = NewViewMsg {
                new_view: target,
                prepare_log: prepare_log.clone(),
                signature: self.sign(&new_view_digest(target)),
            };
            for node in self.other_active_nodes(target) {
                ctx.send(node, XPaxosMsg::NewView(nv.clone()));
            }
            self.install_new_view(target, prepare_log, ctx);
        } else if let Some(nv) = self.vc.as_mut().and_then(|vc| vc.pending_new_view.take()) {
            // A NEW-VIEW beat our VC-FINAL merge; validate it now that the
            // selection exists.
            self.on_new_view(nv, ctx);
        }
    }

    /// Handles the new primary's NEW-VIEW message. The message names no
    /// sender: it counts only when signed by the primary of the view it
    /// installs.
    pub(crate) fn on_new_view(&mut self, m: NewViewMsg, ctx: &mut Context<XPaxosMsg>) {
        ctx.charge(CryptoOp::VerifySig);
        let primary = self.groups.primary(m.new_view);
        if !verify_replica_sig(
            &self.verifier,
            primary,
            &new_view_digest(m.new_view),
            &m.signature,
        ) {
            return;
        }
        if m.new_view > self.view {
            self.enter_view_change(m.new_view, ctx);
        }
        if !self.is_active_in(m.new_view) {
            return;
        }
        let selection = {
            let Some(vc) = self.vc.as_mut() else { return };
            if vc.target != m.new_view {
                return;
            }
            if vc.merged.is_none() {
                // The primary's NEW-VIEW overtook the VC-FINAL exchange: we
                // have no selection to validate it against yet. Hold it —
                // `proceed_with_selection` replays it once the merge lands.
                vc.pending_new_view = Some(m);
                return;
            }
            vc.selection_digests.clone()
        };
        // Verify the proposal against our own selection where we have one: the new
        // primary must not omit or alter requests we know were committed. One
        // tolerated omission: entries below the proposal's own checkpoint
        // horizon (its lowest re-proposed sequence number) — the primary may
        // know of a newer stable checkpoint than we do, and everything below
        // a real checkpoint is preserved by it, not by re-proposal. A
        // primary *lying* about the horizon buys nothing: the missing prefix
        // must then come from a state transfer whose proof it cannot forge,
        // so the view stalls (execution never skips ahead) and is suspected
        // rather than forked. An *empty* proposal tolerates nothing
        // (floor 0): otherwise a faulty primary could omit everything we
        // know committed without even naming a horizon.
        let proposal_floor = m.prepare_log.iter().map(|e| e.sn.0).min().unwrap_or(0);
        if !selection.is_empty() {
            for (sn, digest) in &selection {
                match m.prepare_log.iter().find(|e| e.sn.0 == *sn) {
                    Some(entry) if entry.batch.digest() == *digest => {}
                    None if *sn < proposal_floor => {}
                    _ => {
                        // The new primary is faulty: suspect the new view.
                        self.suspect_view(ctx);
                        return;
                    }
                }
            }
        }
        self.install_new_view(m.new_view, m.prepare_log, ctx);
    }

    /// Installs the new view: adopt the re-proposed entries, exchange commit proofs,
    /// execute what became committed and resume normal operation.
    pub(crate) fn install_new_view(
        &mut self,
        target: ViewNumber,
        entries: Vec<PrepareEntry>,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let present: std::collections::BTreeSet<u64> = entries.iter().map(|e| e.sn.0).collect();
        let highest = present.iter().next_back().copied().unwrap_or(0);
        let lowest = present.iter().next().copied().unwrap_or(0);
        // With checkpointing off the replica holds its full log, so divergent
        // speculative execution can be repaired by replaying the adopted log
        // from the start (see below). With checkpoints, the sealed snapshot
        // takes the log prefix's place as the replay base.
        let full_log = self.last_checkpoint == SeqNum(0);
        // The merge horizon: the selection excluded everything at or below
        // it as checkpointed history, so the new view *assumes* that prefix
        // — it is preserved by the proven checkpoint, never by re-proposal.
        let (horizon, horizon_proof) = match self.vc.as_ref() {
            Some(vc) if vc.target == target => (vc.horizon, vc.horizon_proof.clone()),
            _ => (SeqNum(0), Vec::new()),
        };

        // The checkpointed prefix the adopted log sits on: the merge horizon,
        // or further still when the selection's own entries start later
        // (`lowest > 1` means the cluster checkpointed at `lowest - 1` and
        // garbage-collected everything below). A replica that has not
        // executed that far cannot replay its way there and must fetch the
        // sealed snapshot through state transfer. Until it arrives, execution
        // stalls at `exec_sn` — the replica never pretends to hold state it
        // has not verified (the seed's `exec_sn = lowest - 1` skip). Floor
        // the horizon in even when the selection is *empty*: resuming
        // sequencing below a proven checkpoint re-proposes slots that were
        // committed, client-acked and sealed — the fork the chaos explorer
        // caught when one active sealed a checkpoint moments before the view
        // fell and took the only surviving log copy down with it.
        let checkpointed_prefix = horizon.0.max(lowest.saturating_sub(1));
        let transfer_target = if SeqNum(checkpointed_prefix) > self.exec_sn {
            Some(SeqNum(checkpointed_prefix))
        } else {
            None
        };

        for entry in entries {
            let replace = match self.commit_log.get(entry.sn) {
                Some(existing) => existing.view < target,
                None => true,
            };
            if replace {
                self.log_commit(CommitEntry {
                    view: target,
                    sn: entry.sn,
                    batch: entry.batch.clone(),
                    primary_sig: entry.primary_sig,
                    commit_sigs: BTreeMap::new(),
                });
            }
            self.prepare_log.insert(entry);
        }
        // Fill any holes in the adopted sequence with no-op batches so execution can
        // proceed past them (holes can only correspond to never-committed slots). In
        // full-log mode a leftover *uncommitted* entry of an older view at a
        // selected-out slot is replaced by the same no-op every other replica fills
        // there — keeping it would fork the sequence. Slots below a pending state
        // transfer are *not* holes: they are checkpointed history this replica is
        // about to adopt wholesale.
        let first_hole_sn = match transfer_target {
            // `max(1)`: a horizon-only transfer adopts an *empty* log
            // (`lowest` = 0), which leaves nothing to hole-fill.
            Some(_) => lowest.max(1),
            None if full_log => 1,
            None => self.exec_sn.0 + 1,
        };
        for sn in first_hole_sn..=highest {
            if present.contains(&sn) {
                continue;
            }
            let fill = match self.commit_log.get(SeqNum(sn)) {
                Some(existing) => full_log && existing.view < target,
                None => true,
            };
            if fill {
                self.log_commit(CommitEntry {
                    view: target,
                    sn: SeqNum(sn),
                    batch: Batch::default(),
                    primary_sig: xft_crypto::Signature::forged(self.signer.id()),
                    commit_sigs: BTreeMap::new(),
                });
            }
        }

        // A proven horizon above our own stable checkpoint settles the way a
        // lazy checkpoint proof does: standing exactly at the boundary,
        // compare and seal — raising the Lemma-1 replay base past the suffix
        // the selection deliberately excluded — or discard and refetch.
        // (Replicas *behind* the horizon took the state-transfer branch
        // above; replicas *past* it are checked entry-by-entry below.)
        if transfer_target.is_none() && horizon > self.last_checkpoint && self.exec_sn == horizon {
            if let Some((_, digest)) = self
                .verify_checkpoint_proof(&horizon_proof, ctx)
                .filter(|(sn, _)| *sn == horizon)
            {
                self.settle_at_checkpoint(horizon, digest, horizon_proof, ctx);
            }
        }

        // Divergence repair: if what this replica *executed* diverges anywhere from
        // the adopted canonical log — a speculatively executed slot that the new view
        // selected differently or dropped (paper Lemma 1) — rolling the state machine
        // forward would leave orphaned operations in the application state and the
        // client table (the chaos explorer caught exactly that as duplicate write
        // serials). Instead, roll back the way a passive repairs a fork
        // (`repair_forked_suffix`) and replay the adopted log: from the very
        // beginning in full-log mode, or from the last sealed checkpoint
        // snapshot otherwise. Replay suppresses client replies;
        // retransmissions are answered from the rebuilt cache. (With a pending state
        // transfer the snapshot adoption itself replaces everything executed so far,
        // so there is nothing separate to repair.)
        if transfer_target.is_none() {
            let base = self.last_checkpoint;
            let mut rebuild = self.exec_sn.0 > highest.max(base.0);
            if !rebuild {
                rebuild = self.executed_history.iter().any(|(sn, digest)| {
                    *sn > base
                        && self
                            .commit_log
                            .get(*sn)
                            .map(|e| e.batch.digest() != *digest)
                            .unwrap_or(true)
                });
            }
            self.tel_event(ctx, "nv-install", || {
                format!(
                    "target={} lowest={} highest={} base={} exec={} rebuild={}",
                    target.0, lowest, highest, base.0, self.exec_sn.0, rebuild
                )
            });
            if rebuild {
                ctx.count("state_rebuilds", 1);
                self.commit_log.lose_suffix(SeqNum(highest.max(base.0)));
                self.prepare_log.lose_suffix(SeqNum(highest.max(base.0)));
                self.repair_forked_suffix(ctx);
            }
        }

        // Strengthen proofs: send a COMMIT for every adopted entry to the other active
        // replicas (this mirrors "process the prepare logs as in the common case").
        let other_actives = self.other_active_nodes(target);
        let commits: Vec<XPaxosMsg> = self
            .commit_log
            .iter()
            .filter(|e| e.view == target && e.sn.0 <= highest)
            .map(|e| {
                XPaxosMsg::Commit(crate::messages::CommitMsg {
                    view: target,
                    sn: e.sn,
                    batch_digest: e.batch.digest(),
                    replica: self.id,
                    reply_digest: None,
                    signature: self.sign(&CommitEntry::commit_digest(
                        &e.batch.digest(),
                        e.sn,
                        target,
                    )),
                })
            })
            .collect();
        for msg in commits {
            ctx.charge(CryptoOp::Sign);
            for node in &other_actives {
                ctx.send(*node, msg.clone());
            }
        }

        // Sequencing in the new view continues from the end of the adopted log —
        // never below the checkpointed prefix it sits on, even when the adopted
        // log is empty. Any higher slots this replica prepared in previous views
        // were never committed (outside anarchy) and are abandoned: their
        // requests will be re-proposed when the clients retransmit.
        self.next_sn = SeqNum(highest.max(self.exec_sn.0).max(checkpointed_prefix));
        self.pending_commits.retain(|sn, _| *sn <= self.next_sn.0);
        self.view = target;
        self.phase = Phase::Active;
        self.installed_view = target;
        self.persist(|| crate::durable::DurableEvent::View(target));
        self.view_changes_completed += 1;
        if let Some(vc) = self.vc.take() {
            if let Some(t) = vc.collect_timer {
                ctx.cancel_timer(t);
            }
            if let Some(t) = vc.timeout_timer {
                ctx.cancel_timer(t);
            }
        }
        ctx.record(MetricEvent::ViewChange {
            at: ctx.now(),
            new_view: target.0,
        });
        self.telemetry.record_view_change(
            ctx.now().as_nanos(),
            self.id as u64,
            target.0,
            if transfer_target.is_some() {
                "view-change exchange complete (state transfer pending)"
            } else {
                "view-change exchange complete"
            },
        );

        // A checkpointed prefix this replica lacks is fetched now that the
        // view (and with it the preferred transfer sources) is installed.
        if let Some(target_sn) = transfer_target {
            self.begin_state_transfer(target_sn, ctx);
        }

        // Install-time execution never answers clients directly — after a
        // rebuild it would replay the whole history as a reply storm; even a
        // normal install's entries are better served from the rebuilt reply
        // cache when the client retransmits.
        self.replaying = true;
        self.try_execute(ctx);
        self.replaying = false;

        // Client requests buffered during the view change: the new primary
        // proposes them, every other replica hands them over to it.
        if self.is_primary_in(target) {
            self.pump_pipeline(ctx, true);
        } else {
            self.forward_buffered_requests(ctx);
        }
    }

    /// The view change towards `target` did not complete in time: suspect it and move on
    /// (initiation condition (iii) of §4.3.2).
    pub(crate) fn on_vc_timeout(&mut self, target: ViewNumber, ctx: &mut Context<XPaxosMsg>) {
        if self.phase != Phase::ViewChange || self.view != target {
            return;
        }
        ctx.count("view_change_timeouts", 1);
        self.telemetry.record_suspect(
            ctx.now().as_nanos(),
            self.id as u64,
            target.0,
            "view-change collection timed out",
        );
        ctx.charge(CryptoOp::Sign);
        let suspect = self.make_suspect(target);
        for node in self.other_replica_nodes() {
            ctx.send(node, XPaxosMsg::Suspect(suspect.clone()));
        }
        self.enter_view_change(target.next(), ctx);
    }
}

/// Digest of a set of view-change messages (used for VC-FINAL / VC-CONFIRM signatures).
pub(crate) fn vc_set_digest(set: &[ViewChangeMsg]) -> Digest {
    let mut acc = Digest::of(b"vc-set");
    for m in set {
        acc = acc.combine(&m.digest());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::vc_set_digest;
    use crate::client::ClientWorkload;
    use crate::harness::{check_total_order, ClusterBuilder, LatencySpec, XPaxosCluster};
    use crate::log::{CommitEntry, PrepareEntry};
    use crate::messages::{
        new_view_digest, suspect_digest, NewViewMsg, SuspectMsg, VcConfirmMsg, VcFinalMsg,
        ViewChangeMsg, XPaxosMsg,
    };
    use crate::replica::{Phase, Replica};
    use crate::types::{replica_key, Batch, ClientId, ReplicaId, Request, SeqNum, ViewNumber};
    use bytes::Bytes;
    use xft_crypto::{Digest, Signature, Signer};
    use xft_simnet::{with_offline_context, Context, FaultEvent, SimDuration, SimTime};

    fn idle_cluster(fault_detection: bool) -> XPaxosCluster {
        ClusterBuilder::new(1, 1)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(1)))
            .with_workload(ClientWorkload {
                requests: Some(0),
                ..Default::default()
            })
            .with_config(|c| c.with_fault_detection(fault_detection))
            .build()
    }

    fn signer(cluster: &XPaxosCluster, r: ReplicaId) -> Signer {
        Signer::new(&cluster.registry, replica_key(r))
    }

    /// Runs one handler call on replica 2 outside the simulator's queue.
    fn at_replica_2(
        cluster: &mut XPaxosCluster,
        f: impl FnOnce(&mut Replica, &mut Context<XPaxosMsg>),
    ) {
        let replica = cluster.replica_mut(2);
        with_offline_context(replica.node_of(2), |ctx| f(replica, ctx));
    }

    /// Takes replica 2, an active of view 1 (= {0, 2}, primary 0), through
    /// the VIEW-CHANGE collection of an idle cluster: it holds every
    /// replica's empty VIEW-CHANGE and sent its VC-FINAL, so its merge waits
    /// only for replica 0's VC-FINAL. Returns that VC-FINAL's set.
    fn collect_view_1_at_replica_2(cluster: &mut XPaxosCluster) -> Vec<ViewChangeMsg> {
        let set: Vec<ViewChangeMsg> = (0..3)
            .map(|r| {
                let mut vc = ViewChangeMsg {
                    new_view: ViewNumber(1),
                    replica: r,
                    commit_log: Vec::new(),
                    prepare_log: Vec::new(),
                    last_checkpoint: SeqNum(0),
                    checkpoint_proof: Vec::new(),
                    signature: Signature::forged(replica_key(r)),
                };
                vc.signature = signer(cluster, r).sign_digest(&vc.digest());
                vc
            })
            .collect();
        let msgs = set.clone();
        at_replica_2(cluster, |replica, ctx| {
            replica.enter_view_change(ViewNumber(1), ctx);
            for vc in msgs {
                replica.on_view_change(vc, ctx);
            }
        });
        let vc = cluster.replica(2).vc.as_ref().expect("collecting view 1");
        assert!(vc.vc_final_sent && vc.merged.is_none());
        set
    }

    /// Replica `signer_id`'s VC-FINAL over `set`, in replica 0's name.
    fn vc_final_from_0(
        cluster: &XPaxosCluster,
        set: &[ViewChangeMsg],
        signer_id: ReplicaId,
    ) -> VcFinalMsg {
        VcFinalMsg {
            new_view: ViewNumber(1),
            replica: 0,
            vc_set: set.to_vec(),
            signature: signer(cluster, signer_id).sign_digest(&vc_set_digest(set)),
        }
    }

    fn merged(cluster: &XPaxosCluster) -> bool {
        cluster
            .replica(2)
            .vc
            .as_ref()
            .is_some_and(|vc| vc.merged.is_some())
    }

    /// Replica 1 (the passive replica of view 1) cannot get a NEW-VIEW
    /// installed at replica 2: it carries an extra batch that no selection
    /// contains, and it is not signed by view 1's primary.
    #[test]
    fn a_new_view_signed_by_the_passive_is_not_installed_and_its_batch_never_runs() {
        let mut cluster = idle_cluster(false);
        let set = collect_view_1_at_replica_2(&mut cluster);
        let vc_final = vc_final_from_0(&cluster, &set, 0);
        at_replica_2(&mut cluster, |replica, ctx| {
            replica.on_vc_final(vc_final, ctx)
        });
        assert!(merged(&cluster));

        let (view, sn) = (ViewNumber(1), SeqNum(1));
        let extra = Batch::single(Request::new(ClientId(0), 1, Bytes::from_static(b"forged")));
        let passive = signer(&cluster, 1);
        let forged = NewViewMsg {
            new_view: view,
            prepare_log: vec![PrepareEntry {
                view,
                sn,
                batch: extra.clone(),
                client_sigs: Vec::new(),
                primary_sig: passive.sign_digest(&CommitEntry::commit_digest(
                    &extra.digest(),
                    sn,
                    view,
                )),
            }],
            signature: passive.sign_digest(&new_view_digest(view)),
        };
        cluster.sim.post_message(1, 2, XPaxosMsg::NewView(forged));
        cluster.run_for(SimDuration::from_millis(200));
        let replica = cluster.replica(2);
        assert_eq!(replica.phase(), Phase::ViewChange);
        assert!(replica.commit_log.get(sn).is_none());
        for r in 0..3 {
            assert!(
                !cluster
                    .replica(r)
                    .executed_history()
                    .iter()
                    .any(|(_, d)| *d == extra.digest()),
                "replica {r} executed the forged batch"
            );
        }

        // The real primary's (empty) NEW-VIEW still installs the view.
        let genuine = NewViewMsg {
            new_view: view,
            prepare_log: Vec::new(),
            signature: signer(&cluster, 0).sign_digest(&new_view_digest(view)),
        };
        cluster.sim.post_message(0, 2, XPaxosMsg::NewView(genuine));
        cluster.run_for(SimDuration::from_millis(10));
        let replica = cluster.replica(2);
        assert_eq!(
            (replica.phase(), replica.installed_view),
            (Phase::Active, view)
        );
    }

    #[test]
    fn a_vc_final_in_an_actives_name_under_another_key_does_not_complete_the_merge() {
        let mut cluster = idle_cluster(false);
        let set = collect_view_1_at_replica_2(&mut cluster);
        let forged = vc_final_from_0(&cluster, &set, 1);
        at_replica_2(&mut cluster, |replica, ctx| {
            replica.on_vc_final(forged, ctx)
        });
        assert!(!merged(&cluster));
        let genuine = vc_final_from_0(&cluster, &set, 0);
        at_replica_2(&mut cluster, |replica, ctx| {
            replica.on_vc_final(genuine, ctx)
        });
        assert!(merged(&cluster));
    }

    #[test]
    fn a_vc_confirm_in_an_actives_name_under_another_key_raises_no_suspicion() {
        let mut cluster = idle_cluster(true);
        let set = collect_view_1_at_replica_2(&mut cluster);
        let vc_final = vc_final_from_0(&cluster, &set, 0);
        at_replica_2(&mut cluster, |replica, ctx| {
            replica.on_vc_final(vc_final, ctx)
        });
        assert!(cluster
            .replica(2)
            .vc
            .as_ref()
            .is_some_and(|vc| vc.confirm_sent));

        let other = Digest::of(b"a different filtered set");
        let confirm_from_0 = |signer_id: ReplicaId| VcConfirmMsg {
            new_view: ViewNumber(1),
            replica: 0,
            vc_set_digest: other,
            signature: signer(&cluster, signer_id).sign_digest(&other),
        };
        let (forged, genuine) = (confirm_from_0(1), confirm_from_0(0));
        at_replica_2(&mut cluster, |replica, ctx| {
            replica.on_vc_confirm(forged, ctx)
        });
        let replica = cluster.replica(2);
        assert_eq!(
            (replica.view(), replica.phase()),
            (ViewNumber(1), Phase::ViewChange)
        );

        // Replica 0 itself disagreeing is a real mismatch: view 1 is suspected.
        at_replica_2(&mut cluster, |replica, ctx| {
            replica.on_vc_confirm(genuine, ctx)
        });
        assert_eq!(cluster.replica(2).view(), ViewNumber(2));
    }

    /// Only the active replicas of a view may suspect it. The passive replica
    /// signing a SUSPECT in the primary's name must not move anyone.
    #[test]
    fn a_suspect_signed_by_a_passive_in_the_primarys_name_starts_no_view_change() {
        let mut cluster = ClusterBuilder::new(1, 1)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(1)))
            .with_workload(ClientWorkload {
                requests: Some(0),
                ..Default::default()
            })
            .build();
        let passive = Signer::new(&cluster.registry, replica_key(2));
        let suspect = SuspectMsg {
            view: ViewNumber(0),
            replica: 0,
            signature: passive.sign_digest(&suspect_digest(ViewNumber(0), 0)),
        };
        cluster.sim.post_message(2, 1, XPaxosMsg::Suspect(suspect));
        cluster.run_for(SimDuration::from_millis(50));
        for r in 0..3 {
            assert_eq!(
                cluster.replica(r).view(),
                ViewNumber(0),
                "replica {r} moved"
            );
        }
        assert_eq!(cluster.sim.metrics().counter("view_changes_started"), 0);
    }

    /// Requests a replica buffers while a view change is in progress must not
    /// outlive the install at a replica that is not the new primary: they are
    /// handed to the new primary (or dropped if already executed), so no
    /// non-primary carries a stale admission queue into the next view — where
    /// it would re-propose already-executed requests whenever it next became
    /// primary.
    #[test]
    fn non_primary_hands_off_requests_buffered_during_a_view_change() {
        let mut cluster = ClusterBuilder::new(1, 20)
            .with_seed(5)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
            .with_workload(ClientWorkload {
                payload_size: 64,
                think_time: SimDuration::ZERO,
                ..Default::default()
            })
            .with_config(|c| {
                c.with_delta(SimDuration::from_millis(100))
                    .with_client_retransmit(SimDuration::from_millis(300))
                    .with_checkpoint_interval(0)
            })
            .build();
        cluster.run_for(SimDuration::from_secs(1));
        // Views 0 and 1 both have replica 0 as primary: its crash takes the
        // survivors to view 2 = {1, 2}, where replica 2 is the follower.
        cluster.sim.inject_fault_at(
            SimTime::ZERO + SimDuration::from_secs(1),
            FaultEvent::Crash(0),
        );
        let mut buffered_during_vc = 0;
        for _ in 0..400 {
            cluster.run_for(SimDuration::from_millis(10));
            let r2 = cluster.replica(2);
            if r2.phase() == Phase::ViewChange {
                buffered_during_vc = buffered_during_vc.max(r2.pending_requests.len());
            }
        }
        assert!(
            buffered_during_vc > 0,
            "replica 2 buffered nothing during the view change; the test exercises nothing"
        );
        let before = cluster.total_committed();
        cluster.run_for(SimDuration::from_secs(2));
        assert!(
            cluster.total_committed() > before,
            "no progress in the new view"
        );
        for r in [1, 2] {
            let replica = cluster.replica(r);
            if replica.phase() != Phase::Active || replica.is_primary_in(replica.view()) {
                continue;
            }
            assert!(
                replica.pending_requests.is_empty() && replica.queued_keys.is_empty(),
                "non-primary replica {r} in view {} still queues {} requests",
                replica.view().0,
                replica.pending_requests.len()
            );
        }
        check_total_order(&[cluster.replica(1), cluster.replica(2)]).expect("total order holds");
    }
}
