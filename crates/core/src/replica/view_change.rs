//! The decentralized XPaxos view change (paper §4.3, Algorithm 3) and, when fault
//! detection is enabled, the extra VC-CONFIRM round of Algorithm 5.
//!
//! Unlike classical view changes led by the new primary, *every* active replica of the
//! new synchronous group collects VIEW-CHANGE messages from all replicas (waiting at
//! least 2Δ and for at least n − t messages), exchanges the collected sets in VC-FINAL
//! messages, and only then lets the new primary re-propose the selected requests in a
//! NEW-VIEW message.
//!
//! Each rule is written once:
//!
//! * **Entry and exit.** `Replica::enter_view_change` is the only way into a view
//!   change and a no-op at a view the replica already runs or installed; every handler
//!   that learns of a newer view joins it through there, then finds its view change
//!   with `Replica::vc_for`. `Replica::end_view_change` drops the state and is the
//!   only place its two timers are cancelled.
//! * **Suspicion.** `suspect` signs one SUSPECT, counts it, records the reason, sends
//!   it to the client whose request raised it (if any) and to every other replica,
//!   and enters the next view. `Replica::suspect_view` (a local suspicion) and
//!   `Replica::on_vc_timeout` call it.
//! * **Selection.** `select` is a pure function of the merged VIEW-CHANGE set. Its
//!   `Selection` holds the checkpoint horizon (the highest proven claim), that
//!   claim's proof, and for each slot above the horizon the batch of the highest view
//!   (commit logs, plus prepare logs with fault detection; the first one seen wins a
//!   tie). A NEW-VIEW is held until this replica's selection exists, which with fault
//!   detection is only at the VC-CONFIRM quorum, and is installed only if
//!   `Selection::admits` it.
//! * **Proven checkpoint.** `Replica::proven_checkpoint` verifies a CHKPT proof and
//!   requires it to prove a given sequence number: for the replica's own claim, a
//!   received claim, the NEW-VIEW horizon and a state-transfer manifest.

use super::votes::Votes;
use super::{Phase, Replica, ViewChangeState, TOKEN_VC_COLLECT, TOKEN_VC_TIMEOUT};
use crate::auth::verify_replica_sig;
use crate::byzantine::ByzantineBehavior;
use crate::log::{commit_statement_digest, proposal_digest, CommitEntry, CommitLog, PrepareEntry};
use crate::messages::{
    new_view_digest, suspect_digest, CheckpointMsg, NewViewMsg, SuspectMsg, VcFinalMsg,
    ViewChangeMsg, XPaxosMsg,
};
use crate::types::{Batch, ClientId, SeqNum, ViewNumber};
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

    /// Initiates a view change from the current view (only active replicas
    /// may do so). A `client` whose request raised the suspicion gets the
    /// same signed SUSPECT first (Algorithm 4).
    pub(crate) fn suspect_view(&mut self, client: Option<ClientId>, ctx: &mut Context<XPaxosMsg>) {
        if !self.is_active_in(self.view) {
            return;
        }
        let reason = "local suspicion (timeout, bad signature or divergence)";
        self.suspect(self.view, "suspects_sent", reason, client, ctx);
    }

    /// The whole suspicion of `view`: sign one SUSPECT, count it under
    /// `counter`, record `reason`, send the SUSPECT to `client` (if any) and
    /// every other replica, and move to the next view.
    fn suspect(
        &mut self,
        view: ViewNumber,
        counter: &'static str,
        reason: &str,
        client: Option<ClientId>,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        ctx.charge(CryptoOp::Sign);
        let suspect = self.make_suspect(view);
        ctx.count(counter, 1);
        let (now, id) = (ctx.now().as_nanos(), self.id as u64);
        self.telemetry
            .record_suspect(now, id, ctx.trace(), view.0, reason);
        if let Some(client) = client {
            let node = self.client_node(client);
            ctx.send(node, XPaxosMsg::SuspectToClient(suspect.clone()));
        }
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

    /// Moves this replica into the view change installing `target`; a no-op
    /// when it already runs or installed `target` or a later view. Every
    /// handler that learns of a newer view joins it through here.
    pub(crate) fn enter_view_change(&mut self, target: ViewNumber, ctx: &mut Context<XPaxosMsg>) {
        if target <= self.view {
            return;
        }

        self.view = target;
        self.phase = Phase::ViewChange;
        self.end_view_change(ctx);
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
            && self
                .proven_checkpoint(&self.checkpoint_proof, self.last_checkpoint, ctx)
                .is_some()
        {
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
                vc_msgs: Votes::default(),
                collect_deadline_passed: false,
                vc_finals: Votes::default(),
                vc_confirms: Votes::default(),
                merged: None,
                selection: None,
                pending_new_view: None,
                collect_timer,
                timeout_timer,
            });
        } else {
            // Passive replicas have done their part (log transfer): they simply adopt
            // the new view number and keep serving lazy replication.
            self.phase = Phase::Active;
        }
    }

    /// Ends the view change in progress, if any: drops its state and cancels
    /// its two timers. The only place those timers are cancelled.
    pub(crate) fn end_view_change(&mut self, ctx: &mut Context<XPaxosMsg>) {
        if let Some(vc) = self.vc.take() {
            ctx.cancel_timer(vc.collect_timer);
            ctx.cancel_timer(vc.timeout_timer);
        }
    }

    /// The view change in progress, if it installs `view`.
    pub(crate) fn vc_for(&mut self, view: ViewNumber) -> Option<&mut ViewChangeState> {
        self.vc.as_mut().filter(|vc| vc.target == view)
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
        m.last_checkpoint == SeqNum(0)
            || self
                .proven_checkpoint(&m.checkpoint_proof, m.last_checkpoint, ctx)
                .is_some()
    }

    /// Handles a VIEW-CHANGE message addressed to an active replica of the new view.
    pub(crate) fn on_view_change(&mut self, m: ViewChangeMsg, ctx: &mut Context<XPaxosMsg>) {
        if !self.valid_view_change_msg(&m, ctx) {
            return;
        }
        self.enter_view_change(m.new_view, ctx);
        let Some(vc) = self.vc_for(m.new_view) else {
            return;
        };
        vc.vc_msgs.insert(m.replica, m);
        self.check_vc_progress(ctx);
    }

    /// The 2Δ collection window elapsed.
    pub(crate) fn on_vc_collect_deadline(
        &mut self,
        target: ViewNumber,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let Some(vc) = self.vc_for(target) else {
            return;
        };
        vc.collect_deadline_passed = true;
        self.check_vc_progress(ctx);
    }

    /// Sends VC-FINAL once the collection condition of Algorithm 3 line 13 holds:
    /// either every replica answered, or the 2Δ window elapsed with at least n − t
    /// answers.
    pub(crate) fn check_vc_progress(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let n = self.config.n();
        let t = self.config.t;
        let Some(vc) = self.vc.as_mut() else {
            return;
        };
        if vc.vc_finals.get(self.id).is_some() {
            self.maybe_merge(ctx);
            return;
        }
        let enough =
            vc.vc_msgs.len() == n || (vc.collect_deadline_passed && vc.vc_msgs.len() >= n - t);
        if !enough {
            return;
        }
        let set: Vec<ViewChangeMsg> = vc.vc_msgs.values().cloned().collect();
        let target = vc.target;

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
        self.enter_view_change(m.new_view, ctx);
        // This replica's own VC-FINAL is the one it sends.
        if m.replica == self.id || !self.groups.is_active(m.new_view, m.replica) {
            return;
        }
        let Some(vc) = self.vc_for(m.new_view) else {
            return;
        };
        vc.vc_finals.insert(m.replica, m);
        self.maybe_merge(ctx);
    }

    /// Once VC-FINAL messages from all t + 1 active replicas of the new view are in,
    /// merge the sets and either run fault detection (VC-CONFIRM) or select directly.
    pub(crate) fn maybe_merge(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let (direct, embedded) = {
            let Some(vc) = self.vc.as_mut() else {
                return;
            };
            // Covering the active group includes this replica's own VC-FINAL.
            let active = self.groups.active_replicas(vc.target);
            if vc.merged.is_some() || !vc.vc_finals.covers(active) {
                return;
            }
            let direct = vc.vc_msgs.clone();
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
        let mut merged = direct;
        for m in embedded {
            if merged.get(m.replica).is_none() && self.valid_view_change_msg(&m, ctx) {
                merged.insert(m.replica, m);
            }
        }
        let merged: Vec<ViewChangeMsg> = merged.into_map().into_values().collect();
        if self.config.fault_detection {
            self.run_fault_detection_and_confirm(merged, ctx);
        } else if let Some(vc) = self.vc.as_mut() {
            vc.merged = Some(merged);
            self.proceed_with_selection(ctx);
        }
    }

    /// Computes the selection from the merged view-change set and, if this replica is
    /// the new primary, broadcasts NEW-VIEW.
    pub(crate) fn proceed_with_selection(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let Some(vc) = self.vc.as_ref() else {
            return;
        };
        let target = vc.target;
        let merged = vc.merged.as_deref().unwrap_or_default();
        let selection = select(merged, self.config.fault_detection);
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
                selection.horizon.0,
                who.join(" ")
            )
        });

        // The new primary re-proposes every selected request in the new view.
        let proposal = self.is_primary_in(target).then(|| {
            selection
                .batches
                .iter()
                .map(|(sn, batch)| {
                    ctx.charge(CryptoOp::Sign);
                    let signed = proposal_digest(self.config.t, &batch.digest(), *sn, target);
                    PrepareEntry {
                        view: target,
                        sn: *sn,
                        batch: batch.clone(),
                        client_sigs: Vec::new(),
                        primary_sig: self.sign(&signed),
                    }
                })
                .collect::<Vec<_>>()
        });
        let Some(vc) = self.vc.as_mut() else {
            return;
        };
        vc.selection = Some(selection);

        if let Some(prepare_log) = proposal {
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
        } else if let Some(nv) = vc.pending_new_view.take() {
            // A NEW-VIEW beat our selection; validate it now that the
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
        self.enter_view_change(m.new_view, ctx);
        // Only an active replica of `m.new_view` runs its view change.
        let Some(vc) = self.vc_for(m.new_view) else {
            return;
        };
        let Some(selection) = vc.selection.as_ref() else {
            // The primary's NEW-VIEW overtook the VC-FINAL exchange (or,
            // with fault detection, the VC-CONFIRM round): we have no
            // selection to validate it against yet. Hold it —
            // `proceed_with_selection` replays it once the selection lands.
            vc.pending_new_view = Some(m);
            return;
        };
        if !selection.admits(&m.prepare_log) {
            // The new primary is faulty: suspect the new view.
            self.suspect_view(None, ctx);
            return;
        }
        self.install_new_view(m.new_view, m.prepare_log, ctx);
    }

    /// Installs the new view over the selected `entries`: adopt them, reach
    /// their checkpoint horizon, repair a diverged execution, exchange commit
    /// proofs, execute what became committed and resume normal operation.
    pub(crate) fn install_new_view(
        &mut self,
        target: ViewNumber,
        entries: Vec<PrepareEntry>,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let lowest = entries.iter().map(|e| e.sn.0).min().unwrap_or(0);
        let highest = entries.iter().map(|e| e.sn.0).max().unwrap_or(0);
        let selection = self
            .vc_for(target)
            .and_then(|vc| vc.selection.as_ref())
            .expect("a view installs only over its selection");
        let (horizon, horizon_proof) = (selection.horizon, selection.horizon_proof.clone());

        // Reaching the horizon, part one: the new view *assumes* the prefix
        // the selection excluded as checkpointed (the merge horizon, or
        // `lowest - 1` when the entries start later), even for an empty
        // selection: sequencing below a proven checkpoint would re-propose
        // sealed slots. A replica behind it fetches the snapshot once the
        // view is installed; execution stalls until then.
        let checkpointed_prefix = SeqNum(horizon.0.max(lowest.saturating_sub(1)));
        let transfer_target = (checkpointed_prefix > self.exec_sn).then_some(checkpointed_prefix);

        self.adopt_selected_log(target, entries, lowest, highest, transfer_target.is_some());
        // With a transfer pending, the snapshot adoption replaces everything
        // executed so far: there is nothing to settle or repair.
        if transfer_target.is_none() {
            self.settle_at_horizon(horizon, horizon_proof, ctx);
            self.rebuild_diverged_execution(target, lowest, highest, ctx);
        }

        // Strengthen proofs: send a COMMIT for every adopted entry to the other active
        // replicas (this mirrors "process the prepare logs as in the common case").
        let other_actives = self.other_active_nodes(target);
        for e in self.commit_log.iter() {
            if e.view != target || e.sn.0 > highest {
                continue;
            }
            let (sn, batch_digest) = (e.sn, e.batch.digest());
            ctx.charge(CryptoOp::Sign);
            let signed = commit_statement_digest(&batch_digest, sn, target, None);
            let commit = XPaxosMsg::Commit(crate::messages::CommitMsg {
                view: target,
                sn,
                batch_digest,
                replica: self.id,
                reply_digest: None,
                signature: self.sign(&signed),
            });
            ctx.send_to_all(&other_actives, &commit);
        }

        // Sequencing continues from the end of the adopted log, never below
        // its checkpointed prefix. Higher slots prepared in older views were
        // never committed (outside anarchy): clients retransmit them.
        self.next_sn = SeqNum(highest.max(self.exec_sn.0).max(checkpointed_prefix.0));
        self.pending_commits.retain(|sn, _| *sn <= self.next_sn.0);
        self.view = target;
        self.phase = Phase::Active;
        self.installed_view = target;
        self.persist(|| crate::durable::DurableEvent::View(target));
        self.view_changes_completed += 1;
        self.end_view_change(ctx);
        ctx.record(MetricEvent::ViewChange {
            at: ctx.now(),
            new_view: target.0,
        });
        let reason = match transfer_target {
            Some(_) => "view-change exchange complete (state transfer pending)",
            None => "view-change exchange complete",
        };
        let (now, id) = (ctx.now().as_nanos(), self.id as u64);
        self.telemetry
            .record_view_change(now, id, ctx.trace(), target.0, reason);

        // Reaching the horizon, part three: a checkpointed prefix this replica
        // lacks is fetched now that the view (and with it the preferred
        // transfer sources) is installed.
        if let Some(target_sn) = transfer_target {
            self.begin_state_transfer(target_sn, ctx);
        }

        // Install-time execution answers no client (after a rebuild that
        // would be a reply storm): retransmissions hit the reply cache.
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

    /// Step 1 of installing `target`: adopt the selected `entries` (sequence
    /// numbers `lowest..=highest`) into both logs and fill the holes between
    /// them with no-op batches, so execution can proceed past them (holes can
    /// only be never-committed slots). In full-log mode a leftover
    /// *uncommitted* entry of an older view at a selected-out slot is
    /// replaced by the same no-op every other replica fills there — keeping
    /// it would fork the sequence. Slots below a pending state transfer
    /// (`transferring`) are *not* holes: they are checkpointed history this
    /// replica is about to adopt wholesale.
    fn adopt_selected_log(
        &mut self,
        target: ViewNumber,
        entries: Vec<PrepareEntry>,
        lowest: u64,
        highest: u64,
        transferring: bool,
    ) {
        let present: std::collections::BTreeSet<u64> = entries.iter().map(|e| e.sn.0).collect();
        // With checkpointing off the replica holds its full log, so it can
        // replay the adopted log from the start.
        let full_log = self.last_checkpoint == SeqNum(0);
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
        let first_hole_sn = match transferring {
            // `max(1)`: a horizon-only transfer adopts an *empty* log
            // (`lowest` = 0), which leaves nothing to hole-fill.
            true => lowest.max(1),
            false if full_log => 1,
            false => self.exec_sn.0 + 1,
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
    }

    /// Reaching the horizon, part two, for a replica not behind it: a proven
    /// horizon above its own stable checkpoint settles the way a lazy
    /// checkpoint proof does. Standing exactly at the boundary, compare and
    /// seal — raising the Lemma-1 replay base past the suffix the selection
    /// deliberately excluded — or discard and refetch. (A replica *past* the
    /// horizon is checked entry by entry in step 3.)
    fn settle_at_horizon(
        &mut self,
        horizon: SeqNum,
        proof: Vec<CheckpointMsg>,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        if horizon > self.last_checkpoint && self.exec_sn == horizon {
            if let Some(digest) = self.proven_checkpoint(&proof, horizon, ctx) {
                self.settle_at_checkpoint(horizon, digest, proof, ctx);
            }
        }
    }

    /// Step 3 of installing `target`: if what this replica *executed*
    /// diverges from the adopted log ([`executed_diverges`]; paper Lemma 1),
    /// rolling forward would leave orphaned operations in the state machine
    /// and client table (the chaos explorer caught them as duplicate write
    /// serials). Instead roll back as a passive repairs a fork
    /// (`repair_forked_suffix`) and replay the adopted log, from the start
    /// in full-log mode or else from the last sealed snapshot.
    fn rebuild_diverged_execution(
        &mut self,
        target: ViewNumber,
        lowest: u64,
        highest: u64,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let base = self.last_checkpoint;
        let end = SeqNum(highest).max(base);
        let rebuild = executed_diverges(
            self.exec_sn,
            &self.executed_history,
            &self.commit_log,
            base,
            end,
        );
        self.tel_event(ctx, "nv-install", || {
            format!(
                "target={} lowest={} highest={} base={} exec={} rebuild={}",
                target.0, lowest, highest, base.0, self.exec_sn.0, rebuild
            )
        });
        if rebuild {
            ctx.count("state_rebuilds", 1);
            self.commit_log.lose_suffix(end);
            self.prepare_log.lose_suffix(end);
            self.repair_forked_suffix(ctx);
        }
    }

    /// The view change towards `target` did not complete in time: suspect it and move on
    /// (initiation condition (iii) of §4.3.2).
    pub(crate) fn on_vc_timeout(&mut self, target: ViewNumber, ctx: &mut Context<XPaxosMsg>) {
        if self.phase != Phase::ViewChange || self.view != target {
            return;
        }
        let reason = "view-change collection timed out";
        self.suspect(target, "view_change_timeouts", reason, None, ctx);
    }
}

/// What a view change re-proposes, computed by [`select`] from the merged
/// VIEW-CHANGE set.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Selection {
    /// The checkpoint horizon: the highest *proven* stable checkpoint any
    /// contributor claimed. Everything at or below it is preserved by that
    /// checkpoint, not by re-proposal, so installation floors the new view
    /// on it (see [`Replica::install_new_view`]).
    pub(crate) horizon: SeqNum,
    /// The t + 1-signed CHKPT proof of `horizon`.
    pub(crate) horizon_proof: Vec<CheckpointMsg>,
    /// For each slot above the horizon, the batch of the highest view.
    pub(crate) batches: BTreeMap<SeqNum, Batch>,
}

impl Selection {
    /// Whether a NEW-VIEW proposal keeps every selected batch: the new
    /// primary must not omit or alter requests we know were committed. One
    /// tolerated omission: entries below the proposal's own checkpoint
    /// horizon (its lowest re-proposed sequence number) — the primary may
    /// know of a newer stable checkpoint than we do, and everything below
    /// a real checkpoint is preserved by it, not by re-proposal. A
    /// primary *lying* about the horizon buys nothing: the missing prefix
    /// must then come from a state transfer whose proof it cannot forge,
    /// so the view stalls (execution never skips ahead) and is suspected
    /// rather than forked. An *empty* proposal tolerates nothing
    /// (floor 0): otherwise a faulty primary could omit everything we
    /// know committed without even naming a horizon.
    pub(crate) fn admits(&self, proposal: &[PrepareEntry]) -> bool {
        let floor = proposal.iter().map(|e| e.sn).min().unwrap_or(SeqNum(0));
        self.batches
            .iter()
            .all(|(sn, batch)| match proposal.iter().find(|e| e.sn == *sn) {
                Some(entry) => entry.batch.digest() == batch.digest(),
                None => *sn < floor,
            })
    }
}

/// The selection of Algorithm 3 over a merged VIEW-CHANGE set, in merged
/// order. Every claim in `merged` was proof-verified on receipt, so the
/// highest one is the horizon and the first message making it supplies its
/// proof. Stale log entries at or below the horizon (a long-isolated
/// replica's leftovers) are never re-proposed, and the gap between them and
/// the surviving logs is never mistaken for never-committed holes: that
/// would bury committed requests under no-ops (the fork the chaos explorer
/// caught the moment checkpointing was allowed into its schedules). Above
/// the horizon each slot keeps the batch of the highest view found in any
/// commit log and, with fault detection `fd`, any prepare log; on a tie the
/// first one seen wins.
pub(crate) fn select(merged: &[ViewChangeMsg], fd: bool) -> Selection {
    let horizon = merged
        .iter()
        .map(|m| m.last_checkpoint)
        .max()
        .unwrap_or(SeqNum(0));
    let horizon_proof = merged
        .iter()
        .find(|m| m.last_checkpoint == horizon)
        .map(|m| m.checkpoint_proof.clone())
        .unwrap_or_default();
    let mut highest: BTreeMap<SeqNum, (ViewNumber, &Batch)> = BTreeMap::new();
    for m in merged {
        let prepared = if fd { &m.prepare_log[..] } else { &[] };
        let entries = m
            .commit_log
            .iter()
            .map(|e| (e.sn, e.view, &e.batch))
            .chain(prepared.iter().map(|e| (e.sn, e.view, &e.batch)));
        for (sn, view, batch) in entries.filter(|(sn, ..)| *sn > horizon) {
            let slot = highest.entry(sn).or_insert((view, batch));
            if view > slot.0 {
                *slot = (view, batch);
            }
        }
    }
    Selection {
        horizon,
        horizon_proof,
        batches: highest
            .into_iter()
            .map(|(sn, (_, batch))| (sn, batch.clone()))
            .collect(),
    }
}

/// Whether what a replica executed diverges from the log it adopted: it
/// executed past `end` (the adopted log's end, or the checkpoint `base` when
/// that is higher), or a batch it executed above `base` is missing from
/// `log` or differs from the one there. Entries at or below `base` are
/// preserved by the checkpoint and ignored.
pub(crate) fn executed_diverges(
    exec_sn: SeqNum,
    executed: &[(SeqNum, Digest)],
    log: &CommitLog,
    base: SeqNum,
    end: SeqNum,
) -> bool {
    exec_sn > end
        || executed.iter().any(|(sn, digest)| {
            *sn > base && log.get(*sn).is_none_or(|e| e.batch.digest() != *digest)
        })
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
    use super::{executed_diverges, select, vc_set_digest, Selection};
    use crate::client::ClientWorkload;
    use crate::harness::{check_total_order, ClusterBuilder, LatencySpec, XPaxosCluster};
    use crate::log::{CommitEntry, CommitLog, PrepareEntry};
    use crate::messages::{
        new_view_digest, suspect_digest, CheckpointMsg, NewViewMsg, SuspectMsg, VcConfirmMsg,
        VcFinalMsg, ViewChangeMsg, XPaxosMsg,
    };
    use crate::replica::{Phase, Replica};
    use crate::types::{replica_key, Batch, ClientId, ReplicaId, Request, SeqNum, ViewNumber};
    use bytes::Bytes;
    use xft_crypto::{Digest, Signature, Signer};
    use xft_simnet::{with_offline_context, Actor, Context, FaultEvent, SimDuration, SimTime};

    /// A one-request batch told apart by `tag`.
    fn batch(tag: &'static str) -> Batch {
        Batch::single(Request::new(
            ClientId(0),
            1,
            Bytes::from_static(tag.as_bytes()),
        ))
    }

    /// An unsigned VIEW-CHANGE from `replica` claiming checkpoint `chkpt`,
    /// with commit- and prepare-log entries given as (view, sn, batch tag).
    /// `select` verifies nothing, so a claim's "proof" is one vote naming
    /// its replica: that is what tells two proofs apart.
    fn vc_msg(
        replica: ReplicaId,
        chkpt: u64,
        commits: &[(u64, u64, &'static str)],
        prepares: &[(u64, u64, &'static str)],
    ) -> ViewChangeMsg {
        ViewChangeMsg {
            new_view: ViewNumber(9),
            replica,
            commit_log: commits
                .iter()
                .map(|&(view, sn, tag)| CommitEntry {
                    view: ViewNumber(view),
                    sn: SeqNum(sn),
                    batch: batch(tag),
                    primary_sig: Signature::forged(replica_key(replica)),
                    commit_sigs: Default::default(),
                })
                .collect(),
            prepare_log: prepares
                .iter()
                .map(|&(view, sn, tag)| PrepareEntry {
                    view: ViewNumber(view),
                    sn: SeqNum(sn),
                    batch: batch(tag),
                    client_sigs: Vec::new(),
                    primary_sig: Signature::forged(replica_key(replica)),
                })
                .collect(),
            last_checkpoint: SeqNum(chkpt),
            checkpoint_proof: proof_of(replica, chkpt),
            signature: Signature::forged(replica_key(replica)),
        }
    }

    fn proof_of(replica: ReplicaId, chkpt: u64) -> Vec<CheckpointMsg> {
        if chkpt == 0 {
            return Vec::new();
        }
        vec![CheckpointMsg {
            sn: SeqNum(chkpt),
            view: ViewNumber(0),
            state_digest: Digest::of(b"state"),
            replica,
            signed: true,
            signature: Signature::forged(replica_key(replica)),
        }]
    }

    #[test]
    fn select_table() {
        let selection =
            |horizon: u64, proof_from: ReplicaId, batches: &[(u64, &'static str)]| Selection {
                horizon: SeqNum(horizon),
                horizon_proof: proof_of(proof_from, horizon),
                batches: batches
                    .iter()
                    .map(|&(sn, tag)| (SeqNum(sn), batch(tag)))
                    .collect(),
            };
        let rows: Vec<(&str, Vec<ViewChangeMsg>, bool, Selection)> = vec![
            (
                "the highest view wins",
                vec![
                    vc_msg(0, 0, &[(0, 1, "a")], &[]),
                    vc_msg(1, 0, &[(2, 1, "b")], &[]),
                    vc_msg(2, 0, &[(1, 1, "c")], &[]),
                ],
                false,
                selection(0, 0, &[(1, "b")]),
            ),
            (
                "on a tie the first one seen wins",
                vec![
                    vc_msg(0, 0, &[(1, 1, "a")], &[(1, 2, "p")]),
                    vc_msg(1, 0, &[(1, 1, "b"), (1, 2, "q")], &[]),
                ],
                true,
                selection(0, 0, &[(1, "a"), (2, "p")]),
            ),
            (
                "a commit-log entry is seen before its sender's prepare-log entry",
                vec![vc_msg(0, 0, &[(1, 1, "a")], &[(1, 1, "p")])],
                true,
                selection(0, 0, &[(1, "a")]),
            ),
            (
                "entries at or below the horizon are excluded",
                vec![
                    vc_msg(0, 0, &[(0, 3, "x"), (0, 4, "y"), (0, 5, "z")], &[]),
                    vc_msg(1, 4, &[(0, 5, "z")], &[]),
                ],
                false,
                selection(4, 1, &[(5, "z")]),
            ),
            (
                "prepare-log entries do not count with FD off",
                vec![vc_msg(0, 0, &[(0, 1, "a")], &[(1, 1, "p"), (1, 2, "q")])],
                false,
                selection(0, 0, &[(1, "a")]),
            ),
            (
                "prepare-log entries count with FD on",
                vec![vc_msg(0, 0, &[(0, 1, "a")], &[(1, 1, "p"), (1, 2, "q")])],
                true,
                selection(0, 0, &[(1, "p"), (2, "q")]),
            ),
            (
                "the proof of the highest claim is returned, first claim first",
                vec![
                    vc_msg(0, 2, &[], &[]),
                    vc_msg(1, 6, &[], &[]),
                    vc_msg(2, 6, &[], &[]),
                ],
                false,
                selection(6, 1, &[]),
            ),
            (
                "an empty set gives an empty selection",
                Vec::new(),
                true,
                Selection::default(),
            ),
        ];
        for (name, merged, fd, expected) in rows {
            assert_eq!(select(&merged, fd), expected, "{name}");
        }
    }

    #[test]
    fn executed_diverges_table() {
        type Slots = &'static [(u64, &'static str)];
        let log = |slots: Slots| {
            let mut log = CommitLog::new();
            for &(sn, tag) in slots {
                log.insert(CommitEntry {
                    view: ViewNumber(1),
                    sn: SeqNum(sn),
                    batch: batch(tag),
                    primary_sig: Signature::forged(replica_key(0)),
                    commit_sigs: Default::default(),
                });
            }
            log
        };
        let executed = |slots: Slots| -> Vec<(SeqNum, Digest)> {
            let digests = slots
                .iter()
                .map(|&(sn, tag)| (SeqNum(sn), batch(tag).digest()));
            digests.collect()
        };
        const ABC: Slots = &[(1, "a"), (2, "b"), (3, "c")];
        // (name, exec_sn, executed, adopted log, base, end, diverges)
        let rows: Vec<(&str, u64, Slots, Slots, u64, u64, bool)> = vec![
            ("a clean log", 3, ABC, ABC, 0, 3, false),
            (
                "a suffix past the adopted log",
                4,
                &[(1, "a"), (2, "b"), (3, "c"), (4, "d")],
                ABC,
                0,
                3,
                true,
            ),
            (
                "a mismatched digest",
                3,
                &[(1, "a"), (2, "x"), (3, "c")],
                ABC,
                0,
                3,
                true,
            ),
            ("a missing entry", 3, ABC, &[(1, "a"), (3, "c")], 0, 3, true),
            (
                "entries at or below the base are ignored",
                3,
                &[(1, "x"), (2, "y"), (3, "c")],
                &[(3, "c")],
                2,
                3,
                false,
            ),
        ];
        for (name, exec_sn, done, adopted, base, end, diverges) in rows {
            let got = executed_diverges(
                SeqNum(exec_sn),
                &executed(done),
                &log(adopted),
                SeqNum(base),
                SeqNum(end),
            );
            assert_eq!(got, diverges, "{name}");
        }
    }

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

    /// Replica `signer_id`'s VIEW-CHANGE for `view` in replica `r`'s name,
    /// with `commit_log` and an unproven claim of checkpoint `chkpt`.
    fn signed_vc(
        cluster: &XPaxosCluster,
        r: ReplicaId,
        signer_id: ReplicaId,
        view: u64,
        commit_log: Vec<CommitEntry>,
        chkpt: u64,
    ) -> ViewChangeMsg {
        let mut vc = ViewChangeMsg {
            new_view: ViewNumber(view),
            replica: r,
            commit_log,
            prepare_log: Vec::new(),
            last_checkpoint: SeqNum(chkpt),
            checkpoint_proof: Vec::new(),
            signature: Signature::forged(replica_key(r)),
        };
        vc.signature = signer(cluster, signer_id).sign_digest(&vc.digest());
        vc
    }

    /// A view-0 commit of `batch` at sn 1.
    fn committed_at_1(batch: &Batch) -> CommitEntry {
        CommitEntry {
            view: ViewNumber(0),
            sn: SeqNum(1),
            batch: batch.clone(),
            primary_sig: Signature::forged(replica_key(0)),
            commit_sigs: Default::default(),
        }
    }

    /// Takes replica 2, an active of view 1 (= {0, 2}, primary 0), through
    /// the VIEW-CHANGE collection of an idle cluster: it holds every
    /// replica's VIEW-CHANGE and sent its VC-FINAL, so its merge waits only
    /// for replica 0's VC-FINAL. The logs are empty, except that replicas 0
    /// and 1 (view 0's actives) report `sn_1` committed at sn 1 in view 0
    /// when given. Returns that VC-FINAL's set.
    fn collect_view_1_at_replica_2(
        cluster: &mut XPaxosCluster,
        sn_1: Option<&Batch>,
    ) -> Vec<ViewChangeMsg> {
        let set: Vec<ViewChangeMsg> = (0..3)
            .map(|r| {
                let log = sn_1.filter(|_| r < 2).map(committed_at_1);
                signed_vc(cluster, r, r, 1, log.into_iter().collect(), 0)
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
        assert!(vc.vc_finals.get(2).is_some() && vc.merged.is_none());
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
        let set = collect_view_1_at_replica_2(&mut cluster, None);
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
        let set = collect_view_1_at_replica_2(&mut cluster, None);
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
        let set = collect_view_1_at_replica_2(&mut cluster, None);
        let vc_final = vc_final_from_0(&cluster, &set, 0);
        at_replica_2(&mut cluster, |replica, ctx| {
            replica.on_vc_final(vc_final, ctx)
        });
        assert!(cluster
            .replica(2)
            .vc
            .as_ref()
            .is_some_and(|vc| vc.vc_confirms.get(2).is_some()));

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

    /// Where replica 2 stands when a handler row starts.
    #[derive(Clone, Copy)]
    enum At {
        /// View 0, active (a fresh cluster).
        Fresh,
        /// Collecting VIEW-CHANGE messages for the view, nothing received.
        Collecting(u64),
        /// View 1's merge is done and its selection holds the batch
        /// replicas 0 and 1 committed at sn 1 in view 0.
        Merged,
        /// View 1 installed over that selection.
        Installed,
    }

    enum Input {
        Msg(Box<XPaxosMsg>),
        Enter(u64),
    }

    impl Input {
        fn msg(m: XPaxosMsg) -> Self {
            Input::Msg(Box::new(m))
        }
    }

    /// What a handler row leaves at replica 2.
    #[derive(Debug, PartialEq)]
    struct Seen {
        view: u64,
        phase: Phase,
        /// View changes the handler started (a join counts one).
        started: u64,
        /// VIEW-CHANGE, VC-FINAL and VC-CONFIRM messages the view change holds.
        recorded: usize,
        /// Whether a NEW-VIEW waits for the selection.
        held: bool,
    }

    /// Replica `signer_id`'s VC-FINAL for `view` over an empty set, in `r`'s name.
    fn vc_final(c: &XPaxosCluster, r: ReplicaId, signer_id: ReplicaId, view: u64) -> Input {
        Input::msg(XPaxosMsg::VcFinal(VcFinalMsg {
            new_view: ViewNumber(view),
            replica: r,
            vc_set: Vec::new(),
            signature: signer(c, signer_id).sign_digest(&vc_set_digest(&[])),
        }))
    }

    fn vc_confirm(c: &XPaxosCluster, r: ReplicaId, signer_id: ReplicaId, view: u64) -> Input {
        let digest = Digest::of(b"a filtered set");
        Input::msg(XPaxosMsg::VcConfirm(VcConfirmMsg {
            new_view: ViewNumber(view),
            replica: r,
            vc_set_digest: digest,
            signature: signer(c, signer_id).sign_digest(&digest),
        }))
    }

    /// A NEW-VIEW for `view` signed by `signer_id`, proposing the batch
    /// tagged `sn_1` at sn 1, or nothing.
    fn new_view(
        c: &XPaxosCluster,
        signer_id: ReplicaId,
        view: u64,
        sn_1: Option<&'static str>,
    ) -> Input {
        let view = ViewNumber(view);
        let prepare_log = sn_1
            .map(|tag| PrepareEntry {
                view,
                sn: SeqNum(1),
                batch: batch(tag),
                client_sigs: Vec::new(),
                primary_sig: Signature::forged(replica_key(signer_id)),
            })
            .into_iter()
            .collect();
        Input::msg(XPaxosMsg::NewView(NewViewMsg {
            new_view: view,
            prepare_log,
            signature: signer(c, signer_id).sign_digest(&new_view_digest(view)),
        }))
    }

    fn view_change(c: &XPaxosCluster, r: ReplicaId, signer_id: ReplicaId, view: u64) -> Input {
        Input::msg(XPaxosMsg::ViewChange(signed_vc(
            c,
            r,
            signer_id,
            view,
            Vec::new(),
            0,
        )))
    }

    fn start_at(cluster: &mut XPaxosCluster, at: At) {
        match at {
            At::Fresh => {}
            At::Collecting(view) => at_replica_2(cluster, |replica, ctx| {
                replica.enter_view_change(ViewNumber(view), ctx)
            }),
            At::Merged | At::Installed => {
                let set = collect_view_1_at_replica_2(cluster, Some(&batch("committed")));
                let vc_final = vc_final_from_0(cluster, &set, 0);
                at_replica_2(cluster, |replica, ctx| replica.on_vc_final(vc_final, ctx));
                assert!(merged(cluster));
                if let At::Installed = at {
                    let Input::Msg(nv) = new_view(cluster, 0, 1, Some("committed")) else {
                        unreachable!()
                    };
                    at_replica_2(cluster, |replica, ctx| replica.on_message(0, *nv, ctx));
                    assert_eq!(cluster.replica(2).installed_view, ViewNumber(1));
                }
            }
        }
    }

    /// One row per join or drop branch of the four view-change handlers at
    /// replica 2 (t = 1: view 1 = {0, 2} and view 3 = {0, 1} led by 0,
    /// view 2 = {1, 2} led by 1), plus `enter_view_change` at a view it
    /// already runs or installed.
    #[test]
    fn view_change_handler_table() {
        type Build = fn(&XPaxosCluster) -> Input;
        let seen = |view, phase, started, recorded, held| Seen {
            view,
            phase,
            started,
            recorded,
            held,
        };
        let vc = Phase::ViewChange;
        let active = Phase::Active;
        let rows: Vec<(&str, At, Build, Seen)> = vec![
            (
                "VIEW-CHANGE under another key: dropped",
                At::Collecting(1),
                |c| view_change(c, 1, 0, 1),
                seen(1, vc, 0, 0, false),
            ),
            (
                "VIEW-CHANGE claiming an unproven checkpoint: dropped",
                At::Collecting(1),
                |c| Input::msg(XPaxosMsg::ViewChange(signed_vc(c, 1, 1, 1, Vec::new(), 8))),
                seen(1, vc, 0, 0, false),
            ),
            (
                "VIEW-CHANGE for the view being collected: recorded",
                At::Collecting(1),
                |c| view_change(c, 1, 1, 1),
                seen(1, vc, 0, 1, false),
            ),
            (
                "VIEW-CHANGE for a newer view: joined and recorded",
                At::Fresh,
                |c| view_change(c, 1, 1, 1),
                seen(1, vc, 1, 1, false),
            ),
            (
                "VIEW-CHANGE for an older view: dropped",
                At::Collecting(2),
                |c| view_change(c, 1, 1, 1),
                seen(2, vc, 0, 0, false),
            ),
            (
                "VIEW-CHANGE for a view this replica is passive in: joined, not recorded",
                At::Fresh,
                |c| view_change(c, 1, 1, 3),
                seen(3, active, 1, 0, false),
            ),
            (
                "VIEW-CHANGE for the installed view: dropped",
                At::Installed,
                |c| view_change(c, 1, 1, 1),
                seen(1, active, 0, 0, false),
            ),
            (
                "VC-FINAL under another key: dropped",
                At::Collecting(1),
                |c| vc_final(c, 0, 1, 1),
                seen(1, vc, 0, 0, false),
            ),
            (
                "VC-FINAL from the view's passive: dropped",
                At::Collecting(1),
                |c| vc_final(c, 1, 1, 1),
                seen(1, vc, 0, 0, false),
            ),
            (
                "VC-FINAL for the view being collected: recorded",
                At::Collecting(1),
                |c| vc_final(c, 0, 0, 1),
                seen(1, vc, 0, 1, false),
            ),
            (
                "VC-FINAL for a newer view: joined and recorded",
                At::Collecting(1),
                |c| vc_final(c, 1, 1, 2),
                seen(2, vc, 1, 1, false),
            ),
            (
                "VC-FINAL for an older view: dropped",
                At::Collecting(2),
                |c| vc_final(c, 0, 0, 1),
                seen(2, vc, 0, 0, false),
            ),
            (
                "VC-FINAL for a view this replica is passive in: joined, not recorded",
                At::Fresh,
                |c| vc_final(c, 0, 0, 3),
                seen(3, active, 1, 0, false),
            ),
            (
                "VC-CONFIRM under another key: dropped",
                At::Collecting(1),
                |c| vc_confirm(c, 0, 1, 1),
                seen(1, vc, 0, 0, false),
            ),
            (
                "VC-CONFIRM from the view's passive: dropped",
                At::Collecting(1),
                |c| vc_confirm(c, 1, 1, 1),
                seen(1, vc, 0, 0, false),
            ),
            (
                "VC-CONFIRM for the view being collected: recorded",
                At::Collecting(1),
                |c| vc_confirm(c, 0, 0, 1),
                seen(1, vc, 0, 1, false),
            ),
            (
                "VC-CONFIRM for a newer view: neither joined nor recorded",
                At::Collecting(1),
                |c| vc_confirm(c, 1, 1, 2),
                seen(1, vc, 0, 0, false),
            ),
            (
                "NEW-VIEW not signed by the view's primary: dropped",
                At::Collecting(1),
                |c| new_view(c, 1, 1, Some("committed")),
                seen(1, vc, 0, 0, false),
            ),
            (
                "NEW-VIEW before the merge: held",
                At::Collecting(1),
                |c| new_view(c, 0, 1, Some("committed")),
                seen(1, vc, 0, 0, true),
            ),
            (
                "NEW-VIEW for a newer view: joined and held",
                At::Fresh,
                |c| new_view(c, 0, 1, Some("committed")),
                seen(1, vc, 1, 0, true),
            ),
            (
                "NEW-VIEW for a view this replica is passive in: joined, dropped",
                At::Fresh,
                |c| new_view(c, 0, 3, Some("committed")),
                seen(3, active, 1, 0, false),
            ),
            (
                "NEW-VIEW for an older view: dropped",
                At::Collecting(2),
                |c| new_view(c, 0, 1, Some("committed")),
                seen(2, vc, 0, 0, false),
            ),
            (
                "NEW-VIEW omitting a selected batch: the view is suspected",
                At::Merged,
                |c| new_view(c, 0, 1, None),
                seen(2, vc, 1, 0, false),
            ),
            (
                "NEW-VIEW altering a selected batch: the view is suspected",
                At::Merged,
                |c| new_view(c, 0, 1, Some("altered")),
                seen(2, vc, 1, 0, false),
            ),
            (
                "NEW-VIEW keeping the selection: installed",
                At::Merged,
                |c| new_view(c, 0, 1, Some("committed")),
                seen(1, active, 0, 0, false),
            ),
            (
                "enter_view_change at the active view: no-op",
                At::Fresh,
                |_| Input::Enter(0),
                seen(0, active, 0, 0, false),
            ),
            (
                "enter_view_change at an installed view: no-op",
                At::Installed,
                |_| Input::Enter(1),
                seen(1, active, 0, 0, false),
            ),
            (
                "enter_view_change below an installed view: no-op",
                At::Installed,
                |_| Input::Enter(0),
                seen(1, active, 0, 0, false),
            ),
            (
                "enter_view_change at the view being collected: no-op",
                At::Collecting(1),
                |_| Input::Enter(1),
                seen(1, vc, 0, 0, false),
            ),
            (
                "enter_view_change below the view being collected: no-op",
                At::Collecting(1),
                |_| Input::Enter(0),
                seen(1, vc, 0, 0, false),
            ),
        ];
        for (name, at, build, expected) in rows {
            let mut cluster = idle_cluster(false);
            start_at(&mut cluster, at);
            let input = build(&cluster);
            let mut started = 0;
            at_replica_2(&mut cluster, |replica, ctx| {
                match input {
                    Input::Msg(msg) => replica.on_message(0, *msg, ctx),
                    Input::Enter(view) => replica.enter_view_change(ViewNumber(view), ctx),
                }
                started = ctx.counted("view_changes_started");
            });
            let replica = cluster.replica(2);
            let vc = replica.vc.as_ref();
            let got = Seen {
                view: replica.view().0,
                phase: replica.phase(),
                started,
                recorded: vc.map_or(0, |vc| {
                    vc.vc_msgs.len() + vc.vc_finals.len() + vc.vc_confirms.len()
                }),
                held: vc.is_some_and(|vc| vc.pending_new_view.is_some()),
            };
            assert_eq!(got, expected, "{name}");
        }
    }

    /// With fault detection on, the selection exists only once the
    /// VC-CONFIRM round agrees. A NEW-VIEW arriving between the merge and
    /// that agreement must wait for it: replica 2 knows from replicas 0 and
    /// 1 that sn 1 committed in view 0, so primary 0's NEW-VIEW omitting it
    /// is caught with fault detection on exactly as with it off.
    #[test]
    fn a_new_view_that_beats_the_selection_waits_for_it() {
        for fd in [false, true] {
            let mut cluster = idle_cluster(fd);
            let set = collect_view_1_at_replica_2(&mut cluster, Some(&batch("committed")));
            let vc_final = vc_final_from_0(&cluster, &set, 0);
            at_replica_2(&mut cluster, |replica, ctx| {
                replica.on_vc_final(vc_final, ctx)
            });
            let Input::Msg(omitting) = new_view(&cluster, 0, 1, None) else {
                unreachable!()
            };
            at_replica_2(&mut cluster, |replica, ctx| {
                replica.on_message(0, *omitting, ctx)
            });
            if fd {
                let replica = cluster.replica(2);
                assert_eq!(
                    (replica.view(), replica.phase(), replica.installed_view),
                    (ViewNumber(1), Phase::ViewChange, ViewNumber(0)),
                    "installed before the VC-CONFIRM round agreed"
                );
                let vc = replica.vc.as_ref().expect("collecting view 1");
                assert!(vc.pending_new_view.is_some());
                let digest = *vc.vc_confirms.get(2).unwrap();
                let confirm = VcConfirmMsg {
                    new_view: ViewNumber(1),
                    replica: 0,
                    vc_set_digest: digest,
                    signature: signer(&cluster, 0).sign_digest(&digest),
                };
                at_replica_2(&mut cluster, |replica, ctx| {
                    replica.on_vc_confirm(confirm, ctx)
                });
            }
            let replica = cluster.replica(2);
            assert_eq!(
                (replica.view(), replica.installed_view),
                (ViewNumber(2), ViewNumber(0)),
                "fd = {fd}: the omitting NEW-VIEW was not suspected"
            );
            assert!(replica.commit_log.get(SeqNum(1)).is_none());
        }
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
                replica.pending_requests.is_empty() && replica.sessions.queued() == 0,
                "non-primary replica {r} in view {} still queues {} requests",
                replica.view().0,
                replica.pending_requests.len()
            );
        }
        check_total_order(&[cluster.replica(1), cluster.replica(2)]).expect("total order holds");
    }
}
