//! Common-case request ordering (paper §4.2, Algorithms 1 and 2).
//!
//! * For `t = 1` the fast path of Figure 2b is used: the primary sends a COMMIT message
//!   carrying the batch to its single follower, the follower executes and returns a
//!   signed COMMIT with the reply digest, and the primary answers the client with both
//!   signatures.
//! * For `t ≥ 2` the general PREPARE / COMMIT pattern of Figure 2a is used: the primary
//!   prepares, followers broadcast signed COMMITs to all active replicas, and every
//!   active replica commits once it holds one COMMIT from each follower.

use super::{Phase, Replica, TOKEN_BATCH, TOKEN_MONITOR};
use crate::byzantine::ByzantineBehavior;
use crate::config::MAX_BATCH_BYTES;
use crate::log::{CommitEntry, PrepareEntry};
use crate::messages::{
    client_request_digest, reply_digest, CommitCarryMsg, CommitMsg, PrepareMsg, ReplyMsg,
    SignedRequest, XPaxosMsg,
};
use crate::types::{Batch, ClientId, ReplicaId, SeqNum, Timestamp};
use std::collections::BTreeMap;
use xft_crypto::{CryptoOp, Digest, Signature};
use xft_simnet::{Context, NodeId};

impl Replica {
    /// Signs a digest through the crypto front (stage *sign*), honouring the
    /// `CorruptSignatures` Byzantine behaviour.
    pub(crate) fn sign(&self, digest: &Digest) -> Signature {
        if self.behavior == ByzantineBehavior::CorruptSignatures {
            Signature::forged(self.signer.id())
        } else {
            self.crypto_front.sign_digest(&self.signer, digest)
        }
    }

    // -----------------------------------------------------------------------------
    // Client requests: admission, batching pipeline and retransmission monitoring
    // -----------------------------------------------------------------------------

    /// Handles a REPLICATE (fresh) or RE-SEND (retransmitted) client request.
    ///
    /// First stage of the request pipeline (*admit*): verify, answer duplicates
    /// from the reply cache, and either queue the request for batching (bounded
    /// — overflow is shed with a BUSY notice) or forward it to the primary.
    pub(crate) fn on_client_request(
        &mut self,
        req: SignedRequest,
        retransmission: bool,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        // Fresh requests defer signature verification to the *batched* pass
        // at proposal time (the stateless front's verify stage), where a
        // whole batch is checked in one go. Retransmissions are still
        // verified here: they can arm Algorithm-4 monitors and escalate to
        // view suspicion — paths a forged signature must never reach.
        if retransmission {
            ctx.charge(CryptoOp::VerifySig);
            if self
                .verifier
                .verify_digest(&client_request_digest(&req.request), &req.signature)
                .is_err()
            {
                return;
            }
        }

        let client = req.request.client;
        let ts = req.request.timestamp;

        // Exactly-once: an already-executed request is answered from the reply
        // cache and never re-admitted (even once its reply has been pruned).
        // Matching is by *exact* timestamp — under load shedding a client's
        // later request can execute before an earlier shed one, so "at or
        // below the latest executed timestamp" would wrongly swallow the shed
        // request's retry.
        if self
            .client_table
            .get(&client)
            .map(|r| r.executed(ts))
            .unwrap_or(false)
        {
            // Escalation: a client that keeps re-sending an executed request
            // cannot assemble a commit quorum from the current group (the
            // chaos explorer surfaced wedges where the other active replica
            // had forgotten the view). Suspect after repeated re-answers,
            // exactly like the unexecuted-request monitor path.
            let mut escalate = false;
            if retransmission && self.phase == Phase::Active && self.is_active_in(self.view) {
                if let Some(cached) = self
                    .client_table
                    .get_mut(&client)
                    .and_then(|r| r.replies.get_mut(&ts))
                {
                    cached.resends += 1;
                    if cached.resends >= super::CACHE_ANSWER_SUSPECT_THRESHOLD {
                        // Consumed only when the suspect actually goes out
                        // (the guard above matches the send below), so a
                        // re-answer during a view change doesn't burn the
                        // whole threshold cycle.
                        cached.resends = 0;
                        escalate = true;
                    }
                }
            }
            if let Some(cached) = self.client_table.get(&client).and_then(|r| r.reply_for(ts)) {
                let mut reply = cached.reply.clone();
                // Re-bind stale cached replies to the current view. A
                // request that commits *through* a view change leaves
                // each active replica holding a reply bound to whichever
                // view it executed in; those never re-form a quorum at
                // the client (found by the chaos explorer: a follower
                // crash+recover mid-pipeline wedged every in-flight
                // request forever). As an active member of the current
                // view — whose adopted log contains the executed entry —
                // this replica can vouch for the result in this view, so
                // the t + 1 active replicas' re-bound replies match again.
                if self.phase == Phase::Active
                    && self.is_active_in(self.view)
                    && reply.view < self.view
                {
                    ctx.charge(CryptoOp::Sign);
                    reply.view = self.view;
                    reply.replica = self.id;
                    reply.reply_digest = reply_digest(self.view, reply.sn, client, ts, &cached.rd);
                    reply.follower_commit = None;
                }
                // The t = 1 primary attaches the follower's signed commit
                // when it holds one for this view (fresh fast-path
                // commits, or proofs rebuilt by the view-change exchange).
                if self.config.t == 1
                    && self.is_primary_in(self.view)
                    && reply.view == self.view
                    && reply.follower_commit.is_none()
                {
                    reply.follower_commit = self
                        .follower_commits
                        .get(&reply.sn.0)
                        .filter(|c| c.view == self.view)
                        .cloned();
                }
                let node = self.client_node(client);
                self.send_to_client_gated(node, XPaxosMsg::Reply(reply), ctx);
            } else if retransmission {
                // Executed, but the reply fell off the bounded cache. Only a
                // client violating the `MAX_TS_SPREAD` contract can get here
                // (retention covers every timestamp a correct client can
                // still retransmit), so this is swallowed without
                // escalation — suspecting the view on a replayed ancient
                // timestamp would hand any client a view-change lever. Still
                // counted: a wedge here is a retention bug, not noise.
                ctx.count("cache_answers_pruned", 1);
                self.tel_event(ctx, "cache-miss", || {
                    format!("client={} ts={} executed, reply pruned", client.0, ts)
                });
            }
            if escalate {
                ctx.count("cache_answer_suspects", 1);
                let suspect = self.make_suspect(self.view);
                ctx.send(
                    self.client_node(client),
                    XPaxosMsg::SuspectToClient(suspect),
                );
                self.suspect_view(ctx);
            }
            return;
        }

        // A retransmitted copy of a request that is still in the admission
        // queue must not occupy another slot (copies of already-batched
        // requests are caught by the execution-time duplicate skip instead).
        if self.queued_keys.contains(&(client, ts)) {
            if retransmission && self.is_active_in(self.view) {
                self.monitor_request(client, ts, ctx);
            }
            return;
        }

        // Admission control: a full queue sheds the request before *this
        // replica* arms a monitor, and the client's busy-backoff retries are
        // plain REPLICATEs, so routine shedding never masquerades as a faulty
        // view. One residual by design: a request starved past the client's
        // full retransmission timeout RE-SENDs through the other active
        // replicas, whose Algorithm-4 monitors may then suspect the view —
        // under that much sustained overload a view change is the protocol's
        // intended response, not a false positive.
        let queue_full = self.pending_requests.len() >= self.config.pipeline.max_pending_requests;
        let queues_here = self.phase != Phase::Active || self.is_primary_in(self.view);
        if queues_here && queue_full {
            ctx.count("requests_shed", 1);
            self.telemetry.add("xft_shed_total", 1);
            self.tel_event(ctx, "shed", || {
                format!("client={} ts={} queue full", client.0, ts)
            });
            ctx.send(
                self.client_node(client),
                XPaxosMsg::Busy(crate::messages::BusyMsg {
                    view: self.view,
                    client,
                    timestamp: ts,
                    replica: self.id,
                }),
            );
            return;
        }

        // Retransmitted requests are monitored (Algorithm 4): if the request does not
        // commit in time, this replica suspects the view.
        if retransmission && self.is_active_in(self.view) {
            self.monitor_request(client, ts, ctx);
        }

        if self.phase != Phase::Active {
            // Buffer during view changes; the new primary will pick pending requests up.
            self.queued_keys.insert((client, ts));
            self.pending_requests
                .push_back((req, xft_telemetry::trace::current()));
            return;
        }

        if self.is_primary_in(self.view) {
            self.queued_keys.insert((client, ts));
            self.pending_requests
                .push_back((req, xft_telemetry::trace::current()));
            self.telemetry.add("xft_admitted_total", 1);
            self.tel_event(ctx, "admit", || format!("client={} ts={}", client.0, ts));
            self.pump_pipeline(ctx, false);
        } else {
            // Not the primary: forward to the current primary (covers both clients with
            // stale view estimates and the RE-SEND path of Algorithm 4).
            let primary = self.groups.primary(self.view);
            ctx.send(self.node_of(primary), XPaxosMsg::Replicate(req));
        }
    }

    /// Hands the requests buffered during a view change to the primary of
    /// the view this replica just installed as a non-primary, through the
    /// same forwarding path [`Self::on_client_request`] takes, and drops
    /// those already executed. A non-primary keeps no admission queue: left
    /// in place, the buffer would be re-proposed — duplicates costing a
    /// verify, a sign and batch space — whenever this replica next became
    /// primary.
    pub(crate) fn forward_buffered_requests(&mut self, ctx: &mut Context<XPaxosMsg>) {
        self.queued_keys.clear();
        let primary = self.node_of(self.groups.primary(self.view));
        let caller_trace = xft_telemetry::trace::current();
        for (req, trace) in std::mem::take(&mut self.pending_requests) {
            let executed = self
                .client_table
                .get(&req.request.client)
                .is_some_and(|r| r.executed(req.request.timestamp));
            if !executed {
                xft_telemetry::trace::set_current(trace);
                ctx.send(primary, XPaxosMsg::Replicate(req));
            }
        }
        xft_telemetry::trace::set_current(caller_trace);
    }

    /// Starts the per-request retransmission monitor if not already running.
    pub(crate) fn monitor_request(
        &mut self,
        client: ClientId,
        ts: Timestamp,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        if self.monitored_by_req.contains_key(&(client, ts)) {
            return;
        }
        let token = TOKEN_MONITOR + self.next_monitor_token;
        self.next_monitor_token += 1;
        let timer = ctx.set_timer(self.config.replica_retransmit, token);
        self.monitored.insert(token, (client, ts));
        self.monitored_by_req.insert((client, ts), (token, timer));
    }

    /// A monitored request did not commit in time: suspect the view and tell the client
    /// (Algorithm 4, lines 8–10).
    pub(crate) fn on_monitor_timeout(&mut self, token: u64, ctx: &mut Context<XPaxosMsg>) {
        let Some((client, ts)) = self.monitored.remove(&token) else {
            return;
        };
        self.monitored_by_req.remove(&(client, ts));
        // Already executed? Then the reply was (re)sent; nothing to do.
        if let Some(record) = self.client_table.get(&client) {
            if record.executed(ts) {
                return;
            }
        }
        if self.is_active_in(self.view) && self.phase == Phase::Active {
            let suspect = self.make_suspect(self.view);
            ctx.send(
                self.client_node(client),
                XPaxosMsg::SuspectToClient(suspect),
            );
            self.suspect_view(ctx);
        }
    }

    /// Cancels the retransmission monitor of an executed request.
    pub(crate) fn clear_monitor(
        &mut self,
        client: ClientId,
        ts: Timestamp,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        if let Some((token, timer)) = self.monitored_by_req.remove(&(client, ts)) {
            self.monitored.remove(&token);
            ctx.cancel_timer(timer);
        }
    }

    /// Second and third stages of the request pipeline (*batch* → *propose*):
    /// forms batches from the admission queue and proposes them, keeping up to
    /// `pipeline.max_in_flight_batches` sequence numbers in flight.
    ///
    /// When a batch is cut, per iteration:
    /// * as soon as `batch_size` requests are queued;
    /// * immediately when nothing is in flight (an idle pipe means waiting
    ///   buys no batching, only latency — so a lone client never waits out
    ///   the batch timer);
    /// * otherwise (`force`, i.e. the batch timer fired or a view change
    ///   handover), regardless.
    ///
    /// What a cut carries: every queued request, up to [`MAX_BATCH_BYTES`].
    /// Requests that piled up behind a full window therefore leave in the
    /// next free slot, so throughput is bounded by the offered load rather
    /// than by `max_in_flight_batches × batch_size` per commit round trip.
    ///
    /// Leftover requests re-arm the batch timer, so a partial batch waits at
    /// most `batch_timeout` even while the pipe is busy.
    pub(crate) fn pump_pipeline(&mut self, ctx: &mut Context<XPaxosMsg>, force: bool) {
        if self.phase != Phase::Active || !self.is_primary_in(self.view) {
            return;
        }
        // Proposals re-establish their batch's correlation id below; restore
        // the caller's afterwards so the rest of its step stays correctly
        // attributed (e.g. the commit that freed a pipeline slot).
        let caller_trace = xft_telemetry::trace::current();
        let max_in_flight = self.config.pipeline.max_in_flight_batches.max(1);
        while self.proposed_in_flight < max_in_flight && !self.pending_requests.is_empty() {
            let full = self.pending_requests.len() >= self.config.batch_size;
            let pipe_idle = self.proposed_in_flight == 0;
            if !(force || full || pipe_idle) {
                break;
            }
            let mut bytes = Batch::default().wire_size();
            let take = self
                .pending_requests
                .iter()
                .position(|(r, _)| {
                    bytes += r.request.wire_size();
                    bytes > MAX_BATCH_BYTES
                })
                .unwrap_or(self.pending_requests.len())
                .max(1); // a lone oversized request still leaves

            // The batch inherits the first traced request's correlation id,
            // so the trace crosses the batch-timer hop into the proposal.
            let mut batch_trace = 0;
            let chunk: Vec<SignedRequest> = self
                .pending_requests
                .drain(..take)
                .map(|(req, trace)| {
                    if batch_trace == 0 {
                        batch_trace = trace;
                    }
                    req
                })
                .collect();
            for req in &chunk {
                self.queued_keys
                    .remove(&(req.request.client, req.request.timestamp));
            }
            xft_telemetry::trace::set_current(batch_trace);
            self.propose_batch(chunk, ctx);
        }
        xft_telemetry::trace::set_current(caller_trace);
        if !self.pending_requests.is_empty() {
            if self.batch_timer.is_none() {
                self.batch_timer = Some(ctx.set_timer(self.config.batch_timeout, TOKEN_BATCH));
            }
        } else if let Some(timer) = self.batch_timer.take() {
            ctx.cancel_timer(timer);
        }
    }

    /// Force-flushes the admission queue up to the in-flight limit (batch-timer
    /// expiry and view-change handover).
    pub(crate) fn flush_batches(&mut self, ctx: &mut Context<XPaxosMsg>) {
        self.pump_pipeline(ctx, true);
    }

    /// A batch this primary proposed has committed: free its pipeline slot and
    /// propose more if requests are waiting.
    pub(crate) fn note_batch_committed(&mut self, ctx: &mut Context<XPaxosMsg>) {
        self.proposed_in_flight = self.proposed_in_flight.saturating_sub(1);
        self.pump_pipeline(ctx, false);
    }

    /// Assigns the next sequence number to a batch and sends it to the followers.
    fn propose_batch(&mut self, requests: Vec<SignedRequest>, ctx: &mut Context<XPaxosMsg>) {
        let (mut reqs, mut sigs): (Vec<_>, Vec<_>) = requests
            .into_iter()
            .map(|sr| (sr.request, sr.signature))
            .unzip();

        // Stateless front, stage verify: the whole batch's client
        // signatures are checked in one pass (deferred from admission). On
        // failure the per-signature fallback pinpoints the culprits; they
        // are dropped and the remaining requests proceed as this batch.
        ctx.charge(CryptoOp::VerifyBatch { count: reqs.len() });
        if let Err(culprits) = self
            .crypto_front
            .verify_client_sigs(&self.verifier, &reqs, &sigs)
        {
            // The fallback re-verified every signature individually.
            ctx.charge(CryptoOp::VerifyBatch { count: reqs.len() });
            ctx.count("sig_batch_fallbacks", 1);
            self.tel_event(ctx, "sig-fallback", || {
                format!("culprits={} of {}", culprits.len(), reqs.len())
            });
            for &i in culprits.iter().rev() {
                reqs.remove(i);
                sigs.remove(i);
            }
            if reqs.is_empty() {
                return; // nothing genuine left to propose
            }
        }

        let batch = Batch::new(reqs);
        self.next_sn = self.next_sn.next();
        self.proposed_in_flight += 1;
        ctx.count("batches_proposed", 1);
        let sn = self.next_sn;
        let view = self.view;
        // Stage order: the batch digest (cached thereafter) goes through
        // the front too.
        let batch_digest = self.crypto_front.digest_batch(&batch);
        ctx.charge(CryptoOp::Hash {
            len: batch.wire_size(),
        });
        if self.telemetry.is_enabled() {
            let now_ns = ctx.now().as_nanos();
            self.telemetry.add("xft_batches_proposed_total", 1);
            self.telemetry
                .observe("xft_batch_size", 1.0, batch.len() as u64);
            self.telemetry
                .with_monitor(|m| m.note_proposal(sn.0, now_ns));
            self.tel_event(ctx, "batch", || {
                format!("sn={} view={} reqs={}", sn.0, view.0, batch.len())
            });
        }

        // The primary's signature doubles as its commit statement in the t = 1 path and
        // as the prepare statement in the general path.
        let signed = if self.config.t == 1 {
            CommitEntry::commit_digest(&batch_digest, sn, view)
        } else {
            PrepareEntry::signed_digest(&batch_digest, sn, view)
        };
        ctx.charge(CryptoOp::Sign);
        let primary_sig = self.sign(&signed);
        self.tel_event(ctx, "sign", || format!("sn={} view={}", sn.0, view.0));

        let entry = PrepareEntry {
            view,
            sn,
            batch: batch.clone(),
            client_sigs: sigs.clone(),
            primary_sig,
        };
        self.persist(|| crate::durable::DurableEvent::Prepare(entry.clone()));
        self.prepare_log.insert(entry);

        if self.config.t == 1 {
            let follower = self.groups.followers(view)[0];
            ctx.send(
                self.node_of(follower),
                XPaxosMsg::CommitCarry(CommitCarryMsg {
                    view,
                    sn,
                    batch,
                    client_sigs: sigs,
                    signature: primary_sig,
                }),
            );
        } else {
            let msg = XPaxosMsg::Prepare(PrepareMsg {
                view,
                sn,
                batch,
                client_sigs: sigs,
                signature: primary_sig,
            });
            for follower in self.groups.followers(view) {
                ctx.send(self.node_of(follower), msg.clone());
            }
        }
    }

    // -----------------------------------------------------------------------------
    // Follower paths
    // -----------------------------------------------------------------------------

    /// Stashes a verified proposal that arrived ahead of the next expected
    /// sequence number. The stash is bounded to roughly the pipeline depth:
    /// anything farther ahead is dropped and recovered by retransmission or a
    /// view change, exactly as a lost message would be.
    fn stash_proposal(&mut self, sn: SeqNum, msg: XPaxosMsg, ctx: &mut Context<XPaxosMsg>) {
        let cap = self.config.pipeline.max_in_flight_batches.max(1) * 2 + 16;
        if sn.0 > self.next_sn.0 + cap as u64 || self.stashed_proposals.len() >= cap {
            ctx.count("proposals_dropped", 1);
            return;
        }
        ctx.count("proposals_stashed", 1);
        self.stashed_proposals.insert(sn.0, msg);
    }

    /// Buffers a COMMIT whose PREPARE has not been processed yet, bounded to
    /// the same pipeline-depth window as the proposal stash. Commits at or
    /// below `next_sn` are stale, not early (their prepare either exists or
    /// was checkpoint-truncated because the slot committed): buffering them
    /// would pin the stash forever since no future prepare drains them.
    fn stash_early_commit(&mut self, m: CommitMsg, ctx: &mut Context<XPaxosMsg>) {
        let cap = self.config.pipeline.max_in_flight_batches.max(1) * 2 + 16;
        self.early_commits.retain(|sn, _| *sn > self.next_sn.0);
        if m.sn.0 <= self.next_sn.0
            || m.sn.0 > self.next_sn.0 + cap as u64
            || self.early_commits.len() >= cap
        {
            ctx.count("commits_dropped", 1);
            return;
        }
        let slot = self.early_commits.entry(m.sn.0).or_default();
        if !slot.iter().any(|c| c.replica == m.replica) {
            ctx.count("commits_buffered", 1);
            slot.push(m);
        }
    }

    /// Replays buffered COMMITs for `sn` once its prepare entry exists; the
    /// replay skips straight past the (already charged) verification step.
    fn drain_early_commits(&mut self, sn: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        if let Some(commits) = self.early_commits.remove(&sn.0) {
            for commit in commits {
                self.process_commit(commit, ctx);
            }
        }
    }

    /// Replays the stashed proposal for the next expected sequence number, if
    /// any. Stashed proposals were signature-verified on arrival and the
    /// stash is cleared on every view change, so replay skips straight to the
    /// apply step. Each replay ends with another drain call, so a run of
    /// consecutive stashed proposals is consumed in order. Also invoked after
    /// a state-transfer adoption, which is what releases carry proposals that
    /// were deferred while execution lagged.
    pub(crate) fn drain_stashed(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let next = self.next_sn.next().0;
        let Some(msg) = self.stashed_proposals.get(&next) else {
            return;
        };
        if matches!(msg, XPaxosMsg::CommitCarry(_)) && SeqNum(next) != self.exec_sn.next() {
            return; // execution still catching up; re-drained after adoption
        }
        let msg = self.stashed_proposals.remove(&next).expect("peeked above");
        match msg {
            XPaxosMsg::Prepare(m) => self.apply_prepare(m, ctx),
            XPaxosMsg::CommitCarry(m) => self.apply_commit_carry(m, ctx),
            _ => {}
        }
    }

    /// A proposal for a view ahead of ours, validly signed by that view's
    /// primary, is proof the cluster moved on without us — after an amnesia
    /// fault reset our view estimate, or after we missed every SUSPECT of an
    /// interim view change. Join the view change toward it: either the
    /// VIEW-CHANGE exchange completes normally, or our collection timeout
    /// escalates with a signed SUSPECT and rotates the group (this is what
    /// un-wedges a cluster whose current follower forgot the view: found by
    /// the chaos explorer). No new power is granted to faulty replicas — an
    /// active replica can already force view changes with signed SUSPECTs.
    fn join_newer_view_if_proven(
        &mut self,
        view: crate::types::ViewNumber,
        signed: &Digest,
        signature: &xft_crypto::Signature,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        ctx.charge(CryptoOp::VerifySig);
        let primary = self.groups.primary(view);
        if signature.signer == crate::types::replica_key(primary)
            && self.verifier.is_valid_digest(signed, signature)
        {
            self.enter_view_change(view, ctx);
        }
    }

    /// General case (t ≥ 2): a follower receives the primary's PREPARE.
    pub(crate) fn on_prepare(
        &mut self,
        _from: NodeId,
        m: PrepareMsg,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        if m.view > self.view {
            let expected = PrepareEntry::signed_digest(&m.batch.digest(), m.sn, m.view);
            self.join_newer_view_if_proven(m.view, &expected, &m.signature, ctx);
            return;
        }
        if self.phase != Phase::Active || m.view != self.view || !self.is_active_in(self.view) {
            return;
        }
        if self.is_primary_in(self.view) {
            return; // the primary never receives PREPAREs
        }
        // Verify the primary's and the clients' signatures (the latter as a
        // single batched pass through the crypto front).
        ctx.charge(CryptoOp::VerifySig);
        let expected = PrepareEntry::signed_digest(&m.batch.digest(), m.sn, m.view);
        if !self.verifier.is_valid_digest(&expected, &m.signature) {
            self.suspect_view(ctx);
            return;
        }
        ctx.charge(CryptoOp::VerifyBatch {
            count: m.client_sigs.len(),
        });
        if m.client_sigs.len() != m.batch.len()
            || self
                .crypto_front
                .verify_client_sigs(&self.verifier, &m.batch.requests, &m.client_sigs)
                .is_err()
        {
            // A correctly-behaving primary never proposes unverified client
            // requests, so this is evidence against the primary itself.
            self.suspect_view(ctx);
            return;
        }
        if m.sn > self.next_sn.next() {
            // Ahead of the pipeline: buffer and replay once the gap fills.
            self.stash_proposal(m.sn, XPaxosMsg::Prepare(m), ctx);
            return;
        }
        if m.sn != self.next_sn.next() {
            return; // stale or duplicate proposal
        }
        self.apply_prepare(m, ctx);
    }

    /// Applies a verified, in-order PREPARE (`m.sn == next_sn + 1`). Split
    /// from [`Self::on_prepare`] so proposals replayed from the stash —
    /// already verified on arrival, and invalidated by view changes clearing
    /// the stash — don't pay (or charge) verification twice.
    fn apply_prepare(&mut self, m: PrepareMsg, ctx: &mut Context<XPaxosMsg>) {
        debug_assert_eq!(m.sn, self.next_sn.next());
        self.tel_event(ctx, "prepare", || {
            format!("sn={} view={} reqs={}", m.sn.0, m.view.0, m.batch.len())
        });
        self.next_sn = m.sn;
        let batch_digest = m.batch.digest();
        let entry = PrepareEntry {
            view: m.view,
            sn: m.sn,
            batch: m.batch,
            client_sigs: m.client_sigs,
            primary_sig: m.signature,
        };
        self.persist(|| crate::durable::DurableEvent::Prepare(entry.clone()));
        self.prepare_log.insert(entry);

        // Sign and broadcast the COMMIT to all active replicas.
        ctx.charge(CryptoOp::Sign);
        let commit_digest = CommitEntry::commit_digest(&batch_digest, m.sn, m.view);
        let sig = self.sign(&commit_digest);
        let commit = CommitMsg {
            view: m.view,
            sn: m.sn,
            batch_digest,
            replica: self.id,
            reply_digest: None,
            signature: sig,
        };
        // Record our own commit locally, then broadcast.
        self.pending_commits
            .entry(m.sn.0)
            .or_default()
            .sigs
            .insert(self.id, sig);
        for node in self.other_active_nodes(m.view) {
            ctx.send(node, XPaxosMsg::Commit(commit.clone()));
        }
        self.drain_early_commits(m.sn, ctx);
        self.try_complete_general(m.sn, ctx);
        self.drain_stashed(ctx);
    }

    /// t = 1 fast path: the follower receives the primary's COMMIT carrying the batch.
    pub(crate) fn on_commit_carry(
        &mut self,
        _from: NodeId,
        m: CommitCarryMsg,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        if m.view > self.view {
            let expected = CommitEntry::commit_digest(&m.batch.digest(), m.sn, m.view);
            self.join_newer_view_if_proven(m.view, &expected, &m.signature, ctx);
            return;
        }
        if self.phase != Phase::Active || m.view != self.view {
            return;
        }
        if !self.is_active_in(self.view) || self.is_primary_in(self.view) {
            return;
        }
        ctx.charge(CryptoOp::VerifySig);
        let batch_digest = m.batch.digest();
        let expected = CommitEntry::commit_digest(&batch_digest, m.sn, m.view);
        if !self.verifier.is_valid_digest(&expected, &m.signature) {
            self.suspect_view(ctx);
            return;
        }
        ctx.charge(CryptoOp::VerifyBatch {
            count: m.client_sigs.len(),
        });
        if m.client_sigs.len() != m.batch.len()
            || self
                .crypto_front
                .verify_client_sigs(&self.verifier, &m.batch.requests, &m.client_sigs)
                .is_err()
        {
            self.suspect_view(ctx);
            return;
        }
        if m.sn > self.next_sn.next() {
            // Ahead of the pipeline: buffer and replay once the gap fills.
            self.stash_proposal(m.sn, XPaxosMsg::CommitCarry(m), ctx);
            return;
        }
        if m.sn != self.next_sn.next() {
            return;
        }
        if m.sn != self.exec_sn.next() {
            // The carry path executes immediately, but execution lags the
            // proposal stream (a state transfer is filling the checkpointed
            // prefix): defer the proposal until the snapshot is adopted.
            self.stash_proposal(m.sn, XPaxosMsg::CommitCarry(m), ctx);
            return;
        }
        self.apply_commit_carry(m, ctx);
    }

    /// Applies a verified, in-order COMMIT-CARRY (`m.sn == next_sn + 1`);
    /// split from [`Self::on_commit_carry`] for the same reason as
    /// [`Self::apply_prepare`].
    fn apply_commit_carry(&mut self, m: CommitCarryMsg, ctx: &mut Context<XPaxosMsg>) {
        debug_assert_eq!(m.sn, self.next_sn.next());
        let batch_digest = m.batch.digest();
        self.next_sn = m.sn;
        self.prepare_log.insert(PrepareEntry {
            view: m.view,
            sn: m.sn,
            batch: m.batch.clone(),
            client_sigs: m.client_sigs,
            primary_sig: m.signature,
        });

        // Execute immediately (the follower executes before the primary in this path)
        // and include the reply digest in the signed commit m1.
        let reply_digests = self.execute_batch_now(m.sn, &m.batch, ctx);
        let combined_reply = combine_digests(&reply_digests);

        ctx.charge(CryptoOp::Sign);
        let commit_digest =
            CommitEntry::commit_digest(&batch_digest, m.sn, m.view).combine(&combined_reply);
        let sig = self.sign(&commit_digest);
        let m1 = CommitMsg {
            view: m.view,
            sn: m.sn,
            batch_digest,
            replica: self.id,
            reply_digest: Some(combined_reply),
            signature: sig,
        };

        let mut commit_sigs = BTreeMap::new();
        commit_sigs.insert(self.id, sig);
        let entry = CommitEntry {
            view: m.view,
            sn: m.sn,
            batch: m.batch,
            primary_sig: m.signature,
            commit_sigs,
        };
        self.persist(|| crate::durable::DurableEvent::Commit(entry.clone()));
        self.commit_log.insert(entry);
        self.committed_batches += 1;
        self.telemetry.add("xft_commits_total", 1);
        self.tel_event(ctx, "commit", || {
            format!("sn={} view={} carry", m.sn.0, m.view.0)
        });

        let primary = self.groups.primary(m.view);
        ctx.send(self.node_of(primary), XPaxosMsg::Commit(m1));

        self.maybe_checkpoint(ctx);
        self.lazy_replicate(m.sn, ctx);
        self.drain_stashed(ctx);
    }

    /// COMMIT (digest form): t = 1 completion at the primary, general-case collection,
    /// or post-view-change proof accumulation.
    pub(crate) fn on_commit(&mut self, _from: NodeId, m: CommitMsg, ctx: &mut Context<XPaxosMsg>) {
        if m.view != self.view {
            return;
        }
        ctx.charge(CryptoOp::VerifySig);
        if m.replica >= self.config.n() {
            return;
        }
        self.process_commit(m, ctx);
    }

    /// Applies a verified COMMIT. Split from [`Self::on_commit`] so commits
    /// replayed from the early-commit buffer — verified (and charged) on
    /// arrival, and invalidated by view changes clearing the buffer — don't
    /// charge verification twice.
    fn process_commit(&mut self, m: CommitMsg, ctx: &mut Context<XPaxosMsg>) {
        // Proof accumulation for an entry that is already committed locally (also used
        // after view changes to rebuild full commit certificates).
        if let Some(existing) = self.commit_log.get(m.sn) {
            if existing.batch.digest() == m.batch_digest {
                let view = existing.view;
                let mut entry = existing.clone();
                entry.commit_sigs.insert(m.replica, m.signature);
                // Only strengthen the proof; never downgrade the view.
                if view == entry.view {
                    self.commit_log.insert(entry);
                }
            }
            return;
        }

        if self.config.t == 1 && self.is_primary_in(self.view) {
            self.complete_fast_path(m, ctx);
        } else {
            // General case: collect one COMMIT per follower.
            let Some(prep) = self.prepare_log.get(m.sn) else {
                // With multiple proposals in flight, a peer's COMMIT can
                // overtake the primary's PREPARE on jittered links. Buffer it
                // and replay once the prepare lands — dropping it would leave
                // this replica's commit certificate permanently incomplete.
                self.stash_early_commit(m, ctx);
                return;
            };
            if prep.batch.digest() != m.batch_digest || prep.view != m.view {
                return;
            }
            self.pending_commits
                .entry(m.sn.0)
                .or_default()
                .sigs
                .insert(m.replica, m.signature);
            self.note_peer_ack(m.sn, m.replica, ctx);
            self.try_complete_general(m.sn, ctx);
        }
    }

    /// Feeds a follower's COMMIT acknowledgement into the synchrony monitor's
    /// per-peer RTT estimate. Observation-only: the monitor matches the ack
    /// against proposals *this* replica timestamped in `propose_batch`, so
    /// acks for batches proposed elsewhere are ignored.
    fn note_peer_ack(&self, sn: SeqNum, peer: ReplicaId, ctx: &Context<XPaxosMsg>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let now_ns = ctx.now().as_nanos();
        let rtt = self
            .telemetry
            .with_monitor(|m| m.note_commit_ack(sn.0, peer as u64, now_ns))
            .flatten();
        if let Some(rtt_ns) = rtt {
            self.telemetry.observe("xft_peer_rtt_seconds", 1e-9, rtt_ns);
        }
    }

    /// t = 1: the primary completes a batch once the follower's signed commit arrives.
    fn complete_fast_path(&mut self, m: CommitMsg, ctx: &mut Context<XPaxosMsg>) {
        let Some(prep) = self.prepare_log.get(m.sn) else {
            return;
        };
        if prep.batch.digest() != m.batch_digest {
            // The follower committed a different batch than we prepared: a non-crash
            // fault somewhere; trigger a view change.
            if self.telemetry.is_enabled() {
                self.telemetry
                    .with_monitor(|mon| mon.mark_faulty(m.replica as u64));
            }
            self.suspect_view(ctx);
            return;
        }
        let follower = self.groups.followers(self.view)[0];
        if m.replica != follower {
            return;
        }
        self.note_peer_ack(m.sn, m.replica, ctx);
        let mut commit_sigs = BTreeMap::new();
        commit_sigs.insert(follower, m.signature);
        let entry = CommitEntry {
            view: prep.view,
            sn: prep.sn,
            batch: prep.batch.clone(),
            primary_sig: prep.primary_sig,
            commit_sigs,
        };
        let sn = m.sn;
        self.follower_commits.insert(m.sn.0, m);
        self.persist(|| crate::durable::DurableEvent::Commit(entry.clone()));
        self.commit_log.insert(entry);
        self.committed_batches += 1;
        self.telemetry.add("xft_commits_total", 1);
        self.tel_event(ctx, "commit", || {
            format!("sn={} view={} fast-path", sn.0, self.view.0)
        });
        self.try_execute(ctx);
        self.maybe_checkpoint(ctx);
        self.note_batch_committed(ctx);
    }

    /// General case: completes the commit of `sn` once every follower's COMMIT arrived.
    pub(crate) fn try_complete_general(&mut self, sn: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        let followers = self.groups.followers(self.view);
        let Some(pending) = self.pending_commits.get(&sn.0) else {
            return;
        };
        if !followers.iter().all(|f| pending.sigs.contains_key(f)) {
            return;
        }
        let Some(prep) = self.prepare_log.get(sn) else {
            return;
        };
        let entry = CommitEntry {
            view: prep.view,
            sn,
            batch: prep.batch.clone(),
            primary_sig: prep.primary_sig,
            commit_sigs: self.pending_commits.remove(&sn.0).unwrap_or_default().sigs,
        };
        self.persist(|| crate::durable::DurableEvent::Commit(entry.clone()));
        self.commit_log.insert(entry);
        self.committed_batches += 1;
        self.telemetry.add("xft_commits_total", 1);
        self.tel_event(ctx, "commit", || {
            format!("sn={} view={} general", sn.0, self.view.0)
        });
        self.try_execute(ctx);
        self.maybe_checkpoint(ctx);
        self.lazy_replicate(sn, ctx);
        if self.is_primary_in(self.view) {
            self.note_batch_committed(ctx);
        }
    }

    // -----------------------------------------------------------------------------
    // Execution and replies
    // -----------------------------------------------------------------------------

    /// Executes committed batches in sequence-number order and replies to clients.
    pub(crate) fn try_execute(&mut self, ctx: &mut Context<XPaxosMsg>) {
        self.try_execute_upto(SeqNum(u64::MAX), ctx);
    }

    /// Executes committed batches in order, but not past `upto`. The bound
    /// lets the lazy-checkpoint handler stop *exactly at* a checkpoint
    /// boundary to compare its state digest against the agreed one — the
    /// only point where a forked prefix is locally provable.
    pub(crate) fn try_execute_upto(&mut self, upto: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        while self.exec_sn < upto {
            let next = self.exec_sn.next();
            let Some(entry) = self.commit_log.get(next) else {
                break;
            };
            let batch = entry.batch.clone();
            // Fast-path cross-check (t = 1 primary): the follower executed
            // this batch first and its signed commit m1 carries the digest of
            // *its* replies. A mismatch with our own execution means the two
            // active states diverged — the client would be handed a reply
            // pair that only looks like a quorum. Execute with replies
            // *withheld*, verify, and only then release the replies from the
            // reply cache — a divergent batch's results never reach a client.
            let verify_against = if self.config.t == 1
                && self.is_primary_in(self.view)
                && self.phase == Phase::Active
                && !self.replaying
            {
                self.follower_commits
                    .get(&next.0)
                    .and_then(|fc| fc.reply_digest)
            } else {
                None
            };
            let Some(expected) = verify_against else {
                self.execute_batch_now(next, &batch, ctx);
                continue;
            };
            self.replaying = true;
            let digests = self.execute_batch_now(next, &batch, ctx);
            self.replaying = false;
            if combine_digests(&digests) != expected {
                ctx.count("fast_path_reply_divergence", 1);
                if self.telemetry.is_enabled() {
                    let follower = self.groups.followers(self.view)[0];
                    self.telemetry.add("xft_reply_divergence_total", 1);
                    self.telemetry
                        .with_monitor(|mon| mon.mark_faulty(follower as u64));
                    self.tel_event(ctx, "diverge", || {
                        format!("sn={} follower={} reply digests differ", next.0, follower)
                    });
                }
                self.suspect_view(ctx);
                break;
            }
            for req in &batch.requests {
                if let Some(cached) = self
                    .client_table
                    .get(&req.client)
                    .and_then(|r| r.reply_for(req.timestamp))
                {
                    let node = self.client_node(req.client);
                    let reply = XPaxosMsg::Reply(cached.reply.clone());
                    self.send_to_client_gated(node, reply, ctx);
                }
            }
        }
    }

    /// Executes one batch (which must be the next in order), updates the client table,
    /// sends replies and returns the per-request reply digests.
    pub(crate) fn execute_batch_now(
        &mut self,
        sn: SeqNum,
        batch: &Batch,
        ctx: &mut Context<XPaxosMsg>,
    ) -> Vec<Digest> {
        debug_assert_eq!(sn, self.exec_sn.next(), "execution must be in order");
        self.exec_sn = sn;
        self.executed_history.push((sn, batch.digest()));
        self.telemetry.add("xft_executed_batches_total", 1);
        self.tel_event(ctx, "execute", || {
            format!("sn={} reqs={}", sn.0, batch.len())
        });

        let is_primary = self.is_primary_in(self.view);
        // In the t = 1 fast path only the primary answers the client (Figure 2b); in
        // the general case every active replica replies (followers with the digest).
        let is_active = self.is_active_in(self.view)
            && self.phase == Phase::Active
            && (self.config.t > 1 || is_primary);
        let attach_follower_commit = self.config.t == 1 && is_primary;

        let mut digests = Vec::with_capacity(batch.len());
        for req in &batch.requests {
            // Exactly-once at execution: a retransmitted copy of a request can
            // be admitted into a later batch while the original is still in
            // flight. Every replica executes batches in the same total order,
            // so every replica skips the same duplicates.
            let already_executed = self
                .client_table
                .get(&req.client)
                .map(|record| record.executed(req.timestamp))
                .unwrap_or(false);
            if already_executed {
                digests.push(Digest::of(b"duplicate-skip"));
                continue;
            }
            ctx.charge_ns(self.state.execution_cost_ns(&req.op));
            let payload = self.state.apply(&req.op);
            let rd = Digest::of(&payload);
            digests.push(rd);

            let reply = ReplyMsg {
                view: self.view,
                sn,
                client: req.client,
                timestamp: req.timestamp,
                reply_digest: reply_digest(self.view, sn, req.client, req.timestamp, &rd),
                payload: if is_primary { Some(payload) } else { None },
                replica: self.id,
                follower_commit: if attach_follower_commit {
                    self.follower_commits.get(&sn.0).cloned()
                } else {
                    None
                },
            };
            // Remember recent replies (with the raw reply digest, for
            // view re-binding) for duplicate suppression.
            self.client_table.entry(req.client).or_default().record(
                req.timestamp,
                reply.clone(),
                rd,
            );
            self.clear_monitor(req.client, req.timestamp, ctx);

            // Only active replicas answer clients (passive replicas execute
            // silently, as do rebuild replays — retransmissions are answered
            // from the rebuilt reply cache).
            if is_active && !self.replaying {
                self.tel_event(ctx, "reply", || {
                    format!("sn={} client={} ts={}", sn.0, req.client.0, req.timestamp)
                });
                let node = self.client_node(req.client);
                self.send_to_client_gated(node, XPaxosMsg::Reply(reply), ctx);
            }
        }
        digests
    }
}

/// Combines per-request reply digests into the single digest carried by the follower's
/// commit message in the t = 1 fast path.
pub(crate) fn combine_digests(digests: &[Digest]) -> Digest {
    let mut acc = Digest::of(b"replies");
    for d in digests {
        acc = acc.combine(d);
    }
    acc
}

#[cfg(test)]
mod tests {
    use crate::client::ClientWorkload;
    use crate::config::MAX_BATCH_BYTES;
    use crate::harness::{ClusterBuilder, LatencySpec};
    use std::collections::BTreeSet;
    use xft_simnet::{PipelineConfig, SimDuration};

    /// A backlog larger than the byte budget is cut into budget-sized
    /// batches: 4 clients × 128-deep windows of 4 kB requests (2 MiB) queue
    /// behind a one-batch window, no proposed batch exceeds
    /// [`MAX_BATCH_BYTES`], the budget is what bounds them, and every
    /// request is proposed exactly once.
    #[test]
    fn backlog_beyond_the_byte_budget_is_cut_at_the_budget() {
        let (clients, ops) = (4usize, 256u64);
        let mut cluster = ClusterBuilder::new(1, clients)
            .with_seed(24)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(1)))
            .with_workload(ClientWorkload {
                payload_size: 4096,
                requests: Some(ops),
                ..Default::default()
            })
            .with_pipeline(
                PipelineConfig::default()
                    .with_client_window(128)
                    .with_max_in_flight(1),
            )
            .with_config(|c| c.with_checkpoint_interval(0))
            .build();
        cluster.run_for(SimDuration::from_secs(30));
        assert_eq!(cluster.total_committed(), clients as u64 * ops);
        cluster.check_total_order().expect("total order holds");

        let primary = cluster.replica(0);
        let largest = primary
            .commit_log
            .iter()
            .map(|e| e.batch.wire_size())
            .max()
            .unwrap_or(0);
        assert!(
            largest <= MAX_BATCH_BYTES,
            "a {largest} B batch exceeds the {MAX_BATCH_BYTES} B budget"
        );
        assert!(
            largest > MAX_BATCH_BYTES - 4096 - 16,
            "largest batch {largest} B: the budget never bound"
        );
        let mut seen = BTreeSet::new();
        for req in primary.commit_log.iter().flat_map(|e| &e.batch.requests) {
            assert!(
                seen.insert((req.client, req.timestamp)),
                "{:?} ts {} proposed twice",
                req.client,
                req.timestamp
            );
        }
        assert_eq!(seen.len() as u64, clients as u64 * ops);
    }
}
