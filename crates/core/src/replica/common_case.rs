//! Common-case request ordering (paper §4.2, Algorithms 1 and 2).
//!
//! * For `t = 1` the fast path of Figure 2b is used: the primary sends a COMMIT message
//!   carrying the batch to its single follower, the follower executes and returns a
//!   signed COMMIT with the reply digest, and the primary answers the client with both
//!   signatures.
//! * For `t ≥ 2` the general PREPARE / COMMIT pattern of Figure 2a is used: the primary
//!   prepares, followers broadcast signed COMMITs to all active replicas, and every
//!   active replica commits once it holds one COMMIT from each follower.
//!
//! Each rule of the common case is written once:
//!
//! * **One proposal digest.** [`proposal_digest`] is what the primary signs:
//!   the commit digest at t = 1, the prepare digest at t ≥ 2. `propose_batch`,
//!   the NEW-VIEW re-proposal and the follower's check all use it.
//! * **One proposal admission.** `on_proposal` admits the primary's proposal
//!   — the COMMIT m0 at t = 1, the PREPARE at t ≥ 2, both as a
//!   [`PrepareEntry`] — by view, role, signatures and sequence number, and
//!   stashes it within the reorder window while it cannot be applied yet.
//!   Its apply step is `apply_commit_carry` (Fig. 2b: the follower executes
//!   and answers the primary with m1) or `apply_prepare` (Fig. 2a: the
//!   follower logs the prepare and broadcasts its COMMIT).
//! * **One commit write.** `log_commit` persists the Commit record, then
//!   inserts the entry: the only way a first-time commit enters the log, in
//!   the common case, the view change and lazy replication alike.
//!   `record_commit` adds the statistics for the three common-case
//!   completions (carry, fast path, general).
//! * **One answer to an executed request.** `answer_executed` re-answers
//!   from the reply cache: re-binding, follower commit, durability gate and
//!   escalation count. Every REPLY is built by `ReplyMsg::bound` and sent
//!   by `send_reply`.

use super::sessions::{Standing, CACHE_ANSWER_SUSPECT_THRESHOLD};
use super::{Phase, Replica, TOKEN_BATCH};
use crate::auth::{verify_client_sig, verify_replica_sig};
use crate::byzantine::ByzantineBehavior;
use crate::config::{BATCH_TIMEOUT, MAX_BATCH_BYTES};
use crate::log::{commit_statement_digest, proposal_digest, CommitEntry, PrepareEntry};
use crate::messages::{CommitCarryMsg, CommitMsg, PrepareMsg, ReplyMsg, SignedRequest, XPaxosMsg};
use crate::types::{Batch, ClientId, ReplicaId, SeqNum, Timestamp};
use std::collections::BTreeMap;
use xft_crypto::{CryptoOp, Digest, Signature};
use xft_simnet::Context;

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
            if !verify_client_sig(&self.verifier, &req.request, &req.signature) {
                return;
            }
        }

        let (client, ts) = (req.request.client, req.request.timestamp);

        // Exactly-once: an executed request is answered from the reply cache
        // and never re-admitted, even once its reply has been pruned.
        let standing = self.sessions.standing(client, ts);
        if standing == Standing::Executed {
            self.answer_executed(client, ts, retransmission, ctx);
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
        if standing == Standing::Open && queues_here && queue_full {
            ctx.count("requests_shed", 1);
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

        // Retransmitted requests are monitored (Algorithm 4): if the request
        // does not commit in time, this replica suspects the view.
        if retransmission && self.is_active_in(self.view) {
            let delay = self.config.replica_retransmit;
            self.sessions
                .monitor(client, ts, |token| ctx.set_timer(delay, token));
        }

        // A copy of a request still in the admission queue takes no second
        // slot (copies of batched requests are skipped at execution).
        if standing == Standing::Queued {
            return;
        }
        if !queues_here {
            // Not the primary: forward to the current primary (covers both clients with
            // stale view estimates and the RE-SEND path of Algorithm 4).
            let primary = self.groups.primary(self.view);
            ctx.send(self.node_of(primary), XPaxosMsg::Replicate(req));
            return;
        }
        // Queued: buffered during a view change (the new primary picks pending
        // requests up), or admitted by the primary for batching.
        self.sessions.queue(client, ts);
        self.pending_requests.push_back((req, ctx.trace()));
        debug_assert_eq!(self.sessions.queued(), self.pending_requests.len());
        if self.phase == Phase::Active {
            self.tel_event(ctx, "admit", || format!("client={} ts={}", client.0, ts));
            self.pump_pipeline(ctx, false);
        }
    }

    /// Answers request `(client, ts)`, already executed, from the reply
    /// cache: the one rule for every re-answer. As an active replica of the
    /// current view, outside a view change, this replica
    /// * re-binds a reply cached in an older view to the current one. A
    ///   request that commits *through* a view change leaves each active
    ///   replica holding a reply bound to whichever view it executed in;
    ///   those never re-form a quorum at the client (found by the chaos
    ///   explorer: a follower crash+recover mid-pipeline wedged every
    ///   in-flight request forever). The current view's adopted log contains
    ///   the executed entry, so this replica can vouch for the result in
    ///   this view, and the t + 1 active replicas' re-bound replies match;
    /// * counts a retransmission's re-answer toward escalation. A client
    ///   that keeps re-sending an executed request cannot assemble a commit
    ///   quorum from the current group (the chaos explorer surfaced wedges
    ///   where the other active replica had forgotten the view), so after
    ///   [`CACHE_ANSWER_SUSPECT_THRESHOLD`] re-answers in one view it
    ///   suspects that view, exactly like the unexecuted-request monitor
    ///   path. The count resets when the suspect goes out and when this
    ///   replica first vouches in a newer view: re-sends that failed in an
    ///   older view say nothing about the new group, which must get its own
    ///   chance to re-answer. A re-answer during a view change doesn't count.
    ///
    /// The t = 1 primary attaches the follower's signed commit when it holds
    /// one for this view (fresh fast-path commits, or proofs rebuilt by the
    /// view-change exchange). The reply leaves through the durability gate.
    fn answer_executed(
        &mut self,
        client: ClientId,
        ts: Timestamp,
        retransmission: bool,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let view = self.view;
        let vouches = self.phase == Phase::Active && self.is_active_in(view);
        let attaches = self.config.t == 1 && self.is_primary_in(view);
        let Some(cached) = self.sessions.cached(client, ts) else {
            if retransmission {
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
            return;
        };
        let mut escalate = false;
        if retransmission && vouches {
            if cached.resends_view != view {
                cached.resends_view = view;
                cached.resends = 0;
            }
            cached.resends += 1;
            escalate = cached.resends >= CACHE_ANSWER_SUSPECT_THRESHOLD;
            if escalate {
                cached.resends = 0;
            }
        }
        let mut reply = cached.reply.clone();
        if vouches && reply.view < view {
            ctx.charge(CryptoOp::Sign);
            let (sn, payload) = (reply.sn, reply.payload);
            reply = ReplyMsg::bound((view, sn), (client, ts), &cached.rd, payload, self.id);
        }
        if attaches && reply.view == view && reply.follower_commit.is_none() {
            let commit = self.follower_commits.get(&reply.sn.0);
            reply.follower_commit = commit.filter(|c| c.view == view).cloned();
        }
        self.send_reply(reply, ctx);
        if escalate {
            ctx.count("cache_answer_suspects", 1);
            self.suspect_view(Some(client), ctx);
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
        let primary = self.node_of(self.groups.primary(self.view));
        let step_trace = ctx.trace();
        for (req, trace) in std::mem::take(&mut self.pending_requests) {
            let (client, ts) = (req.request.client, req.request.timestamp);
            self.sessions.unqueue(client, ts);
            if !self.sessions.executed(client, ts) {
                ctx.set_trace(trace);
                ctx.send(primary, XPaxosMsg::Replicate(req));
            }
        }
        ctx.set_trace(step_trace);
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
    /// most [`BATCH_TIMEOUT`] even while the pipe is busy.
    pub(crate) fn pump_pipeline(&mut self, ctx: &mut Context<XPaxosMsg>, force: bool) {
        if self.phase != Phase::Active || !self.is_primary_in(self.view) {
            return;
        }
        // Proposals re-establish their batch's correlation id below; restore
        // the step's own afterwards so the rest of it stays correctly
        // attributed (e.g. the commit that freed a pipeline slot).
        let step_trace = ctx.trace();
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
                self.sessions
                    .unqueue(req.request.client, req.request.timestamp);
            }
            ctx.set_trace(batch_trace);
            self.propose_batch(chunk, ctx);
        }
        ctx.set_trace(step_trace);
        debug_assert_eq!(self.sessions.queued(), self.pending_requests.len());
        if !self.pending_requests.is_empty() {
            if self.batch_timer.is_none() {
                self.batch_timer = Some(ctx.set_timer(BATCH_TIMEOUT, TOKEN_BATCH));
            }
        } else if let Some(timer) = self.batch_timer.take() {
            ctx.cancel_timer(timer);
        }
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
            ctx.count("sig_batch_fallback", 1);
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
            self.telemetry
                .observe("xft_batch_size", 1.0, batch.len() as u64);
            self.telemetry
                .with_monitor(|m| m.note_proposal(sn.0, now_ns));
            self.tel_event(ctx, "batch", || {
                format!("sn={} view={} reqs={}", sn.0, view.0, batch.len())
            });
        }

        ctx.charge(CryptoOp::Sign);
        let primary_sig = self.sign(&proposal_digest(self.config.t, &batch_digest, sn, view));
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

    /// Buffers a COMMIT whose PREPARE has not been processed yet, within the
    /// reorder window. Commits at or below `next_sn` are stale, not early
    /// (their prepare either exists or was checkpoint-truncated because the
    /// slot committed): buffering them would pin the buffer forever since no
    /// future prepare drains them.
    fn stash_early_commit(&mut self, m: CommitMsg, ctx: &mut Context<XPaxosMsg>) {
        let sn = m.sn.0;
        let mut slot = self.early_commits.take(sn).unwrap_or_default();
        let fresh = slot.insert(m.replica, m);
        if !self.early_commits.admit(sn, self.next_sn.0, slot) {
            ctx.count("commits_dropped", 1);
        } else if fresh {
            ctx.count("commits_buffered", 1);
        }
    }

    /// Replays the stashed proposal for the next expected sequence number, if
    /// any. Stashed proposals were signature-verified on arrival and the
    /// stash is cleared on every view change, so replay skips straight to the
    /// apply step. Each replay ends with another drain call, so a run of
    /// consecutive stashed proposals is consumed in order. Also invoked after
    /// a state-transfer adoption, which is what releases t = 1 proposals that
    /// were deferred while execution lagged.
    pub(crate) fn drain_stashed(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let next = self.next_sn.next();
        if self.awaits_execution(next) {
            return; // execution still catching up; re-drained after adoption
        }
        if let Some(p) = self.stashed_proposals.take(next.0) {
            self.apply_proposal(p, ctx);
        }
    }

    /// A follower admits the primary's proposal: the COMMIT m0 carrying the
    /// batch at t = 1, the PREPARE at t ≥ 2 (`on_message` drops the other
    /// kind). In order:
    /// 1. a newer view's proposal, validly signed by that view's primary,
    ///    proves the cluster moved on without us (an amnesia fault, or every
    ///    SUSPECT of an interim view change missed): join the view change
    ///    toward it. This un-wedges a cluster whose follower forgot the view
    ///    (found by the chaos explorer) and grants a faulty replica nothing a
    ///    signed SUSPECT does not;
    /// 2. otherwise only an active non-primary of the current view, outside a
    ///    view change, takes it;
    /// 3. the primary's signature and
    /// 4. the client signatures (one per request, one batched pass) must
    ///    verify: a correct primary proposes only verified requests, so
    ///    either failure suspects the view;
    /// 5. a stale or duplicate proposal is dropped; one ahead of `next_sn + 1`
    ///    is stashed until the gap fills, and so, at t = 1 (the follower
    ///    executes on apply), is one that execution lags behind while a state
    ///    transfer fills the checkpointed prefix;
    /// 6. apply.
    pub(crate) fn on_proposal(&mut self, p: PrepareEntry, ctx: &mut Context<XPaxosMsg>) {
        let signed = proposal_digest(self.config.t, &p.batch.digest(), p.sn, p.view);
        let primary = self.groups.primary(p.view);
        if p.view > self.view {
            ctx.charge(CryptoOp::VerifySig);
            if verify_replica_sig(&self.verifier, primary, &signed, &p.primary_sig) {
                self.enter_view_change(p.view, ctx);
            }
            return;
        }
        if self.phase != Phase::Active
            || p.view != self.view
            || !self.is_active_in(self.view)
            || self.is_primary_in(self.view)
        {
            return;
        }
        ctx.charge(CryptoOp::VerifySig);
        if !verify_replica_sig(&self.verifier, primary, &signed, &p.primary_sig) {
            self.suspect_view(None, ctx);
            return;
        }
        ctx.charge(CryptoOp::VerifyBatch {
            count: p.client_sigs.len(),
        });
        if p.client_sigs.len() != p.batch.len()
            || self
                .crypto_front
                .verify_client_sigs(&self.verifier, &p.batch.requests, &p.client_sigs)
                .is_err()
        {
            self.suspect_view(None, ctx);
            return;
        }
        let next = self.next_sn.next();
        if p.sn < next {
            return; // stale or duplicate proposal
        }
        if p.sn == next && !self.awaits_execution(p.sn) {
            self.apply_proposal(p, ctx);
        } else if self.stashed_proposals.admit(p.sn.0, self.next_sn.0, p) {
            ctx.count("proposals_stashed", 1);
        } else {
            ctx.count("proposals_dropped", 1);
        }
    }

    /// Whether a t = 1 proposal for `sn` must wait for execution to reach
    /// `sn - 1`: the fast-path follower executes on apply.
    fn awaits_execution(&self, sn: SeqNum) -> bool {
        self.config.t == 1 && sn != self.exec_sn.next()
    }

    /// The apply step of this configuration's path.
    fn apply_proposal(&mut self, p: PrepareEntry, ctx: &mut Context<XPaxosMsg>) {
        if self.behavior == ByzantineBehavior::ForgeReplies {
            for reply in crate::byzantine::forged_replies(&self.groups, &p, self.id) {
                ctx.send(self.client_node(reply.client), XPaxosMsg::Reply(reply));
            }
        }
        if self.config.t == 1 {
            self.apply_commit_carry(p, ctx);
        } else {
            self.apply_prepare(p, ctx);
        }
    }

    /// Fig. 2a, follower side: applies a verified, in-order PREPARE
    /// (`p.sn == next_sn + 1`) — log it, then sign and broadcast a COMMIT to
    /// the other active replicas. Split from [`Self::on_proposal`] so
    /// proposals replayed from the stash — already verified on arrival, and
    /// invalidated by view changes clearing the stash — don't pay (or charge)
    /// verification twice.
    fn apply_prepare(&mut self, p: PrepareEntry, ctx: &mut Context<XPaxosMsg>) {
        debug_assert_eq!(p.sn, self.next_sn.next());
        self.tel_event(ctx, "prepare", || {
            format!("sn={} view={} reqs={}", p.sn.0, p.view.0, p.batch.len())
        });
        let (view, sn, batch_digest) = (p.view, p.sn, p.batch.digest());
        self.next_sn = sn;
        self.persist(|| crate::durable::DurableEvent::Prepare(p.clone()));
        self.prepare_log.insert(p);

        ctx.charge(CryptoOp::Sign);
        let sig = self.sign(&commit_statement_digest(&batch_digest, sn, view, None));
        let commit = CommitMsg {
            view,
            sn,
            batch_digest,
            replica: self.id,
            reply_digest: None,
            signature: sig,
        };
        // Record our own commit locally, then broadcast.
        self.pending_commits
            .entry(sn.0)
            .or_default()
            .insert(self.id, sig);
        for node in self.other_active_nodes(view) {
            ctx.send(node, XPaxosMsg::Commit(commit.clone()));
        }
        // Replay the COMMITs that overtook this PREPARE; they were verified
        // (and charged) on arrival.
        let early = self.early_commits.take(sn.0).unwrap_or_default();
        for commit in early.into_map().into_values() {
            self.process_commit(commit, ctx);
        }
        self.try_complete_general(sn, ctx);
        self.drain_stashed(ctx);
    }

    /// Fig. 2b, follower side: applies a verified, in-order COMMIT m0
    /// (`p.sn == next_sn + 1`) — execute the batch at once (the follower
    /// executes before the primary on this path), commit it, and answer the
    /// primary with the signed COMMIT m1 that binds the reply digest. Split
    /// from [`Self::on_proposal`] for the same reason as
    /// [`Self::apply_prepare`]. Writes no Prepare record: the Commit record
    /// that follows carries everything recovery needs.
    fn apply_commit_carry(&mut self, p: PrepareEntry, ctx: &mut Context<XPaxosMsg>) {
        debug_assert_eq!(p.sn, self.next_sn.next());
        let (view, sn, batch_digest) = (p.view, p.sn, p.batch.digest());
        let (batch, primary_sig) = (p.batch.clone(), p.primary_sig);
        self.next_sn = sn;
        self.prepare_log.insert(p);

        let reply_digests = self.execute_batch_now(sn, &batch, ctx);
        let combined_reply = combine_digests(&reply_digests);

        ctx.charge(CryptoOp::Sign);
        let sig = self.sign(&commit_statement_digest(
            &batch_digest,
            sn,
            view,
            Some(&combined_reply),
        ));
        let m1 = CommitMsg {
            view,
            sn,
            batch_digest,
            replica: self.id,
            reply_digest: Some(combined_reply),
            signature: sig,
        };
        self.record_commit(
            CommitEntry {
                view,
                sn,
                batch,
                primary_sig,
                commit_sigs: BTreeMap::from([(self.id, sig)]),
            },
            "carry",
            ctx,
        );

        let primary = self.groups.primary(view);
        ctx.send(self.node_of(primary), XPaxosMsg::Commit(m1));

        self.maybe_checkpoint(ctx);
        self.lazy_replicate(sn, ctx);
        self.drain_stashed(ctx);
    }

    /// COMMIT (digest form): t = 1 completion at the primary, general-case collection,
    /// or post-view-change proof accumulation. The signature must be the named
    /// replica's, over the commit digest (bound to the reply digest when the
    /// COMMIT carries one). A COMMIT that fails is dropped without suspecting
    /// anyone: anyone can send garbage under any name.
    pub(crate) fn on_commit(&mut self, m: CommitMsg, ctx: &mut Context<XPaxosMsg>) {
        if m.view != self.view {
            return;
        }
        ctx.charge(CryptoOp::VerifySig);
        if m.replica >= self.config.n() {
            return;
        }
        let signed =
            commit_statement_digest(&m.batch_digest, m.sn, m.view, m.reply_digest.as_ref());
        if !verify_replica_sig(&self.verifier, m.replica, &signed, &m.signature) {
            return;
        }
        self.process_commit(m, ctx);
    }

    /// Applies a verified COMMIT by one of three rules: it strengthens the
    /// proof of an entry already committed here, completes the t = 1
    /// primary's fast path, or joins the general-case collection. Split from
    /// [`Self::on_commit`] so commits replayed from the early-commit buffer —
    /// verified (and charged) on arrival, and invalidated by view changes
    /// clearing the buffer — don't charge verification twice.
    fn process_commit(&mut self, m: CommitMsg, ctx: &mut Context<XPaxosMsg>) {
        if let Some(existing) = self.commit_log.get_mut(m.sn) {
            strengthen_proof(existing, m);
        } else if self.config.t == 1 && self.is_primary_in(self.view) {
            self.complete_fast_path(m, ctx);
        } else {
            self.collect_commit(m, ctx);
        }
    }

    /// General case: collects one COMMIT per follower for a prepared entry.
    fn collect_commit(&mut self, m: CommitMsg, ctx: &mut Context<XPaxosMsg>) {
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
            .insert(m.replica, m.signature);
        self.note_peer_ack(m.sn, m.replica, ctx);
        self.try_complete_general(m.sn, ctx);
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
            self.suspect_view(None, ctx);
            return;
        }
        let follower = self.groups.followers(self.view)[0];
        if m.replica != follower {
            return;
        }
        self.note_peer_ack(m.sn, m.replica, ctx);
        let entry = CommitEntry {
            view: prep.view,
            sn: prep.sn,
            batch: prep.batch.clone(),
            primary_sig: prep.primary_sig,
            commit_sigs: BTreeMap::from([(follower, m.signature)]),
        };
        self.follower_commits.insert(m.sn.0, m);
        self.record_commit(entry, "fast-path", ctx);
        self.try_execute(ctx);
        self.maybe_checkpoint(ctx);
        self.proposed_in_flight = self.proposed_in_flight.saturating_sub(1);
        self.pump_pipeline(ctx, false);
    }

    /// General case: completes the commit of `sn` once every follower's COMMIT arrived.
    pub(crate) fn try_complete_general(&mut self, sn: SeqNum, ctx: &mut Context<XPaxosMsg>) {
        let followers = self.groups.followers(self.view);
        let Some(pending) = self.pending_commits.get(&sn.0) else {
            return;
        };
        if !pending.covers(&followers) {
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
            commit_sigs: self
                .pending_commits
                .remove(&sn.0)
                .unwrap_or_default()
                .into_map(),
        };
        self.record_commit(entry, "general", ctx);
        self.try_execute(ctx);
        self.maybe_checkpoint(ctx);
        self.lazy_replicate(sn, ctx);
        if self.is_primary_in(self.view) {
            // Free the batch's pipeline slot and propose more if requests wait.
            self.proposed_in_flight = self.proposed_in_flight.saturating_sub(1);
            self.pump_pipeline(ctx, false);
        }
    }

    /// Persists a Commit record, then enters the entry into the commit log:
    /// the only way a new entry — a first commit at its slot, or a higher
    /// view's replacing a lower one's — gets there. WAL recovery re-inserts
    /// records already written; proof strengthening edits an entry in place.
    pub(crate) fn log_commit(&mut self, entry: CommitEntry) {
        self.persist(|| crate::durable::DurableEvent::Commit(entry.clone()));
        self.commit_log.insert(entry);
    }

    /// Records a batch committed by the common case — `path` is the carry,
    /// fast-path or general completion — in the log and the statistics.
    fn record_commit(
        &mut self,
        entry: CommitEntry,
        path: &'static str,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let (sn, view) = (entry.sn, entry.view);
        self.log_commit(entry);
        self.committed_batches += 1;
        ctx.count("commits", 1);
        self.tel_event(ctx, "commit", || {
            format!("sn={} view={} {path}", sn.0, view.0)
        });
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
                    self.telemetry
                        .with_monitor(|mon| mon.mark_faulty(follower as u64));
                    self.tel_event(ctx, "diverge", || {
                        format!("sn={} follower={} reply digests differ", next.0, follower)
                    });
                }
                self.suspect_view(None, ctx);
                break;
            }
            // Released as cached, not through `answer_executed`: a request
            // the batch skipped as a duplicate keeps the reply of the view
            // it executed in.
            for req in &batch.requests {
                let cached = self.sessions.cached(req.client, req.timestamp);
                if let Some(reply) = cached.map(|c| c.reply.clone()) {
                    self.send_reply(reply, ctx);
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
            if self.sessions.executed(req.client, req.timestamp) {
                digests.push(Digest::of(b"duplicate-skip"));
                continue;
            }
            ctx.charge_ns(self.state.execution_cost_ns(&req.op));
            let payload = self.state.apply(&req.op);
            let rd = Digest::of(&payload);
            digests.push(rd);

            let (request, payload) = ((req.client, req.timestamp), is_primary.then_some(payload));
            let mut reply = ReplyMsg::bound((self.view, sn), request, &rd, payload, self.id);
            if attach_follower_commit {
                reply.follower_commit = self.follower_commits.get(&sn.0).cloned();
            }
            // Remember recent replies (with the raw reply digest, for
            // view re-binding) for duplicate suppression; the request's
            // monitor ends.
            if let Some(timer) = self.sessions.record(reply.clone(), rd) {
                ctx.cancel_timer(timer);
            }

            // Only active replicas answer clients (passive replicas execute
            // silently, as do rebuild replays — retransmissions are answered
            // from the rebuilt reply cache).
            if is_active && !self.replaying {
                self.tel_event(ctx, "reply", || {
                    format!("sn={} client={} ts={}", sn.0, req.client.0, req.timestamp)
                });
                self.send_reply(reply, ctx);
            }
        }
        digests
    }
}

/// Adds a COMMIT's signature to the proof of an entry already committed
/// (also how a view change rebuilds full commit certificates). A signature
/// counts only for the view the entry committed in: one over another view's
/// commit digest proves nothing about this entry. Not persisted (see
/// `Replica::persist`).
fn strengthen_proof(entry: &mut CommitEntry, m: CommitMsg) {
    if entry.view == m.view && entry.batch.digest() == m.batch_digest {
        entry.commit_sigs.insert(m.replica, m.signature);
    }
}

/// How far ahead of `next_sn` a follower buffers proposals and COMMITs:
/// roughly the pipeline depth. Anything farther ahead is dropped and
/// recovered by retransmission or a view change, exactly as a lost message
/// would be.
pub(super) fn reorder_window(config: &crate::config::XPaxosConfig) -> usize {
    config.pipeline.max_in_flight_batches.max(1) * 2 + 16
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
    use crate::byzantine::ByzantineBehavior;
    use crate::client::ClientWorkload;
    use crate::config::MAX_BATCH_BYTES;
    use crate::durable::SealedSnapshot;
    use crate::harness::{ClusterBuilder, LatencySpec, XPaxosCluster};
    use crate::log::{CommitEntry, PrepareEntry};
    use crate::messages::{
        client_request_digest, CommitCarryMsg, CommitMsg, PrepareMsg, ReplyMsg, SignedRequest,
        XPaxosMsg,
    };
    use crate::replica::sessions::{CACHE_ANSWER_SUSPECT_THRESHOLD, CLIENT_REPLY_CACHE};
    use crate::replica::{Phase, Replica, TOKEN_MONITOR};
    use crate::types::{
        client_key, replica_key, Batch, ClientId, ReplicaId, Request, SeqNum, ViewNumber,
    };
    use std::collections::{BTreeMap, BTreeSet};
    use xft_crypto::{Digest, Signature, Signer};
    use xft_simnet::{
        with_offline_context, Actor, Context, NodeId, PipelineConfig, SimDuration, SimMessage,
    };

    fn one_ms_cluster(clients: usize, requests: u64) -> XPaxosCluster {
        ClusterBuilder::new(1, clients)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(1)))
            .with_workload(ClientWorkload {
                requests: Some(requests),
                ..Default::default()
            })
            .build()
    }

    /// With the follower muted, the passive replica signs a COMMIT in the
    /// follower's name for the batch the primary proposed. The primary must
    /// not take it as the follower's commitment.
    #[test]
    fn a_commit_in_the_followers_name_under_another_key_commits_nothing() {
        let mut cluster = one_ms_cluster(1, 1);
        cluster.replica_mut(1).set_behavior(ByzantineBehavior::Mute);
        cluster.run_for(SimDuration::from_millis(20));
        let (sn, view) = (SeqNum(1), ViewNumber(0));
        let batch_digest = cluster
            .replica(0)
            .prepare_log
            .get(sn)
            .expect("the primary proposed the request")
            .batch
            .digest();
        let passive = Signer::new(&cluster.registry, replica_key(2));
        let commit = CommitMsg {
            view,
            sn,
            batch_digest,
            replica: 1,
            reply_digest: None,
            signature: passive.sign_digest(&CommitEntry::commit_digest(&batch_digest, sn, view)),
        };
        cluster.sim.post_message(2, 0, XPaxosMsg::Commit(commit));
        cluster.run_for(SimDuration::from_millis(20));
        assert_eq!(cluster.replica(0).committed_batches(), 0);
        assert_eq!(cluster.sim.metrics().counter("commits"), 0);
    }

    /// Client 1 signs a request that names client 0. The primary must drop it
    /// at the batched verification, so it is never proposed.
    #[test]
    fn a_request_naming_another_client_is_never_proposed() {
        let mut cluster = one_ms_cluster(2, 0);
        let request = Request::new(ClientId(0), 999_999, vec![0xEE; 64].into());
        let client1 = Signer::new(&cluster.registry, client_key(ClientId(1)));
        let forged = SignedRequest {
            signature: client1.sign_digest(&client_request_digest(&request)),
            request,
        };
        let client1_node = cluster.config.client_nodes[1];
        cluster
            .sim
            .post_message(client1_node, 0, XPaxosMsg::Replicate(forged));
        cluster.run_for(SimDuration::from_millis(50));
        assert_eq!(cluster.sim.metrics().counter("batches_proposed"), 0);
        assert_eq!(cluster.sim.metrics().counter("sig_batch_fallback"), 1);
        assert!(cluster.replica(0).prepare_log.is_empty());
    }

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

    /// An idle cluster (no client requests) with synchronous groups of t + 1.
    fn idle_cluster(t: usize) -> XPaxosCluster {
        ClusterBuilder::new(t, 1)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(1)))
            .with_workload(ClientWorkload {
                requests: Some(0),
                ..Default::default()
            })
            .build()
    }

    fn signer(cluster: &XPaxosCluster, r: ReplicaId) -> Signer {
        Signer::new(&cluster.registry, replica_key(r))
    }

    /// A one-request batch from client 0 (timestamp `sn`), with its signature.
    fn signed_batch(cluster: &XPaxosCluster, sn: u64) -> (Batch, Vec<Signature>) {
        let request = Request::new(ClientId(0), sn, vec![sn as u8; 8].into());
        let sig = Signer::new(&cluster.registry, client_key(ClientId(0)))
            .sign_digest(&client_request_digest(&request));
        (Batch::single(request), vec![sig])
    }

    /// What a row delivers to replica 1, a follower of view 0 (primary 0).
    #[derive(Clone, Copy)]
    enum In {
        /// The primary's proposal for `sn`, of the kind this `t` uses.
        Proposal(u64),
        /// The same, signed by replica 2 in the primary's name.
        ForgedProposal(u64),
        /// The same, without its client signature.
        UnsignedProposal(u64),
        /// A PREPARE the primary signed, whatever `t` is.
        Prepare(u64),
        /// A COMMIT-CARRY the primary signed, whatever `t` is.
        Carry(u64),
        /// Replica 2's COMMIT for `sn`.
        CommitFrom2(u64),
    }

    /// Builds the message `input` describes, and the replica that sends it.
    fn message(cluster: &XPaxosCluster, t: usize, input: In) -> (ReplicaId, XPaxosMsg) {
        let view = ViewNumber(0);
        let proposal = |sn: u64, carry: bool, signer_id: ReplicaId, client_sigs: bool| {
            let (batch, sigs) = signed_batch(cluster, sn);
            let sn = SeqNum(sn);
            let digest = if carry {
                CommitEntry::commit_digest(&batch.digest(), sn, view)
            } else {
                PrepareEntry::signed_digest(&batch.digest(), sn, view)
            };
            let signature = signer(cluster, signer_id).sign_digest(&digest);
            let client_sigs = if client_sigs { sigs } else { Vec::new() };
            let msg = if carry {
                XPaxosMsg::CommitCarry(CommitCarryMsg {
                    view,
                    sn,
                    batch,
                    client_sigs,
                    signature,
                })
            } else {
                XPaxosMsg::Prepare(PrepareMsg {
                    view,
                    sn,
                    batch,
                    client_sigs,
                    signature,
                })
            };
            (0, msg)
        };
        match input {
            In::Proposal(sn) => proposal(sn, t == 1, 0, true),
            In::ForgedProposal(sn) => proposal(sn, t == 1, 2, true),
            In::UnsignedProposal(sn) => proposal(sn, t == 1, 0, false),
            In::Prepare(sn) => proposal(sn, false, 0, true),
            In::Carry(sn) => proposal(sn, true, 0, true),
            In::CommitFrom2(sn) => {
                let batch_digest = signed_batch(cluster, sn).0.digest();
                let sn = SeqNum(sn);
                let commit = CommitMsg {
                    view,
                    sn,
                    batch_digest,
                    replica: 2,
                    reply_digest: None,
                    signature: signer(cluster, 2).sign_digest(&CommitEntry::commit_digest(
                        &batch_digest,
                        sn,
                        view,
                    )),
                };
                (2, XPaxosMsg::Commit(commit))
            }
        }
    }

    /// What replica 1 holds and emitted after a row.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Outcome {
        stashed: Vec<u64>,
        prepared: Vec<u64>,
        committed: Vec<u64>,
        sent: BTreeSet<&'static str>,
        proposals_stashed: u64,
        proposals_dropped: u64,
        suspects_sent: u64,
    }

    /// Delivers `inputs` in order to replica 1 of a fresh idle cluster, after
    /// `setup`, in one offline callback.
    fn deliver(t: usize, setup: fn(&mut Replica), inputs: &[In]) -> Outcome {
        let mut cluster = idle_cluster(t);
        let msgs: Vec<_> = inputs.iter().map(|i| message(&cluster, t, *i)).collect();
        let replica = cluster.replica_mut(1);
        assert!(replica.is_active_in(ViewNumber(0)) && !replica.is_primary_in(ViewNumber(0)));
        setup(replica);
        with_offline_context(replica.node_of(1), |ctx| {
            for (from, msg) in msgs {
                replica.on_message(replica.node_of(from), msg, ctx);
            }
            Outcome {
                stashed: replica.stashed_proposals.keys().collect(),
                prepared: replica.prepare_log.iter().map(|e| e.sn.0).collect(),
                committed: replica.commit_log.iter().map(|e| e.sn.0).collect(),
                sent: ctx.pending_sends().iter().map(|o| o.msg.kind()).collect(),
                proposals_stashed: ctx.counted("proposals_stashed"),
                proposals_dropped: ctx.counted("proposals_dropped"),
                suspects_sent: ctx.counted("suspects_sent"),
            }
        })
    }

    fn as_is(_: &mut Replica) {}

    fn past_sn_5(r: &mut Replica) {
        r.next_sn = SeqNum(5);
    }

    /// Sequencing at 3 while execution is still at 0 (a state transfer is
    /// filling the checkpointed prefix).
    fn execution_lags(r: &mut Replica) {
        r.next_sn = SeqNum(3);
    }

    /// A table row: what it checks, at which `t`, the replica's setup, the
    /// inputs and the outcome they must give.
    type Row = (
        &'static str,
        &'static [usize],
        fn(&mut Replica),
        Vec<In>,
        Outcome,
    );

    /// One row per branch of `on_proposal`, each at the `t` values it names.
    #[test]
    fn proposal_admission_table() {
        let kinds = |k: &[&'static str]| k.iter().copied().collect::<BTreeSet<_>>();
        let suspected = Outcome {
            sent: kinds(&["SUSPECT", "VIEW-CHANGE"]),
            suspects_sent: 1,
            ..Outcome::default()
        };
        let stashed = |sn| Outcome {
            stashed: vec![sn],
            proposals_stashed: 1,
            ..Outcome::default()
        };
        let both: &[usize] = &[1, 2];
        let rows: Vec<Row> = vec![
            (
                "in order: executed, committed, m1 to the primary",
                &[1],
                as_is,
                vec![In::Proposal(1)],
                Outcome {
                    prepared: vec![1],
                    committed: vec![1],
                    sent: kinds(&["COMMIT", "LAZY-REPLICATE"]),
                    ..Outcome::default()
                },
            ),
            (
                "in order: prepared, COMMIT broadcast",
                &[2],
                as_is,
                vec![In::Proposal(1)],
                Outcome {
                    prepared: vec![1],
                    sent: kinds(&["COMMIT"]),
                    ..Outcome::default()
                },
            ),
            (
                "bad primary signature: suspected",
                both,
                as_is,
                vec![In::ForgedProposal(1)],
                suspected.clone(),
            ),
            (
                "client signature count mismatch: suspected",
                both,
                as_is,
                vec![In::UnsignedProposal(1)],
                suspected,
            ),
            (
                "ahead of next_sn: stashed",
                both,
                as_is,
                vec![In::Proposal(3)],
                stashed(3),
            ),
            (
                "past the reorder window: dropped",
                both,
                as_is,
                vec![In::Proposal(100)],
                Outcome {
                    proposals_dropped: 1,
                    ..Outcome::default()
                },
            ),
            (
                "stale: dropped",
                both,
                past_sn_5,
                vec![In::Proposal(3)],
                Outcome::default(),
            ),
            (
                "execution lags: deferred",
                &[1],
                execution_lags,
                vec![In::Proposal(4)],
                stashed(4),
            ),
            (
                "execution lags: a PREPARE does not wait for it",
                &[2],
                execution_lags,
                vec![In::Proposal(4)],
                Outcome {
                    prepared: vec![4],
                    sent: kinds(&["COMMIT"]),
                    ..Outcome::default()
                },
            ),
            (
                "a COMMIT before its PREPARE is replayed once the PREPARE lands",
                &[2],
                as_is,
                vec![In::CommitFrom2(1), In::Proposal(1)],
                Outcome {
                    prepared: vec![1],
                    committed: vec![1],
                    sent: kinds(&["COMMIT", "LAZY-REPLICATE", "REPLY"]),
                    ..Outcome::default()
                },
            ),
            (
                "a PREPARE at t = 1: dropped",
                &[1],
                as_is,
                vec![In::Prepare(1)],
                Outcome::default(),
            ),
            (
                "a COMMIT-CARRY at t = 2: dropped",
                &[2],
                as_is,
                vec![In::Carry(1)],
                Outcome::default(),
            ),
        ];
        for (name, ts, setup, inputs, expected) in rows {
            for &t in ts {
                assert_eq!(deliver(t, setup, &inputs), expected, "t = {t}: {name}");
            }
        }
    }

    /// Replica 2, active in view 1 (= {0, 2}), holds a view-0 entry whose
    /// proof carries replica 0's view-0 commit signature. A valid view-1
    /// COMMIT from replica 0 for the same batch signs another view's digest:
    /// it must not enter (or overwrite) that proof.
    #[test]
    fn a_commit_of_the_current_view_leaves_an_older_views_proof_alone() {
        let mut cluster = idle_cluster(1);
        let (sn, old, current) = (SeqNum(1), ViewNumber(0), ViewNumber(1));
        let (batch, _) = signed_batch(&cluster, 1);
        let batch_digest = batch.digest();
        let primary = signer(&cluster, 0);
        let old_sig = primary.sign_digest(&CommitEntry::commit_digest(&batch_digest, sn, old));
        let commit = CommitMsg {
            view: current,
            sn,
            batch_digest,
            replica: 0,
            reply_digest: None,
            signature: primary.sign_digest(&CommitEntry::commit_digest(&batch_digest, sn, current)),
        };
        let replica = cluster.replica_mut(2);
        assert!(replica.groups.is_active(current, 0) && replica.is_active_in(current));
        replica.view = current;
        replica.commit_log.insert(CommitEntry {
            view: old,
            sn,
            batch,
            primary_sig: old_sig,
            commit_sigs: BTreeMap::from([(0, old_sig)]),
        });
        with_offline_context(replica.node_of(2), |ctx| {
            replica.on_message(replica.node_of(0), XPaxosMsg::Commit(commit), ctx)
        });
        let entry = replica.commit_log.get(sn).expect("entry kept");
        assert_eq!(entry.commit_sigs, BTreeMap::from([(0, old_sig)]));
    }

    /// What a row of the client-request table delivers: client 0's request
    /// `ts`, fresh, retransmitted, or retransmitted under a signature that
    /// does not verify.
    #[derive(Clone, Copy)]
    enum Req {
        Replicate(u64),
        Resend(u64),
        BadResend(u64),
    }

    /// What the replica holds and emitted after a client-request row.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Admitted {
        sent: BTreeSet<&'static str>,
        /// The view of every REPLY sent, in order.
        reply_views: Vec<u64>,
        queued: usize,
        monitored: usize,
        shed: u64,
        pruned: u64,
        escalated: u64,
    }

    /// Delivers `inputs` to replica `at` (0 is view 0's primary, 1 a
    /// follower) of a fresh idle cluster, after `setup`, in one offline
    /// callback.
    fn admit(t: usize, at: ReplicaId, setup: fn(&mut Replica), inputs: &[Req]) -> Admitted {
        let mut cluster = idle_cluster(t);
        let client = Signer::new(&cluster.registry, client_key(ClientId(0)));
        let msgs: Vec<XPaxosMsg> = inputs
            .iter()
            .map(|input| {
                let (Req::Replicate(ts) | Req::Resend(ts) | Req::BadResend(ts)) = *input;
                let request = Request::new(ClientId(0), ts, vec![ts as u8; 8].into());
                let mut signature = client.sign_digest(&client_request_digest(&request));
                if matches!(input, Req::BadResend(_)) {
                    signature = Signature::forged(client_key(ClientId(0)));
                }
                let signed = SignedRequest { request, signature };
                match input {
                    Req::Replicate(_) => XPaxosMsg::Replicate(signed),
                    Req::Resend(_) | Req::BadResend(_) => XPaxosMsg::Resend(signed),
                }
            })
            .collect();
        let client_node = cluster.config.client_nodes[0];
        let replica = cluster.replica_mut(at);
        setup(replica);
        with_offline_context(replica.node_of(at), |ctx| {
            for msg in msgs {
                replica.on_message(client_node, msg, ctx);
            }
            let sends = ctx.pending_sends();
            Admitted {
                sent: sends.iter().map(|o| o.msg.kind()).collect(),
                reply_views: sends
                    .iter()
                    .filter_map(|o| match &o.msg {
                        XPaxosMsg::Reply(r) => Some(r.view.0),
                        _ => None,
                    })
                    .collect(),
                queued: replica.pending_requests.len(),
                monitored: replica.sessions.monitored(),
                shed: ctx.counted("requests_shed"),
                pruned: ctx.counted("cache_answers_pruned"),
                escalated: ctx.counted("cache_answer_suspects"),
            }
        })
    }

    /// Client 0's request 1 executed at sequence number 1 in view 0.
    fn executed(r: &mut Replica) {
        let rd = Digest::of(b"result");
        let reply = ReplyMsg::bound(
            (ViewNumber(0), SeqNum(1)),
            (ClientId(0), 1),
            &rd,
            None,
            r.id,
        );
        r.sessions.record(reply, rd);
    }

    /// The same, and the replica has since moved to view 1, where replica 0
    /// is still the primary.
    fn executed_then_view_1(r: &mut Replica) {
        executed(r);
        r.view = ViewNumber(1);
        assert!(r.is_primary_in(r.view));
    }

    /// Executed, but its reply has been pruned from the cache by as many
    /// later executions as the cache holds.
    fn pruned(r: &mut Replica) {
        executed(r);
        for ts in 2..=CLIENT_REPLY_CACHE as u64 + 1 {
            let rd = Digest::of(&ts.to_le_bytes());
            let request = (ClientId(0), ts);
            let reply = ReplyMsg::bound((ViewNumber(0), SeqNum(ts)), request, &rd, None, r.id);
            r.sessions.record(reply, rd);
        }
        assert!(r.sessions.cached(ClientId(0), 1).is_none());
    }

    /// Executed, and re-answered one time short of escalating.
    fn one_short_of_escalation(r: &mut Replica) {
        executed(r);
        let cached = r.sessions.cached(ClientId(0), 1).unwrap();
        cached.resends = CACHE_ANSWER_SUSPECT_THRESHOLD - 1;
    }

    /// The same re-answers, counted in view 0; the replica has since moved
    /// to view 1.
    fn one_short_in_view_0_then_view_1(r: &mut Replica) {
        one_short_of_escalation(r);
        r.view = ViewNumber(1);
        assert!(r.is_primary_in(r.view));
    }

    /// Every pipeline slot is in flight, so admitted requests stay queued.
    fn pipe_full(r: &mut Replica) {
        r.proposed_in_flight = r.config.pipeline.max_in_flight_batches;
    }

    /// The same, with room for one queued request.
    fn one_queue_slot(r: &mut Replica) {
        pipe_full(r);
        r.config.pipeline.max_pending_requests = 1;
    }

    fn in_view_change(r: &mut Replica) {
        r.phase = Phase::ViewChange;
    }

    /// One row per branch of `on_client_request`, at t = 1 and t = 2 unless
    /// the row names one.
    #[test]
    fn client_request_table() {
        let kinds = |k: &[&'static str]| k.iter().copied().collect::<BTreeSet<_>>();
        let both: &[usize] = &[1, 2];
        let answered = |view| Admitted {
            sent: kinds(&["REPLY"]),
            reply_views: vec![view],
            ..Admitted::default()
        };
        let queued = |queued, monitored| Admitted {
            queued,
            monitored,
            ..Admitted::default()
        };
        type Row = (
            &'static str,
            &'static [usize],
            ReplicaId,
            fn(&mut Replica),
            Vec<Req>,
            Admitted,
        );
        let rows: Vec<Row> = vec![
            (
                "retransmission with a bad signature: dropped",
                both,
                0,
                as_is,
                vec![Req::BadResend(1)],
                Admitted::default(),
            ),
            (
                "executed: answered from the reply cache",
                both,
                0,
                executed,
                vec![Req::Replicate(1)],
                answered(0),
            ),
            (
                "executed in an older view: re-bound and answered",
                both,
                0,
                executed_then_view_1,
                vec![Req::Resend(1)],
                answered(1),
            ),
            (
                "executed, reply pruned: counted, not answered",
                both,
                0,
                pruned,
                vec![Req::Resend(1)],
                Admitted {
                    pruned: 1,
                    ..Admitted::default()
                },
            ),
            (
                "escalation at the threshold: answered, then the view suspected",
                both,
                0,
                one_short_of_escalation,
                vec![Req::Resend(1)],
                Admitted {
                    sent: kinds(&["REPLY", "SUSPECT", "SUSPECT-CLIENT", "VIEW-CHANGE"]),
                    reply_views: vec![0],
                    escalated: 1,
                    ..Admitted::default()
                },
            ),
            (
                "re-answers counted in an older view: re-bound and answered, not escalated",
                both,
                0,
                one_short_in_view_0_then_view_1,
                vec![Req::Resend(1)],
                answered(1),
            ),
            (
                "duplicate of a queued request: one slot",
                both,
                0,
                pipe_full,
                vec![Req::Replicate(1), Req::Replicate(1)],
                queued(1, 0),
            ),
            (
                "retransmitted duplicate of a queued request: one slot, monitored",
                both,
                0,
                pipe_full,
                vec![Req::Replicate(1), Req::Resend(1)],
                queued(1, 1),
            ),
            (
                "queue full: shed with BUSY",
                both,
                0,
                one_queue_slot,
                vec![Req::Replicate(1), Req::Replicate(2)],
                Admitted {
                    sent: kinds(&["BUSY"]),
                    queued: 1,
                    shed: 1,
                    ..Admitted::default()
                },
            ),
            (
                "during a view change: buffered",
                both,
                1,
                in_view_change,
                vec![Req::Replicate(1)],
                queued(1, 0),
            ),
            (
                "at the primary: queued and proposed at once",
                &[1],
                0,
                as_is,
                vec![Req::Replicate(1)],
                Admitted {
                    sent: kinds(&["COMMIT-CARRY"]),
                    ..Admitted::default()
                },
            ),
            (
                "at the primary: queued and proposed at once",
                &[2],
                0,
                as_is,
                vec![Req::Replicate(1)],
                Admitted {
                    sent: kinds(&["PREPARE"]),
                    ..Admitted::default()
                },
            ),
            (
                "at a non-primary: forwarded to the primary",
                both,
                1,
                as_is,
                vec![Req::Replicate(1)],
                Admitted {
                    sent: kinds(&["REPLICATE"]),
                    ..Admitted::default()
                },
            ),
            (
                "retransmitted at a non-primary: forwarded and monitored",
                both,
                1,
                as_is,
                vec![Req::Resend(1)],
                Admitted {
                    sent: kinds(&["REPLICATE"]),
                    monitored: 1,
                    ..Admitted::default()
                },
            ),
        ];
        for (name, ts, at, setup, inputs, expected) in rows {
            for &t in ts {
                assert_eq!(admit(t, at, setup, &inputs), expected, "t = {t}: {name}");
            }
        }
    }

    /// Forwarding the view-change buffer sends each request under the trace
    /// id it was admitted with, skips executed ones, and leaves the step's
    /// own id in place afterwards.
    #[test]
    fn forwarded_buffered_requests_keep_their_trace_ids() {
        let mut cluster = idle_cluster(1);
        let client = Signer::new(&cluster.registry, client_key(ClientId(0)));
        let replica = cluster.replica_mut(1);
        executed(replica);
        for (ts, trace) in [(1, 11), (2, 22), (3, 33)] {
            let request = Request::new(ClientId(0), ts, vec![ts as u8; 8].into());
            let signature = client.sign_digest(&client_request_digest(&request));
            let signed = SignedRequest { request, signature };
            replica.pending_requests.push_back((signed, trace));
        }
        let (traces, after) = with_offline_context(replica.node_of(1), |ctx| {
            ctx.set_trace(99);
            replica.forward_buffered_requests(ctx);
            let sends = ctx.pending_sends();
            assert!(sends.iter().all(|o| o.msg.kind() == "REPLICATE"));
            let traces: Vec<u64> = sends.iter().map(|o| o.trace).collect();
            (traces, ctx.trace())
        });
        assert_eq!(traces, vec![22, 33], "request 1 executed: not forwarded");
        assert_eq!(after, 99);
        assert!(replica.pending_requests.is_empty());
    }

    /// What a reset path leaves of client 0's request state. Before the
    /// reset, request 1 has executed (its reply cached), request 2 is queued
    /// and monitored (the first monitor, token 0) and request 3 is queued.
    #[derive(Debug, PartialEq)]
    struct Survives {
        /// Request 1 is still known as executed: a fresh copy is not queued.
        executed: bool,
        /// Its reply is still cached: a fresh copy is answered.
        reply: bool,
        /// Requests still queued for a batch.
        queued: usize,
        /// Request 2's monitor still fires: its timeout suspects the view.
        monitor: bool,
        /// The monitor token counter kept counting: the next monitor is
        /// token 1.
        counter: bool,
    }

    /// Builds the state [`Survives`] describes on replica 0 of a fresh
    /// cluster (view 0's primary, t = 1, every pipeline slot in flight) and
    /// applies `reset`. Returns the cluster, the client's node and client
    /// 0's signed requests 0–4.
    fn reset_replica(
        reset: fn(&mut Replica, &mut Context<XPaxosMsg>),
    ) -> (XPaxosCluster, NodeId, Vec<SignedRequest>) {
        let mut cluster = idle_cluster(1);
        let client = Signer::new(&cluster.registry, client_key(ClientId(0)));
        let signed: Vec<SignedRequest> = (0..5)
            .map(|ts| {
                let request = Request::new(ClientId(0), ts, vec![ts as u8; 8].into());
                let signature = client.sign_digest(&client_request_digest(&request));
                SignedRequest { request, signature }
            })
            .collect();
        let client_node = cluster.config.client_nodes[0];
        let replica = cluster.replica_mut(0);
        pipe_full(replica);
        with_offline_context(replica.node_of(0), |ctx| {
            let batch = Batch::single(signed[1].request.clone());
            replica.execute_batch_now(SeqNum(1), &batch, ctx);
            replica.on_message(client_node, XPaxosMsg::Resend(signed[2].clone()), ctx);
            replica.on_message(client_node, XPaxosMsg::Replicate(signed[3].clone()), ctx);
        });
        with_offline_context(replica.node_of(0), |ctx| reset(replica, ctx));
        (cluster, client_node, signed)
    }

    /// What `reset` leaves. Probing a monitor suspects the view, so the
    /// monitor probe runs on a second, identically reset replica.
    fn after_reset(reset: fn(&mut Replica, &mut Context<XPaxosMsg>)) -> Survives {
        let (mut cluster, _, _) = reset_replica(reset);
        let replica = cluster.replica_mut(0);
        let monitor = with_offline_context(replica.node_of(0), |ctx| {
            replica.on_timer(TOKEN_MONITOR, ctx);
            ctx.counted("suspects_sent") == 1
        });
        let (mut cluster, client_node, signed) = reset_replica(reset);
        let replica = cluster.replica_mut(0);
        let queued = replica.pending_requests.len();
        pipe_full(replica);
        with_offline_context(replica.node_of(0), |ctx| {
            replica.on_message(client_node, XPaxosMsg::Replicate(signed[1].clone()), ctx);
            let reply = ctx.pending_sends().iter().any(|o| o.msg.kind() == "REPLY");
            let executed = replica.pending_requests.len() == queued;
            replica.on_message(client_node, XPaxosMsg::Resend(signed[4].clone()), ctx);
            replica.on_timer(TOKEN_MONITOR + 1, ctx);
            Survives {
                executed,
                reply,
                queued,
                monitor,
                counter: ctx.counted("suspects_sent") == 1,
            }
        })
    }

    /// One row per path that resets client-request state, naming what each
    /// keeps: executed requests, cached replies, queued requests, monitors
    /// and the monitor token counter.
    #[test]
    fn request_state_reset_table() {
        let survives = |executed, reply, queued, monitor| Survives {
            executed,
            reply,
            queued,
            monitor,
            counter: true,
        };
        type Row = (
            &'static str,
            fn(&mut Replica, &mut Context<XPaxosMsg>),
            Survives,
        );
        let rows: Vec<Row> = vec![
            (
                "no reset: everything",
                |_, _| {},
                survives(true, true, 2, true),
            ),
            (
                "clear_volatile_state: only the token counter",
                |r, _| r.clear_volatile_state(),
                survives(false, false, 0, false),
            ),
            (
                "cancel_volatile_timers: all but the monitors",
                |r, ctx| r.cancel_volatile_timers(ctx),
                survives(true, true, 2, false),
            ),
            (
                "on_recover: all but the monitors",
                |r, ctx| r.on_recover(ctx),
                survives(true, true, 2, false),
            ),
            (
                "discard_executed_state: the queue and the monitors",
                |r, _| r.discard_executed_state(),
                survives(false, false, 2, true),
            ),
            (
                "adopt_sealed_snapshot of its own state: rebuilt from the image",
                |r, ctx| {
                    let image = r.capture_checkpoint(ctx);
                    let sealed = SealedSnapshot {
                        image,
                        proof: Vec::new(),
                    };
                    assert!(r.adopt_sealed_snapshot(sealed, false, ctx));
                },
                survives(true, true, 2, true),
            ),
            (
                "forward_buffered_requests: all but the queue",
                |r, ctx| r.forward_buffered_requests(ctx),
                survives(true, true, 0, true),
            ),
        ];
        for (name, reset, expected) in rows {
            assert_eq!(after_reset(reset), expected, "{name}");
        }
    }
}
