//! The XPaxos client (paper §4.2 and Algorithm 4), generalized to a windowed
//! request pipeline.
//!
//! The client keeps up to `pipeline.client_window` requests outstanding, each
//! with its own timestamp, issue time and retransmission timer; replies are
//! matched to outstanding requests by timestamp. `client_window = 1` is
//! exactly the closed-loop client of the paper's micro-benchmarks; larger
//! windows drive the primary's batching pipeline with multiple requests in
//! flight. A request *commits* when it has the required matching replies (a
//! single primary reply carrying the follower's signed commit for t = 1, or
//! t + 1 matching replies from all active replicas in the general case). On
//! timeout the client broadcasts a RE-SEND to the active replicas; on a BUSY
//! notice (the primary shed the request under load) it backs off briefly and
//! re-sends to the primary alone; and on receiving a SUSPECT message it
//! follows the view change, re-sending every outstanding request to the new
//! primary.
//!
//! Each rule is written once: a request is signed once, when issued, and
//! every re-send repeats that [`SignedRequest`]; `send_to_primary` and
//! `arm_retransmit` are the only primary send and timer arm; `commit_quorum`
//! is the commit rule, a pure function of the replies collected. Every send
//! of a request — the first, a BUSY retry, a RE-SEND, a re-send after a
//! SUSPECT or a recovery — goes through `send_for`, which stamps it with the
//! request's own trace id (`xft_telemetry::trace::mint` of client and
//! timestamp) whatever step it runs in, so every hop downstream tags its
//! flight-recorder and evidence records with that id.

use crate::config::XPaxosConfig;
use crate::messages::{
    client_request_digest, BusyMsg, ReplyMsg, SignedRequest, SuspectMsg, XPaxosMsg,
};
use crate::sync_group::SyncGroups;
use crate::types::{client_key, ClientId, ReplicaId, Request, Timestamp, ViewNumber};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;
use xft_crypto::{CryptoOp, Digest, KeyRegistry, Signer, Verifier};
use xft_simnet::{Actor, Context, NodeId, SimDuration, SimTime, TimerId};

/// Hard cap on the request window. What it bounds is re-answerability:
/// replicas keep the last
/// [`CLIENT_REPLY_CACHE`](crate::replica::sessions) replies per client (twice
/// this cap) to answer retransmissions, and with the timestamp spread held at
/// the window, every request a client can still retransmit finds its reply
/// there. Executed requests are kept exactly and forever, so a retransmission
/// whose reply was pruned is swallowed, never re-executed.
pub const MAX_CLIENT_WINDOW: usize = 128;

/// Maximum timestamp spread between a client's oldest outstanding request and
/// the newest one it will issue. The window bounds how many requests are
/// outstanding, but not how far the stream can slide past a stuck request —
/// and replicas can only re-answer retransmissions from a bounded reply cache
/// (`CLIENT_REPLY_CACHE = 2 × MAX_CLIENT_WINDOW` entries per client). Holding
/// the spread at `MAX_CLIENT_WINDOW` guarantees a stuck request's reply is
/// still cached whenever its retransmission arrives.
const MAX_TS_SPREAD: u64 = MAX_CLIENT_WINDOW as u64;

/// Consecutive BUSY notices a request tolerates before the client stops
/// resetting its timeout. Without this cap a faulty primary could answer
/// every retry with an unsigned BUSY and suppress the RE-SEND broadcast (and
/// with it the Algorithm-4 monitors) forever — bounded backoff means
/// sustained shedding still escalates to the fault-detection path.
const MAX_BUSY_BACKOFFS: u32 = 3;

/// Unit of the BUSY back-off: the client waits 4–12 of these (jittered) before
/// re-sending a shed request, a few of the primary's batch periods.
const BUSY_BACKOFF_UNIT: SimDuration = SimDuration::from_millis(2);

/// Timer token used for open-loop / think-time pacing.
const TOKEN_NEXT_REQUEST: u64 = 1;
/// Timer token base for per-request retransmission timeouts; the request's
/// timestamp is added, so every outstanding request has a distinct token.
const TOKEN_RETRANSMIT_BASE: u64 = 1 << 32;
/// Bit position of the sub-client index in a [`MuxClient`] timer token. All
/// plain client tokens fit far below it (`TOKEN_RETRANSMIT_BASE` plus a
/// timestamp), so `token >> TOKEN_SUB_SHIFT` recovers the sub-client.
const TOKEN_SUB_SHIFT: u64 = 40;

/// A per-request operation generator: maps the client-local request timestamp
/// (1, 2, 3, …) to the operation payload. Lets every request of one client
/// carry a distinct operation (the chaos workload issues seeded random
/// reads/writes this way) while staying deterministic.
pub type OpFactory = dyn Fn(Timestamp) -> Bytes + Send + Sync;

/// Workload configuration for a client.
#[derive(Clone)]
pub struct ClientWorkload {
    /// Payload size of each request in bytes (1 kB and 4 kB in the paper). Ignored when
    /// `op_bytes` is set.
    pub payload_size: usize,
    /// Number of requests to issue; `None` keeps the loop running until the
    /// simulation ends.
    pub requests: Option<u64>,
    /// Think time between a commit and the next request (0 = saturating loop).
    pub think_time: SimDuration,
    /// Explicit operation payload (e.g. an encoded coordination-service operation for
    /// the ZooKeeper macro-benchmark); when `None` the op is `payload_size` zero bytes.
    pub op_bytes: Option<Bytes>,
    /// Per-request operation generator; takes precedence over `op_bytes`.
    pub op_factory: Option<Arc<OpFactory>>,
    /// Record an invocation/response history entry per request (the chaos
    /// linearizability checker consumes it). Off by default: long benchmark
    /// runs should not accumulate per-op records.
    pub record_history: bool,
}

impl std::fmt::Debug for ClientWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientWorkload")
            .field("payload_size", &self.payload_size)
            .field("requests", &self.requests)
            .field("think_time", &self.think_time)
            .field("op_bytes", &self.op_bytes.as_ref().map(|b| b.len()))
            .field("op_factory", &self.op_factory.is_some())
            .field("record_history", &self.record_history)
            .finish()
    }
}

impl Default for ClientWorkload {
    fn default() -> Self {
        ClientWorkload {
            payload_size: 1024,
            requests: None,
            think_time: SimDuration::ZERO,
            op_bytes: None,
            op_factory: None,
            record_history: false,
        }
    }
}

/// One entry of a client's recorded invocation/response history
/// (`record_history` workloads). An entry with `completed_at == None` was
/// invoked but never committed before the run ended — the operation may or
/// may not have taken effect, which is exactly what a linearizability checker
/// must treat as an open interval.
#[derive(Debug, Clone)]
pub struct HistoryRecord {
    /// Client-local request timestamp (1, 2, 3, …).
    pub timestamp: Timestamp,
    /// The operation payload submitted to the replicated service.
    pub op: Bytes,
    /// When the request was first issued.
    pub invoked_at: SimTime,
    /// When the commit condition was met (`None` = still outstanding).
    pub completed_at: Option<SimTime>,
    /// The application-level reply payload, when a committed reply carried it.
    pub result: Option<Bytes>,
    /// Sequence number the request committed at, when known.
    pub sn: Option<u64>,
}

/// One outstanding (issued, uncommitted) request.
struct Pending {
    /// The request as signed when issued; every re-send repeats it.
    signed: SignedRequest,
    issued_at: SimTime,
    /// Matching replies per replica (general case).
    replies: BTreeMap<ReplicaId, ReplyMsg>,
    retransmit_timer: TimerId,
    retransmissions: u32,
    /// Set when the primary shed this request with BUSY: the next timer firing
    /// re-sends to the primary alone instead of broadcasting a RE-SEND.
    busy_backoff: bool,
    /// BUSY notices received for this request (capped by
    /// [`MAX_BUSY_BACKOFFS`]).
    busy_count: u32,
}

/// An XPaxos client actor with a configurable request window.
pub struct Client {
    id: ClientId,
    config: XPaxosConfig,
    groups: SyncGroups,
    signer: Signer,
    #[allow(dead_code)]
    verifier: Verifier,
    workload: ClientWorkload,
    /// The client's current view estimate.
    view: ViewNumber,
    /// Timestamp of the most recently issued request (= requests issued).
    next_ts: Timestamp,
    /// Outstanding requests keyed by timestamp, at most `client_window` deep.
    pending: BTreeMap<Timestamp, Pending>,
    committed: u64,
    stopped: bool,
    /// Invocation/response log (only populated with `record_history`).
    history: BTreeMap<Timestamp, HistoryRecord>,
    /// Offset added to every timer token. Zero for a standalone client; a
    /// [`MuxClient`] gives each sub-client `index << TOKEN_SUB_SHIFT` so
    /// their timers stay distinguishable inside one shared actor.
    token_base: u64,
}

impl Client {
    /// Creates a client actor.
    pub fn new(
        id: ClientId,
        config: XPaxosConfig,
        registry: &Arc<KeyRegistry>,
        workload: ClientWorkload,
    ) -> Self {
        let signer = Signer::new(registry, client_key(id));
        let verifier = Verifier::new(registry.clone());
        let groups = SyncGroups::new(config.t);
        Client {
            id,
            config,
            groups,
            signer,
            verifier,
            workload,
            view: ViewNumber(0),
            next_ts: 0,
            pending: BTreeMap::new(),
            committed: 0,
            stopped: false,
            history: BTreeMap::new(),
            token_base: 0,
        }
    }

    /// The client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Number of requests this client has committed.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Number of requests currently outstanding.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The client's current view estimate.
    pub fn view(&self) -> ViewNumber {
        self.view
    }

    /// The recorded invocation/response history, in issue order (empty unless
    /// the workload set `record_history`).
    pub fn history(&self) -> Vec<HistoryRecord> {
        self.history.values().cloned().collect()
    }

    /// The configured request window, clamped to [`MAX_CLIENT_WINDOW`].
    fn window(&self) -> usize {
        self.config
            .pipeline
            .client_window
            .clamp(1, MAX_CLIENT_WINDOW)
    }

    /// Backoff before re-sending a request the primary shed with BUSY — a few
    /// batch periods (jittered, so competing clients don't retry in lockstep
    /// and starve whoever sorts last), giving the queue time to drain.
    fn busy_backoff_delay(&self, ctx: &mut Context<XPaxosMsg>) -> SimDuration {
        BUSY_BACKOFF_UNIT * (4 + ctx.rng().next_below(9))
    }

    /// Issues requests until the window is full, the workload is exhausted,
    /// or the stream would run [`MAX_TS_SPREAD`] past the oldest outstanding
    /// request (head-of-line bound; issuing resumes as commits land).
    fn fill_window(&mut self, ctx: &mut Context<XPaxosMsg>) {
        if self.stopped {
            return;
        }
        while self.pending.len() < self.window() {
            if let Some(limit) = self.workload.requests {
                if self.next_ts >= limit {
                    if self.pending.is_empty() {
                        self.stopped = true;
                    }
                    return;
                }
            }
            if let Some((&oldest, _)) = self.pending.iter().next() {
                if self.next_ts.saturating_sub(oldest) >= MAX_TS_SPREAD {
                    return;
                }
            }
            self.issue_one(ctx);
        }
    }

    /// Signs and sends one fresh request to the primary of the current view.
    fn issue_one(&mut self, ctx: &mut Context<XPaxosMsg>) {
        self.next_ts += 1;
        let ts = self.next_ts;
        let op = match (&self.workload.op_factory, &self.workload.op_bytes) {
            (Some(factory), _) => factory(ts),
            (None, Some(bytes)) => bytes.clone(),
            (None, None) => Bytes::from(vec![0u8; self.workload.payload_size]),
        };
        if self.workload.record_history {
            self.history.insert(
                ts,
                HistoryRecord {
                    timestamp: ts,
                    op: op.clone(),
                    invoked_at: ctx.now(),
                    completed_at: None,
                    result: None,
                    sn: None,
                },
            );
        }
        let request = Request::new(self.id, ts, op);
        ctx.charge(CryptoOp::Sign);
        let signature = self.signer.sign_digest(&client_request_digest(&request));
        let pending = Pending {
            signed: SignedRequest { request, signature },
            issued_at: ctx.now(),
            replies: BTreeMap::new(),
            retransmit_timer: TimerId(0), // armed below
            retransmissions: 0,
            busy_backoff: false,
            busy_count: 0,
        };
        self.pending.insert(ts, pending);
        self.send_to_primary(ts, ctx);
        self.arm_retransmit(ts, self.config.client_retransmit, ctx);
    }

    /// Sends outstanding request `ts` to the primary of the current view.
    fn send_to_primary(&self, ts: Timestamp, ctx: &mut Context<XPaxosMsg>) {
        if let Some(pending) = self.pending.get(&ts) {
            let primary = self.config.node_of(self.groups.primary(self.view));
            self.send_for(
                ts,
                primary,
                XPaxosMsg::Replicate(pending.signed.clone()),
                ctx,
            );
        }
    }

    /// Sends `msg` on behalf of request `ts` under the request's own trace
    /// id, minted deterministically from (client, timestamp) whatever step
    /// it runs in, then restores the step's id: a SUSPECT the client
    /// forwards keeps the SUSPECT's.
    fn send_for(&self, ts: Timestamp, to: NodeId, msg: XPaxosMsg, ctx: &mut Context<XPaxosMsg>) {
        let step = ctx.trace();
        ctx.set_trace(xft_telemetry::trace::mint(self.id.0, ts));
        ctx.send(to, msg);
        ctx.set_trace(step);
    }

    /// Arms the retransmission timer of outstanding request `ts` to fire
    /// after `delay`.
    fn arm_retransmit(&mut self, ts: Timestamp, delay: SimDuration, ctx: &mut Context<XPaxosMsg>) {
        let token = self.token_base + TOKEN_RETRANSMIT_BASE + ts;
        if let Some(pending) = self.pending.get_mut(&ts) {
            pending.retransmit_timer = ctx.set_timer(delay, token);
        }
    }

    fn on_reply(&mut self, reply: ReplyMsg, ctx: &mut Context<XPaxosMsg>) {
        if reply.client != self.id {
            return; // mux front-end misrouted (or stray) reply
        }
        let ts = reply.timestamp;
        let Some(pending) = self.pending.get_mut(&ts) else {
            return; // reply for a request that already committed (or was never ours)
        };
        ctx.charge(CryptoOp::VerifySig);
        if reply.replica >= self.config.n() {
            return;
        }
        // Track the replicas' view so retransmissions go to the right primary.
        self.view = self.view.max(reply.view);
        pending.replies.insert(reply.replica, reply);
        let Some((view, digest)) = commit_quorum(&self.groups, &pending.replies) else {
            return;
        };
        let pending = self.pending.remove(&ts).expect("looked up above");
        ctx.cancel_timer(pending.retransmit_timer);
        if let Some(record) = self.history.get_mut(&ts) {
            // The primary's reply in the winning quorum carries the full
            // application payload; followers send the digest only.
            for r in pending.replies.values() {
                if r.view == view && r.reply_digest == digest {
                    record.sn = Some(r.sn.0);
                    if r.payload.is_some() {
                        record.result = r.payload.clone();
                    }
                }
            }
            record.completed_at = Some(ctx.now());
        }
        self.committed += 1;
        let latency = ctx.now().duration_since(pending.issued_at);
        ctx.record_commit(latency, pending.signed.request.op.len());
        if self.workload.think_time == SimDuration::ZERO {
            self.fill_window(ctx);
        } else {
            ctx.set_timer(
                self.workload.think_time,
                self.token_base + TOKEN_NEXT_REQUEST,
            );
        }
    }

    /// The primary shed request `ts` under load: back off briefly, then
    /// re-send to the primary alone (no RE-SEND broadcast — a shed request is
    /// not evidence of a faulty view, so it must not arm replica monitors).
    ///
    /// BUSY is unsigned, so nothing else is learned from it: in particular the
    /// view estimate is only ever adopted from verified replies and suspects —
    /// a forged BUSY may delay one request, never redirect future ones.
    fn on_busy(&mut self, m: BusyMsg, ctx: &mut Context<XPaxosMsg>) {
        if m.client != self.id {
            return;
        }
        let delay = self.busy_backoff_delay(ctx);
        let Some(pending) = self.pending.get_mut(&m.timestamp) else {
            return;
        };
        ctx.count("client_busy", 1);
        pending.busy_count += 1;
        if pending.busy_count > MAX_BUSY_BACKOFFS {
            // Too many BUSYs for one request: stop resetting the timeout and
            // let the full retransmission path (RE-SEND broadcast → replica
            // monitors → possible view change) judge the primary instead.
            return;
        }
        ctx.cancel_timer(pending.retransmit_timer);
        pending.busy_backoff = true;
        self.arm_retransmit(m.timestamp, delay, ctx);
    }

    /// The retransmission timer of request `ts` fired.
    fn retransmit(&mut self, ts: Timestamp, ctx: &mut Context<XPaxosMsg>) {
        let Some(pending) = self.pending.get_mut(&ts) else {
            return;
        };
        if std::mem::take(&mut pending.busy_backoff) {
            // Busy-shed requests retry as a plain REPLICATE to the primary.
            self.send_to_primary(ts, ctx);
        } else {
            pending.retransmissions += 1;
            ctx.count("client_retransmissions", 1);
            // Broadcast the RE-SEND to the active replicas of the current view
            // estimate; after repeated failures fall back to all replicas (the
            // client's estimate may be arbitrarily stale after a burst of view
            // changes).
            let targets: Vec<ReplicaId> = if pending.retransmissions <= 2 {
                self.groups.active_replicas(self.view).to_vec()
            } else {
                (0..self.config.n()).collect()
            };
            let signed = pending.signed.clone();
            for replica in targets {
                let resend = XPaxosMsg::Resend(signed.clone());
                self.send_for(ts, self.config.node_of(replica), resend, ctx);
            }
        }
        self.arm_retransmit(ts, self.config.client_retransmit, ctx);
    }

    fn on_suspect(&mut self, m: SuspectMsg, ctx: &mut Context<XPaxosMsg>) {
        if !self.groups.is_active(m.view, m.replica) {
            return;
        }
        // Follow the view change (Algorithm 4, lines 11–15): adopt view i + 1, forward
        // the suspect to the new active replicas and re-send every outstanding request
        // to the new primary.
        self.view = self.view.max(m.view.next());
        for replica in self.groups.active_replicas(self.view).to_vec() {
            ctx.send(self.config.node_of(replica), XPaxosMsg::Suspect(m.clone()));
        }
        for &ts in self.pending.keys() {
            self.send_to_primary(ts, ctx);
        }
    }
}

/// The client's commit rule, over the replies collected for one request
/// (keyed by the replica each names): the `(view, reply digest)` of the
/// first quorum, in `(view, digest)` order, or `None`. A quorum is matching
/// replies from every active replica of the view (paper §4.2); at t = 1 the
/// primary's reply carrying the follower's commit is one too.
fn commit_quorum(
    groups: &SyncGroups,
    replies: &BTreeMap<ReplicaId, ReplyMsg>,
) -> Option<(ViewNumber, Digest)> {
    let mut by_key: BTreeMap<(ViewNumber, Digest), Vec<ReplicaId>> = BTreeMap::new();
    for (replica, reply) in replies {
        by_key
            .entry((reply.view, reply.reply_digest))
            .or_default()
            .push(*replica);
    }
    by_key.into_iter().find_map(|((view, digest), names)| {
        let active = groups.active_replicas(view);
        let primary = active[0];
        let quorum = active.iter().all(|a| names.contains(a))
            || (groups.t() == 1
                && names.contains(&primary)
                && replies[&primary].follower_commit.is_some());
        quorum.then_some((view, digest))
    })
}

/// Several windowed [`Client`]s behind one network endpoint.
///
/// The classic deployment gives every client its own node (socket, acceptor,
/// protocol thread); at high client counts the per-connection fan-in becomes
/// the bottleneck — and one process per client is operationally silly for a
/// load generator anyway. The mux front-end runs all sub-clients inside a
/// single actor on a single node: requests go out stamped with the issuing
/// sub-client's [`ClientId`] as always, and the `client` echo on
/// [`ReplyMsg`]/[`BusyMsg`] routes each response back to its owner. Replicas
/// are oblivious — the deployment simply publishes one address for every
/// client slot of the address book.
///
/// Timer tokens are namespaced per sub-client (`index << TOKEN_SUB_SHIFT`) so
/// the shared timer wheel stays collision-free; unsigned-view SUSPECT
/// messages fan out to every sub-client, which is exactly what `n` separate
/// clients would have concluded from `n` copies.
pub struct MuxClient {
    clients: Vec<Client>,
}

impl MuxClient {
    /// Wraps `clients` (any non-zero number) into one mux actor.
    pub fn new(mut clients: Vec<Client>) -> Self {
        assert!(!clients.is_empty(), "mux needs at least one client");
        assert!(
            clients.len() < (1usize << (64 - TOKEN_SUB_SHIFT)),
            "too many sub-clients for token namespacing"
        );
        for (index, client) in clients.iter_mut().enumerate() {
            client.token_base = (index as u64) << TOKEN_SUB_SHIFT;
        }
        MuxClient { clients }
    }

    /// The wrapped sub-clients, in index order.
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// Total requests committed across all sub-clients.
    pub fn committed(&self) -> u64 {
        self.clients.iter().map(|c| c.committed()).sum()
    }

    /// Routes a reply/busy echo to the owning sub-client, if it is ours.
    fn sub_for(&mut self, client: ClientId) -> Option<&mut Client> {
        self.clients.iter_mut().find(|c| c.id() == client)
    }
}

impl Actor for MuxClient {
    type Msg = XPaxosMsg;

    fn on_start(&mut self, ctx: &mut Context<XPaxosMsg>) {
        for client in &mut self.clients {
            client.on_start(ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: XPaxosMsg, ctx: &mut Context<XPaxosMsg>) {
        match msg {
            XPaxosMsg::Reply(reply) => {
                if let Some(sub) = self.sub_for(reply.client) {
                    sub.on_reply(reply, ctx);
                }
            }
            XPaxosMsg::Busy(m) => {
                if let Some(sub) = self.sub_for(m.client) {
                    sub.on_busy(m, ctx);
                }
            }
            XPaxosMsg::SuspectToClient(_) | XPaxosMsg::Suspect(_) => {
                for client in &mut self.clients {
                    client.on_message(from, msg.clone(), ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<XPaxosMsg>) {
        let index = (token >> TOKEN_SUB_SHIFT) as usize;
        if let Some(client) = self.clients.get_mut(index) {
            client.on_timer(token, ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<XPaxosMsg>) {
        for client in &mut self.clients {
            client.on_recover(ctx);
        }
    }
}

impl Actor for Client {
    type Msg = XPaxosMsg;

    fn on_start(&mut self, ctx: &mut Context<XPaxosMsg>) {
        self.fill_window(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: XPaxosMsg, ctx: &mut Context<XPaxosMsg>) {
        match msg {
            XPaxosMsg::Reply(reply) => self.on_reply(reply, ctx),
            XPaxosMsg::Busy(m) => self.on_busy(m, ctx),
            XPaxosMsg::SuspectToClient(m) | XPaxosMsg::Suspect(m) => self.on_suspect(m, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<XPaxosMsg>) {
        let token = token.wrapping_sub(self.token_base);
        if token >= TOKEN_RETRANSMIT_BASE {
            self.retransmit(token - TOKEN_RETRANSMIT_BASE, ctx);
        } else if token == TOKEN_NEXT_REQUEST {
            self.fill_window(ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<XPaxosMsg>) {
        // Timers were discarded by the crash: re-send every outstanding request
        // and re-arm its retransmission timer, then refill the window.
        let outstanding: Vec<Timestamp> = self.pending.keys().copied().collect();
        for ts in outstanding {
            if let Some(pending) = self.pending.get_mut(&ts) {
                pending.busy_backoff = false;
            }
            self.send_to_primary(ts, ctx);
            self.arm_retransmit(ts, self.config.client_retransmit, ctx);
        }
        self.fill_window(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::commit_statement_digest;
    use crate::messages::{reply_digest, CommitMsg};
    use crate::types::{replica_key, SeqNum};
    use xft_crypto::Signature;
    use xft_simnet::with_offline_context;

    /// What a row delivers to a client whose request 1 is outstanding; every
    /// reply is for view 0, sequence number 1, and binds one result.
    #[derive(Clone, Copy)]
    enum In {
        /// A reply naming replica `named`, sent from replica `from`'s node.
        Reply { from: ReplicaId, named: ReplicaId },
        /// The primary's reply carrying its follower's signed COMMIT.
        FastPath,
        /// The same, the COMMIT under a forged signature.
        ForgedFastPath,
        /// The primary's reply addressed to another client.
        Misrouted,
        /// The primary's reply to a timestamp the client never issued.
        UnknownTs,
        /// A reply naming replica id n.
        OutOfRange,
    }

    /// Builds the message `input` describes, and the replica that sends it.
    fn message(registry: &Arc<KeyRegistry>, input: In) -> (ReplicaId, XPaxosMsg) {
        let (view, sn, client, ts) = (ViewNumber(0), SeqNum(1), ClientId(0), 1);
        let rd = Digest::of(b"result");
        let reply = |named: ReplicaId| ReplyMsg {
            view,
            sn,
            client,
            timestamp: ts,
            reply_digest: reply_digest(view, sn, client, ts, &rd),
            payload: (named == 0).then(|| Bytes::from_static(b"result")),
            replica: named,
            follower_commit: None,
        };
        let with_commit = |signature: Option<Signature>| {
            let batch_digest = Digest::of(b"batch");
            let signed = commit_statement_digest(&batch_digest, sn, view, Some(&rd));
            let signature = signature
                .unwrap_or_else(|| Signer::new(registry, replica_key(1)).sign_digest(&signed));
            let commit = CommitMsg {
                view,
                sn,
                batch_digest,
                replica: 1,
                reply_digest: Some(rd),
                signature,
            };
            ReplyMsg {
                follower_commit: Some(commit),
                ..reply(0)
            }
        };
        let (from, reply) = match input {
            In::Reply { from, named } => (from, reply(named)),
            In::FastPath => (0, with_commit(None)),
            In::ForgedFastPath => (0, with_commit(Some(Signature::forged(replica_key(1))))),
            In::Misrouted => (
                0,
                ReplyMsg {
                    client: ClientId(7),
                    ..reply(0)
                },
            ),
            In::UnknownTs => (
                0,
                ReplyMsg {
                    timestamp: 9,
                    ..reply(0)
                },
            ),
            In::OutOfRange => (0, reply(99)),
        };
        (from, XPaxosMsg::Reply(reply))
    }

    /// What the client holds after a row.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Outcome {
        committed: u64,
        /// Replies held toward request 1's quorum (0 once it committed).
        held: usize,
    }

    /// Delivers `inputs` in order, in one offline callback, to a fresh
    /// client that has just issued request 1.
    fn deliver(t: usize, inputs: &[In]) -> Outcome {
        let registry = KeyRegistry::new(1);
        let config = XPaxosConfig::new(t, 1);
        let workload = ClientWorkload {
            requests: Some(1),
            ..Default::default()
        };
        let mut client = Client::new(ClientId(0), config.clone(), &registry, workload);
        assert_eq!(client.groups.active_replicas(ViewNumber(0))[0], 0);
        let msgs: Vec<_> = inputs.iter().map(|i| message(&registry, *i)).collect();
        with_offline_context(config.client_nodes[0], |ctx| {
            client.on_start(ctx);
            for (from, msg) in msgs {
                client.on_message(config.node_of(from), msg, ctx);
            }
        });
        Outcome {
            committed: client.committed(),
            held: client.pending.get(&1).map_or(0, |p| p.replies.len()),
        }
    }

    /// One row per outcome of `on_reply`, each at the `t` values it names.
    #[test]
    fn reply_acceptance_table() {
        let from_self = |named| In::Reply { from: named, named };
        let committed = Outcome {
            committed: 1,
            held: 0,
        };
        let held = |n| Outcome {
            committed: 0,
            held: n,
        };
        let both: &[usize] = &[1, 2];
        let rows: Vec<(&str, &[usize], Vec<In>, Outcome)> = vec![
            (
                "misrouted client: ignored",
                both,
                vec![In::Misrouted],
                held(0),
            ),
            (
                "unknown timestamp: ignored",
                both,
                vec![In::UnknownTs],
                held(0),
            ),
            (
                "replica id ≥ n: ignored",
                both,
                vec![In::OutOfRange],
                held(0),
            ),
            ("no quorum yet: held", both, vec![from_self(1)], held(1)),
            (
                "t = 1: the primary's reply with its follower's commit",
                &[1],
                vec![In::FastPath],
                committed.clone(),
            ),
            (
                "t = 1: matching replies from both active replicas",
                &[1],
                vec![from_self(0), from_self(1)],
                committed.clone(),
            ),
            (
                "t = 1: matching replies from follower 1 and passive replica 2",
                &[1],
                vec![from_self(1), from_self(2)],
                held(2),
            ),
            (
                "t ≥ 2: t matching replies are no quorum",
                &[2],
                vec![from_self(0), from_self(1)],
                held(2),
            ),
            (
                "t ≥ 2: matching replies from every active replica",
                &[2],
                vec![from_self(0), from_self(1), from_self(2)],
                committed.clone(),
            ),
            // Current behaviour that a client verifying its replies must
            // change: these rows flip to "ignored".
            (
                "unverified: a reply counts under the replica it names, not its sender",
                &[1],
                (0..2).map(|named| In::Reply { from: 2, named }).collect(),
                committed.clone(),
            ),
            (
                "unverified: a reply counts under the replica it names, not its sender",
                &[2],
                (0..3).map(|named| In::Reply { from: 4, named }).collect(),
                committed.clone(),
            ),
            (
                "unverified: a forged follower commit completes the fast path",
                &[1],
                vec![In::ForgedFastPath],
                committed.clone(),
            ),
        ];
        for (name, ts, inputs, expected) in rows {
            for &t in ts {
                assert_eq!(deliver(t, &inputs), expected, "t = {t}: {name}");
            }
        }
    }

    /// Every send of a request carries the request's own trace id, whatever
    /// step sends it: the first REPLICATE, the retransmission timer's
    /// RE-SENDs, a BUSY retry and the re-send after a SUSPECT. The SUSPECT
    /// the client forwards keeps the step's id, and so does the step.
    #[test]
    fn every_send_of_a_request_carries_its_trace_id() {
        use xft_simnet::SimMessage;
        use xft_telemetry::trace::mint;

        let registry = KeyRegistry::new(1);
        let config = XPaxosConfig::new(1, 1);
        let workload = ClientWorkload {
            requests: Some(1),
            ..Default::default()
        };
        let mut client = Client::new(ClientId(0), config.clone(), &registry, workload);
        let id = mint(0, 1);
        let node = config.client_nodes[0];
        let retransmit_timer = TOKEN_RETRANSMIT_BASE + 1;
        // Each step starts from the id its event carried (0 for a timer).
        let mut step = |trace: u64, f: &mut dyn FnMut(&mut Client, &mut Context<XPaxosMsg>)| {
            with_offline_context(node, |ctx| {
                ctx.set_trace(trace);
                f(&mut client, ctx);
                let sends: Vec<(&str, u64)> = ctx
                    .pending_sends()
                    .iter()
                    .map(|o| (o.msg.kind(), o.trace))
                    .collect();
                (sends, ctx.trace())
            })
        };

        let (sends, _) = step(0, &mut |c, ctx| c.on_start(ctx));
        assert_eq!(sends, vec![("REPLICATE", id)]);

        let (sends, after) = step(0, &mut |c, ctx| c.on_timer(retransmit_timer, ctx));
        assert_eq!(sends, vec![("RE-SEND", id), ("RE-SEND", id)]);
        assert_eq!(after, 0);

        let busy = BusyMsg {
            view: ViewNumber(0),
            client: ClientId(0),
            timestamp: 1,
            replica: 0,
        };
        let (sends, _) = step(id, &mut |c, ctx| {
            c.on_message(config.node_of(0), XPaxosMsg::Busy(busy.clone()), ctx)
        });
        assert!(sends.is_empty());
        let (sends, _) = step(0, &mut |c, ctx| c.on_timer(retransmit_timer, ctx));
        assert_eq!(sends, vec![("REPLICATE", id)], "the BUSY retry");

        let suspect = SuspectMsg {
            view: ViewNumber(0),
            replica: 1,
            signature: Signature::forged(replica_key(1)),
        };
        let (sends, after) = step(55, &mut |c, ctx| {
            c.on_message(config.node_of(1), XPaxosMsg::Suspect(suspect.clone()), ctx)
        });
        assert_eq!(
            sends,
            vec![("SUSPECT", 55), ("SUSPECT", 55), ("REPLICATE", id)]
        );
        assert_eq!(after, 55);
    }
}
