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

use crate::config::XPaxosConfig;
use crate::messages::{
    client_request_digest, BusyMsg, ReplyMsg, SignedRequest, SuspectMsg, XPaxosMsg,
};
use crate::sync_group::SyncGroups;
use crate::types::{client_key, ClientId, ReplicaId, Request, Timestamp, ViewNumber};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;
use xft_crypto::{CryptoOp, KeyRegistry, Signer, Verifier};
use xft_simnet::{Actor, Context, NodeId, SimDuration, SimTime, TimerId};

/// Hard cap on the request window. Replicas cache
/// [`CLIENT_REPLY_CACHE`](crate::replica) replies per client for exact-match
/// duplicate suppression; a window beyond that cache could let a pruned
/// reply's retransmission re-execute, so windows are clamped well below it.
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
    request: Request,
    signature: xft_crypto::Signature,
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

    fn node_of(&self, replica: ReplicaId) -> NodeId {
        self.config.node_of(replica)
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
        let signed = SignedRequest {
            request: request.clone(),
            signature,
        };
        // Mint the request's correlation id deterministically from (client,
        // timestamp) and park it in the thread-local trace slot: the live
        // TCP runtime stamps it onto the outgoing wire envelope, and every
        // hop downstream tags its flight-recorder events with it. Inert in
        // the simulator (no envelope encoding happens there).
        xft_telemetry::trace::set_current(xft_telemetry::trace::mint(self.id.0, ts));
        let primary = self.groups.primary(self.view);
        ctx.send(self.node_of(primary), XPaxosMsg::Replicate(signed));
        let retransmit_timer = ctx.set_timer(
            self.config.client_retransmit,
            self.token_base + TOKEN_RETRANSMIT_BASE + ts,
        );
        self.pending.insert(
            ts,
            Pending {
                request,
                signature,
                issued_at: ctx.now(),
                replies: BTreeMap::new(),
                retransmit_timer,
                retransmissions: 0,
                busy_backoff: false,
                busy_count: 0,
            },
        );
    }

    /// Returns the `(view, reply digest)` of the winning quorum when the
    /// commit condition is met.
    fn commit_condition_met(&self, pending: &Pending) -> Option<(ViewNumber, [u8; 32])> {
        // Group replies by (view, reply digest) and look for a quorum.
        let mut by_key: BTreeMap<(u64, [u8; 32]), Vec<ReplicaId>> = BTreeMap::new();
        for (replica, reply) in &pending.replies {
            by_key
                .entry((reply.view.0, reply.reply_digest.0))
                .or_default()
                .push(*replica);
        }
        for ((view, digest), replicas) in &by_key {
            let view = ViewNumber(*view);
            if self.config.t == 1 {
                // Fast path: the primary's reply carrying the follower's signed commit
                // suffices; alternatively, matching replies from both active replicas.
                let primary = self.groups.primary(view);
                let has_full_primary_reply = replicas.contains(&primary)
                    && pending
                        .replies
                        .get(&primary)
                        .map(|r| r.follower_commit.is_some())
                        .unwrap_or(false);
                if has_full_primary_reply || replicas.len() >= self.config.active_count() {
                    return Some((view, *digest));
                }
            } else {
                // General case: matching replies from all t + 1 active replicas.
                let active = self.groups.active_replicas(view);
                if active.iter().all(|a| replicas.contains(a)) {
                    return Some((view, *digest));
                }
            }
        }
        None
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
        pending.replies.insert(reply.replica, reply.clone());
        // Track the replicas' view so retransmissions go to the right primary.
        if reply.view > self.view {
            self.view = reply.view;
        }

        let Some(pending_ref) = self.pending.get(&ts) else {
            return;
        };
        if let Some((view, digest)) = self.commit_condition_met(pending_ref) {
            let pending = self.pending.remove(&ts).expect("pending exists");
            ctx.cancel_timer(pending.retransmit_timer);
            if self.workload.record_history {
                // The primary's reply in the winning quorum carries the full
                // application payload; followers send the digest only.
                let winning = pending
                    .replies
                    .values()
                    .filter(|r| r.view == view && r.reply_digest.0 == digest);
                let mut result = None;
                let mut sn = None;
                for r in winning {
                    sn = Some(r.sn.0);
                    if r.payload.is_some() {
                        result = r.payload.clone();
                    }
                }
                if let Some(record) = self.history.get_mut(&ts) {
                    record.completed_at = Some(ctx.now());
                    record.result = result;
                    record.sn = sn;
                }
            }
            self.view = self.view.max(view);
            self.committed += 1;
            let latency = ctx.now().duration_since(pending.issued_at);
            ctx.record_commit(latency, pending.request.op.len());
            if self.workload.think_time == SimDuration::ZERO {
                self.fill_window(ctx);
            } else {
                ctx.set_timer(
                    self.workload.think_time,
                    self.token_base + TOKEN_NEXT_REQUEST,
                );
            }
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
        pending.retransmit_timer =
            ctx.set_timer(delay, self.token_base + TOKEN_RETRANSMIT_BASE + m.timestamp);
    }

    /// The retransmission timer of request `ts` fired.
    fn retransmit(&mut self, ts: Timestamp, ctx: &mut Context<XPaxosMsg>) {
        let (signed, retransmissions, was_busy) = {
            let Some(pending) = self.pending.get_mut(&ts) else {
                return;
            };
            let was_busy = pending.busy_backoff;
            pending.busy_backoff = false;
            if !was_busy {
                pending.retransmissions += 1;
            }
            (
                SignedRequest {
                    request: pending.request.clone(),
                    signature: pending.signature,
                },
                pending.retransmissions,
                was_busy,
            )
        };
        if was_busy {
            // Busy-shed requests retry as a plain REPLICATE to the primary.
            let primary = self.groups.primary(self.view);
            ctx.send(self.node_of(primary), XPaxosMsg::Replicate(signed));
        } else {
            ctx.count("client_retransmissions", 1);
            // Broadcast the RE-SEND to the active replicas of the current view
            // estimate; after repeated failures fall back to all replicas (the
            // client's estimate may be arbitrarily stale after a burst of view
            // changes).
            let targets: Vec<ReplicaId> = if retransmissions <= 2 {
                self.groups.active_replicas(self.view).to_vec()
            } else {
                (0..self.config.n()).collect()
            };
            for replica in targets {
                ctx.send(self.node_of(replica), XPaxosMsg::Resend(signed.clone()));
            }
        }
        let timer = ctx.set_timer(
            self.config.client_retransmit,
            self.token_base + TOKEN_RETRANSMIT_BASE + ts,
        );
        if let Some(pending) = self.pending.get_mut(&ts) {
            pending.retransmit_timer = timer;
        }
    }

    fn on_suspect(&mut self, m: SuspectMsg, ctx: &mut Context<XPaxosMsg>) {
        if !self.groups.is_active(m.view, m.replica) {
            return;
        }
        // Follow the view change (Algorithm 4, lines 11–15): adopt view i + 1, forward
        // the suspect to the new active replicas and re-send every outstanding request
        // to the new primary.
        if m.view.next() > self.view {
            self.view = m.view.next();
        }
        for replica in self.groups.active_replicas(self.view).to_vec() {
            ctx.send(self.node_of(replica), XPaxosMsg::Suspect(m.clone()));
        }
        let primary = self.groups.primary(self.view);
        let primary_node = self.node_of(primary);
        for pending in self.pending.values() {
            let signed = SignedRequest {
                request: pending.request.clone(),
                signature: pending.signature,
            };
            ctx.send(primary_node, XPaxosMsg::Replicate(signed));
        }
    }
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
        let primary = self.groups.primary(self.view);
        let primary_node = self.node_of(primary);
        for (&ts, pending) in self.pending.iter_mut() {
            pending.busy_backoff = false;
            let signed = SignedRequest {
                request: pending.request.clone(),
                signature: pending.signature,
            };
            ctx.send(primary_node, XPaxosMsg::Replicate(signed));
            pending.retransmit_timer = ctx.set_timer(
                self.config.client_retransmit,
                self.token_base + TOKEN_RETRANSMIT_BASE + ts,
            );
        }
        self.fill_window(ctx);
    }
}
