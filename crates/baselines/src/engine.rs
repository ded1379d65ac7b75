//! Generic replica/client engine executing any [`crate::spec::ProtocolSpec`].
//!
//! The engine reproduces the *common-case* message patterns of Figure 6 (and Zab's
//! broadcast) with faithful fan-outs, message sizes and crypto costs — the quantities
//! the paper's fault-free evaluation measures. Baseline view changes / leader election
//! are out of scope (the paper only evaluates the baselines in fault-free runs); the
//! XPaxos crate implements its full protocol including view changes.

use crate::messages::BaselineMsg;
use crate::spec::{AgreementPattern, ProtocolSpec};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};
use xft_core::node::Node;
use xft_core::state_machine::StateMachine;
use xft_core::types::{Batch, ClientId, Request, SeqNum};
use xft_crypto::{CryptoOp, Digest};
use xft_simnet::{Actor, Context, NodeId, SimDuration, SimTime, TimerId};

/// Timer token: leader batch timeout.
const TOKEN_BATCH: u64 = 1;
/// Timer token: client retransmission.
const TOKEN_RETRANSMIT: u64 = 2;

/// Shared cluster configuration for a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// The protocol spec in effect.
    pub spec: ProtocolSpec,
    /// Maximum batch size (20 in the paper).
    pub batch_size: usize,
    /// Batch accumulation timeout at the leader.
    pub batch_timeout: SimDuration,
    /// Client retransmission timeout.
    pub client_retransmit: SimDuration,
    /// Simnet nodes hosting the replicas (index = replica id; replica 0 is the leader).
    pub replica_nodes: Vec<NodeId>,
    /// Simnet nodes hosting the clients (index = client id).
    pub client_nodes: Vec<NodeId>,
}

impl BaselineConfig {
    /// Creates a configuration with replicas on nodes `0..n` and clients following.
    pub fn new(spec: ProtocolSpec, clients: usize) -> Self {
        BaselineConfig {
            spec,
            batch_size: 20,
            batch_timeout: SimDuration::from_millis(2),
            client_retransmit: SimDuration::from_secs(5),
            replica_nodes: (0..spec.n).collect(),
            client_nodes: (spec.n..spec.n + clients).collect(),
        }
    }

    /// The replicas participating in the common case (leader first).
    pub fn cohort(&self) -> Vec<usize> {
        (0..self.spec.common_case_cohort).collect()
    }

    fn client_node(&self, client: ClientId) -> NodeId {
        self.client_nodes[client.0 as usize % self.client_nodes.len().max(1)]
    }
}

/// A baseline protocol replica. Replica 0 is the stable leader/primary.
pub struct BaselineReplica {
    id: usize,
    config: BaselineConfig,
    next_sn: SeqNum,
    exec_sn: SeqNum,
    log: BTreeMap<u64, Batch>,
    acks: BTreeMap<u64, BTreeSet<usize>>,
    agrees: BTreeMap<u64, BTreeSet<usize>>,
    committed: BTreeSet<u64>,
    state: Box<dyn StateMachine>,
    executed_history: Vec<(SeqNum, Digest)>,
    pending: Vec<Request>,
    batch_timer: Option<TimerId>,
    committed_batches: u64,
}

impl BaselineReplica {
    /// Creates a replica.
    pub fn new(id: usize, config: BaselineConfig, state: Box<dyn StateMachine>) -> Self {
        BaselineReplica {
            id,
            config,
            next_sn: SeqNum(0),
            exec_sn: SeqNum(0),
            log: BTreeMap::new(),
            acks: BTreeMap::new(),
            agrees: BTreeMap::new(),
            committed: BTreeSet::new(),
            state,
            executed_history: Vec::new(),
            pending: Vec::new(),
            batch_timer: None,
            committed_batches: 0,
        }
    }

    /// Whether this replica is the leader.
    pub fn is_leader(&self) -> bool {
        self.id == 0
    }

    /// Executed history (sn, batch digest) for consistency checks.
    pub fn executed_history(&self) -> &[(SeqNum, Digest)] {
        &self.executed_history
    }

    /// Number of batches committed by this replica.
    pub fn committed_batches(&self) -> u64 {
        self.committed_batches
    }

    fn charge_auth(&self, ctx: &mut Context<BaselineMsg>, bytes: usize, produce: bool) {
        if self.config.spec.uses_signatures {
            ctx.charge(if produce {
                CryptoOp::Sign
            } else {
                CryptoOp::VerifySig
            });
        } else {
            ctx.charge(if produce {
                CryptoOp::Mac { len: bytes }
            } else {
                CryptoOp::VerifyMac { len: bytes }
            });
        }
    }

    fn other_cohort_nodes(&self) -> Vec<NodeId> {
        self.config
            .cohort()
            .into_iter()
            .filter(|r| *r != self.id)
            .map(|r| self.config.replica_nodes[r])
            .collect()
    }

    fn on_request(&mut self, request: Request, ctx: &mut Context<BaselineMsg>) {
        if !self.is_leader() {
            // Forward to the leader (clients normally send there directly).
            ctx.send(
                self.config.replica_nodes[0],
                BaselineMsg::Request { request },
            );
            return;
        }
        self.charge_auth(ctx, request.wire_size(), false);
        self.pending.push(request);
        if self.pending.len() >= self.config.batch_size {
            self.flush(ctx);
        } else if self.batch_timer.is_none() {
            self.batch_timer = Some(ctx.set_timer(self.config.batch_timeout, TOKEN_BATCH));
        }
    }

    fn flush(&mut self, ctx: &mut Context<BaselineMsg>) {
        while !self.pending.is_empty() {
            let take = self.pending.len().min(self.config.batch_size);
            let batch = Batch::new(self.pending.drain(..take).collect());
            self.next_sn = self.next_sn.next();
            let sn = self.next_sn;
            self.log.insert(sn.0, batch.clone());
            ctx.charge(CryptoOp::Hash {
                len: batch.wire_size(),
            });
            // One authenticator per destination (MAC vector).
            let targets = self.other_cohort_nodes();
            for _ in &targets {
                self.charge_auth(ctx, batch.wire_size(), true);
            }
            let msg = BaselineMsg::Order { sn, batch };
            for node in targets {
                ctx.send(node, msg.clone());
            }
            match self.config.spec.pattern {
                AgreementPattern::Speculative => {
                    // The primary also executes and replies speculatively.
                    self.committed.insert(sn.0);
                    self.try_execute(ctx);
                }
                AgreementPattern::LeaderRoundTrip | AgreementPattern::LeaderRoundTripWithCommit => {
                    if self.config.spec.quorum == 0 {
                        self.committed.insert(sn.0);
                        self.try_execute(ctx);
                    }
                }
                AgreementPattern::AllToAll => {
                    // The leader's pre-prepare also counts as its agreement: broadcast
                    // it so followers can reach the 2t-message quorum.
                    let digest = self.log[&sn.0].digest();
                    self.charge_auth(ctx, 80, true);
                    let agree = BaselineMsg::Agree {
                        sn,
                        digest,
                        replica: self.id,
                    };
                    for node in self.other_cohort_nodes() {
                        ctx.send(node, agree.clone());
                    }
                }
            }
        }
    }

    fn on_order(&mut self, sn: SeqNum, batch: Batch, ctx: &mut Context<BaselineMsg>) {
        self.charge_auth(ctx, batch.wire_size(), false);
        let digest = batch.digest();
        self.log.insert(sn.0, batch);
        if sn > self.next_sn {
            self.next_sn = sn;
        }
        match self.config.spec.pattern {
            AgreementPattern::LeaderRoundTrip | AgreementPattern::LeaderRoundTripWithCommit => {
                self.charge_auth(ctx, 80, true);
                ctx.send(
                    self.config.replica_nodes[0],
                    BaselineMsg::Ack {
                        sn,
                        digest,
                        replica: self.id,
                    },
                );
            }
            AgreementPattern::AllToAll => {
                self.charge_auth(ctx, 80, true);
                let msg = BaselineMsg::Agree {
                    sn,
                    digest,
                    replica: self.id,
                };
                for node in self.other_cohort_nodes() {
                    ctx.send(node, msg.clone());
                }
                self.try_agree_commit(sn, ctx);
            }
            AgreementPattern::Speculative => {
                // Speculative execution and direct reply to the client.
                self.committed.insert(sn.0);
                self.try_execute(ctx);
            }
        }
    }

    fn on_ack(&mut self, sn: SeqNum, replica: usize, ctx: &mut Context<BaselineMsg>) {
        if !self.is_leader() {
            return;
        }
        self.charge_auth(ctx, 80, false);
        self.acks.entry(sn.0).or_default().insert(replica);
        if self.acks[&sn.0].len() >= self.config.spec.quorum
            && self.log.contains_key(&sn.0)
            && self.committed.insert(sn.0)
        {
            self.try_execute(ctx);
            if self.config.spec.pattern == AgreementPattern::LeaderRoundTripWithCommit {
                let msg = BaselineMsg::CommitNotify { sn };
                for node in self.other_cohort_nodes() {
                    ctx.send(node, msg.clone());
                }
            }
        }
    }

    fn on_agree(&mut self, sn: SeqNum, replica: usize, ctx: &mut Context<BaselineMsg>) {
        self.charge_auth(ctx, 80, false);
        self.agrees.entry(sn.0).or_default().insert(replica);
        self.try_agree_commit(sn, ctx);
    }

    fn try_agree_commit(&mut self, sn: SeqNum, ctx: &mut Context<BaselineMsg>) {
        if self.config.spec.pattern != AgreementPattern::AllToAll {
            return;
        }
        let others = self.agrees.get(&sn.0).map(|s| s.len()).unwrap_or(0);
        if others >= self.config.spec.quorum
            && self.log.contains_key(&sn.0)
            && self.committed.insert(sn.0)
        {
            self.try_execute(ctx);
        }
    }

    fn on_commit_notify(&mut self, sn: SeqNum, ctx: &mut Context<BaselineMsg>) {
        self.committed.insert(sn.0);
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Context<BaselineMsg>) {
        loop {
            let next = self.exec_sn.0 + 1;
            if !self.committed.contains(&next) {
                break;
            }
            let Some(batch) = self.log.get(&next).cloned() else {
                break;
            };
            self.exec_sn = SeqNum(next);
            self.committed_batches += 1;
            self.executed_history.push((SeqNum(next), batch.digest()));
            // Replicas that answer clients: the leader in leader-centric patterns,
            // every cohort member in PBFT/Zyzzyva.
            let replies = match self.config.spec.pattern {
                AgreementPattern::LeaderRoundTrip | AgreementPattern::LeaderRoundTripWithCommit => {
                    self.is_leader()
                }
                AgreementPattern::AllToAll | AgreementPattern::Speculative => true,
            };
            for req in &batch.requests {
                ctx.charge_ns(self.state.execution_cost_ns(&req.op));
                let payload = self.state.apply(&req.op);
                if replies {
                    self.charge_auth(ctx, payload.len() + 64, true);
                    ctx.send(
                        self.config.client_node(req.client),
                        BaselineMsg::Reply {
                            sn: SeqNum(next),
                            timestamp: req.timestamp,
                            reply_digest: Digest::of(&payload),
                            replica: self.id,
                            payload_len: if self.is_leader() { payload.len() } else { 0 },
                        },
                    );
                }
            }
        }
    }
}

impl Actor for BaselineReplica {
    type Msg = BaselineMsg;

    fn on_message(&mut self, _from: NodeId, msg: BaselineMsg, ctx: &mut Context<BaselineMsg>) {
        match msg {
            BaselineMsg::Request { request } => self.on_request(request, ctx),
            BaselineMsg::Order { sn, batch } => self.on_order(sn, batch, ctx),
            BaselineMsg::Ack { sn, replica, .. } => self.on_ack(sn, replica, ctx),
            BaselineMsg::Agree { sn, replica, .. } => self.on_agree(sn, replica, ctx),
            BaselineMsg::CommitNotify { sn } => self.on_commit_notify(sn, ctx),
            BaselineMsg::Reply { .. } => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<BaselineMsg>) {
        if token == TOKEN_BATCH {
            self.batch_timer = None;
            self.flush(ctx);
        }
    }
}

/// A closed-loop baseline client.
pub struct BaselineClient {
    id: ClientId,
    config: BaselineConfig,
    payload_size: usize,
    op_bytes: Option<Bytes>,
    requests_limit: Option<u64>,
    next_ts: u64,
    committed: u64,
    outstanding: Option<(Request, SimTime, BTreeMap<usize, Digest>, TimerId)>,
}

impl BaselineClient {
    /// Creates a client issuing requests of `payload_size` bytes.
    pub fn new(
        id: ClientId,
        config: BaselineConfig,
        payload_size: usize,
        requests_limit: Option<u64>,
    ) -> Self {
        BaselineClient {
            id,
            config,
            payload_size,
            op_bytes: None,
            requests_limit,
            next_ts: 0,
            committed: 0,
            outstanding: None,
        }
    }

    /// Uses an explicit operation payload instead of zero bytes (e.g. an encoded
    /// coordination-service operation for the ZooKeeper macro-benchmark).
    pub fn with_op_bytes(mut self, op: Bytes) -> Self {
        self.op_bytes = Some(op);
        self
    }

    /// Requests committed by this client.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    fn issue_next(&mut self, ctx: &mut Context<BaselineMsg>) {
        if self.outstanding.is_some() {
            return;
        }
        if let Some(limit) = self.requests_limit {
            if self.committed >= limit {
                return;
            }
        }
        self.next_ts += 1;
        let op = match &self.op_bytes {
            Some(bytes) => bytes.clone(),
            None => Bytes::from(vec![0u8; self.payload_size]),
        };
        let request = Request::new(self.id, self.next_ts, op);
        ctx.charge(CryptoOp::Mac {
            len: request.wire_size(),
        });
        ctx.send(
            self.config.replica_nodes[0],
            BaselineMsg::Request {
                request: request.clone(),
            },
        );
        let timer = ctx.set_timer(self.config.client_retransmit, TOKEN_RETRANSMIT);
        self.outstanding = Some((request, ctx.now(), BTreeMap::new(), timer));
    }
}

impl Actor for BaselineClient {
    type Msg = BaselineMsg;

    fn on_start(&mut self, ctx: &mut Context<BaselineMsg>) {
        self.issue_next(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: BaselineMsg, ctx: &mut Context<BaselineMsg>) {
        let BaselineMsg::Reply {
            timestamp,
            reply_digest,
            replica,
            ..
        } = msg
        else {
            return;
        };
        let quorum = self.config.spec.client_quorum;
        let payload = self.payload_size;
        let Some((request, issued_at, replies, timer)) = self.outstanding.as_mut() else {
            return;
        };
        if request.timestamp != timestamp {
            return;
        }
        ctx.charge(CryptoOp::VerifyMac { len: 64 });
        replies.insert(replica, reply_digest);
        // Count replies matching the most common digest.
        let mut counts: BTreeMap<Digest, usize> = BTreeMap::new();
        for d in replies.values() {
            *counts.entry(*d).or_insert(0) += 1;
        }
        if counts.values().copied().max().unwrap_or(0) >= quorum {
            let latency = ctx.now().duration_since(*issued_at);
            ctx.cancel_timer(*timer);
            self.outstanding = None;
            self.committed += 1;
            ctx.record_commit(latency, payload);
            self.issue_next(ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<BaselineMsg>) {
        if token != TOKEN_RETRANSMIT {
            return;
        }
        // Retransmit to the leader and re-arm the timer.
        let Some((request, _, _, timer)) = self.outstanding.as_mut() else {
            return;
        };
        let msg = BaselineMsg::Request {
            request: request.clone(),
        };
        *timer = ctx.set_timer(self.config.client_retransmit, TOKEN_RETRANSMIT);
        ctx.count("baseline_client_retransmissions", 1);
        ctx.send(self.config.replica_nodes[0], msg);
    }
}

/// A node of a baseline cluster.
pub type BaselineNode = Node<BaselineReplica, BaselineClient>;
