//! The XPaxos replica: state, message dispatch and the common-case ordering protocol.
//!
//! The replica is split across several files by protocol component, mirroring the
//! paper's presentation: this module holds the state and the common case (§4.2),
//! [`view_change`] the decentralized view change (§4.3), [`fault_detection`] the FD
//! checks (§4.4, Appendix B.4), and [`checkpoint`] the checkpointing and lazy
//! replication optimizations (§4.5).

pub mod checkpoint;
pub mod common_case;
pub mod durability;
pub mod fault_detection;
pub mod sessions;
pub mod state_transfer;
pub mod view_change;
pub(crate) mod votes;

use crate::byzantine::ByzantineBehavior;
use crate::config::XPaxosConfig;
use crate::durable::{SealedSnapshot, SnapshotImage};
use crate::log::{CommitLog, PrepareEntry, PrepareLog};
use crate::messages::{CommitCarryMsg, CommitMsg, PrepareMsg, SignedRequest, XPaxosMsg};
use crate::state_machine::StateMachine;
use crate::sync_group::SyncGroups;
use crate::types::{ClientId, ReplicaId, SeqNum, ViewNumber};
use sessions::Sessions;
use state_transfer::PendingTransfer;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use votes::{Reorder, Votes};
use xft_crypto::{Digest, KeyRegistry, Signature, Signer, Verifier};
use xft_simnet::{Actor, Context, ControlCode, NodeId, TimerId};
use xft_store::Storage;

/// Timer token: the primary's batch-accumulation timeout.
pub(crate) const TOKEN_BATCH: u64 = 1;
/// Timer token: the state-transfer retry timer.
pub(crate) const TOKEN_STATE_TRANSFER: u64 = 2;
/// Timer token base: the 2Δ VIEW-CHANGE collection window (plus the target view).
pub(crate) const TOKEN_VC_COLLECT: u64 = 1_000_000_000;
/// Timer token base: the overall view-change completion timeout (plus the target view).
pub(crate) const TOKEN_VC_TIMEOUT: u64 = 2_000_000_000;
/// Timer token base: per-request retransmission monitors (plus a local counter).
pub(crate) const TOKEN_MONITOR: u64 = 3_000_000_000;

/// Which protocol phase the replica is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Normal operation in the current view.
    Active,
    /// A view change towards `Replica::view` is in progress.
    ViewChange,
}

/// Per-view-change bookkeeping (paper Algorithm 3 / 5).
pub(crate) struct ViewChangeState {
    /// The view being installed.
    pub(crate) target: ViewNumber,
    /// VIEW-CHANGE messages received.
    pub(crate) vc_msgs: Votes<crate::messages::ViewChangeMsg>,
    /// Whether the 2Δ collection window has elapsed.
    pub(crate) collect_deadline_passed: bool,
    /// VC-FINAL messages received, this replica's own (sent once the
    /// collection condition holds) included.
    pub(crate) vc_finals: Votes<crate::messages::VcFinalMsg>,
    /// VC-CONFIRM digests received, this replica's own (sent with the
    /// filtered `merged` set) included; fault-detection mode only.
    pub(crate) vc_confirms: Votes<Digest>,
    /// The merged view-change set (after VC-FINAL exchange; with fault
    /// detection, filtered of the replicas it detected).
    pub(crate) merged: Option<Vec<crate::messages::ViewChangeMsg>>,
    /// The selection this replica computed from the merged set.
    pub(crate) selection: Option<view_change::Selection>,
    /// A NEW-VIEW that arrived before our selection existed (the VC-FINAL
    /// merge or, with fault detection, the VC-CONFIRM quorum was still
    /// missing). It is held here and replayed the moment the selection
    /// lands — installing it unvalidated would let a faulty primary omit
    /// committed requests.
    pub(crate) pending_new_view: Option<crate::messages::NewViewMsg>,
    /// 2Δ collection timer.
    pub(crate) collect_timer: TimerId,
    /// Overall completion timer.
    pub(crate) timeout_timer: TimerId,
}

/// An XPaxos replica.
pub struct Replica {
    pub(crate) id: ReplicaId,
    pub(crate) config: XPaxosConfig,
    pub(crate) groups: SyncGroups,
    pub(crate) signer: Signer,
    pub(crate) verifier: Verifier,
    /// Stateless crypto front-end: batched client-signature verification,
    /// batch digesting and PREPARE/COMMIT signing on the protocol thread
    /// (see [`crate::pipeline`]).
    pub(crate) crypto_front: crate::pipeline::CryptoFront,
    /// Injected non-crash behaviour (tests / FD experiments).
    pub(crate) behavior: ByzantineBehavior,

    // ---- view state -------------------------------------------------------------
    pub(crate) view: ViewNumber,
    pub(crate) phase: Phase,
    /// The last view this replica *installed* (reached `Phase::Active` in).
    /// Unlike `view`, which runs ahead during a view change, this is what a
    /// WAL re-seed must record — recovery resumes from installed state.
    pub(crate) installed_view: ViewNumber,

    // ---- ordering state ---------------------------------------------------------
    /// Highest sequence number prepared/accepted locally.
    pub(crate) next_sn: SeqNum,
    /// Highest sequence number executed.
    pub(crate) exec_sn: SeqNum,
    pub(crate) prepare_log: PrepareLog,
    pub(crate) commit_log: CommitLog,
    /// Commit signatures still being collected per sequence number
    /// (general case).
    pub(crate) pending_commits: BTreeMap<u64, Votes<Signature>>,
    /// The t = 1 primary's fast-path certificates: the follower's signed
    /// COMMIT per sequence number, read when executing (the reply-digest
    /// cross-check) and when answering clients, and kept across view changes
    /// until checkpoint GC. One message per slot, not a vote collection.
    pub(crate) follower_commits: HashMap<u64, CommitMsg>,
    pub(crate) state: Box<dyn StateMachine>,
    /// (sn, batch digest) for every executed batch, used by consistency checks.
    pub(crate) executed_history: Vec<(SeqNum, Digest)>,
    /// Set while a view-change rebuild replays the adopted log: execution
    /// updates all local state but suppresses client replies (clients get the
    /// rebuilt cached replies on retransmission instead of a replay storm).
    pub(crate) replaying: bool,
    /// One record per client: executed requests, cached replies, and the
    /// queued and monitored marks of requests not yet executed.
    pub(crate) sessions: Sessions,
    /// Verified proposals (PREPARE / COMMIT-CARRY) that cannot be applied
    /// yet — ahead of the next expected sequence number, or (t = 1) of
    /// execution; drained in order as the gap fills (follower side of the
    /// commit pipeline).
    pub(crate) stashed_proposals: Reorder<PrepareEntry>,
    /// COMMITs that arrived before this replica processed the matching
    /// PREPARE (possible whenever proposals are pipelined over jittered
    /// links); replayed once the prepare lands.
    pub(crate) early_commits: Reorder<Votes<CommitMsg>>,

    // ---- batching pipeline (primary role) ----------------------------------------
    /// Admission queue: requests accepted but not yet proposed, each with the
    /// correlation id it carried at admission (0 = none). Bounded by
    /// `config.pipeline.max_pending_requests`; overflow is shed with BUSY.
    /// The id is telemetry-only: it is re-established when the request's
    /// batch is proposed, so the trace survives the batch-timer hop, and
    /// never feeds protocol decisions or `Metrics`. Each entry is marked
    /// queued in `sessions`, so a retransmitted copy takes no second slot.
    pub(crate) pending_requests: VecDeque<(SignedRequest, u64)>,
    pub(crate) batch_timer: Option<TimerId>,
    /// Batches proposed in the current view that have not yet committed.
    pub(crate) proposed_in_flight: usize,

    // ---- checkpointing ----------------------------------------------------------
    pub(crate) last_checkpoint: SeqNum,
    /// The t + 1 signed CHKPT messages proving `last_checkpoint` (empty when
    /// it is 0); carried in VIEW-CHANGE messages so the new view's selection
    /// can trust the truncation horizon.
    pub(crate) checkpoint_proof: Vec<crate::messages::CheckpointMsg>,
    /// PRECHK state digests per sequence number.
    pub(crate) prechk_votes: BTreeMap<u64, Votes<Digest>>,
    /// Signed CHKPT messages per sequence number.
    pub(crate) chkpt_votes: BTreeMap<u64, Votes<crate::messages::CheckpointMsg>>,
    /// Images captured when this replica initiated PRECHK at a sequence
    /// number, awaiting their CHKPT proof.
    pub(crate) pending_snapshots: BTreeMap<u64, std::sync::Arc<SnapshotImage>>,
    /// The latest stable checkpoint's sealed snapshot — what this replica
    /// rolls back to and serves to lagging peers through state transfer.
    pub(crate) latest_snapshot: Option<SealedSnapshot>,

    // ---- durability & state transfer ---------------------------------------------
    /// Attached stable storage; `None` runs the replica purely in memory
    /// (the seed behaviour, still used by most simulations).
    pub(crate) storage: Option<Box<dyn Storage>>,
    /// Client replies held back until the WAL is durable up to their LSN
    /// (overlapped-fsync storage only; always empty otherwise). FIFO with
    /// non-decreasing LSNs, flushed by `SyncDone` notifications. Fsync
    /// completion gates *replies* — never admission or ordering.
    pub(crate) deferred_replies: VecDeque<(u64, NodeId, XPaxosMsg)>,
    /// An in-progress state transfer, if any.
    pub(crate) pending_transfer: Option<PendingTransfer>,
    /// The sealed generation state-transfer responses are served from. It
    /// deliberately outlives newer seals while a requester pins it
    /// (`want_sn`): a slow transfer must be able to finish against a stable
    /// snapshot even though the cluster keeps checkpointing, otherwise it
    /// restarts on every seal and a transfer wider than one checkpoint
    /// interval can never complete. Shares its image with `latest_snapshot`
    /// until that moves on.
    pub(crate) serving_snapshot: Option<SealedSnapshot>,

    // ---- view change ------------------------------------------------------------
    pub(crate) vc: Option<ViewChangeState>,
    /// Views for which a SUSPECT has already been forwarded (dedup).
    pub(crate) forwarded_suspects: HashSet<u64>,

    // ---- fault detection --------------------------------------------------------
    /// Replicas this replica has detected (or been told, with proof) to be faulty.
    pub(crate) detected_faulty: BTreeSet<ReplicaId>,

    // ---- statistics --------------------------------------------------------------
    pub(crate) committed_batches: u64,
    pub(crate) view_changes_completed: u64,

    // ---- observability ------------------------------------------------------------
    /// Telemetry hub (disabled by default). Strictly observation-only:
    /// nothing recorded here ever feeds back into protocol decisions, and
    /// every record call is clocked by the runtime's (possibly virtual)
    /// clock, so simulated runs stay deterministic with telemetry on or off.
    pub(crate) telemetry: std::sync::Arc<xft_telemetry::Telemetry>,

    // ---- accountability -----------------------------------------------------------
    /// The forensic evidence log (`None` = accountability off, the default).
    /// Every accountable protocol message this replica sends or accepts is
    /// appended, hash-chained, with its trace id and arrival metadata;
    /// checkpoint GC bounds it to O(interval). Observation-only, like
    /// telemetry: recording never feeds back into protocol decisions.
    pub(crate) evidence: Option<crate::evidence::EvidenceLog>,
}

impl Replica {
    /// Creates a replica with the given id, configuration and state machine.
    pub fn new(
        id: ReplicaId,
        config: XPaxosConfig,
        registry: &std::sync::Arc<KeyRegistry>,
        state: Box<dyn StateMachine>,
    ) -> Self {
        let signer = Signer::new(registry, crate::types::replica_key(id));
        let verifier = Verifier::new(registry.clone());
        let groups = SyncGroups::new(config.t);
        let window = common_case::reorder_window(&config);
        Replica {
            id,
            config,
            groups,
            signer,
            verifier,
            crypto_front: crate::pipeline::CryptoFront::inline(),
            behavior: ByzantineBehavior::Correct,
            view: ViewNumber(0),
            phase: Phase::Active,
            installed_view: ViewNumber(0),
            next_sn: SeqNum(0),
            exec_sn: SeqNum(0),
            prepare_log: PrepareLog::new(),
            commit_log: CommitLog::new(),
            pending_commits: BTreeMap::new(),
            follower_commits: HashMap::new(),
            state,
            executed_history: Vec::new(),
            replaying: false,
            sessions: Sessions::default(),
            stashed_proposals: Reorder::new(window),
            early_commits: Reorder::new(window),
            pending_requests: VecDeque::new(),
            batch_timer: None,
            proposed_in_flight: 0,
            last_checkpoint: SeqNum(0),
            checkpoint_proof: Vec::new(),
            prechk_votes: BTreeMap::new(),
            chkpt_votes: BTreeMap::new(),
            pending_snapshots: BTreeMap::new(),
            latest_snapshot: None,
            storage: None,
            deferred_replies: VecDeque::new(),
            pending_transfer: None,
            serving_snapshot: None,
            vc: None,
            forwarded_suspects: HashSet::new(),
            detected_faulty: BTreeSet::new(),
            committed_batches: 0,
            view_changes_completed: 0,
            telemetry: xft_telemetry::Telemetry::disabled(),
            evidence: None,
        }
    }

    /// Attaches stable storage: every prepare/commit/view transition is
    /// appended to its WAL and stable checkpoints install snapshot files, so
    /// the replica can be rebuilt after `kill -9` with
    /// [`Replica::recover_from_storage`].
    pub fn with_storage(mut self, storage: Box<dyn Storage>) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Attaches a telemetry hub: histograms, flight-recorder events and
    /// synchrony-monitor samples flow into it. The replica's counters do not:
    /// it counts through [`Context::count`], and the TCP runtime exports
    /// those counts to its hub. Observation-only — see the field
    /// documentation.
    pub fn with_telemetry(mut self, telemetry: std::sync::Arc<xft_telemetry::Telemetry>) -> Self {
        self.telemetry = telemetry;
        // Rebuild the front against the new hub so its histograms land there.
        self.crypto_front = crate::pipeline::CryptoFront::new(self.telemetry.clone());
        self
    }

    /// Attaches a forensic evidence log: every accountable protocol message
    /// sent or accepted is appended (hash-chained, durably), bounded by
    /// checkpoint GC. The auditor in `xft-forensics` cross-checks these logs
    /// across replicas to produce proofs of culpability.
    pub fn with_evidence_log(mut self, mut log: crate::evidence::EvidenceLog) -> Self {
        log.set_recorder(self.id as u64);
        self.evidence = Some(log);
        self
    }

    /// The attached evidence log, if accountability is on.
    pub fn evidence(&self) -> Option<&crate::evidence::EvidenceLog> {
        self.evidence.as_ref()
    }

    /// Records one accepted message into the evidence log (no-op when
    /// accountability is off or the message carries no replica statement).
    /// Runs *before* verification by design: the auditor re-verifies every
    /// signature offline, so capturing invalid traffic is harmless — it can
    /// never become a proof — while capturing early guarantees nothing the
    /// replica acted on is missing.
    pub(crate) fn note_evidence_received(
        &mut self,
        from: NodeId,
        msg: &XPaxosMsg,
        ctx: &Context<XPaxosMsg>,
    ) {
        if self.evidence.is_none() || !crate::evidence::is_accountable(msg) {
            return;
        }
        let peer = self
            .replica_of_node(from)
            .map(|r| r as u64)
            .unwrap_or(crate::evidence::PEER_UNKNOWN);
        let sn = crate::evidence::evidence_sn(msg).unwrap_or(self.exec_sn.0);
        let (now_ns, trace) = (ctx.now().as_nanos(), ctx.trace());
        if let Some(log) = self.evidence.as_mut() {
            log.record(crate::evidence::DIR_RECEIVED, peer, now_ns, trace, sn, msg);
        }
    }

    /// Journals every accountable message queued for sending in this
    /// callback (called at handler exit; contexts are per-callback, so
    /// [`Context::pending_sends`] is exactly this handler's output). Bulk
    /// messages are digest-compacted on recording — see
    /// [`crate::evidence::compact`].
    pub(crate) fn note_evidence_sent(&mut self, ctx: &Context<XPaxosMsg>) {
        if self.evidence.is_none() {
            return;
        }
        let now_ns = ctx.now().as_nanos();
        let fallback_sn = self.exec_sn.0;
        let items: Vec<(u64, u64, u64, &XPaxosMsg)> = ctx
            .pending_sends()
            .iter()
            .filter(|out| crate::evidence::is_accountable(&out.msg))
            .map(|out| {
                let peer = self
                    .replica_of_node(out.to)
                    .map(|r| r as u64)
                    .unwrap_or(crate::evidence::PEER_UNKNOWN);
                let sn = crate::evidence::evidence_sn(&out.msg).unwrap_or(fallback_sn);
                (peer, sn, out.trace, &out.msg)
            })
            .collect();
        if items.is_empty() {
            return;
        }
        let log = self.evidence.as_mut().expect("checked above");
        for (peer, sn, trace, msg) in items {
            log.record(crate::evidence::DIR_SENT, peer, now_ns, trace, sn, msg);
        }
    }

    /// Records one flight-recorder stage event, timestamped with the actor's
    /// deterministic clock. No-op (one branch) when telemetry is disabled.
    pub(crate) fn tel_event(
        &self,
        ctx: &Context<XPaxosMsg>,
        stage: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if self.telemetry.is_enabled() {
            let (now, id) = (ctx.now().as_nanos(), self.id as u64);
            self.telemetry.event(now, id, ctx.trace(), stage, detail);
        }
    }

    // ---- role helpers -----------------------------------------------------------

    /// The replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Current view.
    pub fn view(&self) -> ViewNumber {
        self.view
    }

    /// Current protocol phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Highest executed sequence number.
    pub fn executed_upto(&self) -> SeqNum {
        self.exec_sn
    }

    /// The last stable checkpoint this replica adopted (0 = none).
    pub fn last_checkpoint(&self) -> SeqNum {
        self.last_checkpoint
    }

    /// The executed history (sn, batch digest) — used by consistency checks.
    pub fn executed_history(&self) -> &[(SeqNum, Digest)] {
        &self.executed_history
    }

    /// Digest of the replicated state machine's state.
    pub fn state_digest(&self) -> Digest {
        self.state.state_digest()
    }

    /// Number of batches this replica has committed.
    pub fn committed_batches(&self) -> u64 {
        self.committed_batches
    }

    /// Number of view changes this replica has completed.
    pub fn view_changes_completed(&self) -> u64 {
        self.view_changes_completed
    }

    /// Replicas detected as faulty by the FD mechanism.
    pub fn detected_faulty(&self) -> &BTreeSet<ReplicaId> {
        &self.detected_faulty
    }

    /// Sets the replica's Byzantine behaviour (tests / FD experiments).
    pub fn set_behavior(&mut self, behavior: ByzantineBehavior) {
        self.behavior = behavior;
    }

    /// The *amnesia* fault ([`crate::byzantine::CONTROL_AMNESIA`]): lose every
    /// piece of stable storage — ordering logs, executed history, client
    /// table, application state, and the attached WAL/snapshot files — and
    /// continue from a blank slate. The view estimate is forgotten too; the
    /// replica re-learns it from the next SUSPECT / VIEW-CHANGE traffic and
    /// rebuilds state from the NEW-VIEW selection (full-log replay) or from a
    /// verified state transfer (checkpointed configurations), exactly like a
    /// freshly provisioned machine joining with a stale identity. Within the
    /// `t` budget XPaxos recovers; beyond it, committed requests are
    /// genuinely lost and the chaos checker sees it.
    pub fn forget_state(&mut self) {
        self.clear_volatile_state();
        if let Some(storage) = self.storage.as_mut() {
            storage.wipe();
        }
        // The machine lost *all* its storage — its own evidence included.
        // Culpability is pinned from the logs of the replicas it talked to.
        if let Some(evidence) = self.evidence.as_mut() {
            evidence.wipe();
        }
    }

    /// Resets every piece of protocol and application state *except* the
    /// storage handle — the shared core of [`Replica::forget_state`] (which
    /// also wipes the disk) and the disk-fault restart path (which keeps the
    /// damaged disk and recovers from it).
    pub(crate) fn clear_volatile_state(&mut self) {
        self.behavior = ByzantineBehavior::Correct;
        self.replaying = false;
        self.view = ViewNumber(0);
        self.phase = Phase::Active;
        self.installed_view = ViewNumber(0);
        self.next_sn = SeqNum(0);
        self.exec_sn = SeqNum(0);
        self.prepare_log = PrepareLog::new();
        self.commit_log = CommitLog::new();
        self.pending_commits.clear();
        self.follower_commits.clear();
        self.state.reset();
        self.executed_history.clear();
        self.sessions.clear();
        self.stashed_proposals.clear();
        self.early_commits.clear();
        self.pending_requests.clear();
        self.batch_timer = None;
        self.proposed_in_flight = 0;
        self.last_checkpoint = SeqNum(0);
        self.checkpoint_proof.clear();
        self.prechk_votes.clear();
        self.chkpt_votes.clear();
        self.pending_snapshots.clear();
        self.latest_snapshot = None;
        self.deferred_replies.clear();
        self.pending_transfer = None;
        self.serving_snapshot = None;
        self.vc = None;
        self.forwarded_suspects.clear();
        self.detected_faulty.clear();
    }

    /// Cancels every outstanding timer owned by state that
    /// [`Replica::clear_volatile_state`] is about to drop. Unlike a simulated
    /// crash (where the simulator discards the node's timers), the amnesia
    /// and disk-fault injections keep the node scheduled — a state-transfer
    /// retry timer armed before the fault would otherwise fire into the
    /// *next* transfer's bookkeeping and double-drive it. Must run before the
    /// clear, while the timer ids are still known; handlers are also guarded
    /// against the context-less `forget_state` callers where cancellation is
    /// impossible.
    pub(crate) fn cancel_volatile_timers(&mut self, ctx: &mut Context<XPaxosMsg>) {
        if let Some(timer) = self.batch_timer.take() {
            ctx.cancel_timer(timer);
        }
        self.end_state_transfer(ctx);
        self.end_view_change(ctx);
        for timer in self.sessions.drop_monitors() {
            ctx.cancel_timer(timer);
        }
    }

    /// Whether this replica is active (primary or follower) in `view`.
    pub fn is_active_in(&self, view: ViewNumber) -> bool {
        self.groups.is_active(view, self.id)
    }

    /// Whether this replica is the primary of `view`.
    pub fn is_primary_in(&self, view: ViewNumber) -> bool {
        self.groups.is_primary(view, self.id)
    }

    /// Simnet node id of a replica.
    pub(crate) fn node_of(&self, replica: ReplicaId) -> NodeId {
        self.config.node_of(replica)
    }

    /// The replica id occupying simnet node `node`, if it is a replica node.
    pub(crate) fn replica_of_node(&self, node: NodeId) -> Option<ReplicaId> {
        self.config.replica_nodes.iter().position(|n| *n == node)
    }

    /// Simnet node id of a client.
    pub(crate) fn client_node(&self, client: ClientId) -> NodeId {
        // Clients occupy the configured client nodes indexed by their id.
        self.config.client_nodes[client.0 as usize % self.config.client_nodes.len().max(1)]
    }

    /// Active replicas of a view, as simnet node ids, excluding this replica.
    pub(crate) fn other_active_nodes(&self, view: ViewNumber) -> Vec<NodeId> {
        self.groups
            .active_replicas(view)
            .iter()
            .filter(|r| **r != self.id)
            .map(|r| self.node_of(*r))
            .collect()
    }

    /// All replica nodes except this one.
    pub(crate) fn other_replica_nodes(&self) -> Vec<NodeId> {
        (0..self.config.n())
            .filter(|r| *r != self.id)
            .map(|r| self.node_of(r))
            .collect()
    }
}

impl Actor for Replica {
    type Msg = XPaxosMsg;

    fn on_start(&mut self, _ctx: &mut Context<XPaxosMsg>) {}

    fn on_message(&mut self, from: NodeId, msg: XPaxosMsg, ctx: &mut Context<XPaxosMsg>) {
        // Synchrony monitoring: note that the sending peer replica is alive.
        // Observation-only (telemetry never feeds protocol state), and even a
        // mute replica still *hears*.
        if self.telemetry.is_enabled() {
            if let Some(peer) = self.replica_of_node(from) {
                if peer != self.id {
                    let now_ns = ctx.now().as_nanos();
                    self.telemetry
                        .with_monitor(|m| m.note_heard(peer as u64, now_ns));
                }
            }
        }
        // A mute replica receives but never reacts: a "silent" non-crash fault.
        if self.behavior == ByzantineBehavior::Mute {
            return;
        }
        self.note_evidence_received(from, &msg, ctx);
        match msg {
            XPaxosMsg::Replicate(req) => self.on_client_request(req, false, ctx),
            XPaxosMsg::Resend(req) => self.on_client_request(req, true, ctx),
            // The primary's proposal: COMMIT-CARRY at t = 1, PREPARE at
            // t ≥ 2. The kind this configuration does not use is dropped.
            XPaxosMsg::Prepare(_) if self.config.t == 1 => {}
            XPaxosMsg::CommitCarry(_) if self.config.t > 1 => {}
            XPaxosMsg::Prepare(PrepareMsg {
                view,
                sn,
                batch,
                client_sigs,
                signature,
            })
            | XPaxosMsg::CommitCarry(CommitCarryMsg {
                view,
                sn,
                batch,
                client_sigs,
                signature,
            }) => self.on_proposal(
                PrepareEntry {
                    view,
                    sn,
                    batch,
                    client_sigs,
                    primary_sig: signature,
                },
                ctx,
            ),
            XPaxosMsg::Commit(m) => self.on_commit(m, ctx),
            XPaxosMsg::Suspect(m) => self.on_suspect(m, ctx),
            XPaxosMsg::ViewChange(m) => self.on_view_change(m, ctx),
            XPaxosMsg::VcFinal(m) => self.on_vc_final(m, ctx),
            XPaxosMsg::VcConfirm(m) => self.on_vc_confirm(m, ctx),
            XPaxosMsg::NewView(m) => self.on_new_view(m, ctx),
            XPaxosMsg::Checkpoint(m) => self.on_checkpoint(from, m, ctx),
            XPaxosMsg::LazyCheckpoint { proof } => self.on_lazy_checkpoint(proof, ctx),
            XPaxosMsg::LazyReplicate { entries, .. } => self.on_lazy_replicate(entries, ctx),
            XPaxosMsg::StateChunkRequest(m) => self.on_state_chunk_request(m, ctx),
            XPaxosMsg::StateChunkResponse(m) => self.on_state_chunk_response(m, ctx),
            XPaxosMsg::FaultDetected(m) => self.on_fault_detected(m, ctx),
            // The durable LSN moved (background fsync completion, injected by
            // the runtime — or a forged copy, which is harmless: the release
            // re-reads the true durable LSN from our own storage).
            XPaxosMsg::SyncDone(_) => self.release_durable_replies(ctx),
            // Replies, busy notices and client-directed suspects are never
            // addressed to replicas.
            XPaxosMsg::Reply(_) | XPaxosMsg::Busy(_) | XPaxosMsg::SuspectToClient(_) => {}
        }
        self.note_evidence_sent(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<XPaxosMsg>) {
        if self.behavior == ByzantineBehavior::Mute {
            return;
        }
        if token == TOKEN_BATCH {
            self.batch_timer = None;
            self.pump_pipeline(ctx, true);
        } else if token == TOKEN_STATE_TRANSFER {
            self.on_state_transfer_timer(ctx);
        } else if (TOKEN_VC_COLLECT..TOKEN_VC_TIMEOUT).contains(&token) {
            let target = ViewNumber(token - TOKEN_VC_COLLECT);
            self.on_vc_collect_deadline(target, ctx);
        } else if (TOKEN_VC_TIMEOUT..TOKEN_MONITOR).contains(&token) {
            let target = ViewNumber(token - TOKEN_VC_TIMEOUT);
            self.on_vc_timeout(target, ctx);
        } else if let Some(client) = self.sessions.expire(token) {
            // A monitored request did not commit in time: suspect the view
            // and tell the client (Algorithm 4, lines 8–10).
            if self.phase == Phase::Active {
                self.suspect_view(Some(client), ctx);
            }
        }
        self.note_evidence_sent(ctx);
    }

    fn on_recover(&mut self, ctx: &mut Context<XPaxosMsg>) {
        // State (logs, state machine) is preserved across the crash, modeling stable
        // storage. Timers were discarded by the simulator; in-progress view-change
        // bookkeeping is reset — the replica will rejoin through SUSPECT / VIEW-CHANGE
        // messages from others.
        self.batch_timer = None;
        self.vc = None;
        self.phase = Phase::Active;
        self.sessions.drop_monitors();
        // In-flight accounting restarts conservatively: commits for batches
        // proposed before the crash still drain through the commit log, and
        // the saturating decrement absorbs the mismatch.
        self.proposed_in_flight = 0;
        self.stashed_proposals.clear();
        self.early_commits.clear();
        // An interrupted state transfer resumes immediately: its retry timer
        // died with the crash.
        if let Some(pending) = self.pending_transfer.as_mut() {
            pending.timer = None;
        }
        self.resume_state_transfer(ctx);
        self.note_evidence_sent(ctx);
    }

    fn on_control(&mut self, code: ControlCode, ctx: &mut Context<XPaxosMsg>) {
        match code.0 {
            crate::byzantine::CONTROL_AMNESIA => {
                // Total storage loss. The replica rebuilds either by full-log
                // replay (no checkpoints anywhere) or through verified state
                // transfer of the latest checkpoint (view_change.rs /
                // state_transfer.rs), so the injection is honoured on every
                // configuration.
                self.cancel_volatile_timers(ctx);
                self.forget_state();
                ctx.count("amnesia_injected", 1);
            }
            crate::byzantine::CONTROL_TORN_TAIL | crate::byzantine::CONTROL_CORRUPT_WAL => {
                self.cancel_volatile_timers(ctx);
                self.on_disk_fault(code.0, ctx);
            }
            _ => {
                if let Some(behavior) = ByzantineBehavior::from_control_code(code) {
                    self.behavior = behavior;
                }
            }
        }
        self.note_evidence_sent(ctx);
    }
}
