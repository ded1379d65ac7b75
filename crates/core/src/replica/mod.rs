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
pub mod state_transfer;
pub mod view_change;

use crate::byzantine::ByzantineBehavior;
use crate::config::XPaxosConfig;
use crate::durable::{SealedSnapshot, SnapshotImage};
use crate::log::{CommitLog, PrepareLog};
use crate::messages::{CommitMsg, ReplyMsg, SignedRequest, XPaxosMsg};
use crate::state_machine::StateMachine;
use crate::sync_group::SyncGroups;
use crate::types::{ClientId, ReplicaId, SeqNum, Timestamp, ViewNumber};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
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

/// Commit signatures collected for a sequence number before the entry is complete
/// (general case, t ≥ 2).
#[derive(Debug, Default, Clone)]
pub(crate) struct PendingCommit {
    pub(crate) sigs: BTreeMap<ReplicaId, Signature>,
}

/// A cached reply together with the *raw* application reply digest it was
/// built from. The raw digest is what lets an active replica of a **later**
/// view re-bind the cached reply to the current view when answering a
/// retransmission (see `on_client_request`): the signed binding digest
/// `reply_digest(view, sn, c, ts, rd)` must be recomputed for the new view,
/// which needs `rd`.
#[derive(Debug, Clone)]
pub(crate) struct CachedReply {
    pub(crate) reply: ReplyMsg,
    pub(crate) rd: Digest,
    /// Retransmissions answered from this cache entry since it was recorded
    /// (or since the last escalation). A client that keeps re-sending an
    /// *executed* request is telling us its replies never assemble a commit
    /// quorum — e.g. the other active replica forgot the view, or holds a
    /// reply from an older view. After [`CACHE_ANSWER_SUSPECT_THRESHOLD`]
    /// re-answers the replica suspects the view, the Algorithm-4 escalation
    /// the plain (unexecuted-request) monitor path already provides.
    pub(crate) resends: u32,
}

/// Cache re-answers of one request before the view is suspected. The client
/// retransmit cycle paces arrivals, so a single lost reply stays well below
/// this; only a persistently uncommittable request crosses it.
pub(crate) const CACHE_ANSWER_SUSPECT_THRESHOLD: u32 = 3;

/// Cached replies per client for exactly-once semantics. With windowed clients
/// several of a client's requests execute close together — and load shedding
/// can reorder a single client's timestamps — so the seed's single "latest
/// timestamp" slot is no longer enough: duplicate suppression must match the
/// *exact* timestamp, both at admission and at execution.
#[derive(Debug, Default, Clone)]
pub(crate) struct ClientRecord {
    /// Replies to recent requests, pruned to [`CLIENT_REPLY_CACHE`] entries.
    pub(crate) replies: BTreeMap<Timestamp, CachedReply>,
    /// Every executed timestamp, as merged inclusive ranges (start → end).
    /// Execution is near-monotone per client (gaps only while shedding
    /// reorders a client's requests, and they close when the stragglers
    /// execute), so this stays a handful of entries — and unlike the bounded
    /// reply cache it is *exact forever*, which is what makes it safe to
    /// decide "already executed" from: a pruned reply can no longer be
    /// re-sent, but its request can never be re-executed either.
    executed_ranges: BTreeMap<u64, u64>,
}

/// Replies retained per client for re-answering retransmissions. A correct
/// client bounds its timestamp spread (oldest outstanding to newest issued)
/// by `MAX_TS_SPREAD = MAX_CLIENT_WINDOW`, so any request it can still
/// retransmit lies within the last `MAX_CLIENT_WINDOW` executed timestamps —
/// double that is ample. Executed-ness itself is tracked exactly by
/// `executed_ranges`, not by this bounded cache, so even a misbehaving
/// client's ancient duplicate can be swallowed but never re-executed.
pub(crate) const CLIENT_REPLY_CACHE: usize = 2 * crate::client::MAX_CLIENT_WINDOW;

impl ClientRecord {
    /// Records the reply for `ts` (with its raw application reply digest),
    /// pruning the oldest replies past the cap.
    pub(crate) fn record(&mut self, ts: Timestamp, reply: ReplyMsg, rd: Digest) {
        self.mark_executed(ts);
        self.replies.insert(
            ts,
            CachedReply {
                reply,
                rd,
                resends: 0,
            },
        );
        while self.replies.len() > CLIENT_REPLY_CACHE {
            let oldest = *self.replies.keys().next().expect("non-empty cache");
            self.replies.remove(&oldest);
        }
    }

    fn mark_executed(&mut self, ts: Timestamp) {
        // Extend the predecessor range if `ts` touches it…
        if let Some((&start, &end)) = self.executed_ranges.range(..=ts).next_back() {
            if ts <= end {
                return; // already covered
            }
            if end.saturating_add(1) == ts {
                let merged_end = self.absorb_successor(ts);
                self.executed_ranges.insert(start, merged_end);
                return;
            }
        }
        // …otherwise open a new range (possibly fusing with a successor).
        let merged_end = self.absorb_successor(ts);
        self.executed_ranges.insert(ts, merged_end);
    }

    /// Removes a range starting exactly at `ts + 1`, returning the combined
    /// end (or `ts` when none adjoins).
    fn absorb_successor(&mut self, ts: Timestamp) -> u64 {
        let next = ts.saturating_add(1);
        if let Some((&start, &end)) = self.executed_ranges.range(next..).next() {
            if start == next {
                self.executed_ranges.remove(&start);
                return end;
            }
        }
        ts
    }

    /// Whether request `ts` has ever been executed.
    pub(crate) fn executed(&self, ts: Timestamp) -> bool {
        self.executed_ranges
            .range(..=ts)
            .next_back()
            .map(|(_, &end)| ts <= end)
            .unwrap_or(false)
    }

    /// The cached reply for exactly `ts`, if not yet pruned.
    pub(crate) fn reply_for(&self, ts: Timestamp) -> Option<&CachedReply> {
        self.replies.get(&ts)
    }

    /// The oldest timestamp the checkpoint window rule must retain for this
    /// client, regardless of how far below the window base its reply was
    /// executed. A correct client caps its timestamp spread at
    /// `MAX_TS_SPREAD = MAX_CLIENT_WINDOW`, so every request it can still
    /// retransmit has `ts ≥ highest executed ts − MAX_CLIENT_WINDOW` —
    /// pruning inside that range wedges the request forever: once the
    /// original reply misses its quorum, the retransmission → re-answer
    /// path is the *only* recovery, and at high throughput a sequence-number
    /// window can close before the client's first retransmission timer even
    /// fires.
    ///
    /// Derived from `executed_ranges` — exact, and identical on every
    /// replica at the same execution point — *never* from the reply map
    /// itself: a veteran replica (which truncated at past seals after
    /// execution had moved on) and a freshly adopting replica (which decoded
    /// the capture-time set) hold different stale entries, so any rule that
    /// reads the map's own membership selects different survivors on each
    /// and the next PRECHK round disagrees on byte-identical snapshots.
    pub(crate) fn retained_reply_floor(&self) -> Option<Timestamp> {
        self.executed_ranges
            .values()
            .next_back()
            .map(|end| end.saturating_sub(crate::client::MAX_CLIENT_WINDOW as u64))
    }

    /// Rebuilds a record from its canonical snapshot form (state transfer /
    /// recovery). Cached replies come back as digest-only replies bound to
    /// the adopting replica and view — the view re-binding path refreshes
    /// them if the view moves on before a retransmission arrives.
    pub(crate) fn from_snapshot(
        snap: &crate::durable::ClientRecordSnapshot,
        view: ViewNumber,
        replica: ReplicaId,
    ) -> Self {
        let mut record = ClientRecord::default();
        for (start, end) in &snap.ranges {
            record.executed_ranges.insert(*start, *end);
        }
        for (ts, sn, rd) in &snap.replies {
            let reply = ReplyMsg {
                view,
                sn: *sn,
                client: snap.client,
                timestamp: *ts,
                reply_digest: crate::messages::reply_digest(view, *sn, snap.client, *ts, rd),
                payload: None,
                replica,
                follower_commit: None,
            };
            record.replies.insert(
                *ts,
                CachedReply {
                    reply,
                    rd: *rd,
                    resends: 0,
                },
            );
        }
        record
    }
}

/// An in-progress state transfer: the replica is missing executed state up
/// to `target` (a checkpoint its peers garbage-collected their logs at) and
/// is pulling the sealed snapshot chunk by chunk. Execution stalls at
/// `exec_sn` until the reassembled snapshot is verified and adopted; the
/// retry timer rotates through peers.
#[derive(Debug, Clone)]
pub(crate) struct PendingTransfer {
    /// The checkpoint sequence number needed (the snapshot adopted may be
    /// newer).
    pub(crate) target: SeqNum,
    /// Requests sent so far (selects the next peer to ask).
    pub(crate) attempts: u64,
    /// Retry timer.
    pub(crate) timer: Option<TimerId>,
    /// Correlation ID minted when the transfer started: every chunk request
    /// of this transfer carries it, so the whole fetch — across peer
    /// rotations and crash-resumes — groups as one trace in the flight
    /// recorder, like any client request.
    pub(crate) trace: u64,
    /// Chunk-level progress, established by the first verified response
    /// (which doubles as the transfer manifest) or rebuilt from WAL
    /// `TransferChunk` records after a crash.
    pub(crate) progress: Option<ChunkProgress>,
}

/// Verified progress of one chunked snapshot transfer: the manifest the
/// t + 1-signed seal commits to, plus every chunk verified so far. Each
/// verified chunk is journaled to the WAL, so a crash mid-transfer resumes
/// from here instead of refetching.
#[derive(Debug, Clone)]
pub(crate) struct ChunkProgress {
    /// The sealed checkpoint being fetched.
    pub(crate) sn: SeqNum,
    /// Chunk size the seal commits to (must match the local config).
    pub(crate) chunk_bytes: u32,
    /// Total length of the snapshot's canonical encoding.
    pub(crate) total_len: u64,
    /// Merkle root over the chunk leaves.
    pub(crate) root: Digest,
    /// The t + 1 signed CHKPT proof carried by every verified response.
    pub(crate) proof: Vec<crate::messages::CheckpointMsg>,
    /// Verified chunks by index.
    pub(crate) chunks: BTreeMap<u32, bytes::Bytes>,
    /// Indices requested and not yet answered (bounds in-flight repair
    /// traffic to `state_fetch_window × state_chunk_bytes`).
    pub(crate) inflight: BTreeSet<u32>,
}

impl ChunkProgress {
    /// Number of chunks the manifest describes.
    pub(crate) fn chunk_count(&self) -> u32 {
        crate::durable::chunk_count(self.total_len, self.chunk_bytes)
    }

    /// Whether every chunk has been verified.
    pub(crate) fn is_complete(&self) -> bool {
        self.chunks.len() as u32 == self.chunk_count()
    }
}

/// Per-view-change bookkeeping (paper Algorithm 3 / 5).
pub(crate) struct ViewChangeState {
    /// The view being installed.
    pub(crate) target: ViewNumber,
    /// VIEW-CHANGE messages received, keyed by sender.
    pub(crate) vc_msgs: BTreeMap<ReplicaId, crate::messages::ViewChangeMsg>,
    /// Whether the 2Δ collection window has elapsed.
    pub(crate) collect_deadline_passed: bool,
    /// Whether this replica already broadcast its VC-FINAL.
    pub(crate) vc_final_sent: bool,
    /// VC-FINAL messages received, keyed by sender.
    pub(crate) vc_finals: BTreeMap<ReplicaId, crate::messages::VcFinalMsg>,
    /// VC-CONFIRM digests received (fault-detection mode only).
    pub(crate) vc_confirms: BTreeMap<ReplicaId, Digest>,
    /// Whether this replica already broadcast its VC-CONFIRM.
    pub(crate) confirm_sent: bool,
    /// The merged view-change set (after VC-FINAL exchange).
    pub(crate) merged: Option<Vec<crate::messages::ViewChangeMsg>>,
    /// The selection this replica computed from the merged set (sn → batch digest).
    pub(crate) selection_digests: BTreeMap<u64, Digest>,
    /// The checkpoint horizon of the merged set — the highest *proven* stable
    /// checkpoint any contributor claimed — and its t + 1-signed proof.
    /// Everything at or below it is preserved by that checkpoint, not by
    /// re-proposal, so installation must treat it as the sequencing floor of
    /// the new view (see [`Replica::install_new_view`]).
    pub(crate) horizon: SeqNum,
    pub(crate) horizon_proof: Vec<crate::messages::CheckpointMsg>,
    /// A NEW-VIEW that arrived before our own VC-FINAL merge finished. The
    /// selection it must be validated against does not exist yet, so it is
    /// held here and replayed the moment the merge completes — installing it
    /// unvalidated would let a faulty primary omit committed requests.
    pub(crate) pending_new_view: Option<crate::messages::NewViewMsg>,
    /// 2Δ collection timer.
    pub(crate) collect_timer: Option<TimerId>,
    /// Overall completion timer.
    pub(crate) timeout_timer: Option<TimerId>,
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
    /// Commit signatures still being collected (general case).
    pub(crate) pending_commits: BTreeMap<u64, PendingCommit>,
    /// Follower COMMIT messages kept for attaching to client replies (t = 1 path).
    pub(crate) follower_commits: HashMap<u64, CommitMsg>,
    pub(crate) state: Box<dyn StateMachine>,
    /// (sn, batch digest) for every executed batch, used by consistency checks.
    pub(crate) executed_history: Vec<(SeqNum, Digest)>,
    /// Set while a view-change rebuild replays the adopted log: execution
    /// updates all local state but suppresses client replies (clients get the
    /// rebuilt cached replies on retransmission instead of a replay storm).
    pub(crate) replaying: bool,
    /// Recently executed timestamps and cached replies per client
    /// (exactly-once semantics, windowed).
    pub(crate) client_table: HashMap<ClientId, ClientRecord>,
    /// Proposals (PREPARE / COMMIT-CARRY) that arrived ahead of the next
    /// expected sequence number; drained in order as the gap fills (follower
    /// side of the commit pipeline).
    pub(crate) stashed_proposals: BTreeMap<u64, XPaxosMsg>,
    /// COMMITs that arrived before this replica processed the matching
    /// PREPARE (possible whenever proposals are pipelined over jittered
    /// links); replayed once the prepare lands.
    pub(crate) early_commits: BTreeMap<u64, Vec<CommitMsg>>,

    // ---- batching pipeline (primary role) ----------------------------------------
    /// Admission queue: requests accepted but not yet proposed, each with the
    /// correlation id it carried at admission (0 = none). Bounded by
    /// `config.pipeline.max_pending_requests`; overflow is shed with BUSY.
    /// The id is telemetry-only: it is re-established when the request's
    /// batch is proposed, so the trace survives the batch-timer hop, and
    /// never feeds protocol decisions or `Metrics`.
    pub(crate) pending_requests: VecDeque<(SignedRequest, u64)>,
    /// Mirror of `pending_requests` keys, so retransmissions of a request
    /// that is still queued (client re-sends after a suspect or recovery)
    /// don't occupy additional queue slots or batch capacity.
    pub(crate) queued_keys: HashSet<(ClientId, Timestamp)>,
    pub(crate) batch_timer: Option<TimerId>,
    /// Batches proposed in the current view that have not yet committed.
    pub(crate) proposed_in_flight: usize,

    // ---- checkpointing ----------------------------------------------------------
    pub(crate) last_checkpoint: SeqNum,
    /// The t + 1 signed CHKPT messages proving `last_checkpoint` (empty when
    /// it is 0); carried in VIEW-CHANGE messages so the new view's selection
    /// can trust the truncation horizon.
    pub(crate) checkpoint_proof: Vec<crate::messages::CheckpointMsg>,
    pub(crate) prechk_votes: BTreeMap<u64, BTreeMap<ReplicaId, Digest>>,
    pub(crate) chkpt_votes: BTreeMap<u64, Vec<crate::messages::CheckpointMsg>>,
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

    // ---- retransmission monitoring (Algorithm 4) ---------------------------------
    pub(crate) monitored: HashMap<u64, (ClientId, Timestamp)>,
    pub(crate) monitored_by_req: HashMap<(ClientId, Timestamp), (u64, TimerId)>,
    pub(crate) next_monitor_token: u64,

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
            client_table: HashMap::new(),
            stashed_proposals: BTreeMap::new(),
            early_commits: BTreeMap::new(),
            pending_requests: VecDeque::new(),
            queued_keys: HashSet::new(),
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
            monitored: HashMap::new(),
            monitored_by_req: HashMap::new(),
            next_monitor_token: 0,
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

    /// Whether stable storage is attached.
    pub fn has_storage(&self) -> bool {
        self.storage.is_some()
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
        let now_ns = ctx.now().as_nanos();
        let trace = xft_telemetry::trace::current();
        if let Some(log) = self.evidence.as_mut() {
            log.record(crate::evidence::DIR_RECEIVED, peer, now_ns, trace, sn, msg);
        }
    }

    /// Journals every accountable message queued for sending in this
    /// callback (called at handler exit; contexts are per-callback, so
    /// [`Context::pending_sends`] is exactly this handler's output). Bulk
    /// messages are digest-compacted on recording — see
    /// [`crate::evidence::is_bulk`].
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

    /// The attached telemetry hub (a disabled hub unless
    /// [`Replica::with_telemetry`] was used).
    pub fn telemetry(&self) -> &std::sync::Arc<xft_telemetry::Telemetry> {
        &self.telemetry
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
            self.telemetry
                .event(ctx.now().as_nanos(), self.id as u64, stage, detail);
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
        self.client_table.clear();
        self.stashed_proposals.clear();
        self.early_commits.clear();
        self.pending_requests.clear();
        self.queued_keys.clear();
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
        self.monitored.clear();
        self.monitored_by_req.clear();
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
        if let Some(timer) = self.pending_transfer.as_mut().and_then(|p| p.timer.take()) {
            ctx.cancel_timer(timer);
        }
        if let Some(vc) = self.vc.as_mut() {
            if let Some(timer) = vc.collect_timer.take() {
                ctx.cancel_timer(timer);
            }
            if let Some(timer) = vc.timeout_timer.take() {
                ctx.cancel_timer(timer);
            }
        }
        for (_, (_, timer)) in self.monitored_by_req.drain() {
            ctx.cancel_timer(timer);
        }
        self.monitored.clear();
    }

    /// The currently configured Byzantine behaviour.
    pub fn behavior(&self) -> ByzantineBehavior {
        self.behavior
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
            XPaxosMsg::Prepare(m) => self.on_prepare(from, m, ctx),
            XPaxosMsg::CommitCarry(m) => self.on_commit_carry(from, m, ctx),
            XPaxosMsg::Commit(m) => self.on_commit(from, m, ctx),
            XPaxosMsg::Suspect(m) => self.on_suspect(m, ctx),
            XPaxosMsg::ViewChange(m) => self.on_view_change(m, ctx),
            XPaxosMsg::VcFinal(m) => self.on_vc_final(m, ctx),
            XPaxosMsg::VcConfirm(m) => self.on_vc_confirm(m, ctx),
            XPaxosMsg::NewView(m) => self.on_new_view(m, ctx),
            XPaxosMsg::Checkpoint(m) => self.on_checkpoint(m, ctx),
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
            self.flush_batches(ctx);
        } else if token == TOKEN_STATE_TRANSFER {
            self.on_state_transfer_timer(ctx);
        } else if (TOKEN_VC_COLLECT..TOKEN_VC_TIMEOUT).contains(&token) {
            let target = ViewNumber(token - TOKEN_VC_COLLECT);
            self.on_vc_collect_deadline(target, ctx);
        } else if (TOKEN_VC_TIMEOUT..TOKEN_MONITOR).contains(&token) {
            let target = ViewNumber(token - TOKEN_VC_TIMEOUT);
            self.on_vc_timeout(target, ctx);
        } else if token >= TOKEN_MONITOR {
            self.on_monitor_timeout(token, ctx);
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
        self.monitored.clear();
        self.monitored_by_req.clear();
        // In-flight accounting restarts conservatively: commits for batches
        // proposed before the crash still drain through the commit log, and
        // the saturating decrement absorbs the mismatch.
        self.proposed_in_flight = 0;
        self.stashed_proposals.clear();
        self.early_commits.clear();
        // An interrupted state transfer resumes immediately (its retry timer
        // died with the crash).
        if let Some(pending) = self.pending_transfer.as_mut() {
            pending.timer = None;
            self.continue_state_transfer(ctx);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SeqNum as Sn;
    use xft_crypto::Digest as D;

    fn reply(ts: Timestamp) -> ReplyMsg {
        ReplyMsg {
            view: ViewNumber(0),
            sn: Sn(ts),
            client: ClientId(1),
            timestamp: ts,
            reply_digest: D::of(&ts.to_le_bytes()),
            payload: None,
            replica: 0,
            follower_commit: None,
        }
    }

    #[test]
    fn client_record_merges_executed_ranges() {
        let mut r = ClientRecord::default();
        for ts in [1, 2, 3, 7, 5, 6, 4] {
            r.record(ts, reply(ts), D::of(&ts.to_le_bytes()));
        }
        // Out-of-order execution collapses into one contiguous range.
        assert_eq!(r.executed_ranges, BTreeMap::from([(1, 7)]));
        assert!(r.executed(1) && r.executed(7));
        assert!(!r.executed(0) && !r.executed(8));
    }

    #[test]
    fn client_record_executedness_survives_reply_pruning() {
        let mut r = ClientRecord::default();
        for ts in 1..=(CLIENT_REPLY_CACHE as u64 + 50) {
            r.record(ts, reply(ts), D::of(&ts.to_le_bytes()));
        }
        assert_eq!(r.replies.len(), CLIENT_REPLY_CACHE);
        // The oldest replies were pruned…
        assert!(r.reply_for(1).is_none());
        // …but their requests can never be re-admitted.
        assert!(r.executed(1));
        assert_eq!(r.executed_ranges.len(), 1);
    }

    #[test]
    fn client_record_tracks_gaps_until_they_close() {
        let mut r = ClientRecord::default();
        r.record(1, reply(1), D::of(b"1"));
        r.record(3, reply(3), D::of(b"3"));
        assert!(!r.executed(2), "the shed request is still admissible");
        assert_eq!(r.executed_ranges.len(), 2);
        r.record(2, reply(2), D::of(b"2"));
        assert_eq!(r.executed_ranges, BTreeMap::from([(1, 3)]));
    }
}
