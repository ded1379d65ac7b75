//! XPaxos wire messages (paper Figures 2–5, 13 and Appendix B).

use crate::log::{CommitEntry, PrepareEntry};
use crate::types::{Batch, ClientId, ReplicaId, Request, SeqNum, Timestamp, ViewNumber};
use xft_crypto::{Digest, Signature};
use xft_simnet::SimMessage;

/// A client request together with the client's signature, `⟨REPLICATE, op, ts_c, c⟩σc`.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedRequest {
    /// The request payload.
    pub request: Request,
    /// The client's signature over the request digest.
    pub signature: Signature,
}

impl SignedRequest {
    /// Approximate wire size.
    pub fn wire_size(&self) -> usize {
        self.request.wire_size() + 40
    }
}

/// PREPARE (general case, t ≥ 2): the primary's ordering statement carrying the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareMsg {
    /// Current view.
    pub view: ViewNumber,
    /// Sequence number assigned to the batch.
    pub sn: SeqNum,
    /// The batch of requests being ordered.
    pub batch: Batch,
    /// Client signatures for the requests in the batch.
    pub client_sigs: Vec<Signature>,
    /// The primary's signature over (D(batch), sn, view).
    pub signature: Signature,
}

/// COMMIT carrying the batch — the t = 1 fast path message from the primary to the
/// follower (`⟨req, m0⟩` in §4.2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct CommitCarryMsg {
    /// Current view.
    pub view: ViewNumber,
    /// Sequence number assigned to the batch.
    pub sn: SeqNum,
    /// The batch of requests being ordered.
    pub batch: Batch,
    /// Client signatures for the requests in the batch.
    pub client_sigs: Vec<Signature>,
    /// The primary's commit signature `m0`.
    pub signature: Signature,
}

/// COMMIT (digest form): a follower's signed commit statement. In the t = 1 fast path
/// this is `m1` and also carries the client timestamp and reply digest.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitMsg {
    /// Current view.
    pub view: ViewNumber,
    /// Sequence number being committed.
    pub sn: SeqNum,
    /// Digest of the batch.
    pub batch_digest: Digest,
    /// Replica issuing the commit.
    pub replica: ReplicaId,
    /// Digest of the replies produced by executing the batch (t = 1 fast path only).
    pub reply_digest: Option<Digest>,
    /// The replica's signature.
    pub signature: Signature,
}

/// REPLY to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyMsg {
    /// View in which the request committed.
    pub view: ViewNumber,
    /// Sequence number of the batch that contained the request.
    pub sn: SeqNum,
    /// The client the reply is addressed to. Replies for distinct clients can
    /// arrive over one shared connection (the mux client front-end); the echo
    /// lets the receiver demultiplex without per-client sockets.
    pub client: ClientId,
    /// Echo of the client's timestamp.
    pub timestamp: Timestamp,
    /// Digest of the application-level reply.
    pub reply_digest: Digest,
    /// Full reply payload (primary only; followers send the digest only).
    pub payload: Option<bytes::Bytes>,
    /// Replica sending the reply.
    pub replica: ReplicaId,
    /// The follower's signed commit `m1`, attached by the primary in the t = 1 fast
    /// path so the client can verify with a single reply message.
    pub follower_commit: Option<CommitMsg>,
}

impl ReplyMsg {
    /// Replica `replica`'s REPLY to request `(client, ts)`, executed at `sn`
    /// with raw result digest `rd`, bound to `view` and carrying no follower
    /// commit: the one place a replica builds a REPLY.
    pub(crate) fn bound(
        (view, sn): (ViewNumber, SeqNum),
        (client, ts): (ClientId, Timestamp),
        rd: &Digest,
        payload: Option<bytes::Bytes>,
        replica: ReplicaId,
    ) -> ReplyMsg {
        ReplyMsg {
            view,
            sn,
            client,
            timestamp: ts,
            reply_digest: reply_digest(view, sn, client, ts, rd),
            payload,
            replica,
            follower_commit: None,
        }
    }
}

/// BUSY: the primary's admission queue is full; the request identified by
/// `timestamp` was shed and the client should retry after a short backoff.
///
/// Unsigned by design: a forged BUSY can only delay one client's request,
/// which the network is already free to do by dropping messages; the client's
/// retransmission path recovers in both cases.
#[derive(Debug, Clone, PartialEq)]
pub struct BusyMsg {
    /// The replica's current view, for diagnostics only — clients must not
    /// adopt a view estimate from an unsigned message.
    pub view: ViewNumber,
    /// The client whose request was shed (mux demultiplexing, like
    /// [`ReplyMsg::client`]).
    pub client: ClientId,
    /// Timestamp of the shed request.
    pub timestamp: Timestamp,
    /// Replica shedding the request.
    pub replica: ReplicaId,
}

/// SUSPECT: a replica announces it suspects the current view.
#[derive(Debug, Clone, PartialEq)]
pub struct SuspectMsg {
    /// The suspected view.
    pub view: ViewNumber,
    /// The suspecting replica.
    pub replica: ReplicaId,
    /// Signature over (view, replica).
    pub signature: Signature,
}

/// VIEW-CHANGE: a replica transfers its logs to the active replicas of the new view.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewChangeMsg {
    /// The view being installed (`i + 1`).
    pub new_view: ViewNumber,
    /// Sender.
    pub replica: ReplicaId,
    /// The sender's commit log.
    pub commit_log: Vec<CommitEntry>,
    /// The sender's prepare log — only transferred when fault detection is enabled.
    pub prepare_log: Vec<PrepareEntry>,
    /// The sender's stable checkpoint: everything at or below it was
    /// executed, agreed on and garbage-collected from the logs. The new
    /// view's selection must treat those sequence numbers as *checkpointed
    /// history* (recoverable only through state transfer), never as
    /// never-committed holes to fill with no-ops.
    pub last_checkpoint: SeqNum,
    /// The t + 1 signed CHKPT messages proving `last_checkpoint` (empty when
    /// it is 0). An unproven claim is rejected, so a faulty replica cannot
    /// poison the selection with a fictitious horizon.
    pub checkpoint_proof: Vec<CheckpointMsg>,
    /// Signature over a digest of the message.
    pub signature: Signature,
}

impl ViewChangeMsg {
    /// Digest covered by the sender's signature: the canonical wire encoding of
    /// every field except the signature itself, so what is signed is exactly
    /// what travels (no encode/sign drift).
    pub fn digest(&self) -> Digest {
        xft_wire::domain_digest(b"view-change", &self.unsigned_part())
    }

    /// Approximate wire size.
    pub fn wire_size(&self) -> usize {
        64 + self.commit_log.iter().map(|e| e.wire_size()).sum::<usize>()
            + self
                .prepare_log
                .iter()
                .map(|e| e.wire_size())
                .sum::<usize>()
            + self.checkpoint_proof.len() * 112
    }
}

/// VC-FINAL: active replicas of the new view exchange the view-change messages they
/// collected.
#[derive(Debug, Clone, PartialEq)]
pub struct VcFinalMsg {
    /// The view being installed.
    pub new_view: ViewNumber,
    /// Sender (an active replica of the new view).
    pub replica: ReplicaId,
    /// The set of view-change messages the sender collected.
    pub vc_set: Vec<ViewChangeMsg>,
    /// Signature.
    pub signature: Signature,
}

/// VC-CONFIRM: fault-detection round agreeing on the filtered view-change set
/// (paper §B.4, Figure 13).
#[derive(Debug, Clone, PartialEq)]
pub struct VcConfirmMsg {
    /// The view being installed.
    pub new_view: ViewNumber,
    /// Sender.
    pub replica: ReplicaId,
    /// Digest of the sender's (filtered) view-change set.
    pub vc_set_digest: Digest,
    /// Signature.
    pub signature: Signature,
}

/// NEW-VIEW: the new primary re-proposes the selected requests.
#[derive(Debug, Clone, PartialEq)]
pub struct NewViewMsg {
    /// The view being installed.
    pub new_view: ViewNumber,
    /// Prepare entries (one per selected sequence number), regenerated in the new view.
    pub prepare_log: Vec<PrepareEntry>,
    /// Signature of the new primary.
    pub signature: Signature,
}

/// PRECHK / CHKPT: checkpoint agreement among active replicas (paper §4.5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointMsg {
    /// Sequence number at which the checkpoint is taken.
    pub sn: SeqNum,
    /// Current view.
    pub view: ViewNumber,
    /// Digest of the replica state after executing `sn`.
    pub state_digest: Digest,
    /// Sender.
    pub replica: ReplicaId,
    /// `false` for the MAC-authenticated PRECHK round, `true` for the signed CHKPT round.
    pub signed: bool,
    /// Signature (meaningful when `signed`).
    pub signature: Signature,
}

/// STATE-CHUNK-REQUEST: a lagging (or freshly restarted) replica asks a peer
/// for one chunk of a sealed checkpoint snapshot at or beyond `min_sn` — the
/// pull half of the chunked state-transfer protocol (paper §4.5.1: a replica
/// that garbage-collected its log can only catch a peer up by shipping the
/// checkpointed state itself). The requester starts at index 0 (whose
/// response doubles as the manifest) and then pulls the remaining chunks
/// under a bounded fetch window, so recovery traffic never exceeds
/// `state_fetch_window × state_chunk_bytes` in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct StateChunkRequestMsg {
    /// The lowest checkpoint sequence number that would help the requester.
    pub min_sn: SeqNum,
    /// The exact snapshot generation the requester is mid-way through
    /// fetching, or `SeqNum(0)` for "whatever is freshest". Pinning matters
    /// when the cluster seals checkpoints faster than a narrow fetch window
    /// drains: without it every new seal would restart the transfer and it
    /// could never complete.
    pub want_sn: SeqNum,
    /// The chunk index requested. A peer whose sealed snapshot has fewer
    /// chunks answers with chunk 0, which re-manifests the transfer.
    pub index: u32,
    /// The requesting replica.
    pub replica: ReplicaId,
    /// Signature over [`state_chunk_request_digest`].
    pub signature: Signature,
}

/// STATE-CHUNK-RESPONSE: one bounded-size chunk of the sealed snapshot's
/// canonical encoding, with everything needed to verify it in isolation: the
/// chunk-tree manifest (`chunk_bytes`, `total_len`, `root`), a Merkle audit
/// path from this chunk's leaf to the root, and the t + 1 signed CHKPT proof
/// whose `state_digest` commits to that manifest. The receiver verifies the
/// proof, recomputes the commitment from the manifest, and checks the audit
/// path before storing a single byte — so a faulty responder can delay state
/// transfer but never corrupt it, and a crash mid-transfer loses nothing
/// that was journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct StateChunkResponseMsg {
    /// The sealed checkpoint sequence number the chunk belongs to.
    pub sn: SeqNum,
    /// Chunk (Merkle leaf) size the commitment used.
    pub chunk_bytes: u32,
    /// Total length of the encoded snapshot.
    pub total_len: u64,
    /// Merkle root over the chunk leaves.
    pub root: Digest,
    /// This chunk's index.
    pub index: u32,
    /// The chunk bytes (exactly `chunk_bytes` long except for the last chunk).
    pub data: bytes::Bytes,
    /// Audit path from this chunk's leaf to `root`.
    pub path: Vec<Digest>,
    /// The signed CHKPT quorum sealing the snapshot commitment.
    pub proof: Vec<CheckpointMsg>,
    /// The responding replica.
    pub replica: ReplicaId,
    /// Signature over [`state_chunk_response_digest`], attributing the
    /// response to its sender (content integrity comes from the proof chain).
    pub signature: Signature,
}

/// FAULT-DETECTED: broadcast by a replica whose fault-detection checks identified a
/// non-crash-faulty replica during a view change (simplified form of the paper's
/// STATE-LOSS / FORK-I / FORK-II announcements).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDetectedMsg {
    /// View change in which the fault was detected.
    pub new_view: ViewNumber,
    /// The replica detected as faulty.
    pub culprit: ReplicaId,
    /// Kind of fault detected.
    pub kind: DetectedFaultKind,
    /// Reporter.
    pub reporter: ReplicaId,
    /// Reporter's signature.
    pub signature: Signature,
}

/// The classes of detectable non-crash faults (paper Algorithm 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectedFaultKind {
    /// A replica's prepare log lost an entry its own view's commit proof shows existed.
    StateLoss,
    /// A replica's logs contain conflicting entries for the same sequence number
    /// (fork-I / fork-II in the paper).
    Fork,
}

/// All XPaxos wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum XPaxosMsg {
    /// Client → primary: replicate a request.
    Replicate(SignedRequest),
    /// Client → active replicas: retransmission of an uncommitted request.
    Resend(SignedRequest),
    /// Primary → followers (t ≥ 2).
    Prepare(PrepareMsg),
    /// Primary → follower (t = 1 fast path), carrying the batch.
    CommitCarry(CommitCarryMsg),
    /// Follower → active replicas: signed commit (digest form).
    Commit(CommitMsg),
    /// Active replica → client.
    Reply(ReplyMsg),
    /// Primary → client: admission queue full, request shed — retry later.
    Busy(BusyMsg),
    /// Replica → all replicas: suspect the current view.
    Suspect(SuspectMsg),
    /// Replica → new active replicas: log transfer.
    ViewChange(ViewChangeMsg),
    /// New active replica → new active replicas: collected view-change set.
    VcFinal(VcFinalMsg),
    /// New active replica → new active replicas: fault-detection confirmation.
    VcConfirm(VcConfirmMsg),
    /// New primary → new active replicas: re-proposal of selected requests.
    NewView(NewViewMsg),
    /// Checkpoint rounds among active replicas.
    Checkpoint(CheckpointMsg),
    /// Active replica → passive replicas: checkpoint proof (LAZYCHK).
    LazyCheckpoint {
        /// The t + 1 signed CHKPT messages proving the checkpoint.
        proof: Vec<CheckpointMsg>,
    },
    /// Follower → passive replicas: lazy replication of committed entries.
    LazyReplicate {
        /// View in which the entries were committed.
        view: ViewNumber,
        /// The committed entries being propagated.
        entries: Vec<CommitEntry>,
    },
    /// Lagging replica → peer: request one snapshot chunk (state transfer).
    StateChunkRequest(StateChunkRequestMsg),
    /// Peer → lagging replica: one verified-in-isolation snapshot chunk.
    StateChunkResponse(StateChunkResponseMsg),
    /// Replica → everyone: a non-crash fault was detected during a view change.
    FaultDetected(FaultDetectedMsg),
    /// Replica → client: the view the replica is currently in (sent alongside SUSPECT
    /// handling so clients can follow view changes, Algorithm 4).
    SuspectToClient(SuspectMsg),
    /// Storage → own replica (local only): the background WAL fsync reached
    /// this LSN; deferred client replies gated on it may be released. Never
    /// legitimately sent over the wire, and harmless if forged: the replica
    /// re-reads the real durable LSN from its own storage before releasing
    /// anything.
    SyncDone(u64),
}

impl SimMessage for XPaxosMsg {
    fn size_bytes(&self) -> usize {
        const HDR: usize = 32; // framing + MAC overhead
        HDR + match self {
            XPaxosMsg::Replicate(r) | XPaxosMsg::Resend(r) => r.wire_size(),
            XPaxosMsg::Prepare(p) => p.batch.wire_size() + 40 * (1 + p.client_sigs.len()) + 24,
            XPaxosMsg::CommitCarry(c) => c.batch.wire_size() + 40 * (1 + c.client_sigs.len()) + 24,
            XPaxosMsg::Commit(_) => 32 + 40 + 24 + 32,
            XPaxosMsg::Reply(r) => {
                64 + r.payload.as_ref().map(|p| p.len()).unwrap_or(0)
                    + if r.follower_commit.is_some() { 128 } else { 0 }
            }
            XPaxosMsg::Busy(_) => 24,
            XPaxosMsg::Suspect(_) | XPaxosMsg::SuspectToClient(_) => 56,
            XPaxosMsg::ViewChange(vc) => vc.wire_size(),
            XPaxosMsg::VcFinal(f) => 64 + f.vc_set.iter().map(|m| m.wire_size()).sum::<usize>(),
            XPaxosMsg::VcConfirm(_) => 104,
            XPaxosMsg::NewView(nv) => {
                64 + nv.prepare_log.iter().map(|e| e.wire_size()).sum::<usize>()
            }
            XPaxosMsg::Checkpoint(_) => 112,
            XPaxosMsg::LazyCheckpoint { proof } => 16 + proof.len() * 112,
            XPaxosMsg::LazyReplicate { entries, .. } => {
                16 + entries.iter().map(|e| e.wire_size()).sum::<usize>()
            }
            XPaxosMsg::StateChunkRequest(_) => 72,
            XPaxosMsg::StateChunkResponse(m) => {
                120 + m.data.len() + m.path.len() * 32 + m.proof.len() * 112
            }
            XPaxosMsg::FaultDetected(_) => 96,
            XPaxosMsg::SyncDone(_) => 8,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            XPaxosMsg::Replicate(_) => "REPLICATE",
            XPaxosMsg::Resend(_) => "RE-SEND",
            XPaxosMsg::Prepare(_) => "PREPARE",
            XPaxosMsg::CommitCarry(_) => "COMMIT-CARRY",
            XPaxosMsg::Commit(_) => "COMMIT",
            XPaxosMsg::Reply(_) => "REPLY",
            XPaxosMsg::Busy(_) => "BUSY",
            XPaxosMsg::Suspect(_) => "SUSPECT",
            XPaxosMsg::ViewChange(_) => "VIEW-CHANGE",
            XPaxosMsg::VcFinal(_) => "VC-FINAL",
            XPaxosMsg::VcConfirm(_) => "VC-CONFIRM",
            XPaxosMsg::NewView(_) => "NEW-VIEW",
            XPaxosMsg::Checkpoint(c) => {
                if c.signed {
                    "CHKPT"
                } else {
                    "PRECHK"
                }
            }
            XPaxosMsg::LazyCheckpoint { .. } => "LAZYCHK",
            XPaxosMsg::LazyReplicate { .. } => "LAZY-REPLICATE",
            XPaxosMsg::StateChunkRequest(_) => "CHUNK-REQ",
            XPaxosMsg::StateChunkResponse(_) => "CHUNK-RESP",
            XPaxosMsg::FaultDetected(_) => "FAULT-DETECTED",
            XPaxosMsg::SuspectToClient(_) => "SUSPECT-CLIENT",
            XPaxosMsg::SyncDone(_) => "SYNC-DONE",
        }
    }
}

/// Digest signed by a client over its request (domain-separated from replica
/// digests), derived from the request's canonical wire encoding.
pub fn client_request_digest(request: &Request) -> Digest {
    xft_wire::domain_digest(b"client-request", request)
}

/// Digest signed in a SUSPECT message.
pub fn suspect_digest(view: ViewNumber, replica: ReplicaId) -> Digest {
    xft_wire::domain_digest(b"suspect", &(view, replica as u64))
}

/// Digest the new primary signs in a NEW-VIEW message.
pub fn new_view_digest(view: ViewNumber) -> Digest {
    xft_wire::domain_digest(b"new-view", &view)
}

/// Digest signed in a CHKPT message: binds the view, the checkpoint sequence
/// number and the agreed snapshot digest under a dedicated domain. Checkpoint
/// votes are durable, load-bearing evidence (sealed-snapshot proofs,
/// VIEW-CHANGE horizons, state-transfer verification), so they must never
/// share a signing domain with any other message.
pub fn checkpoint_vote_digest(view: ViewNumber, sn: SeqNum, state: &Digest) -> Digest {
    xft_wire::domain_digest(b"chkpt", &(view, sn, *state))
}

/// Digest signed in a STATE-CHUNK-REQUEST message.
pub fn state_chunk_request_digest(
    min_sn: SeqNum,
    want_sn: SeqNum,
    index: u32,
    replica: ReplicaId,
) -> Digest {
    xft_wire::domain_digest(
        b"state-chunk-request",
        &(min_sn, want_sn, index as u64, replica as u64),
    )
}

/// Digest signed in a STATE-CHUNK-RESPONSE message: binds the sealed
/// checkpoint sequence number, the chunk-tree manifest, the chunk's leaf
/// digest and the responding replica.
pub fn state_chunk_response_digest(m: &StateChunkResponseMsg) -> Digest {
    let leaf = crate::durable::chunk_leaf(m.index, &m.data);
    xft_wire::domain_digest(
        b"state-chunk-response",
        &(
            m.sn,
            (m.chunk_bytes as u64, m.total_len, m.root),
            (m.index as u64, leaf, m.replica as u64),
        ),
    )
}

/// Digest signed in a REPLY message (binds view, sn, client timestamp and reply digest).
pub fn reply_digest(
    view: ViewNumber,
    sn: SeqNum,
    client: ClientId,
    ts: Timestamp,
    reply: &Digest,
) -> Digest {
    xft_wire::domain_digest(b"reply", &(view, sn, client, ts, *reply))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use xft_crypto::KeyId;

    fn request(bytes: usize) -> Request {
        Request::new(ClientId(1), 7, Bytes::from(vec![0u8; bytes]))
    }

    #[test]
    fn message_sizes_scale_with_payload() {
        let small = XPaxosMsg::Replicate(SignedRequest {
            request: request(16),
            signature: Signature::forged(KeyId(0)),
        });
        let big = XPaxosMsg::Replicate(SignedRequest {
            request: request(4096),
            signature: Signature::forged(KeyId(0)),
        });
        assert!(big.size_bytes() > small.size_bytes() + 4000);
        assert_eq!(small.kind(), "REPLICATE");
    }

    #[test]
    fn commit_is_small_regardless_of_batch() {
        let commit = XPaxosMsg::Commit(CommitMsg {
            view: ViewNumber(0),
            sn: SeqNum(1),
            batch_digest: Digest::of(b"batch"),
            replica: 1,
            reply_digest: None,
            signature: Signature::forged(KeyId(1)),
        });
        assert!(commit.size_bytes() < 256);
        assert_eq!(commit.kind(), "COMMIT");
    }

    #[test]
    fn checkpoint_kind_distinguishes_rounds() {
        let mut chk = CheckpointMsg {
            sn: SeqNum(128),
            view: ViewNumber(0),
            state_digest: Digest::ZERO,
            replica: 0,
            signed: false,
            signature: Signature::forged(KeyId(0)),
        };
        assert_eq!(XPaxosMsg::Checkpoint(chk.clone()).kind(), "PRECHK");
        chk.signed = true;
        assert_eq!(XPaxosMsg::Checkpoint(chk).kind(), "CHKPT");
    }

    #[test]
    fn view_change_digest_covers_logs() {
        let base = ViewChangeMsg {
            new_view: ViewNumber(2),
            replica: 1,
            commit_log: vec![],
            prepare_log: vec![],
            last_checkpoint: SeqNum(0),
            checkpoint_proof: vec![],
            signature: Signature::forged(KeyId(1)),
        };
        let with_log = ViewChangeMsg {
            commit_log: vec![CommitEntry {
                view: ViewNumber(1),
                sn: SeqNum(1),
                batch: Batch::single(request(8)),
                primary_sig: Signature::forged(KeyId(0)),
                commit_sigs: Default::default(),
            }],
            ..base.clone()
        };
        assert_ne!(base.digest(), with_log.digest());
        assert!(with_log.wire_size() > base.wire_size());
    }

    #[test]
    fn helper_digests_are_domain_separated() {
        let req = request(8);
        assert_ne!(client_request_digest(&req), req.digest());
        let r = Digest::of(b"result");
        let d1 = reply_digest(ViewNumber(0), SeqNum(1), ClientId(1), 7, &r);
        let d2 = reply_digest(ViewNumber(0), SeqNum(2), ClientId(1), 7, &r);
        assert_ne!(d1, d2);
        assert_ne!(
            suspect_digest(ViewNumber(0), 1),
            suspect_digest(ViewNumber(1), 1)
        );
    }
}
