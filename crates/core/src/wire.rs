//! Canonical wire encoding of the XPaxos message types.
//!
//! Implements `xft-wire`'s [`WireEncode`] / [`WireDecode`] for
//! [`XPaxosMsg`] and every nested struct in [`crate::messages`],
//! [`crate::types`] and [`crate::log`]. This encoding is used two ways:
//!
//! * **transport** — `xft-net` ships these bytes over TCP (the simulator keeps
//!   passing messages by value, so simulation performance is unaffected);
//! * **signing** — every signed digest in the protocol is derived from the
//!   canonical encoding via [`xft_wire::domain_digest`], so the bytes a
//!   replica signs are, by construction, the bytes its peers decode.
//!
//! Enum variants carry explicit one-byte tags; unknown tags decode to `None`,
//! which the envelope surfaces as [`xft_wire::WireError::Malformed`].

use crate::durable::{ClientRecordSnapshot, DurableEvent, ReplicaSnapshot, TransferChunkRecord};
use crate::log::{CommitEntry, PrepareEntry};
use crate::messages::{
    BusyMsg, CheckpointMsg, CommitCarryMsg, CommitMsg, DetectedFaultKind, FaultDetectedMsg,
    NewViewMsg, PrepareMsg, ReplyMsg, SignedRequest, StateChunkRequestMsg, StateChunkResponseMsg,
    SuspectMsg, VcConfirmMsg, VcFinalMsg, ViewChangeMsg, XPaxosMsg,
};
use crate::types::{Batch, ClientId, Request, SeqNum, ViewNumber};
use bytes::{BufMut, Reader};
use xft_wire::{WireDecode, WireEncode};

/// Variant tags of [`XPaxosMsg`] on the wire. Kept explicit (rather than
/// derived from declaration order) so reordering the enum can never silently
/// change the protocol.
mod tag {
    pub const REPLICATE: u8 = 1;
    pub const RESEND: u8 = 2;
    pub const PREPARE: u8 = 3;
    pub const COMMIT_CARRY: u8 = 4;
    pub const COMMIT: u8 = 5;
    pub const REPLY: u8 = 6;
    pub const SUSPECT: u8 = 7;
    pub const VIEW_CHANGE: u8 = 8;
    pub const VC_FINAL: u8 = 9;
    pub const VC_CONFIRM: u8 = 10;
    pub const NEW_VIEW: u8 = 11;
    pub const CHECKPOINT: u8 = 12;
    pub const LAZY_CHECKPOINT: u8 = 13;
    pub const LAZY_REPLICATE: u8 = 14;
    pub const FAULT_DETECTED: u8 = 15;
    pub const SUSPECT_TO_CLIENT: u8 = 16;
    pub const BUSY: u8 = 17;
    // 18 (STATE_REQUEST) and 19 (STATE_RESPONSE) carried the retired
    // monolithic state-transfer protocol; they must not be reused.
    pub const SYNC_DONE: u8 = 20;
    pub const STATE_CHUNK_REQUEST: u8 = 21;
    pub const STATE_CHUNK_RESPONSE: u8 = 22;
}

macro_rules! newtype_u64_codec {
    ($ty:ty) => {
        impl WireEncode for $ty {
            fn encode_into(&self, out: &mut impl BufMut) {
                self.0.encode_into(out);
            }
        }
        impl WireDecode for $ty {
            fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
                u64::decode_from(r).map(Self)
            }
        }
    };
}

newtype_u64_codec!(ViewNumber);
newtype_u64_codec!(SeqNum);
newtype_u64_codec!(ClientId);

/// `ReplicaId` is `usize` in memory but always `u64` on the wire.
fn encode_replica(replica: usize, out: &mut impl BufMut) {
    (replica as u64).encode_into(out);
}

fn decode_replica(r: &mut Reader<'_>) -> Option<usize> {
    u64::decode_from(r).and_then(|v| usize::try_from(v).ok())
}

/// Encodes/decodes a struct field-by-field in declaration order.
macro_rules! struct_codec {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl WireEncode for $ty {
            fn encode_into(&self, out: &mut impl BufMut) {
                $(self.$field.encode_into(out);)+
            }
        }
        impl WireDecode for $ty {
            fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
                Some(Self { $($field: WireDecode::decode_from(r)?),+ })
            }
        }
    };
}

struct_codec!(Request {
    client,
    timestamp,
    op
});
// `Batch` carries a non-wire digest cache, so its codec is written out: only
// the requests cross the wire, and decoding starts with a cold cache.
impl WireEncode for Batch {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.requests.encode_into(out);
    }
}
impl WireDecode for Batch {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Vec::<Request>::decode_from(r).map(Batch::new)
    }
}
struct_codec!(SignedRequest { request, signature });
struct_codec!(PrepareMsg {
    view,
    sn,
    batch,
    client_sigs,
    signature
});
struct_codec!(CommitCarryMsg {
    view,
    sn,
    batch,
    client_sigs,
    signature
});
struct_codec!(NewViewMsg {
    new_view,
    prepare_log,
    signature
});
struct_codec!(PrepareEntry {
    view,
    sn,
    batch,
    client_sigs,
    primary_sig
});
struct_codec!(ClientRecordSnapshot {
    client,
    ranges,
    replies
});
struct_codec!(ReplicaSnapshot {
    sn,
    base,
    app,
    executed,
    clients
});
struct_codec!(TransferChunkRecord {
    sn,
    chunk_bytes,
    total_len,
    root,
    index,
    data,
    proof
});

// Structs holding a `ReplicaId` (usize) field need hand-written impls so the
// id travels as u64.

impl WireEncode for VcFinalMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.new_view.encode_into(out);
        encode_replica(self.replica, out);
        self.vc_set.encode_into(out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for VcFinalMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(VcFinalMsg {
            new_view: WireDecode::decode_from(r)?,
            replica: decode_replica(r)?,
            vc_set: WireDecode::decode_from(r)?,
            signature: WireDecode::decode_from(r)?,
        })
    }
}

impl WireEncode for VcConfirmMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.new_view.encode_into(out);
        encode_replica(self.replica, out);
        self.vc_set_digest.encode_into(out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for VcConfirmMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(VcConfirmMsg {
            new_view: WireDecode::decode_from(r)?,
            replica: decode_replica(r)?,
            vc_set_digest: WireDecode::decode_from(r)?,
            signature: WireDecode::decode_from(r)?,
        })
    }
}

impl WireEncode for CommitMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.view.encode_into(out);
        self.sn.encode_into(out);
        self.batch_digest.encode_into(out);
        encode_replica(self.replica, out);
        self.reply_digest.encode_into(out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for CommitMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(CommitMsg {
            view: WireDecode::decode_from(r)?,
            sn: WireDecode::decode_from(r)?,
            batch_digest: WireDecode::decode_from(r)?,
            replica: decode_replica(r)?,
            reply_digest: WireDecode::decode_from(r)?,
            signature: WireDecode::decode_from(r)?,
        })
    }
}

impl WireEncode for ReplyMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.view.encode_into(out);
        self.sn.encode_into(out);
        self.client.encode_into(out);
        self.timestamp.encode_into(out);
        self.reply_digest.encode_into(out);
        self.payload.encode_into(out);
        encode_replica(self.replica, out);
        self.follower_commit.encode_into(out);
    }
}

impl WireDecode for ReplyMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(ReplyMsg {
            view: WireDecode::decode_from(r)?,
            sn: WireDecode::decode_from(r)?,
            client: WireDecode::decode_from(r)?,
            timestamp: WireDecode::decode_from(r)?,
            reply_digest: WireDecode::decode_from(r)?,
            payload: WireDecode::decode_from(r)?,
            replica: decode_replica(r)?,
            follower_commit: WireDecode::decode_from(r)?,
        })
    }
}

impl WireEncode for BusyMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.view.encode_into(out);
        self.client.encode_into(out);
        self.timestamp.encode_into(out);
        encode_replica(self.replica, out);
    }
}

impl WireDecode for BusyMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(BusyMsg {
            view: WireDecode::decode_from(r)?,
            client: WireDecode::decode_from(r)?,
            timestamp: WireDecode::decode_from(r)?,
            replica: decode_replica(r)?,
        })
    }
}

impl WireEncode for SuspectMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.view.encode_into(out);
        encode_replica(self.replica, out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for SuspectMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(SuspectMsg {
            view: WireDecode::decode_from(r)?,
            replica: decode_replica(r)?,
            signature: WireDecode::decode_from(r)?,
        })
    }
}

impl WireEncode for ViewChangeMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.unsigned_part().encode_into(out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for ViewChangeMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(ViewChangeMsg {
            new_view: WireDecode::decode_from(r)?,
            replica: decode_replica(r)?,
            commit_log: WireDecode::decode_from(r)?,
            prepare_log: WireDecode::decode_from(r)?,
            last_checkpoint: WireDecode::decode_from(r)?,
            checkpoint_proof: WireDecode::decode_from(r)?,
            signature: WireDecode::decode_from(r)?,
        })
    }
}

impl ViewChangeMsg {
    /// The canonically encoded fields covered by the sender's signature (all of
    /// them except the signature itself), as a borrowing tuple.
    #[allow(clippy::type_complexity)]
    pub(crate) fn unsigned_part(
        &self,
    ) -> (
        ViewNumber,
        u64,
        &Vec<CommitEntry>,
        &Vec<PrepareEntry>,
        SeqNum,
        &Vec<CheckpointMsg>,
    ) {
        (
            self.new_view,
            self.replica as u64,
            &self.commit_log,
            &self.prepare_log,
            self.last_checkpoint,
            &self.checkpoint_proof,
        )
    }
}

impl WireEncode for CheckpointMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.sn.encode_into(out);
        self.view.encode_into(out);
        self.state_digest.encode_into(out);
        encode_replica(self.replica, out);
        self.signed.encode_into(out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for CheckpointMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(CheckpointMsg {
            sn: WireDecode::decode_from(r)?,
            view: WireDecode::decode_from(r)?,
            state_digest: WireDecode::decode_from(r)?,
            replica: decode_replica(r)?,
            signed: WireDecode::decode_from(r)?,
            signature: WireDecode::decode_from(r)?,
        })
    }
}

impl WireEncode for StateChunkRequestMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.min_sn.encode_into(out);
        self.want_sn.encode_into(out);
        self.index.encode_into(out);
        encode_replica(self.replica, out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for StateChunkRequestMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(StateChunkRequestMsg {
            min_sn: WireDecode::decode_from(r)?,
            want_sn: WireDecode::decode_from(r)?,
            index: WireDecode::decode_from(r)?,
            replica: decode_replica(r)?,
            signature: WireDecode::decode_from(r)?,
        })
    }
}

impl WireEncode for StateChunkResponseMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.sn.encode_into(out);
        self.chunk_bytes.encode_into(out);
        self.total_len.encode_into(out);
        self.root.encode_into(out);
        self.index.encode_into(out);
        self.data.encode_into(out);
        self.path.encode_into(out);
        self.proof.encode_into(out);
        encode_replica(self.replica, out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for StateChunkResponseMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let msg = StateChunkResponseMsg {
            sn: WireDecode::decode_from(r)?,
            chunk_bytes: WireDecode::decode_from(r)?,
            total_len: WireDecode::decode_from(r)?,
            root: WireDecode::decode_from(r)?,
            index: WireDecode::decode_from(r)?,
            data: WireDecode::decode_from(r)?,
            path: WireDecode::decode_from(r)?,
            proof: WireDecode::decode_from(r)?,
            replica: decode_replica(r)?,
            signature: WireDecode::decode_from(r)?,
        };
        // Field-level caps on top of the generic collection bound: a Merkle
        // audit path has one sibling per tree level (64 covers 2^64 chunks),
        // and a checkpoint proof carries one vote per replica. Anything
        // longer is hostile padding and is rejected before verification
        // spends signature checks on it.
        if msg.path.len() > 64 || msg.proof.len() > 64 {
            return None;
        }
        Some(msg)
    }
}

/// WAL record tags for [`DurableEvent`] (explicit, like the message tags:
/// the on-disk format must never drift with enum reordering).
mod wal_tag {
    pub const VIEW: u8 = 1;
    pub const COMMIT: u8 = 2;
    pub const PREPARE: u8 = 3;
    pub const TRANSFER_CHUNK: u8 = 4;
}

impl WireEncode for DurableEvent {
    fn encode_into(&self, out: &mut impl BufMut) {
        match self {
            DurableEvent::View(v) => (wal_tag::VIEW, v).encode_into(out),
            DurableEvent::Commit(e) => (wal_tag::COMMIT, e).encode_into(out),
            DurableEvent::Prepare(e) => (wal_tag::PREPARE, e).encode_into(out),
            DurableEvent::TransferChunk(c) => (wal_tag::TRANSFER_CHUNK, c).encode_into(out),
        }
    }
}

impl WireDecode for DurableEvent {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.get_u8()? {
            wal_tag::VIEW => DurableEvent::View(WireDecode::decode_from(r)?),
            wal_tag::COMMIT => DurableEvent::Commit(WireDecode::decode_from(r)?),
            wal_tag::PREPARE => DurableEvent::Prepare(WireDecode::decode_from(r)?),
            wal_tag::TRANSFER_CHUNK => DurableEvent::TransferChunk(WireDecode::decode_from(r)?),
            _ => return None,
        })
    }
}

impl WireEncode for DetectedFaultKind {
    fn encode_into(&self, out: &mut impl BufMut) {
        let tag: u8 = match self {
            DetectedFaultKind::StateLoss => 1,
            DetectedFaultKind::Fork => 2,
        };
        tag.encode_into(out);
    }
}

impl WireDecode for DetectedFaultKind {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        match r.get_u8()? {
            1 => Some(DetectedFaultKind::StateLoss),
            2 => Some(DetectedFaultKind::Fork),
            _ => None,
        }
    }
}

impl WireEncode for FaultDetectedMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.new_view.encode_into(out);
        encode_replica(self.culprit, out);
        self.kind.encode_into(out);
        encode_replica(self.reporter, out);
        self.signature.encode_into(out);
    }
}

impl WireDecode for FaultDetectedMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(FaultDetectedMsg {
            new_view: WireDecode::decode_from(r)?,
            culprit: decode_replica(r)?,
            kind: WireDecode::decode_from(r)?,
            reporter: decode_replica(r)?,
            signature: WireDecode::decode_from(r)?,
        })
    }
}

impl WireEncode for CommitEntry {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.view.encode_into(out);
        self.sn.encode_into(out);
        self.batch.encode_into(out);
        self.primary_sig.encode_into(out);
        // BTreeMap<usize, Signature>: keys widen to u64 on the wire.
        (self.commit_sigs.len() as u32).encode_into(out);
        for (replica, sig) in &self.commit_sigs {
            encode_replica(*replica, out);
            sig.encode_into(out);
        }
    }
}

impl WireDecode for CommitEntry {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let view = WireDecode::decode_from(r)?;
        let sn = WireDecode::decode_from(r)?;
        let batch = WireDecode::decode_from(r)?;
        let primary_sig = WireDecode::decode_from(r)?;
        // Canonicality (length bound, sorted unique keys) is enforced by the
        // generic map codec; only the key width conversion lives here.
        let sigs: std::collections::BTreeMap<u64, xft_crypto::Signature> =
            WireDecode::decode_from(r)?;
        let mut commit_sigs = std::collections::BTreeMap::new();
        for (replica, sig) in sigs {
            commit_sigs.insert(usize::try_from(replica).ok()?, sig);
        }
        Some(CommitEntry {
            view,
            sn,
            batch,
            primary_sig,
            commit_sigs,
        })
    }
}

impl WireEncode for XPaxosMsg {
    fn encode_into(&self, out: &mut impl BufMut) {
        match self {
            XPaxosMsg::Replicate(m) => (tag::REPLICATE, m).encode_into(out),
            XPaxosMsg::Resend(m) => (tag::RESEND, m).encode_into(out),
            XPaxosMsg::Prepare(m) => (tag::PREPARE, m).encode_into(out),
            XPaxosMsg::CommitCarry(m) => (tag::COMMIT_CARRY, m).encode_into(out),
            XPaxosMsg::Commit(m) => (tag::COMMIT, m).encode_into(out),
            XPaxosMsg::Reply(m) => (tag::REPLY, m).encode_into(out),
            XPaxosMsg::Suspect(m) => (tag::SUSPECT, m).encode_into(out),
            XPaxosMsg::ViewChange(m) => (tag::VIEW_CHANGE, m).encode_into(out),
            XPaxosMsg::VcFinal(m) => (tag::VC_FINAL, m).encode_into(out),
            XPaxosMsg::VcConfirm(m) => (tag::VC_CONFIRM, m).encode_into(out),
            XPaxosMsg::NewView(m) => (tag::NEW_VIEW, m).encode_into(out),
            XPaxosMsg::Checkpoint(m) => (tag::CHECKPOINT, m).encode_into(out),
            XPaxosMsg::LazyCheckpoint { proof } => (tag::LAZY_CHECKPOINT, proof).encode_into(out),
            XPaxosMsg::LazyReplicate { view, entries } => {
                (tag::LAZY_REPLICATE, view, entries).encode_into(out)
            }
            XPaxosMsg::StateChunkRequest(m) => (tag::STATE_CHUNK_REQUEST, m).encode_into(out),
            XPaxosMsg::StateChunkResponse(m) => (tag::STATE_CHUNK_RESPONSE, m).encode_into(out),
            XPaxosMsg::FaultDetected(m) => (tag::FAULT_DETECTED, m).encode_into(out),
            XPaxosMsg::SuspectToClient(m) => (tag::SUSPECT_TO_CLIENT, m).encode_into(out),
            XPaxosMsg::Busy(m) => (tag::BUSY, m).encode_into(out),
            XPaxosMsg::SyncDone(lsn) => (tag::SYNC_DONE, lsn).encode_into(out),
        }
    }
}

impl WireDecode for XPaxosMsg {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.get_u8()? {
            tag::REPLICATE => XPaxosMsg::Replicate(WireDecode::decode_from(r)?),
            tag::RESEND => XPaxosMsg::Resend(WireDecode::decode_from(r)?),
            tag::PREPARE => XPaxosMsg::Prepare(WireDecode::decode_from(r)?),
            tag::COMMIT_CARRY => XPaxosMsg::CommitCarry(WireDecode::decode_from(r)?),
            tag::COMMIT => XPaxosMsg::Commit(WireDecode::decode_from(r)?),
            tag::REPLY => XPaxosMsg::Reply(WireDecode::decode_from(r)?),
            tag::SUSPECT => XPaxosMsg::Suspect(WireDecode::decode_from(r)?),
            tag::VIEW_CHANGE => XPaxosMsg::ViewChange(WireDecode::decode_from(r)?),
            tag::VC_FINAL => XPaxosMsg::VcFinal(WireDecode::decode_from(r)?),
            tag::VC_CONFIRM => XPaxosMsg::VcConfirm(WireDecode::decode_from(r)?),
            tag::NEW_VIEW => XPaxosMsg::NewView(WireDecode::decode_from(r)?),
            tag::CHECKPOINT => XPaxosMsg::Checkpoint(WireDecode::decode_from(r)?),
            tag::LAZY_CHECKPOINT => XPaxosMsg::LazyCheckpoint {
                proof: WireDecode::decode_from(r)?,
            },
            tag::LAZY_REPLICATE => {
                let (view, entries) = WireDecode::decode_from(r)?;
                XPaxosMsg::LazyReplicate { view, entries }
            }
            tag::STATE_CHUNK_REQUEST => XPaxosMsg::StateChunkRequest(WireDecode::decode_from(r)?),
            tag::STATE_CHUNK_RESPONSE => XPaxosMsg::StateChunkResponse(WireDecode::decode_from(r)?),
            tag::FAULT_DETECTED => XPaxosMsg::FaultDetected(WireDecode::decode_from(r)?),
            tag::SUSPECT_TO_CLIENT => XPaxosMsg::SuspectToClient(WireDecode::decode_from(r)?),
            tag::BUSY => XPaxosMsg::Busy(WireDecode::decode_from(r)?),
            tag::SYNC_DONE => XPaxosMsg::SyncDone(WireDecode::decode_from(r)?),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::collections::BTreeMap;
    use xft_crypto::{Digest, KeyId, Signature};
    use xft_wire::{decode_msg, encode_msg, WireError};

    fn request(tag: u8) -> Request {
        Request::new(
            ClientId(tag as u64),
            3 + tag as u64,
            Bytes::from(vec![tag; 16]),
        )
    }

    fn sig(id: u64) -> Signature {
        Signature {
            signer: KeyId(id),
            tag: [id as u8; 32],
        }
    }

    fn round_trip(msg: XPaxosMsg) {
        let encoded = encode_msg(&msg);
        let decoded: XPaxosMsg = decode_msg(&encoded).expect("decodes");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn every_variant_round_trips() {
        let commit = CommitMsg {
            view: ViewNumber(2),
            sn: SeqNum(9),
            batch_digest: Digest::of(b"batch"),
            replica: 1,
            reply_digest: Some(Digest::of(b"reply")),
            signature: sig(1),
        };
        let vc = ViewChangeMsg {
            new_view: ViewNumber(3),
            replica: 2,
            commit_log: vec![CommitEntry {
                view: ViewNumber(2),
                sn: SeqNum(1),
                batch: Batch::single(request(1)),
                primary_sig: sig(0),
                commit_sigs: BTreeMap::from([(1, sig(1)), (2, sig(2))]),
            }],
            prepare_log: vec![PrepareEntry {
                view: ViewNumber(2),
                sn: SeqNum(2),
                batch: Batch::new(vec![request(2), request(3)]),
                client_sigs: vec![sig(8), sig(9)],
                primary_sig: sig(0),
            }],
            last_checkpoint: SeqNum(64),
            checkpoint_proof: vec![CheckpointMsg {
                sn: SeqNum(64),
                view: ViewNumber(2),
                state_digest: Digest::of(b"chk"),
                replica: 1,
                signed: true,
                signature: sig(1),
            }],
            signature: sig(2),
        };
        let chk = CheckpointMsg {
            sn: SeqNum(128),
            view: ViewNumber(1),
            state_digest: Digest::of(b"state"),
            replica: 0,
            signed: true,
            signature: sig(0),
        };
        round_trip(XPaxosMsg::Replicate(SignedRequest {
            request: request(1),
            signature: sig(100),
        }));
        round_trip(XPaxosMsg::Resend(SignedRequest {
            request: request(2),
            signature: sig(100),
        }));
        round_trip(XPaxosMsg::Prepare(PrepareMsg {
            view: ViewNumber(1),
            sn: SeqNum(4),
            batch: Batch::new(vec![request(1), request(2)]),
            client_sigs: vec![sig(5)],
            signature: sig(0),
        }));
        round_trip(XPaxosMsg::CommitCarry(CommitCarryMsg {
            view: ViewNumber(1),
            sn: SeqNum(4),
            batch: Batch::single(request(7)),
            client_sigs: vec![sig(5)],
            signature: sig(0),
        }));
        round_trip(XPaxosMsg::Commit(commit.clone()));
        round_trip(XPaxosMsg::Reply(ReplyMsg {
            view: ViewNumber(1),
            sn: SeqNum(4),
            client: ClientId(9),
            timestamp: 77,
            reply_digest: Digest::of(b"r"),
            payload: Some(Bytes::from_static(b"payload")),
            replica: 0,
            follower_commit: Some(commit),
        }));
        round_trip(XPaxosMsg::Suspect(SuspectMsg {
            view: ViewNumber(5),
            replica: 1,
            signature: sig(1),
        }));
        round_trip(XPaxosMsg::ViewChange(vc.clone()));
        round_trip(XPaxosMsg::VcFinal(VcFinalMsg {
            new_view: ViewNumber(3),
            replica: 1,
            vc_set: vec![vc],
            signature: sig(1),
        }));
        round_trip(XPaxosMsg::VcConfirm(VcConfirmMsg {
            new_view: ViewNumber(3),
            replica: 1,
            vc_set_digest: Digest::of(b"set"),
            signature: sig(1),
        }));
        round_trip(XPaxosMsg::NewView(NewViewMsg {
            new_view: ViewNumber(3),
            prepare_log: vec![],
            signature: sig(2),
        }));
        round_trip(XPaxosMsg::Checkpoint(chk.clone()));
        round_trip(XPaxosMsg::LazyCheckpoint {
            proof: vec![chk.clone(), chk.clone()],
        });
        round_trip(XPaxosMsg::LazyReplicate {
            view: ViewNumber(2),
            entries: vec![],
        });
        round_trip(XPaxosMsg::FaultDetected(FaultDetectedMsg {
            new_view: ViewNumber(4),
            culprit: 2,
            kind: DetectedFaultKind::Fork,
            reporter: 0,
            signature: sig(0),
        }));
        round_trip(XPaxosMsg::SuspectToClient(SuspectMsg {
            view: ViewNumber(5),
            replica: 1,
            signature: sig(1),
        }));
        round_trip(XPaxosMsg::Busy(BusyMsg {
            view: ViewNumber(3),
            client: ClientId(7),
            timestamp: 42,
            replica: 0,
        }));
        round_trip(XPaxosMsg::SyncDone(123_456));
        round_trip(XPaxosMsg::StateChunkRequest(StateChunkRequestMsg {
            min_sn: SeqNum(128),
            want_sn: SeqNum(160),
            index: 3,
            replica: 2,
            signature: sig(2),
        }));
        round_trip(XPaxosMsg::StateChunkResponse(StateChunkResponseMsg {
            sn: SeqNum(128),
            chunk_bytes: 512,
            total_len: 1300,
            root: Digest::of(b"root"),
            index: 2,
            data: Bytes::from(vec![7u8; 276]),
            path: vec![Digest::of(b"sib0"), Digest::of(b"sib1")],
            proof: vec![chk],
            replica: 0,
            signature: sig(0),
        }));
    }

    #[test]
    fn replica_snapshot_round_trips_with_base() {
        let snapshot = ReplicaSnapshot {
            sn: SeqNum(128),
            base: SeqNum(64),
            app: Bytes::from_static(b"app"),
            executed: vec![(SeqNum(65), Digest::of(b"b65"))],
            clients: vec![ClientRecordSnapshot {
                client: ClientId(1),
                ranges: vec![(1, 4)],
                replies: vec![(4, SeqNum(65), Digest::of(b"r"))],
            }],
        };
        let bytes = snapshot.wire_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(ReplicaSnapshot::decode_from(&mut r), Some(snapshot));
        assert!(r.is_empty());
    }

    #[test]
    fn durable_events_round_trip_and_reject_unknown_tags() {
        for event in [
            DurableEvent::View(ViewNumber(7)),
            DurableEvent::Commit(CommitEntry {
                view: ViewNumber(1),
                sn: SeqNum(3),
                batch: Batch::single(request(5)),
                primary_sig: sig(0),
                commit_sigs: BTreeMap::from([(1, sig(1))]),
            }),
            DurableEvent::Prepare(PrepareEntry {
                view: ViewNumber(1),
                sn: SeqNum(4),
                batch: Batch::single(request(6)),
                client_sigs: vec![sig(9)],
                primary_sig: sig(0),
            }),
            DurableEvent::TransferChunk(TransferChunkRecord {
                sn: SeqNum(256),
                chunk_bytes: 512,
                total_len: 1024,
                root: Digest::of(b"root"),
                index: 1,
                data: Bytes::from(vec![3u8; 512]),
                proof: vec![CheckpointMsg {
                    sn: SeqNum(256),
                    view: ViewNumber(1),
                    state_digest: Digest::of(b"state"),
                    replica: 1,
                    signed: true,
                    signature: sig(1),
                }],
            }),
        ] {
            let bytes = event.wire_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(DurableEvent::decode_from(&mut r), Some(event));
            assert!(r.is_empty());
        }
        assert_eq!(DurableEvent::decode_from(&mut Reader::new(&[99])), None);
    }

    #[test]
    fn unknown_variant_tag_is_malformed() {
        let mut out = Vec::new();
        out.extend_from_slice(&xft_wire::MAGIC);
        out.push(xft_wire::WIRE_VERSION);
        out.push(200); // no such variant tag
        assert_eq!(decode_msg::<XPaxosMsg>(&out), Err(WireError::Malformed));
    }

    #[test]
    fn fault_kinds_decode_only_their_two_tags() {
        for kind in [DetectedFaultKind::StateLoss, DetectedFaultKind::Fork] {
            let bytes = kind.wire_bytes();
            assert_eq!(
                DetectedFaultKind::decode_from(&mut Reader::new(&bytes)),
                Some(kind)
            );
        }
        for tag in [0u8, 3, 255] {
            assert_eq!(
                DetectedFaultKind::decode_from(&mut Reader::new(&[tag])),
                None
            );
        }
    }

    #[test]
    fn commit_sig_maps_must_be_sorted() {
        let entry = CommitEntry {
            view: ViewNumber(0),
            sn: SeqNum(1),
            batch: Batch::single(request(1)),
            primary_sig: sig(0),
            commit_sigs: BTreeMap::from([(1, sig(1)), (2, sig(2))]),
        };
        let mut bytes = entry.wire_bytes();
        // Each (replica, signature) pair is 8 + 40 = 48 bytes; swap the final two.
        let n = bytes.len();
        let (a, b) = (n - 96, n - 48);
        let tmp: Vec<u8> = bytes[a..b].to_vec();
        bytes.copy_within(b..n, a);
        bytes[b..n].copy_from_slice(&tmp);
        assert!(CommitEntry::decode_from(&mut Reader::new(&bytes)).is_none());
    }
}
