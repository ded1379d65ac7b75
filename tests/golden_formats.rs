//! Golden encodings: every byte format the system writes — protocol
//! messages, WAL records, evidence records, proofs, kvstore operations,
//! replies and snapshots — encoded from fixed sample values, digested and
//! pinned, one constant per format.
//!
//! Round-trip tests pass even when a format drifts, because the encoder and
//! the decoder drift together. These pins fail instead, and the failure names
//! every format that moved. A change that alters a format on purpose updates
//! its pin in the same commit and says why.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;
use xft::core::durable::{ClientRecordSnapshot, SnapshotImage, TransferChunkRecord};
use xft::core::evidence::{evidence_payload, EvidenceAnchor, EvidenceRecord, DIR_RECEIVED};
use xft::core::log::{CommitEntry, PrepareEntry};
use xft::core::messages::{
    BusyMsg, CheckpointMsg, CommitCarryMsg, CommitMsg, DetectedFaultKind, FaultDetectedMsg,
    NewViewMsg, PrepareMsg, ReplyMsg, SignedRequest, StateChunkRequestMsg, StateChunkResponseMsg,
    SuspectMsg, VcConfirmMsg, VcFinalMsg, ViewChangeMsg,
};
use xft::core::state_machine::{DigestChainService, NullService, StateMachine};
use xft::core::types::{Batch, ClientId, Request, SeqNum, ViewNumber};
use xft::core::{DurableEvent, ReplicaSnapshot, SealedSnapshot, XPaxosMsg};
use xft::crypto::{Digest, KeyId, Signature};
use xft::kvstore::{CoordinationService, KvOp, KvResult, ZNodeTree};
use xft::wire::WireEncode;
use xft_forensics::{ProofBundle, ProofOfCulpability, CLASS_COMMIT};

/// First 8 bytes of each format's SHA-256, as hex.
const PINS: &[(&str, &str)] = &[
    ("msg.replicate", "729f17afdfb0b7f3"),
    ("msg.resend", "59155a48e9cb1360"),
    ("msg.prepare", "3c82db04ddcb31e0"),
    ("msg.commit_carry", "9abf2154911a63bc"),
    ("msg.commit", "84a230937ca8173d"),
    ("msg.reply", "69cc60a9a3d147f0"),
    ("msg.suspect", "eaedb8d85c4f742a"),
    ("msg.view_change", "0bb8b99f8caff5f4"),
    ("msg.vc_final", "8ecdb076bed90b24"),
    ("msg.vc_confirm", "f2c0800819a6f0a3"),
    ("msg.new_view", "011cbb3858f703c1"),
    ("msg.checkpoint", "0600fdba24ecdb77"),
    ("msg.lazy_checkpoint", "d68888c77c36b602"),
    ("msg.lazy_replicate", "b83937f3b9bdc1af"),
    ("msg.fault_detected", "5b64fe3913dfbd2f"),
    ("msg.suspect_to_client", "b915b8bd4ab03c2e"),
    ("msg.busy", "9604f4dd35527845"),
    ("msg.sync_done", "cb83ce0ad5a2d235"),
    ("msg.state_chunk_request", "c91a5a6279bebac7"),
    ("msg.state_chunk_response", "1c17452985f3c01a"),
    ("wal.view", "bf20e9c9b8addef7"),
    ("wal.commit", "ea14cf5178cbe8a8"),
    ("wal.prepare", "2496aa53b27c04c5"),
    ("wal.transfer_chunk", "50ddccd5fc508401"),
    ("evidence.msg_full", "f8b137cb0914957f"),
    ("evidence.msg_compact_prepare", "514216df0c27870a"),
    ("evidence.msg_compact_lazy", "f7e3ed1c0eca13d3"),
    ("evidence.record", "b80f47ea32c22fb9"),
    ("evidence.anchor", "f3f920843111d558"),
    ("proof.culpability", "dedf17e1e54d8bbb"),
    ("proof.bundle", "787037e3f570855a"),
    ("kvop.create_ephemeral", "fd6203bf1c409b74"),
    ("kvop.create_plain", "7eac1d760df169c4"),
    ("kvop.delete", "c6ca0f81691cae02"),
    ("kvop.set_data", "fcf7763adcc7adc2"),
    ("kvop.get_data", "752faf525926517a"),
    ("kvop.exists", "cd0105214cd85de6"),
    ("kvop.get_children", "2b8f7737d0c244ac"),
    ("kvop.expire_session", "cff606f695d336c3"),
    ("kvop.put", "decd44dc73eedfa1"),
    ("kvop.get_ver", "6d81e5838f798cc6"),
    ("kvresult.ok", "394676b889dac16e"),
    ("kvresult.err", "c959442d239fc80d"),
    ("kvreply.get_children", "6fce86d51e0d58d2"),
    ("kvreply.get_ver", "cd77213f9c9deb5f"),
    ("kvstore.tree", "edb86b4d9671b4d8"),
    ("kvstore.service_snapshot", "fc52205f9e37959e"),
    ("sm.null_snapshot", "d86e8112f3c4c444"),
    ("sm.digest_chain_snapshot", "a137316cb7696976"),
    ("chaos.value", "ae60e78de3e8af57"),
    ("replica.snapshot", "f79a6d9c7a6c3a6d"),
    ("replica.sealed_snapshot", "3def59c36a63a8ff"),
];

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

fn checkpoint(sn: u64, replica: usize) -> CheckpointMsg {
    CheckpointMsg {
        sn: SeqNum(sn),
        view: ViewNumber(2),
        state_digest: Digest::of(b"chk"),
        replica,
        signed: true,
        signature: sig(replica as u64),
    }
}

fn commit_entry() -> CommitEntry {
    CommitEntry {
        view: ViewNumber(2),
        sn: SeqNum(1),
        batch: Batch::single(request(1)),
        primary_sig: sig(0),
        commit_sigs: BTreeMap::from([(1, sig(1)), (2, sig(2))]),
    }
}

fn prepare_entry() -> PrepareEntry {
    PrepareEntry {
        view: ViewNumber(2),
        sn: SeqNum(2),
        batch: Batch::new(vec![request(2), request(3)]),
        client_sigs: vec![sig(8), sig(9)],
        primary_sig: sig(0),
    }
}

/// One sample per `XPaxosMsg` variant: the values of `xft_core::wire`'s
/// `every_variant_round_trips`, with its empty logs filled so that every
/// nested format is covered.
fn messages() -> Vec<(&'static str, XPaxosMsg)> {
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
        commit_log: vec![commit_entry()],
        prepare_log: vec![prepare_entry()],
        last_checkpoint: SeqNum(64),
        checkpoint_proof: vec![checkpoint(64, 1)],
        signature: sig(2),
    };
    let chk = checkpoint(128, 0);
    let suspect = SuspectMsg {
        view: ViewNumber(5),
        replica: 1,
        signature: sig(1),
    };
    vec![
        (
            "msg.replicate",
            XPaxosMsg::Replicate(SignedRequest {
                request: request(1),
                signature: sig(100),
            }),
        ),
        (
            "msg.resend",
            XPaxosMsg::Resend(SignedRequest {
                request: request(2),
                signature: sig(100),
            }),
        ),
        (
            "msg.prepare",
            XPaxosMsg::Prepare(PrepareMsg {
                view: ViewNumber(1),
                sn: SeqNum(4),
                batch: Batch::new(vec![request(1), request(2)]),
                client_sigs: vec![sig(5)],
                signature: sig(0),
            }),
        ),
        (
            "msg.commit_carry",
            XPaxosMsg::CommitCarry(CommitCarryMsg {
                view: ViewNumber(1),
                sn: SeqNum(4),
                batch: Batch::single(request(7)),
                client_sigs: vec![sig(5)],
                signature: sig(0),
            }),
        ),
        ("msg.commit", XPaxosMsg::Commit(commit.clone())),
        (
            "msg.reply",
            XPaxosMsg::Reply(ReplyMsg {
                view: ViewNumber(1),
                sn: SeqNum(4),
                client: ClientId(9),
                timestamp: 77,
                reply_digest: Digest::of(b"r"),
                payload: Some(Bytes::from_static(b"payload")),
                replica: 0,
                follower_commit: Some(commit),
            }),
        ),
        ("msg.suspect", XPaxosMsg::Suspect(suspect.clone())),
        ("msg.view_change", XPaxosMsg::ViewChange(vc.clone())),
        (
            "msg.vc_final",
            XPaxosMsg::VcFinal(VcFinalMsg {
                new_view: ViewNumber(3),
                replica: 1,
                vc_set: vec![vc],
                signature: sig(1),
            }),
        ),
        (
            "msg.vc_confirm",
            XPaxosMsg::VcConfirm(VcConfirmMsg {
                new_view: ViewNumber(3),
                replica: 1,
                vc_set_digest: Digest::of(b"set"),
                signature: sig(1),
            }),
        ),
        (
            "msg.new_view",
            XPaxosMsg::NewView(NewViewMsg {
                new_view: ViewNumber(3),
                prepare_log: vec![prepare_entry()],
                signature: sig(2),
            }),
        ),
        ("msg.checkpoint", XPaxosMsg::Checkpoint(chk.clone())),
        (
            "msg.lazy_checkpoint",
            XPaxosMsg::LazyCheckpoint {
                proof: vec![chk.clone(), checkpoint(128, 1)],
            },
        ),
        (
            "msg.lazy_replicate",
            XPaxosMsg::LazyReplicate {
                view: ViewNumber(2),
                entries: vec![commit_entry()],
            },
        ),
        (
            "msg.fault_detected",
            XPaxosMsg::FaultDetected(FaultDetectedMsg {
                new_view: ViewNumber(4),
                culprit: 2,
                kind: DetectedFaultKind::Fork,
                reporter: 0,
                signature: sig(0),
            }),
        ),
        ("msg.suspect_to_client", XPaxosMsg::SuspectToClient(suspect)),
        (
            "msg.busy",
            XPaxosMsg::Busy(BusyMsg {
                view: ViewNumber(3),
                client: ClientId(7),
                timestamp: 42,
                replica: 0,
            }),
        ),
        ("msg.sync_done", XPaxosMsg::SyncDone(123_456)),
        (
            "msg.state_chunk_request",
            XPaxosMsg::StateChunkRequest(StateChunkRequestMsg {
                min_sn: SeqNum(128),
                want_sn: SeqNum(160),
                index: 3,
                replica: 2,
                signature: sig(2),
            }),
        ),
        (
            "msg.state_chunk_response",
            XPaxosMsg::StateChunkResponse(StateChunkResponseMsg {
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
            }),
        ),
    ]
}

fn replica_snapshot() -> ReplicaSnapshot {
    ReplicaSnapshot {
        sn: SeqNum(128),
        base: SeqNum(64),
        app: Bytes::from_static(b"app"),
        executed: vec![(SeqNum(65), Digest::of(b"b65"))],
        clients: vec![ClientRecordSnapshot {
            client: ClientId(1),
            ranges: vec![(1, 4)],
            replies: vec![(4, SeqNum(65), Digest::of(b"r"))],
        }],
    }
}

fn kv_ops() -> Vec<(&'static str, KvOp)> {
    vec![
        (
            "kvop.create_ephemeral",
            KvOp::Create {
                path: "/a/b".into(),
                data: Bytes::from(vec![7u8; 10]),
                ephemeral_owner: Some(42),
                sequential: true,
            },
        ),
        (
            "kvop.create_plain",
            KvOp::Create {
                path: "/plain".into(),
                data: Bytes::new(),
                ephemeral_owner: None,
                sequential: false,
            },
        ),
        ("kvop.delete", KvOp::Delete { path: "/a".into() }),
        (
            "kvop.set_data",
            KvOp::SetData {
                path: "/k".into(),
                data: Bytes::from(vec![1u8; 24]),
            },
        ),
        ("kvop.get_data", KvOp::GetData { path: "/k".into() }),
        ("kvop.exists", KvOp::Exists { path: "/k".into() }),
        ("kvop.get_children", KvOp::GetChildren { path: "/".into() }),
        ("kvop.expire_session", KvOp::ExpireSession { session: 9 }),
        (
            "kvop.put",
            KvOp::Put {
                path: "/chaos0".into(),
                data: Bytes::from(vec![3u8; 16]),
            },
        ),
        (
            "kvop.get_ver",
            KvOp::GetVer {
                path: "/chaos0".into(),
            },
        ),
    ]
}

/// A small service: persistent, ephemeral and sequential nodes, one
/// overwrite and one read, so every node field and the applied counter are
/// non-trivial.
fn service() -> CoordinationService {
    let mut svc = CoordinationService::new();
    for op in [
        KvOp::Create {
            path: "/app".into(),
            data: Bytes::from_static(b"cfg"),
            ephemeral_owner: Some(7),
            sequential: false,
        },
        KvOp::Create {
            path: "/app/lock-".into(),
            data: Bytes::new(),
            ephemeral_owner: None,
            sequential: true,
        },
        KvOp::SetData {
            path: "/app".into(),
            data: Bytes::from_static(b"v2"),
        },
        KvOp::Exists { path: "/x".into() },
    ] {
        svc.apply_op(&op);
    }
    svc
}

/// Every pinned format with the bytes its sample encodes to.
fn formats() -> Vec<(&'static str, Vec<u8>)> {
    let mut out: Vec<(&'static str, Vec<u8>)> = messages()
        .into_iter()
        .map(|(name, msg)| (name, msg.wire_bytes()))
        .collect();

    let transfer_chunk = TransferChunkRecord {
        sn: SeqNum(256),
        chunk_bytes: 512,
        total_len: 1024,
        root: Digest::of(b"root"),
        index: 1,
        data: Bytes::from(vec![3u8; 512]),
        proof: vec![checkpoint(256, 1)],
    };
    for (name, event) in [
        ("wal.view", DurableEvent::View(ViewNumber(7))),
        ("wal.commit", DurableEvent::Commit(commit_entry())),
        ("wal.prepare", DurableEvent::Prepare(prepare_entry())),
        (
            "wal.transfer_chunk",
            DurableEvent::TransferChunk(transfer_chunk),
        ),
    ] {
        out.push((name, event.wire_bytes()));
    }

    let message = |wanted: &str| {
        let (_, msg) = messages()
            .into_iter()
            .find(|(name, _)| *name == wanted)
            .unwrap();
        msg
    };
    let prepare = message("msg.prepare");
    let lazy = message("msg.lazy_replicate");
    let suspect = message("msg.suspect");
    out.push(("evidence.msg_full", evidence_payload(&suspect)));
    out.push(("evidence.msg_compact_prepare", evidence_payload(&prepare)));
    out.push(("evidence.msg_compact_lazy", evidence_payload(&lazy)));
    out.push((
        "evidence.record",
        EvidenceRecord {
            seq: 5,
            prev: Digest::of(b"prev"),
            at_ns: 1_000_000,
            recorder: 2,
            direction: DIR_RECEIVED,
            peer: 1,
            trace: 99,
            sn: 4,
            msg: Bytes::from(evidence_payload(&prepare)),
        }
        .wire_bytes(),
    ));
    out.push((
        "evidence.anchor",
        EvidenceAnchor {
            next_seq: 12,
            head: Digest::of(b"head"),
            dropped: 11,
        }
        .wire_bytes(),
    ));

    let proof = ProofOfCulpability {
        class: CLASS_COMMIT,
        culprit: 1,
        view: 2,
        sn: 9,
        n: 3,
        t: 1,
        key_seed: 77,
        msg_a: Bytes::from(evidence_payload(&suspect)),
        msg_b: Bytes::from(evidence_payload(&prepare)),
    };
    out.push(("proof.culpability", proof.wire_bytes()));
    out.push((
        "proof.bundle",
        ProofBundle {
            proofs: vec![proof],
        }
        .to_bytes(),
    ));

    for (name, op) in kv_ops() {
        out.push((name, op.encode().to_vec()));
    }
    out.push((
        "kvresult.ok",
        KvResult::Ok(Bytes::from_static(b"payload"))
            .encode()
            .to_vec(),
    ));
    out.push(("kvresult.err", KvResult::Err("NoNode").encode().to_vec()));
    let mut svc = service();
    out.push(("kvreply.get_children", {
        let op = KvOp::GetChildren {
            path: "/app".into(),
        };
        svc.apply(&op.encode()).to_vec()
    }));
    out.push(("kvreply.get_ver", {
        let op = KvOp::GetVer {
            path: "/app".into(),
        };
        svc.apply(&op.encode()).to_vec()
    }));

    let mut tree = ZNodeTree::new();
    tree.create("/a", Bytes::from_static(b"v"), Some(7), false)
        .unwrap();
    tree.create("/a/s-", Bytes::from_static(b"w"), None, true)
        .unwrap();
    tree.set("/a", Bytes::from_static(b"v2"), None).unwrap();
    out.push(("kvstore.tree", tree.to_bytes()));
    out.push(("kvstore.service_snapshot", service().snapshot().to_vec()));

    let mut null = NullService::new();
    null.apply(b"x");
    null.apply(b"y");
    out.push(("sm.null_snapshot", null.snapshot().to_vec()));
    let mut chain = DigestChainService::new();
    chain.apply(b"x");
    out.push(("sm.digest_chain_snapshot", chain.snapshot().to_vec()));
    out.push((
        "chaos.value",
        xft::chaos::workload::encode_value(3, 17).to_vec(),
    ));

    out.push(("replica.snapshot", replica_snapshot().wire_bytes()));
    let sealed = SealedSnapshot {
        image: Arc::new(SnapshotImage::capture(&replica_snapshot(), 64, None).0),
        proof: vec![checkpoint(128, 0), checkpoint(128, 1)],
    };
    out.push(("replica.sealed_snapshot", sealed.to_bytes()));
    out
}

#[test]
fn every_format_encodes_to_its_pinned_digest() {
    let formats = formats();
    let mut report = Vec::new();
    for (name, bytes) in &formats {
        let got = Digest::of(bytes).short_hex();
        match PINS.iter().find(|(pinned, _)| pinned == name) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => report.push(format!("{name}: pinned {want}, encodes to {got}")),
            None => report.push(format!("{name}: no pin (encodes to {got})")),
        }
    }
    for (pinned, _) in PINS {
        if !formats.iter().any(|(name, _)| name == pinned) {
            report.push(format!("{pinned}: pinned but no longer encoded"));
        }
    }
    assert!(
        report.is_empty(),
        "{} format(s) moved:\n{}",
        report.len(),
        report.join("\n")
    );
}
