//! End-to-end auditor tests: hand-crafted evidence logs with genuine signed
//! equivocations in, self-contained verified proofs out — and, just as
//! importantly, *no* proof when the evidence does not cryptographically
//! convict anyone.

use bytes::Bytes;
use std::collections::BTreeMap;
use xft_core::evidence::{evidence_payload, EvidenceLog, EvidenceMsg, DIR_RECEIVED};
use xft_core::log::{CommitEntry, PrepareEntry};
use xft_core::messages::{
    checkpoint_vote_digest, CheckpointMsg, CommitCarryMsg, CommitMsg, PrepareMsg,
    StateChunkResponseMsg, ViewChangeMsg, XPaxosMsg,
};
use xft_core::types::{replica_key, Batch, ClientId, Request, SeqNum, ViewNumber};
use xft_crypto::{Digest, KeyRegistry, Signature, Signer};
use xft_forensics::statements::{extract, extract_record};
use xft_forensics::{
    Auditor, ProofBundle, ProofError, ProofOfCulpability, Statement, CLASS_CHECKPOINT,
    CLASS_COMMIT, CLASS_HORIZON, CLASS_PROPOSAL,
};
use xft_wire::WireDecode;

const KEY_SEED: u64 = 0xfeed;
const T: usize = 1;

/// Signers for all replicas of the n = 3 test cluster, sharing one registry.
fn signers() -> Vec<Signer> {
    let registry = KeyRegistry::new(KEY_SEED);
    (0..3)
        .map(|r| Signer::new(&registry, replica_key(r)))
        .collect()
}

fn batch(tag: u64) -> Batch {
    Batch::single(Request::new(
        ClientId(7),
        tag,
        Bytes::from(vec![tag as u8; 4]),
    ))
}

/// A properly signed PREPARE from `primary` for `batch` at `(view, sn)`.
fn prepare(primary: &Signer, view: u64, sn: u64, batch: Batch) -> XPaxosMsg {
    let digest = PrepareEntry::signed_digest(&batch.digest(), SeqNum(sn), ViewNumber(view));
    XPaxosMsg::Prepare(PrepareMsg {
        view: ViewNumber(view),
        sn: SeqNum(sn),
        batch,
        client_sigs: Vec::new(),
        signature: primary.sign_digest(&digest),
    })
}

/// A properly signed follower COMMIT (general case, digest form).
fn commit(
    follower: &Signer,
    replica: usize,
    view: u64,
    sn: u64,
    batch_digest: Digest,
) -> XPaxosMsg {
    let digest = CommitEntry::commit_digest(&batch_digest, SeqNum(sn), ViewNumber(view));
    XPaxosMsg::Commit(CommitMsg {
        view: ViewNumber(view),
        sn: SeqNum(sn),
        batch_digest,
        replica,
        reply_digest: None,
        signature: follower.sign_digest(&digest),
    })
}

/// A signed CHKPT vote.
fn chkpt(signer: &Signer, replica: usize, view: u64, sn: u64, state: Digest) -> CheckpointMsg {
    CheckpointMsg {
        sn: SeqNum(sn),
        view: ViewNumber(view),
        state_digest: state,
        replica,
        signed: true,
        signature: signer.sign_digest(&checkpoint_vote_digest(
            ViewNumber(view),
            SeqNum(sn),
            &state,
        )),
    }
}

/// A signed VIEW-CHANGE with empty logs claiming `last_checkpoint`.
fn view_change(
    signer: &Signer,
    replica: usize,
    new_view: u64,
    last_checkpoint: u64,
    proof: Vec<CheckpointMsg>,
) -> XPaxosMsg {
    let mut m = ViewChangeMsg {
        new_view: ViewNumber(new_view),
        replica,
        commit_log: Vec::new(),
        prepare_log: Vec::new(),
        last_checkpoint: SeqNum(last_checkpoint),
        checkpoint_proof: proof,
        signature: Signature::forged(replica_key(replica)),
    };
    m.signature = signer.sign_digest(&m.digest());
    XPaxosMsg::ViewChange(m)
}

/// Records `msgs` as received evidence of replica `recorder`.
fn log_of(recorder: u64, msgs: &[XPaxosMsg]) -> Vec<xft_core::evidence::EvidenceRecord> {
    let mut log = EvidenceLog::in_memory();
    log.set_recorder(recorder);
    for (i, m) in msgs.iter().enumerate() {
        log.record(DIR_RECEIVED, 0, i as u64, 0, 1, m);
    }
    log.records().to_vec()
}

#[test]
fn conflicting_prepares_from_two_logs_pin_the_primary() {
    let s = signers();
    // The equivocating primary told replica 1 and replica 2 different
    // stories about slot (view 0, sn 1). Neither witness alone conflicts.
    let to_r1 = prepare(&s[0], 0, 1, batch(1));
    let to_r2 = prepare(&s[0], 0, 1, batch(2));
    let mut auditor = Auditor::new(T, KEY_SEED);
    let bundle = auditor.audit(&[log_of(1, &[to_r1]), log_of(2, &[to_r2])]);

    assert_eq!(bundle.culprits(), vec![0]);
    assert_eq!(bundle.proofs.len(), 1);
    let proof = &bundle.proofs[0];
    assert_eq!(proof.class, CLASS_PROPOSAL);
    assert_eq!((proof.view, proof.sn), (0, 1));
    proof.verify().expect("proof must verify offline");

    // The serialized bundle round-trips and still verifies — exactly what
    // `xft-audit --verify` replays from disk.
    let restored = ProofBundle::from_bytes(&bundle.to_bytes()).expect("round-trip");
    assert_eq!(restored, bundle);
    restored.proofs[0]
        .verify()
        .expect("restored proof verifies");
}

#[test]
fn single_log_suffices_when_the_fork_reached_one_witness() {
    let s = signers();
    let msgs = [
        prepare(&s[0], 0, 5, batch(10)),
        prepare(&s[0], 0, 5, batch(11)),
    ];
    let mut auditor = Auditor::new(T, KEY_SEED);
    let bundle = auditor.audit(&[log_of(1, &msgs)]);
    assert_eq!(bundle.culprits(), vec![0]);
}

#[test]
fn honest_evidence_accuses_nobody() {
    let s = signers();
    // Consistent history observed by both witnesses: same proposal, each
    // follower committing the same digest, one checkpoint vote.
    let b = batch(3);
    let msgs = [
        prepare(&s[0], 0, 1, b.clone()),
        commit(&s[1], 1, 0, 1, b.digest()),
        commit(&s[2], 2, 0, 1, b.digest()),
        XPaxosMsg::Checkpoint(chkpt(&s[1], 1, 0, 1, Digest::of(b"state"))),
    ];
    let mut auditor = Auditor::new(T, KEY_SEED);
    let bundle = auditor.audit(&[log_of(1, &msgs), log_of(2, &msgs)]);
    assert!(bundle.proofs.is_empty(), "honest logs must yield no proofs");
    assert_eq!(auditor.stats().unverified, 0);
}

#[test]
fn forged_signatures_can_never_convict() {
    let s = signers();
    // Same conflicting pair, but the second carrier's signature is garbage
    // (the corrupt-signatures fault): the statement is discarded, not
    // attributed, so no proof can form.
    let good = prepare(&s[0], 0, 1, batch(1));
    let XPaxosMsg::Prepare(mut forged) = prepare(&s[0], 0, 1, batch(2)) else {
        unreachable!()
    };
    forged.signature = Signature::forged(replica_key(0));
    let mut auditor = Auditor::new(T, KEY_SEED);
    let bundle = auditor.audit(&[log_of(1, &[good, XPaxosMsg::Prepare(forged)])]);
    assert!(bundle.proofs.is_empty());
    assert_eq!(auditor.stats().unverified, 1);
}

#[test]
fn commit_divergence_pins_the_follower() {
    let s = signers();
    let msgs = [
        commit(&s[1], 1, 0, 2, Digest::of(b"batch-a")),
        commit(&s[1], 1, 0, 2, Digest::of(b"batch-b")),
    ];
    let mut auditor = Auditor::new(T, KEY_SEED);
    let bundle = auditor.audit(&[log_of(0, &msgs)]);
    assert_eq!(bundle.culprits(), vec![1]);
    assert_eq!(bundle.proofs[0].class, CLASS_COMMIT);
    bundle.proofs[0].verify().expect("commit proof verifies");
}

#[test]
fn checkpoint_divergence_pins_the_voter() {
    let s = signers();
    let msgs = [
        XPaxosMsg::Checkpoint(chkpt(&s[2], 2, 0, 4, Digest::of(b"state-a"))),
        XPaxosMsg::Checkpoint(chkpt(&s[2], 2, 0, 4, Digest::of(b"state-b"))),
    ];
    let mut auditor = Auditor::new(T, KEY_SEED);
    let bundle = auditor.audit(&[log_of(0, &msgs)]);
    assert_eq!(bundle.culprits(), vec![2]);
    assert_eq!(bundle.proofs[0].class, CLASS_CHECKPOINT);
    bundle.proofs[0]
        .verify()
        .expect("checkpoint proof verifies");
}

#[test]
fn horizon_suppression_needs_a_proven_earlier_horizon() {
    let s = signers();
    let state = Digest::of(b"sealed");
    let proof10 = vec![chkpt(&s[0], 0, 0, 10, state), chkpt(&s[1], 1, 0, 10, state)];
    // Replica 1 proved checkpoint 10 in its view-1 VIEW-CHANGE, then claimed
    // horizon 0 in view 2 — rewriting history it certified as stable.
    let early = view_change(&s[1], 1, 1, 10, proof10.clone());
    let late = view_change(&s[1], 1, 2, 0, Vec::new());
    let mut auditor = Auditor::new(T, KEY_SEED);
    let bundle = auditor.audit(&[log_of(0, &[early, late])]);
    assert_eq!(bundle.culprits(), vec![1]);
    let proof = &bundle.proofs[0];
    assert_eq!(proof.class, CLASS_HORIZON);
    assert_eq!((proof.view, proof.sn), (2, 10));
    proof.verify().expect("horizon proof verifies");

    // Without the t + 1 proof backing the earlier claim, the same pair is
    // not actionable: an unproven horizon could itself be the lie.
    let unproven = view_change(&s[1], 1, 1, 10, proof10[..1].to_vec());
    let late2 = view_change(&s[1], 1, 2, 0, Vec::new());
    let bundle = auditor.audit(&[log_of(0, &[unproven, late2])]);
    assert!(bundle.proofs.is_empty());
}

#[test]
fn tampered_proofs_fail_verification() {
    let s = signers();
    let mut auditor = Auditor::new(T, KEY_SEED);
    let bundle = auditor.audit(&[
        log_of(1, &[prepare(&s[0], 0, 1, batch(1))]),
        log_of(2, &[prepare(&s[0], 0, 1, batch(2))]),
    ]);
    let good = bundle.proofs[0].clone();

    // Reattributing the proof to an innocent replica finds no conflict.
    let mut wrong_culprit = good.clone();
    wrong_culprit.culprit = 1;
    assert_eq!(wrong_culprit.verify(), Err(ProofError::NoConflict));

    // Truncating a carrier makes the proof malformed.
    let mut truncated = good.clone();
    truncated.msg_a = truncated.msg_a.slice(0..truncated.msg_a.len() - 1);
    assert_eq!(truncated.verify(), Err(ProofError::MalformedCarrier));

    // A verifier seeded differently (wrong cluster context) rejects it.
    let mut wrong_seed = good.clone();
    wrong_seed.key_seed ^= 1;
    assert_eq!(wrong_seed.verify(), Err(ProofError::NoConflict));

    // Nonsense class and context are rejected outright.
    let mut bad_class = good.clone();
    bad_class.class = 9;
    assert_eq!(bad_class.verify(), Err(ProofError::UnknownClass));
    let mut bad_ctx = good.clone();
    bad_ctx.n = 2;
    assert_eq!(bad_ctx.verify(), Err(ProofError::BadContext));

    // The claim is checked whole: a genuine conflict under the wrong view,
    // sn or class convicts nobody.
    let mut off_view = good.clone();
    off_view.view += 1;
    assert_eq!(off_view.verify(), Err(ProofError::NoConflict));
    let mut off_sn = good.clone();
    off_sn.sn += 1;
    assert_eq!(off_sn.verify(), Err(ProofError::NoConflict));
    let mut swapped_class = good.clone();
    swapped_class.class = CLASS_COMMIT;
    assert_eq!(swapped_class.verify(), Err(ProofError::NoConflict));

    // A horizon proof whose earlier view change carries an unproven
    // checkpoint (one CHKPT vote, t + 1 = 2 needed) convicts nobody.
    let state = Digest::of(b"sealed");
    let unproven = view_change(&s[1], 1, 1, 10, vec![chkpt(&s[1], 1, 0, 10, state)]);
    let late = view_change(&s[1], 1, 2, 0, Vec::new());
    let horizon = ProofOfCulpability {
        class: CLASS_HORIZON,
        culprit: 1,
        view: 2,
        sn: 10,
        msg_a: Bytes::from(evidence_payload(&unproven)),
        msg_b: Bytes::from(evidence_payload(&late)),
        ..good
    };
    assert_eq!(horizon.verify(), Err(ProofError::NoConflict));
    let proven = view_change(
        &s[1],
        1,
        1,
        10,
        vec![chkpt(&s[0], 0, 0, 10, state), chkpt(&s[1], 1, 0, 10, state)],
    );
    let convicting = ProofOfCulpability {
        msg_a: Bytes::from(evidence_payload(&proven)),
        ..horizon
    };
    assert_eq!(
        convicting.verify(),
        Ok(()),
        "the same pair, proven, convicts"
    );
}

/// A commit-log entry for `batch` at `(0, sn)`: the primary's commit-domain
/// signature plus follower 1's commit signature.
fn commit_entry(s: &[Signer], sn: u64, batch: Batch) -> CommitEntry {
    let digest = CommitEntry::commit_digest(&batch.digest(), SeqNum(sn), ViewNumber(0));
    CommitEntry {
        view: ViewNumber(0),
        sn: SeqNum(sn),
        batch,
        primary_sig: s[0].sign_digest(&digest),
        commit_sigs: BTreeMap::from([(1, s[1].sign_digest(&digest))]),
    }
}

/// The statements a message yields in full and as recorded.
fn full_and_recorded(msg: &XPaxosMsg) -> (Vec<Statement>, Vec<Statement>, bool) {
    let mut full = Vec::new();
    extract(msg, &mut full);
    let recorded = EvidenceMsg::decode_exact(&evidence_payload(msg)).expect("payload decodes");
    let mut from_record = Vec::new();
    extract_record(&recorded, &mut from_record);
    (full, from_record, recorded.is_compact())
}

#[test]
fn compacted_and_full_carriers_yield_the_same_statements() {
    let s = signers();
    let entries = vec![commit_entry(&s, 1, batch(1)), commit_entry(&s, 2, batch(2))];
    let carry_digest = CommitEntry::commit_digest(&batch(3).digest(), SeqNum(3), ViewNumber(0));
    let sealed = Digest::of(b"sealed");
    let rows: Vec<(&str, XPaxosMsg, usize)> = vec![
        ("PREPARE", prepare(&s[0], 0, 1, batch(1)), 1),
        (
            "COMMIT-CARRY",
            XPaxosMsg::CommitCarry(CommitCarryMsg {
                view: ViewNumber(0),
                sn: SeqNum(3),
                batch: batch(3),
                client_sigs: Vec::new(),
                signature: s[0].sign_digest(&carry_digest),
            }),
            1,
        ),
        (
            "LAZY-REPLICATE with commit signatures",
            XPaxosMsg::LazyReplicate {
                view: ViewNumber(0),
                entries: entries.clone(),
            },
            4,
        ),
        (
            "STATE-CHUNK-RESPONSE with a CHKPT proof",
            XPaxosMsg::StateChunkResponse(StateChunkResponseMsg {
                sn: SeqNum(10),
                chunk_bytes: 4,
                total_len: 4,
                root: Digest::of(b"root"),
                index: 0,
                data: Bytes::from_static(b"data"),
                path: Vec::new(),
                proof: vec![
                    chkpt(&s[0], 0, 0, 10, sealed),
                    chkpt(&s[1], 1, 0, 10, sealed),
                ],
                replica: 1,
                signature: Signature::forged(replica_key(1)),
            }),
            2,
        ),
    ];
    for (name, msg, statements) in &rows {
        let (full, recorded, compact) = full_and_recorded(msg);
        assert!(compact, "{name}: a bulk message is recorded compacted");
        assert_eq!(full.len(), *statements, "{name}");
        assert_eq!(full, recorded, "{name}");
    }

    // A VIEW-CHANGE is recorded in full; the entries its logs embed yield
    // the same statements as the LAZY-REPLICATE that shipped them.
    let XPaxosMsg::ViewChange(mut vc) = view_change(&s[1], 1, 1, 0, Vec::new()) else {
        unreachable!()
    };
    vc.commit_log = entries.clone();
    vc.signature = s[1].sign_digest(&vc.digest());
    let (full, recorded, compact) = full_and_recorded(&XPaxosMsg::ViewChange(vc));
    assert!(!compact);
    assert_eq!(full, recorded);
    let (lazy, _, _) = full_and_recorded(&rows[2].1);
    assert!(matches!(full[0], Statement::ViewChange(_)));
    assert_eq!(full[1..], lazy[..]);
}

#[test]
fn duplicate_statements_across_logs_collapse() {
    let s = signers();
    // The same two conflicting carriers observed by both witnesses must
    // yield exactly one proof, not one per log.
    let a = prepare(&s[0], 0, 1, batch(1));
    let b = prepare(&s[0], 0, 1, batch(2));
    let mut auditor = Auditor::new(T, KEY_SEED);
    let bundle = auditor.audit(&[log_of(1, &[a.clone(), b.clone()]), log_of(2, &[a, b])]);
    assert_eq!(bundle.proofs.len(), 1);
}
