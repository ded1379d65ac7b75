//! Property-based tests over the core invariants of the reproduction:
//! cryptographic round trips, synchronous-group structure, reliability-formula
//! monotonicity, coordination-service determinism and — most importantly — XPaxos
//! total order under randomized crash/partition schedules that stay outside anarchy.
//!
//! Randomized cases come from the in-repo [`xft::testing`] harness (seeded by
//! `xft-simnet`'s deterministic RNG) instead of `proptest`, which is unavailable
//! offline; every failure report carries the base seed and case index needed to
//! replay it exactly.

use bytes::Bytes;
use std::collections::BTreeMap;
use xft::core::client::ClientWorkload;
use xft::core::harness::{check_total_order, ClusterBuilder, LatencySpec};
use xft::core::log::{CommitEntry, PrepareEntry};
use xft::core::messages::{
    BusyMsg, CheckpointMsg, CommitCarryMsg, CommitMsg, DetectedFaultKind, FaultDetectedMsg,
    NewViewMsg, PrepareMsg, ReplyMsg, SignedRequest, StateChunkRequestMsg, StateChunkResponseMsg,
    SuspectMsg, VcConfirmMsg, VcFinalMsg, ViewChangeMsg,
};
use xft::core::sync_group::SyncGroups;
use xft::core::types::{Batch, ClientId, Request, SeqNum, ViewNumber};
use xft::core::XPaxosMsg;
use xft::crypto::{hmac_sha256, sha256, Digest, KeyId, KeyRegistry, Signature, Signer, Verifier};
use xft::kvstore::{CoordinationService, KvOp};
use xft::reliability::{ProtocolFamily, ReliabilityParams};
use xft::simnet::{FaultEvent, SimDuration, SimTime};
use xft::testing::{check, CaseRng};
use xft::wire::{decode_msg, encode_msg_vec, WireError, MAGIC, WIRE_VERSION, WIRE_VERSION_TRACED};
use xft_core::state_machine::StateMachine;

/// SHA-256 and HMAC are deterministic and sensitive to any single-byte change.
#[test]
fn hash_and_mac_detect_any_mutation() {
    check("hash_and_mac_detect_any_mutation", 64, |rng| {
        let data = rng.bytes(1, 512);
        let flip = rng.usize_in(0, 512);
        let baseline = sha256(&data);
        if baseline != sha256(&data) {
            return Err("sha256 not deterministic".into());
        }
        let mut mutated = data.clone();
        let idx = flip % mutated.len();
        mutated[idx] ^= 0x01;
        if baseline == sha256(&mutated) {
            return Err(format!("sha256 collision after flipping byte {idx}"));
        }
        if hmac_sha256(b"k", &data) == hmac_sha256(b"k", &mutated) {
            return Err(format!("hmac collision after flipping byte {idx}"));
        }
        Ok(())
    });
}

/// Signatures verify for the signer and never for a different claimed signer.
#[test]
fn signatures_bind_signer_and_message() {
    check("signatures_bind_signer_and_message", 64, |rng| {
        let payload = rng.bytes(1, 256);
        let signer_id = rng.u64_in(0, 8);
        let other_id = rng.u64_in(8, 16);
        let registry = KeyRegistry::new(1);
        let signer = Signer::new(&registry, KeyId(signer_id));
        let _other = Signer::new(&registry, KeyId(other_id));
        let verifier = Verifier::new(registry);
        let digest = Digest::of(&payload);
        let mut sig = signer.sign_digest(&digest);
        if verifier.verify_digest(&digest, &sig).is_err() {
            return Err("genuine signature rejected".into());
        }
        sig.signer = KeyId(other_id);
        if verifier.verify_digest(&digest, &sig).is_ok() {
            return Err("signature accepted for the wrong signer".into());
        }
        Ok(())
    });
}

/// Synchronous groups always have t + 1 members, a primary inside the group, and
/// partition the replica set together with the passive replicas.
#[test]
fn sync_groups_are_well_formed() {
    check("sync_groups_are_well_formed", 64, |rng| {
        let t = rng.usize_in(1, 4);
        let view = rng.u64_in(0, 500);
        let groups = SyncGroups::new(t);
        let v = ViewNumber(view);
        let active = groups.active_replicas(v);
        let passive = groups.passive_replicas(v);
        if active.len() != t + 1 {
            return Err(format!(
                "active group has {} members, want {}",
                active.len(),
                t + 1
            ));
        }
        if passive.len() != t {
            return Err(format!(
                "passive set has {} members, want {t}",
                passive.len()
            ));
        }
        if !active.contains(&groups.primary(v)) {
            return Err("primary not inside its synchronous group".into());
        }
        let mut all: Vec<usize> = active.iter().copied().chain(passive).collect();
        all.sort_unstable();
        if all != (0..2 * t + 1).collect::<Vec<_>>() {
            return Err(format!("active ∪ passive is not the replica set: {all:?}"));
        }
        Ok(())
    });
}

/// The reliability formulas are monotone: more reliable machines never yield fewer
/// nines, and XFT consistency/availability always dominates CFT.
#[test]
fn reliability_formulas_are_monotone_and_dominate_cft() {
    check(
        "reliability_formulas_are_monotone_and_dominate_cft",
        64,
        |rng| {
            let benign_a = rng.f64_in(0.95, 0.999999);
            let delta = rng.f64_in(0.0, 0.00005);
            let correct_frac = rng.f64_in(0.9, 1.0);
            let sync = rng.f64_in(0.95, 0.999999);
            let t = rng.usize_in(1, 3);
            let benign_b = (benign_a + delta).min(0.9999995);
            let pa = ReliabilityParams::new(benign_a, benign_a * correct_frac, sync);
            let pb = ReliabilityParams::new(benign_b, benign_b * correct_frac, sync);
            for fam in [
                ProtocolFamily::Cft,
                ProtocolFamily::Bft,
                ProtocolFamily::Xft,
            ] {
                if fam.consistency(pb, t) + 1e-12 < fam.consistency(pa, t) {
                    return Err(format!("{fam:?} consistency not monotone at t = {t}"));
                }
            }
            if ProtocolFamily::Xft.consistency(pa, t) + 1e-12
                < ProtocolFamily::Cft.consistency(pa, t)
            {
                return Err(format!("XFT consistency below CFT at t = {t}"));
            }
            if ProtocolFamily::Xft.availability(pa, t) + 1e-12
                < ProtocolFamily::Cft.availability(pa, t)
            {
                return Err(format!("XFT availability below CFT at t = {t}"));
            }
            Ok(())
        },
    );
}

/// The coordination service is deterministic: any operation sequence applied to two
/// fresh replicas yields identical replies and state digests.
#[test]
fn coordination_service_is_deterministic() {
    check("coordination_service_is_deterministic", 64, |rng| {
        let mut a = CoordinationService::new();
        let mut b = CoordinationService::new();
        let op_count = rng.usize_in(1, 40);
        for step in 0..op_count {
            let kind = rng.u64_below(4);
            let node = rng.u64_below(8);
            let data = rng.bytes(0, 64);
            let path = format!("/n{node}");
            let op = match kind {
                0 => KvOp::Create {
                    path,
                    data: data.clone().into(),
                    ephemeral_owner: None,
                    sequential: false,
                },
                1 => KvOp::SetData {
                    path,
                    data: data.clone().into(),
                },
                2 => KvOp::Delete { path },
                _ => KvOp::GetData { path },
            };
            let encoded = op.encode();
            if a.apply(&encoded) != b.apply(&encoded) {
                return Err(format!("replies diverged at step {step} ({op:?})"));
            }
        }
        if a.state_digest() != b.state_digest() {
            return Err("state digests diverged after identical histories".into());
        }
        Ok(())
    });
}

fn arb_digest(rng: &mut CaseRng) -> Digest {
    Digest::of(&rng.bytes(0, 48))
}

fn arb_signature(rng: &mut CaseRng) -> Signature {
    Signature {
        signer: KeyId(rng.u64_below(1 << 20)),
        tag: {
            let mut tag = [0u8; 32];
            for b in &mut tag {
                *b = rng.byte();
            }
            tag
        },
    }
}

fn arb_request(rng: &mut CaseRng) -> Request {
    Request::new(
        ClientId(rng.u64_below(64)),
        rng.u64_below(1 << 30),
        Bytes::from(rng.bytes(0, 256)),
    )
}

fn arb_batch(rng: &mut CaseRng) -> Batch {
    let len = rng.usize_in(0, 4);
    Batch::new((0..len).map(|_| arb_request(rng)).collect())
}

fn arb_commit(rng: &mut CaseRng) -> CommitMsg {
    CommitMsg {
        view: ViewNumber(rng.u64_below(100)),
        sn: SeqNum(rng.u64_below(1 << 20)),
        batch_digest: arb_digest(rng),
        replica: rng.usize_in(0, 8),
        reply_digest: rng.bool().then(|| arb_digest(rng)),
        signature: arb_signature(rng),
    }
}

fn arb_commit_entry(rng: &mut CaseRng) -> CommitEntry {
    let sigs = rng.usize_in(0, 3);
    CommitEntry {
        view: ViewNumber(rng.u64_below(100)),
        sn: SeqNum(rng.u64_below(1 << 20)),
        batch: arb_batch(rng),
        primary_sig: arb_signature(rng),
        commit_sigs: (0..sigs)
            .map(|r| (r, arb_signature(rng)))
            .collect::<BTreeMap<_, _>>(),
    }
}

fn arb_prepare_entry(rng: &mut CaseRng) -> PrepareEntry {
    PrepareEntry {
        view: ViewNumber(rng.u64_below(100)),
        sn: SeqNum(rng.u64_below(1 << 20)),
        batch: arb_batch(rng),
        client_sigs: (0..rng.usize_in(0, 3))
            .map(|_| arb_signature(rng))
            .collect(),
        primary_sig: arb_signature(rng),
    }
}

fn arb_view_change(rng: &mut CaseRng) -> ViewChangeMsg {
    ViewChangeMsg {
        new_view: ViewNumber(rng.u64_below(100)),
        replica: rng.usize_in(0, 8),
        commit_log: (0..rng.usize_in(0, 2))
            .map(|_| arb_commit_entry(rng))
            .collect(),
        prepare_log: (0..rng.usize_in(0, 2))
            .map(|_| arb_prepare_entry(rng))
            .collect(),
        last_checkpoint: SeqNum(rng.u64_below(1 << 20)),
        checkpoint_proof: (0..rng.usize_in(0, 2))
            .map(|_| arb_checkpoint(rng))
            .collect(),
        signature: arb_signature(rng),
    }
}

fn arb_checkpoint(rng: &mut CaseRng) -> CheckpointMsg {
    CheckpointMsg {
        sn: SeqNum(rng.u64_below(1 << 20)),
        view: ViewNumber(rng.u64_below(100)),
        state_digest: arb_digest(rng),
        replica: rng.usize_in(0, 8),
        signed: rng.bool(),
        signature: arb_signature(rng),
    }
}

/// A uniformly random message covering every [`XPaxosMsg`] variant.
fn arb_msg(rng: &mut CaseRng) -> XPaxosMsg {
    match rng.u64_below(20) {
        0 => XPaxosMsg::Replicate(SignedRequest {
            request: arb_request(rng),
            signature: arb_signature(rng),
        }),
        1 => XPaxosMsg::Resend(SignedRequest {
            request: arb_request(rng),
            signature: arb_signature(rng),
        }),
        2 => XPaxosMsg::Prepare(PrepareMsg {
            view: ViewNumber(rng.u64_below(100)),
            sn: SeqNum(rng.u64_below(1 << 20)),
            batch: arb_batch(rng),
            client_sigs: (0..rng.usize_in(0, 3))
                .map(|_| arb_signature(rng))
                .collect(),
            signature: arb_signature(rng),
        }),
        3 => XPaxosMsg::CommitCarry(CommitCarryMsg {
            view: ViewNumber(rng.u64_below(100)),
            sn: SeqNum(rng.u64_below(1 << 20)),
            batch: arb_batch(rng),
            client_sigs: (0..rng.usize_in(0, 3))
                .map(|_| arb_signature(rng))
                .collect(),
            signature: arb_signature(rng),
        }),
        4 => XPaxosMsg::Commit(arb_commit(rng)),
        5 => XPaxosMsg::Reply(ReplyMsg {
            view: ViewNumber(rng.u64_below(100)),
            sn: SeqNum(rng.u64_below(1 << 20)),
            client: ClientId(rng.u64_below(1 << 16)),
            timestamp: rng.u64_below(1 << 30),
            reply_digest: arb_digest(rng),
            payload: rng.bool().then(|| Bytes::from(rng.bytes(0, 128))),
            replica: rng.usize_in(0, 8),
            follower_commit: rng.bool().then(|| arb_commit(rng)),
        }),
        6 => XPaxosMsg::Suspect(SuspectMsg {
            view: ViewNumber(rng.u64_below(100)),
            replica: rng.usize_in(0, 8),
            signature: arb_signature(rng),
        }),
        7 => XPaxosMsg::ViewChange(arb_view_change(rng)),
        8 => XPaxosMsg::VcFinal(VcFinalMsg {
            new_view: ViewNumber(rng.u64_below(100)),
            replica: rng.usize_in(0, 8),
            vc_set: (0..rng.usize_in(0, 2))
                .map(|_| arb_view_change(rng))
                .collect(),
            signature: arb_signature(rng),
        }),
        9 => XPaxosMsg::VcConfirm(VcConfirmMsg {
            new_view: ViewNumber(rng.u64_below(100)),
            replica: rng.usize_in(0, 8),
            vc_set_digest: arb_digest(rng),
            signature: arb_signature(rng),
        }),
        10 => XPaxosMsg::NewView(NewViewMsg {
            new_view: ViewNumber(rng.u64_below(100)),
            prepare_log: (0..rng.usize_in(0, 2))
                .map(|_| arb_prepare_entry(rng))
                .collect(),
            signature: arb_signature(rng),
        }),
        11 => XPaxosMsg::Checkpoint(arb_checkpoint(rng)),
        12 => XPaxosMsg::LazyCheckpoint {
            proof: (0..rng.usize_in(0, 3))
                .map(|_| arb_checkpoint(rng))
                .collect(),
        },
        13 => XPaxosMsg::LazyReplicate {
            view: ViewNumber(rng.u64_below(100)),
            entries: (0..rng.usize_in(0, 2))
                .map(|_| arb_commit_entry(rng))
                .collect(),
        },
        14 => XPaxosMsg::FaultDetected(FaultDetectedMsg {
            new_view: ViewNumber(rng.u64_below(100)),
            culprit: rng.usize_in(0, 8),
            kind: if rng.u64_below(2) == 0 {
                DetectedFaultKind::StateLoss
            } else {
                DetectedFaultKind::Fork
            },
            reporter: rng.usize_in(0, 8),
            signature: arb_signature(rng),
        }),
        15 => XPaxosMsg::SuspectToClient(SuspectMsg {
            view: ViewNumber(rng.u64_below(100)),
            replica: rng.usize_in(0, 8),
            signature: arb_signature(rng),
        }),
        16 => XPaxosMsg::Busy(BusyMsg {
            view: ViewNumber(rng.u64_below(100)),
            client: ClientId(rng.u64_below(1 << 16)),
            timestamp: rng.u64_below(1 << 30),
            replica: rng.usize_in(0, 8),
        }),
        17 => XPaxosMsg::SyncDone(rng.u64_below(1 << 40)),
        18 => XPaxosMsg::StateChunkRequest(StateChunkRequestMsg {
            min_sn: SeqNum(rng.u64_below(1 << 20)),
            want_sn: SeqNum(rng.u64_below(1 << 20)),
            index: rng.u64_below(1 << 16) as u32,
            replica: rng.usize_in(0, 8),
            signature: arb_signature(rng),
        }),
        _ => XPaxosMsg::StateChunkResponse(StateChunkResponseMsg {
            sn: SeqNum(rng.u64_below(1 << 20)),
            chunk_bytes: 512 + rng.u64_below(1 << 16) as u32,
            total_len: rng.u64_below(1 << 30),
            root: arb_digest(rng),
            index: rng.u64_below(1 << 10) as u32,
            data: Bytes::from(rng.bytes(0, 700)),
            path: (0..rng.usize_in(0, 6)).map(|_| arb_digest(rng)).collect(),
            proof: (0..rng.usize_in(0, 3))
                .map(|_| arb_checkpoint(rng))
                .collect(),
            replica: rng.usize_in(0, 8),
            signature: arb_signature(rng),
        }),
    }
}

/// Canonical-codec round trip: `decode(encode(m)) == m` for every message
/// variant, with the decoder consuming the buffer exactly.
#[test]
fn wire_codec_round_trips_every_message_variant() {
    check("wire_codec_round_trips_every_message_variant", 256, |rng| {
        let msg = arb_msg(rng);
        let encoded = encode_msg_vec(&msg);
        match decode_msg::<XPaxosMsg>(&encoded) {
            Ok(decoded) if decoded == msg => Ok(()),
            Ok(decoded) => Err(format!("decoded {decoded:?}, expected {msg:?}")),
            Err(e) => Err(format!("decode failed with {e}: {msg:?}")),
        }
    });
}

/// Hostile inputs — truncations, bad magic, unknown version, unknown variant
/// tags and random byte flips — must yield a typed error, never a panic or an
/// out-of-bounds access.
#[test]
fn wire_codec_rejects_malformed_inputs_without_panicking() {
    check("wire_codec_rejects_malformed_inputs", 128, |rng| {
        let msg = arb_msg(rng);
        let encoded = encode_msg_vec(&msg);

        // Any strict prefix fails to decode (canonical encodings have no
        // self-delimiting shorter form).
        let cut = rng.usize_in(0, encoded.len());
        if decode_msg::<XPaxosMsg>(&encoded[..cut]).is_ok() {
            return Err(format!("a {cut}-byte prefix of {} decoded", encoded.len()));
        }

        // Bad magic and unsupported version are identified as such.
        let mut bad_magic = encoded.clone();
        bad_magic[rng.usize_in(0, 4)] ^= 0x40;
        if decode_msg::<XPaxosMsg>(&bad_magic) != Err(WireError::BadMagic) {
            return Err("corrupted magic not rejected as BadMagic".into());
        }
        // Versions above WIRE_VERSION_TRACED (the highest this build speaks)
        // are from the future.
        let mut bad_version = encoded.clone();
        bad_version[4] = WIRE_VERSION_TRACED + 1 + rng.byte() % 100;
        if !matches!(
            decode_msg::<XPaxosMsg>(&bad_version),
            Err(WireError::UnsupportedVersion(_))
        ) {
            return Err("future version not rejected as UnsupportedVersion".into());
        }

        // An unknown variant tag is malformed.
        let mut unknown_tag = Vec::from(MAGIC);
        unknown_tag.push(WIRE_VERSION);
        unknown_tag.push(23 + (rng.byte() % 200)); // tags stop at 22
        unknown_tag.extend_from_slice(&rng.bytes(0, 64));
        if decode_msg::<XPaxosMsg>(&unknown_tag).is_err() {
            // expected — fall through
        } else {
            return Err("unknown variant tag decoded".into());
        }

        // Random single-byte corruption never panics: it either still decodes
        // (the flip hit a free-form payload byte) or errors cleanly.
        let mut flipped = encoded.clone();
        let idx = rng.usize_in(0, flipped.len());
        flipped[idx] ^= 1 << (rng.byte() % 8);
        let _ = decode_msg::<XPaxosMsg>(&flipped);
        Ok(())
    });
}

/// State-transfer frames are the largest things on the wire, so their decoder
/// enforces field-level caps on top of the generic collection bound: a Merkle
/// audit path longer than any possible tree depth or an oversized checkpoint
/// proof is rejected at decode, and a hostile length prefix on the chunk data
/// errors cleanly instead of allocating.
#[test]
fn state_chunk_decoder_caps_hostile_lengths() {
    check("state_chunk_decoder_caps_hostile_lengths", 64, |rng| {
        let base = StateChunkResponseMsg {
            sn: SeqNum(rng.u64_below(1 << 20)),
            chunk_bytes: 512,
            total_len: rng.u64_below(1 << 20),
            root: arb_digest(rng),
            index: rng.u64_below(1 << 10) as u32,
            data: Bytes::from(rng.bytes(0, 512)),
            path: (0..rng.usize_in(0, 6)).map(|_| arb_digest(rng)).collect(),
            proof: (0..rng.usize_in(0, 3))
                .map(|_| arb_checkpoint(rng))
                .collect(),
            replica: rng.usize_in(0, 8),
            signature: arb_signature(rng),
        };
        let encoded = encode_msg_vec(&XPaxosMsg::StateChunkResponse(base.clone()));
        if decode_msg::<XPaxosMsg>(&encoded).is_err() {
            return Err("in-cap chunk response failed to decode".into());
        }

        // 65 path entries: deeper than a 2^64-leaf tree, can never verify.
        let mut long_path = base.clone();
        long_path.path = (0..65).map(|_| arb_digest(rng)).collect();
        let encoded = encode_msg_vec(&XPaxosMsg::StateChunkResponse(long_path));
        if decode_msg::<XPaxosMsg>(&encoded).is_ok() {
            return Err("65-entry audit path decoded despite the cap".into());
        }

        // 65 proof votes: more than one per replica of any real cluster.
        let mut long_proof = base.clone();
        long_proof.proof = (0..65).map(|_| arb_checkpoint(rng)).collect();
        let encoded = encode_msg_vec(&XPaxosMsg::StateChunkResponse(long_proof));
        if decode_msg::<XPaxosMsg>(&encoded).is_ok() {
            return Err("65-vote checkpoint proof decoded despite the cap".into());
        }

        // Rewrite the chunk data's u32 length prefix to ~4 GiB: the decoder
        // must reject the length before trusting it, not reserve memory.
        // Layout: 6-byte envelope (magic, version, tag), then
        // sn(8) + chunk_bytes(4) + total_len(8) + root(32) + index(4).
        let mut hostile = encode_msg_vec(&XPaxosMsg::StateChunkResponse(base));
        let data_len_at = 6 + 8 + 4 + 8 + 32 + 4;
        hostile[data_len_at..data_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        if decode_msg::<XPaxosMsg>(&hostile).is_ok() {
            return Err("4 GiB data length prefix decoded".into());
        }
        Ok(())
    });
}

/// Signed digests are derived from the canonical encoding, so two messages
/// sign the same digest exactly when their wire bytes agree.
#[test]
fn signed_digests_track_canonical_encoding() {
    use xft::wire::WireEncode;
    check("signed_digests_track_canonical_encoding", 64, |rng| {
        let a = arb_view_change(rng);
        let mut b = arb_view_change(rng);
        b.signature = a.signature; // signature is excluded from the digest
        let bytes_equal = {
            let (mut ba, mut bb) = (Vec::new(), Vec::new());
            XPaxosMsg::ViewChange(a.clone()).encode_into(&mut ba);
            XPaxosMsg::ViewChange(b.clone()).encode_into(&mut bb);
            ba == bb
        };
        if (a.digest() == b.digest()) != bytes_equal {
            return Err(format!(
                "digest equality diverged from wire equality for {a:?} vs {b:?}"
            ));
        }
        Ok(())
    });
}

/// Total order holds under randomized single-replica crash/recovery schedules
/// (never more than t = 1 simultaneous fault, hence never in anarchy).
///
/// Whole-cluster simulations are comparatively expensive; run fewer cases.
#[test]
fn xpaxos_total_order_under_random_crash_schedules() {
    check(
        "xpaxos_total_order_under_random_crash_schedules",
        8,
        |rng| {
            let seed = rng.u64_in(0, 1000);
            let victim = rng.usize_in(0, 3);
            let crash_at_secs = rng.u64_in(2, 8);
            let downtime_secs = rng.u64_in(1, 10);
            let partition_instead = rng.bool();
            let mut cluster = ClusterBuilder::new(1, 2)
                .with_seed(seed)
                .with_latency(LatencySpec::Uniform(
                    SimDuration::from_millis(2),
                    SimDuration::from_millis(15),
                ))
                .with_workload(ClientWorkload {
                    payload_size: 128,
                    ..Default::default()
                })
                .with_config(|c| {
                    c.with_delta(SimDuration::from_millis(100))
                        .with_client_retransmit(SimDuration::from_millis(500))
                        .with_checkpoint_interval(0)
                })
                .build();
            let start = SimTime::ZERO + SimDuration::from_secs(crash_at_secs);
            let end = start + SimDuration::from_secs(downtime_secs);
            if partition_instead {
                cluster
                    .sim
                    .inject_fault_at(start, FaultEvent::Isolate(victim));
                cluster
                    .sim
                    .inject_fault_at(end, FaultEvent::Reconnect(victim));
            } else {
                cluster
                    .sim
                    .inject_fault_at(start, FaultEvent::Crash(victim));
                cluster
                    .sim
                    .inject_fault_at(end, FaultEvent::Recover(victim));
            }
            cluster.run_for(SimDuration::from_secs(30));

            // Liveness: the system must keep committing after the fault heals.
            if cluster.total_committed() <= 20 {
                return Err(format!(
                    "only {} commits (seed {seed}, victim {victim}, partition {partition_instead})",
                    cluster.total_committed()
                ));
            }
            // Safety among the replicas that were never disturbed (the disturbed replica may
            // hold a speculative suffix until it repairs through a later view change).
            let undisturbed: Vec<_> = (0..3)
                .filter(|r| *r != victim)
                .map(|r| cluster.replica(r))
                .collect();
            check_total_order(&undisturbed)
        },
    );
}

/// Bounded-checkpoint invariants swept across checkpoint intervals under
/// latency jitter (which skews `last_checkpoint` across replicas at any
/// given instant):
///
/// 1. checkpoints keep sealing — a seal requires t + 1 replicas to digest
///    *byte-identical* windowed snapshots at the same sequence number, so
///    sustained sealing is direct evidence that capture is deterministic
///    despite the transient skew;
/// 2. the live executed-history window stays O(interval) however far
///    execution runs (≥ 10 intervals here) — the tentpole "flat capture"
///    guarantee, where the unbounded implementation grew O(history);
/// 3. a view change forced mid-run succeeds even though every log it can
///    select from has been truncated below the stable checkpoint.
#[test]
fn checkpoint_interval_sweep_stays_flat_and_survives_view_change() {
    check("checkpoint_interval_sweep", 4, |rng| {
        let interval = [8u64, 16, 32, 64][rng.usize_in(0, 4)];
        let seed = rng.u64_in(0, 1000);
        let mut cluster = ClusterBuilder::new(1, 2)
            .with_seed(seed)
            .with_latency(LatencySpec::Uniform(
                SimDuration::from_millis(2),
                SimDuration::from_millis(15),
            ))
            .with_workload(ClientWorkload {
                payload_size: 64,
                ..Default::default()
            })
            .with_config(move |mut c| {
                // The Algorithm-4 monitor must fire within the crash window,
                // else the recovered primary answers before anyone suspects.
                c.replica_retransmit = SimDuration::from_millis(500);
                c.with_delta(SimDuration::from_millis(100))
                    .with_client_retransmit(SimDuration::from_millis(500))
                    .with_checkpoint_interval(interval)
            })
            .build();
        // Crash the view-0 primary after several seals: the ensuing view
        // change must succeed from truncated histories.
        cluster.sim.inject_fault_at(
            SimTime::ZERO + SimDuration::from_secs(6),
            FaultEvent::Crash(0),
        );
        cluster.sim.inject_fault_at(
            SimTime::ZERO + SimDuration::from_secs(10),
            FaultEvent::Recover(0),
        );
        cluster.run_for(SimDuration::from_secs(30));
        // Keep going (bounded) until execution has covered ≥ 10 intervals,
        // so the flat-capture claim is tested against a genuinely long run.
        for _ in 0..4 {
            let exec = (0..3).map(|r| cluster.replica(r).executed_upto().0).max();
            if exec >= Some(10 * interval) {
                break;
            }
            cluster.run_for(SimDuration::from_secs(10));
        }

        let sealed = cluster.sim.metrics().counter("checkpoints");
        if sealed == 0 {
            return Err(format!(
                "no checkpoint sealed (interval {interval}, seed {seed})"
            ));
        }
        let exec = (0..3)
            .map(|r| cluster.replica(r).executed_upto().0)
            .max()
            .unwrap();
        if exec < 10 * interval {
            return Err(format!(
                "executed only {exec} sns, wanted ≥ {} (interval {interval}, seed {seed})",
                10 * interval
            ));
        }
        // Flat capture: the live window spans at most the suffix since the
        // stable checkpoint plus one interval of fork-detection slack (plus
        // in-flight batches) — never the whole history.
        for r in 0..3 {
            let hist = cluster.replica(r).executed_history().len() as u64;
            if cluster.replica(r).last_checkpoint().0 > 0 && hist > 3 * interval + 40 {
                return Err(format!(
                    "replica {r} retains {hist} executed entries at interval \
                     {interval} after {exec} sns (seed {seed}) — capture is not flat"
                ));
            }
        }
        // The crash must have forced a view change off view 0.
        if cluster.replica(1).view().0 == 0 {
            let views: Vec<u64> = (0..3).map(|r| cluster.replica(r).view().0).collect();
            return Err(format!(
                "no view change despite the primary crash (interval {interval}, seed {seed}, \
                 views {views:?}, {} commits, {} vcs, {} suspects, {} retransmissions)",
                cluster.total_committed(),
                cluster.sim.metrics().counter("view_changes"),
                cluster.sim.metrics().counter("suspects_sent"),
                cluster.sim.metrics().counter("client_retransmissions"),
            ));
        }
        cluster.check_total_order()
    });
}

/// WAL recovery honours the committed-prefix contract at *every* byte offset:
/// however the tail is lost (truncation anywhere, a flipped bit anywhere),
/// the records that survive are exactly a prefix of what was appended — never
/// a divergent or forged record — and a fresh replay of the same bytes agrees.
#[test]
fn wal_recovery_is_a_committed_prefix_under_truncation_and_corruption() {
    use xft::store::wal::{frame_record, scan_records};
    use xft::store::{DiskFault, MemStorage, Storage};

    check("wal_recovery_committed_prefix", 16, |rng| {
        let records: Vec<Vec<u8>> = (0..rng.usize_in(3, 9)).map(|_| rng.bytes(0, 80)).collect();
        let mut wal = Vec::new();
        for r in &records {
            wal.extend_from_slice(&frame_record(r));
        }

        let is_prefix = |scanned: &[Vec<u8>], what: &str| -> Result<(), String> {
            if scanned.len() > records.len() {
                return Err(format!("{what}: recovered more records than were written"));
            }
            for (i, rec) in scanned.iter().enumerate() {
                if rec != &records[i] {
                    return Err(format!("{what}: record {i} diverged after recovery"));
                }
            }
            Ok(())
        };

        // Truncation at every byte offset — the torn-write sweep.
        for cut in 0..=wal.len() {
            let out = scan_records(&wal[..cut]);
            is_prefix(&out.records, &format!("truncate at {cut}"))?;
            if out.valid_len > cut {
                return Err(format!(
                    "valid_len {} beyond the {cut}-byte tail",
                    out.valid_len
                ));
            }
            // Recovery matches a fresh replay of the same surviving bytes.
            let replay = scan_records(&wal[..out.valid_len]);
            if replay.records != out.records {
                return Err(format!("recovery at {cut} disagrees with a fresh replay"));
            }
            if cut == wal.len() && out.records.len() != records.len() {
                return Err("undamaged WAL must recover completely".into());
            }
        }

        // A single flipped bit at every byte offset — the CRC sweep.
        for byte in 0..wal.len() {
            let mut damaged = wal.clone();
            damaged[byte] ^= 1 << rng.usize_in(0, 8);
            let out = scan_records(&damaged);
            is_prefix(&out.records, &format!("bit flip in byte {byte}"))?;
        }

        // End to end through a Storage backend: damage, recover (which
        // truncates the bad tail), append fresh records, recover again — the
        // result is the surviving prefix plus the new records, in order.
        let mut storage = MemStorage::new();
        for r in &records {
            storage.append(r);
        }
        let fault = if rng.bool() {
            DiskFault::TornTail {
                bytes: rng.u64_in(1, wal.len() as u64 + 1),
            }
        } else {
            DiskFault::FlipBit {
                bit: rng.u64_in(0, wal.len() as u64 * 8),
            }
        };
        storage.inject(fault);
        let recovered = storage.load();
        is_prefix(&recovered.records, "storage backend recovery")?;
        storage.append(b"fresh-after-repair");
        let after = storage.load();
        let expected: Vec<Vec<u8>> = recovered
            .records
            .iter()
            .cloned()
            .chain(std::iter::once(b"fresh-after-repair".to_vec()))
            .collect();
        if after.records != expected {
            return Err("appends after repair must continue the committed prefix".into());
        }
        Ok(())
    });
}
