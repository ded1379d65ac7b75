//! The single-threaded *layer replay*: the messages a run of committed
//! batches produces, pushed through each layer's public entry points with a
//! span around every call.
//!
//! From the workload's seed and its observed `core.ops_per_batch` the replay
//! builds, batch by batch, exactly the t = 1 fast-path traffic of the common
//! case — signed `Replicate`s, the primary's `CommitCarry`, the follower's
//! `Commit`, the per-request `Reply`s and the follower's `LazyReplicate`
//! carrier — and times, outside any cluster:
//!
//! * `client`: request digest + `Signer::sign_digest`;
//! * `wire`: `encode_msg_traced_vec`, `frame_bytes` +
//!   `FrameBuffer::extend/next_frame`, `decode_msg`, for every message;
//! * `crypto` / `core::pipeline`: `CryptoFront::verify_client_sigs`,
//!   `digest_batch`, `sign_digest`, and the single-signature verifies;
//! * `evidence`: `EvidenceLog::record` on an in-memory log, for every
//!   accountable message at its sender and at its receiver.
//!
//! One `replay.batch` span parents the calls made for one batch, so a
//! layer's share is that span's children and the replay's own overhead is its
//! self time. Nothing here is an end-to-end number.

use crate::opgen::OpGen;
use crate::trace::SpanSink;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use xft_core::evidence::{is_accountable, EvidenceLog, DIR_RECEIVED, DIR_SENT};
use xft_core::log::CommitEntry;
use xft_core::messages::{
    client_request_digest, CommitCarryMsg, CommitMsg, ReplyMsg, SignedRequest, XPaxosMsg,
};
use xft_core::pipeline::CryptoFront;
use xft_core::types::{client_key, replica_key, Batch, ClientId, Request, SeqNum, ViewNumber};
use xft_crypto::{CostModel, CryptoOp, Digest, KeyRegistry, Signer, Verifier};
use xft_wire::{decode_msg, encode_msg_traced_vec, frame_bytes, FrameBuffer, DEFAULT_MAX_FRAME};

/// Ops replayed in all; the batch count follows from the batch size, bounded
/// to `[MIN_BATCHES, MAX_BATCHES]`.
const TARGET_OPS: usize = 40_000;
const MIN_BATCHES: usize = 200;
const MAX_BATCHES: usize = 2_000;

/// Per-op results of one replay, by metric name, plus the pieces the
/// reconciliation needs.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Per-layer numbers by metric name.
    pub layer: BTreeMap<&'static str, f64>,
    /// µs per op of replayed work that a *primary's protocol thread* does:
    /// encoding what it sends, its crypto, and its evidence records.
    pub primary_share_us: f64,
    /// µs per op of all replayed work that runs on protocol threads (client,
    /// primary, follower, passive) — wire framing and decoding excluded,
    /// since those run on the transport threads the ledger already counts.
    pub protocol_threads_us: f64,
}

struct Wire<'a> {
    sink: &'a SpanSink,
    frames: FrameBuffer,
    bytes: u64,
    msgs: u64,
}

impl Wire<'_> {
    /// Sends `msg` through encode → frame → reassemble → decode, as the
    /// runtime's send path and a peer's reader do. Returns the decoded
    /// message and the nanoseconds the encode took (the sender's protocol
    /// thread pays those; framing and decoding run on transport threads).
    fn round_trip(&mut self, msg: &XPaxosMsg, parent: u64) -> (XPaxosMsg, u64) {
        let t0 = Instant::now();
        let payload = encode_msg_traced_vec(msg, None);
        let t1 = Instant::now();
        self.sink.record("wire.encode", parent, t0, t1);
        let frame = self.sink.time("wire.frame", parent, || {
            let framed = frame_bytes(&payload);
            self.frames.extend(&framed);
            self.frames
                .next_frame()
                .expect("frame within limit")
                .expect("a whole frame was buffered")
        });
        self.bytes += frame.len() as u64 + 4;
        self.msgs += 1;
        let decoded = self.sink.time("wire.decode", parent, || {
            decode_msg::<XPaxosMsg>(&frame).expect("own encoding decodes")
        });
        (decoded, (t1 - t0).as_nanos() as u64)
    }
}

/// The three replicas' in-memory evidence logs.
struct Evidence<'a> {
    sink: &'a SpanSink,
    logs: [EvidenceLog; 3],
    records: u64,
}

impl Evidence<'_> {
    /// Records `msg` in replica `at`'s log if it is accountable; returns the
    /// nanoseconds that took.
    fn record(
        &mut self,
        at: usize,
        dir: u8,
        peer: usize,
        sn: SeqNum,
        msg: &XPaxosMsg,
        parent: u64,
    ) -> u64 {
        if !is_accountable(msg) {
            return 0;
        }
        let t = Instant::now();
        let log = &mut self.logs[at];
        self.sink.time("evidence.record", parent, || {
            log.record(dir, peer as u64, 0, 0, sn.0, msg)
        });
        self.records += 1;
        t.elapsed().as_nanos() as u64
    }
}

/// Replays the traffic of committed batches of `ops_per_batch` requests from
/// `clients` closed-loop clients seeded with `seed`. `evidence_on` says
/// whether the workload records evidence, i.e. whether the primary's share
/// includes its evidence records.
pub fn run(
    seed: u64,
    clients: usize,
    ops_per_batch: f64,
    evidence_on: bool,
    sink: &Arc<SpanSink>,
) -> ReplayOutcome {
    let batch_len = (ops_per_batch.round() as usize).clamp(1, 256);
    let batches = (TARGET_OPS / batch_len).clamp(MIN_BATCHES, MAX_BATCHES);
    let gen = OpGen::new(seed, clients);
    let registry = KeyRegistry::new(seed ^ 0x5eed);
    let client_signers: Vec<Signer> = (0..clients as u64)
        .map(|c| Signer::new(&registry, client_key(ClientId(c))))
        .collect();
    let (primary, follower) = (0usize, 1usize);
    let primary_signer = Signer::new(&registry, replica_key(primary));
    let follower_signer = Signer::new(&registry, replica_key(follower));
    let verifier = Verifier::new(registry.clone());
    let front = CryptoFront::inline();
    let view = ViewNumber(0);
    let mut evidence = Evidence {
        sink,
        logs: [
            EvidenceLog::in_memory(),
            EvidenceLog::in_memory(),
            EvidenceLog::in_memory(),
        ],
        records: 0,
    };
    let mut wire = Wire {
        sink,
        frames: FrameBuffer::new(DEFAULT_MAX_FRAME),
        bytes: 0,
        msgs: 0,
    };
    let (mut signs, mut verifies) = (0u64, 0u64);
    let mut primary_ns = 0u64;
    let mut next_ts = vec![0u64; clients];
    let mut next_client = 0usize;

    for b in 0..batches {
        let sn = SeqNum(b as u64 + 1);
        let parent = sink.reserve();
        let batch_start = Instant::now();

        // Clients: generate, digest and sign; then each REPLICATE crosses the wire.
        let mut requests = Vec::with_capacity(batch_len);
        for _ in 0..batch_len {
            let c = next_client;
            next_client = (next_client + 1) % clients;
            next_ts[c] += 1;
            requests.push(Request::new(
                ClientId(c as u64),
                next_ts[c],
                gen.op(c as u64, next_ts[c]),
            ));
        }
        let signed: Vec<SignedRequest> = sink.time("crypto.client_sign", parent, || {
            requests
                .into_iter()
                .map(|request| {
                    let signature = client_signers[request.client.0 as usize]
                        .sign_digest(&client_request_digest(&request));
                    SignedRequest { request, signature }
                })
                .collect()
        });
        signs += batch_len as u64;
        let mut admitted = Vec::with_capacity(batch_len);
        for sr in signed {
            match wire.round_trip(&XPaxosMsg::Replicate(sr), parent).0 {
                XPaxosMsg::Replicate(sr) => admitted.push(sr),
                other => unreachable!("REPLICATE decoded as {other:?}"),
            }
        }

        // Primary: batched verify, batch digest, commit signature, COMMIT-CARRY.
        let (reqs, sigs): (Vec<_>, Vec<_>) = admitted
            .into_iter()
            .map(|sr| (sr.request, sr.signature))
            .unzip();
        let t = Instant::now();
        sink.time("crypto.verify_batch", parent, || {
            front
                .verify_client_sigs(&verifier, &reqs, &sigs)
                .expect("own signatures verify")
        });
        verifies += batch_len as u64;
        let batch = Batch::new(reqs);
        let batch_digest = sink.time("crypto.digest_batch", parent, || front.digest_batch(&batch));
        let commit_digest = CommitEntry::commit_digest(&batch_digest, sn, view);
        let primary_sig = sink.time("crypto.replica_sign", parent, || {
            front.sign_digest(&primary_signer, &commit_digest)
        });
        signs += 1;
        primary_ns += t.elapsed().as_nanos() as u64;
        let carry = XPaxosMsg::CommitCarry(CommitCarryMsg {
            view,
            sn,
            batch,
            client_sigs: sigs,
            signature: primary_sig,
        });
        let ns = evidence.record(primary, DIR_SENT, follower, sn, &carry, parent);
        primary_ns += if evidence_on { ns } else { 0 };
        let (carry, encode_ns) = wire.round_trip(&carry, parent);
        primary_ns += encode_ns;
        evidence.record(follower, DIR_RECEIVED, primary, sn, &carry, parent);
        let XPaxosMsg::CommitCarry(carry) = carry else {
            unreachable!("COMMIT-CARRY decodes as itself");
        };

        // Follower: verify the primary's statement and the client signatures,
        // sign its own commit (with the reply digest), send COMMIT.
        let carried_digest = sink.time("crypto.digest_batch", parent, || {
            front.digest_batch(&carry.batch)
        });
        sink.time("crypto.verify_sig", parent, || {
            verifier
                .verify_digest(
                    &CommitEntry::commit_digest(&carried_digest, sn, view),
                    &carry.signature,
                )
                .expect("primary signature verifies")
        });
        sink.time("crypto.verify_batch", parent, || {
            front
                .verify_client_sigs(&verifier, &carry.batch.requests, &carry.client_sigs)
                .expect("own signatures verify")
        });
        verifies += 1 + batch_len as u64;
        let reply_payload = Bytes::copy_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 0]);
        let reply_digest = Digest::of(&reply_payload);
        let follower_sig = sink.time("crypto.replica_sign", parent, || {
            front.sign_digest(&follower_signer, &commit_digest.combine(&reply_digest))
        });
        signs += 1;
        let m1 = CommitMsg {
            view,
            sn,
            batch_digest,
            replica: follower,
            reply_digest: Some(reply_digest),
            signature: follower_sig,
        };
        let commit = XPaxosMsg::Commit(m1.clone());
        evidence.record(follower, DIR_SENT, primary, sn, &commit, parent);
        let commit = wire.round_trip(&commit, parent).0;
        let ns = evidence.record(primary, DIR_RECEIVED, follower, sn, &commit, parent);
        primary_ns += if evidence_on { ns } else { 0 };

        // Primary: verify the follower's commit, reply to every client.
        let t = Instant::now();
        sink.time("crypto.verify_sig", parent, || {
            verifier
                .verify_digest(&commit_digest.combine(&reply_digest), &follower_sig)
                .expect("follower signature verifies")
        });
        verifies += 1;
        primary_ns += t.elapsed().as_nanos() as u64;
        for request in &carry.batch.requests {
            let reply = XPaxosMsg::Reply(ReplyMsg {
                view,
                sn,
                client: request.client,
                timestamp: request.timestamp,
                reply_digest,
                payload: Some(reply_payload.clone()),
                replica: primary,
                follower_commit: Some(m1.clone()),
            });
            primary_ns += wire.round_trip(&reply, parent).1;
        }

        // Follower → passive: the lazy-replication carrier of the committed entry.
        let lazy = XPaxosMsg::LazyReplicate {
            view,
            entries: vec![CommitEntry {
                view,
                sn,
                batch: carry.batch,
                primary_sig,
                commit_sigs: BTreeMap::from([(follower, follower_sig)]),
            }],
        };
        evidence.record(follower, DIR_SENT, 2, sn, &lazy, parent);
        let lazy = wire.round_trip(&lazy, parent).0;
        evidence.record(2, DIR_RECEIVED, follower, sn, &lazy, parent);

        sink.record_reserved(parent, "replay.batch", 0, batch_start, Instant::now());
    }

    let ops = (batches * batch_len) as f64;
    let us_per_op = |name: &str| sink.totals(name).total_ns as f64 / 1e3 / ops;
    let cost = CostModel::paper_default();
    let mut layer = BTreeMap::new();
    layer.insert("replay.batches", batches as f64);
    layer.insert("replay.ops_per_batch", batch_len as f64);
    layer.insert(
        "crypto.client_sign_us_per_op",
        us_per_op("crypto.client_sign"),
    );
    layer.insert("wire.encode_us_per_op", us_per_op("wire.encode"));
    layer.insert("wire.frame_us_per_op", us_per_op("wire.frame"));
    layer.insert("wire.decode_us_per_op", us_per_op("wire.decode"));
    layer.insert("wire.bytes_per_op", wire.bytes as f64 / ops);
    layer.insert("wire.msgs_per_op", wire.msgs as f64 / ops);
    layer.insert(
        "crypto.verify_batch_us_per_op",
        us_per_op("crypto.verify_batch"),
    );
    layer.insert(
        "crypto.verify_sig_us_per_op",
        us_per_op("crypto.verify_sig"),
    );
    layer.insert(
        "crypto.digest_batch_us_per_op",
        us_per_op("crypto.digest_batch"),
    );
    layer.insert(
        "crypto.replica_sign_us_per_op",
        us_per_op("crypto.replica_sign"),
    );
    layer.insert("crypto.sign_per_op", signs as f64 / ops);
    layer.insert("crypto.verify_per_op", verifies as f64 / ops);
    layer.insert(
        "crypto.paper_rsa_us_per_op",
        (signs * cost.cost_ns(CryptoOp::Sign) + verifies * cost.cost_ns(CryptoOp::VerifySig))
            as f64
            / 1e3
            / ops,
    );
    layer.insert(
        "evidence.record_us_per_op",
        sink.totals("evidence.record").total_ns as f64 / 1e3 / evidence.records.max(1) as f64,
    );
    layer.insert(
        "replay.evidence_records_per_op",
        evidence.records as f64 / ops,
    );
    // The replay's own overhead: the batch spans' self time, i.e. what their
    // children do not cover (op generation, bookkeeping, the span clock).
    let children_ns: u64 = [
        "crypto.client_sign",
        "wire.encode",
        "wire.frame",
        "wire.decode",
        "crypto.verify_batch",
        "crypto.verify_sig",
        "crypto.digest_batch",
        "crypto.replica_sign",
        "evidence.record",
    ]
    .iter()
    .map(|n| sink.totals(n).total_ns)
    .sum();
    layer.insert(
        "replay.self_us_per_op",
        sink.totals("replay.batch")
            .total_ns
            .saturating_sub(children_ns) as f64
            / 1e3
            / ops,
    );
    let protocol_threads_us = [
        "crypto.client_sign",
        "wire.encode",
        "crypto.verify_batch",
        "crypto.verify_sig",
        "crypto.digest_batch",
        "crypto.replica_sign",
    ]
    .iter()
    .map(|n| us_per_op(n))
    .sum();
    ReplayOutcome {
        layer,
        primary_share_us: primary_ns as f64 / 1e3 / ops,
        protocol_threads_us,
    }
}
