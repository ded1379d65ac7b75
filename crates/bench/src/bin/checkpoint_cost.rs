//! Checkpoint capture cost at the benchmark's steady state: what one replica
//! pays on its protocol thread to capture a checkpoint of a 4 096-key, 1 kB
//! per key coordination service (4.35 MB), by how much of the state changed
//! since the previous checkpoint.
//!
//! A capture is `StateMachine::snapshot()` plus `SnapshotImage::capture`
//! (encode the head and the tail around the application bytes, compare
//! with the previous image, hash what differs). The service keeps the
//! encodings it returned the last two times, so `snapshot()` is a refresh
//! of the older one: it rewrites the entries whose version moved since
//! that encoding was taken. Rows:
//!
//! * `128 keys dirty` — the lone-client interval (128 one-op batches);
//! * `every key dirty` — the saturated interval (~30 000 ops over 4 096 keys);
//! * `every key dirty + a create` — the same state encoded from scratch (a
//!   create forgets the kept encodings): the streaming encode the
//!   entry-by-entry refresh of the row above competes with;
//! * `one resizing put` — a layout shift against the previous image: every
//!   block behind it moves. The put alternates two sizes, so the encoding
//!   the service refreshes (two calls back) has the current layout;
//! * `128 keys dirty + a create` — a create forgets the kept encodings, so
//!   `snapshot()` is a full encoding;
//! * `no previous image` — the first capture after a restart.
//!
//! Each capture holds the previous image and drops the one before, as a
//! replica does. The `app in place` column counts the captures whose
//! `snapshot()` refreshed the buffer it returned two calls back in place
//! (`CoordinationService::snapshots_refreshed_in_place`), rather than
//! copying it or encoding anew; `scripts/ci.sh` fails if the
//! `128 keys dirty` row has fewer than rounds − 2 of them.
//!
//! Every round is also checked: the captured image's commitment must equal
//! that of a memo-less capture of the from-scratch encoding (`applied`,
//! then `ZNodeTree::to_bytes`) of the same state, which a twin service
//! reaches by replaying the rounds after they are timed. A release build
//! has no other check of the kept encoding at this size.
//!
//! `state_digest()` is printed for reference: checkpoints used to call it
//! once per capture and no longer do.
//!
//! Usage: `checkpoint_cost [--rounds N]`

use bytes::Bytes;
use std::time::Instant;
use xft_bench::report::{f2, render_table};
use xft_core::durable::{ImageStats, ReplicaSnapshot, SnapshotImage};
use xft_core::state_machine::StateMachine;
use xft_core::types::SeqNum;
use xft_crypto::Digest;
use xft_kvstore::{CoordinationService, KvOp};

const KEYS: u64 = 4_096;
const INTERVAL: u64 = 128;
const CHUNK_BYTES: u32 = 64 * 1024;

fn put(svc: &mut CoordinationService, key: u64, fill: u8, len: usize) {
    svc.apply_op(&KvOp::Put {
        path: format!("/bench/k{key:05}"),
        data: Bytes::from(vec![fill; len]),
    });
}

/// The replica snapshot a checkpoint at `sn` captures around `app`.
fn replica_snapshot(sn: u64, app: Bytes) -> ReplicaSnapshot {
    ReplicaSnapshot {
        sn: SeqNum(sn),
        base: SeqNum(sn.saturating_sub(INTERVAL)),
        app,
        executed: (sn.saturating_sub(INTERVAL) + 1..=sn)
            .map(|s| (SeqNum(s), Digest::of(&s.to_le_bytes())))
            .collect(),
        clients: Vec::new(),
    }
}

/// One capture as the replica does it; returns (snapshot ms, image ms).
fn capture(
    svc: &CoordinationService,
    sn: u64,
    memo: Option<&SnapshotImage>,
) -> (SnapshotImage, ImageStats, f64, f64) {
    let t0 = Instant::now();
    let app = svc.snapshot();
    let t1 = Instant::now();
    let (image, stats) = SnapshotImage::capture(&replica_snapshot(sn, app), CHUNK_BYTES, memo);
    let t2 = Instant::now();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    (image, stats, ms(t1 - t0), ms(t2 - t1))
}

/// The commitment of a memo-less capture at `sn` of the from-scratch
/// encoding of `svc`'s state: `applied`, then `ZNodeTree::to_bytes`.
fn from_scratch_commitment(svc: &CoordinationService, sn: u64) -> Digest {
    let mut app = svc.applied().to_le_bytes().to_vec();
    app.extend(svc.tree().to_bytes());
    let (image, _) =
        SnapshotImage::capture(&replica_snapshot(sn, Bytes::from(app)), CHUNK_BYTES, None);
    image.commitment()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rounds = args
        .iter()
        .position(|a| a == "--rounds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(21);

    let mut svc = CoordinationService::new();
    svc.apply_op(&KvOp::Create {
        path: "/bench".into(),
        data: Bytes::new(),
        ephemeral_owner: None,
        sequential: false,
    });
    for key in 0..KEYS {
        put(&mut svc, key, 0, 1024);
    }
    let state_bytes = svc.snapshot().len();

    type Dirty = fn(&mut CoordinationService, u64);
    let scenarios: [(&str, bool, Dirty); 6] = [
        ("128 keys dirty", true, |svc, round| {
            for i in 0..INTERVAL {
                put(svc, (round * 977 + i * 31) % KEYS, round as u8, 1024);
            }
        }),
        ("every key dirty", true, |svc, round| {
            for key in 0..KEYS {
                put(svc, key, round as u8, 1024);
            }
        }),
        ("every key dirty + a create", true, |svc, round| {
            for key in 0..KEYS {
                put(svc, key, round as u8, 1024);
            }
            svc.apply_op(&KvOp::Create {
                path: format!("/bench/z{round:05}"),
                data: Bytes::new(),
                ephemeral_owner: None,
                sequential: false,
            });
        }),
        ("one resizing put", true, |svc, round| {
            put(svc, 0, round as u8, 1000 + (round % 2) as usize * 24);
        }),
        ("128 keys dirty + a create", true, |svc, round| {
            for i in 0..INTERVAL {
                put(svc, (round * 977 + i * 31) % KEYS, round as u8, 1024);
            }
            svc.apply_op(&KvOp::Create {
                path: format!("/bench/z{round:05}"),
                data: Bytes::new(),
                ephemeral_owner: None,
                sequential: false,
            });
        }),
        ("no previous image", false, |svc, round| {
            put(svc, round % KEYS, round as u8, 1024);
        }),
    ];

    let mut rows = Vec::new();
    for (label, with_memo, dirty) in scenarios {
        // A twin replays the rounds once they are timed, and each capture is
        // checked against the twin's from-scratch one: checking in between
        // would evict what the next timed capture reads.
        let mut twin = CoordinationService::new();
        assert!(twin.restore(&svc.snapshot()));
        let (mut memo, ..) = capture(&svc, INTERVAL, None);
        let (mut snap_ms, mut image_ms, mut total_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut commitments = Vec::new();
        let in_place_before = svc.snapshots_refreshed_in_place();
        let mut last = None;
        for round in 1..=rounds {
            dirty(&mut svc, round);
            let (image, stats, s, i) =
                capture(&svc, (round + 1) * INTERVAL, with_memo.then_some(&memo));
            snap_ms.push(s);
            image_ms.push(i);
            total_ms.push(s + i);
            commitments.push(image.commitment());
            last = Some(stats);
            memo = image;
        }
        for (round, commitment) in (1..=rounds).zip(commitments) {
            dirty(&mut twin, round);
            assert_eq!(
                commitment,
                from_scratch_commitment(&twin, (round + 1) * INTERVAL),
                "{label}, round {round}: the capture differs from one of the from-scratch encoding"
            );
        }
        let in_place = svc.snapshots_refreshed_in_place() - in_place_before;
        let stats = last.expect("at least one round");
        rows.push(vec![
            label.to_string(),
            format!("{} / {}", stats.blocks_rehashed, stats.blocks_total),
            f2(median(snap_ms)),
            f2(median(image_ms)),
            f2(median(total_ms)),
            format!("{in_place} / {rounds}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &format!(
                "Checkpoint capture, {state_bytes} B of service state, {CHUNK_BYTES} B chunks \
                 (median of {rounds} rounds, ms)"
            ),
            &[
                "interval",
                "blocks re-hashed",
                "snapshot() refresh",
                "image",
                "capture",
                "app in place"
            ],
            &rows,
        )
    );

    let digest_ms = median(
        (0..rounds)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(svc.state_digest());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );
    println!(
        "state_digest() of the same state: {} ms (not on the checkpoint path)",
        f2(digest_ms)
    );
}
