//! What a checkpoint costs, and that the cheaper way of paying it agrees
//! with the expensive one:
//!
//! * the service's `state_digest` tells two states apart exactly when their
//!   snapshots differ (it used to omit fields the snapshot serializes);
//! * a snapshot image built with the previous image as memo equals one built
//!   from scratch, over random operation sequences and chunk sizes, for a
//!   veteran and for a replica restored from the previous checkpoint;
//! * the coordination service's kept snapshot encoding equals a
//!   from-scratch encoding after every kind of operation, a clone, a
//!   restore and a reset;
//! * an image keeps its bytes while the service refreshes the encoding it
//!   shares, and with a replica's retention the refresh writes in place;
//! * the number of blocks re-hashed is bounded by what changed — asserted as
//!   a count, which repeats exactly, not as a time;
//! * a running replica never calls `state_digest` to checkpoint.

use bytes::Bytes;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xft::core::client::ClientWorkload;
use xft::core::durable::{
    snapshot_commitment, ClientRecordSnapshot, ReplicaSnapshot, SnapshotImage,
};
use xft::core::harness::{ClusterBuilder, LatencySpec};
use xft::core::state_machine::StateMachine;
use xft::core::types::{ClientId, SeqNum};
use xft::crypto::{merkle_path, merkle_root, merkle_verify, Digest};
use xft::kvstore::{CoordinationService, KvOp, KvResult};
use xft::simnet::SimDuration;
use xft::testing::{check, CaseRng};

/// Values of the same-size puts.
const VALUE_BYTES: usize = 96;

/// One random operation over a small namespace (eight keys, one directory
/// of sequential children, two sessions), so sequences collide often:
/// same-size and resizing puts, plain, ephemeral and sequential creates,
/// deletes, session expiry and reads.
fn random_op(rng: &mut CaseRng, svc: &CoordinationService) -> KvOp {
    let key = format!("/k{}", rng.u64_below(8));
    match rng.u64_below(9) {
        0..=2 => KvOp::Put {
            path: key,
            data: Bytes::from(vec![rng.byte(); VALUE_BYTES]),
        },
        3 => KvOp::Put {
            path: key,
            data: Bytes::from(rng.bytes(0, 2 * VALUE_BYTES)),
        },
        4 => KvOp::Create {
            path: key,
            data: Bytes::from(vec![rng.byte(); VALUE_BYTES]),
            ephemeral_owner: rng.bool().then(|| 1 + rng.u64_below(2)),
            sequential: false,
        },
        5 => KvOp::Create {
            path: "/d/s-".into(),
            data: Bytes::from(rng.bytes(0, 16)),
            ephemeral_owner: rng.bool().then(|| 1 + rng.u64_below(2)),
            sequential: true,
        },
        6 => {
            let children: Vec<String> = svc.tree().children("/d").map(String::from).collect();
            let path = if children.is_empty() || rng.bool() {
                key
            } else {
                children[rng.usize_in(0, children.len())].clone()
            };
            KvOp::Delete { path }
        }
        7 => KvOp::ExpireSession {
            session: 1 + rng.u64_below(2),
        },
        _ => KvOp::GetData { path: key },
    }
}

fn service_with_dir() -> CoordinationService {
    let mut svc = CoordinationService::new();
    svc.apply_op(&KvOp::Create {
        path: "/d".into(),
        data: Bytes::new(),
        ephemeral_owner: None,
        sequential: false,
    });
    svc
}

fn run(ops: &[KvOp]) -> CoordinationService {
    let mut svc = service_with_dir();
    for op in ops {
        svc.apply_op(op);
    }
    svc
}

/// Satellite: `state_digest` covers the state. Two services share a digest
/// exactly when they share a snapshot — checked on directed pairs that
/// differ in one field only, and on random sequences against a variant with
/// one operation replaced (often overwritten later, so both outcomes occur).
#[test]
fn state_digest_equality_coincides_with_snapshot_equality() {
    let agree = |a: &CoordinationService, b: &CoordinationService| -> Result<bool, String> {
        let same_bytes = a.snapshot() == b.snapshot();
        if same_bytes != (a.state_digest() == b.state_digest()) {
            return Err(format!(
                "snapshots {} but digests {}",
                if same_bytes { "equal" } else { "differ" },
                if same_bytes { "differ" } else { "equal" },
            ));
        }
        Ok(same_bytes)
    };

    let create = |path: &str, sequential: bool| KvOp::Create {
        path: path.into(),
        data: Bytes::new(),
        ephemeral_owner: None,
        sequential,
    };
    let delete = |path: &str| KvOp::Delete { path: path.into() };
    // Same tree contents, same op count; they differ in the parent's
    // sequential counter, in a creation zxid, in zxid alone, in `applied`.
    let directed: [(Vec<KvOp>, Vec<KvOp>); 4] = [
        (
            vec![create("/d/s-", true), delete("/d/s-0000000000")],
            vec![create("/d/x", false), delete("/d/x")],
        ),
        (
            vec![create("/k0", false), create("/k1", false)],
            vec![create("/k1", false), create("/k0", false)],
        ),
        (
            vec![create("/k0", false), delete("/k0"), delete("/k0")],
            vec![delete("/k0"), delete("/k0"), delete("/k0")],
        ),
        (vec![KvOp::GetData { path: "/k0".into() }], vec![]),
    ];
    for (a, b) in &directed {
        let (a, b) = (run(a), run(b));
        assert_ne!(a.snapshot(), b.snapshot(), "fixture must differ");
        assert!(!agree(&a, &b).unwrap());
    }

    let (equal, unequal) = (Cell::new(0u32), Cell::new(0u32));
    check("state_digest_vs_snapshot", 300, |rng| {
        let mut a = service_with_dir();
        let mut ops = Vec::new();
        for _ in 0..rng.usize_in(4, 40) {
            let op = random_op(rng, &a);
            a.apply_op(&op);
            ops.push(op);
        }
        let at = rng.usize_in(0, ops.len());
        ops[at] = random_op(rng, &run(&ops[..at]));
        let b = run(&ops);
        let counter = if agree(&a, &b)? { &equal } else { &unequal };
        counter.set(counter.get() + 1);
        // A restored copy is the same state and continues identically.
        let mut restored = CoordinationService::new();
        if !restored.restore(&a.snapshot()) || !agree(&a, &restored)? {
            return Err("restore changed the state".into());
        }
        let next = random_op(rng, &a);
        if a.apply_op(&next) != restored.apply_op(&next) || !agree(&a, &restored)? {
            return Err(format!("restored copy diverged on {next:?}"));
        }
        Ok(())
    });
    assert!(
        equal.get() > 0 && unequal.get() > 0,
        "the generator must produce both outcomes (equal {}, unequal {})",
        equal.get(),
        unequal.get()
    );
}

/// The from-scratch encoding a service snapshot must equal: `applied`, then
/// the tree as `ZNodeTree::to_bytes` encodes it.
fn reference_encoding(svc: &CoordinationService) -> Vec<u8> {
    let mut out = svc.applied().to_le_bytes().to_vec();
    out.extend(svc.tree().to_bytes());
    out
}

fn snapshot_is_current(svc: &CoordinationService, after: &str) -> Result<(), String> {
    if svc.snapshot() == reference_encoding(svc) {
        Ok(())
    } else {
        Err(format!("the kept snapshot encoding is stale after {after}"))
    }
}

/// Satellite: the service's kept snapshot encoding always equals the
/// from-scratch encoding. A random history is applied to two copies: one
/// snapshots after every operation, the other only now and then, so several
/// changes pile up between refreshes. Along the way a clone is taken (and
/// both copies go on), a service holding a stale encoding restores a
/// snapshot, the service is reset, and a returned snapshot is held across
/// the next refresh, which must copy rather than write under it.
#[test]
fn kept_snapshot_encoding_equals_the_reference_encoding() {
    // A sequential create that fails with NodeExists has bumped its
    // parent's counter: no node count or data length moves with it.
    let mut svc = service_with_dir();
    svc.apply_op(&KvOp::Create {
        path: "/d/s-0000000000".into(),
        data: Bytes::new(),
        ephemeral_owner: None,
        sequential: false,
    });
    snapshot_is_current(&svc, "a plain create").unwrap();
    let failed = svc.apply_op(&KvOp::Create {
        path: "/d/s-".into(),
        data: Bytes::new(),
        ephemeral_owner: None,
        sequential: true,
    });
    assert_eq!(failed, KvResult::Err("NodeExists"));
    snapshot_is_current(&svc, "a failed sequential create").unwrap();

    check("kept_snapshot_vs_reference", 200, |rng| {
        let mut every = service_with_dir();
        let mut sparse = service_with_dir();
        // A service with an encoding of its own, for `restore` to replace.
        let mut other = service_with_dir();
        other.apply_op(&random_op(rng, &other));
        let mut held: Option<(Bytes, Vec<u8>)> = None;
        for _ in 0..rng.usize_in(8, 80) {
            let op = random_op(rng, &every);
            every.apply_op(&op);
            sparse.apply_op(&op);
            snapshot_is_current(&every, &format!("{op:?}"))?;
            if rng.u64_below(4) == 0 {
                snapshot_is_current(&sparse, &format!("a run ending in {op:?}"))?;
            }
            match rng.u64_below(12) {
                0 => {
                    // Both copies go on from here; their writes stay apart.
                    let copy = every.clone();
                    snapshot_is_current(&copy, "clone")?;
                    sparse = std::mem::replace(&mut every, copy);
                    snapshot_is_current(&sparse, "clone (original)")?;
                }
                1 => {
                    snapshot_is_current(&other, "before restore")?;
                    if !other.restore(&sparse.snapshot()) {
                        return Err("snapshot does not restore".into());
                    }
                    snapshot_is_current(&other, "restore")?;
                    other.apply_op(&op);
                    snapshot_is_current(&other, &format!("restore, then {op:?}"))?;
                }
                2 => {
                    sparse.reset();
                    snapshot_is_current(&sparse, "reset")?;
                }
                3 => {
                    let snap = every.snapshot();
                    let bytes = snap.to_vec();
                    held = Some((snap, bytes));
                }
                _ => {}
            }
            if let Some((snap, bytes)) = &held {
                if snap[..] != bytes[..] {
                    return Err("a refresh wrote under a snapshot still held".into());
                }
            }
        }
        snapshot_is_current(&sparse, "the last operation")
    });
}

/// Satellite: a held image never changes. The service refreshes the
/// encoding it returned two calls back, and an image shares the bytes it
/// was handed. While every image is held, each refresh must copy: the held
/// images keep the bytes and commitment of a from-scratch capture of their
/// own state. With a replica's retention — the previous image held, the
/// one before it dropped — the refresh writes in place: the service hands
/// back the very buffer of two calls back, and counts the refresh.
#[test]
fn a_held_image_never_changes() {
    const CHUNK: u32 = 4_096;
    const INTERVAL: u64 = 16;
    let mut svc = service_with_dir();
    let put = |svc: &mut CoordinationService, key: u64, fill: u8| {
        svc.apply_op(&KvOp::Put {
            path: format!("/k{key:02}"),
            data: Bytes::from(vec![fill; VALUE_BYTES]),
        });
    };
    for key in 0..64 {
        put(&mut svc, key, 0);
    }
    // The image of `svc` at `round`, where its application bytes live, and
    // the image of the from-scratch encoding of the same state.
    let capture = |svc: &CoordinationService, round: u64, memo: Option<&SnapshotImage>| {
        let sn = round * INTERVAL;
        let snapshot = snapshot_at(svc, sn, INTERVAL);
        let at = snapshot.app.as_ptr();
        let (image, _) = SnapshotImage::capture(&snapshot, CHUNK, memo);
        let mut scratch = snapshot;
        scratch.app = reference_encoding(svc).into();
        (image, at, SnapshotImage::capture(&scratch, CHUNK, None).0)
    };

    let mut held: Vec<(SnapshotImage, SnapshotImage)> = Vec::new();
    let mut ats = Vec::new();
    for round in 1..=5u64 {
        for key in (round..64).step_by(3) {
            put(&mut svc, key, round as u8);
        }
        let (image, at, scratch) = capture(&svc, round, held.last().map(|(image, _)| image));
        ats.push(at);
        held.push((image, scratch));
        for (i, (image, scratch)) in held.iter().enumerate() {
            assert_eq!(image.bytes(), scratch.bytes(), "round {round}: image {i}");
            assert_eq!(
                image.commitment(),
                scratch.commitment(),
                "round {round}: image {i}"
            );
        }
    }
    // Every buffer was still held, so none was written twice.
    for (round, pair) in ats.windows(3).enumerate() {
        assert_ne!(
            pair[2],
            pair[0],
            "round {}: written under a held image",
            round + 3
        );
    }
    assert_eq!(svc.snapshots_refreshed_in_place(), 0);

    let mut previous = held.pop().map(|(image, _)| image);
    drop(held);
    let mut ats = ats[ats.len() - 2..].to_vec();
    for round in 6..=10u64 {
        for key in (round..64).step_by(5) {
            put(&mut svc, key, round as u8);
        }
        let (image, at, scratch) = capture(&svc, round, previous.as_ref());
        assert_eq!(image, scratch, "round {round}");
        assert_eq!(
            at,
            ats[ats.len() - 2],
            "round {round}: not refreshed in place"
        );
        assert_eq!(svc.snapshots_refreshed_in_place(), round - 5);
        ats.push(at);
        previous = Some(image);
    }
}

/// The replica snapshot a checkpoint at `sn` would capture around `svc`:
/// the window of executed history and the client table move with `sn`, as
/// they do in a running replica.
fn snapshot_at(svc: &dyn StateMachine, sn: u64, interval: u64) -> ReplicaSnapshot {
    let base = sn.saturating_sub(interval);
    ReplicaSnapshot {
        sn: SeqNum(sn),
        base: SeqNum(base),
        app: svc.snapshot(),
        executed: (base + 1..=sn)
            .map(|s| (SeqNum(s), Digest::of(&s.to_le_bytes())))
            .collect(),
        clients: (0..4u64)
            .map(|c| ClientRecordSnapshot {
                client: ClientId(c),
                ranges: vec![(1, sn + c)],
                replies: vec![(sn + c, SeqNum(sn), Digest::of(&(sn ^ c).to_le_bytes()))],
            })
            .collect(),
    }
}

/// Satellite: memoized equals from-scratch. At every checkpoint of a random
/// operation sequence the image built with the previous image as memo has
/// the leaves, root and commitment of one built with no memo from a freshly
/// decoded copy; a replica restored from the previous checkpoint (whose memo
/// is the adopted image) and the veteran agree at the next one; and every
/// chunk still verifies against the commitment by its audit path.
#[test]
fn memoized_image_equals_from_scratch_image_over_random_histories() {
    check("memoized_vs_scratch", 24, |rng| {
        let chunk = [512u32, 1_000, 4_096, 65_536][rng.usize_in(0, 4)];
        let interval = rng.u64_in(4, 24);
        let mut veteran = service_with_dir();
        // Joins at each checkpoint by restoring the veteran's image.
        let mut joiner = service_with_dir();
        let mut veteran_memo: Option<SnapshotImage> = None;
        let mut joiner_memo: Option<SnapshotImage> = None;
        for checkpoint in 1..=6u64 {
            for _ in 0..interval {
                let op = random_op(rng, &veteran);
                if veteran.apply_op(&op) != joiner.apply_op(&op) {
                    return Err(format!("restored copy diverged on {op:?}"));
                }
            }
            let sn = checkpoint * interval;
            let (image, stats) = SnapshotImage::capture(
                &snapshot_at(&veteran, sn, interval),
                chunk,
                veteran_memo.as_ref(),
            );
            if stats.blocks_rehashed > stats.blocks_total {
                return Err(format!("{stats:?}"));
            }

            // From scratch, from a freshly decoded copy.
            let decoded = image.decode().ok_or("image does not decode")?;
            let mut fresh = CoordinationService::new();
            if !fresh.restore(&decoded.app) {
                return Err("app blob does not restore".into());
            }
            let (scratch, full) =
                SnapshotImage::capture(&snapshot_at(&fresh, sn, interval), chunk, None);
            if full.blocks_rehashed != full.blocks_total {
                return Err(format!("no memo, yet {full:?}"));
            }
            if image != scratch {
                return Err(format!(
                    "memoized image differs from scratch at sn {sn} (chunk {chunk})"
                ));
            }

            // The replica that adopted the previous image agrees.
            let (joined, _) = SnapshotImage::capture(
                &snapshot_at(&joiner, sn, interval),
                chunk,
                joiner_memo.as_ref(),
            );
            if joined.commitment() != image.commitment() {
                return Err(format!("restored replica disagrees at sn {sn}"));
            }

            // Every chunk verifies against the seal, as a receiver checks it.
            let leaves = image.leaves();
            let root = merkle_root(leaves);
            let len = image.bytes().len() as u64;
            if image.commitment() != snapshot_commitment(chunk, len, &root) {
                return Err("commitment is not over (chunk size, length, root)".into());
            }
            for index in 0..leaves.len() {
                let data = image.chunk(index as u32).ok_or("chunk out of range")?;
                let leaf = xft::core::durable::chunk_leaf(index as u32, &data);
                let path = merkle_path(leaves, index).ok_or("no audit path")?;
                if !merkle_verify(&leaf, index, leaves.len(), &path, &root) {
                    return Err(format!("chunk {index} does not verify at sn {sn}"));
                }
            }

            // Next round: the joiner restarts from this image.
            joiner = CoordinationService::new();
            if !joiner.restore(&decoded.app) {
                return Err("app blob does not restore".into());
            }
            joiner_memo = Some(scratch);
            veteran_memo = Some(image);
        }
        Ok(())
    });
}

/// Satellite: the work is bounded by what changed, as a count. 4 096 keys of
/// 1 kB (the benchmark's steady state, 4.35 MB): 128 same-size overwrites
/// re-hash a few hundred of ~4 400 blocks, overwriting every key re-hashes
/// all of them, and a resizing put on the first key shifts the layout and
/// degrades to (nearly) a full hash — with the right commitment every time.
#[test]
fn rehashing_is_bounded_by_what_changed() {
    const KEYS: u64 = 4_096;
    const CHUNK: u32 = 64 * 1024;
    let put = |svc: &mut CoordinationService, key: u64, fill: u8, len: usize| {
        svc.apply_op(&KvOp::Put {
            path: format!("/bench/k{key:05}"),
            data: Bytes::from(vec![fill; len]),
        });
    };
    let mut svc = CoordinationService::new();
    svc.apply_op(&KvOp::Create {
        path: "/bench".into(),
        data: Bytes::new(),
        ephemeral_owner: None,
        sequential: false,
    });
    for key in 0..KEYS {
        put(&mut svc, key, 1, 1024);
    }
    let capture = |svc: &CoordinationService, sn: u64, memo: Option<&SnapshotImage>| {
        let snapshot = snapshot_at(svc, sn, 128);
        let (image, stats) = SnapshotImage::capture(&snapshot, CHUNK, memo);
        let (scratch, _) = SnapshotImage::capture(&snapshot, CHUNK, None);
        assert_eq!(image.commitment(), scratch.commitment(), "sn {sn}");
        (image, stats)
    };

    let (first, stats) = capture(&svc, 128, None);
    assert_eq!(stats.blocks_rehashed, stats.blocks_total);
    assert!(stats.blocks_total > KEYS, "{stats:?}");

    // 128 same-size overwrites, spread over the keyspace: a node is ~1 070
    // bytes, so each touches at most three 1 KiB blocks; the header and the
    // executed window and client table behind the tree are the allowance.
    for i in 0..128 {
        put(&mut svc, (i * 31) % KEYS, 2, 1024);
    }
    let (second, stats) = capture(&svc, 256, Some(&first));
    assert_eq!(
        stats.blocks_total,
        first.bytes().len().div_ceil(1024) as u64
    );
    assert!(
        stats.blocks_rehashed <= 3 * 128 + 64,
        "128 dirty keys re-hashed {stats:?}"
    );
    assert!(stats.blocks_rehashed >= 128, "{stats:?}");

    // Nothing changed but the sequence number and what moves with it.
    let (_, stats) = capture(&svc, 384, Some(&second));
    assert!(
        stats.blocks_rehashed <= 64,
        "idle interval re-hashed {stats:?}"
    );

    // Every key dirty: every block holds changed bytes.
    for key in 0..KEYS {
        put(&mut svc, key, 3, 1024);
    }
    let (third, stats) = capture(&svc, 384, Some(&second));
    assert_eq!(stats.blocks_rehashed, stats.blocks_total);

    // One resizing put on the first key shifts everything behind it.
    put(&mut svc, 0, 4, 1000);
    let (_, stats) = capture(&svc, 512, Some(&third));
    assert!(
        stats.blocks_rehashed * 10 > stats.blocks_total * 9,
        "a layout shift is expected to cost a full hash, got {stats:?}"
    );
}

/// Forwards to a [`CoordinationService`] and counts `state_digest` calls.
struct CountingService {
    inner: CoordinationService,
    digests: Arc<AtomicU64>,
    snapshots: Arc<AtomicU64>,
}

impl StateMachine for CountingService {
    fn apply(&mut self, op: &[u8]) -> Bytes {
        self.inner.apply(op)
    }
    fn state_digest(&self) -> Digest {
        self.digests.fetch_add(1, Ordering::Relaxed);
        self.inner.state_digest()
    }
    fn execution_cost_ns(&self, op: &[u8]) -> u64 {
        self.inner.execution_cost_ns(op)
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn snapshot(&self) -> Bytes {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.inner.snapshot()
    }
    fn restore(&mut self, snapshot: &[u8]) -> bool {
        self.inner.restore(snapshot)
    }
}

/// Satellite: a running cluster checkpoints without `state_digest`, and
/// takes one service snapshot per capture.
#[test]
fn checkpoints_do_not_call_state_digest() {
    let digests = Arc::new(AtomicU64::new(0));
    let snapshots = Arc::new(AtomicU64::new(0));
    let (d, s) = (Arc::clone(&digests), Arc::clone(&snapshots));
    let mut cluster = ClusterBuilder::new(1, 2)
        .with_seed(7)
        .with_latency(LatencySpec::Constant(SimDuration::from_millis(2)))
        .with_workload(ClientWorkload {
            payload_size: 64,
            requests: Some(200),
            ..Default::default()
        })
        .with_state_machine(move || {
            Box::new(CountingService {
                inner: CoordinationService::new(),
                digests: Arc::clone(&d),
                snapshots: Arc::clone(&s),
            })
        })
        .with_config(|c| c.with_checkpoint_interval(16))
        .build();
    cluster.run_for(SimDuration::from_secs(30));
    let sealed = cluster.sim.metrics().counter("checkpoints");
    assert!(sealed >= 20, "only {sealed} checkpoints sealed");
    assert_eq!(cluster.total_committed(), 400);
    assert_eq!(
        digests.load(Ordering::Relaxed),
        0,
        "the checkpoint path called state_digest"
    );
    // One capture per replica per boundary (the passive replica captures at
    // LAZYCHK when it stands exactly at the boundary), never more.
    let boundaries = cluster.max_executed().0 / 16;
    let taken = snapshots.load(Ordering::Relaxed);
    assert!(
        taken >= sealed && taken <= 3 * boundaries,
        "{taken} service snapshots for {boundaries} boundaries ({sealed} seals)"
    );
}
