//! Integration tests: XPaxos under crash faults, partitions and Byzantine behaviour.
//!
//! These scenarios exercise the view-change path end to end (paper §4.3 / §5.4): the
//! cluster must remain available (clients keep committing) after crashes of active
//! replicas and must preserve total order throughout.

use xft_core::client::ClientWorkload;
use xft_core::harness::{check_total_order, ClusterBuilder, LatencySpec};
use xft_core::ByzantineBehavior;
use xft_simnet::{FaultEvent, SimDuration, SimTime};

fn workload(requests: Option<u64>) -> ClientWorkload {
    ClientWorkload {
        payload_size: 256,
        requests,
        think_time: SimDuration::ZERO,
        op_bytes: None,
        ..Default::default()
    }
}

/// A short Δ so view changes complete quickly in tests.
fn fast_config(builder: xft_core::harness::ClusterBuilder) -> xft_core::harness::ClusterBuilder {
    builder.with_config(|c| {
        c.with_delta(SimDuration::from_millis(100))
            .with_client_retransmit(SimDuration::from_millis(500))
            .with_checkpoint_interval(0)
    })
}

#[test]
fn follower_crash_triggers_view_change_and_progress_resumes() {
    let mut cluster = fast_config(
        ClusterBuilder::new(1, 3)
            .with_seed(42)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
            .with_workload(workload(None)),
    )
    .build();

    // Let the cluster commit for 5 s, then crash the follower of view 0 (replica 1).
    cluster.run_for(SimDuration::from_secs(5));
    let before = cluster.total_committed();
    assert!(before > 0, "no progress before the fault");

    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(5),
        FaultEvent::Crash(1),
    );
    cluster.run_for(SimDuration::from_secs(20));

    let after = cluster.total_committed();
    assert!(
        after > before + 10,
        "no progress after follower crash: {before} -> {after}"
    );
    // A view change must have happened, and the new view must not include replica 1 as
    // an active replica (group {0,2} is view 1).
    let views: Vec<u64> = (0..3).map(|r| cluster.replica(r).view().0).collect();
    assert!(
        views.iter().any(|v| *v >= 1),
        "no replica advanced past view 0: {views:?}"
    );
    cluster.check_total_order().expect("total order preserved");
}

#[test]
fn primary_crash_triggers_view_change_and_progress_resumes() {
    let mut cluster = fast_config(
        ClusterBuilder::new(1, 3)
            .with_seed(43)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
            .with_workload(workload(None)),
    )
    .build();

    cluster.run_for(SimDuration::from_secs(5));
    let before = cluster.total_committed();
    assert!(before > 0);

    // Crash the primary of view 0 (replica 0).
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(5),
        FaultEvent::Crash(0),
    );
    cluster.run_for(SimDuration::from_secs(25));

    let after = cluster.total_committed();
    assert!(
        after > before + 10,
        "no progress after primary crash: {before} -> {after}"
    );
    // Views {0,1} both contain replica 0 as primary, so the system must reach at least
    // view 2 (group {1,2}).
    let max_view = (1..3).map(|r| cluster.replica(r).view().0).max().unwrap();
    assert!(max_view >= 2, "expected view >= 2, got {max_view}");
    cluster.check_total_order().expect("total order preserved");
}

#[test]
fn crashed_replica_recovers_and_catches_up() {
    let mut cluster = fast_config(
        ClusterBuilder::new(1, 2)
            .with_seed(44)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
            .with_workload(workload(None)),
    )
    .build();

    cluster.run_for(SimDuration::from_secs(3));
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(3),
        FaultEvent::Crash(1),
    );
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(10),
        FaultEvent::Recover(1),
    );
    cluster.run_for(SimDuration::from_secs(40));

    assert!(cluster.total_committed() > 50);
    cluster.check_total_order().expect("total order preserved");
    // The recovered replica eventually participates again: it must have executed a
    // non-trivial prefix (either through lazy replication or a later view change).
    assert!(cluster.replica(1).executed_upto().0 > 0);
}

#[test]
fn sequential_crashes_of_every_replica_like_figure_9() {
    // The Figure 9 scenario, shrunk: crash each replica in turn (recovering 5 s later)
    // and check the system keeps making progress between and after faults.
    let mut cluster = fast_config(
        ClusterBuilder::new(1, 4)
            .with_seed(45)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
            .with_workload(workload(None)),
    )
    .build();

    let crash_at = [10u64, 25, 40];
    for (i, at) in crash_at.iter().enumerate() {
        cluster.sim.inject_fault_at(
            SimTime::ZERO + SimDuration::from_secs(*at),
            FaultEvent::Crash((i + 1) % 3),
        );
        cluster.sim.inject_fault_at(
            SimTime::ZERO + SimDuration::from_secs(at + 5),
            FaultEvent::Recover((i + 1) % 3),
        );
    }
    cluster.run_for(SimDuration::from_secs(60));

    assert!(
        cluster.total_committed() > 100,
        "committed {}",
        cluster.total_committed()
    );
    cluster.check_total_order().expect("total order preserved");
}

#[test]
fn partitioned_follower_forces_view_change() {
    let mut cluster = fast_config(
        ClusterBuilder::new(1, 2)
            .with_seed(46)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
            .with_workload(workload(None)),
    )
    .build();

    cluster.run_for(SimDuration::from_secs(3));
    let before = cluster.total_committed();
    // Isolate the follower (network fault, not a machine fault).
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(3),
        FaultEvent::Isolate(1),
    );
    cluster.run_for(SimDuration::from_secs(20));
    let after = cluster.total_committed();
    assert!(
        after > before + 10,
        "no progress under partition: {before} -> {after}"
    );
    // The isolated follower may hold a speculatively executed suffix of the t = 1 fast
    // path that no client committed (it repairs when it rejoins); the paper's safety
    // property is checked across the replicas that remained connected.
    check_total_order(&[cluster.replica(0), cluster.replica(2)])
        .expect("total order preserved among connected replicas");
}

#[test]
fn mute_byzantine_follower_is_tolerated() {
    let mut cluster = fast_config(
        ClusterBuilder::new(1, 2)
            .with_seed(47)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
            .with_workload(workload(None)),
    )
    .build();

    cluster.run_for(SimDuration::from_secs(3));
    let before = cluster.total_committed();
    // A mute replica is a non-crash fault: the simulator still delivers to it, but it
    // stops participating. Outside anarchy XPaxos must remain live and consistent.
    cluster.replica_mut(1).set_behavior(ByzantineBehavior::Mute);
    cluster.run_for(SimDuration::from_secs(20));
    let after = cluster.total_committed();
    assert!(after > before + 10, "no progress with mute follower");
    cluster.check_total_order().expect("total order preserved");
}

/// Injects `code` on `target` via the fault-script control path at 3 s (the
/// same path the chaos explorer uses), optionally crashes `crash` at 4 s and
/// recovers it at 9 s to force a view change that the Byzantine behaviour
/// must survive, then asserts progress and total order among the replicas
/// that stayed correct.
fn drive_behavior_through_view_change(
    seed: u64,
    code: u64,
    target: usize,
    crash: Option<usize>,
    fault_detection: bool,
) -> xft_core::harness::XPaxosCluster {
    let mut builder = fast_config(
        ClusterBuilder::new(1, 3)
            .with_seed(seed)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
            .with_workload(workload(None)),
    );
    if fault_detection {
        builder = builder.with_config(|c| c.with_fault_detection(true));
    }
    let mut cluster = builder.build();

    cluster.run_for(SimDuration::from_secs(3));
    let before = cluster.total_committed();
    assert!(before > 0, "no fault-free progress");
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(3),
        FaultEvent::Control(target, code),
    );
    if let Some(crash) = crash {
        cluster.sim.inject_fault_at(
            SimTime::ZERO + SimDuration::from_secs(4),
            FaultEvent::Crash(crash),
        );
        cluster.sim.inject_fault_at(
            SimTime::ZERO + SimDuration::from_secs(9),
            FaultEvent::Recover(crash),
        );
    }
    cluster.run_for(SimDuration::from_secs(30));

    let after = cluster.total_committed();
    assert!(
        after > before + 10,
        "no progress with behaviour {code} on replica {target}: {before} -> {after}"
    );
    // The fault forced the system past view 0.
    let max_view = (0..3)
        .filter(|r| Some(*r) != crash)
        .map(|r| cluster.replica(r).view().0)
        .max()
        .unwrap();
    assert!(max_view >= 1, "no view change happened (views stuck at 0)");
    // Total order among the replicas that stayed non-Byzantine.
    let correct: Vec<_> = (0..3)
        .filter(|r| *r != target)
        .map(|r| cluster.replica(r))
        .collect();
    check_total_order(&correct).expect("total order among correct replicas");
    cluster
}

#[test]
fn mute_primary_is_replaced_through_a_full_view_change() {
    // Control code 1 = Mute on the view-0 primary: a "silent" non-crash
    // fault; monitors on the follower escalate and the view moves on.
    drive_behavior_through_view_change(61, 1, 0, None, false);
}

#[test]
fn corrupt_signatures_primary_is_replaced_through_a_full_view_change() {
    // Control code 4 = CorruptSignatures on the view-0 primary: followers
    // reject its proposals (initiation condition (i) of §4.3.2) and rotate to
    // a group it does not lead.
    let cluster = drive_behavior_through_view_change(62, 4, 0, None, false);
    let max_view = (1..3).map(|r| cluster.replica(r).view().0).max().unwrap();
    assert!(
        max_view >= 2,
        "views 0 and 1 are both led by replica 0; expected view >= 2, got {max_view}"
    );
}

#[test]
fn data_loss_commit_log_follower_survives_a_view_change() {
    // Control code 2 = DataLossCommitLog on the view-0 follower, then a
    // primary crash forces the view change in which the truncated commit log
    // is transferred. Within budget the correct replicas' logs cover the
    // committed prefix, so progress and total order survive.
    drive_behavior_through_view_change(63, 2, 1, Some(0), false);
}

#[test]
fn data_loss_both_logs_follower_survives_a_view_change_with_fd() {
    // Control code 3 = DataLossBothLogs — the dangerous fault of §4.4 — with
    // fault detection enabled, so prepare logs are transferred and the
    // VC-CONFIRM round runs during the forced view change.
    drive_behavior_through_view_change(64, 3, 1, Some(0), true);
}

#[test]
fn amnesia_follower_rejoins_after_storage_loss() {
    // Control code 5 = amnesia: the follower loses logs, application state
    // and its view estimate. The validly signed higher-view traffic it then
    // sees pulls it back into a view change, and the cluster keeps
    // committing throughout.
    drive_behavior_through_view_change(65, 5, 1, None, false);
}

#[test]
fn amnesia_on_checkpointed_configuration_recovers_via_state_transfer() {
    // With checkpointing enabled peers garbage-collect log prefixes, so a
    // blank replica cannot rebuild by replay alone: it must fetch the sealed
    // checkpoint snapshot through the state-transfer protocol, verify it
    // against the t + 1-signed CHKPT proof, and only then resume. The seed
    // refused the fault here; now it must be survivable.
    let mut cluster = ClusterBuilder::new(1, 2)
        .with_seed(66)
        .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
        .with_workload(workload(None))
        .with_config(|c| {
            c.with_delta(SimDuration::from_millis(100))
                .with_client_retransmit(SimDuration::from_millis(500))
                .with_checkpoint_interval(16)
        })
        .build();
    cluster.run_for(SimDuration::from_secs(5));
    let before = cluster.total_committed();
    assert!(
        cluster.sim.metrics().counter("checkpoints") > 0,
        "no checkpoint to transfer"
    );
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(5),
        FaultEvent::Control(1, 5),
    );
    cluster.run_for(SimDuration::from_secs(25));
    let after = cluster.total_committed();
    assert!(
        after > before + 10,
        "no progress after amnesia: {before} -> {after}"
    );
    assert!(
        cluster.sim.metrics().counter("state_transfers_adopted") > 0,
        "the amnesic replica must have adopted a verified snapshot"
    );
    // The amnesic replica caught back up past the checkpointed prefix…
    assert!(cluster.replica(1).executed_upto().0 > 16);
    // …and executed histories agree wherever they overlap.
    cluster.check_total_order().expect("total order preserved");
}

/// A workload that grows the replicated kvstore monotonically: every request
/// creates a fresh top-level znode with a 160-byte value, so the checkpoint
/// snapshot keeps growing and any state transfer of it spans many chunks.
fn growing_kv_workload(client: u64) -> ClientWorkload {
    use std::sync::Arc;
    ClientWorkload {
        payload_size: 16,
        requests: None,
        think_time: SimDuration::from_millis(5),
        op_bytes: None,
        op_factory: Some(Arc::new(move |ts| {
            xft::kvstore::KvOp::Put {
                path: format!("/g-c{client}-t{ts}"),
                data: bytes::Bytes::from(vec![0xAB; 160]),
            }
            .encode()
        })),
        record_history: false,
    }
}

/// A cluster whose snapshots are large relative to `chunk_bytes`, so state
/// transfer is genuinely chunked. Storage is attached: transfer chunks are
/// journaled, and disk faults have a real WAL to damage.
fn chunked_cluster(seed: u64, chunk_bytes: u32, window: u32) -> xft_core::harness::XPaxosCluster {
    chunked_cluster_on(seed, chunk_bytes, window, |_| {
        Box::new(xft::store::MemStorage::new())
    })
}

/// [`chunked_cluster`] over the given storage backends.
fn chunked_cluster_on(
    seed: u64,
    chunk_bytes: u32,
    window: u32,
    storage: impl Fn(usize) -> Box<dyn xft::store::Storage> + 'static,
) -> xft_core::harness::XPaxosCluster {
    ClusterBuilder::new(1, 2)
        .with_seed(seed)
        .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
        .with_workload_factory(|c| growing_kv_workload(c as u64))
        .with_state_machine(|| Box::new(xft::kvstore::CoordinationService::new()))
        .with_storage_factory(storage)
        .with_config(move |mut c| {
            // A short retry period so a transfer whose peer died rotates to
            // the next source quickly.
            c.replica_retransmit = SimDuration::from_millis(500);
            c.with_delta(SimDuration::from_millis(100))
                .with_client_retransmit(SimDuration::from_millis(500))
                .with_checkpoint_interval(32)
                .with_state_chunk_bytes(chunk_bytes)
                .with_state_fetch_window(window)
        })
        .build()
}

#[test]
fn multi_chunk_state_transfer_rejoins_amnesic_replica() {
    // Grow the kvstore well past one chunk, wipe the passive replica, and
    // check it rejoins through the chunk-pull protocol: many individually
    // verified frames, then one adopted snapshot, then convergence.
    let mut cluster = chunked_cluster(81, 2048, 4);
    cluster.run_for(SimDuration::from_secs(6));
    assert!(
        cluster.sim.metrics().counter("checkpoints") > 0,
        "no checkpoint sealed"
    );
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(6),
        FaultEvent::Control(2, xft_core::byzantine::CONTROL_AMNESIA),
    );
    cluster.run_for(SimDuration::from_secs(24));

    let metrics = cluster.sim.metrics();
    assert!(
        metrics.counter("state_transfers_adopted") > 0,
        "the amnesic replica must adopt a verified snapshot"
    );
    assert!(
        metrics.counter("state_chunks_verified") >= 10,
        "expected a genuinely chunked transfer, verified only {} chunks",
        metrics.counter("state_chunks_verified")
    );
    assert_eq!(
        metrics.counter("state_chunks_rejected"),
        0,
        "correct peers' chunks must all verify"
    );
    assert!(cluster.replica(2).executed_upto().0 > 32);
    cluster.check_total_order().expect("total order preserved");
}

#[test]
fn disk_fault_mid_transfer_resumes_from_journaled_chunks() {
    // Amnesia starts a long multi-chunk transfer (tiny chunks, narrow
    // window); a torn-WAL-tail disk fault lands while it is in flight. The
    // replica must rebuild the partial transfer from its journaled chunks at
    // recovery and finish the download instead of starting over — and the
    // cluster must converge.
    let mut cluster = chunked_cluster(82, 512, 2);
    cluster.run_for(SimDuration::from_secs(6));
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(6),
        FaultEvent::Control(2, xft_core::byzantine::CONTROL_AMNESIA),
    );
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_millis(6500),
        FaultEvent::Control(2, xft_core::byzantine::CONTROL_TORN_TAIL),
    );
    cluster.run_for(SimDuration::from_secs(34));

    let metrics = cluster.sim.metrics();
    assert!(
        metrics.counter("state_transfer_resumes") > 0,
        "recovery must rebuild the in-flight transfer from WAL chunk records"
    );
    assert!(metrics.counter("state_transfers_adopted") > 0);
    assert!(cluster.replica(2).executed_upto().0 > 32);
    cluster.check_total_order().expect("total order preserved");
}

/// A `MemStorage` shared with the test, which can make it hand recovery a
/// snapshot file with one byte of the application region flipped: damage
/// the storage layer's own checksum does not see (it was computed over the
/// bad byte, or the medium has none).
#[derive(Clone, Default)]
struct CorruptibleStorage {
    inner: std::sync::Arc<std::sync::Mutex<xft::store::MemStorage>>,
    corrupt: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl CorruptibleStorage {
    fn inner(&self) -> std::sync::MutexGuard<'_, xft::store::MemStorage> {
        self.inner.lock().expect("storage mutex poisoned")
    }
}

impl xft::store::Storage for CorruptibleStorage {
    fn append(&mut self, record: &[u8]) {
        self.inner().append(record)
    }
    fn sync(&mut self) {
        self.inner().sync()
    }
    fn install_snapshot(&mut self, snapshot: &[u8], records: &[Vec<u8>]) {
        self.inner().install_snapshot(snapshot, records)
    }
    fn load(&mut self) -> xft::store::Recovered {
        let mut recovered = self.inner().load();
        if self.corrupt.load(std::sync::atomic::Ordering::Relaxed) {
            // The file is sn, length prefix, then the snapshot's encoding,
            // which is sn, base, length prefix, application bytes: offset
            // 132 is the hundredth application byte.
            let file = recovered.snapshot.as_mut().expect("a snapshot file");
            file[132] ^= 0x01;
        }
        recovered
    }
    fn wipe(&mut self) {
        self.inner().wipe()
    }
    fn inject(&mut self, fault: xft::store::DiskFault) {
        self.inner().inject(fault)
    }
    fn stats(&self) -> xft::store::StorageStats {
        self.inner().stats()
    }
}

#[test]
fn corrupt_snapshot_file_is_rejected_loudly_and_repaired_by_state_transfer() {
    // The passive replica seals checkpoints into its snapshot file; one byte
    // of that file then goes bad and the replica restarts from disk. It
    // must not adopt the file, must say so (report flag, counter) rather
    // than come up silently blank, and must catch up by state transfer.
    let storage = CorruptibleStorage::default();
    let handle = storage.clone();
    let mut cluster = chunked_cluster_on(85, 2048, 4, move |r| {
        if r == 2 {
            Box::new(handle.clone())
        } else {
            Box::new(xft::store::MemStorage::new())
        }
    });
    cluster.run_for(SimDuration::from_secs(6));
    assert!(cluster.replica(2).last_checkpoint().0 > 0, "nothing sealed");
    assert_eq!(cluster.sim.metrics().counter("snapshots_rejected"), 0);

    storage
        .corrupt
        .store(true, std::sync::atomic::Ordering::Relaxed);
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(6),
        FaultEvent::Control(2, xft_core::byzantine::CONTROL_TORN_TAIL),
    );
    cluster.run_for(SimDuration::from_secs(24));

    let metrics = cluster.sim.metrics();
    assert_eq!(
        metrics.counter("snapshots_rejected"),
        1,
        "the restart must reject the damaged snapshot file, and count it"
    );
    assert!(
        metrics.counter("state_transfers_adopted") > 0,
        "without its snapshot the replica must catch up by state transfer"
    );
    assert_eq!(metrics.counter("state_chunks_rejected"), 0);
    assert!(cluster.replica(2).executed_upto().0 > 32);
    cluster.check_total_order().expect("total order preserved");

    // The same through the offline path `xpaxos-server` logs from: the
    // transfer installed a good file since, and it still reads back damaged.
    let recover = |storage: CorruptibleStorage| {
        xft_core::Replica::new(
            2,
            cluster.config.clone(),
            &cluster.registry,
            Box::new(xft::kvstore::CoordinationService::new()),
        )
        .with_storage(Box::new(storage))
        .recover_from_storage()
    };
    let report = recover(storage.clone());
    assert!(report.had_state);
    assert!(report.snapshot_rejected, "{report:?}");
    assert_eq!(report.snapshot_sn, None);
    // An intact file is adopted and nothing is flagged.
    storage
        .corrupt
        .store(false, std::sync::atomic::Ordering::Relaxed);
    let report = recover(storage);
    assert!(!report.snapshot_rejected, "{report:?}");
    assert!(report.snapshot_sn.is_some());
}

#[test]
fn repeated_amnesia_mid_transfer_leaves_no_stale_side_state() {
    // Regression test for the amnesia audit: `forget_state` must clear every
    // piece of transfer/checkpoint side state (pending transfer, chunk
    // progress, responder cache) *and* the timers that drive it. Unlike a
    // simulated crash, a control fault does not make the simulator discard
    // the node's timers — before the audit, a state-transfer retry timer
    // armed pre-amnesia would fire into the blanked replica and drive a
    // transfer the wiped WAL knew nothing about. A second amnesia landing
    // mid-transfer exercises exactly that: the half-finished transfer's
    // progress and timer are dropped, and the replica still re-fetches from
    // scratch and converges.
    let mut cluster = chunked_cluster(84, 1024, 2);
    cluster.run_for(SimDuration::from_secs(6));
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(6),
        FaultEvent::Control(2, xft_core::byzantine::CONTROL_AMNESIA),
    );
    // ~1.5 s in: the first post-amnesia transfer is mid-flight.
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_millis(7500),
        FaultEvent::Control(2, xft_core::byzantine::CONTROL_AMNESIA),
    );
    cluster.run_for(SimDuration::from_secs(30));

    let metrics = cluster.sim.metrics();
    assert_eq!(metrics.counter("amnesia_injected"), 2);
    assert!(
        metrics.counter("state_transfers_adopted") > 0,
        "the twice-wiped replica must still adopt a verified snapshot"
    );
    assert!(cluster.replica(2).executed_upto().0 > 32);
    cluster.check_total_order().expect("total order preserved");
}

#[test]
fn primary_failover_during_state_transfer_completes_via_peer_rotation() {
    // A recovered replica lags behind sealed checkpoints (peers have
    // truncated their logs) and starts a chunked transfer; the primary
    // crashes mid-transfer. Every chunk response is independently verifiable
    // against the t + 1 seal, so the transfer survives the failover by
    // rotating to the surviving peer, while the view change promotes the
    // transferring replica.
    let mut cluster = chunked_cluster(83, 512, 2);
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(3),
        FaultEvent::Crash(2),
    );
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(9),
        FaultEvent::Recover(2),
    );
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_millis(9400),
        FaultEvent::Crash(0),
    );
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(15),
        FaultEvent::Recover(0),
    );
    cluster.run_for(SimDuration::from_secs(45));

    let metrics = cluster.sim.metrics();
    assert!(
        metrics.counter("state_transfers_started") > 0,
        "the lagging replica must need a state transfer"
    );
    assert!(
        metrics.counter("state_transfers_adopted") > 0,
        "the transfer must complete despite the failover"
    );
    assert!(cluster.replica(2).executed_upto().0 > 32);
    cluster.check_total_order().expect("total order preserved");
}

#[test]
fn pipelined_clients_survive_brief_primary_crash_with_bounded_reply_cache() {
    // Regression (chaos seeds 18/46/337/645/746): checkpoint truncation used
    // to prune cached client replies by sequence number, keeping only each
    // client's single latest reply. With a pipelined client (window > 1), a
    // request whose original reply misses its commit quorum — e.g. the t = 1
    // primary replied before the follower's commit arrived, so no
    // `follower_commit` was attached — recovers solely through the
    // retransmission → re-answer path. At checkpoint-every-few-hundred-ms
    // throughput the pruning window closed *before* the client's first
    // retransmission timer fired, wedging the client forever on an executed
    // request whose reply no replica could reproduce. Retention now covers
    // each client's last `MAX_CLIENT_WINDOW` cached timestamps, matching the
    // client-side `MAX_TS_SPREAD` contract.
    use xft_chaos::chaos_workload;
    let mut cluster = ClusterBuilder::new(1, 3)
        .with_seed(18)
        .with_latency(LatencySpec::Uniform(
            SimDuration::from_millis(2),
            SimDuration::from_millis(12),
        ))
        .with_workload_factory(|c| chaos_workload(18, c as u64, 4, 35))
        .with_pipeline(xft_simnet::PipelineConfig::default().with_client_window(3))
        .with_config(|mut c| {
            c.replica_retransmit = SimDuration::from_millis(400);
            c.with_delta(SimDuration::from_millis(100))
                .with_client_retransmit(SimDuration::from_millis(400))
                .with_checkpoint_interval(32)
                .with_state_chunk_bytes(1024)
                .with_state_fetch_window(2)
        })
        .with_state_machine(|| Box::new(xft_kvstore::CoordinationService::new()))
        .with_storage_factory(|_| Box::new(xft_store::MemStorage::new()))
        .build();
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_nanos(1_872_000_000),
        FaultEvent::Crash(0),
    );
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_nanos(2_147_000_000),
        FaultEvent::Recover(0),
    );
    cluster.run_for(SimDuration::from_secs(8));
    let mid = cluster.total_committed();
    cluster.run_for(SimDuration::from_secs(22));
    let end = cluster.total_committed();
    assert!(
        end > mid + 100,
        "clients wedged after the crash healed: {mid} -> {end} commits"
    );
    assert_eq!(
        cluster.sim.metrics().counter("cache_answers_pruned"),
        0,
        "a correct client's retransmission hit a pruned reply"
    );
    cluster.check_total_order().expect("total order preserved");
}

#[test]
fn t2_cluster_survives_two_crashes() {
    let mut cluster = fast_config(
        ClusterBuilder::new(2, 3)
            .with_seed(48)
            .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
            .with_workload(workload(None)),
    )
    .build();

    cluster.run_for(SimDuration::from_secs(5));
    let before = cluster.total_committed();
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(5),
        FaultEvent::Crash(1),
    );
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(6),
        FaultEvent::Crash(3),
    );
    cluster.run_for(SimDuration::from_secs(40));
    let after = cluster.total_committed();
    assert!(
        after > before + 10,
        "no progress after two crashes: {before} -> {after}"
    );
    cluster.check_total_order().expect("total order preserved");
}
