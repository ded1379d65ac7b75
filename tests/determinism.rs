//! Determinism regression tests: the whole stack — simulator, protocol, crypto —
//! must be bit-for-bit reproducible given a seed. Two independently built
//! clusters driven with the same seed must commit the identical trace; this is
//! the property every experiment in EXPERIMENTS.md and every seeded failure
//! report from `xft::testing` relies on.

use xft::core::client::ClientWorkload;
use xft::core::harness::{ClusterBuilder, LatencySpec, XPaxosCluster};
use xft::crypto::Digest;
use xft::simnet::{FaultEvent, SimDuration, SimTime};

/// A cluster of 2t + 1 replicas with a randomized-latency workload and
/// fault detection on iff `fd`; everything depends only on `t`, `seed` and
/// `fd`.
fn build(t: usize, seed: u64, fd: bool) -> XPaxosCluster {
    ClusterBuilder::new(t, 3)
        .with_seed(seed)
        .with_latency(LatencySpec::Uniform(
            SimDuration::from_millis(2),
            SimDuration::from_millis(20),
        ))
        .with_workload(ClientWorkload {
            payload_size: 256,
            requests: Some(40),
            ..Default::default()
        })
        .with_config(|c| c.with_fault_detection(fd))
        .build()
}

/// A digest of one replica's committed log: every (sequence number, batch
/// digest) pair it executed, in order.
fn log_digest(cluster: &XPaxosCluster, replica: usize) -> Digest {
    let mut buf = Vec::new();
    for (sn, digest) in cluster.replica(replica).executed_history() {
        buf.extend_from_slice(&sn.0.to_le_bytes());
        buf.extend_from_slice(digest.as_bytes());
    }
    Digest::of(&buf)
}

#[test]
fn same_seed_produces_identical_commit_traces() {
    let mut a = build(1, 0x000D_5EED, false);
    let mut b = build(1, 0x000D_5EED, false);
    a.run_for(SimDuration::from_secs(30));
    b.run_for(SimDuration::from_secs(30));

    a.check_total_order().expect("run A violates total order");
    b.check_total_order().expect("run B violates total order");

    assert_eq!(a.total_committed(), b.total_committed());
    assert!(a.total_committed() > 0, "workload never committed");
    assert_eq!(a.max_executed(), b.max_executed());
    for r in 0..a.n() {
        assert_eq!(
            a.replica(r).executed_history(),
            b.replica(r).executed_history(),
            "replica {r} executed different histories across identically seeded runs"
        );
        assert_eq!(
            log_digest(&a, r),
            log_digest(&b, r),
            "replica {r} log digests diverged across identically seeded runs"
        );
        assert_eq!(
            a.replica(r).state_digest(),
            b.replica(r).state_digest(),
            "replica {r} state digests diverged across identically seeded runs"
        );
    }
}

#[test]
fn same_seed_is_deterministic_even_under_faults() {
    let run = |seed: u64| {
        let mut cluster = build(1, seed, false);
        let crash = SimTime::ZERO + SimDuration::from_secs(5);
        let heal = crash + SimDuration::from_secs(5);
        cluster.sim.inject_fault_at(crash, FaultEvent::Crash(1));
        cluster.sim.inject_fault_at(heal, FaultEvent::Recover(1));
        cluster.run_for(SimDuration::from_secs(30));
        cluster.check_total_order().expect("total order");
        (
            cluster.total_committed(),
            (0..cluster.n())
                .map(|r| log_digest(&cluster, r))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(7), run(7));
}

/// A fault script covering every injection mechanism the chaos explorer
/// uses: Byzantine control codes (including amnesia), a link partition, a
/// crash/recovery and message-drop churn. Same seed + same script must give
/// byte-identical commit traces *and* byte-identical metrics — the property
/// every shrunk chaos reproducer relies on to replay exactly. Every node it
/// names exists at t = 1 (n = 3) and at t = 2 (n = 5).
fn faulty_script() -> xft::simnet::FaultScript {
    use xft::simnet::FaultScript;
    FaultScript::new()
        .at_secs_f64(2.0, FaultEvent::SetDropProbability(0.05))
        .at_secs_f64(3.5, FaultEvent::SetDropProbability(0.0))
        .at_secs_f64(4.0, FaultEvent::Control(1, 2)) // commit-log data loss
        .at_secs_f64(5.0, FaultEvent::Crash(0))
        .at_secs_f64(6.0, FaultEvent::Control(1, 0)) // back to correct
        .at_secs_f64(7.0, FaultEvent::Recover(0))
        .at_secs_f64(8.0, FaultEvent::PartitionPair(1, 2))
        .at_secs_f64(10.0, FaultEvent::HealAll)
        .at_secs_f64(11.0, FaultEvent::Control(2, 5)) // amnesia
}

/// Run at t = 1 (the COMMIT-CARRY fast path) and at t = 2 (the PREPARE /
/// COMMIT general path), each with fault detection off and on (the
/// VC-CONFIRM round and prepare-log transfer).
#[test]
fn same_seed_and_fault_script_give_identical_traces_and_metrics() {
    for (t, fd) in [(1, false), (2, false), (1, true), (2, true)] {
        let run = |seed: u64| {
            let mut cluster = build(t, seed, fd);
            cluster.sim.schedule_fault_script(faulty_script());
            cluster.run_for(SimDuration::from_secs(30));
            (
                cluster.total_committed(),
                (0..cluster.n())
                    .map(|r| log_digest(&cluster, r))
                    .collect::<Vec<_>>(),
                (0..cluster.n())
                    .map(|r| cluster.replica(r).state_digest())
                    .collect::<Vec<_>>(),
                cluster.sim.metrics().fingerprint(),
                cluster.sim.metrics().committed(),
                cluster.sim.metrics().counters().clone(),
            )
        };
        let a = run(0xFA_17);
        let b = run(0xFA_17);
        assert_eq!(
            a, b,
            "t = {t}, fd = {fd}: faulty runs must be bit-for-bit reproducible"
        );
        assert!(
            a.4 > 0,
            "t = {t}, fd = {fd}: the faulty run never committed anything"
        );
        // The metrics fingerprint is sensitive: a different seed's run yields a
        // different fingerprint (overwhelmingly).
        let c = run(0xFA_18);
        assert_ne!(
            a.3, c.3,
            "t = {t}, fd = {fd}: fingerprint failed to distinguish runs"
        );
    }
}
