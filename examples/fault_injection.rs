//! Fault injection: demonstrate the XFT model's headline claim — XPaxos keeps both
//! safety and liveness with a *non-crash* faulty replica, as long as a majority of
//! replicas is correct and synchronous — and show the fault-detection mechanism
//! flagging a data-loss fault during a view change (paper §4.4 / Figure 11b).
//!
//! Run with: `cargo run --release --example fault_injection`

use xft::core::client::ClientWorkload;
use xft::core::harness::{check_total_order, ClusterBuilder, LatencySpec};
use xft::core::{ByzantineBehavior, SeqNum};
use xft::simnet::{FaultEvent, SimDuration, SimTime};

fn main() {
    // Fault detection on, checkpointing off so the whole log is available for FD.
    let mut cluster = ClusterBuilder::new(1, 3)
        .with_seed(13)
        .with_latency(LatencySpec::Constant(SimDuration::from_millis(5)))
        .with_workload(ClientWorkload {
            payload_size: 256,
            ..Default::default()
        })
        .with_config(|c| {
            c.with_delta(SimDuration::from_millis(100))
                .with_client_retransmit(SimDuration::from_millis(500))
                .with_fault_detection(true)
                .with_checkpoint_interval(0)
        })
        .build();

    // Phase 1: commit a prefix.
    cluster.run_for(SimDuration::from_secs(5));
    println!(
        "phase 1 (fault-free): {} commits",
        cluster.total_committed()
    );

    // Phase 2: the primary of view 0 turns Byzantine — it "loses" its commit log
    // (a data-loss fault) and goes mute, which forces a view change.
    cluster
        .replica_mut(0)
        .set_behavior(ByzantineBehavior::DataLossBothLogs { keep: SeqNum(0) });
    cluster.sim.inject_fault_at(
        SimTime::ZERO + SimDuration::from_secs(5),
        FaultEvent::Control(0, 1), // control code 1 = mute
    );
    cluster.run_for(SimDuration::from_secs(20));

    println!(
        "phase 2 (non-crash faulty primary): {} commits total",
        cluster.total_committed()
    );
    for (at, view) in cluster.sim.metrics().view_changes() {
        println!(
            "  view change completed at {:.1} s -> view {}",
            at.as_secs_f64(),
            view
        );
    }
    for r in 1..cluster.n() {
        let detected = cluster.replica(r).detected_faulty();
        if !detected.is_empty() {
            println!("  replica {r} detected faulty replicas: {detected:?}");
        }
    }
    check_total_order(&[cluster.replica(1), cluster.replica(2)])
        .expect("total order among correct replicas");
    println!("safety and liveness preserved despite a non-crash fault ✓");
}
