//! Tests for the windowed request pipeline: an idle pipe cuts a batch at
//! once, so a lone client never waits out the batch timer; out-of-order
//! commit arrivals still execute in sequence-number order with identical
//! state-machine digests; and the bounded admission queue sheds load without
//! losing liveness.

use xft::core::client::ClientWorkload;
use xft::core::harness::{ClusterBuilder, LatencySpec};
use xft::core::messages::{SignedRequest, XPaxosMsg};
use xft::core::types::{ClientId, Request};
use xft::crypto::{KeyId, Signature};
use xft::simnet::{PipelineConfig, SimDuration};
use xft::telemetry::Telemetry;
use xft::testing::check;

fn saturating_workload(requests: u64) -> ClientWorkload {
    ClientWorkload {
        payload_size: 256,
        requests: Some(requests),
        ..Default::default()
    }
}

/// Regression for the tentpole latency fix: a lone closed-loop client on
/// loopback-like links used to pay the full 2 ms batch timeout on every
/// request (seed: ~2.1 ms mean); now the pipeline is empty when its request
/// arrives, so the batch is proposed immediately and the mean latency sits at
/// the RTT scale, far below the 2 ms floor.
#[test]
fn lone_closed_loop_client_no_longer_waits_out_the_batch_timer() {
    let mut cluster = ClusterBuilder::new(1, 1)
        .with_seed(21)
        .with_latency(LatencySpec::Constant(SimDuration::from_micros(25)))
        .with_workload(saturating_workload(200))
        .build();
    cluster.run_for(SimDuration::from_secs(10));
    assert_eq!(cluster.total_committed(), 200);
    let mean_ms = cluster.sim.metrics().mean_latency_ms();
    assert!(
        mean_ms < 1.0,
        "lone client mean latency {mean_ms:.3} ms still near the 2 ms batch-timeout floor"
    );
    cluster.check_total_order().expect("total order holds");
}

/// Windowed clients push the throughput knee well past the batch-timer bound:
/// the same 25 µs cluster serves a 4-client window-8 load at least 20× the
/// seed's ~476 ops/s.
#[test]
fn windowed_clients_multiply_throughput() {
    let mut cluster = ClusterBuilder::new(1, 4)
        .with_seed(22)
        .with_latency(LatencySpec::Constant(SimDuration::from_micros(25)))
        .with_workload(saturating_workload(500))
        .with_pipeline(PipelineConfig::default().with_client_window(8))
        .build();
    cluster.run_for(SimDuration::from_secs(10));
    assert_eq!(cluster.total_committed(), 2000);
    let last = cluster
        .sim
        .metrics()
        .commit_times_secs()
        .last()
        .copied()
        .unwrap_or(f64::MAX);
    let throughput = 2000.0 / last;
    assert!(
        throughput > 10_000.0,
        "windowed throughput {throughput:.0} ops/s is not pipelined"
    );
    cluster.check_total_order().expect("total order holds");
}

/// The batch size follows the queue: on a WAN, 200 closed-loop clients keep
/// more requests queued than 8 in-flight batches × a 20-request cut
/// threshold, and a cut carries the whole backlog, so the primary is no
/// longer capped at `8 × 20 / RTT`. Clients sit with the primary (Table-4
/// placement: CA primary, VA follower, JP passive), as in the paper's
/// micro-benchmarks — with the same delay on client links too, 200 clients
/// could not fill 8 × 20 (that needs more than `2 × 8 × 20` of them).
#[test]
fn queued_backlog_leaves_in_one_batch_and_lifts_the_window_ceiling() {
    use xft::chaos::checker::{check_history, decode_history};
    use xft::chaos::workload::chaos_workload;
    use xft::simnet::ec2::{ec2_rtt_matrix, table4_placement};
    use xft::simnet::{Region, SimTime};

    let (clients, batch, in_flight) = (200usize, 20usize, 8usize);
    let mut cluster = ClusterBuilder::new(1, clients)
        .with_seed(25)
        .with_latency(LatencySpec::Ec2 {
            replica_regions: table4_placement(3),
            client_region: Region::UsWestCA,
        })
        .with_workload_factory(|c| {
            let mut w = chaos_workload(25, c as u64, 16, 30);
            w.think_time = SimDuration::ZERO;
            w
        })
        .with_state_machine(|| Box::new(xft::kvstore::CoordinationService::new()))
        .with_pipeline(PipelineConfig::default().with_max_in_flight(in_flight))
        .with_config(|c| c.with_batch_size(batch))
        .build();
    cluster.run_for(SimDuration::from_secs(10));

    let metrics = cluster.sim.metrics();
    let ops_per_batch =
        metrics.committed() as f64 / metrics.counter("batches_proposed").max(1) as f64;
    assert!(
        ops_per_batch > batch as f64,
        "{ops_per_batch:.1} ops per batch: cuts never carried the backlog"
    );
    let rtt_s = ec2_rtt_matrix()[Region::UsWestCA.index()][Region::UsEastVA.index()].avg_ms / 1e3;
    let ceiling = (in_flight * batch) as f64 / rtt_s;
    let throughput = metrics.throughput_ops(
        SimTime::ZERO + SimDuration::from_secs(2),
        SimTime::ZERO + SimDuration::from_secs(10),
    );
    assert!(
        throughput >= 1.05 * ceiling,
        "{throughput:.0} ops/s is not above the {ceiling:.0} ops/s window ceiling"
    );
    assert_eq!(metrics.counter("view_changes_started"), 0);

    cluster.check_total_order().expect("total order holds");
    let mut ops = Vec::new();
    for c in 0..clients {
        ops.extend(decode_history(c as u64, &cluster.client(c).history()));
    }
    let violations = check_history(&ops);
    assert!(
        violations.is_empty(),
        "history checker found: {violations:?}"
    );
}

/// Property: with jittered links (which reorder proposals and commits),
/// windowed clients and a deep primary pipeline, every replica still executes
/// in strict sequence-number order, overlapping histories agree, and replicas
/// that executed the same prefix hold identical state-machine digests. The
/// follower's out-of-order stash must actually trigger across the cases, so
/// the property genuinely exercises reordered arrivals.
#[test]
fn out_of_order_arrivals_execute_in_order_with_identical_digests() {
    let mut stashed_total = 0u64;
    check("pipeline_out_of_order", 10, |rng| {
        let t = if rng.bool() { 1 } else { 2 };
        let clients = rng.usize_in(2, 5);
        let window = rng.usize_in(2, 9);
        let ops = rng.u64_in(20, 41);
        let jitter_ms = rng.u64_in(5, 20);
        // A low cut threshold keeps many proposals in flight concurrently,
        // which is what makes jittered links actually reorder them (a cut
        // still carries every queued request, so batches vary in length).
        let batch_size = rng.usize_in(1, 5);
        let seed = rng.u64_below(1 << 32);
        let mut cluster = ClusterBuilder::new(t, clients)
            .with_seed(seed)
            .with_latency(LatencySpec::Uniform(
                SimDuration::from_millis(1),
                SimDuration::from_millis(jitter_ms),
            ))
            .with_workload(saturating_workload(ops))
            .with_config(|c| c.with_batch_size(batch_size))
            .with_pipeline(
                PipelineConfig::default()
                    .with_client_window(window)
                    .with_max_in_flight(8),
            )
            .build();
        cluster.run_for(SimDuration::from_secs(120));

        let expected = clients as u64 * ops;
        if cluster.total_committed() != expected {
            return Err(format!(
                "committed {}/{expected} (t = {t}, window {window}, jitter {jitter_ms} ms)",
                cluster.total_committed()
            ));
        }
        // Execution is in strict sequence-number order at every replica.
        for r in 0..cluster.n() {
            let history = cluster.replica(r).executed_history();
            for pair in history.windows(2) {
                if pair[1].0 .0 <= pair[0].0 .0 {
                    return Err(format!(
                        "replica {r} executed sn {} after sn {}",
                        pair[1].0 .0, pair[0].0 .0
                    ));
                }
            }
        }
        // Overlapping histories agree (Theorem 1)…
        cluster.check_total_order().map_err(|e| e.to_string())?;
        // …and equal prefixes mean equal state-machine digests.
        for a in 0..cluster.n() {
            for b in (a + 1)..cluster.n() {
                let (ra, rb) = (cluster.replica(a), cluster.replica(b));
                if ra.executed_upto() == rb.executed_upto()
                    && ra.state_digest() != rb.state_digest()
                {
                    return Err(format!(
                        "replicas {a} and {b} executed up to sn {} but diverge in state",
                        ra.executed_upto().0
                    ));
                }
            }
        }
        stashed_total += cluster.sim.metrics().counter("proposals_stashed")
            + cluster.sim.metrics().counter("commits_buffered");
        Ok(())
    });
    assert!(
        stashed_total > 0,
        "no case reordered arrivals — the property never exercised the reorder buffers"
    );
}

/// The primary's admission queue is bounded: a burst far beyond
/// `max_pending_requests` is shed with BUSY notices (clients back off and
/// retry) instead of growing the queue without bound, and the run still
/// commits everything.
#[test]
fn bounded_admission_queue_sheds_load_and_recovers() {
    let mut cluster = ClusterBuilder::new(1, 4)
        .with_seed(23)
        .with_latency(LatencySpec::Constant(SimDuration::from_millis(1)))
        .with_workload(saturating_workload(50))
        .with_pipeline(
            PipelineConfig::default()
                .with_client_window(16)
                .with_max_in_flight(1)
                .with_max_pending(8),
        )
        .build();
    cluster.run_for(SimDuration::from_secs(60));
    let metrics = cluster.sim.metrics();
    assert!(
        metrics.counter("requests_shed") > 0,
        "64 outstanding requests against an 8-deep queue never shed"
    );
    assert!(
        metrics.counter("client_busy") > 0,
        "clients never observed a BUSY notice"
    );
    assert_eq!(cluster.total_committed(), 200, "shed requests were lost");
    // Load shedding is not a fault: no view change may result from it.
    assert_eq!(metrics.counter("view_changes_started"), 0);
    cluster.check_total_order().expect("total order holds");
}

/// Property: the shedding path (BUSY + busy-backoff + retransmission)
/// preserves exactly-once semantics and linearizability under randomized
/// message reordering, judged by the chaos history checker. Each case runs a
/// shed-heavy configuration (deep client windows against a shallow admission
/// queue, jittered links so retransmitted copies overtake originals) with
/// the versioned chaos workload, then verifies the recorded client histories
/// machine-checkably: unique write serials (no double execution), value
/// consistency and real-time version monotonicity.
#[test]
fn shedding_preserves_exactly_once_under_reordering_property() {
    use xft::chaos::checker::{check_history, decode_history};
    use xft::chaos::workload::chaos_workload;

    let mut sheds_seen = 0u64;
    check("shedding_exactly_once", 8, |rng| {
        let seed = rng.u64_below(1 << 32);
        let clients = 3usize;
        let mut cluster = ClusterBuilder::new(1, clients)
            .with_seed(seed ^ 0x5EDD)
            .with_latency(LatencySpec::Uniform(
                SimDuration::from_millis(1),
                SimDuration::from_millis(9),
            ))
            .with_workload_factory(move |c| {
                let mut w = chaos_workload(seed, c as u64, 3, 30);
                w.think_time = SimDuration::ZERO;
                w.requests = Some(120);
                w
            })
            .with_pipeline(
                PipelineConfig::default()
                    .with_client_window(16)
                    .with_max_in_flight(2)
                    .with_max_pending(6),
            )
            .with_state_machine(|| Box::new(xft::kvstore::CoordinationService::new()))
            .with_config(|c| c.with_checkpoint_interval(0))
            .build();
        cluster.run_for(SimDuration::from_secs(120));

        let metrics = cluster.sim.metrics();
        sheds_seen += metrics.counter("requests_shed");
        if cluster.total_committed() != (clients as u64) * 120 {
            return Err(format!(
                "only {} of {} requests committed",
                cluster.total_committed(),
                clients * 120
            ));
        }
        let mut ops = Vec::new();
        for c in 0..clients {
            ops.extend(decode_history(c as u64, &cluster.client(c).history()));
        }
        let violations = check_history(&ops);
        if !violations.is_empty() {
            return Err(format!("history checker found: {violations:?}"));
        }
        cluster.check_total_order().map_err(|e| e.to_string())?;
        Ok(())
    });
    assert!(
        sheds_seen > 0,
        "no case shed a request — the property never exercised the BUSY path"
    );
}

/// Negative path of the batched signature verification (the crypto front's
/// verify∥ stage): a forged client signature slipped into the admission queue
/// is caught at proposal time. The whole-batch check fails, the per-signature
/// fallback pinpoints the culprit, the culprit alone is dropped, and every
/// genuine request — including those sharing its batch — still commits. The
/// fallback is observable as the `xft_sig_batch_fallback_total` counter.
#[test]
fn corrupt_client_signature_is_dropped_by_batch_verify_fallback() {
    let telemetry = Telemetry::enabled();
    let hub = telemetry.clone();
    let mut cluster = ClusterBuilder::new(1, 3)
        .with_seed(33)
        .with_latency(LatencySpec::Constant(SimDuration::from_micros(25)))
        .with_workload(ClientWorkload {
            payload_size: 256,
            requests: Some(50),
            ..Default::default()
        })
        .with_pipeline(PipelineConfig::default().with_client_window(8))
        .with_telemetry_factory(move |_| hub.clone())
        .build();

    // Warm the pipeline so genuine requests are in flight and queued when the
    // forged one lands — it must share a batch with honest traffic.
    cluster.run_for(SimDuration::from_millis(2));
    let forged = SignedRequest {
        // A timestamp far beyond the workload's range: fresh, never executed.
        request: Request::new(ClientId(0), 999_999, vec![0xEE; 64].into()),
        signature: Signature::forged(KeyId(0)),
    };
    let client0_node = cluster.n(); // clients follow the replicas in node order
    cluster
        .sim
        .post_message(client0_node, 0, XPaxosMsg::Replicate(forged));
    cluster.run_for(SimDuration::from_secs(30));

    cluster.check_total_order().expect("total order holds");
    assert_eq!(
        cluster.total_committed(),
        150,
        "every genuine request must commit despite sharing the pipeline with a forged one"
    );
    assert_eq!(
        telemetry.counter("xft_sig_batch_fallback_total").get(),
        1,
        "exactly one batched verification fell back to per-signature checking"
    );
    assert_eq!(
        cluster.sim.metrics().counter("sig_batch_fallbacks"),
        1,
        "the primary's fallback must also land in the simulation metrics"
    );
}
