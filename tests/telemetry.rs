//! Integration tests for the `xft-telemetry` tentpole: the workspace-wide
//! percentile implementation agrees with every consumer, and telemetry stays
//! strictly out of protocol state (identical metrics fingerprints with the
//! hub on or off). The replica counts through `Context::count` only; in the
//! simulator those counters live in `Metrics`, and the TCP runtime exports
//! them to the hub (`xft-net`'s runtime tests pin that).

use std::sync::Arc;
use std::time::Duration;
use xft::core::client::ClientWorkload;
use xft::core::harness::{ClusterBuilder, LatencySpec};
use xft::simnet::SimDuration;
use xft::telemetry::Telemetry;
use xft::testing::check;

/// The series the pipeline stages report — batch-verify latency and outbound
/// queue depth — must land in the shared hub and therefore in the `/metrics`
/// scrape (the HTTP endpoint serves exactly `render_prometheus()`). The
/// crypto front counts nothing: the primary counts a batch-verify fallback
/// once, as `sig_batch_fallback`.
#[test]
fn pipeline_stage_series_appear_in_the_metrics_scrape() {
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;
    use xft::core::messages::client_request_digest;
    use xft::core::pipeline::CryptoFront;
    use xft::core::types::{client_key, ClientId, Request};
    use xft::crypto::{KeyRegistry, Signer, Verifier};
    use xft::net::transport::{TransportStats, Writer};
    use xft::net::AddressBook;

    let hub = Telemetry::enabled();

    // Crypto stage: the front batch-verifying real signatures records its
    // latency, and pinpoints a forged one.
    let registry = KeyRegistry::new(4);
    let (requests, mut sigs): (Vec<_>, Vec<_>) = (0..16u64)
        .map(|i| {
            let client = ClientId(i % 4);
            let req = Request {
                client,
                timestamp: i,
                op: vec![i as u8; 64].into(),
            };
            let sig = Signer::new(&registry, client_key(client))
                .sign_digest(&client_request_digest(&req));
            (req, sig)
        })
        .unzip();
    let front = CryptoFront::new(Arc::clone(&hub));
    let verifier = Verifier::new(registry);
    assert_eq!(
        front.verify_client_sigs(&verifier, &requests, &sigs),
        Ok(())
    );
    assert!(
        hub.histogram("xft_crypto_verify_seconds", 1e-9).count() > 0,
        "batch verification never observed its latency"
    );
    sigs[5].tag[0] ^= 1;
    assert_eq!(
        front.verify_client_sigs(&verifier, &requests, &sigs),
        Err(vec![5])
    );

    // Transport stage: enqueueing for a peer bumps the outbound-queue depth
    // gauge; the drain (delivery or drop) takes it back down.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let book = AddressBook::new([(1usize, dead)]);
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(TransportStats::with_telemetry(Arc::clone(&hub)));
    let writer = Writer::new(0, book, shutdown, stats, Duration::from_millis(10));
    let sender = writer.sender(1);
    for v in 0..4u64 {
        sender.send(xft::wire::encode_msg_vec(&v));
    }
    writer.join();
    assert_eq!(
        hub.gauge("xft_net_outq_depth").get(),
        0,
        "outbound queue depth must return to zero once the writer drains"
    );

    let scrape = hub.render_prometheus();
    for series in ["xft_crypto_verify_seconds", "xft_net_outq_depth"] {
        assert!(
            scrape.contains(series),
            "series {series} missing from the /metrics scrape:\n{scrape}"
        );
    }
    // The crypto front has no queue and no counter: verify latency is its
    // only series.
    let stray: Vec<&str> = scrape
        .lines()
        .filter(|l| {
            (l.starts_with("xft_crypto_") && !l.starts_with("xft_crypto_verify_seconds"))
                || l.starts_with("xft_sig_batch_fallback")
        })
        .collect();
    assert!(
        stray.is_empty(),
        "unexpected crypto series in the /metrics scrape: {stray:?}"
    );
}

/// One percentile rule for the whole workspace. `xft-simnet`'s
/// `stats::percentile` and `xft_telemetry::percentile` must report the
/// identical p50/p90/p99 on random samples, and the
/// log-bucketed histogram's quantile must bound the exact percentile within
/// its containing power-of-two bucket.
#[test]
fn percentile_implementations_agree_on_random_samples() {
    check("percentile_implementations_agree", 48, |rng| {
        let len = rng.usize_in(1, 400);
        let samples_ns: Vec<u64> = (0..len).map(|_| rng.u64_in(1, 5_000_000)).collect();
        let as_f64: Vec<f64> = samples_ns.iter().map(|&v| v as f64).collect();
        let hist = xft::telemetry::Histogram::new();
        for &v in &samples_ns {
            hist.record(v);
        }

        for q in [0.50, 0.90, 0.99] {
            let telemetry = xft::telemetry::percentile(&as_f64, q);
            let simnet = xft::simnet::stats::percentile(&as_f64, q);
            if telemetry != simnet {
                return Err(format!(
                    "q={q}: telemetry {telemetry} != simnet {simnet} on {len} samples"
                ));
            }
            // The histogram's bucket bound must contain the exact percentile:
            // bound/2 < exact <= bound (power-of-two buckets, upper bound
            // reported).
            let bound = hist.quantile(q);
            if telemetry > bound || telemetry <= bound / 2.0 {
                return Err(format!(
                    "q={q}: exact percentile {telemetry} outside histogram bucket ({}, {bound}]",
                    bound / 2.0
                ));
            }
        }
        Ok(())
    });
}

/// Telemetry is observation-only: the same seeded run produces bit-identical
/// commit traces and metrics fingerprints with the hub enabled or disabled.
#[test]
fn telemetry_does_not_perturb_the_metrics_fingerprint() {
    let run = |telemetry: Option<Arc<Telemetry>>| {
        let mut builder = ClusterBuilder::new(1, 3)
            .with_seed(0x7E1E)
            .with_latency(LatencySpec::Uniform(
                SimDuration::from_millis(2),
                SimDuration::from_millis(20),
            ))
            .with_workload(ClientWorkload {
                payload_size: 256,
                requests: Some(40),
                ..Default::default()
            });
        if let Some(hub) = telemetry {
            builder = builder.with_telemetry_factory(move |_| Arc::clone(&hub));
        }
        let mut cluster = builder.build();
        cluster.run_for(SimDuration::from_secs(30));
        (
            cluster.total_committed(),
            cluster.sim.metrics().fingerprint(),
            (0..cluster.n())
                .map(|r| cluster.replica(r).state_digest())
                .collect::<Vec<_>>(),
            cluster.sim.metrics().counter("commits"),
        )
    };
    let hub = Telemetry::enabled();
    let with_hub = run(Some(Arc::clone(&hub)));
    let without = run(None);
    assert_eq!(
        with_hub, without,
        "an enabled telemetry hub changed the run"
    );
    assert!(with_hub.0 > 0, "the baseline run never committed");
    assert!(with_hub.3 > 0, "replica commits never counted");
    assert!(
        hub.histogram("xft_batch_size", 1.0).count() > 0,
        "the enabled hub observed nothing"
    );
    assert!(
        hub.recorded_events() > 0,
        "the flight recorder stayed empty"
    );
}

/// The capture histogram (in the hub) and the block counters (in `Metrics`)
/// are fed at every checkpoint capture, and — wall-clock timing included —
/// stay observation-only: the same seeded, checkpointing run commits
/// identically with the hub on or off.
#[test]
fn checkpoint_capture_series_are_observation_only() {
    let run = |telemetry: Option<Arc<Telemetry>>| {
        let mut builder = ClusterBuilder::new(1, 2)
            .with_seed(0xC4EC)
            .with_latency(LatencySpec::Uniform(
                SimDuration::from_millis(2),
                SimDuration::from_millis(10),
            ))
            .with_workload(ClientWorkload {
                payload_size: 512,
                requests: Some(100),
                ..Default::default()
            })
            .with_state_machine(|| Box::new(xft::kvstore::CoordinationService::new()))
            .with_config(|c| c.with_checkpoint_interval(8).with_state_chunk_bytes(2048));
        if let Some(hub) = telemetry {
            builder = builder.with_telemetry_factory(move |_| Arc::clone(&hub));
        }
        let mut cluster = builder.build();
        cluster.run_for(SimDuration::from_secs(30));
        let metrics = cluster.sim.metrics();
        (
            cluster.total_committed(),
            metrics.fingerprint(),
            (0..cluster.n())
                .map(|r| cluster.replica(r).state_digest())
                .collect::<Vec<_>>(),
            [
                "checkpoints",
                "checkpoint_blocks",
                "checkpoint_blocks_rehashed",
            ]
            .map(|name| metrics.counter(name)),
        )
    };
    let hub = Telemetry::enabled();
    let with_hub = run(Some(Arc::clone(&hub)));
    assert_eq!(
        with_hub,
        run(None),
        "an enabled telemetry hub changed the run"
    );
    assert_eq!(with_hub.0, 200);

    let captures = hub
        .histogram("xft_checkpoint_capture_seconds", 1e-9)
        .count();
    let [sealed, total, rehashed] = with_hub.3;
    assert!(sealed >= 20, "only {sealed} checkpoints sealed");
    assert!(
        captures >= sealed,
        "{captures} captures observed for {sealed} seals"
    );
    assert!(total >= captures, "every capture has at least one block");
    assert!(
        rehashed > 0 && rehashed < total,
        "the memo never saved a block ({rehashed} of {total} re-hashed)"
    );
}
