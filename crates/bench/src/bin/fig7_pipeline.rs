//! Figure 7-style open-vs-closed-loop sweep on a loopback-like deployment:
//! demonstrates the latency/throughput knee moving with the client window on
//! the pipelined request path (multi-in-flight batching, an idle pipe cuts a
//! batch at once).
//!
//! Two configurations per client count:
//! * **pipelined w=1** — closed-loop clients, one request each in flight;
//! * **pipelined w=8** — 8 requests in flight per client.
//!
//! Usage: `fig7_pipeline [--quick] [--json OUT]`.
//!
//! `--json OUT` also writes the best point (highest throughput across every
//! config × client-count pair) as `{"ops_per_sec", "p50", "p90", "p99"}` —
//! latencies in milliseconds — for CI trend tracking.

use xft_bench::report::{f1, f2, render_table};
use xft_core::harness::{ClusterBuilder, LatencySpec};
use xft_kvstore::workload::bench_workload;
use xft_kvstore::CoordinationService;
use xft_simnet::{PipelineConfig, SimDuration};

#[derive(Clone, Copy)]
struct Point {
    throughput_ops: f64,
    mean_ms: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
}

/// Runs a fixed per-client op budget (so a point's cost is bounded by its op
/// count, not by how fast the configuration commits) and reports throughput
/// over the span between the first and last commit.
fn run_point(clients: usize, pipeline: PipelineConfig, ops_per_client: u64) -> Point {
    const PAYLOAD: usize = 1024;
    let mut cluster = ClusterBuilder::new(1, clients)
        .with_seed(11)
        // Loopback RTTs are tens of microseconds; 25 µs one-way approximates it.
        .with_latency(LatencySpec::Constant(SimDuration::from_micros(25)))
        .with_workload_factory(move |c| bench_workload(c as u64, PAYLOAD, Some(ops_per_client)))
        .with_state_machine(|| Box::new(CoordinationService::new()))
        .with_pipeline(pipeline)
        .build();
    cluster.run_for(SimDuration::from_secs(120));
    cluster.check_total_order().expect("total order holds");
    assert_eq!(
        cluster.total_committed(),
        clients as u64 * ops_per_client,
        "point did not complete its op budget"
    );
    let metrics = cluster.sim.metrics();
    let summary = metrics.latency_summary();
    let span = metrics
        .commit_times_secs()
        .last()
        .copied()
        .unwrap_or(0.0)
        .max(1e-9);
    Point {
        throughput_ops: metrics.committed() as f64 / span,
        mean_ms: summary.map(|s| s.mean_ms).unwrap_or(0.0),
        p50_ms: summary.map(|s| s.p50_ms).unwrap_or(0.0),
        p90_ms: summary.map(|s| s.p90_ms).unwrap_or(0.0),
        p99_ms: summary.map(|s| s.p99_ms).unwrap_or(0.0),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_out: Option<String> = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let (client_counts, ops_per_client) = if quick {
        (vec![1, 4, 16], 500)
    } else {
        (vec![1, 2, 4, 8, 16, 32], 2000)
    };

    let configs: [(&str, PipelineConfig); 2] = [
        ("pipelined w=1", PipelineConfig::default()),
        (
            "pipelined w=8",
            PipelineConfig::default().with_client_window(8),
        ),
    ];

    let mut rows = Vec::new();
    let mut best: Option<Point> = None;
    for (name, pipeline) in &configs {
        for &clients in &client_counts {
            let p = run_point(clients, pipeline.clone(), ops_per_client);
            if best.is_none_or(|b| p.throughput_ops > b.throughput_ops) {
                best = Some(p);
            }
            rows.push(vec![
                name.to_string(),
                clients.to_string(),
                f1(p.throughput_ops),
                f2(p.mean_ms),
                f2(p.p50_ms),
                f2(p.p90_ms),
                f2(p.p99_ms),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            "Figure 7 (pipelined) — open vs closed loop, t = 1, loopback-like 25 µs links",
            &[
                "config",
                "clients",
                "ops/s",
                "mean (ms)",
                "p50 (ms)",
                "p90 (ms)",
                "p99 (ms)",
            ],
            &rows
        )
    );
    println!(
        "Expected shape: w=1 holds the lone-client latency at the RTT scale; windowed\n\
         clients move the throughput knee up by roughly the window factor until the\n\
         in-flight batch limit or CPU, not the batch timer, becomes the bottleneck."
    );
    if let Some(path) = json_out {
        let b = best.expect("at least one point ran");
        let json = format!(
            "{{\"ops_per_sec\": {:.1}, \"p50\": {:.4}, \"p90\": {:.4}, \"p99\": {:.4}}}\n",
            b.throughput_ops, b.p50_ms, b.p90_ms, b.p99_ms
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("fig7_pipeline: cannot write --json {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
