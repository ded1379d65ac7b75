//! The simnet twin of the live loopback TCP cluster.
//!
//! Runs the exact workload of `xpaxos-client --ops 1000 --payload 1024`
//! (a t = 1 cluster serving sequential znode creates) inside the
//! deterministic simulator with loopback-like constant latency, so the
//! numbers in EXPERIMENTS.md's "loopback TCP vs simnet" section can be
//! regenerated from both backends:
//!
//! ```console
//! $ cargo run --release --example loopback_sim
//! $ cargo run --release --example loopback_sim -- --clients 4 --window 8
//! ```
//!
//! `--clients N` / `--window K` mirror the `xpaxos-client` flags.

use xft::core::harness::{ClusterBuilder, LatencySpec};
use xft::kvstore::workload::bench_workload;
use xft::kvstore::CoordinationService;
use xft::simnet::{PipelineConfig, SimDuration};

fn flag_value(name: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    const OPS: u64 = 1000;
    const PAYLOAD: usize = 1024;
    let clients = flag_value("--clients").unwrap_or(1).max(1);
    let window = flag_value("--window").unwrap_or(1).max(1);

    let mut cluster = ClusterBuilder::new(1, clients)
        // Loopback RTTs are tens of microseconds; 25 µs one-way approximates it.
        .with_latency(LatencySpec::Constant(SimDuration::from_micros(25)))
        // Per-client op bytes, exactly as `xpaxos-client` parameterizes its
        // workers.
        .with_workload_factory(|c| bench_workload(c as u64, PAYLOAD, Some(OPS)))
        .with_state_machine(|| Box::new(CoordinationService::new()))
        .with_pipeline(PipelineConfig::default().with_client_window(window))
        .build();
    cluster.run_for(SimDuration::from_secs(60));

    let committed = cluster.total_committed();
    let target = OPS * clients as u64;
    let metrics = cluster.sim.metrics();
    let last = metrics.commit_times_secs().last().copied().unwrap_or(0.0);
    println!(
        "simnet loopback twin: committed {committed}/{target} ops of {PAYLOAD} B \
         ({clients} client(s), window {window})"
    );
    println!(
        "simnet loopback twin: {:.1} ops/s",
        committed as f64 / last.max(1e-9)
    );
    if let Some(s) = metrics.latency_summary() {
        println!(
            "simnet loopback twin: latency mean {:.2} ms  p50 {:.2} ms  p90 {:.2} ms  p99 {:.2} ms",
            s.mean_ms, s.p50_ms, s.p90_ms, s.p99_ms
        );
    }
    cluster.check_total_order().expect("total order holds");
}
