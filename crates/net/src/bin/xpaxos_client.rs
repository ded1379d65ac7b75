//! `xpaxos-client` — windowed clients driving a live XPaxos cluster with
//! coordination-service writes and reporting throughput/latency percentiles.
//!
//! ```text
//! xpaxos-client --t 1 --clients 4 --window 8 \
//!     --addrs <replica addrs>,<client addrs> \
//!     --ops 1000 [--id 0] [--payload 1024] [--seed 1] [--delta-ms 500] \
//!     [--retransmit-ms 2000] [--timeout-secs 60] [--mux 1]
//! ```
//!
//! Without `--id` the binary spawns **all** `--clients` windowed workers
//! (client `i` on node `2t + 1 + i`), each keeping `--window` requests in
//! flight; with `--id i` it runs only worker `i` (the original one-process-
//! per-client deployment). Each worker issues `--ops` sequential-create
//! operations of `--payload` bytes against the replicated ZooKeeper-like
//! service; the binary prints aggregate throughput plus p50/p90/p99 latency
//! and exits 0 once every worker commits its target. A cluster that fails to
//! commit the target within `--timeout-secs` exits 1.
//!
//! `--mux 1` runs all workers as sub-clients of one [`MuxClient`] on a single
//! socket — the servers must then publish the same address for every client
//! slot (pass the first client address `clients` times).

use std::net::TcpListener;
use std::ops::Range;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xft_core::client::{Client, MuxClient};
use xft_core::messages::XPaxosMsg;
use xft_core::types::ClientId;
use xft_core::XPaxosConfig;
use xft_crypto::KeyRegistry;
use xft_kvstore::workload::bench_workload;
use xft_net::cli::Args;
use xft_net::{
    parse_node_addrs, register_cluster_keys, AddressBook, NetConfig, NodeThread, StartMode,
    TcpRuntime,
};
use xft_simnet::{Actor, PipelineConfig, SimDuration};

/// Runs each client actor on a node thread of its own until together they
/// commit `target` requests or `deadline` passes, and returns the requests
/// committed and their wall-clock latencies. An actor comes with the client
/// indices it answers for: it listens as node `n + ids.start`, the address of
/// every node in `n + ids` is its socket, and its runtime seed is derived
/// from `ids.start`.
fn drive<A>(
    clients: Vec<(A, Range<usize>)>,
    n: usize,
    book: &Arc<AddressBook>,
    seed: u64,
    target: u64,
    deadline: Instant,
) -> (u64, Vec<Duration>)
where
    A: Actor<Msg = XPaxosMsg> + Send + 'static,
{
    let nodes: Vec<NodeThread<A>> = clients
        .into_iter()
        .map(|(actor, ids)| {
            let node = n + ids.start;
            let fail = |what: &str, e: std::io::Error| -> ! {
                eprintln!("xpaxos-client: client {} {what}: {e}", ids.start);
                exit(1);
            };
            let addr = book.get(node).expect("client addr published");
            let listener = TcpListener::bind(addr).unwrap_or_else(|e| fail("cannot bind", e));
            let local = listener
                .local_addr()
                .unwrap_or_else(|e| fail("has no address", e));
            for id in ids.clone() {
                book.set(n + id, local);
            }
            let config = NetConfig {
                seed: seed ^ 0xC11E47 ^ (ids.start as u64) << 8,
                ..NetConfig::default()
            };
            let runtime = TcpRuntime::start(
                actor,
                node,
                Arc::clone(book),
                listener,
                config,
                StartMode::Fresh,
            )
            .unwrap_or_else(|e| fail("start failed", e));
            runtime.spawn(format!("client-{}", ids.start))
        })
        .collect();
    let committed = || nodes.iter().map(|c| c.handle().committed()).sum::<u64>();
    while committed() < target && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let committed = committed();
    let mut latencies = Vec::new();
    for node in nodes {
        latencies.extend(node.handle().latencies());
        node.stop();
    }
    (committed, latencies)
}

fn main() {
    let mut args = Args::parse();
    let t: usize = args.required("--t");
    let clients: usize = args.required("--clients");
    let addrs_raw: String = args.required("--addrs");
    let ops: u64 = args.required("--ops");
    let only_id: Option<usize> = args.optional("--id");
    let window: usize = args.optional("--window").unwrap_or(1);
    let payload: usize = args.optional("--payload").unwrap_or(1024);
    let seed: u64 = args.optional("--seed").unwrap_or(1);
    let delta_ms: u64 = args.optional("--delta-ms").unwrap_or(500);
    let retransmit_ms: u64 = args.optional("--retransmit-ms").unwrap_or(2000);
    let timeout_secs: u64 = args.optional("--timeout-secs").unwrap_or(60);
    let mux: u64 = args.optional("--mux").unwrap_or(0);
    args.finish();

    let addrs = match parse_node_addrs(&addrs_raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xpaxos-client: {e}");
            exit(2);
        }
    };
    let config = XPaxosConfig::new(t, clients)
        .with_delta(SimDuration::from_millis(delta_ms))
        .with_client_retransmit(SimDuration::from_millis(retransmit_ms))
        .with_pipeline(PipelineConfig::default().with_client_window(window));
    let n = config.n();
    if let Some(id) = only_id {
        if id >= clients {
            eprintln!("xpaxos-client: --id {id} out of range for --clients {clients}");
            exit(2);
        }
    }
    if addrs.len() != n + clients {
        eprintln!(
            "xpaxos-client: --addrs lists {} nodes, expected {}",
            addrs.len(),
            n + clients
        );
        exit(2);
    }

    let registry = KeyRegistry::new(seed ^ 0x5eed);
    register_cluster_keys(&registry, &config);
    let book = AddressBook::from_ordered(&addrs);

    let worker_ids: Vec<usize> = match only_id {
        Some(id) => vec![id],
        None => (0..clients).collect(),
    };
    let total_target = ops * worker_ids.len() as u64;
    eprintln!(
        "xpaxos-client: {} worker(s), window {window}, targeting {ops} ops of {payload} B each",
        worker_ids.len()
    );

    let started = Instant::now();
    let deadline = started + Duration::from_secs(timeout_secs);
    let client = |id: usize| {
        let workload = bench_workload(id as u64, payload, Some(ops));
        Client::new(ClientId(id as u64), config.clone(), &registry, workload)
    };
    let (committed, mut latencies) = if mux != 0 {
        if only_id.is_some() {
            eprintln!("xpaxos-client: --id and --mux are mutually exclusive");
            exit(2);
        }
        // One socket for every client slot; replies are demultiplexed by
        // their `client` echo.
        let mux = MuxClient::new(worker_ids.iter().map(|&id| client(id)).collect());
        drive(
            vec![(mux, 0..clients)],
            n,
            &book,
            seed,
            total_target,
            deadline,
        )
    } else {
        let workers = worker_ids.iter().map(|&id| (client(id), id..id + 1));
        drive(workers.collect(), n, &book, seed, total_target, deadline)
    };
    let elapsed = started.elapsed();

    let throughput = committed as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "xpaxos-client: committed {committed}/{total_target} ops in {:.2} s ({throughput:.1} ops/s)",
        elapsed.as_secs_f64()
    );
    latencies.sort_unstable();
    // Nearest-rank percentiles: the workspace's one rule, shared with the
    // simulator's metrics and the telemetry histograms.
    if !latencies.is_empty() {
        let at = |q: f64| latencies[xft_telemetry::percentile_index(latencies.len(), q)];
        let mean = latencies.iter().sum::<Duration>() / latencies.len() as u32;
        println!(
            "xpaxos-client: latency min {}  mean {}  p50 {}  p90 {}  p99 {}",
            fmt_duration(latencies[0]),
            fmt_duration(mean),
            fmt_duration(at(0.50)),
            fmt_duration(at(0.90)),
            fmt_duration(at(0.99)),
        );
    }
    exit(if committed >= total_target { 0 } else { 1 });
}

/// Renders a duration with a human-friendly unit (ns/µs/ms/s).
fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_covers_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(3)), "3.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
