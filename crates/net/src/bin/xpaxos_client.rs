//! `xpaxos-client` — windowed clients driving a live XPaxos cluster with
//! coordination-service writes and reporting throughput/latency percentiles.
//!
//! ```text
//! xpaxos-client --t 1 --clients 4 --window 8 \
//!     --addrs <replica addrs>,<client addrs> \
//!     --ops 1000 [--id 0] [--payload 1024] [--seed 1] [--delta-ms 500] \
//!     [--retransmit-ms 2000] [--timeout-secs 60] [--mux 1] [--json OUT]
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
//! slot (pass the first client address `clients` times). `--json OUT` writes
//! `{"ops_per_sec", "p50", "p90", "p99"}` (latencies in milliseconds).

use std::net::TcpListener;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xft_core::client::{Client, MuxClient};
use xft_core::types::ClientId;
use xft_core::XPaxosConfig;
use xft_crypto::KeyRegistry;
use xft_kvstore::workload::bench_workload;
use xft_net::cli::Args;
use xft_net::{
    parse_node_addrs, register_cluster_keys, AddressBook, NetConfig, StartMode, TcpRuntime,
};
use xft_simnet::{PipelineConfig, SimDuration};

/// One worker's outcome: requests committed and their wall-clock latencies.
struct WorkerResult {
    committed: u64,
    latencies: Vec<Duration>,
}

/// Runs one windowed client to completion (or the shared deadline).
#[allow(clippy::too_many_arguments)]
fn run_worker(
    id: usize,
    config: XPaxosConfig,
    registry: Arc<KeyRegistry>,
    book: Arc<AddressBook>,
    ops: u64,
    payload: usize,
    seed: u64,
    deadline: Instant,
) -> WorkerResult {
    let n = config.n();
    let node = n + id;
    let workload = bench_workload(id as u64, payload, Some(ops));
    let client = Client::new(ClientId(id as u64), config, &registry, workload);
    let listener = match TcpListener::bind(book.get(node).expect("client addr published")) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("xpaxos-client: worker {id} cannot bind: {e}");
            return WorkerResult {
                committed: 0,
                latencies: Vec::new(),
            };
        }
    };
    let mut runtime = match TcpRuntime::start(
        client,
        node,
        book,
        listener,
        NetConfig {
            seed: seed ^ 0xC11E47 ^ (id as u64) << 8,
            ..NetConfig::default()
        },
        StartMode::Fresh,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xpaxos-client: worker {id} start failed: {e}");
            return WorkerResult {
                committed: 0,
                latencies: Vec::new(),
            };
        }
    };
    let handle = runtime.handle();
    while handle.committed() < ops && Instant::now() < deadline {
        runtime.run_for(Duration::from_millis(100));
    }
    let committed = handle.committed();
    let latencies = handle.latencies();
    runtime.shutdown();
    WorkerResult {
        committed,
        latencies,
    }
}

/// Runs **all** workers as sub-clients of one [`MuxClient`] on a single
/// socket (`--mux`). The cluster must publish the same address for every
/// client slot; replies are demultiplexed by their `client` echo.
#[allow(clippy::too_many_arguments)]
fn run_mux(
    config: XPaxosConfig,
    registry: Arc<KeyRegistry>,
    book: Arc<AddressBook>,
    clients: usize,
    ops: u64,
    payload: usize,
    seed: u64,
    deadline: Instant,
) -> WorkerResult {
    let n = config.n();
    let subs: Vec<Client> = (0..clients)
        .map(|id| {
            let workload = bench_workload(id as u64, payload, Some(ops));
            Client::new(ClientId(id as u64), config.clone(), &registry, workload)
        })
        .collect();
    let mux = MuxClient::new(subs);
    let listener = match TcpListener::bind(book.get(n).expect("client addr published")) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("xpaxos-client: mux cannot bind: {e}");
            return WorkerResult {
                committed: 0,
                latencies: Vec::new(),
            };
        }
    };
    // Every client slot resolves to the mux endpoint.
    let local = listener.local_addr().expect("mux listener addr");
    for id in 0..clients {
        book.set(n + id, local);
    }
    let mut runtime = match TcpRuntime::start(
        mux,
        n,
        book,
        listener,
        NetConfig {
            seed: seed ^ 0xC11E47,
            ..NetConfig::default()
        },
        StartMode::Fresh,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xpaxos-client: mux start failed: {e}");
            return WorkerResult {
                committed: 0,
                latencies: Vec::new(),
            };
        }
    };
    let target = ops * clients as u64;
    let handle = runtime.handle();
    while handle.committed() < target && Instant::now() < deadline {
        runtime.run_for(Duration::from_millis(100));
    }
    let committed = handle.committed();
    let latencies = handle.latencies();
    runtime.shutdown();
    WorkerResult {
        committed,
        latencies,
    }
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
    let json_out: Option<String> = args.optional("--json");
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
    let (mut committed, mut latencies): (u64, Vec<Duration>) = (0, Vec::new());
    if mux != 0 {
        if only_id.is_some() {
            eprintln!("xpaxos-client: --id and --mux are mutually exclusive");
            exit(2);
        }
        let result = run_mux(
            config, registry, book, clients, ops, payload, seed, deadline,
        );
        committed = result.committed;
        latencies = result.latencies;
    } else {
        let handles: Vec<std::thread::JoinHandle<WorkerResult>> = worker_ids
            .into_iter()
            .map(|id| {
                let config = config.clone();
                let registry = Arc::clone(&registry);
                let book = Arc::clone(&book);
                std::thread::Builder::new()
                    .name(format!("client-{id}"))
                    .spawn(move || {
                        run_worker(id, config, registry, book, ops, payload, seed, deadline)
                    })
                    .expect("spawn client worker")
            })
            .collect();
        for handle in handles {
            let result = handle.join().expect("client worker panicked");
            committed += result.committed;
            latencies.extend(result.latencies);
        }
    }
    let elapsed = started.elapsed();

    let throughput = committed as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "xpaxos-client: committed {committed}/{total_target} ops in {:.2} s ({throughput:.1} ops/s)",
        elapsed.as_secs_f64()
    );
    latencies.sort_unstable();
    // Nearest-rank percentiles: the workspace's one rule, shared with the
    // simulator's metrics and the telemetry histograms.
    let percentiles = (!latencies.is_empty()).then(|| {
        let at = |q: f64| latencies[xft_telemetry::percentile_index(latencies.len(), q)];
        (at(0.50), at(0.90), at(0.99))
    });
    if let Some((p50, p90, p99)) = percentiles {
        let mean = latencies.iter().sum::<Duration>() / latencies.len() as u32;
        println!(
            "xpaxos-client: latency min {}  mean {}  p50 {}  p90 {}  p99 {}",
            fmt_duration(latencies[0]),
            fmt_duration(mean),
            fmt_duration(p50),
            fmt_duration(p90),
            fmt_duration(p99),
        );
    }
    if let Some(path) = json_out {
        // Latency percentiles in milliseconds.
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let (p50, p90, p99) = percentiles
            .map(|(p50, p90, p99)| (ms(p50), ms(p90), ms(p99)))
            .unwrap_or((0.0, 0.0, 0.0));
        let json = format!(
            "{{\"ops_per_sec\": {throughput:.1}, \"p50\": {p50:.4}, \"p90\": {p90:.4}, \"p99\": {p99:.4}}}\n"
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("xpaxos-client: cannot write {path}: {e}");
        }
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
