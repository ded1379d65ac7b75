//! `xpaxos-server` — one live XPaxos replica serving the replicated
//! coordination service over TCP.
//!
//! ```text
//! xpaxos-server --id 0 --t 1 --clients 1 \
//!     --addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7010 \
//!     [--seed 1] [--delta-ms 500] [--retransmit-ms 2000] [--run-secs 0] \
//!     [--data-dir PATH] [--checkpoint-interval 128] \
//!     [--state-chunk-bytes 65536] [--state-fetch-window 4] \
//!     [--metrics-addr 127.0.0.1:9100] [--evidence-dir PATH]
//! ```
//!
//! `--addrs` lists every node of the cluster in node-id order: the `2t + 1`
//! replicas first, then the clients. All processes must be launched with the
//! same `--t/--clients/--addrs/--seed/--delta-ms` so they agree on membership,
//! keys and timeouts. `--run-secs 0` runs until killed.
//!
//! The primary keeps up to 8 batches in flight
//! (`xft_simnet::PipelineConfig::max_in_flight_batches`) and cuts a batch once
//! 20 requests are queued (`XPaxosConfig::batch_size`), when the pipe is idle,
//! or when the 2 ms batch timer fires; the cut carries every queued request
//! up to a 1 MiB byte budget, so a backlog behind a full in-flight window
//! leaves in one proposal. The admission queue
//! holds 4096 requests; overflow is shed with BUSY. The client window is the
//! client's own setting (`xpaxos-client --window`).
//!
//! With `--data-dir` the replica runs on durable storage (`xft-store`): every
//! prepare/commit/view transition is WAL-logged and stable checkpoints
//! install snapshot files. A restart with the same `--data-dir` recovers —
//! scan the WAL, verify CRCs, truncate any torn tail, adopt the snapshot,
//! re-execute — and rejoins the live cluster, fetching anything newer through
//! verified state transfer. Every record is fsynced, on a background thread
//! (`SyncPolicy::every(1).overlapped()`): ordering proceeds while the disk
//! syncs, and client replies are held until the WAL is durable up to their
//! LSN (per-record durability, fsync latency off the critical path).
//!
//! Signature verification, batch digesting and signing run on the protocol
//! thread.
//!
//! `--evidence-dir` turns on accountability forensics: every signed
//! protocol message the replica sends or accepts is appended to a durable,
//! hash-chained evidence log under PATH (its own `xft-store` directory,
//! separate from `--data-dir`), garbage-collected at the checkpoint horizon.
//! The log is what the `xft-forensics` auditor ingests to produce proofs of
//! culpability; with `--metrics-addr` it is also scrapeable as text at
//! `GET /evidence`.
//!
//! `--metrics-addr` starts an in-process Prometheus-text scrape endpoint
//! (`GET /metrics`) with a `/healthz` synchrony report, and turns telemetry
//! on (it is off without it): every protocol counter is served as
//! `xft_<name>_total`, protocol stages feed the flight recorder, WAL fsyncs
//! the latency histogram, the transport its drop/queue series, and a panic
//! or a SUSPECT prints a flight-recorder dump to stderr. README lists every
//! series. Telemetry is
//! observation-only — protocol state and message bytes are identical with it
//! on or off (modulo the optional trace field in the envelope, which carries
//! no authenticated meaning).

use std::net::TcpListener;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xft_core::replica::Replica;
use xft_core::XPaxosConfig;
use xft_crypto::KeyRegistry;
use xft_kvstore::CoordinationService;
use xft_net::cli::Args;
use xft_net::{
    deliver_sync_done, parse_node_addrs, register_cluster_keys, AddressBook, MetricsServer,
    NetConfig, StartMode, TcpRuntime,
};
use xft_simnet::SimDuration;
use xft_store::{DiskStorage, SyncPolicy};
use xft_telemetry::Telemetry;

fn main() {
    let mut args = Args::parse();
    let id: usize = args.required("--id");
    let t: usize = args.required("--t");
    let clients: usize = args.required("--clients");
    let addrs_raw: String = args.required("--addrs");
    let seed: u64 = args.optional("--seed").unwrap_or(1);
    let delta_ms: u64 = args.optional("--delta-ms").unwrap_or(500);
    let retransmit_ms: u64 = args.optional("--retransmit-ms").unwrap_or(2000);
    let run_secs: u64 = args.optional("--run-secs").unwrap_or(0);
    let data_dir: Option<String> = args.optional("--data-dir");
    let checkpoint_interval: u64 = args.optional("--checkpoint-interval").unwrap_or(128);
    let state_chunk_bytes: Option<u32> = args.optional("--state-chunk-bytes");
    let state_fetch_window: Option<u32> = args.optional("--state-fetch-window");
    let metrics_addr: Option<String> = args.optional("--metrics-addr");
    let evidence_dir: Option<String> = args.optional("--evidence-dir");
    args.finish();

    let telemetry = if metrics_addr.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    telemetry.set_delta_ns(delta_ms.saturating_mul(1_000_000));
    if telemetry.is_enabled() {
        telemetry.set_dump_on_suspect(true);
        // A crash should leave the last seconds of protocol history behind.
        let hook_telemetry = Arc::clone(&telemetry);
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            default_hook(info);
            eprintln!("{}", hook_telemetry.dump("panic"));
        }));
    }

    let addrs = match parse_node_addrs(&addrs_raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xpaxos-server: {e}");
            exit(2);
        }
    };
    let mut config = XPaxosConfig::new(t, clients)
        .with_delta(SimDuration::from_millis(delta_ms))
        .with_client_retransmit(SimDuration::from_millis(retransmit_ms))
        .with_checkpoint_interval(checkpoint_interval);
    if let Some(chunk) = state_chunk_bytes {
        config = config.with_state_chunk_bytes(chunk);
    }
    if let Some(window) = state_fetch_window {
        config = config.with_state_fetch_window(window);
    }
    let n = config.n();
    if id >= n {
        eprintln!("xpaxos-server: --id {id} out of range for t = {t} (n = {n})");
        exit(2);
    }
    if addrs.len() != n + clients {
        eprintln!(
            "xpaxos-server: --addrs lists {} nodes, expected {} ({} replicas + {} clients)",
            addrs.len(),
            n + clients,
            n,
            clients
        );
        exit(2);
    }

    let registry = KeyRegistry::new(seed ^ 0x5eed);
    register_cluster_keys(&registry, &config);
    let mut replica = Replica::new(id, config, &registry, Box::new(CoordinationService::new()))
        .with_telemetry(Arc::clone(&telemetry));

    // With a data directory the replica runs on durable storage; an existing
    // directory means this is a restart, so recover before going live.
    let mut start_mode = StartMode::Fresh;
    let mut sync_notifier = None;
    if let Some(dir) = &data_dir {
        let storage = match DiskStorage::open(dir, SyncPolicy::every(1).overlapped()) {
            Ok(s) => s.with_telemetry(Arc::clone(&telemetry)),
            Err(e) => {
                eprintln!("xpaxos-server: cannot open --data-dir {dir}: {e}");
                exit(1);
            }
        };
        sync_notifier = storage.sync_notifier_slot();
        let had_state = storage.has_state();
        replica = replica.with_storage(Box::new(storage));
        if had_state {
            let report = replica.recover_from_storage();
            start_mode = StartMode::Recovered;
            eprintln!(
                "xpaxos-server: replica {id} recovered from {dir}: view {}, \
                 executed up to sn {}, snapshot {}, {} WAL records{}",
                report.view.0,
                report.exec_sn.0,
                match report.snapshot_sn {
                    Some(sn) => format!("at sn {}", sn.0),
                    None if report.snapshot_rejected => {
                        "REJECTED (inconsistent with its proof; will state-transfer)".to_string()
                    }
                    None => "none".to_string(),
                },
                report.wal_records,
                if report.lossy_tail {
                    ", torn tail truncated"
                } else {
                    ""
                },
            );
        }
    }

    // The evidence log lives in its own storage directory: it has its own
    // GC cadence (the checkpoint horizon) and its own WAL/snapshot pair, and
    // a restart resumes the hash chain where it left off. Overlapped
    // fsyncs keep the recording overhead off the critical path — evidence
    // is for post-hoc audit, not for the protocol's durability promise, so
    // a crash losing the unsynced tail only shortens the chain (recovery
    // resumes from the intact prefix).
    if let Some(dir) = &evidence_dir {
        let storage = match DiskStorage::open(dir, SyncPolicy::every(1).overlapped()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xpaxos-server: cannot open --evidence-dir {dir}: {e}");
                exit(1);
            }
        };
        let log = xft_core::evidence::EvidenceLog::new(Box::new(storage));
        eprintln!(
            "xpaxos-server: replica {id} recording evidence to {dir} \
             (chain at seq {}, {} dropped by GC)",
            log.anchor().next_seq + log.records().len() as u64,
            log.anchor().dropped,
        );
        // Threaded recording: the protocol thread only encodes the (digest-
        // compacted) payload; SHA-256 chaining and WAL appends run on the
        // dedicated evidence worker (fsyncs overlap on top of that).
        replica = replica.with_evidence_log(log.into_threaded());
    }

    let book = AddressBook::from_ordered(&addrs);
    let listener = match TcpListener::bind(addrs[id]) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("xpaxos-server: cannot bind {}: {e}", addrs[id]);
            exit(1);
        }
    };
    // One shared origin for the runtime clock and the scrape endpoint's
    // /healthz estimate, so "silent for 2Δ" is judged on the same axis the
    // telemetry events were stamped with.
    let origin = Instant::now();
    let net_config = NetConfig {
        seed,
        origin: Some(origin),
        telemetry: Arc::clone(&telemetry),
        ..NetConfig::default()
    };
    let mut runtime = match TcpRuntime::start(
        replica,
        id,
        Arc::clone(&book),
        listener,
        net_config,
        start_mode,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xpaxos-server: start failed: {e}");
            exit(1);
        }
    };
    eprintln!(
        "xpaxos-server: replica {id} of {n} listening on {} (t = {t}, delta = {delta_ms} ms)",
        runtime.local_addr()
    );
    // Late-bind the fsync-completion callback now that the inbox exists.
    deliver_sync_done(&runtime, sync_notifier);

    let metrics_shutdown = Arc::new(AtomicBool::new(false));
    let metrics_server = metrics_addr.as_deref().map(|raw| {
        let addr = match raw.parse() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("xpaxos-server: bad --metrics-addr {raw}: {e}");
                exit(2);
            }
        };
        let server = MetricsServer::start(
            addr,
            Arc::clone(&telemetry),
            Arc::clone(&metrics_shutdown),
            move || origin.elapsed().as_nanos() as u64,
            evidence_dir.as_ref().map(std::path::PathBuf::from),
        );
        match server {
            Ok(s) => {
                eprintln!(
                    "xpaxos-server: replica {id} serving /metrics, /healthz{} on {}",
                    if evidence_dir.is_some() {
                        " and /evidence"
                    } else {
                        ""
                    },
                    s.addr()
                );
                s
            }
            Err(e) => {
                eprintln!("xpaxos-server: cannot bind --metrics-addr {raw}: {e}");
                exit(1);
            }
        }
    });

    if run_secs == 0 {
        runtime.run();
    } else {
        runtime.run_for(Duration::from_secs(run_secs));
    }

    if let Some(server) = metrics_server {
        metrics_shutdown.store(true, Ordering::Relaxed);
        server.join();
    }
    let stats = runtime.transport_stats();
    let replica = runtime.shutdown();
    eprintln!(
        "xpaxos-server: replica {id} stopping in view {:?}: {} batches committed, \
         executed up to sn {}, {} frames sent / {} received",
        replica.view(),
        replica.committed_batches(),
        replica.executed_upto().0,
        stats.sent.load(std::sync::atomic::Ordering::Relaxed),
        stats.received.load(std::sync::atomic::Ordering::Relaxed),
    );
}
