//! The benchmark's metric registry and its two output forms: a table a
//! person reads, and the one-line JSON result the driver reads.
//!
//! The registry is the single list of metric names and units; `BENCHMARK.json`
//! repeats it (a unit test keeps the two in step). Every workload reports
//! every metric of the selected kind, with 0 where a per-layer metric does
//! not apply to the workload.

use std::collections::BTreeMap;

/// `(name, unit, what it is)` of every end-to-end metric, measured with
/// tracing off.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    (
        "setup_s",
        "s",
        "workload start to first timed round: bind, key registration, prefill, warm-up (median of the run's set-ups)",
    ),
    (
        "throughput_ops_s",
        "1/s",
        "committed client ops per second (median of rounds; simulated seconds on sim_geo_failover)",
    ),
    (
        "cpu_us_per_op",
        "us",
        "process CPU, all threads, per committed op (median of rounds)",
    ),
    (
        "commit_p50_ms",
        "ms",
        "client send -> commit, median (median of rounds)",
    ),
    (
        "commit_p99_ms",
        "ms",
        "client send -> commit, 99th percentile (median of rounds)",
    ),
    ("peak_rss_mb", "MB", "VmHWM at workload end"),
];

/// `(name, unit, what it is)` of every per-layer metric. The layer is the
/// module name before the first dot.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Thread ledger: /proc/self/task/*/schedstat bracketing the timed phase.
    ("net.read_cpu_us_per_op", "us", "xft-read-* threads, on-CPU"),
    ("net.write_cpu_us_per_op", "us", "xft-write-* threads, on-CPU"),
    ("net.accept_cpu_us_per_op", "us", "xft-accept-* threads, on-CPU"),
    ("net.read_runq_wait_us_per_op", "us", "xft-read-* threads, runnable but waiting for a CPU"),
    ("net.write_runq_wait_us_per_op", "us", "xft-write-* threads, runnable but waiting for a CPU"),
    ("core.primary_cpu_us_per_op", "us", "the primary's protocol thread, on-CPU"),
    ("core.follower_cpu_us_per_op", "us", "the follower's protocol thread, on-CPU"),
    ("core.passive_cpu_us_per_op", "us", "the passive replica's protocol thread, on-CPU"),
    ("core.primary_runq_wait_us_per_op", "us", "the primary's protocol thread, waiting for a CPU"),
    ("client.cpu_us_per_op", "us", "the bench-client thread (load generator), on-CPU"),
    ("store.fsync_cpu_us_per_op", "us", "xft-fsync threads (WAL and evidence dirs), on-CPU"),
    ("evidence.worker_cpu_us_per_op", "us", "xft-evidence threads, on-CPU"),
    ("crypto.pool_cpu_us_per_op", "us", "xft-crypto-* threads (idle in FrontMode::Inline)"),
    ("harness.cpu_us_per_op", "us", "the benchmark's own main thread"),
    ("ledger.unattributed_pct", "%", "share of cpu_us_per_op in threads no group claims"),
    // Public stats, read after the timed phase.
    ("net.frames_sent_per_op", "count", "TransportStats.sent of the replicas per executed op"),
    ("net.frames_received_per_op", "count", "TransportStats.received of the replicas per executed op"),
    ("net.frames_dropped", "count", "TransportStats drops (queue full + unreachable)"),
    ("net.idle_cpu_cores", "cores", "CPU/s the cluster burns for 2 s after the clients stop"),
    ("core.ops_per_batch", "count", "executed ops per committed batch"),
    ("core.batches_proposed", "count", "Metrics::counter(batches_proposed)"),
    ("core.shed_total", "count", "requests shed with BUSY"),
    ("core.checkpoints", "count", "checkpoints sealed, all replicas"),
    ("core.view_changes", "count", "view installs recorded, all replicas (must be 0 on TCP)"),
    ("core.suspects_sent", "count", "SUSPECT messages sent"),
    ("core.client_retransmissions", "count", "client RE-SEND broadcasts"),
    ("core.view_change_ms", "ms", "sim: crash -> first installed view"),
    ("store.syncs_per_op", "count", "StorageStats.syncs of the WALs per executed op"),
    ("store.wal_bytes_per_op", "B", "WAL record bytes appended per executed op"),
    ("store.recover_ms", "ms", "reopen a data dir + recover_from_storage (median of replicas)"),
    ("evidence.records_per_op", "count", "evidence records appended per executed op"),
    ("evidence.bytes_per_op", "B", "evidence record bytes appended per executed op"),
    ("kvstore.state_bytes_start", "B", "service snapshot size at the start of the timed phase"),
    ("kvstore.state_bytes", "B", "service snapshot size at the end of the timed phase"),
    ("crypto.paper_rsa_us_per_op", "us", "cost-model RSA-1024 CPU per op (sim: charged by the runtime; TCP: replayed op counts x CostModel::paper_default)"),
    ("simnet.events_per_op", "count", "simulator events per committed op"),
    ("simnet.msgs_delivered_per_op", "count", "simulated messages delivered per committed op"),
    ("simnet.schedules_rejected", "count", "network schedules of the seed skipped because a message delayed beyond delta stalled the cluster before the scripted crash"),
    // What the client saw of the fault (sim_geo_failover); too seed-dependent
    // to carry a bound, so reported here and not end to end.
    ("client.unavailable_ms", "ms", "longest gap between consecutive commits from the crash on"),
    ("client.post_fault_throughput_ops_s", "1/s", "throughput over [45 s, 60 s), after recovery"),
    ("client.whole_run_p99_ms", "ms", "p99 over every commit after warm-up, outage included"),
    ("client.longest_prefault_gap_ms", "ms", "longest gap between commits before the crash"),
    ("client.failed_ops_share", "share", "ops issued but never executed, over ops issued"),
    // Traced run: spans from the benchmark's storage and state-machine wrappers.
    ("store.append_us_per_op", "us", "Storage::append spans, all replicas, per executed op"),
    ("store.sync_ms_p50", "ms", "median WAL fsync: xft_wal_fsync_seconds of the traced run, upper bound of its log2 bucket"),
    ("store.snapshot_install_ms", "ms", "median Storage::install_snapshot span"),
    ("kvstore.apply_us_per_op", "us", "StateMachine::apply spans, all replicas, per executed op"),
    ("kvstore.snapshot_ms", "ms", "median StateMachine::snapshot span"),
    ("kvstore.state_digest_ms", "ms", "median StateMachine::state_digest span"),
    ("crypto.batch_fallbacks", "count", "xft_sig_batch_fallback_total of the traced run"),
    ("telemetry.overhead_pct", "%", "traced vs untraced cpu_us_per_op on this workload"),
    // Layer replay: public entry points timed outside any cluster.
    ("crypto.client_sign_us_per_op", "us", "request digest + Signer::sign_digest"),
    ("wire.encode_us_per_op", "us", "encode_msg_traced_vec, every message of a batch"),
    ("wire.frame_us_per_op", "us", "frame_bytes + FrameBuffer::extend/next_frame"),
    ("wire.decode_us_per_op", "us", "decode_msg, every message of a batch"),
    ("wire.bytes_per_op", "B", "framed bytes per op"),
    ("wire.msgs_per_op", "count", "messages per op"),
    ("crypto.verify_batch_us_per_op", "us", "CryptoFront::verify_client_sigs, primary + follower"),
    ("crypto.verify_sig_us_per_op", "us", "single-signature verifies of replica statements"),
    ("crypto.digest_batch_us_per_op", "us", "CryptoFront::digest_batch, primary + follower"),
    ("crypto.replica_sign_us_per_op", "us", "CryptoFront::sign_digest, primary + follower"),
    ("crypto.sign_per_op", "count", "signatures made per op"),
    ("crypto.verify_per_op", "count", "signatures verified per op"),
    ("evidence.record_us_per_op", "us", "EvidenceLog::record on an in-memory log, per record"),
    // Reconciliation.
    ("core.order_self_us_per_op", "us", "derived, traced run: primary thread CPU minus its replayed wire-encode, crypto and evidence share and its store and kvstore spans"),
    ("ledger.residual_us_per_op", "us", "traced run: cpu_us_per_op minus (replayed protocol-thread work + wrapper spans + transport, fsync and evidence threads)"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Formats `v` with all the digits it was measured with.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints the table a person reads: one metric per line with unit and note.
pub fn print_table(title: &str, registry: &[(&str, &str, &str)], values: &Values) {
    println!("== {title}");
    for (name, unit, what) in registry {
        let v = values.get(name).copied().unwrap_or(0.0);
        println!("{name:<36} {v:>16.4} {unit:<6} {what}");
    }
}

/// The driver's result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every metric of `registry`.
pub fn result_json(
    registry: &[(&str, &str, &str)],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = registry
        .iter()
        .map(|(name, unit, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(values.get(name).copied().unwrap_or(0.0))
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `"name": "<x>"` values out of the JSON array that follows
    /// `"<section>":` — enough of a parser for the flat file we wrote.
    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} used twice");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_has_every_metric_and_full_digits() {
        let values = Values::from([("setup_s", 2.001607173), ("throughput_ops_s", 48188.25)]);
        let line = result_json(END_TO_END, &values, 100, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 100, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 2.001607173, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
