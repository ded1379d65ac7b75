//! `xft-benchmark` — the repo's benchmark of the XPaxos request path.
//!
//! ```text
//! xft-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
//!               [--smoke] [--out DIR]
//! ```
//!
//! One invocation runs one workload (`tcp_sat`, `tcp_durable`, `tcp_lone`,
//! `sim_geo_failover`) in a process of its own — peak RSS is per process —
//! checks its outputs, prints every metric by name with its unit, and ends
//! with one JSON line: the end-to-end metrics (tracing off) by default, the
//! per-layer metrics with `--trace`. Any failed check prints which one and
//! exits non-zero without a result line. `benchmark/run.sh` builds the
//! package and loops over the workloads; see `benchmark/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod opgen;
mod procfs;
mod replay;
mod report;
mod sim;
mod stats;
mod tcp;
mod trace;

use report::Values;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tcp::{Plan, TcpOutcome, TcpSpec};

/// Timed rounds of an untraced TCP run; every timing metric is their median.
const ROUNDS: usize = 5;
/// Rounds of each of the two clusters (untraced for the ledger, traced for
/// the spans) of a `--trace` run. Each lasts as long as an untraced round.
const TRACE_ROUNDS: usize = 2;
/// Set-ups per untraced TCP run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Real seconds one repeat of the simulated workload is budgeted at when
/// turning `--seconds` into a repeat count.
const SIM_REPEAT_BUDGET_S: f64 = 4.0;

const TCP_WORKLOADS: [TcpSpec; 3] = [
    TcpSpec {
        name: "tcp_sat",
        sub_clients: 64,
        window: 8,
        durable: false,
    },
    TcpSpec {
        name: "tcp_durable",
        sub_clients: 64,
        window: 8,
        durable: true,
    },
    TcpSpec {
        name: "tcp_lone",
        sub_clients: 1,
        window: 1,
        durable: false,
    },
];
const SIM_WORKLOAD: &str = "sim_geo_failover";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            // `--trace` alone, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if args.smoke {
        args.seconds = 1.0;
    }
    Ok(args)
}

/// What one workload run produced.
struct Report {
    end_to_end: Values,
    per_layer: Values,
    attempted: u64,
    failed: u64,
    /// Free-form lines for the person reading (sample counts, spreads).
    notes: Vec<String>,
}

fn tcp_end_to_end(out: &TcpOutcome) -> Values {
    Values::from([
        ("setup_s", stats::median_or_zero(&out.setup_s)),
        ("throughput_ops_s", out.median_of(|r| r.ops as f64 / r.secs)),
        (
            "cpu_us_per_op",
            out.median_of(|r| r.cpu_ns as f64 / 1e3 / r.ops.max(1) as f64),
        ),
        ("commit_p50_ms", out.median_of(|r| r.p50_ns as f64 / 1e6)),
        ("commit_p99_ms", out.median_of(|r| r.p99_ns as f64 / 1e6)),
        ("peak_rss_mb", out.peak_rss_mb),
    ])
}

fn tcp_notes(out: &TcpOutcome) -> Vec<String> {
    let per_round = |f: &dyn Fn(&tcp::Round) -> String| -> String {
        out.rounds.iter().map(f).collect::<Vec<_>>().join(" ")
    };
    vec![
        format!(
            "rounds: {} x {:.2} s, closed loop; set-ups: {:?} s",
            out.rounds.len(),
            out.rounds.first().map_or(0.0, |r| r.secs),
            out.setup_s
        ),
        format!(
            "per round  ops/s: {}",
            per_round(&|r| format!("{:.0}", r.ops as f64 / r.secs))
        ),
        format!(
            "per round  p50 ms: {}   p99 ms: {}",
            per_round(&|r| format!("{:.3}", r.p50_ns as f64 / 1e6)),
            per_round(&|r| format!("{:.3}", r.p99_ns as f64 / 1e6))
        ),
        format!(
            "median of rounds  p90 ms: {:.3}   p95 ms: {:.3}",
            out.median_of(|r| r.p90_ns as f64 / 1e6),
            out.median_of(|r| r.p95_ns as f64 / 1e6)
        ),
        format!(
            "latency samples per round: {} (beyond p99: {})",
            per_round(&|r| r.ops.to_string()),
            per_round(&|r| r.beyond_p99.to_string())
        ),
        format!(
            "ops issued {} / executed {} over the cluster's life",
            out.issued, out.executed
        ),
        format!(
            "wall-clock s by phase: {}",
            out.phases
                .iter()
                .map(|(name, s)| format!("{name} {s:.2}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ]
}

fn run_tcp(spec: TcpSpec, args: &Args, origin: Instant) -> Result<Report, String> {
    let rounds = if args.smoke { 1 } else { ROUNDS };
    let round_len = Duration::from_secs_f64(args.seconds / rounds as f64);
    let plan = Plan {
        seed: args.seed,
        setups: if args.smoke || args.trace { 1 } else { SETUPS },
        rounds,
        round_len,
        traced: false,
        idle_probe: args.trace,
        out_dir: &args.out,
        origin,
        warmup_min: if args.smoke {
            Duration::from_millis(500)
        } else {
            tcp::WARMUP_MIN
        },
    };
    if args.trace {
        let rounds = if args.smoke { 1 } else { TRACE_ROUNDS };
        return trace_tcp(spec, args, Plan { rounds, ..plan });
    }
    let out = tcp::run(spec, &plan)?;
    Ok(Report {
        end_to_end: tcp_end_to_end(&out),
        attempted: out.issued,
        failed: out.issued - out.executed,
        notes: tcp_notes(&out),
        per_layer: out.layer,
    })
}

/// `--trace`: an untraced cluster for the ledger and the public stats, a
/// traced one for the spans, then the layer replay. Never the source of an
/// end-to-end number.
fn trace_tcp(spec: TcpSpec, args: &Args, plan: Plan<'_>) -> Result<Report, String> {
    let origin = plan.origin;
    let plain = tcp::run(spec, &plan)?;
    let traced = tcp::run(
        spec,
        &Plan {
            traced: true,
            idle_probe: false,
            ..plan
        },
    )?;
    let replay_sink = trace::SpanSink::new(origin, "replay", 0xF);
    let ops_per_batch = plain
        .layer
        .get("core.ops_per_batch")
        .copied()
        .unwrap_or(1.0);
    let replayed = replay::run(
        args.seed,
        spec.sub_clients,
        ops_per_batch,
        spec.durable,
        &replay_sink,
    );

    let trace_path = args.out.join(format!("trace-{}.jsonl", spec.name));
    write_trace(&trace_path, traced.sinks.iter().chain([&replay_sink]))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let mut layer = plain.layer.clone();
    // Span- and telemetry-derived numbers come from the traced cluster.
    for name in ["crypto.batch_fallbacks", "store.sync_ms_p50"] {
        layer.insert(name, traced.layer.get(name).copied().unwrap_or(0.0));
    }
    let executed = traced.executed.max(1) as f64;
    let span_us_per_op = |sinks: &[std::sync::Arc<trace::SpanSink>], name: &str| -> f64 {
        sinks.iter().map(|s| s.totals(name).total_ns).sum::<u64>() as f64 / 1e3 / executed
    };
    let span_median_ms = |name: &str| -> f64 {
        let all: Vec<f64> = traced
            .sinks
            .iter()
            .flat_map(|s| s.durations_ns(name))
            .map(|ns| ns as f64 / 1e6)
            .collect();
        stats::median_or_zero(&all)
    };
    layer.insert(
        "store.append_us_per_op",
        span_us_per_op(&traced.sinks, "store.append"),
    );
    layer.insert(
        "kvstore.apply_us_per_op",
        span_us_per_op(&traced.sinks, "kvstore.apply"),
    );
    layer.insert(
        "store.snapshot_install_ms",
        span_median_ms("store.install_snapshot"),
    );
    layer.insert("kvstore.snapshot_ms", span_median_ms("kvstore.snapshot"));
    layer.insert(
        "kvstore.state_digest_ms",
        span_median_ms("kvstore.state_digest"),
    );
    let (cpu_plain, cpu_traced) = (plain.cpu_us_per_op(), traced.cpu_us_per_op());
    layer.insert(
        "telemetry.overhead_pct",
        100.0 * (cpu_traced - cpu_plain) / cpu_plain.max(f64::MIN_POSITIVE),
    );
    layer.extend(replayed.layer.iter().map(|(k, v)| (*k, *v)));

    // Reconciliation. Every span name the wrappers record on the primary's
    // thread, per executed op of the traced cluster:
    let primary_sink = &traced.sinks[traced.primary..=traced.primary];
    let wrapper_names = [
        "store.append",
        "store.sync",
        "store.install_snapshot",
        "kvstore.apply",
        "kvstore.snapshot",
        "kvstore.state_digest",
    ];
    let primary_wrapped: f64 = wrapper_names
        .iter()
        .map(|n| span_us_per_op(primary_sink, n))
        .sum();
    let all_wrapped: f64 = wrapper_names
        .iter()
        .map(|n| span_us_per_op(&traced.sinks, n))
        .sum();
    // Thread CPU and spans are both taken from the traced cluster, so the two
    // sides of each subtraction saw the same run.
    let get = |name: &str| traced.layer.get(name).copied().unwrap_or(0.0);
    let order_self =
        get("core.primary_cpu_us_per_op") - replayed.primary_share_us - primary_wrapped;
    let side_threads = get("net.read_cpu_us_per_op")
        + get("net.write_cpu_us_per_op")
        + get("net.accept_cpu_us_per_op")
        + get("store.fsync_cpu_us_per_op")
        + get("evidence.worker_cpu_us_per_op")
        + get("crypto.pool_cpu_us_per_op");
    let residual = cpu_traced - (replayed.protocol_threads_us + all_wrapped + side_threads);
    layer.insert("core.order_self_us_per_op", order_self);
    layer.insert("ledger.residual_us_per_op", residual);
    let failed = (plain.issued - plain.executed) + (traced.issued - traced.executed);

    let mut notes = tcp_notes(&plain);
    let replay_note = |name: &str| replayed.layer.get(name).copied().unwrap_or(0.0);
    notes.push(format!(
        "layer replay: {} batches of {} ops; {:.3} evidence records/op; the replay's own \
         overhead (batch spans' self time) {:.3} us/op",
        replay_note("replay.batches"),
        replay_note("replay.ops_per_batch"),
        replay_note("replay.evidence_records_per_op"),
        replay_note("replay.self_us_per_op"),
    ));
    notes.push(format!(
        "traced run: cpu_us_per_op {cpu_traced:.3} vs {cpu_plain:.3} untraced; spans in {}",
        trace_path.display()
    ));
    notes.push(format!(
        "reconciliation (derived, traced run): primary thread {:.3} us/op = replayed share {:.3} \
         (wire encode + crypto{}) + wrapper spans {:.3} (store + kvstore; wall-clock, so they \
         include any time the thread was preempted or blocked in I/O) + ordering self {:.3}",
        get("core.primary_cpu_us_per_op"),
        replayed.primary_share_us,
        if spec.durable { " + evidence" } else { "" },
        primary_wrapped,
        order_self
    ));
    notes.push(format!(
        "residual (traced run): cpu_us_per_op {cpu_traced:.3} - (replayed protocol-thread work {:.3} + wrapper \
         spans {:.3} + transport/fsync/evidence threads {:.3}) = {residual:.3} us/op: ordering \
         logic on the three replicas, the client actor, wake-ups and the harness",
        replayed.protocol_threads_us, all_wrapped, side_threads
    ));
    Ok(Report {
        end_to_end: tcp_end_to_end(&plain),
        per_layer: layer,
        attempted: plain.issued + traced.issued,
        failed,
        notes,
    })
}

fn write_trace<'a>(
    path: &Path,
    sinks: impl Iterator<Item = &'a std::sync::Arc<trace::SpanSink>>,
) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for sink in sinks {
        sink.write_jsonl(&mut file)?;
    }
    file.flush()
}

fn run_sim(args: &Args) -> Result<Report, String> {
    let repeats = ((args.seconds / SIM_REPEAT_BUDGET_S).round() as usize).max(2);
    let out = sim::run(args.seed, repeats)?;
    let clock = &out.clock;
    let end_to_end = Values::from([
        ("setup_s", stats::median_or_zero(&out.setup_s)),
        ("throughput_ops_s", clock.throughput_ops_s),
        ("cpu_us_per_op", stats::median_or_zero(&out.cpu_us_per_op)),
        ("commit_p50_ms", clock.commit_p50_ms),
        ("commit_p99_ms", clock.commit_p99_ms),
        ("peak_rss_mb", out.peak_rss_mb),
    ]);
    let notes = vec![
        format!(
            "{repeats} repeats of 60 simulated seconds, {} closed-loop clients, window 1; \
             fingerprint {:#018x} on every repeat; {} ops committed",
            sim::CLIENTS,
            clock.fingerprint,
            clock.committed
        ),
        format!(
            "throughput and latency: median of {} fault-free rounds of 1 simulated second, \
             ~{} latency samples a round ({} beyond p99), on the simulated clock; {} network \
             schedule(s) of this seed rejected for a fault before the scripted crash",
            clock.samples.0,
            clock.samples.1,
            clock.samples.2,
            clock
                .layer
                .get("simnet.schedules_rejected")
                .copied()
                .unwrap_or(0.0)
        ),
        format!(
            "real set-up s per repeat: {:?}; real cpu us/op per repeat: {:?}",
            out.setup_s, out.cpu_us_per_op
        ),
        format!(
            "attempted/failed cover the fault-free phase: {} ops issued up to 1 s before the \
             crash, {} of them committed by the end of the run; the whole run's share is \
             client.failed_ops_share",
            out.issued, out.executed
        ),
    ];
    Ok(Report {
        end_to_end,
        per_layer: clock.layer.clone(),
        attempted: out.issued,
        failed: out.issued.saturating_sub(out.executed),
        notes,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let origin = Instant::now();
    if let Some(spec) = TCP_WORKLOADS.iter().find(|s| s.name == args.workload) {
        run_tcp(*spec, args, origin)
    } else if args.workload == SIM_WORKLOAD {
        run_sim(args)
    } else {
        let known: Vec<&str> = TCP_WORKLOADS
            .iter()
            .map(|s| s.name)
            .chain([SIM_WORKLOAD])
            .collect();
        Err(format!(
            "unknown workload {:?}; --workload takes one of {known:?}",
            args.workload
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("xft-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("xft-benchmark: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} ({} s timed{}{}); host parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        if args.smoke { ", smoke" } else { "" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "signatures are HMAC-SHA-256 stand-ins; loopback injects no message delay (TCP latencies \
         are CPU + kernel + scheduling time only); sim_geo_failover simulates the EC2 RTT matrix \
         and the RSA-1024 cost model"
    );
    for note in &report.notes {
        println!("  {note}");
    }
    if !args.trace {
        report::print_table(
            "end-to-end (tracing off)",
            report::END_TO_END,
            &report.end_to_end,
        );
    }
    report::print_table(
        if args.trace {
            "per-layer (traced run + replay)"
        } else {
            "per-layer (thread ledger and public stats; --trace adds spans and the replay)"
        },
        report::PER_LAYER,
        &report.per_layer,
    );
    let (registry, values) = if args.trace {
        (report::PER_LAYER, &report.per_layer)
    } else {
        (report::END_TO_END, &report.end_to_end)
    };
    println!(
        "{}",
        report::result_json(registry, values, report.attempted, report.failed)
    );
    ExitCode::SUCCESS
}
