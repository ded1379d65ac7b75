//! `chaos-explorer` — explore thousands of seeded random fault schedules,
//! verify every run's client history for linearizability, and shrink any
//! failing schedule to a minimal `FaultScript` reproducer.
//!
//! ```text
//! chaos-explorer --seeds 1000                     # in-budget sweep: must be clean
//! chaos-explorer --seeds 200 --mode beyond        # over-budget sweep: must be caught
//! chaos-explorer --mode demo                      # deterministic over-budget demo
//! chaos-explorer --mode audit --proof-dump DIR    # single equivocator -> proof bundle
//! chaos-explorer --seeds 50 --tcp-sample 2        # also replay 2 seeds over real sockets
//! chaos-explorer --seeds 200 --fault-detection true  # simulated replicas run fault detection (§4.4)
//! chaos-explorer --mode demo --recorder-dump DIR  # attach a flight-recorder dump
//! ```
//!
//! With `--recorder-dump DIR`, any shrunk reproducer is re-run with the
//! telemetry flight recorder on (observation-only, so the verdict is
//! unchanged) and the interleaved protocol history of all replicas is written
//! to `DIR/flight-recorder-seed-<seed>.txt` next to the reproducer output.
//!
//! Every shrunk reproducer also gets an accountability post-mortem: the
//! shrunk schedule is re-run with evidence logging on, the harvested logs
//! are audited, and any proofs of culpability are checked against the
//! schedule's injected-fault ground truth (an accusation outside the
//! injected-Byzantine set fails the run). With `--proof-dump DIR` the proof
//! bundle is written to `DIR/proof-seed-<seed>.bin` for `xft-audit`.
//!
//! `--mode audit` runs the deterministic single-equivocator demonstration
//! (the view-0 primary suffers amnesia, re-proposes early slots, and the
//! auditor must pin *exactly* that replica from the followers' evidence).
//!
//! Every per-seed line carries the run's metrics fingerprint, and every mode
//! ends its summary with one combined fingerprint over the seeds it ran, in
//! seed order: two builds whose sweeps print the same combined fingerprint
//! ran every seed byte-identically.
//!
//! Exit code 0 = the run's expectation held (clean for in-budget sweeps,
//! caught-and-shrunk for `beyond`/`demo`, culprit pinned for `audit`); 1 =
//! it did not.

use std::process::exit;
use std::time::Instant;
use xft_chaos::explorer::{demo_violation_events, record_flight, run_schedule};
use xft_chaos::forensics::demo_equivocation_events;
use xft_chaos::tcp::{run_seed_tcp, TcpChaosConfig};
use xft_chaos::{
    audit_run, combined_fingerprint, explore, format_script, shrink, ExplorerConfig, SeedReport,
};
use xft_net::cli::Args;
use xft_simnet::SimDuration;

fn main() {
    let mut args = Args::parse();
    let seeds: u64 = args.optional("--seeds").unwrap_or(200);
    let base_seed: u64 = args.optional("--base-seed").unwrap_or(1);
    let threads: usize = args.optional("--threads").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    });
    let mode: String = args
        .optional("--mode")
        .unwrap_or_else(|| "budget".to_string());
    let t: usize = args.optional("--t").unwrap_or(1);
    let clients: usize = args.optional("--clients").unwrap_or(3);
    let keys: usize = args.optional("--keys").unwrap_or(4);
    let read_pct: u64 = args.optional("--read-pct").unwrap_or(35);
    let max_events: usize = args.optional("--events").unwrap_or(8);
    let window_secs: f64 = args.optional("--window-secs").unwrap_or(8.0);
    let drain_secs: f64 = args.optional("--drain-secs").unwrap_or(22.0);
    let tcp_sample: u64 = args.optional("--tcp-sample").unwrap_or(0);
    let checkpoint_interval: u64 = args.optional("--checkpoint-interval").unwrap_or(32);
    let fault_detection: bool = args.optional("--fault-detection").unwrap_or(false);
    let verbose: bool = args.optional("--verbose").unwrap_or(false);
    let recorder_dump: Option<String> = args.optional("--recorder-dump");
    let proof_dump: Option<String> = args.optional("--proof-dump");
    args.finish();

    let cfg = ExplorerConfig {
        t,
        clients,
        keys,
        read_pct,
        fault_window: SimDuration::from_secs_f64(window_secs),
        drain: SimDuration::from_secs_f64(drain_secs),
        max_events,
        beyond_budget: mode == "beyond",
        checkpoint_interval,
        fault_detection,
    };

    match mode.as_str() {
        "budget" => {
            let failing = sweep(&cfg, base_seed, seeds, threads, verbose);
            let tcp_ok = tcp_phase(&cfg, base_seed, tcp_sample);
            if failing.is_empty() && tcp_ok {
                println!("RESULT: OK — zero violations within the t = {t} budget");
            } else {
                if let Some(report) = failing.first() {
                    shrink_and_print(
                        report,
                        &cfg,
                        recorder_dump.as_deref(),
                        proof_dump.as_deref(),
                    );
                }
                println!("RESULT: FAIL — safety violated within the fault budget");
                exit(1);
            }
        }
        "beyond" => {
            let failing = sweep(&cfg, base_seed, seeds, threads, verbose);
            match failing.first() {
                Some(report) => {
                    println!(
                        "over-budget schedule caught by the checker (seed {}, peak budget {} > t = {t})",
                        report.seed, report.peak_budget
                    );
                    let audit_ok = shrink_and_print(
                        report,
                        &cfg,
                        recorder_dump.as_deref(),
                        proof_dump.as_deref(),
                    );
                    // The accountability gate: re-audit EVERY violating seed
                    // of the sweep. Any accusation of a replica the schedule
                    // never touched is a forensics bug and fails the run.
                    let gate_ok = audit_gate(&failing, &cfg, threads);
                    if !audit_ok || !gate_ok {
                        println!("RESULT: FAIL — the auditor accused an untouched replica");
                        exit(1);
                    }
                    println!("RESULT: OK — over-budget run caught and shrunk");
                }
                None => {
                    println!(
                        "RESULT: FAIL — {seeds} over-budget schedules all passed; the checker saw nothing"
                    );
                    exit(1);
                }
            }
        }
        "demo" => {
            // Deterministic over-budget demonstration: both active replicas
            // of view 0 lose their storage mid-run (2 > t concurrent
            // non-crash faults).
            let demo_cfg = ExplorerConfig {
                beyond_budget: true,
                ..cfg.clone()
            };
            let events = demo_violation_events(&demo_cfg);
            let report = run_schedule(base_seed, events, &demo_cfg);
            print_report(&report, true);
            print_combined(std::slice::from_ref(&report));
            if report.ok() {
                println!("RESULT: FAIL — the demo violation was not caught");
                exit(1);
            }
            let audit_ok = shrink_and_print(
                &report,
                &demo_cfg,
                recorder_dump.as_deref(),
                proof_dump.as_deref(),
            );
            if !audit_ok {
                println!("RESULT: FAIL — the auditor accused an untouched replica");
                exit(1);
            }
            println!("RESULT: OK — demo violation caught and shrunk");
        }
        "audit" => {
            // Deterministic accountability demonstration: exactly one
            // equivocator (the view-0 primary wiped mid-run), evidence GC
            // off so both sides of its fork survive to the audit. The
            // auditor must pin that replica and nobody else, with a proof
            // bundle that verifies offline.
            let audit_cfg = ExplorerConfig {
                beyond_budget: true,
                checkpoint_interval: 0,
                ..cfg.clone()
            };
            let events = demo_equivocation_events(&audit_cfg);
            let outcome = audit_run(base_seed, events, &audit_cfg);
            print_report(&outcome.report, true);
            print_combined(std::slice::from_ref(&outcome.report));
            println!(
                "audit: {} records, {} statements ({} unverifiable, discarded), {} proof(s)",
                outcome.stats.records,
                outcome.stats.statements,
                outcome.stats.unverified,
                outcome.stats.proofs
            );
            for proof in &outcome.bundle.proofs {
                println!("    proof: {}", proof.describe());
            }
            write_proofs(&outcome, proof_dump.as_deref());
            if outcome.culprits() != outcome.injected {
                println!(
                    "RESULT: FAIL — culprits {:?} != injected equivocator {:?}",
                    outcome.culprits(),
                    outcome.injected
                );
                exit(1);
            }
            println!(
                "RESULT: OK — equivocating replica {:?} pinned by {} verified proof(s)",
                outcome.culprits(),
                outcome.bundle.proofs.len()
            );
        }
        other => {
            eprintln!("unknown --mode {other:?} (budget | beyond | demo | audit)");
            exit(2);
        }
    }
}

/// Runs the sweep, prints the summary, returns every failing report.
fn sweep(
    cfg: &ExplorerConfig,
    base_seed: u64,
    seeds: u64,
    threads: usize,
    verbose: bool,
) -> Vec<SeedReport> {
    let started = Instant::now();
    let reports = explore(base_seed, seeds, threads, cfg);
    let elapsed = started.elapsed();
    let committed: u64 = reports.iter().map(|r| r.committed).sum();
    let events: usize = reports.iter().map(|r| r.events.len()).sum();
    let failing: Vec<&SeedReport> = reports.iter().filter(|r| !r.ok()).collect();
    let peak = reports.iter().map(|r| r.peak_budget).max().unwrap_or(0);
    println!(
        "explored {} schedules ({} fault events, {} commits) in {:.1}s on {} threads — {:.0} sims/min",
        reports.len(),
        events,
        committed,
        elapsed.as_secs_f64(),
        threads,
        reports.len() as f64 / elapsed.as_secs_f64().max(1e-9) * 60.0
    );
    println!(
        "peak concurrent faults observed: {peak} (budget t = {}{})",
        cfg.t,
        if cfg.beyond_budget {
            ", deliberately exceeded"
        } else {
            ""
        }
    );
    if verbose {
        for r in &reports {
            print_report(r, false);
        }
    }
    for r in &failing {
        print_report(r, true);
    }
    println!(
        "violating seeds: {} / {}, combined fingerprint {:#018x}",
        failing.len(),
        reports.len(),
        combined_fingerprint(&reports)
    );
    failing.into_iter().cloned().collect()
}

/// The summary line of a single-schedule mode (`demo`, `audit`).
fn print_combined(reports: &[SeedReport]) {
    println!(
        "combined fingerprint {:#018x} over {} seed(s)",
        combined_fingerprint(reports),
        reports.len()
    );
}

/// The accountability gate for over-budget sweeps: every violating seed is
/// replayed with evidence logging on and audited against its own injected
/// fault schedule. Returns `false` iff any audit accused a replica outside
/// that schedule's injected-Byzantine set.
fn audit_gate(failing: &[SeedReport], cfg: &ExplorerConfig, threads: usize) -> bool {
    if failing.is_empty() {
        return true;
    }
    let started = Instant::now();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let with_proofs = std::sync::atomic::AtomicUsize::new(0);
    let false_accusations = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(report) = failing.get(i) else { break };
                let outcome = audit_run(report.seed, report.events.clone(), cfg);
                if !outcome.bundle.proofs.is_empty() {
                    with_proofs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                if !outcome.no_false_accusations() {
                    false_accusations.lock().unwrap().push((
                        report.seed,
                        outcome.culprits(),
                        outcome.injected.clone(),
                    ));
                }
            });
        }
    });
    let bad = false_accusations.into_inner().unwrap();
    println!(
        "audit gate: {} violating seeds re-audited in {:.1}s — {} with proofs of culpability, {} false accusations",
        failing.len(),
        started.elapsed().as_secs_f64(),
        with_proofs.into_inner(),
        bad.len()
    );
    for (seed, culprits, injected) in &bad {
        println!(
            "    seed {seed}: FALSE ACCUSATION — {culprits:?} accused, only {injected:?} injected"
        );
    }
    bad.is_empty()
}

/// Optionally replays in-budget seeds over live loopback sockets.
fn tcp_phase(cfg: &ExplorerConfig, base_seed: u64, tcp_sample: u64) -> bool {
    if tcp_sample == 0 {
        return true;
    }
    let tcp_cfg = TcpChaosConfig {
        t: cfg.t,
        clients: cfg.clients.min(2),
        keys: cfg.keys,
        read_pct: cfg.read_pct,
        checkpoint_interval: cfg.checkpoint_interval,
        ..Default::default()
    };
    let mut ok = true;
    for i in 0..tcp_sample {
        let seed = base_seed.wrapping_add(0x7C9_0000).wrapping_add(i);
        let report = run_seed_tcp(seed, &tcp_cfg);
        println!(
            "tcp sample seed {}: {} commits over real sockets, {} events, {}",
            report.seed,
            report.committed,
            report.events.len(),
            if report.ok() { "clean" } else { "VIOLATION" }
        );
        if !report.ok() {
            print_report(&report, true);
            ok = false;
        }
    }
    ok
}

fn print_report(report: &SeedReport, full: bool) {
    println!(
        "seed {:>6}: {:>5} commits ({:>4} post-heal), {} events, peak budget {}, fingerprint {:#018x}{}",
        report.seed,
        report.committed,
        report.committed_after_heal,
        report.events.len(),
        report.peak_budget,
        report.fingerprint,
        if report.ok() {
            "".to_string()
        } else {
            format!(", {} VIOLATIONS", report.violations.len())
        }
    );
    if full {
        for v in &report.violations {
            println!("    violation: {v}");
        }
        for (at, event) in &report.events {
            println!("    {:>8.3}s {event:?}", at.as_secs_f64());
        }
    }
}

/// Shrinks a failing schedule, prints the reproducer, and runs the
/// accountability post-mortem on it. Returns `false` iff the audit accused a
/// replica the schedule never made Byzantine (a false accusation — the one
/// thing the forensics stack promises can't happen).
fn shrink_and_print(
    report: &SeedReport,
    cfg: &ExplorerConfig,
    recorder_dump: Option<&str>,
    proof_dump: Option<&str>,
) -> bool {
    let seed = report.seed;
    let started = Instant::now();
    let mut runs = 0u32;
    let shrunk = shrink(
        report.events.clone(),
        |events| {
            runs += 1;
            !run_schedule(seed, events.to_vec(), cfg)
                .violations
                .is_empty()
        },
        120,
    );
    println!(
        "shrunk {} events -> {} in {} re-runs ({:.1}s); minimal reproducer (seed {seed}):",
        report.events.len(),
        shrunk.len(),
        runs,
        started.elapsed().as_secs_f64()
    );
    println!("{}", format_script(&shrunk));
    let verdict = run_schedule(seed, shrunk.clone(), cfg);
    for v in &verdict.violations {
        println!("    reproduces: {v}");
    }
    // With --recorder-dump the reproducer gets a post-mortem: the same shrunk
    // schedule replayed with the flight recorder on, dumped to a file.
    if let Some(dir) = recorder_dump {
        let (_, dump) = record_flight(seed, shrunk.clone(), cfg);
        let path = std::path::Path::new(dir).join(format!("flight-recorder-seed-{seed}.txt"));
        let written = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &dump));
        match written {
            Ok(()) => println!("    flight recorder: {}", path.display()),
            Err(e) => eprintln!("    flight recorder: cannot write {}: {e}", path.display()),
        }
    }
    // Accountability post-mortem: replay the reproducer with evidence
    // logging on, audit the harvested logs, and check every accusation
    // against the schedule's ground truth.
    let outcome = audit_run(seed, shrunk, cfg);
    match outcome.bundle.proofs.len() {
        0 => println!(
            "    audit: no equivocation provable from surviving evidence (injected {:?})",
            outcome.injected
        ),
        k => {
            println!(
                "    audit: {k} proof(s) of culpability, culprits {:?} (injected {:?})",
                outcome.culprits(),
                outcome.injected
            );
            for proof in &outcome.bundle.proofs {
                println!("        {}", proof.describe());
            }
        }
    }
    write_proofs(&outcome, proof_dump);
    if !outcome.no_false_accusations() {
        println!(
            "    audit: FALSE ACCUSATION — {:?} accused, only {:?} injected",
            outcome.culprits(),
            outcome.injected
        );
        return false;
    }
    true
}

/// Writes the proof bundle (if non-empty and a directory was given) for
/// offline verification with `xft-audit`.
fn write_proofs(outcome: &xft_chaos::AuditOutcome, proof_dump: Option<&str>) {
    let Some(dir) = proof_dump else { return };
    if outcome.bundle.proofs.is_empty() {
        return;
    }
    let seed = outcome.report.seed;
    let path = std::path::Path::new(dir).join(format!("proof-seed-{seed}.bin"));
    let written =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, outcome.bundle.to_bytes()));
    match written {
        Ok(()) => println!("    proof bundle: {}", path.display()),
        Err(e) => eprintln!("    proof bundle: cannot write {}: {e}", path.display()),
    }
}
