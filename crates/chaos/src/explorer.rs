//! Runs one seed — build cluster, apply schedule, heal, drain, judge — and
//! fans seeds out across threads.
//!
//! The verdict per seed combines three checks:
//!
//! * the client-history linearizability checks of [`crate::checker`];
//! * identical committed prefixes across *correct* replicas — replicas the
//!   schedule never touched (a faulted replica may hold a speculative
//!   divergent suffix until a later view change repairs it, paper Lemma 1,
//!   and probabilistic drops can touch anyone, so those runs skip this
//!   check);
//! * liveness after healing: an in-budget schedule must leave the healed
//!   cluster committing again (the paper's availability claim), a
//!   beyond-budget schedule is only held to the safety checks.

use crate::checker::{check_history, decode_history, OpEvent, Violation};
use crate::schedule::{analyze_schedule, generate, ScheduleConfig, TimedEvent};
use crate::workload::chaos_workload;
use std::sync::{Arc, Mutex};
use xft_core::harness::{check_total_order, ClusterBuilder, LatencySpec};
use xft_core::Replica;
use xft_kvstore::CoordinationService;
use xft_simnet::{FaultScript, PipelineConfig, SimDuration, SimTime};
use xft_telemetry::Telemetry;

/// Knobs of a chaos exploration run.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Fault threshold (`n = 2t + 1` replicas).
    pub t: usize,
    /// Simulated clients.
    pub clients: usize,
    /// Chaos keyspace size (small, so operations collide and stale state is
    /// observable).
    pub keys: usize,
    /// Percentage of reads in the workload.
    pub read_pct: u64,
    /// Fault-injection window (simulated seconds).
    pub fault_window: SimDuration,
    /// Post-heal drain (simulated seconds) during which repairs and final
    /// commits happen.
    pub drain: SimDuration,
    /// Maximum fault events per schedule.
    pub max_events: usize,
    /// Generate schedules beyond the `t` budget (expected to violate).
    pub beyond_budget: bool,
    /// Checkpoint interval in sequence numbers (0 disables — the seed's
    /// behaviour; the default keeps checkpointing and state transfer hot).
    pub checkpoint_interval: u64,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            t: 1,
            clients: 3,
            keys: 4,
            read_pct: 35,
            fault_window: SimDuration::from_secs(8),
            drain: SimDuration::from_secs(22),
            max_events: 8,
            beyond_budget: false,
            checkpoint_interval: 32,
        }
    }
}

impl ExplorerConfig {
    fn schedule_config(&self) -> ScheduleConfig {
        ScheduleConfig {
            t: self.t,
            clients: self.clients,
            fault_window: self.fault_window,
            max_events: self.max_events,
            beyond_budget: self.beyond_budget,
            tcp_compatible: false,
        }
    }
}

/// The structured verdict for one explored seed.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// The explored seed.
    pub seed: u64,
    /// The schedule that was applied.
    pub events: Vec<TimedEvent>,
    /// Total requests committed by clients.
    pub committed: u64,
    /// Requests committed after every repairable fault was healed.
    pub committed_after_heal: u64,
    /// Every safety (and, in budget, liveness) violation found.
    pub violations: Vec<Violation>,
    /// Peak concurrent fault count the schedule actually reached.
    pub peak_budget: usize,
}

impl SeedReport {
    /// Whether the seed passed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one explicit schedule under `seed` deterministically — the primitive
/// both the explorer and the shrinker use: same seed + same events ⇒ same
/// report.
pub fn run_schedule(seed: u64, events: Vec<TimedEvent>, cfg: &ExplorerConfig) -> SeedReport {
    run_schedule_inner(seed, events, cfg, None, false).0
}

/// Re-runs one schedule with evidence logging on and harvests every replica's
/// evidence log alongside the verdict (one `Vec` per replica, indexed by id).
/// Evidence recording is observation-only — it consumes no randomness, sets
/// no timers and charges no simulated cost — so the report is identical to
/// [`run_schedule`]'s for the same seed and events (pinned by a test below):
/// the logs the auditor reads are from *the* run that violated, not a
/// lookalike.
pub fn run_schedule_with_evidence(
    seed: u64,
    events: Vec<TimedEvent>,
    cfg: &ExplorerConfig,
) -> (SeedReport, Vec<Vec<xft_core::evidence::EvidenceRecord>>) {
    let (report, evidence) = run_schedule_inner(seed, events, cfg, None, true);
    (report, evidence.expect("evidence harvest requested"))
}

/// Re-runs one schedule with the flight recorder on: every replica feeds one
/// shared telemetry hub, and the recorder's interleaved view of the run comes
/// back alongside the report. Telemetry is observation-only, so the report is
/// identical to [`run_schedule`]'s for the same seed and events (pinned by a
/// test below) — this is how a shrunk reproducer gets its post-mortem.
pub fn record_flight(
    seed: u64,
    events: Vec<TimedEvent>,
    cfg: &ExplorerConfig,
) -> (SeedReport, String) {
    let hub = Telemetry::enabled();
    // Match the Δ the chaos cluster runs with (100 ms, below) so the dump's
    // synchrony estimate judges silence on the right scale.
    hub.set_delta_ns(100_000_000);
    let report = run_schedule_inner(seed, events, cfg, Some(Arc::clone(&hub)), false).0;
    let cause = format!(
        "chaos seed {seed}: {} violation(s), {} commits",
        report.violations.len(),
        report.committed
    );
    let dump = hub.dump(&cause);
    (report, dump)
}

fn run_schedule_inner(
    seed: u64,
    events: Vec<TimedEvent>,
    cfg: &ExplorerConfig,
    telemetry: Option<Arc<Telemetry>>,
    evidence: bool,
) -> (
    SeedReport,
    Option<Vec<Vec<xft_core::evidence::EvidenceRecord>>>,
) {
    // Explorer worker threads are reused across seeds; a trace id left in the
    // thread-local by an earlier run must not leak into this one's recorder.
    xft_telemetry::trace::clear();
    let n = 2 * cfg.t + 1;
    let analysis = analyze_schedule(n, &events);
    let keys = cfg.keys;
    let read_pct = cfg.read_pct;

    let mut builder = ClusterBuilder::new(cfg.t, cfg.clients)
        .with_seed(seed)
        .with_latency(LatencySpec::Uniform(
            SimDuration::from_millis(2),
            SimDuration::from_millis(12),
        ))
        .with_workload_factory(move |c| chaos_workload(seed, c as u64, keys, read_pct))
        .with_pipeline(PipelineConfig::default().with_client_window(3))
        .with_config(|mut c| {
            c.replica_retransmit = SimDuration::from_millis(400);
            // Checkpointing stays ON: lagging replicas must catch up through
            // the real, proof-verified state-transfer protocol (the seed had
            // to force full logs here because checkpoint adoption was a
            // one-line fake). A short interval makes log truncation — and
            // therefore state transfer — happen many times per run.
            c.with_delta(SimDuration::from_millis(100))
                .with_client_retransmit(SimDuration::from_millis(400))
                .with_checkpoint_interval(cfg.checkpoint_interval)
                // A deliberately tiny chunk so every chaos state transfer is
                // multi-chunk: crashes, partitions and disk faults land *mid*
                // transfer, exercising per-chunk verification, peer rotation
                // and WAL resume rather than a single-frame fast path.
                .with_state_chunk_bytes(1024)
                .with_state_fetch_window(2)
        })
        .with_state_machine(|| Box::new(CoordinationService::new()))
        // In-memory stable storage gives the torn-tail / corrupt-record disk
        // faults a real WAL to damage, deterministically.
        .with_storage_factory(|_| Box::new(xft_store::MemStorage::new()));
    if let Some(hub) = telemetry {
        builder = builder.with_telemetry_factory(move |_| Arc::clone(&hub));
    }
    builder = builder.with_evidence(evidence);
    let mut cluster = builder.build();

    cluster
        .sim
        .schedule_fault_script(FaultScript::from_events(events.clone()));
    let heal_at = SimTime::ZERO + cfg.fault_window;
    cluster.run_until(heal_at + cfg.drain);

    // Harvest client histories.
    let mut ops: Vec<OpEvent> = Vec::new();
    for c in 0..cfg.clients {
        ops.extend(decode_history(c as u64, &cluster.client(c).history()));
    }
    let mut violations = check_history(&ops);

    // Identical committed prefixes across correct (never-touched) replicas.
    if !analysis.used_drops {
        let clean: Vec<&Replica> = (0..n)
            .filter(|r| !analysis.touched.contains(r))
            .map(|r| cluster.replica(r))
            .collect();
        if clean.len() >= 2 {
            if let Err(detail) = check_total_order(&clean) {
                violations.push(Violation::TotalOrderDivergence { detail });
            }
        }
    }

    // Liveness after healing (in-budget schedules only): the healed cluster
    // must commit again.
    let committed = cluster.total_committed();
    let heal_secs = heal_at.as_secs_f64();
    let committed_after_heal = cluster
        .sim
        .metrics()
        .commit_times_secs()
        .iter()
        .filter(|t| **t > heal_secs)
        .count() as u64;
    if !cfg.beyond_budget && analysis.peak_budget <= cfg.t && committed_after_heal == 0 {
        violations.push(Violation::NoProgressAfterHeal);
    }

    // Harvest the surviving evidence (a wiped replica's log is gone with its
    // storage — the auditor works from what the *other* replicas witnessed).
    let harvested = evidence.then(|| {
        (0..n)
            .map(|r| {
                cluster
                    .replica(r)
                    .evidence()
                    .map(|log| log.records().to_vec())
                    .unwrap_or_default()
            })
            .collect()
    });

    (
        SeedReport {
            seed,
            events,
            committed,
            committed_after_heal,
            violations,
            peak_budget: analysis.peak_budget,
        },
        harvested,
    )
}

/// Generates and runs the schedule of one seed.
pub fn run_seed(seed: u64, cfg: &ExplorerConfig) -> SeedReport {
    let events = generate(seed, &cfg.schedule_config()).into_sorted_events();
    run_schedule(seed, events, cfg)
}

/// Explores `seeds` seeds starting at `base_seed`, fanned out over `threads`
/// worker threads. Reports come back sorted by seed.
pub fn explore(
    base_seed: u64,
    seeds: u64,
    threads: usize,
    cfg: &ExplorerConfig,
) -> Vec<SeedReport> {
    let threads = threads.max(1);
    let next = std::sync::atomic::AtomicU64::new(0);
    let reports: Mutex<Vec<SeedReport>> = Mutex::new(Vec::with_capacity(seeds as usize));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= seeds {
                    break;
                }
                let report = run_seed(base_seed.wrapping_add(i), cfg);
                reports.lock().expect("report sink poisoned").push(report);
            });
        }
    });
    let mut reports = reports.into_inner().expect("report sink poisoned");
    reports.sort_by_key(|r| r.seed);
    reports
}

/// The deterministic over-budget demonstration schedule: both active replicas
/// of view 0 suffer amnesia mid-run. With `2 > t = 1` storage losses the
/// write serial numbers restart, which the checker reports as duplicate
/// versions / regressions — the "caught and shrunk" half of the acceptance
/// criterion.
pub fn demo_violation_events(cfg: &ExplorerConfig) -> Vec<TimedEvent> {
    let groups = xft_core::SyncGroups::new(cfg.t);
    let actives = groups.active_replicas(xft_core::ViewNumber(0)).to_vec();
    let at = SimTime::ZERO + SimDuration::from_secs_f64(cfg.fault_window.as_secs_f64() * 0.5);
    actives
        .into_iter()
        .map(|r| {
            (
                at,
                xft_simnet::FaultEvent::Control(r, xft_core::byzantine::CONTROL_AMNESIA),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExplorerConfig {
        ExplorerConfig {
            clients: 2,
            fault_window: SimDuration::from_secs(5),
            drain: SimDuration::from_secs(15),
            max_events: 5,
            ..Default::default()
        }
    }

    #[test]
    fn fault_free_seed_is_clean_and_live() {
        let report = run_schedule(11, Vec::new(), &quick_cfg());
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.committed > 50, "committed {}", report.committed);
        assert!(report.committed_after_heal > 0);
    }

    #[test]
    fn reports_are_deterministic() {
        let cfg = quick_cfg();
        let a = run_seed(21, &cfg);
        let b = run_seed(21, &cfg);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn demo_violation_is_caught() {
        let cfg = ExplorerConfig {
            beyond_budget: true,
            ..quick_cfg()
        };
        let events = demo_violation_events(&cfg);
        let report = run_schedule(42, events, &cfg);
        assert!(
            !report.ok(),
            "double amnesia must be visible to the checker (committed {})",
            report.committed
        );
    }

    #[test]
    fn flight_recording_does_not_change_the_verdict() {
        // Telemetry must stay strictly out of protocol state: the same seed
        // and schedule produce the same report with the recorder on or off,
        // and the dump actually holds the run's protocol history.
        let cfg = ExplorerConfig {
            beyond_budget: true,
            ..quick_cfg()
        };
        let events = demo_violation_events(&cfg);
        let plain = run_schedule(42, events.clone(), &cfg);
        let (traced, dump) = record_flight(42, events, &cfg);
        assert_eq!(plain.committed, traced.committed);
        assert_eq!(plain.committed_after_heal, traced.committed_after_heal);
        assert_eq!(plain.violations, traced.violations);
        assert!(dump.contains("=== flight recorder dump"), "{dump}");
        assert!(dump.contains("commit"), "missing commit stages:\n{dump}");
    }

    #[test]
    fn shrinking_the_demo_yields_a_minimal_reproducer() {
        // The deterministic over-budget demo must shrink to a tiny schedule
        // that still fails — this is the acceptance-criterion path, pinned as
        // a test so the tool's core loop can't silently rot.
        let cfg = ExplorerConfig {
            beyond_budget: true,
            ..quick_cfg()
        };
        let events = demo_violation_events(&cfg);
        let report = run_schedule(42, events.clone(), &cfg);
        assert!(!report.ok());
        let shrunk = crate::shrink::shrink(
            report.events.clone(),
            |evs| !run_schedule(42, evs.to_vec(), &cfg).violations.is_empty(),
            60,
        );
        assert!(!shrunk.is_empty() && shrunk.len() <= events.len());
        assert!(
            !run_schedule(42, shrunk.clone(), &cfg).violations.is_empty(),
            "shrunk schedule must still reproduce"
        );
        let code = crate::schedule::format_script(&shrunk);
        assert!(code.starts_with("FaultScript::new()"), "{code}");
    }
}
