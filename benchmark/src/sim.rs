//! `sim_geo_failover`: XPaxos on the deterministic simulator with the
//! paper's WAN delays, its signature cost, and a leader fault.
//!
//! `ClusterBuilder` on `xft-simnet`: the Table-4 EC2 placement (CA primary,
//! VA follower, JP passive), [`CLIENTS`] closed-loop clients in CA with
//! window 1, batch 20, `CostModel::paper_default()` (RSA-1024), Δ = 1.25 s,
//! and the builder's default replicated service (`DigestChainService`, as in
//! `fig9_faults`) fed the generated 1 kB ops as opaque payloads. The primary
//! crashes at [`CRASH_AT_S`] s of simulated time and recovers [`DOWN_FOR_S`] s
//! later; the run lasts [`RUN_S`] s of simulated time. It is the only
//! workload that exercises the view change, and it bypasses `wire`, `net`
//! and `store` entirely.
//!
//! **The scripted crash must be the first fault.** In XFT's model a message
//! delayed beyond Δ *is* a network fault, and the EC2 latency model's tail
//! produces one before second 20 in roughly every tenth schedule: commits
//! stop for ~8 s and the view changes with every machine healthy. Such a
//! schedule is not an instance of this workload, so it is rejected (after
//! simulating only up to the crash) and the next network schedule is drawn
//! from the same `--seed`; `simnet.schedules_rejected` counts them. The ops
//! always come from `--seed` itself.
//!
//! Latency, throughput and outage are read off the *simulated* clock, so for
//! one seed they repeat exactly (same `Metrics::fingerprint`); only set-up
//! time, CPU per op and RSS are real, which is why the run is repeated and
//! their medians reported. What is simulated: the EC2 RTT matrix of
//! `xft-simnet::ec2` and the RSA cost model of `xft-crypto::cost`.

use crate::opgen::OpGen;
use crate::procfs;
use crate::stats::{median_or_zero, percentile_sorted, samples_beyond};
use std::collections::BTreeMap;
use std::time::Instant;
use xft_core::harness::{ClusterBuilder, LatencySpec, XPaxosCluster};
use xft_crypto::CostModel;
use xft_simnet::ec2::table4_placement;
use xft_simnet::{FaultScript, PipelineConfig, Region, SimDuration, SimTime};

/// Closed-loop clients, all in CA with the primary.
pub const CLIENTS: usize = 200;
/// Simulated warm-up, counted as set-up: the first pass over the keyspace
/// and the ramp to steady state happen here.
const WARMUP_S: u64 = 5;
/// When the view-0 primary (replica 0, CA) crashes.
const CRASH_AT_S: u64 = 20;
/// How long it stays down.
const DOWN_FOR_S: u64 = 20;
/// Start of the post-recovery throughput window.
const POST_FROM_S: u64 = 45;
/// End of the measured run.
const RUN_S: u64 = 60;
/// Simulated time the run continues past `RUN_S`, so that a request issued
/// shortly before `RUN_S` can still commit before it is counted as failed.
const GRACE_S: u64 = 10;
/// Requests issued up to this long before the crash belong to the timed,
/// fault-free phase: they are the result line's `attempted`.
const ISSUE_CUTOFF_BEFORE_CRASH_S: u64 = 1;
/// A gap this long between commits after the first simulated second and
/// before the crash means the schedule had a fault of its own.
const FAULT_FREE_MAX_GAP_MS: f64 = 1000.0;
/// Network schedules tried before giving up on a seed.
const MAX_SCHEDULES: u64 = 8;

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// Simulated-clock results of one run; identical for identical seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SimClock {
    /// `Metrics::fingerprint` at the end of the measured run.
    pub fingerprint: u64,
    /// Ops committed in `[0, RUN_S)`.
    pub committed: u64,
    /// Ops committed per simulated second: median of the fault-free rounds.
    pub throughput_ops_s: f64,
    /// Median commit latency, ms: median of the fault-free rounds.
    pub commit_p50_ms: f64,
    /// 99th-percentile commit latency, ms: median of the fault-free rounds.
    pub commit_p99_ms: f64,
    /// Fault-free rounds, and the median number of latency samples in one and
    /// beyond its p99.
    pub samples: (usize, usize, usize),
    /// Per-layer numbers by metric name.
    pub layer: BTreeMap<&'static str, f64>,
}

/// One repeat's results.
struct Repeat {
    /// Real seconds: build + the simulated warm-up.
    setup_s: f64,
    /// Real process CPU µs per committed op, median of the fault-free rounds.
    cpu_us_per_op: f64,
    clock: SimClock,
    issued: u64,
    executed: u64,
}

/// Everything the workload measured.
#[derive(Debug)]
pub struct SimOutcome {
    /// Real set-up seconds per repeat.
    pub setup_s: Vec<f64>,
    /// Real process CPU µs per committed op per repeat.
    pub cpu_us_per_op: Vec<f64>,
    /// The simulated-clock results (checked identical across repeats).
    pub clock: SimClock,
    /// Ops the clients issued in the fault-free phase (up to 1 s before the
    /// crash).
    pub issued: u64,
    /// Those of them that had committed by the end of the run.
    pub executed: u64,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
}

/// The `n`-th network schedule of a workload seed (the 0th is the seed).
fn schedule_seed(seed: u64, n: u64) -> u64 {
    seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn build(seed: u64, schedule: u64) -> XPaxosCluster {
    let gen = OpGen::new(seed, CLIENTS);
    let mut cluster = ClusterBuilder::new(1, CLIENTS)
        .with_seed(schedule)
        .with_latency(LatencySpec::Ec2 {
            replica_regions: table4_placement(3),
            client_region: Region::UsWestCA,
        })
        .with_workload_factory(move |client| gen.workload(client as u64))
        .with_cost_model(CostModel::paper_default())
        .with_pipeline(PipelineConfig::default().with_client_window(1))
        .with_config(|c| {
            c.with_batch_size(20)
                .with_delta(SimDuration::from_millis(1250))
                .with_client_retransmit(SimDuration::from_millis(2500))
        })
        .build();
    cluster
        .sim
        .schedule_fault_script(FaultScript::new().crash_for(
            at(CRASH_AT_S),
            cluster.config.node_of(0),
            SimDuration::from_secs(DOWN_FOR_S),
        ));
    cluster
}

/// Longest gap, in ms, between consecutive commits of `commits` (time s,
/// latency ns) inside `[from, to)`, the window's edges included.
fn longest_gap_ms(commits: &[(f64, u64)], from: f64, to: f64) -> f64 {
    let (mut gap, mut prev) = (0.0f64, from);
    for &(t, _) in commits.iter().filter(|(t, _)| *t >= from && *t < to) {
        gap = gap.max(t - prev);
        prev = t;
    }
    gap.max(to - prev) * 1e3
}

/// Every commit so far as (time s, latency ns), in commit order.
fn commits_of(cluster: &XPaxosCluster) -> Vec<(f64, u64)> {
    let metrics = cluster.sim.metrics();
    metrics
        .commit_times_secs()
        .into_iter()
        .zip(metrics.commit_latencies_ms())
        .map(|(t, ms)| (t, (ms * 1e6) as u64))
        .collect()
}

/// One repeat of the workload on network schedule `schedule`. `Ok(None)`
/// means the schedule had a fault of its own before the scripted crash.
fn run_once(seed: u64, schedule: u64) -> Result<Option<Repeat>, String> {
    let cpu_now = || procfs::process_cpu_ns().map_err(|e| format!("read /proc/self/task: {e}"));
    let started = Instant::now();
    let mut cluster = build(seed, schedule);
    let mut events = cluster.sim.run_until(at(WARMUP_S));
    let setup_s = started.elapsed().as_secs_f64();

    // The clients are closed-loop with window 1, so a client's requests
    // commit in issue order: whatever it had issued by some instant has
    // committed once its commit count reaches that number.
    let issued_now = |cluster: &XPaxosCluster| -> Vec<u64> {
        (0..CLIENTS)
            .map(|c| cluster.client(c).committed() + cluster.client(c).in_flight() as u64)
            .collect()
    };
    let committed_of = |cluster: &XPaxosCluster, issued: &[u64]| -> u64 {
        issued
            .iter()
            .enumerate()
            .map(|(c, &n)| n.min(cluster.client(c).committed()))
            .sum()
    };

    // The timed phase: the fault-free window [WARMUP_S, CRASH_AT_S) in rounds
    // of one simulated second, real CPU sampled at every round boundary.
    let mut cpu_marks = vec![cpu_now()?];
    let mut issued_fault_free = Vec::new();
    for round_end in WARMUP_S + 1..=CRASH_AT_S {
        events += cluster.sim.run_until(at(round_end));
        cpu_marks.push(cpu_now()?);
        if round_end == CRASH_AT_S - ISSUE_CUTOFF_BEFORE_CRASH_S {
            issued_fault_free = issued_now(&cluster);
        }
    }
    let prefault_gap_ms = longest_gap_ms(&commits_of(&cluster), 1.0, CRASH_AT_S as f64);
    if prefault_gap_ms > FAULT_FREE_MAX_GAP_MS || !cluster.sim.metrics().view_changes().is_empty() {
        return Ok(None);
    }

    // The fault and the recovery.
    events += cluster.sim.run_until(at(RUN_S));
    let metrics = cluster.sim.metrics().clone();
    let issued_whole_run = issued_now(&cluster);
    cluster.sim.run_until(at(RUN_S + GRACE_S));
    let issued: u64 = issued_fault_free.iter().sum();
    let executed = committed_of(&cluster, &issued_fault_free);
    let whole_run_failed_share = {
        let issued: u64 = issued_whole_run.iter().sum();
        (issued - committed_of(&cluster, &issued_whole_run)) as f64 / issued.max(1) as f64
    };

    cluster
        .check_total_order()
        .map_err(|e| format!("check total_order: {e}"))?;
    let view_changes = metrics.view_changes();
    let Some(first_view) = view_changes.first() else {
        return Err("check view_change: no view change completed after the crash".to_string());
    };

    let commits = commits_of(&cluster);
    let committed = metrics.committed() as u64;
    let (mut tput, mut p50, mut p99, mut cpu, mut counts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, pair) in cpu_marks.windows(2).enumerate() {
        let from = (WARMUP_S + i as u64) as f64;
        let round: Vec<(f64, u64)> = commits
            .iter()
            .filter(|(t, _)| *t >= from && *t < from + 1.0)
            .copied()
            .collect();
        let mut lat: Vec<u64> = round.iter().map(|(_, ns)| *ns).collect();
        lat.sort_unstable();
        // The rate from the round's first commit to the next round's first
        // commit: the same ops over a window cut at commit instants, so the
        // figure is not quantized to whole batches per second as a plain
        // count would be. (No round is empty: the longest gap is under 1 s.)
        let next_first = commits
            .iter()
            .find(|(t, _)| *t >= from + 1.0)
            .map_or(from + 1.0, |(t, _)| *t);
        tput.push(round.len() as f64 / (next_first - round[0].0));
        p50.push(percentile_sorted(&lat, 0.5).unwrap_or(0) as f64 / 1e6);
        p99.push(percentile_sorted(&lat, 0.99).unwrap_or(0) as f64 / 1e6);
        cpu.push((pair[1] - pair[0]) as f64 / 1e3 / lat.len() as f64);
        counts.push(lat.len());
    }
    counts.sort_unstable();
    let typical = counts[counts.len() / 2];

    let mut whole_run: Vec<u64> = commits
        .iter()
        .filter(|(t, _)| *t >= WARMUP_S as f64 && *t < RUN_S as f64)
        .map(|(_, ns)| *ns)
        .collect();
    whole_run.sort_unstable();

    let per_op = |count: u64| count as f64 / committed.max(1) as f64;
    let rsa_ns: u64 = (0..cluster.n())
        .map(|r| metrics.cpu_ns(cluster.config.node_of(r)))
        .sum();
    let (delivered, _dropped) = cluster.sim.network().counters();
    let counter = |name: &str| metrics.counter(name) as f64;
    let mut layer = BTreeMap::new();
    layer.insert("core.view_changes", view_changes.len() as f64);
    layer.insert("core.suspects_sent", counter("suspects_sent"));
    layer.insert("core.batches_proposed", counter("batches_proposed"));
    layer.insert("core.shed_total", counter("requests_shed"));
    layer.insert("core.checkpoints", counter("checkpoints"));
    layer.insert(
        "core.client_retransmissions",
        counter("client_retransmissions"),
    );
    layer.insert(
        "core.ops_per_batch",
        committed as f64 / counter("batches_proposed").max(1.0),
    );
    layer.insert(
        "core.view_change_ms",
        first_view.0.duration_since(at(CRASH_AT_S)).as_millis_f64(),
    );
    layer.insert("crypto.paper_rsa_us_per_op", per_op(rsa_ns) / 1e3);
    layer.insert("simnet.events_per_op", per_op(events));
    layer.insert("simnet.msgs_delivered_per_op", per_op(delivered));
    layer.insert(
        "client.unavailable_ms",
        longest_gap_ms(&commits, CRASH_AT_S as f64, RUN_S as f64),
    );
    layer.insert(
        "client.post_fault_throughput_ops_s",
        metrics.throughput_ops(at(POST_FROM_S), at(RUN_S)),
    );
    layer.insert(
        "client.whole_run_p99_ms",
        percentile_sorted(&whole_run, 0.99).unwrap_or(0) as f64 / 1e6,
    );
    layer.insert("client.longest_prefault_gap_ms", prefault_gap_ms);
    layer.insert("client.failed_ops_share", whole_run_failed_share);

    Ok(Some(Repeat {
        setup_s,
        cpu_us_per_op: median_or_zero(&cpu),
        clock: SimClock {
            fingerprint: metrics.fingerprint(),
            committed,
            throughput_ops_s: median_or_zero(&tput),
            commit_p50_ms: median_or_zero(&p50),
            commit_p99_ms: median_or_zero(&p99),
            samples: (tput.len(), typical, samples_beyond(typical, 0.99)),
            layer,
        },
        issued,
        executed,
    }))
}

/// Runs the workload `repeats` times on the first network schedule of `seed`
/// whose first fault is the scripted crash.
pub fn run(seed: u64, repeats: usize) -> Result<SimOutcome, String> {
    let fail = |e: String| format!("sim_geo_failover: {e}");
    let mut rejected = 0;
    let (schedule, first) = loop {
        let schedule = schedule_seed(seed, rejected);
        if let Some(repeat) = run_once(seed, schedule).map_err(fail)? {
            break (schedule, repeat);
        }
        rejected += 1;
        if rejected == MAX_SCHEDULES {
            return Err(fail(format!(
                "check fault_free_window: the first {MAX_SCHEDULES} network schedules of seed \
                 {seed} all stalled or changed view before the scripted crash"
            )));
        }
    };
    let mut out = SimOutcome {
        setup_s: vec![first.setup_s],
        cpu_us_per_op: vec![first.cpu_us_per_op],
        clock: first.clock,
        issued: first.issued,
        executed: first.executed,
        peak_rss_mb: 0.0,
    };
    for repeat in 1..repeats {
        let again = run_once(seed, schedule).map_err(fail)?.filter(|r| {
            r.clock == out.clock && (r.issued, r.executed) == (out.issued, out.executed)
        });
        let Some(again) = again else {
            return Err(fail(format!(
                "check determinism: repeat {repeat} of seed {seed} differs from the first \
                 (fingerprint {:#x})",
                out.clock.fingerprint
            )));
        };
        out.setup_s.push(again.setup_s);
        out.cpu_us_per_op.push(again.cpu_us_per_op);
    }
    out.clock
        .layer
        .insert("simnet.schedules_rejected", rejected as f64);
    out.peak_rss_mb = procfs::peak_rss_mb().map_err(|e| fail(format!("read VmHWM: {e}")))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_gap_counts_the_window_edges() {
        let commits = [(1.0, 0), (1.5, 0), (4.0, 0), (4.2, 0)];
        assert_eq!(longest_gap_ms(&commits, 1.0, 5.0), 2500.0);
        assert_eq!(longest_gap_ms(&commits, 0.0, 1.2), 1000.0);
        assert_eq!(longest_gap_ms(&commits, 4.1, 9.0), 4800.0);
        assert_eq!(longest_gap_ms(&[], 2.0, 3.0), 1000.0);
    }

    #[test]
    fn schedules_of_a_seed_are_distinct_and_start_at_the_seed() {
        assert_eq!(schedule_seed(7, 0), 7);
        assert_ne!(schedule_seed(7, 1), schedule_seed(7, 2));
        assert_ne!(schedule_seed(7, 1), schedule_seed(8, 1));
    }
}
