//! Metrics collected during a simulation run: committed requests (for throughput and
//! latency), per-node CPU accounting (for the Figure 8 experiment) and free-form
//! counters.

use crate::stats::{mean, percentile, rate_timeseries};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Events emitted by actors through [`Context::record`](crate::actor::Context::record).
#[derive(Debug, Clone, PartialEq)]
pub enum MetricEvent {
    /// A client committed (delivered) one request.
    Commit {
        /// Delivery time.
        at: SimTime,
        /// End-to-end latency observed by the client.
        latency: SimDuration,
        /// Request payload size (part of [`Metrics::fingerprint`]).
        payload_bytes: usize,
    },
    /// Increment a named counter.
    Count {
        /// Counter name.
        name: &'static str,
        /// Increment.
        delta: u64,
    },
    /// A view change completed (protocol-specific; used by availability reports).
    ViewChange {
        /// Completion time.
        at: SimTime,
        /// The new view number.
        new_view: u64,
    },
}

/// End-to-end latency percentiles of one run, in milliseconds.
///
/// Mirrors the `p50/p90/p99` summary reported by `xpaxos-client` so the
/// simulator's metrics and the live binaries' wall-clock reports carry the
/// same columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median (50th percentile).
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
}

/// Aggregated metrics for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// (time, latency, bytes) for every committed request, in commit order.
    commits: Vec<(SimTime, SimDuration, usize)>,
    /// Completed view changes (time, new view).
    view_changes: Vec<(SimTime, u64)>,
    /// Named counters.
    counters: BTreeMap<&'static str, u64>,
    /// Per-node CPU nanoseconds consumed.
    cpu_ns: Vec<u64>,
}

impl Metrics {
    /// Creates an empty metrics collector for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Metrics {
            commits: Vec::new(),
            view_changes: Vec::new(),
            counters: BTreeMap::new(),
            cpu_ns: vec![0; nodes],
        }
    }

    /// Grows the per-node CPU table to cover `nodes` nodes. Runtimes call this
    /// when nodes are added; applying events never indexes past the table.
    pub fn ensure_nodes(&mut self, nodes: usize) {
        if self.cpu_ns.len() < nodes {
            self.cpu_ns.resize(nodes, 0);
        }
    }

    /// Applies one metric event. Public so that any [`crate::runtime::Runtime`]
    /// backend (the simulator, a real TCP deployment) can feed the same collector.
    pub fn apply(&mut self, event: MetricEvent) {
        match event {
            MetricEvent::Commit {
                at,
                latency,
                payload_bytes,
            } => self.commits.push((at, latency, payload_bytes)),
            MetricEvent::Count { name, delta } => {
                *self.counters.entry(name).or_insert(0) += delta;
            }
            MetricEvent::ViewChange { at, new_view } => self.view_changes.push((at, new_view)),
        }
    }

    /// Accounts CPU time consumed by `node`.
    pub fn charge_cpu(&mut self, node: usize, ns: u64) {
        self.ensure_nodes(node + 1);
        self.cpu_ns[node] += ns;
    }

    /// Total number of committed requests.
    pub fn committed(&self) -> usize {
        self.commits.len()
    }

    /// Value of a named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Completed view changes.
    pub fn view_changes(&self) -> &[(SimTime, u64)] {
        &self.view_changes
    }

    /// `q`-quantile of end-to-end latency in milliseconds.
    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        let values: Vec<f64> = self
            .commits
            .iter()
            .map(|(_, l, _)| l.as_millis_f64())
            .collect();
        percentile(&values, q)
    }

    /// Mean latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        let values: Vec<f64> = self
            .commits
            .iter()
            .map(|(_, l, _)| l.as_millis_f64())
            .collect();
        mean(&values)
    }

    /// Mean / p50 / p90 / p99 latency summary; `None` when nothing committed.
    pub fn latency_summary(&self) -> Option<LatencySummary> {
        if self.commits.is_empty() {
            return None;
        }
        let values: Vec<f64> = self
            .commits
            .iter()
            .map(|(_, l, _)| l.as_millis_f64())
            .collect();
        Some(LatencySummary {
            mean_ms: mean(&values),
            p50_ms: percentile(&values, 0.50),
            p90_ms: percentile(&values, 0.90),
            p99_ms: percentile(&values, 0.99),
        })
    }

    /// Average commit throughput over a window, in operations per second.
    pub fn throughput_ops(&self, from: SimTime, to: SimTime) -> f64 {
        let window = to.duration_since(from).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        let n = self
            .commits
            .iter()
            .filter(|(t, _, _)| *t >= from && *t < to)
            .count();
        n as f64 / window
    }

    /// Throughput time series (ops/sec per bin) for the Figure 9 style plots.
    pub fn throughput_timeseries(&self, bin: SimDuration, horizon: SimDuration) -> Vec<f64> {
        let times: Vec<f64> = self
            .commits
            .iter()
            .map(|(t, _, _)| t.as_secs_f64())
            .collect();
        rate_timeseries(&times, bin.as_secs_f64(), horizon.as_secs_f64())
    }

    /// CPU nanoseconds consumed by a node so far.
    pub fn cpu_ns(&self, node: usize) -> u64 {
        self.cpu_ns.get(node).copied().unwrap_or(0)
    }

    /// CPU utilisation of a node over an elapsed window, as a percentage of one core
    /// (can exceed 100 when the modeled node has multiple cores' worth of charged work).
    pub fn cpu_percent(&self, node: usize, elapsed: SimDuration) -> f64 {
        if elapsed.as_nanos() == 0 {
            return 0.0;
        }
        100.0 * self.cpu_ns(node) as f64 / elapsed.as_nanos() as f64
    }

    /// The node that consumed the most CPU (the paper samples "the most loaded node").
    pub fn most_loaded_node(&self) -> Option<usize> {
        self.cpu_ns
            .iter()
            .enumerate()
            .max_by_key(|(_, ns)| **ns)
            .map(|(i, _)| i)
    }

    /// A 64-bit fingerprint over everything this collector recorded: every
    /// commit (time, latency, payload), every counter, every view change and
    /// the per-node CPU table. Two runs with byte-identical metrics produce
    /// equal fingerprints; the determinism tests compare faulty runs with it.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a, good enough for regression comparison (not security).
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= *b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for (at, latency, bytes) in &self.commits {
            eat(&at.as_nanos().to_le_bytes());
            eat(&latency.as_nanos().to_le_bytes());
            eat(&(*bytes as u64).to_le_bytes());
        }
        for (at, view) in &self.view_changes {
            eat(&at.as_nanos().to_le_bytes());
            eat(&view.to_le_bytes());
        }
        for (name, value) in &self.counters {
            eat(name.as_bytes());
            eat(&value.to_le_bytes());
        }
        for ns in &self.cpu_ns {
            eat(&ns.to_le_bytes());
        }
        h
    }

    /// Latency (ms) of every commit in commit order — used by tests that need raw data.
    pub fn commit_latencies_ms(&self) -> Vec<f64> {
        self.commits
            .iter()
            .map(|(_, l, _)| l.as_millis_f64())
            .collect()
    }

    /// Times (s) of every commit in commit order.
    pub fn commit_times_secs(&self) -> Vec<f64> {
        self.commits
            .iter()
            .map(|(t, _, _)| t.as_secs_f64())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit_at(m: &mut Metrics, secs: f64, latency_ms: f64) {
        m.apply(MetricEvent::Commit {
            at: SimTime::ZERO + SimDuration::from_secs_f64(secs),
            latency: SimDuration::from_millis_f64(latency_ms),
            payload_bytes: 1024,
        });
    }

    #[test]
    fn commit_accounting() {
        let mut m = Metrics::new(3);
        commit_at(&mut m, 0.5, 100.0);
        commit_at(&mut m, 1.5, 200.0);
        commit_at(&mut m, 2.5, 300.0);
        assert_eq!(m.committed(), 3);
        assert!((m.mean_latency_ms() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_over_window() {
        let mut m = Metrics::new(1);
        for i in 0..100 {
            commit_at(&mut m, i as f64 * 0.01, 10.0); // 100 commits in 1 second
        }
        let tput = m.throughput_ops(SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(1));
        assert!((tput - 100.0).abs() < 1e-9);
        // No commits in the second window.
        let tput2 = m.throughput_ops(
            SimTime::ZERO + SimDuration::from_secs(1),
            SimTime::ZERO + SimDuration::from_secs(2),
        );
        assert_eq!(tput2, 0.0);
    }

    #[test]
    fn timeseries_binning() {
        let mut m = Metrics::new(1);
        for i in 0..10 {
            commit_at(&mut m, 0.05 + i as f64 * 0.01, 10.0);
        }
        commit_at(&mut m, 2.5, 10.0);
        let series = m.throughput_timeseries(SimDuration::from_secs(1), SimDuration::from_secs(3));
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], 10.0);
        assert_eq!(series[1], 0.0);
        assert_eq!(series[2], 1.0);
    }

    #[test]
    fn counters_and_view_changes() {
        let mut m = Metrics::new(1);
        m.apply(MetricEvent::Count {
            name: "batches",
            delta: 2,
        });
        m.apply(MetricEvent::Count {
            name: "batches",
            delta: 3,
        });
        m.apply(MetricEvent::ViewChange {
            at: SimTime::ZERO + SimDuration::from_secs(5),
            new_view: 2,
        });
        assert_eq!(m.counter("batches"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.view_changes().len(), 1);
        assert_eq!(m.view_changes()[0].1, 2);
    }

    #[test]
    fn cpu_accounting() {
        let mut m = Metrics::new(2);
        m.charge_cpu(0, 1_000_000);
        m.charge_cpu(1, 5_000_000);
        m.charge_cpu(1, 5_000_000);
        assert_eq!(m.cpu_ns(0), 1_000_000);
        assert_eq!(m.cpu_ns(1), 10_000_000);
        assert_eq!(m.most_loaded_node(), Some(1));
        // 10 ms of CPU over 100 ms elapsed = 10 %.
        assert!((m.cpu_percent(1, SimDuration::from_millis(100)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn latency_percentiles() {
        let mut m = Metrics::new(1);
        for i in 1..=100 {
            commit_at(&mut m, i as f64, i as f64);
        }
        assert!((m.latency_percentile_ms(0.5) - 50.0).abs() <= 1.0);
        assert!((m.latency_percentile_ms(1.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn latency_summary_orders_quantiles() {
        let mut m = Metrics::new(1);
        assert!(m.latency_summary().is_none());
        for i in 1..=100 {
            commit_at(&mut m, i as f64, i as f64);
        }
        let s = m.latency_summary().expect("commits exist");
        assert!(s.p50_ms <= s.p90_ms && s.p90_ms <= s.p99_ms);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        assert!((s.p90_ms - 90.0).abs() <= 1.0);
    }
}
