//! The [`Telemetry`] hub: one handle bundling registry, synchrony monitor
//! and flight recorder, shared by a replica, its storage and its transport.
//!
//! A disabled hub (the default everywhere) makes every record call a cheap
//! branch on a bool, so simulation sweeps and benchmarks pay nothing unless
//! they opt in.

use crate::metrics::{Counter, Gauge, Histogram, Registry};
use crate::monitor::SynchronyMonitor;
use crate::recorder::{FlightEvent, FlightRecorder};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The telemetry hub for one node.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    /// When set, SUSPECT events print a flight-recorder dump to stderr
    /// (live deployments only; simulations leave it off).
    dump_on_suspect: AtomicBool,
    /// The deployment's synchrony bound Δ in ns, for fault estimates.
    delta_ns: AtomicU64,
    /// Named counters, gauges and histograms.
    pub registry: Registry,
    monitor: Mutex<SynchronyMonitor>,
    recorder: Mutex<FlightRecorder>,
}

impl Telemetry {
    /// An enabled hub.
    pub fn enabled() -> Arc<Telemetry> {
        Arc::new(Telemetry {
            enabled: true,
            dump_on_suspect: AtomicBool::new(false),
            delta_ns: AtomicU64::new(500_000_000),
            registry: Registry::new(),
            monitor: Mutex::new(SynchronyMonitor::new()),
            recorder: Mutex::new(FlightRecorder::default()),
        })
    }

    /// A disabled hub: every record call is a no-op.
    pub fn disabled() -> Arc<Telemetry> {
        Arc::new(Telemetry {
            enabled: false,
            dump_on_suspect: AtomicBool::new(false),
            delta_ns: AtomicU64::new(500_000_000),
            registry: Registry::new(),
            monitor: Mutex::new(SynchronyMonitor::new()),
            recorder: Mutex::new(FlightRecorder::default()),
        })
    }

    /// Whether this hub records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables/disables stderr flight-recorder dumps on SUSPECT.
    pub fn set_dump_on_suspect(&self, on: bool) {
        self.dump_on_suspect.store(on, Ordering::Relaxed);
    }

    /// Sets the synchrony bound Δ used by fault estimates and `/healthz`.
    pub fn set_delta_ns(&self, ns: u64) {
        self.delta_ns.store(ns, Ordering::Relaxed);
    }

    /// The configured synchrony bound Δ in nanoseconds.
    pub fn delta_ns(&self) -> u64 {
        self.delta_ns.load(Ordering::Relaxed)
    }

    /// The counter named `name` (no-op instrument reads still work when
    /// disabled — use [`Telemetry::add`] on hot paths instead).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// The gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// The histogram named `name` with render scale `scale`.
    pub fn histogram(&self, name: &str, scale: f64) -> Arc<Histogram> {
        self.registry.histogram(name, scale)
    }

    /// Adds `delta` (may be negative) to gauge `name` (no-op when disabled).
    pub fn gauge_add(&self, name: &str, delta: i64) {
        if self.enabled {
            self.registry.gauge(name).add(delta);
        }
    }

    /// Adds `delta` to counter `name` (no-op when disabled).
    pub fn add(&self, name: &str, delta: u64) {
        if self.enabled {
            self.registry.counter(name).add(delta);
        }
    }

    /// Records `v` into histogram `name` with render scale `scale`
    /// (no-op when disabled).
    pub fn observe(&self, name: &str, scale: f64, v: u64) {
        if self.enabled {
            self.registry.histogram(name, scale).record(v);
        }
    }

    /// Records a flight-recorder event tagged with trace id `trace` (0 =
    /// none); `detail` is built lazily so disabled hubs never pay for
    /// formatting.
    pub fn event(
        &self,
        at_ns: u64,
        node: u64,
        trace: u64,
        stage: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if !self.enabled {
            return;
        }
        let ev = FlightEvent {
            at_ns,
            node,
            trace,
            stage,
            detail: detail(),
        };
        if let Ok(mut rec) = self.recorder.lock() {
            rec.record(ev);
        }
    }

    /// Runs `f` against the synchrony monitor (no-op returning `None` when
    /// disabled).
    pub fn with_monitor<R>(&self, f: impl FnOnce(&mut SynchronyMonitor) -> R) -> Option<R> {
        if !self.enabled {
            return None;
        }
        self.monitor.lock().ok().map(|mut m| f(&mut m))
    }

    /// Records a SUSPECT: monitor entry, recorder event, and (if
    /// [`Telemetry::set_dump_on_suspect`] is on) a stderr dump. Counting is
    /// the caller's job (the replica's counters reach `/metrics` through its
    /// runtime).
    pub fn record_suspect(&self, at_ns: u64, node: u64, trace: u64, view: u64, reason: &str) {
        if !self.enabled {
            return;
        }
        self.with_monitor(|m| m.record_suspect(at_ns, view, reason.to_string()));
        self.event(at_ns, node, trace, "suspect", || {
            format!("view={view} {reason}")
        });
        if self.dump_on_suspect.load(Ordering::Relaxed) {
            eprintln!(
                "{}",
                self.dump(&format!("SUSPECT of view {view}: {reason}"))
            );
        }
    }

    /// Records a completed view change with its cause (monitor entry and
    /// recorder event; like [`Telemetry::record_suspect`], it counts nothing).
    pub fn record_view_change(
        &self,
        at_ns: u64,
        node: u64,
        trace: u64,
        new_view: u64,
        cause: &str,
    ) {
        if !self.enabled {
            return;
        }
        self.with_monitor(|m| m.record_view_change(at_ns, new_view, cause.to_string()));
        self.event(at_ns, node, trace, "new-view", || {
            format!("view={new_view} {cause}")
        });
    }

    /// Dumps the flight recorder as text with a `cause` header.
    pub fn dump(&self, cause: &str) -> String {
        self.recorder
            .lock()
            .map(|r| r.dump(cause))
            .unwrap_or_else(|_| format!("=== flight recorder poisoned ({cause}) ===\n"))
    }

    /// Number of events currently held by the flight recorder.
    pub fn recorded_events(&self) -> usize {
        self.recorder.lock().map(|r| r.len()).unwrap_or(0)
    }

    /// Renders every registered metric in Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Renders the registry plus the synchrony monitor's fault-vector
    /// estimate as of `now_ns`: the `(t_c, t_b, t_p)` gauges and a per-peer
    /// last-heard age. The estimate is computed at scrape time (it depends
    /// on "now"), which is why it lives here and not in the registry.
    pub fn render_prometheus_at(&self, now_ns: u64) -> String {
        use std::fmt::Write as _;
        let mut out = self.registry.render_prometheus();
        if !self.enabled {
            return out;
        }
        let delta = self.delta_ns();
        if let Ok(m) = self.monitor.lock() {
            let est = m.estimate(now_ns, delta);
            let _ = writeln!(out, "# TYPE xft_est_crash_faults gauge");
            let _ = writeln!(out, "xft_est_crash_faults {}", est.t_c);
            let _ = writeln!(out, "# TYPE xft_est_byzantine_faults gauge");
            let _ = writeln!(out, "xft_est_byzantine_faults {}", est.t_b);
            let _ = writeln!(out, "# TYPE xft_est_partitioned gauge");
            let _ = writeln!(out, "xft_est_partitioned {}", est.t_p);
            let _ = writeln!(out, "# TYPE xft_last_heard_age_seconds gauge");
            for (peer, health) in m.peers() {
                let age = now_ns.saturating_sub(health.last_heard_ns) as f64 / 1e9;
                let _ = writeln!(
                    out,
                    "xft_last_heard_age_seconds{{peer=\"{peer}\"}} {age:.3}"
                );
            }
        }
        out
    }

    /// Renders the `/healthz` body: the synchrony estimate and recent
    /// suspect/view-change history as of `now_ns`.
    pub fn healthz(&self, now_ns: u64) -> String {
        if !self.enabled {
            return "telemetry disabled\n".to_string();
        }
        let delta = self.delta_ns();
        self.monitor
            .lock()
            .map(|m| m.render(now_ns, delta))
            .unwrap_or_else(|_| "monitor poisoned\n".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_records_nothing() {
        let t = Telemetry::disabled();
        t.add("xft_commits_total", 5);
        t.observe("xft_wal_fsync_seconds", 1e-9, 100);
        t.event(1, 0, 0, "admit", || {
            unreachable!("lazy detail must not run")
        });
        t.record_suspect(1, 0, 0, 0, "nope");
        assert!(!t.is_enabled());
        assert_eq!(t.recorded_events(), 0);
        assert!(t.with_monitor(|m| m.suspect_count()).is_none());
        assert_eq!(t.healthz(0), "telemetry disabled\n");
    }

    #[test]
    fn enabled_hub_counts_and_records() {
        let t = Telemetry::enabled();
        t.add("xft_commits_total", 2);
        t.add("xft_commits_total", 1);
        assert_eq!(t.counter("xft_commits_total").get(), 3);
        t.event(7, 1, 0xabc, "commit", || "sn=4".to_string());
        assert_eq!(t.recorded_events(), 1);
        let dump = t.dump("test");
        assert!(
            dump.contains("trace=0000000000000abc commit   sn=4"),
            "{dump}"
        );
        assert!(t.render_prometheus().contains("xft_commits_total 3"));
    }

    #[test]
    fn scrape_with_clock_exports_fault_vector_gauges() {
        let t = Telemetry::enabled();
        t.set_delta_ns(100_000_000); // 100ms
        t.add("xft_commits_total", 1);
        t.with_monitor(|m| {
            m.note_heard(1, 50_000_000); // silent for 950ms at scrape: t_c
            m.note_heard(2, 990_000_000); // fresh: healthy
            m.mark_faulty(3); // sticky: t_b
        });
        let body = t.render_prometheus_at(1_000_000_000);
        assert!(
            body.contains("xft_commits_total 1"),
            "registry still renders"
        );
        assert!(body.contains("xft_est_crash_faults 1"));
        assert!(body.contains("xft_est_byzantine_faults 1"));
        assert!(body.contains("xft_est_partitioned 0"));
        assert!(body.contains("xft_last_heard_age_seconds{peer=\"1\"} 0.950"));
        assert!(body.contains("xft_last_heard_age_seconds{peer=\"2\"} 0.010"));
        // A disabled hub scrapes to the bare registry, no estimate section.
        let off = Telemetry::disabled();
        assert!(!off
            .render_prometheus_at(1_000_000_000)
            .contains("xft_est_crash_faults"));
    }

    #[test]
    fn suspect_and_view_change_flow_into_monitor_and_series() {
        let t = Telemetry::enabled();
        t.set_delta_ns(100_000_000);
        t.record_suspect(1_000, 0, 0, 3, "retransmit monitor fired");
        t.record_view_change(2_000, 0, 0, 4, "suspect of view 3");
        assert_eq!(t.with_monitor(|m| m.suspect_count()), Some(1));
        assert_eq!(t.with_monitor(|m| m.view_change_count()), Some(1));
        assert_eq!(t.recorded_events(), 2);
        assert!(
            !t.render_prometheus().contains("_total"),
            "the hub counts nothing itself: the runtime exports the counters"
        );
        let health = t.healthz(3_000);
        assert!(health.contains("view change -> 4"));
        assert!(health.contains("retransmit monitor fired"));
    }
}
