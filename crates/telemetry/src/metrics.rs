//! Lock-light metrics: atomic counters, gauges, log-bucketed histograms and
//! the registry that names them and renders Prometheus text format.
//!
//! Hot-path cost is one relaxed atomic RMW per record once the caller holds
//! an `Arc` to the instrument; looking an instrument up by name takes a
//! `RwLock` read plus a `BTreeMap` walk, which is still far below the
//! request-path costs it measures.

use crate::rank::percentile_index;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) to the gauge.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` holds values whose bit length is
/// `i`, i.e. `v` in `[2^(i-1), 2^i)`; bucket 0 holds only `v == 0`.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram over `u64` samples (typically nanoseconds or
/// bytes). Recording is one relaxed `fetch_add` per atomic; quantiles are
/// approximate to within the power-of-two bucket containing the exact
/// nearest-rank sample.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Multiplier applied to bucket bounds and the sum when rendering
    /// (e.g. `1e-9` turns nanosecond samples into a `_seconds` series).
    scale: f64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .field("scale", &self.scale)
            .finish()
    }
}

impl Histogram {
    /// A histogram rendered in the raw sample unit.
    pub fn new() -> Self {
        Self::with_scale(1.0)
    }

    /// A histogram whose rendered bounds and sum are multiplied by `scale`.
    pub fn with_scale(scale: f64) -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            scale,
        }
    }

    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples, in the rendering unit (scaled).
    pub fn sum_scaled(&self) -> f64 {
        self.sum.load(Ordering::Relaxed) as f64 * self.scale
    }

    /// Upper bound (exclusive) of bucket `i`, in the raw sample unit.
    fn bucket_bound(i: usize) -> f64 {
        if i == 0 {
            1.0
        } else {
            2f64.powi(i as i32)
        }
    }

    /// The `q`-quantile in the raw sample unit: the upper bound of the
    /// bucket holding the nearest-rank sample (same rank rule as
    /// [`crate::percentile`]). Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = percentile_index(total as usize, q) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen > rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(BUCKETS - 1)
    }

    /// Renders the histogram as Prometheus `_bucket`/`_sum`/`_count` lines.
    fn render(&self, name: &str, out: &mut String) {
        let mut cumulative = 0u64;
        let mut highest = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            if b.load(Ordering::Relaxed) > 0 {
                highest = i;
            }
        }
        for (i, b) in self.buckets.iter().enumerate().take(highest + 1) {
            cumulative += b.load(Ordering::Relaxed);
            let le = Self::bucket_bound(i) * self.scale;
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", self.count());
        let _ = writeln!(out, "{name}_sum {}", self.sum_scaled());
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Names instruments and renders them all in Prometheus text format.
///
/// Instruments are created on first use and live for the registry's
/// lifetime; the name is the Prometheus series name (`xft_commits_total`,
/// `xft_wal_fsync_seconds`, …).
#[derive(Default)]
pub struct Registry {
    inner: RwLock<BTreeMap<String, Instrument>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self
            .inner
            .read()
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default();
        f.debug_struct("Registry").field("series", &names).finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use. Panics if the name is
    /// already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(Instrument::Counter(c)) = self.read_instrument(name) {
            return c;
        }
        let mut map = self.inner.write().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::default())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => panic!("telemetry series {name:?} is not a counter"),
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(Instrument::Gauge(g)) = self.read_instrument(name) {
            return g;
        }
        let mut map = self.inner.write().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::default())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            _ => panic!("telemetry series {name:?} is not a gauge"),
        }
    }

    /// The histogram named `name`, created on first use with render scale
    /// `scale` (pass `1.0` for the raw unit, `1e-9` for ns → seconds).
    pub fn histogram(&self, name: &str, scale: f64) -> Arc<Histogram> {
        if let Some(Instrument::Histogram(h)) = self.read_instrument(name) {
            return h;
        }
        let mut map = self.inner.write().expect("registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::with_scale(scale))))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            _ => panic!("telemetry series {name:?} is not a histogram"),
        }
    }

    fn read_instrument(&self, name: &str) -> Option<Instrument> {
        let map = self.inner.read().expect("registry poisoned");
        map.get(name).map(|i| match i {
            Instrument::Counter(c) => Instrument::Counter(Arc::clone(c)),
            Instrument::Gauge(g) => Instrument::Gauge(Arc::clone(g)),
            Instrument::Histogram(h) => Instrument::Histogram(Arc::clone(h)),
        })
    }

    /// Renders every instrument in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let map = self.inner.read().expect("registry poisoned");
        let mut out = String::new();
        for (name, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Instrument::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    h.render(name, &mut out);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("xft_test_total");
        c.add(1);
        c.add(4);
        assert_eq!(r.counter("xft_test_total").get(), 5);
        let g = r.gauge("xft_test_depth");
        g.set(7);
        g.add(-3);
        assert_eq!(r.gauge("xft_test_depth").get(), 4);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 500, 1000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        // p0 is in the zero bucket; p100's bucket bound covers 100_000.
        assert_eq!(h.quantile(0.0), 1.0);
        let top = h.quantile(1.0);
        assert!((100_000.0..=262_144.0).contains(&top), "{top}");
        // The quantile bound always covers the exact nearest-rank sample.
        let mut sorted = [0u64, 1, 2, 3, 500, 1000, 100_000];
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = sorted[percentile_index(sorted.len(), q)] as f64;
            let approx = h.quantile(q);
            assert!(approx >= exact && approx <= (exact * 2.0).max(1.0));
        }
    }

    #[test]
    fn prometheus_rendering_has_all_series() {
        let r = Registry::new();
        r.counter("xft_commits_total").add(3);
        r.gauge("xft_outq_depth").set(2);
        let h = r.histogram("xft_wal_fsync_seconds", 1e-9);
        h.record(1_000_000); // 1 ms
        let text = r.render_prometheus();
        assert!(text.contains("xft_commits_total 3"));
        assert!(text.contains("xft_outq_depth 2"));
        assert!(text.contains("# TYPE xft_wal_fsync_seconds histogram"));
        assert!(text.contains("xft_wal_fsync_seconds_count 1"));
        assert!(text.contains("xft_wal_fsync_seconds_sum 0.001"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("xft_mixed");
        r.counter("xft_mixed");
    }
}
