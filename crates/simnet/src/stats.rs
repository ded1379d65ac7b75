//! Small statistics helpers: percentiles, means and time-binned series, used by the
//! metrics collector and the benchmark harness reports.

/// Returns the arithmetic mean of `values`, or 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Returns the `q`-quantile (0.0 ≤ q ≤ 1.0) of `values` using nearest-rank on a sorted
/// copy. Returns 0.0 for an empty slice. Delegates to the workspace's single
/// percentile implementation in `xft-telemetry`, shared with
/// `xpaxos-client`'s latency report and the telemetry histograms.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    xft_telemetry::percentile(values, q)
}

/// Population standard deviation of `values`.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Bins event timestamps (seconds) into fixed-width windows and returns events/second
/// per bin over `[0, horizon_secs)`. Used for the Figure 9 throughput-over-time series.
pub fn rate_timeseries(event_times_secs: &[f64], bin_secs: f64, horizon_secs: f64) -> Vec<f64> {
    assert!(bin_secs > 0.0, "bin width must be positive");
    let bins = (horizon_secs / bin_secs).ceil() as usize;
    let mut counts = vec![0u64; bins.max(1)];
    for &t in event_times_secs {
        if t < 0.0 || t >= horizon_secs {
            continue;
        }
        let idx = (t / bin_secs) as usize;
        if idx < counts.len() {
            counts[idx] += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / bin_secs).collect()
}

/// A simple streaming histogram with fixed bucket width, used for latency summaries.
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width: f64,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of `bucket_width` each. Values beyond
    /// the last bucket are clamped into it.
    pub fn new(bucket_width: f64, buckets: usize) -> Self {
        Histogram {
            bucket_width,
            buckets: vec![0; buckets.max(1)],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        let idx = ((value / self.bucket_width) as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Maximum recorded observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate `q`-quantile using the bucket midpoints.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return (i as f64 + 0.5) * self.bucket_width;
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_dev_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0, 6.0]), 4.0);
        assert!((std_dev(&[2.0, 4.0, 6.0]) - 1.632993).abs() < 1e-5);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        let median = percentile(&v, 0.5);
        assert!((50.0..=51.0).contains(&median), "median {median}");
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn rate_timeseries_bins_events() {
        // 10 events in the first second, 5 in the third.
        let mut events = vec![0.05; 10];
        events.extend(vec![2.5; 5]);
        let series = rate_timeseries(&events, 1.0, 4.0);
        assert_eq!(series.len(), 4);
        assert_eq!(series[0], 10.0);
        assert_eq!(series[1], 0.0);
        assert_eq!(series[2], 5.0);
        assert_eq!(series[3], 0.0);
    }

    #[test]
    fn rate_timeseries_ignores_out_of_range() {
        let series = rate_timeseries(&[-1.0, 100.0], 1.0, 10.0);
        assert!(series.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let mut h = Histogram::new(1.0, 100);
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        assert!(h.quantile(0.5) >= 49.0 && h.quantile(0.5) <= 52.0);
        assert_eq!(h.max(), 100.0);
        // Values beyond range clamp to last bucket.
        h.record(1e6);
        assert_eq!(h.max(), 1e6);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new(1.0, 10);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }
}
