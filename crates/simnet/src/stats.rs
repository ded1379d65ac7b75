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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0, 6.0]), 4.0);
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
}
