//! Order statistics used for every reported number: medians over rounds and
//! latency percentiles over samples.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median, or 0 when there is nothing to take it of (a metric that does not
/// apply to the workload).
pub fn median_or_zero(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// Nearest-rank `q`-quantile (0 < q ≤ 1) of an ascending-sorted slice: the
/// smallest sample with at least `q` of the samples at or below it.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `q`-quantile position — the
/// choosing-metrics guide asks for at least ten before a percentile is
/// trusted.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(
            median(&[9.0, 1.0, 5.0, 7.0, 3.0]),
            median(&[1.0, 3.0, 5.0, 7.0, 9.0])
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), Some(50));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100));
        assert_eq!(percentile_sorted(&[7], 0.99), Some(7));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        // 1 000 samples: p99 is the 990th, ten lie beyond it.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 0.99), Some(990));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.99), 0);
        assert_eq!(samples_beyond(1, 0.5), 0);
    }
}
