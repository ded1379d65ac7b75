//! The workspace's one percentile implementation.
//!
//! `xpaxos-client`'s latency report and
//! `xft_simnet::metrics::latency_summary()` both delegate here, so a rounding
//! drift cannot make live and simulated reports disagree silently, and the
//! log-bucketed [`crate::Histogram`] selects its quantile bucket with the
//! same rule.

/// Index of the `q`-quantile (nearest rounded rank) in a sorted sample of
/// `len` elements: `round((len - 1) * q)`, clamped to the valid range.
///
/// `q` is clamped to `[0, 1]`; `len == 0` yields index 0 (callers must guard
/// against indexing an empty slice).
pub fn percentile_index(len: usize, q: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((len as f64 - 1.0) * q).round() as usize;
    rank.min(len - 1)
}

/// The `q`-quantile of `values` (unsorted; a sorted copy is made).
/// Returns 0.0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted[percentile_index(sorted.len(), q)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_convention() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        let median = percentile(&values, 0.5);
        assert!((50.0..=51.0).contains(&median));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile_index(0, 0.5), 0);
        assert_eq!(percentile_index(1, 2.0), 0); // q clamped
        assert_eq!(percentile_index(10, -1.0), 0);
    }
}
