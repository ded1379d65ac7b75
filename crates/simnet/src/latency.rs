//! Link latency models.
//!
//! A [`LatencyModel`] produces the one-way propagation delay for a message between two
//! nodes. The geo-replicated experiments use [`RegionLatencyModel`], which assigns each
//! node to a region and samples from the empirical RTT statistics measured across EC2
//! datacenters (paper Table 3). Other models (constant, uniform jitter) are used by
//! unit tests and the reliability-oriented experiments.

use crate::actor::NodeId;
use crate::rng::SimRng;
use crate::time::SimDuration;

/// Produces one-way network delays for (from, to) node pairs.
pub trait LatencyModel {
    /// Samples the one-way delay of a message sent from `from` to `to`.
    fn sample(&self, from: NodeId, to: NodeId, rng: &mut SimRng) -> SimDuration;

    /// The typical (average) one-way delay, used by protocols that need an a-priori
    /// estimate (e.g. to size retransmission timeouts in tests).
    fn typical(&self, from: NodeId, to: NodeId) -> SimDuration;
}

/// Constant latency for every pair of distinct nodes (zero for self-sends).
#[derive(Debug, Clone, Copy)]
pub struct ConstantLatency(pub SimDuration);

impl LatencyModel for ConstantLatency {
    fn sample(&self, from: NodeId, to: NodeId, _rng: &mut SimRng) -> SimDuration {
        if from == to {
            SimDuration::ZERO
        } else {
            self.0
        }
    }

    fn typical(&self, from: NodeId, to: NodeId) -> SimDuration {
        if from == to {
            SimDuration::ZERO
        } else {
            self.0
        }
    }
}

/// Uniformly jittered latency in `[min, max]` for distinct nodes.
#[derive(Debug, Clone, Copy)]
pub struct UniformLatency {
    /// Minimum one-way delay.
    pub min: SimDuration,
    /// Maximum one-way delay.
    pub max: SimDuration,
}

impl LatencyModel for UniformLatency {
    fn sample(&self, from: NodeId, to: NodeId, rng: &mut SimRng) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        let lo = self.min.as_nanos();
        let hi = self.max.as_nanos().max(lo + 1);
        SimDuration::from_nanos(rng.range_u64(lo, hi))
    }

    fn typical(&self, from: NodeId, to: NodeId) -> SimDuration {
        if from == to {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.min.as_nanos() + self.max.as_nanos()) / 2)
        }
    }
}

/// Empirical round-trip-time statistics of one datacenter pair, in milliseconds,
/// exactly as reported by Table 3 of the paper (average / 99.99th percentile /
/// 99.999th percentile / maximum observed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttStats {
    /// Average RTT (ms).
    pub avg_ms: f64,
    /// 99.99th percentile RTT (ms).
    pub p9999_ms: f64,
    /// 99.999th percentile RTT (ms).
    pub p99999_ms: f64,
    /// Maximum observed RTT (ms).
    pub max_ms: f64,
}

impl RttStats {
    /// Builds the entry from the four numbers printed in Table 3.
    pub const fn new(avg_ms: f64, p9999_ms: f64, p99999_ms: f64, max_ms: f64) -> Self {
        RttStats {
            avg_ms,
            p9999_ms,
            p99999_ms,
            max_ms,
        }
    }

    /// Samples a one-way delay (half the sampled RTT).
    ///
    /// The sampling distribution mirrors the qualitative shape of the measurement: the
    /// bulk of samples land near the average with ±10 % jitter; with probability 10⁻⁴ a
    /// sample comes from the [p99.99, p99.999] band and with probability 10⁻⁵ from the
    /// [p99.999, max] band. This is sufficient to reproduce both the common-case
    /// behaviour and the rare-network-fault tail the paper designs Δ around.
    pub fn sample_one_way(&self, rng: &mut SimRng) -> SimDuration {
        let u = rng.next_f64();
        let rtt_ms = if u < 1e-5 {
            rng.range_f64(self.p99999_ms, self.max_ms.max(self.p99999_ms + 0.001))
        } else if u < 1e-4 {
            rng.range_f64(self.p9999_ms, self.p99999_ms.max(self.p9999_ms + 0.001))
        } else {
            // ±10 % jitter around the average, never below 60 % of it.
            let jitter = rng.range_f64(0.9, 1.1);
            (self.avg_ms * jitter).max(self.avg_ms * 0.6)
        };
        SimDuration::from_millis_f64(rtt_ms / 2.0)
    }

    /// Typical one-way delay (half the average RTT).
    pub fn typical_one_way(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.avg_ms / 2.0)
    }
}

/// Latency model driven by a per-region RTT matrix and a node → region placement.
pub struct RegionLatencyModel {
    /// Region index of each node.
    placement: Vec<usize>,
    /// `matrix[a][b]` holds the RTT statistics between regions `a` and `b`.
    matrix: Vec<Vec<RttStats>>,
    /// RTT statistics for two nodes in the same region (LAN).
    intra_region: RttStats,
}

impl RegionLatencyModel {
    /// Creates a model from a symmetric region matrix and a node placement. Entries on
    /// the matrix diagonal are ignored in favour of `intra_region`.
    pub fn new(matrix: Vec<Vec<RttStats>>, placement: Vec<usize>, intra_region: RttStats) -> Self {
        let regions = matrix.len();
        for row in &matrix {
            assert_eq!(row.len(), regions, "latency matrix must be square");
        }
        for &r in &placement {
            assert!(r < regions, "placement references unknown region {r}");
        }
        RegionLatencyModel {
            placement,
            matrix,
            intra_region,
        }
    }

    /// Default LAN statistics: 0.5 ms average RTT with sub-10 ms tails.
    pub fn default_lan() -> RttStats {
        RttStats::new(0.5, 2.0, 5.0, 10.0)
    }

    /// Number of placed nodes.
    pub fn node_count(&self) -> usize {
        self.placement.len()
    }

    /// RTT statistics between two nodes.
    pub fn stats_between(&self, from: NodeId, to: NodeId) -> RttStats {
        let (a, b) = (self.placement[from], self.placement[to]);
        if a == b {
            self.intra_region
        } else {
            self.matrix[a][b]
        }
    }
}

impl LatencyModel for RegionLatencyModel {
    fn sample(&self, from: NodeId, to: NodeId, rng: &mut SimRng) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        self.stats_between(from, to).sample_one_way(rng)
    }

    fn typical(&self, from: NodeId, to: NodeId) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        self.stats_between(from, to).typical_one_way()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_latency_zero_for_self() {
        let m = ConstantLatency(SimDuration::from_millis(10));
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(m.sample(3, 3, &mut rng), SimDuration::ZERO);
        assert_eq!(m.sample(0, 1, &mut rng), SimDuration::from_millis(10));
    }

    #[test]
    fn uniform_latency_within_bounds() {
        let m = UniformLatency {
            min: SimDuration::from_millis(5),
            max: SimDuration::from_millis(15),
        };
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..1000 {
            let d = m.sample(0, 1, &mut rng);
            assert!(d >= SimDuration::from_millis(5) && d < SimDuration::from_millis(15));
        }
        assert_eq!(m.typical(0, 1), SimDuration::from_millis(10));
    }

    #[test]
    fn rtt_stats_sampling_is_mostly_near_average() {
        let stats = RttStats::new(100.0, 1000.0, 2000.0, 5000.0);
        let mut rng = SimRng::seed_from_u64(3);
        let mut near_avg = 0usize;
        let n = 50_000;
        for _ in 0..n {
            let one_way = stats.sample_one_way(&mut rng).as_millis_f64();
            if one_way <= 100.0 * 1.1 / 2.0 + 1e-9 {
                near_avg += 1;
            }
        }
        // The tail bands have combined probability ~1e-4.
        assert!(near_avg as f64 / n as f64 > 0.999);
    }

    #[test]
    fn region_model_uses_lan_stats_within_region() {
        let wan = RttStats::new(100.0, 500.0, 800.0, 1000.0);
        let matrix = vec![vec![wan; 2], vec![wan; 2]];
        let model =
            RegionLatencyModel::new(matrix, vec![0, 0, 1], RegionLatencyModel::default_lan());
        assert_eq!(model.stats_between(0, 1), RegionLatencyModel::default_lan());
        assert_eq!(model.stats_between(0, 2), wan);
        assert!(model.typical(0, 2) > model.typical(0, 1));
    }

    #[test]
    #[should_panic(expected = "placement references unknown region")]
    fn region_model_rejects_bad_placement() {
        let wan = RttStats::new(100.0, 500.0, 800.0, 1000.0);
        let matrix = vec![vec![wan; 1]];
        let _ = RegionLatencyModel::new(matrix, vec![0, 3], RegionLatencyModel::default_lan());
    }
}
