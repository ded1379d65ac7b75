//! The Amazon EC2 geo-replication dataset of the paper (Table 3) and helpers for the
//! deployment configurations of Table 4.
//!
//! The paper ran a three-month TCP-ping campaign between six EC2 datacenters and
//! reports, for every pair, the average / 99.99 % / 99.999 % / maximum round-trip time.
//! That matrix is reproduced verbatim here and drives the simulator's WAN latency model.
//! The fault-scalability experiment (t = 2) additionally uses Oregon and Singapore,
//! which Table 3 does not cover; their entries are approximations with the same tail
//! shape, marked below.

use crate::latency::{RegionLatencyModel, RttStats};

/// EC2 regions used across the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// US East (Virginia).
    UsEastVA,
    /// US West 1 (California).
    UsWestCA,
    /// US West 2 (Oregon) — used only by the t = 2 configuration (approximated).
    UsWestOR,
    /// Europe (Ireland).
    EuropeEU,
    /// Tokyo (Japan).
    TokyoJP,
    /// Sydney (Australia).
    SydneyAU,
    /// São Paulo (Brazil).
    SaoPauloBR,
    /// Singapore — used only by the t = 2 configuration (approximated).
    SingaporeSG,
}

impl Region {
    /// All regions, in matrix order.
    pub const ALL: [Region; 8] = [
        Region::UsEastVA,
        Region::UsWestCA,
        Region::UsWestOR,
        Region::EuropeEU,
        Region::TokyoJP,
        Region::SydneyAU,
        Region::SaoPauloBR,
        Region::SingaporeSG,
    ];

    /// Index of this region in [`ec2_rtt_matrix`].
    pub fn index(&self) -> usize {
        Region::ALL.iter().position(|r| r == self).unwrap()
    }

    /// Full datacenter name as printed in Table 3.
    pub fn full_name(&self) -> &'static str {
        match self {
            Region::UsEastVA => "US East (VA)",
            Region::UsWestCA => "US West 1 (CA)",
            Region::UsWestOR => "US West 2 (OR)",
            Region::EuropeEU => "Europe (EU)",
            Region::TokyoJP => "Tokyo (JP)",
            Region::SydneyAU => "Sydney (AU)",
            Region::SaoPauloBR => "Sao Paolo (BR)",
            Region::SingaporeSG => "Singapore (SG)",
        }
    }

    /// Whether the entry for this region pair comes verbatim from Table 3 (`true`) or
    /// is an approximation added for the t = 2 experiment (`false`).
    pub fn measured_in_paper(&self) -> bool {
        !matches!(self, Region::UsWestOR | Region::SingaporeSG)
    }
}

/// Statistics for a pair of nodes placed in the *same* datacenter (LAN).
pub fn intra_region_stats() -> RttStats {
    RegionLatencyModel::default_lan()
}

const fn rtt(avg: f64, p9999: f64, p99999: f64, max: f64) -> RttStats {
    RttStats::new(avg, p9999, p99999, max)
}

/// Placeholder for the diagonal (never used; `RegionLatencyModel` substitutes the LAN
/// statistics for same-region pairs).
const SELF_RTT: RttStats = rtt(0.5, 2.0, 5.0, 10.0);

/// The full 8×8 RTT matrix (milliseconds). Entries among {VA, CA, EU, JP, AU, BR} are
/// exactly Table 3 of the paper; entries involving OR or SG are approximations.
pub fn ec2_rtt_matrix() -> Vec<Vec<RttStats>> {
    use Region::*;
    let mut m = vec![vec![SELF_RTT; 8]; 8];
    let mut set = |a: Region, b: Region, s: RttStats| {
        m[a.index()][b.index()] = s;
        m[b.index()][a.index()] = s;
    };

    // --- Verbatim Table 3 entries -------------------------------------------------
    set(UsEastVA, UsWestCA, rtt(88.0, 1097.0, 82190.0, 166390.0));
    set(UsEastVA, EuropeEU, rtt(92.0, 1112.0, 85649.0, 169749.0));
    set(UsEastVA, TokyoJP, rtt(179.0, 1226.0, 81177.0, 165277.0));
    set(UsEastVA, SydneyAU, rtt(268.0, 1372.0, 95074.0, 179174.0));
    set(UsEastVA, SaoPauloBR, rtt(146.0, 1214.0, 85434.0, 169534.0));
    set(UsWestCA, EuropeEU, rtt(174.0, 1184.0, 1974.0, 15467.0));
    set(UsWestCA, TokyoJP, rtt(120.0, 1133.0, 1180.0, 6210.0));
    set(UsWestCA, SydneyAU, rtt(186.0, 1209.0, 6354.0, 51646.0));
    set(UsWestCA, SaoPauloBR, rtt(207.0, 1252.0, 90980.0, 169080.0));
    set(EuropeEU, TokyoJP, rtt(287.0, 1310.0, 1397.0, 4798.0));
    set(EuropeEU, SydneyAU, rtt(342.0, 1375.0, 3154.0, 11052.0));
    set(EuropeEU, SaoPauloBR, rtt(233.0, 1257.0, 1382.0, 9188.0));
    set(TokyoJP, SydneyAU, rtt(137.0, 1149.0, 1414.0, 5228.0));
    set(TokyoJP, SaoPauloBR, rtt(394.0, 2496.0, 11399.0, 94775.0));
    set(SydneyAU, SaoPauloBR, rtt(392.0, 1496.0, 2134.0, 10983.0));

    // --- Approximated entries for the t = 2 configuration -------------------------
    set(UsWestOR, UsEastVA, rtt(80.0, 1090.0, 60000.0, 120000.0));
    set(UsWestOR, UsWestCA, rtt(30.0, 1040.0, 1500.0, 8000.0));
    set(UsWestOR, EuropeEU, rtt(150.0, 1160.0, 2000.0, 12000.0));
    set(UsWestOR, TokyoJP, rtt(110.0, 1120.0, 1300.0, 6500.0));
    set(UsWestOR, SydneyAU, rtt(175.0, 1200.0, 6000.0, 50000.0));
    set(UsWestOR, SaoPauloBR, rtt(195.0, 1240.0, 80000.0, 160000.0));
    set(UsWestOR, SingaporeSG, rtt(165.0, 1190.0, 2500.0, 14000.0));
    set(SingaporeSG, UsEastVA, rtt(230.0, 1260.0, 80000.0, 160000.0));
    set(SingaporeSG, UsWestCA, rtt(175.0, 1200.0, 2400.0, 13000.0));
    set(SingaporeSG, EuropeEU, rtt(240.0, 1270.0, 2600.0, 14000.0));
    set(SingaporeSG, TokyoJP, rtt(75.0, 1080.0, 1200.0, 6000.0));
    set(SingaporeSG, SydneyAU, rtt(175.0, 1200.0, 2300.0, 12000.0));
    set(SingaporeSG, SaoPauloBR, rtt(330.0, 1400.0, 9000.0, 80000.0));

    m
}

/// Builds a [`RegionLatencyModel`] for the given per-node placement.
pub fn ec2_latency_model(placement: &[Region]) -> RegionLatencyModel {
    RegionLatencyModel::new(
        ec2_rtt_matrix(),
        placement.iter().map(|r| r.index()).collect(),
        intra_region_stats(),
    )
}

/// Derives the paper's Δ (network-fault threshold) from the measured matrix: the
/// smallest half-RTT bound, rounded up to the next 100 ms, that covers the 99.99th
/// percentile of every *measured* datacenter pair. The paper states this as
/// "RTT < 2.5 s 99.99 % of the time ⇒ Δ = 1.25 s".
pub fn recommended_delta_ms() -> u64 {
    let matrix = ec2_rtt_matrix();
    let mut worst_p9999: f64 = 0.0;
    for a in Region::ALL {
        for b in Region::ALL {
            if a == b || !a.measured_in_paper() || !b.measured_in_paper() {
                continue;
            }
            worst_p9999 = worst_p9999.max(matrix[a.index()][b.index()].p9999_ms);
        }
    }
    // Round the RTT bound up to the next 100 ms, then halve it.
    let rtt_bound = (worst_p9999 / 100.0).ceil() * 100.0;
    (rtt_bound / 2.0) as u64
}

/// Replica placements of Table 4 (t = 1): primary and the XPaxos/Paxos follower in the
/// US, the remaining replicas further away. Returns (region per replica), ordered by
/// replica index, for a protocol that uses `n` replicas.
pub fn table4_placement(n: usize) -> Vec<Region> {
    let order = [
        Region::UsWestCA, // primary
        Region::UsEastVA, // follower / active
        Region::TokyoJP,
        Region::EuropeEU,
    ];
    assert!(n <= order.len(), "table 4 covers at most 4 replicas");
    order[..n].to_vec()
}

/// Replica placement used by the t = 2 fault-scalability experiment (Section 5.2):
/// CA, OR, VA, JP, EU, AU, SG in that order.
pub fn t2_placement(n: usize) -> Vec<Region> {
    let order = [
        Region::UsWestCA,
        Region::UsWestOR,
        Region::UsEastVA,
        Region::TokyoJP,
        Region::EuropeEU,
        Region::SydneyAU,
        Region::SingaporeSG,
    ];
    assert!(n <= order.len(), "t=2 placement covers at most 7 replicas");
    order[..n].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        let m = ec2_rtt_matrix();
        for (a, row) in m.iter().enumerate() {
            for (b, cell) in row.iter().enumerate() {
                assert_eq!(*cell, m[b][a], "asymmetry at ({a},{b})");
            }
        }
    }

    #[test]
    fn table3_values_are_reproduced() {
        let m = ec2_rtt_matrix();
        let va = Region::UsEastVA.index();
        let ca = Region::UsWestCA.index();
        let jp = Region::TokyoJP.index();
        let br = Region::SaoPauloBR.index();
        assert_eq!(m[va][ca].avg_ms, 88.0);
        assert_eq!(m[va][ca].max_ms, 166390.0);
        assert_eq!(m[jp][br].p9999_ms, 2496.0);
        assert_eq!(m[jp][br].avg_ms, 394.0);
    }

    #[test]
    fn delta_matches_paper_value() {
        // The paper adopts Δ = 1.25 s from the observation that RTT < 2.5 s at the
        // 99.99th percentile across all measured pairs.
        assert_eq!(recommended_delta_ms(), 1250);
    }

    #[test]
    fn table4_placement_matches_paper() {
        let p = table4_placement(3);
        assert_eq!(p, vec![Region::UsWestCA, Region::UsEastVA, Region::TokyoJP]);
        assert_eq!(table4_placement(4).len(), 4);
    }

    #[test]
    fn t2_placement_covers_seven_regions() {
        let p = t2_placement(7);
        assert_eq!(p.len(), 7);
        let unique: std::collections::HashSet<_> = p.iter().collect();
        assert_eq!(unique.len(), 7);
    }

    #[test]
    fn latency_model_builds_and_distinguishes_regions() {
        use crate::latency::LatencyModel;
        let model = ec2_latency_model(&[Region::UsWestCA, Region::UsEastVA, Region::TokyoJP]);
        // CA↔VA (88 ms RTT) must be typically faster than CA↔JP (120 ms RTT).
        assert!(model.typical(0, 1) < model.typical(0, 2));
    }

    #[test]
    fn region_indexing_roundtrips() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "table 4 covers at most 4 replicas")]
    fn table4_placement_bounds_checked() {
        let _ = table4_placement(5);
    }
}
