//! Synchronous groups: the mapping from view numbers to the set of t + 1 active
//! replicas (one primary plus t followers), known to all replicas (paper §4.3.1 and
//! Table 2).
//!
//! The default scheme enumerates all `C(2t+1, t+1)` subsets of size t + 1 in
//! lexicographic order and rotates through them round-robin as the view number grows.
//! Each group's primary is its first (lowest-numbered) member that changes least often
//! across consecutive groups — concretely, the lexicographic enumeration with the
//! first element as primary reproduces Table 2 for t = 1:
//!
//! | view  | active replicas | primary | passive |
//! |-------|-----------------|---------|---------|
//! | i     | s0, s1          | s0      | s2      |
//! | i + 1 | s0, s2          | s0      | s1      |
//! | i + 2 | s1, s2          | s1      | s0      |

use crate::types::{ReplicaId, ViewNumber};

/// Enumerates synchronous groups for a cluster of `n = 2t + 1` replicas.
#[derive(Debug, Clone)]
pub struct SyncGroups {
    t: usize,
    groups: Vec<Vec<ReplicaId>>,
}

fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn recurse(
        start: usize,
        n: usize,
        k: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..n {
            // Prune when not enough elements remain.
            if n - i < k - current.len() {
                break;
            }
            current.push(i);
            recurse(i + 1, n, k, current, out);
            current.pop();
        }
    }
    recurse(0, n, k, &mut current, &mut out);
    out
}

impl SyncGroups {
    /// Builds the group table for fault threshold `t`.
    pub fn new(t: usize) -> Self {
        let n = 2 * t + 1;
        let groups = combinations(n, t + 1);
        SyncGroups { t, groups }
    }

    /// Number of distinct synchronous groups, `C(2t+1, t+1)`.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The fault threshold this table was built for.
    pub fn t(&self) -> usize {
        self.t
    }

    /// The active replicas (primary first) of view `v`.
    pub fn active_replicas(&self, v: ViewNumber) -> &[ReplicaId] {
        &self.groups[(v.0 as usize) % self.groups.len()]
    }

    /// The primary of view `v`.
    pub fn primary(&self, v: ViewNumber) -> ReplicaId {
        self.active_replicas(v)[0]
    }

    /// The followers (active replicas other than the primary) of view `v`.
    pub fn followers(&self, v: ViewNumber) -> Vec<ReplicaId> {
        self.active_replicas(v)[1..].to_vec()
    }

    /// The passive replicas of view `v`.
    pub fn passive_replicas(&self, v: ViewNumber) -> Vec<ReplicaId> {
        let active = self.active_replicas(v);
        (0..(2 * self.t + 1))
            .filter(|r| !active.contains(r))
            .collect()
    }

    /// Whether `replica` is active in view `v`.
    pub fn is_active(&self, v: ViewNumber, replica: ReplicaId) -> bool {
        self.active_replicas(v).contains(&replica)
    }

    /// Whether `replica` is the primary of view `v`.
    pub fn is_primary(&self, v: ViewNumber, replica: ReplicaId) -> bool {
        self.primary(v) == replica
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_reproduces_table_2() {
        let sg = SyncGroups::new(1);
        assert_eq!(sg.group_count(), 3);
        // View i: active (s0, s1), primary s0, passive s2.
        assert_eq!(sg.active_replicas(ViewNumber(0)), &[0, 1]);
        assert_eq!(sg.primary(ViewNumber(0)), 0);
        assert_eq!(sg.passive_replicas(ViewNumber(0)), vec![2]);
        // View i+1: active (s0, s2), primary s0, passive s1.
        assert_eq!(sg.active_replicas(ViewNumber(1)), &[0, 2]);
        assert_eq!(sg.primary(ViewNumber(1)), 0);
        assert_eq!(sg.passive_replicas(ViewNumber(1)), vec![1]);
        // View i+2: active (s1, s2), primary s1, passive s0.
        assert_eq!(sg.active_replicas(ViewNumber(2)), &[1, 2]);
        assert_eq!(sg.primary(ViewNumber(2)), 1);
        assert_eq!(sg.passive_replicas(ViewNumber(2)), vec![0]);
        // Round-robin wraps.
        assert_eq!(
            sg.active_replicas(ViewNumber(3)),
            sg.active_replicas(ViewNumber(0))
        );
    }

    #[test]
    fn t2_has_ten_groups_of_three() {
        let sg = SyncGroups::new(2);
        assert_eq!(sg.group_count(), 10); // C(5,3)
        for v in 0..10u64 {
            let group = sg.active_replicas(ViewNumber(v));
            assert_eq!(group.len(), 3);
            assert_eq!(sg.passive_replicas(ViewNumber(v)).len(), 2);
            // Primary is a member of the group.
            assert!(group.contains(&sg.primary(ViewNumber(v))));
            // Followers = group minus primary.
            assert_eq!(sg.followers(ViewNumber(v)).len(), 2);
        }
    }

    #[test]
    fn every_replica_appears_in_some_group() {
        for t in 1..=3 {
            let sg = SyncGroups::new(t);
            let n = 2 * t + 1;
            for r in 0..n {
                let appears = (0..sg.group_count() as u64).any(|v| sg.is_active(ViewNumber(v), r));
                assert!(appears, "replica {r} never active for t={t}");
            }
        }
    }

    #[test]
    fn active_and_passive_partition_the_replica_set() {
        let sg = SyncGroups::new(2);
        for v in 0..20u64 {
            let mut all: Vec<ReplicaId> = sg.active_replicas(ViewNumber(v)).to_vec();
            all.extend(sg.passive_replicas(ViewNumber(v)));
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn is_primary_matches_primary() {
        let sg = SyncGroups::new(2);
        for v in 0..15u64 {
            let p = sg.primary(ViewNumber(v));
            assert!(sg.is_primary(ViewNumber(v), p));
            for r in 0..5 {
                if r != p {
                    assert!(!sg.is_primary(ViewNumber(v), r));
                }
            }
        }
    }
}
