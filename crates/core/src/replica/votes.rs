//! The two shapes every quorum and stash of the replica takes.
//!
//! The common case, the view change and the checkpoint (paper §4.2–4.5) all
//! collect one statement per replica of a group and act once the group has
//! spoken: COMMIT signatures, PRECHK digests, CHKPT, VIEW-CHANGE, VC-FINAL and
//! VC-CONFIRM messages. [`Votes`] is that collection. [`Reorder`] holds what a
//! follower receives ahead of the sequence number it waits on (proposals, and
//! COMMITs that overtook their PREPARE) for a bounded window.
//!
//! Both are plain data with no replica and no runtime context: what a vote
//! means, who may cast it and what happens at the threshold stays with the
//! handler that owns the map.

use crate::types::ReplicaId;
use std::collections::BTreeMap;

/// At most one vote per replica, in replica-id order. A later vote from the
/// same replica replaces its earlier one: a replica that restarts and joins
/// the same round again speaks for its current state.
#[derive(Debug, Clone)]
pub(crate) struct Votes<V>(BTreeMap<ReplicaId, V>);

impl<V> Default for Votes<V> {
    fn default() -> Self {
        Votes(BTreeMap::new())
    }
}

impl<V> Votes<V> {
    /// Records `from`'s vote; returns whether `from` had not voted before.
    pub(crate) fn insert(&mut self, from: ReplicaId, vote: V) -> bool {
        self.0.insert(from, vote).is_none()
    }

    /// Whether every replica of `group` has voted.
    pub(crate) fn covers(&self, group: &[ReplicaId]) -> bool {
        group.iter().all(|&r| self.get(r).is_some())
    }

    /// How many replicas have voted.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Replica `r`'s vote.
    pub(crate) fn get(&self, r: ReplicaId) -> Option<&V> {
        self.0.get(&r)
    }

    /// The votes in replica-id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.0.values()
    }

    /// The one value every vote carries, if there is at least one vote and
    /// no two differ.
    pub(crate) fn agreed(&self) -> Option<&V>
    where
        V: PartialEq,
    {
        let mut votes = self.values();
        let first = votes.next()?;
        votes.all(|v| v == first).then_some(first)
    }

    /// The votes keyed by replica.
    pub(crate) fn into_map(self) -> BTreeMap<ReplicaId, V> {
        self.0
    }
}

/// Messages held by sequence number for the window `(base, base + cap]`
/// past the next expected one, at most `cap` of them.
#[derive(Debug)]
pub(crate) struct Reorder<M> {
    cap: usize,
    slots: BTreeMap<u64, M>,
}

impl<M> Reorder<M> {
    /// An empty buffer holding at most `cap` slots.
    pub(crate) fn new(cap: usize) -> Self {
        Reorder {
            cap,
            slots: BTreeMap::new(),
        }
    }

    /// Drops every slot at or below `base`, then stores `m` at `sn` if `sn`
    /// lies in `(base, base + cap]` and the buffer has room; an existing slot
    /// at `sn` is replaced. Returns whether `m` was stored.
    pub(crate) fn admit(&mut self, sn: u64, base: u64, m: M) -> bool {
        self.slots = self.slots.split_off(&base.saturating_add(1));
        let in_window = sn > base && sn - base <= self.cap as u64;
        let room = self.slots.len() < self.cap || self.slots.contains_key(&sn);
        if in_window && room {
            self.slots.insert(sn, m);
        }
        in_window && room
    }

    /// Removes and returns the slot at `sn`.
    pub(crate) fn take(&mut self, sn: u64) -> Option<M> {
        self.slots.remove(&sn)
    }

    /// Drops every slot.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<V> Votes<V> {
        /// The replicas that voted, in order.
        pub(crate) fn voters(&self) -> Vec<ReplicaId> {
            self.0.keys().copied().collect()
        }
    }

    impl<M> Reorder<M> {
        /// The occupied sequence numbers, in order.
        pub(crate) fn keys(&self) -> impl Iterator<Item = u64> + '_ {
            self.slots.keys().copied()
        }
    }

    fn votes(cast: &[(ReplicaId, u8)]) -> Votes<u8> {
        let mut votes = Votes::default();
        for &(r, v) in cast {
            votes.insert(r, v);
        }
        votes
    }

    #[test]
    fn votes_table() {
        type Row = (
            &'static [(ReplicaId, u8)],
            &'static [ReplicaId],
            bool,
            Option<u8>,
            &'static [u8],
        );
        // (votes cast in order, group, covers, agreed, values in order)
        let rows: &[Row] = &[
            (&[], &[], true, None, &[]),
            (&[], &[0], false, None, &[]),
            (&[(0, 7)], &[0, 1], false, Some(7), &[7]),
            (&[(1, 7), (0, 7)], &[0, 1], true, Some(7), &[7, 7]),
            // Votes iterate in replica-id order, not arrival order.
            (&[(2, 3), (0, 1), (1, 2)], &[0, 2], true, None, &[1, 2, 3]),
            // A split is no agreement.
            (&[(0, 7), (1, 8)], &[0, 1], true, None, &[7, 8]),
            // A later vote replaces the sender's earlier one, whichever way.
            (&[(0, 7), (1, 8), (1, 7)], &[1], true, Some(7), &[7, 7]),
            (&[(0, 7), (1, 7), (1, 8)], &[0, 1], true, None, &[7, 8]),
        ];
        for (i, (cast, group, covers, agreed, values)) in rows.iter().enumerate() {
            let votes = votes(cast);
            assert_eq!(votes.covers(group), *covers, "row {i}: covers");
            assert_eq!(votes.agreed().copied(), *agreed, "row {i}: agreed");
            assert_eq!(
                votes.values().copied().collect::<Vec<_>>(),
                *values,
                "row {i}"
            );
            assert_eq!(votes.len(), values.len(), "row {i}: len");
        }
    }

    #[test]
    fn a_vote_reports_whether_its_sender_is_new() {
        let mut votes = Votes::default();
        assert!(votes.insert(1, 'a'));
        assert!(votes.insert(0, 'b'));
        assert!(!votes.insert(1, 'c'), "a re-vote is not a new voter");
        assert_eq!((votes.get(1), votes.get(2)), (Some(&'c'), None));
        assert_eq!(votes.into_map(), BTreeMap::from([(0, 'b'), (1, 'c')]));
    }

    #[test]
    fn reorder_table() {
        const CAP: usize = 3;
        type Row = (&'static [u64], u64, u64, bool, &'static [u64]);
        // (slots held before, sn, base, admitted, slots held after)
        let rows: &[Row] = &[
            // The window is (base, base + cap].
            (&[], 10, 10, false, &[]),
            (&[], 11, 10, true, &[11]),
            (&[], 13, 10, true, &[13]),
            (&[], 14, 10, false, &[]),
            // Full: no room for a new slot, but an existing one is replaced.
            (&[11, 12, 13], 12, 10, true, &[11, 12, 13]),
            (&[11, 12], 13, 10, true, &[11, 12, 13]),
            // Slots at or below the base are pruned first, which makes room.
            (&[11, 12, 13], 14, 11, true, &[12, 13, 14]),
            (&[11, 12, 13], 15, 11, false, &[12, 13]),
            (&[11, 12, 13], 16, 13, true, &[16]),
            // A message at or below the base is stale, not early.
            (&[12], 9, 10, false, &[12]),
        ];
        for (i, (held, sn, base, admitted, after)) in rows.iter().enumerate() {
            let mut buffer = Reorder::new(CAP);
            for &s in held.iter() {
                assert!(buffer.admit(s, 10, s * 100), "row {i}: setup");
            }
            assert_eq!(buffer.admit(*sn, *base, sn * 1000), *admitted, "row {i}");
            assert_eq!(buffer.keys().collect::<Vec<_>>(), *after, "row {i}: slots");
        }
    }

    #[test]
    fn a_taken_slot_is_gone_and_clear_drops_all() {
        let mut buffer = Reorder::new(4);
        assert!(buffer.admit(2, 0, 'a'));
        assert!(buffer.admit(3, 0, 'b'));
        assert!(buffer.admit(2, 0, 'c'));
        assert_eq!(buffer.take(2), Some('c'));
        assert_eq!(buffer.take(2), None);
        buffer.clear();
        assert_eq!(buffer.take(3), None);
        assert!(buffer.admit(4, 0, 'd'), "a cleared buffer keeps its window");
    }
}
