//! Prepare and commit logs — the proofs XPaxos replicas accumulate in the common case
//! and transfer during view changes (paper §4.2 / §4.3).

use crate::types::{Batch, ReplicaId, SeqNum, ViewNumber};
use std::collections::BTreeMap;
use xft_crypto::{Digest, Signature};

/// One prepare-log entry: the primary's signed ordering statement for a batch,
/// `PrepareLog[sn] = ⟨req, prep⟩` in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareEntry {
    /// View in which the batch was prepared.
    pub view: ViewNumber,
    /// Sequence number assigned by the primary.
    pub sn: SeqNum,
    /// The ordered batch of requests.
    pub batch: Batch,
    /// Client signatures over the individual requests (forwarded alongside the batch).
    pub client_sigs: Vec<Signature>,
    /// The primary's signature over (digest, sn, view).
    pub primary_sig: Signature,
}

impl PrepareEntry {
    /// Digest the primary signs: binds the batch digest, sequence number and
    /// view through their canonical wire encoding.
    pub fn signed_digest(batch_digest: &Digest, sn: SeqNum, view: ViewNumber) -> Digest {
        xft_wire::domain_digest(b"prepare", &(*batch_digest, sn, view))
    }

    /// Approximate wire size.
    pub fn wire_size(&self) -> usize {
        self.batch.wire_size() + 40 * (1 + self.client_sigs.len()) + 24
    }
}

/// One commit-log entry: the batch plus the t + 1 signatures (primary prepare/commit +
/// follower commits) proving it was committed in `view` at `sn`,
/// `CommitLog[sn] = ⟨req, prep, commit…⟩` in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitEntry {
    /// View in which the batch was committed.
    pub view: ViewNumber,
    /// Sequence number of the batch.
    pub sn: SeqNum,
    /// The committed batch.
    pub batch: Batch,
    /// The primary's signature (its prepare/commit statement).
    pub primary_sig: Signature,
    /// Signed commit statements from the followers, keyed by replica.
    pub commit_sigs: BTreeMap<ReplicaId, Signature>,
}

impl CommitEntry {
    /// Digest a follower signs when committing: binds batch digest, sn and
    /// view through their canonical wire encoding.
    pub fn commit_digest(batch_digest: &Digest, sn: SeqNum, view: ViewNumber) -> Digest {
        xft_wire::domain_digest(b"commit", &(*batch_digest, sn, view))
    }

    /// Total number of distinct signatures in the proof (primary + followers).
    pub fn proof_size(&self) -> usize {
        1 + self.commit_sigs.len()
    }

    /// Approximate wire size.
    pub fn wire_size(&self) -> usize {
        self.batch.wire_size() + 40 * self.proof_size() + 24
    }
}

/// Digest the primary signs when it proposes a batch: at t = 1 its proposal is
/// the COMMIT m0 of the fast path (Fig. 2b), so it signs the commit digest; at
/// t ≥ 2 it is the PREPARE of the general path (Fig. 2a).
pub fn proposal_digest(t: usize, batch_digest: &Digest, sn: SeqNum, view: ViewNumber) -> Digest {
    if t == 1 {
        CommitEntry::commit_digest(batch_digest, sn, view)
    } else {
        PrepareEntry::signed_digest(batch_digest, sn, view)
    }
}

/// Digest a replica signs in a COMMIT statement: the commit digest, bound to
/// the reply digest when the COMMIT carries one (the t = 1 follower's m1).
pub fn commit_statement_digest(
    batch_digest: &Digest,
    sn: SeqNum,
    view: ViewNumber,
    reply: Option<&Digest>,
) -> Digest {
    let digest = CommitEntry::commit_digest(batch_digest, sn, view);
    match reply {
        Some(rd) => digest.combine(rd),
        None => digest,
    }
}

/// An entry kept in a [`SlotLog`]: at most one per sequence number.
pub trait Slot {
    /// The sequence number the entry occupies.
    fn sn(&self) -> SeqNum;
    /// Approximate wire size.
    fn wire_size(&self) -> usize;
}

impl Slot for PrepareEntry {
    fn sn(&self) -> SeqNum {
        self.sn
    }

    fn wire_size(&self) -> usize {
        PrepareEntry::wire_size(self)
    }
}

impl Slot for CommitEntry {
    fn sn(&self) -> SeqNum {
        self.sn
    }

    fn wire_size(&self) -> usize {
        CommitEntry::wire_size(self)
    }
}

/// A log of entries keyed by their sequence number.
#[derive(Debug, Clone)]
pub struct SlotLog<E> {
    entries: BTreeMap<u64, E>,
}

/// A replica's prepare log (primary role) or the prepare entries it received
/// (follower role in the general case).
pub type PrepareLog = SlotLog<PrepareEntry>;

/// A replica's commit log.
pub type CommitLog = SlotLog<CommitEntry>;

impl<E> Default for SlotLog<E> {
    fn default() -> Self {
        SlotLog {
            entries: BTreeMap::new(),
        }
    }
}

impl<E: Slot> SlotLog<E> {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) the entry for its sequence number.
    pub fn insert(&mut self, entry: E) {
        self.entries.insert(entry.sn().0, entry);
    }

    /// Looks up the entry at `sn`.
    pub fn get(&self, sn: SeqNum) -> Option<&E> {
        self.entries.get(&sn.0)
    }

    /// Looks up the entry at `sn` for an in-place update.
    pub fn get_mut(&mut self, sn: SeqNum) -> Option<&mut E> {
        self.entries.get_mut(&sn.0)
    }

    /// Whether an entry exists at `sn`.
    pub fn contains(&self, sn: SeqNum) -> bool {
        self.entries.contains_key(&sn.0)
    }

    /// Removes all entries with `sn <= upto` (checkpoint garbage collection).
    pub fn truncate_upto(&mut self, upto: SeqNum) {
        self.entries.retain(|sn, _| *sn > upto.0);
    }

    /// Drops all entries with `sn > keep` — models a Byzantine "data loss" fault.
    pub fn lose_suffix(&mut self, keep: SeqNum) {
        self.entries.retain(|sn, _| *sn <= keep.0);
    }

    /// Highest sequence number present, or `SeqNum(0)` when empty.
    pub fn end(&self) -> SeqNum {
        SeqNum(self.entries.keys().next_back().copied().unwrap_or(0))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in sequence-number order.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.entries.values()
    }

    /// All entries, cloned, in order (used when building VIEW-CHANGE messages).
    pub fn to_vec(&self) -> Vec<E>
    where
        E: Clone,
    {
        self.entries.values().cloned().collect()
    }

    /// Approximate wire size of the whole log.
    pub fn wire_size(&self) -> usize {
        self.entries.values().map(|e| e.wire_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClientId, Request};
    use bytes::Bytes;
    use xft_crypto::KeyId;

    fn batch(tag: u8) -> Batch {
        Batch::single(Request::new(
            ClientId(1),
            tag as u64,
            Bytes::from(vec![tag; 4]),
        ))
    }

    fn prepare(sn: u64, view: u64) -> PrepareEntry {
        PrepareEntry {
            view: ViewNumber(view),
            sn: SeqNum(sn),
            batch: batch(sn as u8),
            client_sigs: vec![Signature::forged(KeyId(9))],
            primary_sig: Signature::forged(KeyId(0)),
        }
    }

    fn commit(sn: u64, view: u64) -> CommitEntry {
        CommitEntry {
            view: ViewNumber(view),
            sn: SeqNum(sn),
            batch: batch(sn as u8),
            primary_sig: Signature::forged(KeyId(0)),
            commit_sigs: BTreeMap::from([(1, Signature::forged(KeyId(1)))]),
        }
    }

    #[test]
    fn logs_insert_get_and_end() {
        let mut pl = PrepareLog::new();
        assert!(pl.is_empty());
        assert_eq!(pl.end(), SeqNum(0));
        pl.insert(prepare(3, 0));
        pl.insert(prepare(1, 0));
        assert_eq!(pl.len(), 2);
        assert_eq!(pl.end(), SeqNum(3));
        assert!(pl.get(SeqNum(1)).is_some());
        assert!(pl.get(SeqNum(2)).is_none());

        let mut cl = CommitLog::new();
        cl.insert(commit(5, 1));
        assert!(cl.contains(SeqNum(5)));
        assert_eq!(cl.end(), SeqNum(5));
    }

    #[test]
    fn truncate_removes_prefix_only() {
        let mut cl = CommitLog::new();
        for sn in 1..=10 {
            cl.insert(commit(sn, 0));
        }
        cl.truncate_upto(SeqNum(7));
        assert_eq!(cl.len(), 3);
        assert!(!cl.contains(SeqNum(7)));
        assert!(cl.contains(SeqNum(8)));
    }

    #[test]
    fn lose_suffix_models_data_loss() {
        let mut cl = CommitLog::new();
        for sn in 1..=10 {
            cl.insert(commit(sn, 0));
        }
        cl.lose_suffix(SeqNum(4));
        assert_eq!(cl.len(), 4);
        assert!(cl.contains(SeqNum(4)));
        assert!(!cl.contains(SeqNum(5)));
        assert_eq!(cl.end(), SeqNum(4));
    }

    #[test]
    fn iteration_is_in_sequence_order() {
        let mut pl = PrepareLog::new();
        for sn in [5, 1, 3, 2, 4] {
            pl.insert(prepare(sn, 0));
        }
        let order: Vec<u64> = pl.iter().map(|e| e.sn.0).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
        let cloned = pl.to_vec();
        assert_eq!(cloned.len(), 5);
    }

    #[test]
    fn wire_sizes_are_nonzero_and_additive() {
        let mut cl = CommitLog::new();
        cl.insert(commit(1, 0));
        let one = cl.wire_size();
        cl.insert(commit(2, 0));
        assert!(cl.wire_size() > one);
        assert!(one > 0);
    }

    #[test]
    fn proof_size_counts_primary_plus_followers() {
        let c = commit(1, 0);
        assert_eq!(c.proof_size(), 2);
    }

    #[test]
    fn signed_digests_bind_view_and_sn() {
        let d = Digest::of(b"batch");
        let a = PrepareEntry::signed_digest(&d, SeqNum(1), ViewNumber(0));
        let b = PrepareEntry::signed_digest(&d, SeqNum(2), ViewNumber(0));
        let c = PrepareEntry::signed_digest(&d, SeqNum(1), ViewNumber(1));
        assert_ne!(a, b);
        assert_ne!(a, c);
        let e = CommitEntry::commit_digest(&d, SeqNum(1), ViewNumber(0));
        assert_ne!(a, e, "prepare and commit domains must differ");
    }

    #[test]
    fn a_commit_statement_binds_the_reply_digest_only_when_it_carries_one() {
        let (d, rd) = (Digest::of(b"batch"), Digest::of(b"reply"));
        let plain = CommitEntry::commit_digest(&d, SeqNum(1), ViewNumber(0));
        let statement = |reply| commit_statement_digest(&d, SeqNum(1), ViewNumber(0), reply);
        assert_eq!(statement(None), plain);
        assert_eq!(statement(Some(&rd)), plain.combine(&rd));
    }
}
