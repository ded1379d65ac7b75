//! The replicated state machine interface and two built-in services.
//!
//! XPaxos (like the paper's evaluation) is service-agnostic: replicas apply committed
//! operations to a deterministic [`StateMachine`]. The micro-benchmarks replicate a
//! [`NullService`] ("each server replicates a null service — there is no execution of
//! requests"); the ZooKeeper macro-benchmark plugs in the coordination service from the
//! `xft-kvstore` crate through this same trait.

use bytes::Bytes;
use xft_crypto::Digest;
use xft_wire::{WireDecode, WireEncode};

/// A deterministic replicated state machine.
pub trait StateMachine: Send {
    /// Applies one operation and returns the reply payload.
    fn apply(&mut self, op: &[u8]) -> Bytes;

    /// A digest of the current state (`D(st)` in the paper), used by the
    /// agreement checks of tests and tools. Checkpoints do not call it: they
    /// commit to the [`StateMachine::snapshot`] bytes, which cover the state.
    fn state_digest(&self) -> Digest;

    /// Estimated CPU nanoseconds needed to execute `op` (charged to the executing
    /// replica by the simulation). The null service costs nothing.
    fn execution_cost_ns(&self, _op: &[u8]) -> u64 {
        0
    }

    /// Resets the service to its initial (empty) state. Used by the *amnesia*
    /// fault injection (a non-crash storage-loss fault): the replica forgets
    /// its logs *and* its application state, then rebuilds both from whatever
    /// the protocol re-delivers.
    fn reset(&mut self);

    /// Serializes the complete service state into an opaque snapshot blob.
    ///
    /// Used by checkpointing (the snapshot a lagging replica fetches through
    /// state transfer) and by crash recovery (`xft-store` snapshot files).
    /// Must be deterministic (equal states give equal bytes: the checkpoint
    /// digest covers them), and `restore(snapshot())` must reproduce a state
    /// with the same `snapshot()` and [`StateMachine::state_digest`] — a
    /// replica adopting a snapshot checks the former.
    ///
    /// An implementation may keep its encodings between calls and bring one
    /// up to date on a later call (the coordination service keeps its last
    /// two and rewrites only what changed), but must return bytes equal to a
    /// from-scratch encoding of its current state, and must never write
    /// under bytes a caller still holds. A replica holds only the latest
    /// call's bytes (in the previous checkpoint's image) by the time it
    /// calls again, which lets such an implementation write the buffer of
    /// two calls back in place.
    fn snapshot(&self) -> Bytes;

    /// Replaces the service state with a previously captured snapshot.
    ///
    /// Returns `false` — leaving the current state untouched — when the blob
    /// does not decode. Implementations must decode fully into a fresh
    /// instance before swapping, so a malformed or truncated blob can never
    /// leave the service half-restored.
    fn restore(&mut self, snapshot: &[u8]) -> bool;
}

/// The null service used by the 1/0 and 4/0 micro-benchmarks: every operation returns
/// an empty reply and the state never changes.
#[derive(Debug, Default, Clone)]
pub struct NullService {
    applied: u64,
}

impl NullService {
    /// Creates a null service.
    pub fn new() -> Self {
        NullService { applied: 0 }
    }

    /// Number of operations applied so far (useful for tests).
    pub fn applied(&self) -> u64 {
        self.applied
    }
}

impl StateMachine for NullService {
    fn apply(&mut self, _op: &[u8]) -> Bytes {
        self.applied += 1;
        Bytes::new()
    }

    fn state_digest(&self) -> Digest {
        Digest::of(&self.applied.to_le_bytes())
    }

    fn reset(&mut self) {
        *self = NullService::new();
    }

    fn snapshot(&self) -> Bytes {
        Bytes::from(self.applied.wire_bytes())
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        let Some(applied) = u64::decode_exact(snapshot) else {
            return false;
        };
        self.applied = applied;
        true
    }
}

/// A simple append-log service that records the digest chain of every applied
/// operation. It is used by the consistency checks: two replicas that applied the same
/// operations in the same order have identical state digests, and any divergence is
/// reflected in the digest.
#[derive(Debug, Clone)]
pub struct DigestChainService {
    chain: Digest,
    applied: u64,
}

impl Default for DigestChainService {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestChainService {
    /// Creates the service with an empty chain.
    pub fn new() -> Self {
        DigestChainService {
            chain: Digest::of(b"genesis"),
            applied: 0,
        }
    }

    /// Number of operations applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The current chain digest.
    pub fn chain(&self) -> Digest {
        self.chain
    }
}

impl StateMachine for DigestChainService {
    fn apply(&mut self, op: &[u8]) -> Bytes {
        self.chain = self.chain.combine(&Digest::of(op));
        self.applied += 1;
        Bytes::copy_from_slice(&self.chain.as_bytes()[..8])
    }

    fn state_digest(&self) -> Digest {
        self.chain
    }

    fn reset(&mut self) {
        *self = DigestChainService::new();
    }

    fn snapshot(&self) -> Bytes {
        Bytes::from((self.chain, self.applied).wire_bytes())
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        let Some((chain, applied)) = WireDecode::decode_exact(snapshot) else {
            return false;
        };
        self.chain = chain;
        self.applied = applied;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_service_counts_and_returns_empty() {
        let mut s = NullService::new();
        assert_eq!(s.apply(b"anything"), Bytes::new());
        assert_eq!(s.apply(b"more"), Bytes::new());
        assert_eq!(s.applied(), 2);
        assert_eq!(s.execution_cost_ns(b"x"), 0);
    }

    #[test]
    fn null_service_digest_tracks_apply_count_only() {
        let mut a = NullService::new();
        let mut b = NullService::new();
        a.apply(b"x");
        b.apply(b"completely different");
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn digest_chain_is_order_sensitive() {
        let mut ab = DigestChainService::new();
        ab.apply(b"a");
        ab.apply(b"b");
        let mut ba = DigestChainService::new();
        ba.apply(b"b");
        ba.apply(b"a");
        assert_ne!(ab.state_digest(), ba.state_digest());
        assert_eq!(ab.applied(), 2);
    }

    #[test]
    fn snapshots_restore_digest_faithfully() {
        let mut n = NullService::new();
        n.apply(b"a");
        n.apply(b"b");
        let mut n2 = NullService::new();
        assert!(n2.restore(&n.snapshot()));
        assert_eq!(n2.state_digest(), n.state_digest());
        assert_eq!(n2.applied(), 2);

        let mut d = DigestChainService::new();
        d.apply(b"x");
        d.apply(b"y");
        let mut d2 = DigestChainService::new();
        assert!(d2.restore(&d.snapshot()));
        assert_eq!(d2.state_digest(), d.state_digest());
        assert_eq!(d2.applied(), 2);
        // Restored state keeps evolving identically.
        assert_eq!(d.apply(b"z"), d2.apply(b"z"));
    }

    #[test]
    fn malformed_snapshots_are_rejected_without_damage() {
        let mut d = DigestChainService::new();
        d.apply(b"x");
        let before = d.state_digest();
        assert!(!d.restore(b"garbage"));
        assert!(!d.restore(&[0u8; 39]));
        assert_eq!(d.state_digest(), before);
        let mut n = NullService::new();
        assert!(!n.restore(&[1, 2, 3]));
    }

    #[test]
    fn digest_chain_same_inputs_same_state() {
        let mut x = DigestChainService::new();
        let mut y = DigestChainService::new();
        for op in [b"op1".as_ref(), b"op2".as_ref(), b"op3".as_ref()] {
            let rx = x.apply(op);
            let ry = y.apply(op);
            assert_eq!(rx, ry);
        }
        assert_eq!(x.state_digest(), y.state_digest());
    }
}
