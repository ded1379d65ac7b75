//! Core identifier and value types shared across the XPaxos implementation.

use bytes::Bytes;
use std::fmt;
use xft_crypto::{Digest, KeyId};

/// Index of a replica within the replica set Π (0-based). Replica `r` occupies simnet
/// node id `r` in clusters built by the [`harness`](crate::harness).
pub type ReplicaId = usize;

/// Identifier of a client machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A view number. Views are consecutively numbered; each view maps to a synchronous
/// group of t + 1 active replicas through [`SyncGroups`](crate::sync_group::SyncGroups).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ViewNumber(pub u64);

impl ViewNumber {
    /// The next view.
    pub fn next(&self) -> ViewNumber {
        ViewNumber(self.0 + 1)
    }
}

impl fmt::Debug for ViewNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A sequence number assigned by the primary to a batch of requests. Sequence numbers
/// start at 1; 0 means "nothing prepared/committed yet".
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// The next sequence number.
    pub fn next(&self) -> SeqNum {
        SeqNum(self.0 + 1)
    }
}

impl fmt::Debug for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sn{}", self.0)
    }
}

/// A client-assigned request timestamp (monotonically increasing per client), used for
/// exactly-once semantics and reply matching.
pub type Timestamp = u64;

/// A client request: the paper's `⟨REPLICATE, op, ts_c, c⟩σc` payload (the signature is
/// carried separately in the message).
#[derive(Clone, PartialEq, Eq)]
pub struct Request {
    /// Issuing client.
    pub client: ClientId,
    /// Client timestamp.
    pub timestamp: Timestamp,
    /// Opaque operation payload handed to the state machine.
    pub op: Bytes,
}

impl Request {
    /// Creates a request.
    pub fn new(client: ClientId, timestamp: Timestamp, op: Bytes) -> Self {
        Request {
            client,
            timestamp,
            op,
        }
    }

    /// Unique identity of the request (client, timestamp).
    pub fn id(&self) -> (ClientId, Timestamp) {
        (self.client, self.timestamp)
    }

    /// Digest of the request, `D(req)` in the paper, derived from the request's
    /// canonical wire encoding.
    pub fn digest(&self) -> Digest {
        xft_wire::domain_digest(b"request", self)
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        8 + 8 + self.op.len()
    }
}

impl fmt::Debug for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Request({:?}, ts={}, {}B)",
            self.client,
            self.timestamp,
            self.op.len()
        )
    }
}

/// A batch of requests ordered under a single sequence number (batching optimization,
/// paper §4.5). A batch of one models the unbatched protocol.
#[derive(Default)]
pub struct Batch {
    /// Requests in the batch, in arrival order at the primary.
    pub requests: Vec<Request>,
    /// Lazily computed digest. A batch's digest is recomputed at every
    /// protocol step that references it (propose, prepare, commit, execute,
    /// consistency checks) — caching it collapses those into one hash per
    /// batch per replica. Never serialized, and excluded from equality.
    cached_digest: std::sync::OnceLock<Digest>,
}

impl Clone for Batch {
    fn clone(&self) -> Self {
        let cached_digest = std::sync::OnceLock::new();
        // The clone holds the same requests, so the digest carries over.
        if let Some(d) = self.cached_digest.get() {
            let _ = cached_digest.set(*d);
        }
        Batch {
            requests: self.requests.clone(),
            cached_digest,
        }
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        self.requests == other.requests
    }
}

impl Eq for Batch {}

impl Batch {
    /// Creates a batch from requests.
    pub fn new(requests: Vec<Request>) -> Self {
        Batch {
            requests,
            cached_digest: std::sync::OnceLock::new(),
        }
    }

    /// Creates a batch holding a single request.
    pub fn single(request: Request) -> Self {
        Batch::new(vec![request])
    }

    /// Digest of the whole batch, derived from its canonical wire encoding.
    /// Computed once and cached.
    pub fn digest(&self) -> Digest {
        *self
            .cached_digest
            .get_or_init(|| xft_wire::domain_digest(b"batch", self))
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Approximate wire size of the batch.
    pub fn wire_size(&self) -> usize {
        self.requests.iter().map(|r| r.wire_size()).sum::<usize>() + 16
    }
}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Batch[{} reqs, {}B]", self.len(), self.wire_size())
    }
}

/// Maps a replica id to the [`KeyId`] it signs with.
pub fn replica_key(replica: ReplicaId) -> KeyId {
    KeyId(replica as u64)
}

/// Maps a client id to the [`KeyId`] it signs with. Client keys live in a disjoint
/// range above any plausible replica count.
pub fn client_key(client: ClientId) -> KeyId {
    KeyId(1_000_000 + client.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_and_seq_increment() {
        assert_eq!(ViewNumber(3).next(), ViewNumber(4));
        assert_eq!(SeqNum(0).next(), SeqNum(1));
    }

    #[test]
    fn request_digest_depends_on_all_fields() {
        let base = Request::new(ClientId(1), 5, Bytes::from_static(b"op"));
        let d = base.digest();
        assert_ne!(
            d,
            Request::new(ClientId(2), 5, Bytes::from_static(b"op")).digest()
        );
        assert_ne!(
            d,
            Request::new(ClientId(1), 6, Bytes::from_static(b"op")).digest()
        );
        assert_ne!(
            d,
            Request::new(ClientId(1), 5, Bytes::from_static(b"oq")).digest()
        );
    }

    #[test]
    fn batch_digest_is_order_sensitive() {
        let a = Request::new(ClientId(1), 1, Bytes::from_static(b"a"));
        let b = Request::new(ClientId(2), 1, Bytes::from_static(b"b"));
        let ab = Batch::new(vec![a.clone(), b.clone()]);
        let ba = Batch::new(vec![b, a]);
        assert_ne!(ab.digest(), ba.digest());
    }

    #[test]
    fn wire_sizes_reflect_payload() {
        let r = Request::new(ClientId(1), 1, Bytes::from(vec![0u8; 1024]));
        assert_eq!(r.wire_size(), 1024 + 16);
        let batch = Batch::new(vec![r.clone(), r]);
        assert_eq!(batch.wire_size(), 2 * 1040 + 16);
        assert!(Batch::default().is_empty());
    }

    #[test]
    fn key_mappings_do_not_collide() {
        assert_ne!(replica_key(0), client_key(ClientId(0)));
        assert_ne!(replica_key(999), client_key(ClientId(0)));
    }
}
