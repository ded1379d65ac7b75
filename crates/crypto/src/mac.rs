//! Pairwise channel MACs (`µp,q` in the paper).
//!
//! CFT protocols (Paxos, Zab) and the MAC-authenticated parts of the BFT baselines use
//! message authentication codes between pairs of nodes instead of signatures. The
//! [`Authenticator`] derives a symmetric key per (local, peer) pair from the two
//! parties' registry keys so that both directions agree on the same key.

use crate::digest::Digest;
use crate::hmac::{hmac_sha256, verify_tag};
use crate::keys::{KeyId, KeyRegistry, SecretKey};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Domain-separation prefix for channel MACs.
const MAC_DOMAIN: &[u8] = b"xft-channel-mac-v1";

/// A MAC tag over a message for a specific (sender, receiver) channel.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacTag {
    /// Sender identity.
    pub from: KeyId,
    /// Receiver identity.
    pub to: KeyId,
    /// HMAC tag.
    pub tag: [u8; 32],
}

impl fmt::Debug for MacTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mac({:?}→{:?})", self.from, self.to)
    }
}

/// Per-node MAC authenticator. Caches derived pairwise keys.
pub struct Authenticator {
    id: KeyId,
    own_key: SecretKey,
    registry: Arc<KeyRegistry>,
    pair_keys: Mutex<HashMap<KeyId, [u8; 32]>>,
}

impl Authenticator {
    /// Creates an authenticator for node `id`, registering its key if needed.
    pub fn new(registry: Arc<KeyRegistry>, id: KeyId) -> Self {
        let own_key = registry.register(id);
        Authenticator {
            id,
            own_key,
            registry,
            pair_keys: Mutex::new(HashMap::new()),
        }
    }

    /// The local identity.
    pub fn id(&self) -> KeyId {
        self.id
    }

    /// Derives (and caches) the symmetric key shared with `peer`. The key is a hash of
    /// both parties' secret keys in a canonical order, so both sides derive the same key.
    fn pair_key(&self, peer: KeyId) -> Option<[u8; 32]> {
        if let Some(k) = self
            .pair_keys
            .lock()
            .expect("pair-key cache lock poisoned")
            .get(&peer)
        {
            return Some(*k);
        }
        let peer_key = self.registry.key_of(peer)?;
        let (lo, hi) = if self.id.0 <= peer.0 {
            (self.own_key.clone(), peer_key)
        } else {
            (peer_key, self.own_key.clone())
        };
        let mut buf = Vec::with_capacity(MAC_DOMAIN.len() + 64);
        buf.extend_from_slice(MAC_DOMAIN);
        buf.extend_from_slice(lo.as_bytes());
        buf.extend_from_slice(hi.as_bytes());
        let key = crate::sha256::sha256(&buf);
        self.pair_keys
            .lock()
            .expect("pair-key cache lock poisoned")
            .insert(peer, key);
        Some(key)
    }

    /// Computes a MAC over `digest` for the channel from the local node to `to`.
    pub fn mac_digest(&self, to: KeyId, digest: &Digest) -> Option<MacTag> {
        let key = self.pair_key(to)?;
        let mut buf = Vec::with_capacity(16 + 32);
        buf.extend_from_slice(&self.id.0.to_le_bytes());
        buf.extend_from_slice(&to.0.to_le_bytes());
        buf.extend_from_slice(digest.as_bytes());
        Some(MacTag {
            from: self.id,
            to,
            tag: hmac_sha256(&key, &buf),
        })
    }

    /// Computes a MAC over raw bytes.
    pub fn mac_bytes(&self, to: KeyId, data: &[u8]) -> Option<MacTag> {
        self.mac_digest(to, &Digest::of(data))
    }

    /// Verifies a MAC received on the channel from `tag.from` to the local node.
    pub fn verify_digest(&self, digest: &Digest, tag: &MacTag) -> bool {
        if tag.to != self.id {
            return false;
        }
        let Some(key) = self.pair_key(tag.from) else {
            return false;
        };
        let mut buf = Vec::with_capacity(16 + 32);
        buf.extend_from_slice(&tag.from.0.to_le_bytes());
        buf.extend_from_slice(&tag.to.0.to_le_bytes());
        buf.extend_from_slice(digest.as_bytes());
        let expected = hmac_sha256(&key, &buf);
        verify_tag(&expected, &tag.tag)
    }

    /// Verifies a MAC over raw bytes.
    pub fn verify_bytes(&self, data: &[u8], tag: &MacTag) -> bool {
        self.verify_digest(&Digest::of(data), tag)
    }
}

impl fmt::Debug for Authenticator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Authenticator({:?})", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Authenticator, Authenticator) {
        let registry = KeyRegistry::new(11);
        let a = Authenticator::new(registry.clone(), KeyId(1));
        let b = Authenticator::new(registry, KeyId(2));
        (a, b)
    }

    #[test]
    fn mac_roundtrip_between_two_nodes() {
        let (a, b) = pair();
        let tag = a.mac_bytes(KeyId(2), b"hello").unwrap();
        assert!(b.verify_bytes(b"hello", &tag));
    }

    #[test]
    fn mac_rejects_modified_message() {
        let (a, b) = pair();
        let tag = a.mac_bytes(KeyId(2), b"hello").unwrap();
        assert!(!b.verify_bytes(b"hellO", &tag));
    }

    #[test]
    fn mac_is_directional_in_receiver_check() {
        let (a, b) = pair();
        let tag = a.mac_bytes(KeyId(2), b"hello").unwrap();
        // The sender itself is not the intended receiver.
        assert!(!a.verify_bytes(b"hello", &tag));
        assert!(b.verify_bytes(b"hello", &tag));
    }

    #[test]
    fn third_party_cannot_verify_or_forge() {
        let registry = KeyRegistry::new(11);
        let a = Authenticator::new(registry.clone(), KeyId(1));
        let b = Authenticator::new(registry.clone(), KeyId(2));
        let c = Authenticator::new(registry, KeyId(3));
        let tag = a.mac_bytes(KeyId(2), b"hello").unwrap();
        // c is not the receiver, so verification fails.
        assert!(!c.verify_bytes(b"hello", &tag));
        // c forging a tag claiming to be from a must not verify at b.
        let mut forged = c.mac_bytes(KeyId(2), b"hello").unwrap();
        forged.from = KeyId(1);
        assert!(!b.verify_bytes(b"hello", &forged));
    }

    #[test]
    fn unknown_peer_yields_none() {
        let registry = KeyRegistry::new(1);
        let a = Authenticator::new(registry, KeyId(1));
        assert!(a.mac_bytes(KeyId(999), b"x").is_none());
    }
}
