//! # xft-wire — the canonical wire codec of the XFT reproduction
//!
//! Everything that crosses a real socket (and everything a replica or client
//! signs) goes through this crate. It provides:
//!
//! * the [`WireEncode`] / [`WireDecode`] traits — a canonical, deterministic
//!   binary encoding built on the `xft-bytes` shim ([`bytes::BufMut`] writers
//!   and the bounds-checked [`bytes::Reader`] cursor);
//! * codec implementations for the primitives and combinators message types
//!   are made of (integers, byte strings, `Option`, `Vec`, maps, tuples,
//!   digests and signatures), and [`struct_codec!`], which declares a
//!   struct's format as its fields in order — every message, record and
//!   snapshot format in the workspace is declared through this crate;
//! * the versioned message envelope — every encoded message starts with the
//!   [`MAGIC`] header and [`WIRE_VERSION`] byte, so incompatible peers fail
//!   fast with a typed [`WireError`] instead of mis-decoding
//!   ([`encode_msg`] / [`decode_msg`]);
//! * length-prefixed stream framing for TCP transports ([`frame`]);
//! * [`domain_digest`], which derives signed digests directly from the
//!   canonical encoding — whatever is signed is exactly what is sent, removing
//!   any encode/sign drift.
//!
//! The encoding is *canonical*: a value has exactly one valid byte
//! representation (maps must be strictly sorted, `bool` and `Option` tags must
//! be 0/1, trailing bytes are rejected by [`decode_msg`]). This is what makes
//! signing the encoding safe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod envelope;
pub mod frame;

pub use bytes::{BufMut, Reader};
pub use codec::{WireDecode, WireEncode, MAX_COLLECTION_LEN};
pub use envelope::{
    decode_msg, decode_msg_traced, encode_msg, encode_msg_into, encode_msg_traced_into,
    encode_msg_traced_vec, encode_msg_vec, TraceContext, WireError, MAGIC, WIRE_VERSION,
    WIRE_VERSION_TRACED,
};
pub use frame::{frame_bytes, FrameBuffer, DEFAULT_MAX_FRAME};

use xft_crypto::{Digest, Sha256};

/// A [`bytes::BufMut`] sink that feeds bytes straight into a SHA-256 state, so
/// digests of canonical encodings never materialize an intermediate buffer.
struct HashWriter(Sha256);

impl bytes::BufMut for HashWriter {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.update(src);
    }
}

/// Derives a domain-separated digest of a value's canonical wire encoding.
///
/// This is the single source of truth for every signed digest in the protocol:
/// the preimage is `len(domain) ‖ domain ‖ bytes` where `bytes` is the value's
/// [`WireEncode`] output (length-framing the domain keeps the split
/// unambiguous), so two values sign the same digest iff they encode to the
/// same wire bytes under the same domain. The encoding streams directly into
/// the hash state — digesting allocates nothing, which matters because batch
/// and entry digests sit on the protocol's per-message hot path.
pub fn domain_digest<T: WireEncode + ?Sized>(domain: &[u8], value: &T) -> Digest {
    let mut h = HashWriter(Sha256::new());
    h.0.update(&(domain.len() as u64).to_le_bytes());
    h.0.update(domain);
    value.encode_into(&mut h);
    Digest(h.0.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_digest_separates_domains_and_values() {
        let a = domain_digest(b"alpha", &7u64);
        let b = domain_digest(b"beta", &7u64);
        let c = domain_digest(b"alpha", &8u64);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, domain_digest(b"alpha", &7u64));
    }
}
