//! The [`WireEncode`] / [`WireDecode`] traits and the codec implementations for
//! the primitives and combinators protocol messages are built from.
//!
//! All integers are little-endian. Variable-length data is prefixed with a
//! `u32` length (or element count). Collections longer than
//! [`MAX_COLLECTION_LEN`] are rejected during decoding before any allocation,
//! so a hostile 4-byte prefix cannot make a decoder reserve gigabytes.

use bytes::{BufMut, Bytes, Reader};
use std::collections::BTreeMap;
use xft_crypto::{Digest, KeyId, Signature};

/// Upper bound on decoded collection lengths (elements for `Vec`/maps, bytes
/// for byte strings). Far above anything the protocol produces, but small
/// enough that a malicious length prefix cannot cause an outsized allocation.
pub const MAX_COLLECTION_LEN: usize = 1 << 24;

/// Types with a canonical binary wire encoding.
pub trait WireEncode {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode_into(&self, out: &mut impl BufMut);

    /// The canonical encoding as a fresh byte vector.
    fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }
}

/// Types decodable from their canonical wire encoding.
///
/// Decoders return `None` on truncated, malformed or non-canonical input and
/// never panic; the cursor may be left mid-value after a failure.
pub trait WireDecode: Sized {
    /// Decodes one value from the cursor.
    fn decode_from(r: &mut Reader<'_>) -> Option<Self>;

    /// Decodes one value that fills `bytes` exactly: `None` on any decoding
    /// failure and on trailing bytes.
    fn decode_exact(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        Self::decode_from(&mut r).filter(|_| r.is_empty())
    }
}

/// Implements [`WireEncode`] and [`WireDecode`] for a struct as its fields,
/// one after another, in the order listed (declaration order, by
/// convention). Decoding starts a fresh value, so every field must be listed.
///
/// ```
/// struct Vote { view: u64, replica: usize, yes: bool }
/// xft_wire::struct_codec!(Vote { view, replica, yes });
/// ```
#[macro_export]
macro_rules! struct_codec {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::WireEncode for $ty {
            fn encode_into(&self, out: &mut impl $crate::BufMut) {
                $($crate::WireEncode::encode_into(&self.$field, out);)+
            }
        }
        impl $crate::WireDecode for $ty {
            fn decode_from(r: &mut $crate::Reader<'_>) -> Option<Self> {
                Some(Self { $($field: $crate::WireDecode::decode_from(r)?),+ })
            }
        }
    };
}

impl<T: WireEncode + ?Sized> WireEncode for &T {
    fn encode_into(&self, out: &mut impl BufMut) {
        (**self).encode_into(out);
    }
}

impl WireEncode for u8 {
    fn encode_into(&self, out: &mut impl BufMut) {
        out.put_u8(*self);
    }
}

impl WireDecode for u8 {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        r.get_u8()
    }
}

impl WireEncode for u32 {
    fn encode_into(&self, out: &mut impl BufMut) {
        out.put_u32_le(*self);
    }
}

impl WireDecode for u32 {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        r.get_u32_le()
    }
}

impl WireEncode for u64 {
    fn encode_into(&self, out: &mut impl BufMut) {
        out.put_u64_le(*self);
    }
}

impl WireDecode for u64 {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        r.get_u64_le()
    }
}

/// A `usize` (a replica id, a count) is a `u64` on the wire, so builds of
/// any pointer width agree; decoding fails if the value does not fit.
impl WireEncode for usize {
    fn encode_into(&self, out: &mut impl BufMut) {
        (*self as u64).encode_into(out);
    }
}

impl WireDecode for usize {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        usize::try_from(u64::decode_from(r)?).ok()
    }
}

impl WireEncode for bool {
    fn encode_into(&self, out: &mut impl BufMut) {
        out.put_u8(*self as u8);
    }
}

impl WireDecode for bool {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        match r.get_u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None, // non-canonical boolean
        }
    }
}

fn put_len(out: &mut impl BufMut, len: usize) {
    debug_assert!(
        len <= u32::MAX as usize,
        "collection too large for the wire"
    );
    out.put_u32_le(len as u32);
}

fn get_len(r: &mut Reader<'_>) -> Option<usize> {
    let len = r.get_u32_le()? as usize;
    (len <= MAX_COLLECTION_LEN).then_some(len)
}

impl WireEncode for [u8] {
    fn encode_into(&self, out: &mut impl BufMut) {
        put_len(out, self.len());
        out.put_slice(self);
    }
}

impl WireEncode for Bytes {
    fn encode_into(&self, out: &mut impl BufMut) {
        self[..].encode_into(out);
    }
}

impl WireDecode for Bytes {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let len = get_len(r)?;
        r.get_slice(len).map(Bytes::copy_from_slice)
    }
}

impl WireEncode for str {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.as_bytes().encode_into(out);
    }
}

impl WireEncode for String {
    fn encode_into(&self, out: &mut impl BufMut) {
        self.as_str().encode_into(out);
    }
}

impl WireDecode for String {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let len = get_len(r)?;
        let raw = r.get_slice(len)?;
        String::from_utf8(raw.to_vec()).ok()
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode_into(&self, out: &mut impl BufMut) {
        match self {
            None => out.put_u8(0),
            Some(v) => {
                out.put_u8(1);
                v.encode_into(out);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        match r.get_u8()? {
            0 => Some(None),
            1 => T::decode_from(r).map(Some),
            _ => None, // non-canonical option tag
        }
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode_into(&self, out: &mut impl BufMut) {
        put_len(out, self.len());
        for item in self {
            item.encode_into(out);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let len = get_len(r)?;
        // Reserve conservatively: a hostile count is bounded by MAX_COLLECTION_LEN
        // but each element still has to decode from real bytes.
        let mut items = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            items.push(T::decode_from(r)?);
        }
        Some(items)
    }
}

/// Maps encode as a count followed by key/value pairs in strictly ascending key
/// order; decoding rejects unsorted or duplicate keys so the encoding stays
/// canonical (one valid byte string per map).
impl<K: WireEncode + Ord, V: WireEncode> WireEncode for BTreeMap<K, V> {
    fn encode_into(&self, out: &mut impl BufMut) {
        put_len(out, self.len());
        for (k, v) in self {
            k.encode_into(out);
            v.encode_into(out);
        }
    }
}

impl<K: WireDecode + Ord, V: WireDecode> WireDecode for BTreeMap<K, V> {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let len = get_len(r)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode_from(r)?;
            let v = V::decode_from(r)?;
            if let Some((prev, _)) = map.last_key_value() {
                if *prev >= k {
                    return None; // unsorted or duplicate key: not canonical
                }
            }
            map.insert(k, v);
        }
        Some(map)
    }
}

macro_rules! tuple_codec {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: WireEncode),+> WireEncode for ($($name,)+) {
            fn encode_into(&self, out: &mut impl BufMut) {
                $(self.$idx.encode_into(out);)+
            }
        }
        impl<$($name: WireDecode),+> WireDecode for ($($name,)+) {
            fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
                Some(($($name::decode_from(r)?,)+))
            }
        }
    };
}

tuple_codec!(A: 0);
tuple_codec!(A: 0, B: 1);
tuple_codec!(A: 0, B: 1, C: 2);
tuple_codec!(A: 0, B: 1, C: 2, D: 3);
tuple_codec!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_codec!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

impl WireEncode for Digest {
    fn encode_into(&self, out: &mut impl BufMut) {
        out.put_slice(self.as_bytes());
    }
}

impl WireDecode for Digest {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        r.get_array::<32>().map(Digest)
    }
}

impl WireEncode for Signature {
    fn encode_into(&self, out: &mut impl BufMut) {
        out.put_u64_le(self.signer.0);
        out.put_slice(&self.tag);
    }
}

impl WireDecode for Signature {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let signer = KeyId(r.get_u64_le()?);
        let tag = r.get_array::<32>()?;
        Some(Signature { signer, tag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.wire_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = T::decode_from(&mut r).expect("decodes");
        assert_eq!(decoded, value);
        assert!(r.is_empty(), "decoder consumed everything");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(7usize);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(String::from("path/with/∆"));
        round_trip(Bytes::from(vec![1u8, 2, 3]));
        round_trip(Option::<u64>::None);
        round_trip(Some(9u64));
        round_trip(vec![1u64, 2, 3]);
        round_trip(BTreeMap::from([(1u64, 10u64), (2, 20)]));
        round_trip((1u64, true, Bytes::from_static(b"x")));
        round_trip(Digest::of(b"d"));
        round_trip(Signature {
            signer: KeyId(4),
            tag: [7u8; 32],
        });
    }

    #[test]
    fn non_canonical_inputs_are_rejected() {
        // Boolean 2.
        assert_eq!(bool::decode_from(&mut Reader::new(&[2])), None);
        // Option tag 9.
        assert_eq!(Option::<u8>::decode_from(&mut Reader::new(&[9, 0])), None);
        // Unsorted map keys.
        let mut buf = Vec::new();
        put_len(&mut buf, 2);
        (2u64, 0u64).encode_into(&mut buf);
        (1u64, 0u64).encode_into(&mut buf);
        assert_eq!(
            BTreeMap::<u64, u64>::decode_from(&mut Reader::new(&buf)),
            None
        );
        // Duplicate map keys.
        let mut buf = Vec::new();
        put_len(&mut buf, 2);
        (1u64, 0u64).encode_into(&mut buf);
        (1u64, 3u64).encode_into(&mut buf);
        assert_eq!(
            BTreeMap::<u64, u64>::decode_from(&mut Reader::new(&buf)),
            None
        );
        // Invalid UTF-8.
        let mut buf = Vec::new();
        [0xFFu8, 0xFE].as_slice().encode_into(&mut buf);
        assert_eq!(String::decode_from(&mut Reader::new(&buf)), None);
    }

    #[test]
    fn usize_is_a_u64_on_the_wire() {
        assert_eq!(9usize.wire_bytes(), 9u64.wire_bytes());
        if let Ok(narrow) = u32::try_from(usize::MAX) {
            let wide = u64::from(narrow) + 1;
            assert_eq!(usize::decode_exact(&wide.wire_bytes()), None);
        }
    }

    #[test]
    fn decode_exact_rejects_trailing_bytes() {
        let mut bytes = 5u64.wire_bytes();
        assert_eq!(u64::decode_exact(&bytes), Some(5));
        bytes.push(0);
        assert_eq!(u64::decode_exact(&bytes), None);
        assert_eq!(u64::decode_exact(&bytes[..7]), None);
    }

    struct Vote {
        view: u64,
        replica: usize,
        yes: bool,
    }
    crate::struct_codec!(Vote { view, replica, yes });

    #[test]
    fn struct_codec_encodes_fields_in_order() {
        let vote = Vote {
            view: 3,
            replica: 2,
            yes: true,
        };
        let bytes = vote.wire_bytes();
        assert_eq!(bytes, (3u64, 2u64, true).wire_bytes());
        let back = Vote::decode_exact(&bytes).expect("decodes");
        assert_eq!((back.view, back.replica, back.yes), (3, 2, true));
    }

    #[test]
    fn hostile_length_prefixes_do_not_allocate() {
        // Length 2^31 with 4 bytes of payload: rejected before any allocation.
        let mut buf = Vec::new();
        buf.put_u32_le(1 << 31);
        buf.put_slice(&[0, 0, 0, 0]);
        assert_eq!(Bytes::decode_from(&mut Reader::new(&buf)), None);
        assert_eq!(Vec::<u64>::decode_from(&mut Reader::new(&buf)), None);
    }

    #[test]
    fn truncation_always_yields_none() {
        let value = (7u64, Some(Bytes::from(vec![9u8; 40])), vec![1u64, 2, 3]);
        let bytes = value.wire_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                <(u64, Option<Bytes>, Vec<u64>)>::decode_from(&mut r).is_none(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
