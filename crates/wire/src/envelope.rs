//! The versioned message envelope: `MAGIC ‖ version ‖ body`.
//!
//! Peers speaking a different protocol (or garbage) fail fast on the magic
//! header; peers speaking a future codec revision fail on the version byte
//! with a dedicated error instead of mis-decoding the body.
//!
//! Version 2 adds an optional [`TraceContext`] between the version byte and
//! the body: `MAGIC ‖ 2 ‖ Option<TraceContext> ‖ body`. Decoders accept both
//! versions — a version-1-era decoder pattern (plain [`decode_msg`]) skips
//! the trace field of a version-2 frame cleanly, and [`decode_msg_traced`]
//! surfaces it. Signatures are computed over the canonical *body* encoding
//! ([`crate::domain_digest`]), so the trace field is authenticated by
//! nobody and carries observability data only.

use crate::codec::{WireDecode, WireEncode};
use bytes::{BufMut, Bytes, Reader};
use std::fmt;

/// Magic header opening every encoded message.
pub const MAGIC: [u8; 4] = *b"XFTW";

/// Version of the canonical encoding produced by this crate.
pub const WIRE_VERSION: u8 = 1;

/// Envelope version carrying an optional trace context before the body.
pub const WIRE_VERSION_TRACED: u8 = 2;

/// Observability correlation context carried by a version-2 envelope.
///
/// The ID is minted at the client (deterministically, from client id and
/// request timestamp) and propagated hop by hop so one request's path can be
/// reconstructed across replicas. It never participates in any digest or
/// signature and must never influence protocol decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The correlation ID (0 is reserved for "no trace" and never encoded).
    pub id: u64,
}

crate::struct_codec!(TraceContext { id });

/// Typed decoding failures surfaced by [`decode_msg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The version byte names an encoding this build does not speak.
    UnsupportedVersion(u8),
    /// The body failed to decode (truncated, unknown tag, non-canonical data).
    Malformed,
    /// The body decoded but left unconsumed bytes — not a canonical encoding.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic header"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Malformed => write!(f, "malformed message body"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a message under the versioned envelope, appending to `out`.
pub fn encode_msg_into<T: WireEncode + ?Sized>(msg: &T, out: &mut Vec<u8>) {
    out.put_slice(&MAGIC);
    out.put_u8(WIRE_VERSION);
    msg.encode_into(out);
}

/// Encodes a message under the versioned envelope into a fresh vector.
pub fn encode_msg_vec<T: WireEncode + ?Sized>(msg: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    encode_msg_into(msg, &mut out);
    out
}

/// Encodes a message under the versioned envelope as immutable [`Bytes`].
pub fn encode_msg<T: WireEncode + ?Sized>(msg: &T) -> Bytes {
    Bytes::from(encode_msg_vec(msg))
}

/// Encodes a message with an optional trace context, appending to `out`.
///
/// `None` produces a plain version-1 envelope (byte-identical to
/// [`encode_msg_into`]), so tracing costs zero bytes when off; `Some`
/// produces a version-2 envelope carrying the context.
pub fn encode_msg_traced_into<T: WireEncode + ?Sized>(
    msg: &T,
    trace: Option<TraceContext>,
    out: &mut Vec<u8>,
) {
    match trace {
        None => encode_msg_into(msg, out),
        Some(ctx) => {
            out.put_slice(&MAGIC);
            out.put_u8(WIRE_VERSION_TRACED);
            Some(ctx).encode_into(out);
            msg.encode_into(out);
        }
    }
}

/// Encodes a message with an optional trace context into a fresh vector.
pub fn encode_msg_traced_vec<T: WireEncode + ?Sized>(
    msg: &T,
    trace: Option<TraceContext>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    encode_msg_traced_into(msg, trace, &mut out);
    out
}

/// Shared envelope-header walk: checks magic, reads the version, skips or
/// surfaces the version-2 trace field, and leaves the reader at the body.
fn decode_header(r: &mut Reader<'_>) -> Result<Option<TraceContext>, WireError> {
    let magic = r.get_array::<4>().ok_or(WireError::BadMagic)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.get_u8().ok_or(WireError::Malformed)?;
    match version {
        WIRE_VERSION => Ok(None),
        WIRE_VERSION_TRACED => Option::<TraceContext>::decode_from(r).ok_or(WireError::Malformed),
        other => Err(WireError::UnsupportedVersion(other)),
    }
}

/// Decodes a message from an enveloped buffer, enforcing canonicality: the
/// magic must match, the version must be one this build speaks, and the body
/// must consume every byte. A version-2 trace field is skipped — decoders
/// that predate tracing (or don't care) keep working unchanged.
pub fn decode_msg<T: WireDecode>(data: &[u8]) -> Result<T, WireError> {
    decode_msg_traced(data).map(|(msg, _)| msg)
}

/// Like [`decode_msg`] but surfaces the version-2 trace context
/// (`None` for version-1 frames and untagged version-2 frames).
pub fn decode_msg_traced<T: WireDecode>(
    data: &[u8],
) -> Result<(T, Option<TraceContext>), WireError> {
    let mut r = Reader::new(data);
    let trace = decode_header(&mut r)?;
    let msg = T::decode_from(&mut r).ok_or(WireError::Malformed)?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok((msg, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trip() {
        let encoded = encode_msg(&(5u64, true));
        assert_eq!(&encoded[..4], &MAGIC);
        assert_eq!(encoded[4], WIRE_VERSION);
        let decoded: (u64, bool) = decode_msg(&encoded).unwrap();
        assert_eq!(decoded, (5, true));
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let mut encoded = encode_msg_vec(&1u64);
        encoded[0] ^= 0xFF;
        assert_eq!(decode_msg::<u64>(&encoded), Err(WireError::BadMagic));

        let mut encoded = encode_msg_vec(&1u64);
        encoded[4] = 99;
        assert_eq!(
            decode_msg::<u64>(&encoded),
            Err(WireError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let encoded = encode_msg_vec(&7u64);
        assert_eq!(decode_msg::<u64>(&encoded[..3]), Err(WireError::BadMagic));
        assert_eq!(decode_msg::<u64>(&encoded[..8]), Err(WireError::Malformed));
        let mut padded = encoded.clone();
        padded.push(0);
        assert_eq!(decode_msg::<u64>(&padded), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn empty_buffer_is_bad_magic() {
        assert_eq!(decode_msg::<u64>(&[]), Err(WireError::BadMagic));
    }

    /// Tiny deterministic xorshift so the round-trip property below covers
    /// many (trace, payload) combinations without a proptest dependency.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn traced_round_trip_property() {
        let mut rng = 0x1234_5678_9abc_def0u64;
        for _ in 0..200 {
            let id = xorshift(&mut rng);
            let payload = (xorshift(&mut rng), xorshift(&mut rng).is_multiple_of(2));
            let trace = if id.is_multiple_of(3) {
                None
            } else {
                Some(TraceContext { id })
            };
            let encoded = encode_msg_traced_vec(&payload, trace);
            let (decoded, got_trace) = decode_msg_traced::<(u64, bool)>(&encoded).unwrap();
            assert_eq!(decoded, payload);
            assert_eq!(got_trace, trace);
            // The envelope version reflects whether a trace rides along.
            let expect_version = if trace.is_some() {
                WIRE_VERSION_TRACED
            } else {
                WIRE_VERSION
            };
            assert_eq!(encoded[4], expect_version);
        }
    }

    #[test]
    fn old_decoder_skips_the_trace_field_cleanly() {
        // A v2 frame with a trace decodes through the plain (v1-era) entry
        // point: the optional field is skipped, the body is intact.
        let traced = encode_msg_traced_vec(&(9u64, false), Some(TraceContext { id: 77 }));
        let decoded: (u64, bool) = decode_msg(&traced).unwrap();
        assert_eq!(decoded, (9, false));
    }

    #[test]
    fn traced_decoder_accepts_untraced_frames() {
        // The other direction of the mixed-version pair: a v1 frame through
        // the traced entry point yields the body and no trace.
        let plain = encode_msg_vec(&(3u64, true));
        let (decoded, trace) = decode_msg_traced::<(u64, bool)>(&plain).unwrap();
        assert_eq!(decoded, (3, true));
        assert_eq!(trace, None);
    }

    #[test]
    fn none_trace_encodes_as_version_1() {
        // Zero-byte overhead when tracing is off: byte-identical envelopes.
        assert_eq!(encode_msg_traced_vec(&5u32, None), encode_msg_vec(&5u32));
    }

    #[test]
    fn traced_frames_enforce_canonicality_too() {
        let mut traced = encode_msg_traced_vec(&1u64, Some(TraceContext { id: 8 }));
        traced.push(0);
        assert_eq!(
            decode_msg_traced::<u64>(&traced),
            Err(WireError::TrailingBytes(1))
        );
        let traced = encode_msg_traced_vec(&1u64, Some(TraceContext { id: 8 }));
        assert_eq!(
            decode_msg_traced::<u64>(&traced[..7]),
            Err(WireError::Malformed)
        );
    }
}
