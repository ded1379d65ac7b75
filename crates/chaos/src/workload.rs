//! The chaos workload: seeded random reads/writes over a small keyspace,
//! shaped so that client histories are machine-checkable.
//!
//! Every request is a [`KvOp::Put`] or [`KvOp::GetVer`] on one of `keys`
//! top-level znodes. Writes carry a value that encodes the writer's identity
//! `(client, timestamp)` — unique per request — and the service's reply
//! carries the key's new *version* (its write serial number). Reads return
//! `(version, value)`. Versions give the checker a total write order per key
//! for free; unique values let it map any observed value back to the exact
//! request that wrote it.

use bytes::Bytes;
use std::sync::Arc;
use xft_core::client::{ClientWorkload, OpFactory};
use xft_kvstore::KvOp;
use xft_simnet::{SimDuration, SimRng};
use xft_wire::{WireDecode, WireEncode};

/// Path of chaos key `k`.
pub fn key_path(k: usize) -> String {
    format!("/chaos{k}")
}

/// The unique 16-byte value request `(client, ts)` writes.
pub fn encode_value(client: u64, ts: u64) -> Bytes {
    Bytes::from((client, ts).wire_bytes())
}

/// Decodes a written value back to its `(client, ts)` writer.
pub fn decode_value(value: &[u8]) -> Option<(u64, u64)> {
    WireDecode::decode_exact(value)
}

/// The deterministic operation for `(seed, client, ts)`.
pub fn chaos_op(seed: u64, client: u64, ts: u64, keys: usize, read_pct: u64) -> KvOp {
    let mut rng = SimRng::seed_from_u64(
        seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ts.rotate_left(23),
    );
    let key = key_path(rng.next_index(keys.max(1)));
    if rng.next_below(100) < read_pct {
        KvOp::GetVer { path: key }
    } else {
        KvOp::Put {
            path: key,
            data: encode_value(client, ts),
        }
    }
}

/// An [`OpFactory`] issuing [`chaos_op`]s for one client.
pub fn chaos_op_factory(seed: u64, client: u64, keys: usize, read_pct: u64) -> Arc<OpFactory> {
    Arc::new(move |ts| chaos_op(seed, client, ts, keys, read_pct).encode())
}

/// The full chaos client workload: unbounded, history-recording, with a short
/// think time so simulated runs stay event-bounded.
pub fn chaos_workload(seed: u64, client: u64, keys: usize, read_pct: u64) -> ClientWorkload {
    ClientWorkload {
        payload_size: 16,
        requests: None,
        think_time: SimDuration::from_millis(2),
        op_bytes: None,
        op_factory: Some(chaos_op_factory(seed, client, keys, read_pct)),
        record_history: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_deterministic_and_mixed() {
        let a = chaos_op(1, 0, 5, 4, 35);
        let b = chaos_op(1, 0, 5, 4, 35);
        assert_eq!(a, b);
        let reads = (1..=200)
            .filter(|ts| matches!(chaos_op(1, 0, *ts, 4, 35), KvOp::GetVer { .. }))
            .count();
        assert!((30..=145).contains(&reads), "read mix off: {reads}/200");
    }

    #[test]
    fn values_roundtrip_to_their_writer() {
        let v = encode_value(3, 77);
        assert_eq!(decode_value(&v), Some((3, 77)));
        assert_eq!(decode_value(b"short"), None);
    }
}
