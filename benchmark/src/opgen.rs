//! The steady-state operation generator shared by all four workloads.
//!
//! Every op is a 1 kB `KvOp::Put` over a fixed keyspace of [`KEYSPACE`] keys
//! (~4 MB of replicated state). A first pass covers the keyspace — client `c`
//! of `C` writes keys `c, c + C, c + 2C, …` with its first `⌈KEYSPACE / C⌉`
//! requests — and every later request draws its key from a hash of
//! `(seed, client, timestamp)`. Once each key exists a Put only overwrites,
//! so the state size and the per-op cost are flat for as long as the run
//! lasts. (The legacy `bench_create_op` creates a fresh znode per op, so its
//! numbers depend on how long it ran; it is deliberately not reused.)
//!
//! The replicated program receives only the generated ops: the seed never
//! reaches it by another route.

use bytes::Bytes;
use std::sync::Arc;
use xft_core::client::{ClientWorkload, OpFactory};
use xft_kvstore::ops::KvOp;
use xft_simnet::SimDuration;

/// Number of distinct keys.
pub const KEYSPACE: u64 = 4096;
/// Bytes of data per Put.
pub const PAYLOAD: usize = 1024;

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic op generator for one run: `seed` and the client count fix
/// every key and payload byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpGen {
    seed: u64,
    clients: u64,
}

impl OpGen {
    /// A generator for `clients` (≥ 1) closed-loop clients.
    pub fn new(seed: u64, clients: usize) -> Self {
        OpGen {
            seed,
            clients: clients.max(1) as u64,
        }
    }

    /// Requests each client needs to have had applied for the first pass to
    /// have covered the whole keyspace.
    pub fn first_pass_len(&self) -> u64 {
        KEYSPACE.div_ceil(self.clients)
    }

    fn hash(&self, client: u64, ts: u64) -> u64 {
        mix(mix(mix(self.seed) ^ client) ^ ts)
    }

    /// The key request `ts` (1, 2, 3, …) of `client` writes.
    pub fn key(&self, client: u64, ts: u64) -> u64 {
        let striped = ts.saturating_sub(1) * self.clients + client;
        if ts >= 1 && striped < KEYSPACE {
            striped
        } else {
            self.hash(client, ts) % KEYSPACE
        }
    }

    /// The encoded operation of request `ts` of `client`.
    pub fn op(&self, client: u64, ts: u64) -> Bytes {
        let word = self.hash(client, ts).to_le_bytes();
        let data: Vec<u8> = word.iter().copied().cycle().take(PAYLOAD).collect();
        KvOp::Put {
            path: key_path(self.key(client, ts)),
            data: Bytes::from(data),
        }
        .encode()
    }

    /// A saturating (zero think time, unbounded) client workload issuing this
    /// generator's ops for `client`.
    pub fn workload(&self, client: u64) -> ClientWorkload {
        let gen = *self;
        let factory: Arc<OpFactory> = Arc::new(move |ts| gen.op(client, ts));
        ClientWorkload {
            payload_size: PAYLOAD,
            requests: None,
            think_time: SimDuration::ZERO,
            op_bytes: None,
            op_factory: Some(factory),
            record_history: false,
        }
    }
}

/// The znode path of key `k` (fixed width, so every key costs the same).
pub fn key_path(k: u64) -> String {
    format!("/k{k:04}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xft_core::state_machine::StateMachine;
    use xft_kvstore::CoordinationService;

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        let a = OpGen::new(7, 64);
        let b = OpGen::new(7, 64);
        let c = OpGen::new(8, 64);
        let stream = |g: &OpGen| -> Vec<Bytes> {
            (0..4u64)
                .flat_map(|cl| (1..200u64).map(move |ts| (cl, ts)))
                .map(|(cl, ts)| g.op(cl, ts))
                .collect()
        };
        assert_eq!(stream(&a), stream(&b));
        assert_ne!(stream(&a), stream(&c));
        // Past the first pass the *keys* differ by seed too.
        let keys = |g: &OpGen| -> Vec<u64> { (100..200u64).map(|ts| g.key(3, ts)).collect() };
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(keys(&a), keys(&c));
    }

    #[test]
    fn first_pass_covers_the_keyspace_exactly_once() {
        for clients in [1usize, 3, 64, 200] {
            let g = OpGen::new(1, clients);
            let mut seen = BTreeSet::new();
            for c in 0..clients as u64 {
                for ts in 1..=g.first_pass_len() {
                    let striped = (ts - 1) * clients as u64 + c;
                    if striped < KEYSPACE {
                        assert!(seen.insert(g.key(c, ts)), "key written twice in pass");
                    }
                }
            }
            assert_eq!(seen.len() as u64, KEYSPACE, "{clients} clients");
        }
    }

    #[test]
    fn keys_stay_in_range_and_ops_decode_to_1kb_puts() {
        let g = OpGen::new(42, 64);
        for ts in [0u64, 1, 64, 65, 10_000, u64::MAX] {
            assert!(g.key(5, ts) < KEYSPACE);
        }
        match KvOp::decode(&g.op(5, 1000)) {
            Some(KvOp::Put { path, data }) => {
                assert_eq!(path, key_path(g.key(5, 1000)));
                assert_eq!(data.len(), PAYLOAD);
            }
            other => panic!("not a Put: {other:?}"),
        }
    }

    #[test]
    fn state_size_is_flat_once_every_key_exists() {
        let g = OpGen::new(3, 8);
        let mut svc = CoordinationService::new();
        for ts in 1..=g.first_pass_len() {
            for c in 0..8 {
                assert_eq!(svc.apply(&g.op(c, ts))[0], 1, "put succeeds");
            }
        }
        let full = svc.snapshot().len();
        for ts in g.first_pass_len() + 1..g.first_pass_len() + 200 {
            for c in 0..8 {
                assert_eq!(svc.apply(&g.op(c, ts))[0], 1);
            }
        }
        assert_eq!(svc.snapshot().len(), full);
        assert_eq!(svc.tree().len() as u64, KEYSPACE + 1); // + the root
    }
}
