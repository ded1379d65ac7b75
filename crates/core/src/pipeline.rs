//! Stateless crypto front-end: the "verify / sign" stages of the replica
//! request pipeline.
//!
//! The replica's request path is split into a **stateless front** and the
//! **serial ordering core** (the `Replica` actor). Everything CPU-heavy and
//! order-independent — client-signature verification, batch digesting,
//! PREPARE/COMMIT signing — goes through a [`CryptoFront`], which runs it on
//! the protocol thread and reports its cost to telemetry.

use crate::types::Request;
use std::sync::Arc;
use std::time::Instant;
use xft_crypto::{Digest, Signature, Signer, Verifier};
use xft_telemetry::Telemetry;

/// The stateless crypto front. See the module docs.
#[derive(Debug)]
pub struct CryptoFront {
    telemetry: Arc<Telemetry>,
}

impl CryptoFront {
    /// Creates a front reporting through `telemetry`.
    pub fn new(telemetry: Arc<Telemetry>) -> Self {
        CryptoFront { telemetry }
    }

    /// A front with telemetry disabled (the `Replica::new` default).
    pub fn inline() -> Self {
        CryptoFront::new(Telemetry::disabled())
    }

    /// Verifies a batch's client signatures (`sigs[i]` over `requests[i]`),
    /// digesting each request and checking the whole batch in one pass.
    ///
    /// Returns `Ok(())` when every signature verifies. On failure the
    /// per-signature fallback inside [`Verifier::verify_batch`] pinpoints the
    /// culprits and their (sorted) indices are returned, so the caller can
    /// drop exactly the bad requests and keep the rest.
    pub fn verify_client_sigs(
        &self,
        verifier: &Verifier,
        requests: &[Request],
        sigs: &[Signature],
    ) -> Result<(), Vec<usize>> {
        debug_assert_eq!(requests.len(), sigs.len());
        let t0 = self.telemetry.is_enabled().then(Instant::now);
        let items: Vec<(Digest, Signature)> = requests
            .iter()
            .zip(sigs.iter())
            .map(|(req, sig)| (crate::messages::client_request_digest(req), *sig))
            .collect();
        let result = verifier.verify_batch(&items);
        if let Some(t0) = t0 {
            self.telemetry.observe(
                "xft_crypto_verify_seconds",
                1e-9,
                t0.elapsed().as_nanos() as u64,
            );
        }
        if result.is_err() {
            self.telemetry.add("xft_sig_batch_fallback_total", 1);
        }
        result
    }

    /// Signs `digest` with `signer`.
    pub fn sign_digest(&self, signer: &Signer, digest: &Digest) -> Signature {
        signer.sign_digest(digest)
    }

    /// Computes (and caches) a batch digest.
    pub fn digest_batch(&self, batch: &crate::types::Batch) -> Digest {
        batch.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::client_request_digest;
    use crate::types::{client_key, ClientId, Request};
    use xft_crypto::KeyRegistry;

    fn make_batch(n: usize, registry: &Arc<KeyRegistry>) -> (Vec<Request>, Vec<Signature>) {
        let mut requests = Vec::new();
        let mut sigs = Vec::new();
        for i in 0..n {
            let client = ClientId(i as u64 % 4);
            let signer = Signer::new(registry, client_key(client));
            let req = Request {
                client,
                timestamp: i as u64,
                op: vec![i as u8; 64].into(),
            };
            let sig = signer.sign_digest(&client_request_digest(&req));
            requests.push(req);
            sigs.push(sig);
        }
        (requests, sigs)
    }

    #[test]
    fn valid_batches_verify() {
        let registry = KeyRegistry::new(5);
        let (requests, sigs) = make_batch(23, &registry);
        let verifier = Verifier::new(registry);
        assert_eq!(
            CryptoFront::inline().verify_client_sigs(&verifier, &requests, &sigs),
            Ok(())
        );
    }

    #[test]
    fn bad_signatures_are_pinpointed() {
        let registry = KeyRegistry::new(5);
        let (requests, mut sigs) = make_batch(23, &registry);
        sigs[2].tag[0] ^= 1;
        sigs[17].tag[5] ^= 0x40;
        sigs[22].tag[31] ^= 0x80;
        let verifier = Verifier::new(registry);
        assert_eq!(
            CryptoFront::inline().verify_client_sigs(&verifier, &requests, &sigs),
            Err(vec![2, 17, 22])
        );
    }

    #[test]
    fn fallback_counter_ticks_on_bad_batches() {
        let registry = KeyRegistry::new(5);
        let (requests, mut sigs) = make_batch(8, &registry);
        sigs[0].tag[0] ^= 1;
        let verifier = Verifier::new(registry);
        let telemetry = Telemetry::enabled();
        let f = CryptoFront::new(telemetry.clone());
        let _ = f.verify_client_sigs(&verifier, &requests, &sigs);
        assert_eq!(telemetry.counter("xft_sig_batch_fallback_total").get(), 1);
    }
}
