//! Stateless crypto front-end: the "verify∥ / sign∥" stages of the replica
//! request pipeline.
//!
//! The replica's request path is split into a **stateless front** and the
//! **serial ordering core** (the `Replica` actor). Everything CPU-heavy and
//! order-independent — client-signature verification, batch digesting,
//! PREPARE/COMMIT signing — runs through a [`CryptoFront`], which executes it
//! on the protocol thread (zero workers) or scattered across a fixed pool of
//! crypto workers. The front is *synchronous at the API*: callers always get
//! the complete result back before proceeding, so the ordering core observes
//! identical values with any worker count and simulated runs stay
//! bit-deterministic (the determinism regression test compares zero workers
//! against two).
//!
//! Back-pressure: the pool's job queue is bounded. When it fills, jobs
//! degrade to caller-inline execution, which slows admission on the protocol
//! thread and in turn trips the existing `Busy` shedding valve
//! (`max_pending_requests`) — the front never buffers unboundedly.

use crate::types::Request;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use xft_crypto::{Digest, Signature, Signer, Verifier};
use xft_telemetry::Telemetry;

/// A unit of work shipped to a crypto worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The fixed worker pool behind a front with one or more workers.
struct Pool {
    tx: SyncSender<Job>,
    /// Jobs submitted but not yet picked up (mirrors the queue-depth gauge,
    /// kept here so the gauge survives telemetry being disabled).
    depth: AtomicI64,
    workers: Vec<JoinHandle<()>>,
    telemetry: Arc<Telemetry>,
}

impl Pool {
    fn spawn(workers: usize, telemetry: Arc<Telemetry>) -> Self {
        // Bounded: a full queue pushes work back onto the caller.
        let (tx, rx) = mpsc::sync_channel::<Job>(workers * 4);
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("xft-crypto-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = rx.lock().expect("crypto queue poisoned");
                            guard.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => return, // front dropped; drain done
                        }
                    })
                    .expect("spawn crypto worker")
            })
            .collect();
        Pool {
            tx,
            depth: AtomicI64::new(0),
            workers: handles,
            telemetry,
        }
    }

    /// Enqueues `job`, or runs it on the caller when the queue is full
    /// (bounded-queue back-pressure).
    fn submit(&self, job: Job) {
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.telemetry.gauge_add("xft_crypto_queue_depth", 1);
        match self.tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                self.note_dequeued();
                job();
            }
        }
    }

    fn note_dequeued(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        self.telemetry.gauge_add("xft_crypto_queue_depth", -1);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        let (dead_tx, _) = mpsc::sync_channel(1);
        self.tx = dead_tx;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The stateless crypto front. See the module docs.
pub struct CryptoFront {
    workers: usize,
    pool: Option<Arc<Pool>>,
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for CryptoFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CryptoFront({} workers)", self.workers)
    }
}

/// Smallest per-worker chunk worth shipping: below this the clone + queueing
/// overhead exceeds the verification itself.
const MIN_CHUNK: usize = 4;

impl CryptoFront {
    /// Creates a front backed by `workers` crypto threads, reporting through
    /// `telemetry`. With zero workers all crypto runs on the caller (the
    /// simulator default; also the best configuration on a single-core host).
    pub fn new(workers: usize, telemetry: Arc<Telemetry>) -> Self {
        let pool = (workers > 0).then(|| Arc::new(Pool::spawn(workers, telemetry.clone())));
        CryptoFront {
            workers,
            pool,
            telemetry,
        }
    }

    /// A front without workers and with telemetry disabled (the
    /// `Replica::new` default).
    pub fn inline() -> Self {
        CryptoFront::new(0, Telemetry::disabled())
    }

    /// Number of worker threads backing the front.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Verifies a batch's client signatures (`sigs[i]` over `requests[i]`),
    /// digesting each request and checking the whole batch in one pass.
    ///
    /// Returns `Ok(())` when every signature verifies. On failure the
    /// per-signature fallback inside [`Verifier::verify_batch`] pinpoints the
    /// culprits and their (sorted) indices are returned, so the caller can
    /// drop exactly the bad requests and keep the rest. Results are
    /// identical with any worker count; only the threads doing the hashing
    /// differ.
    pub fn verify_client_sigs(
        &self,
        verifier: &Verifier,
        requests: &[Request],
        sigs: &[Signature],
    ) -> Result<(), Vec<usize>> {
        debug_assert_eq!(requests.len(), sigs.len());
        let t0 = self.telemetry.is_enabled().then(Instant::now);
        let result = match &self.pool {
            None => Self::verify_chunk(verifier, requests, sigs),
            Some(pool) => self.verify_scattered(pool, verifier, requests, sigs),
        };
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

    /// One chunk of the verification pass: digest + batch-verify.
    fn verify_chunk(
        verifier: &Verifier,
        requests: &[Request],
        sigs: &[Signature],
    ) -> Result<(), Vec<usize>> {
        let items: Vec<(Digest, Signature)> = requests
            .iter()
            .zip(sigs.iter())
            .map(|(req, sig)| (crate::messages::client_request_digest(req), *sig))
            .collect();
        verifier.verify_batch(&items)
    }

    /// Scatters the batch across the worker pool and gathers per-chunk
    /// verdicts, merging culprit indices back into batch coordinates.
    fn verify_scattered(
        &self,
        pool: &Arc<Pool>,
        verifier: &Verifier,
        requests: &[Request],
        sigs: &[Signature],
    ) -> Result<(), Vec<usize>> {
        let n = requests.len();
        let chunk_len = n.div_ceil(self.workers).max(MIN_CHUNK);
        if n <= chunk_len {
            return Self::verify_chunk(verifier, requests, sigs);
        }
        let (result_tx, result_rx) = mpsc::channel::<(usize, Result<(), Vec<usize>>)>();
        let mut chunks = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + chunk_len).min(n);
            // Workers need owned data; the chunk clone is what the
            // scatter costs (bounded by the batch size).
            let req_chunk: Vec<Request> = requests[start..end].to_vec();
            let sig_chunk: Vec<Signature> = sigs[start..end].to_vec();
            let verifier = verifier.clone();
            let tx = result_tx.clone();
            let pool_ref = Arc::clone(pool);
            let offset = start;
            pool.submit(Box::new(move || {
                pool_ref.note_dequeued();
                let verdict = Self::verify_chunk(&verifier, &req_chunk, &sig_chunk);
                let _ = tx.send((offset, verdict));
            }));
            chunks += 1;
            start = end;
        }
        drop(result_tx);
        let mut culprits: Vec<usize> = Vec::new();
        let mut ok = true;
        for _ in 0..chunks {
            let (offset, verdict) = result_rx.recv().expect("crypto worker vanished");
            if let Err(local) = verdict {
                ok = false;
                culprits.extend(local.into_iter().map(|i| i + offset));
            }
        }
        if ok {
            Ok(())
        } else {
            culprits.sort_unstable();
            Err(culprits)
        }
    }

    /// Signs `digest` with `signer`, off the protocol thread when pooled.
    /// Synchronous: the signature is returned to the caller either way.
    pub fn sign_digest(&self, signer: &Signer, digest: &Digest) -> Signature {
        match &self.pool {
            None => signer.sign_digest(digest),
            Some(pool) => {
                let (tx, rx) = mpsc::channel();
                let signer = signer.clone();
                let digest = *digest;
                let pool_ref = Arc::clone(pool);
                pool.submit(Box::new(move || {
                    pool_ref.note_dequeued();
                    let _ = tx.send(signer.sign_digest(&digest));
                }));
                rx.recv().expect("crypto worker vanished")
            }
        }
    }

    /// Computes (and caches) a batch digest, off the protocol thread when
    /// pooled.
    pub fn digest_batch(&self, batch: &crate::types::Batch) -> Digest {
        match &self.pool {
            None => batch.digest(),
            Some(pool) => {
                let (tx, rx) = mpsc::channel();
                let work = batch.clone();
                let pool_ref = Arc::clone(pool);
                pool.submit(Box::new(move || {
                    pool_ref.note_dequeued();
                    let _ = tx.send(work.digest());
                }));
                let digest = rx.recv().expect("crypto worker vanished");
                // The worker hashed a clone; warm the caller's cache so later
                // digest() calls on the original stay free.
                batch.warm_digest(digest);
                digest
            }
        }
    }

    /// Current depth of the worker queue (0 when not pooled).
    pub fn queue_depth(&self) -> i64 {
        self.pool
            .as_ref()
            .map(|p| p.depth.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::client_request_digest;
    use crate::types::{client_key, Batch, ClientId, Request};
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

    fn front(workers: usize) -> CryptoFront {
        CryptoFront::new(workers, Telemetry::disabled())
    }

    #[test]
    fn every_worker_count_agrees_on_valid_batches() {
        let registry = KeyRegistry::new(5);
        let (requests, sigs) = make_batch(23, &registry);
        let verifier = Verifier::new(registry);
        for workers in [0, 3] {
            let f = front(workers);
            assert_eq!(
                f.verify_client_sigs(&verifier, &requests, &sigs),
                Ok(()),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn every_worker_count_pinpoints_the_same_culprits() {
        let registry = KeyRegistry::new(5);
        let (requests, mut sigs) = make_batch(23, &registry);
        sigs[2].tag[0] ^= 1;
        sigs[17].tag[5] ^= 0x40;
        sigs[22].tag[31] ^= 0x80;
        let verifier = Verifier::new(registry);
        for workers in [0, 3] {
            let f = front(workers);
            assert_eq!(
                f.verify_client_sigs(&verifier, &requests, &sigs),
                Err(vec![2, 17, 22]),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn pooled_signing_matches_inline() {
        let registry = KeyRegistry::new(9);
        let signer = Signer::new(&registry, client_key(ClientId(0)));
        let digest = Digest::of(b"sign me");
        let inline_sig = front(0).sign_digest(&signer, &digest);
        let pooled_sig = front(2).sign_digest(&signer, &digest);
        assert_eq!(inline_sig, pooled_sig);
    }

    #[test]
    fn pooled_digesting_matches_inline() {
        let registry = KeyRegistry::new(9);
        let (requests, _) = make_batch(8, &registry);
        let batch = Batch::new(requests);
        assert_eq!(front(2).digest_batch(&batch), batch.digest());
    }

    #[test]
    fn fallback_counter_ticks_on_bad_batches() {
        let registry = KeyRegistry::new(5);
        let (requests, mut sigs) = make_batch(8, &registry);
        sigs[0].tag[0] ^= 1;
        let verifier = Verifier::new(registry);
        let telemetry = Telemetry::enabled();
        let f = CryptoFront::new(0, telemetry.clone());
        let _ = f.verify_client_sigs(&verifier, &requests, &sigs);
        assert_eq!(telemetry.counter("xft_sig_batch_fallback_total").get(), 1);
    }
}
