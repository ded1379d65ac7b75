//! The cross-replica equivocation auditor.
//!
//! Ingests evidence logs (any number, from any subset of replicas — two
//! suffice to catch a fork they witnessed differently, and even a single
//! honest replica's log convicts an equivocator that contradicted itself to
//! the same peer), decomposes every recorded message into its signed
//! statements, discards anything whose signature does not verify, and groups
//! the rest into cells by author and the slot they testify about. Any two
//! statements of one cell that [`Statement::conflict`] judges contradictory
//! become a [`ProofOfCulpability`] — and every candidate proof is re-verified
//! through the exact offline path before it is returned, so the auditor
//! can never accuse a replica the proof bytes themselves do not convict.

use crate::proof::{ProofBundle, ProofOfCulpability};
use crate::statements::{self, Statement};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use xft_core::evidence::EvidenceRecord;
use xft_core::types::replica_key;
use xft_crypto::{KeyRegistry, Verifier};

/// Bookkeeping counters from one audit pass (observability, EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Evidence records ingested across all logs.
    pub records: u64,
    /// Records whose payload failed to decode as a protocol message.
    pub undecodable: u64,
    /// Signed statements extracted (embedded ones included).
    pub statements: u64,
    /// Statements discarded because their signature did not verify.
    pub unverified: u64,
    /// Proofs emitted.
    pub proofs: u64,
}

/// The equivocation auditor for one cluster configuration.
pub struct Auditor {
    n: usize,
    t: usize,
    key_seed: u64,
    verifier: Verifier,
    stats: AuditStats,
}

impl Auditor {
    /// An auditor for an `n = 2t + 1` cluster whose replica keys derive from
    /// `key_seed` (the deployment's verification context).
    pub fn new(t: usize, key_seed: u64) -> Self {
        let n = 2 * t + 1;
        let registry = KeyRegistry::new(key_seed);
        for r in 0..n {
            registry.register(replica_key(r));
        }
        Auditor {
            n,
            t,
            key_seed,
            verifier: Verifier::new(Arc::clone(&registry)),
            stats: AuditStats::default(),
        }
    }

    /// Counters from the last [`Auditor::audit`] pass.
    pub fn stats(&self) -> AuditStats {
        self.stats
    }

    /// Audits a set of evidence logs (one `Vec<EvidenceRecord>` per holder)
    /// and returns every proof of culpability the combined evidence
    /// supports, at most one per `(culprit, class)`, ordered by culprit.
    pub fn audit(&mut self, logs: &[Vec<EvidenceRecord>]) -> ProofBundle {
        self.stats = AuditStats::default();
        // Verified statements grouped into the cells they can conflict in,
        // each with the evidence payload it was extracted from (what goes
        // into a proof). Identical statements arriving through many logs
        // collapse into the first carrier seen.
        let mut cells: BTreeMap<_, Vec<(Statement, Bytes)>> = BTreeMap::new();
        for (statement, carrier) in self.ingest(logs) {
            let cell = cells.entry(statement.cell()).or_default();
            if !cell.iter().any(|(seen, _)| *seen == statement) {
                cell.push((statement, carrier));
            }
        }

        let mut proofs: Vec<ProofOfCulpability> = Vec::new();
        let mut accused: BTreeSet<(u64, u8)> = BTreeSet::new();
        for (&(culprit, cell_class, _, _), cell) in &cells {
            if accused.contains(&(culprit, cell_class)) {
                continue;
            }
            'pairs: for (a, carrier_a) in cell {
                for (b, carrier_b) in cell {
                    let Some((class, view, sn)) = a.conflict(b, &self.verifier, self.t) else {
                        continue;
                    };
                    let proof = ProofOfCulpability {
                        class,
                        culprit,
                        view,
                        sn,
                        n: self.n as u64,
                        t: self.t as u64,
                        key_seed: self.key_seed,
                        msg_a: carrier_a.clone(),
                        msg_b: carrier_b.clone(),
                    };
                    // Final gate: a proof that does not convict through the
                    // offline path is an auditor bug, never an accusation.
                    if proof.verify().is_ok() {
                        accused.insert((culprit, class));
                        proofs.push(proof);
                        break 'pairs;
                    }
                }
            }
        }

        proofs.sort_by_key(|p| (p.culprit, p.class));
        self.stats.proofs = proofs.len() as u64;
        ProofBundle { proofs }
    }

    /// Decodes every record, extracts its statements and keeps the verified
    /// ones with their carrier, updating counters.
    fn ingest(&mut self, logs: &[Vec<EvidenceRecord>]) -> Vec<(Statement, Bytes)> {
        let mut witnesses = Vec::new();
        for log in logs {
            for record in log {
                self.stats.records += 1;
                let Some(msg) = record.decode_evidence() else {
                    self.stats.undecodable += 1;
                    continue;
                };
                let mut extracted = Vec::new();
                statements::extract_record(&msg, &mut extracted);
                for statement in extracted {
                    self.stats.statements += 1;
                    if !statements::verify_statement(&self.verifier, self.n, &statement) {
                        self.stats.unverified += 1;
                        continue;
                    }
                    witnesses.push((statement, record.msg.clone()));
                }
            }
        }
        witnesses
    }
}
