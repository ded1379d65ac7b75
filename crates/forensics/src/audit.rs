//! The cross-replica equivocation auditor.
//!
//! Ingests evidence logs (any number, from any subset of replicas — two
//! suffice to catch a fork they witnessed differently, and even a single
//! honest replica's log convicts an equivocator that contradicted itself to
//! the same peer), decomposes every recorded message into its signed
//! statements, discards anything whose signature does not verify, and
//! cross-indexes the rest by the slot they testify about. Any two verified
//! statements by the same replica that contradict each other become a
//! [`ProofOfCulpability`] — and every candidate proof is re-verified
//! through the exact offline path before it is returned, so the auditor
//! can never accuse a replica the proof bytes themselves do not convict.

use crate::proof::{
    ProofBundle, ProofOfCulpability, CLASS_CHECKPOINT, CLASS_COMMIT, CLASS_HORIZON, CLASS_PROPOSAL,
};
use crate::statements::{self, Statement};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use xft_core::auth::verify_checkpoint_proof;
use xft_core::evidence::EvidenceRecord;
use xft_core::messages::ViewChangeMsg;
use xft_core::types::replica_key;
use xft_crypto::{Digest, KeyRegistry, Verifier};

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

/// A verified statement together with the wire bytes of the carrier message
/// it was extracted from (what goes into a proof).
struct Witness {
    statement: Statement,
    carrier: Bytes,
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
        let witnesses = self.ingest(logs);

        // Cross-indexes. Carrier bytes are cheap Bytes clones; the maps key
        // on the *claims* so identical statements arriving through many
        // logs collapse into one cell.
        //
        // proposals[(view, sn)][signer][batch] -> carrier
        let mut proposals: BTreeMap<(u64, u64), BTreeMap<u64, BTreeMap<Digest, Bytes>>> =
            BTreeMap::new();
        // commits[(replica, view, sn)][(batch, reply)] -> carrier
        #[allow(clippy::type_complexity)]
        let mut commits: BTreeMap<
            (u64, u64, u64),
            BTreeMap<(Digest, Option<Digest>), Bytes>,
        > = BTreeMap::new();
        // chkpts[(replica, view, sn)][state] -> carrier
        let mut chkpts: BTreeMap<(u64, u64, u64), BTreeMap<Digest, Bytes>> = BTreeMap::new();
        // view changes per replica, deduped by (new_view, last_checkpoint, digest)
        let mut vcs: BTreeMap<u64, Vec<(ViewChangeMsg, Bytes)>> = BTreeMap::new();

        for w in witnesses {
            match w.statement {
                Statement::Proposal {
                    signer,
                    view,
                    sn,
                    batch,
                    ..
                } => {
                    proposals
                        .entry((view.0, sn.0))
                        .or_default()
                        .entry(signer)
                        .or_default()
                        .entry(batch)
                        .or_insert(w.carrier);
                }
                Statement::Commit {
                    replica,
                    view,
                    sn,
                    batch,
                    reply,
                    ..
                } => {
                    commits
                        .entry((replica, view.0, sn.0))
                        .or_default()
                        .entry((batch, reply))
                        .or_insert(w.carrier);
                }
                Statement::Chkpt {
                    replica,
                    view,
                    sn,
                    state,
                    ..
                } => {
                    chkpts
                        .entry((replica, view.0, sn.0))
                        .or_default()
                        .entry(state)
                        .or_insert(w.carrier);
                }
                Statement::ViewChange(m) => {
                    let seen = vcs.entry(m.replica as u64).or_default();
                    if !seen.iter().any(|(v, _)| v.digest() == m.digest()) {
                        seen.push((*m, w.carrier));
                    }
                }
            }
        }

        let mut proofs: Vec<ProofOfCulpability> = Vec::new();
        let mut accused: BTreeSet<(u64, u8)> = BTreeSet::new();
        let push = |proofs: &mut Vec<ProofOfCulpability>,
                    accused: &mut BTreeSet<(u64, u8)>,
                    proof: ProofOfCulpability| {
            if accused.contains(&(proof.culprit, proof.class)) {
                return;
            }
            // Final gate: a proof that does not convict through the offline
            // path is an auditor bug, never an accusation.
            if proof.verify().is_ok() {
                accused.insert((proof.culprit, proof.class));
                proofs.push(proof);
            }
        };

        for ((view, sn), by_signer) in &proposals {
            for (signer, batches) in by_signer {
                if batches.len() >= 2 {
                    let mut it = batches.values();
                    let (a, b) = (it.next().unwrap().clone(), it.next().unwrap().clone());
                    push(
                        &mut proofs,
                        &mut accused,
                        self.proof(CLASS_PROPOSAL, *signer, *view, *sn, a, b),
                    );
                }
            }
        }
        for ((replica, view, sn), variants) in &commits {
            let items: Vec<_> = variants.iter().collect();
            'outer: for i in 0..items.len() {
                for j in i + 1..items.len() {
                    let ((ba, ra), ca) = items[i];
                    let ((bb, rb), cb) = items[j];
                    // A digest-only commit and a reply-bound commit for the
                    // same batch are the same claim at different phases, not
                    // a conflict.
                    let conflicting = ba != bb || (ra.is_some() && rb.is_some() && ra != rb);
                    if conflicting {
                        push(
                            &mut proofs,
                            &mut accused,
                            self.proof(CLASS_COMMIT, *replica, *view, *sn, ca.clone(), cb.clone()),
                        );
                        break 'outer;
                    }
                }
            }
        }
        for ((replica, view, sn), states) in &chkpts {
            if states.len() >= 2 {
                let mut it = states.values();
                let (a, b) = (it.next().unwrap().clone(), it.next().unwrap().clone());
                push(
                    &mut proofs,
                    &mut accused,
                    self.proof(CLASS_CHECKPOINT, *replica, *view, *sn, a, b),
                );
            }
        }
        for (replica, set) in &vcs {
            'pairs: for (earlier, ca) in set {
                if earlier.last_checkpoint.0 == 0 {
                    continue;
                }
                let proven =
                    verify_checkpoint_proof(&self.verifier, self.t, &earlier.checkpoint_proof)
                        .is_some_and(|(sn, _)| sn == earlier.last_checkpoint);
                if !proven {
                    continue;
                }
                for (later, cb) in set {
                    if later.new_view > earlier.new_view
                        && later.last_checkpoint < earlier.last_checkpoint
                    {
                        push(
                            &mut proofs,
                            &mut accused,
                            self.proof(
                                CLASS_HORIZON,
                                *replica,
                                later.new_view.0,
                                earlier.last_checkpoint.0,
                                ca.clone(),
                                cb.clone(),
                            ),
                        );
                        break 'pairs;
                    }
                }
            }
        }

        proofs.sort_by_key(|p| (p.culprit, p.class));
        self.stats.proofs = proofs.len() as u64;
        ProofBundle { proofs }
    }

    /// Decodes and verifies every record into witnesses, updating counters.
    fn ingest(&mut self, logs: &[Vec<EvidenceRecord>]) -> Vec<Witness> {
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
                    witnesses.push(Witness {
                        statement,
                        carrier: record.msg.clone(),
                    });
                }
            }
        }
        witnesses
    }

    fn proof(
        &self,
        class: u8,
        culprit: u64,
        view: u64,
        sn: u64,
        msg_a: Bytes,
        msg_b: Bytes,
    ) -> ProofOfCulpability {
        ProofOfCulpability {
            class,
            culprit,
            view,
            sn,
            n: self.n as u64,
            t: self.t as u64,
            key_seed: self.key_seed,
            msg_a,
            msg_b,
        }
    }
}
