//! The proof-of-culpability format: two conflicting signed carrier messages
//! plus the verification context, serialized via `xft-wire` and verifiable
//! offline.
//!
//! A proof is deliberately *self-contained*: it embeds the evidence payload
//! of both carrier messages (full wire encodings, or the digest-compacted
//! form bulk messages are recorded as — the conflicting signature travels
//! wherever it travelled) and the cluster parameters needed to rebuild the
//! verification context. [`ProofOfCulpability::verify`]
//! re-derives the verifier, re-extracts the signed statements from both
//! carriers and re-finds the claimed conflict — accepting nothing on the
//! auditor's word. The same routine backs the `xft-audit` CLI, so a proof
//! that verifies in-process verifies offline byte-for-byte.

use crate::statements::{self, Statement};
use bytes::Bytes;
use std::sync::Arc;
use xft_core::auth::verify_checkpoint_proof;
use xft_core::evidence::EvidenceMsg;
use xft_core::types::replica_key;
use xft_crypto::{KeyRegistry, Verifier};
use xft_wire::{struct_codec, WireDecode};

/// Conflicting proposals: the same primary ordered two different batches at
/// the same `(view, sn)`.
pub const CLASS_PROPOSAL: u8 = 1;
/// Commit divergence: the same follower committed two different batches at
/// the same `(view, sn)`, or bound two different executed-reply digests to
/// the same committed batch (fast-path fork).
pub const CLASS_COMMIT: u8 = 2;
/// Checkpoint divergence: the same replica vouched for two different state
/// digests at the same `(view, sn)`.
pub const CLASS_CHECKPOINT: u8 = 3;
/// Horizon suppression: a replica's later VIEW-CHANGE claims a checkpoint
/// horizon *below* one it had itself proven (t + 1 CHKPT proof) in an
/// earlier view change — rewriting history it had certified as stable.
pub const CLASS_HORIZON: u8 = 4;

/// Human-readable name of an equivocation class.
pub fn class_name(class: u8) -> &'static str {
    match class {
        CLASS_PROPOSAL => "conflicting-proposals",
        CLASS_COMMIT => "commit-divergence",
        CLASS_CHECKPOINT => "checkpoint-divergence",
        CLASS_HORIZON => "horizon-suppression",
        _ => "unknown",
    }
}

/// Why a proof failed to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// A carrier did not decode as a protocol message.
    MalformedCarrier,
    /// The class byte names no known equivocation class.
    UnknownClass,
    /// The cluster parameters are inconsistent (e.g. culprit ≥ n).
    BadContext,
    /// The carriers hold no verified conflicting statement pair matching
    /// the claim — the proof accuses nobody.
    NoConflict,
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::MalformedCarrier => write!(f, "carrier message does not decode"),
            ProofError::UnknownClass => write!(f, "unknown equivocation class"),
            ProofError::BadContext => write!(f, "inconsistent verification context"),
            ProofError::NoConflict => write!(f, "no verified conflicting statements"),
        }
    }
}

/// A self-contained, independently verifiable proof that `culprit`
/// equivocated.
#[derive(Debug, Clone, PartialEq)]
pub struct ProofOfCulpability {
    /// Equivocation class (`CLASS_*`).
    pub class: u8,
    /// The accused replica.
    pub culprit: u64,
    /// View of the conflict (for [`CLASS_HORIZON`]: the later, suppressing
    /// view change's target view).
    pub view: u64,
    /// Slot of the conflict (for [`CLASS_HORIZON`]: the proven checkpoint
    /// horizon being suppressed).
    pub sn: u64,
    /// Cluster size (replica keys `0..n` form the verification context).
    pub n: u64,
    /// Fault threshold (checkpoint proofs need `t + 1` signers).
    pub t: u64,
    /// Key-registry seed standing in for the cluster's public keys.
    pub key_seed: u64,
    /// Evidence payload of the first conflicting carrier message.
    pub msg_a: Bytes,
    /// Evidence payload of the second conflicting carrier message.
    pub msg_b: Bytes,
}

struct_codec!(ProofOfCulpability {
    class,
    culprit,
    view,
    sn,
    n,
    t,
    key_seed,
    msg_a,
    msg_b
});

fn decode_carrier(bytes: &Bytes) -> Result<EvidenceMsg, ProofError> {
    EvidenceMsg::decode_exact(bytes).ok_or(ProofError::MalformedCarrier)
}

impl ProofOfCulpability {
    /// The verifier this proof's context describes (every replica key
    /// registered).
    pub fn verifier(&self) -> Verifier {
        let registry = KeyRegistry::new(self.key_seed);
        for r in 0..self.n as usize {
            registry.register(replica_key(r));
        }
        Verifier::new(Arc::clone(&registry))
    }

    /// Verifies the proof from nothing but its own bytes: decodes both
    /// carriers, re-extracts their signed statements, discards any whose
    /// signature fails, and checks that a pair matching the claimed
    /// `(class, culprit, view, sn)` genuinely conflicts — one statement
    /// from each carrier.
    pub fn verify(&self) -> Result<(), ProofError> {
        if !matches!(
            self.class,
            CLASS_PROPOSAL | CLASS_COMMIT | CLASS_CHECKPOINT | CLASS_HORIZON
        ) {
            return Err(ProofError::UnknownClass);
        }
        if self.culprit >= self.n || self.n < 2 * self.t + 1 {
            return Err(ProofError::BadContext);
        }
        let a = decode_carrier(&self.msg_a)?;
        let b = decode_carrier(&self.msg_b)?;
        let verifier = self.verifier();
        let n = self.n as usize;
        let statements_of = |msg: &EvidenceMsg| -> Vec<Statement> {
            let mut all = Vec::new();
            statements::extract_record(msg, &mut all);
            all.retain(|st| {
                st.author() == self.culprit && statements::verify_statement(&verifier, n, st)
            });
            all
        };
        let sa = statements_of(&a);
        let sb = statements_of(&b);
        for x in &sa {
            for y in &sb {
                if self.statements_conflict(&verifier, x, y) {
                    return Ok(());
                }
            }
        }
        Err(ProofError::NoConflict)
    }

    /// Whether two *verified* statements by the culprit realize the claimed
    /// conflict.
    fn statements_conflict(&self, verifier: &Verifier, x: &Statement, y: &Statement) -> bool {
        match (self.class, x, y) {
            (
                CLASS_PROPOSAL,
                Statement::Proposal {
                    view: va,
                    sn: sa,
                    batch: ba,
                    ..
                },
                Statement::Proposal {
                    view: vb,
                    sn: sb,
                    batch: bb,
                    ..
                },
            ) => va.0 == self.view && va == vb && sa.0 == self.sn && sa == sb && ba != bb,
            (
                CLASS_COMMIT,
                Statement::Commit {
                    view: va,
                    sn: sa,
                    batch: ba,
                    reply: ra,
                    ..
                },
                Statement::Commit {
                    view: vb,
                    sn: sb,
                    batch: bb,
                    reply: rb,
                    ..
                },
            ) => {
                va.0 == self.view
                    && va == vb
                    && sa.0 == self.sn
                    && sa == sb
                    && (ba != bb || (ra.is_some() && rb.is_some() && ra != rb))
            }
            (
                CLASS_CHECKPOINT,
                Statement::Chkpt {
                    view: va,
                    sn: sa,
                    state: da,
                    ..
                },
                Statement::Chkpt {
                    view: vb,
                    sn: sb,
                    state: db,
                    ..
                },
            ) => va.0 == self.view && va == vb && sa.0 == self.sn && sa == sb && da != db,
            (CLASS_HORIZON, Statement::ViewChange(earlier), Statement::ViewChange(later)) => {
                // The earlier view change proved a horizon H = `self.sn`
                // with a valid t + 1 CHKPT proof; the later one (a strictly
                // later view) claims a horizon below H.
                later.new_view > earlier.new_view
                    && later.new_view.0 == self.view
                    && earlier.last_checkpoint.0 == self.sn
                    && later.last_checkpoint < earlier.last_checkpoint
                    && verify_checkpoint_proof(verifier, self.t as usize, &earlier.checkpoint_proof)
                        .is_some_and(|(sn, _)| sn == earlier.last_checkpoint)
            }
            _ => false,
        }
    }

    /// One-line human description.
    pub fn describe(&self) -> String {
        format!(
            "{} by replica {} at view {} sn {} (n={}, t={})",
            class_name(self.class),
            self.culprit,
            self.view,
            self.sn,
            self.n,
            self.t,
        )
    }
}

/// File magic of a serialized proof bundle.
pub const BUNDLE_MAGIC: [u8; 8] = *b"XFTPROOF";

/// A set of proofs from one audit, as written to disk by the chaos explorer
/// and read back by `xft-audit`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProofBundle {
    /// The proofs, one per detected `(culprit, class)`.
    pub proofs: Vec<ProofOfCulpability>,
}

impl ProofBundle {
    /// Serializes the bundle (magic + versioned `xft-wire` envelope).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&BUNDLE_MAGIC);
        out.extend_from_slice(&xft_wire::encode_msg_vec(&self.proofs));
        out
    }

    /// Deserializes a bundle, rejecting bad magic, version skew, trailing
    /// bytes or malformed proofs.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let rest = data.strip_prefix(&BUNDLE_MAGIC[..])?;
        let proofs = xft_wire::decode_msg::<Vec<ProofOfCulpability>>(rest).ok()?;
        Some(ProofBundle { proofs })
    }

    /// The distinct accused replicas, ascending.
    pub fn culprits(&self) -> Vec<u64> {
        let set: std::collections::BTreeSet<u64> = self.proofs.iter().map(|p| p.culprit).collect();
        set.into_iter().collect()
    }
}
