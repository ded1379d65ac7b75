//! Accountability forensics for the XPaxos reproduction.
//!
//! XFT's availability argument tolerates windows of *anarchy* — more than
//! `t` machines simultaneously non-crash-faulty — by making anarchy
//! detectable after the fact: every ordering statement a replica emits
//! (PREPARE / COMMIT / CHKPT / VIEW-CHANGE and the entries they embed) is
//! signed, so two conflicting statements from the same replica are a
//! self-contained cryptographic proof that it misbehaved, verifiable by
//! anyone holding the cluster's verification context. This crate is the
//! *auditing* half of that story (the recording half is
//! [`xft_core::evidence`]):
//!
//! * [`statements`] — decomposes a protocol message into the individually
//!   signed [`statements::Statement`]s it carries, including the statements
//!   embedded in view-change logs, lazy-replication shipments and
//!   checkpoint proofs. Ordering claims are read one way: a bulk message is
//!   first digest-compacted by [`xft_core::evidence::compact`] (the rule the
//!   evidence recorder uses), a log entry becomes an
//!   [`xft_core::evidence::OrderingClaim`] the same way, and every claim
//!   turns into statements in one place, so a full message and its recorded
//!   form yield the same statements by construction;
//! * [`statements::Statement::conflict`] — the one conflict rule: two
//!   statements of one author and slot that disagree (conflicting proposals
//!   for the same `(view, sn)`, commit-certificate / executed-reply
//!   divergence, checkpoint-state divergence) or a later view change that
//!   suppresses an earlier proven checkpoint horizon;
//! * [`audit`] — the [`audit::Auditor`]: ingests evidence logs from any
//!   number of replicas, groups every verified statement by author and slot
//!   and runs the conflict rule over each group's pairs, emitting a
//!   [`proof::ProofOfCulpability`] per culprit and class;
//! * [`proof`] — the proof format: the two conflicting carrier messages
//!   plus the verification context, serialized via `xft-wire`, verified
//!   offline with no access to the run that produced them (`xft-audit`):
//!   a proof is accepted only when the conflict rule, re-run on the
//!   carriers, returns exactly the class, view and sn it claims.
//!
//! A proof only ever accuses a replica whose own signature appears on both
//! sides of a conflict: the auditor discards any statement whose signature
//! does not verify, and every emitted proof re-verifies through exactly the
//! offline path before it is returned — so a correct replica can never be
//! accused, no matter how adversarial the ingested logs are.

pub mod audit;
pub mod proof;
pub mod statements;

pub use audit::{AuditStats, Auditor};
pub use proof::{
    ProofBundle, ProofError, ProofOfCulpability, CLASS_CHECKPOINT, CLASS_COMMIT, CLASS_HORIZON,
    CLASS_PROPOSAL,
};
pub use statements::Statement;
