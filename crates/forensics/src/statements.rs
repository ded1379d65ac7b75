//! Decomposing protocol messages into the individually signed statements
//! they carry.
//!
//! A single wire message can testify about many things: a VC-FINAL embeds a
//! set of VIEW-CHANGE messages, each embedding commit-log entries that carry
//! the primary's prepare signature and every follower's commit signature,
//! plus a t + 1 CHKPT proof. The auditor compares *statements*, not
//! messages, so equivocations are caught wherever the conflicting signature
//! travelled — a replica cannot hide a fork by only ever shipping it inside
//! a view-change log.

use crate::proof::{CLASS_CHECKPOINT, CLASS_COMMIT, CLASS_HORIZON, CLASS_PROPOSAL};
use xft_core::auth::{verify_checkpoint_proof, verify_replica_sig};
use xft_core::evidence::{compact, EvidenceMsg, OrderingClaim};
use xft_core::log::{commit_statement_digest, CommitEntry, PrepareEntry};
use xft_core::messages::{checkpoint_vote_digest, CheckpointMsg, ViewChangeMsg, XPaxosMsg};
use xft_core::types::{SeqNum, ViewNumber};
use xft_crypto::{Digest, Signature, Verifier};

/// One signed claim by one replica, extracted from a protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// The primary of `view` ordered batch `batch` at `sn` — a PREPARE
    /// (general case), a COMMIT-CARRY (t = 1 fast path), or a prepare-log /
    /// commit-log entry carrying the primary's signature.
    Proposal {
        /// Replica that signed the ordering statement.
        signer: u64,
        /// View the batch was ordered in.
        view: ViewNumber,
        /// Sequence number assigned.
        sn: SeqNum,
        /// Digest of the ordered batch.
        batch: Digest,
        /// The primary's signature (prepare or commit domain).
        sig: Signature,
    },
    /// Follower `replica` committed batch `batch` at `(view, sn)`; in the
    /// t = 1 fast path the commitment also binds the executed replies.
    Commit {
        /// Replica that signed the commit.
        replica: u64,
        /// View of the commit.
        view: ViewNumber,
        /// Sequence number committed.
        sn: SeqNum,
        /// Digest of the committed batch.
        batch: Digest,
        /// Combined reply digest (t = 1 speculative execution), if bound.
        reply: Option<Digest>,
        /// The follower's signature.
        sig: Signature,
    },
    /// Replica `replica` vouched that its state after executing `sn` in
    /// `view` digests to `state` (a signed CHKPT vote).
    Chkpt {
        /// Replica that signed the vote.
        replica: u64,
        /// View of the vote.
        view: ViewNumber,
        /// Checkpoint sequence number.
        sn: SeqNum,
        /// Agreed state digest.
        state: Digest,
        /// The replica's signature.
        sig: Signature,
    },
    /// A whole signed VIEW-CHANGE message: its `last_checkpoint` claim (and
    /// the t + 1 proof backing it) is what the horizon-suppression class
    /// compares across views.
    ViewChange(Box<ViewChangeMsg>),
}

impl Statement {
    /// The replica this statement accuses if it conflicts with another.
    pub fn author(&self) -> u64 {
        self.cell().0
    }

    /// The cell a statement is judged in: `(author, class, view, sn)`. Only
    /// statements of one cell can [`conflict`](Statement::conflict); a
    /// replica's view changes share one cell, `(author, CLASS_HORIZON, 0, 0)`.
    pub fn cell(&self) -> (u64, u8, u64, u64) {
        match self {
            Statement::Proposal {
                signer, view, sn, ..
            } => (*signer, CLASS_PROPOSAL, view.0, sn.0),
            Statement::Commit {
                replica, view, sn, ..
            } => (*replica, CLASS_COMMIT, view.0, sn.0),
            Statement::Chkpt {
                replica, view, sn, ..
            } => (*replica, CLASS_CHECKPOINT, view.0, sn.0),
            Statement::ViewChange(m) => (m.replica as u64, CLASS_HORIZON, 0, 0),
        }
    }

    /// The conflict rule: whether this statement and `other`, both verified,
    /// contradict each other. Only statements of one cell (so of one author)
    /// can; returns the class and the `(view, sn)` a proof of the conflict
    /// names:
    ///
    /// * two proposals, commits or checkpoint votes for one slot with
    ///   different digests ([`CLASS_PROPOSAL`], [`CLASS_COMMIT`],
    ///   [`CLASS_CHECKPOINT`]); a digest-only commit and a reply-bound commit
    ///   of one batch are the same claim at different phases, not a conflict;
    /// * this view change proved horizon `H` with a valid `t + 1` CHKPT
    ///   proof, and `other`, for a later view, claims a horizon below `H`
    ///   ([`CLASS_HORIZON`], at `other`'s view and sn `H`). An unproven
    ///   horizon could itself be the lie, so it convicts nobody.
    pub fn conflict(
        &self,
        other: &Statement,
        verifier: &Verifier,
        t: usize,
    ) -> Option<(u8, u64, u64)> {
        let cell = self.cell();
        if other.cell() != cell {
            return None;
        }
        let (_, class, view, sn) = cell;
        let conflicting = match (self, other) {
            (Statement::Proposal { batch: a, .. }, Statement::Proposal { batch: b, .. }) => a != b,
            (
                Statement::Commit {
                    batch: a,
                    reply: ra,
                    ..
                },
                Statement::Commit {
                    batch: b,
                    reply: rb,
                    ..
                },
            ) => a != b || (ra.is_some() && rb.is_some() && ra != rb),
            (Statement::Chkpt { state: a, .. }, Statement::Chkpt { state: b, .. }) => a != b,
            (Statement::ViewChange(earlier), Statement::ViewChange(later)) => {
                let suppressed = later.new_view > earlier.new_view
                    && later.last_checkpoint < earlier.last_checkpoint
                    && verify_checkpoint_proof(verifier, t, &earlier.checkpoint_proof)
                        .is_some_and(|(sn, _)| sn == earlier.last_checkpoint);
                return suppressed.then_some((
                    CLASS_HORIZON,
                    later.new_view.0,
                    earlier.last_checkpoint.0,
                ));
            }
            _ => false,
        };
        conflicting.then_some((class, view, sn))
    }
}

/// Extracts every signed statement an evidence payload carries. A full
/// bulk message is [`compact`]ed first, so it and its compacted record yield
/// the same statements: the claims hold the batch *digests*, which is all
/// any signature ever covered.
pub fn extract_record(msg: &EvidenceMsg, out: &mut Vec<Statement>) {
    match msg {
        EvidenceMsg::Full(m) => extract(m, out),
        EvidenceMsg::Compact { claims, chkpts, .. } => {
            for c in claims {
                extract_claim(c, out);
            }
            for m in chkpts {
                extract_chkpt(m, out);
            }
        }
    }
}

/// Extracts every signed statement a message carries, embedded ones
/// included, appending to `out`. Signatures are *not* checked here — pair
/// with [`verify_statement`] (the auditor only compares verified
/// statements).
pub fn extract(msg: &XPaxosMsg, out: &mut Vec<Statement>) {
    if let Some(compacted) = compact(msg) {
        return extract_record(&compacted, out);
    }
    match msg {
        XPaxosMsg::Commit(m) => out.push(Statement::Commit {
            replica: m.replica as u64,
            view: m.view,
            sn: m.sn,
            batch: m.batch_digest,
            reply: m.reply_digest,
            sig: m.signature,
        }),
        XPaxosMsg::Checkpoint(m) => extract_chkpt(m, out),
        XPaxosMsg::LazyCheckpoint { proof } => {
            for m in proof {
                extract_chkpt(m, out);
            }
        }
        XPaxosMsg::ViewChange(m) => extract_view_change(m, out),
        XPaxosMsg::VcFinal(m) => {
            for vc in &m.vc_set {
                extract_view_change(vc, out);
            }
        }
        XPaxosMsg::NewView(m) => {
            for e in &m.prepare_log {
                extract_claim(&e.into(), out);
            }
        }
        // Client traffic, SUSPECT / VC-CONFIRM / FD notices and runtime
        // notifications carry no orderable claims the conflict classes
        // compare.
        _ => {}
    }
}

/// The statements one ordering claim makes: the primary's proposal and each
/// follower's commit.
fn extract_claim(c: &OrderingClaim, out: &mut Vec<Statement>) {
    out.push(Statement::Proposal {
        signer: c.primary_sig.signer.0,
        view: c.view,
        sn: c.sn,
        batch: c.batch,
        sig: c.primary_sig,
    });
    // Claims store the follower signatures without the t = 1 reply binding;
    // statements whose signature actually covered a combined reply digest
    // simply fail verification and are discarded — never mis-attributed.
    for (replica, sig) in &c.commit_sigs {
        out.push(Statement::Commit {
            replica: *replica,
            view: c.view,
            sn: c.sn,
            batch: c.batch,
            reply: None,
            sig: *sig,
        });
    }
}

fn extract_chkpt(m: &CheckpointMsg, out: &mut Vec<Statement>) {
    // PRECHK rounds are MAC-authenticated, not signed — no evidence value.
    if m.signed {
        out.push(Statement::Chkpt {
            replica: m.replica as u64,
            view: m.view,
            sn: m.sn,
            state: m.state_digest,
            sig: m.signature,
        });
    }
}

fn extract_view_change(m: &ViewChangeMsg, out: &mut Vec<Statement>) {
    out.push(Statement::ViewChange(Box::new(m.clone())));
    for e in &m.commit_log {
        extract_claim(&e.into(), out);
    }
    for e in &m.prepare_log {
        extract_claim(&e.into(), out);
    }
    for c in &m.checkpoint_proof {
        extract_chkpt(c, out);
    }
}

/// Checks a statement's signature against the claimed author, by the
/// replica's own rule ([`verify_replica_sig`]): the signing key must be the
/// author's replica key *and* the signature must verify over the exact digest
/// the protocol signs for that statement kind. Anything that fails is
/// worthless as evidence and must be discarded — a garbage signature (e.g.
/// the corrupt-signatures fault) can never turn into an accusation.
pub fn verify_statement(verifier: &Verifier, n: usize, st: &Statement) -> bool {
    if st.author() >= n as u64 {
        return false;
    }
    let author = st.author() as usize;
    match st {
        Statement::Proposal {
            view,
            sn,
            batch,
            sig,
            ..
        } => {
            // The primary signs the prepare domain in the general case and
            // the commit domain on the t = 1 fast path; a proposal embedded
            // in a log entry may be either, so both are accepted — the
            // conflict (same signer, same slot, different batch) is
            // equivocation under either domain.
            let prepare = PrepareEntry::signed_digest(batch, *sn, *view);
            let commit = CommitEntry::commit_digest(batch, *sn, *view);
            verify_replica_sig(verifier, author, &prepare, sig)
                || verify_replica_sig(verifier, author, &commit, sig)
        }
        Statement::Commit {
            view,
            sn,
            batch,
            reply,
            sig,
            ..
        } => {
            let digest = commit_statement_digest(batch, *sn, *view, reply.as_ref());
            verify_replica_sig(verifier, author, &digest, sig)
        }
        Statement::Chkpt {
            view,
            sn,
            state,
            sig,
            ..
        } => verify_replica_sig(
            verifier,
            author,
            &checkpoint_vote_digest(*view, *sn, state),
            sig,
        ),
        Statement::ViewChange(m) => verify_replica_sig(verifier, author, &m.digest(), &m.signature),
    }
}
