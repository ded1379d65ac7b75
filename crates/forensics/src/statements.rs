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

use xft_core::auth::verify_replica_sig;
use xft_core::evidence::EvidenceMsg;
use xft_core::log::{CommitEntry, PrepareEntry};
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
        match self {
            Statement::Proposal { signer, .. } => *signer,
            Statement::Commit { replica, .. } => *replica,
            Statement::Chkpt { replica, .. } => *replica,
            Statement::ViewChange(m) => m.replica as u64,
        }
    }
}

/// Extracts every signed statement an evidence payload carries. Full
/// messages go through [`extract`]; digest-compacted bulk records yield the
/// same statements their originals would have — the claims hold the batch
/// *digests*, which is all any signature ever covered.
pub fn extract_record(msg: &EvidenceMsg, out: &mut Vec<Statement>) {
    match msg {
        EvidenceMsg::Full(m) => extract(m, out),
        EvidenceMsg::Compact { claims, chkpts, .. } => {
            for c in claims {
                out.push(Statement::Proposal {
                    signer: c.primary_sig.signer.0,
                    view: c.view,
                    sn: c.sn,
                    batch: c.batch,
                    sig: c.primary_sig,
                });
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
    match msg {
        XPaxosMsg::Prepare(m) => out.push(Statement::Proposal {
            signer: m.signature.signer.0,
            view: m.view,
            sn: m.sn,
            batch: m.batch.digest(),
            sig: m.signature,
        }),
        XPaxosMsg::CommitCarry(m) => out.push(Statement::Proposal {
            signer: m.signature.signer.0,
            view: m.view,
            sn: m.sn,
            batch: m.batch.digest(),
            sig: m.signature,
        }),
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
        XPaxosMsg::LazyReplicate { entries, .. } => {
            for e in entries {
                extract_commit_entry(e, out);
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
                extract_prepare_entry(e, out);
            }
        }
        XPaxosMsg::StateChunkResponse(m) => {
            for c in &m.proof {
                extract_chkpt(c, out);
            }
        }
        // Client traffic, SUSPECT / VC-CONFIRM / FD notices and runtime
        // notifications carry no orderable claims the conflict classes
        // compare.
        _ => {}
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

fn extract_prepare_entry(e: &PrepareEntry, out: &mut Vec<Statement>) {
    out.push(Statement::Proposal {
        signer: e.primary_sig.signer.0,
        view: e.view,
        sn: e.sn,
        batch: e.batch.digest(),
        sig: e.primary_sig,
    });
}

fn extract_commit_entry(e: &CommitEntry, out: &mut Vec<Statement>) {
    let batch = e.batch.digest();
    out.push(Statement::Proposal {
        signer: e.primary_sig.signer.0,
        view: e.view,
        sn: e.sn,
        batch,
        sig: e.primary_sig,
    });
    // Commit-log entries store the follower signatures without the t = 1
    // reply binding; statements whose signature actually covered a combined
    // reply digest simply fail verification and are discarded — never
    // mis-attributed.
    for (r, sig) in &e.commit_sigs {
        out.push(Statement::Commit {
            replica: *r as u64,
            view: e.view,
            sn: e.sn,
            batch,
            reply: None,
            sig: *sig,
        });
    }
}

fn extract_view_change(m: &ViewChangeMsg, out: &mut Vec<Statement>) {
    out.push(Statement::ViewChange(Box::new(m.clone())));
    for e in &m.commit_log {
        extract_commit_entry(e, out);
    }
    for e in &m.prepare_log {
        extract_prepare_entry(e, out);
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
            let mut digest = CommitEntry::commit_digest(batch, *sn, *view);
            if let Some(rd) = reply {
                digest = digest.combine(rd);
            }
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
