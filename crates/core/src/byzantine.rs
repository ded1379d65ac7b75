//! Byzantine (non-crash) behaviours that a replica can be instructed to exhibit,
//! used by the fault-detection experiments and the robustness test suite.
//!
//! The behaviours are deliberately the ones the paper's fault-detection mechanism is
//! designed around: *data loss* faults (a replica "forgets" a suffix of its commit or
//! prepare log before a view change) and *mute* faults (a replica silently stops
//! participating, indistinguishable from a crash to the rest of the system).

use crate::log::PrepareEntry;
use crate::messages::{CommitMsg, ReplyMsg};
use crate::sync_group::SyncGroups;
use crate::types::{ReplicaId, SeqNum};
use xft_crypto::{Digest, Signature};
use xft_simnet::ControlCode;

/// Control code triggering an *amnesia* fault: the replica instantly loses its
/// stable storage — prepare/commit logs, executed history, client table and
/// application state — and continues running from a blank slate. Unlike the
/// [`ByzantineBehavior`] modes (which are sticky until reset with code `0`),
/// amnesia is a one-shot event; the replica behaves correctly afterwards, it
/// has just genuinely forgotten. This is the storage-loss incarnation of the
/// paper's non-crash fault class, and the one fault that reliably produces
/// *checker-visible* safety violations once injected beyond the `t` budget.
///
/// On configurations without checkpointing the in-budget repair replays the
/// adopted log from the start; with checkpointing enabled the truncated
/// prefix is recovered through the chunked, verified state-transfer protocol
/// (`StateChunkRequest` / `StateChunkResponse`), so the fault is honoured
/// either way.
pub const CONTROL_AMNESIA: u64 = 5;

/// Control code for a *torn WAL tail* disk fault: the replica's stable
/// storage loses the final bytes of its write-ahead log (a crash mid-write),
/// and the replica immediately restarts from what recovery salvages — the
/// longest intact record prefix plus the latest snapshot. A replica without
/// attached storage degrades to full [`CONTROL_AMNESIA`].
pub const CONTROL_TORN_TAIL: u64 = 6;

/// Control code for a *corrupt WAL record* disk fault: one bit of the stored
/// log flips (silent media corruption). CRC verification at recovery drops
/// the damaged record and everything after it, so the replica restarts from
/// the intact prefix — partial amnesia whose blast radius is exactly the
/// corrupted suffix. Degrades to full [`CONTROL_AMNESIA`] without storage.
pub const CONTROL_CORRUPT_WAL: u64 = 7;

/// Control code switching a replica to [`ByzantineBehavior::ForgeReplies`].
/// The chaos generator never draws it: it exists to show, in the oracle,
/// that a client accepts replies it does not verify.
pub const CONTROL_FORGE_REPLIES: u64 = 8;

/// The invented result every forged reply carries: a success tag followed by
/// version 1, which the coordination service's clients read as "the write
/// was acknowledged at version 1" (or "the read saw version 1 of an empty
/// value"). Two writes to one key acknowledged at the same version are a
/// violation the chaos checker reports.
pub const FORGED_RESULT: &[u8] = &[1, 1, 0, 0, 0, 0, 0, 0, 0];

/// The non-crash behaviour currently exhibited by a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByzantineBehavior {
    /// Behave correctly.
    #[default]
    Correct,
    /// Stop sending any protocol messages (but keep receiving). A "silent" non-crash
    /// fault: unlike a crash, the simulator still considers the node alive.
    Mute,
    /// When building a VIEW-CHANGE message, drop every commit-log entry with a
    /// sequence number greater than `keep` (a data-loss fault on the commit log).
    DataLossCommitLog {
        /// Highest sequence number to keep.
        keep: SeqNum,
    },
    /// Drop the suffix of both the commit log and the prepare log beyond `keep` —
    /// the dangerous fault the paper's FD mechanism targets (§4.4).
    DataLossBothLogs {
        /// Highest sequence number to keep.
        keep: SeqNum,
    },
    /// Sign messages with garbage so signature verification fails at receivers.
    CorruptSignatures,
    /// On applying a proposal as a follower, answer every request in it
    /// with forged replies carrying [`FORGED_RESULT`]: at t = 1 one reply in
    /// the primary's name with a follower commit under a forged signature,
    /// at t ≥ 2 one in each active replica's name. Otherwise behave
    /// correctly.
    ForgeReplies,
}

/// The replies a [`ByzantineBehavior::ForgeReplies`] follower sends for
/// proposal `p`, per request.
pub(crate) fn forged_replies(
    groups: &SyncGroups,
    p: &PrepareEntry,
    follower: ReplicaId,
) -> Vec<ReplyMsg> {
    let (view, sn) = (p.view, p.sn);
    let rd = Digest::of(FORGED_RESULT);
    let primary = groups.primary(view);
    let names = if groups.t() == 1 {
        &[primary][..]
    } else {
        groups.active_replicas(view)
    };
    let follower_commit = (groups.t() == 1).then(|| CommitMsg {
        view,
        sn,
        batch_digest: p.batch.digest(),
        replica: follower,
        reply_digest: Some(rd),
        signature: Signature::forged(crate::types::replica_key(follower)),
    });
    let mut replies = Vec::new();
    for req in &p.batch.requests {
        for &replica in names {
            let payload = (replica == primary).then(|| bytes::Bytes::from_static(FORGED_RESULT));
            let request = (req.client, req.timestamp);
            replies.push(ReplyMsg {
                follower_commit: follower_commit.clone(),
                ..ReplyMsg::bound((view, sn), request, &rd, payload, replica)
            });
        }
    }
    replies
}

impl ByzantineBehavior {
    /// Decodes a behaviour from a fault-script control code:
    /// `0` = correct, `1` = mute, `2` = lose entire commit log, `3` = lose both logs,
    /// `4` = corrupt signatures, `8` ([`CONTROL_FORGE_REPLIES`]) = forge replies.
    /// Unknown codes leave the behaviour unchanged (`None`).
    pub fn from_control_code(code: ControlCode) -> Option<ByzantineBehavior> {
        match code.0 {
            0 => Some(ByzantineBehavior::Correct),
            1 => Some(ByzantineBehavior::Mute),
            2 => Some(ByzantineBehavior::DataLossCommitLog { keep: SeqNum(0) }),
            3 => Some(ByzantineBehavior::DataLossBothLogs { keep: SeqNum(0) }),
            4 => Some(ByzantineBehavior::CorruptSignatures),
            CONTROL_FORGE_REPLIES => Some(ByzantineBehavior::ForgeReplies),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_correct() {
        assert_eq!(ByzantineBehavior::default(), ByzantineBehavior::Correct);
    }

    #[test]
    fn control_code_decoding() {
        assert_eq!(
            ByzantineBehavior::from_control_code(ControlCode(0)),
            Some(ByzantineBehavior::Correct)
        );
        assert_eq!(
            ByzantineBehavior::from_control_code(ControlCode(1)),
            Some(ByzantineBehavior::Mute)
        );
        assert_eq!(
            ByzantineBehavior::from_control_code(ControlCode(2)),
            Some(ByzantineBehavior::DataLossCommitLog { keep: SeqNum(0) })
        );
        assert_eq!(
            ByzantineBehavior::from_control_code(ControlCode(3)),
            Some(ByzantineBehavior::DataLossBothLogs { keep: SeqNum(0) })
        );
        assert_eq!(
            ByzantineBehavior::from_control_code(ControlCode(4)),
            Some(ByzantineBehavior::CorruptSignatures)
        );
        assert_eq!(
            ByzantineBehavior::from_control_code(ControlCode(CONTROL_FORGE_REPLIES)),
            Some(ByzantineBehavior::ForgeReplies)
        );
        assert_eq!(ByzantineBehavior::from_control_code(ControlCode(99)), None);
    }
}
