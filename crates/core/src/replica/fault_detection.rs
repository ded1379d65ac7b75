//! Fault detection (paper §4.4, Appendix B.4, Algorithms 5 and 6).
//!
//! When FD is enabled, replicas transfer their prepare logs (not just commit logs)
//! during view changes, and the active replicas of the new view run an extra
//! VC-CONFIRM round to agree on the filtered set of view-change messages. The detection
//! checks target exactly the faults that could make XPaxos inconsistent if the system
//! later fell into anarchy:
//!
//! * **state loss** — a replica that was active in an earlier view reports a prepare
//!   log missing an entry whose commitment in that view is proven by another replica's
//!   commit log;
//! * **fork** — a replica reports an entry for a sequence number that conflicts with a
//!   committed entry of the same view.

use super::{Phase, Replica};
use crate::auth::verify_replica_sig;
use crate::messages::{
    DetectedFaultKind, FaultDetectedMsg, VcConfirmMsg, ViewChangeMsg, XPaxosMsg,
};
use crate::types::ReplicaId;
use std::collections::BTreeSet;
use xft_crypto::{CryptoOp, Digest};
use xft_simnet::Context;

impl Replica {
    /// Runs the detection checks over the merged view-change set, announces any faults,
    /// filters the set and starts the VC-CONFIRM round.
    pub(crate) fn run_fault_detection_and_confirm(
        &mut self,
        merged: Vec<ViewChangeMsg>,
        ctx: &mut Context<XPaxosMsg>,
    ) {
        let target = match self.vc.as_ref() {
            Some(vc) => vc.target,
            None => return,
        };

        let detected = detect_faults(&self.groups, &merged);
        for (culprit, kind) in &detected {
            if self.detected_faulty.insert(*culprit) {
                ctx.count("faults_detected", 1);
                ctx.charge(CryptoOp::Sign);
                let msg = FaultDetectedMsg {
                    new_view: target,
                    culprit: *culprit,
                    kind: *kind,
                    reporter: self.id,
                    signature: self.sign(&fault_detected_digest(target, *culprit, self.id)),
                };
                for node in self.other_replica_nodes() {
                    ctx.send(node, XPaxosMsg::FaultDetected(msg.clone()));
                }
            }
        }

        // Remove view-change messages from detected replicas, then confirm the filtered
        // set with the other active replicas.
        let faulty: BTreeSet<ReplicaId> = detected.iter().map(|(r, _)| *r).collect();
        let filtered: Vec<ViewChangeMsg> = merged
            .into_iter()
            .filter(|m| !faulty.contains(&m.replica))
            .collect();
        let digest = super::view_change::vc_set_digest(&filtered);

        ctx.charge(CryptoOp::Sign);
        let confirm = VcConfirmMsg {
            new_view: target,
            replica: self.id,
            vc_set_digest: digest,
            signature: self.sign(&digest),
        };
        {
            let Some(vc) = self.vc.as_mut() else {
                return;
            };
            if vc.confirm_sent {
                return;
            }
            vc.confirm_sent = true;
            vc.vc_confirms.insert(self.id, digest);
            // Replace the merged set with the filtered one for the final selection.
            vc.merged = Some(filtered);
        }
        for node in self.other_active_nodes(target) {
            ctx.send(node, XPaxosMsg::VcConfirm(confirm.clone()));
        }
        self.check_confirm_quorum(ctx);
    }

    /// Handles a VC-CONFIRM message from another active replica of the new view.
    pub(crate) fn on_vc_confirm(&mut self, m: VcConfirmMsg, ctx: &mut Context<XPaxosMsg>) {
        ctx.charge(CryptoOp::VerifySig);
        {
            let Some(vc) = self.vc.as_mut() else {
                return;
            };
            if vc.target != m.new_view || !self.groups.is_active(m.new_view, m.replica) {
                return;
            }
            vc.vc_confirms.insert(m.replica, m.vc_set_digest);
        }
        self.check_confirm_quorum(ctx);
    }

    /// Proceeds with selection once all active replicas confirmed the same filtered set;
    /// suspects the view if the confirmations disagree.
    pub(crate) fn check_confirm_quorum(&mut self, ctx: &mut Context<XPaxosMsg>) {
        let (proceed, mismatch, merged) = {
            let Some(vc) = self.vc.as_ref() else {
                return;
            };
            if !vc.confirm_sent || vc.merged.is_none() {
                return;
            }
            let active = self.groups.active_replicas(vc.target);
            if !active.iter().all(|r| vc.vc_confirms.contains_key(r)) {
                return;
            }
            let mine = vc.vc_confirms.get(&self.id).copied();
            let mismatch = vc.vc_confirms.values().any(|d| Some(*d) != mine);
            (true, mismatch, vc.merged.clone().unwrap_or_default())
        };
        if !proceed {
            return;
        }
        if mismatch {
            // The active replicas did not agree on the filtered set: someone is faulty;
            // move to the next view (Algorithm 5, lines 8–9).
            self.suspect_view(ctx);
            return;
        }
        self.proceed_with_selection(merged, ctx);
    }

    /// Handles a FAULT-DETECTED announcement from another replica.
    pub(crate) fn on_fault_detected(&mut self, m: FaultDetectedMsg, ctx: &mut Context<XPaxosMsg>) {
        ctx.charge(CryptoOp::VerifySig);
        let signed = fault_detected_digest(m.new_view, m.culprit, m.reporter);
        if !verify_replica_sig(&self.verifier, m.reporter, &signed, &m.signature) {
            return;
        }
        if m.culprit >= self.config.n() {
            return;
        }
        if self.detected_faulty.insert(m.culprit) {
            ctx.count("faults_learned", 1);
            // Forward once so every replica eventually learns about the fault
            // (Lemma 15 in the paper).
            if self.phase == Phase::Active || self.phase == Phase::ViewChange {
                for node in self.other_replica_nodes() {
                    ctx.send(node, XPaxosMsg::FaultDetected(m.clone()));
                }
            }
        }
    }
}

/// Digest signed by fault-detection announcements.
fn fault_detected_digest(
    view: crate::types::ViewNumber,
    culprit: ReplicaId,
    reporter: ReplicaId,
) -> Digest {
    Digest::of_parts(&[
        b"fault-detected",
        &view.0.to_le_bytes(),
        &(culprit as u64).to_le_bytes(),
        &(reporter as u64).to_le_bytes(),
    ])
}

/// Runs the state-loss and fork checks of Algorithm 6 over a merged view-change set.
/// Returns the detected culprits with the kind of fault observed.
pub(crate) fn detect_faults(
    groups: &crate::sync_group::SyncGroups,
    merged: &[ViewChangeMsg],
) -> Vec<(ReplicaId, DetectedFaultKind)> {
    let mut detected: Vec<(ReplicaId, DetectedFaultKind)> = Vec::new();
    let flag =
        |r: ReplicaId, k: DetectedFaultKind, out: &mut Vec<(ReplicaId, DetectedFaultKind)>| {
            if !out.iter().any(|(x, _)| *x == r) {
                out.push((r, k));
            }
        };

    for m in merged {
        for other in merged {
            if other.replica == m.replica {
                continue;
            }
            for committed in &other.commit_log {
                // Only consider proofs from views in which `m.replica` was active: an
                // active replica of that view must hold the corresponding entry.
                if !groups.is_active(committed.view, m.replica) {
                    continue;
                }
                let in_prepare = m
                    .prepare_log
                    .iter()
                    .any(|p| p.sn == committed.sn && p.view >= committed.view);
                let in_commit = m
                    .commit_log
                    .iter()
                    .any(|c| c.sn == committed.sn && c.view >= committed.view);

                // STATE LOSS: the replica was active when `committed` was committed but
                // transferred neither a prepare-log nor a commit-log entry covering it.
                if !in_prepare && !in_commit {
                    flag(m.replica, DetectedFaultKind::StateLoss, &mut detected);
                    continue;
                }

                // FORK: the replica transferred an entry for the same (view, sn) with a
                // different batch than the committed proof.
                let conflicting = m
                    .prepare_log
                    .iter()
                    .map(|p| (p.sn, p.view, p.batch.digest()))
                    .chain(
                        m.commit_log
                            .iter()
                            .map(|c| (c.sn, c.view, c.batch.digest())),
                    )
                    .any(|(sn, view, digest)| {
                        sn == committed.sn
                            && view == committed.view
                            && digest != committed.batch.digest()
                    });
                if conflicting {
                    flag(m.replica, DetectedFaultKind::Fork, &mut detected);
                }
            }
        }
    }
    detected
}
