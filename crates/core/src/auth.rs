//! The signature rule: a signature counts only under the key of the identity
//! the message names.
//!
//! [`Verifier`] checks a tag under the key the [`Signature`] itself carries,
//! which proves only that *someone* signed. Every signed XPaxos message also
//! names who it speaks for (a replica id, or the client of a request), and
//! the two must agree, or any faulty replica could sign SUSPECTs, proposals,
//! commits or checkpoint votes in another replica's name. The replica checks
//! every signature through these functions, and the offline auditor in
//! `xft-forensics` applies the same ones.

use crate::messages::{checkpoint_vote_digest, client_request_digest, CheckpointMsg};
use crate::types::{client_key, replica_key, ReplicaId, Request, SeqNum};
use std::collections::BTreeSet;
use xft_crypto::{Digest, Signature, Verifier};

/// Whether `sig` is replica `replica`'s signature over `digest`.
pub fn verify_replica_sig(
    verifier: &Verifier,
    replica: ReplicaId,
    digest: &Digest,
    sig: &Signature,
) -> bool {
    sig.signer == replica_key(replica) && verifier.is_valid_digest(digest, sig)
}

/// Whether `sig` is the signature of the client `request` names, over `request`.
pub fn verify_client_sig(verifier: &Verifier, request: &Request, sig: &Signature) -> bool {
    sig.signer == client_key(request.client)
        && verifier.is_valid_digest(&client_request_digest(request), sig)
}

/// Verifies a checkpoint proof of a cluster tolerating `t` faults: signed
/// CHKPT votes from at least t + 1 *distinct* replicas, all for the same
/// sequence number and state digest, each signed under the key of the replica
/// it names. Returns the proven `(sn, digest)`. The signatures are checked in
/// one batched pass.
pub fn verify_checkpoint_proof(
    verifier: &Verifier,
    t: usize,
    proof: &[CheckpointMsg],
) -> Option<(SeqNum, Digest)> {
    let first = proof.first()?;
    let (sn, digest) = (first.sn, first.state_digest);
    let mut signers: BTreeSet<ReplicaId> = BTreeSet::new();
    let mut items: Vec<(Digest, Signature)> = Vec::with_capacity(proof.len());
    for m in proof {
        if !m.signed
            || m.sn != sn
            || m.state_digest != digest
            || m.replica > 2 * t
            || m.signature.signer != replica_key(m.replica)
        {
            return None;
        }
        items.push((checkpoint_vote_digest(m.view, m.sn, &digest), m.signature));
        signers.insert(m.replica);
    }
    verifier.verify_batch(&items).ok()?;
    (signers.len() > t).then_some((sn, digest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClientId, ViewNumber};
    use xft_crypto::{KeyRegistry, Signer};

    fn vote(signer: &Signer, replica: ReplicaId, sn: SeqNum, state: Digest) -> CheckpointMsg {
        CheckpointMsg {
            sn,
            view: ViewNumber(0),
            state_digest: state,
            replica,
            signed: true,
            signature: signer.sign_digest(&checkpoint_vote_digest(ViewNumber(0), sn, &state)),
        }
    }

    #[test]
    fn a_signature_counts_only_for_the_identity_it_was_made_under() {
        let registry = KeyRegistry::new(3);
        let r0 = Signer::new(&registry, replica_key(0));
        let _r1 = Signer::new(&registry, replica_key(1));
        let verifier = Verifier::new(registry.clone());
        let d = Digest::of(b"suspect");
        let sig = r0.sign_digest(&d);
        assert!(verify_replica_sig(&verifier, 0, &d, &sig));
        assert!(!verify_replica_sig(&verifier, 1, &d, &sig));

        let c1 = Signer::new(&registry, client_key(ClientId(1)));
        let request = Request::new(ClientId(0), 7, vec![1, 2, 3].into());
        let sig = c1.sign_digest(&client_request_digest(&request));
        assert!(!verify_client_sig(&verifier, &request, &sig));
        let own = Request::new(ClientId(1), 7, vec![1, 2, 3].into());
        let sig = c1.sign_digest(&client_request_digest(&own));
        assert!(verify_client_sig(&verifier, &own, &sig));
    }

    /// A faulty replica copying its own CHKPT vote under a second replica id
    /// does not make a t + 1 proof (t = 1): the copy names replica 1 but is
    /// signed under replica 0's key.
    #[test]
    fn a_copied_vote_does_not_complete_a_checkpoint_proof() {
        let registry = KeyRegistry::new(3);
        let signers: Vec<Signer> = (0..3)
            .map(|r| Signer::new(&registry, replica_key(r)))
            .collect();
        let verifier = Verifier::new(registry.clone());
        let (sn, state) = (SeqNum(128), Digest::of(b"state"));

        let honest = vec![
            vote(&signers[0], 0, sn, state),
            vote(&signers[1], 1, sn, state),
        ];
        assert_eq!(
            verify_checkpoint_proof(&verifier, 1, &honest),
            Some((sn, state))
        );

        let mut copied = vote(&signers[0], 0, sn, state);
        copied.replica = 1;
        let forged = vec![vote(&signers[0], 0, sn, state), copied];
        assert_eq!(verify_checkpoint_proof(&verifier, 1, &forged), None);
        assert_eq!(verify_checkpoint_proof(&verifier, 1, &honest[..1]), None);
    }
}
