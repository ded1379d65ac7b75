//! The replicated coordination service: a [`ZNodeTree`] driven through the
//! [`StateMachine`] interface, ready to be replicated by XPaxos or any baseline.

use crate::ops::{KvOp, KvResult};
use crate::tree::{TreeError, ZNodeTree};
use bytes::{BufMut, Bytes};
use xft_core::state_machine::StateMachine;
use xft_crypto::Digest;
use xft_wire::{WireDecode, WireEncode};

/// The coordination service state machine.
#[derive(Debug, Clone, Default)]
pub struct CoordinationService {
    tree: ZNodeTree,
    applied: u64,
}

impl CoordinationService {
    /// Creates an empty service.
    pub fn new() -> Self {
        CoordinationService {
            tree: ZNodeTree::new(),
            applied: 0,
        }
    }

    /// Applies a decoded operation and returns its result.
    pub fn apply_op(&mut self, op: &KvOp) -> KvResult {
        self.applied += 1;
        match op {
            KvOp::Create {
                path,
                data,
                ephemeral_owner,
                sequential,
            } => match self
                .tree
                .create(path, data.clone(), *ephemeral_owner, *sequential)
            {
                Ok(created) => KvResult::Ok(Bytes::from(created.into_bytes())),
                Err(e) => KvResult::Err(err_name(e)),
            },
            KvOp::Delete { path } => match self.tree.delete(path, None) {
                Ok(()) => KvResult::Ok(Bytes::new()),
                Err(e) => KvResult::Err(err_name(e)),
            },
            KvOp::SetData { path, data } => match self.tree.set(path, data.clone(), None) {
                Ok(version) => KvResult::Ok(Bytes::copy_from_slice(&version.to_le_bytes())),
                Err(e) => KvResult::Err(err_name(e)),
            },
            KvOp::GetData { path } => match self.tree.get(path) {
                Ok(node) => KvResult::Ok(node.data.clone()),
                Err(e) => KvResult::Err(err_name(e)),
            },
            KvOp::Exists { path } => KvResult::Ok(Bytes::from_static(if self.tree.exists(path) {
                b"1"
            } else {
                b"0"
            })),
            KvOp::GetChildren { path } => {
                let mut out = Vec::new();
                for child in self.tree.children(path) {
                    out.put_slice(child.as_bytes());
                    out.put_u8(b'\n');
                }
                KvResult::Ok(Bytes::from(out))
            }
            KvOp::ExpireSession { session } => {
                let removed = self.tree.expire_session(*session);
                KvResult::Ok(Bytes::copy_from_slice(&(removed as u64).to_le_bytes()))
            }
            KvOp::Put { path, data } => {
                if self.tree.exists(path) {
                    match self.tree.set(path, data.clone(), None) {
                        Ok(version) => KvResult::Ok(Bytes::copy_from_slice(&version.to_le_bytes())),
                        Err(e) => KvResult::Err(err_name(e)),
                    }
                } else {
                    match self.tree.create(path, data.clone(), None, false) {
                        Ok(_) => KvResult::Ok(Bytes::copy_from_slice(&0u64.to_le_bytes())),
                        Err(e) => KvResult::Err(err_name(e)),
                    }
                }
            }
            KvOp::GetVer { path } => match self.tree.get(path) {
                Ok(node) => {
                    let mut out = Vec::with_capacity(8 + node.data.len());
                    out.put_u64_le(node.version);
                    out.put_slice(&node.data);
                    KvResult::Ok(Bytes::from(out))
                }
                Err(e) => KvResult::Err(err_name(e)),
            },
        }
    }

    /// Read access to the underlying tree.
    pub fn tree(&self) -> &ZNodeTree {
        &self.tree
    }

    /// Number of operations applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }
}

fn err_name(e: TreeError) -> &'static str {
    match e {
        TreeError::NodeExists => "NodeExists",
        TreeError::NoNode => "NoNode",
        TreeError::NoParent => "NoParent",
        TreeError::NotEmpty => "NotEmpty",
        TreeError::BadVersion => "BadVersion",
        TreeError::BadPath => "BadPath",
    }
}

impl StateMachine for CoordinationService {
    fn apply(&mut self, op: &[u8]) -> Bytes {
        match KvOp::decode(op) {
            Some(decoded) => self.apply_op(&decoded).encode(),
            None => KvResult::Err("Malformed").encode(),
        }
    }

    fn state_digest(&self) -> Digest {
        // `applied` is serialized state too (it counts failed and read-only
        // operations, which leave the tree and its zxid alone).
        Digest::of_parts(&[
            b"coordination-service",
            &self.applied.to_le_bytes(),
            self.tree.digest().as_bytes(),
        ])
    }

    fn execution_cost_ns(&self, op: &[u8]) -> u64 {
        // A small, size-proportional execution cost: ZooKeeper operations on tmpfs are
        // cheap compared to the replication protocol (which is the paper's point).
        500 + (op.len() as u64) / 4
    }

    fn reset(&mut self) {
        *self = CoordinationService::new();
    }

    fn snapshot(&self) -> Bytes {
        // One pass into one buffer of exact capacity: at a few megabytes of
        // state, growing a vector and copying it behind the prefix costs
        // more than the encoding itself.
        let mut out = Vec::with_capacity(8 + self.tree.encoded_len());
        (self.applied, &self.tree).encode_into(&mut out);
        Bytes::from(out)
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        let Some((applied, tree)) = WireDecode::decode_exact(snapshot) else {
            return false;
        };
        self.tree = tree;
        self.applied = applied;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_decodes_and_executes() {
        let mut svc = CoordinationService::new();
        let create = KvOp::Create {
            path: "/cfg".into(),
            data: Bytes::from_static(b"x"),
            ephemeral_owner: None,
            sequential: false,
        };
        let reply = svc.apply(&create.encode());
        assert_eq!(reply[0], 1, "success tag");
        let get = KvOp::GetData {
            path: "/cfg".into(),
        };
        let reply = svc.apply(&get.encode());
        assert_eq!(&reply[1..], b"x");
        assert_eq!(svc.applied(), 2);
    }

    #[test]
    fn malformed_operations_return_error_replies() {
        let mut svc = CoordinationService::new();
        let reply = svc.apply(b"\xffgarbage");
        assert_eq!(reply[0], 0);
        assert!(svc.tree().is_empty());
    }

    #[test]
    fn deterministic_across_replicas() {
        let script: Vec<KvOp> = (0..50)
            .map(|i| {
                if i % 10 == 0 {
                    KvOp::Create {
                        path: format!("/node{i}"),
                        data: Bytes::from(vec![i as u8; 64]),
                        ephemeral_owner: None,
                        sequential: false,
                    }
                } else {
                    KvOp::SetData {
                        path: format!("/node{}", (i / 10) * 10),
                        data: Bytes::from(vec![i as u8; 128]),
                    }
                }
            })
            .collect();
        let mut a = CoordinationService::new();
        let mut b = CoordinationService::new();
        for op in &script {
            let ra = a.apply(&op.encode());
            let rb = b.apply(&op.encode());
            assert_eq!(ra, rb);
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn error_paths_map_to_zookeeper_style_codes() {
        let mut svc = CoordinationService::new();
        assert_eq!(
            svc.apply_op(&KvOp::Delete {
                path: "/missing".into()
            }),
            KvResult::Err("NoNode")
        );
        assert_eq!(
            svc.apply_op(&KvOp::Create {
                path: "/a/b".into(),
                data: Bytes::new(),
                ephemeral_owner: None,
                sequential: false
            }),
            KvResult::Err("NoParent")
        );
    }

    #[test]
    fn put_upserts_and_getver_reports_versions() {
        let mut svc = CoordinationService::new();
        let put =
            |svc: &mut CoordinationService, data: &'static [u8]| match svc.apply_op(&KvOp::Put {
                path: "/k".into(),
                data: Bytes::from_static(data),
            }) {
                KvResult::Ok(v) => u64::from_le_bytes(v[..8].try_into().unwrap()),
                KvResult::Err(e) => panic!("put failed: {e}"),
            };
        assert_eq!(put(&mut svc, b"a"), 0, "create returns version 0");
        assert_eq!(put(&mut svc, b"b"), 1);
        assert_eq!(put(&mut svc, b"c"), 2);
        match svc.apply_op(&KvOp::GetVer { path: "/k".into() }) {
            KvResult::Ok(out) => {
                assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), 2);
                assert_eq!(&out[8..], b"c");
            }
            KvResult::Err(e) => panic!("getver failed: {e}"),
        }
        assert_eq!(
            svc.apply_op(&KvOp::GetVer {
                path: "/missing".into()
            }),
            KvResult::Err("NoNode")
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut svc = CoordinationService::new();
        let initial = svc.state_digest();
        svc.apply_op(&KvOp::Put {
            path: "/k".into(),
            data: Bytes::from_static(b"x"),
        });
        assert_ne!(svc.state_digest(), initial);
        svc.reset();
        assert_eq!(svc.state_digest(), initial);
        assert!(svc.tree().is_empty());
    }

    #[test]
    fn snapshot_restore_round_trips_the_tree() {
        let mut svc = CoordinationService::new();
        svc.apply_op(&KvOp::Create {
            path: "/app".into(),
            data: Bytes::from_static(b"cfg"),
            ephemeral_owner: Some(7),
            sequential: false,
        });
        svc.apply_op(&KvOp::Create {
            path: "/app/lock-".into(),
            data: Bytes::new(),
            ephemeral_owner: None,
            sequential: true,
        });
        svc.apply_op(&KvOp::SetData {
            path: "/app".into(),
            data: Bytes::from_static(b"v2"),
        });
        let blob = svc.snapshot();
        // Ephemeral and persistent nodes are both in the fixture, so this
        // pins the exact-capacity arithmetic of the one-pass encoding.
        assert_eq!(blob.len(), 8 + svc.tree().encoded_len());
        assert_eq!(blob[8..], svc.tree().to_bytes()[..]);

        let mut restored = CoordinationService::new();
        assert!(restored.restore(&blob));
        assert_eq!(restored.state_digest(), svc.state_digest());
        assert_eq!(restored.applied(), svc.applied());
        // The restored tree continues identically (sequential counters, zxid).
        let a = svc.apply_op(&KvOp::Create {
            path: "/app/lock-".into(),
            data: Bytes::new(),
            ephemeral_owner: None,
            sequential: true,
        });
        let b = restored.apply_op(&KvOp::Create {
            path: "/app/lock-".into(),
            data: Bytes::new(),
            ephemeral_owner: None,
            sequential: true,
        });
        assert_eq!(a, b);
        assert_eq!(restored.state_digest(), svc.state_digest());

        // Malformed blobs leave the service untouched.
        let before = restored.state_digest();
        assert!(!restored.restore(b"????"));
        assert!(!restored.restore(&blob[..blob.len() - 1]));
        assert_eq!(restored.state_digest(), before);
    }

    #[test]
    fn state_digest_covers_the_applied_counter() {
        let mut a = CoordinationService::new();
        let mut b = CoordinationService::new();
        // A read leaves the tree alone but is part of the snapshot.
        b.apply_op(&KvOp::Exists { path: "/x".into() });
        assert_eq!(a.tree().digest(), b.tree().digest());
        assert_ne!(a.snapshot(), b.snapshot());
        assert_ne!(a.state_digest(), b.state_digest());
        a.apply_op(&KvOp::Exists { path: "/y".into() });
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn execution_cost_scales_with_payload() {
        let svc = CoordinationService::new();
        assert!(svc.execution_cost_ns(&[0u8; 4096]) > svc.execution_cost_ns(&[0u8; 16]));
    }
}
