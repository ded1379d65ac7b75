//! The replicated coordination service: a [`ZNodeTree`] driven through the
//! [`StateMachine`] interface, ready to be replicated by XPaxos or any baseline.

use crate::ops::{KvOp, KvResult};
use crate::tree::{encode_entry, TreeError, ZNodeTree};
use bytes::{BufMut, Bytes};
use std::cell::{Cell, RefCell};
use xft_core::state_machine::StateMachine;
use xft_crypto::Digest;
use xft_wire::{WireDecode, WireEncode};

/// The coordination service state machine.
///
/// Its [`StateMachine::snapshot`] costs what changed, and returns bytes no
/// later call writes while anyone else holds them. The service keeps the
/// encoding it returned last and the one it returned before that. A call
/// refreshes the *older* one and returns it: it rewrites the entries of
/// nodes whose version moved since that encoding was taken, plus the
/// header. A replica holds the previous checkpoint's image, which shares
/// the newer encoding, and has dropped the one before, so the older buffer
/// is written in place; if anything still holds it, the refresh copies it
/// first ([`Bytes::make_mut`]). The bytes always equal a from-scratch
/// encoding of `(applied, tree)`.
#[derive(Debug, Clone, Default)]
pub struct CoordinationService {
    tree: ZNodeTree,
    applied: u64,
    /// The encodings the last two `snapshot()` calls returned, the older
    /// first; the next call refreshes the older one.
    ///
    /// Invariant: a node whose version did not move since an encoding was
    /// taken still encodes to the same bytes. [`ZNodeTree::set`] is the only
    /// in-place mutation of a node and always bumps its version; every other
    /// change forgets both encodings — `Create` (even a failing sequential
    /// one has bumped its parent's counter), `Delete`, `ExpireSession`, a
    /// `Put` that creates, `restore` and `reset`. A write that resizes a
    /// node moves the layout, which the refresh detects and answers with a
    /// full encoding.
    encoded: RefCell<[Option<Encoded>; 2]>,
    /// `snapshot()` calls that refreshed a kept encoding in place.
    refreshed_in_place: Cell<u64>,
}

/// A kept snapshot encoding and, per node in path order, where its entry
/// starts and the version and data length it was encoded with.
#[derive(Debug, Clone)]
struct Encoded {
    bytes: Bytes,
    entries: Vec<EntryAt>,
}

#[derive(Debug, Clone, Copy)]
struct EntryAt {
    offset: usize,
    version: u64,
    data_len: usize,
}

/// Where the tree's encoding starts in a snapshot: behind `applied`.
const TREE_AT: usize = 8;

impl Encoded {
    /// Encodes `(applied, tree)` from scratch (one pass into one buffer of
    /// exact capacity: at a few megabytes of state, growing a vector and
    /// copying it behind the prefix costs more than the encoding itself).
    fn new(applied: u64, tree: &ZNodeTree) -> Self {
        let mut out = Vec::with_capacity(TREE_AT + tree.encoded_len());
        (applied, tree).encode_into(&mut out);
        let entries = tree
            .entries()
            .map(|(offset, _, node)| EntryAt {
                offset: TREE_AT + offset,
                version: node.version,
                data_len: node.data.len(),
            })
            .collect();
        Encoded {
            bytes: Bytes::from(out),
            entries,
        }
    }

    /// Brings the encoding up to `(applied, tree)`: the header (`applied`
    /// and the zxid) and each entry whose version moved, written as the
    /// walk finds it. Returns `false`, with no byte written (and so no
    /// copy of a shared buffer made), when the layout moved (the node
    /// count or a data length differs); the caller then encodes anew.
    fn refresh(&mut self, applied: u64, tree: &ZNodeTree) -> bool {
        let same_layout = tree.len() == self.entries.len()
            && tree
                .entries()
                .zip(&self.entries)
                .all(|((_, _, node), kept)| node.data.len() == kept.data_len);
        if !same_layout {
            return false;
        }
        let buf = self.bytes.make_mut();
        for ((_, path, node), kept) in tree.entries().zip(&mut self.entries) {
            if node.version != kept.version {
                kept.version = node.version;
                encode_entry(path, node, &mut Overwrite(&mut buf[kept.offset..]));
            }
        }
        (applied, tree.zxid()).encode_into(&mut Overwrite(&mut buf[..TREE_AT + 8]));
        true
    }
}

/// Writes over a slice from its start: the [`BufMut`] an entry is
/// re-encoded in place through.
struct Overwrite<'a>(&'a mut [u8]);

impl BufMut for Overwrite<'_> {
    fn put_slice(&mut self, src: &[u8]) {
        let (head, tail) = std::mem::take(&mut self.0).split_at_mut(src.len());
        head.copy_from_slice(src);
        self.0 = tail;
    }
}

impl CoordinationService {
    /// Creates an empty service.
    pub fn new() -> Self {
        CoordinationService::default()
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
            } => {
                self.drop_encoding();
                match self
                    .tree
                    .create(path, data.clone(), *ephemeral_owner, *sequential)
                {
                    Ok(created) => KvResult::Ok(Bytes::from(created.into_bytes())),
                    Err(e) => KvResult::Err(err_name(e)),
                }
            }
            KvOp::Delete { path } => {
                self.drop_encoding();
                match self.tree.delete(path, None) {
                    Ok(()) => KvResult::Ok(Bytes::new()),
                    Err(e) => KvResult::Err(err_name(e)),
                }
            }
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
                self.drop_encoding();
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
                    self.drop_encoding();
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

    /// How many `snapshot()` calls refreshed a kept encoding in place:
    /// they neither copied it (something else still held it) nor encoded
    /// anew. With a replica's retention that is every call but the first
    /// two and those after a change that forgets the encodings.
    pub fn snapshots_refreshed_in_place(&self) -> u64 {
        self.refreshed_in_place.get()
    }

    /// Forgets both kept snapshot encodings: the next two `snapshot()`
    /// calls encode from scratch.
    fn drop_encoding(&mut self) {
        *self.encoded.get_mut() = [None, None];
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
        let mut kept = self.encoded.borrow_mut();
        let [older, newer] = &mut *kept;
        let encoded = older
            .take()
            .and_then(|mut e| {
                let at = e.bytes.as_ptr();
                if !e.refresh(self.applied, &self.tree) {
                    return None;
                }
                // A copy is made while its source is still held, so it
                // never lands at the source's address.
                if e.bytes.as_ptr() == at {
                    self.refreshed_in_place
                        .set(self.refreshed_in_place.get() + 1);
                }
                Some(e)
            })
            .unwrap_or_else(|| Encoded::new(self.applied, &self.tree));
        let bytes = encoded.bytes.clone();
        *older = newer.replace(encoded);
        debug_assert!(
            bytes == Encoded::new(self.applied, &self.tree).bytes,
            "the kept snapshot encoding differs from a from-scratch encoding"
        );
        bytes
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        let Some((applied, tree)) = WireDecode::decode_exact(snapshot) else {
            return false;
        };
        self.tree = tree;
        self.applied = applied;
        self.drop_encoding();
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
    fn a_refresh_that_finds_the_layout_moved_writes_nothing() {
        let mut svc = CoordinationService::new();
        for path in ["/a", "/b"] {
            svc.apply_op(&KvOp::Put {
                path: path.into(),
                data: Bytes::from_static(b"x"),
            });
        }
        let mut encoded = Encoded::new(svc.applied(), svc.tree());
        let held = encoded.bytes.clone();
        // `/a`'s entry is dirty and comes before `/b`, whose size moved.
        for (path, data) in [("/a", &b"y"[..]), ("/b", &b"longer"[..])] {
            svc.apply_op(&KvOp::SetData {
                path: path.into(),
                data: Bytes::from_static(data),
            });
        }
        assert!(!encoded.refresh(svc.applied(), svc.tree()));
        assert_eq!(
            encoded.bytes.as_ptr(),
            held.as_ptr(),
            "a refresh that fails does not copy the shared buffer"
        );
        assert_eq!(encoded.bytes, held);
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
