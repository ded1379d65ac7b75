//! The znode tree: a hierarchical namespace of versioned nodes, modeled after the
//! ZooKeeper data model.

use bytes::{BufMut, Bytes, Reader};
use std::collections::BTreeMap;
use xft_crypto::Digest;
use xft_wire::{struct_codec, WireDecode, WireEncode};

/// One node in the hierarchical namespace.
#[derive(Debug, Clone, PartialEq)]
pub struct ZNode {
    /// Node payload.
    pub data: Bytes,
    /// Data version, incremented on every set.
    pub version: u64,
    /// Creation order (zxid-like counter at creation time).
    pub created_at: u64,
    /// Session id of the owner for ephemeral nodes; `None` for persistent nodes.
    pub ephemeral_owner: Option<u64>,
    /// Counter used to name sequential children.
    pub next_sequential: u64,
}

impl ZNode {
    fn new(data: Bytes, created_at: u64, ephemeral_owner: Option<u64>) -> Self {
        ZNode {
            data,
            version: 0,
            created_at,
            ephemeral_owner,
            next_sequential: 0,
        }
    }
}

/// Errors returned by tree operations (mirroring ZooKeeper error codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// The node already exists.
    NodeExists,
    /// The node does not exist.
    NoNode,
    /// The parent node does not exist.
    NoParent,
    /// The node still has children.
    NotEmpty,
    /// A version check failed.
    BadVersion,
    /// The path is syntactically invalid.
    BadPath,
}

/// The hierarchical namespace.
#[derive(Debug, Clone)]
pub struct ZNodeTree {
    nodes: BTreeMap<String, ZNode>,
    /// Monotonic operation counter (zxid).
    zxid: u64,
}

impl Default for ZNodeTree {
    fn default() -> Self {
        Self::new()
    }
}

fn parent_of(path: &str) -> Option<String> {
    if path == "/" {
        return None;
    }
    let idx = path.rfind('/')?;
    Some(if idx == 0 {
        "/".to_string()
    } else {
        path[..idx].to_string()
    })
}

fn valid_path(path: &str) -> bool {
    path.starts_with('/')
        && !path.contains("//")
        && (path == "/" || !path.ends_with('/'))
        && !path.is_empty()
}

impl ZNodeTree {
    /// Creates a tree containing only the root node `/`.
    pub fn new() -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert("/".to_string(), ZNode::new(Bytes::new(), 0, None));
        ZNodeTree { nodes, zxid: 0 }
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The current zxid (number of mutations applied).
    pub fn zxid(&self) -> u64 {
        self.zxid
    }

    /// Creates a node. With `sequential`, a zero-padded counter maintained by the
    /// parent is appended to the name; the final path is returned.
    pub fn create(
        &mut self,
        path: &str,
        data: Bytes,
        ephemeral_owner: Option<u64>,
        sequential: bool,
    ) -> Result<String, TreeError> {
        if !valid_path(path) || path == "/" {
            return Err(TreeError::BadPath);
        }
        let parent = parent_of(path).ok_or(TreeError::BadPath)?;
        if !self.nodes.contains_key(&parent) {
            return Err(TreeError::NoParent);
        }
        let final_path = if sequential {
            let parent_node = self.nodes.get_mut(&parent).expect("parent exists");
            let seq = parent_node.next_sequential;
            parent_node.next_sequential += 1;
            format!("{path}{seq:010}")
        } else {
            path.to_string()
        };
        if self.nodes.contains_key(&final_path) {
            return Err(TreeError::NodeExists);
        }
        self.zxid += 1;
        self.nodes.insert(
            final_path.clone(),
            ZNode::new(data, self.zxid, ephemeral_owner),
        );
        Ok(final_path)
    }

    /// Deletes a node (which must have no children). `expected_version` of `None`
    /// skips the version check.
    pub fn delete(&mut self, path: &str, expected_version: Option<u64>) -> Result<(), TreeError> {
        if path == "/" {
            return Err(TreeError::BadPath);
        }
        let node = self.nodes.get(path).ok_or(TreeError::NoNode)?;
        if let Some(v) = expected_version {
            if node.version != v {
                return Err(TreeError::BadVersion);
            }
        }
        if self.children(path).next().is_some() {
            return Err(TreeError::NotEmpty);
        }
        self.zxid += 1;
        self.nodes.remove(path);
        Ok(())
    }

    /// Overwrites a node's data, bumping its version.
    pub fn set(
        &mut self,
        path: &str,
        data: Bytes,
        expected_version: Option<u64>,
    ) -> Result<u64, TreeError> {
        let node = self.nodes.get_mut(path).ok_or(TreeError::NoNode)?;
        if let Some(v) = expected_version {
            if node.version != v {
                return Err(TreeError::BadVersion);
            }
        }
        node.data = data;
        node.version += 1;
        self.zxid += 1;
        Ok(node.version)
    }

    /// Reads a node.
    pub fn get(&self, path: &str) -> Result<&ZNode, TreeError> {
        self.nodes.get(path).ok_or(TreeError::NoNode)
    }

    /// Whether a node exists.
    pub fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(path)
    }

    /// Iterates over the direct children of a node, in lexicographic order.
    pub fn children<'a>(&'a self, path: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let prefix2 = prefix.clone();
        self.nodes
            .range(prefix.clone()..)
            .take_while(move |(k, _)| k.starts_with(&prefix))
            .filter(move |(k, _)| {
                !k[prefix2.len()..].contains('/') && !k[prefix2.len()..].is_empty()
            })
            .map(|(k, _)| k.as_str())
    }

    /// Removes every ephemeral node owned by `session` (session expiry).
    pub fn expire_session(&mut self, session: u64) -> usize {
        let doomed: Vec<String> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.ephemeral_owner == Some(session))
            .map(|(k, _)| k.clone())
            .collect();
        // Delete leaves first (longest paths first) so NotEmpty cannot trigger.
        let mut sorted = doomed;
        sorted.sort_by_key(|p| std::cmp::Reverse(p.len()));
        let mut removed = 0;
        for path in sorted {
            if self.delete(&path, None).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Serializes the whole tree — every node with its data, versions and
    /// ephemeral ownership, plus the zxid counter — into an opaque blob.
    /// Inverse of [`ZNodeTree::from_bytes`]; used by state-machine snapshots.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Exact length of the [`ZNodeTree::to_bytes`] encoding, so a caller can
    /// reserve once for a multi-megabyte tree instead of growing a vector.
    pub fn encoded_len(&self) -> usize {
        let nodes: usize = self
            .nodes
            .iter()
            .map(|(path, node)| {
                let owner = if node.ephemeral_owner.is_some() { 8 } else { 0 };
                4 + path.len() + 4 + node.data.len() + 8 + 8 + 1 + owner + 8
            })
            .sum();
        8 + 4 + nodes
    }

    /// Reconstructs a tree from [`ZNodeTree::to_bytes`] output. Returns
    /// `None` on a malformed blob: truncated, trailing bytes, paths out of
    /// order or repeated, no root, or more than
    /// [`xft_wire::MAX_COLLECTION_LEN`] nodes or bytes of one node's data.
    pub fn from_bytes(bytes: &[u8]) -> Option<ZNodeTree> {
        ZNodeTree::decode_exact(bytes)
    }

    /// Per-node leaf digests in path order — the leaves of the tree's Merkle
    /// commitment. Exposed so incremental verifiers can audit single nodes.
    /// A leaf covers every serialized field of its node: two nodes that
    /// encode differently in [`ZNodeTree::to_bytes`] never share a leaf.
    pub fn merkle_leaves(&self) -> Vec<Digest> {
        self.nodes
            .iter()
            .map(|(path, node)| {
                // Tagged like the encoding, so `Some(u64::MAX)` and `None`
                // (which continue differently at session expiry) differ.
                let (owned, owner) = match node.ephemeral_owner {
                    Some(owner) => (1u8, owner),
                    None => (0u8, 0),
                };
                Digest::of_parts(&[
                    b"znode-leaf",
                    path.as_bytes(),
                    &node.data,
                    &node.version.to_le_bytes(),
                    &node.created_at.to_le_bytes(),
                    &[owned],
                    &owner.to_le_bytes(),
                    &node.next_sequential.to_le_bytes(),
                ])
            })
            .collect()
    }

    /// A digest covering the entire tree — every node field and the zxid
    /// counter, i.e. everything [`ZNodeTree::to_bytes`] serializes: the
    /// Merkle root over [`ZNodeTree::merkle_leaves`], bound to the node
    /// count and the zxid. Any single node (plus its audit path) can
    /// therefore be verified against this digest without rehashing the
    /// whole tree.
    pub fn digest(&self) -> Digest {
        let root = xft_crypto::merkle_root(&self.merkle_leaves());
        Digest::of_parts(&[
            b"znode-tree",
            &(self.nodes.len() as u64).to_le_bytes(),
            &self.zxid.to_le_bytes(),
            root.as_bytes(),
        ])
    }
}

struct_codec!(ZNode {
    data,
    version,
    created_at,
    ephemeral_owner,
    next_sequential
});

/// The zxid, then the nodes as a map from path to node.
impl WireEncode for ZNodeTree {
    fn encode_into(&self, out: &mut impl BufMut) {
        (self.zxid, &self.nodes).encode_into(out);
    }
}

impl WireDecode for ZNodeTree {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let (zxid, nodes): (u64, BTreeMap<String, ZNode>) = WireDecode::decode_from(r)?;
        nodes.contains_key("/").then_some(ZNodeTree { nodes, zxid })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_set_delete_roundtrip() {
        let mut t = ZNodeTree::new();
        assert!(t.is_empty());
        t.create("/app", Bytes::from_static(b"cfg"), None, false)
            .unwrap();
        assert_eq!(t.get("/app").unwrap().data, Bytes::from_static(b"cfg"));
        assert_eq!(t.set("/app", Bytes::from_static(b"v2"), None).unwrap(), 1);
        assert_eq!(t.get("/app").unwrap().version, 1);
        t.delete("/app", None).unwrap();
        assert!(!t.exists("/app"));
        assert_eq!(t.zxid(), 3);
    }

    #[test]
    fn create_requires_parent_and_uniqueness() {
        let mut t = ZNodeTree::new();
        assert_eq!(
            t.create("/a/b", Bytes::new(), None, false),
            Err(TreeError::NoParent)
        );
        t.create("/a", Bytes::new(), None, false).unwrap();
        t.create("/a/b", Bytes::new(), None, false).unwrap();
        assert_eq!(
            t.create("/a/b", Bytes::new(), None, false),
            Err(TreeError::NodeExists)
        );
    }

    #[test]
    fn bad_paths_rejected() {
        let mut t = ZNodeTree::new();
        for bad in ["", "nope", "/a//b", "/a/", "/"] {
            assert!(t.create(bad, Bytes::new(), None, false).is_err(), "{bad}");
        }
        assert_eq!(t.delete("/", None), Err(TreeError::BadPath));
    }

    #[test]
    fn sequential_nodes_get_increasing_suffixes() {
        let mut t = ZNodeTree::new();
        t.create("/locks", Bytes::new(), None, false).unwrap();
        let a = t.create("/locks/lock-", Bytes::new(), None, true).unwrap();
        let b = t.create("/locks/lock-", Bytes::new(), None, true).unwrap();
        assert_eq!(a, "/locks/lock-0000000000");
        assert_eq!(b, "/locks/lock-0000000001");
        assert!(a < b);
        let children: Vec<&str> = t.children("/locks").collect();
        assert_eq!(children.len(), 2);
    }

    #[test]
    fn delete_respects_children_and_versions() {
        let mut t = ZNodeTree::new();
        t.create("/a", Bytes::new(), None, false).unwrap();
        t.create("/a/b", Bytes::new(), None, false).unwrap();
        assert_eq!(t.delete("/a", None), Err(TreeError::NotEmpty));
        assert_eq!(t.delete("/a/b", Some(3)), Err(TreeError::BadVersion));
        t.delete("/a/b", Some(0)).unwrap();
        t.delete("/a", None).unwrap();
    }

    #[test]
    fn children_only_lists_direct_descendants() {
        let mut t = ZNodeTree::new();
        for p in ["/a", "/a/x", "/a/y", "/a/x/deep", "/b"] {
            t.create(p, Bytes::new(), None, false).unwrap();
        }
        let kids: Vec<&str> = t.children("/a").collect();
        assert_eq!(kids, vec!["/a/x", "/a/y"]);
        let root_kids: Vec<&str> = t.children("/").collect();
        assert_eq!(root_kids, vec!["/a", "/b"]);
    }

    #[test]
    fn ephemeral_nodes_die_with_their_session() {
        let mut t = ZNodeTree::new();
        t.create("/services", Bytes::new(), None, false).unwrap();
        t.create("/services/s1", Bytes::new(), Some(7), false)
            .unwrap();
        t.create("/services/s2", Bytes::new(), Some(7), false)
            .unwrap();
        t.create("/services/s3", Bytes::new(), Some(8), false)
            .unwrap();
        assert_eq!(t.expire_session(7), 2);
        assert!(!t.exists("/services/s1"));
        assert!(t.exists("/services/s3"));
    }

    #[test]
    fn digest_reflects_content_and_is_deterministic() {
        let build = |extra: bool| {
            let mut t = ZNodeTree::new();
            t.create("/k", Bytes::from_static(b"v"), None, false)
                .unwrap();
            if extra {
                t.set("/k", Bytes::from_static(b"v2"), None).unwrap();
            }
            t.digest()
        };
        assert_eq!(build(false), build(false));
        assert_ne!(build(false), build(true));
    }

    #[test]
    fn single_nodes_verify_against_the_merkle_digest() {
        let mut t = ZNodeTree::new();
        for i in 0..17 {
            t.create(
                &format!("/n{i}"),
                Bytes::from(vec![i as u8; 32]),
                None,
                false,
            )
            .unwrap();
        }
        let leaves = t.merkle_leaves();
        let root = xft_crypto::merkle_root(&leaves);
        assert_eq!(
            t.digest(),
            Digest::of_parts(&[
                b"znode-tree",
                &(leaves.len() as u64).to_le_bytes(),
                &t.zxid().to_le_bytes(),
                root.as_bytes()
            ])
        );
        for (i, leaf) in leaves.iter().enumerate() {
            let path = xft_crypto::merkle_path(&leaves, i).unwrap();
            assert!(xft_crypto::merkle_verify(
                leaf,
                i,
                leaves.len(),
                &path,
                &root
            ));
        }
        // Mutating one node changes its leaf and the root.
        let before = t.digest();
        t.set("/n3", Bytes::from_static(b"mutated"), None).unwrap();
        assert_ne!(t.digest(), before);
    }

    #[test]
    fn digest_covers_every_serialized_field() {
        let mut t = ZNodeTree::new();
        t.create("/a", Bytes::from_static(b"v"), Some(7), false)
            .unwrap();
        t.create("/b", Bytes::from_static(b"w"), None, false)
            .unwrap();
        type Mutation = fn(&mut ZNodeTree);
        let mutations: [(&str, Mutation); 9] = [
            ("zxid", |t| t.zxid += 1),
            ("path", |t| {
                let node = t.nodes.remove("/b").unwrap();
                t.nodes.insert("/c".into(), node);
            }),
            ("data", |t| {
                t.nodes.get_mut("/b").unwrap().data = Bytes::from_static(b"x")
            }),
            ("version", |t| t.nodes.get_mut("/b").unwrap().version += 1),
            ("created_at", |t| {
                t.nodes.get_mut("/b").unwrap().created_at += 1
            }),
            ("owner value", |t| {
                t.nodes.get_mut("/a").unwrap().ephemeral_owner = Some(8)
            }),
            ("owner presence", |t| {
                t.nodes.get_mut("/b").unwrap().ephemeral_owner = Some(0)
            }),
            ("owner max", |t| {
                t.nodes.get_mut("/b").unwrap().ephemeral_owner = Some(u64::MAX)
            }),
            ("next_sequential", |t| {
                t.nodes.get_mut("/").unwrap().next_sequential += 1
            }),
        ];
        for (field, mutate) in mutations {
            let mut m = t.clone();
            mutate(&mut m);
            assert_ne!(m.to_bytes(), t.to_bytes(), "{field}: fixture must differ");
            assert_ne!(m.digest(), t.digest(), "{field} is not covered");
        }
        assert_eq!(t.clone().digest(), t.digest());
    }
}
