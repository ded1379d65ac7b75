//! Operation encoding for the coordination service.
//!
//! Replication protocols carry opaque byte strings; [`KvOp`] has a compact,
//! canonical `xft-wire` encoding (one tag byte, then the variant's fields) so
//! benchmark clients can generate ZooKeeper-style operations (1 kB writes in
//! the paper's Figure 10 workload) and replicas can decode and apply them.
//! Like every `xft-wire` decoder, [`KvOp::decode`] accepts exactly one byte
//! string per operation: trailing bytes or a `sequential` flag other than
//! 0 / 1 make it `None`.

use bytes::{BufMut, Bytes, Reader};
use xft_wire::{WireDecode, WireEncode};

/// A coordination-service operation.
#[derive(Debug, Clone, PartialEq)]
pub enum KvOp {
    /// Create a node.
    Create {
        /// Path of the new node.
        path: String,
        /// Initial data.
        data: Bytes,
        /// Session owning the node if ephemeral.
        ephemeral_owner: Option<u64>,
        /// Whether a sequential suffix is appended.
        sequential: bool,
    },
    /// Delete a node.
    Delete {
        /// Path to delete.
        path: String,
    },
    /// Overwrite a node's data (the Figure 10 workload: 1 kB writes).
    SetData {
        /// Path to update.
        path: String,
        /// New data.
        data: Bytes,
    },
    /// Read a node's data.
    GetData {
        /// Path to read.
        path: String,
    },
    /// Check whether a node exists.
    Exists {
        /// Path to probe.
        path: String,
    },
    /// List the direct children of a node.
    GetChildren {
        /// Path whose children are listed.
        path: String,
    },
    /// Expire a session, removing its ephemeral nodes.
    ExpireSession {
        /// The expired session id.
        session: u64,
    },
    /// Create-or-overwrite: creates the node (version 0) if missing, else
    /// overwrites its data. Returns the node's new version as 8 LE bytes —
    /// the per-key write serial number the chaos linearizability checker keys
    /// its register model on.
    Put {
        /// Path to upsert.
        path: String,
        /// New data.
        data: Bytes,
    },
    /// Versioned read: returns the node's version (8 LE bytes) followed by
    /// its data, so a reader observes *which* write it linearized after.
    GetVer {
        /// Path to read.
        path: String,
    },
}

/// Result of applying an operation.
#[derive(Debug, Clone, PartialEq)]
pub enum KvResult {
    /// Operation succeeded; optional payload (created path, read data, child list…).
    Ok(Bytes),
    /// Operation failed with a ZooKeeper-style error name.
    Err(&'static str),
}

impl KvResult {
    /// Whether the result is a success.
    pub fn is_ok(&self) -> bool {
        matches!(self, KvResult::Ok(_))
    }

    /// Serializes the result to bytes (for protocol replies): a success tag
    /// (1 or 0) followed by the raw payload or error name. The payload has no
    /// length prefix: the reply field that carries it is already framed.
    pub fn encode(&self) -> Bytes {
        let (tag, payload): (u8, &[u8]) = match self {
            KvResult::Ok(payload) => (1, payload),
            KvResult::Err(name) => (0, name.as_bytes()),
        };
        let mut out = Vec::with_capacity(1 + payload.len());
        out.put_u8(tag);
        out.put_slice(payload);
        Bytes::from(out)
    }
}

// Variant tags, explicit like the protocol's message tags: reordering the
// enum must never change the format.
const TAG_CREATE: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_SET: u8 = 3;
const TAG_GET: u8 = 4;
const TAG_EXISTS: u8 = 5;
const TAG_CHILDREN: u8 = 6;
const TAG_EXPIRE: u8 = 7;
const TAG_PUT: u8 = 8;
const TAG_GETVER: u8 = 9;

impl WireEncode for KvOp {
    fn encode_into(&self, out: &mut impl BufMut) {
        match self {
            KvOp::Create {
                path,
                data,
                ephemeral_owner,
                sequential,
            } => {
                // The owner travels as `session + 1`; 0 means none.
                let owner = ephemeral_owner.map_or(0, |s| s + 1);
                (TAG_CREATE, path, data, owner, sequential).encode_into(out)
            }
            KvOp::Delete { path } => (TAG_DELETE, path).encode_into(out),
            KvOp::SetData { path, data } => (TAG_SET, path, data).encode_into(out),
            KvOp::GetData { path } => (TAG_GET, path).encode_into(out),
            KvOp::Exists { path } => (TAG_EXISTS, path).encode_into(out),
            KvOp::GetChildren { path } => (TAG_CHILDREN, path).encode_into(out),
            KvOp::ExpireSession { session } => (TAG_EXPIRE, session).encode_into(out),
            KvOp::Put { path, data } => (TAG_PUT, path, data).encode_into(out),
            KvOp::GetVer { path } => (TAG_GETVER, path).encode_into(out),
        }
    }
}

impl WireDecode for KvOp {
    fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.get_u8()? {
            TAG_CREATE => {
                let (path, data, owner, sequential): (_, _, u64, _) = WireDecode::decode_from(r)?;
                KvOp::Create {
                    path,
                    data,
                    ephemeral_owner: owner.checked_sub(1),
                    sequential,
                }
            }
            TAG_DELETE => KvOp::Delete {
                path: WireDecode::decode_from(r)?,
            },
            TAG_SET => {
                let (path, data) = WireDecode::decode_from(r)?;
                KvOp::SetData { path, data }
            }
            TAG_GET => KvOp::GetData {
                path: WireDecode::decode_from(r)?,
            },
            TAG_EXISTS => KvOp::Exists {
                path: WireDecode::decode_from(r)?,
            },
            TAG_CHILDREN => KvOp::GetChildren {
                path: WireDecode::decode_from(r)?,
            },
            TAG_EXPIRE => KvOp::ExpireSession {
                session: u64::decode_from(r)?,
            },
            TAG_PUT => {
                let (path, data) = WireDecode::decode_from(r)?;
                KvOp::Put { path, data }
            }
            TAG_GETVER => KvOp::GetVer {
                path: WireDecode::decode_from(r)?,
            },
            _ => return None,
        })
    }
}

impl KvOp {
    /// Encodes the operation to bytes.
    pub fn encode(&self) -> Bytes {
        Bytes::from(self.wire_bytes())
    }

    /// Decodes an operation from bytes. Returns `None` on malformed input,
    /// trailing bytes included (replicas treat undecodable operations as
    /// no-ops with an error reply).
    pub fn decode(data: &[u8]) -> Option<KvOp> {
        KvOp::decode_exact(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: KvOp) {
        let encoded = op.encode();
        let decoded = KvOp::decode(&encoded).expect("decodes");
        assert_eq!(decoded, op);
    }

    #[test]
    fn all_ops_roundtrip() {
        roundtrip(KvOp::Create {
            path: "/a/b".into(),
            data: Bytes::from(vec![7u8; 100]),
            ephemeral_owner: Some(42),
            sequential: true,
        });
        roundtrip(KvOp::Create {
            path: "/plain".into(),
            data: Bytes::new(),
            ephemeral_owner: None,
            sequential: false,
        });
        roundtrip(KvOp::Delete { path: "/a".into() });
        roundtrip(KvOp::SetData {
            path: "/k".into(),
            data: Bytes::from(vec![1u8; 1024]),
        });
        roundtrip(KvOp::GetData { path: "/k".into() });
        roundtrip(KvOp::Exists { path: "/k".into() });
        roundtrip(KvOp::GetChildren { path: "/".into() });
        roundtrip(KvOp::ExpireSession { session: 9 });
        roundtrip(KvOp::Put {
            path: "/chaos0".into(),
            data: Bytes::from(vec![3u8; 16]),
        });
        roundtrip(KvOp::GetVer {
            path: "/chaos0".into(),
        });
    }

    #[test]
    fn malformed_input_is_rejected_not_panicking() {
        assert_eq!(KvOp::decode(&[]), None);
        assert_eq!(KvOp::decode(&[99]), None);
        assert_eq!(KvOp::decode(&[TAG_CREATE, 1, 2]), None);
        // Truncate a valid encoding at every length and make sure decode never panics.
        let full = KvOp::SetData {
            path: "/key".into(),
            data: Bytes::from(vec![0u8; 32]),
        }
        .encode();
        for cut in 0..full.len() {
            let _ = KvOp::decode(&full[..cut]);
        }
    }

    #[test]
    fn result_encoding_distinguishes_ok_and_err() {
        let ok = KvResult::Ok(Bytes::from_static(b"payload")).encode();
        let err = KvResult::Err("NoNode").encode();
        assert_eq!(ok[0], 1);
        assert_eq!(err[0], 0);
        assert!(KvResult::Ok(Bytes::new()).is_ok());
        assert!(!KvResult::Err("x").is_ok());
    }
}
