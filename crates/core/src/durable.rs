//! Durable replica state: WAL records and checkpoint snapshots.
//!
//! Two families of blobs cross the `xft-store` boundary (and, for snapshots,
//! the wire):
//!
//! * [`DurableEvent`] — one WAL record per state transition a replica must
//!   survive `kill -9` with: entries becoming committed, entries prepared,
//!   and view installs. Recovery replays the intact record prefix on top of
//!   the latest snapshot.
//! * [`ReplicaSnapshot`] — everything a lagging or freshly restarted replica
//!   needs to adopt the state at a checkpoint: the application snapshot
//!   (from [`StateMachine::snapshot`]), the executed history, and the
//!   canonical per-client exactly-once table. The checkpoint agreement
//!   (PRECHK/CHKPT, paper §4.5.1) runs over [`SnapshotImage::commitment`], so
//!   the t + 1 signed CHKPT messages of a stable checkpoint *are* the
//!   transferable proof that a snapshot blob is the agreed state — this is
//!   what makes state transfer verifiable instead of trusted. A checkpoint
//!   is captured into a [`SnapshotImage`] once; every later use reads it.
//!
//! [`StateMachine::snapshot`]: crate::state_machine::StateMachine::snapshot

use crate::log::{CommitEntry, PrepareEntry};
use crate::messages::CheckpointMsg;
use crate::types::{ClientId, SeqNum, Timestamp, ViewNumber};
use bytes::Bytes;
use std::sync::Arc;
use xft_crypto::{merkle_root, Digest};
use xft_wire::{WireDecode, WireEncode};

/// One WAL record: a replica state transition that must survive a crash.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableEvent {
    /// The replica installed (or resumed) view `0` in the active phase.
    View(ViewNumber),
    /// An entry became committed locally. Logged *before* the commit's
    /// effects are externalized (replies are sent only after the callback's
    /// effects are applied), so an acknowledged request is always in the WAL.
    Commit(CommitEntry),
    /// An entry was prepared. Needed so a recovered replica's VIEW-CHANGE
    /// transfer still contains what it acknowledged preparing pre-crash
    /// (the fault-detection mechanism treats losing it as a data-loss fault).
    Prepare(PrepareEntry),
    /// A verified state-transfer chunk was received. Journaled so a replica
    /// killed mid-transfer resumes from the chunks it already fetched instead
    /// of restarting the whole download.
    TransferChunk(TransferChunkRecord),
}

/// The WAL record of one verified state-transfer chunk (see
/// [`DurableEvent::TransferChunk`]). Carries everything needed to rebuild the
/// in-flight transfer after a crash: the manifest fields committed by the
/// sealed digest, the chunk itself, and the t + 1 CHKPT proof (so adoption
/// after reassembly can re-verify without another network round).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferChunkRecord {
    /// The sealed checkpoint sequence number the chunk belongs to.
    pub sn: SeqNum,
    /// Chunk (Merkle leaf) size the commitment used.
    pub chunk_bytes: u32,
    /// Total length of the encoded snapshot.
    pub total_len: u64,
    /// Merkle root over the chunk leaves.
    pub root: Digest,
    /// This chunk's index.
    pub index: u32,
    /// The chunk bytes.
    pub data: Bytes,
    /// The signed CHKPT quorum sealing the snapshot digest.
    pub proof: Vec<CheckpointMsg>,
}

/// The canonical exactly-once record of one client inside a snapshot.
///
/// Only fields that are a deterministic function of the executed log appear:
/// executed timestamp ranges and, per cached reply, `(timestamp, sn, raw
/// application reply digest)`. Volatile per-replica fields (resend counters,
/// reply payloads, the view a reply happened to be generated in) are
/// excluded, so every replica at the same checkpoint encodes an identical
/// record — a requirement for the digest agreement.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRecordSnapshot {
    /// The client.
    pub client: ClientId,
    /// Inclusive executed-timestamp ranges (start, end), ascending.
    pub ranges: Vec<(u64, u64)>,
    /// Recent replies as `(timestamp, sn, raw reply digest)`, ascending by
    /// timestamp. Enough to re-answer a retransmission with a digest reply
    /// bound to the answering replica's current view.
    pub replies: Vec<(Timestamp, SeqNum, Digest)>,
}

/// The full transferable state of a replica at a checkpoint sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSnapshot {
    /// The checkpoint sequence number: every operation up to and including
    /// `sn` is reflected.
    pub sn: SeqNum,
    /// The window base: `executed` carries only `(base, sn]`. Derived from
    /// the capture sequence number (`sn − checkpoint interval`), never from
    /// the locally observed stable checkpoint — `last_checkpoint` differs
    /// transiently across replicas while a quorum forms, and every active
    /// replica must encode a byte-identical snapshot at PRECHK capture.
    pub base: SeqNum,
    /// The application snapshot ([`StateMachine::snapshot`] output). Must be
    /// deterministic: digest-equal states encode byte-identically, since the
    /// checkpoint digest covers these bytes.
    ///
    /// [`StateMachine::snapshot`]: crate::state_machine::StateMachine::snapshot
    pub app: Bytes,
    /// The executed history `(sn, batch digest)` for the window
    /// `base + 1 ..= sn` only. History at and below `base` is attested by the
    /// previous seal and garbage-collected, so snapshot size is
    /// O(checkpoint interval), not O(total history).
    pub executed: Vec<(SeqNum, Digest)>,
    /// Canonical client records, ascending by client id. Replies whose
    /// executing sequence number is at or below `base` are pruned at capture
    /// (except each client's most recent, kept to re-answer retransmits of
    /// an idle client's last request).
    pub clients: Vec<ClientRecordSnapshot>,
}

impl ReplicaSnapshot {
    /// Exact length of the canonical encoding, so a capture encodes into one
    /// buffer of the right capacity instead of growing (and re-copying) a
    /// multi-megabyte vector.
    pub fn encoded_len(&self) -> usize {
        let clients: usize = self
            .clients
            .iter()
            .map(|c| 8 + 4 + c.ranges.len() * 16 + 4 + c.replies.len() * 48)
            .sum();
        8 + 8 + 4 + self.app.len() + 4 + self.executed.len() * 40 + 4 + clients
    }
}

/// Leaf digest of one snapshot chunk, bound to its index.
pub fn chunk_leaf(index: u32, data: &[u8]) -> Digest {
    Digest::of_parts(&[b"state-chunk", &index.to_le_bytes(), data])
}

/// The sealed commitment: what CHKPT signatures actually cover. Binds the
/// chunk size, the encoded length and the Merkle root, so a chunk response
/// claiming any of the three differently cannot verify.
pub fn snapshot_commitment(chunk_bytes: u32, total_len: u64, root: &Digest) -> Digest {
    Digest::of_parts(&[
        b"replica-snapshot-merkle",
        &chunk_bytes.to_le_bytes(),
        &total_len.to_le_bytes(),
        root.as_bytes(),
    ])
}

/// Number of chunks a `total_len`-byte snapshot splits into.
pub fn chunk_count(total_len: u64, chunk_bytes: u32) -> u32 {
    let chunk = (chunk_bytes as u64).max(1);
    (total_len.div_ceil(chunk)).max(1) as u32
}

/// A checkpoint captured once: the canonical encoding of a
/// [`ReplicaSnapshot`], its chunk tree and the commitment PRECHK/CHKPT agree
/// on. The vote, the comparison at the CHKPT quorum, the snapshot file and
/// every served chunk read this one value; nothing encodes or hashes the
/// state a second time.
///
/// The commitment is a pure function of `bytes` and `chunk_bytes`: two
/// replicas produce the same one iff they agree on the application state,
/// the executed window *and* the exactly-once table. Because it commits to
/// the chunk tree (leaf size, total length, root), a lagging replica can
/// verify each fetched chunk against the t + 1-signed seal with just an
/// audit path, before it holds the whole snapshot; and because `chunk_bytes`
/// (the cluster-uniform `state_chunk_bytes` knob) is bound in, replicas
/// configured differently fail loudly at PRECHK rather than mis-verifying
/// chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotImage {
    sn: SeqNum,
    chunk_bytes: u32,
    bytes: Bytes,
    leaves: Vec<Digest>,
    root: Digest,
    commitment: Digest,
}

impl SnapshotImage {
    /// Encodes `snapshot` (one pass, exact capacity) and builds its image.
    pub fn capture(snapshot: &ReplicaSnapshot, chunk_bytes: u32) -> Self {
        let mut bytes = Vec::with_capacity(snapshot.encoded_len());
        snapshot.encode_into(&mut bytes);
        Self::of_encoded(snapshot.sn, Bytes::from(bytes), chunk_bytes)
    }

    /// Builds the image of an already encoded snapshot (a reassembled
    /// transfer, a snapshot file). `sn` is the caller's claim;
    /// [`SnapshotImage::decode`] holds the bytes to it.
    pub fn of_encoded(sn: SeqNum, bytes: Bytes, chunk_bytes: u32) -> Self {
        let chunk = (chunk_bytes as usize).max(1);
        // Every chunk is full-size except possibly the last; no bytes at all
        // is still one (empty) chunk.
        let leaves: Vec<Digest> = if bytes.is_empty() {
            vec![chunk_leaf(0, &[])]
        } else {
            bytes
                .chunks(chunk)
                .enumerate()
                .map(|(i, c)| chunk_leaf(i as u32, c))
                .collect()
        };
        let root = merkle_root(&leaves);
        let commitment = snapshot_commitment(chunk_bytes, bytes.len() as u64, &root);
        SnapshotImage {
            sn,
            chunk_bytes,
            bytes,
            leaves,
            root,
            commitment,
        }
    }

    /// The checkpoint sequence number.
    pub fn sn(&self) -> SeqNum {
        self.sn
    }

    /// Chunk (Merkle leaf) size the commitment binds.
    pub fn chunk_bytes(&self) -> u32 {
        self.chunk_bytes
    }

    /// The canonical encoding of the snapshot.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Per-chunk Merkle leaves ([`chunk_leaf`] of every chunk).
    pub fn leaves(&self) -> &[Digest] {
        &self.leaves
    }

    /// Merkle root over [`SnapshotImage::leaves`].
    pub fn root(&self) -> Digest {
        self.root
    }

    /// The digest the PRECHK/CHKPT rounds agree on.
    pub fn commitment(&self) -> Digest {
        self.commitment
    }

    /// Chunk `index` of the encoding (zero-copy), if in range.
    pub fn chunk(&self, index: u32) -> Option<Bytes> {
        let chunk = (self.chunk_bytes as usize).max(1);
        let start = (index as usize).checked_mul(chunk)?;
        ((index as usize) < self.leaves.len()).then(|| {
            self.bytes
                .slice(start..(start + chunk).min(self.bytes.len()))
        })
    }

    /// Decodes the snapshot. `None` if the bytes are not exactly one
    /// canonical [`ReplicaSnapshot`] at this image's sequence number.
    pub fn decode(&self) -> Option<ReplicaSnapshot> {
        let mut r = bytes::Reader::new(&self.bytes);
        ReplicaSnapshot::decode_from(&mut r).filter(|s| r.is_empty() && s.sn == self.sn)
    }
}

/// A snapshot image sealed by its checkpoint proof: the `t + 1` signed CHKPT
/// messages whose `state_digest` equals [`SnapshotImage::commitment`]. This
/// is what replicas retain in memory for state transfer (served piecewise
/// through `StateChunkRequest`/`StateChunkResponse`) and for rollbacks, and
/// what `xft-store` persists as the snapshot file. Cloning shares the image.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedSnapshot {
    /// The captured image.
    pub image: Arc<SnapshotImage>,
    /// The signed CHKPT quorum proving it.
    pub proof: Vec<CheckpointMsg>,
}

impl SealedSnapshot {
    /// The checkpoint sequence number.
    pub fn sn(&self) -> SeqNum {
        self.image.sn
    }

    /// Serializes for the snapshot file: sequence number, the image's
    /// encoding as it stands, proof. The chunk tree is not stored; it is a
    /// function of the bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.image.bytes.len() + 64 + self.proof.len() * 128);
        self.image.sn.encode_into(&mut out);
        self.image.bytes.encode_into(&mut out);
        self.proof.encode_into(&mut out);
        out
    }

    /// Deserializes a snapshot file and rebuilds the chunk tree at
    /// `chunk_bytes`. The caller still has to compare the commitment with
    /// the proof's digest: a file written under another leaf definition or
    /// chunk size decodes fine and commits to something else.
    pub fn from_bytes(bytes: &[u8], chunk_bytes: u32) -> Option<Self> {
        let mut r = bytes::Reader::new(bytes);
        let sn = SeqNum::decode_from(&mut r)?;
        let encoded = Bytes::decode_from(&mut r)?;
        let proof = Vec::<CheckpointMsg>::decode_from(&mut r)?;
        if r.remaining() != 0 {
            return None;
        }
        let image = SnapshotImage::of_encoded(sn, encoded, chunk_bytes);
        Some(SealedSnapshot {
            image: Arc::new(image),
            proof,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> ReplicaSnapshot {
        ReplicaSnapshot {
            sn: SeqNum(128),
            base: SeqNum(0),
            app: Bytes::from_static(b"app-bytes"),
            executed: vec![
                (SeqNum(1), Digest::of(b"b1")),
                (SeqNum(2), Digest::of(b"b2")),
            ],
            clients: vec![ClientRecordSnapshot {
                client: ClientId(3),
                ranges: vec![(1, 7)],
                replies: vec![(7, SeqNum(2), Digest::of(b"r"))],
            }],
        }
    }

    const CHUNK: u32 = 64;

    fn commitment(snap: &ReplicaSnapshot, chunk_bytes: u32) -> Digest {
        SnapshotImage::capture(snap, chunk_bytes).commitment()
    }

    #[test]
    fn encoded_len_is_exact() {
        assert_eq!(snapshot().encoded_len(), snapshot().wire_bytes().len());
    }

    #[test]
    fn snapshot_digest_covers_every_component() {
        let base = snapshot();
        let mut other = base.clone();
        other.app = Bytes::from_static(b"app-bytes!");
        assert_ne!(commitment(&base, CHUNK), commitment(&other, CHUNK));
        let mut other = base.clone();
        other.executed.pop();
        assert_ne!(commitment(&base, CHUNK), commitment(&other, CHUNK));
        let mut other = base.clone();
        other.clients[0].ranges = vec![(1, 8)];
        assert_ne!(commitment(&base, CHUNK), commitment(&other, CHUNK));
        let mut other = base.clone();
        other.base = SeqNum(64);
        assert_ne!(commitment(&base, CHUNK), commitment(&other, CHUNK));
        assert_eq!(commitment(&base, CHUNK), commitment(&snapshot(), CHUNK));
        // The chunk size is part of the commitment.
        assert_ne!(commitment(&base, CHUNK), commitment(&base, CHUNK * 2));
    }

    #[test]
    fn every_chunk_verifies_against_the_commitment() {
        let snap = snapshot();
        let image = SnapshotImage::capture(&snap, CHUNK);
        let bytes = snap.wire_bytes();
        assert_eq!(image.bytes()[..], bytes[..]);
        assert_eq!(image.decode(), Some(snap));
        let leaves = image.leaves();
        assert!(leaves.len() > 1, "fixture must span several chunks");
        assert_eq!(
            leaves.len(),
            chunk_count(bytes.len() as u64, CHUNK) as usize
        );
        let root = merkle_root(leaves);
        assert_eq!(root, image.root());
        assert_eq!(
            image.commitment(),
            snapshot_commitment(CHUNK, bytes.len() as u64, &root)
        );
        for (i, piece) in bytes.chunks(CHUNK as usize).enumerate() {
            assert_eq!(image.chunk(i as u32).as_deref(), Some(piece));
            let leaf = chunk_leaf(i as u32, piece);
            assert_eq!(leaf, leaves[i]);
            let path = xft_crypto::merkle_path(leaves, i).unwrap();
            assert!(xft_crypto::merkle_verify(
                &leaf,
                i,
                leaves.len(),
                &path,
                &root
            ));
        }
        assert_eq!(image.chunk(leaves.len() as u32), None);
        // A swapped chunk cannot claim another index.
        let first = chunk_leaf(0, &bytes[..CHUNK as usize]);
        let path1 = xft_crypto::merkle_path(leaves, 1).unwrap();
        assert!(!xft_crypto::merkle_verify(
            &first,
            1,
            leaves.len(),
            &path1,
            &root
        ));
    }

    #[test]
    fn sealed_snapshot_file_round_trip() {
        let sealed = SealedSnapshot {
            image: Arc::new(SnapshotImage::capture(&snapshot(), CHUNK)),
            proof: vec![CheckpointMsg {
                sn: SeqNum(128),
                view: ViewNumber(1),
                state_digest: Digest::of(b"state"),
                replica: 0,
                signed: true,
                signature: xft_crypto::Signature::forged(xft_crypto::KeyId(0)),
            }],
        };
        let bytes = sealed.to_bytes();
        assert_eq!(
            SealedSnapshot::from_bytes(&bytes, CHUNK),
            Some(sealed.clone())
        );
        assert_eq!(sealed.sn(), SeqNum(128));
        // Read back at another chunk size it is a different commitment.
        let other = SealedSnapshot::from_bytes(&bytes, CHUNK * 2).unwrap();
        assert_ne!(other.image.commitment(), sealed.image.commitment());
        // Trailing garbage is rejected.
        let mut noisy = bytes.clone();
        noisy.push(0);
        assert_eq!(SealedSnapshot::from_bytes(&noisy, CHUNK), None);
        assert_eq!(
            SealedSnapshot::from_bytes(&bytes[..bytes.len() - 1], CHUNK),
            None
        );
    }
}
