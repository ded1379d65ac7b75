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
use xft_crypto::{merkle_root, Digest, Sha256};
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

/// Bytes hashed as one unit inside a chunk leaf. Fixed, not configurable:
/// it is part of what a CHKPT signature covers, and it only trades hashing
/// granularity against memo size.
pub const LEAF_BLOCK_BYTES: usize = 1024;

/// Splits `data` into `size`-byte pieces (the last possibly shorter). Empty
/// data is one empty piece, so "no bytes" still has a chunk and a block.
fn pieces(data: &[u8], size: usize) -> impl Iterator<Item = &[u8]> {
    let empty = data.is_empty().then_some(data);
    empty.into_iter().chain(data.chunks(size))
}

/// Digest of one leaf block. A pure function of the block's bytes: its
/// position is bound by the leaf that lists it.
fn block_digest(block: &[u8]) -> Digest {
    Digest::of_parts(&[b"state-block", block])
}

/// Leaf digest of a chunk from the digests of its blocks, bound to the
/// chunk index. Every field is fixed-width, so no framing is needed.
fn leaf_of_blocks(index: u32, blocks: &[Digest]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"state-chunk-v2");
    h.update(&index.to_le_bytes());
    h.update(&(blocks.len() as u32).to_le_bytes());
    for block in blocks {
        h.update(block.as_bytes());
    }
    Digest(h.finalize())
}

/// Leaf digest of one snapshot chunk, bound to its index: a hash over the
/// digests of the chunk's [`LEAF_BLOCK_BYTES`] blocks (a chunk shorter than
/// a block is one block). The two levels are what let a capture re-hash
/// only the blocks whose bytes changed since the previous image; a receiver
/// just calls this on the chunk bytes it was sent.
pub fn chunk_leaf(index: u32, data: &[u8]) -> Digest {
    let blocks: Vec<Digest> = pieces(data, LEAF_BLOCK_BYTES).map(block_digest).collect();
    leaf_of_blocks(index, &blocks)
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

/// How much hashing one [`SnapshotImage`] build did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageStats {
    /// Leaf blocks in the image.
    pub blocks_total: u64,
    /// Blocks whose digest was computed rather than taken from the memo.
    pub blocks_rehashed: u64,
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
    /// Block digests, chunk by chunk (every chunk but the last has the same
    /// number of blocks, so a block's index is the same in any two images
    /// that both contain its offset).
    blocks: Vec<Digest>,
    leaves: Vec<Digest>,
    root: Digest,
    commitment: Digest,
}

impl SnapshotImage {
    /// Encodes `snapshot` (one pass, exact capacity) and builds its image.
    pub fn capture(
        snapshot: &ReplicaSnapshot,
        chunk_bytes: u32,
        memo: Option<&SnapshotImage>,
    ) -> (Self, ImageStats) {
        let mut bytes = Vec::with_capacity(snapshot.encoded_len());
        snapshot.encode_into(&mut bytes);
        Self::of_encoded(snapshot.sn, Bytes::from(bytes), chunk_bytes, memo)
    }

    /// Builds the image of an already encoded snapshot (a reassembled
    /// transfer, a snapshot file). `sn` is the caller's claim;
    /// [`SnapshotImage::decode`] holds the bytes to it.
    ///
    /// `memo` is any earlier image, typically the previous checkpoint's. A
    /// block whose bytes equal the memo's bytes at the same offset reuses
    /// the memo's digest, and a chunk none of whose blocks changed reuses
    /// its leaf. Content is compared by position, so there is nothing to
    /// track or invalidate: a stale, unrelated or missing memo costs a full
    /// hash and can never change the result.
    pub fn of_encoded(
        sn: SeqNum,
        bytes: Bytes,
        chunk_bytes: u32,
        memo: Option<&SnapshotImage>,
    ) -> (Self, ImageStats) {
        let chunk = (chunk_bytes as usize).max(1);
        let memo = memo.filter(|m| m.chunk_bytes == chunk_bytes);
        let memo_len = memo.map_or(0, |m| m.bytes.len());
        let mut blocks = Vec::with_capacity(bytes.len().div_ceil(LEAF_BLOCK_BYTES) + 1);
        let mut leaves = Vec::with_capacity(chunk_count(bytes.len() as u64, chunk_bytes) as usize);
        let mut rehashed = 0u64;
        for (index, data) in pieces(&bytes, chunk).enumerate() {
            let chunk_start = index * chunk;
            let first_block = blocks.len();
            let mut changed = false;
            for (j, block) in pieces(data, LEAF_BLOCK_BYTES).enumerate() {
                let start = chunk_start + j * LEAF_BLOCK_BYTES;
                let end = start + block.len();
                // Where the memo's block at this offset ends; its digest is
                // only reusable if it covers exactly the same range.
                let memo_end = (start + LEAF_BLOCK_BYTES)
                    .min(chunk_start + chunk)
                    .min(memo_len);
                let kept = memo
                    .filter(|m| memo_end == end && m.bytes[start..end] == *block)
                    .map(|m| m.blocks[blocks.len()]);
                blocks.push(kept.unwrap_or_else(|| {
                    changed = true;
                    rehashed += 1;
                    block_digest(block)
                }));
            }
            let same_extent = (chunk_start + chunk).min(memo_len) == chunk_start + data.len();
            leaves.push(match memo {
                Some(m) if !changed && same_extent => m.leaves[index],
                _ => leaf_of_blocks(index as u32, &blocks[first_block..]),
            });
        }
        let root = merkle_root(&leaves);
        let commitment = snapshot_commitment(chunk_bytes, bytes.len() as u64, &root);
        let stats = ImageStats {
            blocks_total: blocks.len() as u64,
            blocks_rehashed: rehashed,
        };
        let image = SnapshotImage {
            sn,
            chunk_bytes,
            bytes,
            blocks,
            leaves,
            root,
            commitment,
        };
        (image, stats)
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
        ReplicaSnapshot::decode_exact(&self.bytes).filter(|s| s.sn == self.sn)
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
        (self.image.sn, &self.image.bytes, &self.proof).encode_into(&mut out);
        out
    }

    /// Deserializes a snapshot file and rebuilds the chunk tree at
    /// `chunk_bytes`. The caller still has to compare the commitment with
    /// the proof's digest: a file written under another leaf definition or
    /// chunk size decodes fine and commits to something else.
    pub fn from_bytes(bytes: &[u8], chunk_bytes: u32) -> Option<Self> {
        let (sn, encoded, proof) = WireDecode::decode_exact(bytes)?;
        let (image, _) = SnapshotImage::of_encoded(sn, encoded, chunk_bytes, None);
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
        SnapshotImage::capture(snap, chunk_bytes, None)
            .0
            .commitment()
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
        let (image, _) = SnapshotImage::capture(&snap, CHUNK, None);
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

    /// Deterministic filler bytes (position-dependent, so shifted content
    /// never compares equal by accident).
    fn filler(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3])
            .collect()
    }

    #[test]
    fn chunk_leaf_is_two_level_and_total() {
        // A chunk shorter than a block (even an empty one) is one block.
        for len in [0, 1, LEAF_BLOCK_BYTES - 1, LEAF_BLOCK_BYTES] {
            let data = filler(len);
            assert_eq!(
                chunk_leaf(3, &data),
                leaf_of_blocks(3, &[block_digest(&data)])
            );
        }
        let data = filler(2 * LEAF_BLOCK_BYTES + 7);
        let blocks: Vec<Digest> = data.chunks(LEAF_BLOCK_BYTES).map(block_digest).collect();
        assert_eq!(blocks.len(), 3);
        assert_eq!(chunk_leaf(0, &data), leaf_of_blocks(0, &blocks));
        assert_ne!(chunk_leaf(0, &data), chunk_leaf(1, &data));
    }

    #[test]
    fn memoized_image_equals_from_scratch_image() {
        let base = filler(12_000);
        let lens = [0, 1, 1023, 1024, 1025, 2048, 4096, 5000, 11_999, 12_000];
        for chunk in [512u32, 1000, 1024, 3000, 4096, 65_536] {
            for old_len in lens {
                let (memo, _) = SnapshotImage::of_encoded(
                    SeqNum(1),
                    base[..old_len].to_vec().into(),
                    chunk,
                    None,
                );
                let (other, _) = SnapshotImage::of_encoded(
                    SeqNum(1),
                    base[..old_len].to_vec().into(),
                    chunk + 1,
                    None,
                );
                for new_len in lens {
                    for flip in [
                        None,
                        Some(0),
                        Some(new_len / 2),
                        Some(new_len.saturating_sub(1)),
                    ] {
                        let mut bytes = base[..new_len].to_vec();
                        if let Some(at) = flip.filter(|at| *at < new_len) {
                            bytes[at] ^= 0x5a;
                        }
                        let bytes = Bytes::from(bytes);
                        let (scratch, full) =
                            SnapshotImage::of_encoded(SeqNum(2), bytes.clone(), chunk, None);
                        let (memoized, stats) =
                            SnapshotImage::of_encoded(SeqNum(2), bytes, chunk, Some(&memo));
                        assert_eq!(
                            memoized, scratch,
                            "chunk {chunk} {old_len}->{new_len} {flip:?}"
                        );
                        assert_eq!(full.blocks_rehashed, full.blocks_total);
                        assert_eq!(stats.blocks_total, full.blocks_total);
                        if old_len == new_len {
                            let flipped = flip.is_some_and(|at| at < new_len) as u64;
                            assert_eq!(stats.blocks_rehashed, flipped);
                        }
                        // A memo built at another chunk size is no memo.
                        let (rebuilt, stats) = SnapshotImage::of_encoded(
                            SeqNum(2),
                            scratch.bytes().clone(),
                            chunk,
                            Some(&other),
                        );
                        assert_eq!(rebuilt, scratch);
                        assert_eq!(stats.blocks_rehashed, stats.blocks_total);
                    }
                }
            }
        }
    }

    #[test]
    fn sealed_snapshot_file_round_trip() {
        let sealed = SealedSnapshot {
            image: Arc::new(SnapshotImage::capture(&snapshot(), CHUNK, None).0),
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
