//! # xft-bytes — a zero-dependency shim for the subset of [`bytes`] this workspace uses
//!
//! The build environment is offline, so the workspace cannot pull the real
//! [`bytes`](https://crates.io/crates/bytes) crate from crates.io. This crate
//! reimplements exactly the API surface the repository uses — [`Bytes`], the
//! [`BufMut`] trait and its reading counterpart [`Reader`] — and is aliased in
//! every consumer's manifest as
//! `bytes = { path = "../bytes-shim", package = "xft-bytes" }`, so the
//! `use bytes::…` statements across the tree compile unchanged.
//!
//! Semantics mirror the real crate where the workspace depends on them:
//!
//! * [`Bytes`] is an immutable, cheaply cloneable byte string. Clones share the
//!   underlying allocation through an [`Arc`]; [`Bytes::slice`] produces a
//!   zero-copy view into the same allocation.
//! * [`Bytes::from_static`] does not allocate at all; `Bytes::from(Vec<u8>)`
//!   takes the vector without copying it.
//! * [`BufMut`] provides the little-endian `put_*` writers the `xft-wire`
//!   codec is built on, implemented for `Vec<u8>`.
//!
//! Every byte format in the workspace is declared through `xft-wire`; this
//! crate only supplies the buffers it writes into and reads from.
//!
//! [`bytes`]: https://crates.io/crates/bytes

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// The backing storage of a [`Bytes`]: either a borrowed `'static` slice
/// (from [`Bytes::from_static`]) or a shared heap allocation.
#[derive(Clone)]
enum Storage {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// A cheaply cloneable, immutable contiguous slice of memory.
///
/// Mirrors `bytes::Bytes`: clones and [`slice`](Bytes::slice) views share the
/// underlying allocation instead of copying it.
#[derive(Clone)]
pub struct Bytes {
    storage: Storage,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates a new empty `Bytes` without allocating.
    pub const fn new() -> Self {
        Bytes {
            storage: Storage::Static(&[]),
            start: 0,
            end: 0,
        }
    }

    /// Creates a `Bytes` borrowing a static slice; never allocates.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            storage: Storage::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Creates a `Bytes` by copying `data` into a fresh shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a zero-copy sub-view of `self` over `range`.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or inverted, matching the real
    /// crate's behaviour.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        use std::ops::Bound;
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "range start must not exceed end");
        assert!(end <= len, "range end {end} out of bounds for length {len}");
        Bytes {
            storage: self.storage.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        match &self.storage {
            Storage::Static(s) => &s[self.start..self.end],
            Storage::Shared(v) => &v[self.start..self.end],
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            storage: Storage::Shared(Arc::new(v)),
            start: 0,
            end: len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// Formats a slice the way the real crate renders byte strings: `b"…"` with
/// ASCII escapes.
fn debug_bytes(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in bytes {
        for esc in std::ascii::escape_default(b) {
            write!(f, "{}", esc as char)?;
        }
    }
    write!(f, "\"")
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(self.as_slice(), f)
    }
}

/// Writer interface for appending fixed-width integers and slices to a buffer.
///
/// Only the methods this workspace calls are provided; all of them match the
/// real `bytes::BufMut` signatures.
pub trait BufMut {
    /// Appends a raw slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends a single byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Appends a `u32` in little-endian order.
    fn put_u32_le(&mut self, n: u32) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends a `u64` in little-endian order.
    fn put_u64_le(&mut self, n: u64) {
        self.put_slice(&n.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    // Inlined across crates: without it, every field the codec writes into a
    // vector pays an out-of-line call (~25 % of a multi-megabyte snapshot's
    // encoding time).
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// A `Buf`-style cursor over a byte slice: the reading counterpart of [`BufMut`].
///
/// Every accessor is bounds-checked and returns `None` instead of panicking when
/// the slice is exhausted, which is what decoders working on untrusted wire input
/// need. The cursor never copies; [`Reader::get_slice`] hands back a sub-slice of
/// the original buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a cursor positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the cursor has consumed the whole slice.
    pub fn is_empty(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Number of bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads the next `len` bytes as a sub-slice of the underlying buffer.
    pub fn get_slice(&mut self, len: usize) -> Option<&'a [u8]> {
        if self.remaining() < len {
            return None;
        }
        let s = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Some(s)
    }

    /// Reads a fixed-size byte array.
    pub fn get_array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.get_slice(N)
            .map(|s| s.try_into().expect("length checked"))
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.get_array::<1>().map(|b| b[0])
    }

    /// Reads a `u32` in little-endian order.
    pub fn get_u32_le(&mut self) -> Option<u32> {
        self.get_array().map(u32::from_le_bytes)
    }

    /// Reads a `u64` in little-endian order.
    pub fn get_u64_le(&mut self) -> Option<u64> {
        self.get_array().map(u64::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_bytes_do_not_allocate_and_compare() {
        let b = Bytes::from_static(b"hello");
        assert_eq!(b.len(), 5);
        assert_eq!(&b[..], b"hello");
        assert_eq!(b, Bytes::copy_from_slice(b"hello"));
    }

    #[test]
    fn clones_share_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let c = b.clone();
        assert_eq!(b, c);
        if let (Storage::Shared(x), Storage::Shared(y)) = (&b.storage, &c.storage) {
            assert!(Arc::ptr_eq(x, y));
        } else {
            panic!("heap-backed Bytes expected");
        }
    }

    #[test]
    fn slice_is_zero_copy_and_bounds_checked() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        let ss = s.slice(1..);
        assert_eq!(&ss[..], &[3, 4]);
        assert_eq!(b.slice(..).len(), 6);
        assert!(std::panic::catch_unwind(|| b.slice(4..10)).is_err());
    }

    #[test]
    fn conversions() {
        let v: Bytes = vec![9u8, 9].into();
        assert_eq!(v.to_vec(), vec![9u8, 9]);
        let s: Bytes = "ab".into();
        assert_eq!(&s[..], b"ab");
        let empty = Bytes::new();
        assert!(empty.is_empty());
        assert_eq!(empty, Bytes::default());
    }

    #[test]
    fn debug_formats_as_byte_string() {
        let b = Bytes::from_static(b"a\x00b");
        assert_eq!(format!("{b:?}"), "b\"a\\x00b\"");
    }

    #[test]
    fn reader_round_trips_bufmut_writers() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u32_le(0xDEADBEEF);
        buf.put_u64_le(42);
        buf.put_slice(b"tail");
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u32_le(), Some(0xDEADBEEF));
        assert_eq!(r.get_u64_le(), Some(42));
        assert_eq!(r.get_slice(4), Some(&b"tail"[..]));
        assert!(r.is_empty());
    }

    #[test]
    fn reader_is_bounds_checked_not_panicking() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.get_u32_le(), None, "4 bytes requested, 3 available");
        assert_eq!(r.remaining(), 3, "failed reads consume nothing");
        assert_eq!(r.get_u8(), Some(1));
        assert_eq!(r.position(), 1);
        assert_eq!(r.get_slice(3), None);
        assert_eq!(r.get_slice(2), Some(&[2, 3][..]));
        assert_eq!(r.get_u8(), None);
        assert_eq!(r.get_slice(usize::MAX), None, "no overflow on huge lengths");
    }
}
