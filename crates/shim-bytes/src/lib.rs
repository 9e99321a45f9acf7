//! Workspace-local stand-in for the [`bytes`](https://crates.io/crates/bytes)
//! crate, providing the subset of its API this repository uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! resolves the `bytes` dependency to this path crate instead (see the
//! root `Cargo.toml`). Semantics match the real crate for the covered
//! surface: [`Bytes`] is a cheaply cloneable, sliceable, immutable byte
//! buffer; [`BytesMut`] is an append-only builder that freezes into a
//! [`Bytes`]; [`BufMut`] carries the big-endian `put_*` writers.
//!
//! On top of the `bytes` API this shim recycles buffers: builders draw
//! their backing storage from a thread-local size-classed [`pool`], and
//! when the last [`Bytes`] reference to a buffer drops, the storage goes
//! back to the pool instead of the allocator. Freezing is zero-copy — the
//! builder's vector is moved, never copied, into the shared buffer. A
//! [`Gather`] joins a message's pieces back into one buffer, as a view of
//! their allocation when they are consecutive slices of it and with one
//! copy otherwise, and [`Parts`] carries a header and the data behind it
//! as two buffers, so neither is copied to put one in front of the other.
//!
//! One deliberate difference from the real crate: [`Bytes`] counts its
//! references with [`Rc`], not an atomic, so it is not `Send`. The pool is
//! thread-local and every simulation runs on one thread, so no buffer ever
//! crosses threads, and the compiler now enforces that; a clone or a drop
//! costs a plain increment or decrement.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod gather;
mod parts;
pub mod pool;

pub use gather::Gather;
pub use parts::Parts;
use std::ops::{Bound, Deref, RangeBounds};
use std::rc::Rc;

/// A cheaply cloneable, immutable, sliceable view of a byte buffer.
///
/// Clones and sub-slices share one reference-counted allocation; no byte
/// data is copied after construction. Dropping the last reference offers
/// the allocation back to the thread-local [`pool`].
#[derive(Default)]
pub struct Bytes {
    data: Option<Rc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation at all).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wrap a static byte slice. (This shim copies the bytes once; the
    /// real crate borrows them. Behaviour is otherwise identical.)
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Copy `data` into a fresh buffer (pooled when a recycled one fits).
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        let mut v = pool::acquire(data.len());
        v.extend_from_slice(data);
        Bytes::from(v)
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same allocation. Panics if the range is out
    /// of bounds, like the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "range {start}..{end} out of bounds of {}",
            self.len()
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + start,
            end: self.start + end,
        }
    }
}

impl Clone for Bytes {
    fn clone(&self) -> Bytes {
        Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.end,
        }
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        // Last reference out offers the backing vector to the pool.
        if let Some(rc) = self.data.take() {
            if let Ok(v) = Rc::try_unwrap(rc) {
                if v.capacity() != 0 {
                    pool::reclaim(v);
                }
            }
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Some(Rc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from(v.to_vec())
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Bytes {
        Bytes::from(v.as_bytes().to_vec())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(v: BytesMut) -> Bytes {
        v.freeze()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(d) => &d[self.start..self.end],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        // The real crate has an owning iterator type; a Vec round-trip is
        // the simplest consuming equivalent here.
        #[allow(clippy::unnecessary_to_owned)]
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A growable byte buffer that freezes into an immutable [`Bytes`].
///
/// The backing storage comes from the thread-local [`pool`] and returns
/// there when the buffer (or the last [`Bytes`] frozen from it) drops.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { data: Vec::new() }
    }

    /// An empty buffer with at least `cap` bytes preallocated, recycled
    /// from the [`pool`] when a buffer of the right size class is free.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: pool::acquire(cap),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append `src`.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Resize to `new_len`, filling with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(new_len, value);
    }

    /// Convert into an immutable [`Bytes`] without copying: the backing
    /// vector moves into the shared buffer as-is.
    pub fn freeze(mut self) -> Bytes {
        Bytes::from(std::mem::take(&mut self.data))
    }
}

impl Drop for BytesMut {
    fn drop(&mut self) {
        let v = std::mem::take(&mut self.data);
        if v.capacity() != 0 {
            pool::reclaim(v);
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Big-endian append operations, as in the real crate's `BufMut`.
pub trait BufMut {
    /// Append a byte slice.
    fn put_slice(&mut self, src: &[u8]);
    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a `u16`, big-endian.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a `u32`, big-endian.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a `u64`, big-endian.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append an `i32`, big-endian.
    fn put_i32(&mut self, v: i32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append an `i64`, big-endian.
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_and_bounds() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(&s.slice(1..)[..], &[3, 4]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn builder_roundtrip() {
        let mut m = BytesMut::with_capacity(8);
        m.put_u16(0x0102);
        m.put_u32(0x03040506);
        m.put_slice(&[7]);
        assert_eq!(&m.freeze()[..], &[1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn freeze_is_zero_copy_and_drop_recycles() {
        pool::reset();
        let mut m = BytesMut::with_capacity(1000); // 1024 class, miss
        m.put_slice(&[1, 2, 3]);
        let b = m.freeze(); // moves the vector, no copy, no reclaim
        let c = b.clone();
        drop(b);
        assert_eq!(pool::stats().returned, 0, "still referenced by a clone");
        drop(c);
        assert_eq!(pool::stats().returned, 1, "last reference recycles");
        let again = BytesMut::with_capacity(700); // same 1024 class: pooled
        assert_eq!(pool::stats().recycled, 1);
        drop(again);
        pool::reset();
    }

    #[test]
    fn eq_and_debug() {
        let b = Bytes::from_static(b"ab\n");
        assert_eq!(b, Bytes::copy_from_slice(b"ab\n"));
        assert_eq!(format!("{b:?}"), "b\"ab\\n\"");
    }
}
