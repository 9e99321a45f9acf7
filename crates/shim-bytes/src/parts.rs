//! A byte sequence held in two parts.
//!
//! A layer that puts its header in front of a message it did not build
//! need not copy the message to do so: it hands the layer below the header
//! and the message as two parts, the way a NIC's gather list reads a
//! frame's header and data each from where it lies. [`Parts`] is such a
//! sequence: `head`, then `body`, each shared with its owner. A reader
//! takes its header off the front with [`Parts::split_header`], which
//! copies only the header's bytes out, and joins what is left into one
//! buffer with [`Parts::join`] only where it needs one.
//!
//! Like [`Gather`], this is an extension beyond the real `bytes` crate's
//! API.

use crate::{Bytes, Gather};
use std::ops::Range;

/// `head` followed by `body`, each a [`Bytes`] shared as it lies.
///
/// ```
/// use bytes::{Bytes, Parts};
///
/// let body = Bytes::from(vec![5, 6, 7]);
/// let message = Parts::new(Bytes::from(vec![1, 2, 3, 4]), body.clone());
/// let (header, rest): ([u8; 4], _) = message.split_header().unwrap();
/// assert_eq!(header, [1, 2, 3, 4]);
/// let rest = rest.join();
/// assert_eq!(rest, body);
/// assert_eq!(rest.as_ptr(), body.as_ptr(), "the body is not copied");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Parts {
    /// The first part: a header, or nothing.
    pub head: Bytes,
    /// The second part: the data behind the header.
    pub body: Bytes,
}

impl Parts {
    /// `head` followed by `body`, each taken as it is.
    pub fn new(head: Bytes, body: Bytes) -> Parts {
        Parts { head, body }
    }

    /// Length of the whole sequence: head plus body.
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// Whether both parts are empty.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.body.is_empty()
    }

    /// The first `N` bytes, a header, copied out by value, and the bytes
    /// after them; `None` when the sequence is shorter than `N`.
    ///
    /// The rest keeps the sharing of the parts it comes from: the body, or
    /// a slice of it, when the head holds no more than the header, and
    /// otherwise the head's leftover bytes and the body, still two parts.
    /// Only the header's bytes are copied.
    pub fn split_header<const N: usize>(&self) -> Option<([u8; N], Parts)> {
        if self.len() < N {
            return None;
        }
        let mut header = [0u8; N];
        let in_head = self.head.len().min(N);
        header[..in_head].copy_from_slice(&self.head[..in_head]);
        header[in_head..].copy_from_slice(&self.body[..N - in_head]);
        Some((header, self.slice(N..self.len())))
    }

    /// The bytes in `range` of the sequence, each part a slice of the part
    /// it lies in (an empty part holds no allocation). Panics if the range
    /// is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Parts {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "range {}..{} out of bounds of {}",
            range.start,
            range.end,
            self.len()
        );
        let h = self.head.len();
        Parts {
            head: part(&self.head, range.start.min(h)..range.end.min(h)),
            body: part(&self.body, range.start.max(h) - h..range.end.max(h) - h),
        }
    }

    /// The sequence as one buffer: the body itself when the head is empty
    /// (the head when the body is), a view when the body continues the
    /// head in one allocation, and one copy of both parts otherwise.
    pub fn join(self) -> Bytes {
        let mut joined = Gather::new(self.len());
        joined.push(self.head);
        joined.push(self.body);
        joined.finish()
    }
}

/// `bytes[range]`, or no allocation at all when the range is empty.
fn part(bytes: &Bytes, range: Range<usize>) -> Bytes {
    if range.is_empty() {
        Bytes::new()
    } else {
        bytes.slice(range)
    }
}

impl From<Bytes> for Parts {
    /// A sequence of one part: `body`, behind an empty head.
    fn from(body: Bytes) -> Parts {
        Parts::new(Bytes::new(), body)
    }
}

/// Equal when the sequences hold the same bytes, wherever the parts split.
impl PartialEq for Parts {
    fn eq(&self, other: &Parts) -> bool {
        self.len() == other.len()
            && self
                .head
                .iter()
                .chain(&self.body[..])
                .eq(other.head.iter().chain(&other.body[..]))
    }
}
impl Eq for Parts {}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
    }

    /// `m` cut at `at` into two parts of two separate allocations.
    fn two(m: &Bytes, at: usize) -> Parts {
        Parts::new(Bytes::copy_from_slice(&m[..at]), m.slice(at..))
    }

    fn concat(p: &Parts) -> Vec<u8> {
        [&p.head[..], &p.body[..]].concat()
    }

    /// Split `N` bytes off `p`, `m` cut at `at`: the header and the rest
    /// are `m`'s bytes, and neither part of the rest is a copy.
    fn check<const N: usize>(m: &Bytes, p: &Parts, at: usize) {
        let (header, rest) = p.split_header::<N>().unwrap();
        assert_eq!(header, m[..N], "at {at}, N {N}");
        assert_eq!(concat(&rest), &m[N..], "at {at}, N {N}");
        if !rest.body.is_empty() {
            let skip = N.saturating_sub(at);
            assert_eq!(rest.body.as_ptr(), p.body[skip..].as_ptr(), "body copied");
        }
        if at > N {
            assert_eq!(rest.head.as_ptr(), p.head[N..].as_ptr(), "head copied");
        } else {
            assert!(rest.head.is_empty());
        }
    }

    #[test]
    fn split_header_copies_only_the_header_wherever_the_parts_split() {
        let m = message(40);
        for at in 0..=40 {
            let p = two(&m, at);
            check::<0>(&m, &p, at);
            check::<1>(&m, &p, at);
            check::<8>(&m, &p, at);
            check::<16>(&m, &p, at);
            check::<40>(&m, &p, at);
            assert!(p.split_header::<41>().is_none());
        }
    }

    #[test]
    fn slices_and_joins_are_the_concatenations() {
        let m = message(30);
        for at in [0, 1, 15, 29, 30] {
            let p = two(&m, at);
            assert_eq!(p.len(), 30);
            for (s, e) in [(0, 30), (0, 0), (3, 17), (15, 15), (29, 30)] {
                assert_eq!(concat(&p.slice(s..e)), &m[s..e]);
                assert_eq!(p.slice(s..e).join(), m.slice(s..e));
            }
            assert!(p.slice(at..at).is_empty());
            assert_eq!(p, Parts::from(m.clone()));
        }
    }

    #[test]
    fn join_shares_one_part_or_continuing_parts() {
        let m = message(100);
        let body_only = Parts::from(m.clone()).join();
        assert_eq!(body_only.as_ptr(), m.as_ptr());
        let head_only = Parts::new(m.clone(), Bytes::new()).join();
        assert_eq!(head_only.as_ptr(), m.as_ptr());
        let continuing = Parts::new(m.slice(..10), m.slice(10..)).join();
        assert_eq!(continuing, m);
        assert_eq!(continuing.as_ptr(), m.as_ptr(), "one allocation: a view");
        let apart = two(&m, 10).join();
        assert_eq!(apart, m);
        assert_ne!(apart.as_ptr(), m.as_ptr(), "two allocations: one copy");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        two(&message(5), 2).slice(1..6);
    }
}
