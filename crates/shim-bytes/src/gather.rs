//! Joining a message's pieces without copying them.
//!
//! A receiver gets a message in pieces (packets, segments, fragments) and
//! hands its consumer one buffer. When the pieces are consecutive slices
//! of one allocation, as a sender's message is when the stack cuts it
//! into packets and passes each along by reference, that buffer is a view
//! of the allocation and no byte moves. [`Gather`] builds it: the view
//! grows while each piece starts where the view ends, in the same
//! allocation. At the first piece that does not, the bytes so far are
//! copied once into a pooled buffer of the message's final size, and
//! every later piece is appended there. Either way the result is exactly
//! the concatenation of the pieces.
//!
//! "The same allocation" means the same reference-counted buffer and
//! adjacent indices into it, never adjacent addresses: two separate
//! allocations can lie next to each other in memory.
//!
//! Like the [`pool`](crate::pool), this is an extension beyond the real
//! `bytes` crate's API.

use crate::{Bytes, BytesMut};
use std::rc::Rc;

/// The pieces of one message, joined into one [`Bytes`] that shares
/// their allocation while each piece continues the last one in it.
///
/// ```
/// use bytes::{Bytes, Gather};
///
/// let message = Bytes::from(vec![1, 2, 3, 4, 5]);
/// let mut joined = Gather::new(message.len());
/// joined.push(message.slice(..2));
/// joined.push(message.slice(2..));
/// assert!(joined.is_complete());
/// let whole = joined.finish();
/// assert_eq!(whole, message);
/// assert_eq!(whole.as_ptr(), message.as_ptr(), "a view, not a copy");
///
/// let mut joined = Gather::new(4);
/// joined.push(message.slice(3..));
/// joined.push(message.slice(..2)); // out of order: copied once
/// assert_eq!(&joined.finish()[..], &[4, 5, 1, 2]);
/// ```
#[derive(Debug)]
pub struct Gather {
    /// The message's final length: the size of the one buffer a copy
    /// takes from the pool.
    total: usize,
    joined: Joined,
}

/// The pieces so far.
#[derive(Debug)]
enum Joined {
    /// Each piece continued the last one: a view of their allocation.
    View(Bytes),
    /// Some piece did not: everything so far, copied once.
    Copy(BytesMut),
}

impl Gather {
    /// An empty join of a message `total` bytes long.
    pub fn new(total: usize) -> Gather {
        Gather {
            total,
            joined: Joined::View(Bytes::new()),
        }
    }

    /// Append `piece`: extend the view if `piece` starts where it ends in
    /// the same allocation, copy otherwise.
    pub fn push(&mut self, piece: Bytes) {
        match &mut self.joined {
            Joined::Copy(copy) => copy.extend_from_slice(&piece),
            Joined::View(_) if piece.is_empty() => {}
            Joined::View(view) if view.is_empty() => *view = piece,
            Joined::View(view) if continues(view, &piece) => view.end = piece.end,
            Joined::View(view) => {
                let mut copy = BytesMut::with_capacity(self.total);
                copy.extend_from_slice(view);
                copy.extend_from_slice(&piece);
                self.joined = Joined::Copy(copy);
            }
        }
        debug_assert!(self.len() <= self.total, "joined past the message's end");
    }

    /// Bytes joined so far.
    pub fn len(&self) -> usize {
        match &self.joined {
            Joined::View(view) => view.len(),
            Joined::Copy(copy) => copy.len(),
        }
    }

    /// Whether nothing has been joined yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the whole message (`total` bytes) has been joined.
    pub fn is_complete(&self) -> bool {
        self.len() >= self.total
    }

    /// The joined message: a view of the pieces' allocation, or the copy.
    pub fn finish(self) -> Bytes {
        match self.joined {
            Joined::View(view) => view,
            Joined::Copy(copy) => copy.freeze(),
        }
    }
}

/// Whether `next` starts where `view` ends, in the same allocation.
fn continues(view: &Bytes, next: &Bytes) -> bool {
    match (&view.data, &next.data) {
        (Some(a), Some(b)) => Rc::ptr_eq(a, b) && view.end == next.start,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;

    fn message(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
    }

    /// Whether `a` and `b` share one allocation.
    fn shares(a: &Bytes, b: &Bytes) -> bool {
        matches!((&a.data, &b.data), (Some(x), Some(y)) if Rc::ptr_eq(x, y))
    }

    fn join(total: usize, pieces: &[Bytes]) -> Bytes {
        let mut g = Gather::new(total);
        for p in pieces {
            g.push(p.clone());
        }
        assert_eq!(g.len(), total);
        assert!(g.is_complete());
        g.finish()
    }

    #[test]
    fn in_order_slices_are_a_view() {
        let m = message(3000);
        let pieces = [m.slice(..1000), m.slice(1000..1000), m.slice(1000..2999)];
        let out = join(2999, &pieces);
        assert_eq!(out, m.slice(..2999));
        assert!(shares(&out, &m));
        assert_eq!(out.as_ptr(), m.as_ptr());
    }

    #[test]
    fn a_gap_or_a_reorder_copies_the_concatenation() {
        let m = message(3000);
        let gap = join(2000, &[m.slice(..1000), m.slice(1001..2001)]);
        assert_eq!(&gap[..], &[&m[..1000], &m[1001..2001]].concat()[..]);
        assert!(!shares(&gap, &m));
        let back = join(3000, &[m.slice(1000..), m.slice(..1000)]);
        assert_eq!(&back[..], &[&m[1000..], &m[..1000]].concat()[..]);
        assert!(!shares(&back, &m));
    }

    #[test]
    fn two_allocations_are_copied_once_into_one_pooled_buffer() {
        pool::reset();
        let (a, b, c) = (message(700), message(300), message(24));
        let before = pool::stats();
        let out = join(1024, &[a.clone(), b.clone(), c.clone()]);
        let after = pool::stats();
        assert_eq!(&out[..], &[&a[..], &b[..], &c[..]].concat()[..]);
        assert_eq!(
            (after.recycled + after.misses) - (before.recycled + before.misses),
            1,
            "one pooled buffer for the whole message"
        );
        assert!(!shares(&out, &a) && !shares(&out, &b));
        drop(out);
        pool::reset();
    }

    #[test]
    fn empty_pieces_and_messages() {
        assert!(join(0, &[]).is_empty());
        assert!(join(0, &[Bytes::new(), message(5).slice(2..2)]).is_empty());
        let m = message(10);
        let out = join(10, &[Bytes::new(), m.clone(), m.slice(4..4)]);
        assert!(shares(&out, &m));
        assert_eq!(out, m);
    }
}
