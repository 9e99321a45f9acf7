//! Thread-local recycling buffer pool.
//!
//! Every packet the simulator moves lives in a heap buffer: the sender
//! builds it in a [`BytesMut`](crate::BytesMut), freezes it, and the frame
//! travels the stack as a [`Bytes`](crate::Bytes) until the last clone is
//! dropped. Without recycling that is one `malloc`/`free` pair per packet
//! — the dominant allocator traffic of a full-grid run. This module keeps
//! dropped buffers on size-classed free lists and hands them back to the
//! next [`BytesMut::with_capacity`](crate::BytesMut::with_capacity) or
//! [`Bytes::copy_from_slice`](crate::Bytes::copy_from_slice) call, so
//! steady-state packet flow allocates nothing.
//!
//! # Lifecycle
//!
//! 1. [`acquire`] rounds the requested capacity up to a power-of-two size
//!    class (64 B … 64 KiB) and pops that class's free list; on a miss it
//!    allocates a fresh `Vec` of the full class size so the buffer stays
//!    reusable for every future request of the class.
//! 2. The buffer circulates inside `Bytes` clones/slices as an
//!    `Rc<Vec<u8>>`; no bytes are copied after freeze.
//! 3. When the last reference drops, [`reclaim`] pushes the vector back
//!    onto its class list (capped at [`MAX_PER_CLASS`] buffers per class;
//!    beyond that, or for odd-sized foreign vectors, the buffer falls
//!    through to the allocator).
//!
//! # Determinism
//!
//! The pool only recycles host memory — which `Vec` backs a packet can
//! never reach simulated behaviour, timestamps or output. The free lists
//! are thread-local, so parallel grid jobs never contend or share state.
//! [`reset`] clears the lists and zeroes the [`Stats`] counters; the
//! experiment layer calls it at the start of every run so per-run
//! `sim.pool.*` metrics are a pure function of the run's configuration,
//! not of which runs happened to precede it on the same worker thread.
//!
//! Requests above the largest class are served straight from the
//! allocator and are not reclaimed; they count as
//! [`Stats::oversize`] rather than misses.

use std::cell::RefCell;

/// Smallest recycled capacity (one cache line's worth of header bytes).
const MIN_CLASS: usize = 64;
/// Largest recycled capacity — covers a jumbo frame (9000 B) with room
/// for reassembled multi-fragment messages.
const MAX_CLASS: usize = 64 * 1024;
/// Free-list cap per class: bounds worst-case pool memory at
/// `sum(class_size * MAX_PER_CLASS)` ≈ 8 MiB per thread.
const MAX_PER_CLASS: usize = 64;
/// Number of size classes: powers of two in `[MIN_CLASS, MAX_CLASS]`.
const CLASSES: usize = (MAX_CLASS.ilog2() - MIN_CLASS.ilog2() + 1) as usize;

/// Pool counters, cumulative since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Acquisitions served by a recycled buffer (no allocation).
    pub recycled: u64,
    /// Acquisitions that had to allocate because the class list was empty.
    pub misses: u64,
    /// Buffers returned to a free list on drop.
    pub returned: u64,
    /// Buffers dropped to the allocator because their class list was full
    /// or their capacity fit no class.
    pub discarded: u64,
    /// Requests above the largest class, served unpooled.
    pub oversize: u64,
}

struct Pool {
    classes: [Vec<Vec<u8>>; CLASSES],
    stats: Stats,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool {
        classes: [const { Vec::new() }; CLASSES],
        stats: Stats::default(),
    });
}

/// Index of the class whose size is exactly `cap`, if any.
fn class_of(cap: usize) -> Option<usize> {
    if !(MIN_CLASS..=MAX_CLASS).contains(&cap) || !cap.is_power_of_two() {
        return None;
    }
    Some((cap.ilog2() - MIN_CLASS.ilog2()) as usize)
}

/// A vector with at least `cap` bytes of capacity, recycled when the
/// pool has one of the right class.
pub(crate) fn acquire(cap: usize) -> Vec<u8> {
    let class_size = cap.next_power_of_two().max(MIN_CLASS);
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let Some(class) = class_of(class_size) else {
            p.stats.oversize += 1;
            return Vec::with_capacity(cap);
        };
        match p.classes[class].pop() {
            Some(v) => {
                p.stats.recycled += 1;
                v
            }
            None => {
                p.stats.misses += 1;
                // Allocate the full class size so the buffer serves any
                // future request of the class when it comes back.
                Vec::with_capacity(class_size)
            }
        }
    })
}

/// Offer a no-longer-referenced vector back to its class list.
pub(crate) fn reclaim(v: Vec<u8>) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        match class_of(v.capacity()) {
            Some(class) if p.classes[class].len() < MAX_PER_CLASS => {
                let mut v = v;
                v.clear();
                p.classes[class].push(v);
                p.stats.returned += 1;
            }
            _ => p.stats.discarded += 1,
        }
    })
}

/// This thread's pool counters since the last [`reset`].
pub fn stats() -> Stats {
    POOL.with(|p| p.borrow().stats)
}

/// Drop every pooled buffer on this thread and zero the counters.
///
/// Run this before a measured simulation so its `sim.pool.*` metrics (and
/// its allocator behaviour) do not depend on what ran earlier on the
/// thread.
pub fn reset() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        for c in &mut p.classes {
            c.clear();
        }
        p.stats = Stats::default();
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_recycles() {
        reset();
        let v = acquire(1000); // -> 1024 class, miss
        assert_eq!(v.capacity(), 1024);
        reclaim(v);
        let v2 = acquire(600); // same class, hit
        assert_eq!(v2.capacity(), 1024);
        let s = stats();
        assert_eq!((s.misses, s.returned, s.recycled), (1, 1, 1));
        reset();
    }

    #[test]
    fn small_and_oversize_requests_bypass_classes() {
        reset();
        let tiny = acquire(1); // rounds up to MIN_CLASS
        assert_eq!(tiny.capacity(), MIN_CLASS);
        let big = acquire(MAX_CLASS + 1);
        assert!(big.capacity() > MAX_CLASS);
        assert_eq!(stats().oversize, 1);
        reclaim(big); // no class fits: discarded
        assert_eq!(stats().discarded, 1);
        reset();
    }

    #[test]
    fn class_lists_are_bounded() {
        reset();
        for _ in 0..(MAX_PER_CLASS + 5) {
            reclaim(Vec::with_capacity(MIN_CLASS));
        }
        let s = stats();
        assert_eq!(s.returned, MAX_PER_CLASS as u64);
        assert_eq!(s.discarded, 5);
        reset();
    }

    #[test]
    fn foreign_capacities_are_not_pooled() {
        reset();
        reclaim(Vec::with_capacity(100)); // not a power of two
        assert_eq!(stats().discarded, 1);
        reset();
    }
}
