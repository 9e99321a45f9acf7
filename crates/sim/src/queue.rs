//! The engine's priority queue: a hierarchical calendar queue tuned to
//! ns-scale event distributions.
//!
//! [`CalendarQueue`] orders items by a total key `(time, seq)` — `seq` is
//! the engine's monotonically increasing schedule counter, so same-time
//! items pop in FIFO schedule order, which is the determinism contract of
//! [`crate::Sim`]. The structure replaces a `BinaryHeap` with tiers
//! chosen so the common scheduling patterns of this simulator hit O(1)
//! paths:
//!
//! * **wheel** — a ring of [`SLOTS`] unsorted buckets covering the next
//!   `SLOTS × SLOT_WIDTH_NS` of virtual time (≈ 2 ms). Inserts are an
//!   O(1) push; a 1-bit-per-slot occupancy bitmap finds the next
//!   non-empty bucket by word scans instead of walking empty buckets.
//! * **bucket view** — when the cursor reaches a bucket, the bucket is
//!   sorted *in place* and popped through a cursor, so bulk items are
//!   moved exactly twice (insert push, pop take). Dense buckets skip
//!   comparison sorting entirely: appends arrive in ascending `seq`
//!   order, so a stable two-pass counting sort on the in-slot time
//!   offset (9 bits) yields the full `(time, seq)` order as an index
//!   permutation without touching the items.
//! * **active slot** — a sorted overlay deque for items that must enter
//!   the already-open slot: schedules landing at or before the cursor
//!   (same-instant follow-ups, post-horizon resume inserts). Pops are
//!   `pop_front`; inserts compare against the back (`push_back` for
//!   in-order keys, the common case) and binary-search otherwise. A live
//!   bucket view is materialised into this deque before such an insert,
//!   preserving order.
//! * **overflow** — a min-heap for items beyond the wheel horizon
//!   (coarse timers: RTOs, keepalives, chaos schedules). Items migrate
//!   into their bucket when the cursor reaches it, so each pays O(log n)
//!   once regardless of how often the wheel turns.
//!
//! # Ordering invariants
//!
//! 1. Every active-deque item sorts `<=` every viewed-bucket item, every
//!    viewed item sorts `<` every other wheel item, and overflow items
//!    sort after the wheel window — maintained by routing inserts on
//!    their slot (`time >> SLOT_SHIFT`) relative to the cursor and by
//!    materialising the view before an in-slot insert.
//! 2. Keys are unique (`seq` never repeats), so pop order is a strict
//!    total order, unstable sorts are safe, and bucket appends are
//!    always in ascending `seq` order (the counting sort's stability
//!    precondition).
//! 3. Inserts must not precede the last popped key (the engine asserts
//!    `time >= now`). Inserting into an already-passed region of the
//!    current slot is still legal — such items sort to the front of the
//!    active deque — which is exactly what resuming after a
//!    [`crate::Sim::run_until`] horizon stop produces.
//!
//! The queue is generic over the payload so the engine can store its
//! action representation while property tests drive the same structure
//! with plain markers against a reference `BinaryHeap` model.

use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// log2 of the slot width: each wheel slot covers `2^SLOT_SHIFT` ns.
pub const SLOT_SHIFT: u32 = 9;
/// Width of one wheel slot in nanoseconds.
pub const SLOT_WIDTH_NS: u64 = 1 << SLOT_SHIFT;
/// Number of wheel slots (power of two). The wheel spans
/// `SLOTS * SLOT_WIDTH_NS` ns ≈ 2.1 ms of virtual time ahead of the
/// cursor; anything farther goes to the overflow heap.
pub const SLOTS: usize = 4096;

const SLOT_MASK: u64 = SLOTS as u64 - 1;
const WORDS: usize = SLOTS / 64;
/// Buckets larger than this are sorted with the counting permutation;
/// smaller ones with a comparison sort (the 2-pass count over
/// `SLOT_WIDTH_NS` offsets only amortises on dense buckets).
const COUNTING_SORT_MIN: usize = 64;

struct Item<T> {
    time: SimTime,
    seq: u64,
    value: T,
}

impl<T> Item<T> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
    #[inline]
    fn sort_key(&self) -> u128 {
        ((self.time.as_ns() as u128) << 64) | self.seq as u128
    }
}

/// Overflow entries order the surrounding `BinaryHeap` as a min-heap on
/// `(time, seq)` (comparison inverted; the payload does not participate).
struct OverflowItem<T>(Item<T>);

impl<T> PartialEq for OverflowItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for OverflowItem<T> {}
impl<T> PartialOrd for OverflowItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowItem<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

/// A calendar queue over `(time, seq)`-keyed items. See the module docs
/// for the tier structure and invariants.
pub struct CalendarQueue<T> {
    /// Ring of unsorted future buckets; index = `slot & SLOT_MASK`.
    /// Entries are `Some` until taken by a view pop.
    wheel: Vec<Vec<Option<Item<T>>>>,
    /// One bit per wheel bucket: set while the bucket holds future items
    /// (cleared when the cursor opens the bucket).
    occupied: [u64; WORDS],
    /// Absolute slot index (`time >> SLOT_SHIFT`) the cursor points at.
    cur_slot: u64,
    /// Whether the cursor has opened a slot yet. False only before the
    /// first pop; until then slot-`cur_slot` inserts stay in the wheel so
    /// a pre-run fan-out is O(1) per insert.
    active_valid: bool,
    /// Sorted (ascending key) overlay for items entering the open slot.
    active: VecDeque<Item<T>>,
    /// Min-heap of items beyond the wheel horizon.
    overflow: BinaryHeap<OverflowItem<T>>,
    /// Sorted index permutation of the viewed bucket; empty = identity
    /// (the bucket was sorted in place).
    perm: Vec<u32>,
    /// Wheel index of the bucket a live view drains.
    view_idx: usize,
    /// Next view position to pop.
    view_head: usize,
    /// Number of items the live view covers.
    view_len: usize,
    /// Whether a bucket view is live (implies the active deque was empty
    /// when it was opened; in-slot inserts materialise it first).
    view_live: bool,
    /// Whether anything was ever popped. Gates the empty-queue insert
    /// fast path: before the first pop a fan-out into an empty queue
    /// must spread across wheel buckets, not the sorted deque.
    popped: bool,
    /// Total pending items.
    len: usize,
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the cursor at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            wheel: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            cur_slot: 0,
            active_valid: false,
            active: VecDeque::new(),
            overflow: BinaryHeap::new(),
            perm: Vec::new(),
            view_idx: 0,
            view_head: 0,
            view_len: 0,
            view_live: false,
            popped: false,
            len: 0,
        }
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an item. `seq` must be unique across the queue's lifetime
    /// and `(time, seq)` must not precede the last popped key (the engine
    /// guarantees both).
    #[inline]
    pub fn insert(&mut self, time: SimTime, seq: u64, value: T) {
        let item = Item { time, seq, value };
        self.len += 1;
        let slot = time.as_ns() >> SLOT_SHIFT;
        if self.len == 1 && self.popped {
            // Insert into an empty, running queue (the event-chain
            // pattern: each event schedules its successor and nothing
            // else is pending). Jump the cursor to the item's slot — the
            // tiers are all empty, and the insert contract bounds `time`
            // below by the last popped key, so the cursor only moves
            // forward. The item becomes the sole active entry and the
            // next pop takes it without a wheel advance.
            self.cur_slot = slot;
            self.active_valid = true;
            self.active.push_back(item);
            return;
        }
        if self.active_valid && slot <= self.cur_slot {
            // Entering the open (or, after a horizon stop, an
            // already-passed) slot: keep the sorted overlay authoritative
            // — fold a live bucket view into it first.
            if self.view_live {
                self.materialize_view();
            }
            // New items usually carry the largest key in the slot, so
            // compare against the back first and binary-search only on
            // the rare out-of-order insert.
            let key = item.key();
            match self.active.back() {
                Some(back) if key < back.key() => {
                    let idx = self.active.partition_point(|it| it.key() < key);
                    self.active.insert(idx, item);
                }
                _ => self.active.push_back(item),
            }
        } else if slot < self.cur_slot + SLOTS as u64 {
            let i = (slot & SLOT_MASK) as usize;
            self.wheel[i].push(Some(item));
            self.occupied[i / 64] |= 1 << (i % 64);
        } else {
            self.overflow.push(OverflowItem(item));
        }
    }

    /// Key of the earliest pending item, or `None` when empty. May
    /// advance the cursor to the next populated slot (which does not
    /// affect pop order).
    // lint:allow(dead-fn, reason="crates/sim/tests/props.rs reads it")
    pub fn next_key(&mut self) -> Option<(SimTime, u64)> {
        loop {
            if let Some(front) = self.active.front() {
                return Some(front.key());
            }
            if self.view_live {
                let i = self.view_index(self.view_head);
                return self.wheel[self.view_idx][i].as_ref().map(Item::key);
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Remove and return the earliest item, or `None` when empty.
    /// Amortised O(1) per item over a queue's lifetime.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        loop {
            if let Some(it) = self.active.pop_front() {
                self.len -= 1;
                self.popped = true;
                return Some((it.time, it.seq, it.value));
            }
            if self.view_live {
                let i = self.view_index(self.view_head);
                let it = self.wheel[self.view_idx][i].take();
                self.view_head += 1;
                if self.view_head == self.view_len {
                    self.wheel[self.view_idx].clear();
                    self.view_live = false;
                }
                self.len -= 1;
                self.popped = true;
                return it.map(|it| (it.time, it.seq, it.value));
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Bucket position of view entry `k` (identity when `perm` is empty:
    /// the bucket was sorted in place).
    #[inline]
    fn view_index(&self, k: usize) -> usize {
        if self.perm.is_empty() {
            k
        } else {
            self.perm[k] as usize
        }
    }

    /// Fold the remaining items of a live view into the active deque, in
    /// order. Called before an insert targets the open slot, so the
    /// sorted overlay stays authoritative.
    fn materialize_view(&mut self) {
        for k in self.view_head..self.view_len {
            let i = self.view_index(k);
            if let Some(it) = self.wheel[self.view_idx][i].take() {
                self.active.push_back(it);
            }
        }
        self.wheel[self.view_idx].clear();
        self.view_live = false;
    }

    /// Move the cursor to the next populated slot and open it as a
    /// sorted view (migrating due overflow items into it first).
    /// Requires pending items and no open view or active items.
    fn advance(&mut self) {
        // Find the next populated slot among the wheel (bitmap scan) and
        // the overflow heap, whichever is earlier.
        let scan_from = if self.active_valid {
            self.cur_slot + 1
        } else {
            self.cur_slot
        };
        let wheel_slot = self.next_occupied_slot(scan_from);
        let over_slot = self.overflow.peek().map(|o| o.0.time.as_ns() >> SLOT_SHIFT);
        let target = match (wheel_slot, over_slot) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => return,
        };
        self.cur_slot = target;
        self.active_valid = true;
        let idx = (target & SLOT_MASK) as usize;
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        // Append overflow items that landed in this slot; the bucket is
        // then sorted as a whole, so their position does not matter.
        let mut migrated = false;
        while let Some(top) = self.overflow.peek() {
            if top.0.time.as_ns() >> SLOT_SHIFT > target {
                break;
            }
            if let Some(OverflowItem(it)) = self.overflow.pop() {
                self.wheel[idx].push(Some(it));
                migrated = true;
            }
        }
        let n = self.wheel[idx].len();
        self.perm.clear();
        if !migrated && n > COUNTING_SORT_MIN {
            // Dense bucket: build a sorted index permutation with a
            // stable two-pass counting sort on the in-slot time offset.
            // Appends happened in ascending `seq` order, so stability
            // restores the full (time, seq) order without moving or
            // comparing items.
            const W: usize = SLOT_WIDTH_NS as usize;
            let mut counts = [0u32; W];
            let bucket = &self.wheel[idx];
            for it in bucket.iter().flatten() {
                counts[(it.time.as_ns() as usize) & (W - 1)] += 1;
            }
            let mut sum = 0u32;
            for c in counts.iter_mut() {
                let v = *c;
                *c = sum;
                sum += v;
            }
            self.perm.resize(n, 0);
            for (i, slot) in bucket.iter().enumerate() {
                if let Some(it) = slot {
                    let o = (it.time.as_ns() as usize) & (W - 1);
                    self.perm[counts[o] as usize] = i as u32;
                    counts[o] += 1;
                }
            }
        } else {
            // Sparse (or overflow-mixed) bucket: comparison-sort in place
            // and drain by identity. Keys are unique, so an unstable sort
            // yields the total order; `None` never occurs pre-drain.
            self.wheel[idx].sort_unstable_by_key(|slot| slot.as_ref().map(Item::sort_key));
        }
        self.view_idx = idx;
        self.view_head = 0;
        self.view_len = n;
        self.view_live = n > 0;
    }

    /// First wheel slot `>= from` whose bucket is non-empty, as an
    /// absolute slot index; `None` when the whole wheel is empty.
    fn next_occupied_slot(&self, from: u64) -> Option<u64> {
        let start = (from & SLOT_MASK) as usize;
        let (sw, sb) = (start / 64, (start % 64) as u32);
        for k in 0..=WORDS {
            let wi = (sw + k) % WORDS;
            let mut w = self.occupied[wi];
            if k == 0 {
                w &= !0u64 << sb;
            }
            if k == WORDS {
                if sb == 0 {
                    break;
                }
                w &= (1u64 << sb) - 1;
            }
            if w != 0 {
                let idx = wi * 64 + w.trailing_zeros() as usize;
                let delta = (idx + SLOTS - start) % SLOTS;
                return Some(from + delta as u64);
            }
        }
        None
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for CalendarQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("cur_slot", &self.cur_slot)
            .field("active", &self.active.len())
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, v)) = q.pop() {
            out.push((t.as_ns(), s, v));
        }
        out
    }

    #[test]
    fn pops_in_key_order_across_tiers() {
        let mut q = CalendarQueue::new();
        // One per tier: current slot, wheel, overflow.
        q.insert(SimTime::from_ns(5), 0, 1);
        q.insert(SimTime::from_ns(SLOT_WIDTH_NS * 7), 1, 2);
        q.insert(SimTime::from_ns(SLOT_WIDTH_NS * SLOTS as u64 * 3), 2, 3);
        q.insert(SimTime::from_ns(6), 3, 4);
        assert_eq!(q.len(), 4);
        assert_eq!(
            drain(&mut q),
            vec![
                (5, 0, 1),
                (6, 3, 4),
                (SLOT_WIDTH_NS * 7, 1, 2),
                (SLOT_WIDTH_NS * SLOTS as u64 * 3, 2, 3),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_pops_in_seq_order() {
        let mut q = CalendarQueue::new();
        for seq in 0..100u64 {
            q.insert(SimTime::from_ns(42), seq, seq as u32);
        }
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, s, _)| s).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn dense_bucket_counting_sort_is_stable() {
        // Enough same-slot items to trigger the counting-sort view, with
        // colliding times: equal times must pop in seq order.
        let mut q = CalendarQueue::new();
        let n = 4 * COUNTING_SORT_MIN as u64;
        for seq in 0..n {
            let t = (seq * 7) % SLOT_WIDTH_NS;
            q.insert(SimTime::from_ns(t), seq, seq as u32);
        }
        let popped = drain(&mut q);
        let mut expect: Vec<(u64, u64)> = (0..n).map(|s| ((s * 7) % SLOT_WIDTH_NS, s)).collect();
        expect.sort();
        let got: Vec<(u64, u64)> = popped.into_iter().map(|(t, s, _)| (t, s)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn insert_during_dense_drain_materializes_in_order() {
        // An insert targeting the open slot while a dense bucket view is
        // live must fold the view into the sorted overlay and land in
        // its key position.
        let mut q = CalendarQueue::new();
        let n = 4 * COUNTING_SORT_MIN as u64;
        for seq in 0..n {
            q.insert(SimTime::from_ns(2 * (seq % 100)), seq, seq as u32);
        }
        // Open the view and drain a few items.
        for _ in 0..10 {
            assert!(q.pop().is_some());
        }
        // Same-slot insert mid-drain (time after the drained prefix).
        q.insert(SimTime::from_ns(9), n, 999);
        let got: Vec<(u64, u64)> = drain(&mut q).into_iter().map(|(t, s, _)| (t, s)).collect();
        let mut expect: Vec<(u64, u64)> = (0..n).map(|s| (2 * (s % 100), s)).collect();
        expect.sort();
        let mut expect: Vec<(u64, u64)> = expect.split_off(10);
        expect.push((9, n));
        expect.sort();
        assert_eq!(got, expect);
        assert!(q.is_empty());
    }

    #[test]
    fn insert_behind_cursor_after_advance_stays_ordered() {
        let mut q = CalendarQueue::new();
        // Popping the slot-0 item advances the cursor to the far
        // bucket…
        q.insert(SimTime::from_ns(3), 0, 1);
        q.insert(SimTime::from_ns(SLOT_WIDTH_NS * 100), 1, 2);
        q.insert(SimTime::from_ns(SLOT_WIDTH_NS * 100 + 1), 2, 3);
        assert_eq!(q.pop().map(|(t, ..)| t.as_ns()), Some(3));
        assert_eq!(
            q.next_key(),
            Some((SimTime::from_ns(SLOT_WIDTH_NS * 100), 1))
        );
        // …but an insert into the skipped region (legal after a horizon
        // stop) must still pop first.
        q.insert(SimTime::from_ns(SLOT_WIDTH_NS * 50), 3, 4);
        assert_eq!(
            drain(&mut q),
            vec![
                (SLOT_WIDTH_NS * 50, 3, 4),
                (SLOT_WIDTH_NS * 100, 1, 2),
                (SLOT_WIDTH_NS * 100 + 1, 2, 3),
            ]
        );
    }

    #[test]
    fn overflow_migrates_in_order() {
        let mut q = CalendarQueue::new();
        let far = SLOT_WIDTH_NS * SLOTS as u64;
        // Far-future items in reverse order, plus a near item.
        q.insert(SimTime::from_ns(far * 5), 0, 0);
        q.insert(SimTime::from_ns(far * 2), 1, 1);
        q.insert(SimTime::from_ns(far * 2 + 1), 2, 2);
        q.insert(SimTime::from_ns(1), 3, 3);
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(t, _, _)| t).collect();
        assert_eq!(order, vec![1, far * 2, far * 2 + 1, far * 5]);
    }

    #[test]
    fn interleaved_insert_and_pop() {
        let mut q = CalendarQueue::new();
        q.insert(SimTime::from_ns(10), 0, 0);
        assert_eq!(q.pop().map(|(t, ..)| t.as_ns()), Some(10));
        // Schedule from "inside" the popped event: same slot, later slot,
        // far future.
        q.insert(SimTime::from_ns(10), 1, 1);
        q.insert(SimTime::from_ns(10 + SLOT_WIDTH_NS * 2), 2, 2);
        q.insert(
            SimTime::from_ns(10 + SLOT_WIDTH_NS * SLOTS as u64 * 2),
            3,
            3,
        );
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, s, _)| s).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_key(), None);
        assert!(q.pop().is_none());
    }
}
