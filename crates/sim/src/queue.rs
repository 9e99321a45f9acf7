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
//! * **wheel** — a ring of [`SLOTS`] slots covering the next
//!   `SLOTS × SLOT_WIDTH_NS` of virtual time (≈ 2 ms). A slot is an
//!   intrusive list, in insertion order, through one slab of entries
//!   that every slot shares; a free list recycles the entries that pops
//!   release. Inserts are O(1) (take a free entry, link it at the
//!   slot's tail); a 1-bit-per-slot occupancy bitmap finds the next
//!   non-empty slot by word scans instead of walking empty ones. The
//!   slab grows only when no entry is free, so the wheel's storage is
//!   bounded by the most items that ever waited in slots at once, not
//!   by the sum of every slot's busiest visit, and a queue allocates
//!   its slot table once.
//! * **slot view** — when the cursor reaches a slot, its list is walked
//!   into a reused buffer of slab indices, which is sorted and popped
//!   through a cursor; items stay in the slab until popped. Dense slots
//!   skip comparison sorting: lists are appended in ascending `seq`
//!   order, so a stable two-pass counting sort on the in-slot time
//!   offset (9 bits) yields the full `(time, seq)` order without
//!   comparing items.
//! * **active slot** — a sorted overlay deque for items that must enter
//!   the already-open slot: schedules landing at or before the cursor
//!   (same-instant follow-ups, post-horizon resume inserts). Pops are
//!   `pop_front`; inserts compare against the back (`push_back` for
//!   in-order keys, the common case) and binary-search otherwise. A live
//!   slot view is materialised into this deque before such an insert,
//!   preserving order.
//! * **overflow** — a min-heap for items beyond the wheel horizon
//!   (coarse timers: RTOs, keepalives, chaos schedules). Items migrate
//!   into their slot's list when the cursor reaches it, so each pays
//!   O(log n) once regardless of how often the wheel turns.
//!
//! # Ordering invariants
//!
//! 1. Every active-deque item sorts `<=` every viewed item, every viewed
//!    item sorts `<` every other wheel item, and overflow items sort
//!    after the wheel window — maintained by routing inserts on their
//!    slot (`time >> SLOT_SHIFT`) relative to the cursor and by
//!    materialising the view before an in-slot insert.
//! 2. Keys are unique (`seq` never repeats), so pop order is a strict
//!    total order, unstable sorts are safe, and slot lists are always
//!    appended in ascending `seq` order (the counting sort's stability
//!    precondition; a slot that overflow items migrated into is
//!    comparison-sorted instead).
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
/// Slots with more items than this are sorted with the counting
/// permutation; smaller ones with a comparison sort (the 2-pass count
/// over `SLOT_WIDTH_NS` offsets only amortises on dense slots).
const COUNTING_SORT_MIN: usize = 64;
/// The slab index that ends a list (a slot's or the free list).
const NIL: u32 = u32::MAX;

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

/// A slab entry: an item waiting in a wheel slot (`None` once taken)
/// and the next entry of its slot's list, or of the free list.
struct Entry<T> {
    item: Option<Item<T>>,
    next: u32,
}

/// A wheel slot: the first and last slab entry of its list. The list is
/// empty while `tail` is `NIL`; `head` is then stale, and the next
/// append writes it.
#[derive(Clone, Copy)]
struct SlotList {
    head: u32,
    tail: u32,
}

/// A calendar queue over `(time, seq)`-keyed items. See the module docs
/// for the tier structure and invariants.
pub struct CalendarQueue<T> {
    /// Entries of every slot's list; `u32` indices (`NIL` excluded), so
    /// at most `u32::MAX` items wait in slots at once.
    slab: Vec<Entry<T>>,
    /// First entry of the free list (`NIL` when every entry is in use).
    free: u32,
    /// Ring of slot lists; index = `slot & SLOT_MASK`.
    slots: Box<[SlotList]>,
    /// One bit per wheel slot: set while its list holds future items
    /// (cleared when the cursor opens the slot).
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
    /// Slab indices of the open slot's items in `(time, seq)` order.
    view: Vec<u32>,
    /// The counting sort's output, swapped with `view` after each sort
    /// so both keep their capacity.
    sorted: Vec<u32>,
    /// Next view position to pop; the view is live while this is below
    /// `view.len()` (implies the active deque was empty when the slot
    /// opened; in-slot inserts materialise the view first).
    view_head: usize,
    /// Whether anything was ever popped. Gates the empty-queue insert
    /// fast path: before the first pop a fan-out into an empty queue
    /// must spread across wheel slots, not the sorted deque.
    popped: bool,
    /// Total pending items.
    len: usize,
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the cursor at time zero. Allocates the slot
    /// table and nothing else.
    pub fn new() -> Self {
        CalendarQueue {
            slab: Vec::new(),
            free: NIL,
            slots: vec![
                SlotList {
                    head: NIL,
                    tail: NIL
                };
                SLOTS
            ]
            .into_boxed_slice(),
            occupied: [0; WORDS],
            cur_slot: 0,
            active_valid: false,
            active: VecDeque::new(),
            overflow: BinaryHeap::new(),
            view: Vec::new(),
            sorted: Vec::new(),
            view_head: 0,
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
            // — fold a live slot view into it first.
            if self.view_head < self.view.len() {
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
            self.append(i, item);
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
            if let Some(&e) = self.view.get(self.view_head) {
                return self.slab[e as usize].item.as_ref().map(Item::key);
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
            if let Some(&e) = self.view.get(self.view_head) {
                self.view_head += 1;
                self.len -= 1;
                self.popped = true;
                return self.take(e).map(|it| (it.time, it.seq, it.value));
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Link `item` at the tail of wheel slot `i`'s list, in a free slab
    /// entry if there is one.
    #[inline]
    fn append(&mut self, i: usize, item: Item<T>) {
        let e = match self.free {
            NIL => {
                assert!(self.slab.len() < NIL as usize, "slab index space exhausted");
                self.slab.push(Entry {
                    item: Some(item),
                    next: NIL,
                });
                (self.slab.len() - 1) as u32
            }
            e => {
                let entry = &mut self.slab[e as usize];
                self.free = entry.next;
                entry.item = Some(item);
                entry.next = NIL;
                e
            }
        };
        let list = &mut self.slots[i];
        match list.tail {
            NIL => list.head = e,
            tail => self.slab[tail as usize].next = e,
        }
        list.tail = e;
    }

    /// Take the item out of slab entry `e` and put the entry on the free
    /// list.
    #[inline]
    fn take(&mut self, e: u32) -> Option<Item<T>> {
        let entry = &mut self.slab[e as usize];
        entry.next = self.free;
        self.free = e;
        entry.item.take()
    }

    /// Fold the remaining items of a live view into the active deque, in
    /// order. Called before an insert targets the open slot, so the
    /// sorted overlay stays authoritative.
    fn materialize_view(&mut self) {
        for k in self.view_head..self.view.len() {
            if let Some(it) = self.take(self.view[k]) {
                self.active.push_back(it);
            }
        }
        self.view.clear();
        self.view_head = 0;
    }

    /// Move the cursor to the next populated slot and open it as a
    /// sorted view (migrating due overflow items into it first).
    /// Requires pending items and no live view or active items.
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
            (None, None) => {
                debug_assert_eq!(self.len, 0, "pending items in no tier");
                return;
            }
        };
        self.cur_slot = target;
        self.active_valid = true;
        let idx = (target & SLOT_MASK) as usize;
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        // Append overflow items that landed in this slot; the view is
        // then sorted as a whole, so their position does not matter.
        let mut migrated = false;
        while let Some(top) = self.overflow.peek() {
            if top.0.time.as_ns() >> SLOT_SHIFT > target {
                break;
            }
            if let Some(OverflowItem(it)) = self.overflow.pop() {
                self.append(idx, it);
                migrated = true;
            }
        }
        // Detach the slot's list and walk it into the view, in
        // insertion order.
        let mut e = self.slots[idx].head;
        self.slots[idx].tail = NIL;
        self.view.clear();
        self.view_head = 0;
        while e != NIL {
            debug_assert!(
                self.view.len() < self.len,
                "a slot list longer than the queue"
            );
            self.view.push(e);
            e = self.slab[e as usize].next;
        }
        let n = self.view.len();
        if !migrated && n > COUNTING_SORT_MIN {
            // Dense slot: a stable two-pass counting sort on the in-slot
            // time offset. The list was appended in ascending `seq`
            // order, so stability restores the full (time, seq) order
            // without comparing items.
            const W: usize = SLOT_WIDTH_NS as usize;
            let slab = &self.slab;
            let offset = |e: u32| {
                slab[e as usize]
                    .item
                    .as_ref()
                    .map_or(0, |it| it.time.as_ns() as usize & (W - 1))
            };
            let mut counts = [0u32; W];
            for &e in &self.view {
                counts[offset(e)] += 1;
            }
            let mut sum = 0u32;
            for c in counts.iter_mut() {
                let v = *c;
                *c = sum;
                sum += v;
            }
            self.sorted.clear();
            self.sorted.resize(n, 0);
            for &e in &self.view {
                let o = offset(e);
                self.sorted[counts[o] as usize] = e;
                counts[o] += 1;
            }
            std::mem::swap(&mut self.view, &mut self.sorted);
        } else if n > 1 {
            // Sparse (or overflow-mixed) slot: comparison sort. Keys are
            // unique, so an unstable sort yields the total order.
            let slab = &self.slab;
            self.view
                .sort_unstable_by_key(|&e| slab[e as usize].item.as_ref().map(Item::sort_key));
        }
    }

    /// First wheel slot `>= from` whose list is non-empty, as an
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
            .field("slab", &self.slab.len())
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
    fn slab_holds_only_pending_items() {
        // Bursts into slots all around the wheel over many rotations, a
        // far-future item keeping the queue non-empty: the slab never
        // holds more entries than items were pending in slots at once.
        let mut q = CalendarQueue::new();
        q.insert(SimTime::from_ns(u64::MAX / 2), 0, 0);
        let mut seq = 1u64;
        let (mut now, mut peak) = (0u64, 0usize);
        for round in 0..64u64 {
            let base = now + SLOT_WIDTH_NS * (1 + round * 97 % SLOTS as u64);
            let n = 1 + round * 13 % 150;
            for k in 0..n {
                q.insert(SimTime::from_ns(base + k % 7), seq, 0);
                seq += 1;
            }
            peak = peak.max(n as usize);
            while q.len() > 1 {
                now = q.pop().map(|(t, ..)| t.as_ns()).unwrap();
            }
        }
        assert!(now > 20 * SLOT_WIDTH_NS * SLOTS as u64, "{now} ns");
        assert_eq!(q.slab.len(), peak);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_key(), None);
        assert!(q.pop().is_none());
    }
}
