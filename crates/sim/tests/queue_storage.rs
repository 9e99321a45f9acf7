//! The event queue holds only its pending events.
//!
//! A counting global allocator tracks the bytes live on the heap. A new
//! queue holds its slot table, at most 8 bytes a slot, and nothing else.
//! A far-future item then keeps the queue non-empty, so each burst takes
//! a wheel slot (an insert into an empty queue skips the wheel). Each
//! round inserts a burst three slots ahead of the last pop, dense enough
//! for the counting sort, and pops it, so the rounds walk a third of the
//! way around the wheel and no slot is used twice. The queue's storage
//! then follows the number of items pending, not the number of slots
//! visited: after a warm-up, the live heap must not grow.
//!
//! The counter is process-wide and cargo runs a binary's tests on
//! parallel threads, so this file holds exactly one `#[test]`.

use clic_sim::queue::{CalendarQueue, SLOTS, SLOT_WIDTH_NS};
use clic_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes allocated through [`Counting`] and not yet freed. A statistic
/// that publishes no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes it holds.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter never
// touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded as is; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bursts, each into its own slot.
const ROUNDS: u64 = 512;
/// Rounds before the live heap is read.
const WARM_UP: u64 = 8;
/// Items per burst: above the 64 at which a slot is counting-sorted.
const BURST: u64 = 100;

#[test]
fn the_queue_holds_only_its_pending_events() {
    assert!(ROUNDS * 3 < SLOTS as u64, "the rounds revisit a slot");
    let empty = LIVE.load(Ordering::Relaxed);
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    let table = LIVE.load(Ordering::Relaxed) - empty;
    assert!(table <= 8 * SLOTS, "a new queue holds {table} bytes");
    let far = SimTime::from_ns(u64::MAX / 2);
    q.insert(far, 0, 0);
    let mut seq = 1;
    let mut slot = 0;
    let mut warm = 0;
    for round in 0..ROUNDS {
        if round == WARM_UP {
            warm = LIVE.load(Ordering::Relaxed);
        }
        slot += 3;
        for k in 0..BURST {
            q.insert(SimTime::from_ns(slot * SLOT_WIDTH_NS + k), seq, k);
            seq += 1;
        }
        for k in 0..BURST {
            let popped = q.pop().map(|(t, _, v)| (t.as_ns(), v));
            assert_eq!(popped, Some((slot * SLOT_WIDTH_NS + k, k)));
        }
    }
    assert_eq!(q.len(), 1, "the far-future item is still pending");
    let live = LIVE.load(Ordering::Relaxed);
    assert!(
        live <= warm,
        "the live heap grew by {} bytes over {} rounds of {BURST} pending items",
        live - warm,
        ROUNDS - WARM_UP
    );
}
