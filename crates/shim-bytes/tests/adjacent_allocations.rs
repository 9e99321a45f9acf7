//! Two allocations that lie next to each other in memory are still two
//! allocations: [`Gather`] copies them into the concatenation rather than
//! joining them into a view that runs past the end of the first.
//!
//! A global allocator carves every request of one unusual size from a
//! static arena, one after another, so two such vectors allocated in a row
//! are adjacent; every other request goes to the system allocator. The
//! arena is process-wide and cargo runs a binary's tests on parallel
//! threads, so this file holds exactly one `#[test]`.

use bytes::{Bytes, Gather};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The size the arena serves: odd, so nothing but this test asks for it.
const PIECE: usize = 1_237;
/// Arena slots; a slot is never reused.
const SLOTS: usize = 4;

/// Static storage for `SLOTS` pieces and the next free slot.
struct Arena {
    bytes: UnsafeCell<[u8; PIECE * SLOTS]>,
    next: AtomicUsize,
}

// SAFETY: each slot is handed out once (the atomic counter claims it), so
// no two owners ever reach the same bytes.
unsafe impl Sync for Arena {}

static ARENA: Arena = Arena {
    bytes: UnsafeCell::new([0; PIECE * SLOTS]),
    next: AtomicUsize::new(0),
};

/// The system allocator, except for `PIECE`-byte byte buffers, which lie
/// end to end in the arena.
struct Adjacent;

impl Adjacent {
    fn in_arena(ptr: *mut u8) -> bool {
        let base = ARENA.bytes.get().cast::<u8>();
        ptr >= base && ptr < base.wrapping_add(PIECE * SLOTS)
    }
}

// SAFETY: an arena slot is `PIECE` bytes at alignment 1, claimed once and
// never freed, so it satisfies exactly the layouts it serves; every other
// call forwards to `System` unchanged.
unsafe impl GlobalAlloc for Adjacent {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == PIECE && layout.align() == 1 {
            let slot = ARENA.next.fetch_add(1, Ordering::Relaxed);
            if slot < SLOTS {
                return ARENA.bytes.get().cast::<u8>().wrapping_add(slot * PIECE);
            }
        }
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !Adjacent::in_arena(ptr) {
            // SAFETY: `ptr` came from `System` with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }
}

#[global_allocator]
static ALLOC: Adjacent = Adjacent;

#[test]
fn adjacent_allocations_are_copied_not_joined() {
    let (mut first, mut second) = (Vec::with_capacity(PIECE), Vec::with_capacity(PIECE));
    first.resize(PIECE, 1u8);
    second.resize(PIECE, 2u8);
    assert_eq!(
        first.as_ptr().wrapping_add(PIECE),
        second.as_ptr(),
        "the arena lays the two buffers end to end"
    );
    let (first, second) = (Bytes::from(first), Bytes::from(second));
    let mut joined = Gather::new(2 * PIECE);
    joined.push(first.clone());
    joined.push(second.clone());
    let out = joined.finish();
    assert_eq!(out.len(), 2 * PIECE);
    assert_eq!(&out[..PIECE], &first[..]);
    assert_eq!(&out[PIECE..], &second[..]);
}
