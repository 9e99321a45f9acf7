//! Framing a message does not copy it.
//!
//! MPI's envelope, PVM's header, the MPI-over-TCP length prefix and the
//! NIC's fragment shims each go in front of a message as a header part:
//! no layer copies the message to frame it, the receiver gets the body as
//! a view of the sender's buffer, and the NIC cuts its fragments as slices
//! of the data. A job that streams 1 MiB messages over one of these paths
//! then holds about one message at a time (the sender's buffer, shared to
//! the receiver), not one copy per framing layer.
//!
//! A counting global allocator tracks the live heap and its peak. Each
//! job's peak live heap above its starting level must stay within 1.5
//! message sizes plus a fixed slack for the cluster and the simulator.
//! Copying the message at any framing layer adds a whole message size.
//!
//! The counter is process-wide and cargo runs a binary's tests on
//! parallel threads, so this file holds exactly one `#[test]`.

use clic_cluster::experiments::{quick_sizes, FigureKind};
use clic_cluster::jobs::JobSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Bytes currently allocated through [`Counting`]. A statistic that
/// publishes no other data, so `Relaxed` suffices.
static LIVE: AtomicI64 = AtomicI64::new(0);

/// The highest [`LIVE`] reached since the last reset.
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Count `delta` live bytes, raising the peak when they grow.
fn count(delta: i64) {
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// The system allocator, counting the bytes it hands out.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter only reads
// sizes and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The message size every job streams.
const MESSAGE: usize = 1 << 20;

/// Heap a job may hold beyond its messages: the two-node cluster, the
/// simulator's queues and the packet-buffer pool's free lists.
const SLACK: i64 = 256 << 10;

/// Run `job` and return its peak live heap above the level it started
/// at, the packet-buffer pool emptied before and after.
fn peak_of(job: &JobSpec) -> i64 {
    bytes::pool::reset();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    drop(job.run());
    bytes::pool::reset();
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
fn framed_messages_are_held_once() {
    let size = format!("size={MESSAGE}");
    let jobs: Vec<JobSpec> = [
        (FigureKind::Fig6, "MPI-CLIC"),
        (FigureKind::Fig6, "MPI-TCP"),
        (FigureKind::Fig6, "PVM-TCP"),
        (FigureKind::Fragmentation, "frag offload"),
    ]
    .into_iter()
    .map(|(figure, curve)| {
        figure
            .jobs(&quick_sizes())
            .into_iter()
            .find(|j| j.id.contains(curve) && j.id.ends_with(&size))
            .unwrap_or_else(|| panic!("no {curve} job at {size}"))
    })
    .collect();
    // A warm-up run absorbs one-time statics (thread-locals, lazily built
    // tables) before anything is measured.
    peak_of(&jobs[0]);
    let bound = MESSAGE as i64 * 3 / 2 + SLACK;
    let report: Vec<(String, i64)> = jobs.iter().map(|j| (j.id.clone(), peak_of(j))).collect();
    let over: Vec<String> = report
        .iter()
        .filter(|(_, peak)| *peak > bound)
        .map(|(id, peak)| format!("{id}: peak {peak} bytes > {bound}"))
        .collect();
    assert!(
        over.is_empty(),
        "a framing layer holds a copy of the message:\n{}\n(all: {report:?})",
        over.join("\n")
    );
}
