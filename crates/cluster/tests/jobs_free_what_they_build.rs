//! Every job frees what it builds.
//!
//! A counting global allocator tracks the live heap. Each job runs twice:
//! the first run absorbs one-time statics (thread-locals, lazily built
//! tables), and the second must end with exactly as many live bytes as
//! it started with. A job that retains bytes leaks its cluster (an `Rc`
//! cycle between components), and a process that runs many jobs grows
//! without bound.
//!
//! The counter is process-wide and cargo runs a binary's tests on
//! parallel threads, so this file holds exactly one `#[test]`.

use clic_cluster::experiments::{paper_sizes, quick_sizes, FigureKind, FAMILIES};
use clic_cluster::jobs::JobSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Bytes currently allocated through [`Counting`]. A statistic that
/// publishes no other data, so `Relaxed` suffices.
static LIVE: AtomicI64 = AtomicI64::new(0);

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
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `job`, then drop the packet-buffer pool (it keeps buffers until
/// the next job starts), and return the live-heap change.
fn run_and_count(job: &JobSpec) -> i64 {
    let before = LIVE.load(Ordering::Relaxed);
    drop(job.run());
    bytes::pool::reset();
    LIVE.load(Ordering::Relaxed) - before
}

#[test]
fn no_job_retains_a_byte() {
    let quick = quick_sizes();
    let mut jobs: Vec<JobSpec> = FAMILIES
        .iter()
        .map(|family| (family.jobs)(&quick).swap_remove(0))
        .collect();
    jobs.extend(
        FigureKind::Scale
            .jobs(&paper_sizes())
            .into_iter()
            .filter(|j| j.id.starts_with("scale/fat-tree/n256/")),
    );
    assert_eq!(jobs.len(), FAMILIES.len() + 2, "both n256 fat-tree jobs");
    // The loaded Ablation G jobs open their bulk stream while the
    // foreground cycles run, through callbacks left in TCP listeners.
    jobs.extend(
        FigureKind::Load
            .jobs(&quick)
            .into_iter()
            .filter(|j| j.id.ends_with("/loaded")),
    );

    let leaks: Vec<String> = jobs
        .iter()
        .filter_map(|job| {
            run_and_count(job);
            let retained = run_and_count(job);
            (retained != 0).then(|| format!("{}: {retained} bytes retained", job.id))
        })
        .collect();
    assert!(
        leaks.is_empty(),
        "jobs retained heap after a warm-up run:\n{}",
        leaks.join("\n")
    );
}
