//! A resource step allocates nothing but its continuation.
//!
//! A counting global allocator tracks allocation calls. The CPU runs
//! work of both classes and the bus (a resource fed task work only, as
//! the PCI bus is) runs transfers, with zero and nonzero durations and
//! with completions that submit more work. Every continuation is
//! zero-sized, and boxing a zero-sized closure does not allocate, so
//! whatever the batch allocates is the resources' own overhead.
//!
//! A warm-up batch first grows every queue the second batch touches: the
//! resources' own, and the event queue's slab to the batch's peak
//! pending count (every wheel slot links its items through that one
//! slab, and a slot takes no storage of its own). Both resources stay
//! busy for longer than the calendar wheel's ~2.1 ms, so the second
//! batch reuses slots a rotation later. That batch, of the same shape,
//! must then allocate exactly nothing.
//!
//! The counter is process-wide and cargo runs a binary's tests on
//! parallel threads, so this file holds exactly one `#[test]`.

use clic_sim::queue::{SLOTS, SLOT_WIDTH_NS};
use clic_sim::{Cpu, CpuClass, Sim, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls made through [`Counting`]. A statistic that
/// publishes no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting the allocations it makes.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter never
// touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as is; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

thread_local! {
    /// The CPU and the bus, reachable from continuations that capture
    /// nothing.
    static CPU: Rc<RefCell<Cpu>> = Cpu::new("cpu");
    static BUS: Rc<RefCell<Cpu>> = Cpu::new("bus");
}

fn cpu() -> Rc<RefCell<Cpu>> {
    CPU.with(Rc::clone)
}

fn bus() -> Rc<RefCell<Cpu>> {
    BUS.with(Rc::clone)
}

/// Rounds per batch. Each round gives the CPU and the bus a 300 ns task
/// item, less than a wheel slot, so their completions visit every slot
/// of a batch's span.
const ITEMS: u64 = 8_000;

/// A completion that submits more work: zero-duration IRQ work on the
/// CPU and a transfer on the bus.
fn submit_more(sim: &mut Sim) {
    Cpu::run(&cpu(), sim, CpuClass::Irq, SimDuration::ZERO, |_| {});
    Cpu::run(
        &bus(),
        sim,
        CpuClass::Task,
        SimDuration::from_ns(250),
        |_| {},
    );
}

/// Submit one batch at the current instant and run it to completion.
fn batch(sim: &mut Sim) {
    let (cpu, bus) = (cpu(), bus());
    for i in 0..ITEMS {
        Cpu::run(&cpu, sim, CpuClass::Task, SimDuration::from_ns(300), |_| {});
        Cpu::run(&bus, sim, CpuClass::Task, SimDuration::from_ns(300), |_| {});
        match i % 4 {
            0 => Cpu::run(
                &cpu,
                sim,
                CpuClass::Irq,
                SimDuration::from_ns(100),
                submit_more,
            ),
            1 => Cpu::run(&cpu, sim, CpuClass::Task, SimDuration::ZERO, |_| {}),
            2 => Cpu::run(
                &bus,
                sim,
                CpuClass::Task,
                SimDuration::from_ns(250),
                submit_more,
            ),
            _ => Cpu::run(&bus, sim, CpuClass::Task, SimDuration::ZERO, |_| {}),
        }
    }
    sim.run();
}

#[test]
fn a_resource_step_allocates_only_its_continuation() {
    let mut sim = Sim::new(0);
    batch(&mut sim);
    let span_ns = sim.now().as_ns();
    assert!(
        span_ns > SLOTS as u64 * SLOT_WIDTH_NS,
        "the warm-up spans {span_ns} ns, less than the wheel"
    );
    let items = cpu().borrow().items_run() + bus().borrow().items_run();

    let before = ALLOCS.load(Ordering::Relaxed);
    batch(&mut sim);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let items = cpu().borrow().items_run() + bus().borrow().items_run() - items;
    // Two items per round, one more per round, and two more from each
    // of the ITEMS / 2 completions that submit more work.
    assert_eq!(items, 4 * ITEMS, "the batch completes every item");
    assert_eq!(
        allocs, 0,
        "{allocs} allocations for {items} resource steps after a warm-up batch"
    );
}
