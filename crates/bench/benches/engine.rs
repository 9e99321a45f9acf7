//! Microbenchmarks of the DES engine: raw event throughput and the cost of
//! the contended-resource abstractions everything else is built on.

use clic_sim::queue::SLOT_WIDTH_NS;
use clic_sim::{Cpu, CpuClass, Resume, Sim, SimDuration, SimTime};
use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::Cell;
use std::rc::Rc;

/// A handle that resumes itself until its count runs out.
struct Countdown(Cell<u32>);

impl Resume for Countdown {
    fn resume(self: Rc<Self>, sim: &mut Sim) {
        let left = self.0.get();
        if left > 0 {
            self.0.set(left - 1);
            sim.resume_in(SimDuration::from_ns(10), self);
        }
    }
}

/// A handle whose resumption does nothing.
struct Nop;

impl Resume for Nop {
    fn resume(self: Rc<Self>, _: &mut Sim) {}
}

/// A handle that re-arms itself after the same delay, for as long as
/// the run lasts.
struct Rearm(SimDuration);

impl Resume for Rearm {
    fn resume(self: Rc<Self>, sim: &mut Sim) {
        sim.resume_in(self.0, self);
    }
}

/// Schedule-and-drain of a long chain of bare events on the
/// allocation-free arm (`resume_in`), the one the CPU and PCI bus
/// complete their work on.
fn bench_event_chain(c: &mut Criterion) {
    c.bench_function("engine_event_chain_100k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            Rc::new(Countdown(Cell::new(100_000))).resume(&mut sim);
            sim.run();
            sim.events_executed()
        })
    });
}

/// The same chain through boxed closures: isolates the cost of the
/// per-event allocation the resume arm avoids.
fn bench_event_chain_boxed(c: &mut Criterion) {
    c.bench_function("engine_event_chain_100k_boxed", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            fn tick(sim: &mut Sim, left: u32) {
                if left > 0 {
                    sim.schedule_in(SimDuration::from_ns(10), move |s| tick(s, left - 1));
                }
            }
            tick(&mut sim, 100_000);
            sim.run();
            sim.events_executed()
        })
    });
}

/// Fan-out of many simultaneous events (queue stress) on the
/// allocation-free arm: one shared handle, queued 100k times.
fn bench_event_fanout(c: &mut Criterion) {
    c.bench_function("engine_fanout_100k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            let nop: Rc<dyn Resume> = Rc::new(Nop);
            for i in 0..100_000u64 {
                sim.resume_in(SimDuration::from_ns(i % 1000), nop.clone());
            }
            sim.run();
            sim.events_executed()
        })
    });
}

/// The same fan-out through boxed closures.
fn bench_event_fanout_boxed(c: &mut Criterion) {
    c.bench_function("engine_fanout_100k_boxed", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            for i in 0..100_000u64 {
                sim.schedule_in(SimDuration::from_ns(i % 1000), |_| {});
            }
            sim.run();
            sim.events_executed()
        })
    });
}

/// 2,000 events pending at once, re-arming in bursts for 60 ms of
/// simulated time: 20 groups of 100 handles, each group on its own
/// delay from 0.3 to 6.3 ms (three wheel spans), so wheel slots are
/// reused rotation after rotation and the longer delays pass through
/// the overflow heap. A group's burst spans 300 ns and its delay is a
/// whole number of slots, so each burst fills one slot, dense enough
/// for the counting sort. The fabric workloads keep this many events
/// pending; the chains keep one and the fan-outs drain one batch.
fn bench_rotating_bursts(c: &mut Criterion) {
    c.bench_function("engine_rotating_bursts", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            for g in 0..20u64 {
                let delay = SimDuration::from_ns(SLOT_WIDTH_NS * 619 * (g + 1));
                for k in 0..100u64 {
                    let start = SimDuration::from_ns(SLOT_WIDTH_NS * 2 * g + k * 3);
                    sim.resume_in(start, Rc::new(Rearm(delay)));
                }
            }
            sim.run_until(SimTime::from_us(60_000));
            sim.events_executed()
        })
    });
}

/// CPU resource with mixed-priority work.
fn bench_cpu_resource(c: &mut Criterion) {
    c.bench_function("cpu_resource_50k_items", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            let cpu = Cpu::new("cpu");
            for i in 0..50_000u32 {
                let class = if i % 4 == 0 {
                    CpuClass::Irq
                } else {
                    CpuClass::Task
                };
                Cpu::run(&cpu, &mut sim, class, SimDuration::from_ns(100), |_| {});
            }
            sim.run();
            let n = cpu.borrow().items_run();
            n
        })
    });
}

/// The resource as the PCI bus uses it (task work only, a FIFO pipe)
/// under a queue of transactions.
fn bench_serial_resource(c: &mut Criterion) {
    c.bench_function("serial_resource_50k_txns", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            let bus = Cpu::new("bus");
            for _ in 0..50_000 {
                Cpu::run(
                    &bus,
                    &mut sim,
                    CpuClass::Task,
                    SimDuration::from_ns(80),
                    |_| {},
                );
            }
            sim.run();
            let n = bus.borrow().items_run();
            n
        })
    });
}

criterion_group! {
    name = engine;
    config = Criterion::default().sample_size(10);
    targets = bench_event_chain, bench_event_chain_boxed, bench_event_fanout,
        bench_event_fanout_boxed, bench_rotating_bursts, bench_cpu_resource,
        bench_serial_resource
}
criterion_main!(engine);
