//! The contended serial resource.
//!
//! [`Cpu`] serves every processor and bus in the model: a single server
//! with one item in flight, non-preemptive within an item. Work items
//! carry a priority class: interrupt work ([`CpuClass::Irq`]) always jumps
//! ahead of task work ([`CpuClass::Task`]). This is the "IRQs beat
//! everything, at µs granularity" approximation documented in DESIGN.md
//! §5. A node's processor uses both classes; the PCI bus (`clic-hw`) is a
//! `Cpu` whose work is all task class, a plain FIFO pipe whose caller
//! computes each transaction's service time. Memory copies have no
//! resource of their own: they are charged to the CPU (`clic-hw::membus`).
//!
//! The resource keeps its in-flight item in its own state and schedules
//! its completion as a resumed handle ([`Sim::resume_in`]), so a step
//! allocates nothing beyond the caller's boxed continuation.
//!
//! Busy-time accounting lets experiments report CPU utilisation, which
//! the paper repeatedly leans on ("90 % of peak at 15–20 % CPU on Fast
//! Ethernet would need ~100 % on GbE").

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::engine::{Resume, Sim};
use crate::time::SimDuration;

/// Priority class of CPU work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuClass {
    /// Hardware interrupt / driver top half: jumps the queue.
    Irq,
    /// Everything else: syscalls, protocol processing, bottom halves, copies.
    Task,
}

struct CpuWork {
    class: CpuClass,
    duration: SimDuration,
    done: Box<dyn FnOnce(&mut Sim)>,
}

/// A single server draining two FIFO queues (IRQ before task),
/// non-preemptive within a work item.
pub struct Cpu {
    name: &'static str,
    busy: bool,
    /// The item in service, until its completion resumes the resource.
    current: Option<CpuWork>,
    irq_q: VecDeque<CpuWork>,
    task_q: VecDeque<CpuWork>,
    busy_irq: SimDuration,
    busy_task: SimDuration,
    items_run: u64,
    max_queue: usize,
}

impl Cpu {
    /// Create an idle resource; `name` appears in panics.
    pub fn new(name: &'static str) -> Rc<RefCell<Cpu>> {
        Rc::new(RefCell::new(Cpu {
            name,
            busy: false,
            current: None,
            irq_q: VecDeque::new(),
            task_q: VecDeque::new(),
            busy_irq: SimDuration::ZERO,
            busy_task: SimDuration::ZERO,
            items_run: 0,
            max_queue: 0,
        }))
    }

    /// Submit `duration` worth of work; `done` runs when the CPU has spent
    /// that time on it. Zero-duration work is legal and completes after any
    /// work already in front of it.
    pub fn run(
        cpu: &Rc<RefCell<Cpu>>,
        sim: &mut Sim,
        class: CpuClass,
        duration: SimDuration,
        done: impl FnOnce(&mut Sim) + 'static,
    ) {
        {
            let mut c = cpu.borrow_mut();
            let work = CpuWork {
                class,
                duration,
                done: Box::new(done),
            };
            match class {
                CpuClass::Irq => c.irq_q.push_back(work),
                CpuClass::Task => c.task_q.push_back(work),
            }
            let depth = c.irq_q.len() + c.task_q.len();
            c.max_queue = c.max_queue.max(depth);
            if c.busy {
                return;
            }
        }
        Self::start_next(cpu, sim);
    }

    fn start_next(cpu: &Rc<RefCell<Cpu>>, sim: &mut Sim) {
        let duration = {
            let mut c = cpu.borrow_mut();
            debug_assert!(!c.busy, "start_next on busy resource {}", c.name);
            let Some(work) = c.irq_q.pop_front().or_else(|| c.task_q.pop_front()) else {
                return;
            };
            c.busy = true;
            let duration = work.duration;
            c.current = Some(work);
            duration
        };
        sim.resume_in(duration, cpu.clone());
    }

    /// Accumulated busy time for a class.
    #[cfg(test)]
    pub fn busy_time(&self, class: CpuClass) -> SimDuration {
        match class {
            CpuClass::Irq => self.busy_irq,
            CpuClass::Task => self.busy_task,
        }
    }

    /// Total accumulated busy time.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_irq + self.busy_task
    }

    /// Busy fraction over an observation window.
    pub fn utilization(&self, window: SimDuration) -> f64 {
        if window == SimDuration::ZERO {
            return 0.0;
        }
        self.busy_total().as_secs_f64() / window.as_secs_f64()
    }

    /// Number of completed work items.
    pub fn items_run(&self) -> u64 {
        self.items_run
    }

    /// High-water mark of the combined queues.
    #[cfg(test)]
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue
    }
}

/// The in-flight item's completion.
impl Resume for RefCell<Cpu> {
    fn resume(self: Rc<Self>, sim: &mut Sim) {
        let done = {
            let mut c = self.borrow_mut();
            let Some(work) = c.current.take() else {
                // lint:allow(no-unwrap, reason="a completion is scheduled only when an item goes in flight; resuming an idle resource is a scheduling bug worth halting on")
                panic!("{} resumed with no item in flight", c.name);
            };
            match work.class {
                CpuClass::Irq => c.busy_irq += work.duration,
                CpuClass::Task => c.busy_task += work.duration,
            }
            c.items_run += 1;
            work.done
        };
        // The completion may submit more work; the resource still reads
        // as busy so it lands on the queue rather than double-starting.
        done(sim);
        self.borrow_mut().busy = false;
        Cpu::start_next(&self, sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn cpu_serializes_work() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new("cpu");
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let log = log.clone();
            Cpu::run(
                &cpu,
                &mut sim,
                CpuClass::Task,
                SimDuration::from_us(10),
                move |s| log.borrow_mut().push((i, s.now())),
            );
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                (0, SimTime::from_us(10)),
                (1, SimTime::from_us(20)),
                (2, SimTime::from_us(30)),
            ]
        );
        assert_eq!(
            cpu.borrow().busy_time(CpuClass::Task),
            SimDuration::from_us(30)
        );
        assert_eq!(cpu.borrow().items_run(), 3);
    }

    #[test]
    fn irq_jumps_task_queue() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new("cpu");
        let log = Rc::new(RefCell::new(Vec::new()));
        // One long task starts immediately; a second task and then an IRQ
        // queue behind it. The IRQ must run before the queued task.
        for (name, class) in [("t1", CpuClass::Task), ("t2", CpuClass::Task)] {
            let log = log.clone();
            Cpu::run(&cpu, &mut sim, class, SimDuration::from_us(10), move |_| {
                log.borrow_mut().push(name)
            });
        }
        let l = log.clone();
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Irq,
            SimDuration::from_us(1),
            move |_| l.borrow_mut().push("irq"),
        );
        sim.run();
        assert_eq!(*log.borrow(), vec!["t1", "irq", "t2"]);
    }

    #[test]
    fn in_flight_item_not_preempted() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new("cpu");
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Task,
            SimDuration::from_us(50),
            move |s| l.borrow_mut().push(("task", s.now())),
        );
        // IRQ arrives mid-task; it completes only after the task finishes.
        let cpu2 = cpu.clone();
        let l = log.clone();
        sim.schedule_at(SimTime::from_us(5), move |s| {
            Cpu::run(&cpu2, s, CpuClass::Irq, SimDuration::from_us(1), move |s| {
                l.borrow_mut().push(("irq", s.now()))
            });
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                ("task", SimTime::from_us(50)),
                ("irq", SimTime::from_us(51)),
            ]
        );
    }

    #[test]
    fn completion_resubmitting_does_not_double_start() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new("cpu");
        let log = Rc::new(RefCell::new(Vec::new()));
        let cpu2 = cpu.clone();
        let l = log.clone();
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Task,
            SimDuration::from_us(5),
            move |s| {
                l.borrow_mut().push(("a", s.now()));
                let l2 = l.clone();
                Cpu::run(
                    &cpu2,
                    s,
                    CpuClass::Task,
                    SimDuration::from_us(5),
                    move |s| {
                        l2.borrow_mut().push(("b", s.now()));
                    },
                );
            },
        );
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![("a", SimTime::from_us(5)), ("b", SimTime::from_us(10))]
        );
    }

    #[test]
    fn zero_duration_work_completes() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new("cpu");
        let done = Rc::new(RefCell::new(false));
        let d = done.clone();
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Task,
            SimDuration::ZERO,
            move |_| *d.borrow_mut() = true,
        );
        sim.run();
        assert!(*done.borrow());
    }

    #[test]
    fn cpu_utilization_accounting() {
        let mut sim = Sim::new(0);
        let cpu = Cpu::new("cpu");
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Task,
            SimDuration::from_us(25),
            |_| {},
        );
        Cpu::run(
            &cpu,
            &mut sim,
            CpuClass::Irq,
            SimDuration::from_us(25),
            |_| {},
        );
        sim.run();
        let c = cpu.borrow();
        assert_eq!(c.busy_total(), SimDuration::from_us(50));
        let u = c.utilization(SimDuration::from_us(100));
        assert!((u - 0.5).abs() < 1e-9, "u={u}");
        assert_eq!(c.utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn serial_resource_fifo() {
        // One class of work makes the resource a plain FIFO pipe (a bus).
        let mut sim = Sim::new(0);
        let bus = Cpu::new("pci");
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u32 {
            let log = log.clone();
            Cpu::run(
                &bus,
                &mut sim,
                CpuClass::Task,
                SimDuration::from_us(3),
                move |s| log.borrow_mut().push((i, s.now())),
            );
        }
        sim.run();
        let got = log.borrow().clone();
        assert_eq!(got.len(), 4);
        for (i, (id, t)) in got.iter().enumerate() {
            assert_eq!(*id as usize, i);
            assert_eq!(*t, SimTime::from_us(3 * (i as u64 + 1)));
        }
        assert_eq!(bus.borrow().items_run(), 4);
        assert_eq!(bus.borrow().busy_total(), SimDuration::from_us(12));
        assert!(bus.borrow().max_queue_depth() >= 3);
    }

    #[test]
    fn serial_resource_interleaved_arrivals() {
        let mut sim = Sim::new(0);
        let bus = Cpu::new("bus");
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        Cpu::run(
            &bus,
            &mut sim,
            CpuClass::Task,
            SimDuration::from_us(10),
            move |s| l.borrow_mut().push(("a", s.now())),
        );
        // Arrives at t=4 while "a" is in service; serviced at 10..12.
        let bus2 = bus.clone();
        let l = log.clone();
        sim.schedule_at(SimTime::from_us(4), move |s| {
            Cpu::run(
                &bus2,
                s,
                CpuClass::Task,
                SimDuration::from_us(2),
                move |s| l.borrow_mut().push(("b", s.now())),
            );
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![("a", SimTime::from_us(10)), ("b", SimTime::from_us(12))]
        );
    }
}
