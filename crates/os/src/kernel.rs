//! The per-node kernel.
//!
//! Owns the CPU, the cost model, the installed network devices, the
//! protocol handler table (dispatch by EtherType — CLIC and TCP/IP register
//! side by side, which is how CLIC coexists with the standard stack without
//! driver changes), the bottom-half queue and the process table.
//!
//! The Figure 8b improvement is the [`Kernel::direct_dispatch`] switch:
//! when set, the receive driver calls the protocol handler directly from
//! interrupt context instead of deferring through a bottom half.

use crate::costs::OsCosts;
use crate::process::{Pid, ProcessTable};
use clic_ethernet::Frame;
use clic_hw::Nic;
use clic_sim::{Cpu, CpuClass, Sim, SimDuration};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// A protocol entry point, keyed by EtherType.
pub trait PacketHandler {
    /// Handle a frame that reached system memory on device `dev`. Called
    /// either from a bottom half (default) or directly from the receive
    /// interrupt (`direct_dispatch`); implementations charge their own CPU
    /// time through the kernel.
    fn handle(&self, sim: &mut Sim, kernel: &Rc<RefCell<Kernel>>, dev: usize, frame: Frame);
}

/// Kernel activity counters — the one store of these counts; the
/// experiment layer exports them per node as `n<id>.os.*`.
#[derive(Debug, Default, Clone)]
pub struct KernelStats {
    /// System calls executed.
    pub syscalls: u64,
    /// Lightweight calls executed.
    pub lightweight_calls: u64,
    /// Receive interrupts serviced (top halves).
    pub irqs: u64,
    /// Bottom halves dispatched.
    pub bhs: u64,
    /// Context switches charged for wakeups.
    pub context_switches: u64,
    /// Frames moved from NIC to system memory by the driver.
    pub frames_received: u64,
}

/// The kernel of one simulated node.
pub struct Kernel {
    /// Node identity (for diagnostics).
    pub node_id: u32,
    /// The node's processor.
    pub cpu: Rc<RefCell<Cpu>>,
    /// Cost model for kernel code paths.
    pub costs: OsCosts,
    /// Process bookkeeping.
    pub processes: ProcessTable,
    /// Figure 8b: driver calls the protocol module directly from the IRQ.
    pub direct_dispatch: bool,
    pub(crate) devices: Vec<Rc<RefCell<Nic>>>,
    handlers: BTreeMap<u16, Rc<dyn PacketHandler>>,
    bh_queue: VecDeque<Box<dyn FnOnce(&mut Sim)>>,
    bh_running: bool,
    pub(crate) halted: bool,
    pub(crate) stats: KernelStats,
}

impl Kernel {
    /// Create a kernel with its own CPU.
    pub fn new(node_id: u32, costs: OsCosts) -> Rc<RefCell<Kernel>> {
        Rc::new(RefCell::new(Kernel {
            node_id,
            cpu: Cpu::new("cpu"),
            costs,
            processes: ProcessTable::new(),
            direct_dispatch: false,
            devices: Vec::new(),
            handlers: BTreeMap::new(),
            bh_queue: VecDeque::new(),
            bh_running: false,
            halted: false,
            stats: KernelStats::default(),
        }))
    }

    /// Install a network device; wires the NIC's interrupt line to the
    /// driver's top half. Returns the device index.
    pub fn add_device(kernel: &Rc<RefCell<Kernel>>, nic: Rc<RefCell<Nic>>) -> usize {
        let idx = kernel.borrow().devices.len();
        kernel.borrow_mut().devices.push(nic);
        crate::driver::install_irq(kernel, idx);
        idx
    }

    /// Register the protocol handler for an EtherType.
    pub fn register_handler(&mut self, ethertype: u16, handler: Rc<dyn PacketHandler>) {
        let prev = self.handlers.insert(ethertype, handler);
        assert!(
            prev.is_none(),
            "duplicate handler for ethertype {ethertype:#x}"
        );
    }

    pub(crate) fn handler_for(&self, ethertype: u16) -> Option<Rc<dyn PacketHandler>> {
        self.handlers.get(&ethertype).cloned()
    }

    /// The NIC behind device `dev`.
    pub fn device(&self, dev: usize) -> Rc<RefCell<Nic>> {
        self.devices[dev].clone()
    }

    /// Installed device count.
    // lint:allow(dead-fn, reason="the cluster builder tests in crates/cluster/src/builder.rs read it")
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Activity counters.
    pub fn stats(&self) -> KernelStats {
        self.stats.clone()
    }

    // ------------------------------------------------------------------
    // Node lifecycle (crash-stop / crash-restart)
    // ------------------------------------------------------------------

    /// Crash-stop the node: deferred bottom halves are discarded and every
    /// frame that reaches a device from now on is dropped at the driver —
    /// the machine is off. Protocol modules carry their own crash state
    /// (e.g. `ClicModule::crash`); halting the kernel models the OS side.
    pub fn halt(&mut self) {
        self.halted = true;
        self.bh_queue.clear();
    }

    /// Bring a halted node back. Protocol state does not survive the
    /// crash — modules must be restarted separately.
    pub fn resume(&mut self) {
        self.halted = false;
    }

    /// Whether the node is currently crash-stopped.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    // ------------------------------------------------------------------
    // CPU charging helpers
    // ------------------------------------------------------------------

    /// Charge `duration` of task-class CPU work, then run `f`.
    pub fn cpu_task(
        kernel: &Rc<RefCell<Kernel>>,
        sim: &mut Sim,
        duration: SimDuration,
        f: impl FnOnce(&mut Sim) + 'static,
    ) {
        let cpu = kernel.borrow().cpu.clone();
        Cpu::run(&cpu, sim, CpuClass::Task, duration, f);
    }

    /// Charge `duration` of interrupt-class CPU work, then run `f`.
    pub fn cpu_irq(
        kernel: &Rc<RefCell<Kernel>>,
        sim: &mut Sim,
        duration: SimDuration,
        f: impl FnOnce(&mut Sim) + 'static,
    ) {
        let cpu = kernel.borrow().cpu.clone();
        Cpu::run(&cpu, sim, CpuClass::Irq, duration, f);
    }

    /// Execute `body` under a standard system call (INT 80h): the 0.65 µs
    /// enter/leave cost is charged before the body runs.
    pub fn syscall(
        kernel: &Rc<RefCell<Kernel>>,
        sim: &mut Sim,
        body: impl FnOnce(&mut Sim) + 'static,
    ) {
        let cost = {
            let mut k = kernel.borrow_mut();
            k.stats.syscalls += 1;
            k.costs.syscall
        };
        Self::cpu_task(kernel, sim, cost, body);
    }

    /// Execute `body` under a lightweight call (GAMMA-style: no scheduler
    /// pass on return).
    pub fn lightweight_call(
        kernel: &Rc<RefCell<Kernel>>,
        sim: &mut Sim,
        body: impl FnOnce(&mut Sim) + 'static,
    ) {
        let cost = {
            let mut k = kernel.borrow_mut();
            k.stats.lightweight_calls += 1;
            k.costs.lightweight_call
        };
        Self::cpu_task(kernel, sim, cost, body);
    }

    /// Wake `pid` (if blocked, the context-switch cost is charged), then
    /// run `cont` as the process's next step.
    pub fn wake(
        kernel: &Rc<RefCell<Kernel>>,
        sim: &mut Sim,
        pid: Pid,
        cont: impl FnOnce(&mut Sim) + 'static,
    ) {
        let cost = {
            let mut k = kernel.borrow_mut();
            if k.processes.wake(pid) {
                k.stats.context_switches += 1;
                Some(k.costs.context_switch)
            } else {
                None
            }
        };
        match cost {
            Some(c) => Self::cpu_task(kernel, sim, c, cont),
            None => cont(sim),
        }
    }

    // ------------------------------------------------------------------
    // Bottom halves
    // ------------------------------------------------------------------

    /// Queue `work` as a bottom half. Bottom halves run as task-class CPU
    /// work, in FIFO order, each paying the dispatch cost.
    pub fn schedule_bh(
        kernel: &Rc<RefCell<Kernel>>,
        sim: &mut Sim,
        work: impl FnOnce(&mut Sim) + 'static,
    ) {
        let start = {
            let mut k = kernel.borrow_mut();
            k.bh_queue.push_back(Box::new(work));
            if k.bh_running {
                false
            } else {
                k.bh_running = true;
                true
            }
        };
        if start {
            Self::drain_bh(kernel, sim);
        }
    }

    fn drain_bh(kernel: &Rc<RefCell<Kernel>>, sim: &mut Sim) {
        let (work, cost) = {
            let mut k = kernel.borrow_mut();
            match k.bh_queue.pop_front() {
                Some(w) => {
                    k.stats.bhs += 1;
                    (w, k.costs.bh_dispatch)
                }
                None => {
                    k.bh_running = false;
                    return;
                }
            }
        };
        let kernel2 = kernel.clone();
        Self::cpu_task(kernel, sim, cost, move |sim| {
            work(sim);
            Self::drain_bh(&kernel2, sim);
        });
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("node_id", &self.node_id)
            .field("devices", &self.devices.len())
            .field("handlers", &self.handlers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clic_sim::SimTime;

    #[test]
    fn syscall_charges_cost_then_runs_body() {
        let mut sim = Sim::new(0);
        let kernel = Kernel::new(0, OsCosts::era_2002());
        let at = Rc::new(RefCell::new(SimTime::ZERO));
        let a = at.clone();
        Kernel::syscall(&kernel, &mut sim, move |s| *a.borrow_mut() = s.now());
        sim.run();
        assert_eq!(*at.borrow(), SimTime::from_ns(650));
        assert_eq!(kernel.borrow().stats().syscalls, 1);
    }

    #[test]
    fn lightweight_call_cheaper_than_syscall() {
        let mut sim = Sim::new(0);
        let kernel = Kernel::new(0, OsCosts::era_2002());
        let at = Rc::new(RefCell::new(SimTime::ZERO));
        let a = at.clone();
        Kernel::lightweight_call(&kernel, &mut sim, move |s| *a.borrow_mut() = s.now());
        sim.run();
        assert!(*at.borrow() < SimTime::from_ns(650));
        assert_eq!(kernel.borrow().stats().lightweight_calls, 1);
    }

    #[test]
    fn bottom_halves_run_fifo() {
        let mut sim = Sim::new(0);
        let kernel = Kernel::new(0, OsCosts::era_2002());
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            Kernel::schedule_bh(&kernel, &mut sim, move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
        assert_eq!(kernel.borrow().stats().bhs, 5);
    }

    #[test]
    fn bh_scheduled_from_bh_runs_after() {
        let mut sim = Sim::new(0);
        let kernel = Kernel::new(0, OsCosts::era_2002());
        let log = Rc::new(RefCell::new(Vec::new()));
        let (k2, l2) = (kernel.clone(), log.clone());
        Kernel::schedule_bh(&kernel, &mut sim, move |sim| {
            l2.borrow_mut().push("outer");
            let l3 = l2.clone();
            Kernel::schedule_bh(&k2, sim, move |_| l3.borrow_mut().push("inner"));
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["outer", "inner"]);
    }

    #[test]
    fn wake_charges_context_switch_only_when_blocked() {
        let mut sim = Sim::new(0);
        let kernel = Kernel::new(0, OsCosts::era_2002());
        let pid = kernel.borrow_mut().processes.spawn();
        kernel.borrow_mut().processes.block(pid);
        let at = Rc::new(RefCell::new(None));
        let a = at.clone();
        Kernel::wake(&kernel, &mut sim, pid, move |s| {
            *a.borrow_mut() = Some(s.now());
        });
        sim.run();
        assert_eq!(at.borrow().unwrap(), SimTime::from_ns(4_000));
        assert_eq!(kernel.borrow().stats().context_switches, 1);

        // Waking a running process runs the continuation immediately.
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        Kernel::wake(&kernel, &mut sim, pid, move |_| *h.borrow_mut() = true);
        assert!(*hit.borrow());
        assert_eq!(kernel.borrow().stats().context_switches, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate handler")]
    fn duplicate_ethertype_rejected() {
        struct Nop;
        impl PacketHandler for Nop {
            fn handle(&self, _: &mut Sim, _: &Rc<RefCell<Kernel>>, _: usize, _: Frame) {}
        }
        let kernel = Kernel::new(0, OsCosts::era_2002());
        kernel.borrow_mut().register_handler(0x88B5, Rc::new(Nop));
        kernel.borrow_mut().register_handler(0x88B5, Rc::new(Nop));
    }
}
