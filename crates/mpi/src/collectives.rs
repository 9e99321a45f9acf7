//! Collective operations over the p2p layer.
//!
//! Host-based algorithms are linear — the paper's evaluation is
//! point-to-point, so these exist for the example applications and the
//! cluster-scale workloads. For cluster
//! scale-out the same operations can instead be dispatched to the
//! NIC-resident combining-tree engine via [`CollBackend`]: the host posts
//! one doorbell and the NICs complete the collective in firmware.

use crate::p2p::Mpi;
use bytes::Bytes;
use clic_hw::Nic;
use clic_sim::Sim;
use std::cell::RefCell;
use std::rc::Rc;

/// Tags reserved by the collectives (user code must use tags below this).
pub const RESERVED_TAG_BASE: i32 = 1 << 24;
const TAG_BARRIER_IN: i32 = RESERVED_TAG_BASE;
const TAG_BARRIER_OUT: i32 = RESERVED_TAG_BASE + 1;
const TAG_GATHER: i32 = RESERVED_TAG_BASE + 3;
const TAG_REDUCE_IN: i32 = RESERVED_TAG_BASE + 5;
const TAG_REDUCE_OUT: i32 = RESERVED_TAG_BASE + 6;

/// Linear barrier: everyone reports to rank 0, rank 0 releases everyone.
/// Every rank must call this; `done` fires locally when released.
pub fn barrier(mpi: &Rc<Mpi>, sim: &mut Sim, done: impl FnOnce(&mut Sim) + 'static) {
    let size = mpi.size();
    if size == 1 {
        done(sim);
        return;
    }
    if mpi.rank() == 0 {
        // Gather size-1 notifications, then release.
        fn gather(mpi: Rc<Mpi>, sim: &mut Sim, left: usize, done: Box<dyn FnOnce(&mut Sim)>) {
            if left == 0 {
                let size = mpi.size();
                for r in 1..size {
                    mpi.send(sim, r, TAG_BARRIER_OUT, Bytes::new());
                }
                done(sim);
                return;
            }
            let m2 = mpi.clone();
            mpi.clone().recv(
                sim,
                crate::p2p::ANY_SOURCE,
                TAG_BARRIER_IN,
                move |sim, _| {
                    gather(m2, sim, left - 1, done);
                },
            );
        }
        gather(mpi.clone(), sim, size - 1, Box::new(done));
    } else {
        mpi.send(sim, 0, TAG_BARRIER_IN, Bytes::new());
        mpi.recv(sim, 0, TAG_BARRIER_OUT, move |sim, _| done(sim));
    }
}

/// Linear gather to `root`: every rank contributes `data`; the root's
/// `done` gets the contributions indexed by rank; other ranks' `done` gets
/// an empty vector.
pub fn gather(
    mpi: &Rc<Mpi>,
    sim: &mut Sim,
    root: usize,
    data: Bytes,
    done: impl FnOnce(&mut Sim, Vec<Bytes>) + 'static,
) {
    let size = mpi.size();
    if mpi.rank() == root {
        struct St {
            slots: Vec<Option<Bytes>>,
            missing: usize,
        }
        let st = Rc::new(std::cell::RefCell::new(St {
            slots: vec![None; size],
            missing: size - 1,
        }));
        st.borrow_mut().slots[root] = Some(data);
        if size == 1 {
            let slots = st
                .borrow_mut()
                .slots
                .drain(..)
                .map(Option::unwrap)
                .collect();
            done(sim, slots);
            return;
        }
        let done = Rc::new(std::cell::RefCell::new(Some(
            Box::new(done) as Box<dyn FnOnce(&mut Sim, Vec<Bytes>)>
        )));
        for _ in 1..size {
            let st2 = st.clone();
            let done2 = done.clone();
            mpi.recv(sim, crate::p2p::ANY_SOURCE, TAG_GATHER, move |sim, msg| {
                {
                    let mut s = st2.borrow_mut();
                    assert!(s.slots[msg.src].is_none(), "duplicate gather contribution");
                    s.slots[msg.src] = Some(msg.data);
                    s.missing -= 1;
                }
                if st2.borrow().missing == 0 {
                    let slots = st2
                        .borrow_mut()
                        .slots
                        .drain(..)
                        .map(Option::unwrap)
                        .collect();
                    (done2.borrow_mut().take().unwrap())(sim, slots);
                }
            });
        }
    } else {
        mpi.send(sim, root, TAG_GATHER, data);
        done(sim, Vec::new());
    }
}

/// All-reduce of a u64 by summation: every rank contributes `value` and
/// receives the global sum (gather-to-0 + broadcast, linear).
pub fn allreduce_sum(
    mpi: &Rc<Mpi>,
    sim: &mut Sim,
    value: u64,
    done: impl FnOnce(&mut Sim, u64) + 'static,
) {
    let size = mpi.size();
    if mpi.rank() == 0 {
        let acc = Rc::new(std::cell::RefCell::new((value, size - 1)));
        if size == 1 {
            done(sim, value);
            return;
        }
        let done = Rc::new(std::cell::RefCell::new(Some(
            Box::new(done) as Box<dyn FnOnce(&mut Sim, u64)>
        )));
        for _ in 1..size {
            let acc2 = acc.clone();
            let done2 = done.clone();
            let mpi2 = mpi.clone();
            mpi.recv(
                sim,
                crate::p2p::ANY_SOURCE,
                TAG_REDUCE_IN,
                move |sim, msg| {
                    let v = u64::from_be_bytes(msg.data[..8].try_into().unwrap());
                    let finished = {
                        let mut a = acc2.borrow_mut();
                        a.0 = a.0.wrapping_add(v);
                        a.1 -= 1;
                        a.1 == 0
                    };
                    if finished {
                        let total = acc2.borrow().0;
                        for r in 1..mpi2.size() {
                            mpi2.send(
                                sim,
                                r,
                                TAG_REDUCE_OUT,
                                Bytes::copy_from_slice(&total.to_be_bytes()),
                            );
                        }
                        (done2.borrow_mut().take().unwrap())(sim, total);
                    }
                },
            );
        }
    } else {
        mpi.send(
            sim,
            0,
            TAG_REDUCE_IN,
            Bytes::copy_from_slice(&value.to_be_bytes()),
        );
        mpi.recv(sim, 0, TAG_REDUCE_OUT, move |sim, msg| {
            let total = u64::from_be_bytes(msg.data[..8].try_into().unwrap());
            done(sim, total);
        });
    }
}

/// Where a collective operation runs.
///
/// `Host` is the classic implementation: linear gather/release message
/// patterns over the MPI point-to-point layer, every message crossing the
/// full host stack (syscall, kernel, NIC rings, interrupts). `NicOffload`
/// hands the operation to the NIC's firmware combining tree
/// ([`clic_hw::coll`]): the host posts a single doorbell and is next
/// involved when the NIC reports completion — no per-message interrupts,
/// no RX-ring occupancy, and a release phase that is one Ethernet
/// multicast.
///
/// ```
/// use clic_ethernet::{Link, LinkEnd, MacAddr, Switch};
/// use clic_hw::coll::CollConfig;
/// use clic_hw::{Nic, NicConfig, PciBus};
/// use clic_mpi::collectives::{barrier_on, CollBackend};
/// use clic_sim::Sim;
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(3);
/// let sw = Switch::gigabit_default();
/// let mut nics = Vec::new();
/// for node in 0..4u32 {
///     let link = Link::gigabit();
///     Switch::attach_port(&sw, link.clone(), LinkEnd::A);
///     let nic = Nic::new(
///         MacAddr::for_node(node, 0),
///         NicConfig::gigabit_standard(),
///         PciBus::pci_33mhz_32bit(),
///         link,
///         LinkEnd::B,
///     );
///     Nic::attach_to_link(&nic);
///     nics.push(nic);
/// }
/// let members: Vec<_> = nics.iter().map(|n| n.borrow().mac()).collect();
/// let backends: Vec<CollBackend> = nics
///     .iter()
///     .enumerate()
///     .map(|(rank, nic)| {
///         Nic::enable_collectives(nic, CollConfig::new(2, members.clone(), rank));
///         CollBackend::NicOffload(nic.clone())
///     })
///     .collect();
/// let done = Rc::new(RefCell::new(0u32));
/// for b in &backends {
///     let d = done.clone();
///     barrier_on(b, &mut sim, move |_sim| *d.borrow_mut() += 1);
/// }
/// sim.run();
/// assert_eq!(*done.borrow(), 4);
/// ```
pub enum CollBackend {
    /// Linear host-based algorithms over MPI point-to-point.
    Host(Rc<Mpi>),
    /// NIC-resident combining tree; the NIC must have been armed with
    /// [`Nic::enable_collectives`] for the same group membership on every
    /// rank.
    NicOffload(Rc<RefCell<Nic>>),
}

impl CollBackend {
    /// Short name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            CollBackend::Host(_) => "host",
            CollBackend::NicOffload(_) => "nic",
        }
    }
}

/// [`barrier`] on the chosen backend.
pub fn barrier_on(backend: &CollBackend, sim: &mut Sim, done: impl FnOnce(&mut Sim) + 'static) {
    match backend {
        CollBackend::Host(mpi) => barrier(mpi, sim, done),
        CollBackend::NicOffload(nic) => Nic::coll_barrier(nic, sim, done),
    }
}

/// [`allreduce_sum`] on the chosen backend.
pub fn allreduce_sum_on(
    backend: &CollBackend,
    sim: &mut Sim,
    value: u64,
    done: impl FnOnce(&mut Sim, u64) + 'static,
) {
    match backend {
        CollBackend::Host(mpi) => allreduce_sum(mpi, sim, value, done),
        CollBackend::NicOffload(nic) => Nic::coll_allreduce(nic, sim, value, done),
    }
}
