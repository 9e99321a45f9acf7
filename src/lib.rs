//! # clic — a simulation-based reproduction of the CLIC lightweight
//! cluster protocol on Gigabit Ethernet (IPPS 2003)
//!
//! CLIC (Díaz, Ortega, Cañas, Fernández, Anguita, Prieto — University of
//! Granada) is a reliable, kernel-resident transport that replaces TCP/IP
//! for intra-cluster communication over Gigabit Ethernet *without modifying
//! NIC drivers*. The original artifact is a Linux 2.4 kernel module driven
//! by real hardware; this workspace reproduces the system and its entire
//! evaluation on a deterministic discrete-event simulation of that
//! hardware and kernel (see `DESIGN.md` for the substitution argument and
//! `EXPERIMENTS.md` for paper-vs-measured results).
//!
//! This crate is the facade: it re-exports the workspace crates and hosts
//! the runnable examples and cross-crate integration tests.
//!
//! ## Quickstart
//!
//! Build the paper's two-node testbed and exchange a message over CLIC:
//!
//! ```
//! use clic::cluster::{Cluster, ClusterConfig};
//! use clic::core_proto::ClicPort;
//! use clic::sim::Sim;
//! use bytes::Bytes;
//! use std::{cell::RefCell, rc::Rc};
//!
//! let cluster = Cluster::build(&ClusterConfig::paper_pair());
//! let mut sim = Sim::new(0);
//!
//! // Bind a port on each node (channel 7).
//! let tx_pid = cluster.nodes[0].kernel.borrow_mut().processes.spawn();
//! let rx_pid = cluster.nodes[1].kernel.borrow_mut().processes.spawn();
//! let tx = ClicPort::bind(&cluster.nodes[0].clic(), tx_pid, 7);
//! let rx = ClicPort::bind(&cluster.nodes[1].clic(), rx_pid, 7);
//!
//! // Post a blocking receive, send, run the virtual world.
//! let got = Rc::new(RefCell::new(None));
//! let g = got.clone();
//! rx.recv(&mut sim, move |sim, msg| {
//!     *g.borrow_mut() = Some((sim.now(), msg.data));
//! });
//! tx.send(&mut sim, cluster.nodes[1].mac, 7, Bytes::from_static(b"hello, cluster"));
//! sim.run();
//!
//! let (arrived, data) = got.borrow_mut().take().unwrap();
//! assert_eq!(&data[..], b"hello, cluster");
//! // One-way trip on the simulated testbed: some tens of microseconds.
//! assert!(arrived.as_us_f64() < 100.0);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `clic-sim` | discrete-event engine, virtual time, resources |
//! | [`ethernet`] | `clic-ethernet` | frames, links, switch, bonding |
//! | [`hw`] | `clic-hw` | PCI bus, copy model, GbE NIC |
//! | [`os`] | `clic-os` | kernel, syscalls, interrupts, driver, SK_BUFF |
//! | [`tcpip`] | `clic-tcpip` | TCP baseline stack, the kernel's IPv4 handler |
//! | [`core_proto`] | `clic-core` | **the CLIC protocol** |
//! | [`gamma`] | `clic-gamma` | GAMMA-like comparison baseline |
//! | [`mpi`] | `clic-mpi` | MPI-like and PVM-like layers |
//! | [`cluster`] | `clic-cluster` | node/cluster builders, workloads, experiments |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use clic_cluster as cluster;
pub use clic_core as core_proto;
pub use clic_ethernet as ethernet;
pub use clic_gamma as gamma;
pub use clic_hw as hw;
pub use clic_mpi as mpi;
pub use clic_os as os;
pub use clic_sim as sim;
pub use clic_tcpip as tcpip;

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use clic_cluster::{
        ping_pong, stream, Cluster, ClusterConfig, CostModel, Node, NodeConfig, StackKind, Topology,
    };
    pub use clic_core::{ClicConfig, ClicModule, ClicPort, RecvMsg};
    pub use clic_ethernet::{LossModel, MacAddr};
    pub use clic_hw::NicConfig;
    pub use clic_sim::{Sim, SimDuration, SimTime};
}
