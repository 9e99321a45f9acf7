//! A 1-D Jacobi halo exchange — the coarse-grained parallel workload the
//! paper's introduction motivates — run on a switched cluster over
//! MPI-on-CLIC and MPI-on-TCP, comparing per-iteration communication time.
//!
//! Each of the N ranks owns a slab of cells and exchanges one halo row
//! with each neighbour per iteration; the computation itself is assumed
//! overlapped (we measure the message layer, as the paper does).
//!
//! ```text
//! cargo run --example mpi_stencil [ranks] [halo_bytes] [iters]
//! ```

use bytes::Bytes;
use clic::cluster::builder::ClusterConfig;
use clic::cluster::builder::Topology;
use clic::mpi::transport::{ClicTransport, TcpTransport, Transport};
use clic::mpi::Mpi;
use clic::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let mut args = std::env::args().skip(1);
    let ranks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let halo: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8192);
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);

    for backend in [StackKind::MpiClic, StackKind::MpiTcp] {
        let elapsed = run_stencil(backend, ranks, halo, iters);
        println!(
            "{:<9} {ranks} ranks, {halo}-byte halos, {iters} iters: {:.1} us/iter",
            backend.label(),
            elapsed.as_us_f64() / iters as f64
        );
    }
}

fn run_stencil(backend: StackKind, ranks: usize, halo: usize, iters: usize) -> SimDuration {
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.nodes = ranks;
    cfg.topology = Topology::Switched;
    cfg.node = match backend {
        StackKind::MpiClic => NodeConfig::clic_default(&model),
        StackKind::MpiTcp => NodeConfig::tcp_default(&model),
        _ => panic!("stencil runs on MPI backends"),
    };
    let cluster = Cluster::build(&cfg);
    let mut sim = Sim::new(7);

    // Bring up the MPI endpoints.
    let mpis: Vec<Rc<Mpi>> = match backend {
        StackKind::MpiClic => {
            let peers: Vec<MacAddr> = cluster.nodes.iter().map(|n| n.mac).collect();
            cluster
                .nodes
                .iter()
                .enumerate()
                .map(|(rank, node)| {
                    let pid = node.kernel.borrow_mut().processes.spawn();
                    let t = ClicTransport::new(&mut sim, &node.clic(), pid, rank, peers.clone());
                    Mpi::new(&node.kernel, t)
                })
                .collect()
        }
        _ => {
            let ips: Vec<_> = cluster.nodes.iter().map(|n| n.ip).collect();
            let transports: Vec<Rc<TcpTransport>> = cluster
                .nodes
                .iter()
                .enumerate()
                .map(|(rank, node)| TcpTransport::new(&mut sim, &node.tcp(), rank, ips.clone()))
                .collect();
            sim.run();
            assert!(transports.iter().all(|t| t.ready()));
            cluster
                .nodes
                .iter()
                .zip(transports)
                .map(|(node, t)| Mpi::new(&node.kernel, t as Rc<dyn Transport>))
                .collect()
        }
    };

    // Per-rank iteration driver: send halos to both neighbours, receive
    // both, then start the next iteration. Completion times are recorded at
    // the callback (running the simulator dry also waits out stale protocol
    // timers, which would inflate a wall-clock measurement).
    let done: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
    fn iterate(
        mpi: Rc<Mpi>,
        sim: &mut Sim,
        halo: usize,
        left: usize,
        done: Rc<RefCell<Vec<SimTime>>>,
    ) {
        if left == 0 {
            done.borrow_mut().push(sim.now());
            return;
        }
        let rank = mpi.rank();
        let size = mpi.size();
        let left_n = (rank + size - 1) % size;
        let right_n = (rank + 1) % size;
        mpi.send(sim, left_n, 1, Bytes::from(vec![rank as u8; halo]));
        mpi.send(sim, right_n, 2, Bytes::from(vec![rank as u8; halo]));
        // Receive the matching halos (tag 1 comes from our right, 2 from
        // our left).
        let m2 = mpi.clone();
        let d2 = done.clone();
        mpi.recv(sim, right_n as i32, 1, move |sim, _| {
            let m3 = m2.clone();
            let d3 = d2.clone();
            m2.clone().recv(sim, left_n as i32, 2, move |sim, _| {
                iterate(m3, sim, halo, left - 1, d3);
            });
        });
    }
    let start = sim.now();
    for mpi in &mpis {
        iterate(mpi.clone(), &mut sim, halo, iters, done.clone());
    }
    sim.run();
    let done = done.borrow();
    assert_eq!(done.len(), ranks, "all ranks must finish");
    let finish = done.iter().copied().max().unwrap();
    finish.saturating_since(start)
}
