//! A small parallel computation using the collectives: every rank holds a
//! chunk of a vector; the cluster computes the global sum of squares via
//! `allreduce_sum`, then rank 0 gathers per-rank partials to verify —
//! compared across the MPI-CLIC and MPI-TCP backends.
//!
//! ```text
//! cargo run --example allreduce [ranks] [chunk_elems]
//! ```

use bytes::Bytes;
use clic::cluster::builder::{ClusterConfig, Topology};
use clic::mpi::transport::{ClicTransport, TcpTransport, Transport};
use clic::mpi::{collectives, Mpi};
use clic::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let mut args = std::env::args().skip(1);
    let ranks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let chunk: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);

    for backend in [StackKind::MpiClic, StackKind::MpiTcp] {
        let (total, elapsed) = run(backend, ranks, chunk);
        let expect: u64 = (0..(ranks * chunk) as u64)
            .map(|x| (x % 100) * (x % 100))
            .sum();
        assert_eq!(total, expect, "distributed sum must match serial sum");
        println!(
            "{:<9} {ranks} ranks x {chunk} elems: sum-of-squares = {total}, \
             allreduce completed in {elapsed}",
            backend.label()
        );
    }
}

fn run(backend: StackKind, ranks: usize, chunk: usize) -> (u64, SimDuration) {
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.nodes = ranks;
    cfg.topology = Topology::Switched;
    cfg.node = match backend {
        StackKind::MpiClic => NodeConfig::clic_default(&model),
        _ => NodeConfig::tcp_default(&model),
    };
    let cluster = Cluster::build(&cfg);
    let mut sim = Sim::new(3);

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
            let ts: Vec<Rc<TcpTransport>> = cluster
                .nodes
                .iter()
                .enumerate()
                .map(|(rank, node)| TcpTransport::new(&mut sim, &node.tcp(), rank, ips.clone()))
                .collect();
            sim.run();
            assert!(ts.iter().all(|t| t.ready()));
            cluster
                .nodes
                .iter()
                .zip(ts)
                .map(|(node, t)| Mpi::new(&node.kernel, t as Rc<dyn Transport>))
                .collect()
        }
    };

    // Each rank computes its local partial sum of squares over its slice
    // of the logical vector x[i] = i % 100.
    let start = sim.now();
    let results: Rc<RefCell<Vec<(SimTime, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    for mpi in &mpis {
        let rank = mpi.rank();
        let local: u64 = (0..chunk as u64)
            .map(|i| {
                let x = (rank as u64 * chunk as u64 + i) % 100;
                x * x
            })
            .sum();
        let r = results.clone();
        collectives::allreduce_sum(mpi, &mut sim, local, move |sim, total| {
            r.borrow_mut().push((sim.now(), total));
        });
    }
    sim.run();
    let results = results.borrow();
    assert_eq!(results.len(), ranks, "every rank gets the total");
    let total = results[0].1;
    assert!(results.iter().all(|&(_, t)| t == total));
    let finish = results.iter().map(|&(t, _)| t).max().unwrap();

    // Demonstrate gather too: rank 0 collects each rank's partial.
    let gathered: Rc<RefCell<Option<Vec<Bytes>>>> = Rc::new(RefCell::new(None));
    for mpi in &mpis {
        let rank = mpi.rank();
        let local: u64 = (0..chunk as u64)
            .map(|i| {
                let x = (rank as u64 * chunk as u64 + i) % 100;
                x * x
            })
            .sum();
        let g = gathered.clone();
        collectives::gather(
            mpi,
            &mut sim,
            0,
            Bytes::copy_from_slice(&local.to_be_bytes()),
            move |_s, slots| {
                if !slots.is_empty() {
                    *g.borrow_mut() = Some(slots);
                }
            },
        );
    }
    sim.run();
    let slots = gathered.borrow().clone().expect("rank 0 gathers");
    let sum_of_partials: u64 = slots
        .iter()
        .map(|b| u64::from_be_bytes(b[..8].try_into().unwrap()))
        .sum();
    assert_eq!(sum_of_partials, total, "gather cross-check");

    (total, finish.saturating_since(start))
}
