//! Quickstart: build the paper's two-node Gigabit Ethernet testbed, send a
//! message over CLIC and over TCP/IP, and compare the trip times.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use clic::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    // --- CLIC ---------------------------------------------------------
    let cluster = Cluster::build(&ClusterConfig::paper_pair());
    let mut sim = Sim::new(0);

    let tx_pid = cluster.nodes[0].kernel.borrow_mut().processes.spawn();
    let rx_pid = cluster.nodes[1].kernel.borrow_mut().processes.spawn();
    let tx = ClicPort::bind(&cluster.nodes[0].clic(), tx_pid, 7);
    let rx = ClicPort::bind(&cluster.nodes[1].clic(), rx_pid, 7);

    let arrival: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    let a = arrival.clone();
    rx.recv(&mut sim, move |sim, msg| {
        println!(
            "CLIC: {:5} bytes from {} arrived at t = {}",
            msg.data.len(),
            msg.src,
            sim.now()
        );
        *a.borrow_mut() = Some(sim.now());
    });
    tx.send(
        &mut sim,
        cluster.nodes[1].mac,
        7,
        Bytes::from(vec![0x42u8; 1400]),
    );
    sim.run();
    let clic_time = arrival.borrow().expect("CLIC delivery");

    // --- TCP/IP on identical hardware ----------------------------------
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = NodeConfig::tcp_default(&model);
    let cluster = Cluster::build(&cfg);
    let mut sim = Sim::new(0);
    let res = ping_pong(&cluster, &mut sim, StackKind::Tcp, 1400, 4);
    let tcp_time = res.one_way();

    println!("TCP : 1400 bytes one-way ~ {tcp_time}");
    println!();
    println!(
        "CLIC one-way {} vs TCP one-way {} -> CLIC is {:.1}x faster on this trip",
        clic_time,
        tcp_time,
        tcp_time.as_us_f64() / clic_time.as_us_f64()
    );
}
