//! Ethernet multicast through CLIC (§5: CLIC "takes advantage of the
//! multicast/broadcast capabilities offered by the Ethernet data-link
//! layer"): one control node pushes a configuration blob to a group of
//! workers with a single send through a switch.
//!
//! ```text
//! cargo run --example multicast [workers]
//! ```

use bytes::Bytes;
use clic::cluster::builder::{ClusterConfig, Topology};
use clic::core_proto::ClicModule;
use clic::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);

    let mut cfg = ClusterConfig::paper_pair();
    cfg.nodes = workers + 1;
    cfg.topology = Topology::Switched;
    let cluster = Cluster::build(&cfg);
    let mut sim = Sim::new(0);

    const CH: u16 = 3;
    let group = MacAddr::multicast_group(42);

    // Workers join the group and post receives.
    let received: Rc<RefCell<Vec<(usize, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
    for (i, node) in cluster.nodes.iter().enumerate().skip(1) {
        ClicModule::join_multicast(&node.clic(), group);
        let pid = node.kernel.borrow_mut().processes.spawn();
        let port = ClicPort::bind(&node.clic(), pid, CH);
        let r = received.clone();
        port.recv(&mut sim, move |sim, msg| {
            assert_eq!(&msg.data[..7], b"config!");
            r.borrow_mut().push((i, sim.now()));
        });
    }

    // The controller multicasts once.
    let ctl_pid = cluster.nodes[0].kernel.borrow_mut().processes.spawn();
    let ctl = ClicPort::bind(&cluster.nodes[0].clic(), ctl_pid, 1);
    ctl.send(
        &mut sim,
        group,
        CH,
        Bytes::from_static(b"config! v2 parameters"),
    );
    sim.run();

    let received = received.borrow();
    println!(
        "one multicast send reached {} of {workers} workers:",
        received.len()
    );
    for (i, at) in received.iter() {
        println!("  worker {i} got the config at t = {at}");
    }
    // The controller's NIC put exactly one frame on the wire.
    let tx_frames = cluster.nodes[0]
        .kernel
        .borrow()
        .device(0)
        .borrow()
        .stats()
        .tx_frames;
    println!("controller transmitted {tx_frames} frame(s) total");
    assert_eq!(tx_frames, 1);
    assert_eq!(received.len(), workers);
}
