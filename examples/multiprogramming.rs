//! Multiprogramming (§5): CLIC "allows the use of threads and the use of
//! CLIC in systems where several processes attempt to access the OS
//! kernel" — and it coexists with the standard TCP/IP stack on the same
//! kernel and NIC. Three independent applications share the same pair of
//! machines:
//!
//! * a CLIC bulk transfer on channel 10,
//! * a CLIC request/reply service on channel 20,
//! * a TCP stream between the same two nodes.
//!
//! All three make progress concurrently over one NIC per node.
//!
//! ```text
//! cargo run --example multiprogramming
//! ```

use bytes::Bytes;
use clic::cluster::builder::ClusterConfig;
use clic::prelude::*;
use clic::tcpip::TcpStack;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = NodeConfig::clic_default(&model);
    cfg.node.tcpip = true; // both stacks on the same kernel
    let cluster = Cluster::build(&cfg);
    let mut sim = Sim::new(0);
    let (n0, n1) = (&cluster.nodes[0], &cluster.nodes[1]);

    // --- App 1: CLIC bulk transfer (channel 10) -------------------------
    let bulk_pid_tx = n0.kernel.borrow_mut().processes.spawn("bulk-tx");
    let bulk_pid_rx = n1.kernel.borrow_mut().processes.spawn("bulk-rx");
    let bulk_tx = ClicPort::bind(&n0.clic(), bulk_pid_tx, 10);
    let bulk_rx = ClicPort::bind(&n1.clic(), bulk_pid_rx, 10);
    let bulk_done: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    let d = bulk_done.clone();
    bulk_rx.recv(&mut sim, move |sim, msg| {
        assert_eq!(msg.data.len(), 500_000);
        *d.borrow_mut() = Some(sim.now());
    });
    bulk_tx.send(&mut sim, n1.mac, 10, Bytes::from(vec![0xB1u8; 500_000]));

    // --- App 2: CLIC request/reply service (channel 20) -----------------
    let svc_pid = n1.kernel.borrow_mut().processes.spawn("service");
    let svc = Rc::new(ClicPort::bind(&n1.clic(), svc_pid, 20));
    let cli_pid = n0.kernel.borrow_mut().processes.spawn("client");
    let cli = Rc::new(ClicPort::bind(&n0.clic(), cli_pid, 21));
    // Service: echo uppercase, forever-ish.
    fn serve(port: Rc<ClicPort>, sim: &mut Sim, left: usize) {
        if left == 0 {
            return;
        }
        let p = port.clone();
        port.recv(sim, move |sim, msg| {
            let reply: Vec<u8> = msg.data.iter().map(|b| b.to_ascii_uppercase()).collect();
            p.send(sim, msg.src, 21, Bytes::from(reply));
            serve(p.clone(), sim, left - 1);
        });
    }
    serve(svc, &mut sim, 5);
    let replies: Rc<RefCell<Vec<(SimTime, Bytes)>>> = Rc::new(RefCell::new(Vec::new()));
    struct Cli {
        port: Rc<ClicPort>,
        dst: MacAddr,
        replies: Rc<RefCell<Vec<(SimTime, Bytes)>>>,
    }
    fn query(st: Rc<Cli>, sim: &mut Sim, left: usize) {
        if left == 0 {
            return;
        }
        st.port
            .send(sim, st.dst, 20, Bytes::from(format!("request {left}")));
        let st2 = st.clone();
        st.port.recv(sim, move |sim, msg| {
            st2.replies.borrow_mut().push((sim.now(), msg.data));
            query(st2.clone(), sim, left - 1);
        });
    }
    query(
        Rc::new(Cli {
            port: cli,
            dst: n1.mac,
            replies: replies.clone(),
        }),
        &mut sim,
        5,
    );

    // --- App 3: TCP stream on the same nodes ----------------------------
    let tcp_a = n0.tcp();
    let tcp_b = n1.tcp();
    let tcp_got: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    // Server: read 200 KB from whoever connects.
    // The listener holds its stack weakly: the stack holds the listener.
    let tg = tcp_got.clone();
    let tcp_b2 = Rc::downgrade(&tcp_b);
    tcp_b.borrow_mut().listen(7777, move |sim, conn| {
        let tg2 = tg.clone();
        let tcp_b = tcp_b2.upgrade().expect("the node owns its stack");
        TcpStack::recv(&tcp_b, sim, conn, 200_000, move |sim, _| {
            *tg2.borrow_mut() = Some(sim.now());
        });
    });
    // Client: connect and stream.
    TcpStack::connect(&tcp_a.clone(), &mut sim, n1.ip, 7777, move |sim, conn| {
        TcpStack::send(&tcp_a, sim, conn, Bytes::from(vec![0x7Cu8; 200_000]));
    });

    sim.run();

    println!("three applications shared two nodes and one NIC each:");
    println!(
        "  CLIC bulk   : 500 KB done at t = {}",
        bulk_done.borrow().expect("bulk must finish")
    );
    let replies = replies.borrow();
    println!(
        "  CLIC service: {} request/reply cycles, last at t = {}",
        replies.len(),
        replies.last().unwrap().0
    );
    assert_eq!(replies.len(), 5);
    assert!(replies.iter().all(|(_, r)| r.starts_with(b"REQUEST")));
    println!(
        "  TCP stream  : 200 KB done at t = {}",
        tcp_got.borrow().expect("tcp must finish")
    );
    // Context switches happened on both nodes: real multiprogramming.
    let cs0 = n0.kernel.borrow().stats().context_switches;
    let cs1 = n1.kernel.borrow().stats().context_switches;
    println!("  context switches: node0 = {cs0}, node1 = {cs1}");
}
