//! Cross-crate integration tests exercised through the `clic` facade:
//! coexistence of stacks, cluster topologies, determinism, and the
//! paper-shape invariants the reproduction stands on.

use bytes::Bytes;
use clic::cluster::builder::{ClusterConfig, Topology};
use clic::cluster::workload::stream_count;
use clic::cluster::{experiments, ping_pong, stream};
use clic::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn both_stacks_pair() -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = NodeConfig::clic_default(&model);
    cfg.node.tcpip = true;
    cfg
}

/// §3.1: CLIC coexists with the standard stack — same kernel, same driver,
/// same NIC, dispatched by EtherType. Run both protocols between the same
/// pair of nodes in the same simulation.
#[test]
fn clic_and_tcp_coexist_on_one_node() {
    let cluster = Cluster::build(&both_stacks_pair());
    let mut sim = Sim::new(0);

    // CLIC traffic.
    let pid0 = cluster.nodes[0].kernel.borrow_mut().processes.spawn();
    let pid1 = cluster.nodes[1].kernel.borrow_mut().processes.spawn();
    let tx = ClicPort::bind(&cluster.nodes[0].clic(), pid0, 5);
    let rx = ClicPort::bind(&cluster.nodes[1].clic(), pid1, 5);
    let clic_got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let g = clic_got.clone();
    rx.recv(&mut sim, move |_s, m| *g.borrow_mut() = Some(m.data));

    // TCP traffic, simultaneously.
    use clic::tcpip::TcpStack;
    let a = cluster.nodes[0].tcp();
    let b = cluster.nodes[1].tcp();
    let server: Rc<RefCell<Option<clic::tcpip::ConnId>>> = Rc::new(RefCell::new(None));
    let s2 = server.clone();
    b.borrow_mut()
        .listen(8000, move |_s, id| *s2.borrow_mut() = Some(id));
    let client: Rc<RefCell<Option<clic::tcpip::ConnId>>> = Rc::new(RefCell::new(None));
    let c2 = client.clone();
    TcpStack::connect(&a, &mut sim, cluster.nodes[1].ip, 8000, move |_s, id| {
        *c2.borrow_mut() = Some(id)
    });
    sim.run();

    let tcp_got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let g = tcp_got.clone();
    TcpStack::recv(
        &b,
        &mut sim,
        server.borrow().unwrap(),
        2000,
        move |_s, d| *g.borrow_mut() = Some(d),
    );
    tx.send(
        &mut sim,
        cluster.nodes[1].mac,
        5,
        Bytes::from(vec![0xC1u8; 3000]),
    );
    TcpStack::send(
        &a,
        &mut sim,
        client.borrow().unwrap(),
        Bytes::from(vec![0x7Cu8; 2000]),
    );
    sim.run();

    assert_eq!(clic_got.borrow().as_ref().unwrap().len(), 3000);
    assert!(clic_got
        .borrow()
        .as_ref()
        .unwrap()
        .iter()
        .all(|&b| b == 0xC1));
    assert_eq!(tcp_got.borrow().as_ref().unwrap().len(), 2000);
    assert!(tcp_got
        .borrow()
        .as_ref()
        .unwrap()
        .iter()
        .all(|&b| b == 0x7C));
}

/// Many-to-one incast over a switch: every worker sends to node 0; all
/// messages arrive intact despite switch queueing.
#[test]
fn switched_incast_delivers_everything() {
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.nodes = 6;
    cfg.topology = Topology::Switched;
    cfg.node = NodeConfig::clic_default(&model);
    let cluster = Cluster::build(&cfg);
    let mut sim = Sim::new(3);

    let sink_pid = cluster.nodes[0].kernel.borrow_mut().processes.spawn();
    let sink = Rc::new(ClicPort::bind(&cluster.nodes[0].clic(), sink_pid, 1));
    let got: Rc<RefCell<Vec<Bytes>>> = Rc::new(RefCell::new(Vec::new()));
    fn drain(port: Rc<ClicPort>, sim: &mut Sim, got: Rc<RefCell<Vec<Bytes>>>, left: usize) {
        if left == 0 {
            return;
        }
        let p = port.clone();
        port.recv(sim, move |sim, m| {
            got.borrow_mut().push(m.data);
            drain(p.clone(), sim, got, left - 1);
        });
    }
    let total = 5 * 4;
    drain(sink.clone(), &mut sim, got.clone(), total);

    let dst = cluster.nodes[0].mac;
    for (i, node) in cluster.nodes.iter().enumerate().skip(1) {
        let pid = node.kernel.borrow_mut().processes.spawn();
        let port = ClicPort::bind(&node.clic(), pid, 2);
        for k in 0..4 {
            port.send(
                &mut sim,
                dst,
                1,
                Bytes::from(vec![(i * 10 + k) as u8; 20_000]),
            );
        }
    }
    sim.set_event_limit(100_000_000);
    sim.run();
    let got = got.borrow();
    assert_eq!(got.len(), total);
    assert!(got.iter().all(|d| d.len() == 20_000));
}

/// The same seed must give bit-identical results (the engine's determinism
/// carried through the full stack).
#[test]
fn full_stack_determinism() {
    fn run_once() -> (u64, f64) {
        let cluster = Cluster::build(&ClusterConfig::paper_pair());
        let mut sim = Sim::new(77);
        let res = stream(&cluster, &mut sim, StackKind::Clic, 8192, 16);
        (sim.events_executed(), res.mbps())
    }
    let (e1, m1) = run_once();
    let (e2, m2) = run_once();
    assert_eq!(e1, e2);
    assert_eq!(m1, m2);
}

/// The headline ordering of Figure 5 on a tiny grid: CLIC beats TCP at
/// every size, for both MTUs.
#[test]
fn fig5_ordering_holds() {
    let sizes = [4_096usize, 262_144];
    let output = experiments::FigureKind::Fig5.run(&sizes);
    let series = output.series();
    let find = |label: &str| {
        series
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("missing series {label}"))
    };
    let clic9000 = find("CLIC 9000");
    let tcp9000 = find("TCP 9000");
    let clic1500 = find("CLIC 1500");
    let tcp1500 = find("TCP 1500");
    for (i, &size) in sizes.iter().enumerate() {
        assert!(
            clic9000.points[i].mbps > tcp9000.points[i].mbps,
            "CLIC must beat TCP at {size} (9000)"
        );
        assert!(
            clic1500.points[i].mbps > tcp1500.points[i].mbps,
            "CLIC must beat TCP at {size} (1500)"
        );
    }
    // Asymptotic ratio near the paper's "more than twofold".
    let ratio = clic9000.points[1].mbps / tcp9000.points[1].mbps;
    assert!(
        ratio > 1.6,
        "CLIC/TCP asymptotic ratio {ratio:.2} too small"
    );
}

/// Figure 7's stage structure: the receive interrupt path dominates, and
/// the direct-call improvement shrinks it substantially.
#[test]
fn fig7_stage_structure() {
    let experiments::FigureOutput::Stages { a, b } = experiments::FigureKind::Fig7.run(&[]) else {
        panic!("fig7 assembles stage breakdowns");
    };
    let get = |rows: &[experiments::StageRow], name: &str| -> f64 {
        rows.iter()
            .find(|r| r.stage == name)
            .map(|r| r.us)
            .unwrap_or(0.0)
    };
    // 7a: driver_rx is the slowest stage, in the paper's ~15 us band.
    let driver_rx = get(&a, "driver_rx");
    assert!(
        (10.0..25.0).contains(&driver_rx),
        "driver_rx = {driver_rx} us"
    );
    for stage in [
        "syscall",
        "clic_module_tx",
        "driver_tx",
        "bottom_half",
        "clic_module_rx",
    ] {
        assert!(
            get(&a, stage) < driver_rx,
            "{stage} should be faster than driver_rx"
        );
    }
    // 7b: the receive path collapses (paper: ~20 -> ~5 us).
    let rx_total = |rows: &[experiments::StageRow]| {
        ["driver_rx", "bottom_half", "clic_module_rx", "copy_to_user"]
            .iter()
            .map(|s| get(rows, s))
            .sum::<f64>()
    };
    let before = rx_total(&a);
    let after = rx_total(&b);
    assert!(
        after < before / 2.0,
        "direct call must at least halve the receive path: {before:.1} -> {after:.1}"
    );
}

/// 0-byte CLIC latency lands in the paper's band.
#[test]
fn zero_byte_latency_in_band() {
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = NodeConfig::clic_default(&model);
    cfg.node.nic = model.nic_low_latency(false);
    let cluster = Cluster::build(&cfg);
    let mut sim = Sim::new(1);
    let pp = ping_pong(&cluster, &mut sim, StackKind::Clic, 0, 10);
    let us = pp.one_way().as_us_f64();
    assert!(
        (25.0..48.0).contains(&us),
        "0-byte one-way latency {us:.1} us vs paper's 36 us"
    );
}

/// Jumbo frames beat the standard MTU for large messages (Figure 4's
/// main effect).
#[test]
fn jumbo_beats_standard_at_large_sizes() {
    let model = CostModel::era_2002();
    let run = |jumbo: bool| {
        let mut cfg = ClusterConfig::paper_pair();
        cfg.node = NodeConfig::clic_default(&model);
        cfg.node.nic = if jumbo {
            model.nic_jumbo()
        } else {
            model.nic_standard()
        };
        let cluster = Cluster::build(&cfg);
        let mut sim = Sim::new(9);
        let size = 1 << 20;
        stream(
            &cluster,
            &mut sim,
            StackKind::Clic,
            size,
            stream_count(size).min(8),
        )
        .mbps()
    };
    let jumbo = run(true);
    let standard = run(false);
    assert!(
        jumbo > standard * 1.15,
        "jumbo {jumbo:.0} should clearly beat standard {standard:.0}"
    );
}

/// Loss injection exercises end-to-end recovery through the full facade.
#[test]
fn lossy_cluster_still_reliable() {
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = NodeConfig::clic_default(&model);
    cfg.faults.loss = LossModel::Bernoulli(0.01);
    let cluster = Cluster::build(&cfg);
    let mut sim = Sim::new(13);

    let pid0 = cluster.nodes[0].kernel.borrow_mut().processes.spawn();
    let pid1 = cluster.nodes[1].kernel.borrow_mut().processes.spawn();
    let tx = ClicPort::bind(&cluster.nodes[0].clic(), pid0, 1);
    let rx = ClicPort::bind(&cluster.nodes[1].clic(), pid1, 1);
    let data = Bytes::from(
        (0..100_000usize)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<_>>(),
    );
    let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    rx.recv(&mut sim, move |_s, m| *g.borrow_mut() = Some(m.data));
    tx.send(&mut sim, cluster.nodes[1].mac, 1, data.clone());
    sim.set_event_limit(50_000_000);
    sim.run();
    assert_eq!(got.borrow().as_ref().unwrap(), &data);
    assert!(cluster.nodes[0].clic().borrow().stats().retransmits > 0);
}
