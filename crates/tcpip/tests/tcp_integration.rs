//! End-to-end TCP tests over the full simulated node stack.

#![allow(clippy::type_complexity)]

use bytes::Bytes;
use clic_ethernet::{FaultPlan, Link, LinkEnd, LossModel, MacAddr};
use clic_hw::{Nic, NicConfig, PciBus};
use clic_os::{Kernel, OsCosts};
use clic_sim::{Sim, SimTime};
use clic_tcpip::{ConnId, IpAddr, TcpIpCosts, TcpStack};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Drop frames per `loss` in both directions of `link`.
fn set_loss(link: &Rc<RefCell<Link>>, loss: LossModel) {
    for end in [LinkEnd::A, LinkEnd::B] {
        let plan = FaultPlan {
            loss,
            ..FaultPlan::default()
        };
        link.borrow_mut().set_faults(end, plan);
    }
}

struct Node {
    // Held so the stack's Weak<Kernel> stays upgradable.
    kernel: Rc<RefCell<Kernel>>,
    tcp: Rc<RefCell<TcpStack>>,
    ip: IpAddr,
}

fn mk_node(id: u32, nic_cfg: NicConfig, link: Rc<RefCell<Link>>, end: LinkEnd) -> Node {
    let mut neighbors = BTreeMap::new();
    for peer in 1..=4u32 {
        neighbors.insert(IpAddr::for_node(peer), MacAddr::for_node(peer, 0));
    }
    mk_node_with(id, nic_cfg, link, end, neighbors)
}

fn mk_node_with(
    id: u32,
    nic_cfg: NicConfig,
    link: Rc<RefCell<Link>>,
    end: LinkEnd,
    neighbors: BTreeMap<IpAddr, MacAddr>,
) -> Node {
    let kernel = Kernel::new(id, OsCosts::era_2002());
    let nic = Nic::new(
        MacAddr::for_node(id, 0),
        nic_cfg,
        PciBus::pci_33mhz_32bit(),
        link,
        end,
    );
    Nic::attach_to_link(&nic);
    let dev = Kernel::add_device(&kernel, nic);
    let tcp = TcpStack::install(
        &kernel,
        dev,
        IpAddr::for_node(id),
        neighbors,
        TcpIpCosts::era_2002(),
    );
    Node {
        kernel,
        tcp,
        ip: IpAddr::for_node(id),
    }
}

fn pair(nic_cfg: NicConfig) -> (Node, Node, Rc<RefCell<Link>>) {
    let link = Link::gigabit();
    let a = mk_node(1, nic_cfg.clone(), link.clone(), LinkEnd::A);
    let b = mk_node(2, nic_cfg, link.clone(), LinkEnd::B);
    (a, b, link)
}

fn payload(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
}

/// Whether `part` lies inside `whole`'s allocation.
fn inside(part: &Bytes, whole: &Bytes) -> bool {
    let (p, w) = (part.as_ptr() as usize, whole.as_ptr() as usize);
    w <= p && p + part.len() <= w + whole.len()
}

/// Establish a connection and return both ends' ids via cells.
fn establish(
    sim: &mut Sim,
    a: &Node,
    b: &Node,
    port: u16,
) -> (Rc<RefCell<Option<ConnId>>>, Rc<RefCell<Option<ConnId>>>) {
    let client: Rc<RefCell<Option<ConnId>>> = Rc::new(RefCell::new(None));
    let server: Rc<RefCell<Option<ConnId>>> = Rc::new(RefCell::new(None));
    let sc = server.clone();
    b.tcp
        .borrow_mut()
        .listen(port, move |_sim, id| *sc.borrow_mut() = Some(id));
    let cc = client.clone();
    TcpStack::connect(&a.tcp, sim, b.ip, port, move |_sim, id| {
        *cc.borrow_mut() = Some(id)
    });
    sim.run();
    assert!(client.borrow().is_some(), "client connect must complete");
    assert!(server.borrow().is_some(), "server accept must fire");
    (client, server)
}

#[test]
fn handshake_establishes_both_ends() {
    let mut sim = Sim::new(0);
    let (a, b, _) = pair(NicConfig::gigabit_standard());
    establish(&mut sim, &a, &b, 5000);
    assert_eq!(a.tcp.borrow().stats().established, 1);
    assert_eq!(b.tcp.borrow().stats().established, 1);
    // Handshake is ~1.5 RTTs of small frames: well under a millisecond.
    assert!(
        sim.now() < SimTime::from_us(500),
        "handshake took {}",
        sim.now()
    );
}

#[test]
fn bulk_transfer_integrity() {
    let mut sim = Sim::new(0);
    let (a, b, _) = pair(NicConfig::gigabit_standard());
    let (client, server) = establish(&mut sim, &a, &b, 5000);
    let data = payload(200_000);
    let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    TcpStack::recv(
        &b.tcp,
        &mut sim,
        server.borrow().unwrap(),
        data.len(),
        move |_sim, bytes| *g.borrow_mut() = Some(bytes),
    );
    TcpStack::send(&a.tcp, &mut sim, client.borrow().unwrap(), data.clone());
    sim.run();
    assert_eq!(got.borrow().as_ref().unwrap(), &data);
    let stats = a.tcp.borrow().stats();
    assert!(stats.segments_tx as usize >= data.len() / 1460);
    assert_eq!(stats.retransmits, 0, "lossless link: no retransmits");
}

#[test]
fn reads_share_the_senders_buffer() {
    // The socket buffers charge their copies but make none: a read whose
    // bytes lie in one send is a slice of the sender's buffer, and a read
    // that spans two separately allocated sends is their concatenation.
    let mut sim = Sim::new(0);
    let (a, b, _) = pair(NicConfig::gigabit_standard());
    let (client, server) = establish(&mut sim, &a, &b, 5000);
    let (client, server) = (client.borrow().unwrap(), server.borrow().unwrap());
    let reads: Rc<RefCell<Vec<Bytes>>> = Rc::default();
    let read = |sim: &mut Sim, len: usize| {
        let r = reads.clone();
        TcpStack::recv(&b.tcp, sim, server, len, move |_, bytes| {
            r.borrow_mut().push(bytes)
        });
    };

    let data = payload(256 << 10);
    read(&mut sim, data.len());
    TcpStack::send(&a.tcp, &mut sim, client, data.clone());
    sim.run();
    let whole = reads.borrow_mut().remove(0);
    assert_eq!(whole, data);
    assert_eq!(whole.as_ptr(), data.as_ptr(), "one send, one read: shared");

    // The second send starts 7 bytes into its allocation, so its bytes
    // differ from the first send's continuation.
    let (first, second) = (payload(3_000), payload(5_007).slice(7..));
    for len in [1_000, 6_000, 1_000] {
        read(&mut sim, len);
    }
    TcpStack::send(&a.tcp, &mut sim, client, first.clone());
    TcpStack::send(&a.tcp, &mut sim, client, second.clone());
    sim.run();
    let reads = reads.borrow();
    assert_eq!(reads.len(), 3);
    assert_eq!(reads[0], first.slice(..1_000));
    assert!(inside(&reads[0], &first), "a read inside one send: shared");
    assert_eq!(
        &reads[1][..],
        &[&first[1_000..], &second[..4_000]].concat()[..]
    );
    assert_eq!(reads[2], second.slice(4_000..));
    assert!(inside(&reads[2], &second), "a read inside one send: shared");
}

#[test]
fn mss_respects_jumbo_mtu() {
    let (a, _b, _) = pair(NicConfig::gigabit_jumbo());
    assert_eq!(a.tcp.borrow().mss(), 9000 - 20 - 20);
    let (a, _b, _) = pair(NicConfig::gigabit_standard());
    assert_eq!(a.tcp.borrow().mss(), 1460);
}

#[test]
fn bidirectional_transfer() {
    let mut sim = Sim::new(0);
    let (a, b, _) = pair(NicConfig::gigabit_standard());
    let (client, server) = establish(&mut sim, &a, &b, 5000);
    let d1 = payload(30_000);
    let d2 = Bytes::from(vec![0xEEu8; 30_000]);
    let (got1, got2): (Rc<RefCell<Option<Bytes>>>, Rc<RefCell<Option<Bytes>>>) = Default::default();
    let g = got1.clone();
    TcpStack::recv(
        &b.tcp,
        &mut sim,
        server.borrow().unwrap(),
        d1.len(),
        move |_s, x| *g.borrow_mut() = Some(x),
    );
    let g = got2.clone();
    TcpStack::recv(
        &a.tcp,
        &mut sim,
        client.borrow().unwrap(),
        d2.len(),
        move |_s, x| *g.borrow_mut() = Some(x),
    );
    TcpStack::send(&a.tcp, &mut sim, client.borrow().unwrap(), d1.clone());
    TcpStack::send(&b.tcp, &mut sim, server.borrow().unwrap(), d2.clone());
    sim.run();
    assert_eq!(got1.borrow().as_ref().unwrap(), &d1);
    assert_eq!(got2.borrow().as_ref().unwrap(), &d2);
}

#[test]
fn loss_recovered_by_rto() {
    let mut sim = Sim::new(5);
    let (a, b, link) = pair(NicConfig::gigabit_standard());
    let (client, server) = establish(&mut sim, &a, &b, 5000);
    // Inject loss only after the handshake.
    set_loss(&link, LossModel::EveryNth(40));
    let data = payload(120_000);
    let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    TcpStack::recv(
        &b.tcp,
        &mut sim,
        server.borrow().unwrap(),
        data.len(),
        move |_sim, bytes| *g.borrow_mut() = Some(bytes),
    );
    TcpStack::send(&a.tcp, &mut sim, client.borrow().unwrap(), data.clone());
    sim.set_event_limit(30_000_000);
    sim.run();
    assert_eq!(
        got.borrow().as_ref().unwrap(),
        &data,
        "integrity under loss"
    );
    let stats = a.tcp.borrow().stats();
    assert!(
        stats.retransmits + stats.fast_retransmits > 0,
        "loss must trigger some form of retransmission: {stats:?}"
    );
}

#[test]
fn reads_in_pieces() {
    let mut sim = Sim::new(0);
    let (a, b, _) = pair(NicConfig::gigabit_standard());
    let (client, server) = establish(&mut sim, &a, &b, 5000);
    let data = payload(10_000);
    let pieces: Rc<RefCell<Vec<Bytes>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..4 {
        let p = pieces.clone();
        TcpStack::recv(
            &b.tcp,
            &mut sim,
            server.borrow().unwrap(),
            2_500,
            move |_s, x| p.borrow_mut().push(x),
        );
    }
    TcpStack::send(&a.tcp, &mut sim, client.borrow().unwrap(), data.clone());
    sim.run();
    let pieces = pieces.borrow();
    assert_eq!(pieces.len(), 4);
    let mut whole = Vec::new();
    for p in pieces.iter() {
        whole.extend_from_slice(p);
    }
    assert_eq!(&whole[..], &data[..]);
}

#[test]
fn two_connections_do_not_interfere() {
    let mut sim = Sim::new(0);
    let (a, b, _) = pair(NicConfig::gigabit_standard());
    let (c1, s1) = establish(&mut sim, &a, &b, 5000);
    let (c2, s2) = establish(&mut sim, &a, &b, 5001);
    let d1 = Bytes::from(vec![1u8; 20_000]);
    let d2 = Bytes::from(vec![2u8; 20_000]);
    let (g1, g2): (Rc<RefCell<Option<Bytes>>>, Rc<RefCell<Option<Bytes>>>) = Default::default();
    let g = g1.clone();
    TcpStack::recv(
        &b.tcp,
        &mut sim,
        s1.borrow().unwrap(),
        d1.len(),
        move |_s, x| *g.borrow_mut() = Some(x),
    );
    let g = g2.clone();
    TcpStack::recv(
        &b.tcp,
        &mut sim,
        s2.borrow().unwrap(),
        d2.len(),
        move |_s, x| *g.borrow_mut() = Some(x),
    );
    TcpStack::send(&a.tcp, &mut sim, c1.borrow().unwrap(), d1.clone());
    TcpStack::send(&a.tcp, &mut sim, c2.borrow().unwrap(), d2.clone());
    sim.run();
    assert_eq!(g1.borrow().as_ref().unwrap(), &d1);
    assert_eq!(g2.borrow().as_ref().unwrap(), &d2);
}

#[test]
fn slow_start_ramps_throughput() {
    // The byte delivered per unit time early in the connection should be
    // lower than late (slow start) — this is what makes TCP's curve in
    // Figure 5 rise slower than CLIC's.
    let mut sim = Sim::new(0);
    let (a, b, _) = pair(NicConfig::gigabit_standard());
    let (client, server) = establish(&mut sim, &a, &b, 5000);
    let start = sim.now();
    let data = payload(400_000);
    let quarter: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    let done: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    let q = quarter.clone();
    TcpStack::recv(
        &b.tcp,
        &mut sim,
        server.borrow().unwrap(),
        100_000,
        move |sim, _| *q.borrow_mut() = Some(sim.now()),
    );
    let d = done.clone();
    TcpStack::recv(
        &b.tcp,
        &mut sim,
        server.borrow().unwrap(),
        300_000,
        move |sim, _| *d.borrow_mut() = Some(sim.now()),
    );
    TcpStack::send(&a.tcp, &mut sim, client.borrow().unwrap(), data);
    sim.run();
    let t_quarter = quarter.borrow().unwrap() - start;
    let t_done = done.borrow().unwrap() - start;
    let rest = t_done - t_quarter;
    // First quarter strictly slower than the remaining three quarters
    // normalized: (t_quarter / 1) > (rest / 3).
    assert!(
        t_quarter.as_ns() * 3 > rest.as_ns(),
        "first 100 KB {t_quarter} vs remaining 300 KB {rest}"
    );
}

#[test]
fn fast_retransmit_fires_before_rto() {
    let mut sim = Sim::new(11);
    let (a, b, link) = pair(NicConfig::gigabit_standard());
    let (client, server) = establish(&mut sim, &a, &b, 5000);
    set_loss(&link, LossModel::EveryNth(25));
    let data = payload(200_000);
    let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    TcpStack::recv(
        &b.tcp,
        &mut sim,
        server.borrow().unwrap(),
        data.len(),
        move |_sim, bytes| *g.borrow_mut() = Some(bytes),
    );
    let start = sim.now();
    TcpStack::send(&a.tcp, &mut sim, client.borrow().unwrap(), data.clone());
    sim.set_event_limit(30_000_000);
    sim.run();
    assert_eq!(got.borrow().as_ref().unwrap(), &data);
    let stats = a.tcp.borrow().stats();
    assert!(
        stats.fast_retransmits > 0,
        "steady loss with a full pipe must trigger dup-ACK recovery: {stats:?}"
    );
    // Recovery must not require an RTO for every loss event (~6 losses at
    // EveryNth(25) over ~140 segments would cost >1.2 s with RTOs alone;
    // dup-ACK recovery keeps most of them off the 200 ms timer).
    let elapsed = sim.now().saturating_since(start);
    assert!(
        elapsed < clic_sim::SimDuration::from_ms(1_000),
        "transfer with fast retransmit took {elapsed}"
    );
}

#[test]
#[should_panic(expected = "TCP: no neighbor entry for 222.173.190.239")]
fn unknown_destination_panics() {
    let mut sim = Sim::new(0);
    let (a, _b, _) = pair(NicConfig::gigabit_standard());
    // No neighbor entry for this address: the SYN cannot be addressed,
    // and a workload that connects there was set up wrong.
    TcpStack::connect(&a.tcp, &mut sim, IpAddr(0xdead_beef), 5000, |_, _| {});
    sim.run();
}

#[test]
fn packet_for_other_host_ignored() {
    let mut sim = Sim::new(0);
    let link = Link::gigabit();
    // IP destination 3 behind node 2's MAC: node 2 receives the SYN and
    // must drop it at the IP header.
    let mut neighbors = BTreeMap::new();
    neighbors.insert(IpAddr::for_node(3), MacAddr::for_node(2, 0));
    let a = mk_node_with(
        1,
        NicConfig::gigabit_standard(),
        link.clone(),
        LinkEnd::A,
        neighbors,
    );
    let b = mk_node(2, NicConfig::gigabit_standard(), link, LinkEnd::B);
    let accepted = Rc::new(RefCell::new(false));
    let acc = accepted.clone();
    b.tcp
        .borrow_mut()
        .listen(5000, move |_, _| *acc.borrow_mut() = true);
    TcpStack::connect(&a.tcp, &mut sim, IpAddr::for_node(3), 5000, |_, _| {
        panic!("no host answers for 10.0.0.3")
    });
    sim.run();
    assert_eq!(
        b.kernel.borrow().stats().frames_received,
        1,
        "the SYN arrived"
    );
    let stats = b.tcp.borrow().stats();
    assert_eq!(stats.segments_rx, 0);
    assert_eq!(stats.rx_errors, 0, "a well-formed packet for another host");
    assert_eq!(stats.established, 0);
    assert!(!*accepted.borrow());
    assert_eq!(a.tcp.borrow().stats().established, 0);
}

#[test]
fn full_mss_segments_fit_small_and_jumbo_mtus() {
    for mtu in [128, 9000] {
        let mut sim = Sim::new(0);
        let mut cfg = NicConfig::gigabit_jumbo();
        cfg.mtu = mtu;
        let (a, b, _) = pair(cfg);
        let mss = a.tcp.borrow().mss();
        assert_eq!(mss, mtu - 40);
        let (client, server) = establish(&mut sim, &a, &b, 5000);
        // Whole segments only: every data packet is exactly the MTU, the
        // largest IPv4 packet the stack may emit.
        let data = payload(8 * mss);
        let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
        let g = got.clone();
        TcpStack::recv(
            &b.tcp,
            &mut sim,
            server.borrow().unwrap(),
            data.len(),
            move |_sim, bytes| *g.borrow_mut() = Some(bytes),
        );
        TcpStack::send(&a.tcp, &mut sim, client.borrow().unwrap(), data.clone());
        sim.run();
        assert_eq!(got.borrow().as_ref().unwrap(), &data, "MTU {mtu}");
        assert_eq!(a.tcp.borrow().stats().segments_tx, 8, "MTU {mtu}");
        assert_eq!(b.tcp.borrow().stats().rx_errors, 0, "MTU {mtu}");
    }
}
