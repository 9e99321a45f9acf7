//! End-to-end tests of the CLIC protocol over the full simulated stack:
//! user process -> syscall -> CLIC_MODULE -> driver -> NIC -> PCI -> wire ->
//! NIC -> IRQ -> driver -> bottom half -> CLIC_MODULE -> user process.

use bytes::Bytes;
use clic_core::{ClicConfig, ClicModule, ClicPort, RecvMsg, SendOptions};
use clic_ethernet::{FaultPlan, Link, LinkEnd, LossModel, MacAddr, Switch};
use clic_hw::{Nic, NicConfig, PciBus};
use clic_os::{Kernel, OsCosts};
use clic_sim::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
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

/// One simulated host.
struct Node {
    kernel: Rc<RefCell<Kernel>>,
    module: Rc<RefCell<ClicModule>>,
    mac: MacAddr,
}

fn mk_node_on(
    id: u32,
    nic_cfg: NicConfig,
    clic_cfg: ClicConfig,
    links: Vec<(Rc<RefCell<Link>>, LinkEnd)>,
) -> Node {
    let kernel = Kernel::new(id, OsCosts::era_2002());
    let pci = PciBus::pci_33mhz_32bit();
    let mut devs = Vec::new();
    for (i, (link, end)) in links.into_iter().enumerate() {
        let nic = Nic::new(
            MacAddr::for_node(id, i as u8),
            nic_cfg.clone(),
            pci.clone(),
            link,
            end,
        );
        Nic::attach_to_link(&nic);
        devs.push(Kernel::add_device(&kernel, nic));
    }
    let module = ClicModule::install(&kernel, devs, clic_cfg);
    let mac = MacAddr::for_node(id, 0);
    Node {
        kernel,
        module,
        mac,
    }
}

/// Two nodes back to back on one gigabit link.
fn two_nodes(nic_cfg: NicConfig, clic_cfg: ClicConfig) -> (Node, Node) {
    let link = Link::gigabit();
    let a = mk_node_on(
        1,
        nic_cfg.clone(),
        clic_cfg.clone(),
        vec![(link.clone(), LinkEnd::A)],
    );
    let b = mk_node_on(2, nic_cfg, clic_cfg, vec![(link, LinkEnd::B)]);
    (a, b)
}

fn default_pair() -> (Node, Node) {
    two_nodes(NicConfig::gigabit_standard(), ClicConfig::paper_default())
}

fn payload(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
}

fn bind_port(node: &Node, channel: u16) -> ClicPort {
    let pid = node.kernel.borrow_mut().processes.spawn();
    ClicPort::bind(&node.module, pid, channel)
}

type Inbox = Rc<RefCell<Vec<(SimTime, RecvMsg)>>>;

fn recv_into(port: &ClicPort, sim: &mut Sim, inbox: &Inbox) {
    let inbox = inbox.clone();
    port.recv(sim, move |sim, msg| {
        inbox.borrow_mut().push((sim.now(), msg));
    });
}

#[test]
fn small_message_end_to_end() {
    let mut sim = Sim::new(0);
    let (a, b) = default_pair();
    let tx = bind_port(&a, 1);
    let rx = bind_port(&b, 1);
    let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
    recv_into(&rx, &mut sim, &inbox);
    let data = payload(1400);
    tx.send(&mut sim, b.mac, 1, data.clone());
    sim.run();
    let inbox = inbox.borrow();
    assert_eq!(inbox.len(), 1);
    assert_eq!(inbox[0].1.data, data);
    assert_eq!(inbox[0].1.src, a.mac);
    // A 1400-byte one-way trip on the paper's hardware is tens of µs.
    assert!(
        inbox[0].0 < SimTime::from_us(120),
        "latency {} too high",
        inbox[0].0
    );
    assert_eq!(b.module.borrow().stats().msgs_received, 1);
}

#[test]
fn zero_byte_message() {
    let mut sim = Sim::new(0);
    let (a, b) = default_pair();
    let tx = bind_port(&a, 1);
    let rx = bind_port(&b, 1);
    let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
    recv_into(&rx, &mut sim, &inbox);
    tx.send(&mut sim, b.mac, 1, Bytes::new());
    sim.run();
    assert_eq!(inbox.borrow().len(), 1);
    assert!(inbox.borrow()[0].1.data.is_empty());
}

#[test]
fn recv_posted_after_arrival_finds_parked_message() {
    let mut sim = Sim::new(0);
    let (a, b) = default_pair();
    let tx = bind_port(&a, 1);
    let rx = bind_port(&b, 1);
    let data = payload(500);
    tx.send(&mut sim, b.mac, 1, data.clone());
    sim.run();
    // Message is parked in system memory on b.
    assert_eq!(b.module.borrow().pending_len(1), 1);
    let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
    recv_into(&rx, &mut sim, &inbox);
    sim.run();
    assert_eq!(inbox.borrow().len(), 1);
    assert_eq!(inbox.borrow()[0].1.data, data);
    assert_eq!(b.module.borrow().pending_len(1), 0);
}

#[test]
fn large_message_fragments_and_reassembles() {
    let mut sim = Sim::new(0);
    let (a, b) = default_pair();
    let tx = bind_port(&a, 1);
    let rx = bind_port(&b, 1);
    let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
    recv_into(&rx, &mut sim, &inbox);
    let data = payload(100_000); // ~68 packets at MTU 1500
    tx.send(&mut sim, b.mac, 1, data.clone());
    sim.run();
    assert_eq!(inbox.borrow().len(), 1);
    assert_eq!(inbox.borrow()[0].1.data, data);
    let stats = a.module.borrow().stats();
    assert!(
        stats.packets_sent > 60,
        "expected many packets, got {}",
        stats.packets_sent
    );
    assert_eq!(stats.retransmits, 0);
}

#[test]
fn messages_delivered_in_order() {
    let mut sim = Sim::new(0);
    let (a, b) = default_pair();
    let tx = bind_port(&a, 1);
    let rx = bind_port(&b, 1);
    let done: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    // Chain 10 receives.
    fn chain(port: Rc<ClicPort>, sim: &mut Sim, done: Rc<RefCell<Vec<u8>>>, left: u32) {
        if left == 0 {
            return;
        }
        let p2 = port.clone();
        port.recv(sim, move |sim, msg| {
            done.borrow_mut().push(msg.data[0]);
            chain(p2, sim, done, left - 1);
        });
    }
    chain(Rc::new(rx), &mut sim, done.clone(), 10);
    for i in 0..10u8 {
        tx.send(&mut sim, b.mac, 1, Bytes::from(vec![i; 100]));
    }
    sim.run();
    assert_eq!(*done.borrow(), (0..10).collect::<Vec<u8>>());
}

#[test]
fn channels_are_independent() {
    let mut sim = Sim::new(0);
    let (a, b) = default_pair();
    let tx = bind_port(&a, 9);
    let rx1 = bind_port(&b, 1);
    let rx2 = bind_port(&b, 2);
    let (in1, in2): (Inbox, Inbox) = Default::default();
    recv_into(&rx1, &mut sim, &in1);
    recv_into(&rx2, &mut sim, &in2);
    tx.send(&mut sim, b.mac, 2, Bytes::from_static(b"two"));
    tx.send(&mut sim, b.mac, 1, Bytes::from_static(b"one"));
    sim.run();
    assert_eq!(&in1.borrow()[0].1.data[..], b"one");
    assert_eq!(&in2.borrow()[0].1.data[..], b"two");
}

#[test]
fn loss_recovered_by_retransmission() {
    let mut sim = Sim::new(7);
    let link = Link::gigabit();
    set_loss(&link, LossModel::EveryNth(10));
    let a = mk_node_on(
        1,
        NicConfig::gigabit_standard(),
        ClicConfig::paper_default(),
        vec![(link.clone(), LinkEnd::A)],
    );
    let b = mk_node_on(
        2,
        NicConfig::gigabit_standard(),
        ClicConfig::paper_default(),
        vec![(link, LinkEnd::B)],
    );
    let tx = bind_port(&a, 1);
    let rx = bind_port(&b, 1);
    let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
    recv_into(&rx, &mut sim, &inbox);
    let data = payload(50_000);
    tx.send(&mut sim, b.mac, 1, data.clone());
    sim.run();
    assert_eq!(inbox.borrow().len(), 1);
    assert_eq!(inbox.borrow()[0].1.data, data, "integrity under loss");
    let stats = a.module.borrow().stats();
    assert!(stats.retransmits > 0, "loss must trigger retransmissions");
}

#[test]
fn heavy_loss_still_converges() {
    let mut sim = Sim::new(3);
    let link = Link::gigabit();
    set_loss(&link, LossModel::Bernoulli(0.05));
    let a = mk_node_on(
        1,
        NicConfig::gigabit_standard(),
        ClicConfig::paper_default(),
        vec![(link.clone(), LinkEnd::A)],
    );
    let b = mk_node_on(
        2,
        NicConfig::gigabit_standard(),
        ClicConfig::paper_default(),
        vec![(link, LinkEnd::B)],
    );
    let tx = bind_port(&a, 1);
    let rx = bind_port(&b, 1);
    let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
    recv_into(&rx, &mut sim, &inbox);
    let data = payload(200_000);
    tx.send(&mut sim, b.mac, 1, data.clone());
    sim.set_event_limit(20_000_000);
    sim.run();
    assert_eq!(inbox.borrow().len(), 1);
    assert_eq!(inbox.borrow()[0].1.data, data);
}

#[test]
fn send_confirmed_fires_after_ack() {
    let mut sim = Sim::new(0);
    let (a, b) = default_pair();
    let _tx = bind_port(&a, 1);
    let _rx = bind_port(&b, 1);
    let confirmed: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    let c = confirmed.clone();
    let opts = SendOptions {
        confirm: Some(Box::new(move |sim: &mut Sim| {
            *c.borrow_mut() = Some(sim.now());
        })),
        ..SendOptions::data(b.mac, 1)
    };
    ClicModule::send(&a.module, &mut sim, opts, payload(3000));
    sim.run();
    let t = confirmed.borrow().expect("confirmation must fire");
    // Confirmation needs a round trip: strictly after the one-way time.
    assert!(
        t > SimTime::from_us(30),
        "confirmed at {t}, suspiciously early"
    );
    assert!(a.module.borrow().stats().acks_received > 0);
}

#[test]
fn remote_write_needs_no_recv_call() {
    let mut sim = Sim::new(0);
    let (a, b) = default_pair();
    let tx = bind_port(&a, 1);
    let pid = b.kernel.borrow_mut().processes.spawn();
    b.module.borrow_mut().register_remote_write(pid, 5);
    let data = payload(2000);
    tx.remote_write(&mut sim, b.mac, 5, data.clone());
    sim.run();
    let got = b.module.borrow_mut().take_remote_writes(5);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].data, data);
    // Nothing parked as a normal message.
    assert_eq!(b.module.borrow().pending_len(5), 0);
}

#[test]
#[should_panic(expected = "intra-node messaging is not modelled")]
fn send_to_own_station_panics() {
    let mut sim = Sim::new(0);
    let (a, _b) = default_pair();
    let tx = bind_port(&a, 1);
    tx.send(&mut sim, a.mac, 2, payload(4000));
    sim.run();
}

#[test]
fn broadcast_reaches_all_stations_on_switch() {
    let mut sim = Sim::new(0);
    let switch = Switch::gigabit_default();
    let mut nodes = Vec::new();
    for id in 1..=3u32 {
        let link = Link::gigabit();
        Switch::attach_port(&switch, link.clone(), LinkEnd::B);
        nodes.push(mk_node_on(
            id,
            NicConfig::gigabit_standard(),
            ClicConfig::paper_default(),
            vec![(link, LinkEnd::A)],
        ));
    }
    let tx = bind_port(&nodes[0], 1);
    let mut inboxes = Vec::new();
    for node in &nodes[1..] {
        let rx = bind_port(node, 1);
        let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
        recv_into(&rx, &mut sim, &inbox);
        inboxes.push(inbox);
    }
    tx.send(
        &mut sim,
        MacAddr::BROADCAST,
        1,
        Bytes::from_static(b"hello all"),
    );
    sim.run();
    for inbox in &inboxes {
        assert_eq!(inbox.borrow().len(), 1);
        assert_eq!(&inbox.borrow()[0].1.data[..], b"hello all");
    }
}

#[test]
fn multicast_group_delivery() {
    let mut sim = Sim::new(0);
    let switch = Switch::gigabit_default();
    let mut nodes = Vec::new();
    for id in 1..=3u32 {
        let link = Link::gigabit();
        Switch::attach_port(&switch, link.clone(), LinkEnd::B);
        nodes.push(mk_node_on(
            id,
            NicConfig::gigabit_standard(),
            ClicConfig::paper_default(),
            vec![(link, LinkEnd::A)],
        ));
    }
    let group = MacAddr::multicast_group(7);
    // Only node 2 joins.
    ClicModule::join_multicast(&nodes[1].module, group);
    let tx = bind_port(&nodes[0], 1);
    let rx_joined = bind_port(&nodes[1], 1);
    let rx_not = bind_port(&nodes[2], 1);
    let (in_joined, in_not): (Inbox, Inbox) = Default::default();
    recv_into(&rx_joined, &mut sim, &in_joined);
    recv_into(&rx_not, &mut sim, &in_not);
    tx.send(&mut sim, group, 1, Bytes::from_static(b"mc"));
    sim.run();
    assert_eq!(in_joined.borrow().len(), 1);
    assert_eq!(in_not.borrow().len(), 0, "non-member must not receive");
}

#[test]
fn channel_bonding_two_links() {
    let mut sim = Sim::new(0);
    sim.set_event_limit(10_000_000);
    let link0 = Link::gigabit();
    let link1 = Link::gigabit();
    // Real bonding drivers give every slave NIC the same MAC, so the bond
    // is one station reachable over either link. Build the nodes by hand
    // to model that.
    fn bonded_node(id: u32, links: Vec<(Rc<RefCell<Link>>, LinkEnd)>) -> Node {
        let kernel = Kernel::new(id, OsCosts::era_2002());
        let pci = PciBus::pci_33mhz_32bit();
        let mac = MacAddr::for_node(id, 0);
        let mut devs = Vec::new();
        for (link, end) in links {
            let nic = Nic::new(mac, NicConfig::gigabit_standard(), pci.clone(), link, end);
            Nic::attach_to_link(&nic);
            devs.push(Kernel::add_device(&kernel, nic));
        }
        let module = ClicModule::install(&kernel, devs, ClicConfig::paper_default());
        Node {
            kernel,
            module,
            mac,
        }
    }
    let a = bonded_node(
        1,
        vec![(link0.clone(), LinkEnd::A), (link1.clone(), LinkEnd::A)],
    );
    let b = bonded_node(2, vec![(link0, LinkEnd::B), (link1, LinkEnd::B)]);
    let tx = bind_port(&a, 1);
    let rx = bind_port(&b, 1);
    let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
    recv_into(&rx, &mut sim, &inbox);
    let data = payload(60_000);
    tx.send(&mut sim, b.mac, 1, data.clone());
    sim.run();
    assert_eq!(inbox.borrow().len(), 1);
    assert_eq!(inbox.borrow()[0].1.data, data, "reordering absorbed");
    // Both of a's NICs carried traffic.
    let tx0 = a.kernel.borrow().device(0).borrow().stats().tx_frames;
    let tx1 = a.kernel.borrow().device(1).borrow().stats().tx_frames;
    assert!(tx0 > 0 && tx1 > 0, "striping used both NICs: {tx0}/{tx1}");
}

#[test]
fn tiny_tx_ring_forces_staging_path() {
    let mut sim = Sim::new(0);
    let mut nic_cfg = NicConfig::gigabit_standard();
    nic_cfg.tx_ring = 2;
    let (a, b) = two_nodes(nic_cfg, ClicConfig::paper_default());
    let tx = bind_port(&a, 1);
    let rx = bind_port(&b, 1);
    let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
    recv_into(&rx, &mut sim, &inbox);
    let data = payload(80_000);
    tx.send(&mut sim, b.mac, 1, data.clone());
    sim.run();
    assert_eq!(inbox.borrow().len(), 1);
    assert_eq!(inbox.borrow()[0].1.data, data);
    let stats = a.module.borrow().stats();
    assert!(
        stats.staged_copies > 0,
        "tiny ring must exercise the staging branch"
    );
}

#[test]
fn one_copy_mode_charges_more_sender_cpu() {
    fn sender_cpu(zero_copy: bool) -> SimDuration {
        let mut sim = Sim::new(0);
        let cfg = if zero_copy {
            ClicConfig::paper_default()
        } else {
            ClicConfig::one_copy()
        };
        let (a, b) = two_nodes(NicConfig::gigabit_standard(), cfg);
        let tx = bind_port(&a, 1);
        let _rx = bind_port(&b, 1);
        tx.send(&mut sim, b.mac, 1, payload(9_000));
        sim.run();
        let cpu = a.kernel.borrow().cpu.clone();
        let t = cpu.borrow().busy_total();
        t
    }
    let zc = sender_cpu(true);
    let oc = sender_cpu(false);
    assert!(
        oc > zc + SimDuration::from_us(10),
        "1-copy {oc} should clearly exceed 0-copy {zc}"
    );
}

#[test]
fn jumbo_frames_use_fewer_packets() {
    fn packets(nic_cfg: NicConfig) -> u64 {
        let mut sim = Sim::new(0);
        let (a, b) = two_nodes(nic_cfg, ClicConfig::paper_default());
        let tx = bind_port(&a, 1);
        let rx = bind_port(&b, 1);
        let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
        recv_into(&rx, &mut sim, &inbox);
        tx.send(&mut sim, b.mac, 1, payload(90_000));
        sim.run();
        assert_eq!(inbox.borrow().len(), 1);
        let n = a.module.borrow().stats().packets_sent;
        n
    }
    let standard = packets(NicConfig::gigabit_standard());
    let jumbo = packets(NicConfig::gigabit_jumbo());
    assert!(
        jumbo * 5 < standard,
        "jumbo ({jumbo}) should use ~6x fewer packets than standard ({standard})"
    );
}

#[test]
fn direct_dispatch_reduces_latency() {
    fn latency(direct: bool) -> SimTime {
        let mut sim = Sim::new(0);
        let (a, b) = default_pair();
        b.kernel.borrow_mut().direct_dispatch = direct;
        let tx = bind_port(&a, 1);
        let rx = bind_port(&b, 1);
        let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
        recv_into(&rx, &mut sim, &inbox);
        tx.send(&mut sim, b.mac, 1, payload(1400));
        sim.run();
        let t = inbox.borrow()[0].0;
        t
    }
    let normal = latency(false);
    let direct = latency(true);
    assert!(
        direct < normal,
        "direct call ({direct}) must beat bottom-half path ({normal})"
    );
}

#[test]
fn multiprogramming_two_receivers_interleaved() {
    let mut sim = Sim::new(0);
    let (a, b) = default_pair();
    let tx1 = bind_port(&a, 10);
    let rx1 = bind_port(&b, 1);
    let rx2 = bind_port(&b, 2);
    let (in1, in2): (Inbox, Inbox) = Default::default();
    recv_into(&rx1, &mut sim, &in1);
    recv_into(&rx2, &mut sim, &in2);
    // Interleave traffic to both processes on node b.
    for i in 0..4u8 {
        let ch = 1 + (i % 2) as u16;
        tx1.send(&mut sim, b.mac, ch, Bytes::from(vec![i; 256]));
    }
    sim.run();
    assert_eq!(in1.borrow().len(), 1);
    assert_eq!(in2.borrow().len(), 1);
    // The remaining two messages are parked per channel.
    assert_eq!(b.module.borrow().pending_len(1), 1);
    assert_eq!(b.module.borrow().pending_len(2), 1);
    // Both processes experienced a wakeup.
    assert!(b.kernel.borrow().stats().context_switches >= 2);
}

#[test]
fn zero_byte_latency_near_paper_value() {
    // The paper reports 36 µs one-way latency for 0-byte messages. Accept a
    // generous band — the exact figure is a calibration product — but catch
    // order-of-magnitude regressions.
    let mut sim = Sim::new(0);
    let (a, b) = default_pair();
    let tx = bind_port(&a, 1);
    let rx = bind_port(&b, 1);
    let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
    recv_into(&rx, &mut sim, &inbox);
    tx.send(&mut sim, b.mac, 1, Bytes::new());
    sim.run();
    let t = inbox.borrow()[0].0;
    assert!(
        (SimTime::from_us(15)..SimTime::from_us(80)).contains(&t),
        "0-byte one-way latency {t} out of plausible band"
    );
}

#[test]
fn finite_buffering_throttles_sender_until_drained() {
    let mut sim = Sim::new(0);
    let mut clic_cfg = ClicConfig::paper_default();
    clic_cfg.max_pending_bytes = 60_000; // tiny port budget
    let (a, b) = two_nodes(NicConfig::gigabit_standard(), clic_cfg);
    let tx = bind_port(&a, 1);
    let rx = bind_port(&b, 1);
    // No receive posted: 20 x 20 KB park at the receiver and blow the
    // 60 KB budget; the excess is refused unacknowledged.
    let data = payload(20_000);
    for _ in 0..20 {
        tx.send(&mut sim, b.mac, 1, data.clone());
    }
    // Bound the run: the sender retransmits into a full port for a while.
    sim.run_until(clic_sim::SimTime::from_us(40_000));
    let stats = b.module.borrow().stats();
    assert!(stats.backlog_drops > 0, "budget must refuse packets");
    assert!(
        b.module.borrow().pending_len(1) < 20,
        "not everything may park"
    );
    // The application finally drains: every message is delivered intact
    // (reliability survives the throttling).
    let got: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
    fn drain(port: Rc<ClicPort>, sim: &mut Sim, got: Rc<RefCell<usize>>, left: usize) {
        if left == 0 {
            return;
        }
        let p = port.clone();
        port.recv(sim, move |sim, msg| {
            assert_eq!(msg.data.len(), 20_000);
            *got.borrow_mut() += 1;
            drain(p.clone(), sim, got, left - 1);
        });
    }
    drain(Rc::new(rx), &mut sim, got.clone(), 20);
    sim.set_event_limit(sim.events_executed() + 50_000_000);
    sim.run();
    assert_eq!(*got.borrow(), 20, "all messages delivered after draining");
}
