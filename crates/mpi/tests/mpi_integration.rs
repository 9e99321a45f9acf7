//! End-to-end tests of the MPI-like and PVM-like layers over both
//! transports (CLIC and TCP), on full simulated nodes.

#![allow(clippy::type_complexity)]

use bytes::Bytes;
use clic_core::{ClicConfig, ClicModule};
use clic_ethernet::{Link, LinkEnd, MacAddr, Switch};
use clic_hw::coll::CollConfig;
use clic_hw::{Nic, NicConfig, PciBus};
use clic_mpi::collectives;
use clic_mpi::collectives::CollBackend;
use clic_mpi::transport::{ClicTransport, TcpTransport, Transport};
use clic_mpi::{Mpi, Pvm, ANY_SOURCE, ANY_TAG};
use clic_os::{Kernel, OsCosts};
use clic_sim::{Sim, SimTime};
use clic_tcpip::{IpAddr, TcpIpCosts, TcpStack};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

struct Node {
    kernel: Rc<RefCell<Kernel>>,
    clic: Rc<RefCell<ClicModule>>,
    tcp: Rc<RefCell<TcpStack>>,
    nic: Rc<RefCell<Nic>>,
}

/// Build `n` full nodes on a switch, each with CLIC and TCP installed.
/// The caller keeps the switch: its links hold it weakly.
fn mk_cluster(sim: &mut Sim, n: usize) -> (Rc<RefCell<Switch>>, Vec<Node>) {
    let switch = Switch::gigabit_default();
    let mut nodes = Vec::new();
    for id in 0..n as u32 {
        let link = Link::gigabit();
        Switch::attach_port(&switch, link.clone(), LinkEnd::B);
        let kernel = Kernel::new(id, OsCosts::era_2002());
        let nic = Nic::new(
            MacAddr::for_node(id, 0),
            NicConfig::gigabit_standard(),
            PciBus::pci_33mhz_32bit(),
            link,
            LinkEnd::A,
        );
        Nic::attach_to_link(&nic);
        let dev = Kernel::add_device(&kernel, nic.clone());
        let clic = ClicModule::install(&kernel, vec![dev], ClicConfig::paper_default());
        let mut neighbors = BTreeMap::new();
        for peer in 0..n as u32 {
            neighbors.insert(IpAddr::for_node(peer), MacAddr::for_node(peer, 0));
        }
        let tcp = TcpStack::install(
            &kernel,
            dev,
            IpAddr::for_node(id),
            neighbors,
            TcpIpCosts::era_2002(),
        );
        nodes.push(Node {
            kernel,
            clic,
            tcp,
            nic,
        });
    }
    let _ = sim;
    (switch, nodes)
}

fn mpi_over_clic(sim: &mut Sim, nodes: &[Node]) -> Vec<Rc<Mpi>> {
    let peers: Vec<MacAddr> = (0..nodes.len() as u32)
        .map(|id| MacAddr::for_node(id, 0))
        .collect();
    nodes
        .iter()
        .enumerate()
        .map(|(rank, node)| {
            let pid = node.kernel.borrow_mut().processes.spawn();
            let t = ClicTransport::new(sim, &node.clic, pid, rank, peers.clone());
            Mpi::new(&node.kernel, t)
        })
        .collect()
}

fn mpi_over_tcp(sim: &mut Sim, nodes: &[Node]) -> Vec<Rc<Mpi>> {
    let ips: Vec<IpAddr> = (0..nodes.len() as u32).map(IpAddr::for_node).collect();
    let transports: Vec<Rc<TcpTransport>> = nodes
        .iter()
        .enumerate()
        .map(|(rank, node)| TcpTransport::new(sim, &node.tcp, rank, ips.clone()))
        .collect();
    sim.run();
    assert!(
        transports.iter().all(|t| t.ready()),
        "TCP mesh must establish"
    );
    nodes
        .iter()
        .zip(&transports)
        .map(|(node, t)| Mpi::new(&node.kernel, t.clone() as Rc<dyn Transport>))
        .collect()
}

fn payload(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
}

#[test]
fn clic_backend_send_recv() {
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 2);
    let mpis = mpi_over_clic(&mut sim, &nodes);
    let got: Rc<RefCell<Option<(usize, i32, Bytes)>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    mpis[1].recv(&mut sim, 0, 7, move |_s, m| {
        *g.borrow_mut() = Some((m.src, m.tag, m.data))
    });
    let data = payload(5000);
    mpis[0].send(&mut sim, 1, 7, data.clone());
    sim.run();
    let got = got.borrow();
    let (src, tag, bytes) = got.as_ref().unwrap();
    assert_eq!((*src, *tag), (0, 7));
    assert_eq!(bytes, &data);
}

#[test]
fn tcp_backend_send_recv() {
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 2);
    let mpis = mpi_over_tcp(&mut sim, &nodes);
    let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    mpis[0].recv(&mut sim, 1, 3, move |_s, m| *g.borrow_mut() = Some(m.data));
    let data = payload(40_000);
    mpis[1].send(&mut sim, 0, 3, data.clone());
    sim.run();
    assert_eq!(got.borrow().as_ref().unwrap(), &data);
}

#[test]
fn wildcard_matching() {
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 3);
    let mpis = mpi_over_clic(&mut sim, &nodes);
    let order: Rc<RefCell<Vec<(usize, i32)>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..2 {
        let o = order.clone();
        mpis[0].recv(&mut sim, ANY_SOURCE, ANY_TAG, move |_s, m| {
            o.borrow_mut().push((m.src, m.tag))
        });
    }
    mpis[1].send(&mut sim, 0, 11, Bytes::from_static(b"one"));
    mpis[2].send(&mut sim, 0, 22, Bytes::from_static(b"two"));
    sim.run();
    let got = order.borrow();
    assert_eq!(got.len(), 2);
    assert!(got.contains(&(1, 11)));
    assert!(got.contains(&(2, 22)));
}

#[test]
fn selective_tag_matching_with_unexpected_queue() {
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 2);
    let mpis = mpi_over_clic(&mut sim, &nodes);
    // Send tag 1 then tag 2; receive tag 2 first, then tag 1.
    mpis[0].send(&mut sim, 1, 1, Bytes::from_static(b"first-sent"));
    mpis[0].send(&mut sim, 1, 2, Bytes::from_static(b"second-sent"));
    sim.run();
    let order: Rc<RefCell<Vec<i32>>> = Rc::new(RefCell::new(Vec::new()));
    let o = order.clone();
    mpis[1].recv(&mut sim, ANY_SOURCE, 2, move |_s, m| {
        o.borrow_mut().push(m.tag)
    });
    sim.run();
    let o = order.clone();
    mpis[1].recv(&mut sim, ANY_SOURCE, 1, move |_s, m| {
        o.borrow_mut().push(m.tag)
    });
    sim.run();
    assert_eq!(*order.borrow(), vec![2, 1]);
    assert!(mpis[1].unexpected_peak() >= 1);
}

#[test]
fn pingpong_roundtrip_over_clic() {
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 2);
    let mpis = mpi_over_clic(&mut sim, &nodes);
    let done: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    // Rank 1 echoes.
    let m1 = mpis[1].clone();
    mpis[1].recv(&mut sim, 0, 5, move |sim, m| {
        m1.send(sim, 0, 6, m.data);
    });
    // Rank 0 sends and waits for the echo.
    let d = done.clone();
    mpis[0].recv(&mut sim, 1, 6, move |sim, _| {
        *d.borrow_mut() = Some(sim.now());
    });
    mpis[0].send(&mut sim, 1, 5, payload(1000));
    sim.run();
    let rtt = done.borrow().unwrap();
    assert!(
        rtt < SimTime::from_us(300),
        "1000-byte MPI round trip {rtt} too slow"
    );
}

#[test]
fn barrier_synchronizes_all_ranks() {
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 4);
    let mpis = mpi_over_clic(&mut sim, &nodes);
    let released: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    for mpi in &mpis {
        let r = released.clone();
        let rank = mpi.rank();
        collectives::barrier(mpi, &mut sim, move |_s| r.borrow_mut().push(rank));
    }
    sim.run();
    let mut got = released.borrow().clone();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1, 2, 3]);
}

#[test]
fn pvm_pack_send_recv_unpack() {
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 2);
    let ips: Vec<IpAddr> = (0..2u32).map(IpAddr::for_node).collect();
    let t0 = TcpTransport::new(&mut sim, &nodes[0].tcp, 0, ips.clone());
    let t1 = TcpTransport::new(&mut sim, &nodes[1].tcp, 1, ips);
    sim.run();
    assert!(t0.ready() && t1.ready());
    let pvm0 = Pvm::new(&nodes[0].kernel, t0 as Rc<dyn Transport>);
    let pvm1 = Pvm::new(&nodes[1].kernel, t1 as Rc<dyn Transport>);
    let data = payload(8000);
    let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    pvm1.recv(&mut sim, -1, 9, move |_s, m| *g.borrow_mut() = Some(m.data));
    let p0 = pvm0.clone();
    let d2 = data.clone();
    pvm0.pack(&mut sim, data.clone(), move |sim| {
        p0.send(sim, 1, 9);
        let _ = &d2;
    });
    sim.run();
    assert_eq!(got.borrow().as_ref().unwrap(), &data);
}

#[test]
fn pvm_costs_more_cpu_than_mpi() {
    // The Figure 6 ordering depends on PVM paying pack/unpack copies.
    fn run(pvm: bool) -> clic_sim::SimDuration {
        let mut sim = Sim::new(0);
        let (_switch, nodes) = mk_cluster(&mut sim, 2);
        let ips: Vec<IpAddr> = (0..2u32).map(IpAddr::for_node).collect();
        let t0 = TcpTransport::new(&mut sim, &nodes[0].tcp, 0, ips.clone());
        let t1 = TcpTransport::new(&mut sim, &nodes[1].tcp, 1, ips);
        sim.run();
        let data = payload(60_000);
        // The endpoints outlive the run: their transports hold them weakly.
        let _endpoints: [Rc<dyn std::any::Any>; 2] = if pvm {
            let pvm0 = Pvm::new(&nodes[0].kernel, t0 as Rc<dyn Transport>);
            let pvm1 = Pvm::new(&nodes[1].kernel, t1 as Rc<dyn Transport>);
            pvm1.recv(&mut sim, -1, 1, |_s, _m| {});
            let p0 = pvm0.clone();
            pvm0.pack(&mut sim, data, move |sim| p0.send(sim, 1, 1));
            [pvm0, pvm1]
        } else {
            let m0 = Mpi::new(&nodes[0].kernel, t0 as Rc<dyn Transport>);
            let m1 = Mpi::new(&nodes[1].kernel, t1 as Rc<dyn Transport>);
            m1.recv(&mut sim, ANY_SOURCE, 1, |_s, _m| {});
            m0.send(&mut sim, 1, 1, data);
            [m0, m1]
        };
        sim.run();
        let cpu = nodes[0].kernel.borrow().cpu.clone();
        let t = cpu.borrow().busy_total();
        t
    }
    let mpi_cpu = run(false);
    let pvm_cpu = run(true);
    assert!(
        pvm_cpu > mpi_cpu,
        "PVM sender CPU {pvm_cpu} must exceed MPI's {mpi_cpu}"
    );
}

#[test]
fn large_transfer_over_both_backends_identical_payload() {
    let data = payload(150_000);
    for backend in ["clic", "tcp"] {
        let mut sim = Sim::new(0);
        let (_switch, nodes) = mk_cluster(&mut sim, 2);
        let mpis = if backend == "clic" {
            mpi_over_clic(&mut sim, &nodes)
        } else {
            mpi_over_tcp(&mut sim, &nodes)
        };
        let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
        let g = got.clone();
        mpis[1].recv(&mut sim, 0, 1, move |_s, m| *g.borrow_mut() = Some(m.data));
        mpis[0].send(&mut sim, 1, 1, data.clone());
        sim.set_event_limit(50_000_000);
        sim.run();
        assert_eq!(
            got.borrow().as_ref().unwrap(),
            &data,
            "backend {backend} corrupted payload"
        );
    }
}

#[test]
fn rendezvous_used_above_eager_limit() {
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 2);
    let mpis = mpi_over_clic(&mut sim, &nodes);
    mpis[0].set_eager_limit(4096);
    let big = payload(50_000);
    let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    mpis[1].recv(&mut sim, 0, 3, move |_s, m| *g.borrow_mut() = Some(m.data));
    mpis[0].send(&mut sim, 1, 3, big.clone());
    sim.run();
    assert_eq!(got.borrow().as_ref().unwrap(), &big);
    assert_eq!(
        mpis[0].rendezvous_started(),
        1,
        "must take the RTS/CTS path"
    );
}

#[test]
fn rendezvous_rts_before_recv_posted() {
    // The announce arrives before any matching receive exists: it must be
    // remembered and complete once the receive is posted.
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 2);
    let mpis = mpi_over_clic(&mut sim, &nodes);
    mpis[0].set_eager_limit(1024);
    let big = payload(20_000);
    mpis[0].send(&mut sim, 1, 9, big.clone());
    sim.run(); // RTS delivered, no recv posted yet
    let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    mpis[1].recv(&mut sim, 0, 9, move |_s, m| *g.borrow_mut() = Some(m.data));
    sim.run();
    assert_eq!(got.borrow().as_ref().unwrap(), &big);
}

#[test]
fn rendezvous_bounds_receiver_buffering() {
    // Ten large unexpected messages: with rendezvous only the tiny RTS
    // packets buffer at the receiver, not the payloads.
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 2);
    let mpis = mpi_over_clic(&mut sim, &nodes);
    mpis[0].set_eager_limit(1024);
    for _ in 0..10 {
        mpis[0].send(&mut sim, 1, 4, payload(30_000));
    }
    sim.run();
    // Nothing in the unexpected EAGER queue; the data has not moved yet.
    assert_eq!(mpis[1].unexpected_peak(), 0);
    let count: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
    for _ in 0..10 {
        let c = count.clone();
        mpis[1].recv(&mut sim, 0, 4, move |_s, m| {
            assert_eq!(m.data.len(), 30_000);
            *c.borrow_mut() += 1;
        });
    }
    sim.run();
    assert_eq!(*count.borrow(), 10);
}

#[test]
fn gather_collects_by_rank() {
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 4);
    let mpis = mpi_over_clic(&mut sim, &nodes);
    let result: Rc<RefCell<Option<Vec<Bytes>>>> = Rc::new(RefCell::new(None));
    for mpi in &mpis {
        let rank = mpi.rank();
        let r = result.clone();
        collectives::gather(
            mpi,
            &mut sim,
            2,
            Bytes::from(vec![rank as u8; rank + 1]),
            move |_s, slots| {
                if !slots.is_empty() {
                    *r.borrow_mut() = Some(slots);
                }
            },
        );
    }
    sim.run();
    let slots = result.borrow().clone().expect("root must gather");
    assert_eq!(slots.len(), 4);
    for (rank, piece) in slots.iter().enumerate() {
        assert_eq!(piece.len(), rank + 1);
        assert!(piece.iter().all(|&b| b == rank as u8));
    }
}

#[test]
fn allreduce_sums_across_ranks() {
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 4);
    let mpis = mpi_over_clic(&mut sim, &nodes);
    let sums: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    for mpi in &mpis {
        let s = sums.clone();
        let value = (mpi.rank() as u64 + 1) * 10; // 10+20+30+40 = 100
        collectives::allreduce_sum(mpi, &mut sim, value, move |_sim, total| {
            s.borrow_mut().push(total)
        });
    }
    sim.run();
    assert_eq!(*sums.borrow(), vec![100, 100, 100, 100]);
}

// ----------------------------------------------------------------------
// NIC-offloaded collectives: the backend switch must not change results
// ----------------------------------------------------------------------

/// Arm every node's NIC collective engine for `group` over the whole
/// cluster membership.
fn arm_collectives(nodes: &[Node], group: u32) {
    let members: Vec<MacAddr> = (0..nodes.len() as u32)
        .map(|id| MacAddr::for_node(id, 0))
        .collect();
    for (rank, node) in nodes.iter().enumerate() {
        Nic::enable_collectives(&node.nic, CollConfig::new(group, members.clone(), rank));
    }
}

/// Run barrier + allreduce on `backends`, returning
/// (barrier completions, allreduce results per rank).
fn run_collective_suite(
    sim: &mut Sim,
    backends: &[CollBackend],
    values: &[u64],
) -> (u32, Vec<u64>) {
    let n = backends.len();
    let barriers = Rc::new(RefCell::new(0u32));
    let sums: Rc<RefCell<Vec<Option<u64>>>> = Rc::new(RefCell::new(vec![None; n]));
    for (rank, backend) in backends.iter().enumerate() {
        let b = barriers.clone();
        collectives::barrier_on(backend, sim, move |_sim| *b.borrow_mut() += 1);
        let s = sums.clone();
        collectives::allreduce_sum_on(backend, sim, values[rank], move |_sim, total| {
            s.borrow_mut()[rank] = Some(total);
        });
    }
    sim.run();
    let sums = sums
        .borrow()
        .iter()
        .map(|s| s.expect("allreduce done"))
        .collect();
    let b = *barriers.borrow();
    (b, sums)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// The host-based (linear, through the full OS stack) and the
    /// NIC-offloaded (firmware combining tree) backends must produce
    /// identical collective results for arbitrary cluster sizes and
    /// contributions — they differ only in cost.
    #[test]
    fn nic_and_host_collectives_agree(
        n in 2usize..10,
        raw in proptest::collection::vec(0u64..1_000_000, 16..17),
    ) {
        let values: Vec<u64> = raw[..n].to_vec();
        let expected: u64 = values.iter().sum();

        let mut host_sim = Sim::new(1);
        let (_host_switch, host_nodes) = mk_cluster(&mut host_sim, n);
        let host_backends: Vec<CollBackend> = mpi_over_clic(&mut host_sim, &host_nodes)
            .into_iter()
            .map(CollBackend::Host)
            .collect();
        let (hb, hs) = run_collective_suite(&mut host_sim, &host_backends, &values);

        let mut nic_sim = Sim::new(1);
        let (_nic_switch, nic_nodes) = mk_cluster(&mut nic_sim, n);
        arm_collectives(&nic_nodes, 7);
        let nic_backends: Vec<CollBackend> = nic_nodes
            .iter()
            .map(|node| CollBackend::NicOffload(node.nic.clone()))
            .collect();
        let (nb, ns) = run_collective_suite(&mut nic_sim, &nic_backends, &values);

        prop_assert_eq!(hb, n as u32);
        prop_assert_eq!(nb, n as u32);
        prop_assert_eq!(&hs, &vec![expected; n]);
        prop_assert_eq!(&ns, &vec![expected; n]);

        // The offload must keep collective traffic out of the host: zero
        // interrupts and zero RX-ring occupancy from collective frames.
        for node in &nic_nodes {
            let st = node.nic.borrow().stats();
            prop_assert!(st.coll_msgs_rx > 0 || n == 1);
            prop_assert_eq!(st.coll_completions, 2);
        }
    }
}

/// Whether `part` lies inside `whole`'s allocation.
fn inside(part: &Bytes, whole: &Bytes) -> bool {
    let (p, w) = (part.as_ptr() as usize, whole.as_ptr() as usize);
    w <= p && p + part.len() <= w + whole.len()
}

/// Receive from rank 0 into a shared slot: every delivered message.
fn collect(sim: &mut Sim, mpi: &Rc<Mpi>, tag: i32, n: usize) -> Rc<RefCell<Vec<Bytes>>> {
    let got: Rc<RefCell<Vec<Bytes>>> = Rc::default();
    for _ in 0..n {
        let g = got.clone();
        mpi.recv(sim, 0, tag, move |_s, m| g.borrow_mut().push(m.data));
    }
    got
}

#[test]
fn mpi_over_clic_delivers_the_senders_buffer() {
    // The envelope rides in the first packet's head, so the payload
    // arrives as a view of the sender's buffer on both protocols: eager
    // below the limit, rendezvous (RTS, CTS, then the data) above it.
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 2);
    let mpis = mpi_over_clic(&mut sim, &nodes);
    mpis[0].set_eager_limit(16_384);
    let (eager, rendezvous) = (payload(5_000), payload(50_000));
    let got = collect(&mut sim, &mpis[1], 4, 2);
    mpis[0].send(&mut sim, 1, 4, eager.clone());
    mpis[0].send(&mut sim, 1, 4, rendezvous.clone());
    sim.run();
    assert_eq!(mpis[0].rendezvous_started(), 1);
    let got = got.borrow();
    assert_eq!(*got, [eager.clone(), rendezvous.clone()]);
    assert!(inside(&got[0], &eager), "eager payload copied");
    assert!(inside(&got[1], &rendezvous), "rendezvous payload copied");
}

#[test]
fn mpi_over_tcp_delivers_the_senders_buffer() {
    // The length prefix and envelope go out as the head of one send and
    // each read takes the envelope apart from the payload, which is then
    // a view of the sender's buffer. Sent back to back, two messages share
    // a segment: the earlier one's last bytes ride in its head, copied,
    // and the later one's payload still arrives uncopied.
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 2);
    let mpis = mpi_over_tcp(&mut sim, &nodes);
    let (alone, earlier, later) = (payload(40_001), payload(30_000), payload(20_000));
    let got = collect(&mut sim, &mpis[1], 6, 3);
    mpis[0].send(&mut sim, 1, 6, alone.clone());
    sim.run();
    mpis[0].send(&mut sim, 1, 6, earlier.clone());
    mpis[0].send(&mut sim, 1, 6, later.clone());
    sim.run();
    let got = got.borrow();
    assert_eq!(*got, [alone.clone(), earlier, later.clone()]);
    assert!(inside(&got[0], &alone), "payload copied");
    assert!(inside(&got[2], &later), "the later send's payload copied");
}

#[test]
fn pvm_over_tcp_delivers_the_senders_buffer() {
    let mut sim = Sim::new(0);
    let (_switch, nodes) = mk_cluster(&mut sim, 2);
    let ips: Vec<IpAddr> = (0..2u32).map(IpAddr::for_node).collect();
    let t0 = TcpTransport::new(&mut sim, &nodes[0].tcp, 0, ips.clone());
    let t1 = TcpTransport::new(&mut sim, &nodes[1].tcp, 1, ips);
    sim.run();
    let pvm0 = Pvm::new(&nodes[0].kernel, t0 as Rc<dyn Transport>);
    let pvm1 = Pvm::new(&nodes[1].kernel, t1 as Rc<dyn Transport>);
    let data = payload(30_000);
    let got: Rc<RefCell<Option<Bytes>>> = Rc::default();
    let g = got.clone();
    pvm1.recv(&mut sim, -1, 2, move |_s, m| *g.borrow_mut() = Some(m.data));
    let p0 = pvm0.clone();
    pvm0.pack(&mut sim, data.clone(), move |sim| p0.send(sim, 1, 2));
    sim.run();
    let got = got.borrow_mut().take().expect("delivered");
    assert_eq!(got, data);
    assert!(inside(&got, &data), "PVM payload copied");
}
