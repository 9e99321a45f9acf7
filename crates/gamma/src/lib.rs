//! # clic-gamma — a GAMMA-like active-ports baseline
//!
//! §3.2 and §5 of the paper compare CLIC against GAMMA (Genoa Active
//! Message MAchine): GAMMA achieves lower latency (32 µs on GA620-class
//! hardware, 9.5 µs with the GII NIC) and higher bandwidth (768–824 Mb/s)
//! by giving up what CLIC keeps:
//!
//! * **lightweight system calls** — no scheduler pass on return (§3.2(a)),
//! * **active ports** — the receive handler runs straight out of the
//!   interrupt path into user memory; no bottom halves, no wakeups, no
//!   parked messages,
//! * **no transport reliability** — a lost frame is a lost message,
//! * **a minimal 8-byte header** and no ACK traffic.
//!
//! This crate is a *model calibrated to GAMMA's published figures*, not a
//! port of GAMMA (DESIGN.md §5); it exists to regenerate the §5 comparison
//! table with the same methodology as the CLIC and TCP numbers.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use bytes::{BufMut, Bytes, BytesMut, Gather};
use clic_ethernet::{EtherType, Frame, MacAddr};
use clic_os::driver::hard_start_xmit;
use clic_os::{Kernel, PacketHandler, SkBuff};
use clic_sim::{Sim, SimDuration};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::{Rc, Weak};

/// GAMMA-like header: port(2) + total message length(4) + fragment
/// offset(2, in MTU units... kept as plain u16 fragment index).
pub const GAMMA_HEADER: usize = 8;

/// A delivered message.
#[derive(Debug, Clone)]
pub struct GammaMsg {
    /// Sender station.
    pub src: MacAddr,
    /// Active port it arrived on.
    pub port: u16,
    /// Message bytes.
    pub data: Bytes,
}

/// Per-port activity counters.
#[derive(Debug, Default, Clone)]
pub struct GammaStats {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Packets sent.
    pub packets_sent: u64,
    /// Messages fully delivered.
    pub msgs_received: u64,
    /// Packets received.
    pub packets_received: u64,
    /// Reassemblies abandoned because a fragment went missing (detected
    /// when a new message starts before the old one completed).
    pub broken_messages: u64,
}

/// Per-operation CPU costs — leaner than CLIC's by construction.
#[derive(Debug, Clone, Copy)]
pub struct GammaCosts {
    /// Send-side per-packet work.
    pub tx_per_packet: SimDuration,
    /// Receive-side per-packet work (header parse + handler dispatch).
    pub rx_per_packet: SimDuration,
}

impl GammaCosts {
    /// Calibrated to GAMMA's published overheads.
    pub fn era_2002() -> GammaCosts {
        GammaCosts {
            tx_per_packet: SimDuration::from_ns(400),
            rx_per_packet: SimDuration::from_ns(400),
        }
    }
}

type PortHandler = Rc<dyn Fn(&mut Sim, GammaMsg)>;

struct Assembly {
    buf: Gather,
    port: u16,
}

/// One message's packets (each a header and its data) and their station.
struct Outgoing {
    dst: MacAddr,
    packets: VecDeque<(Bytes, Bytes)>,
}

/// The GAMMA-like kernel module of one node.
pub struct GammaModule {
    kernel: Weak<RefCell<Kernel>>,
    dev: usize,
    mac: MacAddr,
    max_chunk: usize,
    costs: GammaCosts,
    ports: BTreeMap<u16, PortHandler>,
    assembling: BTreeMap<MacAddr, Assembly>,
    /// Messages waiting for the NIC, in send order; the first is posting.
    /// The receiver assumes a source's fragments arrive in order, so one
    /// message's packets all go out before the next message's first.
    outgoing: VecDeque<Outgoing>,
    stats: GammaStats,
}

struct Handler(Rc<RefCell<GammaModule>>);

impl PacketHandler for Handler {
    fn handle(&self, sim: &mut Sim, kernel: &Rc<RefCell<Kernel>>, _dev: usize, frame: Frame) {
        GammaModule::on_frame(&self.0, sim, kernel, frame);
    }
}

impl GammaModule {
    /// NIC configuration GAMMA programs for latency: no interrupt
    /// coalescing (GAMMA ships its own driver, unlike CLIC), and a deep RX
    /// ring — GAMMA has no transport-level flow control, so burst
    /// absorption is all the reliability it gets (its MPICH port added
    /// flow control for exactly this reason).
    pub fn tuned_nic_config() -> clic_hw::NicConfig {
        let mut cfg = clic_hw::NicConfig::gigabit_standard();
        cfg.coalesce_usecs = 0;
        cfg.coalesce_frames = 1;
        cfg.rx_ring = 4096;
        cfg
    }

    /// OS cost model for a GAMMA node: the rewritten driver strips the
    /// stock driver's bookkeeping (this is exactly the portability the
    /// paper trades away by *not* modifying drivers).
    pub fn tuned_os_costs() -> clic_os::OsCosts {
        let mut c = clic_os::OsCosts::era_2002();
        c.irq_entry = SimDuration::from_ns(1_500);
        c.driver_irq_fixed = SimDuration::from_ns(1_000);
        c.driver_rx_per_frame = SimDuration::from_ns(500);
        c.driver_tx_per_frame = SimDuration::from_ns(500);
        c
    }

    /// Install on `kernel` device `dev`. Switches the kernel to direct
    /// dispatch (active messages run straight from the interrupt path) —
    /// install GAMMA on dedicated nodes.
    pub fn install(kernel: &Rc<RefCell<Kernel>>, dev: usize) -> Rc<RefCell<GammaModule>> {
        let (mac, mtu) = {
            let k = kernel.borrow();
            let nic = k.device(dev);
            let (mac, mtu) = (nic.borrow().mac(), nic.borrow().mtu());
            (mac, mtu)
        };
        kernel.borrow_mut().direct_dispatch = true;
        let module = Rc::new(RefCell::new(GammaModule {
            kernel: Rc::downgrade(kernel),
            dev,
            mac,
            max_chunk: mtu - GAMMA_HEADER,
            costs: GammaCosts::era_2002(),
            ports: BTreeMap::new(),
            assembling: BTreeMap::new(),
            outgoing: VecDeque::new(),
            stats: GammaStats::default(),
        }));
        kernel
            .borrow_mut()
            .register_handler(EtherType::GAMMA.0, Rc::new(Handler(module.clone())));
        module
    }

    /// This node's station address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Counters snapshot.
    pub fn stats(&self) -> GammaStats {
        self.stats.clone()
    }

    /// Register the active handler for `port`.
    pub fn register_port(&mut self, port: u16, handler: impl Fn(&mut Sim, GammaMsg) + 'static) {
        let prev = self.ports.insert(port, Rc::new(handler));
        assert!(prev.is_none(), "GAMMA port {port} already active");
    }

    /// Send `data` to (`dst`, `port`) — best effort, 0-copy, through a
    /// lightweight system call.
    pub fn send(
        module: &Rc<RefCell<GammaModule>>,
        sim: &mut Sim,
        dst: MacAddr,
        port: u16,
        data: Bytes,
    ) {
        let kernel = module.borrow().kernel.upgrade().expect("kernel dropped");
        let module2 = module.clone();
        Kernel::lightweight_call(&kernel.clone(), sim, move |sim| {
            let (chunks, cost) = {
                let mut m = module2.borrow_mut();
                m.stats.msgs_sent += 1;
                // Each packet is its 8-byte header and a slice of the
                // message, sent from user memory as it lies.
                let mut chunks = Vec::new();
                let total = data.len();
                let mut off = 0usize;
                loop {
                    let end = (off + m.max_chunk).min(total);
                    let mut head = BytesMut::with_capacity(GAMMA_HEADER);
                    head.put_u16(port);
                    head.put_u32(total as u32);
                    head.put_u16((off / m.max_chunk) as u16);
                    chunks.push((head.freeze(), data.slice(off..end)));
                    if end >= total {
                        break;
                    }
                    off = end;
                }
                m.stats.packets_sent += chunks.len() as u64;
                (chunks, m.costs.tx_per_packet)
            };
            let n = chunks.len() as u64;
            Kernel::cpu_task(&kernel, sim, cost * n, move |sim| {
                let idle = {
                    let mut m = module2.borrow_mut();
                    let packets = chunks.into();
                    m.outgoing.push_back(Outgoing { dst, packets });
                    m.outgoing.len() == 1
                };
                if idle {
                    GammaModule::post_next(&module2, sim, 0);
                }
            });
        });
    }

    /// Post the next packet of the first outgoing message, moving on to
    /// the next message once one is fully posted. Fragments must hit the
    /// wire in order; a refused post is retried after a short spin, as
    /// GAMMA's user-level send loop does.
    fn post_next(module: &Rc<RefCell<GammaModule>>, sim: &mut Sim, retries: u32) {
        let (kernel, dev, dst, pkt) = {
            let mut m = module.borrow_mut();
            let (dst, pkt) = loop {
                let Some(msg) = m.outgoing.front_mut() else {
                    return;
                };
                match msg.packets.pop_front() {
                    Some(pkt) => break (msg.dst, pkt),
                    None => {
                        m.outgoing.pop_front();
                    }
                }
            };
            let kernel = m.kernel.upgrade().expect("kernel dropped");
            (kernel, m.dev, dst, pkt)
        };
        let skb = SkBuff::zero_copy(pkt.0.clone(), pkt.1.clone());
        let module2 = module.clone();
        hard_start_xmit(
            &kernel,
            sim,
            dev,
            dst,
            EtherType::GAMMA,
            skb,
            move |sim, ok| {
                if ok {
                    GammaModule::post_next(&module2, sim, 0);
                } else if retries < 10_000 {
                    module2.borrow_mut().outgoing[0].packets.push_front(pkt);
                    sim.schedule_in(SimDuration::from_us(5), move |sim| {
                        GammaModule::post_next(&module2, sim, retries + 1);
                    });
                } else {
                    // After exhausting retries the rest of the message is
                    // lost — best effort ends somewhere.
                    module2.borrow_mut().outgoing.pop_front();
                    GammaModule::post_next(&module2, sim, 0);
                }
            },
        );
    }

    fn on_frame(
        module: &Rc<RefCell<GammaModule>>,
        sim: &mut Sim,
        kernel: &Rc<RefCell<Kernel>>,
        frame: Frame,
    ) {
        let cost = module.borrow().costs.rx_per_packet;
        let module2 = module.clone();
        Kernel::cpu_task(kernel, sim, cost, move |sim| {
            let delivery = {
                let mut m = module2.borrow_mut();
                m.stats.packets_received += 1;
                let Some((p, rest)): Option<([u8; GAMMA_HEADER], _)> = frame.split_header() else {
                    return;
                };
                let rest = rest.join();
                let port = u16::from_be_bytes([p[0], p[1]]);
                let total = u32::from_be_bytes([p[2], p[3], p[4], p[5]]) as usize;
                let index = u16::from_be_bytes([p[6], p[7]]) as usize;
                let chunk_cap = m.max_chunk;
                let body_len = (total - (index * chunk_cap).min(total)).min(chunk_cap);
                if rest.len() < body_len {
                    return; // truncated
                }
                let body = rest.slice(..body_len);
                if index == 0 {
                    if m.assembling.remove(&frame.src).is_some() {
                        m.stats.broken_messages += 1;
                    }
                    m.assembling.insert(
                        frame.src,
                        Assembly {
                            buf: Gather::new(total),
                            port,
                        },
                    );
                }
                let Some(a) = m.assembling.get_mut(&frame.src) else {
                    return; // middle fragment of a lost head
                };
                // In-order arrival assumed (switched Ethernet): a gap means
                // the message is unrecoverable; detected at next head.
                if a.buf.len() != index * chunk_cap {
                    return;
                }
                // Fragments of one user buffer join into a view of it.
                a.buf.push(body);
                if a.buf.is_complete() {
                    let a = m.assembling.remove(&frame.src).unwrap();
                    m.stats.msgs_received += 1;
                    let handler = m.ports.get(&a.port).cloned();
                    handler.map(|h| {
                        (
                            h,
                            GammaMsg {
                                src: frame.src,
                                port: a.port,
                                data: a.buf.finish(),
                            },
                        )
                    })
                } else {
                    None
                }
            };
            if let Some((handler, msg)) = delivery {
                // Active message: the handler runs now, in the receive
                // path, against user memory.
                handler(sim, msg);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clic_ethernet::{FaultPlan, Link, LinkEnd, LossModel};
    use clic_hw::{Nic, PciBus};
    use clic_sim::SimTime;

    struct Node {
        // Held so the module's Weak<Kernel> stays upgradable.
        #[allow(dead_code)]
        kernel: Rc<RefCell<Kernel>>,
        module: Rc<RefCell<GammaModule>>,
        mac: MacAddr,
    }

    fn mk_pair(loss: LossModel) -> (Node, Node) {
        let link = Link::gigabit();
        for end in [LinkEnd::A, LinkEnd::B] {
            let plan = FaultPlan {
                loss,
                ..FaultPlan::default()
            };
            link.borrow_mut().set_faults(end, plan);
        }
        let mut nodes = Vec::new();
        for (id, end) in [(1u32, LinkEnd::A), (2, LinkEnd::B)] {
            let kernel = Kernel::new(id, GammaModule::tuned_os_costs());
            let nic = Nic::new(
                MacAddr::for_node(id, 0),
                GammaModule::tuned_nic_config(),
                PciBus::pci_33mhz_32bit(),
                link.clone(),
                end,
            );
            Nic::attach_to_link(&nic);
            let dev = Kernel::add_device(&kernel, nic);
            let module = GammaModule::install(&kernel, dev);
            nodes.push(Node {
                kernel,
                module,
                mac: MacAddr::for_node(id, 0),
            });
        }
        let b = nodes.pop().unwrap();
        let a = nodes.pop().unwrap();
        (a, b)
    }

    type Inbox = Rc<RefCell<Vec<(SimTime, GammaMsg)>>>;

    fn port_into(node: &Node, port: u16) -> Inbox {
        let inbox: Inbox = Rc::new(RefCell::new(Vec::new()));
        let i = inbox.clone();
        node.module
            .borrow_mut()
            .register_port(port, move |sim, msg| {
                i.borrow_mut().push((sim.now(), msg));
            });
        inbox
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
    }

    #[test]
    fn message_end_to_end() {
        let mut sim = Sim::new(0);
        let (a, b) = mk_pair(LossModel::None);
        let inbox = port_into(&b, 3);
        let data = payload(1400);
        GammaModule::send(&a.module, &mut sim, b.mac, 3, data.clone());
        sim.run();
        assert_eq!(inbox.borrow().len(), 1);
        assert_eq!(inbox.borrow()[0].1.data, data);
        assert_eq!(inbox.borrow()[0].1.src, a.mac);
    }

    #[test]
    fn multi_fragment_message() {
        let mut sim = Sim::new(0);
        let (a, b) = mk_pair(LossModel::None);
        let inbox = port_into(&b, 3);
        let data = payload(50_000);
        GammaModule::send(&a.module, &mut sim, b.mac, 3, data.clone());
        sim.run();
        assert_eq!(inbox.borrow().len(), 1);
        assert_eq!(inbox.borrow()[0].1.data, data);
        assert!(a.module.borrow().stats().packets_sent > 30);
    }

    #[test]
    fn back_to_back_messages_arrive_whole() {
        // Three multi-fragment sends from one module: every fragment of
        // one is posted before the next one's first, so the receiver,
        // which assumes in-order fragments per source, keeps all three,
        // each joined back into its sender's buffer without a copy.
        let mut sim = Sim::new(0);
        let (a, b) = mk_pair(LossModel::None);
        let inbox = port_into(&b, 3);
        let sent: Vec<Bytes> = (0..3).map(|_| payload(8_192)).collect();
        for data in &sent {
            GammaModule::send(&a.module, &mut sim, b.mac, 3, data.clone());
        }
        sim.run();
        let inbox = inbox.borrow();
        assert_eq!(inbox.len(), 3);
        for ((_, msg), data) in inbox.iter().zip(&sent) {
            assert_eq!(msg.data, *data);
            assert_eq!(
                msg.data.as_ptr(),
                data.as_ptr(),
                "a message lies in its sender's buffer"
            );
        }
        assert_eq!(b.module.borrow().stats().broken_messages, 0);
    }

    #[test]
    fn zero_byte_message() {
        let mut sim = Sim::new(0);
        let (a, b) = mk_pair(LossModel::None);
        let inbox = port_into(&b, 1);
        GammaModule::send(&a.module, &mut sim, b.mac, 1, Bytes::new());
        sim.run();
        assert_eq!(inbox.borrow().len(), 1);
        assert!(inbox.borrow()[0].1.data.is_empty());
    }

    #[test]
    fn no_reliability_lost_frame_loses_message() {
        let mut sim = Sim::new(0);
        let (a, b) = mk_pair(LossModel::EveryNth(2));
        let inbox = port_into(&b, 3);
        for _ in 0..4 {
            GammaModule::send(&a.module, &mut sim, b.mac, 3, payload(100));
        }
        sim.run();
        // Half the single-packet messages vanish, silently.
        assert_eq!(inbox.borrow().len(), 2);
        assert_eq!(a.module.borrow().stats().msgs_sent, 4);
    }

    #[test]
    fn gamma_latency_beats_clic_scale() {
        // The §5 table: GAMMA's latency is below CLIC's 36 µs.
        let mut sim = Sim::new(0);
        let (a, b) = mk_pair(LossModel::None);
        let inbox = port_into(&b, 3);
        GammaModule::send(&a.module, &mut sim, b.mac, 3, Bytes::new());
        sim.run();
        let t = inbox.borrow()[0].0;
        assert!(
            t < SimTime::from_us(36),
            "GAMMA 0-byte latency {t} should undercut CLIC's 36 us"
        );
    }

    #[test]
    fn unregistered_port_drops() {
        let mut sim = Sim::new(0);
        let (a, b) = mk_pair(LossModel::None);
        GammaModule::send(&a.module, &mut sim, b.mac, 9, payload(10));
        sim.run();
        let stats = b.module.borrow().stats();
        assert_eq!(stats.msgs_received, 1, "counted at reassembly");
    }
}
