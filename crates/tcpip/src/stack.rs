//! The IP layer object: EtherType 0x0800 handler, protocol demux,
//! fragmentation/reassembly, static neighbor resolution.

use crate::costs::TcpIpCosts;
use crate::ip::{self, IpAddr, IpProto, IpReassembler, Ipv4Header, IPV4_HEADER};
use bytes::{BufMut, Bytes, BytesMut};
use clic_ethernet::{EtherType, Frame, MacAddr};
use clic_os::driver::hard_start_xmit;
use clic_os::{Kernel, PacketHandler, SkBuff};
use clic_sim::{Layer, Sim};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

/// Upper-layer protocol hook (TCP).
pub trait IpProtoHandler {
    /// A complete (reassembled) IP payload arrived.
    fn handle(
        &self,
        sim: &mut Sim,
        kernel: &Rc<RefCell<Kernel>>,
        header: Ipv4Header,
        payload: Bytes,
    );
}

/// Per-node IP layer.
pub struct IpLayer {
    kernel: Weak<RefCell<Kernel>>,
    dev: usize,
    ip: IpAddr,
    neighbors: BTreeMap<IpAddr, MacAddr>,
    /// Cost model shared with the transports above.
    pub costs: TcpIpCosts,
    mtu: usize,
    reasm: IpReassembler,
    handlers: BTreeMap<u8, Rc<dyn IpProtoHandler>>,
    next_ident: u16,
    /// Datagrams dropped for an unknown destination.
    pub no_route: u64,
    /// Packets dropped in parsing/checksum.
    pub rx_errors: u64,
}

struct EthHook(Rc<RefCell<IpLayer>>);

impl PacketHandler for EthHook {
    fn handle(&self, sim: &mut Sim, kernel: &Rc<RefCell<Kernel>>, _dev: usize, frame: Frame) {
        IpLayer::on_frame(&self.0, sim, kernel, frame);
    }
}

impl IpLayer {
    /// Install the IP layer on `kernel` device `dev` with a static neighbor
    /// table (ARP is out of scope; see DESIGN.md).
    pub fn install(
        kernel: &Rc<RefCell<Kernel>>,
        dev: usize,
        ip: IpAddr,
        neighbors: BTreeMap<IpAddr, MacAddr>,
        costs: TcpIpCosts,
    ) -> Rc<RefCell<IpLayer>> {
        let mtu = kernel.borrow().device(dev).borrow().mtu();
        let layer = Rc::new(RefCell::new(IpLayer {
            kernel: Rc::downgrade(kernel),
            dev,
            ip,
            neighbors,
            costs,
            mtu,
            reasm: IpReassembler::new(),
            handlers: BTreeMap::new(),
            next_ident: 1,
            no_route: 0,
            rx_errors: 0,
        }));
        kernel
            .borrow_mut()
            .register_handler(EtherType::IPV4.0, Rc::new(EthHook(layer.clone())));
        layer
    }

    /// This host's address.
    pub fn ip(&self) -> IpAddr {
        self.ip
    }

    /// Path MTU towards cluster peers (the device MTU).
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Register the handler for an IP protocol.
    pub fn register(&mut self, proto: IpProto, handler: Rc<dyn IpProtoHandler>) {
        let key = match proto {
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
        };
        let prev = self.handlers.insert(key, handler);
        assert!(prev.is_none(), "duplicate IP protocol handler");
    }

    fn kernel_of(layer: &Rc<RefCell<IpLayer>>) -> Rc<RefCell<Kernel>> {
        layer.borrow().kernel.upgrade().expect("kernel dropped")
    }

    /// Send `payload` to `dst` as protocol `proto`, charging the IP TX cost
    /// and fragmenting when it exceeds the MTU.
    pub fn send(
        layer: &Rc<RefCell<IpLayer>>,
        sim: &mut Sim,
        proto: IpProto,
        dst: IpAddr,
        payload: Bytes,
        trace: u64,
    ) {
        let kernel = Self::kernel_of(layer);
        let (packets, mac, dev, cost) = {
            let mut l = layer.borrow_mut();
            let Some(&mac) = l.neighbors.get(&dst) else {
                l.no_route += 1;
                return;
            };
            let ident = l.next_ident;
            l.next_ident = l.next_ident.wrapping_add(1);
            let packets = if IPV4_HEADER + payload.len() <= l.mtu {
                let header = Ipv4Header {
                    src: l.ip,
                    dst,
                    proto,
                    ident,
                    frag_offset: 0,
                    more_fragments: false,
                    ttl: 64,
                    payload_len: payload.len() as u16,
                };
                let mut pkt = BytesMut::with_capacity(IPV4_HEADER + payload.len());
                pkt.put_slice(&header.encode());
                pkt.put_slice(&payload);
                vec![pkt.freeze()]
            } else {
                ip::fragment(l.ip, dst, proto, ident, 64, &payload, l.mtu)
            };
            (packets, mac, l.dev, l.costs.ip_tx)
        };
        let total_cost = cost * packets.len() as u64;
        if trace != 0 {
            sim.trace.begin(sim.now(), Layer::TcpIp, "ip_tx", trace);
        }
        let kernel2 = kernel.clone();
        Kernel::cpu_task(&kernel, sim, total_cost, move |sim| {
            if trace != 0 {
                sim.trace.end(sim.now(), Layer::TcpIp, "ip_tx", trace);
            }
            for pkt in packets {
                // TCP/IP always sends from kernel memory (the user->kernel
                // copy was charged by the transport when the data entered
                // the socket buffer), so the SkBuff is kernel-located; the
                // bytes were already staged so no extra clone cost here.
                let skb = SkBuff {
                    header: Bytes::new(),
                    data: pkt,
                    location: clic_os::DataLocation::Kernel,
                    trace,
                };
                hard_start_xmit(&kernel2, sim, 0, mac, EtherType::IPV4, skb, |_, _ok| {
                    // Ring-full drops are recovered by TCP's RTO.
                });
            }
        });
        let _ = dev;
    }

    fn on_frame(
        layer: &Rc<RefCell<IpLayer>>,
        sim: &mut Sim,
        kernel: &Rc<RefCell<Kernel>>,
        frame: Frame,
    ) {
        let (parsed, cost) = {
            let mut l = layer.borrow_mut();
            match Ipv4Header::decode(&frame.payload) {
                Some((header, payload)) if header.dst == l.ip => {
                    (Some((header, payload)), l.costs.ip_rx)
                }
                Some(_) => (None, l.costs.ip_rx), // not for us
                None => {
                    l.rx_errors += 1;
                    (None, l.costs.ip_rx)
                }
            }
        };
        let Some((header, payload)) = parsed else {
            return;
        };
        if frame.trace != 0 {
            sim.trace
                .begin(sim.now(), Layer::TcpIp, "ip_rx", frame.trace);
        }
        let layer2 = layer.clone();
        let kernel2 = kernel.clone();
        let trace = frame.trace;
        Kernel::cpu_task(kernel, sim, cost, move |sim| {
            if trace != 0 {
                sim.trace.end(sim.now(), Layer::TcpIp, "ip_rx", trace);
            }
            let (complete, handler) = {
                let mut l = layer2.borrow_mut();
                let complete = l.reasm.offer(&header, payload);
                let proto_key = match header.proto {
                    IpProto::Tcp => 6u8,
                    IpProto::Udp => 17,
                };
                (complete, l.handlers.get(&proto_key).cloned())
            };
            if let (Some(data), Some(handler)) = (complete, handler) {
                handler.handle(sim, &kernel2, header, data);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clic_ethernet::{Link, LinkEnd};
    use clic_hw::{Nic, NicConfig, PciBus};
    use clic_os::OsCosts;

    struct Sink {
        got: RefCell<Vec<(Ipv4Header, Bytes)>>,
    }
    impl IpProtoHandler for Sink {
        fn handle(
            &self,
            _sim: &mut Sim,
            _kernel: &Rc<RefCell<Kernel>>,
            header: Ipv4Header,
            payload: Bytes,
        ) {
            self.got.borrow_mut().push((header, payload));
        }
    }

    fn node(
        id: u32,
        link: Rc<RefCell<Link>>,
        end: LinkEnd,
    ) -> (Rc<RefCell<Kernel>>, Rc<RefCell<IpLayer>>) {
        let kernel = Kernel::new(id, OsCosts::era_2002());
        let mut cfg = NicConfig::gigabit_standard();
        cfg.coalesce_usecs = 0;
        cfg.coalesce_frames = 1;
        let nic = Nic::new(
            MacAddr::for_node(id, 0),
            cfg,
            PciBus::pci_33mhz_32bit(),
            link,
            end,
        );
        Nic::attach_to_link(&nic);
        let dev = Kernel::add_device(&kernel, nic);
        let mut neighbors = BTreeMap::new();
        for peer in 1..=4u32 {
            neighbors.insert(IpAddr::for_node(peer), MacAddr::for_node(peer, 0));
        }
        let layer = IpLayer::install(
            &kernel,
            dev,
            IpAddr::for_node(id),
            neighbors,
            TcpIpCosts::era_2002(),
        );
        (kernel, layer)
    }

    #[test]
    fn datagram_crosses_wire() {
        let mut sim = Sim::new(0);
        let link = Link::gigabit();
        let (_ka, la) = node(1, link.clone(), LinkEnd::A);
        let (_kb, lb) = node(2, link, LinkEnd::B);
        let sink = Rc::new(Sink {
            got: RefCell::new(Vec::new()),
        });
        lb.borrow_mut().register(IpProto::Udp, sink.clone());
        IpLayer::send(
            &la,
            &mut sim,
            IpProto::Udp,
            IpAddr::for_node(2),
            Bytes::from_static(b"ping"),
            0,
        );
        sim.run();
        let got = sink.got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].1[..], b"ping");
        assert_eq!(got[0].0.src, IpAddr::for_node(1));
    }

    #[test]
    fn oversize_payload_fragments_and_reassembles() {
        let mut sim = Sim::new(0);
        let link = Link::gigabit();
        let (_ka, la) = node(1, link.clone(), LinkEnd::A);
        let (_kb, lb) = node(2, link, LinkEnd::B);
        let sink = Rc::new(Sink {
            got: RefCell::new(Vec::new()),
        });
        lb.borrow_mut().register(IpProto::Udp, sink.clone());
        let big = Bytes::from((0..6000usize).map(|i| (i % 239) as u8).collect::<Vec<_>>());
        IpLayer::send(
            &la,
            &mut sim,
            IpProto::Udp,
            IpAddr::for_node(2),
            big.clone(),
            0,
        );
        sim.run();
        let got = sink.got.borrow();
        assert_eq!(got.len(), 1, "exactly one reassembled datagram");
        assert_eq!(got[0].1, big);
    }

    #[test]
    fn unknown_destination_counts_no_route() {
        let mut sim = Sim::new(0);
        let link = Link::gigabit();
        let (_ka, la) = node(1, link, LinkEnd::A);
        IpLayer::send(
            &la,
            &mut sim,
            IpProto::Udp,
            IpAddr(0xdeadbeef),
            Bytes::from_static(b"x"),
            0,
        );
        sim.run();
        assert_eq!(la.borrow().no_route, 1);
    }

    #[test]
    fn packet_for_other_host_ignored() {
        let mut sim = Sim::new(0);
        let link = Link::gigabit();
        let (_ka, la) = node(1, link.clone(), LinkEnd::A);
        let (_kb, lb) = node(2, link, LinkEnd::B);
        let sink = Rc::new(Sink {
            got: RefCell::new(Vec::new()),
        });
        lb.borrow_mut().register(IpProto::Udp, sink.clone());
        // IP destination 3 behind node 2's MAC: the IP layer must drop it.
        {
            let mut l = la.borrow_mut();
            l.neighbors
                .insert(IpAddr::for_node(3), MacAddr::for_node(2, 0));
        }
        IpLayer::send(
            &la,
            &mut sim,
            IpProto::Udp,
            IpAddr::for_node(3),
            Bytes::from_static(b"stray"),
            0,
        );
        sim.run();
        assert!(sink.got.borrow().is_empty());
    }
}
