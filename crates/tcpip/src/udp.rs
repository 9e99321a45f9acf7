//! UDP over the IP layer.
//!
//! Best-effort datagrams with an 8-byte header and a real checksum. Large
//! datagrams exercise IP fragmentation. Installed on every TCP node; only
//! tests send datagrams (the PVM-like layer runs over TCP).

use crate::ip::{pseudo_header_checksum, IpAddr, IpProto, Ipv4Header};
use crate::stack::{IpLayer, IpProtoHandler};
use bytes::{BufMut, Bytes, BytesMut};
use clic_os::Kernel;
use clic_sim::Sim;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

/// UDP header size.
pub const UDP_HEADER: usize = 8;

/// A datagram delivered to a bound port.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Sender address.
    pub src: IpAddr,
    /// Sender port.
    pub src_port: u16,
    /// Payload.
    pub data: Bytes,
}

type UdpSink = Rc<dyn Fn(&mut Sim, Datagram)>;

/// Per-node UDP.
pub struct UdpStack {
    kernel: Weak<RefCell<Kernel>>,
    ip: Rc<RefCell<IpLayer>>,
    ports: BTreeMap<u16, UdpSink>,
    /// Datagrams dropped: no socket bound.
    pub no_port: u64,
    /// Datagrams dropped: bad checksum/too short.
    pub rx_errors: u64,
}

/// The IP layer's handle on UDP. Weak: the stack holds the IP layer, so
/// a strong one would cycle.
struct UdpHook(Weak<RefCell<UdpStack>>);

impl IpProtoHandler for UdpHook {
    fn handle(
        &self,
        sim: &mut Sim,
        kernel: &Rc<RefCell<Kernel>>,
        header: Ipv4Header,
        payload: Bytes,
    ) {
        let stack = self.0.upgrade().expect("UDP dropped while IP delivers");
        UdpStack::on_datagram(&stack, sim, kernel, header, payload);
    }
}

impl UdpStack {
    /// Install UDP over an IP layer.
    pub fn install(
        kernel: &Rc<RefCell<Kernel>>,
        ip: &Rc<RefCell<IpLayer>>,
    ) -> Rc<RefCell<UdpStack>> {
        let stack = Rc::new(RefCell::new(UdpStack {
            kernel: Rc::downgrade(kernel),
            ip: ip.clone(),
            ports: BTreeMap::new(),
            no_port: 0,
            rx_errors: 0,
        }));
        ip.borrow_mut()
            .register(IpProto::Udp, Rc::new(UdpHook(Rc::downgrade(&stack))));
        stack
    }

    /// Bind `port`; each arriving datagram invokes `sink`.
    pub fn bind(&mut self, port: u16, sink: impl Fn(&mut Sim, Datagram) + 'static) {
        let prev = self.ports.insert(port, Rc::new(sink));
        assert!(prev.is_none(), "UDP port {port} already bound");
    }

    /// Send a datagram (system call + per-datagram cost + checksum).
    pub fn send(
        stack: &Rc<RefCell<UdpStack>>,
        sim: &mut Sim,
        src_port: u16,
        dst: IpAddr,
        dst_port: u16,
        data: Bytes,
    ) {
        let kernel = stack.borrow().kernel.upgrade().expect("kernel dropped");
        let stack2 = stack.clone();
        Kernel::syscall(&kernel.clone(), sim, move |sim| {
            let (ip, src, cost) = {
                let s = stack2.borrow();
                let l = s.ip.borrow();
                (
                    s.ip.clone(),
                    l.ip(),
                    l.costs.udp_per_datagram + l.costs.checksum_cost(data.len()),
                )
            };
            Kernel::cpu_task(&kernel, sim, cost, move |sim| {
                let len = (UDP_HEADER + data.len()) as u16;
                let mut h = [0u8; UDP_HEADER];
                h[0..2].copy_from_slice(&src_port.to_be_bytes());
                h[2..4].copy_from_slice(&dst_port.to_be_bytes());
                h[4..6].copy_from_slice(&len.to_be_bytes());
                // Checksum over pseudo header + datagram.
                let csum = pseudo_header_checksum(src, dst, IpProto::Udp, len, &[&h, &data]);
                h[6..8].copy_from_slice(&csum.to_be_bytes());
                let mut pkt = BytesMut::with_capacity(UDP_HEADER + data.len());
                pkt.put_slice(&h);
                pkt.put_slice(&data);
                IpLayer::send(&ip, sim, IpProto::Udp, dst, pkt.freeze(), 0);
            });
        });
    }

    fn on_datagram(
        stack: &Rc<RefCell<UdpStack>>,
        sim: &mut Sim,
        kernel: &Rc<RefCell<Kernel>>,
        header: Ipv4Header,
        payload: Bytes,
    ) {
        let cost = {
            let s = stack.borrow();
            let l = s.ip.borrow();
            l.costs.udp_per_datagram + l.costs.checksum_cost(payload.len())
        };
        let stack2 = stack.clone();
        Kernel::cpu_task(kernel, sim, cost, move |sim| {
            let sink = {
                let mut s = stack2.borrow_mut();
                if payload.len() < UDP_HEADER {
                    s.rx_errors += 1;
                    return;
                }
                let my_ip = s.ip.borrow().ip();
                let ulen = u16::from_be_bytes([payload[4], payload[5]]) as usize;
                if ulen < UDP_HEADER || ulen > payload.len() {
                    s.rx_errors += 1;
                    return;
                }
                let csum = pseudo_header_checksum(
                    header.src,
                    my_ip,
                    IpProto::Udp,
                    ulen as u16,
                    &[&payload[..ulen]],
                );
                if csum != 0 {
                    s.rx_errors += 1;
                    return;
                }
                let dst_port = u16::from_be_bytes([payload[2], payload[3]]);
                match s.ports.get(&dst_port) {
                    Some(sink) => Some((
                        sink.clone(),
                        Datagram {
                            src: header.src,
                            src_port: u16::from_be_bytes([payload[0], payload[1]]),
                            data: payload.slice(UDP_HEADER..ulen),
                        },
                    )),
                    None => {
                        s.no_port += 1;
                        None
                    }
                }
            };
            if let Some((sink, dgram)) = sink {
                sink(sim, dgram);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::TcpIpCosts;
    use clic_ethernet::{Link, LinkEnd, MacAddr};
    use clic_hw::{Nic, NicConfig, PciBus};
    use clic_os::OsCosts;

    fn node(
        id: u32,
        link: Rc<RefCell<Link>>,
        end: LinkEnd,
    ) -> (Rc<RefCell<Kernel>>, Rc<RefCell<UdpStack>>) {
        let kernel = Kernel::new(id, OsCosts::era_2002());
        let nic = Nic::new(
            MacAddr::for_node(id, 0),
            NicConfig::gigabit_standard(),
            PciBus::pci_33mhz_32bit(),
            link,
            end,
        );
        Nic::attach_to_link(&nic);
        let dev = Kernel::add_device(&kernel, nic);
        let mut neighbors = BTreeMap::new();
        for peer in 1..=2u32 {
            neighbors.insert(IpAddr::for_node(peer), MacAddr::for_node(peer, 0));
        }
        let ip = IpLayer::install(
            &kernel,
            dev,
            IpAddr::for_node(id),
            neighbors,
            TcpIpCosts::era_2002(),
        );
        let udp = UdpStack::install(&kernel, &ip);
        (kernel, udp)
    }

    #[test]
    fn datagram_end_to_end() {
        let mut sim = Sim::new(0);
        let link = Link::gigabit();
        let (_ka, ua) = node(1, link.clone(), LinkEnd::A);
        let (_kb, ub) = node(2, link, LinkEnd::B);
        let got: Rc<RefCell<Vec<Datagram>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        ub.borrow_mut()
            .bind(7000, move |_sim, d| g.borrow_mut().push(d));
        UdpStack::send(
            &ua,
            &mut sim,
            5555,
            IpAddr::for_node(2),
            7000,
            Bytes::from_static(b"datagram"),
        );
        sim.run();
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].data[..], b"datagram");
        assert_eq!(got[0].src, IpAddr::for_node(1));
        assert_eq!(got[0].src_port, 5555);
    }

    #[test]
    fn large_datagram_ip_fragmented() {
        let mut sim = Sim::new(0);
        let link = Link::gigabit();
        let (_ka, ua) = node(1, link.clone(), LinkEnd::A);
        let (kb, ub) = node(2, link, LinkEnd::B);
        let got: Rc<RefCell<Vec<Datagram>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        ub.borrow_mut()
            .bind(7000, move |_sim, d| g.borrow_mut().push(d));
        let big = Bytes::from((0..9000usize).map(|i| (i % 229) as u8).collect::<Vec<_>>());
        UdpStack::send(&ua, &mut sim, 1, IpAddr::for_node(2), 7000, big.clone());
        sim.run();
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(got.borrow()[0].data, big);
        // It really was fragmented on the wire.
        assert!(kb.borrow().stats().frames_received > 5);
    }

    #[test]
    fn unbound_port_counted() {
        let mut sim = Sim::new(0);
        let link = Link::gigabit();
        let (_ka, ua) = node(1, link.clone(), LinkEnd::A);
        let (_kb, ub) = node(2, link, LinkEnd::B);
        UdpStack::send(
            &ua,
            &mut sim,
            1,
            IpAddr::for_node(2),
            9,
            Bytes::from_static(b"x"),
        );
        sim.run();
        assert_eq!(ub.borrow().no_port, 1);
    }
}
