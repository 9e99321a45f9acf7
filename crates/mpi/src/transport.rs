//! Transport backends for the message layers.
//!
//! A transport gives rank-addressed, reliable, ordered message delivery.
//! `ClicTransport` maps it onto CLIC ports (MPI packet type); the paper's
//! point is that this mapping is nearly free: "MPI and PVM point-to-point
//! communication functions can be easily mapped to reliable point-to-point
//! communications provided by the CLIC layer". `TcpTransport` maps it onto
//! a mesh of TCP connections with length-prefixed record framing — what
//! LAM-MPI/PVM over TCP actually did.
//!
//! A message goes down and comes up in two parts: the layer's header (an
//! MPI envelope, a PVM header) and the body, the caller's buffer. Neither
//! transport copies the body to put the header in front of it: CLIC
//! carries the header in the first packet's head, and TCP sends the
//! length prefix and the header, at most a few dozen bytes copied
//! together, then the body, in one send. The receiving layer says how long
//! its header is when it installs its handler and gets the header apart
//! from the body, which is a view of the sender's buffer wherever the
//! packets that carried it continue one another in it.

use bytes::{BufMut, Bytes, BytesMut, Parts};
use clic_core::module::SendOptions;
use clic_core::{ClicModule, PacketType};
use clic_ethernet::MacAddr;
use clic_os::Pid;
use clic_sim::catalog::metric_id;
use clic_sim::{Layer, MetricId, Sim};
use clic_tcpip::tcp::TcpStack;
use clic_tcpip::{ConnId, IpAddr};
use std::cell::RefCell;
use std::rc::{Rc, Weak};

/// Interned metric ids — send/recv account per message, so names are
/// resolved against the catalog at compile time.
const SENDS: MetricId = metric_id("mpi.sends");
const RECVS: MetricId = metric_id("mpi.recvs");
const MSG_BYTES: MetricId = metric_id("mpi.msg_bytes");

/// Handler for inbound transport messages: `(source rank, message)`, the
/// message as the layer's header (the head) and the rest (the body).
pub type MsgHandler = Rc<dyn Fn(&mut Sim, usize, Parts)>;

/// Rank-addressed reliable ordered message delivery.
pub trait Transport {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Number of ranks.
    fn size(&self) -> usize;
    /// Send a message to `dst`: the layer's `header`, then `body`.
    fn send(&self, sim: &mut Sim, dst: usize, header: &[u8], body: Bytes);
    /// Install the delivery handler of a layer whose messages begin with a
    /// `header`-byte header (call once, before traffic).
    fn set_handler(&self, header: usize, handler: MsgHandler);
    /// True once the transport is ready to carry traffic.
    fn ready(&self) -> bool;
}

/// The CLIC channel the MPI layer rides on.
pub const MPI_CHANNEL: u16 = 0x4D50; // "MP"

// ---------------------------------------------------------------------
// CLIC backend
// ---------------------------------------------------------------------

/// MPI transport over CLIC.
pub struct ClicTransport {
    /// Weak: the receive always pending in the module holds the
    /// transport, so a strong one would cycle.
    module: Weak<RefCell<ClicModule>>,
    rank: usize,
    peers: Vec<MacAddr>,
    handler: RefCell<Option<MsgHandler>>,
}

impl ClicTransport {
    /// Create rank `rank` of a job whose rank-to-station map is `peers`;
    /// `pid` is the local MPI process. Starts the receive loop.
    pub fn new(
        sim: &mut Sim,
        module: &Rc<RefCell<ClicModule>>,
        pid: Pid,
        rank: usize,
        peers: Vec<MacAddr>,
    ) -> Rc<ClicTransport> {
        assert!(rank < peers.len());
        module.borrow_mut().bind(pid, MPI_CHANNEL);
        let t = Rc::new(ClicTransport {
            module: Rc::downgrade(module),
            rank,
            peers,
            handler: RefCell::new(None),
        });
        Self::recv_loop(t.clone(), sim);
        t
    }

    /// The CLIC module, which the node owns.
    fn module(&self) -> Rc<RefCell<ClicModule>> {
        self.module
            .upgrade()
            .expect("CLIC module dropped while its MPI transport runs")
    }

    fn recv_loop(t: Rc<ClicTransport>, sim: &mut Sim) {
        ClicModule::recv(&t.module(), sim, MPI_CHANNEL, move |sim, msg| {
            let src = t
                .peers
                .iter()
                .position(|&m| m == msg.src)
                .expect("message from station outside the job");
            sim.record(RECVS, 1);
            sim.trace
                .instant(sim.now(), Layer::Mpi, "mpi_recv", src as u64);
            if let Some(h) = t.handler.borrow().clone() {
                // The header part rode in the first packet's head, and
                // comes back as the sender framed it.
                h(sim, src, Parts::new(msg.head, msg.data));
            }
            Self::recv_loop(t.clone(), sim);
        });
    }
}

impl Transport for ClicTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, sim: &mut Sim, dst: usize, header: &[u8], body: Bytes) {
        sim.record(SENDS, 1);
        sim.record(MSG_BYTES, (header.len() + body.len()) as u64);
        sim.trace
            .instant(sim.now(), Layer::Mpi, "mpi_send", dst as u64);
        let opts = SendOptions {
            ptype: PacketType::Mpi,
            ..SendOptions::data(self.peers[dst], MPI_CHANNEL)
        };
        let message = Parts::new(Bytes::copy_from_slice(header), body);
        ClicModule::send(&self.module(), sim, opts, message);
    }

    fn set_handler(&self, _header: usize, handler: MsgHandler) {
        // CLIC keeps a message's header part apart from its data end to
        // end, so it needs no header length to find the split.
        *self.handler.borrow_mut() = Some(handler);
    }

    fn ready(&self) -> bool {
        true // CLIC is connectionless
    }
}

// ---------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------

const TCP_BASE_PORT: u16 = 18_000;

/// MPI transport over a full mesh of TCP connections.
pub struct TcpTransport {
    /// Weak: the read always pending on each connection holds the
    /// transport, so a strong one would cycle.
    stack: Weak<RefCell<TcpStack>>,
    rank: usize,
    peer_ips: Vec<IpAddr>,
    conns: RefCell<Vec<Option<ConnId>>>,
    /// The handler, and the length of its layer's header.
    handler: RefCell<Option<(usize, MsgHandler)>>,
}

impl TcpTransport {
    /// Create rank `rank`; `peer_ips[r]` is rank r's address. Initiates the
    /// connection mesh (lower rank connects to higher rank); run the
    /// simulator until [`Transport::ready`] before sending.
    pub fn new(
        sim: &mut Sim,
        stack: &Rc<RefCell<TcpStack>>,
        rank: usize,
        peer_ips: Vec<IpAddr>,
    ) -> Rc<TcpTransport> {
        assert!(rank < peer_ips.len());
        let size = peer_ips.len();
        let t = Rc::new(TcpTransport {
            stack: Rc::downgrade(stack),
            rank,
            peer_ips,
            conns: RefCell::new(vec![None; size]),
            handler: RefCell::new(None),
        });
        // Accept connections from every lower rank on a port that encodes
        // the *initiator's* rank, so we can attribute the connection.
        for src in 0..rank {
            let port = TCP_BASE_PORT + src as u16;
            let t2 = t.clone();
            stack.borrow_mut().listen(port, move |sim, conn| {
                t2.conns.borrow_mut()[src] = Some(conn);
                TcpTransport::read_loop(t2.clone(), sim, src, conn);
            });
        }
        // Connect to every higher rank.
        for dst in rank + 1..size {
            let port = TCP_BASE_PORT + rank as u16;
            let ip = t.peer_ips[dst];
            let t2 = t.clone();
            TcpStack::connect(stack, sim, ip, port, move |sim, conn| {
                t2.conns.borrow_mut()[dst] = Some(conn);
                TcpTransport::read_loop(t2.clone(), sim, dst, conn);
            });
        }
        t
    }

    /// The TCP stack, which the node owns.
    fn stack(&self) -> Rc<RefCell<TcpStack>> {
        self.stack
            .upgrade()
            .expect("TCP stack dropped while its MPI transport runs")
    }

    /// Length-prefixed record reader: 4-byte big-endian length, then the
    /// record, read with the layer's header apart from its body.
    fn read_loop(t: Rc<TcpTransport>, sim: &mut Sim, src: usize, conn: ConnId) {
        TcpStack::recv(&t.stack(), sim, conn, 4, move |sim, len_bytes| {
            let len = u32::from_be_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]])
                as usize;
            let header = t.handler.borrow().as_ref().map_or(0, |(h, _)| *h).min(len);
            TcpStack::recv_parts(&t.stack(), sim, conn, header, len, move |sim, record| {
                sim.record(RECVS, 1);
                sim.trace
                    .instant(sim.now(), Layer::Mpi, "mpi_recv", src as u64);
                let handler = t.handler.borrow().as_ref().map(|(_, h)| h.clone());
                if let Some(h) = handler {
                    h(sim, src, record);
                }
                TcpTransport::read_loop(t, sim, src, conn);
            });
        });
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.peer_ips.len()
    }

    fn send(&self, sim: &mut Sim, dst: usize, header: &[u8], body: Bytes) {
        let len = header.len() + body.len();
        sim.record(SENDS, 1);
        sim.record(MSG_BYTES, len as u64);
        sim.trace
            .instant(sim.now(), Layer::Mpi, "mpi_send", dst as u64);
        let conn = self.conns.borrow()[dst].expect("transport not ready");
        // The length prefix and the layer's header, copied together; the
        // body follows as it lies, in the same send.
        let mut head = BytesMut::with_capacity(4 + header.len());
        head.put_u32(len as u32);
        head.put_slice(header);
        TcpStack::send(&self.stack(), sim, conn, Parts::new(head.freeze(), body));
    }

    fn set_handler(&self, header: usize, handler: MsgHandler) {
        *self.handler.borrow_mut() = Some((header, handler));
    }

    fn ready(&self) -> bool {
        self.conns
            .borrow()
            .iter()
            .enumerate()
            .all(|(r, c)| r == self.rank || c.is_some())
    }
}
