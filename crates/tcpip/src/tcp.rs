//! TCP-lite.
//!
//! Enough of RFC 793 + Reno-era congestion control to make an honest
//! baseline for Figures 5 and 6: three-way handshake, byte sequence
//! numbers, cumulative + delayed ACKs, receiver window, slow start and
//! congestion avoidance, retransmission timeout with exponential backoff,
//! and real header encoding with pseudo-header checksums (verified on
//! receive and charged per byte — this stack pays the "touch every byte"
//! tax CLIC avoids).
//!
//! Also implemented: fast retransmit on three duplicate ACKs (RFC 2581).
//! Omissions (documented in DESIGN.md §5): connection teardown (FIN,
//! TIME_WAIT; every workload keeps its connections open to the end of
//! the run), SACK, timestamps, PAWS, RST handling. None shapes the
//! paper's curves.

use crate::costs::TcpIpCosts;
use crate::ip::{pseudo_header_checksum, IpAddr, IpProto, Ipv4Header};
use crate::stack::{IpLayer, IpProtoHandler};
use bytes::{BufMut, Bytes, BytesMut};
use clic_os::Kernel;
use clic_sim::{Layer, Sim, SimDuration};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::{Rc, Weak};

/// TCP header size (no options).
pub const TCP_HEADER: usize = 20;

/// Connection identifier local to one stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

mod tcpflags {
    pub const SYN: u8 = 0x02;
    pub const ACK: u8 = 0x10;
}

/// Wrapping sequence compare: true when `a >= b`.
fn seq_ge(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 >= 0
}

/// Wrapping sequence compare: true when `a > b`.
fn seq_gt(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 > 0
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: u8,
    window: u16,
}

impl Segment {
    fn encode(&self, src: IpAddr, dst: IpAddr, payload: &[u8]) -> Bytes {
        let mut h = [0u8; TCP_HEADER];
        h[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        h[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        h[4..8].copy_from_slice(&self.seq.to_be_bytes());
        h[8..12].copy_from_slice(&self.ack.to_be_bytes());
        h[12] = 5 << 4; // data offset
        h[13] = self.flags;
        h[14..16].copy_from_slice(&self.window.to_be_bytes());
        // Checksum over pseudo header + segment.
        let len = (TCP_HEADER + payload.len()) as u16;
        let csum = pseudo_header_checksum(src, dst, IpProto::Tcp, len, &[&h, payload]);
        h[16..18].copy_from_slice(&csum.to_be_bytes());
        let mut out = BytesMut::with_capacity(TCP_HEADER + payload.len());
        out.put_slice(&h);
        out.put_slice(payload);
        out.freeze()
    }

    /// Verify and parse a segment; the data is a slice of `buf`, not a copy.
    fn decode(src: IpAddr, dst: IpAddr, buf: &Bytes) -> Option<(Segment, Bytes)> {
        if buf.len() < TCP_HEADER {
            return None;
        }
        // Verify: checksum over pseudo header + full segment must be 0.
        if pseudo_header_checksum(src, dst, IpProto::Tcp, buf.len() as u16, &[buf]) != 0 {
            return None;
        }
        let seg = Segment {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: buf[13],
            window: u16::from_be_bytes([buf[14], buf[15]]),
        };
        let off = usize::from(buf[12] >> 4) * 4;
        if off < TCP_HEADER || buf.len() < off {
            return None;
        }
        Some((seg, buf.slice(off..)))
    }
}

/// Take the first `n` bytes queued in `bufs` (which must hold at least
/// `n`): a slice when the front buffer covers them, gathered otherwise.
fn take_front(bufs: &mut VecDeque<Bytes>, n: usize) -> Bytes {
    if bufs.front().is_some_and(|head| head.len() >= n) {
        let head = bufs.pop_front().expect("front checked above");
        if head.len() > n {
            bufs.push_front(head.slice(n..));
        }
        return head.slice(..n);
    }
    let mut out = BytesMut::with_capacity(n);
    while out.len() < n {
        let head = bufs
            .pop_front()
            .expect("caller checked the queue holds n bytes");
        let need = n - out.len();
        if head.len() > need {
            bufs.push_front(head.slice(need..));
        }
        out.put_slice(&head[..need.min(head.len())]);
    }
    out.freeze()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TcpState {
    SynSent,
    SynReceived,
    Established,
}

type Reader = (usize, Box<dyn FnOnce(&mut Sim, Bytes)>);

struct Conn {
    local_port: u16,
    peer_ip: IpAddr,
    peer_port: u16,
    state: TcpState,
    on_established: Option<Box<dyn FnOnce(&mut Sim, ConnId)>>,
    // --- send side ---
    snd_una: u32,
    snd_nxt: u32,
    send_buf: VecDeque<Bytes>,
    send_buf_bytes: usize,
    retx: BTreeMap<u32, Bytes>,
    cwnd: usize,
    ssthresh: usize,
    peer_wnd: usize,
    rto: SimDuration,
    rto_gen: u64,
    rto_running: bool,
    dup_acks: u32,
    // --- receive side ---
    rcv_nxt: u32,
    ooo: BTreeMap<u32, Bytes>,
    recv_buf: VecDeque<Bytes>,
    recv_buf_bytes: usize,
    readers: VecDeque<Reader>,
    delack_count: u32,
    delack_armed: bool,
    delack_gen: u64,
}

/// Stack-wide counters — the one store of these counts; the experiment
/// layer exports them per node as `n<id>.tcp.*`.
#[derive(Debug, Default, Clone)]
pub struct TcpStats {
    /// Data segments transmitted (first time).
    pub segments_tx: u64,
    /// Segments retransmitted after timeout.
    pub retransmits: u64,
    /// Segments retransmitted by the 3-dup-ACK fast path.
    pub fast_retransmits: u64,
    /// Segments received and accepted.
    pub segments_rx: u64,
    /// ACK-only segments sent.
    pub acks_tx: u64,
    /// Segments dropped on checksum failure.
    pub checksum_errors: u64,
    /// Connections established (both roles).
    pub established: u64,
}

/// Per-node TCP.
pub struct TcpStack {
    kernel: Weak<RefCell<Kernel>>,
    ip: Rc<RefCell<IpLayer>>,
    costs: TcpIpCosts,
    mss: usize,
    conns: BTreeMap<ConnId, Conn>,
    by_tuple: BTreeMap<(IpAddr, u16, u16), ConnId>,
    listeners: BTreeMap<u16, Rc<dyn Fn(&mut Sim, ConnId)>>,
    next_conn: u32,
    next_ephemeral: u16,
    stats: TcpStats,
    /// Advertised receive window.
    rwnd: usize,
    /// Initial/reset ssthresh.
    initial_ssthresh: usize,
    initial_rto: SimDuration,
    delack_threshold: u32,
    delack_delay: SimDuration,
}

/// The IP layer's handle on TCP. Weak: the stack holds the IP layer, so
/// a strong one would cycle.
struct TcpHook(Weak<RefCell<TcpStack>>);

impl IpProtoHandler for TcpHook {
    fn handle(
        &self,
        sim: &mut Sim,
        kernel: &Rc<RefCell<Kernel>>,
        header: Ipv4Header,
        payload: Bytes,
    ) {
        let stack = self.0.upgrade().expect("TCP dropped while IP delivers");
        TcpStack::on_packet(&stack, sim, kernel, header, payload);
    }
}

impl TcpStack {
    /// Install TCP over an IP layer.
    pub fn install(
        kernel: &Rc<RefCell<Kernel>>,
        ip: &Rc<RefCell<IpLayer>>,
    ) -> Rc<RefCell<TcpStack>> {
        let (costs, mtu) = {
            let l = ip.borrow();
            (l.costs, l.mtu())
        };
        let stack = Rc::new(RefCell::new(TcpStack {
            kernel: Rc::downgrade(kernel),
            ip: ip.clone(),
            costs,
            mss: mtu - crate::ip::IPV4_HEADER - TCP_HEADER,
            conns: BTreeMap::new(),
            by_tuple: BTreeMap::new(),
            listeners: BTreeMap::new(),
            next_conn: 1,
            next_ephemeral: 32_000,
            stats: TcpStats::default(),
            rwnd: 256 * 1024,
            initial_ssthresh: 64 * 1024,
            initial_rto: SimDuration::from_ms(200),
            delack_threshold: 2,
            delack_delay: SimDuration::from_us(200),
        }));
        ip.borrow_mut()
            .register(IpProto::Tcp, Rc::new(TcpHook(Rc::downgrade(&stack))));
        stack
    }

    fn kernel_of(stack: &Rc<RefCell<TcpStack>>) -> Rc<RefCell<Kernel>> {
        stack.borrow().kernel.upgrade().expect("kernel dropped")
    }

    /// Maximum segment size in use.
    // lint:allow(dead-fn, reason="crates/tcpip/tests/tcp_integration.rs reads it")
    pub fn mss(&self) -> usize {
        self.mss
    }

    /// Counters snapshot.
    pub fn stats(&self) -> TcpStats {
        self.stats.clone()
    }

    fn new_conn(&mut self, local_port: u16, peer_ip: IpAddr, peer_port: u16) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        self.conns.insert(
            id,
            Conn {
                local_port,
                peer_ip,
                peer_port,
                state: TcpState::SynSent,
                on_established: None,
                snd_una: 0,
                snd_nxt: 0,
                send_buf: VecDeque::new(),
                send_buf_bytes: 0,
                retx: BTreeMap::new(),
                cwnd: 2 * self.mss,
                ssthresh: self.initial_ssthresh,
                peer_wnd: 64 * 1024,
                rto: self.initial_rto,
                rto_gen: 0,
                rto_running: false,
                dup_acks: 0,
                rcv_nxt: 0,
                ooo: BTreeMap::new(),
                recv_buf: VecDeque::new(),
                recv_buf_bytes: 0,
                readers: VecDeque::new(),
                delack_count: 0,
                delack_armed: false,
                delack_gen: 0,
            },
        );
        self.by_tuple.insert((peer_ip, peer_port, local_port), id);
        id
    }

    /// Listen on `port`; `on_accept` runs for each established inbound
    /// connection.
    pub fn listen(&mut self, port: u16, on_accept: impl Fn(&mut Sim, ConnId) + 'static) {
        let prev = self.listeners.insert(port, Rc::new(on_accept));
        assert!(prev.is_none(), "port {port} already listening");
    }

    /// Open a connection to `dst:port`; `on_connected` fires when the
    /// handshake completes.
    pub fn connect(
        stack: &Rc<RefCell<TcpStack>>,
        sim: &mut Sim,
        dst: IpAddr,
        port: u16,
        on_connected: impl FnOnce(&mut Sim, ConnId) + 'static,
    ) {
        let kernel = Self::kernel_of(stack);
        let stack2 = stack.clone();
        Kernel::syscall(&kernel.clone(), sim, move |sim| {
            let (id, seg, peer) = {
                let mut s = stack2.borrow_mut();
                let local_port = s.next_ephemeral;
                s.next_ephemeral += 1;
                let id = s.new_conn(local_port, dst, port);
                let c = s.conns.get_mut(&id).unwrap();
                c.state = TcpState::SynSent;
                c.on_established = Some(Box::new(on_connected));
                c.snd_nxt = 1; // SYN consumes sequence 0
                let seg = Segment {
                    src_port: local_port,
                    dst_port: port,
                    seq: 0,
                    ack: 0,
                    flags: tcpflags::SYN,
                    window: u16::MAX,
                };
                (id, seg, dst)
            };
            let _ = id;
            Self::emit(&stack2, sim, peer, seg, Bytes::new(), 0);
        });
    }

    /// Queue `data` on the connection (user send): charges the syscall, the
    /// user→kernel socket-buffer copy, then transmits as the window allows.
    pub fn send(stack: &Rc<RefCell<TcpStack>>, sim: &mut Sim, conn: ConnId, data: Bytes) {
        Self::send_traced(stack, sim, conn, data, 0);
    }

    /// [`TcpStack::send`] with a pipeline-trace id.
    pub fn send_traced(
        stack: &Rc<RefCell<TcpStack>>,
        sim: &mut Sim,
        conn: ConnId,
        data: Bytes,
        trace: u64,
    ) {
        let kernel = Self::kernel_of(stack);
        let stack2 = stack.clone();
        Kernel::syscall(&kernel.clone(), sim, move |sim| {
            let copy_cost = kernel.borrow().costs.copy.cost_observed(sim, data.len());
            let stack3 = stack2.clone();
            Kernel::cpu_task(&kernel, sim, copy_cost, move |sim| {
                {
                    let mut s = stack3.borrow_mut();
                    let Some(c) = s.conns.get_mut(&conn) else {
                        return;
                    };
                    // The socket buffer physically owns a staged copy.
                    c.send_buf.push_back(Bytes::copy_from_slice(&data));
                    c.send_buf_bytes += data.len();
                }
                Self::try_transmit(&stack3, sim, conn, trace);
            });
        });
    }

    /// Blocking read of exactly `len` bytes.
    pub fn recv(
        stack: &Rc<RefCell<TcpStack>>,
        sim: &mut Sim,
        conn: ConnId,
        len: usize,
        cont: impl FnOnce(&mut Sim, Bytes) + 'static,
    ) {
        let kernel = Self::kernel_of(stack);
        let stack2 = stack.clone();
        Kernel::syscall(&kernel, sim, move |sim| {
            {
                let mut s = stack2.borrow_mut();
                let Some(c) = s.conns.get_mut(&conn) else {
                    return;
                };
                c.readers.push_back((len, Box::new(cont)));
            }
            Self::satisfy_readers(&stack2, sim, conn);
        });
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Transmit as much queued data as windows allow.
    fn try_transmit(stack: &Rc<RefCell<TcpStack>>, sim: &mut Sim, conn: ConnId, trace: u64) {
        loop {
            let emit = {
                let mut s = stack.borrow_mut();
                let mss = s.mss;
                let rwnd16 = s.rwnd.min(u16::MAX as usize) as u16;
                let Some(c) = s.conns.get_mut(&conn) else {
                    return;
                };
                if c.state != TcpState::Established && c.state != TcpState::SynReceived {
                    return;
                }
                let flight = c.snd_nxt.wrapping_sub(c.snd_una) as usize;
                let wnd = c.cwnd.min(c.peer_wnd);
                if c.send_buf_bytes == 0 {
                    return;
                }
                if flight >= wnd {
                    return;
                }
                let take = mss.min(c.send_buf_bytes).min(wnd - flight);
                let payload = take_front(&mut c.send_buf, take);
                c.send_buf_bytes -= take;
                let seg = Segment {
                    src_port: c.local_port,
                    dst_port: c.peer_port,
                    seq: c.snd_nxt,
                    ack: c.rcv_nxt,
                    flags: tcpflags::ACK,
                    window: rwnd16,
                };
                c.retx.insert(c.snd_nxt, payload.clone());
                c.snd_nxt = c.snd_nxt.wrapping_add(take as u32);
                let peer = c.peer_ip;
                s.stats.segments_tx += 1;
                (peer, seg, payload)
            };
            let (peer, seg, payload) = emit;
            Self::emit_data(stack, sim, peer, seg, payload, trace);
            Self::ensure_rto(stack, sim, conn);
        }
    }

    /// Send a data segment: charge TCP per-segment + checksum cost, then
    /// hand to IP.
    fn emit_data(
        stack: &Rc<RefCell<TcpStack>>,
        sim: &mut Sim,
        peer: IpAddr,
        seg: Segment,
        payload: Bytes,
        trace: u64,
    ) {
        let kernel = Self::kernel_of(stack);
        let cost = {
            let s = stack.borrow();
            s.costs.tcp_tx_per_segment + s.costs.checksum_cost(payload.len())
        };
        let stack2 = stack.clone();
        if trace != 0 {
            sim.trace.begin(sim.now(), Layer::TcpIp, "tcp_tx", trace);
        }
        Kernel::cpu_task(&kernel, sim, cost, move |sim| {
            if trace != 0 {
                sim.trace.end(sim.now(), Layer::TcpIp, "tcp_tx", trace);
            }
            Self::emit(&stack2, sim, peer, seg, payload, trace);
        });
    }

    /// Encode and pass to the IP layer (no extra CPU charge — the caller
    /// already charged it).
    fn emit(
        stack: &Rc<RefCell<TcpStack>>,
        sim: &mut Sim,
        peer: IpAddr,
        seg: Segment,
        payload: Bytes,
        trace: u64,
    ) {
        let (ip, src) = {
            let s = stack.borrow();
            let ip = s.ip.clone();
            let src = ip.borrow().ip();
            (ip, src)
        };
        let bytes = seg.encode(src, peer, &payload);
        IpLayer::send(&ip, sim, IpProto::Tcp, peer, bytes, trace);
    }

    fn ensure_rto(stack: &Rc<RefCell<TcpStack>>, sim: &mut Sim, conn: ConnId) {
        let arm = {
            let mut s = stack.borrow_mut();
            let Some(c) = s.conns.get_mut(&conn) else {
                return;
            };
            if c.rto_running || c.retx.is_empty() {
                None
            } else {
                c.rto_running = true;
                c.rto_gen += 1;
                Some((c.rto_gen, c.rto))
            }
        };
        if let Some((generation, delay)) = arm {
            let stack2 = stack.clone();
            sim.schedule_in(delay, move |sim| {
                Self::on_rto(&stack2, sim, conn, generation);
            });
        }
    }

    fn on_rto(stack: &Rc<RefCell<TcpStack>>, sim: &mut Sim, conn: ConnId, generation: u64) {
        let resend = {
            let mut s = stack.borrow_mut();
            let mss = s.mss;
            let rwnd16 = s.rwnd.min(u16::MAX as usize) as u16;
            let Some(c) = s.conns.get_mut(&conn) else {
                return;
            };
            if c.rto_gen != generation {
                return;
            }
            c.rto_running = false;
            let Some((&seq, payload)) = c.retx.iter().next() else {
                return;
            };
            let payload = payload.clone();
            // Reno on timeout: collapse the window, back off the timer,
            // resend the first unacknowledged segment.
            let flight = c.snd_nxt.wrapping_sub(c.snd_una) as usize;
            c.ssthresh = (flight / 2).max(2 * mss);
            c.cwnd = mss;
            c.rto = (c.rto * 2).min(SimDuration::from_secs(2));
            let seg = Segment {
                src_port: c.local_port,
                dst_port: c.peer_port,
                seq,
                ack: c.rcv_nxt,
                flags: tcpflags::ACK,
                window: rwnd16,
            };
            let peer = c.peer_ip;
            s.stats.retransmits += 1;
            Some((peer, seg, payload))
        };
        let Some((peer, seg, payload)) = resend else {
            return;
        };
        sim.trace.instant(sim.now(), Layer::TcpIp, "rto", 0);
        Self::emit_data(stack, sim, peer, seg, payload, 0);
        Self::ensure_rto(stack, sim, conn);
    }

    fn on_packet(
        stack: &Rc<RefCell<TcpStack>>,
        sim: &mut Sim,
        kernel: &Rc<RefCell<Kernel>>,
        header: Ipv4Header,
        payload: Bytes,
    ) {
        let cost = {
            let s = stack.borrow();
            s.costs.tcp_rx_per_segment + s.costs.checksum_cost(payload.len())
        };
        let stack2 = stack.clone();
        Kernel::cpu_task(kernel, sim, cost, move |sim| {
            Self::process_segment(&stack2, sim, header, payload);
        });
    }

    fn process_segment(
        stack: &Rc<RefCell<TcpStack>>,
        sim: &mut Sim,
        header: Ipv4Header,
        payload: Bytes,
    ) {
        let Some((seg, data)) = Segment::decode(header.src, header.dst, &payload) else {
            stack.borrow_mut().stats.checksum_errors += 1;
            return;
        };
        stack.borrow_mut().stats.segments_rx += 1;
        let key = (header.src, seg.src_port, seg.dst_port);
        let conn = stack.borrow().by_tuple.get(&key).copied();
        match conn {
            Some(id) => Self::segment_for_conn(stack, sim, id, seg, data),
            None if seg.flags & tcpflags::SYN != 0 => {
                Self::passive_open(stack, sim, header.src, seg);
            }
            None => {} // stray segment: no RST machinery, just drop
        }
    }

    fn passive_open(stack: &Rc<RefCell<TcpStack>>, sim: &mut Sim, peer: IpAddr, syn: Segment) {
        let reply = {
            let mut s = stack.borrow_mut();
            if !s.listeners.contains_key(&syn.dst_port) {
                return;
            }
            let id = s.new_conn(syn.dst_port, peer, syn.src_port);
            let c = s.conns.get_mut(&id).unwrap();
            c.state = TcpState::SynReceived;
            c.rcv_nxt = syn.seq.wrapping_add(1);
            c.snd_nxt = 1; // our SYN consumes 0
            c.peer_wnd = syn.window as usize;
            Segment {
                src_port: syn.dst_port,
                dst_port: syn.src_port,
                seq: 0,
                ack: c.rcv_nxt,
                flags: tcpflags::SYN | tcpflags::ACK,
                window: u16::MAX,
            }
        };
        Self::emit(stack, sim, peer, reply, Bytes::new(), 0);
    }

    fn segment_for_conn(
        stack: &Rc<RefCell<TcpStack>>,
        sim: &mut Sim,
        conn: ConnId,
        seg: Segment,
        data: Bytes,
    ) {
        // Handshake transitions first.
        let established_cb = {
            let mut s = stack.borrow_mut();
            let Some(c) = s.conns.get_mut(&conn) else {
                return;
            };
            c.peer_wnd = seg.window as usize;
            match c.state {
                TcpState::SynSent
                    if seg.flags & (tcpflags::SYN | tcpflags::ACK)
                        == tcpflags::SYN | tcpflags::ACK =>
                {
                    c.state = TcpState::Established;
                    c.rcv_nxt = seg.seq.wrapping_add(1);
                    c.snd_una = seg.ack;
                    s.stats.established += 1;
                    let cb = s.conns.get_mut(&conn).unwrap().on_established.take();
                    // Complete the handshake with a bare ACK.
                    let c = s.conns.get(&conn).unwrap();
                    let ack = Segment {
                        src_port: c.local_port,
                        dst_port: c.peer_port,
                        seq: c.snd_nxt,
                        ack: c.rcv_nxt,
                        flags: tcpflags::ACK,
                        window: (s.rwnd.min(u16::MAX as usize)) as u16,
                    };
                    let peer = c.peer_ip;
                    drop(s);
                    Self::emit(stack, sim, peer, ack, Bytes::new(), 0);
                    Some((cb, conn))
                }
                TcpState::SynReceived if seg.flags & tcpflags::ACK != 0 => {
                    c.state = TcpState::Established;
                    c.snd_una = seg.ack;
                    s.stats.established += 1;
                    let port = s.conns.get(&conn).unwrap().local_port;
                    let listener = s.listeners.get(&port).cloned();
                    drop(s);
                    if let Some(l) = listener {
                        l(sim, conn);
                    }
                    None
                }
                _ => None,
            }
        };
        if let Some((Some(cb), id)) = established_cb {
            cb(sim, id);
        }

        Self::process_ack_field(stack, sim, conn, seg);
        if !data.is_empty() {
            Self::process_data(stack, sim, conn, seg, data);
        }
    }

    fn process_ack_field(stack: &Rc<RefCell<TcpStack>>, sim: &mut Sim, conn: ConnId, seg: Segment) {
        // Fast retransmit: three duplicate ACKs for the window base signal
        // a lost segment well before the RTO (RFC 2581).
        let fast_resend = {
            let mut s = stack.borrow_mut();
            let mss = s.mss;
            let rwnd16 = s.rwnd.min(u16::MAX as usize) as u16;
            let Some(c) = s.conns.get_mut(&conn) else {
                return;
            };
            if seg.flags & tcpflags::ACK != 0
                && seg.ack == c.snd_una
                && !c.retx.is_empty()
                && c.state == TcpState::Established
            {
                c.dup_acks += 1;
                if c.dup_acks == 3 {
                    let (&seq, payload) = c.retx.iter().next().unwrap();
                    let payload = payload.clone();
                    let flight = c.snd_nxt.wrapping_sub(c.snd_una) as usize;
                    c.ssthresh = (flight / 2).max(2 * mss);
                    c.cwnd = c.ssthresh;
                    let reply = Segment {
                        src_port: c.local_port,
                        dst_port: c.peer_port,
                        seq,
                        ack: c.rcv_nxt,
                        flags: tcpflags::ACK,
                        window: rwnd16,
                    };
                    let peer = c.peer_ip;
                    s.stats.fast_retransmits += 1;
                    Some((peer, reply, payload))
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some((peer, reply, payload)) = fast_resend {
            sim.trace
                .instant(sim.now(), Layer::TcpIp, "fast_retransmit", 0);
            Self::emit_data(stack, sim, peer, reply, payload, 0);
        }
        let progressed = {
            let mut s = stack.borrow_mut();
            let mss = s.mss;
            let initial_rto = s.initial_rto;
            let Some(c) = s.conns.get_mut(&conn) else {
                return;
            };
            if seg.flags & tcpflags::ACK == 0 || !seq_gt(seg.ack, c.snd_una) {
                false
            } else {
                let acked = seg.ack.wrapping_sub(c.snd_una) as usize;
                c.snd_una = seg.ack;
                let keys: Vec<u32> = c
                    .retx
                    .keys()
                    .copied()
                    .filter(|&k| !seq_ge(k, seg.ack))
                    .collect();
                for k in keys {
                    c.retx.remove(&k);
                }
                // Congestion window growth.
                if c.cwnd < c.ssthresh {
                    c.cwnd += acked.min(mss); // slow start
                } else {
                    c.cwnd += (mss * mss / c.cwnd).max(1); // avoidance
                }
                c.rto = initial_rto;
                c.rto_gen += 1;
                c.rto_running = false;
                c.dup_acks = 0;
                true
            }
        };
        if progressed {
            Self::ensure_rto(stack, sim, conn);
            Self::try_transmit(stack, sim, conn, 0);
        }
    }

    fn process_data(
        stack: &Rc<RefCell<TcpStack>>,
        sim: &mut Sim,
        conn: ConnId,
        seg: Segment,
        data: Bytes,
    ) {
        let (ack_now, arm_delack) = {
            let mut s = stack.borrow_mut();
            let threshold = s.delack_threshold;
            let Some(c) = s.conns.get_mut(&conn) else {
                return;
            };
            if seq_gt(seg.seq, c.rcv_nxt) {
                // Out of order: buffer, ACK immediately (dup ACK).
                c.ooo.entry(seg.seq).or_insert(data);
                (true, false)
            } else if seq_gt(c.rcv_nxt, seg.seq)
                && seq_ge(c.rcv_nxt, seg.seq.wrapping_add(data.len() as u32))
            {
                // Entirely old: re-ACK.
                (true, false)
            } else {
                // In order (possibly with an old prefix).
                let skip = c.rcv_nxt.wrapping_sub(seg.seq) as usize;
                let fresh = data.slice(skip..);
                c.rcv_nxt = c.rcv_nxt.wrapping_add(fresh.len() as u32);
                c.recv_buf_bytes += fresh.len();
                c.recv_buf.push_back(fresh);
                // Drain contiguous out-of-order segments.
                while let Some((&seq, _)) = c.ooo.iter().next() {
                    if seq_gt(seq, c.rcv_nxt) {
                        break;
                    }
                    let seg_data = c.ooo.remove(&seq).unwrap();
                    let skip = c.rcv_nxt.wrapping_sub(seq) as usize;
                    if skip < seg_data.len() {
                        let fresh = seg_data.slice(skip..);
                        c.rcv_nxt = c.rcv_nxt.wrapping_add(fresh.len() as u32);
                        c.recv_buf_bytes += fresh.len();
                        c.recv_buf.push_back(fresh);
                    }
                }
                c.delack_count += 1;
                if c.delack_count >= threshold {
                    c.delack_count = 0;
                    c.delack_gen += 1;
                    c.delack_armed = false;
                    (true, false)
                } else {
                    (false, !c.delack_armed)
                }
            }
        };
        if ack_now {
            Self::send_ack(stack, sim, conn);
        } else if arm_delack {
            let generation = {
                let mut s = stack.borrow_mut();
                let c = s.conns.get_mut(&conn).unwrap();
                c.delack_armed = true;
                c.delack_gen += 1;
                c.delack_gen
            };
            let delay = stack.borrow().delack_delay;
            let stack2 = stack.clone();
            sim.schedule_in(delay, move |sim| {
                let fire = {
                    let mut s = stack2.borrow_mut();
                    match s.conns.get_mut(&conn) {
                        Some(c) if c.delack_armed && c.delack_gen == generation => {
                            c.delack_armed = false;
                            c.delack_count = 0;
                            true
                        }
                        _ => false,
                    }
                };
                if fire {
                    Self::send_ack(&stack2, sim, conn);
                }
            });
        }
        Self::satisfy_readers(stack, sim, conn);
    }

    fn send_ack(stack: &Rc<RefCell<TcpStack>>, sim: &mut Sim, conn: ConnId) {
        let (peer, seg) = {
            let mut s = stack.borrow_mut();
            let rwnd = s.rwnd;
            let Some(c) = s.conns.get_mut(&conn) else {
                return;
            };
            let seg = Segment {
                src_port: c.local_port,
                dst_port: c.peer_port,
                seq: c.snd_nxt,
                ack: c.rcv_nxt,
                flags: tcpflags::ACK,
                window: (rwnd.min(u16::MAX as usize)) as u16,
            };
            s.stats.acks_tx += 1;
            (s.conns.get(&conn).unwrap().peer_ip, seg)
        };
        Self::emit_data(stack, sim, peer, seg, Bytes::new(), 0);
    }

    /// Hand buffered in-order bytes to blocked readers, charging the
    /// kernel→user copy and the wakeup.
    fn satisfy_readers(stack: &Rc<RefCell<TcpStack>>, sim: &mut Sim, conn: ConnId) {
        let kernel = Self::kernel_of(stack);
        loop {
            let ready = {
                let mut s = stack.borrow_mut();
                let Some(c) = s.conns.get_mut(&conn) else {
                    return;
                };
                match c.readers.front() {
                    Some(&(len, _)) if c.recv_buf_bytes >= len => {
                        let (len, cont) = c.readers.pop_front().unwrap();
                        let data = take_front(&mut c.recv_buf, len);
                        c.recv_buf_bytes -= len;
                        Some((data, cont))
                    }
                    _ => None,
                }
            };
            let Some((data, cont)) = ready else {
                return;
            };
            let copy_cost = kernel.borrow().costs.copy.cost_observed(sim, data.len());
            Kernel::cpu_task(&kernel, sim, copy_cost, move |sim| cont(sim, data));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_compare_wraps() {
        assert!(seq_ge(5, 5));
        assert!(seq_gt(6, 5));
        assert!(!seq_gt(5, 6));
        // Across the wrap point.
        assert!(seq_gt(2, u32::MAX - 2));
        assert!(!seq_gt(u32::MAX - 2, 2));
    }

    #[test]
    fn segment_roundtrip_with_checksum() {
        let src = IpAddr::for_node(1);
        let dst = IpAddr::for_node(2);
        let seg = Segment {
            src_port: 1234,
            dst_port: 80,
            seq: 0xdead_beef,
            ack: 0x0102_0304,
            flags: tcpflags::ACK,
            window: 4096,
        };
        let wire = seg.encode(src, dst, b"payload");
        let (parsed, data) = Segment::decode(src, dst, &wire).unwrap();
        assert_eq!(parsed, seg);
        assert_eq!(&data[..], b"payload");
        // The data is a view into the segment, not a copy.
        assert_eq!(data.as_ptr(), wire[TCP_HEADER..].as_ptr());
    }

    #[test]
    fn take_front_slices_one_buffer_and_gathers_across_many() {
        let a = Bytes::from_static(b"abcdef");
        let mut q: VecDeque<Bytes> = [a.clone(), Bytes::from_static(b"gh")].into();
        let first = take_front(&mut q, 4);
        assert_eq!(&first[..], b"abcd");
        assert_eq!(first.as_ptr(), a.as_ptr(), "one buffer covers it: sliced");
        assert_eq!(&take_front(&mut q, 3)[..], b"efg");
        assert_eq!(q, [Bytes::from_static(b"h")]);
    }

    #[test]
    fn corrupted_segment_rejected() {
        let src = IpAddr::for_node(1);
        let dst = IpAddr::for_node(2);
        let seg = Segment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: tcpflags::SYN,
            window: 100,
        };
        let wire = seg.encode(src, dst, b"x");
        let mut bad = wire.to_vec();
        bad[20] ^= 0x40; // flip the payload byte
        assert!(Segment::decode(src, dst, &Bytes::from(bad)).is_none());
        // Wrong pseudo-header (different src IP) must also fail.
        assert!(Segment::decode(IpAddr::for_node(9), dst, &wire).is_none());
    }

    #[test]
    fn empty_payload_segment_roundtrip() {
        let src = IpAddr::for_node(1);
        let dst = IpAddr::for_node(2);
        let seg = Segment {
            src_port: 9,
            dst_port: 10,
            seq: 1,
            ack: 2,
            flags: tcpflags::SYN | tcpflags::ACK,
            window: 0,
        };
        let wire = seg.encode(src, dst, b"");
        let (parsed, data) = Segment::decode(src, dst, &wire).unwrap();
        assert_eq!(parsed, seg);
        assert!(data.is_empty());
    }
}
