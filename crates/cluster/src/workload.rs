//! Workload drivers: ping-pong latency and streaming bandwidth for every
//! stack the paper evaluates, plus the robustness workloads (chaos soak,
//! incast backpressure) behind `figures chaos`.

use crate::builder::Cluster;
use bytes::Bytes;
use clic_core::{ClicError, ClicModule, ClicPort, SendOptions};
use clic_ethernet::MacAddr;
use clic_gamma::GammaModule;
use clic_mpi::transport::{ClicTransport, TcpTransport, Transport};
use clic_mpi::{Mpi, Pvm};
use clic_sim::stats::LatencyStats;
use clic_sim::{Sim, SimDuration, SimRng, SimTime};
use clic_tcpip::TcpStack;
use std::cell::RefCell;
use std::rc::{Rc, Weak};

/// Which stack a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// Raw CLIC messages.
    Clic,
    /// Raw TCP stream (message = fixed-size record).
    Tcp,
    /// MPI-like layer over CLIC.
    MpiClic,
    /// MPI-like layer over TCP.
    MpiTcp,
    /// PVM-like layer over TCP.
    PvmTcp,
    /// GAMMA-like active ports (best effort).
    Gamma,
}

impl StackKind {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            StackKind::Clic => "CLIC",
            StackKind::Tcp => "TCP",
            StackKind::MpiClic => "MPI-CLIC",
            StackKind::MpiTcp => "MPI-TCP",
            StackKind::PvmTcp => "PVM-TCP",
            StackKind::Gamma => "GAMMA",
        }
    }
}

/// Ping-pong outcome.
#[derive(Debug)]
pub struct PingPongResult {
    /// Round-trip samples.
    pub rtt: LatencyStats,
}

impl PingPongResult {
    /// One-way latency: half the minimum round trip (the paper's metric).
    pub fn one_way(&self) -> SimDuration {
        self.rtt.min().expect("no samples") / 2
    }
}

/// Streaming outcome.
#[derive(Debug)]
pub struct StreamResult {
    /// Payload bytes delivered to the receiving process.
    pub bytes: u64,
    /// Messages fully delivered.
    pub msgs: u64,
    /// First-send to last-delivery span.
    pub elapsed: SimDuration,
    /// Sender CPU busy fraction over `elapsed`.
    pub sender_cpu: f64,
    /// Receiver CPU busy fraction over `elapsed`.
    pub receiver_cpu: f64,
}

impl StreamResult {
    /// Delivered bandwidth in Mb/s (the paper's y-axis).
    pub fn mbps(&self) -> f64 {
        if self.elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// One period of the workload byte pattern: byte `i` of a message is
/// `i % 251`.
const PATTERN: [u8; 251] = {
    let mut p = [0u8; 251];
    let mut i = 0;
    while i < p.len() {
        p[i] = i as u8;
        i += 1;
    }
    p
};

/// Append pattern bytes to `v` until it holds `n`, one memcpy per period.
fn extend_pattern(v: &mut Vec<u8>, n: usize) {
    while v.len() < n {
        let at = v.len() % PATTERN.len();
        let take = (PATTERN.len() - at).min(n - v.len());
        v.extend_from_slice(&PATTERN[at..at + take]);
    }
}

fn payload(n: usize) -> Bytes {
    let mut v = Vec::with_capacity(n);
    extend_pattern(&mut v, n);
    Bytes::from(v)
}

/// How many messages to stream for a given size: enough to reach steady
/// state, bounded so sweeps stay fast.
pub fn stream_count(size: usize) -> usize {
    ((8 << 20) / size.max(1)).clamp(8, 600)
}

// ---------------------------------------------------------------------
// Ping-pong
// ---------------------------------------------------------------------

/// Run `iters` ping-pong round trips of `size` bytes between nodes 0 and 1
/// of `cluster` over `stack`. The echo side reflects the full payload.
pub fn ping_pong(
    cluster: &Cluster,
    sim: &mut Sim,
    stack: StackKind,
    size: usize,
    iters: usize,
) -> PingPongResult {
    let rtt = request_reply_cycles(cluster, sim, stack, size, size, iters);
    PingPongResult { rtt }
}

/// Run `iters` request/reply cycles (`req_size` bytes out, `reply_size`
/// bytes back) and return the cycle-time samples. This is the primitive
/// under both [`ping_pong`] (symmetric) and [`stream`] (tiny reply): the
/// paper's bandwidth benchmark completes each message before sending the
/// next, which is what makes its curves reach 50 % of peak only at 4 KB
/// (CLIC) / 16 KB (TCP).
pub fn request_reply_cycles(
    cluster: &Cluster,
    sim: &mut Sim,
    stack: StackKind,
    req_size: usize,
    reply_size: usize,
    iters: usize,
) -> LatencyStats {
    request_reply_cycles_with_background(cluster, sim, stack, req_size, reply_size, iters, |_| {})
}

/// [`request_reply_cycles`] with a `background` hook invoked right before
/// the measured cycles start (after any connection establishment the stack
/// needs) — used to inject competing traffic for latency-under-load
/// experiments.
pub fn request_reply_cycles_with_background(
    cluster: &Cluster,
    sim: &mut Sim,
    stack: StackKind,
    req_size: usize,
    reply_size: usize,
    iters: usize,
    background: impl FnOnce(&mut Sim),
) -> LatencyStats {
    assert!(iters > 0);
    let samples: Rc<RefCell<LatencyStats>> = Rc::new(RefCell::new(LatencyStats::new()));
    match stack {
        StackKind::Clic => {
            background(sim);
            pingpong_clic(cluster, sim, req_size, reply_size, iters, &samples);
        }
        StackKind::Tcp => {
            // Establishment happens inside; the hook runs after it so
            // injected traffic is not drained by the setup run.
            pingpong_tcp(
                cluster, sim, req_size, reply_size, iters, &samples, background,
            );
        }
        StackKind::Gamma => {
            background(sim);
            pingpong_gamma(cluster, sim, req_size, reply_size, iters, &samples);
        }
        StackKind::MpiClic | StackKind::MpiTcp => {
            pingpong_mpi(
                cluster, sim, stack, req_size, reply_size, iters, &samples, background,
            );
        }
        StackKind::PvmTcp => {
            pingpong_pvm(
                cluster, sim, req_size, reply_size, iters, &samples, background,
            );
        }
    }
    sim.run();
    let rtt = samples.borrow().clone();
    assert_eq!(rtt.count(), iters, "not all iterations completed");
    rtt
}

fn pingpong_clic(
    cluster: &Cluster,
    sim: &mut Sim,
    size: usize,
    reply_size: usize,
    iters: usize,
    samples: &Rc<RefCell<LatencyStats>>,
) {
    const CH: u16 = 100;
    let a = &cluster.nodes[0];
    let b = &cluster.nodes[1];
    let pid_a = a.kernel.borrow_mut().processes.spawn();
    let pid_b = b.kernel.borrow_mut().processes.spawn();
    let port_a = Rc::new(ClicPort::bind(&a.clic(), pid_a, CH));
    let port_b = Rc::new(ClicPort::bind(&b.clic(), pid_b, CH));
    let a_mac = a.mac;
    let b_mac = b.mac;

    // Echo side: perpetual recv -> reply.
    fn echo(
        port: Rc<ClicPort>,
        sim: &mut Sim,
        peer: clic_ethernet::MacAddr,
        reply_size: usize,
        left: usize,
    ) {
        if left == 0 {
            return;
        }
        let p2 = port.clone();
        port.recv(sim, move |sim, msg| {
            let reply = if reply_size == msg.data.len() {
                msg.data
            } else {
                payload(reply_size)
            };
            p2.send(sim, peer, 100, reply);
            echo(p2.clone(), sim, peer, reply_size, left - 1);
        });
    }
    echo(port_b, sim, a_mac, reply_size, iters);

    // Initiator: send, await echo, sample, repeat.
    struct St {
        port: Rc<ClicPort>,
        peer: clic_ethernet::MacAddr,
        size: usize,
        samples: Rc<RefCell<LatencyStats>>,
    }
    fn iterate(st: Rc<St>, sim: &mut Sim, left: usize) {
        if left == 0 {
            return;
        }
        let t0 = sim.now();
        st.port.send(sim, st.peer, 100, payload(st.size));
        let st2 = st.clone();
        st.port.recv(sim, move |sim, _msg| {
            st2.samples.borrow_mut().record(sim.now() - t0);
            iterate(st2.clone(), sim, left - 1);
        });
    }
    iterate(
        Rc::new(St {
            port: port_a,
            peer: b_mac,
            size,
            samples: samples.clone(),
        }),
        sim,
        iters,
    );
}

fn pingpong_tcp(
    cluster: &Cluster,
    sim: &mut Sim,
    size: usize,
    reply_size: usize,
    iters: usize,
    samples: &Rc<RefCell<LatencyStats>>,
    background: impl FnOnce(&mut Sim),
) {
    // TCP cannot carry zero-length records; a 0-byte "message" becomes the
    // 1-byte minimum, as latency benchmarks over sockets actually do.
    let size = size.max(1);
    let reply_size = reply_size.max(1);
    let a = cluster.nodes[0].tcp();
    let b = cluster.nodes[1].tcp();
    let b_ip = cluster.nodes[1].ip;
    let server_conn: Rc<RefCell<Option<clic_tcpip::ConnId>>> = Rc::new(RefCell::new(None));
    let sc = server_conn.clone();
    b.borrow_mut()
        .listen(9000, move |_s, id| *sc.borrow_mut() = Some(id));
    let client_conn: Rc<RefCell<Option<clic_tcpip::ConnId>>> = Rc::new(RefCell::new(None));
    let cc = client_conn.clone();
    TcpStack::connect(&a, sim, b_ip, 9000, move |_s, id| {
        *cc.borrow_mut() = Some(id)
    });
    sim.run();
    let client = client_conn.borrow().expect("connect failed");
    let server = server_conn.borrow().expect("accept failed");
    background(sim);

    fn echo(
        stack: Rc<RefCell<TcpStack>>,
        sim: &mut Sim,
        conn: clic_tcpip::ConnId,
        size: usize,
        reply_size: usize,
        left: usize,
    ) {
        if left == 0 {
            return;
        }
        let s2 = stack.clone();
        TcpStack::recv(&stack, sim, conn, size, move |sim, data| {
            let reply = if reply_size == data.len() {
                data
            } else {
                payload(reply_size)
            };
            TcpStack::send(&s2, sim, conn, reply);
            echo(s2.clone(), sim, conn, size, reply_size, left - 1);
        });
    }
    echo(b, sim, server, size, reply_size, iters);

    struct St {
        stack: Rc<RefCell<TcpStack>>,
        conn: clic_tcpip::ConnId,
        size: usize,
        reply_size: usize,
        samples: Rc<RefCell<LatencyStats>>,
    }
    fn iterate(st: Rc<St>, sim: &mut Sim, left: usize) {
        if left == 0 {
            return;
        }
        let t0 = sim.now();
        TcpStack::send(&st.stack, sim, st.conn, payload(st.size));
        let st2 = st.clone();
        TcpStack::recv(
            &st.stack.clone(),
            sim,
            st.conn,
            st.reply_size,
            move |sim, _| {
                st2.samples.borrow_mut().record(sim.now() - t0);
                iterate(st2.clone(), sim, left - 1);
            },
        );
    }
    iterate(
        Rc::new(St {
            stack: a,
            conn: client,
            size,
            reply_size,
            samples: samples.clone(),
        }),
        sim,
        iters,
    );
}

/// The GAMMA module behind a port handler's weak handle.
fn gamma_of(module: &Weak<RefCell<GammaModule>>) -> Rc<RefCell<GammaModule>> {
    module
        .upgrade()
        .expect("GAMMA module dropped while its port delivers")
}

fn pingpong_gamma(
    cluster: &Cluster,
    sim: &mut Sim,
    size: usize,
    reply_size: usize,
    iters: usize,
    samples: &Rc<RefCell<LatencyStats>>,
) {
    const PORT: u16 = 50;
    let a = cluster.nodes[0].gamma();
    let b = cluster.nodes[1].gamma();
    let b_mac = cluster.nodes[1].mac;
    // Echo side. Each port handler holds its own module weakly: the
    // module holds the handler, and the node owns the module.
    let b2 = Rc::downgrade(&b);
    b.borrow_mut().register_port(PORT, move |sim, msg| {
        let reply = if reply_size == msg.data.len() {
            msg.data
        } else {
            payload(reply_size)
        };
        GammaModule::send(&gamma_of(&b2), sim, msg.src, PORT, reply);
    });
    // Initiator: handler drives the next iteration.
    let state: Rc<RefCell<(usize, SimTime)>> = Rc::new(RefCell::new((iters, SimTime::ZERO)));
    let a2 = Rc::downgrade(&a);
    let samples2 = samples.clone();
    let st = state.clone();
    a.borrow_mut().register_port(PORT, move |sim, _msg| {
        let (left, t0) = *st.borrow();
        samples2.borrow_mut().record(sim.now() - t0);
        if left > 1 {
            *st.borrow_mut() = (left - 1, sim.now());
            GammaModule::send(&gamma_of(&a2), sim, b_mac, PORT, payload(size));
        } else {
            st.borrow_mut().0 = 0;
        }
    });
    state.borrow_mut().1 = sim.now();
    GammaModule::send(&a, sim, b_mac, PORT, payload(size));
}

#[allow(clippy::too_many_arguments)]
fn pingpong_mpi(
    cluster: &Cluster,
    sim: &mut Sim,
    stack: StackKind,
    size: usize,
    reply_size: usize,
    iters: usize,
    samples: &Rc<RefCell<LatencyStats>>,
    background: impl FnOnce(&mut Sim),
) {
    let (m0, m1) = mpi_pair(cluster, sim, stack);
    background(sim);
    // Echo side.
    fn echo(mpi: Rc<Mpi>, sim: &mut Sim, reply_size: usize, left: usize) {
        if left == 0 {
            return;
        }
        let m2 = mpi.clone();
        mpi.recv(sim, 0, 1, move |sim, msg| {
            let reply = if reply_size == msg.data.len() {
                msg.data
            } else {
                payload(reply_size)
            };
            m2.send(sim, 0, 2, reply);
            echo(m2.clone(), sim, reply_size, left - 1);
        });
    }
    echo(m1, sim, reply_size, iters);
    struct St {
        mpi: Rc<Mpi>,
        size: usize,
        samples: Rc<RefCell<LatencyStats>>,
    }
    fn iterate(st: Rc<St>, sim: &mut Sim, left: usize) {
        if left == 0 {
            return;
        }
        let t0 = sim.now();
        st.mpi.send(sim, 1, 1, payload(st.size));
        let st2 = st.clone();
        st.mpi.recv(sim, 1, 2, move |sim, _| {
            st2.samples.borrow_mut().record(sim.now() - t0);
            iterate(st2.clone(), sim, left - 1);
        });
    }
    iterate(
        Rc::new(St {
            mpi: m0,
            size,
            samples: samples.clone(),
        }),
        sim,
        iters,
    );
}

fn pingpong_pvm(
    cluster: &Cluster,
    sim: &mut Sim,
    size: usize,
    reply_size: usize,
    iters: usize,
    samples: &Rc<RefCell<LatencyStats>>,
    background: impl FnOnce(&mut Sim),
) {
    let (t0, t1) = tcp_transport_pair(cluster, sim);
    background(sim);
    let p0 = Pvm::new(&cluster.nodes[0].kernel, t0);
    let p1 = Pvm::new(&cluster.nodes[1].kernel, t1);
    // Echo side: recv -> pack -> send.
    fn echo(pvm: Rc<Pvm>, sim: &mut Sim, reply_size: usize, left: usize) {
        if left == 0 {
            return;
        }
        let p2 = pvm.clone();
        pvm.recv(sim, -1, 1, move |sim, _msg| {
            let p3 = p2.clone();
            p2.clone().pack(sim, payload(reply_size), move |sim| {
                p3.send(sim, 0, 2);
                echo(p3.clone(), sim, reply_size, left - 1);
            });
        });
    }
    echo(p1, sim, reply_size, iters);
    struct St {
        pvm: Rc<Pvm>,
        size: usize,
        samples: Rc<RefCell<LatencyStats>>,
    }
    fn iterate(st: Rc<St>, sim: &mut Sim, left: usize) {
        if left == 0 {
            return;
        }
        let t0 = sim.now();
        let st2 = st.clone();
        st.pvm.clone().pack(sim, payload(st.size), move |sim| {
            st2.pvm.send(sim, 1, 1);
            let st3 = st2.clone();
            st2.pvm.clone().recv(sim, 1, 2, move |sim, _| {
                st3.samples.borrow_mut().record(sim.now() - t0);
                iterate(st3.clone(), sim, left - 1);
            });
        });
    }
    iterate(
        Rc::new(St {
            pvm: p0,
            size,
            samples: samples.clone(),
        }),
        sim,
        iters,
    );
}

/// Build the MPI endpoints for nodes 0 and 1 over the requested backend.
fn mpi_pair(cluster: &Cluster, sim: &mut Sim, stack: StackKind) -> (Rc<Mpi>, Rc<Mpi>) {
    match stack {
        StackKind::MpiClic => {
            let peers = vec![cluster.nodes[0].mac, cluster.nodes[1].mac];
            let mk = |i: usize, sim: &mut Sim| {
                let node = &cluster.nodes[i];
                let pid = node.kernel.borrow_mut().processes.spawn();
                let t = ClicTransport::new(sim, &node.clic(), pid, i, peers.clone());
                Mpi::new(&node.kernel, t)
            };
            let m0 = mk(0, sim);
            let m1 = mk(1, sim);
            (m0, m1)
        }
        StackKind::MpiTcp => {
            let (t0, t1) = tcp_transport_pair(cluster, sim);
            (
                Mpi::new(&cluster.nodes[0].kernel, t0),
                Mpi::new(&cluster.nodes[1].kernel, t1),
            )
        }
        _ => panic!("not an MPI stack"),
    }
}

fn tcp_transport_pair(cluster: &Cluster, sim: &mut Sim) -> (Rc<dyn Transport>, Rc<dyn Transport>) {
    let ips = vec![cluster.nodes[0].ip, cluster.nodes[1].ip];
    let t0 = TcpTransport::new(sim, &cluster.nodes[0].tcp(), 0, ips.clone());
    let t1 = TcpTransport::new(sim, &cluster.nodes[1].tcp(), 1, ips);
    sim.run();
    assert!(t0.ready() && t1.ready(), "TCP transport mesh failed");
    (t0, t1)
}

// ---------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------

/// The paper's bandwidth benchmark: `count` synchronous message cycles of
/// `size` bytes from node 0 to node 1 (each message is completed — a tiny
/// application-level reply returns — before the next is sent).
pub fn stream(
    cluster: &Cluster,
    sim: &mut Sim,
    stack: StackKind,
    size: usize,
    count: usize,
) -> StreamResult {
    let start = sim.now();
    let cycles = request_reply_cycles(cluster, sim, stack, size.max(1), 4, count);
    let elapsed = sim.now().saturating_since(start);
    let window = elapsed.max(SimDuration::from_ns(1));
    let sender_cpu = cluster.nodes[0]
        .kernel
        .borrow()
        .cpu
        .borrow()
        .utilization(window);
    let receiver_cpu = cluster.nodes[1]
        .kernel
        .borrow()
        .cpu
        .borrow()
        .utilization(window);
    // Goodput counts the request payloads over the sum of cycle times
    // (excluding the post-run settling the simulator does after the last
    // reply).
    let sum_cycles: SimDuration = {
        // LatencyStats has no iterator; reconstruct from mean * count.
        cycles.mean().expect("cycles") * cycles.count() as u64
    };
    StreamResult {
        bytes: (size * count) as u64,
        msgs: count as u64,
        elapsed: sum_cycles,
        sender_cpu,
        receiver_cpu,
    }
}

/// Offered-load streaming: node 0 posts all `count` messages of `size`
/// bytes at once and the stacks pipeline them as their windows allow.
/// Measures the capability limit rather than the paper's synchronous
/// benchmark; used by the ablations.
pub fn stream_pipelined(
    cluster: &Cluster,
    sim: &mut Sim,
    stack: StackKind,
    size: usize,
    count: usize,
) -> StreamResult {
    assert!(size > 0 && count > 0);
    // (delivered bytes, delivered msgs, last delivery time)
    let progress: Rc<RefCell<(u64, u64, SimTime)>> = Rc::new(RefCell::new((0, 0, SimTime::ZERO)));
    let start = match stack {
        StackKind::Clic => stream_clic(cluster, sim, size, count, &progress),
        StackKind::Tcp => stream_tcp(cluster, sim, size, count, &progress),
        StackKind::Gamma => stream_gamma(cluster, sim, size, count, &progress),
        StackKind::MpiClic | StackKind::MpiTcp => {
            stream_mpi(cluster, sim, stack, size, count, &progress)
        }
        StackKind::PvmTcp => stream_pvm(cluster, sim, size, count, &progress),
    };
    sim.set_event_limit(sim.events_executed() + 400_000_000);
    sim.run();
    let (bytes, msgs, last) = *progress.borrow();
    assert!(msgs > 0, "stream delivered nothing");
    let elapsed = last.saturating_since(start);
    let window = elapsed.max(SimDuration::from_ns(1));
    let sender_cpu = cluster.nodes[0]
        .kernel
        .borrow()
        .cpu
        .borrow()
        .utilization(window);
    let receiver_cpu = cluster.nodes[1]
        .kernel
        .borrow()
        .cpu
        .borrow()
        .utilization(window);
    StreamResult {
        bytes,
        msgs,
        elapsed,
        sender_cpu,
        receiver_cpu,
    }
}

type Progress = Rc<RefCell<(u64, u64, SimTime)>>;

fn note(progress: &Progress, now: SimTime, bytes: usize) {
    let mut p = progress.borrow_mut();
    p.0 += bytes as u64;
    p.1 += 1;
    p.2 = p.2.max(now);
}

fn stream_clic(
    cluster: &Cluster,
    sim: &mut Sim,
    size: usize,
    count: usize,
    progress: &Progress,
) -> SimTime {
    const CH: u16 = 200;
    let a = &cluster.nodes[0];
    let b = &cluster.nodes[1];
    let pid_a = a.kernel.borrow_mut().processes.spawn();
    let pid_b = b.kernel.borrow_mut().processes.spawn();
    let tx = Rc::new(ClicPort::bind(&a.clic(), pid_a, CH));
    let rx = Rc::new(ClicPort::bind(&b.clic(), pid_b, CH));
    fn sink(port: Rc<ClicPort>, sim: &mut Sim, progress: Progress, left: usize) {
        if left == 0 {
            return;
        }
        let p2 = port.clone();
        port.recv(sim, move |sim, msg| {
            note(&progress, sim.now(), msg.data.len());
            sink(p2.clone(), sim, progress, left - 1);
        });
    }
    sink(rx, sim, progress.clone(), count);
    let start = sim.now();
    let data = payload(size);
    for _ in 0..count {
        tx.send(sim, b.mac, CH, data.clone());
    }
    start
}

fn stream_tcp(
    cluster: &Cluster,
    sim: &mut Sim,
    size: usize,
    count: usize,
    progress: &Progress,
) -> SimTime {
    let a = cluster.nodes[0].tcp();
    let b = cluster.nodes[1].tcp();
    let b_ip = cluster.nodes[1].ip;
    let server_conn: Rc<RefCell<Option<clic_tcpip::ConnId>>> = Rc::new(RefCell::new(None));
    let sc = server_conn.clone();
    b.borrow_mut()
        .listen(9100, move |_s, id| *sc.borrow_mut() = Some(id));
    let client_conn: Rc<RefCell<Option<clic_tcpip::ConnId>>> = Rc::new(RefCell::new(None));
    let cc = client_conn.clone();
    TcpStack::connect(&a, sim, b_ip, 9100, move |_s, id| {
        *cc.borrow_mut() = Some(id)
    });
    sim.run();
    let client = client_conn.borrow().expect("connect failed");
    let server = server_conn.borrow().expect("accept failed");
    fn sink(
        stack: Rc<RefCell<TcpStack>>,
        sim: &mut Sim,
        conn: clic_tcpip::ConnId,
        size: usize,
        progress: Progress,
        left: usize,
    ) {
        if left == 0 {
            return;
        }
        let s2 = stack.clone();
        TcpStack::recv(&stack, sim, conn, size, move |sim, data| {
            note(&progress, sim.now(), data.len());
            sink(s2.clone(), sim, conn, size, progress, left - 1);
        });
    }
    sink(b, sim, server, size, progress.clone(), count);
    let start = sim.now();
    let data = payload(size);
    for _ in 0..count {
        TcpStack::send(&a, sim, client, data.clone());
    }
    start
}

fn stream_gamma(
    cluster: &Cluster,
    sim: &mut Sim,
    size: usize,
    count: usize,
    progress: &Progress,
) -> SimTime {
    const PORT: u16 = 60;
    let a = cluster.nodes[0].gamma();
    let b = cluster.nodes[1].gamma();
    let b_mac = cluster.nodes[1].mac;
    let p = progress.clone();
    b.borrow_mut().register_port(PORT, move |sim, msg| {
        note(&p, sim.now(), msg.data.len());
    });
    let start = sim.now();
    let data = payload(size);
    for _ in 0..count {
        GammaModule::send(&a, sim, b_mac, PORT, data.clone());
    }
    start
}

fn stream_mpi(
    cluster: &Cluster,
    sim: &mut Sim,
    stack: StackKind,
    size: usize,
    count: usize,
    progress: &Progress,
) -> SimTime {
    let (m0, m1) = mpi_pair(cluster, sim, stack);
    fn sink(mpi: Rc<Mpi>, sim: &mut Sim, progress: Progress, left: usize) {
        if left == 0 {
            return;
        }
        let m2 = mpi.clone();
        mpi.recv(sim, 0, 1, move |sim, msg| {
            note(&progress, sim.now(), msg.data.len());
            sink(m2.clone(), sim, progress, left - 1);
        });
    }
    sink(m1, sim, progress.clone(), count);
    let start = sim.now();
    let data = payload(size);
    for _ in 0..count {
        m0.send(sim, 1, 1, data.clone());
    }
    start
}

fn stream_pvm(
    cluster: &Cluster,
    sim: &mut Sim,
    size: usize,
    count: usize,
    progress: &Progress,
) -> SimTime {
    let (t0, t1) = tcp_transport_pair(cluster, sim);
    let p0 = Pvm::new(&cluster.nodes[0].kernel, t0);
    let p1 = Pvm::new(&cluster.nodes[1].kernel, t1);
    fn sink(pvm: Rc<Pvm>, sim: &mut Sim, progress: Progress, left: usize) {
        if left == 0 {
            return;
        }
        let p2 = pvm.clone();
        pvm.recv(sim, -1, 1, move |sim, msg| {
            note(&progress, sim.now(), msg.data.len());
            sink(p2.clone(), sim, progress, left - 1);
        });
    }
    sink(p1, sim, progress.clone(), count);
    let start = sim.now();
    // PVM sends serialize: pack -> send -> pack the next.
    fn pump(pvm: Rc<Pvm>, sim: &mut Sim, data: Bytes, left: usize) {
        if left == 0 {
            return;
        }
        let p2 = pvm.clone();
        let d2 = data.clone();
        pvm.clone().pack(sim, data, move |sim| {
            p2.send(sim, 1, 1);
            pump(p2.clone(), sim, d2, left - 1);
        });
    }
    pump(p0, sim, payload(size), count);
    start
}

// ---------------------------------------------------------------------
// All-to-all exchange (N-node clusters)
// ---------------------------------------------------------------------

/// Outcome of an all-to-all exchange.
#[derive(Debug)]
pub struct AllToAllResult {
    /// Nodes participating.
    pub nodes: usize,
    /// Bytes each node sent to each other node.
    pub bytes_per_pair: usize,
    /// Start of the exchange to the last delivery anywhere.
    pub elapsed: SimDuration,
}

impl AllToAllResult {
    /// Aggregate delivered bandwidth across the cluster, Mb/s.
    pub fn aggregate_mbps(&self) -> f64 {
        if self.elapsed == SimDuration::ZERO {
            return 0.0;
        }
        let total = self.bytes_per_pair as f64 * (self.nodes * (self.nodes - 1)) as f64;
        total * 8.0 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Every node sends `size` bytes to every other node (CLIC only; the
/// switched cluster's scalability workload).
pub fn all_to_all_clic(cluster: &Cluster, sim: &mut Sim, size: usize) -> AllToAllResult {
    const CH: u16 = 300;
    let n = cluster.nodes.len();
    assert!(n >= 2);
    let finished: Rc<RefCell<(usize, SimTime)>> = Rc::new(RefCell::new((0, SimTime::ZERO)));
    // Receivers: each node expects n-1 messages.
    for node in &cluster.nodes {
        let pid = node.kernel.borrow_mut().processes.spawn();
        let port = Rc::new(ClicPort::bind(&node.clic(), pid, CH));
        fn sink(
            port: Rc<ClicPort>,
            sim: &mut Sim,
            finished: Rc<RefCell<(usize, SimTime)>>,
            left: usize,
        ) {
            if left == 0 {
                return;
            }
            let p = port.clone();
            port.recv(sim, move |sim, _msg| {
                {
                    let mut f = finished.borrow_mut();
                    f.0 += 1;
                    f.1 = f.1.max(sim.now());
                }
                sink(p.clone(), sim, finished, left - 1);
            });
        }
        sink(port, sim, finished.clone(), n - 1);
    }
    // Senders: each node fires at every peer.
    let start = sim.now();
    let data = payload(size);
    for (i, node) in cluster.nodes.iter().enumerate() {
        let pid = node.kernel.borrow_mut().processes.spawn();
        let port = ClicPort::bind(&node.clic(), pid, CH + 1);
        for (j, peer) in cluster.nodes.iter().enumerate() {
            if i != j {
                port.send(sim, peer.mac, CH, data.clone());
            }
        }
    }
    sim.set_event_limit(sim.events_executed() + 400_000_000);
    sim.run();
    let (count, last) = *finished.borrow();
    assert_eq!(count, n * (n - 1), "every pairwise message must arrive");
    AllToAllResult {
        nodes: n,
        bytes_per_pair: size,
        elapsed: last.saturating_since(start),
    }
}

// ---------------------------------------------------------------------
// Cluster-scale collectives (host-based vs NIC-offloaded)
// ---------------------------------------------------------------------

/// Outcome of one cluster-wide collective-latency measurement.
#[derive(Debug)]
pub struct CollScaleResult {
    /// Participating nodes.
    pub nodes: usize,
    /// Enter-to-release latency of one full barrier (first entry to the
    /// last rank's release).
    pub barrier: SimDuration,
    /// Contribute-to-total latency of one u64 all-reduce.
    pub allreduce: SimDuration,
    /// The all-reduce total (sanity: `n*(n+1)/2` for contributions `1..=n`).
    pub allreduce_value: u64,
}

/// Build MPI endpoints over CLIC on every node of the cluster.
pub fn mpi_all(cluster: &Cluster, sim: &mut Sim) -> Vec<Rc<Mpi>> {
    let peers: Vec<MacAddr> = cluster.nodes.iter().map(|n| n.mac).collect();
    cluster
        .nodes
        .iter()
        .enumerate()
        .map(|(rank, node)| {
            let pid = node.kernel.borrow_mut().processes.spawn();
            let t = ClicTransport::new(sim, &node.clic(), pid, rank, peers.clone());
            Mpi::new(&node.kernel, t)
        })
        .collect()
}

/// Measure whole-cluster barrier and all-reduce latency, either host-based
/// (linear algorithms over MPI point-to-point, every message through the
/// full OS stack) or NIC-offloaded (`offload = true`: the firmware
/// combining tree of [`clic_hw::coll`], release by Ethernet multicast).
/// Works on any topology; on the fabric topologies the collective traffic
/// crosses the multi-switch network on its static ECMP routes.
pub fn collective_scale(cluster: &Cluster, sim: &mut Sim, offload: bool) -> CollScaleResult {
    use clic_hw::coll::CollConfig;
    use clic_hw::Nic;
    use clic_mpi::collectives::{allreduce_sum_on, barrier_on, CollBackend};

    let n = cluster.nodes.len();
    assert!(n >= 2);
    let backends: Vec<CollBackend> = if offload {
        let members: Vec<MacAddr> = cluster.nodes.iter().map(|node| node.mac).collect();
        cluster
            .nodes
            .iter()
            .enumerate()
            .map(|(rank, node)| {
                let nic = node.nic();
                Nic::enable_collectives(&nic, CollConfig::new(1, members.clone(), rank));
                CollBackend::NicOffload(nic)
            })
            .collect()
    } else {
        mpi_all(cluster, sim)
            .into_iter()
            .map(CollBackend::Host)
            .collect()
    };

    // One settled barrier first would hide cold-start asymmetries; the
    // paper-style measurement is the cold one, so measure directly — both
    // backends start equally cold.
    let finished: Rc<RefCell<(usize, SimTime)>> = Rc::new(RefCell::new((0, SimTime::ZERO)));
    let start = sim.now();
    for backend in &backends {
        let f = finished.clone();
        barrier_on(backend, sim, move |sim| {
            let mut f = f.borrow_mut();
            f.0 += 1;
            f.1 = f.1.max(sim.now());
        });
    }
    sim.set_event_limit(sim.events_executed() + 400_000_000);
    sim.run();
    let (count, last) = *finished.borrow();
    assert_eq!(count, n, "every rank must be released from the barrier");
    let barrier = last.saturating_since(start);

    let reduced: Rc<RefCell<(usize, SimTime, u64)>> = Rc::new(RefCell::new((0, SimTime::ZERO, 0)));
    let start = sim.now();
    for (rank, backend) in backends.iter().enumerate() {
        let r = reduced.clone();
        allreduce_sum_on(backend, sim, rank as u64 + 1, move |sim, total| {
            let mut r = r.borrow_mut();
            r.0 += 1;
            r.1 = r.1.max(sim.now());
            r.2 = total;
        });
    }
    sim.set_event_limit(sim.events_executed() + 400_000_000);
    sim.run();
    let (count, last, total) = *reduced.borrow();
    assert_eq!(count, n, "every rank must receive the all-reduce total");
    assert_eq!(total, (n as u64 * (n as u64 + 1)) / 2);
    CollScaleResult {
        nodes: n,
        barrier,
        allreduce: last.saturating_since(start),
        allreduce_value: total,
    }
}

// ---------------------------------------------------------------------
// Chaos soak (crash / restart / flap / loss) and incast backpressure
// ---------------------------------------------------------------------

/// Randomized-but-seeded fault schedule for one chaos-soak run. Drawn up
/// front from its own deterministic generator (never the simulator's
/// event-driven one), so a schedule depends only on its seed — not on
/// event interleaving — and the whole run stays byte-reproducible.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Receiver crash windows `(crash_at, restart_at)`, ascending and
    /// non-overlapping: the node crash-stops at the first time and
    /// restarts under a fresh epoch at the second.
    pub crashes: Vec<(SimTime, SimTime)>,
    /// Link-flap windows `(start, end)`, ascending and non-overlapping
    /// (they may overlap crash windows).
    pub flaps: Vec<(SimTime, SimTime)>,
}

impl ChaosPlan {
    /// Draw a schedule with `crashes` crash/restart cycles and `flaps`
    /// link flaps from `seed`.
    pub fn draw(seed: u64, crashes: usize, flaps: usize) -> ChaosPlan {
        // Domain-separated from the simulator seed so a chaos job's link
        // faults and its schedule are independent draws.
        let mut rng = SimRng::new(seed ^ 0x0C4A_05EE_D0DD_BA11);
        let mut windows = Vec::new();
        let mut t = 300u64; // µs
        for _ in 0..crashes {
            let at = t + rng.gen_range_u64(200..2_500);
            let back = at + rng.gen_range_u64(150..1_500);
            windows.push((SimTime::from_us(at), SimTime::from_us(back)));
            t = back + rng.gen_range_u64(2_000..6_000);
        }
        let mut flap_windows = Vec::new();
        let mut ft = 150u64;
        for _ in 0..flaps {
            let start = ft + rng.gen_range_u64(100..3_000);
            let end = start + rng.gen_range_u64(50..400);
            flap_windows.push((SimTime::from_us(start), SimTime::from_us(end)));
            ft = end + rng.gen_range_u64(1_000..4_000);
        }
        ChaosPlan {
            crashes: windows,
            flaps: flap_windows,
        }
    }
}

/// Outcome of one chaos-soak run. The hard invariants (exactly-once
/// in-order delivery or a typed error, no stranded buffers, quiescent
/// timers, full accounting) are asserted inside [`chaos_clic`]; this
/// carries the numbers worth reporting.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Messages the application posted.
    pub posted: usize,
    /// Messages whose delivery the protocol confirmed (ACKed).
    pub confirmed: usize,
    /// Messages covered by a typed flow failure (never re-posted).
    pub failed: usize,
    /// Messages the receiving application actually drained. May exceed
    /// `confirmed` (ACK lost before teardown) or fall short of it (the
    /// receiver crashed after ACKing but before the application read —
    /// the end-to-end argument in action).
    pub delivered: usize,
    /// Flow teardowns by cause.
    pub errors_max_retries: usize,
    /// Keepalive declared the (crashed or flapped-away) peer dead.
    pub errors_peer_dead: usize,
    /// The peer restarted into a new session epoch mid-flow.
    pub errors_stale_epoch: usize,
    /// Flow generations used (1 + number of typed teardowns).
    pub eras: usize,
    /// Time of the last application-level delivery.
    pub last_delivery: SimDuration,
    /// The run ended because the event queue drained, not the limit.
    pub quiesced: bool,
}

/// Per-message sender bookkeeping of one chaos run.
struct ChaosTxState {
    next_tag: usize,
    outstanding: std::collections::BTreeSet<usize>,
    confirmed: usize,
    failed: usize,
    era: usize,
    err_mr: usize,
    err_pd: usize,
    err_se: usize,
}

/// Receiver-side delivery log of one chaos run.
struct ChaosLog {
    seen: std::collections::BTreeSet<usize>,
    duplicates: usize,
    order_violations: usize,
    corrupt: usize,
    last_tag: Option<usize>,
    last_at: SimTime,
}

/// The chaos workload's state. The modules hold it (the error handler,
/// the pending receives), so it holds them weakly; the node owns them.
struct ChaosCtx {
    sender: Weak<RefCell<ClicModule>>,
    receiver: Weak<RefCell<ClicModule>>,
    dst: MacAddr,
    size: usize,
    total: usize,
    state: RefCell<ChaosTxState>,
    log: RefCell<ChaosLog>,
    /// Channels with a live receive chain (cleared on receiver crash).
    installed: RefCell<std::collections::BTreeSet<u16>>,
}

const CHAOS_CH_BASE: u16 = 400;
/// Application-level messages kept in flight by the chaos sender.
const CHAOS_WINDOW: usize = 4;

fn chaos_payload(tag: usize, size: usize) -> Bytes {
    let mut v = Vec::with_capacity(size);
    v.extend_from_slice(&(tag as u64).to_be_bytes());
    extend_pattern(&mut v, size);
    Bytes::from(v)
}

/// Post messages until the application window is full or all are posted.
fn chaos_pump(ctx: &Rc<ChaosCtx>, sim: &mut Sim) {
    loop {
        let (tag, channel) = {
            let mut s = ctx.state.borrow_mut();
            if s.next_tag >= ctx.total || s.outstanding.len() >= CHAOS_WINDOW {
                return;
            }
            let tag = s.next_tag;
            s.next_tag += 1;
            s.outstanding.insert(tag);
            (tag, CHAOS_CH_BASE + s.era as u16)
        };
        let mut opts = SendOptions::data(ctx.dst, channel);
        let ctx2 = ctx.clone();
        opts.confirm = Some(Box::new(move |sim| {
            {
                let mut s = ctx2.state.borrow_mut();
                if s.outstanding.remove(&tag) {
                    s.confirmed += 1;
                }
            }
            chaos_pump(&ctx2, sim);
        }));
        ClicModule::send(&ctx.sender(), sim, opts, chaos_payload(tag, ctx.size));
    }
}

/// Install (idempotently) an endless receive chain on `channel` of the
/// chaos receiver, logging every delivered message.
fn chaos_drain(ctx: &Rc<ChaosCtx>, sim: &mut Sim, channel: u16) {
    if !ctx.installed.borrow_mut().insert(channel) {
        return;
    }
    fn chain(ctx: Rc<ChaosCtx>, sim: &mut Sim, channel: u16) {
        ClicModule::recv(&ctx.receiver(), sim, channel, move |sim, msg| {
            {
                let mut log = ctx.log.borrow_mut();
                let tag = u64::from_be_bytes(msg.data[..8].try_into().unwrap()) as usize;
                if !ctx.log_delivery_ok(&msg.data) {
                    log.corrupt += 1;
                }
                if !log.seen.insert(tag) {
                    log.duplicates += 1;
                }
                if log.last_tag.is_some_and(|last| tag <= last) {
                    log.order_violations += 1;
                }
                log.last_tag = Some(tag);
                log.last_at = sim.now();
            }
            chain(ctx, sim, channel);
        });
    }
    chain(ctx.clone(), sim, channel);
}

impl ChaosCtx {
    fn sender(&self) -> Rc<RefCell<ClicModule>> {
        self.sender
            .upgrade()
            .expect("chaos sender dropped while the soak runs")
    }

    fn receiver(&self) -> Rc<RefCell<ClicModule>> {
        self.receiver
            .upgrade()
            .expect("chaos receiver dropped while the soak runs")
    }

    /// Byte-exact check of the filler pattern behind the tag prefix.
    fn log_delivery_ok(&self, data: &Bytes) -> bool {
        data.len() == self.size
            && data[8..]
                .iter()
                .enumerate()
                .all(|(i, &b)| b == ((i + 8) % 251) as u8)
    }
}

/// The chaos-soak workload: stream `nmsgs` tagged messages of `size`
/// bytes from node 0 to node 1 of a two-node CLIC `cluster` while the
/// receiver crash-restarts and the link flaps per `plan` (compose link
/// loss via the cluster's fault plan — but not duplication or
/// reordering, which would legitimately break the strict-order check).
///
/// The sender keeps [`CHAOS_WINDOW`] messages in flight, confirms each
/// via protocol ACK, and on a typed flow failure writes off everything
/// outstanding and continues on a fresh channel (a new application-level
/// flow) — it never re-posts, so every tag is unique for the whole run.
///
/// Asserts the robustness invariants the `figures chaos` harness is
/// about: the run quiesces (all timers die), every posted message is
/// either confirmed or written off by a typed error, delivery is
/// duplicate-free and strictly in posting order, payloads arrive intact,
/// and no receive-side buffer is left holding bytes at quiescence.
///
/// The cluster's CLIC config must enable the robustness machinery
/// (`keepalive_interval`, `epoch_guard`) — without it a crashed peer
/// strands the flow forever and the quiescence assert fires.
pub fn chaos_clic(
    cluster: &Cluster,
    sim: &mut Sim,
    size: usize,
    nmsgs: usize,
    plan: &ChaosPlan,
) -> ChaosOutcome {
    assert_eq!(cluster.nodes.len(), 2, "chaos soak runs on a pair");
    assert!(size >= 8, "chaos payloads carry an 8-byte tag");
    let ctx = Rc::new(ChaosCtx {
        sender: Rc::downgrade(&cluster.nodes[0].clic()),
        receiver: Rc::downgrade(&cluster.nodes[1].clic()),
        dst: cluster.nodes[1].mac,
        size,
        total: nmsgs,
        state: RefCell::new(ChaosTxState {
            next_tag: 0,
            outstanding: Default::default(),
            confirmed: 0,
            failed: 0,
            era: 0,
            err_mr: 0,
            err_pd: 0,
            err_se: 0,
        }),
        log: RefCell::new(ChaosLog {
            seen: Default::default(),
            duplicates: 0,
            order_violations: 0,
            corrupt: 0,
            last_tag: None,
            last_at: SimTime::ZERO,
        }),
        installed: RefCell::new(Default::default()),
    });

    // Typed teardown: write off everything outstanding, advance to a
    // fresh channel (flow keys must not be reused — the failed flow's
    // receive window may survive a sender-side-only teardown) and keep
    // going.
    {
        let ctx2 = ctx.clone();
        ctx.sender()
            .borrow_mut()
            .set_error_handler(Rc::new(move |sim, e| {
                {
                    let mut s = ctx2.state.borrow_mut();
                    match &e {
                        ClicError::MaxRetriesExceeded { .. } => s.err_mr += 1,
                        ClicError::PeerDead { .. } => s.err_pd += 1,
                        ClicError::StaleEpoch { .. } => s.err_se += 1,
                        other => panic!("unexpected chaos error: {other:?}"),
                    }
                    let written_off = s.outstanding.len();
                    s.failed += written_off;
                    s.outstanding.clear();
                    s.era += 1;
                }
                let ctx3 = ctx2.clone();
                // Continue outside the teardown path.
                sim.schedule_now(move |sim| {
                    let ch = CHAOS_CH_BASE + ctx3.state.borrow().era as u16;
                    chaos_drain(&ctx3, sim, ch);
                    chaos_pump(&ctx3, sim);
                });
            }));
    }

    // Fault actuators.
    for &(at, back) in &plan.crashes {
        crate::lifecycle::schedule_crash(cluster, sim, 1, at);
        crate::lifecycle::schedule_restart(cluster, sim, 1, back);
        // A crash kills the receive chains (port state is kernel memory);
        // forget them, then re-install for the current era on restart.
        let ctx2 = ctx.clone();
        sim.schedule_at(at + SimDuration::from_ns(1), move |_sim| {
            ctx2.installed.borrow_mut().clear();
        });
        let ctx2 = ctx.clone();
        sim.schedule_at(back + SimDuration::from_ns(1), move |sim| {
            let ch = CHAOS_CH_BASE + ctx2.state.borrow().era as u16;
            chaos_drain(&ctx2, sim, ch);
        });
    }
    for &(start, end) in &plan.flaps {
        crate::lifecycle::flap_link(cluster, 0, start, end);
    }

    chaos_drain(&ctx, sim, CHAOS_CH_BASE);
    chaos_pump(&ctx, sim);
    let limit = sim.events_executed() + 400_000_000;
    sim.set_event_limit(limit);
    sim.run();
    let quiesced = sim.events_executed() < limit;

    let state = ctx.state.borrow();
    let log = ctx.log.borrow();
    // The invariants. Quiescence first: every later check assumes the
    // run actually finished.
    assert!(quiesced, "chaos run never quiesced (leaked timers?)");
    assert_eq!(state.next_tag, nmsgs, "every message must be posted");
    assert!(
        state.outstanding.is_empty() && state.confirmed + state.failed == nmsgs,
        "every message must be confirmed or written off by a typed error \
         (confirmed {} + failed {} != posted {})",
        state.confirmed,
        state.failed,
        nmsgs
    );
    assert_eq!(log.duplicates, 0, "a message reached the application twice");
    assert_eq!(log.order_violations, 0, "deliveries left posting order");
    assert_eq!(
        log.corrupt, 0,
        "a corrupted payload reached the application"
    );
    assert!(log.seen.len() <= nmsgs);
    for module in [ctx.sender(), ctx.receiver()] {
        assert_eq!(
            module.borrow().buffered_bytes(),
            0,
            "receive-side buffers stranded after quiescence"
        );
    }
    ChaosOutcome {
        posted: nmsgs,
        confirmed: state.confirmed,
        failed: state.failed,
        delivered: log.seen.len(),
        errors_max_retries: state.err_mr,
        errors_peer_dead: state.err_pd,
        errors_stale_epoch: state.err_se,
        eras: state.era + 1,
        last_delivery: log.last_at.saturating_since(SimTime::ZERO),
        quiesced,
    }
}

/// Outcome of an incast run ([`incast_clic`]).
#[derive(Debug)]
pub struct IncastOutcome {
    /// Concurrent senders.
    pub senders: usize,
    /// Messages delivered (always equals the message count posted — the
    /// workload asserts nothing is lost).
    pub delivered: usize,
    /// Per-message completion time (post → application delivery).
    pub completion: LatencyStats,
    /// Peak receive-side buffered bytes observed at the receiver module,
    /// sampled at every delivery.
    pub peak_buffered_bytes: usize,
    /// First post to last delivery.
    pub elapsed: SimDuration,
}

/// The N→1 incast workload: every node but node 0 posts `per_sender`
/// messages of `size` bytes to node 0 at the same instant, and the
/// receiving application is deliberately slow (`consume_delay` per
/// message), so arrivals pile up in the receiver's CLIC buffers. With a
/// `recv_budget_bytes` configured, the advertised window on ACKs pushes
/// back on the senders and the pile-up stays bounded; without it, the
/// backlog is limited only by `max_pending_bytes` drops and retransmits.
pub fn incast_clic(
    cluster: &Cluster,
    sim: &mut Sim,
    size: usize,
    per_sender: usize,
    consume_delay: SimDuration,
) -> IncastOutcome {
    const CH: u16 = 500;
    let n = cluster.nodes.len();
    assert!(n >= 3, "incast needs at least two senders");
    let expected = (n - 1) * per_sender;
    let receiver = &cluster.nodes[0];
    let pid = receiver.kernel.borrow_mut().processes.spawn();
    let port = Rc::new(ClicPort::bind(&receiver.clic(), pid, CH));
    // (delivered, last delivery time, completion stats, peak buffer).
    struct RxState {
        delivered: usize,
        last: SimTime,
        completion: LatencyStats,
        peak: usize,
    }
    let rx: Rc<RefCell<RxState>> = Rc::new(RefCell::new(RxState {
        delivered: 0,
        last: SimTime::ZERO,
        completion: LatencyStats::new(),
        peak: 0,
    }));
    let start = sim.now();
    fn sink(
        port: Rc<ClicPort>,
        module: Rc<RefCell<clic_core::ClicModule>>,
        sim: &mut Sim,
        rx: Rc<RefCell<RxState>>,
        start: SimTime,
        delay: SimDuration,
        left: usize,
    ) {
        if left == 0 {
            return;
        }
        let p = port.clone();
        port.recv(sim, move |sim, _msg| {
            {
                let mut r = rx.borrow_mut();
                r.delivered += 1;
                r.last = sim.now();
                r.completion.record(sim.now().saturating_since(start));
                r.peak = r.peak.max(module.borrow().buffered_bytes());
            }
            // The slow consumer: digest before asking for the next one.
            sim.schedule_in(delay, move |sim| {
                sink(p, module, sim, rx, start, delay, left - 1)
            });
        });
    }
    sink(
        port,
        receiver.clic(),
        sim,
        rx.clone(),
        start,
        consume_delay,
        expected,
    );
    let data = payload(size);
    let dst = receiver.mac;
    for node in &cluster.nodes[1..] {
        let pid = node.kernel.borrow_mut().processes.spawn();
        let tx = ClicPort::bind(&node.clic(), pid, CH + 1);
        for _ in 0..per_sender {
            tx.send(sim, dst, CH, data.clone());
        }
    }
    let limit = sim.events_executed() + 400_000_000;
    sim.set_event_limit(limit);
    sim.run();
    assert!(sim.events_executed() < limit, "incast run never quiesced");
    let rx = rx.borrow();
    assert_eq!(rx.delivered, expected, "incast must deliver everything");
    IncastOutcome {
        senders: n - 1,
        delivered: rx.delivered,
        completion: rx.completion.clone(),
        peak_buffered_bytes: rx.peak,
        elapsed: rx.last.saturating_since(start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ClusterConfig, Topology};
    use clic_ethernet::LossModel;

    #[test]
    fn payload_bytes_match_the_per_byte_formula() {
        for n in [0, 1, 7, 8, 9, 250, 251, 252, 1500, 65_543, 4 << 20] {
            let want: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            assert_eq!(payload(n), want, "payload({n})");
            let tag = 0x0102_0304_0506_0708 + n;
            let mut want = (tag as u64).to_be_bytes().to_vec();
            want.extend((8..n).map(|i| (i % 251) as u8));
            assert_eq!(chaos_payload(tag, n), want, "chaos_payload(_, {n})");
            // Short chaos messages still carry the whole 8-byte tag.
            assert_eq!(chaos_payload(tag, n).len(), n.max(8));
        }
    }

    fn chaos_pair(loss: f64) -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_pair();
        cfg.faults.loss = if loss > 0.0 {
            LossModel::Bernoulli(loss)
        } else {
            LossModel::None
        };
        let clic = cfg.node.clic.as_mut().unwrap();
        clic.keepalive_interval = Some(SimDuration::from_us(500));
        clic.peer_dead_timeout = SimDuration::from_ms(5);
        clic.epoch_guard = true;
        cfg
    }

    #[test]
    fn chaos_soak_exactly_once_or_typed_error() {
        let cfg = chaos_pair(0.005);
        let cluster = Cluster::build(&cfg);
        let mut sim = Sim::new(11);
        let plan = ChaosPlan::draw(11, 2, 2);
        let out = chaos_clic(&cluster, &mut sim, 2048, 60, &plan);
        // The hard invariants are asserted inside chaos_clic; check the
        // schedule actually exercised the machinery.
        assert_eq!(out.posted, 60);
        assert_eq!(out.confirmed + out.failed, 60);
        assert!(out.quiesced);
        assert!(
            out.eras > 1,
            "two crash windows should force at least one typed teardown: {out:?}"
        );
        assert!(out.errors_peer_dead + out.errors_stale_epoch > 0);
    }

    #[test]
    fn chaos_soak_invariants_hold_with_congestion_control() {
        // The PR 5 invariants (confirmed+failed==posted with typed errors
        // only, exactly-once in-order delivery per era, timers quiesce,
        // buffered_bytes()==0 — all asserted inside chaos_clic) must
        // survive the congestion window being active. Route the pair
        // through a marking switch so the full mark→echo→cwnd loop runs
        // inside the crash/flap/loss schedule, not just the
        // loss-as-congestion fallback.
        let mut cfg = chaos_pair(0.005);
        cfg.topology = Topology::Switched;
        cfg.mark_threshold = Some(1);
        cfg.node.clic.as_mut().unwrap().congestion = Some(clic_core::CongestionConfig::dctcp());
        let run = || {
            let cluster = Cluster::build(&cfg);
            let mut sim = Sim::new(11);
            let plan = ChaosPlan::draw(11, 2, 2);
            let out = chaos_clic(&cluster, &mut sim, 2048, 60, &plan);
            assert_eq!(out.posted, 60);
            assert_eq!(out.confirmed + out.failed, 60);
            assert!(out.quiesced);
            // The congestion machinery must actually have engaged: the
            // switch marked and the sender processed echoes.
            assert!(
                sim.metrics.counter("eth.switch.ecn_marks") > 0,
                "switch never marked"
            );
            let echoes: u64 = cluster
                .nodes
                .iter()
                .map(|n| n.clic().borrow().stats().ecn_echoes)
                .sum();
            assert!(echoes > 0, "sender never saw an echo");
            format!("{out:?}")
        };
        // And the soak stays bit-deterministic with cwnd active.
        assert_eq!(run(), run());
    }

    #[test]
    fn chaos_soak_is_deterministic() {
        let run = || {
            let cluster = Cluster::build(&chaos_pair(0.01));
            let mut sim = Sim::new(7);
            let plan = ChaosPlan::draw(7, 1, 1);
            format!("{:?}", chaos_clic(&cluster, &mut sim, 1024, 40, &plan))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chaos_clean_run_confirms_everything() {
        // No faults at all: every message confirms, one era, no errors.
        let cluster = Cluster::build(&chaos_pair(0.0));
        let mut sim = Sim::new(5);
        let plan = ChaosPlan {
            crashes: vec![],
            flaps: vec![],
        };
        let out = chaos_clic(&cluster, &mut sim, 4096, 30, &plan);
        assert_eq!(out.confirmed, 30);
        assert_eq!(out.failed, 0);
        assert_eq!(out.delivered, 30);
        assert_eq!(out.eras, 1);
    }

    fn incast_config(nodes: usize, budget: Option<usize>) -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_pair();
        cfg.nodes = nodes;
        cfg.topology = Topology::Switched;
        let clic = cfg.node.clic.as_mut().unwrap();
        // A modest send window so the initial (pre-first-ACK) burst does
        // not dwarf the budget under test.
        clic.window = 16;
        clic.recv_budget_bytes = budget;
        cfg
    }

    #[test]
    fn incast_budget_bounds_receiver_buffer() {
        const BUDGET: usize = 64 * 1024;
        // 4 senders × 256 KiB into one deliberately slow consumer.
        let run = |budget| {
            let cluster = Cluster::build(&incast_config(5, budget));
            let mut sim = Sim::new(9);
            incast_clic(&cluster, &mut sim, 8 * 1024, 32, SimDuration::from_us(150))
        };
        let unbounded = run(None);
        let bounded = run(Some(BUDGET));
        assert_eq!(unbounded.delivered, 128);
        assert_eq!(bounded.delivered, 128);
        assert!(
            2 * bounded.peak_buffered_bytes < unbounded.peak_buffered_bytes,
            "budget must push back: bounded {} vs unbounded {}",
            bounded.peak_buffered_bytes,
            unbounded.peak_buffered_bytes
        );
        // The budget is a soft bound: packets already in flight when the
        // buffer crosses it still land, so allow a window per sender.
        assert!(
            bounded.peak_buffered_bytes <= BUDGET + 4 * 16 * 1500,
            "peak {} exceeds budget + in-flight slack",
            bounded.peak_buffered_bytes
        );
    }

    fn fabric_cfg(nodes: usize, topology: Topology) -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_pair();
        cfg.nodes = nodes;
        cfg.topology = topology;
        cfg
    }

    #[test]
    fn collective_scale_host_vs_nic_on_leaf_spine() {
        let cluster = Cluster::build(&fabric_cfg(16, Topology::LeafSpine));
        let mut sim = Sim::new(3);
        let host = collective_scale(&cluster, &mut sim, false);
        let cluster = Cluster::build(&fabric_cfg(16, Topology::LeafSpine));
        let mut sim = Sim::new(3);
        let nic = collective_scale(&cluster, &mut sim, true);
        assert_eq!(host.nodes, 16);
        assert_eq!(host.allreduce_value, 136);
        assert_eq!(nic.allreduce_value, 136);
        assert!(
            nic.barrier < host.barrier,
            "NIC tree barrier {:?} must beat the linear host barrier {:?}",
            nic.barrier,
            host.barrier
        );
        assert!(nic.allreduce < host.allreduce);
    }

    #[test]
    fn collective_scale_works_on_fat_tree() {
        let cluster = Cluster::build(&fabric_cfg(64, Topology::FatTree));
        let fabric = cluster.fabric.as_ref().unwrap();
        assert_eq!(fabric.kind_name(), "fat-tree");
        assert!(fabric.switch_count() > 1);
        let mut sim = Sim::new(4);
        let nic = collective_scale(&cluster, &mut sim, true);
        assert_eq!(nic.allreduce_value, 64 * 65 / 2);
        assert_eq!(
            sim.metrics.counter("eth.switch.drops"),
            0,
            "no tail drops at this load"
        );
    }

    #[test]
    fn collective_scale_is_deterministic() {
        let run = || {
            let cluster = Cluster::build(&fabric_cfg(32, Topology::LeafSpine));
            let mut sim = Sim::new(9);
            format!("{:?}", collective_scale(&cluster, &mut sim, true))
        };
        assert_eq!(run(), run());
    }
}
