//! CLIC_MODULE — the kernel-resident protocol engine.
//!
//! Send path (Figure 3): a user `send` enters the kernel through INT 80h
//! (≈ 0.65 µs), CLIC_MODULE composes the level-1 Ethernet + 12-byte CLIC
//! headers, fragments the message to MTU-sized packets, updates SK_BUFFs
//! (scatter-gather pointing at user memory in the 0-copy configuration) and
//! calls the unmodified driver; the NIC moves the data as bus master, so
//! module + driver retire before the transfer finishes. If the NIC cannot
//! accept a packet, the module copies it to system memory and retries later
//! — overlapped with other traffic, exactly §3.1. Every such copy is
//! charged to the CPU; the host does not make it, since the packet's data
//! is the sender's immutable buffer either way. A message may come with a
//! header part of its own (an MPI envelope): it rides in the first
//! packet's head behind the CLIC header, so the layer above never copies
//! its message to put the header in front.
//!
//! Receive path: the driver (interrupt) moves frames to system memory and
//! invokes the module through a Linux bottom half — or directly, with the
//! Figure 8b improvement (`Kernel::direct_dispatch`). The module runs the
//! sliding-window reliability machinery, reassembles messages, and either
//! copies them to a waiting process's user memory (waking it), parks them
//! in system memory for a later `recv`, or — for remote writes — places
//! them into the registered region with no receive call at all.

use crate::api::RecvMsg;
use crate::config::{ClicConfig, CongestionConfig, CongestionMode};
use crate::header::{control, flags, ClicHeader, PacketType, CLIC_HEADER, MSG_PREFIX};
use crate::reliable::{RecvOutcome, RecvWindow, SendWindow};
use bytes::{Bytes, Gather, Parts};
use clic_ethernet::{EtherType, Frame, MacAddr, RoundRobin};
use clic_os::driver::hard_start_xmit;
use clic_os::{DataLocation, Kernel, PacketHandler, Pid, SkBuff};
use clic_sim::catalog::metric_id;
use clic_sim::{Layer, MetricId, Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::{Rc, Weak};

/// Interned metric ids — the CLIC data path records per message/packet,
/// so names are resolved against the catalog at compile time. Counted
/// events live in [`ClicStats`] only; these are the distributions and
/// levels the module records live.
const MSG_BYTES: MetricId = metric_id("clic.msg_bytes");
const RTTVAR: MetricId = metric_id("clic.rttvar");
const RECV_BUFFER_BYTES: MetricId = metric_id("clic.recv_buffer_bytes");
const CWND: MetricId = metric_id("clic.cwnd");
const SSTHRESH: MetricId = metric_id("clic.ssthresh");
const EFFECTIVE_WINDOW: MetricId = metric_id("clic.effective_window");
const INFLIGHT_BYTES: MetricId = metric_id("clic.inflight_bytes");

/// Activity counters — the one store of these counts; the experiment
/// layer exports them per node as `n<id>.clic.*`.
#[derive(Debug, Default, Clone)]
pub struct ClicStats {
    /// Messages accepted from user processes.
    pub msgs_sent: u64,
    /// Messages fully delivered to this node's processes.
    pub msgs_received: u64,
    /// Data-bearing packets posted to NICs (first transmissions).
    pub packets_sent: u64,
    /// Data-bearing packets processed off the wire.
    pub packets_received: u64,
    /// Cumulative ACKs sent.
    pub acks_sent: u64,
    /// ACKs processed.
    pub acks_received: u64,
    /// Packets retransmitted (timeout + fast retransmit).
    pub retransmits: u64,
    /// Fast retransmits triggered by duplicate cumulative ACKs (also
    /// counted in `retransmits`).
    pub fast_retransmits: u64,
    /// Flows torn down with a typed error, any cause (the sum of the three
    /// cause-split counters below).
    pub flow_failures: u64,
    /// Flows abandoned after `max_retries` retransmissions of one packet.
    pub flow_failures_max_retries: u64,
    /// Flows torn down because the peer went silent past the peer-dead
    /// timeout (keepalive probes unanswered).
    pub flow_failures_peer_dead: u64,
    /// Flows torn down because the peer restarted into a new session epoch
    /// (its pre-crash receive state is gone).
    pub flow_failures_stale_epoch: u64,
    /// Packets staged to system memory because the NIC ring was full.
    pub staged_copies: u64,
    /// Duplicate packets discarded (and re-ACKed).
    pub duplicates: u64,
    /// Out-of-order packets dropped for buffer overflow.
    pub ooo_drops: u64,
    /// Best-effort (multicast/broadcast) packets delivered.
    pub best_effort_rx: u64,
    /// Frames that failed CLIC header parsing.
    pub malformed: u64,
    /// Data packets refused (unacknowledged) because the destination
    /// port's parked backlog hit its buffering limit.
    pub backlog_drops: u64,
    /// Data packets rejected by the epoch guard: they were stamped with a
    /// session epoch other than this incarnation's (stale pre-crash
    /// sequence space). Each rejection answers with a session reset.
    pub stale_epoch_drops: u64,
    /// Receive-side flow states garbage-collected because the sender went
    /// silent while a reassembly or out-of-order buffer was open.
    pub expired_drops: u64,
    /// Keepalive/handshake probes sent.
    pub keepalive_probes: u64,
    /// ACKs carrying a congestion-mark echo, processed on the send side.
    pub ecn_echoes: u64,
}

/// Terminal protocol errors CLIC surfaces to the embedding application
/// instead of retrying forever (§1: the network has "limited
/// fault-handling" — at some point the peer is simply gone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClicError {
    /// A flow was torn down because one of its packets was retransmitted
    /// more than [`crate::ClicConfig::max_retries`] times without being
    /// acknowledged. Unacknowledged and queued data of the flow is
    /// discarded; pending confirm callbacks never fire.
    MaxRetriesExceeded {
        /// The unresponsive peer station.
        peer: MacAddr,
        /// Destination channel of the failed flow.
        channel: u16,
        /// Sequence number of the packet that exhausted its retries.
        seq: u32,
        /// How many times it was retransmitted.
        retries: u32,
    },
    /// A flow was torn down because nothing (no ACK, no pong) was heard
    /// from the peer for [`crate::ClicConfig::peer_dead_timeout`] while
    /// data was outstanding, despite keepalive probes.
    PeerDead {
        /// The silent peer station.
        peer: MacAddr,
        /// Destination channel of the failed flow.
        channel: u16,
    },
    /// A flow was torn down because the peer restarted into a new session
    /// epoch: its pre-crash receive state — including everything this flow
    /// had in flight — no longer exists.
    StaleEpoch {
        /// The restarted peer station.
        peer: MacAddr,
        /// Destination channel of the failed flow.
        channel: u16,
    },
    /// The configuration failed validation (see
    /// [`crate::ClicConfig::validate`]); nothing was installed.
    Config {
        /// Which knob (combination) was rejected.
        what: &'static str,
    },
}

impl std::fmt::Display for ClicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClicError::MaxRetriesExceeded {
                peer,
                channel,
                seq,
                retries,
            } => write!(
                f,
                "flow to {peer:?} channel {channel} failed: seq {seq} unacknowledged after {retries} retransmissions"
            ),
            ClicError::PeerDead { peer, channel } => write!(
                f,
                "flow to {peer:?} channel {channel} failed: peer declared dead (keepalive timeout)"
            ),
            ClicError::StaleEpoch { peer, channel } => write!(
                f,
                "flow to {peer:?} channel {channel} failed: peer restarted into a new session epoch"
            ),
            ClicError::Config { what } => write!(f, "invalid CLIC configuration: {what}"),
        }
    }
}

type FlowKey = (MacAddr, u16);

/// Per-flow congestion-window state, present only when
/// [`ClicConfig::congestion`] is set. Window arithmetic is in packets and
/// kept as `f64` so congestion avoidance can grow by fractional amounts
/// per ACK (one packet per window's worth of ACKs) and the DCTCP mode can
/// scale its decrease by the EWMA mark fraction.
struct Congestion {
    cfg: CongestionConfig,
    /// Congestion window, packets. Never below 1.0 (progress guarantee).
    cwnd: f64,
    /// Slow-start threshold, packets.
    ssthresh: f64,
    /// DCTCP's EWMA of the per-window fraction of mark-echoing ACKs.
    alpha: f64,
    /// ACKs (total / mark-echoing) since the last alpha window rolled.
    acks_seen: u64,
    acks_marked: u64,
    /// Decreases apply at most once per window in flight: further signals
    /// are ignored until the cumulative ACK passes this sequence.
    recover_until: u32,
    /// End of the current alpha-estimation window (a sequence number).
    round_until: u32,
}

impl Congestion {
    fn new(cfg: CongestionConfig) -> Congestion {
        Congestion {
            cfg,
            cwnd: cfg.initial_cwnd as f64,
            ssthresh: cfg.initial_ssthresh as f64,
            // α starts at 1 (the conservative choice from the DCTCP
            // paper's implementations): the first echoes — typically the
            // slow-start overshoot — cut like AIMD, and the EWMA then
            // relaxes α toward the true mark fraction.
            alpha: 1.0,
            acks_seen: 0,
            acks_marked: 0,
            recover_until: 0,
            round_until: 0,
        }
    }

    /// Fold one cumulative ACK into the DCTCP mark-fraction estimate; the
    /// EWMA rolls once per window of sequence space, RTT-paced like the
    /// decreases.
    fn note_ack(&mut self, marked: bool, base: u32, flight_end: u32) {
        self.acks_seen += 1;
        if marked {
            self.acks_marked += 1;
        }
        if base >= self.round_until {
            let fraction = self.acks_marked as f64 / self.acks_seen as f64;
            let g = self.cfg.dctcp_gain;
            self.alpha = (1.0 - g) * self.alpha + g * fraction;
            self.acks_seen = 0;
            self.acks_marked = 0;
            self.round_until = flight_end;
        }
    }

    /// ACK progress grows the window: slow start adds a packet per ACKed
    /// packet below `ssthresh`, congestion avoidance adds `acked/cwnd`
    /// (one packet per window per RTT). Clamped to the configured window —
    /// the effective cap can never exceed it anyway.
    fn on_acked(&mut self, acked: u64, max: f64) {
        let mut n = acked as f64;
        if self.cwnd < self.ssthresh {
            let ss = n.min(self.ssthresh - self.cwnd);
            self.cwnd += ss;
            n -= ss;
        }
        if n > 0.0 {
            self.cwnd += n / self.cwnd;
        }
        self.cwnd = self.cwnd.min(max);
    }

    /// An echoed congestion mark: multiplicative decrease, at most once
    /// per window in flight. AIMD halves; DCTCP scales by `α/2` so light
    /// marking sheds little and persistent marking converges to a halve.
    fn on_echo(&mut self, base: u32, flight_end: u32) {
        if base < self.recover_until {
            return;
        }
        self.recover_until = flight_end;
        let factor = match self.cfg.mode {
            CongestionMode::Aimd => 0.5,
            CongestionMode::Dctcp => 1.0 - self.alpha / 2.0,
        };
        self.cwnd = (self.cwnd * factor).max(1.0);
        self.ssthresh = self.cwnd.max(2.0);
    }

    /// Loss inferred from duplicate ACKs (fast retransmit): halve, once
    /// per window, like classic NewReno.
    fn on_loss(&mut self, base: u32, flight_end: u32) {
        if base < self.recover_until {
            return;
        }
        self.recover_until = flight_end;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
    }

    /// Retransmission timeout: the strongest congestion signal — restart
    /// from slow start with half the old window as the threshold.
    fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
    }
}

/// Record the congestion-window gauges after a change. Only ever called
/// with congestion control enabled, so disabled runs see zero new metric
/// traffic.
fn cong_gauges(sim: &mut Sim, c: &Congestion) {
    sim.record(CWND, c.cwnd as u64);
    sim.record(SSTHRESH, c.ssthresh as u64);
}

struct QueuedPacket {
    header: ClicHeader,
    /// The packet's data: a slice of the user's message, before and after
    /// the packet is staged (`location` says where the model keeps it).
    body: Bytes,
    location: DataLocation,
    /// Whether a full TX ring has already staged this packet (counted and
    /// charged once).
    staged: bool,
    trace: u64,
}

/// A message in a flow's queue or window that carries a header part or
/// awaits confirmation of reception; the others need no record.
struct OutMessage {
    /// Sequence number of its first packet, whose head carries `head`.
    first: u32,
    /// Sequence number of its last packet.
    last: u32,
    /// The message's header part, sent on every transmission of the first
    /// packet; empty for a message sent in one part.
    head: Bytes,
    /// Runs once the whole message has been acknowledged.
    confirm: Option<Box<dyn FnOnce(&mut Sim)>>,
}

struct OutFlow {
    window: SendWindow,
    queue: VecDeque<QueuedPacket>,
    posting: usize,
    /// Messages not yet wholly acknowledged that carry a header part or a
    /// confirmation, in sequence order.
    messages: Vec<OutMessage>,
    rto_gen: u64,
    rto_running: bool,
    rto_current: SimDuration,
    kick_armed: bool,
    /// Smoothed RTT (ns), RFC 6298 fixed-point; `None` until the first
    /// sample.
    srtt_ns: Option<u64>,
    /// RTT variance (ns).
    rttvar_ns: u64,
    /// Consecutive duplicate cumulative ACKs naming the window base.
    dup_acks: u32,
    /// When anything (ACK or pong) was last heard from the peer; the
    /// peer-dead timeout measures from here. Initialized to flow creation.
    last_heard: SimTime,
    /// Keepalive timer bookkeeping (same generation-counter pattern as the
    /// RTO timer: a stale firing compares generations and dies).
    ka_armed: bool,
    ka_gen: u64,
    /// Most recent window the peer advertised on an ACK (packets); caps
    /// the effective send window. `None` until the peer advertises one.
    peer_window: Option<usize>,
    /// Congestion-window state ([`ClicConfig::congestion`]); `None` keeps
    /// the fixed configured window.
    cong: Option<Congestion>,
}

impl OutFlow {
    fn new(config: &ClicConfig, now: SimTime) -> OutFlow {
        OutFlow {
            window: SendWindow::new(config.window),
            queue: VecDeque::new(),
            posting: 0,
            messages: Vec::new(),
            rto_gen: 0,
            rto_running: false,
            rto_current: config.rto,
            kick_armed: false,
            srtt_ns: None,
            rttvar_ns: 0,
            dup_acks: 0,
            last_heard: now,
            ka_armed: false,
            ka_gen: 0,
            peer_window: None,
            cong: config.congestion.map(Congestion::new),
        }
    }

    /// The header part packet `seq` carries in its head: its message's,
    /// if it is the first packet of a message sent with one. Kept with
    /// the message rather than in every queued packet, since all but one
    /// packet of a message carry none.
    fn head_part(&self, seq: u32) -> &[u8] {
        self.messages
            .iter()
            .find(|m| m.first == seq)
            .map_or(&[], |m| &m.head[..])
    }

    /// A flow with nothing queued, posting or unacknowledged needs no
    /// liveness monitoring — its keepalive timer is allowed to die.
    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.posting == 0 && self.window.all_acked()
    }

    /// RFC 6298 with integer-ns arithmetic: fold in one RTT sample and
    /// return the resulting RTO, clamped to the configured bounds.
    fn rtt_sample(&mut self, sample_ns: u64, config: &ClicConfig) -> SimDuration {
        let srtt = match self.srtt_ns {
            None => {
                self.rttvar_ns = sample_ns / 2;
                sample_ns
            }
            Some(prev) => {
                // lint:allow(time-overflow, reason="RTT terms are real simulated spans; the 3x/7x headroom holds for any run shorter than ~68 years")
                self.rttvar_ns = (3 * self.rttvar_ns + prev.abs_diff(sample_ns)) / 4;
                // lint:allow(time-overflow, reason="RTT terms are real simulated spans; the 3x/7x headroom holds for any run shorter than ~68 years")
                (7 * prev + sample_ns) / 8
            }
        };
        self.srtt_ns = Some(srtt);
        // The 1 µs floor plays the role of RFC 6298's clock-granularity G.
        // lint:allow(time-overflow, reason="srtt and rttvar are smoothed real RTTs, orders of magnitude below the u64 ceiling")
        let rto_ns = (srtt + (4 * self.rttvar_ns).max(1_000))
            .clamp(config.rto_min.as_ns(), config.rto_max.as_ns());
        SimDuration::from_ns(rto_ns)
    }
}

struct Assembly {
    /// The message's header part, from its first packet's head.
    head: Bytes,
    /// The bytes behind it.
    buf: Gather,
    ptype: PacketType,
}

struct InFlow {
    window: RecvWindow,
    /// Boxed: a node keeps a flow per peer, and most of them have no
    /// message in reassembly.
    assembling: Option<Box<Assembly>>,
    unacked: u32,
    ack_timer_armed: bool,
    ack_gen: u64,
    /// When a data packet or probe from the peer last arrived; expiry GC
    /// measures from here.
    last_heard: SimTime,
    /// Expiry-GC timer bookkeeping (generation-guarded like every timer).
    exp_armed: bool,
    exp_gen: u64,
    /// A congestion-marked packet arrived since the last ACK left; the
    /// next ACK echoes the mark back to the sender. Always maintained —
    /// without switch marking it simply never sets, and echoing costs the
    /// receiver nothing.
    ce_seen: bool,
}

impl InFlow {
    fn new(config: &ClicConfig, now: SimTime) -> InFlow {
        InFlow {
            window: RecvWindow::new(config.ooo_limit),
            assembling: None,
            unacked: 0,
            ack_timer_armed: false,
            ack_gen: 0,
            last_heard: now,
            exp_armed: false,
            exp_gen: 0,
            ce_seen: false,
        }
    }

    /// Buffered state that must not be stranded if the sender dies:
    /// partial reassemblies plus out-of-order packets.
    fn holds_state(&self) -> bool {
        self.assembling.is_some() || self.window.buffered() > 0
    }
}

type Waiter = Box<dyn FnOnce(&mut Sim, RecvMsg)>;

#[derive(Default)]
struct PortState {
    pid: Option<Pid>,
    pending: VecDeque<RecvMsg>,
    pending_bytes: usize,
    waiting: VecDeque<Waiter>,
    remote_writes: Option<Vec<RecvMsg>>,
}

/// Options for [`ClicModule::send`].
pub struct SendOptions {
    /// Destination station (unicast, broadcast, or multicast group).
    pub dst: MacAddr,
    /// Channel (port) at the destination.
    pub channel: u16,
    /// Data, Mpi or RemoteWrite.
    pub ptype: PacketType,
    /// Invoked when the whole message has been acknowledged (send with
    /// confirmation of reception).
    pub confirm: Option<Box<dyn FnOnce(&mut Sim)>>,
    /// Pipeline-trace id (0 = untraced).
    pub trace: u64,
}

impl SendOptions {
    /// Plain data send.
    pub fn data(dst: MacAddr, channel: u16) -> SendOptions {
        SendOptions {
            dst,
            channel,
            ptype: PacketType::Data,
            confirm: None,
            trace: 0,
        }
    }
}

/// The CLIC kernel module of one node.
pub struct ClicModule {
    kernel: Weak<RefCell<Kernel>>,
    devices: Vec<usize>,
    macs: Vec<MacAddr>,
    bond: RoundRobin,
    max_chunk: usize,
    config: ClicConfig,
    out: BTreeMap<FlowKey, OutFlow>,
    inflows: BTreeMap<FlowKey, InFlow>,
    ports: BTreeMap<u16, PortState>,
    next_msg_id: u32,
    stats: ClicStats,
    error_handler: Option<Rc<dyn Fn(&mut Sim, ClicError)>>,
    /// This node's session incarnation, bumped on every restart. Monotonic
    /// internally; folded onto the 5-bit wire space when stamped.
    epoch: u32,
    /// Crash-stopped: frames are dropped, sends are swallowed. All flow,
    /// port and peer-epoch state was wiped at crash time.
    crashed: bool,
    /// Last wire epoch observed from each peer (via ACK, pong or reset);
    /// the epoch guard refuses to post data until the peer's is known.
    peer_epochs: BTreeMap<MacAddr, u8>,
}

/// Fold the monotonic incarnation counter onto the 5-bit wire space
/// (`1..=31`; `0` is reserved for "unknown / guard off").
fn wire_epoch(epoch: u32) -> u8 {
    ((epoch - 1) % 31 + 1) as u8
}

struct Handler(Rc<RefCell<ClicModule>>);

impl PacketHandler for Handler {
    fn handle(&self, sim: &mut Sim, kernel: &Rc<RefCell<Kernel>>, _dev: usize, frame: Frame) {
        ClicModule::on_frame(&self.0, sim, kernel, frame);
    }
}

impl ClicModule {
    /// Insert CLIC_MODULE into `kernel`, attached to `devices` (more than
    /// one enables channel bonding). Registers the CLIC EtherType handler.
    /// Panics on an invalid configuration; [`ClicModule::try_install`]
    /// surfaces the same condition as [`ClicError::Config`].
    pub fn install(
        kernel: &Rc<RefCell<Kernel>>,
        devices: Vec<usize>,
        config: ClicConfig,
    ) -> Rc<RefCell<ClicModule>> {
        match Self::try_install(kernel, devices, config) {
            Ok(module) => module,
            // lint:allow(no-unwrap, reason="install is the panicking convenience wrapper; try_install is the fallible API")
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`ClicModule::install`]: validates `config` first and
    /// returns [`ClicError::Config`] instead of panicking on nonsense.
    pub fn try_install(
        kernel: &Rc<RefCell<Kernel>>,
        devices: Vec<usize>,
        config: ClicConfig,
    ) -> Result<Rc<RefCell<ClicModule>>, ClicError> {
        config.validate()?;
        if devices.is_empty() {
            return Err(ClicError::Config {
                what: "CLIC needs at least one device",
            });
        }
        let (macs, device_mtu) = {
            let k = kernel.borrow();
            let macs: Vec<MacAddr> = devices
                .iter()
                .map(|&d| k.device(d).borrow().mac())
                .collect();
            let mtu = devices
                .iter()
                .map(|&d| k.device(d).borrow().mtu())
                .min()
                // lint:allow(no-unwrap, reason="devices asserted non-empty above")
                .unwrap();
            (macs, mtu)
        };
        let mtu = config.mtu_override.unwrap_or(device_mtu);
        if mtu <= CLIC_HEADER + MSG_PREFIX {
            return Err(ClicError::Config {
                what: "MTU too small for CLIC headers",
            });
        }
        let width = devices.len();
        let module = Rc::new(RefCell::new(ClicModule {
            kernel: Rc::downgrade(kernel),
            devices,
            macs,
            bond: RoundRobin::new(width),
            max_chunk: mtu - CLIC_HEADER,
            config,
            out: BTreeMap::new(),
            inflows: BTreeMap::new(),
            ports: BTreeMap::new(),
            next_msg_id: 1,
            stats: ClicStats::default(),
            error_handler: None,
            epoch: 1,
            crashed: false,
            peer_epochs: BTreeMap::new(),
        }));
        kernel
            .borrow_mut()
            .register_handler(EtherType::CLIC.0, Rc::new(Handler(module.clone())));
        Ok(module)
    }

    fn kernel(module: &Rc<RefCell<ClicModule>>) -> Rc<RefCell<Kernel>> {
        module
            .borrow()
            .kernel
            .upgrade()
            // lint:allow(no-unwrap, reason="the kernel owns every device a module binds to; a live module implies a live kernel")
            .expect("kernel dropped while CLIC module alive")
    }

    /// This node's primary station address.
    pub fn mac(&self) -> MacAddr {
        self.macs[0]
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ClicStats {
        self.stats.clone()
    }

    /// Crash-stop this node's CLIC state: every outbound flow (with its
    /// queued data and unfired confirms), every receive-side flow (with
    /// its reassemblies and out-of-order buffers), every port binding and
    /// all learned peer epochs are lost, exactly as a kernel panic would
    /// lose them. Frames arriving while crashed are dropped. Statistics
    /// survive — they model an external observer, not kernel memory.
    pub fn crash(&mut self) {
        self.crashed = true;
        self.out.clear();
        self.inflows.clear();
        self.ports.clear();
        self.peer_epochs.clear();
    }

    /// Restart after [`ClicModule::crash`]: the module comes back empty
    /// under a new session epoch, so peers still holding pre-crash
    /// sequence space get session resets instead of silent acceptance.
    pub fn restart(&mut self) {
        self.crashed = false;
        self.epoch += 1;
    }

    /// Whether the module is currently crash-stopped.
    // lint:allow(dead-fn, reason="the crash/restart test in crates/cluster/src/lifecycle.rs reads it")
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Current session incarnation (starts at 1, bumped per restart).
    // lint:allow(dead-fn, reason="the crash/restart test in crates/cluster/src/lifecycle.rs reads it")
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Bytes currently held in receive-side buffers: parked port backlogs,
    /// out-of-order windows and partial reassemblies. This is what the
    /// receive budget charges against `recv_budget_bytes`, and what the
    /// chaos harness asserts drains to zero at quiescence.
    pub fn buffered_bytes(&self) -> usize {
        let parked: usize = self.ports.values().map(|p| p.pending_bytes).sum();
        let flows: usize = self
            .inflows
            .values()
            .map(|f| {
                f.window.buffered_bytes()
                    + f.assembling
                        .as_ref()
                        .map_or(0, |a| a.head.len() + a.buf.len())
            })
            .sum();
        parked + flows
    }

    /// Install the callback invoked when a flow fails terminally (e.g.
    /// [`ClicError::MaxRetriesExceeded`] after the peer stops answering).
    /// Without a handler failures are still counted in
    /// [`ClicStats::flow_failures`] but otherwise silent.
    pub fn set_error_handler(&mut self, handler: Rc<dyn Fn(&mut Sim, ClicError)>) {
        self.error_handler = Some(handler);
    }

    /// Largest message that fits a single best-effort (multicast) packet.
    pub fn max_best_effort_len(&self) -> usize {
        self.max_chunk - MSG_PREFIX
    }

    /// Bind `channel` to `pid` so wakeups are charged to the right process.
    pub fn bind(&mut self, pid: Pid, channel: u16) {
        let port = self.ports.entry(channel).or_default();
        assert!(port.pid.is_none(), "channel {channel} already bound");
        port.pid = Some(pid);
    }

    /// Register `channel` as a remote-write region for `pid`: messages of
    /// type RemoteWrite land here with no receive call.
    pub fn register_remote_write(&mut self, pid: Pid, channel: u16) {
        let port = self.ports.entry(channel).or_default();
        port.pid.get_or_insert(pid);
        port.remote_writes = Some(Vec::new());
    }

    /// Drain messages delivered into a remote-write region.
    pub fn take_remote_writes(&mut self, channel: u16) -> Vec<RecvMsg> {
        self.ports
            .get_mut(&channel)
            .and_then(|p| p.remote_writes.as_mut())
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Join an Ethernet multicast group on every bonded NIC.
    pub fn join_multicast(module: &Rc<RefCell<ClicModule>>, group: MacAddr) {
        let kernel = Self::kernel(module);
        let devices = module.borrow().devices.clone();
        for d in devices {
            kernel.borrow().device(d).borrow_mut().join_multicast(group);
        }
    }

    // ------------------------------------------------------------------
    // Send path
    // ------------------------------------------------------------------

    /// Send `data` according to `opts`, entering the kernel through a
    /// standard system call. The message is `data` as one part, or a
    /// header part and the bytes behind it ([`Parts`]); the header part
    /// goes out in the first packet's head, the rest as slices of the
    /// caller's buffer, and the receiver gets both apart
    /// ([`RecvMsg::head`]).
    pub fn send(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        opts: SendOptions,
        data: impl Into<Parts>,
    ) {
        let kernel = Self::kernel(module);
        let data = data.into();
        sim.record(MSG_BYTES, data.len() as u64);
        if opts.trace != 0 {
            sim.trace.begin(sim.now(), Layer::Os, "syscall", opts.trace);
        }
        let module = module.clone();
        Kernel::syscall(&kernel, sim, move |sim| {
            if opts.trace != 0 {
                sim.trace.end(sim.now(), Layer::Os, "syscall", opts.trace);
            }
            Self::module_tx(&module, sim, opts, data);
        });
    }

    fn module_tx(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, opts: SendOptions, data: Parts) {
        assert!(
            opts.ptype.is_data_bearing(),
            "send accepts data-bearing packet types only"
        );
        if module.borrow().crashed {
            return; // a crashed kernel swallows the call; nothing confirms
        }
        assert!(
            !module.borrow().macs.contains(&opts.dst),
            "send to this module's own station {}: intra-node messaging is not modelled",
            opts.dst
        );
        let kernel = Self::kernel(module);

        // Ethernet multicast/broadcast: best-effort single packet.
        if opts.dst.is_multicast() {
            Self::best_effort_tx(module, sim, opts, data);
            return;
        }

        let (cost, key) = {
            let mut m = module.borrow_mut();
            m.stats.msgs_sent += 1;
            let npackets = (MSG_PREFIX + data.len()).div_ceil(m.max_chunk).max(1) as u64;
            let mut cost = m.config.costs.tx_per_message + m.config.costs.tx_per_packet * npackets;
            if !m.config.zero_copy {
                // Legacy path: stage the whole message through kernel
                // memory before the driver sees it.
                cost += kernel.borrow().costs.copy.cost_observed(sim, data.len());
            }
            (cost, (opts.dst, opts.channel))
        };
        if opts.trace != 0 {
            sim.trace
                .begin(sim.now(), Layer::Clic, "clic_module_tx", opts.trace);
        }
        let module2 = module.clone();
        Kernel::cpu_task(&kernel, sim, cost, move |sim| {
            if opts.trace != 0 {
                sim.trace
                    .end(sim.now(), Layer::Clic, "clic_module_tx", opts.trace);
            }
            Self::enqueue_message(&module2, sim, key, opts, data);
        });
    }

    fn best_effort_tx(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        opts: SendOptions,
        data: Parts,
    ) {
        let kernel = Self::kernel(module);
        let (cost, dev, msg_id, max_len) = {
            let mut m = module.borrow_mut();
            m.stats.msgs_sent += 1;
            let id = m.next_msg_id;
            m.next_msg_id += 1;
            let dev_slot = m.bond.next_index();
            (
                m.config.costs.tx_per_message + m.config.costs.tx_per_packet,
                m.devices[dev_slot],
                id,
                m.max_best_effort_len(),
            )
        };
        assert!(
            data.len() <= max_len,
            "best-effort (multicast) messages must fit one packet: {} > {max_len}",
            data.len()
        );
        let header = ClicHeader {
            ptype: opts.ptype,
            flags: flags::BEST_EFFORT,
            channel: opts.channel,
            seq: 0,
            len: (MSG_PREFIX + data.len()) as u32,
            ce: false,
            msg: Some((msg_id, data.len() as u32)),
        };
        let kernel2 = kernel.clone();
        Kernel::cpu_task(&kernel, sim, cost, move |sim| {
            // Sent once, straight from the caller's buffer: the model
            // charges no staging copy for a best-effort packet.
            let skb = SkBuff::zero_copy(header.head(&data.head), data.body).with_trace(opts.trace);
            hard_start_xmit(
                &kernel2,
                sim,
                dev,
                opts.dst,
                EtherType::CLIC,
                skb,
                |_sim, _ok| {}, // best effort: ring-full means the packet is lost
            );
            if let Some(confirm) = opts.confirm {
                // No ACKs on multicast: confirmation fires at handoff.
                confirm(sim);
            }
        });
    }

    /// The SkBuff that sends a packet of flow `key`: its header (with the
    /// message prefix and the message's header part on a message's first
    /// packet) and its data, where it lies.
    fn build_skb(
        module: &Rc<RefCell<ClicModule>>,
        key: FlowKey,
        header: ClicHeader,
        body: &Bytes,
        location: DataLocation,
    ) -> SkBuff {
        let m = module.borrow();
        // Only a message's first packet, the one with the prefix, can carry
        // a header part.
        let part = match header.msg {
            Some(_) => m.out.get(&key).map_or(&[][..], |f| f.head_part(header.seq)),
            None => &[],
        };
        SkBuff {
            header: header.head(part),
            data: body.clone(),
            location,
            trace: 0,
        }
    }

    fn enqueue_message(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        key: FlowKey,
        opts: SendOptions,
        data: Parts,
    ) {
        let now = sim.now();
        {
            let mut m = module.borrow_mut();
            let msg_id = m.next_msg_id;
            m.next_msg_id += 1;
            let max_chunk = m.max_chunk;
            let fresh = OutFlow::new(&m.config, now);
            let flow = m.out.entry(key).or_insert(fresh);
            // The first fragment's header carries the message prefix and,
            // in its head, the message's header part; every fragment's data
            // is a slice of the message, not a copy. A header part too long
            // for the first packet goes joined to the data instead.
            let room = max_chunk - MSG_PREFIX;
            let data = if data.head.len() > room {
                Parts::from(data.join())
            } else {
                data
            };
            // The first packet ends at `first_data`; each later one takes up
            // to `max_chunk` bytes, cut as it is queued.
            let first_data = room.min(data.len());
            let last_idx = (data.len() - first_data).div_ceil(max_chunk);
            let mut start = 0;
            let mut last_seq = 0;
            let (mut first_seq, mut head) = (0, Bytes::new());
            for i in 0..=last_idx {
                let end = if i == 0 {
                    first_data
                } else {
                    (start + max_chunk).min(data.len())
                };
                let chunk = data.slice(start..end);
                start = end;
                let seq = flow.window.alloc_seq();
                last_seq = seq;
                let mut f = 0u8;
                if i == last_idx && opts.confirm.is_some() {
                    f |= flags::CONFIRM;
                }
                let msg = (i == 0).then_some((msg_id, data.len() as u32));
                let prefix = if msg.is_some() { MSG_PREFIX } else { 0 };
                let len = (prefix + chunk.len()) as u32;
                if i == 0 {
                    (first_seq, head) = (seq, chunk.head);
                }
                flow.queue.push_back(QueuedPacket {
                    header: ClicHeader {
                        ptype: opts.ptype,
                        flags: f,
                        channel: opts.channel,
                        seq,
                        len,
                        ce: false,
                        msg,
                    },
                    body: chunk.body,
                    location: DataLocation::User,
                    staged: false,
                    trace: opts.trace,
                });
            }
            if !head.is_empty() || opts.confirm.is_some() {
                flow.messages.push(OutMessage {
                    first: first_seq,
                    last: last_seq,
                    head,
                    confirm: opts.confirm,
                });
            }
        }
        Self::pump(module, sim, key);
        // Liveness monitoring rides along while the flow is busy; if the
        // peer's epoch is still unknown (guard on), the first probe doubles
        // as the session handshake and the keepalive timer retries it.
        if Self::ensure_keepalive(module, sim, key) {
            let handshaking = {
                let m = module.borrow();
                m.config.epoch_guard && !m.peer_epochs.contains_key(&key.0)
            };
            if handshaking {
                Self::send_probe(module, sim, key);
            }
        }
    }

    /// Move queued packets into the network while the window allows. With
    /// the epoch guard on, nothing posts until the peer's epoch is known
    /// (the probe/pong handshake teaches it) — every data packet is
    /// stamped with the peer's epoch so a restarted receiver can tell
    /// stale sequence space from fresh.
    fn pump(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, key: FlowKey) {
        loop {
            let (post, window_sample) = {
                let mut m = module.borrow_mut();
                let window_cap = m.config.window;
                let stamp = if m.config.epoch_guard {
                    match m.peer_epochs.get(&key.0).copied() {
                        Some(e) => Some(e),
                        None => return, // handshake pending; pong resumes us
                    }
                } else {
                    None
                };
                let Some(flow) = m.out.get_mut(&key) else {
                    return;
                };
                // The receiver's advertised window (backpressure) and the
                // congestion window both cap the configured one; the floor
                // of 1 guarantees progress.
                let mut cap = flow.peer_window.map_or(window_cap, |w| w.min(window_cap));
                if let Some(c) = &flow.cong {
                    cap = cap.min(c.cwnd as usize);
                }
                let cap = cap.max(1);
                // Timeline samples of the window state at this pump; the
                // byte sum walks the inflight map, so guard on enablement.
                let window_sample = if sim.timeline.is_enabled() {
                    Some((cap as u64, flow.window.inflight_bytes()))
                } else {
                    None
                };
                let post =
                    if flow.queue.is_empty() || flow.window.inflight_len() + flow.posting >= cap {
                        None
                    } else {
                        match flow.queue.pop_front() {
                            None => None,
                            Some(mut pkt) => {
                                if let Some(epoch) = stamp {
                                    pkt.header.flags = flags::with_epoch(pkt.header.flags, epoch);
                                }
                                flow.posting += 1;
                                let dev_slot = m.bond.next_index();
                                let dev = m.devices[dev_slot];
                                Some((pkt, dev))
                            }
                        }
                    };
                (post, window_sample)
            };
            if let Some((cap, inflight)) = window_sample {
                sim.record(EFFECTIVE_WINDOW, cap);
                sim.record(INFLIGHT_BYTES, inflight);
            }
            match post {
                None => return,
                Some((pkt, dev)) => Self::post_packet(module, sim, key, pkt, dev),
            }
        }
    }

    fn post_packet(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        key: FlowKey,
        mut pkt: QueuedPacket,
        dev: usize,
    ) {
        let kernel = Self::kernel(module);
        if pkt.location == DataLocation::User && !module.borrow().config.zero_copy {
            // 1-copy path: the first post stages the packet's data in
            // kernel memory (the copy `module_tx` charged for the whole
            // message), and the packet is kernel-located from then on.
            // The host keeps sending the sender's bytes, which nothing
            // can change: the model charges the copy, the host need not
            // make it.
            pkt.location = DataLocation::Kernel;
        }
        let skb =
            Self::build_skb(module, key, pkt.header, &pkt.body, pkt.location).with_trace(pkt.trace);
        let module2 = module.clone();
        hard_start_xmit(
            &kernel,
            sim,
            dev,
            key.0,
            EtherType::CLIC,
            skb,
            move |sim, ok| {
                if ok {
                    {
                        let now = sim.now();
                        let mut m = module2.borrow_mut();
                        m.stats.packets_sent += 1;
                        let Some(flow) = m.out.get_mut(&key) else {
                            return; // flow torn down while the post ran
                        };
                        flow.posting -= 1;
                        flow.window.on_sent(pkt.header, pkt.body, pkt.location, now);
                    }
                    Self::ensure_rto(&module2, sim, key);
                    Self::pump(&module2, sim, key);
                } else {
                    Self::on_ring_full(&module2, sim, key, pkt);
                }
            },
        );
    }

    /// §3.1: "If the data cannot be sent at the present moment, CLIC_MODULE
    /// copies the data in the system memory... overlapped with the
    /// communication of other messages."
    fn on_ring_full(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        key: FlowKey,
        mut pkt: QueuedPacket,
    ) {
        let kernel = Self::kernel(module);
        let staging_cost = if !pkt.staged {
            let mut m = module.borrow_mut();
            m.stats.staged_copies += 1;
            sim.trace
                .instant(sim.now(), Layer::Clic, "staged_copy", pkt.trace);
            pkt.staged = true;
            if m.config.zero_copy {
                // The one staging copy of this packet's data, charged here;
                // every later post and retransmission sends the staged
                // packet, whose bytes are still the sender's, shared.
                pkt.location = DataLocation::Kernel;
                Some(
                    kernel
                        .borrow()
                        .costs
                        .copy
                        .cost_observed(sim, pkt.header.len as usize),
                )
            } else {
                None // already staged by the 1-copy send path
            }
        } else {
            None
        };
        let module2 = module.clone();
        let requeue = move |sim: &mut Sim| {
            let retry = {
                let mut m = module2.borrow_mut();
                let retry = m.config.tx_retry;
                match m.out.get_mut(&key) {
                    None => None, // flow torn down; nothing left to pump
                    Some(flow) => {
                        flow.posting -= 1;
                        flow.queue.push_front(pkt);
                        if flow.kick_armed {
                            None
                        } else {
                            flow.kick_armed = true;
                            Some(retry)
                        }
                    }
                }
            };
            if let Some(delay) = retry {
                let module3 = module2.clone();
                sim.schedule_in(delay, move |sim| {
                    if let Some(flow) = module3.borrow_mut().out.get_mut(&key) {
                        flow.kick_armed = false;
                    }
                    Self::pump(&module3, sim, key);
                });
            }
        };
        match staging_cost {
            Some(cost) => Kernel::cpu_task(&kernel, sim, cost, requeue),
            None => requeue(sim),
        }
    }

    fn ensure_rto(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, key: FlowKey) {
        let arm = {
            let mut m = module.borrow_mut();
            let Some(flow) = m.out.get_mut(&key) else {
                return;
            };
            if flow.rto_running || flow.window.all_acked() {
                None
            } else {
                flow.rto_running = true;
                flow.rto_gen += 1;
                Some((flow.rto_gen, flow.rto_current))
            }
        };
        if let Some((generation, delay)) = arm {
            let module2 = module.clone();
            sim.schedule_in(delay, move |sim| {
                Self::on_rto(&module2, sim, key, generation);
            });
        }
    }

    fn on_rto(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, key: FlowKey, generation: u64) {
        let action = {
            let mut m = module.borrow_mut();
            let rto_max = m.config.rto_max;
            let max_retries = m.config.max_retries;
            let Some(flow) = m.out.get_mut(&key) else {
                return;
            };
            if flow.rto_gen != generation {
                return; // superseded by an ACK-driven reset
            }
            flow.rto_running = false;
            if flow.window.all_acked() {
                return;
            }
            let set = flow.window.take_retransmit_set();
            if flow.window.max_retries() > max_retries {
                // The peer is not answering: tear the flow down and
                // surface a typed error instead of retrying forever.
                Err(ClicError::MaxRetriesExceeded {
                    peer: key.0,
                    channel: key.1,
                    seq: flow.window.base(),
                    retries: flow.window.max_retries(),
                })
            } else {
                flow.rto_current = (flow.rto_current * 2).min(rto_max);
                // Loss-as-congestion: a timeout is the strongest signal —
                // collapse to one packet and restart from slow start.
                if let Some(c) = flow.cong.as_mut() {
                    c.on_timeout();
                    cong_gauges(sim, c);
                }
                m.stats.retransmits += set.len() as u64;
                Ok(set)
            }
        };
        let resend = match action {
            Ok(set) => set,
            Err(err) => {
                Self::fail_flow(module, sim, key, err);
                return;
            }
        };
        if !resend.is_empty() {
            sim.trace.instant(sim.now(), Layer::Clic, "rto", 0);
        }
        let kernel = Self::kernel(module);
        for pkt in resend {
            let (dev, _) = {
                let mut m = module.borrow_mut();
                let slot = m.bond.next_index();
                (m.devices[slot], ())
            };
            let mut header = pkt.header;
            header.flags |= flags::RETRANSMIT;
            let skb = Self::build_skb(module, key, header, &pkt.payload, pkt.location);
            hard_start_xmit(&kernel, sim, dev, key.0, EtherType::CLIC, skb, |_, _| {});
        }
        Self::ensure_rto(module, sim, key);
    }

    // ------------------------------------------------------------------
    // Liveness, session epochs and teardown
    // ------------------------------------------------------------------

    /// Tear an outbound flow down with a typed terminal error: its
    /// unacknowledged and queued data is discarded, pending confirms never
    /// fire, the failure is counted by cause, and the error handler (if
    /// any) runs. A no-op if the flow is already gone.
    fn fail_flow(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, key: FlowKey, err: ClicError) {
        {
            let mut m = module.borrow_mut();
            if m.out.remove(&key).is_none() {
                return; // already torn down by a racing cause
            }
            m.stats.flow_failures += 1;
            match &err {
                ClicError::MaxRetriesExceeded { .. } => m.stats.flow_failures_max_retries += 1,
                ClicError::PeerDead { .. } => m.stats.flow_failures_peer_dead += 1,
                ClicError::StaleEpoch { .. } => m.stats.flow_failures_stale_epoch += 1,
                // Config errors come from validation, never from a flow.
                ClicError::Config { .. } => {}
            }
        }
        sim.trace.instant(sim.now(), Layer::Clic, "flow_fail", 0);
        let handler = module.borrow().error_handler.clone();
        if let Some(h) = handler {
            h(sim, err);
        }
    }

    /// Arm the keepalive timer for a flow if liveness monitoring is on and
    /// it is not armed already. Returns whether this call armed it (the
    /// caller uses that to fire the one handshake probe per busy period).
    fn ensure_keepalive(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, key: FlowKey) -> bool {
        let arm = {
            let mut m = module.borrow_mut();
            let Some(interval) = m.config.keepalive_interval else {
                return false;
            };
            let Some(flow) = m.out.get_mut(&key) else {
                return false;
            };
            if flow.ka_armed {
                None
            } else {
                flow.ka_armed = true;
                flow.ka_gen += 1;
                Some((flow.ka_gen, interval))
            }
        };
        match arm {
            None => false,
            Some((generation, delay)) => {
                let module2 = module.clone();
                sim.schedule_in(delay, move |sim| {
                    Self::on_keepalive(&module2, sim, key, generation);
                });
                true
            }
        }
    }

    fn on_keepalive(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        key: FlowKey,
        generation: u64,
    ) {
        enum Verdict {
            Idle,
            Dead,
            Probe,
        }
        let verdict = {
            let now = sim.now();
            let mut m = module.borrow_mut();
            let timeout = m.config.peer_dead_timeout;
            let Some(flow) = m.out.get_mut(&key) else {
                return; // flow finished or was torn down; timer dies
            };
            if flow.ka_gen != generation {
                return; // superseded
            }
            flow.ka_armed = false;
            if flow.is_idle() {
                // Nothing outstanding: let the timer die so the event loop
                // can quiesce. The next enqueue re-arms it.
                Verdict::Idle
            } else if now.saturating_since(flow.last_heard) >= timeout {
                Verdict::Dead
            } else {
                Verdict::Probe
            }
        };
        match verdict {
            Verdict::Idle => {}
            Verdict::Dead => {
                Self::fail_flow(
                    module,
                    sim,
                    key,
                    ClicError::PeerDead {
                        peer: key.0,
                        channel: key.1,
                    },
                );
            }
            Verdict::Probe => {
                Self::send_probe(module, sim, key);
                Self::ensure_keepalive(module, sim, key);
            }
        }
    }

    /// Send one keepalive/handshake probe towards `key`'s peer. Probes are
    /// answered by pongs, not ACKs — a probe must never feed the duplicate
    /// ACK counter or the RTT estimator (Karn-safe by construction).
    fn send_probe(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, key: FlowKey) {
        module.borrow_mut().stats.keepalive_probes += 1;
        sim.trace.instant(sim.now(), Layer::Clic, "keepalive", 0);
        Self::send_control(module, sim, key, control::PROBE);
    }

    /// Transmit a one-byte `Internal` control packet (probe, pong or
    /// reset) to `key.0`, stamped with this node's epoch when the guard is
    /// on. Control packets bypass the reliable window; losing one is
    /// harmless — probes repeat and resets are re-triggered by the next
    /// stale packet.
    fn send_control(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, key: FlowKey, tag: u8) {
        let kernel = Self::kernel(module);
        let (header, dev) = {
            let mut m = module.borrow_mut();
            if m.crashed {
                return;
            }
            let epoch = if m.config.epoch_guard {
                wire_epoch(m.epoch)
            } else {
                0
            };
            let slot = m.bond.next_index();
            (
                ClicHeader {
                    ptype: PacketType::Internal,
                    flags: flags::with_epoch(0, epoch),
                    channel: key.1,
                    seq: 0,
                    len: 1,
                    ce: false,
                    msg: None,
                },
                m.devices[slot],
            )
        };
        let skb = SkBuff::zero_copy(header.head(&[]), Bytes::copy_from_slice(&[tag]));
        hard_start_xmit(&kernel, sim, dev, key.0, EtherType::CLIC, skb, |_, _| {});
    }

    fn process_control(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        src: MacAddr,
        header: ClicHeader,
        chunk: Bytes,
    ) {
        let Some(&tag) = chunk.first() else {
            module.borrow_mut().stats.malformed += 1;
            return;
        };
        match tag {
            control::PROBE => {
                // The prober is alive: refresh receive-side state for it,
                // then answer with an epoch-stamped pong.
                let now = sim.now();
                {
                    let mut m = module.borrow_mut();
                    for (_, flow) in m.inflows.range_mut((src, 0)..=(src, u16::MAX)) {
                        flow.last_heard = now;
                    }
                }
                Self::send_control(module, sim, (src, header.channel), control::PONG);
            }
            control::PONG => {
                let now = sim.now();
                {
                    let mut m = module.borrow_mut();
                    for (_, flow) in m.out.range_mut((src, 0)..=(src, u16::MAX)) {
                        flow.last_heard = now;
                    }
                }
                Self::note_peer_epoch(module, sim, src, flags::epoch_bits(header.flags));
                // A pong may complete the epoch handshake: resume every
                // flow towards the peer that was gated on it.
                let keys: Vec<FlowKey> = module
                    .borrow()
                    .out
                    .keys()
                    .filter(|k| k.0 == src)
                    .copied()
                    .collect();
                for key in keys {
                    Self::pump(module, sim, key);
                }
            }
            control::RESET => {
                // The peer has no state for our session (it restarted and
                // saw our stale data). Its stamp is a fresh epoch, so the
                // epoch bookkeeping below tears down every flow to it.
                Self::note_peer_epoch(module, sim, src, flags::epoch_bits(header.flags));
            }
            _ => {
                module.borrow_mut().stats.malformed += 1;
            }
        }
    }

    /// Record the peer's epoch as observed on an ACK, pong or reset. With
    /// the guard on, a *change* from a previously recorded value means the
    /// peer restarted: everything in flight towards it addresses a dead
    /// incarnation, so every flow to it tears down with `StaleEpoch`.
    fn note_peer_epoch(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        src: MacAddr,
        observed: u8,
    ) {
        if observed == 0 {
            return; // peer runs without the guard; nothing to track
        }
        let stale: Vec<FlowKey> = {
            let mut m = module.borrow_mut();
            let guard = m.config.epoch_guard;
            match m.peer_epochs.insert(src, observed) {
                Some(prev) if guard && prev != observed => {
                    m.out.keys().filter(|k| k.0 == src).copied().collect()
                }
                _ => Vec::new(),
            }
        };
        for key in stale {
            Self::fail_flow(
                module,
                sim,
                key,
                ClicError::StaleEpoch {
                    peer: key.0,
                    channel: key.1,
                },
            );
        }
    }

    /// Arm the receive-side expiry timer for a flow holding buffered state
    /// (reassembly or out-of-order packets), so a dead sender cannot
    /// strand buffers forever. Active only when keepalive is configured.
    fn ensure_expiry(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, key: FlowKey) {
        let arm = {
            let mut m = module.borrow_mut();
            let Some(interval) = m.config.keepalive_interval else {
                return;
            };
            let delay = m.config.peer_dead_timeout.max(interval);
            let Some(flow) = m.inflows.get_mut(&key) else {
                return;
            };
            if flow.exp_armed || !flow.holds_state() {
                None
            } else {
                flow.exp_armed = true;
                flow.exp_gen += 1;
                Some((flow.exp_gen, delay))
            }
        };
        if let Some((generation, delay)) = arm {
            let module2 = module.clone();
            sim.schedule_in(delay, move |sim| {
                Self::on_expiry(&module2, sim, key, generation);
            });
        }
    }

    fn on_expiry(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, key: FlowKey, generation: u64) {
        let expired = {
            let now = sim.now();
            let mut m = module.borrow_mut();
            let timeout = m.config.peer_dead_timeout;
            let Some(flow) = m.inflows.get_mut(&key) else {
                return;
            };
            if flow.exp_gen != generation {
                return;
            }
            flow.exp_armed = false;
            if !flow.holds_state() {
                return; // drained in the meantime; timer dies
            }
            if now.saturating_since(flow.last_heard) >= timeout {
                m.inflows.remove(&key);
                m.stats.expired_drops += 1;
                true
            } else {
                false
            }
        };
        if expired {
            sim.trace.instant(sim.now(), Layer::Clic, "drop.expired", 0);
        } else {
            // Still buffering and the sender was heard recently: re-check
            // one timeout from now.
            Self::ensure_expiry(module, sim, key);
        }
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    fn on_frame(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        kernel: &Rc<RefCell<Kernel>>,
        frame: Frame,
    ) {
        if module.borrow().crashed {
            return; // dead kernels process no frames
        }
        let Some((header, chunk)) = ClicHeader::decode(&frame) else {
            module.borrow_mut().stats.malformed += 1;
            return;
        };
        let cost = {
            let m = module.borrow();
            match header.ptype {
                PacketType::Ack => m.config.costs.ack_process,
                _ => m.config.costs.rx_per_packet,
            }
        };
        if frame.trace != 0 {
            sim.trace
                .begin(sim.now(), Layer::Clic, "clic_module_rx", frame.trace);
        }
        let module2 = module.clone();
        let kernel2 = kernel.clone();
        let src = frame.src;
        let trace = frame.trace;
        Kernel::cpu_task(kernel, sim, cost, move |sim| {
            if trace != 0 {
                sim.trace
                    .end(sim.now(), Layer::Clic, "clic_module_rx", trace);
            }
            Self::process_packet(&module2, sim, &kernel2, src, header, chunk, trace);
        });
    }

    fn process_packet(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        kernel: &Rc<RefCell<Kernel>>,
        src: MacAddr,
        header: ClicHeader,
        chunk: Parts,
        trace: u64,
    ) {
        if module.borrow().crashed {
            return; // crashed between interrupt and bottom half
        }
        match header.ptype {
            PacketType::Ack => Self::process_ack(module, sim, src, header),
            PacketType::Internal => Self::process_control(module, sim, src, header, chunk.join()),
            _ if header.flags & flags::BEST_EFFORT != 0 => {
                Self::process_best_effort(module, sim, src, header, chunk, trace);
            }
            _ => Self::process_data(module, sim, kernel, src, header, chunk, trace),
        }
    }

    fn process_ack(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        src: MacAddr,
        header: ClicHeader,
    ) {
        let key = (src, header.channel);
        let now = sim.now();
        // An epoch change on the ACK stamp means the peer restarted — this
        // tears down every flow to it (including `key`) before the window
        // machinery can misread ACKs from the new incarnation.
        Self::note_peer_epoch(module, sim, src, flags::epoch_bits(header.flags));
        let (fired, pump_needed, fast_rtx) = {
            let mut m = module.borrow_mut();
            m.stats.acks_received += 1;
            let config = m.config.clone();
            let Some(flow) = m.out.get_mut(&key) else {
                return;
            };
            flow.last_heard = now;
            if header.len > 0 {
                // The receiver advertised its remaining buffer budget in
                // the (otherwise unused) ACK length field.
                flow.peer_window = Some(header.len as usize);
            }
            let summary = flow.window.ack(header.seq);
            // Congestion control: every ACK is a mark-fraction sample;
            // progress grows cwnd and an echoed mark shrinks it (at most
            // once per window in flight). All windows are post-ACK state.
            let base = flow.window.base();
            let flight_end = base + flow.window.inflight_len() as u32;
            let echoed = flow.cong.is_some() && header.ce;
            if let Some(c) = flow.cong.as_mut() {
                c.note_ack(header.ce, base, flight_end);
                if summary.acked > 0 {
                    c.on_acked(summary.acked as u64, config.window as f64);
                }
                if header.ce {
                    c.on_echo(base, flight_end);
                }
                cong_gauges(sim, c);
            }
            if echoed {
                sim.trace.instant(now, Layer::Clic, "ecn_echo", 0);
            }
            let outcome = if summary.acked == 0 {
                // A cumulative ACK that moves nothing is the receiver
                // NACKing out-of-order arrival: it re-advertises the
                // window base. Enough of them in a row and the base is
                // presumed lost — resend it without waiting for the RTO.
                let mut fast = None;
                if header.seq == flow.window.base() && flow.window.inflight_len() > 0 {
                    flow.dup_acks += 1;
                    if flow.dup_acks >= config.fast_retransmit_dupacks {
                        flow.dup_acks = 0;
                        fast = flow.window.retransmit_base();
                        // Loss-as-congestion: duplicate-ACK loss halves
                        // the window, NewReno-style.
                        if let Some(c) = flow.cong.as_mut() {
                            c.on_loss(base, flight_end);
                            cong_gauges(sim, c);
                        }
                    }
                }
                (Vec::new(), false, fast)
            } else {
                flow.dup_acks = 0;
                // Fresh progress: fold in the RTT sample (Karn's rule —
                // only from never-retransmitted packets) and re-arm the
                // RTO from the adapted estimate.
                if let Some(sent_at) = summary.clean_sent_at {
                    let sample_ns = now.saturating_since(sent_at).as_ns();
                    flow.rto_current = flow.rtt_sample(sample_ns, &config);
                    sim.record(RTTVAR, flow.rttvar_ns);
                }
                flow.rto_gen += 1;
                flow.rto_running = false;
                // Wholly acknowledged messages are never sent again: their
                // confirmations fire and their header parts go.
                let base = flow.window.base();
                let mut fired = Vec::new();
                flow.messages.retain_mut(|msg| {
                    if msg.last >= base {
                        return true;
                    }
                    fired.extend(msg.confirm.take());
                    false
                });
                if flow.messages.is_empty() {
                    // An idle flow keeps no storage for records.
                    flow.messages = Vec::new();
                }
                (fired, true, None)
            };
            if echoed {
                m.stats.ecn_echoes += 1;
            }
            outcome
        };
        for cont in fired {
            cont(sim);
        }
        if let Some(pkt) = fast_rtx {
            {
                let mut m = module.borrow_mut();
                m.stats.fast_retransmits += 1;
                m.stats.retransmits += 1;
            }
            sim.trace
                .instant(sim.now(), Layer::Clic, "fast_retransmit", 0);
            let kernel = Self::kernel(module);
            let dev = {
                let mut m = module.borrow_mut();
                let slot = m.bond.next_index();
                m.devices[slot]
            };
            let mut hdr = pkt.header;
            hdr.flags |= flags::RETRANSMIT;
            let skb = Self::build_skb(module, key, hdr, &pkt.payload, pkt.location);
            hard_start_xmit(&kernel, sim, dev, key.0, EtherType::CLIC, skb, |_, _| {});
        }
        if pump_needed {
            Self::ensure_rto(module, sim, key);
            Self::pump(module, sim, key);
        }
    }

    fn process_best_effort(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        src: MacAddr,
        header: ClicHeader,
        chunk: Parts,
        trace: u64,
    ) {
        let Some((_msg_id, total)) = header.msg else {
            module.borrow_mut().stats.malformed += 1;
            return;
        };
        if chunk.len() < total as usize {
            module.borrow_mut().stats.malformed += 1;
            return;
        }
        module.borrow_mut().stats.best_effort_rx += 1;
        let Parts { head, body } = chunk.slice(0..total as usize);
        let msg = RecvMsg {
            src,
            channel: header.channel,
            ptype: header.ptype,
            head,
            data: body,
        };
        Self::deliver_message(module, sim, msg, trace);
    }

    fn process_data(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        kernel: &Rc<RefCell<Kernel>>,
        src: MacAddr,
        header: ClicHeader,
        chunk: Parts,
        trace: u64,
    ) {
        let key = (src, header.channel);
        let now = sim.now();
        // Epoch guard: data stamped for another incarnation is stale
        // pre-crash sequence space. Accepting it would splice old bytes
        // into new flows; instead drop it and tell the sender to reset.
        let stale = {
            let mut m = module.borrow_mut();
            if m.config.epoch_guard && flags::epoch_bits(header.flags) != wire_epoch(m.epoch) {
                m.stats.packets_received += 1;
                m.stats.stale_epoch_drops += 1;
                true
            } else {
                false
            }
        };
        if stale {
            sim.trace
                .instant(sim.now(), Layer::Clic, "drop.stale_epoch", trace);
            Self::send_control(module, sim, key, control::RESET);
            return;
        }
        let (completed, ack_now) = {
            let mut m = module.borrow_mut();
            m.stats.packets_received += 1;
            // Finite buffering: refuse (do not ACK) data for a port whose
            // parked backlog is over budget; the sender's retransmission
            // throttles it until the application drains.
            let over_budget = m
                .ports
                .get(&header.channel)
                .map(|p| p.pending_bytes > m.config.max_pending_bytes)
                .unwrap_or(false);
            if over_budget {
                m.stats.backlog_drops += 1;
                sim.trace
                    .instant(sim.now(), Layer::Clic, "drop.backlog", trace);
                return;
            }
            let ack_every = m.config.ack_every;
            let fresh = InFlow::new(&m.config, now);
            let flow = m.inflows.entry(key).or_insert(fresh);
            flow.last_heard = now;
            if header.ce {
                // A switch on the path marked this packet: remember it so
                // the next ACK (whatever triggers it) echoes the mark.
                flow.ce_seen = true;
            }
            match flow.window.offer(header, chunk) {
                RecvOutcome::Deliver(packets) => {
                    flow.unacked += packets.len() as u32;
                    let mut completed = Vec::new();
                    for (h, c) in packets {
                        if let Some(msg) = Self::feed_assembly(flow, src, h, c) {
                            completed.push(msg);
                        }
                    }
                    let ack_now = flow.unacked >= ack_every;
                    if ack_now {
                        flow.unacked = 0;
                        flow.ack_gen += 1;
                        flow.ack_timer_armed = false;
                    }
                    m.stats.msgs_received += completed.len() as u64;
                    (completed, ack_now)
                }
                RecvOutcome::Duplicate => {
                    m.stats.duplicates += 1;
                    sim.trace
                        .instant(sim.now(), Layer::Clic, "drop.duplicate", trace);
                    (Vec::new(), true) // re-ACK so the sender resyncs
                }
                // Out of order: NACK at once by re-advertising the
                // cumulative ACK value. The sender counts these duplicate
                // ACKs and fast-retransmits the gap.
                RecvOutcome::Buffered => (Vec::new(), true),
                RecvOutcome::Overflow => {
                    m.stats.ooo_drops += 1;
                    sim.trace.instant(sim.now(), Layer::Clic, "drop.ooo", trace);
                    (Vec::new(), false)
                }
            }
        };
        let _ = kernel;
        // Acknowledge before delivering: the ACK must not queue behind the
        // (possibly large) copies to user memory, or the sender times out
        // while the receiver is merely busy delivering.
        if ack_now {
            Self::send_ack(module, sim, key);
        } else {
            Self::maybe_arm_ack_timer(module, sim, key);
        }
        // If this flow now holds buffered state (a reassembly in progress
        // or out-of-order packets), make sure a dead sender cannot strand
        // it: the expiry timer garbage-collects silent flows.
        Self::ensure_expiry(module, sim, key);
        for msg in completed {
            Self::deliver_message(module, sim, msg, trace);
        }
    }

    fn feed_assembly(
        flow: &mut InFlow,
        src: MacAddr,
        header: ClicHeader,
        chunk: Parts,
    ) -> Option<RecvMsg> {
        let Parts { head, body } = chunk;
        let mut assembly = match flow.assembling.take() {
            None => {
                let (_msg_id, total) =
                    // lint:allow(no-unwrap, reason="the send path always stamps the message prefix on the first fragment; in-order delivery is guaranteed by the recv window")
                    header.msg.expect("first fragment lacks message prefix");
                // The first packet's head holds the message's header part:
                // it stays apart, and the data behind it is joined.
                Box::new(Assembly {
                    buf: Gather::new((total as usize).saturating_sub(head.len())),
                    head,
                    ptype: header.ptype,
                })
            }
            Some(mut a) => {
                a.buf.push(head);
                a
            }
        };
        // A message whose packets are slices of one sender buffer arrives
        // as a slice of it; any other message is copied once.
        assembly.buf.push(body);
        if assembly.buf.is_complete() {
            Some(RecvMsg {
                src,
                channel: header.channel,
                ptype: assembly.ptype,
                head: assembly.head,
                data: assembly.buf.finish(),
            })
        } else {
            flow.assembling = Some(assembly);
            None
        }
    }

    fn maybe_arm_ack_timer(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, key: FlowKey) {
        let arm = {
            let mut m = module.borrow_mut();
            let delay = m.config.ack_delay;
            let Some(flow) = m.inflows.get_mut(&key) else {
                return;
            };
            if flow.unacked == 0 || flow.ack_timer_armed {
                None
            } else {
                flow.ack_timer_armed = true;
                flow.ack_gen += 1;
                Some((flow.ack_gen, delay))
            }
        };
        if let Some((generation, delay)) = arm {
            let module2 = module.clone();
            sim.schedule_in(delay, move |sim| {
                let fire = {
                    let mut m = module2.borrow_mut();
                    match m.inflows.get_mut(&key) {
                        Some(flow) if flow.ack_gen == generation && flow.ack_timer_armed => {
                            flow.ack_timer_armed = false;
                            flow.unacked = 0;
                            true
                        }
                        _ => false,
                    }
                };
                if fire {
                    Self::send_ack(&module2, sim, key);
                }
            });
        }
    }

    fn send_ack(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, key: FlowKey) {
        let kernel = Self::kernel(module);
        let (header, dev) = {
            let mut m = module.borrow_mut();
            let (ack_value, echo) = match m.inflows.get_mut(&key) {
                Some(flow) => (flow.window.ack_value(), std::mem::take(&mut flow.ce_seen)),
                None => return,
            };
            m.stats.acks_sent += 1;
            // Backpressure: advertise how many more packets fit in the
            // receive budget (floor 1 so a full buffer throttles senders
            // to a trickle instead of deadlocking them).
            let advertised = match m.config.recv_budget_bytes {
                None => 0,
                Some(budget) => {
                    let used = m.buffered_bytes();
                    sim.record(RECV_BUFFER_BYTES, used as u64);
                    let free = budget.saturating_sub(used);
                    ((free / m.max_chunk).max(1)).min(m.config.window) as u32
                }
            };
            let epoch = if m.config.epoch_guard {
                wire_epoch(m.epoch)
            } else {
                0
            };
            let slot = m.bond.next_index();
            (
                ClicHeader {
                    ptype: PacketType::Ack,
                    flags: flags::with_epoch(0, epoch),
                    channel: key.1,
                    seq: ack_value,
                    len: advertised,
                    ce: echo,
                    msg: None,
                },
                m.devices[slot],
            )
        };
        let skb = SkBuff::zero_copy(header.head(&[]), Bytes::new());
        // A lost or refused ACK is harmless: cumulative ACKs supersede it.
        hard_start_xmit(&kernel, sim, dev, key.0, EtherType::CLIC, skb, |_, _| {});
    }

    // ------------------------------------------------------------------
    // Delivery to processes
    // ------------------------------------------------------------------

    fn deliver_message(module: &Rc<RefCell<ClicModule>>, sim: &mut Sim, msg: RecvMsg, trace: u64) {
        let kernel = Self::kernel(module);
        enum Action {
            RemoteWrite {
                cost: SimDuration,
            },
            Wake {
                pid: Option<Pid>,
                waiter: Waiter,
                cost: SimDuration,
            },
            Park,
        }
        let action = {
            let mut m = module.borrow_mut();
            let direct = kernel.borrow().direct_dispatch;
            let copy_cost = if direct {
                // Figure 8b: the data went straight to user memory.
                SimDuration::ZERO
            } else {
                kernel.borrow().costs.copy.cost_observed(sim, msg.len())
            };
            let port = m.ports.entry(msg.channel).or_default();
            if msg.ptype == PacketType::RemoteWrite && port.remote_writes.is_some() {
                Action::RemoteWrite { cost: copy_cost }
            } else if let Some(waiter) = port.waiting.pop_front() {
                Action::Wake {
                    pid: port.pid,
                    waiter,
                    cost: copy_cost,
                }
            } else {
                Action::Park
            }
        };
        match action {
            Action::RemoteWrite { cost } => {
                // §3.1 step 7: CLIC_MODULE moves the packet straight into
                // the user memory region, no receive call involved.
                let module2 = module.clone();
                if trace != 0 {
                    sim.trace
                        .begin(sim.now(), Layer::Clic, "copy_to_user", trace);
                }
                Kernel::cpu_task(&kernel, sim, cost, move |sim| {
                    if trace != 0 {
                        sim.trace.end(sim.now(), Layer::Clic, "copy_to_user", trace);
                    }
                    let mut m = module2.borrow_mut();
                    // The port may have been torn down during the copy
                    // delay; the write is then dropped, as real hardware
                    // would drop a DMA into an unmapped region.
                    if let Some(region) = m
                        .ports
                        .get_mut(&msg.channel)
                        .and_then(|p| p.remote_writes.as_mut())
                    {
                        region.push(msg);
                    }
                });
            }
            Action::Wake { pid, waiter, cost } => {
                let kernel2 = kernel.clone();
                if trace != 0 {
                    sim.trace
                        .begin(sim.now(), Layer::Clic, "copy_to_user", trace);
                }
                Kernel::cpu_task(&kernel, sim, cost, move |sim| {
                    if trace != 0 {
                        sim.trace.end(sim.now(), Layer::Clic, "copy_to_user", trace);
                    }
                    match pid {
                        Some(pid) => Kernel::wake(&kernel2, sim, pid, move |sim| waiter(sim, msg)),
                        None => waiter(sim, msg),
                    }
                });
            }
            Action::Park => {
                // Stays in system memory until a receive call arrives.
                let mut m = module.borrow_mut();
                if let Some(port) = m.ports.get_mut(&msg.channel) {
                    port.pending_bytes += msg.len();
                    port.pending.push_back(msg);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Receive API (driven by clic-core::api)
    // ------------------------------------------------------------------

    /// Blocking receive: runs `cont` with the next message on `channel`,
    /// parking the process if none is pending.
    pub fn recv(
        module: &Rc<RefCell<ClicModule>>,
        sim: &mut Sim,
        channel: u16,
        cont: impl FnOnce(&mut Sim, RecvMsg) + 'static,
    ) {
        let kernel = Self::kernel(module);
        let module = module.clone();
        Kernel::syscall(&kernel.clone(), sim, move |sim| {
            let popped = {
                let mut m = module.borrow_mut();
                let port = m.ports.entry(channel).or_default();
                let msg = port.pending.pop_front();
                if let Some(msg) = &msg {
                    port.pending_bytes -= msg.len();
                }
                msg
            };
            match popped {
                Some(msg) => {
                    // Copy from system memory to the caller's buffer.
                    let cost = kernel.borrow().costs.copy.cost_observed(sim, msg.len());
                    Kernel::cpu_task(&kernel, sim, cost, move |sim| cont(sim, msg));
                }
                None => {
                    let mut m = module.borrow_mut();
                    let port = m.ports.entry(channel).or_default();
                    if let Some(pid) = port.pid {
                        kernel.borrow_mut().processes.block(pid);
                    }
                    port.waiting.push_back(Box::new(cont));
                }
            }
        });
    }

    /// Number of messages parked on `channel`.
    // lint:allow(dead-fn, reason="crates/core/tests/clic_integration.rs reads it")
    pub fn pending_len(&self, channel: u16) -> usize {
        self.ports
            .get(&channel)
            .map(|p| p.pending.len())
            .unwrap_or(0)
    }
}
