//! The Gigabit Ethernet NIC.
//!
//! Models the SMC9462TX / 3C996-T class of bus-master NICs the paper used:
//!
//! * **TX**: the driver posts descriptors (possibly scatter-gather — that is
//!   what enables the 0-copy send path); the NIC DMAs the bytes over the
//!   shared PCI bus into its output FIFO and puts the frame on the wire.
//! * **RX**: arriving frames pass the MAC filter, land in the NIC's RX
//!   buffer ring and raise an interrupt, subject to **interrupt coalescing**
//!   (frame-count and timer thresholds, runtime-adjustable). Moving the data
//!   to system memory is the *driver's* job (`clic-os`): per §3.1 "the
//!   driver routine remains active until all the data stored in the NIC
//!   buffers have been moved to system memory" — that busy-wait is the
//!   dominant receive stage of Figure 7a.
//! * **MTU**: 1500 (standard) or 9000 (jumbo). A frame longer than the
//!   receiver's buffers is dropped — the jumbo interoperability caveat of
//!   §2 falls out of the model.
//! * **Fragmentation offload** (optional, §2 / future work): TX accepts
//!   packets larger than the MTU and splits them in "firmware"; RX
//!   reassembles before interrupting the host. Both sides must enable it.

use crate::coll::{CollAction, CollConfig, CollEngine, CollMsg, CollStimulus};
use crate::frag::{self, Reassembler, FRAG_HEADER};
use crate::pci::PciBus;
use bytes::Bytes;
use clic_ethernet::{EtherType, Frame, Link, LinkEnd, MacAddr, ETH_HEADER};
use clic_sim::catalog::metric_id;
use clic_sim::{Layer, MetricId, Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

/// Interned id of the transmit byte-rate timeline series.
const TX_BYTES: MetricId = metric_id("hw.nic.tx_bytes");

/// Static NIC configuration.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Maximum payload per wire frame (1500 standard, 9000 jumbo).
    pub mtu: usize,
    /// TX descriptor ring size.
    pub tx_ring: usize,
    /// RX descriptor ring size (pre-posted host buffers of MTU size).
    pub rx_ring: usize,
    /// Interrupt coalescing timer (0 disables the timer path).
    pub coalesce_usecs: u64,
    /// Interrupt after this many pending frames (<=1 interrupts per frame).
    pub coalesce_frames: u32,
    /// TX-side fragmentation offload (accept > MTU packets, split in NIC).
    pub tx_frag_offload: bool,
    /// RX-side reassembly of offload fragments.
    pub rx_frag_offload: bool,
    /// Modern receive model: the NIC bus-master-DMAs arriving frames into
    /// pre-posted host ring buffers *before* interrupting, so the driver
    /// never busy-waits the data move. This is what the Figure 8b
    /// improvement additionally assumes (and what required driver changes
    /// the portable CLIC avoided).
    pub host_rings: bool,
    /// Older NIC design (paths 2/4 of the paper's Figure 1): after the DMA
    /// into the NIC's output buffer, the NIC's own processor copies the
    /// frame to the network interface at this rate before transmission.
    /// `None` models a NIC that transmits straight from the DMA buffer.
    pub internal_copy_bytes_per_sec: Option<u64>,
}

impl NicConfig {
    /// Standard-MTU GbE NIC with coalescing set the way the paper's
    /// drivers were tuned (they "allow the dynamic adjustment of time
    /// intervals in coalesced interrupts", §2): a short 10 µs timer that
    /// batches back-to-back frames without stalling single packets.
    pub fn gigabit_standard() -> NicConfig {
        NicConfig {
            mtu: 1500,
            tx_ring: 256,
            rx_ring: 256,
            coalesce_usecs: 10,
            coalesce_frames: 8,
            tx_frag_offload: false,
            rx_frag_offload: false,
            host_rings: false,
            internal_copy_bytes_per_sec: None,
        }
    }

    /// Jumbo-frame variant (MTU 9000).
    pub fn gigabit_jumbo() -> NicConfig {
        NicConfig {
            mtu: 9000,
            ..Self::gigabit_standard()
        }
    }
}

/// A TX request from the driver. `payload` is the level-2 payload; the NIC
/// prepends nothing — the caller composed the Ethernet addressing here.
#[derive(Debug, Clone)]
pub struct TxDescriptor {
    /// Destination MAC.
    pub dst: MacAddr,
    /// EtherType of the payload.
    pub ethertype: EtherType,
    /// Packet payload. May exceed the MTU only with TX fragmentation
    /// offload enabled.
    pub payload: Bytes,
    /// Pipeline-trace id (0 = untraced).
    pub trace: u64,
}

/// A frame sitting in NIC memory, awaiting the driver's move to system
/// memory.
#[derive(Debug, Clone)]
pub struct RxPacket {
    /// The received frame (reassembled if RX offload applied).
    pub frame: Frame,
    /// When the frame finished arriving from the wire.
    pub arrived: SimTime,
}

/// NIC statistics counters — the one store of these counts, collective
/// engine included; the experiment layer exports them per node as
/// `n<id>.hw.nic.*`.
#[derive(Debug, Default, Clone)]
pub struct NicStats {
    /// Frames put on the wire.
    pub tx_frames: u64,
    /// TX descriptors rejected because the ring was full.
    pub tx_ring_full: u64,
    /// Frames delivered to host memory.
    pub rx_frames: u64,
    /// Frames ignored by the MAC filter.
    pub rx_filtered: u64,
    /// Frames dropped for lack of an RX buffer.
    pub rx_no_buffer: u64,
    /// Frames discarded on FCS verification (injected corruption). The
    /// wire and serialization time were already paid.
    pub rx_fcs_errors: u64,
    /// Frames dropped because they exceed the RX buffer size (jumbo
    /// interoperability failures land here).
    pub rx_oversize: u64,
    /// Offload fragments dropped because RX offload is disabled.
    pub rx_frag_unsupported: u64,
    /// Interrupts raised.
    pub irqs: u64,
    /// Coalescing-timer arms.
    pub timer_arms: u64,
    /// Collective control frames consumed by the NIC engine (never
    /// surfaced to the host — compare with `irqs` to see the offload).
    pub coll_msgs_rx: u64,
    /// Collective control frames emitted by the NIC engine.
    pub coll_msgs_tx: u64,
    /// Collective operations completed on this NIC.
    pub coll_completions: u64,
}

/// The NIC.
pub struct Nic {
    mac: MacAddr,
    config: NicConfig,
    pci: Rc<PciBus>,
    link: Rc<RefCell<Link>>,
    link_end: LinkEnd,
    multicast: BTreeSet<MacAddr>,
    tx_in_flight: usize,
    tx_queue: VecDeque<(u64, VecDeque<Frame>)>,
    tx_active: bool,
    next_frag_id: u32,
    reasm: Reassembler,
    host_queue: VecDeque<RxPacket>,
    irq_asserted: bool,
    timer_generation: u64,
    timer_armed: bool,
    irq_handler: Option<Rc<dyn Fn(&mut Sim)>>,
    coll: Option<CollEngine>,
    stats: NicStats,
}

impl Nic {
    /// Create a NIC attached to `end` of `link`, DMA-ing over `pci`. The
    /// caller must also register the NIC as the link-end handler via
    /// [`Nic::attach_to_link`].
    pub fn new(
        mac: MacAddr,
        config: NicConfig,
        pci: Rc<PciBus>,
        link: Rc<RefCell<Link>>,
        link_end: LinkEnd,
    ) -> Rc<RefCell<Nic>> {
        assert!(config.tx_ring > 0 && config.rx_ring > 0 && config.mtu > FRAG_HEADER);
        Rc::new(RefCell::new(Nic {
            mac,
            config,
            pci,
            link,
            link_end,
            multicast: BTreeSet::new(),
            tx_in_flight: 0,
            tx_queue: VecDeque::new(),
            tx_active: false,
            next_frag_id: 1,
            reasm: Reassembler::new(),
            host_queue: VecDeque::new(),
            irq_asserted: false,
            timer_generation: 0,
            timer_armed: false,
            irq_handler: None,
            coll: None,
            stats: NicStats::default(),
        }))
    }

    /// Register this NIC as the receive handler of its link end. Call once
    /// during node wiring. The handler holds the NIC weakly (the NIC holds
    /// the link, so a strong one would cycle): whoever built the NIC must
    /// keep it while its link delivers.
    pub fn attach_to_link(nic: &Rc<RefCell<Nic>>) {
        let (link, end) = {
            let n = nic.borrow();
            (n.link.clone(), n.link_end)
        };
        let nic = Rc::downgrade(nic);
        link.borrow_mut().attach(
            end,
            Rc::new(move |sim: &mut Sim, frame: Frame| {
                let nic = nic.upgrade().expect("NIC dropped while its link delivers");
                Nic::on_wire_frame(&nic, sim, frame);
            }),
        );
    }

    /// This NIC's station address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Configured MTU.
    pub fn mtu(&self) -> usize {
        self.config.mtu
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> NicStats {
        self.stats.clone()
    }

    /// Install the interrupt callback (the kernel's IRQ entry).
    pub fn set_irq_handler(&mut self, handler: Rc<dyn Fn(&mut Sim)>) {
        self.irq_handler = Some(handler);
    }

    /// Join an Ethernet multicast group.
    pub fn join_multicast(&mut self, group: MacAddr) {
        assert!(group.is_multicast());
        self.multicast.insert(group);
    }

    /// Adjust interrupt coalescing at runtime (the paper notes contemporary
    /// drivers expose this).
    #[cfg(test)]
    pub fn set_coalescing(&mut self, usecs: u64, frames: u32) {
        self.config.coalesce_usecs = usecs;
        self.config.coalesce_frames = frames;
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// Post a TX descriptor. Returns `false` (and counts `tx_ring_full`)
    /// when the ring has no free slot — the driver/protocol handles staging,
    /// exactly the "if the data cannot be sent now" branch of §3.1.
    pub fn transmit(nic: &Rc<RefCell<Nic>>, sim: &mut Sim, desc: TxDescriptor) -> bool {
        let frames = {
            let mut n = nic.borrow_mut();
            if n.tx_in_flight >= n.config.tx_ring {
                n.stats.tx_ring_full += 1;
                return false;
            }
            let src = n.mac;
            let mut frames = Vec::new();
            if desc.payload.len() > n.config.mtu {
                assert!(
                    n.config.tx_frag_offload,
                    "payload {} exceeds MTU {} without TX fragmentation offload",
                    desc.payload.len(),
                    n.config.mtu
                );
                // Firmware-level fragmentation: one oversized descriptor
                // becomes several MTU-sized FRAG frames, DMA'd and put on
                // the wire piece by piece (the firmware pipelines; it does
                // not stage the whole super-packet first).
                let id = n.next_frag_id;
                n.next_frag_id += 1;
                for piece in frag::fragment(id, desc.ethertype.0, &desc.payload, n.config.mtu) {
                    frames.push(
                        Frame::new(desc.dst, src, EtherType::FRAG, piece).with_trace(desc.trace),
                    );
                }
            } else {
                frames.push(
                    Frame::new(desc.dst, src, desc.ethertype, desc.payload.clone())
                        .with_trace(desc.trace),
                );
            }
            n.tx_in_flight += 1;
            frames
        };
        if desc.trace != 0 {
            sim.trace
                .begin(sim.now(), Layer::Hw, "nic_tx_dma", desc.trace);
        }
        let start = {
            let mut n = nic.borrow_mut();
            n.tx_queue.push_back((desc.trace, frames.into()));
            if n.tx_active {
                false
            } else {
                n.tx_active = true;
                true
            }
        };
        if start {
            Nic::tx_pump(nic, sim);
        }
        true
    }

    /// Process TX descriptors strictly in ring order (as real NIC firmware
    /// does): DMA each frame of the head descriptor from host memory, put
    /// it on the wire, then move to the next descriptor. Fragments of one
    /// super-packet therefore leave contiguously.
    fn tx_pump(nic: &Rc<RefCell<Nic>>, sim: &mut Sim) {
        // Retire completed descriptors (freeing ring slots, closing trace
        // spans), then pick the next frame of the head descriptor.
        let (ended_traces, frame) = {
            let mut n = nic.borrow_mut();
            let mut ended = Vec::new();
            let frame = loop {
                let Some((_trace, frames)) = n.tx_queue.front_mut() else {
                    n.tx_active = false;
                    break None;
                };
                match frames.pop_front() {
                    Some(frame) => break Some(frame),
                    None => {
                        // lint:allow(panic-reach, reason="front_mut() returned Some on this same borrow, so the queue is provably nonempty")
                        let (trace, _) = n.tx_queue.pop_front().unwrap();
                        n.tx_in_flight -= 1;
                        if trace != 0 {
                            ended.push(trace);
                        }
                    }
                }
            };
            (ended, frame)
        };
        for trace in ended_traces {
            sim.trace.end(sim.now(), Layer::Hw, "nic_tx_dma", trace);
        }
        let Some(frame) = frame else {
            return;
        };
        let pci = nic.borrow().pci.clone();
        let dma_bytes = ETH_HEADER + frame.payload.len();
        let nic2 = nic.clone();
        pci.dma(sim, dma_bytes, move |sim| {
            sim.record(TX_BYTES, frame.payload.len() as u64);
            let (link, end, internal_copy) = {
                let mut n = nic2.borrow_mut();
                n.stats.tx_frames += 1;
                let copy = n
                    .config
                    .internal_copy_bytes_per_sec
                    .map(|bw| SimDuration::for_bytes(dma_bytes as u64, bw * 8));
                (n.link.clone(), n.link_end, copy)
            };
            match internal_copy {
                // Path 2/4 NICs: the on-board processor moves the frame
                // from the output buffer to the network interface first.
                Some(delay) => {
                    let nic3 = nic2.clone();
                    sim.schedule_in(delay, move |sim| {
                        Link::transmit(&link, sim, end, frame);
                        Nic::tx_pump(&nic3, sim);
                    });
                }
                None => {
                    Link::transmit(&link, sim, end, frame);
                    Nic::tx_pump(&nic2, sim);
                }
            }
        });
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    fn accepts(&self, dst: MacAddr) -> bool {
        dst == self.mac
            || dst.is_broadcast()
            || (dst.is_multicast() && self.multicast.contains(&dst))
    }

    fn on_wire_frame(nic: &Rc<RefCell<Nic>>, sim: &mut Sim, frame: Frame) {
        let to_engine = {
            let mut n = nic.borrow_mut();
            // FCS check comes first: the MAC verifies the CRC as the frame
            // arrives, before any filtering or buffering decision.
            if frame.fcs_corrupt {
                n.stats.rx_fcs_errors += 1;
                if frame.trace != 0 {
                    sim.trace
                        .instant(sim.now(), Layer::Hw, "drop.fcs", frame.trace);
                }
                return;
            }
            if !n.accepts(frame.dst) {
                n.stats.rx_filtered += 1;
                return;
            }
            frame.ethertype == EtherType::COLL && n.coll.is_some()
        };
        // Collective control frames terminate in NIC firmware: they never
        // touch the RX ring, never DMA to host memory, never raise an IRQ.
        if to_engine {
            Nic::coll_on_frame(nic, sim, frame);
            return;
        }
        {
            let mut n = nic.borrow_mut();
            // RX buffers are MTU-sized: longer frames cannot be stored.
            if frame.payload.len() > n.config.mtu {
                n.stats.rx_oversize += 1;
                return;
            }
            if n.host_queue.len() + n.reasm.pending() >= n.config.rx_ring {
                n.stats.rx_no_buffer += 1;
                sim.trace
                    .instant(sim.now(), Layer::Hw, "drop.rx_no_buffer", frame.trace);
                return;
            }
        }
        if nic.borrow().config.host_rings {
            // Bus-master receive: move the frame to a host ring buffer
            // first, then raise the (coalesced) interrupt.
            let pci = nic.borrow().pci.clone();
            let bytes = ETH_HEADER + frame.payload.len();
            let nic2 = nic.clone();
            if frame.trace != 0 {
                sim.trace
                    .begin(sim.now(), Layer::Hw, "nic_rx_dma", frame.trace);
            }
            pci.dma(sim, bytes, move |sim| {
                if frame.trace != 0 {
                    sim.trace
                        .end(sim.now(), Layer::Hw, "nic_rx_dma", frame.trace);
                }
                Nic::rx_store(&nic2, sim, frame);
            });
        } else {
            Nic::rx_store(nic, sim, frame);
        }
    }

    // ------------------------------------------------------------------
    // NIC-offloaded collectives
    // ------------------------------------------------------------------

    /// Install the NIC-resident collective engine.
    ///
    /// Joins the group's multicast MAC (the down phase of every collective
    /// is a single Ethernet multicast) and arms the firmware state machine.
    /// After this call the host drives collectives through
    /// [`Nic::coll_barrier`] and [`Nic::coll_allreduce`]; all intermediate
    /// control frames are consumed and produced by the NIC without host
    /// interrupts.
    ///
    /// ```
    /// use clic_ethernet::{Link, LinkEnd, MacAddr, Switch};
    /// use clic_hw::coll::CollConfig;
    /// use clic_hw::nic::{Nic, NicConfig};
    /// use clic_hw::pci::PciBus;
    /// use clic_sim::Sim;
    /// use std::cell::RefCell;
    /// use std::rc::Rc;
    ///
    /// let mut sim = Sim::new(7);
    /// let sw = Switch::gigabit_default();
    /// let mut nics = Vec::new();
    /// for node in 0..2u32 {
    ///     let link = Link::gigabit();
    ///     Switch::attach_port(&sw, link.clone(), LinkEnd::A);
    ///     let nic = Nic::new(
    ///         MacAddr::for_node(node, 0),
    ///         NicConfig::gigabit_standard(),
    ///         PciBus::pci_33mhz_32bit(),
    ///         link,
    ///         LinkEnd::B,
    ///     );
    ///     Nic::attach_to_link(&nic);
    ///     nics.push(nic);
    /// }
    /// let members: Vec<_> = nics.iter().map(|n| n.borrow().mac()).collect();
    /// for (rank, nic) in nics.iter().enumerate() {
    ///     Nic::enable_collectives(nic, CollConfig::new(1, members.clone(), rank));
    /// }
    /// let done = Rc::new(RefCell::new(0u32));
    /// for nic in &nics {
    ///     let d = done.clone();
    ///     Nic::coll_barrier(nic, &mut sim, move |_sim| *d.borrow_mut() += 1);
    /// }
    /// sim.run();
    /// assert_eq!(*done.borrow(), 2); // every rank released
    /// assert_eq!(nics[0].borrow().stats().irqs, 0); // no host involvement
    /// ```
    pub fn enable_collectives(nic: &Rc<RefCell<Nic>>, config: CollConfig) {
        let group = config.group_mac();
        let mut n = nic.borrow_mut();
        assert_eq!(
            config.members[config.rank], n.mac,
            "collective rank/member mismatch for this NIC"
        );
        n.multicast.insert(group);
        n.coll = Some(CollEngine::new(config));
    }

    /// Whether the collective engine is armed.
    pub fn collectives_enabled(&self) -> bool {
        self.coll.is_some()
    }

    /// Enter the group barrier; `done` fires on this rank's release.
    pub fn coll_barrier(
        nic: &Rc<RefCell<Nic>>,
        sim: &mut Sim,
        done: impl FnOnce(&mut Sim) + 'static,
    ) {
        Nic::coll_post(nic, sim, CollStimulus::Barrier(Box::new(done)));
    }

    /// Contribute `value` to a group-wide sum; `done` receives the total.
    pub fn coll_allreduce(
        nic: &Rc<RefCell<Nic>>,
        sim: &mut Sim,
        value: u64,
        done: impl FnOnce(&mut Sim, u64) + 'static,
    ) {
        Nic::coll_post(nic, sim, CollStimulus::Allreduce(value, Box::new(done)));
    }

    /// Post a host stimulus to the engine after the firmware processing
    /// delay (the cost of writing the doorbell + firmware dispatch).
    fn coll_post(nic: &Rc<RefCell<Nic>>, sim: &mut Sim, stimulus: CollStimulus) {
        let delay = {
            let n = nic.borrow();
            n.coll
                .as_ref()
                .map(|e| e.config().proc_delay)
                .expect("collectives not enabled on this NIC")
        };
        let nic2 = nic.clone();
        sim.schedule_in(delay, move |sim| Nic::coll_step(&nic2, sim, stimulus));
    }

    /// A collective control frame arrived off the wire: decode, account,
    /// and feed the engine after the firmware processing delay.
    fn coll_on_frame(nic: &Rc<RefCell<Nic>>, sim: &mut Sim, frame: Frame) {
        let Some(msg) = CollMsg::decode(&frame.payload) else {
            return;
        };
        let (delay, trace) = {
            let mut n = nic.borrow_mut();
            let Some(e) = n.coll.as_ref() else { return };
            let d = e.config().proc_delay;
            let t = e.config().trace;
            n.stats.coll_msgs_rx += 1;
            (d, t)
        };
        let t = if frame.trace != 0 { frame.trace } else { trace };
        if t != 0 {
            if msg.is_up() {
                sim.trace.instant(sim.now(), Layer::Hw, "nic_coll_up", t);
            } else {
                sim.trace.instant(sim.now(), Layer::Hw, "nic_coll_down", t);
            }
        }
        let nic2 = nic.clone();
        sim.schedule_in(delay, move |sim| {
            Nic::coll_step(&nic2, sim, CollStimulus::Msg(msg));
        });
    }

    /// Run one engine step and execute the resulting actions.
    fn coll_step(nic: &Rc<RefCell<Nic>>, sim: &mut Sim, stimulus: CollStimulus) {
        let actions = {
            let mut n = nic.borrow_mut();
            let Some(engine) = n.coll.as_mut() else {
                return;
            };
            engine.step(stimulus)
        };
        for action in actions {
            match action {
                CollAction::Send { dst, msg } => {
                    let (link, end, src, trace) = {
                        let mut n = nic.borrow_mut();
                        n.stats.coll_msgs_tx += 1;
                        let t = n.coll.as_ref().map(|e| e.config().trace).unwrap_or(0);
                        (n.link.clone(), n.link_end, n.mac, t)
                    };
                    if trace != 0 {
                        if msg.is_up() {
                            sim.trace
                                .instant(sim.now(), Layer::Hw, "nic_coll_up", trace);
                        } else {
                            sim.trace
                                .instant(sim.now(), Layer::Hw, "nic_coll_down", trace);
                        }
                    }
                    // Engine TX bypasses the TX ring and the PCI bus: the
                    // message originates in NIC firmware, not host memory.
                    let frame =
                        Frame::new(dst, src, EtherType::COLL, msg.encode()).with_trace(trace);
                    Link::transmit(&link, sim, end, frame);
                }
                CollAction::CompleteBarrier(done) => {
                    nic.borrow_mut().stats.coll_completions += 1;
                    done(sim);
                }
                CollAction::CompleteValue(done, value) => {
                    nic.borrow_mut().stats.coll_completions += 1;
                    done(sim, value);
                }
            }
        }
    }

    fn rx_store(nic: &Rc<RefCell<Nic>>, sim: &mut Sim, frame: Frame) {
        let queued = {
            let mut n = nic.borrow_mut();
            if frame.ethertype == EtherType::FRAG {
                if !n.config.rx_frag_offload {
                    // The far side fragmented but we cannot reassemble:
                    // the offload must be enabled on both NICs.
                    n.stats.rx_frag_unsupported += 1;
                    return;
                }
                // Key reassembly by source station.
                let src_key = frame
                    .src
                    .0
                    .iter()
                    .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
                match (
                    frag::FragHeader::decode(&frame.payload),
                    n.reasm.offer(src_key, &frame.payload),
                ) {
                    (Some((h, _)), Some(packet)) => {
                        let whole =
                            Frame::new(frame.dst, frame.src, EtherType(h.ethertype), packet)
                                .with_trace(frame.trace);
                        n.host_queue.push_back(RxPacket {
                            frame: whole,
                            arrived: sim.now(),
                        });
                        n.stats.rx_frames += 1;
                        true
                    }
                    _ => false,
                }
            } else {
                n.host_queue.push_back(RxPacket {
                    frame,
                    arrived: sim.now(),
                });
                n.stats.rx_frames += 1;
                true
            }
        };
        if queued {
            Nic::evaluate_interrupt(nic, sim);
        }
    }

    /// Coalescing policy: assert immediately when coalescing is off or the
    /// frame threshold is met; otherwise (re)arm the timer.
    fn evaluate_interrupt(nic: &Rc<RefCell<Nic>>, sim: &mut Sim) {
        enum Decision {
            Nothing,
            Assert,
            Arm(SimDuration, u64),
        }
        let decision = {
            let mut n = nic.borrow_mut();
            let pending = n.host_queue.len();
            if n.irq_asserted || pending == 0 {
                Decision::Nothing
            } else if (n.config.coalesce_frames <= 1 && n.config.coalesce_usecs == 0)
                || (n.config.coalesce_frames >= 1 && pending >= n.config.coalesce_frames as usize)
            {
                Decision::Assert
            } else if n.config.coalesce_usecs > 0 && !n.timer_armed {
                n.timer_armed = true;
                n.timer_generation += 1;
                n.stats.timer_arms += 1;
                Decision::Arm(
                    SimDuration::from_us(n.config.coalesce_usecs),
                    n.timer_generation,
                )
            } else if n.config.coalesce_usecs == 0 {
                // Frame threshold configured but no timer: wait for frames.
                Decision::Nothing
            } else {
                Decision::Nothing
            }
        };
        match decision {
            Decision::Nothing => {}
            Decision::Assert => Nic::assert_irq(nic, sim),
            Decision::Arm(delay, generation) => {
                let nic2 = nic.clone();
                sim.schedule_in(delay, move |sim| {
                    let fire = {
                        let mut n = nic2.borrow_mut();
                        let valid = n.timer_armed && n.timer_generation == generation;
                        if valid {
                            n.timer_armed = false;
                        }
                        valid && !n.irq_asserted && !n.host_queue.is_empty()
                    };
                    if fire {
                        Nic::assert_irq(&nic2, sim);
                    }
                });
            }
        }
    }

    fn assert_irq(nic: &Rc<RefCell<Nic>>, sim: &mut Sim) {
        let handler = {
            let mut n = nic.borrow_mut();
            debug_assert!(!n.irq_asserted);
            n.irq_asserted = true;
            n.timer_armed = false;
            n.stats.irqs += 1;
            n.irq_handler.clone()
        };
        if let Some(h) = handler {
            h(sim);
        }
    }

    /// Driver entry: take all frames waiting in NIC memory, recycling their
    /// RX buffers. Unless [`NicConfig::host_rings`] is set, the driver is
    /// responsible for moving the bytes to system memory (and for charging
    /// the PCI/CPU time that takes).
    #[cfg(test)]
    pub fn drain_rx(&mut self) -> Vec<RxPacket> {
        self.host_queue.drain(..).collect()
    }

    /// Like [`Nic::drain_rx`] but takes at most `limit` frames, leaving the
    /// rest queued (used by the driver's per-interrupt budget).
    pub fn drain_rx_up_to(&mut self, limit: usize) -> Vec<RxPacket> {
        let n = self.host_queue.len().min(limit);
        self.host_queue.drain(..n).collect()
    }

    /// Whether arriving frames are already in host memory at IRQ time.
    pub fn host_rings(&self) -> bool {
        self.config.host_rings
    }

    /// The PCI bus this NIC masters (the driver's RX moves ride it too).
    pub fn pci(&self) -> Rc<PciBus> {
        self.pci.clone()
    }

    /// Frames awaiting the driver.
    #[cfg(test)]
    pub fn rx_pending(&self) -> usize {
        self.host_queue.len()
    }

    /// Driver acknowledges the interrupt. If frames queued while the driver
    /// ran, the coalescing policy is re-evaluated: with a coalescing timer
    /// configured the re-assertion is deferred by it (interrupt
    /// mitigation), giving deferred work a window to run; otherwise it may
    /// re-assert at once.
    pub fn ack_irq(nic: &Rc<RefCell<Nic>>, sim: &mut Sim) {
        let arm = {
            let mut n = nic.borrow_mut();
            n.irq_asserted = false;
            if n.host_queue.is_empty() {
                None
            } else if n.config.coalesce_usecs > 0 {
                if n.timer_armed {
                    Some(None) // timer already pending
                } else {
                    n.timer_armed = true;
                    n.timer_generation += 1;
                    n.stats.timer_arms += 1;
                    Some(Some((
                        SimDuration::from_us(n.config.coalesce_usecs),
                        n.timer_generation,
                    )))
                }
            } else {
                None // fall through to the normal policy below
            }
        };
        match arm {
            Some(Some((delay, generation))) => {
                let nic2 = nic.clone();
                sim.schedule_in(delay, move |sim| {
                    let fire = {
                        let mut n = nic2.borrow_mut();
                        let valid = n.timer_armed && n.timer_generation == generation;
                        if valid {
                            n.timer_armed = false;
                        }
                        valid && !n.irq_asserted && !n.host_queue.is_empty()
                    };
                    if fire {
                        Nic::assert_irq(&nic2, sim);
                    }
                });
            }
            Some(None) => {}
            None => Nic::evaluate_interrupt(nic, sim),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two NICs wired back-to-back on a gigabit link, each with its own
    /// PCI bus (two hosts).
    struct Pair {
        a: Rc<RefCell<Nic>>,
        b: Rc<RefCell<Nic>>,
        irqs_b: Rc<RefCell<u32>>,
    }

    fn mk_pair(cfg_a: NicConfig, cfg_b: NicConfig) -> Pair {
        let link = Link::new(1_000_000_000, SimDuration::from_ns(500));
        let a = Nic::new(
            MacAddr::for_node(1, 0),
            cfg_a,
            PciBus::pci_33mhz_32bit(),
            link.clone(),
            LinkEnd::A,
        );
        let b = Nic::new(
            MacAddr::for_node(2, 0),
            cfg_b,
            PciBus::pci_33mhz_32bit(),
            link.clone(),
            LinkEnd::B,
        );
        Nic::attach_to_link(&a);
        Nic::attach_to_link(&b);
        let irqs_b = Rc::new(RefCell::new(0u32));
        let c = irqs_b.clone();
        b.borrow_mut()
            .set_irq_handler(Rc::new(move |_sim| *c.borrow_mut() += 1));
        Pair { a, b, irqs_b }
    }

    fn no_coalesce(mut cfg: NicConfig) -> NicConfig {
        cfg.coalesce_usecs = 0;
        cfg.coalesce_frames = 1;
        cfg
    }

    fn tx(pair: &Pair, sim: &mut Sim, payload_len: usize) -> bool {
        let dst = pair.b.borrow().mac();
        Nic::transmit(
            &pair.a,
            sim,
            TxDescriptor {
                dst,
                ethertype: EtherType::CLIC,
                payload: Bytes::from(vec![0x5au8; payload_len]),
                trace: 0,
            },
        )
    }

    #[test]
    fn frame_reaches_peer_host_memory() {
        let mut sim = Sim::new(0);
        let pair = mk_pair(
            no_coalesce(NicConfig::gigabit_standard()),
            no_coalesce(NicConfig::gigabit_standard()),
        );
        assert!(tx(&pair, &mut sim, 1400));
        sim.run();
        assert_eq!(*pair.irqs_b.borrow(), 1);
        let pkts = pair.b.borrow_mut().drain_rx();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].frame.payload.len(), 1400);
        assert!(pkts[0].frame.payload.iter().all(|&b| b == 0x5a));
        assert_eq!(pair.a.borrow().stats().tx_frames, 1);
        assert_eq!(pair.b.borrow().stats().rx_frames, 1);
    }

    #[test]
    fn mac_filter_rejects_other_stations() {
        let mut sim = Sim::new(0);
        let pair = mk_pair(
            no_coalesce(NicConfig::gigabit_standard()),
            no_coalesce(NicConfig::gigabit_standard()),
        );
        Nic::transmit(
            &pair.a,
            &mut sim,
            TxDescriptor {
                dst: MacAddr::for_node(99, 0),
                ethertype: EtherType::CLIC,
                payload: Bytes::from(vec![1u8; 64]),
                trace: 0,
            },
        );
        sim.run();
        assert_eq!(*pair.irqs_b.borrow(), 0);
        assert_eq!(pair.b.borrow().stats().rx_filtered, 1);
    }

    #[test]
    fn broadcast_and_joined_multicast_accepted() {
        let mut sim = Sim::new(0);
        let pair = mk_pair(
            no_coalesce(NicConfig::gigabit_standard()),
            no_coalesce(NicConfig::gigabit_standard()),
        );
        let group = MacAddr::multicast_group(4);
        pair.b.borrow_mut().join_multicast(group);
        for dst in [MacAddr::BROADCAST, group, MacAddr::multicast_group(5)] {
            Nic::transmit(
                &pair.a,
                &mut sim,
                TxDescriptor {
                    dst,
                    ethertype: EtherType::CLIC,
                    payload: Bytes::from(vec![1u8; 64]),
                    trace: 0,
                },
            );
        }
        sim.run();
        // Broadcast + joined group delivered; unjoined group filtered.
        assert_eq!(pair.b.borrow().stats().rx_frames, 2);
        assert_eq!(pair.b.borrow().stats().rx_filtered, 1);
    }

    #[test]
    fn jumbo_into_standard_receiver_dropped_oversize() {
        let mut sim = Sim::new(0);
        let pair = mk_pair(
            no_coalesce(NicConfig::gigabit_jumbo()),
            no_coalesce(NicConfig::gigabit_standard()),
        );
        assert!(tx(&pair, &mut sim, 9000));
        sim.run();
        assert_eq!(pair.b.borrow().stats().rx_oversize, 1);
        assert_eq!(pair.b.borrow().stats().rx_frames, 0);
    }

    #[test]
    fn jumbo_to_jumbo_delivered() {
        let mut sim = Sim::new(0);
        let pair = mk_pair(
            no_coalesce(NicConfig::gigabit_jumbo()),
            no_coalesce(NicConfig::gigabit_jumbo()),
        );
        assert!(tx(&pair, &mut sim, 9000));
        sim.run();
        assert_eq!(pair.b.borrow().stats().rx_frames, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn oversize_tx_without_offload_panics() {
        let mut sim = Sim::new(0);
        let pair = mk_pair(
            no_coalesce(NicConfig::gigabit_standard()),
            no_coalesce(NicConfig::gigabit_standard()),
        );
        tx(&pair, &mut sim, 4000);
        sim.run();
    }

    #[test]
    fn tx_ring_backpressure() {
        let mut sim = Sim::new(0);
        let mut cfg = no_coalesce(NicConfig::gigabit_standard());
        cfg.tx_ring = 2;
        let pair = mk_pair(cfg, no_coalesce(NicConfig::gigabit_standard()));
        assert!(tx(&pair, &mut sim, 1000));
        assert!(tx(&pair, &mut sim, 1000));
        assert!(!tx(&pair, &mut sim, 1000), "third post must be refused");
        assert_eq!(pair.a.borrow().stats().tx_ring_full, 1);
        sim.run();
        // After the DMAs drain, the ring frees up again.
        assert!(tx(&pair, &mut sim, 1000));
        sim.run();
        assert_eq!(pair.b.borrow().stats().rx_frames, 3);
    }

    #[test]
    fn rx_ring_overflow_drops() {
        let mut sim = Sim::new(0);
        let mut cfg_b = NicConfig::gigabit_standard();
        cfg_b.rx_ring = 4;
        // Coalescing keeps the driver away so the host queue fills.
        cfg_b.coalesce_usecs = 10_000;
        cfg_b.coalesce_frames = 1_000;
        let pair = mk_pair(no_coalesce(NicConfig::gigabit_standard()), cfg_b);
        for _ in 0..10 {
            assert!(tx(&pair, &mut sim, 1000));
        }
        sim.run_until(SimTime::from_us(500));
        let stats = pair.b.borrow().stats();
        assert_eq!(stats.rx_frames, 4);
        assert_eq!(stats.rx_no_buffer, 6);
    }

    #[test]
    fn coalescing_by_frame_count() {
        let mut sim = Sim::new(0);
        let mut cfg_b = NicConfig::gigabit_standard();
        cfg_b.coalesce_usecs = 0;
        cfg_b.coalesce_frames = 4;
        let pair = mk_pair(no_coalesce(NicConfig::gigabit_standard()), cfg_b);
        for _ in 0..8 {
            assert!(tx(&pair, &mut sim, 1000));
        }
        sim.run();
        // 8 frames, threshold 4, driver never drains: a single IRQ is
        // asserted at 4 pending and stays asserted.
        assert_eq!(*pair.irqs_b.borrow(), 1);
        assert_eq!(pair.b.borrow().rx_pending(), 8);
        // Drain + ack: queue empty, no further IRQ.
        let pkts = pair.b.borrow_mut().drain_rx();
        assert_eq!(pkts.len(), 8);
        Nic::ack_irq(&pair.b, &mut sim);
        sim.run();
        assert_eq!(*pair.irqs_b.borrow(), 1);
    }

    #[test]
    fn coalescing_timer_fires_for_stragglers() {
        let mut sim = Sim::new(0);
        let mut cfg_b = NicConfig::gigabit_standard();
        cfg_b.coalesce_usecs = 30;
        cfg_b.coalesce_frames = 8;
        let pair = mk_pair(no_coalesce(NicConfig::gigabit_standard()), cfg_b);
        assert!(tx(&pair, &mut sim, 500));
        sim.run();
        // One frame < threshold: IRQ comes from the 30 us timer.
        assert_eq!(*pair.irqs_b.borrow(), 1);
        assert_eq!(pair.b.borrow().stats().timer_arms, 1);
        // The delay should be at least the coalescing interval.
        assert!(sim.now() >= SimTime::from_us(30));
    }

    #[test]
    fn ack_with_pending_frames_reasserts() {
        let mut sim = Sim::new(0);
        let mut cfg_b = NicConfig::gigabit_standard();
        cfg_b.coalesce_usecs = 0;
        cfg_b.coalesce_frames = 1;
        let pair = mk_pair(no_coalesce(NicConfig::gigabit_standard()), cfg_b);
        for _ in 0..3 {
            assert!(tx(&pair, &mut sim, 800));
        }
        sim.run();
        // First IRQ asserted on first arrival; later arrivals coalesce into
        // the asserted state.
        assert_eq!(*pair.irqs_b.borrow(), 1);
        // Driver acks *without* draining: must re-assert for pending work.
        Nic::ack_irq(&pair.b, &mut sim);
        sim.run();
        assert_eq!(*pair.irqs_b.borrow(), 2);
        assert_eq!(pair.b.borrow().rx_pending(), 3);
    }

    #[test]
    fn frag_offload_end_to_end() {
        let mut sim = Sim::new(0);
        let mut cfg = no_coalesce(NicConfig::gigabit_standard());
        cfg.tx_frag_offload = true;
        cfg.rx_frag_offload = true;
        let pair = mk_pair(cfg.clone(), cfg);
        let payload: Vec<u8> = (0..20_000).map(|i| (i % 253) as u8).collect();
        let dst = pair.b.borrow().mac();
        Nic::transmit(
            &pair.a,
            &mut sim,
            TxDescriptor {
                dst,
                ethertype: EtherType::CLIC,
                payload: Bytes::from(payload.clone()),
                trace: 0,
            },
        );
        sim.run();
        // Many wire frames, one host packet, one interrupt.
        assert!(pair.a.borrow().stats().tx_frames > 10);
        assert_eq!(pair.b.borrow().stats().rx_frames, 1);
        assert_eq!(*pair.irqs_b.borrow(), 1);
        let pkts = pair.b.borrow_mut().drain_rx();
        assert_eq!(pkts[0].frame.payload, Bytes::from(payload));
        assert_eq!(pkts[0].frame.ethertype, EtherType::CLIC);
    }

    #[test]
    fn frag_into_non_offload_receiver_dropped() {
        let mut sim = Sim::new(0);
        let mut cfg_a = no_coalesce(NicConfig::gigabit_standard());
        cfg_a.tx_frag_offload = true;
        let pair = mk_pair(cfg_a, no_coalesce(NicConfig::gigabit_standard()));
        assert!(tx(&pair, &mut sim, 5000));
        sim.run();
        let stats = pair.b.borrow().stats();
        assert_eq!(stats.rx_frames, 0);
        assert!(stats.rx_frag_unsupported > 0);
    }

    #[test]
    fn corrupt_frame_discarded_on_fcs() {
        use clic_ethernet::FaultPlan;
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        link.borrow_mut().set_faults(
            LinkEnd::A,
            FaultPlan {
                corrupt: 1.0,
                ..FaultPlan::default()
            },
        );
        let cfg = no_coalesce(NicConfig::gigabit_standard());
        let a = Nic::new(
            MacAddr::for_node(1, 0),
            cfg.clone(),
            PciBus::pci_33mhz_32bit(),
            link.clone(),
            LinkEnd::A,
        );
        let b = Nic::new(
            MacAddr::for_node(2, 0),
            cfg,
            PciBus::pci_33mhz_32bit(),
            link.clone(),
            LinkEnd::B,
        );
        Nic::attach_to_link(&a);
        Nic::attach_to_link(&b);
        let irqs = Rc::new(RefCell::new(0u32));
        let c = irqs.clone();
        b.borrow_mut()
            .set_irq_handler(Rc::new(move |_sim| *c.borrow_mut() += 1));
        Nic::transmit(
            &a,
            &mut sim,
            TxDescriptor {
                dst: MacAddr::for_node(2, 0),
                ethertype: EtherType::CLIC,
                payload: Bytes::from(vec![9u8; 700]),
                trace: 0,
            },
        );
        sim.run();
        // The link delivered the frame (wire time was paid), the MAC
        // threw it away on the bad FCS, and the host never heard of it.
        assert_eq!(link.borrow().delivered(LinkEnd::A), 1);
        let stats = b.borrow().stats();
        assert_eq!(stats.rx_fcs_errors, 1);
        assert_eq!(stats.rx_frames, 0);
        assert_eq!(*irqs.borrow(), 0);
    }

    #[test]
    fn runtime_coalescing_adjustment() {
        let mut sim = Sim::new(0);
        let mut cfg_b = NicConfig::gigabit_standard();
        cfg_b.coalesce_usecs = 1_000;
        cfg_b.coalesce_frames = 1_000;
        let pair = mk_pair(no_coalesce(NicConfig::gigabit_standard()), cfg_b);
        // Tighten coalescing to per-frame before traffic arrives.
        pair.b.borrow_mut().set_coalescing(0, 1);
        assert!(tx(&pair, &mut sim, 400));
        sim.run();
        assert_eq!(*pair.irqs_b.borrow(), 1);
        assert!(sim.now() < SimTime::from_us(100), "no timer wait expected");
    }
}

#[cfg(test)]
mod internal_copy_tests {
    use super::*;

    #[test]
    fn internal_copy_delays_wire_entry() {
        // Identical frames through a path-2 NIC and a path-4 NIC: the
        // internal copy must add exactly bytes/rate to the trip.
        fn delivery_time(internal: Option<u64>) -> SimTime {
            let mut sim = Sim::new(0);
            let link = Link::new(1_000_000_000, SimDuration::ZERO);
            let mut cfg = NicConfig::gigabit_standard();
            cfg.coalesce_usecs = 0;
            cfg.coalesce_frames = 1;
            cfg.internal_copy_bytes_per_sec = internal;
            let a = Nic::new(
                MacAddr::for_node(1, 0),
                cfg.clone(),
                PciBus::pci_33mhz_32bit(),
                link.clone(),
                LinkEnd::A,
            );
            cfg.internal_copy_bytes_per_sec = None;
            let b = Nic::new(
                MacAddr::for_node(2, 0),
                cfg,
                PciBus::pci_33mhz_32bit(),
                link,
                LinkEnd::B,
            );
            Nic::attach_to_link(&a);
            Nic::attach_to_link(&b);
            let arrived = Rc::new(RefCell::new(SimTime::ZERO));
            let ar = arrived.clone();
            b.borrow_mut().set_irq_handler(Rc::new(move |sim| {
                *ar.borrow_mut() = sim.now();
            }));
            Nic::transmit(
                &a,
                &mut sim,
                TxDescriptor {
                    dst: MacAddr::for_node(2, 0),
                    ethertype: EtherType::CLIC,
                    payload: Bytes::from(vec![1u8; 986]), // 1000 B with header
                    trace: 0,
                },
            );
            sim.run();
            let t = *arrived.borrow();
            t
        }
        let plain = delivery_time(None);
        let copied = delivery_time(Some(100_000_000)); // 1000 B at 100 MB/s = 10 us
        assert_eq!(copied - plain, SimDuration::from_us(10));
    }

    #[test]
    fn drain_rx_up_to_respects_limit() {
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        let mut cfg = NicConfig::gigabit_standard();
        cfg.coalesce_usecs = 1_000;
        cfg.coalesce_frames = 1_000; // keep the IRQ away
        let a = Nic::new(
            MacAddr::for_node(1, 0),
            cfg.clone(),
            PciBus::pci_33mhz_32bit(),
            link.clone(),
            LinkEnd::A,
        );
        let b = Nic::new(
            MacAddr::for_node(2, 0),
            cfg,
            PciBus::pci_33mhz_32bit(),
            link,
            LinkEnd::B,
        );
        Nic::attach_to_link(&a);
        Nic::attach_to_link(&b);
        for _ in 0..5 {
            Nic::transmit(
                &a,
                &mut sim,
                TxDescriptor {
                    dst: MacAddr::for_node(2, 0),
                    ethertype: EtherType::CLIC,
                    payload: Bytes::from(vec![2u8; 100]),
                    trace: 0,
                },
            );
        }
        sim.run();
        assert_eq!(b.borrow().rx_pending(), 5);
        let first = b.borrow_mut().drain_rx_up_to(2);
        assert_eq!(first.len(), 2);
        assert_eq!(b.borrow().rx_pending(), 3);
        let rest = b.borrow_mut().drain_rx_up_to(10);
        assert_eq!(rest.len(), 3);
        assert_eq!(b.borrow().rx_pending(), 0);
    }

    // ------------------------------------------------------------------
    // NIC-offloaded collectives
    // ------------------------------------------------------------------

    /// `n` NICs on one switch, all with the collective engine armed for
    /// group 9. The caller keeps the switch: its links hold it weakly.
    fn mk_group(
        sim: &mut Sim,
        n: usize,
    ) -> (Rc<RefCell<clic_ethernet::Switch>>, Vec<Rc<RefCell<Nic>>>) {
        use crate::coll::CollConfig;
        use clic_ethernet::Switch;
        let sw = Switch::gigabit_default();
        let mut nics = Vec::new();
        let mut cfg = NicConfig::gigabit_standard();
        cfg.coalesce_usecs = 0;
        cfg.coalesce_frames = 1;
        for node in 0..n {
            let link = Link::gigabit();
            Switch::attach_port(&sw, link.clone(), LinkEnd::A);
            let nic = Nic::new(
                MacAddr::for_node(node as u32, 0),
                cfg.clone(),
                PciBus::pci_33mhz_32bit(),
                link,
                LinkEnd::B,
            );
            Nic::attach_to_link(&nic);
            let c = Rc::new(RefCell::new(0u32));
            let c2 = c.clone();
            nic.borrow_mut()
                .set_irq_handler(Rc::new(move |_sim| *c2.borrow_mut() += 1));
            nics.push(nic);
        }
        let members: Vec<_> = nics.iter().map(|n| n.borrow().mac()).collect();
        for (rank, nic) in nics.iter().enumerate() {
            Nic::enable_collectives(nic, CollConfig::new(9, members.clone(), rank));
        }
        let _ = sim;
        (sw, nics)
    }

    #[test]
    fn coll_barrier_releases_every_rank_without_host_irqs() {
        let mut sim = Sim::new(11);
        let (_switch, nics) = mk_group(&mut sim, 8);
        let done = Rc::new(RefCell::new(0u32));
        for nic in &nics {
            let d = done.clone();
            Nic::coll_barrier(nic, &mut sim, move |_sim| *d.borrow_mut() += 1);
        }
        sim.run();
        assert_eq!(*done.borrow(), 8);
        for nic in &nics {
            let st = nic.borrow().stats();
            assert_eq!(st.irqs, 0, "collective frames must not reach the host");
            assert_eq!(st.coll_completions, 1);
            assert_eq!(nic.borrow().rx_pending(), 0);
        }
        // Up phase: 7 unicast arrivals; down phase: one multicast flooded
        // to the 7 non-root members.
        let rx: u64 = nics.iter().map(|n| n.borrow().stats().coll_msgs_rx).sum();
        assert_eq!(rx, 14);
    }

    #[test]
    fn coll_allreduce_sums_on_every_rank() {
        let mut sim = Sim::new(12);
        let (_switch, nics) = mk_group(&mut sim, 5);
        let results = Rc::new(RefCell::new(Vec::new()));
        for (rank, nic) in nics.iter().enumerate() {
            let r = results.clone();
            Nic::coll_allreduce(nic, &mut sim, (rank as u64 + 1) * 10, move |_sim, total| {
                r.borrow_mut().push(total);
            });
        }
        sim.run();
        assert_eq!(*results.borrow(), vec![150u64; 5]);
    }

    #[test]
    fn coll_back_to_back_barriers_use_fresh_sequence_numbers() {
        let mut sim = Sim::new(14);
        let (_switch, nics) = mk_group(&mut sim, 4);
        let done = Rc::new(RefCell::new(0u32));
        for nic in &nics {
            let d = done.clone();
            let nic2 = nic.clone();
            Nic::coll_barrier(nic, &mut sim, move |sim| {
                *d.borrow_mut() += 1;
                let d2 = d.clone();
                Nic::coll_barrier(&nic2, sim, move |_sim| *d2.borrow_mut() += 1);
            });
        }
        sim.run();
        assert_eq!(*done.borrow(), 8);
        for nic in &nics {
            assert_eq!(nic.borrow().stats().coll_completions, 2);
        }
    }
}
