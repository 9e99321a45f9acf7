//! The (unmodified) Gigabit Ethernet driver.
//!
//! CLIC's design constraint is that it must work with stock NIC drivers —
//! the same `hard_start_xmit` and interrupt routine serve both CLIC and the
//! TCP/IP baseline, matching §3.1 of the paper.
//!
//! * **Transmit**: a short descriptor-setup cost, then the NIC is kicked
//!   with the SkBuff's header and data as two gather entries, each where
//!   it lies; the NIC DMAs them as bus master, so "CLIC_MODULE and the
//!   driver can finish before the data transference starts, and free the
//!   CPU".
//! * **Receive**: the interrupt routine drains the NIC RX buffers, moving
//!   each frame to system memory (the driver busy-waits the DMA — this is
//!   the ≈ 15 µs stage of Figure 7a for a 1400-byte frame) and dispatches
//!   frames to protocol handlers through bottom halves, or directly when
//!   [`Kernel::direct_dispatch`] is set (Figure 8b).

use crate::kernel::Kernel;
use crate::skbuff::SkBuff;
use clic_ethernet::{EtherType, MacAddr, ETH_HEADER};
use clic_hw::{Nic, TxDescriptor};
use clic_sim::{Layer, Sim};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

/// Post an SkBuff for transmission on device `dev`. The driver charges its
/// descriptor-setup cost, then posts to the NIC; `on_result` receives
/// `false` when the TX ring is full (the caller stages and retries — §3.1's
/// "if the data cannot be sent at the present moment" branch).
pub fn hard_start_xmit(
    kernel: &Rc<RefCell<Kernel>>,
    sim: &mut Sim,
    dev: usize,
    dst: MacAddr,
    ethertype: EtherType,
    skb: SkBuff,
    on_result: impl FnOnce(&mut Sim, bool) + 'static,
) {
    let (nic, cost) = {
        let k = kernel.borrow();
        (k.device(dev), k.costs.driver_tx_per_frame)
    };
    if skb.trace != 0 {
        sim.trace
            .begin(sim.now(), Layer::Os, "driver_tx", skb.trace);
    }
    let trace = skb.trace;
    Kernel::cpu_task(kernel, sim, cost, move |sim| {
        if trace != 0 {
            sim.trace.end(sim.now(), Layer::Os, "driver_tx", trace);
        }
        let ok = Nic::transmit(
            &nic,
            sim,
            TxDescriptor {
                dst,
                ethertype,
                head: skb.header,
                body: skb.data,
                trace,
            },
        );
        on_result(sim, ok);
    });
}

/// Wire device `dev`'s interrupt line to the driver top half. Called by
/// [`Kernel::add_device`].
pub(crate) fn install_irq(kernel: &Rc<RefCell<Kernel>>, dev: usize) {
    let nic = kernel.borrow().device(dev);
    // Weak reference: a strong one would cycle kernel -> nic -> handler ->
    // kernel.
    let weak: Weak<RefCell<Kernel>> = Rc::downgrade(kernel);
    nic.borrow_mut()
        .set_irq_handler(Rc::new(move |sim: &mut Sim| {
            let kernel = weak
                .upgrade()
                .expect("kernel dropped while its NIC interrupts");
            irq_top_half(&kernel, sim, dev);
        }));
}

/// IRQ entry: charge prologue + per-interrupt driver fixed cost, then start
/// moving frames.
fn irq_top_half(kernel: &Rc<RefCell<Kernel>>, sim: &mut Sim, dev: usize) {
    if kernel.borrow().is_halted() {
        // Crash-stopped node: nobody services the interrupt. Discard the
        // NIC's pending frames (the ring is overwritten on a dead host) and
        // acknowledge so the device re-arms cleanly for a later restart.
        let nic = kernel.borrow().device(dev);
        nic.borrow_mut().drain_rx_up_to(usize::MAX);
        Nic::ack_irq(&nic, sim);
        return;
    }
    let cost = {
        let mut k = kernel.borrow_mut();
        k.stats.irqs += 1;
        k.costs.irq_entry + k.costs.driver_irq_fixed
    };
    let kernel2 = kernel.clone();
    Kernel::cpu_irq(kernel, sim, cost, move |sim| {
        rx_round(&kernel2, sim, dev, RX_BUDGET);
    });
}

/// Frames one interrupt may move before yielding (NAPI-style budget): it
/// bounds how long the IRQ monopolizes the CPU, so bottom halves (protocol
/// processing, ACK generation) get a window under sustained load.
const RX_BUDGET: usize = 32;

/// Drain the NIC once and process that batch ("it moves all the pending
/// packets", §3.2) up to the budget, then acknowledge; frames that arrive
/// meanwhile re-raise the interrupt (deferred by the coalescing timer),
/// which gives bottom halves — protocol processing, ACK generation — a
/// window between batches instead of livelocking the CPU in IRQ context.
fn rx_round(kernel: &Rc<RefCell<Kernel>>, sim: &mut Sim, dev: usize, budget: usize) {
    let nic = kernel.borrow().device(dev);
    let pkts: VecDeque<_> = nic.borrow_mut().drain_rx_up_to(budget).into();
    if pkts.is_empty() {
        Nic::ack_irq(&nic, sim);
        return;
    }
    process_frames(kernel, sim, dev, pkts);
}

fn process_frames(
    kernel: &Rc<RefCell<Kernel>>,
    sim: &mut Sim,
    dev: usize,
    mut pkts: VecDeque<clic_hw::RxPacket>,
) {
    let Some(pkt) = pkts.pop_front() else {
        let nic = kernel.borrow().device(dev);
        Nic::ack_irq(&nic, sim);
        return;
    };
    let frame = pkt.frame;
    let (nic, per_frame) = {
        let k = kernel.borrow();
        (k.device(dev), k.costs.driver_rx_per_frame)
    };
    let pci = nic.borrow().pci();
    let bytes = ETH_HEADER + frame.payload_len();
    // With host rings the data is already in system memory: the driver only
    // does ring bookkeeping. Otherwise it allocates the SK_BUFF and stays
    // in the routine until the data has been moved to system memory: CPU
    // held for setup + DMA time, and the bus transaction accounted on PCI.
    let move_cost = if nic.borrow().host_rings() {
        per_frame
    } else {
        pci.dma(sim, bytes, |_| {});
        per_frame + pci.service_time(bytes)
    };
    if frame.trace != 0 {
        sim.trace
            .begin(sim.now(), Layer::Os, "driver_rx", frame.trace);
    }
    let kernel2 = kernel.clone();
    Kernel::cpu_irq(kernel, sim, move_cost, move |sim| {
        if frame.trace != 0 {
            sim.trace
                .end(sim.now(), Layer::Os, "driver_rx", frame.trace);
        }
        kernel2.borrow_mut().stats.frames_received += 1;
        dispatch(&kernel2, sim, dev, frame);
        process_frames(&kernel2, sim, dev, pkts);
    });
}

/// Hand a frame (now in system memory) to its protocol.
fn dispatch(kernel: &Rc<RefCell<Kernel>>, sim: &mut Sim, dev: usize, frame: Frame) {
    let (handler, direct) = {
        let k = kernel.borrow();
        if k.halted {
            return; // crashed between the interrupt and protocol dispatch
        }
        (k.handler_for(frame.ethertype.0), k.direct_dispatch)
    };
    let Some(handler) = handler else {
        return; // no protocol registered: frame silently dropped
    };
    if direct {
        // Figure 8b: the driver calls the module straight away.
        let kernel2 = kernel.clone();
        handler.handle(sim, &kernel2, dev, frame);
    } else {
        let kernel2 = kernel.clone();
        let trace = frame.trace;
        if trace != 0 {
            sim.trace.begin(sim.now(), Layer::Os, "bottom_half", trace);
        }
        Kernel::schedule_bh(kernel, sim, move |sim| {
            if trace != 0 {
                sim.trace.end(sim.now(), Layer::Os, "bottom_half", trace);
            }
            handler.handle(sim, &kernel2, dev, frame);
        });
    }
}

use clic_ethernet::Frame;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::OsCosts;
    use crate::kernel::PacketHandler;
    use bytes::Bytes;
    use clic_ethernet::{Link, LinkEnd};
    use clic_hw::{NicConfig, PciBus};
    use clic_sim::{SimDuration, SimTime};

    /// Two full nodes (kernel + NIC + PCI) wired back-to-back.
    struct TwoNodes {
        a: Rc<RefCell<Kernel>>,
        b: Rc<RefCell<Kernel>>,
        b_mac: MacAddr,
    }

    fn no_coalesce() -> NicConfig {
        let mut cfg = NicConfig::gigabit_standard();
        cfg.coalesce_usecs = 0;
        cfg.coalesce_frames = 1;
        cfg
    }

    fn mk_nodes(cfg: NicConfig) -> TwoNodes {
        let link = Link::gigabit();
        let a = Kernel::new(1, OsCosts::era_2002());
        let b = Kernel::new(2, OsCosts::era_2002());
        let nic_a = Nic::new(
            MacAddr::for_node(1, 0),
            cfg.clone(),
            PciBus::pci_33mhz_32bit(),
            link.clone(),
            LinkEnd::A,
        );
        let nic_b = Nic::new(
            MacAddr::for_node(2, 0),
            cfg,
            PciBus::pci_33mhz_32bit(),
            link,
            LinkEnd::B,
        );
        Nic::attach_to_link(&nic_a);
        Nic::attach_to_link(&nic_b);
        Kernel::add_device(&a, nic_a);
        Kernel::add_device(&b, nic_b);
        let b_mac = MacAddr::for_node(2, 0);
        TwoNodes { a, b, b_mac }
    }

    /// Records every frame a node's test protocol receives.
    struct Recorder {
        frames: RefCell<Vec<(SimTime, Frame)>>,
    }
    impl PacketHandler for Recorder {
        fn handle(&self, sim: &mut Sim, _: &Rc<RefCell<Kernel>>, _: usize, frame: Frame) {
            self.frames.borrow_mut().push((sim.now(), frame));
        }
    }

    fn install_recorder(k: &Rc<RefCell<Kernel>>) -> Rc<Recorder> {
        let r = Rc::new(Recorder {
            frames: RefCell::new(Vec::new()),
        });
        k.borrow_mut()
            .register_handler(EtherType::CLIC.0, r.clone());
        r
    }

    fn xmit(nodes: &TwoNodes, sim: &mut Sim, payload: Bytes) {
        let skb = SkBuff::zero_copy(Bytes::from_static(b"HDRxHDRxHDRx"), payload);
        hard_start_xmit(
            &nodes.a,
            sim,
            0,
            nodes.b_mac,
            EtherType::CLIC,
            skb,
            |_, ok| assert!(ok),
        );
    }

    #[test]
    fn frame_travels_kernel_to_kernel() {
        let mut sim = Sim::new(0);
        let nodes = mk_nodes(no_coalesce());
        let rx = install_recorder(&nodes.b);
        xmit(&nodes, &mut sim, Bytes::from(vec![0x77u8; 1000]));
        sim.run();
        let frames = rx.frames.borrow();
        assert_eq!(frames.len(), 1);
        // Header + data concatenated on the wire.
        let wire = [&frames[0].1.head[..], &frames[0].1.body[..]].concat();
        assert_eq!(wire.len(), 12 + 1000);
        assert_eq!(&wire[..12], b"HDRxHDRxHDRx");
        assert!(wire[12..].iter().all(|&b| b == 0x77));
        assert_eq!(nodes.b.borrow().stats().irqs, 1);
        assert_eq!(nodes.b.borrow().stats().frames_received, 1);
        assert_eq!(nodes.b.borrow().stats().bhs, 1);
    }

    #[test]
    fn direct_dispatch_skips_bottom_half_and_is_faster() {
        fn deliver_time(direct: bool) -> SimTime {
            let mut sim = Sim::new(0);
            let nodes = mk_nodes(no_coalesce());
            nodes.b.borrow_mut().direct_dispatch = direct;
            let rx = install_recorder(&nodes.b);
            xmit(&nodes, &mut sim, Bytes::from(vec![1u8; 1400]));
            sim.run();
            let t = rx.frames.borrow()[0].0;
            if direct {
                assert_eq!(nodes.b.borrow().stats().bhs, 0);
            } else {
                assert_eq!(nodes.b.borrow().stats().bhs, 1);
            }
            t
        }
        let via_bh = deliver_time(false);
        let direct = deliver_time(true);
        assert!(direct < via_bh, "direct={direct} bh={via_bh}");
    }

    #[test]
    fn unregistered_ethertype_dropped_without_panic() {
        let mut sim = Sim::new(0);
        let nodes = mk_nodes(no_coalesce());
        // No handler registered on b.
        xmit(&nodes, &mut sim, Bytes::from(vec![1u8; 100]));
        sim.run();
        assert_eq!(nodes.b.borrow().stats().frames_received, 1);
    }

    #[test]
    fn burst_is_drained_with_fewer_interrupts_than_frames() {
        let mut sim = Sim::new(0);
        // Realistic coalescing.
        let nodes = mk_nodes(NicConfig::gigabit_standard());
        let rx = install_recorder(&nodes.b);
        for _ in 0..32 {
            xmit(&nodes, &mut sim, Bytes::from(vec![2u8; 1400]));
        }
        sim.run();
        assert_eq!(rx.frames.borrow().len(), 32);
        let irqs = nodes.b.borrow().stats().irqs;
        assert!(
            irqs < 32,
            "coalescing + in-routine draining should batch: {irqs} irqs"
        );
        assert!(irqs >= 1);
    }

    #[test]
    fn receive_stage_times_match_figure7_scale() {
        // A 1400-byte packet's driver receive stage should land in the
        // 10..20 us band the paper measures (Fig. 7a shows ~15 us).
        let mut sim = Sim::new(0);
        sim.trace = clic_sim::Trace::enabled();
        let nodes = mk_nodes(no_coalesce());
        install_recorder(&nodes.b);
        let skb = SkBuff::zero_copy(Bytes::new(), Bytes::from(vec![5u8; 1400])).with_trace(42);
        hard_start_xmit(
            &nodes.a,
            &mut sim,
            0,
            nodes.b_mac,
            EtherType::CLIC,
            skb,
            |_, ok| assert!(ok),
        );
        sim.run();
        let spans = sim.trace.spans_for(42).expect("all marks matched");
        let driver_rx = spans.iter().find(|s| s.stage == "driver_rx").unwrap();
        let d = driver_rx.duration();
        assert!(
            (SimDuration::from_us(10)..SimDuration::from_us(20)).contains(&d),
            "driver_rx stage = {d}"
        );
    }

    #[test]
    fn halted_node_drops_frames_and_resumes_cleanly() {
        let mut sim = Sim::new(0);
        let nodes = mk_nodes(no_coalesce());
        let rx = install_recorder(&nodes.b);
        nodes.b.borrow_mut().halt();
        assert!(nodes.b.borrow().is_halted());
        xmit(&nodes, &mut sim, Bytes::from(vec![1u8; 100]));
        sim.run();
        assert_eq!(
            rx.frames.borrow().len(),
            0,
            "a crash-stopped node must not dispatch frames"
        );
        assert_eq!(
            nodes.b.borrow().stats().irqs,
            0,
            "dead CPU services nothing"
        );

        nodes.b.borrow_mut().resume();
        xmit(&nodes, &mut sim, Bytes::from(vec![2u8; 100]));
        sim.run();
        let frames = rx.frames.borrow();
        assert_eq!(frames.len(), 1, "a resumed node receives again");
        let wire = [&frames[0].1.head[..], &frames[0].1.body[..]].concat();
        assert!(wire[12..].iter().all(|&b| b == 2));
    }

    #[test]
    fn tx_ring_full_reported_to_caller() {
        let mut sim = Sim::new(0);
        let mut cfg = no_coalesce();
        cfg.tx_ring = 1;
        let nodes = mk_nodes(cfg);
        install_recorder(&nodes.b);
        let results = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let r = results.clone();
            let skb = SkBuff::zero_copy(Bytes::new(), Bytes::from(vec![0u8; 1400]));
            hard_start_xmit(
                &nodes.a,
                &mut sim,
                0,
                nodes.b_mac,
                EtherType::CLIC,
                skb,
                move |_, ok| r.borrow_mut().push(ok),
            );
        }
        sim.run();
        let results = results.borrow();
        assert_eq!(results.len(), 3);
        assert!(results.contains(&false), "expected at least one refusal");
    }
}

#[cfg(test)]
mod host_ring_tests {
    use super::*;
    use crate::costs::OsCosts;
    use crate::kernel::PacketHandler;
    use bytes::Bytes;
    use clic_ethernet::{Link, LinkEnd};
    use clic_hw::{NicConfig, PciBus};
    use clic_sim::SimTime;

    struct Stamp {
        at: RefCell<Option<SimTime>>,
    }
    impl PacketHandler for Stamp {
        fn handle(&self, sim: &mut Sim, _: &Rc<RefCell<Kernel>>, _: usize, _: Frame) {
            *self.at.borrow_mut() = Some(sim.now());
        }
    }

    /// With host rings the driver's per-frame stage shrinks to ring
    /// bookkeeping — the NIC paid the PCI time before interrupting — so
    /// end-to-end delivery is faster than the busy-wait model even though
    /// the same bytes cross the same bus.
    #[test]
    fn host_rings_speed_up_delivery() {
        fn deliver(host_rings: bool) -> SimTime {
            let mut sim = Sim::new(0);
            let link = Link::gigabit();
            let mut cfg = NicConfig::gigabit_standard();
            cfg.coalesce_usecs = 0;
            cfg.coalesce_frames = 1;
            cfg.host_rings = host_rings;
            let a = Kernel::new(1, OsCosts::era_2002());
            let b = Kernel::new(2, OsCosts::era_2002());
            let nic_a = Nic::new(
                MacAddr::for_node(1, 0),
                cfg.clone(),
                PciBus::pci_33mhz_32bit(),
                link.clone(),
                LinkEnd::A,
            );
            let nic_b = Nic::new(
                MacAddr::for_node(2, 0),
                cfg,
                PciBus::pci_33mhz_32bit(),
                link,
                LinkEnd::B,
            );
            Nic::attach_to_link(&nic_a);
            Nic::attach_to_link(&nic_b);
            Kernel::add_device(&a, nic_a);
            Kernel::add_device(&b, nic_b);
            let stamp = Rc::new(Stamp {
                at: RefCell::new(None),
            });
            b.borrow_mut()
                .register_handler(EtherType::CLIC.0, stamp.clone());
            let skb = SkBuff::zero_copy(Bytes::new(), Bytes::from(vec![3u8; 1400]));
            hard_start_xmit(
                &a,
                &mut sim,
                0,
                MacAddr::for_node(2, 0),
                EtherType::CLIC,
                skb,
                |_, ok| assert!(ok),
            );
            sim.run();
            let at = stamp.at.borrow().expect("frame must be dispatched");
            at
        }
        let busy_wait = deliver(false);
        let rings = deliver(true);
        // Both models pay the PCI transfer; the ring model additionally
        // drops the in-IRQ busy wait for it, so it must not be slower.
        assert!(
            rings <= busy_wait,
            "host rings {rings} should not lose to busy-wait {busy_wait}"
        );
    }
}
