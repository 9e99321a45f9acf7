//! Store-and-forward Ethernet switch.
//!
//! Learns source MACs, forwards unicast to the learned port, floods
//! broadcast/multicast/unknown destinations, and tail-drops when an output
//! port's transmit backlog exceeds its queue limit. A fixed forwarding
//! latency models the lookup + store-and-forward pipeline of the early-2000s
//! GbE switches in the paper's testbed.
//!
//! For multi-switch fabrics (see [`crate::topology`]) the switch also
//! supports statically *programmed* routes ([`Switch::program_mac`]) that
//! take precedence over learning, a restricted flood membership
//! ([`Switch::set_flood_ports`]) so broadcast/multicast follow a loop-free
//! spanning tree instead of storming redundant trunks, and trunk-port
//! marking ([`Switch::mark_trunk`]) feeding the `eth.fabric.*` counters.
//! None of these change behaviour until a fabric builder calls them — a
//! standalone switch forwards exactly as before.
//!
//! The switch can additionally mark congestion instead of only dropping:
//! [`Switch::try_set_mark_threshold`] arms an ECN-style scheme where a CLIC
//! frame enqueued while the output backlog is at or above the threshold has
//! its congestion-experienced bit set (bit 7 of the first payload byte, the
//! high bit of the CLIC packet-type octet) rather than being dropped. The
//! mark rewrites the frame's head — the 12-byte CLIC header — and leaves
//! the data in its body as it is, uncopied. Off by default — an unarmed
//! switch forwards frames byte-identically.

use crate::frame::Frame;
use crate::link::{Link, LinkEnd};
use crate::mac::{EtherType, MacAddr};
use bytes::{BufMut, BytesMut};
use clic_sim::catalog::metric_id;
use clic_sim::{Layer, MetricId, Sim, SimDuration};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

/// Interned metric ids — the forwarding path records per frame, so names
/// are resolved against the catalog at compile time. Drops, marks and
/// pruned flood copies are counted only here: the run's registry is their
/// one store.
const QUEUE_DEPTH: MetricId = metric_id("eth.switch.queue_depth");
const DROPS: MetricId = metric_id("eth.switch.drops");
const ECN_MARKS: MetricId = metric_id("eth.switch.ecn_marks");
const TRUNK_TX: MetricId = metric_id("eth.fabric.trunk_tx_frames");
const FLOOD_PRUNED: MetricId = metric_id("eth.fabric.flood_pruned");

/// Congestion-experienced bit: the high bit of the CLIC packet-type octet
/// (payload byte 0 of a CLIC-EtherType frame). Mirrors `clic_core::CE_BIT`;
/// the ethernet crate sits below clic-core in the dependency graph, so the
/// wire-format constants are restated here rather than imported.
const CE_BIT: u8 = 0x80;

/// The packet-type bits of the same octet (`clic_core::header::PTYPE_MASK`):
/// bit 6 marks a message's first packet and bit 7 is [`CE_BIT`].
const PTYPE_MASK: u8 = 0x3f;

/// Switch configuration rejected at set-time.
///
/// The ethernet layer's analogue of `ClicError::Config`: construction-time
/// validation so a nonsensical fabric fails loudly instead of silently
/// never marking (threshold above capacity means every would-be mark is a
/// tail drop first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchConfigError(String);

impl fmt::Display for SwitchConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "switch config: {}", self.0)
    }
}

impl std::error::Error for SwitchConfigError {}

struct Port {
    link: Rc<RefCell<Link>>,
    end: LinkEnd,
}

/// A learning, flooding, tail-dropping switch.
pub struct Switch {
    ports: Vec<Port>,
    table: BTreeMap<MacAddr, usize>,
    static_table: BTreeMap<MacAddr, usize>,
    flood_ports: Option<BTreeSet<usize>>,
    trunk_ports: BTreeSet<usize>,
    forwarding_delay: SimDuration,
    queue_limit: usize,
    mark_threshold: Option<usize>,
    frames_forwarded: u64,
    frames_flooded: u64,
}

impl Switch {
    /// Create a switch. `forwarding_delay` is charged per forwarded frame;
    /// `queue_limit` bounds each output port's transmit backlog (frames).
    pub fn new(forwarding_delay: SimDuration, queue_limit: usize) -> Rc<RefCell<Switch>> {
        assert!(queue_limit > 0);
        Rc::new(RefCell::new(Switch {
            ports: Vec::new(),
            table: BTreeMap::new(),
            static_table: BTreeMap::new(),
            flood_ports: None,
            trunk_ports: BTreeSet::new(),
            forwarding_delay,
            queue_limit,
            mark_threshold: None,
            frames_forwarded: 0,
            frames_flooded: 0,
        }))
    }

    /// Typical early-2000s GbE store-and-forward switch: ~4 µs forwarding,
    /// 128-frame output queues.
    pub fn gigabit_default() -> Rc<RefCell<Switch>> {
        Self::new(SimDuration::from_us(4), 128)
    }

    /// Attach the switch to `end` of `link` and return the port index. The
    /// switch registers itself as that link end's receive handler. The
    /// handler holds the switch weakly (the port holds the link, so a
    /// strong one would cycle): whoever built the switch must keep it
    /// while its links deliver.
    pub fn attach_port(
        switch: &Rc<RefCell<Switch>>,
        link: Rc<RefCell<Link>>,
        end: LinkEnd,
    ) -> usize {
        let idx = switch.borrow().ports.len();
        let sw = Rc::downgrade(switch);
        link.borrow_mut().attach(
            end,
            Rc::new(move |sim: &mut Sim, frame: Frame| {
                let sw = sw
                    .upgrade()
                    // lint:allow(no-unwrap, reason="the cluster or fabric owns every switch for as long as its links carry frames")
                    .expect("switch dropped while its link delivers");
                Switch::on_frame(&sw, sim, idx, frame);
            }),
        );
        switch.borrow_mut().ports.push(Port { link, end });
        idx
    }

    /// Number of attached ports.
    // lint:allow(dead-fn, reason="the cluster builder tests in crates/cluster/src/builder.rs read it")
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Frames forwarded to a single learned port.
    pub fn frames_forwarded(&self) -> u64 {
        self.frames_forwarded
    }

    /// Frames flooded to all-but-ingress ports.
    pub fn frames_flooded(&self) -> u64 {
        self.frames_flooded
    }

    /// Arm ECN-style marking: a CLIC frame enqueued while the output backlog
    /// is at or above `threshold` frames gets its congestion-experienced bit
    /// set instead of passing through untouched. The threshold must leave
    /// room below the queue limit — marking a frame the queue is about to
    /// tail-drop anyway signals nothing.
    pub fn try_set_mark_threshold(&mut self, threshold: usize) -> Result<(), SwitchConfigError> {
        if threshold == 0 {
            return Err(SwitchConfigError(
                "mark_threshold must be at least 1 (0 would mark every frame)".into(),
            ));
        }
        if threshold >= self.queue_limit {
            return Err(SwitchConfigError(format!(
                "mark_threshold ({threshold}) must be below queue_limit ({}): \
                 at or above the limit the frame is tail-dropped, never marked",
                self.queue_limit
            )));
        }
        self.mark_threshold = Some(threshold);
        Ok(())
    }

    /// Configured ECN mark threshold, if armed.
    // lint:allow(dead-fn, reason="the cluster builder tests in crates/cluster/src/builder.rs read it")
    pub fn mark_threshold(&self) -> Option<usize> {
        self.mark_threshold
    }

    /// Learned location of a MAC, if any.
    #[cfg(test)]
    pub fn learned_port(&self, mac: MacAddr) -> Option<usize> {
        self.table.get(&mac).copied()
    }

    /// Install a static forwarding entry: unicast frames for `mac` egress
    /// `port`, regardless of anything source-MAC learning picks up. Fabric
    /// builders program the whole host table up front so forwarding is a
    /// pure function of the topology (deterministic ECMP), never of traffic
    /// history.
    pub fn program_mac(&mut self, mac: MacAddr, port: usize) {
        assert!(port < self.ports.len(), "program_mac: no such port");
        assert!(mac.is_unicast(), "static routes are per-station");
        self.static_table.insert(mac, port);
    }

    /// Statically programmed route for a MAC, if any.
    #[cfg(test)]
    pub fn static_route(&self, mac: MacAddr) -> Option<usize> {
        self.static_table.get(&mac).copied()
    }

    /// Restrict flooding (broadcast/multicast/unknown unicast) to `ports`.
    /// A fabric builder passes the host ports plus the trunk ports on a
    /// spanning tree of the switch graph, which makes flooding loop-free by
    /// construction — redundant trunks never replicate a flood. Copies that
    /// the membership suppresses are counted in `eth.fabric.flood_pruned`.
    pub fn set_flood_ports(&mut self, ports: &[usize]) {
        assert!(
            ports.iter().all(|&p| p < self.ports.len()),
            "set_flood_ports: no such port"
        );
        self.flood_ports = Some(ports.iter().copied().collect());
    }

    /// Mark `port` as a switch-to-switch trunk so fabric traffic shows up
    /// in the `eth.fabric.trunk_tx_frames` counter.
    pub fn mark_trunk(&mut self, port: usize) {
        assert!(port < self.ports.len(), "mark_trunk: no such port");
        self.trunk_ports.insert(port);
    }

    fn on_frame(switch: &Rc<RefCell<Switch>>, sim: &mut Sim, ingress: usize, frame: Frame) {
        let delay = {
            let mut sw = switch.borrow_mut();
            sw.table.insert(frame.src, ingress);
            sw.forwarding_delay
        };
        let sw2 = switch.clone();
        sim.schedule_in(delay, move |sim| {
            Switch::forward(&sw2, sim, ingress, frame);
        });
    }

    fn forward(switch: &Rc<RefCell<Switch>>, sim: &mut Sim, ingress: usize, frame: Frame) {
        enum Decision {
            Unicast(usize),
            Flood(Vec<usize>),
            Drop,
        }
        let (decision, pruned) = {
            let sw = switch.borrow();
            let flood = || {
                let eligible: Vec<usize> = (0..sw.ports.len())
                    .filter(|&p| {
                        p != ingress && sw.flood_ports.as_ref().is_none_or(|set| set.contains(&p))
                    })
                    .collect();
                let pruned = sw.ports.len() - 1 - eligible.len();
                (Decision::Flood(eligible), pruned as u64)
            };
            if frame.dst.is_unicast() {
                // Statically programmed routes (fabric provisioning) win
                // over anything learned from traffic.
                let port = sw
                    .static_table
                    .get(&frame.dst)
                    .or_else(|| sw.table.get(&frame.dst))
                    .copied();
                match port {
                    Some(p) if p == ingress => (Decision::Drop, 0),
                    Some(p) => (Decision::Unicast(p), 0),
                    None => flood(),
                }
            } else {
                flood()
            }
        };
        if pruned > 0 {
            sim.record(FLOOD_PRUNED, pruned);
        }
        match decision {
            Decision::Drop => {}
            Decision::Unicast(p) => {
                switch.borrow_mut().frames_forwarded += 1;
                Switch::egress(switch, sim, p, frame);
            }
            Decision::Flood(ports) => {
                switch.borrow_mut().frames_flooded += 1;
                for p in ports {
                    Switch::egress(switch, sim, p, frame.clone());
                }
            }
        }
    }

    fn egress(switch: &Rc<RefCell<Switch>>, sim: &mut Sim, port: usize, frame: Frame) {
        let (link, end, depth, full, trunk, mark) = {
            let sw = switch.borrow();
            let p = &sw.ports[port];
            let depth = p.link.borrow().tx_backlog(p.end);
            (
                p.link.clone(),
                p.end,
                depth,
                depth >= sw.queue_limit,
                sw.trunk_ports.contains(&port),
                sw.mark_threshold.is_some_and(|t| depth >= t),
            )
        };
        if trunk {
            sim.record(TRUNK_TX, 1);
        }
        // Queue occupancy at the instant of the forwarding decision: the
        // catalog sends it to the peak gauge (the congestion headline), the
        // histogram (its shape) and the timeline (its trajectory).
        sim.record(QUEUE_DEPTH, depth as u64);
        if full {
            sim.record(DROPS, 1);
            sim.trace
                .instant(sim.now(), Layer::Eth, "switch_drop", frame.trace);
            return;
        }
        let frame = if mark && Switch::markable(&frame) {
            sim.record(ECN_MARKS, 1);
            sim.trace
                .instant(sim.now(), Layer::Eth, "switch_mark", frame.trace);
            Switch::set_ce(frame)
        } else {
            frame
        };
        Link::transmit(&link, sim, end, frame);
    }

    /// Whether the frame is a data-bearing CLIC packet the marking scheme
    /// applies to. ACKs (ptype 2) are the feedback channel itself and
    /// node-internal packets (ptype 5) never cross a switch in earnest, so
    /// neither carries a mark; everything else CLIC does.
    fn markable(frame: &Frame) -> bool {
        if frame.ethertype != EtherType::CLIC {
            return false;
        }
        matches!(
            frame
                .head
                .first()
                .or(frame.body.first())
                .map(|b| b & PTYPE_MASK),
            Some(1 | 3 | 4 | 6)
        )
    }

    /// Return the frame with its congestion-experienced bit set — the
    /// simulated analogue of the store-and-forward switch rewriting the
    /// octet as it serializes the frame out. Payload buffers are immutable
    /// and shared, so the mark writes a new head: a copy of the CLIC
    /// header, or, for a frame built in one piece, the marked first byte
    /// split off the body. The data is never copied.
    fn set_ce(mut frame: Frame) -> Frame {
        let (first, rest) = if frame.head.is_empty() {
            (frame.body.slice(..1), frame.body.slice(1..))
        } else {
            (frame.head.clone(), frame.body.clone())
        };
        let mut head = BytesMut::with_capacity(first.len());
        head.put_slice(&first);
        head[0] |= CE_BIT;
        frame.head = head.freeze();
        frame.body = rest;
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::EtherType;
    use bytes::Bytes;
    use clic_sim::SimTime;
    use proptest::prelude::*;

    /// A frame's wire image: head, then body.
    fn wire(f: &Frame) -> Vec<u8> {
        [&f.head[..], &f.body[..]].concat()
    }

    /// Three stations on a switch; station i is end A of link i, the switch
    /// holds end B.
    struct Net {
        links: Vec<Rc<RefCell<Link>>>,
        switch: Rc<RefCell<Switch>>,
        rx: Vec<Rc<RefCell<Vec<(SimTime, Frame)>>>>,
    }

    fn mk_net(n: usize) -> Net {
        let switch = Switch::new(SimDuration::from_us(4), 4);
        let mut links = Vec::new();
        let mut rx = Vec::new();
        for _ in 0..n {
            let link = Link::new(1_000_000_000, SimDuration::ZERO);
            let log: Rc<RefCell<Vec<(SimTime, Frame)>>> = Rc::new(RefCell::new(Vec::new()));
            let l = log.clone();
            link.borrow_mut().attach(
                LinkEnd::A,
                Rc::new(move |sim: &mut Sim, f: Frame| {
                    l.borrow_mut().push((sim.now(), f));
                }),
            );
            Switch::attach_port(&switch, link.clone(), LinkEnd::B);
            links.push(link);
            rx.push(log);
        }
        Net { links, switch, rx }
    }

    fn station(i: usize) -> MacAddr {
        MacAddr::for_node(i as u32, 0)
    }

    fn send(net: &Net, sim: &mut Sim, from: usize, dst: MacAddr, tag: u8) {
        let f = Frame::new(
            dst,
            station(from),
            EtherType::CLIC,
            Bytes::from(vec![tag; 100]),
        );
        Link::transmit(&net.links[from], sim, LinkEnd::A, f);
    }

    #[test]
    fn unknown_unicast_floods_then_learns() {
        let mut sim = Sim::new(0);
        let net = mk_net(3);
        // 0 -> 1: dst unknown, flood to 1 and 2.
        send(&net, &mut sim, 0, station(1), 1);
        sim.run();
        assert_eq!(net.rx[1].borrow().len(), 1);
        assert_eq!(net.rx[2].borrow().len(), 1);
        assert_eq!(net.rx[0].borrow().len(), 0);
        assert_eq!(net.switch.borrow().learned_port(station(0)), Some(0));

        // 1 -> 0: dst learned, unicast only to port 0.
        send(&net, &mut sim, 1, station(0), 2);
        sim.run();
        assert_eq!(net.rx[0].borrow().len(), 1);
        assert_eq!(net.rx[2].borrow().len(), 1, "no second flood to 2");
        assert_eq!(net.switch.borrow().frames_forwarded(), 1);
        assert_eq!(net.switch.borrow().frames_flooded(), 1);
    }

    #[test]
    fn broadcast_floods_all_but_ingress() {
        let mut sim = Sim::new(0);
        let net = mk_net(4);
        send(&net, &mut sim, 2, MacAddr::BROADCAST, 9);
        sim.run();
        for (i, log) in net.rx.iter().enumerate() {
            let expect = usize::from(i != 2);
            assert_eq!(log.borrow().len(), expect, "port {i}");
        }
    }

    #[test]
    fn multicast_floods() {
        let mut sim = Sim::new(0);
        let net = mk_net(3);
        send(&net, &mut sim, 0, MacAddr::multicast_group(5), 3);
        sim.run();
        assert_eq!(net.rx[1].borrow().len(), 1);
        assert_eq!(net.rx[2].borrow().len(), 1);
    }

    #[test]
    fn frame_to_ingress_port_is_dropped() {
        let mut sim = Sim::new(0);
        let net = mk_net(2);
        // Teach the switch where station 0 lives.
        send(&net, &mut sim, 0, station(1), 1);
        sim.run();
        // Station 0 sends to itself (hairpin): learned on same port — drop.
        send(&net, &mut sim, 0, station(0), 2);
        sim.run();
        assert_eq!(net.rx[0].borrow().len(), 0);
    }

    #[test]
    fn forwarding_delay_applied() {
        let mut sim = Sim::new(0);
        let net = mk_net(2);
        send(&net, &mut sim, 0, station(1), 1);
        sim.run();
        // 100 B payload -> 138 wire bytes = 1104 ns per hop; store-and-
        // forward: arrive at 1104, +4000 forwarding, +1104 egress = 6208.
        assert_eq!(net.rx[1].borrow()[0].0, SimTime::from_ns(6_208));
    }

    #[test]
    fn payload_integrity_through_switch() {
        let mut sim = Sim::new(0);
        let net = mk_net(2);
        let payload = Bytes::from((0..=255u8).collect::<Vec<_>>());
        let f = Frame::new(station(1), station(0), EtherType::CLIC, payload.clone());
        Link::transmit(&net.links[0], &mut sim, LinkEnd::A, f);
        sim.run();
        assert_eq!(wire(&net.rx[1].borrow()[0].1), payload[..]);
    }

    #[test]
    fn static_route_beats_learning() {
        let mut sim = Sim::new(0);
        let net = mk_net(3);
        // Learning says station 1 is on port 1 …
        send(&net, &mut sim, 1, station(2), 1);
        sim.run();
        assert_eq!(net.switch.borrow().learned_port(station(1)), Some(1));
        // … but a static entry pins it to port 2: the frame follows the
        // programmed route, not the learned one.
        net.switch.borrow_mut().program_mac(station(1), 2);
        assert_eq!(net.switch.borrow().static_route(station(1)), Some(2));
        send(&net, &mut sim, 0, station(1), 2);
        sim.run();
        assert_eq!(net.rx[2].borrow().len(), 2, "flood + static route");
        assert_eq!(net.rx[1].borrow().len(), 0);
    }

    #[test]
    fn flood_membership_prunes_ports() {
        let mut sim = Sim::new(0);
        let net = mk_net(4);
        // Only ports 1 and 2 may flood.
        net.switch.borrow_mut().set_flood_ports(&[1, 2]);
        send(&net, &mut sim, 0, MacAddr::BROADCAST, 7);
        sim.run();
        assert_eq!(net.rx[1].borrow().len(), 1);
        assert_eq!(net.rx[2].borrow().len(), 1);
        assert_eq!(net.rx[3].borrow().len(), 0, "pruned port stays silent");
        assert_eq!(sim.metrics.counter("eth.fabric.flood_pruned"), 1);
    }

    /// Occupy the switch→station direction of `link` with `n` jumbo frames.
    /// Each takes 72.3 µs to serialize, so a 100 B test frame egressing at
    /// ~5.1 µs sees an output backlog of exactly `n` — a deterministic way
    /// to pin the queue depth at the instant of the marking decision.
    fn preload_egress(net: &Net, sim: &mut Sim, port: usize, n: usize) {
        for _ in 0..n {
            let jumbo = Frame::new(
                station(port),
                station(9),
                EtherType::CLIC,
                Bytes::from(vec![0u8; 9000]),
            );
            Link::transmit(&net.links[port], sim, LinkEnd::B, jumbo);
        }
    }

    /// The single 100 B test frame out of a receive log that also holds
    /// preloaded jumbos.
    fn test_frame(net: &Net, port: usize) -> Option<Frame> {
        let log = net.rx[port].borrow();
        let mut hits = log.iter().filter(|(_, f)| f.payload_len() == 100);
        let found = hits.next().map(|(_, f)| f.clone());
        assert!(hits.next().is_none(), "expected at most one test frame");
        found
    }

    #[test]
    fn mark_boundary_is_depth_at_least_threshold() {
        // queue_limit 4, threshold 2: depth 1 passes clean, depth 2 (exactly
        // the threshold) marks, depth 3 still marks.
        for (preload, expect_marked) in [(1usize, false), (2, true), (3, true)] {
            let mut sim = Sim::new(0);
            let net = mk_net(2);
            net.switch.borrow_mut().try_set_mark_threshold(2).unwrap();
            preload_egress(&net, &mut sim, 1, preload);
            send(&net, &mut sim, 0, station(1), 1); // ptype 1 = Data
            sim.run();
            let f = test_frame(&net, 1).expect("frame delivered");
            assert_eq!(wire(&f)[0] & 0x80 != 0, expect_marked, "preload={preload}");
            assert_eq!(
                sim.metrics.counter("eth.switch.ecn_marks"),
                u64::from(expect_marked),
                "preload={preload}"
            );
        }
    }

    #[test]
    fn tail_drop_at_exactly_capacity_beats_marking() {
        // Depth 4 == queue_limit: the frame is dropped, never marked — the
        // off-by-one between "mark zone" [threshold, limit) and the drop at
        // the limit itself.
        let mut sim = Sim::new(0);
        let net = mk_net(2);
        net.switch.borrow_mut().try_set_mark_threshold(2).unwrap();
        preload_egress(&net, &mut sim, 1, 4);
        send(&net, &mut sim, 0, station(1), 1);
        sim.run();
        assert_eq!(sim.metrics.counter("eth.switch.drops"), 1);
        assert_eq!(sim.metrics.counter("eth.switch.ecn_marks"), 0);
        assert!(test_frame(&net, 1).is_none(), "dropped frame not delivered");
    }

    #[test]
    fn acks_cross_congested_queue_unmarked() {
        // ptype 2 (Ack) is the feedback channel — it rides through the mark
        // zone untouched so echoes are never self-suppressed.
        let mut sim = Sim::new(0);
        let net = mk_net(2);
        net.switch.borrow_mut().try_set_mark_threshold(2).unwrap();
        preload_egress(&net, &mut sim, 1, 3);
        send(&net, &mut sim, 0, station(1), 2); // ptype 2 = Ack
        sim.run();
        let f = test_frame(&net, 1).expect("ack delivered");
        assert_eq!(wire(&f)[0], 2, "ack payload untouched");
        assert_eq!(sim.metrics.counter("eth.switch.ecn_marks"), 0);
    }

    #[test]
    fn mark_threshold_rejects_degenerate_values() {
        let sw = Switch::new(SimDuration::from_us(4), 4);
        assert!(sw.borrow_mut().try_set_mark_threshold(0).is_err());
        let at_limit = sw.borrow_mut().try_set_mark_threshold(4).unwrap_err();
        assert!(at_limit.to_string().contains("queue_limit"));
        assert!(sw.borrow_mut().try_set_mark_threshold(5).is_err());
        assert_eq!(
            sw.borrow().mark_threshold(),
            None,
            "rejected sets leave it unarmed"
        );
        sw.borrow_mut().try_set_mark_threshold(3).unwrap();
        assert_eq!(sw.borrow().mark_threshold(), Some(3));
    }

    #[test]
    fn output_queue_tail_drop() {
        let mut sim = Sim::new(0);
        let net = mk_net(3); // queue_limit = 4
                             // Teach the switch all locations first.
        for i in 0..3 {
            send(&net, &mut sim, i, station((i + 1) % 3), 0);
        }
        sim.run();
        let before = net.rx[1].borrow().len();
        // Two ingress ports blast the same egress port at twice its drain
        // rate: the 4-frame output queue overflows.
        for _ in 0..20 {
            for &src in &[0usize, 2] {
                let f = Frame::new(
                    station(1),
                    station(src),
                    EtherType::CLIC,
                    Bytes::from(vec![1u8; 1500]),
                );
                Link::transmit(&net.links[src], &mut sim, LinkEnd::A, f);
            }
        }
        sim.run();
        let delivered = (net.rx[1].borrow().len() - before) as u64;
        let dropped = sim.metrics.counter("eth.switch.drops");
        assert_eq!(delivered + dropped, 40);
        assert!(dropped > 0, "expected tail drops, delivered={delivered}");
    }

    proptest! {
        /// However a payload is split between head and body (an empty head
        /// and an empty body included), the frame sizes, serializes, reads
        /// its headers and takes a CE mark exactly as a one-piece frame
        /// holding the concatenation does — and neither the header split
        /// (whatever the head holds past the header included) nor the mark
        /// copies the body.
        #[test]
        fn any_head_body_split_matches_the_concatenation(
            payload in proptest::collection::vec(any::<u8>(), 0..9_101),
            ptype in 0u8..8,
            cut in any::<usize>(),
            shape in 0u8..3,
        ) {
            let mut payload = payload;
            if let Some(b) = payload.first_mut() {
                *b = ptype | (*b & 0xc0);
            }
            let at = match shape {
                0 => 0,
                1 => payload.len(),
                _ => cut % (payload.len() + 1),
            };
            let whole = Bytes::from(payload.clone());
            let one = Frame::new(station(1), station(0), EtherType::CLIC, whole.clone());
            let two = Frame::gather(
                station(1),
                station(0),
                EtherType::CLIC,
                Bytes::copy_from_slice(&payload[..at]),
                whole.slice(at..),
            );
            prop_assert_eq!(wire(&two), payload.clone());
            prop_assert_eq!(two.payload_len(), one.payload_len());
            prop_assert_eq!(two.frame_bytes(), one.frame_bytes());
            prop_assert_eq!(two.wire_bytes(), one.wire_bytes());
            prop_assert_eq!(two.wire_time(1_000_000_000), one.wire_time(1_000_000_000));
            fn check<const N: usize>(one: &Frame, two: &Frame) {
                let (a, b) = (one.split_header::<N>(), two.split_header::<N>());
                assert_eq!(a.is_some(), b.is_some(), "N={N}");
                let (Some((ha, ra)), Some((hb, rb))) = (a, b) else { return };
                assert_eq!(ha, hb, "N={N}");
                assert_eq!(ra, rb, "N={N}");
                if !rb.body.is_empty() {
                    let skip = N.saturating_sub(two.head.len());
                    assert_eq!(rb.body.as_ptr(), two.body[skip..].as_ptr(), "body copied, N={N}");
                }
                if two.head.len() > N {
                    assert_eq!(rb.head.as_ptr(), two.head[N..].as_ptr(), "head copied, N={N}");
                }
            }
            check::<1>(&one, &two);
            check::<8>(&one, &two);
            check::<12>(&one, &two);
            check::<40>(&one, &two);
            prop_assert_eq!(Switch::markable(&two), Switch::markable(&one));
            if !payload.is_empty() {
                let body_at = two.body.as_ptr();
                let head_was_empty = two.head.is_empty();
                let (one, two) = (Switch::set_ce(one), Switch::set_ce(two));
                prop_assert_eq!(wire(&two), wire(&one));
                prop_assert_eq!(wire(&two)[0], payload[0] | CE_BIT);
                if !two.body.is_empty() {
                    let moved = usize::from(head_was_empty);
                    prop_assert_eq!(two.body.as_ptr(), body_at.wrapping_add(moved));
                }
            }
        }
    }
}
