//! Full-duplex point-to-point links with composable fault injection.
//!
//! A link serializes frames per direction (modeling the transmit FIFO of
//! the attached station), applies a propagation delay, and can inject
//! faults according to a per-direction [`FaultPlan`]: loss (including
//! Gilbert–Elliott bursty loss), bit corruption (the frame is still
//! delivered and costs wire time; the receiving MAC discards it on FCS
//! check), bounded reordering, duplication, and scheduled outages.
//! Delivery calls the handler registered at the far end.
//!
//! All randomness comes from the simulator's deterministic RNG, so a run
//! is a pure function of configuration and seed. A plan whose
//! probabilistic knobs are all zero draws nothing from the RNG, which
//! keeps clean-link runs byte-identical with and without the fault
//! machinery compiled in.

use crate::frame::Frame;
use crate::link::private::Direction;
use clic_sim::catalog::metric_id;
use clic_sim::{Layer, MetricId, Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Interned metric ids — transmit runs once per frame, so names are
/// resolved against the catalog at compile time.
const FRAME_BYTES: MetricId = metric_id("eth.link.frame_bytes");
const TX_BYTES: MetricId = metric_id("eth.link.tx_bytes");
const FRAMES_LOST: MetricId = metric_id("eth.link.frames_lost");
const CORRUPT: MetricId = metric_id("eth.corrupt");
const DUPLICATES: MetricId = metric_id("eth.duplicates");
const REORDERS: MetricId = metric_id("eth.reorders");

/// Callback invoked when a frame fully arrives at a link end.
pub type FrameHandler = Rc<dyn Fn(&mut Sim, Frame)>;

/// Which end of the link a station is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEnd {
    /// First end.
    A,
    /// Second end.
    B,
}

impl LinkEnd {
    /// The opposite end.
    pub fn other(self) -> LinkEnd {
        match self {
            LinkEnd::A => LinkEnd::B,
            LinkEnd::B => LinkEnd::A,
        }
    }
}

/// Frame loss injection.
///
/// # Examples
///
/// ```
/// use clic_ethernet::LossModel;
///
/// // Memoryless 0.5 % loss — every frame flips the same weighted coin.
/// let uniform = LossModel::Bernoulli(0.005);
///
/// // Bursty loss with the same 0.5 % long-run average: the link spends
/// // most of its time in a lossless "good" state, occasionally enters a
/// // "bad" state where every frame dies, and leaves it again with
/// // probability 0.25 per frame (mean burst length 4 frames).
/// let p = 0.005_f64;
/// let bursty = LossModel::GilbertElliott {
///     p_enter_burst: 0.25 * p / (1.0 - p),
///     p_exit_burst: 0.25,
///     loss_good: 0.0,
///     loss_bad: 1.0,
/// };
/// assert_ne!(uniform, bursty);
/// assert_eq!(LossModel::default(), LossModel::None);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum LossModel {
    /// Lossless (the common cluster case).
    #[default]
    None,
    /// Independent drop probability per frame.
    Bernoulli(f64),
    /// Drop every n-th frame deterministically (1-based; `EveryNth(3)`
    /// drops frames 3, 6, 9…). Deterministic, for reliability tests.
    EveryNth(u64),
    /// Two-state Gilbert–Elliott bursty loss. Each frame first resolves
    /// the Markov state (good ↔ bad), then drops with that state's loss
    /// probability. The classic Gilbert model is `loss_good: 0.0,
    /// loss_bad: 1.0`; the stationary loss rate is then
    /// `p_enter_burst / (p_enter_burst + p_exit_burst)` and the mean
    /// burst length is `1 / p_exit_burst` frames.
    GilbertElliott {
        /// Per-frame probability of moving good → bad.
        p_enter_burst: f64,
        /// Per-frame probability of moving bad → good.
        p_exit_burst: f64,
        /// Drop probability while in the good state.
        loss_good: f64,
        /// Drop probability while in the bad state.
        loss_bad: f64,
    },
}

/// Per-direction fault injection plan for a [`Link`].
///
/// Faults compose: a frame that survives the loss model may still be
/// corrupted, duplicated, or held back (reordered). Probabilistic knobs
/// set to `0.0` consume no RNG draws, so the default plan leaves a run's
/// event and RNG sequence untouched.
///
/// Fault semantics:
///
/// * `loss` — the frame disappears after serialization (it still cost
///   wire time on the sender side).
/// * `corrupt` — the frame is delivered with [`Frame::fcs_corrupt`] set;
///   the receiving NIC discards it on FCS verification, so the wire and
///   propagation time are paid but no payload arrives.
/// * `duplicate` — a second copy arrives one wire-time after the first.
/// * `reorder` — the frame is held for `reorder_hold` extra delay, so
///   later frames can overtake it.
/// * `outages` — half-open `[start, end)` windows in which every frame
///   in this direction is dropped (link flaps / cable pulls).
///
/// # Examples
///
/// ```
/// use clic_ethernet::{FaultPlan, Link, LinkEnd, LossModel};
/// use clic_sim::{SimDuration, SimTime};
///
/// let plan = FaultPlan {
///     loss: LossModel::Bernoulli(0.01),
///     corrupt: 0.001,
///     duplicate: 0.0005,
///     reorder: 0.002,
///     reorder_hold: SimDuration::from_us(50),
///     outages: vec![(SimTime::from_us(10_000), SimTime::from_us(12_000))],
/// };
/// let link = Link::gigabit();
/// link.borrow_mut().set_faults(LinkEnd::A, plan.clone());
/// assert_eq!(*link.borrow().faults(LinkEnd::A), plan);
/// assert_eq!(*link.borrow().faults(LinkEnd::B), FaultPlan::default());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Frame loss model (applied first).
    pub loss: LossModel,
    /// Probability of delivering a frame with a bad FCS.
    pub corrupt: f64,
    /// Probability of delivering a frame twice.
    pub duplicate: f64,
    /// Probability of holding a frame back by `reorder_hold`.
    pub reorder: f64,
    /// Extra delay applied to held frames.
    pub reorder_hold: SimDuration,
    /// Scheduled `[start, end)` outage windows (all frames dropped).
    pub outages: Vec<(SimTime, SimTime)>,
}

mod private {
    use clic_sim::SimTime;

    #[derive(Debug, Default)]
    pub struct Direction {
        pub busy_until: SimTime,
        pub in_flight: usize,
        pub frames_offered: u64,
        /// Gilbert–Elliott Markov state for this direction.
        pub in_burst: bool,
    }
}

/// What the fault plan decided for one frame.
enum Fate {
    Lost,
    Deliver {
        corrupt: bool,
        duplicate: bool,
        hold: SimDuration,
    },
}

/// A full-duplex link.
pub struct Link {
    bits_per_sec: u64,
    propagation: SimDuration,
    faults_a_to_b: FaultPlan,
    faults_b_to_a: FaultPlan,
    a_to_b: Direction,
    b_to_a: Direction,
    handler_a: Option<FrameHandler>,
    handler_b: Option<FrameHandler>,
}

impl Link {
    /// Create a link of the given bandwidth and propagation delay.
    pub fn new(bits_per_sec: u64, propagation: SimDuration) -> Rc<RefCell<Link>> {
        assert!(bits_per_sec > 0);
        Rc::new(RefCell::new(Link {
            bits_per_sec,
            propagation,
            faults_a_to_b: FaultPlan::default(),
            faults_b_to_a: FaultPlan::default(),
            a_to_b: Direction::default(),
            b_to_a: Direction::default(),
            handler_a: None,
            handler_b: None,
        }))
    }

    /// A 1 Gb/s link with sub-µs propagation — the paper's testbed cabling.
    pub fn gigabit() -> Rc<RefCell<Link>> {
        Self::new(1_000_000_000, SimDuration::from_ns(500))
    }

    /// Install a full fault plan for one direction (`from` names the
    /// transmitting end).
    pub fn set_faults(&mut self, from: LinkEnd, plan: FaultPlan) {
        *self.plan_mut(from) = plan;
    }

    /// Schedule an additional `[start, end)` outage window for one
    /// direction (`from` names the transmitting end), preserving whatever
    /// fault plan is already installed.
    pub fn add_outage(&mut self, from: LinkEnd, start: SimTime, end: SimTime) {
        assert!(start < end, "outage window must be non-empty");
        self.plan_mut(from).outages.push((start, end));
    }

    /// Flap the link: every frame in *both* directions is dropped during
    /// `[start, end)` — a cable pull or switch-port down/up cycle. Layered
    /// on top of the existing fault plans.
    pub fn flap(&mut self, start: SimTime, end: SimTime) {
        self.add_outage(LinkEnd::A, start, end);
        self.add_outage(LinkEnd::B, start, end);
    }

    /// The fault plan currently applied to frames transmitted by `from`.
    // lint:allow(dead-fn, reason="the FaultPlan doctest and the crates/cluster builder and lifecycle tests read it")
    pub fn faults(&self, from: LinkEnd) -> &FaultPlan {
        match from {
            LinkEnd::A => &self.faults_a_to_b,
            LinkEnd::B => &self.faults_b_to_a,
        }
    }

    fn plan_mut(&mut self, from: LinkEnd) -> &mut FaultPlan {
        match from {
            LinkEnd::A => &mut self.faults_a_to_b,
            LinkEnd::B => &mut self.faults_b_to_a,
        }
    }

    /// Register the receive handler for one end.
    pub fn attach(&mut self, end: LinkEnd, handler: FrameHandler) {
        let slot = match end {
            LinkEnd::A => &mut self.handler_a,
            LinkEnd::B => &mut self.handler_b,
        };
        assert!(slot.is_none(), "link end attached twice");
        *slot = Some(handler);
    }

    fn dir_mut(&mut self, from: LinkEnd) -> &mut Direction {
        match from {
            LinkEnd::A => &mut self.a_to_b,
            LinkEnd::B => &mut self.b_to_a,
        }
    }

    fn dir(&self, from: LinkEnd) -> &Direction {
        match from {
            LinkEnd::A => &self.a_to_b,
            LinkEnd::B => &self.b_to_a,
        }
    }

    /// Frames accepted but not yet fully on the wire from `from`'s side
    /// (transmit backlog) — the switch uses this for tail drop.
    pub fn tx_backlog(&self, from: LinkEnd) -> usize {
        self.dir(from).in_flight
    }

    /// Resolve the fault plan for one frame. RNG draw discipline: a plan
    /// with `LossModel::None` and zero probabilities draws nothing;
    /// `Bernoulli` draws exactly once per frame (as it always has);
    /// `GilbertElliott` draws the state transition, then the state's loss
    /// probability; corrupt/duplicate/reorder each draw only when their
    /// probability is non-zero. Outage checks never draw.
    fn decide_fate(&mut self, sim: &mut Sim, from: LinkEnd, frame_seq: u64) -> Fate {
        let (plan, dir) = match from {
            LinkEnd::A => (&self.faults_a_to_b, &mut self.a_to_b),
            LinkEnd::B => (&self.faults_b_to_a, &mut self.b_to_a),
        };
        let now = sim.now();
        if plan.outages.iter().any(|&(s, e)| s <= now && now < e) {
            return Fate::Lost;
        }
        let lost = match plan.loss {
            LossModel::None => false,
            LossModel::Bernoulli(p) => sim.rng.gen_bool(p),
            LossModel::EveryNth(n) => n > 0 && frame_seq.is_multiple_of(n),
            LossModel::GilbertElliott {
                p_enter_burst,
                p_exit_burst,
                loss_good,
                loss_bad,
            } => {
                let flip = if dir.in_burst {
                    sim.rng.gen_bool(p_exit_burst)
                } else {
                    sim.rng.gen_bool(p_enter_burst)
                };
                if flip {
                    dir.in_burst = !dir.in_burst;
                }
                let p = if dir.in_burst { loss_bad } else { loss_good };
                sim.rng.gen_bool(p)
            }
        };
        if lost {
            return Fate::Lost;
        }
        let corrupt = plan.corrupt > 0.0 && sim.rng.gen_bool(plan.corrupt);
        let duplicate = plan.duplicate > 0.0 && sim.rng.gen_bool(plan.duplicate);
        let hold = if plan.reorder > 0.0 && sim.rng.gen_bool(plan.reorder) {
            plan.reorder_hold
        } else {
            SimDuration::ZERO
        };
        if corrupt {
            sim.record(CORRUPT, 1);
        }
        if duplicate {
            sim.record(DUPLICATES, 1);
        }
        if hold > SimDuration::ZERO {
            sim.record(REORDERS, 1);
        }
        Fate::Deliver {
            corrupt,
            duplicate,
            hold,
        }
    }

    /// Transmit `frame` from `from` towards the opposite end. The frame is
    /// serialized after any frames already queued in that direction, then
    /// propagates and is delivered to the far handler (unless lost).
    pub fn transmit(link: &Rc<RefCell<Link>>, sim: &mut Sim, from: LinkEnd, frame: Frame) {
        sim.record(FRAME_BYTES, frame.frame_bytes() as u64);
        sim.record(TX_BYTES, frame.frame_bytes() as u64);
        if frame.trace != 0 {
            sim.trace.begin(sim.now(), Layer::Eth, "wire", frame.trace);
        }
        let (deliver_at, serialize_done, frame_seq, wire) = {
            let mut l = link.borrow_mut();
            let wire = frame.wire_time(l.bits_per_sec);
            let prop = l.propagation;
            let d = l.dir_mut(from);
            // lint:allow(time-overflow, reason="u64 frame tally; wraps only after 2^64 frames on one link")
            d.frames_offered += 1;
            let seq = d.frames_offered;
            d.in_flight += 1;
            let start = d.busy_until.max(sim.now());
            let done = start + wire;
            d.busy_until = done;
            // lint:allow(time-overflow, reason="SimTime + SimDuration routes through the checked Add guard in sim::time")
            (done + prop, done, seq, wire)
        };
        let link2 = link.clone();
        sim.schedule_at(serialize_done, move |sim| {
            let (handler, frame, corrupt, duplicate, hold) = {
                let mut l = link2.borrow_mut();
                let fate = l.decide_fate(sim, from, frame_seq);
                let d = l.dir_mut(from);
                d.in_flight -= 1;
                match fate {
                    Fate::Lost => {
                        sim.record(FRAMES_LOST, 1);
                        if frame.trace != 0 {
                            // Close the wire span at the loss point so the
                            // trace stays balanced, then mark the drop.
                            sim.trace.end(sim.now(), Layer::Eth, "wire", frame.trace);
                            sim.trace
                                .instant(sim.now(), Layer::Eth, "link_drop", frame.trace);
                        }
                        return;
                    }
                    Fate::Deliver {
                        corrupt,
                        duplicate,
                        hold,
                    } => {
                        let handler = match from.other() {
                            LinkEnd::A => l.handler_a.clone(),
                            LinkEnd::B => l.handler_b.clone(),
                        };
                        (handler, frame, corrupt, duplicate, hold)
                    }
                }
            };
            match handler {
                Some(h) => {
                    let delay = (deliver_at + hold) - sim.now();
                    sim.schedule_in(delay, move |sim| {
                        if frame.trace != 0 {
                            sim.trace.end(sim.now(), Layer::Eth, "wire", frame.trace);
                        }
                        let mut frame = frame;
                        if corrupt {
                            frame.fcs_corrupt = true;
                        }
                        if duplicate {
                            // The copy lands one wire-time later, with no
                            // trace id so spans stay balanced.
                            let mut copy = frame.clone();
                            copy.trace = 0;
                            let h2 = h.clone();
                            sim.schedule_in(wire, move |sim| h2(sim, copy));
                        }
                        h(sim, frame)
                    });
                }
                None if frame.trace != 0 => {
                    // No station attached: the frame vanishes, but the span
                    // must still close.
                    sim.trace.end(sim.now(), Layer::Eth, "wire", frame.trace);
                }
                None => {}
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{EtherType, MacAddr};
    use bytes::Bytes;
    use clic_sim::SimTime;
    use std::cell::RefCell;

    fn mk_frame(len: usize) -> Frame {
        Frame::new(
            MacAddr::for_node(2, 0),
            MacAddr::for_node(1, 0),
            EtherType::CLIC,
            Bytes::from(vec![7u8; len]),
        )
    }

    type Log = Rc<RefCell<Vec<(SimTime, usize)>>>;

    /// A plan that only injects `loss`.
    fn lossy(loss: LossModel) -> FaultPlan {
        FaultPlan {
            loss,
            ..FaultPlan::default()
        }
    }

    fn attach_logger(link: &Rc<RefCell<Link>>, end: LinkEnd) -> Log {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        link.borrow_mut().attach(
            end,
            Rc::new(move |sim: &mut Sim, f: Frame| {
                l.borrow_mut().push((sim.now(), f.payload_len()));
            }),
        );
        log
    }

    #[test]
    fn delivery_after_serialization_plus_propagation() {
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::from_ns(500));
        let log = attach_logger(&link, LinkEnd::B);
        Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(1500));
        sim.run();
        // 1538 wire bytes = 12304 ns, +500 ns propagation.
        assert_eq!(*log.borrow(), vec![(SimTime::from_ns(12_804), 1500)]);
    }

    #[test]
    fn back_to_back_frames_serialize() {
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        let log = attach_logger(&link, LinkEnd::B);
        for _ in 0..3 {
            Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(1500));
        }
        sim.run();
        let times: Vec<u64> = log.borrow().iter().map(|(t, _)| t.as_ns()).collect();
        assert_eq!(times, vec![12_304, 24_608, 36_912]);
    }

    #[test]
    fn directions_are_independent() {
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        let log_b = attach_logger(&link, LinkEnd::B);
        let log_a = attach_logger(&link, LinkEnd::A);
        Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(1500));
        Link::transmit(&link, &mut sim, LinkEnd::B, mk_frame(1500));
        sim.run();
        // Full duplex: both arrive at the one-frame serialization time.
        assert_eq!(log_b.borrow()[0].0, SimTime::from_ns(12_304));
        assert_eq!(log_a.borrow()[0].0, SimTime::from_ns(12_304));
    }

    #[test]
    fn every_nth_loss_drops_deterministically() {
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        link.borrow_mut()
            .set_faults(LinkEnd::A, lossy(LossModel::EveryNth(3)));
        let log = attach_logger(&link, LinkEnd::B);
        for _ in 0..9 {
            Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(100));
        }
        sim.run();
        assert_eq!(log.borrow().len(), 6);
        assert_eq!(sim.metrics.counter("eth.link.frames_lost"), 3);
    }

    #[test]
    fn bernoulli_loss_statistics() {
        let mut sim = Sim::new(42);
        let link = Link::new(10_000_000_000, SimDuration::ZERO);
        link.borrow_mut()
            .set_faults(LinkEnd::A, lossy(LossModel::Bernoulli(0.2)));
        let log = attach_logger(&link, LinkEnd::B);
        for _ in 0..2000 {
            Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(64));
        }
        sim.run();
        let delivered = log.borrow().len();
        assert!(
            (1500..1700).contains(&delivered),
            "delivered={delivered}, expected ~1600"
        );
    }

    #[test]
    fn gilbert_elliott_losses_come_in_bursts() {
        let mut sim = Sim::new(7);
        let link = Link::new(10_000_000_000, SimDuration::ZERO);
        // Classic Gilbert: lossless good state, total loss in bursts of
        // mean length 4; stationary loss rate 0.1/(0.1+0.25) ≈ 28.6 %.
        link.borrow_mut().set_faults(
            LinkEnd::A,
            lossy(LossModel::GilbertElliott {
                p_enter_burst: 0.1,
                p_exit_burst: 0.25,
                loss_good: 0.0,
                loss_bad: 1.0,
            }),
        );
        let log = attach_logger(&link, LinkEnd::B);
        for i in 0..2000u64 {
            // Distinct payload sizes let the log identify frames.
            Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(64 + (i % 2) as usize));
        }
        sim.run();
        let lost = sim.metrics.counter("eth.link.frames_lost");
        assert!(
            (400..750).contains(&lost),
            "lost={lost}, expected ~570 (28.6 %)"
        );
        assert_eq!(log.borrow().len() as u64, 2000 - lost);
        // Determinism: a second run with the same seed reproduces the
        // exact same loss count.
        let mut sim2 = Sim::new(7);
        let link2 = Link::new(10_000_000_000, SimDuration::ZERO);
        link2.borrow_mut().set_faults(
            LinkEnd::A,
            lossy(LossModel::GilbertElliott {
                p_enter_burst: 0.1,
                p_exit_burst: 0.25,
                loss_good: 0.0,
                loss_bad: 1.0,
            }),
        );
        let _log2 = attach_logger(&link2, LinkEnd::B);
        for i in 0..2000u64 {
            Link::transmit(
                &link2,
                &mut sim2,
                LinkEnd::A,
                mk_frame(64 + (i % 2) as usize),
            );
        }
        sim2.run();
        assert_eq!(sim2.metrics.counter("eth.link.frames_lost"), lost);
    }

    #[test]
    fn per_direction_loss_is_independent() {
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        link.borrow_mut()
            .set_faults(LinkEnd::A, lossy(LossModel::EveryNth(1)));
        let log_b = attach_logger(&link, LinkEnd::B);
        let log_a = attach_logger(&link, LinkEnd::A);
        for _ in 0..4 {
            Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(100));
            Link::transmit(&link, &mut sim, LinkEnd::B, mk_frame(100));
        }
        sim.run();
        assert_eq!(log_b.borrow().len(), 0, "a→b drops everything");
        assert_eq!(log_a.borrow().len(), 4, "b→a stays clean");
        // Every loss is a→b's: b→a delivered all of its four.
        assert_eq!(sim.metrics.counter("eth.link.frames_lost"), 4);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        link.borrow_mut().set_faults(
            LinkEnd::A,
            FaultPlan {
                duplicate: 1.0,
                ..FaultPlan::default()
            },
        );
        let log = attach_logger(&link, LinkEnd::B);
        Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(100));
        sim.run();
        assert_eq!(log.borrow().len(), 2, "original + duplicate");
        // The copy lands exactly one wire-time (1104 ns for 138 wire
        // bytes) after the original.
        let times: Vec<u64> = log.borrow().iter().map(|(t, _)| t.as_ns()).collect();
        assert_eq!(times[1] - times[0], 1104);
        assert_eq!(sim.metrics.counter("eth.duplicates"), 1);
    }

    #[test]
    fn reordering_holds_frames_back() {
        let mut sim = Sim::new(3);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        link.borrow_mut().set_faults(
            LinkEnd::A,
            FaultPlan {
                reorder: 0.3,
                reorder_hold: SimDuration::from_us(50),
                ..FaultPlan::default()
            },
        );
        let log = attach_logger(&link, LinkEnd::B);
        // Distinct sizes identify frames in the log.
        for i in 0..20 {
            Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(100 + i));
        }
        sim.run();
        assert_eq!(log.borrow().len(), 20, "reordering never loses frames");
        let sizes: Vec<usize> = log.borrow().iter().map(|&(_, s)| s).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_ne!(sizes, sorted, "at least one frame must be overtaken");
    }

    #[test]
    fn corruption_marks_frames_for_fcs_discard() {
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        link.borrow_mut().set_faults(
            LinkEnd::A,
            FaultPlan {
                corrupt: 1.0,
                ..FaultPlan::default()
            },
        );
        let seen: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        link.borrow_mut().attach(
            LinkEnd::B,
            Rc::new(move |_sim: &mut Sim, f: Frame| {
                s.borrow_mut().push(f.fcs_corrupt);
            }),
        );
        Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(100));
        sim.run();
        assert_eq!(*seen.borrow(), vec![true]);
        // Corrupt frames are delivered, not lost, at the link layer —
        // they cost wire time; the NIC discards them.
        assert_eq!(sim.metrics.counter("eth.link.frames_lost"), 0);
    }

    #[test]
    fn outage_window_drops_frames() {
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        // A 100-byte frame is 138 wire bytes = 1104 ns. The first frame
        // finishes serializing at 1104 (inside the outage), the second at
        // 2208 (after it ends).
        link.borrow_mut().set_faults(
            LinkEnd::A,
            FaultPlan {
                outages: vec![(SimTime::ZERO, SimTime::from_ns(2_000))],
                ..FaultPlan::default()
            },
        );
        let log = attach_logger(&link, LinkEnd::B);
        Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(100));
        Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(100));
        sim.run();
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(sim.metrics.counter("eth.link.frames_lost"), 1);
    }

    #[test]
    fn flap_drops_both_directions_then_recovers() {
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        // Layered on top of an existing plan: the flap must not clobber it.
        link.borrow_mut()
            .set_faults(LinkEnd::A, lossy(LossModel::EveryNth(1000)));
        link.borrow_mut()
            .flap(SimTime::ZERO, SimTime::from_ns(2_000));
        let log_b = attach_logger(&link, LinkEnd::B);
        let log_a = attach_logger(&link, LinkEnd::A);
        // First frame per direction finishes serializing at 1104 ns
        // (inside the flap), the second at 2208 ns (after it ends).
        for _ in 0..2 {
            Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(100));
            Link::transmit(&link, &mut sim, LinkEnd::B, mk_frame(100));
        }
        sim.run();
        assert_eq!(log_b.borrow().len(), 1);
        assert_eq!(log_a.borrow().len(), 1);
        // One loss per direction: each log holds one of its two frames.
        assert_eq!(sim.metrics.counter("eth.link.frames_lost"), 2);
        assert!(
            matches!(
                link.borrow().faults(LinkEnd::A).loss,
                LossModel::EveryNth(1000)
            ),
            "flap must preserve the installed plan"
        );
    }

    #[test]
    fn clean_plan_draws_nothing_from_rng() {
        // Two runs, one with the default plan and one with a plan whose
        // probabilistic knobs are all zero, must leave the RNG in the
        // same state (checked via a sentinel draw after the run).
        let draw_after = |plan: Option<FaultPlan>| -> u64 {
            let mut sim = Sim::new(99);
            let link = Link::new(1_000_000_000, SimDuration::ZERO);
            if let Some(p) = plan {
                link.borrow_mut().set_faults(LinkEnd::A, p.clone());
                link.borrow_mut().set_faults(LinkEnd::B, p);
            }
            let _log = attach_logger(&link, LinkEnd::B);
            for _ in 0..10 {
                Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(200));
            }
            sim.run();
            sim.rng.gen_range_u64(0..u64::MAX)
        };
        let baseline = draw_after(None);
        let zeroed = draw_after(Some(FaultPlan {
            outages: vec![(SimTime::from_us(500_000), SimTime::from_us(600_000))],
            ..FaultPlan::default()
        }));
        assert_eq!(baseline, zeroed, "clean path must not consume RNG draws");
    }

    #[test]
    fn backlog_tracks_queued_frames() {
        let mut sim = Sim::new(0);
        let link = Link::new(1_000_000_000, SimDuration::ZERO);
        let _log = attach_logger(&link, LinkEnd::B);
        for _ in 0..5 {
            Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(1500));
        }
        assert_eq!(link.borrow().tx_backlog(LinkEnd::A), 5);
        sim.run();
        assert_eq!(link.borrow().tx_backlog(LinkEnd::A), 0);
    }

    #[test]
    #[should_panic(expected = "attached twice")]
    fn double_attach_panics() {
        let link = Link::gigabit();
        let h: FrameHandler = Rc::new(|_, _| {});
        link.borrow_mut().attach(LinkEnd::A, h.clone());
        link.borrow_mut().attach(LinkEnd::A, h);
    }

    #[test]
    fn unattached_end_discards_silently() {
        let mut sim = Sim::new(0);
        let link = Link::gigabit();
        Link::transmit(&link, &mut sim, LinkEnd::A, mk_frame(100));
        sim.run();
        // Delivered to nobody, not lost to a fault.
        assert_eq!(sim.metrics.counter("eth.link.frames_lost"), 0);
    }
}
