//! The deterministic event loop.
//!
//! Events are actions ordered by `(time, seq)`: ties in time execute in
//! the order they were scheduled, which keeps every run reproducible.
//! Component state lives in `Rc<RefCell<_>>` cells captured by the
//! closures; the `Sim` itself only owns the clock, the queue, the RNG and
//! the trace sink. A queued closure or handle lives until it runs or the
//! `Sim` is dropped, so it may hold components strongly. Callbacks that
//! components store for later hold them as `Weak` where a strong one
//! would cycle, so a dropped cluster is freed.
//!
//! # Queue and event representation
//!
//! The pending-event queue is a hierarchical calendar queue
//! ([`crate::queue::CalendarQueue`]) rather than a binary heap: inserts
//! and pops on the simulator's dominant scheduling patterns (short
//! delays from the running event, same-instant follow-ups) are O(1)
//! instead of O(log n), and same-timestamp FIFO order falls out of the
//! total `(time, seq)` key rather than heap internals.
//!
//! Events come in two flavours:
//!
//! * **boxed closures** ([`Sim::schedule_at`] and friends) — the general
//!   path; one small allocation per event.
//! * **resumed handles** ([`Sim::resume_in`]) — a shared component
//!   handle (`Rc<dyn Resume>`) whose state already holds what the event
//!   needs. Queuing one clones the `Rc`, a count bump, so it allocates
//!   nothing. The CPU and PCI-bus resources complete their in-flight
//!   item this way.
//!
//! # Invariants
//!
//! 1. `seq` increases monotonically with every schedule call and is never
//!    reused, so `(time, seq)` is a strict total order and same-time
//!    events run in schedule (FIFO) order.
//! 2. Scheduling in the past (`at < now`) is a logic error and panics.
//! 3. [`Sim::run_until`] executes events with `time <= horizon` and pins
//!    the clock to the horizon when it stops there, so throughput windows
//!    are well-defined and a later `run` resumes correctly.

use crate::catalog::{MetricId, Sink};
use crate::metrics::Metrics;
use crate::queue::CalendarQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::timeseries::TimelineRecorder;
use crate::trace::Trace;
use std::rc::Rc;

/// A component that an event resumes through a shared handle.
///
/// The component keeps whatever the event needs in its own state (the
/// CPU keeps its in-flight work item), so the queued event is just the
/// handle: see [`Sim::resume_in`].
pub trait Resume {
    /// Continue the component at the scheduled instant.
    fn resume(self: Rc<Self>, sim: &mut Sim);
}

/// A scheduled event.
enum Action {
    /// A component resumed through its handle, allocation-free.
    Resume(Rc<dyn Resume>),
    /// The general boxed-closure event.
    Boxed(Box<dyn FnOnce(&mut Sim)>),
}

/// Which dispatch arm an executed event took — the coarse "module" axis
/// the engine can attribute without inspecting closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActionArm {
    /// A resumed component handle (`resume_in`), allocation-free.
    Resume,
    /// Boxed closure (`schedule_at` / `schedule_in` / `schedule_now`).
    Boxed,
}

/// Host-side observer of event dispatch, for engine self-profiling.
///
/// The engine stays clock-free: it reports only *which* arm is about to
/// run / just ran, and the probe implementation decides what to measure.
/// Wall-clock probes live in the benchmark harness (`clic-benchmark`),
/// outside the simulation crates, where host timing is banned. Probes
/// receive no `&mut Sim`, cannot schedule, and observe dispatch only —
/// installing one never changes simulation results. Install before
/// `run`; replacing the probe from inside an event handler is
/// unsupported.
pub trait EngineProbe {
    /// Called immediately before an event executes.
    fn begin(&mut self, arm: ActionArm);
    /// Called immediately after the event returns.
    fn end(&mut self, arm: ActionArm);
}

/// Why [`Sim::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained.
    Drained,
    /// The configured horizon was reached before the queue drained.
    Horizon,
    /// The event budget was exhausted (runaway protection).
    EventLimit,
}

/// The simulation world: clock, event queue, RNG, trace sink and metrics
/// registry.
pub struct Sim {
    now: SimTime,
    queue: CalendarQueue<Action>,
    next_seq: u64,
    executed: u64,
    event_limit: u64,
    /// Deterministic randomness shared by all components of this run.
    pub rng: SimRng,
    /// Cross-layer span/event trace sink (disabled by default; see
    /// [`Trace`]).
    pub trace: Trace,
    /// Metrics registry, always on (see [`Metrics`]). Recording is
    /// passive, so it never changes simulation results.
    pub metrics: Metrics,
    /// Time-resolved telemetry recorder (disabled by default; see
    /// [`TimelineRecorder`]). Passive like `metrics`: enabling it never
    /// changes simulation results.
    pub timeline: TimelineRecorder,
    probe: Option<Box<dyn EngineProbe>>,
}

impl Sim {
    /// Create a simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            next_seq: 0,
            executed: 0,
            event_limit: u64::MAX,
            rng: SimRng::new(seed),
            trace: Trace::disabled(),
            metrics: Metrics::enabled(),
            timeline: TimelineRecorder::disabled(),
            probe: None,
        }
    }

    /// Record `v` for the catalog entry `id`: the one call every
    /// recording site makes. The entry's sinks (carried in the id, so
    /// fixed at compile time) decide where `v` goes — the registry's
    /// counter, gauge and histogram, and the timeline's level or rate
    /// series.
    #[inline]
    pub fn record(&mut self, id: MetricId, v: u64) {
        self.metrics.record(id, v);
        if id.has(Sink::TimelineLevel) || id.has(Sink::TimelineRate) {
            self.timeline.record(self.now, id, v);
        }
    }

    /// Install a dispatch probe (engine self-profiling); see
    /// [`EngineProbe`]. The unprofiled run loop pays one predictable
    /// branch per event for this hook.
    pub fn set_probe(&mut self, probe: Box<dyn EngineProbe>) {
        self.probe = Some(probe);
    }

    /// Remove the installed probe, returning it so the caller can extract
    /// its report.
    pub fn take_probe(&mut self) -> Option<Box<dyn EngineProbe>> {
        self.probe.take()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Cap the total number of events this run may execute. Exceeding the
    /// cap stops `run` with [`StopReason::EventLimit`] — runaway protection
    /// for misconfigured experiments, not a normal control flow tool.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    #[inline]
    fn push(&mut self, at: SimTime, action: Action) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {} < {}",
            at,
            self.now
        );
        let seq = self.next_seq;
        // lint:allow(time-overflow, reason="u64 insertion-order tiebreaker; 2^64 events cannot occur in one run")
        self.next_seq += 1;
        self.queue.insert(at, seq, action);
    }

    /// Schedule `action` at absolute time `at`. Scheduling in the past is a
    /// logic error in the calling component.
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Sim) + 'static) {
        self.push(at, Action::Boxed(Box::new(action)));
    }

    /// Schedule `action` after a relative delay.
    pub fn schedule_in(&mut self, delay: SimDuration, action: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now + delay, action);
    }

    /// Schedule `action` at the current instant, after all events already
    /// queued for this instant.
    pub fn schedule_now(&mut self, action: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now, action);
    }

    /// Resume `handle` after a relative delay, without allocating.
    /// Ordering semantics are identical to [`Sim::schedule_in`].
    #[inline]
    pub fn resume_in(&mut self, delay: SimDuration, handle: Rc<dyn Resume>) {
        self.push(self.now + delay, Action::Resume(handle));
    }

    /// Run until the queue drains or a limit is hit.
    pub fn run(&mut self) -> StopReason {
        self.run_until(SimTime(u64::MAX))
    }

    /// Run until `horizon` (exclusive of events strictly after it), the
    /// queue drains, or the event budget is exhausted. The clock is advanced
    /// to `horizon` when stopping on the horizon so throughput windows are
    /// well-defined.
    pub fn run_until(&mut self, horizon: SimTime) -> StopReason {
        loop {
            if self.executed >= self.event_limit {
                return StopReason::EventLimit;
            }
            // Pop unconditionally and reinsert on a horizon stop: one
            // queue operation per event instead of a peek plus a pop.
            // Reinsertion reuses the original seq, so FIFO order among
            // same-time events is unchanged when the run resumes.
            let Some((time, seq, action)) = self.queue.pop() else {
                return StopReason::Drained;
            };
            if time > horizon {
                self.queue.insert(time, seq, action);
                self.now = horizon;
                return StopReason::Horizon;
            }
            self.now = time;
            self.executed += 1;
            self.dispatch(action);
        }
    }

    /// Execute one popped action. The common (probe-less) path is the
    /// bare two-arm match; the profiled path is kept out of line so the
    /// hot loop stays pristine.
    #[inline]
    fn dispatch(&mut self, action: Action) {
        if self.probe.is_none() {
            match action {
                Action::Resume(h) => h.resume(self),
                Action::Boxed(f) => f(self),
            }
        } else {
            self.dispatch_probed(action);
        }
    }

    #[inline(never)]
    fn dispatch_probed(&mut self, action: Action) {
        let arm = match &action {
            Action::Resume(_) => ActionArm::Resume,
            Action::Boxed(_) => ActionArm::Boxed,
        };
        // The probe is taken for the duration of the event so the handler
        // gets the usual `&mut Sim` without aliasing it.
        let mut probe = self.probe.take();
        if let Some(p) = probe.as_mut() {
            p.begin(arm);
        }
        match action {
            Action::Resume(h) => h.resume(self),
            Action::Boxed(f) => f(self),
        }
        if let Some(p) = probe.as_mut() {
            p.end(arm);
        }
        self.probe = probe;
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for &us in &[30u64, 10, 20] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_us(us), move |s| {
                log.borrow_mut().push(s.now().as_us_f64() as u64);
            });
        }
        assert_eq!(sim.run(), StopReason::Drained);
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_run_fifo() {
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..100 {
            let log = log.clone();
            sim.schedule_at(SimTime::from_us(5), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_advances_clock() {
        let mut sim = Sim::new(0);
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        sim.schedule_in(SimDuration::from_us(1), move |s| {
            h.borrow_mut().push(s.now());
            let h2 = h.clone();
            s.schedule_in(SimDuration::from_us(2), move |s| {
                h2.borrow_mut().push(s.now());
            });
        });
        sim.run();
        assert_eq!(
            *hits.borrow(),
            vec![SimTime::from_us(1), SimTime::from_us(3)]
        );
    }

    #[test]
    fn schedule_now_runs_after_current_instant_queue() {
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        sim.schedule_at(SimTime::ZERO, move |s| {
            l1.borrow_mut().push("first");
            let l = l1.clone();
            s.schedule_now(move |_| l.borrow_mut().push("third"));
        });
        sim.schedule_at(SimTime::ZERO, move |_| l2.borrow_mut().push("second"));
        sim.run();
        assert_eq!(*log.borrow(), vec!["first", "second", "third"]);
    }

    #[test]
    fn zero_duration_schedule_in_preserves_insertion_order() {
        // Regression: a zero-duration `schedule_in` issued *during* run()
        // must queue after every event already pending at the same
        // instant, and multiple zero-duration events must keep their own
        // insertion order — the same-time FIFO contract the calendar
        // queue has to honor even when the running slot is partially
        // drained.
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let t = SimTime::from_us(3);
        let l = log.clone();
        sim.schedule_at(t, move |s| {
            l.borrow_mut().push(0);
            let (la, lb) = (l.clone(), l.clone());
            s.schedule_in(SimDuration::ZERO, move |s2| {
                la.borrow_mut().push(3);
                let lc = la.clone();
                // Zero-duration from inside a zero-duration event.
                s2.schedule_in(SimDuration::ZERO, move |_| lc.borrow_mut().push(5));
            });
            s.schedule_in(SimDuration::ZERO, move |_| lb.borrow_mut().push(4));
        });
        let l = log.clone();
        sim.schedule_at(t, move |_| l.borrow_mut().push(1));
        let l = log.clone();
        sim.schedule_at(t, move |_| l.borrow_mut().push(2));
        assert_eq!(sim.run(), StopReason::Drained);
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), t);
    }

    /// Logs its label each time it is resumed.
    struct Marker {
        label: u64,
        log: Rc<RefCell<Vec<u64>>>,
    }

    impl Resume for Marker {
        fn resume(self: Rc<Self>, _: &mut Sim) {
            self.log.borrow_mut().push(self.label);
        }
    }

    #[test]
    fn resume_events_interleave_with_boxed_events_in_fifo_order() {
        // Resumed handles share the same (time, seq) ordering domain as
        // boxed closures, and a handle queued twice runs twice.
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let marker = |label| {
            Rc::new(Marker {
                label,
                log: log.clone(),
            })
        };
        let t = SimDuration::from_us(1);
        let l = log.clone();
        sim.schedule_in(t, move |_| l.borrow_mut().push(0));
        sim.resume_in(t, marker(1));
        let l = log.clone();
        sim.schedule_in(t, move |_| l.borrow_mut().push(2));
        let twice = marker(3);
        sim.resume_in(t, twice.clone());
        sim.resume_in(t, twice);
        assert_eq!(sim.run(), StopReason::Drained);
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 3]);
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn horizon_stops_and_pins_clock() {
        let mut sim = Sim::new(0);
        let fired = Rc::new(RefCell::new(0u32));
        let f = fired.clone();
        sim.schedule_at(SimTime::from_us(10), move |_| *f.borrow_mut() += 1);
        let f = fired.clone();
        sim.schedule_at(SimTime::from_us(100), move |_| *f.borrow_mut() += 1);
        assert_eq!(sim.run_until(SimTime::from_us(50)), StopReason::Horizon);
        assert_eq!(*fired.borrow(), 1);
        assert_eq!(sim.now(), SimTime::from_us(50));
        assert_eq!(sim.events_pending(), 1);
        // Resuming picks up the remaining event.
        assert_eq!(sim.run(), StopReason::Drained);
        assert_eq!(*fired.borrow(), 2);
    }

    #[test]
    fn scheduling_after_horizon_stop_stays_ordered() {
        // After a horizon stop the queue cursor may sit beyond `now`;
        // events scheduled into that gap must still run before the
        // far-future event that caused the peek.
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        sim.schedule_at(SimTime::from_us(500), move |s| l.borrow_mut().push(s.now()));
        assert_eq!(sim.run_until(SimTime::from_us(50)), StopReason::Horizon);
        let l = log.clone();
        sim.schedule_at(SimTime::from_us(60), move |s| l.borrow_mut().push(s.now()));
        assert_eq!(sim.run(), StopReason::Drained);
        assert_eq!(
            *log.borrow(),
            vec![SimTime::from_us(60), SimTime::from_us(500)]
        );
    }

    #[test]
    fn event_at_horizon_still_runs() {
        let mut sim = Sim::new(0);
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        sim.schedule_at(SimTime::from_us(50), move |_| *f.borrow_mut() = true);
        sim.run_until(SimTime::from_us(50));
        assert!(*fired.borrow());
    }

    #[test]
    fn event_limit_halts_runaway() {
        let mut sim = Sim::new(0);
        // A self-perpetuating event chain.
        fn tick(s: &mut Sim) {
            s.schedule_in(SimDuration::from_ns(1), tick);
        }
        sim.schedule_now(tick);
        sim.set_event_limit(1000);
        assert_eq!(sim.run(), StopReason::EventLimit);
        assert_eq!(sim.events_executed(), 1000);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new(0);
        sim.schedule_at(SimTime::from_us(10), |s| {
            s.schedule_at(SimTime::from_us(5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once() -> Vec<u64> {
            let mut sim = Sim::new(42);
            let log = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..50 {
                let delay = sim.rng.gen_range_u64(1..1000);
                let log = log.clone();
                sim.schedule_in(SimDuration::from_ns(delay), move |s| {
                    log.borrow_mut().push(s.now().as_ns());
                });
            }
            sim.run();
            Rc::try_unwrap(log).unwrap().into_inner()
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn probe_sees_every_arm_and_leaves_results_unchanged() {
        // Probes share their tallies out via Rc, the same pattern the
        // bench-layer wall-clock probe uses.
        struct CountProbe {
            begins: Rc<RefCell<Vec<ActionArm>>>,
            ends: Rc<RefCell<Vec<ActionArm>>>,
        }
        impl EngineProbe for CountProbe {
            fn begin(&mut self, arm: ActionArm) {
                self.begins.borrow_mut().push(arm);
            }
            fn end(&mut self, arm: ActionArm) {
                self.ends.borrow_mut().push(arm);
            }
        }

        fn run_once(probed: bool) -> (Vec<u64>, Vec<ActionArm>) {
            let begins = Rc::new(RefCell::new(Vec::new()));
            let ends = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Sim::new(7);
            if probed {
                sim.set_probe(Box::new(CountProbe {
                    begins: begins.clone(),
                    ends: ends.clone(),
                }));
            }
            let log = Rc::new(RefCell::new(Vec::new()));
            let l = log.clone();
            sim.schedule_at(SimTime::from_us(1), move |s| {
                l.borrow_mut().push(s.now().as_ns())
            });
            sim.resume_in(
                SimDuration::from_us(2),
                Rc::new(Marker {
                    label: 9,
                    log: log.clone(),
                }),
            );
            assert_eq!(sim.run(), StopReason::Drained);
            assert_eq!(sim.take_probe().is_some(), probed);
            assert_eq!(*begins.borrow(), *ends.borrow());
            let result = (log.borrow().clone(), begins.borrow().clone());
            result
        }

        let (bare, none) = run_once(false);
        let (probed, arms) = run_once(true);
        assert!(none.is_empty());
        assert_eq!(bare, probed, "probe changed simulation results");
        assert_eq!(bare, vec![1_000, 9]);
        assert_eq!(arms, vec![ActionArm::Boxed, ActionArm::Resume]);
    }

    #[test]
    fn timeline_defaults_disabled() {
        let sim = Sim::new(0);
        assert!(!sim.timeline.is_enabled());
    }
}
