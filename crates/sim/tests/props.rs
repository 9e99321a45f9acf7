//! Property-based tests of the DES engine's core invariants.

use clic_sim::stats::LatencyStats;
use clic_sim::{LogHistogram, Sim, SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    /// Events always execute in nondecreasing time order, with FIFO order
    /// among equal timestamps, for arbitrary schedules.
    #[test]
    fn execution_order_sorted_stable(delays in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut sim = Sim::new(0);
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let log = log.clone();
            sim.schedule_at(SimTime::from_ns(d), move |s| {
                log.borrow_mut().push((s.now().as_ns(), i));
            });
        }
        sim.run();
        let log = log.borrow();
        prop_assert_eq!(log.len(), delays.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated among ties");
            }
        }
    }

    /// The clock never runs backwards even under nested scheduling.
    #[test]
    fn nested_scheduling_monotonic(seed in any::<u64>(), n in 1usize..50) {
        let mut sim = Sim::new(seed);
        let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        fn spawn(sim: &mut Sim, times: Rc<RefCell<Vec<u64>>>, left: usize) {
            if left == 0 {
                return;
            }
            let delay = sim.rng.gen_range_u64(0..500);
            sim.schedule_in(SimDuration::from_ns(delay), move |s| {
                times.borrow_mut().push(s.now().as_ns());
                spawn(s, times.clone(), left - 1);
            });
        }
        spawn(&mut sim, times.clone(), n);
        sim.run();
        let times = times.borrow();
        prop_assert_eq!(times.len(), n);
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_monotone(samples in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let mut stats = LatencyStats::new();
        for &s in &samples {
            stats.record(SimDuration::from_ns(s));
        }
        let p25 = stats.percentile(0.25).unwrap();
        let p50 = stats.percentile(0.5).unwrap();
        let p99 = stats.percentile(0.99).unwrap();
        prop_assert!(stats.min().unwrap() <= p25);
        prop_assert!(p25 <= p50);
        prop_assert!(p50 <= p99);
        prop_assert!(p99 <= stats.max().unwrap());
        let mean = stats.mean().unwrap();
        prop_assert!(stats.min().unwrap() <= mean && mean <= stats.max().unwrap());
    }

    /// Histogram conserves count and mean, and its quantiles stay within
    /// the observed min/max.
    #[test]
    fn histogram_conserves(values in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let bucket_total: u64 = h.nonzero_buckets().iter().map(|&(_, _, c)| c).sum();
        prop_assert_eq!(bucket_total, values.len() as u64);
        let expect = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((h.mean() - expect).abs() < 1e-6);
        let (lo, hi) = (*values.iter().min().unwrap() as f64, *values.iter().max().unwrap() as f64);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= lo && v <= hi, "q{} = {} outside [{}, {}]", q, v, lo, hi);
        }
    }

    /// `LogHistogram::quantile` against an exact sorted-sample reference:
    /// the extreme quantiles are exactly the true min/max, and every
    /// interior estimate lands in the same log2 bucket as the
    /// nearest-rank sample of the sorted data (the tightest guarantee a
    /// log-bucketed sketch can make), bounded by `[min, max]`.
    #[test]
    fn quantile_tracks_sorted_reference(values in proptest::collection::vec(0u64..1_000_000, 1..120)) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        prop_assert_eq!(h.quantile(0.0), Some(min as f64));
        prop_assert_eq!(h.quantile(1.0), Some(max as f64));
        let mut prev = f64::MIN;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let exact = nearest_rank(&sorted, q);
            let est = h.quantile(q).unwrap();
            prop_assert!(est >= min as f64 && est <= max as f64);
            let (lo, hi) = bucket_range(exact);
            prop_assert!(
                est >= lo as f64 && est < hi as f64 || est == exact as f64,
                "q{}: est {} outside bucket [{}, {}) of exact {}", q, est, lo, hi, exact
            );
            prop_assert!(est >= prev, "quantile not monotone in q at q{}", q);
            prev = est;
        }
    }

    /// Degenerate shapes are exact: a single sample answers every
    /// quantile with itself, and an all-one-bucket histogram stays inside
    /// that bucket.
    #[test]
    fn quantile_single_sample_and_one_bucket(v in 0u64..1_000_000, fill in proptest::collection::vec(0u64..8, 2..60)) {
        let mut h = LogHistogram::new();
        h.record(v);
        for q in [0.0, 0.3, 0.5, 0.99, 1.0] {
            prop_assert_eq!(h.quantile(q), Some(v as f64));
        }
        // All samples land in bucket [8, 16).
        let samples: Vec<u64> = fill.iter().map(|x| 8 + x).collect();
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let (min, max) = (
            *samples.iter().min().unwrap(),
            *samples.iter().max().unwrap(),
        );
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let est = h.quantile(q).unwrap();
            prop_assert!(est >= min as f64 && est <= max as f64, "q{}: {}", q, est);
        }
        prop_assert_eq!(h.quantile(0.0), Some(min as f64));
        prop_assert_eq!(h.quantile(1.0), Some(max as f64));
    }

    /// for_bytes never returns zero for nonzero payloads and scales
    /// monotonically.
    #[test]
    fn wire_time_monotone(a in 1u64..1_000_000, b in 1u64..1_000_000, bps in 1_000u64..10_000_000_000) {
        let ta = SimDuration::for_bytes(a, bps);
        let tb = SimDuration::for_bytes(b, bps);
        prop_assert!(ta.as_ns() > 0);
        if a <= b {
            prop_assert!(ta <= tb);
        } else {
            prop_assert!(ta >= tb);
        }
    }
}

/// Nearest-rank quantile over sorted samples — the exact reference
/// `LogHistogram::quantile` approximates (same rank rule: `ceil(q*n)`
/// clamped to `[1, n]`).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// `[inclusive lower, exclusive upper)` of the log2 bucket holding `v`,
/// mirroring the histogram's bucketing (bucket 0 holds only the value 0).
fn bucket_range(v: u64) -> (u64, u64) {
    if v == 0 {
        (0, 1)
    } else {
        let i = 64 - v.leading_zeros() as usize;
        (1u64 << (i - 1), 1u64 << i)
    }
}

mod calendar_queue_model {
    use clic_sim::queue::CalendarQueue;
    use clic_sim::SimTime;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    proptest! {
        /// The calendar queue pops in exactly the order a sorted reference
        /// (a `BinaryHeap` min-ordered on `(time, seq)` — the scheduler the
        /// engine shipped with before the overhaul) would, for arbitrary
        /// interleaved insert/peek/pop sequences. Inserts cover the shapes
        /// the engine produces: near-cursor times (including ties with the
        /// last popped event, the past-horizon reinsertion case), times
        /// spread across many wheel slots, and far-future times beyond the
        /// wheel span that land in the overflow heap.
        #[test]
        fn pops_match_binary_heap_reference(
            ops in proptest::collection::vec((0u8..6, 0u64..2048), 1..300)
        ) {
            // One slot is 512 ns and the wheel spans 4096 slots; anything
            // at or past `floor + WHEEL_SPAN` must take the overflow path.
            const WHEEL_SPAN: u64 = 512 * 4096;
            let mut q: CalendarQueue<u64> = CalendarQueue::new();
            let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            // The engine never schedules before the current time: track the
            // last popped timestamp as the floor for new inserts.
            let mut floor = 0u64;
            for &(kind, off) in &ops {
                match kind {
                    // Near-cursor insert; off == 0 reproduces the
                    // horizon-pause reinsert (time equal to "now").
                    0 | 1 => {
                        let t = floor + off;
                        q.insert(SimTime::from_ns(t), seq, seq);
                        model.push(Reverse((t, seq)));
                        seq += 1;
                    }
                    // Spread across many slots of the wheel.
                    2 => {
                        let t = floor + off * 997;
                        q.insert(SimTime::from_ns(t), seq, seq);
                        model.push(Reverse((t, seq)));
                        seq += 1;
                    }
                    // Far future: beyond the wheel span, into overflow.
                    3 => {
                        let t = floor + WHEEL_SPAN + off * 31;
                        q.insert(SimTime::from_ns(t), seq, seq);
                        model.push(Reverse((t, seq)));
                        seq += 1;
                    }
                    // Peek must agree without disturbing pop order.
                    4 => {
                        let got = q.next_key().map(|(t, s)| (t.as_ns(), s));
                        prop_assert_eq!(got, model.peek().map(|r| r.0));
                    }
                    _ => {
                        let got = q.pop().map(|(t, s, v)| (t.as_ns(), s, v));
                        let want = model.pop().map(|Reverse((t, s))| (t, s, s));
                        if let Some((t, _, _)) = got {
                            floor = t;
                        }
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(q.len(), model.len());
                    }
                }
            }
            // Drain both queues: every remaining event agrees too.
            while let Some(Reverse((t, s))) = model.pop() {
                let got = q.pop().map(|(t, s, v)| (t.as_ns(), s, v));
                prop_assert_eq!(got, Some((t, s, s)));
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.pop(), None);
        }
    }
}

/// The CPU and the bus complete work in exactly the order the
/// closure-per-completion resources they replaced did.
mod resource_completion_order {
    use clic_sim::{Cpu, CpuClass, Sim, SimDuration, SimTime};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// The unit of script time: durations and start times are multiples
    /// of it, so completions, starts and markers collide often.
    const Q: u64 = 100;

    type Done = Box<dyn FnOnce(&mut Sim)>;

    /// Where a script submits work: the CPU (IRQ or task class) or the
    /// bus (task class only, as the PCI bus submits it).
    trait Resources {
        fn cpu(&self, sim: &mut Sim, class: CpuClass, d: SimDuration, done: Done);
        fn bus(&self, sim: &mut Sim, d: SimDuration, done: Done);
    }

    /// The resources under test.
    struct Real {
        cpu: Rc<RefCell<Cpu>>,
        bus: Rc<RefCell<Cpu>>,
    }

    impl Resources for Real {
        fn cpu(&self, sim: &mut Sim, class: CpuClass, d: SimDuration, done: Done) {
            Cpu::run(&self.cpu, sim, class, d, done);
        }
        fn bus(&self, sim: &mut Sim, d: SimDuration, done: Done) {
            Cpu::run(&self.bus, sim, CpuClass::Task, d, done);
        }
    }

    /// The reference: a CPU and a FIFO bus that schedule one boxed
    /// closure per completion, holding the work item and the resource.
    struct Reference {
        cpu: Rc<RefCell<RefCpu>>,
        bus: Rc<RefCell<RefCpu>>,
    }

    #[derive(Default)]
    struct RefCpu {
        busy: bool,
        irq_q: VecDeque<(SimDuration, Done)>,
        task_q: VecDeque<(SimDuration, Done)>,
    }

    impl RefCpu {
        fn run(
            cpu: &Rc<RefCell<RefCpu>>,
            sim: &mut Sim,
            class: CpuClass,
            d: SimDuration,
            done: Done,
        ) {
            {
                let mut c = cpu.borrow_mut();
                match class {
                    CpuClass::Irq => c.irq_q.push_back((d, done)),
                    CpuClass::Task => c.task_q.push_back((d, done)),
                }
                if c.busy {
                    return;
                }
            }
            Self::start_next(cpu, sim);
        }

        fn start_next(cpu: &Rc<RefCell<RefCpu>>, sim: &mut Sim) {
            let (d, done) = {
                let mut c = cpu.borrow_mut();
                let Some(work) = c.irq_q.pop_front().or_else(|| c.task_q.pop_front()) else {
                    return;
                };
                c.busy = true;
                work
            };
            let cpu2 = cpu.clone();
            sim.schedule_in(d, move |sim| {
                done(sim);
                cpu2.borrow_mut().busy = false;
                Self::start_next(&cpu2, sim);
            });
        }
    }

    impl Resources for Reference {
        fn cpu(&self, sim: &mut Sim, class: CpuClass, d: SimDuration, done: Done) {
            RefCpu::run(&self.cpu, sim, class, d, done);
        }
        fn bus(&self, sim: &mut Sim, d: SimDuration, done: Done) {
            RefCpu::run(&self.bus, sim, CpuClass::Task, d, done);
        }
    }

    type Log = Rc<RefCell<Vec<(u64, u64)>>>;

    /// One script step: `kind` 0 is IRQ work, 1–2 task work, 3 a bus
    /// transfer and 4 a plain marker event; `dur` (in `Q`) may be zero;
    /// a completion submits `nested` derived steps from inside itself.
    #[derive(Clone, Copy)]
    struct Step {
        kind: u8,
        dur: u64,
        nested: u8,
    }

    fn submit(
        res: &Rc<dyn Resources>,
        log: &Log,
        sim: &mut Sim,
        step: Step,
        label: u64,
        depth: u32,
    ) {
        let d = SimDuration::from_ns(step.dur * Q);
        if step.kind == 4 {
            let log = log.clone();
            sim.schedule_in(d, move |s| log.borrow_mut().push((s.now().as_ns(), label)));
            return;
        }
        let (res2, log2) = (res.clone(), log.clone());
        let done: Done = Box::new(move |s: &mut Sim| {
            log2.borrow_mut().push((s.now().as_ns(), label));
            if depth < 2 {
                for i in 0..step.nested {
                    let child = Step {
                        kind: (step.kind + i + 1) % 5,
                        dur: (step.dur + u64::from(i)) % 4,
                        nested: step.nested.saturating_sub(1),
                    };
                    submit(
                        &res2,
                        &log2,
                        s,
                        child,
                        label * 8 + u64::from(i) + 1,
                        depth + 1,
                    );
                }
            }
        });
        match step.kind {
            0 => res.cpu(sim, CpuClass::Irq, d, done),
            1 | 2 => res.cpu(sim, CpuClass::Task, d, done),
            _ => res.bus(sim, d, done),
        }
    }

    /// Run a script: each entry starts its step at `at` (in `Q`) from a
    /// plain scheduled event. Returns the `(time, label)` log.
    fn run(res: Rc<dyn Resources>, script: &[(u8, u64, u64, u8)]) -> Vec<(u64, u64)> {
        let mut sim = Sim::new(0);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        for (i, &(kind, at, dur, nested)) in script.iter().enumerate() {
            let (res, log) = (res.clone(), log.clone());
            let step = Step { kind, dur, nested };
            let label = (i as u64 + 1) << 16;
            sim.schedule_at(SimTime::from_ns(at * Q), move |s| {
                submit(&res, &log, s, step, label, 0);
            });
        }
        sim.run();
        let out = log.borrow().clone();
        out
    }

    proptest! {
        /// Random mixes of IRQ and task work (zero and nonzero
        /// durations), bus transfers, work submitted from completions and
        /// marker events at colliding instants log the same `(time,
        /// label)` sequence on the real resources as on the reference.
        #[test]
        fn completion_order_matches_closure_per_completion_reference(
            script in proptest::collection::vec((0u8..5, 0u64..30, 0u64..5, 0u8..4), 1..60)
        ) {
            let real = run(
                Rc::new(Real {
                    cpu: Cpu::new("cpu"),
                    bus: Cpu::new("bus"),
                }),
                &script,
            );
            let reference = run(
                Rc::new(Reference {
                    cpu: Rc::default(),
                    bus: Rc::default(),
                }),
                &script,
            );
            prop_assert!(!real.is_empty());
            prop_assert_eq!(real, reference);
        }
    }
}
