//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by 10–20 % over
//! minutes as other tenants come and go, which swamps the differences a
//! change makes. So every timed region is normalised by a fixed
//! calibration kernel measured just before it: a reported time is the
//! time the region would have taken on a host where the kernel takes
//! [`REFERENCE_S`].
//!
//! The kernel is a small discrete-event loop with the simulator's host
//! profile — a binary heap of boxed closures, `Rc<RefCell<_>>` state and
//! a packet-sized allocation per event — written here, not taken from the
//! simulator, so no change to the simulator can move it.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Kernel seconds on the reference host, a shared 2-vCPU 2.1 GHz VM,
/// when it is quiet (its 20th percentile over six minutes).
pub const REFERENCE_S: f64 = 0.030;

/// Events the kernel executes.
const EVENTS: u64 = 100_000;

/// How long a measured speed stays valid before it is measured again.
const REFRESH: Duration = Duration::from_millis(250);

struct Event {
    at: u64,
    seq: u64,
    action: Box<dyn FnOnce(&mut Kernel)>,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    // Reversed: the heap pops the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Kernel {
    queue: BinaryHeap<Event>,
    now: u64,
    seq: u64,
    nodes: Vec<Rc<RefCell<VecDeque<Vec<u8>>>>>,
    rng: u64,
    left: u64,
    drained: u64,
}

impl Kernel {
    fn next(&mut self) -> u64 {
        // xorshift64
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn schedule(&mut self, delay: u64, action: impl FnOnce(&mut Kernel) + 'static) {
        self.seq += 1;
        self.queue.push(Event {
            at: self.now + delay,
            seq: self.seq,
            action: Box::new(action),
        });
    }

    /// Queue a packet at `node`, retire its oldest one, and forward to a
    /// random node (sometimes two).
    fn deliver(&mut self, node: usize) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        let size = 64 + (self.next() % 1472) as usize;
        let queue = Rc::clone(&self.nodes[node]);
        let mut queue = queue.borrow_mut();
        queue.push_back(vec![node as u8; size]);
        if queue.len() > 24 {
            self.drained += queue.pop_front().map_or(0, |p| p.len() as u64);
        }
        drop(queue);
        let n = self.nodes.len() as u64;
        let to = (self.next() % n) as usize;
        let delay = 1 + self.next() % 1000;
        self.schedule(delay, move |k| k.deliver(to));
        if self.next().is_multiple_of(4) {
            let to = (self.next() % n) as usize;
            let delay = 1 + self.next() % 5000;
            self.schedule(delay, move |k| k.deliver(to));
        }
    }
}

/// Run the kernel once; returns its seconds.
fn kernel_seconds() -> f64 {
    let started = Instant::now();
    let mut k = Kernel {
        queue: BinaryHeap::new(),
        now: 0,
        seq: 0,
        nodes: (0..64)
            .map(|_| Rc::new(RefCell::new(VecDeque::new())))
            .collect(),
        rng: 0x9e37_79b9_7f4a_7c15,
        left: EVENTS,
        drained: 0,
    };
    for node in 0..k.nodes.len() {
        k.schedule(node as u64, move |k| k.deliver(node));
    }
    while let Some(event) = k.queue.pop() {
        k.now = event.at;
        (event.action)(&mut k);
    }
    black_box(k.drained);
    started.elapsed().as_secs_f64()
}

/// The host's current speed relative to the reference host, re-measured
/// when the last measurement is older than `REFRESH`.
#[derive(Debug)]
pub(crate) struct Speed {
    factor: f64,
    measured: Option<Instant>,
}

impl Speed {
    /// Not measured yet.
    pub(crate) fn new() -> Speed {
        Speed {
            factor: 1.0,
            measured: None,
        }
    }

    /// [`REFERENCE_S`] ÷ kernel seconds: multiply a host time by this to
    /// get reference-host time.
    pub(crate) fn factor(&mut self) -> f64 {
        if self.measured.is_none_or(|at| at.elapsed() >= REFRESH) {
            self.factor = REFERENCE_S / kernel_seconds();
            self.measured = Some(Instant::now());
        }
        self.factor
    }
}
