//! # clic-sim — discrete-event simulation engine
//!
//! The substrate every other crate in this workspace runs on. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`Sim`] — a deterministic event loop (boxed closures plus
//!   allocation-free resumed component handles, [`Resume`]),
//! * [`queue`] — the hierarchical calendar queue ordering the event loop,
//! * [`Cpu`] — the serial resource: a two-priority-class (IRQ > task)
//!   processor, and with task work only a FIFO bus (PCI),
//! * [`SimRng`] — a seeded, reproducible random source,
//! * [`stats`] — sample-exact latency and throughput measurement,
//! * [`metrics`] — the per-run registry of counters, gauges and
//!   log-bucketed histograms (plain-text dump exporter),
//! * [`trace`] — cross-layer span/event tracing with a Chrome trace-event
//!   JSON exporter (used to regenerate the paper's Figure 7 timing
//!   breakdown, and to trace any packet through the full pipeline),
//! * [`timeseries`] — the deterministic timeline recorder bucketing
//!   catalogued gauges/counters over simulated time (CSV dump plus
//!   Perfetto counter tracks),
//! * [`catalog`] — the central registry of every metric and trace-stage
//!   name, each metric with the sinks [`Sim::record`] feeds; consumed at
//!   runtime by [`Metrics::uncataloged`] / [`Trace::uncataloged_stages`]
//!   and statically by `clic-analyze`.
//!
//! A simulation is single-threaded; components are shared as
//! `Rc<RefCell<T>>`. Whoever builds a component (a cluster, a node, a
//! fabric, a test) is its only strong owner. One-shot event closures
//! capture components strongly, but a callback that a component stores
//! (a link's frame handler, a port handler, a listener) holds its target
//! as a `Weak` wherever a strong one would close a cycle, so dropping the
//! owners frees the whole system. Parameter sweeps run many independent
//! `Sim` instances in parallel (see `clic-cluster`).
//!
//! Determinism: events at equal timestamps execute in scheduling (FIFO)
//! order, and all randomness flows through [`SimRng`], so a run is a pure
//! function of its configuration and seed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod engine;
pub mod metrics;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeseries;
pub mod trace;

pub use catalog::{MetricId, Sink, StageId};
pub use engine::{ActionArm, EngineProbe, Resume, Sim};
pub use metrics::{LogHistogram, Metrics};
pub use resource::{Cpu, CpuClass};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use timeseries::TimelineRecorder;
pub use trace::{Layer, Mark, StageSpan, Trace, TraceError, TraceEvent};
