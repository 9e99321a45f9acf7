//! Host-time tracing, recorded from outside the simulator.
//!
//! Three pieces, all owned by the benchmark so that no simulator crate
//! changes to be measured:
//!
//! * [`Spans`], an in-memory span recorder written out as Chrome-trace
//!   JSON when the run ends;
//! * a wall-clock [`EngineProbe`] that charges every dispatched event's
//!   host time to its dispatch arm;
//! * [`replay`], which re-runs one job through the public layer functions
//!   (`Cluster::build`, the `clic_cluster::workload` functions,
//!   `observe::collect_metrics`) with a span around each call.

use clic_bench::json::Json;
use clic_cluster::jobs::{set_job_probe_factory, JobKind, JobSpec};
use clic_cluster::workload::{
    all_to_all_clic, chaos_clic, collective_scale, incast_clic, ping_pong, request_reply_cycles,
    stream, stream_pipelined, ChaosPlan,
};
use clic_cluster::{observe, Cluster, ClusterConfig};
use clic_sim::catalog::strip_node_prefix;
use clic_sim::{ActionArm, EngineProbe, Metrics, Sim, SimDuration, SimRng};
use std::cell::Cell;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed (`job`, `build`, `run`, `collect`, `fingerprint`, ...).
    pub name: &'static str,
    /// What it was timed for: a job id or a figure family.
    pub label: String,
    /// The enclosing span, as an index into [`Spans::spans`].
    pub parent: Option<usize>,
    /// Start, µs since the recorder was created.
    pub start_us: f64,
    /// Duration, µs (0 while the span is open).
    pub dur_us: f64,
}

/// A span recorder. A disabled recorder still times each span, so the
/// untraced and traced runs share one code path, but keeps nothing.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    /// The spans recorded so far, in opening order.
    pub spans: Vec<Span>,
}

/// A handle to an open span, returned by [`Spans::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId {
    /// Index into [`Spans::spans`] (meaningless when disabled).
    slot: usize,
    start: Instant,
}

impl Spans {
    /// A recorder that keeps its spans.
    pub fn enabled() -> Spans {
        Spans::new(true)
    }

    /// A recorder that only times.
    pub fn disabled() -> Spans {
        Spans::new(false)
    }

    fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name` for `label` inside `parent`.
    pub fn open(&mut self, name: &'static str, label: &str, parent: Option<SpanId>) -> SpanId {
        let start = Instant::now();
        if self.enabled {
            self.spans.push(Span {
                name,
                label: label.to_string(),
                parent: parent.map(|p| p.slot),
                start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
                dur_us: 0.0,
            });
        }
        SpanId {
            slot: self.spans.len().wrapping_sub(1),
            start,
        }
    }

    /// Close `id`, returning its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let secs = id.start.elapsed().as_secs_f64();
        if self.enabled {
            self.spans[id.slot].dur_us = secs * 1e6;
        }
        secs
    }

    /// The spans as Chrome-trace JSON (complete `X` events; open it in
    /// <https://ui.perfetto.dev>). Each event's `args` name its label and
    /// the span that caused it.
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("", |p| self.spans[p].name);
                Json::obj([
                    ("name", Json::from(s.name)),
                    ("cat", Json::from("benchmark")),
                    ("ph", Json::from("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.dur_us)),
                    ("pid", Json::from(1usize)),
                    ("tid", Json::from(1usize)),
                    (
                        "args",
                        Json::obj([
                            ("label", Json::from(s.label.as_str())),
                            ("parent", Json::from(parent)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
        .pretty()
    }
}

/// Events and host nanoseconds per dispatch arm, indexed by
/// `ActionArm as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArmTally {
    /// Events dispatched on each arm.
    pub events: [u64; 3],
    /// Host nanoseconds spent inside those events.
    pub ns: [u64; 3],
}

impl ArmTally {
    /// Events over all arms.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Host nanoseconds over all arms.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn add(&mut self, other: &ArmTally) {
        for arm in 0..3 {
            self.events[arm] += other.events[arm];
            self.ns[arm] += other.ns[arm];
        }
    }
}

thread_local! {
    /// Tallies of the probes dropped on this thread since the last
    /// [`take_tally`]. Probes fold in on drop, so the same probe serves a
    /// benchmark-owned simulator and, through `set_job_probe_factory`, a
    /// job's own.
    static TALLY: Cell<ArmTally> = Cell::new(ArmTally::default());
}

/// Drain this thread's probe tallies.
fn take_tally() -> ArmTally {
    TALLY.with(Cell::take)
}

/// The wall-clock engine probe.
#[derive(Default)]
struct WallProbe {
    started: Option<Instant>,
    local: ArmTally,
}

impl EngineProbe for WallProbe {
    fn begin(&mut self, _arm: ActionArm) {
        // lint:allow(determinism-taint, reason="benchmark probe measures host time only; tallies never feed back into simulated state")
        self.started = Some(Instant::now());
    }

    fn end(&mut self, arm: ActionArm) {
        if let Some(t0) = self.started.take() {
            self.local.events[arm as usize] += 1;
            self.local.ns[arm as usize] += t0.elapsed().as_nanos() as u64;
        }
    }
}

impl Drop for WallProbe {
    fn drop(&mut self) {
        TALLY.with(|t| {
            let mut sum = t.get();
            sum.add(&self.local);
            t.set(sum);
        });
    }
}

/// A fresh wall-clock probe; a plain `fn` so it can be a job probe
/// factory.
fn wall_probe() -> Box<dyn EngineProbe> {
    Box::<WallProbe>::default()
}

/// Where a per-layer count comes from in the `collect_metrics` registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A counter, summed over nodes.
    Counter,
    /// The sum of a histogram's samples (byte totals recorded only as
    /// size distributions).
    HistogramSum,
}

/// The layer counts a replay collects, by catalog name.
pub const COUNTS: [(&str, Source); 22] = [
    ("eth.switch.frames_forwarded", Source::Counter),
    ("eth.switch.drops", Source::Counter),
    ("eth.switch.ecn_marks", Source::Counter),
    ("eth.fabric.trunk_tx_frames", Source::Counter),
    ("eth.link.frames_lost", Source::Counter),
    ("hw.nic.tx_frames", Source::Counter),
    ("hw.nic.irqs", Source::Counter),
    ("hw.pci.dma_bytes", Source::HistogramSum),
    ("hw.mem.copy_bytes", Source::HistogramSum),
    ("hw.nic.coll.msgs_rx", Source::Counter),
    ("os.irqs", Source::Counter),
    ("os.syscalls", Source::Counter),
    ("os.bottom_halves", Source::Counter),
    ("os.context_switches", Source::Counter),
    ("clic.packets_sent", Source::Counter),
    ("clic.retransmits", Source::Counter),
    ("clic.fast_retransmits", Source::Counter),
    ("clic.flow_failures", Source::Counter),
    ("tcp.retransmits", Source::Counter),
    ("mpi.sends", Source::Counter),
    ("sim.pool.recycled", Source::Counter),
    ("sim.pool.alloc_misses", Source::Counter),
];

/// [`COUNTS`] from the `collect_metrics` registry. Several layers record
/// a fact both live (unprefixed) and in the per-node `n<i>.` snapshot, so
/// where per-node series exist only they are summed; otherwise the
/// unprefixed series is the total.
fn counts(reg: &Metrics) -> [u64; COUNTS.len()] {
    let mut per_node = [None::<u64>; COUNTS.len()];
    for (name, v) in reg.counters() {
        let base = strip_node_prefix(name);
        if base == name {
            continue;
        }
        if let Some(i) = COUNTS.iter().position(|&(n, _)| n == base) {
            *per_node[i].get_or_insert(0) += v;
        }
    }
    let mut out = [0; COUNTS.len()];
    for (i, &(name, source)) in COUNTS.iter().enumerate() {
        out[i] = match source {
            Source::HistogramSum => reg.histogram(name).map_or(0, |h| h.sum()),
            Source::Counter => per_node[i].unwrap_or_else(|| reg.counter(name)),
        };
    }
    out
}

/// Time breakdown and layer counts of one replayed job.
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    /// `Cluster::build` seconds (0 for fallback kinds).
    pub build_s: f64,
    /// Workload-function seconds (the whole `JobSpec::run` for fallbacks).
    pub run_s: f64,
    /// `observe::collect_metrics` seconds (0 for fallback kinds).
    pub collect_s: f64,
    /// The whole job span, seconds.
    pub job_s: f64,
    /// Per-arm dispatch tallies from the probe.
    pub arms: ArmTally,
    /// Simulator events executed.
    pub events: u64,
    /// Nodes built.
    pub nodes: usize,
    /// [`COUNTS`], in order (all 0 for fallback kinds).
    pub counts: [u64; COUNTS.len()],
    /// Forwarding decisions at switch output queues, fabric switches
    /// included: the samples of the `eth.switch.queue_depth` histogram,
    /// which every decision records, dropped frames too.
    pub switch_decisions: u64,
    /// Whether the run drew from the simulator RNG (assumed for fallback
    /// kinds, which the benchmark cannot inspect).
    pub drew_rng: bool,
}

impl JobTrace {
    /// Scale every time by `factor` (to reference-host seconds).
    pub(crate) fn scale(&mut self, factor: f64) {
        self.build_s *= factor;
        self.run_s *= factor;
        self.collect_s *= factor;
        self.job_s *= factor;
        for ns in &mut self.arms.ns {
            *ns = (*ns as f64 * factor) as u64;
        }
    }
}

/// The cluster and simulator seed of a job the benchmark replays through
/// the workload functions. `StageTrace` and `LoadedLatency` set up their
/// simulation inside `clic_cluster::jobs`, so they fall back to
/// `JobSpec::run` under the probe.
fn replayable(kind: &JobKind) -> Option<(&ClusterConfig, u64)> {
    match kind {
        JobKind::Stream { cluster, seed, .. }
        | JobKind::PingPong { cluster, seed, .. }
        | JobKind::Reliability { cluster, seed, .. }
        | JobKind::AllToAll { cluster, seed, .. }
        | JobKind::Chaos { cluster, seed, .. }
        | JobKind::ScaleCollective { cluster, seed, .. }
        | JobKind::Incast { cluster, seed, .. } => Some((cluster, *seed)),
        JobKind::StageTrace { .. } | JobKind::LoadedLatency { .. } => None,
    }
}

/// Run the workload function of a replayable job; the arguments mirror the
/// job runners in `clic_cluster::jobs`, which the event-count check
/// against the untraced run keeps honest.
fn drive(kind: &JobKind, cluster: &Cluster, sim: &mut Sim) {
    match kind {
        JobKind::Stream {
            stack,
            size,
            count,
            pipelined,
            ..
        } => {
            let run = if *pipelined { stream_pipelined } else { stream };
            run(cluster, sim, *stack, *size, *count);
        }
        JobKind::PingPong {
            stack,
            size,
            rounds,
            ..
        } => {
            ping_pong(cluster, sim, *stack, *size, *rounds);
        }
        JobKind::Reliability {
            stack,
            size,
            rounds,
            ..
        } => {
            request_reply_cycles(cluster, sim, *stack, *size, 4, *rounds);
        }
        JobKind::AllToAll { size, .. } => {
            all_to_all_clic(cluster, sim, *size);
        }
        JobKind::Chaos {
            size,
            nmsgs,
            crashes,
            flaps,
            seed,
            ..
        } => {
            let plan = ChaosPlan::draw(*seed, *crashes, *flaps);
            chaos_clic(cluster, sim, *size, *nmsgs, &plan);
        }
        JobKind::Incast {
            size,
            per_sender,
            consume_delay_us,
            ..
        } => {
            let delay = SimDuration::from_us(*consume_delay_us);
            incast_clic(cluster, sim, *size, *per_sender, delay);
        }
        JobKind::ScaleCollective { offload, .. } => {
            collective_scale(cluster, sim, *offload);
        }
        JobKind::StageTrace { .. } | JobKind::LoadedLatency { .. } => {
            unreachable!("fallback kinds are not driven directly")
        }
    }
}

/// Replay `spec` with a span around each layer call.
pub fn replay(spec: &JobSpec, spans: &mut Spans) -> JobTrace {
    let job = spans.open("job", &spec.id, None);
    let mut t = JobTrace::default();
    take_tally();
    match replayable(&spec.kind) {
        Some((config, seed)) => {
            // Same order as `JobKind::run`: the pool is reset before the
            // cluster allocates.
            bytes::pool::reset();
            let s = spans.open("build", &spec.id, Some(job));
            let cluster = Cluster::build(config);
            t.build_s = spans.close(s);
            let mut sim = Sim::new(seed);
            sim.metrics = Metrics::enabled();
            sim.set_probe(wall_probe());
            let s = spans.open("run", &spec.id, Some(job));
            drive(&spec.kind, &cluster, &mut sim);
            t.run_s = spans.close(s);
            drop(sim.take_probe());
            t.arms = take_tally();
            let s = spans.open("collect", &spec.id, Some(job));
            let reg = observe::collect_metrics(&cluster, &sim);
            t.collect_s = spans.close(s);
            t.job_s = spans.close(job);
            t.counts = counts(&reg);
            t.switch_decisions = reg
                .histogram("eth.switch.queue_depth")
                .map_or(0, |h| h.count());
            t.events = sim.events_executed();
            t.nodes = config.nodes;
            // An untouched generator's next draw is its first one.
            t.drew_rng = sim.rng.gen_f64().to_bits() != SimRng::new(seed).gen_f64().to_bits();
        }
        None => {
            set_job_probe_factory(Some(wall_probe));
            let s = spans.open("run", &spec.id, Some(job));
            let ran = std::panic::catch_unwind(|| spec.run());
            t.run_s = spans.close(s);
            set_job_probe_factory(None);
            t.job_s = spans.close(job);
            if let Err(panic) = ran {
                std::panic::resume_unwind(panic);
            }
            t.arms = take_tally();
            t.events = t.arms.total_events();
            t.drew_rng = true;
        }
    }
    t
}
