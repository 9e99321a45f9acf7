//! Self-contained experiment jobs.
//!
//! Every point of every figure/ablation grid is a [`JobSpec`]: a stable
//! string id plus a [`JobKind`] describing one deterministic simulation.
//! A job is **pure** — it builds its own cluster and simulator from plain
//! configuration data, runs to completion, and returns a flat
//! [`Measurement`] — and `Send`, so a job set can be executed on any
//! number of worker threads (each job keeps its whole `Rc`/`RefCell`
//! simulation on the thread that runs it). The figure-level assembly in
//! [`crate::experiments`] consumes job results by id, so output never
//! depends on completion order.
//!
//! Job results are also cache-friendly: [`JobSpec::fingerprint`] hashes
//! what a job simulates — the full job configuration — plus the
//! calibrated cost-model constants, the measurement schema and the
//! simulator source, but not the id. A content-addressed result cache
//! (see `clic-bench`) therefore invalidates itself automatically when
//! any of those change, and identical simulations under different ids
//! share one entry and run once per runner call.

use crate::builder::{Cluster, ClusterConfig};
use crate::calibration::CostModel;
use crate::experiments::{clic_pair, tcp_pair};
use crate::workload::{
    offer_load, ping_pong, request_reply_cycles, request_reply_cycles_with_background, stream,
    stream_count, stream_pipelined, StackKind,
};
use clic_core::ClicStats;
use clic_hw::nic::NicStats;
use clic_sim::{EngineProbe, Sim, SimDuration};
use clic_tcpip::tcp::TcpStats;
use std::sync::Mutex;

// `SOURCE_HASH`: the build script's FNV-1a of every simulator `src/` tree
// this crate is built from.
include!(concat!(env!("OUT_DIR"), "/source_hash.rs"));

/// Bump when the measurement schema changes (new/renamed value keys), so
/// stale cache entries from older binaries are never reused.
///
/// v2: every job also reports `m.`-prefixed per-run metric totals (drops,
/// retransmits, peak switch queue depth) from the [`clic_sim::Metrics`]
/// registry.
///
/// v3: the reliability figure family ([`JobKind::Reliability`]); the
/// drop total also counts FCS-discarded frames and the retransmit total
/// counts CLIC fast retransmits.
///
/// v4: the chaos/incast robustness family ([`JobKind::Chaos`],
/// [`JobKind::Incast`]).
///
/// v5: every job also reports `m.events` (simulator events executed),
/// which `clic-benchmark` sums into `sim.events` and `sim.events_per_s`.
///
/// v6: the cluster-scaling family ([`JobKind::ScaleCollective`]): barrier
/// and all-reduce latency on multi-switch fabrics, host-based vs
/// NIC-offloaded.
///
/// v7: the fabric-congestion family (`figures congestion`): every job also
/// reports `m.ecn_marks` (switch congestion marks) and `m.ecn_echoes`
/// (marks echoed on CLIC ACKs), and incast jobs report `goodput_mbps`.
pub const MEASUREMENT_SCHEMA_VERSION: u32 = 7;

/// The flat result of one job: named scalar values, in a stable,
/// job-defined order (stage breakdowns rely on the order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Measurement {
    /// `(name, value)` pairs, e.g. `("mbps", 461.8)`.
    pub values: Vec<(String, f64)>,
}

impl Measurement {
    fn push(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    /// Look up a value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a value by name, panicking with a diagnostic if absent
    /// (indicates a job/assembly mismatch, i.e. a bug).
    pub fn require(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("measurement has no value named {name:?}: {self:?}"))
    }
}

/// One deterministic simulation, described entirely by plain data.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Unidirectional message stream; reports bandwidth, CPU fractions,
    /// receiver interrupt counts and (for CLIC) retransmission counters.
    Stream {
        /// Cluster under test.
        cluster: ClusterConfig,
        /// Stack under test.
        stack: StackKind,
        /// Message size in bytes.
        size: usize,
        /// Message count (`stream_count(size)` for the standard sweeps).
        count: usize,
        /// Simulator seed.
        seed: u64,
        /// Use the offered-load (pipelined) sender of Ablation F.
        pipelined: bool,
    },
    /// Ping-pong latency; reports the one-way time.
    PingPong {
        /// Cluster under test.
        cluster: ClusterConfig,
        /// Stack under test.
        stack: StackKind,
        /// Message size in bytes.
        size: usize,
        /// Number of round trips averaged.
        rounds: usize,
        /// Simulator seed.
        seed: u64,
    },
    /// Figure 7: trace one 1400-byte CLIC packet and report the per-stage
    /// breakdown of the send/receive pipeline, in pipeline order.
    StageTrace {
        /// Cluster under test (CLIC, latency-tuned NIC).
        cluster: ClusterConfig,
        /// Simulator seed.
        seed: u64,
    },
    /// Ablation G: 64-byte request/reply latency, optionally while a bulk
    /// transfer saturates the same node pair.
    LoadedLatency {
        /// CLIC when true, the TCP baseline when false.
        clic: bool,
        /// Whether the competing bulk transfer runs.
        loaded: bool,
    },
    /// Reliability under loss: request/reply cycles over a faulty link
    /// (the cluster's [`ClusterConfig::faults`] plan); reports goodput,
    /// mean and p99 cycle latency, and the per-run retransmit/drop totals.
    Reliability {
        /// Cluster under test (carries the fault plan).
        cluster: ClusterConfig,
        /// Stack under test.
        stack: StackKind,
        /// Request size in bytes (replies are 4 bytes).
        size: usize,
        /// Number of request/reply cycles measured.
        rounds: usize,
        /// Simulator seed.
        seed: u64,
    },
    /// Ablation I: all-to-all exchange on a switched cluster; reports
    /// aggregate bandwidth.
    AllToAll {
        /// Cluster under test.
        cluster: ClusterConfig,
        /// Per-pair message size in bytes.
        size: usize,
        /// Simulator seed.
        seed: u64,
    },
    /// Chaos soak: stream tagged messages through crash/restart windows,
    /// link flaps and loss ([`crate::workload::chaos_clic`]); the workload
    /// asserts the robustness invariants and this job reports the
    /// accounting (confirmed/failed split, teardown causes, eras).
    Chaos {
        /// Cluster under test (two nodes, robustness knobs enabled,
        /// optionally lossy). Duplication/reorder fault models are not
        /// composed here — they would break the strict-order invariant.
        cluster: ClusterConfig,
        /// Message size in bytes (≥ 8; carries the order tag).
        size: usize,
        /// Messages streamed.
        nmsgs: usize,
        /// Crash/restart cycles of the receiver node.
        crashes: usize,
        /// Link flaps.
        flaps: usize,
        /// Simulator seed; the fault schedule derives from it too.
        seed: u64,
    },
    /// Cluster scaling: whole-cluster barrier + u64 all-reduce latency
    /// ([`crate::workload::collective_scale`]) on a multi-switch fabric,
    /// either host-based (linear MPI algorithms) or offloaded to the NIC
    /// combining-tree engine.
    ScaleCollective {
        /// Cluster under test (a fabric topology, CLIC nodes).
        cluster: ClusterConfig,
        /// Run on the NIC engine instead of the host MPI layer.
        offload: bool,
        /// Simulator seed.
        seed: u64,
    },
    /// N→1 incast into a slow consumer ([`crate::workload::incast_clic`]);
    /// reports completion latency and the receive-buffer peak, with or
    /// without an advertised-window budget.
    Incast {
        /// Cluster under test (switched, ≥ 3 nodes; node 0 receives).
        cluster: ClusterConfig,
        /// Message size in bytes.
        size: usize,
        /// Messages each sender posts.
        per_sender: usize,
        /// Consumer think time per message, µs.
        consume_delay_us: u64,
        /// Simulator seed.
        seed: u64,
    },
}

/// A named, self-contained experiment job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Stable identifier, e.g. `"fig4/0-copy MTU 9000/size=65536"`. Also
    /// the key of the job's result in a [`crate::experiments::ResultMap`].
    pub id: String,
    /// What to simulate.
    pub kind: JobKind,
}

impl JobSpec {
    /// Build a job.
    pub fn new(id: impl Into<String>, kind: JobKind) -> JobSpec {
        JobSpec {
            id: id.into(),
            kind,
        }
    }

    /// Run the simulation described by this job. Pure: same spec, same
    /// [`Measurement`], bit for bit, on any thread.
    pub fn run(&self) -> Measurement {
        self.kind.run()
    }

    /// Content hash of everything the result depends on: the full job
    /// configuration (the [`JobKind`]'s `Debug` text, including any
    /// embedded [`ClusterConfig`] and its cost model), the
    /// calibrated-era constants used by jobs that build their configs
    /// internally, the measurement schema version, and the simulator
    /// source the binary was built from. Changing any constant in
    /// `calibration.rs`, or any file under a simulator crate's `src/`,
    /// therefore changes the fingerprint and invalidates cached results.
    /// The id is not hashed: specs that simulate the same thing under
    /// different ids share a fingerprint, one cache entry and one run.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_with(SOURCE_HASH)
    }

    fn fingerprint_with(&self, source_hash: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write(format!("{:?}", self.kind).as_bytes());
        h.write(format!("{:?}", CostModel::era_2002()).as_bytes());
        h.write(&MEASUREMENT_SCHEMA_VERSION.to_le_bytes());
        h.write(&source_hash.to_le_bytes());
        h.finish()
    }
}

/// 64-bit FNV-1a. Stable across platforms and Rust versions (unlike
/// `DefaultHasher`), which the on-disk cache relies on.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so concatenations can't collide field boundaries.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

impl JobKind {
    /// Execute the simulation. See [`JobSpec::run`].
    pub fn run(&self) -> Measurement {
        // Cold-start the packet-buffer pool so the run's allocator
        // behaviour (and its `sim.pool.*` counters) depend only on this
        // job, never on what ran earlier on the worker thread.
        bytes::pool::reset();
        match self {
            JobKind::Stream {
                cluster,
                stack,
                size,
                count,
                seed,
                pipelined,
            } => run_stream(cluster, *stack, *size, *count, *seed, *pipelined),
            JobKind::PingPong {
                cluster,
                stack,
                size,
                rounds,
                seed,
            } => run_ping_pong(cluster, *stack, *size, *rounds, *seed),
            JobKind::StageTrace { cluster, seed } => run_stage_trace(cluster, *seed),
            JobKind::LoadedLatency { clic, loaded } => run_loaded_latency(*clic, *loaded),
            JobKind::Reliability {
                cluster,
                stack,
                size,
                rounds,
                seed,
            } => run_reliability(cluster, *stack, *size, *rounds, *seed),
            JobKind::AllToAll {
                cluster,
                size,
                seed,
            } => run_all_to_all(cluster, *size, *seed),
            JobKind::Chaos {
                cluster,
                size,
                nmsgs,
                crashes,
                flaps,
                seed,
            } => run_chaos(cluster, *size, *nmsgs, *crashes, *flaps, *seed),
            JobKind::Incast {
                cluster,
                size,
                per_sender,
                consume_delay_us,
                seed,
            } => run_incast(cluster, *size, *per_sender, *consume_delay_us, *seed),
            JobKind::ScaleCollective {
                cluster,
                offload,
                seed,
            } => run_scale_collective(cluster, *offload, *seed),
        }
    }
}

/// Prefix of the per-run metric totals every job appends (schema v2).
/// Figure assemblies that iterate a [`Measurement`] positionally must skip
/// keys carrying this prefix.
pub const METRIC_KEY_PREFIX: &str = "m.";

/// Optional engine-probe factory consulted by every job's simulator.
///
/// `None` (the default) leaves the engine's unprofiled fast path
/// untouched. `clic-benchmark`'s traced replay installs a factory — a
/// plain `fn` pointer so it can cross worker threads — before running a
/// job set, and each job then runs with its own probe instance. Probes
/// observe dispatch, they cannot schedule or touch the clock, so
/// measurements stay bit-identical with and without one installed.
static PROBE_FACTORY: Mutex<Option<ProbeFactory>> = Mutex::new(None);

/// A probe constructor: a plain `fn` pointer, so it is `Send + Sync` and
/// can build one probe per job on any worker thread.
pub type ProbeFactory = fn() -> Box<dyn EngineProbe>;

/// Install (or, with `None`, remove) the per-job engine-probe factory.
/// Affects every [`JobSpec::run`] in the process until changed; callers
/// profiling one job set at a time should reset it afterwards.
pub fn set_job_probe_factory(factory: Option<ProbeFactory>) {
    *PROBE_FACTORY.lock().expect("probe factory lock") = factory;
}

/// A job's simulator: seeded, and carrying a probe when a factory is
/// installed.
fn job_sim(seed: u64) -> Sim {
    let mut sim = Sim::new(seed);
    if let Some(f) = *PROBE_FACTORY.lock().expect("probe factory lock") {
        sim.set_probe(f());
    }
    sim
}

/// `f` of every CLIC module's stats, summed over the cluster's nodes.
fn clic_total(cluster: &Cluster, f: impl Fn(&ClicStats) -> u64) -> u64 {
    cluster
        .nodes
        .iter()
        .filter_map(|n| n.clic.as_ref())
        .map(|c| f(&c.borrow().stats()))
        .sum()
}

/// `f` of every NIC's stats, summed over the cluster's nodes.
fn nic_total(cluster: &Cluster, f: impl Fn(&NicStats) -> u64) -> u64 {
    cluster
        .nodes
        .iter()
        .flat_map(|n| &n.nics)
        .map(|nic| f(&nic.borrow().stats()))
        .sum()
}

/// `f` of every TCP stack's stats, summed over the cluster's nodes.
fn tcp_total(cluster: &Cluster, f: impl Fn(&TcpStats) -> u64) -> u64 {
    cluster
        .nodes
        .iter()
        .filter_map(|n| n.tcp.as_ref())
        .map(|t| f(&t.borrow().stats()))
        .sum()
}

/// Append the per-run observability totals to `m`: dropped frames/packets
/// across every layer, retransmissions across both stacks, and the peak
/// switch output-queue depth. Zero-valued when the run had no such events
/// (or, for the queue depth, no switch), so the schema is stable.
/// Node-owned counts are summed from the components' stats, their one
/// store; switch and link facts come from the run's registry.
fn push_metric_totals(m: &mut Measurement, cluster: &Cluster, sim: &Sim) {
    let drops = clic_total(cluster, |s| s.backlog_drops + s.duplicates + s.ooo_drops)
        + sim.metrics.counter("eth.switch.drops")
        + sim.metrics.counter("eth.link.frames_lost")
        + nic_total(cluster, |s| s.rx_no_buffer + s.rx_fcs_errors);
    let retransmits = clic_total(cluster, |s| s.retransmits)
        + tcp_total(cluster, |s| s.retransmits + s.fast_retransmits);
    m.push("m.drops", drops as f64);
    m.push("m.retransmits", retransmits as f64);
    m.push(
        "m.peak_switch_queue_depth",
        sim.metrics.gauge_peak("eth.switch.queue_depth") as f64,
    );
    m.push(
        "m.ecn_marks",
        sim.metrics.counter("eth.switch.ecn_marks") as f64,
    );
    m.push("m.ecn_echoes", clic_total(cluster, |s| s.ecn_echoes) as f64);
    m.push("m.events", sim.events_executed() as f64);
}

fn run_stream(
    config: &ClusterConfig,
    stack: StackKind,
    size: usize,
    count: usize,
    seed: u64,
    pipelined: bool,
) -> Measurement {
    let cluster = Cluster::build(config);
    let mut sim = job_sim(seed);
    let res = if pipelined {
        stream_pipelined(&cluster, &mut sim, stack, size, count)
    } else {
        stream(&cluster, &mut sim, stack, size, count)
    };
    let mut m = Measurement::default();
    m.push("mbps", res.mbps());
    m.push("sender_cpu", res.sender_cpu);
    m.push("receiver_cpu", res.receiver_cpu);
    let rx_kernel = cluster.nodes[1].kernel.borrow();
    m.push("rx_irqs", rx_kernel.stats().irqs as f64);
    m.push("rx_frames", rx_kernel.stats().frames_received as f64);
    drop(rx_kernel);
    if matches!(stack, StackKind::Clic) {
        let stats = cluster.nodes[0].clic().borrow().stats();
        m.push("retransmits", stats.retransmits as f64);
        m.push("packets_sent", stats.packets_sent as f64);
    }
    push_metric_totals(&mut m, &cluster, &sim);
    m
}

fn run_ping_pong(
    config: &ClusterConfig,
    stack: StackKind,
    size: usize,
    rounds: usize,
    seed: u64,
) -> Measurement {
    let cluster = Cluster::build(config);
    let mut sim = job_sim(seed);
    let pp = ping_pong(&cluster, &mut sim, stack, size, rounds);
    let mut m = Measurement::default();
    m.push("one_way_us", pp.one_way().as_us_f64());
    push_metric_totals(&mut m, &cluster, &sim);
    m
}

fn run_stage_trace(config: &ClusterConfig, seed: u64) -> Measurement {
    let cluster = Cluster::build(config);
    let mut sim = job_sim(seed);
    sim.trace = clic_sim::Trace::enabled();
    crate::observe::send_clic(&cluster, &mut sim, 1400);
    sim.run();

    let spans = sim
        .trace
        .spans_for(crate::observe::TRACE_ID)
        .expect("stage trace left unmatched begin/end marks");
    let span = |name: &str| spans.iter().find(|s| s.stage == name);
    let mut m = Measurement::default();
    let mut push = |stage: &str, d: Option<SimDuration>| {
        if let Some(d) = d {
            m.push(stage, d.as_us_f64());
        }
    };
    push("syscall", span("syscall").map(|s| s.duration()));
    push(
        "clic_module_tx",
        span("clic_module_tx").map(|s| s.duration()),
    );
    push("driver_tx", span("driver_tx").map(|s| s.duration()));
    push("nic_tx_dma", span("nic_tx_dma").map(|s| s.duration()));
    // Flight + interrupt wait: from the TX DMA completing to the receive
    // driver starting on the frame (wire + coalescing + IRQ entry).
    let flight = match (span("nic_tx_dma"), span("driver_rx")) {
        (Some(tx), Some(rx)) => rx.begin.checked_since(tx.end),
        _ => None,
    };
    push("flight+irq", flight);
    push("driver_rx", span("driver_rx").map(|s| s.duration()));
    push("bottom_half", span("bottom_half").map(|s| s.duration()));
    push(
        "clic_module_rx",
        span("clic_module_rx").map(|s| s.duration()),
    );
    push("copy_to_user", span("copy_to_user").map(|s| s.duration()));
    push_metric_totals(&mut m, &cluster, &sim);
    m
}

fn run_loaded_latency(is_clic: bool, loaded: bool) -> Measurement {
    let model = CostModel::era_2002();
    let (cfg, stack) = if is_clic {
        (clic_pair(&model, false, true), StackKind::Clic)
    } else {
        (tcp_pair(&model, false), StackKind::Tcp)
    };
    let cluster = Cluster::build(&cfg);
    let mut sim = job_sim(10);
    // Foreground: 64-byte request/reply cycles, sampled while the bulk
    // transfer (if any) of 24 512 KiB messages from node 0 to node 1 is in
    // flight. The hook runs after the foreground connection establishes;
    // a TCP bulk's own handshake runs alongside the first cycles.
    let mut bulk = None;
    let cycles =
        request_reply_cycles_with_background(&cluster, &mut sim, stack, 64, 4, 30, |sim| {
            if loaded {
                bulk = Some(offer_load(&cluster, sim, stack, 512 * 1024, 24));
            }
        });
    // Held until here: the bulk's ends must outlive the run.
    drop(bulk);
    let one_way = |d: Option<SimDuration>| d.map(|d| d.as_us_f64() / 2.0).unwrap_or(f64::NAN);
    let mut m = Measurement::default();
    m.push("min_us", one_way(cycles.min()));
    m.push("mean_us", one_way(cycles.mean()));
    m.push("p99_us", one_way(cycles.percentile(0.99)));
    push_metric_totals(&mut m, &cluster, &sim);
    m
}

fn run_reliability(
    config: &ClusterConfig,
    stack: StackKind,
    size: usize,
    rounds: usize,
    seed: u64,
) -> Measurement {
    let cluster = Cluster::build(config);
    let mut sim = job_sim(seed);
    let cycles = request_reply_cycles(&cluster, &mut sim, stack, size, 4, rounds);
    let mut m = Measurement::default();
    // Goodput: request bytes delivered per mean cycle. Derived from the
    // cycle times rather than the final sim clock so trailing timer drain
    // (stale RTOs, TCP TIME-WAIT) cannot skew it.
    let mbps = cycles
        .mean()
        .map(|d| (size as f64 * 8.0 * 1_000.0) / d.as_ns() as f64)
        .unwrap_or(0.0);
    let us = |d: Option<SimDuration>| d.map(|d| d.as_us_f64()).unwrap_or(f64::NAN);
    m.push("mbps", mbps);
    m.push("mean_us", us(cycles.mean()));
    m.push("p99_us", us(cycles.percentile(0.99)));
    push_metric_totals(&mut m, &cluster, &sim);
    m
}

fn run_chaos(
    config: &ClusterConfig,
    size: usize,
    nmsgs: usize,
    crashes: usize,
    flaps: usize,
    seed: u64,
) -> Measurement {
    let cluster = Cluster::build(config);
    let mut sim = job_sim(seed);
    let plan = crate::workload::ChaosPlan::draw(seed, crashes, flaps);
    let out = crate::workload::chaos_clic(&cluster, &mut sim, size, nmsgs, &plan);
    let mut m = Measurement::default();
    m.push("posted", out.posted as f64);
    m.push("confirmed", out.confirmed as f64);
    m.push("failed", out.failed as f64);
    m.push("delivered", out.delivered as f64);
    m.push("err_max_retries", out.errors_max_retries as f64);
    m.push("err_peer_dead", out.errors_peer_dead as f64);
    m.push("err_stale_epoch", out.errors_stale_epoch as f64);
    m.push("eras", out.eras as f64);
    m.push("last_delivery_us", out.last_delivery.as_us_f64());
    m.push(
        "stale_epoch_drops",
        clic_total(&cluster, |s| s.stale_epoch_drops) as f64,
    );
    m.push(
        "expired_drops",
        clic_total(&cluster, |s| s.expired_drops) as f64,
    );
    push_metric_totals(&mut m, &cluster, &sim);
    m
}

fn run_incast(
    config: &ClusterConfig,
    size: usize,
    per_sender: usize,
    consume_delay_us: u64,
    seed: u64,
) -> Measurement {
    let cluster = Cluster::build(config);
    let mut sim = job_sim(seed);
    let out = crate::workload::incast_clic(
        &cluster,
        &mut sim,
        size,
        per_sender,
        SimDuration::from_us(consume_delay_us),
    );
    let us = |d: Option<SimDuration>| d.map(|d| d.as_us_f64()).unwrap_or(f64::NAN);
    let mut m = Measurement::default();
    m.push("delivered", out.delivered as f64);
    m.push("mean_us", us(out.completion.mean()));
    m.push("p99_us", us(out.completion.percentile(0.99)));
    // The peak is the larger of the workload's per-delivery samples and
    // the gauge the module updates at every ACK.
    let peak =
        (out.peak_buffered_bytes as i64).max(sim.metrics.gauge_peak("clic.recv_buffer_bytes"));
    m.push("peak_buffered_bytes", peak as f64);
    m.push("elapsed_us", out.elapsed.as_us_f64());
    // Receiver goodput over the whole incast: delivered payload bits per
    // elapsed microsecond = Mb/s.
    let elapsed_us = out.elapsed.as_us_f64();
    let goodput = if elapsed_us > 0.0 {
        (out.delivered as f64 * size as f64 * 8.0) / elapsed_us
    } else {
        0.0
    };
    m.push("goodput_mbps", goodput);
    push_metric_totals(&mut m, &cluster, &sim);
    m
}

fn run_scale_collective(config: &ClusterConfig, offload: bool, seed: u64) -> Measurement {
    let cluster = Cluster::build(config);
    let mut sim = job_sim(seed);
    let res = crate::workload::collective_scale(&cluster, &mut sim, offload);
    let mut m = Measurement::default();
    m.push("barrier_us", res.barrier.as_us_f64());
    m.push("allreduce_us", res.allreduce.as_us_f64());
    if let Some(fabric) = &cluster.fabric {
        m.push("switches", fabric.switch_count() as f64);
        m.push("trunks", fabric.trunk_count() as f64);
        m.push(
            "flood_pruned",
            sim.metrics.counter("eth.fabric.flood_pruned") as f64,
        );
    }
    m.push("coll_msgs", nic_total(&cluster, |s| s.coll_msgs_rx) as f64);
    m.push(
        "host_irqs",
        cluster
            .nodes
            .iter()
            .map(|n| n.kernel.borrow().stats().irqs)
            .sum::<u64>() as f64,
    );
    push_metric_totals(&mut m, &cluster, &sim);
    m
}

fn run_all_to_all(config: &ClusterConfig, size: usize, seed: u64) -> Measurement {
    let cluster = Cluster::build(config);
    let mut sim = job_sim(seed);
    let res = crate::workload::all_to_all_clic(&cluster, &mut sim, size);
    let mut m = Measurement::default();
    m.push("aggregate_mbps", res.aggregate_mbps());
    push_metric_totals(&mut m, &cluster, &sim);
    m
}

/// Convenience: a standard-sweep stream job (`stream_count(size)`
/// messages, seed = size, not pipelined — exactly the historical
/// `bandwidth_sweep` point).
pub fn sweep_point(
    id: impl Into<String>,
    cluster: ClusterConfig,
    stack: StackKind,
    size: usize,
) -> JobSpec {
    JobSpec::new(
        id,
        JobKind::Stream {
            cluster,
            stack,
            size,
            count: stream_count(size),
            seed: size as u64,
            pipelined: false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;

    #[test]
    fn fingerprint_is_stable_and_config_sensitive() {
        let model = CostModel::era_2002();
        let mk = |size: usize| {
            sweep_point(
                "t/x",
                experiments::clic_pair(&model, true, true),
                StackKind::Clic,
                size,
            )
        };
        assert_eq!(mk(1024).fingerprint(), mk(1024).fingerprint());
        assert_ne!(mk(1024).fingerprint(), mk(2048).fingerprint());
        // Same config, different id: one cache entry, one run.
        let mut renamed = mk(1024);
        renamed.id = "t/y".into();
        assert_eq!(renamed.fingerprint(), mk(1024).fingerprint());
        // Config changes invalidate.
        let mut tweaked = mk(1024);
        if let JobKind::Stream { cluster, .. } = &mut tweaked.kind {
            cluster.model.link_bps += 1;
        }
        assert_ne!(tweaked.fingerprint(), mk(1024).fingerprint());
    }

    #[test]
    fn fingerprint_covers_the_simulator_source() {
        // A simulator source edit changes the build-time source hash, so a
        // result cached by the old binary can never be served.
        let model = CostModel::era_2002();
        let spec = sweep_point(
            "t/x",
            experiments::clic_pair(&model, true, true),
            StackKind::Clic,
            1024,
        );
        assert_eq!(spec.fingerprint(), spec.fingerprint_with(SOURCE_HASH));
        assert_ne!(spec.fingerprint_with(1), spec.fingerprint_with(2));
        assert_ne!(
            spec.fingerprint_with(SOURCE_HASH),
            spec.fingerprint_with(SOURCE_HASH ^ 1)
        );
    }

    #[test]
    fn jobs_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<JobSpec>();
        assert_send::<Measurement>();
    }

    #[test]
    fn measurement_lookup() {
        let mut m = Measurement::default();
        m.push("a", 1.0);
        m.push("b", 2.0);
        assert_eq!(m.get("b"), Some(2.0));
        assert_eq!(m.get("c"), None);
        assert_eq!(m.require("a"), 1.0);
    }

    #[test]
    fn stream_job_runs_and_reports() {
        let model = CostModel::era_2002();
        let spec = sweep_point(
            "t/stream",
            experiments::clic_pair(&model, false, true),
            StackKind::Clic,
            4096,
        );
        let m = spec.run();
        assert!(m.require("mbps") > 0.0);
        assert!(m.get("retransmits").is_some());
        // Re-running is bit-identical (purity).
        let m2 = spec.run();
        assert_eq!(
            m.values
                .iter()
                .map(|(n, v)| (n.clone(), v.to_bits()))
                .collect::<Vec<_>>(),
            m2.values
                .iter()
                .map(|(n, v)| (n.clone(), v.to_bits()))
                .collect::<Vec<_>>(),
        );
    }
}
