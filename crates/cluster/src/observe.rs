//! Cross-layer observability: traced pipeline runs, breakdown reports
//! and per-node metric collection.
//!
//! [`run_pipeline_trace`] drives one traced message of any size through a
//! two-node cluster at any MTU and returns everything the `figures trace`
//! subcommand needs: Chrome trace-event JSON (load it in Perfetto or
//! `chrome://tracing`), a per-stage breakdown table, and the metrics
//! registry with per-node stat snapshots ([`collect_metrics`]). With the
//! defaults (`fig7a`, 1400 bytes, MTU 1500) the span durations are
//! exactly Figure 7a's stage timings.

use crate::builder::{Cluster, ClusterConfig, Topology};
use crate::calibration::CostModel;
use crate::experiments::{
    chaos_pair, clic_pair, congestion_cluster, incast_cluster, reliability_loss, tcp_pair,
};
use crate::workload::{chaos_clic, incast_clic, request_reply_cycles, ChaosPlan, StackKind};
use bytes::Bytes;
use clic_sim::{Metrics, Sim, SimDuration, StageSpan, TimelineRecorder};
use clic_tcpip::TcpStack;

/// Trace id carried by the instrumented message (0 means untraced, so any
/// non-zero constant works; 42 matches the Figure 7 experiment).
pub const TRACE_ID: u64 = 42;

/// The device MTUs [`run_pipeline_trace`] accepts, in bytes.
pub const TRACE_MTU: std::ops::RangeInclusive<usize> = 128..=9_000;

/// The message sizes [`run_pipeline_trace`] accepts, in bytes. The cap
/// keeps the payload allocatable; 1 GiB already traces ~4.3 M spans.
pub const TRACE_SIZE: std::ops::RangeInclusive<usize> = 1..=1 << 30;

/// Which pipeline the traced message crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceScenario {
    /// CLIC with the portable interrupt + bottom-half receive path
    /// (Figure 7a).
    Fig7a,
    /// CLIC with direct dispatch from the IRQ and host-memory rings
    /// (the Figure 8b improvement; Figure 7b).
    Fig7b,
    /// The Figure 7a pipeline over a lossy forward link (every 4th frame
    /// dropped, clean reverse path, aggressive fast retransmit) — shows
    /// the recovery machinery (`rto` / `fast_retransmit` instants) in the
    /// trace.
    Fig7aLossy,
    /// The TCP/IP baseline on the same latency-tuned hardware.
    Tcp,
}

impl TraceScenario {
    /// Every scenario, in display order.
    pub const ALL: [TraceScenario; 4] = [
        TraceScenario::Fig7a,
        TraceScenario::Fig7b,
        TraceScenario::Fig7aLossy,
        TraceScenario::Tcp,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            TraceScenario::Fig7a => "fig7a",
            TraceScenario::Fig7b => "fig7b",
            TraceScenario::Fig7aLossy => "fig7a-lossy",
            TraceScenario::Tcp => "tcp",
        }
    }

    /// Parse a CLI spelling (`fig7a`/`7a`, `fig7b`/`7b`, `fig7a-lossy`/
    /// `lossy`, `tcp`).
    pub fn parse(s: &str) -> Option<TraceScenario> {
        match s {
            "fig7a" | "7a" | "clic" => Some(TraceScenario::Fig7a),
            "fig7b" | "7b" | "direct" => Some(TraceScenario::Fig7b),
            "fig7a-lossy" | "lossy" => Some(TraceScenario::Fig7aLossy),
            "tcp" => Some(TraceScenario::Tcp),
            _ => None,
        }
    }
}

/// One row of the pipeline-breakdown report: a `(layer, stage)` pair
/// aggregated over every span the traced message produced (fragmented
/// messages cross a stage once per packet).
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Emitting layer's display name.
    pub layer: &'static str,
    /// Stage name.
    pub stage: &'static str,
    /// Spans aggregated into this row.
    pub count: u64,
    /// Summed span duration, µs.
    pub total_us: f64,
}

impl BreakdownRow {
    /// Mean span duration, µs.
    pub fn mean_us(&self) -> f64 {
        self.total_us / self.count as f64
    }
}

/// Everything one traced pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineTrace {
    /// The scenario that ran.
    pub scenario: TraceScenario,
    /// Message size, bytes.
    pub size: usize,
    /// Device MTU, bytes.
    pub mtu: usize,
    /// Chrome trace-event JSON of the whole run (all layers, all ids).
    pub chrome_json: String,
    /// The traced message's spans, in pipeline order (strict: the run
    /// panics on unmatched begin/end marks).
    pub spans: Vec<StageSpan>,
    /// Per-stage aggregation of `spans`, in first-appearance order.
    pub breakdown: Vec<BreakdownRow>,
    /// The run's registry plus per-node `n{id}.`-prefixed stat snapshots
    /// ([`collect_metrics`]).
    pub metrics: Metrics,
}

fn trace_config(scenario: TraceScenario, mtu: usize) -> ClusterConfig {
    let model = CostModel::era_2002();
    let jumbo = mtu > 1500;
    let mut cfg = match scenario {
        TraceScenario::Fig7a | TraceScenario::Fig7b | TraceScenario::Fig7aLossy => {
            clic_pair(&model, jumbo, true)
        }
        TraceScenario::Tcp => tcp_pair(&model, jumbo),
    };
    cfg.node.nic = model.nic_low_latency(jumbo);
    cfg.node.nic.mtu = mtu;
    if scenario == TraceScenario::Fig7b {
        cfg.node.direct_dispatch = true;
        cfg.node.nic.host_rings = true;
    }
    if scenario == TraceScenario::Fig7aLossy {
        // Deterministic loss on the data direction only (ACKs come back
        // clean), and a hair-trigger fast retransmit so a short trace
        // shows both recovery paths.
        cfg.faults.loss = clic_ethernet::LossModel::EveryNth(4);
        cfg.faults_reverse = Some(clic_ethernet::FaultPlan::default());
        if let Some(clic) = &mut cfg.node.clic {
            clic.fast_retransmit_dupacks = 2;
        }
    }
    cfg
}

fn send_clic(cluster: &Cluster, sim: &mut Sim, size: usize) {
    const CH: u16 = 100;
    let a = &cluster.nodes[0];
    let b = &cluster.nodes[1];
    let pid_a = a.kernel.borrow_mut().processes.spawn("tx");
    let pid_b = b.kernel.borrow_mut().processes.spawn("rx");
    let tx = clic_core::ClicPort::bind(&a.clic(), pid_a, CH);
    let rx = clic_core::ClicPort::bind(&b.clic(), pid_b, CH);
    rx.recv(sim, |_s, _m| {});
    let data = Bytes::from(vec![0x55u8; size]);
    tx.send_traced(sim, b.mac, CH, data, TRACE_ID);
}

fn send_tcp(cluster: &Cluster, sim: &mut Sim, size: usize) {
    const PORT: u16 = 9000;
    let a = cluster.nodes[0].tcp();
    let b = cluster.nodes[1].tcp();
    // Weak: the stack holds its listeners, and the node owns the stack.
    let b2 = std::rc::Rc::downgrade(&b);
    b.borrow_mut().listen(PORT, move |sim, conn| {
        let b = b2.upgrade().expect("TCP stack dropped while it listens");
        TcpStack::recv(&b, sim, conn, size, |_s, _m| {});
    });
    let dst = cluster.nodes[1].ip;
    TcpStack::connect(&a.clone(), sim, dst, PORT, move |sim, conn| {
        let data = Bytes::from(vec![0x55u8; size]);
        TcpStack::send_traced(&a, sim, conn, data, TRACE_ID);
    });
}

/// Run one traced `size`-byte message through `scenario`'s pipeline at
/// device MTU `mtu`. `size` must lie in [`TRACE_SIZE`] and `mtu` in
/// [`TRACE_MTU`]. The run is
/// deterministic for a given `seed`: the returned JSON, breakdown and
/// metrics dump are byte-stable.
pub fn run_pipeline_trace(
    scenario: TraceScenario,
    size: usize,
    mtu: usize,
    seed: u64,
) -> PipelineTrace {
    assert!(
        TRACE_SIZE.contains(&size),
        "size {size} outside {TRACE_SIZE:?}"
    );
    assert!(TRACE_MTU.contains(&mtu), "MTU {mtu} outside {TRACE_MTU:?}");
    // Cold-start the buffer pool so the metrics dump's `sim.pool.*` lines
    // are a pure function of this trace run.
    bytes::pool::reset();
    let config = trace_config(scenario, mtu);
    let cluster = Cluster::build(&config);
    let mut sim = Sim::new(seed);
    sim.trace = clic_sim::Trace::enabled();
    match scenario {
        TraceScenario::Fig7a | TraceScenario::Fig7b | TraceScenario::Fig7aLossy => {
            send_clic(&cluster, &mut sim, size)
        }
        TraceScenario::Tcp => send_tcp(&cluster, &mut sim, size),
    }
    sim.run();
    let spans = sim
        .trace
        .spans_for(TRACE_ID)
        .expect("traced run left unmatched begin/end marks");
    debug_assert!(
        sim.trace.uncataloged_stages().is_empty(),
        "stages missing from crates/sim/src/catalog.rs: {:?}",
        sim.trace.uncataloged_stages()
    );
    let breakdown = breakdown_rows(&spans);
    let metrics = collect_metrics(&cluster, &sim);
    PipelineTrace {
        scenario,
        size,
        mtu,
        chrome_json: sim.trace.chrome_trace_json(),
        spans,
        breakdown,
        metrics,
    }
}

/// Everything one traced NIC-collective run produces.
#[derive(Debug, Clone)]
pub struct CollectiveTrace {
    /// Participating nodes.
    pub nodes: usize,
    /// Chrome trace-event JSON of the whole barrier: the engines'
    /// `nic_coll_up` / `nic_coll_down` instants plus the wire spans of
    /// every control frame crossing the fabric.
    pub chrome_json: String,
    /// The run's registry plus per-node stat snapshots
    /// ([`collect_metrics`]).
    pub metrics: Metrics,
}

/// Run one traced NIC-offloaded barrier across a `nodes`-host leaf–spine
/// fabric and return the Chrome trace. Every engine message carries
/// [`TRACE_ID`], so the up-phase combining and the single multicast
/// release are visible as instant events per NIC. Deterministic for a
/// given `seed`: the JSON is byte-stable (golden-file tested).
pub fn run_collective_trace(nodes: usize, seed: u64) -> CollectiveTrace {
    use clic_hw::coll::CollConfig;
    use clic_hw::Nic;

    assert!(nodes >= 2, "a barrier needs at least two ranks");
    bytes::pool::reset();
    let model = CostModel::era_2002();
    let config =
        crate::experiments::scale_cluster(&model, nodes, crate::builder::Topology::LeafSpine);
    let cluster = Cluster::build(&config);
    let mut sim = Sim::new(seed);
    sim.trace = clic_sim::Trace::enabled();

    let members: Vec<_> = cluster.nodes.iter().map(|n| n.mac).collect();
    let released = std::rc::Rc::new(std::cell::RefCell::new(0usize));
    for (rank, node) in cluster.nodes.iter().enumerate() {
        let nic = node.nic();
        let mut coll = CollConfig::new(1, members.clone(), rank);
        coll.trace = TRACE_ID;
        Nic::enable_collectives(&nic, coll);
        let r = released.clone();
        Nic::coll_barrier(&nic, &mut sim, move |_sim| *r.borrow_mut() += 1);
    }
    sim.run();
    assert_eq!(*released.borrow(), nodes, "every rank must be released");
    let metrics = collect_metrics(&cluster, &sim);
    CollectiveTrace {
        nodes,
        chrome_json: sim.trace.chrome_trace_json(),
        metrics,
    }
}

/// Which scenario a timeline run replays. Each is a fixed, fully
/// parameterised cell from an existing figure family, so the recorded
/// series are directly comparable with the corresponding figure rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineScenario {
    /// One 64 KiB traced CLIC message through the Figure 7a pipeline at
    /// MTU 1500 — the window/in-flight ramp of a single fragmented send.
    Fig7a,
    /// 32 request/reply cycles of 64 KiB over a 2 % uniform-loss link —
    /// retransmission stalls show up as plateaus in the in-flight series.
    Reliability,
    /// The 5-node budget-bounded incast cell: four senders into one
    /// consumer-paced receiver. Switch queue depth and receiver buffer
    /// occupancy are the headline series.
    Incast,
    /// A lossy chaos soak (crash/restart plus link flaps), recorded in
    /// flight-recorder mode: only the last [`CHAOS_FLIGHT_BUCKETS`]
    /// buckets per series survive, as a crash-dump recorder would keep.
    Chaos,
    /// The ECN-enabled 8→1 incast cell from the congestion figure family:
    /// eight full-window senders into one leaf–spine receiver with switch
    /// marking armed and the DCTCP-flavoured congestion window active.
    /// The cwnd sawtooth (`clic.cwnd`), `clic.ssthresh` and the fabric's
    /// `eth.switch.ecn_marks` rate are the headline series.
    Congestion,
}

/// Ring capacity (sealed buckets per series) for the chaos scenario's
/// flight-recorder mode.
pub const CHAOS_FLIGHT_BUCKETS: usize = 512;

impl TimelineScenario {
    /// Every scenario, in display order.
    pub const ALL: [TimelineScenario; 5] = [
        TimelineScenario::Fig7a,
        TimelineScenario::Reliability,
        TimelineScenario::Incast,
        TimelineScenario::Chaos,
        TimelineScenario::Congestion,
    ];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            TimelineScenario::Fig7a => "fig7a",
            TimelineScenario::Reliability => "reliability",
            TimelineScenario::Incast => "incast",
            TimelineScenario::Chaos => "chaos",
            TimelineScenario::Congestion => "congestion",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<TimelineScenario> {
        match s {
            "fig7a" | "7a" => Some(TimelineScenario::Fig7a),
            "reliability" | "loss" => Some(TimelineScenario::Reliability),
            "incast" => Some(TimelineScenario::Incast),
            "chaos" => Some(TimelineScenario::Chaos),
            "congestion" | "cwnd" => Some(TimelineScenario::Congestion),
            _ => None,
        }
    }

    /// Ring capacity the scenario runs with by default: the chaos soak
    /// demonstrates flight-recorder mode, the rest keep full history.
    pub fn default_flight(self) -> Option<usize> {
        match self {
            TimelineScenario::Chaos => Some(CHAOS_FLIGHT_BUCKETS),
            _ => None,
        }
    }
}

/// Everything one timeline replay produces.
#[derive(Debug, Clone)]
pub struct TimelineRun {
    /// The scenario that ran.
    pub scenario: TimelineScenario,
    /// Bucket width used for sampling.
    pub bucket: SimDuration,
    /// Deterministic CSV dump of every recorded series
    /// ([`TimelineRecorder::dump`]).
    pub csv: String,
    /// Chrome trace-event JSON: the run's stage spans plus one counter
    /// track (`"ph": "C"`) per timeline series. Loadable in Perfetto.
    pub chrome_json: String,
    /// Number of recorded series.
    pub series: usize,
}

/// Replay `scenario` with the timeline recorder sampling into
/// `bucket`-wide bins, and return the plottable output. `flight` bounds
/// each series to its last N sealed buckets (ring mode); `None` keeps
/// full history. The run is single-simulation and seeded, so the CSV and
/// JSON are byte-stable regardless of how many worker threads the
/// calling harness uses.
pub fn run_timeline(
    scenario: TimelineScenario,
    bucket: SimDuration,
    flight: Option<usize>,
) -> TimelineRun {
    assert!(bucket.as_ns() > 0, "bucket width must be positive");
    // Cold-start the buffer pool for parity with the traced runs: the
    // timeline output must be a pure function of this replay.
    bytes::pool::reset();
    let model = CostModel::era_2002();
    let (config, seed) = match scenario {
        TimelineScenario::Fig7a => (trace_config(TraceScenario::Fig7a, 1500), 0),
        TimelineScenario::Reliability => {
            let mut cfg = clic_pair(&model, false, true);
            cfg.faults.loss = reliability_loss(0.02, false);
            (cfg, 21)
        }
        TimelineScenario::Incast => (incast_cluster(&model, 5, Some(64 * 1024)), 9),
        TimelineScenario::Chaos => (chaos_pair(&model, 0.5), 2),
        TimelineScenario::Congestion => {
            (congestion_cluster(&model, 9, Topology::LeafSpine, true), 11)
        }
    };
    let cluster = Cluster::build(&config);
    let mut sim = Sim::new(seed);
    sim.trace = clic_sim::Trace::enabled();
    sim.timeline = match flight {
        Some(n) => TimelineRecorder::flight_recorder(bucket, n),
        None => TimelineRecorder::enabled(bucket),
    };
    match scenario {
        TimelineScenario::Fig7a => send_clic(&cluster, &mut sim, 64 * 1024),
        TimelineScenario::Reliability => {
            request_reply_cycles(&cluster, &mut sim, StackKind::Clic, 65_536, 4, 32);
        }
        TimelineScenario::Incast => {
            incast_clic(&cluster, &mut sim, 8_192, 8, SimDuration::from_us(150));
        }
        TimelineScenario::Chaos => {
            let plan = ChaosPlan::draw(seed, 2, 2);
            chaos_clic(&cluster, &mut sim, 2_048, 40, &plan);
        }
        TimelineScenario::Congestion => {
            // Full-speed consumer: the fabric, not the application, is
            // the bottleneck, so marking drives the cwnd sawtooth.
            incast_clic(&cluster, &mut sim, 8_192, 12, SimDuration::ZERO);
        }
    }
    // Fig7a posts and returns; the workload runners drain the queue
    // themselves, in which case this is a no-op.
    sim.run();
    sim.timeline.finish(sim.now());
    let rows = sim.timeline.chrome_counter_rows();
    TimelineRun {
        scenario,
        bucket,
        csv: sim.timeline.dump(),
        chrome_json: sim.trace.chrome_trace_json_with(&rows),
        series: sim.timeline.series_count(),
    }
}

/// Aggregate spans into per-`(layer, stage)` rows, ordered by each
/// stage's first appearance (spans arrive sorted by begin time).
pub fn breakdown_rows(spans: &[StageSpan]) -> Vec<BreakdownRow> {
    let mut rows: Vec<BreakdownRow> = Vec::new();
    for s in spans {
        let us = s.duration().as_us_f64();
        match rows
            .iter_mut()
            .find(|r| r.stage == s.stage && r.layer == s.layer.name())
        {
            Some(r) => {
                // lint:allow(time-overflow, reason="span tally for a report row, not a timestamp; cannot plausibly wrap")
                r.count += 1;
                // lint:allow(time-overflow, reason="f64 accumulation of span microseconds; floats saturate, they do not wrap")
                r.total_us += us;
            }
            None => rows.push(BreakdownRow {
                layer: s.layer.name(),
                stage: s.stage,
                count: 1,
                total_us: us,
            }),
        }
    }
    rows
}

/// Render breakdown rows as the fixed-width table `figures trace` prints.
pub fn breakdown_table(rows: &[BreakdownRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:<6} {:>5} {:>10} {:>9}",
        "stage", "layer", "count", "total us", "mean us"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<16} {:<6} {:>5} {:>10.2} {:>9.2}",
            r.stage,
            r.layer,
            r.count,
            r.total_us,
            r.mean_us()
        )
        .unwrap();
    }
    out
}

/// The run's registry plus every node-owned count, as one registry whose
/// [`Metrics::dump`] is the `--metrics` report. Each fact appears once:
/// the kernel, NIC (collective engine included), CLIC and TCP counts live
/// only in their components' stats and are exported here under an
/// `n{id}.` prefix; cluster-level facts (switches, links, buses, the
/// buffer pool) keep their unprefixed names.
pub fn collect_metrics(cluster: &Cluster, sim: &Sim) -> Metrics {
    let mut reg = sim.metrics.clone();
    for node in &cluster.nodes {
        let p = |name: &str| format!("n{}.{name}", node.id);
        let ks = node.kernel.borrow().stats();
        reg.counter_add(&p("os.syscalls"), ks.syscalls);
        reg.counter_add(&p("os.lightweight_calls"), ks.lightweight_calls);
        reg.counter_add(&p("os.irqs"), ks.irqs);
        reg.counter_add(&p("os.bottom_halves"), ks.bhs);
        reg.counter_add(&p("os.context_switches"), ks.context_switches);
        reg.counter_add(&p("os.frames_received"), ks.frames_received);
        for nic in &node.nics {
            let nic = nic.borrow();
            let ns = nic.stats();
            reg.counter_add(&p("hw.nic.tx_frames"), ns.tx_frames);
            reg.counter_add(&p("hw.nic.rx_frames"), ns.rx_frames);
            reg.counter_add(&p("hw.nic.tx_ring_full"), ns.tx_ring_full);
            reg.counter_add(&p("hw.nic.rx_no_buffer"), ns.rx_no_buffer);
            reg.counter_add(&p("hw.nic.rx_fcs_errors"), ns.rx_fcs_errors);
            reg.counter_add(&p("hw.nic.irqs"), ns.irqs);
            if nic.collectives_enabled() {
                reg.counter_add(&p("hw.nic.coll.msgs_rx"), ns.coll_msgs_rx);
                reg.counter_add(&p("hw.nic.coll.msgs_tx"), ns.coll_msgs_tx);
                reg.counter_add(&p("hw.nic.coll.completions"), ns.coll_completions);
            }
        }
        if let Some(clic) = &node.clic {
            let cs = clic.borrow().stats();
            reg.counter_add(&p("clic.msgs_sent"), cs.msgs_sent);
            reg.counter_add(&p("clic.msgs_received"), cs.msgs_received);
            reg.counter_add(&p("clic.packets_sent"), cs.packets_sent);
            reg.counter_add(&p("clic.packets_received"), cs.packets_received);
            reg.counter_add(&p("clic.retransmits"), cs.retransmits);
            reg.counter_add(&p("clic.fast_retransmits"), cs.fast_retransmits);
            reg.counter_add(&p("clic.flow_failures"), cs.flow_failures);
            reg.counter_add(&p("clic.staged_copies"), cs.staged_copies);
            reg.counter_add(&p("clic.drops.backlog"), cs.backlog_drops);
            reg.counter_add(&p("clic.drops.duplicate"), cs.duplicates);
            reg.counter_add(&p("clic.drops.ooo"), cs.ooo_drops);
            reg.counter_add(&p("clic.drops.stale_epoch"), cs.stale_epoch_drops);
            reg.counter_add(&p("clic.drops.expired"), cs.expired_drops);
            reg.counter_add(
                &p("clic.flow_failures.max_retries"),
                cs.flow_failures_max_retries,
            );
            reg.counter_add(
                &p("clic.flow_failures.peer_dead"),
                cs.flow_failures_peer_dead,
            );
            reg.counter_add(
                &p("clic.flow_failures.stale_epoch"),
                cs.flow_failures_stale_epoch,
            );
            reg.counter_add(&p("clic.keepalive_probes"), cs.keepalive_probes);
            reg.counter_add(&p("clic.ecn_echoes"), cs.ecn_echoes);
        }
        if let Some(tcp) = &node.tcp {
            let ts = tcp.borrow().stats();
            reg.counter_add(&p("tcp.retransmits"), ts.retransmits);
            reg.counter_add(&p("tcp.fast_retransmits"), ts.fast_retransmits);
        }
    }
    if let Some(sw) = &cluster.switch {
        let sw = sw.borrow();
        reg.counter_add("eth.switch.frames_forwarded", sw.frames_forwarded());
        reg.counter_add("eth.switch.frames_flooded", sw.frames_flooded());
    }
    // Packet-buffer pool traffic since the run's `bytes::pool::reset()`.
    let ps = bytes::pool::stats();
    reg.counter_add("sim.pool.recycled", ps.recycled);
    reg.counter_add("sim.pool.alloc_misses", ps.misses);
    reg.counter_add("sim.pool.returned", ps.returned);
    reg.counter_add("sim.pool.discarded", ps.discarded);
    reg.counter_add("sim.pool.oversize", ps.oversize);
    debug_assert!(
        reg.uncataloged().is_empty(),
        "metrics missing from crates/sim/src/catalog.rs: {:?}",
        reg.uncataloged()
    );
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn scenario_names_round_trip() {
        for s in TraceScenario::ALL {
            assert_eq!(TraceScenario::parse(s.name()), Some(s));
        }
        assert_eq!(TraceScenario::parse("7b"), Some(TraceScenario::Fig7b));
        assert_eq!(TraceScenario::parse("nope"), None);
    }

    #[test]
    fn fig7a_trace_covers_the_pipeline() {
        let t = run_pipeline_trace(TraceScenario::Fig7a, 1400, 1500, 0);
        let stages: Vec<&str> = t.breakdown.iter().map(|r| r.stage).collect();
        for want in [
            "syscall",
            "clic_module_tx",
            "driver_tx",
            "nic_tx_dma",
            "wire",
            "driver_rx",
            "bottom_half",
            "clic_module_rx",
            "copy_to_user",
        ] {
            assert!(stages.contains(&want), "missing stage {want}: {stages:?}");
        }
        // One 1400-byte packet: every stage crossed exactly once.
        assert!(
            t.breakdown.iter().all(|r| r.count == 1),
            "{:?}",
            t.breakdown
        );
        assert!(t.chrome_json.contains("\"traceEvents\""));
        assert!(t.metrics.counter("n0.os.syscalls") > 0);
        assert!(t.metrics.counter("n1.clic.packets_received") > 0);
    }

    #[test]
    fn fig7b_adds_the_bus_master_rx_dma_stage() {
        // Host rings (the Figure 8b receive path) DMA the frame into host
        // memory before the interrupt — a stage 7a doesn't have.
        let t = run_pipeline_trace(TraceScenario::Fig7b, 1400, 1500, 0);
        assert!(
            t.breakdown.iter().any(|r| r.stage == "nic_rx_dma"),
            "{:?}",
            t.breakdown
        );
    }

    #[test]
    fn large_message_fragments_across_stages() {
        let t = run_pipeline_trace(TraceScenario::Fig7a, 64 * 1024, 9_000, 0);
        let dma = t
            .breakdown
            .iter()
            .find(|r| r.stage == "nic_tx_dma")
            .expect("nic_tx_dma row");
        assert!(dma.count > 1, "64 KiB at MTU 9000 must fragment: {dma:?}");
        assert!((dma.mean_us() - dma.total_us / dma.count as f64).abs() < 1e-12);
    }

    #[test]
    fn tcp_scenario_traces_the_baseline_stack() {
        let t = run_pipeline_trace(TraceScenario::Tcp, 1400, 1500, 0);
        let stages: Vec<&str> = t.breakdown.iter().map(|r| r.stage).collect();
        for want in ["tcp_tx", "ip_tx", "ip_rx", "wire"] {
            assert!(stages.contains(&want), "missing stage {want}: {stages:?}");
        }
    }

    #[test]
    fn lossy_trace_shows_the_recovery_machinery() {
        let t = run_pipeline_trace(TraceScenario::Fig7aLossy, 14_000, 1500, 0);
        assert!(
            t.chrome_json.contains("fast_retransmit"),
            "expected a fast_retransmit instant in the lossy trace"
        );
        assert!(t.metrics.counter("n0.clic.retransmits") > 0);
        // The reverse path is clean, so every loss is a forward data loss.
        assert!(t.metrics.counter("eth.link.frames_lost") > 0);
    }

    #[test]
    fn trace_is_deterministic() {
        let a = run_pipeline_trace(TraceScenario::Fig7b, 5_000, 1500, 7);
        let b = run_pipeline_trace(TraceScenario::Fig7b, 5_000, 1500, 7);
        assert_eq!(a.chrome_json, b.chrome_json);
        assert_eq!(a.metrics.dump(), b.metrics.dump());
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn timeline_scenario_names_round_trip() {
        for s in TimelineScenario::ALL {
            assert_eq!(TimelineScenario::parse(s.name()), Some(s));
        }
        assert_eq!(TimelineScenario::parse("nope"), None);
        assert_eq!(
            TimelineScenario::Chaos.default_flight(),
            Some(CHAOS_FLIGHT_BUCKETS)
        );
        assert_eq!(TimelineScenario::Incast.default_flight(), None);
    }

    #[test]
    fn incast_timeline_records_the_headline_series() {
        let t = run_timeline(TimelineScenario::Incast, SimDuration::from_us(10), None);
        for series in [
            "eth.switch.queue_depth",
            "clic.recv_buffer_bytes",
            "eth.link.tx_bytes",
        ] {
            assert!(t.csv.contains(series), "missing series {series}");
        }
        // Each series becomes a Chrome counter track; Perfetto needs at
        // least the three headline ones.
        let tracks: std::collections::BTreeSet<&str> = t
            .chrome_json
            .lines()
            .filter(|l| l.contains("\"ph\": \"C\""))
            .filter_map(|l| l.split("\"name\": \"").nth(1))
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert!(tracks.len() >= 3, "counter tracks: {tracks:?}");
        assert!(t.series >= 3);
        assert!(t.chrome_json.contains("\"traceEvents\""));
    }

    #[test]
    fn congestion_timeline_records_the_cwnd_sawtooth() {
        let t = run_timeline(TimelineScenario::Congestion, SimDuration::from_us(50), None);
        for series in ["clic.cwnd", "clic.ssthresh", "eth.switch.ecn_marks"] {
            assert!(t.csv.contains(series), "missing series {series}");
        }
        assert!(t.series >= 3);
        // The marking fabric must actually have marked something, or the
        // scenario degenerates into the plain incast cell.
        let marked = t
            .csv
            .lines()
            .filter(|l| l.starts_with("eth.switch.ecn_marks"))
            .count();
        assert!(marked > 0, "no ecn_marks buckets recorded");
    }

    #[test]
    fn timeline_replay_is_deterministic() {
        let a = run_timeline(TimelineScenario::Incast, SimDuration::from_us(10), None);
        let b = run_timeline(TimelineScenario::Incast, SimDuration::from_us(10), None);
        assert_eq!(a.csv, b.csv);
        assert_eq!(a.chrome_json, b.chrome_json);
    }

    #[test]
    fn chaos_flight_recorder_keeps_only_the_tail() {
        let full = run_timeline(TimelineScenario::Chaos, SimDuration::from_us(20), None);
        let ring = run_timeline(TimelineScenario::Chaos, SimDuration::from_us(20), Some(8));
        // Per-series bucket counts: the ring keeps at most 8 + the open
        // bucket; the full run keeps everything.
        let counts = |csv: &str| {
            let mut m = std::collections::BTreeMap::<String, usize>::new();
            for line in csv.lines().filter(|l| !l.starts_with('#')) {
                if let Some(series) = line.split(',').next() {
                    if series != "series" {
                        *m.entry(series.to_string()).or_default() += 1;
                    }
                }
            }
            m
        };
        let ring_counts = counts(&ring.csv);
        assert!(ring_counts.values().all(|&n| n <= 9), "{ring_counts:?}");
        assert!(
            counts(&full.csv).values().any(|&n| n > 9),
            "chaos soak too short to exercise the ring"
        );
        // Ring rows are the tail of the full dump: every ring row exists
        // verbatim in the unbounded run.
        let full_rows: std::collections::BTreeSet<&str> = full.csv.lines().collect();
        for line in ring.csv.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                full_rows.contains(line),
                "ring row not in full dump: {line}"
            );
        }
    }

    #[test]
    fn each_counted_fact_appears_once() {
        // A count is node-owned (`n<i>.name`) or cluster-level (`name`),
        // never both: one fact exported twice is double-counted by every
        // sum over the dump.
        fn assert_once(what: &str, reg: &Metrics) {
            use clic_sim::catalog::strip_node_prefix;
            let (per_node, unprefixed): (Vec<&str>, Vec<&str>) = reg
                .counters()
                .map(|(n, _)| n)
                .partition(|n| strip_node_prefix(n) != *n);
            let twice: BTreeSet<&str> = per_node
                .into_iter()
                .map(strip_node_prefix)
                .filter(|base| unprefixed.contains(base))
                .collect();
            assert!(
                twice.is_empty(),
                "{what}: counted both per node and unprefixed: {twice:?}"
            );
        }
        for s in TraceScenario::ALL {
            assert_once(s.name(), &run_pipeline_trace(s, 65_536, 1500, 0).metrics);
        }
        assert_once("collective", &run_collective_trace(8, 0).metrics);
        let model = CostModel::era_2002();
        let cluster = Cluster::build(&incast_cluster(&model, 5, Some(64 * 1024)));
        let mut sim = Sim::new(9);
        incast_clic(&cluster, &mut sim, 8_192, 8, SimDuration::from_us(150));
        assert_once("incast", &collect_metrics(&cluster, &sim));
    }

    #[test]
    fn collective_trace_shows_both_phases_and_no_host_work() {
        let t = run_collective_trace(8, 0);
        assert_eq!(t.nodes, 8);
        // Up-phase unicasts and the multicast release both leave instants.
        assert!(t.chrome_json.contains("nic_coll_up"), "no up-phase marks");
        assert!(t.chrome_json.contains("nic_coll_down"), "no release marks");
        // The barrier runs entirely in NIC firmware: no host interrupts.
        assert_eq!(t.metrics.counter("n0.os.irqs"), 0);
        assert!(t.metrics.sum_counters("hw.nic.coll.msgs_rx") > 0);
        // Byte-stable for the golden-file contract.
        let again = run_collective_trace(8, 0);
        assert_eq!(t.chrome_json, again.chrome_json);
    }

    #[test]
    fn breakdown_table_renders_every_row() {
        let t = run_pipeline_trace(TraceScenario::Fig7a, 1400, 1500, 0);
        let table = breakdown_table(&t.breakdown);
        for r in &t.breakdown {
            assert!(table.contains(r.stage));
        }
        assert!(table.starts_with("stage"));
    }
}
