//! Every paper figure, table and ablation, as one figure family each.
//!
//! A family is one entry of [`FAMILIES`]: its CLI name, its title, its
//! job grid and its assembly. `jobs` decomposes the family into
//! independent, named [`JobSpec`]s (see [`crate::jobs`]) and `assemble`
//! builds the family's [`FigureOutput`] from a [`ResultMap`] keyed by job
//! id — so assembly is independent of the order jobs completed in, and
//! the whole grid can be executed by any scheduler (the parallel runner
//! with its result cache lives in `clic-bench`). [`FigureKind::run`] runs
//! one family serially in-process.
//!
//! Each family lists its cases once; a case formats its job id once, and
//! both the jobs and the assembly read it from there. Families other than
//! the bandwidth curves, Figure 7 and the §4 scalars assemble [`Table`]s:
//! a static column schema plus rows of plain values, which `clic-bench`
//! renders as text or JSON.

use crate::builder::{ClusterConfig, Topology};
use crate::calibration::CostModel;
use crate::jobs::{sweep_point, JobKind, JobSpec, Measurement};
use crate::node::NodeConfig;
use crate::observe::{trace_config, TraceScenario};
use crate::workload::{stream_count, StackKind};
use clic_core::{ClicConfig, CongestionConfig};
use clic_ethernet::LossModel;
use clic_sim::SimDuration;
use std::collections::BTreeMap;

/// Job results keyed by job id. Deterministically ordered, so iteration
/// (and therefore everything assembled from it) is reproducible.
pub type ResultMap = BTreeMap<String, Measurement>;

/// Run a job set serially on the calling thread. The reference executor:
/// the parallel runner in `clic-bench` must produce bit-identical maps.
pub fn run_serial(specs: &[JobSpec]) -> ResultMap {
    specs
        .iter()
        .map(|spec| (spec.id.clone(), spec.run()))
        .collect()
}

/// A bandwidth point.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Message size in bytes (the x axis).
    pub size: usize,
    /// Delivered bandwidth in Mb/s (the y axis).
    pub mbps: f64,
}

/// One labelled curve of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points, ascending in size.
    pub points: Vec<SeriesPoint>,
}

/// One pipeline stage of Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage name, in pipeline order.
    pub stage: String,
    /// Stage duration in microseconds.
    pub us: f64,
}

/// The headline scalars of §4/§5.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalars {
    /// One-way 0-byte latency, µs (paper: 36 µs).
    pub zero_byte_latency_us: f64,
    /// Asymptotic CLIC bandwidth at MTU 9000, Mb/s (paper: ≈ 600).
    pub clic_asymptote_9000_mbps: f64,
    /// Asymptotic CLIC bandwidth at MTU 1500, Mb/s (paper: ≈ 450).
    pub clic_asymptote_1500_mbps: f64,
    /// Best TCP asymptote (MTU 9000), Mb/s (paper: CLIC > 2× this).
    pub tcp_asymptote_9000_mbps: f64,
    /// Message size reaching 50 % of CLIC's peak on the MTU 1500 curve,
    /// bytes (paper: ≈ 4 KB).
    pub clic_half_bandwidth_bytes_1500: usize,
    /// Same for the MTU 9000 curve (jumbo store-and-forward granularity
    /// pushes this out; see EXPERIMENTS.md).
    pub clic_half_bandwidth_bytes_9000: usize,
    /// Message size reaching 50 % of TCP's peak, bytes (paper: ≈ 16 KB).
    pub tcp_half_bandwidth_bytes: usize,
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// One column of a table schema: where the column shows (text, JSON or
/// both) and how its cells print as text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// JSON key; `None` for a text-only column.
    pub key: Option<&'static str>,
    /// Text header; `None` for a JSON-only column. A table whose headers
    /// are all empty prints no header line.
    pub header: Option<&'static str>,
    /// Text width of the header and of each cell, suffix included.
    pub width: usize,
    /// Left-align the header and the cells (right-aligned otherwise).
    pub left: bool,
    /// Decimal places of a number in text; `None` prints it as is.
    pub precision: Option<usize>,
    /// Text appended to each cell (not the header) before padding.
    pub suffix: &'static str,
    /// Text printed before the column (ignored for the first one).
    pub sep: &'static str,
}

impl Column {
    /// A right-aligned column shown in text and JSON, numbers printed as
    /// is.
    pub(crate) const fn new(key: &'static str, header: &'static str, width: usize) -> Column {
        Column {
            key: Some(key),
            header: Some(header),
            width,
            left: false,
            precision: None,
            suffix: "",
            sep: " ",
        }
    }

    /// A column shown in text only.
    pub(crate) const fn text(header: &'static str, width: usize) -> Column {
        Column {
            key: None,
            ..Column::new("", header, width)
        }
    }

    /// A column shown in JSON only.
    pub(crate) const fn json(key: &'static str) -> Column {
        Column {
            header: None,
            ..Column::new(key, "", 0)
        }
    }

    /// This column, left-aligned.
    pub(crate) const fn left(self) -> Column {
        Column { left: true, ..self }
    }

    /// This column, with numbers printed to `precision` decimals.
    pub(crate) const fn prec(self, precision: usize) -> Column {
        Column {
            precision: Some(precision),
            ..self
        }
    }

    /// This column, with `suffix` after each cell.
    pub(crate) const fn suffix(self, suffix: &'static str) -> Column {
        Column { suffix, ..self }
    }

    /// This column, set off from the previous one by `sep`.
    pub(crate) const fn sep(self, sep: &'static str) -> Column {
        Column { sep, ..self }
    }
}

/// One table cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A number. NaN prints as `-` in text and `null` in JSON.
    Num(f64),
    /// A string.
    Str(&'static str),
    /// A boolean.
    Bool(bool),
    /// No value: `null` in JSON.
    Null,
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Num(v as f64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Num(v as f64)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Value {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// One table of a figure family: a static column schema, rows of plain
/// values (one per column) and optional heading and note lines.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The table's JSON key in a family with several tables.
    pub name: &'static str,
    /// Text line printed above the table.
    pub heading: Option<&'static str>,
    /// The column schema.
    pub columns: &'static [Column],
    /// The rows, one cell per column.
    pub rows: Vec<Vec<Value>>,
    /// Text line printed under the rows.
    pub note: Option<&'static str>,
}

impl Table {
    /// An unnamed table without heading or note.
    pub(crate) fn new(columns: &'static [Column], rows: Vec<Vec<Value>>) -> Table {
        Table {
            name: "",
            heading: None,
            columns,
            rows,
            note: None,
        }
    }

    /// The cell of `row` under JSON key `key`. Panics if no column has
    /// that key.
    pub fn get(&self, row: usize, key: &str) -> Value {
        let col = self
            .columns
            .iter()
            .position(|c| c.key == Some(key))
            .unwrap_or_else(|| panic!("table has no column {key:?}"));
        self.rows[row][col]
    }

    /// The number of `row` under JSON key `key`. Panics if the cell is
    /// not a number.
    pub fn num(&self, row: usize, key: &str) -> f64 {
        match self.get(row, key) {
            Value::Num(v) => v,
            other => panic!("cell {key:?} of row {row} is {other:?}, not a number"),
        }
    }
}

/// The result of one assembled figure, ready for rendering.
#[derive(Debug, Clone)]
pub enum FigureOutput {
    /// Bandwidth curves (figures 4, 5, 6 and Ablation B).
    Series(Vec<Series>),
    /// Figure 7's two stage breakdowns (7a, 7b).
    Stages {
        /// Without the direct-call improvement.
        a: Vec<StageRow>,
        /// With the direct-call improvement (Fig. 8b).
        b: Vec<StageRow>,
    },
    /// The §4 scalars.
    Scalars(Scalars),
    /// Every other family: one or more tables.
    Tables(Vec<Table>),
}

impl FigureOutput {
    /// The curves of a series family. Panics on any other output.
    pub fn series(&self) -> &[Series] {
        match self {
            FigureOutput::Series(series) => series,
            other => panic!("not a series figure: {other:?}"),
        }
    }

    /// The first table of a table family. Panics on any other output.
    pub fn table(&self) -> &Table {
        match self {
            FigureOutput::Tables(tables) => &tables[0],
            other => panic!("not a table figure: {other:?}"),
        }
    }
}

/// A one-table family output.
fn table(columns: &'static [Column], rows: Vec<Vec<Value>>) -> FigureOutput {
    FigureOutput::Tables(vec![Table::new(columns, rows)])
}

// ---------------------------------------------------------------------
// Grids and configs
// ---------------------------------------------------------------------

/// The message sizes of the paper's x axis (10^1 .. 4·10^6, log-spaced).
pub fn paper_sizes() -> Vec<usize> {
    vec![
        16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 32_768, 65_536, 131_072,
        262_144, 524_288, 1_048_576, 2_097_152, 4_194_304,
    ]
}

/// A reduced size set for quick runs and tests.
pub fn quick_sizes() -> Vec<usize> {
    vec![64, 1_024, 4_096, 65_536, 1_048_576]
}

/// Whether `sizes` is a reduced grid. Families that don't sweep sizes
/// shrink their own grid on one.
fn is_quick(sizes: &[usize]) -> bool {
    sizes.len() <= quick_sizes().len()
}

/// The paper's two-node CLIC testbed config: standard or jumbo MTU,
/// zero-copy or one-copy module.
pub fn clic_pair(model: &CostModel, jumbo: bool, zero_copy: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = NodeConfig::clic_default(model);
    cfg.node.nic = if jumbo {
        model.nic_jumbo()
    } else {
        model.nic_standard()
    };
    cfg.node.clic = Some(if zero_copy {
        ClicConfig::paper_default()
    } else {
        ClicConfig::one_copy()
    });
    cfg
}

/// The TCP/IP baseline config on the same hardware.
pub fn tcp_pair(model: &CostModel, jumbo: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = NodeConfig::tcp_default(model);
    cfg.node.nic = if jumbo {
        model.nic_jumbo()
    } else {
        model.nic_standard()
    };
    cfg
}

/// The latency-measurement config: ping-pong with the latency-tuned NIC,
/// as the paper's latency figure uses the NICs' adjustable coalescing.
fn latency_config() -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = clic_pair(&model, false, true);
    cfg.node.nic = model.nic_low_latency(false);
    cfg
}

/// A 0-byte ping-pong job (one-way latency).
fn ping_job(
    id: impl Into<String>,
    cluster: ClusterConfig,
    stack: StackKind,
    rounds: usize,
    seed: u64,
) -> JobSpec {
    JobSpec::new(
        id,
        JobKind::PingPong {
            cluster,
            stack,
            size: 0,
            rounds,
            seed,
        },
    )
}

/// A stream of `size`-byte messages (the standard count for the size).
fn stream_job(
    id: String,
    cluster: ClusterConfig,
    stack: StackKind,
    size: usize,
    seed: u64,
    pipelined: bool,
) -> JobSpec {
    JobSpec::new(
        id,
        JobKind::Stream {
            cluster,
            stack,
            size,
            count: stream_count(size),
            seed,
            pipelined,
        },
    )
}

// ---------------------------------------------------------------------
// Bandwidth sweeps (figures 4-6, Ablation B, and the sweeps behind the
// §4 scalars and the §5 table)
// ---------------------------------------------------------------------

/// The job id of one sweep point.
fn sweep_id(prefix: &str, label: &str, size: usize) -> String {
    format!("{prefix}/{label}/size={size}")
}

/// The jobs of one bandwidth sweep: one standard stream job per size.
fn sweep_jobs(
    prefix: &str,
    label: &str,
    config: &ClusterConfig,
    stack: StackKind,
    sizes: &[usize],
) -> Vec<JobSpec> {
    sizes
        .iter()
        .map(|&size| sweep_point(sweep_id(prefix, label, size), config.clone(), stack, size))
        .collect()
}

/// Assemble one sweep's [`Series`] from its job results.
fn sweep_from(results: &ResultMap, prefix: &str, label: &str, sizes: &[usize]) -> Series {
    let points = sizes
        .iter()
        .map(|&size| SeriesPoint {
            size,
            mbps: results[&sweep_id(prefix, label, size)].require("mbps"),
        })
        .collect();
    Series {
        label: label.to_string(),
        points,
    }
}

/// The highest bandwidth of a curve.
fn peak(series: &Series) -> f64 {
    series.points.iter().map(|p| p.mbps).fold(0.0f64, f64::max)
}

fn half_bandwidth_point(series: &Series) -> usize {
    let peak = peak(series);
    series
        .points
        .iter()
        .find(|p| p.mbps >= peak / 2.0)
        .map(|p| p.size)
        .unwrap_or(usize::MAX)
}

/// One curve of a sweep family: legend label (also its job-id segment),
/// cluster config and stack.
type Curve = (&'static str, ClusterConfig, StackKind);

/// The jobs of a family of sweeps.
fn curves_jobs(prefix: &str, curves: Vec<Curve>, sizes: &[usize]) -> Vec<JobSpec> {
    curves
        .into_iter()
        .flat_map(|(label, cfg, stack)| sweep_jobs(prefix, label, &cfg, stack, sizes))
        .collect()
}

/// Assemble a family of sweeps.
fn curves_from(
    results: &ResultMap,
    prefix: &str,
    curves: Vec<Curve>,
    sizes: &[usize],
) -> FigureOutput {
    FigureOutput::Series(
        curves
            .iter()
            .map(|(label, ..)| sweep_from(results, prefix, label, sizes))
            .collect(),
    )
}

/// Figure 4: CLIC bandwidth for MTU {1500, 9000} × {0-copy, 1-copy}.
fn fig4_curves() -> Vec<Curve> {
    let model = CostModel::era_2002();
    [
        ("0-copy MTU 9000", true, true),
        ("0-copy MTU 1500", false, true),
        ("1-copy MTU 9000", true, false),
        ("1-copy MTU 1500", false, false),
    ]
    .into_iter()
    .map(|(label, jumbo, zc)| (label, clic_pair(&model, jumbo, zc), StackKind::Clic))
    .collect()
}

/// Figure 5: CLIC vs TCP/IP for MTU {1500, 9000}, all 0-copy.
fn fig5_curves() -> Vec<Curve> {
    let model = CostModel::era_2002();
    vec![
        ("CLIC 9000", clic_pair(&model, true, true), StackKind::Clic),
        ("CLIC 1500", clic_pair(&model, false, true), StackKind::Clic),
        ("TCP 9000", tcp_pair(&model, true), StackKind::Tcp),
        ("TCP 1500", tcp_pair(&model, false), StackKind::Tcp),
    ]
}

/// Figure 6: CLIC, MPI-CLIC, MPI-TCP, PVM-TCP (jumbo frames, 0-copy).
fn fig6_curves() -> Vec<Curve> {
    let model = CostModel::era_2002();
    vec![
        ("CLIC", clic_pair(&model, true, true), StackKind::Clic),
        (
            "MPI-CLIC",
            clic_pair(&model, true, true),
            StackKind::MpiClic,
        ),
        ("MPI-TCP", tcp_pair(&model, true), StackKind::MpiTcp),
        ("PVM-TCP", tcp_pair(&model, true), StackKind::PvmTcp),
    ]
}

/// Ablation B: NIC TX/RX fragmentation offload (the paper's future work),
/// baseline vs offload. With offload the module can hand the NIC
/// super-packets; emulate the Alteon firmware's limit of 255 fragments.
fn fragmentation_curves() -> Vec<Curve> {
    let model = CostModel::era_2002();
    let base = clic_pair(&model, false, true);
    let mut offload = base.clone();
    offload.node.nic.tx_frag_offload = true;
    offload.node.nic.rx_frag_offload = true;
    if let Some(clic) = &mut offload.node.clic {
        clic.mtu_override = Some(64 * 1024);
    }
    vec![
        ("no offload (MTU 1500)", base, StackKind::Clic),
        ("frag offload (64K super-packets)", offload, StackKind::Clic),
    ]
}

// ---------------------------------------------------------------------
// Figure 7, §4 scalars, §5 table
// ---------------------------------------------------------------------

/// Figure 7's two variants: job id, and whether the Figure 8b direct call
/// is on (7b) or off (7a).
const FIG7: [(&str, TraceScenario); 2] = [
    ("fig7/7a", TraceScenario::Fig7a),
    ("fig7/7b", TraceScenario::Fig7b),
];

/// Figure 7 jobs: one traced 1400-byte packet per variant (7a, 7b), on
/// the `figures trace` set-up of that scenario at MTU 1500.
fn fig7_jobs(_: &[usize]) -> Vec<JobSpec> {
    FIG7.into_iter()
        .map(|(id, scenario)| {
            JobSpec::new(
                id,
                JobKind::StageTrace {
                    cluster: trace_config(scenario, 1500),
                    seed: 0,
                },
            )
        })
        .collect()
}

/// One Figure 7 variant's stages, in pipeline order.
fn fig7_stages(results: &ResultMap, id: &str) -> Vec<StageRow> {
    results[id]
        .values
        .iter()
        .filter(|(stage, _)| !stage.starts_with(crate::jobs::METRIC_KEY_PREFIX))
        .map(|(stage, us)| StageRow {
            stage: stage.clone(),
            us: *us,
        })
        .collect()
}

fn fig7_from(results: &ResultMap, _: &[usize]) -> FigureOutput {
    FigureOutput::Stages {
        a: fig7_stages(results, FIG7[0].0),
        b: fig7_stages(results, FIG7[1].0),
    }
}

/// The latency job behind the §4 scalars.
const SCALARS_LATENCY: &str = "scalars/latency";

/// The sweeps behind the §4 scalars.
fn scalars_curves() -> Vec<Curve> {
    let model = CostModel::era_2002();
    vec![
        ("c9000", clic_pair(&model, true, true), StackKind::Clic),
        ("c1500", clic_pair(&model, false, true), StackKind::Clic),
        ("t9000", tcp_pair(&model, true), StackKind::Tcp),
    ]
}

/// Scalars jobs: a latency ping-pong plus three bandwidth sweeps.
fn scalars_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let mut specs = vec![ping_job(
        SCALARS_LATENCY,
        latency_config(),
        StackKind::Clic,
        20,
        1,
    )];
    specs.extend(curves_jobs("scalars", scalars_curves(), sizes));
    specs
}

/// Assemble the §4 scalars from job results.
fn scalars_of(results: &ResultMap, sizes: &[usize]) -> Scalars {
    let output = curves_from(results, "scalars", scalars_curves(), sizes);
    let [clic_9000, clic_1500, tcp_9000] = output.series() else {
        unreachable!("scalars_curves lists three curves")
    };
    Scalars {
        zero_byte_latency_us: results[SCALARS_LATENCY].require("one_way_us"),
        clic_asymptote_9000_mbps: peak(clic_9000),
        clic_asymptote_1500_mbps: peak(clic_1500),
        tcp_asymptote_9000_mbps: peak(tcp_9000),
        clic_half_bandwidth_bytes_1500: half_bandwidth_point(clic_1500),
        clic_half_bandwidth_bytes_9000: half_bandwidth_point(clic_9000),
        tcp_half_bandwidth_bytes: half_bandwidth_point(tcp_9000),
    }
}

const GAMMA: &[Column] = &[
    Column::new("protocol", "protocol", 16).left(),
    Column::new("latency_us", "latency(us)", 12).prec(1),
    Column::new("bandwidth_mbps", "bandwidth(Mb/s)", 16).prec(1),
];

/// The §5 comparison's rows: protocol, sweep label and latency job id.
const GAMMA_ROWS: [(&str, &str, &str); 2] = [
    ("CLIC", "clic", "gamma/clic/latency"),
    ("GAMMA (model)", "gamma", "gamma/gamma/latency"),
];

fn gamma_config() -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = NodeConfig::gamma_default(&model);
    cfg
}

/// Gamma-table jobs: per protocol, a latency ping-pong plus a sweep.
fn gamma_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    let configs = [
        (
            latency_config(),
            clic_pair(&model, true, true),
            StackKind::Clic,
        ),
        (gamma_config(), gamma_config(), StackKind::Gamma),
    ];
    GAMMA_ROWS
        .into_iter()
        .zip(configs)
        .flat_map(|((_, label, latency), (lat_cfg, cfg, stack))| {
            std::iter::once(ping_job(latency, lat_cfg, stack, 20, 1))
                .chain(sweep_jobs("gamma", label, &cfg, stack, sizes))
        })
        .collect()
}

fn gamma_from(results: &ResultMap, sizes: &[usize]) -> FigureOutput {
    let rows = GAMMA_ROWS
        .into_iter()
        .map(|(protocol, label, latency)| {
            vec![
                protocol.into(),
                results[latency].require("one_way_us").into(),
                peak(&sweep_from(results, "gamma", label, sizes)).into(),
            ]
        })
        .collect();
    FigureOutput::Tables(vec![Table {
        note: Some("(paper: CLIC 36 us / ~600 Mb/s; GAMMA 32 us (GA620) / 768-824 Mb/s)"),
        ..Table::new(GAMMA, rows)
    }])
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

const COALESCING: &[Column] = &[
    Column::new("usecs", "usecs", 7),
    Column::new("frames", "frames", 7),
    Column::new("mbps", "Mb/s", 10).prec(1),
    Column::new("irqs_per_kframe", "irqs/kframe", 14).prec(1),
    Column::new("latency_us", "latency(us)", 12).prec(1),
];

/// Ablation A's coalescing settings: (timer µs, frame threshold, stream
/// job id, latency job id).
fn coalescing_cases() -> Vec<(u64, u32, String, String)> {
    [(0, 1), (5, 1), (30, 8), (70, 16), (200, 64)]
        .into_iter()
        .map(|(usecs, frames)| {
            (
                usecs,
                frames,
                format!("coalescing/u{usecs}f{frames}/stream"),
                format!("coalescing/u{usecs}f{frames}/latency"),
            )
        })
        .collect()
}

/// Ablation A jobs (§2's ~12 µs/interrupt claim): per setting, a 256 KB
/// stream and a 0-byte ping-pong.
fn coalescing_jobs(_: &[usize]) -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    coalescing_cases()
        .into_iter()
        .flat_map(|(usecs, frames, stream, latency)| {
            let mut cfg = clic_pair(&model, false, true);
            cfg.node.nic.coalesce_usecs = usecs;
            cfg.node.nic.coalesce_frames = frames;
            [
                stream_job(stream, cfg.clone(), StackKind::Clic, 262_144, 2, false),
                ping_job(latency, cfg, StackKind::Clic, 10, 3),
            ]
        })
        .collect()
}

fn coalescing_from(results: &ResultMap, _: &[usize]) -> FigureOutput {
    let rows = coalescing_cases()
        .into_iter()
        .map(|(usecs, frames, stream, latency)| {
            let s = &results[&stream];
            vec![
                usecs.into(),
                f64::from(frames).into(),
                s.require("mbps").into(),
                (s.require("rx_irqs") / s.require("rx_frames").max(1.0) * 1000.0).into(),
                results[&latency].require("one_way_us").into(),
            ]
        })
        .collect();
    table(COALESCING, rows)
}

const BONDING: &[Column] = &[
    Column::new("width", "width", 6),
    Column::new("mbps_pci33", "PCI 33/32 Mb/s", 16).prec(1),
    Column::new("mbps_pci66", "PCI 66/64 Mb/s", 16).prec(1),
];

/// Ablation C's widths: (width, 33 MHz/32-bit job id, 66 MHz/64-bit job
/// id). The fast bus with bus-master receive shows bonding scales once
/// the I/O bus stops being the bottleneck §1 calls out.
fn bonding_cases() -> Vec<(usize, String, String)> {
    (1..=3)
        .map(|w| {
            (
                w,
                format!("bonding/w{w}/pci33"),
                format!("bonding/w{w}/pci66"),
            )
        })
        .collect()
}

fn bonding_config(width: usize, fast: bool) -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = clic_pair(&model, true, true);
    cfg.node.nics = width;
    cfg.node.fast_pci = fast;
    if fast {
        cfg.node.nic.host_rings = true;
    }
    cfg
}

/// Ablation C jobs (§5 feature list): width {1, 2, 3} × PCI {33/32, 66/64}.
fn bonding_jobs(_: &[usize]) -> Vec<JobSpec> {
    bonding_cases()
        .into_iter()
        .flat_map(|(width, pci33, pci66)| {
            [(pci33, false), (pci66, true)].map(|(id, fast)| {
                stream_job(
                    id,
                    bonding_config(width, fast),
                    StackKind::Clic,
                    1 << 20,
                    4,
                    false,
                )
            })
        })
        .collect()
}

fn bonding_from(results: &ResultMap, _: &[usize]) -> FigureOutput {
    let rows = bonding_cases()
        .into_iter()
        .map(|(width, pci33, pci66)| {
            vec![
                width.into(),
                results[&pci33].require("mbps").into(),
                results[&pci66].require("mbps").into(),
            ]
        })
        .collect();
    table(BONDING, rows)
}

const SYSCALL: &[Column] = &[
    Column::new("flavour", "", 12).left(),
    Column::new("latency_us", "", 19)
        .prec(2)
        .suffix(" us one-way"),
];

/// Ablation D's flavours: (name, job id, lightweight). "standard" is INT
/// 80h + the scheduler, "lightweight" a GAMMA-style call.
const SYSCALL_CASES: [(&str, &str, bool); 2] = [
    ("standard", "syscall/standard", false),
    ("lightweight", "syscall/lightweight", true),
];

/// Ablation D jobs (the §3.2 discussion: how much does the standard
/// system call cost CLIC versus lightweight calls?): one ping-pong per
/// flavour.
fn syscall_jobs(_: &[usize]) -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    SYSCALL_CASES
        .into_iter()
        .map(|(_, id, lightweight)| {
            let mut cfg = clic_pair(&model, false, true);
            cfg.node.nic = model.nic_low_latency(false);
            if lightweight {
                cfg.node.os.syscall = cfg.node.os.lightweight_call;
            }
            ping_job(id, cfg, StackKind::Clic, 10, 5)
        })
        .collect()
}

fn syscall_from(results: &ResultMap, _: &[usize]) -> FigureOutput {
    let rows = SYSCALL_CASES
        .into_iter()
        .map(|(flavour, id, _)| vec![flavour.into(), results[id].require("one_way_us").into()])
        .collect();
    table(SYSCALL, rows)
}

const LOSS: &[Column] = &[
    Column::new("loss", "loss", 8).prec(3),
    Column::new("mbps", "Mb/s", 10).prec(1),
    Column::new("retx_per_kpkt", "retx/kpkt", 14).prec(2),
];

/// Ablation E's Bernoulli loss probabilities, with their job ids.
fn loss_cases() -> Vec<(f64, String)> {
    [0.0, 0.001, 0.005, 0.02]
        .into_iter()
        .map(|loss| (loss, format!("loss/p{loss}")))
        .collect()
}

/// Ablation E jobs (reliability under injected loss): one 64 KB stream
/// per loss rate.
fn loss_jobs(_: &[usize]) -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    loss_cases()
        .into_iter()
        .map(|(loss, id)| {
            let mut cfg = clic_pair(&model, false, true);
            cfg.faults.loss = if loss == 0.0 {
                LossModel::None
            } else {
                LossModel::Bernoulli(loss)
            };
            stream_job(id, cfg, StackKind::Clic, 65_536, 6, false)
        })
        .collect()
}

fn loss_from(results: &ResultMap, _: &[usize]) -> FigureOutput {
    let rows = loss_cases()
        .into_iter()
        .map(|(loss, id)| {
            let m = &results[&id];
            vec![
                loss.into(),
                m.require("mbps").into(),
                (m.require("retransmits") / m.require("packets_sent").max(1.0) * 1000.0).into(),
            ]
        })
        .collect();
    table(LOSS, rows)
}

/// The CPU fractions print as percentages in text only.
const CPU: &[Column] = &[
    Column::new("stack", "stack", 6).left(),
    Column::new("link_mbps", "link Mb/s", 10),
    Column::new("mbps", "Mb/s", 10).prec(1),
    Column::new("pct_of_wire", "% of wire", 10)
        .prec(1)
        .suffix("%"),
    Column::json("sender_cpu"),
    Column::json("receiver_cpu"),
    Column::text("tx CPU", 10).prec(0).suffix("%"),
    Column::text("rx CPU", 10).prec(0).suffix("%"),
];

/// Ablation F's cells: (stack, is CLIC, link b/s, job id).
fn cpu_cases() -> Vec<(&'static str, bool, u64, String)> {
    [
        ("TCP", false, 100_000_000),
        ("TCP", false, 1_000_000_000),
        ("CLIC", true, 100_000_000),
        ("CLIC", true, 1_000_000_000),
    ]
    .into_iter()
    .map(|(name, clic, bps)| (name, clic, bps, format!("cpu/{name}/l{}", bps / 1_000_000)))
    .collect()
}

/// Ablation F jobs — §2's scaling claim: "in Fast Ethernet ... 90 % of the
/// maximum bandwidth with a 15–20 % CPU use. Having a similar situation in
/// networks with 1 Gb/s bandwidths would require almost 100 % of the
/// processor power." One offered-load 256 KB stream per (stack, link).
fn cpu_jobs(_: &[usize]) -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    cpu_cases()
        .into_iter()
        .map(|(_, clic, bps, id)| {
            let (mut cfg, stack) = if clic {
                (clic_pair(&model, false, true), StackKind::Clic)
            } else {
                (tcp_pair(&model, false), StackKind::Tcp)
            };
            cfg.model.link_bps = bps;
            stream_job(id, cfg, stack, 262_144, 8, true)
        })
        .collect()
}

fn cpu_from(results: &ResultMap, _: &[usize]) -> FigureOutput {
    let rows = cpu_cases()
        .into_iter()
        .map(|(name, _, bps, id)| {
            let m = &results[&id];
            let mbps = m.require("mbps");
            let (tx, rx) = (m.require("sender_cpu"), m.require("receiver_cpu"));
            vec![
                name.into(),
                (bps / 1_000_000).into(),
                mbps.into(),
                (mbps / (bps as f64 / 1e6) * 100.0).into(),
                tx.into(),
                rx.into(),
                (tx * 100.0).into(),
                (rx * 100.0).into(),
            ]
        })
        .collect();
    table(CPU, rows)
}

/// JSON keeps the description second; text prints it last, set off by
/// two spaces.
const PATHS: &[Column] = &[
    Column::new("path", "path", 5).left(),
    Column::json("description"),
    Column::new("link_mbps", "link Mb/s", 10),
    Column::new("mbps", "Mb/s", 10).prec(1),
    Column::text("description", 0).left().sep("  "),
];

/// Ablation H's cells: (Figure 1 path, link b/s, job id).
fn paths_cases() -> Vec<(u8, u64, String)> {
    let mut cases = Vec::new();
    for link_bps in [100_000_000u64, 1_000_000_000] {
        for path in [2u8, 3, 4] {
            cases.push((
                path,
                link_bps,
                format!("paths/p{path}/l{}", link_bps / 1_000_000),
            ));
        }
    }
    cases
}

fn path_config(path: u8, link_bps: u64) -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = clic_pair(&model, false, path == 2);
    cfg.model.link_bps = link_bps;
    if path == 4 {
        // An older NIC: frames cross its internal buffer at a rate
        // comparable to the era's on-NIC processors.
        cfg.node.nic.internal_copy_bytes_per_sec = Some(60_000_000);
    }
    cfg
}

/// Ablation H jobs — Figure 1's data-path taxonomy: path 2 (scatter-gather
/// DMA from user memory, the Gigabit CLIC), path 3 (CPU copy to a kernel
/// buffer, DMA from there), and path 4 (kernel copy + DMA to the NIC
/// output buffer + the NIC processor's internal copy — the Fast Ethernet
/// CLIC). At 100 Mb/s the wire hides the difference, which is why the
/// first CLIC shipped path 4; at 1 Gb/s it no longer does.
fn paths_jobs(_: &[usize]) -> Vec<JobSpec> {
    paths_cases()
        .into_iter()
        .map(|(path, link_bps, id)| {
            stream_job(
                id,
                path_config(path, link_bps),
                StackKind::Clic,
                262_144,
                12,
                false,
            )
        })
        .collect()
}

fn paths_from(results: &ResultMap, _: &[usize]) -> FigureOutput {
    let rows = paths_cases()
        .into_iter()
        .map(|(path, link_bps, id)| {
            let description = match path {
                2 => "0-copy: DMA from user memory",
                3 => "1-copy: kernel staging + DMA",
                _ => "1-copy + NIC internal copy (Fast Ethernet CLIC)",
            };
            vec![
                f64::from(path).into(),
                description.into(),
                (link_bps / 1_000_000).into(),
                results[&id].require("mbps").into(),
                description.into(),
            ]
        })
        .collect();
    table(PATHS, rows)
}

const LOAD: &[Column] = &[
    Column::new("stack", "stack", 6).left(),
    Column::new("loaded", "loaded", 8),
    Column::new("min_us", "min (us)", 10).prec(1),
    Column::new("mean_us", "mean (us)", 10).prec(1),
    Column::new("p99_us", "p99 (us)", 10).prec(1),
];

/// Ablation G's cells: (stack, is CLIC, loaded, job id).
fn load_cases() -> Vec<(&'static str, bool, bool, String)> {
    let mut cases = Vec::new();
    for (name, clic) in [("CLIC", true), ("TCP", false)] {
        for loaded in [false, true] {
            let state = if loaded { "loaded" } else { "idle" };
            cases.push((name, clic, loaded, format!("load/{name}/{state}")));
        }
    }
    cases
}

/// Ablation G jobs — §3.2's multiprogramming argument: CLIC keeps standard
/// system calls so the scheduler can service pending messages promptly
/// even when other traffic loads the node. 64-byte request/reply latency
/// for {CLIC, TCP} × {idle, loaded by a bulk transfer}.
fn load_jobs(_: &[usize]) -> Vec<JobSpec> {
    load_cases()
        .into_iter()
        .map(|(_, clic, loaded, id)| JobSpec::new(id, JobKind::LoadedLatency { clic, loaded }))
        .collect()
}

fn load_from(results: &ResultMap, _: &[usize]) -> FigureOutput {
    let rows = load_cases()
        .into_iter()
        .map(|(name, _, loaded, id)| {
            let m = &results[&id];
            let mut row = vec![name.into(), loaded.into()];
            row.extend(["min_us", "mean_us", "p99_us"].map(|k| Value::from(m.require(k))));
            row
        })
        .collect();
    table(LOAD, rows)
}

const SCALING: &[Column] = &[
    Column::new("nodes", "nodes", 6),
    Column::new("aggregate_mbps", "aggregate Mb/s", 16).prec(1),
    Column::new("per_node_mbps", "per node Mb/s", 14).prec(1),
];

/// Ablation I's cluster sizes, with their job ids.
fn scaling_cases() -> Vec<(usize, String)> {
    [2usize, 4, 8]
        .into_iter()
        .map(|nodes| (nodes, format!("scaling/n{nodes}")))
        .collect()
}

/// Ablation I jobs (extension): CLIC all-to-all on switched clusters of
/// 2, 4 and 8 nodes — the cluster-computing workload the paper positions
/// CLIC for, beyond its two-node testbed.
fn scaling_jobs(_: &[usize]) -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    scaling_cases()
        .into_iter()
        .map(|(nodes, id)| {
            let mut cfg = clic_pair(&model, true, true);
            cfg.nodes = nodes;
            cfg.topology = Topology::Switched;
            JobSpec::new(
                id,
                JobKind::AllToAll {
                    cluster: cfg,
                    size: 65_536,
                    seed: 14,
                },
            )
        })
        .collect()
}

fn scaling_from(results: &ResultMap, _: &[usize]) -> FigureOutput {
    let rows = scaling_cases()
        .into_iter()
        .map(|(nodes, id)| {
            let aggregate = results[&id].require("aggregate_mbps");
            vec![
                nodes.into(),
                aggregate.into(),
                (aggregate / nodes as f64).into(),
            ]
        })
        .collect();
    table(SCALING, rows)
}

// ---------------------------------------------------------------------
// Reliability under loss
// ---------------------------------------------------------------------

/// The loss model (`model` in text) prints in place of the JSON `bursty`
/// flag.
const RELIABILITY: &[Column] = &[
    Column::new("stack", "stack", 6).left(),
    Column::new("mtu", "mtu", 6),
    Column::new("loss_pct", "loss%", 7),
    Column::json("bursty"),
    Column::text("model", 8),
    Column::new("mbps", "Mb/s", 10).prec(1),
    Column::new("mean_us", "mean(us)", 10).prec(1),
    Column::new("p99_us", "p99(us)", 10).prec(1),
    Column::new("retx", "retx", 7).prec(0),
    Column::new("drops", "drops", 7).prec(0),
];

/// The loss model of one reliability cell. Bursty cells use a
/// Gilbert–Elliott chain tuned to the same mean loss `p`: the burst state
/// drops everything, lasts 4 frames on average (`p_exit = 0.25`), and is
/// entered at the rate that makes the stationary loss equal `p`.
pub(crate) fn reliability_loss(p: f64, bursty: bool) -> LossModel {
    if p == 0.0 {
        LossModel::None
    } else if bursty {
        LossModel::GilbertElliott {
            p_enter_burst: 0.25 * p / (1.0 - p),
            p_exit_burst: 0.25,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    } else {
        LossModel::Bernoulli(p)
    }
}

/// The reliability grid: `(id, stack, label, mtu, loss_pct, model)`,
/// where `model` is `"uniform"` (Bernoulli) or `"burst"`
/// (Gilbert–Elliott). Quick runs keep MTU 1500 and the extreme loss
/// cells only.
fn reliability_cases(
    quick: bool,
) -> Vec<(String, StackKind, &'static str, usize, f64, &'static str)> {
    let mtus: &[usize] = if quick { &[1500] } else { &[1500, 9000] };
    let losses: &[(f64, &str)] = if quick {
        &[(0.0, "uniform"), (2.0, "uniform"), (2.0, "burst")]
    } else {
        &[
            (0.0, "uniform"),
            (0.5, "uniform"),
            (0.5, "burst"),
            (2.0, "uniform"),
            (2.0, "burst"),
        ]
    };
    let mut cases = Vec::new();
    for (stack, label) in [(StackKind::Clic, "CLIC"), (StackKind::Tcp, "TCP")] {
        for &mtu in mtus {
            for &(pct, model) in losses {
                let id = format!("reliability/{label}/mtu{mtu}/loss{pct}/{model}");
                cases.push((id, stack, label, mtu, pct, model));
            }
        }
    }
    cases
}

/// Reliability jobs — goodput, tail latency and retransmission cost of
/// CLIC vs TCP as the link degrades, the §1 "networks have finite
/// buffering and lose frames" scenario the paper's clean testbed never
/// exercises: CLIC vs TCP × MTU × (loss rate, burstiness), 64 KB request
/// / 4-byte reply cycles.
fn reliability_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let quick = is_quick(sizes);
    let rounds = if quick { 32 } else { 128 };
    let model = CostModel::era_2002();
    reliability_cases(quick)
        .into_iter()
        .map(|(id, stack, _, mtu, pct, loss)| {
            let jumbo = mtu == 9000;
            let mut cfg = match stack {
                StackKind::Clic => clic_pair(&model, jumbo, true),
                _ => tcp_pair(&model, jumbo),
            };
            cfg.faults.loss = reliability_loss(pct / 100.0, loss == "burst");
            JobSpec::new(
                id,
                JobKind::Reliability {
                    cluster: cfg,
                    stack,
                    size: 65_536,
                    rounds,
                    seed: 21,
                },
            )
        })
        .collect()
}

fn reliability_from(results: &ResultMap, sizes: &[usize]) -> FigureOutput {
    let rows = reliability_cases(is_quick(sizes))
        .into_iter()
        .map(|(id, _, label, mtu, pct, loss)| {
            let m = &results[&id];
            let mut row = vec![
                label.into(),
                mtu.into(),
                pct.into(),
                (loss == "burst").into(),
                loss.into(),
            ];
            row.extend(
                ["mbps", "mean_us", "p99_us", "m.retransmits", "m.drops"]
                    .map(|k| Value::from(m.require(k))),
            );
            row
        })
        .collect();
    table(RELIABILITY, rows)
}

// ---------------------------------------------------------------------
// Chaos soak + incast backpressure (the robustness family)
// ---------------------------------------------------------------------

const SOAK: &[Column] = &[
    Column::new("seed", "seed", 4),
    Column::new("loss_pct", "loss%", 6),
    Column::new("crashes", "crashes", 7),
    Column::new("flaps", "flaps", 5),
    Column::new("posted", "posted", 7).prec(0),
    Column::new("confirmed", "confirmed", 9).prec(0),
    Column::new("failed", "failed", 7).prec(0),
    Column::new("delivered", "delivered", 9).prec(0),
    Column::new("err_peer_dead", "pdead", 5).prec(0),
    Column::new("err_stale_epoch", "stale", 5).prec(0),
    Column::new("err_max_retries", "maxr", 5).prec(0),
    Column::new("eras", "eras", 5).prec(0),
    Column::new("stale_epoch_drops", "staledrops", 10).prec(0),
    Column::new("retx", "retx", 6).prec(0),
];

/// The budget prints as `64K`/`none` in text, as bytes or `null` in JSON.
const INCAST: &[Column] = &[
    Column::json("budget_bytes"),
    Column::json("senders"),
    Column::text("budget", 10).left(),
    Column::new("delivered", "delivered", 9).prec(0),
    Column::new("mean_us", "mean(us)", 10).prec(1),
    Column::new("p99_us", "p99(us)", 10).prec(1),
    Column::new("peak_buffered_bytes", "peak buf(B)", 12).prec(0),
    Column::new("elapsed_us", "elapsed(us)", 12).prec(1),
];

/// The soak grid: `(id, seed, loss_pct, crashes, flaps)`. Each cell is a
/// seeded crash/restart/flap/loss schedule driven through
/// [`crate::workload::chaos_clic`], which asserts the robustness
/// invariants; the row reports the accounting. Quick runs keep one
/// clean-link and one lossy schedule; full runs sweep three seeds.
fn chaos_soak_cases(quick: bool) -> Vec<(String, u64, f64, usize, usize)> {
    let cells: &[(u64, f64, usize, usize)] = if quick {
        &[(1, 0.0, 1, 1), (2, 0.5, 2, 2)]
    } else {
        &[
            (1, 0.0, 1, 1),
            (1, 0.5, 1, 2),
            (1, 1.0, 2, 2),
            (2, 0.0, 1, 1),
            (2, 0.5, 1, 2),
            (2, 1.0, 2, 2),
            (3, 0.5, 2, 1),
            (3, 1.0, 2, 2),
        ]
    };
    cells
        .iter()
        .map(|&(seed, pct, crashes, flaps)| {
            (
                format!("chaos/soak/s{seed}/loss{pct}/c{crashes}f{flaps}"),
                seed,
                pct,
                crashes,
                flaps,
            )
        })
        .collect()
}

/// The incast grid: 4→1 into a slow consumer, with or without the
/// advertised-window receive budget: `(id, budget_bytes, budget text)`.
const CHAOS_INCAST: [(&str, Option<usize>, &str); 2] = [
    ("chaos/incast/unbounded", None, "none"),
    ("chaos/incast/budget64k", Some(64 * 1024), "64K"),
];

/// A two-node CLIC pair with the robustness machinery enabled: keepalive
/// liveness, epoch guarding, and `loss_pct` percent uniform frame loss.
pub(crate) fn chaos_pair(model: &CostModel, loss_pct: f64) -> ClusterConfig {
    let mut cfg = clic_pair(model, false, true);
    let clic = cfg.node.clic.as_mut().expect("clic_pair configures CLIC");
    clic.keepalive_interval = Some(SimDuration::from_us(500));
    clic.peer_dead_timeout = SimDuration::from_ms(5);
    clic.epoch_guard = true;
    // Uniform loss only: duplication/reorder models would legitimately
    // break the workload's strict-order invariant across flow eras.
    cfg.faults.loss = reliability_loss(loss_pct / 100.0, false);
    cfg
}

/// The incast cluster: `nodes`-node star, node 0 the receiver, with a
/// modest send window (so the pre-first-ACK burst does not dwarf the
/// budget) and the given receive budget.
pub(crate) fn incast_cluster(
    model: &CostModel,
    nodes: usize,
    budget: Option<usize>,
) -> ClusterConfig {
    let mut cfg = clic_pair(model, false, true);
    cfg.nodes = nodes;
    cfg.topology = Topology::Switched;
    let clic = cfg.node.clic.as_mut().expect("clic_pair configures CLIC");
    clic.window = 16;
    clic.recv_budget_bytes = budget;
    cfg
}

/// Chaos jobs — crash-recovery accounting under seeded fault schedules,
/// and receive-buffer behaviour under 4→1 incast with and without
/// backpressure: the soak grid plus the incast pair.
fn chaos_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let quick = is_quick(sizes);
    let nmsgs = if quick { 40 } else { 120 };
    let per_sender = if quick { 8 } else { 32 };
    let model = CostModel::era_2002();
    let mut jobs: Vec<JobSpec> = chaos_soak_cases(quick)
        .into_iter()
        .map(|(id, seed, pct, crashes, flaps)| {
            JobSpec::new(
                id,
                JobKind::Chaos {
                    cluster: chaos_pair(&model, pct),
                    size: 2_048,
                    nmsgs,
                    crashes,
                    flaps,
                    seed,
                },
            )
        })
        .collect();
    jobs.extend(CHAOS_INCAST.into_iter().map(|(id, budget, _)| {
        JobSpec::new(
            id,
            JobKind::Incast {
                cluster: incast_cluster(&model, 5, budget),
                size: 8_192,
                per_sender,
                consume_delay_us: 150,
                seed: 9,
            },
        )
    }));
    jobs
}

fn chaos_from(results: &ResultMap, sizes: &[usize]) -> FigureOutput {
    let soak = chaos_soak_cases(is_quick(sizes))
        .into_iter()
        .map(|(id, seed, pct, crashes, flaps)| {
            let m = &results[&id];
            let mut row = vec![seed.into(), pct.into(), crashes.into(), flaps.into()];
            row.extend(
                [
                    "posted",
                    "confirmed",
                    "failed",
                    "delivered",
                    "err_peer_dead",
                    "err_stale_epoch",
                    "err_max_retries",
                    "eras",
                    "stale_epoch_drops",
                    "m.retransmits",
                ]
                .map(|k| Value::from(m.require(k))),
            );
            row
        })
        .collect();
    let incast = CHAOS_INCAST
        .into_iter()
        .map(|(id, budget, text)| {
            let m = &results[id];
            let mut row = vec![
                budget.map_or(Value::Null, Value::from),
                4usize.into(),
                text.into(),
            ];
            row.extend(
                [
                    "delivered",
                    "mean_us",
                    "p99_us",
                    "peak_buffered_bytes",
                    "elapsed_us",
                ]
                .map(|k| Value::from(m.require(k))),
            );
            row
        })
        .collect();
    FigureOutput::Tables(vec![
        Table {
            name: "soak",
            ..Table::new(SOAK, soak)
        },
        Table {
            name: "incast",
            heading: Some("-- 4-to-1 incast into a slow consumer --"),
            ..Table::new(INCAST, incast)
        },
    ])
}

// ---------------------------------------------------------------------
// Cluster scaling: fabrics × node count × collective backend
// ---------------------------------------------------------------------

const SCALE: &[Column] = &[
    Column::new("fabric", "fabric", 10).left(),
    Column::new("nodes", "nodes", 6),
    Column::new("backend", "backend", 8),
    Column::new("barrier_us", "barrier(us)", 12).prec(1),
    Column::new("allreduce_us", "allreduce(us)", 13).prec(1),
    Column::new("switches", "switches", 9).prec(0),
    Column::new("trunks", "trunks", 7).prec(0),
    Column::new("coll_msgs", "coll msgs", 10).prec(0),
    Column::new("host_irqs", "host irqs", 10).prec(0),
];

/// The scaling grid: `(id, nodes, topology, fabric, backend)`, where the
/// backend is `"host"` (MPI collectives) or `"nic"` (offloaded).
fn scale_cases(quick: bool) -> Vec<(String, usize, Topology, &'static str, &'static str)> {
    let counts: &[usize] = if quick {
        &[8, 16]
    } else {
        &[8, 16, 64, 128, 256]
    };
    let fabrics = [
        (Topology::LeafSpine, "leaf-spine"),
        (Topology::FatTree, "fat-tree"),
    ];
    let mut cases = Vec::new();
    for &nodes in counts {
        for (topology, fabric) in fabrics {
            for backend in ["host", "nic"] {
                let id = format!("scale/{fabric}/n{nodes}/{backend}");
                cases.push((id, nodes, topology, fabric, backend));
            }
        }
    }
    cases
}

/// A CLIC cluster of `nodes` hosts on the given fabric topology.
pub(crate) fn scale_cluster(model: &CostModel, nodes: usize, topology: Topology) -> ClusterConfig {
    let mut cfg = clic_pair(model, false, true);
    cfg.nodes = nodes;
    cfg.topology = topology;
    cfg
}

/// Cluster-scaling jobs: whole-cluster barrier + all-reduce latency vs
/// node count (quick 8–16, full 8–256) on leaf–spine and fat-tree
/// fabrics, host-based vs NIC-offloaded.
fn scale_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let model = CostModel::era_2002();
    scale_cases(is_quick(sizes))
        .into_iter()
        .map(|(id, nodes, topology, _, backend)| {
            JobSpec::new(
                id,
                JobKind::ScaleCollective {
                    cluster: scale_cluster(&model, nodes, topology),
                    offload: backend == "nic",
                    seed: 5,
                },
            )
        })
        .collect()
}

fn scale_from(results: &ResultMap, sizes: &[usize]) -> FigureOutput {
    let rows = scale_cases(is_quick(sizes))
        .into_iter()
        .map(|(id, nodes, _, fabric, backend)| {
            let m = &results[&id];
            let mut row = vec![fabric.into(), nodes.into(), backend.into()];
            row.extend(
                [
                    "barrier_us",
                    "allreduce_us",
                    "switches",
                    "trunks",
                    "coll_msgs",
                    "host_irqs",
                ]
                .map(|k| Value::from(m.require(k))),
            );
            row
        })
        .collect();
    table(SCALE, rows)
}

// ---------------------------------------------------------------------
// Fabric congestion: ECN marking + mark-driven cwnd (the congestion family)
// ---------------------------------------------------------------------

/// The shuffle has no per-message completion sample, so its p99 is NaN.
const CONGESTION: &[Column] = &[
    Column::new("workload", "workload", 8).left(),
    Column::new("fabric", "fabric", 10).left(),
    Column::new("senders", "senders", 7),
    Column::new("control", "control", 7),
    Column::new("goodput_mbps", "Mb/s", 10).prec(1),
    Column::new("p99_us", "p99(us)", 10).prec(1),
    Column::new("drops", "drops", 7).prec(0),
    Column::new("marks", "marks", 7).prec(0),
    Column::new("echoes", "echoes", 7).prec(0),
    Column::new("retx", "retx", 7).prec(0),
    Column::new("peak_queue", "peakq", 6).prec(0),
];

/// One point of the congestion grid: an incast or all-to-all shuffle on
/// a multi-switch fabric, with a fixed send window (drop-only congestion
/// signal) or with switch ECN marking driving the per-flow congestion
/// window.
struct CongestionCase {
    id: String,
    workload: &'static str,
    fabric: &'static str,
    topology: Topology,
    nodes: usize,
    /// Concurrent senders (incast) or nodes (shuffle).
    senders: usize,
    /// `"fixed"` or `"ecn"`.
    control: &'static str,
}

/// The congestion grid. Quick runs keep an 8→1 incast and an 8-node
/// shuffle on leaf–spine; full runs sweep 16→1 and 64→1 incast plus
/// 24-node shuffles on both fabrics — each cell fixed-window vs
/// ECN-cwnd. 24 hosts overflow one 16-port leaf/edge switch, so the
/// shuffle genuinely exercises the trunk tier (4 parallel spines on
/// leaf–spine, the 2-agg pod mesh on fat-tree) instead of degenerating
/// into a single-switch star.
fn congestion_cases(quick: bool) -> Vec<CongestionCase> {
    let cells: &[(&'static str, Topology, usize)] = if quick {
        &[
            ("incast", Topology::LeafSpine, 9),
            ("shuffle", Topology::LeafSpine, 8),
        ]
    } else {
        &[
            ("incast", Topology::LeafSpine, 17),
            ("incast", Topology::LeafSpine, 65),
            ("shuffle", Topology::LeafSpine, 24),
            ("shuffle", Topology::FatTree, 24),
        ]
    };
    let mut cases = Vec::new();
    for &(workload, topology, nodes) in cells {
        let fabric = match topology {
            Topology::FatTree => "fat-tree",
            _ => "leaf-spine",
        };
        let senders = if workload == "incast" {
            nodes - 1
        } else {
            nodes
        };
        for control in ["fixed", "ecn"] {
            cases.push(CongestionCase {
                id: format!("congestion/{workload}/{fabric}/s{senders}/{control}"),
                workload,
                fabric,
                topology,
                nodes,
                senders,
                control,
            });
        }
    }
    cases
}

/// A CLIC cluster on a fabric for the congestion cells. The fixed-window
/// variant keeps an aggressive 64-packet window and no marking — the
/// drop-only baseline — with retries raised so tail-drop storms read as
/// congestion collapse (slow goodput), never as flow failure. The ECN
/// variant arms switch marking at a DCTCP-style shallow K (8 frames, a
/// sixteenth of the 128-frame output queue — early enough that marks,
/// not drops, are the dominant congestion signal even on the fat-tree's
/// 2-agg pod mesh) and gives every flow the DCTCP-flavoured congestion
/// window.
pub(crate) fn congestion_cluster(
    model: &CostModel,
    nodes: usize,
    topology: Topology,
    ecn: bool,
) -> ClusterConfig {
    let mut cfg = clic_pair(model, false, true);
    cfg.nodes = nodes;
    cfg.topology = topology;
    let clic = cfg.node.clic.as_mut().expect("clic_pair configures CLIC");
    clic.window = 64;
    clic.max_retries = 64;
    if ecn {
        cfg.mark_threshold = Some(8);
        clic.congestion = Some(CongestionConfig::dctcp());
    }
    cfg
}

/// Congestion jobs: incast cells via [`JobKind::Incast`] (consumer drains
/// at full speed — the fabric, not the application, is the bottleneck)
/// and shuffle cells via [`JobKind::AllToAll`].
fn congestion_jobs(sizes: &[usize]) -> Vec<JobSpec> {
    let quick = is_quick(sizes);
    let per_sender = if quick { 6 } else { 16 };
    let model = CostModel::era_2002();
    congestion_cases(quick)
        .into_iter()
        .map(|case| {
            let ecn = case.control == "ecn";
            let cluster = congestion_cluster(&model, case.nodes, case.topology, ecn);
            let kind = match case.workload {
                "incast" => JobKind::Incast {
                    cluster,
                    size: 8_192,
                    per_sender,
                    consume_delay_us: 0,
                    seed: 11,
                },
                _ => JobKind::AllToAll {
                    cluster,
                    size: 32_768,
                    seed: 11,
                },
            };
            JobSpec::new(case.id, kind)
        })
        .collect()
}

fn congestion_from(results: &ResultMap, sizes: &[usize]) -> FigureOutput {
    let rows = congestion_cases(is_quick(sizes))
        .into_iter()
        .map(|case| {
            let m = &results[&case.id];
            let (goodput, p99) = if case.workload == "incast" {
                (m.require("goodput_mbps"), m.require("p99_us"))
            } else {
                (m.require("aggregate_mbps"), f64::NAN)
            };
            let mut row = vec![
                case.workload.into(),
                case.fabric.into(),
                case.senders.into(),
                case.control.into(),
                goodput.into(),
                p99.into(),
            ];
            row.extend(
                [
                    "m.drops",
                    "m.ecn_marks",
                    "m.ecn_echoes",
                    "m.retransmits",
                    "m.peak_switch_queue_depth",
                ]
                .map(|k| Value::from(m.require(k))),
            );
            row
        })
        .collect();
    table(CONGESTION, rows)
}

// ---------------------------------------------------------------------
// Figure registry
// ---------------------------------------------------------------------

/// Every runnable figure/table/ablation, for CLI dispatch and the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureKind {
    /// Figure 4: CLIC bandwidth, MTU × copy path.
    Fig4,
    /// Figure 5: CLIC vs TCP/IP.
    Fig5,
    /// Figure 6: middleware comparison.
    Fig6,
    /// Figure 7: packet pipeline stage breakdown.
    Fig7,
    /// §4 headline scalars.
    Scalars,
    /// §5 CLIC vs GAMMA table.
    Gamma,
    /// Ablation A: interrupt coalescing.
    Coalescing,
    /// Ablation B: NIC fragmentation offload.
    Fragmentation,
    /// Ablation C: channel bonding.
    Bonding,
    /// Ablation D: system-call flavour.
    Syscall,
    /// Ablation E: goodput under loss.
    Loss,
    /// Ablation F: CPU utilisation vs link speed.
    Cpu,
    /// Ablation G: latency under bulk load.
    Load,
    /// Ablation H: Figure 1 data paths.
    Paths,
    /// Ablation I: all-to-all scaling.
    Scaling,
    /// Reliability under loss: CLIC vs TCP across loss rate × burstiness
    /// × MTU.
    Reliability,
    /// Chaos soak (crash/restart/flap/loss schedules) plus incast
    /// backpressure. Not part of [`FigureKind::ALL`]: its fault schedules
    /// target the robustness machinery rather than a paper figure, so it
    /// runs only when named explicitly (`figures chaos`).
    Chaos,
    /// Cluster scaling: barrier/all-reduce vs node count on multi-switch
    /// fabrics, host-based vs NIC-offloaded. Not part of
    /// [`FigureKind::ALL`]: it measures the scale-out extension rather
    /// than a paper figure, so it runs only when named explicitly
    /// (`figures scale`).
    Scale,
    /// Fabric congestion: fixed-window vs ECN-cwnd under incast and
    /// all-to-all shuffle on multi-switch fabrics. Not part of
    /// [`FigureKind::ALL`]: it measures the congestion-control extension
    /// rather than a paper figure, so it runs only when named explicitly
    /// (`figures congestion`).
    Congestion,
}

/// One figure family: everything the runner and the `figures` binary
/// know about it.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// The family.
    pub kind: FigureKind,
    /// The CLI name (`figures <name>`).
    pub name: &'static str,
    /// The display title, as printed by the `figures` binary.
    pub title: &'static str,
    /// The jobs on a size grid. Families that don't sweep sizes read only
    /// whether the grid is reduced, or ignore it.
    pub jobs: fn(&[usize]) -> Vec<JobSpec>,
    /// Assemble the output from job results, which must contain every id
    /// `jobs` lists for the same sizes.
    pub assemble: fn(&ResultMap, &[usize]) -> FigureOutput,
}

/// Every figure family, in [`FigureKind`] order.
pub static FAMILIES: [Family; 19] = [
    Family {
        kind: FigureKind::Fig4,
        name: "fig4",
        title: "Figure 4: CLIC bandwidth, MTU x copy-path",
        jobs: |s| curves_jobs("fig4", fig4_curves(), s),
        assemble: |r, s| curves_from(r, "fig4", fig4_curves(), s),
    },
    Family {
        kind: FigureKind::Fig5,
        name: "fig5",
        title: "Figure 5: CLIC vs TCP/IP, MTU 9000/1500",
        jobs: |s| curves_jobs("fig5", fig5_curves(), s),
        assemble: |r, s| curves_from(r, "fig5", fig5_curves(), s),
    },
    Family {
        kind: FigureKind::Fig6,
        name: "fig6",
        title: "Figure 6: CLIC, MPI-CLIC, MPI-TCP, PVM-TCP",
        jobs: |s| curves_jobs("fig6", fig6_curves(), s),
        assemble: |r, s| curves_from(r, "fig6", fig6_curves(), s),
    },
    Family {
        kind: FigureKind::Fig7,
        name: "fig7",
        title: "Figure 7: 1400-byte packet pipeline stages",
        jobs: fig7_jobs,
        assemble: fig7_from,
    },
    Family {
        kind: FigureKind::Scalars,
        name: "scalars",
        title: "Headline scalars (paper Section 4/5)",
        jobs: scalars_jobs,
        assemble: |r, s| FigureOutput::Scalars(scalars_of(r, s)),
    },
    Family {
        kind: FigureKind::Gamma,
        name: "gamma",
        title: "Section 5 comparison: CLIC vs GAMMA",
        jobs: gamma_jobs,
        assemble: gamma_from,
    },
    Family {
        kind: FigureKind::Coalescing,
        name: "coalescing",
        title: "Ablation A: interrupt coalescing",
        jobs: coalescing_jobs,
        assemble: coalescing_from,
    },
    Family {
        kind: FigureKind::Fragmentation,
        name: "fragmentation",
        title: "Ablation B: NIC fragmentation offload (paper future work)",
        jobs: |s| curves_jobs("fragmentation", fragmentation_curves(), s),
        assemble: |r, s| curves_from(r, "fragmentation", fragmentation_curves(), s),
    },
    Family {
        kind: FigureKind::Bonding,
        name: "bonding",
        title: "Ablation C: channel bonding",
        jobs: bonding_jobs,
        assemble: bonding_from,
    },
    Family {
        kind: FigureKind::Syscall,
        name: "syscall",
        title: "Ablation D: system-call flavour (Section 3.2)",
        jobs: syscall_jobs,
        assemble: syscall_from,
    },
    Family {
        kind: FigureKind::Loss,
        name: "loss",
        title: "Ablation E: CLIC goodput under frame loss",
        jobs: loss_jobs,
        assemble: loss_from,
    },
    Family {
        kind: FigureKind::Cpu,
        name: "cpu",
        title: "Ablation F: CPU utilisation vs link speed (Section 2 claim)",
        jobs: cpu_jobs,
        assemble: cpu_from,
    },
    Family {
        kind: FigureKind::Load,
        name: "load",
        title: "Ablation G: 64-byte latency under bulk load",
        jobs: load_jobs,
        assemble: load_from,
    },
    Family {
        kind: FigureKind::Paths,
        name: "paths",
        title: "Ablation H: Figure 1 data paths",
        jobs: paths_jobs,
        assemble: paths_from,
    },
    Family {
        kind: FigureKind::Scaling,
        name: "scaling",
        title: "Ablation I: CLIC all-to-all scaling on a switch",
        jobs: scaling_jobs,
        assemble: scaling_from,
    },
    Family {
        kind: FigureKind::Reliability,
        name: "reliability",
        title: "Reliability under loss: CLIC vs TCP, loss rate x burstiness x MTU",
        jobs: reliability_jobs,
        assemble: reliability_from,
    },
    Family {
        kind: FigureKind::Chaos,
        name: "chaos",
        title: "Chaos soak: crash/restart/flap/loss schedules + incast backpressure",
        jobs: chaos_jobs,
        assemble: chaos_from,
    },
    Family {
        kind: FigureKind::Scale,
        name: "scale",
        title: "Cluster scaling: collectives vs node count, fabrics, host vs NIC offload",
        jobs: scale_jobs,
        assemble: scale_from,
    },
    Family {
        kind: FigureKind::Congestion,
        name: "congestion",
        title: "Fabric congestion: fixed window vs ECN-driven cwnd, incast + shuffle",
        jobs: congestion_jobs,
        assemble: congestion_from,
    },
];

// `FigureKind::family` indexes FAMILIES by discriminant.
const _: () = {
    let mut i = 0;
    while i < FAMILIES.len() {
        assert!(
            FAMILIES[i].kind as usize == i,
            "FAMILIES is out of FigureKind order"
        );
        i += 1;
    }
};

impl FigureKind {
    /// Every figure, in the order `figures all` runs them.
    pub const ALL: [FigureKind; 16] = [
        FigureKind::Fig4,
        FigureKind::Fig5,
        FigureKind::Fig6,
        FigureKind::Fig7,
        FigureKind::Scalars,
        FigureKind::Gamma,
        FigureKind::Coalescing,
        FigureKind::Fragmentation,
        FigureKind::Bonding,
        FigureKind::Syscall,
        FigureKind::Loss,
        FigureKind::Cpu,
        FigureKind::Load,
        FigureKind::Paths,
        FigureKind::Scaling,
        FigureKind::Reliability,
    ];

    /// This figure's entry in [`FAMILIES`].
    fn family(self) -> &'static Family {
        &FAMILIES[self as usize]
    }

    /// The CLI name (`figures <name>`).
    pub fn name(self) -> &'static str {
        self.family().name
    }

    /// The figure's display title, as printed by the `figures` binary.
    pub fn title(self) -> &'static str {
        self.family().title
    }

    /// Parse a CLI name, opt-in families (outside [`FigureKind::ALL`])
    /// included.
    pub fn from_name(name: &str) -> Option<FigureKind> {
        FAMILIES.iter().find(|f| f.name == name).map(|f| f.kind)
    }

    /// The jobs of this figure on the given size grid.
    pub fn jobs(self, sizes: &[usize]) -> Vec<JobSpec> {
        (self.family().jobs)(sizes)
    }

    /// Assemble this figure's output from job results (which must contain
    /// every id listed by [`FigureKind::jobs`] for the same `sizes`).
    pub fn assemble(self, results: &ResultMap, sizes: &[usize]) -> FigureOutput {
        (self.family().assemble)(results, sizes)
    }

    /// Run this figure's jobs serially in-process and assemble them.
    pub fn run(self, sizes: &[usize]) -> FigureOutput {
        self.assemble(&run_serial(&self.jobs(sizes)), sizes)
    }
}

// ---------------------------------------------------------------------
// Paper-claim checklist
// ---------------------------------------------------------------------

/// One verifiable claim from the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimRow {
    /// Identifier (C1, C2, ...).
    pub id: String,
    /// The claim, paraphrased from the paper.
    pub claim: String,
    /// What the simulation measured.
    pub measured: String,
    /// Whether the measurement supports the claim.
    pub pass: bool,
}

/// The reduced size grid the claims are checked on (a subset of
/// [`paper_sizes`]).
const CLAIM_SIZES: [usize; 8] = [
    4_096, 8_192, 16_384, 32_768, 65_536, 262_144, 1_048_576, 4_194_304,
];

/// The families the claims read.
const CLAIM_FAMILIES: [FigureKind; 6] = [
    FigureKind::Scalars,
    FigureKind::Fig4,
    FigureKind::Fig6,
    FigureKind::Fig7,
    FigureKind::Gamma,
    FigureKind::Cpu,
];

/// The jobs [`claims`] reads: its six families on the claims grid. Their
/// ids and specs are those of the same points in `figures all`, so a
/// warm result cache serves them.
pub fn claims_jobs() -> Vec<JobSpec> {
    CLAIM_FAMILIES
        .iter()
        .flat_map(|kind| kind.jobs(&CLAIM_SIZES))
        .collect()
}

/// Evaluate the paper's headline claims against the results of
/// [`claims_jobs`] — the executable form of EXPERIMENTS.md.
pub fn claims(results: &ResultMap) -> Vec<ClaimRow> {
    let sizes = &CLAIM_SIZES;
    let mut rows = Vec::new();
    let mut check = |id: &str, claim: &str, measured: String, pass: bool| {
        rows.push(ClaimRow {
            id: id.into(),
            claim: claim.into(),
            measured,
            pass,
        });
    };

    let s = scalars_of(results, sizes);
    check(
        "C1",
        "0-byte one-way latency is 36 us",
        format!("{:.1} us", s.zero_byte_latency_us),
        (25.0..48.0).contains(&s.zero_byte_latency_us),
    );
    check(
        "C2",
        "asymptotic bandwidth ~600 Mb/s at MTU 9000",
        format!("{:.0} Mb/s", s.clic_asymptote_9000_mbps),
        (500.0..700.0).contains(&s.clic_asymptote_9000_mbps),
    );
    check(
        "C3",
        "asymptotic bandwidth ~450 Mb/s at MTU 1500",
        format!("{:.0} Mb/s", s.clic_asymptote_1500_mbps),
        (380.0..550.0).contains(&s.clic_asymptote_1500_mbps),
    );
    check(
        "C4",
        "CLIC more than ~2x TCP at TCP's best MTU",
        format!(
            "{:.2}x",
            s.clic_asymptote_9000_mbps / s.tcp_asymptote_9000_mbps
        ),
        s.clic_asymptote_9000_mbps / s.tcp_asymptote_9000_mbps > 1.7,
    );
    check(
        "C5",
        "TCP reaches 50% of its peak around 16 KB",
        format!("{} B", s.tcp_half_bandwidth_bytes),
        (8_192..=32_768).contains(&s.tcp_half_bandwidth_bytes),
    );

    let f4 = FigureKind::Fig4.assemble(results, sizes);
    let f4 = f4.series();
    let zc9000 = peak(&f4[0]);
    let zc1500 = peak(&f4[1]);
    let oc9000 = peak(&f4[2]);
    let oc1500 = peak(&f4[3]);
    check(
        "C6",
        "jumbo frames and 0-copy both improve bandwidth",
        format!("jumbo {zc1500:.0}->{zc9000:.0}, 0-copy {oc9000:.0}->{zc9000:.0}"),
        zc9000 > zc1500 && zc9000 > oc9000 && zc1500 > oc1500,
    );
    check(
        "C7",
        "the jumbo-frame improvement exceeds the 0-copy improvement",
        format!(
            "jumbo +{:.0} vs 0-copy +{:.0} Mb/s",
            zc9000 - zc1500,
            zc9000 - oc9000
        ),
        (zc9000 - zc1500) > (zc9000 - oc9000),
    );

    let f6 = FigureKind::Fig6.assemble(results, sizes);
    let f6 = f6.series();
    let last = |i: usize| f6[i].points.last().unwrap().mbps;
    check(
        "C8",
        "ordering CLIC >= MPI-CLIC > MPI-TCP > PVM-TCP",
        format!(
            "{:.0} >= {:.0} > {:.0} > {:.0}",
            last(0),
            last(1),
            last(2),
            last(3)
        ),
        last(0) >= last(1) * 0.98 && last(1) > last(2) && last(2) > last(3),
    );
    check(
        "C9",
        "MPI-CLIC at least 1.5x MPI-TCP for long messages",
        format!("{:.2}x", last(1) / last(2)),
        last(1) / last(2) > 1.5,
    );

    let f7a = fig7_stages(results, FIG7[0].0);
    let f7b = fig7_stages(results, FIG7[1].0);
    let stage = |rows: &[StageRow], name: &str| {
        rows.iter()
            .find(|r| r.stage == name)
            .map(|r| r.us)
            .unwrap_or(0.0)
    };
    let rx_total = |rows: &[StageRow]| {
        ["driver_rx", "bottom_half", "clic_module_rx", "copy_to_user"]
            .iter()
            .map(|n| stage(rows, n))
            .sum::<f64>()
    };
    check(
        "C10",
        "the receiver driver stage dominates the pipeline (~15 us @1400 B)",
        format!("{:.1} us", stage(&f7a, "driver_rx")),
        (10.0..25.0).contains(&stage(&f7a, "driver_rx")),
    );
    check(
        "C11",
        "the direct-call improvement shrinks the receive path ~20 -> ~5 us",
        format!("{:.1} -> {:.1} us", rx_total(&f7a), rx_total(&f7b)),
        rx_total(&f7b) < rx_total(&f7a) / 2.0 && rx_total(&f7b) < 10.0,
    );

    let g = FigureKind::Gamma.assemble(results, sizes);
    let g = g.table();
    let (clic_us, clic_mbps) = (g.num(0, "latency_us"), g.num(0, "bandwidth_mbps"));
    let (gamma_us, gamma_mbps) = (g.num(1, "latency_us"), g.num(1, "bandwidth_mbps"));
    check(
        "C12",
        "GAMMA has lower latency and higher bandwidth; CLIC keeps the services",
        format!(
            "GAMMA {gamma_us:.1} us/{gamma_mbps:.0} Mb/s vs CLIC {clic_us:.1} us/{clic_mbps:.0} Mb/s"
        ),
        gamma_us < clic_us && gamma_mbps > clic_mbps,
    );

    let cpu = FigureKind::Cpu.assemble(results, sizes);
    let cpu = cpu.table();
    let tcp_at = |link: f64| {
        (0..cpu.rows.len())
            .find(|&i| cpu.get(i, "stack") == "TCP".into() && cpu.num(i, "link_mbps") == link)
            .expect("the CPU ablation measures TCP at 100 and 1000 Mb/s")
    };
    let (fe, ge) = (tcp_at(100.0), tcp_at(1000.0));
    check(
        "C13",
        "TCP nearly saturates Fast Ethernet at modest CPU; gigabit pins the CPU",
        format!(
            "FE {:.0}% of wire @{:.0}% CPU; GbE {:.0}% of wire @{:.0}% CPU",
            cpu.num(fe, "pct_of_wire"),
            cpu.num(fe, "receiver_cpu") * 100.0,
            cpu.num(ge, "pct_of_wire"),
            cpu.num(ge, "receiver_cpu") * 100.0
        ),
        cpu.num(fe, "pct_of_wire") > 80.0
            && cpu.num(ge, "receiver_cpu") > 0.8
            && cpu.num(ge, "pct_of_wire") < 40.0,
    );

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_ascend() {
        let s = paper_sizes();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(quick_sizes().iter().all(|x| s.contains(x)));
    }

    #[test]
    fn half_bandwidth_point_finds_crossing() {
        let series = Series {
            label: "x".into(),
            points: vec![
                SeriesPoint {
                    size: 1,
                    mbps: 10.0,
                },
                SeriesPoint {
                    size: 2,
                    mbps: 40.0,
                },
                SeriesPoint {
                    size: 4,
                    mbps: 100.0,
                },
            ],
        };
        assert_eq!(half_bandwidth_point(&series), 4);
    }

    #[test]
    fn registry_names_roundtrip() {
        for family in &FAMILIES {
            assert_eq!(FigureKind::from_name(family.name), Some(family.kind));
            assert_eq!(family.kind.name(), family.name);
        }
        // The opt-in chaos/scale/congestion families parse by name but
        // stay out of ALL.
        let opt_in: Vec<&str> = FAMILIES
            .iter()
            .filter(|f| !FigureKind::ALL.contains(&f.kind))
            .map(|f| f.name)
            .collect();
        assert_eq!(opt_in, ["chaos", "scale", "congestion"]);
        assert_eq!(FigureKind::from_name("nope"), None);
    }

    #[test]
    fn job_ids_are_unique_across_all_figures() {
        let sizes = quick_sizes();
        let mut seen = std::collections::BTreeSet::new();
        for family in &FAMILIES {
            for spec in family.kind.jobs(&sizes) {
                assert!(seen.insert(spec.id.clone()), "duplicate job id {}", spec.id);
            }
        }
        assert!(seen.len() > 100, "expected a substantial grid");
    }

    #[test]
    fn claims_jobs_are_paper_grid_jobs() {
        // A warm `figures all` cache must serve every claims job: same
        // id, same fingerprint.
        let sizes = paper_sizes();
        let grid: BTreeMap<String, u64> = FigureKind::ALL
            .iter()
            .flat_map(|kind| kind.jobs(&sizes))
            .map(|spec| (spec.id.clone(), spec.fingerprint()))
            .collect();
        for spec in claims_jobs() {
            assert_eq!(grid.get(&spec.id), Some(&spec.fingerprint()), "{}", spec.id);
        }
    }

    #[test]
    fn sweep_assembly_matches_direct_run() {
        let model = CostModel::era_2002();
        let sizes = [1_024usize, 65_536];
        let cfg = clic_pair(&model, false, true);
        let specs = sweep_jobs("sweep", "x", &cfg, StackKind::Clic, &sizes);
        let series = sweep_from(&run_serial(&specs), "sweep", "x", &sizes);
        assert_eq!(series.points.len(), 2);
        assert!(series.points[0].size < series.points[1].size);
        assert!(series.points.iter().all(|p| p.mbps > 0.0));
    }
}
