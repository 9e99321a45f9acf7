//! The four workloads and one pass over a workload's job grid.
//!
//! A pass is what `figures <families>` does for a user, one figure family
//! at a time: `run_jobs` on one worker thread, then `assemble`, then
//! render. Jobs run as a closed loop: the next one starts when the
//! previous one returns.

use crate::calibrate::Speed;
use crate::trace::{SpanId, Spans};
use clic_bench::render::{series_ascii, series_csv};
use clic_bench::runner::{run_jobs, RunnerConfig};
use clic_cluster::experiments::{paper_sizes, quick_sizes, FigureKind, FigureOutput};
use clic_cluster::jobs::{JobKind, JobSpec, Measurement};
use clic_cluster::{Cluster, ClusterConfig};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 16 `figures all` families at paper sizes, into a fresh cache:
    /// two-node streams, so engine dispatch and the per-packet path of
    /// every stack dominate.
    PaperGrid,
    /// The full `congestion` and `chaos` grids, reseeded every pass:
    /// switch queues, drops, marking and CLIC retransmission.
    FabricCongestion,
    /// The full `scale` grid (8–256 nodes): the largest builds, the NIC
    /// collective engine and MPI.
    FabricScale,
    /// The quick grid replayed from a warm cache: runner, cache reads and
    /// render, with no simulator events.
    WarmReplay,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::FabricCongestion,
        Workload::FabricScale,
        Workload::WarmReplay,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::FabricCongestion => "fabric_congestion",
            Workload::FabricScale => "fabric_scale",
            Workload::WarmReplay => "warm_replay",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The figure families a pass runs.
    pub fn families(self) -> &'static [FigureKind] {
        match self {
            Workload::PaperGrid | Workload::WarmReplay => &FigureKind::ALL,
            Workload::FabricCongestion => &[FigureKind::Congestion, FigureKind::Chaos],
            Workload::FabricScale => &[FigureKind::Scale],
        }
    }

    /// The size grid the families are built on.
    pub fn sizes(self) -> Vec<usize> {
        match self {
            Workload::WarmReplay => quick_sizes(),
            _ => paper_sizes(),
        }
    }

    /// Whether passes go through the result cache (the others run every
    /// job every pass).
    pub fn cached(self) -> bool {
        matches!(self, Workload::PaperGrid | Workload::WarmReplay)
    }

    /// The seed of pass `k` of a run at `seed`. Only `fabric_congestion`
    /// moves it, so its chaos fault schedules differ from pass to pass.
    pub fn pass_seed(self, seed: u64, k: u64) -> u64 {
        match self {
            Workload::FabricCongestion => seed.wrapping_add(k),
            _ => seed,
        }
    }
}

/// One figure family's jobs.
#[derive(Debug, Clone)]
pub struct Family {
    /// The family.
    pub kind: FigureKind,
    /// Its jobs, reseeded for the run.
    pub specs: Vec<JobSpec>,
}

/// The job grid of `w` at `seed` (seed 0 keeps every family's own seeds).
pub fn grid(w: Workload, seed: u64) -> Vec<Family> {
    let sizes = w.sizes();
    w.families()
        .iter()
        .map(|&kind| Family {
            kind,
            specs: kind
                .jobs(&sizes)
                .into_iter()
                .map(|mut spec| {
                    reseed(&mut spec, seed);
                    spec
                })
                .collect(),
        })
        .collect()
}

/// The simulator seed `--seed` moves, if any. `LoadedLatency` has none.
/// The reliability family keeps its own: at up to 4 % of other seeds a
/// lossy cell's TCP handshake, or a burst-loss CLIC flow, runs out of
/// retries and the workload function panics, so reseeding it would fail
/// runs instead of checking them.
pub fn seed_mut(kind: &mut JobKind) -> Option<&mut u64> {
    match kind {
        JobKind::Stream { seed, .. }
        | JobKind::PingPong { seed, .. }
        | JobKind::StageTrace { seed, .. }
        | JobKind::AllToAll { seed, .. }
        | JobKind::Chaos { seed, .. }
        | JobKind::ScaleCollective { seed, .. }
        | JobKind::Incast { seed, .. } => Some(seed),
        JobKind::Reliability { .. } | JobKind::LoadedLatency { .. } => None,
    }
}

/// Replace the job's seed with a mix of it and `seed`; seed 0 leaves it
/// unchanged.
pub fn reseed(spec: &mut JobSpec, seed: u64) {
    if seed == 0 {
        return;
    }
    if let Some(slot) = seed_mut(&mut spec.kind) {
        *slot = splitmix64(*slot ^ splitmix64(seed));
    }
}

/// SplitMix64's output function: a cheap bijective 64-bit mix.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The cluster a job builds, if it builds one itself.
fn cluster_of(kind: &JobKind) -> Option<&ClusterConfig> {
    match kind {
        JobKind::Stream { cluster, .. }
        | JobKind::PingPong { cluster, .. }
        | JobKind::StageTrace { cluster, .. }
        | JobKind::Reliability { cluster, .. }
        | JobKind::AllToAll { cluster, .. }
        | JobKind::Chaos { cluster, .. }
        | JobKind::ScaleCollective { cluster, .. }
        | JobKind::Incast { cluster, .. } => Some(cluster),
        JobKind::LoadedLatency { .. } => None,
    }
}

/// Empty `dir`, creating it if needed.
pub(crate) fn fresh_dir(dir: &Path) {
    // A missing directory is the empty state we want.
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create benchmark work directory");
}

/// The benchmark's set-up for one run: generate the specs, build each
/// job's cluster once (then drop it), and for `warm_replay` fill `cache`
/// cold. Returns the grid the passes run.
pub(crate) fn setup(
    w: Workload,
    seed: u64,
    make_grid: &dyn Fn(u64) -> Vec<Family>,
    cache: Option<&Path>,
) -> Vec<Family> {
    let grid = make_grid(seed);
    for spec in grid.iter().flat_map(|f| &f.specs) {
        if let Some(config) = cluster_of(&spec.kind) {
            drop(black_box(Cluster::build(config)));
        }
    }
    if w == Workload::WarmReplay {
        let cache = cache.expect("warm_replay runs with a cache");
        fresh_dir(cache);
        let specs: Vec<JobSpec> = grid.iter().flat_map(|f| f.specs.clone()).collect();
        let runner = RunnerConfig {
            jobs: 1,
            cache_dir: Some(cache.to_path_buf()),
        };
        // A job that panics here misses the cache, panics again in the
        // first pass, and is counted as failed there.
        let _ = catch_unwind(AssertUnwindSafe(|| run_jobs(&specs, &runner)));
    }
    grid
}

/// One job's result in a pass.
#[derive(Debug, Clone)]
pub(crate) struct JobResult {
    /// The measurement, or why there is none (its family panicked).
    pub outcome: Result<Measurement, String>,
    /// Whether the result came from the cache.
    pub cached: bool,
}

/// What one pass did and how long each part took, in reference-host
/// seconds ([`crate::calibrate`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Pass {
    /// The timed region: `run_jobs` + assemble + render.
    pub wall_s: f64,
    /// Σ `run_jobs` seconds.
    pub run_jobs_s: f64,
    /// Σ `JobSpec::run` seconds inside `run_jobs`.
    pub job_s: f64,
    /// Σ `FigureKind::assemble` seconds.
    pub assemble_s: f64,
    /// Σ render seconds.
    pub render_s: f64,
    /// Σ `JobSpec::fingerprint` seconds (traced passes only).
    pub fingerprint_s: f64,
    /// Jobs served from the cache.
    pub cache_hits: usize,
    /// Per job, in grid order.
    pub jobs: Vec<JobResult>,
}

/// Run one pass over `grid`. Each family's time is scaled by the host
/// speed measured around it. A traced recorder also times
/// `JobSpec::fingerprint` over every spec, outside the timed region.
pub(crate) fn run_pass(
    grid: &[Family],
    sizes: &[usize],
    runner: &RunnerConfig,
    spans: &mut Spans,
    speed: &mut Speed,
) -> Pass {
    let mut pass = Pass::default();
    let bench = spans.open("bench", "pass", None);
    for family in grid {
        let name = family.kind.name();
        let before = speed.factor();
        if spans.is_enabled() {
            let s = spans.open("fingerprint", name, Some(bench));
            for spec in &family.specs {
                black_box(spec.fingerprint());
            }
            pass.fingerprint_s += spans.close(s) * before;
        }
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run_family(family, sizes, runner, spans, bench, &mut pass)
        }));
        match ran {
            Ok(t) => {
                let factor = (before + speed.factor()) / 2.0;
                pass.wall_s += (t.run_jobs_s + t.assemble_s + t.render_s) * factor;
                pass.run_jobs_s += t.run_jobs_s * factor;
                pass.job_s += t.job_s * factor;
                pass.assemble_s += t.assemble_s * factor;
                pass.render_s += t.render_s * factor;
            }
            Err(panic) => {
                let why = panic_message(&*panic);
                pass.jobs.extend(family.specs.iter().map(|_| JobResult {
                    outcome: Err(format!("family {name} panicked: {why}")),
                    cached: false,
                }));
            }
        }
    }
    spans.close(bench);
    pass
}

/// Host seconds of one family's bench-layer calls.
struct FamilyTimes {
    run_jobs_s: f64,
    job_s: f64,
    assemble_s: f64,
    render_s: f64,
}

/// Run, assemble and render one family, adding its jobs to `pass`.
fn run_family(
    family: &Family,
    sizes: &[usize],
    runner: &RunnerConfig,
    spans: &mut Spans,
    parent: SpanId,
    pass: &mut Pass,
) -> FamilyTimes {
    let name = family.kind.name();
    let s = spans.open("run_jobs", name, Some(parent));
    let (mut results, report) = run_jobs(&family.specs, runner);
    let run_jobs_s = spans.close(s);
    let s = spans.open("assemble", name, Some(parent));
    let output = family.kind.assemble(&results, sizes);
    let assemble_s = spans.close(s);
    let s = spans.open("render", name, Some(parent));
    if let FigureOutput::Series(series) = &output {
        black_box(series_csv(series));
        black_box(series_ascii(series, 40));
    }
    let render_s = spans.close(s);
    pass.cache_hits += report.cache_hits();
    for (spec, job) in family.specs.iter().zip(&report.jobs) {
        pass.jobs.push(JobResult {
            outcome: Ok(results
                .remove(&spec.id)
                .expect("run_jobs returns every job")),
            cached: job.cached,
        });
    }
    FamilyTimes {
        run_jobs_s,
        job_s: report.serial_equiv_secs(),
        assemble_s,
        render_s,
    }
}

/// The text of a caught panic.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}
