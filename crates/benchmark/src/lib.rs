//! # clic-benchmark — the repository benchmark
//!
//! Measures what the simulator costs its user, on four workloads
//! ([`workload::Workload`]), through the layers' public functions only,
//! timed from outside:
//!
//! * an **untraced** run repeats passes over the workload's job grid for a
//!   fixed time and reports the end-to-end metrics: the median pass wall
//!   time, the median set-up time and the peak resident set;
//! * a **traced** run follows each pass with a replay of every executed
//!   job ([`trace::replay`]) that splits its host time into cluster build,
//!   event dispatch and metric collection, and reports the per-layer
//!   metrics ([`report::per_layer`]);
//! * every job's output is checked against a committed reference
//!   ([`oracle`]), so a timed run that computes the wrong numbers fails.
//!
//! See `README.md` for the metric definitions and how to compare runs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod oracle;
pub mod report;
pub mod trace;
pub mod workload;

use calibrate::Speed;
use clic_bench::runner::RunnerConfig;
use clic_cluster::jobs::{JobSpec, Measurement};
use oracle::{Reference, Tally};
use report::Metric;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{JobTrace, Spans};
use workload::{Family, Workload};

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed; 0 keeps every family's own seeds.
    pub seed: u64,
    /// How long the passes run, seconds (at least one pass runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Working directory for result caches; the caller removes it.
    pub work_dir: PathBuf,
    /// The reference the outputs are checked against.
    pub reference: Reference,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Jobs checked and failed.
    pub tally: Tally,
    /// Spans of a traced run.
    pub spans: Spans,
    /// Passes made.
    pub passes: usize,
}

/// Set-up repeats at least `SETUP_MIN_REPS` times and until
/// `SETUP_BUDGET` has gone by (at most `SETUP_MAX_REPS` times), so its
/// median is steady.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_millis(250);

/// No pass starts once the resident set has reached this size. The
/// simulator leaks every cluster it builds (its components hold each
/// other in `Rc` cycles), about 19 MiB per `fabric_scale` pass, so that
/// workload stops early rather than grow for the whole run.
const RSS_BUDGET_MIB: f64 = 768.0;

/// Run workload `w` over the grids `make_grid` produces for a seed.
///
/// One set-up and one pass come first, and the peak resident set is read
/// after them: that is what a single `figures` invocation costs, before
/// repetition adds leaked clusters. Passes, the first included, repeat
/// for `opts.seconds`; untraced runs then repeat the set-up for its
/// median. Every time is in reference-host seconds ([`calibrate`]).
pub fn run(w: Workload, opts: &Options, make_grid: &dyn Fn(u64) -> Vec<Family>) -> Outcome {
    let cache = w.cached().then(|| opts.work_dir.join("cache"));
    let mut speed = Speed::new();
    let setup = |speed: &mut Speed| {
        let before = speed.factor();
        let t0 = Instant::now();
        let grid = workload::setup(w, opts.seed, make_grid, cache.as_deref());
        let secs = t0.elapsed().as_secs_f64();
        (grid, secs * (before + speed.factor()) / 2.0)
    };
    let (grid, first_setup) = setup(&mut speed);
    let mut setups = vec![first_setup];

    let runner = RunnerConfig {
        jobs: 1,
        cache_dir: cache.clone(),
    };
    let sizes = w.sizes();
    let mut spans = if opts.trace {
        Spans::enabled()
    } else {
        Spans::disabled()
    };
    let mut tally = Tally::default();
    let mut samples: Vec<Vec<Metric>> = Vec::new();
    let mut walls = Vec::new();
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    let mut k = 0u64;
    while k == 0
        || (started.elapsed().as_secs_f64() < opts.seconds
            && report::proc_status_mib("VmRSS") < RSS_BUDGET_MIB)
    {
        let seed = w.pass_seed(opts.seed, k);
        let reseeded;
        let pass_grid = if seed == opts.seed {
            &grid
        } else {
            reseeded = make_grid(seed);
            &reseeded
        };
        if w == Workload::PaperGrid {
            workload::fresh_dir(cache.as_deref().expect("paper_grid runs with a cache"));
        }
        let pass = workload::run_pass(pass_grid, &sizes, &runner, &mut spans, &mut speed);
        let mut traces = Vec::new();
        let specs = pass_grid.iter().flat_map(|f| &f.specs);
        for (spec, job) in specs.zip(&pass.jobs) {
            let problem = match &job.outcome {
                Err(why) => Some(why.clone()),
                Ok(m) => oracle::check(spec, m, &opts.reference, seed == 0).or_else(|| {
                    let replay = opts.trace && !job.cached;
                    replay.then(|| replay_checked(spec, m, &mut spans, &mut speed, &mut traces))?
                }),
            };
            tally.record(&spec.id, problem);
        }
        if opts.trace {
            samples.push(report::per_layer(&pass, &traces));
        }
        walls.push(pass.wall_s);
        if k == 0 {
            peak_rss_mb = report::proc_status_mib("VmHWM");
        }
        k += 1;
    }
    if !opts.trace {
        let reps_started = Instant::now();
        while setups.len() < SETUP_MIN_REPS
            || (reps_started.elapsed() < SETUP_BUDGET && setups.len() < SETUP_MAX_REPS)
        {
            setups.push(setup(&mut speed).1);
        }
    }
    let metrics = if opts.trace {
        report::medians(&samples)
    } else {
        report::end_to_end(report::median(walls), report::median(setups), peak_rss_mb)
    };
    Outcome {
        metrics,
        tally,
        spans,
        passes: k as usize,
    }
}

/// Replay `spec` and compare its event count with `m`, its untraced
/// measurement; the replay's trace, in reference-host time, joins
/// `traces`.
fn replay_checked(
    spec: &JobSpec,
    m: &Measurement,
    spans: &mut Spans,
    speed: &mut Speed,
    traces: &mut Vec<JobTrace>,
) -> Option<String> {
    let before = speed.factor();
    let mut t = match catch_unwind(AssertUnwindSafe(|| trace::replay(spec, spans))) {
        Ok(t) => t,
        Err(panic) => {
            let why = workload::panic_message(&*panic);
            return Some(format!("replay panicked: {why}"));
        }
    };
    t.scale((before + speed.factor()) / 2.0);
    let untraced = m.get("m.events");
    let problem = (Some(t.events as f64) != untraced).then(|| {
        format!(
            "traced run executed {} events, untraced {untraced:?}",
            t.events
        )
    });
    traces.push(t);
    problem
}
