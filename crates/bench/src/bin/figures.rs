//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--json] [--jobs N] [--no-cache] [--cache-dir DIR]
//!         [--metrics] <what>...
//!   what: figure family names (`figures --help` lists them), claims, or
//!         all (every family except the opt-in ones)
//! figures trace [scenario] [--size N] [--mtu M] [--seed S] [--out FILE]
//!         [--metrics] [--quick]
//!   scenario: fig7a (default) fig7b fig7a-lossy tcp
//! ```
//!
//! * `--quick` (alias `--smoke`) uses a reduced size grid.
//! * `--json` emits machine-readable output instead of CSV + ASCII charts.
//! * `--jobs N` runs experiment jobs on N worker threads (default: all
//!   cores). Results are bit-identical for every N.
//! * `--no-cache` / `--cache-dir DIR` control the content-addressed result
//!   cache (default `target/figures-cache/`). A result is keyed by what
//!   the job simulates — its configuration, the cost-model constants and
//!   the simulator source, not its id — and reused while those are
//!   unchanged, so jobs of different families that simulate the same
//!   thing share one entry. `--no-cache` neither reads nor writes it,
//!   so each family simulates its jobs afresh; jobs of one call that
//!   simulate the same thing (the families of `claims`) still run once.
//! * `--metrics` also prints each figure's metric totals (drops,
//!   retransmits, peak switch queue depth).
//! * `trace` runs one traced message through the pipeline, writes Chrome
//!   trace-event JSON (load it at <https://ui.perfetto.dev>) and prints a
//!   per-stage breakdown.
//!
//! Every run (except `claims` and `trace`) also writes
//! `BENCH_figures.json`: wall clock and cache statistics per figure, the
//! speedup over a serial run of the executed jobs, and per-figure metric
//! totals.

use clic_bench::json::Json;
use clic_bench::render;
use clic_bench::runner::{run_jobs, RunReport, RunnerConfig};
use clic_cluster::experiments::{self, FigureKind, ResultMap, FAMILIES};
use clic_cluster::observe::{self, TimelineScenario, TraceScenario};

/// The usage text after the family list.
const USAGE_TAIL: &str = "   or: figures trace [fig7a|fig7b|fig7a-lossy|tcp] [--size N] [--mtu M]
        [--seed S] [--out FILE] [--metrics] [--quick]
   or: figures timeline [fig7a|reliability|incast|chaos|congestion]
        [--bucket-us N]
        [--out FILE] [--last N] [--jobs N] [--smoke]
        (replays one scenario with the timeline recorder on: CSV series
        on stdout, Perfetto counter-track JSON to --out; chaos keeps only
        the last --last buckets, flight-recorder style)
   or: figures bench [--quick|--smoke] [--json] [--jobs N] [--repeat N]
        (engine microbenches vs a BinaryHeap reference engine, plus a
        self-profiled uncached full-grid replay; results land in
        BENCH_figures.json)";

/// The usage text, with the family list read from [`FAMILIES`].
fn usage() -> String {
    let opt_in: Vec<&str> = FAMILIES
        .iter()
        .filter(|f| !FigureKind::ALL.contains(&f.kind))
        .map(|f| f.name)
        .collect();
    let (last, rest) = opt_in.split_last().expect("FAMILIES lists opt-in families");
    let note = format!(
        "({} and {last} are opt-in: not part of all)",
        rest.join(", ")
    );
    let mut out = String::from(
        "usage: figures [--quick|--smoke] [--json] [--jobs N] [--no-cache] \
         [--cache-dir DIR] [--metrics] <what>...\n  what:",
    );
    let mut width = "  what:".len();
    let words = FAMILIES.iter().map(|f| f.name).chain(["claims", "all"]);
    for word in words.chain(note.split_whitespace()) {
        if width + 1 + word.len() > 72 {
            out.push_str("\n       ");
            width = 7;
        }
        out.push(' ');
        out.push_str(word);
        width += 1 + word.len();
    }
    out.push('\n');
    out.push_str(USAGE_TAIL);
    out
}

/// Per-figure totals of the `m.`-prefixed measurement keys every job
/// reports (schema v2; `events` since v5).
#[derive(Debug, Clone, Copy, Default)]
struct MetricTotals {
    drops: f64,
    retransmits: f64,
    peak_switch_queue_depth: f64,
    events: f64,
}

impl MetricTotals {
    fn from_results(results: &ResultMap) -> MetricTotals {
        let mut t = MetricTotals::default();
        for m in results.values() {
            t.drops += m.get("m.drops").unwrap_or(0.0);
            t.retransmits += m.get("m.retransmits").unwrap_or(0.0);
            t.peak_switch_queue_depth = t
                .peak_switch_queue_depth
                .max(m.get("m.peak_switch_queue_depth").unwrap_or(0.0));
            t.events += m.get("m.events").unwrap_or(0.0);
        }
        t
    }

    fn merge(&mut self, other: &MetricTotals) {
        self.drops += other.drops;
        self.retransmits += other.retransmits;
        self.peak_switch_queue_depth = self
            .peak_switch_queue_depth
            .max(other.peak_switch_queue_depth);
        self.events += other.events;
    }

    fn json(&self) -> Json {
        Json::obj([
            ("drops", Json::Num(self.drops)),
            ("retransmits", Json::Num(self.retransmits)),
            (
                "peak_switch_queue_depth",
                Json::Num(self.peak_switch_queue_depth),
            ),
            ("events", Json::Num(self.events)),
        ])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        run_trace(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("timeline") {
        run_timeline_cmd(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("bench") {
        run_bench(&args[1..]);
        return;
    }
    let mut quick = false;
    let mut json = false;
    let mut jobs: Option<usize> = None;
    let mut cache = true;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut metrics = false;
    let mut what: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "--smoke" => quick = true,
            "--json" => json = true,
            "--no-cache" => cache = false,
            "--metrics" => metrics = true,
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => die("--jobs needs a positive integer"),
            },
            "--cache-dir" => match it.next() {
                Some(dir) => cache_dir = Some(dir.into()),
                None => die("--cache-dir needs a path"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            other if other.starts_with("--") => die(&format!("unknown flag '{other}'")),
            other => what.push(other.to_string()),
        }
    }
    let what = expand_all(what);

    let sizes = if quick {
        experiments::quick_sizes()
    } else {
        experiments::paper_sizes()
    };
    let config = RunnerConfig {
        jobs: jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        cache_dir: cache.then(|| cache_dir.unwrap_or_else(RunnerConfig::default_cache_dir)),
    };

    let mut timings: Vec<(String, RunReport, MetricTotals)> = Vec::new();
    for item in &what {
        if item == "claims" {
            let (results, _) = run_jobs(&experiments::claims_jobs(), &config);
            let rows = experiments::claims(&results);
            if json {
                print!("{}", render::claims_json(&rows));
            } else {
                print!("{}", render::claims_text(&rows));
                if rows.iter().any(|r| !r.pass) {
                    std::process::exit(1);
                }
            }
            continue;
        }
        let Some(kind) = FigureKind::from_name(item) else {
            eprintln!("unknown experiment '{item}'");
            std::process::exit(2);
        };
        let specs = kind.jobs(&sizes);
        let (results, report) = run_jobs(&specs, &config);
        let totals = MetricTotals::from_results(&results);
        let output = kind.assemble(&results, &sizes);
        if json {
            print!("{}", render::json(&output));
        } else {
            print!("{}", render::text(kind.title(), &output));
        }
        if metrics && !json {
            println!(
                "[{}] metrics: drops={} retransmits={} peak_switch_queue_depth={}",
                kind.name(),
                totals.drops,
                totals.retransmits,
                totals.peak_switch_queue_depth
            );
            println!();
        }
        timings.push((kind.name().to_string(), report, totals));
    }

    if !timings.is_empty() {
        let path = "BENCH_figures.json";
        match std::fs::write(path, bench_report(quick, &config, &timings, None).pretty()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// Expand each `all` in place into the [`FigureKind::ALL`] names, keeping
/// every other name and the order; no names at all means `all`.
fn expand_all(mut what: Vec<String>) -> Vec<String> {
    if what.is_empty() {
        what.push("all".to_string());
    }
    what.into_iter()
        .flat_map(|w| match w.as_str() {
            "all" => FigureKind::ALL.map(|k| k.name().to_string()).to_vec(),
            _ => vec![w],
        })
        .collect()
}

/// The `figures trace` subcommand: one traced message, any size and MTU.
fn run_trace(args: &[String]) {
    let mut scenario = TraceScenario::Fig7a;
    let mut size = 1400usize;
    let mut mtu = 1500usize;
    let mut seed = 0u64;
    let mut out = std::path::PathBuf::from("trace.json");
    let mut metrics = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // The trace run is a single message, so there is no reduced
            // grid; --quick is accepted for CLI symmetry with the figures.
            "--quick" | "--smoke" => {}
            "--metrics" => metrics = true,
            "--size" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => size = n,
                _ => die("--size needs a positive byte count"),
            },
            "--mtu" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => mtu = n,
                None => die("--mtu needs a byte count"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => die("--seed needs an integer"),
            },
            "--out" => match it.next() {
                Some(path) => out = path.into(),
                None => die("--out needs a path"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            other if other.starts_with("--") => die(&format!("unknown flag '{other}'")),
            other => match TraceScenario::parse(other) {
                Some(s) => scenario = s,
                None => die(&format!(
                    "unknown scenario '{other}' (expected fig7a, fig7b, fig7a-lossy or tcp)"
                )),
            },
        }
    }

    let t = observe::run_pipeline_trace(scenario, size, mtu, seed);
    println!(
        "== pipeline breakdown: {} {} B @ MTU {} ==",
        t.scenario.name(),
        t.size,
        t.mtu
    );
    print!("{}", observe::breakdown_table(&t.breakdown));
    println!();
    if metrics {
        print!("{}", t.metrics.dump());
        println!();
    }
    match std::fs::write(&out, &t.chrome_json) {
        Ok(()) => eprintln!(
            "wrote {} ({} spans; open in https://ui.perfetto.dev or chrome://tracing)",
            out.display(),
            t.spans.len()
        ),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

/// The `figures timeline` subcommand: replay one scenario with the
/// timeline recorder sampling into fixed-width buckets. The CSV series go
/// to stdout; the Chrome/Perfetto counter-track JSON to `--out`. Output
/// is a pure function of (scenario, bucket, ring capacity): `--jobs` is
/// accepted for symmetry with the figure runs but a timeline replay is a
/// single simulation, so the bytes are identical for every N.
fn run_timeline_cmd(args: &[String]) {
    let mut scenario = TimelineScenario::Incast;
    let mut bucket_us = 10u64;
    let mut last: Option<usize> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut smoke = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" | "--quick" => smoke = true,
            "--bucket-us" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => bucket_us = n,
                _ => die("--bucket-us needs a positive microsecond count"),
            },
            "--last" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => last = Some(n),
                _ => die("--last needs a positive bucket count"),
            },
            "--out" => match it.next() {
                Some(path) => out = Some(path.into()),
                None => die("--out needs a path"),
            },
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => {}
                _ => die("--jobs needs a positive integer"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            other if other.starts_with("--") => die(&format!("unknown flag '{other}'")),
            other => match TimelineScenario::parse(other) {
                Some(s) => scenario = s,
                None => die(&format!(
                    "unknown scenario '{other}' (expected fig7a, reliability, incast, \
                     chaos or congestion)"
                )),
            },
        }
    }

    let bucket = clic_sim::SimDuration::from_us(bucket_us);
    if smoke {
        // CI mode: replay every scenario once and insist each records a
        // usable set of series; nothing is written.
        let mut ok = true;
        for s in TimelineScenario::ALL {
            let t = observe::run_timeline(s, bucket, s.default_flight());
            let rows = t.csv.lines().filter(|l| !l.starts_with('#')).count();
            let tracks = t
                .chrome_json
                .lines()
                .filter(|l| l.contains("\"ph\": \"C\""))
                .count();
            println!(
                "timeline {:<12} {} series, {} rows, {} counter samples",
                s.name(),
                t.series,
                rows,
                tracks
            );
            ok &= t.series >= 3 && rows > 0 && tracks > 0;
        }
        if !ok {
            eprintln!("timeline smoke failed: a scenario recorded too few series");
            std::process::exit(1);
        }
        return;
    }

    let flight = last.or_else(|| scenario.default_flight());
    let t = observe::run_timeline(scenario, bucket, flight);
    print!("{}", t.csv);
    let out = out.unwrap_or_else(|| format!("timeline-{}.json", scenario.name()).into());
    match std::fs::write(&out, &t.chrome_json) {
        Ok(()) => eprintln!(
            "wrote {} ({} series; open in https://ui.perfetto.dev or chrome://tracing)",
            out.display(),
            t.series
        ),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{}", usage());
    std::process::exit(2);
}

/// One measured microbench: `repeat` timed runs of a fixed event count.
struct BenchRow {
    name: String,
    events: u64,
    median_secs: f64,
    min_secs: f64,
}

impl BenchRow {
    /// Events per second at the median run.
    fn events_per_sec(&self) -> f64 {
        if self.median_secs > 0.0 {
            self.events as f64 / self.median_secs
        } else {
            0.0
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("events", Json::from(self.events as usize)),
            ("median_secs", Json::Num(self.median_secs)),
            ("min_secs", Json::Num(self.min_secs)),
            ("events_per_sec", Json::Num(self.events_per_sec())),
        ])
    }
}

/// Time `repeat` runs of `work` (which returns its event count).
fn measure(name: String, repeat: usize, work: impl Fn() -> u64) -> BenchRow {
    let mut secs = Vec::with_capacity(repeat);
    let mut events = 0;
    for _ in 0..repeat {
        let start = std::time::Instant::now();
        events = work();
        secs.push(start.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    BenchRow {
        name,
        events,
        median_secs: secs[secs.len() / 2],
        min_secs: secs[0],
    }
}

/// The synthetic engine workloads, sized to `n` events each.
mod workloads {
    use clic_bench::reference::RefEngine;
    use clic_sim::{Sim, SimDuration};

    /// Self-rescheduling chain through the fn-pointer fast path.
    pub fn sim_chain(n: u64) -> u64 {
        let mut sim = Sim::new(0);
        fn tick(sim: &mut Sim, left: u64) {
            if left > 0 {
                sim.schedule_arg_in(SimDuration::from_ns(10), tick, left - 1);
            }
        }
        tick(&mut sim, n);
        sim.run();
        sim.events_executed()
    }

    /// The same chain through boxed closures (the general API).
    pub fn sim_chain_boxed(n: u64) -> u64 {
        let mut sim = Sim::new(0);
        fn tick(sim: &mut Sim, left: u64) {
            if left > 0 {
                sim.schedule_in(SimDuration::from_ns(10), move |sim| tick(sim, left - 1));
            }
        }
        tick(&mut sim, n);
        sim.run();
        sim.events_executed()
    }

    /// `n` events pre-scheduled across a 1 µs window, then drained.
    pub fn sim_fanout(n: u64) -> u64 {
        let mut sim = Sim::new(0);
        fn nop(_: &mut Sim) {}
        for i in 0..n {
            sim.schedule_fn_in(SimDuration::from_ns(i % 1000), nop);
        }
        sim.run();
        sim.events_executed()
    }

    /// The chain on the pre-overhaul scheduler shape.
    pub fn ref_chain(n: u64) -> u64 {
        let mut e = RefEngine::new();
        fn tick(e: &mut RefEngine, left: u64) {
            if left > 0 {
                e.schedule_in(10, move |e| tick(e, left - 1));
            }
        }
        tick(&mut e, n);
        e.run();
        e.executed()
    }

    /// The fanout on the pre-overhaul scheduler shape.
    pub fn ref_fanout(n: u64) -> u64 {
        let mut e = RefEngine::new();
        for i in 0..n {
            e.schedule_in(i % 1000, |_| {});
        }
        e.run();
        e.executed()
    }
}

/// The engine self-profiler: an [`clic_sim::EngineProbe`] that clocks
/// every dispatched event with host wall time and buckets it by dispatch
/// arm. Wall-clock use is policy-legal here in the bench layer only —
/// the probe never touches the simulated clock, so simulation results
/// are bit-identical with it installed. Each job gets its own probe
/// (from a `fn` pointer factory, so it crosses worker threads); a probe
/// folds its private tallies into the process-wide accumulator when the
/// job's simulator is dropped, and `take()` drains the accumulator
/// between figure families to attribute work per module.
mod profiler {
    use clic_sim::{ActionArm, EngineProbe};
    use std::sync::Mutex;
    use std::time::Instant;

    /// Per-arm `(events, host_ns)`, indexed by `ActionArm as usize`.
    pub type ArmTallies = [(u64, u64); 3];

    static AGG: Mutex<ArmTallies> = Mutex::new([(0, 0); 3]);

    struct Probe {
        started: Option<Instant>,
        local: ArmTallies,
    }

    impl EngineProbe for Probe {
        fn begin(&mut self, _arm: ActionArm) {
            // lint:allow(determinism-taint, reason="engine self-profiler measures host time only; tallies never feed back into simulated state")
            self.started = Some(Instant::now());
        }

        fn end(&mut self, arm: ActionArm) {
            if let Some(t0) = self.started.take() {
                let slot = &mut self.local[arm as usize];
                slot.0 += 1;
                slot.1 += t0.elapsed().as_nanos() as u64;
            }
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            let mut agg = AGG.lock().unwrap();
            for (a, l) in agg.iter_mut().zip(self.local) {
                a.0 += l.0;
                a.1 += l.1;
            }
        }
    }

    /// Factory handed to [`clic_cluster::jobs::set_job_probe_factory`].
    pub fn probe() -> Box<dyn EngineProbe> {
        Box::new(Probe {
            started: None,
            local: [(0, 0); 3],
        })
    }

    /// Drain and reset the accumulated tallies.
    pub fn take() -> ArmTallies {
        std::mem::take(&mut *AGG.lock().unwrap())
    }
}

/// Render one module's arm tallies as a JSON object.
fn profile_entry(name: &str, arms: profiler::ArmTallies) -> Json {
    let (events, host_ns) = arms
        .iter()
        .fold((0, 0), |(e, ns), &(ae, ans)| (e + ae, ns + ans));
    Json::obj([
        ("name", Json::from(name)),
        (
            "arms",
            Json::Arr(
                clic_sim::ActionArm::ALL
                    .iter()
                    .map(|&arm| {
                        let (e, ns) = arms[arm as usize];
                        Json::obj([
                            ("arm", Json::from(arm.name())),
                            ("events", Json::from(e as usize)),
                            ("host_ns", Json::from(ns as usize)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("events", Json::from(events as usize)),
        ("host_ns", Json::from(host_ns as usize)),
    ])
}

/// The `figures bench` subcommand: engine microbenches against the
/// in-process BinaryHeap reference engine ([`clic_bench::reference`]),
/// then an uncached full-grid replay whose `m.events` totals give
/// whole-simulator events/second. The replay runs with the engine
/// self-profiler installed, so the report also attributes host time and
/// event counts per dispatch arm per figure family. Everything lands in
/// `BENCH_figures.json` under `"bench"`.
fn run_bench(args: &[String]) {
    let mut quick = false;
    let mut json = false;
    let mut jobs: Option<usize> = None;
    let mut repeat: Option<usize> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "--smoke" => quick = true,
            "--json" => json = true,
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => die("--jobs needs a positive integer"),
            },
            "--repeat" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => repeat = Some(n),
                _ => die("--repeat needs a positive integer"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            other => die(&format!("unknown bench argument '{other}'")),
        }
    }

    let n: u64 = if quick { 10_000 } else { 100_000 };
    let repeat = repeat.unwrap_or(if quick { 3 } else { 5 });
    let tag = if quick { "10k" } else { "100k" };

    let engine = [
        measure(format!("engine_chain_{tag}"), repeat, || {
            workloads::sim_chain(n)
        }),
        measure(format!("engine_chain_boxed_{tag}"), repeat, || {
            workloads::sim_chain_boxed(n)
        }),
        measure(format!("engine_fanout_{tag}"), repeat, || {
            workloads::sim_fanout(n)
        }),
    ];
    let reference = [
        measure(format!("reference_chain_{tag}"), repeat, || {
            workloads::ref_chain(n)
        }),
        measure(format!("reference_fanout_{tag}"), repeat, || {
            workloads::ref_fanout(n)
        }),
    ];
    let speedup = |eng: &BenchRow, base: &BenchRow| {
        if eng.median_secs > 0.0 {
            base.median_secs / eng.median_secs
        } else {
            0.0
        }
    };
    let speedups = [
        ("chain", speedup(&engine[0], &reference[0])),
        ("chain_boxed", speedup(&engine[1], &reference[0])),
        ("fanout", speedup(&engine[2], &reference[1])),
    ];

    // Full-grid replay: always uncached — a cache hit would measure
    // nothing — but parallel like any figures run.
    let workers =
        jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let config = RunnerConfig::uncached(workers);
    let sizes = if quick {
        experiments::quick_sizes()
    } else {
        experiments::paper_sizes()
    };
    let mut timings: Vec<(String, RunReport, MetricTotals)> = Vec::new();
    let mut profile: Vec<(String, profiler::ArmTallies)> = Vec::new();
    clic_cluster::jobs::set_job_probe_factory(Some(profiler::probe));
    profiler::take(); // start from a clean accumulator
    for kind in FigureKind::ALL {
        let specs = kind.jobs(&sizes);
        let (results, report) = run_jobs(&specs, &config);
        let totals = MetricTotals::from_results(&results);
        timings.push((kind.name().to_string(), report, totals));
        profile.push((kind.name().to_string(), profiler::take()));
    }
    clic_cluster::jobs::set_job_probe_factory(None);
    let mut grid = RunReport::default();
    let mut grid_metrics = MetricTotals::default();
    for (_, r, t) in &timings {
        grid.merge(r);
        grid_metrics.merge(t);
    }
    let mut profile_total = [(0u64, 0u64); 3];
    for (_, arms) in &profile {
        for (t, a) in profile_total.iter_mut().zip(arms) {
            t.0 += a.0;
            t.1 += a.1;
        }
    }
    let grid_eps_serial = if grid.serial_equiv_secs() > 0.0 {
        grid_metrics.events / grid.serial_equiv_secs()
    } else {
        0.0
    };

    let bench = Json::obj([
        ("events_per_workload", Json::from(n as usize)),
        ("repeat", Json::from(repeat)),
        (
            "engine",
            Json::Arr(engine.iter().map(BenchRow::json).collect()),
        ),
        (
            "reference",
            Json::Arr(reference.iter().map(BenchRow::json).collect()),
        ),
        (
            "speedup_vs_reference",
            Json::obj(speedups.map(|(k, v)| (k, Json::Num(v)))),
        ),
        (
            "full_grid",
            Json::obj([
                ("jobs", Json::from(grid.jobs.len())),
                ("events", Json::Num(grid_metrics.events)),
                ("wall_secs", Json::Num(grid.wall_secs)),
                ("serial_equiv_secs", Json::Num(grid.serial_equiv_secs())),
                ("events_per_sec_serial", Json::Num(grid_eps_serial)),
            ]),
        ),
        (
            "profile",
            Json::obj([
                (
                    "modules",
                    Json::Arr(
                        profile
                            .iter()
                            .map(|(name, arms)| profile_entry(name, *arms))
                            .collect(),
                    ),
                ),
                ("total", profile_entry("total", profile_total)),
            ]),
        ),
    ]);

    if json {
        print!("{}", bench.pretty());
    } else {
        println!("== engine microbenches ({n} events, {repeat} runs, median) ==");
        println!(
            "{:<24} {:>12} {:>12} {:>14}",
            "bench", "median(ms)", "min(ms)", "events/sec"
        );
        for row in engine.iter().chain(&reference) {
            println!(
                "{:<24} {:>12.3} {:>12.3} {:>14.0}",
                row.name,
                row.median_secs * 1e3,
                row.min_secs * 1e3,
                row.events_per_sec()
            );
        }
        println!();
        for (name, s) in speedups {
            println!("speedup vs reference ({name}): {s:.2}x");
        }
        println!();
        println!("== full-grid replay (uncached, {workers} workers) ==");
        println!(
            "{} jobs, {:.0} events, wall {:.2}s, serial-equivalent {:.2}s, {:.0} events/sec (serial)",
            grid.jobs.len(),
            grid_metrics.events,
            grid.wall_secs,
            grid.serial_equiv_secs(),
            grid_eps_serial
        );
        println!();
        println!("== engine self-profile (events | host ms, per dispatch arm) ==");
        println!(
            "{:<16} {:>20} {:>20} {:>20}",
            "module", "call", "call_arg", "boxed"
        );
        let total_row = ("total".to_string(), profile_total);
        for (name, arms) in profile.iter().chain(std::iter::once(&total_row)) {
            let cell = |(e, ns): (u64, u64)| format!("{e} | {:.1}", ns as f64 / 1e6);
            println!(
                "{:<16} {:>20} {:>20} {:>20}",
                name,
                cell(arms[0]),
                cell(arms[1]),
                cell(arms[2])
            );
        }
    }

    let path = "BENCH_figures.json";
    match std::fs::write(
        path,
        bench_report(quick, &config, &timings, Some(bench)).pretty(),
    ) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The `BENCH_figures.json` document: per-figure and total wall clock,
/// cache statistics, executed-work speedup over serial and metric totals.
/// `figures bench` additionally passes its microbench section, recorded
/// under a `"bench"` key.
fn bench_report(
    quick: bool,
    config: &RunnerConfig,
    timings: &[(String, RunReport, MetricTotals)],
    bench: Option<Json>,
) -> Json {
    let figure_entry = |name: &str, r: &RunReport, t: &MetricTotals| {
        Json::obj([
            ("name", Json::from(name)),
            ("jobs", Json::from(r.jobs.len())),
            ("cache_hits", Json::from(r.cache_hits())),
            ("cache_hit_rate", Json::Num(r.cache_hit_rate())),
            ("wall_secs", Json::Num(r.wall_secs)),
            ("serial_equiv_secs", Json::Num(r.serial_equiv_secs())),
            ("speedup_vs_serial", Json::Num(r.speedup_vs_serial())),
            ("metrics", t.json()),
        ])
    };
    let mut total = RunReport::default();
    let mut total_metrics = MetricTotals::default();
    for (_, r, t) in timings {
        total.merge(r);
        total_metrics.merge(t);
    }
    let mut fields = vec![
        (
            "schema",
            Json::from(clic_cluster::jobs::MEASUREMENT_SCHEMA_VERSION as usize),
        ),
        ("grid", Json::from(if quick { "quick" } else { "paper" })),
        ("workers", Json::from(config.jobs)),
        // Recorded so speedup numbers can be interpreted: with more
        // workers than cores, per-job timings include preemption time
        // and `speedup_vs_serial` overstates the real wall-clock gain.
        (
            "host_cores",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cache_enabled", Json::from(config.cache_dir.is_some())),
        (
            "figures",
            Json::Arr(
                timings
                    .iter()
                    .map(|(name, r, t)| figure_entry(name, r, t))
                    .collect(),
            ),
        ),
        ("total", figure_entry("total", &total, &total_metrics)),
    ];
    if let Some(bench) = bench {
        fields.push(("bench", bench));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn all_expands_in_place() {
        let all: Vec<String> = FigureKind::ALL
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        assert_eq!(expand_all(Vec::new()), all);
        assert_eq!(expand_all(names(&["all"])), all);

        let mut expected = names(&["chaos"]);
        expected.extend(all.iter().cloned());
        expected.extend(names(&["claims", "scale"]));
        assert_eq!(
            expand_all(names(&["chaos", "all", "claims", "scale"])),
            expected
        );

        assert_eq!(
            expand_all(names(&["fig7", "loss"])),
            names(&["fig7", "loss"])
        );
    }
}
