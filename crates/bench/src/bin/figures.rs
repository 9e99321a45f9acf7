//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--json] [--jobs N] [--no-cache] [--cache-dir DIR]
//!         [--metrics] <what>...
//!   what: figure family names (`figures --help` lists them), claims, or
//!         all (every family except the opt-in ones)
//! figures trace [scenario] [--size N] [--mtu M] [--seed S] [--out FILE]
//!         [--metrics]
//!   scenario: fig7a (default) fig7b fig7a-lossy tcp
//! figures timeline [scenario] [--bucket-us N] [--out FILE] [--last N]
//!         [--smoke]
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
//! * `timeline` replays one scenario with the timeline recorder on.
//!
//! A figure run writes nothing but its output on stdout and its cache
//! entries; host cost is measured by `clic-benchmark` and
//! `cargo bench -p clic-bench --bench engine`.

use clic_bench::render;
use clic_bench::runner::{run_jobs, RunnerConfig};
use clic_cluster::experiments::{self, FigureKind, ResultMap, FAMILIES};
use clic_cluster::observe::{
    self, TimelineScenario, TraceScenario, TIMELINE_BUCKET_US, TRACE_MTU, TRACE_SIZE,
};

/// The usage text after the family list.
const USAGE_TAIL: &str = "   or: figures trace [fig7a|fig7b|fig7a-lossy|tcp] [--size N] [--mtu M]
        [--seed S] [--out FILE] [--metrics]
   or: figures timeline [fig7a|reliability|incast|chaos|congestion]
        [--bucket-us N] [--out FILE] [--last N] [--smoke]
        (replays one scenario with the timeline recorder on: CSV series
        on stdout, Perfetto counter-track JSON to --out; chaos keeps only
        the last --last buckets, flight-recorder style)";

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
/// reports (schema v2), printed by `--metrics`.
#[derive(Debug, Clone, Copy, Default)]
struct MetricTotals {
    drops: f64,
    retransmits: f64,
    peak_switch_queue_depth: f64,
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
        }
        t
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

    for item in &what {
        if item == "claims" {
            let (results, _) = run_jobs(&experiments::claims_jobs(), &config);
            let rows = experiments::claims(&results);
            if json {
                print!("{}", render::claims_json(&rows));
            } else {
                print!("{}", render::claims_text(&rows));
            }
            if rows.iter().any(|r| !r.pass) {
                std::process::exit(1);
            }
            continue;
        }
        let Some(kind) = FigureKind::from_name(item) else {
            eprintln!("unknown experiment '{item}'");
            std::process::exit(2);
        };
        let (results, _) = run_jobs(&kind.jobs(&sizes), &config);
        let output = kind.assemble(&results, &sizes);
        if json {
            print!("{}", render::json(&output));
        } else {
            print!("{}", render::text(kind.title(), &output));
        }
        if metrics && !json {
            let totals = MetricTotals::from_results(&results);
            println!(
                "[{}] metrics: drops={} retransmits={} peak_switch_queue_depth={}",
                kind.name(),
                totals.drops,
                totals.retransmits,
                totals.peak_switch_queue_depth
            );
            println!();
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
            "--metrics" => metrics = true,
            "--size" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if TRACE_SIZE.contains(&n) => size = n,
                _ => die(&format!("--size needs a byte count in {TRACE_SIZE:?}")),
            },
            "--mtu" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if TRACE_MTU.contains(&n) => mtu = n,
                _ => die(&format!("--mtu needs a byte count in {TRACE_MTU:?}")),
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
/// is a pure function of (scenario, bucket, ring capacity).
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
                Some(n) if TIMELINE_BUCKET_US.contains(&n) => bucket_us = n,
                _ => die(&format!(
                    "--bucket-us needs a microsecond count in {TIMELINE_BUCKET_US:?}"
                )),
            },
            "--last" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => last = Some(n),
                _ => die("--last needs a positive bucket count"),
            },
            "--out" => match it.next() {
                Some(path) => out = Some(path.into()),
                None => die("--out needs a path"),
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

    if smoke {
        // CI mode: replay every scenario once and insist each records a
        // usable set of series; nothing is written.
        let mut ok = true;
        for s in TimelineScenario::ALL {
            let t = observe::run_timeline(s, bucket_us, s.default_flight());
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
    let t = observe::run_timeline(scenario, bucket_us, flight);
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
