//! `clic-benchmark`: run one workload of the repository benchmark, or
//! regenerate its reference digests. See `README.md`.

use clic_benchmark::oracle::{self, digest, Entry, Reference};
use clic_benchmark::trace::{self, Spans};
use clic_benchmark::workload::{self, Workload};
use clic_benchmark::{report, Options};
use clic_cluster::jobs::JobKind;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: clic-benchmark run --workload W [--seed S] [--seconds T] [--trace 0|1]
   or: clic-benchmark reference --write
  workloads: paper_grid fabric_congestion fabric_scale warm_replay
  --seed 0 (the default) keeps each family's own seeds
  --seconds T (default 20) is how long passes repeat; at least one runs
  --trace 1 reports per-layer metrics and writes <target>/benchmark/<W>-trace.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("reference") if args[1..] == ["--write"] => write_references(),
        Some("--help" | "-h") => println!("{USAGE}"),
        _ => die("expected `run` or `reference --write`"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// `<CARGO_TARGET_DIR or target>/benchmark`, where runs keep their
/// temporary caches and traces.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

fn run(args: &[String]) {
    let mut w = None;
    let mut seed = 0u64;
    let mut seconds = 20.0f64;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => match Workload::parse(value()) {
                Some(found) => w = Some(found),
                None => die("unknown workload"),
            },
            "--seed" => match value().parse() {
                Ok(n) => seed = n,
                Err(_) => die("--seed needs an unsigned integer"),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => die("--seconds needs a positive number"),
            },
            "--trace" => match value().as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => die("--trace takes 0 or 1"),
            },
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    let Some(w) = w else {
        die("--workload is required")
    };

    let out = out_dir();
    let work_dir = out.join(format!("{}-{}", w.name(), std::process::id()));
    let opts = Options {
        seed,
        seconds,
        trace: traced,
        work_dir: work_dir.clone(),
        reference: Reference::builtin(w),
    };
    let outcome = clic_benchmark::run(w, &opts, &|s| workload::grid(w, s));
    // Best effort: the caches are temporary.
    let _ = std::fs::remove_dir_all(&work_dir);

    for failure in &outcome.tally.failures {
        eprintln!("FAILED {failure}");
    }
    eprintln!(
        "{}: seed {seed}, {} passes, {} jobs checked, {} failed",
        w.name(),
        outcome.passes,
        outcome.tally.attempted,
        outcome.tally.failed
    );
    if traced {
        let path = out.join(format!("{}-trace.json", w.name()));
        match std::fs::write(&path, outcome.spans.chrome_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    print!("{}", report::human(w.name(), &outcome.metrics));
    println!(
        "{} job_error_rate {} fraction",
        w.name(),
        outcome.tally.error_rate()
    );
    println!("{}", report::result_line(&outcome.metrics, &outcome.tally));
    if outcome.tally.failed > 0 {
        std::process::exit(1);
    }
}

/// Regenerate `reference/<workload>.txt` for every workload at seed 0.
fn write_references() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    for w in Workload::ALL {
        let grid = workload::grid(w, 0);
        let specs: Vec<_> = grid.iter().flat_map(|f| &f.specs).collect();
        let mut reference = Reference::default();
        let mut spans = Spans::disabled();
        let mut measured = Vec::new();
        for spec in &specs {
            let m = spec.run();
            let t = trace::replay(spec, &mut spans);
            assert_eq!(
                Some(t.events as f64),
                m.get("m.events"),
                "{}: replay diverged from the job",
                spec.id
            );
            // A job `--seed` cannot move is the same at every seed; a
            // chaos soak draws its fault schedule from the seed itself.
            let reseeded = workload::seed_mut(&mut spec.kind.clone()).is_some();
            let seeded = reseeded && (t.drew_rng || matches!(spec.kind, JobKind::Chaos { .. }));
            let entry = Entry {
                digest: digest(&m),
                seeded,
            };
            reference.entries.insert(spec.id.clone(), entry);
            measured.push(m);
        }
        for (spec, m) in specs.iter().zip(&measured) {
            if let Some(problem) = oracle::check(spec, m, &reference, true) {
                panic!("{}: {problem}; not writing a reference", spec.id);
            }
        }
        let seeded = reference.entries.values().filter(|e| e.seeded).count();
        let header = format!(
            "Reference digests of workload {} at seed 0: {} jobs, {seeded} seed-dependent.\n\
             Regenerate with `clic-benchmark reference --write`.\n\
             <FNV-1a of the measurement without m.events> <fixed|seeded> <job id>",
            w.name(),
            specs.len()
        );
        let path = dir.join(format!("{}.txt", w.name()));
        std::fs::write(&path, reference.render(&header)).expect("write reference file");
        eprintln!(
            "wrote {}: {} jobs, {seeded} seed-dependent",
            path.display(),
            specs.len()
        );
    }
}
