//! The benchmark checks itself: every declared metric is emitted, the
//! traced replay reproduces the untraced jobs, and a wrong output is
//! counted as a failure. Each test drives a few small figure families
//! through the library API, one pass each.

use clic_bench::json::Json;
use clic_benchmark::oracle::Reference;
use clic_benchmark::workload::{self, Family, Workload};
use clic_benchmark::{run, Options, Outcome};
use clic_cluster::experiments::FigureKind;
use std::collections::BTreeSet;

/// Families of `paper_grid` that cover the replayed kinds (`Syscall`:
/// ping-pong; `Loss`: lossy, seed-dependent streams) and a fallback kind
/// (`Fig7`: the traced stage breakdown).
const SMALL: [FigureKind; 3] = [FigureKind::Fig7, FigureKind::Syscall, FigureKind::Loss];

fn small_grid(seed: u64) -> Vec<Family> {
    workload::grid(Workload::PaperGrid, seed)
        .into_iter()
        .filter(|f| SMALL.contains(&f.kind))
        .collect()
}

fn options(name: &str, trace: bool, reference: Reference) -> Options {
    Options {
        seed: 0,
        seconds: 0.0,
        trace,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name),
        reference,
    }
}

fn run_small(name: &str, trace: bool, reference: Reference) -> Outcome {
    let opts = options(name, trace, reference);
    let outcome = run(Workload::PaperGrid, &opts, &small_grid);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    outcome
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn names(outcome: &Outcome) -> BTreeSet<String> {
    outcome.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_declared_metric_is_emitted_under_a_valid_name() {
    let reference = Reference::builtin(Workload::PaperGrid);
    let untraced = run_small("names-untraced", false, reference.clone());
    let traced = run_small("names-traced", true, reference);
    assert_eq!(names(&untraced), declared("end_to_end"));
    assert_eq!(names(&traced), declared("per_layer"));
    for m in untraced.metrics.iter().chain(&traced.metrics) {
        assert!(
            !m.name.is_empty()
                && m.name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
            "bad metric name {:?}",
            m.name
        );
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    assert_eq!(untraced.tally.failed, 0, "{:?}", untraced.tally.failures);
}

#[test]
fn traced_replay_executes_the_untraced_event_counts() {
    let reference = Reference::builtin(Workload::PaperGrid);
    let outcome = run_small("replay", true, reference);
    // A replay whose event count differs from the untraced job is a
    // failure, so a clean tally means every job agreed.
    assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.failures);
    let jobs: usize = small_grid(0).iter().map(|f| f.specs.len()).sum();
    assert_eq!(outcome.tally.attempted, jobs as u64);
    let count = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("metric emitted")
    };
    assert_eq!(count("cluster.jobs"), jobs as f64);
    assert!(count("sim.events") > 0.0);
    let job_spans = outcome
        .spans
        .spans
        .iter()
        .filter(|s| s.name == "job")
        .count();
    assert_eq!(job_spans, jobs);
}

#[test]
fn a_corrupted_reference_entry_fails_its_job() {
    let mut reference = Reference::builtin(Workload::PaperGrid);
    let entry = reference
        .entries
        .get_mut("syscall/standard")
        .expect("job in the reference");
    entry.digest ^= 1;
    let outcome = run_small("corrupt", false, reference);
    assert!(outcome.tally.error_rate() > 0.0);
    assert_eq!(outcome.tally.failed, outcome.passes as u64);
    assert!(outcome.tally.failures[0].starts_with("syscall/standard: digest"));
}

#[test]
fn seed_dependent_jobs_are_checked_only_at_the_reference_seed() {
    let reference = Reference::builtin(Workload::PaperGrid);
    let seeded: Vec<&str> = ["loss/p0.001", "loss/p0.005", "loss/p0.02", "fig7/7a"].into();
    for id in seeded {
        assert!(reference.entries[id].seeded, "{id}");
    }
    assert!(!reference.entries["loss/p0"].seeded);
    let mut opts = options("reseeded", false, reference);
    opts.seed = 99;
    let outcome = run(Workload::PaperGrid, &opts, &small_grid);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.failures);
}
