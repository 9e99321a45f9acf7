//! Criterion benchmarks: one per `figures all` family.
//!
//! Each bench pushes the figure's job set through the same runner the
//! `figures` binary uses (cache disabled so real work is measured), so
//! `cargo bench` both regenerates every result and tracks the simulator's
//! own performance. `parallel_runner_quick_grid` measures the whole quick
//! grid end to end on all cores, the headline number `BENCH_figures.json`
//! reports.

use clic_bench::runner::{run_jobs, RunnerConfig};
use clic_cluster::experiments::FigureKind;
use clic_cluster::jobs::JobSpec;
use criterion::{criterion_group, criterion_main, Criterion};

fn sizes() -> Vec<usize> {
    clic_cluster::experiments::quick_sizes()
}

/// Run one figure's jobs through the (uncached, serial) runner and
/// assemble the output, as the `figures` binary does.
fn run_figure(kind: FigureKind) {
    let sizes = sizes();
    let (results, _) = run_jobs(&kind.jobs(&sizes), &RunnerConfig::uncached(1));
    let _ = kind.assemble(&results, &sizes);
}

/// One bench per `figures all` family, named after it.
fn bench_families(c: &mut Criterion) {
    for kind in FigureKind::ALL {
        c.bench_function(kind.name(), |b| b.iter(|| run_figure(kind)));
    }
}

/// The whole quick grid through the parallel runner on all cores —
/// the wall-clock number that the `--jobs` flag exists to improve.
fn bench_parallel_runner(c: &mut Criterion) {
    let sizes = sizes();
    let specs: Vec<JobSpec> = FigureKind::ALL
        .into_iter()
        .flat_map(|k| k.jobs(&sizes))
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    c.bench_function("parallel_runner_quick_grid", |b| {
        b.iter(|| run_jobs(&specs, &RunnerConfig::uncached(workers)))
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench_families, bench_parallel_runner
}
criterion_main!(figures);
