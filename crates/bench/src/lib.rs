//! # clic-bench — figure regeneration and performance benchmarks
//!
//! * `figures` binary — regenerates every table and figure of the paper's
//!   evaluation as CSV/text (see `figures --help`); EXPERIMENTS.md records
//!   paper-vs-measured for each. Experiment jobs run on a worker pool
//!   (`--jobs N`) backed by a content-addressed result cache, and every
//!   run writes a machine-readable `BENCH_figures.json` timing report.
//! * [`runner`] — the worker pool + cache: executes
//!   [`clic_cluster::jobs::JobSpec`] sets with results bit-identical to a
//!   serial run.
//! * [`render`] — the text and JSON `figures` prints for any family: one
//!   renderer for every table, plus the curves, Figure 7 stages, §4
//!   scalars and the claim checklist.
//! * [`json`] — the minimal JSON reader/writer behind the cache,
//!   `--json` output and `BENCH_figures.json`.
//! * `figures bench` — the engine-performance family: microbenchmarks of
//!   the calendar-queue engine against [`reference`] (an in-process
//!   re-implementation of the pre-overhaul `BinaryHeap` + boxed-closure
//!   scheduler), plus an uncached full-grid replay reporting
//!   whole-simulator events/second; results land in the `"bench"`
//!   section of `BENCH_figures.json`.
//! * `benches/figures.rs` — Criterion benchmarks, one per `figures all`
//!   family, so regressions in simulator performance are visible.
//! * `benches/engine.rs` — microbenchmarks of the DES engine itself
//!   (events/second, resource contention overhead).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod reference;
pub mod render;
pub mod runner;
