//! # clic-bench — figure regeneration
//!
//! * `figures` binary — regenerates every table and figure of the paper's
//!   evaluation as CSV/text (see `figures --help`); EXPERIMENTS.md records
//!   paper-vs-measured for each. Experiment jobs run on a worker pool
//!   (`--jobs N`) backed by a content-addressed result cache.
//! * [`runner`] — the worker pool + cache: executes
//!   [`clic_cluster::jobs::JobSpec`] sets with results bit-identical to a
//!   serial run.
//! * [`render`] — the text and JSON `figures` prints for any family: one
//!   renderer for every table, plus the curves, Figure 7 stages, §4
//!   scalars and the claim checklist.
//! * [`json`] — the minimal JSON reader/writer behind the cache and
//!   `--json` output.
//! * `benches/engine.rs` — Criterion microbenchmarks of the DES engine
//!   itself (events/second on the fast and boxed paths, resource
//!   contention overhead). Host cost of the whole simulator, end to end
//!   and per layer, is measured by `clic-benchmark` (`crates/benchmark`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod render;
pub mod runner;
