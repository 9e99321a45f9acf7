//! The parallel runner must be invisible in the results: the full
//! `--quick` grid of every family, opt-in ones included, produces the
//! measurements of independent serial runs of every spec, bit for bit,
//! at `--jobs 4`, with and without the cache in the loop. The runner
//! runs specs that share a fingerprint once, so the grid also checks
//! that such specs really do measure the same thing. The same grid,
//! assembled and rendered in-process, must reproduce the committed
//! `figures --quick` goldens byte for byte.

use clic_bench::render;
use clic_bench::runner::{run_jobs, RunnerConfig};
use clic_cluster::experiments::{run_serial, FigureKind, ResultMap, FAMILIES};
use clic_cluster::jobs::JobSpec;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The quick grid of every family, in `figures all chaos scale
/// congestion` order.
fn quick_grid() -> Vec<JobSpec> {
    let sizes = clic_cluster::experiments::quick_sizes();
    FAMILIES
        .iter()
        .flat_map(|family| family.kind.jobs(&sizes))
        .collect()
}

/// The quick grid with every spec run on its own, on one thread, shared
/// by the tests below. It bypasses the runner, which runs specs that
/// share a fingerprint once, so the runner is compared with independent
/// runs rather than with itself.
fn quick_serial() -> &'static ResultMap {
    static SERIAL: OnceLock<ResultMap> = OnceLock::new();
    SERIAL.get_or_init(|| {
        let specs = quick_grid();
        let serial = run_serial(&specs);
        assert_eq!(serial.len(), specs.len());
        serial
    })
}

/// Exact representation: value names and `f64` bit patterns per job.
fn bits(map: &ResultMap) -> Vec<(String, Vec<(String, u64)>)> {
    map.iter()
        .map(|(id, m)| {
            (
                id.clone(),
                m.values
                    .iter()
                    .map(|(n, v)| (n.clone(), v.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn quick_grid_identical_for_jobs_1_and_4() {
    let specs = quick_grid();
    let (parallel, r4) = run_jobs(&specs, &RunnerConfig::uncached(4));
    assert_eq!(r4.jobs.len(), specs.len());
    assert_eq!(bits(quick_serial()), bits(&parallel));
}

#[test]
fn specs_sharing_a_fingerprint_measure_identically() {
    // A `JobKind` `Debug` impl that left out a field would give two
    // different simulations one key, and the runner would serve one's
    // result for the other. Independent runs of every spec in a group
    // must agree bit for bit.
    let specs = quick_grid();
    let serial = bits(quick_serial());
    let by_id: BTreeMap<&str, _> = serial.iter().map(|(id, m)| (id.as_str(), m)).collect();
    let mut groups: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for spec in &specs {
        groups.entry(spec.fingerprint()).or_default().push(&spec.id);
    }
    for ids in groups.values() {
        for id in &ids[1..] {
            assert_eq!(
                by_id[id], by_id[ids[0]],
                "{id} shares a fingerprint with {} but measures differently",
                ids[0]
            );
        }
    }
    assert_eq!((groups.len(), specs.len()), (120, 161));
}

/// The first line where `got` and `want` differ, for a readable failure.
fn first_difference(got: &str, want: &str) -> Option<String> {
    let mut want_lines = want.lines();
    for (n, line) in got.lines().enumerate() {
        match want_lines.next() {
            Some(expected) if expected == line => {}
            expected => {
                let want = expected.unwrap_or("<end of file>");
                return Some(format!("line {}: got {line:?}, want {want:?}", n + 1));
            }
        }
    }
    want_lines
        .next()
        .map(|extra| format!("missing line {extra:?}"))
        .or_else(|| (got != want).then(|| "trailing newline differs".to_string()))
}

#[test]
fn quick_goldens_match_in_process_render() {
    // `figures --quick --no-cache all chaos scale congestion`, without and
    // with --json.
    let sizes = clic_cluster::experiments::quick_sizes();
    let (mut text, mut json) = (String::new(), String::new());
    for family in &FAMILIES {
        let output = family.kind.assemble(quick_serial(), &sizes);
        text.push_str(&render::text(family.title, &output));
        json.push_str(&render::json(&output));
    }
    for (got, want, file) in [
        (
            text,
            include_str!("golden/figures_quick.txt"),
            "figures_quick.txt",
        ),
        (
            json,
            include_str!("golden/figures_quick.json"),
            "figures_quick.json",
        ),
    ] {
        if let Some(diff) = first_difference(&got, want) {
            panic!("golden/{file} differs: {diff}");
        }
    }
}

#[test]
fn scale_grid_identical_for_jobs_1_and_4() {
    // The scale family is opt-in (not in FigureKind::ALL), so the quick
    // grid above never covers it; its 8–16 node collective jobs carry the
    // same worker-count-invisibility contract.
    let sizes = clic_cluster::experiments::quick_sizes();
    let specs = FigureKind::Scale.jobs(&sizes);
    let (serial, r1) = run_jobs(&specs, &RunnerConfig::uncached(1));
    let (parallel, r4) = run_jobs(&specs, &RunnerConfig::uncached(4));
    assert_eq!(r1.jobs.len(), specs.len());
    assert_eq!(r4.jobs.len(), specs.len());
    assert_eq!(bits(&serial), bits(&parallel));
}

#[test]
fn quick_grid_identical_through_the_cache() {
    let dir = std::env::temp_dir().join(format!("clic-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = RunnerConfig {
        jobs: 4,
        cache_dir: Some(dir.clone()),
    };
    // Subset (one figure) to keep the cached pass cheap; the full-grid
    // equivalence is covered above.
    let sizes = clic_cluster::experiments::quick_sizes();
    let specs = FigureKind::Fig4.jobs(&sizes);
    let (fresh, r1) = run_jobs(&specs, &config);
    assert_eq!(r1.cache_hits(), 0);
    let (cached, r2) = run_jobs(&specs, &config);
    assert_eq!(r2.cache_hits(), specs.len());
    assert_eq!(bits(&fresh), bits(&cached));
    let _ = std::fs::remove_dir_all(&dir);
}
