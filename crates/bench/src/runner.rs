//! Parallel job execution with a content-addressed result cache.
//!
//! Takes a set of [`JobSpec`]s, runs each distinct simulation among them
//! once on a [`std::thread::scope`] worker pool, and returns a
//! [`ResultMap`] keyed by job id — so the output is deterministic and
//! bit-identical to [`clic_cluster::experiments::run_serial`] regardless
//! of worker count or completion order. Each job owns its entire
//! (`Rc`/`RefCell`-based) simulation on the thread that runs it; only the
//! plain-data [`JobSpec`] and the flat `Measurement` cross threads.
//!
//! A result is keyed by what the job simulates, not by its id: the key is
//! the job's [`JobSpec::fingerprint`], a stable hash of its full
//! configuration, the calibrated cost-model constants, the measurement
//! schema and the simulator source. Specs under different ids that
//! describe the same simulation share one key, so each call probes the
//! cache and runs the simulation once per key and gives the measurement
//! to every id with that key; the ids after the first are reported as
//! served (`cached`, 0 s), with or without a cache directory.
//!
//! Cache entries live under one directory (default
//! `target/figures-cache/`), one JSON file per key. Editing any constant
//! in `calibration.rs` changes every affected key, so stale results are
//! never reused; values are stored as `f64` bit patterns, so a cache
//! round-trip is exact.

use crate::json::Json;
use clic_cluster::experiments::ResultMap;
use clic_cluster::jobs::{JobSpec, Measurement, MEASUREMENT_SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How to execute a job set.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker thread count; `1` runs everything on the calling thread.
    pub jobs: usize,
    /// Cache directory, or `None` to disable the cache entirely.
    pub cache_dir: Option<PathBuf>,
}

impl RunnerConfig {
    /// `jobs` workers with the cache disabled.
    pub fn uncached(jobs: usize) -> RunnerConfig {
        RunnerConfig {
            jobs,
            cache_dir: None,
        }
    }

    /// The default cache location, `<target>/figures-cache`.
    pub fn default_cache_dir() -> PathBuf {
        // Resolve relative to the workspace target dir when invoked via
        // cargo; fall back to ./target for a bare binary.
        std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"))
            .join("figures-cache")
    }
}

/// How one job was satisfied, for reporting.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job id.
    pub id: String,
    /// Execution time in seconds (0 when served).
    pub secs: f64,
    /// Whether the result was served rather than simulated: read from the
    /// cache, or given from an earlier spec in the same call with the
    /// same [`JobSpec::fingerprint`].
    pub cached: bool,
}

/// What a [`run_jobs`] call did.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-job outcomes, in job-submission order.
    pub jobs: Vec<JobReport>,
}

impl RunReport {
    /// Number of jobs served rather than simulated ([`JobReport::cached`]).
    pub fn cache_hits(&self) -> usize {
        self.jobs.iter().filter(|j| j.cached).count()
    }

    /// Sum of executed-job times: what a serial, uncached run of the
    /// *executed* jobs would have cost.
    pub fn serial_equiv_secs(&self) -> f64 {
        self.jobs.iter().map(|j| j.secs).sum()
    }
}

/// Execute `specs`, consulting and filling the cache, and return results
/// keyed by job id plus a report of what ran. Each distinct
/// [`JobSpec::fingerprint`] is probed and, on a miss, simulated and
/// written once; every id with that key gets its measurement.
///
/// Panics if two specs share an id (ids are the result keys).
pub fn run_jobs(specs: &[JobSpec], config: &RunnerConfig) -> (ResultMap, RunReport) {
    let workers = config.jobs.max(1);

    if let Some(dir) = &config.cache_dir {
        // Best-effort: a read-only disk just means no caching.
        let _ = std::fs::create_dir_all(dir);
    }

    // Compute each spec's key once. The first spec with a key owns it:
    // only the owner is probed, run and written, and the specs sharing
    // its key are given its measurement.
    let keys: Vec<u64> = specs.iter().map(JobSpec::fingerprint).collect();
    let mut first: BTreeMap<u64, usize> = BTreeMap::new();
    let owners: Vec<usize> = (0..specs.len())
        .map(|i| *first.entry(keys[i]).or_insert(i))
        .collect();

    // Probe the cache up front (cheap, serial), then run the misses.
    let mut slots: Vec<Option<(Measurement, f64, bool)>> = (0..specs.len())
        .map(|i| match &config.cache_dir {
            Some(dir) if owners[i] == i => read_cache(dir, keys[i]).map(|m| (m, 0.0, true)),
            _ => None,
        })
        .collect();
    let misses: Vec<usize> = (0..specs.len())
        .filter(|&i| owners[i] == i && slots[i].is_none())
        .collect();

    let fresh: Mutex<Vec<(usize, Measurement, f64)>> = Mutex::new(Vec::with_capacity(misses.len()));
    let next = AtomicUsize::new(0);
    let run_worker = |_w: usize| loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(&i) = misses.get(k) else { break };
        let t0 = Instant::now();
        let m = specs[i].run();
        let secs = t0.elapsed().as_secs_f64();
        fresh.lock().unwrap().push((i, m, secs));
    };
    if workers == 1 || misses.len() <= 1 {
        run_worker(0);
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers.min(misses.len()) {
                scope.spawn(move || run_worker(w));
            }
        });
    }
    for (i, m, secs) in fresh.into_inner().unwrap() {
        if let Some(dir) = &config.cache_dir {
            write_cache(dir, keys[i], &m);
        }
        slots[i] = Some((m, secs, false));
    }

    let mut results = ResultMap::new();
    let mut report = RunReport {
        jobs: Vec::with_capacity(specs.len()),
    };
    // Walk backwards: an owner precedes every spec sharing its key, so it
    // is the last to read its slot and can move the measurement out.
    for (i, spec) in specs.iter().enumerate().rev() {
        let owner = owners[i];
        let slot = if owner == i {
            slots[i].take()
        } else {
            slots[owner].clone().map(|(m, _, _)| (m, 0.0, true))
        };
        let (m, secs, cached) = slot.expect("every owner's slot filled");
        report.jobs.push(JobReport {
            id: spec.id.clone(),
            secs,
            cached,
        });
        let prev = results.insert(spec.id.clone(), m);
        assert!(prev.is_none(), "duplicate job id {:?}", spec.id);
    }
    report.jobs.reverse();
    (results, report)
}

fn cache_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.json"))
}

/// Load the cached measurement for `key`, verifying the stored
/// fingerprint and schema version. Any mismatch or parse failure is
/// treated as a miss.
fn read_cache(dir: &Path, key: u64) -> Option<Measurement> {
    let text = std::fs::read_to_string(cache_path(dir, key)).ok()?;
    let doc = Json::parse(&text).ok()?;
    let fingerprint = doc.get("fingerprint")?.as_str()?;
    if fingerprint != format!("{key:016x}") {
        return None;
    }
    if doc.get("schema")?.as_f64()? as u32 != MEASUREMENT_SCHEMA_VERSION {
        return None;
    }
    let mut m = Measurement::default();
    for entry in doc.get("values")?.as_arr()? {
        let pair = entry.as_arr()?;
        let name = pair.first()?.as_str()?;
        // The exact f64 is the hex bit pattern; the decimal third element
        // is informational only.
        let bits = u64::from_str_radix(pair.get(1)?.as_str()?, 16).ok()?;
        m.values.push((name.to_string(), f64::from_bits(bits)));
    }
    Some(m)
}

/// Persist a measurement. Best effort: cache-write failures are ignored
/// (the run itself already has the result in memory).
fn write_cache(dir: &Path, key: u64, m: &Measurement) {
    let values = Json::Arr(
        m.values
            .iter()
            .map(|(name, v)| {
                Json::Arr(vec![
                    Json::Str(name.clone()),
                    Json::Str(format!("{:016x}", v.to_bits())),
                    Json::Num(*v),
                ])
            })
            .collect(),
    );
    let doc = Json::obj([
        ("fingerprint", Json::Str(format!("{key:016x}"))),
        ("schema", Json::Num(MEASUREMENT_SCHEMA_VERSION as f64)),
        ("values", values),
    ]);
    let path = cache_path(dir, key);
    let tmp = path.with_extension("json.tmp");
    if std::fs::write(&tmp, doc.pretty()).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clic_cluster::calibration::CostModel;
    use clic_cluster::experiments::{self, run_serial, FigureKind};
    use clic_cluster::jobs::sweep_point;
    use clic_cluster::workload::StackKind;

    fn small_grid() -> Vec<JobSpec> {
        FigureKind::Loss
            .jobs(&[])
            .into_iter()
            .chain(FigureKind::Syscall.jobs(&[]))
            .collect()
    }

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
    fn parallel_matches_serial_bit_for_bit() {
        let specs = small_grid();
        let serial = run_serial(&specs);
        let (par, report) = run_jobs(&specs, &RunnerConfig::uncached(4));
        assert_eq!(bits(&serial), bits(&par));
        assert_eq!(report.jobs.len(), specs.len());
        assert_eq!(report.cache_hits(), 0);
    }

    #[test]
    fn cache_round_trip_is_exact_and_hits_second_time() {
        let dir = std::env::temp_dir().join(format!("clic-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = RunnerConfig {
            jobs: 2,
            cache_dir: Some(dir.clone()),
        };
        let specs = small_grid();
        let (first, r1) = run_jobs(&specs, &config);
        assert_eq!(r1.cache_hits(), 0);
        let (second, r2) = run_jobs(&specs, &config);
        assert_eq!(r2.cache_hits(), specs.len());
        assert_eq!(bits(&first), bits(&second));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_are_misses() {
        let dir = std::env::temp_dir().join(format!("clic-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = RunnerConfig {
            jobs: 1,
            cache_dir: Some(dir.clone()),
        };
        let model = CostModel::era_2002();
        let specs = vec![sweep_point(
            "t/corrupt",
            experiments::clic_pair(&model, false, true),
            StackKind::Clic,
            1024,
        )];
        let (first, _) = run_jobs(&specs, &config);
        // Truncate the entry; the next run must recompute, not fail.
        let path = cache_path(&dir, specs[0].fingerprint());
        std::fs::write(&path, "{ not json").unwrap();
        let (second, r2) = run_jobs(&specs, &config);
        assert_eq!(r2.cache_hits(), 0);
        assert_eq!(bits(&first), bits(&second));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_jobs_run_once() {
        let model = CostModel::era_2002();
        let stream = |id: &str, size: usize| {
            sweep_point(
                id,
                experiments::clic_pair(&model, false, true),
                StackKind::Clic,
                size,
            )
        };
        // Two ids for one simulation, plus one other simulation.
        let specs = vec![
            stream("t/a", 1024),
            stream("t/b", 2048),
            stream("t/a-again", 1024),
        ];
        let served = |r: &RunReport| -> Vec<(String, bool)> {
            r.jobs.iter().map(|j| (j.id.clone(), j.cached)).collect()
        };
        let expect = |cached_again: bool| {
            vec![
                ("t/a".to_string(), cached_again),
                ("t/b".to_string(), cached_again),
                ("t/a-again".to_string(), true),
            ]
        };
        let serial = run_serial(&specs);

        let dir = std::env::temp_dir().join(format!("clic-cache-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = RunnerConfig {
            jobs: 2,
            cache_dir: Some(dir.clone()),
        };
        let (first, r1) = run_jobs(&specs, &config);
        assert_eq!(served(&r1), expect(false));
        assert_eq!(r1.cache_hits(), 1);
        assert_eq!(r1.jobs[2].secs, 0.0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        assert_eq!(bits(&first), bits(&serial));
        let (second, r2) = run_jobs(&specs, &config);
        assert_eq!(served(&r2), expect(true));
        assert_eq!(r2.cache_hits(), 3);
        assert_eq!(bits(&second), bits(&serial));
        let _ = std::fs::remove_dir_all(&dir);

        // Without a cache the call still runs the shared simulation once.
        let (uncached, r3) = run_jobs(&specs, &RunnerConfig::uncached(2));
        assert_eq!(served(&r3), expect(false));
        assert_eq!(r3.cache_hits(), 1);
        assert_eq!(bits(&uncached), bits(&serial));
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_ids_panic() {
        let model = CostModel::era_2002();
        let mk = || {
            sweep_point(
                "t/dup",
                experiments::clic_pair(&model, false, true),
                StackKind::Clic,
                64,
            )
        };
        run_jobs(&[mk(), mk()], &RunnerConfig::uncached(1));
    }
}
