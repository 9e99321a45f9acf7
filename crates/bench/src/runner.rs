//! Parallel job execution with a content-addressed result cache.
//!
//! Takes a set of [`JobSpec`]s, runs the ones without a cached result on
//! a [`std::thread::scope`] worker pool, and returns a
//! [`ResultMap`] keyed by job id — so the output is deterministic and
//! bit-identical to [`clic_cluster::experiments::run_serial`] regardless
//! of worker count or completion order. Each job owns its entire
//! (`Rc`/`RefCell`-based) simulation on the thread that runs it; only the
//! plain-data [`JobSpec`] and the flat `Measurement` cross threads.
//!
//! Cache entries live under one directory (default
//! `target/figures-cache/`), one JSON file per job named by the job's
//! [`JobSpec::fingerprint`] — a stable hash of the job id, its full
//! configuration and the calibrated cost-model constants. Editing any
//! constant in `calibration.rs` changes every affected fingerprint, so
//! stale results are never reused; values are stored as `f64` bit
//! patterns, so a cache round-trip is exact.

use crate::json::Json;
use clic_cluster::experiments::ResultMap;
use clic_cluster::jobs::{JobSpec, Measurement, MEASUREMENT_SCHEMA_VERSION};
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
    /// Execution time in seconds (0 for cache hits).
    pub secs: f64,
    /// Whether the result came from the cache.
    pub cached: bool,
}

/// What a [`run_jobs`] call did, for `BENCH_figures.json`.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-job outcomes, in job-submission order.
    pub jobs: Vec<JobReport>,
    /// Wall-clock seconds for the whole call (including cache probes).
    pub wall_secs: f64,
    /// Worker threads used.
    pub workers: usize,
}

impl RunReport {
    /// Number of cache hits.
    pub fn cache_hits(&self) -> usize {
        self.jobs.iter().filter(|j| j.cached).count()
    }

    /// Cache hits as a fraction of all jobs (0 when the set is empty).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.cache_hits() as f64 / self.jobs.len() as f64
        }
    }

    /// Sum of executed-job times: what a serial, uncached run of the
    /// *executed* jobs would have cost.
    pub fn serial_equiv_secs(&self) -> f64 {
        self.jobs.iter().map(|j| j.secs).sum()
    }

    /// Executed-work speedup: serial-equivalent seconds over wall-clock.
    /// ~1.0 for `--jobs 1`, approaching the worker count for wide grids.
    pub fn speedup_vs_serial(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.serial_equiv_secs() / self.wall_secs
        } else {
            1.0
        }
    }

    /// Fold another report into this one (summing wall time; used to
    /// aggregate per-figure runs into a grand total).
    pub fn merge(&mut self, other: &RunReport) {
        self.jobs.extend(other.jobs.iter().cloned());
        self.wall_secs += other.wall_secs;
        self.workers = self.workers.max(other.workers);
    }
}

/// Execute `specs`, consulting and filling the cache, and return results
/// keyed by job id plus a report of what ran.
///
/// Panics if two specs share an id (ids are the result keys).
pub fn run_jobs(specs: &[JobSpec], config: &RunnerConfig) -> (ResultMap, RunReport) {
    let started = Instant::now();
    let workers = config.jobs.max(1);

    if let Some(dir) = &config.cache_dir {
        // Best-effort: a read-only disk just means no caching.
        let _ = std::fs::create_dir_all(dir);
    }

    // Probe the cache up front (cheap, serial), then run the misses.
    let mut slots: Vec<Option<(Measurement, f64, bool)>> = Vec::with_capacity(specs.len());
    let mut misses: Vec<usize> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let hit = config
            .cache_dir
            .as_deref()
            .and_then(|dir| read_cache(dir, spec));
        match hit {
            Some(m) => slots.push(Some((m, 0.0, true))),
            None => {
                slots.push(None);
                misses.push(i);
            }
        }
    }

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
            write_cache(dir, &specs[i], &m);
        }
        slots[i] = Some((m, secs, false));
    }

    let mut results = ResultMap::new();
    let mut report = RunReport {
        jobs: Vec::with_capacity(specs.len()),
        wall_secs: 0.0,
        workers,
    };
    for (spec, slot) in specs.iter().zip(slots) {
        let (m, secs, cached) = slot.expect("every job slot filled");
        report.jobs.push(JobReport {
            id: spec.id.clone(),
            secs,
            cached,
        });
        let prev = results.insert(spec.id.clone(), m);
        assert!(prev.is_none(), "duplicate job id {:?}", spec.id);
    }
    report.wall_secs = started.elapsed().as_secs_f64();
    (results, report)
}

fn cache_path(dir: &Path, spec: &JobSpec) -> PathBuf {
    dir.join(format!("{:016x}.json", spec.fingerprint()))
}

/// Load a cached measurement, verifying the stored fingerprint, id and
/// schema version. Any mismatch or parse failure is treated as a miss.
fn read_cache(dir: &Path, spec: &JobSpec) -> Option<Measurement> {
    let text = std::fs::read_to_string(cache_path(dir, spec)).ok()?;
    let doc = Json::parse(&text).ok()?;
    let fingerprint = doc.get("fingerprint")?.as_str()?;
    if fingerprint != format!("{:016x}", spec.fingerprint()) {
        return None;
    }
    if doc.get("id")?.as_str()? != spec.id {
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
fn write_cache(dir: &Path, spec: &JobSpec, m: &Measurement) {
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
        (
            "fingerprint",
            Json::Str(format!("{:016x}", spec.fingerprint())),
        ),
        ("id", Json::Str(spec.id.clone())),
        ("schema", Json::Num(MEASUREMENT_SCHEMA_VERSION as f64)),
        ("values", values),
    ]);
    let path = cache_path(dir, spec);
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
        assert!(r2.cache_hit_rate() > 0.999);
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
        let path = cache_path(&dir, &specs[0]);
        std::fs::write(&path, "{ not json").unwrap();
        let (second, r2) = run_jobs(&specs, &config);
        assert_eq!(r2.cache_hits(), 0);
        assert_eq!(bits(&first), bits(&second));
        let _ = std::fs::remove_dir_all(&dir);
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
