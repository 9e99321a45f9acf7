//! The correctness oracle: a job's output is right when its digest matches
//! the committed reference and its invariants hold.
//!
//! `reference/<workload>.txt` maps each job id to the FNV-1a digest of its
//! seed-0 [`Measurement`]: every value's name and bit pattern, except
//! `m.events`, so that an engine change which removes no-op events is not
//! read as a model change. Each entry also records whether the job's
//! output depends on `--seed`. A job the seed does not move, or one that
//! never draws from the simulator RNG (and is not a chaos soak, whose
//! fault schedule is drawn from the seed), runs identically under every
//! seed, so its digest is checked at every `--seed`; a seed-dependent job
//! is checked only at seed 0.

use crate::workload::Workload;
use clic_cluster::jobs::{JobKind, JobSpec, Measurement};
use std::collections::BTreeMap;

/// The measurement key the digest leaves out.
const EVENTS_KEY: &str = "m.events";

/// FNV-1a over every value's name and `f64` bits, except `m.events`.
pub fn digest(m: &Measurement) -> u64 {
    fn fnv(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    m.values.iter().filter(|(name, _)| name != EVENTS_KEY).fold(
        0xcbf2_9ce4_8422_2325,
        |h, (name, v)| {
            // 0xff cannot occur in UTF-8, so it separates name from value.
            let h = fnv(fnv(h, name.as_bytes()), &[0xff]);
            fnv(h, &v.to_bits().to_le_bytes())
        },
    )
}

/// One job's reference entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// [`digest`] of the job's measurement at seed 0.
    pub digest: u64,
    /// Whether the job's output depends on its seed.
    pub seeded: bool,
}

/// The reference digests of one workload, keyed by job id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    /// Job id → entry.
    pub entries: BTreeMap<String, Entry>,
}

impl Reference {
    /// The committed reference of `w`, compiled into the binary.
    pub fn builtin(w: Workload) -> Reference {
        let text = match w {
            Workload::PaperGrid => include_str!("../reference/paper_grid.txt"),
            Workload::FabricCongestion => include_str!("../reference/fabric_congestion.txt"),
            Workload::FabricScale => include_str!("../reference/fabric_scale.txt"),
            Workload::WarmReplay => include_str!("../reference/warm_replay.txt"),
        };
        Reference::parse(text).expect("committed reference files parse")
    }

    /// Parse the text form: `#` comment lines, then one
    /// `<digest hex> <fixed|seeded> <job id>` line per job.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut entries = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            let (Some(hex), Some(flag), Some(id)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("line {}: expected `<digest> <flag> <id>`", i + 1));
            };
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("line {}: bad digest {hex:?}: {e}", i + 1))?;
            let seeded = match flag {
                "fixed" => false,
                "seeded" => true,
                other => return Err(format!("line {}: bad flag {other:?}", i + 1)),
            };
            if entries
                .insert(id.to_string(), Entry { digest, seeded })
                .is_some()
            {
                return Err(format!("line {}: duplicate job id {id:?}", i + 1));
            }
        }
        Ok(Reference { entries })
    }

    /// The text form [`Reference::parse`] reads.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str(&format!("# {line}\n"));
        }
        for (id, e) in &self.entries {
            let flag = if e.seeded { "seeded" } else { "fixed" };
            out.push_str(&format!("{:016x} {flag} {id}\n", e.digest));
        }
        out
    }
}

/// Why `m`, the output of `spec`, is wrong, or `None` when it is right.
/// `reference_seed` says whether the job ran with the seeds the reference
/// was made with; otherwise only seed-independent digests are compared.
pub fn check(
    spec: &JobSpec,
    m: &Measurement,
    reference: &Reference,
    reference_seed: bool,
) -> Option<String> {
    if let Some((name, _)) = m
        .values
        .iter()
        .find(|(n, v)| n.ends_with("_us") && v.is_nan())
    {
        return Some(format!("latency {name} is NaN"));
    }
    match &spec.kind {
        JobKind::Chaos { .. } => {
            let (posted, confirmed, failed) =
                (m.get("posted"), m.get("confirmed"), m.get("failed"));
            if confirmed.zip(failed).map(|(c, f)| c + f) != posted {
                return Some(format!(
                    "confirmed {confirmed:?} + failed {failed:?} != posted {posted:?}"
                ));
            }
        }
        JobKind::Incast {
            cluster,
            per_sender,
            ..
        } => {
            let expected = (cluster.nodes - 1) * per_sender;
            if m.get("delivered") != Some(expected as f64) {
                return Some(format!(
                    "delivered {:?} != (nodes-1)*per_sender {expected}",
                    m.get("delivered")
                ));
            }
        }
        _ => {}
    }
    let Some(entry) = reference.entries.get(&spec.id) else {
        return Some("no reference entry".to_string());
    };
    let got = digest(m);
    if (reference_seed || !entry.seeded) && got != entry.digest {
        return Some(format!(
            "digest {got:016x} != reference {:016x}",
            entry.digest
        ));
    }
    None
}

/// Jobs attempted and failed, with the first few reasons.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Jobs whose output was checked.
    pub attempted: u64,
    /// Jobs that panicked or whose output was wrong.
    pub failed: u64,
    /// `<job id>: <reason>` for the first failures.
    pub failures: Vec<String>,
}

impl Tally {
    /// How many failure reasons are kept.
    const KEPT: usize = 20;

    /// Count one job, failed when `problem` is set.
    pub fn record(&mut self, id: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failures.len() < Self::KEPT {
                self.failures.push(format!("{id}: {p}"));
            }
        }
    }

    /// Failed jobs ÷ attempted jobs (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        crate::report::ratio(self.failed as f64, self.attempted as f64)
    }
}
