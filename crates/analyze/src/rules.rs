//! The lint rules and the analysis driver.
//!
//! Four per-site rule families plus the dependency lint, scoped by a
//! per-crate policy table (see [`policy`]):
//!
//! * **determinism** — `wall-clock`, `ad-hoc-rng`, `unordered-collection`:
//!   simulation crates must be pure functions of configuration and seed,
//!   so wall-clock time, OS-seeded randomness and iteration-order-unstable
//!   collections are denied there;
//! * **overflow soundness** — `time-overflow`: unchecked `+ - *` and
//!   narrowing `as` casts on time/sequence-typed values in simulation
//!   crates, where a silent wrap corrupts the event order instead of
//!   crashing;
//! * **observability names** — `metric-name`, `stage-name`, `dead-name`,
//!   `catalog-dup`, `catalog-order`, `catalog-parse`: every name literal
//!   interned with `metric_id`, read or imported through the metrics
//!   registry, or emitted into the trace sink must be registered in
//!   `crates/sim/src/catalog.rs` (with the sink the call needs), and every
//!   catalog entry must be recorded somewhere — a `sim.record(ID, v)` call
//!   counts through the file's `const ID: MetricId = metric_id("…")`;
//! * **API hygiene** — `no-unwrap`, `crate-header`: no
//!   `unwrap()`/`expect()`/`panic!` in non-test library code of the
//!   protocol crates, and every library crate carries
//!   `#![deny(missing_docs)]` + `#![forbid(unsafe_code)]`;
//! * **dependency policy** — `paths-only-deps`: every dependency in every
//!   workspace manifest must be a path or workspace dependency, locking in
//!   the offline-build guarantee.
//!
//! On top of the per-site rules, [`analyze_workspace`] builds the
//! workspace call graph ([`crate::graph`]) and runs the flow families
//! ([`crate::flow`]): `determinism-taint`, `panic-reach`,
//! `unreachable-name`, `dead-fn`. Their findings carry a root→sink call path and are
//! filtered against the same `lint:allow` annotations as everything else
//! — allow bookkeeping is centralized here precisely because a graph
//! finding in file A can be suppressed by an annotation in file A while
//! its root lives in file B.
//!
//! Audited exceptions are written `// lint:allow(<rule>, reason="...")`
//! on (or directly above) the offending line; see [`crate::allow`].

use crate::allow;
use crate::catalog::{parse as parse_catalog, strip_node_prefix, Catalog, Sink};
use crate::diag::Diag;
use crate::flow;
use crate::graph;
use crate::lexer::{lex, Lexed, TokKind};
use crate::workspace::{discover, Manifest, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// Every rule: `(name, what it enforces)`.
pub const RULES: &[(&str, &str)] = &[
    (
        "wall-clock",
        "no std::time::Instant / SystemTime in simulation crates",
    ),
    (
        "ad-hoc-rng",
        "no thread_rng / rand::random / OS-entropy RNGs in simulation crates",
    ),
    (
        "unordered-collection",
        "no HashMap / HashSet in simulation crates",
    ),
    (
        "time-overflow",
        "no unchecked + - * or narrowing casts on time/sequence values in simulation crates",
    ),
    (
        "determinism-taint",
        "no call path from simulation public API to wall-clock/RNG/env sources",
    ),
    (
        "panic-reach",
        "no panic site reachable from core/ethernet/sim public API",
    ),
    (
        "unreachable-name",
        "catalog names must be recorded by code reachable from job entry points",
    ),
    (
        "dead-fn",
        "every simulation-crate fn must be reachable from a job entry point",
    ),
    (
        "metric-name",
        "metric name literals must be registered in crates/sim/src/catalog.rs",
    ),
    (
        "stage-name",
        "trace stage literals must be registered in crates/sim/src/catalog.rs",
    ),
    (
        "dead-name",
        "catalog entries must be recorded somewhere in library code",
    ),
    ("catalog-dup", "catalog entries must be unique"),
    ("catalog-order", "catalog tables must be sorted by name"),
    ("catalog-parse", "the catalog must exist and parse"),
    (
        "no-unwrap",
        "no unwrap()/expect()/panic! in non-test core/ethernet/sim library code",
    ),
    (
        "crate-header",
        "library crates must carry #![deny(missing_docs)] and #![forbid(unsafe_code)]",
    ),
    (
        "paths-only-deps",
        "all dependencies must be path/workspace deps (offline build)",
    ),
    (
        "unused-allow",
        "lint:allow annotations must suppress something",
    ),
    (
        "malformed-allow",
        "lint:allow annotations must be well-formed with a reason",
    ),
];

/// Crates whose behaviour feeds simulated results: all determinism rules
/// apply, with no wall-clock or unordered-collection escape hatch short of
/// an audited annotation.
pub const SIM_CRATES: &[&str] = &[
    "sim", "core", "os", "hw", "ethernet", "tcpip", "mpi", "gamma", "cluster",
];

/// Crates under the `no-unwrap` hygiene rule.
pub const NO_UNWRAP_CRATES: &[&str] = &["core", "ethernet", "sim"];

/// Crates exempt from the observability-name rules: dependency stand-ins
/// (their string literals model foreign APIs) and the analyzer itself
/// (its literals are rule data).
pub const NAME_EXEMPT_CRATES: &[&str] =
    &["shim-bytes", "shim-criterion", "shim-proptest", "analyze"];

/// Files that define the observability machinery: name literals inside
/// them are API docs/tests, not recordings.
pub const OBS_INFRA_FILES: &[&str] = &[
    "crates/sim/src/metrics.rs",
    "crates/sim/src/trace.rs",
    "crates/sim/src/catalog.rs",
    "crates/sim/src/timeseries.rs",
];

/// Per-crate rule applicability. `bench` and the shims legitimately read
/// the host clock (they measure real elapsed time); only simulation
/// crates must stay virtual-time-pure.
#[derive(Debug, Clone, Copy)]
// Independent per-rule-family switches, not a state machine.
#[allow(clippy::struct_excessive_bools)]
pub struct Policy {
    /// `wall-clock` + `ad-hoc-rng` + `unordered-collection` apply.
    pub determinism: bool,
    /// `time-overflow` applies.
    pub overflow: bool,
    /// `metric-name` / `stage-name` extraction applies.
    pub names: bool,
    /// `no-unwrap` applies.
    pub no_unwrap: bool,
}

/// Look up the policy for a workspace crate directory name.
pub fn policy(crate_name: &str) -> Policy {
    Policy {
        determinism: SIM_CRATES.contains(&crate_name),
        overflow: SIM_CRATES.contains(&crate_name),
        names: !NAME_EXEMPT_CRATES.contains(&crate_name),
        no_unwrap: NO_UNWRAP_CRATES.contains(&crate_name),
    }
}

/// The relaxed policy row for integration-test sources (scanned only
/// under `--include-tests`): the determinism rules still apply — a test
/// that reads the wall clock can mask nondeterminism in what it asserts —
/// but name registration, panic hygiene and overflow style are test-local
/// concerns the workspace gate does not impose.
pub fn policy_test(crate_name: &str) -> Policy {
    Policy {
        determinism: SIM_CRATES.contains(&crate_name) || crate_name == "clic",
        overflow: false,
        names: false,
        no_unwrap: false,
    }
}

/// Analysis result.
#[derive(Debug)]
pub struct Report {
    /// All violations, sorted by `(file, line, rule)`.
    pub diags: Vec<Diag>,
    /// Number of files scanned (sources + manifests).
    pub files_scanned: usize,
}

/// Observability-name usage accumulated across files, for the dead-name
/// check.
#[derive(Debug, Default)]
pub struct Usage {
    /// Metric names recorded or read anywhere in library code.
    pub metrics: BTreeSet<String>,
    /// Stage names emitted anywhere in library code.
    pub stages: BTreeSet<String>,
}

/// Run the full analysis over the workspace at `root`.
pub fn analyze(root: &Path) -> io::Result<Report> {
    let ws = discover(root)?;
    Ok(analyze_workspace(&ws))
}

/// Per-file allow-annotation state retained across the per-site and graph
/// passes, so every finding — wherever it was computed — settles against
/// the annotations of the file it anchors to, and stale annotations are
/// reported exactly once at the end.
struct AllowState {
    rel: String,
    allows: allow::Allows,
    used: Vec<bool>,
}

/// Run the full analysis over an already-discovered workspace.
pub fn analyze_workspace(ws: &Workspace) -> Report {
    let mut diags = Vec::new();
    let mut usage = Usage::default();

    // The catalog.
    let found = ws
        .files
        .iter()
        .find(|f| f.rel == "crates/sim/src/catalog.rs");
    let catalog = if let Some(f) = found {
        match parse_catalog(&f.text) {
            Ok(c) => {
                diags.extend(check_catalog(&c));
                c
            }
            Err(e) => {
                diags.push(Diag::site(
                    "catalog-parse",
                    f.rel.clone(),
                    0,
                    e,
                    "keep METRICS/STAGES as arrays of struct literals whose first string \
                     literal is the name",
                ));
                Catalog::default()
            }
        }
    } else {
        diags.push(Diag::site(
            "catalog-parse",
            "crates/sim/src/catalog.rs",
            0,
            "observability catalog not found",
            "create crates/sim/src/catalog.rs with METRICS and STAGES tables",
        ));
        Catalog::default()
    };

    // Per-site pass: candidates per file, allow state retained.
    let mut states: Vec<AllowState> = Vec::with_capacity(ws.files.len());
    let mut pending: Vec<(usize, Diag)> = Vec::new();
    for f in &ws.files {
        let lexed = lex(&f.text);
        let allows = allow::parse(&lexed.comments);
        let cands = file_candidates(f, &lexed, &catalog, &mut usage);
        let si = states.len();
        states.push(AllowState {
            rel: f.rel.clone(),
            used: vec![false; allows.ok.len()],
            allows,
        });
        pending.extend(cands.into_iter().map(|c| {
            (
                si,
                Diag::site(c.rule, f.rel.clone(), c.line, c.message, c.suggestion),
            )
        }));
    }

    // Graph pass: call-graph rule families over the whole workspace.
    let g = graph::build(ws);
    let by_rel: BTreeMap<&str, usize> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (s.rel.as_str(), i))
        .collect();
    for f in flow::run(&g, &catalog, &flow::FlowPolicy::default()) {
        let d =
            Diag::site(f.rule, f.file.clone(), f.line, f.message, f.suggestion).with_path(f.path);
        match by_rel.get(f.file.as_str()) {
            Some(&si) => pending.push((si, d)),
            None => diags.push(d),
        }
    }

    // Central allow filtering, then the stale-annotation sweep.
    for (si, d) in pending {
        let st = &mut states[si];
        if !suppressed(&st.allows, &mut st.used, d.rule, d.line) {
            diags.push(d);
        }
    }
    for st in &states {
        diags.extend(allow_meta(&st.rel, &st.allows, &st.used));
    }

    // Dead catalog entries.
    if !catalog.metrics.is_empty() {
        diags.extend(check_dead_names(&catalog, &usage));
    }

    // Manifests.
    for m in &ws.manifests {
        diags.extend(check_manifest(m));
    }

    diags.sort_by_key(Diag::key);
    Report {
        files_scanned: ws.files.len() + ws.manifests.len(),
        diags,
    }
}

/// Catalog self-checks: duplicates and ordering.
pub fn check_catalog(c: &Catalog) -> Vec<Diag> {
    let mut diags = Vec::new();
    let file = "crates/sim/src/catalog.rs";
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for e in &c.metrics {
        if !seen.insert(e.name.clone()) {
            diags.push(Diag::site(
                "catalog-dup",
                file,
                e.line,
                format!("metric `{}` registered more than once", e.name),
                "keep one entry per name and list every sink on it",
            ));
        }
    }
    let mut seen_stages: BTreeSet<String> = BTreeSet::new();
    for e in &c.stages {
        if !seen_stages.insert(e.name.clone()) {
            diags.push(Diag::site(
                "catalog-dup",
                file,
                e.line,
                format!("stage `{}` registered more than once", e.name),
                "remove the duplicate entry",
            ));
        }
    }
    for w in c.metrics.windows(2) {
        if w[0].name > w[1].name {
            diags.push(Diag::site(
                "catalog-order",
                file,
                w[1].line,
                format!("METRICS not sorted: `{}` after `{}`", w[1].name, w[0].name),
                "keep the table sorted by name so diffs stay one-line",
            ));
        }
    }
    for w in c.stages.windows(2) {
        if w[0].name > w[1].name {
            diags.push(Diag::site(
                "catalog-order",
                file,
                w[1].line,
                format!("STAGES not sorted: `{}` after `{}`", w[1].name, w[0].name),
                "keep the table sorted by name so diffs stay one-line",
            ));
        }
    }
    diags
}

/// Catalog entries never recorded anywhere in library code.
pub fn check_dead_names(catalog: &Catalog, usage: &Usage) -> Vec<Diag> {
    let mut diags = Vec::new();
    let file = "crates/sim/src/catalog.rs";
    for e in &catalog.metrics {
        if !usage.metrics.contains(&e.name) {
            diags.push(Diag::site(
                "dead-name",
                file,
                e.line,
                format!(
                    "metric `{}` ({}) is registered but never recorded or read",
                    e.name,
                    e.sinks_label()
                ),
                "record it somewhere or remove the catalog entry",
            ));
        }
    }
    for e in &catalog.stages {
        if !usage.stages.contains(&e.name) {
            diags.push(Diag::site(
                "dead-name",
                file,
                e.line,
                format!("stage `{}` is registered but never emitted", e.name),
                "emit it somewhere or remove the catalog entry",
            ));
        }
    }
    diags
}

/// A candidate violation before allow-annotation filtering.
struct Candidate {
    rule: &'static str,
    line: u32,
    message: String,
    suggestion: String,
}

/// Run every per-file rule on one source file — the standalone single-file
/// entry point used by fixture tests. [`analyze_workspace`] uses the same
/// candidate generation but settles allows centrally so graph findings
/// participate too.
pub fn check_file(f: &SourceFile, catalog: &Catalog, usage: &mut Usage) -> Vec<Diag> {
    let lexed = lex(&f.text);
    let allows = allow::parse(&lexed.comments);
    let cands = file_candidates(f, &lexed, catalog, usage);
    let mut used = vec![false; allows.ok.len()];
    let mut diags = Vec::new();
    for c in cands {
        if !suppressed(&allows, &mut used, c.rule, c.line) {
            diags.push(Diag::site(
                c.rule,
                f.rel.clone(),
                c.line,
                c.message,
                c.suggestion,
            ));
        }
    }
    diags.extend(allow_meta(&f.rel, &allows, &used));
    diags
}

/// Generate every per-site candidate for one file, already filtered for
/// `#[cfg(test)]` regions (integration-test sources skip that filter: the
/// whole file is test code and the relaxed [`policy_test`] row is what
/// applies).
fn file_candidates(
    f: &SourceFile,
    lexed: &Lexed,
    catalog: &Catalog,
    usage: &mut Usage,
) -> Vec<Candidate> {
    let pol = if f.is_test_source {
        policy_test(&f.crate_name)
    } else {
        policy(&f.crate_name)
    };
    let tests = test_regions(lexed);
    let in_test = |line: u32| tests.iter().any(|&(a, b)| line >= a && line <= b);

    let mut cands: Vec<Candidate> = Vec::new();
    if pol.determinism {
        wall_clock(lexed, &mut cands);
        ad_hoc_rng(lexed, &mut cands);
        unordered_collections(lexed, &mut cands);
    }
    if pol.overflow {
        time_overflow(lexed, &mut cands);
    }
    if pol.names && !OBS_INFRA_FILES.contains(&f.rel.as_str()) {
        observability_names(lexed, catalog, usage, &in_test, &mut cands);
    }
    if pol.no_unwrap {
        no_unwrap(lexed, &mut cands);
    }
    if f.is_lib_root {
        crate_header(lexed, &mut cands);
    }

    if f.is_test_source {
        cands
    } else {
        cands
            .into_iter()
            .filter(|c| c.rule == "crate-header" || !in_test(c.line))
            .collect()
    }
}

/// Whether an allow for `allow_rule` covers a diagnostic for `diag_rule`.
/// The graph families accept their per-site cousins: a site audited for
/// `no-unwrap` is audited for reachability too, and an audited wall-clock
/// or RNG read is an audited taint source.
fn allow_covers(diag_rule: &str, allow_rule: &str) -> bool {
    allow_rule == diag_rule
        || (diag_rule == "panic-reach" && allow_rule == "no-unwrap")
        || (diag_rule == "determinism-taint" && matches!(allow_rule, "wall-clock" | "ad-hoc-rng"))
}

/// Settle one candidate against a file's annotations: an annotation on
/// the candidate's line or the line directly above suppresses it (and is
/// marked used).
fn suppressed(allows: &allow::Allows, used: &mut [bool], rule: &'static str, line: u32) -> bool {
    let mut hit = false;
    for (i, a) in allows.ok.iter().enumerate() {
        if allow_covers(rule, &a.rule) && (a.line == line || a.line + 1 == line) {
            used[i] = true;
            hit = true;
        }
    }
    hit
}

/// The stale-annotation sweep: unknown rule names and annotations that
/// suppressed nothing.
fn allow_meta(rel: &str, allows: &allow::Allows, used: &[bool]) -> Vec<Diag> {
    let mut diags = Vec::new();
    for m in &allows.malformed {
        diags.push(Diag::site(
            "malformed-allow",
            rel,
            m.line,
            format!("malformed lint:allow annotation: {}", m.error),
            "write `// lint:allow(<rule>, reason=\"...\")`",
        ));
    }
    for (i, a) in allows.ok.iter().enumerate() {
        if !RULES.iter().any(|(r, _)| *r == a.rule) {
            diags.push(Diag::site(
                "malformed-allow",
                rel,
                a.line,
                format!("lint:allow names unknown rule `{}`", a.rule),
                "run `clic-analyze --list-rules` for the rule set",
            ));
        } else if !used[i] {
            diags.push(Diag::site(
                "unused-allow",
                rel,
                a.line,
                format!("lint:allow({}) suppresses nothing", a.rule),
                "remove the stale annotation",
            ));
        }
    }
    diags
}

/// `#[cfg(test)]` / `#[test]` item extents as inclusive line ranges.
pub fn test_regions(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.toks;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(lexed.is_punct(i, '#') && lexed.is_punct(i + 1, '[')) {
            i += 1;
            continue;
        }
        let Some(close) = matching(lexed, i + 1, '[', ']') else {
            break;
        };
        let (mut has_cfg, mut has_test, mut has_not) = (false, false, false);
        for t in &toks[i + 2..close] {
            if let TokKind::Ident(s) = &t.kind {
                match s.as_str() {
                    "cfg" => has_cfg = true,
                    "test" => has_test = true,
                    "not" => has_not = true,
                    _ => {}
                }
            }
        }
        let bare_test = close == i + 3 && lexed.is_ident(i + 2, "test");
        if !(bare_test || (has_cfg && has_test && !has_not)) {
            i = close + 1;
            continue;
        }
        // Skip any further attributes, then span the annotated item.
        let mut k = close + 1;
        while lexed.is_punct(k, '#') && lexed.is_punct(k + 1, '[') {
            match matching(lexed, k + 1, '[', ']') {
                Some(end) => k = end + 1,
                None => break,
            }
        }
        let mut l = k;
        while l < toks.len() && !lexed.is_punct(l, '{') && !lexed.is_punct(l, ';') {
            l += 1;
        }
        let end = if l >= toks.len() {
            toks.last().map_or(0, |t| t.line)
        } else if lexed.is_punct(l, ';') {
            toks[l].line
        } else {
            match matching(lexed, l, '{', '}') {
                Some(m) => toks[m].line,
                None => toks.last().map_or(0, |t| t.line),
            }
        };
        regions.push((toks[i].line, end));
        // Resume after the region (line-based skip keeps it simple).
        while i < toks.len() && toks[i].line <= end {
            i += 1;
        }
    }
    regions
}

/// Index of the token closing the `open` at index `at`.
fn matching(lexed: &Lexed, at: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    for j in at..lexed.toks.len() {
        if lexed.is_punct(j, open) {
            depth += 1;
        } else if lexed.is_punct(j, close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// `wall-clock`: `Instant::now`, `SystemTime`, or a `use` of `std::time`'s
/// clock types.
fn wall_clock(lexed: &Lexed, cands: &mut Vec<Candidate>) {
    for (i, t) in lexed.toks.iter().enumerate() {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        if name != "Instant" && name != "SystemTime" {
            continue;
        }
        let called_now = lexed.is_path_sep(i + 1) && lexed.is_ident(i + 3, "now");
        let time_path = i >= 3 && lexed.is_ident(i - 3, "time") && lexed.is_path_sep(i - 2);
        let in_use_time = in_use_of(lexed, i, "time");
        if called_now || time_path || in_use_time {
            cands.push(Candidate {
                rule: "wall-clock",
                line: t.line,
                message: format!("`{name}` (wall-clock time) in a simulation crate"),
                suggestion: "simulated components must use SimTime; wall-clock measurement \
                             belongs in clic-bench"
                    .to_string(),
            });
        }
    }
}

/// `ad-hoc-rng`: OS-seeded or implicit-state randomness.
fn ad_hoc_rng(lexed: &Lexed, cands: &mut Vec<Candidate>) {
    for (i, t) in lexed.toks.iter().enumerate() {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        let flagged = match name.as_str() {
            "thread_rng" | "from_entropy" | "getrandom" | "RandomState" => true,
            "random" => i >= 3 && lexed.is_ident(i - 3, "rand") && lexed.is_path_sep(i - 2),
            _ => false,
        };
        if flagged {
            cands.push(Candidate {
                rule: "ad-hoc-rng",
                line: t.line,
                message: format!("`{name}` (non-seeded randomness) in a simulation crate"),
                suggestion: "all randomness must flow through the seeded SimRng on the Sim"
                    .to_string(),
            });
        }
    }
}

/// `unordered-collection`: HashMap/HashSet, one finding per line.
fn unordered_collections(lexed: &Lexed, cands: &mut Vec<Candidate>) {
    let mut last_line = 0u32;
    for t in &lexed.toks {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        if (name == "HashMap" || name == "HashSet") && t.line != last_line {
            last_line = t.line;
            cands.push(Candidate {
                rule: "unordered-collection",
                line: t.line,
                message: format!("`{name}` (iteration order unstable) in a simulation crate"),
                suggestion: "use BTreeMap/BTreeSet (or sort at the emission point) so iteration \
                             order can never reach simulated behaviour or output"
                    .to_string(),
            });
        }
    }
}

/// Time/sequence atom for the `time-overflow` rule: an identifier with a
/// `ns`/`us`/`seq` underscore segment (`now_ns`, `next_seq`, `delay_us`,
/// or the lone words themselves) — including the `.as_ns()` / `.as_us()`
/// `SimTime` accessors, whose names contain the segment by construction.
/// `from_*` constructors (`SimDuration::from_ns(1)`) are excluded: they
/// return the wrapper types whose operators are the audited guard sites,
/// not a raw integer.
fn is_time_atom(kind: &TokKind) -> bool {
    match kind {
        TokKind::Ident(s) => {
            let mut segs = s.split('_');
            if segs.next() == Some("from") {
                return false;
            }
            s.split('_')
                .any(|seg| seg == "ns" || seg == "us" || seg == "seq")
        }
        _ => false,
    }
}

/// Casts wide enough to make a subsequent `+ - *` sound for u64
/// nanosecond/sequence magnitudes.
fn is_widening(kind: &TokKind) -> bool {
    matches!(kind, TokKind::Ident(s) if matches!(s.as_str(), "u128" | "i128" | "i64" | "f64"))
}

/// `time-overflow`: unchecked `+ - *` (including compound assignment) and
/// narrowing `as` casts adjacent to a time/sequence atom. The rule is a
/// heuristic over names — the workspace consistently suffixes nanosecond
/// and sequence values — and accepts a widening cast in the surrounding
/// token window as proof of soundness, which is exactly the audited
/// pattern (`u128::from(x_ns) * y`).
fn time_overflow(lexed: &Lexed, cands: &mut Vec<Candidate>) {
    // Token window around an operator searched for atoms and widenings.
    const WINDOW: usize = 6;
    let toks = &lexed.toks;
    let mut last_line = 0u32;
    let window_has = |center: usize, pred: &dyn Fn(&TokKind) -> bool| -> bool {
        let lo = center.saturating_sub(WINDOW);
        let hi = (center + WINDOW + 1).min(toks.len());
        toks[lo..hi].iter().any(|t| {
            // Stop tokens would over-complicate this; a 6-token radius is
            // tight enough that leakage across `;` boundaries is rare and
            // only ever makes the rule more conservative.
            pred(&t.kind)
        })
    };
    for i in 0..toks.len() {
        let line = toks[i].line;
        match &toks[i].kind {
            TokKind::Punct(op @ ('+' | '-' | '*')) => {
                // Binary position only: the previous token must end an
                // expression (`a + b`, `f() * x`, `v[i] - y`, `seq += 1`).
                let prev_expr = i >= 1
                    && (matches!(toks[i - 1].kind, TokKind::Ident(_) | TokKind::Num)
                        || lexed.is_punct(i - 1, ')')
                        || lexed.is_punct(i - 1, ']'));
                // `->` is an arrow, not a subtraction.
                let arrow = *op == '-' && lexed.is_punct(i + 1, '>');
                if !prev_expr || arrow || line == last_line {
                    continue;
                }
                if window_has(i, &is_time_atom) && !window_has(i, &is_widening) {
                    last_line = line;
                    cands.push(Candidate {
                        rule: "time-overflow",
                        line,
                        message: format!("unchecked `{op}` on a time/sequence-typed value"),
                        suggestion: "use checked_/saturating_ arithmetic or widen to u128/i64 \
                                     first; audited escape: lint:allow(time-overflow, \
                                     reason=\"...\")"
                            .to_string(),
                    });
                }
            }
            TokKind::Ident(s) if s == "as" => {
                let narrow = matches!(
                    lexed.kind(i + 1),
                    Some(TokKind::Ident(t)) if matches!(t.as_str(), "u8" | "u16" | "u32")
                );
                if !narrow || line == last_line {
                    continue;
                }
                let lo = i.saturating_sub(WINDOW);
                if toks[lo..i].iter().any(|t| is_time_atom(&t.kind)) {
                    last_line = line;
                    cands.push(Candidate {
                        rule: "time-overflow",
                        line,
                        message: "narrowing `as` cast on a time/sequence-typed value".to_string(),
                        suggestion: "keep u64 width or use try_from with an explicit error; \
                                     audited escape: lint:allow(time-overflow, reason=\"...\")"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// Whether token `i` sits inside a `use` item whose path mentions
/// `segment`.
fn in_use_of(lexed: &Lexed, i: usize, segment: &str) -> bool {
    // Walk back to the start of the statement.
    let mut j = i;
    while j > 0 {
        match &lexed.toks[j - 1].kind {
            TokKind::Punct(';' | '}') => break,
            _ => j -= 1,
        }
    }
    if !lexed.is_ident(j, "use") {
        return false;
    }
    lexed.toks[j..i]
        .iter()
        .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == segment))
}

/// Registry and timeline calls that take a metric name literal, with the
/// sink the name must declare: `(method, sink)`. Reads count as usage
/// for the dead-name pass, and `counter_add` is the per-node snapshot
/// import.
const METRIC_CALLS: &[(&str, Sink)] = &[
    ("counter", Sink::Counter),
    ("counter_add", Sink::Counter),
    ("sum_counters", Sink::Counter),
    ("gauge", Sink::Gauge),
    ("gauge_peak", Sink::Gauge),
    ("histogram", Sink::Histogram),
    // Timeline series lookups take catalog names too: a series that
    // cannot resolve through the catalog is unreadable, so the linter
    // treats these like the registry reads above.
    ("gauge_series", Sink::TimelineLevel),
    ("counter_series", Sink::TimelineRate),
];

/// Trace-emission methods whose first string literal is a stage name.
const STAGE_CALLS: &[&str] = &["begin", "end", "instant"];

/// Compile-time interning resolver from `clic_sim::catalog`: a free
/// function (called as `metric_id("...")` or `catalog::metric_id(...)`)
/// whose string literal must name a catalog entry.
const METRIC_ID_CALL: &str = "metric_id";

/// The one live-recording call, `sim.record(ID, v)`: it records the entry
/// that `ID` was interned from.
const RECORD_CALL: &str = "record";

/// `const NAME: MetricId = [path::]metric_id("lit");` declarations in a
/// file, as const name → metric name: what a `record(NAME, ..)` call in
/// that file records.
pub(crate) fn metric_consts(lexed: &Lexed) -> BTreeMap<String, String> {
    let toks = &lexed.toks;
    let mut out = BTreeMap::new();
    for i in 0..toks.len() {
        if !matches!(&toks[i].kind, TokKind::Ident(s) if s == "const") {
            continue;
        }
        let Some(TokKind::Ident(name)) = lexed.kind(i + 1) else {
            continue;
        };
        let mut j = i + 2;
        while j + 2 < toks.len() && !lexed.is_punct(j, ';') {
            if matches!(&toks[j].kind, TokKind::Ident(s) if s == METRIC_ID_CALL)
                && lexed.is_punct(j + 1, '(')
            {
                if let Some(TokKind::Str(lit)) = lexed.kind(j + 2) {
                    out.insert(name.clone(), lit.clone());
                }
                break;
            }
            j += 1;
        }
    }
    out
}

/// The lone identifier forming the first argument of the call whose
/// parentheses open at `open` and close at `close`, if that is its shape.
pub(crate) fn first_ident_arg(lexed: &Lexed, open: usize, close: usize) -> Option<&str> {
    match lexed.kind(open + 1) {
        Some(TokKind::Ident(id)) if open + 2 == close || lexed.is_punct(open + 2, ',') => {
            Some(id.as_str())
        }
        _ => None,
    }
}

/// What a name-carrying call does with its name.
#[derive(Clone, Copy)]
pub(crate) enum NameUse {
    /// A registry/timeline read or snapshot import needing this sink.
    Metric(Sink),
    /// `metric_id("…")`: interns any registered entry.
    Intern,
    /// `sim.record(ID, v)`: records the entry `ID` was interned from.
    Record,
    /// A trace stage emission.
    Stage,
}

/// The shape of a call named `name` (`.name(` when `is_method`), if it
/// carries an observability name — shared by the per-site name rules and
/// the liveness pass so both recognise the same calls.
pub(crate) fn name_use(name: &str, is_method: bool) -> Option<NameUse> {
    if is_method {
        if name == RECORD_CALL {
            return Some(NameUse::Record);
        }
        if STAGE_CALLS.contains(&name) {
            return Some(NameUse::Stage);
        }
        METRIC_CALLS
            .iter()
            .find(|(m, _)| *m == name)
            .map(|&(_, s)| NameUse::Metric(s))
    } else if name == METRIC_ID_CALL {
        Some(NameUse::Intern)
    } else {
        None
    }
}

/// `metric-name` / `stage-name`: extract every name literal passed to a
/// recording call and check it against the catalog. Usage is accumulated
/// for the dead-name pass (test code counts toward neither rule): reads,
/// snapshot imports and `record` calls count; interning alone does not,
/// so an id that is never recorded leaves its entry dead.
fn observability_names(
    lexed: &Lexed,
    catalog: &Catalog,
    usage: &mut Usage,
    in_test: &dyn Fn(u32) -> bool,
    cands: &mut Vec<Candidate>,
) {
    let consts = metric_consts(lexed);
    for (i, t) in lexed.toks.iter().enumerate() {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        if !lexed.is_punct(i + 1, '(') {
            continue;
        }
        // Method-call shape (`.counter(`, `.record(`) or resolver shape
        // (`metric_id(` — a free function, so NOT preceded by `.`, which
        // also keeps `fn metric_id(` definitions out via OBS_INFRA_FILES
        // and the literal requirement below).
        let is_method = i >= 1 && lexed.is_punct(i - 1, '.');
        let Some(shape) = name_use(name, is_method) else {
            continue;
        };
        let Some(close) = matching(lexed, i + 1, '(', ')') else {
            continue;
        };
        if in_test(t.line) {
            continue;
        }
        if let NameUse::Record = shape {
            let recorded = first_ident_arg(lexed, i + 1, close).and_then(|id| consts.get(id));
            if let Some(metric) = recorded {
                usage.metrics.insert(metric.clone());
            }
            continue;
        }
        let Some(lit) = lexed.toks[i + 2..close].iter().find_map(|t| match &t.kind {
            TokKind::Str(s) => Some(s.clone()),
            _ => None,
        }) else {
            continue;
        };
        let stripped = strip_node_prefix(&lit).to_string();
        let (registered, what) = match shape {
            NameUse::Metric(sink) => {
                usage.metrics.insert(stripped.clone());
                (catalog.has_metric(&stripped, sink), sink.name())
            }
            NameUse::Intern => (catalog.has_name(&stripped), "metric_id"),
            NameUse::Stage => {
                usage.stages.insert(lit.clone());
                if !catalog.has_stage(&lit) {
                    cands.push(Candidate {
                        rule: "stage-name",
                        line: t.line,
                        message: format!("trace stage `{lit}` is not registered in the catalog"),
                        suggestion: "add it to STAGES in crates/sim/src/catalog.rs (sorted) with \
                                     its emitting layer"
                            .to_string(),
                    });
                }
                continue;
            }
            NameUse::Record => continue,
        };
        if !registered {
            cands.push(Candidate {
                rule: "metric-name",
                line: t.line,
                message: format!("metric name `{lit}` ({what}) is not registered in the catalog"),
                suggestion: "add it to METRICS in crates/sim/src/catalog.rs (sorted) with its \
                             sinks and a help string"
                    .to_string(),
            });
        }
    }
}

/// `no-unwrap`: `.unwrap()`, `.expect(...)`, `panic!` in library code.
fn no_unwrap(lexed: &Lexed, cands: &mut Vec<Candidate>) {
    for (i, t) in lexed.toks.iter().enumerate() {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        let hit = match name.as_str() {
            "unwrap" | "expect" => {
                i >= 1 && lexed.is_punct(i - 1, '.') && lexed.is_punct(i + 1, '(')
            }
            "panic" => lexed.is_punct(i + 1, '!'),
            _ => false,
        };
        if hit {
            let shown = if name == "panic" {
                "panic!".to_string()
            } else {
                format!(".{name}()")
            };
            cands.push(Candidate {
                rule: "no-unwrap",
                line: t.line,
                message: format!("`{shown}` in non-test library code"),
                suggestion: "return a typed error (ClicError/TraceError) or, for a proven \
                             invariant, annotate with lint:allow(no-unwrap, reason=\"...\")"
                    .to_string(),
            });
        }
    }
}

/// `crate-header`: required inner attributes on a crate root.
fn crate_header(lexed: &Lexed, cands: &mut Vec<Candidate>) {
    let (mut docs_ok, mut unsafe_ok) = (false, false);
    let toks = &lexed.toks;
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if lexed.is_punct(i, '#') && lexed.is_punct(i + 1, '!') && lexed.is_punct(i + 2, '[') {
            if let Some(close) = matching(lexed, i + 2, '[', ']') {
                let idents: Vec<&str> = toks[i + 3..close]
                    .iter()
                    .filter_map(|t| match &t.kind {
                        TokKind::Ident(s) => Some(s.as_str()),
                        _ => None,
                    })
                    .collect();
                if let Some(first) = idents.first() {
                    if (*first == "deny" || *first == "forbid") && idents.contains(&"missing_docs")
                    {
                        docs_ok = true;
                    }
                    if *first == "forbid" && idents.contains(&"unsafe_code") {
                        unsafe_ok = true;
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    let line = toks.first().map_or(1, |t| t.line);
    if !docs_ok {
        cands.push(Candidate {
            rule: "crate-header",
            line,
            message: "crate root lacks `#![deny(missing_docs)]`".to_string(),
            suggestion: "every public item in this workspace is documented; deny keeps it that way"
                .to_string(),
        });
    }
    if !unsafe_ok {
        cands.push(Candidate {
            rule: "crate-header",
            line,
            message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
            suggestion: "the workspace is a simulation; nothing here needs unsafe".to_string(),
        });
    }
}

/// `paths-only-deps`: every dependency in every manifest must be a
/// path/workspace dependency.
pub fn check_manifest(m: &Manifest) -> Vec<Diag> {
    let mut diags = Vec::new();
    let mut section = String::new();
    // `[dependencies.foo]` sub-table support: (dep name, header line, ok).
    let mut pending: Option<(String, u32, bool)> = None;

    let flush = |pending: &mut Option<(String, u32, bool)>, diags: &mut Vec<Diag>| {
        if let Some((dep, line, ok)) = pending.take() {
            if !ok {
                diags.push(non_path_diag(&m.rel, line, &dep));
            }
        }
    };

    for (idx, raw) in m.text.lines().enumerate() {
        let line_no = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        let line = strip_toml_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush(&mut pending, &mut diags);
            section = line.trim_matches(['[', ']']).trim().to_string();
            if let Some(dep) = dep_subtable(&section) {
                pending = Some((dep.to_string(), line_no, false));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if let Some(p) = pending.as_mut() {
            if key == "path" || (key == "workspace" && value.starts_with("true")) {
                p.2 = true;
            }
            continue;
        }
        if !is_dep_section(&section) {
            continue;
        }
        let ok = key.ends_with(".workspace")
            || has_toml_key(value, "path")
            || (has_toml_key(value, "workspace") && value.contains("true"));
        if !ok {
            diags.push(non_path_diag(&m.rel, line_no, key));
        }
    }
    flush(&mut pending, &mut diags);
    diags
}

fn non_path_diag(file: &str, line: u32, dep: &str) -> Diag {
    Diag::site(
        "paths-only-deps",
        file,
        line,
        format!("dependency `{dep}` is not a path/workspace dependency"),
        "the workspace builds offline: route external deps through a crates/shim-* stand-in \
         and [workspace.dependencies]",
    )
}

fn is_dep_section(section: &str) -> bool {
    section == "dependencies"
        || section == "dev-dependencies"
        || section == "build-dependencies"
        || section == "workspace.dependencies"
        || section.ends_with(".dependencies")
}

/// `dependencies.foo` / `dev-dependencies.foo` / `target.X.dependencies.foo`
/// sub-table headers: returns the dep name.
fn dep_subtable(section: &str) -> Option<&str> {
    for marker in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
        if let Some(pos) = section.find(marker) {
            let rest = &section[pos + marker.len()..];
            if !rest.is_empty() && !rest.contains('.') && !rest.contains("dependencies") {
                // Exclude `workspace.dependencies` (not a sub-table).
                if pos == 0 || section[..pos].ends_with('.') {
                    let prefix = &section[..pos];
                    if prefix != "workspace." {
                        return Some(rest);
                    }
                }
            }
        }
    }
    None
}

/// `key = ...` present in a TOML inline table string.
fn has_toml_key(value: &str, key: &str) -> bool {
    let mut rest = value;
    while let Some(pos) = rest.find(key) {
        let before_ok = pos == 0 || matches!(rest.as_bytes()[pos - 1], b'{' | b',' | b' ' | b'\t');
        let after = rest[pos + key.len()..].trim_start();
        if before_ok && after.starts_with('=') {
            return true;
        }
        rest = &rest[pos + key.len()..];
    }
    false
}

/// Drop a `#` comment that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}
