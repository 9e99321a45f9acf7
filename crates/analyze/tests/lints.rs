//! Fixture-driven rule tests plus the workspace self-check.
//!
//! Each fixture under `tests/fixtures/` is fed through
//! [`clic_analyze::rules::check_file`] with a synthetic in-scope path, and
//! the test asserts exactly which rules fire. The final test runs the full
//! analyzer over this workspace and requires it to be clean, so `cargo
//! test -q` fails the moment a violation lands on the main branch.

use clic_analyze::catalog::{parse as parse_catalog, Catalog};
use clic_analyze::diag::render_json_diag;
use clic_analyze::rules::{
    analyze, analyze_workspace, check_dead_names, check_file, check_manifest, Usage, RULES,
};
use clic_analyze::workspace::{find_root, Manifest, SourceFile, Workspace};
use std::collections::BTreeSet;
use std::path::Path;
use std::path::PathBuf;

/// A miniature catalog: one registered counter, one registered stage.
const CATALOG_SRC: &str = r#"
pub const METRICS: &[MetricDef] = &[
    MetricDef { name: "clic.msgs_sent", sinks: &[C], help: "sent" },
];
pub const STAGES: &[StageDef] = &[
    StageDef { name: "driver_tx", layers: &[Layer::Clic], help: "tx" },
];
"#;

fn catalog() -> Catalog {
    parse_catalog(CATALOG_SRC).expect("fixture catalog parses")
}

/// Run `check_file` on a fixture as if it lived inside the `sim` crate.
fn run(rel_name: &str, text: &str, is_lib_root: bool) -> Vec<clic_analyze::Diag> {
    let f = SourceFile {
        rel: format!("crates/sim/src/{rel_name}"),
        crate_name: "sim".to_string(),
        is_lib_root,
        is_test_source: false,
        text: text.to_string(),
    };
    let mut usage = Usage::default();
    check_file(&f, &catalog(), &mut usage)
}

fn rules_fired(diags: &[clic_analyze::Diag]) -> BTreeSet<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn determinism_fixture_fires_all_three_rules() {
    let diags = run(
        "determinism.rs",
        include_str!("fixtures/determinism.rs"),
        false,
    );
    let fired = rules_fired(&diags);
    assert!(fired.contains("wall-clock"), "{diags:?}");
    assert!(fired.contains("ad-hoc-rng"), "{diags:?}");
    assert!(fired.contains("unordered-collection"), "{diags:?}");
    // Both clock types, both RNG forms, both collections.
    assert!(diags.iter().filter(|d| d.rule == "wall-clock").count() >= 2);
    assert!(diags.iter().filter(|d| d.rule == "ad-hoc-rng").count() >= 2);
    assert!(
        diags
            .iter()
            .filter(|d| d.rule == "unordered-collection")
            .count()
            >= 2
    );
}

#[test]
fn name_fixture_flags_only_unregistered_names() {
    let diags = run("names.rs", include_str!("fixtures/names.rs"), false);
    let metric: Vec<_> = diags.iter().filter(|d| d.rule == "metric-name").collect();
    let stage: Vec<_> = diags.iter().filter(|d| d.rule == "stage-name").collect();
    assert_eq!(metric.len(), 3, "{diags:?}");
    assert!(metric.iter().any(|d| d.message.contains("not.registered")));
    assert!(metric
        .iter()
        .any(|d| d.message.contains("interned.not.registered")));
    assert_eq!(stage.len(), 1, "{diags:?}");
    assert!(stage.iter().any(|d| d.message.contains("bogus_stage")));
    // Registered names pass (string and interned-resolver shapes).
    assert!(!diags.iter().any(|d| d.message.contains("clic.msgs_sent")));
    assert!(!diags.iter().any(|d| d.message.contains("driver_tx")));
}

#[test]
fn record_fixture_keeps_recorded_entries_live() {
    // One catalog entry recorded only through `sim.record(ID, v)`, one
    // interned but never recorded: the first is live, the second dead.
    let catalog = parse_catalog(
        r#"
pub const METRICS: &[MetricDef] = &[
    MetricDef { name: "a.dead", sinks: &[C], help: "interned only" },
    MetricDef { name: "a.live", sinks: &[G, H, TL], help: "recorded" },
];
pub const STAGES: &[StageDef] = &[];
"#,
    )
    .expect("fixture catalog parses");
    let f = SourceFile {
        rel: "crates/ethernet/src/record_fix.rs".to_string(),
        crate_name: "ethernet".to_string(),
        is_lib_root: false,
        is_test_source: false,
        text: include_str!("fixtures/record.rs").to_string(),
    };
    let mut usage = Usage::default();
    let site = check_file(&f, &catalog, &mut usage);
    assert!(site.is_empty(), "{site:?}");
    assert!(usage.metrics.contains("a.live"), "{usage:?}");
    let dead = check_dead_names(&catalog, &usage);
    assert_eq!(dead.len(), 1, "{dead:?}");
    assert_eq!(dead[0].rule, "dead-name");
    assert!(dead[0].message.contains("`a.dead`"), "{dead:?}");
    assert_eq!(dead[0].line, 3);
}

#[test]
fn hygiene_fixture_flags_library_code_not_tests() {
    let diags = run("hygiene.rs", include_str!("fixtures/hygiene.rs"), false);
    let unwraps: Vec<_> = diags.iter().filter(|d| d.rule == "no-unwrap").collect();
    // unwrap + expect + panic! in `bad`; the unwrap inside #[cfg(test)]
    // is exempt.
    assert_eq!(unwraps.len(), 3, "{diags:?}");
    assert!(unwraps.iter().all(|d| d.line < 11), "{unwraps:?}");
}

#[test]
fn allow_fixture_suppresses_audits_and_flags_stale_ones() {
    let diags = run("allows.rs", include_str!("fixtures/allows.rs"), false);
    let fired = rules_fired(&diags);
    // Both HashMap sites carry audited annotations.
    assert!(!fired.contains("unordered-collection"), "{diags:?}");
    // The wall-clock annotation suppresses nothing.
    assert!(fired.contains("unused-allow"), "{diags:?}");
    // The reason-less annotation is malformed.
    assert!(fired.contains("malformed-allow"), "{diags:?}");
}

#[test]
fn missing_headers_fire_on_lib_roots_only() {
    let text = include_str!("fixtures/bad_lib.rs");
    let as_root = run("lib.rs", text, true);
    assert_eq!(
        as_root.iter().filter(|d| d.rule == "crate-header").count(),
        2,
        "{as_root:?}"
    );
    let as_module = run("bad_lib.rs", text, false);
    assert!(!rules_fired(&as_module).contains("crate-header"));
}

#[test]
fn registry_dependencies_are_rejected() {
    let m = Manifest {
        rel: "crates/x/Cargo.toml".to_string(),
        text: "[package]\nname = \"x\"\n\n[dependencies]\n\
               good = { path = \"../good\" }\n\
               ws.workspace = true\n\
               bad = \"1.0\"\n\
               also-bad = { version = \"0.3\", features = [\"std\"] }\n\n\
               [dependencies.sub]\nversion = \"2\"\n"
            .to_string(),
    };
    let diags = check_manifest(&m);
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "paths-only-deps"));
    assert!(diags.iter().any(|d| d.message.contains("`bad`")));
    assert!(diags.iter().any(|d| d.message.contains("`also-bad`")));
    assert!(diags.iter().any(|d| d.message.contains("`sub`")));
}

#[test]
fn fixture_suite_exercises_at_least_six_rules() {
    let mut fired: BTreeSet<&'static str> = BTreeSet::new();
    for (name, text) in [
        ("determinism.rs", include_str!("fixtures/determinism.rs")),
        ("names.rs", include_str!("fixtures/names.rs")),
        ("hygiene.rs", include_str!("fixtures/hygiene.rs")),
        ("allows.rs", include_str!("fixtures/allows.rs")),
    ] {
        fired.extend(rules_fired(&run(name, text, false)));
    }
    fired.extend(rules_fired(&run(
        "lib.rs",
        include_str!("fixtures/bad_lib.rs"),
        true,
    )));
    let m = Manifest {
        rel: "crates/x/Cargo.toml".to_string(),
        text: "[dependencies]\nbad = \"1.0\"\n".to_string(),
    };
    fired.extend(check_manifest(&m).iter().map(|d| d.rule));
    assert!(
        fired.len() >= 6,
        "expected >= 6 distinct rules across fixtures, got {fired:?}"
    );
    for rule in &fired {
        assert!(
            RULES.iter().any(|(r, _)| r == rule),
            "fixture fired unknown rule {rule}"
        );
    }
}

/// A fixture file read as crate `krate`'s model source at `rel`.
fn model_source(rel: &str, krate: &str, text: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_string(),
        crate_name: krate.to_string(),
        is_lib_root: false,
        is_test_source: false,
        text: text.to_string(),
    }
}

/// A synthetic workspace wiring the graph fixtures into a miniature CLIC:
/// `sim` public APIs call into a wall-clock shim and a panicking `hw`
/// helper, `hw` also holds an orphaned metric recorder, and `bench` is the
/// only job entry point. Every call-graph rule family must fire on it.
fn graph_workspace() -> Workspace {
    let files = [
        ("crates/sim/src/catalog.rs", "sim", CATALOG_SRC),
        (
            "crates/sim/src/api_fix.rs",
            "sim",
            include_str!("fixtures/graph/sim_api.rs"),
        ),
        (
            "crates/shim-clock/src/lib.rs",
            "shim-clock",
            include_str!("fixtures/graph/shim_clock.rs"),
        ),
        (
            "crates/hw/src/sink_fix.rs",
            "hw",
            include_str!("fixtures/graph/hw_sink.rs"),
        ),
        (
            "crates/bench/src/entry_fix.rs",
            "bench",
            include_str!("fixtures/graph/bench_entry.rs"),
        ),
    ];
    Workspace {
        root: PathBuf::new(),
        files: files
            .into_iter()
            .map(|(rel, krate, text)| model_source(rel, krate, text))
            .collect(),
        graph_only: Vec::new(),
        manifests: vec![Manifest {
            rel: "Cargo.toml".to_string(),
            text: "[workspace.dependencies]\n".to_string(),
        }],
    }
}

fn graph_diag(rule: &str) -> clic_analyze::Diag {
    let report = analyze_workspace(&graph_workspace());
    report
        .diags
        .iter()
        .find(|d| d.rule == rule)
        .unwrap_or_else(|| panic!("no {rule} diagnostic in {:?}", report.diags))
        .clone()
}

#[test]
fn taint_fixture_fails_the_analyzer_with_a_cross_crate_path() {
    let d = graph_diag("determinism-taint");
    assert_eq!(d.file, "crates/shim-clock/src/lib.rs");
    assert_eq!(d.line, 4);
    assert_eq!(d.path, vec!["sim::drive_tick", "shim-clock::host_stamp"]);
    assert!(d.message.contains("`Instant`"), "{d:?}");
}

#[test]
fn overflow_fixture_fails_the_analyzer() {
    let d = graph_diag("time-overflow");
    assert_eq!(d.file, "crates/sim/src/api_fix.rs");
    assert_eq!(d.line, 13);
    assert!(d.message.contains("unchecked `+`"), "{d:?}");
}

#[test]
fn panic_reach_fixture_fails_the_analyzer_with_the_chain() {
    let d = graph_diag("panic-reach");
    assert_eq!(d.file, "crates/hw/src/sink_fix.rs");
    assert_eq!(d.line, 4);
    assert_eq!(d.path, vec!["sim::kick_tx", "hw::slot_lookup"]);
    assert!(d.message.contains("`.unwrap()`"), "{d:?}");
}

#[test]
fn liveness_fixture_fails_the_analyzer_at_the_catalog_entry() {
    let d = graph_diag("unreachable-name");
    assert_eq!(d.file, "crates/sim/src/catalog.rs");
    assert_eq!(d.line, 3);
    assert_eq!(d.path, vec!["hw::orphan_probe"]);
    assert!(d.message.contains("clic.msgs_sent"), "{d:?}");
}

/// The `dead-fn` workspace: a `hw` model file holding one fn of each
/// reachability shape, the `clic-cluster` job entry point, and (when
/// `with_example`) an example, which the analyzer reads as a graph-only
/// entry source.
fn dead_fn_workspace(with_example: bool) -> Workspace {
    let graph_only = if with_example {
        vec![model_source(
            "examples/meter.rs",
            "clic",
            include_str!("fixtures/graph/example_main.rs"),
        )]
    } else {
        Vec::new()
    };
    Workspace {
        root: PathBuf::new(),
        files: vec![
            model_source("crates/sim/src/catalog.rs", "sim", CATALOG_SRC),
            model_source(
                "crates/hw/src/dead_fix.rs",
                "hw",
                include_str!("fixtures/graph/hw_dead.rs"),
            ),
            model_source(
                "crates/cluster/src/entry_fix.rs",
                "cluster",
                include_str!("fixtures/graph/cluster_entry.rs"),
            ),
        ],
        graph_only,
        // The root package (the examples' crate) links the model crates.
        manifests: vec![Manifest {
            rel: "Cargo.toml".to_string(),
            text: "[workspace.dependencies]\nclic-hw = { path = \"crates/hw\" }\n\n\
                   [dependencies]\nclic-hw.workspace = true\n"
                .to_string(),
        }],
    }
}

fn dead_fn_diags(ws: &Workspace) -> Vec<clic_analyze::Diag> {
    analyze_workspace(ws)
        .diags
        .into_iter()
        .filter(|d| d.rule == "dead-fn")
        .collect()
}

#[test]
fn dead_fn_fixture_reports_only_the_fn_a_test_alone_reaches() {
    // Live, `Type::f`-passed, table-named, trait-impl, example-reached and
    // test code are all quiet; `Meter::peek` is reported with its caller.
    let diags = dead_fn_diags(&dead_fn_workspace(true));
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!((d.file.as_str(), d.line), ("crates/hw/src/dead_fix.rs", 20));
    assert_eq!(d.path, vec!["hw::peeks", "hw::Meter::peek"]);
    assert!(
        d.message.contains(
            "`hw::Meter::peek` is reached by no entry point; nearest test caller \
             `hw::peeks` (crates/hw/src/dead_fix.rs:52)"
        ),
        "{d:?}"
    );
}

#[test]
fn dead_fn_fixture_without_its_example_reports_what_only_the_example_ran() {
    let diags = dead_fn_diags(&dead_fn_workspace(false));
    let fns: Vec<&str> = diags
        .iter()
        .map(|d| d.path.last().unwrap().as_str())
        .collect();
    assert_eq!(
        fns,
        vec!["hw::Meter::reset", "hw::Meter::peek"],
        "{diags:?}"
    );
    assert_eq!(diags[0].path, vec!["hw::Meter::reset"]);
    assert!(diags[0].message.ends_with("and by no test"), "{diags:?}");
}

#[test]
fn dead_fn_follows_turbofish_calls() {
    // `f::<T>(…)`, `x.f::<N>(…)` and `Type::f::<A<B>>(…)` are call edges,
    // so the fns only they reach are live.
    let ws = Workspace {
        root: PathBuf::new(),
        files: vec![
            model_source("crates/sim/src/catalog.rs", "sim", CATALOG_SRC),
            model_source(
                "crates/hw/src/turbofish_fix.rs",
                "hw",
                include_str!("fixtures/graph/hw_turbofish.rs"),
            ),
            model_source(
                "crates/cluster/src/turbofish_entry.rs",
                "cluster",
                include_str!("fixtures/graph/turbofish_entry.rs"),
            ),
        ],
        graph_only: Vec::new(),
        manifests: Vec::new(),
    };
    let diags = dead_fn_diags(&ws);
    assert!(diags.is_empty(), "{diags:?}");
}

/// Golden JSON for one diagnostic per call-graph family: the schema
/// (`rule`, `file`, `line`, `message`, `path`, `suggestion`) must stay
/// identical across families, with `path` populated root-first.
#[test]
fn json_schema_is_identical_across_rule_families() {
    let report = analyze_workspace(&graph_workspace());
    let families = [
        "determinism-taint",
        "time-overflow",
        "panic-reach",
        "unreachable-name",
        "dead-fn",
    ];
    for rule in families {
        let d = report
            .diags
            .iter()
            .find(|d| d.rule == rule)
            .unwrap_or_else(|| panic!("no {rule} diagnostic"));
        let json = render_json_diag(d);
        for key in [
            "\"rule\": ",
            "\"file\": ",
            "\"line\": ",
            "\"message\": ",
            "\"path\": [",
            "\"suggestion\": ",
        ] {
            assert!(json.contains(key), "{rule} JSON missing {key}: {json}");
        }
    }
    let taint = render_json_diag(
        report
            .diags
            .iter()
            .find(|d| d.rule == "determinism-taint")
            .unwrap(),
    );
    assert_eq!(
        taint,
        "{\"rule\": \"determinism-taint\", \"file\": \"crates/shim-clock/src/lib.rs\", \
         \"line\": 4, \"message\": \"`Instant` (wall-clock time) is reachable from \
         simulation API `sim::drive_tick`\", \
         \"path\": [\"sim::drive_tick\", \"shim-clock::host_stamp\"], \
         \"suggestion\": \"break the call path or inject the value through Sim/config; \
         audited escape: lint:allow(determinism-taint, reason=\\\"...\\\")\"}"
    );
}

#[test]
fn lexer_edge_cases_produce_no_diagnostics() {
    // Raw identifiers, `>>` closing nested generics, float exponents —
    // any lexing regression shows up as a spurious diagnostic (a split
    // `1e-9` puts a binary `-` next to `adj_ns`, which would fire
    // time-overflow).
    let diags = run(
        "lexer_edges.rs",
        include_str!("fixtures/lexer_edges.rs"),
        false,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn workspace_is_lint_clean() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root not found");
    let report = analyze(&root).expect("analysis runs");
    assert!(
        report.diags.is_empty(),
        "workspace has lint violations:\n{}",
        clic_analyze::diag::render_human(&report.diags, report.files_scanned)
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}
