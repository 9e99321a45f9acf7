//! Call-graph rule families: determinism taint, panic reachability,
//! catalog liveness and dead functions.
//!
//! These rules answer questions a per-site lexical lint cannot: not "does
//! this line read the wall clock" but "can a simulation entry point
//! *reach* code that does". They run over the [`crate::graph`] call graph
//! and report each finding with the full root→sink call chain, so a
//! violation is actionable without re-running the analysis.
//!
//! * `determinism-taint` — a public item of a simulation crate reaches a
//!   taint source (wall clock, host RNG, `RandomState`, thread identity,
//!   environment read) in a crate the per-site determinism rules do not
//!   cover. Inside `SIM_CRATES` the sources are already per-site
//!   violations; this rule closes the cross-crate gap.
//! * `panic-reach` — a public API of the `no-unwrap` crates
//!   (core/ethernet/sim) transitively reaches an `unwrap`/`expect`/
//!   `panic!`/`unreachable!` site in a crate the per-site `no-unwrap`
//!   rule does not cover. Slice-indexing sites are an opt-in sink class
//!   ([`FlowPolicy::check_index`]), off by default: rustc-checked index
//!   discipline plus the golden tests make blanket indexing reports more
//!   noise than signal, but the machinery is exercised in tests and can
//!   be turned on for an audit pass.
//! * `unreachable-name` — a catalog name whose recording sites all sit in
//!   code unreachable from the job entry points (`entry_roots`).
//!   Distinct from `dead-name`: the recorder *exists* but nothing can
//!   ever run it.
//! * `dead-fn` — a fn of a simulation crate that no entry point reaches,
//!   named with its nearest test caller. Trait-impl methods are exempt
//!   (the graph cannot see every dynamic dispatch), and so is test code.

use crate::catalog::{strip_node_prefix, Catalog};
use crate::graph::{path_to, reach, Graph};
use crate::rules::{name_use, policy, NameUse, NO_UNWRAP_CRATES, OBS_INFRA_FILES, SIM_CRATES};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Options for the graph rule pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlowPolicy {
    /// Count slice/array indexing sites as `panic-reach` sinks. Off in the
    /// workspace gate (see module docs); exercised by tests.
    pub check_index: bool,
}

/// One graph-rule finding, not yet filtered against `lint:allow`
/// annotations (that happens centrally in [`crate::rules`], so an
/// annotation in the anchoring file can suppress it).
#[derive(Debug)]
pub struct Finding {
    /// Rule identifier.
    pub rule: &'static str,
    /// Workspace-relative file the finding anchors to.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
    /// Root→sink call chain.
    pub path: Vec<String>,
}

/// Crates whose panic sites are never `panic-reach` sinks: the shims
/// deliberately mirror the panic behaviour of the upstream crates they
/// stand in for (`Bytes::slice` panics out of range exactly like the real
/// `bytes`), and the analyzer is a host tool outside the simulation.
const PANIC_EXEMPT_CRATES: &[&str] = &["shim-bytes", "shim-criterion", "shim-proptest", "analyze"];

/// Crates whose public items are job entry points.
const ENTRY_CRATES: &[&str] = &["bench", "cluster"];

/// Crates all of whose items are entry points: the repository benchmark.
const ENTRY_WHOLE_CRATES: &[&str] = &["benchmark"];

/// Run every graph rule; findings are sorted by (file, line, rule).
pub fn run(g: &Graph, catalog: &Catalog, pol: &FlowPolicy) -> Vec<Finding> {
    let mut out = Vec::new();
    determinism_taint(g, &mut out);
    panic_reach(g, *pol, &mut out);
    let live = reach(g, &entry_roots(g));
    unreachable_names(g, catalog, &live, &mut out);
    dead_fns(g, &live, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// The job entry points of `unreachable-name` and `dead-fn`: every
/// `fn main`, the public items of `clic-cluster` and `clic-bench`, every
/// item of `crates/benchmark`, and every item of an example or bench
/// source ([`Graph::entries`]).
fn entry_roots(g: &Graph) -> Vec<usize> {
    let mut roots: Vec<usize> = g
        .items
        .iter()
        .enumerate()
        .filter(|(_, it)| {
            let krate = it.crate_name.as_str();
            !it.is_test
                && (it.name == "main"
                    || ENTRY_WHOLE_CRATES.contains(&krate)
                    || (it.is_pub && ENTRY_CRATES.contains(&krate)))
        })
        .map(|(id, _)| id)
        .collect();
    roots.extend(&g.entries);
    roots
}

/// Non-test items that are unrestricted-`pub` in one of `crates`.
fn pub_roots(g: &Graph, crates: &[&str]) -> Vec<usize> {
    g.items
        .iter()
        .enumerate()
        .filter(|(_, it)| !it.is_test && it.is_pub && crates.contains(&it.crate_name.as_str()))
        .map(|(id, _)| id)
        .collect()
}

/// `determinism-taint`: simulation public API → taint source outside the
/// per-site determinism perimeter.
fn determinism_taint(g: &Graph, out: &mut Vec<Finding>) {
    let roots = pub_roots(g, SIM_CRATES);
    let parent = reach(g, &roots);
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for (id, it) in g.items.iter().enumerate() {
        if it.is_test || parent[id].is_none() || policy(&it.crate_name).determinism {
            continue;
        }
        for s in &it.sources {
            if !seen.insert((it.file.clone(), s.line, s.what.clone())) {
                continue;
            }
            let path = path_to(g, &parent, id);
            out.push(Finding {
                rule: "determinism-taint",
                file: it.file.clone(),
                line: s.line,
                message: format!(
                    "`{}` ({}) is reachable from simulation API `{}`",
                    s.what,
                    s.kind.label(),
                    path.first().map_or("?", String::as_str)
                ),
                suggestion: "break the call path or inject the value through Sim/config; \
                             audited escape: lint:allow(determinism-taint, reason=\"...\")"
                    .to_string(),
                path,
            });
        }
    }
}

/// `panic-reach`: core/ethernet/sim public API → panic site outside the
/// per-site `no-unwrap` perimeter.
fn panic_reach(g: &Graph, pol: FlowPolicy, out: &mut Vec<Finding>) {
    let roots = pub_roots(g, NO_UNWRAP_CRATES);
    let parent = reach(g, &roots);
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for (id, it) in g.items.iter().enumerate() {
        if it.is_test
            || parent[id].is_none()
            || policy(&it.crate_name).no_unwrap
            || PANIC_EXEMPT_CRATES.contains(&it.crate_name.as_str())
        {
            continue;
        }
        for p in &it.panics {
            if p.is_index && !pol.check_index {
                continue;
            }
            if !seen.insert((it.file.clone(), p.line, p.what.clone())) {
                continue;
            }
            let path = path_to(g, &parent, id);
            out.push(Finding {
                rule: "panic-reach",
                file: it.file.clone(),
                line: p.line,
                message: format!(
                    "`{}` is reachable from public API `{}`",
                    p.what,
                    path.first().map_or("?", String::as_str)
                ),
                suggestion: "return a typed error along the chain or prove the invariant and \
                             annotate with lint:allow(panic-reach, reason=\"...\")"
                    .to_string(),
                path,
            });
        }
    }
}

/// `unreachable-name`: catalog entries whose recording sites all sit in
/// code no job entry point can reach (`parent` is [`reach`] from
/// `entry_roots`).
fn unreachable_names(
    g: &Graph,
    catalog: &Catalog,
    parent: &[Option<usize>],
    out: &mut Vec<Finding>,
) {
    // Metric name → recording item ids; stage name → recording item ids.
    // A `const ID: MetricId = metric_id(..)` interns but records nothing.
    let mut metric_rec: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut stage_rec: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (id, it) in g.items.iter().enumerate() {
        if it.is_test || it.is_data || OBS_INFRA_FILES.contains(&it.file.as_str()) {
            continue;
        }
        let consts = g.metric_consts.get(&it.file);
        for c in &it.calls {
            match name_use(&c.name, c.method) {
                // `sim.record(ID, v)` records the entry `ID` was interned from.
                Some(NameUse::Record) => {
                    let name = c.first_ident.as_ref().and_then(|ident| consts?.get(ident));
                    if let Some(name) = name {
                        metric_rec.entry(name.clone()).or_default().push(id);
                    }
                }
                Some(NameUse::Metric(_) | NameUse::Intern) => {
                    if let Some(lit) = &c.first_str {
                        let name = strip_node_prefix(lit).to_string();
                        metric_rec.entry(name).or_default().push(id);
                    }
                }
                Some(NameUse::Stage) => {
                    if let Some(lit) = &c.first_str {
                        stage_rec.entry(lit.clone()).or_default().push(id);
                    }
                }
                None => {}
            }
        }
    }

    let orphaned = |ids: &[usize]| ids.iter().all(|&id| parent[id].is_none());
    for e in &catalog.metrics {
        let Some(ids) = metric_rec.get(&e.name) else {
            continue; // never recorded at all: that is `dead-name`'s case
        };
        if orphaned(ids) {
            out.push(orphan_finding(
                g,
                e.line,
                format!(
                    "metric `{}` ({}) is recorded only by code unreachable from job entry points",
                    e.name,
                    e.sinks_label()
                ),
                ids,
            ));
        }
    }
    for e in &catalog.stages {
        let Some(ids) = stage_rec.get(&e.name) else {
            continue;
        };
        if orphaned(ids) {
            out.push(orphan_finding(
                g,
                e.line,
                format!(
                    "stage `{}` is emitted only by code unreachable from job entry points",
                    e.name
                ),
                ids,
            ));
        }
    }
}

/// Build an `unreachable-name` finding anchored at a catalog entry line;
/// the "path" lists the orphaned recording items.
fn orphan_finding(g: &Graph, line: u32, message: String, ids: &[usize]) -> Finding {
    let mut recorders: Vec<String> = ids.iter().map(|&id| g.items[id].qualified()).collect();
    recorders.sort();
    recorders.dedup();
    Finding {
        rule: "unreachable-name",
        file: "crates/sim/src/catalog.rs".to_string(),
        line,
        message,
        suggestion: "wire the recorder into a job/experiment (entry points: pub items of \
                     clic-cluster/clic-bench, crates/benchmark, examples, benches, fn main) \
                     or remove the catalog entry"
            .to_string(),
        path: recorders,
    }
}

/// `dead-fn`: non-test, non-trait-impl fns of the simulation crates that
/// no entry point reaches (`parent` is [`reach`] from `entry_roots`).
/// Each finding's path runs from the fn's nearest test caller to it.
fn dead_fns(g: &Graph, parent: &[Option<usize>], out: &mut Vec<Finding>) {
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); g.items.len()];
    for (u, vs) in g.edges.iter().enumerate() {
        for &v in vs {
            callers[v].push(u);
        }
    }
    for (id, it) in g.items.iter().enumerate() {
        if it.is_test
            || it.is_data
            || it.trait_method
            || parent[id].is_some()
            || !SIM_CRATES.contains(&it.crate_name.as_str())
        {
            continue;
        }
        let path = test_chain(g, &callers, id);
        let caller = &g.items[path[0]];
        let message = if caller.is_test {
            format!(
                "`{}` is reached by no entry point; nearest test caller `{}` ({}:{})",
                it.qualified(),
                caller.qualified(),
                caller.file,
                caller.line
            )
        } else {
            format!(
                "`{}` is reached by no entry point and by no test",
                it.qualified()
            )
        };
        out.push(Finding {
            rule: "dead-fn",
            file: it.file.clone(),
            line: it.line,
            message,
            suggestion: "delete it with the tests that only exercise it, or wire it into a \
                         workload; an observer only its crate's unit tests read goes under \
                         #[cfg(test)], one an integration test or bench reads takes \
                         lint:allow(dead-fn, reason=\"<that reader>\")"
                .to_string(),
            path: path.iter().map(|&i| g.items[i].qualified()).collect(),
        });
    }
}

/// The shortest caller chain from a test item to `id`, test first, over
/// the reversed edges `callers`; just `[id]` when no test reaches it.
fn test_chain(g: &Graph, callers: &[Vec<usize>], id: usize) -> Vec<usize> {
    let mut toward: Vec<Option<usize>> = vec![None; g.items.len()];
    toward[id] = Some(id);
    let mut queue = VecDeque::from([id]);
    while let Some(v) = queue.pop_front() {
        if g.items[v].is_test {
            let mut chain = vec![v];
            let mut cur = v;
            while let Some(next) = toward[cur].filter(|&n| n != cur) {
                chain.push(next);
                cur = next;
            }
            return chain;
        }
        for &u in &callers[v] {
            if toward[u].is_none() {
                toward[u] = Some(v);
                queue.push_back(u);
            }
        }
    }
    vec![id]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::parse as parse_catalog;
    use crate::graph::build;
    use crate::workspace::{Manifest, SourceFile, Workspace};

    fn ws(files: Vec<(&str, &str, &str)>) -> Workspace {
        Workspace {
            root: std::path::PathBuf::new(),
            files: files
                .into_iter()
                .map(|(rel, krate, text)| SourceFile {
                    rel: rel.to_string(),
                    crate_name: krate.to_string(),
                    is_lib_root: false,
                    is_test_source: false,
                    text: text.to_string(),
                })
                .collect(),
            graph_only: Vec::new(),
            manifests: vec![Manifest {
                rel: "Cargo.toml".to_string(),
                text: "[workspace.dependencies]\n".to_string(),
            }],
        }
    }

    #[test]
    fn taint_crosses_the_crate_boundary_with_a_path() {
        let g = build(&ws(vec![
            (
                "crates/sim/src/engine.rs",
                "sim",
                "pub fn arm_timeout(sim: &mut Sim) { host_elapsed_ms(); }\n",
            ),
            (
                "crates/shim-bytes/src/lib.rs",
                "shim-bytes",
                "pub fn host_elapsed_ms() -> u64 { std::time::Instant::now(); 0 }\n",
            ),
        ]));
        let f = run(&g, &Catalog::default(), &FlowPolicy::default());
        let taint: Vec<_> = f.iter().filter(|x| x.rule == "determinism-taint").collect();
        assert_eq!(taint.len(), 1, "{f:?}");
        assert_eq!(taint[0].file, "crates/shim-bytes/src/lib.rs");
        assert_eq!(
            taint[0].path,
            vec!["sim::arm_timeout", "shim-bytes::host_elapsed_ms"]
        );
        assert!(taint[0].message.contains("wall-clock"));
    }

    #[test]
    fn panic_reach_reports_the_chain_and_respects_the_index_gate() {
        let files = vec![
            (
                "crates/core/src/proto.rs",
                "core",
                "pub fn post(k: &Kernel) { k.deliver(1); }\n",
            ),
            (
                "crates/os/src/kernel.rs",
                "os",
                "impl Kernel { pub fn deliver(&self, pid: u32) { \
                 self.slots.get(pid).expect(\"bound\"); self.table[pid as usize]; } }\n",
            ),
        ];
        let g = build(&ws(files));
        let quiet = run(&g, &Catalog::default(), &FlowPolicy::default());
        let hits: Vec<_> = quiet.iter().filter(|x| x.rule == "panic-reach").collect();
        assert_eq!(hits.len(), 1, "{quiet:?}");
        assert!(hits[0].message.contains(".expect()"));
        assert_eq!(hits[0].path[0], "core::post");
        assert_eq!(*hits[0].path.last().unwrap(), "os::Kernel::deliver");

        let loud = run(&g, &Catalog::default(), &FlowPolicy { check_index: true });
        assert_eq!(
            loud.iter().filter(|x| x.rule == "panic-reach").count(),
            2,
            "indexing sink appears under check_index"
        );
    }

    #[test]
    fn unreachable_recorder_is_flagged_reachable_one_is_not() {
        let catalog = parse_catalog(
            "pub const METRICS: &[M] = &[\n\
             M { name: \"clic.live\", sinks: &[C], help: \"\" },\n\
             M { name: \"clic.orphan\", sinks: &[C], help: \"\" },\n\
             ];\n\
             pub const STAGES: &[S] = &[];\n",
        )
        .unwrap();
        let g = build(&ws(vec![
            (
                "crates/cluster/src/jobs.rs",
                "cluster",
                "pub fn run_job(m: &Metrics) { record_live(m); }\n",
            ),
            (
                "crates/hw/src/nic.rs",
                "hw",
                "pub fn record_live(m: &mut Metrics) { m.counter_add(\"clic.live\", 1); }\n\
                 fn record_orphan(m: &mut Metrics) { m.counter_add(\"clic.orphan\", 1); }\n",
            ),
        ]));
        let f = run(&g, &catalog, &FlowPolicy::default());
        let un: Vec<_> = f.iter().filter(|x| x.rule == "unreachable-name").collect();
        assert_eq!(un.len(), 1, "{f:?}");
        assert!(un[0].message.contains("clic.orphan"));
        assert_eq!(un[0].file, "crates/sim/src/catalog.rs");
        assert_eq!(un[0].path, vec!["hw::record_orphan"]);
    }
}
