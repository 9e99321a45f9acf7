//! The workspace call graph: conservative name+arity call resolution over
//! the items from [`crate::items`], filtered by the real crate-dependency
//! DAG, with BFS reachability (and paths) plus a DOT export layered by
//! crate.
//!
//! ## Resolution conservatism
//!
//! Without type information, a call site `x.ack(seq)` could target any
//! workspace method named `ack`; the resolver therefore adds an edge to
//! *every* candidate that matches by name — narrowed by arity when at
//! least one candidate's arity matches, by the `Type::` qualifier when one
//! is written, and always by the crate-dependency DAG (an item in
//! `clic-sim` cannot call into `clic-cluster`, because Cargo would not
//! link it). Over-approximation is the safe direction for every rule
//! built on this graph: reachability can only be reported too large,
//! never too small, so a "no path" verdict is trustworthy and a "path
//! exists" verdict names real code to audit.

use crate::items::{parse_items, Item};
use crate::lexer::lex;
use crate::rules;
use crate::workspace::{Manifest, Workspace};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Every function item, in deterministic (file, line) order.
    pub items: Vec<Item>,
    /// Adjacency: `edges[i]` lists the item ids `i` may call.
    pub edges: Vec<Vec<usize>>,
    /// Transitive crate-dependency closure: crate dir → crate dirs it may
    /// link against (itself excluded).
    pub crate_deps: BTreeMap<String, BTreeSet<String>>,
    /// Per file: `const` metric ids → the metric name each was interned
    /// from ([`rules::metric_consts`]).
    pub metric_consts: BTreeMap<String, BTreeMap<String, String>>,
}

/// Build the call graph for a discovered workspace.
///
/// Lexes every library source, parses items, resolves calls. `test_map`
/// supplies the per-file `#[cfg(test)]` line ranges (keyed by
/// workspace-relative path) so test items are flagged.
pub fn build(ws: &Workspace) -> Graph {
    let mut items: Vec<Item> = Vec::new();
    let mut metric_consts = BTreeMap::new();
    for f in &ws.files {
        let lexed = lex(&f.text);
        let tests = rules::test_regions(&lexed);
        items.extend(parse_items(&f.rel, &f.crate_name, &lexed, &tests));
        let consts = rules::metric_consts(&lexed);
        if !consts.is_empty() {
            metric_consts.insert(f.rel.clone(), consts);
        }
    }
    let crate_deps = dependency_closure(&ws.manifests);
    let edges = resolve(&items, &crate_deps);
    Graph {
        items,
        edges,
        crate_deps,
        metric_consts,
    }
}

/// Whether an item in `from` may call an item in `to`: same crate, or
/// `to` in `from`'s transitive dependency closure. Crates absent from the
/// manifest set (synthetic test workspaces) may call anything —
/// over-approximation stays the safe direction.
fn crates_linked(deps: &BTreeMap<String, BTreeSet<String>>, from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    match deps.get(from) {
        Some(d) => d.contains(to),
        None => true,
    }
}

/// Resolve every call/ref site to candidate items.
fn resolve(items: &[Item], deps: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<usize>> {
    // name → item ids.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, it) in items.iter().enumerate() {
        by_name.entry(&it.name).or_default().push(id);
    }

    let mut edges: Vec<Vec<usize>> = Vec::with_capacity(items.len());
    for it in items {
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for c in &it.calls {
            let Some(cands) = by_name.get(c.name.as_str()) else {
                continue;
            };
            // Qualifier / receiver narrowing.
            let shape: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| {
                    let t = &items[id];
                    let forward = crates_linked(deps, &it.crate_name, &t.crate_name);
                    if c.method {
                        // Trait-impl methods are dynamic-dispatch targets:
                        // `os` invokes a `PacketHandler` that `core`
                        // registered, so for them the DAG check also
                        // accepts the reverse direction (callee's crate
                        // depends on the caller's).
                        let reverse =
                            t.trait_method && crates_linked(deps, &t.crate_name, &it.crate_name);
                        return t.has_self && (forward || reverse);
                    }
                    if !forward {
                        return false;
                    }
                    if let Some(q) = &c.qualifier {
                        // `Type::assoc(...)`: restrict to that owner when
                        // the owner is known at all; `module::free(...)`
                        // qualifiers fall through to free functions.
                        match &t.owner {
                            Some(o) => o == q,
                            None => !items.iter().any(|x| x.owner.as_deref() == Some(q)),
                        }
                    } else {
                        !t.has_self && t.owner.is_none()
                    }
                })
                .collect();
            // Arity narrowing: only when at least one candidate agrees —
            // a mismatch may be our own miscount (closure commas), so it
            // widens rather than drops.
            let args = c.arity;
            let arity_matched: Vec<usize> = shape
                .iter()
                .copied()
                .filter(|&id| {
                    let t = &items[id];
                    // UFCS `Type::method(recv, ..)` counts the receiver.
                    let expected = t.arity + usize::from(t.has_self && !c.method);
                    expected == args
                })
                .collect();
            out.extend(if arity_matched.is_empty() {
                shape
            } else {
                arity_matched
            });
        }
        // Bare fn-pointer references: name match over free functions and
        // associated fns only (methods need a receiver to be called).
        for r in &it.refs {
            if let Some(cands) = by_name.get(r.name.as_str()) {
                out.extend(cands.iter().copied().filter(|&id| {
                    let t = &items[id];
                    !t.has_self && crates_linked(deps, &it.crate_name, &t.crate_name)
                }));
            }
        }
        edges.push(out.into_iter().collect());
    }
    edges
}

/// Parse the workspace manifests into a transitive dependency closure:
/// crate dir → set of crate dirs it (transitively) depends on.
pub fn dependency_closure(manifests: &[Manifest]) -> BTreeMap<String, BTreeSet<String>> {
    // Workspace alias → crate dir, from [workspace.dependencies] paths.
    let mut alias_dir: BTreeMap<String, String> = BTreeMap::new();
    for m in manifests {
        if m.rel != "Cargo.toml" {
            continue;
        }
        let mut in_ws_deps = false;
        for line in m.text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_ws_deps = line == "[workspace.dependencies]";
                continue;
            }
            if !in_ws_deps {
                continue;
            }
            if let Some((alias, rest)) = line.split_once('=') {
                if let Some(dir) = path_value_dir(rest) {
                    alias_dir.insert(alias.trim().to_string(), dir);
                }
            }
        }
    }

    // Direct deps per crate dir.
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for m in manifests {
        let crate_dir = if m.rel == "Cargo.toml" {
            "clic".to_string() // the root facade package
        } else {
            match m
                .rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
            {
                Some(d) => d.to_string(),
                None => continue,
            }
        };
        let deps = direct.entry(crate_dir).or_default();
        let mut in_deps = false;
        for line in m.text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                let section = line.trim_matches(['[', ']']).trim();
                in_deps = section == "dependencies" || section == "dev-dependencies";
                continue;
            }
            if !in_deps || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, rest)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            let alias = key.strip_suffix(".workspace").unwrap_or(key).trim();
            let dir = if let Some(d) = path_value_dir(rest) {
                Some(d)
            } else {
                alias_dir.get(alias).cloned()
            };
            if let Some(d) = dir {
                deps.insert(d);
            }
        }
    }

    // Transitive closure (the DAG is tiny; iterate to fixpoint).
    let mut closed = direct.clone();
    loop {
        let mut grew = false;
        let snapshot = closed.clone();
        for deps in closed.values_mut() {
            let add: BTreeSet<String> = deps
                .iter()
                .filter_map(|d| snapshot.get(d))
                .flatten()
                .filter(|d| !deps.contains(*d))
                .cloned()
                .collect();
            if !add.is_empty() {
                deps.extend(add);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    closed
}

/// Extract the crate dir from a `path = "crates/sim"` / `{ path = "../sim" }`
/// TOML value fragment.
fn path_value_dir(rest: &str) -> Option<String> {
    let pos = rest.find("path")?;
    let after = rest[pos + 4..].trim_start().strip_prefix('=')?;
    let after = after.trim_start().strip_prefix('"')?;
    let end = after.find('"')?;
    let path = &after[..end];
    path.rsplit('/').next().map(|s| {
        if s == "." || s.is_empty() {
            "clic".to_string()
        } else {
            s.to_string()
        }
    })
}

/// Reachability from `roots`: `parent[i]` is the predecessor of `i` on a
/// shortest path from some root (roots point to themselves). `None` means
/// unreachable.
pub fn reach(g: &Graph, roots: &[usize]) -> Vec<Option<usize>> {
    let mut parent: Vec<Option<usize>> = vec![None; g.items.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in roots {
        if parent[r].is_none() {
            parent[r] = Some(r);
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &g.edges[u] {
            if parent[v].is_none() {
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    parent
}

/// The root→`sink` call chain implied by a [`reach`] parent array, as
/// qualified item names (outermost first).
pub fn path_to(g: &Graph, parent: &[Option<usize>], sink: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut cur = sink;
    loop {
        chain.push(g.items[cur].qualified());
        match parent[cur] {
            Some(p) if p != cur => cur = p,
            _ => break,
        }
    }
    chain.reverse();
    chain
}

/// Render the call graph as DOT, one `subgraph cluster` per crate
/// (layered layout in Graphviz), test items excluded. Deterministic:
/// items are already in (file, line) order and edges are sorted.
pub fn render_dot(g: &Graph) -> String {
    let mut out = String::from("digraph clic {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
    let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, it) in g.items.iter().enumerate() {
        if !it.is_test {
            by_crate.entry(&it.crate_name).or_default().push(id);
        }
    }
    for (krate, ids) in &by_crate {
        let _ = writeln!(out, "  subgraph \"cluster_{krate}\" {{");
        let _ = writeln!(out, "    label=\"{krate}\";");
        for &id in ids {
            let it = &g.items[id];
            let label = match &it.owner {
                Some(o) => format!("{o}::{}", it.name),
                None => it.name.clone(),
            };
            let _ = writeln!(out, "    n{id} [label=\"{label}\"];");
        }
        let _ = writeln!(out, "  }}");
    }
    for (id, outs) in g.edges.iter().enumerate() {
        if g.items[id].is_test {
            continue;
        }
        for &v in outs {
            if !g.items[v].is_test {
                let _ = writeln!(out, "  n{id} -> n{v};");
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

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
            manifests: Vec::new(),
        }
    }

    #[test]
    fn calls_resolve_by_name_and_arity() {
        let g = build(&ws(vec![(
            "crates/a/src/lib.rs",
            "a",
            "pub fn top() { helper(1); }\n\
             fn helper(x: u32) {}\n\
             fn helper_far(x: u32, y: u32) {}\n",
        )]));
        let top = g.items.iter().position(|i| i.name == "top").unwrap();
        let helper = g.items.iter().position(|i| i.name == "helper").unwrap();
        let far = g.items.iter().position(|i| i.name == "helper_far").unwrap();
        assert!(g.edges[top].contains(&helper));
        assert!(!g.edges[top].contains(&far));
    }

    #[test]
    fn arity_mismatch_widens_not_drops() {
        // A single candidate with the wrong arity still gets the edge —
        // the count may be our own closure-comma miscount.
        let g = build(&ws(vec![(
            "crates/a/src/lib.rs",
            "a",
            "pub fn top() { run(|a, b| a + b); }\nfn run(f: F) {}\n",
        )]));
        let top = g.items.iter().position(|i| i.name == "top").unwrap();
        let run = g.items.iter().position(|i| i.name == "run").unwrap();
        assert!(g.edges[top].contains(&run));
    }

    #[test]
    fn reachability_and_paths() {
        let g = build(&ws(vec![(
            "crates/a/src/lib.rs",
            "a",
            "pub fn entry() { mid(); }\nfn mid() { deep(); }\nfn deep() {}\nfn orphan() {}\n",
        )]));
        let entry = g.items.iter().position(|i| i.name == "entry").unwrap();
        let deep = g.items.iter().position(|i| i.name == "deep").unwrap();
        let orphan = g.items.iter().position(|i| i.name == "orphan").unwrap();
        let parent = reach(&g, &[entry]);
        assert!(parent[deep].is_some());
        assert!(parent[orphan].is_none());
        assert_eq!(
            path_to(&g, &parent, deep),
            vec!["a::entry", "a::mid", "a::deep"]
        );
    }

    #[test]
    fn dot_is_layered_by_crate() {
        let g = build(&ws(vec![
            ("crates/a/src/lib.rs", "a", "pub fn one() { two(); }\n"),
            ("crates/b/src/lib.rs", "b", "pub fn two() {}\n"),
        ]));
        let dot = render_dot(&g);
        assert!(dot.contains("subgraph \"cluster_a\""));
        assert!(dot.contains("subgraph \"cluster_b\""));
        assert!(dot.contains("->"));
    }

    #[test]
    fn dependency_closure_is_transitive() {
        let manifests = vec![
            Manifest {
                rel: "Cargo.toml".to_string(),
                text: "[workspace.dependencies]\nclic-sim = { path = \"crates/sim\" }\n\
                       clic-ethernet = { path = \"crates/ethernet\" }\n"
                    .to_string(),
            },
            Manifest {
                rel: "crates/ethernet/Cargo.toml".to_string(),
                text: "[dependencies]\nclic-sim.workspace = true\n".to_string(),
            },
            Manifest {
                rel: "crates/hw/Cargo.toml".to_string(),
                text: "[dependencies]\nclic-ethernet.workspace = true\n".to_string(),
            },
        ];
        let closed = dependency_closure(&manifests);
        assert!(closed["hw"].contains("ethernet"));
        assert!(closed["hw"].contains("sim"));
        assert!(!closed["ethernet"].contains("hw"));
    }

    #[test]
    fn cross_crate_edges_respect_the_dependency_dag() {
        let mut w = ws(vec![
            (
                "crates/sim/src/lib.rs",
                "sim",
                "pub fn tick() { helper(); }\n",
            ),
            ("crates/bench/src/lib.rs", "bench", "pub fn helper() {}\n"),
        ]);
        w.manifests = vec![
            Manifest {
                rel: "Cargo.toml".to_string(),
                text: "[workspace.dependencies]\nclic-sim = { path = \"crates/sim\" }\n"
                    .to_string(),
            },
            Manifest {
                rel: "crates/sim/Cargo.toml".to_string(),
                text: "[dependencies]\n".to_string(),
            },
            Manifest {
                rel: "crates/bench/Cargo.toml".to_string(),
                text: "[dependencies]\nclic-sim.workspace = true\n".to_string(),
            },
        ];
        let g = build(&w);
        let tick = g.items.iter().position(|i| i.name == "tick").unwrap();
        // sim does not depend on bench: no edge despite the name match.
        assert!(g.edges[tick].is_empty());
    }

    #[test]
    fn trait_impl_methods_accept_callback_edges() {
        // `os` dispatches a handler trait object; the impl lives in
        // `core`, which depends on `os`. The upward edge must survive the
        // DAG filter — but only for trait-impl methods, not inherent ones.
        let mut w = ws(vec![
            (
                "crates/os/src/lib.rs",
                "os",
                "pub fn dispatch(h: &dyn Handler) { h.handle(1); h.inherent(1); }\n",
            ),
            (
                "crates/core/src/lib.rs",
                "core",
                "impl Handler for ClicModule { fn handle(&self, f: u32) {} }\n\
                 impl ClicModule { fn inherent(&self, f: u32) {} }\n",
            ),
        ]);
        w.manifests = vec![
            Manifest {
                rel: "Cargo.toml".to_string(),
                text: "[workspace.dependencies]\nclic-os = { path = \"crates/os\" }\n".to_string(),
            },
            Manifest {
                rel: "crates/os/Cargo.toml".to_string(),
                text: "[dependencies]\n".to_string(),
            },
            Manifest {
                rel: "crates/core/Cargo.toml".to_string(),
                text: "[dependencies]\nclic-os.workspace = true\n".to_string(),
            },
        ];
        let g = build(&w);
        let dispatch = g.items.iter().position(|i| i.name == "dispatch").unwrap();
        let handle = g.items.iter().position(|i| i.name == "handle").unwrap();
        let inherent = g.items.iter().position(|i| i.name == "inherent").unwrap();
        assert!(g.items[handle].trait_method);
        assert!(!g.items[inherent].trait_method);
        assert!(g.edges[dispatch].contains(&handle));
        assert!(!g.edges[dispatch].contains(&inherent));
    }
}
