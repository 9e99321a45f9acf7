//! Workspace discovery: find the root, enumerate source files and
//! manifests, and classify each file for rule scoping.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One Rust source file under a crate's `src/`, `tests/` or `benches/`
/// tree, or the root's `examples/`.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// Workspace crate directory name (`sim`, `core`, ... , or `clic` for
    /// the root facade crate).
    pub crate_name: String,
    /// Whether this file is the crate's `src/lib.rs`.
    pub is_lib_root: bool,
    /// Whether this file is an integration-test source (a `tests/` tree):
    /// the relaxed policy row applies (see [`crate::rules::policy_test`]).
    pub is_test_source: bool,
    /// File contents.
    pub text: String,
}

/// One `Cargo.toml`.
#[derive(Debug)]
pub struct Manifest {
    /// Path relative to the workspace root.
    pub rel: String,
    /// File contents.
    pub text: String,
}

/// Everything the analyzer scans.
#[derive(Debug)]
pub struct Workspace {
    /// The workspace root directory.
    pub root: PathBuf,
    /// Sources the per-site rules check, sorted by path: library sources,
    /// plus integration tests under [`discover_with`]'s `include_tests`.
    pub files: Vec<SourceFile>,
    /// Sources read into the call graph only, under no per-site rule:
    /// examples and benches, whose items are entry points, and the
    /// integration tests not in `files`, whose items are test callers.
    pub graph_only: Vec<SourceFile>,
    /// Workspace manifests, sorted by path.
    pub manifests: Vec<Manifest>,
}

/// Walk upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Enumerate the workspace's sources and every `Cargo.toml`. The per-site
/// rules check the library sources (`src/` trees); tests, benches and
/// examples go to [`Workspace::graph_only`].
pub fn discover(root: &Path) -> io::Result<Workspace> {
    discover_with(root, false)
}

/// [`discover`], optionally putting integration-test sources (`tests/`
/// trees) under the per-site rules too. The analyzer's own
/// `tests/fixtures/` directory is always excluded: its files violate
/// rules on purpose.
pub fn discover_with(root: &Path, include_tests: bool) -> io::Result<Workspace> {
    let mut files = Vec::new();
    let mut graph_only = Vec::new();
    let mut manifests = Vec::new();

    push_manifest(root, "Cargo.toml", &mut manifests)?;
    collect(root, Path::new("src"), "clic", false, &mut files)?;
    let tests = if include_tests {
        &mut files
    } else {
        &mut graph_only
    };
    collect(root, Path::new("tests"), "clic", true, tests)?;
    collect(root, Path::new("examples"), "clic", false, &mut graph_only)?;

    // Tolerate a workspace without a `crates/` tree (the root package is
    // still scanned) so the analyzer runs on any layout.
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = match fs::read_dir(&crates_dir) {
        Ok(iter) => iter
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect(),
        Err(_) => Vec::new(),
    };
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let rel_manifest = format!("crates/{name}/Cargo.toml");
        push_manifest(root, &rel_manifest, &mut manifests)?;
        let dir = Path::new("crates").join(&name);
        collect(root, &dir.join("src"), &name, false, &mut files)?;
        let tests = if include_tests {
            &mut files
        } else {
            &mut graph_only
        };
        collect(root, &dir.join("tests"), &name, true, tests)?;
        collect(root, &dir.join("benches"), &name, false, &mut graph_only)?;
    }

    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    graph_only.sort_by(|a, b| a.rel.cmp(&b.rel));
    manifests.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(Workspace {
        root: root.to_path_buf(),
        files,
        graph_only,
        manifests,
    })
}

fn push_manifest(root: &Path, rel: &str, out: &mut Vec<Manifest>) -> io::Result<()> {
    let path = root.join(rel);
    if path.is_file() {
        out.push(Manifest {
            rel: rel.to_string(),
            text: fs::read_to_string(path)?,
        });
    }
    Ok(())
}

/// Recursively collect `.rs` files under `root/dir`, skipping
/// `fixtures/` (deliberately-violating lint inputs) and `golden/`
/// subtrees. `is_test_source` marks a `tests/` tree.
fn collect(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    is_test_source: bool,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let abs = root.join(dir);
    if !abs.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(&abs)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if name == "fixtures" || name == "golden" {
                continue;
            }
            collect(root, &dir.join(name), crate_name, is_test_source, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = dir
                .join(name)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                is_lib_root: !is_test_source && rel.ends_with("src/lib.rs"),
                rel,
                crate_name: crate_name.to_string(),
                is_test_source,
                text: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        // crates/analyze -> workspace root.
        find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
    }

    #[test]
    fn discovers_this_workspace() {
        let ws = discover(&repo_root()).unwrap();
        assert!(ws.files.iter().any(|f| f.rel == "crates/sim/src/engine.rs"));
        assert!(ws
            .files
            .iter()
            .any(|f| f.rel == "src/lib.rs" && f.crate_name == "clic"));
        assert!(ws
            .manifests
            .iter()
            .any(|m| m.rel == "crates/analyze/Cargo.toml"));
        // Out of the per-site scope: tests, benches, examples.
        assert!(!ws.files.iter().any(|f| f.rel.contains("/tests/")));
        assert!(!ws.files.iter().any(|f| f.rel.starts_with("examples/")));
        // The call graph reads them: examples and benches as entry points,
        // tests as test callers.
        let graph_only = |rel: &str, test: bool| {
            ws.graph_only
                .iter()
                .any(|f| f.rel == rel && f.is_test_source == test)
        };
        assert!(graph_only("examples/quickstart.rs", false));
        assert!(graph_only("crates/bench/benches/engine.rs", false));
        assert!(graph_only("tests/full_stack.rs", true));
    }

    #[test]
    fn test_sources_discovered_on_request() {
        let ws = discover_with(&repo_root(), true).unwrap();
        assert!(ws.files.iter().any(|f| f.is_test_source
            && f.rel.starts_with("crates/")
            && f.rel.contains("/tests/")));
        // Fixture files never enter the scan: they violate rules on
        // purpose. Golden JSON directories hold no Rust but are skipped
        // too.
        assert!(!ws.files.iter().any(|f| f.rel.contains("/fixtures/")));
        // Library sources keep their flag off.
        assert!(ws
            .files
            .iter()
            .all(|f| !(f.rel.contains("/src/") && f.is_test_source)));
    }

    #[test]
    fn lib_roots_are_marked() {
        let ws = discover(&repo_root()).unwrap();
        let lib = ws
            .files
            .iter()
            .find(|f| f.rel == "crates/sim/src/lib.rs")
            .unwrap();
        assert!(lib.is_lib_root);
        let not_lib = ws
            .files
            .iter()
            .find(|f| f.rel == "crates/sim/src/engine.rs")
            .unwrap();
        assert!(!not_lib.is_lib_root);
    }
}
