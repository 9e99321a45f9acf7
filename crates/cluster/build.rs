//! Fingerprint the simulator source for the result cache.
//!
//! Hashes the `src/` trees of this crate and of every workspace crate it
//! depends on (transitively): 64-bit FNV-1a over each file's
//! workspace-relative path and contents, files in sorted path order. The
//! hash lands in `$OUT_DIR/source_hash.rs` as `SOURCE_HASH`, which
//! `JobSpec::fingerprint` mixes in, so a result cached by a binary built
//! from other simulator source is never served.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn main() {
    let manifest_dir = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest_dir.join("../..");
    let root_manifest = root.join("Cargo.toml");
    println!("cargo:rerun-if-changed={}", root_manifest.display());

    // Dependency name → crate directory, from `[workspace.dependencies]`.
    let mut paths = BTreeMap::new();
    for line in section(&read(&root_manifest), "[workspace.dependencies]") {
        if let (Some((name, _)), Some(path)) = (line.split_once('='), path_value(line)) {
            paths.insert(name.trim().to_string(), path.to_string());
        }
    }
    let own = paths
        .get(env!("CARGO_PKG_NAME"))
        .expect("the crate is a workspace dependency")
        .clone();

    // This crate plus its workspace dependencies, transitively.
    let mut crates = BTreeSet::from([own.clone()]);
    let mut todo = vec![own];
    while let Some(dir) = todo.pop() {
        let manifest = root.join(&dir).join("Cargo.toml");
        println!("cargo:rerun-if-changed={}", manifest.display());
        for line in section(&read(&manifest), "[dependencies]") {
            let name = line.split(['.', '=']).next().unwrap_or_default().trim();
            if let Some(dep) = paths.get(name) {
                if crates.insert(dep.clone()) {
                    todo.push(dep.clone());
                }
            }
        }
    }

    let mut files = Vec::new();
    for dir in &crates {
        let src = format!("{dir}/src");
        println!("cargo:rerun-if-changed={}", root.join(&src).display());
        collect(&root, &src, &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for rel in &files {
        for bytes in [
            rel.as_bytes(),
            &fs::read(root.join(rel)).expect("readable source"),
        ] {
            for &b in bytes.iter().chain(&[0xff]) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    fs::write(
        out.join("source_hash.rs"),
        format!(
            "/// FNV-1a of the simulator's `src/` trees ({} files; see `build.rs`).\n\
             const SOURCE_HASH: u64 = {hash:#018x};\n",
            files.len()
        ),
    )
    .expect("OUT_DIR is writable");
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The non-empty, non-comment lines of a manifest's `header` table.
fn section<'a>(text: &'a str, header: &'a str) -> impl Iterator<Item = &'a str> {
    text.lines()
        .skip_while(move |l| l.trim() != header)
        .skip(1)
        .map(str::trim)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// The quoted value of `path = "..."` in an inline dependency table.
fn path_value(line: &str) -> Option<&str> {
    let rest = line.split_once("path")?.1.trim_start().strip_prefix('=')?;
    rest.trim_start().strip_prefix('"')?.split('"').next()
}

/// Every file under `dir` (workspace-relative), recursively.
fn collect(root: &Path, dir: &str, out: &mut Vec<String>) {
    for entry in fs::read_dir(root.join(dir)).expect("readable source tree") {
        let entry = entry.expect("readable directory entry");
        let name = entry.file_name().into_string().expect("UTF-8 file name");
        let rel = format!("{dir}/{name}");
        if entry.file_type().expect("file type").is_dir() {
            collect(root, &rel, out);
        } else {
            out.push(rel);
        }
    }
}
