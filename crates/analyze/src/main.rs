//! Command-line entry point for `clic-analyze`.
//!
//! ```text
//! clic-analyze [--root <dir>] [--json] [--list-rules] [--catalog]
//!              [--graph <out.dot>] [--include-tests]
//! ```
//!
//! Exit status: 0 when the workspace is clean, 1 when violations are
//! found, 2 on usage or I/O errors.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use clic_analyze::catalog;
use clic_analyze::diag::{render_human, render_json};
use clic_analyze::graph;
use clic_analyze::rules::{analyze_workspace, RULES};
use clic_analyze::workspace::{discover_with, find_root};

/// Write to stdout, swallowing broken-pipe errors so `clic-analyze
/// --list-rules | head` exits quietly instead of panicking.
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

const USAGE: &str = "usage: clic-analyze [--root <dir>] [--json] [--list-rules] [--catalog]
                    [--graph <out.dot>] [--include-tests]

  --root <dir>      workspace to analyze (default: walk up from cwd)
  --json            machine-readable output
  --list-rules      print the rule set and exit
  --catalog         print the parsed observability catalog and exit
  --graph <out>     also write the workspace call graph as DOT (layered
                    by crate) to <out>
  --include-tests   scan integration-test sources too, under the relaxed
                    test policy row
";

fn main() -> ExitCode {
    let mut json = false;
    let mut list_rules = false;
    let mut show_catalog = false;
    let mut include_tests = false;
    let mut graph_out: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            "--catalog" => show_catalog = true,
            "--include-tests" => include_tests = true,
            "--graph" => {
                let Some(out) = args.next() else {
                    eprintln!("clic-analyze: --graph needs an output path\n{USAGE}");
                    return ExitCode::from(2);
                };
                graph_out = Some(PathBuf::from(out));
            }
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("clic-analyze: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                };
                root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                emit(USAGE);
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("clic-analyze: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for (name, what) in RULES {
            emit(&format!("{name:<22} {what}\n"));
        }
        return ExitCode::SUCCESS;
    }

    let root = if let Some(r) = root {
        r
    } else {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let Some(r) = find_root(&cwd) else {
            eprintln!("clic-analyze: no [workspace] Cargo.toml above the current dir");
            return ExitCode::from(2);
        };
        r
    };

    if show_catalog {
        return print_catalog(&root);
    }

    let ws = match discover_with(&root, include_tests) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("clic-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(out_path) = &graph_out {
        let dot = graph::render_dot(&graph::build(&ws));
        if let Err(e) = std::fs::write(out_path, dot) {
            eprintln!("clic-analyze: {}: {e}", out_path.display());
            return ExitCode::from(2);
        }
    }
    let report = analyze_workspace(&ws);
    let out = if json {
        render_json(&report.diags, report.files_scanned)
    } else {
        render_human(&report.diags, report.files_scanned)
    };
    emit(&out);
    if report.diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_catalog(root: &std::path::Path) -> ExitCode {
    let path = root.join("crates/sim/src/catalog.rs");
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("clic-analyze: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    match catalog::parse(&src) {
        Ok(c) => {
            let mut out = format!("# metrics ({})\n", c.metrics.len());
            for e in &c.metrics {
                let _ = writeln!(out, "{:<40} {}", e.name, e.sinks_label());
            }
            let _ = writeln!(out, "# stages ({})", c.stages.len());
            for e in &c.stages {
                let _ = writeln!(out, "{}", e.name);
            }
            emit(&out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("clic-analyze: {e}");
            ExitCode::from(2)
        }
    }
}
