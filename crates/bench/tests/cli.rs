//! The `figures` CLI contract: a figure run writes only what it is asked
//! for, and a bad argument exits 2 with the usage text instead of
//! panicking.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty directory under the system temp dir.
fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clic-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn an_uncached_figure_run_writes_nothing_to_its_working_directory() {
    let dir = empty_dir("cwd");
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--quick", "--no-cache", "syscall"])
        .current_dir(&dir)
        .output()
        .expect("figures runs");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("temp dir readable")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(output.status.success(), "{output:?}");
    assert!(!output.stdout.is_empty(), "no figure printed");
    assert!(
        left.is_empty(),
        "figures wrote {left:?} into its working directory"
    );
}

#[test]
fn trace_mtu_outside_the_traced_range_exits_2_with_usage() {
    let dir = empty_dir("mtu");
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["trace", "--mtu", "64"])
        .current_dir(&dir)
        .output()
        .expect("figures runs");
    let wrote_trace = dir.join("trace.json").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(
        stderr.contains("--mtu") && stderr.contains("usage:"),
        "{stderr}"
    );
    assert!(!wrote_trace, "a rejected trace run wrote trace.json");
}

#[test]
fn trace_size_past_the_traced_range_exits_2_with_usage() {
    let dir = empty_dir("size");
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["trace", "--size", "99999999999"])
        .current_dir(&dir)
        .output()
        .expect("figures runs");
    let wrote_trace = dir.join("trace.json").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(
        stderr.contains("--size") && stderr.contains("usage:"),
        "{stderr}"
    );
    assert!(!wrote_trace, "a rejected trace run wrote trace.json");
}
