//! The timeline recorder's exports are part of the observability
//! contract: the incast counter-track trace is byte-stable (golden file),
//! parses as JSON with the headline Perfetto counter tracks, and the
//! `figures timeline` CLI emits exactly the bytes of the in-process run.

use clic_bench::json::Json;
use clic_cluster::observe::{run_timeline, TimelineScenario};

const GOLDEN: &str = include_str!("golden/incast_timeline_trace.json");
const GOLDEN_CONGESTION: &str = include_str!("golden/congestion_timeline_trace.json");

fn incast_run() -> clic_cluster::observe::TimelineRun {
    run_timeline(TimelineScenario::Incast, 1000, None)
}

#[test]
fn incast_counter_trace_matches_golden_file() {
    let t = incast_run();
    assert_eq!(
        t.chrome_json, GOLDEN,
        "counter-track trace for the incast timeline changed; if \
         intentional, regenerate \
         crates/bench/tests/golden/incast_timeline_trace.json with \
         `figures timeline incast --bucket-us 1000 --out <golden path>`"
    );
}

#[test]
fn incast_counter_trace_parses_with_headline_tracks() {
    let t = incast_run();
    let doc = Json::parse(&t.chrome_json).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let mut tracks = std::collections::BTreeSet::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("C") {
            let name = e.get("name").and_then(Json::as_str).expect("counter name");
            assert!(
                e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .is_some(),
                "counter sample without a value: {name}"
            );
            tracks.insert(name.to_string());
        }
    }
    // The acceptance headline: switch queue depth, receiver buffer
    // occupancy and per-link transmit rate all present as counter tracks.
    for want in [
        "eth.switch.queue_depth",
        "clic.recv_buffer_bytes",
        "eth.link.tx_bytes",
    ] {
        assert!(tracks.contains(want), "missing counter track {want}");
    }
    assert!(tracks.len() >= 3, "tracks: {tracks:?}");
}

#[test]
fn congestion_counter_trace_matches_golden_file() {
    // The cwnd sawtooth under incast, as a byte-stable Perfetto export:
    // the ECN-enabled 8→1 leaf-spine incast with switch marking and the
    // DCTCP-flavoured congestion window active.
    let t = run_timeline(TimelineScenario::Congestion, 1000, None);
    assert_eq!(
        t.chrome_json, GOLDEN_CONGESTION,
        "counter-track trace for the congestion timeline changed; if \
         intentional, regenerate \
         crates/bench/tests/golden/congestion_timeline_trace.json with \
         `figures timeline congestion --bucket-us 1000 --out <golden path>`"
    );
}

#[test]
fn congestion_counter_trace_shows_a_cwnd_sawtooth() {
    let t = run_timeline(TimelineScenario::Congestion, 1000, None);
    let doc = Json::parse(&t.chrome_json).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let mut tracks = std::collections::BTreeSet::new();
    let mut cwnd = Vec::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("C") {
            let name = e.get("name").and_then(Json::as_str).expect("counter name");
            tracks.insert(name.to_string());
            if name == "clic.cwnd" {
                cwnd.push(
                    e.get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(Json::as_f64)
                        .expect("cwnd sample value"),
                );
            }
        }
    }
    // The headline tracks of the congestion story: the window, its
    // threshold, and the fabric's marking rate.
    for want in ["clic.cwnd", "clic.ssthresh", "eth.switch.ecn_marks"] {
        assert!(tracks.contains(want), "missing counter track {want}");
    }
    // A sawtooth both rises (additive increase / slow start) and falls
    // (mark-driven decrease) — a flat line means the control loop never
    // engaged.
    assert!(
        cwnd.windows(2).any(|w| w[1] > w[0]),
        "cwnd never grew: {cwnd:?}"
    );
    assert!(
        cwnd.windows(2).any(|w| w[1] < w[0]),
        "cwnd never cut: {cwnd:?}"
    );
}

#[test]
fn timeline_cli_matches_the_in_process_run() {
    // The CLI's CSV (stdout) and Perfetto JSON (--out) are exactly what
    // `run_timeline` returns for the same scenario, bucket and ring.
    let out = std::env::temp_dir().join(format!("clic-tl-cli-{}.json", std::process::id()));
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["timeline", "incast", "--bucket-us", "200", "--out"])
        .arg(&out)
        .output()
        .expect("figures timeline runs");
    assert!(output.status.success(), "{output:?}");
    let want = run_timeline(
        TimelineScenario::Incast,
        200,
        TimelineScenario::Incast.default_flight(),
    );
    let json = std::fs::read_to_string(&out).expect("timeline trace written");
    let _ = std::fs::remove_file(&out);
    assert_eq!(String::from_utf8(output.stdout).expect("utf-8"), want.csv);
    assert_eq!(json, want.chrome_json);
}

#[test]
fn timeline_smoke_covers_every_scenario() {
    // The CI step: every scenario replays and records enough series.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["timeline", "--smoke"])
        .output()
        .expect("figures timeline --smoke runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    for s in TimelineScenario::ALL {
        assert!(
            stdout.contains(&format!("timeline {:<12}", s.name())),
            "smoke output missing scenario {}: {stdout}",
            s.name()
        );
    }
}
