//! Metric definitions and output.
//!
//! Names are the stable interface: every later performance claim in the
//! repository is a diff of these names. `README.md` defines each one.

use crate::oracle::Tally;
use crate::trace::{JobTrace, COUNTS};
use crate::workload::Pass;
use clic_sim::ActionArm;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    // `+ 0.0` turns the -0 of an empty `f64` sum into 0.
    Metric {
        name,
        unit,
        value: value + 0.0,
    }
}

/// `num ÷ den`, or 0 when `den` is 0 (a workload with nothing to divide).
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median (0 for no samples).
pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-name medians of a list of same-shaped metric lists.
pub(crate) fn medians(samples: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            value: median(samples.iter().map(|s| s[i].value).collect()),
            ..*m
        })
        .collect()
}

/// The end-to-end metrics from an untraced run's medians.
pub(crate) fn end_to_end(wall_s: f64, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("wall_s", "s", wall_s),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// The per-layer metrics of one traced pass: `pass` is the bench layer's
/// view (with the untraced job times and event counts), `traces` the
/// replays of the jobs it executed.
pub(crate) fn per_layer(pass: &Pass, traces: &[JobTrace]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&JobTrace) -> f64| traces.iter().map(f).sum::<f64>();
    let count = |name: &str| {
        let i = COUNTS
            .iter()
            .position(|&(n, _)| n == name)
            .expect("a collected count");
        sum(&|t| t.counts[i] as f64)
    };
    let events_untraced: f64 = pass
        .jobs
        .iter()
        .filter(|j| !j.cached)
        .filter_map(|j| j.outcome.as_ref().ok())
        .filter_map(|m| m.get("m.events"))
        .sum();
    let events = sum(&|t| t.events as f64);
    let dispatch_s = sum(&|t| t.arms.total_ns() as f64) / 1e9;
    let boxed = sum(&|t| t.arms.events[ActionArm::Boxed as usize] as f64);
    let build_s = sum(&|t| t.build_s);
    let run_s = sum(&|t| t.run_s);
    let collect_s = sum(&|t| t.collect_s);
    let job_s = sum(&|t| t.job_s);
    let nodes = sum(&|t| t.nodes as f64);
    let tx_frames = count("hw.nic.tx_frames");
    let recycled = count("sim.pool.recycled");
    let decisions = sum(&|t| t.switch_decisions as f64);
    let sent = count("clic.packets_sent");

    let mut out = vec![
        metric("sim.events", "count", events_untraced),
        metric(
            "sim.events_per_s",
            "1/s",
            ratio(events_untraced, pass.job_s),
        ),
        metric("sim.dispatch_s", "s", dispatch_s),
        metric(
            "sim.dispatch_ns_per_event",
            "ns",
            ratio(dispatch_s * 1e9, events),
        ),
        metric("sim.boxed_share", "ratio", ratio(boxed, events)),
        metric(
            "sim.outside_dispatch_s",
            "s",
            job_s - build_s - dispatch_s - collect_s,
        ),
        metric(
            "sim.pool_hit_ratio",
            "ratio",
            ratio(recycled, recycled + count("sim.pool.alloc_misses")),
        ),
        metric("sim.events_per_frame", "ratio", ratio(events, tx_frames)),
        metric("sim.host_ns_per_frame", "ns", ratio(run_s * 1e9, tx_frames)),
        metric("cluster.jobs", "count", traces.len() as f64),
        metric("cluster.build_s", "s", build_s),
        metric(
            "cluster.build_us_per_node",
            "us",
            ratio(build_s * 1e6, nodes),
        ),
        metric("cluster.collect_s", "s", collect_s),
    ];
    out.extend(COUNTS.iter().map(|&(name, source)| {
        let unit = match source {
            crate::trace::Source::Counter => "count",
            crate::trace::Source::HistogramSum => "bytes",
        };
        metric(name, unit, count(name))
    }));
    out.extend([
        metric(
            "eth.switch.drop_ratio",
            "ratio",
            ratio(count("eth.switch.drops"), decisions),
        ),
        metric(
            "hw.frames_per_irq",
            "ratio",
            ratio(tx_frames, count("hw.nic.irqs")),
        ),
        metric(
            "clic.useful_packet_ratio",
            "ratio",
            ratio(sent - count("clic.retransmits"), sent),
        ),
        metric("bench.fingerprint_s", "s", pass.fingerprint_s),
        metric("bench.runner_overhead_s", "s", pass.run_jobs_s - pass.job_s),
        metric(
            "bench.cache_hit_rate",
            "ratio",
            ratio(pass.cache_hits as f64, pass.jobs.len() as f64),
        ),
        metric("bench.assemble_s", "s", pass.assemble_s),
        metric("bench.render_s", "s", pass.render_s),
        metric("trace.overhead_ratio", "ratio", ratio(job_s, pass.job_s)),
    ]);
    out
}

/// A memory field of this process's `/proc/self/status` (`VmRSS`,
/// `VmHWM`, ...), MiB; 0 where the kernel does not report it.
pub(crate) fn proc_status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix(field)?.strip_prefix(':')?;
                kb.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The human-readable report: one `workload metric value unit` line per
/// metric.
pub fn human(workload: &str, metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("{workload} {} {} {}\n", m.name, m.value, m.unit))
        .collect()
}

/// The one-line JSON result that ends standard output.
pub fn result_line(metrics: &[Metric], tally: &Tally) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a ratio that produced one is a
            // benchmark bug, reported as 0 rather than as invalid JSON.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
