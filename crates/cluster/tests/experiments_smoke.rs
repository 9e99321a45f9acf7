//! Smoke tests: every experiment family runs on a tiny grid and returns
//! structurally sound results (the full grids are exercised by the
//! `figures` binary and Criterion benches).

use clic_cluster::experiments::{FigureKind, FigureOutput, Series, Table, Value};

fn tiny() -> Vec<usize> {
    vec![1_024, 65_536]
}

fn check_series(series: &[Series], expected_labels: &[&str], sizes: usize) {
    assert_eq!(series.len(), expected_labels.len());
    for (s, label) in series.iter().zip(expected_labels) {
        assert_eq!(&s.label, label);
        assert_eq!(s.points.len(), sizes);
        for p in &s.points {
            assert!(p.mbps.is_finite() && p.mbps > 0.0, "{label} @{}", p.size);
            assert!(p.mbps < 1_000.0, "{label} exceeds the wire");
        }
        // Bandwidth grows with message size on this grid.
        assert!(s.points[0].mbps < s.points[1].mbps, "{label} must rise");
    }
}

/// Run a table family on the tiny grid.
fn run_table(kind: FigureKind) -> Table {
    kind.run(&tiny()).table().clone()
}

/// The index of the row whose `key` cells hold `values`.
fn find(t: &Table, cells: &[(&str, Value)]) -> usize {
    (0..t.rows.len())
        .find(|&i| cells.iter().all(|&(key, v)| t.get(i, key) == v))
        .unwrap_or_else(|| panic!("no row with {cells:?}"))
}

#[test]
fn fig4_structure() {
    let output = FigureKind::Fig4.run(&tiny());
    let series = output.series();
    check_series(
        series,
        &[
            "0-copy MTU 9000",
            "0-copy MTU 1500",
            "1-copy MTU 9000",
            "1-copy MTU 1500",
        ],
        2,
    );
    // 0-copy beats 1-copy at the large point, per MTU.
    assert!(series[0].points[1].mbps > series[2].points[1].mbps);
    assert!(series[1].points[1].mbps > series[3].points[1].mbps);
}

#[test]
fn fig5_structure() {
    let output = FigureKind::Fig5.run(&tiny());
    check_series(
        output.series(),
        &["CLIC 9000", "CLIC 1500", "TCP 9000", "TCP 1500"],
        2,
    );
}

#[test]
fn fig6_structure() {
    let output = FigureKind::Fig6.run(&tiny());
    let series = output.series();
    check_series(series, &["CLIC", "MPI-CLIC", "MPI-TCP", "PVM-TCP"], 2);
    // The paper's stack ordering at the large point.
    let at = |i: usize| series[i].points[1].mbps;
    assert!(at(0) >= at(1) * 0.98, "CLIC >= MPI-CLIC (within noise)");
    assert!(at(1) > at(2), "MPI-CLIC > MPI-TCP");
    assert!(at(2) > at(3), "MPI-TCP > PVM-TCP");
}

#[test]
fn fig7_structure() {
    let FigureOutput::Stages { a, b } = FigureKind::Fig7.run(&tiny()) else {
        panic!("fig7 assembles stage breakdowns");
    };
    for (rows, direct) in [(a, false), (b, true)] {
        assert!(rows.iter().any(|r| r.stage == "driver_rx"));
        assert!(rows.iter().any(|r| r.stage == "syscall"));
        assert!(rows.iter().all(|r| r.us >= 0.0 && r.us < 100.0));
        let has_bh = rows.iter().any(|r| r.stage == "bottom_half");
        assert_eq!(has_bh, !direct, "direct call skips the bottom half");
    }
}

#[test]
fn gamma_table_structure() {
    let t = run_table(FigureKind::Gamma);
    assert_eq!(t.rows.len(), 2);
    assert_eq!(t.get(0, "protocol"), Value::Str("CLIC"));
    assert!(matches!(t.get(1, "protocol"), Value::Str(p) if p.starts_with("GAMMA")));
    assert!(
        t.num(1, "latency_us") < t.num(0, "latency_us"),
        "GAMMA is faster"
    );
    assert!(t.num(1, "bandwidth_mbps") > t.num(0, "bandwidth_mbps"));
}

#[test]
fn coalescing_rows_trade_latency_for_interrupt_rate() {
    let t = run_table(FigureKind::Coalescing);
    assert!(t.rows.len() >= 4);
    let last = t.rows.len() - 1;
    assert!(
        t.num(last, "latency_us") > t.num(0, "latency_us") * 2.0,
        "coalescing delays singles"
    );
    assert!(
        t.num(last, "irqs_per_kframe") < t.num(0, "irqs_per_kframe"),
        "but batches interrupts"
    );
}

#[test]
fn bonding_scales_only_with_the_fast_bus() {
    let t = run_table(FigureKind::Bonding);
    assert_eq!(t.rows.len(), 3);
    // Paper-era PCI: flat (within 10 %).
    assert!(t.num(2, "mbps_pci33") > t.num(0, "mbps_pci33") * 0.85);
    assert!(t.num(2, "mbps_pci33") < t.num(0, "mbps_pci33") * 1.15);
    // Fast bus: clearly scales.
    assert!(t.num(2, "mbps_pci66") > t.num(0, "mbps_pci66") * 1.5);
}

#[test]
fn syscall_rows_close_together() {
    let t = run_table(FigureKind::Syscall);
    assert_eq!(t.rows.len(), 2);
    let diff = (t.num(0, "latency_us") - t.num(1, "latency_us")).abs();
    assert!(diff < 2.0, "the syscall tax is sub-2 us: {diff}");
}

#[test]
fn loss_rows_monotone() {
    let t = run_table(FigureKind::Loss);
    for i in 1..t.rows.len() {
        assert!(
            t.num(i, "mbps") < t.num(i - 1, "mbps"),
            "goodput falls with loss"
        );
        assert!(t.num(i, "retx_per_kpkt") >= t.num(i - 1, "retx_per_kpkt"));
    }
}

#[test]
fn cpu_rows_reproduce_section2() {
    let t = run_table(FigureKind::Cpu);
    let tcp = |link: f64| {
        find(
            &t,
            &[
                ("stack", Value::Str("TCP")),
                ("link_mbps", Value::Num(link)),
            ],
        )
    };
    let (tcp_fe, tcp_ge) = (tcp(100.0), tcp(1000.0));
    assert!(
        t.num(tcp_fe, "pct_of_wire") > 80.0,
        "Fast Ethernet nearly saturated"
    );
    assert!(
        t.num(tcp_ge, "pct_of_wire") < 40.0,
        "gigabit nowhere near the wire"
    );
    assert!(
        t.num(tcp_ge, "receiver_cpu") > 0.8,
        "receiver pinned at gigabit"
    );
}

#[test]
fn path_rows_reproduce_figure1_story() {
    let t = run_table(FigureKind::Paths);
    let mbps = |path: f64, link: f64| {
        let row = find(
            &t,
            &[("path", Value::Num(path)), ("link_mbps", Value::Num(link))],
        );
        t.num(row, "mbps")
    };
    // Fast Ethernet: all paths within 10 %.
    assert!(mbps(4.0, 100.0) > mbps(2.0, 100.0) * 0.9);
    // Gigabit: path 4 clearly behind path 2.
    assert!(mbps(4.0, 1000.0) < mbps(2.0, 1000.0) * 0.7);
}

#[test]
fn scaling_rows_grow_aggregate() {
    let t = run_table(FigureKind::Scaling);
    assert_eq!(t.rows.len(), 3);
    assert!(t.num(1, "aggregate_mbps") > t.num(0, "aggregate_mbps") * 1.4);
    assert!(t.num(2, "aggregate_mbps") > t.num(1, "aggregate_mbps") * 1.4);
    // Per-node throughput stays in the same band (receiver-bound).
    for i in 0..t.rows.len() {
        let per_node = t.num(i, "per_node_mbps");
        assert!((150.0..500.0).contains(&per_node), "{:?}", t.rows[i]);
    }
}
