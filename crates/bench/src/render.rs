//! Text and JSON rendering of assembled figure families: exactly what the
//! `figures` binary prints, as strings.

use crate::json::Json;
use clic_cluster::experiments::{
    ClaimRow, Column, FigureOutput, Scalars, Series, StageRow, Table, Value,
};

/// The text `figures` prints for one family: a `== title ==` line, the
/// body and a blank line.
pub fn text(title: &str, output: &FigureOutput) -> String {
    let mut out = format!("== {title} ==\n");
    match output {
        FigureOutput::Series(series) => {
            out.push_str(&series_csv(series));
            out.push('\n');
            out.push_str(&series_ascii(series, 40));
        }
        FigureOutput::Stages { a, b } => stages_text(&mut out, a, b),
        FigureOutput::Scalars(s) => scalars_text(&mut out, s),
        FigureOutput::Tables(tables) => {
            for (i, table) in tables.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                }
                table_text(&mut out, table);
            }
        }
    }
    out.push('\n');
    out
}

/// The JSON `figures --json` prints for one family. A family of several
/// tables prints one object keyed by table name.
pub fn json(output: &FigureOutput) -> String {
    let doc = match output {
        FigureOutput::Series(series) => Json::Arr(series.iter().map(series_json).collect()),
        FigureOutput::Stages { a, b } => {
            Json::obj([("fig7a", stages_json(a)), ("fig7b", stages_json(b))])
        }
        FigureOutput::Scalars(s) => scalars_json(s),
        FigureOutput::Tables(tables) => match tables.as_slice() {
            [table] => table_json(table),
            _ => Json::obj(tables.iter().map(|t| (t.name, table_json(t)))),
        },
    };
    doc.pretty()
}

/// A table as text: heading, header line (unless every header is empty),
/// rows and note. JSON-only columns are skipped.
fn table_text(out: &mut String, table: &Table) {
    if let Some(heading) = table.heading {
        out.push_str(heading);
        out.push('\n');
    }
    let shown: Vec<(usize, &Column, &str)> = table
        .columns
        .iter()
        .enumerate()
        .filter_map(|(i, c)| Some((i, c, c.header?)))
        .collect();
    if shown.iter().any(|(_, _, header)| !header.is_empty()) {
        text_line(out, shown.iter().map(|&(_, c, h)| (c, h.to_string())));
    }
    for row in &table.rows {
        text_line(
            out,
            shown.iter().map(|&(i, c, _)| (c, cell_text(c, row[i]))),
        );
    }
    if let Some(note) = table.note {
        out.push_str(note);
        out.push('\n');
    }
}

/// One text line: each cell padded to its column's width and alignment,
/// preceded by the column's separator.
fn text_line<'a>(out: &mut String, cells: impl Iterator<Item = (&'a Column, String)>) {
    for (i, (col, cell)) in cells.enumerate() {
        if i > 0 {
            out.push_str(col.sep);
        }
        let w = col.width;
        out.push_str(&if col.left {
            format!("{cell:<w$}")
        } else {
            format!("{cell:>w$}")
        });
    }
    out.push('\n');
}

/// A cell's text before padding: the value at the column's precision,
/// then the column's suffix.
fn cell_text(col: &Column, value: Value) -> String {
    let mut cell = match value {
        Value::Num(v) if v.is_nan() => "-".to_string(),
        Value::Num(v) => match col.precision {
            Some(p) => format!("{v:.p$}"),
            None => v.to_string(),
        },
        Value::Str(s) => s.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Null => String::new(),
    };
    cell.push_str(col.suffix);
    cell
}

/// A table as a JSON array of objects; text-only columns are skipped.
fn table_json(table: &Table) -> Json {
    Json::Arr(
        table
            .rows
            .iter()
            .map(|row| {
                Json::obj(table.columns.iter().zip(row).filter_map(|(c, &v)| {
                    let cell = match v {
                        Value::Num(n) => Json::Num(n),
                        Value::Str(s) => Json::from(s),
                        Value::Bool(b) => Json::Bool(b),
                        Value::Null => Json::Null,
                    };
                    Some((c.key?, cell))
                }))
            })
            .collect(),
    )
}

fn series_json(s: &Series) -> Json {
    Json::obj([
        ("label", Json::from(s.label.as_str())),
        (
            "points",
            Json::Arr(
                s.points
                    .iter()
                    .map(|p| Json::obj([("size", Json::from(p.size)), ("mbps", Json::Num(p.mbps))]))
                    .collect(),
            ),
        ),
    ])
}

/// The Figure 7 side-by-side stage table plus the receive-path totals.
fn stages_text(out: &mut String, a: &[StageRow], b: &[StageRow]) {
    let line = |stage: &str, va: &str, vb: &str| format!("{stage:<18} {va:>10} {vb:>10}\n");
    out.push_str(&line("stage", "7a (us)", "7b (us)"));
    let us = |rows: &[StageRow], name: &str| {
        rows.iter()
            .find(|r| r.stage == name)
            .map(|r| format!("{:.2}", r.us))
    };
    for row in a {
        let va = us(a, &row.stage).unwrap_or_default();
        let vb = us(b, &row.stage).unwrap_or("-".into());
        out.push_str(&line(&row.stage, &va, &vb));
    }
    let total = |rows: &[StageRow]| -> f64 {
        rows.iter()
            .filter(|r| {
                ["driver_rx", "bottom_half", "clic_module_rx", "copy_to_user"]
                    .contains(&r.stage.as_str())
            })
            .map(|r| r.us)
            .sum()
    };
    out.push_str(&format!(
        "receive-path total: 7a = {:.1} us, 7b = {:.1} us (paper: ~20 -> ~5)\n",
        total(a),
        total(b)
    ));
}

fn stages_json(rows: &[StageRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("stage", Json::from(r.stage.as_str())),
                    ("us", Json::Num(r.us)),
                ])
            })
            .collect(),
    )
}

fn scalars_text(out: &mut String, s: &Scalars) {
    out.push_str(&format!(
        "0-byte one-way latency : {:7.1} us   (paper: 36)\n\
         CLIC asymptote MTU9000 : {:7.1} Mb/s (paper: ~600)\n\
         CLIC asymptote MTU1500 : {:7.1} Mb/s (paper: ~450)\n\
         TCP  asymptote MTU9000 : {:7.1} Mb/s (paper: CLIC > 2x TCP)\n\
         CLIC 50%-of-peak (1500): {:7} B    (paper: ~4 KB)\n\
         CLIC 50%-of-peak (9000): {:7} B\n\
         TCP  50%-of-peak       : {:7} B    (paper: ~16 KB)\n",
        s.zero_byte_latency_us,
        s.clic_asymptote_9000_mbps,
        s.clic_asymptote_1500_mbps,
        s.tcp_asymptote_9000_mbps,
        s.clic_half_bandwidth_bytes_1500,
        s.clic_half_bandwidth_bytes_9000,
        s.tcp_half_bandwidth_bytes
    ));
}

fn scalars_json(s: &Scalars) -> Json {
    Json::obj([
        ("zero_byte_latency_us", Json::Num(s.zero_byte_latency_us)),
        (
            "clic_asymptote_9000_mbps",
            Json::Num(s.clic_asymptote_9000_mbps),
        ),
        (
            "clic_asymptote_1500_mbps",
            Json::Num(s.clic_asymptote_1500_mbps),
        ),
        (
            "tcp_asymptote_9000_mbps",
            Json::Num(s.tcp_asymptote_9000_mbps),
        ),
        (
            "clic_half_bandwidth_bytes_1500",
            Json::from(s.clic_half_bandwidth_bytes_1500),
        ),
        (
            "clic_half_bandwidth_bytes_9000",
            Json::from(s.clic_half_bandwidth_bytes_9000),
        ),
        (
            "tcp_half_bandwidth_bytes",
            Json::from(s.tcp_half_bandwidth_bytes),
        ),
    ])
}

/// The text of `figures claims`: one PASS/FAIL entry per claim and the
/// reproduced count.
pub fn claims_text(rows: &[ClaimRow]) -> String {
    let mut out = String::from("== Paper-claim checklist ==\n");
    for r in rows {
        out.push_str(&format!(
            "[{}] {:<4} {}\n        measured: {}\n",
            if r.pass { "PASS" } else { "FAIL" },
            r.id,
            r.claim,
            r.measured
        ));
    }
    out.push_str(&format!(
        "\n{} of {} claims reproduced\n",
        rows.iter().filter(|r| r.pass).count(),
        rows.len()
    ));
    out
}

/// The JSON of `figures claims --json`.
pub fn claims_json(rows: &[ClaimRow]) -> String {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("id", Json::from(r.id.as_str())),
                    ("claim", Json::from(r.claim.as_str())),
                    ("measured", Json::from(r.measured.as_str())),
                    ("pass", Json::from(r.pass)),
                ])
            })
            .collect(),
    )
    .pretty()
}

/// Render a set of bandwidth series as CSV: a `size` column followed by
/// one column per series.
pub fn series_csv(series: &[Series]) -> String {
    let mut out = String::from("size_bytes");
    for s in series {
        out.push(',');
        out.push_str(&s.label.replace(',', ";"));
    }
    out.push('\n');
    let sizes: Vec<usize> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.size).collect())
        .unwrap_or_default();
    for (i, size) in sizes.iter().enumerate() {
        out.push_str(&size.to_string());
        for s in series {
            out.push(',');
            let v = s.points.get(i).map(|p| p.mbps).unwrap_or(f64::NAN);
            out.push_str(&format!("{v:.1}"));
        }
        out.push('\n');
    }
    out
}

/// Render a crude log-x ASCII chart of the series (who-wins at a glance).
pub fn series_ascii(series: &[Series], width: usize) -> String {
    let peak = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.mbps))
        .fold(1.0f64, f64::max);
    let mut out = String::new();
    for s in series {
        out.push_str(&format!("{:<28}\n", s.label));
        for p in &s.points {
            let bars = ((p.mbps / peak) * width as f64).round() as usize;
            out.push_str(&format!(
                "  {:>9} | {:<w$} {:>7.1} Mb/s\n",
                human_size(p.size),
                "#".repeat(bars),
                p.mbps,
                w = width
            ));
        }
    }
    out
}

fn human_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clic_cluster::experiments::SeriesPoint;

    fn sample() -> Vec<Series> {
        vec![
            Series {
                label: "A".into(),
                points: vec![
                    SeriesPoint {
                        size: 64,
                        mbps: 10.0,
                    },
                    SeriesPoint {
                        size: 1024,
                        mbps: 100.0,
                    },
                ],
            },
            Series {
                label: "B".into(),
                points: vec![
                    SeriesPoint {
                        size: 64,
                        mbps: 5.0,
                    },
                    SeriesPoint {
                        size: 1024,
                        mbps: 50.0,
                    },
                ],
            },
        ]
    }

    #[test]
    fn csv_layout() {
        let csv = series_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "size_bytes,A,B");
        assert_eq!(lines[1], "64,10.0,5.0");
        assert_eq!(lines[2], "1024,100.0,50.0");
    }

    #[test]
    fn ascii_contains_labels_and_bars() {
        let txt = series_ascii(&sample(), 20);
        assert!(txt.contains('A'));
        assert!(txt.contains("1K"));
        assert!(txt.contains('#'));
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(64), "64B");
        assert_eq!(human_size(2048), "2K");
        assert_eq!(human_size(4 << 20), "4M");
    }
}
