//! Static parsing of the central observability catalog
//! (`crates/sim/src/catalog.rs`).
//!
//! The analyzer re-reads the catalog from source rather than linking
//! against `clic-sim`, so `clic-analyze` stays dependency-free and can
//! lint a workspace that does not currently compile. Parsing leans on the
//! catalog's enforced shape: two `const` arrays (`METRICS`, `STAGES`)
//! whose elements are struct literals in which the **first string literal
//! is the name** and, for metrics, the `C`/`G`/`H`/`TL`/`TR` (or
//! spelled-out `Sink::*`) identifiers list the entry's sinks.

use crate::lexer::{lex, TokKind};

/// Where a recorded value goes, mirroring `clic_sim::catalog::Sink`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sink {
    /// Registry counter.
    Counter,
    /// Registry gauge.
    Gauge,
    /// Registry histogram.
    Histogram,
    /// Timeline level series.
    TimelineLevel,
    /// Timeline rate series.
    TimelineRate,
}

impl Sink {
    /// Display name, matching the read/write call family.
    pub fn name(self) -> &'static str {
        match self {
            Sink::Counter => "counter",
            Sink::Gauge => "gauge",
            Sink::Histogram => "histogram",
            Sink::TimelineLevel => "timeline level",
            Sink::TimelineRate => "timeline rate",
        }
    }

    fn parse(ident: &str) -> Option<Sink> {
        match ident {
            "C" | "Counter" => Some(Sink::Counter),
            "G" | "Gauge" => Some(Sink::Gauge),
            "H" | "Histogram" => Some(Sink::Histogram),
            "TL" | "TimelineLevel" => Some(Sink::TimelineLevel),
            "TR" | "TimelineRate" => Some(Sink::TimelineRate),
            _ => None,
        }
    }
}

/// One parsed catalog entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Registered name.
    pub name: String,
    /// Declared sinks of a metric entry, in declaration order; empty for
    /// stage entries.
    pub sinks: Vec<Sink>,
    /// 1-based line of the entry in `catalog.rs`.
    pub line: u32,
}

impl Entry {
    /// The sinks as a display list (`gauge+histogram+timeline level`).
    pub fn sinks_label(&self) -> String {
        let names: Vec<&str> = self.sinks.iter().map(|s| s.name()).collect();
        names.join("+")
    }
}

/// The parsed catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    /// Metric entries in declaration order.
    pub metrics: Vec<Entry>,
    /// Stage entries in declaration order.
    pub stages: Vec<Entry>,
}

impl Catalog {
    /// Whether `name` (already node-prefix-stripped) is registered.
    pub fn has_name(&self, name: &str) -> bool {
        self.metrics.iter().any(|e| e.name == name)
    }

    /// Whether `name` (already node-prefix-stripped) is registered with
    /// `sink`.
    pub fn has_metric(&self, name: &str, sink: Sink) -> bool {
        self.metrics
            .iter()
            .any(|e| e.name == name && e.sinks.contains(&sink))
    }

    /// Whether `name` is a registered stage.
    pub fn has_stage(&self, name: &str) -> bool {
        self.stages.iter().any(|e| e.name == name)
    }
}

/// Strip an `n<idx>.` per-node prefix (mirrors
/// `clic_sim::catalog::strip_node_prefix`).
pub fn strip_node_prefix(name: &str) -> &str {
    let Some(rest) = name.strip_prefix('n') else {
        return name;
    };
    let Some(dot) = rest.find('.') else {
        return name;
    };
    if dot > 0 && rest[..dot].bytes().all(|b| b.is_ascii_digit()) {
        &rest[dot + 1..]
    } else {
        name
    }
}

/// Parse the catalog source. Returns `Err` with a human message when the
/// expected `METRICS` / `STAGES` arrays cannot be found.
pub fn parse(src: &str) -> Result<Catalog, String> {
    let lexed = lex(src);
    let metrics = parse_array(&lexed.toks, "METRICS", true)
        .ok_or("catalog.rs: could not locate `const METRICS` array")?;
    let stages = parse_array(&lexed.toks, "STAGES", false)
        .ok_or("catalog.rs: could not locate `const STAGES` array")?;
    Ok(Catalog { metrics, stages })
}

/// Find `const <name>` and parse its bracketed array of struct-literal
/// elements.
fn parse_array(toks: &[crate::lexer::Tok], name: &str, with_sinks: bool) -> Option<Vec<Entry>> {
    // Locate `const <name>`.
    let mut start = None;
    for i in 0..toks.len().saturating_sub(1) {
        if matches!(&toks[i].kind, TokKind::Ident(s) if s == "const")
            && matches!(&toks[i + 1].kind, TokKind::Ident(s) if s == name)
        {
            start = Some(i + 2);
            break;
        }
    }
    let mut i = start?;
    // Skip the type annotation: advance past `=` before looking for the
    // array literal's `[` (the type `&[MetricDef]` also contains one).
    while i < toks.len() && !matches!(toks[i].kind, TokKind::Punct('=')) {
        i += 1;
    }
    while i < toks.len() && !matches!(toks[i].kind, TokKind::Punct('[')) {
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    i += 1;
    // Elements are `{ ... }` groups; scan each for its first string
    // literal (the name) and its sink identifiers.
    let mut entries = Vec::new();
    let mut depth = 0i32;
    let mut current: Option<Entry> = None;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') => {
                if depth == 0 {
                    current = Some(Entry {
                        name: String::new(),
                        sinks: Vec::new(),
                        line: toks[i].line,
                    });
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    if let Some(e) = current.take() {
                        if !e.name.is_empty() {
                            entries.push(e);
                        }
                    }
                }
            }
            TokKind::Punct(']') if depth == 0 => break,
            TokKind::Str(s) => {
                if let Some(e) = current.as_mut() {
                    if e.name.is_empty() {
                        e.name.clone_from(s);
                    }
                }
            }
            TokKind::Ident(id) if with_sinks => {
                if let (Some(e), Some(s)) = (current.as_mut(), Sink::parse(id)) {
                    if !e.sinks.contains(&s) {
                        e.sinks.push(s);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
const C: Sink = Sink::Counter;
pub const METRICS: &[MetricDef] = &[
    MetricDef { name: "a.one", sinks: &[C], help: "first" },
    MetricDef { name: "b.two", sinks: &[Sink::Histogram, TR], help: "second" },
];
pub const STAGES: &[StageDef] = &[
    StageDef { name: "wire", layers: &[Layer::Eth], help: "w" },
];
"#;

    #[test]
    fn parses_names_kinds_and_lines() {
        let c = parse(SAMPLE).unwrap();
        assert_eq!(c.metrics.len(), 2);
        assert_eq!(c.metrics[0].name, "a.one");
        assert_eq!(c.metrics[0].sinks, vec![Sink::Counter]);
        assert_eq!(c.metrics[1].name, "b.two");
        assert_eq!(
            c.metrics[1].sinks,
            vec![Sink::Histogram, Sink::TimelineRate]
        );
        assert_eq!(c.metrics[1].sinks_label(), "histogram+timeline rate");
        assert_eq!(c.metrics[0].line, 4);
        assert_eq!(c.stages.len(), 1);
        assert_eq!(c.stages[0].name, "wire");
        assert!(c.stages[0].sinks.is_empty());
        assert!(c.has_metric("a.one", Sink::Counter));
        assert!(!c.has_metric("a.one", Sink::Gauge));
        assert!(c.has_name("b.two") && !c.has_name("c.three"));
        assert!(c.has_stage("wire"));
    }

    #[test]
    fn missing_arrays_error() {
        assert!(parse("pub fn nothing() {}").is_err());
    }

    #[test]
    fn node_prefix_strip_matches_runtime() {
        assert_eq!(strip_node_prefix("n3.os.irqs"), "os.irqs");
        assert_eq!(strip_node_prefix("os.irqs"), "os.irqs");
        assert_eq!(strip_node_prefix("nx.os.irqs"), "nx.os.irqs");
    }

    #[test]
    fn parses_the_real_catalog() {
        let root = crate::workspace::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let src = std::fs::read_to_string(root.join("crates/sim/src/catalog.rs")).unwrap();
        let c = parse(&src).unwrap();
        assert!(c.metrics.len() >= 40, "found {}", c.metrics.len());
        assert!(c.stages.len() >= 20, "found {}", c.stages.len());
        assert!(c.has_metric("clic.retransmits", Sink::Counter));
        assert!(c.has_metric("eth.switch.queue_depth", Sink::Gauge));
        assert!(c.has_metric("eth.switch.queue_depth", Sink::Histogram));
        assert!(c.has_metric("eth.switch.queue_depth", Sink::TimelineLevel));
        assert!(c.has_metric("hw.pci.dma_bytes", Sink::TimelineRate));
        assert!(c.has_stage("driver_rx"));
        assert!(
            c.metrics.iter().all(|m| !m.sinks.is_empty()),
            "every metric entry needs a sink"
        );
    }
}
