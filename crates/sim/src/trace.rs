//! Structured cross-layer tracing.
//!
//! Every protocol layer of the simulated stack — the CLIC module, the
//! kernel/driver, the NIC and buses, the Ethernet fabric, the TCP/IP
//! comparison stack and the MPI layer — emits typed records into one
//! [`Trace`] sink: begin/end marks that fold into [`StageSpan`]s (the
//! paper's Figure 7 pipeline stages) and [`Mark::Instant`] events for
//! one-shot occurrences (drops, retransmits, timeouts). Records carry the
//! emitting [`Layer`], a stable stage name and the packet/message id they
//! refer to, and are stamped with virtual [`SimTime`] only — a trace is a
//! pure function of the simulation's configuration and seed, so the
//! Chrome-trace export ([`Trace::chrome_trace_json`]) is byte-reproducible.
//!
//! Tracing is off by default — records cost one branch when disabled.

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// The protocol layer a trace record was emitted from. Determines the
/// Chrome-trace track (`tid`) the record renders on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Application / workload code.
    App,
    /// The CLIC protocol module (`clic-core`).
    Clic,
    /// Kernel, driver and socket buffers (`clic-os`).
    Os,
    /// NIC, PCI and memory buses (`clic-hw`).
    Hw,
    /// Links and switches (`clic-ethernet`).
    Eth,
    /// The TCP/IP comparison stack (`clic-tcpip`).
    TcpIp,
    /// The MPI/PVM message layer (`clic-mpi`).
    Mpi,
}

impl Layer {
    /// Every layer, in track order.
    pub const ALL: [Layer; 7] = [
        Layer::App,
        Layer::Clic,
        Layer::Os,
        Layer::Hw,
        Layer::Eth,
        Layer::TcpIp,
        Layer::Mpi,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::App => "app",
            Layer::Clic => "clic",
            Layer::Os => "os",
            Layer::Hw => "hw",
            Layer::Eth => "eth",
            Layer::TcpIp => "tcpip",
            Layer::Mpi => "mpi",
        }
    }

    /// Chrome-trace track id of this layer.
    fn tid(self) -> usize {
        match self {
            Layer::App => 0,
            Layer::Clic => 1,
            Layer::Os => 2,
            Layer::Hw => 3,
            Layer::Eth => 4,
            Layer::TcpIp => 5,
            Layer::Mpi => 6,
        }
    }
}

/// What kind of record a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// A stage starts.
    Begin,
    /// A stage ends.
    End,
    /// A one-shot occurrence (drop, retransmit, timeout).
    Instant,
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the record was emitted.
    pub time: SimTime,
    /// Emitting layer.
    pub layer: Layer,
    /// Stable stage/event name (e.g. `"driver_rx"`, `"retransmit"`).
    pub stage: &'static str,
    /// Packet (or message) identity the record refers to.
    pub id: u64,
    /// Begin, end or instant.
    pub mark: Mark,
}

/// A folded per-packet stage span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// Emitting layer.
    pub layer: Layer,
    /// Stage name.
    pub stage: &'static str,
    /// Packet id.
    pub id: u64,
    /// Span start.
    pub begin: SimTime,
    /// Span end.
    pub end: SimTime,
}

impl StageSpan {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.begin
    }
}

/// A begin/end mark that could not be paired when folding spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A `Begin` mark never saw a matching `End`.
    UnmatchedBegin {
        /// Stage of the orphaned begin.
        stage: &'static str,
        /// Packet id of the orphaned begin.
        id: u64,
        /// When it was emitted.
        time: SimTime,
    },
    /// An `End` mark arrived with no open `Begin`.
    UnmatchedEnd {
        /// Stage of the orphaned end.
        stage: &'static str,
        /// Packet id of the orphaned end.
        id: u64,
        /// When it was emitted.
        time: SimTime,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnmatchedBegin { stage, id, time } => {
                write!(
                    f,
                    "begin mark for stage {stage:?} id {id} at {time} never ended"
                )
            }
            TraceError::UnmatchedEnd { stage, id, time } => {
                write!(
                    f,
                    "end mark for stage {stage:?} id {id} at {time} has no open begin"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Trace sink. Cheap no-op when disabled.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        Trace {
            enabled: false,
            events: Vec::new(),
        }
    }

    /// A recording sink.
    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// Whether records are kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn push(&mut self, time: SimTime, layer: Layer, stage: &'static str, id: u64, mark: Mark) {
        if self.enabled {
            self.events.push(TraceEvent {
                time,
                layer,
                stage,
                id,
                mark,
            });
        }
    }

    /// Emit a begin mark.
    pub fn begin(&mut self, time: SimTime, layer: Layer, stage: &'static str, id: u64) {
        self.push(time, layer, stage, id, Mark::Begin);
    }

    /// Emit an end mark.
    pub fn end(&mut self, time: SimTime, layer: Layer, stage: &'static str, id: u64) {
        self.push(time, layer, stage, id, Mark::End);
    }

    /// Emit an instant event (drop, retransmit, timeout).
    pub fn instant(&mut self, time: SimTime, layer: Layer, stage: &'static str, id: u64) {
        self.push(time, layer, stage, id, Mark::Instant);
    }

    /// Raw records, in emission order.
    #[cfg(test)]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Stage names recorded in this trace that are missing from the
    /// central [`crate::catalog`], deduplicated and sorted — empty on a
    /// catalog-clean trace. Mirrors
    /// [`Metrics::uncataloged`](crate::metrics::Metrics::uncataloged);
    /// `clic-analyze` enforces the same property statically.
    pub fn uncataloged_stages(&self) -> Vec<&'static str> {
        let mut bad: Vec<&'static str> = self
            .events
            .iter()
            .map(|e| e.stage)
            .filter(|s| !crate::catalog::is_stage(s))
            .collect();
        bad.sort_unstable();
        bad.dedup();
        bad
    }

    /// Instant events, in emission order.
    pub fn instants(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.mark == Mark::Instant)
    }

    /// Fold begin/end marks into spans without judging stray marks.
    /// Begin/end pairs match FIFO per `(id, layer, stage)`, so a repeated
    /// stage (fragmentation, retransmission) yields multiple spans.
    /// Returns the spans sorted by `(id, begin, end)` plus every mark that
    /// found no partner.
    fn fold<'a, I>(events: I) -> (Vec<StageSpan>, Vec<TraceEvent>)
    where
        I: Iterator<Item = &'a TraceEvent>,
    {
        type Key = (u64, Layer, &'static str);
        let mut open: BTreeMap<Key, Vec<SimTime>> = BTreeMap::new();
        let mut spans = Vec::new();
        let mut strays = Vec::new();
        for ev in events {
            let key = (ev.id, ev.layer, ev.stage);
            match ev.mark {
                Mark::Instant => {}
                Mark::Begin => open.entry(key).or_default().push(ev.time),
                Mark::End => match open
                    .get_mut(&key)
                    .and_then(|starts| (!starts.is_empty()).then(|| starts.remove(0)))
                {
                    Some(begin) => spans.push(StageSpan {
                        layer: ev.layer,
                        stage: ev.stage,
                        id: ev.id,
                        begin,
                        end: ev.time,
                    }),
                    None => strays.push(ev.clone()),
                },
            }
        }
        // Leftover opens, deterministically ordered.
        let mut leftovers: Vec<TraceEvent> = Vec::new();
        for ((id, layer, stage), starts) in open {
            for time in starts {
                leftovers.push(TraceEvent {
                    time,
                    layer,
                    stage,
                    id,
                    mark: Mark::Begin,
                });
            }
        }
        leftovers.sort_by_key(|e| (e.time, e.id, e.layer, e.stage));
        strays.extend(leftovers);
        spans.sort_by_key(|s| (s.id, s.begin, s.end));
        (spans, strays)
    }

    /// Fold all marks into spans, rejecting malformed traces: any begin
    /// without an end (or vice versa) is surfaced as a [`TraceError`]
    /// rather than silently dropped.
    #[cfg(test)]
    pub fn spans(&self) -> Result<Vec<StageSpan>, TraceError> {
        let (spans, strays) = Self::fold(self.events.iter());
        match strays.into_iter().next() {
            None => Ok(spans),
            Some(e) => Err(match e.mark {
                Mark::End => TraceError::UnmatchedEnd {
                    stage: e.stage,
                    id: e.id,
                    time: e.time,
                },
                _ => TraceError::UnmatchedBegin {
                    stage: e.stage,
                    id: e.id,
                    time: e.time,
                },
            }),
        }
    }

    /// Spans for one packet id (strict, like [`Trace::spans`], but only
    /// marks for `id` are considered).
    pub fn spans_for(&self, id: u64) -> Result<Vec<StageSpan>, TraceError> {
        let (spans, strays) = Self::fold(self.events.iter().filter(|e| e.id == id));
        match strays.into_iter().next() {
            None => Ok(spans),
            Some(e) => Err(match e.mark {
                Mark::End => TraceError::UnmatchedEnd {
                    stage: e.stage,
                    id: e.id,
                    time: e.time,
                },
                _ => TraceError::UnmatchedBegin {
                    stage: e.stage,
                    id: e.id,
                    time: e.time,
                },
            }),
        }
    }

    /// Export the trace as Chrome trace-event JSON (loadable in Perfetto
    /// or `chrome://tracing`). Spans become complete (`"X"`) events,
    /// instants become `"i"` events, and each [`Layer`] renders as its own
    /// named track. Timestamps are virtual microseconds derived from
    /// [`SimTime`] by exact integer arithmetic, so the output is
    /// byte-reproducible for a given simulation. Marks that fold into no
    /// span are exported as `unmatched:<stage>` instants rather than lost.
    pub fn chrome_trace_json(&self) -> String {
        self.chrome_trace_json_with(&[])
    }

    /// [`Trace::chrome_trace_json`] with pre-formatted extra rows (e.g.
    /// [`crate::timeseries::TimelineRecorder::chrome_counter_rows`]
    /// counter tracks) appended after the span/instant rows. With no
    /// extras the output is byte-identical to `chrome_trace_json`, so
    /// golden traces are unaffected by this hook.
    pub fn chrome_trace_json_with(&self, extra_rows: &[String]) -> String {
        // Microseconds with exact fractional nanoseconds, as a JSON number.
        fn us(t: SimTime) -> String {
            let ns = t.as_ns();
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }
        fn dur_us(d: SimDuration) -> String {
            let ns = d.as_ns();
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }

        let (mut spans, strays) = Self::fold(self.events.iter());
        spans.sort_by_key(|s| (s.begin, s.end, s.layer, s.stage, s.id));

        let mut out = String::from("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n");
        let mut rows: Vec<String> = Vec::new();
        rows.push(
            "    {\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", \
             \"args\": {\"name\": \"clic-sim\"}}"
                .to_string(),
        );
        for layer in Layer::ALL {
            if self.events.iter().any(|e| e.layer == layer) {
                rows.push(format!(
                    "    {{\"ph\": \"M\", \"pid\": 0, \"tid\": {}, \"name\": \"thread_name\", \
                     \"args\": {{\"name\": \"{}\"}}}}",
                    layer.tid(),
                    layer.name()
                ));
            }
        }
        for s in &spans {
            rows.push(format!(
                "    {{\"ph\": \"X\", \"pid\": 0, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                 \"name\": \"{}\", \"cat\": \"{}\", \"args\": {{\"id\": {}}}}}",
                s.layer.tid(),
                us(s.begin),
                dur_us(s.duration()),
                s.stage,
                s.layer.name(),
                s.id
            ));
        }
        let mut points: Vec<&TraceEvent> = self.instants().collect();
        points.sort_by_key(|e| (e.time, e.layer, e.stage, e.id));
        for e in points {
            rows.push(format!(
                "    {{\"ph\": \"i\", \"pid\": 0, \"tid\": {}, \"ts\": {}, \"s\": \"t\", \
                 \"name\": \"{}\", \"cat\": \"{}\", \"args\": {{\"id\": {}}}}}",
                e.layer.tid(),
                us(e.time),
                e.stage,
                e.layer.name(),
                e.id
            ));
        }
        for e in &strays {
            rows.push(format!(
                "    {{\"ph\": \"i\", \"pid\": 0, \"tid\": {}, \"ts\": {}, \"s\": \"t\", \
                 \"name\": \"unmatched:{}\", \"cat\": \"{}\", \"args\": {{\"id\": {}}}}}",
                e.layer.tid(),
                us(e.time),
                e.stage,
                e.layer.name(),
                e.id
            ));
        }
        rows.extend(extra_rows.iter().cloned());
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::disabled();
        t.begin(SimTime::ZERO, Layer::Os, "x", 1);
        t.end(SimTime::from_us(1), Layer::Os, "x", 1);
        t.instant(SimTime::from_us(2), Layer::Clic, "drop", 1);
        assert!(t.events().is_empty());
        assert!(t.spans().unwrap().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn spans_pair_begin_end() {
        let mut t = Trace::enabled();
        t.begin(SimTime::from_us(1), Layer::Os, "driver", 7);
        t.end(SimTime::from_us(4), Layer::Os, "driver", 7);
        let spans = t.spans().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, "driver");
        assert_eq!(spans[0].layer, Layer::Os);
        assert_eq!(spans[0].duration(), SimDuration::from_us(3));
    }

    #[test]
    fn repeated_stage_yields_multiple_spans_fifo() {
        let mut t = Trace::enabled();
        t.begin(SimTime::from_us(0), Layer::Hw, "xmit", 1);
        t.end(SimTime::from_us(2), Layer::Hw, "xmit", 1);
        t.begin(SimTime::from_us(10), Layer::Hw, "xmit", 1);
        t.end(SimTime::from_us(13), Layer::Hw, "xmit", 1);
        let spans = t.spans_for(1).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].duration(), SimDuration::from_us(2));
        assert_eq!(spans[1].duration(), SimDuration::from_us(3));
    }

    #[test]
    fn packets_do_not_cross_match() {
        let mut t = Trace::enabled();
        t.begin(SimTime::from_us(1), Layer::Os, "s", 2);
        t.end(SimTime::from_us(5), Layer::Os, "s", 2);
        // Packet 2's trace folds cleanly in isolation even while packet 1
        // has an open begin elsewhere in the sink.
        t.begin(SimTime::from_us(0), Layer::Os, "s", 1);
        let spans = t.spans_for(2).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].id, 2);
        assert_eq!(spans[0].duration(), SimDuration::from_us(4));
    }

    #[test]
    fn unmatched_begin_is_surfaced() {
        let mut t = Trace::enabled();
        t.begin(SimTime::from_us(3), Layer::Clic, "tx", 9);
        assert_eq!(
            t.spans(),
            Err(TraceError::UnmatchedBegin {
                stage: "tx",
                id: 9,
                time: SimTime::from_us(3),
            })
        );
        assert_eq!(t.spans_for(9), t.spans());
        // Other ids are unaffected.
        assert_eq!(t.spans_for(1), Ok(vec![]));
    }

    #[test]
    fn unmatched_end_is_surfaced() {
        let mut t = Trace::enabled();
        t.end(SimTime::from_us(5), Layer::Os, "s", 1);
        let err = t.spans().unwrap_err();
        assert_eq!(
            err,
            TraceError::UnmatchedEnd {
                stage: "s",
                id: 1,
                time: SimTime::from_us(5),
            }
        );
        assert!(err.to_string().contains("no open begin"));
    }

    #[test]
    fn layers_do_not_cross_match() {
        let mut t = Trace::enabled();
        t.begin(SimTime::from_us(0), Layer::Os, "s", 1);
        t.end(SimTime::from_us(2), Layer::Hw, "s", 1);
        assert!(
            t.spans().is_err(),
            "marks from different layers must not pair"
        );
    }

    #[test]
    fn overlapping_stages_on_one_packet() {
        let mut t = Trace::enabled();
        t.begin(SimTime::from_us(0), Layer::Os, "a", 1);
        t.begin(SimTime::from_us(1), Layer::Os, "b", 1);
        t.end(SimTime::from_us(2), Layer::Os, "a", 1);
        t.end(SimTime::from_us(3), Layer::Os, "b", 1);
        let spans = t.spans_for(1).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "a");
        assert_eq!(spans[1].stage, "b");
    }

    #[test]
    fn instants_do_not_disturb_spans() {
        let mut t = Trace::enabled();
        t.begin(SimTime::from_us(0), Layer::Clic, "rx", 1);
        t.instant(SimTime::from_us(1), Layer::Clic, "drop.duplicate", 2);
        t.end(SimTime::from_us(2), Layer::Clic, "rx", 1);
        assert_eq!(t.spans().unwrap().len(), 1);
        let instants: Vec<_> = t.instants().collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].stage, "drop.duplicate");
    }

    #[test]
    fn chrome_export_shape_and_determinism() {
        let mut t = Trace::enabled();
        t.begin(SimTime::from_ns(1_500), Layer::Os, "driver_rx", 42);
        t.end(SimTime::from_ns(11_750), Layer::Os, "driver_rx", 42);
        t.instant(SimTime::from_us(20), Layer::Clic, "retransmit", 42);
        let json = t.chrome_trace_json();
        assert_eq!(json, t.chrome_trace_json(), "export must be reproducible");
        assert!(json.contains("\"traceEvents\""));
        // Exact fixed-point microsecond timestamps.
        assert!(json.contains("\"ts\": 1.500"), "{json}");
        assert!(json.contains("\"dur\": 10.250"), "{json}");
        assert!(json.contains("\"name\": \"driver_rx\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"thread_name\""));
        // Only layers with events get a track label.
        assert!(json.contains("\"name\": \"os\""));
        assert!(!json.contains("\"name\": \"mpi\""));
    }

    #[test]
    fn uncataloged_stages_are_reported() {
        let mut t = Trace::enabled();
        t.begin(SimTime::ZERO, Layer::Os, "driver_rx", 1);
        t.end(SimTime::from_us(1), Layer::Os, "driver_rx", 1);
        assert!(t.uncataloged_stages().is_empty());
        t.instant(SimTime::from_us(2), Layer::Clic, "bogus", 1);
        t.instant(SimTime::from_us(3), Layer::Clic, "bogus", 2);
        assert_eq!(t.uncataloged_stages(), vec!["bogus"]);
    }

    #[test]
    fn chrome_export_keeps_unmatched_marks_visible() {
        let mut t = Trace::enabled();
        t.begin(SimTime::from_us(1), Layer::Hw, "dma", 3);
        let json = t.chrome_trace_json();
        assert!(json.contains("unmatched:dma"), "{json}");
    }
}
