//! Deterministic time-resolved telemetry: the timeline recorder.
//!
//! End-of-run aggregates ([`crate::metrics::Metrics`]) say *that* a switch
//! queue filled or a window collapsed, never *when* or *for how long*. The
//! [`TimelineRecorder`] answers the time-resolved question: it samples
//! catalogued gauges (instantaneous level) and counters (per-bucket
//! increments) into fixed-width buckets of **simulated** time, producing
//! plottable series — switch queue depth over time, per-bucket link byte
//! rate, effective window trajectory — for the scenarios the experiment
//! layer replays.
//!
//! ## Determinism
//!
//! A sample's bucket index is a pure function of the simulation clock
//! (`time_ns / bucket_ns`, exact integer division) and recording happens
//! only inside event handlers, which the engine executes in one
//! deterministic order. There is no wall clock and no sampling thread:
//! "sampling at bucket boundaries" is implemented by rolling each series
//! forward lazily whenever a recording call crosses into a later bucket —
//! gauges carry their last-written level across empty buckets (a gauge is
//! a step function, so the level at a boundary *is* the last write before
//! it), counters emit their accumulated delta and restart from zero. The
//! resulting bytes depend only on the simulated run, never on host timing
//! or on how many worker processes replayed sibling scenarios.
//!
//! ## Flight recorder
//!
//! Chaos-soak-length runs would accumulate unbounded series; the
//! [`TimelineRecorder::flight_recorder`] mode bounds every series to the
//! most recent `capacity` sealed buckets, evicting the oldest. Eviction is
//! per-series and purely count-based, so it is exactly as deterministic as
//! the samples themselves.
//!
//! ## Identity
//!
//! Series are keyed by interned catalog id ([`MetricId`], the same
//! compile-time interning metrics use). The catalog entry decides whether
//! an id has a series at all and whether it is a level
//! ([`Sink::TimelineLevel`]) or a rate ([`Sink::TimelineRate`]); values
//! arrive through [`crate::Sim::record`] like every other sink.
//!
//! The recorder is off by default ([`TimelineRecorder::disabled`] is a
//! single-branch no-op), so paper-grade runs are byte-identical with the
//! recorder absent.

use std::collections::{BTreeMap, VecDeque};

use crate::catalog::{self, MetricId, Sink};
use crate::time::{SimDuration, SimTime};

/// How a series folds multiple writes into one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeriesKind {
    /// Instantaneous level: the bucket holds the last value written in
    /// it; empty buckets carry the previous level forward.
    Level,
    /// Monotonic increments: the bucket holds the sum of deltas recorded
    /// in it; empty buckets hold zero.
    Rate,
}

/// One bucketed series: sealed buckets plus the bucket currently
/// accumulating.
#[derive(Debug, Clone)]
struct Series {
    kind: SeriesKind,
    /// Bucket index of `sealed[0]` (advances under ring eviction).
    start: u64,
    sealed: VecDeque<i64>,
    /// Bucket currently accumulating (always >= `start + sealed.len()`).
    cur_bucket: u64,
    /// Level (gauge) or accumulated delta (counter) of `cur_bucket`.
    cur: i64,
}

impl Series {
    fn new(kind: SeriesKind, bucket: u64) -> Series {
        Series {
            kind,
            start: bucket,
            sealed: VecDeque::new(),
            cur_bucket: bucket,
            cur: 0,
        }
    }

    /// Seal buckets up to (excluding) `bucket`, filling gaps per kind and
    /// applying ring eviction.
    fn advance_to(&mut self, bucket: u64, capacity: Option<usize>) {
        while self.cur_bucket < bucket {
            self.sealed.push_back(self.cur);
            if let Some(cap) = capacity {
                while self.sealed.len() > cap {
                    self.sealed.pop_front();
                    self.start += 1;
                }
            }
            self.cur_bucket += 1;
            if self.kind == SeriesKind::Rate {
                self.cur = 0;
            }
            // Level series keep `cur` (carry the last level forward).
        }
    }

    /// Seal the current (possibly partial) bucket as the final sample.
    fn seal_last(&mut self, capacity: Option<usize>) {
        self.sealed.push_back(self.cur);
        if let Some(cap) = capacity {
            while self.sealed.len() > cap {
                self.sealed.pop_front();
                self.start += 1;
            }
        }
    }
}

/// Records catalogued gauge/counter samples into fixed-width buckets of
/// simulated time. See the [module docs](self) for semantics.
#[derive(Debug, Clone)]
pub struct TimelineRecorder {
    enabled: bool,
    finished: bool,
    bucket_ns: u64,
    capacity: Option<usize>,
    series: BTreeMap<MetricId, Series>,
}

impl TimelineRecorder {
    /// A recorder that drops every sample (one branch per call). This is
    /// the default on [`crate::engine::Sim`], so paper-grade runs carry no
    /// timeline state at all.
    pub fn disabled() -> TimelineRecorder {
        TimelineRecorder {
            enabled: false,
            finished: false,
            bucket_ns: 1,
            capacity: None,
            series: BTreeMap::new(),
        }
    }

    /// A recorder sampling into `bucket`-wide buckets, unbounded history.
    pub fn enabled(bucket: SimDuration) -> TimelineRecorder {
        assert!(bucket.as_ns() > 0, "zero-width timeline bucket");
        TimelineRecorder {
            enabled: true,
            finished: false,
            bucket_ns: bucket.as_ns(),
            capacity: None,
            series: BTreeMap::new(),
        }
    }

    /// A bounded "flight recorder": every series keeps only its most
    /// recent `capacity` sealed buckets. For chaos-soak-length runs where
    /// only the window around a failure matters.
    pub fn flight_recorder(bucket: SimDuration, capacity: usize) -> TimelineRecorder {
        assert!(capacity > 0, "zero-capacity flight recorder");
        let mut r = TimelineRecorder::enabled(bucket);
        r.capacity = Some(capacity);
        r
    }

    /// Whether samples are being kept. Callers computing a non-trivial
    /// value to record should guard on this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Width of one bucket.
    pub fn bucket_width(&self) -> SimDuration {
        SimDuration::from_ns(self.bucket_ns)
    }

    /// Number of distinct series recorded.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    #[inline]
    fn bucket_of(&self, t: SimTime) -> u64 {
        t.as_ns() / self.bucket_ns
    }

    /// Record `value` on the series of `id` at `now` — the timeline half
    /// of [`crate::Sim::record`]. A level keeps the last value written in
    /// its bucket and later empty buckets inherit it; a rate sums the
    /// values recorded in its bucket (a per-bucket rate once divided by
    /// the bucket width) and empty buckets hold zero.
    #[inline]
    pub(crate) fn record(&mut self, now: SimTime, id: MetricId, value: u64) {
        if !self.enabled || self.finished {
            return;
        }
        let kind = if id.has(Sink::TimelineLevel) {
            SeriesKind::Level
        } else {
            SeriesKind::Rate
        };
        let bucket = self.bucket_of(now);
        let capacity = self.capacity;
        let s = self
            .series
            .entry(id)
            .or_insert_with(|| Series::new(kind, bucket));
        s.advance_to(bucket, capacity);
        match kind {
            SeriesKind::Level => s.cur = value as i64,
            SeriesKind::Rate => s.cur += value as i64,
        }
    }

    /// Seal every series through the bucket containing `now` (the final,
    /// possibly partial, bucket included). Recording after `finish` is
    /// ignored; calling it again is a no-op.
    pub fn finish(&mut self, now: SimTime) {
        if !self.enabled || self.finished {
            return;
        }
        self.finished = true;
        let bucket = self.bucket_of(now);
        let capacity = self.capacity;
        for s in self.series.values_mut() {
            s.advance_to(bucket.max(s.cur_bucket), capacity);
            s.seal_last(capacity);
        }
    }

    /// Exact microseconds of a bucket's start, as a JSON-safe decimal
    /// (`ns/1000` with three fractional digits, like the trace exporter).
    fn bucket_ts_us(&self, bucket: u64) -> String {
        // lint:allow(time-overflow, reason="bucket was derived as timestamp/bucket_ns, so the product is bounded by the original u64 timestamp")
        let ns = bucket * self.bucket_ns;
        format!("{}.{:03}", ns / 1000, ns % 1000)
    }

    /// Sealed samples of the level series `name` as `(bucket start,
    /// level)` pairs. `None` if the name has no level series in the
    /// catalog or was never recorded.
    pub fn gauge_series(&self, name: &str) -> Option<Vec<(SimTime, i64)>> {
        self.series_of(name, Sink::TimelineLevel)
    }

    /// Sealed samples of the rate series `name` as `(bucket start, delta)`
    /// pairs. `None` if the name has no rate series in the catalog or was
    /// never recorded.
    pub fn counter_series(&self, name: &str) -> Option<Vec<(SimTime, i64)>> {
        self.series_of(name, Sink::TimelineRate)
    }

    fn series_of(&self, name: &str, sink: Sink) -> Option<Vec<(SimTime, i64)>> {
        let id = catalog::find_metric(name).filter(|id| id.has(sink))?;
        self.series.get(&id).map(|s| self.samples_of(s))
    }

    fn samples_of(&self, s: &Series) -> Vec<(SimTime, i64)> {
        s.sealed
            .iter()
            .enumerate()
            // lint:allow(time-overflow, reason="start+i indexes sealed buckets (timestamp/bucket_ns), so the product is bounded by the last recorded u64 timestamp")
            .map(|(i, &v)| (SimTime::from_ns((s.start + i as u64) * self.bucket_ns), v))
            .collect()
    }

    /// Deterministic text dump: a CSV with one row per sealed bucket per
    /// series (`series,bucket,t_us,value`), series in interned-id order
    /// (which is name order). Byte-identical for byte-identical runs.
    pub fn dump(&self) -> String {
        let mut out = format!(
            "# timeline bucket_us={}.{:03} series={}\n",
            self.bucket_ns / 1000,
            self.bucket_ns % 1000,
            self.series.len()
        );
        out.push_str("series,bucket,t_us,value\n");
        for (id, s) in &self.series {
            let name = id.def().name;
            for (i, &v) in s.sealed.iter().enumerate() {
                let bucket = s.start + i as u64;
                out.push_str(&format!(
                    "{},{},{},{}\n",
                    name,
                    bucket,
                    self.bucket_ts_us(bucket),
                    v
                ));
            }
        }
        out
    }

    /// Perfetto counter-track rows (`"ph": "C"`) for every sealed bucket,
    /// formatted exactly like the Chrome-trace exporter's rows so they can
    /// be appended to [`crate::trace::Trace::chrome_trace_json_with`].
    /// Perfetto renders each distinct `name` as one counter track. Empty
    /// when nothing was recorded, keeping traces byte-identical.
    pub fn chrome_counter_rows(&self) -> Vec<String> {
        let mut rows = Vec::new();
        for (id, s) in &self.series {
            let name = id.def().name;
            for (i, &v) in s.sealed.iter().enumerate() {
                let bucket = s.start + i as u64;
                rows.push(format!(
                    "    {{\"ph\": \"C\", \"pid\": 0, \"ts\": {}, \"name\": \"{}\", \
                     \"args\": {{\"value\": {}}}}}",
                    self.bucket_ts_us(bucket),
                    name,
                    v
                ));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::metric_id;

    const QDEPTH: MetricId = metric_id("eth.switch.queue_depth");
    const TXB: MetricId = metric_id("eth.link.tx_bytes");

    fn us(n: u64) -> SimTime {
        SimTime::from_us(n)
    }

    #[test]
    fn disabled_records_nothing() {
        let mut r = TimelineRecorder::disabled();
        r.record(us(1), QDEPTH, 5);
        r.record(us(1), TXB, 100);
        r.finish(us(10));
        assert!(!r.is_enabled());
        assert_eq!(r.series_count(), 0);
        assert!(r.chrome_counter_rows().is_empty());
    }

    #[test]
    fn gauge_carries_level_across_empty_buckets() {
        let mut r = TimelineRecorder::enabled(SimDuration::from_us(10));
        r.record(us(5), QDEPTH, 3); // bucket 0
        r.record(us(45), QDEPTH, 7); // bucket 4
        r.finish(us(60)); // seal through bucket 6
        let s = r.gauge_series("eth.switch.queue_depth").expect("recorded");
        assert_eq!(
            s,
            vec![
                (us(0), 3),
                (us(10), 3),
                (us(20), 3),
                (us(30), 3),
                (us(40), 7),
                (us(50), 7),
                (us(60), 7),
            ]
        );
    }

    #[test]
    fn counter_sums_deltas_and_zero_fills() {
        let mut r = TimelineRecorder::enabled(SimDuration::from_us(10));
        r.record(us(1), TXB, 100); // bucket 0
        r.record(us(2), TXB, 50); // bucket 0
        r.record(us(35), TXB, 10); // bucket 3
        r.finish(us(39));
        let s = r.counter_series("eth.link.tx_bytes").expect("recorded");
        assert_eq!(
            s,
            vec![(us(0), 150), (us(10), 0), (us(20), 0), (us(30), 10)]
        );
    }

    #[test]
    fn last_write_in_bucket_wins_for_gauges() {
        let mut r = TimelineRecorder::enabled(SimDuration::from_us(10));
        r.record(us(1), QDEPTH, 1);
        r.record(us(9), QDEPTH, 9); // same bucket: level at the boundary
        r.finish(us(9));
        let s = r.gauge_series("eth.switch.queue_depth").expect("recorded");
        assert_eq!(s, vec![(us(0), 9)]);
    }

    #[test]
    fn series_start_at_first_sample_bucket() {
        let mut r = TimelineRecorder::enabled(SimDuration::from_us(10));
        r.record(us(55), TXB, 7); // bucket 5: no buckets 0-4 invented
        r.finish(us(55));
        let s = r.counter_series("eth.link.tx_bytes").expect("recorded");
        assert_eq!(s, vec![(us(50), 7)]);
    }

    #[test]
    fn flight_recorder_keeps_last_n_with_correct_timestamps() {
        let mut r = TimelineRecorder::flight_recorder(SimDuration::from_us(10), 3);
        for b in 0..10u64 {
            r.record(us(b * 10 + 1), TXB, (b + 1) * 100);
        }
        r.finish(us(99)); // buckets 0..=9 sealed; only 7, 8, 9 survive
        let s = r.counter_series("eth.link.tx_bytes").expect("recorded");
        assert_eq!(s, vec![(us(70), 800), (us(80), 900), (us(90), 1000)]);
    }

    #[test]
    fn finish_is_idempotent_and_stops_recording() {
        let mut r = TimelineRecorder::enabled(SimDuration::from_us(10));
        r.record(us(5), QDEPTH, 2);
        r.finish(us(5));
        r.finish(us(500));
        r.record(us(500), QDEPTH, 9);
        let s = r.gauge_series("eth.switch.queue_depth").expect("recorded");
        assert_eq!(s, vec![(us(0), 2)]);
    }

    #[test]
    fn uncatalogued_lookup_is_none() {
        let r = TimelineRecorder::enabled(SimDuration::from_us(10));
        assert_eq!(r.gauge_series("made.up"), None);
        assert_eq!(r.counter_series("eth.switch.queue_depth"), None); // wrong kind
    }

    #[test]
    fn dump_and_counter_rows_are_deterministic() {
        let build = || {
            let mut r = TimelineRecorder::enabled(SimDuration::from_us(10));
            r.record(us(1), TXB, 100);
            r.record(us(12), QDEPTH, 2);
            r.record(us(25), TXB, 70);
            r.finish(us(30));
            r
        };
        let (a, b) = (build(), build());
        assert_eq!(a.dump(), b.dump());
        assert_eq!(a.chrome_counter_rows(), b.chrome_counter_rows());
        let rows = a.chrome_counter_rows();
        assert!(rows.iter().all(|r| r.contains("\"ph\": \"C\"")));
        assert!(rows
            .iter()
            .any(|r| r.contains("\"name\": \"eth.link.tx_bytes\"")));
    }
}
