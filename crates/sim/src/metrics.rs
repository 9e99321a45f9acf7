//! Per-run metrics registry: counters, gauges and log-bucketed
//! histograms.
//!
//! Every [`crate::Sim`] carries one registry (`sim.metrics`), always on.
//! Components record into it only through [`crate::Sim::record`] with a
//! compile-time [`MetricId`]: the catalog entry behind the id says which
//! of the registry's stores (counter, gauge, histogram) the value lands
//! in, and each store is a plain vector slot indexed by the id. Recording
//! is passive — it never schedules events or touches the RNG — so it
//! cannot change simulation results.
//!
//! The experiment layer reads series back by name and imports per-node
//! stat snapshots under `n<idx>.`-prefixed names
//! ([`Metrics::counter_add`]); those dynamic names live in a `BTreeMap`
//! beside the interned slots. Reads and [`Metrics::dump`] merge-join the
//! two in name order — ascending [`MetricId`] order is ascending name
//! order — so output is deterministic.

use crate::catalog::{self, MetricId, Sink, METRICS};
use std::collections::BTreeMap;

/// Whether `name` equals `suffix`, or ends with it immediately after a
/// `.` separator. Suffix aggregation ([`Metrics::sum_counters`]) matches
/// only at dotted-segment boundaries: `retransmits` binds to `n1.clic.retransmits` but never to
/// `clic.fast_retransmits`, whose trailing segment merely *contains* it.
// lint:allow(dead-fn, reason="helper of Metrics::sum_counters, which the crates/cluster/src/observe.rs tests read")
fn suffix_at_segment_boundary(name: &str, suffix: &str) -> bool {
    if name.len() == suffix.len() {
        return name == suffix;
    }
    name.len() > suffix.len()
        && name.ends_with(suffix)
        && name.as_bytes()[name.len() - suffix.len() - 1] == b'.'
}

/// Log-bucketed histogram of `u64` values (latencies in ns, sizes in
/// bytes, queue depths).
///
/// Bucket 0 holds the value 0; bucket `i` (i ≥ 1) holds values in
/// `[2^(i-1), 2^i)`. Quantiles are estimated by linear interpolation of
/// the target rank inside its bucket, clamped to the exactly-tracked
/// minimum and maximum, so `quantile(1.0)` is always the true max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// New empty histogram (65 buckets cover the full `u64` range).
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_for(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `i`.
    fn bucket_lower(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Exclusive upper bound of bucket `i` (saturating at `u64::MAX`).
    fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 1,
            64 => u64::MAX,
            _ => 1u64 << i,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_for(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimated q-quantile (`0.0..=1.0`), `None` when empty.
    ///
    /// Finds the bucket holding the nearest-rank sample, then linearly
    /// interpolates the rank's position across the bucket's value range;
    /// the estimate is clamped to the true `[min, max]`, and the extreme
    /// quantiles are exact: `quantile(0.0)` is the true minimum and
    /// `quantile(1.0)` the true maximum (interpolation alone could land
    /// mid-bucket below the max when the edge bucket holds several
    /// samples).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min as f64);
        }
        if q == 1.0 {
            return Some(self.max as f64);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lower = Self::bucket_lower(i) as f64;
                let width = (Self::bucket_upper(i) - Self::bucket_lower(i)) as f64;
                // Position of the rank inside this bucket, mid-sample.
                let frac = (rank - seen) as f64 - 0.5;
                let est = lower + width * (frac / c as f64);
                return Some(est.clamp(self.min as f64, self.max as f64));
            }
            seen += c;
        }
        Some(self.max as f64)
    }

    /// Median estimate (`quantile(0.5)`), 0.0 when empty.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5).unwrap_or(0.0)
    }

    /// 95th-percentile estimate, 0.0 when empty.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95).unwrap_or(0.0)
    }

    /// 99th-percentile estimate, 0.0 when empty.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99).unwrap_or(0.0)
    }

    /// Non-empty buckets as `(inclusive lower, exclusive upper, count)`.
    // lint:allow(dead-fn, reason="crates/sim/tests/props.rs reads it")
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lower(i), Self::bucket_upper(i), c))
            .collect()
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Gauge {
    current: i64,
    peak: i64,
}

/// The per-run metrics registry.
///
/// One instance lives on every [`crate::Sim`] (`sim.metrics`); the
/// experiment layer imports per-node stat snapshots into a copy of it.
/// Interned series are listed in id (= name) order and named ones live in
/// a `BTreeMap`, so [`Metrics::dump`] output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Interned stores, indexed by [`MetricId`] and sized to the catalog.
    counters: Vec<u64>,
    gauges: Vec<Gauge>,
    histograms: Vec<Option<LogHistogram>>,
    /// Whether the id was ever recorded (distinguishes "counter at 0"
    /// from "never touched", which the dump omits).
    touched: Vec<bool>,
    /// Counters under names outside the catalog: per-node `n<idx>.`
    /// snapshot imports.
    named_counters: BTreeMap<String, u64>,
}

impl Metrics {
    /// An empty registry with one slot per catalog entry.
    pub fn enabled() -> Self {
        let n = METRICS.len();
        Metrics {
            counters: vec![0; n],
            gauges: vec![Gauge::default(); n],
            histograms: vec![None; n],
            touched: vec![false; n],
            named_counters: BTreeMap::new(),
        }
    }

    /// Feed `v` to every registry store the entry `id` declares — the
    /// registry half of [`crate::Sim::record`].
    #[inline]
    pub(crate) fn record(&mut self, id: MetricId, v: u64) {
        let i = id.index();
        if id.has(Sink::Counter) {
            self.counters[i] += v;
        }
        if id.has(Sink::Gauge) {
            let g = &mut self.gauges[i];
            g.current = v as i64;
            g.peak = g.peak.max(v as i64);
        }
        if id.has(Sink::Histogram) {
            self.histograms[i]
                .get_or_insert_with(LogHistogram::new)
                .record(v);
        }
        self.touched[i] = true;
    }

    /// Add `by` to counter `name`, creating it at zero first: the import
    /// path for end-of-run stat snapshots. Catalog counters share their
    /// slot with [`crate::Sim::record`]; any other name (per-node
    /// `n<idx>.` prefixes) gets its own series.
    pub fn counter_add(&mut self, name: &str, by: u64) {
        match catalog::find_metric(name).filter(|id| id.has(Sink::Counter)) {
            Some(id) => {
                self.counters[id.index()] += by;
                self.touched[id.index()] = true;
            }
            None => *self.named_counters.entry(name.to_string()).or_insert(0) += by,
        }
    }

    /// Whether slot `i` was recorded and its entry declares `sink`.
    fn recorded(&self, i: usize, sink: Sink) -> bool {
        self.touched[i] && METRICS[i].sinks.contains(&sink)
    }

    /// The catalog slot of `name` when the entry declares `sink`.
    fn id_with(name: &str, sink: Sink) -> Option<usize> {
        catalog::find_metric(name)
            .filter(|id| id.has(sink))
            .map(MetricId::index)
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match Self::id_with(name, Sink::Counter) {
            Some(i) => self.counters[i],
            None => self.named_counters.get(name).copied().unwrap_or(0),
        }
    }

    /// Current value of a gauge (0 when absent).
    #[cfg(test)]
    pub fn gauge(&self, name: &str) -> i64 {
        Self::id_with(name, Sink::Gauge).map_or(0, |i| self.gauges[i].current)
    }

    /// Highest value a gauge ever held (0 when absent).
    pub fn gauge_peak(&self, name: &str) -> i64 {
        Self::id_with(name, Sink::Gauge).map_or(0, |i| self.gauges[i].peak)
    }

    /// Histogram by name, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        Self::id_with(name, Sink::Histogram).and_then(|i| self.histograms[i].as_ref())
    }

    /// All counters, in name order (interned and named series merged).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut v: Vec<(&str, u64)> = self
            .named_counters
            .iter()
            .map(|(n, &x)| (n.as_str(), x))
            .collect();
        for (i, m) in METRICS.iter().enumerate() {
            if self.recorded(i, Sink::Counter) {
                v.push((m.name, self.counters[i]));
            }
        }
        v.sort_unstable_by_key(|&(n, _)| n);
        v.into_iter()
    }

    /// Sum of every counter whose name ends with `suffix` at a
    /// `.`-segment boundary — totals across per-node prefixes
    /// (`n0.clic.retransmits` + `n1.clic.retransmits`). A bare
    /// `retransmits` matches `n0.clic.retransmits` but never
    /// `clic.fast_retransmits`: suffixes only bind to whole dotted
    /// segments.
    // lint:allow(dead-fn, reason="the collective trace test in crates/cluster/src/observe.rs reads it")
    pub fn sum_counters(&self, suffix: &str) -> u64 {
        self.counters()
            .filter(|(n, _)| suffix_at_segment_boundary(n, suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Named counters missing from the central [`crate::catalog`]
    /// (per-node `n<idx>.` prefixes are stripped before lookup), in name
    /// order — empty on a catalog-clean registry. Interned series are
    /// catalogued by construction. The experiment layer debug-asserts
    /// this so an unregistered name cannot ship silently; `clic-analyze`
    /// enforces the same property statically.
    pub fn uncataloged(&self) -> Vec<String> {
        self.named_counters
            .keys()
            .filter(|n| !catalog::is_metric(n, Sink::Counter))
            .map(|n| format!("{n} (counter)"))
            .collect()
    }

    /// Deterministic plain-text dump of the whole registry.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let counters: Vec<(&str, u64)> = self.counters().collect();
        if !counters.is_empty() {
            out.push_str("# counters\n");
            for (n, v) in counters {
                out.push_str(&format!("{n} {v}\n"));
            }
        }
        let gauges: Vec<usize> = (0..METRICS.len())
            .filter(|&i| self.recorded(i, Sink::Gauge))
            .collect();
        if !gauges.is_empty() {
            out.push_str("# gauges (current peak)\n");
            for i in gauges {
                let g = self.gauges[i];
                out.push_str(&format!("{} {} {}\n", METRICS[i].name, g.current, g.peak));
            }
        }
        let hists: Vec<(&str, &LogHistogram)> = METRICS
            .iter()
            .zip(&self.histograms)
            .filter_map(|(m, h)| Some((m.name, h.as_ref()?)))
            .collect();
        if !hists.is_empty() {
            out.push_str("# histograms (count mean p50 p95 p99 max)\n");
            for (n, h) in hists {
                out.push_str(&format!(
                    "{n} {} {:.1} {:.1} {:.1} {:.1} {}\n",
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max().unwrap_or(0),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::metric_id;

    #[test]
    fn bucket_boundaries() {
        let mut h = LogHistogram::new();
        // 0 -> bucket 0; 1 -> [1,2); 2,3 -> [2,4); 4 -> [4,8);
        // 1500 -> [1024,2048).
        for v in [0u64, 1, 2, 3, 4, 1500] {
            h.record(v);
        }
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1, 1), (1, 2, 1), (2, 4, 2), (4, 8, 1), (1024, 2048, 1)]
        );
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1500));
        assert!((h.mean() - 1510.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let mut h = LogHistogram::new();
        for _ in 0..100 {
            h.record(1000); // all in bucket [512, 1024)
        }
        // Every sample is 1000: quantile estimates interpolate inside the
        // [512, 1024) bucket but clamp to the exact min/max of 1000.
        assert_eq!(h.quantile(0.0), Some(1000.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
        assert_eq!(h.p50(), 1000.0);

        // Spread across two buckets: the median must fall in the lower
        // bucket's range and interpolation must be monotone in q.
        let mut h = LogHistogram::new();
        for _ in 0..50 {
            h.record(10); // [8, 16)
        }
        for _ in 0..50 {
            h.record(100); // [64, 128)
        }
        let p25 = h.quantile(0.25).unwrap();
        let p50 = h.quantile(0.5).unwrap();
        let p75 = h.quantile(0.75).unwrap();
        assert!((10.0..16.0).contains(&p25), "p25={p25}");
        assert!(p25 <= p50 && p50 <= p75, "{p25} {p50} {p75}");
        assert!((64.0..=100.0).contains(&p75), "p75={p75}");
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p99(), 0.0);
    }

    const RETX: MetricId = metric_id("clic.retransmits");
    const CWND: MetricId = metric_id("clic.cwnd");
    const RTTVAR: MetricId = metric_id("clic.rttvar");
    const QDEPTH: MetricId = metric_id("eth.switch.queue_depth");

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut m = Metrics::enabled();
        assert!(m.dump().is_empty(), "a fresh registry dumps nothing");
        m.record(RETX, 1);
        m.counter_add("clic.retransmits", 2);
        m.record(CWND, 3);
        m.record(CWND, 7);
        m.record(CWND, 2);
        m.record(RTTVAR, 1400);
        assert_eq!(m.counter("clic.retransmits"), 3);
        assert_eq!(m.gauge("clic.cwnd"), 2);
        assert_eq!(m.gauge_peak("clic.cwnd"), 7);
        assert_eq!(m.histogram("clic.rttvar").unwrap().count(), 1);
        // Only the declared sinks are fed: a counter has no histogram.
        assert!(m.histogram("clic.retransmits").is_none());
        assert_eq!(m.gauge("clic.rttvar"), 0);
    }

    #[test]
    fn interned_and_string_paths_share_series() {
        let mut m = Metrics::enabled();
        m.record(RETX, 2);
        m.counter_add("clic.retransmits", 3);
        // One record feeds every registry sink of the entry.
        m.record(QDEPTH, 9);
        m.record(QDEPTH, 4);
        assert_eq!(m.counter("clic.retransmits"), 5);
        assert_eq!(m.gauge("eth.switch.queue_depth"), 4);
        assert_eq!(m.gauge_peak("eth.switch.queue_depth"), 9);
        assert_eq!(m.histogram("eth.switch.queue_depth").unwrap().count(), 2);
        // The dump carries exactly one line per series regardless of path.
        let d = m.dump();
        assert_eq!(d.matches("clic.retransmits").count(), 1);
    }

    #[test]
    fn suffix_totals_across_node_prefixes() {
        let mut m = Metrics::enabled();
        m.counter_add("n0.clic.retransmits", 2);
        m.counter_add("n1.clic.retransmits", 3);
        assert_eq!(m.sum_counters("clic.retransmits"), 5);
        assert_eq!(m.counter("clic.retransmits"), 0);
    }

    #[test]
    fn suffix_matching_honours_segment_boundaries() {
        // Regression: a bare `retransmits` suffix must not aggregate
        // `fast_retransmits`, whose final segment merely contains it.
        let mut m = Metrics::enabled();
        m.counter_add("clic.retransmits", 2);
        m.counter_add("n0.clic.retransmits", 3);
        m.counter_add("clic.fast_retransmits", 100);
        m.counter_add("tcp.fast_retransmits", 200);
        assert_eq!(m.sum_counters("retransmits"), 5);
        assert_eq!(m.sum_counters("fast_retransmits"), 300);
        assert_eq!(m.sum_counters("clic.retransmits"), 5);
        // An exact full-name match still counts itself once.
        assert_eq!(m.sum_counters("clic.fast_retransmits"), 100);
        // Partial segments never match, in either position.
        assert_eq!(m.sum_counters("ransmits"), 0);
        assert_eq!(m.sum_counters("ic.retransmits"), 0);
    }

    #[test]
    fn uncataloged_names_are_reported() {
        let mut m = Metrics::enabled();
        m.counter_add("clic.retransmits", 1);
        m.counter_add("n0.os.syscalls", 1);
        m.record(QDEPTH, 1);
        assert!(m.uncataloged().is_empty());
        m.counter_add("made.up", 1);
        m.counter_add("n0.clic.cwnd", 1); // gauge name imported as a counter
        assert_eq!(
            m.uncataloged(),
            vec!["made.up (counter)", "n0.clic.cwnd (counter)"]
        );
    }

    #[test]
    fn dump_is_deterministic_and_sorted() {
        let mut m = Metrics::enabled();
        m.counter_add("n1.os.irqs", 1);
        m.counter_add("n0.os.irqs", 1);
        m.record(CWND, 4);
        m.record(RTTVAR, 100);
        let d = m.dump();
        assert_eq!(d, m.clone().dump());
        let a = d.find("n0.os.irqs").unwrap();
        let b = d.find("n1.os.irqs").unwrap();
        assert!(a < b, "counters must be name-sorted:\n{d}");
        assert!(d.contains("clic.cwnd 4 4"));
        assert!(d.contains("clic.rttvar 1 100.0"));
    }
}
