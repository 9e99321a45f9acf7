//! Sample-exact latency measurement used by the experiment drivers.
//!
//! Event counting and bucketed distributions live in the per-run
//! [`crate::metrics::Metrics`] registry; what remains here is the
//! sample-exact latency collector that workloads thread through their
//! callbacks, behind the ping-pong and request-reply figures. Bandwidth
//! figures divide the bytes a workload moved by its simulated run time
//! themselves.

use crate::time::SimDuration;

/// Collects duration samples and reports summary statistics.
#[derive(Debug, Default, Clone)]
pub struct LatencyStats {
    samples: Vec<SimDuration>,
}

impl LatencyStats {
    /// New empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let total: u128 = self.samples.iter().map(|d| d.as_ns() as u128).sum();
        Some(SimDuration::from_ns(
            (total / self.samples.len() as u128) as u64,
        ))
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<SimDuration> {
        self.samples.iter().copied().min()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<SimDuration> {
        self.samples.iter().copied().max()
    }

    /// p-th percentile (0.0..=1.0) by nearest-rank on a sorted copy.
    pub fn percentile(&self, p: f64) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary() {
        let mut l = LatencyStats::new();
        assert_eq!(l.mean(), None);
        for us in [10u64, 20, 30, 40] {
            l.record(SimDuration::from_us(us));
        }
        assert_eq!(l.count(), 4);
        assert_eq!(l.mean(), Some(SimDuration::from_us(25)));
        assert_eq!(l.min(), Some(SimDuration::from_us(10)));
        assert_eq!(l.max(), Some(SimDuration::from_us(40)));
        assert_eq!(l.percentile(0.5), Some(SimDuration::from_us(20)));
        assert_eq!(l.percentile(1.0), Some(SimDuration::from_us(40)));
        assert_eq!(l.percentile(0.0), Some(SimDuration::from_us(10)));
    }
}
