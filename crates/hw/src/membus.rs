//! Memory-copy cost model.
//!
//! Every CPU copy (user→kernel on TCP send, kernel→user on receive, the
//! CLIC staging copy when the NIC ring is full) charges the processor a
//! fixed overhead (cache/function-call effects) plus a per-byte term at the
//! host's sustained copy bandwidth. The paper stresses that although copies
//! look cheap next to memory-bus bandwidth, they burn CPU, memory and PCI
//! resources that applications need — so the cost lands on the CPU resource
//! and shows up in utilisation figures.

use clic_sim::catalog::metric_id;
use clic_sim::{MetricId, Sim, SimDuration};

/// Interned id of the per-copy size histogram.
const COPY_BYTES: MetricId = metric_id("hw.mem.copy_bytes");

/// Cost model for CPU memory copies.
#[derive(Debug, Clone, Copy)]
pub struct CopyModel {
    /// Fixed per-copy overhead.
    pub per_copy: SimDuration,
    /// Sustained copy bandwidth, bytes per second.
    pub bytes_per_sec: u64,
}

impl CopyModel {
    /// A ~1.5 GHz PC of the paper's era: ~0.3 µs fixed cost, ~400 MB/s
    /// sustained memcpy through the memory hierarchy.
    pub fn era_2002() -> CopyModel {
        CopyModel {
            per_copy: SimDuration::from_ns(300),
            bytes_per_sec: 400_000_000,
        }
    }

    /// CPU time to copy `bytes`.
    pub fn cost(&self, bytes: usize) -> SimDuration {
        self.per_copy + SimDuration::for_bytes(bytes as u64, self.bytes_per_sec * 8)
    }

    /// Like [`CopyModel::cost`], but also records the copy size in the
    /// run's `hw.mem.copy_bytes` histogram so copy traffic shows up in the
    /// metrics dump.
    pub fn cost_observed(&self, sim: &mut Sim, bytes: usize) -> SimDuration {
        sim.record(COPY_BYTES, bytes as u64);
        self.cost(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_affine_in_bytes() {
        let m = CopyModel {
            per_copy: SimDuration::from_ns(100),
            bytes_per_sec: 1_000_000_000,
        };
        assert_eq!(m.cost(0), SimDuration::from_ns(100));
        assert_eq!(
            m.cost(1000),
            SimDuration::from_ns(100) + SimDuration::from_ns(1000)
        );
        // Twice the bytes, twice the variable part.
        let c1 = m.cost(5000) - m.per_copy;
        let c2 = m.cost(10000) - m.per_copy;
        assert_eq!(c2, c1 * 2);
    }

    #[test]
    fn era_model_in_plausible_range() {
        let m = CopyModel::era_2002();
        // Copying a 1500 B frame: a handful of microseconds.
        let c = m.cost(1500);
        assert!(
            (SimDuration::from_us(2)..SimDuration::from_us(8)).contains(&c),
            "cost={c}"
        );
        // Copying 1 MB: ~2.5 ms at 400 MB/s.
        let c = m.cost(1 << 20);
        assert!(
            (SimDuration::from_ms(2)..SimDuration::from_ms(3)).contains(&c),
            "cost={c}"
        );
    }
}
