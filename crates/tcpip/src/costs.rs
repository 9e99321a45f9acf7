//! The TCP/IP processing tax.
//!
//! §1 of the paper: "protocols such as TCP/IP cause an overhead that
//! represents an important amount of the communication cost", and on Fast
//! Ethernet "it is possible to get 90 % of the maximum bandwidth with a
//! 15–20 % CPU use; having a similar situation in networks with 1 Gb/s
//! bandwidths would require almost 100 % of the processor power".
//!
//! These constants model per-layer costs of a Linux 2.4 stack on the
//! 1.5 GHz testbed; they are inputs (see DESIGN.md §5) and the TCP curves
//! of Figures 5–6 are outputs.

use clic_sim::SimDuration;

/// Per-layer CPU costs for the baseline stack.
#[derive(Debug, Clone, Copy)]
pub struct TcpIpCosts {
    /// IP header build + route lookup per outgoing packet.
    pub ip_tx: SimDuration,
    /// IP parse + checksum verify + demux per incoming packet.
    pub ip_rx: SimDuration,
    /// TCP segment build, timers, window bookkeeping (send side).
    pub tcp_tx_per_segment: SimDuration,
    /// TCP receive processing: sequence checks, ACK generation, socket
    /// queue management.
    pub tcp_rx_per_segment: SimDuration,
    /// Software checksum bandwidth (the CPU touches every payload byte on
    /// both sides — the era's NICs in this testbed did not offload TCP
    /// checksums).
    pub checksum_bytes_per_sec: u64,
}

impl TcpIpCosts {
    /// Calibrated Linux-2.4-on-1.5 GHz defaults.
    pub fn era_2002() -> TcpIpCosts {
        TcpIpCosts {
            ip_tx: SimDuration::from_ns(1_500),
            ip_rx: SimDuration::from_ns(3_000),
            tcp_tx_per_segment: SimDuration::from_ns(5_000),
            tcp_rx_per_segment: SimDuration::from_ns(10_000),
            checksum_bytes_per_sec: 140_000_000,
        }
    }

    /// CPU time to checksum `bytes` of payload.
    pub fn checksum_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::for_bytes(bytes as u64, self.checksum_bytes_per_sec * 8)
    }
}

impl Default for TcpIpCosts {
    fn default() -> Self {
        Self::era_2002()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_scales_with_bytes() {
        let c = TcpIpCosts::era_2002();
        let one = c.checksum_cost(1500);
        let six = c.checksum_cost(9000);
        // Equal up to per-call ceil rounding (6 calls x <=1 ns).
        let diff = (six.as_ns() as i64 - (one * 6).as_ns() as i64).abs();
        assert!(diff <= 6, "six={six} one*6={}", one * 6);
        // 1500 B at 140 MB/s is ~10.7 us.
        assert!((SimDuration::from_us(8)..SimDuration::from_us(13)).contains(&one));
    }

    #[test]
    fn tcp_costs_exceed_clic_scale() {
        // The entire point of CLIC: a TCP/IP segment costs several times a
        // CLIC packet in per-packet CPU terms.
        let c = TcpIpCosts::era_2002();
        let per_segment = c.ip_rx + c.tcp_rx_per_segment;
        assert!(per_segment >= SimDuration::from_us(8));
    }
}
