//! The calibrated cost model.
//!
//! This struct holds the cluster-wide constants: the TCP/IP stack costs,
//! the link and the NIC presets. The kernel costs
//! ([`clic_os::OsCosts::era_2002`]) and the CLIC configuration
//! ([`clic_core::ClicConfig::paper_default`]) are charged per node, so
//! they live in each node's config, seeded by
//! [`crate::NodeConfig::clic_default`].
//! The constants are **inputs** chosen from the scalars the paper
//! publishes (and era-typical hardware data); the bandwidth curves,
//! latency totals and stage breakdowns are **outputs** — see DESIGN.md §5
//! and EXPERIMENTS.md.
//!
//! Paper provenance:
//! * syscall 0.65 µs — §3.1 ("approximately 0.65 µs in a PC running at
//!   1.5 GHz").
//! * receive interrupt path ≈ 20 µs for 1400 B — §3.2(b) and Figure 7a.
//! * 33 MHz / 32-bit PCI — §4 ("The PCI buses of the connected computers
//!   are 33 MHz 32 bits buses").
//! * MTU 1500/9000, coalesced interrupts on — §4.
//! * one interrupt ≈ every 12 µs at MTU 1500 wire rate — §2.

use clic_hw::NicConfig;
use clic_sim::SimDuration;
use clic_tcpip::TcpIpCosts;

/// Bundle of the cluster-wide calibrated constants.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// TCP/IP stack costs.
    pub tcpip: TcpIpCosts,
    /// Link bandwidth, bits per second.
    pub link_bps: u64,
    /// Link propagation delay.
    pub propagation: SimDuration,
}

impl CostModel {
    /// The paper's testbed.
    pub fn era_2002() -> CostModel {
        CostModel {
            tcpip: TcpIpCosts::era_2002(),
            link_bps: 1_000_000_000,
            propagation: SimDuration::from_ns(500),
        }
    }

    /// NIC at the standard Ethernet MTU with the era's coalescing defaults.
    pub fn nic_standard(&self) -> NicConfig {
        NicConfig::gigabit_standard()
    }

    /// NIC with jumbo frames enabled.
    pub fn nic_jumbo(&self) -> NicConfig {
        NicConfig::gigabit_jumbo()
    }

    /// NIC tuned for latency measurements: short coalescing timer, as the
    /// paper's drivers allowed adjusting dynamically (§2).
    pub fn nic_low_latency(&self, mtu_jumbo: bool) -> NicConfig {
        let mut cfg = if mtu_jumbo {
            NicConfig::gigabit_jumbo()
        } else {
            NicConfig::gigabit_standard()
        };
        cfg.coalesce_usecs = 5;
        cfg.coalesce_frames = 8;
        cfg
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::era_2002()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeConfig;

    #[test]
    fn paper_scalars_present() {
        let m = CostModel::era_2002();
        let node = NodeConfig::clic_default(&m);
        assert_eq!(node.os.syscall, SimDuration::from_ns(650));
        assert_eq!(m.link_bps, 1_000_000_000);
        assert!(node.clic.expect("CLIC node").zero_copy);
        assert_eq!(m.nic_standard().mtu, 1500);
        assert_eq!(m.nic_jumbo().mtu, 9000);
        let ll = m.nic_low_latency(false);
        assert!(ll.coalesce_usecs <= 5);
    }
}
