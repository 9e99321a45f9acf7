//! One simulated host.

use crate::calibration::CostModel;
use clic_core::{ClicConfig, ClicModule};
use clic_ethernet::{Link, LinkEnd, MacAddr};
use clic_gamma::GammaModule;
use clic_hw::{Nic, NicConfig, PciBus};
use clic_os::{Kernel, OsCosts};
use clic_tcpip::{IpAddr, TcpStack};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Which protocol stacks to install on a node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// NIC configuration (MTU, rings, coalescing, offloads).
    pub nic: NicConfig,
    /// Kernel cost model.
    pub os: OsCosts,
    /// Install CLIC with this configuration.
    pub clic: Option<ClicConfig>,
    /// Install the TCP/IP baseline.
    pub tcpip: bool,
    /// Install the GAMMA-like baseline (forces direct dispatch and GAMMA's
    /// tuned driver/NIC settings).
    pub gamma: bool,
    /// Number of NICs (channel bonding when > 1; all share the bond MAC).
    pub nics: usize,
    /// Figure 8b: drivers call protocol modules directly from the IRQ.
    pub direct_dispatch: bool,
    /// Use a 66 MHz/64-bit PCI bus instead of the testbed's 33/32 one.
    pub fast_pci: bool,
}

impl NodeConfig {
    /// CLIC-only node per the paper's default evaluation setup.
    pub fn clic_default(model: &CostModel) -> NodeConfig {
        NodeConfig {
            nic: model.nic_standard(),
            os: OsCosts::era_2002(),
            clic: Some(ClicConfig::paper_default()),
            tcpip: false,
            gamma: false,
            nics: 1,
            direct_dispatch: false,
            fast_pci: false,
        }
    }

    /// TCP/IP-only node.
    pub fn tcp_default(model: &CostModel) -> NodeConfig {
        NodeConfig {
            clic: None,
            tcpip: true,
            ..Self::clic_default(model)
        }
    }

    /// GAMMA-only node with GAMMA's tuned driver and NIC settings.
    pub fn gamma_default(_model: &CostModel) -> NodeConfig {
        NodeConfig {
            nic: GammaModule::tuned_nic_config(),
            os: GammaModule::tuned_os_costs(),
            clic: None,
            tcpip: false,
            gamma: true,
            nics: 1,
            direct_dispatch: true,
            fast_pci: false,
        }
    }
}

/// A built host.
pub struct Node {
    /// Node id (also its rank in workloads).
    pub id: u32,
    /// The kernel.
    pub kernel: Rc<RefCell<Kernel>>,
    /// CLIC module, when installed.
    pub clic: Option<Rc<RefCell<ClicModule>>>,
    /// TCP/IP, when installed.
    pub tcp: Option<Rc<RefCell<TcpStack>>>,
    /// GAMMA module, when installed.
    pub gamma: Option<Rc<RefCell<GammaModule>>>,
    /// Station address (bond MAC when multiple NICs).
    pub mac: MacAddr,
    /// IP address (when TCP/IP installed).
    pub ip: IpAddr,
    /// The NICs themselves (one per link), for features driven from the
    /// NIC rather than through the kernel — e.g. arming the NIC-resident
    /// collective engine.
    pub nics: Vec<Rc<RefCell<Nic>>>,
}

impl Node {
    /// Build a node attached to `links` (one NIC per link; all NICs share
    /// the node's MAC so channel bonding presents one station).
    pub fn build(
        id: u32,
        config: &NodeConfig,
        links: Vec<(Rc<RefCell<Link>>, LinkEnd)>,
        neighbors: &BTreeMap<IpAddr, MacAddr>,
        tcpip_costs: clic_tcpip::TcpIpCosts,
    ) -> Node {
        assert_eq!(links.len(), config.nics, "one link per NIC");
        let kernel = Kernel::new(id, config.os);
        kernel.borrow_mut().direct_dispatch = config.direct_dispatch;
        let pci = if config.fast_pci {
            PciBus::pci_66mhz_64bit()
        } else {
            PciBus::pci_33mhz_32bit()
        };
        let mac = MacAddr::for_node(id, 0);
        let mut devs = Vec::new();
        let mut nics = Vec::new();
        for (link, end) in links {
            let nic = Nic::new(mac, config.nic.clone(), pci.clone(), link, end);
            Nic::attach_to_link(&nic);
            nics.push(nic.clone());
            devs.push(Kernel::add_device(&kernel, nic));
        }
        let clic = config
            .clic
            .as_ref()
            .map(|cfg| ClicModule::install(&kernel, devs.clone(), cfg.clone()));
        let ip = IpAddr::for_node(id);
        let tcp = config
            .tcpip
            .then(|| TcpStack::install(&kernel, devs[0], ip, neighbors.clone(), tcpip_costs));
        let gamma = if config.gamma {
            Some(GammaModule::install(&kernel, devs[0]))
        } else {
            None
        };
        Node {
            id,
            kernel,
            clic,
            tcp,
            gamma,
            mac,
            ip,
            nics,
        }
    }

    /// The node's (first) NIC — the one collectives are offloaded to.
    pub fn nic(&self) -> Rc<RefCell<Nic>> {
        self.nics[0].clone()
    }

    /// CLIC module (panics when not installed).
    pub fn clic(&self) -> Rc<RefCell<ClicModule>> {
        self.clic.clone().expect("CLIC not installed on this node")
    }

    /// TCP stack (panics when not installed).
    pub fn tcp(&self) -> Rc<RefCell<TcpStack>> {
        self.tcp.clone().expect("TCP/IP not installed on this node")
    }

    /// GAMMA module (panics when not installed).
    pub fn gamma(&self) -> Rc<RefCell<GammaModule>> {
        self.gamma
            .clone()
            .expect("GAMMA not installed on this node")
    }
}
