//! Cluster construction.

use crate::calibration::CostModel;
use crate::node::{Node, NodeConfig};
use clic_ethernet::{Fabric, FabricSpec, FaultPlan, Link, LinkEnd, MacAddr, Switch};
use clic_tcpip::IpAddr;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Physical layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Two nodes wired NIC-to-NIC (supports channel bonding: one direct
    /// link per NIC pair). The paper's measurement setup.
    BackToBack,
    /// A star around one store-and-forward switch (single NIC per node).
    Switched,
    /// A two-tier leaf–spine fabric sized for the node count
    /// ([`FabricSpec::leaf_spine_for`]): hosts on leaves, every leaf
    /// trunked to every spine, deterministic ECMP across spines.
    LeafSpine,
    /// A three-tier fat-tree fabric sized for the node count
    /// ([`FabricSpec::fat_tree_for`]): edge/aggregation pods under a core
    /// layer.
    FatTree,
}

/// Cluster-level configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Layout.
    pub topology: Topology,
    /// Per-node stack configuration.
    pub node: NodeConfig,
    /// Full fault plan applied to every link, both directions (loss,
    /// corruption, duplication, reordering, outages).
    pub faults: FaultPlan,
    /// Optional distinct fault plan for the reverse direction (towards
    /// the lower-numbered node: node1→node0 back-to-back, node→switch
    /// uplinks when switched). `None` applies `faults` symmetrically.
    pub faults_reverse: Option<FaultPlan>,
    /// ECN-style mark threshold (frames) armed on every switch output
    /// queue: a CLIC data frame enqueued at or above this backlog gets its
    /// congestion-experienced bit set ([`Switch::try_set_mark_threshold`]).
    /// `None` (the default everywhere) leaves the fabric drop-only.
    /// Meaningless for [`Topology::BackToBack`].
    pub mark_threshold: Option<usize>,
    /// Cost model (link speed, TCP costs...).
    pub model: CostModel,
}

impl ClusterConfig {
    /// The paper's measurement pair: two CLIC nodes back to back.
    pub fn paper_pair() -> ClusterConfig {
        let model = CostModel::era_2002();
        ClusterConfig {
            nodes: 2,
            topology: Topology::BackToBack,
            node: NodeConfig::clic_default(&model),
            faults: FaultPlan::default(),
            faults_reverse: None,
            mark_threshold: None,
            model,
        }
    }
}

/// A built cluster: the only strong owner of its nodes, links, switch
/// and fabric. Components hold each other weakly where a strong
/// reference would cycle, so dropping the cluster frees all of it; keep
/// it alive while its simulation runs.
pub struct Cluster {
    /// The nodes, indexed by id.
    pub nodes: Vec<Node>,
    /// The switch (switched topology only).
    pub switch: Option<Rc<RefCell<Switch>>>,
    /// The multi-switch fabric (leaf–spine / fat-tree topologies only).
    pub fabric: Option<Fabric>,
    /// All access links, for loss/statistics access.
    pub links: Vec<Rc<RefCell<Link>>>,
}

impl Cluster {
    /// Build a cluster per `config`.
    pub fn build(config: &ClusterConfig) -> Cluster {
        let mut neighbors: BTreeMap<IpAddr, MacAddr> = BTreeMap::new();
        for id in 0..config.nodes as u32 {
            neighbors.insert(IpAddr::for_node(id), MacAddr::for_node(id, 0));
        }
        let mk_link = || {
            let link = Link::new(config.model.link_bps, config.model.propagation);
            // The forward plan covers LinkEnd::A (the lower-numbered node,
            // or the node side of a switch uplink).
            let forward = config.faults.clone();
            let reverse = match &config.faults_reverse {
                Some(plan) => plan.clone(),
                None => forward.clone(),
            };
            link.borrow_mut().set_faults(LinkEnd::A, forward);
            link.borrow_mut().set_faults(LinkEnd::B, reverse);
            link
        };
        match config.topology {
            Topology::BackToBack => {
                assert_eq!(config.nodes, 2, "back-to-back means two nodes");
                let width = config.node.nics;
                let links: Vec<_> = (0..width).map(|_| mk_link()).collect();
                let a = Node::build(
                    0,
                    &config.node,
                    links.iter().map(|l| (l.clone(), LinkEnd::A)).collect(),
                    &neighbors,
                    config.model.tcpip,
                );
                let b = Node::build(
                    1,
                    &config.node,
                    links.iter().map(|l| (l.clone(), LinkEnd::B)).collect(),
                    &neighbors,
                    config.model.tcpip,
                );
                Cluster {
                    nodes: vec![a, b],
                    switch: None,
                    fabric: None,
                    links,
                }
            }
            Topology::Switched => {
                assert_eq!(
                    config.node.nics, 1,
                    "bonding through a switch is unsupported"
                );
                let switch = Switch::gigabit_default();
                if let Some(t) = config.mark_threshold {
                    if let Err(e) = switch.borrow_mut().try_set_mark_threshold(t) {
                        panic!("{e}");
                    }
                }
                let mut nodes = Vec::new();
                let mut links = Vec::new();
                for id in 0..config.nodes as u32 {
                    let link = mk_link();
                    Switch::attach_port(&switch, link.clone(), LinkEnd::B);
                    nodes.push(Node::build(
                        id,
                        &config.node,
                        vec![(link.clone(), LinkEnd::A)],
                        &neighbors,
                        config.model.tcpip,
                    ));
                    links.push(link);
                }
                Cluster {
                    nodes,
                    switch: Some(switch),
                    fabric: None,
                    links,
                }
            }
            Topology::LeafSpine | Topology::FatTree => {
                assert_eq!(
                    config.node.nics, 1,
                    "bonding through a fabric is unsupported"
                );
                let mut nodes = Vec::new();
                let mut links = Vec::new();
                let mut hosts = Vec::new();
                for id in 0..config.nodes as u32 {
                    let link = mk_link();
                    nodes.push(Node::build(
                        id,
                        &config.node,
                        vec![(link.clone(), LinkEnd::A)],
                        &neighbors,
                        config.model.tcpip,
                    ));
                    hosts.push((MacAddr::for_node(id, 0), link.clone(), LinkEnd::B));
                    links.push(link);
                }
                let spec = match config.topology {
                    Topology::LeafSpine => FabricSpec::leaf_spine_for(config.nodes),
                    _ => FabricSpec::fat_tree_for(config.nodes),
                };
                let fabric = Fabric::build(&spec, &hosts);
                if let Some(t) = config.mark_threshold {
                    for sw in fabric.switches() {
                        if let Err(e) = sw.borrow_mut().try_set_mark_threshold(t) {
                            panic!("{e}");
                        }
                    }
                }
                Cluster {
                    nodes,
                    switch: None,
                    fabric: Some(fabric),
                    links,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clic_ethernet::LossModel;

    #[test]
    fn paper_pair_builds() {
        let cluster = Cluster::build(&ClusterConfig::paper_pair());
        assert_eq!(cluster.nodes.len(), 2);
        assert!(cluster.nodes[0].clic.is_some());
        assert!(cluster.nodes[0].tcp.is_none());
        assert!(cluster.switch.is_none());
        assert_eq!(cluster.links.len(), 1);
    }

    #[test]
    fn switched_cluster_builds() {
        let model = CostModel::era_2002();
        let mut cfg = ClusterConfig::paper_pair();
        cfg.nodes = 4;
        cfg.topology = Topology::Switched;
        cfg.node = NodeConfig::tcp_default(&model);
        let cluster = Cluster::build(&cfg);
        assert_eq!(cluster.nodes.len(), 4);
        assert!(cluster.nodes[0].tcp.is_some());
        assert!(cluster.switch.is_some());
        assert_eq!(cluster.switch.as_ref().unwrap().borrow().port_count(), 4);
    }

    #[test]
    fn bonded_pair_builds() {
        let mut cfg = ClusterConfig::paper_pair();
        cfg.node.nics = 3;
        let cluster = Cluster::build(&cfg);
        assert_eq!(cluster.links.len(), 3);
        assert_eq!(cluster.nodes[0].kernel.borrow().device_count(), 3);
        // Bonded NICs share the station MAC.
        let k = cluster.nodes[0].kernel.borrow();
        let macs: Vec<_> = (0..3).map(|d| k.device(d).borrow().mac()).collect();
        assert!(macs.iter().all(|&m| m == cluster.nodes[0].mac));
    }

    #[test]
    fn fault_plans_reach_the_links() {
        let mut cfg = ClusterConfig::paper_pair();
        cfg.faults.loss = LossModel::EveryNth(5);
        cfg.faults.corrupt = 0.25;
        cfg.faults_reverse = Some(FaultPlan::default());
        let cluster = Cluster::build(&cfg);
        let link = cluster.links[0].borrow();
        // Forward (node0→node1): loss + corruption.
        assert_eq!(link.faults(LinkEnd::A).loss, LossModel::EveryNth(5));
        assert_eq!(link.faults(LinkEnd::A).corrupt, 0.25);
        // Reverse overridden to clean.
        assert_eq!(*link.faults(LinkEnd::B), FaultPlan::default());
    }

    #[test]
    fn mark_threshold_reaches_every_switch() {
        let mut cfg = ClusterConfig::paper_pair();
        cfg.nodes = 8;
        cfg.topology = Topology::LeafSpine;
        cfg.mark_threshold = Some(16);
        let cluster = Cluster::build(&cfg);
        let fabric = cluster.fabric.as_ref().unwrap();
        assert!(
            fabric.switches().len() > 1,
            "leaf-spine has several switches"
        );
        for sw in fabric.switches() {
            assert_eq!(sw.borrow().mark_threshold(), Some(16));
        }
        cfg.topology = Topology::Switched;
        let cluster = Cluster::build(&cfg);
        let sw = cluster.switch.as_ref().unwrap();
        assert_eq!(sw.borrow().mark_threshold(), Some(16));
    }

    #[test]
    #[should_panic(expected = "queue_limit")]
    fn mark_threshold_above_capacity_panics_at_build() {
        let mut cfg = ClusterConfig::paper_pair();
        cfg.nodes = 4;
        cfg.topology = Topology::Switched;
        cfg.mark_threshold = Some(128); // gigabit_default queue_limit
        Cluster::build(&cfg);
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn back_to_back_requires_two() {
        let mut cfg = ClusterConfig::paper_pair();
        cfg.nodes = 3;
        Cluster::build(&cfg);
    }
}
