//! Multi-switch fabric topologies.
//!
//! Composes the existing [`Switch`] + [`Link`] machinery into the two
//! fabric shapes production clusters actually deploy:
//!
//! * **leaf–spine** — every leaf (top-of-rack) switch trunks to every
//!   spine; any host pair is at most `leaf → spine → leaf` apart,
//! * **fat-tree** — the 3-tier Clos variant (edge → aggregation → core)
//!   that scales past what a single spine tier can port out.
//!
//! Both shapes have redundant switch-to-switch paths, which plain learning
//! Ethernet cannot tolerate: flooding a frame over a cyclic switch graph
//! replicates it forever (a frame storm). The builder therefore provisions
//! the fabric the way a fabric controller would:
//!
//! * **unicast** is *statically routed*: for every host MAC, every switch
//!   gets a [`Switch::program_mac`] entry along a shortest path, choosing
//!   among equal-cost trunks with the deterministic [`FlowHash`] selector
//!   from [`crate::bonding`] (ECMP keyed on destination MAC + deciding
//!   switch, so the choice is a pure function of the topology);
//! * **flooding** (broadcast/multicast/unknown) is restricted with
//!   [`Switch::set_flood_ports`] to host ports plus the trunks of one
//!   spanning tree of the switch graph — loop-free by construction, and
//!   every host still receives exactly one copy.
//!
//! Each hop strictly decreases the remaining distance to the destination
//! switch, so programmed unicast paths cannot loop either. Nothing here
//! draws randomness and nothing depends on traffic history: two builds of
//! the same spec produce byte-identical forwarding state, which is what
//! keeps the `figures scale` family reproducible at any `--jobs N`.

use crate::bonding::FlowHash;
use crate::link::{Link, LinkEnd};
use crate::mac::MacAddr;
use crate::switch::Switch;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Parameterized fabric shape.
///
/// ```
/// use clic_ethernet::topology::FabricSpec;
///
/// // 256 hosts on 16-port leaves with 4 spines…
/// let ls = FabricSpec::leaf_spine_for(256);
/// assert!(ls.capacity() >= 256);
/// assert_eq!(ls.kind_name(), "leaf-spine");
///
/// // …or on a 3-tier fat-tree of 32-host pods.
/// let ft = FabricSpec::fat_tree_for(256);
/// assert!(ft.capacity() >= 256);
/// assert_eq!(ft.kind_name(), "fat-tree");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricSpec {
    /// Two-tier Clos: `leaves × spines`, every leaf trunked to every spine.
    LeafSpine {
        /// Spine switches (equal-cost paths between any two leaves).
        spines: usize,
        /// Host ports per leaf switch.
        leaf_downlinks: usize,
    },
    /// Three-tier Clos: pods of edge + aggregation switches under a core
    /// tier. Aggregation switch `j` of every pod uplinks to the core block
    /// `j * cores/aggs_per_pod ..`, the classic fat-tree wiring.
    FatTree {
        /// Number of pods.
        pods: usize,
        /// Edge (host-facing) switches per pod.
        edges_per_pod: usize,
        /// Aggregation switches per pod.
        aggs_per_pod: usize,
        /// Core switches (must divide evenly among the aggregation tier).
        cores: usize,
        /// Host ports per edge switch.
        edge_downlinks: usize,
    },
}

impl FabricSpec {
    /// A leaf–spine spec sized for `hosts` stations: 16-host leaves under
    /// 4 spines (the defaults used by the `figures scale` family).
    pub fn leaf_spine_for(hosts: usize) -> FabricSpec {
        assert!(hosts >= 1);
        FabricSpec::LeafSpine {
            spines: 4,
            leaf_downlinks: 16,
        }
    }

    /// A fat-tree spec sized for `hosts` stations: 32-host pods (two
    /// 16-port edge switches + two aggregation switches each) under four
    /// cores, with at least two pods so the core tier is exercised.
    pub fn fat_tree_for(hosts: usize) -> FabricSpec {
        assert!(hosts >= 1);
        let pods = hosts.div_ceil(32).max(2);
        FabricSpec::FatTree {
            pods,
            edges_per_pod: 2,
            aggs_per_pod: 2,
            cores: 4,
            edge_downlinks: 16,
        }
    }

    /// Maximum hosts the spec can attach. For a leaf–spine this is
    /// unbounded in principle; the builder grows the leaf tier to fit, so
    /// capacity reports what one leaf tier of up to 64 leaves offers.
    pub fn capacity(&self) -> usize {
        match *self {
            FabricSpec::LeafSpine { leaf_downlinks, .. } => 64 * leaf_downlinks,
            FabricSpec::FatTree {
                pods,
                edges_per_pod,
                edge_downlinks,
                ..
            } => pods * edges_per_pod * edge_downlinks,
        }
    }

    /// Short name for tables and job ids: `"leaf-spine"` or `"fat-tree"`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FabricSpec::LeafSpine { .. } => "leaf-spine",
            FabricSpec::FatTree { .. } => "fat-tree",
        }
    }
}

/// One switch-to-switch trunk: switches `a`/`b` joined by `link`, with the
/// port each side attached it on.
struct Trunk {
    a: usize,
    b: usize,
    port_a: usize,
    port_b: usize,
    link: Rc<RefCell<Link>>,
}

/// A built fabric: the switches, their trunk links, and where each host
/// landed. Produced by [`Fabric::build`]; afterwards the fabric is inert —
/// frames flow through the programmed switches on their own. It is the
/// only strong owner of its switches (their links hold them weakly), so
/// keep it while frames cross it.
///
/// ```
/// use bytes::Bytes;
/// use clic_ethernet::topology::{Fabric, FabricSpec};
/// use clic_ethernet::{EtherType, Frame, Link, LinkEnd, MacAddr};
/// use clic_sim::Sim;
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// // Four hosts on a 2-spine leaf-spine fabric with 2-host leaves.
/// let spec = FabricSpec::LeafSpine { spines: 2, leaf_downlinks: 2 };
/// let mut sim = Sim::new(0);
/// let hosts: Vec<(MacAddr, Rc<RefCell<Link>>, LinkEnd)> = (0..4)
///     .map(|i| (MacAddr::for_node(i, 0), Link::gigabit(), LinkEnd::B))
///     .collect();
/// let fabric = Fabric::build(&spec, &hosts);
/// assert_eq!(fabric.switch_count(), 4); // 2 leaves + 2 spines
///
/// // Host 3 listens on its link; host 0 sends across the fabric.
/// let got = Rc::new(RefCell::new(0u32));
/// let g = got.clone();
/// hosts[3].1.borrow_mut().attach(
///     LinkEnd::A,
///     Rc::new(move |_sim: &mut Sim, f: Frame| {
///         assert_eq!(f.dst, MacAddr::for_node(3, 0));
///         *g.borrow_mut() += 1;
///     }),
/// );
/// let frame = Frame::new(
///     MacAddr::for_node(3, 0),
///     MacAddr::for_node(0, 0),
///     EtherType::CLIC,
///     Bytes::from_static(b"hi"),
/// );
/// Link::transmit(&hosts[0].1, &mut sim, LinkEnd::A, frame);
/// sim.run();
/// assert_eq!(*got.borrow(), 1);
/// ```
pub struct Fabric {
    kind: &'static str,
    switches: Vec<Rc<RefCell<Switch>>>,
    trunk_links: Vec<Rc<RefCell<Link>>>,
    host_attach: Vec<(usize, usize)>,
}

impl Fabric {
    /// Build the fabric described by `spec` and attach every host in
    /// `hosts` (its MAC, its access link, and which end of that link the
    /// *switch* should hold). Creates the switches and trunk links,
    /// attaches everything, programs static ECMP routes for every host
    /// MAC, and restricts flooding to a spanning tree.
    ///
    /// Panics if `hosts` exceeds the spec's port budget.
    pub fn build(spec: &FabricSpec, hosts: &[(MacAddr, Rc<RefCell<Link>>, LinkEnd)]) -> Fabric {
        let (switch_count, wiring, host_of) = plan(spec, hosts.len());
        let switches: Vec<Rc<RefCell<Switch>>> = (0..switch_count)
            .map(|_| Switch::gigabit_default())
            .collect();

        // Trunks first, hosts second: port numbering is then a pure
        // function of the spec, independent of host count ordering.
        let mut trunks: Vec<Trunk> = Vec::new();
        for &(a, b) in &wiring {
            let link = Link::gigabit();
            let port_a = Switch::attach_port(&switches[a], link.clone(), LinkEnd::A);
            let port_b = Switch::attach_port(&switches[b], link.clone(), LinkEnd::B);
            switches[a].borrow_mut().mark_trunk(port_a);
            switches[b].borrow_mut().mark_trunk(port_b);
            trunks.push(Trunk {
                a,
                b,
                port_a,
                port_b,
                link,
            });
        }
        let mut host_attach = Vec::with_capacity(hosts.len());
        for (h, (_, link, end)) in hosts.iter().enumerate() {
            let sw = host_of[h];
            let port = Switch::attach_port(&switches[sw], link.clone(), *end);
            host_attach.push((sw, port));
        }

        // Adjacency over the trunk list (undirected).
        let mut adj: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); switch_count];
        for (t, trunk) in trunks.iter().enumerate() {
            adj[trunk.a].push((trunk.b, trunk.port_a, t));
            adj[trunk.b].push((trunk.a, trunk.port_b, t));
        }

        // Static ECMP unicast routes: shortest-path next hops, tie-broken
        // by hashing (destination MAC, deciding switch). Hosts on one
        // switch share its distances, computed once.
        let mut dist_to: Vec<Option<Vec<usize>>> = vec![None; switch_count];
        let mut candidates = Vec::new();
        for (h, (mac, _, _)) in hosts.iter().enumerate() {
            let (target, host_port) = host_attach[h];
            let dist = dist_to[target].get_or_insert_with(|| bfs_distances(&adj, target));
            for s in 0..switch_count {
                if s == target {
                    switches[s].borrow_mut().program_mac(*mac, host_port);
                    continue;
                }
                let here = dist[s];
                assert!(here != usize::MAX, "fabric graph is disconnected");
                candidates.clear();
                candidates.extend(
                    adj[s]
                        .iter()
                        .filter(|&&(n, _, _)| dist[n] + 1 == here)
                        .map(|&(_, port, _)| port),
                );
                candidates.sort_unstable();
                let mut key = [0u8; 10];
                key[..6].copy_from_slice(&mac.0);
                key[6..].copy_from_slice(&(s as u32).to_be_bytes());
                let pick = FlowHash::new(candidates.len()).index(&key);
                switches[s].borrow_mut().program_mac(*mac, candidates[pick]);
            }
        }

        // Loop-free flooding: BFS spanning tree from switch 0; each
        // switch floods only on host ports + its tree trunks.
        let tree = spanning_tree(&adj, switch_count);
        for (s, switch) in switches.iter().enumerate() {
            let mut flood: Vec<usize> = host_attach
                .iter()
                .filter(|&&(sw, _)| sw == s)
                .map(|&(_, port)| port)
                .collect();
            for &t in &tree {
                if trunks[t].a == s {
                    flood.push(trunks[t].port_a);
                } else if trunks[t].b == s {
                    flood.push(trunks[t].port_b);
                }
            }
            switch.borrow_mut().set_flood_ports(&flood);
        }

        Fabric {
            kind: spec.kind_name(),
            trunk_links: trunks.into_iter().map(|t| t.link).collect(),
            switches,
            host_attach,
        }
    }

    /// Short fabric-kind name (`"leaf-spine"` / `"fat-tree"`).
    pub fn kind_name(&self) -> &'static str {
        self.kind
    }

    /// Number of switches in the fabric.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of switch-to-switch trunk links.
    pub fn trunk_count(&self) -> usize {
        self.trunk_links.len()
    }

    /// The fabric's switches (leaves/edges first, then upper tiers).
    pub fn switches(&self) -> &[Rc<RefCell<Switch>>] {
        &self.switches
    }

    /// Which switch host `h` attaches to.
    pub fn host_switch(&self, h: usize) -> usize {
        self.host_attach[h].0
    }
}

/// Expand a spec into (switch count, trunk wiring, host→switch placement).
fn plan(spec: &FabricSpec, hosts: usize) -> (usize, Vec<(usize, usize)>, Vec<usize>) {
    match *spec {
        FabricSpec::LeafSpine {
            spines,
            leaf_downlinks,
        } => {
            assert!(spines >= 1 && leaf_downlinks >= 1);
            let leaves = hosts.div_ceil(leaf_downlinks).max(1);
            let count = leaves + spines;
            let mut wiring = Vec::new();
            for l in 0..leaves {
                for s in 0..spines {
                    wiring.push((l, leaves + s));
                }
            }
            let host_of = (0..hosts).map(|h| h / leaf_downlinks).collect();
            (count, wiring, host_of)
        }
        FabricSpec::FatTree {
            pods,
            edges_per_pod,
            aggs_per_pod,
            cores,
            edge_downlinks,
        } => {
            assert!(pods >= 1 && edges_per_pod >= 1 && aggs_per_pod >= 1 && cores >= 1);
            assert!(
                cores % aggs_per_pod == 0,
                "cores must divide evenly among the aggregation tier"
            );
            assert!(
                hosts <= pods * edges_per_pod * edge_downlinks,
                "fat-tree spec has ports for {} hosts, got {}",
                pods * edges_per_pod * edge_downlinks,
                hosts
            );
            let edges = pods * edges_per_pod;
            let aggs = pods * aggs_per_pod;
            let agg_base = edges;
            let core_base = edges + aggs;
            let count = edges + aggs + cores;
            let mut wiring = Vec::new();
            // Intra-pod full mesh: every edge to every agg of its pod.
            for p in 0..pods {
                for e in 0..edges_per_pod {
                    for a in 0..aggs_per_pod {
                        wiring.push((p * edges_per_pod + e, agg_base + p * aggs_per_pod + a));
                    }
                }
            }
            // Agg j of each pod uplinks to its core block.
            let block = cores / aggs_per_pod;
            for p in 0..pods {
                for a in 0..aggs_per_pod {
                    for c in 0..block {
                        wiring.push((agg_base + p * aggs_per_pod + a, core_base + a * block + c));
                    }
                }
            }
            let host_of = (0..hosts).map(|h| h / edge_downlinks).collect();
            (count, wiring, host_of)
        }
    }
}

/// BFS hop distances from `from` over the switch adjacency.
fn bfs_distances(adj: &[Vec<(usize, usize, usize)>], from: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; adj.len()];
    dist[from] = 0;
    let mut queue = VecDeque::from([from]);
    while let Some(s) = queue.pop_front() {
        for &(n, _, _) in &adj[s] {
            if dist[n] == usize::MAX {
                dist[n] = dist[s] + 1;
                queue.push_back(n);
            }
        }
    }
    dist
}

/// Trunk indices forming a BFS spanning tree rooted at switch 0.
fn spanning_tree(adj: &[Vec<(usize, usize, usize)>], count: usize) -> Vec<usize> {
    let mut seen = vec![false; count];
    let mut tree = Vec::new();
    if count == 0 {
        return tree;
    }
    seen[0] = true;
    let mut queue = VecDeque::from([0usize]);
    while let Some(s) = queue.pop_front() {
        for &(n, _, t) in &adj[s] {
            if !seen[n] {
                seen[n] = true;
                tree.push(t);
                queue.push_back(n);
            }
        }
    }
    assert!(seen.iter().all(|&v| v), "fabric graph is disconnected");
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::mac::EtherType;
    use bytes::Bytes;
    use clic_sim::Sim;

    fn mk_hosts(n: usize) -> Vec<(MacAddr, Rc<RefCell<Link>>, LinkEnd)> {
        (0..n)
            .map(|i| (MacAddr::for_node(i as u32, 0), Link::gigabit(), LinkEnd::B))
            .collect()
    }

    fn rx_counters(hosts: &[(MacAddr, Rc<RefCell<Link>>, LinkEnd)]) -> Vec<Rc<RefCell<u32>>> {
        hosts
            .iter()
            .map(|(_, link, _)| {
                let got = Rc::new(RefCell::new(0u32));
                let g = got.clone();
                link.borrow_mut().attach(
                    LinkEnd::A,
                    Rc::new(move |_sim: &mut Sim, _f: Frame| {
                        *g.borrow_mut() += 1;
                    }),
                );
                got
            })
            .collect()
    }

    fn unicast(
        sim: &mut Sim,
        hosts: &[(MacAddr, Rc<RefCell<Link>>, LinkEnd)],
        from: usize,
        to: usize,
    ) {
        let f = Frame::new(
            hosts[to].0,
            hosts[from].0,
            EtherType::CLIC,
            Bytes::from_static(&[7u8; 64]),
        );
        Link::transmit(&hosts[from].1, sim, LinkEnd::A, f);
    }

    #[test]
    fn leaf_spine_all_pairs_reachable() {
        let mut sim = Sim::new(0);
        let hosts = mk_hosts(8);
        let spec = FabricSpec::LeafSpine {
            spines: 2,
            leaf_downlinks: 2,
        };
        let fabric = Fabric::build(&spec, &hosts);
        assert_eq!(fabric.switch_count(), 6);
        assert_eq!(fabric.trunk_count(), 8);
        let rx = rx_counters(&hosts);
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    unicast(&mut sim, &hosts, i, j);
                }
            }
        }
        sim.run();
        for (i, got) in rx.iter().enumerate() {
            assert_eq!(*got.borrow(), 7, "host {i} must see exactly 7 frames");
        }
        assert_eq!(sim.metrics.counter("eth.switch.drops"), 0);
    }

    #[test]
    fn fat_tree_all_pairs_reachable() {
        let mut sim = Sim::new(0);
        let hosts = mk_hosts(16);
        let spec = FabricSpec::FatTree {
            pods: 4,
            edges_per_pod: 2,
            aggs_per_pod: 2,
            cores: 4,
            edge_downlinks: 2,
        };
        let fabric = Fabric::build(&spec, &hosts);
        assert_eq!(fabric.switch_count(), 4 * 2 + 4 * 2 + 4);
        let rx = rx_counters(&hosts);
        for i in 0..16 {
            for j in 0..16 {
                if i != j {
                    unicast(&mut sim, &hosts, i, j);
                }
            }
        }
        sim.run();
        for (i, got) in rx.iter().enumerate() {
            assert_eq!(*got.borrow(), 15, "host {i} must see exactly 15 frames");
        }
    }

    #[test]
    fn single_host_leaf_spine_is_a_valid_degenerate_fabric() {
        // `leaf_spine_for(1)`: one leaf under the default spines, one
        // attached host. Nothing to deliver to, but the fabric must build,
        // a broadcast must terminate, and nothing may be dropped.
        let mut sim = Sim::new(0);
        let hosts = mk_hosts(1);
        let spec = FabricSpec::leaf_spine_for(1);
        assert!(spec.capacity() >= 1);
        let fabric = Fabric::build(&spec, &hosts);
        assert_eq!(fabric.host_switch(0), 0);
        let rx = rx_counters(&hosts);
        let f = Frame::new(
            MacAddr::BROADCAST,
            hosts[0].0,
            EtherType::CLIC,
            Bytes::from_static(&[3u8; 64]),
        );
        Link::transmit(&hosts[0].1, &mut sim, LinkEnd::A, f);
        sim.set_event_limit(sim.events_executed() + 100_000);
        sim.run();
        assert_eq!(*rx[0].borrow(), 0, "no copy back to the only host");
        assert_eq!(sim.metrics.counter("eth.switch.drops"), 0);
    }

    #[test]
    fn single_spine_ecmp_degenerates_to_one_path() {
        // One spine: every leaf pair has exactly one equal-cost path, so
        // ECMP hashing must not lose or duplicate anything.
        let mut sim = Sim::new(0);
        let hosts = mk_hosts(4);
        let spec = FabricSpec::LeafSpine {
            spines: 1,
            leaf_downlinks: 2,
        };
        let fabric = Fabric::build(&spec, &hosts);
        assert_eq!(fabric.switch_count(), 3, "2 leaves + 1 spine");
        assert_eq!(fabric.trunk_count(), 2, "one uplink per leaf");
        let rx = rx_counters(&hosts);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    unicast(&mut sim, &hosts, i, j);
                }
            }
        }
        sim.run();
        for (i, got) in rx.iter().enumerate() {
            assert_eq!(*got.borrow(), 3, "host {i} must see exactly 3 frames");
        }
        assert_eq!(sim.metrics.counter("eth.switch.drops"), 0);
    }

    #[test]
    fn two_host_fat_tree_delivers_both_ways() {
        // `fat_tree_for(2)` keeps the minimum two pods, so the fabric is
        // far larger than its two tenants; both directions must still
        // deliver exactly once with zero drops.
        let mut sim = Sim::new(0);
        let hosts = mk_hosts(2);
        let spec = FabricSpec::fat_tree_for(2);
        assert_eq!(spec.kind_name(), "fat-tree");
        assert!(spec.capacity() >= 2);
        let fabric = Fabric::build(&spec, &hosts);
        assert_eq!(fabric.switch_count(), 2 * 2 + 2 * 2 + 4);
        let rx = rx_counters(&hosts);
        unicast(&mut sim, &hosts, 0, 1);
        unicast(&mut sim, &hosts, 1, 0);
        sim.run();
        assert_eq!(*rx[0].borrow(), 1);
        assert_eq!(*rx[1].borrow(), 1);
        assert_eq!(sim.metrics.counter("eth.switch.drops"), 0);
    }

    #[test]
    fn broadcast_is_loop_free_and_exactly_once() {
        // The frame-storm regression: on a cyclic switch graph a broadcast
        // must terminate and reach every other host exactly once.
        let mut sim = Sim::new(0);
        let hosts = mk_hosts(8);
        let spec = FabricSpec::LeafSpine {
            spines: 4, // heavily redundant: 4 parallel paths between leaves
            leaf_downlinks: 2,
        };
        let _fabric = Fabric::build(&spec, &hosts);
        let rx = rx_counters(&hosts);
        let f = Frame::new(
            MacAddr::BROADCAST,
            hosts[0].0,
            EtherType::CLIC,
            Bytes::from_static(&[9u8; 64]),
        );
        Link::transmit(&hosts[0].1, &mut sim, LinkEnd::A, f);
        sim.set_event_limit(sim.events_executed() + 1_000_000);
        sim.run();
        assert_eq!(*rx[0].borrow(), 0, "no copy back to the sender");
        for (i, got) in rx.iter().enumerate().skip(1) {
            assert_eq!(*got.borrow(), 1, "host {i} must see exactly one copy");
        }
        // The redundant trunks were pruned from the flood, proving the
        // spanning-tree restriction (not luck) stopped the storm.
        assert!(sim.metrics.counter("eth.fabric.flood_pruned") > 0);
    }

    #[test]
    fn multicast_is_loop_free_on_fat_tree() {
        let mut sim = Sim::new(0);
        let hosts = mk_hosts(8);
        let spec = FabricSpec::FatTree {
            pods: 2,
            edges_per_pod: 2,
            aggs_per_pod: 2,
            cores: 4,
            edge_downlinks: 2,
        };
        let _fabric = Fabric::build(&spec, &hosts);
        let rx = rx_counters(&hosts);
        let f = Frame::new(
            MacAddr::multicast_group(3),
            hosts[2].0,
            EtherType::COLL,
            Bytes::from_static(&[1u8; 64]),
        );
        Link::transmit(&hosts[2].1, &mut sim, LinkEnd::A, f);
        sim.set_event_limit(sim.events_executed() + 1_000_000);
        sim.run();
        for (i, got) in rx.iter().enumerate() {
            let expect = u32::from(i != 2);
            assert_eq!(*got.borrow(), expect, "host {i}");
        }
    }

    #[test]
    fn ecmp_spreads_destinations_across_spines() {
        // With 4 spines and many destination MACs, the leaf's programmed
        // next hops must not all collapse onto one trunk.
        let hosts = mk_hosts(16);
        let spec = FabricSpec::LeafSpine {
            spines: 4,
            leaf_downlinks: 8,
        };
        let fabric = Fabric::build(&spec, &hosts);
        let leaf0 = &fabric.switches()[0];
        let mut used = std::collections::BTreeSet::new();
        for (h, (mac, _, _)) in hosts.iter().enumerate() {
            if fabric.host_switch(h) != 0 {
                if let Some(port) = leaf0.borrow().static_route(*mac) {
                    used.insert(port);
                }
            }
        }
        assert!(used.len() >= 2, "ECMP picked only {used:?}");
    }

    #[test]
    fn build_is_deterministic() {
        let hosts_a = mk_hosts(12);
        let hosts_b = mk_hosts(12);
        let spec = FabricSpec::fat_tree_for(12);
        let fa = Fabric::build(&spec, &hosts_a);
        let fb = Fabric::build(&spec, &hosts_b);
        assert_eq!(fa.switch_count(), fb.switch_count());
        for (sa, sb) in fa.switches().iter().zip(fb.switches()) {
            for (mac, _, _) in &hosts_a {
                assert_eq!(
                    sa.borrow().static_route(*mac),
                    sb.borrow().static_route(*mac)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "ports for")]
    fn overfull_fat_tree_rejected() {
        let hosts = mk_hosts(33);
        let spec = FabricSpec::FatTree {
            pods: 2,
            edges_per_pod: 2,
            aggs_per_pod: 2,
            cores: 4,
            edge_downlinks: 8,
        };
        Fabric::build(&spec, &hosts);
    }
}
