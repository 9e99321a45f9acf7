//! Workload-driver tests: every stack through ping-pong and both stream
//! flavours, plus cross-stack sanity orderings.

use clic_cluster::builder::{Cluster, ClusterConfig};
use clic_cluster::workload::{
    ping_pong, request_reply_cycles, stream, stream_count, stream_pipelined, StackKind,
    StreamResult,
};
use clic_cluster::{CostModel, NodeConfig};
use clic_sim::{ActionArm, EngineProbe, Sim};
use std::cell::RefCell;
use std::rc::Rc;

/// The six stacks the paper compares.
const EVERY_STACK: [StackKind; 6] = [
    StackKind::Clic,
    StackKind::Tcp,
    StackKind::MpiClic,
    StackKind::MpiTcp,
    StackKind::PvmTcp,
    StackKind::Gamma,
];

fn cfg_for(stack: StackKind) -> ClusterConfig {
    let model = CostModel::era_2002();
    let mut cfg = ClusterConfig::paper_pair();
    cfg.node = match stack {
        StackKind::Clic | StackKind::MpiClic => NodeConfig::clic_default(&model),
        StackKind::Tcp | StackKind::MpiTcp | StackKind::PvmTcp => NodeConfig::tcp_default(&model),
        StackKind::Gamma => NodeConfig::gamma_default(&model),
    };
    cfg
}

#[test]
fn ping_pong_works_on_every_stack() {
    for stack in [
        StackKind::Clic,
        StackKind::Tcp,
        StackKind::MpiClic,
        StackKind::MpiTcp,
        StackKind::Gamma,
    ] {
        let cluster = Cluster::build(&cfg_for(stack));
        let mut sim = Sim::new(1);
        let res = ping_pong(&cluster, &mut sim, stack, 256, 5);
        assert_eq!(res.rtt.count(), 5, "{stack:?}");
        let one_way = res.one_way().as_us_f64();
        assert!(
            (3.0..500.0).contains(&one_way),
            "{stack:?} one-way {one_way} us out of band"
        );
    }
}

/// A stream flavour: [`stream`] or [`stream_pipelined`].
type StreamFn = fn(&Cluster, &mut Sim, StackKind, usize, usize) -> StreamResult;

#[test]
fn synchronous_stream_works_on_every_stack() {
    // Both flavours, at a size above MPI's 64 KiB eager limit so that the
    // MPI stacks run their rendezvous: every message arrives everywhere.
    const SIZE: usize = 262_144;
    const COUNT: usize = 6;
    let flavours: [(&str, StreamFn); 2] =
        [("synchronous", stream), ("pipelined", stream_pipelined)];
    for stack in EVERY_STACK {
        for (flavour, run) in flavours {
            let cluster = Cluster::build(&cfg_for(stack));
            let mut sim = Sim::new(2);
            let res = run(&cluster, &mut sim, stack, SIZE, COUNT);
            assert_eq!(res.msgs, COUNT as u64, "{stack:?} {flavour}");
            assert_eq!(res.bytes, (SIZE * COUNT) as u64, "{stack:?} {flavour}");
            let mbps = res.mbps();
            assert!(mbps > 1.0, "{stack:?} {flavour} bandwidth {mbps:.1}");
            assert!(mbps < 1_000.0, "{stack:?} {flavour} exceeds the wire");
        }
    }
}

#[test]
fn pipelined_stream_beats_synchronous() {
    // Offered load pipelines messages; the paper's synchronous benchmark
    // pays a round trip per message — the pipelined result must dominate.
    for stack in EVERY_STACK {
        let sync_mbps = {
            let cluster = Cluster::build(&cfg_for(stack));
            let mut sim = Sim::new(3);
            stream(&cluster, &mut sim, stack, 8_192, 12).mbps()
        };
        let pipe_mbps = {
            let cluster = Cluster::build(&cfg_for(stack));
            let mut sim = Sim::new(3);
            stream_pipelined(&cluster, &mut sim, stack, 8_192, 12).mbps()
        };
        assert!(
            pipe_mbps > sync_mbps,
            "{stack:?}: pipelined {pipe_mbps:.0} <= synchronous {sync_mbps:.0}"
        );
    }
}

#[test]
fn latency_ordering_matches_paper() {
    // GAMMA < CLIC < MPI-CLIC < MPI-TCP for small messages.
    let lat = |stack: StackKind| {
        let mut cfg = cfg_for(stack);
        if stack == StackKind::Clic || stack == StackKind::MpiClic {
            cfg.node.nic = CostModel::era_2002().nic_low_latency(false);
        }
        let cluster = Cluster::build(&cfg);
        let mut sim = Sim::new(4);
        ping_pong(&cluster, &mut sim, stack, 0, 8)
            .one_way()
            .as_us_f64()
    };
    let gamma = lat(StackKind::Gamma);
    let clic = lat(StackKind::Clic);
    let mpi_clic = lat(StackKind::MpiClic);
    let mpi_tcp = lat(StackKind::MpiTcp);
    assert!(gamma < clic, "GAMMA {gamma} < CLIC {clic}");
    assert!(clic < mpi_clic, "CLIC {clic} < MPI-CLIC {mpi_clic}");
    assert!(
        mpi_clic < mpi_tcp,
        "MPI-CLIC {mpi_clic} < MPI-TCP {mpi_tcp}"
    );
}

#[test]
fn request_reply_cycle_times_scale_with_size() {
    let cluster = Cluster::build(&cfg_for(StackKind::Clic));
    let mut sim = Sim::new(5);
    let small = request_reply_cycles(&cluster, &mut sim, StackKind::Clic, 64, 4, 4)
        .mean()
        .unwrap();
    let cluster = Cluster::build(&cfg_for(StackKind::Clic));
    let mut sim = Sim::new(5);
    let large = request_reply_cycles(&cluster, &mut sim, StackKind::Clic, 262_144, 4, 4)
        .mean()
        .unwrap();
    assert!(
        large > small * 10,
        "256 KB cycle {large} must dwarf 64 B cycle {small}"
    );
}

#[test]
fn stream_reports_cpu_utilisation() {
    let cluster = Cluster::build(&cfg_for(StackKind::Clic));
    let mut sim = Sim::new(6);
    let res = stream_pipelined(&cluster, &mut sim, StackKind::Clic, 65_536, 32);
    assert!(res.sender_cpu > 0.0 && res.sender_cpu <= 1.5);
    assert!(res.receiver_cpu > 0.05, "receiver must be visibly busy");
    // Receiver does more work per byte than the sender under CLIC 0-copy.
    assert!(res.receiver_cpu > res.sender_cpu);
}

/// Counts the events each dispatch arm ran: `[resume, boxed]`.
struct ArmCount(Rc<RefCell<[u64; 2]>>);

impl EngineProbe for ArmCount {
    fn begin(&mut self, _: ActionArm) {}

    fn end(&mut self, arm: ActionArm) {
        let i = match arm {
            ActionArm::Resume => 0,
            ActionArm::Boxed => 1,
        };
        self.0.borrow_mut()[i] += 1;
    }
}

#[test]
fn resource_completions_are_the_resumed_events() {
    // CPU and PCI-bus completions are exactly the resumed events; every
    // other event is a boxed closure.
    for stack in [StackKind::Clic, StackKind::Tcp] {
        let cluster = Cluster::build(&cfg_for(stack));
        let mut sim = Sim::new(7);
        let arms = Rc::new(RefCell::new([0u64; 2]));
        sim.set_probe(Box::new(ArmCount(arms.clone())));
        let size = 65_536;
        let res = stream(&cluster, &mut sim, stack, size, stream_count(size));
        assert_eq!(res.msgs, stream_count(size) as u64, "{stack:?}");

        let mut buses = Vec::new();
        for nic in cluster.nodes.iter().flat_map(|n| &n.nics) {
            let pci = nic.borrow().pci();
            if !buses.iter().any(|b| Rc::ptr_eq(b, &pci)) {
                buses.push(pci);
            }
        }
        let cpu_items: u64 = cluster
            .nodes
            .iter()
            .map(|n| n.kernel.borrow().cpu.borrow().items_run())
            .sum();
        let bus_items: u64 = buses.iter().map(|b| b.transactions()).sum();
        let [resumed, boxed] = *arms.borrow();
        assert!(cpu_items > 0 && bus_items > 0, "{stack:?}");
        assert_eq!(resumed, cpu_items + bus_items, "{stack:?}");
        assert_eq!(resumed + boxed, sim.events_executed(), "{stack:?}");
    }
}
