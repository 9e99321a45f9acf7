//! Golden crash-recovery tests: the epoch/keepalive machinery end to end
//! on a real two-node simulation.
//!
//! The scenarios the robustness work exists for:
//!
//! * a receiver that crash-restarts mid-transfer must *reject* the
//!   sender's stale pre-crash sequence space (counted as
//!   `clic.drops.stale_epoch`) and force a typed [`ClicError::StaleEpoch`]
//!   teardown — never silently accept packets from a dead session;
//! * a receiver that crashes and never comes back must surface
//!   [`ClicError::PeerDead`] via the keepalive deadline — never hang;
//! * after either teardown the surviving node is fully usable: a fresh
//!   send to the restarted peer completes.

use bytes::Bytes;
use clic_core::{ClicConfig, ClicError, ClicModule, ClicPort};
use clic_ethernet::{Link, LinkEnd, MacAddr};
use clic_hw::{Nic, NicConfig, PciBus};
use clic_os::{Kernel, OsCosts};
use clic_sim::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

struct Node {
    kernel: Rc<RefCell<Kernel>>,
    module: Rc<RefCell<ClicModule>>,
    mac: MacAddr,
}

fn mk_node(id: u32, link: Rc<RefCell<Link>>, end: LinkEnd, config: ClicConfig) -> Node {
    let kernel = Kernel::new(id, OsCosts::era_2002());
    let nic = Nic::new(
        MacAddr::for_node(id, 0),
        NicConfig::gigabit_standard(),
        PciBus::pci_33mhz_32bit(),
        link,
        end,
    );
    Nic::attach_to_link(&nic);
    let dev = Kernel::add_device(&kernel, nic);
    let module = ClicModule::install(&kernel, vec![dev], config);
    Node {
        kernel,
        module,
        mac: MacAddr::for_node(id, 0),
    }
}

fn capture_errors(node: &Node) -> Rc<RefCell<Vec<ClicError>>> {
    let errors: Rc<RefCell<Vec<ClicError>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = errors.clone();
    node.module
        .borrow_mut()
        .set_error_handler(Rc::new(move |_sim, e| sink.borrow_mut().push(e)));
    errors
}

/// The restarted receiver rejects the sender's pre-crash sequence space
/// packet by packet, the sender tears down with `StaleEpoch`, and the
/// pair is immediately usable again.
///
/// The keepalive interval is set *longer* than the RTO on purpose: the
/// first post-restart contact is then a retransmitted *data* packet still
/// stamped with the dead session's epoch, exercising the receive-side
/// stale-drop + RESET path rather than the probe/PONG discovery path.
#[test]
fn restarted_receiver_rejects_stale_packets() {
    let mut sim = Sim::new(42);
    let link = Link::gigabit();
    let mut cfg = ClicConfig::paper_default();
    cfg.epoch_guard = true;
    cfg.keepalive_interval = Some(SimDuration::from_ms(50));
    cfg.peer_dead_timeout = SimDuration::from_ms(500);
    let a = mk_node(1, link.clone(), LinkEnd::A, cfg.clone());
    let b = mk_node(2, link, LinkEnd::B, cfg);
    let errors = capture_errors(&a);

    let tx_pid = a.kernel.borrow_mut().processes.spawn();
    let rx_pid = b.kernel.borrow_mut().processes.spawn();
    let tx = ClicPort::bind(&a.module, tx_pid, 5);
    let rx = ClicPort::bind(&b.module, rx_pid, 5);
    let delivered = Rc::new(RefCell::new(0u32));
    {
        let delivered = delivered.clone();
        rx.recv(&mut sim, move |_s, _m| *delivered.borrow_mut() += 1);
    }
    // Large enough that the transfer is still in flight at the crash.
    tx.send(&mut sim, b.mac, 5, Bytes::from(vec![0x5Au8; 512 * 1024]));
    {
        let module = b.module.clone();
        sim.schedule_at(SimTime::from_us(300), move |_s| {
            module.borrow_mut().crash();
        });
    }
    {
        let module = b.module.clone();
        sim.schedule_at(SimTime::from_us(900), move |_s| {
            module.borrow_mut().restart();
        });
    }
    sim.set_event_limit(50_000_000);
    sim.run();
    assert!(sim.events_executed() < 50_000_000, "never quiesced");

    // The sender tore down with StaleEpoch — it heard the new incarnation.
    {
        let errors = errors.borrow();
        assert_eq!(errors.len(), 1, "exactly one teardown: {errors:?}");
        match &errors[0] {
            ClicError::StaleEpoch { peer, channel } => {
                assert_eq!(*peer, b.mac);
                assert_eq!(*channel, 5);
            }
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
    }
    // The restarted receiver rejected stale pre-crash packets outright.
    let b_stats = b.module.borrow().stats();
    assert!(
        b_stats.stale_epoch_drops > 0,
        "restarted receiver must reject stale sequence space"
    );
    assert_eq!(
        a.module.borrow().stats().flow_failures_stale_epoch,
        1,
        "the teardown is split out by cause"
    );
    // The half-transferred message never reached the application.
    assert_eq!(*delivered.borrow(), 0);
    // No receive-side bytes left stranded on either node.
    assert_eq!(a.module.borrow().buffered_bytes(), 0);
    assert_eq!(b.module.borrow().buffered_bytes(), 0);

    // Recovery: the crash wiped the receiver's port bindings (kernel
    // memory), so rebind and exchange a fresh message — the pair must
    // work immediately under the new epoch.
    let rx_pid = b.kernel.borrow_mut().processes.spawn();
    let rx = ClicPort::bind(&b.module, rx_pid, 5);
    {
        let delivered = delivered.clone();
        rx.recv(&mut sim, move |_s, _m| *delivered.borrow_mut() += 1);
    }
    tx.send(&mut sim, b.mac, 5, Bytes::from(vec![0xA5u8; 64 * 1024]));
    sim.run();
    assert!(
        sim.events_executed() < 50_000_000,
        "recovery never quiesced"
    );
    assert_eq!(*delivered.borrow(), 1, "post-restart send must complete");
    assert_eq!(errors.borrow().len(), 1, "no further teardowns");
}

/// A peer that crashes and never returns surfaces `PeerDead` through the
/// keepalive deadline instead of hanging, and every timer dies with it.
#[test]
fn crashed_peer_without_restart_surfaces_peer_dead() {
    let mut sim = Sim::new(17);
    let link = Link::gigabit();
    let mut cfg = ClicConfig::paper_default();
    cfg.epoch_guard = true;
    cfg.keepalive_interval = Some(SimDuration::from_us(500));
    cfg.peer_dead_timeout = SimDuration::from_ms(5);
    // Keep retry teardown out of the race so the liveness path is the
    // one under test.
    cfg.max_retries = 64;
    cfg.rto_max = SimDuration::from_ms(50);
    let a = mk_node(1, link.clone(), LinkEnd::A, cfg.clone());
    let b = mk_node(2, link, LinkEnd::B, cfg);
    let errors = capture_errors(&a);

    let tx_pid = a.kernel.borrow_mut().processes.spawn();
    let tx = ClicPort::bind(&a.module, tx_pid, 3);
    tx.send(&mut sim, b.mac, 3, Bytes::from(vec![0x11u8; 256 * 1024]));
    {
        let module = b.module.clone();
        sim.schedule_at(SimTime::from_us(300), move |_s| {
            module.borrow_mut().crash();
        });
    }
    sim.set_event_limit(50_000_000);
    sim.run();
    assert!(sim.events_executed() < 50_000_000, "never quiesced");

    let errors = errors.borrow();
    assert_eq!(errors.len(), 1, "exactly one teardown: {errors:?}");
    match &errors[0] {
        ClicError::PeerDead { peer, channel } => {
            assert_eq!(*peer, b.mac);
            assert_eq!(*channel, 3);
        }
        other => panic!("expected PeerDead, got {other:?}"),
    }
    let a_stats = a.module.borrow().stats();
    assert_eq!(a_stats.flow_failures_peer_dead, 1);
    assert!(a_stats.keepalive_probes > 0, "liveness was probe-driven");
    assert_eq!(a.module.borrow().buffered_bytes(), 0);
}
