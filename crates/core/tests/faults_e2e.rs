//! End-to-end property test for the fault-injection subsystem: under an
//! arbitrary fault plan (loss — uniform or bursty —, corruption,
//! duplication, reordering, a link outage, a receiver crash/restart),
//! CLIC either delivers every message exactly once, in order and
//! byte-for-byte, or tears the flow down with a typed error
//! ([`ClicError::MaxRetriesExceeded`], [`ClicError::PeerDead`] or
//! [`ClicError::StaleEpoch`]) — never a silent drop, duplicate or
//! corruption.
//!
//! Each case runs a full two-node simulation, so the case count is kept
//! small; the deterministic paths are covered by the unit tests in
//! `clic-ethernet` and `clic-core`.

use bytes::Bytes;
use clic_core::{ClicConfig, ClicError, ClicModule, ClicPort, CongestionConfig};
use clic_ethernet::{FaultPlan, Link, LinkEnd, LossModel, MacAddr, Switch};
use clic_hw::{Nic, NicConfig, PciBus};
use clic_os::{Kernel, OsCosts};
use clic_sim::{Sim, SimDuration, SimTime};
use proptest::prelude::*;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exactly-once in-order delivery, or a typed error — never silence.
    #[test]
    fn any_fault_schedule_is_exact_or_errors(
        seed in any::<u64>(),
        len in 0usize..20_000,
        loss_permille in 0u32..30,
        bursty in any::<bool>(),
        corrupt_permille in 0u32..20,
        dup_permille in 0u32..20,
        reorder_permille in 0u32..20,
        outage in any::<bool>(),
        nmsgs in 1usize..4,
        crash in any::<bool>(),
        crash_at_us in 200u64..4_000,
        restart_after_us in 100u64..3_000,
        ecn in any::<bool>(),
        dctcp in any::<bool>(),
    ) {
        let mut sim = Sim::new(seed);
        let link = Link::gigabit();
        let p = loss_permille as f64 / 1000.0;
        let plan = FaultPlan {
            loss: if loss_permille == 0 {
                LossModel::None
            } else if bursty {
                LossModel::GilbertElliott {
                    p_enter_burst: 0.25 * p / (1.0 - p),
                    p_exit_burst: 0.25,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                }
            } else {
                LossModel::Bernoulli(p)
            },
            corrupt: corrupt_permille as f64 / 1000.0,
            duplicate: dup_permille as f64 / 1000.0,
            reorder: reorder_permille as f64 / 1000.0,
            reorder_hold: SimDuration::from_us(80),
            outages: if outage {
                // A 2 ms blackout early in the run; the adaptive RTO
                // (max 200 ms, 16 retries) must ride it out.
                vec![(SimTime::from_us(1_000), SimTime::from_us(3_000))]
            } else {
                Vec::new()
            },
        };
        link.borrow_mut().set_faults(LinkEnd::A, plan.clone());
        link.borrow_mut().set_faults(LinkEnd::B, plan.clone());

        // With a crash in the schedule, run the full robustness stack:
        // epoch guard (so the restarted receiver rejects stale sequence
        // space) and keepalive (so a dead peer surfaces as PeerDead).
        let mut cfg = ClicConfig::paper_default();
        if crash {
            cfg.keepalive_interval = Some(SimDuration::from_us(500));
            cfg.peer_dead_timeout = SimDuration::from_ms(8);
            cfg.epoch_guard = true;
        }
        // ECN cases interpose a store-and-forward switch with a shallow
        // mark threshold (marking needs an output queue to measure) and
        // arm the congestion window on both endpoints, so marks, echoes
        // and cwnd cuts compose with the drawn loss/reorder/crash
        // schedule. The fault plan rides the sender-side hop both ways;
        // the delivery contract must hold regardless.
        if ecn {
            cfg.congestion = Some(if dctcp {
                CongestionConfig::dctcp()
            } else {
                CongestionConfig::aimd()
            });
        }
        // The switch lives as long as the run: its links hold it weakly.
        let (a, b, _switch) = if ecn {
            let link_b = Link::gigabit();
            let switch = Switch::gigabit_default();
            // Threshold 1 marks any frame that finds the egress busy —
            // the deepest marking pressure the scheme allows, so marks
            // genuinely interleave with the drawn faults even on this
            // single flow (matched link rates never backlog deeper).
            switch
                .borrow_mut()
                .try_set_mark_threshold(1)
                .expect("threshold 1 is below the default queue limit");
            Switch::attach_port(&switch, link.clone(), LinkEnd::B);
            Switch::attach_port(&switch, link_b.clone(), LinkEnd::A);
            (
                mk_node(1, link, LinkEnd::A, cfg.clone()),
                mk_node(2, link_b, LinkEnd::B, cfg),
                Some(switch),
            )
        } else {
            (
                mk_node(1, link.clone(), LinkEnd::A, cfg.clone()),
                mk_node(2, link, LinkEnd::B, cfg),
                None,
            )
        };
        let errors: Rc<RefCell<Vec<ClicError>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let errors = errors.clone();
            a.module.borrow_mut().set_error_handler(Rc::new(move |_sim, e| {
                errors.borrow_mut().push(e);
            }));
        }
        let tx_pid = a.kernel.borrow_mut().processes.spawn();
        let rx_pid = b.kernel.borrow_mut().processes.spawn();
        let tx = ClicPort::bind(&a.module, tx_pid, 1);
        let rx = Rc::new(ClicPort::bind(&b.module, rx_pid, 1));

        let mk_payload = |tag: usize| -> Bytes {
            Bytes::from(
                (0..len)
                    .map(|i| ((i as u64).wrapping_mul(seed | 1).wrapping_add(tag as u64)) as u8)
                    .collect::<Vec<_>>(),
            )
        };
        let got: Rc<RefCell<Vec<Bytes>>> = Rc::new(RefCell::new(Vec::new()));
        fn drain(port: Rc<ClicPort>, sim: &mut Sim, got: Rc<RefCell<Vec<Bytes>>>, left: usize) {
            if left == 0 {
                return;
            }
            let p = port.clone();
            port.recv(sim, move |sim, msg| {
                got.borrow_mut().push(msg.data);
                drain(p.clone(), sim, got, left - 1);
            });
        }
        drain(rx, &mut sim, got.clone(), nmsgs);
        for k in 0..nmsgs {
            tx.send(&mut sim, b.mac, 1, mk_payload(k));
        }
        if crash {
            // Crash-stop the receiver mid-run, losing all in-flight CLIC
            // state, then restart it under a fresh epoch.
            let module = b.module.clone();
            sim.schedule_at(SimTime::from_us(crash_at_us), move |_s| {
                module.borrow_mut().crash();
            });
            let module = b.module.clone();
            sim.schedule_at(SimTime::from_us(crash_at_us + restart_after_us), move |_s| {
                module.borrow_mut().restart();
            });
        }
        sim.set_event_limit(30_000_000);
        sim.run();
        // Timers must quiesce: the run ends because the event queue
        // drains, not because it hit the limit.
        prop_assert!(sim.events_executed() < 30_000_000, "simulation never quiesced");

        let got = got.borrow();
        let errors = errors.borrow();
        for e in errors.iter() {
            prop_assert!(
                matches!(
                    e,
                    ClicError::MaxRetriesExceeded { .. }
                        | ClicError::PeerDead { .. }
                        | ClicError::StaleEpoch { .. }
                ),
                "unexpected error kind: {e:?}"
            );
            if !crash {
                prop_assert!(matches!(e, ClicError::MaxRetriesExceeded { .. }));
            }
        }
        if errors.is_empty() && !crash {
            prop_assert_eq!(got.len(), nmsgs, "no error, so every message must arrive");
        }
        // A receiver crash may discard a message the module already
        // acknowledged but the application had not yet drained (the
        // end-to-end argument in action) — but it can never *create* one.
        prop_assert!(got.len() <= nmsgs, "failure must never create messages");
        // Whatever arrived is the exact in-order prefix: no duplicates,
        // no reordering, no corruption reaches the application.
        for (k, data) in got.iter().enumerate() {
            prop_assert_eq!(data, &mk_payload(k), "message {} corrupted", k);
        }
    }
}

/// The ECN path in earnest: a clean switch-mediated run with a shallow
/// mark threshold must deliver exactly-once in order AND actually
/// exercise the mark→echo→cwnd machinery. The property test above draws
/// ECN configs under arbitrary fault schedules; this fixed schedule
/// proves marks really flow (a schedule that never marks would make
/// those draws vacuous).
#[test]
fn ecn_marking_path_delivers_and_echoes() {
    let mut sim = Sim::new(3);
    let link_a = Link::gigabit();
    let link_b = Link::gigabit();
    let switch = Switch::gigabit_default();
    switch.borrow_mut().try_set_mark_threshold(1).unwrap();
    Switch::attach_port(&switch, link_a.clone(), LinkEnd::B);
    Switch::attach_port(&switch, link_b.clone(), LinkEnd::A);
    let mut cfg = ClicConfig::paper_default();
    cfg.congestion = Some(CongestionConfig::dctcp());
    let a = mk_node(1, link_a, LinkEnd::A, cfg.clone());
    let b = mk_node(2, link_b, LinkEnd::B, cfg);
    let tx_pid = a.kernel.borrow_mut().processes.spawn();
    let rx_pid = b.kernel.borrow_mut().processes.spawn();
    let tx = ClicPort::bind(&a.module, tx_pid, 1);
    let rx = Rc::new(ClicPort::bind(&b.module, rx_pid, 1));
    let nmsgs = 4usize;
    let len = 60_000usize;
    let mk_payload =
        |tag: usize| Bytes::from((0..len).map(|i| (i + tag) as u8).collect::<Vec<_>>());
    let got: Rc<RefCell<Vec<Bytes>>> = Rc::new(RefCell::new(Vec::new()));
    fn drain(port: Rc<ClicPort>, sim: &mut Sim, got: Rc<RefCell<Vec<Bytes>>>, left: usize) {
        if left == 0 {
            return;
        }
        let p = port.clone();
        port.recv(sim, move |sim, msg| {
            got.borrow_mut().push(msg.data);
            drain(p.clone(), sim, got, left - 1);
        });
    }
    drain(rx, &mut sim, got.clone(), nmsgs);
    for k in 0..nmsgs {
        tx.send(&mut sim, b.mac, 1, mk_payload(k));
    }
    sim.run();
    let got = got.borrow();
    assert_eq!(got.len(), nmsgs, "every message delivered");
    for (k, data) in got.iter().enumerate() {
        assert_eq!(data, &mk_payload(k), "message {k} intact, in order");
    }
    // The fragment bursts backlog the switch's output queue past the
    // threshold, so the path must have marked, echoed and cut cwnd.
    let marks = sim.metrics.counter("eth.switch.ecn_marks");
    assert!(marks > 0, "switch never marked");
    let echoes = a.module.borrow().stats().ecn_echoes;
    assert!(echoes > 0, "sender never saw an echo");
    // Every echo consumes at least one marked arrival.
    assert!(marks >= echoes, "{echoes} echoes from {marks} marks");
}

/// A link that goes dark for good surfaces the typed error after
/// `max_retries` — the deterministic teardown path.
#[test]
fn permanent_outage_surfaces_max_retries_error() {
    let mut sim = Sim::new(9);
    let link = Link::gigabit();
    let plan = FaultPlan {
        // Blackout from 50 µs until long after the retry budget burns out.
        outages: vec![(SimTime::from_us(50), SimTime::from_us(600_000_000))],
        ..FaultPlan::default()
    };
    link.borrow_mut().set_faults(LinkEnd::A, plan.clone());
    link.borrow_mut().set_faults(LinkEnd::B, plan);
    let mut cfg = ClicConfig::paper_default();
    cfg.max_retries = 3;
    let a = mk_node(1, link.clone(), LinkEnd::A, cfg.clone());
    let b = mk_node(2, link, LinkEnd::B, cfg);
    let errors: Rc<RefCell<Vec<ClicError>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let errors = errors.clone();
        a.module
            .borrow_mut()
            .set_error_handler(Rc::new(move |_sim, e| {
                errors.borrow_mut().push(e);
            }));
    }
    let tx_pid = a.kernel.borrow_mut().processes.spawn();
    let rx_pid = b.kernel.borrow_mut().processes.spawn();
    let tx = ClicPort::bind(&a.module, tx_pid, 7);
    let rx = ClicPort::bind(&b.module, rx_pid, 7);
    let delivered = Rc::new(RefCell::new(0u32));
    {
        let delivered = delivered.clone();
        rx.recv(&mut sim, move |_s, _m| *delivered.borrow_mut() += 1);
    }
    tx.send(&mut sim, b.mac, 7, Bytes::from(vec![0xAAu8; 4096]));
    sim.set_event_limit(30_000_000);
    sim.run();

    let errors = errors.borrow();
    assert_eq!(errors.len(), 1, "exactly one flow failure: {errors:?}");
    match &errors[0] {
        ClicError::MaxRetriesExceeded {
            peer,
            channel,
            retries,
            ..
        } => {
            assert_eq!(*peer, b.mac);
            assert_eq!(*channel, 7);
            assert!(*retries > 3, "teardown only past the budget: {retries}");
        }
        other => panic!("expected MaxRetriesExceeded, got {other:?}"),
    }
    assert_eq!(*delivered.borrow(), 0);
    assert_eq!(a.module.borrow().stats().flow_failures, 1);
}
