//! Node lifecycle: schedulable crash-stop, crash-restart and link flap.
//!
//! A *crash* halts the node's kernel (pending bottom halves are
//! discarded, frames arriving afterwards are drained and dropped at the
//! driver) and crash-stops its CLIC module, losing every outbound flow,
//! receive-side buffer, port binding and learned peer epoch — exactly
//! what a kernel panic loses. A *restart* resumes the kernel and brings
//! CLIC back under a fresh session epoch, so peers still holding
//! pre-crash sequence space get session resets instead of silent
//! acceptance. A *flap* takes one link dark in both directions for a
//! window — the cable-pull / switch-port-reset fault.
//!
//! These helpers are the building blocks of the chaos-soak harness in
//! [`crate::workload`] (see `figures chaos`), and are deliberately thin:
//! all protocol-visible behaviour lives in `clic-core` / `clic-os` /
//! `clic-ethernet`.

use crate::builder::Cluster;
use clic_sim::{Sim, SimTime};

/// Schedule a crash-stop of `cluster.nodes[node]` at `at`: the kernel
/// halts (dropping its deferred work) and the CLIC module, when
/// installed, loses all in-flight state. Frames arriving while crashed
/// are dropped at the driver.
pub fn schedule_crash(cluster: &Cluster, sim: &mut Sim, node: usize, at: SimTime) {
    let kernel = cluster.nodes[node].kernel.clone();
    let clic = cluster.nodes[node].clic.clone();
    sim.schedule_at(at, move |_sim| {
        kernel.borrow_mut().halt();
        if let Some(clic) = &clic {
            clic.borrow_mut().crash();
        }
    });
}

/// Schedule a restart of `cluster.nodes[node]` at `at`: the kernel
/// resumes and the CLIC module, when installed, comes back empty under a
/// new session epoch (its incarnation number increments).
pub fn schedule_restart(cluster: &Cluster, sim: &mut Sim, node: usize, at: SimTime) {
    let kernel = cluster.nodes[node].kernel.clone();
    let clic = cluster.nodes[node].clic.clone();
    sim.schedule_at(at, move |_sim| {
        kernel.borrow_mut().resume();
        if let Some(clic) = &clic {
            clic.borrow_mut().restart();
        }
    });
}

/// Take `cluster.links[link]` dark in both directions over
/// `[start, end)`. Installed on the link's fault plan immediately (the
/// plan is consulted per frame), so this can be called before the run
/// starts; frames already in flight on the wire still arrive.
pub fn flap_link(cluster: &Cluster, link: usize, start: SimTime, end: SimTime) {
    cluster.links[link].borrow_mut().flap(start, end);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClusterConfig;
    use bytes::Bytes;
    use clic_core::{ClicError, ClicPort};
    use clic_sim::{SimDuration, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn robust_pair() -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_pair();
        let clic = cfg.node.clic.as_mut().unwrap();
        clic.keepalive_interval = Some(SimDuration::from_us(500));
        clic.peer_dead_timeout = SimDuration::from_ms(10);
        clic.epoch_guard = true;
        cfg
    }

    #[test]
    fn crash_restart_bumps_epoch_and_resumes_kernel() {
        let cluster = Cluster::build(&robust_pair());
        let mut sim = Sim::new(1);
        schedule_crash(&cluster, &mut sim, 1, SimTime::from_us(10));
        schedule_restart(&cluster, &mut sim, 1, SimTime::from_us(20));
        sim.run();
        assert!(!cluster.nodes[1].kernel.borrow().is_halted());
        let clic = cluster.nodes[1].clic();
        let clic = clic.borrow();
        assert!(!clic.is_crashed());
        assert_eq!(clic.epoch(), 2);
    }

    #[test]
    fn flap_installs_outages_both_directions() {
        let cluster = Cluster::build(&ClusterConfig::paper_pair());
        flap_link(&cluster, 0, SimTime::from_us(100), SimTime::from_us(300));
        let link = cluster.links[0].borrow();
        for end in [clic_ethernet::LinkEnd::A, clic_ethernet::LinkEnd::B] {
            assert_eq!(
                link.faults(end).outages,
                vec![(SimTime::from_us(100), SimTime::from_us(300))]
            );
        }
    }

    /// A receiver that crash-restarts mid-transfer forces the sender's
    /// flow into a typed teardown (StaleEpoch once the new epoch is
    /// heard, or PeerDead if the keepalive deadline fires first) — it
    /// never hangs and never silently succeeds with lost state.
    #[test]
    fn crash_restart_mid_transfer_surfaces_typed_error() {
        let cluster = Cluster::build(&robust_pair());
        let mut sim = Sim::new(3);
        let errors: Rc<RefCell<Vec<ClicError>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let errors = errors.clone();
            cluster.nodes[0]
                .clic()
                .borrow_mut()
                .set_error_handler(Rc::new(move |_s, e| errors.borrow_mut().push(e)));
        }
        let pid = cluster.nodes[0].kernel.borrow_mut().processes.spawn();
        let tx = ClicPort::bind(&cluster.nodes[0].clic(), pid, 9);
        // Large enough that the transfer straddles the crash window.
        tx.send(
            &mut sim,
            cluster.nodes[1].mac,
            9,
            Bytes::from(vec![7u8; 512 * 1024]),
        );
        schedule_crash(&cluster, &mut sim, 1, SimTime::from_us(300));
        schedule_restart(&cluster, &mut sim, 1, SimTime::from_us(900));
        sim.set_event_limit(50_000_000);
        sim.run();
        assert!(sim.events_executed() < 50_000_000, "never quiesced");
        let errors = errors.borrow();
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, ClicError::StaleEpoch { .. } | ClicError::PeerDead { .. })),
            "expected a typed teardown, got {errors:?}"
        );
    }
}
