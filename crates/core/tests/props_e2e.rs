//! End-to-end property test: CLIC delivers arbitrary payloads intact over
//! lossy links, for randomized sizes, seeds and loss rates.
//!
//! Each case runs a full two-node simulation, so the case count is kept
//! small; the regular integration tests cover the deterministic paths.

use bytes::Bytes;
use clic_core::{ClicConfig, ClicModule, ClicPort};
use clic_ethernet::{FaultPlan, Link, LinkEnd, LossModel, MacAddr};
use clic_hw::{Nic, NicConfig, PciBus};
use clic_os::{Kernel, OsCosts};
use clic_sim::Sim;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

struct Node {
    kernel: Rc<RefCell<Kernel>>,
    module: Rc<RefCell<ClicModule>>,
    mac: MacAddr,
}

fn mk_node(id: u32, link: Rc<RefCell<Link>>, end: LinkEnd, jumbo: bool) -> Node {
    let kernel = Kernel::new(id, OsCosts::era_2002());
    let cfg = if jumbo {
        NicConfig::gigabit_jumbo()
    } else {
        NicConfig::gigabit_standard()
    };
    let nic = Nic::new(
        MacAddr::for_node(id, 0),
        cfg,
        PciBus::pci_33mhz_32bit(),
        link,
        end,
    );
    Nic::attach_to_link(&nic);
    let dev = Kernel::add_device(&kernel, nic);
    let module = ClicModule::install(&kernel, vec![dev], ClicConfig::paper_default());
    Node {
        kernel,
        module,
        mac: MacAddr::for_node(id, 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary payload contents and sizes survive arbitrary Bernoulli
    /// loss, on either MTU, byte-for-byte — the reliability invariant the
    /// whole protocol exists for.
    #[test]
    fn lossy_delivery_is_exact(
        seed in any::<u64>(),
        len in 0usize..30_000,
        loss_permille in 0u32..20,
        jumbo in any::<bool>(),
        nmsgs in 1usize..4,
    ) {
        let mut sim = Sim::new(seed);
        let link = Link::gigabit();
        if loss_permille > 0 {
            for end in [LinkEnd::A, LinkEnd::B] {
                let plan = FaultPlan {
                    loss: LossModel::Bernoulli(loss_permille as f64 / 1000.0),
                    ..FaultPlan::default()
                };
                link.borrow_mut().set_faults(end, plan);
            }
        }
        let a = mk_node(1, link.clone(), LinkEnd::A, jumbo);
        let b = mk_node(2, link, LinkEnd::B, jumbo);
        let tx_pid = a.kernel.borrow_mut().processes.spawn();
        let rx_pid = b.kernel.borrow_mut().processes.spawn();
        let tx = ClicPort::bind(&a.module, tx_pid, 1);
        let rx = Rc::new(ClicPort::bind(&b.module, rx_pid, 1));

        // Payload content derived from the seed so it is arbitrary but
        // reproducible.
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
        sim.set_event_limit(30_000_000);
        sim.run();

        let got = got.borrow();
        prop_assert_eq!(got.len(), nmsgs, "every message must arrive");
        for (k, data) in got.iter().enumerate() {
            prop_assert_eq!(data, &mk_payload(k), "message {} corrupted", k);
        }
    }
}
