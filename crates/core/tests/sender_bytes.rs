//! Frames carry the sender's bytes: CLIC hands the NIC each packet's
//! header and data as they lie (§3.1's fragmented SK_BUFF), so no frame
//! holds a host copy the model does not charge.
//!
//! * On the 0-copy path every data frame's body is a slice of the user's
//!   message allocation.
//! * A packet is copied on the host only where the model charges the
//!   staging copy — ring-full staging on the 0-copy path, the first post
//!   on the 1-copy path — and every later post and retransmission sends
//!   that one copy.
//!
//! Frames are observed where they exist: at the receiving driver's
//! dispatch, and on the wire through a tap that forwards them over a
//! lossy link. The logs keep every body alive, so the buffer pool cannot
//! hand a freed copy's address to a later one.

use bytes::Bytes;
use clic_core::{ClicConfig, ClicHeader, ClicModule, ClicPort, PacketType, RecvMsg};
use clic_ethernet::{EtherType, FaultPlan, Frame, Link, LinkEnd, LossModel, MacAddr};
use clic_hw::{Nic, NicConfig, PciBus};
use clic_os::{Kernel, OsCosts, PacketHandler};
use clic_sim::{Sim, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A kernel with one NIC on `end` of `link`.
fn host(id: u32, nic_cfg: NicConfig, link: Rc<RefCell<Link>>, end: LinkEnd) -> Rc<RefCell<Kernel>> {
    let kernel = Kernel::new(id, OsCosts::era_2002());
    let nic = Nic::new(
        MacAddr::for_node(id, 0),
        nic_cfg,
        PciBus::pci_33mhz_32bit(),
        link,
        end,
    );
    Nic::attach_to_link(&nic);
    Kernel::add_device(&kernel, nic);
    kernel
}

fn message(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
}

/// Whether `part` lies inside `whole`'s allocation.
fn inside(part: &Bytes, whole: &Bytes) -> bool {
    let (p, w) = (part.as_ptr() as usize, whole.as_ptr() as usize);
    w <= p && p + part.len() <= w + whole.len()
}

/// Every frame the receiving driver dispatches for CLIC.
#[derive(Default)]
struct Dispatched(RefCell<Vec<Frame>>);

impl PacketHandler for Dispatched {
    fn handle(&self, _: &mut Sim, _: &Rc<RefCell<Kernel>>, _: usize, frame: Frame) {
        self.0.borrow_mut().push(frame);
    }
}

#[test]
fn zero_copy_frames_carry_the_message_allocation() {
    let mut sim = Sim::new(0);
    let link = Link::gigabit();
    let nic_cfg = NicConfig::gigabit_standard();
    let a = host(1, nic_cfg.clone(), link.clone(), LinkEnd::A);
    let b = host(2, nic_cfg, link, LinkEnd::B);
    let module = ClicModule::install(&a, vec![0], ClicConfig::paper_default());
    let log = Rc::new(Dispatched::default());
    b.borrow_mut()
        .register_handler(EtherType::CLIC.0, log.clone());
    let pid = a.borrow_mut().processes.spawn();
    let port = ClicPort::bind(&module, pid, 1);
    let data = message(64 << 10);
    port.send(&mut sim, MacAddr::for_node(2, 0), 1, data.clone());
    // The 64-packet window admits the whole message; stop before the
    // 10 ms retransmission timer, so each packet is dispatched once.
    sim.run_until(SimTime::from_us(5_000));

    let frames = log.0.borrow();
    let mut wire = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let (header, chunk) = ClicHeader::decode(frame).expect("a CLIC frame");
        assert_eq!(header.ptype, PacketType::Data);
        assert_eq!(header.seq, i as u32, "dispatched in order");
        assert!(
            inside(&frame.body, &data),
            "frame {i}: body is not a slice of the sent message"
        );
        assert_eq!(
            chunk.as_ptr(),
            frame.body.as_ptr(),
            "decode copied frame {i}"
        );
        wire.extend_from_slice(&chunk);
    }
    assert_eq!(frames.len(), 45, "64 KiB at MTU 1500");
    assert_eq!(wire, data[..], "the bodies are the message, in order");
}

/// Every CLIC data frame the tap saw leave the sender, keyed by sequence.
type Sent = Rc<RefCell<BTreeMap<u32, Vec<Bytes>>>>;

/// Send `data` from node 1 to node 2 and return what a wire tap saw, the
/// delivered message and the sender's staging count. The sender's link
/// ends in the tap, which logs each data frame's body and forwards the
/// frame over a second link to the receiver; that link loses a quarter
/// of the frames towards the receiver.
fn send_through_tap(clic: ClicConfig, tx_ring: usize, data: &Bytes) -> (Sent, RecvMsg, u64) {
    let mut sim = Sim::new(7);
    let (near, far) = (Link::gigabit(), Link::gigabit());
    let mut nic_cfg = NicConfig::gigabit_standard();
    nic_cfg.tx_ring = tx_ring;
    let a = host(1, nic_cfg.clone(), near.clone(), LinkEnd::A);
    let b = host(2, nic_cfg, far.clone(), LinkEnd::B);
    let lossy = FaultPlan {
        loss: LossModel::Bernoulli(0.25),
        ..FaultPlan::default()
    };
    far.borrow_mut().set_faults(LinkEnd::A, lossy);
    let sent: Sent = Rc::default();
    let (log, onward) = (sent.clone(), Rc::downgrade(&far));
    near.borrow_mut().attach(
        LinkEnd::B,
        Rc::new(move |sim: &mut Sim, frame: Frame| {
            if let Some((h, _)) = ClicHeader::decode(&frame) {
                if h.ptype == PacketType::Data {
                    let mut log = log.borrow_mut();
                    log.entry(h.seq).or_default().push(frame.body.clone());
                }
            }
            let far = onward.upgrade().expect("far link alive");
            Link::transmit(&far, sim, LinkEnd::A, frame);
        }),
    );
    let back = Rc::downgrade(&near);
    far.borrow_mut().attach(
        LinkEnd::A,
        Rc::new(move |sim: &mut Sim, frame: Frame| {
            let near = back.upgrade().expect("near link alive");
            Link::transmit(&near, sim, LinkEnd::B, frame);
        }),
    );
    let tx = ClicModule::install(&a, vec![0], clic.clone());
    let rx = ClicModule::install(&b, vec![0], clic);
    let src = ClicPort::bind(&tx, a.borrow_mut().processes.spawn(), 1);
    let dst = ClicPort::bind(&rx, b.borrow_mut().processes.spawn(), 1);
    let got: Rc<RefCell<Option<RecvMsg>>> = Rc::default();
    let g = got.clone();
    dst.recv(&mut sim, move |_, msg| *g.borrow_mut() = Some(msg));
    src.send(&mut sim, MacAddr::for_node(2, 0), 1, data.clone());
    sim.run();
    let msg = got.borrow_mut().take().expect("message delivered");
    let staged = tx.borrow().stats().staged_copies;
    (sent, msg, staged)
}

#[test]
fn staged_packet_is_copied_once_for_every_transmission() {
    // A 4-slot TX ring stages most of a 40 KB message; a quarter of the
    // frames are lost, so packets — staged ones included — go out again.
    let data = message(40_000);
    let (sent, msg, staged) = send_through_tap(ClicConfig::paper_default(), 4, &data);
    assert_eq!(msg.data, data);
    let sent = sent.borrow();
    let mut copies = 0;
    let mut resent_copies = 0;
    for (seq, bodies) in sent.iter() {
        let first = &bodies[0];
        for body in bodies {
            assert_eq!(
                body.as_ptr(),
                first.as_ptr(),
                "seq {seq}: sent from two buffers"
            );
        }
        if !inside(first, &data) {
            copies += 1;
            if bodies.len() >= 3 {
                resent_copies += 1;
            }
        }
    }
    assert!(staged > 0, "the small ring must stage packets");
    assert_eq!(copies, staged, "one host copy per staged packet");
    assert!(
        resent_copies > 0,
        "some staged packet must be retransmitted at least twice"
    );
}

#[test]
fn one_copy_path_copies_each_packet_once() {
    // On the 1-copy path the first post stages every packet; each
    // retransmission sends that copy again.
    let data = message(40_000);
    let (sent, msg, _) = send_through_tap(ClicConfig::one_copy(), 256, &data);
    assert_eq!(msg.data, data);
    let sent = sent.borrow();
    assert_eq!(sent.len(), 27, "40 KB at MTU 1500");
    assert!(sent.values().any(|b| b.len() >= 2), "loss forced resends");
    for (seq, bodies) in sent.iter() {
        assert!(
            !inside(&bodies[0], &data),
            "seq {seq}: sent from user memory"
        );
        for body in bodies {
            assert_eq!(body.as_ptr(), bodies[0].as_ptr(), "seq {seq}: copied again");
        }
    }
}
