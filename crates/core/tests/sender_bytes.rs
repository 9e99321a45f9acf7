//! Payload bytes are shared from sender to receiver: CLIC hands the NIC
//! each packet's header and data as they lie (§3.1's fragmented SK_BUFF),
//! and the receiver joins a message's packets back into the sender's
//! buffer, so no frame and no delivered message holds a host copy.
//!
//! * On every path (0-copy, ring-full staging, 1-copy) each transmission
//!   of a sequence number carries one buffer, and that buffer lies inside
//!   the user's message allocation. The model still stages packets and
//!   charges every copy it makes (`staged_copies`, `hw.mem.copy_bytes`);
//!   the host does not make them, because nothing can change the bytes.
//! * The delivered message lies inside the sender's allocation.
//!
//! Frames are observed where they exist: at the receiving driver's
//! dispatch, and on the wire through a tap that forwards them over a
//! lossy link. The logs keep every body alive, so the buffer pool cannot
//! hand a freed buffer's address to a later one.

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

/// What [`send_through_tap`] observed.
struct Tapped {
    /// Every data frame's body, by sequence number, in transmission order.
    sent: Sent,
    /// The message the receiver delivered.
    msg: RecvMsg,
    /// The sender's `staged_copies`.
    staged: u64,
    /// The copies the model charged on both nodes: the count and the byte
    /// sum of `hw.mem.copy_bytes`.
    copies: (u64, u64),
}

/// Send `data` from node 1 to node 2 and return what a wire tap saw, the
/// delivered message, the sender's staging count and the copies charged.
/// The sender's link ends in the tap, which logs each data frame's body
/// and forwards the frame over a second link to the receiver; that link
/// loses a quarter of the frames towards the receiver.
fn send_through_tap(clic: ClicConfig, tx_ring: usize, data: &Bytes) -> Tapped {
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
    let copies = sim
        .metrics
        .histogram("hw.mem.copy_bytes")
        .map_or((0, 0), |h| (h.count(), h.sum()));
    Tapped {
        sent,
        msg,
        staged,
        copies,
    }
}

/// Every transmission of a sequence number carried one buffer, inside
/// `data`'s allocation; returns the most transmissions of one number.
fn assert_sent_from(sent: &Sent, data: &Bytes) -> usize {
    let sent = sent.borrow();
    for (seq, bodies) in sent.iter() {
        assert!(
            inside(&bodies[0], data),
            "seq {seq}: not sent from the user's message"
        );
        for body in bodies {
            assert_eq!(
                body.as_ptr(),
                bodies[0].as_ptr(),
                "seq {seq}: sent from two buffers"
            );
        }
    }
    sent.values().map(Vec::len).max().unwrap_or(0)
}

#[test]
fn staged_packets_send_the_senders_bytes_every_transmission() {
    // A 4-slot TX ring stages most of a 40 KB message; a quarter of the
    // frames are lost, so packets, staged ones included, go out again.
    let data = message(40_000);
    let tap = send_through_tap(ClicConfig::paper_default(), 4, &data);
    assert_eq!(tap.msg.data, data);
    assert_eq!(
        tap.msg.data.as_ptr(),
        data.as_ptr(),
        "the delivered message is the sender's buffer, not a copy"
    );
    assert!(
        assert_sent_from(&tap.sent, &data) >= 3,
        "some packet must be retransmitted at least twice"
    );
    assert!(tap.staged > 0, "the small ring must stage packets");
    // The model still charges one staging copy per staged packet (of the
    // packet's length, 22 of them here) and the receiver's copy of the
    // message to user memory.
    assert_eq!(tap.copies, (tap.staged + 1, 72_568));
}

#[test]
fn one_copy_path_sends_the_senders_bytes() {
    // On the 1-copy path the first post stages every packet, and every
    // retransmission sends the staged packet again.
    let data = message(40_000);
    let tap = send_through_tap(ClicConfig::one_copy(), 256, &data);
    assert_eq!(tap.msg.data, data);
    assert_eq!(
        tap.msg.data.as_ptr(),
        data.as_ptr(),
        "the delivered message is the sender's buffer, not a copy"
    );
    assert_eq!(tap.sent.borrow().len(), 27, "40 KB at MTU 1500");
    assert!(
        assert_sent_from(&tap.sent, &data) >= 2,
        "loss forced resends"
    );
    assert_eq!(tap.staged, 0, "a 256-slot ring never fills");
    // The model charges the whole message's copy to kernel memory at the
    // send and its copy to user memory at the receiver.
    assert_eq!(tap.copies, (2, 80_000));
}
