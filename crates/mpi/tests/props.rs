//! Property-based tests of the MPI matching semantics over an in-memory
//! loopback transport (no network model involved — pure library logic).

use bytes::{Bytes, Parts};
use clic_mpi::transport::{MsgHandler, Transport};
use clic_mpi::{Mpi, ANY_SOURCE, ANY_TAG};
use clic_os::{Kernel, OsCosts};
use clic_sim::{Sim, SimDuration};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Two ranks connected by direct event-queue delivery with a tiny fixed
/// latency.
struct PairEnd {
    rank: usize,
    peer: RefCell<Option<Rc<PairEnd>>>,
    handler: RefCell<Option<MsgHandler>>,
}

impl PairEnd {
    fn pair() -> (Rc<PairEnd>, Rc<PairEnd>) {
        let a = Rc::new(PairEnd {
            rank: 0,
            peer: RefCell::new(None),
            handler: RefCell::new(None),
        });
        let b = Rc::new(PairEnd {
            rank: 1,
            peer: RefCell::new(None),
            handler: RefCell::new(None),
        });
        *a.peer.borrow_mut() = Some(b.clone());
        *b.peer.borrow_mut() = Some(a.clone());
        (a, b)
    }
}

impl Transport for PairEnd {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        2
    }
    fn send(&self, sim: &mut Sim, dst: usize, header: &[u8], body: Bytes) {
        let peer = self.peer.borrow().clone().unwrap();
        assert_eq!(dst, peer.rank);
        let src = self.rank;
        let data = Parts::new(Bytes::copy_from_slice(header), body);
        sim.schedule_in(SimDuration::from_us(1), move |sim| {
            if let Some(h) = peer.handler.borrow().clone() {
                h(sim, src, data);
            }
        });
    }
    fn set_handler(&self, _header: usize, handler: MsgHandler) {
        *self.handler.borrow_mut() = Some(handler);
    }
    fn ready(&self) -> bool {
        true
    }
}

fn mk_pair() -> (Rc<Mpi>, Rc<Mpi>, Sim) {
    let sim = Sim::new(0);
    let k0 = Kernel::new(0, OsCosts::era_2002());
    let k1 = Kernel::new(1, OsCosts::era_2002());
    let (t0, t1) = PairEnd::pair();
    let m0 = Mpi::new(&k0, t0 as Rc<dyn Transport>);
    let m1 = Mpi::new(&k1, t1 as Rc<dyn Transport>);
    (m0, m1, sim)
}

proptest! {
    /// Every sent message is delivered to exactly one matching receive,
    /// and same-(src,tag) messages arrive in send order — for arbitrary
    /// tag sequences, recv interleavings, and eager limits (forcing a mix
    /// of eager and rendezvous transfers).
    #[test]
    fn exactly_once_matching(
        tags in proptest::collection::vec(0i32..4, 1..30),
        recv_first in any::<bool>(),
        wildcard in any::<bool>(),
        eager_limit in prop_oneof![Just(1usize), Just(64), Just(1 << 20)],
        msg_len in 1usize..300,
    ) {
        let (m0, m1, mut sim) = mk_pair();
        m0.set_eager_limit(eager_limit);
        let got: Rc<RefCell<Vec<(i32, Bytes)>>> = Rc::new(RefCell::new(Vec::new()));

        let post_recvs = |sim: &mut Sim| {
            for &tag in &tags {
                let g = got.clone();
                let want_tag = if wildcard { ANY_TAG } else { tag };
                m1.recv(sim, ANY_SOURCE, want_tag, move |_s, m| {
                    g.borrow_mut().push((m.tag, m.data));
                });
            }
        };
        let post_sends = |sim: &mut Sim| {
            for (i, &tag) in tags.iter().enumerate() {
                // Payload encodes (tag, index) so ordering can be checked.
                let mut body = vec![(i % 251) as u8; msg_len];
                body[0] = tag as u8;
                m0.send(sim, 1, tag, Bytes::from(body));
            }
        };
        if recv_first {
            post_recvs(&mut sim);
            post_sends(&mut sim);
        } else {
            post_sends(&mut sim);
            sim.run(); // messages land unexpected / as pending RTS
            post_recvs(&mut sim);
        }
        sim.set_event_limit(5_000_000);
        sim.run();

        let got = got.borrow();
        prop_assert_eq!(got.len(), tags.len(), "every message delivered once");
        // Payload tag byte always matches the envelope tag.
        for (tag, data) in got.iter() {
            prop_assert_eq!(data[0] as i32, *tag);
            prop_assert_eq!(data.len(), msg_len);
        }
        // Per-tag delivery preserves send order (MPI non-overtaking).
        for t in 0..4i32 {
            let sent: Vec<usize> = tags
                .iter()
                .enumerate()
                .filter(|(_, &x)| x == t)
                .map(|(i, _)| i % 251)
                .collect();
            let recvd: Vec<usize> = got
                .iter()
                .filter(|(tag, _)| *tag == t)
                .map(|(_, d)| d[1.min(d.len() - 1)] as usize)
                .collect();
            // When msg_len == 1 the index byte is overwritten by the tag
            // byte; skip the order check in that degenerate case.
            if msg_len > 1 {
                let sent_idx: Vec<u8> = tags
                    .iter()
                    .enumerate()
                    .filter(|(_, &x)| x == t)
                    .map(|(i, _)| (i % 251) as u8)
                    .collect();
                let recvd_idx: Vec<u8> = got
                    .iter()
                    .filter(|(tag, _)| *tag == t)
                    .map(|(_, d)| d[1])
                    .collect();
                prop_assert_eq!(recvd_idx, sent_idx, "non-overtaking per tag");
            }
            let _ = (sent, recvd);
        }
    }
}

/// The payload byte-0 overwrite above means tag 0..=3 fits u8; keep the
/// strategy ranges in sync with that assumption.
#[test]
fn strategy_assumptions_hold() {
    assert!(4 <= u8::MAX as i32);
}

proptest! {
    /// Mixed eager/rendezvous traffic on the SAME tag still matches in
    /// send order (the arrival-ordered matching across the unexpected and
    /// pending-RTS queues).
    #[test]
    fn non_overtaking_across_protocols(pattern in proptest::collection::vec(any::<bool>(), 2..16)) {
        let (m0, m1, mut sim) = mk_pair();
        m0.set_eager_limit(64); // small => eager, large => rendezvous
        // All messages share tag 1; payload[0] is the send index.
        for (i, &big) in pattern.iter().enumerate() {
            let len = if big { 500 } else { 8 };
            let mut body = vec![0u8; len];
            body[0] = i as u8;
            m0.send(&mut sim, 1, 1, Bytes::from(body));
        }
        sim.run(); // everything lands unmatched at rank 1
        // MPI's non-overtaking rule is about MATCHING: the k-th posted
        // receive must match the k-th sent message on this (src, tag),
        // regardless of which protocol carried it or when the payload
        // completes.
        let pairs: Rc<RefCell<Vec<(u8, u8)>>> = Rc::new(RefCell::new(Vec::new()));
        for k in 0..pattern.len() as u8 {
            let p = pairs.clone();
            m1.recv(&mut sim, 0, 1, move |_s, m| p.borrow_mut().push((k, m.data[0])));
        }
        sim.run();
        let got = pairs.borrow();
        prop_assert_eq!(got.len(), pattern.len());
        for &(recv_idx, msg_idx) in got.iter() {
            prop_assert_eq!(recv_idx, msg_idx, "receive k must match message k");
        }
    }
}
