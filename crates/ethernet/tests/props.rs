//! Property-based tests for frames and links.

use bytes::Bytes;
use clic_ethernet::{EtherType, Frame, Link, LinkEnd, MacAddr};
use clic_sim::Sim;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    /// Wire size is strictly larger than the payload and at least the
    /// 84-byte minimum wire occupancy.
    #[test]
    fn wire_size_bounds(len in 0usize..9_000) {
        let f = Frame::new(
            MacAddr::for_node(1, 0),
            MacAddr::for_node(2, 0),
            EtherType::IPV4,
            Bytes::from(vec![0u8; len]),
        );
        prop_assert!(f.wire_bytes() >= 84);
        prop_assert!(f.wire_bytes() > len);
        prop_assert_eq!(f.wire_bytes(), f.frame_bytes() + 20);
    }

    /// A lossless link delivers every frame exactly once, in order,
    /// regardless of sizes and inter-send gaps.
    #[test]
    fn link_delivers_all_in_order(
        sizes in proptest::collection::vec(1usize..1500, 1..40),
        gaps in proptest::collection::vec(0u64..20_000, 1..40),
    ) {
        let mut sim = Sim::new(0);
        let link = Link::gigabit();
        let got: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        link.borrow_mut().attach(LinkEnd::B, Rc::new(move |_s: &mut Sim, f: Frame| {
            g.borrow_mut().push(f.trace as usize);
        }));
        let n = sizes.len();
        for (i, &size) in sizes.iter().enumerate() {
            let link2 = link.clone();
            let delay = gaps.get(i).copied().unwrap_or(0) * i as u64;
            let f = Frame::new(
                MacAddr::for_node(2, 0),
                MacAddr::for_node(1, 0),
                EtherType::CLIC,
                Bytes::from(vec![0u8; size]),
            )
            .with_trace(i as u64 + 1);
            sim.schedule_at(clic_sim::SimTime::from_ns(delay), move |s| {
                Link::transmit(&link2, s, LinkEnd::A, f);
            });
        }
        sim.run();
        let got = got.borrow();
        prop_assert_eq!(got.len(), n);
        // FIFO per direction: traces are the (sorted-by-send-time) order.
        let mut expected: Vec<(u64, usize)> = (0..n)
            .map(|i| (gaps.get(i).copied().unwrap_or(0) * i as u64, i + 1))
            .collect();
        expected.sort_by_key(|&(t, i)| (t, i));
        let expected: Vec<usize> = expected.into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(&*got, &expected[..]);
    }
}
