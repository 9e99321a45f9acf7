//! Property-based tests for the fragmentation shim and PCI cost model.

use bytes::Bytes;
use clic_ethernet::{EtherType, Frame, MacAddr};
use clic_hw::frag::{fragment, FragHeader, Reassembler, FRAG_HEADER};
use clic_hw::PciBus;
use proptest::prelude::*;

/// A fragment as the NIC receives it: a one-piece FRAG frame.
fn piece(buf: &Bytes) -> Frame {
    let (a, b) = (MacAddr::for_node(2, 0), MacAddr::for_node(1, 0));
    Frame::new(a, b, EtherType::FRAG, buf.clone())
}

/// Offer a fragment buffer; the reassembled packet if it completes one.
fn offer(r: &mut Reassembler, source: u64, buf: &Bytes) -> Option<Bytes> {
    r.offer(source, &piece(buf)).map(|(_, packet)| packet)
}

proptest! {
    /// Fragment + reassemble is the identity for any payload, MTU and
    /// arrival order.
    #[test]
    fn frag_roundtrip_any_order(
        len in 0usize..40_000,
        mtu in (FRAG_HEADER + 1)..9_000,
        seed in any::<u64>(),
    ) {
        // The shim's u8 fragment index caps a packet at 255 fragments.
        prop_assume!(len <= (mtu - FRAG_HEADER) * 255);
        let payload = Bytes::from((0..len).map(|i| (i as u64 ^ seed) as u8).collect::<Vec<_>>());
        let mut frags = fragment(7, 0x88B5, &[], &payload, mtu);
        // Deterministic pseudo-shuffle from the seed.
        let n = frags.len();
        for i in 0..n {
            let j = ((seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64)) as usize) % n;
            frags.swap(i, j);
        }
        let mut r = Reassembler::new();
        let mut out = None;
        for f in &frags {
            if let Some(p) = offer(&mut r, 1, f) {
                prop_assert!(out.is_none(), "reassembled twice");
                out = Some(p);
            }
        }
        prop_assert_eq!(out.unwrap(), payload);
        prop_assert_eq!(r.pending(), 0);
    }

    /// Duplicated fragments never corrupt the reassembled payload.
    #[test]
    fn frag_duplicates_harmless(len in 1usize..10_000, dup in 0usize..5) {
        let payload = Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<_>>());
        let frags = fragment(3, 0x800, &[], &payload, 1500);
        let mut r = Reassembler::new();
        let mut out = None;
        let dup_idx = dup % frags.len();
        for (i, f) in frags.iter().enumerate() {
            // Offer the duplicate first; either copy may complete the
            // packet (if the duplicate is the last missing piece, the
            // second copy starts a new partial — that is the NIC's actual
            // behaviour and is harmless).
            if i == dup_idx {
                if let Some(p) = offer(&mut r, 9, f) {
                    out = Some(p);
                }
            }
            if let Some(p) = offer(&mut r, 9, f) {
                out = Some(p);
            }
        }
        prop_assert_eq!(out.unwrap(), payload);
    }

    /// Every fragment respects the MTU and carries a decodable shim with
    /// consistent metadata.
    #[test]
    fn fragments_well_formed(len in 0usize..30_000, mtu in 64usize..9_000) {
        prop_assume!(len <= (mtu - FRAG_HEADER) * 255);
        let payload = Bytes::from(vec![0xabu8; len]);
        let frags = fragment(11, 0x88B5, &[], &payload, mtu);
        let count = frags.len();
        prop_assert!(count >= 1);
        for (i, f) in frags.iter().enumerate() {
            prop_assert!(f.len() <= mtu);
            let (h, _) = FragHeader::decode(&piece(f)).unwrap();
            prop_assert_eq!(h.packet_id, 11);
            prop_assert_eq!(h.index as usize, i);
            prop_assert_eq!(h.count as usize, count);
            prop_assert_eq!(h.ethertype, 0x88B5);
        }
    }

    /// PCI service time is monotone in transfer size and superadditive-ish:
    /// splitting a transfer never makes it cheaper.
    #[test]
    fn pci_service_monotone(a in 0usize..100_000, b in 0usize..100_000) {
        let bus = PciBus::pci_33mhz_32bit();
        let ta = bus.service_time(a);
        let tb = bus.service_time(b);
        if a <= b {
            prop_assert!(ta <= tb);
        }
        let tab = bus.service_time(a + b);
        prop_assert!(tab <= ta + tb, "one burst beats two");
    }
}
