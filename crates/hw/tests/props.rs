//! Property-based tests for the fragmentation shim and PCI cost model.

use bytes::{Bytes, Parts};
use clic_ethernet::{EtherType, Frame, MacAddr};
use clic_hw::frag::{fragment, FragHeader, Reassembler, FRAG_HEADER};
use clic_hw::PciBus;
use proptest::prelude::*;

/// A fragment as the NIC receives it: a FRAG frame of the piece's head and
/// body.
fn frame(piece: &Parts) -> Frame {
    let (a, b) = (MacAddr::for_node(2, 0), MacAddr::for_node(1, 0));
    Frame::gather(
        a,
        b,
        EtherType::FRAG,
        piece.head.clone(),
        piece.body.clone(),
    )
}

/// Offer a fragment; the reassembled packet if it completes one.
fn offer(r: &mut Reassembler, source: u64, piece: &Parts) -> Option<Parts> {
    r.offer(source, &frame(piece)).map(|(_, packet)| packet)
}

/// The fragments of `payload` behind an empty head.
fn pieces(id: u32, ethertype: u16, payload: &Bytes, mtu: usize) -> Vec<Parts> {
    fragment(id, ethertype, Parts::from(payload.clone()), mtu).collect()
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
        let mut frags = pieces(7, 0x88B5, &payload, mtu);
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
        prop_assert_eq!(out.unwrap(), Parts::from(payload));
        prop_assert_eq!(r.pending(), 0);
    }

    /// However a descriptor splits its payload between head and body, at
    /// any MTU: the pieces' wire images are those of the one-part payload,
    /// no piece copies the body, and reassembly returns the concatenation,
    /// with the body a view of the sender's when the head fits the first
    /// piece and the pieces arrive in order.
    #[test]
    fn frag_any_head_body_split_reassembles_the_concatenation(
        len in 0usize..20_000,
        cut in any::<usize>(),
        mtu in (FRAG_HEADER + 1)..9_000,
    ) {
        prop_assume!(len <= (mtu - FRAG_HEADER) * 255);
        let whole = Bytes::from((0..len).map(|i| (i % 253) as u8).collect::<Vec<_>>());
        let cut = cut % (len + 1);
        let head = Bytes::copy_from_slice(&whole[..cut]);
        let body = whole.slice(cut..);
        let split: Vec<Parts> = fragment(2, 0x88B5, Parts::new(head, body.clone()), mtu).collect();
        let one = pieces(2, 0x88B5, &whole, mtu);
        prop_assert_eq!(&split, &one);
        let chunk = mtu - FRAG_HEADER;
        for (i, piece) in split.iter().enumerate() {
            if !piece.body.is_empty() {
                let at = (i * chunk).max(cut) - cut;
                prop_assert_eq!(piece.body.as_ptr(), body[at..].as_ptr(), "piece {} copied", i);
            }
        }
        let mut r = Reassembler::new();
        let mut out = None;
        for f in &split {
            out = offer(&mut r, 3, f);
        }
        let packet = out.unwrap();
        prop_assert_eq!(&packet, &Parts::from(whole.clone()));
        if cut <= chunk && !packet.body.is_empty() {
            prop_assert_eq!(packet.head.len(), cut);
            prop_assert_eq!(packet.body.as_ptr(), body.as_ptr(), "reassembly copied the body");
        }
    }

    /// Duplicated fragments never corrupt the reassembled payload.
    #[test]
    fn frag_duplicates_harmless(len in 1usize..10_000, dup in 0usize..5) {
        let payload = Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<_>>());
        let frags = pieces(3, 0x800, &payload, 1500);
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
        prop_assert_eq!(out.unwrap(), Parts::from(payload));
    }

    /// Every fragment respects the MTU and carries a decodable shim with
    /// consistent metadata.
    #[test]
    fn fragments_well_formed(len in 0usize..30_000, mtu in 64usize..9_000) {
        prop_assume!(len <= (mtu - FRAG_HEADER) * 255);
        let payload = Bytes::from(vec![0xabu8; len]);
        let frags = pieces(11, 0x88B5, &payload, mtu);
        let count = frags.len();
        prop_assert!(count >= 1);
        for (i, f) in frags.iter().enumerate() {
            prop_assert!(f.len() <= mtu);
            let (h, _) = FragHeader::decode(&frame(f)).unwrap();
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
