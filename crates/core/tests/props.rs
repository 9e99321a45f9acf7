//! Property-based tests: CLIC header codec and sliding-window invariants.

use bytes::Bytes;
use clic_core::header::{decode_msg_prefix, encode_msg_prefix};
use clic_core::reliable::{RecvOutcome, RecvWindow, SendWindow};
use clic_core::{ClicHeader, PacketType, MSG_PREFIX};
use clic_ethernet::{EtherType, Frame, MacAddr};
use clic_os::DataLocation;
use clic_sim::SimTime;
use proptest::prelude::*;

fn arb_ptype() -> impl Strategy<Value = PacketType> {
    prop_oneof![
        Just(PacketType::Data),
        Just(PacketType::Ack),
        Just(PacketType::RemoteWrite),
        Just(PacketType::Mpi),
        Just(PacketType::Internal),
        Just(PacketType::KernelFunction),
    ]
}

/// A CLIC frame whose wire image is `wire`, split after `cut` bytes into
/// head and body.
fn frame(wire: &[u8], cut: usize) -> Frame {
    let cut = cut % (wire.len() + 1);
    let (a, b) = (MacAddr::for_node(2, 0), MacAddr::for_node(1, 0));
    let (head, body) = (
        Bytes::copy_from_slice(&wire[..cut]),
        Bytes::copy_from_slice(&wire[cut..]),
    );
    Frame::gather(a, b, EtherType::CLIC, head, body)
}

proptest! {
    /// Header encode/decode roundtrip for arbitrary field values, with and
    /// without a message prefix, however the frame splits into head and
    /// body.
    #[test]
    fn header_roundtrip(
        ptype in arb_ptype(),
        flags in any::<u8>(),
        channel in any::<u16>(),
        seq in any::<u32>(),
        ce in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2_000),
        prefix in any::<(bool, u32, u32)>(),
        cut in any::<usize>(),
    ) {
        // ACKs carry no payload on the wire: their `len` field is the
        // advertised receive window, not a byte count.
        let is_ack = ptype == PacketType::Ack;
        let msg = (prefix.0 && !is_ack).then_some((prefix.1, prefix.2));
        let extra = if msg.is_some() { MSG_PREFIX } else { 0 };
        let h = ClicHeader {
            ptype,
            flags,
            channel,
            seq,
            len: (extra + payload.len()) as u32,
            ce,
            msg,
        };
        let mut wire = h.head(&[]).to_vec();
        if !is_ack {
            wire.extend_from_slice(&payload);
        }
        wire.resize(wire.len().max(46), 0); // Ethernet padding
        let (parsed, body) = ClicHeader::decode(&frame(&wire, cut)).unwrap();
        prop_assert_eq!(parsed, h);
        if is_ack {
            prop_assert!(body.is_empty(), "ACK decode must not surface padding");
        } else {
            prop_assert_eq!(&body.join()[..], &payload[..]);
        }
    }

    /// Message prefix roundtrip.
    #[test]
    fn msg_prefix_roundtrip(id in any::<u32>(), len in any::<u32>()) {
        let enc = encode_msg_prefix(id, len);
        prop_assert_eq!(decode_msg_prefix(&enc), Some((id, len)));
    }

    /// The receive window delivers every distinct sequence exactly once,
    /// in order, for an arbitrary arrival permutation with duplicates —
    /// as long as gaps stay within the buffer bound.
    #[test]
    fn recv_window_exactly_once_in_order(
        n in 1usize..64,
        seed in any::<u64>(),
        dups in 0usize..20,
    ) {
        // Build an arrival sequence: a shuffle of 0..n plus `dups` repeats.
        let mut arrivals: Vec<u32> = (0..n as u32).collect();
        for i in 0..n {
            let j = ((seed.wrapping_mul(2862933555777941757).wrapping_add(i as u64)) as usize) % n;
            arrivals.swap(i, j);
        }
        for k in 0..dups {
            arrivals.push((k % n) as u32);
        }
        let mut w = RecvWindow::new(n); // buffer big enough for any gap
        let mut delivered = Vec::new();
        for seq in arrivals {
            let h = ClicHeader {
                ptype: PacketType::Data,
                flags: 0,
                channel: 0,
                seq,
                len: 1,
                ce: false,
                msg: None,
            };
            match w.offer(h, Bytes::from(vec![seq as u8]).into()) {
                RecvOutcome::Deliver(batch) => {
                    for (hh, body) in batch {
                        prop_assert_eq!(body.body[0] as u32, hh.seq, "payload follows its seq");
                        delivered.push(hh.seq);
                    }
                }
                RecvOutcome::Duplicate | RecvOutcome::Buffered => {}
                RecvOutcome::Overflow => prop_assert!(false, "buffer sized to n cannot overflow"),
            }
        }
        prop_assert_eq!(delivered, (0..n as u32).collect::<Vec<_>>());
        prop_assert_eq!(w.ack_value(), n as u32);
    }

    /// Sender-window bookkeeping: cumulative ACKs free exactly the acked
    /// packets, the base never regresses, and capacity is respected.
    #[test]
    fn send_window_accounting(
        capacity in 1usize..32,
        acks in proptest::collection::vec(0u32..200, 1..40),
    ) {
        let mut w = SendWindow::new(capacity);
        let mut sent = 0u32;
        let mut freed = 0usize;
        for &ack in &acks {
            // Fill the window.
            while w.can_send() {
                let seq = w.alloc_seq();
                w.on_sent(
                    ClicHeader {
                        ptype: PacketType::Data,
                        flags: 0,
                        channel: 0,
                        seq,
                        len: 0,
                        ce: false,
                        msg: None,
                    },
                    Bytes::new(),
                    DataLocation::User,
                    SimTime::ZERO,
                );
                sent += 1;
            }
            prop_assert_eq!(w.inflight_len(), capacity);
            let base_before = w.base();
            let acked = w.ack(ack.min(sent)).acked;
            freed += acked;
            prop_assert!(w.base() >= base_before, "base regressed");
            prop_assert_eq!(w.inflight_len(), sent as usize - freed);
        }
        // Total accounting holds.
        prop_assert_eq!(freed, w.base() as usize);
    }

    /// Retransmit sets always cover exactly the unacked range, in order.
    #[test]
    fn retransmit_set_is_unacked_range(n in 1usize..50, ack_to in 0u32..50) {
        let mut w = SendWindow::new(n);
        for _ in 0..n {
            let seq = w.alloc_seq();
            w.on_sent(
                ClicHeader {
                    ptype: PacketType::Data,
                    flags: 0,
                    channel: 0,
                    seq,
                    len: 0,
                    ce: false,
                    msg: None,
                },
                Bytes::new(),
                DataLocation::User,
                SimTime::ZERO,
            );
        }
        let upto = ack_to.min(n as u32);
        w.ack(upto);
        let set = w.take_retransmit_set();
        let seqs: Vec<u32> = set.iter().map(|p| p.header.seq).collect();
        prop_assert_eq!(seqs, (upto..n as u32).collect::<Vec<_>>());
    }
}
