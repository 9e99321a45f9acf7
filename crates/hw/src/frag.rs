//! Fragmentation-offload shim header.
//!
//! §2 of the paper describes NIC-level fragmentation (as prototyped on the
//! Alteon AceNIC): the host hands the NIC packets *larger* than the link
//! MTU; the NIC splits them to MTU-sized frames and the receiving NIC
//! reassembles before interrupting the host. The paper leaves it out of
//! CLIC to preserve driver portability and flags it as future work — we
//! implement it behind [`crate::NicConfig::tx_frag_offload`] and benchmark
//! it as ablation B.
//!
//! Fragments carry an 8-byte shim ahead of the payload slice:
//!
//! ```text
//! +--------+--------+--------+--------+
//! |        packet id (u32be)          |
//! +--------+--------+-----------------+
//! | index  | count  | ethertype (u16) |
//! +--------+--------+-----------------+
//! ```
//!
//! The trailing u16 preserves the original EtherType so the receiving NIC
//! can hand the reassembled packet to the right protocol.

use bytes::{BufMut, Bytes, BytesMut, Gather};
use clic_ethernet::Frame;
use std::collections::BTreeMap;

/// Size of the shim header, bytes.
pub const FRAG_HEADER: usize = 8;

/// A parsed fragment shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragHeader {
    /// Identifies the original oversized packet.
    pub packet_id: u32,
    /// Position of this fragment (0-based).
    pub index: u8,
    /// Total fragments of the packet.
    pub count: u8,
    /// EtherType of the original (unfragmented) packet.
    pub ethertype: u16,
}

impl FragHeader {
    /// Serialize the shim.
    pub fn encode(&self) -> [u8; FRAG_HEADER] {
        let mut out = [0u8; FRAG_HEADER];
        out[0..4].copy_from_slice(&self.packet_id.to_be_bytes());
        out[4] = self.index;
        out[5] = self.count;
        out[6..8].copy_from_slice(&self.ethertype.to_be_bytes());
        out
    }

    /// Parse the shim from the front of a fragment frame; the piece behind
    /// it is the frame's data, not a copy.
    pub fn decode(frame: &Frame) -> Option<(FragHeader, Bytes)> {
        let (buf, piece): ([u8; FRAG_HEADER], _) = frame.split_header()?;
        let packet_id = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let header = FragHeader {
            packet_id,
            index: buf[4],
            count: buf[5],
            ethertype: u16::from_be_bytes([buf[6], buf[7]]),
        };
        if header.count == 0 || header.index >= header.count {
            return None;
        }
        Some((header, piece))
    }
}

/// Split the payload `head` followed by `body` (a descriptor's two gather
/// entries) into fragments of at most `mtu` bytes each (including the
/// shim); each fragment is built in one buffer. Panics if the split needs
/// more than 255 fragments.
pub fn fragment(
    packet_id: u32,
    ethertype: u16,
    head: &[u8],
    body: &[u8],
    mtu: usize,
) -> Vec<Bytes> {
    assert!(mtu > FRAG_HEADER, "MTU too small for fragment shim");
    let chunk = mtu - FRAG_HEADER;
    let len = head.len() + body.len();
    let count = len.div_ceil(chunk).max(1);
    assert!(count <= 255, "packet needs {count} fragments (max 255)");
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let start = i * chunk;
        let end = (start + chunk).min(len);
        let header = FragHeader {
            packet_id,
            index: i as u8,
            count: count as u8,
            ethertype,
        };
        let mut buf = BytesMut::with_capacity(FRAG_HEADER + end - start);
        buf.put_slice(&header.encode());
        let h = head.len();
        buf.put_slice(&head[start.min(h)..end.min(h)]);
        buf.put_slice(&body[start.max(h) - h..end.max(h) - h]);
        out.push(buf.freeze());
    }
    out
}

/// Receive-side reassembly state, keyed by `(source tag, packet id)` so
/// interleaved senders do not collide.
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: BTreeMap<(u64, u32), Vec<Option<Bytes>>>,
}

impl Reassembler {
    /// New empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer one fragment frame from `source`. Returns the completed
    /// packet's shim (it names the original EtherType) and the reassembled
    /// packet when this fragment completes it.
    pub fn offer(&mut self, source: u64, frame: &Frame) -> Option<(FragHeader, Bytes)> {
        let (header, body) = FragHeader::decode(frame)?;
        let key = (source, header.packet_id);
        let slots = self
            .partial
            .entry(key)
            .or_insert_with(|| vec![None; header.count as usize]);
        if slots.len() != header.count as usize {
            // Inconsistent count for the same packet id: discard state.
            self.partial.remove(&key);
            return None;
        }
        slots[header.index as usize] = Some(body);
        if slots.iter().all(Option::is_some) {
            let slots = self.partial.remove(&key).unwrap();
            let total: usize = slots.iter().map(|s| s.as_ref().unwrap().len()).sum();
            let mut out = Gather::new(total);
            for s in slots {
                out.push(s.unwrap());
            }
            Some((header, out.finish()))
        } else {
            None
        }
    }

    /// Packets currently awaiting fragments.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clic_ethernet::{EtherType, MacAddr};

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
    }

    /// A fragment as the NIC receives it: a one-piece FRAG frame.
    fn piece(buf: &Bytes) -> Frame {
        let (a, b) = (MacAddr::for_node(2, 0), MacAddr::for_node(1, 0));
        Frame::new(a, b, EtherType::FRAG, buf.clone())
    }

    /// Offer a fragment buffer; the reassembled packet if it completes one.
    fn offer(r: &mut Reassembler, source: u64, buf: &Bytes) -> Option<Bytes> {
        r.offer(source, &piece(buf)).map(|(_, packet)| packet)
    }

    #[test]
    fn header_roundtrip() {
        let h = FragHeader {
            packet_id: 0xdeadbeef,
            index: 3,
            count: 7,
            ethertype: 0x88B5,
        };
        let mut buf = h.encode().to_vec();
        buf.extend_from_slice(b"body");
        let buf = Bytes::from(buf);
        let (parsed, body) = FragHeader::decode(&piece(&buf)).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(&body[..], b"body");
        // The body is a view into the fragment, not a copy.
        assert_eq!(body.as_ptr(), buf[FRAG_HEADER..].as_ptr());
    }

    #[test]
    fn decode_rejects_bad_shims() {
        assert!(FragHeader::decode(&piece(&Bytes::from(vec![0; 4]))).is_none()); // short
        let h = FragHeader {
            packet_id: 1,
            index: 5,
            count: 5,
            ethertype: 0,
        };
        assert!(FragHeader::decode(&piece(&Bytes::from(h.encode().to_vec()))).is_none()); // index >= count
        let z = FragHeader {
            packet_id: 1,
            index: 0,
            count: 0,
            ethertype: 0,
        };
        let zero_count = Bytes::from(z.encode().to_vec());
        assert!(FragHeader::decode(&piece(&zero_count)).is_none());
    }

    #[test]
    fn fragment_sizes_respect_mtu() {
        let p = payload(10_000);
        let frags = fragment(1, 0x88B5, &[], &p, 1500);
        assert_eq!(frags.len(), 10_000usize.div_ceil(1500 - FRAG_HEADER));
        for f in &frags {
            assert!(f.len() <= 1500);
        }
    }

    #[test]
    fn two_gather_entries_fragment_like_their_concatenation() {
        let p = payload(10_000);
        let whole = fragment(5, 0x88B5, &[], &p, 1500);
        for cut in [0, 1, 12, 1491, 1492, 1493, 5_000, 10_000] {
            assert_eq!(
                fragment(5, 0x88B5, &p[..cut], &p[cut..], 1500),
                whole,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn reassembly_in_order() {
        let p = payload(10_000);
        let frags = fragment(7, 0x88B5, &[], &p, 1500);
        let mut r = Reassembler::new();
        let mut result = None;
        for f in &frags {
            result = offer(&mut r, 1, f);
        }
        assert_eq!(result.unwrap(), p);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembly_out_of_order() {
        let p = payload(5_000);
        let mut frags = fragment(9, 0x88B5, &[], &p, 1000);
        frags.reverse();
        let mut r = Reassembler::new();
        let mut result = None;
        for f in &frags {
            result = offer(&mut r, 1, f);
        }
        assert_eq!(result.unwrap(), p);
    }

    #[test]
    fn interleaved_sources_do_not_collide() {
        let pa = payload(3000);
        let pb = Bytes::from(vec![0xffu8; 3000]);
        let fa = fragment(1, 0x88B5, &[], &pa, 1000);
        let fb = fragment(1, 0x88B5, &[], &pb, 1000); // same packet id, different source
        let mut r = Reassembler::new();
        let mut out = Vec::new();
        for (a, b) in fa.iter().zip(fb.iter()) {
            if let Some(p) = offer(&mut r, 1, a) {
                out.push((1u64, p));
            }
            if let Some(p) = offer(&mut r, 2, b) {
                out.push((2u64, p));
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (1, pa));
        assert_eq!(out[1], (2, pb));
    }

    #[test]
    fn single_fragment_packet() {
        let p = payload(100);
        let frags = fragment(3, 0x88B5, &[], &p, 1500);
        assert_eq!(frags.len(), 1);
        let mut r = Reassembler::new();
        assert_eq!(offer(&mut r, 1, &frags[0]).unwrap(), p);
    }

    #[test]
    fn empty_payload_still_one_fragment() {
        let p = Bytes::new();
        let frags = fragment(4, 0x88B5, &[], &p, 1500);
        assert_eq!(frags.len(), 1);
        let mut r = Reassembler::new();
        assert_eq!(offer(&mut r, 1, &frags[0]).unwrap(), p);
    }

    #[test]
    #[should_panic(expected = "max 255")]
    fn oversize_packet_rejected() {
        let p = payload(300_000);
        fragment(1, 0x88B5, &[], &p, 1000);
    }
}
