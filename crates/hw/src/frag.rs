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
//!
//! No piece copies the packet's data. A piece is a frame of two parts:
//! its shim, with whatever of the descriptor's head the piece covers (all
//! of it, on piece 0, for any head that fits one piece), in a new head
//! buffer, and a slice of the descriptor's body. The NIC cuts each piece
//! as it reaches it ([`Fragments`]). Reassembly returns piece 0's head
//! bytes and the bodies joined by [`Gather`]: a view of the sender's data
//! when the pieces' bodies continue one another in its allocation.

use bytes::{BufMut, BytesMut, Gather, Parts};
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
    /// it is the frame's remaining head bytes and its body, not a copy.
    pub fn decode(frame: &Frame) -> Option<(FragHeader, Parts)> {
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

/// Cut `payload` (a descriptor's head and body) into fragments of at most
/// `mtu` bytes each, shim included. Panics if the split needs more than
/// 255 fragments.
pub fn fragment(packet_id: u32, ethertype: u16, payload: Parts, mtu: usize) -> Fragments {
    assert!(mtu > FRAG_HEADER, "MTU too small for fragment shim");
    let chunk = mtu - FRAG_HEADER;
    let count = payload.len().div_ceil(chunk).max(1);
    assert!(count <= 255, "packet needs {count} fragments (max 255)");
    Fragments {
        packet_id,
        ethertype,
        chunk,
        count: count as u8,
        next: 0,
        payload,
    }
}

/// The fragments of one payload, each cut when it is taken: the head and
/// body of a FRAG frame.
#[derive(Debug, Clone)]
pub struct Fragments {
    packet_id: u32,
    ethertype: u16,
    /// Payload bytes per fragment: the MTU less the shim.
    chunk: usize,
    count: u8,
    /// Index of the next fragment to cut.
    next: u8,
    payload: Parts,
}

impl Iterator for Fragments {
    type Item = Parts;

    fn next(&mut self) -> Option<Parts> {
        if self.next == self.count {
            return None;
        }
        let start = usize::from(self.next) * self.chunk;
        let span = self
            .payload
            .slice(start..(start + self.chunk).min(self.payload.len()));
        let shim = FragHeader {
            packet_id: self.packet_id,
            index: self.next,
            count: self.count,
            ethertype: self.ethertype,
        };
        self.next += 1;
        let mut head = BytesMut::with_capacity(FRAG_HEADER + span.head.len());
        head.put_slice(&shim.encode());
        head.put_slice(&span.head);
        Some(Parts::new(head.freeze(), span.body))
    }
}

/// Receive-side reassembly state, keyed by `(source tag, packet id)` so
/// interleaved senders do not collide.
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: BTreeMap<(u64, u32), Vec<Option<Parts>>>,
}

impl Reassembler {
    /// New empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer one fragment frame from `source`. Returns the completed
    /// packet's shim (it names the original EtherType) and the reassembled
    /// packet when this fragment completes it: piece 0's head bytes after
    /// its shim, then every piece's remaining bytes, joined into a view of
    /// their allocation when they continue one another in it.
    pub fn offer(&mut self, source: u64, frame: &Frame) -> Option<(FragHeader, Parts)> {
        let (header, piece) = FragHeader::decode(frame)?;
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
        slots[header.index as usize] = Some(piece);
        if !slots.iter().all(Option::is_some) {
            return None;
        }
        let slots = self
            .partial
            .remove(&key)
            .expect("the slots were filled above under this key");
        let total: usize = slots.iter().flatten().map(Parts::len).sum();
        let mut pieces = slots.into_iter().flatten();
        let first = pieces
            .next()
            .expect("a shim's count is at least 1, so piece 0 is in");
        let mut body = Gather::new(total - first.head.len());
        body.push(first.body);
        for piece in pieces {
            body.push(piece.head);
            body.push(piece.body);
        }
        Some((header, Parts::new(first.head, body.finish())))
    }

    /// Packets currently awaiting fragments.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use clic_ethernet::{EtherType, MacAddr};

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
    }

    /// A fragment as the NIC receives it: a FRAG frame of the piece's two
    /// parts.
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

    /// The fragments of `body` behind an empty head.
    fn pieces(id: u32, body: &Bytes, mtu: usize) -> Vec<Parts> {
        fragment(id, 0x88B5, Parts::from(body.clone()), mtu).collect()
    }

    /// A piece's wire image: its shim, then its data.
    fn wire(piece: &Parts) -> Vec<u8> {
        [&piece.head[..], &piece.body[..]].concat()
    }

    /// Offer a fragment; the reassembled packet if it completes one.
    fn offer(r: &mut Reassembler, source: u64, piece: &Parts) -> Option<Parts> {
        r.offer(source, &frame(piece)).map(|(_, packet)| packet)
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
        let buf = Parts::from(Bytes::from(buf));
        let (parsed, body) = FragHeader::decode(&frame(&buf)).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(&body.body[..], b"body");
        // The body is a view into the fragment, not a copy.
        assert_eq!(body.body.as_ptr(), buf.body[FRAG_HEADER..].as_ptr());
    }

    #[test]
    fn decode_rejects_bad_shims() {
        let one = |v: Vec<u8>| frame(&Parts::from(Bytes::from(v)));
        assert!(FragHeader::decode(&one(vec![0; 4])).is_none()); // short
        let h = FragHeader {
            packet_id: 1,
            index: 5,
            count: 5,
            ethertype: 0,
        };
        assert!(FragHeader::decode(&one(h.encode().to_vec())).is_none()); // index >= count
        let z = FragHeader {
            packet_id: 1,
            index: 0,
            count: 0,
            ethertype: 0,
        };
        assert!(FragHeader::decode(&one(z.encode().to_vec())).is_none());
    }

    #[test]
    fn fragment_sizes_respect_mtu() {
        let p = payload(10_000);
        let frags = pieces(1, &p, 1500);
        assert_eq!(frags.len(), 10_000usize.div_ceil(1500 - FRAG_HEADER));
        for f in &frags {
            assert!(f.len() <= 1500);
        }
    }

    #[test]
    fn two_gather_entries_fragment_like_their_concatenation() {
        let p = payload(10_000);
        let whole: Vec<Vec<u8>> = pieces(5, &p, 1500).iter().map(wire).collect();
        for cut in [0, 1, 12, 1491, 1492, 1493, 5_000, 10_000] {
            let two = Parts::new(Bytes::copy_from_slice(&p[..cut]), p.slice(cut..));
            let cut_pieces: Vec<Parts> = fragment(5, 0x88B5, two, 1500).collect();
            let wires: Vec<Vec<u8>> = cut_pieces.iter().map(wire).collect();
            assert_eq!(wires, whole, "cut {cut}");
            for (i, piece) in cut_pieces.iter().enumerate() {
                if !piece.body.is_empty() {
                    let at = (i * (1500 - FRAG_HEADER)).max(cut);
                    assert_eq!(
                        piece.body.as_ptr(),
                        p[at..].as_ptr(),
                        "cut {cut}, piece {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn reassembly_in_order() {
        let p = payload(10_000);
        let head = Bytes::copy_from_slice(b"a 20-byte head......");
        let frags: Vec<Parts> =
            fragment(7, 0x88B5, Parts::new(head.clone(), p.clone()), 1500).collect();
        let mut r = Reassembler::new();
        let mut result = None;
        for f in &frags {
            result = offer(&mut r, 1, f);
        }
        let packet = result.unwrap();
        assert_eq!(packet.head, head);
        assert_eq!(packet.body, p);
        assert_eq!(
            packet.body.as_ptr(),
            p.as_ptr(),
            "the bodies are the sender's"
        );
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembly_out_of_order() {
        let p = payload(5_000);
        let mut frags = pieces(9, &p, 1000);
        frags.reverse();
        let mut r = Reassembler::new();
        let mut result = None;
        for f in &frags {
            result = offer(&mut r, 1, f);
        }
        assert_eq!(result.unwrap(), Parts::from(p));
    }

    #[test]
    fn interleaved_sources_do_not_collide() {
        let pa = payload(3000);
        let pb = Bytes::from(vec![0xffu8; 3000]);
        let fa = pieces(1, &pa, 1000);
        let fb = pieces(1, &pb, 1000); // same packet id, different source
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
        assert_eq!(out[0], (1, Parts::from(pa)));
        assert_eq!(out[1], (2, Parts::from(pb)));
    }

    #[test]
    fn single_fragment_packet() {
        let p = payload(100);
        let frags = pieces(3, &p, 1500);
        assert_eq!(frags.len(), 1);
        let mut r = Reassembler::new();
        assert_eq!(offer(&mut r, 1, &frags[0]).unwrap(), Parts::from(p));
    }

    #[test]
    fn empty_payload_still_one_fragment() {
        let frags = pieces(4, &Bytes::new(), 1500);
        assert_eq!(frags.len(), 1);
        let mut r = Reassembler::new();
        assert!(offer(&mut r, 1, &frags[0]).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "max 255")]
    fn oversize_packet_rejected() {
        pieces(1, &payload(300_000), 1000);
    }
}
