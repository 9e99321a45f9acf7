//! IPv4: headers, checksums, fragmentation, reassembly.

use bytes::{BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;

/// Size of the (option-less) IPv4 header.
pub const IPV4_HEADER: usize = 20;

/// A 32-bit IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// Deterministic cluster address for a node: 10.0.x.y.
    pub fn for_node(node: u32) -> IpAddr {
        IpAddr(0x0a00_0000 | (node & 0xffff))
    }
}

impl std::fmt::Display for IpAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// IP protocol numbers used here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
}

impl IpProto {
    fn to_u8(self) -> u8 {
        match self {
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
        }
    }

    fn from_u8(v: u8) -> Option<IpProto> {
        match v {
            6 => Some(IpProto::Tcp),
            17 => Some(IpProto::Udp),
            _ => None,
        }
    }
}

/// RFC 1071 Internet checksum.
pub fn internet_checksum(data: &[u8]) -> u16 {
    fold(word_sum(data))
}

/// [`internet_checksum`] over a TCP/UDP pseudo-header (`src`, `dst`,
/// `proto`, `len`) followed by `parts`, summed in place instead of over a
/// concatenated copy. Every part but the last must have even length.
pub fn pseudo_header_checksum(
    src: IpAddr,
    dst: IpAddr,
    proto: IpProto,
    len: u16,
    parts: &[&[u8]],
) -> u16 {
    let mut sum = word_sum(&src.0.to_be_bytes())
        + word_sum(&dst.0.to_be_bytes())
        + u64::from(proto.to_u8())
        + u64::from(len);
    for (i, part) in parts.iter().enumerate() {
        debug_assert!(i + 1 == parts.len() || part.len() % 2 == 0);
        sum += word_sum(part);
    }
    fold(sum)
}

/// Sum of `data` as big-endian 16-bit words, an odd tail byte zero-padded.
fn word_sum(data: &[u8]) -> u64 {
    let mut chunks = data.chunks_exact(2);
    let mut sum: u64 = (&mut chunks)
        .map(|c| u64::from(u16::from_be_bytes([c[0], c[1]])))
        .sum();
    if let [last] = chunks.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Fold carries back in (one's-complement addition) and complement.
fn fold(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// A parsed IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Payload protocol.
    pub proto: IpProto,
    /// Datagram identification (shared by fragments).
    pub ident: u16,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Time to live.
    pub ttl: u8,
    /// Payload length of this packet (excluding the header).
    pub payload_len: u16,
}

impl Ipv4Header {
    /// Serialize with a correct header checksum.
    pub fn encode(&self) -> [u8; IPV4_HEADER] {
        let mut h = [0u8; IPV4_HEADER];
        h[0] = 0x45; // version 4, IHL 5
        let total = IPV4_HEADER as u16 + self.payload_len;
        h[2..4].copy_from_slice(&total.to_be_bytes());
        h[4..6].copy_from_slice(&self.ident.to_be_bytes());
        let mut flags_frag = self.frag_offset & 0x1fff;
        if self.more_fragments {
            flags_frag |= 0x2000;
        }
        h[6..8].copy_from_slice(&flags_frag.to_be_bytes());
        h[8] = self.ttl;
        h[9] = self.proto.to_u8();
        h[12..16].copy_from_slice(&self.src.0.to_be_bytes());
        h[16..20].copy_from_slice(&self.dst.0.to_be_bytes());
        let csum = internet_checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        h
    }

    /// Parse and verify; returns the header and its payload, a slice of
    /// `buf` rather than a copy.
    pub fn decode(buf: &Bytes) -> Option<(Ipv4Header, Bytes)> {
        if buf.len() < IPV4_HEADER || buf[0] != 0x45 {
            return None;
        }
        if internet_checksum(&buf[..IPV4_HEADER]) != 0 {
            return None; // corrupted header
        }
        let total = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total < IPV4_HEADER || buf.len() < total {
            return None;
        }
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        let header = Ipv4Header {
            src: IpAddr(u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]])),
            dst: IpAddr(u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]])),
            proto: IpProto::from_u8(buf[9])?,
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            frag_offset: flags_frag & 0x1fff,
            more_fragments: flags_frag & 0x2000 != 0,
            ttl: buf[8],
            payload_len: (total - IPV4_HEADER) as u16,
        };
        Some((header, buf.slice(IPV4_HEADER..total)))
    }
}

/// Split `payload` into IP fragments that fit `mtu` (header included).
/// Fragment data lengths are multiples of 8 except the last.
pub fn fragment(
    src: IpAddr,
    dst: IpAddr,
    proto: IpProto,
    ident: u16,
    ttl: u8,
    payload: &Bytes,
    mtu: usize,
) -> Vec<Bytes> {
    assert!(mtu > IPV4_HEADER + 8, "MTU too small for IP fragmentation");
    let chunk = (mtu - IPV4_HEADER) & !7; // multiple of 8
    let mut out = Vec::new();
    let mut off = 0usize;
    loop {
        let end = (off + chunk).min(payload.len());
        let more = end < payload.len();
        let header = Ipv4Header {
            src,
            dst,
            proto,
            ident,
            frag_offset: (off / 8) as u16,
            more_fragments: more,
            ttl,
            payload_len: (end - off) as u16,
        };
        let mut pkt = BytesMut::with_capacity(IPV4_HEADER + end - off);
        pkt.put_slice(&header.encode());
        pkt.put_slice(&payload[off..end]);
        out.push(pkt.freeze());
        if !more {
            break;
        }
        off = end;
    }
    out
}

/// IP reassembly buffer keyed by (src, ident, proto).
#[derive(Debug, Default)]
pub struct IpReassembler {
    partial: BTreeMap<(IpAddr, u16, u8), Partial>,
}

#[derive(Debug)]
struct Partial {
    chunks: Vec<(usize, Bytes)>, // (byte offset, data)
    total: Option<usize>,        // known once the last fragment arrives
}

impl IpReassembler {
    /// New empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer a fragment (or whole datagram); returns the reassembled
    /// payload when complete.
    pub fn offer(&mut self, header: &Ipv4Header, payload: Bytes) -> Option<Bytes> {
        if header.frag_offset == 0 && !header.more_fragments {
            return Some(payload); // unfragmented
        }
        let key = (header.src, header.ident, header.proto.to_u8());
        let offset = header.frag_offset as usize * 8;
        let entry = self.partial.entry(key).or_insert(Partial {
            chunks: Vec::new(),
            total: None,
        });
        if !entry.chunks.iter().any(|(o, _)| *o == offset) {
            entry.chunks.push((offset, payload.clone()));
        }
        if !header.more_fragments {
            entry.total = Some(offset + payload.len());
        }
        let total = entry.total?;
        let have: usize = entry.chunks.iter().map(|(_, d)| d.len()).sum();
        if have < total {
            return None;
        }
        let mut chunks = self.partial.remove(&key).unwrap().chunks;
        chunks.sort_by_key(|(o, _)| *o);
        let mut out = BytesMut::with_capacity(total);
        let mut expect = 0usize;
        for (o, d) in chunks {
            if o != expect {
                return None; // overlapping/hole anomaly: drop datagram
            }
            expect += d.len();
            out.put_slice(&d);
        }
        Some(out.freeze())
    }

    /// Datagrams awaiting fragments.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 241) as u8).collect::<Vec<_>>())
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example-style check: checksum of data including its own
        // checksum field is zero.
        let h = Ipv4Header {
            src: IpAddr::for_node(1),
            dst: IpAddr::for_node(2),
            proto: IpProto::Tcp,
            ident: 99,
            frag_offset: 0,
            more_fragments: false,
            ttl: 64,
            payload_len: 100,
        };
        let enc = h.encode();
        assert_eq!(internet_checksum(&enc), 0);
    }

    #[test]
    fn header_roundtrip() {
        let h = Ipv4Header {
            src: IpAddr::for_node(3),
            dst: IpAddr::for_node(4),
            proto: IpProto::Udp,
            ident: 0xabcd,
            frag_offset: 185,
            more_fragments: true,
            ttl: 17,
            payload_len: 8,
        };
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let wire = Bytes::from(wire);
        let (parsed, body) = Ipv4Header::decode(&wire).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(&body[..], &[1, 2, 3, 4, 5, 6, 7, 8]);
        // The payload is a view into the packet, not a copy.
        assert_eq!(body.as_ptr(), wire[IPV4_HEADER..].as_ptr());
    }

    #[test]
    fn corrupted_header_rejected() {
        let h = Ipv4Header {
            src: IpAddr::for_node(1),
            dst: IpAddr::for_node(2),
            proto: IpProto::Tcp,
            ident: 1,
            frag_offset: 0,
            more_fragments: false,
            ttl: 64,
            payload_len: 0,
        };
        let mut wire = h.encode().to_vec();
        wire[15] ^= 0xff; // flip a source-address byte
        assert!(Ipv4Header::decode(&Bytes::from(wire)).is_none());
    }

    #[test]
    fn decode_tolerates_ethernet_padding() {
        let h = Ipv4Header {
            src: IpAddr::for_node(1),
            dst: IpAddr::for_node(2),
            proto: IpProto::Udp,
            ident: 7,
            frag_offset: 0,
            more_fragments: false,
            ttl: 64,
            payload_len: 4,
        };
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&[9, 9, 9, 9]);
        wire.resize(46, 0);
        let (_, body) = Ipv4Header::decode(&Bytes::from(wire)).unwrap();
        assert_eq!(&body[..], &[9, 9, 9, 9]);
    }

    #[test]
    fn fragment_offsets_are_8_byte_aligned() {
        let p = payload(5000);
        let frags = fragment(
            IpAddr::for_node(1),
            IpAddr::for_node(2),
            IpProto::Udp,
            42,
            64,
            &p,
            1500,
        );
        assert!(frags.len() > 3);
        for f in &frags {
            assert!(f.len() <= 1500);
            let (h, _) = Ipv4Header::decode(f).unwrap();
            if h.more_fragments {
                assert_eq!(usize::from(h.payload_len) % 8, 0);
            }
        }
    }

    #[test]
    fn reassembly_roundtrip_in_and_out_of_order() {
        let p = payload(10_000);
        let mut frags = fragment(
            IpAddr::for_node(1),
            IpAddr::for_node(2),
            IpProto::Udp,
            5,
            64,
            &p,
            1500,
        );
        // In order.
        let mut r = IpReassembler::new();
        let mut got = None;
        for f in &frags {
            let (h, body) = Ipv4Header::decode(f).unwrap();
            got = r.offer(&h, body);
        }
        assert_eq!(got.unwrap(), p);
        // Reverse order.
        frags.reverse();
        let mut r = IpReassembler::new();
        let mut got = None;
        for f in &frags {
            let (h, body) = Ipv4Header::decode(f).unwrap();
            if let Some(x) = r.offer(&h, body) {
                got = Some(x);
            }
        }
        assert_eq!(got.unwrap(), p);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn duplicate_fragment_is_idempotent() {
        let p = payload(3000);
        let frags = fragment(
            IpAddr::for_node(1),
            IpAddr::for_node(2),
            IpProto::Udp,
            5,
            64,
            &p,
            1500,
        );
        let mut r = IpReassembler::new();
        let mut got = None;
        for f in frags.iter().chain(frags.iter().take(1)) {
            let (h, body) = Ipv4Header::decode(f).unwrap();
            if let Some(x) = r.offer(&h, body) {
                got = Some(x);
            }
        }
        assert_eq!(got.unwrap(), p);
    }

    #[test]
    fn unfragmented_passthrough() {
        let h = Ipv4Header {
            src: IpAddr::for_node(1),
            dst: IpAddr::for_node(2),
            proto: IpProto::Tcp,
            ident: 0,
            frag_offset: 0,
            more_fragments: false,
            ttl: 64,
            payload_len: 3,
        };
        let mut r = IpReassembler::new();
        assert_eq!(
            r.offer(&h, Bytes::from_static(&[1, 2, 3])).unwrap(),
            Bytes::from_static(&[1, 2, 3])
        );
    }

    #[test]
    fn node_addresses_displayed() {
        assert_eq!(IpAddr::for_node(1).to_string(), "10.0.0.1");
        assert_eq!(IpAddr::for_node(258).to_string(), "10.0.1.2");
    }
}
