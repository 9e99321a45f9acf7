//! IPv4 as TCP uses it: the 20-byte header and RFC 1071 checksums.
//!
//! Every packet is one unfragmented TCP segment (the MSS is the device MTU
//! minus both headers), so the header carries no fragmentation state and
//! [`Ipv4Header::decode`] rejects fragments and every other protocol. The
//! header travels in a frame's head with the TCP header; the receiver
//! copies both out of the frame and reads this one from those bytes.
//!
//! Both checksums share one summation, which adds 8 bytes per step and
//! yields the same values as the 16-bit-word definition: the model charges
//! checksum time per byte in simulated time, so the host need not pay it
//! again two bytes at a time.

/// Size of the (option-less) IPv4 header.
pub const IPV4_HEADER: usize = 20;

/// IP protocol number of TCP, the only protocol carried.
const PROTO_TCP: u8 = 6;

/// Time to live written on every packet.
const TTL: u8 = 64;

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

/// RFC 1071 Internet checksum.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !word_sum(data)
}

/// [`internet_checksum`] over a TCP pseudo-header (`src`, `dst`, protocol
/// 6, `len`) followed by `parts`, summed in place instead of over a
/// concatenated copy. Parts may have any length: a part that starts at an
/// odd offset of the concatenation adds its sum with the two bytes
/// swapped, which is the sum of its bytes in the lanes they take there
/// (RFC 1071 §2(B), byte-order independence).
pub fn pseudo_header_checksum(src: IpAddr, dst: IpAddr, len: u16, parts: &[&[u8]]) -> u16 {
    let halves = |a: IpAddr| u64::from(a.0 >> 16) + u64::from(a.0 & 0xffff);
    let mut sum = halves(src) + halves(dst) + u64::from(PROTO_TCP) + u64::from(len);
    let mut odd = false;
    for part in parts {
        let part_sum = word_sum(part);
        sum += u64::from(if odd { part_sum.swap_bytes() } else { part_sum });
        odd ^= part.len() % 2 == 1;
    }
    !fold(sum)
}

/// One's-complement sum of `data` as big-endian 16-bit words, an odd
/// tail byte zero-padded, folded to 16 bits.
///
/// The loop adds native-endian 8-byte words in two 32-bit lanes. The
/// one's-complement sum does not depend on byte order (RFC 1071 §2(B)):
/// folded, the sum of native-endian words is the big-endian sum with its
/// two bytes swapped, so one swap at the end gives the big-endian value
/// (`u16::from_be` swaps on a little-endian host and nothing on a
/// big-endian one). Deferred carries (§2(C)) stay in the upper half of
/// each 64-bit lane, which gains less than 2³² per step and so cannot
/// overflow below 2³² steps (32 GiB of data).
fn word_sum(data: &[u8]) -> u16 {
    let (mut lo, mut hi) = (0u64, 0u64);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_ne_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        lo += w & 0xffff_ffff;
        hi += w >> 32;
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let w = u64::from_ne_bytes(tail);
    lo += w & 0xffff_ffff;
    hi += w >> 32;
    u16::from_be(fold(u64::from(fold(lo)) + u64::from(fold(hi))))
}

/// Fold carries back in (one's-complement addition) down to 16 bits.
fn fold(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// A parsed IPv4 header of an unfragmented TCP packet (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Datagram identification.
    pub ident: u16,
    /// Payload length of this packet (excluding the header).
    pub payload_len: u16,
}

impl Ipv4Header {
    /// Serialize with a correct header checksum: protocol TCP, TTL 64, no
    /// flags and fragment offset 0.
    pub fn encode(&self) -> [u8; IPV4_HEADER] {
        let mut h = [0u8; IPV4_HEADER];
        h[0] = 0x45; // version 4, IHL 5
        let total = IPV4_HEADER as u16 + self.payload_len;
        h[2..4].copy_from_slice(&total.to_be_bytes());
        h[4..6].copy_from_slice(&self.ident.to_be_bytes());
        h[8] = TTL;
        h[9] = PROTO_TCP;
        h[12..16].copy_from_slice(&self.src.0.to_be_bytes());
        h[16..20].copy_from_slice(&self.dst.0.to_be_bytes());
        let csum = internet_checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        h
    }

    /// Parse and verify the header at the front of `buf`, a packet whose
    /// wire image (Ethernet padding included) is `packet_len` bytes long;
    /// the header's total length must fit in it. A fragment
    /// (more-fragments flag or a nonzero offset) or a protocol other than
    /// TCP is rejected.
    pub fn decode(buf: &[u8], packet_len: usize) -> Option<Ipv4Header> {
        if buf.len() < IPV4_HEADER || buf[0] != 0x45 {
            return None;
        }
        if internet_checksum(&buf[..IPV4_HEADER]) != 0 {
            return None; // corrupted header
        }
        let total = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total < IPV4_HEADER || packet_len < total {
            return None;
        }
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        if flags_frag & 0x3fff != 0 || buf[9] != PROTO_TCP {
            return None;
        }
        let header = Ipv4Header {
            src: IpAddr(u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]])),
            dst: IpAddr(u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]])),
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            payload_len: (total - IPV4_HEADER) as u16,
        };
        Some(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// The header at the front of `wire` and the payload it announces.
    fn decode(wire: &Bytes) -> Option<(Ipv4Header, Bytes)> {
        let h = Ipv4Header::decode(wire, wire.len())?;
        let end = IPV4_HEADER + usize::from(h.payload_len);
        Some((h, wire.slice(IPV4_HEADER..end)))
    }

    fn header(ident: u16, payload_len: u16) -> Ipv4Header {
        Ipv4Header {
            src: IpAddr::for_node(1),
            dst: IpAddr::for_node(2),
            ident,
            payload_len,
        }
    }

    /// `header` on the wire with `payload`, the header checksum refreshed
    /// after `patch` edits the header bytes.
    fn wire_with(h: Ipv4Header, payload: &[u8], patch: impl FnOnce(&mut [u8])) -> Bytes {
        let mut wire = h.encode().to_vec();
        patch(&mut wire[..IPV4_HEADER]);
        wire[10..12].fill(0);
        let csum = internet_checksum(&wire[..IPV4_HEADER]);
        wire[10..12].copy_from_slice(&csum.to_be_bytes());
        wire.extend_from_slice(payload);
        Bytes::from(wire)
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 §3: these bytes fold to 0xddf2, whose complement is
        // the checksum.
        let rfc = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(word_sum(&rfc), 0xddf2);
        assert_eq!(internet_checksum(&rfc), 0x220d);
        // The checksum of data including its own checksum field is zero.
        let enc = header(99, 100).encode();
        assert_eq!(internet_checksum(&enc), 0);
    }

    #[test]
    fn header_roundtrip() {
        let h = Ipv4Header {
            src: IpAddr::for_node(3),
            dst: IpAddr::for_node(4),
            ident: 0xabcd,
            payload_len: 8,
        };
        let mut wire = h.encode().to_vec();
        // The wire bytes of every TCP packet: TCP, TTL 64, no fragment.
        assert_eq!((wire[6], wire[7], wire[8], wire[9]), (0, 0, 64, 6));
        wire.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let wire = Bytes::from(wire);
        let (parsed, body) = decode(&wire).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(&body[..], &[1, 2, 3, 4, 5, 6, 7, 8]);
        // The payload is a view into the packet, not a copy.
        assert_eq!(body.as_ptr(), wire[IPV4_HEADER..].as_ptr());
    }

    #[test]
    fn corrupted_header_rejected() {
        let mut wire = header(1, 0).encode().to_vec();
        wire[15] ^= 0xff; // flip a source-address byte
        assert!(decode(&Bytes::from(wire)).is_none());
    }

    #[test]
    fn decode_tolerates_ethernet_padding() {
        let mut wire = header(7, 4).encode().to_vec();
        wire.extend_from_slice(&[9, 9, 9, 9]);
        wire.resize(46, 0);
        let (_, body) = decode(&Bytes::from(wire)).unwrap();
        assert_eq!(&body[..], &[9, 9, 9, 9]);
    }

    #[test]
    fn decode_rejects_fragments_and_non_tcp() {
        let h = header(5, 8);
        let body = [0u8; 8];
        // Well-formed headers with valid checksums, each one field away
        // from an accepted packet.
        let first_fragment = wire_with(h, &body, |w| w[6] = 0x20);
        let later_fragment = wire_with(h, &body, |w| w[7] = 185);
        let udp = wire_with(h, &body, |w| w[9] = 17);
        for (what, wire) in [
            ("more-fragments flag", first_fragment),
            ("fragment offset", later_fragment),
            ("UDP", udp),
        ] {
            assert_eq!(internet_checksum(&wire[..IPV4_HEADER]), 0);
            assert!(decode(&wire).is_none(), "{what} accepted");
        }
        // Don't-fragment is not a fragment.
        let df = wire_with(h, &body, |w| w[6] = 0x40);
        assert_eq!(decode(&df).unwrap().0, h);
    }

    #[test]
    fn node_addresses_displayed() {
        assert_eq!(IpAddr::for_node(1).to_string(), "10.0.0.1");
        assert_eq!(IpAddr::for_node(258).to_string(), "10.0.1.2");
    }
}
