//! Property-based tests for the IPv4 codec and checksums.

use bytes::{Bytes, Parts};
use clic_ethernet::{EtherType, Frame, MacAddr};
use clic_tcpip::ip::{internet_checksum, pseudo_header_checksum, IpAddr, Ipv4Header, IPV4_HEADER};
use clic_tcpip::tcp::{decode_packet, tcpflags, Segment, TCP_HEADER};
use proptest::prelude::*;

/// The IPv4 header at the front of `wire` and the payload it announces.
fn decode(wire: &Bytes) -> Option<(Ipv4Header, Bytes)> {
    let h = Ipv4Header::decode(wire, wire.len())?;
    let end = IPV4_HEADER + usize::from(h.payload_len);
    Some((h, wire.slice(IPV4_HEADER..end)))
}

/// An IPv4 frame from `head` and `body`.
fn frame(head: Bytes, body: Bytes) -> Frame {
    let (a, b) = (MacAddr::for_node(2, 0), MacAddr::for_node(1, 0));
    Frame::gather(a, b, EtherType::IPV4, head, body)
}

/// RFC 1071's definition, two bytes per step: the sum of `data` as
/// big-endian 16-bit words (an odd tail byte zero-padded), carries folded
/// back in, complemented. The reference the library must equal.
fn reference_checksum(data: &[u8]) -> u16 {
    let mut sum: u64 = data
        .chunks(2)
        .map(|c| u64::from(u16::from_be_bytes([c[0], c.get(1).copied().unwrap_or(0)])))
        .sum();
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

proptest! {
    /// Both checksums equal the two-bytes-per-step reference for any
    /// length up to a jumbo segment (empty and odd included), starting at
    /// every offset 0–7 of a larger buffer, and for the pseudo-header
    /// checksum split into arbitrary parts, odd lengths and empty parts
    /// included (a part at an odd offset adds its sum byte-swapped). A
    /// third of the inputs are all ones, where every word carries, and a
    /// third all zeros, whose sum is the only one that folds to 0.
    #[test]
    fn checksums_equal_two_bytes_per_step_reference(
        random in proptest::collection::vec(any::<u8>(), 0..9_101),
        fill in 0u8..3,
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
        src in any::<u32>(),
        dst in any::<u32>(),
    ) {
        let data = match fill {
            0 => random,
            1 => vec![0xff; random.len()],
            _ => vec![0; random.len()],
        };
        // Cut points anywhere, in order: parts of any length.
        let mut ends: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        ends.sort_unstable();
        let len = data.len() as u16;
        let mut pseudo = Vec::new();
        pseudo.extend_from_slice(&src.to_be_bytes());
        pseudo.extend_from_slice(&dst.to_be_bytes());
        pseudo.extend_from_slice(&[0, 6]);
        pseudo.extend_from_slice(&len.to_be_bytes());
        pseudo.extend_from_slice(&data);
        let want_pseudo = reference_checksum(&pseudo);
        let mut buf = vec![0u8; data.len() + 8];
        for offset in 0..8 {
            buf[offset..offset + data.len()].copy_from_slice(&data);
            let at = &buf[offset..offset + data.len()];
            prop_assert_eq!(internet_checksum(at), reference_checksum(at));
            let mut parts = Vec::new();
            let mut start = 0;
            for &end in &ends {
                parts.push(&at[start..end]);
                start = end;
            }
            parts.push(&at[start..]);
            prop_assert_eq!(
                pseudo_header_checksum(IpAddr(src), IpAddr(dst), len, &parts),
                want_pseudo
            );
        }
    }

    /// RFC 1071: the checksum of data with its own checksum folded in
    /// verifies to zero; flipping any bit breaks it.
    #[test]
    fn checksum_detects_corruption(
        mut data in proptest::collection::vec(any::<u8>(), 2..1_500),
        flip in any::<(usize, u8)>(),
    ) {
        // Fold the checksum into the first two bytes (like a header field).
        data[0] = 0;
        data[1] = 0;
        let c = internet_checksum(&data);
        data[0] = (c >> 8) as u8;
        data[1] = (c & 0xff) as u8;
        prop_assert_eq!(internet_checksum(&data), 0);
        // Flip one nonzero bit somewhere.
        let (pos, bit) = flip;
        let pos = pos % data.len();
        let mask = 1u8 << (bit % 8);
        data[pos] ^= mask;
        // A single-bit flip is always detected by the Internet checksum.
        prop_assert_ne!(internet_checksum(&data), 0);
    }

    /// The pseudo-header checksum summed part by part equals the RFC 1071
    /// checksum of the concatenated bytes, for any even-length header and
    /// any payload length (empty and odd included).
    #[test]
    fn pseudo_header_checksum_matches_concatenation(
        src in any::<u32>(),
        dst in any::<u32>(),
        header_words in proptest::collection::vec(any::<u16>(), 0..16),
        payload in proptest::collection::vec(any::<u8>(), 0..1_500),
        empty in any::<bool>(),
    ) {
        let payload = if empty { &[][..] } else { &payload[..] };
        let header: Vec<u8> = header_words.iter().flat_map(|w| w.to_be_bytes()).collect();
        let len = (header.len() + payload.len()) as u16;
        let mut concat = Vec::new();
        concat.extend_from_slice(&src.to_be_bytes());
        concat.extend_from_slice(&dst.to_be_bytes());
        concat.extend_from_slice(&[0, 6]);
        concat.extend_from_slice(&len.to_be_bytes());
        concat.extend_from_slice(&header);
        concat.extend_from_slice(payload);
        prop_assert_eq!(
            pseudo_header_checksum(IpAddr(src), IpAddr(dst), len, &[&header, payload]),
            internet_checksum(&concat)
        );
    }

    /// IPv4 header roundtrip for arbitrary field combinations.
    #[test]
    fn ipv4_header_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        ident in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1_000),
    ) {
        let h = Ipv4Header {
            src: IpAddr(src),
            dst: IpAddr(dst),
            ident,
            payload_len: payload.len() as u16,
        };
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&payload);
        let (parsed, body) = decode(&Bytes::from(wire)).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(&body[..], &payload[..]);
    }

    /// Corrupting any single header byte makes the header undecodable
    /// (checksum) or changes no accepted-field silently.
    #[test]
    fn ipv4_header_corruption_detected(pos in 0usize..20, mask in 1u8..=255) {
        let h = Ipv4Header {
            src: IpAddr::for_node(1),
            dst: IpAddr::for_node(2),
            ident: 7,
            payload_len: 0,
        };
        let mut wire = h.encode().to_vec();
        wire[pos] ^= mask;
        match decode(&Bytes::from(wire)) {
            None => {} // rejected: good
            Some((parsed, _)) => {
                // The only acceptable parse is the original (i.e. the flip
                // hit a bit the checksum catches as... it cannot: any
                // single flip must be caught).
                prop_assert!(false, "corrupted header accepted: {parsed:?}");
            }
        }
    }

    /// The TCP checksum of a packet whose payload is two parts (bytes of
    /// an earlier send, which ride in the head behind the IPv4 and TCP
    /// headers, and a body), summed over the TCP header and both parts in
    /// place wherever the payload splits, odd cuts included, is the
    /// two-bytes-per-step checksum of their concatenation.
    #[test]
    fn tcp_checksum_over_head_and_body_equals_reference(
        payload in proptest::collection::vec(any::<u8>(), 0..9_101),
        cut in any::<usize>(),
        ports in any::<(u16, u16)>(),
        numbers in any::<(u32, u32, u16)>(),
        addrs in any::<(u32, u32, u16)>(),
    ) {
        let seg = Segment {
            src_port: ports.0,
            dst_port: ports.1,
            seq: numbers.0,
            ack: numbers.1,
            flags: tcpflags::ACK,
            window: numbers.2,
        };
        let ip = Ipv4Header {
            src: IpAddr(addrs.0),
            dst: IpAddr(addrs.1),
            ident: addrs.2,
            payload_len: (TCP_HEADER + payload.len()) as u16,
        };
        let cut = cut % (payload.len() + 1);
        let parts = Parts::new(
            Bytes::copy_from_slice(&payload[..cut]),
            Bytes::copy_from_slice(&payload[cut..]),
        );
        let head = seg.packet_head(&ip, &parts);
        prop_assert_eq!(&head[IPV4_HEADER + TCP_HEADER..], &payload[..cut]);
        let tcp = &head[IPV4_HEADER..IPV4_HEADER + TCP_HEADER];
        let len = (TCP_HEADER + payload.len()) as u16;
        let mut concat = Vec::new();
        concat.extend_from_slice(&addrs.0.to_be_bytes());
        concat.extend_from_slice(&addrs.1.to_be_bytes());
        concat.extend_from_slice(&[0, 6]);
        concat.extend_from_slice(&len.to_be_bytes());
        concat.extend_from_slice(tcp);
        concat.extend_from_slice(&payload);
        prop_assert_eq!(reference_checksum(&concat), 0, "emitted checksum verifies");
        prop_assert_eq!(
            pseudo_header_checksum(ip.src, ip.dst, len, &[tcp, &parts.head, &parts.body]),
            0
        );
        // With the checksum field cleared, both sums name the same value.
        concat[12 + 16] = 0;
        concat[12 + 17] = 0;
        let mut blank = tcp.to_vec();
        blank[16..18].fill(0);
        prop_assert_eq!(
            pseudo_header_checksum(ip.src, ip.dst, len, &[&blank, &payload]),
            reference_checksum(&concat)
        );
    }

    /// A segment emitted in two parts — the head (IPv4 and TCP headers,
    /// then the payload's bytes of an earlier send, if any) and the rest
    /// of the payload as body — decodes to the same headers and data as
    /// the one-piece concatenation and as any other split of it, and the
    /// emitted form's data is the head's leftover bytes and the body
    /// itself, neither a copy.
    #[test]
    fn segment_emitted_in_two_parts_decodes_to_same_header_and_data(
        payload in proptest::collection::vec(any::<u8>(), 0..9_101),
        numbers in any::<(u32, u32, u16)>(),
        lead in any::<usize>(),
        cut in any::<usize>(),
        padded in any::<bool>(),
    ) {
        let seg = Segment {
            src_port: 4000,
            dst_port: 80,
            seq: numbers.0,
            ack: numbers.1,
            flags: tcpflags::ACK,
            window: numbers.2,
        };
        let ip = Ipv4Header {
            src: IpAddr::for_node(1),
            dst: IpAddr::for_node(2),
            ident: 7,
            payload_len: (TCP_HEADER + payload.len()) as u16,
        };
        let lead = lead % (payload.len() + 1);
        let sent = Parts::new(
            Bytes::copy_from_slice(&payload[..lead]),
            Bytes::copy_from_slice(&payload[lead..]),
        );
        let head = seg.packet_head(&ip, &sent);
        let mut body = sent.body.to_vec();
        if padded {
            body.resize(body.len().max(46 - head.len().min(46)), 0); // Ethernet padding
        }
        let body = Bytes::from(body);
        let wire = [&head[..], &body[..]].concat();
        let cut = cut % (wire.len() + 1);
        let whole = Parts::from(Bytes::copy_from_slice(&payload));
        for f in [
            frame(head.clone(), body.clone()),
            frame(Bytes::new(), Bytes::from(wire.clone())),
            frame(Bytes::copy_from_slice(&wire[..cut]), Bytes::copy_from_slice(&wire[cut..])),
        ] {
            let (parsed_ip, tcp, data) = decode_packet(&f).unwrap();
            prop_assert_eq!(parsed_ip, ip);
            let (parsed, data) = Segment::decode(ip.src, ip.dst, &tcp, data).unwrap();
            prop_assert_eq!(parsed, seg);
            prop_assert_eq!(&data, &whole);
        }
        let (_, tcp, data) = decode_packet(&frame(head.clone(), body.clone())).unwrap();
        let (_, data) = Segment::decode(ip.src, ip.dst, &tcp, data).unwrap();
        if !data.head.is_empty() {
            let at = IPV4_HEADER + TCP_HEADER;
            prop_assert_eq!(data.head.as_ptr(), head[at..].as_ptr(), "head bytes copied");
        }
        if !data.body.is_empty() {
            prop_assert_eq!(data.body.as_ptr(), body.as_ptr(), "data copied");
        }
    }
}
