//! Property-based tests for IP/TCP codecs, checksums and reassembly.

use bytes::Bytes;
use clic_tcpip::ip::{
    self, internet_checksum, pseudo_header_checksum, IpAddr, IpProto, IpReassembler, Ipv4Header,
};
use proptest::prelude::*;

proptest! {
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
        tcp in any::<bool>(),
        header_words in proptest::collection::vec(any::<u16>(), 0..16),
        payload in proptest::collection::vec(any::<u8>(), 0..1_500),
        empty in any::<bool>(),
    ) {
        let payload = if empty { &[][..] } else { &payload[..] };
        let header: Vec<u8> = header_words.iter().flat_map(|w| w.to_be_bytes()).collect();
        let proto = if tcp { IpProto::Tcp } else { IpProto::Udp };
        let len = (header.len() + payload.len()) as u16;
        let mut concat = Vec::new();
        concat.extend_from_slice(&src.to_be_bytes());
        concat.extend_from_slice(&dst.to_be_bytes());
        concat.extend_from_slice(&[0, if tcp { 6 } else { 17 }]);
        concat.extend_from_slice(&len.to_be_bytes());
        concat.extend_from_slice(&header);
        concat.extend_from_slice(payload);
        prop_assert_eq!(
            pseudo_header_checksum(IpAddr(src), IpAddr(dst), proto, len, &[&header, payload]),
            internet_checksum(&concat)
        );
    }

    /// IPv4 header roundtrip for arbitrary field combinations.
    #[test]
    fn ipv4_header_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        tcp in any::<bool>(),
        ident in any::<u16>(),
        frag_offset in 0u16..0x2000,
        more in any::<bool>(),
        ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..1_000),
    ) {
        let h = Ipv4Header {
            src: IpAddr(src),
            dst: IpAddr(dst),
            proto: if tcp { IpProto::Tcp } else { IpProto::Udp },
            ident,
            frag_offset,
            more_fragments: more,
            ttl,
            payload_len: payload.len() as u16,
        };
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&payload);
        let (parsed, body) = Ipv4Header::decode(&Bytes::from(wire)).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(&body[..], &payload[..]);
    }

    /// IP fragmentation + reassembly is the identity under arbitrary
    /// arrival permutations.
    #[test]
    fn ip_frag_roundtrip(len in 1usize..30_000, mtu in 68usize..9_000, seed in any::<u64>()) {
        let payload = Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<_>>());
        let mut frags = ip::fragment(
            IpAddr::for_node(1),
            IpAddr::for_node(2),
            IpProto::Udp,
            42,
            64,
            &payload,
            mtu,
        );
        let n = frags.len();
        for i in 0..n {
            let j = ((seed.wrapping_add(i as u64 * 7919)) as usize) % n;
            frags.swap(i, j);
        }
        let mut r = IpReassembler::new();
        let mut out = None;
        for f in &frags {
            let (h, body) = Ipv4Header::decode(f).unwrap();
            if let Some(p) = r.offer(&h, body) {
                prop_assert!(out.is_none());
                out = Some(p);
            }
        }
        prop_assert_eq!(out.unwrap(), payload);
    }

    /// Corrupting any single header byte makes the header undecodable
    /// (checksum) or changes no accepted-field silently.
    #[test]
    fn ipv4_header_corruption_detected(pos in 0usize..20, mask in 1u8..=255) {
        let h = Ipv4Header {
            src: IpAddr::for_node(1),
            dst: IpAddr::for_node(2),
            proto: IpProto::Tcp,
            ident: 7,
            frag_offset: 0,
            more_fragments: false,
            ttl: 64,
            payload_len: 0,
        };
        let mut wire = h.encode().to_vec();
        wire[pos] ^= mask;
        match Ipv4Header::decode(&Bytes::from(wire)) {
            None => {} // rejected: good
            Some((parsed, _)) => {
                // The only acceptable parse is the original (i.e. the flip
                // hit a bit the checksum catches as... it cannot: any
                // single flip must be caught).
                prop_assert!(false, "corrupted header accepted: {parsed:?}");
            }
        }
    }
}
