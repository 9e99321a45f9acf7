//! The 12-byte CLIC header.
//!
//! §3.1: CLIC uses the level-1 ("pure Ethernet") 14-byte header, then adds
//! its own 12-byte header indicating "whether the packet is an MPI packet,
//! an internal packet, a kernel function packet, etc.". Layout used here:
//!
//! ```text
//!  0        1        2        3
//! +--------+--------+-----------------+
//! |CE|ptype| flags  | channel (u16be) |
//! +--------+--------+-----------------+
//! |        sequence number (u32be)    |
//! +-----------------------------------+
//! |        payload length (u32be)     |
//! +-----------------------------------+
//! ```
//!
//! The explicit length is required because Ethernet pads short frames to
//! the 64-byte minimum and the padding is indistinguishable from payload at
//! the receiver.
//!
//! Packet types occupy only the low 6 bits of byte 0 ([`PTYPE_MASK`]); the
//! high bit is the **congestion-experienced (CE) mark** ([`CE_BIT`]). A
//! switch whose output queue is past its mark threshold sets it in flight
//! (the ECN idea applied to the raw-Ethernet CLIC header, which has no IP
//! ECN field to borrow); the receiver echoes the mark on its next
//! cumulative ACK and the sender's congestion window reacts. The bit is
//! zero everywhere unless a switch on the path marks.
//!
//! The first packet of every message carries an additional 8-byte message
//! prefix (`msg id (u32be) | total length (u32be)`) right after the
//! header, and bit 6 of byte 0 ([`MSG_START`]) says so; later fragments
//! are located by sequence continuity on the reliable channel. The sender
//! puts the header, with the prefix when there is one, in the frame's head
//! and the data, uncopied, in its body ([`ClicHeader::head`]); the mark
//! lets [`ClicHeader::decode`] read the prefix with the header wherever
//! the frame splits, one-piece frames (NIC reassembly output) included.
//! `len` counts every byte after the 12-byte header, prefix included, so
//! the wire bytes are those of a payload that begins with the prefix.

use bytes::{BufMut, Bytes, BytesMut};
use clic_ethernet::Frame;

/// CLIC header size on the wire.
pub const CLIC_HEADER: usize = 12;

/// Message prefix size (first fragment only).
pub const MSG_PREFIX: usize = 8;

/// Congestion-experienced mark: the high bit of the header's first byte
/// (the packet type uses only values 1–6, so bit 7 is free). Set by a
/// switch in flight, echoed by the receiver on ACKs.
pub const CE_BIT: u8 = 0x80;

/// Message-start mark: bit 6 of the header's first byte, set on a
/// message's first packet, whose header is followed by the message prefix.
pub const MSG_START: u8 = 0x40;

/// The packet-type bits of the header's first byte.
pub const PTYPE_MASK: u8 = 0x3f;

/// Packet type discriminator (the paper's MPI / internal / kernel-function
/// taxonomy plus the transport-internal types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// Ordinary user message data.
    Data,
    /// Cumulative acknowledgement (`seq` = next expected sequence).
    Ack,
    /// Asynchronous remote write (delivered without a receive call).
    RemoteWrite,
    /// MPI-layer message (MPI-CLIC marks its traffic so profiling tools can
    /// tell it apart; transport semantics equal `Data`).
    Mpi,
    /// CLIC-internal control.
    Internal,
    /// Kernel-function invocation packet.
    KernelFunction,
}

impl PacketType {
    fn to_u8(self) -> u8 {
        match self {
            PacketType::Data => 1,
            PacketType::Ack => 2,
            PacketType::RemoteWrite => 3,
            PacketType::Mpi => 4,
            PacketType::Internal => 5,
            PacketType::KernelFunction => 6,
        }
    }

    fn from_u8(v: u8) -> Option<PacketType> {
        Some(match v {
            1 => PacketType::Data,
            2 => PacketType::Ack,
            3 => PacketType::RemoteWrite,
            4 => PacketType::Mpi,
            5 => PacketType::Internal,
            6 => PacketType::KernelFunction,
            _ => return None,
        })
    }

    /// Data-bearing types that travel on the reliable channel.
    pub fn is_data_bearing(self) -> bool {
        matches!(
            self,
            PacketType::Data
                | PacketType::RemoteWrite
                | PacketType::Mpi
                | PacketType::KernelFunction
        )
    }
}

/// Header flag bits.
///
/// Bits 0–2 are boolean flags; bits 3–7 carry the 5-bit session epoch
/// (see [`epoch_bits`]): `0` means "epoch unknown / guard off", values
/// `1..=31` are the sender's view of the session incarnation, wrapping
/// modulo 31. Restart frequencies are bounded by the peer-dead timeout, so
/// a 31-value space cannot alias within one flow's lifetime.
pub mod flags {
    /// Sender requests delivery confirmation for the message this packet
    /// completes.
    pub const CONFIRM: u8 = 0b0000_0001;
    /// Best-effort packet outside the reliable window (Ethernet
    /// multicast/broadcast).
    pub const BEST_EFFORT: u8 = 0b0000_0010;
    /// This packet is a retransmission.
    pub const RETRANSMIT: u8 = 0b0000_0100;

    /// Bit offset of the epoch field.
    pub const EPOCH_SHIFT: u32 = 3;
    /// Mask of the epoch field (bits 3–7).
    pub const EPOCH_MASK: u8 = 0b1111_1000;

    /// Extract the wire epoch (0 = unknown, 1..=31 otherwise).
    pub fn epoch_bits(flags: u8) -> u8 {
        (flags & EPOCH_MASK) >> EPOCH_SHIFT
    }

    /// Stamp a wire epoch into the flag byte, preserving the boolean bits.
    pub fn with_epoch(flags: u8, epoch: u8) -> u8 {
        debug_assert!(epoch <= 31, "wire epoch is a 5-bit field");
        (flags & !EPOCH_MASK) | (epoch << EPOCH_SHIFT)
    }
}

/// Payload tags of `PacketType::Internal` control packets. Control packets
/// carry exactly one payload byte selecting the sub-kind; they never enter
/// the reliable window (`seq` is unused) and are safe to lose.
pub mod control {
    /// Liveness probe: "are you there, and which epoch are you?". Answered
    /// by [`PONG`].
    pub const PROBE: u8 = 1;
    /// Session reset: the receiver saw data from a stale epoch (pre-crash
    /// sequence space) and has no state for it. The sender tears the flow
    /// down with `ClicError::StaleEpoch`.
    pub const RESET: u8 = 2;
    /// Probe response, epoch-stamped. Refreshes the prober's liveness clock
    /// and teaches it the responder's epoch; never touches RTT estimation
    /// (Karn-safe by construction).
    pub const PONG: u8 = 3;
}

/// A parsed CLIC header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClicHeader {
    /// Packet type.
    pub ptype: PacketType,
    /// Flag bits (see [`flags`]).
    pub flags: u8,
    /// Communication channel (port).
    pub channel: u16,
    /// Sequence number on the (peer, channel) flow; for ACKs, the
    /// cumulative next-expected sequence.
    pub seq: u32,
    /// Bytes after the 12-byte header: the message prefix, on a message's
    /// first packet, then the data; Ethernet padding excluded.
    pub len: u32,
    /// Congestion-experienced mark ([`CE_BIT`]). On data-bearing packets:
    /// a switch queue on the path was past its mark threshold. On ACKs:
    /// the receiver is echoing marks it saw since its last ACK.
    pub ce: bool,
    /// The message prefix `(msg id, total length)` a message's first packet
    /// carries ([`MSG_START`]); `None` on every other packet.
    pub msg: Option<(u32, u32)>,
}

impl ClicHeader {
    /// Serialize the fixed 12-byte header.
    pub fn encode(&self) -> [u8; CLIC_HEADER] {
        let mut out = [0u8; CLIC_HEADER];
        out[0] = self.ptype.to_u8()
            | if self.ce { CE_BIT } else { 0 }
            | if self.msg.is_some() { MSG_START } else { 0 };
        out[1] = self.flags;
        out[2..4].copy_from_slice(&self.channel.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.len.to_be_bytes());
        out
    }

    /// The frame head a packet with this header sends: the 12 bytes, then
    /// the message prefix on a message's first packet.
    pub fn head(&self) -> Bytes {
        let mut head = BytesMut::with_capacity(CLIC_HEADER + MSG_PREFIX);
        head.put_slice(&self.encode());
        if let Some((msg_id, total)) = self.msg {
            head.put_slice(&encode_msg_prefix(msg_id, total));
        }
        head.freeze()
    }

    /// Parse a frame's header (with the message prefix, when marked) and
    /// the data that follows, tolerating Ethernet minimum-frame padding
    /// after it. The data is the frame's body, or a slice of it, not a
    /// copy.
    ///
    /// ACKs are the exception: they carry no payload, and their `len`
    /// field is repurposed as the receiver's advertised window in packets
    /// (0 when no budget is configured) — so for `PacketType::Ack` the
    /// payload is always empty and `len` is not a byte count.
    pub fn decode(frame: &Frame) -> Option<(ClicHeader, Bytes)> {
        let first = *frame.head.first().or(frame.body.first())?;
        if first & MSG_START == 0 {
            let (buf, rest): ([u8; CLIC_HEADER], _) = frame.split_header()?;
            ClicHeader::parse(&buf, None, rest)
        } else {
            let (buf, rest): ([u8; CLIC_HEADER + MSG_PREFIX], _) = frame.split_header()?;
            let msg = decode_msg_prefix(&buf[CLIC_HEADER..]);
            ClicHeader::parse(&buf[..CLIC_HEADER], msg, rest)
        }
    }

    /// The 12-byte header in `buf`, its message prefix `msg` already read,
    /// and the data `rest` holds by its `len`.
    fn parse(buf: &[u8], msg: Option<(u32, u32)>, rest: Bytes) -> Option<(ClicHeader, Bytes)> {
        let ptype = PacketType::from_u8(buf[0] & PTYPE_MASK)?;
        let header = ClicHeader {
            ptype,
            flags: buf[1],
            channel: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            len: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            ce: buf[0] & CE_BIT != 0,
            msg,
        };
        if header.ptype == PacketType::Ack {
            return Some((header, Bytes::new()));
        }
        let prefix = if msg.is_some() { MSG_PREFIX } else { 0 };
        let data = (header.len as usize).checked_sub(prefix)?;
        if rest.len() < data {
            return None;
        }
        Some((header, rest.slice(..data)))
    }
}

/// Encode the 8-byte message prefix.
pub fn encode_msg_prefix(msg_id: u32, total_len: u32) -> [u8; MSG_PREFIX] {
    let mut out = [0u8; MSG_PREFIX];
    out[0..4].copy_from_slice(&msg_id.to_be_bytes());
    out[4..8].copy_from_slice(&total_len.to_be_bytes());
    out
}

/// Decode the message prefix from the front of a first-fragment payload.
pub fn decode_msg_prefix(buf: &[u8]) -> Option<(u32, u32)> {
    if buf.len() < MSG_PREFIX {
        return None;
    }
    Some((
        u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]),
        u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clic_ethernet::{EtherType, MacAddr};

    /// A one-piece CLIC frame holding `wire`.
    fn frame(wire: &Bytes) -> Frame {
        let (a, b) = (MacAddr::for_node(2, 0), MacAddr::for_node(1, 0));
        Frame::new(a, b, EtherType::CLIC, wire.clone())
    }

    #[test]
    fn header_is_exactly_12_bytes() {
        assert_eq!(CLIC_HEADER, 12);
        let h = ClicHeader {
            ptype: PacketType::Data,
            flags: flags::CONFIRM,
            channel: 7,
            seq: 42,
            len: 0,
            ce: false,
            msg: None,
        };
        assert_eq!(h.encode().len(), 12);
    }

    #[test]
    fn roundtrip_all_types() {
        for ptype in [
            PacketType::Data,
            PacketType::Ack,
            PacketType::RemoteWrite,
            PacketType::Mpi,
            PacketType::Internal,
            PacketType::KernelFunction,
        ] {
            let h = ClicHeader {
                ptype,
                flags: 0b101,
                channel: 0xbeef,
                seq: 0xdead_0001,
                len: 4,
                ce: false,
                msg: None,
            };
            let mut wire = h.encode().to_vec();
            wire.extend_from_slice(&[9, 8, 7, 6]);
            let wire = Bytes::from(wire);
            let (parsed, payload) = ClicHeader::decode(&frame(&wire)).unwrap();
            assert_eq!(parsed, h);
            if ptype == PacketType::Ack {
                // ACK `len` is the advertised window, not a payload length.
                assert!(payload.is_empty());
            } else {
                assert_eq!(&payload[..], &[9, 8, 7, 6]);
                // The payload is a view into the frame, not a copy.
                assert_eq!(payload.as_ptr(), wire[CLIC_HEADER..].as_ptr());
            }
        }
    }

    #[test]
    fn ack_len_is_window_not_payload() {
        // A minimum-size Ethernet frame carrying an ACK that advertises a
        // 64-packet window: decode must not demand 64 payload bytes.
        let h = ClicHeader {
            ptype: PacketType::Ack,
            flags: 0,
            channel: 3,
            seq: 17,
            len: 64,
            ce: false,
            msg: None,
        };
        let mut wire = h.encode().to_vec();
        wire.resize(46, 0); // Ethernet min-payload padding only
        let (parsed, payload) = ClicHeader::decode(&frame(&Bytes::from(wire))).unwrap();
        assert_eq!(parsed.len, 64);
        assert!(payload.is_empty());
    }

    #[test]
    fn epoch_rides_in_the_flag_high_bits() {
        let base = flags::CONFIRM | flags::RETRANSMIT;
        for epoch in [0u8, 1, 17, 31] {
            let f = flags::with_epoch(base, epoch);
            assert_eq!(flags::epoch_bits(f), epoch);
            // The boolean bits survive the stamp...
            assert_eq!(f & flags::CONFIRM, flags::CONFIRM);
            assert_eq!(f & flags::RETRANSMIT, flags::RETRANSMIT);
            assert_eq!(f & flags::BEST_EFFORT, 0);
            // ...and restamping replaces rather than accumulates.
            assert_eq!(flags::epoch_bits(flags::with_epoch(f, 2)), 2);
        }
    }

    #[test]
    fn decode_strips_ethernet_padding() {
        let h = ClicHeader {
            ptype: PacketType::Data,
            flags: 0,
            channel: 1,
            seq: 0,
            len: 3,
            ce: false,
            msg: None,
        };
        let mut wire = h.encode().to_vec();
        wire.extend_from_slice(&[1, 2, 3]);
        wire.resize(46, 0); // Ethernet min-payload padding
        let (_, payload) = ClicHeader::decode(&frame(&Bytes::from(wire))).unwrap();
        assert_eq!(&payload[..], &[1, 2, 3]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ClicHeader::decode(&frame(&Bytes::from_static(&[1, 2, 3]))).is_none()); // too short
        let mut wire = ClicHeader {
            ptype: PacketType::Data,
            flags: 0,
            channel: 0,
            seq: 0,
            len: 100, // claims more payload than present
            ce: false,
            msg: None,
        }
        .encode()
        .to_vec();
        wire.extend_from_slice(&[0; 10]);
        assert!(ClicHeader::decode(&frame(&Bytes::from(wire))).is_none());
        let mut bad_type = vec![0u8; 12];
        bad_type[0] = 99;
        assert!(ClicHeader::decode(&frame(&Bytes::from(bad_type))).is_none());
    }

    #[test]
    fn msg_prefix_roundtrip() {
        let enc = encode_msg_prefix(12345, 1 << 20);
        let (id, len) = decode_msg_prefix(&enc).unwrap();
        assert_eq!(id, 12345);
        assert_eq!(len, 1 << 20);
        assert!(decode_msg_prefix(&enc[..4]).is_none());
    }

    #[test]
    fn ce_mark_rides_the_ptype_high_bit() {
        let h = ClicHeader {
            ptype: PacketType::Data,
            flags: flags::CONFIRM,
            channel: 9,
            seq: 5,
            len: 2,
            ce: true,
            msg: None,
        };
        let mut wire = h.encode().to_vec();
        assert_eq!(wire[0], 1 | CE_BIT);
        wire.extend_from_slice(&[0xaa, 0xbb]);
        let (parsed, payload) = ClicHeader::decode(&frame(&Bytes::from(wire))).unwrap();
        assert_eq!(parsed, h);
        assert!(parsed.ce);
        assert_eq!(&payload[..], &[0xaa, 0xbb]);
        // Unmarked encodings are bit-identical to the pre-CE wire format.
        let mut clean = h;
        clean.ce = false;
        assert_eq!(clean.encode()[0], 1);
        // A marked byte with a garbage low ptype still rejects.
        let mut bad = vec![0u8; 12];
        bad[0] = CE_BIT | 99;
        assert!(ClicHeader::decode(&frame(&Bytes::from(bad))).is_none());
    }

    #[test]
    fn data_bearing_classification() {
        assert!(PacketType::Data.is_data_bearing());
        assert!(PacketType::RemoteWrite.is_data_bearing());
        assert!(PacketType::Mpi.is_data_bearing());
        assert!(!PacketType::Ack.is_data_bearing());
        assert!(!PacketType::Internal.is_data_bearing());
    }
}
