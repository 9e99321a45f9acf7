//! Ethernet frames and their wire cost.
//!
//! CLIC uses the level-1 ("pure Ethernet") header only: 6 B destination,
//! 6 B source, 2 B type — 14 bytes, exactly as §3.1 of the paper describes.
//! Frames carry real payload bytes so end-to-end integrity can be asserted
//! in tests; the simulator passes `Frame` values around directly, so the
//! wire image is only ever sized, never serialized.
//!
//! A frame's payload is a two-part gather list, as the NIC's
//! scatter-gather DMA reads it: [`Frame::head`], the protocol header the
//! sender composed, then [`Frame::body`], the data, shared by reference
//! with whoever owns it (user memory on CLIC's 0-copy path, a socket or
//! staging buffer otherwise). The wire image is `head` followed by `body`;
//! sizes and wire time count both, and where the split falls changes
//! nothing a receiver sees. Receivers read a header through
//! [`Frame::split_header`], which copies the header bytes out and returns
//! the data behind them without copying it: a layer above may have put
//! its own header in the head behind the protocol's (an MPI envelope
//! behind CLIC's, or a TCP segment's earlier bytes), and those bytes come
//! back as the first of two [`Parts`], the body as the second. Frames
//! built in one piece (collective messages) have an empty head.

use crate::mac::{EtherType, MacAddr};
use bytes::{Bytes, Parts};
use clic_sim::SimDuration;

/// Level-1 Ethernet header: dst(6) + src(6) + type(2).
pub const ETH_HEADER: usize = 14;
/// Frame check sequence.
pub const ETH_CRC: usize = 4;
/// Preamble + start-of-frame delimiter, on the wire before each frame.
pub const ETH_PREAMBLE: usize = 8;
/// Minimum inter-frame gap, in byte times.
pub const ETH_IFG: usize = 12;
/// Minimum payload (frames are padded up to the 64-byte minimum frame).
pub const ETH_MIN_PAYLOAD: usize = 46;

/// An Ethernet frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination station.
    pub dst: MacAddr,
    /// Source station.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// First part of the payload: the protocol header (e.g. the 12-byte
    /// CLIC header), empty for a frame built in one piece.
    pub head: Bytes,
    /// Second part of the payload: the data behind the header, shared with
    /// its owner, never copied to build the frame.
    pub body: Bytes,
    /// Out-of-band instrumentation: pipeline-trace id (0 = untraced). Not
    /// part of the wire image; carried across the simulated wire so the
    /// receive side can attribute its stages to the same packet (Figure 7).
    pub trace: u64,
    /// Out-of-band fault-injection marker: the link flipped bits in this
    /// frame, so its FCS no longer matches. The receiving NIC discards it
    /// on FCS verification (the wire time was still paid). Not part of
    /// the wire image — real corruption would change the CRC itself.
    pub fcs_corrupt: bool,
}

impl Frame {
    /// Build a frame whose payload is one buffer (an empty head). MTU
    /// enforcement happens at the NIC, which knows its configured MTU.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, body: Bytes) -> Frame {
        Frame::gather(dst, src, ethertype, Bytes::new(), body)
    }

    /// Build a frame from a protocol header and the data behind it, each
    /// taken as it is.
    pub fn gather(
        dst: MacAddr,
        src: MacAddr,
        ethertype: EtherType,
        head: Bytes,
        body: Bytes,
    ) -> Frame {
        Frame {
            dst,
            src,
            ethertype,
            head,
            body,
            trace: 0,
            fcs_corrupt: false,
        }
    }

    /// Tag the frame with a pipeline-trace id.
    pub fn with_trace(mut self, id: u64) -> Frame {
        self.trace = id;
        self
    }

    /// Payload length: head plus body.
    pub fn payload_len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// The first `N` payload bytes, a protocol header, copied out by value,
    /// and the payload bytes after them; `None` when the payload is
    /// shorter than `N`.
    ///
    /// The rest is two [`Parts`] and copies neither: what the head holds
    /// past the header (nothing when the head holds no more than the
    /// header, as for a protocol that puts exactly its header there and
    /// for a one-piece frame), then `body` itself or a slice of it.
    pub fn split_header<const N: usize>(&self) -> Option<([u8; N], Parts)> {
        Parts::new(self.head.clone(), self.body.clone()).split_header()
    }

    /// Bytes of the frame proper: header + padded payload + CRC.
    pub fn frame_bytes(&self) -> usize {
        ETH_HEADER + self.payload_len().max(ETH_MIN_PAYLOAD) + ETH_CRC
    }

    /// Bytes the frame occupies on the wire, including preamble and IFG.
    /// This is what divides into link bandwidth to give serialization time —
    /// the per-frame overhead that makes jumbo frames pay off.
    pub fn wire_bytes(&self) -> usize {
        ETH_PREAMBLE + self.frame_bytes() + ETH_IFG
    }

    /// Serialization time on a link of `bits_per_sec`.
    pub fn wire_time(&self, bits_per_sec: u64) -> SimDuration {
        SimDuration::for_bytes(self.wire_bytes() as u64, bits_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_with_payload(len: usize) -> Frame {
        Frame::new(
            MacAddr::for_node(2, 0),
            MacAddr::for_node(1, 0),
            EtherType::CLIC,
            Bytes::from(vec![0xabu8; len]),
        )
    }

    #[test]
    fn minimum_frame_is_64_bytes_plus_overhead() {
        let f = frame_with_payload(1);
        assert_eq!(f.frame_bytes(), 64);
        assert_eq!(f.wire_bytes(), 64 + ETH_PREAMBLE + ETH_IFG);
    }

    #[test]
    fn standard_mtu_frame_sizes() {
        let f = frame_with_payload(1500);
        assert_eq!(f.frame_bytes(), 1518);
        assert_eq!(f.wire_bytes(), 1538);
    }

    #[test]
    fn jumbo_frame_sizes() {
        let f = frame_with_payload(9000);
        assert_eq!(f.frame_bytes(), 9018);
        assert_eq!(f.wire_bytes(), 9038);
    }

    #[test]
    fn wire_time_at_gigabit() {
        // 1538 wire bytes @1 Gb/s = 12.304 us — the paper's "one interrupt
        // every ~12 microseconds" for back-to-back MTU-1500 frames.
        let f = frame_with_payload(1500);
        let t = f.wire_time(1_000_000_000);
        assert_eq!(t, SimDuration::from_ns(12_304));
    }
}
