//! Sliding-window reliability machinery (pure logic).
//!
//! CLIC bridges the gap the paper's introduction describes: applications
//! need in-order reliable delivery over a network with "arbitrary delivery
//! order, limited fault-handling, and finite buffering". Each
//! (peer, channel) pair runs an independent flow: the sender keeps a
//! bounded window of unacknowledged packets; the receiver delivers in
//! sequence order, buffering out-of-order arrivals (which also absorbs the
//! reordering introduced by channel bonding) and answering with cumulative
//! ACKs.
//!
//! This module is deliberately simulator-free so the protocol invariants
//! can be unit- and property-tested in isolation; `module.rs` drives it
//! from the event loop.

use crate::header::ClicHeader;
use bytes::Bytes;
use clic_sim::SimTime;
use std::collections::BTreeMap;

/// A packet the sender must be able to retransmit.
#[derive(Debug, Clone)]
pub struct InflightPacket {
    /// Header as originally sent.
    pub header: ClicHeader,
    /// Payload (header-exclusive).
    pub payload: Bytes,
    /// How many times this packet has been retransmitted.
    pub retries: u32,
    /// When the packet first entered the network — the RTT sample base.
    /// Karn's rule: only packets with `retries == 0` yield RTT samples,
    /// since a retransmitted packet's ACK is ambiguous.
    pub sent_at: SimTime,
}

/// What a cumulative ACK did to the send window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckSummary {
    /// Packets newly acknowledged (0 for stale/duplicate ACKs).
    pub acked: usize,
    /// Send time of the newest acknowledged packet that was never
    /// retransmitted — the RTT sample per Karn's rule — or `None` when
    /// every newly acked packet had been retransmitted.
    pub clean_sent_at: Option<SimTime>,
}

/// Sender side of a flow.
#[derive(Debug)]
pub struct SendWindow {
    next_seq: u32,
    base: u32,
    capacity: usize,
    inflight: BTreeMap<u32, InflightPacket>,
}

impl SendWindow {
    /// A window admitting `capacity` unacknowledged packets.
    pub fn new(capacity: usize) -> SendWindow {
        assert!(capacity > 0);
        SendWindow {
            next_seq: 0,
            base: 0,
            capacity,
            inflight: BTreeMap::new(),
        }
    }

    /// True when another packet may enter the network.
    // lint:allow(dead-fn, reason="crates/core/tests/props.rs reads it")
    pub fn can_send(&self) -> bool {
        self.inflight.len() < self.capacity
    }

    /// Allocate the next sequence number.
    pub fn alloc_seq(&mut self) -> u32 {
        let s = self.next_seq;
        // lint:allow(time-overflow, reason="u32 sequence space; a single flow never sends 2^32 packets in one experiment")
        self.next_seq += 1;
        s
    }

    /// Record a packet as in flight at time `now`. Panics on duplicate
    /// sequence.
    pub fn on_sent(&mut self, header: ClicHeader, payload: Bytes, now: SimTime) {
        let prev = self.inflight.insert(
            header.seq,
            InflightPacket {
                header,
                payload,
                retries: 0,
                sent_at: now,
            },
        );
        assert!(prev.is_none(), "sequence {} sent twice", header.seq);
    }

    /// Apply a cumulative ACK (`upto` = receiver's next expected). Returns
    /// how many packets were newly acknowledged plus the RTT-sample basis
    /// (Karn's rule: the newest acked packet never retransmitted).
    pub fn ack(&mut self, upto: u32) -> AckSummary {
        if upto <= self.base {
            return AckSummary {
                acked: 0,
                clean_sent_at: None,
            };
        }
        let mut acked = 0;
        let mut clean_sent_at = None;
        // Everything below `upto` retires in one split: keep the >= upto
        // tail, consume the acked prefix in ascending order.
        let kept = self.inflight.split_off(&upto);
        let retired = std::mem::replace(&mut self.inflight, kept);
        for (_seq, p) in retired {
            acked += 1;
            if p.retries == 0 {
                clean_sent_at = Some(p.sent_at);
            }
        }
        self.base = upto;
        AckSummary {
            acked,
            clean_sent_at,
        }
    }

    /// Oldest unacknowledged sequence (the window base).
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Packets currently unacknowledged.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Payload bytes currently unacknowledged (timeline instrumentation).
    pub fn inflight_bytes(&self) -> u64 {
        self.inflight.values().map(|p| p.payload.len() as u64).sum()
    }

    /// True when every sent packet has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Iterate unacknowledged packets in sequence order, bumping their
    /// retry counters — the retransmission set on timeout.
    pub fn take_retransmit_set(&mut self) -> Vec<InflightPacket> {
        self.inflight
            .values_mut()
            .map(|p| {
                p.retries += 1;
                p.clone()
            })
            .collect()
    }

    /// Largest retry count among inflight packets (0 when none).
    pub fn max_retries(&self) -> u32 {
        self.inflight.values().map(|p| p.retries).max().unwrap_or(0)
    }

    /// Take just the window base for fast retransmit (triggered by
    /// duplicate ACKs naming it). Bumps its retry counter; `None` when
    /// nothing is in flight.
    pub fn retransmit_base(&mut self) -> Option<InflightPacket> {
        let p = self.inflight.values_mut().next()?;
        p.retries += 1;
        Some(p.clone())
    }
}

/// Result of offering a packet to the receive window.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvOutcome {
    /// In-order: this packet (and any buffered successors) deliver now, in
    /// sequence order.
    Deliver(Vec<(ClicHeader, Bytes)>),
    /// Already delivered — sender missed an ACK; re-ACK immediately.
    Duplicate,
    /// Out of order: buffered awaiting the gap.
    Buffered,
    /// Out-of-order buffer full: dropped (sender's timeout recovers).
    Overflow,
}

/// Receiver side of a flow.
#[derive(Debug)]
pub struct RecvWindow {
    expected: u32,
    ooo: BTreeMap<u32, (ClicHeader, Bytes)>,
    ooo_limit: usize,
}

impl RecvWindow {
    /// A receive window buffering at most `ooo_limit` out-of-order packets.
    pub fn new(ooo_limit: usize) -> RecvWindow {
        RecvWindow {
            expected: 0,
            ooo: BTreeMap::new(),
            ooo_limit,
        }
    }

    /// The cumulative ACK value to advertise (next expected sequence).
    pub fn ack_value(&self) -> u32 {
        self.expected
    }

    /// Out-of-order packets currently buffered.
    pub fn buffered(&self) -> usize {
        self.ooo.len()
    }

    /// Payload bytes currently held in the out-of-order buffer — the
    /// receive-buffer budget charges these against `recv_budget_bytes`.
    pub fn buffered_bytes(&self) -> usize {
        self.ooo.values().map(|(_, payload)| payload.len()).sum()
    }

    /// Offer an arriving data packet.
    pub fn offer(&mut self, header: ClicHeader, payload: Bytes) -> RecvOutcome {
        if header.seq < self.expected {
            return RecvOutcome::Duplicate;
        }
        if header.seq > self.expected {
            if self.ooo.contains_key(&header.seq) {
                return RecvOutcome::Duplicate;
            }
            if self.ooo.len() >= self.ooo_limit {
                return RecvOutcome::Overflow;
            }
            self.ooo.insert(header.seq, (header, payload));
            return RecvOutcome::Buffered;
        }
        // In order: deliver it plus any contiguous run from the buffer.
        let mut out = vec![(header, payload)];
        self.expected += 1;
        while let Some(entry) = self.ooo.remove(&self.expected) {
            out.push(entry);
            self.expected += 1;
        }
        RecvOutcome::Deliver(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::PacketType;
    use clic_sim::SimDuration;

    fn hdr(seq: u32) -> ClicHeader {
        ClicHeader {
            ptype: PacketType::Data,
            flags: 0,
            channel: 0,
            seq,
            len: 1,
            ce: false,
        }
    }

    fn payload(tag: u8) -> Bytes {
        Bytes::from(vec![tag])
    }

    #[test]
    fn send_window_blocks_at_capacity() {
        let mut w = SendWindow::new(2);
        for _ in 0..2 {
            assert!(w.can_send());
            let s = w.alloc_seq();
            w.on_sent(hdr(s), payload(0), SimTime::ZERO);
        }
        assert!(!w.can_send());
        assert_eq!(w.inflight_len(), 2);
        // Cumulative ack for the first frees one slot.
        assert_eq!(w.ack(1).acked, 1);
        assert!(w.can_send());
        assert_eq!(w.base(), 1);
    }

    #[test]
    fn cumulative_ack_clears_range() {
        let mut w = SendWindow::new(10);
        for _ in 0..5 {
            let s = w.alloc_seq();
            w.on_sent(hdr(s), payload(0), SimTime::ZERO);
        }
        assert_eq!(w.ack(4).acked, 4);
        assert_eq!(w.inflight_len(), 1);
        assert_eq!(w.ack(4).acked, 0, "stale ack is a no-op");
        assert_eq!(w.ack(5).acked, 1);
        assert!(w.all_acked());
    }

    #[test]
    fn old_ack_does_not_regress_base() {
        let mut w = SendWindow::new(10);
        for _ in 0..3 {
            let s = w.alloc_seq();
            w.on_sent(hdr(s), payload(0), SimTime::ZERO);
        }
        w.ack(3);
        assert_eq!(w.base(), 3);
        w.ack(1);
        assert_eq!(w.base(), 3);
    }

    #[test]
    fn retransmit_set_is_ordered_and_counts_retries() {
        let mut w = SendWindow::new(10);
        for _ in 0..3 {
            let s = w.alloc_seq();
            w.on_sent(hdr(s), payload(s as u8), SimTime::ZERO);
        }
        w.ack(1);
        let set = w.take_retransmit_set();
        assert_eq!(set.len(), 2);
        assert_eq!(set[0].header.seq, 1);
        assert_eq!(set[1].header.seq, 2);
        assert!(set.iter().all(|p| p.retries == 1));
        assert_eq!(w.max_retries(), 1);
        w.take_retransmit_set();
        assert_eq!(w.max_retries(), 2);
    }

    #[test]
    fn karn_rule_skips_retransmitted_samples() {
        let mut w = SendWindow::new(10);
        for i in 0..3u64 {
            let s = w.alloc_seq();
            w.on_sent(hdr(s), payload(0), SimTime::ZERO + SimDuration::from_us(i));
        }
        // Seq 0 and 1 time out and are retransmitted; seq 2 stays clean.
        w.take_retransmit_set();
        let fresh = w.alloc_seq();
        w.on_sent(hdr(fresh), payload(0), SimTime::from_us(50));
        // Cumulative ACK covering 0..=2: only seq 2… but it was
        // retransmitted too (take_retransmit_set bumps every inflight).
        let s = w.ack(3);
        assert_eq!(s.acked, 3);
        assert_eq!(s.clean_sent_at, None, "all covered packets retransmitted");
        // The fresh packet yields a sample.
        let s = w.ack(4);
        assert_eq!(s.acked, 1);
        assert_eq!(s.clean_sent_at, Some(SimTime::from_us(50)));
    }

    #[test]
    fn fast_retransmit_takes_only_the_base() {
        let mut w = SendWindow::new(10);
        for _ in 0..3 {
            let s = w.alloc_seq();
            w.on_sent(hdr(s), payload(0), SimTime::ZERO);
        }
        let p = w.retransmit_base().expect("packets in flight");
        assert_eq!(p.header.seq, 0);
        assert_eq!(p.retries, 1);
        assert_eq!(w.max_retries(), 1);
        assert_eq!(w.inflight_len(), 3, "fast retransmit clones, not removes");
        w.ack(3);
        assert!(w.retransmit_base().is_none());
    }

    #[test]
    #[should_panic(expected = "sent twice")]
    fn duplicate_send_panics() {
        let mut w = SendWindow::new(4);
        w.on_sent(hdr(0), payload(0), SimTime::ZERO);
        w.on_sent(hdr(0), payload(0), SimTime::ZERO);
    }

    #[test]
    fn recv_in_order_stream() {
        let mut w = RecvWindow::new(16);
        for seq in 0..4 {
            match w.offer(hdr(seq), payload(seq as u8)) {
                RecvOutcome::Deliver(v) => {
                    assert_eq!(v.len(), 1);
                    assert_eq!(v[0].0.seq, seq);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(w.ack_value(), 4);
    }

    #[test]
    fn recv_buffers_gap_then_flushes() {
        let mut w = RecvWindow::new(16);
        assert_eq!(w.offer(hdr(1), payload(1)), RecvOutcome::Buffered);
        assert_eq!(w.offer(hdr(2), payload(2)), RecvOutcome::Buffered);
        assert_eq!(w.buffered(), 2);
        match w.offer(hdr(0), payload(0)) {
            RecvOutcome::Deliver(v) => {
                let seqs: Vec<u32> = v.iter().map(|(h, _)| h.seq).collect();
                assert_eq!(seqs, vec![0, 1, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(w.ack_value(), 3);
        assert_eq!(w.buffered(), 0);
    }

    #[test]
    fn recv_detects_duplicates() {
        let mut w = RecvWindow::new(16);
        let _ = w.offer(hdr(0), payload(0));
        assert_eq!(w.offer(hdr(0), payload(0)), RecvOutcome::Duplicate);
        assert_eq!(w.offer(hdr(5), payload(5)), RecvOutcome::Buffered);
        assert_eq!(w.offer(hdr(5), payload(5)), RecvOutcome::Duplicate);
    }

    #[test]
    fn recv_overflow_bounded() {
        let mut w = RecvWindow::new(2);
        assert_eq!(w.offer(hdr(1), payload(1)), RecvOutcome::Buffered);
        assert_eq!(w.offer(hdr(2), payload(2)), RecvOutcome::Buffered);
        assert_eq!(w.offer(hdr(3), payload(3)), RecvOutcome::Overflow);
        assert_eq!(w.buffered(), 2);
    }

    #[test]
    fn recv_boundary_at_exactly_ooo_limit() {
        // Pin the off-by-one down: the ooo_limit-th out-of-order packet is
        // the last one that buffers; packet limit+1 overflows; duplicates
        // of buffered packets at the boundary stay Duplicate (not
        // Overflow); and filling the gap drains the entire buffer.
        const LIMIT: usize = 3;
        let mut w = RecvWindow::new(LIMIT);
        for seq in 1..=LIMIT as u32 {
            assert_eq!(
                w.offer(hdr(seq), payload(seq as u8)),
                RecvOutcome::Buffered,
                "packet #{seq} of {LIMIT} must still fit"
            );
        }
        assert_eq!(w.buffered(), LIMIT, "buffer holds exactly ooo_limit");
        assert_eq!(w.buffered_bytes(), LIMIT, "one payload byte per packet");
        assert_eq!(
            w.offer(hdr(LIMIT as u32 + 1), payload(0)),
            RecvOutcome::Overflow,
            "packet limit+1 must overflow"
        );
        assert_eq!(w.buffered(), LIMIT, "overflow does not evict");
        assert_eq!(
            w.offer(hdr(2), payload(2)),
            RecvOutcome::Duplicate,
            "redelivery at a full buffer is a duplicate, not an overflow"
        );
        match w.offer(hdr(0), payload(0)) {
            RecvOutcome::Deliver(v) => {
                let seqs: Vec<u32> = v.iter().map(|(h, _)| h.seq).collect();
                assert_eq!(seqs, vec![0, 1, 2, 3], "gap fill drains the buffer");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(w.ack_value(), LIMIT as u32 + 1);
        assert_eq!(w.buffered(), 0);
        assert_eq!(w.buffered_bytes(), 0);
    }

    #[test]
    fn payload_survives_buffering() {
        let mut w = RecvWindow::new(4);
        let _ = w.offer(hdr(1), Bytes::from_static(b"second"));
        match w.offer(hdr(0), Bytes::from_static(b"first")) {
            RecvOutcome::Deliver(v) => {
                assert_eq!(&v[0].1[..], b"first");
                assert_eq!(&v[1].1[..], b"second");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
