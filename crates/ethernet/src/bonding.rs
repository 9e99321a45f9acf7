//! Channel bonding support.
//!
//! The paper (§5) notes CLIC "allows the use of several network cards to
//! increase the communication bandwidth when a switch is used to build the
//! network (channel bonding)". CLIC stripes packets over the node's NICs in
//! round-robin order; this module provides the selector. Reordering
//! introduced by striping is absorbed by CLIC's sequence numbers.
//!
//! [`FlowHash`] is the stateless sibling of [`RoundRobin`]: instead of
//! cycling, it hashes an identifying key to a channel index. The topology
//! layer ([`crate::topology`]) uses it for ECMP-style trunk selection in
//! multi-switch fabrics, where the choice must be a pure function of the
//! flow (so runs are deterministic and packets of one flow never split
//! across paths).

/// A round-robin index selector over `width` channels.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    width: usize,
    next: usize,
}

impl RoundRobin {
    /// Selector over `width` channels (`width >= 1`).
    pub fn new(width: usize) -> RoundRobin {
        assert!(width >= 1, "bonding width must be at least 1");
        RoundRobin { width, next: 0 }
    }

    /// The next channel index.
    pub fn next_index(&mut self) -> usize {
        let i = self.next;
        self.next = (self.next + 1) % self.width;
        i
    }
}

/// A stateless hash selector over `width` channels.
///
/// Where [`RoundRobin`] spreads *successive* packets, `FlowHash` pins a
/// *key* (for ECMP: the destination MAC plus the deciding switch's index)
/// to one channel forever. The hash is FNV-1a, fixed for all time — the
/// selection is part of the determinism contract, not a tuning knob.
///
/// ```
/// use clic_ethernet::bonding::FlowHash;
///
/// let ecmp = FlowHash::new(4);
/// // Same key, same channel — on every call, every run, every machine.
/// assert_eq!(ecmp.index(b"host-17"), ecmp.index(b"host-17"));
/// // Different keys spread across the width.
/// let picks: Vec<usize> = (0u8..16).map(|k| ecmp.index(&[k])).collect();
/// assert!(picks.iter().any(|&p| p != picks[0]));
/// assert!(picks.iter().all(|&p| p < 4));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FlowHash {
    width: usize,
}

impl FlowHash {
    /// Selector over `width` channels (`width >= 1`).
    pub fn new(width: usize) -> FlowHash {
        assert!(width >= 1, "bonding width must be at least 1");
        FlowHash { width }
    }

    /// The channel index for `key` (FNV-1a over the bytes, mod width).
    pub fn index(&self, key: &[u8]) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.width as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_in_order() {
        let mut rr = RoundRobin::new(3);
        let picks: Vec<usize> = (0..7).map(|_| rr.next_index()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn width_one_always_zero() {
        let mut rr = RoundRobin::new(1);
        assert_eq!(rr.next_index(), 0);
        assert_eq!(rr.next_index(), 0);
    }

    #[test]
    fn fair_distribution() {
        let mut rr = RoundRobin::new(4);
        let mut counts = [0u32; 4];
        for _ in 0..400 {
            counts[rr.next_index()] += 1;
        }
        assert_eq!(counts, [100; 4]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_width_rejected() {
        RoundRobin::new(0);
    }

    #[test]
    fn flow_hash_is_stable_and_in_range() {
        let fh = FlowHash::new(3);
        for k in 0u32..64 {
            let a = fh.index(&k.to_be_bytes());
            let b = fh.index(&k.to_be_bytes());
            assert_eq!(a, b);
            assert!(a < 3);
        }
    }

    #[test]
    fn flow_hash_spreads_keys() {
        let fh = FlowHash::new(4);
        let mut counts = [0u32; 4];
        for k in 0u32..400 {
            counts[fh.index(&k.to_be_bytes())] += 1;
        }
        // Not a statistical test — just "no channel starves" on a simple
        // ascending key set, which is what ECMP route spreading needs.
        assert!(counts.iter().all(|&c| c > 40), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn flow_hash_zero_width_rejected() {
        FlowHash::new(0);
    }
}
