//! # clic-tcpip — the TCP/IP baseline stack
//!
//! The comparison stack of Figures 5 and 6: a Linux-2.4-style TCP/IP
//! implementation running over the *same* kernel, driver and NIC models as
//! CLIC, so every difference between the curves comes from the protocol
//! layers — exactly the paper's argument ("the reduction in the number of
//! protocol layers... decreases the software overhead and the number of
//! data copies").
//!
//! * [`tcp`] — [`TcpStack`], the kernel's IPv4 handler. TCP-lite:
//!   three-way handshake, byte sequence numbers, cumulative + delayed
//!   ACKs, sliding window, slow start / congestion avoidance, RTO with
//!   exponential backoff, MSS derived from the device MTU. Checksums are
//!   charged per byte and computed for real. It also does the IP layer's
//!   work, charged per packet as its own CPU task: the static neighbor
//!   table, the IPv4 header, and the drops of packets for another host or
//!   with a bad header. Each packet leaves as two gather entries: a head
//!   holding the IPv4 and TCP headers (and, for a segment that spans two
//!   sends, the earlier send's bytes), and the rest of the payload as it
//!   lies in the socket buffer. A send may itself come in two parts, a
//!   header and a body, and a read may take its first bytes apart as a
//!   header ([`tcp::TcpStack::recv_parts`]), so a message layer frames
//!   its messages without copying them. The receiver copies both headers
//!   out of the frame ([`tcp::decode_packet`]) and takes the data
//!   uncopied; the checksum sums the TCP header and the data's parts in
//!   place.
//! * [`ip`] — the IPv4 header and RFC 1071 checksums, nothing more: every
//!   segment fits the MTU, so there is no fragmentation. The checksums
//!   sum 8 bytes per step, with the values of the 16-bit definition.
//! * [`costs`] — per-layer CPU costs, the calibrated "TCP/IP tax".
//!
//! Address resolution is a static neighbor table injected at install time;
//! ARP adds nothing to the evaluated curves (documented in DESIGN.md).

#![allow(clippy::type_complexity)]
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod costs;
pub mod ip;
pub mod tcp;

pub use costs::TcpIpCosts;
pub use ip::{IpAddr, Ipv4Header};
pub use tcp::{ConnId, TcpStack};
