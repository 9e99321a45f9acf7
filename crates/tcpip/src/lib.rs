//! # clic-tcpip — the TCP/IP baseline stack
//!
//! The comparison stack of Figures 5 and 6: a Linux-2.4-style TCP/IP
//! implementation running over the *same* kernel, driver and NIC models as
//! CLIC, so every difference between the curves comes from the protocol
//! layers — exactly the paper's argument ("the reduction in the number of
//! protocol layers... decreases the software overhead and the number of
//! data copies").
//!
//! * [`ip`] — IPv4: real 20-byte headers with RFC 1071 checksums,
//!   fragmentation + reassembly, TTL, protocol demux.
//! * [`tcp`] — TCP-lite: three-way handshake, byte sequence numbers,
//!   cumulative + delayed ACKs, sliding window, slow start / congestion
//!   avoidance, RTO with exponential backoff, MSS derived from the device
//!   MTU. Checksums are charged per byte and computed for real.
//! * [`costs`] — per-layer CPU costs, the calibrated "TCP/IP tax".
//!
//! Address resolution is a static neighbor table injected at install time;
//! ARP adds nothing to the evaluated curves (documented in DESIGN.md).

#![allow(clippy::type_complexity)]
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod costs;
pub mod ip;
pub mod stack;
pub mod tcp;

pub use costs::TcpIpCosts;
pub use ip::{IpAddr, IpProto, Ipv4Header};
pub use stack::IpLayer;
pub use tcp::{ConnId, TcpStack};
