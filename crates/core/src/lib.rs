//! # clic-core — the CLIC lightweight protocol
//!
//! The paper's contribution: a reliable, kernel-resident transport that
//! replaces TCP/IP for intra-cluster traffic over (Gigabit) Ethernet,
//! implemented here against the `clic-os` kernel and `clic-hw` NIC models.
//!
//! Layout mirrors §3 of the paper:
//!
//! * [`header`] — the 12-byte CLIC header carried directly over a level-1
//!   Ethernet header (no LLC, no IP): packet type (MPI / internal /
//!   kernel-function / data / ack / remote-write), channel, sequence
//!   number, length, flags.
//! * [`config`] — protocol knobs: 0-copy vs 1-copy send path, send window,
//!   ACK policy, retransmission timeout, channel bonding width.
//! * [`reliable`] — pure sliding-window machinery (sender window, receiver
//!   in-order delivery with out-of-order buffering, cumulative ACKs),
//!   unit-testable without a simulator.
//! * [`module`] — `CLIC_MODULE`: the kernel module inserted next to the
//!   standard stack. Implements the send path of Figure 3 (system call →
//!   header composition → SK_BUFF → unmodified driver → bus-master DMA,
//!   with staging to system memory when the NIC cannot take the packet) and
//!   the receive path (driver → bottom half → CLIC_MODULE → user memory,
//!   or the direct-call variant of Figure 8b), plus reliability,
//!   remote writes, intra-node delivery, Ethernet multicast and channel
//!   bonding.
//! * [`api`] — the user-process view: ports with blocking receive, sends
//!   and remote writes.

#![allow(clippy::type_complexity)]
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod config;
pub mod header;
pub mod module;
pub mod reliable;

pub use api::{ClicPort, RecvMsg};
pub use config::{ClicConfig, ClicCosts, CongestionConfig, CongestionMode};
pub use header::{ClicHeader, PacketType, CE_BIT, CLIC_HEADER, MSG_PREFIX};
pub use module::{ClicError, ClicModule, ClicStats, SendOptions};
