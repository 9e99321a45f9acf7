//! # clic-mpi — MPI-like and PVM-like message layers
//!
//! The middleware of Figure 6. The paper evaluates four stacks: raw CLIC,
//! MPI over CLIC ("an efficient LAM-MPI implementation on top of CLIC has
//! been developed", §5), MPI over TCP/IP, and PVM over TCP/IP. We build an
//! MPI-like point-to-point layer over a [`transport::Transport`] trait with
//! CLIC and TCP backends, plus a PVM-like layer whose explicit pack/unpack
//! staging copies put its curve below MPI-TCP, as in the paper.
//!
//! * [`transport`] — the backend abstraction + `ClicTransport`,
//!   `TcpTransport`. A message travels as the layer's header and the
//!   body apart, so neither layer nor transport copies a message to
//!   frame it.
//! * [`p2p`] — ranks, tags, blocking send/recv with wildcard matching,
//!   posted-receive and unexpected-message queues.
//! * [`pvm`] — PVM-like endpoint with pack/unpack buffer semantics.
//! * [`collectives`] — barrier/broadcast/reduction built on p2p, plus a
//!   [`collectives::CollBackend`] switch that re-routes the same
//!   operations to the NIC-resident combining-tree engine for
//!   NIC-offloaded collectives at cluster scale.

#![allow(clippy::type_complexity)]
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod collectives;
pub mod p2p;
pub mod pvm;
pub mod transport;

pub use collectives::CollBackend;
pub use p2p::{Mpi, MpiMsg, ANY_SOURCE, ANY_TAG};
pub use pvm::Pvm;
pub use transport::{ClicTransport, TcpTransport, Transport};
