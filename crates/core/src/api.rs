//! User-process view of CLIC.
//!
//! A process binds a [`ClicPort`] to a channel and gets the primitives
//! the workloads use: asynchronous sends, blocking receives and remote
//! writes, all entering the kernel through ordinary system calls. Sends
//! with confirmation of reception go through [`SendOptions::confirm`] on
//! [`ClicModule::send`].

use crate::header::PacketType;
use crate::module::{ClicModule, SendOptions};
use bytes::Bytes;
use clic_ethernet::MacAddr;
use clic_os::Pid;
use clic_sim::Sim;
use std::cell::RefCell;
use std::rc::Rc;

/// A message delivered to a process.
#[derive(Debug, Clone)]
pub struct RecvMsg {
    /// Sending station.
    pub src: MacAddr,
    /// Channel it arrived on.
    pub channel: u16,
    /// Packet type of the carrying packets.
    pub ptype: PacketType,
    /// The message's header part, as its sender passed it (an MPI
    /// envelope, say), uncopied; empty for a message sent in one part.
    pub head: Bytes,
    /// The message bytes behind the header part: the sender's buffer, or
    /// a slice of it, when the packets that carried them continue one
    /// another in it.
    pub data: Bytes,
}

impl RecvMsg {
    /// Length of the whole message: header part plus data.
    pub fn len(&self) -> usize {
        self.head.len() + self.data.len()
    }

    /// Whether the message is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A process's handle on a CLIC channel.
pub struct ClicPort {
    module: Rc<RefCell<ClicModule>>,
    channel: u16,
}

impl ClicPort {
    /// Bind `channel` for `pid` on this node's CLIC module.
    pub fn bind(module: &Rc<RefCell<ClicModule>>, pid: Pid, channel: u16) -> ClicPort {
        module.borrow_mut().bind(pid, channel);
        ClicPort {
            module: module.clone(),
            channel,
        }
    }

    /// Asynchronous send to (`dst`, `channel`).
    pub fn send(&self, sim: &mut Sim, dst: MacAddr, channel: u16, data: Bytes) {
        ClicModule::send(&self.module, sim, SendOptions::data(dst, channel), data);
    }

    /// Send tagged with a pipeline-trace id (used by the Figure 7
    /// experiment).
    pub fn send_traced(&self, sim: &mut Sim, dst: MacAddr, channel: u16, data: Bytes, trace: u64) {
        let opts = SendOptions {
            trace,
            ..SendOptions::data(dst, channel)
        };
        ClicModule::send(&self.module, sim, opts, data);
    }

    /// Asynchronous remote write into the region registered at
    /// (`dst`, `channel`); the remote process never calls receive.
    pub fn remote_write(&self, sim: &mut Sim, dst: MacAddr, channel: u16, data: Bytes) {
        let opts = SendOptions {
            ptype: PacketType::RemoteWrite,
            ..SendOptions::data(dst, channel)
        };
        ClicModule::send(&self.module, sim, opts, data);
    }

    /// Blocking receive on this port: `cont` runs with the next message,
    /// after this process is woken if it had to wait.
    pub fn recv(&self, sim: &mut Sim, cont: impl FnOnce(&mut Sim, RecvMsg) + 'static) {
        ClicModule::recv(&self.module, sim, self.channel, cont);
    }
}
