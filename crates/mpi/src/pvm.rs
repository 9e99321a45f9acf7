//! PVM-like message layer.
//!
//! PVM's API packs typed data into a staging buffer (`pvm_pkint`, ...)
//! before `pvm_send`, and unpacks after `pvm_recv`: an extra CPU copy on
//! each side plus heavier per-message bookkeeping than MPI. That is why
//! PVM's curve sits below MPI-on-TCP in Figure 6. We model exactly that:
//! same transport, one extra staged copy per side (charged to the CPU; the
//! host shares the bytes), larger per-message cost. The 8-byte message
//! header (`src rank u32 | tag i32`) is the header part of the transport
//! message and the packed buffer its body, so neither side copies the
//! message to frame it.

use crate::transport::Transport;
use bytes::{Bytes, Parts};
use clic_os::Kernel;
use clic_sim::{Sim, SimDuration};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// The message header: source rank and tag.
const HEADER: usize = 8;

/// A received PVM message.
#[derive(Debug, Clone)]
pub struct PvmMsg {
    /// Source rank ("tid").
    pub src: usize,
    /// Message tag.
    pub tag: i32,
    /// Unpacked payload.
    pub data: Bytes,
}

struct PvmInner {
    pending: VecDeque<PvmMsg>,
    waiting: VecDeque<(i32, i32, Box<dyn FnOnce(&mut Sim, PvmMsg)>)>,
    pack_buf: Option<Bytes>,
}

/// A PVM-like endpoint.
pub struct Pvm {
    kernel: Rc<RefCell<Kernel>>,
    transport: Rc<dyn Transport>,
    per_message: SimDuration,
    inner: Rc<RefCell<PvmInner>>,
}

impl Pvm {
    /// Wrap a transport; installs the delivery handler.
    pub fn new(kernel: &Rc<RefCell<Kernel>>, transport: Rc<dyn Transport>) -> Rc<Pvm> {
        let pvm = Rc::new(Pvm {
            kernel: kernel.clone(),
            transport: transport.clone(),
            per_message: SimDuration::from_ns(3_000),
            inner: Rc::new(RefCell::new(PvmInner {
                pending: VecDeque::new(),
                waiting: VecDeque::new(),
                pack_buf: None,
            })),
        });
        // Weak: the endpoint holds the transport, so a strong one would
        // cycle.
        let p2 = Rc::downgrade(&pvm);
        transport.set_handler(
            HEADER,
            Rc::new(move |sim, src, data| {
                let pvm = p2
                    .upgrade()
                    .expect("PVM endpoint dropped while its transport delivers");
                Pvm::on_message(&pvm, sim, src, data);
            }),
        );
        pvm
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// `pvm_initsend` + `pvm_pk*`: stage `data` into the pack buffer,
    /// charging the pack copy; `done` runs when packing completes. The
    /// pack buffer holds the caller's bytes, shared: the model charges the
    /// copy, and nothing can change the bytes, so the host makes none.
    pub fn pack(self: &Rc<Pvm>, sim: &mut Sim, data: Bytes, done: impl FnOnce(&mut Sim) + 'static) {
        let cost = self
            .kernel
            .borrow()
            .costs
            .copy
            .cost_observed(sim, data.len());
        let pvm = self.clone();
        Kernel::cpu_task(&self.kernel, sim, cost, move |sim| {
            pvm.inner.borrow_mut().pack_buf = Some(data);
            done(sim);
        });
    }

    /// `pvm_send`: ship the packed buffer to `(dst, tag)`.
    pub fn send(self: &Rc<Pvm>, sim: &mut Sim, dst: usize, tag: i32) {
        let data = self
            .inner
            .borrow_mut()
            .pack_buf
            .take()
            .expect("pvm_send without a packed buffer");
        let mut header = [0u8; HEADER];
        header[..4].copy_from_slice(&(self.rank() as u32).to_be_bytes());
        header[4..].copy_from_slice(&tag.to_be_bytes());
        let transport = self.transport.clone();
        Kernel::cpu_task(&self.kernel, sim, self.per_message, move |sim| {
            transport.send(sim, dst, &header, data);
        });
    }

    /// `pvm_recv` + `pvm_upk*`: wait for a message matching `(src, tag)`
    /// (−1 wildcards), charging the unpack copy before `cont`.
    pub fn recv(
        self: &Rc<Pvm>,
        sim: &mut Sim,
        src: i32,
        tag: i32,
        cont: impl FnOnce(&mut Sim, PvmMsg) + 'static,
    ) {
        let pvm = self.clone();
        Kernel::cpu_task(&self.kernel, sim, self.per_message, move |sim| {
            let hit = {
                let mut inner = pvm.inner.borrow_mut();
                inner
                    .pending
                    .iter()
                    .position(|m| (src == -1 || src == m.src as i32) && (tag == -1 || tag == m.tag))
                    .and_then(|i| inner.pending.remove(i))
            };
            match hit {
                Some(msg) => Pvm::unpack_and_deliver(&pvm, sim, msg, Box::new(cont)),
                None => pvm
                    .inner
                    .borrow_mut()
                    .waiting
                    .push_back((src, tag, Box::new(cont))),
            }
        });
    }

    fn unpack_and_deliver(
        pvm: &Rc<Pvm>,
        sim: &mut Sim,
        msg: PvmMsg,
        cont: Box<dyn FnOnce(&mut Sim, PvmMsg)>,
    ) {
        let cost = pvm
            .kernel
            .borrow()
            .costs
            .copy
            .cost_observed(sim, msg.data.len());
        Kernel::cpu_task(&pvm.kernel, sim, cost, move |sim| cont(sim, msg));
    }

    fn on_message(pvm: &Rc<Pvm>, sim: &mut Sim, src: usize, message: Parts) {
        let (header, rest): ([u8; HEADER], _) = message.split_header().expect("runt PVM message");
        let data = rest.join();
        let pvm2 = pvm.clone();
        Kernel::cpu_task(&pvm.kernel, sim, pvm.per_message, move |sim| {
            let env_src = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
            let tag = i32::from_be_bytes([header[4], header[5], header[6], header[7]]);
            assert_eq!(env_src, src);
            let msg = PvmMsg { src, tag, data };
            let waiter = {
                let mut inner = pvm2.inner.borrow_mut();
                let pos = inner.waiting.iter().position(|(s, t, _)| {
                    (*s == -1 || *s == msg.src as i32) && (*t == -1 || *t == msg.tag)
                });
                match pos {
                    Some(i) => inner.waiting.remove(i).map(|(_, _, c)| c),
                    None => {
                        inner.pending.push_back(msg.clone());
                        None
                    }
                }
            };
            if let Some(cont) = waiter {
                Pvm::unpack_and_deliver(&pvm2, sim, msg, cont);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MsgHandler;
    use clic_os::OsCosts;

    /// A transport that carries nothing: packing never reaches it.
    struct Nowhere;

    impl Transport for Nowhere {
        fn rank(&self) -> usize {
            0
        }
        fn size(&self) -> usize {
            1
        }
        fn send(&self, _: &mut Sim, _: usize, _: &[u8], _: Bytes) {}
        fn set_handler(&self, _: usize, _: MsgHandler) {}
        fn ready(&self) -> bool {
            true
        }
    }

    #[test]
    fn pack_charges_the_copy_and_shares_the_bytes() {
        let mut sim = Sim::new(0);
        let kernel = Kernel::new(1, OsCosts::era_2002());
        let pvm = Pvm::new(&kernel, Rc::new(Nowhere));
        let data = Bytes::from(vec![5u8; 4096]);
        pvm.pack(&mut sim, data.clone(), |_| {});
        sim.run();
        let packed = pvm.inner.borrow().pack_buf.clone().expect("packed");
        assert_eq!(packed, data);
        assert_eq!(packed.as_ptr(), data.as_ptr(), "packed as it lies");
        let copies = sim
            .metrics
            .histogram("hw.mem.copy_bytes")
            .map(|h| (h.count(), h.sum()));
        assert_eq!(copies, Some((1, 4096)), "the pack copy is charged");
    }
}
