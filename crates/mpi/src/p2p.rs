//! MPI-like point-to-point messaging.
//!
//! Blocking-style send/recv plus nonblocking isend/irecv with request
//! handles, tags, wildcard matching, the classic posted-receive /
//! unexpected-message queues, and the **eager/rendezvous** protocol split
//! real MPICH/LAM implementations use: small messages ship immediately
//! (possibly landing in the unexpected queue), large ones announce
//! themselves (RTS), wait for the receiver to match (CTS), then transfer —
//! bounding receiver-side buffering.
//!
//! Wire envelope (16 bytes, ahead of the payload):
//!
//! ```text
//! [ src rank u32 | tag i32 | payload len u32 | kind u8 + token u24 ]
//! ```
//!
//! `kind`: 0 = eager data, 1 = RTS, 2 = CTS, 3 = rendezvous data.

use crate::transport::Transport;
use bytes::{BufMut, Bytes, BytesMut};
use clic_os::Kernel;
use clic_sim::{Sim, SimDuration};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Wildcard source for [`Mpi::recv`].
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag for [`Mpi::recv`].
pub const ANY_TAG: i32 = -1;

/// Envelope prepended to every MPI message.
const ENVELOPE: usize = 16;

const KIND_EAGER: u8 = 0;
const KIND_RTS: u8 = 1;
const KIND_CTS: u8 = 2;
const KIND_RDATA: u8 = 3;

/// A matched, delivered message.
#[derive(Debug, Clone)]
pub struct MpiMsg {
    /// Source rank.
    pub src: usize,
    /// Message tag.
    pub tag: i32,
    /// Payload.
    pub data: Bytes,
}

type RecvCont = Box<dyn FnOnce(&mut Sim, MpiMsg)>;

struct Posted {
    src: i32,
    tag: i32,
    cont: RecvCont,
}

/// Library CPU costs.
#[derive(Debug, Clone, Copy)]
pub struct MpiCosts {
    /// Send-side per message (envelope build, request bookkeeping).
    pub tx_per_message: SimDuration,
    /// Receive-side per message (matching, queue management).
    pub rx_per_message: SimDuration,
}

impl MpiCosts {
    /// LAM-era library overheads on the 1.5 GHz testbed.
    pub fn era_2002() -> MpiCosts {
        MpiCosts {
            tx_per_message: SimDuration::from_ns(1_500),
            rx_per_message: SimDuration::from_ns(1_500),
        }
    }
}

// ---------------------------------------------------------------------
// Requests (nonblocking operations)
// ---------------------------------------------------------------------

type ReqWaiter = Box<dyn FnOnce(&mut Sim, Option<MpiMsg>)>;

struct ReqInner {
    done: bool,
    msg: Option<MpiMsg>,
    waiter: Option<ReqWaiter>,
}

/// Handle of a nonblocking operation ([`Mpi::isend`] / [`Mpi::irecv`]).
#[derive(Clone)]
pub struct Request {
    inner: Rc<RefCell<ReqInner>>,
}

impl Request {
    fn new() -> Request {
        Request {
            inner: Rc::new(RefCell::new(ReqInner {
                done: false,
                msg: None,
                waiter: None,
            })),
        }
    }

    fn complete(&self, sim: &mut Sim, msg: Option<MpiMsg>) {
        let waiter = {
            let mut inner = self.inner.borrow_mut();
            debug_assert!(!inner.done, "request completed twice");
            inner.done = true;
            inner.msg = msg;
            inner.waiter.take()
        };
        if let Some(w) = waiter {
            let msg = self.inner.borrow_mut().msg.take();
            w(sim, msg);
        }
    }

    /// MPI_Test: has the operation completed?
    pub fn test(&self) -> bool {
        self.inner.borrow().done
    }

    /// MPI_Wait: run `cont` when the operation completes (immediately if it
    /// already has). Receives `Some(msg)` for irecv, `None` for isend.
    pub fn wait(&self, sim: &mut Sim, cont: impl FnOnce(&mut Sim, Option<MpiMsg>) + 'static) {
        let mut inner = self.inner.borrow_mut();
        if inner.done {
            let msg = inner.msg.take();
            drop(inner);
            cont(sim, msg);
        } else {
            assert!(inner.waiter.is_none(), "request already has a waiter");
            inner.waiter = Some(Box::new(cont));
        }
    }
}

// ---------------------------------------------------------------------
// The endpoint
// ---------------------------------------------------------------------

struct RtsEntry {
    src: usize,
    tag: i32,
    token: u32,
    arrival: u64,
}

struct MpiInner {
    posted: Vec<Posted>,
    unexpected: VecDeque<(u64, MpiMsg)>,
    pending_rts: Vec<RtsEntry>,
    next_arrival: u64,
    /// Receiver side: rendezvous transfers we have CTS'd, token → cont.
    awaiting_data: BTreeMap<u32, RecvCont>,
    /// Sender side: payloads waiting for CTS, token → (dst, tag, data,
    /// request to complete on hand-off).
    rndv_out: BTreeMap<u32, (usize, i32, Bytes, Request)>,
    next_token: u32,
    sends: u64,
    recvs: u64,
    unexpected_peak: usize,
    rendezvous_started: u64,
}

/// An MPI-like endpoint (one rank).
pub struct Mpi {
    kernel: Rc<RefCell<Kernel>>,
    transport: Rc<dyn Transport>,
    costs: MpiCosts,
    eager_limit: RefCell<usize>,
    inner: Rc<RefCell<MpiInner>>,
}

fn envelope(src: usize, tag: i32, len: usize, kind: u8, token: u32, body: &[u8]) -> Bytes {
    debug_assert!(token < (1 << 24));
    let mut framed = BytesMut::with_capacity(ENVELOPE + body.len());
    framed.put_u32(src as u32);
    framed.put_i32(tag);
    framed.put_u32(len as u32);
    framed.put_u32((u32::from(kind) << 24) | token);
    framed.put_slice(body);
    framed.freeze()
}

impl Mpi {
    /// Wrap a transport into an MPI endpoint; installs the transport
    /// handler.
    pub fn new(kernel: &Rc<RefCell<Kernel>>, transport: Rc<dyn Transport>) -> Rc<Mpi> {
        let mpi = Rc::new(Mpi {
            kernel: kernel.clone(),
            transport: transport.clone(),
            costs: MpiCosts::era_2002(),
            eager_limit: RefCell::new(64 * 1024),
            inner: Rc::new(RefCell::new(MpiInner {
                posted: Vec::new(),
                unexpected: VecDeque::new(),
                pending_rts: Vec::new(),
                next_arrival: 0,
                awaiting_data: BTreeMap::new(),
                rndv_out: BTreeMap::new(),
                next_token: 1,
                sends: 0,
                recvs: 0,
                unexpected_peak: 0,
                rendezvous_started: 0,
            })),
        });
        // Weak: the endpoint holds the transport, so a strong one would
        // cycle.
        let m2 = Rc::downgrade(&mpi);
        transport.set_handler(Rc::new(move |sim, src, data| {
            let mpi = m2
                .upgrade()
                .expect("MPI endpoint dropped while its transport delivers");
            Mpi::on_message(&mpi, sim, src, data);
        }));
        mpi
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Job size.
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Messages sent / received so far.
    pub fn counts(&self) -> (u64, u64) {
        let i = self.inner.borrow();
        (i.sends, i.recvs)
    }

    /// High-water mark of the unexpected-message queue.
    pub fn unexpected_peak(&self) -> usize {
        self.inner.borrow().unexpected_peak
    }

    /// Rendezvous transfers initiated by this endpoint.
    pub fn rendezvous_started(&self) -> u64 {
        self.inner.borrow().rendezvous_started
    }

    /// Adjust the eager/rendezvous threshold (bytes).
    pub fn set_eager_limit(&self, bytes: usize) {
        *self.eager_limit.borrow_mut() = bytes;
    }

    /// Send `data` to `(dst, tag)`: standard mode — eager below the
    /// threshold, rendezvous above it. Fire-and-forget variant of
    /// [`Mpi::isend`].
    pub fn send(self: &Rc<Mpi>, sim: &mut Sim, dst: usize, tag: i32, data: Bytes) {
        let _ = self.isend(sim, dst, tag, data);
    }

    /// Nonblocking send: returns a [`Request`] that completes when the
    /// payload has been handed to the transport (eager) or when the
    /// receiver's CTS arrived and the payload left (rendezvous).
    pub fn isend(self: &Rc<Mpi>, sim: &mut Sim, dst: usize, tag: i32, data: Bytes) -> Request {
        assert!(tag >= 0, "negative tags are reserved");
        let request = Request::new();
        let src = self.rank();
        let eager = data.len() <= *self.eager_limit.borrow();
        self.inner.borrow_mut().sends += 1;
        if eager {
            let framed = envelope(src, tag, data.len(), KIND_EAGER, 0, &data);
            let transport = self.transport.clone();
            let req = request.clone();
            Kernel::cpu_task(&self.kernel, sim, self.costs.tx_per_message, move |sim| {
                transport.send(sim, dst, framed);
                req.complete(sim, None);
            });
        } else {
            // Rendezvous: announce, park the payload, wait for CTS.
            let token = {
                let mut inner = self.inner.borrow_mut();
                let t = inner.next_token;
                inner.next_token = (inner.next_token % 0x00ff_ffff) + 1;
                inner.rendezvous_started += 1;
                inner
                    .rndv_out
                    .insert(t, (dst, tag, data.clone(), request.clone()));
                t
            };
            let rts = envelope(src, tag, data.len(), KIND_RTS, token, &[]);
            let transport = self.transport.clone();
            Kernel::cpu_task(&self.kernel, sim, self.costs.tx_per_message, move |sim| {
                transport.send(sim, dst, rts);
            });
        }
        request
    }

    /// Receive a message matching `(src, tag)` (use [`ANY_SOURCE`] /
    /// [`ANY_TAG`] as wildcards); `cont` runs when it arrives.
    pub fn recv(
        self: &Rc<Mpi>,
        sim: &mut Sim,
        src: i32,
        tag: i32,
        cont: impl FnOnce(&mut Sim, MpiMsg) + 'static,
    ) {
        let mpi = self.clone();
        Kernel::cpu_task(&self.kernel, sim, self.costs.rx_per_message, move |sim| {
            mpi.inner.borrow_mut().recvs += 1;
            Mpi::match_or_post(&mpi, sim, src, tag, Box::new(cont));
        });
    }

    /// Nonblocking receive: the returned [`Request`] completes (with
    /// `Some(msg)`) when a matching message is delivered.
    pub fn irecv(self: &Rc<Mpi>, sim: &mut Sim, src: i32, tag: i32) -> Request {
        let request = Request::new();
        let req = request.clone();
        self.recv(sim, src, tag, move |sim, msg| req.complete(sim, Some(msg)));
        request
    }

    /// MPI_Sendrecv: send one message and receive one, concurrently;
    /// `cont` runs with the received message once both complete.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        self: &Rc<Mpi>,
        sim: &mut Sim,
        dst: usize,
        send_tag: i32,
        data: Bytes,
        src: i32,
        recv_tag: i32,
        cont: impl FnOnce(&mut Sim, MpiMsg) + 'static,
    ) {
        let send_req = self.isend(sim, dst, send_tag, data);
        let recv_req = self.irecv(sim, src, recv_tag);
        let recv2 = recv_req.clone();
        send_req.wait(sim, move |sim, _| {
            recv2.wait(sim, move |sim, msg| {
                cont(sim, msg.expect("irecv completes with a message"));
            });
        });
    }

    fn matches(want_src: i32, want_tag: i32, src: usize, tag: i32) -> bool {
        (want_src == ANY_SOURCE || want_src == src as i32)
            && (want_tag == ANY_TAG || want_tag == tag)
    }

    /// Match a receive against waiting messages — eager payloads and RTS
    /// announcements compete by **arrival order** (MPI's non-overtaking
    /// rule: of two matchable messages from the same sender, the earlier
    /// one matches first, whichever protocol carried it); otherwise post.
    fn match_or_post(mpi: &Rc<Mpi>, sim: &mut Sim, src: i32, tag: i32, cont: RecvCont) {
        enum Hit {
            Eager(MpiMsg),
            Rts { peer: usize, token: u32 },
            Miss,
        }
        let hit = {
            let mut inner = mpi.inner.borrow_mut();
            let eager = inner
                .unexpected
                .iter()
                .enumerate()
                .find(|(_, (_, m))| Self::matches(src, tag, m.src, m.tag))
                .map(|(i, (arr, _))| (i, *arr));
            let rts = inner
                .pending_rts
                .iter()
                .enumerate()
                .find(|(_, r)| Self::matches(src, tag, r.src, r.tag))
                .map(|(i, r)| (i, r.arrival));
            match (eager, rts) {
                (Some((ei, ea)), Some((_, ra))) if ea < ra => {
                    Hit::Eager(inner.unexpected.remove(ei).unwrap().1)
                }
                (Some(_), Some((ri, _))) => {
                    let r = inner.pending_rts.remove(ri);
                    Hit::Rts {
                        peer: r.src,
                        token: r.token,
                    }
                }
                (Some((ei, _)), None) => Hit::Eager(inner.unexpected.remove(ei).unwrap().1),
                (None, Some((ri, _))) => {
                    let r = inner.pending_rts.remove(ri);
                    Hit::Rts {
                        peer: r.src,
                        token: r.token,
                    }
                }
                (None, None) => Hit::Miss,
            }
        };
        match hit {
            Hit::Eager(msg) => cont(sim, msg),
            Hit::Rts { peer, token } => {
                mpi.inner.borrow_mut().awaiting_data.insert(token, cont);
                Self::send_cts(mpi, sim, peer, token);
            }
            Hit::Miss => mpi
                .inner
                .borrow_mut()
                .posted
                .push(Posted { src, tag, cont }),
        }
    }

    fn send_cts(mpi: &Rc<Mpi>, sim: &mut Sim, peer: usize, token: u32) {
        let cts = envelope(mpi.rank(), 0, 0, KIND_CTS, token, &[]);
        let transport = mpi.transport.clone();
        Kernel::cpu_task(&mpi.kernel, sim, mpi.costs.tx_per_message, move |sim| {
            transport.send(sim, peer, cts);
        });
    }

    fn on_message(mpi: &Rc<Mpi>, sim: &mut Sim, src: usize, data: Bytes) {
        let mpi2 = mpi.clone();
        Kernel::cpu_task(&mpi.kernel, sim, mpi.costs.rx_per_message, move |sim| {
            assert!(data.len() >= ENVELOPE, "runt MPI message");
            let env_src = u32::from_be_bytes([data[0], data[1], data[2], data[3]]) as usize;
            let tag = i32::from_be_bytes([data[4], data[5], data[6], data[7]]);
            let len = u32::from_be_bytes([data[8], data[9], data[10], data[11]]) as usize;
            let word4 = u32::from_be_bytes([data[12], data[13], data[14], data[15]]);
            let kind = (word4 >> 24) as u8;
            let token = word4 & 0x00ff_ffff;
            assert_eq!(env_src, src, "envelope/transport source mismatch");
            match kind {
                KIND_EAGER => {
                    assert_eq!(len, data.len() - ENVELOPE, "envelope length mismatch");
                    let msg = MpiMsg {
                        src,
                        tag,
                        data: data.slice(ENVELOPE..),
                    };
                    Self::deliver_or_queue(&mpi2, sim, msg);
                }
                KIND_RTS => {
                    // Announce: match now or remember for a later recv.
                    let matched = {
                        let mut inner = mpi2.inner.borrow_mut();
                        let pos = inner
                            .posted
                            .iter()
                            .position(|p| Self::matches(p.src, p.tag, src, tag));
                        match pos {
                            Some(i) => {
                                let posted = inner.posted.remove(i);
                                inner.awaiting_data.insert(token, posted.cont);
                                true
                            }
                            None => {
                                let arrival = inner.next_arrival;
                                inner.next_arrival += 1;
                                inner.pending_rts.push(RtsEntry {
                                    src,
                                    tag,
                                    token,
                                    arrival,
                                });
                                false
                            }
                        }
                    };
                    if matched {
                        Self::send_cts(&mpi2, sim, src, token);
                    }
                }
                KIND_CTS => {
                    let out = mpi2.inner.borrow_mut().rndv_out.remove(&token);
                    let Some((dst, tag, payload, request)) = out else {
                        return; // stale CTS
                    };
                    let framed =
                        envelope(mpi2.rank(), tag, payload.len(), KIND_RDATA, token, &payload);
                    let transport = mpi2.transport.clone();
                    let costs = mpi2.costs;
                    Kernel::cpu_task(&mpi2.kernel, sim, costs.tx_per_message, move |sim| {
                        transport.send(sim, dst, framed);
                        request.complete(sim, None);
                    });
                }
                KIND_RDATA => {
                    assert_eq!(len, data.len() - ENVELOPE, "envelope length mismatch");
                    let cont = mpi2.inner.borrow_mut().awaiting_data.remove(&token);
                    let Some(cont) = cont else {
                        return; // stale transfer
                    };
                    cont(
                        sim,
                        MpiMsg {
                            src,
                            tag,
                            data: data.slice(ENVELOPE..),
                        },
                    );
                }
                other => panic!("unknown MPI envelope kind {other}"),
            }
        });
    }

    fn deliver_or_queue(mpi: &Rc<Mpi>, sim: &mut Sim, msg: MpiMsg) {
        let cont = {
            let mut inner = mpi.inner.borrow_mut();
            let pos = inner
                .posted
                .iter()
                .position(|p| Self::matches(p.src, p.tag, msg.src, msg.tag));
            match pos {
                Some(i) => Some(inner.posted.remove(i).cont),
                None => {
                    let arrival = inner.next_arrival;
                    inner.next_arrival += 1;
                    inner.unexpected.push_back((arrival, msg.clone()));
                    let peak = inner.unexpected.len();
                    inner.unexpected_peak = inner.unexpected_peak.max(peak);
                    None
                }
            }
        };
        if let Some(cont) = cont {
            cont(sim, msg);
        }
    }
}
