//! NIC-resident collective engine.
//!
//! Models the Yu/Buntinas/Panda approach ("Efficient and Scalable Barrier
//! over Quadrics and Myrinet with a New NIC-Based Collective Message
//! Passing Protocol"): barrier and reduction run *on the NIC*,
//! in firmware, without ever raising a host interrupt. The host posts one
//! descriptor per collective and gets one completion callback; everything
//! in between — the k-ary combining tree up, the multicast distribution
//! down — is NIC-to-NIC traffic the OS never sees. That is the
//! cluster-scale extension of CLIC's thesis: where CLIC moved the
//! transport out of the OS, the collective engine moves the *coordination*
//! out of the host entirely.
//!
//! The engine here is the pure state machine: it consumes stimuli (host
//! descriptors and decoded wire messages) and emits actions (frames to
//! send, completions to deliver). All timing — the per-message firmware
//! processing delay, the wire — is applied by the plumbing in
//! [`crate::nic`], so this module is directly unit-testable.
//!
//! Protocol shape, per operation class (barrier / reduce), each with its
//! own sequence space so back-to-back collectives never mix:
//!
//! * **up phase**: leaves send an arrival/partial to their tree parent;
//!   interior nodes combine children + their own contribution and
//!   forward up; rank 0 is the root.
//! * **down phase**: the root emits *one* Ethernet
//!   multicast frame to the group address — the switch fabric's existing
//!   flood path replicates it to every member in a single shot (loop-free
//!   on multi-switch fabrics thanks to the spanning-tree flood membership
//!   in `clic-ethernet::topology`).

use bytes::Bytes;
use clic_ethernet::{Frame, MacAddr};
use clic_sim::{Sim, SimDuration};
use std::collections::BTreeMap;

/// Completion callback for a barrier.
pub type BarrierDone = Box<dyn FnOnce(&mut Sim)>;
/// Completion callback carrying the allreduce result.
pub type ValueDone = Box<dyn FnOnce(&mut Sim, u64)>;

/// Static configuration of one NIC's collective engine.
#[derive(Debug, Clone)]
pub struct CollConfig {
    /// Ethernet multicast group id used for the down phase
    /// ([`MacAddr::multicast_group`]); every member NIC joins it.
    pub group: u32,
    /// Member station addresses, indexed by rank.
    pub members: Vec<MacAddr>,
    /// This NIC's rank in `members`.
    pub rank: usize,
    /// Fan-out of the combining tree (children per interior node).
    pub fanout: usize,
    /// Firmware processing time charged per consumed or emitted message
    /// (the NIC processor is slow; Yu et al. measure a few µs per hop).
    pub proc_delay: SimDuration,
    /// Pipeline-trace id stamped on engine frames and instants
    /// (0 = untraced).
    pub trace: u64,
}

impl CollConfig {
    /// Engine config with the defaults the scale experiments use: 4-ary
    /// combining tree, 1.5 µs firmware processing per message, untraced.
    pub fn new(group: u32, members: Vec<MacAddr>, rank: usize) -> CollConfig {
        assert!(rank < members.len(), "rank out of range");
        CollConfig {
            group,
            members,
            rank,
            fanout: 4,
            proc_delay: SimDuration::from_ns(1_500),
            trace: 0,
        }
    }

    /// The multicast address of the down phase.
    pub fn group_mac(&self) -> MacAddr {
        MacAddr::multicast_group(self.group)
    }

    /// Tree parent of `rank` (none for the root, rank 0).
    pub fn parent(&self, rank: usize) -> Option<usize> {
        if rank == 0 {
            None
        } else {
            Some((rank - 1) / self.fanout)
        }
    }

    /// Number of tree children of `rank`.
    pub fn child_count(&self, rank: usize) -> usize {
        let first = rank * self.fanout + 1;
        let n = self.members.len();
        n.saturating_sub(first).min(self.fanout)
    }
}

/// One decoded collective control message (the payload of an
/// `EtherType::COLL` frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollMsg {
    /// Barrier up phase: the sender's whole subtree has arrived.
    Arrive {
        /// Barrier sequence number.
        seq: u32,
    },
    /// Barrier down phase (multicast): everyone arrived, proceed.
    Release {
        /// Barrier sequence number.
        seq: u32,
    },
    /// Allreduce up phase: partial sum of the sender's subtree.
    Combine {
        /// Reduce sequence number.
        seq: u32,
        /// Subtree partial sum.
        value: u64,
    },
    /// Allreduce down phase (multicast): the global sum.
    Result {
        /// Reduce sequence number.
        seq: u32,
        /// Global sum.
        value: u64,
    },
}

impl CollMsg {
    /// Wire-encode into a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(16);
        match self {
            CollMsg::Arrive { seq } => {
                out.push(1);
                out.extend_from_slice(&seq.to_be_bytes());
            }
            CollMsg::Release { seq } => {
                out.push(2);
                out.extend_from_slice(&seq.to_be_bytes());
            }
            CollMsg::Combine { seq, value } => {
                out.push(3);
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&value.to_be_bytes());
            }
            CollMsg::Result { seq, value } => {
                out.push(4);
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&value.to_be_bytes());
            }
        }
        Bytes::from(out)
    }

    /// Decode a frame's message (ignoring any minimum-frame padding past
    /// the message body). Returns `None` for malformed payloads.
    pub fn decode(frame: &Frame) -> Option<CollMsg> {
        let ([op, s0, s1, s2, s3], rest) = frame.split_header()?;
        let rest = rest.join();
        let seq = u32::from_be_bytes([s0, s1, s2, s3]);
        let val =
            |b: &[u8]| -> Option<u64> { Some(u64::from_be_bytes(b.get(..8)?.try_into().ok()?)) };
        match op {
            1 => Some(CollMsg::Arrive { seq }),
            2 => Some(CollMsg::Release { seq }),
            3 => Some(CollMsg::Combine {
                seq,
                value: val(&rest)?,
            }),
            4 => Some(CollMsg::Result {
                seq,
                value: val(&rest)?,
            }),
            _ => None,
        }
    }

    /// Whether this message travels the up phase (towards the root). Down
    /// messages are the multicast distribution.
    pub fn is_up(&self) -> bool {
        matches!(self, CollMsg::Arrive { .. } | CollMsg::Combine { .. })
    }
}

/// A stimulus the engine reacts to.
pub enum CollStimulus {
    /// Host posted a barrier descriptor.
    Barrier(BarrierDone),
    /// Host posted an allreduce descriptor with its contribution.
    Allreduce(u64, ValueDone),
    /// A collective control frame arrived from the wire.
    Msg(CollMsg),
}

/// An action the plumbing must carry out for the engine.
pub enum CollAction {
    /// Put a control frame on the wire.
    Send {
        /// Destination station or group address.
        dst: MacAddr,
        /// The message.
        msg: CollMsg,
    },
    /// Fire a barrier completion.
    CompleteBarrier(BarrierDone),
    /// Fire an allreduce completion with the global sum.
    CompleteValue(ValueDone, u64),
}

/// Per-operation in-flight state. An entry is created by whichever
/// stimulus shows up first — a child's message can outrun the local host
/// descriptor and vice versa — and retired on completion.
#[derive(Default)]
struct Pending {
    child_msgs: usize,
    partial: u64,
    local: Option<u64>,
    barrier_done: Option<BarrierDone>,
    value_done: Option<ValueDone>,
}

/// Operation classes, each with an independent sequence space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Barrier,
    Reduce,
}

/// The NIC-resident collective state machine.
///
/// Pure: [`CollEngine::step`] maps a stimulus to the actions it implies;
/// the caller owns all timing. The doc-test drives a 2-member group by
/// hand, playing both NICs:
///
/// ```
/// use clic_hw::coll::{CollAction, CollConfig, CollEngine, CollMsg, CollStimulus};
/// use clic_ethernet::MacAddr;
///
/// let members = vec![MacAddr::for_node(0, 0), MacAddr::for_node(1, 0)];
/// let mut root = CollEngine::new(CollConfig::new(7, members.clone(), 0));
/// let mut leaf = CollEngine::new(CollConfig::new(7, members, 1));
///
/// // The leaf's host enters the barrier: its NIC sends ARRIVE to rank 0.
/// let acts = leaf.step(CollStimulus::Barrier(Box::new(|_| {})));
/// let arrive = match &acts[..] {
///     [CollAction::Send { dst, msg }] => {
///         assert_eq!(*dst, MacAddr::for_node(0, 0));
///         msg.clone()
///     }
///     _ => panic!("expected one send"),
/// };
///
/// // Root host enters, then the ARRIVE lands: the root multicasts
/// // RELEASE to the group and completes its own barrier locally.
/// let first = root.step(CollStimulus::Barrier(Box::new(|_| {})));
/// assert!(first.is_empty(), "root still waits for its child");
/// let acts = root.step(CollStimulus::Msg(arrive));
/// assert!(matches!(
///     &acts[..],
///     [
///         CollAction::Send { dst, msg: CollMsg::Release { seq: 0 } },
///         CollAction::CompleteBarrier(_),
///     ] if dst.is_multicast()
/// ));
/// ```
pub struct CollEngine {
    config: CollConfig,
    next_seq: BTreeMap<Class, u32>,
    pending: BTreeMap<(Class, u32), Pending>,
}

impl CollEngine {
    /// Engine for one member NIC.
    pub fn new(config: CollConfig) -> CollEngine {
        assert!(config.fanout >= 1, "fanout must be at least 1");
        assert!(!config.members.is_empty());
        CollEngine {
            config,
            next_seq: BTreeMap::new(),
            pending: BTreeMap::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CollConfig {
        &self.config
    }

    /// Advance the state machine by one stimulus.
    pub fn step(&mut self, stimulus: CollStimulus) -> Vec<CollAction> {
        match stimulus {
            CollStimulus::Barrier(done) => {
                let seq = self.take_seq(Class::Barrier);
                let p = self.pending.entry((Class::Barrier, seq)).or_default();
                p.local = Some(0);
                p.barrier_done = Some(done);
                self.try_complete_up(Class::Barrier, seq)
            }
            CollStimulus::Allreduce(value, done) => {
                let seq = self.take_seq(Class::Reduce);
                let p = self.pending.entry((Class::Reduce, seq)).or_default();
                p.local = Some(value);
                p.value_done = Some(done);
                self.try_complete_up(Class::Reduce, seq)
            }
            CollStimulus::Msg(msg) => self.on_msg(msg),
        }
    }

    fn on_msg(&mut self, msg: CollMsg) -> Vec<CollAction> {
        match msg {
            CollMsg::Arrive { seq } => {
                let p = self.pending.entry((Class::Barrier, seq)).or_default();
                p.child_msgs += 1;
                self.try_complete_up(Class::Barrier, seq)
            }
            CollMsg::Combine { seq, value } => {
                let p = self.pending.entry((Class::Reduce, seq)).or_default();
                p.child_msgs += 1;
                p.partial = p.partial.wrapping_add(value);
                self.try_complete_up(Class::Reduce, seq)
            }
            CollMsg::Release { seq } => {
                let Some(mut p) = self.pending.remove(&(Class::Barrier, seq)) else {
                    return Vec::new();
                };
                match p.barrier_done.take() {
                    Some(done) => vec![CollAction::CompleteBarrier(done)],
                    None => Vec::new(),
                }
            }
            CollMsg::Result { seq, value } => {
                let Some(mut p) = self.pending.remove(&(Class::Reduce, seq)) else {
                    return Vec::new();
                };
                match p.value_done.take() {
                    Some(done) => vec![CollAction::CompleteValue(done, value)],
                    None => Vec::new(),
                }
            }
        }
    }

    /// If this node's subtree is fully accounted for, forward up (or, at
    /// the root, kick off the down phase).
    fn try_complete_up(&mut self, class: Class, seq: u32) -> Vec<CollAction> {
        let rank = self.config.rank;
        let need = self.config.child_count(rank);
        let ready = {
            let Some(p) = self.pending.get(&(class, seq)) else {
                return Vec::new();
            };
            p.local.is_some() && p.child_msgs >= need
        };
        if !ready {
            return Vec::new();
        }
        match self.config.parent(rank) {
            Some(parent) => {
                let dst = self.config.members[parent];
                let p = match self.pending.get(&(class, seq)) {
                    Some(p) => p,
                    None => return Vec::new(),
                };
                let msg = match class {
                    Class::Barrier => CollMsg::Arrive { seq },
                    Class::Reduce => CollMsg::Combine {
                        seq,
                        value: p.partial.wrapping_add(p.local.unwrap_or(0)),
                    },
                };
                // Keep the pending entry: the down-phase multicast still
                // has to land here to complete the local operation.
                vec![CollAction::Send { dst, msg }]
            }
            None => {
                // Root: everyone arrived — multicast the down phase and
                // complete locally (the flood never hairpins back).
                let Some(mut p) = self.pending.remove(&(class, seq)) else {
                    return Vec::new();
                };
                let group = self.config.group_mac();
                match class {
                    Class::Barrier => {
                        let mut acts = vec![CollAction::Send {
                            dst: group,
                            msg: CollMsg::Release { seq },
                        }];
                        if let Some(done) = p.barrier_done.take() {
                            acts.push(CollAction::CompleteBarrier(done));
                        }
                        acts
                    }
                    Class::Reduce => {
                        let total = p.partial.wrapping_add(p.local.unwrap_or(0));
                        let mut acts = vec![CollAction::Send {
                            dst: group,
                            msg: CollMsg::Result { seq, value: total },
                        }];
                        if let Some(done) = p.value_done.take() {
                            acts.push(CollAction::CompleteValue(done, total));
                        }
                        acts
                    }
                }
            }
        }
    }

    fn take_seq(&mut self, class: Class) -> u32 {
        let seq = self.next_seq.entry(class).or_insert(0);
        let s = *seq;
        // lint:allow(time-overflow, reason="u32 per-class collective counter; 2^32 collectives exceed any run")
        *seq += 1;
        s
    }
}
