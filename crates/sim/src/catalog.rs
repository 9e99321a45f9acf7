//! Central catalog of every observability name in the workspace.
//!
//! Every metric name and every trace stage/instant name emitted into
//! [`crate::trace::Trace`] must be registered here. Each metric name has
//! exactly one entry, and the entry declares where a recorded value goes
//! — its [`Sink`]s: a registry counter or gauge, a registry histogram,
//! and a timeline series. A recording site makes one
//! [`Sim::record`](crate::Sim::record) call with the entry's
//! compile-time [`MetricId`]; the id carries the sinks, so the fan-out is
//! fixed at compile time and no name is looked up per call.
//!
//! The catalog is consumed twice:
//!
//! * **at runtime** — [`Metrics::uncataloged`](crate::metrics::Metrics::uncataloged)
//!   and [`Trace::uncataloged_stages`](crate::trace::Trace::uncataloged_stages)
//!   check recorded names against it, and the experiment layer
//!   (`clic-cluster`) debug-asserts traced runs are clean, so an
//!   unregistered name cannot ship silently;
//! * **statically** — `clic-analyze` (`crates/analyze`) extracts every
//!   name literal passed to a recording call in the workspace source and
//!   fails CI on names that are unregistered here, registered twice, or
//!   registered but never recorded anywhere (dead entries).
//!
//! Per-node snapshots prefix names with `n<idx>.` (for example
//! `n0.clic.retransmits`); the catalog stores the unprefixed name and
//! [`strip_node_prefix`] normalises before lookup.
//!
//! Keep both tables sorted by name — `clic-analyze` enforces sortedness
//! so diffs stay one-line and duplicates are obvious.

use crate::trace::Layer;

/// Where a recorded value goes. A catalog entry lists its sinks once;
/// every [`Sim::record`](crate::Sim::record) of the entry feeds all of
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sink {
    /// Registry counter: recorded values add up.
    Counter,
    /// Registry gauge: the latest recorded value and its peak.
    Gauge,
    /// Registry histogram: the distribution of recorded values.
    Histogram,
    /// Timeline level series: each bucket keeps the latest value and
    /// empty buckets carry it forward.
    TimelineLevel,
    /// Timeline rate series: each bucket sums the values recorded in it.
    TimelineRate,
}

impl Sink {
    const fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// One registered metric name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted metric name, without any `n<idx>.` node prefix.
    pub name: &'static str,
    /// Where a recorded value goes.
    pub sinks: &'static [Sink],
    /// What the metric measures.
    pub help: &'static str,
}

/// One registered trace stage / instant-event name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDef {
    /// Stable stage name as passed to [`crate::trace::Trace::begin`] /
    /// [`crate::trace::Trace::instant`].
    pub name: &'static str,
    /// Layers that emit this stage.
    pub layers: &'static [Layer],
    /// What the span/event marks.
    pub help: &'static str,
}

const C: Sink = Sink::Counter;
const G: Sink = Sink::Gauge;
const H: Sink = Sink::Histogram;
const TL: Sink = Sink::TimelineLevel;
const TR: Sink = Sink::TimelineRate;

/// Every metric name the workspace may record, sorted by name.
pub const METRICS: &[MetricDef] = &[
    MetricDef {
        name: "clic.cwnd",
        sinks: &[G, TL],
        help: "per-flow congestion window after the latest update, packets",
    },
    MetricDef {
        name: "clic.drops.backlog",
        sinks: &[C],
        help: "packets dropped because the receive backlog was full",
    },
    MetricDef {
        name: "clic.drops.duplicate",
        sinks: &[C],
        help: "already-delivered packets dropped (sender missed an ACK)",
    },
    MetricDef {
        name: "clic.drops.expired",
        sinks: &[C],
        help: "buffered receive state discarded after peer-silence expiry",
    },
    MetricDef {
        name: "clic.drops.ooo",
        sinks: &[C],
        help: "packets dropped because the out-of-order buffer was full",
    },
    MetricDef {
        name: "clic.drops.stale_epoch",
        sinks: &[C],
        help: "packets dropped for carrying a previous session epoch",
    },
    MetricDef {
        name: "clic.ecn_echoes",
        sinks: &[C],
        help: "ACKs carrying a congestion-mark echo, processed by senders",
    },
    MetricDef {
        name: "clic.effective_window",
        sinks: &[TL],
        help: "effective send window after peer advertisement, packets",
    },
    MetricDef {
        name: "clic.fast_retransmits",
        sinks: &[C],
        help: "retransmissions triggered by duplicate ACKs",
    },
    MetricDef {
        name: "clic.flow_failures",
        sinks: &[C],
        help: "flows torn down by any error (sum of the per-cause splits)",
    },
    MetricDef {
        name: "clic.flow_failures.max_retries",
        sinks: &[C],
        help: "flows torn down after exhausting retransmission retries",
    },
    MetricDef {
        name: "clic.flow_failures.peer_dead",
        sinks: &[C],
        help: "flows torn down after keepalive declared the peer dead",
    },
    MetricDef {
        name: "clic.flow_failures.stale_epoch",
        sinks: &[C],
        help: "flows torn down because the peer restarted into a new epoch",
    },
    MetricDef {
        name: "clic.inflight_bytes",
        sinks: &[TL],
        help: "payload bytes sent but not yet acknowledged",
    },
    MetricDef {
        name: "clic.keepalive_probes",
        sinks: &[C],
        help: "keepalive probe packets sent on silent flows",
    },
    MetricDef {
        name: "clic.msg_bytes",
        sinks: &[H],
        help: "per-message payload size offered to clic_send",
    },
    MetricDef {
        name: "clic.msgs_received",
        sinks: &[C],
        help: "messages delivered to receiving ports",
    },
    MetricDef {
        name: "clic.msgs_sent",
        sinks: &[C],
        help: "messages accepted from sending processes",
    },
    MetricDef {
        name: "clic.packets_received",
        sinks: &[C],
        help: "CLIC data packets received",
    },
    MetricDef {
        name: "clic.packets_sent",
        sinks: &[C],
        help: "CLIC data packets sent (including retransmissions)",
    },
    MetricDef {
        name: "clic.recv_buffer_bytes",
        sinks: &[G, TL],
        help: "receive-side buffered bytes charged against the budget",
    },
    MetricDef {
        name: "clic.retransmits",
        sinks: &[C],
        help: "packets retransmitted (timeout or duplicate-ACK driven)",
    },
    MetricDef {
        name: "clic.rttvar",
        sinks: &[H],
        help: "smoothed RTT variance samples feeding the adaptive RTO, ns",
    },
    MetricDef {
        name: "clic.ssthresh",
        sinks: &[G, TL],
        help: "per-flow slow-start threshold after the latest update, packets",
    },
    MetricDef {
        name: "clic.staged_copies",
        sinks: &[C],
        help: "1-copy sends staged through a kernel bounce buffer",
    },
    MetricDef {
        name: "eth.corrupt",
        sinks: &[C],
        help: "frames corrupted in flight by fault injection",
    },
    MetricDef {
        name: "eth.duplicates",
        sinks: &[C],
        help: "frames duplicated in flight by fault injection",
    },
    MetricDef {
        name: "eth.fabric.flood_pruned",
        sinks: &[C],
        help: "flood copies suppressed by the loop-free flood membership",
    },
    MetricDef {
        name: "eth.fabric.trunk_tx_frames",
        sinks: &[C],
        help: "frames forwarded out switch-to-switch trunk ports",
    },
    MetricDef {
        name: "eth.link.frame_bytes",
        sinks: &[H],
        help: "on-wire frame sizes, bytes",
    },
    MetricDef {
        name: "eth.link.frames_lost",
        sinks: &[C],
        help: "frames lost in flight (fault injection or outage)",
    },
    MetricDef {
        name: "eth.link.tx_bytes",
        sinks: &[TR],
        help: "on-wire bytes offered to links",
    },
    MetricDef {
        name: "eth.reorders",
        sinks: &[C],
        help: "frames reordered in flight by fault injection",
    },
    MetricDef {
        name: "eth.switch.drops",
        sinks: &[C],
        help: "frames tail-dropped at a full switch output queue",
    },
    MetricDef {
        name: "eth.switch.ecn_marks",
        sinks: &[C, TR],
        help: "frames stamped congestion-experienced at a switch output queue",
    },
    MetricDef {
        name: "eth.switch.frames_flooded",
        sinks: &[C],
        help: "frames flooded to all ports (broadcast/multicast/unknown)",
    },
    MetricDef {
        name: "eth.switch.frames_forwarded",
        sinks: &[C],
        help: "frames forwarded to a learned port",
    },
    MetricDef {
        name: "eth.switch.queue_depth",
        sinks: &[G, H, TL],
        help: "output-queue depth at each forwarding decision, frames",
    },
    MetricDef {
        name: "hw.mem.copy_bytes",
        sinks: &[H],
        help: "per-copy sizes through the memory bus, bytes",
    },
    MetricDef {
        name: "hw.nic.coll.completions",
        sinks: &[C],
        help: "collective operations completed by the NIC-resident engine",
    },
    MetricDef {
        name: "hw.nic.coll.msgs_rx",
        sinks: &[C],
        help: "collective control frames consumed by the NIC engine (no host IRQ)",
    },
    MetricDef {
        name: "hw.nic.coll.msgs_tx",
        sinks: &[C],
        help: "collective control frames emitted by the NIC engine",
    },
    MetricDef {
        name: "hw.nic.irqs",
        sinks: &[C],
        help: "interrupts raised by the NIC (after coalescing)",
    },
    MetricDef {
        name: "hw.nic.rx_fcs_errors",
        sinks: &[C],
        help: "received frames discarded by the FCS check",
    },
    MetricDef {
        name: "hw.nic.rx_frames",
        sinks: &[C],
        help: "frames accepted into the RX ring",
    },
    MetricDef {
        name: "hw.nic.rx_no_buffer",
        sinks: &[C],
        help: "frames dropped because the RX ring was full",
    },
    MetricDef {
        name: "hw.nic.tx_bytes",
        sinks: &[TR],
        help: "payload bytes transmitted by the NIC",
    },
    MetricDef {
        name: "hw.nic.tx_frames",
        sinks: &[C],
        help: "frames transmitted from the TX ring",
    },
    MetricDef {
        name: "hw.nic.tx_ring_full",
        sinks: &[C],
        help: "TX descriptor posts rejected by a full ring",
    },
    MetricDef {
        name: "hw.pci.dma_bytes",
        sinks: &[H, TR],
        help: "per-transaction DMA sizes over the PCI bus, bytes",
    },
    MetricDef {
        name: "mpi.msg_bytes",
        sinks: &[H],
        help: "MPI message payload sizes, bytes",
    },
    MetricDef {
        name: "mpi.recvs",
        sinks: &[C],
        help: "MPI receives completed",
    },
    MetricDef {
        name: "mpi.sends",
        sinks: &[C],
        help: "MPI sends initiated",
    },
    MetricDef {
        name: "os.bottom_halves",
        sinks: &[C],
        help: "bottom-half executions",
    },
    MetricDef {
        name: "os.context_switches",
        sinks: &[C],
        help: "process context switches",
    },
    MetricDef {
        name: "os.frames_received",
        sinks: &[C],
        help: "frames handed from the driver to protocol handlers",
    },
    MetricDef {
        name: "os.irqs",
        sinks: &[C],
        help: "interrupt entries into the kernel",
    },
    MetricDef {
        name: "os.lightweight_calls",
        sinks: &[C],
        help: "GAMMA-style lightweight system calls",
    },
    MetricDef {
        name: "os.syscalls",
        sinks: &[C],
        help: "full system calls (0.65 us each, paper section 3.1)",
    },
    MetricDef {
        name: "sim.pool.alloc_misses",
        sinks: &[C],
        help: "packet-buffer requests that allocated because the pool's size class was empty",
    },
    MetricDef {
        name: "sim.pool.discarded",
        sinks: &[C],
        help: "dropped buffers released to the allocator (class list full or unpoolable size)",
    },
    MetricDef {
        name: "sim.pool.oversize",
        sinks: &[C],
        help: "buffer requests above the largest pool class, served unpooled",
    },
    MetricDef {
        name: "sim.pool.recycled",
        sinks: &[C],
        help: "packet-buffer requests served by a recycled buffer (no allocation)",
    },
    MetricDef {
        name: "sim.pool.returned",
        sinks: &[C],
        help: "dropped buffers recycled into the pool's free lists",
    },
    MetricDef {
        name: "tcp.fast_retransmits",
        sinks: &[C],
        help: "TCP retransmissions triggered by triple duplicate ACKs",
    },
    MetricDef {
        name: "tcp.retransmits",
        sinks: &[C],
        help: "TCP segments retransmitted on RTO",
    },
];

/// Every trace stage/instant name the workspace may emit, sorted by name.
pub const STAGES: &[StageDef] = &[
    StageDef {
        name: "bottom_half",
        layers: &[Layer::Os],
        help: "bottom-half run delivering frames to a protocol module",
    },
    StageDef {
        name: "clic_module_rx",
        layers: &[Layer::Clic],
        help: "CLIC_MODULE receive processing",
    },
    StageDef {
        name: "clic_module_tx",
        layers: &[Layer::Clic],
        help: "CLIC_MODULE send path: header composition + SK_BUFF build",
    },
    StageDef {
        name: "copy_to_user",
        layers: &[Layer::Clic],
        help: "final copy from kernel staging into user memory",
    },
    StageDef {
        name: "driver_rx",
        layers: &[Layer::Os],
        help: "driver IRQ routine moving frames NIC -> system memory",
    },
    StageDef {
        name: "driver_tx",
        layers: &[Layer::Os],
        help: "hard_start_xmit handing an SK_BUFF to the NIC",
    },
    StageDef {
        name: "drop.backlog",
        layers: &[Layer::Clic],
        help: "packet dropped: receive backlog full",
    },
    StageDef {
        name: "drop.duplicate",
        layers: &[Layer::Clic],
        help: "packet dropped: already delivered",
    },
    StageDef {
        name: "drop.expired",
        layers: &[Layer::Clic],
        help: "buffered receive state expired after prolonged peer silence",
    },
    StageDef {
        name: "drop.fcs",
        layers: &[Layer::Hw],
        help: "frame dropped: FCS check failed at the NIC",
    },
    StageDef {
        name: "drop.ooo",
        layers: &[Layer::Clic],
        help: "packet dropped: out-of-order buffer full",
    },
    StageDef {
        name: "drop.rx_no_buffer",
        layers: &[Layer::Hw],
        help: "frame dropped: NIC RX ring full",
    },
    StageDef {
        name: "drop.stale_epoch",
        layers: &[Layer::Clic],
        help: "packet dropped: stamped with a previous session epoch",
    },
    StageDef {
        name: "ecn_echo",
        layers: &[Layer::Clic],
        help: "sender processed an ACK echoing a congestion mark",
    },
    StageDef {
        name: "fast_retransmit",
        layers: &[Layer::Clic, Layer::TcpIp],
        help: "duplicate-ACK-triggered retransmission",
    },
    StageDef {
        name: "flow_fail",
        layers: &[Layer::Clic],
        help: "flow torn down: retries exhausted, peer dead or stale epoch",
    },
    StageDef {
        name: "ip_rx",
        layers: &[Layer::TcpIp],
        help: "IPv4 receive: checksum, reassembly, demux",
    },
    StageDef {
        name: "ip_tx",
        layers: &[Layer::TcpIp],
        help: "IPv4 send: header build + fragmentation",
    },
    StageDef {
        name: "keepalive",
        layers: &[Layer::Clic],
        help: "keepalive probe sent on a silent flow",
    },
    StageDef {
        name: "link_drop",
        layers: &[Layer::Eth],
        help: "frame lost on the wire (fault injection/outage)",
    },
    StageDef {
        name: "mpi_recv",
        layers: &[Layer::Mpi],
        help: "MPI receive: matching + completion",
    },
    StageDef {
        name: "mpi_send",
        layers: &[Layer::Mpi],
        help: "MPI send: eager or rendezvous initiation",
    },
    StageDef {
        name: "nic_coll_down",
        layers: &[Layer::Hw],
        help: "NIC collective engine: release/result distributed down the tree",
    },
    StageDef {
        name: "nic_coll_up",
        layers: &[Layer::Hw],
        help: "NIC collective engine: arrival/partial combined up the tree",
    },
    StageDef {
        name: "nic_rx_dma",
        layers: &[Layer::Hw],
        help: "NIC bus-master DMA of a received frame over PCI",
    },
    StageDef {
        name: "nic_tx_dma",
        layers: &[Layer::Hw],
        help: "NIC bus-master DMA gather of a frame for transmit",
    },
    StageDef {
        name: "rto",
        layers: &[Layer::Clic, Layer::TcpIp],
        help: "retransmission timeout fired",
    },
    StageDef {
        name: "staged_copy",
        layers: &[Layer::Clic],
        help: "1-copy send staging into a kernel bounce buffer",
    },
    StageDef {
        name: "switch_drop",
        layers: &[Layer::Eth],
        help: "frame tail-dropped at a switch output queue",
    },
    StageDef {
        name: "switch_mark",
        layers: &[Layer::Eth],
        help: "frame stamped congestion-experienced at a switch output queue",
    },
    StageDef {
        name: "syscall",
        layers: &[Layer::Os],
        help: "system-call entry/exit around a send or receive",
    },
    StageDef {
        name: "tcp_tx",
        layers: &[Layer::TcpIp],
        help: "TCP send: segmentation, checksum, window bookkeeping",
    },
    StageDef {
        name: "wire",
        layers: &[Layer::Eth],
        help: "frame serialization + propagation on a link",
    },
];

/// Strip an `n<idx>.` per-node prefix, if present: `n0.clic.retransmits`
/// normalises to `clic.retransmits`. Names without the prefix pass through
/// unchanged.
pub fn strip_node_prefix(name: &str) -> &str {
    let Some(rest) = name.strip_prefix('n') else {
        return name;
    };
    let Some(dot) = rest.find('.') else {
        return name;
    };
    if dot > 0 && rest[..dot].bytes().all(|b| b.is_ascii_digit()) {
        &rest[dot + 1..]
    } else {
        name
    }
}

/// Whether `name` (possibly `n<idx>.`-prefixed) is registered with `sink`.
pub fn is_metric(name: &str, sink: Sink) -> bool {
    find_metric(strip_node_prefix(name)).is_some_and(|id| id.has(sink))
}

/// Whether `stage` is a registered trace stage/instant name.
pub fn is_stage(stage: &str) -> bool {
    STAGES.iter().any(|s| s.name == stage)
}

// ---------------------------------------------------------------------------
// Interning
//
// Hot recording paths pass u16 catalog indices instead of hashing or
// comparing `&str` names. Ids are resolved at *compile time* through the
// `const fn` lookups below (`const X: MetricId = metric_id("…")`), so an
// unregistered name at a recording site fails the build rather than a
// runtime check. Reads and per-node snapshot imports by name go through
// the runtime `find_*` binary searches.

/// Interned catalog entry: its index in [`METRICS`] plus the entry's sinks.
///
/// Obtain one from [`metric_id`] in a `const` context. The sinks ride in
/// the id, so [`Sim::record`](crate::Sim::record) with a constant id
/// compiles down to the entry's own stores. Because [`METRICS`] is sorted
/// by name, ascending id order is ascending name order, which keeps dumps
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    index: u16,
    sinks: u8,
}

impl MetricId {
    /// Position in [`METRICS`].
    #[inline]
    pub const fn index(self) -> usize {
        self.index as usize
    }

    /// Whether the entry declares `sink`.
    #[inline]
    pub const fn has(self, sink: Sink) -> bool {
        self.sinks & sink.bit() != 0
    }

    /// The catalog entry this id refers to.
    pub fn def(self) -> &'static MetricDef {
        &METRICS[self.index()]
    }
}

/// The id of `METRICS[i]`, sinks folded into a bit set.
const fn id_at(i: usize) -> MetricId {
    let sinks = METRICS[i].sinks;
    let mut bits = 0u8;
    let mut k = 0;
    while k < sinks.len() {
        bits |= sinks[k].bit();
        k += 1;
    }
    MetricId {
        index: i as u16,
        sinks: bits,
    }
}

/// Interned index of an entry in [`STAGES`] (sorted by name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageId(u16);

impl StageId {
    /// Position in [`STAGES`].
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The catalog entry this id refers to.
    pub fn def(self) -> &'static StageDef {
        &STAGES[self.0 as usize]
    }
}

/// Const-context string equality (`==` on `&str` is not const-stable).
const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Compile-time id of a registered metric; unregistered names fail the
/// build. Use as `const X: MetricId = metric_id("…");` and record with
/// `sim.record(X, v)`.
pub const fn metric_id(name: &str) -> MetricId {
    let mut i = 0;
    while i < METRICS.len() {
        if str_eq(METRICS[i].name, name) {
            return id_at(i);
        }
        i += 1;
    }
    // Evaluated in const context only: an unregistered name at an interned
    // call site is a compile error, never a runtime panic.
    // lint:allow(no-unwrap, reason="const-eval guard; interned names are resolved at compile time")
    panic!("metric name not registered in crates/sim/src/catalog.rs METRICS")
}

/// Compile-time id of a registered trace stage; unregistered names fail
/// the build. Use as `const S: StageId = stage_id("…");`.
pub const fn stage_id(name: &str) -> StageId {
    let mut i = 0;
    while i < STAGES.len() {
        if str_eq(STAGES[i].name, name) {
            return StageId(i as u16);
        }
        i += 1;
    }
    // lint:allow(no-unwrap, reason="const-eval guard; interned names are resolved at compile time")
    panic!("stage name not registered in crates/sim/src/catalog.rs STAGES")
}

/// Runtime id lookup for an exact (unprefixed) catalog name — binary
/// search over the name-sorted table.
pub fn find_metric(name: &str) -> Option<MetricId> {
    METRICS
        .binary_search_by(|m| m.name.cmp(name))
        .ok()
        .map(id_at)
}

/// Runtime id lookup for an exact stage name (binary search).
pub fn find_stage(name: &str) -> Option<StageId> {
    STAGES
        .binary_search_by(|s| s.name.cmp(name))
        .ok()
        .map(|i| StageId(i as u16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_sorted_and_unique() {
        for w in METRICS.windows(2) {
            assert!(
                w[0].name < w[1].name,
                "METRICS out of order or duplicated at {:?}",
                w[1].name
            );
        }
        for w in STAGES.windows(2) {
            assert!(
                w[0].name < w[1].name,
                "STAGES out of order or duplicated at {:?}",
                w[1].name
            );
        }
    }

    #[test]
    fn sinks_are_consistent() {
        for m in METRICS {
            let id = find_metric(m.name).expect("every entry resolves");
            assert!(!m.sinks.is_empty(), "{} records nowhere", m.name);
            assert!(
                !(id.has(C) && id.has(G)),
                "{} is both a counter and a gauge",
                m.name
            );
            // A rate series sums increments and a level series keeps the
            // latest value: a counter feeds rates, a gauge feeds levels.
            assert!(
                !(id.has(C) && id.has(TL)),
                "{}: counter with a level",
                m.name
            );
            assert!(!(id.has(G) && id.has(TR)), "{}: gauge with a rate", m.name);
            assert!(!(id.has(TL) && id.has(TR)), "{}: two timelines", m.name);
        }
    }

    #[test]
    fn node_prefix_stripping() {
        assert_eq!(strip_node_prefix("n0.clic.retransmits"), "clic.retransmits");
        assert_eq!(strip_node_prefix("n12.os.syscalls"), "os.syscalls");
        assert_eq!(strip_node_prefix("clic.retransmits"), "clic.retransmits");
        assert_eq!(strip_node_prefix("nic.rx"), "nic.rx");
        assert_eq!(strip_node_prefix("n.x"), "n.x");
        assert_eq!(strip_node_prefix("n0"), "n0");
    }

    #[test]
    fn lookup_respects_kind() {
        assert!(is_metric("clic.retransmits", Sink::Counter));
        assert!(!is_metric("clic.retransmits", Sink::Gauge));
        assert!(is_metric("eth.switch.queue_depth", Sink::Gauge));
        assert!(is_metric("eth.switch.queue_depth", Sink::Histogram));
        assert!(is_metric("eth.switch.queue_depth", Sink::TimelineLevel));
        assert!(!is_metric("eth.switch.queue_depth", Sink::TimelineRate));
        assert!(is_metric("n1.clic.retransmits", Sink::Counter));
        assert!(!is_metric("made.up", Sink::Counter));
    }

    #[test]
    fn stage_lookup() {
        assert!(is_stage("driver_rx"));
        assert!(is_stage("drop.fcs"));
        assert!(!is_stage("made_up"));
    }

    #[test]
    fn interned_ids_resolve_at_compile_time() {
        const RETX: MetricId = metric_id("clic.retransmits");
        const QDEPTH: MetricId = metric_id("eth.switch.queue_depth");
        const DMA: MetricId = metric_id("hw.pci.dma_bytes");
        const WIRE: StageId = stage_id("wire");
        assert_eq!(RETX.def().name, "clic.retransmits");
        assert!(RETX.has(Sink::Counter) && !RETX.has(Sink::TimelineRate));
        assert!(QDEPTH.has(Sink::Gauge) && QDEPTH.has(Sink::Histogram));
        assert!(QDEPTH.has(Sink::TimelineLevel) && !QDEPTH.has(Sink::Counter));
        assert!(DMA.has(Sink::Histogram) && DMA.has(Sink::TimelineRate));
        assert_eq!(WIRE.def().name, "wire");
    }

    #[test]
    fn runtime_lookup_matches_const_lookup() {
        for (i, m) in METRICS.iter().enumerate() {
            let id = find_metric(m.name).expect("every entry resolves");
            assert_eq!(id.index(), i);
            assert_eq!(id, id_at(i));
        }
        for (i, s) in STAGES.iter().enumerate() {
            let id = find_stage(s.name).expect("every entry resolves");
            assert_eq!(id.index(), i);
        }
        assert!(find_metric("made.up").is_none());
        assert!(find_stage("made_up").is_none());
    }

    #[test]
    fn ascending_id_order_is_ascending_name_order() {
        // Dumps list interned series in id order and rely on this.
        for w in METRICS.windows(2) {
            assert!(w[0].name <= w[1].name);
        }
    }
}
