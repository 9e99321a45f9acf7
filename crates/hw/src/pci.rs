//! The PCI bus.
//!
//! The paper's machines use 33 MHz / 32-bit PCI: 132 MB/s of raw burst
//! bandwidth, minus arbitration/address phases per transaction. All DMA on a
//! node (NIC TX reads, NIC RX writes, every bonded NIC) contends for the one
//! bus, which is exactly the "I/O buses have become the bottleneck" effect
//! the introduction describes.

use clic_sim::catalog::metric_id;
use clic_sim::{Cpu, CpuClass, MetricId, Sim, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

/// Interned id of the DMA size series: a per-transfer histogram plus the
/// timeline's byte rate, and the only tally of bytes moved.
const DMA_BYTES: MetricId = metric_id("hw.pci.dma_bytes");

/// A shared PCI bus: a serial resource whose work is all task class, so
/// transfers are served in FIFO order, one at a time.
pub struct PciBus {
    bus: Rc<RefCell<Cpu>>,
    bits_per_sec: u64,
    setup: SimDuration,
    max_burst: usize,
}

impl PciBus {
    /// A bus of raw bandwidth `bits_per_sec`, charging `setup` per burst and
    /// splitting transfers into bursts of at most `max_burst` bytes.
    pub fn new(bits_per_sec: u64, setup: SimDuration, max_burst: usize) -> Rc<PciBus> {
        assert!(bits_per_sec > 0 && max_burst > 0);
        Rc::new(PciBus {
            bus: Cpu::new("pci"),
            bits_per_sec,
            setup,
            max_burst,
        })
    }

    /// The paper's testbed bus: 33 MHz × 32 bit = 1056 Mb/s raw. Real 33/32
    /// PCI targets disconnect bursts every few hundred bytes and pay
    /// arbitration + address phases each time; 512-byte bursts with ~0.9 µs
    /// of overhead apiece sustain ≈ 107 MB/s on long transfers, matching
    /// measured DMA throughput of the era.
    pub fn pci_33mhz_32bit() -> Rc<PciBus> {
        PciBus::new(1_056_000_000, SimDuration::from_ns(900), 512)
    }

    /// A 66 MHz / 64-bit PCI bus (4224 Mb/s raw, better burst behaviour) —
    /// the upgrade path §1 implies when it calls the I/O bus the
    /// bottleneck. Used by the bonding ablation.
    pub fn pci_66mhz_64bit() -> Rc<PciBus> {
        PciBus::new(4_224_000_000, SimDuration::from_ns(500), 2048)
    }

    /// Service time of a `bytes`-long DMA, ignoring queueing.
    pub fn service_time(&self, bytes: usize) -> SimDuration {
        let bursts = bytes.div_ceil(self.max_burst).max(1) as u64;
        self.setup * bursts + SimDuration::for_bytes(bytes as u64, self.bits_per_sec)
    }

    /// Perform a DMA of `bytes`; `done` runs when the transfer completes
    /// (after queueing behind other bus traffic).
    pub fn dma(
        self: &Rc<Self>,
        sim: &mut Sim,
        bytes: usize,
        done: impl FnOnce(&mut Sim) + 'static,
    ) {
        sim.record(DMA_BYTES, bytes as u64);
        let t = self.service_time(bytes);
        Cpu::run(&self.bus, sim, CpuClass::Task, t, done);
    }

    /// Completed transactions.
    pub fn transactions(&self) -> u64 {
        self.bus.borrow().items_run()
    }

    /// Effective sustained bandwidth for long transfers, in bytes/second —
    /// a derived sanity metric used by calibration tests.
    pub fn effective_bytes_per_sec(&self, transfer: usize) -> f64 {
        transfer as f64 / self.service_time(transfer).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clic_sim::SimTime;
    use std::cell::RefCell;

    #[test]
    fn service_time_includes_setup_per_burst() {
        let bus = PciBus::new(1_000_000_000, SimDuration::from_us(1), 1000);
        // 2500 bytes = 3 bursts of setup + 20 us of data time.
        assert_eq!(
            bus.service_time(2500),
            SimDuration::from_us(3) + SimDuration::from_us(20)
        );
    }

    #[test]
    fn zero_byte_dma_still_pays_setup() {
        let bus = PciBus::new(1_000_000_000, SimDuration::from_us(1), 1000);
        assert_eq!(bus.service_time(0), SimDuration::from_us(1));
    }

    #[test]
    fn transfers_serialize_on_the_bus() {
        let mut sim = Sim::new(0);
        let bus = PciBus::new(1_000_000_000, SimDuration::ZERO, 1 << 20);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2u32 {
            let log = log.clone();
            bus.dma(&mut sim, 1250, move |s| log.borrow_mut().push((i, s.now())));
        }
        sim.run();
        // 1250 B @ 1 Gb/s = 10 us each, serialized.
        assert_eq!(
            *log.borrow(),
            vec![(0, SimTime::from_us(10)), (1, SimTime::from_us(20))]
        );
        let dma = sim.metrics.histogram("hw.pci.dma_bytes").expect("recorded");
        assert_eq!(dma.sum(), 2500);
        assert_eq!(bus.transactions(), 2);
    }

    #[test]
    fn testbed_bus_sustains_realistic_throughput() {
        let bus = PciBus::pci_33mhz_32bit();
        let eff = bus.effective_bytes_per_sec(1 << 20);
        // Long-transfer DMA on 33/32 PCI lands in the 95–120 MB/s window.
        assert!(
            (95.0e6..120.0e6).contains(&eff),
            "effective PCI bandwidth {:.1} MB/s",
            eff / 1e6
        );
    }

    #[test]
    fn short_transfers_dominated_by_setup() {
        let bus = PciBus::pci_33mhz_32bit();
        let short = bus.effective_bytes_per_sec(64);
        let long = bus.effective_bytes_per_sec(1 << 20);
        assert!(short < long / 2.0, "short={short} long={long}");
    }
}
