//! Graph fixture: panicking helper plus an orphaned metric recorder.

pub fn slot_lookup(tbl: &Table) -> u32 {
    tbl.slot().unwrap()
}

fn orphan_probe(sim: &mut Sim) {
    sim.record(SENT, 1);
}

const SENT: MetricId = metric_id("clic.msgs_sent");
