//! Fixture: the `Sim::record` call shape. `a.live` is recorded only
//! through `record`; `a.dead` is interned but never recorded.
const LIVE: MetricId = metric_id("a.live");
const DEAD: MetricId = metric_id("a.dead");

pub fn on_enqueue(sim: &mut Sim, depth: usize) {
    sim.record(LIVE, depth as u64);
}
