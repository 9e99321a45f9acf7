//! Fixture: one registered and one unregistered name per family.
pub fn record(metrics: &mut Metrics, trace: &mut Trace, now: SimTime) {
    metrics.counter_add("clic.msgs_sent", 1); // registered: no finding
    metrics.counter_add("not.registered", 1); // metric-name finding
    metrics.histogram("also.not.registered"); // metric-name finding
    trace.begin(now, Layer::Clic, "driver_tx", 7); // registered: no finding
    trace.instant(now, Layer::Clic, "bogus_stage", 7); // stage-name finding
}

/// Compile-time interning resolvers are checked too.
const GOOD_ID: MetricId = catalog::metric_id("clic.msgs_sent"); // registered
const BAD_ID: MetricId = metric_id("interned.not.registered"); // metric-name finding
const BAD_STAGE: StageId = stage_id("interned_bogus_stage"); // stage-name finding
