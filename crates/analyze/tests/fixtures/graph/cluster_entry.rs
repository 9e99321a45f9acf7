//! Graph fixture: the job entry point of the `dead-fn` workspace.

pub fn run_job(seed: Option<Meter>) -> u64 {
    let mut m = seed.unwrap_or_else(Meter::fresh);
    live(&mut m);
    for f in TABLE.iter() {
        f();
    }
    0
}
