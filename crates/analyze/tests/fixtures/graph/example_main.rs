//! Graph fixture: an example. Its items are entry points, so what only
//! it calls is live.

fn main() {
    let mut m = Meter::fresh();
    m.reset();
}
