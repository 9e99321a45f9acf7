//! Graph fixture for `dead-fn`: one fn of each reachability shape (see
//! the `dead_fn_*` tests in lints.rs).

pub struct Meter {
    n: u64,
}

impl Meter {
    /// Reached as a `Type::f` value path from the job entry point.
    pub fn fresh() -> Meter {
        Meter { n: 0 }
    }

    /// Reached only from the example.
    pub fn reset(&mut self) {
        self.n = 0;
    }

    /// Read only by a unit test: the one finding.
    pub fn peek(&self) -> u64 {
        self.n
    }
}

impl Tick for Meter {
    // Trait impls are dynamic-dispatch targets: never reported.
    fn tick(&mut self) {
        self.n += 1;
    }
}

/// Called by the job entry point.
pub fn live(m: &mut Meter) {
    m.n += 2;
}

/// Named only in a static table the job entry point reads.
fn via_table() {}

pub static TABLE: [fn(); 1] = [via_table];

#[cfg(test)]
mod tests {
    use super::*;

    // Test code is never reported.
    fn meter() -> Meter {
        Meter::fresh()
    }

    #[test]
    fn peeks() {
        assert_eq!(meter().peek(), 0);
    }
}
