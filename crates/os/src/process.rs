//! Minimal process bookkeeping.
//!
//! Protocol layers own their wait queues (a blocked `recv` parks a
//! continuation with the protocol); the process table tracks identity and
//! run state so wakeups can charge scheduler/context-switch time and tests
//! can assert on multiprogramming behaviour.

use std::collections::BTreeMap;

/// Process identifier, unique within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// Run state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Runnable or running.
    Running,
    /// Parked waiting for a message or event.
    Blocked,
}

#[derive(Debug)]
struct Proc {
    state: ProcState,
    wakeups: u64,
}

/// The per-node process table.
#[derive(Debug, Default)]
pub struct ProcessTable {
    next: u32,
    procs: BTreeMap<Pid, Proc>,
}

impl ProcessTable {
    /// New empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a process.
    pub fn spawn(&mut self) -> Pid {
        let pid = Pid(self.next);
        self.next += 1;
        self.procs.insert(
            pid,
            Proc {
                state: ProcState::Running,
                wakeups: 0,
            },
        );
        pid
    }

    /// Current state, `None` for unknown pids.
    #[cfg(test)]
    pub fn state(&self, pid: Pid) -> Option<ProcState> {
        self.procs.get(&pid).map(|p| p.state)
    }

    /// Mark blocked (idempotent).
    pub fn block(&mut self, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.state = ProcState::Blocked;
        }
    }

    /// Mark runnable; returns true if the process was blocked (i.e. a real
    /// wakeup that costs a context switch).
    pub fn wake(&mut self, pid: Pid) -> bool {
        match self.procs.get_mut(&pid) {
            Some(p) if p.state == ProcState::Blocked => {
                p.state = ProcState::Running;
                p.wakeups += 1;
                true
            }
            _ => false,
        }
    }

    /// Number of wakeups the process has experienced.
    #[cfg(test)]
    pub fn wakeups(&self, pid: Pid) -> u64 {
        self.procs.get(&pid).map(|p| p.wakeups).unwrap_or(0)
    }

    /// Number of registered processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True when no process is registered.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_assigns_unique_pids() {
        let mut t = ProcessTable::new();
        let a = t.spawn();
        let b = t.spawn();
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.state(a), Some(ProcState::Running));
    }

    #[test]
    fn block_wake_cycle() {
        let mut t = ProcessTable::new();
        let p = t.spawn();
        t.block(p);
        assert_eq!(t.state(p), Some(ProcState::Blocked));
        assert!(t.wake(p));
        assert_eq!(t.state(p), Some(ProcState::Running));
        assert_eq!(t.wakeups(p), 1);
        // Waking a running process is a no-op.
        assert!(!t.wake(p));
        assert_eq!(t.wakeups(p), 1);
    }

    #[test]
    fn unknown_pid_is_none() {
        let t = ProcessTable::new();
        assert_eq!(t.state(Pid(99)), None);
    }
}
