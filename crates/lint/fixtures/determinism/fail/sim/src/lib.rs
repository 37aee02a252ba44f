//! Determinism fail fixture: wall-clock time, unordered maps and
//! thread-local state in a sim-facing crate.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

thread_local! {
    /// Buffers parked on the worker thread carry one trial's state into
    /// the next trial that runs there.
    static POOL: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Wall-clock reads make every run unrepeatable.
pub fn stamp() -> Instant {
    Instant::now()
}

/// HashMap iteration order varies per process; the trajectory drifts.
pub fn tally(loads: &[u32]) -> HashMap<u32, usize> {
    let mut by_load = HashMap::new();
    for &l in loads {
        *by_load.entry(l).or_insert(0) += 1;
    }
    by_load
}

/// Reuses whatever the previous trial on this thread left behind.
pub fn scratch(n: usize) -> Vec<u32> {
    let mut v = POOL.with(|pool| pool.borrow_mut().pop().unwrap_or_default());
    v.resize(n, 0);
    v
}
