//! The load history behind delayed (stale) views.

use std::collections::VecDeque;

/// Fewest load changes between two snapshots: a snapshot follows every
/// `max(n, 16)` records (see *Checkpointed change log* in `ALGORITHMS.md`),
/// so at small `n` a snapshot's bookkeeping and a block's slot and buffers
/// are shared by enough records.
const MIN_RECORDS_PER_SNAPSHOT: usize = 16;

/// One load change: `server`'s load became `load` at time `t`.
#[derive(Debug, Clone, Copy)]
struct Change {
    t: f64,
    server: u32,
    load: u32,
}

/// A full load snapshot and the changes recorded after it.
#[derive(Debug, Clone, Default)]
struct Block {
    /// Time of the last change before the snapshot (`-inf` for the initial,
    /// all-idle snapshot).
    start: f64,
    /// Every server's load as of `start`.
    loads: Vec<u32>,
    /// The changes recorded after the snapshot, oldest first (at most
    /// `max(n, 16)`).
    changes: Vec<Change>,
}

/// A record of the cluster's load changes over a sliding window of time.
///
/// The continuous-update model of old information (paper §3.1) lets every
/// arriving job observe the *exact* system state some delay `d` in the past.
/// `LoadHistory` answers that query precisely from one time-ordered change
/// log `(time, server, load)`, cut into blocks by a full load snapshot every
/// `max(n, 16)` records. A query copies the newest snapshot at or before its
/// time and replays at most `max(n, 16)` records, so a whole delayed view
/// costs `O(n)`.
///
/// Pruning keeps the newest snapshot at or before `now − keep_window` and
/// everything after it, so every query inside the window is exact. A query
/// older than the retained window is answered from the oldest retained
/// snapshot and counts one miss per server in [`LoadHistory::misses`], so a
/// simulation can verify that its window was wide enough (the drivers in
/// `staleload-core` assert this in tests). Only a delay longer than the
/// window reaches that path: `e^-40` per query for exponential delays.
#[derive(Debug, Clone)]
pub struct LoadHistory {
    /// The retained blocks, oldest first; never empty.
    blocks: VecDeque<Block>,
    /// Pruned blocks whose buffers the next snapshot reuses.
    spare: Vec<Block>,
    /// Every server's current load.
    live: Vec<u32>,
    keep_window: f64,
    misses: u64,
}

impl LoadHistory {
    /// Creates a history for `n` servers retaining roughly `keep_window`
    /// time units of changes.
    ///
    /// # Panics
    ///
    /// Panics if `keep_window` is negative or NaN.
    pub fn new(n: usize, keep_window: f64) -> Self {
        assert!(keep_window >= 0.0, "keep_window must be non-negative");
        let mut history = Self {
            blocks: VecDeque::new(),
            spare: Vec::new(),
            live: vec![0; n],
            keep_window,
            misses: 0,
        };
        history.push_snapshot(f64::NEG_INFINITY);
        history
    }

    /// Records that `server`'s load became `load` at time `now`.
    ///
    /// Times must be non-decreasing across all servers (simulation time
    /// never runs backwards).
    pub fn record(&mut self, server: usize, now: f64, load: u32) {
        self.live[server] = load;
        let spacing = self.spacing();
        let newest = self.blocks.len() - 1; // `new` pushes a block; pruning keeps one
        let newest = &mut self.blocks[newest];
        debug_assert!(
            newest.changes.last().map_or(newest.start, |c| c.t) <= now,
            "history time went backwards"
        );
        newest.changes.push(Change {
            t: now,
            server: server as u32,
            load,
        });
        if newest.changes.len() >= spacing {
            self.push_snapshot(now);
            // Block 0 is only needed while block 1's snapshot is newer than
            // the window start.
            let horizon = now - self.keep_window;
            while self.blocks.len() >= 2 && self.blocks[1].start <= horizon {
                if let Some(old) = self.blocks.pop_front() {
                    self.spare.push(old);
                }
            }
        }
    }

    /// Fills `out` with every server's load as of time `at`.
    pub fn fill_loads_at(&mut self, at: f64, out: &mut Vec<u32>) {
        out.clear();
        let newer = self.blocks.partition_point(|b| b.start <= at);
        let Some(block) = newer.checked_sub(1).map(|i| &self.blocks[i]) else {
            // Pruned past `at`: best effort from the oldest snapshot, counted.
            self.misses += self.live.len() as u64;
            out.extend_from_slice(&self.blocks[0].loads);
            return;
        };
        out.extend_from_slice(&block.loads);
        // The next block's snapshot is after `at`, so the changes up to `at`
        // all lie in this block.
        let end = block.changes.partition_point(|c| c.t <= at);
        for c in &block.changes[..end] {
            out[c.server as usize] = c.load;
        }
    }

    /// Number of per-server answers that were inexact because the query fell
    /// before the retained window.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Starts a new block with a snapshot of the live loads as of `start`.
    fn push_snapshot(&mut self, start: f64) {
        let mut block = self.spare.pop().unwrap_or_default();
        block.start = start;
        block.loads.clear();
        block.loads.extend_from_slice(&self.live);
        block.changes.clear();
        block.changes.reserve_exact(self.spacing());
        self.blocks.push_back(block);
    }

    /// Records per block: `max(n, 16)`.
    fn spacing(&self) -> usize {
        self.live.len().max(MIN_RECORDS_PER_SNAPSHOT)
    }

    /// Number of retained change records.
    #[cfg(test)]
    fn retained(&self) -> usize {
        self.blocks.iter().map(|b| b.changes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads_at(h: &mut LoadHistory, at: f64) -> Vec<u32> {
        let mut out = Vec::new();
        h.fill_loads_at(at, &mut out);
        out
    }

    #[test]
    fn fill_loads_at_steps_through_changes() {
        let mut h = LoadHistory::new(1, 1e9);
        h.record(0, 1.0, 1);
        h.record(0, 2.0, 2);
        h.record(0, 3.0, 1);
        assert_eq!(loads_at(&mut h, 0.5), [0]);
        assert_eq!(loads_at(&mut h, 1.0), [1]);
        assert_eq!(loads_at(&mut h, 1.9), [1]);
        assert_eq!(loads_at(&mut h, 2.0), [2]);
        assert_eq!(loads_at(&mut h, 2.5), [2]);
        assert_eq!(loads_at(&mut h, 10.0), [1]);
        assert_eq!(h.misses(), 0);
    }

    #[test]
    fn simultaneous_changes_resolve_to_the_last() {
        let mut h = LoadHistory::new(2, 1e9);
        for load in 1..=9 {
            h.record(0, 1.0, load);
        }
        h.record(1, 1.0, 4);
        assert_eq!(loads_at(&mut h, 0.999), [0, 0]);
        assert_eq!(loads_at(&mut h, 1.0), [9, 4]);
    }

    #[test]
    fn pruning_keeps_window_queries_exact() {
        let mut h = LoadHistory::new(1, 10.0);
        for i in 0..1000 {
            let t = i as f64;
            h.record(0, t, (i % 5 + 1) as u32);
        }
        // Queries inside the window: exact.
        assert_eq!(loads_at(&mut h, 995.5), [1]); // 995 % 5 + 1
        assert_eq!(loads_at(&mut h, 992.3), [(992 % 5 + 1) as u32]);
        assert_eq!(loads_at(&mut h, 989.0), [(989 % 5 + 1) as u32]);
        assert_eq!(h.misses(), 0);
    }

    #[test]
    fn pruning_bounds_memory() {
        let mut h = LoadHistory::new(1, 5.0);
        for i in 0..100_000 {
            h.record(0, i as f64 * 0.01, 1 + (i % 3) as u32);
        }
        // 5.0 time units at 0.01 spacing is ~500 records, plus slack.
        assert!(h.retained() < 1000, "retained {}", h.retained());
    }

    #[test]
    fn miss_counter_detects_too_old_queries() {
        let mut h = LoadHistory::new(1, 1.0);
        for i in 0..100 {
            h.record(0, i as f64, 2 + (i % 3) as u32);
        }
        let mut out = Vec::new();
        h.fill_loads_at(0.5, &mut out);
        assert!(h.misses() > 0);
    }

    #[test]
    fn a_pruned_query_reads_the_oldest_snapshot_and_misses_once_per_server() {
        let mut h = LoadHistory::new(3, 2.0);
        for i in 0..300u32 {
            h.record((i % 3) as usize, f64::from(i), i);
        }
        let oldest = h.blocks[0].clone();
        assert!(oldest.start > 10.0, "the early blocks were pruned");
        assert_eq!(loads_at(&mut h, 10.0), oldest.loads);
        assert_eq!(h.misses(), 3);
    }

    #[test]
    fn before_first_event_is_idle() {
        let mut h = LoadHistory::new(2, 100.0);
        h.record(0, 5.0, 1);
        assert_eq!(loads_at(&mut h, 1.0), [0, 0]);
        assert_eq!(h.misses(), 0);
    }
}
