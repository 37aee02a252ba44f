//! Smoothing load estimators over the periodic bulletin board (ISSUE 8).
//!
//! The paper's periodic board publishes the raw phase-start snapshot;
//! these boards publish a *filtered* load signal instead, on the same
//! refresh schedule:
//!
//! * [`EwmaBoard`] — each entry is an exponentially weighted moving
//!   average of that server's sampled loads:
//!   `est ← α·sample + (1−α)·est` (the first sample initializes).
//! * [`MultiHorizonBoard`] — each entry is the equal-weight blend of the
//!   sample means over three look-back horizons (Unix load-average
//!   style, e.g. 1/5/15 periods), so transient spikes are discounted
//!   against the longer-term trend.
//!
//! Both are deterministic — no RNG, no wall clock — and publish rounded
//! `u32` loads so policies see the same integer board shape as the
//! snapshot models. A crashed or partitioned server contributes no
//! sample and its estimator state freezes; the entry decays in place
//! exactly like [`crate::PeriodicBoard`]'s, with its per-entry age
//! growing until the server reports again.

use std::collections::VecDeque;

use staleload_cluster::Cluster;
use staleload_policies::{EntryAges, InfoAge, LoadView};
use staleload_sim::SimRng;

use crate::InfoModel;

/// Shared periodic-refresh scaffolding: board values, per-entry sample
/// times, and the phase/epoch bookkeeping policies key their caches on.
#[derive(Debug, Clone)]
struct BoardCore {
    period: f64,
    board: Vec<u32>,
    entry_times: Vec<f64>,
    phase_start: f64,
    epoch: u64,
}

impl BoardCore {
    fn new(n: usize, period: f64) -> Self {
        assert!(n > 0, "need at least one server");
        assert!(
            period.is_finite() && period > 0.0,
            "period must be positive, got {period}"
        );
        Self {
            period,
            board: vec![0; n],
            entry_times: vec![0.0; n],
            phase_start: 0.0,
            epoch: 0,
        }
    }

    /// The view at `now`; no per-server work (ages are read lazily).
    fn view(&self, now: f64) -> LoadView<'_> {
        LoadView {
            loads: &self.board,
            info: InfoAge::Phase {
                start: self.phase_start,
                length: self.period,
                now,
                epoch: self.epoch,
            },
            ages: Some(EntryAges {
                sampled: &self.entry_times,
                now,
            }),
        }
    }
}

/// A bulletin board that publishes per-server EWMA load estimates every
/// `period` time units.
#[derive(Debug, Clone)]
pub struct EwmaBoard {
    core: BoardCore,
    alpha: f64,
    /// Current estimate per server; NaN until the first sample lands.
    est: Vec<f64>,
}

impl EwmaBoard {
    /// Creates a board for `n` servers, sampling every `period` and
    /// smoothing with weight `alpha` on the newest sample.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `period` is not positive and finite, or
    /// `alpha` is outside `(0, 1]` (α = 1 degenerates to the raw
    /// periodic snapshot, a useful identity check; α = 0 would never
    /// observe anything).
    pub fn new(n: usize, period: f64, alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "EWMA weight must be in (0, 1], got {alpha}"
        );
        Self {
            core: BoardCore::new(n, period),
            alpha,
            est: vec![f64::NAN; n],
        }
    }

    /// The smoothing weight α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The refresh period `T`.
    pub fn period(&self) -> f64 {
        self.core.period
    }
}

impl InfoModel for EwmaBoard {
    fn next_event(&self) -> Option<f64> {
        Some(self.core.phase_start + self.core.period)
    }

    fn on_event(&mut self, now: f64, cluster: &Cluster) {
        for server in 0..self.core.board.len() {
            // A down or partitioned server sends no sample: its estimate
            // freezes and the entry decays in place.
            if !cluster.is_up(server) || !cluster.is_visible(server) {
                continue;
            }
            let sample = f64::from(cluster.load(server));
            let est = &mut self.est[server];
            *est = if est.is_nan() {
                sample
            } else {
                self.alpha * sample + (1.0 - self.alpha) * *est
            };
            // Round-half-up to the integer board shape policies expect.
            self.core.board[server] = est.round() as u32;
            self.core.entry_times[server] = now;
        }
        self.core.phase_start = now;
        self.core.epoch += 1;
    }

    fn view<'a>(
        &'a mut self,
        now: f64,
        _client: usize,
        _cluster: &'a mut Cluster,
        _rng: &mut SimRng,
    ) -> LoadView<'a> {
        self.core.view(now)
    }

    fn after_placement(&mut self, _now: f64, _client: usize, _cluster: &Cluster) {}

    fn required_history_window(&self) -> Option<f64> {
        None
    }
}

/// A bulletin board that publishes, every `period`, the equal-weight
/// blend of each server's mean sampled load over three look-back
/// horizons (`windows`, in simulation time units, strictly increasing).
#[derive(Debug, Clone)]
pub struct MultiHorizonBoard {
    core: BoardCore,
    windows: [f64; 3],
    /// Per-server `(sample time, sample)` history, oldest first, trimmed
    /// to the longest window each refresh.
    history: Vec<VecDeque<(f64, f64)>>,
}

impl MultiHorizonBoard {
    /// Creates a board for `n` servers sampling every `period`, blending
    /// moving averages over the three `windows`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `period` is not positive and finite, or
    /// `windows` is not positive, finite, and strictly increasing.
    pub fn new(n: usize, period: f64, windows: [f64; 3]) -> Self {
        assert!(
            windows.iter().all(|w| w.is_finite() && *w > 0.0),
            "horizon windows must be positive and finite, got {windows:?}"
        );
        assert!(
            windows[0] < windows[1] && windows[1] < windows[2],
            "horizon windows must be strictly increasing, got {windows:?}"
        );
        Self {
            core: BoardCore::new(n, period),
            windows,
            history: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// The look-back horizons, shortest first.
    pub fn windows(&self) -> [f64; 3] {
        self.windows
    }

    /// The refresh period `T`.
    pub fn period(&self) -> f64 {
        self.core.period
    }
}

impl InfoModel for MultiHorizonBoard {
    fn next_event(&self) -> Option<f64> {
        Some(self.core.phase_start + self.core.period)
    }

    fn on_event(&mut self, now: f64, cluster: &Cluster) {
        let longest = self.windows[2];
        for server in 0..self.core.board.len() {
            if !cluster.is_up(server) || !cluster.is_visible(server) {
                continue;
            }
            let history = &mut self.history[server];
            history.push_back((now, f64::from(cluster.load(server))));
            // A horizon `w` sees the half-open interval `(now − w, now]`:
            // with period-aligned samples, a window of k periods covers
            // exactly the k newest samples. Trim what the longest horizon
            // can no longer see.
            while history.front().is_some_and(|&(t, _)| t <= now - longest) {
                history.pop_front();
            }
            // One pass, summing oldest→newest per horizon — a fixed
            // association, so the blend is bit-deterministic.
            let mut sums = [0.0f64; 3];
            let mut counts = [0u64; 3];
            for &(t, sample) in history.iter() {
                for (k, &w) in self.windows.iter().enumerate() {
                    if t > now - w {
                        sums[k] += sample;
                        counts[k] += 1;
                    }
                }
            }
            let mut blend = 0.0;
            for k in 0..3 {
                // The newest sample is always inside every window, so
                // counts[k] ≥ 1 here.
                blend += sums[k] / counts[k] as f64;
            }
            blend /= 3.0;
            self.core.board[server] = blend.round() as u32;
            self.core.entry_times[server] = now;
        }
        self.core.phase_start = now;
        self.core.epoch += 1;
    }

    fn view<'a>(
        &'a mut self,
        now: f64,
        _client: usize,
        _cluster: &'a mut Cluster,
        _rng: &mut SimRng,
    ) -> LoadView<'a> {
        self.core.view(now)
    }

    fn after_placement(&mut self, _now: f64, _client: usize, _cluster: &Cluster) {}

    fn required_history_window(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staleload_cluster::Job;

    fn loaded_cluster(n: usize, loads: &[usize]) -> Cluster {
        let mut cluster = Cluster::new(n);
        let mut id = 0;
        for (server, &count) in loads.iter().enumerate() {
            for _ in 0..count {
                cluster.enqueue(server, Job::new(id, 0.1, 1_000.0), 0.1);
                id += 1;
            }
        }
        cluster
    }

    #[test]
    fn ewma_first_sample_initializes_then_smooths() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = loaded_cluster(2, &[4, 0]);
        let mut board = EwmaBoard::new(2, 10.0, 0.5);
        assert_eq!(board.next_event(), Some(10.0));
        board.on_event(10.0, &cluster);
        // First sample initializes: est = 4.
        assert_eq!(board.view(10.0, 0, &mut cluster, &mut rng).loads, &[4, 0]);
        // Load drops to 0; est = 0.5·0 + 0.5·4 = 2.
        for _ in 0..4 {
            cluster.complete(0, 20.0);
        }
        board.on_event(20.0, &cluster);
        assert_eq!(board.view(20.0, 0, &mut cluster, &mut rng).loads, &[2, 0]);
        // est = 0.5·0 + 0.5·2 = 1.
        board.on_event(30.0, &cluster);
        assert_eq!(board.view(30.0, 0, &mut cluster, &mut rng).loads, &[1, 0]);
    }

    #[test]
    fn ewma_alpha_one_matches_raw_snapshots() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = loaded_cluster(3, &[2, 5, 0]);
        let mut board = EwmaBoard::new(3, 5.0, 1.0);
        board.on_event(5.0, &cluster);
        assert_eq!(
            board.view(5.0, 0, &mut cluster, &mut rng).loads,
            &[2, 5, 0],
            "α = 1 keeps no memory: the board is the snapshot"
        );
    }

    #[test]
    fn ewma_down_server_entry_freezes_and_ages() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = loaded_cluster(2, &[3, 3]);
        let mut board = EwmaBoard::new(2, 10.0, 0.5);
        board.on_event(10.0, &cluster);
        cluster.crash(1, 12.0);
        board.on_event(20.0, &cluster);
        let view = board.view(20.0, 0, &mut cluster, &mut rng);
        assert_eq!(view.loads[1], 3, "crashed server's entry keeps its value");
        let ages = view.ages.expect("estimator boards report ages");
        assert_eq!(ages.get(0), 0.0);
        assert_eq!(ages.get(1), 10.0, "stale entry's age keeps growing");
    }

    #[test]
    fn ewma_phase_metadata_matches_periodic_shape() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = loaded_cluster(2, &[0, 0]);
        let mut board = EwmaBoard::new(2, 10.0, 0.3);
        board.on_event(10.0, &cluster);
        match board.view(12.5, 0, &mut cluster, &mut rng).info {
            InfoAge::Phase {
                start,
                length,
                now,
                epoch,
            } => {
                assert_eq!(start, 10.0);
                assert_eq!(length, 10.0);
                assert_eq!(now, 12.5);
                assert_eq!(epoch, 1);
            }
            other => panic!("expected phase info, got {other:?}"),
        }
    }

    #[test]
    fn multi_horizon_blends_window_means() {
        let mut rng = SimRng::from_seed(1);
        // Windows of 1/2/3 periods: after samples 6, 0, 0 (newest last)
        // the means are 0 (last 1), 0 (last 2), 2 (last 3) → blend 2/3 → 1.
        let mut cluster = loaded_cluster(1, &[6]);
        let mut board = MultiHorizonBoard::new(1, 10.0, [10.0, 20.0, 30.0]);
        board.on_event(10.0, &cluster);
        assert_eq!(board.view(10.0, 0, &mut cluster, &mut rng).loads, &[6]);
        for _ in 0..6 {
            cluster.complete(0, 15.0);
        }
        board.on_event(20.0, &cluster);
        // Means: last-10 = 0, last-20 = 3, last-30 = 3 → blend 2.
        assert_eq!(board.view(20.0, 0, &mut cluster, &mut rng).loads, &[2]);
        board.on_event(30.0, &cluster);
        // Means: 0, 0, 2 → blend 2/3 rounds to 1.
        assert_eq!(board.view(30.0, 0, &mut cluster, &mut rng).loads, &[1]);
        board.on_event(40.0, &cluster);
        // The spike has left every window: all means 0.
        assert_eq!(board.view(40.0, 0, &mut cluster, &mut rng).loads, &[0]);
    }

    #[test]
    fn multi_horizon_discounts_a_transient_spike() {
        let mut rng = SimRng::from_seed(1);
        let mut quiet = loaded_cluster(1, &[0]);
        let mut board = MultiHorizonBoard::new(1, 1.0, [1.0, 5.0, 15.0]);
        for t in 1..=10 {
            board.on_event(f64::from(t), &quiet);
        }
        // A one-period spike of 9 jobs.
        let spike = loaded_cluster(1, &[9]);
        board.on_event(11.0, &spike);
        let published = board.view(11.0, 0, &mut quiet, &mut rng).loads[0];
        assert!(
            published < 9,
            "the blend must discount the spike, got {published}"
        );
        assert!(published >= 1, "but not erase it, got {published}");
    }

    #[test]
    fn estimators_are_deterministic() {
        let make = || {
            let cluster = loaded_cluster(3, &[1, 4, 2]);
            let mut e = EwmaBoard::new(3, 2.0, 0.25);
            let mut m = MultiHorizonBoard::new(3, 2.0, [2.0, 4.0, 8.0]);
            for t in 1..=20 {
                e.on_event(f64::from(t) * 2.0, &cluster);
                m.on_event(f64::from(t) * 2.0, &cluster);
            }
            (e.core.board.clone(), m.core.board.clone())
        };
        assert_eq!(make(), make());
    }

    #[test]
    #[should_panic(expected = "EWMA weight")]
    fn ewma_rejects_zero_alpha() {
        let _ = EwmaBoard::new(2, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn multi_horizon_rejects_unsorted_windows() {
        let _ = MultiHorizonBoard::new(2, 1.0, [5.0, 2.0, 8.0]);
    }
}
