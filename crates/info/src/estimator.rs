//! What a periodic board entry publishes: the raw sample or a smoothed
//! load estimate (the tail-latency extension).
//!
//! The paper's board publishes the raw phase-start snapshot. A
//! [`crate::PeriodicBoard`] can instead publish, on the same refresh
//! schedule,
//!
//! * an exponentially weighted moving average of each server's sampled
//!   loads: `est ← α·sample + (1−α)·est` (the first sample initializes);
//! * the equal-weight blend of the sample means over three look-back
//!   horizons (Unix load-average style, e.g. 1/5/15 periods), so
//!   transient spikes are discounted against the longer-term trend.
//!
//! Both are deterministic — no RNG, no wall clock — and publish rounded
//! `u32` loads so policies see the same integer board shape as the raw
//! board. A crashed or partitioned server contributes no sample, so its
//! estimator state freezes and its entry decays in place, its age
//! growing until the server reports again.

use std::collections::VecDeque;

/// The value a periodic board entry publishes for a server's samples.
#[derive(Debug, Clone)]
pub(crate) enum Estimate {
    /// The sample itself (the paper's board).
    Raw,
    /// An EWMA with weight `alpha` on the newest sample.
    Ewma {
        alpha: f64,
        /// Current estimate per server; NaN until the first sample.
        est: Vec<f64>,
    },
    /// The blend of the sample means over three horizons (in time
    /// units, strictly increasing).
    MultiHorizon {
        windows: [f64; 3],
        /// Per-server `(sample time, sample)` history, oldest first,
        /// trimmed to the longest window each sample.
        history: Vec<VecDeque<(f64, f64)>>,
    },
}

impl Estimate {
    /// An EWMA over `n` servers with weight `alpha` on the newest sample.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` (α = 1 degenerates to the
    /// raw board, a useful identity check; α = 0 would never observe
    /// anything).
    pub fn ewma(n: usize, alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "EWMA weight must be in (0, 1], got {alpha}"
        );
        Self::Ewma {
            alpha,
            est: vec![f64::NAN; n],
        }
    }

    /// A blend over `n` servers of the moving averages over `windows`.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is not positive, finite, and strictly
    /// increasing.
    pub fn multi_horizon(n: usize, windows: [f64; 3]) -> Self {
        assert!(
            windows.iter().all(|w| w.is_finite() && *w > 0.0),
            "horizon windows must be positive and finite, got {windows:?}"
        );
        assert!(
            windows[0] < windows[1] && windows[1] < windows[2],
            "horizon windows must be strictly increasing, got {windows:?}"
        );
        Self::MultiHorizon {
            windows,
            history: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Folds `sample`, taken from `server` at `now`, into the estimate
    /// and returns the value the entry publishes.
    pub fn publish(&mut self, server: usize, sample: u32, now: f64) -> u32 {
        match self {
            Self::Raw => sample,
            Self::Ewma { alpha, est } => {
                let sample = f64::from(sample);
                let est = &mut est[server];
                *est = if est.is_nan() {
                    sample
                } else {
                    *alpha * sample + (1.0 - *alpha) * *est
                };
                // Round-half-up to the integer board shape policies expect.
                est.round() as u32
            }
            Self::MultiHorizon { windows, history } => {
                let history = &mut history[server];
                history.push_back((now, f64::from(sample)));
                // A horizon `w` sees the half-open interval `(now − w, now]`:
                // with period-aligned samples, a window of k periods covers
                // exactly the k newest samples. Trim what the longest horizon
                // can no longer see.
                while history.front().is_some_and(|&(t, _)| t <= now - windows[2]) {
                    history.pop_front();
                }
                // One pass, summing oldest→newest per horizon — a fixed
                // association, so the blend is bit-deterministic.
                let mut sums = [0.0f64; 3];
                let mut counts = [0u64; 3];
                for &(t, sample) in history.iter() {
                    for (k, &w) in windows.iter().enumerate() {
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
                blend.round() as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{InfoModel, PeriodicBoard};
    use staleload_cluster::{Cluster, Job};
    use staleload_policies::InfoAge;
    use staleload_sim::SimRng;

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
        let mut board = PeriodicBoard::ewma(2, 10.0, 0.5);
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
        let mut board = PeriodicBoard::ewma(3, 5.0, 1.0);
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
        let mut board = PeriodicBoard::ewma(2, 10.0, 0.5);
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
        let mut board = PeriodicBoard::ewma(2, 10.0, 0.3);
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
        let mut board = PeriodicBoard::multi_horizon(1, 10.0, [10.0, 20.0, 30.0]);
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
        let mut board = PeriodicBoard::multi_horizon(1, 1.0, [1.0, 5.0, 15.0]);
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
            let mut rng = SimRng::from_seed(1);
            let mut cluster = loaded_cluster(3, &[1, 4, 2]);
            let mut e = PeriodicBoard::ewma(3, 2.0, 0.25);
            let mut m = PeriodicBoard::multi_horizon(3, 2.0, [2.0, 4.0, 8.0]);
            for t in 1..=20 {
                e.on_event(f64::from(t) * 2.0, &cluster);
                m.on_event(f64::from(t) * 2.0, &cluster);
            }
            (
                e.view(40.0, 0, &mut cluster, &mut rng).loads.to_vec(),
                m.view(40.0, 0, &mut cluster, &mut rng).loads.to_vec(),
            )
        };
        assert_eq!(make(), make());
    }

    #[test]
    #[should_panic(expected = "EWMA weight")]
    fn ewma_rejects_zero_alpha() {
        let _ = PeriodicBoard::ewma(2, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn multi_horizon_rejects_unsorted_windows() {
        let _ = PeriodicBoard::multi_horizon(2, 1.0, [5.0, 2.0, 8.0]);
    }
}
