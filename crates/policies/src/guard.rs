//! A herd-detecting circuit breaker around any selection policy
//! (overload-control extension).
//!
//! The paper's pathology is *herd behavior*: under stale information a
//! least-loaded style policy concentrates dispatches on whichever server
//! last advertised a short queue, and the concentration itself is what
//! collapses the system (§3, Fig. 1). The inner policy cannot see its own
//! herding — but the dispatcher can, by watching where its recent
//! decisions went. [`HerdGuard`] keeps a sliding window of routing counts,
//! scores their concentration against uniform, and demotes the inner
//! policy to uniform random while the score is pathological.

use staleload_sim::SimRng;

use crate::{LoadView, Policy, PolicyTelemetry};

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// Inner policy drives; routing counts are monitored.
    Closed,
    /// Tripped: uniform random until the cooldown expires at `until`.
    Open {
        /// Absolute time the cooldown ends.
        until: f64,
    },
    /// Probing: inner policy drives again, but one more pathological
    /// window re-opens immediately.
    HalfOpen,
}

/// Wraps an inner policy with a herd-score circuit breaker.
///
/// Every dispatch decided by the inner policy is tallied per server over a
/// window of `WINDOW_PER_SERVER × n` decisions. At the end of each window
/// the **herd score** is the normalized max-share
///
/// ```text
/// score = n · max_i(count_i) / total
/// ```
///
/// which is 1 for perfectly uniform routing and `n` when every job went to
/// one server. When the score crosses `threshold` the breaker *opens*:
/// dispatches fall back to uniform random (the paper's "no information"
/// limit — random cannot herd) for `cooldown` time units. It then goes
/// *half-open*: the inner policy drives again under observation, and a
/// clean window closes the breaker while another pathological one re-opens
/// it.
///
/// The guard learns time from [`Policy::observe_arrival`], which the
/// driver calls before every selection; it draws randomness only from the
/// shared policy stream (no extra forks), so wrapping a policy changes the
/// trajectory only when the breaker actually trips.
#[derive(Debug)]
pub struct HerdGuard<P> {
    inner: P,
    threshold: f64,
    cooldown: f64,
    state: State,
    counts: Vec<u64>,
    total: u64,
    now: f64,
    trips: u64,
}

/// Decisions per server in one scoring window. Large enough that uniform
/// routing rarely shows a spuriously high max-share at thresholds ≥ 2
/// (the per-server count is ≈ Poisson(16), so a window max twice the mean
/// is a > 3σ event), small enough to react within roughly one refresh
/// epoch at typical arrival rates.
const WINDOW_PER_SERVER: u64 = 16;

impl<P: Policy> HerdGuard<P> {
    /// Guards `inner` with trip `threshold` (a normalized max-share in
    /// `(1, n]`) and `cooldown` (simulation time units spent open).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not finite and > 1, or `cooldown` is not
    /// finite and positive.
    pub fn new(inner: P, threshold: f64, cooldown: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 1.0,
            "herd threshold must be finite and above 1 (uniform), got {threshold}"
        );
        assert!(
            cooldown.is_finite() && cooldown > 0.0,
            "guard cooldown must be finite and positive, got {cooldown}"
        );
        Self {
            inner,
            threshold,
            cooldown,
            state: State::Closed,
            counts: Vec::new(),
            total: 0,
            now: 0.0,
            trips: 0,
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// How many times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether the breaker is currently open (serving uniform random).
    pub fn is_open(&self) -> bool {
        matches!(self.state, State::Open { .. })
    }

    fn reset_window(&mut self, n: usize) {
        self.counts.clear();
        self.counts.resize(n, 0);
        self.total = 0;
    }

    /// Tallies a decision; at window end scores it and moves the state
    /// machine.
    fn record(&mut self, pick: usize, n: usize) {
        if self.counts.len() != n {
            self.reset_window(n);
        }
        self.counts[pick] += 1;
        self.total += 1;
        if self.total < WINDOW_PER_SERVER * n as u64 {
            return;
        }
        let max = self.counts.iter().copied().max().unwrap_or(0);
        let score = n as f64 * max as f64 / self.total as f64;
        if score > self.threshold {
            self.trips += 1;
            self.state = State::Open {
                until: self.now + self.cooldown,
            };
        } else {
            // A clean window closes a half-open breaker.
            self.state = State::Closed;
        }
        self.reset_window(n);
    }
}

impl<P: Policy> Policy for HerdGuard<P> {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        self.select_sized(view, 1.0, rng)
    }

    fn select_sized(&mut self, view: &LoadView<'_>, size: f64, rng: &mut SimRng) -> usize {
        let n = view.loads.len();
        if let State::Open { until } = self.state {
            if self.now < until {
                return rng.index(n);
            }
            self.state = State::HalfOpen;
            self.reset_window(n);
        }
        let pick = self.inner.select_sized(view, size, rng);
        self.record(pick, n);
        pick
    }

    fn observe_arrival(&mut self, now: f64) {
        self.now = now;
        self.inner.observe_arrival(now);
    }

    fn telemetry(&self) -> PolicyTelemetry {
        self.inner.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Greedy, InfoAge, Random};

    fn view<'a>(loads: &'a [u32]) -> LoadView<'a> {
        LoadView {
            loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: None,
        }
    }

    /// A pathological inner policy: always picks server 0.
    #[derive(Debug)]
    struct Pin;
    impl Policy for Pin {
        fn select(&mut self, _view: &LoadView<'_>, _rng: &mut SimRng) -> usize {
            0
        }
    }

    #[test]
    fn herding_inner_trips_the_breaker() {
        let mut rng = SimRng::from_seed(1);
        let mut guard = HerdGuard::new(Pin, 2.0, 10.0);
        let loads = [0u32; 4];
        // One full window (16 * 4 = 64 decisions) of pure herding trips it.
        for i in 0..64 {
            guard.observe_arrival(i as f64 * 0.01);
            assert_eq!(guard.select(&view(&loads), &mut rng), 0);
        }
        assert_eq!(guard.trips(), 1);
        assert!(guard.is_open());
        // While open (cooldown 10, now ~0.32) picks are uniform random.
        let mut seen = [0usize; 4];
        for i in 0..400 {
            guard.observe_arrival(0.4 + i as f64 * 0.001);
            seen[guard.select(&view(&loads), &mut rng)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 50), "open => uniform: {seen:?}");
    }

    #[test]
    fn uniform_inner_never_trips() {
        let mut rng = SimRng::from_seed(2);
        let mut guard = HerdGuard::new(Random, 2.5, 10.0);
        let loads = [0u32; 8];
        for i in 0..10_000 {
            guard.observe_arrival(i as f64 * 0.01);
            guard.select(&view(&loads), &mut rng);
        }
        assert_eq!(guard.trips(), 0);
        assert!(!guard.is_open());
    }

    #[test]
    fn half_open_reprobes_then_closes_or_reopens() {
        let mut rng = SimRng::from_seed(3);
        // Total concentration on n=2 scores exactly 2, so trip below it.
        let mut guard = HerdGuard::new(Pin, 1.8, 5.0);
        let loads = [0u32; 2];
        // Trip: one window (32 herded decisions) before t=1.
        for i in 0..32 {
            guard.observe_arrival(i as f64 * 0.01);
            guard.select(&view(&loads), &mut rng);
        }
        assert!(guard.is_open());
        // After the cooldown the breaker half-opens and Pin drives again —
        // and herds again, so it re-trips after one more window.
        for i in 0..32 {
            guard.observe_arrival(6.0 + i as f64 * 0.01);
            let pick = guard.select(&view(&loads), &mut rng);
            assert_eq!(pick, 0, "half-open probes the inner policy");
        }
        assert_eq!(guard.trips(), 2);
        assert!(guard.is_open());
    }

    #[test]
    fn greedy_on_static_view_herds_and_trips() {
        // Greedy on a never-updated board is the paper's herd in miniature.
        let mut rng = SimRng::from_seed(4);
        let mut guard = HerdGuard::new(Greedy::new(), 1.5, 100.0);
        let loads = [0u32, 5, 5, 5];
        for i in 0..64 {
            guard.observe_arrival(i as f64 * 0.01);
            guard.select(&view(&loads), &mut rng);
        }
        assert_eq!(guard.trips(), 1);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_at_uniform_is_rejected() {
        let _ = HerdGuard::new(Random, 1.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "cooldown")]
    fn non_positive_cooldown_is_rejected() {
        let _ = HerdGuard::new(Random, 2.0, 0.0);
    }
}
