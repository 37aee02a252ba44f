//! A suspicion-based server quarantine around any selection policy
//! (degraded-information extension).
//!
//! [`crate::StalenessGate`] hides stale *entries* per decision but keeps
//! trusting a server the instant one report arrives — even one garbled
//! report re-baits the herd. [`Quarantine`] is the information-plane
//! analogue of [`crate::HerdGuard`]'s circuit breaker, but per *server*:
//! a server whose reports have been missing longer than a suspicion
//! window is ejected from the candidate set entirely, and is only
//! readmitted after a probe at the end of an exponentially backed-off
//! quarantine interval finds its reports flowing again.

use staleload_sim::SimRng;

use crate::{LoadView, Policy, PolicyTelemetry};

/// Per-server quarantine state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum QState {
    /// Reports flowing; the server is a normal candidate.
    Healthy,
    /// Ejected: never selected until the interval ends at `until`, at
    /// which point the entry age is probed — fresh readmits the server,
    /// still-missing re-quarantines it with `backoff` doubled.
    Quarantined {
        /// Absolute time the quarantine interval ends.
        until: f64,
        /// Length of the *next* interval if the probe fails.
        backoff: f64,
    },
}

/// Wraps an inner policy, ejecting servers whose reports go missing.
///
/// Every selection re-scores each server's [`LoadView::entry_age`]
/// against the suspicion `window`:
///
/// * a healthy server whose entry age exceeds the window is **ejected**
///   for `backoff` time units;
/// * when a quarantine interval expires the entry age is **probed**: if a
///   report has landed within the window the server is readmitted,
///   otherwise the quarantine restarts with the interval doubled
///   (exponential backoff, so a long-partitioned server is probed ever
///   more lazily instead of flapping).
///
/// The inner policy still sees the full view; only when its pick is
/// currently quarantined does the wrapper override it with a uniform
/// random draw over the non-quarantined servers — the "fall back to
/// Random over the healthy set" degradation, reusing the paper's insight
/// that no information beats wrong information. If *every* server is
/// quarantined the wrapper fails open and keeps the inner policy's pick.
///
/// The wrapper learns time from [`Policy::observe_arrival`] and draws
/// from the shared policy stream only when it actually overrides a pick,
/// so wrapping a policy changes the trajectory only when a server is
/// ejected ([`FaultSpec::none` runs are bit-identical][fs]).
///
/// [fs]: crate::PolicySpec::Quarantined
#[derive(Debug)]
pub struct Quarantine<P> {
    inner: P,
    window: f64,
    backoff: f64,
    states: Vec<QState>,
    now: f64,
    ejections: u64,
    readmissions: u64,
}

impl<P: Policy> Quarantine<P> {
    /// Quarantines servers for `inner` with suspicion `window` and initial
    /// quarantine interval `backoff` (both in simulation time units).
    ///
    /// # Panics
    ///
    /// Panics if `window` or `backoff` is not finite and positive.
    pub fn new(inner: P, window: f64, backoff: f64) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "quarantine window must be finite and positive, got {window}"
        );
        assert!(
            backoff.is_finite() && backoff > 0.0,
            "quarantine backoff must be finite and positive, got {backoff}"
        );
        Self {
            inner,
            window,
            backoff,
            states: Vec::new(),
            now: 0.0,
            ejections: 0,
            readmissions: 0,
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Servers ejected so far (a failed probe extends the existing
    /// quarantine rather than counting a fresh ejection).
    pub fn ejections(&self) -> u64 {
        self.ejections
    }

    /// Servers readmitted after a successful probe.
    pub fn readmissions(&self) -> u64 {
        self.readmissions
    }

    /// Number of servers currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, QState::Quarantined { .. }))
            .count()
    }

    /// Advances every server's suspicion state machine against the view.
    fn rescore(&mut self, view: &LoadView<'_>) {
        let n = view.loads.len();
        if self.states.len() != n {
            self.states.clear();
            self.states.resize(n, QState::Healthy);
        }
        for (server, state) in self.states.iter_mut().enumerate() {
            let age = view.entry_age(server);
            match *state {
                QState::Healthy => {
                    if age > self.window {
                        self.ejections += 1;
                        *state = QState::Quarantined {
                            until: self.now + self.backoff,
                            backoff: self.backoff,
                        };
                    }
                }
                QState::Quarantined { until, backoff } => {
                    if self.now >= until {
                        if age <= self.window {
                            self.readmissions += 1;
                            *state = QState::Healthy;
                        } else {
                            // Probe failed: back off exponentially.
                            *state = QState::Quarantined {
                                until: self.now + backoff * 2.0,
                                backoff: backoff * 2.0,
                            };
                        }
                    }
                }
            }
        }
    }
}

impl<P: Policy> Policy for Quarantine<P> {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        self.select_sized(view, 1.0, rng)
    }

    fn select_sized(&mut self, view: &LoadView<'_>, size: f64, rng: &mut SimRng) -> usize {
        self.rescore(view);
        let pick = self.inner.select_sized(view, size, rng);
        if !matches!(self.states[pick], QState::Quarantined { .. }) {
            return pick;
        }
        // The inner policy chose a quarantined server: degrade to uniform
        // random over the non-quarantined set (fail open if that set is
        // empty). The extra draw happens only on an override, so
        // quarantine-free runs replay the inner policy's stream exactly.
        let healthy = self.states.len() - self.quarantined_count();
        if healthy == 0 {
            return pick;
        }
        let mut k = rng.index(healthy);
        for (server, state) in self.states.iter().enumerate() {
            if !matches!(state, QState::Quarantined { .. }) {
                if k == 0 {
                    return server;
                }
                k -= 1;
            }
        }
        unreachable!("healthy counting is exhaustive")
    }

    fn observe_arrival(&mut self, now: f64) {
        self.now = now;
        self.inner.observe_arrival(now);
    }

    fn telemetry(&self) -> PolicyTelemetry {
        PolicyTelemetry {
            ejections: self.ejections,
            readmissions: self.readmissions,
        }
        .merge(self.inner.telemetry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntryAges, Greedy, InfoAge, Random};

    /// The decision time of the hand-built views; an entry sampled at
    /// `NOW - a` is `a` old.
    const NOW: f64 = 100.0;

    fn aged_view<'a>(loads: &'a [u32], sampled: &'a [f64]) -> LoadView<'a> {
        LoadView {
            loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: Some(EntryAges { sampled, now: NOW }),
        }
    }

    #[test]
    fn silent_server_is_ejected_and_avoided() {
        let mut rng = SimRng::from_seed(1);
        let mut q = Quarantine::new(Greedy::new(), 5.0, 50.0);
        // Server 0 advertises an idle queue but has been silent 20 units.
        let view = aged_view(&[0, 2, 3], &[NOW - 20.0, NOW - 1.0, NOW - 1.0]);
        for i in 0..200 {
            q.observe_arrival(i as f64 * 0.01);
            assert_ne!(q.select(&view, &mut rng), 0);
        }
        assert_eq!(q.ejections(), 1);
        assert_eq!(q.quarantined_count(), 1);
    }

    #[test]
    fn probe_readmits_once_reports_flow_again() {
        let mut rng = SimRng::from_seed(2);
        let mut q = Quarantine::new(Greedy::new(), 5.0, 10.0);
        let loads = [0u32, 2];
        q.observe_arrival(0.0);
        q.select(&aged_view(&loads, &[NOW - 20.0, NOW - 1.0]), &mut rng);
        assert_eq!(q.ejections(), 1);
        // Quarantine expires at t=10; by then the entry is fresh again.
        q.observe_arrival(11.0);
        let pick = q.select(&aged_view(&loads, &[NOW - 1.0, NOW - 1.0]), &mut rng);
        assert_eq!(q.readmissions(), 1);
        assert_eq!(q.quarantined_count(), 0);
        assert_eq!(pick, 0, "readmitted idle server is selectable again");
    }

    #[test]
    fn failed_probe_doubles_the_backoff() {
        let mut rng = SimRng::from_seed(3);
        let mut q = Quarantine::new(Greedy::new(), 5.0, 10.0);
        let loads = [0u32, 2];
        let stale = [NOW - 100.0, NOW - 1.0];
        q.observe_arrival(0.0);
        q.select(&aged_view(&loads, &stale), &mut rng);
        // First probe at t=10 fails -> next interval is 20 (until t=30).
        q.observe_arrival(11.0);
        q.select(&aged_view(&loads, &stale), &mut rng);
        // Still quarantined at t=25 (< 31): no readmission even if fresh.
        q.observe_arrival(25.0);
        q.select(&aged_view(&loads, &[NOW - 1.0, NOW - 1.0]), &mut rng);
        assert_eq!(q.readmissions(), 0);
        assert_eq!(q.quarantined_count(), 1);
        // The doubled interval expires by t=35: fresh entry readmits.
        q.observe_arrival(35.0);
        q.select(&aged_view(&loads, &[NOW - 1.0, NOW - 1.0]), &mut rng);
        assert_eq!(q.readmissions(), 1);
    }

    #[test]
    fn all_quarantined_fails_open() {
        let mut rng = SimRng::from_seed(4);
        let mut q = Quarantine::new(Greedy::new(), 5.0, 50.0);
        let view = aged_view(&[0, 1], &[NOW - 20.0, NOW - 20.0]);
        q.observe_arrival(0.0);
        let pick = q.select(&view, &mut rng);
        assert!(pick < 2);
        assert_eq!(q.ejections(), 2);
        assert_eq!(q.quarantined_count(), 2);
    }

    #[test]
    fn fresh_views_replay_the_inner_stream_exactly() {
        let mut rng_a = SimRng::from_seed(5);
        let mut rng_b = SimRng::from_seed(5);
        let mut q = Quarantine::new(Greedy::new(), 5.0, 50.0);
        let mut plain = Greedy::new();
        let loads = [4u32, 0, 2, 1];
        let sampled = [NOW - 1.0; 4];
        let view = aged_view(&loads, &sampled);
        for i in 0..200 {
            q.observe_arrival(i as f64 * 0.1);
            assert_eq!(q.select(&view, &mut rng_a), plain.select(&view, &mut rng_b));
        }
        assert_eq!(q.ejections(), 0);
        // Same number of draws consumed: streams still aligned.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn telemetry_reports_counters() {
        let mut rng = SimRng::from_seed(6);
        let mut q = Quarantine::new(Random, 5.0, 10.0);
        let loads = [0u32, 2];
        q.observe_arrival(0.0);
        q.select(&aged_view(&loads, &[NOW - 20.0, NOW - 1.0]), &mut rng);
        q.observe_arrival(11.0);
        q.select(&aged_view(&loads, &[NOW - 1.0, NOW - 1.0]), &mut rng);
        let t = q.telemetry();
        assert_eq!(t.ejections, 1);
        assert_eq!(t.readmissions, 1);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn non_positive_window_is_rejected() {
        let _ = Quarantine::new(Random, 0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "backoff")]
    fn non_positive_backoff_is_rejected() {
        let _ = Quarantine::new(Random, 5.0, 0.0);
    }
}
