//! The Load Interpretation policy objects (Basic, Aggressive, Hybrid,
//! Waterfill), wrapping the pure math in [`crate::li`] with per-phase
//! caching and the §4.2 adaptations for non-periodic information models.

use staleload_sim::SimRng;

use crate::li::{AgedAggressive, AggressiveSchedule, LoadCounts, WaterLine, MIN_EXPECTED_ARRIVALS};
use crate::{least_loaded, InfoAge, Load, LoadView, Policy};

/// Validates an LI arrival-rate estimate at construction time.
fn check_lambda(lambda: f64) -> f64 {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "lambda estimate must be a non-negative finite number, got {lambda}"
    );
    lambda
}

/// Shared machinery: the Basic LI cumulative distribution, cached per phase
/// (periodic model) or computed afresh for every view (aged models).
#[derive(Debug, Clone, Default)]
struct ProbCache {
    epoch: Option<u64>,
    /// Send probability per load value (see [`WaterLine::fill_cdf`]).
    table: Vec<f64>,
    cdf: Vec<f64>,
    counts: LoadCounts,
}

impl ProbCache {
    /// Recomputes `cdf` for `loads` and `r` expected arrivals unless `epoch`
    /// matches the cache.
    fn ensure(&mut self, epoch: Option<u64>, loads: &[Load], r: f64) {
        if epoch.is_some() && epoch == self.epoch {
            return;
        }
        WaterLine::of_view(loads, r, &mut self.counts).fill_cdf(
            loads,
            &mut self.table,
            &mut self.cdf,
        );
        self.epoch = epoch;
    }
}

/// **Basic LI** (paper §4.1, Eqs. 2–4).
///
/// Interprets each load report against its age: with expected arrivals
/// `R = λ̂·n·T` over the information horizon, requests are routed with the
/// probabilities that level the queues by the horizon's end. Fresh
/// information (`R → 0`) degenerates to least-loaded selection; very stale
/// information approaches the uniform distribution — exactly the graceful
/// degradation the paper demonstrates.
///
/// `lambda` is the client's *estimate* λ̂ of the per-server arrival rate as a
/// fraction of server capacity. Misestimation experiments (paper §5.6) pass
/// a deliberately wrong value here.
#[derive(Debug, Clone)]
pub struct BasicLi {
    lambda: f64,
    cache: ProbCache,
}

impl BasicLi {
    /// Creates a Basic LI policy with arrival-rate estimate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or not finite.
    pub fn new(lambda: f64) -> Self {
        Self {
            lambda: check_lambda(lambda),
            cache: ProbCache::default(),
        }
    }

    /// The configured arrival-rate estimate λ̂.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The cumulative send distribution [`Policy::select`] samples for
    /// `view`: entry `i` is the probability of picking one of servers
    /// `0..=i`. Computed once per phase under the periodic model, and per
    /// view under the aged ones.
    pub fn cdf(&mut self, view: &LoadView<'_>) -> &[f64] {
        let n = view.loads.len() as f64;
        let r = self.lambda * n * view.info.horizon();
        let epoch = match view.info {
            InfoAge::Phase { epoch, .. } => Some(epoch),
            InfoAge::Aged { .. } => None,
        };
        self.cache.ensure(epoch, view.loads, r);
        &self.cache.cdf
    }
}

impl Policy for BasicLi {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        rng.discrete_cdf(self.cdf(view))
    }
}

/// **Aggressive LI** (paper §4.1.1, Eq. 5).
///
/// Rather than leveling queues by the *end* of the phase, subdivides the
/// phase: first fill the least-loaded server up to the second-least, then
/// spread over both, and so on; once all queues are believed level, route
/// uniformly. Under non-periodic models the paper's §4.2 rule applies: the
/// information is always `age` old, so the subinterval in effect at elapsed
/// time `age` is used — which makes Aggressive LI *less* aggressive than
/// Basic LI for large ages.
#[derive(Debug, Clone)]
pub struct AggressiveLi {
    lambda: f64,
    epoch: Option<u64>,
    /// The schedule of the current phase (periodic model).
    schedule: AggressiveSchedule,
    /// The walk that interprets each aged view (continuous and
    /// update-on-access models).
    aged: AgedAggressive,
}

impl AggressiveLi {
    /// Creates an Aggressive LI policy with arrival-rate estimate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or not finite.
    pub fn new(lambda: f64) -> Self {
        Self {
            lambda: check_lambda(lambda),
            epoch: None,
            schedule: AggressiveSchedule::empty(),
            aged: AgedAggressive::default(),
        }
    }
}

impl Policy for AggressiveLi {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        let total_rate = self.lambda * view.loads.len() as f64;
        match view.info {
            InfoAge::Phase { epoch, .. } => {
                // `self.epoch` starts as `None`, so the first view builds.
                if self.epoch != Some(epoch) {
                    self.schedule.rebuild(view.loads, total_rate);
                    self.epoch = Some(epoch);
                }
                let active = self.schedule.active_servers(view.info.elapsed());
                active[rng.index(active.len())]
            }
            // §4.2: under continuous/update-on-access models we are
            // "effectively always at the end of a phase" of length `age`.
            InfoAge::Aged { age } => self.aged.pick(view.loads, total_rate, age, rng),
        }
    }
}

/// **Hybrid LI** (paper §4.1.1): two subintervals per phase.
///
/// During the first, requests are distributed proportionally to each
/// server's deficit below the *most loaded* server (bringing everyone level
/// with the maximum); once the expected arrivals have covered that deficit,
/// requests are uniform. Its performance falls between Basic and Aggressive
/// under the periodic model, as the paper notes.
#[derive(Debug, Clone)]
pub struct HybridLi {
    lambda: f64,
    epoch: Option<u64>,
    fill_until: f64,
    fill_cdf: Vec<f64>,
}

impl HybridLi {
    /// Creates a Hybrid LI policy with arrival-rate estimate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or not finite.
    pub fn new(lambda: f64) -> Self {
        Self {
            lambda: check_lambda(lambda),
            epoch: None,
            fill_until: 0.0,
            fill_cdf: Vec::new(),
        }
    }

    fn rebuild(&mut self, loads: &[u32], total_rate: f64) {
        let max = f64::from(*loads.iter().max().expect("non-empty loads"));
        let deficit_total: f64 = loads.iter().map(|&l| max - f64::from(l)).sum();
        self.fill_until = if total_rate > 0.0 {
            deficit_total / total_rate
        } else {
            f64::INFINITY
        };
        self.fill_cdf.clear();
        let mut acc = 0.0;
        for &l in loads {
            acc += max - f64::from(l);
            self.fill_cdf.push(acc);
        }
    }
}

impl Policy for HybridLi {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        let total_rate = self.lambda * view.loads.len() as f64;
        let (elapsed, epoch) = match view.info {
            InfoAge::Phase { epoch, .. } => (view.info.elapsed(), Some(epoch)),
            InfoAge::Aged { age } => (age, None),
        };
        if epoch.is_none() || epoch != self.epoch || self.fill_cdf.len() != view.loads.len() {
            self.rebuild(view.loads, total_rate);
            self.epoch = epoch;
        }
        let leveled = self.fill_cdf.last().copied().unwrap_or(0.0) <= MIN_EXPECTED_ARRIVALS;
        if leveled || elapsed >= self.fill_until {
            rng.index(view.loads.len())
        } else if self.fill_cdf.last().copied().unwrap_or(0.0) > 0.0 {
            rng.discrete_cdf(&self.fill_cdf)
        } else {
            least_loaded(view.loads, rng)
        }
    }
}

/// **Adaptive LI** (extension motivated by §5.6): Basic LI whose
/// arrival-rate estimate λ̂ is maintained *online* with an exponentially
/// weighted moving average of observed inter-arrival gaps, instead of being
/// configured.
///
/// Until enough arrivals have been observed the policy assumes
/// λ̂ = 1.0 — the paper's safe "maximum throughput" strategy — because an
/// early underestimate is the one failure mode §5.6 shows to be expensive.
///
/// The EWMA estimates the *total* arrival rate `λ·n`; the per-server λ̂
/// passed to the LI math divides by the current view's size.
#[derive(Debug, Clone)]
pub struct AdaptiveLi {
    alpha: f64,
    warmup_arrivals: u64,
    observed: u64,
    last_arrival: Option<f64>,
    ewma_gap: Option<f64>,
    cache: ProbCache,
}

impl AdaptiveLi {
    /// Creates the policy with EWMA smoothing factor `alpha` (weight of the
    /// newest gap, e.g. 0.01) and the number of arrivals to observe before
    /// trusting the estimate.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`.
    pub fn new(alpha: f64, warmup_arrivals: u64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        Self {
            alpha,
            warmup_arrivals,
            observed: 0,
            last_arrival: None,
            ewma_gap: None,
            cache: ProbCache::default(),
        }
    }

    /// The current estimate of the *total* arrival rate `λ·n`
    /// (`None` until the first gap is observed).
    pub fn estimated_total_rate(&self) -> Option<f64> {
        self.ewma_gap
            .map(|g| if g > 0.0 { 1.0 / g } else { f64::INFINITY })
    }

    fn lambda_per_server(&self, n: usize) -> f64 {
        if self.observed < self.warmup_arrivals {
            return 1.0; // assume maximum throughput until trained (§5.6)
        }
        match self.estimated_total_rate() {
            Some(rate) if rate.is_finite() => rate / n as f64,
            _ => 1.0,
        }
    }
}

impl Policy for AdaptiveLi {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        let n = view.loads.len();
        let lambda = self.lambda_per_server(n);
        let r = lambda * n as f64 * view.info.horizon();
        let epoch = match view.info {
            InfoAge::Phase { epoch, .. } => Some(epoch),
            InfoAge::Aged { .. } => None,
        };
        self.cache.ensure(epoch, view.loads, r);
        rng.discrete_cdf(&self.cache.cdf)
    }

    fn observe_arrival(&mut self, now: f64) {
        if let Some(last) = self.last_arrival {
            let gap = (now - last).max(0.0);
            self.ewma_gap = Some(match self.ewma_gap {
                None => gap,
                Some(prev) => self.alpha * gap + (1.0 - self.alpha) * prev,
            });
        }
        self.last_arrival = Some(now);
        self.observed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_view(loads: &[u32], length: f64, elapsed: f64, epoch: u64) -> LoadView<'_> {
        LoadView {
            loads,
            info: InfoAge::Phase {
                start: 100.0,
                length,
                now: 100.0 + elapsed,
                epoch,
            },
            ages: None,
        }
    }

    fn frequencies(
        policy: &mut dyn Policy,
        view: &LoadView<'_>,
        n: usize,
        draws: usize,
    ) -> Vec<f64> {
        let mut rng = SimRng::from_seed(99);
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[policy.select(view, &mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn basic_li_matches_analytic_probabilities() {
        // Loads [0, 4], λ = 1, n = 2, T = 4 ⇒ R = 8 ⇒ p = [0.75, 0.25].
        let loads = [0u32, 4];
        let mut li = BasicLi::new(1.0);
        let view = phase_view(&loads, 4.0, 0.0, 1);
        let freq = frequencies(&mut li, &view, 2, 60_000);
        assert!((freq[0] - 0.75).abs() < 0.01, "{freq:?}");
        assert!((freq[1] - 0.25).abs() < 0.01, "{freq:?}");
    }

    #[test]
    fn basic_li_fresh_info_is_greedy() {
        // Aged 0 ⇒ R = 0 ⇒ always the least-loaded server.
        let loads = [3u32, 1, 4];
        let mut li = BasicLi::new(0.9);
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 0.0 },
            ages: None,
        };
        let mut rng = SimRng::from_seed(5);
        for _ in 0..100 {
            assert_eq!(li.select(&view, &mut rng), 1);
        }
    }

    #[test]
    fn basic_li_stale_info_is_nearly_uniform() {
        let loads = [3u32, 1, 4, 2];
        let mut li = BasicLi::new(0.9);
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 1e7 },
            ages: None,
        };
        let freq = frequencies(&mut li, &view, 4, 40_000);
        for &f in &freq {
            assert!((f - 0.25).abs() < 0.02, "{freq:?}");
        }
    }

    #[test]
    fn basic_li_phase_cache_is_keyed_on_epoch() {
        let loads_a = [0u32, 10];
        let loads_b = [10u32, 0];
        let mut li = BasicLi::new(1.0);
        let mut rng = SimRng::from_seed(6);
        // Short phase: all traffic to the least-loaded server.
        let va = LoadView {
            loads: &loads_a,
            info: InfoAge::Phase {
                start: 0.0,
                length: 1.0,
                now: 0.0,
                epoch: 1,
            },
            ages: None,
        };
        assert_eq!(li.select(&va, &mut rng), 0);
        // Same epoch, the cache must answer identically.
        assert_eq!(li.select(&va, &mut rng), 0);
        // New epoch with reversed loads: the cache must refresh.
        let vb = LoadView {
            loads: &loads_b,
            info: InfoAge::Phase {
                start: 1.0,
                length: 1.0,
                now: 1.0,
                epoch: 2,
            },
            ages: None,
        };
        assert_eq!(li.select(&vb, &mut rng), 1);
    }

    #[test]
    fn aggressive_li_starts_greedy_and_widens() {
        // Loads [0, 2, 4], λ·n = 3: τ_0 = 2/3, τ_1 = 2·2/3 = 4/3,
        // leveling at 2.0.
        let loads = [0u32, 2, 4];
        let mut li = AggressiveLi::new(1.0);
        let mut rng = SimRng::from_seed(7);
        let early = phase_view(&loads, 10.0, 0.1, 1);
        for _ in 0..50 {
            assert_eq!(li.select(&early, &mut rng), 0);
        }
        let mid = phase_view(&loads, 10.0, 1.0, 1);
        for _ in 0..200 {
            let s = li.select(&mid, &mut rng);
            assert!(s == 0 || s == 1, "server {s} should not be active yet");
        }
        let late = phase_view(&loads, 10.0, 5.0, 1);
        let freq = frequencies(&mut li, &late, 3, 30_000);
        for &f in &freq {
            assert!((f - 1.0 / 3.0).abs() < 0.02, "{freq:?}");
        }
    }

    #[test]
    fn aggressive_li_aged_uses_end_of_phase_rule() {
        // §4.2: with age beyond the leveling time the distribution is
        // uniform; with tiny age it is greedy.
        let loads = [0u32, 2, 4];
        let mut li = AggressiveLi::new(1.0);
        let uniform_view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 100.0 },
            ages: None,
        };
        let freq = frequencies(&mut li, &uniform_view, 3, 30_000);
        for &f in &freq {
            assert!((f - 1.0 / 3.0).abs() < 0.02, "{freq:?}");
        }
        let fresh_view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 0.0 },
            ages: None,
        };
        let mut rng = SimRng::from_seed(8);
        for _ in 0..50 {
            assert_eq!(li.select(&fresh_view, &mut rng), 0);
        }
    }

    #[test]
    fn hybrid_li_fills_deficits_then_goes_uniform() {
        // Loads [0, 4]: deficit vector (4, 0), fill time = 4 / (λ·n) = 2.
        let loads = [0u32, 4];
        let mut li = HybridLi::new(1.0);
        let mut rng = SimRng::from_seed(9);
        let early = phase_view(&loads, 10.0, 0.5, 1);
        for _ in 0..100 {
            assert_eq!(li.select(&early, &mut rng), 0, "all deficit is on server 0");
        }
        let late = phase_view(&loads, 10.0, 3.0, 1);
        let freq = frequencies(&mut li, &late, 2, 30_000);
        assert!((freq[0] - 0.5).abs() < 0.02, "{freq:?}");
    }

    #[test]
    fn hybrid_li_equal_loads_uniform_immediately() {
        let loads = [2u32, 2, 2];
        let mut li = HybridLi::new(1.0);
        let view = phase_view(&loads, 10.0, 0.0, 1);
        let freq = frequencies(&mut li, &view, 3, 30_000);
        for &f in &freq {
            assert!((f - 1.0 / 3.0).abs() < 0.02, "{freq:?}");
        }
    }

    #[test]
    fn basic_li_splits_boundary_load_by_water_level() {
        // Loads [0, 2, 10] with R = 5 (λ = 1, n = 3, age = 5/3):
        // water level 3.5 ⇒ p = [0.7, 0.3, 0].
        let loads = [0u32, 2, 10];
        let mut li = BasicLi::new(1.0);
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 5.0 / 3.0 },
            ages: None,
        };
        let freq = frequencies(&mut li, &view, 3, 60_000);
        assert!((freq[0] - 0.7).abs() < 0.01, "{freq:?}");
        assert!((freq[1] - 0.3).abs() < 0.01, "{freq:?}");
        assert_eq!(freq[2], 0.0, "{freq:?}");
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn negative_lambda_is_rejected() {
        let _ = BasicLi::new(-0.5);
    }

    #[test]
    fn adaptive_li_estimates_the_rate() {
        let mut li = AdaptiveLi::new(0.05, 10);
        // Feed arrivals with exact gap 0.2 ⇒ total rate 5.
        for i in 0..500 {
            li.observe_arrival(i as f64 * 0.2);
        }
        let rate = li.estimated_total_rate().unwrap();
        assert!((rate - 5.0).abs() < 0.1, "rate {rate}");
        // Per-server estimate over 10 servers is 0.5.
        assert!((li.lambda_per_server(10) - 0.5).abs() < 0.01);
    }

    #[test]
    fn adaptive_li_assumes_max_throughput_before_warmup() {
        let mut li = AdaptiveLi::new(0.05, 100);
        li.observe_arrival(0.0);
        li.observe_arrival(1.0);
        assert_eq!(li.lambda_per_server(4), 1.0);
    }

    #[test]
    fn adaptive_li_tracks_rate_changes() {
        let mut li = AdaptiveLi::new(0.05, 1);
        let mut t = 0.0;
        for _ in 0..500 {
            t += 1.0;
            li.observe_arrival(t);
        }
        let slow = li.estimated_total_rate().unwrap();
        for _ in 0..500 {
            t += 0.1;
            li.observe_arrival(t);
        }
        let fast = li.estimated_total_rate().unwrap();
        assert!(fast > slow * 5.0, "slow {slow} fast {fast}");
    }

    #[test]
    fn adaptive_li_selects_like_basic_li_once_trained() {
        // After training on gap 1/(λ·n) = 1/2 (λ = 1, n = 2), Adaptive LI's
        // distribution matches Basic LI's analytic [0.75, 0.25].
        let mut li = AdaptiveLi::new(0.02, 10);
        for i in 0..2000 {
            li.observe_arrival(i as f64 * 0.5);
        }
        let loads = [0u32, 4];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 4.0 },
            ages: None,
        };
        let freq = frequencies(&mut li, &view, 2, 60_000);
        assert!((freq[0] - 0.75).abs() < 0.02, "{freq:?}");
    }
}
