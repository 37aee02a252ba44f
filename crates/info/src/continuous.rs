//! The continuous-update model: views delayed by a random lag (§3.1).

use serde::{Deserialize, Serialize};
use staleload_cluster::Cluster;
use staleload_policies::{InfoAge, LoadView};
use staleload_sim::{Dist, SimRng};

use crate::InfoModel;

/// The per-request delay distribution of the continuous-update model.
///
/// The paper examines four distributions with the same mean `T`, "in order
/// of increasing variation": constant, a narrow uniform, a wide uniform, and
/// exponential.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DelaySpec {
    /// Every request sees state exactly `mean` old.
    Constant {
        /// Mean (= constant) delay `T`.
        mean: f64,
    },
    /// Uniform on `[T/2, 3T/2]` (narrow).
    UniformNarrow {
        /// Mean delay `T`.
        mean: f64,
    },
    /// Uniform on `[0, 2T]` (wide).
    UniformWide {
        /// Mean delay `T`.
        mean: f64,
    },
    /// Exponential with mean `T`.
    Exponential {
        /// Mean delay `T`.
        mean: f64,
    },
}

impl DelaySpec {
    /// The mean delay `T`.
    pub fn mean(&self) -> f64 {
        match *self {
            DelaySpec::Constant { mean }
            | DelaySpec::UniformNarrow { mean }
            | DelaySpec::UniformWide { mean }
            | DelaySpec::Exponential { mean } => mean,
        }
    }

    /// The underlying sampling distribution.
    pub fn dist(&self) -> Dist {
        match *self {
            DelaySpec::Constant { mean } => Dist::constant(mean),
            DelaySpec::UniformNarrow { mean } => Dist::uniform(0.5 * mean, 1.5 * mean),
            DelaySpec::UniformWide { mean } => Dist::uniform(0.0, 2.0 * mean),
            DelaySpec::Exponential { mean } => Dist::exponential(mean),
        }
    }

    /// History window the cluster must retain so essentially every delayed
    /// query is answered exactly.
    ///
    /// Bounded distributions use their exact maximum (plus slack); the
    /// exponential uses 40 means, putting the miss probability per query
    /// below `e^-40 ≈ 4e-18`.
    pub fn history_window(&self) -> f64 {
        match *self {
            DelaySpec::Constant { mean } => mean * 1.01 + 1.0,
            DelaySpec::UniformNarrow { mean } => 1.5 * mean + 1.0,
            DelaySpec::UniformWide { mean } => 2.0 * mean + 1.0,
            DelaySpec::Exponential { mean } => 40.0 * mean + 1.0,
        }
    }

    /// A short label for result tables.
    pub fn label(&self) -> &'static str {
        match self {
            DelaySpec::Constant { .. } => "constant",
            DelaySpec::UniformNarrow { .. } => "uniform(T/2,3T/2)",
            DelaySpec::UniformWide { .. } => "uniform(0,2T)",
            DelaySpec::Exponential { .. } => "exponential",
        }
    }
}

/// What an arriving request is told about the age of its view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AgeKnowledge {
    /// Only the configured mean delay `T` is known (paper Fig. 6).
    MeanOnly,
    /// The realized per-request delay is known (paper Fig. 7).
    Actual,
}

/// The continuous-update information model: each arrival observes the exact
/// system state `d` time units in the past, `d` drawn per request from a
/// [`DelaySpec`].
///
/// Requires the cluster to record load history
/// ([`staleload_cluster::Cluster::with_history`] with at least
/// [`DelaySpec::history_window`]).
#[derive(Debug, Clone)]
pub struct ContinuousView {
    delay: DelaySpec,
    dist: Dist,
    knowledge: AgeKnowledge,
    buf: Vec<u32>,
}

impl ContinuousView {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if the delay mean is not positive and finite.
    pub fn new(delay: DelaySpec, knowledge: AgeKnowledge) -> Self {
        let mean = delay.mean();
        assert!(
            mean.is_finite() && mean > 0.0,
            "delay mean must be positive, got {mean}"
        );
        Self {
            delay,
            dist: delay.dist(),
            knowledge,
            buf: Vec::new(),
        }
    }

    /// The configured delay distribution.
    pub fn delay(&self) -> DelaySpec {
        self.delay
    }
}

impl InfoModel for ContinuousView {
    fn next_event(&self) -> Option<f64> {
        None
    }

    fn on_event(&mut self, _now: f64, _cluster: &Cluster) {}

    fn view<'a>(
        &'a mut self,
        now: f64,
        _client: usize,
        cluster: &'a mut Cluster,
        rng: &mut SimRng,
    ) -> LoadView<'a> {
        let d = self.dist.sample(rng);
        cluster.loads_at((now - d).max(0.0), &mut self.buf);
        let age = match self.knowledge {
            AgeKnowledge::MeanOnly => self.delay.mean(),
            AgeKnowledge::Actual => d,
        };
        LoadView {
            loads: &self.buf,
            info: InfoAge::Aged { age },
            ages: None,
        }
    }

    fn after_placement(&mut self, _now: f64, _client: usize, _cluster: &Cluster) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use staleload_cluster::Job;

    #[test]
    fn constant_delay_sees_past_state() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::with_history(2, 100.0);
        let mut model =
            ContinuousView::new(DelaySpec::Constant { mean: 5.0 }, AgeKnowledge::Actual);
        cluster.enqueue(0, Job::new(0, 1.0, 100.0), 1.0);
        cluster.enqueue(1, Job::new(1, 4.0, 100.0), 4.0);
        // At t = 7 with delay 5 the view is the state at t = 2: only job 0.
        let view = model.view(7.0, 0, &mut cluster, &mut rng);
        assert_eq!(view.loads, &[1, 0]);
        assert_eq!(view.info, InfoAge::Aged { age: 5.0 });
        // At t = 10 the view (state at t = 5) includes both.
        let view = model.view(10.0, 0, &mut cluster, &mut rng);
        assert_eq!(view.loads, &[1, 1]);
    }

    #[test]
    fn mean_only_reports_mean_age() {
        let mut rng = SimRng::from_seed(2);
        let mut cluster = Cluster::with_history(1, 1000.0);
        let mut model =
            ContinuousView::new(DelaySpec::Exponential { mean: 3.0 }, AgeKnowledge::MeanOnly);
        for _ in 0..50 {
            let view = model.view(500.0, 0, &mut cluster, &mut rng);
            assert_eq!(view.info, InfoAge::Aged { age: 3.0 });
        }
    }

    #[test]
    fn actual_ages_vary_with_the_distribution() {
        let mut rng = SimRng::from_seed(3);
        let mut cluster = Cluster::with_history(1, 1000.0);
        let mut model =
            ContinuousView::new(DelaySpec::UniformWide { mean: 4.0 }, AgeKnowledge::Actual);
        let mut ages = Vec::new();
        for _ in 0..2000 {
            match model.view(500.0, 0, &mut cluster, &mut rng).info {
                InfoAge::Aged { age } => ages.push(age),
                other => panic!("unexpected {other:?}"),
            }
        }
        let mean = ages.iter().sum::<f64>() / ages.len() as f64;
        assert!((mean - 4.0).abs() < 0.2, "{mean}");
        assert!(ages.iter().all(|&a| (0.0..8.0).contains(&a)));
    }

    #[test]
    fn delay_before_time_zero_clamps_to_idle_state() {
        let mut rng = SimRng::from_seed(4);
        let mut cluster = Cluster::with_history(2, 100.0);
        let mut model =
            ContinuousView::new(DelaySpec::Constant { mean: 50.0 }, AgeKnowledge::Actual);
        cluster.enqueue(0, Job::new(0, 1.0, 100.0), 1.0);
        let view = model.view(2.0, 0, &mut cluster, &mut rng);
        assert_eq!(view.loads, &[0, 0], "state before t=0 is an idle cluster");
        assert_eq!(cluster.history_misses(), 0);
    }

    #[test]
    fn windows_cover_the_distributions() {
        for spec in [
            DelaySpec::Constant { mean: 2.0 },
            DelaySpec::UniformNarrow { mean: 2.0 },
            DelaySpec::UniformWide { mean: 2.0 },
        ] {
            let mut rng = SimRng::from_seed(5);
            let d = spec.dist();
            for _ in 0..10_000 {
                assert!(d.sample(&mut rng) <= spec.history_window());
            }
            assert!((d.mean() - 2.0).abs() < 1e-12, "{spec:?}");
        }
    }
}
