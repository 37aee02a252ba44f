//! The ad-hoc age-decayed weighting baseline.

use staleload_sim::SimRng;

use crate::{LoadView, Policy};

/// Age-decayed inverse-load weighting — the kind of ad-hoc heuristic the
/// paper's related work (§2) describes in systems such as Smart Clients,
/// included here as a baseline that LI is designed to replace.
///
/// A request is routed with probability proportional to
/// `β·w_i + (1-β)/n`, where `w_i ∝ 1/(1 + load_i)` and `β = exp(-age/τ)`:
/// fresh information weights short queues, stale information fades toward
/// uniform. Unlike LI there is no principled way to pick `τ` — that is the
/// paper's criticism.
///
/// # Example
///
/// ```
/// use staleload_policies::{InfoAge, LoadView, Policy, WeightedDecay};
/// use staleload_sim::SimRng;
///
/// let mut rng = SimRng::from_seed(1);
/// let loads = [10, 0];
/// let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 0.1 }, ages: None };
/// let mut policy = WeightedDecay::new(5.0);
/// let picks = (0..100).filter(|_| policy.select(&view, &mut rng) == 1).count();
/// assert!(picks > 60, "short queue should dominate while info is fresh");
/// ```
#[derive(Debug, Clone)]
pub struct WeightedDecay {
    tau: f64,
    weights: Vec<f64>,
}

impl WeightedDecay {
    /// Creates the policy with decay time constant `tau` (service-time
    /// units).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive and finite.
    pub fn new(tau: f64) -> Self {
        assert!(
            tau.is_finite() && tau > 0.0,
            "tau must be positive, got {tau}"
        );
        Self {
            tau,
            weights: Vec::new(),
        }
    }

    /// The decay time constant.
    pub fn tau(&self) -> f64 {
        self.tau
    }
}

impl Policy for WeightedDecay {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        let n = view.loads.len();
        let age = view.info.elapsed();
        let beta = (-age / self.tau).exp();
        let inv_sum: f64 = view.loads.iter().map(|&l| 1.0 / (1.0 + f64::from(l))).sum();
        self.weights.clear();
        for &l in view.loads {
            let w = 1.0 / (1.0 + f64::from(l)) / inv_sum;
            self.weights.push(beta * w + (1.0 - beta) / n as f64);
        }
        rng.discrete(&self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InfoAge;

    fn freq_of_zero(age: f64, tau: f64) -> f64 {
        let mut rng = SimRng::from_seed(1);
        let loads = [0u32, 9];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age },
            ages: None,
        };
        let mut p = WeightedDecay::new(tau);
        let n = 20_000;
        let hits = (0..n).filter(|_| p.select(&view, &mut rng) == 0).count();
        hits as f64 / n as f64
    }

    #[test]
    fn fresh_information_prefers_short_queue() {
        assert!(freq_of_zero(0.01, 5.0) > 0.85);
    }

    #[test]
    fn stale_information_fades_to_uniform() {
        let f = freq_of_zero(500.0, 5.0);
        assert!((f - 0.5).abs() < 0.03, "{f}");
    }

    #[test]
    fn preference_decreases_with_age() {
        let fresh = freq_of_zero(0.1, 5.0);
        let mid = freq_of_zero(5.0, 5.0);
        let old = freq_of_zero(50.0, 5.0);
        assert!(fresh > mid && mid > old, "{fresh} {mid} {old}");
    }
}
