//! Basic LI over a random `k`-subset (reduced load information, §5.7).

use staleload_sim::{SimRng, SubsetScratch};

use crate::li::{basic_li_probabilities, LoadCounts};
use crate::{LoadView, Policy};

/// **LI-k** (paper §5.7): draw a fresh random `k`-subset of servers for each
/// request and run Basic LI restricted to the subset, with the expected
/// arrivals scaled to the subset (`R = λ̂·k·T`).
///
/// This decouples *how much* load information a client needs (the paper's
/// bandwidth concern) from *how to interpret* it. The paper finds LI-k with
/// modest `k` already close to full-information Basic LI, and better than
/// the plain `k`-subset policies at every `k`.
///
/// # Example
///
/// ```
/// use staleload_policies::{InfoAge, LiSubset, LoadView, Policy};
/// use staleload_sim::SimRng;
///
/// let mut rng = SimRng::from_seed(1);
/// let loads = [4, 4, 4, 0];
/// let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 0.01 }, ages: None };
/// let mut li3 = LiSubset::new(3, 0.9);
/// let pick = li3.select(&view, &mut rng);
/// assert!(pick < 4);
/// ```
#[derive(Debug, Clone)]
pub struct LiSubset {
    k: usize,
    lambda: f64,
    subset_scratch: SubsetScratch,
    loads_scratch: Vec<u32>,
    probs: Vec<f64>,
    counts: LoadCounts,
}

impl LiSubset {
    /// Creates an LI-k policy with subset size `k` and arrival-rate
    /// estimate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `lambda` is negative or not finite.
    pub fn new(k: usize, lambda: f64) -> Self {
        assert!(k > 0, "k must be at least 1");
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda estimate must be a non-negative finite number, got {lambda}"
        );
        Self {
            k,
            lambda,
            subset_scratch: SubsetScratch::new(),
            loads_scratch: Vec::new(),
            probs: Vec::new(),
            counts: LoadCounts::default(),
        }
    }

    /// The subset size `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Policy for LiSubset {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        let n = view.loads.len();
        let k = self.k.min(n);
        let subset = rng.distinct_indices(k, n, &mut self.subset_scratch);
        self.loads_scratch.clear();
        self.loads_scratch
            .extend(subset.iter().map(|&s| view.loads[s]));
        // Per §5.7: replace n by k in the expected-arrival count.
        let r = self.lambda * k as f64 * view.info.horizon();
        basic_li_probabilities(&self.loads_scratch, r, &mut self.probs, &mut self.counts);
        subset[rng.discrete(&self.probs)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InfoAge;

    #[test]
    fn fresh_info_picks_least_loaded_of_subset() {
        let mut rng = SimRng::from_seed(1);
        let loads = [9u32, 9, 9, 0];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 0.0 },
            ages: None,
        };
        let mut li = LiSubset::new(2, 0.9);
        // Whenever server 3 is sampled it must win (R = 0 -> least loaded).
        for _ in 0..500 {
            let s = li.select(&view, &mut rng);
            assert!(s < 4);
        }
        let wins = (0..2000)
            .filter(|_| li.select(&view, &mut rng) == 3)
            .count();
        // Server 3 is in a random 2-subset with probability 1/2.
        let f = wins as f64 / 2000.0;
        assert!((f - 0.5).abs() < 0.05, "{f}");
    }

    #[test]
    fn stale_info_is_nearly_uniform() {
        let mut rng = SimRng::from_seed(2);
        let loads = [9u32, 0, 5, 2];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 1e7 },
            ages: None,
        };
        let mut li = LiSubset::new(2, 0.9);
        let mut counts = [0usize; 4];
        let n = 40_000;
        for _ in 0..n {
            counts[li.select(&view, &mut rng)] += 1;
        }
        for &c in &counts {
            let f = c as f64 / n as f64;
            assert!((f - 0.25).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn k_equals_n_matches_full_basic_li_distribution() {
        use crate::BasicLi;
        let mut rng = SimRng::from_seed(3);
        let loads = [0u32, 4];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 4.0 },
            ages: None,
        };
        // Full info: λ·n·T = 1·2·4 = 8 -> p = [0.75, 0.25].
        let mut full = BasicLi::new(1.0);
        let mut lik = LiSubset::new(2, 1.0);
        let n = 60_000;
        let full_zero = (0..n).filter(|_| full.select(&view, &mut rng) == 0).count();
        let lik_zero = (0..n).filter(|_| lik.select(&view, &mut rng) == 0).count();
        let a = full_zero as f64 / n as f64;
        let b = lik_zero as f64 / n as f64;
        assert!((a - b).abs() < 0.01, "full {a} vs li-k {b}");
    }
}
