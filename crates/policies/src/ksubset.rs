//! Mitzenmacher's `k`-subset family and the full greedy policy.

use staleload_sim::{SimRng, SubsetScratch};

use crate::{least_loaded, InfoAge, Load, LoadView, Policy};

/// The `k`-subset policy: choose `k` servers uniformly at random (without
/// replacement) and send the request to the one with the lowest *reported*
/// load, breaking ties randomly.
///
/// `k = 1` is oblivious random; `k = n` is [`Greedy`]. The paper (after
/// Mitzenmacher) shows the best `k` depends strongly on how stale the
/// information is — the observation that motivates Load Interpretation.
///
/// # Example
///
/// ```
/// use staleload_policies::{InfoAge, KSubset, LoadView, Policy};
/// use staleload_sim::SimRng;
///
/// let mut rng = SimRng::from_seed(1);
/// let loads = [9, 0, 9, 9];
/// let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 1.0 }, ages: None };
/// let mut k2 = KSubset::new(2);
/// // Whenever server 1 lands in the sampled pair, it wins.
/// let picks: Vec<usize> = (0..64).map(|_| k2.select(&view, &mut rng)).collect();
/// assert!(picks.contains(&1));
/// ```
#[derive(Debug, Clone)]
pub struct KSubset {
    k: usize,
    scratch: SubsetScratch,
}

impl KSubset {
    /// Creates a `k`-subset policy.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        Self {
            k,
            scratch: SubsetScratch::new(),
        }
    }

    /// The subset size `k` (clamped to `n` at selection time).
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Policy for KSubset {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        let n = view.loads.len();
        let k = self.k.min(n);
        let subset = rng.distinct_indices(k, n, &mut self.scratch);
        // Least reported load within the subset, ties broken randomly.
        let min = subset.iter().map(|&s| view.loads[s]).min().expect("k >= 1");
        let ties = subset.iter().filter(|&&s| view.loads[s] == min).count();
        let mut pick = rng.index(ties);
        for &s in subset {
            if view.loads[s] == min {
                if pick == 0 {
                    return s;
                }
                pick -= 1;
            }
        }
        unreachable!("tie counting is exhaustive")
    }
}

/// Send every request to the server with the lowest reported load
/// (`k`-subset with `k = n`), ties broken randomly.
///
/// The classic herd-effect victim: with stale information every client
/// stampedes the same apparently idle machines (paper §1).
///
/// On a periodic board ([`InfoAge::Phase`]) the least-loaded servers are
/// found once per epoch, like Basic and Aggressive LI's per-epoch caches,
/// and a decision within the epoch scans nothing: it draws one uniform
/// index into that tie set, the same single draw and the same server as a
/// full scan. Aged views are scanned per decision.
#[derive(Debug, Clone, Default)]
pub struct Greedy {
    epoch: Option<u64>,
    /// The servers reporting the least load in `epoch`, in index order.
    ties: Vec<usize>,
}

impl Greedy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for Greedy {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        let InfoAge::Phase { epoch, .. } = view.info else {
            return least_loaded(view.loads, rng);
        };
        if self.epoch != Some(epoch) {
            let min = *view.loads.iter().min().expect("non-empty loads");
            self.ties.clear();
            self.ties
                .extend((0..view.loads.len()).filter(|&i| view.loads[i] == min));
            self.epoch = Some(epoch);
        }
        self.ties[rng.index(self.ties.len())]
    }
}

/// The closed-form request distribution of the `k`-subset policy by load
/// rank (paper Eq. 1 / Figure 1).
///
/// Returns `p[r]` = probability that a request lands on the server of rank
/// `r` (0 = least loaded), assuming distinct loads:
///
/// `p(r) = C(n-1-r, k-1) / C(n, k)` for `r ≤ n-k`, else 0.
///
/// # Panics
///
/// Panics if `k == 0`, `n == 0`, or `k > n`.
///
/// # Example
///
/// ```
/// use staleload_policies::rank_distribution;
///
/// let p = rank_distribution(100, 2);
/// // The least-loaded server receives k/n of the traffic.
/// assert!((p[0] - 0.02).abs() < 1e-12);
/// // The most loaded k-1 servers receive none.
/// assert_eq!(p[99], 0.0);
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
pub fn rank_distribution(n: usize, k: usize) -> Vec<f64> {
    assert!(
        n > 0 && k > 0 && k <= n,
        "need 1 <= k <= n, got k={k}, n={n}"
    );
    let mut p = vec![0.0; n];
    // p(0) = k/n; ratio p(r+1)/p(r) = (n-k-r) / (n-1-r).
    let mut cur = k as f64 / n as f64;
    for (r, slot) in p.iter_mut().enumerate().take(n - k + 1) {
        *slot = cur;
        let num = n as f64 - k as f64 - r as f64;
        let den = n as f64 - 1.0 - r as f64;
        if den > 0.0 {
            cur *= (num / den).max(0.0);
        }
    }
    p
}

/// Empirical selection frequency by *rank* for any policy, useful for
/// validating implementations against [`rank_distribution`].
///
/// `loads` must be strictly increasing so rank equals index.
pub fn empirical_rank_frequencies(
    policy: &mut dyn Policy,
    loads: &[Load],
    draws: usize,
    rng: &mut SimRng,
) -> Vec<f64> {
    let view = LoadView {
        loads,
        info: InfoAge::Aged { age: 1.0 },
        ages: None,
    };
    let mut counts = vec![0usize; loads.len()];
    for _ in 0..draws {
        counts[policy.select(&view, rng)] += 1;
    }
    counts.iter().map(|&c| c as f64 / draws as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_is_uniform() {
        let p = rank_distribution(10, 1);
        for &x in &p {
            assert!((x - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn kn_is_greedy() {
        let p = rank_distribution(10, 10);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn rank_distribution_sums_to_one() {
        for &(n, k) in &[(100, 2), (100, 3), (100, 10), (8, 4), (5, 5), (7, 1)] {
            let p = rank_distribution(n, k);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "n={n} k={k} sum={sum}");
        }
    }

    #[test]
    fn rank_distribution_is_monotone_decreasing() {
        let p = rank_distribution(100, 3);
        for w in p.windows(2) {
            assert!(w[0] >= w[1] - 1e-15);
        }
    }

    #[test]
    fn top_k_minus_1_ranks_get_nothing() {
        let p = rank_distribution(20, 5);
        for (r, &v) in p.iter().enumerate().skip(16) {
            assert_eq!(v, 0.0, "rank {r}");
        }
        assert!(p[15] > 0.0);
    }

    #[test]
    fn empirical_ksubset_matches_eq1() {
        let n = 20;
        let loads: Vec<Load> = (0..n as Load).collect();
        let mut rng = SimRng::from_seed(42);
        for k in [1, 2, 3, 7] {
            let analytic = rank_distribution(n, k);
            let mut policy = KSubset::new(k);
            let freq = empirical_rank_frequencies(&mut policy, &loads, 200_000, &mut rng);
            for r in 0..n {
                assert!(
                    (freq[r] - analytic[r]).abs() < 0.01,
                    "k={k} rank={r}: empirical {} vs analytic {}",
                    freq[r],
                    analytic[r]
                );
            }
        }
    }

    #[test]
    fn greedy_always_picks_minimum() {
        let mut rng = SimRng::from_seed(3);
        let loads = [4u32, 2, 7];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 0.0 },
            ages: None,
        };
        let mut greedy = Greedy::new();
        for _ in 0..50 {
            assert_eq!(greedy.select(&view, &mut rng), 1);
        }
    }

    #[test]
    fn ksubset_k_larger_than_n_degenerates_to_greedy() {
        let mut rng = SimRng::from_seed(4);
        let loads = [4u32, 2, 7];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 0.0 },
            ages: None,
        };
        let mut k100 = KSubset::new(100);
        for _ in 0..50 {
            assert_eq!(k100.select(&view, &mut rng), 1);
        }
    }

    #[test]
    fn ksubset_ties_split_randomly() {
        let mut rng = SimRng::from_seed(5);
        let loads = [0u32, 0];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 0.0 },
            ages: None,
        };
        let mut k2 = KSubset::new(2);
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[k2.select(&view, &mut rng)] += 1;
        }
        let f = counts[0] as f64 / 10_000.0;
        assert!((f - 0.5).abs() < 0.03, "{f}");
    }
}
