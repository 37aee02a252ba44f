//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use staleload_sim::{Dist, EventQueue, OnlineStats, SimRng, SubsetScratch};

/// The dense partial Fisher–Yates shuffle: fill `0..n`, then swap each of
/// the first `k` positions with a uniform later one. The oracle for
/// `distinct_indices`, which reuses its scratch instead of refilling it.
fn dense_distinct_indices(rng: &mut SimRng, k: usize, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.index(n - i);
        perm.swap(i, j);
    }
    perm.truncate(k);
    perm
}

proptest! {
    /// Events always pop in non-decreasing time order, regardless of push order.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0.0f64..1e9, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut prev = f64::NEG_INFINITY;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev);
            prev = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Equal-time events preserve insertion order (stability).
    #[test]
    fn event_queue_equal_times_are_fifo(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(1.0, i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop().unwrap().1, i);
        }
    }

    /// Welford statistics match the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(data in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut s = OnlineStats::new();
        for &x in &data {
            s.record(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.sample_variance() - var).abs() <= 1e-6 * (1.0 + var.abs()));
    }

    /// Merging accumulators in any split equals the single-stream result.
    #[test]
    fn online_stats_merge_associative(
        data in prop::collection::vec(-1e3f64..1e3, 2..100),
        split in 0usize..100,
    ) {
        let split = split % data.len();
        let (a, b) = data.split_at(split);
        let mut sa = OnlineStats::new();
        let mut sb = OnlineStats::new();
        let mut all = OnlineStats::new();
        for &x in a { sa.record(x); all.record(x); }
        for &x in b { sb.record(x); all.record(x); }
        sa.merge(&sb);
        prop_assert_eq!(sa.count(), all.count());
        prop_assert!((sa.mean() - all.mean()).abs() <= 1e-6 * (1.0 + all.mean().abs()));
    }

    /// Bounded Pareto samples stay inside the configured support.
    #[test]
    fn bounded_pareto_in_support(
        alpha in 0.5f64..3.0,
        lo in 0.01f64..1.0,
        span in 1.5f64..1000.0,
        seed in any::<u64>(),
    ) {
        let hi = lo * span;
        let d = Dist::bounded_pareto(alpha, lo, hi).unwrap();
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..256 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo * (1.0 - 1e-12) && x <= hi * (1.0 + 1e-12), "{} not in [{}, {}]", x, lo, hi);
        }
    }

    /// The mean-targeted Bounded Pareto constructor really hits the mean.
    #[test]
    fn bounded_pareto_with_mean_is_exact(alpha in 0.6f64..2.5, hi in 10.0f64..4096.0) {
        let d = Dist::bounded_pareto_with_mean(alpha, hi, 1.0).unwrap();
        prop_assert!((d.mean() - 1.0).abs() < 1e-6, "mean {}", d.mean());
    }

    /// All distributions sample non-negative values.
    #[test]
    fn variates_are_non_negative(seed in any::<u64>(), mean in 0.0f64..100.0) {
        let mut rng = SimRng::from_seed(seed);
        for d in [Dist::constant(mean), Dist::exponential(mean), Dist::uniform(0.0, mean + 0.1)] {
            for _ in 0..64 {
                prop_assert!(d.sample(&mut rng) >= 0.0);
            }
        }
    }

    /// `distinct_indices` returns exactly k distinct in-range values.
    #[test]
    fn distinct_indices_contract(seed in any::<u64>(), n in 1usize..64, k_frac in 0.0f64..1.0) {
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let mut rng = SimRng::from_seed(seed);
        let mut scratch = SubsetScratch::new();
        let picked: Vec<usize> = rng.distinct_indices(k, n, &mut scratch).to_vec();
        prop_assert_eq!(picked.len(), k);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
        prop_assert!(picked.iter().all(|&i| i < n));
    }

    /// Over any sequence of `(k, n)` calls on one scratch — `n` changing
    /// between calls, `k = 0` and `k = n` included — `distinct_indices`
    /// returns the dense shuffle's slice and leaves the RNG in its state.
    #[test]
    fn distinct_indices_matches_the_dense_shuffle(
        seed in any::<u64>(),
        calls in prop::collection::vec((1usize..12, 0.0f64..1.0), 1..32),
    ) {
        let mut rng = SimRng::from_seed(seed);
        let mut oracle = SimRng::from_seed(seed);
        let mut scratch = SubsetScratch::new();
        for (n, k_frac) in calls {
            let k = (((n + 1) as f64 * k_frac) as usize).min(n);
            let picked = rng.distinct_indices(k, n, &mut scratch).to_vec();
            prop_assert_eq!(picked, dense_distinct_indices(&mut oracle, k, n));
            prop_assert_eq!(format!("{rng:?}"), format!("{oracle:?}"));
        }
    }

    /// `discrete` only returns indices with positive mass.
    #[test]
    fn discrete_positive_mass_only(
        seed in any::<u64>(),
        probs in prop::collection::vec(0.0f64..10.0, 1..32),
    ) {
        prop_assume!(probs.iter().sum::<f64>() > 0.0);
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..128 {
            let i = rng.discrete(&probs);
            prop_assert!(probs[i] > 0.0);
        }
    }
}
