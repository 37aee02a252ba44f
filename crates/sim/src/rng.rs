//! Deterministic random-number generation.

/// A deterministic, seedable random-number generator for simulations.
///
/// `SimRng` is a self-contained xoshiro256++ generator (seeded through
/// SplitMix64) plus the small set of variate helpers the study uses.
/// Two properties matter for reproducibility:
///
/// * the same `u64` seed always produces the same stream, on every platform;
/// * [`SimRng::fork`] derives an independent child stream, so components
///   (arrival process, service times, policy randomness, delay sampling,
///   fault injection) can each consume their own stream without perturbing
///   one another.
///
/// # Example
///
/// ```
/// use staleload_sim::SimRng;
///
/// let mut a = SimRng::from_seed(7);
/// let mut b = SimRng::from_seed(7);
/// assert_eq!(a.f64(), b.f64());
///
/// let mut child = a.fork();
/// // The child stream is decorrelated from the parent's continuation.
/// assert_ne!(child.f64(), a.f64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// Expand a 64-bit seed into xoshiro256++ state with SplitMix64.
///
/// SplitMix64 is the conventional seed expander for the xoshiro family; it
/// guarantees that nearby `u64` seeds produce uncorrelated expanded seeds.
fn expand_seed(mut state: u64) -> [u64; 4] {
    let mut out = [0u64; 4];
    for word in &mut out {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *word = z ^ (z >> 31);
    }
    // xoshiro's state must not be all zero; SplitMix64 cannot in practice
    // produce four consecutive zero outputs, but guard anyway.
    if out == [0; 4] {
        out[0] = 0x9E37_79B9_7F4A_7C15;
    }
    out
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            s: expand_seed(seed),
        }
    }

    /// Derives an independent child generator.
    ///
    /// The child is seeded from the parent's stream, so distinct forks (and
    /// the parent's own continuation) are decorrelated.
    pub fn fork(&mut self) -> Self {
        Self::from_seed(self.next_u64())
    }

    /// Returns the next 64 uniform bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns the next 32 uniform bits (upper half of a 64-bit step).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform value in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 uniform bits scaled by 2^-53: every value is representable and
        // the result is strictly below 1.
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid uniform bounds [{lo}, {hi})"
        );
        lo + (hi - lo) * self.f64()
    }

    /// Returns an exponential variate with the given mean.
    ///
    /// A mean of zero yields zero (a degenerate but convenient case for
    /// "no delay" configurations).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or not finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean >= 0.0,
            "invalid exponential mean {mean}"
        );
        if mean == 0.0 {
            return 0.0;
        }
        // Use 1 - u so the argument of ln is in (0, 1], avoiding ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Returns a uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        // Lemire's multiply-shift maps 64 uniform bits onto [0, n) with
        // negligible bias for any realistic n.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Samples `k` distinct indices from `[0, n)`, in no particular order.
    ///
    /// A partial Fisher–Yates shuffle of `0..n`: step `i` swaps position
    /// `i` with a uniform position in `i..n`. `scratch` keeps the shuffled
    /// array between calls and undoes the previous call's `k` swaps before
    /// drawing, which restores `0..n` without refilling it. So a call costs
    /// O(k), plus a one-time fill of the entries `scratch` has not held yet
    /// (all of `0..n` on the first call), and it makes the same draws and
    /// returns the same slice as shuffling a freshly filled `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn distinct_indices<'a>(
        &mut self,
        k: usize,
        n: usize,
        scratch: &'a mut SubsetScratch,
    ) -> &'a [usize] {
        assert!(k <= n, "cannot choose {k} distinct values from {n}");
        scratch.reset(n);
        for i in 0..k {
            let j = i + self.index(n - i);
            scratch.perm.swap(i, j);
            scratch.swaps.push(j);
        }
        &scratch.perm[..k]
    }

    /// Samples an index from a discrete distribution given by `probs`.
    ///
    /// `probs` need not be exactly normalized; the draw is proportional to
    /// the entries. Returns the last index with positive probability when
    /// floating-point rounding leaves a remainder.
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty or sums to a non-positive value.
    pub fn discrete(&mut self, probs: &[f64]) -> usize {
        assert!(!probs.is_empty(), "discrete distribution must be non-empty");
        let total: f64 = probs.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "discrete distribution must have positive mass"
        );
        let mut target = self.f64() * total;
        let mut last_positive = 0;
        for (i, &p) in probs.iter().enumerate() {
            if p > 0.0 {
                last_positive = i;
                if target < p {
                    return i;
                }
                target -= p;
            }
        }
        last_positive
    }

    /// Samples an index from a *cumulative* distribution by binary search.
    ///
    /// `cdf` must be non-decreasing with `cdf.last()` ≈ 1. This is the fast
    /// path for per-phase cached probability vectors.
    ///
    /// # Panics
    ///
    /// Panics if `cdf` is empty.
    pub fn discrete_cdf(&mut self, cdf: &[f64]) -> usize {
        assert!(!cdf.is_empty(), "cdf must be non-empty");
        let u = self.f64() * cdf.last().copied().unwrap_or(1.0);
        match cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(cdf.len() - 1),
        }
    }
}

/// Reusable state for [`SimRng::distinct_indices`].
///
/// Between calls `perm` is `0..len` except where the last call's swaps
/// moved it, and `swaps[i]` is the position step `i` of that call swapped
/// with position `i`.
#[derive(Debug, Clone, Default)]
pub struct SubsetScratch {
    perm: Vec<usize>,
    swaps: Vec<usize>,
}

impl SubsetScratch {
    /// An empty scratch; the first draw fills it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Undoes the last call's swaps, last first (each swap is its own
    /// inverse), then grows or cuts `perm` to the identity on `0..n`.
    fn reset(&mut self, n: usize) {
        for (i, &j) in self.swaps.iter().enumerate().rev() {
            self.perm.swap(i, j);
        }
        self.swaps.clear();
        let len = self.perm.len();
        if n < len {
            self.perm.truncate(n);
        } else {
            self.perm.extend(len..n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(123);
        let mut b = SimRng::from_seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_decorrelated_and_deterministic() {
        let mut a = SimRng::from_seed(9);
        let mut b = SimRng::from_seed(9);
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..32 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
        // Parent continues identically after the fork.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exp_mean_is_close() {
        let mut rng = SimRng::from_seed(7);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.exp(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn exp_zero_mean_is_zero() {
        let mut rng = SimRng::from_seed(7);
        assert_eq!(rng.exp(0.0), 0.0);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::from_seed(3);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = SimRng::from_seed(41);
        for _ in 0..10_000 {
            let u = rng.f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_covers_range_uniformly() {
        let mut rng = SimRng::from_seed(19);
        let n = 8;
        let mut counts = vec![0usize; n];
        let draws = 80_000;
        for _ in 0..draws {
            counts[rng.index(n)] += 1;
        }
        let expected = draws as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "index {i}: {c}"
            );
        }
    }

    #[test]
    fn distinct_indices_are_distinct_and_in_range() {
        let mut rng = SimRng::from_seed(5);
        let mut scratch = SubsetScratch::new();
        for _ in 0..200 {
            let picked: Vec<usize> = rng.distinct_indices(5, 20, &mut scratch).to_vec();
            let mut sorted = picked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5);
            assert!(picked.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn distinct_indices_full_draw_is_permutation() {
        let mut rng = SimRng::from_seed(5);
        let mut scratch = SubsetScratch::new();
        let mut picked: Vec<usize> = rng.distinct_indices(8, 8, &mut scratch).to_vec();
        picked.sort_unstable();
        assert_eq!(picked, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn discrete_respects_zero_mass() {
        let mut rng = SimRng::from_seed(11);
        for _ in 0..500 {
            let i = rng.discrete(&[0.0, 1.0, 0.0, 3.0]);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn discrete_frequencies_match() {
        let mut rng = SimRng::from_seed(13);
        let probs = [0.1, 0.2, 0.3, 0.4];
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.discrete(&probs)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / n as f64;
            assert!((freq - probs[i]).abs() < 0.01, "index {i}: {freq}");
        }
    }

    #[test]
    fn discrete_cdf_matches_discrete() {
        let mut rng = SimRng::from_seed(17);
        let probs = [0.25, 0.25, 0.5];
        let cdf = [0.25, 0.5, 1.0];
        let mut counts = [0usize; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[rng.discrete_cdf(&cdf)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / n as f64;
            assert!((freq - probs[i]).abs() < 0.015, "index {i}: {freq}");
        }
    }
}
