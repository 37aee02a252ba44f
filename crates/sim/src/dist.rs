//! Random variates used by the study's workloads and delay models.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::SimRng;

/// A non-negative random variate.
///
/// These are the distributions the paper's evaluation draws from: constant
/// and uniform and exponential delays (§5.2), exponential job sizes (§5
/// defaults), and Bounded Pareto job sizes (§5.5).
///
/// # Example
///
/// ```
/// use staleload_sim::{Dist, SimRng};
///
/// let mut rng = SimRng::from_seed(1);
/// // Bounded Pareto with tail index 1.1, support [k, 100], mean forced to 1.
/// let d = Dist::bounded_pareto_with_mean(1.1, 100.0, 1.0)?;
/// let x = d.sample(&mut rng);
/// assert!(x <= 100.0);
/// assert!((d.mean() - 1.0).abs() < 1e-9);
/// # Ok::<(), staleload_sim::DistError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Always the same value.
    Constant {
        /// The value returned by every sample.
        value: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Bounded Pareto on `[lo, hi]` with tail index `alpha`.
    ///
    /// Probability density `f(x) = alpha * lo^alpha * x^(-alpha-1) / (1 - (lo/hi)^alpha)`,
    /// the distribution used by Harchol-Balter & Crovella for highly variable
    /// task sizes and by the paper's §5.5 workloads.
    BoundedPareto {
        /// Tail index (smaller means heavier tail).
        alpha: f64,
        /// Smallest possible value.
        lo: f64,
        /// Largest possible value.
        hi: f64,
    },
}

/// Error constructing a distribution from invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistError {
    what: String,
}

impl DistError {
    fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameters: {}", self.what)
    }
}

impl std::error::Error for DistError {}

impl Dist {
    /// A distribution that always returns `value`.
    pub fn constant(value: f64) -> Self {
        Dist::Constant { value }
    }

    /// An exponential distribution with the given mean.
    pub fn exponential(mean: f64) -> Self {
        Dist::Exponential { mean }
    }

    /// A uniform distribution on `[lo, hi)`.
    pub fn uniform(lo: f64, hi: f64) -> Self {
        Dist::Uniform { lo, hi }
    }

    /// A Bounded Pareto distribution on `[lo, hi]` with tail index `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] if `alpha <= 0`, `lo <= 0`, or `hi <= lo`.
    pub fn bounded_pareto(alpha: f64, lo: f64, hi: f64) -> Result<Self, DistError> {
        if alpha.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !alpha.is_finite() {
            return Err(DistError::new(format!(
                "alpha must be positive, got {alpha}"
            )));
        }
        if lo.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater)
        {
            return Err(DistError::new(format!(
                "need 0 < lo < hi, got lo={lo} hi={hi}"
            )));
        }
        Ok(Dist::BoundedPareto { alpha, lo, hi })
    }

    /// A Bounded Pareto with tail index `alpha`, maximum `hi`, and the lower
    /// bound solved (by bisection) so that the mean equals `mean`.
    ///
    /// This mirrors the paper's §5.5 setup ("k was chosen to set the mean
    /// request size at 1.0 for these values of alpha and p").
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] if the parameters are invalid or no lower bound
    /// in `(0, hi)` attains the requested mean (e.g. `mean >= hi`).
    pub fn bounded_pareto_with_mean(alpha: f64, hi: f64, mean: f64) -> Result<Self, DistError> {
        if mean.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || mean >= hi {
            return Err(DistError::new(format!(
                "need 0 < mean < hi, got mean={mean} hi={hi}"
            )));
        }
        // The mean is strictly increasing in `lo`, from 0 (lo -> 0, alpha > 1)
        // or small values toward hi (lo -> hi). Bisection on log-space is robust.
        let mut lo_k = mean * 1e-12;
        let mut hi_k = hi * (1.0 - 1e-12);
        let f =
            |k: f64| -> Result<f64, DistError> { Ok(Dist::bounded_pareto(alpha, k, hi)?.mean()) };
        if f(lo_k)? > mean {
            return Err(DistError::new(format!(
                "mean {mean} unattainable: even lo -> 0 gives mean {}",
                f(lo_k)?
            )));
        }
        for _ in 0..200 {
            let mid = (lo_k * hi_k).sqrt();
            if f(mid)? < mean {
                lo_k = mid;
            } else {
                hi_k = mid;
            }
        }
        Dist::bounded_pareto(alpha, (lo_k * hi_k).sqrt(), hi)
    }

    /// Draws one value.
    ///
    /// A caller that draws many values should build [`Dist::sampler`]
    /// once and draw from it: the draws are the same, bit for bit.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sampler().sample(rng)
    }

    /// The distribution's constants, computed once, for repeated draws.
    pub fn sampler(&self) -> Sampler {
        Sampler(match *self {
            Dist::Constant { value } => Draw::Constant(value),
            Dist::Uniform { lo, hi } => Draw::Uniform { lo, hi },
            Dist::Exponential { mean } => Draw::Exponential(mean),
            Dist::BoundedPareto { alpha, lo, hi } => Draw::BoundedPareto {
                lo,
                norm: 1.0 - (lo / hi).powf(alpha),
                inv_alpha: 1.0 / alpha,
            },
        })
    }

    /// The analytic mean of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant { value } => value,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::Exponential { mean } => mean,
            Dist::BoundedPareto { alpha, lo, hi } => {
                let norm = 1.0 - (lo / hi).powf(alpha);
                let integral = if (alpha - 1.0).abs() < 1e-9 {
                    (hi / lo).ln()
                } else {
                    (hi.powf(1.0 - alpha) - lo.powf(1.0 - alpha)) / (1.0 - alpha)
                };
                alpha * lo.powf(alpha) * integral / norm
            }
        }
    }

    /// The analytic variance of the distribution, if finite.
    ///
    /// All supported distributions have finite variance on bounded support;
    /// this is primarily useful for reporting workload variability.
    pub fn variance(&self) -> f64 {
        match *self {
            Dist::Constant { .. } => 0.0,
            Dist::Uniform { lo, hi } => (hi - lo) * (hi - lo) / 12.0,
            Dist::Exponential { mean } => mean * mean,
            Dist::BoundedPareto { alpha, lo, hi } => {
                let norm = 1.0 - (lo / hi).powf(alpha);
                let second = if (alpha - 2.0).abs() < 1e-9 {
                    alpha * lo.powf(alpha) * (hi / lo).ln() / norm
                } else {
                    alpha * lo.powf(alpha) * (hi.powf(2.0 - alpha) - lo.powf(2.0 - alpha))
                        / ((2.0 - alpha) * norm)
                };
                let m = self.mean();
                second - m * m
            }
        }
    }

    /// Partial mean `E[X · 1{X ≤ x}]` — the expected work contributed by
    /// values at or below `x`.
    ///
    /// Used by size-based task assignment (SITA) to split the workload into
    /// equal-work size bands. Monotone in `x`, from 0 to [`Dist::mean`].
    ///
    /// # Example
    ///
    /// ```
    /// use staleload_sim::Dist;
    ///
    /// let d = Dist::exponential(1.0);
    /// assert!(d.partial_mean_below(0.0) < 1e-12);
    /// assert!((d.partial_mean_below(f64::INFINITY) - 1.0).abs() < 1e-12);
    /// ```
    pub fn partial_mean_below(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        match *self {
            Dist::Constant { value } => {
                if x >= value {
                    value
                } else {
                    0.0
                }
            }
            Dist::Uniform { lo, hi } => {
                if x <= lo {
                    0.0
                } else if x >= hi {
                    self.mean()
                } else {
                    (x * x - lo * lo) / (2.0 * (hi - lo))
                }
            }
            Dist::Exponential { mean } => {
                if mean == 0.0 {
                    return 0.0;
                }
                // ∫₀ˣ t·e^(−t/m)/m dt = m − e^(−x/m)·(x + m); the tail term
                // underflows to 0 well before x/m reaches 700 (and would be
                // 0·∞ = NaN at x = ∞).
                if x / mean > 700.0 {
                    return mean;
                }
                mean - (-x / mean).exp() * (x + mean)
            }
            Dist::BoundedPareto { alpha, lo, hi } => {
                let x = x.clamp(lo, hi);
                let norm = alpha * lo.powf(alpha) / (1.0 - (lo / hi).powf(alpha));
                if (alpha - 1.0).abs() < 1e-9 {
                    norm * (x / lo).ln()
                } else {
                    norm * (x.powf(1.0 - alpha) - lo.powf(1.0 - alpha)) / (1.0 - alpha)
                }
            }
        }
    }
}

/// A [`Dist`] ready to draw from: whatever a draw needs that does not
/// change between draws is computed once, by [`Dist::sampler`].
///
/// The engine builds one per trial for its service times. For a Bounded
/// Pareto that saves a `powf` and a division per draw.
///
/// # Example
///
/// ```
/// use staleload_sim::{Dist, SimRng};
///
/// let d = Dist::bounded_pareto_with_mean(1.1, 100.0, 1.0)?;
/// let sampler = d.sampler();
/// let (mut a, mut b) = (SimRng::from_seed(3), SimRng::from_seed(3));
/// assert_eq!(sampler.sample(&mut a).to_bits(), d.sample(&mut b).to_bits());
/// # Ok::<(), staleload_sim::DistError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sampler(Draw);

#[derive(Debug, Clone, Copy)]
enum Draw {
    Constant(f64),
    Uniform {
        lo: f64,
        hi: f64,
    },
    Exponential(f64),
    /// Inverse CDF: `F(x) = (1 - (lo/x)^α) / norm`, `norm = 1 - (lo/hi)^α`.
    BoundedPareto {
        lo: f64,
        norm: f64,
        inv_alpha: f64,
    },
}

impl Sampler {
    /// Draws one value.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self.0 {
            Draw::Constant(value) => value,
            Draw::Uniform { lo, hi } => rng.uniform(lo, hi),
            Draw::Exponential(mean) => rng.exp(mean),
            Draw::BoundedPareto {
                lo,
                norm,
                inv_alpha,
            } => {
                let u = rng.f64();
                lo / (1.0 - u * norm).powf(inv_alpha)
            }
        }
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Dist::Constant { value } => write!(f, "Constant({value})"),
            Dist::Uniform { lo, hi } => write!(f, "Uniform({lo}, {hi})"),
            Dist::Exponential { mean } => write!(f, "Exp(mean={mean})"),
            Dist::BoundedPareto { alpha, lo, hi } => {
                write!(f, "BoundedPareto(alpha={alpha}, lo={lo:.4}, hi={hi})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: &Dist, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::from_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_samples_value() {
        let d = Dist::constant(3.5);
        let mut rng = SimRng::from_seed(1);
        assert_eq!(d.sample(&mut rng), 3.5);
        assert_eq!(d.mean(), 3.5);
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    fn uniform_mean_matches() {
        let d = Dist::uniform(1.0, 3.0);
        assert_eq!(d.mean(), 2.0);
        let m = empirical_mean(&d, 100_000, 2);
        assert!((m - 2.0).abs() < 0.01, "{m}");
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Dist::exponential(4.0);
        let m = empirical_mean(&d, 200_000, 3);
        assert!((m - 4.0).abs() < 0.1, "{m}");
    }

    #[test]
    fn bounded_pareto_support() {
        let d = Dist::bounded_pareto(1.1, 0.5, 100.0).unwrap();
        let mut rng = SimRng::from_seed(4);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((0.5..=100.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn bounded_pareto_analytic_mean_matches_empirical() {
        let d = Dist::bounded_pareto(1.1, 0.3, 50.0).unwrap();
        let m = empirical_mean(&d, 400_000, 5);
        assert!(
            (m - d.mean()).abs() / d.mean() < 0.03,
            "analytic {} empirical {m}",
            d.mean()
        );
    }

    #[test]
    fn bounded_pareto_alpha_one_mean() {
        // alpha == 1 exercises the logarithmic branch of the mean formula.
        let d = Dist::bounded_pareto(1.0, 0.5, 64.0).unwrap();
        let m = empirical_mean(&d, 400_000, 6);
        assert!(
            (m - d.mean()).abs() / d.mean() < 0.03,
            "analytic {} empirical {m}",
            d.mean()
        );
    }

    #[test]
    fn bounded_pareto_with_mean_hits_target() {
        for &(alpha, hi) in &[(1.1, 100.0), (1.1, 1024.0), (1.5, 100.0), (0.9, 1000.0)] {
            let d = Dist::bounded_pareto_with_mean(alpha, hi, 1.0).unwrap();
            assert!((d.mean() - 1.0).abs() < 1e-6, "{d}: mean {}", d.mean());
        }
    }

    #[test]
    fn bounded_pareto_with_mean_rejects_impossible() {
        assert!(Dist::bounded_pareto_with_mean(1.1, 2.0, 5.0).is_err());
        assert!(Dist::bounded_pareto_with_mean(1.1, 2.0, 0.0).is_err());
    }

    #[test]
    fn bounded_pareto_rejects_bad_params() {
        assert!(Dist::bounded_pareto(0.0, 1.0, 2.0).is_err());
        assert!(Dist::bounded_pareto(1.0, 0.0, 2.0).is_err());
        assert!(Dist::bounded_pareto(1.0, 2.0, 2.0).is_err());
    }

    #[test]
    fn bounded_pareto_is_highly_variable() {
        // The paper uses BP precisely because CV^2 is much larger than
        // the exponential's CV^2 of 1.
        let cv2 = |d: Dist| d.variance() / (d.mean() * d.mean());
        let d = Dist::bounded_pareto_with_mean(1.1, 1024.0, 1.0).unwrap();
        assert!(cv2(d) > 5.0, "cv2 = {}", cv2(d));
        assert!((cv2(Dist::exponential(1.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_mean_matches_monte_carlo() {
        let dists = [
            Dist::constant(2.0),
            Dist::uniform(1.0, 5.0),
            Dist::exponential(2.0),
            Dist::bounded_pareto(1.1, 0.4, 64.0).unwrap(),
            Dist::bounded_pareto(1.0, 0.4, 64.0).unwrap(),
        ];
        let mut rng = SimRng::from_seed(31);
        for d in dists {
            let cut = d.mean(); // probe at the mean
            let n = 300_000;
            let mc: f64 = (0..n)
                .map(|_| {
                    let v = d.sample(&mut rng);
                    if v <= cut {
                        v
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
                / n as f64;
            let analytic = d.partial_mean_below(cut);
            assert!(
                (mc - analytic).abs() < 0.03 * (1.0 + d.mean()),
                "{d}: MC {mc} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn partial_mean_is_monotone_and_bounded() {
        let d = Dist::bounded_pareto(1.3, 0.5, 100.0).unwrap();
        let mut prev = 0.0;
        for i in 0..50 {
            let x = 0.1 * 1.2f64.powi(i);
            let pm = d.partial_mean_below(x);
            assert!(pm >= prev - 1e-12);
            assert!(pm <= d.mean() + 1e-9);
            prev = pm;
        }
        assert!((d.partial_mean_below(1e12) - d.mean()).abs() < 1e-9);
    }

    /// The Bounded Pareto draws of Figs. 10–11's service times keep the
    /// bits they had when every draw recomputed its constants: 4 096
    /// draws of seed 1, folded into an FNV-1a digest of their bits, from
    /// [`Dist::sample`] and from one [`Sampler`] alike.
    #[test]
    fn bounded_pareto_draws_keep_their_bits() {
        let d = Dist::bounded_pareto_with_mean(1.1, 100.0, 1.0).unwrap();
        let Dist::BoundedPareto { lo, .. } = d else {
            panic!("{d:?}");
        };
        assert_eq!(lo.to_bits(), 0x3fc9_0d4c_cbc5_9d62);
        let sampler = d.sampler();
        let draws: [&dyn Fn(&mut SimRng) -> f64; 2] =
            [&|rng| d.sample(rng), &|rng| sampler.sample(rng)];
        for draw in draws {
            let mut rng = SimRng::from_seed(1);
            let bits: Vec<u64> = (0..4096).map(|_| draw(&mut rng).to_bits()).collect();
            assert_eq!(
                bits[..3],
                [
                    0x3fec_728f_5bf2_77cf,
                    0x3fe5_cb51_2cae_5e25,
                    0x3fcb_9249_c33c_3237
                ]
            );
            let digest = bits
                .iter()
                .flat_map(|b| b.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, byte| {
                    (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(digest, 0x2377_91a4_d0ab_2a9e);
        }
    }

    #[test]
    fn display_is_nonempty() {
        for d in [
            Dist::constant(1.0),
            Dist::uniform(0.0, 1.0),
            Dist::exponential(1.0),
            Dist::bounded_pareto(1.1, 0.1, 10.0).unwrap(),
        ] {
            assert!(!d.to_string().is_empty());
        }
    }
}
