//! Declarative policy specifications for experiment configuration.

use serde::{Deserialize, Serialize};

use crate::Load;

/// A serializable description of a policy, used by the experiment harness
/// to configure runs and label output rows.
///
/// LI variants carry the client's arrival-rate *estimate* λ̂; the
/// misestimation experiments (paper §5.6) set it different from the true λ.
///
/// # Example
///
/// ```
/// use staleload_policies::{DispatchPolicy, PolicySpec};
///
/// let spec = PolicySpec::BasicLi { lambda: 0.9 };
/// assert_eq!(spec.label(), "Basic LI");
/// let mut policy = DispatchPolicy::from_spec(&spec);
/// # let _ = &mut policy;
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Uniform random (oblivious, `k = 1`).
    Random,
    /// Least loaded of a random `k`-subset.
    KSubset {
        /// Subset size.
        k: usize,
    },
    /// Least loaded of all servers (`k = n`).
    Greedy,
    /// Random among servers with reported load ≤ `threshold`.
    Threshold {
        /// Light/heavy classification threshold.
        threshold: Load,
    },
    /// Probe up to `probes` random servers, send to the first with load ≤
    /// `threshold` (Eager–Lazowska–Zahorjan style; baseline extension).
    ProbeThreshold {
        /// Probe budget.
        probes: usize,
        /// Light/heavy classification threshold.
        threshold: Load,
    },
    /// Basic Load Interpretation (Eqs. 2–4).
    BasicLi {
        /// Arrival-rate estimate λ̂ (per-server, fraction of capacity).
        lambda: f64,
    },
    /// Aggressive Load Interpretation (Eq. 5).
    AggressiveLi {
        /// Arrival-rate estimate λ̂.
        lambda: f64,
    },
    /// Hybrid Load Interpretation (§4.1.1).
    HybridLi {
        /// Arrival-rate estimate λ̂.
        lambda: f64,
    },
    /// Basic LI over a random `k`-subset (§5.7).
    LiSubset {
        /// Subset size.
        k: usize,
        /// Arrival-rate estimate λ̂.
        lambda: f64,
    },
    /// Ad-hoc age-decayed weighting (baseline extension).
    WeightedDecay {
        /// Decay time constant τ.
        tau: f64,
    },
    /// Basic LI with λ̂ estimated online (extension motivated by §5.6).
    AdaptiveLi {
        /// EWMA smoothing factor for inter-arrival gaps.
        alpha: f64,
        /// Arrivals observed before the estimate is trusted.
        warmup: u64,
    },
    /// Capacity-aware LI for heterogeneous servers (extension, §6).
    HeteroLi {
        /// Arrival-rate estimate λ̂ as a fraction of total capacity.
        lambda: f64,
        /// Per-server service rates.
        capacities: Vec<f64>,
    },
    /// Size-based task assignment with explicit cutoffs (extension;
    /// ref. \[12\]). Use [`crate::Sita::equal_load`] to derive SITA-E
    /// boundaries from a job-size distribution.
    Sita {
        /// Ascending size cutoffs (`len + 1` servers).
        boundaries: Vec<f64>,
    },
    /// `inner` with board entries older than `cutoff` masked out
    /// (fault-injection extension; see [`StalenessGate`](crate::StalenessGate)).
    Gated {
        /// Maximum entry age the inner policy is allowed to see.
        cutoff: f64,
        /// The policy being gated.
        inner: Box<PolicySpec>,
    },
    /// `inner` behind a herd-detecting circuit breaker that demotes it to
    /// uniform random while its dispatch concentration exceeds `threshold`
    /// (overload-control extension; see [`HerdGuard`](crate::HerdGuard)).
    Guarded {
        /// Trip threshold on the normalized max-share score (1 = uniform,
        /// n = total concentration); must exceed 1.
        threshold: f64,
        /// Time the breaker stays open before re-probing the inner policy.
        cooldown: f64,
        /// The policy being guarded.
        inner: Box<PolicySpec>,
    },
    /// Dispatch each job to the inner policy's pick *plus* `h - 1` hedge
    /// replicas chosen by repeated inner-policy draws; the first replica
    /// to complete wins and the losers are cancelled
    /// (degraded-information extension).
    ///
    /// The replication and cancel-on-completion machinery lives in the
    /// simulation engine (it owns the event schedule), so hedging must be
    /// the *outermost* wrapper; [`crate::DispatchPolicy::from_spec`] on a
    /// bare `Hedged` spec builds only the inner policy.
    Hedged {
        /// Total copies dispatched per job; `1` means no hedging.
        h: u32,
        /// The policy choosing primary and hedge servers.
        inner: Box<PolicySpec>,
    },
    /// `inner` with servers whose reports have gone missing longer than
    /// `window` ejected from the candidate set, probed and readmitted
    /// with exponential `backoff` (degraded-information extension; see
    /// [`Quarantine`](crate::Quarantine)).
    Quarantined {
        /// Suspicion window: the entry age beyond which a server is
        /// considered silent.
        window: f64,
        /// Initial quarantine interval, doubled after each failed probe.
        backoff: f64,
        /// The policy being protected.
        inner: Box<PolicySpec>,
    },
}

impl PolicySpec {
    /// Splits an outermost [`PolicySpec::Hedged`] wrapper off the spec:
    /// returns the hedge factor (if any) and the spec the engine should
    /// actually build.
    pub fn split_hedged(&self) -> (Option<u32>, &PolicySpec) {
        match self {
            PolicySpec::Hedged { h, inner } => (Some(*h), inner),
            other => (None, other),
        }
    }

    /// Whether a [`PolicySpec::Hedged`] wrapper occurs anywhere in the
    /// spec tree (used to reject hedging below the outermost position).
    pub fn contains_hedged(&self) -> bool {
        match self {
            PolicySpec::Hedged { .. } => true,
            PolicySpec::Gated { inner, .. }
            | PolicySpec::Guarded { inner, .. }
            | PolicySpec::Quarantined { inner, .. } => inner.contains_hedged(),
            _ => false,
        }
    }

    /// Checks the spec's parameters are in range, so a driver can reject a
    /// bad configuration with an error instead of the constructor
    /// assertions firing mid-run.
    ///
    /// # Errors
    ///
    /// Returns a message naming the out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            PolicySpec::KSubset { k: 0 } | PolicySpec::LiSubset { k: 0, .. } => {
                return Err("subset size k must be at least 1".to_string());
            }
            // A wrong estimate is fine (the misestimation experiments of
            // §5.6 feed one on purpose); one LI cannot compute with is not.
            PolicySpec::BasicLi { lambda }
            | PolicySpec::AggressiveLi { lambda }
            | PolicySpec::HybridLi { lambda }
            | PolicySpec::LiSubset { lambda, .. }
            | PolicySpec::HeteroLi { lambda, .. }
                if !(lambda.is_finite() && *lambda >= 0.0) =>
            {
                return Err(format!(
                    "LI arrival-rate estimate λ̂ must be non-negative and finite, got {lambda}"
                ));
            }
            PolicySpec::ProbeThreshold { probes: 0, .. } => {
                return Err("probe budget must be at least 1".to_string());
            }
            PolicySpec::WeightedDecay { tau } if !(tau.is_finite() && *tau > 0.0) => {
                return Err(format!("decay constant tau must be positive, got {tau}"));
            }
            PolicySpec::AdaptiveLi { alpha, .. }
                if !(alpha.is_finite() && *alpha > 0.0 && *alpha <= 1.0) =>
            {
                return Err(format!("EWMA alpha must be in (0, 1], got {alpha}"));
            }
            PolicySpec::HeteroLi { capacities, .. } => {
                if capacities.is_empty() {
                    return Err("hetero LI needs at least one capacity".to_string());
                }
                if let Some(c) = capacities.iter().find(|c| !(c.is_finite() && **c > 0.0)) {
                    return Err(format!("capacities must be positive, got {c}"));
                }
            }
            PolicySpec::Sita { boundaries }
                if boundaries.windows(2).any(|w| w[0] >= w[1])
                    || boundaries.iter().any(|b| !(b.is_finite() && *b > 0.0)) =>
            {
                return Err("SITA boundaries must be positive and ascending".to_string());
            }
            PolicySpec::Gated { cutoff, inner } => {
                if !(cutoff.is_finite() && *cutoff >= 0.0) {
                    return Err(format!(
                        "staleness cutoff must be non-negative, got {cutoff}"
                    ));
                }
                inner.validate()?;
            }
            PolicySpec::Guarded {
                threshold,
                cooldown,
                inner,
            } => {
                if !(threshold.is_finite() && *threshold > 1.0) {
                    return Err(format!(
                        "herd threshold must be finite and above 1 (uniform), got {threshold}"
                    ));
                }
                if !(cooldown.is_finite() && *cooldown > 0.0) {
                    return Err(format!(
                        "guard cooldown must be finite and positive, got {cooldown}"
                    ));
                }
                inner.validate()?;
            }
            PolicySpec::Hedged { h, inner } => {
                if *h < 1 {
                    return Err("hedge factor must be at least 1".to_string());
                }
                if inner.contains_hedged() {
                    return Err(
                        "hedged must be the outermost policy wrapper (nested hedging \
                         would multiply replicas)"
                            .to_string(),
                    );
                }
                inner.validate()?;
            }
            PolicySpec::Quarantined {
                window,
                backoff,
                inner,
            } => {
                if !(window.is_finite() && *window > 0.0) {
                    return Err(format!(
                        "quarantine window must be finite and positive, got {window}"
                    ));
                }
                if !(backoff.is_finite() && *backoff > 0.0) {
                    return Err(format!(
                        "quarantine backoff must be finite and positive, got {backoff}"
                    ));
                }
                inner.validate()?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Human-readable label used in result tables (matches the paper's
    /// figure legends where applicable).
    pub fn label(&self) -> String {
        match *self {
            PolicySpec::Random => "Random (k=1)".to_string(),
            PolicySpec::KSubset { k } => format!("k={k}"),
            PolicySpec::Greedy => "Greedy (k=n)".to_string(),
            PolicySpec::Threshold { threshold } => format!("thresh={threshold}"),
            PolicySpec::ProbeThreshold { probes, threshold } => {
                format!("probe({probes},t={threshold})")
            }
            PolicySpec::BasicLi { .. } => "Basic LI".to_string(),
            PolicySpec::AggressiveLi { .. } => "Aggressive LI".to_string(),
            PolicySpec::HybridLi { .. } => "Hybrid LI".to_string(),
            PolicySpec::LiSubset { k, .. } => format!("Basic LI (k={k})"),
            PolicySpec::WeightedDecay { tau } => format!("Decay(tau={tau})"),
            PolicySpec::AdaptiveLi { .. } => "Adaptive LI".to_string(),
            PolicySpec::HeteroLi { .. } => "Hetero LI".to_string(),
            PolicySpec::Sita { .. } => "SITA-E".to_string(),
            PolicySpec::Gated { cutoff, ref inner } => {
                format!("gated({}, cutoff={cutoff})", inner.label())
            }
            PolicySpec::Guarded {
                threshold,
                cooldown,
                ref inner,
            } => format!("guarded({}, thr={threshold}, cd={cooldown})", inner.label()),
            PolicySpec::Hedged { h, ref inner } => {
                format!("hedged({}, h={h})", inner.label())
            }
            PolicySpec::Quarantined {
                window,
                backoff,
                ref inner,
            } => format!(
                "quarantined({}, win={window}, backoff={backoff})",
                inner.label()
            ),
        }
    }

    /// Whether this policy interprets load against an arrival-rate estimate
    /// (the LI family).
    pub fn uses_lambda_estimate(&self) -> bool {
        match self {
            PolicySpec::BasicLi { .. }
            | PolicySpec::AggressiveLi { .. }
            | PolicySpec::HybridLi { .. }
            | PolicySpec::LiSubset { .. }
            | PolicySpec::HeteroLi { .. } => true,
            PolicySpec::Gated { inner, .. }
            | PolicySpec::Guarded { inner, .. }
            | PolicySpec::Hedged { inner, .. }
            | PolicySpec::Quarantined { inner, .. } => inner.uses_lambda_estimate(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DispatchPolicy, InfoAge, LoadView, Policy};
    use staleload_sim::SimRng;

    fn all_specs() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Random,
            PolicySpec::KSubset { k: 2 },
            PolicySpec::Greedy,
            PolicySpec::Threshold { threshold: 3 },
            PolicySpec::ProbeThreshold {
                probes: 3,
                threshold: 2,
            },
            PolicySpec::BasicLi { lambda: 0.9 },
            PolicySpec::AggressiveLi { lambda: 0.9 },
            PolicySpec::HybridLi { lambda: 0.9 },
            PolicySpec::LiSubset { k: 3, lambda: 0.9 },
            PolicySpec::WeightedDecay { tau: 5.0 },
            PolicySpec::AdaptiveLi {
                alpha: 0.05,
                warmup: 10,
            },
            PolicySpec::HeteroLi {
                lambda: 0.9,
                capacities: vec![1.0; 5],
            },
            PolicySpec::Sita {
                boundaries: vec![0.5, 1.0, 2.0, 4.0],
            },
            PolicySpec::Gated {
                cutoff: 5.0,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.9 }),
            },
            PolicySpec::Guarded {
                threshold: 2.0,
                cooldown: 10.0,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.9 }),
            },
            PolicySpec::Hedged {
                h: 2,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.9 }),
            },
            PolicySpec::Quarantined {
                window: 5.0,
                backoff: 10.0,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.9 }),
            },
        ]
    }

    #[test]
    fn every_spec_builds_and_selects_in_range() {
        let mut rng = SimRng::from_seed(1);
        let loads = [3u32, 0, 7, 2, 5];
        for info in [
            InfoAge::Aged { age: 2.0 },
            InfoAge::Phase {
                start: 0.0,
                length: 4.0,
                now: 1.0,
                epoch: 1,
            },
        ] {
            let view = LoadView {
                loads: &loads,
                info,
                ages: None,
            };
            for spec in all_specs() {
                let mut p = DispatchPolicy::from_spec(&spec);
                for _ in 0..64 {
                    let s = p.select(&view, &mut rng);
                    assert!(s < loads.len(), "{}: {s}", spec.label());
                }
            }
        }
    }

    #[test]
    fn labels_are_unique_and_nonempty() {
        let labels: Vec<String> = all_specs().iter().map(PolicySpec::label).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert!(labels.iter().all(|l| !l.is_empty()));
    }

    #[test]
    fn lambda_flag_matches_family() {
        assert!(PolicySpec::BasicLi { lambda: 0.9 }.uses_lambda_estimate());
        assert!(!PolicySpec::Random.uses_lambda_estimate());
        assert!(!PolicySpec::KSubset { k: 2 }.uses_lambda_estimate());
        let gated = |inner: PolicySpec| PolicySpec::Gated {
            cutoff: 1.0,
            inner: Box::new(inner),
        };
        assert!(gated(PolicySpec::BasicLi { lambda: 0.9 }).uses_lambda_estimate());
        assert!(!gated(PolicySpec::Random).uses_lambda_estimate());
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        for spec in all_specs() {
            assert!(spec.validate().is_ok(), "{}", spec.label());
        }
        assert!(PolicySpec::KSubset { k: 0 }.validate().is_err());
        assert!(PolicySpec::ProbeThreshold {
            probes: 0,
            threshold: 2
        }
        .validate()
        .is_err());
        assert!(PolicySpec::WeightedDecay { tau: 0.0 }.validate().is_err());
        assert!(PolicySpec::AdaptiveLi {
            alpha: 1.5,
            warmup: 10
        }
        .validate()
        .is_err());
        assert!(PolicySpec::HeteroLi {
            lambda: 0.9,
            capacities: vec![]
        }
        .validate()
        .is_err());
        assert!(PolicySpec::HeteroLi {
            lambda: 0.9,
            capacities: vec![1.0, -1.0]
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Sita {
            boundaries: vec![2.0, 1.0]
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Gated {
            cutoff: -1.0,
            inner: Box::new(PolicySpec::Random)
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Gated {
            cutoff: 1.0,
            inner: Box::new(PolicySpec::KSubset { k: 0 })
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Guarded {
            threshold: 1.0,
            cooldown: 10.0,
            inner: Box::new(PolicySpec::Random)
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Guarded {
            threshold: 2.0,
            cooldown: 0.0,
            inner: Box::new(PolicySpec::Random)
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Guarded {
            threshold: 2.0,
            cooldown: 10.0,
            inner: Box::new(PolicySpec::KSubset { k: 0 })
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Hedged {
            h: 0,
            inner: Box::new(PolicySpec::Random)
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Quarantined {
            window: 0.0,
            backoff: 10.0,
            inner: Box::new(PolicySpec::Random)
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Quarantined {
            window: 5.0,
            backoff: f64::NAN,
            inner: Box::new(PolicySpec::Random)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn hedged_splits_off_and_must_be_outermost() {
        let hedged = PolicySpec::Hedged {
            h: 3,
            inner: Box::new(PolicySpec::BasicLi { lambda: 0.9 }),
        };
        let (h, rest) = hedged.split_hedged();
        assert_eq!(h, Some(3));
        assert_eq!(*rest, PolicySpec::BasicLi { lambda: 0.9 });
        let plain = PolicySpec::Greedy;
        assert_eq!(plain.split_hedged(), (None, &plain));

        // Hedging below another wrapper is rejected: the engine can only
        // strip the outermost layer.
        let nested = PolicySpec::Gated {
            cutoff: 5.0,
            inner: Box::new(hedged.clone()),
        };
        assert!(nested.contains_hedged());
        let err = PolicySpec::Hedged {
            h: 2,
            inner: Box::new(PolicySpec::Quarantined {
                window: 5.0,
                backoff: 10.0,
                inner: Box::new(hedged),
            }),
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("outermost"), "{err}");
        assert!(!plain.contains_hedged());
    }
}
