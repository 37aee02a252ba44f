//! Enum-based static dispatch for the simulation hot loop.
//!
//! [`crate::PolicySpec::build`] returns a `Box<dyn Policy>`, which costs a
//! virtual call per arrival on the engine's hottest path. The paper's core
//! policies are a small closed set, so [`DispatchPolicy`] lists them as enum
//! variants: the engine matches once per call and the policy body inlines.
//! Composed specs (`Gated`, `Guarded`, `Hedged`, `Quarantined`) wrap an
//! arbitrary inner policy and keep the boxed representation via
//! [`DispatchPolicy::Dyn`] — they are overload-control and
//! degraded-information experiments, not steady-state hot paths.
//!
//! Behavior is bit-identical to the boxed build: both construct the same
//! policy values, which draw from the RNG in the same order.

use staleload_sim::SimRng;

use crate::{
    AdaptiveLi, AggressiveLi, BasicLi, Greedy, HeteroLi, HybridLi, KSubset, LiSubset, LoadView,
    Policy, PolicySpec, PolicyTelemetry, ProbeThreshold, Random, Sita, Threshold, WeightedDecay,
};

/// A [`Policy`] with enum (static) dispatch for the closed set of leaf
/// policies, falling back to boxed dynamic dispatch for composed specs.
///
/// Build one with [`DispatchPolicy::from_spec`]; it implements [`Policy`]
/// and can be used anywhere a policy is expected.
#[allow(missing_docs)] // variants mirror PolicySpec, documented there
pub enum DispatchPolicy {
    Random(Random),
    KSubset(KSubset),
    Greedy(Greedy),
    Threshold(Threshold),
    ProbeThreshold(ProbeThreshold),
    BasicLi(BasicLi),
    AggressiveLi(AggressiveLi),
    HybridLi(HybridLi),
    LiSubset(LiSubset),
    WeightedDecay(WeightedDecay),
    AdaptiveLi(AdaptiveLi),
    HeteroLi(HeteroLi),
    Sita(Sita),
    /// Composed policies (staleness gate, herd guard, quarantine, hedged
    /// inner): dynamic dispatch.
    Dyn(Box<dyn Policy + Send>),
}

impl DispatchPolicy {
    /// Instantiates the policy described by `spec` with static dispatch
    /// where possible.
    pub fn from_spec(spec: &PolicySpec) -> Self {
        match spec.clone() {
            PolicySpec::Random => Self::Random(Random),
            PolicySpec::KSubset { k } => Self::KSubset(KSubset::new(k)),
            PolicySpec::Greedy => Self::Greedy(Greedy::new()),
            PolicySpec::Threshold { threshold } => Self::Threshold(Threshold::new(threshold)),
            PolicySpec::ProbeThreshold { probes, threshold } => {
                Self::ProbeThreshold(ProbeThreshold::new(probes, threshold))
            }
            PolicySpec::BasicLi { lambda } => Self::BasicLi(BasicLi::new(lambda)),
            PolicySpec::AggressiveLi { lambda } => Self::AggressiveLi(AggressiveLi::new(lambda)),
            PolicySpec::HybridLi { lambda } => Self::HybridLi(HybridLi::new(lambda)),
            PolicySpec::LiSubset { k, lambda } => Self::LiSubset(LiSubset::new(k, lambda)),
            PolicySpec::WeightedDecay { tau } => Self::WeightedDecay(WeightedDecay::new(tau)),
            PolicySpec::AdaptiveLi { alpha, warmup } => {
                Self::AdaptiveLi(AdaptiveLi::new(alpha, warmup))
            }
            PolicySpec::HeteroLi { lambda, capacities } => {
                Self::HeteroLi(HeteroLi::new(lambda, capacities))
            }
            PolicySpec::Sita { boundaries } => Self::Sita(Sita::new(boundaries)),
            composed @ (PolicySpec::Gated { .. }
            | PolicySpec::Guarded { .. }
            | PolicySpec::Hedged { .. }
            | PolicySpec::Quarantined { .. }) => Self::Dyn(composed.build()),
        }
    }

    /// The same as [`DispatchPolicy::from_spec`]; kept because the
    /// benchmark package under `perfbench/` still calls it.
    pub fn from_spec_cached(spec: &PolicySpec) -> Self {
        Self::from_spec(spec)
    }

    /// Drops `policy`; kept because the benchmark package under
    /// `perfbench/` still calls it.
    pub fn recycle(policy: Self) {
        drop(policy);
    }
}

macro_rules! for_each_variant {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            DispatchPolicy::Random($p) => $body,
            DispatchPolicy::KSubset($p) => $body,
            DispatchPolicy::Greedy($p) => $body,
            DispatchPolicy::Threshold($p) => $body,
            DispatchPolicy::ProbeThreshold($p) => $body,
            DispatchPolicy::BasicLi($p) => $body,
            DispatchPolicy::AggressiveLi($p) => $body,
            DispatchPolicy::HybridLi($p) => $body,
            DispatchPolicy::LiSubset($p) => $body,
            DispatchPolicy::WeightedDecay($p) => $body,
            DispatchPolicy::AdaptiveLi($p) => $body,
            DispatchPolicy::HeteroLi($p) => $body,
            DispatchPolicy::Sita($p) => $body,
            DispatchPolicy::Dyn($p) => $body,
        }
    };
}

impl Policy for DispatchPolicy {
    #[inline]
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        for_each_variant!(self, p => p.select(view, rng))
    }

    #[inline]
    fn select_sized(&mut self, view: &LoadView<'_>, size: f64, rng: &mut SimRng) -> usize {
        for_each_variant!(self, p => p.select_sized(view, size, rng))
    }

    #[inline]
    fn observe_arrival(&mut self, now: f64) {
        for_each_variant!(self, p => p.observe_arrival(now))
    }

    fn telemetry(&self) -> PolicyTelemetry {
        for_each_variant!(self, p => p.telemetry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InfoAge;

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
                inner: Box::new(PolicySpec::Greedy),
            },
            PolicySpec::Hedged {
                h: 2,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.9 }),
            },
            PolicySpec::Quarantined {
                window: 5.0,
                backoff: 10.0,
                inner: Box::new(PolicySpec::Greedy),
            },
        ]
    }

    /// The enum-dispatched policy must replay the boxed build's decision
    /// stream exactly: same picks, same RNG draw order.
    #[test]
    fn dispatch_matches_boxed_build_bit_for_bit() {
        let loads = [3u32, 0, 7, 2, 5];
        for spec in all_specs() {
            let mut boxed = spec.build();
            let mut dispatch = DispatchPolicy::from_spec(&spec);
            let mut rng_a = SimRng::from_seed(7);
            let mut rng_b = SimRng::from_seed(7);
            for step in 0..256u64 {
                let now = step as f64 * 0.1;
                let view = LoadView {
                    loads: &loads,
                    info: InfoAge::Phase {
                        start: (now / 4.0).floor() * 4.0,
                        length: 4.0,
                        now,
                        epoch: (now / 4.0) as u64,
                    },
                    ages: None,
                };
                boxed.observe_arrival(now);
                dispatch.observe_arrival(now);
                let size = 0.5 + (step % 7) as f64;
                let a = boxed.select_sized(&view, size, &mut rng_a);
                let b = dispatch.select_sized(&view, size, &mut rng_b);
                assert_eq!(a, b, "{} diverged at step {step}", spec.label());
            }
            // The RNG streams must be in the same state afterwards.
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{}", spec.label());
        }
    }
}
