//! Enum-based static dispatch for the simulation hot loop.
//!
//! The engine asks its policy for a pick on every arrival, so a virtual
//! call there would sit on the engine's hottest path. The policy set is
//! closed, so [`DispatchPolicy`] is the one way to build a policy from a
//! [`PolicySpec`]: the engine matches once per call and the policy body
//! inlines. The composed specs (`Gated`, `Guarded`, `Quarantined`) wrap
//! a boxed inner `DispatchPolicy`, so their inner policy is statically
//! dispatched too.
//!
//! Each variant forwards to its policy unchanged, so it is bit-identical
//! to the concrete policy built directly.

use staleload_sim::SimRng;

use crate::{
    AdaptiveLi, AggressiveLi, BasicLi, Greedy, HerdGuard, HeteroLi, HybridLi, KSubset, LiSubset,
    LoadView, Policy, PolicySpec, PolicyTelemetry, ProbeThreshold, Quarantine, Random, Sita,
    StalenessGate, Threshold, WeightedDecay,
};

/// A [`Policy`] with enum (static) dispatch over the closed set of
/// policies and wrappers.
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
    Gated(StalenessGate<Box<DispatchPolicy>>),
    Guarded(HerdGuard<Box<DispatchPolicy>>),
    Quarantined(Quarantine<Box<DispatchPolicy>>),
}

impl DispatchPolicy {
    /// Instantiates the policy described by `spec`.
    ///
    /// Hedging is engine machinery (see [`PolicySpec::Hedged`]): as a
    /// bare policy a `Hedged` spec decides like its inner policy.
    pub fn from_spec(spec: &PolicySpec) -> Self {
        let boxed = |spec: &PolicySpec| Box::new(Self::from_spec(spec));
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
            PolicySpec::Gated { cutoff, inner } => {
                Self::Gated(StalenessGate::new(boxed(&inner), cutoff))
            }
            PolicySpec::Guarded {
                threshold,
                cooldown,
                inner,
            } => Self::Guarded(HerdGuard::new(boxed(&inner), threshold, cooldown)),
            PolicySpec::Hedged { inner, .. } => Self::from_spec(&inner),
            PolicySpec::Quarantined {
                window,
                backoff,
                inner,
            } => Self::Quarantined(Quarantine::new(boxed(&inner), window, backoff)),
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
            DispatchPolicy::Gated($p) => $body,
            DispatchPolicy::Guarded($p) => $body,
            DispatchPolicy::Quarantined($p) => $body,
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
    use crate::{EntryAges, InfoAge};

    /// Replays the policy dispatched for `spec` against `direct`, the
    /// concrete policy built by hand: the same picks, and the same RNG
    /// state afterwards.
    fn assert_replays(spec: PolicySpec, mut direct: impl Policy) {
        let mut dispatch = DispatchPolicy::from_spec(&spec);
        let loads = [3u32, 0, 7, 2, 5];
        // Entries age past the gate's cutoff and the quarantine window.
        let sampled = [0.0, 8.0, 16.0, 4.0, 20.0];
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
                ages: Some(EntryAges {
                    sampled: &sampled,
                    now,
                }),
            };
            direct.observe_arrival(now);
            dispatch.observe_arrival(now);
            let size = 0.5 + (step % 7) as f64;
            let a = direct.select_sized(&view, size, &mut rng_a);
            let b = dispatch.select_sized(&view, size, &mut rng_b);
            assert_eq!(a, b, "{} diverged at step {step}", spec.label());
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{}", spec.label());
        assert_eq!(direct.telemetry(), dispatch.telemetry(), "{}", spec.label());
    }

    #[test]
    fn dispatch_matches_concrete_policies_bit_for_bit() {
        let li = || Box::new(PolicySpec::BasicLi { lambda: 0.9 });
        assert_replays(PolicySpec::Random, Random);
        assert_replays(PolicySpec::KSubset { k: 2 }, KSubset::new(2));
        assert_replays(PolicySpec::Greedy, Greedy::new());
        assert_replays(PolicySpec::Threshold { threshold: 3 }, Threshold::new(3));
        assert_replays(
            PolicySpec::ProbeThreshold {
                probes: 3,
                threshold: 2,
            },
            ProbeThreshold::new(3, 2),
        );
        assert_replays(PolicySpec::BasicLi { lambda: 0.9 }, BasicLi::new(0.9));
        assert_replays(
            PolicySpec::AggressiveLi { lambda: 0.9 },
            AggressiveLi::new(0.9),
        );
        assert_replays(PolicySpec::HybridLi { lambda: 0.9 }, HybridLi::new(0.9));
        assert_replays(
            PolicySpec::LiSubset { k: 3, lambda: 0.9 },
            LiSubset::new(3, 0.9),
        );
        assert_replays(
            PolicySpec::WeightedDecay { tau: 5.0 },
            WeightedDecay::new(5.0),
        );
        assert_replays(
            PolicySpec::AdaptiveLi {
                alpha: 0.05,
                warmup: 10,
            },
            AdaptiveLi::new(0.05, 10),
        );
        assert_replays(
            PolicySpec::HeteroLi {
                lambda: 0.9,
                capacities: vec![1.0; 5],
            },
            HeteroLi::new(0.9, vec![1.0; 5]),
        );
        assert_replays(
            PolicySpec::Sita {
                boundaries: vec![0.5, 1.0, 2.0, 4.0],
            },
            Sita::new(vec![0.5, 1.0, 2.0, 4.0]),
        );
        assert_replays(
            PolicySpec::Gated {
                cutoff: 5.0,
                inner: li(),
            },
            StalenessGate::new(BasicLi::new(0.9), 5.0),
        );
        assert_replays(
            PolicySpec::Guarded {
                threshold: 2.0,
                cooldown: 10.0,
                inner: Box::new(PolicySpec::Greedy),
            },
            HerdGuard::new(Greedy::new(), 2.0, 10.0),
        );
        assert_replays(PolicySpec::Hedged { h: 2, inner: li() }, BasicLi::new(0.9));
        assert_replays(
            PolicySpec::Quarantined {
                window: 5.0,
                backoff: 10.0,
                inner: Box::new(PolicySpec::Greedy),
            },
            Quarantine::new(Greedy::new(), 5.0, 10.0),
        );
    }
}
