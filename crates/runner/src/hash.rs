//! Content addressing for experiment points.
//!
//! A point's cache key is a canonical hash of everything that can change
//! its result: the full [`SimConfig`] (including the master seed), the
//! arrival structure, the information model, the policy, the trial
//! count, and a code-version salt. Values are rendered through their
//! `Debug` representation — Rust formats `f64` with shortest-roundtrip
//! precision, so two configs hash alike iff they are bit-identical — and
//! collected as `(path, value)` pairs that are **sorted before hashing**,
//! making the key insensitive to the order fields are fed in.
//!
//! The derived `Debug` of a spec struct includes every field, so adding
//! a field to `SimConfig` (or any nested spec type) automatically
//! changes the rendered value and invalidates stale cache entries even
//! if this module is never touched. Behavioral changes that do *not*
//! alter any spec type must bump [`CACHE_SALT`] instead — see
//! DESIGN.md §9 for the policy.

use staleload_core::Experiment;

/// Version salt mixed into every cache key.
///
/// Bump this whenever simulation behavior changes without a spec-type
/// change (an engine fix, a policy tweak, an RNG reordering): the bump
/// orphans every existing cache entry, forcing recomputation.
pub const CACHE_SALT: &str = "staleload-cache-v1";

/// A 128-bit content hash, printed as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PointKey {
    hi: u64,
    lo: u64,
}

impl PointKey {
    /// Rebuilds a key from its two halves (used when loading the cache).
    #[must_use]
    pub fn from_halves(hi: u64, lo: u64) -> Self {
        Self { hi, lo }
    }
}

impl std::fmt::Display for PointKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// A second, independent FNV-1a stream (different offset basis and a
/// per-byte tweak) widens the key to 128 bits.
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;

/// Collects `(path, value)` pairs and hashes their canonical (sorted)
/// form. Feeding the same pairs in any order yields the same key.
#[derive(Debug, Default)]
pub struct SpecHasher {
    pairs: Vec<(String, String)>,
}

impl SpecHasher {
    /// Creates an empty hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one field as a `(path, Debug-rendered value)` pair.
    pub fn field(&mut self, path: &str, value: &impl std::fmt::Debug) {
        self.pairs.push((path.to_string(), format!("{value:?}")));
    }

    /// Sorts the collected pairs and hashes the canonical byte stream.
    #[must_use]
    pub fn finish(mut self) -> PointKey {
        self.pairs.sort();
        let mut hi = FNV_OFFSET;
        let mut lo = FNV_OFFSET_B;
        let mut eat = |byte: u8| {
            hi = (hi ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            lo = (lo ^ u64::from(byte ^ 0xA5)).wrapping_mul(FNV_PRIME);
        };
        for (path, value) in &self.pairs {
            for b in path.bytes() {
                eat(b);
            }
            eat(b'=');
            for b in value.bytes() {
                eat(b);
            }
            eat(b'\n');
        }
        PointKey { hi, lo }
    }
}

/// The cache key of one experiment point under version salt `salt`.
#[must_use]
pub fn experiment_key_salted(exp: &Experiment, salt: &str) -> PointKey {
    let mut hasher = SpecHasher::new();
    hasher.field("salt", &salt);
    hasher.field("trials", &exp.trials);
    hasher.field("config", &exp.config);
    hasher.field("arrivals", &exp.arrivals);
    hasher.field("info", &exp.info);
    hasher.field("policy", &exp.policy);
    hasher.finish()
}

/// The cache key of one experiment point under [`CACHE_SALT`].
#[must_use]
pub fn experiment_key(exp: &Experiment) -> PointKey {
    experiment_key_salted(exp, CACHE_SALT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use staleload_core::{ArrivalSpec, Experiment, SimConfig};
    use staleload_info::InfoSpec;
    use staleload_policies::PolicySpec;

    fn exp(seed: u64, trials: usize, period: f64, lambda_est: f64) -> Experiment {
        Experiment::new(
            SimConfig::builder()
                .servers(8)
                .lambda(0.9)
                .arrivals(1_000)
                .seed(seed)
                .build(),
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period },
            PolicySpec::BasicLi { lambda: lambda_est },
            trials,
        )
    }

    #[test]
    fn key_is_stable_across_calls() {
        let a = experiment_key(&exp(1, 3, 4.0, 0.9));
        let b = experiment_key(&exp(1, 3, 4.0, 0.9));
        assert_eq!(a, b);
    }

    /// The canonical byte stream is pinned: if this hash ever changes,
    /// every existing cache entry silently orphans — make sure that is
    /// intentional (it is what a `CACHE_SALT` bump does on purpose).
    #[test]
    fn canonical_hash_is_pinned() {
        let mut h = SpecHasher::new();
        h.field("alpha", &1u32);
        h.field("beta", &2.5f64);
        assert_eq!(h.finish().to_string(), "b3d57bddc44de9b5a2073c0b58062c4b");
    }

    #[test]
    fn field_order_does_not_matter() {
        let mut a = SpecHasher::new();
        a.field("alpha", &1u32);
        a.field("beta", &2.5f64);
        a.field("gamma", &"x");
        let mut b = SpecHasher::new();
        b.field("gamma", &"x");
        b.field("alpha", &1u32);
        b.field("beta", &2.5f64);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn every_spec_field_feeds_the_key() {
        let base = experiment_key(&exp(1, 3, 4.0, 0.9));
        let variants = [
            exp(2, 3, 4.0, 0.9), // master seed
            exp(1, 4, 4.0, 0.9), // trial count
            exp(1, 3, 8.0, 0.9), // info model parameter
            exp(1, 3, 4.0, 0.8), // policy parameter
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, experiment_key(v), "variant {i} collided");
        }
        let mut e = exp(1, 3, 4.0, 0.9);
        e.info = InfoSpec::Fresh;
        assert_ne!(base, experiment_key(&e), "info variant collided");
        let mut e = exp(1, 3, 4.0, 0.9);
        e.policy = PolicySpec::Random;
        assert_ne!(base, experiment_key(&e), "policy variant collided");
        let mut e = exp(1, 3, 4.0, 0.9);
        e.config.arrivals = 2_000;
        assert_ne!(base, experiment_key(&e), "config variant collided");
    }

    /// The degraded-information knobs all reach the key: two experiments
    /// differing only in a fault field or a resilience policy wrapper
    /// must never share a cache entry.
    #[test]
    fn resilience_knobs_feed_the_key() {
        use staleload_core::FaultSpec;

        let base = experiment_key(&exp(1, 3, 4.0, 0.9));
        let with_faults = |faults: FaultSpec| {
            let mut e = exp(1, 3, 4.0, 0.9);
            e.config.faults = faults;
            experiment_key(&e)
        };
        let partitioned = with_faults(FaultSpec::partition(50.0, 25.0, 0.25));
        let mut correlated_spec = FaultSpec::partition(50.0, 25.0, 0.25);
        correlated_spec.partition = correlated_spec.partition.map(|mut p| {
            p.correlated = true;
            p
        });
        let correlated = with_faults(correlated_spec);
        let churned = with_faults(FaultSpec::churn(150.0, 30.0));
        let corrupted = with_faults(FaultSpec::corrupt(0.2));
        let keys = [base, partitioned, correlated, churned, corrupted];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "fault variants {i} and {j} collided");
            }
        }

        let with_policy = |policy: PolicySpec| {
            let mut e = exp(1, 3, 4.0, 0.9);
            e.policy = policy;
            experiment_key(&e)
        };
        let inner = Box::new(PolicySpec::BasicLi { lambda: 0.9 });
        let hedged2 = with_policy(PolicySpec::Hedged {
            h: 2,
            inner: inner.clone(),
        });
        let hedged3 = with_policy(PolicySpec::Hedged {
            h: 3,
            inner: inner.clone(),
        });
        let quarantined = with_policy(PolicySpec::Quarantined {
            window: 15.0,
            backoff: 10.0,
            inner: inner.clone(),
        });
        let quarantined_wide = with_policy(PolicySpec::Quarantined {
            window: 30.0,
            backoff: 10.0,
            inner,
        });
        let keys = [base, hedged2, hedged3, quarantined, quarantined_wide];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "policy variants {i} and {j} collided");
            }
        }
    }

    /// The tail-latency knobs — sketch capacity and the estimator info
    /// models — must each perturb the key, or a sweep that changes them
    /// would replay stale cached percentiles.
    #[test]
    fn tail_knobs_feed_the_key() {
        let base = experiment_key(&exp(1, 3, 4.0, 0.9));

        let with_cap = |cap: usize| {
            let mut e = exp(1, 3, 4.0, 0.9);
            e.config.sketch_cap = cap;
            experiment_key(&e)
        };
        let with_info = |info: InfoSpec| {
            let mut e = exp(1, 3, 4.0, 0.9);
            e.info = info;
            experiment_key(&e)
        };

        let small_cap = with_cap(64);
        let big_cap = with_cap(1 << 16);
        let ewma = with_info(InfoSpec::Ewma {
            period: 4.0,
            alpha: 0.3,
        });
        let ewma_heavier = with_info(InfoSpec::Ewma {
            period: 4.0,
            alpha: 0.7,
        });
        let ma = with_info(InfoSpec::MultiHorizon {
            period: 4.0,
            windows: [4.0, 12.0, 28.0],
        });
        let ma_wider = with_info(InfoSpec::MultiHorizon {
            period: 4.0,
            windows: [4.0, 12.0, 56.0],
        });
        let keys = [base, small_cap, big_cap, ewma, ewma_heavier, ma, ma_wider];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "tail variants {i} and {j} collided");
            }
        }
    }

    /// The engine mode must feed the key: a population-mode run is exact
    /// in distribution but a *different trajectory* from the per-server
    /// run, so a sweep flipping `--engine` must not replay the other
    /// mode's cached points.
    #[test]
    fn population_knobs_feed_the_key() {
        use staleload_core::EngineMode;

        let base = experiment_key(&exp(1, 3, 4.0, 0.9));
        let mut e = exp(1, 3, 4.0, 0.9);
        e.config.engine = EngineMode::Population;
        assert_ne!(base, experiment_key(&e), "engine variants collided");
    }

    /// Simulates the maintenance path `staleload-lint`'s `spec-surface`
    /// rule enforces: when a spec grows a field, feeding it through one
    /// more `hasher.field(...)` call must change the key — i.e. the
    /// canonical byte stream actually covers the addition, and two
    /// experiments differing only in the new field cannot alias.
    #[test]
    fn adding_a_spec_field_changes_the_key() {
        let e = exp(1, 3, 4.0, 0.9);
        let base = experiment_key(&e);

        let with_field = |value: Option<f64>| {
            let mut h = SpecHasher::new();
            h.field("salt", &CACHE_SALT);
            h.field("trials", &e.trials);
            h.field("config", &e.config);
            h.field("arrivals", &e.arrivals);
            h.field("info", &e.info);
            h.field("policy", &e.policy);
            h.field("deadline", &value);
            h.finish()
        };

        // The extended key differs from the unextended one...
        assert_ne!(base, with_field(None), "new field did not reach the key");
        // ...and distinguishes distinct values of the new field.
        assert_ne!(
            with_field(Some(2.0)),
            with_field(Some(3.0)),
            "two experiments differing only in the new field aliased"
        );
    }

    #[test]
    fn salt_bump_orphans_every_key() {
        let e = exp(1, 3, 4.0, 0.9);
        assert_ne!(
            experiment_key_salted(&e, CACHE_SALT),
            experiment_key_salted(&e, "staleload-cache-v2"),
        );
    }

    #[test]
    fn display_is_32_hex_digits() {
        let s = experiment_key(&exp(1, 3, 4.0, 0.9)).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.bytes().all(|b| b.is_ascii_hexdigit()));
        let k = PointKey::from_halves(0x1, 0x2);
        assert_eq!(k.to_string(), "00000000000000010000000000000002");
    }
}
