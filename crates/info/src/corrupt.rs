//! Corrupted load reports (byzantine or wrapped counters).
//!
//! The paper assumes every load report that reaches the board is honest.
//! Real telemetry planes emit garbage: a crashed exporter reports zero, a
//! wedged agent repeats its last value, a wrapped counter comes back
//! scaled. This module describes that corruption, which sits on the
//! report path both boards share ([`crate::InfoDispatch::degrade`]
//! attaches it) ahead of the loss channel: each report is independently
//! garbled with probability `fraction`, choosing uniformly between the
//! three failure shapes.

use serde::{Deserialize, Serialize};
use staleload_sim::SimRng;

/// Factor applied to a report garbled by the *scaled* failure shape — a
/// counter misread by a few binary orders of magnitude, large enough to
/// repel any load-comparing policy from the server.
const SCALE_FACTOR: u32 = 8;

/// Describes a report-corruption fault: a fraction of load reports are
/// garbled in flight (zeroed, stuck at the previous value, or scaled up).
///
/// `CorruptSpec::default()` (fraction 0) is the honest channel; a
/// zero-fraction corruptor would still draw from its RNG fork, so
/// [`crate::InfoDispatch::degrade`] attaches one only when `fraction > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CorruptSpec {
    /// Probability in `[0, 1]` that a single load report is garbled.
    pub fraction: f64,
}

impl CorruptSpec {
    /// A corruptor garbling the given fraction of reports.
    pub fn new(fraction: f64) -> Self {
        Self { fraction }
    }

    /// Whether this spec corrupts nothing.
    pub fn is_noop(&self) -> bool {
        self.fraction == 0.0
    }

    /// Checks the parameters are in range.
    ///
    /// # Errors
    ///
    /// Returns a message naming the out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.fraction.is_finite() && (0.0..=1.0).contains(&self.fraction)) {
            return Err(format!(
                "corrupt fraction must be in [0, 1], got {}",
                self.fraction
            ));
        }
        Ok(())
    }

    /// Short label for result tables, e.g. `corrupt=0.2`.
    pub fn label(&self) -> String {
        format!("corrupt={}", self.fraction)
    }
}

/// Runtime state of a report corruptor: the RNG deciding which reports are
/// garbled and how, plus a count of reports actually garbled.
///
/// The RNG is forked from the engine's dedicated fault stream, so the
/// corruptor's draws never perturb the arrival/service/policy/model
/// streams.
#[derive(Debug, Clone)]
pub(crate) struct Corruptor {
    spec: CorruptSpec,
    rng: SimRng,
    corrupted: u64,
}

impl Corruptor {
    pub fn new(spec: CorruptSpec, rng: SimRng) -> Self {
        Self {
            spec,
            rng,
            corrupted: 0,
        }
    }

    /// Number of reports garbled so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// Passes one sampled load report through the corruptor.
    ///
    /// `fresh` is the true sampled value; `current` is the board entry the
    /// report would replace (used by the *stuck* failure shape). Returns
    /// the value that should actually be reported.
    pub fn garble(&mut self, fresh: u32, current: u32) -> u32 {
        if !self.rng.chance(self.spec.fraction) {
            return fresh;
        }
        self.corrupted += 1;
        match self.rng.index(3) {
            0 => 0,                                  // zeroed: the report reads idle
            1 => current,                            // stuck: the old value repeats
            _ => fresh.saturating_mul(SCALE_FACTOR), // scaled: wrapped/misread counter
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noop() {
        assert!(CorruptSpec::default().is_noop());
        assert!(!CorruptSpec::new(0.1).is_noop());
    }

    #[test]
    fn validation_rejects_out_of_range() {
        assert!(CorruptSpec::new(0.0).validate().is_ok());
        assert!(CorruptSpec::new(1.0).validate().is_ok());
        assert!(CorruptSpec::new(-0.1).validate().is_err());
        assert!(CorruptSpec::new(1.5).validate().is_err());
        assert!(CorruptSpec::new(f64::NAN).validate().is_err());
    }

    #[test]
    fn zero_fraction_passes_reports_through() {
        let mut c = Corruptor::new(CorruptSpec::new(0.0), SimRng::from_seed(3));
        for v in [0u32, 1, 7, u32::MAX] {
            assert_eq!(c.garble(v, 99), v);
        }
        assert_eq!(c.corrupted(), 0);
    }

    #[test]
    fn full_fraction_garbles_every_report() {
        let mut c = Corruptor::new(CorruptSpec::new(1.0), SimRng::from_seed(5));
        let mut shapes = [false; 3];
        for i in 0..200u32 {
            let fresh = 3 + i % 4;
            let out = c.garble(fresh, 1000);
            // Every output is one of the three failure shapes, never the
            // honest value (fresh is chosen so the shapes are disjoint
            // from it).
            if out == 0 {
                shapes[0] = true;
            } else if out == 1000 {
                shapes[1] = true;
            } else if out == fresh.saturating_mul(SCALE_FACTOR) {
                shapes[2] = true;
            } else {
                panic!("unexpected garbled value {out} for fresh {fresh}");
            }
        }
        assert_eq!(c.corrupted(), 200);
        assert!(
            shapes.iter().all(|&s| s),
            "all three shapes occur: {shapes:?}"
        );
    }

    #[test]
    fn scaled_shape_saturates() {
        let mut c = Corruptor::new(CorruptSpec::new(1.0), SimRng::from_seed(5));
        for _ in 0..64 {
            let out = c.garble(u32::MAX, 0);
            assert!(out == 0 || out == u32::MAX);
        }
    }

    #[test]
    fn labels_name_the_fraction() {
        assert_eq!(CorruptSpec::new(0.25).label(), "corrupt=0.25");
    }
}
