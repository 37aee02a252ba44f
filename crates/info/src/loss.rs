//! Lossy/delayed update channels for bulletin-board information models.
//!
//! The paper assumes every load report reaches the board. Real update
//! channels drop and delay messages; this module describes that channel,
//! which sits on the report path both boards share
//! ([`crate::InfoDispatch::degrade`] attaches it): each server's report
//! is independently dropped with probability `drop_prob`, and surviving
//! reports land after an exponentially distributed delay of mean
//! `delay_mean`.

use serde::{Deserialize, Serialize};
use staleload_sim::{EventQueue, SimRng};

/// Describes a lossy and/or delayed update channel between servers and a
/// bulletin board.
///
/// `LossSpec::default()` is the paper's perfect channel (nothing dropped,
/// nothing delayed); boards built with it behave identically to boards
/// built without a channel.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LossSpec {
    /// Probability in `[0, 1]` that a refresh of one board entry is lost
    /// (the entry silently keeps its previous value and age).
    pub drop_prob: f64,
    /// Mean of the exponential delivery delay applied to surviving
    /// refreshes; `0` delivers immediately.
    pub delay_mean: f64,
}

impl LossSpec {
    /// A channel that only drops (no delivery delay).
    pub fn drop(p: f64) -> Self {
        Self {
            drop_prob: p,
            delay_mean: 0.0,
        }
    }

    /// A channel that only delays (nothing dropped).
    pub fn delay(mean: f64) -> Self {
        Self {
            drop_prob: 0.0,
            delay_mean: mean,
        }
    }

    /// Whether this channel is the perfect (identity) channel.
    pub fn is_noop(&self) -> bool {
        self.drop_prob == 0.0 && self.delay_mean == 0.0
    }

    /// Checks the parameters are in range.
    ///
    /// # Errors
    ///
    /// Returns a message naming the out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.drop_prob) {
            return Err(format!(
                "drop probability must be in [0, 1], got {}",
                self.drop_prob
            ));
        }
        if !(self.delay_mean.is_finite() && self.delay_mean >= 0.0) {
            return Err(format!(
                "update delay mean must be finite and >= 0, got {}",
                self.delay_mean
            ));
        }
        Ok(())
    }

    /// Short label for result tables, e.g. `drop=0.5` or `drop=0.5+delay=2`.
    pub fn label(&self) -> String {
        match (self.drop_prob > 0.0, self.delay_mean > 0.0) {
            (true, true) => format!("drop={}+delay={}", self.drop_prob, self.delay_mean),
            (true, false) => format!("drop={}", self.drop_prob),
            (false, true) => format!("delay={}", self.delay_mean),
            (false, false) => "lossless".to_string(),
        }
    }
}

/// A board refresh in flight through a delayed channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Landing {
    /// Board entry the refresh belongs to.
    pub server: usize,
    /// The load value that was sampled.
    pub value: u32,
    /// When the value was sampled (its age baseline — *not* the delivery
    /// time).
    pub sampled: f64,
}

/// Runtime state of one lossy/delayed update channel: the RNG that decides
/// drops and delays, and the deliveries still in flight.
///
/// The RNG is forked from the engine's dedicated fault stream, so a
/// channel's draws never perturb the arrival/service/policy/model streams.
#[derive(Debug, Clone)]
pub(crate) struct LossChannel {
    spec: LossSpec,
    rng: SimRng,
    pending: EventQueue<Landing>,
}

impl LossChannel {
    pub fn new(spec: LossSpec, rng: SimRng) -> Self {
        Self {
            spec,
            rng,
            pending: EventQueue::new(),
        }
    }

    /// Time of the earliest in-flight delivery, if any.
    pub fn next_delivery(&self) -> Option<f64> {
        self.pending.peek_time()
    }

    /// Sends one sampled entry through the channel.
    ///
    /// Returns the landing to apply *now* if it is delivered immediately;
    /// returns `None` if the refresh was dropped or is in flight (a
    /// delayed delivery will surface via [`LossChannel::pop_delivery`]).
    pub fn send(&mut self, now: f64, server: usize, value: u32) -> Option<Landing> {
        if self.rng.chance(self.spec.drop_prob) {
            return None;
        }
        let landing = Landing {
            server,
            value,
            sampled: now,
        };
        if self.spec.delay_mean > 0.0 {
            let delay = self.rng.exp(self.spec.delay_mean);
            self.pending.push(now + delay, landing);
            None
        } else {
            Some(landing)
        }
    }

    /// Removes and returns the earliest in-flight delivery.
    pub fn pop_delivery(&mut self) -> Option<Landing> {
        self.pending.pop().map(|(_, l)| l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noop() {
        assert!(LossSpec::default().is_noop());
        assert!(!LossSpec::drop(0.1).is_noop());
        assert!(!LossSpec::delay(1.0).is_noop());
    }

    #[test]
    fn validation_rejects_out_of_range() {
        assert!(LossSpec::drop(0.0).validate().is_ok());
        assert!(LossSpec::drop(1.0).validate().is_ok());
        assert!(LossSpec::drop(-0.1).validate().is_err());
        assert!(LossSpec::drop(1.1).validate().is_err());
        assert!(LossSpec::delay(f64::INFINITY).validate().is_err());
        assert!(LossSpec::delay(-1.0).validate().is_err());
    }

    #[test]
    fn labels_name_active_components() {
        assert_eq!(LossSpec::default().label(), "lossless");
        assert_eq!(LossSpec::drop(0.5).label(), "drop=0.5");
        assert_eq!(
            LossSpec {
                drop_prob: 0.25,
                delay_mean: 2.0
            }
            .label(),
            "drop=0.25+delay=2"
        );
    }
}
