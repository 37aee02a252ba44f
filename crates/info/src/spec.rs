//! Declarative information-model specifications for experiment configuration.

use serde::{Deserialize, Serialize};

use crate::{AgeKnowledge, DelaySpec};

/// A serializable description of an information model, used by the
/// experiment harness. [`crate::InfoDispatch::from_spec`] instantiates
/// it.
///
/// # Example
///
/// ```
/// use staleload_info::{InfoDispatch, InfoModel, InfoSpec};
///
/// let spec = InfoSpec::Periodic { period: 10.0 };
/// let model = InfoDispatch::from_spec(&spec, 100, 1);
/// assert_eq!(model.next_event(), Some(10.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InfoSpec {
    /// Bulletin board refreshed every `period` (§3.1).
    Periodic {
        /// Refresh period `T`.
        period: f64,
    },
    /// Per-request random delay (§3.1).
    Continuous {
        /// Delay distribution.
        delay: DelaySpec,
        /// Whether the realized delay is known per request.
        knowledge: AgeKnowledge,
    },
    /// Per-client snapshots refreshed by the client's own requests (§3.2).
    UpdateOnAccess,
    /// Each server refreshes its own board entry every `period`, on its own
    /// schedule (Mitzenmacher's *individual updates* model, which the paper
    /// omits as similar to periodic — implemented here to check that).
    Individual {
        /// Per-server refresh period `T`.
        period: f64,
    },
    /// Zero staleness (validation extension).
    Fresh,
    /// Periodic board publishing exponentially weighted moving averages
    /// of the sampled loads instead of raw snapshots (tail-latency
    /// extension).
    Ewma {
        /// Sampling/refresh period `T`.
        period: f64,
        /// Smoothing weight on the newest sample, in `(0, 1]`.
        alpha: f64,
    },
    /// Periodic board publishing the equal-weight blend of moving
    /// averages over three look-back horizons (tail-latency extension).
    MultiHorizon {
        /// Sampling/refresh period `T`.
        period: f64,
        /// Look-back horizons in time units, strictly increasing.
        windows: [f64; 3],
    },
}

impl InfoSpec {
    /// Whether the model takes board faults (loss, partitions,
    /// corruption; see [`crate::InfoDispatch::degrade`]): only the raw
    /// bulletin boards have a report path to disturb.
    pub fn supports_loss(&self) -> bool {
        matches!(
            self,
            InfoSpec::Periodic { .. } | InfoSpec::Individual { .. }
        )
    }

    /// Checks the spec's parameters are in range, so a driver can reject
    /// a bad configuration with an error instead of the constructor
    /// assertions firing mid-run.
    ///
    /// # Errors
    ///
    /// Returns a message naming the out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            InfoSpec::Periodic { period } | InfoSpec::Individual { period } => {
                if !(period.is_finite() && *period > 0.0) {
                    return Err(format!(
                        "refresh period must be positive and finite, got {period}"
                    ));
                }
            }
            InfoSpec::Continuous { delay, .. } => {
                let mean = delay.mean();
                if !(mean.is_finite() && mean > 0.0) {
                    return Err(format!(
                        "delay mean must be positive and finite, got {mean}"
                    ));
                }
            }
            InfoSpec::Ewma { period, alpha } => {
                if !(period.is_finite() && *period > 0.0) {
                    return Err(format!(
                        "refresh period must be positive and finite, got {period}"
                    ));
                }
                if !(alpha.is_finite() && *alpha > 0.0 && *alpha <= 1.0) {
                    return Err(format!("EWMA weight must be in (0, 1], got {alpha}"));
                }
            }
            InfoSpec::MultiHorizon { period, windows } => {
                if !(period.is_finite() && *period > 0.0) {
                    return Err(format!(
                        "refresh period must be positive and finite, got {period}"
                    ));
                }
                if !windows.iter().all(|w| w.is_finite() && *w > 0.0) {
                    return Err(format!(
                        "horizon windows must be positive and finite, got {windows:?}"
                    ));
                }
                if !(windows[0] < windows[1] && windows[1] < windows[2]) {
                    return Err(format!(
                        "horizon windows must be strictly increasing, got {windows:?}"
                    ));
                }
            }
            InfoSpec::UpdateOnAccess | InfoSpec::Fresh => {}
        }
        Ok(())
    }

    /// History window the cluster must retain for this model.
    pub fn history_window(&self) -> Option<f64> {
        match self {
            InfoSpec::Continuous { delay, .. } => Some(delay.history_window()),
            _ => None,
        }
    }

    /// A short label for result tables.
    pub fn label(&self) -> String {
        match self {
            InfoSpec::Periodic { period } => format!("periodic(T={period})"),
            InfoSpec::Continuous { delay, knowledge } => {
                let k = match knowledge {
                    AgeKnowledge::MeanOnly => "mean-known",
                    AgeKnowledge::Actual => "age-known",
                };
                format!("continuous({}, T={}, {k})", delay.label(), delay.mean())
            }
            InfoSpec::UpdateOnAccess => "update-on-access".to_string(),
            InfoSpec::Individual { period } => format!("individual(T={period})"),
            InfoSpec::Fresh => "fresh".to_string(),
            InfoSpec::Ewma { period, alpha } => format!("ewma(α={alpha}, T={period})"),
            InfoSpec::MultiHorizon { period, windows } => format!(
                "ma({}/{}/{}, T={period})",
                windows[0], windows[1], windows[2]
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InfoDispatch, InfoModel};

    #[test]
    fn every_spec_builds() {
        let specs = [
            InfoSpec::Periodic { period: 5.0 },
            InfoSpec::Continuous {
                delay: DelaySpec::Exponential { mean: 2.0 },
                knowledge: AgeKnowledge::MeanOnly,
            },
            InfoSpec::UpdateOnAccess,
            InfoSpec::Individual { period: 3.0 },
            InfoSpec::Fresh,
            InfoSpec::Ewma {
                period: 2.0,
                alpha: 0.3,
            },
            InfoSpec::MultiHorizon {
                period: 2.0,
                windows: [2.0, 4.0, 8.0],
            },
        ];
        for spec in specs {
            let model = InfoDispatch::from_spec(&spec, 4, 3);
            let _ = model.next_event();
            assert!(!spec.label().is_empty());
        }
    }

    #[test]
    fn lossy_builds_only_for_boards() {
        assert!(InfoSpec::Periodic { period: 5.0 }.supports_loss());
        assert!(InfoSpec::Individual { period: 5.0 }.supports_loss());
        assert!(!InfoSpec::Fresh.supports_loss());
        assert!(!InfoSpec::UpdateOnAccess.supports_loss());
        assert!(!InfoSpec::Continuous {
            delay: DelaySpec::Exponential { mean: 2.0 },
            knowledge: AgeKnowledge::Actual,
        }
        .supports_loss());
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(InfoSpec::Periodic { period: 5.0 }.validate().is_ok());
        assert!(InfoSpec::Periodic { period: 0.0 }.validate().is_err());
        assert!(InfoSpec::Individual { period: f64::NAN }
            .validate()
            .is_err());
        assert!(InfoSpec::Fresh.validate().is_ok());
    }

    /// `validate` accepts exactly the delays `ContinuousView::new` does,
    /// so a zero delay is a config error instead of a panic mid-run.
    #[test]
    fn validate_rejects_a_zero_delay() {
        let continuous = |mean: f64| InfoSpec::Continuous {
            delay: DelaySpec::Constant { mean },
            knowledge: AgeKnowledge::MeanOnly,
        };
        assert!(continuous(0.5).validate().is_ok());
        for mean in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let err = continuous(mean).validate().unwrap_err();
            assert!(err.contains("delay mean"), "{err}");
        }
    }

    #[test]
    fn validate_checks_estimator_knobs() {
        let ok = InfoSpec::Ewma {
            period: 2.0,
            alpha: 0.5,
        };
        assert!(ok.validate().is_ok());
        for alpha in [0.0, -0.5, 1.5, f64::NAN] {
            let err = InfoSpec::Ewma { period: 2.0, alpha }
                .validate()
                .unwrap_err();
            assert!(err.contains("(0, 1]"), "{err}");
        }
        assert!(InfoSpec::Ewma {
            period: 0.0,
            alpha: 0.5
        }
        .validate()
        .is_err());

        let ok = InfoSpec::MultiHorizon {
            period: 2.0,
            windows: [2.0, 4.0, 8.0],
        };
        assert!(ok.validate().is_ok());
        for windows in [
            [4.0, 2.0, 8.0],
            [2.0, 2.0, 8.0],
            [0.0, 4.0, 8.0],
            [2.0, 4.0, f64::INFINITY],
        ] {
            assert!(
                InfoSpec::MultiHorizon {
                    period: 2.0,
                    windows
                }
                .validate()
                .is_err(),
                "windows {windows:?} must be rejected"
            );
        }
        assert!(InfoSpec::MultiHorizon {
            period: -1.0,
            windows: [2.0, 4.0, 8.0]
        }
        .validate()
        .is_err());
    }

    #[test]
    fn estimators_do_not_support_loss() {
        for spec in [
            InfoSpec::Ewma {
                period: 2.0,
                alpha: 0.5,
            },
            InfoSpec::MultiHorizon {
                period: 2.0,
                windows: [2.0, 4.0, 8.0],
            },
        ] {
            assert!(!spec.supports_loss());
            assert!(spec.history_window().is_none());
        }
    }

    #[test]
    fn history_window_only_for_continuous() {
        assert!(InfoSpec::Periodic { period: 1.0 }
            .history_window()
            .is_none());
        assert!(InfoSpec::UpdateOnAccess.history_window().is_none());
        let c = InfoSpec::Continuous {
            delay: DelaySpec::Constant { mean: 3.0 },
            knowledge: AgeKnowledge::Actual,
        };
        assert!(c.history_window().unwrap() >= 3.0);
    }
}
