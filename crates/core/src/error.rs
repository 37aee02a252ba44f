//! Typed errors for the simulation driver and experiment runner.

use std::fmt;

use staleload_sim::SchedError;

use crate::ConfigError;

/// An error from [`crate::run_simulation`] or [`crate::Experiment`].
///
/// Configuration problems that previously aborted the process through
/// `assert!`/`expect` surface here instead, so a batch driver can report
/// one bad point and keep going.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The run was asked for an inconsistent or out-of-range
    /// configuration.
    Config(ConfigError),
    /// Every trial of an experiment failed, so there is nothing to
    /// aggregate.
    NoSuccessfulTrials {
        /// Number of trials attempted.
        trials: usize,
        /// The first failure, as a human-readable message.
        first_error: String,
    },
    /// The engine computed an invalid event time (NaN or negative) — a
    /// malformed distribution or a numeric bug, caught at the scheduler
    /// boundary instead of panicking mid-trial.
    Scheduler(SchedError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::NoSuccessfulTrials {
                trials,
                first_error,
            } => {
                write!(f, "all {trials} trials failed; first error: {first_error}")
            }
            SimError::Scheduler(e) => write!(f, "invalid event time: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Scheduler(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<SchedError> for SimError {
    fn from(e: SchedError) -> Self {
        SimError::Scheduler(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = SimError::NoSuccessfulTrials {
            trials: 3,
            first_error: "panicked: boom".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("all 3 trials") && s.contains("panicked: boom"),
            "{s}"
        );
    }

    #[test]
    fn config_errors_convert() {
        let c = crate::SimConfig::builder()
            .servers(0)
            .try_build()
            .unwrap_err();
        let e: SimError = c.clone().into();
        assert_eq!(e, SimError::Config(c));
        assert!(std::error::Error::source(&e).is_some());
    }
}
