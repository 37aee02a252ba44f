//! Trial watchdogs: a wall-clock deadline per trial, which the trial's
//! engine loop checks every few thousand steps (`run_trial_until`), so a
//! hung trial (say, a board refreshed every 1e-9 time units) stops
//! instead of stalling its batch. The check reads the clock, never the
//! trial's state or random streams, so trials that finish within budget
//! are bit-identical armed or not. Timeouts are wall-clock verdicts: the
//! runner neither journals nor caches them.

use std::time::{Duration, Instant};

use staleload_core::{trial_seed, Experiment, TrialFailure, TrialOutcome};

/// Prefix of the `TrialFailure::error` text for watchdog timeouts.
const ERROR_PREFIX: &str = "watchdog:";

/// Whether a failed trial was stopped by the watchdog (as opposed to a
/// simulation error or panic).
pub(crate) fn timed_out(failure: &TrialFailure) -> bool {
    failure.error.starts_with(ERROR_PREFIX)
}

/// Per-trial watchdog policy: a wall-clock budget for each trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogSpec {
    /// Wall-clock budget per trial.
    pub budget: Duration,
}

impl WatchdogSpec {
    /// A spec with the given per-trial budget.
    #[must_use]
    pub fn with_budget(budget: Duration) -> Self {
        Self { budget }
    }
}

/// Runs trial `trial` of `exp`, under the watchdog when one is armed. A
/// trial still running when its budget runs out stops itself and becomes
/// a `TrialFailure` that [`timed_out`] recognises.
pub(crate) fn run_trial(
    exp: &Experiment,
    trial: usize,
    watchdog: Option<WatchdogSpec>,
) -> TrialOutcome {
    // A budget too large for the clock to add leaves no deadline.
    let armed = watchdog.and_then(|w| Some((w.budget, Instant::now().checked_add(w.budget)?)));
    let Some((budget, deadline)) = armed else {
        return exp.run_trial(trial);
    };
    let mut expired = false;
    let outcome = exp.run_trial_until(trial, || {
        expired = Instant::now() >= deadline;
        expired
    });
    if !expired {
        return outcome;
    }
    TrialOutcome::Failed(TrialFailure {
        trial,
        seed: trial_seed(exp.config.seed, trial),
        error: format!("{ERROR_PREFIX} stopped after the {budget:?} per-trial budget ran out"),
    })
}

/// What [`run_guarded`] returns.
#[derive(Debug)]
pub struct Guarded<T> {
    /// The closure's result (always present: the closure runs inline).
    pub outcome: Option<T>,
}

/// Runs `f` inline on the caller and wraps its result: perfbench's traced
/// pass times its trial bodies through this pass-through. A trial keeps
/// its own deadline (see [`WatchdogSpec`]).
pub fn run_guarded<T, F: FnOnce() -> T>(_spec: &WatchdogSpec, _seed: u64, f: F) -> Guarded<T> {
    Guarded { outcome: Some(f()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_closure_passes_through_unscathed() {
        let spec = WatchdogSpec::with_budget(Duration::from_secs(5));
        assert_eq!(run_guarded(&spec, 42, || 7u64).outcome, Some(7));
    }
}
