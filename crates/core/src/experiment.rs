//! Multi-trial experiments with the paper's statistical protocol.

use std::panic::{self, AssertUnwindSafe};

use serde::{Deserialize, Serialize};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;
use staleload_stats::{Summary, TailSketch};

use crate::{
    check_run_bounds, run_simulation_until, ArrivalSpec, ConfigError, Diagnostic, SimConfig,
    SimError, TailSummary, WorkerPool,
};

/// Derives the seed of trial `trial` from a master seed (SplitMix-style
/// stride keeps nearby trials uncorrelated).
pub fn trial_seed(master: u64, trial: usize) -> u64 {
    master
        ^ (trial as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678_9ABC_DEF1)
}

/// Number of update-on-access clients that makes the mean information age
/// equal `mean_age` (paper §3.2: the age equals a client's inter-request
/// time, so `C = λ·n·T`, at least 1).
pub fn clients_for_mean_age(lambda: f64, servers: usize, mean_age: f64) -> usize {
    ((lambda * servers as f64 * mean_age).round() as usize).max(1)
}

/// One experiment point: a system configuration, an information model, and
/// a policy, run over `trials` independent seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// System configuration (its `seed` is the master seed).
    pub config: SimConfig,
    /// Arrival structure.
    pub arrivals: ArrivalSpec,
    /// Information model.
    pub info: InfoSpec,
    /// Selection policy.
    pub policy: PolicySpec,
    /// Number of independent trials (the paper uses ≥ 10; ≥ 30 for
    /// Bounded-Pareto workloads).
    pub trials: usize,
}

/// A trial that did not produce a result: it either returned a
/// configuration error or panicked outright.
///
/// Panic isolation means one bad trial (a bug tickled by one seed, say)
/// costs that data point, not the whole batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// Trial index within the experiment.
    pub trial: usize,
    /// The derived seed the trial ran with (reproduce with this).
    pub seed: u64,
    /// The error or panic message.
    pub error: String,
}

impl std::fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trial {} (seed {:#018x}) failed: {}",
            self.trial, self.seed, self.error
        )
    }
}

/// The aggregated outcome of an [`Experiment`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Per-trial mean response times (successful trials only).
    pub trial_means: Vec<f64>,
    /// Summary statistics over the trials (mean ± 90% CI, quartiles…).
    pub summary: Summary,
    /// First-class tail latencies over every measured job of every
    /// successful trial, from the per-trial quantile sketches merged in
    /// trial-index order — bit-identical for any worker count or cache
    /// state (ISSUE 8).
    pub tail: TailSummary,
    /// Total history misses across trials (should be 0).
    pub history_misses: u64,
    /// Trials that errored or panicked (skipped in the aggregates).
    pub failures: Vec<TrialFailure>,
    /// Deduplicated per-run warnings (one representative per code).
    pub diagnostics: Vec<Diagnostic>,
}

/// What one trial produced.
///
/// Public so external orchestrators (the sweep runner) can execute
/// [`Experiment::run_trial`] on their own workers and feed the outcomes
/// back through [`Experiment::aggregate`] — staying bit-identical to
/// [`Experiment::try_run`] by construction, because both paths share the
/// same trial and aggregation code.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialOutcome {
    /// The trial completed and produced a mean response time.
    Ok {
        /// Mean response time over the measured window.
        mean: f64,
        /// History-miss count for the trial (should be 0).
        history_misses: u64,
        /// Per-run warnings emitted by the trial.
        diagnostics: Vec<Diagnostic>,
        /// Quantile sketch of the trial's measured response times,
        /// merged across trials by [`Experiment::aggregate`].
        sketch: TailSketch,
    },
    /// The trial returned a config error or panicked.
    Failed(TrialFailure),
}

impl Experiment {
    /// Creates an experiment point. A `trials` of zero is reported by
    /// [`Experiment::try_run`] as a config error, not here.
    pub fn new(
        config: SimConfig,
        arrivals: ArrivalSpec,
        info: InfoSpec,
        policy: PolicySpec,
        trials: usize,
    ) -> Self {
        Self {
            config,
            arrivals,
            info,
            policy,
            trials,
        }
    }

    /// Runs all trials (in parallel when more than one hardware thread is
    /// available) and aggregates the per-trial mean response times.
    ///
    /// Each trial is isolated: a trial that returns a config error or
    /// panics is recorded in [`ExperimentResult::failures`] and excluded
    /// from the aggregates instead of aborting the batch. The result does
    /// not depend on the thread count: each trial's seed derives only from
    /// its index, and [`WorkerPool::map`] hands the outcomes back in
    /// trial order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for zero trials or a run
    /// [`check_run_bounds`] rejects, and [`SimError::NoSuccessfulTrials`]
    /// when *every* trial failed (there is nothing to aggregate).
    pub fn try_run(&self) -> Result<ExperimentResult, SimError> {
        if self.trials == 0 {
            return Err(ConfigError::new("need at least one trial").into());
        }
        check_run_bounds(&self.config, &self.arrivals, &self.info)?;
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let outcomes = WorkerPool::new(threads).map(self.trials, |t| self.run_trial(t));
        self.aggregate(outcomes)
    }

    /// Aggregates per-trial outcomes (in trial-index order) into an
    /// [`ExperimentResult`].
    ///
    /// This is the single aggregation path: [`Experiment::try_run`] and
    /// any external runner that produced `outcomes` via
    /// [`Experiment::run_trial`] go through here, so their results cannot
    /// diverge.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuccessfulTrials`] when every outcome is a
    /// failure.
    pub fn aggregate(&self, outcomes: Vec<TrialOutcome>) -> Result<ExperimentResult, SimError> {
        let mut trial_means = Vec::with_capacity(self.trials);
        let mut history_misses = 0;
        let mut failures = Vec::new();
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        // Merged in trial-index order. The sketch's merge is bit-exact
        // under any association, so this fold matches whatever order the
        // workers actually finished in — but a canonical order keeps the
        // invariant from depending on that property alone.
        let mut merged = TailSketch::new(self.config.sketch_cap.max(1));
        for outcome in outcomes {
            match outcome {
                TrialOutcome::Ok {
                    mean,
                    history_misses: misses,
                    diagnostics: diags,
                    sketch,
                } => {
                    trial_means.push(mean);
                    history_misses += misses;
                    merged.merge(&sketch);
                    for d in diags {
                        if !diagnostics.iter().any(|seen| seen.code == d.code) {
                            diagnostics.push(d);
                        }
                    }
                }
                TrialOutcome::Failed(failure) => failures.push(failure),
            }
        }
        if trial_means.is_empty() {
            return Err(SimError::NoSuccessfulTrials {
                trials: self.trials,
                first_error: failures
                    .first()
                    .map_or_else(|| "no trials ran".to_string(), |f| f.to_string()),
            });
        }
        Ok(ExperimentResult {
            summary: Summary::from_trials(&trial_means),
            tail: TailSummary::from_sketch(&merged),
            trial_means,
            history_misses,
            failures,
            diagnostics,
        })
    }

    /// Like [`Experiment::try_run`], but panics on error — the convenient
    /// entry point for experiment scripts with known-good configurations.
    ///
    /// # Panics
    ///
    /// Panics if every trial failed or the configuration is invalid.
    pub fn run(&self) -> ExperimentResult {
        self.try_run()
            // lint: allow(panic-hygiene) — documented panicking convenience; try_run is the fallible form
            .unwrap_or_else(|e| panic!("experiment failed: {e}"))
    }

    /// Runs one trial (index `trial`) and reports what it produced.
    ///
    /// The trial's seed derives only from the master seed and `trial`, so
    /// trials can run in any order, on any thread, and still produce the
    /// same outcome. Panics inside the simulation are caught and reported
    /// as [`TrialOutcome::Failed`].
    pub fn run_trial(&self, trial: usize) -> TrialOutcome {
        self.run_trial_until(trial, || false)
    }

    /// [`Experiment::run_trial`] that the caller can stop: the trial runs
    /// through [`run_simulation_until`] with `stop`, and a trial `stop`
    /// ended is a [`TrialOutcome::Failed`] holding [`SimError::Stopped`]'s
    /// message.
    pub fn run_trial_until(&self, trial: usize, stop: impl FnMut() -> bool) -> TrialOutcome {
        let mut cfg = self.config.clone();
        cfg.seed = trial_seed(self.config.seed, trial);
        let seed = cfg.seed;
        // AssertUnwindSafe: everything captured is either owned by this
        // trial (cfg, stop) or read-only (&self), so no shared state can
        // be observed half-mutated after an unwind.
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run_simulation_until(&cfg, &self.arrivals, &self.info, &self.policy, stop)
        }));
        match caught {
            Ok(Ok(r)) => TrialOutcome::Ok {
                mean: r.mean_response,
                history_misses: r.history_misses,
                diagnostics: r.diagnostics,
                sketch: r.detail.response_sketch,
            },
            Ok(Err(e)) => TrialOutcome::Failed(TrialFailure {
                trial,
                seed,
                error: e.to_string(),
            }),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                TrialOutcome::Failed(TrialFailure {
                    trial,
                    seed,
                    error: format!("panicked: {message}"),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_UOA_SNAPSHOT_ENTRIES;
    use crate::{run_simulation, EngineMode, FaultSpec};

    fn quick_experiment(policy: PolicySpec, trials: usize) -> Experiment {
        let cfg = SimConfig::builder()
            .servers(8)
            .lambda(0.5)
            .arrivals(15_000)
            .seed(21)
            .build();
        Experiment::new(
            cfg,
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 2.0 },
            policy,
            trials,
        )
    }

    #[test]
    fn zero_trials_is_a_config_error() {
        let err = quick_experiment(PolicySpec::Random, 0)
            .try_run()
            .unwrap_err();
        assert!(err.to_string().contains("at least one trial"), "{err}");
    }

    #[test]
    fn experiment_is_deterministic() {
        let e = quick_experiment(PolicySpec::BasicLi { lambda: 0.5 }, 3);
        let a = e.run();
        let b = e.run();
        assert_eq!(a.trial_means, b.trial_means);
    }

    /// A refresh period that cannot advance the board clock over the run
    /// is a config error before any trial, not a run that refreshes at one
    /// instant until something stops it: on every board and both engines.
    #[test]
    fn a_period_too_small_to_advance_the_clock_is_a_config_error() {
        let boards = [
            (EngineMode::PerServer, InfoSpec::Periodic { period: 1e-300 }),
            (
                EngineMode::PerServer,
                InfoSpec::Individual { period: 1e-300 },
            ),
            (
                EngineMode::PerServer,
                InfoSpec::Ewma {
                    period: 1e-300,
                    alpha: 0.3,
                },
            ),
            (
                EngineMode::Population,
                InfoSpec::Periodic { period: 1e-300 },
            ),
        ];
        for (engine, info) in boards {
            let mut e = quick_experiment(PolicySpec::Random, 2);
            e.config.engine = engine;
            e.info = info;
            match e.try_run() {
                Err(SimError::Config(err)) => {
                    assert!(err.to_string().contains("refresh period 1e-300"), "{err}");
                }
                other => panic!("{engine} {info:?}: expected a config error, got {other:?}"),
            }
            let direct = run_simulation_until(&e.config, &e.arrivals, &e.info, &e.policy, || false);
            assert!(matches!(direct, Err(SimError::Config(_))), "{direct:?}");
        }
        // The smallest period that still advances the clock runs as before.
        let e = quick_experiment(PolicySpec::Random, 1);
        let span = e.config.arrivals as f64 / e.config.total_rate();
        let mut ok = e.clone();
        ok.info = InfoSpec::Periodic { period: 2.0 };
        assert!(check_run_bounds(&ok.config, &ok.arrivals, &ok.info).is_ok());
        ok.info = InfoSpec::Periodic {
            period: span * f64::EPSILON,
        };
        assert!(check_run_bounds(&ok.config, &ok.arrivals, &ok.info).is_ok());
    }

    /// A crash or churn MTBF that cannot advance the fault clock over the
    /// run is a config error before any trial, not a run whose servers
    /// crash again the instant they recover until something stops it.
    #[test]
    fn an_mtbf_too_small_to_advance_the_fault_clock_is_a_config_error() {
        let mut redispatch = FaultSpec::crash(1e-300, 1.0);
        if let Some(crash) = &mut redispatch.crash {
            crash.redispatch = true;
        }
        for faults in [
            FaultSpec::crash(1e-300, 1.0),
            redispatch,
            FaultSpec::churn(1e-300, 1e-301),
        ] {
            let mut e = quick_experiment(PolicySpec::Random, 2);
            e.config.faults = faults;
            match e.try_run() {
                Err(SimError::Config(err)) => {
                    assert!(err.to_string().contains("MTBF 1e-300"), "{err}");
                }
                other => panic!("{faults}: expected a config error, got {other:?}"),
            }
            let direct = run_simulation_until(&e.config, &e.arrivals, &e.info, &e.policy, || false);
            assert!(matches!(direct, Err(SimError::Config(_))), "{direct:?}");
        }
        // The smallest MTBF that still advances the clock passes the check,
        // and a tiny repair time (the clock advances at every crash) runs.
        let mut ok = quick_experiment(PolicySpec::Random, 1);
        let span = ok.config.arrivals as f64 / ok.config.total_rate();
        ok.config.faults = FaultSpec::crash(span * f64::EPSILON, 1.0);
        assert!(check_run_bounds(&ok.config, &ok.arrivals, &ok.info).is_ok());
        ok.config.faults = FaultSpec::crash(1.0, 1e-300);
        assert!(ok.try_run().is_ok());
    }

    /// Update-on-access snapshots past the cap are a config error before
    /// anything is allocated; perfbench's largest case stays accepted.
    #[test]
    fn uoa_snapshots_past_the_cap_are_a_config_error() {
        let cfg = SimConfig::builder().servers(100).build();
        let uoa = |clients| {
            Experiment::new(
                cfg.clone(),
                ArrivalSpec::PoissonClients { clients },
                InfoSpec::UpdateOnAccess,
                PolicySpec::Random,
                1,
            )
        };
        let largest = uoa(1440);
        assert!(check_run_bounds(&largest.config, &largest.arrivals, &largest.info).is_ok());
        for clients in [MAX_UOA_SNAPSHOT_ENTRIES / 100 + 1, usize::MAX] {
            match uoa(clients).try_run() {
                Err(SimError::Config(err)) => {
                    let msg = err.to_string();
                    assert!(msg.contains(&MAX_UOA_SNAPSHOT_ENTRIES.to_string()), "{msg}");
                }
                other => panic!("{clients} clients: expected a config error, got {other:?}"),
            }
        }
        let over = uoa(MAX_UOA_SNAPSHOT_ENTRIES / 100 + 1);
        let direct = run_simulation(&over.config, &over.arrivals, &over.info, &over.policy);
        assert!(matches!(direct, Err(SimError::Config(_))), "{direct:?}");
    }

    #[test]
    fn trials_use_distinct_seeds() {
        let e = quick_experiment(PolicySpec::Random, 4);
        let r = e.run();
        let mut means = r.trial_means.clone();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        means.dedup();
        assert_eq!(
            means.len(),
            4,
            "all trial means distinct: {:?}",
            r.trial_means
        );
        assert_eq!(r.summary.trials, 4);
        assert!(r.failures.is_empty());
    }

    #[test]
    fn trial_seed_spreads() {
        let s: Vec<u64> = (0..16).map(|t| trial_seed(42, t)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 16);
    }

    #[test]
    fn clients_for_mean_age_formula() {
        // λ = 0.9, n = 100, T = 10 ⇒ 900 clients.
        assert_eq!(clients_for_mean_age(0.9, 100, 10.0), 900);
        // Tiny T still yields at least one client.
        assert_eq!(clients_for_mean_age(0.9, 100, 0.001), 1);
    }

    #[test]
    fn summary_reflects_trials() {
        let e = quick_experiment(PolicySpec::Random, 5);
        let r = e.run();
        assert_eq!(r.trial_means.len(), 5);
        let mean = r.trial_means.iter().sum::<f64>() / 5.0;
        assert!((r.summary.mean - mean).abs() < 1e-12);
        assert_eq!(r.history_misses, 0);
    }

    #[test]
    fn invalid_config_fails_every_trial_with_typed_error() {
        let e = quick_experiment(PolicySpec::KSubset { k: 0 }, 3);
        match e.try_run() {
            Err(SimError::NoSuccessfulTrials {
                trials,
                first_error,
            }) => {
                assert_eq!(trials, 3);
                assert!(first_error.contains("subset size"), "{first_error}");
            }
            other => panic!("expected NoSuccessfulTrials, got {other:?}"),
        }
    }

    #[test]
    fn faulty_trials_still_aggregate() {
        let mut e = quick_experiment(PolicySpec::BasicLi { lambda: 0.5 }, 3);
        e.config.faults = FaultSpec::crash(300.0, 30.0);
        let r = e.try_run().expect("crash faults are a valid configuration");
        assert_eq!(r.trial_means.len(), 3);
        assert!(r.failures.is_empty());
    }

    #[test]
    fn one_panicking_trial_does_not_abort_the_batch() {
        // SITA boundaries pass validation (positive, ascending) but with 3
        // boundaries SITA needs 4 servers — selecting on an 8-server
        // cluster is fine, but 9 boundaries on 8 servers panics in
        // select(). Craft a policy that validates yet panics at runtime.
        let cfg = SimConfig::builder()
            .servers(2)
            .lambda(0.5)
            .arrivals(500)
            .seed(7)
            .build();
        // 4 boundaries → 5 virtual servers, but the cluster has 2: SITA
        // returns indices ≥ 2 and the cluster panics on out-of-range.
        let e = Experiment::new(
            cfg,
            ArrivalSpec::Poisson,
            InfoSpec::Fresh,
            PolicySpec::Sita {
                boundaries: vec![0.5, 1.0, 2.0, 4.0],
            },
            2,
        );
        match e.try_run() {
            Err(SimError::NoSuccessfulTrials {
                trials,
                first_error,
            }) => {
                // Every trial hits the same panic — the point is the panic
                // was *caught* and reported, not propagated.
                assert_eq!(trials, 2);
                assert!(first_error.contains("panicked"), "{first_error}");
            }
            Ok(r) => panic!(
                "expected failures, got {} clean trials",
                r.trial_means.len()
            ),
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
