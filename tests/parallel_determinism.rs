//! Thread-count invariance: an [`Experiment`] must produce the same
//! [`ExperimentResult`] whether its trials run on one worker or on every
//! available core. Trial seeds derive only from the trial index, and
//! [`WorkerPool::map`] hands the outcomes back in index order before
//! aggregation, so the worker count is not allowed to leak into the
//! numbers.

use staleload::core::{
    ArrivalSpec, Experiment, ExperimentResult, FaultSpec, RetrySpec, SimConfig, SimError,
    WorkerPool,
};
use staleload::info::InfoSpec;
use staleload::policies::PolicySpec;

fn experiments() -> Vec<(&'static str, Experiment)> {
    let mk_cfg = |seed: u64| {
        let mut b = SimConfig::builder();
        b.servers(12).lambda(0.9).arrivals(10_000).seed(seed);
        b
    };
    vec![
        (
            "periodic/basic-li",
            Experiment::new(
                mk_cfg(101).build(),
                ArrivalSpec::Poisson,
                InfoSpec::Periodic { period: 10.0 },
                PolicySpec::BasicLi { lambda: 0.9 },
                6,
            ),
        ),
        (
            "faulted/greedy",
            Experiment::new(
                mk_cfg(102).faults(FaultSpec::crash(300.0, 20.0)).build(),
                ArrivalSpec::Poisson,
                InfoSpec::Periodic { period: 5.0 },
                PolicySpec::Greedy,
                6,
            ),
        ),
        (
            "overloaded/retry",
            Experiment::new(
                mk_cfg(103)
                    .lambda(0.95)
                    .queue_cap(3)
                    .deadline(2.0)
                    .retry(RetrySpec {
                        max_attempts: 4,
                        base: 0.25,
                        cap: 4.0,
                    })
                    .build(),
                ArrivalSpec::Poisson,
                InfoSpec::Fresh,
                PolicySpec::Random,
                6,
            ),
        ),
    ]
}

/// Runs `exp`'s trials on a pool of `workers` and aggregates them: the
/// path `Experiment::try_run` takes, with the worker count pinned.
fn run_on(exp: &Experiment, workers: usize) -> Result<ExperimentResult, SimError> {
    let outcomes = WorkerPool::new(workers).map(exp.trials, |t| exp.run_trial(t));
    exp.aggregate(outcomes)
}

#[test]
fn thread_count_does_not_change_results() {
    let threads = std::thread::available_parallelism().map_or(2, |p| p.get().max(2));
    for (label, exp) in experiments() {
        let serial = run_on(&exp, 1).unwrap_or_else(|e| panic!("{label}: serial run failed: {e}"));
        let parallel =
            run_on(&exp, threads).unwrap_or_else(|e| panic!("{label}: parallel run failed: {e}"));
        // Bit-level equality on every per-trial mean, not just the summary.
        let serial_bits: Vec<u64> = serial.trial_means.iter().map(|m| m.to_bits()).collect();
        let parallel_bits: Vec<u64> = parallel.trial_means.iter().map(|m| m.to_bits()).collect();
        assert_eq!(
            serial_bits, parallel_bits,
            "{label}: per-trial means diverged between 1 and {threads} workers"
        );
        assert_eq!(
            serial, parallel,
            "{label}: full ExperimentResult diverged between 1 and {threads} workers"
        );
        let default = exp
            .try_run()
            .unwrap_or_else(|e| panic!("{label}: try_run failed: {e}"));
        assert_eq!(serial, default, "{label}: try_run diverged from one worker");
    }
}

#[test]
fn thread_count_is_clamped_sanely() {
    let (_, exp) = experiments().remove(0);
    // More workers than trials, and zero workers, both behave like valid
    // counts (clamped to [1, trials]).
    let a = run_on(&exp, 64).expect("over-provisioned run works");
    let b = run_on(&exp, 0).expect("zero clamps to one worker");
    assert_eq!(a, b);
}
