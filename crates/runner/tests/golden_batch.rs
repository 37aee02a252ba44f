//! Golden determinism tests for the sweep runner.
//!
//! The contract under test: `SweepRunner::run_batch` returns results
//! **bit-identical** to running each point through `Experiment::try_run`
//! sequentially — for every worker count, with the watchdog armed, and
//! whether the cache is disabled, cold, warm, or reloaded from disk by a
//! fresh process-like runner. Comparison is on `f64::to_bits`, not `==`,
//! so even a last-ulp drift or a NaN-payload change fails the test.

use std::path::PathBuf;
use std::time::Duration;

use staleload_core::{
    run_simulation, trial_seed, ArrivalSpec, Experiment, ExperimentResult, FaultSpec, RetrySpec,
    SimConfig,
};
use staleload_info::{AgeKnowledge, DelaySpec, InfoSpec};
use staleload_policies::PolicySpec;
use staleload_runner::{ResultCache, SweepRunner, WatchdogSpec, WorkerPool};

/// A small but diverse batch: periodic / fresh / continuous information
/// models, deterministic and randomized policies, mixed trial counts, and
/// the engine's crash and overload paths.
fn experiments() -> Vec<Experiment> {
    let cfg = |seed: u64, arrivals: u64| {
        SimConfig::builder()
            .servers(8)
            .lambda(0.9)
            .arrivals(arrivals)
            .seed(seed)
            .build()
    };
    vec![
        Experiment::new(
            cfg(11, 2_000),
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 4.0 },
            PolicySpec::BasicLi { lambda: 0.9 },
            3,
        ),
        Experiment::new(
            cfg(22, 2_000),
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 10.0 },
            PolicySpec::KSubset { k: 2 },
            4,
        ),
        Experiment::new(
            cfg(33, 1_500),
            ArrivalSpec::Poisson,
            InfoSpec::Fresh,
            PolicySpec::Greedy,
            2,
        ),
        Experiment::new(
            cfg(44, 1_500),
            ArrivalSpec::Poisson,
            InfoSpec::Continuous {
                delay: DelaySpec::Exponential { mean: 2.0 },
                knowledge: AgeKnowledge::Actual,
            },
            PolicySpec::HybridLi { lambda: 0.9 },
            3,
        ),
        // The degraded-information control plane: a partitioned and
        // corrupted board behind a hedged + quarantined policy stack.
        Experiment::new(
            SimConfig::builder()
                .servers(8)
                .lambda(0.6)
                .arrivals(2_000)
                .seed(55)
                .faults({
                    let mut f = FaultSpec::partition(40.0, 20.0, 0.25);
                    f.corrupt = FaultSpec::corrupt(0.2).corrupt;
                    f
                })
                .build(),
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 5.0 },
            PolicySpec::Hedged {
                h: 2,
                inner: Box::new(PolicySpec::Quarantined {
                    window: 15.0,
                    backoff: 10.0,
                    inner: Box::new(PolicySpec::BasicLi { lambda: 0.6 }),
                }),
            },
            3,
        ),
        // The tail-latency estimators: an EWMA board with a small sketch
        // capacity (forces compaction mid-trial) and a multi-horizon
        // board at the default capacity.
        Experiment::new(
            SimConfig::builder()
                .servers(8)
                .lambda(0.9)
                .arrivals(2_000)
                .seed(66)
                .sketch_cap(256)
                .build(),
            ArrivalSpec::Poisson,
            InfoSpec::Ewma {
                period: 4.0,
                alpha: 0.3,
            },
            PolicySpec::BasicLi { lambda: 0.9 },
            3,
        ),
        Experiment::new(
            cfg(77, 1_500),
            ArrivalSpec::Poisson,
            InfoSpec::MultiHorizon {
                period: 4.0,
                windows: [4.0, 12.0, 28.0],
            },
            PolicySpec::BasicLi { lambda: 0.9 },
            2,
        ),
        // The crash path: servers fail and recover while Greedy routes
        // on a periodic board.
        Experiment::new(
            SimConfig::builder()
                .servers(8)
                .lambda(0.9)
                .arrivals(2_000)
                .seed(88)
                .faults(FaultSpec::crash(100.0, 10.0))
                .build(),
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 5.0 },
            PolicySpec::Greedy,
            3,
        ),
        // The overload path: capped queues bounce jobs, deadlines make
        // them renege, and the retry orbit offers the bounced ones again.
        Experiment::new(
            SimConfig::builder()
                .servers(8)
                .lambda(0.95)
                .arrivals(2_000)
                .seed(99)
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
            3,
        ),
    ]
}

/// The crash and overload points exercise the paths they stand for: each
/// of their trials sees a crash, or a rejection, a renege and a retry.
#[test]
fn crash_and_overload_points_reach_their_paths() {
    let exps = experiments();
    let crash = exps.iter().filter(|e| e.config.faults.crash.is_some());
    let overload = exps.iter().filter(|e| e.config.retry.is_some());
    let trials = |e: &Experiment| {
        (0..e.trials)
            .map(|t| {
                let mut cfg = e.config.clone();
                cfg.seed = trial_seed(e.config.seed, t);
                run_simulation(&cfg, &e.arrivals, &e.info, &e.policy).expect("trial runs")
            })
            .collect::<Vec<_>>()
    };
    for e in crash {
        for (t, r) in trials(e).iter().enumerate() {
            assert!(
                r.faults.crashes > 0,
                "crash point, trial {t}: {:?}",
                r.faults
            );
        }
    }
    for e in overload {
        for (t, r) in trials(e).iter().enumerate() {
            let o = &r.overload;
            assert!(
                o.rejected > 0 && o.reneged > 0 && o.retries > 0,
                "overload point, trial {t}: {o:?}"
            );
        }
    }
}

/// Renders every bit of a result: floats via `to_bits`, the rest via
/// `Debug`. Two results compare equal iff they are bit-identical.
fn fingerprint(r: &ExperimentResult) -> String {
    let bits = |x: f64| x.to_bits();
    let mut out = String::new();
    out.push_str(&format!(
        "trial_means={:?}\n",
        r.trial_means.iter().map(|&m| bits(m)).collect::<Vec<_>>()
    ));
    let s = &r.summary;
    out.push_str(&format!(
        "summary={} {} {} {} {} {} {} {} {}\n",
        s.trials,
        bits(s.mean),
        bits(s.stddev),
        bits(s.ci90),
        bits(s.min),
        bits(s.q1),
        bits(s.median),
        bits(s.q3),
        bits(s.max),
    ));
    let t = &r.tail;
    out.push_str(&format!(
        "tail={} {} {} {} {}\n",
        bits(t.p50),
        bits(t.p99),
        bits(t.p999),
        bits(t.max),
        t.count,
    ));
    out.push_str(&format!("history_misses={}\n", r.history_misses));
    out.push_str(&format!("failures={:?}\n", r.failures));
    out.push_str(&format!("diagnostics={:?}\n", r.diagnostics));
    out
}

fn assert_matches_reference(
    reference: &[ExperimentResult],
    got: &[Result<ExperimentResult, staleload_core::SimError>],
    context: &str,
) {
    assert_eq!(reference.len(), got.len(), "{context}: length mismatch");
    for (i, (want, have)) in reference.iter().zip(got).enumerate() {
        let have = have
            .as_ref()
            .unwrap_or_else(|e| panic!("{context}: point {i} errored: {e}"));
        assert_eq!(
            fingerprint(want),
            fingerprint(have),
            "{context}: point {i} diverged from sequential try_run"
        );
    }
}

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("staleload-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn batch_is_bit_identical_to_sequential_for_all_workers_and_cache_states() {
    let exps = experiments();
    let reference: Vec<ExperimentResult> = exps
        .iter()
        .map(|e| e.try_run().expect("sequential reference run"))
        .collect();

    for workers in [1usize, 2, 8] {
        // Cache disabled: pure pool execution.
        let mut runner = SweepRunner::new(WorkerPool::new(workers), ResultCache::disabled());
        let got = runner.run_batch(&exps);
        assert_matches_reference(
            &reference,
            &got,
            &format!("workers={workers} cache=disabled"),
        );

        // Watchdog armed, as the bench binaries and perfbench run their
        // trials: each trial runs on a guard thread spawned for it alone.
        // The budget is far above one trial, so it never fires.
        let mut runner = SweepRunner::new(WorkerPool::new(workers), ResultCache::disabled());
        runner.set_watchdog(Some(WatchdogSpec::with_budget(Duration::from_secs(600))));
        let guarded = runner.run_batch(&exps);
        assert_matches_reference(
            &reference,
            &guarded,
            &format!("workers={workers} cache=disabled watchdog=armed"),
        );

        // Cold cache: every point computed, then persisted.
        let dir = temp_cache_dir(&format!("w{workers}"));
        let cache = ResultCache::open(&dir).expect("open cold cache");
        let mut runner = SweepRunner::new(WorkerPool::new(workers), cache);
        let cold = runner.run_batch(&exps);
        assert_matches_reference(&reference, &cold, &format!("workers={workers} cache=cold"));
        let acct = runner.take_accounting();
        assert_eq!(acct.hits, 0, "cold run must not hit");
        assert_eq!(acct.misses, exps.len() as u64);

        // Warm cache, same runner: every point served from memory.
        let warm = runner.run_batch(&exps);
        assert_matches_reference(&reference, &warm, &format!("workers={workers} cache=warm"));
        let acct = runner.take_accounting();
        assert_eq!(
            acct.hits,
            exps.len() as u64,
            "warm run must hit every point"
        );
        assert_eq!(acct.misses, 0);

        // Fresh runner reloading the JSONL from disk: the round-trip
        // through the codec must also be bit-exact.
        let cache = ResultCache::open(&dir).expect("reopen cache");
        let mut runner = SweepRunner::new(WorkerPool::new(1), cache);
        let reloaded = runner.run_batch(&exps);
        assert_matches_reference(
            &reference,
            &reloaded,
            &format!("workers={workers} cache=reloaded"),
        );
        let acct = runner.take_accounting();
        assert_eq!(
            acct.hits,
            exps.len() as u64,
            "reloaded cache must hit every point"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn mixed_cached_and_uncached_batch_stays_in_input_order() {
    let exps = experiments();
    let reference: Vec<ExperimentResult> = exps
        .iter()
        .map(|e| e.try_run().expect("sequential reference run"))
        .collect();

    // Prime the cache with only the middle two points, then run the full
    // batch: hits and computed points must interleave back in order.
    let dir = temp_cache_dir("mixed");
    let cache = ResultCache::open(&dir).expect("open cache");
    let mut runner = SweepRunner::new(WorkerPool::new(4), cache);
    let _ = runner.run_batch(&exps[1..3]);
    let _ = runner.take_accounting();
    let got = runner.run_batch(&exps);
    assert_matches_reference(&reference, &got, "mixed batch");
    let acct = runner.take_accounting();
    assert_eq!(acct.hits, 2);
    assert_eq!(acct.misses, exps.len() as u64 - 2);
    let _ = std::fs::remove_dir_all(&dir);
}
