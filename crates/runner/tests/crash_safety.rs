//! Crash-safety integration tests: corruption injection, interrupted
//! sweep resume, and watchdog isolation — the three robustness
//! properties of the orchestration layer, each pinned against the
//! determinism contract (recovery changes *when* results are computed,
//! never *what* they are) — and invalid points, which are rejected before
//! anything of them is run or journalled.
//!
//! These tests injure the stores the way real failures do — truncating
//! files mid-line, flipping bits, zeroing entries — using direct
//! `std::fs` writes. That is fine *here*: the `atomic-io` lint rule
//! only polices `src/`, precisely so tests can simulate the damage the
//! production paths must survive.

use std::path::PathBuf;
use std::time::Duration;

use staleload_core::{
    run_simulation, ArrivalSpec, ConfigError, EngineMode, Experiment, ExperimentResult, FaultSpec,
    RetrySpec, SimConfig, SimConfigBuilder, SimError,
};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;
use staleload_runner::{
    experiment_key, ResultCache, SweepJournal, SweepRunner, WatchdogSpec, WorkerPool, CACHE_FILE,
    JOURNAL_FILE, QUARANTINE_DIR, WATCHDOG_DIAGNOSTIC,
};
use staleload_sim::Dist;

fn experiments() -> Vec<Experiment> {
    let cfg = |seed: u64| {
        SimConfig::builder()
            .servers(8)
            .lambda(0.9)
            .arrivals(1_500)
            .seed(seed)
            .build()
    };
    vec![
        Experiment::new(
            cfg(101),
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 4.0 },
            PolicySpec::BasicLi { lambda: 0.9 },
            3,
        ),
        Experiment::new(
            cfg(202),
            ArrivalSpec::Poisson,
            InfoSpec::Fresh,
            PolicySpec::Greedy,
            4,
        ),
        Experiment::new(
            cfg(303),
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 10.0 },
            PolicySpec::KSubset { k: 2 },
            2,
        ),
    ]
}

/// A point far too long to finish in the watchdog tests' 5 ms budget.
fn huge(trials: usize) -> Experiment {
    let mut cfg = SimConfig::builder();
    cfg.servers(64).lambda(0.9).arrivals(4_000_000).seed(7);
    let info = InfoSpec::Periodic { period: 4.0 };
    let li = PolicySpec::BasicLi { lambda: 0.9 };
    Experiment::new(cfg.build(), ArrivalSpec::Poisson, info, li, trials)
}

/// Bit-exact rendering (floats via `to_bits`); equal iff bit-identical.
fn fingerprint(r: &ExperimentResult) -> String {
    let bits = |x: f64| x.to_bits();
    format!(
        "means={:?} summary={} {} {} misses={} failures={:?} diags={:?}",
        r.trial_means.iter().map(|&m| bits(m)).collect::<Vec<_>>(),
        r.summary.trials,
        bits(r.summary.mean),
        bits(r.summary.stddev),
        r.history_misses,
        r.failures,
        r.diagnostics,
    )
}

fn fingerprints(results: &[Result<ExperimentResult, SimError>]) -> Vec<String> {
    results
        .iter()
        .map(|r| fingerprint(r.as_ref().expect("point succeeded")))
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "staleload-crash-safety-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Self-healing cache: corruption is quarantined and recomputed.
// ---------------------------------------------------------------------------

#[test]
fn corrupted_cache_entries_are_quarantined_recomputed_and_stay_bit_identical() {
    let exps = experiments();
    let dir = temp_dir("corruption");

    // Cold run establishes the golden answers and populates the cache.
    let mut runner = SweepRunner::new(
        WorkerPool::new(2),
        ResultCache::open(&dir).expect("open cold cache"),
    );
    let golden = fingerprints(&runner.run_batch(&exps));
    drop(runner);

    // Injure the store three ways: truncate the first line mid-entry,
    // bit-flip the second, zero a third — leaving no line intact... but
    // append one intact line back so healing is partial, not total.
    let path = dir.join(CACHE_FILE);
    let body = std::fs::read_to_string(&path).expect("read cache file");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), exps.len(), "one cache line per point");
    let mut flipped = lines[1].to_string().into_bytes();
    flipped[20] ^= 0x08;
    let damaged = format!(
        "{}\n{}\n\n{}\n",
        &lines[0][..lines[0].len() / 3],
        String::from_utf8_lossy(&flipped),
        lines[2]
    );
    std::fs::write(&path, damaged).expect("write damaged cache");

    // Reopen: two entries quarantined, one survives; the batch heals by
    // recomputing the missing points and the answers stay bit-identical.
    let mut runner = SweepRunner::new(
        WorkerPool::new(2),
        ResultCache::open(&dir).expect("open damaged cache"),
    );
    let healed = fingerprints(&runner.run_batch(&exps));
    assert_eq!(golden, healed, "healed run diverged from golden");
    let acct = runner.take_accounting();
    assert_eq!(acct.quarantined, 2, "torn + flipped lines quarantined");
    assert_eq!(acct.hits, 1, "the intact entry still serves");
    assert_eq!(acct.misses, 2, "the quarantined entries recompute");
    drop(runner);

    // The quarantine preserves the damage; the live file is clean again
    // and a warm run serves every point bit-identically from it.
    let qbody = std::fs::read_to_string(dir.join(QUARANTINE_DIR).join(CACHE_FILE))
        .expect("quarantine file exists");
    assert_eq!(qbody.lines().count(), 2);
    let mut runner = SweepRunner::new(
        WorkerPool::new(2),
        ResultCache::open(&dir).expect("reopen healed cache"),
    );
    let warm = fingerprints(&runner.run_batch(&exps));
    assert_eq!(golden, warm, "warm run diverged after healing");
    let acct = runner.take_accounting();
    assert_eq!(acct.quarantined, 0, "no damage left to quarantine");
    assert_eq!(acct.hits, exps.len() as u64);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_and_garbage_entries_never_abort_a_sweep() {
    let exps = experiments();
    let dir = temp_dir("garbage");
    std::fs::create_dir_all(&dir).expect("create cache dir");
    // A cache file that never came from us at all.
    std::fs::write(
        dir.join(CACHE_FILE),
        "\n\n\0\0\0\0\n{not json at all\nkey|result|zzz\n",
    )
    .expect("write garbage cache");

    let mut runner = SweepRunner::new(
        WorkerPool::new(2),
        ResultCache::open(&dir).expect("garbage cache still opens"),
    );
    let got = fingerprints(&runner.run_batch(&exps));
    let reference: Vec<String> = exps
        .iter()
        .map(|e| fingerprint(&e.try_run().expect("sequential reference")))
        .collect();
    assert_eq!(reference, got);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Journal resume: an interrupted sweep picks up where it died,
// bit-identically.
// ---------------------------------------------------------------------------

#[test]
fn interrupted_sweep_resumes_from_journal_bit_identically() {
    let exps = experiments();
    let reference: Vec<String> = exps
        .iter()
        .map(|e| fingerprint(&e.try_run().expect("sequential reference")))
        .collect();
    let dir = temp_dir("resume");

    // "Crash" a run partway: journal some trials of each point (as a
    // killed worker pool would leave behind), then abandon the runner
    // before anything aggregates into the cache.
    {
        let journal = SweepJournal::open(&dir).expect("open journal");
        for exp in &exps {
            let key = experiment_key(exp);
            for trial in 0..exp.trials - 1 {
                journal.record(key, trial, &exp.run_trial(trial));
            }
        }
        assert_eq!(journal.len(), exps.iter().map(|e| e.trials - 1).sum());
    }

    // Resume: a fresh runner (fresh process, in effect) replays the
    // journalled trials and computes only the missing ones.
    let mut runner = SweepRunner::new(
        WorkerPool::new(2),
        ResultCache::open(&dir).expect("open cache"),
    );
    runner.set_journal(SweepJournal::open(&dir).expect("reopen journal"));
    let resumed = fingerprints(&runner.run_batch(&exps));
    assert_eq!(reference, resumed, "resumed run diverged from golden");
    let jacct = runner.take_journal_accounting();
    assert_eq!(
        jacct.replayed,
        exps.iter().map(|e| (e.trials - 1) as u64).sum::<u64>(),
        "every journalled trial replays instead of recomputing"
    );
    assert_eq!(
        jacct.recorded,
        exps.len() as u64,
        "only the missing trials are computed and recorded"
    );
    drop(runner);

    // The completed batch is durably in the cache, so the journal was
    // truncated; the cache JSONL now equals an uninterrupted run's.
    assert_eq!(
        std::fs::metadata(dir.join(JOURNAL_FILE))
            .expect("journal file exists")
            .len(),
        0,
        "journal truncated once results are durable in the cache"
    );
    let resumed_cache = std::fs::read_to_string(dir.join(CACHE_FILE)).expect("read resumed cache");
    let clean_dir = temp_dir("resume-clean");
    let mut runner = SweepRunner::new(
        WorkerPool::new(2),
        ResultCache::open(&clean_dir).expect("open clean cache"),
    );
    let _ = runner.run_batch(&exps);
    drop(runner);
    let clean_cache =
        std::fs::read_to_string(clean_dir.join(CACHE_FILE)).expect("read clean cache");
    let sorted = |s: &str| {
        let mut v: Vec<String> = s.lines().map(str::to_string).collect();
        v.sort();
        v
    };
    assert_eq!(
        sorted(&resumed_cache),
        sorted(&clean_cache),
        "resumed cache JSONL differs from an uninterrupted run's"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn fully_journalled_batch_completes_without_running_any_task() {
    let exps = experiments();
    let dir = temp_dir("full-replay");
    {
        let journal = SweepJournal::open(&dir).expect("open journal");
        for exp in &exps {
            let key = experiment_key(exp);
            for trial in 0..exp.trials {
                journal.record(key, trial, &exp.run_trial(trial));
            }
        }
    }
    let mut runner = SweepRunner::new(WorkerPool::new(2), ResultCache::disabled());
    runner.set_journal(SweepJournal::open(&dir).expect("reopen journal"));
    let got = fingerprints(&runner.run_batch(&exps));
    let reference: Vec<String> = exps
        .iter()
        .map(|e| fingerprint(&e.try_run().expect("sequential reference")))
        .collect();
    assert_eq!(reference, got);
    let jacct = runner.take_journal_accounting();
    assert_eq!(jacct.recorded, 0, "nothing new to compute");
    // Cache disabled ⇒ the journal must NOT be truncated (it is the
    // only durable copy of the outcomes).
    assert!(
        std::fs::metadata(dir.join(JOURNAL_FILE))
            .expect("journal file exists")
            .len()
            > 0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_resumes_by_recomputing_only_the_torn_trial() {
    let exps = experiments();
    let exp = &exps[0];
    let key = experiment_key(exp);
    let dir = temp_dir("torn-journal");
    {
        let journal = SweepJournal::open(&dir).expect("open journal");
        for trial in 0..exp.trials {
            journal.record(key, trial, &exp.run_trial(trial));
        }
    }
    // kill -9 mid-append: the last line is torn in half.
    let path = dir.join(JOURNAL_FILE);
    let body = std::fs::read_to_string(&path).expect("read journal");
    let mut lines: Vec<&str> = body.lines().collect();
    let last = lines.pop().expect("at least one line");
    let mut torn = lines.iter().fold(String::new(), |mut acc, l| {
        acc.push_str(l);
        acc.push('\n');
        acc
    });
    torn.push_str(&last[..last.len() / 2]);
    std::fs::write(&path, torn).expect("write torn journal");

    let mut runner = SweepRunner::new(WorkerPool::new(2), ResultCache::disabled());
    runner.set_journal(SweepJournal::open(&dir).expect("open torn journal"));
    let got = fingerprints(&runner.run_batch(std::slice::from_ref(exp)));
    assert_eq!(
        got[0],
        fingerprint(&exp.try_run().expect("sequential reference")),
        "recovery from a torn journal diverged"
    );
    let jacct = runner.take_journal_accounting();
    assert_eq!(jacct.quarantined, 1, "the torn line is quarantined");
    assert_eq!(jacct.replayed, (exp.trials - 1) as u64);
    assert_eq!(jacct.recorded, 1, "only the torn trial recomputes");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Watchdog: a hung trial times out, the sweep completes, the pool
// survives.
// ---------------------------------------------------------------------------

#[test]
fn hung_trial_times_out_and_the_sweep_completes_with_a_diagnostic() {
    let huge = huge(1);
    let quick = experiments().remove(2);
    let reference = fingerprint(&quick.try_run().expect("sequential reference"));

    let mut runner = SweepRunner::new(WorkerPool::new(2), ResultCache::disabled());
    runner.set_watchdog(Some(WatchdogSpec::with_budget(Duration::from_millis(5))));

    let results = runner.run_batch(&[huge.clone(), quick.clone()]);
    // The hung point fails every trial with a watchdog error…
    match &results[0] {
        Err(SimError::NoSuccessfulTrials { first_error, .. }) => {
            assert!(first_error.contains("watchdog:"), "{first_error}");
        }
        other => panic!("expected NoSuccessfulTrials, got {other:?}"),
    }
    // …while its batch-mate completes bit-identically: the stall was
    // isolated, not contagious.
    assert_eq!(
        fingerprint(results[1].as_ref().expect("quick point succeeded")),
        reference
    );

    // The pool is not poisoned: the same runner serves another batch.
    let again = runner.run_batch(std::slice::from_ref(&quick));
    assert_eq!(
        fingerprint(again[0].as_ref().expect("pool survived")),
        reference
    );
}

#[test]
fn watchdog_tags_partial_timeouts_and_keeps_them_out_of_the_cache() {
    // Trial 0 is journalled upfront so it replays instantly; the huge
    // remaining trial times out. Aggregation then has one success and
    // one watchdog failure: the point is tagged and left uncached.
    let huge = huge(2);
    let dir = temp_dir("watchdog-uncached");
    {
        let journal = SweepJournal::open(&dir).expect("open journal");
        // A fabricated-but-plausible outcome for trial 0 (we cannot
        // afford to really run it); the test only needs the slot full.
        journal.record(
            experiment_key(&huge),
            0,
            &staleload_core::TrialOutcome::Ok {
                mean: 1.25,
                history_misses: 0,
                diagnostics: vec![],
                sketch: staleload_stats::TailSketch::new(staleload_stats::TailSketch::DEFAULT_CAP),
            },
        );
    }
    let mut runner = SweepRunner::new(
        WorkerPool::new(2),
        ResultCache::open(&dir).expect("open cache"),
    );
    runner.set_journal(SweepJournal::open(&dir).expect("reopen journal"));
    runner.set_watchdog(Some(WatchdogSpec::with_budget(Duration::from_millis(5))));

    let results = runner.run_batch(std::slice::from_ref(&huge));
    let r = results[0].as_ref().expect("one good trial aggregates");
    assert_eq!(r.trial_means.len(), 1);
    assert_eq!(r.failures.len(), 1);
    assert!(r.failures[0].error.starts_with("watchdog:"));
    assert!(
        r.diagnostics.iter().any(|d| d.code == WATCHDOG_DIAGNOSTIC),
        "{:?}",
        r.diagnostics
    );
    drop(runner);

    // The tainted point must not be in the cache.
    let mut cache = ResultCache::open(&dir).expect("reopen cache");
    assert!(cache.get(experiment_key(&huge)).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Invalid points: rejected once, before any trial, with the builder's
// message, wherever they enter.
// ---------------------------------------------------------------------------

/// One config field out of range, set on a builder and, as sweeps do, on a
/// built config, and the engines it is out of range on.
struct OutOfRange {
    name: &'static str,
    engines: &'static [EngineMode],
    on_builder: fn(&mut SimConfigBuilder) -> &mut SimConfigBuilder,
    on_config: fn(&mut SimConfig),
}

const BOTH: &[EngineMode] = &[EngineMode::PerServer, EngineMode::Population];
const POPULATION: &[EngineMode] = &[EngineMode::Population];
const RETRY: RetrySpec = RetrySpec {
    max_attempts: 4,
    base: 0.5,
    cap: 8.0,
};

fn case(
    name: &'static str,
    engines: &'static [EngineMode],
    on_builder: fn(&mut SimConfigBuilder) -> &mut SimConfigBuilder,
    on_config: fn(&mut SimConfig),
) -> OutOfRange {
    OutOfRange {
        name,
        engines,
        on_builder,
        on_config,
    }
}

fn out_of_range_fields() -> Vec<OutOfRange> {
    vec![
        case("servers 0", BOTH, |b| b.servers(0), |c| c.servers = 0),
        case("lambda 0", BOTH, |b| b.lambda(0.0), |c| c.lambda = 0.0),
        case("lambda 5", BOTH, |b| b.lambda(5.0), |c| c.lambda = 5.0),
        case("arrivals 0", BOTH, |b| b.arrivals(0), |c| c.arrivals = 0),
        case(
            "warmup 1.0",
            BOTH,
            |b| b.warmup_fraction(1.0),
            |c| c.warmup_fraction = 1.0,
        ),
        case(
            "warmup 1.5",
            BOTH,
            |b| b.warmup_fraction(1.5),
            |c| c.warmup_fraction = 1.5,
        ),
        case(
            "3 capacities on 4 servers",
            BOTH,
            |b| b.capacities(vec![1.0; 3]).servers(4),
            |c| c.capacities = Some(vec![1.0; 3]),
        ),
        case(
            "a zero capacity",
            BOTH,
            |b| b.capacities(vec![1.0, 1.0, 0.0, 1.0]),
            |c| c.capacities = Some(vec![1.0, 1.0, 0.0, 1.0]),
        ),
        case(
            "stealing 1",
            BOTH,
            |b| b.work_stealing(1),
            |c| c.work_stealing = Some(1),
        ),
        case(
            "queue cap 0",
            BOTH,
            |b| b.queue_cap(0),
            |c| c.queue_cap = Some(0),
        ),
        case(
            "deadline 0",
            BOTH,
            |b| b.deadline(0.0),
            |c| c.deadline = Some(0.0),
        ),
        case(
            "deadline -1",
            BOTH,
            |b| b.deadline(-1.0),
            |c| c.deadline = Some(-1.0),
        ),
        case(
            "deadline inf",
            BOTH,
            |b| b.deadline(f64::INFINITY),
            |c| c.deadline = Some(f64::INFINITY),
        ),
        case(
            "retry with no cap or deadline",
            BOTH,
            |b| b.retry(RETRY),
            |c| c.retry = Some(RETRY),
        ),
        case(
            "sketch cap 0",
            BOTH,
            |b| b.sketch_cap(0),
            |c| c.sketch_cap = 0,
        ),
        case(
            "capacities",
            POPULATION,
            |b| b.capacities(vec![1.0; 4]),
            |c| c.capacities = Some(vec![1.0; 4]),
        ),
        case(
            "work stealing",
            POPULATION,
            |b| b.work_stealing(2),
            |c| c.work_stealing = Some(2),
        ),
        case(
            "faults",
            POPULATION,
            |b| b.faults(FaultSpec::crash(300.0, 30.0)),
            |c| c.faults = FaultSpec::crash(300.0, 30.0),
        ),
        case(
            "a queue cap",
            POPULATION,
            |b| b.queue_cap(4),
            |c| c.queue_cap = Some(4),
        ),
        case(
            "a deadline",
            POPULATION,
            |b| b.deadline(8.0),
            |c| c.deadline = Some(8.0),
        ),
        case(
            "deterministic service",
            POPULATION,
            |b| b.service(Dist::constant(1.0)),
            |c| c.service = Dist::constant(1.0),
        ),
    ]
}

/// Each field out of range after `build()` is the builder's config error
/// from `run_simulation` on every engine it applies to, from
/// `Experiment::try_run` before any trial runs, and from `run_batch`,
/// which journals nothing of it while a valid batch-mate keeps its bits.
#[test]
fn fields_set_out_of_range_after_build_are_the_builders_config_error_everywhere() {
    let base = |engine| {
        let mut b = SimConfig::builder();
        b.servers(4)
            .lambda(0.5)
            .arrivals(2_000)
            .seed(11)
            .engine(engine);
        b
    };
    let point = |config| {
        let info = InfoSpec::Periodic { period: 4.0 };
        let li = PolicySpec::BasicLi { lambda: 0.5 };
        Experiment::new(config, ArrivalSpec::Poisson, info, li, 3)
    };
    let valid = point(base(EngineMode::PerServer).build());
    let mut batch = vec![valid.clone()];
    let mut expected: Vec<ConfigError> = Vec::new();
    for case in out_of_range_fields() {
        for &engine in case.engines {
            let mut builder = base(engine);
            (case.on_builder)(&mut builder);
            let want = builder.try_build().expect_err(case.name);
            let mut config = base(engine).build();
            (case.on_config)(&mut config);
            let bad = point(config);
            let what = format!("{} on {engine}", case.name);
            match run_simulation(&bad.config, &bad.arrivals, &bad.info, &bad.policy) {
                Err(SimError::Config(e)) => assert_eq!(e, want, "run_simulation, {what}"),
                other => panic!("run_simulation, {what}: expected {want}, got {other:?}"),
            }
            match bad.try_run() {
                Err(SimError::Config(e)) => assert_eq!(e, want, "try_run, {what}"),
                other => panic!("try_run, {what}: expected {want}, got {other:?}"),
            }
            batch.push(bad);
            expected.push(want);
        }
    }

    let dir = temp_dir("invalid-points");
    let mut runner = SweepRunner::new(WorkerPool::new(2), ResultCache::disabled());
    runner.set_journal(SweepJournal::open(&dir).expect("open journal"));
    let results = runner.run_batch(&batch);
    assert_eq!(
        fingerprint(results[0].as_ref().expect("the valid point runs")),
        fingerprint(&valid.try_run().expect("sequential reference")),
        "the valid batch-mate keeps its bits"
    );
    for ((result, want), bad) in results[1..].iter().zip(&expected).zip(&batch[1..]) {
        match result {
            Err(SimError::Config(e)) => assert_eq!(e, want),
            other => panic!(
                "run_batch on {:?}: expected {want}, got {other:?}",
                bad.config
            ),
        }
    }
    let journal = runner.take_journal_accounting();
    assert_eq!(
        journal.recorded, valid.trials as u64,
        "only the valid point's trials are journalled"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
