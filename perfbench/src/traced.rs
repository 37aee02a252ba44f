//! The traced run: the per-layer split, measured apart from the
//! end-to-end figures. It takes the untraced run's session grids in turn
//! until its time is up, and puts each through two passes.
//!
//! * **Engine replay** (per-server workloads): every clean point's trials
//!   run once through `run_simulation` (untimed layers, the reference)
//!   and once through the replay in [`crate::replay`], which must match
//!   it bit for bit. Points with faults or overload controls are timed
//!   only as whole `Experiment::run_trial` spans and stay unattributed.
//! * **Runner**: the grid goes through `run_batch` once, then through the
//!   runner's public pieces on a 2-worker pool with every piece timed,
//!   and must give the same results; a second pass serves it from the
//!   warm cache.
//!
//! The population engine has no public seam below `run_trial`, so
//! `meanfield` trials are timed whole (in the runner pass) and their
//! board epochs counted on the trials' own arrival streams. Spans are
//! aggregated in memory and reported once at the end.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use staleload_core::{
    run_simulation, trial_seed, EngineMode, Experiment, SimError, TrialFailure, TrialOutcome,
};
use staleload_info::InfoSpec;
use staleload_runner::{
    experiment_key, run_guarded, ResultCache, SweepJournal, WatchdogSpec, WorkerPool,
};

use crate::grid::{is_clean, Panel, Workload};
use crate::replay::{replay_trial, same_bits, Layer, LayerLedger};
use crate::session::{
    bench_runner, check_point, labelled, population_epochs, session_seed, watchdog_budget, WORKERS,
};
use crate::sys::{self, ratio, Metric, Report};

/// Wall cost of one empty span in ns (`Instant::now` pair plus the
/// accumulate), from the quietest of a few tight-loop rounds.
fn calibrate_span() -> f64 {
    const SPANS: u32 = 200_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut reading = 0u128;
        let outer = Instant::now();
        for _ in 0..SPANS {
            let t0 = Instant::now();
            reading += std::hint::black_box(t0.elapsed()).as_nanos();
        }
        std::hint::black_box(reading);
        best = best.min(outer.elapsed().as_nanos() as f64 / f64::from(SPANS));
    }
    best
}

/// Engine-replay totals over every replayed trial.
#[derive(Default)]
struct EngineTotals {
    ledger: LayerLedger,
    jobs: u64,
    trials: u64,
    untraced_ns: f64,
    replay_ns: f64,
    setup_ns: f64,
    events: u64,
    board_trials: u64,
    epochs: u64,
    /// `run_trial` time of trials the replay does not cover.
    unattributed_ns: f64,
}

/// Replays every trial of every clean point of `panels`; times the other
/// points' trials whole. `pass` identifies the pass in the report.
fn engine_pass(pass: usize, panels: &[Panel], totals: &mut EngineTotals, traced: &mut Report) {
    for (i, (label, exp)) in labelled(panels).into_iter().enumerate() {
        for trial in 0..exp.trials {
            traced.attempted += 1;
            let label = format!("{label} trial {trial}");
            let fail = |traced: &mut Report, why: String| traced.fail((pass, i), [trial], why);
            if !is_clean(exp) {
                let t0 = Instant::now();
                let outcome = exp.run_trial(trial);
                totals.unattributed_ns += t0.elapsed().as_nanos() as f64;
                if let TrialOutcome::Failed(f) = outcome {
                    fail(traced, format!("{label}: {f}"));
                }
                continue;
            }
            let mut cfg = exp.config.clone();
            cfg.seed = trial_seed(exp.config.seed, trial);
            let t0 = Instant::now();
            let sim = run_simulation(&cfg, &exp.arrivals, &exp.info, &exp.policy);
            let untraced = t0.elapsed().as_nanos() as f64;
            let t1 = Instant::now();
            let replayed = replay_trial(exp, trial, cfg.seed ^ 0x7ACE);
            let replay_ns = t1.elapsed().as_nanos() as f64;
            let (sim, r) = match (sim, replayed) {
                (Ok(sim), Ok(r)) => (sim, r),
                (Err(e), _) => {
                    fail(traced, format!("{label}: run_simulation: {e}"));
                    continue;
                }
                (_, Err(e)) => {
                    fail(traced, format!("{label}: replay: {e}"));
                    continue;
                }
            };
            if let Err(e) = same_bits(&r, &sim) {
                fail(traced, format!("{label}: {e}"));
                continue;
            }
            totals.ledger.merge(&r.ledger);
            totals.jobs += r.generated;
            totals.trials += 1;
            totals.untraced_ns += untraced;
            totals.replay_ns += replay_ns;
            totals.setup_ns += r.setup_ns;
            totals.events += r.events;
            if matches!(
                exp.info,
                InfoSpec::Periodic { .. } | InfoSpec::Ewma { .. } | InfoSpec::MultiHorizon { .. }
            ) {
                totals.board_trials += 1;
                totals.epochs += r.epochs_after_warmup;
            }
        }
    }
}

/// Runner-piece totals over every pass.
#[derive(Default)]
struct RunnerTotals {
    points: u64,
    trials: u64,
    trial_ms: Vec<f64>,
    body_ns: f64,
    watchdog_ns: f64,
    journal_ns: f64,
    key_ns: f64,
    put_ns: f64,
    get_ns: f64,
    aggregate_ns: f64,
    pool_wall_ns: f64,
    /// Jobs and `run_trial` time of population trials.
    population_jobs: u64,
    population_ns: f64,
    /// Wall time of the reference `run_batch` pass and of the piece pass.
    batch_ns: f64,
    pieces_ns: f64,
}

/// One timed trial as the pool ran it.
struct TrialRecord {
    outcome: TrialOutcome,
    body_ns: f64,
    guarded_ns: f64,
    journal_ns: f64,
}

/// The same batch through `run_batch` and through the runner's pieces.
/// `pass` identifies the pass in the report.
fn runner_pass(
    pass: usize,
    panels: &[Panel],
    work: &Path,
    totals: &mut RunnerTotals,
    traced: &mut Report,
) -> Result<(), String> {
    // The session's single batch, with a label per point for the report.
    let (labels, batch): (Vec<String>, Vec<Experiment>) = labelled(panels)
        .into_iter()
        .map(|(label, e)| (label, e.clone()))
        .unzip();
    let reference_dir = work.join("reference");
    let mut runner = bench_runner(&reference_dir, panels)?;
    let t0 = Instant::now();
    let reference: Vec<String> = runner
        .run_batch(&batch)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    totals.batch_ns += t0.elapsed().as_nanos() as f64;
    drop(runner);

    let dir = work.join("pieces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut cache =
        ResultCache::open(&dir).map_err(|e| format!("cache at {}: {e}", dir.display()))?;
    let journal = Arc::new(
        SweepJournal::open(&dir).map_err(|e| format!("journal at {}: {e}", dir.display()))?,
    );
    let pool = WorkerPool::new(WORKERS);
    let watchdog = WatchdogSpec::with_budget(watchdog_budget(panels));
    let pieces_start = Instant::now();
    let mut keys = Vec::with_capacity(batch.len());
    for (i, (exp, label)) in batch.iter().zip(&labels).enumerate() {
        let t = Instant::now();
        let key = experiment_key(exp);
        totals.key_ns += t.elapsed().as_nanos() as f64;
        if cache.get(key).is_some() {
            traced.fail((pass, i), 0..exp.trials, format!("{label}: cold cache hit"));
        }
        keys.push(key);
    }
    let slots: Vec<Arc<Mutex<Vec<Option<TrialRecord>>>>> = batch
        .iter()
        .map(|e| Arc::new(Mutex::new((0..e.trials).map(|_| None).collect())))
        .collect();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = Vec::new();
    for ((exp, &key), slot) in batch.iter().zip(&keys).zip(&slots) {
        let exp = Arc::new(exp.clone());
        for trial in 0..exp.trials {
            let (exp, slot, journal) = (Arc::clone(&exp), Arc::clone(slot), Arc::clone(&journal));
            tasks.push(Box::new(move || {
                let seed = trial_seed(exp.config.seed, trial);
                let body_exp = Arc::clone(&exp);
                let t = Instant::now();
                // The runner's jitter tweak, so both passes back off alike.
                let guarded = run_guarded(&watchdog, seed ^ 0x57A7_C4D0_6B0D_6E55, move || {
                    let t = Instant::now();
                    let outcome = body_exp.run_trial(trial);
                    (outcome, t.elapsed().as_nanos() as f64)
                });
                let guarded_ns = t.elapsed().as_nanos() as f64;
                let (outcome, body_ns) = guarded.outcome.unwrap_or_else(|| {
                    let failure = TrialFailure {
                        trial,
                        seed,
                        error: "watchdog: exceeded the per-attempt budget".into(),
                    };
                    (TrialOutcome::Failed(failure), guarded_ns)
                });
                let t = Instant::now();
                journal.record(key, trial, &outcome);
                let journal_ns = t.elapsed().as_nanos() as f64;
                slot.lock().expect("trial slot lock poisoned")[trial] = Some(TrialRecord {
                    outcome,
                    body_ns,
                    guarded_ns,
                    journal_ns,
                });
            }));
        }
    }
    let t = Instant::now();
    pool.run(tasks);
    totals.pool_wall_ns += t.elapsed().as_nanos() as f64;

    for (i, (exp, slot)) in batch.iter().zip(&slots).enumerate() {
        let records: Vec<TrialRecord> = slot
            .lock()
            .expect("trial slot lock poisoned")
            .drain(..)
            .map(|r| r.ok_or("a trial task stored nothing"))
            .collect::<Result<_, _>>()?;
        let mut outcomes = Vec::with_capacity(records.len());
        for rec in records {
            totals.trials += 1;
            totals.trial_ms.push(rec.body_ns / 1e6);
            totals.body_ns += rec.body_ns;
            totals.watchdog_ns += rec.guarded_ns - rec.body_ns;
            totals.journal_ns += rec.journal_ns;
            if exp.config.engine == EngineMode::Population {
                totals.population_jobs += exp.config.arrivals;
                totals.population_ns += rec.body_ns;
            }
            outcomes.push(rec.outcome);
        }
        let t = Instant::now();
        let result = exp.aggregate(outcomes);
        totals.aggregate_ns += t.elapsed().as_nanos() as f64;
        if let Ok(r) = &result {
            let t = Instant::now();
            cache.put(keys[i], r);
            totals.put_ns += t.elapsed().as_nanos() as f64;
        }
        totals.points += 1;
        // The pieces' results must pass the untraced run's checks, and
        // equal run_batch's.
        check_point(traced, (pass, i), &labels[i], exp, &result);
        if format!("{result:?}") != reference[i] {
            traced.fail(
                (pass, i),
                0..exp.trials,
                format!("{}: runner pieces disagree with run_batch", labels[i]),
            );
        }
    }
    if !journal.is_empty() {
        journal.clear();
    }
    totals.pieces_ns += pieces_start.elapsed().as_nanos() as f64;

    // Warm pass: every point must come back from the cache unchanged.
    for (i, ((exp, label), reference)) in batch.iter().zip(&labels).zip(&reference).enumerate() {
        let key = experiment_key(exp);
        let t = Instant::now();
        let hit = cache.get(key);
        totals.get_ns += t.elapsed().as_nanos() as f64;
        let served = hit.map(|r| format!("{:?}", Ok::<_, SimError>(r)));
        if served.as_ref() != Some(reference) {
            traced.fail(
                (pass, i),
                0..exp.trials,
                format!("{label}: warm cache does not serve the cold result"),
            );
        }
    }
    drop(pool);
    for d in [&reference_dir, &dir] {
        std::fs::remove_dir_all(d).map_err(|e| format!("cannot remove {}: {e}", d.display()))?;
    }
    Ok(())
}

/// Runs the traced pass of `workload`: session grids 0, 1, … in turn,
/// each through the engine replay (per-server workloads) and the runner
/// pass, until `seconds` have passed.
///
/// # Errors
///
/// Returns a message when a scratch directory cannot be set up.
pub fn run(workload: Workload, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let mut traced = Report::default();
    let span_ns = calibrate_span();
    let (mut engine, mut runner) = (EngineTotals::default(), RunnerTotals::default());
    let mut epochs = (0u64, 0u64);
    let start = Instant::now();
    for k in 0.. {
        if k > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let panels = workload.grid(session_seed(seed, k));
        if workload == Workload::Meanfield {
            for exp in panels.iter().flat_map(|p| &p.points) {
                if let Some(e) = population_epochs(exp, 0) {
                    epochs.0 += e;
                    epochs.1 += 1;
                }
            }
        } else {
            engine_pass(2 * k, &panels, &mut engine, &mut traced);
        }
        let dir = work.join(format!("grid-{k}"));
        runner_pass(2 * k + 1, &panels, &dir, &mut runner, &mut traced)?;
    }
    traced.attempted += runner.trials;
    epochs.0 += engine.epochs;
    epochs.1 += engine.board_trials;

    let per_job = |ns: f64| ratio(ns, engine.jobs as f64);
    let mut layers_ns = 0.0;
    let m = &mut traced.metrics;
    for layer in Layer::ALL {
        let ns = engine.ledger.estimated_ns(layer);
        layers_ns += ns;
        m.push(Metric::new(layer.metric(), per_job(ns), "ns"));
    }
    m.push(Metric::new(
        "core.glue_ns_per_job",
        per_job(engine.untraced_ns - layers_ns),
        "ns",
    ));
    m.push(Metric::new(
        "core.trial_setup_us",
        ratio(engine.setup_ns / 1e3, engine.trials as f64),
        "us",
    ));
    m.push(Metric::new(
        "core.events_per_job",
        per_job(engine.events as f64),
        "count",
    ));
    m.push(Metric::new(
        "core.population_ns_per_job",
        ratio(runner.population_ns, runner.population_jobs as f64),
        "ns",
    ));
    m.push(Metric::new(
        "core.epochs_per_trial",
        ratio(epochs.0 as f64, epochs.1 as f64),
        "count",
    ));
    let mut trial_ms = runner.trial_ms.clone();
    trial_ms.sort_by(f64::total_cmp);
    let (p50, p90) = if trial_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (sys::quantile(&trial_ms, 0.5), sys::quantile(&trial_ms, 0.9))
    };
    let tail = sys::tail_percentile(trial_ms.len());
    eprintln!(
        "[perfbench] runner trial times over {} trials: p50 {p50:.3} ms, p90 {p90:.3} ms; \
         highest percentile with ten samples beyond: {}",
        trial_ms.len(),
        tail.map_or("none".to_string(), |p| format!(
            "p{} = {:.3} ms",
            p * 100.0,
            sys::quantile(&trial_ms, p)
        ))
    );
    let per_trial = |ns: f64| ratio(ns / 1e3, runner.trials as f64);
    let per_point = |ns: f64| ratio(ns / 1e3, runner.points as f64);
    m.push(Metric::new("runner.trial_ms.p50", p50, "ms"));
    m.push(Metric::new("runner.trial_ms.p90", p90, "ms"));
    m.push(Metric::new("runner.trials", runner.trials as f64, "count"));
    m.push(Metric::new(
        "runner.watchdog_us_per_trial",
        per_trial(runner.watchdog_ns),
        "us",
    ));
    m.push(Metric::new(
        "runner.journal_us_per_trial",
        per_trial(runner.journal_ns),
        "us",
    ));
    m.push(Metric::new(
        "runner.key_us_per_point",
        per_point(runner.key_ns),
        "us",
    ));
    m.push(Metric::new(
        "runner.cache_put_us_per_point",
        per_point(runner.put_ns),
        "us",
    ));
    m.push(Metric::new(
        "runner.cache_get_us_per_point",
        per_point(runner.get_ns),
        "us",
    ));
    m.push(Metric::new(
        "stats.aggregate_us_per_point",
        per_point(runner.aggregate_ns),
        "us",
    ));
    m.push(Metric::new(
        "runner.pool_idle_frac",
        1.0 - ratio(runner.body_ns, WORKERS as f64 * runner.pool_wall_ns),
        "frac",
    ));
    m.push(Metric::new("trace.span_ns", span_ns, "ns"));
    let replay_own_ns = engine.replay_ns - engine.ledger.spans as f64 * span_ns;
    let observed_ns = replay_own_ns + engine.unattributed_ns;
    m.push(Metric::new(
        "trace.attributed_frac",
        ratio(layers_ns, observed_ns),
        "frac",
    ));
    m.push(Metric::new(
        "trace.overhead_frac",
        ratio(
            engine.replay_ns + runner.pieces_ns,
            engine.untraced_ns + runner.batch_ns,
        ) - 1.0,
        "frac",
    ));
    eprintln!(
        "[perfbench] replayed {} trials ({} jobs, {:.2} s untraced, {:.2} s traced, {} spans); \
         {:.2} s of unreplayable trials",
        engine.trials,
        engine.jobs,
        engine.untraced_ns / 1e9,
        engine.replay_ns / 1e9,
        engine.ledger.spans,
        engine.unattributed_ns / 1e9
    );
    Ok(traced)
}
