//! The untraced run: repeated cold sweep sessions through
//! `SweepRunner::run_batch`, timed from outside, with output checks.
//!
//! A session does what one bench-binary invocation does after start-up:
//! it generates the grid, opens a fresh result cache and sweep journal in
//! a scratch directory of its own, builds a 2-worker pool, arms the
//! watchdog, runs the whole grid as one batch, and checks the results.
//! Sessions repeat in the run's one process, each on a grid of its own
//! seed, until the run's time is up. Throughput and CPU per job are taken
//! over the timed phases of all sessions together, set-up time as the
//! median over sessions; each session's times are scaled to the reference
//! host's speed by the host reference read around it.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use staleload_analytic::{rk4_integrate, try_supermarket_mean_response};
use staleload_core::{
    run_simulation, trial_seed, ArrivalSpec, Experiment, ExperimentResult, SimError,
};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;
use staleload_runner::{
    ResultCache, SweepJournal, SweepRunner, WatchdogSpec, WorkerPool, WATCHDOG_DIAGNOSTIC,
};
use staleload_sim::{Dist, SimRng};

use crate::grid::{point_jobs, Panel, Workload, MIN_EPOCHS};
use crate::host;
use crate::sys::{self, Digest, Metric, Report};

/// Pool workers: the 2-core machine's `nproc`, as the bench binaries use.
pub const WORKERS: usize = 2;

/// Tolerances of the analytic agreement checks, as relative errors of a
/// point's mean over its trials: about 1.5 times the widest scatter seen
/// over the tuning runs, 16.1% at λ = 0.9 (where the queues decorrelate
/// slowly and a row of two short trials scatters by ~6%, skewed upward by
/// long busy periods), and 1.7 times the 5.8% seen at λ = 0.5.
const MM1_TOL_HIGH_LOAD: f64 = 0.25;
const MM1_TOL: f64 = 0.1;
/// Fresh mean-field d = 2 anchors against the supermarket fixed point.
const ANCHOR_TOL: f64 = 0.05;

/// The per-trial watchdog budget the bench binaries arm: a minute of slack
/// plus 1 ms per arrival of the largest trial.
pub fn watchdog_budget(panels: &[Panel]) -> Duration {
    let arrivals = panels
        .iter()
        .flat_map(|p| &p.points)
        .map(|e| e.config.arrivals)
        .max()
        .unwrap_or(0);
    Duration::from_secs(60) + Duration::from_millis(arrivals)
}

/// A runner set up the way the bench binaries set theirs up, over a fresh
/// cache and journal in `dir` (created when missing).
///
/// # Errors
///
/// Returns a message when the cache or journal cannot be opened.
pub fn bench_runner(dir: &Path, panels: &[Panel]) -> Result<SweepRunner, String> {
    let cache = ResultCache::open(dir).map_err(|e| format!("cache at {}: {e}", dir.display()))?;
    let journal =
        SweepJournal::open(dir).map_err(|e| format!("journal at {}: {e}", dir.display()))?;
    let mut runner = SweepRunner::new(WorkerPool::new(WORKERS), cache);
    runner.set_journal(journal);
    runner.set_watchdog(Some(WatchdogSpec::with_budget(watchdog_budget(panels))));
    Ok(runner)
}

/// One batch's results, point by point in batch order.
type BatchResults = Vec<Result<ExperimentResult, SimError>>;

/// Every point of `panels` in batch order, with a label for the report.
pub fn labelled(panels: &[Panel]) -> Vec<(String, &Experiment)> {
    panels
        .iter()
        .flat_map(|p| {
            p.points.iter().map(move |e| {
                let label = format!("{} {} {}", p.name, e.policy.label(), e.info.label());
                (label, e)
            })
        })
        .collect()
}

/// One session's timings.
struct SessionTiming {
    /// From the start of the session to the first trial's hand-off.
    setup_s: f64,
    /// From the hand-off to the end of the batch.
    wall_s: f64,
    cpu_s: f64,
}

/// Runs one cold session of `panels` in `dir`; `start` is when the session
/// began, before its grid was generated. Returns its timings and results.
fn session(
    panels: &[Panel],
    dir: &Path,
    start: Instant,
) -> Result<(SessionTiming, BatchResults), String> {
    let mut runner = bench_runner(dir, panels)?;
    // run_batch reports progress once before it hands the first trial to
    // the pool: that instant ends the set-up.
    type Mark = Option<(Instant, Result<f64, String>)>;
    let handoff: Arc<Mutex<Mark>> = Arc::new(Mutex::new(None));
    let mark = Arc::clone(&handoff);
    runner.set_progress(move |_| {
        let mut slot = mark.lock().expect("handoff lock poisoned");
        if slot.is_none() {
            *slot = Some((Instant::now(), sys::process_cpu_seconds()));
        }
    });
    // One batch per session: the whole sweep shares the pool, as in a
    // `repro_all` run of these figures.
    let batch: Vec<Experiment> = panels.iter().flat_map(|p| p.points.clone()).collect();
    let results = runner.run_batch(&batch);
    let end = Instant::now();
    let cpu_end = sys::process_cpu_seconds()?;
    drop(runner);
    let (handed, cpu_start) = handoff
        .lock()
        .expect("handoff lock poisoned")
        .take()
        .ok_or("the runner never reported progress")?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    let timing = SessionTiming {
        setup_s: (handed - start).as_secs_f64(),
        wall_s: (end - handed).as_secs_f64(),
        cpu_s: cpu_end - cpu_start?,
    };
    Ok((timing, results))
}

/// Mean response of the jobs that arrive in `[t_from, t_to]` at an
/// M/M/1 queue (service rate 1) that starts empty: one service plus the
/// queue an arrival finds, `1 + E[Q(t)]`, averaged over the window.
///
/// A Random row splits Poisson traffic into n independent M/M/1 queues
/// whatever the board says, but its trials are short next to the queue's
/// relaxation time (~380 services at λ = 0.9) and start empty, so they
/// read well below the steady state `mm1_response`. This is the mean
/// they should read instead; it tends to `mm1_response` as the window
/// moves out. The truncated birth–death chain is integrated with the
/// analytic crate's RK4 stepper.
pub fn mm1_window_mean(lambda: f64, t_from: f64, t_to: f64) -> Result<f64, String> {
    const STATES: usize = 400;
    const DT: f64 = 0.05;
    // p[0..STATES] is the queue-length distribution; the extra last slot
    // accumulates the integral of E[Q(t)].
    let step = |p: &[f64], dp: &mut [f64]| {
        let mut mean_q = 0.0;
        for q in 0..STATES {
            let birth = if q + 1 < STATES { lambda } else { 0.0 };
            let death = if q > 0 { 1.0 } else { 0.0 };
            let mut d = -(birth + death) * p[q];
            if q > 0 {
                d += lambda * p[q - 1];
            }
            if q + 1 < STATES {
                d += p[q + 1];
            }
            dp[q] = d;
            mean_q += q as f64 * p[q];
        }
        dp[STATES] = mean_q;
    };
    let mut p = vec![0.0; STATES + 1];
    p[0] = 1.0;
    let err = |e: staleload_analytic::AnalyticError| e.to_string();
    if t_from > 0.0 {
        rk4_integrate(step, &mut p, t_from, DT, |_| {}).map_err(err)?;
    }
    p[STATES] = 0.0;
    rk4_integrate(step, &mut p, t_to - t_from, DT, |_| {}).map_err(err)?;
    Ok(1.0 + p[STATES] / (t_to - t_from))
}

/// The analytic mean a point's trials must agree with, and the tolerance.
/// Random rows under Poisson traffic (either engine, any board) follow
/// [`mm1_window_mean`]; fresh mean-field d = 2 anchors follow the
/// supermarket fixed point. Other points have no closed form.
fn analytic_anchor(exp: &Experiment) -> Option<Result<(f64, f64, &'static str), String>> {
    let c = &exp.config;
    let poisson = matches!(
        exp.arrivals,
        ArrivalSpec::Poisson | ArrivalSpec::PoissonClients { .. }
    );
    if c.service != Dist::exponential(1.0) || !poisson || !c.faults.is_none() {
        return None;
    }
    if c.queue_cap.is_some() || c.deadline.is_some() || exp.policy.split_hedged().0.is_some() {
        return None;
    }
    match &exp.policy {
        PolicySpec::Random => {
            let rate = c.total_rate();
            let window = mm1_window_mean(
                c.lambda,
                c.warmup_jobs() as f64 / rate,
                c.arrivals as f64 / rate,
            );
            let tol = if c.lambda >= 0.8 {
                MM1_TOL_HIGH_LOAD
            } else {
                MM1_TOL
            };
            Some(window.map(|m| (m, tol, "M/M/1 over the window")))
        }
        PolicySpec::KSubset { k } if exp.info == InfoSpec::Fresh => Some(
            try_supermarket_mean_response(*k, c.lambda)
                .map(|m| (m, ANCHOR_TOL, "supermarket fixed point"))
                .map_err(|e| e.to_string()),
        ),
        _ => None,
    }
}

/// Board epochs a periodic population trial spans between its first
/// measured arrival and its last arrival, counted on the trial's own
/// arrival stream (the engine's first fork draws Exp(1/rate) gaps).
pub fn population_epochs(exp: &Experiment, trial: usize) -> Option<u64> {
    let InfoSpec::Periodic { period } = exp.info else {
        return None;
    };
    let c = &exp.config;
    let mut master = SimRng::from_seed(trial_seed(c.seed, trial));
    // lint: allow(rng-flow) — only the arrival stream, the manifest's first fork, is read here
    let mut arrivals = master.fork();
    let mean_gap = 1.0 / c.total_rate();
    let warmup = c.warmup_jobs();
    let (mut t, mut t_warm) = (0.0f64, 0.0f64);
    for i in 0..c.arrivals {
        t += arrivals.exp(mean_gap);
        if i == warmup {
            t_warm = t;
        }
    }
    Some(((t / period).floor() - (t_warm / period).floor()).max(0.0) as u64)
}

/// Checks one point's batch result; `id` is (pass, point) for the report.
/// A `TrialFailure` fails its trial; an error, a warning diagnostic, a
/// wrong measured-job count or a missed analytic anchor fails every trial
/// of the point. Returns the anchor's relative error, if the point has one.
pub fn check_point(
    report: &mut Report,
    id: (usize, usize),
    label: &str,
    exp: &Experiment,
    result: &Result<ExperimentResult, SimError>,
) -> Option<f64> {
    let all = 0..exp.trials;
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            report.fail(id, all, format!("{label}: {e}"));
            return None;
        }
    };
    for f in &r.failures {
        report.fail(id, [f.trial], format!("{label}: failed trial {f}"));
    }
    let warned = r
        .diagnostics
        .iter()
        .any(|d| d.code == "history-misses" || d.code == WATCHDOG_DIAGNOSTIC);
    if warned || r.history_misses > 0 {
        report.fail(
            id,
            all.clone(),
            format!("{label}: diagnostics {:?}", r.diagnostics),
        );
    }
    // Every trial measures exactly its post-warm-up jobs; no trial can
    // measure more, so the sum pins each one.
    let c = &exp.config;
    let expected = exp.trials as u64 * (c.arrivals - c.warmup_jobs());
    if r.trial_means.len() != exp.trials || r.tail.count != expected {
        report.fail(
            id,
            all.clone(),
            format!(
                "{label}: measured {} jobs over {} trials, expected {expected}",
                r.tail.count,
                r.trial_means.len()
            ),
        );
    }
    match analytic_anchor(exp)? {
        Err(e) => {
            report.fail(id, all, format!("{label}: analytic anchor: {e}"));
            None
        }
        Ok((truth, tol, what)) => {
            let mean = r.summary.mean;
            let err = (mean - truth) / truth;
            // A NaN mean fails too.
            if err.abs().is_nan() || err.abs() > tol {
                report.fail(
                    id,
                    all,
                    format!("{label}: mean {mean} vs {what} {truth} (tolerance {tol})"),
                );
            }
            Some(err)
        }
    }
}

/// Checks every point of session `k`'s batch and returns its determinism
/// digest and the relative error of every analytic anchor checked.
fn check_results(
    k: usize,
    panels: &[Panel],
    results: &BatchResults,
    report: &mut Report,
) -> (String, Vec<f64>) {
    let mut anchors = Vec::new();
    let mut digest = Digest::default();
    for (i, ((label, exp), result)) in labelled(panels).into_iter().zip(results).enumerate() {
        report.attempted += exp.trials as u64;
        if let Ok(r) = result {
            for m in &r.trial_means {
                digest.float(*m);
            }
            digest.float(r.tail.p99);
            digest.word(r.tail.count);
        }
        anchors.extend(check_point(report, (k, i), &label, exp, result));
    }
    (digest.hex(), anchors)
}

/// Re-runs trial 0 of the first and the cheapest point of every panel of
/// session 0 through `run_simulation`: the trial must generate its
/// configured arrivals, measure its post-warm-up jobs, and reproduce the
/// batch's mean to the bit.
fn rerun_sample(panels: &[Panel], results: &BatchResults, report: &mut Report) {
    let mut offset = 0;
    for panel in panels {
        let cheapest = (0..panel.points.len())
            .min_by_key(|&i| point_jobs(&panel.points[i]))
            .unwrap_or(0);
        let mut picks = vec![0, cheapest];
        picks.dedup();
        for i in picks {
            let exp = &panel.points[i];
            let id = (0, offset + i);
            let Ok(batch) = &results[offset + i] else {
                continue;
            };
            let mut cfg = exp.config.clone();
            cfg.seed = trial_seed(exp.config.seed, 0);
            let label = format!("{} {} {}", panel.name, exp.policy.label(), exp.info.label());
            match run_simulation(&cfg, &exp.arrivals, &exp.info, &exp.policy) {
                Ok(r) => {
                    let ok = r.generated == cfg.arrivals
                        && r.measured_jobs == cfg.arrivals - cfg.warmup_jobs()
                        && r.history_misses == 0
                        && batch.trial_means.first().map(|m| m.to_bits())
                            == Some(r.mean_response.to_bits());
                    if !ok {
                        report.fail(
                            id,
                            [0],
                            format!(
                                "{label}: re-run generated {} measured {} mean {} vs batch {:?}",
                                r.generated,
                                r.measured_jobs,
                                r.mean_response,
                                batch.trial_means.first()
                            ),
                        );
                    }
                }
                Err(e) => report.fail(id, [0], format!("{label}: re-run failed: {e}")),
            }
        }
        offset += panel.points.len();
    }
}

/// The seed of session `k` of a run on `seed`: session 0 runs the seed
/// itself, later sessions fresh grids derived from it.
pub fn session_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Reference time taken after each session, as a share of the session's
/// timed phase (at least one round).
const REFERENCE_SHARE: f64 = 0.1;

/// Runs sessions of `workload` in scratch directories under `work` until
/// `seconds` have passed, checks each, and reports the end-to-end metrics.
///
/// Each session's set-up, wall and CPU times are scaled to the reference
/// host's speed by the host reference read right before and right after
/// it (see [`host`]); the raw figures are printed beside the report.
///
/// # Errors
///
/// Returns a message when a session cannot be set up or measured.
pub fn run(workload: Workload, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let started = Instant::now();
    let mut report = Report::default();
    // Jobs, and wall and CPU seconds of the timed phases: raw, and scaled
    // to the reference host's speed.
    let mut jobs = 0u64;
    let (mut wall_s, mut cpu_s, mut host_wall_s, mut host_cpu_s) = (0.0, 0.0, 0.0, 0.0);
    // Set-up seconds per session: raw, and scaled like the wall time.
    let (mut setups, mut host_setups): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut peak_rss_mib = None;
    let mut before = host::read(0.0)?;
    while setups.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let k = setups.len();
        // The set-up opens the cache and journal in an empty directory, as
        // a bench binary does on a cold results directory.
        let dir = work.join(format!("session-{k}"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let start = Instant::now();
        let panels = workload.grid(session_seed(seed, k));
        let (timing, results) = session(&panels, &dir, start)?;
        let after = host::read(REFERENCE_SHARE * timing.wall_s)?;
        let (digest, anchors) = check_results(k, &panels, &results, &mut report);
        if k == 0 {
            // The peak of one cold session, as one bench-binary invocation
            // has it; later sessions only reuse freed memory.
            peak_rss_mib = Some(sys::peak_rss_mib()?);
            report.digest = Some(digest);
            // Trial-level checks that need the engine's own result.
            rerun_sample(&panels, &results, &mut report);
            if workload == Workload::Meanfield {
                check_epochs(&panels, &mut report);
            }
        }
        let session_jobs: u64 = panels.iter().flat_map(|p| &p.points).map(point_jobs).sum();
        let around = before.and(after);
        let worst = anchors.iter().fold(0.0f64, |w, e| w.max(e.abs()));
        eprintln!(
            "[perfbench] {} session {k}: setup {:.6} s, timed {:.3} s, cpu {:.2} s, \
             host slowness {:.3} wall {:.3} cpu, {session_jobs} jobs, {} analytic anchors \
             (worst relative error {worst:.4})",
            workload.name(),
            timing.setup_s,
            timing.wall_s,
            timing.cpu_s,
            around.wall_slowness(),
            around.cpu_slowness(),
            anchors.len(),
        );
        jobs += session_jobs;
        wall_s += timing.wall_s;
        cpu_s += timing.cpu_s;
        host_wall_s += timing.wall_s / around.wall_slowness();
        host_cpu_s += timing.cpu_s / around.cpu_slowness();
        setups.push(timing.setup_s);
        host_setups.push(timing.setup_s / around.wall_slowness());
        before = after;
    }
    let jobs = jobs as f64;
    report.raw = vec![
        Metric::new("raw jobs_per_s", jobs / wall_s, "jobs/s"),
        Metric::new("raw cpu_ns_per_job", cpu_s * 1e9 / jobs, "ns"),
        Metric::new("raw setup_s", sys::median(&setups), "s"),
        Metric::new("host wall slowness", wall_s / host_wall_s, "x"),
        Metric::new("host cpu slowness", cpu_s / host_cpu_s, "x"),
    ];
    report.metrics = vec![
        Metric::new("jobs_per_s", jobs / host_wall_s, "jobs/s"),
        Metric::new("cpu_ns_per_job", host_cpu_s * 1e9 / jobs, "ns"),
        Metric::new("setup_s", sys::median(&host_setups), "s"),
        Metric::new("peak_rss_mib", peak_rss_mib.unwrap_or(f64::NAN), "MiB"),
    ];
    Ok(report)
}

/// Every periodic population trial of session 0 must span [`MIN_EPOCHS`]
/// board epochs after its warm-up.
fn check_epochs(panels: &[Panel], report: &mut Report) {
    for (i, exp) in panels.iter().flat_map(|p| &p.points).enumerate() {
        for trial in 0..exp.trials {
            if let Some(epochs) = population_epochs(exp, trial) {
                if epochs < MIN_EPOCHS {
                    report.fail(
                        (0, i),
                        [trial],
                        format!(
                            "meanfield n={} {}: {epochs} board epochs after warm-up, \
                             need {MIN_EPOCHS}",
                            exp.config.servers,
                            exp.info.label()
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staleload_core::{EngineMode, SimConfig};

    #[test]
    fn mm1_window_mean_starts_low_and_tends_to_the_steady_state() {
        let far = mm1_window_mean(0.5, 200.0, 2_000.0).expect("integrates");
        assert!((far - 2.0).abs() < 0.01, "{far}");
        // A 30 000-arrival n = 100 trial at λ = 0.9 measures from t ≈ 33.
        let short = mm1_window_mean(0.9, 33.3, 333.3).expect("integrates");
        assert!(short > 5.0 && short < 9.0, "{short}");
    }

    #[test]
    fn the_kernel_probe_population_row_spans_no_board_epoch() {
        // n = 65 536, 200 000 arrivals, Basic LI over a T = 10 board: the
        // run ends before the first refresh, so the epoch check refuses it.
        let mut cfg = SimConfig::builder()
            .servers(65_536)
            .lambda(0.9)
            .arrivals(200_000)
            .seed(1)
            .build();
        cfg.engine = EngineMode::Population;
        let exp = Experiment::new(
            cfg,
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 10.0 },
            PolicySpec::BasicLi { lambda: 0.9 },
            1,
        );
        assert!(population_epochs(&exp, 0).expect("periodic") < MIN_EPOCHS);
    }
}
