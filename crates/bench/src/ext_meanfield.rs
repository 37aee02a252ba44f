//! Mean-field fast path: staleness at cluster sizes the per-server
//! engine cannot reach.
//!
//! The population engine (`--engine population`) represents the cluster
//! as queue-length *counts* instead of per-server state, which is exact
//! in distribution for symmetric policies and turns cost-per-event from
//! O(n) refresh scans into O(classes). This entry uses it three ways:
//!
//! * **Staleness sweep** — mean/p99 response vs refresh period
//!   T ∈ {2, 10, 40} for d = 2 subset probing and Basic LI at
//!   n ∈ {256, 4096, 65536, 10^6}, at every scale including smoke.
//!   The paper's n = 100 story — LI robust, naive least-loaded herding —
//!   is re-examined four orders of magnitude up.
//! * **Differential check** (n = 256) — the per-server and population
//!   engines run the *same* experiment spec; their mean responses are
//!   independent estimates of one quantity and must agree within their
//!   combined confidence intervals.
//! * **Convergence check** — with fresh information the population
//!   process has an exact n → ∞ limit: M/M/1 for Random, the
//!   supermarket fixed point (solved by the `staleload-analytic` RK4
//!   integrator) for d = 2. Simulated means must land within a few
//!   percent of the ODE values at the largest n, and the error must not
//!   grow with n.
//!
//! Arrivals scale with n (`max(scale.arrivals, 30n)`, less at smoke) so
//! every size runs long past its cold-start transient; comparing a
//! 10^6-server run over 0.3 simulated time units against a steady-state
//! formula would measure the transient, not the policy. The convergence
//! anchors are stricter still: M/M/1's relaxation time is
//! ~(1 − √λ)^-2 service times (≈ 380 at λ = 0.9), so they run at
//! λ = 0.6 (relaxation ≈ 20) over a 100n-arrival horizon with the first
//! half discarded — the measured window then sits 4+ relaxation times
//! past the empty start and the residual transient bias is well under
//! the tolerance.
//!
//! Results go to one long-form CSV (`results/ext_meanfield.csv`); both
//! checks are statistical.

use staleload_analytic::{mm1_response, try_supermarket_mean_response};
use staleload_core::{ArrivalSpec, EngineMode, Experiment, SimConfig};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;

use crate::{publish, row, run_cells, table, Check, Outcome, Scale};

/// Cluster sizes, smallest first. The largest is the mean-field regime
/// proper; the smallest doubles as the differential-test size where the
/// per-server engine is still cheap.
const SIZES: [usize; 4] = [256, 4_096, 65_536, 1_000_000];
const LAMBDA: f64 = 0.9;
const SEED: u64 = 0xF1E1D;
/// Refresh periods from mildly to badly stale (mean service times).
const PERIODS: [f64; 3] = [2.0, 10.0, 40.0];
/// The refresh period of the differential check.
const DIFF_PERIOD: f64 = 10.0;
/// Subset size for the power-of-d arm and its ODE limit.
const D: usize = 2;
/// Load for the fresh-information convergence anchors: low enough that
/// the empty-start transient dies within a simulable horizon (see the
/// module docs), high enough that d = 2 and Random are far apart.
const FRESH_LAMBDA: f64 = 0.6;
/// Convergence gate: relative error of the fresh-information simulated
/// mean vs its ODE limit at the largest size.
const ODE_TOL: f64 = 0.03;
/// Differential gate: the engines' means must agree within this many
/// combined 90% half-widths (2x covers the union of both intervals with
/// margin; the test is two independent estimates of one quantity).
const DIFF_CI_FACTOR: f64 = 2.0;

/// Jobs for one trial at size `n`: enough simulated time past the
/// cold-start transient that steady-state comparisons are meaningful.
/// At smoke scale the coverage target drops; the runs only need to
/// exercise the code path.
fn arrivals_for(scale: &Scale, n: usize) -> u64 {
    let per_server = if scale.is_smoke() { 2 } else { 30 };
    scale.arrivals.max(n as u64 * per_server)
}

/// A stale-board cell at size `n` on `engine`.
fn stale_cell(
    scale: &Scale,
    n: usize,
    engine: EngineMode,
    t: f64,
    policy: PolicySpec,
) -> Experiment {
    let cfg = SimConfig::builder()
        .servers(n)
        .lambda(LAMBDA)
        .arrivals(arrivals_for(scale, n))
        .seed(SEED)
        .engine(engine)
        .build();
    Experiment::new(
        cfg,
        ArrivalSpec::Poisson,
        InfoSpec::Periodic { period: t },
        policy,
        scale.trials,
    )
}

/// A fresh-information convergence anchor: lower load, a 100n-arrival
/// horizon, and half the run discarded as warm-up, so the measured
/// window sits several relaxation times past the empty start.
fn fresh_cell(scale: &Scale, n: usize, policy: PolicySpec) -> Experiment {
    let per_server = if scale.is_smoke() { 2 } else { 100 };
    let cfg = SimConfig::builder()
        .servers(n)
        .lambda(FRESH_LAMBDA)
        .arrivals(scale.arrivals.max(n as u64 * per_server))
        .warmup_fraction(0.5)
        .seed(SEED)
        .engine(EngineMode::Population)
        .build();
    Experiment::new(
        cfg,
        ArrivalSpec::Poisson,
        InfoSpec::Fresh,
        policy,
        scale.trials,
    )
}

fn policies() -> Vec<(&'static str, PolicySpec)> {
    vec![
        ("d2", PolicySpec::KSubset { k: D }),
        ("basic-li", PolicySpec::BasicLi { lambda: LAMBDA }),
    ]
}

/// The `ext_meanfield` entry.
pub fn run(scale: &Scale) -> Outcome {
    let supermarket = try_supermarket_mean_response(D, FRESH_LAMBDA)
        .map_err(|e| format!("supermarket ODE failed: {e}"))?;
    let anchors = [
        ("random", PolicySpec::Random, mm1_response(FRESH_LAMBDA)),
        ("d2", PolicySpec::KSubset { k: D }, supermarket),
    ];

    // One batch: the population sweep (n, T, policy), the per-server
    // twins of its n = 256, T = 10 cells, then the fresh anchors
    // (anchor, n).
    let mut cells = Vec::new();
    for &n in &SIZES {
        for &t in &PERIODS {
            for (_, policy) in policies() {
                cells.push(stale_cell(scale, n, EngineMode::Population, t, policy));
            }
        }
    }
    for (_, policy) in policies() {
        cells.push(stale_cell(
            scale,
            SIZES[0],
            EngineMode::PerServer,
            DIFF_PERIOD,
            policy,
        ));
    }
    for (_, policy, _) in &anchors {
        for &n in &SIZES {
            cells.push(fresh_cell(scale, n, policy.clone()));
        }
    }
    let results = run_cells("ext_meanfield", &cells)?;
    let (sweep, rest) = results.split_at(SIZES.len() * PERIODS.len() * policies().len());
    let (per_server, fresh) = rest.split_at(policies().len());

    let mut csv = table(["x", "n", "policy", "mean", "ci90", "p99", "count", "trials"]);
    let mut headers = vec!["n".to_string(), "T".to_string()];
    headers.extend(policies().iter().map(|(l, _)| format!("{l} (mean | p99)")));
    let mut rows = table(&headers);
    let mut sweep_cells = sweep.iter();
    for &n in &SIZES {
        for &t in &PERIODS {
            let mut cells = vec![n.to_string(), t.to_string()];
            for (label, _) in policies() {
                let result = sweep_cells.next().expect("one result per cell");
                let s = &result.summary;
                cells.push(format!("{:.3} | {:.3}", s.mean, result.tail.p99));
                csv.push_row(row(&[
                    &t,
                    &n,
                    &label,
                    &s.mean,
                    &s.ci90,
                    &result.tail.p99,
                    &result.tail.count,
                    &s.trials,
                ]));
            }
            rows.push_row(cells);
        }
    }
    publish(
        "ext_meanfield",
        &format!("Staleness at scale (population engine), lambda={LAMBDA}"),
        &rows,
        &csv,
    )?;

    // Differential: per-server vs population at n = 256, T = 10. The
    // population side is the sweep's own cell.
    let diff_t = PERIODS
        .iter()
        .position(|&t| t == DIFF_PERIOD)
        .expect("the differential period is in the sweep");
    println!(
        "\n== Differential check: per-server vs population, n={}, T={DIFF_PERIOD} ==",
        SIZES[0]
    );
    let mut agree = true;
    for (p, (label, _)) in policies().iter().enumerate() {
        let ps = &per_server[p].summary;
        let pop = &sweep[diff_t * policies().len() + p].summary;
        let gap = (ps.mean - pop.mean).abs();
        // Floor the bound: at tiny CI widths (many arrivals, identical
        // seeds across trials shrink ci90) a 0.5% numeric wobble should
        // not fail an exact-in-distribution engine.
        let bound = (DIFF_CI_FACTOR * (ps.ci90 + pop.ci90)).max(0.01 * ps.mean);
        let verdict = if gap <= bound { "agree" } else { "DISAGREE" };
        println!(
            "  {label}: per-server {:.4} +-{:.4}, population {:.4} +-{:.4}, \
             gap {gap:.4} vs bound {bound:.4} ({verdict})",
            ps.mean, ps.ci90, pop.mean, pop.ci90
        );
        agree &= gap <= bound;
    }
    let differential = Check::statistical(
        "differential",
        agree,
        if agree {
            "both engines estimate the same response time"
        } else {
            "engines disagree beyond their confidence intervals"
        },
    );

    // Convergence: fresh information vs the ODE limits — within
    // tolerance at the largest n, and no worse than the smallest n
    // (finite-size error shrinks as n grows; noise at these arrival
    // counts is well under the tolerance).
    println!("\n== Convergence check: fresh information (lambda={FRESH_LAMBDA}) vs ODE limits ==");
    let mut failure = None;
    for ((label, _, limit), runs) in anchors.iter().zip(fresh.chunks(SIZES.len())) {
        let mut errs = Vec::new();
        for (&n, r) in SIZES.iter().zip(runs) {
            let err = (r.summary.mean - limit).abs() / limit;
            println!(
                "  {label} n={n}: mean {:.4} vs ODE {limit:.4} (rel err {:.2}%)",
                r.summary.mean,
                err * 100.0
            );
            errs.push(err);
        }
        let (first, last) = (errs[0], errs[errs.len() - 1]);
        if failure.is_some() {
            continue;
        }
        if last > ODE_TOL {
            failure = Some(format!(
                "{label} off by {:.2}% at n={} (tol {:.0}%)",
                last * 100.0,
                SIZES[SIZES.len() - 1],
                ODE_TOL * 100.0
            ));
        } else if last > first + ODE_TOL {
            failure = Some(format!(
                "{label} error grew with n ({:.2}% -> {:.2}%)",
                first * 100.0,
                last * 100.0
            ));
        }
    }
    let convergence = Check::statistical(
        "convergence",
        failure.is_none(),
        failure.unwrap_or_else(|| "fresh-information means meet their n -> infinity limits".into()),
    );
    Ok(vec![differential, convergence])
}
