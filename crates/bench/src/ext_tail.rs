//! Tail latency under stale information: p50/p99/p999 response time as
//! the board's refresh period grows, across load estimators and
//! policies.
//!
//! One sweep at n = 16, lambda = 0.9: refresh period T in {2, 10, 40}
//! crossed with three load estimators — `snapshot` (the paper's periodic
//! board, raw queue lengths), `ewma` (exponentially weighted moving
//! average, alpha = 0.3), and `multi-horizon` (equal-weight blend of
//! moving averages over T/3T/7T look-backs) — and four policies:
//! `random` (immune: never reads the board), `basic-li`, `gated
//! basic-li` (staleness cutoff 0.15 T), and `hedged basic-li` (best pick
//! plus one replica, first completion wins).
//!
//! The paper's Figure-style results report *means*; the claim probed
//! here is that means understate the damage: stale boards hurt the tail
//! of the distribution more than its center, because the herd effect
//! produces rare-but-deep pile-ups rather than a uniform slowdown.
//!
//! Percentiles come from the experiment's merged tail sketch
//! ([`staleload_core::ExperimentResult::tail`]) — every warm job of
//! every trial, not a single representative run — so the numbers are
//! bit-identical regardless of worker count or cache state.
//!
//! Results go to one long-form CSV (`results/ext_tail.csv`). Checks:
//! percentile ordering (p50 <= p99 <= p999 <= max) holds in every cell
//! (`ordering`, structural), and for at least one LI configuration the
//! p99 degradation ratio (stalest T over freshest T) strictly exceeds
//! the mean degradation ratio (`tail`, statistical).

use staleload_core::{ArrivalSpec, Experiment, SimConfig};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;

use crate::{publish, row, run_cells, table, Check, Outcome, Scale};

const N: usize = 16;
/// High load: the regime where the herd effect digs the deepest queues,
/// so the mean-vs-tail gap is most visible.
const LAMBDA: f64 = 0.9;
const SEED: u64 = 0x7A11;
/// Refresh periods from near-fresh to badly stale (in mean service
/// times). The `tail` check's ratios compare the two endpoints.
const PERIODS: [f64; 3] = [2.0, 10.0, 40.0];
/// EWMA weight on the newest sample: smooths over ~3 refresh periods.
const ALPHA: f64 = 0.3;
/// Hedge factor: primary pick plus one replica.
const HEDGE: u32 = 2;

fn estimators(t: f64) -> Vec<(&'static str, InfoSpec)> {
    vec![
        ("snapshot", InfoSpec::Periodic { period: t }),
        (
            "ewma",
            InfoSpec::Ewma {
                period: t,
                alpha: ALPHA,
            },
        ),
        (
            "multi-horizon",
            InfoSpec::MultiHorizon {
                period: t,
                windows: [t, 3.0 * t, 7.0 * t],
            },
        ),
    ]
}

fn policies(t: f64) -> Vec<(&'static str, PolicySpec)> {
    let naive = PolicySpec::BasicLi { lambda: LAMBDA };
    vec![
        ("random", PolicySpec::Random),
        ("basic-li", naive.clone()),
        (
            "gated basic-li",
            PolicySpec::Gated {
                // Same sub-period staleness gate the `degradation` entry
                // uses.
                cutoff: 0.15 * t,
                inner: Box::new(naive.clone()),
            },
        ),
        (
            "hedged basic-li",
            PolicySpec::Hedged {
                h: HEDGE,
                inner: Box::new(naive),
            },
        ),
    ]
}

/// The `ext_tail` entry.
pub fn run(scale: &Scale) -> Outcome {
    // Every (T, estimator, policy) cell, in CSV row order.
    let mut cells = Vec::new();
    for &t in &PERIODS {
        for (_, info) in estimators(t) {
            for (_, policy) in policies(t) {
                let cfg = SimConfig::builder()
                    .servers(N)
                    .lambda(LAMBDA)
                    .arrivals(scale.arrivals)
                    .seed(SEED)
                    .build();
                cells.push(Experiment::new(
                    cfg,
                    ArrivalSpec::Poisson,
                    info,
                    policy,
                    scale.trials,
                ));
            }
        }
    }
    let mut results = run_cells("ext_tail", &cells)?.into_iter();

    let mut csv = table([
        "x",
        "estimator",
        "policy",
        "mean",
        "ci90",
        "p50",
        "p99",
        "p999",
        "max",
        "count",
        "trials",
    ]);
    let mut headers = vec!["T".to_string(), "estimator".to_string()];
    headers.extend(
        policies(1.0)
            .iter()
            .map(|(label, _)| format!("{label} (mean | p99 | p999)")),
    );
    let mut rows = table(&headers);

    // (estimator, policy) -> [(mean, p99)] in PERIODS order, for the
    // tail check.
    type Curve = ((&'static str, &'static str), Vec<(f64, f64)>);
    let mut curves: Vec<Curve> = Vec::new();
    let mut disordered = None;
    for &t in &PERIODS {
        for (est_label, _) in estimators(t) {
            let mut cells = vec![t.to_string(), est_label.to_string()];
            for (pol_label, _) in policies(t) {
                let result = results.next().expect("one result per cell");
                let s = &result.summary;
                let tail = &result.tail;
                // Sketch quantiles are monotone in rank by construction;
                // a violation means the ingest/merge path is broken.
                let ordered = tail.count > 0
                    && tail.p50 <= tail.p99
                    && tail.p99 <= tail.p999
                    && tail.p999 <= tail.max;
                if !ordered && disordered.is_none() {
                    disordered = Some(format!(
                        "{est_label}/{pol_label} at T={t}: p50={} p99={} p999={} max={} count={}",
                        tail.p50, tail.p99, tail.p999, tail.max, tail.count
                    ));
                }
                cells.push(format!(
                    "{:.2} | {:.2} | {:.2}",
                    s.mean, tail.p99, tail.p999
                ));
                csv.push_row(row(&[
                    &t,
                    &est_label,
                    &pol_label,
                    &s.mean,
                    &s.ci90,
                    &tail.p50,
                    &tail.p99,
                    &tail.p999,
                    &tail.max,
                    &tail.count,
                    &s.trials,
                ]));
                match curves
                    .iter_mut()
                    .find(|(k, _)| *k == (est_label, pol_label))
                {
                    Some((_, pts)) => pts.push((s.mean, tail.p99)),
                    None => curves.push(((est_label, pol_label), vec![(s.mean, tail.p99)])),
                }
            }
            rows.push_row(cells);
        }
    }
    publish(
        "ext_tail",
        &format!("Tail latency under staleness, n={N}, lambda={LAMBDA}"),
        &rows,
        &csv,
    )?;
    let ordering = Check::structural(
        "ordering",
        disordered.is_none(),
        disordered.unwrap_or_else(|| "p50 <= p99 <= p999 <= max in every cell".into()),
    );

    // Staleness must injure the tail *more* than the mean for at least
    // one LI configuration — the degradation ratio from the freshest to
    // the stalest T, p99 vs mean. Random never reads the board, so it is
    // excluded (its ratios hover at 1 and would neither pass nor
    // inform).
    let mut passed = false;
    for ((est, pol), pts) in &curves {
        if *pol == "random" {
            continue;
        }
        let (mean_fresh, p99_fresh) = pts[0];
        let (mean_stale, p99_stale) = pts[pts.len() - 1];
        let mean_ratio = mean_stale / mean_fresh;
        let p99_ratio = p99_stale / p99_fresh;
        let verdict = if p99_ratio > mean_ratio {
            passed = true;
            "tail-dominant"
        } else {
            "mean-dominant"
        };
        println!("  {est}/{pol}: mean x{mean_ratio:.2}, p99 x{p99_ratio:.2} ({verdict})");
    }
    let tail = Check::statistical(
        "tail",
        passed,
        if passed {
            "staleness degrades p99 more than the mean for at least one LI configuration"
        } else {
            "no LI configuration shows tail-dominant degradation"
        },
    );
    Ok(vec![ordering, tail])
}
