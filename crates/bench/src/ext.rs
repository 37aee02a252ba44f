//! The extension sweeps without checks: one figure-style panel each,
//! beyond what the paper plots. Each is a [`crate::SWEEPS`] entry named
//! `ext_<function>`.

use staleload_core::{ArrivalSpec, Experiment, SimConfig};
use staleload_info::InfoSpec;
use staleload_policies::{PolicySpec, Sita};
use staleload_sim::Dist;

use crate::{run_sweep, CellStyle, Outcome, Scale, Series};

/// Heterogeneous server capacities (paper §6 future work):
/// capacity-aware vs capacity-blind policies as skew grows. Periodic
/// model (T = 4), λ = 0.75 of total capacity; x axis = capacity skew:
/// half the servers run at `1 + s`, half at `1 − s`.
#[allow(clippy::type_complexity)] // variant table: (label, policy builder)
pub fn hetero(scale: &Scale) -> Outcome {
    let lambda = 0.75;
    let n = 100usize;
    let caps_for = move |skew: f64| -> Vec<f64> {
        (0..n)
            .map(|i| if i < n / 2 { 1.0 + skew } else { 1.0 - skew })
            .collect()
    };
    let variants: Vec<(&str, fn(f64, Vec<f64>) -> PolicySpec)> = vec![
        ("Random", |_, _| PolicySpec::Random),
        ("Greedy (queue length)", |_, _| PolicySpec::Greedy),
        ("Basic LI (blind)", |lambda, _| PolicySpec::BasicLi {
            lambda,
        }),
        ("Hetero LI (aware)", |lambda, caps| PolicySpec::HeteroLi {
            lambda,
            capacities: caps,
        }),
    ];
    let series: Vec<Series<'_>> = variants
        .into_iter()
        .map(|(label, make_policy)| {
            Series::new(label, move |skew| {
                let caps = caps_for(skew);
                let mut b = SimConfig::builder();
                b.capacities(caps.clone())
                    .lambda(lambda)
                    .arrivals(scale.arrivals)
                    .seed(0xE58);
                Experiment::new(
                    b.build(),
                    ArrivalSpec::Poisson,
                    InfoSpec::Periodic { period: 4.0 },
                    make_policy(lambda, caps),
                    scale.trials,
                )
            })
        })
        .collect();
    run_sweep(
        "ext_hetero",
        "Extension: capacity skew vs policy (periodic T=4, n=100, lambda=0.75 of capacity)",
        "skew",
        &[0.0, 0.2, 0.4, 0.6],
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

/// Sender-driven LI vs receiver-driven work stealing (the mechanism the
/// paper defers in §2), alone and combined. Periodic model, n = 100,
/// λ = 0.9, T sweep.
pub fn mechanisms(scale: &Scale) -> Outcome {
    let lambda = 0.9;
    let variants: Vec<(&str, PolicySpec, bool)> = vec![
        ("Random", PolicySpec::Random, false),
        ("Random + stealing", PolicySpec::Random, true),
        ("Basic LI", PolicySpec::BasicLi { lambda }, false),
        ("Basic LI + stealing", PolicySpec::BasicLi { lambda }, true),
        ("Greedy", PolicySpec::Greedy, false),
        ("Greedy + stealing", PolicySpec::Greedy, true),
    ];
    let series: Vec<Series<'_>> = variants
        .into_iter()
        .map(|(label, policy, steal)| {
            Series::new(label, move |t| {
                let mut b = SimConfig::builder();
                b.servers(100)
                    .lambda(lambda)
                    .arrivals(scale.arrivals)
                    .seed(0xE57);
                if steal {
                    b.work_stealing(2);
                }
                Experiment::new(
                    b.build(),
                    ArrivalSpec::Poisson,
                    InfoSpec::Periodic { period: t },
                    policy.clone(),
                    scale.trials,
                )
            })
        })
        .collect();
    run_sweep(
        "ext_mechanisms",
        "Extension: sender-driven interpretation vs receiver-driven stealing (periodic, n=100, lambda=0.9)",
        "T",
        &[0.5, 2.0, 10.0, 30.0, 50.0],
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

/// Online λ̂ estimation (motivated by §5.6): Adaptive LI vs the oracle
/// estimate, the safe λ̂ = 1 strategy, and a damaging underestimate,
/// across true loads. Periodic model, T = 10, n = 100.
#[allow(clippy::type_complexity)] // variant table: (label, policy builder)
pub fn adaptive(scale: &Scale) -> Outcome {
    let variants: Vec<(&str, fn(f64) -> PolicySpec)> = vec![
        ("Basic LI (oracle)", |lambda| PolicySpec::BasicLi { lambda }),
        ("Basic LI (assume 1.0)", |_| PolicySpec::BasicLi {
            lambda: 1.0,
        }),
        ("Basic LI (lambda/4)", |lambda| PolicySpec::BasicLi {
            lambda: lambda / 4.0,
        }),
        ("Adaptive LI (EWMA)", |_| PolicySpec::AdaptiveLi {
            alpha: 0.01,
            warmup: 1000,
        }),
        ("Random", |_| PolicySpec::Random),
    ];
    let series: Vec<Series<'_>> = variants
        .into_iter()
        .map(|(label, make_policy)| {
            Series::new(label, move |lambda| {
                let mut b = SimConfig::builder();
                b.servers(100)
                    .lambda(lambda)
                    .arrivals(scale.arrivals)
                    .seed(0xE59);
                Experiment::new(
                    b.build(),
                    ArrivalSpec::Poisson,
                    InfoSpec::Periodic { period: 10.0 },
                    make_policy(lambda),
                    scale.trials,
                )
            })
        })
        .collect();
    run_sweep(
        "ext_adaptive",
        "Extension: online lambda estimation (periodic T=10, n=100)",
        "lambda",
        &[0.3, 0.5, 0.7, 0.9, 0.95],
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

/// *Individual updates* vs the periodic bulletin board. The paper omits
/// Mitzenmacher's individual-updates model, citing his finding that it
/// behaves like the periodic model; this sweep checks that claim with
/// the same policies under both models across the T sweep.
pub fn individual(scale: &Scale) -> Outcome {
    let lambda = 0.9;
    let variants: Vec<(String, PolicySpec, bool)> = [
        PolicySpec::KSubset { k: 2 },
        PolicySpec::BasicLi { lambda },
        PolicySpec::Greedy,
    ]
    .into_iter()
    .flat_map(|p| {
        [
            (format!("{} [periodic]", p.label()), p.clone(), false),
            (format!("{} [individual]", p.label()), p, true),
        ]
    })
    .collect();
    let series: Vec<Series<'_>> = variants
        .into_iter()
        .map(|(label, policy, individual)| {
            Series::new(label, move |t| {
                let mut b = SimConfig::builder();
                b.servers(100)
                    .lambda(lambda)
                    .arrivals(scale.arrivals)
                    .seed(0xE60);
                let info = if individual {
                    InfoSpec::Individual { period: t }
                } else {
                    InfoSpec::Periodic { period: t }
                };
                Experiment::new(
                    b.build(),
                    ArrivalSpec::Poisson,
                    info,
                    policy.clone(),
                    scale.trials,
                )
            })
        })
        .collect();
    run_sweep(
        "ext_individual",
        "Extension: individual updates vs periodic board (n=100, lambda=0.9)",
        "T",
        &[0.5, 2.0, 10.0, 30.0, 50.0],
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

/// Size-based assignment (SITA-E, the paper's ref. \[12\] paradigm) vs
/// load interpretation under heavy-tailed job sizes: SITA knows each
/// job's *size* but ignores load; LI knows stale *loads* but ignores
/// size. Bounded Pareto (α = 1.1, max 100×), λ = 0.7, periodic model,
/// T sweep.
pub fn sita(scale: &Scale) -> Outcome {
    let lambda = 0.7;
    let n = 100usize;
    let service = Dist::bounded_pareto_with_mean(1.1, 100.0, 1.0)
        .map_err(|e| format!("Bounded Pareto parameters: {e}"))?;
    let sita = PolicySpec::Sita {
        boundaries: Sita::equal_load(&service, n).boundaries().to_vec(),
    };
    let variants: Vec<(&str, PolicySpec)> = vec![
        ("Random", PolicySpec::Random),
        ("Greedy", PolicySpec::Greedy),
        ("Basic LI", PolicySpec::BasicLi { lambda }),
        ("SITA-E (size-based)", sita),
    ];
    let series: Vec<Series<'_>> = variants
        .into_iter()
        .map(|(label, policy)| {
            Series::new(label, move |t| {
                let mut b = SimConfig::builder();
                b.servers(n)
                    .lambda(lambda)
                    .arrivals(scale.arrivals)
                    .service(service)
                    .seed(0xE61);
                Experiment::new(
                    b.build(),
                    ArrivalSpec::Poisson,
                    InfoSpec::Periodic { period: t },
                    policy.clone(),
                    scale.pareto_trials,
                )
            })
        })
        .collect();
    run_sweep(
        "ext_sita",
        "Extension: SITA-E vs LI under Bounded Pareto (alpha=1.1, max=100x, lambda=0.7, n=100)",
        "T",
        &[1.0, 10.0, 40.0],
        &series,
        CellStyle::MedianQuartiles,
    )?;
    Ok(Vec::new())
}

/// Aggregate arrival burstiness (MMPP-2). The paper's finding (1) says
/// LI "remains robust to stale information and retains good performance
/// when arrival patterns are bursty"; its §5.4 tests per-client
/// burstiness under update-on-access. This sweep stresses the
/// *aggregate* arrival process instead — flash-crowd style rate
/// modulation under the periodic board.
pub fn mmpp(scale: &Scale) -> Outcome {
    // λ and the modulation are chosen so the high phase stays *stable*
    // (high-phase rate = λ·n·r/(1−p+p·r) = 96 < n): a genuine stress test
    // of interpretation, not a capacity-overload test no policy can win.
    let lambda = 0.6;
    let policies = [
        PolicySpec::Random,
        PolicySpec::KSubset { k: 2 },
        PolicySpec::BasicLi { lambda },
        PolicySpec::AggressiveLi { lambda },
    ];
    let variants: Vec<(String, PolicySpec, bool)> = policies
        .into_iter()
        .flat_map(|p| {
            [
                (format!("{} [poisson]", p.label()), p.clone(), false),
                (format!("{} [mmpp 2x]", p.label()), p, true),
            ]
        })
        .collect();
    let series: Vec<Series<'_>> = variants
        .into_iter()
        .map(|(label, policy, mmpp)| {
            Series::new(label, move |t| {
                let mut b = SimConfig::builder();
                b.servers(100)
                    .lambda(lambda)
                    .arrivals(scale.arrivals)
                    .seed(0xE62);
                let arrivals = if mmpp {
                    ArrivalSpec::Mmpp {
                        rate_ratio: 2.0,
                        high_fraction: 0.25,
                        cycle_mean: 50.0,
                    }
                } else {
                    ArrivalSpec::Poisson
                };
                Experiment::new(
                    b.build(),
                    arrivals,
                    InfoSpec::Periodic { period: t },
                    policy.clone(),
                    scale.trials,
                )
            })
        })
        .collect();
    run_sweep(
        "ext_mmpp",
        "Extension: aggregate burstiness (MMPP-2, 2x rate in 25% of time) vs Poisson (periodic, n=100, lambda=0.6)",
        "T",
        &[1.0, 10.0, 30.0],
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}
