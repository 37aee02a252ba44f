//! One function per paper figure, each a [`crate::FIGURES`] entry.
//!
//! Each function regenerates the series of the corresponding figure of
//! *Interpreting Stale Load Information* at the given [`Scale`]: the same
//! workload, parameter sweep, baselines, and rows the paper plots. Exact
//! parameter values the scanned paper lost to OCR are substituted as
//! documented in `DESIGN.md` §3. Figures carry no checks; the paper's
//! shapes are tested in `tests/paper_shapes.rs`.

use staleload_core::{clients_for_mean_age, ArrivalSpec, Experiment, SimConfig};
use staleload_info::{AgeKnowledge, DelaySpec, InfoSpec};
use staleload_policies::{rank_distribution, PolicySpec};
use staleload_sim::Dist;
use staleload_workloads::BurstConfig;

use crate::{publish, run_sweep, table, CellStyle, Outcome, Scale, Series};

/// Paper defaults: n = 100, λ = 0.9.
const N: usize = 100;
const LAMBDA: f64 = 0.9;

/// The update-delay sweep used by the periodic-model figures
/// (x axis of Figs. 2–5, 10–12; spans the paper's fresh-to-very-stale
/// range, with the dense low end of Fig. 2b).
pub fn t_sweep_periodic() -> Vec<f64> {
    vec![
        0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0,
    ]
}

/// Delay sweep for the continuous-update figures (history-backed, costlier).
pub fn t_sweep_continuous() -> Vec<f64> {
    vec![0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0]
}

/// Mean inter-request sweep for the update-on-access figures.
pub fn t_sweep_uoa() -> Vec<f64> {
    vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
}

fn base_config(_scale: &Scale, seed: u64, lambda: f64, servers: usize, arrivals: u64) -> SimConfig {
    SimConfig::builder()
        .servers(servers)
        .lambda(lambda)
        .arrivals(arrivals)
        .seed(seed)
        .build()
}

/// The standard policy line-up of the periodic/update-on-access figures.
fn standard_policies(lambda: f64) -> Vec<PolicySpec> {
    vec![
        PolicySpec::Random,
        PolicySpec::KSubset { k: 2 },
        PolicySpec::KSubset { k: 3 },
        PolicySpec::KSubset { k: 10 },
        PolicySpec::Greedy,
        PolicySpec::BasicLi { lambda },
        PolicySpec::AggressiveLi { lambda },
    ]
}

fn periodic_series<'a>(
    scale: &'a Scale,
    seed: u64,
    lambda: f64,
    servers: usize,
    policies: Vec<PolicySpec>,
    service: Dist,
    trials: usize,
) -> Vec<Series<'a>> {
    policies
        .into_iter()
        .map(move |p| {
            let service = service;
            Series::new(p.label(), move |t| {
                let mut cfg = base_config(scale, seed, lambda, servers, scale.arrivals);
                cfg.service = service;
                Experiment::new(
                    cfg,
                    ArrivalSpec::Poisson,
                    InfoSpec::Periodic { period: t },
                    p.clone(),
                    trials,
                )
            })
        })
        .collect()
}

/// **Figure 1** — the analytic request distribution of the k-subset policy
/// by server rank (Eq. 1), n = 100, k ∈ {1, 2, 3, 5, 10, 20, 100}.
pub fn fig01(_scale: &Scale) -> Outcome {
    let ks = [1usize, 2, 3, 5, 10, 20, 100];
    let dists: Vec<Vec<f64>> = ks.iter().map(|&k| rank_distribution(N, k)).collect();

    let mut headers = vec!["rank".to_string()];
    headers.extend(ks.iter().map(|k| format!("k={k}")));
    let mut rows = table(&headers);
    let mut csv = table(&headers);
    for rank in 0..N {
        let mut row = vec![format!("{rank}")];
        row.extend(dists.iter().map(|d| format!("{:.5}", d[rank])));
        csv.push_row(row.clone());
        // Keep the printed table readable: dense head, sparse tail.
        if rank < 12 || rank % 10 == 0 {
            rows.push_row(row);
        }
    }
    publish(
        "fig01",
        "Fig. 1: k-subset request fraction by server rank (Eq. 1, n = 100)",
        &rows,
        &csv,
    )?;
    Ok(Vec::new())
}

/// **Figure 2** — mean response vs update period `T`, periodic model,
/// n = 100, λ = 0.9 (panels a/b are the same data at two x ranges).
pub fn fig02(scale: &Scale) -> Outcome {
    let series = periodic_series(
        scale,
        0xF02,
        LAMBDA,
        N,
        standard_policies(LAMBDA),
        Dist::exponential(1.0),
        scale.trials,
    );
    run_sweep(
        "fig02",
        "Fig. 2: periodic update, n=100, lambda=0.9",
        "T",
        &t_sweep_periodic(),
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

/// **Figure 3** — same as Fig. 2 at the lighter load λ = 0.5.
pub fn fig03(scale: &Scale) -> Outcome {
    let series = periodic_series(
        scale,
        0xF03,
        0.5,
        N,
        standard_policies(0.5),
        Dist::exponential(1.0),
        scale.trials,
    );
    run_sweep(
        "fig03",
        "Fig. 3: periodic update, n=100, lambda=0.5",
        "T",
        &t_sweep_periodic(),
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

/// **Figure 4** — same as Fig. 2 with a different cluster size (n = 8; the
/// paper's exact value was lost to OCR, see DESIGN.md).
pub fn fig04(scale: &Scale) -> Outcome {
    let series = periodic_series(
        scale,
        0xF04,
        LAMBDA,
        8,
        standard_policies(LAMBDA),
        Dist::exponential(1.0),
        scale.trials,
    );
    run_sweep(
        "fig04",
        "Fig. 4: periodic update, n=8, lambda=0.9",
        "T",
        &t_sweep_periodic(),
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

/// **Figure 5** — the threshold policy across thresholds, with the k = 2
/// and k = 10 subset curves and the LI curves for comparison.
pub fn fig05(scale: &Scale) -> Outcome {
    let mut policies: Vec<PolicySpec> = [0u32, 1, 4, 8, 16, 24, 32, 40]
        .iter()
        .map(|&t| PolicySpec::Threshold { threshold: t })
        .collect();
    policies.push(PolicySpec::KSubset { k: 2 });
    policies.push(PolicySpec::KSubset { k: 10 });
    policies.push(PolicySpec::BasicLi { lambda: LAMBDA });
    policies.push(PolicySpec::AggressiveLi { lambda: LAMBDA });
    let series = periodic_series(
        scale,
        0xF05,
        LAMBDA,
        N,
        policies,
        Dist::exponential(1.0),
        scale.trials,
    );
    run_sweep(
        "fig05",
        "Fig. 5: threshold policy vs k-subset and LI, periodic, n=100, lambda=0.9",
        "T",
        &t_sweep_periodic(),
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

fn continuous_panel(
    scale: &Scale,
    name: &str,
    title: &str,
    seed: u64,
    delay_of: impl Fn(f64) -> DelaySpec + Copy,
    knowledge: AgeKnowledge,
    policies: Vec<PolicySpec>,
) -> Result<(), String> {
    let series: Vec<Series<'_>> = policies
        .into_iter()
        .map(|p| {
            Series::new(p.label(), move |t| {
                let cfg = base_config(scale, seed, LAMBDA, N, scale.continuous_arrivals);
                Experiment::new(
                    cfg,
                    ArrivalSpec::Poisson,
                    InfoSpec::Continuous {
                        delay: delay_of(t),
                        knowledge,
                    },
                    p.clone(),
                    scale.trials,
                )
            })
        })
        .collect();
    run_sweep(
        name,
        title,
        "T",
        &t_sweep_continuous(),
        &series,
        CellStyle::MeanCi,
    )
}

fn continuous_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Random,
        PolicySpec::KSubset { k: 2 },
        PolicySpec::KSubset { k: 3 },
        PolicySpec::BasicLi { lambda: LAMBDA },
        PolicySpec::AggressiveLi { lambda: LAMBDA },
    ]
}

/// **Figure 6** — continuous update where clients know only the *mean*
/// delay; four delay distributions of increasing variance.
#[allow(clippy::type_complexity)] // panel table: (name, title, delay builder)
pub fn fig06(scale: &Scale) -> Outcome {
    let panels: [(&str, &str, fn(f64) -> DelaySpec); 4] = [
        (
            "fig06a",
            "Fig. 6a: continuous, constant delay, mean known",
            |t| DelaySpec::Constant { mean: t },
        ),
        (
            "fig06b",
            "Fig. 6b: continuous, uniform(T/2,3T/2) delay, mean known",
            |t| DelaySpec::UniformNarrow { mean: t },
        ),
        (
            "fig06c",
            "Fig. 6c: continuous, uniform(0,2T) delay, mean known",
            |t| DelaySpec::UniformWide { mean: t },
        ),
        (
            "fig06d",
            "Fig. 6d: continuous, exponential delay, mean known",
            |t| DelaySpec::Exponential { mean: t },
        ),
    ];
    for (i, (name, title, delay)) in panels.into_iter().enumerate() {
        continuous_panel(
            scale,
            name,
            title,
            0xF06 + i as u64,
            delay,
            AgeKnowledge::MeanOnly,
            continuous_policies(),
        )?;
    }
    Ok(Vec::new())
}

/// **Figure 7** — continuous update where clients know the *actual*
/// per-request delay; the three non-constant distributions.
#[allow(clippy::type_complexity)] // panel table: (name, title, delay builder)
pub fn fig07(scale: &Scale) -> Outcome {
    let panels: [(&str, &str, fn(f64) -> DelaySpec); 3] = [
        (
            "fig07a",
            "Fig. 7a: continuous, uniform(T/2,3T/2) delay, age known",
            |t| DelaySpec::UniformNarrow { mean: t },
        ),
        (
            "fig07b",
            "Fig. 7b: continuous, uniform(0,2T) delay, age known",
            |t| DelaySpec::UniformWide { mean: t },
        ),
        (
            "fig07c",
            "Fig. 7c: continuous, exponential delay, age known",
            |t| DelaySpec::Exponential { mean: t },
        ),
    ];
    for (i, (name, title, delay)) in panels.into_iter().enumerate() {
        continuous_panel(
            scale,
            name,
            title,
            0xF07 + i as u64,
            delay,
            AgeKnowledge::Actual,
            continuous_policies(),
        )?;
    }
    Ok(Vec::new())
}

fn uoa_series<'a>(
    scale: &'a Scale,
    seed: u64,
    policies: Vec<PolicySpec>,
    burst: Option<BurstConfig>,
) -> Vec<Series<'a>> {
    policies
        .into_iter()
        .map(move |p| {
            Series::new(p.label(), move |t| {
                let clients = clients_for_mean_age(LAMBDA, N, t);
                let arrivals = scale.arrivals_for_clients(clients);
                let cfg = base_config(scale, seed, LAMBDA, N, arrivals);
                let arrivals_spec = match burst {
                    None => ArrivalSpec::PoissonClients { clients },
                    Some(b) => ArrivalSpec::BurstyClients { clients, burst: b },
                };
                Experiment::new(
                    cfg,
                    arrivals_spec,
                    InfoSpec::UpdateOnAccess,
                    p.clone(),
                    scale.trials,
                )
            })
        })
        .collect()
}

/// **Figure 8** — the update-on-access model: each client's view comes from
/// its previous request; mean age = per-client inter-request time.
pub fn fig08(scale: &Scale) -> Outcome {
    let series = uoa_series(scale, 0xF08, standard_policies(LAMBDA), None);
    run_sweep(
        "fig08",
        "Fig. 8: update-on-access, n=100, lambda=0.9",
        "T",
        &t_sweep_uoa(),
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

/// **Figure 9** — update-on-access with *bursty* clients (bursts of 10
/// requests, intra-burst gaps Exponential(1); paper's burst constants lost
/// to OCR, see DESIGN.md).
pub fn fig09(scale: &Scale) -> Outcome {
    let burst = BurstConfig {
        burst_len: 10,
        intra_gap_mean: 1.0,
    };
    let series = uoa_series(scale, 0xF09, standard_policies(LAMBDA), Some(burst));
    // T must exceed (B-1)/B * intra gap; the sweep starts at 2.
    let xs: Vec<f64> = t_sweep_uoa().into_iter().filter(|&t| t >= 2.0).collect();
    run_sweep(
        "fig09",
        "Fig. 9: update-on-access, bursty clients (B=10, intra gap 1), n=100, lambda=0.9",
        "T",
        &xs,
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

fn pareto_policies(lambda: f64) -> Vec<PolicySpec> {
    vec![
        PolicySpec::Random,
        PolicySpec::KSubset { k: 2 },
        PolicySpec::Greedy,
        PolicySpec::BasicLi { lambda },
        PolicySpec::AggressiveLi { lambda },
    ]
}

fn pareto_panel(
    scale: &Scale,
    name: &str,
    title: &str,
    seed: u64,
    lambda: f64,
    max_ratio: f64,
) -> Result<(), String> {
    let service = Dist::bounded_pareto_with_mean(1.1, max_ratio, 1.0)
        .expect("valid Bounded Pareto parameters");
    let series: Vec<Series<'_>> = pareto_policies(lambda)
        .into_iter()
        .map(|p| {
            Series::new(p.label(), move |t| {
                let mut cfg = base_config(scale, seed, lambda, N, scale.arrivals);
                cfg.service = service;
                Experiment::new(
                    cfg,
                    ArrivalSpec::Poisson,
                    InfoSpec::Periodic { period: t },
                    p.clone(),
                    scale.pareto_trials,
                )
            })
        })
        .collect();
    let xs = [1.0, 4.0, 10.0, 20.0, 40.0];
    run_sweep(name, title, "T", &xs, &series, CellStyle::MedianQuartiles)
}

/// **Figure 10** — Bounded-Pareto job sizes (α = 1.1, max = 100× mean) at
/// three loads; medians and quartiles over many trials.
pub fn fig10(scale: &Scale) -> Outcome {
    for (i, lambda) in [0.5, 0.7, 0.9].into_iter().enumerate() {
        let name = ["fig10a", "fig10b", "fig10c"][i];
        let title = format!(
            "Fig. 10{}: Bounded Pareto (alpha=1.1, max=100x mean), lambda={lambda}",
            ["a", "b", "c"][i]
        );
        pareto_panel(scale, name, &title, 0xF10 + i as u64, lambda, 100.0)?;
    }
    Ok(Vec::new())
}

/// **Figure 11** — Bounded-Pareto with a heavier tail cap
/// (max = 1024× mean) at λ = 0.7.
pub fn fig11(scale: &Scale) -> Outcome {
    pareto_panel(
        scale,
        "fig11",
        "Fig. 11: Bounded Pareto (alpha=1.1, max=1024x mean), lambda=0.7",
        0xF11,
        0.7,
        1024.0,
    )?;
    Ok(Vec::new())
}

/// **Figure 12** — Basic LI when the client *mis-estimates* the arrival
/// rate by a factor of 1/8 … 8 (periodic, λ = 0.9).
pub fn fig12(scale: &Scale) -> Outcome {
    let mut series: Vec<Series<'_>> = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        .into_iter()
        .map(|factor| {
            Series::new(format!("Basic LI ({factor}*Load)"), move |t| {
                let cfg = base_config(scale, 0xF12, LAMBDA, N, scale.arrivals);
                Experiment::new(
                    cfg,
                    ArrivalSpec::Poisson,
                    InfoSpec::Periodic { period: t },
                    PolicySpec::BasicLi {
                        lambda: LAMBDA * factor,
                    },
                    scale.trials,
                )
            })
        })
        .collect();
    series.push(Series::new("Random (k=1)", move |t| {
        let cfg = base_config(scale, 0xF12, LAMBDA, N, scale.arrivals);
        Experiment::new(
            cfg,
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: t },
            PolicySpec::Random,
            scale.trials,
        )
    }));
    run_sweep(
        "fig12",
        "Fig. 12: Basic LI with mis-estimated lambda, periodic, n=100, lambda=0.9",
        "T",
        &t_sweep_periodic(),
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

/// **Figure 13** — response vs the *actual* arrival rate λ for T = 10,
/// comparing Basic LI with the exact λ against the conservative strategy of
/// assuming λ̂ = 1.0 (the system's maximum throughput).
pub fn fig13(scale: &Scale) -> Outcome {
    const T: f64 = 10.0;
    let lambdas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98];
    let series: Vec<Series<'_>> = vec![
        Series::new("Random (k=1)", move |lambda| {
            let cfg = base_config(scale, 0xF13, lambda, N, scale.arrivals);
            Experiment::new(
                cfg,
                ArrivalSpec::Poisson,
                InfoSpec::Periodic { period: T },
                PolicySpec::Random,
                scale.trials,
            )
        }),
        Series::new("k=2", move |lambda| {
            let cfg = base_config(scale, 0xF13, lambda, N, scale.arrivals);
            Experiment::new(
                cfg,
                ArrivalSpec::Poisson,
                InfoSpec::Periodic { period: T },
                PolicySpec::KSubset { k: 2 },
                scale.trials,
            )
        }),
        Series::new("Greedy (k=n)", move |lambda| {
            let cfg = base_config(scale, 0xF13, lambda, N, scale.arrivals);
            Experiment::new(
                cfg,
                ArrivalSpec::Poisson,
                InfoSpec::Periodic { period: T },
                PolicySpec::Greedy,
                scale.trials,
            )
        }),
        Series::new("Basic LI (actual lambda)", move |lambda| {
            let cfg = base_config(scale, 0xF13, lambda, N, scale.arrivals);
            Experiment::new(
                cfg,
                ArrivalSpec::Poisson,
                InfoSpec::Periodic { period: T },
                PolicySpec::BasicLi { lambda },
                scale.trials,
            )
        }),
        Series::new("Basic LI (assume lambda=1.0)", move |lambda| {
            let cfg = base_config(scale, 0xF13, lambda, N, scale.arrivals);
            Experiment::new(
                cfg,
                ArrivalSpec::Poisson,
                InfoSpec::Periodic { period: T },
                PolicySpec::BasicLi { lambda: 1.0 },
                scale.trials,
            )
        }),
    ];
    run_sweep(
        "fig13",
        "Fig. 13: response vs actual lambda, T=10, periodic, n=100",
        "lambda",
        &lambdas,
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}

/// **Figure 14** — LI with reduced information (LI-k) vs the standard
/// k-subset policies under (a) update-on-access, (b) continuous update with
/// fixed delay, (c) the periodic bulletin board.
pub fn fig14(scale: &Scale) -> Outcome {
    let policies = || {
        vec![
            PolicySpec::KSubset { k: 2 },
            PolicySpec::KSubset { k: 3 },
            PolicySpec::LiSubset {
                k: 2,
                lambda: LAMBDA,
            },
            PolicySpec::LiSubset {
                k: 3,
                lambda: LAMBDA,
            },
            PolicySpec::LiSubset {
                k: 10,
                lambda: LAMBDA,
            },
            PolicySpec::BasicLi { lambda: LAMBDA },
        ]
    };

    // (a) update-on-access
    let series = uoa_series(scale, 0xF14, policies(), None);
    run_sweep(
        "fig14a",
        "Fig. 14a: LI-k, update-on-access, n=100, lambda=0.9",
        "T",
        &t_sweep_uoa(),
        &series,
        CellStyle::MeanCi,
    )?;

    // (b) continuous update with fixed (constant) delay
    continuous_panel(
        scale,
        "fig14b",
        "Fig. 14b: LI-k, continuous constant delay, n=100, lambda=0.9",
        0xF14 + 1,
        |t| DelaySpec::Constant { mean: t },
        AgeKnowledge::Actual,
        policies(),
    )?;

    // (c) periodic bulletin board
    let series = periodic_series(
        scale,
        0xF14 + 2,
        LAMBDA,
        N,
        policies(),
        Dist::exponential(1.0),
        scale.trials,
    );
    run_sweep(
        "fig14c",
        "Fig. 14c: LI-k, periodic bulletin board, n=100, lambda=0.9",
        "T",
        &t_sweep_periodic(),
        &series,
        CellStyle::MeanCi,
    )?;
    Ok(Vec::new())
}
