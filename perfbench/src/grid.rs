//! The three workloads' experiment grids, generated from the workload
//! seed alone.
//!
//! Each grid is a scaled-down cold reproduction of the figures it stands
//! for: the same cluster sizes, loads, information models and policies,
//! with the T range thinned and trials sized so that one pass (a
//! *session*) takes a few seconds on two workers. Every point's master
//! seed derives from the workload seed, so one seed always yields the
//! same grid and the same trajectories.

use staleload_core::{clients_for_mean_age, ArrivalSpec, EngineMode, Experiment, FaultSpec};
use staleload_core::{RetrySpec, SimConfig};
use staleload_info::{AgeKnowledge, DelaySpec, InfoSpec};
use staleload_policies::PolicySpec;
use staleload_sim::Dist;
use staleload_workloads::BurstConfig;

/// The paper's cluster: n = 100 at λ = 0.9.
const N: usize = 100;
const LAMBDA: f64 = 0.9;

/// Periodic-board sweep: the figures' T range (0.1–50), thinned.
const PERIODIC_T: [f64; 4] = [0.25, 2.0, 10.0, 50.0];
const PARETO_T: [f64; 3] = [1.0, 10.0, 50.0];
const PERIODIC_ARRIVALS: u64 = 30_000;
const PERIODIC_TRIALS: usize = 2;
const PARETO_TRIALS: usize = 3;
/// Bounded-Pareto panel load (Figs. 10b and 11).
const PARETO_LAMBDA: f64 = 0.7;

/// The extension benches' cluster size.
const EXT_N: usize = 16;

/// Delayed-view sweep: continuous-update delays and update-on-access ages.
const CONTINUOUS_T: [f64; 2] = [1.0, 10.0];
const CONTINUOUS_ARRIVALS: u64 = 10_000;
const UOA_T: [f64; 2] = [2.0, 16.0];
const BURSTY_T: [f64; 2] = [4.0, 16.0];
const DELAYED_TRIALS: usize = 2;
/// Each update-on-access client issues at least this many jobs.
const MIN_JOBS_PER_CLIENT: u64 = 10;

/// Mean-field sizes and board periods.
const MF_SMALL: usize = 65_536;
const MF_LARGE: usize = 1_000_000;
/// Board epochs each periodic population run is sized to span after its
/// warm-up; the output check demands at least [`MIN_EPOCHS`].
const MF_TARGET_EPOCHS: f64 = 4.0;
/// Smallest number of post-warm-up board epochs a periodic `meanfield`
/// run may span and still count as a steady-state measurement.
pub const MIN_EPOCHS: u64 = 3;
/// Fresh-information anchors (as in `ext_meanfield`): λ = 0.6, half the
/// run discarded, so the window sits past the empty-start transient.
const FRESH_LAMBDA: f64 = 0.6;
const FRESH_ARRIVALS_PER_SERVER: u64 = 60;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs. 2–5 and 10–14 plus the extension benches' n = 16 points.
    PeriodicSweep,
    /// Figs. 6–9: history-backed and update-on-access views.
    DelayedViewSweep,
    /// The population engine at n ∈ {65536, 10^6}.
    Meanfield,
}

/// One figure panel: a batch handed to `SweepRunner::run_batch`.
#[derive(Debug, Clone)]
pub struct Panel {
    pub name: &'static str,
    pub points: Vec<Experiment>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PeriodicSweep,
        Workload::DelayedViewSweep,
        Workload::Meanfield,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PeriodicSweep => "periodic-sweep",
            Workload::DelayedViewSweep => "delayed-view-sweep",
            Workload::Meanfield => "meanfield",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's panels for `seed`: a pure function of its inputs.
    pub fn grid(self, seed: u64) -> Vec<Panel> {
        let mut seeds = SeedStream(seed ^ 0x005E_ED0F_B3AC);
        match self {
            Workload::PeriodicSweep => periodic_sweep(&mut seeds),
            Workload::DelayedViewSweep => delayed_view_sweep(&mut seeds),
            Workload::Meanfield => meanfield(&mut seeds),
        }
    }
}

/// SplitMix64: one master seed per point, in grid order.
struct SeedStream(u64);

impl SeedStream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn config(seeds: &mut SeedStream, servers: usize, lambda: f64, arrivals: u64) -> SimConfig {
    SimConfig::builder()
        .servers(servers)
        .lambda(lambda)
        .arrivals(arrivals)
        .seed(seeds.next())
        .build()
}

/// The standard line-up of the periodic figures.
fn standard_policies(lambda: f64) -> Vec<PolicySpec> {
    vec![
        PolicySpec::Random,
        PolicySpec::KSubset { k: 2 },
        PolicySpec::Greedy,
        PolicySpec::BasicLi { lambda },
        PolicySpec::AggressiveLi { lambda },
        PolicySpec::LiSubset { k: 3, lambda },
    ]
}

fn periodic_panel(
    seeds: &mut SeedStream,
    name: &'static str,
    lambda: f64,
    service: Dist,
    ts: &[f64],
    policies: &[PolicySpec],
    trials: usize,
) -> Panel {
    let mut points = Vec::new();
    for policy in policies {
        for &t in ts {
            let mut cfg = config(seeds, N, lambda, PERIODIC_ARRIVALS);
            cfg.service = service;
            points.push(Experiment::new(
                cfg,
                ArrivalSpec::Poisson,
                InfoSpec::Periodic { period: t },
                policy.clone(),
                trials,
            ));
        }
    }
    Panel { name, points }
}

fn periodic_sweep(seeds: &mut SeedStream) -> Vec<Panel> {
    let exp = Dist::exponential(1.0);
    let pareto = Dist::bounded_pareto_with_mean(1.1, 100.0, 1.0)
        .expect("alpha 1.1, max 100x mean is a valid Bounded Pareto");
    let pareto_policies: Vec<PolicySpec> = vec![
        PolicySpec::Random,
        PolicySpec::KSubset { k: 2 },
        PolicySpec::Greedy,
        PolicySpec::BasicLi {
            lambda: PARETO_LAMBDA,
        },
        PolicySpec::AggressiveLi {
            lambda: PARETO_LAMBDA,
        },
    ];
    vec![
        periodic_panel(
            seeds,
            "fig02",
            LAMBDA,
            exp,
            &PERIODIC_T,
            &standard_policies(LAMBDA),
            PERIODIC_TRIALS,
        ),
        periodic_panel(
            seeds,
            "fig03",
            0.5,
            exp,
            &PERIODIC_T,
            &standard_policies(0.5),
            PERIODIC_TRIALS,
        ),
        periodic_panel(
            seeds,
            "fig11",
            PARETO_LAMBDA,
            pareto,
            &PARETO_T,
            &pareto_policies,
            PARETO_TRIALS,
        ),
        extension_panel(seeds),
    ]
}

/// The extension benches' n = 16 points: the only traffic through the
/// engine's fault and overload paths.
fn extension_panel(seeds: &mut SeedStream) -> Panel {
    let li = |lambda| PolicySpec::BasicLi { lambda };
    let periodic = InfoSpec::Periodic { period: 10.0 };
    let mut point =
        |lambda: f64, info: InfoSpec, policy: PolicySpec, edit: &dyn Fn(&mut SimConfig)| {
            let mut cfg = config(seeds, EXT_N, lambda, PERIODIC_ARRIVALS);
            edit(&mut cfg);
            Experiment::new(cfg, ArrivalSpec::Poisson, info, policy, PERIODIC_TRIALS)
        };
    let points = vec![
        // degradation: server crashes (stall mode) and dropped updates.
        point(LAMBDA, periodic, li(LAMBDA), &|c| {
            c.faults = FaultSpec::crash(300.0, 40.0);
        }),
        point(LAMBDA, periodic, li(LAMBDA), &|c| {
            c.faults = FaultSpec::drop(0.5);
        }),
        // ext_resilience: view partitions against hedged Basic LI.
        point(
            0.6,
            periodic,
            PolicySpec::Hedged {
                h: 2,
                inner: Box::new(li(0.6)),
            },
            &|c| c.faults = FaultSpec::partition(50.0, 25.0, 0.25),
        ),
        // overload: bounded queues, deadlines and the retry orbit. About
        // 1% of attempts are rejected and 4% renege; the retry budget is
        // deep enough that no job is abandoned, so every generated job
        // completes.
        point(LAMBDA, periodic, li(LAMBDA), &|c| {
            c.queue_cap = Some(12);
            c.deadline = Some(8.0);
            c.retry = Some(RetrySpec {
                max_attempts: 30,
                base: 1.0,
                cap: 30.0,
            });
        }),
        // ext_tail: the EWMA board.
        point(
            LAMBDA,
            InfoSpec::Ewma {
                period: 10.0,
                alpha: 0.3,
            },
            li(LAMBDA),
            &|_| {},
        ),
    ];
    Panel {
        name: "ext_n16",
        points,
    }
}

fn delayed_view_sweep(seeds: &mut SeedStream) -> Vec<Panel> {
    let policies = [
        PolicySpec::KSubset { k: 2 },
        PolicySpec::BasicLi { lambda: LAMBDA },
        PolicySpec::AggressiveLi { lambda: LAMBDA },
    ];
    // Figs. 6a, 6c, 6d and 7c: constant, uniform and exponential delays,
    // with the mean or the actual age known.
    type Delay = (fn(f64) -> DelaySpec, AgeKnowledge);
    let delays: [Delay; 4] = [
        (|t| DelaySpec::Constant { mean: t }, AgeKnowledge::MeanOnly),
        (
            |t| DelaySpec::UniformWide { mean: t },
            AgeKnowledge::MeanOnly,
        ),
        (
            |t| DelaySpec::Exponential { mean: t },
            AgeKnowledge::MeanOnly,
        ),
        (|t| DelaySpec::Exponential { mean: t }, AgeKnowledge::Actual),
    ];
    let mut continuous = Vec::new();
    for (i, (delay, knowledge)) in delays.into_iter().enumerate() {
        for &t in &CONTINUOUS_T {
            // Random ignores the view but still pays for it; one Random
            // row (Fig. 6a) anchors the M/M/1 check.
            let line_up: Vec<PolicySpec> = if i == 0 {
                std::iter::once(PolicySpec::Random)
                    .chain(policies.iter().cloned())
                    .collect()
            } else {
                policies.to_vec()
            };
            for policy in line_up {
                continuous.push(Experiment::new(
                    config(seeds, N, LAMBDA, CONTINUOUS_ARRIVALS),
                    ArrivalSpec::Poisson,
                    InfoSpec::Continuous {
                        delay: delay(t),
                        knowledge,
                    },
                    policy,
                    DELAYED_TRIALS,
                ));
            }
        }
    }
    let burst = BurstConfig {
        burst_len: 10,
        intra_gap_mean: 1.0,
    };
    let mut uoa = Vec::new();
    for (ts, bursty) in [(&UOA_T, false), (&BURSTY_T, true)] {
        for &t in ts {
            let clients = clients_for_mean_age(LAMBDA, N, t);
            let arrivals = CONTINUOUS_ARRIVALS.max(clients as u64 * MIN_JOBS_PER_CLIENT);
            let spec = if bursty {
                ArrivalSpec::BurstyClients { clients, burst }
            } else {
                ArrivalSpec::PoissonClients { clients }
            };
            for policy in std::iter::once(PolicySpec::Random).chain(policies.iter().cloned()) {
                uoa.push(Experiment::new(
                    config(seeds, N, LAMBDA, arrivals),
                    spec,
                    InfoSpec::UpdateOnAccess,
                    policy,
                    DELAYED_TRIALS,
                ));
            }
        }
    }
    vec![
        Panel {
            name: "fig06-07",
            points: continuous,
        },
        Panel {
            name: "fig08-09",
            points: uoa,
        },
    ]
}

/// Arrivals that make a periodic population run span
/// [`MF_TARGET_EPOCHS`] board epochs after its 10% warm-up.
fn epoch_arrivals(n: usize, period: f64) -> u64 {
    (MF_TARGET_EPOCHS * LAMBDA * n as f64 * period / 0.9).ceil() as u64
}

fn meanfield(seeds: &mut SeedStream) -> Vec<Panel> {
    let mut points = Vec::new();
    for (n, periods) in [(MF_SMALL, &[2.0, 10.0][..]), (MF_LARGE, &[2.0][..])] {
        for &t in periods {
            for policy in [
                PolicySpec::KSubset { k: 2 },
                PolicySpec::BasicLi { lambda: LAMBDA },
            ] {
                let mut cfg = config(seeds, n, LAMBDA, epoch_arrivals(n, t));
                cfg.engine = EngineMode::Population;
                points.push(Experiment::new(
                    cfg,
                    ArrivalSpec::Poisson,
                    InfoSpec::Periodic { period: t },
                    policy,
                    1,
                ));
            }
        }
    }
    for policy in [PolicySpec::Random, PolicySpec::KSubset { k: 2 }] {
        let mut cfg = config(
            seeds,
            MF_SMALL,
            FRESH_LAMBDA,
            FRESH_ARRIVALS_PER_SERVER * MF_SMALL as u64,
        );
        cfg.warmup_fraction = 0.5;
        cfg.engine = EngineMode::Population;
        points.push(Experiment::new(
            cfg,
            ArrivalSpec::Poisson,
            InfoSpec::Fresh,
            policy,
            1,
        ));
    }
    // Longest trials first, so that the pool's two workers finish the
    // batch together instead of one idling behind an n = 10^6 straggler.
    points.sort_by_key(|e| std::cmp::Reverse(e.config.arrivals));
    vec![Panel {
        name: "ext_meanfield",
        points,
    }]
}

/// Whether the per-server engine runs `exp` without faults, overload
/// controls, work stealing or hedging — the trials the engine replay can
/// reproduce call for call.
pub fn is_clean(exp: &Experiment) -> bool {
    let c = &exp.config;
    let f = &c.faults;
    c.engine == EngineMode::PerServer
        && c.scheduler == staleload_sim::SchedulerKind::Heap
        && f.crash.is_none()
        && f.loss.is_none()
        && f.partition.is_none()
        && f.churn.is_none()
        && f.corrupt.is_none()
        && c.queue_cap.is_none()
        && c.deadline.is_none()
        && c.retry.is_none()
        && c.work_stealing.is_none()
        && c.capacities.is_none()
        && exp.policy.split_hedged().0.is_none()
}

/// Jobs a point generates over all its trials.
pub fn point_jobs(exp: &Experiment) -> u64 {
    exp.config.arrivals * exp.trials as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64) -> Vec<String> {
        Workload::ALL
            .into_iter()
            .flat_map(|w| w.grid(seed))
            .flat_map(|p| p.points)
            .map(|e| format!("{e:?}"))
            .collect()
    }

    #[test]
    fn grid_is_a_pure_function_of_the_seed() {
        assert_eq!(keys(7), keys(7));
        assert_ne!(keys(7), keys(8));
        // Only the seeds move with the workload seed, never the shape.
        let strip = |seed| -> Vec<(usize, u64, usize)> {
            Workload::ALL
                .into_iter()
                .flat_map(|w| w.grid(seed))
                .flat_map(|p| p.points)
                .map(|e| (e.config.servers, e.config.arrivals, e.trials))
                .collect()
        };
        assert_eq!(strip(7), strip(8));
    }

    #[test]
    fn grid_generation_writes_nothing_under_results() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("results");
        let snapshot = || -> Vec<(std::path::PathBuf, Option<std::time::SystemTime>)> {
            let mut entries: Vec<_> = std::fs::read_dir(&results)
                .map(|d| {
                    d.flatten()
                        .map(|e| (e.path(), e.metadata().and_then(|m| m.modified()).ok()))
                        .collect()
                })
                .unwrap_or_default();
            entries.sort();
            entries
        };
        let before = snapshot();
        for w in Workload::ALL {
            let panels = w.grid(42);
            assert!(panels.iter().all(|p| !p.points.is_empty()));
        }
        assert_eq!(before, snapshot());
    }

    #[test]
    fn every_point_of_a_workload_has_its_own_seed() {
        for w in Workload::ALL {
            let mut seeds: Vec<u64> = w
                .grid(1)
                .into_iter()
                .flat_map(|p| p.points)
                .map(|e| e.config.seed)
                .collect();
            let total = seeds.len();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), total, "{}", w.name());
        }
    }

    #[test]
    fn periodic_meanfield_points_span_the_minimum_epochs() {
        for exp in Workload::Meanfield.grid(3).remove(0).points {
            if let InfoSpec::Periodic { period } = exp.info {
                let c = &exp.config;
                let window = (c.arrivals - c.warmup_jobs()) as f64 / c.total_rate();
                assert!(window / period >= MIN_EPOCHS as f64 + 0.5, "{exp:?}");
            }
        }
    }

    #[test]
    fn extension_points_are_a_minority_of_periodic_jobs() {
        let panels = Workload::PeriodicSweep.grid(5);
        let total: u64 = panels.iter().flat_map(|p| &p.points).map(point_jobs).sum();
        let ext: u64 = panels
            .iter()
            .filter(|p| p.name == "ext_n16")
            .flat_map(|p| &p.points)
            .map(point_jobs)
            .sum();
        assert!(ext * 10 < total, "{ext} of {total}");
        assert!(panels
            .iter()
            .filter(|p| p.name == "ext_n16")
            .flat_map(|p| &p.points)
            .all(|e| e.config.servers == EXT_N));
    }
}
