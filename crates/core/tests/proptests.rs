//! Engine-level property tests: for arbitrary valid configurations, every
//! (arrival spec, info model, policy) combination upholds the simulator's
//! invariants.

// Proptest closures sit outside #[test] fns, so clippy's
// allow-unwrap-in-tests does not reach them; the whole file is a test.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use staleload_core::{run_simulation, ArrivalSpec, FaultSpec, RetrySpec, SimConfig};
use staleload_info::{AgeKnowledge, DelaySpec, InfoSpec};
use staleload_policies::PolicySpec;
use staleload_sim::Dist;

fn arb_policy() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::Random),
        (1usize..20).prop_map(|k| PolicySpec::KSubset { k }),
        Just(PolicySpec::Greedy),
        (0u32..10).prop_map(|threshold| PolicySpec::Threshold { threshold }),
        (0.1f64..1.5).prop_map(|lambda| PolicySpec::BasicLi { lambda }),
        (0.1f64..1.5).prop_map(|lambda| PolicySpec::AggressiveLi { lambda }),
        (0.1f64..1.5).prop_map(|lambda| PolicySpec::HybridLi { lambda }),
        (1usize..8, 0.1f64..1.5).prop_map(|(k, lambda)| PolicySpec::LiSubset { k, lambda }),
        (0.5f64..20.0).prop_map(|tau| PolicySpec::WeightedDecay { tau }),
        Just(PolicySpec::AdaptiveLi {
            alpha: 0.05,
            warmup: 50
        }),
    ]
}

fn arb_info() -> impl Strategy<Value = InfoSpec> {
    prop_oneof![
        Just(InfoSpec::Fresh),
        (0.1f64..20.0).prop_map(|period| InfoSpec::Periodic { period }),
        (0.1f64..5.0).prop_map(|mean| InfoSpec::Continuous {
            delay: DelaySpec::Exponential { mean },
            knowledge: AgeKnowledge::Actual,
        }),
        (0.1f64..5.0).prop_map(|mean| InfoSpec::Continuous {
            delay: DelaySpec::UniformWide { mean },
            knowledge: AgeKnowledge::MeanOnly,
        }),
        Just(InfoSpec::UpdateOnAccess),
    ]
}

fn arb_service() -> impl Strategy<Value = Dist> {
    prop_oneof![
        Just(Dist::exponential(1.0)),
        Just(Dist::constant(1.0)),
        Just(Dist::bounded_pareto(1.2, 0.3, 50.0).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every run conserves jobs, measures exactly the post-warm-up set,
    /// reports non-negative responses, and never misses a history query.
    #[test]
    fn run_invariants_hold(
        servers in 1usize..24,
        lambda in 0.05f64..0.95,
        arrivals in 500u64..6_000,
        warmup_frac in 0.0f64..0.5,
        service in arb_service(),
        info in arb_info(),
        policy in arb_policy(),
        stealing in proptest::option::of(2u32..5),
        seed in any::<u64>(),
    ) {
        let clients = if matches!(info, InfoSpec::UpdateOnAccess) { servers * 2 } else { 1 };
        let arrivals_spec = if clients > 1 {
            ArrivalSpec::PoissonClients { clients }
        } else {
            ArrivalSpec::Poisson
        };
        let mut b = SimConfig::builder();
        b.servers(servers)
            .lambda(lambda)
            .arrivals(arrivals)
            .warmup_fraction(warmup_frac)
            .service(service)
            .seed(seed);
        if let Some(min) = stealing {
            b.work_stealing(min);
        }
        let cfg = b.build();
        let r = run_simulation(&cfg, &arrivals_spec, &info, &policy).expect("valid config");

        prop_assert_eq!(r.generated, arrivals);
        prop_assert_eq!(r.measured_jobs, arrivals - cfg.warmup_jobs());
        prop_assert!(r.response.min() >= 0.0 || r.measured_jobs == 0);
        prop_assert_eq!(r.history_misses, 0);
        prop_assert_eq!(r.detail.response_sketch.count(), r.measured_jobs);
        // All generated jobs completed (the drain emptied the system).
        let completed = r.detail.completed();
        prop_assert_eq!(completed, arrivals);
        // Occupancy metrics are sane.
        prop_assert!(r.detail.peak_jobs_in_system() >= 0.0);
        let fairness = r.detail.throughput_fairness();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&fairness));
        // Utilization cannot exceed 1 per server.
        for u in r.detail.utilizations(r.end_time.max(1e-9)) {
            prop_assert!(u <= 1.0 + 1e-9, "utilization {}", u);
        }
    }

    /// Bit-exact determinism holds for arbitrary configurations.
    #[test]
    fn arbitrary_runs_are_deterministic(
        servers in 1usize..16,
        lambda in 0.1f64..0.9,
        info in arb_info(),
        policy in arb_policy(),
        seed in any::<u64>(),
    ) {
        let arrivals_spec = if matches!(info, InfoSpec::UpdateOnAccess) {
            ArrivalSpec::PoissonClients { clients: 8 }
        } else {
            ArrivalSpec::Poisson
        };
        let cfg = SimConfig::builder()
            .servers(servers)
            .lambda(lambda)
            .arrivals(2_000)
            .seed(seed)
            .build();
        let a = run_simulation(&cfg, &arrivals_spec, &info, &policy).expect("valid config");
        let b = run_simulation(&cfg, &arrivals_spec, &info, &policy).expect("valid config");
        prop_assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
        prop_assert_eq!(a.end_time.to_bits(), b.end_time.to_bits());
        prop_assert_eq!(a.detail.per_server_completed(), b.detail.per_server_completed());
    }

    /// Heterogeneous clusters uphold the same invariants, including with
    /// the history-backed continuous model and work stealing.
    #[test]
    fn hetero_runs_uphold_invariants(
        fast in 1usize..6,
        slow in 1usize..6,
        lambda in 0.1f64..0.8,
        seed in any::<u64>(),
        continuous in any::<bool>(),
    ) {
        let caps: Vec<f64> = (0..fast).map(|_| 1.5).chain((0..slow).map(|_| 0.5)).collect();
        let info = if continuous {
            InfoSpec::Continuous {
                delay: DelaySpec::Constant { mean: 1.0 },
                knowledge: AgeKnowledge::Actual,
            }
        } else {
            InfoSpec::Periodic { period: 2.0 }
        };
        let mut b = SimConfig::builder();
        b.capacities(caps.clone()).lambda(lambda).arrivals(3_000).seed(seed).work_stealing(2);
        let cfg = b.build();
        let policy = PolicySpec::HeteroLi { lambda, capacities: caps };
        let r = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy).expect("valid config");
        prop_assert_eq!(r.generated, 3_000);
        let completed = r.detail.completed();
        prop_assert_eq!(completed, 3_000);
        prop_assert_eq!(r.history_misses, 0);
    }

    /// `FaultSpec::none()` is bit-identical to never-failing fault specs:
    /// the fault machinery must not perturb fault-free trajectories, and a
    /// zero-probability loss channel must degenerate to the plain board.
    #[test]
    fn noop_faults_are_bit_identical_to_none(
        servers in 2usize..16,
        lambda in 0.1f64..0.9,
        period in 0.5f64..15.0,
        policy in arb_policy(),
        seed in any::<u64>(),
    ) {
        let info = InfoSpec::Periodic { period };
        let run_with = |faults: FaultSpec| {
            let cfg = SimConfig::builder()
                .servers(servers)
                .lambda(lambda)
                .arrivals(2_000)
                .seed(seed)
                .faults(faults)
                .build();
            run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy).expect("valid config")
        };
        let base = run_with(FaultSpec::none());
        // MTBF far beyond the horizon: the first crash never fires.
        let never_crash = run_with(FaultSpec::crash(1e15, 1.0));
        prop_assert_eq!(base.mean_response.to_bits(), never_crash.mean_response.to_bits());
        prop_assert_eq!(base.end_time.to_bits(), never_crash.end_time.to_bits());
        prop_assert_eq!(never_crash.faults.crashes, 0);
        // Zero drop probability: every refresh lands immediately.
        let lossless = run_with(FaultSpec::drop(0.0));
        prop_assert_eq!(base.mean_response.to_bits(), lossless.mean_response.to_bits());
        prop_assert_eq!(base.end_time.to_bits(), lossless.end_time.to_bits());
    }

    /// Crash/recovery bookkeeping conserves jobs in both modes: everything
    /// generated completes, recoveries never outnumber crashes, downtime
    /// is non-negative, and the run is reproducible.
    #[test]
    fn crash_faults_conserve_jobs(
        servers in 2usize..12,
        lambda in 0.1f64..0.8,
        mtbf in 50.0f64..400.0,
        mttr in 1.0f64..40.0,
        redispatch in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut faults = FaultSpec::crash(mtbf, mttr);
        faults.crash = faults.crash.map(|mut c| { c.redispatch = redispatch; c });
        let cfg = SimConfig::builder()
            .servers(servers)
            .lambda(lambda)
            .arrivals(4_000)
            .seed(seed)
            .faults(faults)
            .build();
        let info = InfoSpec::Periodic { period: 5.0 };
        let policy = PolicySpec::BasicLi { lambda };
        let r = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy)
            .expect("valid config");
        prop_assert_eq!(r.generated, 4_000);
        let completed = r.detail.completed();
        prop_assert_eq!(completed, 4_000);
        prop_assert!(r.faults.recoveries <= r.faults.crashes);
        prop_assert!(r.faults.downtime >= 0.0);
        if !redispatch {
            prop_assert_eq!(r.faults.redispatched, 0);
        }
        let again = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy)
            .expect("valid config");
        prop_assert_eq!(r.mean_response.to_bits(), again.mean_response.to_bits());
        prop_assert_eq!(r.faults.crashes, again.faults.crashes);
    }

    /// Job conservation under the overload control plane: whatever the
    /// combination of bounded queues, deadlines, and retries, every
    /// generated job ends exactly once, and the counters reconcile
    /// exactly — `generated == completed + abandoned` and
    /// `rejected + reneged == retries + abandoned`.
    #[test]
    fn overload_controls_conserve_jobs(
        servers in 2usize..16,
        lambda in 0.5f64..0.99,
        queue_cap in proptest::option::of(1u32..6),
        deadline in proptest::option::of(0.5f64..10.0),
        with_retry in any::<bool>(),
        max_attempts in 2u32..6,
        policy in arb_policy(),
        seed in any::<u64>(),
    ) {
        let mut b = SimConfig::builder();
        b.servers(servers).lambda(lambda).arrivals(3_000).seed(seed);
        if let Some(cap) = queue_cap {
            b.queue_cap(cap);
        }
        if let Some(d) = deadline {
            b.deadline(d);
        }
        // The retry orbit needs something to bounce off.
        let retry_armed = with_retry && (queue_cap.is_some() || deadline.is_some());
        if retry_armed {
            b.retry(RetrySpec { max_attempts, base: 0.2, cap: 5.0 });
        }
        let cfg = b.build();
        let info = InfoSpec::Periodic { period: 5.0 };
        let r = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy)
            .expect("valid config");
        let o = &r.overload;

        prop_assert_eq!(r.generated, 3_000);
        // Law 1: every job ends exactly once.
        let completed = r.detail.completed();
        prop_assert_eq!(completed + o.abandoned, 3_000,
            "completed {} + abandoned {} != generated", completed, o.abandoned);
        // Law 2: every bounce either re-entered the orbit or was terminal.
        prop_assert_eq!(o.rejected + o.reneged, o.retries + o.abandoned,
            "rejected {} + reneged {} != retries {} + abandoned {}",
            o.rejected, o.reneged, o.retries, o.abandoned);
        // Controls that are off leave their counters at zero.
        if queue_cap.is_none() {
            prop_assert_eq!(o.rejected, 0);
        }
        if deadline.is_none() {
            prop_assert_eq!(o.reneged, 0);
        }
        if !retry_armed {
            prop_assert_eq!(o.retries, 0);
        }
        // Goodput never exceeds offered throughput, and only abandonment
        // separates them.
        prop_assert!(r.goodput() <= r.offered_throughput() + 1e-12);
        if o.abandoned == 0 {
            prop_assert_eq!(r.goodput().to_bits(), r.offered_throughput().to_bits());
        }
        // Determinism holds with the controls on.
        let again = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy)
            .expect("valid config");
        prop_assert_eq!(&again.overload, o);
        prop_assert_eq!(again.mean_response.to_bits(), r.mean_response.to_bits());
    }

    /// The `--faults` grammar round-trips through Display and FromStr.
    #[test]
    fn fault_spec_round_trips(
        mtbf in 1.0f64..1e6,
        mttr in 1.0f64..1e4,
        redispatch in any::<bool>(),
        drop in proptest::option::of(0.0f64..1.0),
        with_crash in any::<bool>(),
        partition in proptest::option::of((1.0f64..1e4, 1.0f64..1e3, 0.05f64..1.0, any::<bool>())),
        with_churn in any::<bool>(),
        corrupt in proptest::option::of(0.0f64..1.0),
    ) {
        let mut spec = if with_crash {
            let mut s = FaultSpec::crash(mtbf, mttr);
            s.crash = s.crash.map(|mut c| { c.redispatch = redispatch; c });
            s
        } else {
            FaultSpec::none()
        };
        if let Some(p) = drop {
            spec.loss = Some(staleload_core::LossSpec::drop(p));
        }
        if let Some((mtbf, duration, fraction, correlated)) = partition {
            spec.partition = Some(staleload_core::PartitionSpec {
                mtbf, duration, fraction, correlated,
            });
        }
        // FromStr validates, so only emit legal combinations: churn excludes
        // crash, and its downtime must stay below its MTBF.
        if with_churn && !with_crash {
            spec.churn = Some(staleload_core::ChurnSpec { mtbf, downtime: mtbf * 0.5 });
        }
        if let Some(fraction) = corrupt {
            spec.corrupt = Some(staleload_core::CorruptSpec { fraction });
        }
        let text = spec.to_string();
        let parsed: FaultSpec = text.parse().expect("display output must parse");
        prop_assert_eq!(parsed, spec, "{}", text);
    }

    /// Job conservation across the degraded-information fault space: any
    /// combination of view partitions, membership churn, report corruption,
    /// hedged dispatch, and quarantine completes every generated job
    /// exactly once — and does so deterministically.
    #[test]
    fn resilience_faults_conserve_jobs(
        servers in 3usize..16,
        lambda in 0.1f64..0.8,
        partition in proptest::option::of((20.0f64..200.0, 2.0f64..40.0, 0.1f64..0.9, any::<bool>())),
        churn in proptest::option::of((100.0f64..400.0, 1.0f64..30.0)),
        corrupt in proptest::option::of(0.01f64..0.8),
        hedge in proptest::option::of(2u32..4),
        quarantine in proptest::option::of((5.0f64..40.0, 2.0f64..20.0)),
        seed in any::<u64>(),
    ) {
        let mut faults = FaultSpec::none();
        if let Some((mtbf, duration, fraction, correlated)) = partition {
            faults.partition = Some(staleload_core::PartitionSpec {
                mtbf, duration, fraction, correlated,
            });
        }
        if let Some((mtbf, downtime)) = churn {
            faults.churn = Some(staleload_core::ChurnSpec { mtbf, downtime });
        }
        if let Some(fraction) = corrupt {
            faults.corrupt = Some(staleload_core::CorruptSpec { fraction });
        }
        faults.validate().expect("generated fault space is legal");
        let mut policy = PolicySpec::BasicLi { lambda };
        if let Some((window, backoff)) = quarantine {
            policy = PolicySpec::Quarantined { window, backoff, inner: Box::new(policy) };
        }
        if let Some(h) = hedge {
            // servers >= 3 keeps h <= n; hedging is the outermost wrapper.
            policy = PolicySpec::Hedged { h, inner: Box::new(policy) };
        }
        let cfg = SimConfig::builder()
            .servers(servers)
            .lambda(lambda)
            .arrivals(3_000)
            .seed(seed)
            .faults(faults)
            .build();
        // Partitions and corruption require a bulletin-board model.
        let info = InfoSpec::Periodic { period: 5.0 };
        let r = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy)
            .expect("valid config");

        prop_assert_eq!(r.generated, 3_000);
        // Every logical job completes exactly once: hedge replicas neither
        // arrive nor depart, so completion counts see only winners.
        let completed = r.detail.completed();
        prop_assert_eq!(completed, 3_000,
            "completed {} != generated under {:?}", completed, cfg.faults);
        // Every replica placed is eventually cancelled (it loses, or it
        // wins and displaces exactly one sibling).
        prop_assert_eq!(r.resilience.hedges_cancelled, r.resilience.hedges_issued);
        prop_assert!(r.resilience.hedges_won <= r.resilience.hedges_issued);
        if hedge.is_none() {
            prop_assert_eq!(r.resilience.hedges_issued, 0);
        }
        if partition.is_none() {
            prop_assert_eq!(r.resilience.partition_seconds.to_bits(), 0.0f64.to_bits());
        }
        if corrupt.is_none() {
            prop_assert_eq!(r.resilience.corrupted_reports, 0);
        }
        prop_assert!(r.resilience.partition_seconds >= 0.0);
        // Determinism holds across the whole fault space.
        let again = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy)
            .expect("valid config");
        prop_assert_eq!(again.mean_response.to_bits(), r.mean_response.to_bits());
        prop_assert_eq!(again.resilience, r.resilience);
        prop_assert_eq!(again.faults, r.faults);
    }
}

/// Policies the population engine supports, paired with supported info
/// models, for the mean-field conservation property below.
fn arb_population_policy() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::Random),
        (1usize..6).prop_map(|k| PolicySpec::KSubset { k }),
        Just(PolicySpec::Greedy),
        (0.1f64..1.2).prop_map(|lambda| PolicySpec::BasicLi { lambda }),
    ]
}

fn arb_population_info() -> impl Strategy<Value = InfoSpec> {
    prop_oneof![
        Just(InfoSpec::Fresh),
        (0.2f64..20.0).prop_map(|period| InfoSpec::Periodic { period }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The population engine conserves jobs across arbitrary arrival /
    /// departure / refresh interleavings: every generated job is routed,
    /// completes exactly once, and the post-warm-up set is measured in
    /// full — the same invariants the per-server engine upholds, on the
    /// counts-matrix state. (In debug builds this also drives the
    /// engine's internal row-sum/busy-count debug assertions across the
    /// whole supported config space.)
    #[test]
    fn population_runs_conserve_jobs(
        servers in 1usize..400,
        lambda in 0.05f64..0.95,
        arrivals in 200u64..4_000,
        warmup_frac in 0.0f64..0.5,
        info in arb_population_info(),
        policy in arb_population_policy(),
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig::builder()
            .servers(servers)
            .lambda(lambda)
            .arrivals(arrivals)
            .warmup_fraction(warmup_frac)
            .seed(seed)
            .engine(staleload_core::EngineMode::Population)
            .build();
        let r = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy)
            .expect("valid population config");

        prop_assert_eq!(r.generated, arrivals);
        prop_assert_eq!(r.measured_jobs, arrivals - cfg.warmup_jobs());
        prop_assert_eq!(r.detail.response_sketch.count(), r.measured_jobs);
        prop_assert!(r.response.min() >= 0.0 || r.measured_jobs == 0);
        // Every job completes exactly once (the drain emptied the system).
        let completed = r.detail.completed();
        prop_assert_eq!(completed, arrivals);
        prop_assert!(r.end_time > 0.0);
        // Utilization cannot exceed 1 per server: the summary's servers
        // are exchangeable, so each one's expectation is the mean.
        prop_assert_eq!(r.detail.servers(), servers);
        prop_assert_eq!(r.detail.throughput_fairness(), 1.0);
        let u = r.detail.mean_utilization(r.end_time.max(1e-9));
        prop_assert!(u > 0.0 && u <= 1.0 + 1e-9, "utilization {}", u);
        // Determinism holds across the supported config space.
        let again = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy)
            .expect("valid population config");
        prop_assert_eq!(again.mean_response.to_bits(), r.mean_response.to_bits());
        prop_assert_eq!(again.end_time.to_bits(), r.end_time.to_bits());
    }
}
