//! Hand-rolled argument parsing (the project's dependency policy allows no
//! CLI crate, and the grammar is small).

use std::time::Duration;

use staleload_core::{
    check_fault_clock, check_run, check_run_bounds, clients_for_mean_age, ArrivalSpec, EngineMode,
    FaultSpec, RetrySpec, SimConfig,
};
use staleload_info::{AgeKnowledge, DelaySpec, InfoSpec};
use staleload_policies::PolicySpec;
use staleload_sim::Dist;
use staleload_workloads::BurstConfig;

/// A fully parsed `staleload run`/`compare` invocation.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// System configuration.
    pub config: SimConfig,
    /// Arrival structure (clients derived for update-on-access).
    pub arrivals: ArrivalSpec,
    /// Information model.
    pub info: InfoSpec,
    /// Policy (ignored by `compare`, which runs a panel).
    pub policy: PolicySpec,
    /// Trials.
    pub trials: usize,
    /// Print tail/fairness detail.
    pub detail: bool,
    /// Per-trial wall-clock budget (`--watchdog`), at least 1 ns. `None`
    /// runs trials unguarded, exactly as before the flag existed.
    pub watchdog: Option<Duration>,
    /// Extra percentile to report under `--detail` (`--tail-p`),
    /// strictly inside (0, 1). `None` prints the standard set only.
    pub tail_p: Option<f64>,
}

/// Parses a policy spec string.
///
/// Grammar: `random | greedy | k:<K> | threshold:<T> | probe:<L>:<T> |
/// basic-li | aggressive-li | hybrid-li | li:<K> | decay:<TAU> |
/// adaptive-li | hetero-li | sita` (`hetero-li` requires `--capacities`;
/// `sita` is resolved by [`parse_run`], which knows the service
/// distribution and the server count).
///
/// # Errors
///
/// Returns a message describing the malformed spec.
pub fn parse_policy(
    s: &str,
    lambda: f64,
    capacities: Option<&[f64]>,
) -> Result<PolicySpec, String> {
    let (head, tail) = split_spec(s);
    match head {
        "random" => Ok(PolicySpec::Random),
        "greedy" => Ok(PolicySpec::Greedy),
        "k" => Ok(PolicySpec::KSubset {
            k: parse_field(tail, "k", "subset size")?,
        }),
        "threshold" => Ok(PolicySpec::Threshold {
            threshold: parse_field(tail, "threshold", "threshold")?,
        }),
        "basic-li" => Ok(PolicySpec::BasicLi { lambda }),
        "aggressive-li" => Ok(PolicySpec::AggressiveLi { lambda }),
        "hybrid-li" => Ok(PolicySpec::HybridLi { lambda }),
        "li" => Ok(PolicySpec::LiSubset {
            k: parse_field(tail, "li", "subset size")?,
            lambda,
        }),
        "decay" => Ok(PolicySpec::WeightedDecay {
            tau: parse_field(tail, "decay", "tau")?,
        }),
        "adaptive-li" => Ok(PolicySpec::AdaptiveLi {
            alpha: 0.01,
            warmup: 1000,
        }),
        "probe" => {
            let rest = tail.ok_or("probe needs <PROBES>:<THRESHOLD> (e.g. probe:3:1)")?;
            let (p, t) = rest
                .split_once(':')
                .ok_or("probe needs <PROBES>:<THRESHOLD>")?;
            Ok(PolicySpec::ProbeThreshold {
                probes: p.parse().map_err(|_| format!("bad probe count '{p}'"))?,
                threshold: t.parse().map_err(|_| format!("bad threshold '{t}'"))?,
            })
        }
        "hetero-li" => match capacities {
            Some(caps) => Ok(PolicySpec::HeteroLi {
                lambda,
                capacities: caps.to_vec(),
            }),
            None => Err("hetero-li requires --capacities".to_string()),
        },
        other => Err(format!(
            "unknown policy '{other}' (expected random, greedy, k:<K>, threshold:<T>, \
             probe:<L>:<T>, basic-li, aggressive-li, hybrid-li, li:<K>, decay:<TAU>, \
             adaptive-li, hetero-li, sita)"
        )),
    }
}

/// Parses an information-model spec string.
///
/// Grammar: `fresh | periodic:<T> | continuous:<const|unarrow|uwide|exp>:<T>[:actual]
/// | uoa:<T> | ewma:<ALPHA>[:<T>] | ma:<W1>,<W2>,<W3>[:<T>]` (estimator
/// periods default to 1.0).
///
/// # Errors
///
/// Returns a message describing the malformed spec.
pub fn parse_info(s: &str) -> Result<InfoSpec, String> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts[0] {
        "fresh" => Ok(InfoSpec::Fresh),
        "periodic" => {
            let t: f64 = parse_field(parts.get(1).copied(), "periodic", "period")?;
            Ok(InfoSpec::Periodic { period: t })
        }
        "continuous" => {
            let dist = *parts
                .get(1)
                .ok_or("continuous needs a delay distribution")?;
            let t: f64 = parse_field(parts.get(2).copied(), "continuous", "mean delay")?;
            let delay = match dist {
                "const" => DelaySpec::Constant { mean: t },
                "unarrow" => DelaySpec::UniformNarrow { mean: t },
                "uwide" => DelaySpec::UniformWide { mean: t },
                "exp" => DelaySpec::Exponential { mean: t },
                other => return Err(format!("unknown delay distribution '{other}'")),
            };
            let knowledge = if parts.get(3) == Some(&"actual") {
                AgeKnowledge::Actual
            } else {
                AgeKnowledge::MeanOnly
            };
            Ok(InfoSpec::Continuous { delay, knowledge })
        }
        "individual" => {
            let t: f64 = parse_field(parts.get(1).copied(), "individual", "period")?;
            Ok(InfoSpec::Individual { period: t })
        }
        // The mean age T is consumed by the caller (it sets the client
        // count), so `uoa:<T>` parses to plain UpdateOnAccess here.
        "uoa" => Ok(InfoSpec::UpdateOnAccess),
        "ewma" => {
            let alpha: f64 = parse_field(parts.get(1).copied(), "ewma", "smoothing weight")?;
            let period: f64 = match parts.get(2) {
                Some(p) => p
                    .parse()
                    .map_err(|_| format!("bad period '{p}' for ewma"))?,
                None => 1.0,
            };
            Ok(InfoSpec::Ewma { period, alpha })
        }
        "ma" => {
            let list = *parts
                .get(1)
                .ok_or("ma needs three horizons <W1>,<W2>,<W3> (e.g. ma:2,10,30)")?;
            let windows = list
                .split(',')
                .map(|w| {
                    let w = w.trim();
                    w.parse::<f64>()
                        .map_err(|_| format!("bad horizon '{w}' for ma"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            let windows: [f64; 3] = windows.try_into().map_err(|got: Vec<f64>| {
                format!(
                    "ma needs exactly three horizons <W1>,<W2>,<W3>, got {}",
                    got.len()
                )
            })?;
            let period: f64 = match parts.get(2) {
                Some(p) => p.parse().map_err(|_| format!("bad period '{p}' for ma"))?,
                None => 1.0,
            };
            Ok(InfoSpec::MultiHorizon { period, windows })
        }
        other => Err(format!(
            "unknown info model '{other}' (expected fresh, periodic:<T>, individual:<T>, \
             continuous:<dist>:<T>[:actual], uoa:<T>, ewma:<ALPHA>[:<T>], \
             ma:<W1>,<W2>,<W3>[:<T>])"
        )),
    }
}

/// Extracts the mean-age parameter of a `uoa:<T>` spec, if present.
pub fn parse_uoa_age(s: &str) -> Result<Option<f64>, String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts[0] != "uoa" {
        return Ok(None);
    }
    let t: f64 = parse_field(parts.get(1).copied(), "uoa", "mean inter-request time")?;
    if !(t.is_finite() && t > 0.0) {
        return Err(format!(
            "mean inter-request time for uoa must be positive and finite, got {t}"
        ));
    }
    Ok(Some(t))
}

/// Parses a job-size spec: `exp | det | bp:<ALPHA>:<MAX>` (mean forced to
/// 1, as in the paper).
///
/// # Errors
///
/// Returns a message describing the malformed spec.
pub fn parse_service(s: &str) -> Result<Dist, String> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts[0] {
        "exp" => Ok(Dist::exponential(1.0)),
        "det" => Ok(Dist::constant(1.0)),
        "bp" => {
            let alpha: f64 = parse_field(parts.get(1).copied(), "bp", "alpha")?;
            let max: f64 = parse_field(parts.get(2).copied(), "bp", "max size")?;
            Dist::bounded_pareto_with_mean(alpha, max, 1.0).map_err(|e| e.to_string())
        }
        other => Err(format!(
            "unknown service distribution '{other}' (expected exp, det, bp:<A>:<M>)"
        )),
    }
}

/// Parses a capacity spec like `50x1.6,50x0.4` or `1.0,2.0,0.5`.
///
/// # Errors
///
/// Returns a message describing the malformed spec.
pub fn parse_capacities(s: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for group in s.split(',') {
        if let Some((count, rate)) = group.split_once('x') {
            let count: usize = count
                .trim()
                .parse()
                .map_err(|_| format!("bad capacity count '{count}'"))?;
            let rate: f64 = rate
                .trim()
                .parse()
                .map_err(|_| format!("bad capacity rate '{rate}'"))?;
            out.extend(std::iter::repeat_n(rate, count));
        } else {
            let rate: f64 = group
                .trim()
                .parse()
                .map_err(|_| format!("bad capacity '{group}'"))?;
            out.push(rate);
        }
    }
    if out.is_empty() {
        return Err("capacity spec is empty".to_string());
    }
    Ok(out)
}

fn split_spec(s: &str) -> (&str, Option<&str>) {
    match s.split_once(':') {
        Some((h, t)) => (h, Some(t)),
        None => (s, None),
    }
}

fn parse_field<T: std::str::FromStr>(
    value: Option<&str>,
    what: &str,
    field: &str,
) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{what} needs a {field} (e.g. {what}:10)"))?;
    v.parse()
        .map_err(|_| format!("bad {field} '{v}' for {what}"))
}

/// Parses the flags of `staleload run`/`compare`.
///
/// # Errors
///
/// Returns a usage message on any malformed flag.
pub fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut servers = 100usize;
    let mut lambda = 0.9f64;
    let mut arrivals = 200_000u64;
    let mut trials = 5usize;
    let mut seed = 1u64;
    let mut policy_spec = "basic-li".to_string();
    let mut info_spec = "periodic:10".to_string();
    let mut service_spec = "exp".to_string();
    let mut capacities: Option<Vec<f64>> = None;
    let mut stealing: Option<u32> = None;
    let mut burst: Option<BurstConfig> = None;
    let mut faults = FaultSpec::none();
    let mut hedge: Option<u32> = None;
    let mut quarantine: Option<(f64, f64)> = None;
    let mut staleness_cutoff: Option<f64> = None;
    let mut queue_cap: Option<u32> = None;
    let mut deadline: Option<f64> = None;
    let mut retry: Option<RetrySpec> = None;
    let mut guard: Option<(f64, f64)> = None;
    let mut engine = EngineMode::PerServer;
    let mut detail = false;
    let mut watchdog: Option<Duration> = None;
    let mut sketch_cap: Option<usize> = None;
    let mut tail_p: Option<f64> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--servers" => {
                servers = take("--servers")?
                    .parse()
                    .map_err(|e| format!("--servers: {e}"))?
            }
            "--lambda" => {
                lambda = take("--lambda")?
                    .parse()
                    .map_err(|e| format!("--lambda: {e}"))?
            }
            "--arrivals" => {
                arrivals = take("--arrivals")?
                    .parse()
                    .map_err(|e| format!("--arrivals: {e}"))?
            }
            "--trials" => {
                trials = take("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?
            }
            "--seed" => {
                seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--policy" => policy_spec = take("--policy")?.clone(),
            "--info" => info_spec = take("--info")?.clone(),
            "--service" => service_spec = take("--service")?.clone(),
            "--capacities" => capacities = Some(parse_capacities(take("--capacities")?)?),
            "--stealing" => {
                stealing = Some(
                    take("--stealing")?
                        .parse()
                        .map_err(|e| format!("--stealing: {e}"))?,
                )
            }
            "--burst" => {
                let v = take("--burst")?;
                let (len, gap) = v
                    .split_once(':')
                    .ok_or("--burst expects <LEN>:<INTRA_GAP> (e.g. 10:1.0)")?;
                burst = Some(BurstConfig {
                    burst_len: len
                        .parse()
                        .map_err(|_| format!("bad burst length '{len}'"))?,
                    intra_gap_mean: gap.parse().map_err(|_| format!("bad intra gap '{gap}'"))?,
                });
            }
            "--faults" => {
                faults = take("--faults")?
                    .parse::<FaultSpec>()
                    .map_err(|e| e.to_string())?;
            }
            "--hedge" => {
                hedge = Some(
                    take("--hedge")?
                        .parse()
                        .map_err(|e| format!("--hedge: {e}"))?,
                );
            }
            "--quarantine" => {
                let v = take("--quarantine")?;
                let (w, b) = v
                    .split_once(':')
                    .ok_or("--quarantine expects <WINDOW>:<BACKOFF> (e.g. 15:10)")?;
                quarantine = Some((
                    w.parse()
                        .map_err(|_| format!("bad quarantine window '{w}'"))?,
                    b.parse()
                        .map_err(|_| format!("bad quarantine backoff '{b}'"))?,
                ));
            }
            "--staleness-cutoff" => {
                staleness_cutoff = Some(
                    take("--staleness-cutoff")?
                        .parse()
                        .map_err(|e| format!("--staleness-cutoff: {e}"))?,
                );
            }
            "--queue-cap" => {
                queue_cap = Some(
                    take("--queue-cap")?
                        .parse()
                        .map_err(|e| format!("--queue-cap: {e}"))?,
                );
            }
            "--deadline" => {
                deadline = Some(
                    take("--deadline")?
                        .parse()
                        .map_err(|e| format!("--deadline: {e}"))?,
                );
            }
            "--retry" => {
                retry = Some(
                    take("--retry")?
                        .parse::<RetrySpec>()
                        .map_err(|e| format!("--retry: {e}"))?,
                );
            }
            "--guard" => {
                let v = take("--guard")?;
                let (t, c) = v
                    .split_once(':')
                    .ok_or("--guard expects <THRESHOLD>:<COOLDOWN> (e.g. 2:50)")?;
                guard = Some((
                    t.parse()
                        .map_err(|_| format!("bad guard threshold '{t}'"))?,
                    c.parse().map_err(|_| format!("bad guard cooldown '{c}'"))?,
                ));
            }
            "--engine" => {
                engine = take("--engine")?.parse::<EngineMode>()?;
            }
            "--watchdog" => {
                let v = take("--watchdog")?;
                // NaN, negatives, budgets past Duration::MAX and budgets
                // that round to 0 ns (every trial would time out) are out.
                let budget = v
                    .parse()
                    .ok()
                    .and_then(|s| Duration::try_from_secs_f64(s).ok());
                watchdog = Some(budget.filter(|d| !d.is_zero()).ok_or_else(|| {
                    format!("--watchdog needs a budget from 1 ns to under 2^64 seconds, got {v}")
                })?);
            }
            "--sketch-cap" => {
                sketch_cap = Some(
                    take("--sketch-cap")?
                        .parse()
                        .map_err(|e| format!("--sketch-cap: {e}"))?,
                );
            }
            "--tail-p" => {
                let p: f64 = take("--tail-p")?
                    .parse()
                    .map_err(|e| format!("--tail-p: {e}"))?;
                // p = 0 and p = 1 are min/max, already reported; outside
                // [0, 1] is not a probability at all.
                if !(p.is_finite() && 0.0 < p && p < 1.0) {
                    return Err(format!(
                        "--tail-p needs a percentile target strictly in (0, 1), got {p}"
                    ));
                }
                tail_p = Some(p);
            }
            "--detail" => detail = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    let info = parse_info(&info_spec)?;
    let service = parse_service(&service_spec)?;
    let arrivals_spec = match parse_uoa_age(&info_spec)? {
        Some(age) => {
            let clients = clients_for_mean_age(lambda, servers, age);
            // At least 100 requests per client, so every client's age
            // process warms up.
            let floor = (clients as u64).checked_mul(100).ok_or_else(|| {
                format!("{info_spec} needs {clients} clients; 100 arrivals for each overflow a u64")
            })?;
            arrivals = arrivals.max(floor);
            match burst {
                None => ArrivalSpec::PoissonClients { clients },
                Some(b) => ArrivalSpec::BurstyClients { clients, burst: b },
            }
        }
        None => ArrivalSpec::Poisson,
    };

    let mut builder = SimConfig::builder();
    builder
        .servers(servers)
        .lambda(lambda)
        .arrivals(arrivals)
        .service(service)
        .seed(seed)
        .engine(engine)
        .faults(faults);
    if let Some(caps) = capacities {
        builder.capacities(caps);
    }
    if let Some(min) = stealing {
        builder.work_stealing(min);
    }
    if let Some(cap) = queue_cap {
        builder.queue_cap(cap);
    }
    if let Some(d) = deadline {
        builder.deadline(d);
    }
    if let Some(r) = retry {
        builder.retry(r);
    }
    if let Some(cap) = sketch_cap {
        builder.sketch_cap(cap);
    }
    let config = builder.try_build().map_err(|e| e.to_string())?;

    // SITA-E derives its size cutoffs from the service distribution and
    // the server count (at least 1 once the config is built), so it is
    // resolved here rather than in `parse_policy`.
    let policy = if policy_spec == "sita" {
        PolicySpec::Sita {
            boundaries: staleload_policies::Sita::equal_load(&service, config.servers)
                .boundaries()
                .to_vec(),
        }
    } else {
        parse_policy(&policy_spec, lambda, config.capacities.as_deref())?
    };
    // Gating composes over any base policy; it matters under fault
    // injection, where board entries age independently.
    let policy = match staleness_cutoff {
        Some(cutoff) => PolicySpec::Gated {
            cutoff,
            inner: Box::new(policy),
        },
        None => policy,
    };
    // Quarantine composes above the gate: it ejects servers the same
    // per-server ages the gate merely discounts.
    let policy = match quarantine {
        Some((window, backoff)) => PolicySpec::Quarantined {
            window,
            backoff,
            inner: Box::new(policy),
        },
        None => policy,
    };
    // The circuit breaker watches the dispatch stream the composed policy
    // actually produces.
    let policy = match guard {
        Some((threshold, cooldown)) => PolicySpec::Guarded {
            threshold,
            cooldown,
            inner: Box::new(policy),
        },
        None => policy,
    };
    // Hedging must be outermost: the engine splits it off and drives the
    // replica placement and cancel-on-completion machinery itself.
    let policy = match hedge {
        Some(h) => PolicySpec::Hedged {
            h,
            inner: Box::new(policy),
        },
        None => policy,
    };

    // Every rule is `check_run`'s; the fault clock and the board's bounds
    // are checked first only to name their flag in the message.
    check_fault_clock(&config).map_err(|e| format!("--faults: {e}"))?;
    check_run_bounds(&config, &arrivals_spec, &info)
        .map_err(|e| format!("--info {info_spec}: {e}"))?;
    check_run(&config, &arrivals_spec, &info, &policy).map_err(|e| e.to_string())?;

    Ok(RunArgs {
        config,
        arrivals: arrivals_spec,
        info,
        policy,
        trials,
        detail,
        watchdog,
        tail_p,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_run_parses() {
        let args = parse_run(&[]).unwrap();
        assert_eq!(args.config.servers, 100);
        assert_eq!(args.policy, PolicySpec::BasicLi { lambda: 0.9 });
        assert_eq!(args.info, InfoSpec::Periodic { period: 10.0 });
        assert_eq!(args.arrivals, ArrivalSpec::Poisson);
    }

    #[test]
    fn policy_grammar() {
        assert_eq!(
            parse_policy("random", 0.9, None).unwrap(),
            PolicySpec::Random
        );
        assert_eq!(
            parse_policy("k:3", 0.9, None).unwrap(),
            PolicySpec::KSubset { k: 3 }
        );
        assert_eq!(
            parse_policy("threshold:8", 0.9, None).unwrap(),
            PolicySpec::Threshold { threshold: 8 }
        );
        assert_eq!(
            parse_policy("li:4", 0.5, None).unwrap(),
            PolicySpec::LiSubset { k: 4, lambda: 0.5 }
        );
        assert!(parse_policy("k", 0.9, None).is_err());
        assert!(parse_policy("warp-drive", 0.9, None).is_err());
        assert!(parse_policy("hetero-li", 0.9, None).is_err());
        assert!(parse_policy("hetero-li", 0.9, Some(&[1.0, 2.0])).is_ok());
    }

    #[test]
    fn info_grammar() {
        assert_eq!(parse_info("fresh").unwrap(), InfoSpec::Fresh);
        assert_eq!(
            parse_info("periodic:5").unwrap(),
            InfoSpec::Periodic { period: 5.0 }
        );
        assert_eq!(
            parse_info("continuous:exp:3:actual").unwrap(),
            InfoSpec::Continuous {
                delay: DelaySpec::Exponential { mean: 3.0 },
                knowledge: AgeKnowledge::Actual
            }
        );
        assert_eq!(
            parse_info("continuous:const:2").unwrap(),
            InfoSpec::Continuous {
                delay: DelaySpec::Constant { mean: 2.0 },
                knowledge: AgeKnowledge::MeanOnly
            }
        );
        assert!(parse_info("periodic").is_err());
        assert!(parse_info("continuous:wat:2").is_err());
        assert!(parse_info("psychic").is_err());
    }

    #[test]
    fn estimator_info_grammar() {
        assert_eq!(
            parse_info("ewma:0.3").unwrap(),
            InfoSpec::Ewma {
                period: 1.0,
                alpha: 0.3
            }
        );
        assert_eq!(
            parse_info("ewma:0.5:10").unwrap(),
            InfoSpec::Ewma {
                period: 10.0,
                alpha: 0.5
            }
        );
        assert_eq!(
            parse_info("ma:2,10,30").unwrap(),
            InfoSpec::MultiHorizon {
                period: 1.0,
                windows: [2.0, 10.0, 30.0]
            }
        );
        assert_eq!(
            parse_info("ma:2,10,30:5").unwrap(),
            InfoSpec::MultiHorizon {
                period: 5.0,
                windows: [2.0, 10.0, 30.0]
            }
        );
        // Malformed shapes fail at the parser…
        assert!(parse_info("ewma").is_err());
        assert!(parse_info("ewma:lots").is_err());
        assert!(parse_info("ewma:0.5:soon").is_err());
        assert!(parse_info("ma").is_err());
        assert!(parse_info("ma:2,10").is_err());
        assert!(parse_info("ma:2,10,30,90").is_err());
        assert!(parse_info("ma:2,x,30").is_err());
    }

    #[test]
    fn degenerate_estimator_knobs_are_config_errors() {
        // …and out-of-range values fail InfoSpec::validate in parse_run.
        for alpha in ["0", "-0.5", "1.5", "NaN"] {
            let err = parse_run(&strings(&["--info", &format!("ewma:{alpha}")])).unwrap_err();
            assert!(err.contains("(0, 1]"), "{err}");
        }
        let err = parse_run(&strings(&["--info", "ma:10,2,30"])).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        assert!(parse_run(&strings(&["--info", "ma:0,2,30"])).is_err());
        assert!(parse_run(&strings(&["--info", "ewma:0.5:0"])).is_err());
        assert!(parse_run(&strings(&["--info", "ma:2,10,30:-1"])).is_err());
    }

    #[test]
    fn sketch_cap_flag_parses_and_validates() {
        assert_eq!(
            parse_run(&[]).unwrap().config.sketch_cap,
            staleload_stats::TailSketch::DEFAULT_CAP
        );
        let args = parse_run(&strings(&["--sketch-cap", "128"])).unwrap();
        assert_eq!(args.config.sketch_cap, 128);
        let err = parse_run(&strings(&["--sketch-cap", "0"])).unwrap_err();
        assert!(err.contains("sketch capacity"), "{err}");
        assert!(parse_run(&strings(&["--sketch-cap", "many"])).is_err());
        assert!(parse_run(&strings(&["--sketch-cap"])).is_err());
    }

    #[test]
    fn tail_p_flag_validates() {
        assert_eq!(parse_run(&[]).unwrap().tail_p, None);
        let args = parse_run(&strings(&["--tail-p", "0.95"])).unwrap();
        assert_eq!(args.tail_p, Some(0.95));
        // 0 and 1 are min/max, not interior percentiles; outside [0, 1]
        // and non-finite are not probabilities. All typed errors.
        for bad in ["0", "1", "1.5", "-0.1", "NaN", "inf"] {
            let err = parse_run(&strings(&["--tail-p", bad])).unwrap_err();
            assert!(err.contains("(0, 1)"), "--tail-p {bad}: {err}");
        }
        assert!(parse_run(&strings(&["--tail-p", "soon"])).is_err());
        assert!(parse_run(&strings(&["--tail-p"])).is_err());
    }

    #[test]
    fn uoa_spawns_clients() {
        let args = parse_run(&strings(&["--info", "uoa:8", "--lambda", "0.9"])).unwrap();
        match args.arrivals {
            ArrivalSpec::PoissonClients { clients } => assert_eq!(clients, 720),
            other => panic!("expected clients, got {other:?}"),
        }
        assert!(args.config.arrivals >= 72_000);
        // The age is positive and finite, and 100 arrivals per client fit.
        for bad in ["uoa:-5", "uoa:0", "uoa:nan", "uoa:inf", "uoa:1e30"] {
            assert!(parse_run(&strings(&["--info", bad])).is_err(), "{bad}");
        }
    }

    #[test]
    fn uoa_with_burst() {
        let args = parse_run(&strings(&["--info", "uoa:8", "--burst", "10:1.0"])).unwrap();
        match args.arrivals {
            ArrivalSpec::BurstyClients { burst, .. } => {
                assert_eq!(burst.burst_len, 10);
                assert_eq!(burst.intra_gap_mean, 1.0);
            }
            other => panic!("expected bursty clients, got {other:?}"),
        }
    }

    #[test]
    fn capacity_grammar() {
        assert_eq!(parse_capacities("1.0,2.0").unwrap(), vec![1.0, 2.0]);
        assert_eq!(
            parse_capacities("2x1.5,1x0.5").unwrap(),
            vec![1.5, 1.5, 0.5]
        );
        assert!(parse_capacities("").is_err());
        assert!(parse_capacities("axb").is_err());
    }

    #[test]
    fn service_grammar() {
        assert_eq!(parse_service("exp").unwrap(), Dist::exponential(1.0));
        assert_eq!(parse_service("det").unwrap(), Dist::constant(1.0));
        let bp = parse_service("bp:1.1:100").unwrap();
        assert!((bp.mean() - 1.0).abs() < 1e-6);
        assert!(parse_service("bp:1.1").is_err());
    }

    #[test]
    fn hetero_capacities_resize_servers() {
        let args = parse_run(&strings(&[
            "--capacities",
            "4x1.5,4x0.5",
            "--policy",
            "hetero-li",
            "--lambda",
            "0.7",
        ]))
        .unwrap();
        assert_eq!(args.config.servers, 8);
        assert!(matches!(args.policy, PolicySpec::HeteroLi { .. }));
    }

    #[test]
    fn probe_and_sita_grammar() {
        assert_eq!(
            parse_policy("probe:3:1", 0.9, None).unwrap(),
            PolicySpec::ProbeThreshold {
                probes: 3,
                threshold: 1
            }
        );
        assert!(parse_policy("probe:3", 0.9, None).is_err());
        let args = parse_run(&strings(&[
            "--policy",
            "sita",
            "--service",
            "bp:1.1:100",
            "--servers",
            "10",
        ]))
        .unwrap();
        match args.policy {
            PolicySpec::Sita { boundaries } => assert_eq!(boundaries.len(), 9),
            other => panic!("expected SITA, got {other:?}"),
        }
    }

    #[test]
    fn engine_flag_selects_population_mode() {
        let plain = parse_run(&[]).unwrap();
        assert_eq!(plain.config.engine, EngineMode::PerServer);
        let pop = parse_run(&strings(&["--engine", "population"])).unwrap();
        assert_eq!(pop.config.engine, EngineMode::Population);
        let mf = parse_run(&strings(&["--engine", "mean-field"])).unwrap();
        assert_eq!(mf.config.engine, EngineMode::Population);
        assert!(parse_run(&strings(&["--engine", "quantum"])).is_err());
        // Builder-level compatibility checks surface as parse errors.
        let err = parse_run(&strings(&["--engine", "population", "--service", "det"])).unwrap_err();
        assert!(err.contains("exponential"), "{err}");
        let err = parse_run(&strings(&["--engine", "population", "--queue-cap", "8"])).unwrap_err();
        assert!(err.contains("overload"), "{err}");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(parse_run(&strings(&["--frobnicate", "1"])).is_err());
        // Retired backend knobs: the heap and the alias table are the only
        // event queue and population sampler.
        for (flag, value) in [("--scheduler", "heap"), ("--population-sampler", "alias")] {
            let err = parse_run(&strings(&[flag, value])).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
        assert!(parse_run(&strings(&["--servers"])).is_err());
    }

    #[test]
    fn fault_grammar() {
        let args = parse_run(&strings(&["--faults", "crash:500:20"])).unwrap();
        assert_eq!(args.config.faults, FaultSpec::crash(500.0, 20.0));
        let args = parse_run(&strings(&["--faults", "crash:500:20:redispatch,drop:0.3"])).unwrap();
        let crash = args.config.faults.crash.unwrap();
        assert!(crash.redispatch);
        assert_eq!(args.config.faults.loss.unwrap().drop_prob, 0.3);
        assert!(parse_run(&strings(&["--faults", "crash:0:20"])).is_err());
        assert!(parse_run(&strings(&["--faults", "meteor:1"])).is_err());
    }

    #[test]
    fn overload_flags_parse() {
        let args = parse_run(&strings(&[
            "--queue-cap",
            "8",
            "--deadline",
            "5",
            "--retry",
            "4:0.5:10",
        ]))
        .unwrap();
        assert_eq!(args.config.queue_cap, Some(8));
        assert_eq!(args.config.deadline, Some(5.0));
        let r = args.config.retry.unwrap();
        assert_eq!((r.max_attempts, r.base, r.cap), (4, 0.5, 10.0));

        // Defaults stay off.
        let plain = parse_run(&[]).unwrap();
        assert_eq!(plain.config.queue_cap, None);
        assert_eq!(plain.config.deadline, None);
        assert_eq!(plain.config.retry, None);

        // Malformed or inconsistent specs are rejected with messages.
        assert!(parse_run(&strings(&["--queue-cap", "0"])).is_err());
        assert!(parse_run(&strings(&["--deadline", "-1"])).is_err());
        assert!(parse_run(&strings(&["--retry", "4:0.5"])).is_err());
        assert!(parse_run(&strings(&["--retry", "1:0.5:10", "--queue-cap", "8"])).is_err());
        // Retry without a cap or deadline can never trigger: config error.
        assert!(parse_run(&strings(&["--retry", "4:0.5:10"])).is_err());
    }

    #[test]
    fn watchdog_flag_parses_and_validates() {
        assert_eq!(parse_run(&[]).unwrap().watchdog, None);
        let budget = |v: &str| parse_run(&strings(&["--watchdog", v])).map(|a| a.watchdog);
        assert_eq!(budget("2.5"), Ok(Some(Duration::from_millis(2_500))));
        assert_eq!(budget("1e18"), Ok(Some(Duration::from_secs(10u64.pow(18)))));
        // Out of Duration's range, or rounding to 0 ns: a usage error.
        for bad in ["0", "-3", "inf", "NaN", "1e30", "1e-12"] {
            assert!(budget(bad).unwrap_err().contains("--watchdog"), "{bad}");
        }
        assert!(parse_run(&strings(&["--watchdog"])).is_err());
    }

    #[test]
    fn board_faults_need_a_board_model_at_parse_time() {
        let run = |info, faults| parse_run(&strings(&["--info", info, "--faults", faults]));
        let err = run("ewma:0.3:5", "corrupt:0.2").unwrap_err();
        assert!(err.contains("report corruption needs"), "{err}");
        let err = run("fresh", "drop:0.3").unwrap_err();
        assert!(err.contains("loss injection needs"), "{err}");
        // No-op clauses act on nothing, so any model takes them.
        assert!(run("fresh", "drop:0").is_ok() && run("fresh", "corrupt:0").is_ok());
    }

    #[test]
    fn guard_wraps_policy_outermost() {
        let args = parse_run(&strings(&["--guard", "2:50", "--staleness-cutoff", "25"])).unwrap();
        match args.policy {
            PolicySpec::Guarded {
                threshold,
                cooldown,
                inner,
            } => {
                assert_eq!((threshold, cooldown), (2.0, 50.0));
                assert!(matches!(*inner, PolicySpec::Gated { .. }));
            }
            other => panic!("expected guarded policy, got {other:?}"),
        }
        assert!(parse_run(&strings(&["--guard", "2"])).is_err());
        assert!(parse_run(&strings(&["--guard", "x:50"])).is_err());
        // threshold must exceed 1 (validate() catches it).
        assert!(parse_run(&strings(&["--guard", "0.5:50"])).is_err());
    }

    #[test]
    fn resilience_fault_flags_parse() {
        let args = parse_run(&strings(&[
            "--faults",
            "partition:50:25:0.25:correlated,churn:150:30,corrupt:0.2",
            "--info",
            "periodic:10",
        ]))
        .unwrap();
        let p = args.config.faults.partition.unwrap();
        assert_eq!((p.mtbf, p.duration, p.fraction), (50.0, 25.0, 0.25));
        assert!(p.correlated);
        let c = args.config.faults.churn.unwrap();
        assert_eq!((c.mtbf, c.downtime), (150.0, 30.0));
        assert_eq!(args.config.faults.corrupt.unwrap().fraction, 0.2);

        // The uncorrelated form omits the tag.
        let args = parse_run(&strings(&["--faults", "partition:50:25:0.25"])).unwrap();
        assert!(!args.config.faults.partition.unwrap().correlated);

        // Malformed shapes are rejected with messages, not panics.
        assert!(parse_run(&strings(&["--faults", "partition:50:25"])).is_err());
        assert!(parse_run(&strings(&["--faults", "partition:50:25:0.25:banana"])).is_err());
        assert!(parse_run(&strings(&["--faults", "churn:150"])).is_err());
        assert!(parse_run(&strings(&["--faults", "corrupt:lots"])).is_err());
    }

    #[test]
    fn degenerate_resilience_values_are_config_errors() {
        // Zero-length partition interval.
        assert!(parse_run(&strings(&["--faults", "partition:0:5:0.5"])).is_err());
        assert!(parse_run(&strings(&["--faults", "partition:10:0:0.5"])).is_err());
        // Churn whose downtime would empty the cluster.
        assert!(parse_run(&strings(&["--faults", "churn:10:20"])).is_err());
        // Corruption fraction outside [0, 1].
        assert!(parse_run(&strings(&["--faults", "corrupt:1.5"])).is_err());
        // Hedge factor below 1; quarantine with a zero window.
        assert!(parse_run(&strings(&["--hedge", "0"])).is_err());
        assert!(parse_run(&strings(&["--quarantine", "0:5"])).is_err());
        assert!(parse_run(&strings(&["--quarantine", "15"])).is_err());
        // Churn and crash faults cannot be combined.
        assert!(parse_run(&strings(&["--faults", "crash:500:20,churn:150:30"])).is_err());
        // Naming one fault twice is ambiguous.
        assert!(parse_run(&strings(&[
            "--faults",
            "partition:50:25:0.25,partition:60:20:0.5"
        ]))
        .is_err());
        // --faults is the one spelling of a fault.
        for flag in ["--partition", "--churn", "--corrupt"] {
            let err = parse_run(&strings(&[flag, "0.2"])).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn hedge_and_quarantine_wrap_the_policy() {
        let args = parse_run(&strings(&[
            "--hedge",
            "2",
            "--quarantine",
            "15:10",
            "--staleness-cutoff",
            "25",
        ]))
        .unwrap();
        match args.policy {
            PolicySpec::Hedged { h, inner } => {
                assert_eq!(h, 2);
                match *inner {
                    PolicySpec::Quarantined {
                        window,
                        backoff,
                        inner,
                    } => {
                        assert_eq!((window, backoff), (15.0, 10.0));
                        assert!(matches!(*inner, PolicySpec::Gated { .. }));
                    }
                    other => panic!("expected quarantined under hedge, got {other:?}"),
                }
            }
            other => panic!("expected hedged outermost, got {other:?}"),
        }
        // The guard slots between quarantine and the hedge.
        let args = parse_run(&strings(&["--hedge", "3", "--guard", "2:50"])).unwrap();
        match args.policy {
            PolicySpec::Hedged { h: 3, inner } => {
                assert!(matches!(*inner, PolicySpec::Guarded { .. }));
            }
            other => panic!("expected hedged(guarded), got {other:?}"),
        }
    }

    #[test]
    fn staleness_cutoff_wraps_policy() {
        let args = parse_run(&strings(&["--staleness-cutoff", "25"])).unwrap();
        match args.policy {
            PolicySpec::Gated { cutoff, inner } => {
                assert_eq!(cutoff, 25.0);
                assert_eq!(*inner, PolicySpec::BasicLi { lambda: 0.9 });
            }
            other => panic!("expected gated policy, got {other:?}"),
        }
        assert!(parse_run(&strings(&["--staleness-cutoff", "-3"])).is_err());
    }
}
