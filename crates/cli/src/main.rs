//! `staleload` — command-line front end for the stale-load-information
//! simulator.
//!
//! ```text
//! staleload run     [flags]   # one policy, full statistics
//! staleload compare [flags]   # panel of standard policies, one table
//! staleload rank --n <N> --k <K1,K2,...>   # analytic Eq. 1 distribution
//! staleload theory --lambda <L> [--servers <N>]  # closed-form anchors
//! staleload help
//! ```
//!
//! Common flags for `run`/`compare`:
//! `--servers N --lambda F --arrivals N --trials N --seed N`
//! `--policy <spec>` (run only), `--info <spec>`, `--service <spec>`,
//! `--capacities <spec>`, `--stealing <MIN>`, `--burst <LEN>:<GAP>`,
//! `--queue-cap <N>`, `--deadline <T>`, `--retry <MAX>:<BASE>:<CAP>`,
//! `--guard <THR>:<COOLDOWN>`, `--faults <spec>`, `--hedge <H>`,
//! `--quarantine <WINDOW>:<BACKOFF>`, `--engine <per-server|population>`,
//! `--watchdog <SECS>`, `--detail`.

#![forbid(unsafe_code)]
// The CLI is a terminal tool; stdout is its interface.
#![allow(clippy::print_stdout)]

mod args;

use std::process::ExitCode;

use args::{parse_run, RunArgs};
use staleload_core::Experiment;
use staleload_policies::{rank_distribution, PolicySpec};
use staleload_runner::{ResultCache, SweepRunner, WatchdogSpec, WorkerPool};
use staleload_stats::Table;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("help", &[][..]),
    };
    let result = match command {
        "run" | "compare" if rest.iter().any(|a| a == "--help" || a == "-h") => {
            print_help();
            Ok(())
        }
        "run" => parse_run(rest).and_then(|a| cmd_run(&a)),
        "compare" => parse_run(rest).and_then(|a| cmd_compare(&a)),
        "rank" => cmd_rank(rest),
        "theory" => cmd_theory(rest),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try `staleload help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "staleload — load balancing with stale information (Dahlin, ICDCS 1999)\n\n\
         USAGE:\n  staleload run     [flags]   one policy, full statistics\n  \
         staleload compare [flags]   standard policy panel as a table\n  \
         staleload rank --n <N> --k <K,...>   analytic k-subset rank distribution\n  \
         staleload theory --lambda <L> [--servers <N>]   closed-form anchors\n\n\
         FLAGS (run/compare):\n  \
         --servers N        number of servers (100)\n  \
         --lambda F         per-server load (0.9)\n  \
         --arrivals N       jobs per trial (200000)\n  \
         --trials N         independent seeds (5)\n  \
         --seed N           master seed (1)\n  \
         --policy SPEC      random | greedy | k:<K> | threshold:<T> | basic-li |\n                     \
         aggressive-li | hybrid-li | li:<K> | decay:<TAU> |\n                     \
         adaptive-li | hetero-li\n  \
         --info SPEC        fresh | periodic:<T> | continuous:<const|unarrow|uwide|exp>:<T>[:actual] | uoa:<T> |\n                     \
         ewma:<ALPHA>[:<T>] | ma:<W1>,<W2>,<W3>[:<T>]\n  \
         --service SPEC     exp | det | bp:<ALPHA>:<MAX>\n  \
         --capacities SPEC  e.g. 50x1.6,50x0.4 (enables heterogeneous cluster)\n  \
         --stealing MIN     idle servers steal from queues of length >= MIN\n  \
         --burst LEN:GAP    bursty update-on-access clients\n  \
         --faults SPEC      none, or clauses joined by commas (e.g. crash:500:20,drop:0.3)\n                     \
         crash:<MTBF>:<MTTR>[:redispatch] | drop:<P> | delay:<MEAN>\n                     \
         partition:<MTBF>:<DUR>:<FRAC>[:correlated]  a FRAC subset of\n                     \
         servers goes invisible to the board for DUR (contiguous block\n                     \
         when correlated), healing and re-striking with mean MTBF\n                     \
         churn:<MTBF>:<DOWNTIME>  servers leave with mean MTBF (queues\n                     \
         handed off) and rejoin cold after DOWNTIME\n                     \
         corrupt:<FRAC>  garble FRAC of load reports in flight (zeroed,\n                     \
         stuck, or scaled 8x)\n  \
         --staleness-cutoff AGE  hide board entries older than AGE from the policy\n  \
         --queue-cap N      bound each server queue at N jobs; excess arrivals are rejected\n  \
         --deadline T       jobs still waiting after T renege (abandon the queue)\n  \
         --retry MAX:BASE:CAP  rejected/reneged jobs retry up to MAX attempts after\n                     \
         decorrelated-jitter backoff in [BASE, CAP]\n  \
         --guard THR:COOLDOWN  circuit breaker: fall back to random routing for\n                     \
         COOLDOWN time when dispatch concentration exceeds THR (>1)\n  \
         --hedge H          dispatch each job to H servers, first completion wins,\n                     \
         losers cancelled (needs a plain FIFO config)\n  \
         --quarantine WINDOW:BACKOFF  eject servers whose reports are older than\n                     \
         WINDOW, probe for readmission after BACKOFF (doubling)\n  \
         --engine MODE      state representation: per-server (default) or\n                     \
         population (count-based mean-field fast path; exact in\n                     \
         distribution for random/k-subset/greedy/basic-li over\n                     \
         fresh or periodic info, scales to millions of servers)\n  \
         --watchdog SECS    per-trial wall-clock budget; a trial still running\n                     \
         when it runs out stops and is reported as a failed\n                     \
         trial instead of hanging the run\n  \
         --sketch-cap N     exact-mode capacity of the tail-quantile sketch before\n                     \
         it compacts onto the log grid (4096)\n  \
         --tail-p P         report one extra response-time percentile under\n                     \
         --detail; P strictly in (0, 1), e.g. 0.95\n  \
         --detail           print tail latencies, fairness, occupancy\n\n\
         EXAMPLES:\n  \
         staleload compare --info periodic:10\n  \
         staleload run --policy basic-li --info continuous:exp:5:actual --detail\n  \
         staleload run --policy hetero-li --capacities 50x1.6,50x0.4 --lambda 0.7\n  \
         staleload run --faults crash:500:20,drop:0.5 --staleness-cutoff 25\n  \
         staleload run --queue-cap 10 --deadline 20 --retry 5:1:30 --guard 2:100 --detail\n  \
         staleload run --faults partition:50:25:0.25 --quarantine 15:10 --detail\n  \
         staleload run --hedge 2 --faults churn:150:30,corrupt:0.1 --detail"
    );
}

/// The runner behind `run` and `compare`: one worker per available
/// core, no result cache, and the per-trial wall-clock watchdog armed
/// only under `--watchdog`. A trial that outlives the budget stops and is
/// reported as a failed trial (surfaced by `report_anomalies`), never a
/// hang; the aggregates then cover the surviving trials only. Results
/// are bit-identical to `Experiment::try_run`, armed or not, whenever no
/// trial times out.
fn runner(args: &RunArgs) -> SweepRunner {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut runner = SweepRunner::new(WorkerPool::new(workers), ResultCache::disabled());
    runner.set_watchdog(args.watchdog.map(WatchdogSpec::with_budget));
    runner
}

fn cmd_run(args: &RunArgs) -> Result<(), String> {
    let exp = Experiment::new(
        args.config.clone(),
        args.arrivals,
        args.info,
        args.policy.clone(),
        args.trials,
    );
    println!(
        "{} | {} | n={} lambda={} arrivals={} trials={}",
        args.policy.label(),
        args.info.label(),
        args.config.servers,
        args.config.lambda,
        args.config.arrivals,
        args.trials
    );
    let result = runner(args).run_one(&exp).map_err(|e| e.to_string())?;
    let s = &result.summary;
    println!(
        "mean response : {:.4} ±{:.4} (90% CI over {} trials)",
        s.mean, s.ci90, s.trials
    );
    println!(
        "median        : {:.4}  [q1 {:.4}, q3 {:.4}]",
        s.median, s.q1, s.q3
    );
    println!("range         : [{:.4}, {:.4}]", s.min, s.max);
    let t = &result.tail;
    println!(
        "p50/p99/p999  : {:.4} / {:.4} / {:.4} (max {:.4} over {} measured jobs, all trials)",
        t.p50, t.p99, t.p999, t.max, t.count
    );
    report_anomalies(&result);
    if args.detail {
        // One representative run for tails/fairness (trial 0's seed).
        let mut cfg = args.config.clone();
        cfg.seed = staleload_core::trial_seed(args.config.seed, 0);
        let r = staleload_core::run_simulation(&cfg, &args.arrivals, &args.info, &args.policy)
            .map_err(|e| e.to_string())?;
        let d = &r.detail;
        println!("--- detail (trial 0) ---");
        println!(
            "p50/p95/p99/p999: {:.3} / {:.3} / {:.3} / {:.3} (max {:.3})",
            d.response_quantile(0.50),
            d.response_quantile(0.95),
            d.response_quantile(0.99),
            d.response_quantile(0.999),
            r.response.max()
        );
        if let Some(p) = args.tail_p {
            println!("p{} (requested): {:.3}", p * 100.0, d.response_quantile(p));
        }
        println!(
            "mean in system: {:.2} (peak {:.0})",
            d.mean_jobs_in_system(r.end_time),
            d.peak_jobs_in_system()
        );
        println!("utilization   : mean {:.3}", d.mean_utilization(r.end_time));
        println!(
            "fairness      : {:.4} (Jain index of per-server throughput)",
            d.throughput_fairness()
        );
        if r.faults != staleload_core::FaultStats::default() {
            let f = &r.faults;
            println!(
                "faults        : {} crashes, {} recoveries, {:.1} downtime, {} redispatched, {} redirected",
                f.crashes, f.recoveries, f.downtime, f.redispatched, f.redirected
            );
        }
        if !r.overload.is_zero() {
            let o = &r.overload;
            println!(
                "overload      : {} rejected, {} reneged, {} retries, {} abandoned",
                o.rejected, o.reneged, o.retries, o.abandoned
            );
            println!(
                "goodput       : {:.4} of {:.4} offered ({:.1}% lost), amplification {:.3}",
                r.goodput(),
                r.offered_throughput(),
                100.0 * o.abandoned as f64 / r.generated as f64,
                o.retry_amplification(r.generated)
            );
            println!("recovery time : {:.1}", d.time_to_recovery());
        }
        if !r.resilience.is_zero() {
            let res = &r.resilience;
            println!(
                "resilience    : {} hedges ({} won, {} cancelled), {} ejections, \
                 {} readmissions, {} corrupted, {:.1} partition-seconds",
                res.hedges_issued,
                res.hedges_won,
                res.hedges_cancelled,
                res.quarantine_ejections,
                res.quarantine_readmissions,
                res.corrupted_reports,
                res.partition_seconds
            );
            if res.hedges_issued > 0 {
                println!("hedge win rate: {:.3}", res.hedge_win_rate());
            }
        }
    }
    Ok(())
}

/// Prints the loud warnings: failed trials and per-run diagnostics (e.g.
/// history misses, which mean the staleness numbers cannot be trusted).
fn report_anomalies(result: &staleload_core::ExperimentResult) {
    for failure in &result.failures {
        eprintln!("WARNING       : {failure}");
    }
    if !result.failures.is_empty() {
        eprintln!(
            "WARNING       : {} of {} trials failed; aggregates cover the survivors only",
            result.failures.len(),
            result.failures.len() + result.trial_means.len()
        );
    }
    for diagnostic in &result.diagnostics {
        eprintln!("WARNING       : {diagnostic}");
    }
}

fn cmd_compare(args: &RunArgs) -> Result<(), String> {
    let lambda = args.config.lambda;
    let panel: Vec<PolicySpec> = vec![
        PolicySpec::Random,
        PolicySpec::KSubset { k: 2 },
        PolicySpec::KSubset { k: 3 },
        PolicySpec::Greedy,
        PolicySpec::BasicLi { lambda },
        PolicySpec::AggressiveLi { lambda },
    ];
    println!(
        "{} | n={} lambda={} arrivals={} trials={}",
        args.info.label(),
        args.config.servers,
        args.config.lambda,
        args.config.arrivals,
        args.trials
    );
    let mut table = Table::new(vec![
        "policy".into(),
        "mean response".into(),
        "p99".into(),
        "vs random".into(),
    ]);
    let experiments: Vec<Experiment> = panel
        .into_iter()
        .map(|policy| {
            Experiment::new(
                args.config.clone(),
                args.arrivals,
                args.info,
                policy,
                args.trials,
            )
        })
        .collect();
    let results = runner(args).run_batch(&experiments);
    let mut baseline = None;
    for (exp, r) in experiments.iter().zip(results) {
        let label = exp.policy.label();
        let r = r.map_err(|e| e.to_string())?;
        report_anomalies(&r);
        let mean = r.summary.mean;
        let base = *baseline.get_or_insert(mean);
        table.push_row(vec![
            label,
            format!("{:.3} ±{:.3}", mean, r.summary.ci90),
            format!("{:.3}", r.tail.p99),
            format!("{:+.1}%", 100.0 * (mean - base) / base),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn cmd_rank(rest: &[String]) -> Result<(), String> {
    let mut n = 100usize;
    let mut ks: Vec<usize> = vec![1, 2, 3, 10];
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--n" => {
                n = it
                    .next()
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|e| format!("--n: {e}"))?;
            }
            "--k" => {
                ks = it
                    .next()
                    .ok_or("--k needs a value")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("bad k '{s}'")))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    for &k in &ks {
        if k == 0 || k > n {
            return Err(format!("k = {k} must be in 1..={n}"));
        }
    }
    let mut headers = vec!["rank".to_string()];
    headers.extend(ks.iter().map(|k| format!("k={k}")));
    let mut table = Table::new(headers);
    let dists: Vec<Vec<f64>> = ks.iter().map(|&k| rank_distribution(n, k)).collect();
    for rank in 0..n.min(20) {
        let mut row = vec![rank.to_string()];
        row.extend(dists.iter().map(|d| format!("{:.5}", d[rank])));
        table.push_row(row);
    }
    println!("k-subset request fraction by load rank (paper Eq. 1), n = {n}:");
    print!("{}", table.render());
    Ok(())
}

fn cmd_theory(rest: &[String]) -> Result<(), String> {
    let mut lambda = 0.9f64;
    let mut servers = 100usize;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--lambda" => {
                lambda = it
                    .next()
                    .ok_or("--lambda needs a value")?
                    .parse()
                    .map_err(|e| format!("--lambda: {e}"))?;
            }
            "--servers" => {
                servers = it
                    .next()
                    .ok_or("--servers needs a value")?
                    .parse()
                    .map_err(|e| format!("--servers: {e}"))?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !(lambda > 0.0 && lambda < 1.0) {
        return Err(format!("lambda must be in (0,1), got {lambda}"));
    }
    println!("closed-form anchors at per-server load {lambda}, n = {servers}:");
    println!(
        "  M/M/1 (random split) mean response : {:.4}",
        staleload_analytic::mm1_response(lambda)
    );
    println!(
        "  M/D/1 (deterministic service)      : {:.4}",
        staleload_analytic::md1_response(lambda)
    );
    println!(
        "  M/M/n central queue (lower bound)  : {:.4}",
        staleload_analytic::mmn_response(servers, lambda)
    );
    println!(
        "  Erlang-C waiting probability       : {:.6}",
        staleload_analytic::erlang_c(servers, lambda)
    );
    Ok(())
}
