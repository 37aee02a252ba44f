//! Resilience under view partitions: mean response time as a growing
//! fraction of the cluster goes invisible to the load board.
//!
//! One sweep at n = 16, lambda = 0.6, T = 10: partition fraction in
//! {0, 0.25, 0.5} (MTBF = 50, duration = 25) across five policies —
//! `random` (immune: never reads the board), `basic-li` (reads the
//! partitioned board naively), `gated basic-li` (staleness cutoff
//! 0.15 T), `hedged basic-li` (dispatch to the best pick plus one hedge
//! replica, first completion wins), and `quarantined basic-li` (eject
//! servers with implausibly stale reports, probe-and-readmit with
//! doubling backoff).
//!
//! The interesting outcome is *which* degraded-information defense pays:
//! hedging recovers partition damage (the loser replica is cancelled, so
//! a blind pick costs one queue slot, not one job), while quarantine
//! does not — partitioned servers are healthy, merely invisible, so
//! ejecting them burns real capacity to avoid an informational problem.
//! EXPERIMENTS.md records that negative result; the `resilience` check
//! only requires that the *better* wrapper beats naive LI.
//!
//! Results go to one long-form CSV (`results/ext_resilience.csv`) whose
//! rows carry the robustness counters (hedges issued/won/cancelled,
//! quarantine ejections/readmissions, partition server-seconds) from a
//! representative single run at the master seed.
//!
//! Checks: hedge bookkeeping balances in every representative run
//! (`bookkeeping`, structural), partitions actually injure the board
//! (`partition`, structural), and the best resilience wrapper strictly
//! beats naive LI at partition fraction 0.25 (`resilience`, statistical).

use staleload_core::{run_simulation, ArrivalSpec, Experiment, FaultSpec, SimConfig};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;

use crate::{lt_sign, publish, row, run_cells, run_trials, table, Check, Outcome, Scale};

const N: usize = 16;
/// Enough headroom that the cluster survives losing sight of half its
/// servers; the damage shows up as herd pile-ups, not saturation.
const LAMBDA: f64 = 0.6;
const PERIOD: f64 = 10.0;
/// Same sub-period staleness gate the `degradation` entry uses (see its
/// rationale).
const CUTOFF: f64 = 0.15 * PERIOD;
const SEED: u64 = 0x5E51;
/// Partition process: on average one partition event per 50 time units,
/// each hiding the chosen servers for 25 — the board is degraded about a
/// third of the time.
const MTBF: f64 = 50.0;
const DURATION: f64 = 25.0;
const FRACTIONS: [f64; 3] = [0.0, 0.25, 0.5];
/// Hedge factor: primary pick plus one replica.
const HEDGE: u32 = 2;
/// Quarantine: eject after 1.5 T without a plausible report, probe again
/// after a backoff that starts at T and doubles.
const Q_WINDOW: f64 = 15.0;
const Q_BACKOFF: f64 = 10.0;

/// The partition fault at `frac` and its CSV label. Fraction 0 is a
/// genuinely fault-free config, so its rows share cache entries (and
/// bits) with every other fault-free sweep.
fn partition_at(frac: f64) -> (FaultSpec, String) {
    if frac > 0.0 {
        (
            FaultSpec::partition(MTBF, DURATION, frac),
            format!("partition:{MTBF}:{DURATION}:{frac}"),
        )
    } else {
        (FaultSpec::none(), "none".to_string())
    }
}

/// The `ext_resilience` entry.
pub fn run(scale: &Scale) -> Outcome {
    let naive = PolicySpec::BasicLi { lambda: LAMBDA };
    let series: Vec<(&str, PolicySpec)> = vec![
        ("random", PolicySpec::Random),
        ("basic-li", naive.clone()),
        (
            "gated basic-li",
            PolicySpec::Gated {
                cutoff: CUTOFF,
                inner: Box::new(naive.clone()),
            },
        ),
        (
            "hedged basic-li",
            PolicySpec::Hedged {
                h: HEDGE,
                inner: Box::new(naive.clone()),
            },
        ),
        (
            "quarantined basic-li",
            PolicySpec::Quarantined {
                window: Q_WINDOW,
                backoff: Q_BACKOFF,
                inner: Box::new(naive.clone()),
            },
        ),
    ];

    // Every (fraction, policy) cell, in CSV row order.
    let mut cells = Vec::new();
    for &frac in &FRACTIONS {
        let (faults, _) = partition_at(frac);
        for (_, policy) in &series {
            let cfg = SimConfig::builder()
                .servers(N)
                .lambda(LAMBDA)
                .arrivals(scale.arrivals)
                .seed(SEED)
                .faults(faults)
                .build();
            cells.push(Experiment::new(
                cfg,
                ArrivalSpec::Poisson,
                InfoSpec::Periodic { period: PERIOD },
                policy.clone(),
                scale.trials,
            ));
        }
    }
    let results = run_cells("ext_resilience", &cells)?;
    // One representative run per cell at the master seed supplies the
    // robustness counters (the cached aggregate keeps only
    // response-time statistics).
    let reps = run_trials(cells.len(), |i| {
        let exp = &cells[i];
        run_simulation(&exp.config, &exp.arrivals, &exp.info, &exp.policy)
            .map(|r| r.resilience)
            .map_err(|e| format!("counter run for {} failed: {e}", exp.policy.label()))
    });

    let mut csv = table([
        "x",
        "fault",
        "policy",
        "mean",
        "ci90",
        "median",
        "trials",
        "hedges_issued",
        "hedges_won",
        "hedges_cancelled",
        "quarantine_ejections",
        "quarantine_readmissions",
        "corrupted_reports",
        "partition_seconds",
    ]);
    let mut headers = vec!["partition frac"];
    headers.extend(series.iter().map(|(label, _)| *label));
    let mut rows = table(&headers);
    // means[series][point], for the resilience check.
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); series.len()];
    let mut unbalanced = None;
    let mut unpartitioned = None;
    let mut results = results.iter();
    let mut reps = reps.into_iter();
    for &frac in &FRACTIONS {
        let (_, fault_label) = partition_at(frac);
        let mut cells = vec![frac.to_string()];
        for (idx, (label, _)) in series.iter().enumerate() {
            let s = &results.next().expect("one result per cell").summary;
            let res = reps.next().expect("one counter run per cell")?;
            if res.hedges_cancelled != res.hedges_issued && unbalanced.is_none() {
                unbalanced = Some(format!(
                    "{label} at fraction {frac} issued {} hedges but cancelled {}",
                    res.hedges_issued, res.hedges_cancelled
                ));
            }
            if frac > 0.0 && res.partition_seconds <= 0.0 && unpartitioned.is_none() {
                unpartitioned = Some(format!(
                    "{label} at fraction {frac} saw no partition-seconds"
                ));
            }
            means[idx].push(s.mean);
            cells.push(format!("{:.3} ±{:.3}", s.mean, s.ci90));
            csv.push_row(row(&[
                &frac,
                &fault_label,
                label,
                &s.mean,
                &s.ci90,
                &s.median,
                &s.trials,
                &res.hedges_issued,
                &res.hedges_won,
                &res.hedges_cancelled,
                &res.quarantine_ejections,
                &res.quarantine_readmissions,
                &res.corrupted_reports,
                &res.partition_seconds,
            ]));
        }
        rows.push_row(cells);
    }
    publish(
        "ext_resilience",
        &format!(
            "Resilience under view partitions, n={N}, lambda={LAMBDA}, T={PERIOD}, \
             MTBF={MTBF}, duration={DURATION}"
        ),
        &rows,
        &csv,
    )?;

    let bookkeeping = Check::structural(
        "bookkeeping",
        unbalanced.is_none(),
        unbalanced.unwrap_or_else(|| {
            "every hedge replica was cancelled or won in all representative runs".into()
        }),
    );
    let partition = Check::structural(
        "partition",
        unpartitioned.is_none(),
        unpartitioned.unwrap_or_else(|| "every faulted cell accumulated partition-seconds".into()),
    );

    // At partition fraction 0.25, the better resilience wrapper must
    // strictly beat naive LI. In practice hedging carries this check and
    // quarantine loses to naive LI here (healthy servers ejected for an
    // informational fault) — both numbers are printed so the comparison
    // stays visible.
    let at = FRACTIONS
        .iter()
        .position(|&f| f == 0.25)
        .expect("0.25 is in the sweep");
    let naive_mean = means[1][at];
    let hedged_mean = means[3][at];
    let quarantined_mean = means[4][at];
    let best = hedged_mean.min(quarantined_mean);
    let pass = best < naive_mean;
    let resilience = Check::statistical(
        "resilience",
        pass,
        format!(
            "best wrapper {best:.3} {} naive {naive_mean:.3} at fraction 0.25 \
             (hedged {hedged_mean:.3}, quarantined {quarantined_mean:.3})",
            lt_sign(pass)
        ),
    );
    Ok(vec![bookkeeping, partition, resilience])
}
