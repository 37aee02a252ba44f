//! Degradation curves: mean response time as the information plane (and
//! then the servers themselves) degrade.
//!
//! Two sweeps at n = 16, lambda = 0.9, T = 10, written to one long-form
//! CSV (`results/degradation.csv`, `fault` column distinguishing rows):
//!
//! 1. **Dropped updates** — per-entry drop probability of a lossy
//!    periodic channel (`FaultSpec::drop(p)`) across four policies:
//!    `random` (immune by construction), `basic-li` (reads the lossy
//!    board naively), `gated basic-li` (hides entries older than the
//!    staleness cutoff), and `fresh basic-li` (perfect-information lower
//!    bound, no faults).
//! 2. **Server crashes** — `FaultSpec::crash(MTBF, MTTR)` at MTBF = 300,
//!    sweeping MTTR, with and without re-dispatching the crashed
//!    server's queue. Stall mode strands queued jobs for the outage;
//!    re-dispatch moves them to up servers at crash time. At λ = 0.9
//!    the cluster has only 10% headroom, so the longer outages push it
//!    past saturation — the sweep deliberately crosses that cliff, and
//!    re-dispatching onto saturated survivors buys nothing there.
//!
//! Checks (all statistical): the gated policy strictly beats naive LI at
//! drop 0.5 (`gate`), response degrades monotonically with outage length
//! (`crash`), and LI's advantage over Random survives brief crashes
//! (`crash-li`).

use staleload_core::{ArrivalSpec, Experiment, FaultSpec, SimConfig};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;

use crate::{lt_sign, print_table, publish, row, run_cells, table, Check, Outcome, Scale};

const N: usize = 16;
const LAMBDA: f64 = 0.9;
const PERIOD: f64 = 10.0;
/// 0.15 T: trust the board only briefly after each refresh, then fall
/// back to Random. Cutoffs in `[T, ~8 T]` are strictly worse than naive
/// LI here: masking a dropped entry zeroes that server's share, and the
/// expected masked fraction `p^floor(cutoff/T)` then exceeds the
/// `1 - lambda` headroom, driving the surviving servers past
/// saturation. A sub-period cutoff instead bounds the damage — LI while
/// the information is demonstrably fresh, Random once it is not — and
/// beats naive LI from drop 0.5 up and degrades toward Random instead
/// of collapsing (naive LI is ~26x Random at drop 0.9).
const CUTOFF: f64 = 0.15 * PERIOD;
const SEED: u64 = 0xDE64;
const DROPS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 0.9];
const MTBF: f64 = 300.0;
const MTTRS: [f64; 3] = [10.0, 40.0, 160.0];

fn cell(scale: &Scale, policy: &PolicySpec, info: InfoSpec, faults: FaultSpec) -> Experiment {
    let cfg = SimConfig::builder()
        .servers(N)
        .lambda(LAMBDA)
        .arrivals(scale.arrivals)
        .seed(SEED)
        .faults(faults)
        .build();
    Experiment::new(
        cfg,
        ArrivalSpec::Poisson,
        info,
        policy.clone(),
        scale.trials,
    )
}

/// The `degradation` entry.
pub fn run(scale: &Scale) -> Outcome {
    let naive = PolicySpec::BasicLi { lambda: LAMBDA };
    let gated = PolicySpec::Gated {
        cutoff: CUTOFF,
        inner: Box::new(naive.clone()),
    };
    let periodic = InfoSpec::Periodic { period: PERIOD };

    // (label, policy, info model, subject to the lossy channel?). The
    // fresh-info bound has no board, so the drop fault does not apply.
    let drop_series: Vec<(&str, PolicySpec, InfoSpec, bool)> = vec![
        ("random", PolicySpec::Random, periodic, true),
        ("basic-li", naive.clone(), periodic, true),
        ("gated basic-li", gated, periodic, true),
        (
            "fresh basic-li",
            PolicySpec::BasicLi { lambda: LAMBDA },
            InfoSpec::Fresh,
            false,
        ),
    ];
    // (label, policy, redispatch?)
    let crash_series: Vec<(&str, PolicySpec, bool)> = vec![
        ("random (stall)", PolicySpec::Random, false),
        ("basic-li (stall)", naive.clone(), false),
        ("basic-li (redispatch)", naive, true),
    ];

    // Every cell of both sweeps, in CSV row order, as one batch.
    let mut cells = Vec::new();
    for &p in &DROPS {
        for (_, policy, info, lossy) in &drop_series {
            let faults = if *lossy {
                FaultSpec::drop(p)
            } else {
                FaultSpec::none()
            };
            cells.push(cell(scale, policy, *info, faults));
        }
    }
    for &mttr in &MTTRS {
        for (_, policy, redispatch) in &crash_series {
            let mut faults = FaultSpec::crash(MTBF, mttr);
            if let Some(crash) = faults.crash.as_mut() {
                crash.redispatch = *redispatch;
            }
            cells.push(cell(scale, policy, periodic, faults));
        }
    }
    let mut results = run_cells("degradation", &cells)?.into_iter();

    let mut csv = table(["x", "fault", "policy", "mean", "ci90", "median", "trials"]);
    let mut headers = vec!["drop p"];
    headers.extend(drop_series.iter().map(|(label, ..)| *label));
    let mut drop_table = table(&headers);
    // drop_means[series][point], for the checks below.
    let mut drop_means: Vec<Vec<f64>> = vec![Vec::new(); drop_series.len()];
    for &p in &DROPS {
        let mut cells = vec![p.to_string()];
        for (idx, (label, ..)) in drop_series.iter().enumerate() {
            let s = results.next().expect("one result per cell").summary;
            drop_means[idx].push(s.mean);
            cells.push(format!("{:.3} ±{:.3}", s.mean, s.ci90));
            let fault = format!("drop:{p}");
            csv.push_row(row(&[
                &p, &fault, label, &s.mean, &s.ci90, &s.median, &s.trials,
            ]));
        }
        drop_table.push_row(cells);
    }

    let mut headers = vec!["MTTR"];
    headers.extend(crash_series.iter().map(|(label, ..)| *label));
    let mut crash_table = table(&headers);
    let mut crash_means: Vec<Vec<f64>> = vec![Vec::new(); crash_series.len()];
    for &mttr in &MTTRS {
        let mut cells = vec![mttr.to_string()];
        for (idx, (label, _, redispatch)) in crash_series.iter().enumerate() {
            let s = results.next().expect("one result per cell").summary;
            crash_means[idx].push(s.mean);
            cells.push(format!("{:.3} ±{:.3}", s.mean, s.ci90));
            let fault = if *redispatch {
                format!("crash:{MTBF}:{mttr}:redispatch")
            } else {
                format!("crash:{MTBF}:{mttr}")
            };
            csv.push_row(row(&[
                &mttr, &fault, label, &s.mean, &s.ci90, &s.median, &s.trials,
            ]));
        }
        crash_table.push_row(cells);
    }

    print_table(
        &format!("Degradation under dropped updates, n={N}, lambda={LAMBDA}, T={PERIOD}"),
        &drop_table,
    );
    publish(
        "degradation",
        &format!("Degradation under crashes, MTBF={MTBF}, n={N}, lambda={LAMBDA}, T={PERIOD}"),
        &crash_table,
        &csv,
    )?;

    // The staleness gate must pay for itself once half of all updates
    // are lost.
    let at = DROPS
        .iter()
        .position(|&p| p == 0.5)
        .expect("0.5 is in the sweep");
    let (naive_mean, gated_mean) = (drop_means[1][at], drop_means[2][at]);
    let pass = gated_mean < naive_mean;
    let gate = Check::statistical(
        "gate",
        pass,
        format!(
            "gated {gated_mean:.3} {} naive {naive_mean:.3} at drop 0.5",
            lt_sign(pass)
        ),
    );

    // Longer outages must hurt, monotonically, for every series (the
    // sweep crosses the saturation cliff, so the jumps are large;
    // equality would flag a broken fault process).
    let improved = crash_series
        .iter()
        .zip(&crash_means)
        .find_map(|((label, ..), means)| {
            means.windows(2).find(|w| w[1] <= w[0]).map(|w| {
                format!(
                    "{label} improved from {:.3} to {:.3} as MTTR grew",
                    w[0], w[1]
                )
            })
        });
    let crash = match improved {
        Some(detail) => Check::statistical("crash", false, detail),
        None => Check::statistical(
            "crash",
            true,
            "response degrades monotonically with MTTR for all series",
        ),
    };

    // Stale LI still pays for itself under brief outages (the stable end
    // of the sweep).
    let (random_stall, li_stall) = (crash_means[0][0], crash_means[1][0]);
    let pass = li_stall < random_stall;
    let crash_li = Check::statistical(
        "crash-li",
        pass,
        format!(
            "basic-li {li_stall:.3} {} random {random_stall:.3} at MTTR {}",
            lt_sign(pass),
            MTTRS[0]
        ),
    );
    Ok(vec![gate, crash, crash_li])
}
