//! Transient-overload sweep: what the overload control plane buys when a
//! bursty workload pushes a stale-information cluster past saturation.
//!
//! An MMPP-2 arrival stream alternates a long λ = 0.9 phase with λ = 1.3
//! bursts (mean load 0.98) over n = 16 servers reading a periodic board
//! (T = 60, a full burst stale). Each policy runs under four control
//! regimes:
//!
//! * `none`    — the uncontrolled simulator: infinite queues, infinite
//!   patience; overload turns into unbounded backlog.
//! * `caps`    — bounded queues (rejection) plus per-job deadlines
//!   (reneging); bounced jobs are lost.
//! * `retry`   — caps plus the retry orbit: bounced jobs re-enter after
//!   decorrelated-jitter backoff, up to a max attempt budget.
//! * `full`    — retry plus the herd circuit breaker, which demotes the
//!   policy to random routing while dispatch concentration is pathological.
//!
//! Policies: `random` (herd-immune baseline), `basic-li` (the paper's
//! policy, reads the stale board naively), `gated basic-li` (ignores
//! entries older than a staleness cutoff).
//!
//! Per cell the CSV (`results/overload.csv`) records goodput, offered
//! throughput, mean response, loss/renege/retry counters, peak backlog,
//! and the time-to-recovery proxy (how long the backlog stayed at or
//! above half its peak), averaged over trials.
//!
//! Checks (all statistical): uncontrolled Basic LI visibly loses goodput
//! through the transient — a backlog tail that far outlives the burst
//! and waits an order of magnitude past the controlled run's
//! (`transient`) — while the full control plane keeps goodput within 10%
//! of Random's under the same controls, shedding a bounded fraction
//! (`bounded-loss`), and bounds the backlog at the cap (`recovery`).

use staleload_core::{run_simulation, trial_seed, ArrivalSpec, RetrySpec, SimConfig};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;

use crate::{publish, row, run_trials, table, Check, Outcome, Scale};

const N: usize = 16;
/// Mean load: 80% of time at 0.9, 20% at 1.3.
const LAMBDA: f64 = 0.98;
const RATE_RATIO: f64 = 1.3 / 0.9;
const HIGH_FRACTION: f64 = 0.2;
const CYCLE_MEAN: f64 = 400.0;
const PERIOD: f64 = 60.0;
const CUTOFF: f64 = 1.5;
const SEED: u64 = 0x07E6;
const QUEUE_CAP: u32 = 10;
const DEADLINE: f64 = 20.0;
const RETRY: RetrySpec = RetrySpec {
    max_attempts: 5,
    base: 1.0,
    cap: 30.0,
};
const GUARD_THRESHOLD: f64 = 2.0;
const GUARD_COOLDOWN: f64 = 100.0;

#[derive(Clone, Copy, PartialEq)]
enum Controls {
    None,
    Caps,
    Retry,
    Full,
}

impl Controls {
    const ALL: [Controls; 4] = [Self::None, Self::Caps, Self::Retry, Self::Full];

    fn label(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Caps => "caps",
            Self::Retry => "retry",
            Self::Full => "full",
        }
    }
}

/// Per-cell metrics: one trial's, or their mean over trials.
struct Cell {
    goodput: f64,
    offered: f64,
    mean_response: f64,
    rejection_rate: f64,
    renege_rate: f64,
    amplification: f64,
    loss_frac: f64,
    peak_backlog: f64,
    recovery: f64,
}

impl Cell {
    fn fields(&self) -> [f64; 9] {
        [
            self.goodput,
            self.offered,
            self.mean_response,
            self.rejection_rate,
            self.renege_rate,
            self.amplification,
            self.loss_frac,
            self.peak_backlog,
            self.recovery,
        ]
    }

    /// The per-field mean of `trials`, summed in trial order.
    fn mean(trials: &[Cell]) -> Cell {
        let mut sums = [0.0; 9];
        for trial in trials {
            for (sum, x) in sums.iter_mut().zip(trial.fields()) {
                *sum += x;
            }
        }
        let [goodput, offered, mean_response, rejection_rate, renege_rate, amplification, loss_frac, peak_backlog, recovery] =
            sums.map(|sum| sum / trials.len() as f64);
        Cell {
            goodput,
            offered,
            mean_response,
            rejection_rate,
            renege_rate,
            amplification,
            loss_frac,
            peak_backlog,
            recovery,
        }
    }
}

/// One trial of `policy` under `controls`.
fn run_trial(
    arrivals: u64,
    policy: &PolicySpec,
    controls: Controls,
    trial: usize,
) -> Result<Cell, String> {
    let mut builder = SimConfig::builder();
    builder
        .servers(N)
        .lambda(LAMBDA)
        .arrivals(arrivals)
        .seed(trial_seed(SEED, trial));
    if controls != Controls::None {
        builder.queue_cap(QUEUE_CAP).deadline(DEADLINE);
    }
    if matches!(controls, Controls::Retry | Controls::Full) {
        builder.retry(RETRY);
    }
    let cfg = builder.try_build().map_err(|e| e.to_string())?;
    let policy = if controls == Controls::Full {
        PolicySpec::Guarded {
            threshold: GUARD_THRESHOLD,
            cooldown: GUARD_COOLDOWN,
            inner: Box::new(policy.clone()),
        }
    } else {
        policy.clone()
    };
    let mmpp = ArrivalSpec::Mmpp {
        rate_ratio: RATE_RATIO,
        high_fraction: HIGH_FRACTION,
        cycle_mean: CYCLE_MEAN,
    };
    let info = InfoSpec::Periodic { period: PERIOD };
    let r = run_simulation(&cfg, &mmpp, &info, &policy).map_err(|e| e.to_string())?;
    Ok(Cell {
        goodput: r.goodput(),
        offered: r.offered_throughput(),
        mean_response: r.mean_response,
        rejection_rate: r.overload.rejection_rate(r.generated),
        renege_rate: r.overload.renege_rate(r.generated),
        amplification: r.overload.retry_amplification(r.generated),
        loss_frac: r.overload.abandoned as f64 / r.generated as f64,
        peak_backlog: r.detail.peak_jobs_in_system(),
        recovery: r.detail.time_to_recovery(),
    })
}

/// The `overload` entry.
pub fn run(scale: &Scale) -> Outcome {
    let policies: Vec<(&str, PolicySpec)> = vec![
        ("random", PolicySpec::Random),
        ("basic-li", PolicySpec::BasicLi { lambda: LAMBDA }),
        (
            "gated basic-li",
            PolicySpec::Gated {
                cutoff: CUTOFF,
                inner: Box::new(PolicySpec::BasicLi { lambda: LAMBDA }),
            },
        ),
    ];
    // Every (policy, controls, trial) as one batch of tasks on the shared
    // pool. Each task is a pure function of its index and the means
    // below sum in trial order, so a cell is bit-identical to a
    // sequential loop over its trials.
    let grid: Vec<(&str, &PolicySpec, Controls)> = policies
        .iter()
        .flat_map(|(label, p)| Controls::ALL.map(|c| (*label, p, c)))
        .collect();
    let trials = scale.trials;
    let per_trial = run_trials(grid.len() * trials, |i| {
        let (label, policy, controls) = grid[i / trials];
        run_trial(scale.arrivals, policy, controls, i % trials)
            .map_err(|e| format!("{label}/{} failed: {e}", controls.label()))
    })
    .into_iter()
    .collect::<Result<Vec<Cell>, String>>()?;
    // One mean per grid cell, in grid (policy-major) order.
    let cells: Vec<Cell> = per_trial.chunks(trials).map(Cell::mean).collect();
    let at = |policy: usize, controls: Controls| {
        &cells[policy * Controls::ALL.len() + controls as usize]
    };

    let mut rows = table([
        "policy",
        "controls",
        "goodput",
        "mean resp",
        "lost",
        "peak",
        "recovery",
    ]);
    let mut csv = table([
        "policy",
        "controls",
        "goodput",
        "offered",
        "mean_response",
        "rejection_rate",
        "renege_rate",
        "retry_amplification",
        "loss_frac",
        "peak_backlog",
        "time_to_recovery",
        "trials",
    ]);
    for ((label, _, controls), cell) in grid.iter().zip(&cells) {
        rows.push_row(vec![
            label.to_string(),
            controls.label().to_string(),
            format!("{:.4}", cell.goodput),
            format!("{:.3}", cell.mean_response),
            format!("{:.2}%", 100.0 * cell.loss_frac),
            format!("{:.0}", cell.peak_backlog),
            format!("{:.1}", cell.recovery),
        ]);
        csv.push_row(row(&[
            label,
            &controls.label(),
            &cell.goodput,
            &cell.offered,
            &cell.mean_response,
            &cell.rejection_rate,
            &cell.renege_rate,
            &cell.amplification,
            &cell.loss_frac,
            &cell.peak_backlog,
            &cell.recovery,
            &trials,
        ]));
    }
    publish(
        "overload",
        &format!(
            "Transient overload (MMPP {:.1}->{:.1}, mean {LAMBDA}), n={N}, T={PERIOD}",
            0.9,
            0.9 * RATE_RATIO
        ),
        &rows,
        &csv,
    )?;

    // Goodput alone cannot distinguish the uncontrolled runs (nothing is
    // abandoned, so goodput equals offered throughput and the harm is
    // time-shifted into the backlog), so "losing goodput through the
    // transient" is checked on its observable consequences: waits an
    // order of magnitude past the controlled run's and a backlog tail
    // that outlives the burst many times over.
    let li_none = at(1, Controls::None);
    let (random_full, li_full) = (at(0, Controls::Full), at(1, Controls::Full));

    // Uncontrolled Basic LI drowns in the transient.
    let burst_mean = CYCLE_MEAN * HIGH_FRACTION;
    let pass =
        li_none.mean_response > 5.0 * li_full.mean_response && li_none.recovery > 5.0 * burst_mean;
    let transient = Check::statistical(
        "transient",
        pass,
        format!(
            "uncontrolled basic-li waits {:.1} (vs {:.1} controlled), backlog tail {:.0} vs burst {:.0}",
            li_none.mean_response, li_full.mean_response, li_none.recovery, burst_mean
        ),
    );

    // The full control plane holds Basic LI within 10% of Random's
    // goodput under the same controls, shedding a bounded fraction.
    let pass = li_full.goodput >= 0.9 * random_full.goodput && li_full.loss_frac < 0.10;
    let bounded_loss = Check::statistical(
        "bounded-loss",
        pass,
        format!(
            "full-control basic-li goodput {:.4} {} random {:.4}, {:.1}% shed",
            li_full.goodput,
            if pass { "within 10% of" } else { "vs" },
            random_full.goodput,
            100.0 * li_full.loss_frac
        ),
    );

    // Recovery: the caps bound the backlog at n × cap, so the system is
    // back to normal as soon as the burst ends instead of carrying the
    // excess forward.
    let cap_bound = (N as u32 * QUEUE_CAP) as f64;
    let pass = li_full.peak_backlog <= cap_bound && li_none.peak_backlog > 2.0 * cap_bound;
    let recovery = Check::statistical(
        "recovery",
        pass,
        format!(
            "full-control peak backlog {:.0} {} cap bound {cap_bound:.0}, uncontrolled peaked at {:.0}",
            li_full.peak_backlog,
            if pass { "<=" } else { "vs" },
            li_none.peak_backlog
        ),
    );
    Ok(vec![transient, bounded_loss, recovery])
}
