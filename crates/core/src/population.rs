//! The population-level (mean-field) engine (ISSUE 9).
//!
//! For symmetric configurations the per-server state is redundant: servers
//! are exchangeable, so the system's law is fully determined by *counts* —
//! how many servers currently hold `k` jobs. This module simulates that
//! count process directly, which makes the per-event cost independent of
//! `n` and lets a sweep touch clusters of a million servers.
//!
//! # State representation
//!
//! Between two board refreshes ("a phase"), a server is classified two
//! ways: by the queue length the board *advertises* for it (its **board
//! class**, frozen at the refresh instant) and by its **true** queue
//! length (which keeps evolving). The engine stores the joint counts
//!
//! ```text
//! rows[j][k] = number of servers advertised at boards[j] whose true
//!              length is k
//! ```
//!
//! Because every supported policy sees only the board, and servers inside
//! a board class are exchangeable, this matrix is a lossless statistic:
//!
//! * routing draws a board class `j` from the policy's distribution over
//!   advertised loads (frozen for the phase, hence alias-samplable), then
//!   a true length `k ∝ rows[j][k]` — exactly the law of "pick a concrete
//!   server" in the per-server engine, marginalized over which one;
//! * a departure strikes a uniformly random busy server: class
//!   `j ∝ busy[j]`, then `k ≥ 1 ∝ rows[j][k]`;
//! * a refresh collapses the matrix onto its true-length marginal and
//!   starts the next phase with board class = true length.
//!
//! Tie-breaks in the per-server policies (`KSubset`, `Greedy`, Basic LI's
//! `R → 0` indicator) are uniform over tied servers, so exchangeability is
//! exact, not approximate: for the supported subset the population engine
//! is **equal in distribution** to the per-server engine — only the RNG
//! consumption differs (statistics match; trajectories are not
//! bit-comparable).
//!
//! Fresh information is the degenerate phase of length zero: the board
//! always advertises the true length. The engine then keeps one class per
//! queue length (`boards[k] = k`) and moves a server between classes
//! whenever its length changes; routing scans the live counts instead of
//! consulting frozen tables.
//!
//! # Event handling
//!
//! There is no pending-event set. Memoryless service makes the aggregate
//! departure process a Poisson race at rate `busy/E[S]`, so three scalar
//! clocks suffice: the next arrival (its own Poisson stream), the next
//! departure (redrawn after every state change — exact by memorylessness),
//! and the next deterministic refresh. Response times never need the
//! departure events at all: a job that joins a FIFO queue holding `k` jobs
//! sees `k + 1` independent exponential stages (the remainder of the
//! in-service job is again exponential), so its sojourn is sampled as an
//! Erlang(`k + 1`) variate on the spot. Per-job marginals are exact;
//! cross-job correlations within one trial are not reproduced, which
//! affects only within-trial variance estimates, not means or quantiles.
//!
//! # RNG discipline
//!
//! The canonical six streams are forked in the usual order; the population
//! engine draws inter-arrival gaps from `arrival_rng`, the departure race
//! and Erlang response stages from `service_rng`, routing decisions from
//! `policy_rng`, and within-class member selection (including which busy
//! server departs) from `model_rng`. The fault and retry streams exist but
//! are never drawn (population mode rejects those features), mirroring the
//! per-server discipline.

use staleload_info::InfoSpec;
use staleload_policies::{PolicySpec, WaterLine};
use staleload_sim::{Dist, OnlineStats, SimRng};
use staleload_workloads::AliasTable;

use crate::config::ConfigError;
use crate::engine::StepCounter;
use crate::metrics::{FaultStats, ServerTallies};
use crate::{
    ArrivalSpec, OverloadStats, ResilienceStats, RunDetail, RunResult, SimConfig, SimError,
};

/// The policy subset the population engine supports (symmetric policies
/// whose decisions depend on the board only through the multiset of
/// advertised loads).
#[derive(Debug, Clone, Copy)]
enum PopPolicy {
    Random,
    KSubset { d: usize },
    Greedy,
    BasicLi { lambda_hat: f64 },
}

/// The information-model subset: a shared snapshot view (periodic board)
/// or no staleness at all.
#[derive(Debug, Clone, Copy)]
enum PopInfo {
    Fresh,
    Periodic { period: f64 },
}

fn unsupported(what: &str, hint: &str) -> SimError {
    ConfigError::new(format!("population engine does not support {what}; {hint}")).into()
}

/// Validates the configuration against the population engine's supported
/// subset and extracts the internal specs.
///
/// `SimConfigBuilder::try_build` performs the same `SimConfig`-level
/// checks; they are repeated here because a deserialized config never went
/// through the builder.
fn validate(
    cfg: &SimConfig,
    arrivals: &ArrivalSpec,
    info: &InfoSpec,
    policy: &PolicySpec,
) -> Result<(PopPolicy, PopInfo, f64), SimError> {
    info.validate().map_err(ConfigError::new)?;
    policy.validate().map_err(ConfigError::new)?;
    if cfg.servers == 0 {
        return Err(ConfigError::new("population engine needs at least one server").into());
    }
    if !matches!(arrivals, ArrivalSpec::Poisson) {
        return Err(unsupported(
            "per-client arrival processes",
            "use the plain Poisson stream or the per-server engine",
        ));
    }
    if cfg.capacities.is_some() {
        return Err(unsupported(
            "heterogeneous capacities",
            "servers must be exchangeable for the count representation",
        ));
    }
    if cfg.work_stealing.is_some() {
        return Err(unsupported("work stealing", "use the per-server engine"));
    }
    if !cfg.faults.is_none() {
        return Err(unsupported("fault injection", "use the per-server engine"));
    }
    if cfg.queue_cap.is_some() || cfg.deadline.is_some() || cfg.retry.is_some() {
        return Err(unsupported(
            "overload controls (queue caps, deadlines, retries)",
            "use the per-server engine",
        ));
    }
    let svc_mean = match cfg.service {
        Dist::Exponential { mean } => mean,
        ref other => {
            return Err(ConfigError::new(format!(
                "population engine is exact only for memoryless (exponential) service, got {other}"
            ))
            .into())
        }
    };
    let pop_info = match *info {
        InfoSpec::Fresh => PopInfo::Fresh,
        InfoSpec::Periodic { period } => PopInfo::Periodic { period },
        ref other => {
            return Err(ConfigError::new(format!(
                "population engine supports fresh or periodic information (shared snapshot \
                 views), got {}; use the per-server engine",
                other.label()
            ))
            .into())
        }
    };
    let pop_policy = match *policy {
        PolicySpec::Random => PopPolicy::Random,
        // The per-server KSubset clamps k to n at selection time; mirror it.
        PolicySpec::KSubset { k } => PopPolicy::KSubset {
            d: k.min(cfg.servers),
        },
        PolicySpec::Greedy => PopPolicy::Greedy,
        PolicySpec::BasicLi { lambda } => PopPolicy::BasicLi { lambda_hat: lambda },
        ref other => {
            return Err(ConfigError::new(format!(
                "population engine supports the symmetric policies random, k-subset, greedy, \
                 and basic-li, got {}; use the per-server engine",
                other.label()
            ))
            .into())
        }
    };
    Ok((pop_policy, pop_info, svc_mean))
}

/// Samples a unit-rate Erlang(`stages`) variate: the sum of `stages`
/// independent Exp(1) draws, computed as `−ln ∏ uᵢ` in chunks so the
/// running product cannot underflow.
fn erlang(stages: u64, rng: &mut SimRng) -> f64 {
    let mut total = 0.0f64;
    let mut remaining = stages;
    while remaining > 0 {
        let chunk = remaining.min(16);
        let mut prod = 1.0f64;
        for _ in 0..chunk {
            prod *= rng.f64();
        }
        if prod <= 0.0 {
            // Only reachable if a draw returned exactly 0.0 (probability
            // 2⁻⁵³ each); nudge instead of producing an infinite response.
            prod = f64::MIN_POSITIVE;
        }
        total -= prod.ln();
        remaining -= chunk;
    }
    total
}

/// Walks `weights[from..]` to find the index owning offset `r`
/// (requires `r < Σ weights[from..]`).
#[inline]
fn scan_weights(weights: &[u64], from: usize, mut r: u64) -> usize {
    let mut i = from;
    loop {
        let w = weights[i];
        if r < w {
            return i;
        }
        r -= w;
        i += 1;
    }
}

/// The frozen per-phase routing tables (periodic information only; fresh
/// information routes against the live counts instead).
enum Router {
    /// One alias draw per arrival: oblivious random (class ∝ size) and
    /// Basic LI (class `j` ∝ `sizes[j]·p[j]`).
    Alias(AliasTable),
    /// Least advertised load among `d` distinct uniform servers.
    Subset { d: usize, alias: AliasTable },
    /// Least advertised load overall: always the first class (phase
    /// classes are non-empty and sorted ascending).
    Greedy,
}

/// Builds an alias table over non-negative class weights, mapping the
/// (unreachable for valid phase states) constructor error onto the typed
/// path required by the panic-hygiene lint.
fn build_alias(weights: &[f64]) -> Result<AliasTable, SimError> {
    AliasTable::new(weights).map_err(|e| {
        SimError::from(ConfigError::new(format!(
            "population routing weights are degenerate: {e}"
        )))
    })
}

impl Router {
    fn rebuild(
        policy: PopPolicy,
        boards: &[u32],
        sizes: &[u64],
        expected_arrivals: f64,
        scratch: &mut Vec<f64>,
    ) -> Result<Router, SimError> {
        scratch.clear();
        Ok(match policy {
            PopPolicy::Random => {
                scratch.extend(sizes.iter().map(|&c| c as f64));
                Router::Alias(build_alias(scratch)?)
            }
            PopPolicy::KSubset { d } => {
                scratch.extend(sizes.iter().map(|&c| c as f64));
                Router::Subset {
                    d,
                    alias: build_alias(scratch)?,
                }
            }
            PopPolicy::Greedy => Router::Greedy,
            PopPolicy::BasicLi { .. } => {
                let classes = boards.iter().copied().zip(sizes.iter().copied());
                let line = WaterLine::new(classes, expected_arrivals);
                scratch.extend(
                    boards
                        .iter()
                        .zip(sizes)
                        .map(|(&q, &c)| line.prob(q) * c as f64),
                );
                Router::Alias(build_alias(scratch)?)
            }
        })
    }
}

/// Draws the minimum of `d` distinct uniform positions in `[0, n)` by
/// rejection (exact without-replacement sampling; expected O(d) redraws
/// for `d ≪ n`, the power-of-`d` regime this engine targets).
fn min_distinct_position(d: usize, n: usize, rng: &mut SimRng, drawn: &mut Vec<u64>) -> u64 {
    drawn.clear();
    let mut min_pos = u64::MAX;
    while drawn.len() < d {
        let p = rng.index(n) as u64;
        if drawn.contains(&p) {
            continue;
        }
        drawn.push(p);
        min_pos = min_pos.min(p);
    }
    min_pos
}

/// The class state: board classes with their true-length rows.
struct Classes {
    /// Advertised load per class, strictly ascending. Under periodic
    /// information only non-empty classes exist; under fresh information
    /// classes are length-indexed (`boards[k] = k`) and may be empty.
    boards: Vec<u32>,
    /// Servers per class (frozen within a periodic phase; each row sums
    /// to it).
    sizes: Vec<u64>,
    /// Busy (true length ≥ 1) servers per class.
    busy: Vec<u64>,
    /// `rows[j][k]` = members of class `j` with true length `k`.
    rows: Vec<Vec<u64>>,
    /// Scan hints: no occupied cell of `rows[j]` lies below `lo[j]`.
    lo: Vec<usize>,
    total_busy: u64,
    /// Total jobs in the system (Σ k·rows[j][k]).
    jobs: u64,
}

impl Classes {
    fn all_idle(n: u64) -> Classes {
        Classes {
            boards: vec![0],
            sizes: vec![n],
            busy: vec![0],
            rows: vec![vec![n]],
            lo: vec![0],
            total_busy: 0,
            jobs: 0,
        }
    }

    /// Collapses the matrix onto its true-length marginal: the next
    /// phase's board advertises every server's current length.
    fn refresh(&mut self, hist: &mut Vec<u64>) {
        hist.clear();
        for row in &self.rows {
            if hist.len() < row.len() {
                hist.resize(row.len(), 0);
            }
            for (k, &c) in row.iter().enumerate() {
                if c > 0 {
                    hist[k] += c;
                }
            }
        }
        self.boards.clear();
        self.sizes.clear();
        self.busy.clear();
        self.rows.clear();
        self.lo.clear();
        for (k, &c) in hist.iter().enumerate() {
            if c == 0 {
                continue;
            }
            self.boards.push(k as u32);
            self.sizes.push(c);
            self.busy.push(if k > 0 { c } else { 0 });
            let mut row = vec![0u64; k + 1];
            row[k] = c;
            self.rows.push(row);
            self.lo.push(k);
        }
    }

    /// Draws the true length of a uniformly random member of class `j`.
    #[inline]
    fn member_length(&self, j: usize, rng: &mut SimRng) -> usize {
        let r = rng.index(self.sizes[j] as usize) as u64;
        scan_weights(&self.rows[j], self.lo[j], r)
    }

    /// One arrival lands on a class-`j` member of true length `k`
    /// (periodic information: the member stays in its board class).
    #[inline]
    fn apply_arrival(&mut self, j: usize, k: usize) {
        let row = &mut self.rows[j];
        row[k] -= 1;
        if row.len() <= k + 1 {
            row.push(0);
        }
        row[k + 1] += 1;
        if k == 0 {
            self.busy[j] += 1;
            self.total_busy += 1;
        }
        self.jobs += 1;
    }

    /// A departure strikes a uniformly random busy server; returns its
    /// class and (pre-departure) true length and applies the decrement.
    #[inline]
    fn apply_departure(&mut self, rng: &mut SimRng) -> (usize, usize) {
        let r = rng.index(self.total_busy as usize) as u64;
        let j = scan_weights(&self.busy, 0, r);
        let r2 = rng.index(self.busy[j] as usize) as u64;
        let k = scan_weights(&self.rows[j], self.lo[j].max(1), r2);
        let row = &mut self.rows[j];
        row[k] -= 1;
        row[k - 1] += 1;
        if k - 1 < self.lo[j] {
            self.lo[j] = k - 1;
        }
        if k == 1 {
            self.busy[j] -= 1;
            self.total_busy -= 1;
        }
        self.jobs -= 1;
        (j, k)
    }

    // ---- fresh-information operations (class index = queue length) ----

    /// Materializes length-indexed classes up to `len` inclusive.
    fn ensure_length_class(&mut self, len: usize) {
        while self.boards.len() <= len {
            let k = self.boards.len();
            self.boards.push(k as u32);
            self.sizes.push(0);
            self.busy.push(0);
            let mut row = vec![0u64; k + 1];
            // Row stays a spike at k; start it empty.
            row[k] = 0;
            self.rows.push(row);
            self.lo.push(k);
        }
    }

    /// Fresh arrival onto a length-`k` server: the server moves to class
    /// `k + 1` so the board keeps advertising its true length.
    #[inline]
    fn fresh_arrival(&mut self, k: usize) {
        self.sizes[k] -= 1;
        self.rows[k][k] -= 1;
        if k >= 1 {
            self.busy[k] -= 1;
        } else {
            self.total_busy += 1;
        }
        self.ensure_length_class(k + 1);
        self.sizes[k + 1] += 1;
        self.rows[k + 1][k + 1] += 1;
        self.busy[k + 1] += 1;
        self.jobs += 1;
    }

    /// Fresh departure from a uniformly random busy server: class `k`
    /// with probability ∝ `busy[k]`; the server moves to class `k − 1`.
    #[inline]
    fn fresh_departure(&mut self, rng: &mut SimRng) -> usize {
        let r = rng.index(self.total_busy as usize) as u64;
        let k = scan_weights(&self.busy, 1, r);
        self.sizes[k] -= 1;
        self.rows[k][k] -= 1;
        self.busy[k] -= 1;
        self.sizes[k - 1] += 1;
        self.rows[k - 1][k - 1] += 1;
        if k >= 2 {
            self.busy[k - 1] += 1;
        } else {
            self.total_busy -= 1;
        }
        self.jobs -= 1;
        k
    }
}

/// Draws the winning board class for one arrival under periodic
/// information (frozen tables over classes of `sizes` servers).
#[inline]
fn route(
    router: &Router,
    sizes: &[u64],
    policy_rng: &mut SimRng,
    touched: &mut Vec<(usize, u64)>,
) -> usize {
    match router {
        Router::Alias(a) => a.sample(policy_rng),
        Router::Greedy => 0,
        Router::Subset { d, alias } => {
            // Sequential distinct-uniform-server sampling: propose a class
            // ∝ its size, reject with probability (already drawn)/(size),
            // so accepted classes are ∝ servers not yet drawn — exact
            // without-replacement sampling in O(d) expected alias draws.
            touched.clear();
            let mut best = usize::MAX;
            for _ in 0..*d {
                loop {
                    let j = alias.sample(policy_rng);
                    let taken = touched
                        .iter()
                        .find(|&&(c, _)| c == j)
                        .map_or(0, |&(_, m)| m);
                    if taken > 0 && (policy_rng.index(sizes[j] as usize) as u64) < taken {
                        continue; // proposed an already-drawn member
                    }
                    match touched.iter_mut().find(|e| e.0 == j) {
                        Some(entry) => entry.1 += 1,
                        None => touched.push((j, 1)),
                    }
                    best = best.min(j);
                    break;
                }
                if best == 0 {
                    break; // nothing can advertise less than the first class
                }
            }
            best
        }
    }
}

/// Draws the winning class under fresh information (live counts; the
/// winner's class index *is* its queue length).
#[inline]
fn fresh_route(
    policy: PopPolicy,
    classes: &Classes,
    n: usize,
    policy_rng: &mut SimRng,
    positions: &mut Vec<u64>,
) -> usize {
    match policy {
        PopPolicy::Random => {
            let r = policy_rng.index(n) as u64;
            scan_weights(&classes.sizes, 0, r)
        }
        // Fresh Basic LI has horizon 0 ⇒ R = 0 ⇒ the least-loaded
        // indicator, identical to greedy.
        PopPolicy::Greedy | PopPolicy::BasicLi { .. } => {
            let mut k = 0;
            while classes.sizes[k] == 0 {
                k += 1;
            }
            k
        }
        PopPolicy::KSubset { d } => {
            let min_pos = min_distinct_position(d, n, policy_rng, positions);
            scan_weights(&classes.sizes, 0, min_pos)
        }
    }
}

/// Runs one population-mode simulation. Called by [`run_simulation`] when
/// `cfg.engine` selects [`EngineMode::Population`].
///
/// [`run_simulation`]: crate::run_simulation
/// [`EngineMode::Population`]: crate::EngineMode::Population
pub(crate) fn run_population(
    cfg: &SimConfig,
    arrivals: &ArrivalSpec,
    info: &InfoSpec,
    policy: &PolicySpec,
    mut steps: StepCounter<'_>,
) -> Result<RunResult, SimError> {
    let (pop_policy, pop_info, svc_mean) = validate(cfg, arrivals, info, policy)?;

    let mut master = SimRng::from_seed(cfg.seed);
    let mut arrival_rng = master.fork();
    let mut service_rng = master.fork();
    let mut policy_rng = master.fork();
    let mut model_rng = master.fork();
    // Forked for stream parity with the per-server engine; population mode
    // rejects faults and retries, so these are never drawn.
    let mut fault_rng = master.fork();
    let mut retry_rng = master.fork();
    let _ = (&mut fault_rng, &mut retry_rng);

    let n = cfg.servers;
    let total = cfg.arrivals;
    let warmup = cfg.warmup_jobs();
    let rate = cfg.total_rate();
    let fresh = matches!(pop_info, PopInfo::Fresh);
    let period = match pop_info {
        PopInfo::Fresh => f64::INFINITY,
        PopInfo::Periodic { period } => period,
    };
    // Expected arrivals per phase, the R of the paper's Eqs. 2–4.
    let expected_arrivals = match (pop_info, pop_policy) {
        (PopInfo::Periodic { period }, PopPolicy::BasicLi { lambda_hat }) => {
            lambda_hat * n as f64 * period
        }
        _ => 0.0,
    };
    if !(expected_arrivals.is_finite() && expected_arrivals >= 0.0) {
        return Err(ConfigError::new(format!(
            "Basic LI's expected arrivals per phase λ̂·n·T must be non-negative and finite, \
             got {expected_arrivals}"
        ))
        .into());
    }

    let mut classes = Classes::all_idle(n as u64);
    let mut scratch = Vec::new();
    let mut hist = Vec::new();
    let mut touched: Vec<(usize, u64)> = Vec::new();
    let mut positions: Vec<u64> = Vec::new();
    let mut router = Router::rebuild(
        pop_policy,
        &classes.boards,
        &classes.sizes,
        expected_arrivals,
        &mut scratch,
    )?;

    let mut response = OnlineStats::new();
    let mut detail = RunDetail::new(cfg.sketch_cap);
    let mut t = 0.0f64;
    let mut generated: u64 = 0;
    let mut end_time = 0.0f64;
    let mut busy_integral = 0.0f64;
    let mut next_arrival = if total > 0 {
        arrival_rng.exp(1.0 / rate)
    } else {
        f64::INFINITY
    };
    let mut next_refresh = period;

    while generated < total || classes.jobs > 0 {
        // Refreshes count as steps too, so a refresh storm can be stopped.
        steps.step()?;
        // The departure race: with B busy servers the next completion is
        // Exp(E[S]/B); redrawing it after every event is exact by
        // memorylessness.
        let next_departure = if classes.total_busy > 0 {
            t + service_rng.exp(svc_mean / classes.total_busy as f64)
        } else {
            f64::INFINITY
        };
        // Refreshes only matter while routing decisions remain.
        let refresh_at = if !fresh && generated < total {
            next_refresh
        } else {
            f64::INFINITY
        };

        if refresh_at <= next_arrival && refresh_at <= next_departure {
            busy_integral += classes.total_busy as f64 * (refresh_at - t);
            t = refresh_at;
            classes.refresh(&mut hist);
            router = Router::rebuild(
                pop_policy,
                &classes.boards,
                &classes.sizes,
                expected_arrivals,
                &mut scratch,
            )?;
            next_refresh += period;
            continue;
        }

        if next_arrival <= next_departure {
            busy_integral += classes.total_busy as f64 * (next_arrival - t);
            t = next_arrival;
            let (j, k) = if fresh {
                let k = fresh_route(pop_policy, &classes, n, &mut policy_rng, &mut positions);
                (k, k)
            } else {
                let j = route(&router, &classes.sizes, &mut policy_rng, &mut touched);
                (j, classes.member_length(j, &mut model_rng))
            };
            // The tagged job's sojourn: k + 1 exponential stages (its own
            // service plus the k ahead of it, the in-service remainder
            // being exponential again). Warm-up jobs draw theirs too so
            // measurement never shifts the service stream.
            let sojourn = erlang(k as u64 + 1, &mut service_rng) * svc_mean;
            if generated >= warmup {
                response.record(sojourn);
                detail.response_sketch.record(sojourn);
            }
            if fresh {
                classes.fresh_arrival(k);
            } else {
                classes.apply_arrival(j, k);
            }
            generated += 1;
            next_arrival = if generated < total {
                t + arrival_rng.exp(1.0 / rate)
            } else {
                f64::INFINITY
            };
        } else {
            busy_integral += classes.total_busy as f64 * (next_departure - t);
            t = next_departure;
            if fresh {
                classes.fresh_departure(&mut model_rng);
            } else {
                classes.apply_departure(&mut model_rng);
            }
            end_time = t;
        }
        detail.jobs_in_system.update(t, classes.jobs as f64);
    }

    debug_assert_eq!(classes.jobs, 0, "drain must empty the system");
    debug_assert_eq!(
        classes.total_busy, 0,
        "no busy server may outlive the drain"
    );

    // Servers are exchangeable, so the run reports totals and each
    // server's expected share of them is equal: fairness 1, and mean
    // utilization busy / (n · end), which keeps the utilization ≈ λ·E[S]
    // validation meaningful. Every generated job completed in the drain.
    detail.tallies = ServerTallies::Exchangeable {
        servers: n,
        completed: generated,
        busy: busy_integral,
    };

    Ok(RunResult {
        mean_response: response.mean(),
        response,
        measured_jobs: response.count(),
        generated,
        end_time,
        history_misses: 0,
        faults: FaultStats::default(),
        overload: OverloadStats::default(),
        resilience: ResilienceStats::default(),
        diagnostics: Vec::new(),
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_simulation, SimConfigBuilder};
    use staleload_policies::{basic_li_probabilities, LoadCounts};

    fn expand(boards: &[u32], sizes: &[u64]) -> Vec<u32> {
        let mut loads = Vec::new();
        for (&b, &c) in boards.iter().zip(sizes) {
            loads.extend(std::iter::repeat_n(b, c as usize));
        }
        loads
    }

    /// Basic LI's water line over board classes replays, bit for bit, the
    /// per-server probabilities of the expanded view.
    #[test]
    fn water_fill_matches_the_per_server_schedule() {
        let cases: &[(&[u32], &[u64], f64)] = &[
            (&[0], &[10], 25.0),
            (&[0, 4], &[1, 1], 8.0),
            (&[0, 2, 5], &[3, 4, 2], 12.5),
            (&[1, 3, 7, 20], &[5, 1, 9, 2], 0.5),
            (&[0, 1], &[999, 1], 1e6),
            (&[2, 9], &[7, 3], 0.0),
        ];
        let mut probs = Vec::new();
        let mut scratch = LoadCounts::default();
        for &(boards, sizes, r) in cases {
            let loads = expand(boards, sizes);
            basic_li_probabilities(&loads, r, &mut probs, &mut scratch);
            let line = WaterLine::new(boards.iter().copied().zip(sizes.iter().copied()), r);
            for (&q, &p) in loads.iter().zip(&probs) {
                assert_eq!(
                    p.to_bits(),
                    line.prob(q).to_bits(),
                    "boards {boards:?} sizes {sizes:?} r {r}: load {q} \
                     per-server {p} vs class {}",
                    line.prob(q)
                );
            }
        }
    }

    #[test]
    fn erlang_matches_its_moments() {
        let mut rng = SimRng::from_seed(42);
        for stages in [1u64, 3, 10] {
            let mut stats = OnlineStats::new();
            for _ in 0..40_000 {
                stats.record(erlang(stages, &mut rng));
            }
            let m = stages as f64;
            assert!(
                (stats.mean() - m).abs() < 0.05 * m,
                "Erlang({stages}) mean {} vs {m}",
                stats.mean()
            );
            assert!(
                (stats.sample_variance() - m).abs() < 0.1 * m,
                "Erlang({stages}) variance {} vs {m}",
                stats.sample_variance()
            );
        }
    }

    fn pop_config(n: usize, lambda: f64, arrivals: u64, seed: u64) -> SimConfig {
        let mut b = SimConfigBuilder::default();
        b.servers(n)
            .lambda(lambda)
            .arrivals(arrivals)
            .engine(crate::EngineMode::Population)
            .seed(seed);
        b.build()
    }

    #[test]
    fn fresh_random_matches_mm1() {
        // Random splitting of a Poisson stream makes every server M/M/1:
        // T = 1/(1−λ) = 5 at λ = 0.8.
        let cfg = pop_config(64, 0.8, 120_000, 11);
        let r = run_simulation(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        )
        .expect("population run");
        assert!(
            (r.mean_response - 5.0).abs() < 0.35,
            "M/M/1 at 0.8: {}",
            r.mean_response
        );
        assert_eq!(r.generated, 120_000);
        assert_eq!(r.measured_jobs, 120_000 - cfg.warmup_jobs());
        assert!(r.end_time > 0.0);
    }

    #[test]
    fn stale_random_is_still_mm1() {
        // Oblivious random ignores the board entirely, so staleness must
        // not matter — a sharp internal consistency check for the phase
        // machinery (refreshes, frozen tables, member-length draws).
        let cfg = pop_config(64, 0.8, 120_000, 12);
        let r = run_simulation(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 10.0 },
            &PolicySpec::Random,
        )
        .expect("population run");
        assert!(
            (r.mean_response - 5.0).abs() < 0.35,
            "stale random at 0.8: {}",
            r.mean_response
        );
    }

    #[test]
    fn fresh_greedy_beats_fresh_d2_beats_random() {
        let mk = |policy: PolicySpec, seed: u64| {
            let cfg = pop_config(128, 0.9, 150_000, seed);
            run_simulation(&cfg, &ArrivalSpec::Poisson, &InfoSpec::Fresh, &policy)
                .expect("population run")
                .mean_response
        };
        let random = mk(PolicySpec::Random, 3);
        let d2 = mk(PolicySpec::KSubset { k: 2 }, 3);
        let greedy = mk(PolicySpec::Greedy, 3);
        assert!(
            greedy < d2 && d2 < random,
            "greedy {greedy} < d2 {d2} < random {random}"
        );
        // Analytic anchors: M/M/1 gives 10, the supermarket d = 2 fluid
        // limit ≈ 2.61.
        assert!((random - 10.0).abs() < 1.0, "random {random}");
        assert!((d2 - 2.61).abs() < 0.25, "d2 {d2}");
    }

    /// `route`'s k-subset layer draws `d` distinct servers: the least
    /// class among them is ≥ j exactly when all `d` come from the `m_j`
    /// servers in classes ≥ j, so P(least class ≥ j) = C(m_j, d)/C(n, d).
    /// Drawing with replacement instead would give (m_j/n)^d.
    #[test]
    fn subset_routing_follows_the_without_replacement_law() {
        fn choose(m: u64, d: usize) -> f64 {
            (0..d as u64)
                .map(|i| m.saturating_sub(i) as f64 / (i + 1) as f64)
                .product()
        }
        const DRAWS: u32 = 200_000;
        let cases: &[(&[u64], usize)] = &[
            (&[3, 5, 2, 10], 2),
            (&[3, 5, 2, 10], 3),
            (&[1; 6], 4),
            (&[4, 1], 5),
        ];
        let mut rng = SimRng::from_seed(2024);
        let mut scratch = Vec::new();
        let mut touched = Vec::new();
        for &(sizes, d) in cases {
            let boards: Vec<u32> = (0..sizes.len() as u32).collect();
            let router =
                Router::rebuild(PopPolicy::KSubset { d }, &boards, sizes, 0.0, &mut scratch)
                    .expect("valid classes");
            let mut least = vec![0u32; sizes.len()];
            for _ in 0..DRAWS {
                least[route(&router, sizes, &mut rng, &mut touched)] += 1;
            }
            let n: u64 = sizes.iter().sum();
            let mut tail = 0u32;
            for j in (0..sizes.len()).rev() {
                tail += least[j];
                let exact = choose(sizes[j..].iter().sum(), d) / choose(n, d);
                let seen = f64::from(tail) / f64::from(DRAWS);
                let sigma = (exact * (1.0 - exact) / f64::from(DRAWS)).sqrt();
                assert!(
                    (seen - exact).abs() <= 5.0 * sigma + 1e-12,
                    "sizes {sizes:?} d {d}: P(least ≥ {j}) {seen} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn population_runs_are_deterministic() {
        let cfg = pop_config(32, 0.85, 40_000, 77);
        let run = || {
            run_simulation(
                &cfg,
                &ArrivalSpec::Poisson,
                &InfoSpec::Periodic { period: 8.0 },
                &PolicySpec::KSubset { k: 3 },
            )
            .expect("population run")
        };
        let a = run();
        let b = run();
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
        assert_eq!(a.end_time.to_bits(), b.end_time.to_bits());
        assert_eq!(a.measured_jobs, b.measured_jobs);
    }

    #[test]
    fn unsupported_specs_are_typed_errors() {
        let cfg = pop_config(16, 0.8, 1_000, 1);
        let err = |arr: &ArrivalSpec, info: &InfoSpec, pol: &PolicySpec| match run_simulation(
            &cfg, arr, info, pol,
        ) {
            Err(SimError::Config(e)) => e.to_string(),
            other => panic!("expected a config error, got {other:?}"),
        };
        assert!(err(
            &ArrivalSpec::PoissonClients { clients: 4 },
            &InfoSpec::Fresh,
            &PolicySpec::Random
        )
        .contains("Poisson"));
        assert!(err(
            &ArrivalSpec::Poisson,
            &InfoSpec::UpdateOnAccess,
            &PolicySpec::Random
        )
        .contains("per-server engine"));
        assert!(err(
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::AggressiveLi { lambda: 0.9 }
        )
        .contains("per-server engine"));
        assert!(err(
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 4.0 },
            &PolicySpec::BasicLi { lambda: f64::NAN }
        )
        .contains("non-negative and finite"));
        let mut b = SimConfigBuilder::default();
        b.servers(16).lambda(0.8).arrivals(1_000);
        let mut hetero = b.build();
        hetero.engine = crate::EngineMode::Population;
        hetero.capacities = Some(vec![1.0; 16]);
        assert!(matches!(
            run_simulation(
                &hetero,
                &ArrivalSpec::Poisson,
                &InfoSpec::Fresh,
                &PolicySpec::Random
            ),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn little_and_utilization_hold_in_population_mode() {
        let cfg = pop_config(64, 0.8, 150_000, 9);
        let r = run_simulation(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 5.0 },
            &PolicySpec::BasicLi { lambda: 0.8 },
        )
        .expect("population run");
        // Little's law: time-averaged jobs in system ≈ λ·n·E[T].
        let little = 0.8 * 64.0 * r.mean_response;
        let measured = r.detail.mean_jobs_in_system(r.end_time);
        assert!(
            (measured - little).abs() / little < 0.1,
            "Little: {measured} vs {little}"
        );
        // Utilization ≈ λ via the busy integral.
        let util = r.detail.mean_utilization(r.end_time);
        assert!((util - 0.8).abs() < 0.05, "utilization {util}");
        // The sketch saw exactly the measured jobs.
        assert_eq!(r.detail.response_sketch.count(), r.measured_jobs);
    }

    #[test]
    fn fewer_jobs_than_servers_still_report_even_shares() {
        // 200 jobs over 1000 servers: most servers complete none, yet each
        // one's expected share is the same, so the summary is fair.
        let cfg = pop_config(1_000, 0.5, 200, 3);
        let r = run_simulation(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 2.0 },
            &PolicySpec::KSubset { k: 2 },
        )
        .expect("population run");
        let d = &r.detail;
        assert_eq!(d.throughput_fairness(), 1.0);
        assert_eq!((d.servers(), d.completed()), (1_000, 200));
        assert_eq!(d.per_server_completed(), None);
        assert_eq!(
            d.mean_utilization(r.end_time),
            d.busy_time() / (1_000.0 * r.end_time)
        );
        assert!(d.mean_utilization(r.end_time) > 0.0);
        assert!(d
            .utilizations(r.end_time)
            .all(|u| u == d.mean_utilization(r.end_time)));
    }
}
