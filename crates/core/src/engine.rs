//! The discrete-event simulation loop.

use std::collections::BTreeMap;

use staleload_cluster::{Admission, Cluster, Job, ServerId};
use staleload_info::{InfoDispatch, InfoModel, InfoSpec};
use staleload_policies::{DispatchPolicy, Policy, PolicySpec};
use staleload_sim::{EventQueue, OnlineStats, SchedError, SimRng};
use staleload_workloads::{ArrivalProcess, RetrySpec};

use crate::config::ConfigError;
use crate::metrics::ServerTallies;
use crate::{
    ArrivalSpec, CrashSpec, OverloadStats, PartitionSpec, ResilienceStats, RunDetail, SimConfig,
    SimError,
};

/// Counters for the fault process of one run (all zero when the run was
/// fault-free).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Server crashes injected.
    pub crashes: u64,
    /// Servers brought back up.
    pub recoveries: u64,
    /// Jobs moved off a crashed server's queue (re-dispatch mode only).
    pub redispatched: u64,
    /// Arrivals routed to a down server and redirected to an up one.
    pub redirected: u64,
    /// Summed server-down time (a server down for 2 time units counts 2,
    /// whether or not others were down simultaneously).
    pub downtime: f64,
}

/// A non-fatal data-quality warning attached to a [`RunResult`].
///
/// Diagnostics flag results that are *valid but suspect* — the run
/// completed, yet something the experimenter should know about happened
/// (e.g. the load-history window was too small, so some delayed views were
/// answered inexactly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable tag (e.g. `"history-misses"`).
    pub code: &'static str,
    /// Human-readable explanation with the relevant numbers.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

/// The outcome of one seeded simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Mean response (sojourn) time over measured jobs.
    pub mean_response: f64,
    /// Full response-time statistics over measured jobs.
    pub response: OnlineStats,
    /// Number of jobs contributing to the metric.
    pub measured_jobs: u64,
    /// Jobs generated in total (≥ the configured count only for
    /// update-on-access experiments that scale work per client).
    pub generated: u64,
    /// Simulated time of the last departure.
    pub end_time: f64,
    /// Delayed-view queries answered inexactly (should be 0; > 0 means the
    /// history window was too small for the delay distribution).
    pub history_misses: u64,
    /// Fault-process counters (all zero for a fault-free run).
    pub faults: FaultStats,
    /// Overload-control counters (all zero when queue caps, deadlines, and
    /// retries are off).
    pub overload: OverloadStats,
    /// Degraded-information counters: hedges, quarantine churn, corrupted
    /// reports, partition exposure (all zero when those knobs are off).
    pub resilience: ResilienceStats,
    /// Non-fatal warnings about the run's data quality.
    pub diagnostics: Vec<Diagnostic>,
    /// Tail/fairness/occupancy metrics (see [`RunDetail`]).
    pub detail: RunDetail,
}

impl RunResult {
    /// Completed jobs per unit time — the paper's throughput, net of jobs
    /// the overload controls turned away.
    pub fn goodput(&self) -> f64 {
        if self.end_time <= 0.0 {
            return 0.0;
        }
        (self.generated - self.overload.abandoned) as f64 / self.end_time
    }

    /// Generated jobs per unit time (what the workload offered, whether or
    /// not the system completed it).
    pub fn offered_throughput(&self) -> f64 {
        if self.end_time <= 0.0 {
            return 0.0;
        }
        self.generated as f64 / self.end_time
    }
}

/// A job waiting out its backoff before re-entering the arrival stream.
#[derive(Debug, Clone, Copy)]
struct OrbitEntry {
    job: Job,
    client: usize,
    /// Admission attempts already made (and failed).
    attempts: u32,
    /// The backoff wait that produced this entry (decorrelated jitter
    /// feeds it forward).
    prev_backoff: f64,
}

/// A scheduled deadline check for a waiting job.
#[derive(Debug, Clone, Copy)]
struct RenegeEntry {
    /// Where the job was queued at admission. A job moved elsewhere by
    /// work stealing or crash re-dispatch silently loses its deadline (a
    /// deliberate simplification: migration restarts the job's placement).
    server: ServerId,
    job_id: u64,
    client: usize,
    attempts: u32,
    prev_backoff: Option<f64>,
}

/// Routes a bounced (rejected or reneged) job: into the retry orbit with a
/// fresh backoff if attempts remain, otherwise it is abandoned. Draws only
/// from the dedicated retry stream.
#[allow(clippy::too_many_arguments)] // one slot per piece of bounce state
fn bounce(
    retry: Option<RetrySpec>,
    job: Job,
    client: usize,
    attempts: u32,
    prev_backoff: Option<f64>,
    now: f64,
    orbit: &mut EventQueue<OrbitEntry>,
    retry_rng: &mut SimRng,
    overload: &mut OverloadStats,
) -> Result<(), SchedError> {
    match retry {
        Some(spec) if attempts < spec.max_attempts => {
            let wait = spec.backoff(prev_backoff, retry_rng);
            overload.retries += 1;
            orbit.try_push(
                now + wait,
                OrbitEntry {
                    job,
                    client,
                    attempts,
                    prev_backoff: wait,
                },
            )?;
        }
        _ => overload.abandoned += 1,
    }
    Ok(())
}

/// Which system event fires next (fault events are handled separately).
#[derive(Debug, Clone, Copy)]
enum SystemEvent {
    Arrival,
    Departure,
    Renege,
    Orbit,
}

/// The crash/recovery process: each server alternates between up and down
/// with exponential time-to-failure (`mtbf`) and time-to-repair (`mttr`),
/// independently of the others.
///
/// All randomness is drawn from the engine's dedicated fault stream, in a
/// deterministic order (ties broken by server id), so the rest of the run
/// is unperturbed by the fault process.
struct CrashProcess {
    spec: CrashSpec,
    /// Next up→down or down→up transition time per server.
    next: Vec<f64>,
    down_since: Vec<Option<f64>>,
    /// Cached minimum of `next` (ties broken by lowest id). `next` only
    /// changes through `schedule_*`, so refreshing there keeps `peek` —
    /// called once per event-loop iteration — O(1) instead of an O(n)
    /// scan, which was a ~3x slowdown at n = 256 on faulted runs.
    pending: (f64, ServerId),
}

impl CrashProcess {
    fn new(spec: CrashSpec, n: usize, rng: &mut SimRng) -> Self {
        let next: Vec<f64> = (0..n).map(|_| rng.exp(spec.mtbf)).collect();
        let mut process = Self {
            spec,
            next,
            down_since: vec![None; n],
            pending: (f64::INFINITY, 0),
        };
        process.refresh();
        process
    }

    /// Recomputes the cached earliest transition. Strict `<` preserves
    /// the lowest-id tie-break the uncached scan had.
    fn refresh(&mut self) {
        let mut best = (f64::INFINITY, 0);
        for (s, &t) in self.next.iter().enumerate() {
            if t < best.0 {
                best = (t, s);
            }
        }
        self.pending = best;
    }

    /// The next transition (time, server); ties broken by lowest id.
    fn peek(&self) -> (f64, ServerId) {
        self.pending
    }

    fn schedule_crash(&mut self, server: ServerId, now: f64, rng: &mut SimRng) {
        self.next[server] = now + rng.exp(self.spec.mtbf);
        self.refresh();
    }

    fn schedule_recovery(&mut self, server: ServerId, now: f64, rng: &mut SimRng) {
        self.next[server] = now + rng.exp(self.spec.mttr);
        self.refresh();
    }
}

/// The view-partition process: recurring intervals during which a subset of
/// servers is invisible to the bulletin board (pure information-plane
/// faults — the hidden servers keep serving; see [`PartitionSpec`]).
/// Intervals never overlap: the next start is drawn when the current
/// partition heals. All randomness comes from a dedicated fork of the fault
/// stream taken only when partitions are configured, so partition-free runs
/// stay bit-identical.
struct PartitionProcess {
    spec: PartitionSpec,
    rng: SimRng,
    /// Next transition: a partition start while `hidden` is empty, the
    /// heal time otherwise.
    next: f64,
    /// When the active partition started (meaningful while `hidden` is
    /// non-empty).
    started: f64,
    /// Servers hidden by the active partition.
    hidden: Vec<ServerId>,
    /// Scratch index buffer for drawing random subsets.
    scratch: Vec<ServerId>,
    /// Server-seconds of invisibility over healed partitions.
    seconds: f64,
}

impl PartitionProcess {
    fn new(spec: PartitionSpec, mut rng: SimRng) -> Self {
        let next = rng.exp(spec.mtbf);
        Self {
            spec,
            rng,
            next,
            started: 0.0,
            hidden: Vec::new(),
            scratch: Vec::new(),
            seconds: 0.0,
        }
    }

    /// Time of the next start/heal transition.
    fn peek(&self) -> f64 {
        self.next
    }

    /// Fires the pending transition: hides a fresh subset of servers, or
    /// heals the active partition.
    fn step(&mut self, cluster: &mut Cluster, now: f64) {
        if self.hidden.is_empty() {
            let n = cluster.len();
            let count = ((self.spec.fraction * n as f64).floor() as usize).clamp(1, n);
            if self.spec.correlated {
                // A contiguous id block (a rack losing its uplink),
                // wrapping past the last id.
                let offset = self.rng.index(n);
                self.hidden.extend((0..count).map(|i| (offset + i) % n));
            } else {
                // Uniform random subset via a partial Fisher–Yates pass.
                self.scratch.clear();
                self.scratch.extend(0..n);
                for i in 0..count {
                    let j = i + self.rng.index(n - i);
                    self.scratch.swap(i, j);
                }
                self.hidden.extend(&self.scratch[..count]);
            }
            for &s in &self.hidden {
                cluster.set_visible(s, false);
            }
            self.started = now;
            self.next = now + self.spec.duration;
        } else {
            for &s in &self.hidden {
                cluster.set_visible(s, true);
            }
            self.seconds += self.hidden.len() as f64 * (now - self.started);
            self.hidden.clear();
            self.next = now + self.rng.exp(self.spec.mtbf);
        }
    }

    /// Server-seconds of invisibility as of `end_time`, counting the
    /// still-active partition's partial interval.
    fn total_seconds(&self, end_time: f64) -> f64 {
        if self.hidden.is_empty() {
            self.seconds
        } else {
            self.seconds + self.hidden.len() as f64 * (end_time - self.started).max(0.0)
        }
    }
}

/// Picks a uniformly random *up* server, or `None` if the whole cluster is
/// down. Used to re-route work around crashed servers; draws only from the
/// fault stream so placement policy streams stay unperturbed.
fn random_up_server(cluster: &Cluster, rng: &mut SimRng) -> Option<ServerId> {
    let ups = cluster.up_count();
    if ups == 0 {
        return None;
    }
    let mut k = rng.index(ups);
    for s in 0..cluster.len() {
        if cluster.is_up(s) {
            if k == 0 {
                return Some(s);
            }
            k -= 1;
        }
    }
    // lint: allow(panic-hygiene) — the loop visits every up server and k < ups
    unreachable!("up_count() counted the up servers")
}

/// Runs one simulation: `cfg.arrivals` jobs through `cfg.servers` FIFO
/// queues, routed by `policy` using views produced by `info`.
///
/// Jobs arriving during the warm-up fraction are excluded from the metric;
/// after the last arrival the system drains so every measured job completes.
///
/// Determinism: the run is a pure function of the configuration (including
/// `cfg.seed`). Independent RNG streams are forked for the arrival process,
/// service times, the policy, the information model, the fault process, and
/// the retry orbit, so e.g. changing the policy does not perturb the arrival
/// pattern — and a run with `FaultSpec::none()` and the overload controls
/// unset is bit-identical to one without that machinery (those streams are
/// forked last and never drawn from).
///
/// # Errors
///
/// Returns [`SimError::Config`] when the specs are inconsistent: bad policy
/// or info-model parameters, a bursty/MMPP arrival spec that cannot attain
/// the configured load, or loss, partition or corruption faults on an info
/// model without a board report path.
pub fn run_simulation(
    cfg: &SimConfig,
    arrivals: &ArrivalSpec,
    info: &InfoSpec,
    policy: &PolicySpec,
) -> Result<RunResult, SimError> {
    run_simulation_until(cfg, arrivals, info, policy, || false)
}

/// [`run_simulation`] that the caller can stop: both engine loops poll
/// `stop` once every 4096 steps (a step is an event or a board refresh)
/// and end the run when it returns `true`. `stop` sees nothing of the
/// run, so a run it never stops is bit-identical to [`run_simulation`]'s;
/// a wall-clock deadline reads the clock inside `stop`.
///
/// # Errors
///
/// Returns [`SimError::Stopped`] when `stop` fired, and otherwise the
/// errors of [`run_simulation`].
pub fn run_simulation_until(
    cfg: &SimConfig,
    arrivals: &ArrivalSpec,
    info: &InfoSpec,
    policy: &PolicySpec,
    mut stop: impl FnMut() -> bool,
) -> Result<RunResult, SimError> {
    let steps = StepCounter(0, &mut stop);
    // The population fast path has no pending-event set at all: its
    // events are a three-clock race.
    if cfg.engine == crate::EngineMode::Population {
        return crate::population::run_population(cfg, arrivals, info, policy, steps);
    }
    run_inner(cfg, arrivals, info, policy, steps)
}

/// Loop steps between two polls of a run's stop predicate: rare enough
/// that a clock read per poll costs nothing measurable, often enough that
/// a stop lands within about a millisecond.
const STOP_POLL_STEPS: u32 = 4096;

/// An engine's loop-step count and the stop predicate it polls.
pub(crate) struct StepCounter<'a>(u32, &'a mut dyn FnMut() -> bool);

impl StepCounter<'_> {
    /// Counts one step, and on every [`STOP_POLL_STEPS`]-th polls the
    /// predicate: [`SimError::Stopped`] when it fires.
    #[inline]
    pub(crate) fn step(&mut self) -> Result<(), SimError> {
        self.0 = self.0.wrapping_add(1);
        if self.0.is_multiple_of(STOP_POLL_STEPS) && (self.1)() {
            return Err(SimError::Stopped);
        }
        Ok(())
    }
}

fn run_inner(
    cfg: &SimConfig,
    arrivals: &ArrivalSpec,
    info: &InfoSpec,
    policy: &PolicySpec,
    mut steps: StepCounter<'_>,
) -> Result<RunResult, SimError> {
    info.validate().map_err(ConfigError::new)?;
    policy.validate().map_err(ConfigError::new)?;
    cfg.faults.validate()?;
    cfg.faults.check_report_path(info)?;
    // Hedging is engine machinery: strip the outermost wrapper (validate()
    // above already rejected h = 0 and nested hedging) and check the
    // factor fits the cluster and nothing else fights over job ownership.
    let (hedge, policy) = policy.split_hedged();
    if let Some(h) = hedge {
        if h as usize > cfg.servers {
            return Err(ConfigError::new(format!(
                "hedge factor h={h} exceeds the cluster size n={}",
                cfg.servers
            ))
            .into());
        }
        if cfg.queue_cap.is_some() || cfg.deadline.is_some() || cfg.retry.is_some() {
            return Err(ConfigError::new(
                "hedged dispatch cannot be combined with overload controls (queue \
                 caps, deadlines, retries): both would fight over job ownership",
            )
            .into());
        }
        if cfg.work_stealing.is_some() {
            return Err(ConfigError::new(
                "hedged dispatch cannot be combined with work stealing: a stolen \
                 replica would escape the hedge book",
            )
            .into());
        }
        if cfg.faults.crash.is_some() {
            return Err(ConfigError::new(
                "hedged dispatch cannot be combined with crash faults (a replica \
                 stalled on a down server could double-complete); model server \
                 loss with churn instead",
            )
            .into());
        }
    }

    let mut master = SimRng::from_seed(cfg.seed);
    let mut arrival_rng = master.fork();
    let mut service_rng = master.fork();
    let mut policy_rng = master.fork();
    let mut model_rng = master.fork();
    // Forked after the four streams the fault-free engine uses, so
    // fault-free runs replay historical trajectories bit-for-bit.
    let mut fault_rng = master.fork();
    // Forked last and drawn only by the retry orbit: configurations
    // without retries stay bit-identical too (same discipline as the
    // fault stream).
    let mut retry_rng = master.fork();

    let n = cfg.servers;
    let mut cluster = match &cfg.capacities {
        Some(caps) => Cluster::with_capacities(caps),
        None => Cluster::new(n),
    };
    cluster.set_queue_cap(cfg.queue_cap);
    if let Some(window) = info.history_window() {
        cluster.enable_history(window);
    }

    let mut model = InfoDispatch::from_spec(info, n, arrivals.clients());
    // Forks the fault stream only for a configured loss channel and live
    // corruption, so fault-free and honest runs stay bit-identical.
    model.degrade(cfg.faults.loss, cfg.faults.corrupt, &mut fault_rng);
    let mut policy = DispatchPolicy::from_spec(policy);
    // Churn is crash-with-eviction: a departing server's queue is drained
    // and re-dispatched (re-execution semantics) and it rejoins cold, so
    // the membership process reuses the crash machinery with redispatch
    // forced on. FaultSpec::validate() rejects configuring both at once.
    let membership = cfg.faults.crash.or(cfg.faults.churn.map(|c| CrashSpec {
        mtbf: c.mtbf,
        mttr: c.downtime,
        redispatch: true,
    }));
    let mut crash_process = membership.map(|spec| CrashProcess::new(spec, n, &mut fault_rng));
    let mut partition_process = cfg
        .faults
        .partition
        .map(|spec| PartitionProcess::new(spec, fault_rng.fork()));

    let total_rate = cfg.total_rate();
    let mut process = match *arrivals {
        ArrivalSpec::Poisson => ArrivalProcess::poisson(total_rate),
        ArrivalSpec::PoissonClients { clients } => {
            ArrivalProcess::poisson_clients(clients, total_rate)
        }
        ArrivalSpec::BurstyClients { clients, burst } => {
            let mean_inter_request = clients as f64 / total_rate;
            ArrivalProcess::bursty_clients(clients, mean_inter_request, burst, &mut arrival_rng)
                .map_err(|e| ConfigError::new(format!("bursty arrival spec: {e}")))?
        }
        ArrivalSpec::Mmpp {
            rate_ratio,
            high_fraction,
            cycle_mean,
        } => {
            if rate_ratio < 1.0 {
                return Err(ConfigError::new(format!(
                    "MMPP rate ratio must be at least 1, got {rate_ratio}"
                ))
                .into());
            }
            if !((0.0..1.0).contains(&high_fraction) && high_fraction > 0.0) {
                return Err(ConfigError::new(format!(
                    "MMPP high fraction must be in (0, 1), got {high_fraction}"
                ))
                .into());
            }
            // Solve the low rate so the sojourn-weighted mean is λ·n.
            let low = total_rate / (1.0 - high_fraction + high_fraction * rate_ratio);
            let high = rate_ratio * low;
            ArrivalProcess::mmpp(
                high,
                high_fraction * cycle_mean,
                low,
                (1.0 - high_fraction) * cycle_mean,
            )
            .map_err(|e| ConfigError::new(format!("MMPP arrival spec: {e}")))?
        }
    };

    let warmup = cfg.warmup_jobs();
    let mut departures: EventQueue<ServerId> = EventQueue::with_capacity(n);
    // The departure each server currently has in the queue. Crashes
    // invalidate scheduled departures; rather than remove them from the
    // queue we drop any popped/peeked entry that no longer matches.
    let mut scheduled: Vec<Option<f64>> = vec![None; n];
    // Wall-clock work the interrupted head job had left at crash time
    // (stall mode resumes it on recovery).
    let mut frozen: Vec<Option<f64>> = vec![None; n];
    let mut stats = FaultStats::default();
    let mut overload = OverloadStats::default();
    let mut resilience = ResilienceStats::default();
    // Hedged dispatch: replica locations per hedged job id, primary first
    // (BTreeMap keeps any iteration deterministic). h = 1 dispatches a
    // single copy, which is exactly the unhedged path.
    let hedge_h = hedge.filter(|&h| h > 1);
    let mut hedge_book: BTreeMap<u64, Vec<ServerId>> = BTreeMap::new();
    let mut hedge_scratch: Vec<ServerId> = Vec::new();
    // Deadline checks for waiting jobs and the retry orbit; both stay
    // empty (and cost nothing) when the overload controls are off.
    let mut reneges: EventQueue<RenegeEntry> = EventQueue::new();
    let mut orbit: EventQueue<OrbitEntry> = EventQueue::new();
    let mut response = OnlineStats::new();
    let mut detail = RunDetail::new(cfg.sketch_cap);
    let mut next_id: u64 = 0;
    let mut next_arrival: Option<(f64, usize)> = Some(process.next(&mut arrival_rng));
    let mut end_time: f64 = 0.0;

    loop {
        steps.step()?;
        // Discard departures a crash invalidated (their server's scheduled
        // slot was cleared or rescheduled) so peek_time sees a live event.
        while let Some((t, &server)) = departures.peek() {
            if scheduled[server] == Some(t) {
                break;
            }
            departures.pop();
        }

        // Event times are always finite, so None maps to infinity safely.
        let a = next_arrival.map_or(f64::INFINITY, |(t, _)| t);
        let d = departures.peek_time().unwrap_or(f64::INFINITY);
        let r = reneges.peek_time().unwrap_or(f64::INFINITY);
        let o = orbit.peek_time().unwrap_or(f64::INFINITY);
        let earliest = a.min(d).min(r).min(o);
        let system_next = earliest.is_finite().then_some(earliest);
        // Tie priority: arrivals first (the historical convention), then
        // departures — so a job entering service "at" its deadline is
        // served, not reneged — then deadline checks, then orbit
        // re-arrivals.
        let system_event = if a <= d && a <= r && a <= o {
            SystemEvent::Arrival
        } else if d <= r && d <= o {
            SystemEvent::Departure
        } else if r <= o {
            SystemEvent::Renege
        } else {
            SystemEvent::Orbit
        };
        let fault_next = match (
            crash_process.as_ref().map(|c| c.peek().0),
            partition_process.as_ref().map(PartitionProcess::peek),
        ) {
            (None, None) => None,
            (Some(c), None) => Some(c),
            (None, Some(p)) => Some(p),
            (Some(c), Some(p)) => Some(c.min(p)),
        };

        // Ties: system events before fault events, so a departure "at" the
        // crash instant completes and an arrival still sees the old regime.
        let (step_time, fault_step) = match (system_next, fault_next) {
            (None, None) => break,
            (None, Some(f)) => {
                if next_arrival.is_none() && cluster.in_system() == 0 {
                    // Fully drained: don't chase crash events forever.
                    break;
                }
                // Jobs are stranded on down servers (stall mode); only
                // fault events can advance the clock now.
                (f, true)
            }
            (Some(s), None) => (s, false),
            (Some(s), Some(f)) => {
                if f < s {
                    (f, true)
                } else {
                    (s, false)
                }
            }
        };

        // Let the information model catch up first (ties: model before
        // system events, so a board refreshed "at" an arrival's instant is
        // visible to that arrival). Each refresh counts as a step, so a
        // storm of refreshes at one instant can still be stopped.
        while let Some(t) = model.next_event() {
            if t <= step_time {
                model.on_event(t, &cluster);
                steps.step()?;
            } else {
                break;
            }
        }

        if fault_step {
            // Ties: membership transitions before partition transitions.
            let crash_due = crash_process
                .as_ref()
                .is_some_and(|c| c.peek().0 <= step_time);
            if !crash_due {
                let process = partition_process
                    .as_mut()
                    // lint: allow(panic-hygiene) — fault_step without a crash due implies a partition process
                    .expect("fault_step without a crash due implies a partition");
                process.step(&mut cluster, step_time);
                continue;
            }
            let process = crash_process
                .as_mut()
                // lint: allow(panic-hygiene) — fault_step is only set when crash_process is Some
                .expect("fault_step implies a crash process");
            let (t, server) = process.peek();
            if cluster.is_up(server) {
                stats.crashes += 1;
                process.down_since[server] = Some(t);
                cluster.crash(server, t);
                if let Some(dep) = scheduled[server].take() {
                    // The in-service job is interrupted; remember its
                    // remaining work so stall mode can resume it.
                    frozen[server] = Some(dep - t);
                }
                if process.spec.redispatch && cluster.up_count() > 0 {
                    // Move the whole queue (head included: it restarts from
                    // scratch elsewhere — re-execution semantics) to
                    // uniformly random up servers.
                    frozen[server] = None;
                    for job in cluster.drain(server, t) {
                        let target = random_up_server(&cluster, &mut fault_rng)
                            // lint: allow(panic-hygiene) — drain only runs when another server is up
                            .expect("up_count() > 0 was checked");
                        stats.redispatched += 1;
                        if let Some(dep) = cluster.requeue(target, job, t) {
                            departures.try_push(dep, target)?;
                            scheduled[target] = Some(dep);
                        }
                        if let Some(replicas) = hedge_book.get_mut(&job.id) {
                            // A migrated hedge replica must stay findable for
                            // cancel-on-completion.
                            if let Some(slot) = replicas.iter_mut().find(|s| **s == server) {
                                *slot = target;
                            }
                        }
                    }
                    detail.jobs_in_system.update(t, cluster.in_system() as f64);
                }
                process.schedule_recovery(server, t, &mut fault_rng);
            } else {
                stats.recoveries += 1;
                let since = process.down_since[server]
                    .take()
                    // lint: allow(panic-hygiene) — crash path always records down_since
                    .expect("a down server recorded when it went down");
                stats.downtime += t - since;
                if let Some(dep) = cluster.recover(server, t, frozen[server].take()) {
                    departures.try_push(dep, server)?;
                    scheduled[server] = Some(dep);
                }
                process.schedule_crash(server, t, &mut fault_rng);
            }
            continue;
        }

        // Arrivals and orbit re-arrivals share the admission flow below;
        // the tuple is (time, job, client, attempts made incl. this one,
        // previous backoff).
        let admission: Option<(f64, Job, usize, u32, Option<f64>)> = match system_event {
            SystemEvent::Arrival => {
                // lint: allow(panic-hygiene) — SystemEvent::Arrival is only chosen when next_arrival is Some
                let (t, client) = next_arrival.take().expect("arrival is present");
                let service = cfg.service.sample(&mut service_rng);
                let job = Job::new(next_id, t, service);
                next_id += 1;
                if next_id < cfg.arrivals {
                    next_arrival = Some(process.next(&mut arrival_rng));
                }
                Some((t, job, client, 1, None))
            }
            SystemEvent::Orbit => {
                // lint: allow(panic-hygiene) — SystemEvent::Orbit is only chosen when the orbit peeked Some
                let (t, entry) = orbit.pop().expect("orbit entry is present");
                Some((
                    t,
                    entry.job,
                    entry.client,
                    entry.attempts + 1,
                    Some(entry.prev_backoff),
                ))
            }
            SystemEvent::Departure => {
                // lint: allow(panic-hygiene) — SystemEvent::Departure is only chosen when a departure peeked Some
                let (t, server) = departures.pop().expect("departure is present");
                scheduled[server] = None;
                let (job, next) = cluster.complete(server, t);
                match next {
                    Some(dep) => {
                        departures.try_push(dep, server)?;
                        scheduled[server] = Some(dep);
                    }
                    None => {
                        // Receiver-driven rebalancing (extension): a server
                        // going idle pulls a waiting job from the longest
                        // queue.
                        if let Some(min_victim) = cfg.work_stealing {
                            if let Some(dep) = cluster.steal_for_idle(server, t, min_victim) {
                                departures.try_push(dep, server)?;
                                scheduled[server] = Some(dep);
                            }
                        }
                    }
                }
                // First completion wins: cancel the losing replicas of a
                // hedged job the instant any copy finishes.
                if let Some(replicas) = hedge_book.remove(&job.id) {
                    if replicas[0] != server {
                        resilience.hedges_won += 1;
                    }
                    let mut winner_seen = false;
                    for &s2 in &replicas {
                        if s2 == server && !winner_seen {
                            winner_seen = true;
                            continue;
                        }
                        let cancelled = if cluster.is_up(s2) {
                            if cluster.head_job_id(s2) == Some(job.id) {
                                // The loser is in service: abort it and
                                // promote its successor. Its stale departure
                                // event is dropped by the scheduled[] filter.
                                scheduled[s2] = None;
                                if let Some(dep) = cluster.abort_in_service(s2, t) {
                                    departures.try_push(dep, s2)?;
                                    scheduled[s2] = Some(dep);
                                }
                                true
                            } else {
                                cluster.cancel_waiting(s2, job.id, t, true).is_some()
                            }
                        } else {
                            // Down server (defensive: churn redispatch drains
                            // queues, so replicas migrate off dead servers).
                            if cluster.head_job_id(s2) == Some(job.id) {
                                frozen[s2] = None;
                            }
                            cluster.cancel_waiting(s2, job.id, t, false).is_some()
                        };
                        debug_assert!(cancelled, "hedge book tracked a missing replica");
                        if cancelled {
                            resilience.hedges_cancelled += 1;
                        }
                    }
                }
                if job.id >= warmup {
                    response.record(t - job.arrival);
                    detail.response_sketch.record(t - job.arrival);
                }
                detail.jobs_in_system.update(t, cluster.in_system() as f64);
                end_time = t;
                None
            }
            SystemEvent::Renege => {
                // lint: allow(panic-hygiene) — SystemEvent::Renege is only chosen when a renege peeked Some
                let (t, entry) = reneges.pop().expect("renege entry is present");
                // The head of an up, busy server is in service; on a down
                // server only an interrupted (frozen) head has started.
                let head_in_service = if cluster.is_up(entry.server) {
                    cluster.load(entry.server) > 0
                } else {
                    frozen[entry.server].is_some()
                };
                if let Some(job) =
                    cluster.renege_waiting(entry.server, entry.job_id, t, head_in_service)
                {
                    overload.reneged += 1;
                    detail.jobs_in_system.update(t, cluster.in_system() as f64);
                    bounce(
                        cfg.retry,
                        job,
                        entry.client,
                        entry.attempts,
                        entry.prev_backoff,
                        t,
                        &mut orbit,
                        &mut retry_rng,
                        &mut overload,
                    )?;
                }
                // A stale check (job already serving, completed, or
                // migrated) is dropped silently: nothing happened.
                None
            }
        };

        if let Some((t, job, client, attempts, prev_backoff)) = admission {
            policy.observe_arrival(t);
            let mut server = {
                let view = model.view(t, client, &mut cluster, &mut model_rng);
                policy.select_sized(&view, job.service, &mut policy_rng)
            };
            if !cluster.is_up(server) {
                // The policy picked a dead server (its board entry lives
                // on). Fail the placement over to a random up server — the
                // client's retry — or let the job wait out a full outage.
                if let Some(alive) = random_up_server(&cluster, &mut fault_rng) {
                    server = alive;
                    stats.redirected += 1;
                }
            }
            match cluster.admit(server, job, t) {
                Admission::Rejected => {
                    overload.rejected += 1;
                    bounce(
                        cfg.retry,
                        job,
                        client,
                        attempts,
                        prev_backoff,
                        t,
                        &mut orbit,
                        &mut retry_rng,
                        &mut overload,
                    )?;
                }
                accepted => {
                    if let Admission::InService(dep) = accepted {
                        departures.try_push(dep, server)?;
                        scheduled[server] = Some(dep);
                    } else if let Some(deadline) = cfg.deadline {
                        // Only a job that queued behind others can ever
                        // renege; one already in service serves to
                        // completion.
                        reneges.try_push(
                            t + deadline,
                            RenegeEntry {
                                server,
                                job_id: job.id,
                                client,
                                attempts,
                                prev_backoff,
                            },
                        )?;
                    }
                    model.after_placement(t, client, &cluster);
                    if let Some(h) = hedge_h {
                        // Place up to h − 1 hedge replicas on distinct extra
                        // servers chosen by the inner policy. Replicas go in
                        // via requeue (no arrival count), so conservation
                        // stays 1 arrival + 1 departure per logical job.
                        hedge_scratch.clear();
                        hedge_scratch.push(server);
                        for _ in 1..h {
                            let pick = {
                                let view = model.view(t, client, &mut cluster, &mut model_rng);
                                policy.select_sized(&view, job.service, &mut policy_rng)
                            };
                            if hedge_scratch.contains(&pick) || !cluster.is_up(pick) {
                                // Opportunistic hedging: a duplicate or dead
                                // pick just means one fewer replica.
                                continue;
                            }
                            resilience.hedges_issued += 1;
                            if let Some(dep) = cluster.requeue(pick, job, t) {
                                departures.try_push(dep, pick)?;
                                scheduled[pick] = Some(dep);
                            }
                            hedge_scratch.push(pick);
                        }
                        if hedge_scratch.len() > 1 {
                            hedge_book.insert(job.id, hedge_scratch.clone());
                        }
                    }
                    detail.jobs_in_system.update(t, cluster.in_system() as f64);
                }
            }
        }
    }

    debug_assert_eq!(cluster.in_system(), 0, "drain must empty the system");
    if let Some(process) = &crash_process {
        // Servers still down when the run ends contribute their partial
        // outage.
        for since in process.down_since.iter().flatten() {
            stats.downtime += (end_time - since).max(0.0);
        }
    }
    let mut diagnostics = Vec::new();
    let history_misses = cluster.history_misses();
    if history_misses > 0 {
        diagnostics.push(Diagnostic {
            code: "history-misses",
            message: format!(
                "{history_misses} delayed-view queries fell outside the retained load history; \
                 increase the history window (results may understate staleness effects)"
            ),
        });
    }
    detail.tallies = ServerTallies::PerServer {
        completed: (0..n).map(|s| cluster.completed(s)).collect(),
        busy: (0..n).map(|s| cluster.busy_time(s)).collect(),
    };
    if let Some(process) = &partition_process {
        resilience.partition_seconds = process.total_seconds(end_time);
    }
    let telemetry = policy.telemetry();
    resilience.quarantine_ejections = telemetry.ejections;
    resilience.quarantine_readmissions = telemetry.readmissions;
    resilience.corrupted_reports = model.corrupted_reports();
    Ok(RunResult {
        mean_response: response.mean(),
        response,
        measured_jobs: response.count(),
        generated: next_id,
        end_time,
        history_misses,
        faults: stats,
        overload,
        resilience,
        diagnostics,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultSpec, SimConfigBuilder};

    /// Test shorthand: run a configuration that is known to be valid.
    fn run(
        cfg: &SimConfig,
        arrivals: &ArrivalSpec,
        info: &InfoSpec,
        policy: &PolicySpec,
    ) -> RunResult {
        run_simulation(cfg, arrivals, info, policy).expect("test config is valid")
    }

    fn quick_cfg(seed: u64) -> SimConfig {
        SimConfig::builder()
            .servers(10)
            .lambda(0.5)
            .arrivals(30_000)
            .seed(seed)
            .build()
    }

    #[test]
    fn random_split_matches_mm1_theory() {
        // Random splitting of Poisson(λ·n) over n servers makes each an
        // independent M/M/1 at load λ: mean response = 1/(1-λ) = 2 at λ=0.5.
        let cfg = quick_cfg(11);
        let r = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(
            (r.mean_response - 2.0).abs() < 0.15,
            "mean response {} should be near 2.0",
            r.mean_response
        );
        assert_eq!(r.measured_jobs, 27_000);
        assert_eq!(r.generated, 30_000);
        assert_eq!(r.history_misses, 0);
        assert_eq!(r.faults, FaultStats::default());
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn fresh_greedy_beats_random() {
        let cfg = quick_cfg(12);
        let greedy = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Greedy,
        );
        let random = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(
            greedy.mean_response < random.mean_response,
            "greedy {} should beat random {}",
            greedy.mean_response,
            random.mean_response
        );
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let cfg = quick_cfg(13);
        let spec = PolicySpec::BasicLi { lambda: 0.5 };
        let info = InfoSpec::Periodic { period: 5.0 };
        let a = run(&cfg, &ArrivalSpec::Poisson, &info, &spec);
        let b = run(&cfg, &ArrivalSpec::Poisson, &info, &spec);
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
        assert_eq!(a.end_time.to_bits(), b.end_time.to_bits());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(
            &quick_cfg(1),
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        let b = run(
            &quick_cfg(2),
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert_ne!(a.mean_response.to_bits(), b.mean_response.to_bits());
    }

    #[test]
    fn invalid_specs_error_instead_of_panicking() {
        let cfg = quick_cfg(1);
        let bad_policy = run_simulation(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::KSubset { k: 0 },
        );
        assert!(
            matches!(bad_policy, Err(SimError::Config(_))),
            "{bad_policy:?}"
        );

        let bad_info = run_simulation(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 0.0 },
            &PolicySpec::Random,
        );
        assert!(matches!(bad_info, Err(SimError::Config(_))), "{bad_info:?}");

        let bad_mmpp = run_simulation(
            &cfg,
            &ArrivalSpec::Mmpp {
                rate_ratio: 0.5,
                high_fraction: 0.2,
                cycle_mean: 20.0,
            },
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(matches!(bad_mmpp, Err(SimError::Config(_))), "{bad_mmpp:?}");
    }

    #[test]
    fn loss_faults_need_a_board_model() {
        // A no-op loss clause acts on nothing, so any model takes it.
        for (p, info, ok) in [
            (0.5, InfoSpec::Fresh, false),
            (0.5, InfoSpec::Periodic { period: 5.0 }, true),
            (0.0, InfoSpec::Fresh, true),
        ] {
            let mut cfg = quick_cfg(1);
            cfg.faults = FaultSpec::drop(p);
            let r = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &PolicySpec::Random);
            assert_eq!(r.is_ok(), ok, "drop:{p} on {info:?}: {r:?}");
            assert!(matches!(r, Ok(_) | Err(SimError::Config(_))), "{r:?}");
        }
    }

    #[test]
    fn a_stop_predicate_ends_both_engines_on_its_poll() {
        // periodic:1e-300 is a refresh storm: the refresh time soon stops
        // advancing, so the board refreshes at one instant forever.
        use crate::EngineMode::{PerServer, Population};
        for (engine, period) in [(PerServer, 2.0), (PerServer, 1e-300), (Population, 1e-300)] {
            let mut cfg = quick_cfg(3);
            cfg.engine = engine;
            let (info, policy, mut polls) = (InfoSpec::Periodic { period }, PolicySpec::Random, 0);
            let r = run_simulation_until(&cfg, &ArrivalSpec::Poisson, &info, &policy, || {
                polls += 1;
                polls == 3
            });
            assert!(matches!(r, Err(SimError::Stopped)) && polls == 3, "{r:?}");
        }
    }

    #[test]
    fn fault_none_is_bit_identical_to_fault_free() {
        // The fault stream is forked but never drawn from, so the FaultSpec
        // plumbing must not perturb historical trajectories.
        let cfg = quick_cfg(13);
        let mut builder = SimConfig::builder();
        let cfg_none = builder
            .servers(10)
            .lambda(0.5)
            .arrivals(30_000)
            .seed(13)
            .faults(FaultSpec::none())
            .build();
        let spec = PolicySpec::BasicLi { lambda: 0.5 };
        let info = InfoSpec::Periodic { period: 5.0 };
        let a = run(&cfg, &ArrivalSpec::Poisson, &info, &spec);
        let b = run(&cfg_none, &ArrivalSpec::Poisson, &info, &spec);
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
        assert_eq!(a.end_time.to_bits(), b.end_time.to_bits());
    }

    fn faulty_cfg(seed: u64, faults: FaultSpec) -> SimConfig {
        SimConfig::builder()
            .servers(10)
            .lambda(0.5)
            .arrivals(30_000)
            .seed(seed)
            .faults(faults)
            .build()
    }

    #[test]
    fn crashes_complete_every_job_in_stall_mode() {
        let cfg = faulty_cfg(31, FaultSpec::crash(200.0, 20.0));
        let r = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 5.0 },
            &PolicySpec::BasicLi { lambda: 0.5 },
        );
        assert!(
            r.faults.crashes > 0,
            "MTBF 200 over a long run must crash someone"
        );
        assert!(r.faults.recoveries <= r.faults.crashes);
        assert_eq!(r.faults.redispatched, 0, "stall mode never moves jobs");
        assert_eq!(r.generated, 30_000);
        assert_eq!(
            r.detail.completed(),
            30_000,
            "every generated job completes despite crashes"
        );
        assert!(r.faults.downtime > 0.0);
        // Outages stall jobs, so response must be worse than fault-free.
        let fault_free = run(
            &faulty_cfg(31, FaultSpec::none()),
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 5.0 },
            &PolicySpec::BasicLi { lambda: 0.5 },
        );
        assert!(r.mean_response > fault_free.mean_response);
    }

    #[test]
    fn redispatch_moves_jobs_and_completes_them_all() {
        let mut faults = FaultSpec::crash(150.0, 30.0);
        faults.crash = faults.crash.map(|mut c| {
            c.redispatch = true;
            c
        });
        let cfg = faulty_cfg(32, faults);
        let r = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 5.0 },
            &PolicySpec::BasicLi { lambda: 0.5 },
        );
        assert!(r.faults.crashes > 0);
        assert!(
            r.faults.redispatched > 0,
            "busy servers crash with queued jobs"
        );
        assert_eq!(
            r.detail.completed(),
            30_000,
            "re-dispatched jobs complete elsewhere"
        );
    }

    #[test]
    fn crash_faults_are_deterministic() {
        let cfg = faulty_cfg(33, FaultSpec::crash(100.0, 10.0));
        let info = InfoSpec::Periodic { period: 5.0 };
        let spec = PolicySpec::BasicLi { lambda: 0.5 };
        let a = run(&cfg, &ArrivalSpec::Poisson, &info, &spec);
        let b = run(&cfg, &ArrivalSpec::Poisson, &info, &spec);
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn dropped_updates_degrade_li() {
        let mk = |faults: FaultSpec, seed: u64| {
            run(
                &SimConfig::builder()
                    .servers(16)
                    .lambda(0.9)
                    .arrivals(60_000)
                    .seed(seed)
                    .faults(faults)
                    .build(),
                &ArrivalSpec::Poisson,
                &InfoSpec::Periodic { period: 10.0 },
                &PolicySpec::BasicLi { lambda: 0.9 },
            )
            .mean_response
        };
        let clean: f64 = (40..43).map(|s| mk(FaultSpec::none(), s)).sum::<f64>() / 3.0;
        let lossy: f64 = (40..43).map(|s| mk(FaultSpec::drop(0.9), s)).sum::<f64>() / 3.0;
        assert!(
            lossy > clean,
            "losing 90% of board refreshes must hurt LI: lossy {lossy} vs clean {clean}"
        );
    }

    #[test]
    fn continuous_model_reports_no_history_misses() {
        let cfg = quick_cfg(14);
        let info = InfoSpec::Continuous {
            delay: staleload_info::DelaySpec::Exponential { mean: 2.0 },
            knowledge: staleload_info::AgeKnowledge::Actual,
        };
        let r = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &info,
            &PolicySpec::KSubset { k: 2 },
        );
        assert_eq!(
            r.history_misses, 0,
            "window must cover the delay distribution"
        );
        assert!(r.mean_response > 1.0);
    }

    #[test]
    fn update_on_access_runs_with_many_clients() {
        let cfg = SimConfig::builder()
            .servers(10)
            .lambda(0.5)
            .arrivals(20_000)
            .seed(15)
            .build();
        let r = run(
            &cfg,
            &ArrivalSpec::PoissonClients { clients: 25 },
            &InfoSpec::UpdateOnAccess,
            &PolicySpec::BasicLi { lambda: 0.5 },
        );
        assert_eq!(r.generated, 20_000);
        assert!(r.mean_response > 0.9);
    }

    #[test]
    fn mmpp_arrivals_keep_the_configured_mean_load() {
        let cfg = SimConfig::builder()
            .servers(10)
            .lambda(0.5)
            .arrivals(120_000)
            .seed(25)
            .build();
        let spec = ArrivalSpec::Mmpp {
            rate_ratio: 4.0,
            high_fraction: 0.2,
            cycle_mean: 20.0,
        };
        let r = run(&cfg, &spec, &InfoSpec::Fresh, &PolicySpec::Random);
        // Realized horizon matches arrivals / (λ·n) within a few percent.
        let expect = 120_000.0 / 5.0;
        assert!(
            (r.end_time - expect).abs() / expect < 0.06,
            "horizon {} vs expected {expect}",
            r.end_time
        );
        // Burstier arrivals queue more than plain Poisson at the same load.
        let poisson = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(
            r.mean_response > poisson.mean_response,
            "MMPP {} should exceed Poisson {}",
            r.mean_response,
            poisson.mean_response
        );
    }

    #[test]
    fn detail_metrics_are_consistent() {
        let cfg = quick_cfg(23);
        let r = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        // Little's law: E[N] = (total arrival rate) · E[T] over the run.
        let rate = r.generated as f64 / r.end_time;
        let little = rate * r.mean_response;
        let measured_n = r.detail.mean_jobs_in_system(r.end_time);
        assert!(
            (measured_n - little).abs() / little < 0.1,
            "Little's law: N {measured_n} vs lambda*T {little}"
        );
        // Utilization per server ≈ λ = 0.5.
        let mean_util = r.detail.mean_utilization(r.end_time);
        assert!(
            (mean_util - 0.5).abs() < 0.05,
            "mean utilization {mean_util}"
        );
        // Random placement over identical servers is fair.
        assert!(r.detail.throughput_fairness() > 0.99);
        // The sketch saw exactly the measured jobs, and the reported mean
        // is theirs.
        assert_eq!(r.detail.response_sketch.count(), r.measured_jobs);
        assert!(
            (r.response.mean() - r.mean_response).abs() < 1e-9,
            "response mean must match"
        );
        // Quantiles are ordered and bracket the mean sensibly.
        let p50 = r.detail.response_quantile(0.5);
        let p99 = r.detail.response_quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= r.response.max());
    }

    #[test]
    fn herding_shows_up_in_peak_occupancy() {
        let cfg = SimConfig::builder()
            .servers(16)
            .lambda(0.9)
            .arrivals(60_000)
            .seed(24)
            .build();
        let info = InfoSpec::Periodic { period: 30.0 };
        let greedy = run(&cfg, &ArrivalSpec::Poisson, &info, &PolicySpec::Greedy);
        let li = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &info,
            &PolicySpec::BasicLi { lambda: 0.9 },
        );
        assert!(
            greedy.detail.peak_jobs_in_system() > 2.0 * li.detail.peak_jobs_in_system(),
            "herding peak {} should dwarf LI peak {}",
            greedy.detail.peak_jobs_in_system(),
            li.detail.peak_jobs_in_system()
        );
    }

    #[test]
    fn work_stealing_helps_oblivious_random() {
        let mut builder = SimConfig::builder();
        let base = builder.servers(10).lambda(0.8).arrivals(60_000).seed(17);
        let plain = run(
            &base.build(),
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        let stealing = run(
            &base.work_stealing(2).build(),
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(
            stealing.mean_response < plain.mean_response * 0.7,
            "stealing {} should clearly beat plain random {}",
            stealing.mean_response,
            plain.mean_response
        );
        assert_eq!(stealing.generated, 60_000);
    }

    #[test]
    fn hetero_li_beats_capacity_blind_li() {
        // Half the servers are 1.6x, half 0.4x: a capacity-blind policy
        // balances queue lengths and overloads the slow machines.
        let caps: Vec<f64> = (0..10).map(|i| if i < 5 { 1.6 } else { 0.4 }).collect();
        let cfg = SimConfig::builder()
            .capacities(caps.clone())
            .lambda(0.7)
            .arrivals(80_000)
            .seed(18)
            .build();
        let info = InfoSpec::Periodic { period: 2.0 };
        let blind = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &info,
            &PolicySpec::BasicLi { lambda: 0.7 },
        );
        let aware = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &info,
            &PolicySpec::HeteroLi {
                lambda: 0.7,
                capacities: caps,
            },
        );
        assert!(
            aware.mean_response < blind.mean_response,
            "capacity-aware {} should beat capacity-blind {}",
            aware.mean_response,
            blind.mean_response
        );
    }

    #[test]
    fn adaptive_li_approaches_oracle_li() {
        let cfg = SimConfig::builder()
            .servers(20)
            .lambda(0.9)
            .arrivals(120_000)
            .seed(19)
            .build();
        let info = InfoSpec::Periodic { period: 10.0 };
        let oracle = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &info,
            &PolicySpec::BasicLi { lambda: 0.9 },
        );
        let adaptive = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &info,
            &PolicySpec::AdaptiveLi {
                alpha: 0.01,
                warmup: 1000,
            },
        );
        let gap = (adaptive.mean_response - oracle.mean_response) / oracle.mean_response;
        assert!(
            gap < 0.1,
            "adaptive {} should be within 10% of oracle {}",
            adaptive.mean_response,
            oracle.mean_response
        );
    }

    fn overload_cfg(seed: u64) -> SimConfigBuilder {
        let mut b = SimConfig::builder();
        b.servers(8).lambda(0.95).arrivals(30_000).seed(seed);
        b
    }

    #[test]
    fn queue_cap_rejects_and_conserves() {
        let cfg = overload_cfg(41).queue_cap(2).build();
        let r = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(r.overload.rejected > 0, "cap 2 at load 0.95 must bounce");
        assert_eq!(r.overload.reneged, 0);
        assert_eq!(r.overload.retries, 0, "no retry configured");
        assert_eq!(
            r.overload.abandoned, r.overload.rejected,
            "without retries every bounce is terminal"
        );
        // Every generated job either completed on some server or was
        // abandoned at admission.
        assert_eq!(r.detail.completed() + r.overload.abandoned, r.generated);
        assert!(r.goodput() < r.offered_throughput());
        // Shedding keeps waits short: mean response beats the uncapped run.
        let uncapped = run(
            &overload_cfg(41).build(),
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(r.mean_response < uncapped.mean_response);
        assert!(uncapped.overload.is_zero());
    }

    #[test]
    fn deadlines_renege_waiting_jobs() {
        let cfg = overload_cfg(42).deadline(1.0).build();
        let r = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(
            r.overload.reneged > 0,
            "1s patience at load 0.95 must renege"
        );
        assert_eq!(r.overload.rejected, 0, "no cap configured");
        assert_eq!(r.overload.abandoned, r.overload.reneged);
        assert_eq!(r.detail.completed() + r.overload.abandoned, r.generated);
        // A reneged job never reports a response time.
        assert!(r.measured_jobs < r.generated);
        // Jobs that did complete waited less than the patience bound, so the
        // measured mean must beat the uncontrolled run's.
        let free = run(
            &overload_cfg(42).build(),
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(r.mean_response < free.mean_response);
    }

    #[test]
    fn retry_orbit_reoffers_bounced_jobs() {
        let retry = RetrySpec {
            max_attempts: 5,
            base: 0.5,
            cap: 8.0,
        };
        let cfg = overload_cfg(43).queue_cap(2).retry(retry).build();
        let r = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(r.overload.retries > 0, "bounced jobs must re-enter");
        // Both conservation laws hold exactly.
        assert_eq!(
            r.overload.rejected + r.overload.reneged,
            r.overload.retries + r.overload.abandoned,
        );
        assert_eq!(r.detail.completed() + r.overload.abandoned, r.generated);
        // Retries rescue most bounced jobs, so fewer are lost than in the
        // no-retry run — and more admission attempts are made overall.
        let no_retry = run(
            &overload_cfg(43).queue_cap(2).build(),
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(r.overload.abandoned < no_retry.overload.abandoned);
        assert!(r.overload.retry_amplification(r.generated) > 1.0);
        assert!(r.goodput() > no_retry.goodput());
    }

    #[test]
    fn untriggered_controls_are_bit_identical() {
        // Controls set so loose they never fire (cap above any backlog,
        // patience beyond any wait, retries armed but never drawn) must
        // replay the uncontrolled trajectory bit for bit: the retry stream
        // is forked unconditionally, renege checks consume no randomness,
        // and admission under a slack cap is plain enqueue.
        let plain = run(
            &quick_cfg(44),
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 5.0 },
            &PolicySpec::BasicLi { lambda: 0.5 },
        );
        let mut b = SimConfig::builder();
        b.servers(10)
            .lambda(0.5)
            .arrivals(30_000)
            .seed(44)
            .queue_cap(1_000_000)
            .deadline(1e9)
            .retry(RetrySpec {
                max_attempts: 5,
                base: 1.0,
                cap: 10.0,
            });
        let guarded = run(
            &b.build(),
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 5.0 },
            &PolicySpec::BasicLi { lambda: 0.5 },
        );
        assert_eq!(
            plain.mean_response.to_bits(),
            guarded.mean_response.to_bits()
        );
        assert_eq!(plain.end_time.to_bits(), guarded.end_time.to_bits());
        assert!(guarded.overload.is_zero());
    }

    #[test]
    fn overload_runs_are_deterministic() {
        let retry = RetrySpec {
            max_attempts: 4,
            base: 0.25,
            cap: 4.0,
        };
        let mk = || {
            run(
                &overload_cfg(45)
                    .queue_cap(3)
                    .deadline(2.0)
                    .retry(retry)
                    .build(),
                &ArrivalSpec::Poisson,
                &InfoSpec::Periodic { period: 5.0 },
                &PolicySpec::BasicLi { lambda: 0.95 },
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
        assert_eq!(a.end_time.to_bits(), b.end_time.to_bits());
        assert_eq!(a.overload, b.overload);
        assert!(a.overload.rejected > 0 || a.overload.reneged > 0);
    }

    #[test]
    fn guarded_policy_runs_and_can_trip() {
        // A greedy policy on a stale board herds; the guard must notice and
        // the run must still complete every job.
        let cfg = SimConfig::builder()
            .servers(16)
            .lambda(0.9)
            .arrivals(60_000)
            .seed(46)
            .build();
        let guarded = PolicySpec::Guarded {
            threshold: 2.0,
            cooldown: 50.0,
            inner: Box::new(PolicySpec::Greedy),
        };
        let info = InfoSpec::Periodic { period: 30.0 };
        let g = run(&cfg, &ArrivalSpec::Poisson, &info, &guarded);
        let naked = run(&cfg, &ArrivalSpec::Poisson, &info, &PolicySpec::Greedy);
        assert_eq!(g.generated, 60_000);
        assert_eq!(g.detail.completed(), 60_000);
        assert!(
            g.detail.peak_jobs_in_system() < naked.detail.peak_jobs_in_system(),
            "breaking the herd must lower the backlog peak: guarded {} vs naked {}",
            g.detail.peak_jobs_in_system(),
            naked.detail.peak_jobs_in_system()
        );
    }

    #[test]
    fn disabled_resilience_wrappers_are_bit_identical() {
        // Hedged with h = 1 and a quarantine that never fires must replay
        // the naked policy's trajectory bit for bit (same RNG draw order).
        let cfg = quick_cfg(41);
        let info = InfoSpec::Periodic { period: 5.0 };
        let naked = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &info,
            &PolicySpec::BasicLi { lambda: 0.5 },
        );
        let hedged = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &info,
            &PolicySpec::Hedged {
                h: 1,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.5 }),
            },
        );
        assert_eq!(
            naked.mean_response.to_bits(),
            hedged.mean_response.to_bits()
        );
        assert_eq!(naked.end_time.to_bits(), hedged.end_time.to_bits());
        assert!(hedged.resilience.is_zero());
        let quarantined = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &info,
            &PolicySpec::Quarantined {
                window: 1e12,
                backoff: 1e12,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.5 }),
            },
        );
        assert_eq!(
            naked.mean_response.to_bits(),
            quarantined.mean_response.to_bits()
        );
        assert!(quarantined.resilience.is_zero());
    }

    #[test]
    fn hedged_dispatch_conserves_jobs_and_cancels_losers() {
        let cfg = quick_cfg(42);
        let r = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 10.0 },
            &PolicySpec::Hedged {
                h: 2,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.5 }),
            },
        );
        assert_eq!(r.generated, 30_000);
        assert_eq!(
            r.detail.completed(),
            30_000,
            "each hedged job completes exactly once"
        );
        assert!(r.resilience.hedges_issued > 0);
        assert_eq!(
            r.resilience.hedges_cancelled, r.resilience.hedges_issued,
            "every replica is cancelled — either it loses, or it wins and \
             displaces exactly one sibling"
        );
        assert!(
            r.resilience.hedges_won > 0,
            "with a stale board the second pick must sometimes finish first"
        );
        assert!(r.resilience.hedges_won <= r.resilience.hedges_issued);
    }

    #[test]
    fn hedge_misconfigurations_error_instead_of_panicking() {
        let hedged = |h| PolicySpec::Hedged {
            h,
            inner: Box::new(PolicySpec::BasicLi { lambda: 0.5 }),
        };
        let info = InfoSpec::Periodic { period: 5.0 };
        // h exceeding the cluster size (quick_cfg has 10 servers).
        let too_big = run_simulation(&quick_cfg(1), &ArrivalSpec::Poisson, &info, &hedged(11));
        assert!(matches!(too_big, Err(SimError::Config(_))), "{too_big:?}");
        // Hedging cannot share job ownership with the overload controls...
        let capped = SimConfig::builder()
            .servers(10)
            .lambda(0.5)
            .arrivals(1_000)
            .seed(1)
            .queue_cap(4)
            .build();
        let clash = run_simulation(&capped, &ArrivalSpec::Poisson, &info, &hedged(2));
        assert!(matches!(clash, Err(SimError::Config(_))), "{clash:?}");
        // ...nor with work stealing or crash faults.
        let stealing = SimConfig::builder()
            .servers(10)
            .lambda(0.5)
            .arrivals(1_000)
            .seed(1)
            .work_stealing(2)
            .build();
        let stolen = run_simulation(&stealing, &ArrivalSpec::Poisson, &info, &hedged(2));
        assert!(matches!(stolen, Err(SimError::Config(_))), "{stolen:?}");
        let crashy = faulty_cfg(1, FaultSpec::crash(100.0, 10.0));
        let crashed = run_simulation(&crashy, &ArrivalSpec::Poisson, &info, &hedged(2));
        assert!(matches!(crashed, Err(SimError::Config(_))), "{crashed:?}");
    }

    #[test]
    fn partition_and_corruption_need_a_board_model() {
        let partitioned = faulty_cfg(1, FaultSpec::partition(50.0, 10.0, 0.3));
        let err = run_simulation(
            &partitioned,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(matches!(err, Err(SimError::Config(_))), "{err:?}");
        let corrupted = faulty_cfg(1, FaultSpec::corrupt(0.3));
        let err = run_simulation(
            &corrupted,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Random,
        );
        assert!(matches!(err, Err(SimError::Config(_))), "{err:?}");
    }

    #[test]
    fn churn_conserves_jobs() {
        let cfg = faulty_cfg(43, FaultSpec::churn(150.0, 30.0));
        let r = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Periodic { period: 5.0 },
            &PolicySpec::BasicLi { lambda: 0.5 },
        );
        assert!(
            r.faults.crashes > 0,
            "membership churn reuses the crash counters"
        );
        assert!(
            r.faults.redispatched > 0,
            "a departing server hands its queue off"
        );
        assert_eq!(
            r.detail.completed(),
            30_000,
            "every job survives membership churn"
        );
    }

    #[test]
    fn resilience_faults_are_deterministic() {
        let mut faults = FaultSpec::partition(60.0, 20.0, 0.3);
        faults.corrupt = FaultSpec::corrupt(0.2).corrupt;
        let cfg = faulty_cfg(44, faults);
        let spec = PolicySpec::Quarantined {
            window: 15.0,
            backoff: 10.0,
            inner: Box::new(PolicySpec::BasicLi { lambda: 0.5 }),
        };
        let info = InfoSpec::Periodic { period: 5.0 };
        let a = run(&cfg, &ArrivalSpec::Poisson, &info, &spec);
        let b = run(&cfg, &ArrivalSpec::Poisson, &info, &spec);
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
        assert_eq!(a.resilience, b.resilience);
        assert!(a.resilience.partition_seconds > 0.0);
        assert!(a.resilience.corrupted_reports > 0);
        assert!(
            a.resilience.quarantine_ejections > 0,
            "a 20-time-unit partition must age someone past a 15-unit window"
        );
        assert!(a.resilience.quarantine_readmissions <= a.resilience.quarantine_ejections);
        assert_eq!(
            a.detail.completed(),
            30_000,
            "partitions hide servers from the board but never lose jobs"
        );
    }

    #[test]
    fn partitions_degrade_naive_li_and_hedging_recovers() {
        let mk = |policy: &PolicySpec, faults: FaultSpec, seed: u64| {
            run(
                &SimConfig::builder()
                    .servers(16)
                    .lambda(0.6)
                    .arrivals(60_000)
                    .seed(seed)
                    .faults(faults)
                    .build(),
                &ArrivalSpec::Poisson,
                &InfoSpec::Periodic { period: 10.0 },
                policy,
            )
            .mean_response
        };
        let naive = PolicySpec::BasicLi { lambda: 0.6 };
        let hedged = PolicySpec::Hedged {
            h: 2,
            inner: Box::new(naive.clone()),
        };
        let part = || FaultSpec::partition(50.0, 25.0, 0.25);
        let clean: f64 = (50..53)
            .map(|s| mk(&naive, FaultSpec::none(), s))
            .sum::<f64>()
            / 3.0;
        let blind: f64 = (50..53).map(|s| mk(&naive, part(), s)).sum::<f64>() / 3.0;
        let recovered: f64 = (50..53).map(|s| mk(&hedged, part(), s)).sum::<f64>() / 3.0;
        assert!(
            blind > clean,
            "frozen board entries must hurt naive LI: partitioned {blind} vs clean {clean}"
        );
        // First-completion-wins erases the cost of a pick trapped by a
        // frozen entry — the sibling on a visible server finishes first.
        // (Quarantine, by contrast, does NOT recover partition damage here:
        // hidden servers are healthy, so ejecting them burns capacity. The
        // ext_resilience bench records that comparison.)
        assert!(
            recovered < blind,
            "hedging must recover the partition loss: hedged {recovered} vs naive {blind}"
        );
    }

    #[test]
    fn response_times_are_at_least_service_times() {
        // With deterministic service of 1, every response is >= 1.
        let cfg = SimConfig::builder()
            .servers(4)
            .lambda(0.3)
            .arrivals(5_000)
            .service(staleload_sim::Dist::constant(1.0))
            .seed(16)
            .build();
        let r = run(
            &cfg,
            &ArrivalSpec::Poisson,
            &InfoSpec::Fresh,
            &PolicySpec::Greedy,
        );
        assert!(
            r.response.min() >= 1.0 - 1e-9,
            "min response {}",
            r.response.min()
        );
    }
}
