//! The discrete-event simulation loop.

use std::collections::BTreeMap;

use staleload_cluster::{Admission, Cluster, Job, ServerId};
use staleload_info::{InfoDispatch, InfoModel, InfoSpec};
use staleload_policies::{DispatchPolicy, Policy, PolicySpec};
use staleload_sim::{EventQueue, OnlineStats, Sampler, SchedError, SimRng};
use staleload_workloads::{ArrivalProcess, RetrySpec};

use crate::config::{mmpp_process, ConfigError};
use crate::metrics::ServerTallies;
use crate::{
    check_run, ArrivalSpec, CrashSpec, FaultStats, OverloadStats, PartitionSpec, ResilienceStats,
    RunDetail, SimConfig, SimError,
};

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

/// An event queue operation's outcome (it rejects NaN and negative times).
type Sched<T = ()> = Result<T, SchedError>;

/// A completed departure: its time, server and job.
type Done = (f64, ServerId, Job);

/// The per-server engine's event sources, in tie order: of two events at
/// one time, the one listed first fires first. The board catches up first,
/// so a board refreshed "at" an arrival's instant is visible to that
/// arrival. Arrivals go before departures (the historical convention),
/// departures before deadline checks, so a job entering service "at" its
/// deadline is served, then orbit re-arrivals. System events go before
/// fault events, so a departure "at" the crash instant completes and an
/// arrival still sees the old regime; crashes go before partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Board,
    Arrival,
    Departure,
    Deadline,
    Orbit,
    Crash,
    Partition,
}

/// Picks the next event from each source's next time (`due`, indexed by
/// [`Source`], `∞` for none): the least `(time, source)`, where the board
/// only catches up to another pending event. `None` ends the run: no
/// arrival, departure, deadline check or orbit re-arrival is pending, and
/// the cluster is `drained` or no fault event is pending either. Jobs
/// stranded on down servers keep the run going on fault events alone.
fn next_event(due: [f64; 7], drained: bool) -> Option<(f64, Source)> {
    use Source::*;
    let [board, arrival, departure, deadline, orbit, crash, partition] = due;
    let system = arrival.min(departure).min(deadline).min(orbit);
    let fault = crash.min(partition);
    if system == f64::INFINITY && (drained || fault == f64::INFINITY) {
        return None;
    }
    Some(if board <= system.min(fault) {
        (board, Board)
    } else if fault < system {
        (fault, if crash <= partition { Crash } else { Partition })
    } else if arrival <= departure && arrival <= deadline && arrival <= orbit {
        (arrival, Arrival)
    } else if departure <= deadline && departure <= orbit {
        (departure, Departure)
    } else if deadline <= orbit {
        (deadline, Deadline)
    } else {
        (orbit, Orbit)
    })
}

/// One admission attempt of a job: its arrival, or a re-arrival from the
/// retry orbit after `prev_backoff`, which decorrelated jitter feeds forward.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    job: Job,
    client: usize,
    /// Attempts made, this one included.
    attempts: u32,
    prev_backoff: Option<f64>,
}

/// The arrival source: the workload's pending arrival (`None` once every
/// job has arrived), whose job's service time is drawn as it arrives.
struct Arrivals<'a> {
    process: ArrivalProcess,
    next: Option<(f64, usize)>,
    /// Jobs generated so far: the next job's id.
    generated: u64,
    limit: u64,
    service: Sampler,
    arrival_rng: &'a mut SimRng,
    service_rng: &'a mut SimRng,
}

impl Arrivals<'_> {
    /// Takes the pending arrival and draws the next one.
    fn take(&mut self) -> Option<(f64, Attempt)> {
        let (t, client) = self.next.take()?;
        let job = Job::new(self.generated, t, self.service.sample(self.service_rng));
        self.generated += 1;
        if self.generated < self.limit {
            self.next = Some(self.process.next(self.arrival_rng));
        }
        let attempt = Attempt {
            job,
            client,
            attempts: 1,
            prev_backoff: None,
        };
        Some((t, attempt))
    }
}

/// The departure book: every server's scheduled departure.
struct DepartureBook {
    queue: EventQueue<ServerId>,
    /// The departure each server has in the queue. Crashes and cancelled
    /// hedge replicas invalidate departures in place; `due` drops a head
    /// that no longer matches.
    scheduled: Vec<Option<f64>>,
    /// Wall-clock work the interrupted head job had left at crash time
    /// (stall mode resumes it on recovery).
    frozen: Vec<Option<f64>>,
}

impl DepartureBook {
    /// The next live departure's time.
    fn due(&mut self) -> f64 {
        while let Some((t, &server)) = self.queue.peek() {
            if self.scheduled[server] == Some(t) {
                return t;
            }
            self.queue.pop();
        }
        f64::INFINITY
    }

    /// Books the departure a cluster call returned for `server`, if any.
    fn book(&mut self, server: ServerId, departure: Option<f64>) -> Sched {
        if let Some(t) = departure {
            self.queue.try_push(t, server)?;
            self.scheduled[server] = Some(t);
        }
        Ok(())
    }

    /// Completes the next departure. With work stealing, a server going
    /// idle pulls a waiting job from the longest queue (receiver-driven
    /// rebalancing, an extension).
    fn complete(&mut self, cluster: &mut Cluster, steal: Option<u32>) -> Sched<Option<Done>> {
        let Some((t, &server)) = self.queue.peek() else {
            return Ok(None);
        };
        self.scheduled[server] = None;
        let (job, next) = cluster.complete(server, t);
        if let Some(dep) = next {
            // The server's next departure takes the head's place: a pop
            // and a push in one sift.
            self.queue.try_hold(dep, server)?;
            self.scheduled[server] = Some(dep);
        } else {
            self.queue.pop();
            if let Some(min_victim) = steal {
                self.book(server, cluster.steal_for_idle(server, t, min_victim))?;
            }
        }
        Ok(Some((t, server, job)))
    }

    /// Drops `server`'s departure: its job in service was aborted.
    fn cancel(&mut self, server: ServerId) {
        self.scheduled[server] = None;
    }

    /// Drops `server`'s departure at a crash, keeping its job's work left.
    fn interrupt(&mut self, server: ServerId, t: f64) {
        if let Some(dep) = self.scheduled[server].take() {
            self.frozen[server] = Some(dep - t);
        }
    }

    /// Takes the work `server`'s interrupted job has left.
    fn thaw(&mut self, server: ServerId) -> Option<f64> {
        self.frozen[server].take()
    }
}

/// The retry orbit: bounced jobs waiting out their backoff before they
/// re-enter the arrival stream. Only the orbit draws the retry stream.
struct RetryOrbit<'a> {
    queue: EventQueue<Attempt>,
    retry: Option<RetrySpec>,
    retry_rng: &'a mut SimRng,
}

impl RetryOrbit<'_> {
    /// Takes a bounced (rejected or reneged) attempt: into the orbit with a
    /// fresh backoff if attempts remain, otherwise it is abandoned.
    fn offer(&mut self, now: f64, bounced: Attempt, overload: &mut OverloadStats) -> Sched {
        match self.retry {
            Some(spec) if bounced.attempts < spec.max_attempts => {
                let mut orbiting = bounced;
                let wait = spec.backoff(bounced.prev_backoff, self.retry_rng);
                orbiting.prev_backoff = Some(wait);
                overload.retries += 1;
                self.queue.try_push(now + wait, orbiting)?;
            }
            _ => overload.abandoned += 1,
        }
        Ok(())
    }

    /// Takes the next re-arrival: its job's next attempt.
    fn reenter(&mut self) -> Option<(f64, Attempt)> {
        let (t, mut attempt) = self.queue.pop()?;
        attempt.attempts += 1;
        Some((t, attempt))
    }
}

/// The information model and the policy: between them they pick servers.
struct Router<'a> {
    model: InfoDispatch,
    policy: DispatchPolicy,
    model_rng: &'a mut SimRng,
    policy_rng: &'a mut SimRng,
}

impl Router<'_> {
    /// The policy's pick for a job of size `service` from `client`'s view.
    fn pick(&mut self, t: f64, client: usize, service: f64, cluster: &mut Cluster) -> ServerId {
        let view = self.model.view(t, client, cluster, self.model_rng);
        self.policy.select_sized(&view, service, self.policy_rng)
    }
}

/// The hedge book: where each hedged job's copies sit, primary first, until
/// one completes (a `BTreeMap` keeps iteration deterministic).
#[derive(Default)]
struct HedgeBook {
    /// Copies per job, `None` unless h > 1 (h = 1 is the unhedged path).
    copies: Option<u32>,
    replicas: BTreeMap<u64, Vec<ServerId>>,
    /// The copies of the job being placed.
    placing: Vec<ServerId>,
    stats: ResilienceStats,
}

impl HedgeBook {
    /// Places up to h − 1 replicas of `attempt`'s job, admitted to
    /// `primary` at `t`, on distinct extra servers the router picks; a
    /// duplicate or dead pick just means one fewer replica. Replicas go in
    /// via requeue (no arrival count), so conservation stays 1 arrival + 1
    /// departure per logical job.
    fn place(
        &mut self,
        t: f64,
        attempt: &Attempt,
        primary: ServerId,
        cluster: &mut Cluster,
        departures: &mut DepartureBook,
        router: &mut Router<'_>,
    ) -> Sched {
        let (Some(h), job) = (self.copies, attempt.job) else {
            return Ok(());
        };
        self.placing.clear();
        self.placing.push(primary);
        for _ in 1..h {
            let server = router.pick(t, attempt.client, job.service, cluster);
            if self.placing.contains(&server) || !cluster.is_up(server) {
                continue;
            }
            self.stats.hedges_issued += 1;
            departures.book(server, cluster.requeue(server, job, t))?;
            self.placing.push(server);
        }
        if self.placing.len() > 1 {
            self.replicas.insert(job.id, self.placing.clone());
        }
        Ok(())
    }

    /// Follows a replica that churn moved off `from`, so that its
    /// cancellation still finds it.
    fn migrate(&mut self, job_id: u64, from: ServerId, to: ServerId) {
        let mut replicas = self.replicas.get_mut(&job_id).into_iter().flatten();
        if let Some(slot) = replicas.find(|s| **s == from) {
            *slot = to;
        }
    }

    /// First completion wins: cancels the other copies of the job `done`
    /// completed.
    fn cancel_losers(
        &mut self,
        done: Done,
        cluster: &mut Cluster,
        departures: &mut DepartureBook,
    ) -> Sched {
        let (t, winner, job) = done;
        let Some(replicas) = self.replicas.remove(&job.id) else {
            return Ok(());
        };
        self.stats.hedges_won += u64::from(replicas[0] != winner);
        let mut winner_seen = false;
        for &s in &replicas {
            if s == winner && !winner_seen {
                winner_seen = true;
                continue;
            }
            let at_head = cluster.head_job_id(s) == Some(job.id);
            let cancelled = if !cluster.is_up(s) {
                // Defensive: churn re-dispatch drains a down server's
                // queue, so replicas migrate off dead servers.
                if at_head {
                    departures.thaw(s);
                }
                cluster.cancel_waiting(s, job.id, t, false).is_some()
            } else if at_head {
                // The loser is in service: abort it, promote its successor
                // and drop its departure.
                departures.cancel(s);
                departures.book(s, cluster.abort_in_service(s, t))?;
                true
            } else {
                cluster.cancel_waiting(s, job.id, t, true).is_some()
            };
            debug_assert!(cancelled, "hedge book tracked a missing replica");
            self.stats.hedges_cancelled += u64::from(cancelled);
        }
        Ok(())
    }
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
    /// The next transition (time, server): the minimum of `next`, ties
    /// broken by lowest id. `next` only changes through `step`, so
    /// refreshing there keeps this read — once per event-loop iteration —
    /// O(1) instead of an O(n) scan, which was a ~3x slowdown at n = 256
    /// on faulted runs.
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

    /// Fires the pending transition. A crashing server's job in service
    /// stalls with the work it has left, or, with re-dispatch, its whole
    /// queue (head included: it restarts from scratch elsewhere —
    /// re-execution semantics) moves to uniformly random up servers, and
    /// the step says so. A recovering server resumes its stalled job.
    fn step(
        &mut self,
        cluster: &mut Cluster,
        departures: &mut DepartureBook,
        hedges: &mut HedgeBook,
        stats: &mut FaultStats,
        rng: &mut SimRng,
    ) -> Sched<bool> {
        let (t, server) = self.pending;
        let mut moved = false;
        let mean = if cluster.is_up(server) {
            stats.crashes += 1;
            self.down_since[server] = Some(t);
            cluster.crash(server, t);
            departures.interrupt(server, t);
            if self.spec.redispatch && cluster.up_count() > 0 {
                departures.thaw(server);
                for job in cluster.drain(server, t) {
                    let target = random_up_server(cluster, rng)
                        // lint: allow(panic-hygiene) — drain only runs when another server is up
                        .expect("up_count() > 0 was checked");
                    stats.redispatched += 1;
                    departures.book(target, cluster.requeue(target, job, t))?;
                    hedges.migrate(job.id, server, target);
                }
                moved = true;
            }
            self.spec.mttr
        } else {
            stats.recoveries += 1;
            let since = self.down_since[server]
                .take()
                // lint: allow(panic-hygiene) — crash path always records down_since
                .expect("a down server recorded when it went down");
            stats.downtime += t - since;
            let frozen = departures.thaw(server);
            departures.book(server, cluster.recover(server, t, frozen))?;
            self.spec.mtbf
        };
        self.next[server] = t + rng.exp(mean);
        self.refresh();
        Ok(moved)
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
    let k = rng.index(ups);
    (0..cluster.len()).filter(|&s| cluster.is_up(s)).nth(k)
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
/// Returns [`SimError::Config`] when [`check_run`](crate::check_run)
/// rejects the run, before anything is allocated.
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
    check_run(cfg, arrivals, info, policy)?;
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
    steps: StepCounter<'_>,
) -> Result<RunResult, SimError> {
    // `check_run` passed: `split_hedged` leaves the spec the engine builds.
    let (hedge, policy) = policy.split_hedged();

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
    // Churn is crash-with-eviction: a departing server's queue is drained
    // and re-dispatched (re-execution semantics) and it rejoins cold, so
    // the membership process reuses the crash machinery with redispatch
    // forced on. FaultSpec::validate() rejects configuring both at once.
    let membership = cfg.faults.crash.or(cfg.faults.churn.map(|c| CrashSpec {
        mtbf: c.mtbf,
        mttr: c.downtime,
        redispatch: true,
    }));
    let crash = membership.map(|spec| CrashProcess::new(spec, n, &mut fault_rng));
    let partition = cfg
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
        } => mmpp_process(rate_ratio, high_fraction, cycle_mean, total_rate)?,
    };

    let mut engine = Engine {
        cfg,
        warmup: cfg.warmup_jobs(),
        cluster,
        router: Router {
            model,
            policy: DispatchPolicy::from_spec(policy),
            model_rng: &mut model_rng,
            policy_rng: &mut policy_rng,
        },
        arrivals: Arrivals {
            next: Some(process.next(&mut arrival_rng)),
            process,
            generated: 0,
            limit: cfg.arrivals,
            service: cfg.service.sampler(),
            arrival_rng: &mut arrival_rng,
            service_rng: &mut service_rng,
        },
        departures: DepartureBook {
            queue: EventQueue::with_capacity(n),
            scheduled: vec![None; n],
            frozen: vec![None; n],
        },
        deadlines: EventQueue::new(),
        orbit: RetryOrbit {
            queue: EventQueue::new(),
            retry: cfg.retry,
            retry_rng: &mut retry_rng,
        },
        hedges: HedgeBook {
            copies: hedge.filter(|&h| h > 1),
            ..HedgeBook::default()
        },
        crash,
        partition,
        fault_rng: &mut fault_rng,
        faults: FaultStats::default(),
        overload: OverloadStats::default(),
        response: OnlineStats::new(),
        detail: RunDetail::new(cfg.sketch_cap),
        end_time: 0.0,
    };
    engine.run(steps)?;
    Ok(engine.finish())
}

/// One per-server run: its event sources, each owning its state, and tallies.
struct Engine<'a> {
    cfg: &'a SimConfig,
    warmup: u64,
    cluster: Cluster,
    router: Router<'a>,
    arrivals: Arrivals<'a>,
    departures: DepartureBook,
    /// Deadline checks, with where each job was queued at admission: a job
    /// moved elsewhere by work stealing or crash re-dispatch silently loses
    /// its deadline (migration restarts the job's placement).
    deadlines: EventQueue<(ServerId, Attempt)>,
    orbit: RetryOrbit<'a>,
    hedges: HedgeBook,
    crash: Option<CrashProcess>,
    partition: Option<PartitionProcess>,
    /// The fault stream past the board's and the partitions' forks.
    fault_rng: &'a mut SimRng,
    faults: FaultStats,
    overload: OverloadStats,
    response: OnlineStats,
    detail: RunDetail,
    /// Simulated time of the last departure.
    end_time: f64,
}

impl Engine<'_> {
    /// The event loop: each step picks the next event and hands it to its
    /// source. A board refresh is a step too, so a storm of them is stopped.
    fn run(&mut self, mut steps: StepCounter<'_>) -> Result<(), SimError> {
        loop {
            steps.step()?;
            let due = [
                self.router.model.next_event().unwrap_or(f64::INFINITY),
                self.arrivals.next.map_or(f64::INFINITY, |(t, _)| t),
                self.departures.due(),
                self.deadlines.peek_time().unwrap_or(f64::INFINITY),
                self.orbit.queue.peek_time().unwrap_or(f64::INFINITY),
                self.crash.as_ref().map_or(f64::INFINITY, |c| c.pending.0),
                self.partition.as_ref().map_or(f64::INFINITY, |p| p.next),
            ];
            let Some((t, source)) = next_event(due, self.cluster.in_system() == 0) else {
                return Ok(());
            };
            match source {
                Source::Board => self.router.model.on_event(t, &self.cluster),
                Source::Arrival | Source::Orbit => self.admit(source)?,
                Source::Departure => self.depart()?,
                Source::Deadline => self.renege()?,
                Source::Crash => self.step_membership(t)?,
                Source::Partition => {
                    if let Some(process) = &mut self.partition {
                        process.step(&mut self.cluster, t);
                    }
                }
            }
        }
    }

    /// Admits the next arrival or re-arrival: the router picks its server, a
    /// rejected attempt bounces, and a hedged job gets its replicas.
    fn admit(&mut self, source: Source) -> Sched {
        let next = if source == Source::Arrival {
            self.arrivals.take()
        } else {
            self.orbit.reenter()
        };
        let Some((t, attempt)) = next else {
            return Ok(());
        };
        let Attempt { job, client, .. } = attempt;
        self.router.policy.observe_arrival(t);
        let mut server = self.router.pick(t, client, job.service, &mut self.cluster);
        if !self.cluster.is_up(server) {
            // The policy picked a dead server (its board entry lives on).
            // Fail the placement over to a random up server — the client's
            // retry — or let the job wait out a full outage.
            if let Some(alive) = random_up_server(&self.cluster, self.fault_rng) {
                server = alive;
                self.faults.redirected += 1;
            }
        }
        match self.cluster.admit(server, job, t) {
            Admission::Rejected => {
                self.overload.rejected += 1;
                return self.orbit.offer(t, attempt, &mut self.overload);
            }
            Admission::InService(dep) => self.departures.book(server, Some(dep))?,
            // Only a job that queued behind others can ever renege; one
            // already in service serves to completion.
            Admission::Queued => {
                if let Some(deadline) = self.cfg.deadline {
                    self.deadlines.try_push(t + deadline, (server, attempt))?;
                }
            }
        }
        self.router.model.after_placement(t, client, &self.cluster);
        let (cluster, departures) = (&mut self.cluster, &mut self.departures);
        let router = &mut self.router;
        self.hedges
            .place(t, &attempt, server, cluster, departures, router)?;
        self.sample_in_system(t);
        Ok(())
    }

    /// Completes the next departure: a hedged job's other copies are
    /// cancelled, and a measured job's response time is recorded.
    fn depart(&mut self) -> Sched {
        let steal = self.cfg.work_stealing;
        let Some(done @ (t, _, job)) = self.departures.complete(&mut self.cluster, steal)? else {
            return Ok(());
        };
        let (cluster, departures) = (&mut self.cluster, &mut self.departures);
        self.hedges.cancel_losers(done, cluster, departures)?;
        if job.id >= self.warmup {
            self.response.record(t - job.arrival);
            self.detail.response_sketch.record(t - job.arrival);
        }
        self.sample_in_system(t);
        self.end_time = t;
        Ok(())
    }

    /// Fires the next deadline check: a job still waiting where it was
    /// queued reneges and bounces. A stale check (the job already serving,
    /// completed, or migrated) is dropped silently: nothing happened.
    fn renege(&mut self) -> Sched {
        let Some((t, (server, attempt))) = self.deadlines.pop() else {
            return Ok(());
        };
        // The head of an up, busy server is in service; on a down server
        // only an interrupted (frozen) head has started.
        let head_in_service = if self.cluster.is_up(server) {
            self.cluster.load(server) > 0
        } else {
            self.departures.frozen[server].is_some()
        };
        let id = attempt.job.id;
        let Some(job) = self.cluster.renege_waiting(server, id, t, head_in_service) else {
            return Ok(());
        };
        self.overload.reneged += 1;
        self.sample_in_system(t);
        let bounced = Attempt { job, ..attempt };
        self.orbit.offer(t, bounced, &mut self.overload)
    }

    fn step_membership(&mut self, t: f64) -> Sched {
        if let Some(process) = &mut self.crash {
            let (cluster, book, hedges) =
                (&mut self.cluster, &mut self.departures, &mut self.hedges);
            if process.step(cluster, book, hedges, &mut self.faults, self.fault_rng)? {
                self.sample_in_system(t);
            }
        }
        Ok(())
    }

    fn sample_in_system(&mut self, t: f64) {
        let in_system = self.cluster.in_system() as f64;
        self.detail.jobs_in_system.update(t, in_system);
    }

    /// The run's result, once its loop has ended.
    fn finish(self) -> RunResult {
        let (cluster, end_time) = (&self.cluster, self.end_time);
        debug_assert_eq!(cluster.in_system(), 0, "drain must empty the system");
        let mut faults = self.faults;
        if let Some(process) = &self.crash {
            // Servers still down at the end add their partial outage.
            for since in process.down_since.iter().flatten() {
                faults.downtime += (end_time - since).max(0.0);
            }
        }
        let mut diagnostics = Vec::new();
        let history_misses = cluster.history_misses();
        if history_misses > 0 {
            diagnostics.push(Diagnostic {
                code: "history-misses",
                message: format!(
                    "{history_misses} delayed-view queries fell outside the retained load \
                     history; increase the history window (results may understate \
                     staleness effects)"
                ),
            });
        }
        let mut detail = self.detail;
        let n = cluster.len();
        detail.tallies = ServerTallies::PerServer {
            completed: (0..n).map(|s| cluster.completed(s)).collect(),
            busy: (0..n).map(|s| cluster.busy_time(s)).collect(),
        };
        let mut resilience = self.hedges.stats;
        if let Some(process) = &self.partition {
            resilience.partition_seconds = process.total_seconds(end_time);
        }
        let telemetry = self.router.policy.telemetry();
        resilience.quarantine_ejections = telemetry.ejections;
        resilience.quarantine_readmissions = telemetry.readmissions;
        resilience.corrupted_reports = self.router.model.corrupted_reports();
        RunResult {
            mean_response: self.response.mean(),
            response: self.response,
            measured_jobs: self.response.count(),
            generated: self.arrivals.generated,
            end_time,
            history_misses,
            faults,
            overload: self.overload,
            resilience,
            diagnostics,
            detail,
        }
    }
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
        // periodic:1e-9 is a refresh storm: ~6·10^12 refreshes over the
        // 6 000 time units the run's arrivals span. crash:1e-6:1 keeps a
        // server up a ~10^-6 share of the time, so its jobs barely move:
        // over 30 000 arrivals the run does not end in practice, and over
        // 20 they end up stranded on down servers, where only fault
        // events advance the clock.
        use crate::EngineMode::{PerServer, Population};
        let crash: FaultSpec = "crash:1e-6:1".parse().expect("valid fault clause");
        for (engine, period, faults, arrivals) in [
            (PerServer, 2.0, FaultSpec::none(), 30_000),
            (PerServer, 1e-9, FaultSpec::none(), 30_000),
            (Population, 1e-9, FaultSpec::none(), 30_000),
            (PerServer, 2.0, crash, 30_000),
            (PerServer, 2.0, crash, 20),
        ] {
            let mut cfg = quick_cfg(3);
            (cfg.engine, cfg.faults, cfg.arrivals) = (engine, faults, arrivals);
            let (info, policy, mut polls) = (InfoSpec::Periodic { period }, PolicySpec::Random, 0);
            let r = run_simulation_until(&cfg, &ArrivalSpec::Poisson, &info, &policy, || {
                polls += 1;
                polls == 3
            });
            assert!(
                matches!(r, Err(SimError::Stopped)) && polls == 3,
                "{engine:?} periodic:{period} {faults} over {arrivals} arrivals: {r:?}"
            );
        }
    }

    #[test]
    fn next_event_breaks_ties_in_source_order_and_applies_the_end_rule() {
        use Source::*;
        let order = [Board, Arrival, Departure, Deadline, Orbit, Crash, Partition];
        let due = |pending: &[(Source, f64)]| {
            let mut due = [f64::INFINITY; 7];
            for &(s, t) in pending {
                due[s as usize] = t;
            }
            due
        };
        for (i, &first) in order.iter().enumerate() {
            for &second in &order[i + 1..] {
                // Equal times: the source ranked first fires first, either
                // way round; an earlier time beats any rank.
                let tie = due(&[(first, 2.0), (second, 2.0)]);
                assert_eq!(
                    next_event(tie, false),
                    Some((2.0, first)),
                    "{first:?} {second:?}"
                );
                let later = due(&[(first, 3.0), (second, 2.0)]);
                assert_eq!(next_event(later, false), Some((2.0, second)));
            }
        }
        // The board only catches up to another pending event.
        assert_eq!(next_event(due(&[(Board, 1.0)]), false), None);
        // With jobs stranded on down servers, fault events alone keep the
        // run going; with an empty cluster they do not.
        for fault in [Crash, Partition] {
            let pending = due(&[(Board, 1.0), (fault, 2.0)]);
            assert_eq!(next_event(pending, false), Some((1.0, Board)));
            assert_eq!(next_event(due(&[(fault, 2.0)]), false), Some((2.0, fault)));
            assert_eq!(next_event(pending, true), None);
            // Any pending system event keeps an empty cluster's run going.
            for system in [Arrival, Departure, Deadline, Orbit] {
                let pending = due(&[(fault, 2.0), (system, 5.0)]);
                assert_eq!(next_event(pending, true), Some((2.0, fault)));
            }
        }
        assert_eq!(next_event(due(&[]), false), None);
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
