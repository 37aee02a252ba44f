//! Simulation configuration.

use std::fmt;

use serde::{Deserialize, Serialize};
use staleload_sim::{Dist, SchedulerKind};
use staleload_workloads::{BurstConfig, RetrySpec};

use staleload_info::InfoSpec;

use crate::FaultSpec;

/// How jobs arrive at the system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// One merged Poisson stream of rate `λ·n` (the paper's default).
    Poisson,
    /// `clients` independent Poisson clients with total rate `λ·n`
    /// (update-on-access experiments; the mean inter-request time is
    /// `clients/(λ·n)`).
    PoissonClients {
        /// Number of load-generating clients.
        clients: usize,
    },
    /// `clients` independent bursty clients (§5.4).
    BurstyClients {
        /// Number of load-generating clients.
        clients: usize,
        /// Burst shape.
        burst: BurstConfig,
    },
    /// Aggregate-level burstiness (extension): a two-state
    /// Markov-modulated Poisson stream whose long-run mean rate still
    /// equals `λ·n`. During a high phase the rate is `rate_ratio` times
    /// the low phase's.
    Mmpp {
        /// High-phase/low-phase rate ratio (≥ 1).
        rate_ratio: f64,
        /// Long-run fraction of time in the high phase (in `(0, 1)`).
        high_fraction: f64,
        /// Mean duration of one high+low cycle in service-time units.
        cycle_mean: f64,
    },
}

impl ArrivalSpec {
    /// Number of distinct clients this spec simulates.
    pub fn clients(&self) -> usize {
        match *self {
            ArrivalSpec::Poisson | ArrivalSpec::Mmpp { .. } => 1,
            ArrivalSpec::PoissonClients { clients }
            | ArrivalSpec::BurstyClients { clients, .. } => clients,
        }
    }
}

/// Which state representation the engine runs a trial with (ISSUE 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EngineMode {
    /// The per-server event loop: one object per server, one event per
    /// job movement. Supports every policy/info/fault/overload knob.
    #[default]
    PerServer,
    /// The population-level (mean-field) fast path: the cluster is a
    /// matrix of queue-length counts, exact in distribution for symmetric
    /// policies (Random, KSubset, Greedy, Basic LI) over a uniform
    /// snapshot view (`fresh`/`periodic` info) with exponential service
    /// and Poisson arrivals. O(1)–O(K) per event regardless of `n`, which
    /// is what makes n = 10^6 sweeps feasible.
    Population,
}

impl std::str::FromStr for EngineMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "per-server" | "perserver" => Ok(EngineMode::PerServer),
            "population" | "mean-field" | "meanfield" => Ok(EngineMode::Population),
            other => Err(format!(
                "unknown engine mode '{other}' (expected per-server or population)"
            )),
        }
    }
}

impl fmt::Display for EngineMode {
    /// Canonical CLI spelling; round-trips through [`FromStr`](std::str::FromStr).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineMode::PerServer => "per-server",
            EngineMode::Population => "population",
        })
    }
}

/// Error constructing a [`SimConfig`] from invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    what: String,
}

impl ConfigError {
    pub(crate) fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid simulation configuration: {}", self.what)
    }
}

impl std::error::Error for ConfigError {}

/// Parameters of one simulated system (paper §5 defaults unless changed).
///
/// Construct with [`SimConfig::builder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of servers `n`.
    pub servers: usize,
    /// True per-server arrival rate λ as a fraction of service capacity.
    pub lambda: f64,
    /// Total jobs to generate.
    pub arrivals: u64,
    /// Fraction of jobs used to reach steady state (excluded from the
    /// metric).
    pub warmup_fraction: f64,
    /// Job-size distribution (mean 1 in the paper's units).
    pub service: Dist,
    /// Per-server service rates for a heterogeneous cluster (extension;
    /// `None` = all servers at rate 1, the paper's setting).
    pub capacities: Option<Vec<f64>>,
    /// Receiver-driven rebalancing (extension; paper §2 option 3): when a
    /// server goes idle it steals a waiting job from the longest queue if
    /// that queue holds at least this many jobs. `None` disables stealing.
    pub work_stealing: Option<u32>,
    /// Fault injection (extension): server crashes and lossy update
    /// channels. [`FaultSpec::none`] (the default) reproduces the
    /// fault-free simulator bit for bit.
    pub faults: FaultSpec,
    /// Overload control (extension): per-server bounded queues. A new
    /// arrival finding its target at this load is rejected instead of
    /// queued. `None` (the default) leaves queues unbounded and
    /// reproduces the uncontrolled simulator bit for bit.
    pub queue_cap: Option<u32>,
    /// Overload control (extension): per-job waiting deadline. A job
    /// still *waiting* (not yet in service) this long after its admission
    /// reneges — abandons the queue. `None` disables reneging.
    pub deadline: Option<f64>,
    /// Overload control (extension): retry orbit for rejected/reneged
    /// jobs; see [`RetrySpec`]. `None` makes rejection and reneging
    /// terminal.
    pub retry: Option<RetrySpec>,
    /// Pending-event set of the engine's queues: always
    /// [`SchedulerKind::Heap`], the one backend.
    pub scheduler: SchedulerKind,
    /// Exact-mode capacity of the per-run response-time quantile sketch
    /// (extension, ISSUE 8): runs measuring at most this many jobs keep
    /// the exact multiset; larger runs compact onto the sketch's fixed
    /// log grid. Recording never draws randomness or schedules events,
    /// so this knob cannot change a trajectory — only how p99/p999 are
    /// summarized. Default: [`staleload_stats::TailSketch::DEFAULT_CAP`].
    pub sketch_cap: usize,
    /// State representation the engine runs with (ISSUE 9): the
    /// per-server event loop (default) or the population-level count
    /// matrix. Population mode is exact in distribution for the symmetric
    /// policy/info subset but draws the RNG differently, so trajectories
    /// are not bit-comparable across modes — only statistics are.
    pub engine: EngineMode,
    /// Master seed; trials derive their own seeds from it.
    pub seed: u64,
}

impl SimConfig {
    /// Starts a builder with the paper's defaults
    /// (n = 100, λ = 0.9, 500 000 arrivals, 10% warm-up, Exponential(1)
    /// service, seed 1).
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Total arrival rate: `λ` times the total service capacity
    /// (`λ·n` for a homogeneous cluster).
    pub fn total_rate(&self) -> f64 {
        self.lambda * self.total_capacity()
    }

    /// Total service capacity (`n` for a homogeneous cluster).
    pub fn total_capacity(&self) -> f64 {
        match &self.capacities {
            Some(caps) => caps.iter().sum(),
            None => self.servers as f64,
        }
    }

    /// Number of leading jobs excluded from measurement.
    pub fn warmup_jobs(&self) -> u64 {
        (self.arrivals as f64 * self.warmup_fraction) as u64
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    servers: usize,
    lambda: f64,
    arrivals: u64,
    warmup_fraction: f64,
    service: Dist,
    capacities: Option<Vec<f64>>,
    work_stealing: Option<u32>,
    faults: FaultSpec,
    queue_cap: Option<u32>,
    deadline: Option<f64>,
    retry: Option<RetrySpec>,
    sketch_cap: usize,
    engine: EngineMode,
    seed: u64,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        Self {
            servers: 100,
            lambda: 0.9,
            arrivals: 500_000,
            warmup_fraction: 0.1,
            service: Dist::exponential(1.0),
            capacities: None,
            work_stealing: None,
            faults: FaultSpec::none(),
            queue_cap: None,
            deadline: None,
            retry: None,
            sketch_cap: staleload_stats::TailSketch::DEFAULT_CAP,
            engine: EngineMode::PerServer,
            seed: 1,
        }
    }
}

impl SimConfigBuilder {
    /// Sets the number of servers `n`.
    pub fn servers(&mut self, n: usize) -> &mut Self {
        self.servers = n;
        self
    }

    /// Sets the true per-server load λ.
    pub fn lambda(&mut self, lambda: f64) -> &mut Self {
        self.lambda = lambda;
        self
    }

    /// Sets the total number of generated jobs.
    pub fn arrivals(&mut self, arrivals: u64) -> &mut Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the warm-up fraction (default 0.1).
    pub fn warmup_fraction(&mut self, f: f64) -> &mut Self {
        self.warmup_fraction = f;
        self
    }

    /// Sets the job-size distribution.
    pub fn service(&mut self, service: Dist) -> &mut Self {
        self.service = service;
        self
    }

    /// Makes the cluster heterogeneous: server `i` runs at rate
    /// `capacities[i]` (also sets `servers` to the vector's length).
    pub fn capacities(&mut self, capacities: Vec<f64>) -> &mut Self {
        self.servers = capacities.len();
        self.capacities = Some(capacities);
        self
    }

    /// Enables receiver-driven work stealing: an idle server pulls a
    /// waiting job from the longest queue when it holds at least
    /// `min_victim_load` jobs (≥ 2).
    pub fn work_stealing(&mut self, min_victim_load: u32) -> &mut Self {
        self.work_stealing = Some(min_victim_load);
        self
    }

    /// Enables fault injection (server crashes and/or a lossy update
    /// channel); see [`FaultSpec`].
    pub fn faults(&mut self, faults: FaultSpec) -> &mut Self {
        self.faults = faults;
        self
    }

    /// Bounds every server's queue at `cap` jobs (including the one in
    /// service); arrivals beyond the cap are rejected.
    pub fn queue_cap(&mut self, cap: u32) -> &mut Self {
        self.queue_cap = Some(cap);
        self
    }

    /// Sets the per-job waiting deadline: jobs still waiting this long
    /// after admission renege.
    pub fn deadline(&mut self, deadline: f64) -> &mut Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables the retry orbit for rejected/reneged jobs.
    pub fn retry(&mut self, retry: RetrySpec) -> &mut Self {
        self.retry = Some(retry);
        self
    }

    /// Sets the exact-mode capacity of the response-time quantile
    /// sketch (must be ≥ 1; the default keeps runs of up to
    /// [`staleload_stats::TailSketch::DEFAULT_CAP`] measured jobs exact).
    pub fn sketch_cap(&mut self, cap: usize) -> &mut Self {
        self.sketch_cap = cap;
        self
    }

    /// Selects the engine's state representation (default: per-server).
    pub fn engine(&mut self, engine: EngineMode) -> &mut Self {
        self.engine = engine;
        self
    }

    /// Sets the master seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is out of range
    /// (`servers == 0`, `λ ∉ (0, 2]`, `arrivals == 0`,
    /// `warmup_fraction ∉ [0, 1)`).
    pub fn try_build(&self) -> Result<SimConfig, ConfigError> {
        if self.servers == 0 {
            return Err(ConfigError::new("need at least one server"));
        }
        if !(self.lambda > 0.0 && self.lambda <= 2.0) {
            return Err(ConfigError::new(format!(
                "lambda must be in (0, 2], got {} (λ ≥ 1 is unstable but allowed for experiments)",
                self.lambda
            )));
        }
        if self.arrivals == 0 {
            return Err(ConfigError::new("need at least one arrival"));
        }
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            return Err(ConfigError::new(format!(
                "warmup fraction must be in [0, 1), got {}",
                self.warmup_fraction
            )));
        }
        if let Some(caps) = &self.capacities {
            if caps.len() != self.servers {
                return Err(ConfigError::new(format!(
                    "capacities length {} must match servers {}",
                    caps.len(),
                    self.servers
                )));
            }
            if !caps.iter().all(|&c| c.is_finite() && c > 0.0) {
                return Err(ConfigError::new("capacities must be positive and finite"));
            }
        }
        if let Some(min) = self.work_stealing {
            if min < 2 {
                return Err(ConfigError::new(
                    "work stealing threshold must be at least 2 (one job must be waiting)",
                ));
            }
        }
        self.faults.validate()?;
        if self.queue_cap == Some(0) {
            return Err(ConfigError::new(
                "queue cap must be at least 1 (a zero cap rejects every job)",
            ));
        }
        if let Some(d) = self.deadline {
            if !(d.is_finite() && d > 0.0) {
                return Err(ConfigError::new(format!(
                    "deadline must be finite and positive, got {d}"
                )));
            }
        }
        if let Some(retry) = &self.retry {
            retry
                .validate()
                .map_err(|e| ConfigError::new(e.to_string()))?;
            if self.queue_cap.is_none() && self.deadline.is_none() {
                return Err(ConfigError::new(
                    "retry orbit needs a queue cap or a deadline (nothing can bounce a job \
                     otherwise)",
                ));
            }
        }
        if self.sketch_cap == 0 {
            return Err(ConfigError::new(
                "sketch capacity must be at least 1 (a zero-capacity sketch cannot hold the \
                 exact multiset it starts from)",
            ));
        }
        if self.engine == EngineMode::Population {
            // The count-matrix representation is exact only when servers
            // are exchangeable and all clocks are memoryless; every knob
            // that breaks that symmetry is a config error, not a silent
            // approximation.
            if self.capacities.is_some() {
                return Err(ConfigError::new(
                    "population engine needs a homogeneous cluster (capacities break the \
                     server exchangeability the count representation relies on)",
                ));
            }
            if self.work_stealing.is_some() {
                return Err(ConfigError::new(
                    "population engine does not model work stealing; use the per-server engine",
                ));
            }
            if !self.faults.is_none() {
                return Err(ConfigError::new(
                    "population engine does not model fault injection; use the per-server engine",
                ));
            }
            if self.queue_cap.is_some() || self.deadline.is_some() || self.retry.is_some() {
                return Err(ConfigError::new(
                    "population engine does not model overload controls (queue caps, \
                     deadlines, retries); use the per-server engine",
                ));
            }
            if !matches!(self.service, Dist::Exponential { .. }) {
                return Err(ConfigError::new(format!(
                    "population engine is exact only for memoryless (exponential) service, \
                     got {}; use the per-server engine",
                    self.service
                )));
            }
        }
        Ok(SimConfig {
            servers: self.servers,
            lambda: self.lambda,
            arrivals: self.arrivals,
            warmup_fraction: self.warmup_fraction,
            service: self.service,
            capacities: self.capacities.clone(),
            work_stealing: self.work_stealing,
            faults: self.faults,
            queue_cap: self.queue_cap,
            deadline: self.deadline,
            retry: self.retry,
            scheduler: SchedulerKind::Heap,
            sketch_cap: self.sketch_cap,
            engine: self.engine,
            seed: self.seed,
        })
    }

    /// Validates and builds the configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters; see [`SimConfigBuilder::try_build`] for
    /// the fallible form.
    pub fn build(&self) -> SimConfig {
        // lint: allow(panic-hygiene) — documented panicking convenience; try_build is the fallible form
        self.try_build().expect("invalid simulation configuration")
    }
}

/// Most snapshot entries (`clients × servers`) an update-on-access run
/// may hold: 2^26, 256 MiB of loads. perfbench's largest case holds
/// 1 440 × 100, and Figs. 8–9's longest age 5 760 × 100.
pub(crate) const MAX_UOA_SNAPSHOT_ENTRIES: usize = 1 << 26;

/// Checks that a run of `info` can be stepped through and held in memory,
/// before anything is allocated. Both engines call it first, and
/// [`crate::Experiment::try_run`] before any trial.
///
/// - A board's refresh period must advance its clock over the time the
///   run's arrivals span, `arrivals / total rate`. A smaller one leaves
///   `next + period == next`, so the board refreshes at one instant for
///   ever.
/// - So must the crash or churn MTBF ([`check_fault_clock`]).
/// - An update-on-access run keeps a snapshot of every server per client:
///   at most 2^26 of them (256 MiB).
///
/// # Errors
///
/// Returns a [`ConfigError`] naming the period or the MTBF, or the client
/// and server counts and the cap.
pub fn check_run_bounds(
    cfg: &SimConfig,
    arrivals: &ArrivalSpec,
    info: &InfoSpec,
) -> Result<(), ConfigError> {
    check_fault_clock(cfg)?;
    if let Some(period) = info.refresh_period() {
        // A period that is not positive is `InfoSpec::validate`'s to report.
        let span = arrival_span(cfg);
        if period > 0.0 && span + period == span {
            return Err(ConfigError::new(format!(
                "refresh period {period:e} is too small to advance the board clock over the \
                 {span:.4} time units the run's arrivals span"
            )));
        }
    }
    if matches!(info, InfoSpec::UpdateOnAccess) {
        let clients = arrivals.clients();
        let entries = clients.checked_mul(cfg.servers);
        if entries.is_none_or(|e| e > MAX_UOA_SNAPSHOT_ENTRIES) {
            return Err(ConfigError::new(format!(
                "update-on-access with {clients} clients and {} servers needs a snapshot of \
                 every server per client, over the cap of {MAX_UOA_SNAPSHOT_ENTRIES} entries",
                cfg.servers
            )));
        }
    }
    Ok(())
}

/// Checks that the crash or churn process can advance its clock over the
/// time the run's arrivals span. With an MTBF below that, a server that
/// recovers at `t` crashes again at `t`: no job on it ever completes, and
/// a run without a stop predicate never ends.
///
/// # Errors
///
/// Returns a [`ConfigError`] naming the MTBF.
pub fn check_fault_clock(cfg: &SimConfig) -> Result<(), ConfigError> {
    let membership = cfg
        .faults
        .crash
        .map(|c| ("crash", c.mtbf))
        .or(cfg.faults.churn.map(|c| ("churn", c.mtbf)));
    if let Some((fault, mtbf)) = membership {
        // An MTBF that is not positive is `FaultSpec::validate`'s to report.
        let span = arrival_span(cfg);
        if mtbf > 0.0 && span + mtbf == span {
            return Err(ConfigError::new(format!(
                "{fault} MTBF {mtbf:e} is too small to advance the fault clock over the \
                 {span:.4} time units the run's arrivals span"
            )));
        }
    }
    Ok(())
}

/// The time the run's arrivals span at its configured rate.
fn arrival_span(cfg: &SimConfig) -> f64 {
    cfg.arrivals as f64 / cfg.total_rate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = SimConfig::builder().build();
        assert_eq!(cfg.servers, 100);
        assert_eq!(cfg.lambda, 0.9);
        assert!((cfg.total_rate() - 90.0).abs() < 1e-12);
        assert_eq!(cfg.warmup_jobs(), 50_000);
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = SimConfig::builder()
            .servers(8)
            .lambda(0.5)
            .arrivals(1000)
            .warmup_fraction(0.2)
            .seed(9)
            .build();
        assert_eq!(cfg.servers, 8);
        assert_eq!(cfg.lambda, 0.5);
        assert_eq!(cfg.warmup_jobs(), 200);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn engine_enum_display_round_trips_from_str() {
        for mode in [EngineMode::PerServer, EngineMode::Population] {
            assert_eq!(mode.to_string().parse::<EngineMode>(), Ok(mode));
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SimConfig::builder().servers(0).try_build().is_err());
        assert!(SimConfig::builder().lambda(0.0).try_build().is_err());
        assert!(SimConfig::builder().lambda(5.0).try_build().is_err());
        assert!(SimConfig::builder().arrivals(0).try_build().is_err());
        assert!(SimConfig::builder()
            .warmup_fraction(1.0)
            .try_build()
            .is_err());
    }

    #[test]
    fn overload_controls_default_off() {
        let cfg = SimConfig::builder().build();
        assert_eq!(cfg.queue_cap, None);
        assert_eq!(cfg.deadline, None);
        assert_eq!(cfg.retry, None);
    }

    #[test]
    fn sketch_cap_defaults_and_validates() {
        let cfg = SimConfig::builder().build();
        assert_eq!(cfg.sketch_cap, staleload_stats::TailSketch::DEFAULT_CAP);
        let cfg = SimConfig::builder().sketch_cap(16).build();
        assert_eq!(cfg.sketch_cap, 16);
        assert!(SimConfig::builder().sketch_cap(0).try_build().is_err());
    }

    #[test]
    fn overload_controls_are_validated() {
        let retry = RetrySpec {
            max_attempts: 4,
            base: 0.5,
            cap: 10.0,
        };
        assert!(SimConfig::builder()
            .queue_cap(8)
            .deadline(5.0)
            .retry(retry)
            .try_build()
            .is_ok());
        assert!(SimConfig::builder().queue_cap(0).try_build().is_err());
        assert!(SimConfig::builder().deadline(0.0).try_build().is_err());
        assert!(SimConfig::builder()
            .deadline(f64::INFINITY)
            .try_build()
            .is_err());
        // A retry orbit with nothing to bounce jobs is a config error.
        assert!(SimConfig::builder().retry(retry).try_build().is_err());
        // Bad retry parameters surface as ConfigError.
        assert!(SimConfig::builder()
            .queue_cap(8)
            .retry(RetrySpec {
                max_attempts: 1,
                base: 0.5,
                cap: 10.0
            })
            .try_build()
            .is_err());
    }

    #[test]
    fn arrival_spec_client_counts() {
        assert_eq!(ArrivalSpec::Poisson.clients(), 1);
        assert_eq!(ArrivalSpec::PoissonClients { clients: 7 }.clients(), 7);
        let burst = BurstConfig {
            burst_len: 5,
            intra_gap_mean: 1.0,
        };
        assert_eq!(
            ArrivalSpec::BurstyClients { clients: 3, burst }.clients(),
            3
        );
    }
}
