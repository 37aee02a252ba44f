//! Detailed per-run metrics beyond the paper's mean response time.
//!
//! The paper reports mean response times; a production load-balancing
//! study also wants tails, fairness, and occupancy. [`RunDetail`] collects
//! those with O(1) work per event, and doubles as a validation surface
//! (Little's law, utilization ≈ λ).

use staleload_sim::TimeWeighted;
use staleload_stats::TailSketch;

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

/// Detailed metrics of one simulation run.
#[derive(Debug, Clone)]
pub struct RunDetail {
    /// Mergeable quantile sketch of measured response times (ISSUE 8):
    /// exact below the configured capacity, ~0.5% relative error above
    /// it, and bit-identical under any merge order across trials.
    pub response_sketch: TailSketch,
    /// Jobs in the whole system, time-averaged over the run.
    pub jobs_in_system: TimeWeighted,
    /// Completions and busy time of the servers, set when the run ends.
    pub(crate) tallies: ServerTallies,
}

/// What a run reports of its servers' completions and busy time.
#[derive(Debug, Clone)]
pub(crate) enum ServerTallies {
    /// The per-server engine's tallies, one entry per server: jobs
    /// completed, and busy time over completed busy periods.
    PerServer { completed: Vec<u64>, busy: Vec<f64> },
    /// The population engine's summary. Its servers are exchangeable, so
    /// each one's expected share of the completions and of the busy-time
    /// integral is the same `1/servers`.
    Exchangeable {
        servers: usize,
        completed: u64,
        busy: f64,
    },
}

impl RunDetail {
    /// An empty detail; the engine sets its server tallies when the run
    /// ends.
    pub(crate) fn new(sketch_cap: usize) -> Self {
        Self {
            response_sketch: TailSketch::new(sketch_cap),
            jobs_in_system: TimeWeighted::new(0.0, 0.0),
            tallies: ServerTallies::PerServer {
                completed: Vec::new(),
                busy: Vec::new(),
            },
        }
    }

    /// Response-time quantile over measured jobs, from the sketch:
    /// bit-exact below the sketch capacity, ~0.5% relative error above.
    ///
    /// # Panics
    ///
    /// Panics if no job was measured or `q ∉ [0, 1]`.
    pub fn response_quantile(&self, q: f64) -> f64 {
        self.response_sketch.quantile(q)
    }

    /// Time-averaged number of jobs in the system over `[0, end_time]`.
    pub fn mean_jobs_in_system(&self, end_time: f64) -> f64 {
        self.jobs_in_system.average(end_time)
    }

    /// Largest instantaneous number of jobs in the system — spikes here are
    /// the herd effect made visible.
    pub fn peak_jobs_in_system(&self) -> f64 {
        self.jobs_in_system.peak()
    }

    /// Time-to-recovery proxy after a transient: how long the jobs-in-system
    /// signal stayed at or above half its peak after peaking (see
    /// [`TimeWeighted::relaxation_time`]). Near zero for a run that never
    /// built up a sustained backlog.
    pub fn time_to_recovery(&self) -> f64 {
        self.jobs_in_system.relaxation_time()
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        match &self.tallies {
            ServerTallies::PerServer { completed, .. } => completed.len(),
            ServerTallies::Exchangeable { servers, .. } => *servers,
        }
    }

    /// Jobs completed across all servers.
    pub fn completed(&self) -> u64 {
        match &self.tallies {
            ServerTallies::PerServer { completed, .. } => completed.iter().sum(),
            ServerTallies::Exchangeable { completed, .. } => *completed,
        }
    }

    /// Jobs completed by each server, in server order, where the engine
    /// tallied servers one by one (`None` for an exchangeable summary).
    pub fn per_server_completed(&self) -> Option<&[u64]> {
        match &self.tallies {
            ServerTallies::PerServer { completed, .. } => Some(completed),
            ServerTallies::Exchangeable { .. } => None,
        }
    }

    /// Busy time summed over all servers.
    pub fn busy_time(&self) -> f64 {
        match &self.tallies {
            ServerTallies::PerServer { busy, .. } => busy.iter().sum(),
            ServerTallies::Exchangeable { busy, .. } => *busy,
        }
    }

    /// Mean per-server utilization over `[0, end_time]`: the summed busy
    /// time over `servers · end_time` (0 for an empty horizon).
    pub fn mean_utilization(&self, end_time: f64) -> f64 {
        let n = self.servers();
        if end_time <= 0.0 || n == 0 {
            return 0.0;
        }
        self.busy_time() / (n as f64 * end_time)
    }

    /// Per-server utilization (busy time / horizon), one value per server
    /// in server order; the population engine's exchangeable servers all
    /// report the mean.
    pub fn utilizations(&self, end_time: f64) -> impl Iterator<Item = f64> + '_ {
        let (busy, even, copies): (&[f64], f64, usize) = match &self.tallies {
            ServerTallies::PerServer { busy, .. } => (busy, 0.0, 0),
            ServerTallies::Exchangeable { servers, .. } => {
                (&[], self.mean_utilization(end_time), *servers)
            }
        };
        busy.iter()
            .map(move |&b| if end_time > 0.0 { b / end_time } else { 0.0 })
            .chain(std::iter::repeat_n(even, copies))
    }

    /// Jain's fairness index of per-server completed-job counts:
    /// `(Σx)² / (n·Σx²)`; 1.0 = perfectly even, `1/n` = all work on one
    /// server. Exchangeable servers share the completions evenly in
    /// expectation, so their index is 1.
    pub fn throughput_fairness(&self) -> f64 {
        match &self.tallies {
            ServerTallies::PerServer { completed, .. } => jain_fairness(completed),
            ServerTallies::Exchangeable { .. } => 1.0,
        }
    }
}

/// First-class tail latencies of one experiment point, computed from the
/// per-trial quantile sketches merged in trial order (ISSUE 8). Because
/// the sketch's merge is bit-exact under any association, these numbers
/// are identical whether the trials ran sequentially, on 2 workers, on 8,
/// or were replayed from the result cache.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct TailSummary {
    /// Median response time across every measured job of every trial.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Exact largest measured response time.
    pub max: f64,
    /// Measured jobs covered (0 when nothing was measured; the
    /// percentiles are then NaN).
    pub count: u64,
}

/// Bit-level equality, so two empty (all-NaN) summaries compare equal
/// and golden tests can assert exact reproduction.
impl PartialEq for TailSummary {
    fn eq(&self, other: &Self) -> bool {
        self.p50.to_bits() == other.p50.to_bits()
            && self.p99.to_bits() == other.p99.to_bits()
            && self.p999.to_bits() == other.p999.to_bits()
            && self.max.to_bits() == other.max.to_bits()
            && self.count == other.count
    }
}

impl TailSummary {
    /// Summarizes a merged sketch; all-NaN percentiles when it is empty.
    pub fn from_sketch(sketch: &TailSketch) -> Self {
        if sketch.count() == 0 {
            return Self::empty();
        }
        Self {
            p50: sketch.quantile(0.5),
            p99: sketch.quantile(0.99),
            p999: sketch.quantile(0.999),
            max: sketch.max(),
            count: sketch.count(),
        }
    }

    /// The no-data summary (NaN percentiles, zero count).
    pub fn empty() -> Self {
        Self {
            p50: f64::NAN,
            p99: f64::NAN,
            p999: f64::NAN,
            max: f64::NAN,
            count: 0,
        }
    }
}

/// Counters from the overload control plane (bounded queues, deadlines,
/// retry orbit). All zero when the controls are off.
///
/// The counters satisfy two conservation laws the engine's proptests pin
/// down: every generated job either completes or is abandoned
/// (`generated == completed + abandoned`), and every bounce either
/// re-enters the orbit or is terminal
/// (`rejected + reneged == retries + abandoned`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Admission attempts bounced off a full queue (retries re-rejected
    /// count again).
    pub rejected: u64,
    /// Jobs that abandoned a queue after waiting past their deadline
    /// (again counting repeats).
    pub reneged: u64,
    /// Bounced jobs that re-entered the arrival stream via the retry
    /// orbit.
    pub retries: u64,
    /// Jobs terminally lost: bounced with no retry configured or with
    /// their attempt budget exhausted.
    pub abandoned: u64,
}

impl OverloadStats {
    /// Whether every counter is zero (controls off or never triggered).
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Admission attempts per generated job: 1.0 with no retries, growing
    /// as the orbit re-offers bounced jobs (the retry storm made
    /// measurable).
    pub fn retry_amplification(&self, generated: u64) -> f64 {
        if generated == 0 {
            return 1.0;
        }
        1.0 + self.retries as f64 / generated as f64
    }

    /// Fraction of admission attempts bounced at the queue cap.
    pub fn rejection_rate(&self, generated: u64) -> f64 {
        let attempts = generated + self.retries;
        if attempts == 0 {
            return 0.0;
        }
        self.rejected as f64 / attempts as f64
    }

    /// Reneges per admitted job (admissions = attempts − rejections).
    pub fn renege_rate(&self, generated: u64) -> f64 {
        let admitted = generated + self.retries - self.rejected;
        if admitted == 0 {
            return 0.0;
        }
        self.reneged as f64 / admitted as f64
    }
}

/// Counters from the degraded-information control plane (hedged dispatch,
/// server quarantine, partition/corruption fault injection). All zero when
/// none of those knobs is turned.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceStats {
    /// Extra hedge replicas placed (a job hedged to `h` servers counts
    /// `h − 1` here).
    pub hedges_issued: u64,
    /// Hedged jobs won by a replica other than the primary pick.
    pub hedges_won: u64,
    /// Losing replicas cancelled when a sibling completed first.
    pub hedges_cancelled: u64,
    /// Servers ejected from the candidate set by a quarantine wrapper.
    pub quarantine_ejections: u64,
    /// Quarantined servers readmitted after a successful probe.
    pub quarantine_readmissions: u64,
    /// Load reports garbled in flight by corruption injection.
    pub corrupted_reports: u64,
    /// Summed server-seconds of board invisibility (a partition hiding 3
    /// servers for 2 time units counts 6).
    pub partition_seconds: f64,
}

impl ResilienceStats {
    /// Whether every counter is zero (no resilience knob turned, or none
    /// ever triggered).
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Fraction of hedged placements the primary pick lost — how often the
    /// hedge actually paid for itself.
    pub fn hedge_win_rate(&self) -> f64 {
        if self.hedges_issued == 0 {
            return 0.0;
        }
        self.hedges_won as f64 / self.hedges_issued as f64
    }
}

/// Jain's fairness index over non-negative counts.
///
/// Returns 1.0 for an empty or all-zero input (nothing to be unfair
/// about).
///
/// # Example
///
/// ```
/// use staleload_core::jain_fairness;
///
/// assert!((jain_fairness(&[10, 10, 10, 10]) - 1.0).abs() < 1e-12);
/// assert!((jain_fairness(&[40, 0, 0, 0]) - 0.25).abs() < 1e-12);
/// ```
pub fn jain_fairness(counts: &[u64]) -> f64 {
    let n = counts.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = counts.iter().map(|&c| c as f64).sum();
    let sumsq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sumsq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0, 0]), 1.0);
        assert!((jain_fairness(&[5, 5, 5]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[9, 0, 0]) - 1.0 / 3.0).abs() < 1e-12);
        let mid = jain_fairness(&[8, 4, 0]);
        assert!(mid > 1.0 / 3.0 && mid < 1.0, "{mid}");
    }

    #[test]
    fn overload_stats_rates() {
        let stats = OverloadStats {
            rejected: 20,
            reneged: 10,
            retries: 24,
            abandoned: 6,
        };
        assert!(!stats.is_zero());
        // 100 generated + 24 retries = 124 attempts.
        assert!((stats.retry_amplification(100) - 1.24).abs() < 1e-12);
        assert!((stats.rejection_rate(100) - 20.0 / 124.0).abs() < 1e-12);
        assert!((stats.renege_rate(100) - 10.0 / 104.0).abs() < 1e-12);
        assert!(OverloadStats::default().is_zero());
        assert_eq!(OverloadStats::default().retry_amplification(0), 1.0);
        assert_eq!(OverloadStats::default().rejection_rate(0), 0.0);
    }

    #[test]
    fn resilience_stats_rates() {
        assert!(ResilienceStats::default().is_zero());
        assert_eq!(ResilienceStats::default().hedge_win_rate(), 0.0);
        let stats = ResilienceStats {
            hedges_issued: 40,
            hedges_won: 10,
            hedges_cancelled: 40,
            quarantine_ejections: 3,
            quarantine_readmissions: 2,
            corrupted_reports: 7,
            partition_seconds: 12.5,
        };
        assert!(!stats.is_zero());
        assert!((stats.hedge_win_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn detail_accumulates() {
        let mut d = RunDetail::new(64);
        d.jobs_in_system.update(1.0, 3.0);
        d.response_sketch.record(2.0);
        d.tallies = ServerTallies::PerServer {
            completed: vec![1, 0],
            busy: vec![2.0, 0.0],
        };
        assert_eq!(d.peak_jobs_in_system(), 3.0);
        assert_eq!(d.response_quantile(1.0), 2.0);
        assert_eq!(d.utilizations(4.0).collect::<Vec<_>>(), [0.5, 0.0]);
        assert_eq!(d.utilizations(0.0).collect::<Vec<_>>(), [0.0, 0.0]);
        assert_eq!(d.mean_utilization(4.0), 0.25);
        assert_eq!((d.servers(), d.completed(), d.busy_time()), (2, 1, 2.0));
        assert_eq!(d.per_server_completed(), Some(&[1, 0][..]));
        assert!(d.throughput_fairness() < 1.0);
    }

    #[test]
    fn exchangeable_servers_share_evenly() {
        // Fewer completions than servers: the expected shares are still
        // equal, so the summary is perfectly fair.
        let mut d = RunDetail::new(64);
        d.tallies = ServerTallies::Exchangeable {
            servers: 1_000,
            completed: 200,
            busy: 150.0,
        };
        assert_eq!(d.throughput_fairness(), 1.0);
        assert_eq!(
            (d.servers(), d.completed(), d.busy_time()),
            (1_000, 200, 150.0)
        );
        assert_eq!(d.per_server_completed(), None);
        assert_eq!(d.mean_utilization(3.0), 150.0 / (1_000.0 * 3.0));
        assert_eq!(d.mean_utilization(0.0), 0.0);
        let mut utils = d.utilizations(3.0);
        assert_eq!(utils.next(), Some(0.05));
        assert_eq!(utils.count(), 999);
    }

    #[test]
    fn tail_summary_from_sketch() {
        let mut s = TailSketch::new(64);
        for i in 1..=10 {
            s.record(i as f64);
        }
        let t = TailSummary::from_sketch(&s);
        assert_eq!(t.count, 10);
        assert_eq!(t.p50, 5.5);
        assert_eq!(t.max, 10.0);
        assert!(t.p99 <= t.p999 && t.p999 <= t.max);

        let empty = TailSummary::from_sketch(&TailSketch::new(64));
        assert_eq!(empty.count, 0);
        assert!(empty.p50.is_nan() && empty.p99.is_nan());
        assert_eq!(empty, TailSummary::empty());
    }
}
