//! The engine replay: the per-server engine's call sequence for a clean
//! trial, rebuilt from the crates' public items, with sampled spans
//! around each call into a layer.
//!
//! The sequence mirrors `run_simulation` for a trial without faults,
//! overload controls, work stealing or hedging: the six RNG forks in
//! manifest order (arrival, service, policy, model, fault, retry), then per
//! event the scheduler, information model, arrival process, service
//! sampler, policy, cluster and statistics calls, in the engine's order.
//! A replay is only trusted when its mean, p99, end time and job counts
//! are bit-identical to `run_simulation` on the same spec.

use std::time::Instant;

use staleload_cluster::{Admission, Cluster, Job, ServerId};
use staleload_core::{ArrivalSpec, Experiment, SimConfig};
use staleload_info::{InfoDispatch, InfoModel, InfoSpec};
use staleload_policies::{DispatchPolicy, Policy, PolicySpec};
use staleload_sim::{EventQueue, EventScheduler, Histogram, OnlineStats, SimRng, TimeWeighted};
use staleload_stats::TailSketch;
use staleload_workloads::ArrivalProcess;

/// Layers a replay times.
const LAYERS: usize = 10;

/// The layers a replay times, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Sched,
    Service,
    Arrival,
    Refresh,
    View,
    AfterPlacement,
    Select,
    Admit,
    Complete,
    Record,
}

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::Sched,
        Layer::Service,
        Layer::Arrival,
        Layer::Refresh,
        Layer::View,
        Layer::AfterPlacement,
        Layer::Select,
        Layer::Admit,
        Layer::Complete,
        Layer::Record,
    ];

    /// The per-layer metric this layer reports as.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Sched => "sim.sched_ns_per_job",
            Layer::Service => "sim.service_ns_per_job",
            Layer::Arrival => "workloads.arrival_ns_per_job",
            Layer::Refresh => "info.refresh_ns_per_job",
            Layer::View => "info.view_ns_per_job",
            Layer::AfterPlacement => "info.after_placement_ns_per_job",
            Layer::Select => "policies.select_ns_per_job",
            Layer::Admit => "cluster.admit_ns_per_job",
            Layer::Complete => "cluster.complete_ns_per_job",
            Layer::Record => "stats.record_ns_per_job",
        }
    }
}

/// Sampled spans per layer, aggregated in memory.
///
/// Timing every call costs more than most periodic-path calls, so only
/// about one event-loop iteration in [`SAMPLE_EVERY`] is timed; every
/// call is counted. Each timed iteration also takes one empty span, which
/// reads what the clock itself costs in the loop's own cache and pipeline
/// state. A layer's time is then estimated as its mean sampled call, less
/// the mean empty span, times its calls.
#[derive(Debug, Clone, Default)]
pub struct LayerLedger {
    calls: [u64; LAYERS],
    sampled_calls: [u64; LAYERS],
    sampled_ns: [f64; LAYERS],
    empty_spans: u64,
    empty_ns: f64,
    /// Spans taken (each adds its cost to the replay's wall time).
    pub spans: u64,
}

/// About one event-loop iteration in this many is timed.
pub const SAMPLE_EVERY: u64 = 8;

impl LayerLedger {
    /// Estimated nanoseconds spent in `layer`. A layer whose calls cost
    /// less than the clock's own jitter reads as zero rather than negative.
    pub fn estimated_ns(&self, layer: Layer) -> f64 {
        let i = layer as usize;
        if self.sampled_calls[i] == 0 || self.empty_spans == 0 {
            return 0.0;
        }
        let empty = self.empty_ns / self.empty_spans as f64;
        let per_call = self.sampled_ns[i] / self.sampled_calls[i] as f64 - empty;
        per_call.max(0.0) * self.calls[i] as f64
    }

    pub fn merge(&mut self, other: &LayerLedger) {
        for i in 0..LAYERS {
            self.calls[i] += other.calls[i];
            self.sampled_calls[i] += other.sampled_calls[i];
            self.sampled_ns[i] += other.sampled_ns[i];
        }
        self.empty_spans += other.empty_spans;
        self.empty_ns += other.empty_ns;
        self.spans += other.spans;
    }
}

/// Times (when sampling) or just counts one call into `layer`.
macro_rules! span {
    ($ledger:expr, $sampled:expr, $layer:expr, $call:expr) => {{
        let i = $layer as usize;
        $ledger.calls[i] += 1;
        if $sampled {
            let t0 = Instant::now();
            let out = $call;
            $ledger.sampled_ns[i] += t0.elapsed().as_nanos() as f64;
            $ledger.sampled_calls[i] += 1;
            $ledger.spans += 1;
            out
        } else {
            $call
        }
    }};
}

/// What one replayed trial produced.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub mean: f64,
    pub p99: f64,
    pub end_time: f64,
    pub generated: u64,
    pub measured: u64,
    pub history_misses: u64,
    /// Scheduler pops plus board refreshes.
    pub events: u64,
    /// Board refreshes between the first measured arrival and the last
    /// arrival.
    pub epochs_after_warmup: u64,
    /// Per-trial set-up: model, policy and cluster construction.
    pub setup_ns: f64,
    pub ledger: LayerLedger,
}

/// xorshift64: the sampling decision, independent of the simulation.
struct Sampler(u64);

impl Sampler {
    fn sample(&mut self) -> bool {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.is_multiple_of(SAMPLE_EVERY)
    }
}

fn arrival_process(
    cfg: &SimConfig,
    arrivals: &ArrivalSpec,
    rng: &mut SimRng,
) -> Result<ArrivalProcess, String> {
    let total_rate = cfg.total_rate();
    match *arrivals {
        ArrivalSpec::Poisson => Ok(ArrivalProcess::poisson(total_rate)),
        ArrivalSpec::PoissonClients { clients } => {
            Ok(ArrivalProcess::poisson_clients(clients, total_rate))
        }
        ArrivalSpec::BurstyClients { clients, burst } => {
            let mean_inter_request = clients as f64 / total_rate;
            ArrivalProcess::bursty_clients(clients, mean_inter_request, burst, rng)
                .map_err(|e| format!("bursty arrival spec: {e}"))
        }
        ArrivalSpec::Mmpp { .. } => Err("the replay does not cover MMPP arrivals".into()),
    }
}

/// Replays trial `trial` of a clean experiment (see [`crate::grid::is_clean`]).
///
/// # Errors
///
/// Returns a message when the experiment is outside the replay's scope or
/// its specs are invalid.
pub fn replay_trial(exp: &Experiment, trial: usize, sample_seed: u64) -> Result<Replayed, String> {
    if !crate::grid::is_clean(exp) {
        return Err("only clean per-server trials can be replayed".into());
    }
    let mut cfg = exp.config.clone();
    cfg.seed = staleload_core::trial_seed(exp.config.seed, trial);
    replay(&cfg, &exp.arrivals, &exp.info, &exp.policy, sample_seed)
}

fn replay(
    cfg: &SimConfig,
    arrivals: &ArrivalSpec,
    info: &InfoSpec,
    policy: &PolicySpec,
    sample_seed: u64,
) -> Result<Replayed, String> {
    info.validate()?;
    policy.validate()?;
    let mut ledger = LayerLedger::default();
    let mut sampler = Sampler(sample_seed | 1);

    let mut master = SimRng::from_seed(cfg.seed);
    let mut arrival_rng = master.fork();
    let mut service_rng = master.fork();
    let mut policy_rng = master.fork();
    let mut model_rng = master.fork();
    // Forked for manifest parity; a clean trial never draws from them.
    let mut fault_rng = master.fork();
    let mut retry_rng = master.fork();
    let _ = (&mut fault_rng, &mut retry_rng);

    let n = cfg.servers;
    let setup = Instant::now();
    let mut cluster = Cluster::new(n);
    cluster.set_queue_cap(None);
    if let Some(window) = info.history_window() {
        cluster.enable_history(window);
    }
    let mut model = InfoDispatch::from_spec(info, n, arrivals.clients());
    let mut policy = DispatchPolicy::from_spec_cached(policy);
    let setup_ns = setup.elapsed().as_nanos() as f64;

    let mut process = arrival_process(cfg, arrivals, &mut arrival_rng)?;
    let warmup = cfg.warmup_jobs();
    let mut departures: EventQueue<ServerId> = EventScheduler::with_capacity(n);
    // The engine's deadline and orbit queues: empty on a clean trial, but
    // peeked on every iteration all the same.
    let reneges: EventQueue<()> = EventScheduler::new();
    let orbit: EventQueue<()> = EventScheduler::new();
    let mut scheduled: Vec<Option<f64>> = vec![None; n];
    let mut response = OnlineStats::new();
    let mut histogram = Histogram::for_response_times();
    let mut sketch = TailSketch::new(cfg.sketch_cap);
    let mut jobs_in_system = TimeWeighted::new(0.0, 0.0);
    let mut next_id: u64 = 0;
    let mut events: u64 = 0;
    let mut epochs_after_warmup: u64 = 0;
    let mut s = sampler.sample();
    let mut next_arrival: Option<(f64, usize)> = Some(span!(
        ledger,
        s,
        Layer::Arrival,
        process.next(&mut arrival_rng)
    ));
    let mut end_time: f64 = 0.0;
    let sched_err = |e: staleload_sim::SchedError| e.to_string();

    loop {
        s = sampler.sample();
        if s {
            let t0 = Instant::now();
            ledger.empty_ns += t0.elapsed().as_nanos() as f64;
            ledger.empty_spans += 1;
            ledger.spans += 1;
        }
        loop {
            let head = span!(
                ledger,
                s,
                Layer::Sched,
                departures.peek().map(|(t, &server)| (t, server))
            );
            match head {
                Some((t, server)) if scheduled[server] != Some(t) => {
                    span!(ledger, s, Layer::Sched, departures.pop());
                }
                _ => break,
            }
        }
        let a = next_arrival.map_or(f64::INFINITY, |(t, _)| t);
        let d = span!(ledger, s, Layer::Sched, departures.peek_time()).unwrap_or(f64::INFINITY);
        let r = span!(ledger, s, Layer::Sched, reneges.peek_time()).unwrap_or(f64::INFINITY);
        let o = span!(ledger, s, Layer::Sched, orbit.peek_time()).unwrap_or(f64::INFINITY);
        let step_time = a.min(d).min(r).min(o);
        if !step_time.is_finite() {
            break;
        }

        while let Some(t) = span!(ledger, s, Layer::Refresh, model.next_event()) {
            if t > step_time {
                break;
            }
            span!(ledger, s, Layer::Refresh, model.on_event(t, &cluster));
            events += 1;
            if next_id >= warmup && next_arrival.is_some() {
                epochs_after_warmup += 1;
            }
        }

        if a <= d {
            let (t, client) = next_arrival.take().ok_or("arrival vanished")?;
            let service = span!(
                ledger,
                s,
                Layer::Service,
                cfg.service.sample(&mut service_rng)
            );
            let job = Job::new(next_id, t, service);
            next_id += 1;
            if next_id < cfg.arrivals {
                next_arrival = Some(span!(
                    ledger,
                    s,
                    Layer::Arrival,
                    process.next(&mut arrival_rng)
                ));
            }
            let server = {
                span!(ledger, s, Layer::Select, policy.observe_arrival(t));
                let view = span!(
                    ledger,
                    s,
                    Layer::View,
                    model.view(t, client, &mut cluster, &mut model_rng)
                );
                span!(
                    ledger,
                    s,
                    Layer::Select,
                    policy.select_sized(&view, job.service, &mut policy_rng)
                )
            };
            if !cluster.is_up(server) {
                return Err(format!("server {server} is down in a fault-free trial"));
            }
            match span!(ledger, s, Layer::Admit, cluster.admit(server, job, t)) {
                Admission::Rejected => return Err("rejection without a queue cap".into()),
                accepted => {
                    if let Admission::InService(dep) = accepted {
                        span!(ledger, s, Layer::Sched, departures.try_push(dep, server))
                            .map_err(sched_err)?;
                        scheduled[server] = Some(dep);
                    }
                    span!(
                        ledger,
                        s,
                        Layer::AfterPlacement,
                        model.after_placement(t, client, &cluster)
                    );
                    let in_system = cluster.in_system() as f64;
                    span!(
                        ledger,
                        s,
                        Layer::Record,
                        jobs_in_system.update(t, in_system)
                    );
                }
            }
        } else {
            let (t, server) =
                span!(ledger, s, Layer::Sched, departures.pop()).ok_or("departure vanished")?;
            events += 1;
            scheduled[server] = None;
            let (job, next) = span!(ledger, s, Layer::Complete, cluster.complete(server, t));
            if let Some(dep) = next {
                span!(ledger, s, Layer::Sched, departures.try_push(dep, server))
                    .map_err(sched_err)?;
                scheduled[server] = Some(dep);
            }
            if job.id >= warmup {
                let sojourn = t - job.arrival;
                span!(ledger, s, Layer::Record, {
                    response.record(sojourn);
                    histogram.record(sojourn);
                    sketch.record(sojourn);
                });
            }
            let in_system = cluster.in_system() as f64;
            span!(
                ledger,
                s,
                Layer::Record,
                jobs_in_system.update(t, in_system)
            );
            end_time = t;
        }
    }

    if cluster.in_system() != 0 {
        return Err("the replay did not drain the system".into());
    }
    let history_misses = cluster.history_misses();
    DispatchPolicy::recycle(policy);
    std::hint::black_box((&histogram, &jobs_in_system));
    Ok(Replayed {
        mean: response.mean(),
        p99: if sketch.count() > 0 {
            sketch.quantile(0.99)
        } else {
            f64::NAN
        },
        end_time,
        generated: next_id,
        measured: response.count(),
        history_misses,
        events,
        epochs_after_warmup,
        setup_ns,
        ledger,
    })
}

/// Checks a replay against `run_simulation` on the same trial: mean, p99,
/// end time and job counts must match to the bit.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn same_bits(r: &Replayed, sim: &staleload_core::RunResult) -> Result<(), String> {
    let p99 = if sim.measured_jobs > 0 {
        sim.detail.response_sketch.quantile(0.99)
    } else {
        f64::NAN
    };
    let pairs = [
        ("mean", r.mean.to_bits(), sim.mean_response.to_bits()),
        ("p99", r.p99.to_bits(), p99.to_bits()),
        ("end time", r.end_time.to_bits(), sim.end_time.to_bits()),
        ("generated", r.generated, sim.generated),
        ("measured", r.measured, sim.measured_jobs),
        ("history misses", r.history_misses, sim.history_misses),
    ];
    for (what, replayed, engine) in pairs {
        if replayed != engine {
            return Err(format!(
                "replay {what} differs from run_simulation ({replayed:#x} vs {engine:#x})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use staleload_core::run_simulation;
    use staleload_info::{AgeKnowledge, DelaySpec};

    fn check(arrivals: ArrivalSpec, info: InfoSpec, policy: PolicySpec) {
        let cfg = SimConfig::builder()
            .servers(16)
            .lambda(0.9)
            .arrivals(6_000)
            .seed(11)
            .build();
        let exp = Experiment::new(cfg, arrivals, info, policy, 2);
        for trial in 0..2 {
            let r = replay_trial(&exp, trial, 3).expect("clean trial replays");
            let mut cfg = exp.config.clone();
            cfg.seed = staleload_core::trial_seed(exp.config.seed, trial);
            let sim =
                run_simulation(&cfg, &exp.arrivals, &exp.info, &exp.policy).expect("engine runs");
            same_bits(&r, &sim).expect("bit-identical");
            assert_eq!(r.generated, 6_000);
        }
    }

    #[test]
    fn replay_matches_the_engine_on_a_periodic_board() {
        check(
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 2.0 },
            PolicySpec::BasicLi { lambda: 0.9 },
        );
        check(
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 0.5 },
            PolicySpec::KSubset { k: 2 },
        );
    }

    #[test]
    fn replay_matches_the_engine_on_continuous_updates() {
        check(
            ArrivalSpec::Poisson,
            InfoSpec::Continuous {
                delay: DelaySpec::Exponential { mean: 3.0 },
                knowledge: AgeKnowledge::Actual,
            },
            PolicySpec::BasicLi { lambda: 0.9 },
        );
    }

    #[test]
    fn replay_matches_the_engine_on_update_on_access() {
        check(
            ArrivalSpec::PoissonClients { clients: 40 },
            InfoSpec::UpdateOnAccess,
            PolicySpec::AggressiveLi { lambda: 0.9 },
        );
        check(
            ArrivalSpec::BurstyClients {
                clients: 40,
                burst: staleload_workloads::BurstConfig {
                    burst_len: 10,
                    intra_gap_mean: 1.0,
                },
            },
            InfoSpec::UpdateOnAccess,
            PolicySpec::KSubset { k: 2 },
        );
    }

    #[test]
    fn faulted_trials_are_not_replayed() {
        let mut cfg = SimConfig::builder().servers(4).arrivals(100).build();
        cfg.faults = staleload_core::FaultSpec::drop(0.5);
        let exp = Experiment::new(
            cfg,
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 1.0 },
            PolicySpec::Random,
            1,
        );
        assert!(replay_trial(&exp, 0, 1).is_err());
    }
}
