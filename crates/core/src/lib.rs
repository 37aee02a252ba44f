//! Simulation driver and experiment runner for the *Interpreting Stale Load
//! Information* reproduction.
//!
//! This crate glues the substrates together into the paper's experiment
//! (§5): a Poisson (or bursty, per-client) stream of jobs arrives at a bank
//! of FIFO servers; each job is routed by a *selection policy* that only
//! sees the loads through an *information model*; the metric is the mean
//! response time of the jobs arriving after warm-up.
//!
//! * [`SimConfig`] — servers, load, job count, service distribution, seed.
//! * [`run_simulation`] — one seeded run; returns a [`RunResult`].
//!   [`run_simulation_until`] is the same run under a caller's stop
//!   predicate.
//! * [`Experiment`] — a (config, info model, policy) triple run over many
//!   seeds, summarized with the paper's statistics (mean ± 90% CI,
//!   quartiles).
//!
//! # Example
//!
//! ```
//! use staleload_core::{ArrivalSpec, Experiment, SimConfig};
//! use staleload_info::InfoSpec;
//! use staleload_policies::PolicySpec;
//!
//! // A small, fast configuration: 8 servers at load 0.9, stale periodic
//! // board (T = 4), Basic LI versus oblivious random.
//! let base = SimConfig::builder()
//!     .servers(8)
//!     .lambda(0.9)
//!     .arrivals(20_000)
//!     .seed(7)
//!     .build();
//! let info = InfoSpec::Periodic { period: 4.0 };
//!
//! let li = Experiment::new(base.clone(), ArrivalSpec::Poisson, info,
//!                          PolicySpec::BasicLi { lambda: 0.9 }, 3).run();
//! let random = Experiment::new(base, ArrivalSpec::Poisson, info,
//!                              PolicySpec::Random, 3).run();
//! assert!(li.summary.mean < random.summary.mean,
//!         "LI should beat oblivious random at moderate staleness");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod experiment;
mod fault;
mod metrics;
mod pool;
mod population;

pub use config::{
    check_fault_clock, check_run_bounds, ArrivalSpec, ConfigError, EngineMode, SimConfig,
    SimConfigBuilder,
};
pub use engine::{run_simulation, run_simulation_until, Diagnostic, RunResult};
pub use error::SimError;
pub use experiment::{
    clients_for_mean_age, trial_seed, Experiment, ExperimentResult, TrialFailure, TrialOutcome,
};
pub use fault::{ChurnSpec, CorruptSpec, CrashSpec, FaultSpec, LossSpec, PartitionSpec};
pub use metrics::{
    jain_fairness, FaultStats, OverloadStats, ResilienceStats, RunDetail, TailSummary,
};
pub use pool::WorkerPool;
pub use staleload_workloads::RetrySpec;
