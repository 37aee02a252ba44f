//! Discrete-event simulation kernel for the `staleload` project.
//!
//! This crate provides the substrate every other `staleload` crate builds on:
//!
//! * [`SimRng`] — a deterministic, seedable random-number generator with the
//!   handful of variate helpers the study needs, plus stream *forking* so each
//!   simulation component can own an independent stream derived from one
//!   master seed.
//! * [`Dist`] — the random variates used by the paper's workloads and delay
//!   models (constant, uniform, exponential, and **Bounded Pareto**);
//!   [`Sampler`] draws from one with its constants computed once.
//! * [`EventQueue`] — the pending-event set: a binary heap ordered by time
//!   with FIFO tie-break, the contract [`EventScheduler`] states, and a
//!   hold that pops and pushes in one sift.
//! * [`OnlineStats`] — streaming mean/variance/extrema (Welford) used for
//!   response-time accounting.
//!
//! Time is represented as `f64` in units of the mean job service time, exactly
//! as in the paper (service rate 1). The kernel never consults wall-clock
//! time; identical seeds reproduce identical runs bit-for-bit.
//!
//! # Example
//!
//! ```
//! use staleload_sim::{Dist, EventQueue, OnlineStats, SimRng};
//!
//! let mut rng = SimRng::from_seed(42);
//! let service = Dist::exponential(1.0);
//!
//! let mut queue = EventQueue::new();
//! queue.push(service.sample(&mut rng), "departure");
//! queue.push(0.5, "arrival");
//!
//! let mut stats = OnlineStats::new();
//! while let Some((time, _event)) = queue.pop() {
//!     stats.record(time);
//! }
//! assert_eq!(stats.count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod events;
mod histogram;
mod rng;
mod stats;
mod timeavg;

pub use dist::{Dist, DistError, Sampler};
pub use events::{EventQueue, EventScheduler, SchedError, SchedulerKind};
pub use histogram::Histogram;
pub use rng::{SimRng, SubsetScratch};
pub use stats::OnlineStats;
pub use timeavg::TimeWeighted;
