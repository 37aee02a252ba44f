//! Sweep-scale orchestration for the *Interpreting Stale Load
//! Information* reproduction.
//!
//! The figure suite is a grid of sweeps — each figure iterates over
//! (T, n, λ, policy) points and each point runs several trials. This
//! crate executes that grid efficiently without touching its results:
//!
//! * [`WorkerPool`] — the one trial executor, defined in
//!   `staleload-core` and re-exported here: each batch of
//!   (point × trial) tasks runs on scoped threads plus the calling
//!   thread, which claim indices from one atomic counter.
//! * [`experiment_key`] — a canonical 128-bit content hash of the full
//!   point spec (config + arrivals + info + policy + trials + a version
//!   salt, [`CACHE_SALT`]).
//! * [`ResultCache`] — a JSONL-backed map from point key to
//!   `ExperimentResult`, so points shared across figures (and unchanged
//!   points across re-runs) are served without simulating.
//! * [`SweepRunner`] — glues the three together and reports progress
//!   (points done/total) and per-figure cache hit/miss accounting.
//!
//! Crash safety is layered on top without touching the results
//! (see `DESIGN.md` §11 for the full model):
//!
//! * [`mod@atomic`] — sealed (length + FNV checksum) JSONL lines,
//!   tmp-file + fsync + rename whole-file replacement, and the one
//!   loader of both stores; the only module in this crate that opens
//!   files for writing (the `atomic-io` lint rule enforces this).
//! * [`ResultCache`] and [`SweepJournal`] quarantine damaged lines to
//!   `<cache dir>/quarantine/` and recompute them instead of aborting
//!   or silently mis-deserializing.
//! * [`SweepJournal`] records each completed (point × trial) outcome
//!   so an interrupted sweep resumes exactly where it died, with output
//!   bit-identical to an uninterrupted run.
//! * [`WatchdogSpec`] — a per-trial wall-clock deadline with bounded,
//!   jittered retries, so a hung trial is isolated as a `TrialFailure`
//!   instead of stalling the pool.
//!
//! Determinism is the design constraint throughout: batch output is
//! bit-identical to sequential `Experiment::try_run` for every worker
//! count and cache state (see `runner` module docs for the argument,
//! `tests/golden_batch.rs` for the proof). Recovery changes *when*
//! results are computed, never *what* they are.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
mod cache;
mod codec;
mod hash;
mod journal;
mod runner;
mod watchdog;

pub use atomic::QUARANTINE_DIR;
pub use cache::{CacheAccounting, ResultCache, CACHE_FILE};
pub use hash::{experiment_key, experiment_key_salted, PointKey, SpecHasher, CACHE_SALT};
pub use journal::{JournalAccounting, SweepJournal, JOURNAL_FILE};
pub use runner::{PointProgress, SweepRunner, WATCHDOG_DIAGNOSTIC};
pub use staleload_core::WorkerPool;
pub use watchdog::{run_guarded, Guarded, WatchdogSpec};
