//! The sweep runner: flattens experiment points into (point × trial)
//! tasks, maps them over the worker pool, and short-circuits points
//! already in the content-addressed result cache.
//!
//! # Determinism
//!
//! A batch's results are bit-identical to running each point through
//! `Experiment::try_run` sequentially, whatever the worker count or
//! cache state, because every moving part is order-free by construction:
//!
//! 1. each trial's seed derives only from the master seed and the trial
//!    index (`trial_seed`), never from which worker runs it or when;
//! 2. the pool returns trial outcomes in task order, and aggregation
//!    consumes each point's outcomes in trial order through the *same*
//!    `Experiment::aggregate` the sequential path uses;
//! 3. cached results round-trip bit-exactly through the JSONL codec
//!    (seeds as raw integer tokens, `f64`s via shortest-roundtrip
//!    formatting), so a warm-cache answer is the stored cold answer.
//!
//! The golden test `tests/golden_batch.rs` pins all three claims.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use staleload_core::{
    Diagnostic, Experiment, ExperimentResult, SimError, TrialOutcome, WorkerPool,
};

use crate::cache::{CacheAccounting, ResultCache};
use crate::hash::experiment_key;
use crate::journal::{JournalAccounting, SweepJournal};
use crate::watchdog::{self, WatchdogSpec};

/// Diagnostic code attached to points where at least one trial blew the
/// watchdog budget. Such points are never cached (a wall-clock verdict
/// must not poison the durable stores).
pub const WATCHDOG_DIAGNOSTIC: &str = "watchdog-timeout";

/// A progress snapshot, emitted each time a point completes (and once
/// up front for the points the cache served instantly).
#[derive(Debug, Clone, Copy)]
pub struct PointProgress {
    /// Points finished so far (cached + computed).
    pub done: usize,
    /// Points in the batch.
    pub total: usize,
    /// Wall-clock time since the batch started.
    pub elapsed: Duration,
}

impl PointProgress {
    /// Naive remaining-time estimate from the mean per-point rate.
    /// `None` until at least one point has completed.
    #[must_use]
    pub fn eta(&self) -> Option<Duration> {
        if self.done == 0 || self.total <= self.done {
            return (self.total == self.done).then_some(Duration::ZERO);
        }
        let per_point = self.elapsed.div_f64(self.done as f64);
        Some(per_point.mul_f64((self.total - self.done) as f64))
    }
}

type ProgressFn = dyn Fn(PointProgress) + Send + Sync;

/// Executes batches of experiment points on a worker pool, consulting
/// (and filling) a content-addressed result cache.
pub struct SweepRunner {
    pool: WorkerPool,
    cache: ResultCache,
    journal: SweepJournal,
    watchdog: Option<WatchdogSpec>,
    progress: Option<Box<ProgressFn>>,
}

impl SweepRunner {
    /// Builds a runner from a pool and a cache (journal and watchdog
    /// disabled; see [`SweepRunner::set_journal`] and
    /// [`SweepRunner::set_watchdog`]).
    #[must_use]
    pub fn new(pool: WorkerPool, cache: ResultCache) -> Self {
        Self {
            pool,
            cache,
            journal: SweepJournal::disabled(),
            watchdog: None,
            progress: None,
        }
    }

    /// Installs a sweep journal: completed trials are recorded as they
    /// finish and replayed (instead of recomputed) by later batches, so
    /// an interrupted sweep resumes where it died. Replaces any
    /// previous journal.
    pub fn set_journal(&mut self, journal: SweepJournal) {
        self.journal = journal;
    }

    /// Whether a journal is recording and replaying trials.
    #[must_use]
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_enabled()
    }

    /// Arms (or with `None`, disarms) the per-trial watchdog.
    pub fn set_watchdog(&mut self, spec: Option<WatchdogSpec>) {
        self.watchdog = spec;
    }

    /// Returns and resets the journal's replay/record counters.
    pub fn take_journal_accounting(&mut self) -> JournalAccounting {
        self.journal.take_accounting()
    }

    /// Total workers serving batches (including the calling thread).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Whether cache lookups can hit.
    #[must_use]
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_enabled()
    }

    /// Installs a progress callback (invoked from worker threads as
    /// points complete). Replaces any previous callback.
    pub fn set_progress(&mut self, f: impl Fn(PointProgress) + Send + Sync + 'static) {
        self.progress = Some(Box::new(f));
    }

    /// Removes the progress callback.
    pub fn clear_progress(&mut self) {
        self.progress = None;
    }

    /// Returns and resets the cache hit/miss counters (call per figure).
    pub fn take_accounting(&mut self) -> CacheAccounting {
        self.cache.take_accounting()
    }

    /// Runs one point (see [`SweepRunner::run_batch`]).
    ///
    /// # Errors
    ///
    /// Returns the same errors `Experiment::try_run` would.
    pub fn run_one(&mut self, experiment: &Experiment) -> Result<ExperimentResult, SimError> {
        self.run_batch(std::slice::from_ref(experiment))
            .pop()
            .expect("one experiment yields one result")
    }

    /// Runs `f(0)`, `f(1)`, … `f(count - 1)` on the worker pool and
    /// returns the results in index order.
    ///
    /// This is the escape hatch for experiment shapes that do not fit
    /// [`Experiment`] (custom per-trial metrics): they still run on the
    /// pool, but bypass the cache. Determinism is the caller's concern —
    /// keep `f` a pure function of its index.
    pub fn run_map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.pool.map(count, f)
    }

    /// Runs every point of `experiments`, returning results in input
    /// order. Cached points are served without simulating; journalled
    /// trials of the rest are replayed; only the remainder is flattened
    /// into (point × trial) tasks and executed on the pool.
    pub fn run_batch(
        &mut self,
        experiments: &[Experiment],
    ) -> Vec<Result<ExperimentResult, SimError>> {
        let total = experiments.len();
        let start = Instant::now();
        let mut results: Vec<Option<Result<ExperimentResult, SimError>>> =
            (0..total).map(|_| None).collect();
        let mut uncached: Vec<(usize, crate::PointKey)> = Vec::new();
        let mut done_upfront = 0usize;
        for (i, exp) in experiments.iter().enumerate() {
            if exp.trials == 0 {
                // try_run short-circuits on zero trials without running
                // anything — delegating keeps the error text identical.
                results[i] = Some(exp.try_run());
                done_upfront += 1;
                continue;
            }
            let key = experiment_key(exp);
            if let Some(hit) = self.cache.get(key) {
                results[i] = Some(Ok(hit));
                done_upfront += 1;
            } else {
                uncached.push((i, key));
            }
        }

        // Replay journalled trials instead of running them: a resumed
        // sweep recomputes only what never completed. Both lists are in
        // (point, trial) order.
        let mut replayed: Vec<(usize, usize, TrialOutcome)> = Vec::new();
        let mut tasks: Vec<(usize, usize)> = Vec::new();
        let mut pending = vec![0usize; uncached.len()];
        for (u, &(i, key)) in uncached.iter().enumerate() {
            for trial in 0..experiments[i].trials {
                match self.journal.lookup(key, trial) {
                    Some(outcome) => replayed.push((u, trial, outcome)),
                    None => {
                        tasks.push((u, trial));
                        pending[u] += 1;
                    }
                }
            }
        }
        // A fully replayed point completes without a task.
        done_upfront += pending.iter().filter(|&&p| p == 0).count();
        // Trials each point still waits for, counted down for progress.
        let remaining: Vec<AtomicUsize> = pending.into_iter().map(AtomicUsize::new).collect();
        if let Some(progress) = &self.progress {
            progress(PointProgress {
                done: done_upfront,
                total,
                elapsed: start.elapsed(),
            });
        }

        let done = AtomicUsize::new(done_upfront);
        let (journal, watchdog, progress) =
            (&self.journal, self.watchdog, self.progress.as_deref());
        let mut computed = self
            .pool
            .map(tasks.len(), |j| {
                let (u, trial) = tasks[j];
                let outcome = watchdog::run_trial(&experiments[uncached[u].0], trial, watchdog);
                // Watchdog timeouts are wall-clock verdicts — never
                // journalled, so a faster resume re-attempts them.
                if !matches!(&outcome, TrialOutcome::Failed(f) if watchdog::timed_out(f)) {
                    journal.record(uncached[u].1, trial, &outcome);
                }
                if remaining[u].fetch_sub(1, Ordering::AcqRel) == 1 {
                    let now_done = done.fetch_add(1, Ordering::AcqRel) + 1;
                    if let Some(progress) = progress {
                        progress(PointProgress {
                            done: now_done,
                            total,
                            elapsed: start.elapsed(),
                        });
                    }
                }
                outcome
            })
            .into_iter();

        let mut replayed = replayed.into_iter().peekable();
        for (u, &(i, key)) in uncached.iter().enumerate() {
            let outcomes: Vec<TrialOutcome> = (0..experiments[i].trials)
                .map(
                    |trial| match replayed.next_if(|r| (r.0, r.1) == (u, trial)) {
                        Some((_, _, outcome)) => outcome,
                        None => computed.next().expect("one outcome per trial to run"),
                    },
                )
                .collect();
            let mut result = experiments[i].aggregate(outcomes);
            if let Ok(r) = &mut result {
                let timed_out = r.failures.iter().filter(|f| watchdog::timed_out(f)).count();
                if timed_out > 0 {
                    // Tag the point and keep it out of the cache: a slow
                    // machine's timeout must not become a durable fact.
                    if !r.diagnostics.iter().any(|d| d.code == WATCHDOG_DIAGNOSTIC) {
                        r.diagnostics.push(Diagnostic {
                            code: WATCHDOG_DIAGNOSTIC,
                            message: format!(
                                "{timed_out} trial(s) exceeded the watchdog budget; \
                                 result left uncached"
                            ),
                        });
                    }
                } else {
                    self.cache.put(key, r);
                }
            }
            results[i] = Some(result);
        }
        // Every aggregated result is durably in the cache (puts are
        // fsynced), so the journalled trials are redundant — truncate.
        // With the cache disabled nothing is durable; keep the journal.
        if self.cache.is_enabled() && !self.journal.is_empty() {
            self.journal.clear();
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every point resolved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;

    #[test]
    fn run_map_returns_results_in_index_order() {
        for workers in [1, 4] {
            let runner = SweepRunner::new(WorkerPool::new(workers), ResultCache::disabled());
            let out = runner.run_map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_map_handles_empty_batch() {
        let runner = SweepRunner::new(WorkerPool::new(2), ResultCache::disabled());
        let out: Vec<usize> = runner.run_map(0, |i| i);
        assert!(out.is_empty());
    }
}
