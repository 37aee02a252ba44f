//! The trial executor: maps task indices onto worker threads.
//!
//! Dahlin's protocol is independent seeded replications, so the only
//! parallelism the simulator needs is "run `f(0)`, …, `f(n − 1)` and give
//! the results back in index order". [`WorkerPool::map`] is that one
//! map, and every parallel caller goes through it: [`Experiment::try_run`]
//! and the sweep runner's batches and custom-metric maps.
//!
//! Each call runs inside one `std::thread::scope`: it spawns
//! `workers − 1` threads, the calling thread works beside them, and all
//! of them claim indices from one atomic counter, so a fast worker
//! simply claims more. Nothing outlives the call. A pool is only a
//! worker count: no thread is parked between batches, and tasks may
//! borrow from the caller's stack.
//!
//! Determinism: which worker runs an index, and when, is left to
//! scheduling luck; results are put back in index order before `map`
//! returns. Callers derive each task's seed from its index alone
//! (`trial_seed`), so the output does not depend on the worker count.
//!
//! [`Experiment::try_run`]: crate::Experiment::try_run

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A fixed number of workers, the calling thread included, for batches
/// of independent tasks. `WorkerPool::new(1)` runs every batch inline, in
/// index order.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool of `workers` total workers (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Total worker count, including the calling thread.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(0)`, …, `f(count − 1)` on up to `workers` threads (never
    /// more than `count`) and returns the results in index order.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a task that panicked, once every worker has
    /// stopped.
    pub fn map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let threads = self.workers.min(count);
        if threads <= 1 {
            return (0..count).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut done = Vec::with_capacity(count.div_ceil(threads));
            loop {
                // Relaxed: the counter only hands out indices; results
                // travel back through `join`.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return done;
                }
                done.push((i, f(i)));
            }
        };
        let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
            // A thread the OS refuses leaves its share to the others.
            let helpers: Vec<_> = (1..threads)
                .filter_map(|w| {
                    std::thread::Builder::new()
                        .name(format!("staleload-worker-{w}"))
                        .spawn_scoped(scope, claim)
                        .ok()
                })
                .collect();
            let mut done = claim();
            done.reserve_exact(count - done.len());
            for helper in helpers {
                match helper.join() {
                    Ok(part) => done.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, t)| t).collect()
    }

    /// Runs every task once, the calling thread included, and returns
    /// when all have finished.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a task that panicked.
    pub fn run<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        let count = tasks.len();
        let queue = Mutex::new(tasks.into_iter());
        self.map(count, |_| {
            // The lock is held only across `next`, never while a task
            // runs, so a poisoned queue is still a valid iterator.
            let task = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            if let Some(task) = task {
                task();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

    fn run_counting(pool: &WorkerPool, n: usize) -> Vec<usize> {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let tasks: Vec<Task<'_>> = hits
            .iter()
            .map(|h| {
                Box::new(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        hits.iter().map(|h| h.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn every_task_runs_exactly_once() {
        // 0 workers clamps to one: the calling thread runs the batch.
        for workers in [0, 1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.workers(), workers.max(1));
            for n in [0, 1, 2, 7, 64, 257] {
                let hits = run_counting(&pool, n);
                assert!(
                    hits.iter().all(|&h| h == 1),
                    "workers={workers} n={n}: {hits:?}"
                );
            }
        }
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = WorkerPool::new(4);
        for _ in 0..50 {
            let hits = run_counting(&pool, 13);
            assert!(hits.iter().all(|&h| h == 1));
        }
    }

    #[test]
    fn single_worker_runs_inline_in_submission_order() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let tasks: Vec<Task<'_>> = (0..10)
            .map(|i| {
                let order = &order;
                Box::new(move || {
                    assert_eq!(std::thread::current().id(), caller);
                    order.lock().unwrap().push(i);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(order.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn batch_larger_than_partition_still_completes() {
        // More workers than tasks: only as many threads as tasks work.
        let pool = WorkerPool::new(8);
        let hits = run_counting(&pool, 3);
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
    }

    #[test]
    fn map_returns_results_in_index_order_when_workers_interleave() {
        for workers in [1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            // With more than one worker, tasks 2k and 2k + 1 wait for each
            // other at a barrier, so they run on different workers, no
            // worker holds a contiguous run of indices, and a task's time
            // depends on when its partner is claimed.
            let pairs: Vec<Barrier> = (0..12).map(|_| Barrier::new(2)).collect();
            let out = pool.map(24, |i| {
                if workers > 1 {
                    pairs[i / 2].wait();
                }
                i * i
            });
            assert_eq!(
                out,
                (0..24).map(|i| i * i).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn a_panicking_task_makes_run_panic() {
        for workers in [1, 2, 8] {
            let pool = WorkerPool::new(workers);
            let ran = AtomicUsize::new(0);
            let tasks: Vec<Task<'_>> = (0..16)
                .map(|i| {
                    let ran = &ran;
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                        assert!(i != 5, "task 5 fails");
                    }) as Task<'_>
                })
                .collect();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(tasks)));
            assert!(caught.is_err(), "workers={workers}: run returned normally");
            assert!(ran.load(Ordering::Relaxed) >= 6, "workers={workers}");
        }
    }
}
