//! Trial watchdogs: a wall-clock deadline per trial, with bounded retry
//! and decorrelated-jitter backoff.
//!
//! A hung trial (a livelock tickled by one seed, a runaway parameter
//! combination) would stall its whole figure: the worker pool's `map`
//! returns only once every task has, so one stuck task holds the batch
//! forever. The watchdog isolates it — the trial body runs on a
//! dedicated guard thread while the pool worker waits with a timeout;
//! on expiry the worker *abandons* the guard thread (Rust threads
//! cannot be killed safely) and either retries on a fresh thread or
//! gives up, reporting a `TrialFailure`. The pool worker itself always
//! returns, so the batch completes.
//!
//! Retry pacing reuses the simulator's own decorrelated-jitter math
//! ([`RetrySpec::backoff`] from the stale-retry workload model): each
//! wait is drawn from `[base, 3 × previous]` clamped to `cap`, seeded
//! deterministically per trial so two runs back off identically.
//!
//! Watchdog timeouts are wall-clock verdicts, so they are *not*
//! journalled and their points are *not* cached — a slow machine must
//! not poison the durable stores for a fast one. Trials that complete
//! within budget return bit-identical outcomes whether or not a
//! watchdog was armed (the watchdog only decides *whether* to keep
//! waiting, never touches the trial's arithmetic).

use std::sync::mpsc;
use std::time::Duration;

use staleload_sim::SimRng;
use staleload_workloads::RetrySpec;

/// Per-trial watchdog policy: a wall-clock budget per attempt, and a
/// bounded-retry backoff schedule for attempts that blow it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogSpec {
    /// Wall-clock budget per attempt.
    pub budget: Duration,
    /// Retry policy: `max_attempts` total attempts, decorrelated-jitter
    /// backoff in `[base, cap]` *seconds* between them.
    pub retry: RetrySpec,
}

impl WatchdogSpec {
    /// A spec with the given per-attempt budget and the default retry
    /// policy (2 total attempts, backoff between 0.2 s and 5 s).
    #[must_use]
    pub fn with_budget(budget: Duration) -> Self {
        Self {
            budget,
            retry: RetrySpec {
                max_attempts: 2,
                base: 0.2,
                cap: 5.0,
            },
        }
    }

    /// Total attempts allowed (at least 1, whatever the spec says).
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.retry.max_attempts.max(1)
    }
}

/// What [`run_guarded`] observed.
#[derive(Debug)]
pub struct Guarded<T> {
    /// The closure's result, or `None` if every attempt timed out.
    pub outcome: Option<T>,
    /// Attempts made (1 ≤ attempts ≤ `spec.attempts()`).
    pub attempts: u32,
    /// Attempts that exceeded the budget and were abandoned.
    pub timeouts: u32,
}

/// Runs `f` under the watchdog: each attempt executes on a dedicated
/// guard thread with `spec.budget` to finish; an attempt that blows the
/// budget is abandoned (its thread left to finish or hang harmlessly)
/// and retried after a jittered backoff, up to `spec.attempts()` total
/// attempts.
///
/// `jitter_seed` seeds the backoff RNG, so identical inputs back off
/// identically (determinism extends even to the failure path's pacing).
/// If the OS refuses to spawn a guard thread, `f` runs inline on the
/// caller — degraded to unguarded, never wrongly failed.
pub fn run_guarded<T, F>(spec: &WatchdogSpec, jitter_seed: u64, f: F) -> Guarded<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Clone + Send + 'static,
{
    let max_attempts = spec.attempts();
    let mut rng = SimRng::from_seed(jitter_seed);
    let mut prev_wait: Option<f64> = None;
    let mut timeouts = 0u32;
    for attempt in 1..=max_attempts {
        let body = f.clone();
        let (tx, rx) = mpsc::channel::<T>();
        let spawned = std::thread::Builder::new()
            .name(format!("staleload-guard-{attempt}"))
            .spawn(move || {
                // A send can only fail if the watchdog already gave up
                // on this attempt; the result is then discarded.
                let _ = tx.send(body());
            });
        let Ok(handle) = spawned else {
            // Thread spawn failed (resource exhaustion): run unguarded
            // rather than misreporting the trial as hung.
            return Guarded {
                outcome: Some(f()),
                attempts: attempt,
                timeouts,
            };
        };
        match rx.recv_timeout(spec.budget) {
            Ok(value) => {
                let _ = handle.join();
                return Guarded {
                    outcome: Some(value),
                    attempts: attempt,
                    timeouts,
                };
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Abandon the guard thread; it parks on the dead channel
                // (or keeps computing) without holding any shared lock.
                timeouts += 1;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The guard thread died without sending — the closure
                // panicked through it. Treat like a timeout: retry.
                let _ = handle.join();
                timeouts += 1;
            }
        }
        if attempt < max_attempts {
            let wait = spec.retry.backoff(prev_wait, &mut rng);
            prev_wait = Some(wait);
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
    Guarded {
        outcome: None,
        attempts: max_attempts,
        timeouts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// A fast retry schedule so the tests spend milliseconds, not seconds.
    fn quick_spec(budget_ms: u64, attempts: u32) -> WatchdogSpec {
        WatchdogSpec {
            budget: Duration::from_millis(budget_ms),
            retry: RetrySpec {
                max_attempts: attempts,
                base: 0.001,
                cap: 0.002,
            },
        }
    }

    /// Deterministically hung: parks forever (the abandoned thread dies
    /// with the test process).
    fn hang() -> u64 {
        loop {
            std::thread::park();
        }
    }

    #[test]
    fn fast_closure_passes_through_unscathed() {
        let g = run_guarded(&quick_spec(5_000, 2), 42, || 7u64);
        assert_eq!(g.outcome, Some(7));
        assert_eq!((g.attempts, g.timeouts), (1, 0));
    }

    #[test]
    fn hung_closure_times_out_retries_and_gives_up() {
        let g: Guarded<u64> = run_guarded(&quick_spec(20, 3), 42, hang);
        assert_eq!(g.outcome, None);
        assert_eq!((g.attempts, g.timeouts), (3, 3));
    }

    #[test]
    fn hung_then_healthy_closure_succeeds_on_retry() {
        let calls = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&calls);
        let g = run_guarded(&quick_spec(50, 3), 42, move || {
            if counter.fetch_add(1, Ordering::SeqCst) == 0 {
                hang()
            } else {
                99u64
            }
        });
        assert_eq!(g.outcome, Some(99));
        assert_eq!((g.attempts, g.timeouts), (2, 1));
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let spec = quick_spec(1, 2);
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        let wa = spec.retry.backoff(None, &mut a);
        let wb = spec.retry.backoff(None, &mut b);
        assert_eq!(wa.to_bits(), wb.to_bits());
        assert!((spec.retry.base..=spec.retry.cap).contains(&wa));
    }

    #[test]
    fn attempts_is_at_least_one() {
        let mut spec = quick_spec(1, 0);
        assert_eq!(spec.attempts(), 1);
        spec.retry.max_attempts = 4;
        assert_eq!(spec.attempts(), 4);
    }
}
