//! Property-based tests for the queueing substrate.
//!
//! These drive a random but *valid* event sequence against a [`Cluster`] and
//! check conservation, FIFO, and history invariants.

// Proptest closures sit outside #[test] fns, so clippy's
// allow-unwrap-in-tests does not reach them; the whole file is a test.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use staleload_cluster::{Cluster, Job, LoadHistory};
use staleload_sim::{EventQueue, SimRng};

/// Replays a random workload through a cluster and returns
/// (arrivals, departures, per-job (arrival, departure) pairs).
fn run_random_workload(
    n_servers: usize,
    n_jobs: u64,
    seed: u64,
    with_history: bool,
) -> (Cluster, Vec<(u64, f64, f64)>) {
    let mut rng = SimRng::from_seed(seed);
    let mut cluster = if with_history {
        Cluster::with_history(n_servers, 1e9)
    } else {
        Cluster::new(n_servers)
    };
    let mut events: EventQueue<usize> = EventQueue::new();
    let mut completions = Vec::new();

    let mut t;
    let mut next_id = 0u64;
    let mut next_arrival = 0.0f64;
    loop {
        let arrivals_done = next_id >= n_jobs;
        let next_departure = events.peek_time();
        match (arrivals_done, next_departure) {
            (true, None) => break,
            (false, Some(d)) if d <= next_arrival => {
                let (_, server) = events.pop().unwrap();
                t = d;
                let (job, next) = cluster.complete(server, t);
                completions.push((job.id, job.arrival, t));
                if let Some(dep) = next {
                    events.push(dep, server);
                }
            }
            (false, _) => {
                t = next_arrival;
                let server = rng.index(n_servers);
                let job = Job::new(next_id, t, rng.exp(1.0));
                next_id += 1;
                if let Some(dep) = cluster.enqueue(server, job, t) {
                    events.push(dep, server);
                }
                next_arrival = t + rng.exp(0.5);
            }
            (true, Some(d)) => {
                let (_, server) = events.pop().unwrap();
                t = d;
                let (job, next) = cluster.complete(server, t);
                completions.push((job.id, job.arrival, t));
                if let Some(dep) = next {
                    events.push(dep, server);
                }
            }
        }
    }
    (cluster, completions)
}

/// Per-server change lists that are never pruned: the oracle for
/// [`LoadHistory`].
struct NaiveHistory {
    per_server: Vec<Vec<(f64, u32)>>,
}

impl NaiveHistory {
    /// `server`'s load as of `at`: its last change at or before `at`, or 0
    /// before its first change.
    fn load_at(&self, server: usize, at: f64) -> u32 {
        let h = &self.per_server[server];
        let idx = h.partition_point(|&(t, _)| t <= at);
        idx.checked_sub(1).map_or(0, |i| h[i].1)
    }
}

/// Queries `history` at `at` (time now `now`): inside the window the
/// answer is exact and counts no miss; an older query is either still
/// exact or counts one miss per server.
fn check_query(
    history: &mut LoadHistory,
    naive: &NaiveHistory,
    at: f64,
    now: f64,
    window: f64,
) -> TestCaseResult {
    let n = naive.per_server.len();
    let misses = history.misses();
    let mut out = Vec::new();
    history.fill_loads_at(at, &mut out);
    let want: Vec<u32> = (0..n).map(|s| naive.load_at(s, at)).collect();
    if at >= now - window {
        prop_assert_eq!(&out, &want, "at {} now {} window {}", at, now, window);
        prop_assert_eq!(history.misses(), misses);
    } else if history.misses() == misses {
        prop_assert_eq!(&out, &want, "at {} now {} window {}", at, now, window);
    } else {
        prop_assert_eq!(history.misses(), misses + n as u64);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under a finite window, every query inside the window matches the
    /// naive change lists exactly and counts no miss; an older query is
    /// either still exact or counts one miss per server. The servers number
    /// 1 to 5 (below the history's floor of records per snapshot) or 12 to
    /// 19 (around it), and after the random queries every recorded change
    /// time is queried, and the float before it, so every snapshot's own
    /// time is queried too, pruned ones included.
    #[test]
    fn history_matches_naive_change_lists_under_a_window(
        n in prop_oneof![1usize..6, 1usize..4, 12usize..20],
        window in 0.0f64..8.0,
        ops in prop::collection::vec((0u32..8, 0usize..20, 0u32..40, 0.0f64..1.0), 1..1500),
    ) {
        let mut history = LoadHistory::new(n, window);
        let mut naive = NaiveHistory { per_server: vec![Vec::new(); n] };
        let mut now = 0.0f64;
        let mut times = Vec::new();
        for (kind, server, load, u) in ops {
            if kind < 6 {
                // A change; a fifth of them share the previous time stamp.
                if u >= 0.2 {
                    now += u;
                }
                let server = server % n;
                history.record(server, now, load);
                naive.per_server[server].push((now, load));
                times.push(now);
                continue;
            }
            // A query, up to twice the window into the past.
            check_query(&mut history, &naive, (now - 2.0 * window * u).max(0.0), now, window)?;
        }
        for &t in &times {
            check_query(&mut history, &naive, t, now, window)?;
            check_query(&mut history, &naive, t.next_down().max(0.0), now, window)?;
        }
    }

    /// Every arrival eventually departs, exactly once.
    #[test]
    fn jobs_are_conserved(n_servers in 1usize..8, n_jobs in 1u64..300, seed in any::<u64>()) {
        let (cluster, completions) = run_random_workload(n_servers, n_jobs, seed, false);
        prop_assert_eq!(cluster.arrivals(), n_jobs);
        prop_assert_eq!(cluster.departures(), n_jobs);
        prop_assert_eq!(cluster.in_system(), 0);
        let mut ids: Vec<u64> = completions.iter().map(|&(id, _, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, n_jobs);
    }

    /// Response times are non-negative and at least the service demand
    /// (here: at least 0, and departures never precede arrivals).
    #[test]
    fn departures_follow_arrivals(n_servers in 1usize..8, n_jobs in 1u64..300, seed in any::<u64>()) {
        let (_, completions) = run_random_workload(n_servers, n_jobs, seed, false);
        for (_, arrival, departure) in completions {
            prop_assert!(departure >= arrival);
        }
    }

    /// Final loads are all zero and never went negative (u32 would panic).
    #[test]
    fn final_loads_zero(n_servers in 1usize..8, n_jobs in 1u64..200, seed in any::<u64>()) {
        let (cluster, _) = run_random_workload(n_servers, n_jobs, seed, false);
        prop_assert!(cluster.loads().iter().all(|&l| l == 0));
    }

    /// A cluster with an unbounded history window answers every past query
    /// exactly (no misses) and the t=+inf query matches the live loads.
    #[test]
    fn history_is_exact_with_unbounded_window(
        n_servers in 1usize..6,
        n_jobs in 1u64..200,
        seed in any::<u64>(),
        query in 0.0f64..50.0,
    ) {
        let (mut cluster, _) = run_random_workload(n_servers, n_jobs, seed, true);
        let mut out = Vec::new();
        cluster.loads_at(query, &mut out);
        prop_assert_eq!(out.len(), n_servers);
        cluster.loads_at(f64::MAX, &mut out);
        let live = cluster.loads().to_vec();
        prop_assert_eq!(out, live);
        prop_assert_eq!(cluster.history_misses(), 0);
    }
}
