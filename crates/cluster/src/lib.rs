//! FIFO multi-server queueing substrate.
//!
//! The paper's system model (§5) is a bank of `n` identical servers, each
//! with service rate 1 and a first-in-first-out queue. Arriving jobs are
//! routed to exactly one server by a selection policy and never migrate.
//!
//! This crate provides that substrate:
//!
//! * [`Cluster`] — the bank of servers with enqueue/complete transitions and
//!   an always-current load (queue length) vector.
//! * [`Job`] — a unit of work with its arrival time and service demand.
//! * [`LoadHistory`] — an optional log of load changes with periodic load
//!   snapshots, so the *continuous update* model of old information (§3.1)
//!   can answer "what did the queue lengths look like `d` time units ago?"
//!   exactly.
//!
//! The crate is deliberately policy-free: it neither samples randomness nor
//! decides placements. The driver in `staleload-core` owns the event loop.
//!
//! # Example
//!
//! ```
//! use staleload_cluster::{Cluster, Job};
//!
//! let mut cluster = Cluster::new(2);
//! // Job 0 finds server 0 idle and enters service immediately.
//! let dep = cluster.enqueue(0, Job::new(0, 0.0, 1.5), 0.0);
//! assert_eq!(dep, Some(1.5));
//! // Job 1 queues behind it; its departure is scheduled at completion time.
//! assert_eq!(cluster.enqueue(0, Job::new(1, 0.1, 1.0), 0.1), None);
//! assert_eq!(cluster.loads(), &[2, 0]);
//!
//! let (done, next) = cluster.complete(0, 1.5);
//! assert_eq!(done.id, 0);
//! assert_eq!(next, Some(2.5)); // job 1 now in service, finishes at 1.5 + 1.0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod history;
mod slab;

pub use history::LoadHistory;

use slab::{JobList, JobSlab};

/// Identifier of a server within a [`Cluster`] (a dense index in `0..n`).
pub type ServerId = usize;

/// Outcome of a cap-aware admission attempt (see [`Cluster::admit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// The target queue was at its cap; the job was not accepted and no
    /// arrival was counted.
    Rejected,
    /// Accepted, waiting behind other jobs (or queued on a down server).
    Queued,
    /// Accepted straight into service; departs at the given time.
    InService(f64),
}

/// A unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Arrival sequence number (unique per simulation).
    pub id: u64,
    /// Absolute arrival time.
    pub arrival: f64,
    /// Service demand in units of mean service time.
    pub service: f64,
}

impl Job {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics if `service` is negative or not finite — a malformed workload
    /// generator should fail loudly, not corrupt the simulation.
    pub fn new(id: u64, arrival: f64, service: f64) -> Self {
        assert!(
            service.is_finite() && service >= 0.0,
            "invalid service demand {service}"
        );
        Self {
            id,
            arrival,
            service,
        }
    }
}

/// One FIFO server: the front of the queue is the job in service.
///
/// The queue is an intrusive list into the cluster's shared [`JobSlab`],
/// so steady-state admit/complete churn allocates nothing.
#[derive(Debug, Clone, Default)]
struct Server {
    queue: JobList,
    completed: u64,
    busy_since: Option<f64>,
    busy_time: f64,
}

/// A bank of FIFO servers with unit service rate.
///
/// Load is defined exactly as in the paper: the queue length including the
/// job in service. The current load vector is maintained incrementally and
/// can be read in O(1) via [`Cluster::loads`].
#[derive(Debug, Clone)]
pub struct Cluster {
    servers: Vec<Server>,
    slab: JobSlab,
    loads: Vec<u32>,
    capacities: Vec<f64>,
    up: Vec<bool>,
    /// Whether each server's load reports currently reach the bulletin
    /// board (`false` while the server is partitioned away from the
    /// information plane). Unlike [`Cluster::is_up`] this is *pure
    /// information-plane* state: an invisible server keeps serving.
    visible: Vec<bool>,
    history: Option<LoadHistory>,
    arrivals: u64,
    departures: u64,
    queue_cap: Option<u32>,
}

impl Cluster {
    /// Creates a cluster of `n` idle servers with unit service rate.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a cluster needs at least one server");
        Self {
            servers: vec![Server::default(); n],
            slab: JobSlab::new(),
            loads: vec![0; n],
            capacities: vec![1.0; n],
            up: vec![true; n],
            visible: vec![true; n],
            history: None,
            arrivals: 0,
            departures: 0,
            queue_cap: None,
        }
    }

    /// Creates a *heterogeneous* cluster: server `i` processes work at rate
    /// `capacities[i]` (a job of service demand `s` occupies it for
    /// `s / capacities[i]`). This is the paper's §6 future-work setting.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or contains a non-positive or
    /// non-finite rate.
    pub fn with_capacities(capacities: &[f64]) -> Self {
        assert!(
            !capacities.is_empty(),
            "a cluster needs at least one server"
        );
        assert!(
            capacities.iter().all(|&c| c.is_finite() && c > 0.0),
            "capacities must be positive and finite"
        );
        let mut c = Self::new(capacities.len());
        c.capacities = capacities.to_vec();
        c
    }

    /// Creates a cluster that also records its load history.
    ///
    /// `keep_window` is how far back (in simulated time) queries must be
    /// answerable exactly; see [`LoadHistory`]. Only the continuous-update
    /// information model needs this.
    pub fn with_history(n: usize, keep_window: f64) -> Self {
        let mut c = Self::new(n);
        c.enable_history(keep_window);
        c
    }

    /// Turns on load-history recording (see [`Cluster::with_history`]).
    ///
    /// Must be called before any job is enqueued so the history is
    /// complete.
    ///
    /// # Panics
    ///
    /// Panics if jobs have already been processed.
    pub fn enable_history(&mut self, keep_window: f64) {
        assert_eq!(
            self.arrivals, 0,
            "history must be enabled before the first arrival"
        );
        self.history = Some(LoadHistory::new(self.servers.len(), keep_window));
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the cluster has no servers (never true; see [`Cluster::new`]).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Current load (queue length including the job in service) per server.
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// Current load of one server.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn load(&self, server: ServerId) -> u32 {
        self.loads[server]
    }

    /// Total jobs accepted so far.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Total jobs completed so far.
    pub fn departures(&self) -> u64 {
        self.departures
    }

    /// Jobs currently in the system (queued or in service).
    pub fn in_system(&self) -> u64 {
        self.arrivals - self.departures
    }

    /// Places `job` on `server` at time `now`.
    ///
    /// Returns `Some(departure_time)` if the job goes straight into service
    /// (the server was idle), so the caller can schedule its departure;
    /// returns `None` if the job queued behind others (its departure will be
    /// returned by a later [`Cluster::complete`]).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn enqueue(&mut self, server: ServerId, job: Job, now: f64) -> Option<f64> {
        self.arrivals += 1;
        self.place(server, job, now)
    }

    /// Sets (or clears) the per-server queue cap enforced by
    /// [`Cluster::admit`]: the maximum load, counting the job in service,
    /// a server will accept a *new arrival* at. Migrations via
    /// [`Cluster::requeue`] (work stealing, crash re-dispatch) are exempt
    /// — they move jobs already admitted to the system.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is `Some(0)`: a zero cap would reject every job.
    pub fn set_queue_cap(&mut self, cap: Option<u32>) {
        assert!(cap != Some(0), "queue cap must be at least 1");
        self.queue_cap = cap;
    }

    /// The queue cap enforced by [`Cluster::admit`], if any.
    pub fn queue_cap(&self) -> Option<u32> {
        self.queue_cap
    }

    /// Cap-aware admission: like [`Cluster::enqueue`] but bounces the job
    /// when `server`'s queue is at the cap set via
    /// [`Cluster::set_queue_cap`]. A rejected job never enters the system
    /// (no arrival is counted); the caller decides whether it retries or
    /// is lost.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn admit(&mut self, server: ServerId, job: Job, now: f64) -> Admission {
        if let Some(cap) = self.queue_cap {
            if self.loads[server] >= cap {
                return Admission::Rejected;
            }
        }
        match self.enqueue(server, job, now) {
            Some(dep) => Admission::InService(dep),
            None => Admission::Queued,
        }
    }

    /// Removes a *waiting* job by id from `server`'s queue at time `now`
    /// (deadline reneging). The job leaves the system — it counts as a
    /// departure but not a completion.
    ///
    /// `head_in_service` tells the cluster whether the queue head is
    /// currently being served (the cluster itself does not track remaining
    /// work): when `true` the head cannot renege, only jobs behind it can.
    /// Returns the removed job, or `None` if no waiting job with that id
    /// is present (already completed, already in service, or migrated
    /// elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn renege_waiting(
        &mut self,
        server: ServerId,
        job_id: u64,
        now: f64,
        head_in_service: bool,
    ) -> Option<Job> {
        let first_waiting = usize::from(head_in_service);
        let s = &mut self.servers[server];
        let job = s
            .queue
            .remove_by_id(&mut self.slab, job_id, first_waiting)?;
        self.loads[server] -= 1;
        self.departures += 1;
        if let Some(h) = &mut self.history {
            h.record(server, now, self.loads[server]);
        }
        Some(job)
    }

    /// Places `job` on `server` without counting a new arrival — for jobs
    /// *migrating* within the system (work stealing, crash re-dispatch).
    ///
    /// Same contract as [`Cluster::enqueue`] otherwise: returns the
    /// departure time if the job enters service immediately.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn requeue(&mut self, server: ServerId, job: Job, now: f64) -> Option<f64> {
        self.place(server, job, now)
    }

    fn place(&mut self, server: ServerId, job: Job, now: f64) -> Option<f64> {
        let capacity = self.capacities[server];
        let up = self.up[server];
        let s = &mut self.servers[server];
        // A job only enters service on an up, idle server; a down server
        // queues it for its recovery.
        let starts = up && s.queue.is_empty();
        if starts {
            s.busy_since = Some(now);
        }
        s.queue.push_back(&mut self.slab, job);
        self.loads[server] += 1;
        if let Some(h) = &mut self.history {
            h.record(server, now, self.loads[server]);
        }
        starts.then_some(now + job.service / capacity)
    }

    /// Completes the in-service job on `server` at time `now`.
    ///
    /// Returns the finished job and, if another job was waiting,
    /// `Some(departure_time)` of the job now entering service.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range or idle — completing a job on an
    /// idle server indicates a corrupted event schedule.
    pub fn complete(&mut self, server: ServerId, now: f64) -> (Job, Option<f64>) {
        debug_assert!(self.up[server], "a down server cannot complete a job");
        let s = &mut self.servers[server];
        let done = s
            .queue
            .pop_front(&mut self.slab)
            // lint: allow(panic-hygiene) — documented panicking API: completing an idle server is a corrupted schedule
            .expect("complete() on an idle server");
        s.completed += 1;
        self.loads[server] -= 1;
        self.departures += 1;
        if let Some(h) = &mut self.history {
            h.record(server, now, self.loads[server]);
        }
        let capacity = self.capacities[server];
        let s = &mut self.servers[server];
        let next = s
            .queue
            .front(&self.slab)
            .map(|j| now + j.service / capacity);
        if next.is_none() {
            if let Some(since) = s.busy_since.take() {
                s.busy_time += now - since;
            }
        }
        (done, next)
    }

    /// Jobs completed by one server.
    pub fn completed(&self, server: ServerId) -> u64 {
        self.servers[server].completed
    }

    /// Cumulative busy time of one server over completed busy periods.
    ///
    /// Useful for utilization checks in tests; excludes any in-progress busy
    /// period.
    pub fn busy_time(&self, server: ServerId) -> f64 {
        self.servers[server].busy_time
    }

    /// Fills `out` with the load vector as of time `at`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster was not created with
    /// [`Cluster::with_history`].
    pub fn loads_at(&mut self, at: f64, out: &mut Vec<u32>) {
        let h = self
            .history
            .as_mut()
            // lint: allow(panic-hygiene) — documented panicking API: the caller must enable history first
            .expect("loads_at() requires a cluster built with_history()");
        h.fill_loads_at(at, out);
    }

    /// Number of history queries that fell before the retained window and
    /// were answered with the oldest retained entry (0 when exact).
    pub fn history_misses(&self) -> u64 {
        self.history.as_ref().map_or(0, LoadHistory::misses)
    }

    /// Per-server service rates (all 1.0 for a homogeneous cluster).
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Whether `server` is up (servers only go down under fault
    /// injection).
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn is_up(&self, server: ServerId) -> bool {
        self.up[server]
    }

    /// Number of servers currently up.
    pub fn up_count(&self) -> usize {
        self.up.iter().filter(|&&u| u).count()
    }

    /// Whether `server`'s load reports currently reach the bulletin board
    /// (always true outside partition fault injection). An invisible
    /// server keeps serving — only its *reports* are lost, so the board
    /// models skip its refresh and its entry decays in place.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn is_visible(&self, server: ServerId) -> bool {
        self.visible[server]
    }

    /// Each server's load as a board refresh samples it, in server
    /// order: `None` for a server whose report cannot reach the board
    /// because it is down or partitioned away.
    #[inline]
    pub fn reports(&self) -> impl Iterator<Item = Option<u32>> + '_ {
        self.loads
            .iter()
            .zip(&self.up)
            .zip(&self.visible)
            .map(|((&load, &up), &visible)| (up && visible).then_some(load))
    }

    /// Marks `server` as (in)visible to the information plane (partition
    /// fault injection). Idempotent: partitioning an already-invisible
    /// server is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn set_visible(&mut self, server: ServerId, visible: bool) {
        self.visible[server] = visible;
    }

    /// Id of the job at the head of `server`'s queue (the job in service
    /// when the server is up and busy), if any.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn head_job_id(&self, server: ServerId) -> Option<u64> {
        self.servers[server].queue.front(&self.slab).map(|j| j.id)
    }

    /// Removes a *waiting* replica by id from `server`'s queue at time
    /// `now` (hedge cancellation). Unlike [`Cluster::renege_waiting`] the
    /// job does *not* count as a departure: a cancelled hedge replica was
    /// never an arrival (it was placed with [`Cluster::requeue`]), so
    /// removing it must not touch the conservation counters.
    ///
    /// Same head semantics as reneging: when `head_in_service` is true the
    /// queue head is being served and only jobs behind it are eligible.
    /// Returns the removed job, or `None` if no waiting job with that id
    /// is present.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn cancel_waiting(
        &mut self,
        server: ServerId,
        job_id: u64,
        now: f64,
        head_in_service: bool,
    ) -> Option<Job> {
        let first_waiting = usize::from(head_in_service);
        let s = &mut self.servers[server];
        let job = s
            .queue
            .remove_by_id(&mut self.slab, job_id, first_waiting)?;
        self.loads[server] -= 1;
        if let Some(h) = &mut self.history {
            h.record(server, now, self.loads[server]);
        }
        Some(job)
    }

    /// Aborts the *in-service* job on `server` at time `now` (hedge
    /// cancellation of a replica that already entered service). The job
    /// vanishes without counting as a completion or departure; if another
    /// job was waiting it enters service and its departure time is
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range, down, or idle — aborting
    /// service on a server that isn't serving indicates a corrupted hedge
    /// book.
    pub fn abort_in_service(&mut self, server: ServerId, now: f64) -> Option<f64> {
        assert!(self.up[server], "abort_in_service() on a down server");
        let s = &mut self.servers[server];
        let _gone = s
            .queue
            .pop_front(&mut self.slab)
            // lint: allow(panic-hygiene) — documented panicking API: aborting an idle server is a corrupted hedge book
            .expect("abort_in_service() on an idle server");
        self.loads[server] -= 1;
        if let Some(h) = &mut self.history {
            h.record(server, now, self.loads[server]);
        }
        let capacity = self.capacities[server];
        let s = &mut self.servers[server];
        let next = s
            .queue
            .front(&self.slab)
            .map(|j| now + j.service / capacity);
        if next.is_none() {
            if let Some(since) = s.busy_since.take() {
                s.busy_time += now - since;
            }
        }
        next
    }

    /// Takes `server` down at time `now` (fault injection).
    ///
    /// Service stops immediately: the in-service job keeps its place at
    /// the head of the queue (the caller tracks its remaining work), and
    /// the server's busy period is closed for utilization accounting.
    /// Queued jobs stay put unless the caller drains them with
    /// [`Cluster::drain`].
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range or already down.
    pub fn crash(&mut self, server: ServerId, now: f64) {
        assert!(self.up[server], "crash() on a server that is already down");
        self.up[server] = false;
        let s = &mut self.servers[server];
        if let Some(since) = s.busy_since.take() {
            s.busy_time += now - since;
        }
    }

    /// Removes and returns every job queued on a *down* server
    /// (crash re-dispatch mode), head first.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range or still up.
    pub fn drain(&mut self, server: ServerId, now: f64) -> Vec<Job> {
        assert!(!self.up[server], "drain() is only for crashed servers");
        let s = &mut self.servers[server];
        let mut jobs = Vec::with_capacity(s.queue.len());
        s.queue.drain_into(&mut self.slab, &mut jobs);
        self.loads[server] = 0;
        if let Some(h) = &mut self.history {
            h.record(server, now, 0);
        }
        jobs
    }

    /// Brings `server` back up at time `now`.
    ///
    /// If jobs are waiting, the head re-enters service: it completes after
    /// `frozen_remaining` if given (the wall-clock work it had left when
    /// the crash interrupted it), otherwise after its full service demand.
    /// Returns the departure time to schedule, or `None` if the server
    /// comes back idle.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range or already up.
    pub fn recover(
        &mut self,
        server: ServerId,
        now: f64,
        frozen_remaining: Option<f64>,
    ) -> Option<f64> {
        assert!(!self.up[server], "recover() on a server that is already up");
        self.up[server] = true;
        let capacity = self.capacities[server];
        let s = &mut self.servers[server];
        let head = s.queue.front(&self.slab)?;
        s.busy_since = Some(now);
        Some(now + frozen_remaining.unwrap_or(head.service / capacity))
    }

    /// Receiver-driven rebalancing (paper §2, option 3 — future work we
    /// implement as an extension): the idle server `thief` pulls the most
    /// recently queued *waiting* job from the server with the longest
    /// queue, if any server has at least `min_victim_load` jobs.
    ///
    /// Returns the stolen job's departure time on the thief (which starts
    /// serving it immediately), or `None` if no job was worth stealing.
    ///
    /// # Panics
    ///
    /// Panics if `thief` is out of range or not idle.
    pub fn steal_for_idle(
        &mut self,
        thief: ServerId,
        now: f64,
        min_victim_load: u32,
    ) -> Option<f64> {
        assert!(self.loads[thief] == 0, "only an idle server may steal");
        assert!(self.up[thief], "a down server cannot steal");
        let Some((victim, &load)) = self.loads.iter().enumerate().max_by_key(|&(_, &l)| l) else {
            return None; // zero-server cluster: nothing to steal
        };
        if victim == thief || load < min_victim_load.max(2) {
            return None;
        }
        let Some(job) = self.servers[victim].queue.pop_back(&mut self.slab) else {
            return None; // victim drained between the load read and the pop
        };
        self.loads[victim] -= 1;
        if let Some(h) = &mut self.history {
            h.record(victim, now, self.loads[victim]);
        }
        // Via requeue(), not enqueue(): a migration is not a new arrival.
        self.requeue(thief, job, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_serves_immediately() {
        let mut c = Cluster::new(3);
        assert_eq!(c.enqueue(1, Job::new(0, 0.0, 2.0), 0.0), Some(2.0));
        assert_eq!(c.loads(), &[0, 1, 0]);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut c = Cluster::new(1);
        c.enqueue(0, Job::new(0, 0.0, 1.0), 0.0);
        c.enqueue(0, Job::new(1, 0.1, 1.0), 0.1);
        c.enqueue(0, Job::new(2, 0.2, 1.0), 0.2);
        let (j0, n0) = c.complete(0, 1.0);
        assert_eq!(j0.id, 0);
        assert_eq!(n0, Some(2.0));
        let (j1, n1) = c.complete(0, 2.0);
        assert_eq!(j1.id, 1);
        assert_eq!(n1, Some(3.0));
        let (j2, n2) = c.complete(0, 3.0);
        assert_eq!(j2.id, 2);
        assert_eq!(n2, None);
    }

    #[test]
    fn conservation_counters() {
        let mut c = Cluster::new(2);
        for i in 0..5 {
            c.enqueue(
                (i % 2) as usize,
                Job::new(i, i as f64 * 0.1, 1.0),
                i as f64 * 0.1,
            );
        }
        assert_eq!(c.arrivals(), 5);
        assert_eq!(c.in_system(), 5);
        c.complete(0, 1.0);
        c.complete(1, 1.1);
        assert_eq!(c.departures(), 2);
        assert_eq!(c.in_system(), 3);
    }

    #[test]
    #[should_panic(expected = "idle server")]
    fn complete_on_idle_panics() {
        let mut c = Cluster::new(1);
        c.complete(0, 1.0);
    }

    #[test]
    fn busy_time_accounting() {
        let mut c = Cluster::new(1);
        c.enqueue(0, Job::new(0, 0.0, 2.0), 0.0);
        c.complete(0, 2.0);
        assert!((c.busy_time(0) - 2.0).abs() < 1e-12);
        // A gap, then another busy period.
        c.enqueue(0, Job::new(1, 5.0, 1.0), 5.0);
        c.complete(0, 6.0);
        assert!((c.busy_time(0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_service_job_departs_immediately() {
        let mut c = Cluster::new(1);
        assert_eq!(c.enqueue(0, Job::new(0, 1.0, 0.0), 1.0), Some(1.0));
        let (j, next) = c.complete(0, 1.0);
        assert_eq!(j.id, 0);
        assert_eq!(next, None);
        assert_eq!(c.load(0), 0);
    }

    #[test]
    fn historical_loads_reflect_past_state() {
        let mut c = Cluster::with_history(2, 100.0);
        c.enqueue(0, Job::new(0, 1.0, 10.0), 1.0);
        c.enqueue(0, Job::new(1, 2.0, 10.0), 2.0);
        c.enqueue(1, Job::new(2, 3.0, 10.0), 3.0);
        let mut out = Vec::new();
        c.loads_at(0.5, &mut out);
        assert_eq!(out, &[0, 0]);
        c.loads_at(1.5, &mut out);
        assert_eq!(out, &[1, 0]);
        c.loads_at(2.5, &mut out);
        assert_eq!(out, &[2, 0]);
        c.loads_at(3.5, &mut out);
        assert_eq!(out, &[2, 1]);
        assert_eq!(c.history_misses(), 0);
    }

    #[test]
    fn heterogeneous_capacity_scales_service() {
        let mut c = Cluster::with_capacities(&[2.0, 0.5]);
        // Demand 1 takes 0.5 on the fast server, 2.0 on the slow one.
        assert_eq!(c.enqueue(0, Job::new(0, 0.0, 1.0), 0.0), Some(0.5));
        assert_eq!(c.enqueue(1, Job::new(1, 0.0, 1.0), 0.0), Some(2.0));
        // Queued job inherits the serving server's rate on promotion.
        c.enqueue(0, Job::new(2, 0.1, 1.0), 0.1);
        let (_, next) = c.complete(0, 0.5);
        assert_eq!(next, Some(1.0));
        assert_eq!(c.capacities(), &[2.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = Cluster::with_capacities(&[1.0, 0.0]);
    }

    #[test]
    fn stealing_moves_last_waiting_job() {
        let mut c = Cluster::new(2);
        c.enqueue(0, Job::new(0, 0.0, 5.0), 0.0);
        c.enqueue(0, Job::new(1, 0.1, 1.0), 0.1);
        c.enqueue(0, Job::new(2, 0.2, 2.0), 0.2);
        // Server 1 is idle and steals job 2 (the tail of server 0's queue).
        let dep = c.steal_for_idle(1, 1.0, 2);
        assert_eq!(dep, Some(3.0));
        assert_eq!(c.loads(), &[2, 1]);
        let (job, _) = c.complete(1, 3.0);
        assert_eq!(job.id, 2);
        // Conservation: migration is not an arrival.
        assert_eq!(c.arrivals(), 3);
    }

    #[test]
    fn stealing_respects_min_victim_load() {
        let mut c = Cluster::new(2);
        c.enqueue(0, Job::new(0, 0.0, 5.0), 0.0);
        // Only one job (in service): nothing to steal.
        assert_eq!(c.steal_for_idle(1, 1.0, 2), None);
        c.enqueue(0, Job::new(1, 0.1, 1.0), 0.1);
        // Two jobs but the threshold demands 3.
        assert_eq!(c.steal_for_idle(1, 1.0, 3), None);
        assert!(c.steal_for_idle(1, 1.0, 2).is_some());
    }

    #[test]
    #[should_panic(expected = "idle")]
    fn busy_server_cannot_steal() {
        let mut c = Cluster::new(2);
        c.enqueue(0, Job::new(0, 0.0, 5.0), 0.0);
        c.enqueue(1, Job::new(1, 0.0, 5.0), 0.0);
        let _ = c.steal_for_idle(1, 1.0, 2);
    }

    #[test]
    #[should_panic(expected = "with_history")]
    fn loads_at_without_history_panics() {
        let mut c = Cluster::new(1);
        let mut out = Vec::new();
        c.loads_at(0.0, &mut out);
    }

    #[test]
    fn crash_freezes_service_and_recover_resumes() {
        let mut c = Cluster::new(2);
        // Job of demand 4 starts at t=0, would finish at t=4.
        assert_eq!(c.enqueue(0, Job::new(0, 0.0, 4.0), 0.0), Some(4.0));
        c.enqueue(0, Job::new(1, 0.5, 1.0), 0.5);
        assert!(c.is_up(1));
        c.crash(0, 1.0);
        assert!(!c.is_up(0));
        assert_eq!(c.up_count(), 1);
        // Busy period closed at the crash: 1.0 of busy time so far.
        assert!((c.busy_time(0) - 1.0).abs() < 1e-12);
        // Loads are untouched: the jobs still occupy the queue.
        assert_eq!(c.loads(), &[2, 0]);
        // Recovery at t=10 resumes the head with its remaining 3.0.
        let dep = c.recover(0, 10.0, Some(3.0));
        assert_eq!(dep, Some(13.0));
        let (j, next) = c.complete(0, 13.0);
        assert_eq!(j.id, 0);
        assert_eq!(next, Some(14.0));
    }

    #[test]
    fn down_server_queues_without_serving() {
        let mut c = Cluster::new(1);
        c.crash(0, 0.0);
        // An idle but down server must not start service.
        assert_eq!(c.enqueue(0, Job::new(0, 1.0, 2.0), 1.0), None);
        assert_eq!(c.loads(), &[1]);
        // It comes back with a never-started head: full demand from now.
        assert_eq!(c.recover(0, 5.0, None), Some(7.0));
    }

    #[test]
    fn recover_on_empty_queue_returns_none() {
        let mut c = Cluster::new(1);
        c.crash(0, 0.0);
        assert_eq!(c.recover(0, 1.0, None), None);
        assert!(c.is_up(0));
    }

    #[test]
    fn drain_empties_a_crashed_server() {
        let mut c = Cluster::new(2);
        c.enqueue(0, Job::new(0, 0.0, 5.0), 0.0);
        c.enqueue(0, Job::new(1, 0.1, 1.0), 0.1);
        c.enqueue(0, Job::new(2, 0.2, 2.0), 0.2);
        c.crash(0, 1.0);
        let jobs = c.drain(0, 1.0);
        assert_eq!(jobs.iter().map(|j| j.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(c.loads(), &[0, 0]);
        // The displaced jobs migrate without counting as arrivals.
        for job in jobs {
            c.requeue(1, job, 1.0);
        }
        assert_eq!(c.arrivals(), 3);
        assert_eq!(c.loads(), &[0, 3]);
        assert_eq!(c.in_system(), 3);
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_crash_panics() {
        let mut c = Cluster::new(1);
        c.crash(0, 0.0);
        c.crash(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "already up")]
    fn recover_up_server_panics() {
        let mut c = Cluster::new(1);
        c.recover(0, 0.0, None);
    }

    #[test]
    fn admit_respects_queue_cap() {
        let mut c = Cluster::new(2);
        c.set_queue_cap(Some(2));
        assert_eq!(c.queue_cap(), Some(2));
        assert_eq!(
            c.admit(0, Job::new(0, 0.0, 5.0), 0.0),
            Admission::InService(5.0)
        );
        assert_eq!(c.admit(0, Job::new(1, 0.1, 1.0), 0.1), Admission::Queued);
        // Load 2 == cap: full.
        assert_eq!(c.admit(0, Job::new(2, 0.2, 1.0), 0.2), Admission::Rejected);
        // The other server still has room.
        assert_eq!(
            c.admit(1, Job::new(2, 0.2, 1.0), 0.2),
            Admission::InService(1.2)
        );
        // Rejected jobs never counted as arrivals.
        assert_eq!(c.arrivals(), 3);
        // A completion frees a slot.
        c.complete(0, 5.0);
        assert_eq!(c.admit(0, Job::new(3, 5.0, 1.0), 5.0), Admission::Queued);
    }

    #[test]
    fn admit_without_cap_is_enqueue() {
        let mut c = Cluster::new(1);
        for i in 0..10 {
            assert_ne!(c.admit(0, Job::new(i, 0.0, 1.0), 0.0), Admission::Rejected);
        }
        assert_eq!(c.arrivals(), 10);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_queue_cap_panics() {
        let mut c = Cluster::new(1);
        c.set_queue_cap(Some(0));
    }

    #[test]
    fn renege_removes_waiting_job_only() {
        let mut c = Cluster::new(1);
        c.enqueue(0, Job::new(0, 0.0, 5.0), 0.0);
        c.enqueue(0, Job::new(1, 0.1, 1.0), 0.1);
        c.enqueue(0, Job::new(2, 0.2, 2.0), 0.2);
        // Job 0 is in service: it cannot renege.
        assert_eq!(c.renege_waiting(0, 0, 1.0, true), None);
        // Job 1 waits and can.
        let gone = c.renege_waiting(0, 1, 1.0, true).expect("job 1 waits");
        assert_eq!(gone.id, 1);
        assert_eq!(c.loads(), &[2]);
        assert_eq!(c.departures(), 1);
        assert_eq!(c.in_system(), 2);
        // FIFO order of the remainder is intact: 0 then 2.
        let (j, next) = c.complete(0, 5.0);
        assert_eq!(j.id, 0);
        assert_eq!(next, Some(7.0));
        let (j, _) = c.complete(0, 7.0);
        assert_eq!(j.id, 2);
    }

    #[test]
    fn renege_on_down_server_head() {
        let mut c = Cluster::new(1);
        c.crash(0, 0.0);
        c.enqueue(0, Job::new(0, 1.0, 2.0), 1.0);
        // Down server: the head never started service, so it may renege.
        let gone = c.renege_waiting(0, 0, 3.0, false).expect("head waits");
        assert_eq!(gone.id, 0);
        assert_eq!(c.loads(), &[0]);
        assert_eq!(c.recover(0, 5.0, None), None);
    }

    #[test]
    fn renege_missing_job_is_none() {
        let mut c = Cluster::new(1);
        c.enqueue(0, Job::new(0, 0.0, 5.0), 0.0);
        assert_eq!(c.renege_waiting(0, 42, 1.0, true), None);
        assert_eq!(c.departures(), 0);
    }

    #[test]
    fn visibility_is_information_plane_only() {
        let mut c = Cluster::new(2);
        assert!(c.is_visible(0) && c.is_visible(1));
        c.set_visible(1, false);
        assert!(!c.is_visible(1));
        assert!(c.is_up(1), "partition does not take the server down");
        // The invisible server still serves jobs.
        assert_eq!(c.enqueue(1, Job::new(0, 0.0, 2.0), 0.0), Some(2.0));
        c.set_visible(1, true);
        assert!(c.is_visible(1));
    }

    #[test]
    fn head_job_id_tracks_the_queue_head() {
        let mut c = Cluster::new(1);
        assert_eq!(c.head_job_id(0), None);
        c.enqueue(0, Job::new(7, 0.0, 1.0), 0.0);
        c.enqueue(0, Job::new(8, 0.1, 1.0), 0.1);
        assert_eq!(c.head_job_id(0), Some(7));
        c.complete(0, 1.0);
        assert_eq!(c.head_job_id(0), Some(8));
    }

    #[test]
    fn cancel_waiting_does_not_count_a_departure() {
        let mut c = Cluster::new(1);
        c.enqueue(0, Job::new(0, 0.0, 5.0), 0.0);
        // A hedge replica migrates in via requeue (no arrival count)...
        c.requeue(0, Job::new(1, 0.1, 1.0), 0.1);
        assert_eq!(c.arrivals(), 1);
        assert_eq!(c.loads(), &[2]);
        // ...and is cancelled without touching the conservation counters.
        let gone = c.cancel_waiting(0, 1, 1.0, true).expect("replica waits");
        assert_eq!(gone.id, 1);
        assert_eq!(c.loads(), &[1]);
        assert_eq!(c.departures(), 0);
        assert_eq!(c.in_system(), 1);
        // The in-service head is not eligible.
        assert_eq!(c.cancel_waiting(0, 0, 1.0, true), None);
    }

    #[test]
    fn abort_in_service_promotes_the_next_job() {
        let mut c = Cluster::new(1);
        c.enqueue(0, Job::new(0, 0.0, 5.0), 0.0);
        c.requeue(0, Job::new(1, 0.1, 2.0), 0.1);
        // Aborting the serving replica promotes job 1 with its full demand.
        let next = c.abort_in_service(0, 1.0);
        assert_eq!(next, Some(3.0));
        assert_eq!(c.loads(), &[1]);
        assert_eq!(c.departures(), 0);
        assert_eq!(c.completed(0), 0);
        let (j, next) = c.complete(0, 3.0);
        assert_eq!(j.id, 1);
        assert_eq!(next, None);
    }

    #[test]
    fn abort_in_service_on_emptied_server_closes_busy_period() {
        let mut c = Cluster::new(1);
        c.enqueue(0, Job::new(0, 0.0, 4.0), 0.0);
        assert_eq!(c.abort_in_service(0, 1.0), None);
        assert_eq!(c.loads(), &[0]);
        assert!((c.busy_time(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "idle server")]
    fn abort_in_service_on_idle_panics() {
        let mut c = Cluster::new(1);
        c.abort_in_service(0, 1.0);
    }
}
