//! Server-selection policies for load balancing with stale information.
//!
//! This crate implements every algorithm evaluated in Dahlin's *Interpreting
//! Stale Load Information* (ICDCS 1999 / TPDS 2000), plus a few extensions:
//!
//! | Policy | Paper | Idea |
//! |---|---|---|
//! | [`Random`] | §2 | Ignore load information entirely (uniform). |
//! | [`KSubset`] | §2 (Mitzenmacher) | Least loaded of a random `k`-subset. |
//! | [`Greedy`] | §1 | Least loaded of all servers (`k = n`). |
//! | [`Threshold`] | §5.1 | Random among servers reporting load ≤ threshold. |
//! | [`BasicLi`] | §4.1, Eqs. 2–4 | Route with probabilities that equalize queues by the end of the information epoch. |
//! | [`AggressiveLi`] | §4.1.1, Eq. 5 | Subdivide the epoch and level queues as early as possible. |
//! | [`HybridLi`] | §4.1.1 | Two subintervals: fill to the maximum, then uniform. |
//! | [`LiSubset`] | §5.7 | Basic LI restricted to a random `k`-subset. |
//! | [`WeightedDecay`] | §2 (Smart Clients) | Ad-hoc age-decayed inverse-load weighting (baseline extension). |
//! | [`AdaptiveLi`] | §5.6 (extension) | Basic LI with λ̂ estimated online (EWMA) instead of configured. |
//! | [`HeteroLi`] | §6 (extension) | Capacity-aware LI for heterogeneous servers. |
//! | [`ProbeThreshold`] | refs. \[17\]/\[25\] (extension) | Eager–Lazowska–Zahorjan bounded probing. |
//! | [`Sita`] | ref. \[12\] (extension) | Size-based task assignment (SITA-E), load-info-free. |
//!
//! Policies are pure decision procedures: they see a [`LoadView`] — the
//! reported per-server loads plus *how old* that report is — and pick a
//! server. They own no simulation state, which makes them testable in
//! isolation and reusable outside the simulator.
//!
//! # Example
//!
//! ```
//! use staleload_policies::{BasicLi, InfoAge, LoadView, Policy, Random};
//! use staleload_sim::SimRng;
//!
//! let mut rng = SimRng::from_seed(1);
//! let loads = [9, 0, 3, 3];
//! let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 0.5 }, ages: None };
//!
//! // Fresh-ish information: Basic LI concentrates on the short queues.
//! let mut li = BasicLi::new(0.9);
//! let pick = li.select(&view, &mut rng);
//! assert_ne!(pick, 0, "the longest queue never receives the job here");
//!
//! // The oblivious policy may pick anyone.
//! let pick = Random.select(&view, &mut rng);
//! assert!(pick < 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decay;
mod dispatch;
mod guard;
mod hetero;
mod ksubset;
mod li;
mod li_policies;
mod li_subset;
mod quarantine;
mod random;
mod sita;
mod spec;
mod staleness;
mod threshold;

pub use decay::WeightedDecay;
pub use dispatch::DispatchPolicy;
pub use guard::HerdGuard;
pub use hetero::HeteroLi;
pub use ksubset::{empirical_rank_frequencies, rank_distribution, Greedy, KSubset};
pub use li::{
    aggressive_schedule, basic_li_probabilities, AggressiveSchedule, LoadCounts, WaterLine,
};
pub use li_policies::{AdaptiveLi, AggressiveLi, BasicLi, HybridLi};
pub use li_subset::LiSubset;
pub use quarantine::Quarantine;
pub use random::Random;
pub use sita::Sita;
pub use spec::PolicySpec;
pub use staleness::StalenessGate;
pub use threshold::{ProbeThreshold, Threshold};

use staleload_sim::SimRng;

/// A reported queue length.
pub type Load = u32;

/// How old the loads in a [`LoadView`] are, and in what sense.
///
/// The two variants correspond to the paper's information models:
/// a *periodic* bulletin board gives phase context (loads were exact at the
/// phase start), while the *continuous* and *update-on-access* models give a
/// scalar age per request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InfoAge {
    /// Loads were sampled at `start`; boards refresh every `length`; the
    /// request is being placed at `now`. `epoch` increments with each
    /// refresh so policies can cache per-phase work.
    Phase {
        /// Absolute time the board was last refreshed.
        start: f64,
        /// Refresh period `T`.
        length: f64,
        /// Absolute time of the decision.
        now: f64,
        /// Monotone refresh counter (cache key).
        epoch: u64,
    },
    /// Loads reflect the system state `age` time units ago.
    ///
    /// Under the continuous model this is either the *actual* per-request
    /// delay (Fig. 7) or the configured *mean* delay (Fig. 6), whichever the
    /// experiment grants the client.
    Aged {
        /// Age of the information in mean-service-time units.
        age: f64,
    },
}

impl InfoAge {
    /// The effective age the LI algorithms should interpret against:
    /// the full phase length under the periodic model (Basic LI plans for
    /// the whole epoch), or the scalar age otherwise.
    pub fn horizon(&self) -> f64 {
        match *self {
            InfoAge::Phase { length, .. } => length,
            InfoAge::Aged { age } => age,
        }
    }

    /// Time elapsed since the information was sampled.
    pub fn elapsed(&self) -> f64 {
        match *self {
            InfoAge::Phase { start, now, .. } => (now - start).max(0.0),
            InfoAge::Aged { age } => age,
        }
    }
}

/// A snapshot of (possibly stale) per-server load information.
#[derive(Debug, Clone, Copy)]
pub struct LoadView<'a> {
    /// Reported queue length per server (index = server id).
    pub loads: &'a [Load],
    /// Age/phase context for the report.
    pub info: InfoAge,
    /// Per-server age of each entry, when entries age independently
    /// (bulletin boards under fault injection: dropped/delayed refreshes
    /// and crashed servers leave entries stale past what `info`
    /// advertises), computed only for the entries a policy reads. `None`
    /// means every entry is as old as `info` says — the paper's
    /// fault-free setting.
    pub ages: Option<EntryAges<'a>>,
}

impl<'a> LoadView<'a> {
    /// A view whose entries all share the age context of `info` (the
    /// fault-free case).
    pub fn uniform(loads: &'a [Load], info: InfoAge) -> Self {
        Self {
            loads,
            info,
            ages: None,
        }
    }

    /// The age of one entry: its individual age when tracked, otherwise
    /// the view-wide elapsed time.
    pub fn entry_age(&self, server: usize) -> f64 {
        match self.ages {
            Some(ages) => ages.get(server),
            None => self.info.elapsed(),
        }
    }
}

/// The per-entry ages of a board view, read one entry at a time from when
/// each entry was sampled.
///
/// A board hands out its sample times and the decision time rather than a
/// filled table of ages, so producing a view does no per-server work and a
/// policy pays only for the entries it reads (most read none).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryAges<'a> {
    /// When each entry's current value was sampled (index = server id).
    pub sampled: &'a [f64],
    /// The decision time the ages are measured at.
    pub now: f64,
}

impl EntryAges<'_> {
    /// The age of entry `server` at `now`; never negative.
    #[inline]
    pub fn get(&self, server: usize) -> f64 {
        (self.now - self.sampled[server]).max(0.0)
    }
}

/// Robustness counters reported by defensive policy wrappers
/// ([`Quarantine`] today); all zero for plain policies.
///
/// Wrappers that hold an inner policy must *merge* the inner policy's
/// telemetry into their own so counters survive arbitrary composition
/// (e.g. a quarantined policy inside a herd guard).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTelemetry {
    /// Servers ejected from the candidate set on suspicion.
    pub ejections: u64,
    /// Ejected servers readmitted after a successful probe.
    pub readmissions: u64,
}

impl PolicyTelemetry {
    /// Component-wise sum of two telemetry reports.
    pub fn merge(self, other: Self) -> Self {
        Self {
            ejections: self.ejections + other.ejections,
            readmissions: self.readmissions + other.readmissions,
        }
    }
}

/// A server-selection policy.
///
/// Implementations may keep internal scratch buffers and per-phase caches
/// (hence `&mut self`), but must not retain references into the view.
pub trait Policy {
    /// Chooses the server for one arriving job.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `view.loads` is empty.
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize;

    /// Chooses the server for an arriving job whose service demand is
    /// known to the dispatcher.
    ///
    /// Defaults to [`Policy::select`] (load-based policies are size-blind);
    /// size-based assignment ([`Sita`]) overrides it. The simulation driver
    /// always calls this entry point.
    fn select_sized(&mut self, view: &LoadView<'_>, size: f64, rng: &mut SimRng) -> usize {
        let _ = size;
        self.select(view, rng)
    }

    /// Notifies the policy that a job arrived at absolute time `now`
    /// (called once per arrival, before [`Policy::select`]).
    ///
    /// Most policies ignore this; [`AdaptiveLi`] uses it to estimate the
    /// arrival rate online instead of being told λ̂.
    fn observe_arrival(&mut self, now: f64) {
        let _ = now;
    }

    /// Robustness counters accumulated by this policy (and, for wrappers,
    /// everything it wraps). Plain policies report all zeros.
    fn telemetry(&self) -> PolicyTelemetry {
        PolicyTelemetry::default()
    }
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        (**self).select(view, rng)
    }

    fn select_sized(&mut self, view: &LoadView<'_>, size: f64, rng: &mut SimRng) -> usize {
        (**self).select_sized(view, size, rng)
    }

    fn observe_arrival(&mut self, now: f64) {
        (**self).observe_arrival(now);
    }

    fn telemetry(&self) -> PolicyTelemetry {
        (**self).telemetry()
    }
}

/// Picks uniformly among the minimum-load servers (used by several policies
/// as a fresh-information fallback; random tie-breaking avoids herding on
/// the lowest index).
pub(crate) fn least_loaded(loads: &[Load], rng: &mut SimRng) -> usize {
    debug_assert!(!loads.is_empty());
    let min = *loads.iter().min().expect("non-empty loads");
    let ties = loads.iter().filter(|&&l| l == min).count();
    let mut pick = rng.index(ties);
    for (i, &l) in loads.iter().enumerate() {
        if l == min {
            if pick == 0 {
                return i;
            }
            pick -= 1;
        }
    }
    unreachable!("tie counting is exhaustive")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_prefers_minimum() {
        let mut rng = SimRng::from_seed(1);
        assert_eq!(least_loaded(&[3, 1, 2], &mut rng), 1);
    }

    #[test]
    fn least_loaded_breaks_ties_randomly() {
        let mut rng = SimRng::from_seed(2);
        let loads = [2, 0, 5, 0, 0];
        let mut seen = [0usize; 5];
        for _ in 0..3000 {
            seen[least_loaded(&loads, &mut rng)] += 1;
        }
        assert_eq!(seen[0], 0);
        assert_eq!(seen[2], 0);
        for &i in &[1, 3, 4] {
            let f = seen[i] as f64 / 3000.0;
            assert!((f - 1.0 / 3.0).abs() < 0.05, "server {i}: {f}");
        }
    }

    #[test]
    fn info_age_horizon_and_elapsed() {
        let phase = InfoAge::Phase {
            start: 10.0,
            length: 4.0,
            now: 11.5,
            epoch: 3,
        };
        assert_eq!(phase.horizon(), 4.0);
        assert!((phase.elapsed() - 1.5).abs() < 1e-12);
        let aged = InfoAge::Aged { age: 2.5 };
        assert_eq!(aged.horizon(), 2.5);
        assert_eq!(aged.elapsed(), 2.5);
    }
}
