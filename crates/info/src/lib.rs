//! Models of old load information (paper §3).
//!
//! A selection policy never sees the cluster directly; it sees a
//! [`staleload_policies::LoadView`] produced by an *information model* that
//! controls how stale the loads are and what the policy knows about their
//! age:
//!
//! * [`PeriodicBoard`] — a bulletin board refreshed every `T` time units;
//!   every arrival in a phase sees the phase-start snapshot (§3.1). An
//!   entry publishes the raw sample or, as an extension for the
//!   tail-latency program, a *filtered* estimate of it: an exponentially
//!   weighted moving average, or a blend of moving averages over several
//!   look-back horizons.
//! * [`IndividualBoard`] — each server refreshes its own entry every `T`
//!   on a staggered schedule (Mitzenmacher's individual-updates model,
//!   which the paper omits as similar to periodic).
//! * [`ContinuousView`] — each arrival sees the exact system state a random
//!   delay `d` ago; the policy is told either the *mean* delay or the
//!   realized per-request delay (§3.1, Figs. 6–7).
//! * [`UpdateOnAccess`] — each client's view is the snapshot captured when
//!   its *previous* request reached a server (§3.2).
//! * [`FreshView`] — zero staleness (extension; the omniscient reference
//!   used for validation).
//!
//! The two boards share one report path: a server's report may be
//! garbled ([`CorruptSpec`]) and dropped or delayed ([`LossSpec`]) before
//! it lands on its entry ([`InfoDispatch::degrade`] attaches the faults).
//!
//! All models implement [`InfoModel`], the small interface the simulation
//! driver in `staleload-core` consumes; [`InfoDispatch`] builds one from an
//! [`InfoSpec`].
//!
//! # Example
//!
//! ```
//! use staleload_cluster::{Cluster, Job};
//! use staleload_info::{InfoModel, PeriodicBoard};
//! use staleload_policies::InfoAge;
//! use staleload_sim::SimRng;
//!
//! let mut rng = SimRng::from_seed(1);
//! let mut cluster = Cluster::new(2);
//! let mut board = PeriodicBoard::new(2, 5.0);
//!
//! cluster.enqueue(0, Job::new(0, 1.0, 10.0), 1.0);
//! // Before the first refresh the board still shows the start-of-phase state.
//! let view = board.view(2.0, 0, &mut cluster, &mut rng);
//! assert_eq!(view.loads, &[0, 0]);
//!
//! // The refresh at t = 5 publishes the true loads.
//! assert_eq!(board.next_event(), Some(5.0));
//! board.on_event(5.0, &cluster);
//! let view = board.view(6.0, 0, &mut cluster, &mut rng);
//! assert_eq!(view.loads, &[1, 0]);
//! assert!(matches!(view.info, InfoAge::Phase { epoch: 1, .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod continuous;
mod corrupt;
mod dispatch;
mod entries;
mod estimator;
mod individual;
mod loss;
mod periodic;
mod spec;
mod update_on_access;

pub use continuous::{AgeKnowledge, ContinuousView, DelaySpec};
pub use corrupt::CorruptSpec;
pub use dispatch::InfoDispatch;
pub use individual::IndividualBoard;
pub use loss::LossSpec;
pub use periodic::PeriodicBoard;
pub use spec::InfoSpec;
pub use update_on_access::UpdateOnAccess;

use staleload_cluster::Cluster;
use staleload_policies::{InfoAge, LoadView};
use staleload_sim::SimRng;

/// A model of how load information ages between servers and clients.
///
/// The driver calls [`InfoModel::next_event`]/[`InfoModel::on_event`] to let
/// the model refresh internal state (the boards use this for refreshes and
/// delayed deliveries), [`InfoModel::view`] to obtain the stale view an
/// arriving request decides on, and [`InfoModel::after_placement`] once
/// the job has been enqueued (only update-on-access uses this, to capture
/// the reply snapshot). The load history a model needs from the cluster is
/// a property of its spec ([`InfoSpec::history_window`]).
pub trait InfoModel {
    /// Absolute time of the model's next internal event, if any.
    fn next_event(&self) -> Option<f64>;

    /// Handles the model event scheduled for `now`.
    fn on_event(&mut self, now: f64, cluster: &Cluster);

    /// Produces the load view for a request arriving at `now` from `client`.
    ///
    /// Takes the cluster mutably because answering a delayed view queries
    /// (and lazily prunes) its load history.
    fn view<'a>(
        &'a mut self,
        now: f64,
        client: usize,
        cluster: &'a mut Cluster,
        rng: &mut SimRng,
    ) -> LoadView<'a>;

    /// Notifies the model that `client`'s job was placed at `now`.
    fn after_placement(&mut self, now: f64, client: usize, cluster: &Cluster);
}

/// Zero-staleness information: every arrival sees the true current loads
/// with age 0 (extension; the paper's "fresh information" limit).
///
/// Pairing this with `Greedy` gives the omniscient least-loaded reference
/// that validation tests compare against.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreshView;

impl InfoModel for FreshView {
    fn next_event(&self) -> Option<f64> {
        None
    }

    fn on_event(&mut self, _now: f64, _cluster: &Cluster) {}

    fn view<'a>(
        &'a mut self,
        _now: f64,
        _client: usize,
        cluster: &'a mut Cluster,
        _rng: &mut SimRng,
    ) -> LoadView<'a> {
        LoadView {
            loads: cluster.loads(),
            info: InfoAge::Aged { age: 0.0 },
            ages: None,
        }
    }

    fn after_placement(&mut self, _now: f64, _client: usize, _cluster: &Cluster) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use staleload_cluster::Job;

    #[test]
    fn fresh_view_tracks_live_loads() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(2);
        let mut model = FreshView;
        cluster.enqueue(1, Job::new(0, 0.5, 1.0), 0.5);
        let view = model.view(1.0, 0, &mut cluster, &mut rng);
        assert_eq!(view.loads, &[0, 1]);
        assert_eq!(view.info, InfoAge::Aged { age: 0.0 });
        assert_eq!(model.next_event(), None);
    }
}
