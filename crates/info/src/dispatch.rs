//! Enum-based static dispatch for the simulation hot loop.
//!
//! The engine consults the model several times per arrival
//! (`next_event`, `view`, `after_placement`), so a virtual call there
//! would sit directly on the hot path. The model set is closed — the
//! variants below — so [`InfoDispatch`] is the one way to build a model
//! from an [`InfoSpec`] and gives the engine a concrete type to
//! monomorphize against. Neither an estimate nor a fault changes the
//! variant: an EWMA board or a lossy board is still a [`PeriodicBoard`].
//!
//! Each variant forwards to its model unchanged, so it is bit-identical
//! to the concrete model built directly.

use staleload_sim::SimRng;

use staleload_cluster::Cluster;
use staleload_policies::LoadView;

use crate::{
    ContinuousView, CorruptSpec, FreshView, IndividualBoard, InfoModel, InfoSpec, LossSpec,
    PeriodicBoard, UpdateOnAccess,
};

/// An [`InfoModel`] with enum (static) dispatch over the closed set of
/// information models.
///
/// Build one with [`InfoDispatch::from_spec`]; route a board's reports
/// through faults with [`InfoDispatch::degrade`].
#[allow(missing_docs)] // variants mirror InfoSpec, documented there
pub enum InfoDispatch {
    Periodic(PeriodicBoard),
    Continuous(ContinuousView),
    UpdateOnAccess(UpdateOnAccess),
    Individual(IndividualBoard),
    Fresh(FreshView),
}

impl InfoDispatch {
    /// Instantiates the model described by `spec` for `servers` servers
    /// and `clients` clients.
    pub fn from_spec(spec: &InfoSpec, servers: usize, clients: usize) -> Self {
        match *spec {
            InfoSpec::Periodic { period } => Self::Periodic(PeriodicBoard::new(servers, period)),
            InfoSpec::Continuous { delay, knowledge } => {
                Self::Continuous(ContinuousView::new(delay, knowledge))
            }
            InfoSpec::UpdateOnAccess => Self::UpdateOnAccess(UpdateOnAccess::new(clients, servers)),
            InfoSpec::Individual { period } => {
                Self::Individual(IndividualBoard::new(servers, period))
            }
            InfoSpec::Fresh => Self::Fresh(FreshView),
            InfoSpec::Ewma { period, alpha } => {
                Self::Periodic(PeriodicBoard::ewma(servers, period, alpha))
            }
            InfoSpec::MultiHorizon { period, windows } => {
                Self::Periodic(PeriodicBoard::multi_horizon(servers, period, windows))
            }
        }
    }

    /// Routes a bulletin board's reports through a lossy/delayed channel
    /// for `loss`, then a corruptor for a `corrupt` fraction above 0.
    /// Each fault's stream is forked from `fault_rng` (the engine's fault
    /// stream) in that order, and only when the fault is configured, so
    /// fault-free and honest runs stay bit-identical.
    ///
    /// Only the boards have a report path: the caller must reject these
    /// faults on a model whose spec does not [`InfoSpec::supports_loss`].
    pub fn degrade(
        &mut self,
        loss: Option<LossSpec>,
        corrupt: Option<CorruptSpec>,
        fault_rng: &mut SimRng,
    ) {
        match self {
            Self::Periodic(board) => board.entries.degrade(loss, corrupt, fault_rng),
            Self::Individual(board) => board.entries.degrade(loss, corrupt, fault_rng),
            _ => debug_assert!(
                loss.is_none_or(|l| l.is_noop()) && corrupt.is_none_or(|c| c.is_noop()),
                "only a bulletin board has a report path to degrade"
            ),
        }
    }

    /// Number of reports garbled by the board's corruptor so far.
    pub fn corrupted_reports(&self) -> u64 {
        match self {
            Self::Periodic(board) => board.entries.corrupted_reports(),
            Self::Individual(board) => board.entries.corrupted_reports(),
            _ => 0,
        }
    }
}

macro_rules! for_each_variant {
    ($self:ident, $m:ident => $body:expr) => {
        match $self {
            InfoDispatch::Periodic($m) => $body,
            InfoDispatch::Continuous($m) => $body,
            InfoDispatch::UpdateOnAccess($m) => $body,
            InfoDispatch::Individual($m) => $body,
            InfoDispatch::Fresh($m) => $body,
        }
    };
}

impl InfoModel for InfoDispatch {
    #[inline]
    fn next_event(&self) -> Option<f64> {
        for_each_variant!(self, m => m.next_event())
    }

    #[inline]
    fn on_event(&mut self, now: f64, cluster: &Cluster) {
        for_each_variant!(self, m => m.on_event(now, cluster))
    }

    #[inline]
    fn view<'a>(
        &'a mut self,
        now: f64,
        client: usize,
        cluster: &'a mut Cluster,
        rng: &mut SimRng,
    ) -> LoadView<'a> {
        for_each_variant!(self, m => m.view(now, client, cluster, rng))
    }

    #[inline]
    fn after_placement(&mut self, now: f64, client: usize, cluster: &Cluster) {
        for_each_variant!(self, m => m.after_placement(now, client, cluster))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgeKnowledge, DelaySpec};
    use staleload_cluster::Job;

    /// Replays one view stream through `dispatch` and through `model`,
    /// the concrete model the variant should wrap: same loads, same ages,
    /// same RNG draw order.
    fn assert_replays(spec: InfoSpec, mut model: impl InfoModel) {
        let servers = 4;
        let mut dispatch = InfoDispatch::from_spec(&spec, servers, 3);
        let mk_cluster = || {
            let mut c = match spec.history_window() {
                Some(w) => Cluster::with_history(servers, w),
                None => Cluster::new(servers),
            };
            for i in 0..6u64 {
                c.enqueue(
                    (i % 4) as usize,
                    Job::new(i, i as f64 * 0.3, 1.0),
                    i as f64 * 0.3,
                );
            }
            c
        };
        let mut ca = mk_cluster();
        let mut cb = mk_cluster();
        let mut rng_a = SimRng::from_seed(11);
        let mut rng_b = SimRng::from_seed(11);
        for step in 0..64u64 {
            let now = 2.0 + step as f64 * 0.7;
            assert_eq!(
                model.next_event(),
                dispatch.next_event(),
                "{}",
                spec.label()
            );
            if let Some(t) = model.next_event() {
                if t <= now {
                    model.on_event(t, &ca);
                    dispatch.on_event(t, &cb);
                }
            }
            let client = (step % 3) as usize;
            {
                let va = model.view(now, client, &mut ca, &mut rng_a);
                let vb = dispatch.view(now, client, &mut cb, &mut rng_b);
                assert_eq!(va.loads, vb.loads, "{} at step {step}", spec.label());
                assert_eq!(va.ages, vb.ages, "{} at step {step}", spec.label());
            }
            model.after_placement(now, client, &ca);
            dispatch.after_placement(now, client, &cb);
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{}", spec.label());
    }

    /// Every variant replays the concrete model its spec names.
    #[test]
    fn dispatch_matches_concrete_models_bit_for_bit() {
        let delay = DelaySpec::Exponential { mean: 2.0 };
        let windows = [2.0, 6.0, 14.0];
        assert_replays(
            InfoSpec::Periodic { period: 5.0 },
            PeriodicBoard::new(4, 5.0),
        );
        assert_replays(
            InfoSpec::Continuous {
                delay,
                knowledge: AgeKnowledge::Actual,
            },
            ContinuousView::new(delay, AgeKnowledge::Actual),
        );
        assert_replays(InfoSpec::UpdateOnAccess, UpdateOnAccess::new(3, 4));
        assert_replays(
            InfoSpec::Individual { period: 3.0 },
            IndividualBoard::new(4, 3.0),
        );
        assert_replays(InfoSpec::Fresh, FreshView);
        assert_replays(
            InfoSpec::Ewma {
                period: 2.0,
                alpha: 0.4,
            },
            PeriodicBoard::ewma(4, 2.0, 0.4),
        );
        assert_replays(
            InfoSpec::MultiHorizon {
                period: 2.0,
                windows,
            },
            PeriodicBoard::multi_horizon(4, 2.0, windows),
        );
    }

    /// `degrade` gives the boards a lossy channel, and forks the fault
    /// stream only for a configured fault.
    #[test]
    fn lossy_dispatch_builds_only_for_boards() {
        let mut cluster = Cluster::new(4);
        cluster.enqueue(0, Job::new(0, 0.1, 100.0), 0.1);
        for spec in [
            InfoSpec::Periodic { period: 5.0 },
            InfoSpec::Individual { period: 5.0 },
        ] {
            let mut model = InfoDispatch::from_spec(&spec, 4, 1);
            model.degrade(Some(LossSpec::drop(1.0)), None, &mut SimRng::from_seed(1));
            for _ in 0..8 {
                let t = model.next_event().unwrap();
                model.on_event(t, &cluster);
            }
            let view = model.view(20.0, 0, &mut cluster, &mut SimRng::from_seed(2));
            assert_eq!(
                view.loads,
                &[0; 4],
                "{}: every report dropped",
                spec.label()
            );
        }
        let mut fault_rng = SimRng::from_seed(3);
        let mut model = InfoDispatch::from_spec(&InfoSpec::Periodic { period: 5.0 }, 4, 1);
        model.degrade(None, Some(CorruptSpec::new(0.0)), &mut fault_rng);
        assert_eq!(model.corrupted_reports(), 0);
        assert_eq!(fault_rng.next_u64(), SimRng::from_seed(3).next_u64());
    }
}
