//! Enum-based static dispatch for the simulation hot loop.
//!
//! The engine consults the model several times per arrival
//! (`next_event`, `view`, `after_placement`), so a virtual call there
//! would sit directly on the hot path. The model set is closed — the
//! variants below — so [`InfoDispatch`] is the one way to build a model
//! from an [`InfoSpec`] and gives the engine a concrete type to
//! monomorphize against. Lossy update channels don't change the variant:
//! a lossy periodic board is still a [`PeriodicBoard`].
//!
//! Each variant forwards to its model unchanged, so it is bit-identical
//! to the concrete model built directly.

use staleload_sim::SimRng;

use staleload_cluster::Cluster;
use staleload_policies::LoadView;

use crate::{
    ContinuousView, CorruptSpec, EwmaBoard, FreshView, IndividualBoard, InfoModel, InfoSpec,
    LossSpec, MultiHorizonBoard, PeriodicBoard, UpdateOnAccess,
};

/// An [`InfoModel`] with enum (static) dispatch over the closed set of
/// information models.
///
/// Build one with [`InfoDispatch::from_spec`] or
/// [`InfoDispatch::from_spec_lossy`].
#[allow(missing_docs)] // variants mirror InfoSpec, documented there
pub enum InfoDispatch {
    Periodic(PeriodicBoard),
    Continuous(ContinuousView),
    UpdateOnAccess(UpdateOnAccess),
    Individual(IndividualBoard),
    Fresh(FreshView),
    Ewma(EwmaBoard),
    MultiHorizon(MultiHorizonBoard),
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
            InfoSpec::Ewma { period, alpha } => Self::Ewma(EwmaBoard::new(servers, period, alpha)),
            InfoSpec::MultiHorizon { period, windows } => {
                Self::MultiHorizon(MultiHorizonBoard::new(servers, period, windows))
            }
        }
    }

    /// Instantiates the model with its board refreshes routed through a
    /// lossy/delayed update channel (fault injection).
    ///
    /// Only the bulletin-board models have an update channel to disturb;
    /// returns `None` for the others (see [`InfoSpec::supports_loss`]; the
    /// caller should surface that as a configuration error). `rng` should
    /// be forked from the engine's fault stream so the channel's draws
    /// stay off the fault-free streams.
    pub fn from_spec_lossy(
        spec: &InfoSpec,
        servers: usize,
        loss: LossSpec,
        rng: SimRng,
    ) -> Option<Self> {
        match *spec {
            InfoSpec::Periodic { period } => Some(Self::Periodic(PeriodicBoard::with_loss(
                servers, period, loss, rng,
            ))),
            InfoSpec::Individual { period } => Some(Self::Individual(IndividualBoard::with_loss(
                servers, period, loss, rng,
            ))),
            _ => None,
        }
    }

    /// Routes the model's board refreshes through a report corruptor.
    ///
    /// Returns `false` for models without a report channel to corrupt
    /// (same contract as [`InfoSpec::supports_loss`] — the caller should
    /// surface that as a configuration error). `rng` should be forked
    /// from the engine's fault stream, and only when `spec` is not a
    /// noop, so honest configurations stay bit-identical.
    pub fn attach_corruptor(&mut self, spec: CorruptSpec, rng: SimRng) -> bool {
        match self {
            Self::Periodic(board) => {
                board.attach_corruptor(spec, rng);
                true
            }
            Self::Individual(board) => {
                board.attach_corruptor(spec, rng);
                true
            }
            _ => false,
        }
    }

    /// Number of reports garbled by an attached corruptor so far.
    pub fn corrupted_reports(&self) -> u64 {
        match self {
            Self::Periodic(board) => board.corrupted_reports(),
            Self::Individual(board) => board.corrupted_reports(),
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
            InfoDispatch::Ewma($m) => $body,
            InfoDispatch::MultiHorizon($m) => $body,
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

    #[inline]
    fn required_history_window(&self) -> Option<f64> {
        for_each_variant!(self, m => m.required_history_window())
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
            EwmaBoard::new(4, 2.0, 0.4),
        );
        assert_replays(
            InfoSpec::MultiHorizon {
                period: 2.0,
                windows,
            },
            MultiHorizonBoard::new(4, 2.0, windows),
        );
    }

    #[test]
    fn lossy_dispatch_builds_only_for_boards() {
        let loss = LossSpec::drop(0.5);
        assert!(InfoDispatch::from_spec_lossy(
            &InfoSpec::Periodic { period: 5.0 },
            4,
            loss,
            SimRng::from_seed(1)
        )
        .is_some());
        assert!(InfoDispatch::from_spec_lossy(
            &InfoSpec::Individual { period: 5.0 },
            4,
            loss,
            SimRng::from_seed(1)
        )
        .is_some());
        assert!(
            InfoDispatch::from_spec_lossy(&InfoSpec::Fresh, 4, loss, SimRng::from_seed(1))
                .is_none()
        );
    }
}
