//! The periodic-update ("bulletin board") model (§3.1).

use staleload_cluster::Cluster;
use staleload_policies::{InfoAge, LoadView};
use staleload_sim::SimRng;

use crate::entries::Entries;
use crate::estimator::Estimate;
use crate::InfoModel;

/// A bulletin board visible to all arrivals, refreshed with the server
/// loads every `period` time units.
///
/// Load information is exact at the start of each phase and ages as the
/// phase progresses; the view carries full phase context so LI policies can
/// plan over the whole epoch and cache per-phase work.
///
/// The board starts at time 0 showing an idle cluster (epoch 0) with the
/// first refresh at `period` — i.e. time 0 is itself a phase boundary.
///
/// An entry publishes the raw sample ([`PeriodicBoard::new`]) or a
/// smoothed estimate of it ([`PeriodicBoard::ewma`],
/// [`PeriodicBoard::multi_horizon`]).
///
/// # Fault injection
///
/// A crashed server's entry is never refreshed while it is down, and
/// neither is a server partitioned away from the board
/// ([`Cluster::is_visible`]). With a lossy channel
/// ([`crate::InfoDispatch::degrade`]) each entry's refresh is
/// independently dropped or delayed, so entries silently keep stale
/// values past the phase boundary; with a corruptor a fraction of
/// refreshes are garbled before they are sent. The view's per-entry
/// [`LoadView::ages`] report the true staleness so an age-aware policy
/// can discount what the phase metadata over-promises (a garbled entry,
/// however, looks fresh — corruption is the one fault age-awareness
/// cannot see).
///
/// A view does no per-server work: it lends the board, the entries'
/// sample times and the phase context, and an age is computed only when a
/// policy reads it ([`staleload_policies::EntryAges::get`]).
#[derive(Debug, Clone)]
pub struct PeriodicBoard {
    period: f64,
    estimate: Estimate,
    pub(crate) entries: Entries,
    phase_start: f64,
    epoch: u64,
}

impl PeriodicBoard {
    /// Creates a board for `n` servers refreshed every `period` with the
    /// raw sampled loads.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive and finite or `n == 0`.
    pub fn new(n: usize, period: f64) -> Self {
        Self::with_estimate(n, period, Estimate::Raw)
    }

    /// Creates a board publishing per-server EWMA load estimates with
    /// weight `alpha` on the newest sample.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`, `period` is not positive
    /// and finite, or `n == 0`.
    pub fn ewma(n: usize, period: f64, alpha: f64) -> Self {
        Self::with_estimate(n, period, Estimate::ewma(n, alpha))
    }

    /// Creates a board publishing the equal-weight blend of each
    /// server's mean sampled load over three look-back horizons
    /// (`windows`, in time units).
    ///
    /// # Panics
    ///
    /// Panics if `windows` is not positive, finite, and strictly
    /// increasing, `period` is not positive and finite, or `n == 0`.
    pub fn multi_horizon(n: usize, period: f64, windows: [f64; 3]) -> Self {
        Self::with_estimate(n, period, Estimate::multi_horizon(n, windows))
    }

    fn with_estimate(n: usize, period: f64, estimate: Estimate) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "period must be positive, got {period}"
        );
        Self {
            period,
            estimate,
            entries: Entries::new(n),
            phase_start: 0.0,
            epoch: 0,
        }
    }

    /// The refresh period `T`.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The current phase number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn next_refresh(&self) -> f64 {
        self.phase_start + self.period
    }
}

impl InfoModel for PeriodicBoard {
    fn next_event(&self) -> Option<f64> {
        Some(self.entries.next_event(self.next_refresh()))
    }

    fn on_event(&mut self, now: f64, cluster: &Cluster) {
        // Delayed deliveries fire between refreshes.
        if self.entries.land_due(self.next_refresh()) {
            // Any board mutation starts a new cache epoch for the
            // policies even though the phase itself continues.
            self.epoch += 1;
            return;
        }
        // A crashed server sends no refresh, and a partitioned one's
        // refresh never reaches the board; the entry (and its estimate)
        // decays in place. The estimator is decided once per refresh, so
        // a raw board lands its samples in a plain loop.
        match &mut self.estimate {
            Estimate::Raw => self.entries.report_all(now, cluster, |_, load| load),
            estimate => self.entries.report_all(now, cluster, |server, load| {
                estimate.publish(server, load, now)
            }),
        }
        self.phase_start = now;
        self.epoch += 1;
    }

    fn view<'a>(
        &'a mut self,
        now: f64,
        _client: usize,
        _cluster: &'a mut Cluster,
        _rng: &mut SimRng,
    ) -> LoadView<'a> {
        let info = InfoAge::Phase {
            start: self.phase_start,
            length: self.period,
            now,
            epoch: self.epoch,
        };
        self.entries.view(now, info)
    }

    fn after_placement(&mut self, _now: f64, _client: usize, _cluster: &Cluster) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LossSpec;
    use staleload_cluster::Job;

    fn lossy_board(n: usize, period: f64, loss: LossSpec) -> PeriodicBoard {
        let mut board = PeriodicBoard::new(n, period);
        board
            .entries
            .degrade(Some(loss), None, &mut SimRng::from_seed(7));
        board
    }

    #[test]
    fn board_is_stale_within_a_phase() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(3);
        let mut board = PeriodicBoard::new(3, 10.0);
        cluster.enqueue(0, Job::new(0, 1.0, 100.0), 1.0);
        cluster.enqueue(0, Job::new(1, 2.0, 100.0), 2.0);
        let view = board.view(3.0, 0, &mut cluster, &mut rng);
        assert_eq!(
            view.loads,
            &[0, 0, 0],
            "phase-start snapshot, not live loads"
        );
    }

    #[test]
    fn refresh_publishes_and_advances_epoch() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(2);
        let mut board = PeriodicBoard::new(2, 10.0);
        cluster.enqueue(1, Job::new(0, 5.0, 100.0), 5.0);
        assert_eq!(board.next_event(), Some(10.0));
        board.on_event(10.0, &cluster);
        assert_eq!(board.next_event(), Some(20.0));
        assert_eq!(board.epoch(), 1);
        let view = board.view(10.5, 0, &mut cluster, &mut rng);
        assert_eq!(view.loads, &[0, 1]);
        match view.info {
            InfoAge::Phase {
                start,
                length,
                now,
                epoch,
            } => {
                assert_eq!(start, 10.0);
                assert_eq!(length, 10.0);
                assert_eq!(now, 10.5);
                assert_eq!(epoch, 1);
            }
            other => panic!("expected phase info, got {other:?}"),
        }
    }

    #[test]
    fn entry_ages_track_refreshes() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(2);
        let mut board = PeriodicBoard::new(2, 10.0);
        board.on_event(10.0, &cluster);
        let view = board.view(13.0, 0, &mut cluster, &mut rng);
        let ages = view.ages.expect("boards report per-entry ages");
        assert_eq!([ages.get(0), ages.get(1)], [3.0, 3.0]);
    }

    #[test]
    fn down_server_entry_goes_stale() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(2);
        let mut board = PeriodicBoard::new(2, 10.0);
        cluster.enqueue(0, Job::new(0, 1.0, 100.0), 1.0);
        cluster.enqueue(1, Job::new(1, 1.0, 100.0), 1.0);
        cluster.crash(1, 2.0);
        board.on_event(10.0, &cluster);
        let view = board.view(10.0, 0, &mut cluster, &mut rng);
        assert_eq!(
            view.loads,
            &[1, 0],
            "down server's entry keeps its cold value"
        );
        let ages = view.ages.unwrap();
        assert_eq!(ages.get(0), 0.0);
        assert_eq!(ages.get(1), 10.0, "the stale entry's age keeps growing");
    }

    #[test]
    fn full_drop_channel_never_updates() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(2);
        let mut board = lossy_board(2, 10.0, LossSpec::drop(1.0));
        cluster.enqueue(0, Job::new(0, 1.0, 100.0), 1.0);
        board.on_event(10.0, &cluster);
        board.on_event(20.0, &cluster);
        let view = board.view(20.0, 0, &mut cluster, &mut rng);
        assert_eq!(view.loads, &[0, 0], "every refresh was dropped");
        let ages = view.ages.unwrap();
        assert_eq!([ages.get(0), ages.get(1)], [20.0, 20.0]);
    }

    #[test]
    fn lossless_channel_matches_plain_board() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(3);
        let mut plain = PeriodicBoard::new(3, 5.0);
        let mut lossy = lossy_board(3, 5.0, LossSpec::drop(0.0));
        cluster.enqueue(0, Job::new(0, 1.0, 100.0), 1.0);
        cluster.enqueue(2, Job::new(1, 1.5, 100.0), 1.5);
        for t in [5.0, 10.0] {
            plain.on_event(t, &cluster);
            lossy.on_event(t, &cluster);
        }
        let a = plain.view(11.0, 0, &mut cluster, &mut rng).loads.to_vec();
        let b = lossy.view(11.0, 0, &mut cluster, &mut rng).loads.to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn delayed_refresh_lands_later_with_sample_age() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(1);
        let mut board = lossy_board(1, 10.0, LossSpec::delay(2.0));
        cluster.enqueue(0, Job::new(0, 1.0, 100.0), 1.0);
        // The refresh at t=10 samples load 1 but is still in flight.
        board.on_event(10.0, &cluster);
        assert_eq!(board.view(10.0, 0, &mut cluster, &mut rng).loads, &[0]);
        // Drive events until the delivery lands (before the next refresh
        // or after — either way the value eventually appears).
        let mut guard = 0;
        while board.view(0.0, 0, &mut cluster, &mut rng).loads[0] == 0 {
            let t = board.next_event().unwrap();
            board.on_event(t, &cluster);
            guard += 1;
            assert!(guard < 100, "delivery must land eventually");
        }
        // The entry's age baseline is a refresh instant (a multiple of the
        // period — whichever in-flight sample landed first), never the
        // landing time itself.
        let sampled = board.entries.sampled(0);
        assert!(
            sampled >= 10.0 && sampled % 10.0 == 0.0,
            "sample time {sampled}"
        );
    }
}
