//! The individual-updates model (Mitzenmacher's third model).
//!
//! The paper (§3) omits this model, citing Mitzenmacher's finding that it
//! behaves like the periodic-update model; we implement it so that claim
//! can be checked (see the `ext_individual` experiment).

use staleload_cluster::Cluster;
use staleload_policies::{InfoAge, LoadView};
use staleload_sim::{EventQueue, SimRng};

use crate::entries::Entries;
use crate::InfoModel;

/// Individual updates: every server refreshes *its own* bulletin-board
/// entry once per `period`, on its own schedule, so entries have mixed
/// ages.
///
/// Refresh phases are staggered deterministically (`i·T/n`), the idealized
/// de-synchronised schedule. Because entries age independently there is no
/// single phase for LI to plan over; the view reports the *current mean
/// entry age* (tracked exactly), which Basic LI interprets as its horizon —
/// the natural generalization, and the one that makes the model comparable
/// to `periodic` with the same `T`. Per-entry ages ride along in
/// [`LoadView::ages`] for age-aware policies, read from the entries'
/// refresh times on demand, so a view does no per-server work.
///
/// Reports take the same path as [`crate::PeriodicBoard`]'s: with a lossy
/// channel ([`crate::InfoDispatch::degrade`]) each refresh is
/// independently dropped or delayed, and a crashed server skips its
/// refreshes entirely (the schedule keeps ticking so it resumes after
/// recovery).
#[derive(Debug, Clone)]
pub struct IndividualBoard {
    period: f64,
    pub(crate) entries: Entries,
    pending: EventQueue<usize>,
}

impl IndividualBoard {
    /// Creates the board for `n` servers, each refreshing every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `period` is not positive and finite.
    pub fn new(n: usize, period: f64) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "period must be positive, got {period}"
        );
        let mut pending = EventQueue::with_capacity(n);
        for server in 0..n {
            pending.push(server as f64 * period / n as f64, server);
        }
        Self {
            period,
            entries: Entries::new(n),
            pending,
        }
    }

    /// The per-server refresh period `T`.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Mean age of the board entries at time `now`.
    pub fn mean_age(&self, now: f64) -> f64 {
        self.entries.mean_age(now)
    }

    fn next_refresh(&self) -> f64 {
        self.pending
            .peek_time()
            .expect("a refresh is always scheduled")
    }
}

impl InfoModel for IndividualBoard {
    fn next_event(&self) -> Option<f64> {
        Some(self.entries.next_event(self.next_refresh()))
    }

    fn on_event(&mut self, now: f64, cluster: &Cluster) {
        // Delayed deliveries fire between refreshes.
        if self.entries.land_due(self.next_refresh()) {
            return;
        }
        let (_, server) = self.pending.pop().expect("a refresh is always scheduled");
        self.pending.push(now + self.period, server);
        // A crashed server skips its refresh, and a partitioned one's
        // refresh never reaches the board; the entry decays in place.
        if !cluster.is_up(server) || !cluster.is_visible(server) {
            return;
        }
        self.entries.report(now, server, cluster.load(server));
    }

    fn view<'a>(
        &'a mut self,
        now: f64,
        _client: usize,
        _cluster: &'a mut Cluster,
        _rng: &mut SimRng,
    ) -> LoadView<'a> {
        let info = InfoAge::Aged {
            age: self.mean_age(now),
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

    #[test]
    fn entries_refresh_independently() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(2);
        let mut board = IndividualBoard::new(2, 10.0);
        cluster.enqueue(0, Job::new(0, 0.5, 100.0), 0.5);
        cluster.enqueue(1, Job::new(1, 0.5, 100.0), 0.5);

        // Server 0 refreshes at t = 0 (before the jobs), server 1 at t = 5.
        board.on_event(0.0, &cluster);
        let v = board.view(1.0, 0, &mut cluster, &mut rng);
        assert_eq!(v.loads, &[1, 0], "server 1's entry is still the cold value");

        assert_eq!(board.next_event(), Some(5.0));
        board.on_event(5.0, &cluster);
        let v = board.view(6.0, 0, &mut cluster, &mut rng);
        assert_eq!(v.loads, &[1, 1]);
    }

    #[test]
    fn mean_age_tracks_refresh_times() {
        let cluster = Cluster::new(2);
        let mut board = IndividualBoard::new(2, 10.0);
        board.on_event(0.0, &cluster); // server 0 at t=0
        board.on_event(5.0, &cluster); // server 1 at t=5
                                       // At t = 7: ages are 7 and 2, mean 4.5.
        assert!((board.mean_age(7.0) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn refreshes_recur_every_period() {
        let cluster = Cluster::new(1);
        let mut board = IndividualBoard::new(1, 4.0);
        assert_eq!(board.next_event(), Some(0.0));
        board.on_event(0.0, &cluster);
        assert_eq!(board.next_event(), Some(4.0));
        board.on_event(4.0, &cluster);
        assert_eq!(board.next_event(), Some(8.0));
    }

    #[test]
    fn per_entry_ages_match_refresh_history() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(2);
        let mut board = IndividualBoard::new(2, 10.0);
        board.on_event(0.0, &cluster);
        board.on_event(5.0, &cluster);
        let v = board.view(7.0, 0, &mut cluster, &mut rng);
        let ages = v.ages.unwrap();
        assert_eq!([ages.get(0), ages.get(1)], [7.0, 2.0]);
    }

    #[test]
    fn down_server_skips_refresh_but_schedule_continues() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(2);
        let mut board = IndividualBoard::new(2, 10.0);
        cluster.enqueue(0, Job::new(0, 0.1, 100.0), 0.1);
        cluster.crash(0, 0.5);
        // Server 0's refresh at t=10 is skipped (it is down)...
        board.on_event(0.0, &cluster);
        board.on_event(5.0, &cluster);
        board.on_event(10.0, &cluster);
        let v = board.view(10.0, 0, &mut cluster, &mut rng);
        assert_eq!(v.loads, &[0, 0]);
        // ...but the schedule keeps ticking for after its recovery.
        cluster.recover(0, 12.0, None);
        board.on_event(15.0, &cluster); // server 1
        board.on_event(20.0, &cluster); // server 0, now up again
        let v = board.view(20.0, 0, &mut cluster, &mut rng);
        assert_eq!(v.loads, &[1, 0]);
    }

    #[test]
    fn full_drop_channel_never_updates() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(1);
        let mut board = IndividualBoard::new(1, 5.0);
        board
            .entries
            .degrade(Some(LossSpec::drop(1.0)), None, &mut SimRng::from_seed(4));
        cluster.enqueue(0, Job::new(0, 0.1, 100.0), 0.1);
        for t in [0.0, 5.0, 10.0] {
            board.on_event(t, &cluster);
        }
        let v = board.view(10.0, 0, &mut cluster, &mut rng);
        assert_eq!(v.loads, &[0]);
        assert_eq!(v.ages.unwrap().get(0), 10.0);
    }
}
