//! The individual-updates model (Mitzenmacher's third model).
//!
//! The paper (§3) omits this model, citing Mitzenmacher's finding that it
//! behaves like the periodic-update model; we implement it so that claim
//! can be checked (see the `ext_individual` experiment).

use staleload_cluster::Cluster;
use staleload_policies::{EntryAges, InfoAge, LoadView};
use staleload_sim::{EventQueue, SimRng};

use crate::corrupt::Corruptor;
use crate::loss::LossChannel;
use crate::{CorruptSpec, InfoModel, LossSpec};

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
/// With a lossy channel ([`IndividualBoard::with_loss`]) each refresh is
/// independently dropped or delayed, and a crashed server skips its
/// refreshes entirely (the schedule keeps ticking so it resumes after
/// recovery).
#[derive(Debug, Clone)]
pub struct IndividualBoard {
    period: f64,
    board: Vec<u32>,
    /// When each entry's current value was sampled from the cluster.
    refreshed_at: Vec<f64>,
    /// Invariant: `refresh_sum == refreshed_at.iter().sum()`.
    refresh_sum: f64,
    pending: EventQueue<usize>,
    channel: Option<LossChannel>,
    corruptor: Option<Corruptor>,
}

impl IndividualBoard {
    /// Creates the board for `n` servers, each refreshing every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `period` is not positive and finite.
    pub fn new(n: usize, period: f64) -> Self {
        assert!(n > 0, "need at least one server");
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
            board: vec![0; n],
            refreshed_at: vec![0.0; n],
            refresh_sum: 0.0,
            pending,
            channel: None,
            corruptor: None,
        }
    }

    /// Creates a board whose refreshes traverse a lossy/delayed channel
    /// (see [`LossSpec`]); `rng` should be forked from the engine's fault
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `period` is not positive and finite.
    pub fn with_loss(n: usize, period: f64, loss: LossSpec, rng: SimRng) -> Self {
        let mut board = Self::new(n, period);
        board.channel = Some(LossChannel::new(loss, rng));
        board
    }

    /// Routes subsequent refreshes through a report corruptor (see
    /// [`CorruptSpec`]); `rng` should be forked from the engine's fault
    /// stream, and only when `spec` is not a noop, so honest boards stay
    /// bit-identical.
    pub fn attach_corruptor(&mut self, spec: CorruptSpec, rng: SimRng) {
        self.corruptor = Some(Corruptor::new(spec, rng));
    }

    /// Number of reports garbled by the attached corruptor so far.
    pub fn corrupted_reports(&self) -> u64 {
        self.corruptor.as_ref().map_or(0, Corruptor::corrupted)
    }

    /// The per-server refresh period `T`.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Mean age of the board entries at time `now`.
    pub fn mean_age(&self, now: f64) -> f64 {
        (now - self.refresh_sum / self.board.len() as f64).max(0.0)
    }

    fn land(&mut self, server: usize, value: u32, sampled: f64) {
        // Deliveries can arrive out of order; a landing older than the
        // entry's current value is obsolete and discarded.
        if sampled >= self.refreshed_at[server] {
            self.board[server] = value;
            self.refresh_sum += sampled - self.refreshed_at[server];
            self.refreshed_at[server] = sampled;
        }
    }

    fn next_refresh(&self) -> f64 {
        self.pending
            .peek_time()
            .expect("a refresh is always scheduled")
    }
}

impl InfoModel for IndividualBoard {
    fn next_event(&self) -> Option<f64> {
        let refresh = self.next_refresh();
        match self.channel.as_ref().and_then(LossChannel::next_delivery) {
            Some(t) if t < refresh => Some(t),
            _ => Some(refresh),
        }
    }

    fn on_event(&mut self, now: f64, cluster: &Cluster) {
        // Delayed deliveries fire between refreshes (refresh wins ties;
        // the obsolete-landing check makes the order immaterial).
        let next_refresh = self.next_refresh();
        if let Some(channel) = &mut self.channel {
            if channel.next_delivery().is_some_and(|t| t < next_refresh) {
                let landing = channel.pop_delivery().expect("delivery was peeked");
                self.land(landing.server, landing.value, landing.sampled);
                return;
            }
        }
        let (_, server) = self.pending.pop().expect("a refresh is always scheduled");
        self.pending.push(now + self.period, server);
        // A crashed server skips its refresh, and a partitioned one's
        // refresh never reaches the board; the entry decays in place.
        if !cluster.is_up(server) || !cluster.is_visible(server) {
            return;
        }
        let mut value = cluster.load(server);
        if let Some(corruptor) = &mut self.corruptor {
            value = corruptor.garble(value, self.board[server]);
        }
        match &mut self.channel {
            None => self.land(server, value, now),
            Some(channel) => {
                if let Some(l) = channel.send(now, server, value) {
                    self.land(l.server, l.value, l.sampled);
                }
            }
        }
    }

    fn view<'a>(
        &'a mut self,
        now: f64,
        _client: usize,
        _cluster: &'a mut Cluster,
        _rng: &mut SimRng,
    ) -> LoadView<'a> {
        LoadView {
            loads: &self.board,
            info: InfoAge::Aged {
                age: self.mean_age(now),
            },
            ages: Some(EntryAges {
                sampled: &self.refreshed_at,
                now,
            }),
        }
    }

    fn after_placement(&mut self, _now: f64, _client: usize, _cluster: &Cluster) {}

    fn required_history_window(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut board =
            IndividualBoard::with_loss(1, 5.0, LossSpec::drop(1.0), SimRng::from_seed(4));
        cluster.enqueue(0, Job::new(0, 0.1, 100.0), 0.1);
        for t in [0.0, 5.0, 10.0] {
            board.on_event(t, &cluster);
        }
        let v = board.view(10.0, 0, &mut cluster, &mut rng);
        assert_eq!(v.loads, &[0]);
        assert_eq!(v.ages.unwrap().get(0), 10.0);
    }
}
