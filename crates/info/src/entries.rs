//! The report path both bulletin boards share.
//!
//! A server samples its load and reports it; the report may be garbled
//! ([`CorruptSpec`]), dropped or delayed ([`LossSpec`]) on its way, and
//! whatever arrives lands on the server's board entry. [`Entries`] holds
//! the entries, their sample times and the two faults, so
//! [`crate::PeriodicBoard`] and [`crate::IndividualBoard`] differ only in
//! *when* servers report and what a view says about age.

use staleload_cluster::Cluster;
use staleload_policies::{EntryAges, InfoAge, LoadView};
use staleload_sim::SimRng;

use crate::corrupt::Corruptor;
use crate::loss::LossChannel;
use crate::{CorruptSpec, LossSpec};

/// A board's entries, when each was sampled, and the faults between the
/// servers and the board.
#[derive(Debug, Clone)]
pub(crate) struct Entries {
    loads: Vec<u32>,
    /// When each entry's current value was sampled from the cluster.
    sampled: Vec<f64>,
    /// Invariant: `sample_sum == sampled.iter().sum()`.
    sample_sum: f64,
    channel: Option<LossChannel>,
    corruptor: Option<Corruptor>,
}

impl Entries {
    /// `n` entries showing an idle cluster sampled at time 0, with a
    /// perfect channel.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one server");
        Self {
            loads: vec![0; n],
            sampled: vec![0.0; n],
            sample_sum: 0.0,
            channel: None,
            corruptor: None,
        }
    }

    /// When `server`'s entry was sampled.
    #[cfg(test)]
    pub fn sampled(&self, server: usize) -> f64 {
        self.sampled[server]
    }

    /// Routes later reports through a lossy/delayed channel for `loss`,
    /// then a corruptor for a `corrupt` fraction above 0. Each fault's
    /// stream is forked from `fault_rng` in that order, and only when the
    /// fault is configured, so fault-free and honest runs stay
    /// bit-identical.
    pub fn degrade(
        &mut self,
        loss: Option<LossSpec>,
        corrupt: Option<CorruptSpec>,
        fault_rng: &mut SimRng,
    ) {
        if let Some(loss) = loss {
            self.channel = Some(LossChannel::new(loss, fault_rng.fork()));
        }
        if let Some(corrupt) = corrupt.filter(|c| !c.is_noop()) {
            self.corruptor = Some(Corruptor::new(corrupt, fault_rng.fork()));
        }
    }

    /// Number of reports garbled by the corruptor so far.
    pub fn corrupted_reports(&self) -> u64 {
        self.corruptor.as_ref().map_or(0, Corruptor::corrupted)
    }

    /// Mean age of the entries at `now`.
    pub fn mean_age(&self, now: f64) -> f64 {
        (now - self.sample_sum / self.loads.len() as f64).max(0.0)
    }

    /// When the board's next event is due, given its next `refresh`: an
    /// in-flight delivery that lands strictly earlier, else the refresh.
    pub fn next_event(&self, refresh: f64) -> f64 {
        match self.channel.as_ref().and_then(LossChannel::next_delivery) {
            Some(t) if t < refresh => t,
            _ => refresh,
        }
    }

    /// Lands the earliest in-flight delivery if it is due strictly
    /// before `refresh` (the refresh wins ties; the obsolete-landing
    /// check makes the order immaterial). Returns whether one landed.
    pub fn land_due(&mut self, refresh: f64) -> bool {
        let Some(channel) = &mut self.channel else {
            return false;
        };
        if !channel.next_delivery().is_some_and(|t| t < refresh) {
            return false;
        }
        let landing = channel.pop_delivery().expect("delivery was peeked");
        self.land(landing.server, landing.value, landing.sampled);
        true
    }

    /// One board refresh: reports, at `now`, what `publish` makes of the
    /// load of every server that can reach the board
    /// ([`Cluster::reports`]), in server order.
    pub fn report_all(
        &mut self,
        now: f64,
        cluster: &Cluster,
        mut publish: impl FnMut(usize, u32) -> u32,
    ) {
        if self.corruptor.is_some() || self.channel.is_some() {
            for (server, report) in cluster.reports().enumerate() {
                if let Some(load) = report {
                    let value = publish(server, load);
                    self.report(now, server, value);
                }
            }
            return;
        }
        // A direct channel lands every report as it is sent. This is
        // `land` over the entry slices, with `sample_sum` kept in a
        // register: the same additions in the same server order, so the
        // same bits, in a loop with no call and no bounds check.
        let mut sum = self.sample_sum;
        let entries = self.loads.iter_mut().zip(&mut self.sampled);
        for (server, ((entry, sampled), report)) in entries.zip(cluster.reports()).enumerate() {
            if let Some(load) = report {
                let value = publish(server, load);
                if now >= *sampled {
                    *entry = value;
                    sum += now - *sampled;
                    *sampled = now;
                }
            }
        }
        self.sample_sum = sum;
    }

    /// Reports `load`, sampled from `server` at `now`: the corruptor may
    /// garble it, the channel may drop or delay it, and what gets through
    /// lands on the entry.
    pub fn report(&mut self, now: f64, server: usize, load: u32) {
        let mut value = load;
        if let Some(corruptor) = &mut self.corruptor {
            value = corruptor.garble(value, self.loads[server]);
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

    /// The view at `now` with age metadata `info`. No per-server work:
    /// an entry's age is computed only when a policy reads it
    /// ([`EntryAges::get`]).
    pub fn view(&self, now: f64, info: InfoAge) -> LoadView<'_> {
        LoadView {
            loads: &self.loads,
            info,
            ages: Some(EntryAges {
                sampled: &self.sampled,
                now,
            }),
        }
    }

    fn land(&mut self, server: usize, value: u32, sampled: f64) {
        // Deliveries can arrive out of order; a landing older than the
        // entry's current value is obsolete and discarded.
        if sampled >= self.sampled[server] {
            self.loads[server] = value;
            self.sample_sum += sampled - self.sampled[server];
            self.sampled[server] = sampled;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staleload_cluster::Job;

    /// A refresh lands the same entries, sample times and `sample_sum`
    /// bits whether it goes straight to the board or through a lossless
    /// channel, with crashed and partitioned servers skipping refreshes.
    #[test]
    fn direct_and_channel_refreshes_land_the_same_bits() {
        let n = 6;
        let mut cluster = Cluster::new(n);
        for (id, server) in [0, 1, 1, 3, 4, 4, 4, 5].into_iter().enumerate() {
            cluster.enqueue(server, Job::new(id as u64, 0.0, 1e9), 0.0);
        }
        let mut direct = Entries::new(n);
        let mut channel = Entries::new(n);
        channel.degrade(Some(LossSpec::drop(0.0)), None, &mut SimRng::from_seed(3));
        assert!(channel.channel.is_some() && direct.channel.is_none());
        for (step, now) in [0.3, 1.7, 2.9, 4.1, 5.3].into_iter().enumerate() {
            // A different server is down and another hidden at each refresh.
            let down = step % n;
            let hidden = (step + 2) % n;
            cluster.crash(down, now);
            cluster.set_visible(hidden, false);
            for entries in [&mut direct, &mut channel] {
                entries.report_all(now, &cluster, |_, load| load);
            }
            cluster.recover(down, now, None);
            cluster.set_visible(hidden, true);
            assert_eq!(direct.loads, channel.loads, "refresh at {now}");
            let bits = |e: &Entries| e.sampled.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&direct), bits(&channel), "refresh at {now}");
            assert_eq!(direct.sample_sum.to_bits(), channel.sample_sum.to_bits());
            assert_eq!(direct.sampled[down], channel.sampled[down]);
            assert!(direct.sampled[down] < now && direct.sampled[hidden] < now);
        }
    }
}
