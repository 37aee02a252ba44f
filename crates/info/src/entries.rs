//! The report path both bulletin boards share.
//!
//! A server samples its load and reports it; the report may be garbled
//! ([`CorruptSpec`]), dropped or delayed ([`LossSpec`]) on its way, and
//! whatever arrives lands on the server's board entry. [`Entries`] holds
//! the entries, their sample times and the two faults, so
//! [`crate::PeriodicBoard`] and [`crate::IndividualBoard`] differ only in
//! *when* servers report and what a view says about age.

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

    /// Number of entries (servers).
    pub fn len(&self) -> usize {
        self.loads.len()
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
