//! A staleness gate that masks entries older than a cutoff (fault-injection
//! extension).
//!
//! Under fault injection (crashed servers, dropped board refreshes) the
//! entries of a bulletin board no longer share one age: some are fresh,
//! some arbitrarily stale. The paper's policies interpret the *advertised*
//! age, so a stale entry's flattering queue length draws traffic long after
//! it stopped meaning anything. [`StalenessGate`] wraps any inner policy and
//! excludes entries whose individual age exceeds a cutoff, renormalizing the
//! inner policy's choice over the survivors.

use staleload_sim::SimRng;

use crate::{EntryAges, InfoAge, Load, LoadView, Policy, PolicyTelemetry};

/// Wraps an inner policy, hiding board entries older than `cutoff`.
///
/// Entries with [`LoadView::entry_age`] above the cutoff are masked to
/// [`Load::MAX`] before the inner policy sees the view: least-loaded style
/// policies never pick a maximal queue when a smaller one exists, threshold
/// policies classify it heavy, and the LI water-filling assigns it
/// vanishing probability — so the inner policy's probability mass
/// renormalizes over the valid servers. If *every* entry is stale the gate
/// falls back to uniform random (the paper's "interpret extreme staleness
/// as no information" limit, §4.2).
///
/// For views without per-entry ages the gate compares the view-wide age
/// against the cutoff: all entries valid (delegate with the loads
/// untouched) or all stale (uniform random).
///
/// An entry can age past the cutoff in the middle of a board epoch, so the
/// loads the inner policy sees change while the board's epoch does not.
/// The gate therefore hands the inner policy an epoch of its own on
/// [`InfoAge::Phase`] views, which advances whenever the board's epoch or
/// the loads handed over change; an inner policy that caches per epoch
/// (the LI family, [`crate::Greedy`]) then rebuilds exactly when its input
/// does. Reading the ages costs O(n) per decision, as masking does.
#[derive(Debug)]
pub struct StalenessGate<P> {
    inner: P,
    cutoff: f64,
    /// The loads handed to the inner policy, stale entries masked.
    masked: Vec<Load>,
    /// `Some(e)` only while the inner policy's last view was a phase view
    /// of board epoch `e` showing `masked` under the gate's `epoch`.
    board_epoch: Option<u64>,
    /// The epoch the inner policy sees on phase views.
    epoch: u64,
}

impl<P: Policy> StalenessGate<P> {
    /// Gates `inner` behind a staleness `cutoff` (same time units as the
    /// simulation clock).
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` is negative or NaN.
    pub fn new(inner: P, cutoff: f64) -> Self {
        assert!(
            cutoff >= 0.0,
            "staleness cutoff must be non-negative, got {cutoff}"
        );
        Self {
            inner,
            cutoff,
            masked: Vec::new(),
            board_epoch: None,
            epoch: 0,
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The staleness cutoff.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Copies `loads` into `masked`, with entries older than the cutoff
    /// (per `ages`; all fresh without them) set to [`Load::MAX`]. Returns
    /// the number of fresh entries and whether `masked` changed.
    fn mask(&mut self, loads: &[Load], ages: Option<EntryAges<'_>>) -> (usize, bool) {
        let cutoff = self.cutoff;
        let mut changed = self.masked.len() != loads.len();
        self.masked.resize(loads.len(), Load::MAX);
        let mut valid = 0usize;
        for (server, (slot, &load)) in self.masked.iter_mut().zip(loads).enumerate() {
            let masked = if ages.is_none_or(|ages| ages.get(server) <= cutoff) {
                valid += 1;
                load
            } else {
                Load::MAX
            };
            changed |= *slot != masked;
            *slot = masked;
        }
        (valid, changed)
    }

    /// The age context to hand the inner policy with `masked`: a phase
    /// view gets the gate's epoch, advanced when the board epoch moved or
    /// the masked loads changed.
    fn rekey(&mut self, info: InfoAge, changed: bool) -> InfoAge {
        let InfoAge::Phase {
            start,
            length,
            now,
            epoch,
        } = info
        else {
            self.board_epoch = None;
            return info;
        };
        if changed || self.board_epoch != Some(epoch) {
            self.epoch += 1;
            self.board_epoch = Some(epoch);
        }
        InfoAge::Phase {
            start,
            length,
            now,
            epoch: self.epoch,
        }
    }
}

impl<P: Policy> Policy for StalenessGate<P> {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        self.select_sized(view, 1.0, rng)
    }

    fn select_sized(&mut self, view: &LoadView<'_>, size: f64, rng: &mut SimRng) -> usize {
        let n = view.loads.len();
        if view.ages.is_none() {
            // No per-entry ages: the whole view shares one age.
            if view.info.elapsed() > self.cutoff {
                return rng.index(n);
            }
            if let InfoAge::Aged { .. } = view.info {
                // Nothing to mask, and an aged view keys no inner cache.
                self.board_epoch = None;
                return self.inner.select_sized(view, size, rng);
            }
        }
        let (valid, changed) = self.mask(view.loads, view.ages);
        if valid == 0 {
            // `masked` now differs from what the inner policy last saw.
            self.board_epoch = None;
            return rng.index(n);
        }
        let info = self.rekey(view.info, changed);
        let gated = LoadView {
            loads: &self.masked,
            info,
            ages: view.ages,
        };
        self.inner.select_sized(&gated, size, rng)
    }

    fn observe_arrival(&mut self, now: f64) {
        self.inner.observe_arrival(now);
    }

    fn telemetry(&self) -> PolicyTelemetry {
        self.inner.telemetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggressiveLi, BasicLi, Greedy, Random};

    /// The decision time of the hand-built views; an entry sampled at
    /// `NOW - a` is `a` old.
    const NOW: f64 = 100.0;

    fn aged_view<'a>(loads: &'a [Load], sampled: &'a [f64]) -> LoadView<'a> {
        LoadView {
            loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: Some(EntryAges { sampled, now: NOW }),
        }
    }

    #[test]
    fn stale_entry_is_never_selected() {
        let mut rng = SimRng::from_seed(1);
        let mut gate = StalenessGate::new(Greedy::new(), 5.0);
        // Server 0 looks idle but its entry is 20 time units old.
        let view = aged_view(&[0, 2, 3], &[NOW - 20.0, NOW - 1.0, NOW - 1.0]);
        for _ in 0..200 {
            assert_ne!(gate.select(&view, &mut rng), 0);
        }
    }

    #[test]
    fn all_stale_falls_back_to_uniform_random() {
        let mut rng = SimRng::from_seed(2);
        let mut gate = StalenessGate::new(Greedy::new(), 5.0);
        let view = aged_view(&[0, 9, 9], &[NOW - 10.0, NOW - 10.0, NOW - 10.0]);
        let mut seen = [0usize; 3];
        for _ in 0..3000 {
            seen[gate.select(&view, &mut rng)] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            let f = count as f64 / 3000.0;
            assert!((f - 1.0 / 3.0).abs() < 0.05, "server {i}: {f}");
        }
    }

    #[test]
    fn fresh_entries_delegate_unchanged() {
        let mut rng_a = SimRng::from_seed(3);
        let mut rng_b = SimRng::from_seed(3);
        let mut gate = StalenessGate::new(BasicLi::new(0.9), 5.0);
        let mut plain = BasicLi::new(0.9);
        let loads = [4, 0, 2, 1];
        let sampled = [NOW - 1.0; 4];
        let view = aged_view(&loads, &sampled);
        for _ in 0..100 {
            assert_eq!(
                gate.select(&view, &mut rng_a),
                plain.select(&view, &mut rng_b)
            );
        }
    }

    #[test]
    fn uniform_age_views_gate_as_a_whole() {
        let mut rng = SimRng::from_seed(4);
        let mut gate = StalenessGate::new(Greedy::new(), 5.0);
        let loads = [0u32, 9, 9];
        let fresh = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: None,
        };
        assert_eq!(
            gate.select(&fresh, &mut rng),
            0,
            "under the cutoff: delegate"
        );
        let stale = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 50.0 },
            ages: None,
        };
        let mut seen = [0usize; 3];
        for _ in 0..3000 {
            seen[gate.select(&stale, &mut rng)] += 1;
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "over the cutoff: uniform random {seen:?}"
        );
    }

    #[test]
    fn renormalizes_li_mass_over_valid_servers() {
        let mut rng = SimRng::from_seed(5);
        let mut gate = StalenessGate::new(BasicLi::new(0.9), 5.0);
        // Both valid servers are busier than the stale one claims to be.
        let view = aged_view(&[0, 3, 3], &[NOW - 30.0, NOW - 0.5, NOW - 0.5]);
        let mut seen = [0usize; 3];
        for _ in 0..2000 {
            seen[gate.select(&view, &mut rng)] += 1;
        }
        assert_eq!(seen[0], 0, "stale server draws no LI mass");
        assert!(
            seen[1] > 0 && seen[2] > 0,
            "mass renormalizes over valid servers {seen:?}"
        );
    }

    #[test]
    fn an_entry_aging_past_the_cutoff_mid_epoch_is_masked_from_a_cached_inner() {
        // Server 0's entry was sampled at t = 0, the others at the epoch-1
        // refresh at t = 10. At t = 11 every entry is within the cutoff;
        // by t = 17 server 0's is 17 old, past it, in the same epoch.
        let loads = [0, 5, 5, 5];
        let sampled = [0.0, 10.0, 10.0, 10.0];
        let view_at = |now| LoadView {
            loads: &loads,
            info: InfoAge::Phase {
                start: 10.0,
                length: 10.0,
                now,
                epoch: 1,
            },
            ages: Some(EntryAges {
                sampled: &sampled,
                now,
            }),
        };
        let inners: [(&str, Box<dyn Policy>); 3] = [
            ("Basic LI", Box::new(BasicLi::new(0.9))),
            ("Aggressive LI", Box::new(AggressiveLi::new(0.9))),
            ("Greedy", Box::new(Greedy::new())),
        ];
        for (name, inner) in inners {
            let mut rng = SimRng::from_seed(6);
            let mut gate = StalenessGate::new(inner, 15.0);
            gate.select(&view_at(11.0), &mut rng);
            let masked_picks = (0..1000)
                .filter(|_| gate.select(&view_at(17.0), &mut rng) == 0)
                .count();
            assert_eq!(masked_picks, 0, "{name} kept its pre-cutoff cache");
        }
    }

    #[test]
    fn observe_arrival_reaches_inner_policy() {
        let mut gate = StalenessGate::new(Random, 1.0);
        gate.observe_arrival(3.0); // must not panic; Random ignores it
        assert_eq!(gate.cutoff(), 1.0);
    }
}
