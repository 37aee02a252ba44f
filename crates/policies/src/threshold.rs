//! The threshold classification policy.

use staleload_sim::{SimRng, SubsetScratch};

use crate::{Load, LoadView, Policy};

/// Threshold policy (paper §5.1, Fig. 5): classify servers as *lightly
/// loaded* (reported load ≤ threshold) or *heavily loaded*, and pick
/// uniformly at random among the lightly loaded; if none qualify, pick
/// uniformly among all servers.
///
/// Like the `k`-subset knob, the threshold trades aggressiveness against
/// herd risk: threshold 0 stampedes the (apparently) idle machines, a huge
/// threshold degenerates to oblivious random.
///
/// # Example
///
/// ```
/// use staleload_policies::{InfoAge, LoadView, Policy, Threshold};
/// use staleload_sim::SimRng;
///
/// let mut rng = SimRng::from_seed(1);
/// let loads = [5, 1, 0, 9];
/// let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 1.0 }, ages: None };
/// let mut t = Threshold::new(1);
/// let pick = t.select(&view, &mut rng);
/// assert!(pick == 1 || pick == 2, "only the lightly loaded qualify");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threshold {
    threshold: Load,
}

impl Threshold {
    /// Creates a threshold policy classifying load ≤ `threshold` as light.
    pub fn new(threshold: Load) -> Self {
        Self { threshold }
    }

    /// The classification threshold.
    pub fn threshold(&self) -> Load {
        self.threshold
    }
}

impl Policy for Threshold {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        let light = view.loads.iter().filter(|&&l| l <= self.threshold).count();
        if light == 0 {
            return rng.index(view.loads.len());
        }
        let mut pick = rng.index(light);
        for (i, &l) in view.loads.iter().enumerate() {
            if l <= self.threshold {
                if pick == 0 {
                    return i;
                }
                pick -= 1;
            }
        }
        unreachable!("light counting is exhaustive")
    }
}

/// The classic sender-initiated probing policy of Eager, Lazowska &
/// Zahorjan (the paper's refs. \[17\]/\[25\] lineage): probe up to `probes`
/// randomly chosen servers in sequence and send to the *first* whose
/// reported load is ≤ `threshold`; if every probe fails, send to the last
/// probed server (the job must go somewhere, and re-probing forever is
/// worse).
///
/// Unlike [`Threshold`] this models a bounded probing budget, so it also
/// bounds how much load information each decision consumes — the same
/// concern LI-k addresses by interpretation instead.
///
/// # Example
///
/// ```
/// use staleload_policies::{InfoAge, LoadView, Policy, ProbeThreshold};
/// use staleload_sim::SimRng;
///
/// let mut rng = SimRng::from_seed(1);
/// let loads = [9, 9, 0, 9];
/// let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 1.0 }, ages: None };
/// let mut p = ProbeThreshold::new(3, 1);
/// let hits = (0..1000).filter(|_| p.select(&view, &mut rng) == 2).count();
/// // Server 2 wins whenever it is among the first probes that succeed.
/// assert!(hits > 500, "{hits}");
/// ```
#[derive(Debug, Clone)]
pub struct ProbeThreshold {
    probes: usize,
    threshold: Load,
    scratch: SubsetScratch,
}

impl ProbeThreshold {
    /// Creates the policy with a probe budget and light-load threshold.
    ///
    /// # Panics
    ///
    /// Panics if `probes == 0`.
    pub fn new(probes: usize, threshold: Load) -> Self {
        assert!(probes > 0, "need at least one probe");
        Self {
            probes,
            threshold,
            scratch: SubsetScratch::new(),
        }
    }

    /// The probe budget.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// The light-load threshold.
    pub fn threshold(&self) -> Load {
        self.threshold
    }
}

impl Policy for ProbeThreshold {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        let n = view.loads.len();
        let budget = self.probes.min(n);
        let probed = rng.distinct_indices(budget, n, &mut self.scratch);
        for &server in probed {
            if view.loads[server] <= self.threshold {
                return server;
            }
        }
        probed[budget - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InfoAge;

    #[test]
    fn probing_stops_at_first_light_server() {
        let mut rng = SimRng::from_seed(7);
        let loads = [5u32, 0, 5, 0];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: None,
        };
        let mut p = ProbeThreshold::new(4, 0);
        for _ in 0..500 {
            let s = p.select(&view, &mut rng);
            assert!(
                s == 1 || s == 3,
                "with a full budget a light server is always found"
            );
        }
    }

    #[test]
    fn exhausted_probes_fall_back_to_last() {
        let mut rng = SimRng::from_seed(8);
        let loads = [5u32, 6, 7];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: None,
        };
        let mut p = ProbeThreshold::new(2, 0);
        let mut seen = [0usize; 3];
        for _ in 0..3000 {
            seen[p.select(&view, &mut rng)] += 1;
        }
        // All heavy: the fallback is the last probe, still uniform overall.
        for &c in &seen {
            let f = c as f64 / 3000.0;
            assert!((f - 1.0 / 3.0).abs() < 0.04, "{seen:?}");
        }
    }

    #[test]
    fn single_probe_is_oblivious() {
        let mut rng = SimRng::from_seed(9);
        let loads = [0u32, 100];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: None,
        };
        let mut p = ProbeThreshold::new(1, 0);
        let ones = (0..4000).filter(|_| p.select(&view, &mut rng) == 1).count();
        let f = ones as f64 / 4000.0;
        assert!((f - 0.5).abs() < 0.03, "{f}");
    }

    #[test]
    fn picks_uniformly_among_light() {
        let mut rng = SimRng::from_seed(1);
        let loads = [0u32, 3, 1, 8, 1];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: None,
        };
        let mut t = Threshold::new(1);
        let mut counts = [0usize; 5];
        let n = 30_000;
        for _ in 0..n {
            counts[t.select(&view, &mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert_eq!(counts[3], 0);
        for &i in &[0, 2, 4] {
            let f = counts[i] as f64 / n as f64;
            assert!((f - 1.0 / 3.0).abs() < 0.02, "server {i}: {f}");
        }
    }

    #[test]
    fn falls_back_to_uniform_when_all_heavy() {
        let mut rng = SimRng::from_seed(2);
        let loads = [5u32, 7, 6];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: None,
        };
        let mut t = Threshold::new(1);
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[t.select(&view, &mut rng)] += 1;
        }
        for &c in &counts {
            let f = c as f64 / n as f64;
            assert!((f - 1.0 / 3.0).abs() < 0.02, "{f}");
        }
    }

    #[test]
    fn huge_threshold_is_oblivious() {
        let mut rng = SimRng::from_seed(3);
        let loads = [5u32, 0];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: None,
        };
        let mut t = Threshold::new(u32::MAX);
        let mut zero = 0;
        for _ in 0..10_000 {
            if t.select(&view, &mut rng) == 0 {
                zero += 1;
            }
        }
        let f = zero as f64 / 10_000.0;
        assert!((f - 0.5).abs() < 0.03, "{f}");
    }
}
