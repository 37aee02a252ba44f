//! Capacity-aware Load Interpretation for heterogeneous servers
//! (extension; the paper's §6 names the heterogeneous-server case as
//! future work).

use staleload_sim::SimRng;

use crate::li::MIN_EXPECTED_ARRIVALS;
use crate::{InfoAge, LoadView, Policy};

/// **Hetero LI**: Basic LI generalized to servers with different service
/// rates.
///
/// With capacities `c_i`, the quantity to level is the expected *wait*
/// `w_i = q_i / c_i`, and pouring `x_i` jobs into server `i` raises its wait
/// by `x_i / c_i`. Water-filling the expected `R = λ̂·C·T` arrivals
/// (`C = Σ c_i` total capacity) therefore gives each receiving server
/// `x_i = c_i·(L − w_i)` up to the common wait level `L`, and
/// `p_i = x_i / R`. With equal capacities this reduces exactly to Basic LI.
///
/// # Example
///
/// ```
/// use staleload_policies::{HeteroLi, InfoAge, LoadView, Policy};
/// use staleload_sim::SimRng;
///
/// let mut rng = SimRng::from_seed(1);
/// // A fast (2x) and a slow (0.5x) server with equal queue lengths: the
/// // fast server has the lower expected wait and receives the traffic.
/// let mut li = HeteroLi::new(0.9, vec![2.0, 0.5]);
/// let loads = [2, 2];
/// let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 0.0 }, ages: None };
/// assert_eq!(li.select(&view, &mut rng), 0);
/// ```
#[derive(Debug, Clone)]
pub struct HeteroLi {
    lambda: f64,
    capacities: Vec<f64>,
    total_capacity: f64,
    epoch: Option<u64>,
    probs: Vec<f64>,
    order: Vec<usize>,
}

impl HeteroLi {
    /// Creates the policy with arrival-rate estimate `lambda` (as a
    /// fraction of *total* capacity) and the per-server capacities.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative/not finite, `capacities` is empty, or
    /// any capacity is non-positive or non-finite.
    pub fn new(lambda: f64, capacities: Vec<f64>) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda estimate must be a non-negative finite number, got {lambda}"
        );
        assert!(!capacities.is_empty(), "need at least one server capacity");
        assert!(
            capacities.iter().all(|&c| c.is_finite() && c > 0.0),
            "capacities must be positive and finite"
        );
        let total_capacity = capacities.iter().sum();
        Self {
            lambda,
            capacities,
            total_capacity,
            epoch: None,
            probs: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Computes the weighted water-fill probabilities for the given loads
    /// and expected arrivals.
    fn fill(&mut self, loads: &[u32], r: f64) {
        let n = loads.len();
        assert_eq!(
            n,
            self.capacities.len(),
            "view size must match configured capacities"
        );
        self.probs.clear();
        self.probs.resize(n, 0.0);

        // Sort servers by expected wait w_i = q_i / c_i.
        self.order.clear();
        self.order.extend(0..n);
        let wait = |i: usize| f64::from(loads[i]) / self.capacities[i];
        self.order
            .sort_by(|&a, &b| wait(a).total_cmp(&wait(b)).then(a.cmp(&b)));

        if r <= MIN_EXPECTED_ARRIVALS {
            // Fresh information: pick the minimum-wait servers, weighted by
            // capacity (a 2x server should absorb 2x of the instantaneous
            // traffic among tied minima).
            let w0 = wait(self.order[0]);
            let tied: Vec<usize> = self
                .order
                .iter()
                .copied()
                .filter(|&i| wait(i) <= w0 + 1e-12)
                .collect();
            let cap_sum: f64 = tied.iter().map(|&i| self.capacities[i]).sum();
            for &i in &tied {
                self.probs[i] = self.capacities[i] / cap_sum;
            }
            return;
        }

        // Largest receiver count c with Σ_{i≤c} c_i·(w_c − w_i) ≤ R; the
        // cost is non-decreasing in c, so keep the last satisfying prefix.
        let mut receivers = 1usize;
        let mut cap_prefix = self.capacities[self.order[0]];
        let mut work_prefix = f64::from(loads[self.order[0]]); // Σ c_i w_i = Σ q_i
        let mut run_cap = cap_prefix;
        let mut run_work = work_prefix;
        for idx in 1..n {
            let i = self.order[idx];
            run_cap += self.capacities[i];
            run_work += f64::from(loads[i]);
            let cost = run_cap * wait(i) - run_work;
            if cost <= r {
                receivers = idx + 1;
                cap_prefix = run_cap;
                work_prefix = run_work;
            }
        }
        let level = (work_prefix + r) / cap_prefix;
        for &i in self.order.iter().take(receivers) {
            self.probs[i] = (self.capacities[i] * (level - wait(i)) / r).max(0.0);
        }
    }
}

impl Policy for HeteroLi {
    fn select(&mut self, view: &LoadView<'_>, rng: &mut SimRng) -> usize {
        let r = self.lambda * self.total_capacity * view.info.horizon();
        let epoch = match view.info {
            InfoAge::Phase { epoch, .. } => Some(epoch),
            InfoAge::Aged { .. } => None,
        };
        if epoch.is_none() || epoch != self.epoch || self.probs.len() != view.loads.len() {
            self.fill(view.loads, r);
            self.epoch = epoch;
        }
        rng.discrete(&self.probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probs(caps: &[f64], loads: &[u32], r_per_unit_cap_time: f64, age: f64) -> Vec<f64> {
        let mut li = HeteroLi::new(r_per_unit_cap_time, caps.to_vec());
        let view = LoadView {
            loads,
            info: InfoAge::Aged { age },
            ages: None,
        };
        let mut rng = SimRng::from_seed(1);
        let n = loads.len();
        let mut counts = vec![0usize; n];
        let draws = 200_000;
        for _ in 0..draws {
            counts[li.select(&view, &mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn equal_capacities_match_basic_li() {
        use crate::BasicLi;
        let loads = [0u32, 4];
        // λ = 1, n = 2, age 4 ⇒ R = 8 ⇒ Basic LI p = [0.75, 0.25].
        let h = probs(&[1.0, 1.0], &loads, 1.0, 4.0);
        assert!((h[0] - 0.75).abs() < 0.01, "{h:?}");
        let mut basic = BasicLi::new(1.0);
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 4.0 },
            ages: None,
        };
        let mut rng = SimRng::from_seed(2);
        let hits = (0..200_000)
            .filter(|_| basic.select(&view, &mut rng) == 0)
            .count();
        assert!((h[0] - hits as f64 / 200_000.0).abs() < 0.01);
    }

    #[test]
    fn fast_server_absorbs_proportional_share_when_level() {
        // Equal waits everywhere and a huge R: traffic splits by capacity.
        let h = probs(&[3.0, 1.0], &[3, 1], 1.0, 1e6);
        assert!((h[0] - 0.75).abs() < 0.01, "{h:?}");
        assert!((h[1] - 0.25).abs() < 0.01, "{h:?}");
    }

    #[test]
    fn fresh_info_prefers_lowest_wait_not_lowest_queue() {
        // Queue 2 on a 4x server (wait 0.5) beats queue 1 on a 0.5x server
        // (wait 2.0).
        let h = probs(&[4.0, 0.5], &[2, 1], 1.0, 0.0);
        assert!(h[0] > 0.99, "{h:?}");
    }

    #[test]
    fn hand_computed_weighted_waterfill() {
        // Capacities [2, 1], loads [0, 3] ⇒ waits [0, 3]; R = 4.
        // Filling the fast server alone to wait level w costs 2w; reaching
        // w = 3 costs 6 > 4, so only server 0 receives: p = [1, 0].
        let h = probs(&[2.0, 1.0], &[0, 3], 1.0, 4.0 / 3.0);
        assert!(h[0] > 0.99, "{h:?}");
        // R = 9: level = (3 + 9)/3 = 4 ⇒ x_0 = 2·4 = 8, x_1 = 1·(4−3) = 1.
        let h = probs(&[2.0, 1.0], &[0, 3], 1.0, 3.0);
        assert!((h[0] - 8.0 / 9.0).abs() < 0.01, "{h:?}");
        assert!((h[1] - 1.0 / 9.0).abs() < 0.01, "{h:?}");
    }

    #[test]
    fn probabilities_form_distribution() {
        let mut li = HeteroLi::new(0.9, vec![0.5, 1.5, 1.0, 2.0]);
        let loads = [5u32, 1, 0, 7];
        for age in [0.0, 0.5, 2.0, 100.0] {
            let view = LoadView {
                loads: &loads,
                info: InfoAge::Aged { age },
                ages: None,
            };
            let mut rng = SimRng::from_seed(3);
            let s = li.select(&view, &mut rng);
            assert!(s < 4);
        }
    }

    #[test]
    #[should_panic(expected = "match configured capacities")]
    fn mismatched_view_size_panics() {
        let mut li = HeteroLi::new(0.9, vec![1.0, 1.0]);
        let loads = [1u32, 2, 3];
        let view = LoadView {
            loads: &loads,
            info: InfoAge::Aged { age: 1.0 },
            ages: None,
        };
        let mut rng = SimRng::from_seed(4);
        let _ = li.select(&view, &mut rng);
    }
}
