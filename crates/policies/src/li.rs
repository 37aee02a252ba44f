//! The Load Interpretation (LI) probability calculations.
//!
//! These are the paper's Equations 2–5 as pure functions over a load vector
//! and an expected-arrival count `R = λ·n·T`, factored out of the policy
//! objects so they can be unit- and property-tested in isolation.

use std::ops::ControlFlow;

use staleload_sim::SimRng;

use crate::Load;

/// Smallest `R` treated as "some arrivals expected"; below this the phase is
/// effectively instantaneous and LI degenerates to least-loaded selection.
pub(crate) const MIN_EXPECTED_ARRIVALS: f64 = 1e-9;

/// Fewest load values one histogram window spans; a window spans
/// `max(n, MIN_WINDOW)` values (see [`LoadCounts`]).
const MIN_WINDOW: usize = 256;

/// Relative slack on the aged Aggressive LI reach bound `λ̂·n·age`, far
/// above the rounding the subinterval sums can carry (see
/// [`AgedAggressive::pick`]).
const REACH_MARGIN: f64 = 1e-6;

/// Computes the Basic LI send probabilities (paper Eqs. 2–4).
///
/// Given reported loads and the expected number of arrivals `R` during the
/// information epoch, fills `probs[i]` with the probability that an arriving
/// request should go to server `i` so that, in expectation, the `R` arrivals
/// level the queues as far as possible by the end of the epoch:
///
/// 1. order servers by reported load: `q_1 ≤ q_2 ≤ … ≤ q_n` (paper indexing);
/// 2. find `c`, the number of least-loaded servers that should receive jobs:
///    the largest `c ∈ [1, n]` such that `R` suffices to bring servers
///    `1..c` up to the load of server `c`, i.e.
///    `Σ_{i≤c} (q_c − q_i) ≤ R` (Eq. 3) — always satisfiable at `c = 1`;
/// 3. the `c` least-loaded servers split the arrivals so they end level:
///    `p_i = ((Σ_{j≤c} q_j + R)/c − q_i) / R` for `i ≤ c`, 0 otherwise
///    (Eq. 4, which reduces to Eq. 2 when `c = n`).
///
/// This is water-filling: the bracketed term is the common *level* the `c`
/// receiving queues reach when the expected arrivals are poured in.
///
/// The order in step 1 comes from counting the servers at each load value
/// rather than a sort (see *Sort-free water line* in `ALGORITHMS.md`): a
/// load more than `⌊R⌋` above the minimum can never receive, and the
/// counts cover at most `max(n, 256)` values at a time, so memory is `O(n)`
/// for any `R` and any spread of the loads, and the time `O(n + span)`.
///
/// When `R` is (numerically) zero the epoch is too short for probabilistic
/// leveling; the function returns the least-loaded indicator distribution
/// (uniform over the minimum-load servers), the natural fresh-information
/// limit.
///
/// `counts` is reusable scratch for the load counts.
///
/// # Panics
///
/// Panics if `loads` is empty or `expected_arrivals` is negative/NaN.
///
/// # Example
///
/// ```
/// use staleload_policies::{basic_li_probabilities, LoadCounts};
///
/// let mut probs = Vec::new();
/// let mut counts = LoadCounts::default();
/// // Two servers, queue lengths 0 and 4, expecting R = 8 arrivals:
/// // target level = (0 + 4 + 8)/2 = 6, so send 6/8 to the first, 2/8 to the second.
/// basic_li_probabilities(&[0, 4], 8.0, &mut probs, &mut counts);
/// assert!((probs[0] - 0.75).abs() < 1e-12);
/// assert!((probs[1] - 0.25).abs() < 1e-12);
/// ```
pub fn basic_li_probabilities(
    loads: &[Load],
    expected_arrivals: f64,
    probs: &mut Vec<f64>,
    counts: &mut LoadCounts,
) {
    let line = WaterLine::of_view(loads, expected_arrivals, counts);
    probs.clear();
    probs.extend(loads.iter().map(|&q| line.prob(q)));
}

/// Basic LI's water line for one view: which load values receive and with
/// what probability (see [`basic_li_probabilities`]).
///
/// The per-server policies find it from the counts of their view's loads,
/// the population engine with [`WaterLine::new`] over its board classes;
/// both pour the same levels through the same float operations.
#[derive(Debug, Clone, Copy)]
pub struct WaterLine {
    /// Lowest reported load.
    min: Load,
    /// Highest receiving load.
    top: Load,
    share: Share,
}

/// How the receivers split the traffic.
#[derive(Debug, Clone, Copy)]
enum Share {
    /// `R` is numerically zero: the least-loaded servers split it evenly.
    Even(f64),
    /// A receiver at load `q` gets `(level − q)/R`.
    Level { level: f64, r: f64 },
}

/// The water line's scan (Eqs. 3–4), poured one load value at a time in
/// increasing order.
///
/// `cost(q) = C(q)·q − S(q)`, over the `C(q)` servers with load ≤ q and
/// their load sum `S(q)`, is non-decreasing in `q` and 0 at the minimum,
/// so the scan stops at the first value `R` cannot reach. Every count, sum
/// and cost is an exact integer in f64, and cost is constant across a tie
/// group, so this finds the same `c` as scanning sorted servers one by
/// one, and the receiving set never splits a tie group.
struct Pour {
    r: f64,
    /// Servers at or below `top`, and the sum of their loads.
    receivers: u64,
    prefix: f64,
    /// The highest load poured so far that the water reaches.
    top: Load,
    /// Servers at or below the last value poured, and their load sum.
    seen: u64,
    run: f64,
}

impl Pour {
    /// # Panics
    ///
    /// Panics if `expected_arrivals` is negative or not finite.
    fn new(expected_arrivals: f64) -> Self {
        assert!(
            expected_arrivals.is_finite() && expected_arrivals >= 0.0,
            "expected arrivals must be a non-negative finite number, got {expected_arrivals}"
        );
        Self {
            r: expected_arrivals,
            receivers: 0,
            prefix: 0.0,
            top: 0,
            seen: 0,
            run: 0.0,
        }
    }

    /// Pours the water up to load value `q`, reported by `k` servers:
    /// `false`, leaving the line as it was, when `R` cannot raise every
    /// server below `q` to it. Values must come in increasing order.
    #[inline]
    fn reaches(&mut self, q: Load, k: u64) -> bool {
        self.seen += k;
        self.run += k as f64 * f64::from(q);
        if self.seen as f64 * f64::from(q) - self.run > self.r {
            return false;
        }
        self.receivers = self.seen;
        self.prefix = self.run;
        self.top = q;
        true
    }

    /// The line once the scan has stopped; `min` is the lowest load poured.
    fn line(&self, min: Load) -> WaterLine {
        // When R is numerically zero the scan stopped one value above the
        // minimum, so only the minimum's ties receive.
        let share = if self.r <= MIN_EXPECTED_ARRIVALS {
            Share::Even(1.0 / self.receivers as f64)
        } else {
            Share::Level {
                level: (self.prefix + self.r) / self.receivers as f64,
                r: self.r,
            }
        };
        WaterLine {
            min,
            top: self.top,
            share,
        }
    }
}

impl WaterLine {
    /// Finds the water line (Eqs. 3–4) for `expected_arrivals` (`R`) over
    /// `levels`: the distinct reported loads in increasing order, each with
    /// the (positive) number of servers reporting it. Reads only the levels
    /// the water reaches.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or `expected_arrivals` is negative/NaN.
    pub fn new(levels: impl IntoIterator<Item = (Load, u64)>, expected_arrivals: f64) -> Self {
        let mut pour = Pour::new(expected_arrivals);
        let mut levels = levels.into_iter();
        let (min, ties) = levels.next().expect("levels must be non-empty");
        // The minimum costs nothing, so the water always reaches it.
        pour.reaches(min, ties);
        for (q, k) in levels {
            if !pour.reaches(q, k) {
                break;
            }
        }
        pour.line(min)
    }

    /// The water line of a per-server view, from the counts of its
    /// `loads`. Raising the minimum server to `q` alone costs `q − min`, so
    /// no load above `min + ⌊R⌋` can receive and the walk stops there (the
    /// float-to-int cast floors and saturates).
    ///
    /// # Panics
    ///
    /// Panics if `loads` is empty or `expected_arrivals` is negative/NaN.
    pub(crate) fn of_view(loads: &[Load], expected_arrivals: f64, counts: &mut LoadCounts) -> Self {
        let mut pour = Pour::new(expected_arrivals);
        let min = counts.walk(loads, expected_arrivals as Load, |first, window| {
            for (i, &k) in window.iter().enumerate() {
                if k != 0 && !pour.reaches(first + i as Load, u64::from(k)) {
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        pour.line(min)
    }

    /// The send probability of a server reporting load `q` of this view.
    #[inline]
    pub fn prob(&self, q: Load) -> f64 {
        if q > self.top {
            return 0.0;
        }
        match self.share {
            Share::Even(p) => p,
            // level ≥ top ≥ q by the choice of `top`; clamp rounding residue.
            Share::Level { level, r } => ((level - f64::from(q)) / r).max(0.0),
        }
    }

    /// Overwrites `cdf` with the running sums of [`WaterLine::prob`] over
    /// `loads` in server order: the same additions of the same numbers as
    /// a prefix sum over [`basic_li_probabilities`], so the same bits.
    ///
    /// A receiver's probability depends only on its load, so it is
    /// computed once per load value into `table`, `table[q − min]` from the
    /// minimum up to one value past `top`, whose 0 every load above `top`
    /// reads: one indexed read per server. Receivers spanning more than a
    /// histogram window (`max(n, 256)` values, so only under a huge `R`)
    /// are priced one by one instead, which keeps the table `O(n)` long.
    pub(crate) fn fill_cdf(&self, loads: &[Load], table: &mut Vec<f64>, cdf: &mut Vec<f64>) {
        cdf.resize(loads.len(), 0.0);
        let mut acc = 0.0;
        if self.top - self.min < window(loads.len()) {
            // Saturating: with no load above a `top` of `Load::MAX` there is
            // nothing for the extra entry to price.
            let cap = self.top.saturating_add(1);
            table.clear();
            table.extend((self.min..=cap).map(|q| self.prob(q)));
            for (c, &q) in cdf.iter_mut().zip(loads) {
                acc += table[(q.min(cap) - self.min) as usize];
                *c = acc;
            }
        } else {
            for (c, &q) in cdf.iter_mut().zip(loads) {
                acc += self.prob(q);
                *c = acc;
            }
        }
    }
}

/// The Aggressive LI subinterval schedule for one phase (paper Eq. 5).
///
/// Servers are ordered by reported load. During subinterval `i`
/// (zero-indexed), arrivals are spread uniformly over the `i + 1`
/// least-loaded servers, with the subinterval sized so those servers reach
/// the next reported load level exactly when it ends:
/// `τ_i = (i+1)·(q_(i+1) − q_i) / (λ·n)`. After the last breakpoint all
/// servers are (believed) level and arrivals are uniform for the rest of
/// the phase.
#[derive(Debug, Clone)]
pub struct AggressiveSchedule {
    /// `ends[i]` = elapsed time at which subinterval `i` finishes
    /// (cumulative `τ`), for `i = 0..n-1`; the final "uniform" regime has no
    /// end.
    ends: Vec<f64>,
    /// Load order: `order[j]` is the id of the `j`-th least-loaded server,
    /// ties by id.
    order: Vec<usize>,
    /// Scratch for [`AggressiveSchedule::rebuild`]: the previous pass's
    /// order and one digit's bucket slots.
    moved: Vec<usize>,
    counts: Vec<u32>,
}

/// Builds the Aggressive LI schedule for the given reported loads and total
/// arrival rate `λ·n` (jobs per unit time across the whole system).
///
/// A non-positive arrival rate yields a schedule that never advances past
/// the first subinterval (all traffic to the least-loaded server), matching
/// the `R → 0` degenerate case of Basic LI.
///
/// # Panics
///
/// Panics if `loads` is empty or `total_rate` is NaN.
///
/// # Example
///
/// ```
/// use staleload_policies::aggressive_schedule;
///
/// let schedule = aggressive_schedule(&[2, 0, 1], 1.0);
/// // Early in the phase only the least-loaded server (id 1) is active.
/// assert_eq!(schedule.active_count(0.0), 1);
/// assert_eq!(schedule.active_servers(0.0), &[1]);
/// // Eventually all three share the traffic uniformly.
/// assert_eq!(schedule.active_count(1e6), 3);
/// ```
pub fn aggressive_schedule(loads: &[Load], total_rate: f64) -> AggressiveSchedule {
    let mut schedule = AggressiveSchedule::empty();
    schedule.rebuild(loads, total_rate);
    schedule
}

impl AggressiveSchedule {
    /// A schedule with no servers, to be filled by
    /// [`AggressiveSchedule::rebuild`].
    pub(crate) fn empty() -> Self {
        Self {
            ends: Vec::new(),
            order: Vec::new(),
            moved: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Rebuilds the schedule in place for new loads (see
    /// [`aggressive_schedule`]), reusing its buffers.
    pub(crate) fn rebuild(&mut self, loads: &[Load], total_rate: f64) {
        assert!(!loads.is_empty(), "loads must be non-empty");
        assert!(!total_rate.is_nan(), "total rate must not be NaN");
        self.order_by_load(loads);
        self.ends.clear();
        let mut cum = 0.0;
        for (i, pair) in self.order.windows(2).enumerate() {
            let step = f64::from(loads[pair[1]]) - f64::from(loads[pair[0]]);
            cum += subinterval(i + 1, step, total_rate);
            self.ends.push(cum);
        }
    }

    /// Fills `order` with the server ids in `(load, id)` order, without a
    /// comparison sort: a least-significant-digit radix sort of `q − min`,
    /// one stable counting pass per byte of `max − min`. Queue lengths
    /// spanning fewer than 256 values take a single pass over `max − min + 1`
    /// buckets; a staleness gate's `Load::MAX` masks take four.
    fn order_by_load(&mut self, loads: &[Load]) {
        let (min, max) = loads.iter().fold((Load::MAX, Load::MIN), |(lo, hi), &q| {
            (lo.min(q), hi.max(q))
        });
        self.order.clear();
        self.order.extend(0..loads.len());
        let mut shift = 0;
        loop {
            // This pass's digits are at most `top`, or 255 if a higher byte
            // remains.
            let top = (max - min) >> shift;
            let digit = |server: usize| (((loads[server] - min) >> shift) & 0xFF) as usize;
            self.counts.clear();
            self.counts.resize(top.min(0xFF) as usize + 1, 0);
            for &server in &self.order {
                self.counts[digit(server)] += 1;
            }
            // Exclusive prefix sums turn each digit's count into its first
            // slot; filling slots in the current order keeps the pass stable.
            let mut next = 0u32;
            for slot in &mut self.counts {
                let k = *slot;
                *slot = next;
                next += k;
            }
            self.moved.clear();
            self.moved.resize(loads.len(), 0);
            for &server in &self.order {
                let slot = &mut self.counts[digit(server)];
                self.moved[*slot as usize] = server;
                *slot += 1;
            }
            std::mem::swap(&mut self.order, &mut self.moved);
            if top <= 0xFF {
                return;
            }
            shift += 8;
        }
    }

    /// Number of least-loaded servers receiving traffic at `elapsed` time
    /// since the information was sampled.
    pub fn active_count(&self, elapsed: f64) -> usize {
        // Subinterval i covers [ends[i-1], ends[i]); zero-length
        // subintervals (load ties) are skipped by the non-strict comparison.
        let idx = self.ends.partition_point(|&e| reached(e, elapsed));
        (idx + 1).min(self.order.len())
    }

    /// The ids of the servers receiving traffic at `elapsed`.
    pub fn active_servers(&self, elapsed: f64) -> &[usize] {
        &self.order[..self.active_count(elapsed)]
    }

    /// Elapsed time after which all servers are active (`None` for a
    /// single-server schedule, `Some(+inf)` when the rate was zero and the
    /// loads were unequal).
    pub fn leveling_time(&self) -> Option<f64> {
        self.ends.last().copied()
    }
}

/// Length of the Aggressive LI subinterval in which the `seen` least-loaded
/// servers climb `step` load levels at total arrival rate `total_rate`
/// (Eq. 5's `τ`). With no arrivals a climb never ends, and a tie needs no
/// time.
fn subinterval(seen: usize, step: f64, total_rate: f64) -> f64 {
    if total_rate > 0.0 {
        seen as f64 * step / total_rate
    } else if step > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Whether a subinterval ending at `end` is over at `elapsed`, opening the
/// next one.
#[inline]
fn reached(end: f64, elapsed: f64) -> bool {
    end <= elapsed
}

/// Aggressive LI on an aged view (§4.2), without ordering the servers.
#[derive(Debug, Clone, Default)]
pub(crate) struct AgedAggressive {
    counts: LoadCounts,
    /// The load values the walk reached, each with the number of servers
    /// at or below it.
    levels: Vec<(Load, u32)>,
}

impl AgedAggressive {
    /// Picks a server uniformly among the ones active at elapsed time `age`
    /// of the schedule for `loads` at total rate `total_rate`: the same
    /// server, from the same draw, as
    /// `aggressive_schedule(loads, total_rate).active_servers(age)[rng.index(..)]`.
    ///
    /// The walk goes up the distinct loads adding the schedule's
    /// subintervals. Inside a tie group they are exact zeros, so only the
    /// steps between distinct values add anything, and the active servers
    /// are every server up to the first value whose subinterval ends past
    /// `age`. Reaching `min + d` takes at least `d/(λ̂·n)`, so the walk
    /// looks no further than `λ̂·n·age` above the minimum; [`REACH_MARGIN`]
    /// covers the rounding of the sums.
    ///
    /// # Panics
    ///
    /// Panics if `loads` is empty.
    pub(crate) fn pick(
        &mut self,
        loads: &[Load],
        total_rate: f64,
        age: f64,
        rng: &mut SimRng,
    ) -> usize {
        let reach = total_rate * age * (1.0 + REACH_MARGIN);
        // 0·∞ (no arrivals for ever, or infinite arrivals at once) bounds
        // nothing; the cast floors, saturates and takes a negative to 0.
        let reach = if reach.is_nan() {
            Load::MAX
        } else {
            reach as Load
        };
        let levels = &mut self.levels;
        levels.clear();
        let (mut end, mut seen, mut below) = (0.0, 0, 0);
        self.counts.walk(loads, reach, |first, window| {
            for (i, &k) in window.iter().enumerate() {
                if k == 0 {
                    continue;
                }
                let q = first + i as Load;
                // The first level opens at elapsed 0; each later one when
                // the servers below it have climbed to it.
                if seen > 0 {
                    end += subinterval(seen as usize, f64::from(q) - f64::from(below), total_rate);
                    if !reached(end, age) {
                        return ControlFlow::Break(());
                    }
                }
                seen += k;
                below = q;
                levels.push((q, seen));
            }
            ControlFlow::Continue(())
        });
        // The minimum's ties open together at elapsed 0 (before it, only
        // the first of them is active).
        let active = if reached(0.0, age) { seen } else { 1 };
        let pos = rng.index(active as usize) as u32;
        let at = levels.partition_point(|&(_, seen)| seen <= pos);
        let below = at.checked_sub(1).map_or(0, |i| levels[i].1);
        let value = levels[at].0;
        // Among equal loads the schedule's order is by id.
        loads
            .iter()
            .enumerate()
            .filter(|&(_, &q)| q == value)
            .nth((pos - below) as usize)
            .map(|(server, _)| server)
            .expect("the drawn rank is below its level's count")
    }
}

/// Reusable scratch for counting a view's loads (see
/// [`basic_li_probabilities`]).
///
/// It counts the servers at each load value, one window of at most
/// `max(n, 256)` consecutive values at a time, and is all zeros between
/// views: every window's walk clears the slots it counted before it
/// returns, so a view pays for the values it spans, never for the width
/// of a window.
#[derive(Debug, Clone, Default)]
pub struct LoadCounts {
    slots: Vec<u32>,
}

impl LoadCounts {
    /// Walks the distinct values of `loads` in increasing order, from the
    /// minimum to `min + reach` (saturating) at most, handing `visit` one
    /// window at a time: `visit(first, counts)` sees `counts[i]` servers at
    /// value `first + i` (`counts[0]` is positive; values no server reports
    /// count 0). The walk ends when `visit` breaks or the values run out.
    /// Returns the smallest load.
    ///
    /// The first window holds the values `0..w` (`w = max(n, 256)`),
    /// counted in the same pass that finds the largest load, and the
    /// minimum is its first occupied slot. A walk that runs past a window
    /// goes on with a window starting at the next reported load, so memory
    /// stays `O(n)` however far the loads spread (a staleness gate's
    /// `Load::MAX` masks), and every window but the last spans at least as
    /// many values as there are servers, so the time stays
    /// `O(n + span visited)`.
    ///
    /// # Panics
    ///
    /// Panics if `loads` is empty.
    fn walk(
        &mut self,
        loads: &[Load],
        reach: Load,
        mut visit: impl FnMut(Load, &[u32]) -> ControlFlow<()>,
    ) -> Load {
        assert!(!loads.is_empty(), "loads must be non-empty");
        let width = window(loads.len());
        let w = width as usize;
        if self.slots.len() < w {
            self.slots.resize(w, 0);
        }
        let slots = &mut self.slots[..w];
        let mut max = 0;
        for &q in loads {
            max = max.max(q);
            if let Some(k) = slots.get_mut(q as usize) {
                *k += 1;
            }
        }
        let (min, mut base) = match slots.iter().position(|&k| k != 0) {
            Some(min) => (min as Load, 0),
            None => {
                // Every load lies past the first window: the next one
                // starts at the minimum.
                let min = loads.iter().fold(Load::MAX, |lo, &q| lo.min(q));
                count(slots, loads, min, max);
                (min, min)
            }
        };
        let last = min.saturating_add(reach).min(max);
        let mut from = min - base;
        loop {
            // This window counted the values `base ..= base + len − 1`; its
            // walk stops at `last`.
            let len = (max - base).min(width - 1) as usize + 1;
            let stop = (last - base).min(width - 1);
            let flow = visit(base + from, &slots[from as usize..=stop as usize]);
            slots[from as usize..len].fill(0);
            let end = base + stop;
            if flow.is_break() || end == last {
                return min;
            }
            // The next window starts at the next reported load (one lies
            // above `end`: the maximum, at least `last`, does).
            let next = loads.iter().fold(
                Load::MAX,
                |next, &q| if q > end { next.min(q) } else { next },
            );
            if next > last {
                return min;
            }
            base = next;
            from = 0;
            count(slots, loads, base, max);
        }
    }
}

/// Counts the loads of the window starting at `base` into the zeroed
/// `slots`: the values from `base` up to `max`, as far as `slots` reaches.
/// Loads below `base` wrap past the window, since it stops at `max`.
fn count(slots: &mut [u32], loads: &[Load], base: Load, max: Load) {
    let len = ((max - base) as usize).min(slots.len() - 1) + 1;
    let window = &mut slots[..len];
    for &q in loads {
        if let Some(k) = window.get_mut(q.wrapping_sub(base) as usize) {
            *k += 1;
        }
    }
}

/// Load values one histogram window spans for a view of `n` servers.
fn window(n: usize) -> Load {
    Load::try_from(n.max(MIN_WINDOW)).unwrap_or(Load::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basic(loads: &[Load], r: f64) -> Vec<f64> {
        let mut probs = Vec::new();
        let mut counts = LoadCounts::default();
        basic_li_probabilities(loads, r, &mut probs, &mut counts);
        probs
    }

    fn assert_distribution(probs: &[f64]) {
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum} of {probs:?}");
        assert!(probs.iter().all(|&p| p >= 0.0), "{probs:?}");
    }

    #[test]
    fn equal_loads_give_uniform() {
        let probs = basic(&[3, 3, 3, 3], 10.0);
        assert_distribution(&probs);
        for &p in &probs {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn eq2_regime_matches_hand_computation() {
        // Loads 0 and 4 with R = 8: level 6, p = [6/8, 2/8].
        let probs = basic(&[0, 4], 8.0);
        assert_distribution(&probs);
        assert!((probs[0] - 0.75).abs() < 1e-12);
        assert!((probs[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn short_phase_concentrates_on_least_loaded() {
        // R = 5 cannot bring server 0 (load 0) up to server 1 (load 10):
        // everything goes to server 0 (the c = 1 case).
        let probs = basic(&[0, 10], 5.0);
        assert_eq!(probs, vec![1.0, 0.0]);
    }

    /// The cdf from the per-value table equals the running sum of `prob`
    /// bit for bit, whether the table prices every load or the receivers
    /// span more than a window and are priced one by one.
    fn check_cdf(loads: &[Load], r: f64, table_len: usize) {
        let mut counts = LoadCounts::default();
        let (mut table, mut cdf) = (Vec::new(), Vec::new());
        let line = WaterLine::of_view(loads, r, &mut counts);
        line.fill_cdf(loads, &mut table, &mut cdf);
        let mut acc = 0.0;
        for (&q, &c) in loads.iter().zip(&cdf) {
            acc += line.prob(q);
            assert_eq!(c.to_bits(), acc.to_bits(), "loads {loads:?} r {r}");
        }
        assert_eq!(table.len(), table_len, "loads {loads:?} r {r}");
    }

    #[test]
    fn the_table_stops_one_value_past_the_top_receiving_load() {
        // Loads [0, 2, 10], R = 5: the receivers are the loads 0 and 2, so
        // the table holds the values 0..=3 and the load 10 reads the 0 at
        // value 3.
        check_cdf(&[0, 2, 10], 5.0, 4);
        check_cdf(&[10, 2, 0, 2], 5.0, 4);
        // All at one load, or R numerically zero: the minimum and one zero.
        check_cdf(&[4, 4, 4], 1e6, 2);
        check_cdf(&[3, 1, 1], 0.0, 2);
        // A gate's masks read the zero past the water line.
        check_cdf(&[7, Load::MAX, 8], 3.0, 3);
        // Every load masked: nothing lies above a top of `Load::MAX`.
        check_cdf(&[Load::MAX; 3], 1.0, 1);
        // Receivers spanning more than a window are priced one by one,
        // with no table.
        check_cdf(&[0, 300], 1000.0, 0);
        check_cdf(&[0, 300, Load::MAX], 1e12, 0);
    }

    #[test]
    fn counts_are_zero_after_every_view() {
        let w = MIN_WINDOW as Load;
        let views: [&[Load]; 7] = [
            &[0, 2, 10],
            &[5, 5, 5],
            &[3, Load::MAX, 4],
            &[w + 3, w + 1, 2 * w + 9],
            &[0, w - 1, w, 2 * w, 3 * w + 1],
            &[Load::MAX; 4],
            &[w - 1, w + 1],
        ];
        let mut counts = LoadCounts::default();
        let mut aged = AgedAggressive::default();
        let mut rng = SimRng::from_seed(3);
        for loads in views {
            for r in [0.0, 2.0, 700.0, 1e12] {
                let _ = WaterLine::of_view(loads, r, &mut counts);
                assert!(counts.slots.iter().all(|&k| k == 0), "{loads:?} r {r}");
                let _ = aged.pick(loads, 1.0, r, &mut rng);
                assert!(
                    aged.counts.slots.iter().all(|&k| k == 0),
                    "{loads:?} age {r}"
                );
            }
        }
    }

    #[test]
    fn partial_fill_splits_by_water_level() {
        // Loads [0, 2, 10], R = 5: c = 2 (filling both to load 2 costs 2 ≤ 5,
        // filling all three to 10 costs 18 > 5); level = (0+2+5)/2 = 3.5
        // ⇒ p = [0.7, 0.3, 0].
        let probs = basic(&[0, 2, 10], 5.0);
        assert_distribution(&probs);
        assert!((probs[0] - 0.7).abs() < 1e-12, "{probs:?}");
        assert!((probs[1] - 0.3).abs() < 1e-12, "{probs:?}");
        assert_eq!(probs[2], 0.0);
    }

    #[test]
    fn tied_minimum_servers_share_equally() {
        // Two idle servers and one far-away queue: the idle pair splits the
        // traffic evenly even though R cannot reach the heavy server.
        let probs = basic(&[0, 0, 100], 10.0);
        assert_distribution(&probs);
        assert_eq!(probs[2], 0.0);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_r_degenerates_to_least_loaded() {
        let probs = basic(&[2, 0, 1, 0], 0.0);
        assert_distribution(&probs);
        assert_eq!(probs, vec![0.0, 0.5, 0.0, 0.5]);
    }

    #[test]
    fn huge_r_approaches_uniform() {
        let probs = basic(&[5, 0, 9, 2], 1e9);
        assert_distribution(&probs);
        for &p in &probs {
            assert!((p - 0.25).abs() < 1e-6, "{probs:?}");
        }
    }

    #[test]
    fn exact_boundary_r_levels_the_receiving_set() {
        // R exactly fills servers {0,1} to load 2 (cost 2): level = 2,
        // p = [1, 0, 0] — the boundary server receives mass 0 either way,
        // so both sides of the boundary agree.
        let probs = basic(&[0, 2, 10], 2.0);
        assert_distribution(&probs);
        assert!((probs[0] - 1.0).abs() < 1e-12, "{probs:?}");
        assert_eq!(probs[2], 0.0);
    }

    #[test]
    fn probabilities_are_permutation_equivariant() {
        let a = basic(&[1, 7, 3], 5.0);
        let b = basic(&[7, 3, 1], 5.0);
        assert!((a[0] - b[2]).abs() < 1e-12);
        assert!((a[1] - b[0]).abs() < 1e-12);
        assert!((a[2] - b[1]).abs() < 1e-12);
    }

    #[test]
    fn expected_fill_levels_queues() {
        // Sanity: sending R·p_i jobs to each receiving server levels them.
        let loads = [1u32, 4, 6, 30];
        let r = 20.0;
        let probs = basic(&loads, r);
        assert_distribution(&probs);
        let levels: Vec<f64> = loads
            .iter()
            .zip(&probs)
            .map(|(&q, &p)| f64::from(q) + r * p)
            .collect();
        // Receivers all end at the same level; non-receivers stay put.
        let receiving: Vec<f64> = probs
            .iter()
            .zip(&levels)
            .filter(|(&p, _)| p > 0.0)
            .map(|(_, &l)| l)
            .collect();
        for w in receiving.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "{levels:?}");
        }
        // And no receiver overshoots a non-receiver.
        let level = receiving[0];
        for (&q, &p) in loads.iter().zip(&probs) {
            if p == 0.0 {
                assert!(f64::from(q) >= level - 1e-9, "{levels:?}");
            }
        }
    }

    #[test]
    fn single_server_gets_everything() {
        assert_eq!(basic(&[42], 3.0), vec![1.0]);
        let s = aggressive_schedule(&[42], 1.0);
        assert_eq!(s.active_count(0.0), 1);
        assert_eq!(s.leveling_time(), None);
    }

    #[test]
    fn aggressive_schedule_breakpoints() {
        // Loads [0, 1, 3] at total rate 2:
        // τ_0 = 1·(1-0)/2 = 0.5 ; τ_1 = 2·(3-1)/2 = 2.0 ⇒ ends [0.5, 2.5].
        let s = aggressive_schedule(&[0, 1, 3], 2.0);
        assert_eq!(s.active_count(0.0), 1);
        assert_eq!(s.active_count(0.49), 1);
        assert_eq!(s.active_count(0.5), 2);
        assert_eq!(s.active_count(2.49), 2);
        assert_eq!(s.active_count(2.5), 3);
        assert_eq!(s.active_count(1e9), 3);
        assert!((s.leveling_time().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn aggressive_schedule_orders_servers_by_load() {
        let s = aggressive_schedule(&[5, 0, 2], 1.0);
        assert_eq!(s.active_servers(0.0), &[1]);
        assert_eq!(s.active_servers(1e9), &[1, 2, 0]);
    }

    #[test]
    fn aggressive_ties_skip_zero_length_subintervals() {
        // Two servers tied at the minimum: the first subinterval has zero
        // length, so both are active immediately.
        let s = aggressive_schedule(&[0, 0, 4], 1.0);
        assert_eq!(s.active_count(0.0), 2);
    }

    #[test]
    fn aggressive_zero_rate_never_levels() {
        let s = aggressive_schedule(&[0, 1], 0.0);
        assert_eq!(s.active_count(1e12), 1);
        assert_eq!(s.leveling_time(), Some(f64::INFINITY));
    }

    #[test]
    fn aggressive_zero_rate_with_ties_still_shares_minimum() {
        let s = aggressive_schedule(&[0, 0, 4], 0.0);
        assert_eq!(s.active_count(0.0), 2);
        assert_eq!(s.active_count(1e12), 2);
    }

    #[test]
    fn all_equal_loads_are_immediately_uniform() {
        let s = aggressive_schedule(&[2, 2, 2], 1.0);
        assert_eq!(s.active_count(0.0), 3);
        assert_eq!(s.leveling_time(), Some(0.0));
    }
}
