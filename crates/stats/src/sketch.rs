//! A streaming, mergeable quantile sketch with a *pinned* compaction
//! schedule (ISSUE 8).
//!
//! Per-trial response-time distributions must merge across trials and
//! workers **bit-identically**: the worker count of a sweep must never
//! change a reported p99. Classic streaming sketches (KLL, GK) cannot
//! offer that — their compaction timing depends on the order merges
//! happen, so `merge(merge(a,b),c)` and `merge(a,merge(b,c))` hold only
//! up to rank error, not bit equality. [`TailSketch`] instead pins the
//! compacted form to a *canonical function of the input multiset*:
//!
//! * **Exact mode** — below the configured capacity the sketch is the
//!   multiset itself, kept in record order (an O(1) append per record)
//!   and put in `f64::total_cmp` order when read, so every reader sees
//!   the one sorted sequence of the multiset; quantiles are the same
//!   type-7 interpolation as [`crate::quantile`], bit for bit.
//! * **Compacted mode** — the moment the count crosses the capacity
//!   (that is the entire compaction schedule), the multiset collapses
//!   onto a fixed logarithmic grid: bucket `i` covers
//!   `[FLOOR·(1+EPS)^(i-1), FLOOR·(1+EPS)^i)`, so every count vector is
//!   determined by the multiset alone. Bucket-count addition is a
//!   multiset homomorphism, which is what makes `merge` commutative,
//!   associative, and split-invariant *exactly*, not approximately.
//!   Only the window of buckets from the one holding `min` to the one
//!   holding `max` is stored; both extremes are exact, so the window is
//!   as canonical as the counts, and it widens only when a record or a
//!   merge brings a new extreme.
//!
//! No running f64 sum is kept (f64 addition is not associative); the
//! only scalars carried across a compaction are the exact `min`, `max`,
//! and `count`, all of which merge associatively. Grid quantiles are
//! accurate to the relative half-width of one bucket
//! ([`TailSketch::RELATIVE_ERROR`], ~0.5%) for values inside the grid
//! span, plus an absolute [`TailSketch::FLOOR`] for values below it.
//!
//! Nothing here reads wall clocks or OS entropy; two processes that feed
//! the same multisets hold the same bits.

use std::sync::OnceLock;

/// Relative bucket width of the compacted grid: bucket boundaries are
/// `FLOOR·(1+EPS)^i`. Outside tests it only appears through the pinned
/// literals below (the hot path must not call libm).
#[cfg_attr(not(test), allow(dead_code))]
const EPS: f64 = 0.01;

/// Lowest grid boundary; values at or below it land in the underflow
/// bucket and are reported with absolute (not relative) error ≤ `FLOOR`.
const FLOOR: f64 = 1e-4;

/// Highest grid boundary; values at or above it land in the overflow
/// bucket, whose representative is clamped by the exact `max`.
const CEIL: f64 = 1e6;

/// Interior grid buckets: `ceil(ln(CEIL/FLOOR) / ln(1+EPS))`.
/// `ln(1e10)/ln(1.01) = 2314.06…`, kept as a literal so the array
/// length is a compile-time constant.
const INTERIOR: usize = 2315;

/// `ln(1 + EPS)` as a literal: `f64::ln_1p` is a runtime libm call, and
/// a compacted-mode record is on the engine's per-job hot path. Pinned
/// to exactly `EPS.ln_1p()`'s bits by a test.
const LN_1P_EPS: f64 = 0.009_950_330_853_168_083;

/// `1 / LN_1P_EPS` and `1 / FLOOR` as literals (pinned by tests):
/// [`grid_bucket`] multiplies by these instead of dividing, which is
/// measurably cheaper per record. The grid is *defined* by that
/// function, so the (sub-ulp) rounding difference versus division just
/// places a handful of boundary values one bucket over — every
/// determinism and error-bound property is stated against the function
/// itself and is unaffected.
const INV_LN_1P_EPS: f64 = 100.499_170_807_130_53;
const INV_FLOOR: f64 = 1e4;

/// Total buckets: underflow + interior + overflow.
const NBUCKETS: usize = INTERIOR + 2;
const _: () = assert!(NBUCKETS <= u16::MAX as usize);

/// The sketch body: the exact multiset until the pinned compaction
/// fires, the canonical grid afterwards.
#[derive(Debug, Clone)]
enum State {
    /// The multiset in record order. Readers see it through [`sorted`]:
    /// `f64::total_cmp` order, unique down to the bit pattern.
    Exact(Vec<f64>),
    /// Per-bucket counts over the occupied window of the fixed log grid.
    Compacted(Window),
}

/// The counts of grid buckets `lo ..= lo + counts.len() − 1`, from the
/// lowest occupied bucket to the highest: both ends hold a count, so two
/// windows are equal exactly when the dense grids they stand for are.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Window {
    lo: usize,
    counts: Vec<u64>,
}

impl Window {
    /// Adds `c > 0` values to bucket `i`: one bounds check while `i` is
    /// inside the window.
    #[inline]
    fn add(&mut self, i: usize, c: u64) {
        match self.counts.get_mut(i.wrapping_sub(self.lo)) {
            Some(slot) => *slot += c,
            None => self.widen_and_add(i, c),
        }
    }

    /// [`Window::add`] for a bucket outside the window: a new extreme.
    #[cold]
    #[inline(never)]
    fn widen_and_add(&mut self, i: usize, c: u64) {
        self.cover(i, i);
        self.counts[i - self.lo] += c;
    }

    /// Widens the window to take in buckets `lo ..= hi`, reallocating it
    /// at exactly its new width.
    fn cover(&mut self, lo: usize, hi: usize) {
        let (lo, hi) = match self.counts.len().checked_sub(1) {
            None => (lo, hi),
            Some(last) if lo >= self.lo && hi <= self.lo + last => return,
            Some(last) => (lo.min(self.lo), hi.max(self.lo + last)),
        };
        let mut counts = vec![0; hi - lo + 1];
        if !self.counts.is_empty() {
            counts[self.lo - lo..][..self.counts.len()].copy_from_slice(&self.counts);
        }
        *self = Self { lo, counts };
    }

    /// Adds every count of `other` (bucket-count addition).
    fn merge(&mut self, other: &Window) {
        let Some(last) = other.counts.len().checked_sub(1) else {
            return;
        };
        self.cover(other.lo, other.lo + last);
        let at = other.lo - self.lo;
        for (mine, &theirs) in self.counts[at..].iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// `(bucket, count)` of every occupied bucket, ascending.
    fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (self.lo..)
            .zip(self.counts.iter().copied())
            .filter(|&(_, c)| c > 0)
    }
}

/// A deterministic, mergeable quantile sketch (see the module docs).
#[derive(Debug, Clone)]
pub struct TailSketch {
    /// Exact-mode capacity: the compaction fires when `count` crosses it.
    cap: usize,
    state: State,
    count: u64,
    /// Exact smallest recorded value (`+∞` when empty).
    min: f64,
    /// Exact largest recorded value (`-∞` when empty).
    max: f64,
}

/// Bit-level equality: two sketches are equal iff their canonical states
/// match bit for bit (the property the merge-algebra tests pin).
impl PartialEq for TailSketch {
    fn eq(&self, other: &Self) -> bool {
        if self.cap != other.cap
            || self.count != other.count
            || self.min.to_bits() != other.min.to_bits()
            || self.max.to_bits() != other.max.to_bits()
        {
            return false;
        }
        match (&self.state, &other.state) {
            (State::Exact(a), State::Exact(b)) => {
                a.len() == b.len()
                    && sorted(a)
                        .iter()
                        .zip(&sorted(b))
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (State::Compacted(a), State::Compacted(b)) => a == b,
            _ => false,
        }
    }
}

impl TailSketch {
    /// Worst-case relative error of a compacted-mode quantile for values
    /// inside the grid span: half a bucket, `√(1+EPS) − 1`.
    pub const RELATIVE_ERROR: f64 = 0.004_987_562_112_089;

    /// Absolute error floor: values at or below this are underflow.
    pub const FLOOR: f64 = FLOOR;

    /// Default exact-mode capacity used by the simulator configuration.
    pub const DEFAULT_CAP: usize = 4096;

    /// An empty sketch that stays exact until `cap` values are held.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`; configuration layers reject that earlier
    /// with a typed error.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "sketch capacity must be at least 1");
        Self {
            cap,
            state: State::Exact(Vec::new()),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one value.
    ///
    /// # Panics
    ///
    /// Panics on NaN — a NaN response time is an engine bug, and letting
    /// it into the multiset would poison the canonical ordering.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN into a quantile sketch");
        self.count += 1;
        // The extremes are the `total_cmp` ones (as in
        // `from_exact_parts`), so they do not depend on whether -0.0 or
        // +0.0 arrived first. For non-NaN values `total_cmp` only refines
        // `<=`, so the common case still costs one float comparison.
        if x <= self.min && x.total_cmp(&self.min).is_lt() {
            self.min = x;
        }
        if x >= self.max && x.total_cmp(&self.max).is_gt() {
            self.max = x;
        }
        match &mut self.state {
            State::Exact(values) => {
                values.push(x);
                if values.len() > self.cap {
                    self.compact();
                }
            }
            State::Compacted(window) => window.add(bucket_index(x), 1),
        }
    }

    /// The pinned compaction: fires exactly when the count crosses the
    /// capacity, collapsing the exact multiset onto the fixed grid. The
    /// result depends only on the multiset, never on arrival order.
    /// `min` and `max` must still be the extremes of the held values.
    fn compact(&mut self) {
        let State::Exact(values) = &self.state else {
            return;
        };
        let mut window = Window::default();
        if !values.is_empty() {
            window.cover(bucket_index(self.min), bucket_index(self.max));
        }
        for &v in values {
            window.add(bucket_index(v), 1);
        }
        self.state = State::Compacted(window);
    }

    /// Folds `other` into `self`. Exact while the union fits under the
    /// capacity, canonical grid addition otherwise — in both cases the
    /// result depends only on the union multiset, so merging is
    /// commutative, associative, and split-invariant bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ: sketches from different
    /// configurations have different compaction schedules and must never
    /// be mixed (the experiment layer always merges trials of one
    /// config).
    pub fn merge(&mut self, other: &TailSketch) {
        assert_eq!(
            self.cap, other.cap,
            "cannot merge sketches with different capacities"
        );
        let fits_exact = matches!(
            (&self.state, &other.state),
            (State::Exact(_), State::Exact(_))
        ) && self.count + other.count <= self.cap as u64;
        // Compacting before the extremes move sizes the window to this
        // sketch's own values.
        if !fits_exact {
            self.compact();
        }
        self.count += other.count;
        if other.min.total_cmp(&self.min).is_lt() {
            self.min = other.min;
        }
        if other.max.total_cmp(&self.max).is_gt() {
            self.max = other.max;
        }
        match (&mut self.state, &other.state) {
            (State::Exact(mine), State::Exact(theirs)) => mine.extend_from_slice(theirs),
            (State::Compacted(mine), State::Exact(values)) => {
                for &v in values {
                    mine.add(bucket_index(v), 1);
                }
            }
            (State::Compacted(mine), State::Compacted(theirs)) => mine.merge(theirs),
            (State::Exact(_), State::Compacted(_)) => {
                unreachable!("compact() runs unless both sides are exact")
            }
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1). In exact mode this is bit-identical
    /// to [`crate::quantile`] over the sorted values; in compacted mode
    /// it is the representative of the bucket holding the rank-rounded
    /// order statistic, clamped to the exact `[min, max]`, accurate to
    /// [`Self::RELATIVE_ERROR`] (plus [`Self::FLOOR`] absolute for
    /// underflow values). `q = 0` and `q = 1` return the exact extremes.
    ///
    /// # Panics
    ///
    /// Panics if the sketch is empty or `q` is outside `[0, 1]`, exactly
    /// like [`crate::quantile`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "cannot take a quantile of no data");
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        match &self.state {
            State::Exact(values) => crate::quantile(&sorted(values), q),
            State::Compacted(window) => {
                // The type-7 position, rounded to the nearest order
                // statistic (interpolation is meaningless inside a
                // bucket); `round` ties away from zero, deterministic.
                let target = (q * (self.count - 1) as f64).round() as u64;
                let mut seen = 0u64;
                for (i, c) in window.occupied() {
                    seen += c;
                    if seen > target {
                        return representative(i).clamp(self.min, self.max);
                    }
                }
                // Counts always sum to `count`, so the scan cannot fall
                // through; the max is the safe degenerate answer.
                self.max
            }
        }
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest recorded value (`+∞` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact largest recorded value (`-∞` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Exact-mode capacity (the compaction threshold).
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// True while the sketch still holds the exact multiset.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self.state, State::Exact(_))
    }

    /// The exact values in `f64::total_cmp` order, if still in exact
    /// mode (for codecs).
    #[must_use]
    pub fn exact_values(&self) -> Option<Vec<f64>> {
        match &self.state {
            State::Exact(values) => Some(sorted(values)),
            State::Compacted(_) => None,
        }
    }

    /// The nonzero `(bucket, count)` pairs, if compacted (for codecs).
    #[must_use]
    pub fn bucket_entries(&self) -> Option<Vec<(usize, u64)>> {
        match &self.state {
            State::Exact(_) => None,
            State::Compacted(window) => Some(window.occupied().collect()),
        }
    }

    /// Rebuilds an exact-mode sketch from decoded values, in any wire
    /// order.
    ///
    /// # Errors
    ///
    /// Rejects a zero capacity, more values than the capacity holds, or
    /// NaN values.
    pub fn from_exact_parts(cap: usize, mut values: Vec<f64>) -> Result<Self, String> {
        if cap == 0 {
            return Err("sketch capacity must be at least 1".into());
        }
        if values.len() > cap {
            return Err(format!(
                "exact sketch holds {} values but its capacity is {cap}",
                values.len()
            ));
        }
        if values.iter().any(|v| v.is_nan()) {
            return Err("exact sketch values must not be NaN".into());
        }
        values.sort_by(f64::total_cmp);
        let count = values.len() as u64;
        let (min, max) = match (values.first(), values.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (f64::INFINITY, f64::NEG_INFINITY),
        };
        Ok(Self {
            cap,
            state: State::Exact(values),
            count,
            min,
            max,
        })
    }

    /// Rebuilds a compacted-mode sketch from decoded parts.
    ///
    /// # Errors
    ///
    /// Rejects a zero capacity, out-of-range bucket indices, counts
    /// that do not sum to `count`, a count at or below the capacity
    /// (such a sketch would still be exact), or an inverted/NaN
    /// `min`/`max` pair.
    pub fn from_bucket_parts(
        cap: usize,
        entries: &[(usize, u64)],
        count: u64,
        min: f64,
        max: f64,
    ) -> Result<Self, String> {
        if cap == 0 {
            return Err("sketch capacity must be at least 1".into());
        }
        if count <= cap as u64 {
            return Err(format!(
                "compacted sketch count {count} does not exceed the capacity {cap}"
            ));
        }
        if min.is_nan() || max.is_nan() || min > max {
            return Err(format!("invalid sketch extremes [{min}, {max}]"));
        }
        if let Some(&(i, _)) = entries.iter().find(|&&(i, _)| i >= NBUCKETS) {
            return Err(format!("bucket index {i} out of range (< {NBUCKETS})"));
        }
        let occupied = entries.iter().filter(|&&(_, c)| c > 0);
        let mut window = Window::default();
        if let (Some(lo), Some(hi)) = (
            occupied.clone().map(|&(i, _)| i).min(),
            occupied.clone().map(|&(i, _)| i).max(),
        ) {
            window.cover(lo, hi);
        }
        let mut total = 0u64;
        for &(i, c) in occupied {
            window.add(i, c);
            total += c;
        }
        if total != count {
            return Err(format!(
                "bucket counts sum to {total} but the sketch claims {count}"
            ));
        }
        Ok(Self {
            cap,
            state: State::Compacted(window),
            count,
            min,
            max,
        })
    }
}

/// An exact multiset in `f64::total_cmp` order.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted
}

/// The grid bucket holding `x`: 0 is underflow, `NBUCKETS-1` overflow.
/// This formula defines the grid; [`bucket_index`] reads its answers from
/// [`BucketTable`].
fn grid_bucket(x: f64) -> usize {
    if x <= FLOOR {
        return 0;
    }
    if x >= CEIL {
        return NBUCKETS - 1;
    }
    let i = ((x * INV_FLOOR).ln() * INV_LN_1P_EPS).floor() as usize + 1;
    i.min(NBUCKETS - 2)
}

/// [`grid_bucket`] without libm: two table loads and one comparison
/// inside the grid.
#[inline]
fn bucket_index(x: f64) -> usize {
    if x <= FLOOR {
        return 0;
    }
    if x >= CEIL {
        return NBUCKETS - 1;
    }
    let table = BUCKET_TABLE.get_or_init(BucketTable::build);
    let i = usize::from(table.start[sub_range(x)]);
    i + usize::from(x >= table.bounds[i + 1])
}

/// A positive `f64`'s bits shifted right by this leave its exponent and
/// the top 7 bits of its mantissa: a sub-range at most `2^-7` (0.78%) wide
/// relative to its values, narrower than a grid bucket (`ln(1+EPS)`,
/// 0.995%), so no sub-range holds two bucket boundaries.
const SUB_RANGE_SHIFT: u32 = 45;

/// The sub-range holding [`FLOOR`]; the table starts there.
const FIRST_SUB_RANGE: usize = (FLOOR.to_bits() >> SUB_RANGE_SHIFT) as usize;

/// Sub-ranges from the one holding [`FLOOR`] to the one holding [`CEIL`].
const SUB_RANGES: usize = (CEIL.to_bits() >> SUB_RANGE_SHIFT) as usize - FIRST_SUB_RANGE + 1;

/// The table index of the sub-range holding `x` (`FLOOR < x < CEIL`).
#[inline]
fn sub_range(x: f64) -> usize {
    (x.to_bits() >> SUB_RANGE_SHIFT) as usize - FIRST_SUB_RANGE
}

/// [`grid_bucket`] tabulated: built once per process from the formula
/// itself, immutable afterwards.
static BUCKET_TABLE: OnceLock<BucketTable> = OnceLock::new();

/// Every bucket boundary of the grid, and where each sub-range starts.
struct BucketTable {
    /// `bounds[i]`: the smallest `f64` whose bucket is at least `i`
    /// (`-∞` for bucket 0); `NBUCKETS` entries.
    bounds: Vec<f64>,
    /// `start[s]`: the bucket of sub-range `s`'s lowest value above
    /// [`FLOOR`]; its other values are in that bucket or the next.
    /// `SUB_RANGES` entries.
    start: Vec<u16>,
}

impl BucketTable {
    /// Finds each boundary by starting at its value, `FLOOR·(1+EPS)^(i−1)`,
    /// and stepping one `f64` at a time to where [`grid_bucket`] reaches
    /// `i` (at most 49 steps), then each sub-range's start bucket from the
    /// boundaries.
    fn build() -> Self {
        let mut bounds = vec![f64::NEG_INFINITY; NBUCKETS];
        for (i, bound) in bounds.iter_mut().enumerate().skip(1) {
            let mut b = (FLOOR * ((i - 1) as f64 * LN_1P_EPS).exp()).clamp(FLOOR, CEIL);
            while b > FLOOR && grid_bucket(b) >= i {
                b = b.next_down();
            }
            while grid_bucket(b) < i {
                b = b.next_up();
            }
            *bound = b;
        }
        let start = (FIRST_SUB_RANGE..FIRST_SUB_RANGE + SUB_RANGES)
            .map(|s| {
                let lowest = f64::from_bits((s as u64) << SUB_RANGE_SHIFT);
                let lowest = lowest.max(FLOOR.next_up());
                // NBUCKETS fits a u16 (asserted where it is defined).
                (bounds.partition_point(|&b| b <= lowest) - 1) as u16
            })
            .collect();
        Self { bounds, start }
    }
}

/// The reported value for bucket `i`: the geometric midpoint of its
/// bounds, so the relative error is half a bucket each way. Underflow
/// reports the floor, overflow the ceiling; both are clamped by the
/// exact extremes at the call site.
fn representative(i: usize) -> f64 {
    if i == 0 {
        return FLOOR;
    }
    if i >= NBUCKETS - 1 {
        return CEIL;
    }
    FLOOR * ((i as f64 - 0.5) * LN_1P_EPS).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hot-path literals must hold exactly the bits of the
    /// expressions they stand in for, or bucket boundaries silently
    /// shift between builds.
    #[test]
    fn hot_path_literals_are_exact() {
        assert_eq!(LN_1P_EPS.to_bits(), EPS.ln_1p().to_bits());
        assert_eq!(INV_LN_1P_EPS.to_bits(), (1.0 / LN_1P_EPS).to_bits());
        assert_eq!(INV_FLOOR.to_bits(), (1.0 / FLOOR).to_bits());
    }

    /// The table answers what the formula does: at every boundary and
    /// 2 048 ulps either side of it, at pseudo-random bit patterns across
    /// the grid, and past both of its ends.
    #[test]
    fn bucket_table_matches_the_formula() {
        let table = BUCKET_TABLE.get_or_init(BucketTable::build);
        assert_eq!(SUB_RANGES, 4260);
        assert!(table.bounds.windows(2).all(|w| w[0] < w[1]));
        for s in 0..SUB_RANGES {
            let end = ((FIRST_SUB_RANGE + s + 1) as u64) << SUB_RANGE_SHIFT;
            let highest = f64::from_bits(end - 1).min(CEIL.next_down());
            let i = usize::from(table.start[s]);
            assert!(
                i + 2 >= NBUCKETS || table.bounds[i + 2] > highest,
                "sub-range {s} holds two boundaries"
            );
        }
        let agrees = |x: f64| {
            assert_eq!(
                bucket_index(x),
                grid_bucket(x),
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        };
        for &bound in &table.bounds[1..] {
            let bits = bound.to_bits();
            for b in bits - 2048..=bits + 2048 {
                agrees(f64::from_bits(b));
            }
        }
        let (lo, hi) = (FLOOR.to_bits(), CEIL.to_bits());
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..2_000_000 {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            agrees(f64::from_bits(lo + z % (hi - lo + 1)));
        }
        for x in [
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            FLOOR.next_down(),
            FLOOR,
            FLOOR.next_up(),
            CEIL.next_down(),
            CEIL,
            CEIL.next_up(),
            f64::MAX,
            f64::INFINITY,
        ] {
            agrees(x);
        }
    }

    fn filled(cap: usize, values: &[f64]) -> TailSketch {
        let mut s = TailSketch::new(cap);
        for &v in values {
            s.record(v);
        }
        s
    }

    #[test]
    fn exact_mode_matches_stats_quantile_bit_for_bit() {
        let values = [3.25, 0.5, 9.75, 1.125, 4.5, 2.0, 7.375, 0.875];
        let s = filled(64, &values);
        assert!(s.is_exact());
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                s.quantile(q).to_bits(),
                crate::quantile(&sorted, q).to_bits(),
                "q = {q}"
            );
        }
    }

    #[test]
    fn compaction_fires_exactly_at_the_capacity() {
        let mut s = TailSketch::new(4);
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
            assert!(s.is_exact(), "still within capacity");
        }
        s.record(5.0);
        assert!(!s.is_exact(), "crossing the capacity compacts");
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn compacted_quantiles_stay_within_the_guarantee() {
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.01).collect();
        let s = filled(16, &values);
        assert!(!s.is_exact());
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = crate::quantile(&values, q);
            let got = s.quantile(q);
            let tol = exact * (2.0 * TailSketch::RELATIVE_ERROR) + TailSketch::FLOOR;
            assert!(
                (got - exact).abs() <= tol,
                "q = {q}: sketch {got} vs exact {exact} (tol {tol})"
            );
        }
        assert_eq!(s.quantile(0.0), 0.01);
        assert_eq!(s.quantile(1.0), 10.0);
    }

    #[test]
    fn record_order_does_not_change_the_bits() {
        let forward: Vec<f64> = (0..300)
            .map(|i| (i as f64 * 0.37).sin().abs() + 0.1)
            .collect();
        let mut reverse = forward.clone();
        reverse.reverse();
        for cap in [8, 512] {
            assert_eq!(filled(cap, &forward), filled(cap, &reverse), "cap {cap}");
        }
    }

    #[test]
    fn merge_of_empty_is_identity() {
        let a = filled(8, &[1.0, 2.0, 3.0]);
        let empty = TailSketch::new(8);
        let mut merged = a.clone();
        merged.merge(&empty);
        assert_eq!(merged, a);
        let mut other_way = empty.clone();
        other_way.merge(&a);
        assert_eq!(other_way, a);
        // The identity also holds once `a` is compacted.
        let a = filled(4, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let empty = TailSketch::new(4);
        let mut merged = a.clone();
        merged.merge(&empty);
        assert_eq!(merged, a);
        let mut other_way = TailSketch::new(4);
        other_way.merge(&a);
        assert_eq!(other_way, a);
    }

    #[test]
    fn merge_commutes_across_mode_boundaries() {
        // a stays exact, b is compacted; the union must be identical
        // bits regardless of the fold direction.
        let a = filled(8, &[0.5, 1.5, 2.5]);
        let b = filled(8, &(0..20).map(|i| 1.0 + i as f64).collect::<Vec<_>>());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn underflow_and_overflow_report_the_exact_extremes() {
        let mut values = vec![1e-7, 5e-5, 2e7, 3e7];
        values.extend((0..50).map(|i| 1.0 + i as f64 * 0.1));
        let s = filled(8, &values);
        assert!(!s.is_exact());
        assert_eq!(s.quantile(0.0), 1e-7);
        assert_eq!(s.quantile(1.0), 3e7);
        // Interior quantiles are clamped into the observed range.
        for q in [0.001, 0.5, 0.999] {
            let v = s.quantile(q);
            assert!((1e-7..=3e7).contains(&v), "q = {q} gave {v}");
        }
    }

    #[test]
    fn codec_round_trip_is_bit_exact() {
        let exact = filled(32, &[4.0, 1.0, 3.0, 2.0]);
        let values = exact.exact_values().expect("exact mode").to_vec();
        let back = TailSketch::from_exact_parts(32, values).expect("valid parts");
        assert_eq!(back, exact);

        let compacted = filled(8, &(0..100).map(|i| 0.5 + i as f64).collect::<Vec<_>>());
        let entries = compacted.bucket_entries().expect("compacted mode");
        let back = TailSketch::from_bucket_parts(
            8,
            &entries,
            compacted.count(),
            compacted.min(),
            compacted.max(),
        )
        .expect("valid parts");
        assert_eq!(back, compacted);
    }

    /// A compacted sketch stores exactly the buckets from its minimum's
    /// to its maximum's, however it got there.
    fn assert_window_is_the_extremes(s: &TailSketch) {
        let State::Compacted(window) = &s.state else {
            panic!("expected a compacted sketch");
        };
        assert_eq!(window.lo, bucket_index(s.min()), "window starts at min");
        assert_eq!(
            window.lo + window.counts.len() - 1,
            bucket_index(s.max()),
            "window ends at max"
        );
    }

    #[test]
    fn the_window_spans_exactly_the_extremes_buckets() {
        let mid: Vec<f64> = (0..40).map(|i| 1.0 + f64::from(i) * 0.05).collect();
        let mut s = filled(8, &mid);
        assert_window_is_the_extremes(&s);
        // New extremes arriving after the compaction widen it each way,
        // into the underflow and overflow buckets too.
        for v in [7.5, 0.25, 3e5, 1e-3, 2e7, 1e-6, 4.0] {
            s.record(v);
            assert_window_is_the_extremes(&s);
        }
        // Ascending and descending streams widen on every record.
        let rising: Vec<f64> = (0..200).map(|i| 1.1f64.powi(i)).collect();
        assert_window_is_the_extremes(&filled(4, &rising));
        let falling: Vec<f64> = rising.iter().rev().copied().collect();
        assert_window_is_the_extremes(&filled(4, &falling));
        // Merges: compacted into compacted, exact into compacted, and
        // compacted into exact (including into an empty sketch).
        let low = filled(8, &mid.iter().map(|v| v * 1e-2).collect::<Vec<_>>());
        let mut merged = s.clone();
        merged.merge(&low);
        assert_window_is_the_extremes(&merged);
        let mut merged = s.clone();
        merged.merge(&filled(8, &[9e8, 5e-9]));
        assert_window_is_the_extremes(&merged);
        let mut merged = filled(8, &[2.0, 3.0]);
        merged.merge(&low);
        assert_window_is_the_extremes(&merged);
        let mut merged = TailSketch::new(8);
        merged.merge(&s);
        assert_window_is_the_extremes(&merged);
        assert_eq!(merged, s);
        // Decoding rebuilds the same window.
        let entries = s.bucket_entries().expect("compacted");
        let back = TailSketch::from_bucket_parts(8, &entries, s.count(), s.min(), s.max())
            .expect("valid parts");
        assert_window_is_the_extremes(&back);
        assert_eq!(back, s);
    }

    #[test]
    fn invalid_decoded_parts_are_rejected() {
        assert!(TailSketch::from_exact_parts(0, vec![]).is_err());
        assert!(TailSketch::from_exact_parts(2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(TailSketch::from_exact_parts(8, vec![f64::NAN]).is_err());
        assert!(TailSketch::from_bucket_parts(8, &[(1, 9)], 9, 2.0, 1.0).is_err());
        assert!(TailSketch::from_bucket_parts(8, &[(NBUCKETS, 9)], 9, 1.0, 2.0).is_err());
        assert!(TailSketch::from_bucket_parts(8, &[(1, 5)], 9, 1.0, 2.0).is_err());
        // A "compacted" sketch that would still fit exactly is malformed.
        assert!(TailSketch::from_bucket_parts(8, &[(1, 3)], 3, 1.0, 2.0).is_err());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        TailSketch::new(8).record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_quantile_panics() {
        let _ = TailSketch::new(8).quantile(0.5);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = TailSketch::new(0);
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn mixed_capacity_merge_panics() {
        let mut a = TailSketch::new(8);
        a.merge(&TailSketch::new(16));
    }
}
