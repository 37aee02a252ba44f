//! Property tests for the mergeable quantile sketch (ISSUE 8):
//!
//! * **Differential suite** — sketch quantiles vs the exact
//!   `staleload_stats::quantile` over sorted buffers, across
//!   uniform-, Pareto-, and MMPP-shaped samples, with the error bounded
//!   by the sketch's published guarantee at p50/p99/p999.
//! * **Merge algebra** — `merge(a,b) == merge(b,a)`,
//!   `merge(merge(a,b),c) == merge(a,merge(b,c))`, and merge-of-splits
//!   equals the whole-stream sketch, all at bit level. This is exactly
//!   the property the worker pool relies on: however a sweep's trials
//!   are distributed over workers, the folded sketch is the same bits.
//! * **Exact-mode oracle** — the append-only exact phase reads exactly
//!   as the sorted-insert sketch it replaced, after any sequence of
//!   records and merges.
//! * **Dense-grid oracle** — the compacted phase, which stores only the
//!   window of buckets its values occupy, reads exactly as the dense
//!   grid of every bucket it replaced, after any sequence of records,
//!   merges and codec round-trips.

// Proptest closures sit outside #[test] fns, so clippy's
// allow-unwrap-in-tests does not reach them; the whole file is a test.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use staleload_stats::{quantile, TailSketch};

/// Uniform-shaped positive samples.
fn arb_uniform(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..50.0, 1..max_len)
}

/// Pareto-shaped samples via inverse-CDF transform of a uniform draw:
/// heavy upper tail, the regime p999 exists to measure.
fn arb_pareto(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0005f64..0.9995, 1..max_len).prop_map(|us| {
        us.into_iter()
            .map(|u| 0.5 * (1.0 - u).powf(-1.0 / 1.1))
            .collect()
    })
}

/// MMPP-shaped samples: a quiet exponential-ish phase with occasional
/// bursts an order of magnitude hotter (bimodal response times).
fn arb_mmpp(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0.001f64..0.999, 0.0f64..1.0), 1..max_len).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(u, phase)| {
                let base = -(1.0 - u).ln();
                if phase < 0.2 {
                    10.0 + 12.0 * base
                } else {
                    0.2 + base
                }
            })
            .collect()
    })
}

/// Asserts the sketch's quantile error bound against the exact values at
/// the tail program's three reporting points plus the extremes.
fn assert_within_guarantee(sketch: &TailSketch, values: &[f64]) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(sketch.quantile(0.0).to_bits(), sorted[0].to_bits());
    assert_eq!(
        sketch.quantile(1.0).to_bits(),
        sorted[sorted.len() - 1].to_bits()
    );
    for q in [0.5, 0.99, 0.999] {
        let got = sketch.quantile(q);
        if sketch.is_exact() {
            assert_eq!(
                got.to_bits(),
                quantile(&sorted, q).to_bits(),
                "exact mode must match stats::quantile bit for bit at q = {q}"
            );
            continue;
        }
        // Compacted mode reports the bucket of the rank-rounded order
        // statistic: that statistic lies between the two order
        // statistics the type-7 interpolation blends, so the bound is
        // one bucket of relative error around that bracket (plus the
        // absolute floor for underflow values).
        let pos = q * (sorted.len() - 1) as f64;
        let lo = sorted[pos.floor() as usize];
        let hi = sorted[pos.ceil() as usize];
        let eps = 2.0 * TailSketch::RELATIVE_ERROR;
        let floor = TailSketch::FLOOR;
        assert!(
            got >= lo * (1.0 - eps) - floor && got <= hi * (1.0 + eps) + floor,
            "q = {q}: sketch {got} outside [{lo}, {hi}] ± guarantee"
        );
    }
}

/// The sorted-insert exact phase the append-only one replaced, kept as
/// its oracle: the multiset in `f64::total_cmp` order, kept sorted by a
/// binary search and an insert per record and a merge-join per merge.
#[derive(Debug, Default)]
struct SortedInsert(Vec<f64>);

impl SortedInsert {
    fn record(&mut self, x: f64) {
        let at = self.0.partition_point(|v| v.total_cmp(&x).is_lt());
        self.0.insert(at, x);
    }

    fn merge(&mut self, other: &Self) {
        let (a, b) = (&self.0, &other.0);
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].total_cmp(&b[j]).is_le() {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.0 = merged;
    }
}

fn sketch_of<'a>(cap: usize, values: impl IntoIterator<Item = &'a f64>) -> TailSketch {
    let mut s = TailSketch::new(cap);
    for &v in values {
        s.record(v);
    }
    s
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts that `sketch` reads as the sorted-insert `oracle` of the same
/// stream: the count, the compaction point, equality with the sketch of
/// the multiset recorded in sorted and in reverse order, and, while exact,
/// `exact_values` and the quantiles bit for bit (once compacted, the
/// buckets and quantiles of the re-recorded multiset).
fn check_against_oracle(sketch: &TailSketch, oracle: &SortedInsert, cap: usize) -> TestCaseResult {
    let values = &oracle.0;
    prop_assert_eq!(sketch.count(), values.len() as u64);
    prop_assert_eq!(sketch.is_exact(), values.len() <= cap);
    let rebuilt = sketch_of(cap, values);
    prop_assert!(*sketch == rebuilt, "differs from the sorted re-record");
    prop_assert!(
        *sketch == sketch_of(cap, values.iter().rev()),
        "differs from the reversed re-record"
    );
    if values.is_empty() {
        return Ok(());
    }
    let qs = [0.0, 0.25, 0.5, 0.99, 0.999, 1.0];
    match sketch.exact_values() {
        Some(exact) => {
            prop_assert_eq!(bits(&exact), bits(values));
            for q in qs {
                prop_assert_eq!(sketch.quantile(q).to_bits(), quantile(values, q).to_bits());
            }
            // Same count, one value moved: a different multiset.
            let mut moved = values.clone();
            moved[0] = moved[0].next_up();
            prop_assert!(*sketch != sketch_of(cap, &moved));
        }
        None => {
            prop_assert_eq!(sketch.bucket_entries(), rebuilt.bucket_entries());
            for q in qs {
                prop_assert_eq!(sketch.quantile(q).to_bits(), rebuilt.quantile(q).to_bits());
            }
        }
    }
    Ok(())
}

/// The fixed log grid, restated independently of the sketch: bucket 0
/// holds values at or below the floor, the last bucket values at or above
/// the ceiling, and interior bucket `i` covers `[1e-4·1.01^(i−1),
/// 1e-4·1.01^i)` through the same pinned literals.
const GRID_BUCKETS: usize = 2317;
const GRID_FLOOR: f64 = 1e-4;
const GRID_CEIL: f64 = 1e6;

fn grid_bucket(x: f64) -> usize {
    if x <= GRID_FLOOR {
        return 0;
    }
    if x >= GRID_CEIL {
        return GRID_BUCKETS - 1;
    }
    let i = ((x * 1e4).ln() * 100.499_170_807_130_53).floor() as usize + 1;
    i.min(GRID_BUCKETS - 2)
}

fn grid_representative(i: usize) -> f64 {
    match i {
        0 => GRID_FLOOR,
        i if i >= GRID_BUCKETS - 1 => GRID_CEIL,
        i => GRID_FLOOR * ((i as f64 - 0.5) * 0.009_950_330_853_168_083).exp(),
    }
}

/// The dense grid the compacted phase kept before it stored only its
/// occupied window, kept as its oracle: a count for each of the 2317
/// buckets, whatever the values span.
struct DenseGrid {
    cap: usize,
    values: Vec<f64>,
    buckets: Vec<u64>,
}

impl DenseGrid {
    fn of(cap: usize, values: &[f64]) -> Self {
        let mut buckets = vec![0; GRID_BUCKETS];
        for &v in values {
            buckets[grid_bucket(v)] += 1;
        }
        let mut values = values.to_vec();
        values.sort_by(f64::total_cmp);
        Self {
            cap,
            values,
            buckets,
        }
    }

    fn is_exact(&self) -> bool {
        self.values.len() <= self.cap
    }

    fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn entries(&self) -> Option<Vec<(usize, u64)>> {
        (!self.is_exact()).then(|| {
            (0..GRID_BUCKETS)
                .filter(|&i| self.buckets[i] > 0)
                .map(|i| (i, self.buckets[i]))
                .collect()
        })
    }

    fn quantile(&self, q: f64) -> f64 {
        if self.is_exact() || q == 0.0 || q == 1.0 {
            return quantile(&self.values, q);
        }
        let target = (q * (self.values.len() - 1) as f64).round() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > target {
                return grid_representative(i).clamp(self.min(), self.max());
            }
        }
        unreachable!("the buckets hold every value")
    }

    /// Whether two sketches must compare equal: the same count and
    /// extremes, and the same multiset (exact) or dense grid (compacted).
    fn same_sketch(&self, other: &DenseGrid) -> bool {
        self.values.len() == other.values.len()
            && self.min().to_bits() == other.min().to_bits()
            && self.max().to_bits() == other.max().to_bits()
            && if self.is_exact() {
                bits(&self.values) == bits(&other.values)
            } else {
                self.buckets == other.buckets
            }
    }
}

/// Asserts that `sketch` reads as the dense-grid oracle of its multiset:
/// count, extremes, mode, quantiles and `bucket_entries`; a compacted
/// window that starts at the minimum's bucket and ends at the maximum's;
/// a codec round-trip to the same bits; and equality exactly where the
/// oracle's, against the one-pass sketch of the multiset and against one
/// with a value moved.
fn check_against_dense(sketch: &TailSketch, dense: &DenseGrid, moved: f64) -> TestCaseResult {
    let cap = dense.cap;
    prop_assert_eq!(sketch.count(), dense.values.len() as u64);
    prop_assert_eq!(sketch.is_exact(), dense.is_exact());
    prop_assert_eq!(sketch.min().to_bits(), dense.min().to_bits());
    prop_assert_eq!(sketch.max().to_bits(), dense.max().to_bits());
    let entries = sketch.bucket_entries();
    prop_assert_eq!(&entries, &dense.entries());
    if dense.values.is_empty() {
        return Ok(());
    }
    for q in [0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
        prop_assert_eq!(
            sketch.quantile(q).to_bits(),
            dense.quantile(q).to_bits(),
            "q = {}",
            q
        );
    }
    let decoded = match &entries {
        Some(entries) => {
            let (first, last) = (entries[0].0, entries[entries.len() - 1].0);
            prop_assert_eq!(first, grid_bucket(dense.min()), "window starts at min");
            prop_assert_eq!(last, grid_bucket(dense.max()), "window ends at max");
            TailSketch::from_bucket_parts(cap, entries, sketch.count(), sketch.min(), sketch.max())
        }
        None => TailSketch::from_exact_parts(cap, sketch.exact_values().unwrap()),
    };
    prop_assert!(
        decoded.unwrap() == *sketch,
        "codec round-trip changed the bits"
    );
    prop_assert!(
        *sketch == sketch_of(cap, &dense.values),
        "differs from the one-pass sketch"
    );
    // Move the middle value: equal sketches exactly where the oracle says.
    let mut other = dense.values.clone();
    let mid = other.len() / 2;
    other[mid] = moved;
    let other_dense = DenseGrid::of(cap, &other);
    prop_assert_eq!(
        *sketch == sketch_of(cap, &other),
        dense.same_sketch(&other_dense),
        "moved {} to {}",
        dense.values[mid],
        moved
    );
    Ok(())
}

/// Any value on or off the grid: interior ones, underflow (at or below
/// the floor, negatives included) and overflow (at or above the ceiling).
fn arb_grid_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.5f64..20.0,
        0.5f64..20.0,
        (-9.3f64..13.9).prop_map(f64::exp),
        -3.0f64..1e-4,
        Just(GRID_FLOOR),
        1e6f64..1e9,
        Just(GRID_CEIL),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any split of a multiset into records and merged parts, each part
    /// possibly decoded from the cache codec first, reads as the dense
    /// grid at every step, exact and compacted, whether the extremes
    /// arrive first, last, or in sorted order.
    #[test]
    fn compacted_windows_read_as_the_dense_grid(
        body in prop::collection::vec(0.8f64..5.0, 0..200),
        extremes in prop::collection::vec(arb_grid_value(), 0..40),
        order in 0usize..4,
        cuts in prop::collection::vec((0.0f64..1.0, 0usize..3), 0..6),
        cap in prop_oneof![Just(1usize), Just(8), Just(64), Just(512)],
        moved in arb_grid_value(),
    ) {
        // Order 0 records the extremes last, after the body compacted.
        let mut values = body.clone();
        values.extend_from_slice(&extremes);
        match order {
            1 => values.reverse(),
            2 => values.sort_by(f64::total_cmp),
            3 => values.sort_by(|a, b| b.total_cmp(a)),
            _ => {}
        }
        let mut ends: Vec<usize> = cuts
            .iter()
            .map(|&(at, _)| (at * values.len() as f64) as usize)
            .collect();
        ends.sort_unstable();
        ends.push(values.len());
        let mut sketch = TailSketch::new(cap);
        let mut start = 0;
        for (k, &end) in ends.iter().enumerate() {
            let chunk = &values[start..end];
            match cuts.get(k).map_or(0, |&(_, how)| how) {
                0 => chunk.iter().for_each(|&v| sketch.record(v)),
                how => {
                    let mut part = sketch_of(cap, chunk);
                    check_against_dense(&part, &DenseGrid::of(cap, chunk), moved)?;
                    if how == 2 {
                        // The part comes back through the cache codec.
                        part = match part.bucket_entries() {
                            Some(entries) => TailSketch::from_bucket_parts(
                                cap, &entries, part.count(), part.min(), part.max(),
                            ),
                            None => TailSketch::from_exact_parts(cap, part.exact_values().unwrap()),
                        }
                        .unwrap();
                    }
                    sketch.merge(&part);
                }
            }
            check_against_dense(&sketch, &DenseGrid::of(cap, &values[..end]), moved)?;
            start = end;
        }
    }

    /// Any sequence of records and merges, over any split of a stream,
    /// leaves the append-only sketch reading as the sorted-insert oracle,
    /// before, at and after the compaction.
    #[test]
    fn exact_mode_reads_as_the_sorted_insert_oracle(
        values in arb_mmpp(300),
        cuts in prop::collection::vec((0.0f64..1.0, any::<bool>()), 0..8),
        cap in prop_oneof![Just(16usize), Just(64), Just(512)],
    ) {
        let mut ends: Vec<usize> = cuts
            .iter()
            .map(|&(at, _)| (at * values.len() as f64) as usize)
            .collect();
        ends.sort_unstable();
        ends.push(values.len());
        let mut sketch = TailSketch::new(cap);
        let mut oracle = SortedInsert::default();
        let mut start = 0;
        for (k, &end) in ends.iter().enumerate() {
            let chunk = &values[start..end];
            if cuts.get(k).is_some_and(|&(_, merge)| merge) {
                // The chunk arrives as a sketch of its own.
                let part = sketch_of(cap, chunk);
                let mut part_oracle = SortedInsert::default();
                for &v in chunk {
                    part_oracle.record(v);
                }
                check_against_oracle(&part, &part_oracle, cap)?;
                sketch.merge(&part);
                oracle.merge(&part_oracle);
            } else {
                for &v in chunk {
                    sketch.record(v);
                    oracle.record(v);
                }
            }
            check_against_oracle(&sketch, &oracle, cap)?;
            start = end;
        }
    }

    /// Differential: uniform samples, both exact and compacted regimes
    /// (cap 512 leaves short vectors exact and long ones compacted).
    #[test]
    fn uniform_quantiles_within_guarantee(values in arb_uniform(900)) {
        let mut s = TailSketch::new(512);
        for &v in &values {
            s.record(v);
        }
        assert_within_guarantee(&s, &values);
    }

    /// Differential: Pareto-shaped heavy tails.
    #[test]
    fn pareto_quantiles_within_guarantee(values in arb_pareto(900)) {
        let mut s = TailSketch::new(256);
        for &v in &values {
            s.record(v);
        }
        assert_within_guarantee(&s, &values);
    }

    /// Differential: MMPP-shaped bimodal samples.
    #[test]
    fn mmpp_quantiles_within_guarantee(values in arb_mmpp(900)) {
        let mut s = TailSketch::new(256);
        for &v in &values {
            s.record(v);
        }
        assert_within_guarantee(&s, &values);
    }

    /// Merge commutes at bit level, at a capacity small enough that the
    /// union usually compacts and large enough that it sometimes stays
    /// exact — both paths are exercised.
    #[test]
    fn merge_commutes(a in arb_mmpp(200), b in arb_pareto(200)) {
        for cap in [16usize, 1024] {
            let mut sa = TailSketch::new(cap);
            for &v in &a {
                sa.record(v);
            }
            let mut sb = TailSketch::new(cap);
            for &v in &b {
                sb.record(v);
            }
            let mut ab = sa.clone();
            ab.merge(&sb);
            let mut ba = sb.clone();
            ba.merge(&sa);
            prop_assert!(ab == ba, "merge must commute bit for bit at cap {}", cap);
        }
    }

    /// Merge associates at bit level.
    #[test]
    fn merge_associates(
        a in arb_uniform(150),
        b in arb_pareto(150),
        c in arb_mmpp(150),
    ) {
        for cap in [16usize, 1024] {
            let sketch_of = |vs: &[f64]| {
                let mut s = TailSketch::new(cap);
                for &v in vs {
                    s.record(v);
                }
                s
            };
            let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
            let mut left = sa.clone();
            left.merge(&sb);
            left.merge(&sc);
            let mut bc = sb.clone();
            bc.merge(&sc);
            let mut right = sa.clone();
            right.merge(&bc);
            prop_assert!(left == right, "merge must associate bit for bit at cap {}", cap);
        }
    }

    /// Merging the sketches of any split of a stream equals sketching
    /// the whole stream — the exact situation of per-trial sketches
    /// folded by the runner, whatever the worker layout.
    #[test]
    fn merge_of_splits_equals_whole_stream(
        values in arb_mmpp(600),
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        for cap in [16usize, 512] {
            let mut whole = TailSketch::new(cap);
            for &v in &values {
                whole.record(v);
            }
            let i = (cut_a * values.len() as f64) as usize;
            let j = (cut_b * values.len() as f64) as usize;
            let (i, j) = (i.min(j), i.max(j));
            let mut folded = TailSketch::new(cap);
            for part in [&values[..i], &values[i..j], &values[j..]] {
                let mut s = TailSketch::new(cap);
                for &v in part {
                    s.record(v);
                }
                folded.merge(&s);
            }
            prop_assert!(
                folded == whole,
                "merge of splits must equal the whole-stream sketch at cap {}",
                cap
            );
        }
    }
}

// Signed zeros: `==` calls -0.0 and +0.0 equal, but the sketch's
// equality and codec are bit-level, so the extremes must be the
// `f64::total_cmp` ones whatever order the zeros arrive in.

#[test]
fn signed_zero_extremes_do_not_depend_on_record_order() {
    let a = sketch_of(8, &[0.0, -0.0, 1.0]);
    let b = sketch_of(8, &[-0.0, 0.0, 1.0]);
    assert_eq!(a.min().to_bits(), (-0.0f64).to_bits());
    assert!(a == b, "one multiset, two record orders");
}

#[test]
fn signed_zero_sketch_equals_its_exact_round_trip() {
    let a = sketch_of(8, &[0.0, -0.0, 1.0]);
    let values = a.exact_values().unwrap();
    let back = TailSketch::from_exact_parts(8, values).unwrap();
    assert!(a == back, "codec round-trip must be bit-exact");
}

#[test]
fn signed_zero_merge_commutes() {
    let neg = sketch_of(8, &[-0.0]);
    let pos = sketch_of(8, &[0.0]);
    let mut neg_then_pos = neg.clone();
    neg_then_pos.merge(&pos);
    let mut pos_then_neg = pos.clone();
    pos_then_neg.merge(&neg);
    assert!(
        neg_then_pos == pos_then_neg,
        "merge must commute on signed zeros"
    );
}
