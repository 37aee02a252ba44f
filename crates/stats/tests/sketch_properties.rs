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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
