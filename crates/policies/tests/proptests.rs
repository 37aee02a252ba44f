//! Property-based tests for the selection policies and LI math.

// Proptest closures sit outside #[test] fns, so clippy's
// allow-unwrap-in-tests does not reach them; the whole file is a test.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use staleload_policies::{
    aggressive_schedule, basic_li_probabilities, rank_distribution, AggressiveLi, BasicLi,
    DispatchPolicy, EntryAges, Greedy, InfoAge, LoadCounts, LoadView, Policy, PolicySpec,
};
use staleload_sim::SimRng;

/// Least-loaded selection by a full scan with one uniform draw among the
/// ties in index order: the per-decision reference a cached `Greedy` must
/// reproduce draw for draw.
fn least_loaded_scan(loads: &[u32], rng: &mut SimRng) -> usize {
    let min = *loads.iter().min().unwrap();
    let ties: Vec<usize> = (0..loads.len()).filter(|&i| loads[i] == min).collect();
    ties[rng.index(ties.len())]
}

fn arb_loads() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..200, 1..64)
}

fn compute_basic(loads: &[u32], r: f64) -> Vec<f64> {
    let mut probs = Vec::new();
    let mut counts = LoadCounts::default();
    basic_li_probabilities(loads, r, &mut probs, &mut counts);
    probs
}

/// Loads spanning far more values than there are servers.
fn arb_wide_loads() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..1_000_000, 1..8)
}

/// Up to 64 servers spread over more values than one 256-value histogram
/// window holds.
fn arb_spread_loads() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..2000, 1..64)
}

/// `n` servers all reporting the same load.
fn arb_equal_loads() -> impl Strategy<Value = Vec<u32>> {
    (0u32..1000, 1usize..64).prop_map(|(load, n)| vec![load; n])
}

/// Loads with some entries masked to `u32::MAX`, as a staleness gate
/// presents expired reports.
fn arb_masked_loads() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(prop_oneof![0u32..200, 0u32..200, Just(u32::MAX)], 1..32)
}

/// Views of 1 to 300 servers whose largest load is within 2 of `w`, the
/// width of LI's histogram window (`max(n, 256)` values): when the minimum
/// is 0, `w − 1` is the last load the first window holds and `w` the first
/// that needs a second window. Some views are all equal, some have one
/// server, and some mask one entry to `u32::MAX` as a staleness gate does.
fn arb_window_edge_loads() -> impl Strategy<Value = Vec<u32>> {
    (
        prop::collection::vec(0u32..300, 1..300),
        0usize..300,
        0u32..5,
    )
        .prop_map(|(mut loads, at, offset)| {
            let top = loads.len().max(256) as u32 - 2 + offset;
            for q in &mut loads {
                *q = (*q).min(top);
            }
            let at = at % loads.len();
            match at % 7 {
                0 => loads.iter_mut().for_each(|q| *q = top),
                1 => loads = vec![top],
                2 => loads[at] = u32::MAX,
                _ => loads[at] = top,
            }
            loads
        })
}

/// Views of 1 to 300 servers laid out around the end of LI's first
/// counting window, which holds the values `0..w` (`w = max(n, 256)`):
/// the minimum at `w − 2 … w + 2` or at `2w`, so the first window holds
/// the view's lowest loads or none at all, or loads straddling `w`. Some
/// views mask one entry to `u32::MAX` as a staleness gate does, some are
/// all equal; the tests add one-server views.
fn arb_window_origin_loads() -> impl Strategy<Value = Vec<u32>> {
    (
        prop::collection::vec(0u32..40, 1..301),
        0usize..6,
        0usize..300,
        0u32..4,
    )
        .prop_map(|(offsets, origin, at, shape)| {
            let n = offsets.len();
            let w = n.max(256) as u32;
            let min = [w - 2, w - 1, w, w + 1, w + 2, 2 * w][origin];
            let at = at % n;
            let mut loads: Vec<u32> = offsets.iter().map(|&d| min + d).collect();
            match shape {
                0 => loads[at] = min,
                1 => loads = offsets.iter().map(|&d| w - 20 + d).collect(),
                2 => loads[at] = u32::MAX,
                _ => loads = vec![min; n],
            }
            loads
        })
}

/// The sort-based Basic LI water fill the histogram version replaced, kept
/// as its oracle: sort `(load, id)` pairs, scan them for the largest
/// receiving count `c`, and level the first `c` servers.
fn sorted_water_fill(loads: &[u32], r: f64) -> Vec<f64> {
    let mut probs = vec![0.0; loads.len()];
    if r <= 1e-9 {
        // Below the policies' MIN_EXPECTED_ARRIVALS: least-loaded indicator.
        let min = *loads.iter().min().unwrap();
        let ties = loads.iter().filter(|&&l| l == min).count();
        for (p, &l) in probs.iter_mut().zip(loads) {
            *p = if l == min { 1.0 / ties as f64 } else { 0.0 };
        }
        return probs;
    }
    let mut sorted: Vec<(u32, usize)> = loads.iter().copied().zip(0..).collect();
    sorted.sort_unstable();
    let mut c = 1usize;
    let mut prefix = f64::from(sorted[0].0);
    let mut run = prefix;
    for (idx, &(q, _)) in sorted.iter().enumerate().skip(1) {
        run += f64::from(q);
        let count = idx + 1;
        let cost = count as f64 * f64::from(q) - run;
        if cost <= r {
            c = count;
            prefix = run;
        }
    }
    let level = (prefix + r) / c as f64;
    for &(q, server) in sorted.iter().take(c) {
        probs[server] = ((level - f64::from(q)) / r).max(0.0);
    }
    probs
}

/// The sort-based Aggressive LI schedule builder the counting version
/// replaced, kept as its oracle: `(ends, order)`.
fn sorted_schedule(loads: &[u32], total_rate: f64) -> (Vec<f64>, Vec<usize>) {
    let mut sorted: Vec<(u32, usize)> = loads.iter().copied().zip(0..).collect();
    sorted.sort_unstable();
    let order = sorted.iter().map(|&(_, s)| s).collect();
    let mut ends = Vec::new();
    let mut cum = 0.0;
    for i in 0..loads.len() - 1 {
        let step = f64::from(sorted[i + 1].0) - f64::from(sorted[i].0);
        let tau = if total_rate > 0.0 {
            (i + 1) as f64 * step / total_rate
        } else if step > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        cum += tau;
        ends.push(cum);
    }
    (ends, order)
}

/// Asserts that Basic LI gives the oracle's probabilities bit for bit.
fn check_water_fill(loads: &[u32], r: f64) -> TestCaseResult {
    let got: Vec<u64> = compute_basic(loads, r)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    let want: Vec<u64> = sorted_water_fill(loads, r)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    prop_assert_eq!(got, want, "loads {:?} r {}", loads, r);
    Ok(())
}

/// Asserts that the Aggressive LI schedule matches the oracle's order and
/// breakpoints bit for bit: the active set agrees at and just before every
/// oracle breakpoint, and once all servers are active.
fn check_schedule(loads: &[u32], rate: f64) -> TestCaseResult {
    let s = aggressive_schedule(loads, rate);
    let (ends, order) = sorted_schedule(loads, rate);
    prop_assert_eq!(
        s.active_servers(f64::INFINITY),
        &order[..],
        "loads {:?}",
        loads
    );
    prop_assert_eq!(
        s.leveling_time().map(f64::to_bits),
        ends.last().map(|e| e.to_bits())
    );
    for &end in &ends {
        for at in [end, end.next_down()] {
            let want = (ends.partition_point(|&e| e <= at) + 1).min(order.len());
            prop_assert_eq!(s.active_count(at), want, "loads {:?} at {}", loads, at);
        }
    }
    Ok(())
}

/// Asserts that Basic LI samples the prefix sum of `basic_li_probabilities`
/// bit for bit, on an aged view whose `R = λ̂·n·age` is `r` or next to it.
fn check_cdf(policy: &mut BasicLi, loads: &[u32], r: f64) -> TestCaseResult {
    let n = loads.len() as f64;
    let age = r / (policy.lambda() * n);
    let r = policy.lambda() * n * age;
    let mut acc = 0.0;
    let want: Vec<u64> = compute_basic(loads, r)
        .iter()
        .map(|p| {
            acc += p;
            acc.to_bits()
        })
        .collect();
    let view = LoadView {
        loads,
        info: InfoAge::Aged { age },
        ages: None,
    };
    let got: Vec<u64> = policy.cdf(&view).iter().map(|c| c.to_bits()).collect();
    prop_assert_eq!(got, want, "loads {:?} r {}", loads, r);
    Ok(())
}

/// Ages at which an Aggressive LI schedule changes: 0, every breakpoint
/// (the last is the leveling time) and the float just before each.
fn breakpoint_ages(loads: &[u32], total_rate: f64) -> Vec<f64> {
    let (ends, _) = sorted_schedule(loads, total_rate);
    let mut ages = vec![0.0];
    for end in ends {
        ages.push(end);
        ages.push(end.next_down());
    }
    ages
}

/// Asserts that aged Aggressive LI picks the server the schedule picks,
/// `aggressive_schedule(loads, λ̂·n).active_servers(age)[rng.index(..)]`,
/// for a few draws, and leaves the RNG where the schedule leaves it.
fn check_aged_pick(
    policy: &mut AggressiveLi,
    loads: &[u32],
    lambda: f64,
    age: f64,
    seed: u64,
) -> TestCaseResult {
    let view = LoadView {
        loads,
        info: InfoAge::Aged { age },
        ages: None,
    };
    let schedule = aggressive_schedule(loads, lambda * loads.len() as f64);
    let active = schedule.active_servers(age);
    let mut rng = SimRng::from_seed(seed);
    let mut oracle = SimRng::from_seed(seed);
    for _ in 0..4 {
        let want = active[oracle.index(active.len())];
        prop_assert_eq!(
            policy.select(&view, &mut rng),
            want,
            "loads {:?} lambda {} age {}",
            loads,
            lambda,
            age
        );
    }
    prop_assert_eq!(rng.next_u64(), oracle.next_u64());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Basic LI's sampled distribution is the prefix sum of
    /// `basic_li_probabilities` bit for bit: R from below
    /// MIN_EXPECTED_ARRIVALS to 1e12, on narrow, spread, wide, all-equal,
    /// gate-masked, window-edge and single-server views, with one policy's
    /// scratch reused throughout.
    #[test]
    fn basic_li_cdf_is_the_prefix_sum_of_its_probabilities(
        loads in arb_loads(),
        spread in arb_spread_loads(),
        wide in arb_wide_loads(),
        equal in arb_equal_loads(),
        masked in arb_masked_loads(),
        edge in arb_window_edge_loads(),
        r in prop_oneof![0.0f64..1e-9, 0.0f64..50.0, 0.0f64..5000.0, 1e6f64..1e12],
    ) {
        let mut policy = BasicLi::new(0.9);
        for view in [&loads, &spread, &wide, &equal, &masked, &edge] {
            for r in [r, r.floor(), 0.0, 1e-9] {
                check_cdf(&mut policy, view, r)?;
                check_cdf(&mut policy, &view[..1], r)?;
            }
        }
    }

    /// Aged Aggressive LI picks what the schedule picks and draws what it
    /// draws: at every breakpoint, just before it, at the leveling time and
    /// at an arbitrary age, with λ̂ = 0 and λ̂·n·age up to ~1e13, on narrow,
    /// spread, wide, all-equal, gate-masked, window-edge and single-server
    /// views.
    #[test]
    fn aged_aggressive_li_picks_what_the_schedule_picks(
        loads in arb_loads(),
        spread in arb_spread_loads(),
        wide in arb_wide_loads(),
        equal in arb_equal_loads(),
        masked in arb_masked_loads(),
        edge in arb_window_edge_loads(),
        lambda in prop_oneof![Just(0.0f64), 0.01f64..100.0],
        age in prop_oneof![0.0f64..10.0, 0.0f64..1e4, 1e6f64..1e10],
        seed in any::<u64>(),
    ) {
        let mut policy = AggressiveLi::new(lambda);
        for view in [&loads, &spread, &wide, &equal, &masked, &edge] {
            for view in [&view[..], &view[..1]] {
                let total_rate = lambda * view.len() as f64;
                for at in breakpoint_ages(view, total_rate).into_iter().chain([age]) {
                    check_aged_pick(&mut policy, view, lambda, at, seed)?;
                }
            }
        }
    }

    /// The histogram water line gives the sorted water fill's bits, across
    /// every regime of R: below MIN_EXPECTED_ARRIVALS, partial fills, and
    /// R far beyond the sum of the loads.
    #[test]
    fn basic_li_matches_the_sorted_oracle(
        loads in arb_loads(),
        r in prop_oneof![0.0f64..1e-9, 0.0f64..50.0, 0.0f64..5000.0, 1e6f64..1e12],
    ) {
        check_water_fill(&loads, r)?;
        check_water_fill(&loads, r.floor())?;
        check_water_fill(&loads[..1], r)?;
    }

    /// The same on load spans far wider than n, all-equal loads, views
    /// with gate-masked `u32::MAX` entries, and views whose largest load
    /// sits at the edge of the first histogram window, with R up to 1e12.
    #[test]
    fn basic_li_matches_the_sorted_oracle_on_odd_views(
        wide in arb_wide_loads(),
        equal in arb_equal_loads(),
        masked in arb_masked_loads(),
        edge in arb_window_edge_loads(),
        r in prop_oneof![0.0f64..1e-9, 0.0f64..50.0, 0.0f64..5000.0, 1e5f64..1e6],
    ) {
        check_water_fill(&wide, r)?;
        check_water_fill(&wide, r * 1e6)?;
        check_water_fill(&equal, r)?;
        check_water_fill(&masked, r)?;
        check_water_fill(&masked, r * 1e6)?;
        for r in [r, r.floor(), r * 1e6, 0.0] {
            check_water_fill(&edge, r)?;
            check_water_fill(&edge[..1], r)?;
        }
    }

    /// Views whose minimum sits at or past the end of the first counting
    /// window, or whose loads straddle it: Basic LI's probabilities and
    /// sampled cdf are the sorted oracle's bits, and aged Aggressive LI
    /// picks what the schedule picks at each of its breakpoints, on the
    /// whole view and on its first server alone.
    #[test]
    fn li_walks_past_the_first_window_bit_for_bit(
        view in arb_window_origin_loads(),
        r in prop_oneof![0.0f64..1e-9, 0.0f64..50.0, 0.0f64..5000.0, 1e6f64..1e12],
        lambda in prop_oneof![Just(0.0f64), 0.01f64..100.0],
        age in prop_oneof![0.0f64..10.0, 1e6f64..1e10],
        seed in any::<u64>(),
    ) {
        let mut basic = BasicLi::new(0.9);
        let mut aggressive = AggressiveLi::new(lambda);
        for view in [&view[..], &view[..1]] {
            for r in [r, r.floor(), 0.0] {
                check_water_fill(view, r)?;
                check_cdf(&mut basic, view, r)?;
            }
            let total_rate = lambda * view.len() as f64;
            let mut ages = breakpoint_ages(view, total_rate);
            ages.push(age);
            ages.sort_by(f64::total_cmp);
            ages.dedup();
            for at in ages {
                check_aged_pick(&mut aggressive, view, lambda, at, seed)?;
            }
        }
    }

    /// The counting-pass schedule gives the sorted builder's order and
    /// breakpoints, at positive and zero rates.
    #[test]
    fn aggressive_schedule_matches_the_sorted_oracle(
        loads in arb_loads(),
        wide in arb_wide_loads(),
        equal in arb_equal_loads(),
        masked in arb_masked_loads(),
        rate in prop_oneof![Just(0.0f64), 0.01f64..100.0],
    ) {
        for view in [&loads, &wide, &equal, &masked] {
            check_schedule(view, rate)?;
            check_schedule(&view[..1], rate)?;
        }
    }
}

/// One of the views [`li_policies_keep_no_state_between_views`] feeds:
/// narrow, wide, gate-masked or around the first window's end.
fn arb_any_view() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        arb_loads(),
        arb_spread_loads(),
        arb_wide_loads(),
        arb_masked_loads(),
        arb_window_origin_loads(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One LI policy object fed a random sequence of views (aged and
    /// per-phase, each phase its own epoch, of any size, masked and wide)
    /// samples the cdf and picks the server that a fresh object does on
    /// each view, from the same draws: the standing count buffer never
    /// carries a count from one view into the next.
    #[test]
    fn li_policies_keep_no_state_between_views(
        views in prop::collection::vec((arb_any_view(), any::<bool>(), 0.0f64..40.0), 1..12),
        seed in any::<u64>(),
    ) {
        let specs = [
            PolicySpec::BasicLi { lambda: 0.9 },
            PolicySpec::AggressiveLi { lambda: 0.9 },
            PolicySpec::AdaptiveLi { alpha: 0.05, warmup: 10 },
            PolicySpec::LiSubset { k: 3, lambda: 0.9 },
        ];
        let mut reused: Vec<DispatchPolicy> = specs.iter().map(DispatchPolicy::from_spec).collect();
        let mut basic = BasicLi::new(0.9);
        for (epoch, (loads, phase, age)) in views.iter().enumerate() {
            let info = if *phase {
                InfoAge::Phase { start: 0.0, length: age.max(0.1), now: age / 2.0, epoch: epoch as u64 }
            } else {
                InfoAge::Aged { age: *age }
            };
            let view = LoadView { loads, info, ages: None };
            let got: Vec<u64> = basic.cdf(&view).iter().map(|c| c.to_bits()).collect();
            let want: Vec<u64> = BasicLi::new(0.9).cdf(&view).iter().map(|c| c.to_bits()).collect();
            prop_assert_eq!(got, want, "view {} {:?}", epoch, loads);
            for (policy, spec) in reused.iter_mut().zip(&specs) {
                let mut fresh = DispatchPolicy::from_spec(spec);
                let mut rng = SimRng::from_seed(seed ^ epoch as u64);
                let mut oracle = SimRng::from_seed(seed ^ epoch as u64);
                for _ in 0..4 {
                    prop_assert_eq!(
                        policy.select(&view, &mut rng),
                        fresh.select(&view, &mut oracle),
                        "{} on view {} {:?}", spec.label(), epoch, loads
                    );
                }
            }
        }
    }
}

proptest! {
    /// Basic LI always yields a genuine probability distribution.
    #[test]
    fn basic_li_is_a_distribution(loads in arb_loads(), r in 0.0f64..1e6) {
        let probs = compute_basic(&loads, r);
        prop_assert_eq!(probs.len(), loads.len());
        prop_assert!(probs.iter().all(|&p| (0.0..=1.0 + 1e-9).contains(&p)));
        let sum: f64 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {}", sum);
    }

    /// No server ever receives a larger share than a less-loaded server.
    #[test]
    fn basic_li_is_monotone_in_load(loads in arb_loads(), r in 0.001f64..1e6) {
        let probs = compute_basic(&loads, r);
        for i in 0..loads.len() {
            for j in 0..loads.len() {
                if loads[i] < loads[j] {
                    prop_assert!(
                        probs[i] >= probs[j] - 1e-9,
                        "load {} got {} but load {} got {}",
                        loads[i], probs[i], loads[j], probs[j]
                    );
                }
            }
        }
    }

    /// Equal loads receive equal probability (fairness under ties).
    #[test]
    fn basic_li_treats_ties_equally(loads in arb_loads(), r in 0.001f64..1e6) {
        let probs = compute_basic(&loads, r);
        for i in 0..loads.len() {
            for j in 0..loads.len() {
                if loads[i] == loads[j] {
                    prop_assert!((probs[i] - probs[j]).abs() < 1e-9);
                }
            }
        }
    }

    /// The expected post-phase queue lengths never overshoot a non-receiver:
    /// receivers end at a common level that is at most the smallest
    /// non-receiver's load.
    #[test]
    fn basic_li_waterfill_invariant(loads in arb_loads(), r in 0.001f64..1e6) {
        let probs = compute_basic(&loads, r);
        let finals: Vec<f64> = loads.iter().zip(&probs)
            .map(|(&q, &p)| f64::from(q) + r * p)
            .collect();
        let receiver_level = probs.iter().zip(&finals)
            .filter(|(&p, _)| p > 1e-12)
            .map(|(_, &f)| f)
            .fold(f64::NAN, |acc, f| if acc.is_nan() { f } else { acc.max(f) });
        if receiver_level.is_nan() {
            return Ok(());
        }
        for (&q, &p) in loads.iter().zip(&probs) {
            if p <= 1e-12 {
                prop_assert!(
                    f64::from(q) >= receiver_level - 1e-6 * (1.0 + receiver_level),
                    "non-receiver load {} below level {}", q, receiver_level
                );
            }
        }
    }

    /// As R grows the distribution converges to uniform.
    #[test]
    fn basic_li_converges_to_uniform(loads in arb_loads()) {
        let n = loads.len() as f64;
        let probs = compute_basic(&loads, 1e12);
        for &p in &probs {
            prop_assert!((p - 1.0 / n).abs() < 1e-3);
        }
    }

    /// The aggressive schedule activates servers in load order and its
    /// active count is non-decreasing in elapsed time.
    #[test]
    fn aggressive_schedule_is_monotone(loads in arb_loads(), rate in 0.01f64..100.0) {
        let s = aggressive_schedule(&loads, rate);
        let mut prev = 0;
        for step in 0..50 {
            let elapsed = step as f64 * 0.5;
            let count = s.active_count(elapsed);
            prop_assert!(count >= prev);
            prop_assert!(count >= 1 && count <= loads.len());
            prev = count;
            // Active set is always a prefix of the load-sorted order.
            let active = s.active_servers(elapsed);
            let max_active = active.iter().map(|&i| loads[i]).max().unwrap();
            for (i, &l) in loads.iter().enumerate() {
                if !active.contains(&i) {
                    prop_assert!(l >= max_active || active.len() == loads.len());
                }
            }
        }
    }

    /// Past the leveling time the schedule is uniform over all servers.
    #[test]
    fn aggressive_schedule_levels_eventually(loads in arb_loads(), rate in 0.01f64..100.0) {
        let s = aggressive_schedule(&loads, rate);
        if let Some(t) = s.leveling_time() {
            prop_assert_eq!(s.active_count(t + 1.0), loads.len());
        }
    }

    /// Eq. 1 rank distributions are valid and monotone for all (n, k).
    #[test]
    fn rank_distribution_is_valid(n in 1usize..200, k_frac in 0.0f64..1.0) {
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let p = rank_distribution(n, k);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        for w in p.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!((p[0] - k as f64 / n as f64).abs() < 1e-9);
    }

    /// Every policy returns in-range servers for arbitrary views, both
    /// phase-based and aged.
    #[test]
    fn all_policies_select_in_range(
        loads in arb_loads(),
        seed in any::<u64>(),
        age in 0.0f64..100.0,
        elapsed_frac in 0.0f64..1.0,
    ) {
        let mut rng = SimRng::from_seed(seed);
        let length = age.max(0.1);
        let views = [
            LoadView { loads: &loads, info: InfoAge::Aged { age }, ages: None },
            LoadView {
                loads: &loads,
                info: InfoAge::Phase {
                    start: 50.0,
                    length,
                    now: 50.0 + elapsed_frac * length,
                    epoch: 7,
                },
                ages: None,
            },
        ];
        let specs = [
            PolicySpec::Random,
            PolicySpec::KSubset { k: 2 },
            PolicySpec::KSubset { k: 1000 },
            PolicySpec::Greedy,
            PolicySpec::Threshold { threshold: 4 },
            PolicySpec::BasicLi { lambda: 0.9 },
            PolicySpec::AggressiveLi { lambda: 0.9 },
            PolicySpec::HybridLi { lambda: 0.9 },
            PolicySpec::LiSubset { k: 3, lambda: 0.9 },
            PolicySpec::WeightedDecay { tau: 5.0 },
            PolicySpec::Gated { cutoff: 10.0, inner: Box::new(PolicySpec::Greedy) },
        ];
        for view in &views {
            for spec in &specs {
                let mut p = DispatchPolicy::from_spec(spec);
                for _ in 0..8 {
                    let s = p.select(view, &mut rng);
                    prop_assert!(s < loads.len(), "{} out of range", spec.label());
                }
            }
        }
    }

    /// Greedy never selects a server with a strictly smaller alternative.
    #[test]
    fn greedy_selects_a_minimum(loads in arb_loads(), seed in any::<u64>()) {
        let mut rng = SimRng::from_seed(seed);
        let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 1.0 }, ages: None };
        let mut g = DispatchPolicy::from_spec(&PolicySpec::Greedy);
        let min = *loads.iter().min().unwrap();
        for _ in 0..16 {
            prop_assert_eq!(loads[g.select(&view, &mut rng)], min);
        }
    }

    /// `Greedy`, which finds its tie set once per board epoch, picks the
    /// same server and leaves the RNG in the same state as a full scan,
    /// on phase views whose epoch repeats or changes (a changed epoch
    /// carries other loads, even another `n`) and on aged views.
    #[test]
    fn cached_greedy_matches_the_full_scan(
        seed in any::<u64>(),
        boards in prop::collection::vec(prop::collection::vec(0u32..4, 1..12), 1..5),
        steps in prop::collection::vec((any::<bool>(), 0usize..5), 1..48),
    ) {
        let mut greedy = Greedy::new();
        let mut rng = SimRng::from_seed(seed);
        let mut oracle = SimRng::from_seed(seed);
        for (phase, board) in steps {
            // Epoch `e` always shows board `e`.
            let epoch = board % boards.len();
            let loads = &boards[epoch];
            let info = if phase {
                InfoAge::Phase { start: 0.0, length: 10.0, now: 1.0, epoch: epoch as u64 }
            } else {
                InfoAge::Aged { age: 1.0 }
            };
            let view = LoadView { loads, info, ages: None };
            let pick = greedy.select(&view, &mut rng);
            prop_assert_eq!(pick, least_loaded_scan(loads, &mut oracle));
            prop_assert_eq!(format!("{rng:?}"), format!("{oracle:?}"));
        }
    }

    /// A staleness gate over a load-seeking inner policy never routes to
    /// a server whose entry is older than the cutoff while at least one
    /// entry is still valid, and always falls back to *some* in-range
    /// server when every entry has expired.
    #[test]
    fn gate_excludes_stale_servers(
        loads in arb_loads(),
        seed in any::<u64>(),
        cutoff in 0.5f64..50.0,
        stale_bits in prop::collection::vec(any::<bool>(), 64..65),
    ) {
        let n = loads.len();
        // Strictly fresh (cutoff/2) or strictly expired (2*cutoff) ages.
        let ages: Vec<f64> = (0..n)
            .map(|i| if stale_bits[i] { cutoff * 2.0 } else { cutoff * 0.5 })
            .collect();
        let any_valid = ages.iter().any(|&a| a <= cutoff);
        // Sampled at `-age`, read at 0: each entry is exactly its age old.
        let sampled: Vec<f64> = ages.iter().map(|a| -a).collect();
        let entry_ages = EntryAges { sampled: &sampled, now: 0.0 };
        let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 0.0 }, ages: Some(entry_ages) };
        let mut rng = SimRng::from_seed(seed);
        // Inner policies that provably put zero mass on a Load::MAX entry
        // whenever a cheaper server exists (greedy, and LI at age 0).
        let inners = [PolicySpec::Greedy, PolicySpec::BasicLi { lambda: 0.9 }];
        for inner in inners {
            let mut p = DispatchPolicy::from_spec(&PolicySpec::Gated { cutoff, inner: Box::new(inner.clone()) });
            for _ in 0..8 {
                let s = p.select(&view, &mut rng);
                prop_assert!(s < n);
                if any_valid {
                    prop_assert!(
                        ages[s] <= cutoff,
                        "{} picked stale server {} (age {}, cutoff {})",
                        inner.label(), s, ages[s], cutoff
                    );
                }
            }
        }
    }

    /// When every entry is fresh the gate is transparent: selections are
    /// bit-identical to the bare inner policy on the same RNG stream.
    #[test]
    fn gate_is_transparent_when_fresh(
        loads in arb_loads(),
        seed in any::<u64>(),
        cutoff in 1.0f64..100.0,
        age_frac in 0.0f64..1.0,
    ) {
        let sampled = vec![-cutoff * age_frac; loads.len()];
        let entry_ages = EntryAges { sampled: &sampled, now: 0.0 };
        let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 1.0 }, ages: Some(entry_ages) };
        let inner = PolicySpec::BasicLi { lambda: 0.9 };
        let mut bare = DispatchPolicy::from_spec(&inner);
        let mut gated = DispatchPolicy::from_spec(&PolicySpec::Gated { cutoff, inner: Box::new(inner) });
        let mut rng_bare = SimRng::from_seed(seed);
        let mut rng_gated = SimRng::from_seed(seed);
        for _ in 0..16 {
            prop_assert_eq!(bare.select(&view, &mut rng_bare), gated.select(&view, &mut rng_gated));
        }
    }

    /// Threshold never selects a heavy server while a light one exists.
    #[test]
    fn threshold_prefers_light(loads in arb_loads(), seed in any::<u64>(), t in 0u32..50) {
        let mut rng = SimRng::from_seed(seed);
        let view = LoadView { loads: &loads, info: InfoAge::Aged { age: 1.0 }, ages: None };
        let mut p = DispatchPolicy::from_spec(&PolicySpec::Threshold { threshold: t });
        let any_light = loads.iter().any(|&l| l <= t);
        for _ in 0..16 {
            let s = p.select(&view, &mut rng);
            if any_light {
                prop_assert!(loads[s] <= t);
            }
        }
    }
}
