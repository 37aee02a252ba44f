//! Oracle property tests: the binary-heap [`EventQueue`] must match a
//! trivially correct model (a sorted `Vec` popped from the front, whose
//! hold is a pop then a push).
//!
//! The model keeps `(time, push-sequence)` pairs sorted ascending with a
//! stable tie-break on sequence, which *is* the scheduler contract. Any
//! interleaving of pushes and pops — including coincident timestamps,
//! which the strategies below generate deliberately by quantizing times
//! onto a coarse grid, and the edge times `-0.0`, `+0.0`, the smallest
//! subnormal and normal times and `+∞` that the heap's integer key must
//! order as their values — must produce the same `(time bits, payload)`
//! stream from both.

// Proptest closures sit outside #[test] fns, so clippy's
// allow-unwrap-in-tests does not reach them; the whole file is a test.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use staleload_sim::{EventQueue, EventScheduler, SchedError};

/// Sorted-`Vec` reference model of the scheduler contract.
#[derive(Default)]
struct ModelQueue {
    entries: Vec<(f64, u64, u32)>,
    seq: u64,
}

impl ModelQueue {
    fn push(&mut self, time: f64, payload: u32) {
        let seq = self.seq;
        self.seq += 1;
        let pos = self
            .entries
            .partition_point(|&(t, s, _)| t < time || (t == time && s < seq));
        self.entries.insert(pos, (time, seq, payload));
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        if self.entries.is_empty() {
            None
        } else {
            let (t, _, p) = self.entries.remove(0);
            Some((t, p))
        }
    }

    /// The hold's contract: a pop, then a push.
    fn hold(&mut self, time: f64, payload: u32) -> Option<(f64, u32)> {
        let head = self.pop();
        self.push(time, payload);
        head
    }
}

/// One step of a scheduler workload.
#[derive(Debug, Clone)]
enum Op {
    Push(f64),
    Pop,
    Hold(f64),
}

/// The edge times: `-0.0` and `+0.0` (equal, with different bits), the
/// next time above zero (the smallest subnormal, whose bits are the lowest
/// positive key), the smallest normal time and `+∞`.
const EDGE_TIMES: [f64; 5] = [
    -0.0,
    0.0,
    f64::from_bits(1),
    f64::MIN_POSITIVE,
    f64::INFINITY,
];

/// Workloads that mix pushes, pops and holds and *frequently* collide
/// timestamps: times are drawn from a small grid (quantized to steps of
/// 0.25 over a narrow range) or from [`EDGE_TIMES`], so FIFO tie-breaking
/// is exercised constantly, bursts at the edge times included.
fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    // (The vendored prop_oneof! has no weighted arms; repeated arms give
    // the 3:1:1:2:1:1 push-coarse/push-fine/push-edge/pop/hold-coarse/
    // hold-edge mix instead.)
    prop::collection::vec(
        prop_oneof![
            (0u32..64).prop_map(|q| Op::Push(q as f64 * 0.25)),
            (0u32..64).prop_map(|q| Op::Push(q as f64 * 0.25)),
            (0u32..64).prop_map(|q| Op::Push(q as f64 * 0.25)),
            (0u32..1024).prop_map(|q| Op::Push(q as f64 * 0.125)),
            (0..EDGE_TIMES.len()).prop_map(|i| Op::Push(EDGE_TIMES[i])),
            Just(Op::Pop),
            Just(Op::Pop),
            (0u32..64).prop_map(|q| Op::Hold(q as f64 * 0.25)),
            (0..EDGE_TIMES.len()).prop_map(|i| Op::Hold(EDGE_TIMES[i])),
        ],
        1..max_len,
    )
}

/// Drives the heap and the model through `ops`, checking each pop agrees
/// bit-for-bit. Pushed payloads are the op index, so a mismatch names the
/// exact push that diverged.
fn check_against_model(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut heap: EventQueue<u32> = EventScheduler::new();
    let mut model = ModelQueue::default();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(t) => {
                heap.try_push(t, i as u32).unwrap();
                model.push(t, i as u32);
            }
            Op::Pop => {
                let h = heap.pop();
                let m = model.pop();
                prop_assert_eq!(
                    h.map(|(t, p)| (t.to_bits(), p)),
                    m.map(|(t, p)| (t.to_bits(), p)),
                    "heap vs model diverged at op {}",
                    i
                );
            }
            Op::Hold(t) => {
                let h = heap.try_hold(t, i as u32).unwrap();
                let m = model.hold(t, i as u32);
                prop_assert_eq!(
                    h.map(|(t, p)| (t.to_bits(), p)),
                    m.map(|(t, p)| (t.to_bits(), p)),
                    "heap vs model diverged at hold {}",
                    i
                );
            }
        }
    }
    // Drain: emptiness and residual order must also agree.
    loop {
        let h = heap.pop();
        let m = model.pop();
        prop_assert_eq!(
            h.map(|(t, p)| (t.to_bits(), p)),
            m.map(|(t, p)| (t.to_bits(), p))
        );
        if m.is_none() {
            break;
        }
    }
    Ok(())
}

proptest! {
    /// Random push/pop interleavings with coincident timestamps pop
    /// identically from the heap and the sorted-`Vec` model.
    #[test]
    fn heap_matches_model_on_random_interleavings(ops in ops_strategy(300)) {
        check_against_model(&ops)?;
    }

    /// Same property on scripts of up to 2 000 operations, which grow the
    /// heap through several reallocations.
    #[test]
    fn heap_matches_model_on_long_scripts(ops in ops_strategy(2000)) {
        check_against_model(&ops)?;
    }

    /// Wide-range times, twelve orders of magnitude apart, still pop in
    /// order.
    #[test]
    fn heap_matches_model_on_sparse_times(
        times in prop::collection::vec(0.0f64..1e12, 1..100),
    ) {
        let ops: Vec<Op> = times
            .iter()
            .map(|&t| Op::Push(t))
            .chain(std::iter::repeat_with(|| Op::Pop).take(times.len()))
            .collect();
        check_against_model(&ops)?;
    }

    /// NaN and negative times are rejected with a typed error and leave
    /// the queue untouched, by a push and by a hold alike.
    #[test]
    fn heap_rejects_bad_times_with_typed_errors(mag in 0.1f64..1e9) {
        let mut heap: EventQueue<u32> = EventScheduler::new();
        prop_assert_eq!(heap.try_push(f64::NAN, 0), Err(SchedError::NanTime));
        prop_assert_eq!(heap.try_push(-mag, 0), Err(SchedError::NegativeTime(-mag)));
        prop_assert_eq!(heap.try_hold(f64::NAN, 0), Err(SchedError::NanTime));
        prop_assert_eq!(heap.try_hold(-mag, 0), Err(SchedError::NegativeTime(-mag)));
        prop_assert!(heap.is_empty());
        // A rejected hold pops nothing and pushes nothing: the queue pops
        // as if it never happened.
        heap.try_push(1.0, 1).unwrap();
        heap.try_push(1.0, 2).unwrap();
        prop_assert_eq!(heap.try_hold(-mag, 9), Err(SchedError::NegativeTime(-mag)));
        prop_assert_eq!(heap.try_hold(f64::NAN, 9), Err(SchedError::NanTime));
        heap.try_push(1.0, 3).unwrap();
        let popped: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
        prop_assert_eq!(popped, vec![(1.0, 1), (1.0, 2), (1.0, 3)]);
    }
}

/// A hold on an empty queue only pushes, and its entry ties FIFO with
/// later pushes at the same time.
#[test]
fn hold_on_an_empty_queue_pushes() {
    let mut heap: EventQueue<u32> = EventScheduler::new();
    assert_eq!(heap.try_hold(2.0, 0), Ok(None));
    heap.try_push(2.0, 1).unwrap();
    assert_eq!(heap.try_hold(2.0, 2), Ok(Some((2.0, 0))));
    let popped: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
    assert_eq!(popped, [(2.0, 1), (2.0, 2)]);
}

/// Deterministic regression: a pure FIFO burst (all timestamps equal),
/// large enough to regrow the heap many times, keeps insertion order.
#[test]
fn coincident_burst_is_fifo_through_resizes() {
    let mut heap: EventQueue<u32> = EventScheduler::new();
    for i in 0..5000u32 {
        heap.try_push(7.25, i).unwrap();
    }
    for i in 0..5000u32 {
        assert_eq!(heap.pop(), Some((7.25, i)));
    }
    assert!(heap.is_empty());
}

/// Deterministic regression: `-0.0` and `+0.0` are one time, so pushes at
/// either pop in push order with the bits they were pushed with, ahead of
/// the smallest subnormal time and every larger one, with `+∞` last.
#[test]
fn signed_zeros_tie_in_push_order_and_infinity_pops_last() {
    let mut heap: EventQueue<u32> = EventScheduler::new();
    let tiny = f64::from_bits(1);
    let times = [
        f64::INFINITY,
        0.0,
        -0.0,
        1.0,
        tiny,
        -0.0,
        0.0,
        f64::INFINITY,
    ];
    for (i, &t) in times.iter().enumerate() {
        heap.try_push(t, i as u32).unwrap();
    }
    let popped: Vec<(u64, u32)> = std::iter::from_fn(|| heap.pop())
        .map(|(t, i)| (t.to_bits(), i))
        .collect();
    let want = [
        ((0.0f64).to_bits(), 1),
        ((-0.0f64).to_bits(), 2),
        ((-0.0f64).to_bits(), 5),
        ((0.0f64).to_bits(), 6),
        (tiny.to_bits(), 4),
        (1.0f64.to_bits(), 3),
        (f64::INFINITY.to_bits(), 0),
        (f64::INFINITY.to_bits(), 7),
    ];
    assert_eq!(popped, want);
}
