//! The time-ordered pending-event set.
//!
//! The simulation engine keeps its departures, renege deadlines and retry
//! orbit in [`EventQueue`]s: binary heaps ordered by time with **FIFO
//! tie-breaking** (events pushed earlier pop earlier when their times are
//! equal), O(log n) per operation. [`EventScheduler`] states that
//! contract as a trait; `crates/sim/tests/event_queue_equiv.rs` checks the
//! heap against a sorted-`Vec` model of it.
//!
//! The heap orders its entries by one integer key,
//! `(time + 0.0).to_bits() << 64 | seq`. Pushes reject NaN and negative
//! times, and the bit patterns of the remaining times (`+0.0` up to `+∞`)
//! sort as their values do; adding `+0.0` folds `-0.0` onto `+0.0`, the
//! time it equals, so a tie between the two zeros still pops in push order.
//! One `u128` comparison then does the work of a float comparison and a
//! sequence tie-break.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Error scheduling an event at an invalid time.
///
/// Returned by [`EventScheduler::try_push`] so a malformed configuration
/// (e.g. a distribution that produced NaN) surfaces as a typed error the
/// experiment runner can report, instead of a panic deep inside a trial
/// (previously `Entry::cmp` would abort with
/// `"event time must not be NaN"`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedError {
    /// The event time was NaN.
    NanTime,
    /// The event time was negative (the simulation clock never runs
    /// backwards past zero).
    NegativeTime(f64),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NanTime => write!(f, "event time must not be NaN"),
            SchedError::NegativeTime(t) => {
                write!(f, "event time must be non-negative, got {t}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Validates an event time for scheduling.
fn check_time(time: f64) -> Result<(), SchedError> {
    // `time >= 0.0` is false for both NaN and negatives, so valid times —
    // the overwhelmingly common case — pay a single comparison; the two
    // rejections are disambiguated only on the cold path.
    if time >= 0.0 {
        Ok(())
    } else if time.is_nan() {
        Err(SchedError::NanTime)
    } else {
        Err(SchedError::NegativeTime(time))
    }
}

/// A pending-event set ordered by simulation time.
///
/// # Contract
///
/// * [`pop`](EventScheduler::pop) returns events in non-decreasing time
///   order.
/// * Events with bit-identical times pop in push order (FIFO), which keeps
///   runs deterministic even when events coincide (e.g. a zero-length
///   burst gap). The tie-break is part of the contract, not an
///   implementation detail: the golden trajectories depend on it.
/// * [`try_push`](EventScheduler::try_push) rejects NaN and negative times
///   with a typed [`SchedError`].
/// * [`try_hold`](EventScheduler::try_hold) is `pop` then `try_push`: it
///   returns the same head, takes the sequence number the push would, and
///   leaves the same later pops. A rejected time leaves the queue as it
///   was.
pub trait EventScheduler<E> {
    /// Creates an empty scheduler.
    fn new() -> Self
    where
        Self: Sized;

    /// Creates an empty scheduler with room for `capacity` events.
    fn with_capacity(capacity: usize) -> Self
    where
        Self: Sized;

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError`] if `time` is NaN or negative.
    fn try_push(&mut self, time: f64, event: E) -> Result<(), SchedError>;

    /// Removes and returns the earliest event, if any.
    fn pop(&mut self) -> Option<(f64, E)>;

    /// Replaces the earliest event with `event` at `time` and returns the
    /// one it replaced: [`pop`](EventScheduler::pop) then
    /// [`try_push`](EventScheduler::try_push). On an empty scheduler it
    /// only pushes.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError`] if `time` is NaN or negative, before the
    /// scheduler changes.
    fn try_hold(&mut self, time: f64, event: E) -> Result<Option<(f64, E)>, SchedError>;

    /// The time of the earliest pending event, if any.
    fn peek_time(&self) -> Option<f64>;

    /// The earliest pending event (time and payload) without removing it.
    ///
    /// Lets a caller that lazily invalidates events (e.g. departures
    /// cancelled by a server crash) discard stale entries before acting
    /// on the head of the queue.
    fn peek(&self) -> Option<(f64, &E)>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all pending events.
    fn clear(&mut self);
}

/// Which event scheduler a simulation run uses.
///
/// The binary heap ([`EventQueue`]) is the only one. The kind stays a
/// field of `staleload_core::SimConfig` so that every rendered
/// configuration, and with it every result-cache key, keeps its
/// `scheduler: Heap` entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SchedulerKind {
    /// Binary-heap backend ([`EventQueue`]).
    #[default]
    Heap,
}

/// A binary-heap pending-event set: the [`EventScheduler`] the engine
/// runs on.
///
/// Ties in time are broken by insertion order (FIFO), which keeps runs
/// deterministic even when events coincide (e.g. a zero-length burst gap).
///
/// # Example
///
/// ```
/// use staleload_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(2.0, "late");
/// q.push(1.0, "early");
/// q.push(1.0, "early-tie");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((1.0, "early-tie")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    /// The time's bits above the push sequence number (see the module
    /// docs): entries compare by this key alone.
    key: u128,
    time: f64,
    event: E,
}

impl<E> Entry<E> {
    /// An entry for a time that passed [`check_time`].
    #[inline]
    fn new(time: f64, seq: u64, event: E) -> Self {
        let key = u128::from((time + 0.0).to_bits()) << 64 | u128::from(seq);
        Self { key, time, event }
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest
        // first.
        other.key.cmp(&self.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// Convenience wrapper over [`EventQueue::try_push`] for callers whose
    /// times are known valid (tests, examples).
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or negative; use
    /// [`EventQueue::try_push`] to get a typed error instead.
    pub fn push(&mut self, time: f64, event: E) {
        if let Err(e) = self.try_push(time, event) {
            panic!("{e}");
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError`] if `time` is NaN or negative.
    pub fn try_push(&mut self, time: f64, event: E) -> Result<(), SchedError> {
        check_time(time)?;
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry::new(time, seq, event));
        Ok(())
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Replaces the earliest event with `event` at `time` and returns the
    /// one it replaced, as [`EventQueue::try_hold`] does.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or negative.
    pub fn hold(&mut self, time: f64, event: E) -> Option<(f64, E)> {
        match self.try_hold(time, event) {
            Ok(head) => head,
            Err(e) => panic!("{e}"),
        }
    }

    /// Replaces the earliest event with `event` at `time` and returns the
    /// one it replaced: the same head, sequence number and later pops as
    /// [`EventQueue::pop`] then [`EventQueue::try_push`], in one sift down
    /// from the top instead of a sift for each. Entry keys are unique, so
    /// any heap holding the same entries pops them in the same order. On
    /// an empty queue it only pushes.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError`] if `time` is NaN or negative, before the
    /// queue changes.
    pub fn try_hold(&mut self, time: f64, event: E) -> Result<Option<(f64, E)>, SchedError> {
        check_time(time)?;
        let entry = Entry::new(time, self.seq, event);
        self.seq += 1;
        if let Some(mut head) = self.heap.peek_mut() {
            // Dropping `head` sifts the new entry down to its place.
            let old = std::mem::replace(&mut *head, entry);
            return Ok(Some((old.time, old.event)));
        }
        self.heap.push(entry);
        Ok(None)
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// The earliest pending event (time and payload) without removing it.
    pub fn peek(&self) -> Option<(f64, &E)> {
        self.heap.peek().map(|e| (e.time, &e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventScheduler<E> for EventQueue<E> {
    fn new() -> Self {
        EventQueue::new()
    }

    fn with_capacity(capacity: usize) -> Self {
        EventQueue::with_capacity(capacity)
    }

    #[inline]
    fn try_push(&mut self, time: f64, event: E) -> Result<(), SchedError> {
        EventQueue::try_push(self, time, event)
    }

    #[inline]
    fn pop(&mut self) -> Option<(f64, E)> {
        EventQueue::pop(self)
    }

    #[inline]
    fn try_hold(&mut self, time: f64, event: E) -> Result<Option<(f64, E)>, SchedError> {
        EventQueue::try_hold(self, time, event)
    }

    #[inline]
    fn peek_time(&self) -> Option<f64> {
        EventQueue::peek_time(self)
    }

    #[inline]
    fn peek(&self) -> Option<(f64, &E)> {
        EventQueue::peek(self)
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }

    fn clear(&mut self) {
        EventQueue::clear(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            q.push(t, t as i32);
        }
        let mut prev = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, "a");
        q.push(1.0, "b");
        q.push(1.0, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(2.5, ());
        q.push(1.5, ());
        assert_eq!(q.peek_time(), Some(1.5));
        assert_eq!(q.pop().unwrap().0, 1.5);
        assert_eq!(q.peek_time(), Some(2.5));
    }

    #[test]
    fn peek_exposes_payload_without_removing() {
        let mut q = EventQueue::new();
        q.push(2.0, "late");
        q.push(1.0, "early");
        assert_eq!(q.peek(), Some((1.0, &"early")));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((1.0, "early")));
        assert_eq!(q.peek(), Some((2.0, &"late")));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, ());
        q.push(2.0, ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// Regression (ISSUE 3): NaN and negative times must surface as a
    /// typed [`SchedError`] at push time — previously they either hit an
    /// `assert!` or, worse, NaN entries panicked in `Entry::cmp` deep
    /// inside a trial's pop path.
    #[test]
    fn try_push_rejects_nan_with_typed_error() {
        let mut q = EventQueue::new();
        assert_eq!(q.try_push(f64::NAN, ()), Err(SchedError::NanTime));
        assert!(q.is_empty(), "a rejected event must not be enqueued");
        // The queue stays usable after a rejection.
        assert_eq!(q.try_push(1.0, ()), Ok(()));
        assert_eq!(q.pop(), Some((1.0, ())));
    }

    #[test]
    fn try_push_rejects_negative_with_typed_error() {
        let mut q = EventQueue::new();
        assert_eq!(q.try_push(-1.0, ()), Err(SchedError::NegativeTime(-1.0)));
        assert!(q.is_empty());
        let msg = SchedError::NegativeTime(-1.0).to_string();
        assert!(msg.contains("non-negative"), "{msg}");
        assert!(SchedError::NanTime.to_string().contains("NaN"));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_time() {
        let mut q = EventQueue::new();
        q.push(-1.0, ());
    }
}
