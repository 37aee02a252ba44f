//! The host-speed reference: a fixed amount of simulator-like work of the
//! benchmark's own, timed between sessions.
//!
//! The benchmark runs on a share of a host whose speed drifts by tens of
//! percent over minutes, for the same code and seed, as co-tenants come
//! and go; every time metric drifts with it. The reference runs on both
//! workers' cores right before and right after each session, so it sees
//! the host as the session saw it, and its time over its nominal time is
//! the host's slowness for that session. It uses none of the simulator's
//! code: a change to the simulator moves the session and not the
//! reference.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Barrier;
use std::time::Instant;

use crate::session::WORKERS;
use crate::sys;

/// Servers of the reference's queueing model: its state fits in L1, like
/// the hot state of an n = 100 trial.
const SERVERS: usize = 128;
/// Arrivals per worker in one reference round.
const ARRIVALS: u64 = 1_000_000;
/// Wall and CPU seconds of one round on the 2-vCPU Intel Xeon VM the
/// benchmark was tuned on, at that host's usual speed. A host on which a
/// round takes twice as long runs the simulator about half as fast.
const NOMINAL_WALL_S: f64 = 0.14;
const NOMINAL_CPU_S: f64 = 0.28;

/// A small multi-server queue of the benchmark's own: exponential gaps and
/// services from an xorshift stream, join-the-shorter-of-two routing, FIFO
/// servers and departures from a binary heap. It has the mix of float
/// math, heap traffic and data-dependent branches of the simulator's
/// per-server engine. Returns a checksum of the trajectory, which pins
/// that the work was done.
fn kernel(arrivals: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let unit = |bits: u64| ((bits >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
    let mean_gap = 1.0 / (0.9 * SERVERS as f64);
    let mut queue = [0u32; SERVERS];
    let mut busy_until = [0.0f64; SERVERS];
    let mut departures: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(4 * SERVERS);
    let (mut t, mut sum) = (0.0f64, 0u64);
    for _ in 0..arrivals {
        t -= mean_gap * unit(next()).ln();
        // Times are positive, so their bit patterns order like the times.
        while let Some(&Reverse((at, s))) = departures.peek() {
            if f64::from_bits(at) > t {
                break;
            }
            departures.pop();
            queue[s as usize] -= 1;
        }
        let pick = next();
        let (a, b) = ((pick as usize) % SERVERS, ((pick >> 32) as usize) % SERVERS);
        let s = if queue[a] <= queue[b] { a } else { b };
        queue[s] += 1;
        let leave = t.max(busy_until[s]) - unit(next()).ln();
        busy_until[s] = leave;
        departures.push(Reverse((leave.to_bits(), s as u32)));
        sum = sum.wrapping_mul(31).wrapping_add(u64::from(queue[s]));
    }
    sum ^ departures.len() as u64
}

/// Reference rounds taken together: their count and their summed wall and
/// CPU seconds.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    rounds: u32,
    wall_s: f64,
    cpu_s: f64,
}

impl Reading {
    /// Wall seconds of a round over the nominal: 1.2 on a host 20% slower.
    pub fn wall_slowness(&self) -> f64 {
        self.wall_s / f64::from(self.rounds) / NOMINAL_WALL_S
    }

    /// CPU seconds of a round over the nominal.
    pub fn cpu_slowness(&self) -> f64 {
        self.cpu_s / f64::from(self.rounds) / NOMINAL_CPU_S
    }

    /// The rounds of `self` and `other` together.
    pub fn and(self, other: Reading) -> Reading {
        Reading {
            rounds: self.rounds + other.rounds,
            wall_s: self.wall_s + other.wall_s,
            cpu_s: self.cpu_s + other.cpu_s,
        }
    }
}

/// One round: [`kernel`] on [`WORKERS`] threads started together. Wall
/// time runs from the start until the last thread ends; CPU time is the
/// process's over the same span, 10 ms ticks.
fn round() -> Result<Reading, String> {
    let gate = Barrier::new(WORKERS + 1);
    let cpu0 = sys::process_cpu_seconds()?;
    let (wall_s, sums) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    gate.wait();
                    kernel(std::hint::black_box(ARRIVALS), 0x5EED)
                })
            })
            .collect();
        gate.wait();
        let start = Instant::now();
        let sums: Vec<u64> = workers
            .into_iter()
            .map(|w| w.join().expect("reference worker panicked"))
            .collect();
        (start.elapsed().as_secs_f64(), sums)
    });
    let cpu_s = sys::process_cpu_seconds()? - cpu0;
    if sums.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("reference checksums differ: {sums:?}"));
    }
    Ok(Reading {
        rounds: 1,
        wall_s,
        cpu_s,
    })
}

/// Reference rounds until they have taken `budget_s` wall seconds, and at
/// least one.
///
/// # Errors
///
/// Returns a message when the process's CPU time cannot be read or the
/// workers' checksums differ.
pub fn read(budget_s: f64) -> Result<Reading, String> {
    let mut reading = round()?;
    while reading.wall_s < budget_s {
        reading = reading.and(round()?);
    }
    Ok(reading)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_seed_dependent() {
        assert_eq!(kernel(20_000, 7), kernel(20_000, 7));
        assert_ne!(kernel(20_000, 7), kernel(20_000, 8));
    }

    #[test]
    fn readings_pool_their_rounds() {
        let a = Reading {
            rounds: 1,
            wall_s: 2.0 * NOMINAL_WALL_S,
            cpu_s: NOMINAL_CPU_S,
        };
        let b = Reading {
            rounds: 3,
            wall_s: 2.0 * NOMINAL_WALL_S,
            cpu_s: 3.0 * NOMINAL_CPU_S,
        };
        let both = a.and(b);
        assert!((both.wall_slowness() - 1.0).abs() < 1e-12);
        assert!((both.cpu_slowness() - 1.0).abs() < 1e-12);
        assert!((a.wall_slowness() - 2.0).abs() < 1e-12);
    }
}
