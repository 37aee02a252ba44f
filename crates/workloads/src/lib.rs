//! Workload generators for the stale-load-information study.
//!
//! Two ingredients define a workload in the paper (§5):
//!
//! * an **arrival process** — by default a Poisson stream of rate `λ·n`
//!   (with `λ` the per-server load and `n` the server count); the
//!   update-on-access experiments instead use a population of clients, each
//!   an independent Poisson or **bursty** source (§5.4);
//! * a **job-size distribution** — Exponential(1) by default, or a
//!   **Bounded Pareto** for the high-variability experiments (§5.5).
//!
//! Job sizes come straight from [`staleload_sim::Dist`]; this crate adds the
//! arrival machinery and paper-named constructors.
//!
//! # Example
//!
//! ```
//! use staleload_sim::SimRng;
//! use staleload_workloads::ArrivalProcess;
//!
//! let mut rng = SimRng::from_seed(1);
//! // 100 servers at per-server load 0.9: a merged Poisson stream of rate 90.
//! let mut arrivals = ArrivalProcess::poisson(0.9 * 100.0);
//! let (t0, _client) = arrivals.next(&mut rng);
//! let (t1, _client) = arrivals.next(&mut rng);
//! assert!(t1 > t0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;

pub use alias::AliasTable;

use serde::{Deserialize, Serialize};
use staleload_sim::{EventQueue, SimRng};

/// Identifier of a load-generating client.
pub type ClientId = usize;

/// Shape of a bursty client's request pattern (§5.4).
///
/// A client alternates between *bursts* of `burst_len` requests whose gaps
/// are Exponential(`intra_gap_mean`), and idle periods (exponentially
/// distributed) sized so the client's long-run mean inter-request time stays
/// at the configured value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstConfig {
    /// Requests per burst (≥ 1; 1 degenerates to Poisson).
    pub burst_len: u32,
    /// Mean gap between requests inside a burst, in service-time units.
    pub intra_gap_mean: f64,
}

impl BurstConfig {
    /// Mean inter-burst gap needed so the overall mean inter-request time is
    /// `mean_inter_request`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if `burst_len` is 0, the intra gap is
    /// negative or not finite, or the target is unattainable: the bursts
    /// alone already exceed the requested mean
    /// (`(burst_len-1) * intra_gap_mean >= burst_len * mean_inter_request`),
    /// or the gap it needs is not finite.
    pub fn inter_gap_mean(&self, mean_inter_request: f64) -> Result<f64, WorkloadError> {
        if self.burst_len == 0 {
            return Err(WorkloadError::new("burst_len must be at least 1"));
        }
        if !(self.intra_gap_mean.is_finite() && self.intra_gap_mean >= 0.0) {
            return Err(WorkloadError::new(format!(
                "intra-burst gap must be finite and non-negative, got {}",
                self.intra_gap_mean
            )));
        }
        let b = f64::from(self.burst_len);
        let inter = b * mean_inter_request - (b - 1.0) * self.intra_gap_mean;
        if !(inter > 0.0 && inter.is_finite()) {
            return Err(WorkloadError::new(format!(
                "burst of {} requests with intra gap {} cannot average {} between requests",
                self.burst_len, self.intra_gap_mean, mean_inter_request
            )));
        }
        Ok(inter)
    }
}

/// Error constructing a workload from inconsistent parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    what: String,
}

impl WorkloadError {
    fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid workload parameters: {}", self.what)
    }
}

impl std::error::Error for WorkloadError {}

/// Retry-orbit parameters for jobs bounced by overload controls.
///
/// A job rejected at admission (bounded queue full) or reneging on its
/// deadline re-enters the arrival stream after an exponential backoff with
/// *decorrelated jitter*: each wait is drawn uniformly from
/// `[base, 3 × previous_wait]` and clamped to `cap`, starting from `base`.
/// Jitter decorrelates the retry wave that synchronized backoff would
/// re-aim at the same overload instant; the growing upper bound gives the
/// exponential spread. After `max_attempts` total admission attempts the
/// job is abandoned (counted, never silently dropped).
///
/// The textual grammar (used by `--retry` on the CLI and round-tripped by
/// `Display`/`FromStr`) is `<max_attempts>:<base>:<cap>`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrySpec {
    /// Total admission attempts allowed per job (≥ 2; the first attempt
    /// counts, so 1 would mean "never retry").
    pub max_attempts: u32,
    /// Minimum backoff wait, in service-time units.
    pub base: f64,
    /// Maximum backoff wait, in service-time units.
    pub cap: f64,
}

impl RetrySpec {
    /// Checks every parameter is in range.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] naming the out-of-range field.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.max_attempts < 2 {
            return Err(WorkloadError::new(format!(
                "retry max_attempts must be at least 2, got {}",
                self.max_attempts
            )));
        }
        if !(self.base.is_finite() && self.base > 0.0) {
            return Err(WorkloadError::new(format!(
                "retry base backoff must be finite and positive, got {}",
                self.base
            )));
        }
        if !(self.cap.is_finite() && self.cap >= self.base) {
            return Err(WorkloadError::new(format!(
                "retry backoff cap must be finite and at least base ({}), got {}",
                self.base, self.cap
            )));
        }
        Ok(())
    }

    /// Draws the next backoff wait given the previous one (`None` for the
    /// first retry): `min(cap, Uniform(base, 3 × prev))` with `prev`
    /// starting at `base`.
    pub fn backoff(&self, prev: Option<f64>, rng: &mut SimRng) -> f64 {
        let hi = (3.0 * prev.unwrap_or(self.base)).min(self.cap);
        if hi <= self.base {
            return self.base;
        }
        rng.uniform(self.base, hi)
    }
}

impl std::fmt::Display for RetrySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.max_attempts, self.base, self.cap)
    }
}

impl std::str::FromStr for RetrySpec {
    type Err = WorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.trim().split(':').collect();
        let [max_attempts, base, cap] = parts.as_slice() else {
            return Err(WorkloadError::new(format!(
                "bad retry spec '{s}' (expected <max_attempts>:<base>:<cap>)"
            )));
        };
        let spec = Self {
            max_attempts: max_attempts.parse().map_err(|_| {
                WorkloadError::new(format!("bad retry max_attempts '{max_attempts}'"))
            })?,
            base: base
                .parse()
                .map_err(|_| WorkloadError::new(format!("bad retry base '{base}'")))?,
            cap: cap
                .parse()
                .map_err(|_| WorkloadError::new(format!("bad retry cap '{cap}'")))?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// State of one bursty client.
#[derive(Debug, Clone)]
struct BurstyClient {
    /// Requests remaining in the current burst (including the next one).
    remaining: u32,
}

/// A merged arrival process over one or more request sources.
///
/// Drivers repeatedly call [`ArrivalProcess::next`] to obtain the next
/// `(absolute time, client)` pair, in non-decreasing time order.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    kind: Kind,
    clients: usize,
}

#[derive(Debug, Clone)]
enum Kind {
    /// A single merged Poisson stream. For `clients > 1` this relies on the
    /// superposition property: the merge of independent Poisson processes is
    /// Poisson with the summed rate, and each event belongs to a uniformly
    /// random source.
    Poisson { rate: f64, now: f64 },
    /// Independent bursty renewal clients, scheduled individually (their
    /// merge is *not* Poisson).
    Bursty {
        intra_gap_mean: f64,
        inter_gap_mean: f64,
        burst_len: u32,
        pending: EventQueue<ClientId>,
        states: Vec<BurstyClient>,
    },
    /// Two-state Markov-modulated Poisson process: the *aggregate* rate
    /// alternates between a high and a low level with exponential sojourns.
    Mmpp {
        rates: [f64; 2],
        sojourn_means: [f64; 2],
        state: usize,
        state_until: f64,
        now: f64,
    },
}

impl ArrivalProcess {
    /// A single Poisson stream of the given total rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn poisson(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive, got {rate}"
        );
        Self {
            kind: Kind::Poisson { rate, now: 0.0 },
            clients: 1,
        }
    }

    /// `clients` independent Poisson clients with the given *total* rate.
    ///
    /// Each arrival is attributed to a uniformly random client (the merged
    /// process of independent Poisson sources).
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0` or `total_rate` is not positive and finite.
    pub fn poisson_clients(clients: usize, total_rate: f64) -> Self {
        assert!(clients > 0, "need at least one client");
        assert!(
            total_rate.is_finite() && total_rate > 0.0,
            "arrival rate must be positive, got {total_rate}"
        );
        Self {
            kind: Kind::Poisson {
                rate: total_rate,
                now: 0.0,
            },
            clients,
        }
    }

    /// `clients` independent *bursty* clients (§5.4), each with the given
    /// mean inter-request time.
    ///
    /// The total arrival rate is `clients / mean_inter_request`. Clients are
    /// desynchronized by starting each one at a random point of its idle
    /// period.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if the burst configuration cannot attain the
    /// requested mean inter-request time.
    pub fn bursty_clients(
        clients: usize,
        mean_inter_request: f64,
        burst: BurstConfig,
        rng: &mut SimRng,
    ) -> Result<Self, WorkloadError> {
        if clients == 0 {
            return Err(WorkloadError::new("need at least one client"));
        }
        let inter_gap_mean = burst.inter_gap_mean(mean_inter_request)?;
        let mut pending = EventQueue::with_capacity(clients);
        let mut states = Vec::with_capacity(clients);
        // Approximately stationary initialization: at a random instant a
        // client is, with high probability, inside an idle period, and the
        // exponential idle gap is memoryless — so its residual is again
        // Exp(inter_gap_mean). Starting every client that way avoids a
        // synchronized burst wave at t = 0 (the small mid-burst fraction is
        // absorbed by the measurement warm-up).
        for client in 0..clients {
            let first = rng.exp(inter_gap_mean);
            pending.push(first, client);
            states.push(BurstyClient {
                remaining: burst.burst_len,
            });
        }
        Ok(Self {
            kind: Kind::Bursty {
                intra_gap_mean: burst.intra_gap_mean,
                inter_gap_mean,
                burst_len: burst.burst_len,
                pending,
                states,
            },
            clients,
        })
    }

    /// A two-state Markov-modulated Poisson process (MMPP-2): the aggregate
    /// arrival rate alternates between `rate_high` (for Exponential
    /// (`high_sojourn_mean`) stretches) and `rate_low` (Exponential
    /// (`low_sojourn_mean`)). The long-run mean rate is the sojourn-weighted
    /// average of the two rates.
    ///
    /// This models *aggregate* traffic burstiness (flash-crowd style), as
    /// opposed to the per-client burstiness of
    /// [`ArrivalProcess::bursty_clients`]. All arrivals belong to client 0.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if any rate or sojourn mean is
    /// non-positive or not finite.
    pub fn mmpp(
        rate_high: f64,
        high_sojourn_mean: f64,
        rate_low: f64,
        low_sojourn_mean: f64,
    ) -> Result<Self, WorkloadError> {
        for (name, v) in [
            ("rate_high", rate_high),
            ("high_sojourn_mean", high_sojourn_mean),
            ("rate_low", rate_low),
            ("low_sojourn_mean", low_sojourn_mean),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(WorkloadError::new(format!(
                    "{name} must be positive, got {v}"
                )));
            }
        }
        Ok(Self {
            kind: Kind::Mmpp {
                rates: [rate_high, rate_low],
                sojourn_means: [high_sojourn_mean, low_sojourn_mean],
                // Start in the low state (the common one for bursty
                // profiles); warm-up absorbs the phase bias.
                state: 1,
                state_until: 0.0,
                now: 0.0,
            },
            clients: 1,
        })
    }

    /// Number of clients feeding this process.
    pub fn client_count(&self) -> usize {
        self.clients
    }

    /// Returns the next arrival as `(absolute time, client)`.
    ///
    /// Times are non-decreasing across calls.
    pub fn next(&mut self, rng: &mut SimRng) -> (f64, ClientId) {
        match &mut self.kind {
            Kind::Poisson { rate, now } => {
                *now += rng.exp(1.0 / *rate);
                let client = if self.clients == 1 {
                    0
                } else {
                    rng.index(self.clients)
                };
                (*now, client)
            }
            Kind::Bursty {
                intra_gap_mean,
                inter_gap_mean,
                burst_len,
                pending,
                states,
            } => {
                let (t, &client) = pending.peek().expect("bursty client set never drains");
                let state = &mut states[client];
                state.remaining -= 1;
                let gap = if state.remaining > 0 {
                    rng.exp(*intra_gap_mean)
                } else {
                    state.remaining = *burst_len;
                    rng.exp(*inter_gap_mean)
                };
                // The client's next request takes its current one's place.
                pending.hold(t + gap, client);
                (t, client)
            }
            Kind::Mmpp {
                rates,
                sojourn_means,
                state,
                state_until,
                now,
            } => {
                // Exact sampling by memorylessness: draw a candidate gap at
                // the current state's rate; if it crosses the state
                // boundary, jump to the boundary, switch state, redraw.
                loop {
                    if *now >= *state_until {
                        *state = 1 - *state;
                        *state_until = *now + rng.exp(sojourn_means[*state]);
                        continue;
                    }
                    let gap = rng.exp(1.0 / rates[*state]);
                    if *now + gap <= *state_until {
                        *now += gap;
                        return (*now, 0);
                    }
                    *now = *state_until;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_matches() {
        let mut rng = SimRng::from_seed(1);
        let mut p = ArrivalProcess::poisson(10.0);
        let n = 100_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = p.next(&mut rng).0;
        }
        let rate = n as f64 / last;
        assert!((rate - 10.0).abs() < 0.2, "rate {rate}");
    }

    #[test]
    fn poisson_times_non_decreasing() {
        let mut rng = SimRng::from_seed(2);
        let mut p = ArrivalProcess::poisson_clients(5, 3.0);
        let mut prev = 0.0;
        for _ in 0..1000 {
            let (t, c) = p.next(&mut rng);
            assert!(t >= prev);
            assert!(c < 5);
            prev = t;
        }
    }

    #[test]
    fn poisson_clients_are_uniform() {
        let mut rng = SimRng::from_seed(3);
        let clients = 4;
        let mut p = ArrivalProcess::poisson_clients(clients, 1.0);
        let mut counts = vec![0usize; clients];
        let n = 40_000;
        for _ in 0..n {
            counts[p.next(&mut rng).1] += 1;
        }
        for &c in &counts {
            let f = c as f64 / n as f64;
            assert!((f - 0.25).abs() < 0.02, "{f}");
        }
    }

    #[test]
    fn bursty_mean_inter_request_matches_target() {
        let mut rng = SimRng::from_seed(4);
        let burst = BurstConfig {
            burst_len: 10,
            intra_gap_mean: 1.0,
        };
        let target = 20.0;
        let mut p = ArrivalProcess::bursty_clients(1, target, burst, &mut rng).unwrap();
        let n = 200_000;
        let first = p.next(&mut rng).0;
        let mut last = first;
        for _ in 1..n {
            last = p.next(&mut rng).0;
        }
        let mean_gap = (last - first) / (n - 1) as f64;
        assert!(
            (mean_gap - target).abs() / target < 0.05,
            "mean gap {mean_gap}"
        );
    }

    #[test]
    fn bursty_has_short_gaps_within_bursts() {
        let mut rng = SimRng::from_seed(5);
        let burst = BurstConfig {
            burst_len: 10,
            intra_gap_mean: 1.0,
        };
        let mut p = ArrivalProcess::bursty_clients(1, 50.0, burst, &mut rng).unwrap();
        let mut gaps = Vec::new();
        let mut prev = p.next(&mut rng).0;
        for _ in 0..50_000 {
            let t = p.next(&mut rng).0;
            gaps.push(t - prev);
            prev = t;
        }
        // 9 of every 10 gaps are intra-burst (mean 1), 1 of 10 is the long
        // inter-burst gap; the median must be far below the overall mean.
        gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = gaps[gaps.len() / 2];
        assert!(median < 2.0, "median gap {median}");
        let mean: f64 = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(mean > 10.0, "mean gap {mean}");
    }

    #[test]
    fn bursty_merge_is_time_ordered_across_clients() {
        let mut rng = SimRng::from_seed(6);
        let burst = BurstConfig {
            burst_len: 5,
            intra_gap_mean: 0.5,
        };
        let mut p = ArrivalProcess::bursty_clients(20, 10.0, burst, &mut rng).unwrap();
        let mut prev = 0.0;
        let mut seen = [false; 20];
        for _ in 0..5000 {
            let (t, c) = p.next(&mut rng);
            assert!(t >= prev);
            prev = t;
            seen[c] = true;
        }
        assert!(seen.iter().all(|&s| s), "every client contributes");
    }

    #[test]
    fn mmpp_mean_rate_is_sojourn_weighted() {
        let mut rng = SimRng::from_seed(21);
        // High 20/s for mean 5, low 5/s for mean 15: mean rate
        // (20*5 + 5*15)/20 = 8.75.
        let mut p = ArrivalProcess::mmpp(20.0, 5.0, 5.0, 15.0).unwrap();
        let n = 400_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = p.next(&mut rng).0;
        }
        let rate = n as f64 / last;
        assert!((rate - 8.75).abs() < 0.3, "rate {rate}");
    }

    #[test]
    fn mmpp_times_are_strictly_ordered() {
        let mut rng = SimRng::from_seed(22);
        let mut p = ArrivalProcess::mmpp(10.0, 2.0, 1.0, 2.0).unwrap();
        let mut prev = 0.0;
        for _ in 0..10_000 {
            let (t, c) = p.next(&mut rng);
            assert!(t > prev);
            assert_eq!(c, 0);
            prev = t;
        }
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Index of dispersion of counts must exceed 1 (Poisson) when the
        // two rates differ.
        let mut rng = SimRng::from_seed(23);
        let mut p = ArrivalProcess::mmpp(40.0, 10.0, 4.0, 10.0).unwrap();
        let window = 5.0;
        let mut counts = Vec::new();
        let mut current = 0u64;
        let mut boundary = window;
        for _ in 0..300_000 {
            let (t, _) = p.next(&mut rng);
            while t > boundary {
                counts.push(current);
                current = 0;
                boundary += window;
            }
            current += 1;
        }
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<u64>() as f64 / n;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(var / mean > 3.0, "index of dispersion {}", var / mean);
    }

    #[test]
    fn mmpp_rejects_bad_params() {
        assert!(ArrivalProcess::mmpp(0.0, 1.0, 1.0, 1.0).is_err());
        assert!(ArrivalProcess::mmpp(1.0, -1.0, 1.0, 1.0).is_err());
        assert!(ArrivalProcess::mmpp(1.0, 1.0, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn burst_config_rejects_impossible_target() {
        let burst = BurstConfig {
            burst_len: 10,
            intra_gap_mean: 5.0,
        };
        // (B-1)*5 = 45 > B*4 = 40: cannot average 4 between requests.
        assert!(burst.inter_gap_mean(4.0).is_err());
        assert!(burst.inter_gap_mean(10.0).is_ok());
    }

    #[test]
    fn burst_len_one_is_pure_idle_cycle() {
        let burst = BurstConfig {
            burst_len: 1,
            intra_gap_mean: 1.0,
        };
        assert_eq!(burst.inter_gap_mean(7.0).unwrap(), 7.0);
    }

    #[test]
    fn retry_spec_round_trips() {
        let spec: RetrySpec = "5:0.5:20".parse().unwrap();
        assert_eq!(
            spec,
            RetrySpec {
                max_attempts: 5,
                base: 0.5,
                cap: 20.0
            }
        );
        assert_eq!(spec.to_string(), "5:0.5:20");
        assert_eq!(spec.to_string().parse::<RetrySpec>().unwrap(), spec);
    }

    #[test]
    fn retry_spec_rejects_bad_params() {
        for s in [
            "",
            "5",
            "5:0.5",
            "5:0.5:20:1",
            "1:0.5:20", // max_attempts < 2
            "0:0.5:20",
            "5:0:20", // base must be positive
            "5:-1:20",
            "5:nan:20",
            "5:inf:20",
            "5:2:1", // cap below base
            "x:0.5:20",
            "5:y:20",
        ] {
            assert!(s.parse::<RetrySpec>().is_err(), "'{s}' should be rejected");
        }
    }

    #[test]
    fn backoff_stays_within_bounds_and_grows() {
        let spec = RetrySpec {
            max_attempts: 10,
            base: 1.0,
            cap: 8.0,
        };
        let mut rng = SimRng::from_seed(7);
        let mut prev: Option<f64> = None;
        for _ in 0..1000 {
            let w = spec.backoff(prev, &mut rng);
            assert!(w >= spec.base, "wait {w} below base");
            assert!(w <= spec.cap, "wait {w} above cap");
            assert!(w <= 3.0 * prev.unwrap_or(spec.base) + 1e-12);
            prev = Some(w);
        }
    }

    #[test]
    fn backoff_degenerate_range_is_base() {
        // cap == base pins every wait to base and must not panic.
        let spec = RetrySpec {
            max_attempts: 3,
            base: 2.0,
            cap: 2.0,
        };
        let mut rng = SimRng::from_seed(8);
        assert_eq!(spec.backoff(None, &mut rng), 2.0);
        assert_eq!(spec.backoff(Some(2.0), &mut rng), 2.0);
    }
}
