//! Closed-form queueing results used to validate the simulator.
//!
//! The reproduction leans on three analytic anchors (see
//! `tests/queueing_theory.rs` at the workspace root):
//!
//! * random splitting of a Poisson stream over `n` unit-rate servers makes
//!   each an **M/M/1** queue ⇒ [`mm1_response`];
//! * with a general service distribution the **Pollaczek–Khinchine**
//!   formula gives the M/G/1 mean response ⇒ [`mg1_response`];
//! * a fresh-information least-loaded dispatcher is sandwiched between the
//!   **M/M/n** central queue (better: no server idles while work waits)
//!   and M/M/1 ⇒ [`mmn_response`] via [`erlang_c`].
//!
//! All formulas use the paper's units: service rate 1 per server, `λ` the
//! per-server load, time in mean service times.
//!
//! # Example
//!
//! ```
//! use staleload_analytic::{mm1_response, mmn_response};
//!
//! // At 90% load a single queue averages 10 service times...
//! assert!((mm1_response(0.9) - 10.0).abs() < 1e-12);
//! // ...while a 100-server central queue barely queues at all.
//! let r = mmn_response(100, 0.9);
//! assert!(r < 1.1, "{r}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fluid;
mod ode;

pub use fluid::{
    supermarket_equilibrium, supermarket_mean_response, try_supermarket_equilibrium,
    try_supermarket_mean_response, SupermarketFluid,
};
pub use ode::rk4_integrate;

use staleload_sim::Dist;

/// Error from an analytic model handed out-of-range parameters.
///
/// The panicking entry points (kept for direct library use and doctests)
/// delegate to `try_*` forms returning this type, so config-reachable
/// callers can surface a [`ConfigError`]-style message instead of
/// aborting a sweep (ISSUE 9 satellite; matches the panic-hygiene lint's
/// intent).
///
/// [`ConfigError`]: https://docs.rs/staleload-core
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyticError {
    what: String,
}

impl AnalyticError {
    pub(crate) fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl std::fmt::Display for AnalyticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid analytic-model parameters: {}", self.what)
    }
}

impl std::error::Error for AnalyticError {}

fn check_load(lambda: f64) {
    assert!(
        lambda > 0.0 && lambda < 1.0,
        "per-server load must be in (0, 1) for a stable queue, got {lambda}"
    );
}

/// Mean response time of an M/M/1 queue at load `λ`: `1/(1−λ)`.
///
/// # Panics
///
/// Panics if `λ ∉ (0, 1)`.
pub fn mm1_response(lambda: f64) -> f64 {
    check_load(lambda);
    1.0 / (1.0 - lambda)
}

/// Mean number in system of an M/M/1 queue at load `λ`: `λ/(1−λ)`
/// (Little's law against [`mm1_response`]).
///
/// # Panics
///
/// Panics if `λ ∉ (0, 1)`.
pub fn mm1_number_in_system(lambda: f64) -> f64 {
    check_load(lambda);
    lambda / (1.0 - lambda)
}

/// Mean response time of an M/G/1 queue (Pollaczek–Khinchine):
/// `E[S] + λ·E[S²] / (2(1−λ))` with `E[S]` the mean service time.
///
/// `λ` is the load (arrival rate × mean service time).
///
/// # Panics
///
/// Panics if `λ ∉ (0, 1)`.
pub fn mg1_response(lambda: f64, service: &Dist) -> f64 {
    check_load(lambda);
    let mean = service.mean();
    let second_moment = service.variance() + mean * mean;
    let arrival_rate = lambda / mean;
    mean + arrival_rate * second_moment / (2.0 * (1.0 - lambda))
}

/// Mean response time of an M/D/1 queue: `1 + λ/(2(1−λ))` (unit service).
///
/// # Panics
///
/// Panics if `λ ∉ (0, 1)`.
pub fn md1_response(lambda: f64) -> f64 {
    check_load(lambda);
    1.0 + lambda / (2.0 * (1.0 - lambda))
}

/// Erlang-B blocking probability for `n` servers offered `a = λ·n` Erlangs.
///
/// Computed with the numerically stable recurrence
/// `B(0) = 1; B(k) = a·B(k−1) / (k + a·B(k−1))`.
///
/// # Panics
///
/// Panics if `n == 0` or `offered_load` is not positive and finite.
pub fn erlang_b(n: usize, offered_load: f64) -> f64 {
    assert!(n > 0, "need at least one server");
    assert!(
        offered_load.is_finite() && offered_load > 0.0,
        "offered load must be positive, got {offered_load}"
    );
    let a = offered_load;
    let mut b = 1.0;
    for k in 1..=n {
        b = a * b / (k as f64 + a * b);
    }
    b
}

/// Erlang-C probability that an arrival must wait in an M/M/n queue with
/// per-server load `λ` (offered load `a = λ·n`):
/// `C = B / (1 − λ·(1 − B))` with `B` the Erlang-B probability.
///
/// # Panics
///
/// Panics if `n == 0` or `λ ∉ (0, 1)`.
pub fn erlang_c(n: usize, lambda: f64) -> f64 {
    check_load(lambda);
    let b = erlang_b(n, lambda * n as f64);
    b / (1.0 - lambda * (1.0 - b))
}

/// Mean response time of an M/M/n central queue at per-server load `λ`
/// (unit service rate): `1 + C / (n(1−λ))` with `C` the Erlang-C waiting
/// probability.
///
/// This is a *lower bound* for any immediate-dispatch policy over `n`
/// separate queues (the central queue never idles a server while a job
/// waits), which makes it the reference for fresh-information greedy.
///
/// # Panics
///
/// Panics if `n == 0` or `λ ∉ (0, 1)`.
pub fn mmn_response(n: usize, lambda: f64) -> f64 {
    let c = erlang_c(n, lambda);
    1.0 + c / (n as f64 * (1.0 - lambda))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_textbook_values() {
        assert!((mm1_response(0.5) - 2.0).abs() < 1e-12);
        assert!((mm1_response(0.9) - 10.0).abs() < 1e-12);
        assert!((mm1_number_in_system(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mg1_reduces_to_mm1_for_exponential() {
        let exp = Dist::exponential(1.0);
        for lambda in [0.3, 0.5, 0.7, 0.9] {
            assert!((mg1_response(lambda, &exp) - mm1_response(lambda)).abs() < 1e-12);
        }
    }

    #[test]
    fn mg1_reduces_to_md1_for_constant() {
        let det = Dist::constant(1.0);
        for lambda in [0.3, 0.5, 0.9] {
            assert!((mg1_response(lambda, &det) - md1_response(lambda)).abs() < 1e-12);
        }
    }

    #[test]
    fn mg1_grows_with_service_variance() {
        let lambda = 0.7;
        let det = mg1_response(lambda, &Dist::constant(1.0));
        let exp = mg1_response(lambda, &Dist::exponential(1.0));
        let bp = mg1_response(
            lambda,
            &Dist::bounded_pareto_with_mean(1.1, 100.0, 1.0).unwrap(),
        );
        assert!(det < exp && exp < bp, "{det} {exp} {bp}");
    }

    #[test]
    fn erlang_b_textbook_value() {
        // Classic: 10 servers, 5 Erlangs -> B ≈ 0.018.
        let b = erlang_b(10, 5.0);
        assert!((b - 0.018).abs() < 0.001, "{b}");
        // Single server: B = a/(1+a).
        assert!((erlang_b(1, 2.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn erlang_c_single_server_is_load() {
        // For n = 1, the waiting probability is λ.
        for lambda in [0.2, 0.5, 0.9] {
            assert!((erlang_c(1, lambda) - lambda).abs() < 1e-12);
        }
    }

    #[test]
    fn mmn_single_server_is_mm1() {
        for lambda in [0.3, 0.6, 0.9] {
            assert!((mmn_response(1, lambda) - mm1_response(lambda)).abs() < 1e-9);
        }
    }

    #[test]
    fn pooling_helps() {
        // More servers at the same per-server load ⇒ shorter responses.
        let mut prev = f64::INFINITY;
        for n in [1, 2, 10, 100] {
            let r = mmn_response(n, 0.9);
            assert!(r < prev, "n={n}: {r} !< {prev}");
            prev = r;
        }
        assert!(mmn_response(100, 0.9) < 1.1);
    }

    #[test]
    fn erlang_probabilities_are_probabilities() {
        for n in [1usize, 5, 50, 500] {
            for lambda in [0.1, 0.5, 0.95] {
                let b = erlang_b(n, lambda * n as f64);
                let c = erlang_c(n, lambda);
                assert!((0.0..=1.0).contains(&b));
                assert!((0.0..=1.0).contains(&c));
                assert!(c >= b, "C >= B must hold: {c} vs {b}");
            }
        }
    }
}
