//! A shared classic fourth-order Runge–Kutta integrator.
//!
//! [`rk4_integrate`] is the stepper behind the fluid model in this crate,
//! [`crate::SupermarketFluid`] (the d-choice system the paper builds on),
//! an analytic anchor for the population-mode engine: a count-vector
//! simulation at n = 10^4…10^6 must land on its equilibria. perfbench's
//! windowed M/M/1 reference (`mm1_window_mean`) integrates with it too.

use crate::AnalyticError;

/// Integrates `dy/dt = f(y)` from `state` for `t_end` time units with
/// fixed step `dt`, using classic RK4.
///
/// After each step `project` is applied to the state — fluid states are
/// vectors of probabilities/tail fractions, and the projection clamps the
/// integrator's rounding drift back onto the feasible set. Pass a no-op
/// closure when no constraint applies.
///
/// # Errors
///
/// Returns [`AnalyticError`] if `dt` or `t_end` is non-positive or
/// non-finite.
pub fn rk4_integrate<F, P>(
    f: F,
    state: &mut [f64],
    t_end: f64,
    dt: f64,
    mut project: P,
) -> Result<(), AnalyticError>
where
    F: Fn(&[f64], &mut [f64]),
    P: FnMut(&mut [f64]),
{
    if !(dt.is_finite() && dt > 0.0) {
        return Err(AnalyticError::new(format!(
            "RK4 needs a positive finite step, got dt = {dt}"
        )));
    }
    if !(t_end.is_finite() && t_end > 0.0) {
        return Err(AnalyticError::new(format!(
            "RK4 needs a positive finite horizon, got t_end = {t_end}"
        )));
    }
    let l = state.len();
    let (mut k1, mut k2, mut k3, mut k4) = (vec![0.0; l], vec![0.0; l], vec![0.0; l], vec![0.0; l]);
    let mut tmp = vec![0.0; l];
    let steps = (t_end / dt).ceil() as usize;
    for _ in 0..steps {
        f(state, &mut k1);
        for i in 0..l {
            tmp[i] = state[i] + 0.5 * dt * k1[i];
        }
        f(&tmp, &mut k2);
        for i in 0..l {
            tmp[i] = state[i] + 0.5 * dt * k2[i];
        }
        f(&tmp, &mut k3);
        for i in 0..l {
            tmp[i] = state[i] + dt * k3[i];
        }
        f(&tmp, &mut k4);
        for i in 0..l {
            state[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        project(state);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rk4_matches_exponential_decay() {
        // dy/dt = -y from 1.0: y(t) = e^-t, and RK4 at dt = 0.01 should be
        // accurate to ~1e-10.
        let mut y = [1.0];
        rk4_integrate(|s, out| out[0] = -s[0], &mut y, 2.0, 0.01, |_| {}).unwrap();
        assert!((y[0] - (-2.0f64).exp()).abs() < 1e-9, "{}", y[0]);
    }

    #[test]
    fn rk4_rejects_bad_steps() {
        let mut y = [1.0];
        assert!(rk4_integrate(|_, out| out[0] = 0.0, &mut y, 1.0, 0.0, |_| {}).is_err());
        assert!(rk4_integrate(|_, out| out[0] = 0.0, &mut y, 1.0, -0.5, |_| {}).is_err());
        assert!(rk4_integrate(|_, out| out[0] = 0.0, &mut y, f64::NAN, 0.1, |_| {}).is_err());
    }
}
