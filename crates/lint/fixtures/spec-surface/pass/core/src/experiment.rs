//! spec-surface pass fixture: the `Experiment` spec whose every field is
//! hashed by the paired `runner/src/hash.rs`.

/// One experiment point.
pub struct Experiment {
    /// Selection policy.
    pub policy: PolicySpec,
    /// Trials to average.
    pub trials: usize,
}
