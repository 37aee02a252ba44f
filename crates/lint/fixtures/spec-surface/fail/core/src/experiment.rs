//! spec-surface fail fixture: `deadline` never reaches the hasher, so two
//! experiments differing only in deadline share a cache entry; neither
//! does `policy`, whose hash call was deleted.

/// One experiment point.
pub struct Experiment {
    /// Selection policy.
    pub policy: PolicySpec,
    /// Per-job deadline — added without updating the cache key.
    pub deadline: Option<f64>,
    /// Trials to average.
    pub trials: usize,
}
