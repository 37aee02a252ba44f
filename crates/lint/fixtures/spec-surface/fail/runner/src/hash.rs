//! spec-surface fail fixture: the `policy` hash call was deleted, so
//! two experiments differing only in policy alias one cache entry; and
//! `warmup` is still hashed though `Experiment` no longer has it.

/// Content-address of one experiment point.
pub fn experiment_key_salted(exp: &Experiment, salt: &str) -> PointKey {
    let mut hasher = SpecHasher::new();
    hasher.field("salt", &salt);
    hasher.field("trials", &exp.trials);
    hasher.field("warmup", &0.1_f64);
    hasher.finish()
}
