//! spec-surface pass fixture: the salted key hashes every `Experiment`
//! field, the policy path among them.

/// Content-address of one experiment point.
pub fn experiment_key_salted(exp: &Experiment, salt: &str) -> PointKey {
    let mut hasher = SpecHasher::new();
    hasher.field("salt", &salt);
    hasher.field("policy", &exp.policy);
    hasher.field("trials", &exp.trials);
    hasher.finish()
}
