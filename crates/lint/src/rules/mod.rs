//! The rule registry and the engine that runs it.
//!
//! Each rule is a [`Rule`] implementation with a stable kebab-case name
//! (the name pragmas and `--allow` refer to). Per-file rules implement
//! [`Rule::check_file`]; rules that need to correlate several files
//! (spec-surface, rng-flow, lock-order) implement
//! [`Rule::check_workspace`] instead. The engine applies the
//! `// lint: allow(<rule>)` pragma filter centrally, so rules report
//! every violation they see.
//!
//! Adding a rule: create a module here, implement [`Rule`], register it
//! in [`all`], and add a `fixtures/<rule>/` pass/fail pair plus a unit
//! test. See DESIGN.md §10.

mod atomic_io;
mod crate_hardening;
mod determinism;
mod float_determinism;
mod lock_order;
mod panic_hygiene;
mod rng_flow;
mod spec_surface;

pub use atomic_io::AtomicIo;
pub use crate_hardening::CrateHardening;
pub use determinism::Determinism;
pub use float_determinism::FloatDeterminism;
pub use lock_order::LockOrder;
pub use panic_hygiene::PanicHygiene;
pub use rng_flow::RngFlow;
pub use spec_surface::SpecSurface;

use crate::diag::Finding;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// One static-analysis rule.
pub trait Rule {
    /// Stable kebab-case rule name (pragma and `--allow` key).
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Multi-line rationale for `--explain <rule>`: the invariant, why
    /// it matters for this codebase, and how to suppress a deliberate
    /// exception. Defaults to the one-line description.
    fn explain(&self) -> &'static str {
        self.describe()
    }
    /// Per-file check; the default does nothing.
    fn check_file(&self, _file: &SourceFile, _out: &mut Vec<Finding>) {}
    /// Whole-workspace check; the default does nothing.
    fn check_workspace(&self, _ws: &Workspace, _out: &mut Vec<Finding>) {}
}

/// Every registered rule, in reporting order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(Determinism),
        Box::new(PanicHygiene),
        Box::new(CrateHardening),
        Box::new(AtomicIo),
        Box::new(SpecSurface),
        Box::new(RngFlow),
        Box::new(FloatDeterminism),
        Box::new(LockOrder),
    ]
}

/// Runs every rule not named in `allow_rules` over the workspace,
/// applies pragma suppressions, and returns findings sorted by
/// (path, line, rule).
pub fn run(ws: &Workspace, allow_rules: &[String]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in all() {
        if allow_rules.iter().any(|r| r == rule.name()) {
            continue;
        }
        for file in &ws.files {
            rule.check_file(file, &mut findings);
        }
        rule.check_workspace(ws, &mut findings);
    }
    findings.retain(|f| {
        ws.files
            .iter()
            .find(|file| file.rel_path == f.path)
            .is_none_or(|file| !file.allowed(f.rule, f.line))
    });
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_are_unique_and_kebab_case() {
        let rules = all();
        let mut names: Vec<_> = rules.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate rule name");
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule name {n} is not kebab-case"
            );
        }
    }

    #[test]
    fn pragmas_suppress_and_allow_flag_disables() {
        let src = "use std::time::Instant; // lint: allow(determinism) — fixture\n\
                   use std::collections::HashMap;\n";
        let ws = Workspace::from_sources(&[("crates/sim/src/x.rs", src)]);
        let findings = run(&ws, &[]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
        let none = run(&ws, &["determinism".to_string()]);
        assert!(none.is_empty());
    }
}
