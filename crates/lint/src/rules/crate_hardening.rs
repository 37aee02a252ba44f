//! Rule `crate-hardening`: every crate root forbids `unsafe`.
//!
//! The workspace's concurrency story (the trial executor's scoped
//! threads and atomic claim counter, the watchdog's guard threads) is
//! documented as safe Rust, and the cheapest way to keep that claim
//! honest is `#![forbid(unsafe_code)]` at every crate root — `forbid`
//! cannot be overridden by an inner `allow`, so the attribute is a
//! proof, not a convention. This rule checks that every crate root
//! (`src/lib.rs`, `src/main.rs`, and each `src/bin/*.rs` binary root,
//! which is its own crate) carries the attribute.

use crate::diag::Finding;
use crate::rules::Rule;
use crate::source::SourceFile;

/// See the module docs.
pub struct CrateHardening;

impl Rule for CrateHardening {
    fn name(&self) -> &'static str {
        "crate-hardening"
    }

    fn describe(&self) -> &'static str {
        "every crate root must carry #![forbid(unsafe_code)]"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !file.is_crate_root() {
            return;
        }
        let toks = &file.toks;
        let has_forbid = (0..toks.len()).any(|i| {
            toks[i].is_punct('#')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
                && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
        });
        if !has_forbid {
            out.push(Finding {
                rule: self.name(),
                path: file.rel_path.clone(),
                line: 1,
                col: 0,
                message: "crate root lacks #![forbid(unsafe_code)]; the attribute is the \
                          enforceable form of the workspace's no-unsafe guarantee"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(&[(path, src)]);
        crate::rules::run(&ws, &[])
            .into_iter()
            .filter(|f| f.rule == "crate-hardening")
            .collect()
    }

    #[test]
    fn armored_roots_pass() {
        let src = "//! Docs.\n#![forbid(unsafe_code)]\nfn f() {}\n";
        assert!(findings("crates/sim/src/lib.rs", src).is_empty());
        assert!(findings("crates/bench/src/bin/fig01.rs", src).is_empty());
    }

    #[test]
    fn naked_roots_fail() {
        let got = findings("crates/sim/src/lib.rs", "fn f() {}\n");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 1);
    }

    #[test]
    fn the_attribute_in_a_comment_does_not_count() {
        let src = "// #![forbid(unsafe_code)] — commented out\nfn f() {}\n";
        assert!(!findings("crates/sim/src/lib.rs", src).is_empty());
    }

    #[test]
    fn non_roots_are_exempt() {
        assert!(findings("crates/sim/src/rng.rs", "fn f() {}\n").is_empty());
        assert!(findings("crates/sim/tests/t.rs", "fn f() {}\n").is_empty());
    }
}
