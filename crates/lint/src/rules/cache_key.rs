//! Rule `cache-key`: every `Experiment` field feeds the cache key.
//!
//! The content-addressed `ResultCache` (PR 4) identifies an experiment
//! point by hashing the fields `experiment_key_salted` feeds into
//! `SpecHasher`. If a new field lands on the `Experiment` struct
//! without being hashed, two *different* experiments alias the same
//! cache entry and the sweep silently serves stale results — the worst
//! failure mode a reproduction can have, because every number still
//! looks plausible.
//!
//! The rule cross-checks the field list of `pub struct Experiment`
//! (found wherever it is defined) against the `hasher.field("…")`
//! calls inside `fn experiment_key_salted` (found wherever *it* is
//! defined):
//!
//! * a struct field with no matching `field("<name>", …)` call is an
//!   error at the field's line — hash it or bump `CACHE_SALT`;
//! * a hashed path (other than `salt`) with no matching struct field
//!   is an error at the hash fn — it means a field was renamed or
//!   removed and the key no longer covers what it claims.
//!
//! Nested spec types need no enumeration here: they are hashed through
//! their derived `Debug`, which includes every field automatically —
//! *provided it stays derived*. A manual `impl Debug` on a hashed spec
//! type could silently drop fields (e.g. the `engine` knob on `SimConfig`)
//! from the rendered value, re-opening the aliasing hole one level down.
//! The rule therefore also flags any hand-written `Debug` impl for the
//! types the key renders wholesale ([`DEBUG_HASHED_TYPES`]).

use crate::diag::Finding;
use crate::rules::Rule;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// `(name, line)` pairs extracted from one side of the cross-check.
type NamedLines = Vec<(String, u32)>;

/// Spec types `experiment_key_salted` renders through their **derived**
/// `Debug`; a manual impl on any of them could omit fields from the key.
const DEBUG_HASHED_TYPES: &[&str] = &["SimConfig", "ArrivalSpec", "InfoSpec", "PolicySpec"];

/// See the module docs.
pub struct CacheKey;

impl Rule for CacheKey {
    fn name(&self) -> &'static str {
        "cache-key"
    }

    fn describe(&self) -> &'static str {
        "every Experiment spec field must be fed to SpecHasher in experiment_key_salted"
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let mut spec: Option<(&SourceFile, NamedLines)> = None;
        let mut hash: Option<(&SourceFile, NamedLines, u32)> = None;
        for file in &ws.files {
            if let Some(fields) = struct_fields(file, "Experiment") {
                spec = Some((file, fields));
            }
            if let Some((paths, line)) = hashed_paths(file, "experiment_key_salted") {
                hash = Some((file, paths, line));
            }
            for ty in DEBUG_HASHED_TYPES {
                if let Some(line) = manual_debug_impl(file, ty) {
                    out.push(Finding {
                        rule: self.name(),
                        path: file.rel_path.clone(),
                        line,
                        col: 0,
                        message: format!(
                            "`{ty}` is hashed into the cache key through its derived Debug; a \
                             hand-written `impl Debug` can silently drop fields from the key \
                             (two distinct configs would alias one cache entry) — keep Debug \
                             derived, or enumerate every field here and bump CACHE_SALT"
                        ),
                    });
                }
            }
        }
        // Nothing to check unless both sides exist (single-file runs of
        // other rules' fixtures stay vacuously clean).
        let (Some((spec_file, fields)), Some((hash_file, paths, hash_line))) = (spec, hash) else {
            return;
        };
        for (field, line) in &fields {
            if !paths.iter().any(|(p, _)| p == field) {
                out.push(Finding {
                    rule: self.name(),
                    path: spec_file.rel_path.clone(),
                    line: *line,
                    col: 0,
                    message: format!(
                        "Experiment field `{field}` is not hashed by experiment_key_salted: \
                         add `hasher.field(\"{field}\", &exp.{field})` (and bump CACHE_SALT if \
                         semantics changed), or two distinct experiments will share a cache entry"
                    ),
                });
            }
        }
        for (path, line) in &paths {
            if path != "salt" && !fields.iter().any(|(f, _)| f == path) {
                out.push(Finding {
                    rule: self.name(),
                    path: hash_file.rel_path.clone(),
                    line: if *line == 0 { hash_line } else { *line },
                    col: 0,
                    message: format!(
                        "experiment_key_salted hashes `{path}`, which is not a field of \
                         Experiment — the key no longer covers what it claims (renamed or \
                         removed field?)"
                    ),
                });
            }
        }
    }
}

/// Field `(name, line)` pairs of `struct <name> { … }`, if the file
/// defines it.
fn struct_fields(file: &SourceFile, name: &str) -> Option<NamedLines> {
    let toks = &file.toks;
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].is_ident("struct") && toks[i + 1].is_ident(name) && toks[i + 2].is_punct('{') {
            let mut fields = Vec::new();
            let mut depth = 1i32;
            let mut j = i + 3;
            while j < toks.len() && depth > 0 {
                let t = &toks[j];
                if t.is_punct('{') || t.is_punct('<') {
                    // `<` tracking is unnecessary for depth-1 field scans
                    // but harmless; only braces change depth.
                }
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                } else if depth == 1
                    && t.kind == crate::lexer::TokKind::Ident
                    && !t.is_ident("pub")
                    && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                    && !toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
                    && !(j > 0 && toks[j - 1].is_punct(':'))
                {
                    fields.push((t.text.clone(), t.line));
                }
                j += 1;
            }
            return Some(fields);
        }
        i += 1;
    }
    None
}

/// The string literals passed as first argument to `.field("…", …)`
/// inside `fn <name>`, each with its line, plus the fn's own line.
fn hashed_paths(file: &SourceFile, name: &str) -> Option<(NamedLines, u32)> {
    let toks = &file.toks;
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") && toks[i + 1].is_ident(name) {
            let fn_line = toks[i].line;
            // Find the body's opening brace, then scan to its close.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0i32;
            let mut paths = Vec::new();
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.is_punct('.')
                    && toks.get(j + 1).is_some_and(|n| n.is_ident("field"))
                    && toks.get(j + 2).is_some_and(|n| n.is_punct('('))
                    && toks
                        .get(j + 3)
                        .is_some_and(|n| n.kind == crate::lexer::TokKind::Str)
                {
                    let s = &toks[j + 3];
                    paths.push((s.text.clone(), s.line));
                }
                j += 1;
            }
            return Some((paths, fn_line));
        }
        i += 1;
    }
    None
}

/// Line of a hand-written `impl … Debug for <ty>` in the file, if any
/// (`impl Debug for T`, `impl fmt::Debug for T`, `impl<'a> std::fmt::Debug
/// for T` all match; the derive never produces these tokens).
fn manual_debug_impl(file: &SourceFile, ty: &str) -> Option<u32> {
    let toks = &file.toks;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("impl") {
            // Allow a short generic/path prefix (`<'a>`, `std :: fmt ::`)
            // between `impl` and the trait name.
            let mut j = i + 1;
            while j < toks.len() && j - i <= 8 && !toks[j].is_ident("Debug") {
                j += 1;
            }
            if j - i <= 8
                && toks.get(j).is_some_and(|t| t.is_ident("Debug"))
                && toks.get(j + 1).is_some_and(|t| t.is_ident("for"))
                && toks.get(j + 2).is_some_and(|t| t.is_ident(ty))
            {
                return Some(toks[i].line);
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    const SPEC_OK: &str = "pub struct Experiment {\n\
                           pub config: SimConfig,\n\
                           pub trials: usize,\n\
                           }\n";
    const HASH_OK: &str =
        "pub fn experiment_key_salted(exp: &Experiment, salt: &str) -> PointKey {\n\
                           let mut hasher = SpecHasher::new();\n\
                           hasher.field(\"salt\", &salt);\n\
                           hasher.field(\"config\", &exp.config);\n\
                           hasher.field(\"trials\", &exp.trials);\n\
                           hasher.finish()\n\
                           }\n";

    fn findings(spec: &str, hash: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(&[
            ("core/src/experiment.rs", spec),
            ("runner/src/hash.rs", hash),
        ]);
        crate::rules::run(&ws, &[])
            .into_iter()
            .filter(|f| f.rule == "cache-key")
            .collect()
    }

    #[test]
    fn covered_spec_passes() {
        assert!(findings(SPEC_OK, HASH_OK).is_empty());
    }

    #[test]
    fn unhashed_field_is_flagged_at_its_line() {
        let spec = "pub struct Experiment {\n\
                    pub config: SimConfig,\n\
                    pub trials: usize,\n\
                    pub shiny: u32,\n\
                    }\n";
        let got = findings(spec, HASH_OK);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 4);
        assert!(got[0].message.contains("`shiny`"));
        assert!(got[0].message.contains("CACHE_SALT"));
    }

    #[test]
    fn stale_hash_path_is_flagged() {
        let hash = "pub fn experiment_key_salted(exp: &Experiment, salt: &str) -> PointKey {\n\
                    let mut hasher = SpecHasher::new();\n\
                    hasher.field(\"salt\", &salt);\n\
                    hasher.field(\"config\", &exp.config);\n\
                    hasher.field(\"trials\", &exp.trials);\n\
                    hasher.field(\"ghost\", &0);\n\
                    hasher.finish()\n\
                    }\n";
        let got = findings(SPEC_OK, hash);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`ghost`"));
    }

    #[test]
    fn absent_definitions_are_vacuous() {
        let ws = Workspace::from_sources(&[("core/src/other.rs", "fn f() {}")]);
        assert!(crate::rules::run(&ws, &[])
            .iter()
            .all(|f| f.rule != "cache-key"));
    }

    #[test]
    fn manual_debug_on_a_hashed_spec_type_is_flagged() {
        let spec = "pub struct SimConfig { pub servers: usize }\n\
                    impl std::fmt::Debug for SimConfig {\n\
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
                    write!(f, \"SimConfig\")\n\
                    }\n\
                    }\n";
        let ws = Workspace::from_sources(&[("core/src/config.rs", spec)]);
        let got: Vec<Finding> = crate::rules::run(&ws, &[])
            .into_iter()
            .filter(|f| f.rule == "cache-key")
            .collect();
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 2);
        assert!(got[0].message.contains("derived Debug"));
    }

    #[test]
    fn derived_debug_and_other_impls_pass() {
        let spec = "#[derive(Debug, Clone)]\n\
                    pub struct SimConfig { pub servers: usize }\n\
                    impl std::fmt::Display for SimConfig {\n\
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
                    write!(f, \"SimConfig\")\n\
                    }\n\
                    }\n\
                    impl std::fmt::Debug for SomethingElse {}\n";
        let ws = Workspace::from_sources(&[("core/src/config.rs", spec)]);
        assert!(crate::rules::run(&ws, &[])
            .iter()
            .all(|f| f.rule != "cache-key"));
    }

    #[test]
    fn field_calls_outside_the_key_fn_do_not_count() {
        // The test module of the real hash.rs calls h.field("alpha", …);
        // those must not register as hashed spec paths.
        let hash = format!(
            "{HASH_OK}\nfn unrelated() {{ let mut h = SpecHasher::new(); h.field(\"alpha\", &1); }}\n"
        );
        assert!(findings(SPEC_OK, &hash).is_empty());
    }
}
