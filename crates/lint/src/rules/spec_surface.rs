//! spec-surface: the experiment spec stays fully wired, and the cache
//! key covers all of it.
//!
//! The content-addressed `ResultCache` identifies an experiment point by
//! the fields `experiment_key_salted` feeds into `SpecHasher`. A spec
//! field the key misses lets two *different* experiments alias one cache
//! entry, and the sweep silently serves stale results — the worst
//! failure a reproduction can have, because every number still looks
//! plausible. The rule therefore checks, on the item graph:
//!
//! * **Key coverage.** Every field of `struct Experiment` has a
//!   `hasher.field("<field>", …)` call in `experiment_key_salted` (else
//!   a finding at the field), and every hashed path but `salt` names an
//!   `Experiment` field (else a finding at the path: a renamed or
//!   removed field the key no longer covers).
//! * **Derived Debug.** The key renders the nested spec types
//!   ([`DEBUG_KEYED`]) through their derived `Debug`, which prints every
//!   field. A hand-written `impl Debug` on one of them could drop fields
//!   from the key, so each is a finding at its `impl` line; a definition
//!   without `derive(Debug)` (and no such impl) is a finding at the type.
//! * **Surface wiring.** Every member (variant or knob field) of
//!   `PolicySpec`, `InfoSpec`, `FaultSpec` and `EngineMode` reaches four
//!   seams: the CLI parser (a member nobody can request is dead weight),
//!   the cache key (its type is hashed, directly or through `SimConfig`),
//!   the label/Display emission (a member that prints as something else
//!   corrupts result tables), and the README/DESIGN flag tables.
//!
//! Each check is vacuous when its evidence is absent from the lint root
//! (no `cli` crate → no reachability check; no `Experiment` or no
//! `experiment_key_salted` → no key check; no docs files → no docs
//! check), so fixture trees for other rules stay clean.

use crate::diag::Finding;
use crate::ir::{FnDef, ItemGraph, Member, StructDef};
use crate::lexer::{Tok, TokKind};
use crate::rules::Rule;
use crate::workspace::Workspace;

const NAME: &str = "spec-surface";

/// Spec types `experiment_key_salted` renders through their **derived**
/// `Debug`; a hand-written impl on any of them could omit fields from
/// the key.
const DEBUG_KEYED: &[&str] = &[
    "SimConfig",
    "ArrivalSpec",
    "InfoSpec",
    "PolicySpec",
    "FaultSpec",
    "EngineMode",
];

/// One watched spec type: a public enum (its members are variants) or a
/// struct of optional knobs (its members are named fields).
struct Surface {
    type_name: &'static str,
    /// `hasher.field("<path>", …)` that must appear in
    /// `experiment_key_salted` for this type to feed the cache key.
    key_path: &'static str,
    /// `SimConfig` field carrying the type, when it is keyed through
    /// the config rather than as a top-level hash path.
    config_field: Option<&'static str>,
    /// The emission fn checked for per-member coverage: an inherent
    /// `label` or a `Display::fmt`.
    display_fn: &'static str,
}

const SURFACES: &[Surface] = &[
    Surface {
        type_name: "PolicySpec",
        key_path: "policy",
        config_field: None,
        display_fn: "label",
    },
    Surface {
        type_name: "InfoSpec",
        key_path: "info",
        config_field: None,
        display_fn: "label",
    },
    Surface {
        type_name: "FaultSpec",
        key_path: "config",
        config_field: Some("faults"),
        display_fn: "fmt",
    },
    Surface {
        type_name: "EngineMode",
        key_path: "config",
        config_field: Some("engine"),
        display_fn: "fmt",
    },
];

/// See the module docs.
pub struct SpecSurface;

impl Rule for SpecSurface {
    fn name(&self) -> &'static str {
        NAME
    }

    fn describe(&self) -> &'static str {
        "the cache key covers every Experiment field, and every spec variant is \
         CLI-reachable, cache-keyed, displayed, and documented"
    }

    fn explain(&self) -> &'static str {
        "Invariant: (1) every field of `struct Experiment` is fed to SpecHasher by\n\
         experiment_key_salted, and every hashed path but `salt` is an Experiment\n\
         field; (2) the spec types the key renders through Debug (SimConfig,\n\
         ArrivalSpec, InfoSpec, PolicySpec, FaultSpec, EngineMode) keep it derived;\n\
         (3) every public variant of PolicySpec/InfoSpec/FaultSpec and the\n\
         EngineMode enum is constructible from the CLI parser, hashed into the key\n\
         (directly or through SimConfig), covered by its label()/Display\n\
         emission, and named in the README.md/DESIGN.md tables.\n\
         Rationale: a spec field the key misses lets two distinct experiments share\n\
         one cache entry, so a sweep serves results that belong to another point;\n\
         a variant missing any other seam is unusable or corrupts result tables —\n\
         and nothing else in the build notices.\n\
         Suppress one finding at its site with\n\
         `// lint: allow(spec-surface) — <reason>`."
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let g = ItemGraph::build(ws);
        for ty in DEBUG_KEYED {
            check_debug_is_derived(&g, ty, out);
        }
        let key_fn = g
            .fns_named("experiment_key_salted")
            .find(|f| !f.is_test && f.body.is_some());
        let hashed = key_fn.map(|f| hashed_paths(ws, f));
        if let (Some(f), Some(hashed), Some(exp)) =
            (key_fn, &hashed, g.structs_named("Experiment").next())
        {
            check_experiment(f, hashed, exp, out);
        }
        let reached = g
            .fns
            .iter()
            .any(|f| f.crate_name == "cli" && !f.is_test)
            .then(|| g.reachable_fns(|f| f.crate_name == "cli" && !f.is_test));
        let sim_config = g.structs_named("SimConfig").next();
        for sf in SURFACES {
            check_surface(
                ws,
                &g,
                sf,
                reached.as_deref(),
                hashed.as_deref(),
                sim_config,
                out,
            );
        }
    }
}

fn finding(path: &str, line: u32, col: u32, message: String) -> Finding {
    Finding {
        rule: NAME,
        path: path.to_string(),
        line,
        col,
        message,
    }
}

/// The definition of the enum or struct called `name`, if the tree has
/// one: where it is, its derives, and its members (variants or fields).
struct TypeDef<'g> {
    path: &'g str,
    line: u32,
    col: u32,
    derives: &'g [String],
    members: &'g [Member],
    is_enum: bool,
}

fn type_def<'g>(g: &'g ItemGraph, name: &str) -> Option<TypeDef<'g>> {
    let enum_def = g.enums.iter().find(|e| e.name == name).map(|e| TypeDef {
        path: &e.path,
        line: e.line,
        col: e.col,
        derives: &e.derives,
        members: &e.variants,
        is_enum: true,
    });
    enum_def.or_else(|| {
        g.structs.iter().find(|s| s.name == name).map(|s| TypeDef {
            path: &s.path,
            line: s.line,
            col: s.col,
            derives: &s.derives,
            members: &s.fields,
            is_enum: false,
        })
    })
}

/// Flags a hand-written `impl Debug` for `ty` at its `impl` line, or
/// else a definition of `ty` that does not derive `Debug`.
fn check_debug_is_derived(g: &ItemGraph, ty: &str, out: &mut Vec<Finding>) {
    let manual = g
        .impls
        .iter()
        .find(|i| i.self_ty == ty && i.trait_name.as_deref() == Some("Debug"));
    if let Some(imp) = manual {
        out.push(finding(
            &imp.path,
            imp.line,
            imp.col,
            format!(
                "`{ty}` has a hand-written Debug impl, but the cache key hashes its \
                 derived Debug rendering: a manual impl can silently drop spec state \
                 from the key (two distinct configs would alias one cache entry) — \
                 keep Debug derived, or hash every field explicitly and bump CACHE_SALT"
            ),
        ));
    } else if let Some(def) =
        type_def(g, ty).filter(|def| !def.derives.iter().any(|d| d == "Debug"))
    {
        out.push(finding(
            def.path,
            def.line,
            def.col,
            format!(
                "`{ty}` is hashed into the cache key through Debug but does not \
                 derive(Debug) — keep it derived so the key renders every field"
            ),
        ));
    }
}

/// Cross-checks `Experiment`'s fields against the key fn's hashed paths,
/// in both directions.
fn check_experiment(key_fn: &FnDef, hashed: &[&Tok], exp: &StructDef, out: &mut Vec<Finding>) {
    for fld in &exp.fields {
        if !hashed.iter().any(|t| t.text == fld.name) {
            out.push(finding(
                &exp.path,
                fld.line,
                fld.col,
                format!(
                    "Experiment field `{0}` is not hashed by experiment_key_salted: add \
                     `hasher.field(\"{0}\", &exp.{0})` (and bump CACHE_SALT if semantics \
                     changed), or two distinct experiments will share a cache entry",
                    fld.name
                ),
            ));
        }
    }
    for t in hashed {
        if t.text != "salt" && !exp.fields.iter().any(|f| f.name == t.text) {
            out.push(finding(
                &key_fn.path,
                t.line,
                t.col,
                format!(
                    "experiment_key_salted hashes `{}`, which is not a field of \
                     Experiment — the key no longer covers what it claims (renamed or \
                     removed field?)",
                    t.text
                ),
            ));
        }
    }
}

/// Checks one surface: its type feeds the key, and each of its members
/// reaches the CLI parser, the emission fn and the docs.
fn check_surface(
    ws: &Workspace,
    g: &ItemGraph,
    sf: &Surface,
    reached: Option<&[bool]>,
    hashed: Option<&[&Tok]>,
    sim_config: Option<&StructDef>,
    out: &mut Vec<Finding>,
) {
    let Some(TypeDef {
        path,
        line,
        col,
        members,
        is_enum,
        ..
    }) = type_def(g, sf.type_name)
    else {
        return;
    };
    let name = |m: &Member| {
        let sep = if is_enum { "::" } else { "." };
        format!("{}{sep}{}", sf.type_name, m.name)
    };
    // The type feeds the cache key.
    if let Some(hashed) = hashed {
        if !hashed.iter().any(|t| t.text == sf.key_path) {
            out.push(finding(
                path,
                line,
                col,
                format!(
                    "`{}` no longer feeds the cache key: experiment_key_salted does \
                     not hash the `{}` path — two experiments differing only here \
                     would alias one cache entry",
                    sf.type_name, sf.key_path
                ),
            ));
        }
        if let (Some(field), Some(cfg)) = (sf.config_field, sim_config) {
            if !cfg.fields.iter().any(|f| f.name == field) {
                out.push(finding(
                    path,
                    line,
                    col,
                    format!(
                        "`{}` is keyed through `SimConfig.{field}`, but SimConfig has no \
                         such field — the cache key no longer covers it",
                        sf.type_name
                    ),
                ));
            }
        }
    }
    // Each member is requestable from the CLI: an enum variant is
    // constructed, a knob field is written, on a path the parser reaches.
    if let Some(reached) = reached {
        for m in members {
            let wired = g.fns.iter().enumerate().any(|(i, f)| {
                reached[i]
                    && !f.is_test
                    && if is_enum {
                        f.constructions
                            .iter()
                            .any(|p| !p.in_pattern && p.ty == sf.type_name && p.variant == m.name)
                    } else {
                        fn_writes_field(ws, f, &m.name)
                    }
            });
            if !wired {
                out.push(finding(
                    path,
                    m.line,
                    m.col,
                    format!(
                        "`{}` is not {} on any path reachable from the CLI parser — it \
                         cannot be requested; wire it into the parser (or its FromStr) \
                         or retire it",
                        name(m),
                        if is_enum { "constructed" } else { "set" }
                    ),
                ));
            }
        }
    }
    // The emission fn names every member.
    let display = g.fns.iter().find(|f| {
        !f.is_test
            && f.owner.as_deref() == Some(sf.type_name)
            && f.name == sf.display_fn
            && (sf.display_fn != "fmt" || f.trait_name.as_deref() == Some("Display"))
    });
    if let Some(f) = display {
        for m in members.iter().filter(|m| !fn_mentions(ws, f, &m.name)) {
            out.push(finding(
                path,
                m.line,
                m.col,
                format!(
                    "`{}` is not named in `{}` ({}): the emission path cannot \
                     distinguish it — name it there",
                    name(m),
                    sf.display_fn,
                    f.path
                ),
            ));
        }
    } else {
        out.push(finding(
            path,
            line,
            col,
            format!(
                "`{}` has no `{}` emission fn — every spec type must print \
                 itself for CSV/stdout labeling",
                sf.type_name, sf.display_fn
            ),
        ));
    }
    // The docs name every member.
    if !ws.docs.is_empty() {
        for m in members.iter().filter(|m| !docs_mention(ws, &m.name)) {
            out.push(finding(
                path,
                m.line,
                m.col,
                format!(
                    "`{}` (`{}`) is not named in README.md/DESIGN.md — document it \
                     in the flag tables",
                    name(m),
                    kebab(&m.name)
                ),
            ));
        }
    }
}

/// The string literals `key_fn` hashes as paths: the first argument of
/// every `field(…)` call.
fn hashed_paths<'w>(ws: &'w Workspace, key_fn: &FnDef) -> Vec<&'w Tok> {
    let toks = &ws.files[key_fn.file].toks;
    key_fn
        .calls
        .iter()
        .filter(|c| c.callee == "field")
        .filter_map(|c| toks.get(c.args.0))
        .filter(|t| t.kind == TokKind::Str)
        .collect()
}

/// True when `name` appears as an identifier anywhere in `f`'s body.
fn fn_mentions(ws: &Workspace, f: &FnDef, name: &str) -> bool {
    let Some((lo, hi)) = f.body else {
        return false;
    };
    ws.files[f.file].toks[lo..=hi]
        .iter()
        .any(|t| t.is_ident(name))
}

/// True when `f`'s body writes field `name`: `recv.name = …` or a
/// `name:` struct-literal initializer.
fn fn_writes_field(ws: &Workspace, f: &FnDef, name: &str) -> bool {
    let Some((lo, hi)) = f.body else {
        return false;
    };
    let toks = &ws.files[f.file].toks;
    (lo..=hi.min(toks.len().saturating_sub(1))).any(|i| {
        if !toks[i].is_ident(name) {
            return false;
        }
        let assigned = i > lo
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('='))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct('='));
        let initialized = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'));
        assigned || initialized
    })
}

/// True when any README/DESIGN doc mentions `name` — as written, as
/// `kebab-case`, or lowercased.
fn docs_mention(ws: &Workspace, name: &str) -> bool {
    let kebab = kebab(name);
    let lower = name.to_lowercase();
    ws.docs
        .iter()
        .any(|d| d.text.contains(name) || d.text.contains(&kebab) || d.text.contains(&lower))
}

/// `UpdateOnAccess` → `update-on-access`.
fn kebab(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('-');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::diag::Finding;
    use crate::rules;
    use crate::workspace::Workspace;

    /// A minimal fully-wired tree: enum + CLI parser + key + label + docs.
    fn wired() -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "policies/src/spec.rs",
                "#[derive(Debug, Clone)]\n\
                 pub enum PolicySpec { Random, Greedy }\n\
                 impl PolicySpec {\n\
                     pub fn label(&self) -> String {\n\
                         match self {\n\
                             PolicySpec::Random => \"random\".into(),\n\
                             PolicySpec::Greedy => \"greedy\".into(),\n\
                         }\n\
                     }\n\
                 }\n",
            ),
            (
                "cli/src/args.rs",
                "pub fn parse_policy(s: &str) -> PolicySpec {\n\
                     match s {\n\
                         \"greedy\" => PolicySpec::Greedy,\n\
                         _ => PolicySpec::Random,\n\
                     }\n\
                 }\n",
            ),
            (
                "runner/src/hash.rs",
                "pub fn experiment_key_salted(exp: &Experiment, salt: &str) -> String {\n\
                     let mut hasher = SpecHasher::new();\n\
                     hasher.field(\"salt\", &salt);\n\
                     hasher.field(\"policy\", &exp.policy);\n\
                     hasher.finish()\n\
                 }\n",
            ),
            ("README.md", "| `random` | `greedy` | policy table |\n"),
        ]
    }

    fn run(sources: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::from_sources(sources);
        rules::run(&ws, &[])
            .into_iter()
            .filter(|f| f.rule == "spec-surface")
            .collect()
    }

    fn findings(sources: &[(&str, &str)]) -> Vec<String> {
        run(sources).into_iter().map(|f| f.message).collect()
    }

    #[test]
    fn fully_wired_tree_is_clean() {
        assert_eq!(findings(&wired()), Vec::<String>::new());
    }

    #[test]
    fn deleting_the_parser_arm_fires() {
        let mut t = wired();
        t[1] = (
            "cli/src/args.rs",
            "pub fn parse_policy(s: &str) -> PolicySpec { PolicySpec::Random }\n",
        );
        let msgs = findings(&t);
        assert!(
            msgs.iter()
                .any(|m| m.contains("PolicySpec::Greedy") && m.contains("CLI parser")),
            "{msgs:?}"
        );
    }

    #[test]
    fn deleting_the_key_hash_call_fires() {
        let mut t = wired();
        t[2] = (
            "runner/src/hash.rs",
            "pub fn experiment_key_salted(exp: &Experiment, salt: &str) -> String {\n\
                 let mut hasher = SpecHasher::new();\n\
                 hasher.field(\"salt\", &salt);\n\
                 hasher.finish()\n\
             }\n",
        );
        let msgs = findings(&t);
        assert!(
            msgs.iter()
                .any(|m| m.contains("no longer feeds the cache key")),
            "{msgs:?}"
        );
    }

    #[test]
    fn deleting_the_docs_row_fires() {
        let mut t = wired();
        t[3] = ("README.md", "| `random` | policy table |\n");
        let msgs = findings(&t);
        assert!(
            msgs.iter()
                .any(|m| m.contains("Greedy") && m.contains("README.md")),
            "{msgs:?}"
        );
    }

    #[test]
    fn label_coverage_and_manual_debug_fire() {
        let mut t = wired();
        t[0] = (
            "policies/src/spec.rs",
            "pub enum PolicySpec { Random, Greedy }\n\
             impl PolicySpec {\n\
                 pub fn label(&self) -> String { \"policy\".into() }\n\
             }\n\
             impl std::fmt::Debug for PolicySpec {\n\
                 fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
                     write!(f, \"policy\")\n\
                 }\n\
             }\n",
        );
        let got = run(&t);
        assert!(
            got.iter()
                .any(|f| f.message.contains("not named in `label`")),
            "{got:?}"
        );
        let debug: Vec<_> = got
            .iter()
            .filter(|f| f.message.contains("hand-written Debug"))
            .collect();
        assert_eq!(debug.len(), 1, "{got:?}");
        assert_eq!(
            (debug[0].path.as_str(), debug[0].line),
            ("policies/src/spec.rs", 5)
        );
    }

    #[test]
    fn reachability_follows_from_str_for_engine_enums() {
        let mut t = wired();
        t.push((
            "core/src/config.rs",
            "#[derive(Debug, Clone, Copy, Default)]\n\
             pub enum EngineMode { #[default] PerServer, Population }\n\
             impl std::str::FromStr for EngineMode {\n\
                 type Err = String;\n\
                 fn from_str(s: &str) -> Result<Self, String> {\n\
                     match s {\n\
                         \"population\" => Ok(EngineMode::Population),\n\
                         _ => Ok(EngineMode::PerServer),\n\
                     }\n\
                 }\n\
             }\n\
             impl std::fmt::Display for EngineMode {\n\
                 fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n\
                     match self {\n\
                         EngineMode::PerServer => write!(f, \"per-server\"),\n\
                         EngineMode::Population => write!(f, \"population\"),\n\
                     }\n\
                 }\n\
             }\n",
        ));
        t[1] = (
            "cli/src/args.rs",
            "pub fn parse_policy(s: &str) -> PolicySpec {\n\
                 let _engine = s.parse::<EngineMode>();\n\
                 match s {\n\
                     \"greedy\" => PolicySpec::Greedy,\n\
                     _ => PolicySpec::Random,\n\
                 }\n\
             }\n",
        );
        t[2] = (
            "runner/src/hash.rs",
            "pub fn experiment_key_salted(exp: &Experiment, salt: &str) -> String {\n\
                 let mut hasher = SpecHasher::new();\n\
                 hasher.field(\"salt\", &salt);\n\
                 hasher.field(\"config\", &exp.config);\n\
                 hasher.field(\"policy\", &exp.policy);\n\
                 hasher.finish()\n\
             }\n",
        );
        t[3] = (
            "README.md",
            "| `random` | `greedy` | `per-server` | `population` | tables |\n",
        );
        assert_eq!(findings(&t), Vec::<String>::new());
    }

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

    fn key_findings(spec: &str, hash: &str) -> Vec<Finding> {
        run(&[
            ("core/src/experiment.rs", spec),
            ("runner/src/hash.rs", hash),
        ])
    }

    #[test]
    fn covered_spec_passes() {
        assert!(key_findings(SPEC_OK, HASH_OK).is_empty());
    }

    #[test]
    fn unhashed_field_is_flagged_at_its_line() {
        let spec = "pub struct Experiment {\n\
                    pub config: SimConfig,\n\
                    pub trials: usize,\n\
                    pub shiny: u32,\n\
                    }\n";
        let got = key_findings(spec, HASH_OK);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(
            (got[0].path.as_str(), got[0].line),
            ("core/src/experiment.rs", 4)
        );
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
        let got = key_findings(SPEC_OK, hash);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(
            (got[0].path.as_str(), got[0].line),
            ("runner/src/hash.rs", 6)
        );
        assert!(got[0].message.contains("`ghost`"));
    }

    #[test]
    fn absent_definitions_are_vacuous() {
        assert!(run(&[("core/src/other.rs", "fn f() {}")]).is_empty());
    }

    #[test]
    fn manual_debug_on_a_hashed_spec_type_is_flagged() {
        for ty in ["SimConfig", "ArrivalSpec", "InfoSpec", "PolicySpec"] {
            let spec = format!(
                "pub struct {ty} {{ pub servers: usize }}\n\
                 impl std::fmt::Debug for {ty} {{\n\
                 fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {{\n\
                 write!(f, \"{ty}\")\n\
                 }}\n\
                 }}\n"
            );
            let got = run(&[("core/src/config.rs", &spec)]);
            let debug: Vec<_> = got
                .iter()
                .filter(|f| f.message.contains("derived Debug"))
                .collect();
            assert_eq!(debug.len(), 1, "{ty}: {got:?}");
            assert_eq!(
                (debug[0].path.as_str(), debug[0].line),
                ("core/src/config.rs", 2)
            );
        }
    }

    #[test]
    fn underived_debug_on_a_hashed_spec_type_is_flagged() {
        let got = run(&[("core/src/config.rs", "pub enum ArrivalSpec { Poisson }\n")]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 1);
        assert!(got[0].message.contains("does not derive(Debug)"));
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
        assert!(run(&[("core/src/config.rs", spec)]).is_empty());
    }

    #[test]
    fn field_calls_outside_the_key_fn_do_not_count() {
        // The test module of the real hash.rs calls h.field("alpha", …);
        // those must not register as hashed spec paths.
        let hash = format!(
            "{HASH_OK}\nfn unrelated() {{ let mut h = SpecHasher::new(); h.field(\"alpha\", &1); }}\n"
        );
        assert!(key_findings(SPEC_OK, &hash).is_empty());
    }
}
