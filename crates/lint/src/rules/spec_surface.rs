//! spec-surface: every public spec variant stays fully wired.
//!
//! The experiment spec surface — `PolicySpec`, `InfoSpec`, `FaultSpec`,
//! and the `EngineMode` enum — must stay wired into four seams at
//! once: the CLI parser (a variant nobody can request is dead weight),
//! the salted cache key (a variant the key ignores aliases cached
//! results), Display/CSV emission (a variant that prints as something
//! else corrupts result tables), and the README/DESIGN flag tables (a
//! variant the docs omit is unusable). `cache-key` watches one struct
//! at one seam; this rule generalizes the idea to the whole enum
//! surface in both directions using the item graph.
//!
//! Each check is vacuous when its evidence source is absent from the
//! lint root (no `cli` crate → no reachability check; no
//! `experiment_key_salted` → no key check; no docs files → no docs
//! check), so fixture trees for other rules stay clean.

use crate::diag::Finding;
use crate::ir::{EnumDef, FnDef, ItemGraph, StructDef};
use crate::rules::Rule;
use crate::workspace::Workspace;

/// How a watched type exposes its surface.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Public enum: the surface is its variants.
    Enum,
    /// Struct of optional knobs: the surface is its named fields.
    Struct,
}

/// One watched spec type.
struct Surface {
    type_name: &'static str,
    kind: Kind,
    /// `hasher.field("<path>", …)` that must appear in
    /// `experiment_key_salted` for this type to feed the cache key.
    key_path: &'static str,
    /// `SimConfig` field carrying the type, when it is keyed through
    /// the config rather than as a top-level hash path.
    config_field: Option<&'static str>,
    /// The emission fn checked for per-variant coverage: an inherent
    /// `label` or a `Display::fmt`.
    display_fn: &'static str,
}

const SURFACES: &[Surface] = &[
    Surface {
        type_name: "PolicySpec",
        kind: Kind::Enum,
        key_path: "policy",
        config_field: None,
        display_fn: "label",
    },
    Surface {
        type_name: "InfoSpec",
        kind: Kind::Enum,
        key_path: "info",
        config_field: None,
        display_fn: "label",
    },
    Surface {
        type_name: "FaultSpec",
        kind: Kind::Struct,
        key_path: "config",
        config_field: Some("faults"),
        display_fn: "fmt",
    },
    Surface {
        type_name: "EngineMode",
        kind: Kind::Enum,
        key_path: "config",
        config_field: Some("engine"),
        display_fn: "fmt",
    },
];

/// See the module docs.
pub struct SpecSurface;

impl Rule for SpecSurface {
    fn name(&self) -> &'static str {
        "spec-surface"
    }

    fn describe(&self) -> &'static str {
        "every spec variant is CLI-reachable, cache-keyed, displayed, and documented"
    }

    fn explain(&self) -> &'static str {
        "Invariant: every public variant of PolicySpec/InfoSpec/FaultSpec and the\n\
         EngineMode enum is (a) constructible from the CLI parser, (b) hashed\n\
         into experiment_key_salted (directly or through SimConfig, with derived\n\
         Debug), (c) covered by its label()/Display emission, and (d) named in the\n\
         README.md/DESIGN.md tables.\n\
         Rationale: PRs 7-9 each widened the spec surface; a variant missing any of\n\
         those four seams is either unusable, aliases cached results, or corrupts\n\
         result tables — and nothing else in the build notices.\n\
         Suppress one seam at the definition site with\n\
         `// lint: allow(spec-surface) — <reason>`."
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let g = ItemGraph::build(ws);
        let has_cli = g.fns.iter().any(|f| f.crate_name == "cli" && !f.is_test);
        let reached = if has_cli {
            Some(g.reachable_fns(|f| f.crate_name == "cli" && !f.is_test))
        } else {
            None
        };
        let key_fn = g
            .fns_named("experiment_key_salted")
            .find(|f| !f.is_test && f.body.is_some());
        let hashed = key_fn.map(|f| hashed_paths(ws, f));
        let sim_config = g.structs_named("SimConfig").find(|s| !s.path.is_empty());

        for sf in SURFACES {
            match sf.kind {
                Kind::Enum => {
                    let Some(e) = g.enums_named(sf.type_name).next() else {
                        continue;
                    };
                    self.check_enum(
                        ws,
                        &g,
                        sf,
                        e,
                        reached.as_deref(),
                        hashed.as_deref(),
                        sim_config,
                        out,
                    );
                }
                Kind::Struct => {
                    let Some(s) = g.structs_named(sf.type_name).next() else {
                        continue;
                    };
                    self.check_struct(
                        ws,
                        &g,
                        sf,
                        s,
                        reached.as_deref(),
                        hashed.as_deref(),
                        sim_config,
                        out,
                    );
                }
            }
        }
    }
}

impl SpecSurface {
    #[allow(clippy::too_many_arguments)]
    fn check_enum(
        &self,
        ws: &Workspace,
        g: &ItemGraph,
        sf: &Surface,
        e: &EnumDef,
        reached: Option<&[bool]>,
        hashed: Option<&[String]>,
        sim_config: Option<&StructDef>,
        out: &mut Vec<Finding>,
    ) {
        // (a) CLI reachability, per variant.
        if let Some(reached) = reached {
            for v in &e.variants {
                let constructed = g.fns.iter().enumerate().any(|(i, f)| {
                    reached[i]
                        && !f.is_test
                        && f.constructions
                            .iter()
                            .any(|p| !p.in_pattern && p.ty == sf.type_name && p.variant == v.name)
                });
                if !constructed {
                    out.push(self.finding(
                        e,
                        v.line,
                        v.col,
                        format!(
                            "`{}::{}` is not constructed on any path reachable from the \
                             CLI parser — the variant cannot be requested; wire it into \
                             the parser (or its FromStr) or retire it",
                            sf.type_name, v.name
                        ),
                    ));
                }
            }
        }
        // (b) cache-key coverage for the whole type.
        self.check_key(
            g, sf, e.line, e.col, &e.path, &e.derives, hashed, sim_config, out,
        );
        // (c) Display/CSV emission covers every variant.
        if let Some(f) = display_fn_of(g, sf) {
            for v in &e.variants {
                if !fn_mentions(ws, f, &v.name) {
                    out.push(self.finding(
                        e,
                        v.line,
                        v.col,
                        format!(
                            "`{}::{}` is not named in `{}` ({}): the emission path \
                             cannot distinguish it — add an explicit arm",
                            sf.type_name, v.name, sf.display_fn, f.path
                        ),
                    ));
                }
            }
        } else {
            out.push(self.finding(
                e,
                e.line,
                e.col,
                format!(
                    "`{}` has no `{}` emission fn — every spec type must print \
                     itself for CSV/stdout labeling",
                    sf.type_name, sf.display_fn
                ),
            ));
        }
        // (d) docs coverage, per variant.
        if !ws.docs.is_empty() {
            for v in &e.variants {
                if !docs_mention(ws, &v.name) {
                    out.push(self.finding(
                        e,
                        v.line,
                        v.col,
                        format!(
                            "`{}::{}` (`{}`) is not named in README.md/DESIGN.md — \
                             document the variant in the flag tables",
                            sf.type_name,
                            v.name,
                            kebab(&v.name)
                        ),
                    ));
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_struct(
        &self,
        ws: &Workspace,
        g: &ItemGraph,
        sf: &Surface,
        s: &StructDef,
        reached: Option<&[bool]>,
        hashed: Option<&[String]>,
        sim_config: Option<&StructDef>,
        out: &mut Vec<Finding>,
    ) {
        // (a) every knob field is settable from the CLI.
        if let Some(reached) = reached {
            for fld in &s.fields {
                let written =
                    g.fns.iter().enumerate().any(|(i, f)| {
                        reached[i] && !f.is_test && fn_writes_field(ws, f, &fld.name)
                    });
                if !written {
                    out.push(Finding {
                        rule: self.name(),
                        path: s.path.clone(),
                        line: fld.line,
                        col: fld.col,
                        message: format!(
                            "`{}.{}` is never set on any path reachable from the CLI \
                             parser — the fault knob cannot be requested; wire it into \
                             the parser (or FromStr) or retire it",
                            sf.type_name, fld.name
                        ),
                    });
                }
            }
        }
        // (b) cache-key coverage.
        self.check_key(
            g, sf, s.line, s.col, &s.path, &s.derives, hashed, sim_config, out,
        );
        // (c) Display mentions every field.
        if let Some(f) = display_fn_of(g, sf) {
            for fld in &s.fields {
                if !fn_mentions(ws, f, &fld.name) {
                    out.push(Finding {
                        rule: self.name(),
                        path: s.path.clone(),
                        line: fld.line,
                        col: fld.col,
                        message: format!(
                            "`{}.{}` is not mentioned by `{}` ({}): an active knob \
                             would print as if it were off",
                            sf.type_name, fld.name, sf.display_fn, f.path
                        ),
                    });
                }
            }
        } else {
            out.push(Finding {
                rule: self.name(),
                path: s.path.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "`{}` has no `{}` emission fn — every spec type must print \
                     itself for CSV/stdout labeling",
                    sf.type_name, sf.display_fn
                ),
            });
        }
        // (d) docs coverage.
        if !ws.docs.is_empty() {
            for fld in &s.fields {
                if !docs_mention(ws, &fld.name) {
                    out.push(Finding {
                        rule: self.name(),
                        path: s.path.clone(),
                        line: fld.line,
                        col: fld.col,
                        message: format!(
                            "`{}.{}` is not named in README.md/DESIGN.md — document \
                             the knob in the flag tables",
                            sf.type_name, fld.name
                        ),
                    });
                }
            }
        }
    }

    /// The shared cache-key checks: the hash path exists, the type is
    /// carried by the expected `SimConfig` field, and its Debug (the
    /// hashed rendering) is derived, not hand-written.
    #[allow(clippy::too_many_arguments)]
    fn check_key(
        &self,
        g: &ItemGraph,
        sf: &Surface,
        line: u32,
        col: u32,
        path: &str,
        derives: &[String],
        hashed: Option<&[String]>,
        sim_config: Option<&StructDef>,
        out: &mut Vec<Finding>,
    ) {
        let at = |message: String| Finding {
            rule: self.name(),
            path: path.to_string(),
            line,
            col,
            message,
        };
        if let Some(hashed) = hashed {
            if !hashed.iter().any(|p| p == sf.key_path) {
                out.push(at(format!(
                    "`{}` no longer feeds the cache key: experiment_key_salted does \
                     not hash the `{}` path — two experiments differing only here \
                     would alias one cache entry",
                    sf.type_name, sf.key_path
                )));
            }
            if !derives.iter().any(|d| d == "Debug") {
                out.push(at(format!(
                    "`{}` is hashed into the cache key via Debug but does not \
                     derive(Debug) — the key cannot see it",
                    sf.type_name
                )));
            }
            if let Some(manual) = g.fns_named("fmt").find(|f| {
                f.trait_name.as_deref() == Some("Debug") && f.owner.as_deref() == Some(sf.type_name)
            }) {
                out.push(Finding {
                    rule: self.name(),
                    path: manual.path.clone(),
                    line: manual.line,
                    col: manual.col,
                    message: format!(
                        "hand-written `impl Debug for {}` — the cache key hashes the \
                         Debug rendering, so a manual impl can silently drop spec \
                         state from the key; keep it derived",
                        sf.type_name
                    ),
                });
            }
            if let (Some(field), Some(cfg)) = (sf.config_field, sim_config) {
                if !cfg.fields.iter().any(|f| f.name == field) {
                    out.push(at(format!(
                        "`{}` is keyed through `SimConfig.{}`, but SimConfig has no \
                         such field — the cache key no longer covers it",
                        sf.type_name, field
                    )));
                }
            }
        }
    }

    fn finding(&self, e: &EnumDef, line: u32, col: u32, message: String) -> Finding {
        Finding {
            rule: self.name(),
            path: e.path.clone(),
            line,
            col,
            message,
        }
    }
}

/// The string paths hashed by `experiment_key_salted`: first argument
/// of each `field(…)` call with a literal path.
fn hashed_paths(ws: &Workspace, f: &FnDef) -> Vec<String> {
    let toks = &ws.files[f.file].toks;
    f.calls
        .iter()
        .filter(|c| c.callee == "field")
        .filter_map(|c| toks.get(c.args.0))
        .filter(|t| t.kind == crate::lexer::TokKind::Str)
        .map(|t| t.text.clone())
        .collect()
}

/// The emission fn for a surface: an inherent `label` on the type, or
/// a `Display::fmt` for it.
fn display_fn_of<'g>(g: &'g ItemGraph, sf: &Surface) -> Option<&'g FnDef> {
    g.fns.iter().find(|f| {
        !f.is_test
            && f.owner.as_deref() == Some(sf.type_name)
            && f.name == sf.display_fn
            && (sf.display_fn != "fmt" || f.trait_name.as_deref() == Some("Display"))
    })
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

    fn findings(sources: &[(&str, &str)]) -> Vec<String> {
        let ws = Workspace::from_sources(sources);
        rules::run(&ws, &[])
            .into_iter()
            .filter(|f| f.rule == "spec-surface")
            .map(|f| f.message)
            .collect()
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
            "#[derive(Debug, Clone)]\n\
             pub enum PolicySpec { Random, Greedy }\n\
             impl PolicySpec {\n\
                 pub fn label(&self) -> String { \"policy\".into() }\n\
             }\n",
        );
        let msgs = findings(&t);
        assert!(
            msgs.iter().any(|m| m.contains("not named in `label`")),
            "{msgs:?}"
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
}
