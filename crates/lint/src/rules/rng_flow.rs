//! rng-flow: forked RNG streams bind once and stay in their subsystem.
//!
//! Trajectory reproducibility rests on the fork tree: `run_inner`
//! forks one child stream per subsystem off the master RNG, in an
//! order pinned by [`MANIFEST`], and each stream is drawn only by its
//! subsystem: the event source that holds it. The manifest is a fork
//! order, not the order in which sources fire at a tie (the board,
//! which draws `model_rng`, fires first). This rule subsumes the old
//! single-site `fork-discipline` manifest check and extends it with
//! taint tracking over the item graph:
//!
//! * **Manifest** — in any file that forks `master`, the
//!   `master.fork()` calls must be exactly the canonical
//!   `let mut <name> = master.fork();` statements, unconditional (one
//!   brace depth), matching [`MANIFEST`] name-for-name in order.
//! * **Bind-once** — within a function, a name is bound from a fork at
//!   most once; rebinding silently restarts the stream.
//! * **No clones** — a forked stream is never `.clone()`d: a clone
//!   replays the same draws in two places, correlating subsystems that
//!   must be independent.
//! * **No RNG into keys** — no stream (fork-bound or `*_rng`-named)
//!   flows into a key/hash function (`field`, `*hash*`, `*key*`): the
//!   cache key must be a function of the spec, never of drawn state.
//! * **One stream per call** — a single call never receives two
//!   distinct manifest streams; handing two subsystems' streams across
//!   one boundary is how draws migrate between streams unnoticed.

use crate::diag::Finding;
use crate::ir::{FnDef, ItemGraph};
use crate::lexer::{Tok, TokKind};
use crate::rules::Rule;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// The pinned fork order of the engine's subsystem streams.
///
/// Append-only. Inserting or reordering entries re-seeds every stream
/// after the insertion point and invalidates all historical
/// trajectories, golden tests, and cache entries.
pub const MANIFEST: &[&str] = &[
    "arrival_rng",
    "service_rng",
    "policy_rng",
    "model_rng",
    "fault_rng",
    "retry_rng",
];

/// See the module docs.
pub struct RngFlow;

impl Rule for RngFlow {
    fn name(&self) -> &'static str {
        "rng-flow"
    }

    fn describe(&self) -> &'static str {
        "forked RNG streams: pinned manifest, bind once, no clones, never into keys"
    }

    fn explain(&self) -> &'static str {
        "Invariant: master.fork() sites form the exact pinned preamble\n\
         (arrival, service, policy, model, fault, retry — in order, unconditional);\n\
         each forked stream binds exactly once per fn, is never cloned, never\n\
         flows into a key/hash function, and no call receives two distinct\n\
         subsystem streams.\n\
         Rationale: the paper's results are trajectory-comparisons; any fork\n\
         reorder, clone, or cross-subsystem reuse silently changes every\n\
         trajectory while keeping all statistics plausible.\n\
         Suppress a deliberate exception with\n\
         `// lint: allow(rng-flow) — <reason>` on the offending line; growing a\n\
         new stream means appending to MANIFEST in staleload-lint and bumping\n\
         CACHE_SALT."
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        self.check_manifest(file, out);
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let g = ItemGraph::build(ws);
        for f in &g.fns {
            if f.is_test || f.body.is_none() {
                continue;
            }
            self.check_fn(ws, f, out);
        }
    }
}

/// True for identifiers that name an RNG stream by convention.
fn is_rng_name(name: &str) -> bool {
    name == "rng" || name == "master" || name.ends_with("_rng")
}

impl RngFlow {
    /// The ported fork-discipline check: canonical, unconditional,
    /// manifest-ordered `master.fork()` preamble.
    fn check_manifest(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &file.toks;
        // Pre-compute brace depth before each token.
        let mut depths = Vec::with_capacity(toks.len());
        let mut d = 0i32;
        for t in toks {
            depths.push(d);
            if t.is_punct('{') {
                d += 1;
            } else if t.is_punct('}') {
                d -= 1;
            }
        }

        // Collect `master . fork ( )` call sites outside test code.
        let mut sites: Vec<(usize, &Tok)> = Vec::new();
        for i in 0..toks.len() {
            if toks[i].is_ident("master")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("fork"))
                && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 4).is_some_and(|t| t.is_punct(')'))
                && !file.is_test_line(toks[i].line)
            {
                sites.push((i, &toks[i]));
            }
        }
        if sites.is_empty() {
            return;
        }

        let mut names: Vec<String> = Vec::new();
        let base_depth = depths[sites[0].0];
        for &(i, tok) in &sites {
            // The canonical shape is `let mut <name> = master.fork();` —
            // anything else (a fork inside `if`, behind `?`, in a struct
            // literal) is a trajectory hazard.
            let shape_ok = i >= 4
                && toks[i - 4].is_ident("let")
                && toks[i - 3].is_ident("mut")
                && toks[i - 2].kind == TokKind::Ident
                && toks[i - 1].is_punct('=')
                && toks.get(i + 5).is_some_and(|t| t.is_punct(';'));
            if !shape_ok {
                out.push(
                    self.at(
                        file,
                        tok,
                        "master.fork() outside the canonical `let mut <name> = master.fork();` \
                     preamble — forks must be unconditional plain bindings or every \
                     trajectory silently changes"
                            .to_string(),
                    ),
                );
                continue;
            }
            if depths[i] != base_depth {
                out.push(
                    self.at(
                        file,
                        tok,
                        "master.fork() at a different nesting depth than the first fork — a \
                     conditional fork desynchronizes every later stream"
                            .to_string(),
                    ),
                );
                continue;
            }
            names.push(toks[i - 2].text.clone());
        }

        if names != MANIFEST {
            out.push(self.at(
                file,
                sites[0].1,
                format!(
                    "fork sequence [{}] does not match the pinned manifest [{}]; append new \
                     streams at the end, update the manifest in staleload-lint, and bump \
                     CACHE_SALT",
                    names.join(", "),
                    MANIFEST.join(", ")
                ),
            ));
        }
    }

    /// The taint checks over one function body.
    fn check_fn(&self, ws: &Workspace, f: &FnDef, out: &mut Vec<Finding>) {
        let file = &ws.files[f.file];
        let toks = &file.toks;
        let Some((lo, hi)) = f.body else {
            return;
        };

        // Names bound from a `.fork()` result in this fn: the shape is
        // `[let [mut]] NAME = RECV.fork()` — a fork nested inside a
        // larger expression binds nothing.
        let mut bound: Vec<(String, &Tok)> = Vec::new();
        for c in f.calls.iter().filter(|c| c.callee == "fork") {
            if !(c.tok >= 4
                && toks[c.tok - 1].is_punct('.')
                && toks[c.tok - 2].kind == TokKind::Ident
                && toks[c.tok - 3].is_punct('='))
            {
                continue;
            }
            let name = &toks[c.tok - 4];
            if name.kind == TokKind::Ident && !name.is_ident("mut") && !name.is_ident("let") {
                bound.push((name.text.clone(), name));
            }
        }

        // Bind-once: the same name bound from a fork twice in one fn.
        for (i, (name, tok)) in bound.iter().enumerate() {
            if bound[..i].iter().any(|(n, _)| n == name) {
                out.push(self.at(
                    file,
                    tok,
                    format!(
                        "`{name}` is bound from a fork more than once in `{}` — rebinding \
                         restarts the stream mid-run and silently changes the trajectory",
                        f.name
                    ),
                ));
            }
        }

        let tainted = |name: &str| is_rng_name(name) || bound.iter().any(|(n, _)| n == name);

        // No clones of a forked/RNG-named stream.
        let mut i = lo;
        while i <= hi.min(toks.len().saturating_sub(1)) {
            if toks[i].is_ident("clone")
                && i >= 2
                && toks[i - 1].is_punct('.')
                && toks[i - 2].kind == TokKind::Ident
                && tainted(&toks[i - 2].text)
                && !file.is_test_line(toks[i].line)
            {
                out.push(self.at(
                    file,
                    &toks[i],
                    format!(
                        "`{}.clone()` duplicates an RNG stream — the copy replays the same \
                         draws and correlates subsystems that must be independent; fork a \
                         child stream instead",
                        toks[i - 2].text
                    ),
                ));
            }
            i += 1;
        }

        for c in &f.calls {
            if file.is_test_line(c.line) {
                continue;
            }
            let args = &toks[c.args.0..c.args.1.min(toks.len())];
            // No RNG value into a key/hash function.
            let keyish =
                c.callee == "field" || c.callee.contains("hash") || c.callee.contains("key");
            if keyish && c.callee != "fork" {
                for t in args.iter().filter(|t| t.kind == TokKind::Ident) {
                    if tainted(&t.text) {
                        out.push(self.at(
                            file,
                            t,
                            format!(
                                "RNG stream `{}` flows into key/hash function `{}` — cache \
                                 keys must be functions of the spec, never of drawn state",
                                t.text, c.callee
                            ),
                        ));
                    }
                }
            }
            // One subsystem stream per call boundary.
            let mut streams: Vec<&str> = args
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
                .filter(|n| MANIFEST.contains(n))
                .collect();
            streams.sort_unstable();
            streams.dedup();
            if streams.len() > 1 {
                out.push(self.at(
                    file,
                    &toks[c.tok],
                    format!(
                        "call to `{}` receives {} distinct subsystem streams ([{}]) — one \
                         stream per subsystem boundary, or draws silently migrate between \
                         streams",
                        c.callee,
                        streams.len(),
                        streams.join(", ")
                    ),
                ));
            }
        }
    }

    fn at(&self, file: &SourceFile, tok: &Tok, message: String) -> Finding {
        Finding {
            rule: self.name(),
            path: file.rel_path.clone(),
            line: tok.line,
            col: tok.col,
            message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    const GOOD: &str = "fn run_inner() {\n\
                        let mut master = SimRng::from_seed(seed);\n\
                        let mut arrival_rng = master.fork();\n\
                        let mut service_rng = master.fork();\n\
                        let mut policy_rng = master.fork();\n\
                        let mut model_rng = master.fork();\n\
                        let mut fault_rng = master.fork();\n\
                        let mut retry_rng = master.fork();\n\
                        let sub = fault_rng.fork();\n\
                        }\n";

    fn findings(src: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(&[("core/src/engine.rs", src)]);
        crate::rules::run(&ws, &[])
            .into_iter()
            .filter(|f| f.rule == "rng-flow")
            .collect()
    }

    #[test]
    fn canonical_preamble_and_sub_forks_pass() {
        assert!(findings(GOOD).is_empty(), "{:?}", findings(GOOD));
    }

    #[test]
    fn reordered_forks_are_flagged() {
        let swapped = GOOD
            .replace("arrival_rng", "TMP")
            .replace("service_rng", "arrival_rng")
            .replace("TMP", "service_rng");
        let got = findings(&swapped);
        assert!(
            got.iter().any(|f| f.message.contains("manifest")),
            "{got:?}"
        );
    }

    #[test]
    fn missing_fork_is_flagged() {
        let missing = GOOD.replace("let mut retry_rng = master.fork();\n", "");
        assert!(!findings(&missing).is_empty());
    }

    #[test]
    fn conditional_fork_is_flagged() {
        let conditional = GOOD.replace(
            "let mut fault_rng = master.fork();",
            "let mut fault_rng = make();\nif faulty { fault_rng = master.fork(); }",
        );
        let got = findings(&conditional);
        assert!(
            got.iter()
                .any(|f| f.message.contains("unconditional") || f.message.contains("nesting depth")),
            "{got:?}"
        );
    }

    #[test]
    fn rebinding_a_stream_is_flagged() {
        let src = "fn f(parent: &mut SimRng) {\n\
                   let mut a = parent.fork();\n\
                   a = parent.fork();\n\
                   }\n";
        let got = findings(src);
        assert!(
            got.iter().any(|f| f.message.contains("more than once")),
            "{got:?}"
        );
    }

    #[test]
    fn cloning_a_stream_is_flagged() {
        let src = "fn f(parent: &mut SimRng) {\n\
                   let mut a = parent.fork();\n\
                   let b = a.clone();\n\
                   }\n";
        let got = findings(src);
        assert!(got.iter().any(|f| f.message.contains("clone")), "{got:?}");
    }

    #[test]
    fn rng_into_key_functions_is_flagged() {
        let src = "fn f(policy_rng: &mut SimRng) {\n\
                   hasher.field(\"seed\", &policy_rng);\n\
                   }\n";
        let got = findings(src);
        assert!(
            got.iter().any(|f| f.message.contains("key/hash")),
            "{got:?}"
        );
    }

    #[test]
    fn two_streams_in_one_call_are_flagged() {
        let src = "fn f() {\n\
                   spawn_subsystem(&mut arrival_rng, &mut service_rng);\n\
                   }\n";
        let got = findings(src);
        assert!(
            got.iter().any(|f| f.message.contains("distinct subsystem")),
            "{got:?}"
        );
    }

    #[test]
    fn files_without_master_forks_are_exempt() {
        assert!(findings("fn f() { let child = parent.fork(); }").is_empty());
    }
}
