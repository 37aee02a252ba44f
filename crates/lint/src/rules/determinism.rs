//! Rule `determinism`: no ambient nondeterminism in simulation crates.
//!
//! Every trajectory in this repository must be a pure function of the
//! experiment spec (including the master seed): the golden-trajectory
//! and golden-batch suites pin results bit-for-bit across worker
//! counts and cache states. A single wall-clock read, an
//! iteration over a `HashMap` (whose order is salted per process) or a
//! buffer parked on a worker thread between trials in a
//! simulation-facing crate silently breaks that contract.
//!
//! The rule bans the usual suspects at the identifier level:
//!
//! * `Instant` / `SystemTime` — wall-clock time,
//! * `thread_rng` — OS-seeded randomness (simulations must draw from
//!   the forked [`SimRng`] streams),
//! * `HashMap` / `HashSet` / `RandomState` — per-process iteration
//!   order; use `BTreeMap`/`BTreeSet`/`Vec` instead,
//! * `thread_local` — state that outlives its trial; each trial
//!   allocates and owns its own state, whatever ran on the thread
//!   before it.
//!
//! Scope: library code of the simulation-facing crates. Test code and
//! the orchestration crates (`runner`, `bench`, `cli`, `lint`) may
//! measure wall-clock time freely — ETA displays and perf probes are
//! not part of any trajectory.

use crate::diag::Finding;
use crate::rules::Rule;
use crate::source::SourceFile;

/// Crates whose code feeds simulated trajectories.
const SIM_CRATES: &[&str] = &[
    "sim",
    "core",
    "cluster",
    "info",
    "policies",
    "workloads",
    "stats",
    "analytic",
    "staleload",
];

/// Banned identifier → why it is banned / what to use instead.
const BANNED: &[(&str, &str)] = &[
    (
        "Instant",
        "wall-clock time is nondeterministic; simulated time comes from the event scheduler",
    ),
    (
        "SystemTime",
        "wall-clock time is nondeterministic; simulated time comes from the event scheduler",
    ),
    (
        "thread_rng",
        "OS-seeded randomness breaks replay; draw from a forked SimRng stream",
    ),
    (
        "HashMap",
        "iteration order is salted per process; use BTreeMap or a Vec keyed by index",
    ),
    (
        "HashSet",
        "iteration order is salted per process; use BTreeSet or a sorted Vec",
    ),
    (
        "RandomState",
        "per-process hasher seeding is nondeterministic by design",
    ),
    (
        "thread_local",
        "state kept on a worker thread outlives the trial and makes a trial depend on what ran before it",
    ),
];

/// See the module docs.
pub struct Determinism;

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn describe(&self) -> &'static str {
        "forbid wall clocks, OS randomness, hash-order iteration, and thread-local state in simulation crates"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !SIM_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        for tok in &file.toks {
            if file.is_test_line(tok.line) {
                continue;
            }
            if let Some((name, why)) = BANNED.iter().find(|(n, _)| tok.is_ident(n)) {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`{name}` in simulation-facing crate `{}`: {why}",
                        file.crate_name
                    ),
                });
            }
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
            .filter(|f| f.rule == "determinism")
            .collect()
    }

    #[test]
    fn flags_banned_idents_in_sim_crates() {
        let src =
            "use std::time::Instant;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let got = findings("crates/policies/src/x.rs", src);
        assert_eq!(got.len(), 3, "{got:?}"); // Instant + 2× HashMap
        assert!(got[0].message.contains("wall-clock"));

        let pooled =
            "thread_local! {\n    static POOL: RefCell<Vec<u32>> = RefCell::new(Vec::new());\n}\n";
        let got = findings("crates/cluster/src/x.rs", pooled);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`thread_local`"));
        assert!(got[0].message.contains("outlives the trial"));
    }

    #[test]
    fn orchestration_crates_and_tests_are_exempt() {
        let src = "use std::time::Instant;\n";
        assert!(findings("crates/runner/src/pool.rs", src).is_empty());
        assert!(findings("crates/bench/src/bin/fig01.rs", src).is_empty());
        assert!(findings("crates/policies/tests/t.rs", src).is_empty());
        let gated = "#[cfg(test)]\nmod tests {\n use std::collections::HashSet;\n}\n";
        assert!(findings("crates/sim/src/x.rs", gated).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_count() {
        let src = "// HashMap would break determinism\nfn f() -> &'static str { \"Instant\" }\n";
        assert!(findings("crates/sim/src/x.rs", src).is_empty());
    }
}
