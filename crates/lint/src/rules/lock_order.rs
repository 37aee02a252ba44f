//! lock-order: Mutex acquisitions in the runner form a DAG.
//!
//! The runner is the only crate that holds real `std::sync::Mutex`es
//! (the journal's map and appender, the interning table). A deadlock
//! there doesn't fail a test — it hangs a multi-hour sweep at 3am with
//! no stack trace. The classic cause is two code paths acquiring the
//! same pair of locks in opposite orders, each path individually
//! correct.
//!
//! This rule builds, per function in `crates/runner`, the set of locks
//! acquired while another lock's guard is plausibly alive (using the
//! guard-lifetime spans the ir parser computes), propagates lock sets
//! through the name-approximated call graph so an `a.lock()` held
//! across a call to a function that takes `b.lock()` still produces the
//! edge `a → b`, and then denies:
//!
//! * **self-edges** — re-acquiring a lock (by receiver name) while a
//!   guard for the same name is alive: a guaranteed self-deadlock with
//!   `std::sync::Mutex`;
//! * **cycles** — any `a → … → a` path in the acquisition-order graph:
//!   two threads taking the cycle from different entry points can each
//!   hold one lock and wait forever for the other.
//!
//! Locks are identified by receiver name (`self.state.lock()` → `state`),
//! so distinct fields with the same name alias conservatively. Receivers
//! the parser cannot name (`<expr>`) never form edges.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Finding;
use crate::ir::ItemGraph;
use crate::rules::Rule;
use crate::workspace::Workspace;

/// Crate whose Mutex usage is modelled. Sim/core crates are lock-free
/// by design (single-threaded engine), so the graph is scoped to where
/// locks actually live; widening the scope is a one-line change.
const SCOPE_CRATE: &str = "runner";

/// Method names shared with std containers/guards. The call graph is
/// name-approximated, so `payload.len()` would otherwise resolve to a
/// `Journal::len` that takes the map lock and poison every transitive
/// lock set in the crate. Calls to these names are never followed
/// interprocedurally; lock effects inside such fns are still tracked
/// at their own direct acquisition sites. The cost: a genuinely
/// lockful method hiding behind one of these names (`journal.clear()`
/// called under another lock) is invisible to this rule — keep
/// lock-taking entry points distinctively named.
const AMBIENT_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "clear",
    "drop",
    "insert",
    "get",
    "push",
    "pop",
    "append",
    "remove",
    "take",
    "swap",
    "clone",
    "expect",
    "unwrap",
    "lock",
    "extend",
    "iter",
    "next",
    "flush",
    "write_all",
    "read",
    "open",
    "new",
    "parse",
    "finish",
];

/// One `a → b` acquisition-order edge with the location of the inner
/// acquisition (or of the call that leads to it).
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    path: String,
    line: u32,
    col: u32,
    /// Callee name when the inner acquisition happens inside a callee
    /// rather than directly in this function.
    via: Option<String>,
}

/// See the module docs.
pub struct LockOrder;

impl Rule for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn describe(&self) -> &'static str {
        "runner Mutex acquisition order is acyclic (interprocedural)"
    }

    fn explain(&self) -> &'static str {
        "Invariant: the Mutex acquisition-order graph of crates/runner is a\n\
         DAG — no lock is re-acquired while its own guard is alive, and no\n\
         two code paths acquire a pair of locks in opposite orders (tracked\n\
         through calls: a guard held across a call inherits the callee's\n\
         acquisitions). Rationale: an order cycle is a latent deadlock that\n\
         no test fails — it hangs a long sweep instead. Locks are named by\n\
         receiver identifier, so keep distinct Mutex fields distinctly named.\n\
         Suppress a deliberate exception (e.g. provably disjoint slot locks)\n\
         with `// lint: allow(lock-order) — <reason>`."
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let g = ItemGraph::build(ws);

        // Scoped function set: real (non-test, bodied) fns in the runner.
        let in_scope: Vec<usize> = g
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.crate_name == SCOPE_CRATE && !f.is_test && f.body.is_some())
            .map(|(i, _)| i)
            .collect();
        if in_scope.is_empty() {
            return;
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for &i in &in_scope {
            by_name.entry(g.fns[i].name.as_str()).or_default().push(i);
        }

        // Fixpoint: the set of lock names each scoped fn may acquire,
        // directly or through scoped callees.
        let mut acquires: Vec<BTreeSet<String>> = vec![BTreeSet::new(); g.fns.len()];
        for &i in &in_scope {
            for l in &g.fns[i].locks {
                if l.recv != "<expr>" {
                    acquires[i].insert(l.recv.clone());
                }
            }
        }
        loop {
            let mut changed = false;
            for &i in &in_scope {
                let mut gained: Vec<String> = Vec::new();
                for c in &g.fns[i].calls {
                    if AMBIENT_METHODS.contains(&c.callee.as_str()) {
                        continue;
                    }
                    for &j in by_name.get(c.callee.as_str()).into_iter().flatten() {
                        for l in &acquires[j] {
                            if !acquires[i].contains(l) {
                                gained.push(l.clone());
                            }
                        }
                    }
                }
                if !gained.is_empty() {
                    changed = true;
                    acquires[i].extend(gained);
                }
            }
            if !changed {
                break;
            }
        }

        // Edges: inner acquisitions (direct or via calls) inside each
        // guard's plausible lifetime.
        let mut edges: Vec<Edge> = Vec::new();
        for &i in &in_scope {
            let f = &g.fns[i];
            for outer in &f.locks {
                if outer.recv == "<expr>" {
                    continue;
                }
                for inner in &f.locks {
                    if inner.tok > outer.tok && inner.tok < outer.held_to && inner.recv != "<expr>"
                    {
                        edges.push(Edge {
                            from: outer.recv.clone(),
                            to: inner.recv.clone(),
                            path: f.path.clone(),
                            line: inner.line,
                            col: inner.col,
                            via: None,
                        });
                    }
                }
                for c in &f.calls {
                    if c.tok <= outer.tok || c.tok >= outer.held_to {
                        continue;
                    }
                    if AMBIENT_METHODS.contains(&c.callee.as_str()) {
                        continue;
                    }
                    for &j in by_name.get(c.callee.as_str()).into_iter().flatten() {
                        for l in &acquires[j] {
                            edges.push(Edge {
                                from: outer.recv.clone(),
                                to: l.clone(),
                                path: f.path.clone(),
                                line: c.line,
                                col: c.col,
                                via: Some(c.callee.clone()),
                            });
                        }
                    }
                }
            }
        }
        // Dedup edges by (from, to), keeping the lexically first site.
        edges.sort_by(|a, b| {
            (&a.from, &a.to, &a.path, a.line, a.col).cmp(&(&b.from, &b.to, &b.path, b.line, b.col))
        });
        edges.dedup_by(|a, b| a.from == b.from && a.to == b.to);

        // Adjacency over lock names.
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in &edges {
            adj.entry(e.from.as_str())
                .or_default()
                .insert(e.to.as_str());
        }
        let reaches = |from: &str, to: &str| -> bool {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut work = vec![from];
            while let Some(n) = work.pop() {
                if n == to {
                    return true;
                }
                for &m in adj.get(n).into_iter().flatten() {
                    if seen.insert(m) {
                        work.push(m);
                    }
                }
            }
            false
        };

        for e in &edges {
            if e.from == e.to {
                let via = e
                    .via
                    .as_ref()
                    .map(|v| format!(" (via call to `{v}`)"))
                    .unwrap_or_default();
                out.push(Finding {
                    rule: self.name(),
                    path: e.path.clone(),
                    line: e.line,
                    col: e.col,
                    message: format!(
                        "lock `{}` acquired while its own guard may still be alive{via} — \
                         std::sync::Mutex self-deadlocks; drop the guard first",
                        e.from
                    ),
                });
            } else if reaches(&e.to, &e.from) {
                let via = e
                    .via
                    .as_ref()
                    .map(|v| format!(" (via call to `{v}`)"))
                    .unwrap_or_default();
                out.push(Finding {
                    rule: self.name(),
                    path: e.path.clone(),
                    line: e.line,
                    col: e.col,
                    message: format!(
                        "lock-order cycle: `{}` is acquired while `{}` is held{via}, but \
                         another path acquires `{}` while `{}` is held — pick one order \
                         and use it everywhere",
                        e.to, e.from, e.from, e.to
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

    fn findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::from_sources(files);
        crate::rules::run(&ws, &[])
            .into_iter()
            .filter(|f| f.rule == "lock-order")
            .collect()
    }

    #[test]
    fn consistent_order_passes() {
        let src = "fn a(s: &S) {\n\
                   let m = s.map.lock().unwrap();\n\
                   let j = s.journal.lock().unwrap();\n\
                   drop(j); drop(m);\n\
                   }\n\
                   fn b(s: &S) {\n\
                   let m = s.map.lock().unwrap();\n\
                   let j = s.journal.lock().unwrap();\n\
                   drop(j); drop(m);\n\
                   }\n";
        assert!(findings(&[("crates/runner/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn opposite_orders_are_a_cycle() {
        let src = "fn a(s: &S) {\n\
                   let m = s.map.lock().unwrap();\n\
                   let j = s.journal.lock().unwrap();\n\
                   drop(j); drop(m);\n\
                   }\n\
                   fn b(s: &S) {\n\
                   let j = s.journal.lock().unwrap();\n\
                   let m = s.map.lock().unwrap();\n\
                   drop(m); drop(j);\n\
                   }\n";
        let got = findings(&[("crates/runner/src/x.rs", src)]);
        assert!(!got.is_empty());
        assert!(got.iter().any(|f| f.message.contains("cycle")), "{got:?}");
    }

    #[test]
    fn double_lock_is_a_self_edge() {
        let src = "fn a(s: &S) {\n\
                   let m = s.map.lock().unwrap();\n\
                   let n = s.map.lock().unwrap();\n\
                   drop(n); drop(m);\n\
                   }\n";
        let got = findings(&[("crates/runner/src/x.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("self-deadlock"));
    }

    #[test]
    fn sequential_guards_do_not_form_edges() {
        let src = "fn a(s: &S) {\n\
                   { let m = s.map.lock().unwrap(); drop(m); }\n\
                   { let j = s.journal.lock().unwrap(); drop(j); }\n\
                   }\n\
                   fn b(s: &S) {\n\
                   { let j = s.journal.lock().unwrap(); drop(j); }\n\
                   { let m = s.map.lock().unwrap(); drop(m); }\n\
                   }\n";
        assert!(findings(&[("crates/runner/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn cycles_through_calls_are_found() {
        let src = "fn outer(s: &S) {\n\
                   let m = s.map.lock().unwrap();\n\
                   helper(s);\n\
                   drop(m);\n\
                   }\n\
                   fn helper(s: &S) {\n\
                   let j = s.journal.lock().unwrap();\n\
                   drop(j);\n\
                   }\n\
                   fn other(s: &S) {\n\
                   let j = s.journal.lock().unwrap();\n\
                   let m = s.map.lock().unwrap();\n\
                   drop(m); drop(j);\n\
                   }\n";
        let got = findings(&[("crates/runner/src/x.rs", src)]);
        assert!(
            got.iter().any(
                |f| f.message.contains("cycle") && f.message.contains("helper")
                    || f.message.contains("cycle")
            ),
            "{got:?}"
        );
    }

    #[test]
    fn locks_outside_the_runner_are_ignored() {
        let src = "fn a(s: &S) {\n\
                   let m = s.map.lock().unwrap();\n\
                   let n = s.map.lock().unwrap();\n\
                   drop(n); drop(m);\n\
                   }\n";
        assert!(findings(&[("crates/cli/src/x.rs", src)]).is_empty());
    }
}
