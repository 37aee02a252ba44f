//! **staleload-lint** — the workspace invariant checker.
//!
//! Every result in this reproduction rests on invariants the compiler
//! cannot see: bit-identical trajectories across worker counts and cache
//! states, a pinned RNG fork order in the engine, and a
//! content-addressed cache whose key must cover every spec field. The
//! runtime test suites catch violations *after* the damage is written;
//! this dependency-free static-analysis pass catches them at the
//! source line, before a build ever runs.
//!
//! The linter tokenizes the workspace's Rust sources with a
//! comment/string-aware lexer (no `syn`, no dependencies), parses the
//! token streams into a workspace **item graph** ([`ir`]: enums,
//! structs, impl headers, functions with name-approximated call edges
//! and pattern-aware variant paths, and Mutex acquisition spans), and
//! runs eight rules over both layers:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `determinism`       | no wall clocks, OS randomness, or hash-order iteration in simulation crates |
//! | `panic-hygiene`     | config-reachable crates return typed errors instead of panicking |
//! | `crate-hardening`   | every crate root carries `#![forbid(unsafe_code)]` |
//! | `atomic-io`         | results are written via temp-file + rename, never in place |
//! | `spec-surface`      | the cache key covers every `Experiment` field; every spec variant is parseable, cache-keyed, displayed, and documented |
//! | `rng-flow`          | `master.fork()` streams follow the pinned manifest and never leak into keys |
//! | `float-determinism` | float comparators use `total_cmp`; no hash-order float reductions |
//! | `lock-order`        | runner Mutex acquisition order is acyclic (interprocedural) |
//!
//! Individual findings are suppressed with a reviewed pragma:
//!
//! ```text
//! x.expect("peeked above") // lint: allow(panic-hygiene) — pop follows peek
//! ```
//!
//! A trailing pragma covers its own line; a pragma alone on a line
//! covers the next line. See DESIGN.md §10 for the rule catalogue and
//! how to add a rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod ir;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

pub use diag::{render_json, Finding};
pub use rules::{all, run, Rule};
pub use workspace::Workspace;
