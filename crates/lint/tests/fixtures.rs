//! Fixture-backed acceptance tests: every rule has a pass tree that is
//! clean and a fail tree that trips it, and the CLI's exit codes agree.

use std::path::PathBuf;
use std::process::Command;

use staleload_lint::{rules, Workspace};

const RULES: &[&str] = &[
    "determinism",
    "panic-hygiene",
    "crate-hardening",
    "atomic-io",
    "spec-surface",
    "rng-flow",
    "float-determinism",
    "lock-order",
];

fn fixture(rule: &str, polarity: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule)
        .join(polarity)
}

fn findings_of(rule: &str, polarity: &str) -> Vec<staleload_lint::Finding> {
    let ws = Workspace::load(&fixture(rule, polarity)).expect("fixture tree loads");
    rules::run(&ws, &[])
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn every_rule_is_registered() {
    let names: Vec<&str> = rules::all().iter().map(|r| r.name()).collect();
    assert_eq!(names, RULES);
}

/// The corpus meta-test: every registered rule ships at least one pass
/// and one fail fixture containing Rust sources, so no rule can land
/// without demonstrating both polarities.
#[test]
fn every_rule_has_a_pass_and_fail_fixture() {
    fn rust_files(dir: &std::path::Path) -> usize {
        let mut n = 0;
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).expect("fixture dir readable") {
                let p = entry.expect("fixture entry readable").path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|e| e == "rs") {
                    n += 1;
                }
            }
        }
        n
    }
    for rule in rules::all() {
        for polarity in ["pass", "fail"] {
            let dir = fixture(rule.name(), polarity);
            assert!(
                dir.is_dir(),
                "rule `{}` has no fixtures/{}/{polarity}/ tree",
                rule.name(),
                rule.name()
            );
            assert!(
                rust_files(&dir) >= 1,
                "fixtures/{}/{polarity}/ holds no .rs files",
                rule.name()
            );
        }
    }
}

#[test]
fn pass_fixtures_are_clean_under_every_rule() {
    for rule in RULES {
        let ws = Workspace::load(&fixture(rule, "pass")).expect("fixture tree loads");
        let got = rules::run(&ws, &[]);
        assert!(got.is_empty(), "{rule}/pass should be clean, got {got:?}");
    }
}

#[test]
fn fail_fixtures_trip_their_own_rule() {
    for rule in RULES {
        let got = findings_of(rule, "fail");
        assert!(!got.is_empty(), "{rule}/fail should trip `{rule}`");
        for f in &got {
            assert!(f.line > 0, "finding should carry a source line: {f:?}");
            assert!(
                !f.message.is_empty(),
                "finding should explain itself: {f:?}"
            );
        }
    }
}

#[test]
fn determinism_fail_names_the_banned_symbols() {
    let got = findings_of("determinism", "fail");
    assert!(
        got.iter().any(|f| f.message.contains("`Instant`")),
        "{got:?}"
    );
    assert!(
        got.iter().any(|f| f.message.contains("`HashMap`")),
        "{got:?}"
    );
    assert!(
        got.iter().any(|f| f.message.contains("`thread_local`")),
        "{got:?}"
    );
}

#[test]
fn panic_hygiene_fail_flags_each_panic_form() {
    let got = findings_of("panic-hygiene", "fail");
    assert!(
        got.iter().any(|f| f.message.contains(".unwrap()")),
        "{got:?}"
    );
    assert!(
        got.iter().any(|f| f.message.contains(".expect(")),
        "{got:?}"
    );
    assert!(got.iter().any(|f| f.message.contains("panic!")), "{got:?}");
}

#[test]
fn cache_key_fail_flags_both_directions() {
    let got = findings_of("spec-surface", "fail");
    // The unhashed struct field...
    assert!(
        got.iter().any(|f| f.message.contains("`deadline`")),
        "{got:?}"
    );
    // ...and the stale hashed path.
    assert!(
        got.iter().any(|f| f.message.contains("`warmup`")),
        "{got:?}"
    );
}

/// The acceptance contract for spec-surface: deleting a parser arm, a
/// key-hash call, a label arm, or a docs row each produces its own
/// finding against the half-wired `Stale` variant.
#[test]
fn spec_surface_fail_flags_all_four_seams() {
    let got = findings_of("spec-surface", "fail");
    assert!(
        got.iter()
            .any(|f| f.message.contains("not constructed on any path reachable")),
        "deleted parser arm should be flagged: {got:?}"
    );
    assert!(
        got.iter()
            .any(|f| f.message.contains("no longer feeds the cache key")),
        "deleted key-hash call should be flagged: {got:?}"
    );
    assert!(
        got.iter().any(|f| f.message.contains("emission path")),
        "missing label arm should be flagged: {got:?}"
    );
    assert!(
        got.iter()
            .any(|f| f.message.contains("not named in README.md/DESIGN.md")),
        "deleted docs row should be flagged: {got:?}"
    );
}

#[test]
fn rng_flow_fail_flags_manifest_and_taint_hazards() {
    let got = findings_of("rng-flow", "fail");
    assert!(
        got.iter().any(|f| f.message.contains("manifest")),
        "reordered preamble should be flagged: {got:?}"
    );
    assert!(
        got.iter().any(|f| f.message.contains("clone")),
        "cloned stream should be flagged: {got:?}"
    );
    assert!(
        got.iter().any(|f| f.message.contains("key/hash")),
        "rng flowing into the key should be flagged: {got:?}"
    );
    assert!(
        got.iter()
            .any(|f| f.message.contains("distinct subsystem streams")),
        "two streams in one call should be flagged: {got:?}"
    );
}

#[test]
fn float_determinism_fail_flags_both_hazards() {
    let got = findings_of("float-determinism", "fail");
    assert!(
        got.iter().any(|f| f.message.contains("total_cmp")),
        "partial_cmp comparator should be flagged: {got:?}"
    );
    assert!(
        got.iter().any(|f| f.message.contains("iteration order")),
        "hash-order reduction should be flagged: {got:?}"
    );
}

/// The acceptance contract for lock-order: the injected out-of-order
/// pair is a cycle, and the injected double-lock is a self-deadlock.
#[test]
fn lock_order_fail_flags_cycle_and_double_lock() {
    let got = findings_of("lock-order", "fail");
    assert!(
        got.iter().any(|f| f.message.contains("lock-order cycle")),
        "opposite acquisition orders should be flagged: {got:?}"
    );
    assert!(
        got.iter().any(|f| f.message.contains("self-deadlock")),
        "re-locking under a live guard should be flagged: {got:?}"
    );
}

#[test]
fn atomic_io_fail_flags_each_raw_write_form() {
    let got = findings_of("atomic-io", "fail");
    assert!(
        got.iter().any(|f| f.message.contains("File::create")),
        "{got:?}"
    );
    assert!(
        got.iter().any(|f| f.message.contains("OpenOptions")),
        "{got:?}"
    );
    assert!(
        got.iter().any(|f| f.message.contains("fs::write")),
        "{got:?}"
    );
}

#[test]
fn cli_exit_codes_mirror_the_findings() {
    for rule in RULES {
        let pass = Command::new(env!("CARGO_BIN_EXE_staleload-lint"))
            .arg("--deny-all")
            .arg(fixture(rule, "pass"))
            .output()
            .expect("lint binary runs");
        assert_eq!(pass.status.code(), Some(0), "{rule}/pass should exit 0");

        let fail = Command::new(env!("CARGO_BIN_EXE_staleload-lint"))
            .arg("--deny-all")
            .arg(fixture(rule, "fail"))
            .output()
            .expect("lint binary runs");
        assert_eq!(fail.status.code(), Some(1), "{rule}/fail should exit 1");
    }
}

#[test]
fn cli_allow_downgrades_a_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_staleload-lint"))
        .args(["--allow", "determinism"])
        .arg(fixture("determinism", "fail"))
        .output()
        .expect("lint binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "--allow determinism should silence the determinism fail tree"
    );
}

#[test]
fn cli_rejects_unknown_rules_and_flags() {
    for bad in [
        &["--allow", "no-such-rule"][..],
        &["--frobnicate"][..],
        &["--explain", "no-such-rule"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_staleload-lint"))
            .args(bad)
            .output()
            .expect("lint binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bad:?} should be a usage error"
        );
    }
}

#[test]
fn cli_explain_prints_every_rules_rationale() {
    for rule in rules::all() {
        let out = Command::new(env!("CARGO_BIN_EXE_staleload-lint"))
            .args(["--explain", rule.name()])
            .output()
            .expect("lint binary runs");
        assert_eq!(out.status.code(), Some(0), "--explain {}", rule.name());
        let body = String::from_utf8(out.stdout).expect("explain output is utf-8");
        assert!(
            body.starts_with(rule.name()),
            "--explain {} should lead with the rule name: {body}",
            rule.name()
        );
        assert!(
            body.contains(rule.describe()),
            "--explain {} should include the one-liner",
            rule.name()
        );
    }
}

#[test]
fn cli_json_output_is_machine_readable() {
    let out = Command::new(env!("CARGO_BIN_EXE_staleload-lint"))
        .args(["--deny-all", "--json"])
        .arg(fixture("crate-hardening", "fail"))
        .output()
        .expect("lint binary runs");
    assert_eq!(out.status.code(), Some(1));
    let body = String::from_utf8(out.stdout).expect("json output is utf-8");
    let body = body.trim();
    assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
    assert!(body.contains("\"rule\":\"crate-hardening\""), "{body}");
    assert!(body.contains("\"path\":\"naked/src/lib.rs\""), "{body}");
    assert!(body.contains("\"line\":1"), "{body}");
    // Whole-line findings carry col 0; the key is always present.
    assert!(body.contains("\"col\":0"), "{body}");
}

/// Token-anchored findings carry 1-based byte columns in both output
/// formats (`path:line:col:` text prefix, `"col":N` JSON key).
#[test]
fn cli_reports_byte_columns_for_token_findings() {
    let out = Command::new(env!("CARGO_BIN_EXE_staleload-lint"))
        .args(["--deny-all", "--json"])
        .arg(fixture("float-determinism", "fail"))
        .output()
        .expect("lint binary runs");
    let json = String::from_utf8(out.stdout).expect("json output is utf-8");
    assert!(json.contains("\"col\":29"), "{json}");

    let out = Command::new(env!("CARGO_BIN_EXE_staleload-lint"))
        .arg("--deny-all")
        .arg(fixture("float-determinism", "fail"))
        .output()
        .expect("lint binary runs");
    let text = String::from_utf8(out.stdout).expect("text output is utf-8");
    assert!(
        text.contains("stats/src/lib.rs:8:29:"),
        "text output should carry line:col anchors: {text}"
    );
}
