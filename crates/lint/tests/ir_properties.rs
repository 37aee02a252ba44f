//! Property-based tests for the item-graph parser: generated Rust
//! snippets round-trip through `ItemGraph::build`, and adversarial
//! token soup never panics it.

use proptest::prelude::*;
use staleload_lint::ir::ItemGraph;
use staleload_lint::Workspace;

const IDENT_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";

/// Identifiers that can never collide with a Rust keyword: always
/// prefixed with `x`.
fn ident() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..IDENT_CHARS.len(), 1..9).prop_map(|ixs| {
        let mut s = String::from("x");
        s.extend(ixs.into_iter().map(|i| IDENT_CHARS[i] as char));
        s
    })
}

/// Distinct PascalCase variant names (`V0…`, `V1…`, …).
fn variants() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(prop::collection::vec(0usize..36, 0..7), 1..8).prop_map(|suffixes| {
        suffixes
            .into_iter()
            .enumerate()
            .map(|(i, ixs)| {
                let mut s = format!("V{i}");
                s.extend(ixs.into_iter().map(|j| IDENT_CHARS[j] as char));
                s
            })
            .collect()
    })
}

/// Arbitrary printable text (plus newlines) — the lexer's worst case.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..96, 0..400).prop_map(|cs| {
        cs.into_iter()
            .map(|c| {
                if c == 95 {
                    '\n'
                } else {
                    (32 + c as u8) as char
                }
            })
            .collect()
    })
}

fn graph_of(src: &str) -> ItemGraph {
    ItemGraph::build(&Workspace::from_sources(&[("demo/src/lib.rs", src)]))
}

proptest! {
    /// An enum rendered from generated names parses back to the same
    /// name, variant count, and variant spelling, in order.
    #[test]
    fn enum_variants_round_trip(name in ident(), vars in variants()) {
        let body: String = vars.iter().map(|v| format!("    {v},\n")).collect();
        let src = format!("#[derive(Debug, Clone)]\npub enum {name} {{\n{body}}}\n");
        let g = graph_of(&src);
        prop_assert_eq!(g.enums.len(), 1);
        prop_assert_eq!(&g.enums[0].name, &name);
        prop_assert!(g.enums[0].derives.iter().any(|d| d == "Debug"));
        let got: Vec<&str> = g.enums[0].variants.iter().map(|v| v.name.as_str()).collect();
        let want: Vec<&str> = vars.iter().map(String::as_str).collect();
        prop_assert_eq!(got, want);
    }

    /// Every rendered free fn is recovered by name; bodies are tracked.
    #[test]
    fn fn_names_round_trip(names in prop::collection::vec(ident(), 1..8)) {
        let src: String = names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("pub fn {n}_{i}(v: u64) -> u64 {{ v + {i} }}\n"))
            .collect();
        let g = graph_of(&src);
        prop_assert_eq!(g.fns.len(), names.len());
        for (i, n) in names.iter().enumerate() {
            let full = format!("{n}_{i}");
            let f = g.fns_named(&full).next();
            prop_assert!(f.is_some(), "fn `{}` not recovered", full);
            prop_assert!(f.is_some_and(|f| f.body.is_some()));
        }
    }

    /// A match over generated variants records each arm head's
    /// `Spec::Variant` as a pattern-position pair, in order.
    #[test]
    fn match_arm_heads_round_trip(vars in variants()) {
        let arms: String = vars
            .iter()
            .enumerate()
            .map(|(i, v)| format!("        Spec::{v} => {i},\n"))
            .collect();
        let src = format!(
            "pub fn dispatch(s: Spec) -> usize {{\n    match s {{\n{arms}    }}\n}}\n"
        );
        let g = graph_of(&src);
        prop_assert_eq!(g.fns.len(), 1);
        let heads = &g.fns[0].constructions;
        let got: Vec<&str> = heads.iter().map(|p| p.variant.as_str()).collect();
        prop_assert_eq!(got, vars.iter().map(String::as_str).collect::<Vec<_>>());
        prop_assert!(heads.iter().all(|p| p.in_pattern), "arm heads are patterns");
    }

    /// Enum::Variant path expressions are recorded as constructions of
    /// the fn they appear in.
    #[test]
    fn constructions_round_trip(vars in variants()) {
        let body: String = vars
            .iter()
            .map(|v| format!("    out.push(Spec::{v});\n"))
            .collect();
        let src = format!(
            "pub fn all_specs() -> Vec<Spec> {{\n    let mut out = Vec::new();\n{body}    out\n}}\n"
        );
        let g = graph_of(&src);
        prop_assert_eq!(g.fns.len(), 1);
        for v in &vars {
            prop_assert!(
                g.fns[0]
                    .constructions
                    .iter()
                    .any(|c| c.ty == "Spec" && &c.variant == v && !c.in_pattern),
                "`Spec::{}` construction not recovered",
                v
            );
        }
    }

    /// Arbitrary printable soup never panics the lexer or the parser.
    #[test]
    fn arbitrary_text_never_panics(src in text()) {
        let g = graph_of(&src);
        // Touch the graph so the build cannot be optimized away.
        prop_assert!(g.enums.len() + g.structs.len() + g.fns.len() < usize::MAX);
    }

    /// Rust-shaped fragment soup — unbalanced braces, dangling
    /// keywords, half-written matches — never panics the parser either.
    #[test]
    fn fragment_soup_never_panics(
        parts in prop::collection::vec(
            prop_oneof![
                Just("pub enum E {".to_string()),
                Just("}".to_string()),
                Just("{".to_string()),
                Just("match x {".to_string()),
                Just("=>".to_string()),
                Just("fn".to_string()),
                Just("::".to_string()),
                Just("pub fn f(".to_string()),
                Just(") ->".to_string()),
                Just(".lock().expect(\"poisoned\")".to_string()),
                Just("#[derive(Debug]".to_string()),
                Just("let m =".to_string()),
                Just("'static".to_string()),
                Just("\"unterminated".to_string()),
                ident(),
            ],
            0..40,
        )
    ) {
        let src = parts.join(" ");
        let g = graph_of(&src);
        prop_assert!(g.enums.len() + g.structs.len() + g.fns.len() < usize::MAX);
        // The derived helpers must tolerate whatever was parsed.
        let _ = g.reachable_fns(|f| f.name.starts_with('x'));
    }
}
