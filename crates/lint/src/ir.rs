//! The workspace item graph — a semantic model above the token stream.
//!
//! [`ItemGraph::build`] parses every file's token stream (produced by
//! the comment/string-aware lexer) into items: `enum` definitions with
//! their variants and derives, `struct` definitions with named fields,
//! `impl` block headers, and `fn` definitions with a call-edge
//! approximation, enum-path constructions (told apart from match-arm
//! patterns), and `Mutex`/`lock()` acquisition sites. Rules that reason
//! about the whole workspace (spec-surface coverage, RNG taint flow,
//! lock ordering) are written against this graph instead of raw tokens.
//!
//! Like the lexer, the parser is deliberately forgiving and entirely
//! dependency-free (no `syn`): the code it models is compiled by rustc
//! anyway, so on malformed or adversarial input it degrades to
//! recording fewer items, never to panicking. Macro *definitions*
//! (`macro_rules!`) are skipped wholesale — their bodies are token
//! soup — while macro *invocations* inside function bodies are scanned
//! like ordinary expressions.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// Keywords that can never be call names or item names.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while",
];

/// One member of a type: an enum variant or a named struct field.
#[derive(Debug, Clone)]
pub struct Member {
    /// Variant or field identifier.
    pub name: String,
    /// 1-based line of the identifier.
    pub line: u32,
    /// 1-based byte column of the identifier.
    pub col: u32,
}

/// One `enum` definition.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Enum identifier.
    pub name: String,
    /// Index of the defining file in `Workspace::files`.
    pub file: usize,
    /// Relative path of the defining file.
    pub path: String,
    /// Crate the defining file belongs to.
    pub crate_name: String,
    /// 1-based line of the `enum` keyword's identifier.
    pub line: u32,
    /// 1-based byte column of the identifier.
    pub col: u32,
    /// True when declared `pub`.
    pub is_pub: bool,
    /// Trait names listed in `#[derive(…)]` attributes on the item.
    pub derives: Vec<String>,
    /// Variants in declaration order.
    pub variants: Vec<Member>,
}

/// One `struct` definition (named fields only; tuple/unit structs have
/// an empty field list).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct identifier.
    pub name: String,
    /// Index of the defining file in `Workspace::files`.
    pub file: usize,
    /// Relative path of the defining file.
    pub path: String,
    /// Crate the defining file belongs to.
    pub crate_name: String,
    /// 1-based line of the identifier.
    pub line: u32,
    /// 1-based byte column of the identifier.
    pub col: u32,
    /// True when declared `pub`.
    pub is_pub: bool,
    /// Trait names listed in `#[derive(…)]` attributes on the item.
    pub derives: Vec<String>,
    /// Named fields in declaration order (empty for tuple/unit structs).
    pub fields: Vec<Member>,
}

/// One call site inside a function body: `callee(args…)`,
/// `recv.callee(args…)`, or `callee::<T>(args…)`.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called identifier (method or free-function name).
    pub callee: String,
    /// Turbofish type arguments (`parse::<EngineMode>` → `["EngineMode"]`).
    pub turbofish: Vec<String>,
    /// Token index of the callee identifier in the file's stream.
    pub tok: usize,
    /// 1-based line of the callee identifier.
    pub line: u32,
    /// 1-based byte column of the callee identifier.
    pub col: u32,
    /// Token index range of the argument list, excluding parens.
    pub args: (usize, usize),
}

/// A `Type::Variant` path pair seen in a function body.
#[derive(Debug, Clone)]
pub struct PathPair {
    /// Type segment (`PolicySpec` in `PolicySpec::Random`).
    pub ty: String,
    /// Variant segment (`Random` in `PolicySpec::Random`).
    pub variant: String,
    /// Token index of the variant identifier.
    pub tok: usize,
    /// 1-based line of the variant identifier.
    pub line: u32,
    /// 1-based byte column of the variant identifier.
    pub col: u32,
    /// True when the pair occurs in pattern position (a match-arm
    /// head, a `let`/`if let` pattern) or inside a macro invocation —
    /// i.e. it is a *use* of the variant, not a construction.
    pub in_pattern: bool,
}

/// One `impl` block header.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Self type (`impl Display for X` → `X`).
    pub self_ty: String,
    /// Implemented trait, if any (`impl Display for X` → `Display`).
    pub trait_name: Option<String>,
    /// Relative path of the defining file.
    pub path: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// 1-based byte column of the `impl` keyword.
    pub col: u32,
}

/// One `.lock()` acquisition site.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Name of the locked thing: the last plain identifier of the
    /// receiver chain (`self.state.lock()` → `state`).
    pub recv: String,
    /// Token index of the `lock` identifier.
    pub tok: usize,
    /// 1-based line of the `lock` identifier.
    pub line: u32,
    /// 1-based byte column of the `lock` identifier.
    pub col: u32,
    /// Token index bound (exclusive) of the guard's plausible
    /// lifetime: end of statement for temporaries, end of the guard's
    /// scope (enclosing block, conditional body, or explicit `drop`)
    /// for `let`-bound guards.
    pub held_to: usize,
}

/// One `fn` definition with its body-derived facts.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function identifier.
    pub name: String,
    /// Index of the defining file in `Workspace::files`.
    pub file: usize,
    /// Relative path of the defining file.
    pub path: String,
    /// Crate the defining file belongs to.
    pub crate_name: String,
    /// 1-based line of the identifier.
    pub line: u32,
    /// 1-based byte column of the identifier.
    pub col: u32,
    /// Self type of the enclosing `impl`/`trait` block, if any.
    pub owner: Option<String>,
    /// Trait being implemented (`impl Display for X` → `Display`).
    pub trait_name: Option<String>,
    /// True when the `fn` keyword sits on a test line (test target
    /// file or `#[cfg(test)]` span).
    pub is_test: bool,
    /// Token index range `[open_brace, close_brace]` of the body in
    /// the file's stream; `None` for bodyless trait signatures.
    pub body: Option<(usize, usize)>,
    /// Every call site in the body, in source order.
    pub calls: Vec<Call>,
    /// Every `Type::Variant` path pair in the body.
    pub constructions: Vec<PathPair>,
    /// Every `.lock()` acquisition in the body.
    pub locks: Vec<LockSite>,
}

/// The workspace-wide item graph.
#[derive(Debug, Default)]
pub struct ItemGraph {
    /// Every `enum` definition in the workspace.
    pub enums: Vec<EnumDef>,
    /// Every `struct` definition in the workspace.
    pub structs: Vec<StructDef>,
    /// Every `impl` block with a nameable self type.
    pub impls: Vec<ImplDef>,
    /// Every `fn` definition in the workspace, nested fns included.
    pub fns: Vec<FnDef>,
}

impl ItemGraph {
    /// Parses every file in `ws` into one graph.
    pub fn build(ws: &Workspace) -> ItemGraph {
        let mut g = ItemGraph::default();
        for (idx, file) in ws.files.iter().enumerate() {
            let mut p = Parser {
                toks: &file.toks,
                file,
                file_idx: idx,
                graph: &mut g,
            };
            p.scan_items(0, file.toks.len(), None, None);
        }
        g
    }

    /// All struct definitions named `name`.
    pub fn structs_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a StructDef> + 'a {
        self.structs.iter().filter(move |s| s.name == name)
    }

    /// All fn definitions named `name` (any owner, any file).
    pub fn fns_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a FnDef> + 'a {
        self.fns.iter().filter(move |f| f.name == name)
    }

    /// Indices of all fns reachable (by name-approximated call edges)
    /// from the fns selected by `seed`. A call to `parse::<T>()` also
    /// reaches every `from_str`, mirroring the `FromStr` dispatch the
    /// name-only graph cannot see.
    pub fn reachable_fns(&self, seed: impl Fn(&FnDef) -> bool) -> Vec<bool> {
        let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        let mut reached = vec![false; self.fns.len()];
        let mut work: Vec<usize> = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            if seed(f) {
                reached[i] = true;
                work.push(i);
            }
        }
        while let Some(i) = work.pop() {
            for c in &self.fns[i].calls {
                let mut targets: Vec<usize> =
                    by_name.get(c.callee.as_str()).cloned().unwrap_or_default();
                if c.callee == "parse" && !c.turbofish.is_empty() {
                    targets.extend(by_name.get("from_str").into_iter().flatten());
                }
                for j in targets {
                    if !reached[j] {
                        reached[j] = true;
                        work.push(j);
                    }
                }
            }
        }
        reached
    }
}

/// Per-file recursive-descent item scanner.
struct Parser<'a> {
    toks: &'a [Tok],
    file: &'a SourceFile,
    file_idx: usize,
    graph: &'a mut ItemGraph,
}

impl<'a> Parser<'a> {
    fn t(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i)
    }

    fn is_ident_at(&self, i: usize, s: &str) -> bool {
        self.t(i).is_some_and(|t| t.is_ident(s))
    }

    fn is_punct_at(&self, i: usize, c: char) -> bool {
        self.t(i).is_some_and(|t| t.is_punct(c))
    }

    /// Scans `lo..hi` for item definitions. `owner`/`trait_name` carry
    /// the enclosing `impl`/`trait` context.
    fn scan_items(&mut self, lo: usize, hi: usize, owner: Option<&str>, trait_name: Option<&str>) {
        let mut i = lo;
        let mut derives: Vec<String> = Vec::new();
        let mut is_pub = false;
        while i < hi.min(self.toks.len()) {
            let tok = &self.toks[i];
            if tok.is_punct('#') && self.is_punct_at(i + 1, '[') {
                let (ds, ni) = self.parse_attribute(i);
                derives.extend(ds);
                i = ni;
                continue;
            }
            if tok.kind == TokKind::Ident {
                match tok.text.as_str() {
                    "pub" => {
                        is_pub = true;
                        i += 1;
                        // Skip a `(crate)`/`(super)` restriction.
                        if self.is_punct_at(i, '(') {
                            i = self.matching(i, '(', ')') + 1;
                        }
                        continue;
                    }
                    "enum" => {
                        i = self.parse_enum(i, hi, std::mem::take(&mut derives), is_pub);
                        is_pub = false;
                        continue;
                    }
                    "struct" => {
                        i = self.parse_struct(i, hi, std::mem::take(&mut derives), is_pub);
                        is_pub = false;
                        continue;
                    }
                    "fn" => {
                        i = self.parse_fn(i, hi, owner, trait_name);
                        derives.clear();
                        is_pub = false;
                        continue;
                    }
                    "impl" => {
                        i = self.parse_impl(i, hi);
                        derives.clear();
                        is_pub = false;
                        continue;
                    }
                    "trait" => {
                        i = self.parse_trait(i, hi);
                        derives.clear();
                        is_pub = false;
                        continue;
                    }
                    "mod" => {
                        // `mod name { … }` recurses; `mod name;` skips.
                        if self.t(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
                            && self.is_punct_at(i + 2, '{')
                        {
                            let close = self.matching(i + 2, '{', '}');
                            self.scan_items(i + 3, close, owner, trait_name);
                            i = close + 1;
                        } else {
                            i += 1;
                        }
                        derives.clear();
                        is_pub = false;
                        continue;
                    }
                    "macro_rules" => {
                        // `macro_rules! name { token soup }` — skip.
                        let mut j = i + 1;
                        while j < hi && !self.is_punct_at(j, '{') {
                            j += 1;
                        }
                        i = if j < hi {
                            self.matching(j, '{', '}') + 1
                        } else {
                            hi
                        };
                        derives.clear();
                        is_pub = false;
                        continue;
                    }
                    _ => {}
                }
            }
            if tok.is_punct(';') || tok.is_punct('{') || tok.is_punct('}') {
                derives.clear();
                is_pub = false;
            }
            i += 1;
        }
    }

    /// Parses `#[…]` starting at the `#`; returns any derive list and
    /// the index just past the closing `]`.
    fn parse_attribute(&self, i: usize) -> (Vec<String>, usize) {
        let close = self.matching(i + 1, '[', ']');
        let mut derives = Vec::new();
        let mut j = i + 2;
        while j < close {
            if self.is_ident_at(j, "derive") && self.is_punct_at(j + 1, '(') {
                let dclose = self.matching(j + 1, '(', ')');
                for k in (j + 2)..dclose {
                    if let Some(t) = self.t(k) {
                        if t.kind == TokKind::Ident {
                            derives.push(t.text.clone());
                        }
                    }
                }
                j = dclose;
            }
            j += 1;
        }
        (derives, close + 1)
    }

    /// Index of the token matching the opener at `open_idx` (which
    /// must hold `open`); returns the last token index on imbalance.
    fn matching(&self, open_idx: usize, open: char, close: char) -> usize {
        let mut depth = 0i64;
        let mut i = open_idx;
        while i < self.toks.len() {
            if self.toks[i].is_punct(open) {
                depth += 1;
            } else if self.toks[i].is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.toks.len().saturating_sub(1)
    }

    /// Skips a balanced `<…>` starting at `i` (which holds `<`),
    /// tolerating `->` inside bounds; returns the index past the `>`.
    fn skip_angles(&self, i: usize) -> usize {
        let mut depth = 0i64;
        let mut j = i;
        while j < self.toks.len() {
            if self.is_punct_at(j, '-') && self.is_punct_at(j + 1, '>') {
                j += 2;
                continue;
            }
            if self.is_punct_at(j, '<') {
                depth += 1;
            } else if self.is_punct_at(j, '>') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.toks.len()
    }

    fn parse_enum(&mut self, kw: usize, hi: usize, derives: Vec<String>, is_pub: bool) -> usize {
        let Some(name_tok) = self.t(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
            return kw + 1;
        };
        let name = name_tok.text.clone();
        let (line, col) = (name_tok.line, name_tok.col);
        let mut j = kw + 2;
        if self.is_punct_at(j, '<') {
            j = self.skip_angles(j);
        }
        // Scan past any where-clause to the body brace.
        while j < hi && !self.is_punct_at(j, '{') && !self.is_punct_at(j, ';') {
            if self.is_punct_at(j, '(') {
                j = self.matching(j, '(', ')');
            } else if self.is_punct_at(j, '<') {
                j = self.skip_angles(j).saturating_sub(1);
            }
            j += 1;
        }
        if !self.is_punct_at(j, '{') {
            return j + 1;
        }
        let close = self.matching(j, '{', '}');
        let variants = self.parse_variants(j + 1, close);
        self.graph.enums.push(EnumDef {
            name,
            file: self.file_idx,
            path: self.file.rel_path.clone(),
            crate_name: self.file.crate_name.clone(),
            line,
            col,
            is_pub,
            derives,
            variants,
        });
        close + 1
    }

    /// Parses the variant list between an enum body's braces.
    fn parse_variants(&self, lo: usize, hi: usize) -> Vec<Member> {
        let mut out = Vec::new();
        let mut i = lo;
        while i < hi {
            // Skip attributes on the variant.
            while self.is_punct_at(i, '#') && self.is_punct_at(i + 1, '[') {
                i = self.matching(i + 1, '[', ']') + 1;
            }
            let Some(t) = self.t(i).filter(|t| t.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            if i >= hi {
                break;
            }
            out.push(Member {
                name: t.text.clone(),
                line: t.line,
                col: t.col,
            });
            i += 1;
            // Skip the payload: tuple, struct body, or discriminant.
            if self.is_punct_at(i, '(') {
                i = self.matching(i, '(', ')') + 1;
            } else if self.is_punct_at(i, '{') {
                i = self.matching(i, '{', '}') + 1;
            } else if self.is_punct_at(i, '=') {
                while i < hi && !self.is_punct_at(i, ',') {
                    if self.is_punct_at(i, '(') {
                        i = self.matching(i, '(', ')');
                    }
                    i += 1;
                }
            }
            // Consume the separating comma.
            if self.is_punct_at(i, ',') {
                i += 1;
            }
        }
        out
    }

    fn parse_struct(&mut self, kw: usize, hi: usize, derives: Vec<String>, is_pub: bool) -> usize {
        let Some(name_tok) = self.t(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
            return kw + 1;
        };
        let name = name_tok.text.clone();
        let (line, col) = (name_tok.line, name_tok.col);
        let mut j = kw + 2;
        if self.is_punct_at(j, '<') {
            j = self.skip_angles(j);
        }
        let mut fields = Vec::new();
        let end;
        if self.is_punct_at(j, '(') {
            // Tuple struct: `struct X(A, B);`
            let close = self.matching(j, '(', ')');
            let mut k = close + 1;
            while k < hi && !self.is_punct_at(k, ';') {
                k += 1;
            }
            end = k + 1;
        } else {
            // Scan past any where-clause to `{` or `;`.
            while j < hi && !self.is_punct_at(j, '{') && !self.is_punct_at(j, ';') {
                if self.is_punct_at(j, '<') {
                    j = self.skip_angles(j).saturating_sub(1);
                }
                j += 1;
            }
            if self.is_punct_at(j, '{') {
                let close = self.matching(j, '{', '}');
                fields = self.parse_fields(j + 1, close);
                end = close + 1;
            } else {
                end = j + 1;
            }
        }
        self.graph.structs.push(StructDef {
            name,
            file: self.file_idx,
            path: self.file.rel_path.clone(),
            crate_name: self.file.crate_name.clone(),
            line,
            col,
            is_pub,
            derives,
            fields,
        });
        end
    }

    /// Parses named fields between a struct body's braces.
    fn parse_fields(&self, lo: usize, hi: usize) -> Vec<Member> {
        let mut out = Vec::new();
        let mut i = lo;
        while i < hi {
            while self.is_punct_at(i, '#') && self.is_punct_at(i + 1, '[') {
                i = self.matching(i + 1, '[', ']') + 1;
            }
            if self.is_ident_at(i, "pub") {
                i += 1;
                if self.is_punct_at(i, '(') {
                    i = self.matching(i, '(', ')') + 1;
                }
            }
            let Some(t) = self.t(i).filter(|t| t.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            if !self.is_punct_at(i + 1, ':') {
                i += 1;
                continue;
            }
            out.push(Member {
                name: t.text.clone(),
                line: t.line,
                col: t.col,
            });
            // Skip the type to the field-separating comma, tracking
            // angle depth so `Option<HashMap<K, V>>` commas don't split.
            i += 2;
            let mut angle = 0i64;
            while i < hi {
                if self.is_punct_at(i, '-') && self.is_punct_at(i + 1, '>') {
                    i += 2;
                    continue;
                }
                if self.is_punct_at(i, '(') {
                    i = self.matching(i, '(', ')');
                } else if self.is_punct_at(i, '[') {
                    i = self.matching(i, '[', ']');
                } else if self.is_punct_at(i, '<') {
                    angle += 1;
                } else if self.is_punct_at(i, '>') {
                    angle -= 1;
                } else if self.is_punct_at(i, ',') && angle <= 0 {
                    i += 1;
                    break;
                }
                i += 1;
            }
        }
        out
    }

    fn parse_impl(&mut self, kw: usize, hi: usize) -> usize {
        let mut j = kw + 1;
        if self.is_punct_at(j, '<') {
            j = self.skip_angles(j);
        }
        let mut pre_for: Vec<String> = Vec::new();
        let mut post_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        while j < hi && !self.is_punct_at(j, '{') && !self.is_punct_at(j, ';') {
            if self.is_punct_at(j, '<') {
                j = self.skip_angles(j);
                continue;
            }
            if let Some(t) = self.t(j) {
                if t.is_ident("for") {
                    saw_for = true;
                } else if t.is_ident("where") {
                    while j < hi && !self.is_punct_at(j, '{') {
                        if self.is_punct_at(j, '(') {
                            j = self.matching(j, '(', ')');
                        }
                        j += 1;
                    }
                    break;
                } else if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
                    if saw_for {
                        post_for.push(t.text.clone());
                    } else {
                        pre_for.push(t.text.clone());
                    }
                }
            }
            j += 1;
        }
        if !self.is_punct_at(j, '{') {
            return j + 1;
        }
        let close = self.matching(j, '{', '}');
        let (owner, trait_name) = if saw_for {
            (post_for.last().cloned(), pre_for.last().cloned())
        } else {
            (pre_for.last().cloned(), None)
        };
        if let Some(self_ty) = &owner {
            self.graph.impls.push(ImplDef {
                self_ty: self_ty.clone(),
                trait_name: trait_name.clone(),
                path: self.file.rel_path.clone(),
                line: self.toks[kw].line,
                col: self.toks[kw].col,
            });
        }
        self.scan_items(j + 1, close, owner.as_deref(), trait_name.as_deref());
        close + 1
    }

    fn parse_trait(&mut self, kw: usize, hi: usize) -> usize {
        let Some(name_tok) = self.t(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
            return kw + 1;
        };
        let name = name_tok.text.clone();
        let mut j = kw + 2;
        while j < hi && !self.is_punct_at(j, '{') && !self.is_punct_at(j, ';') {
            if self.is_punct_at(j, '<') {
                j = self.skip_angles(j);
                continue;
            }
            if self.is_punct_at(j, '(') {
                j = self.matching(j, '(', ')');
            }
            j += 1;
        }
        if !self.is_punct_at(j, '{') {
            return j + 1;
        }
        let close = self.matching(j, '{', '}');
        self.scan_items(j + 1, close, Some(&name), None);
        close + 1
    }

    fn parse_fn(
        &mut self,
        kw: usize,
        hi: usize,
        owner: Option<&str>,
        trait_name: Option<&str>,
    ) -> usize {
        let Some(name_tok) = self.t(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
            // `fn(…)` in type position — not a definition.
            return kw + 1;
        };
        let name = name_tok.text.clone();
        let (line, col) = (name_tok.line, name_tok.col);
        // Find the body `{` (or a `;` for a bodyless signature) at
        // bracket depth zero relative to the signature.
        let mut j = kw + 2;
        let mut body = None;
        while j < hi.min(self.toks.len()) {
            if self.is_punct_at(j, '-') && self.is_punct_at(j + 1, '>') {
                j += 2;
                continue;
            }
            if self.is_punct_at(j, '(') {
                j = self.matching(j, '(', ')') + 1;
                continue;
            }
            if self.is_punct_at(j, '[') {
                j = self.matching(j, '[', ']') + 1;
                continue;
            }
            if self.is_punct_at(j, '<') {
                j = self.skip_angles(j);
                continue;
            }
            if self.is_punct_at(j, '{') {
                let close = self.matching(j, '{', '}');
                body = Some((j, close));
                break;
            }
            if self.is_punct_at(j, ';') {
                break;
            }
            j += 1;
        }
        let mut def = FnDef {
            name,
            file: self.file_idx,
            path: self.file.rel_path.clone(),
            crate_name: self.file.crate_name.clone(),
            line,
            col,
            owner: owner.map(str::to_string),
            trait_name: trait_name.map(str::to_string),
            is_test: self.file.is_test_line(self.toks[kw].line),
            body,
            calls: Vec::new(),
            constructions: Vec::new(),
            locks: Vec::new(),
        };
        let end = match body {
            Some((open, close)) => {
                self.analyze_body(&mut def, open + 1, close);
                close + 1
            }
            None => j + 1,
        };
        self.graph.fns.push(def);
        end
    }

    /// Walks a fn body collecting calls, constructions, and lock sites. Nested `fn` items become their own [`FnDef`]s and
    /// are skipped in the parent walk.
    fn analyze_body(&mut self, def: &mut FnDef, lo: usize, hi: usize) {
        // Match-arm head ranges and macro-argument ranges, for marking
        // path pairs as pattern position.
        let mut pattern_ranges: Vec<(usize, usize)> = Vec::new();
        let mut i = lo;
        while i < hi.min(self.toks.len()) {
            let t = &self.toks[i];
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "fn" => {
                        i = self.parse_fn(i, hi, None, None);
                        continue;
                    }
                    "match" => {
                        self.mark_arm_heads(i, hi, &mut pattern_ranges);
                        i += 1;
                        continue;
                    }
                    _ => {}
                }
                if !KEYWORDS.contains(&t.text.as_str()) {
                    // Macro invocation: mark the argument range as
                    // pattern-position (macros see unevaluated tokens).
                    if self.is_punct_at(i + 1, '!') {
                        for (open, close) in [('(', ')'), ('[', ']'), ('{', '}')] {
                            if self.is_punct_at(i + 2, open) {
                                pattern_ranges.push((i + 2, self.matching(i + 2, open, close)));
                                break;
                            }
                        }
                    } else {
                        self.collect_call(def, i);
                        self.collect_path_pair(def, i, lo);
                        self.collect_lock(def, i, lo, hi);
                    }
                }
            }
            i += 1;
        }
        for p in &mut def.constructions {
            if pattern_ranges
                .iter()
                .any(|&(a, b)| p.tok >= a && p.tok <= b)
            {
                p.in_pattern = true;
            }
        }
    }

    /// Records a call if the ident at `i` is followed by `(`, with an
    /// optional `::<…>` turbofish in between.
    fn collect_call(&self, def: &mut FnDef, i: usize) {
        let mut j = i + 1;
        let mut turbofish = Vec::new();
        if self.is_punct_at(j, ':') && self.is_punct_at(j + 1, ':') && self.is_punct_at(j + 2, '<')
        {
            let after = self.skip_angles(j + 2);
            for k in (j + 3)..after.saturating_sub(1) {
                if let Some(t) = self.t(k) {
                    if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
                        turbofish.push(t.text.clone());
                    }
                }
            }
            j = after;
        }
        if !self.is_punct_at(j, '(') {
            return;
        }
        let close = self.matching(j, '(', ')');
        let t = &self.toks[i];
        def.calls.push(Call {
            callee: t.text.clone(),
            turbofish,
            tok: i,
            line: t.line,
            col: t.col,
            args: (j + 1, close),
        });
    }

    /// Records a `Type::Variant` pair if the ident at `i` starts one.
    fn collect_path_pair(&self, def: &mut FnDef, i: usize, stmt_lo: usize) {
        let t = &self.toks[i];
        if !t.text.starts_with(|c: char| c.is_ascii_uppercase()) {
            return;
        }
        if !(self.is_punct_at(i + 1, ':') && self.is_punct_at(i + 2, ':')) {
            return;
        }
        let Some(v) = self.t(i + 3).filter(|v| {
            v.kind == TokKind::Ident && v.text.starts_with(|c: char| c.is_ascii_uppercase())
        }) else {
            return;
        };
        // `A::B::c(…)` — B is a module-ish middle segment, not a
        // variant, when the path continues.
        if self.is_punct_at(i + 4, ':') && self.is_punct_at(i + 5, ':') {
            return;
        }
        let in_pattern = self.in_let_pattern(i, stmt_lo);
        def.constructions.push(PathPair {
            ty: t.text.clone(),
            variant: v.text.clone(),
            tok: i,
            line: t.line,
            col: t.col,
            in_pattern,
        });
    }

    /// True when the token at `i` sits between a `let` and its `=` in
    /// the current statement — i.e. in pattern position.
    fn in_let_pattern(&self, i: usize, stmt_lo: usize) -> bool {
        let mut j = i;
        while j > stmt_lo {
            j -= 1;
            let t = &self.toks[j];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct('=') {
                return false;
            }
            if t.is_ident("let") {
                return true;
            }
        }
        false
    }

    /// Records a lock site if the ident at `i` is `lock` in a
    /// `.lock()` chain, with a plausible guard-lifetime bound.
    fn collect_lock(&self, def: &mut FnDef, i: usize, body_lo: usize, body_hi: usize) {
        if !(self.toks[i].is_ident("lock")
            && i > 0
            && self.toks[i - 1].is_punct('.')
            && self.is_punct_at(i + 1, '('))
        {
            return;
        }
        // Receiver name: walk back over one index/call suffix to the
        // nearest plain identifier.
        let mut k = i - 1; // at the '.'
        let recv = loop {
            if k == 0 {
                break "<expr>".to_string();
            }
            k -= 1;
            let t = &self.toks[k];
            if t.is_punct(')') {
                k = self.rmatching(k, '(', ')');
                continue;
            }
            if t.is_punct(']') {
                k = self.rmatching(k, '[', ']');
                continue;
            }
            if t.kind == TokKind::Ident {
                if t.text == "self" {
                    break "<expr>".to_string();
                }
                break t.text.clone();
            }
            break "<expr>".to_string();
        };
        // Statement start: nearest `;`/`{`/`}` before the site.
        let mut s = i;
        while s > body_lo {
            let t = &self.toks[s - 1];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            s -= 1;
        }
        let stmt_toks = &self.toks[s..i];
        let is_let = stmt_toks.iter().any(|t| t.is_ident("let"));
        let is_cond = stmt_toks
            .first()
            .is_some_and(|t| t.is_ident("if") || t.is_ident("while"));
        let held_to = if is_let && is_cond {
            // `if let Ok(g) = x.lock()` — held for the conditional body.
            let mut j = i;
            while j < body_hi && !self.is_punct_at(j, '{') {
                if self.is_punct_at(j, '(') {
                    j = self.matching(j, '(', ')');
                }
                j += 1;
            }
            if j < body_hi {
                self.matching(j, '{', '}')
            } else {
                body_hi
            }
        } else if is_let {
            // Held to the end of the enclosing block, or an explicit
            // `drop(name)` if one comes first.
            let end = self.enclosing_block_end(s, body_lo, body_hi);
            let guard = stmt_toks
                .iter()
                .position(|t| t.is_ident("let"))
                .map(|p| &stmt_toks[p + 1..])
                .and_then(|rest| {
                    rest.iter()
                        .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
                        .map(|t| t.text.clone())
                });
            let mut j = i;
            let mut dropped = end;
            if let Some(g) = guard {
                while j < end {
                    if self.is_ident_at(j, "drop")
                        && self.is_punct_at(j + 1, '(')
                        && self.is_ident_at(j + 2, &g)
                        && self.is_punct_at(j + 3, ')')
                    {
                        dropped = j;
                        break;
                    }
                    j += 1;
                }
            }
            dropped.min(end)
        } else {
            // Temporary guard: dropped at the end of the statement.
            let mut j = i;
            while j < body_hi && !self.is_punct_at(j, ';') {
                if self.is_punct_at(j, '(') {
                    j = self.matching(j, '(', ')');
                } else if self.is_punct_at(j, '{') {
                    j = self.matching(j, '{', '}');
                }
                j += 1;
            }
            j
        };
        let t = &self.toks[i];
        def.locks.push(LockSite {
            recv,
            tok: i,
            line: t.line,
            col: t.col,
            held_to,
        });
    }

    /// Index of the opener matching the closer at `close_idx`.
    fn rmatching(&self, close_idx: usize, open: char, close: char) -> usize {
        let mut depth = 0i64;
        let mut i = close_idx;
        loop {
            if self.toks[i].is_punct(close) {
                depth += 1;
            } else if self.toks[i].is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            if i == 0 {
                return 0;
            }
            i -= 1;
        }
    }

    /// Token index of the `}` closing the innermost block containing
    /// the statement that starts at `s`.
    fn enclosing_block_end(&self, s: usize, body_lo: usize, body_hi: usize) -> usize {
        let mut depth = 0i64;
        let mut i = s;
        while i > body_lo {
            i -= 1;
            if self.toks[i].is_punct('}') {
                depth += 1;
            } else if self.toks[i].is_punct('{') {
                if depth == 0 {
                    return self.matching(i, '{', '}').min(body_hi);
                }
                depth -= 1;
            }
        }
        body_hi
    }

    /// Appends the arm-head token ranges (arm start to its `=>`) of the
    /// `match` at `kw` to `heads`, without consuming the match.
    fn mark_arm_heads(&self, kw: usize, hi: usize, heads: &mut Vec<(usize, usize)>) {
        // The body brace is the first `{` at paren depth zero after
        // the scrutinee (struct literals are not legal there).
        let mut j = kw + 1;
        while j < hi.min(self.toks.len()) {
            if self.is_punct_at(j, '(') {
                j = self.matching(j, '(', ')') + 1;
                continue;
            }
            if self.is_punct_at(j, '[') {
                j = self.matching(j, '[', ']') + 1;
                continue;
            }
            if self.is_punct_at(j, '{') {
                break;
            }
            if self.is_punct_at(j, ';') {
                return;
            }
            j += 1;
        }
        if j >= hi.min(self.toks.len()) {
            return;
        }
        let close = self.matching(j, '{', '}');
        let mut i = j + 1;
        while i < close {
            // Arm head: tokens to the `=>` at local depth zero.
            let head_start = i;
            let mut depth = 0i64;
            let mut arrow = None;
            let mut k = i;
            while k < close {
                let t = &self.toks[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct('=') && self.is_punct_at(k + 1, '>') {
                    arrow = Some(k);
                    break;
                }
                k += 1;
            }
            let Some(arrow) = arrow else {
                break;
            };
            heads.push((head_start, arrow));
            // Arm body: a braced block or an expression to the next
            // `,` at local depth zero.
            i = arrow + 2;
            if self.is_punct_at(i, '{') {
                i = self.matching(i, '{', '}') + 1;
                if self.is_punct_at(i, ',') {
                    i += 1;
                }
            } else {
                let mut depth = 0i64;
                while i < close {
                    let t = &self.toks[i];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(',') {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> ItemGraph {
        let ws = Workspace::from_sources(&[("crates/core/src/x.rs", src)]);
        ItemGraph::build(&ws)
    }

    #[test]
    fn enums_variants_and_derives_are_parsed() {
        let g = graph(
            "#[derive(Debug, Clone)]\n\
             pub enum PolicySpec {\n\
                 Random,\n\
                 KSubset { d: usize },\n\
                 Threshold(f64, u64),\n\
                 #[default]\n\
                 Greedy = 3,\n\
             }\n",
        );
        assert_eq!(g.enums.len(), 1);
        let e = &g.enums[0];
        assert!(e.is_pub);
        assert_eq!(e.derives, ["Debug", "Clone"]);
        let names: Vec<_> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["Random", "KSubset", "Threshold", "Greedy"]);
    }

    #[test]
    fn struct_fields_survive_generic_types() {
        let g = graph(
            "pub struct FaultSpec {\n\
                 pub crash: Option<CrashSpec>,\n\
                 pub map: Option<Vec<(u32, f64)>>,\n\
                 loss: f64,\n\
             }\n",
        );
        let s = &g.structs[0];
        let names: Vec<_> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["crash", "map", "loss"]);
    }

    #[test]
    fn fns_record_calls_owner_and_trait() {
        let g = graph(
            "impl std::fmt::Display for FaultSpec {\n\
                 fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {\n\
                     helper(1);\n\
                     x.parse::<EngineMode>()\n\
                 }\n\
             }\n",
        );
        let f = g.fns_named("fmt").next().unwrap();
        assert_eq!(f.owner.as_deref(), Some("FaultSpec"));
        assert_eq!(f.trait_name.as_deref(), Some("Display"));
        let imp = &g.impls[0];
        assert_eq!(imp.self_ty, "FaultSpec");
        assert_eq!(imp.trait_name.as_deref(), Some("Display"));
        assert_eq!((imp.line, imp.col), (1, 1));
        let callees: Vec<_> = f.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, ["helper", "parse"]);
        assert_eq!(f.calls[1].turbofish, ["EngineMode"]);
    }

    #[test]
    fn match_arms_and_pattern_pairs_are_classified() {
        let g = graph(
            "fn label(p: &PolicySpec) -> String {\n\
                 match p {\n\
                     PolicySpec::Random => format!(\"random\"),\n\
                     PolicySpec::KSubset { d } => go(*d),\n\
                     _ => other(),\n\
                 }\n\
             }\n\
             fn build() -> PolicySpec { PolicySpec::Random }\n",
        );
        let label = g.fns_named("label").next().unwrap();
        // Pairs in arm heads are pattern position, not constructions.
        let arms: Vec<_> = label
            .constructions
            .iter()
            .map(|p| p.variant.as_str())
            .collect();
        assert_eq!(arms, ["Random", "KSubset"]);
        assert!(label.constructions.iter().all(|p| p.in_pattern));
        let build = g.fns_named("build").next().unwrap();
        let c = &build.constructions[0];
        assert_eq!(
            (c.ty.as_str(), c.variant.as_str()),
            ("PolicySpec", "Random")
        );
        assert!(!c.in_pattern);
    }

    #[test]
    fn lock_sites_get_receiver_names_and_spans() {
        let g = graph(
            "fn tick(&self) {\n\
                 let mut m = self.map.lock().unwrap();\n\
                 m.insert(1);\n\
                 self.appender.lock().unwrap().push(2);\n\
             }\n",
        );
        let f = g.fns_named("tick").next().unwrap();
        assert_eq!(f.locks.len(), 2);
        assert_eq!(f.locks[0].recv, "map");
        assert_eq!(f.locks[1].recv, "appender");
        // The let-bound guard is held past the second site; the
        // temporary guard ends at its own statement.
        assert!(f.locks[0].held_to > f.locks[1].tok);
        assert!(f.locks[1].held_to < f.body.unwrap().1);
    }

    #[test]
    fn reachability_follows_calls_and_parse_edges() {
        let ws = Workspace::from_sources(&[
            (
                "crates/cli/src/args.rs",
                "pub fn parse_args() { parse_policy(); s.parse::<EngineMode>(); }\n\
                 fn parse_policy() { build_spec(); }\n",
            ),
            (
                "crates/core/src/config.rs",
                "impl FromStr for EngineMode { fn from_str(s: &str) -> R { todo!() } }\n\
                 pub fn build_spec() {}\n\
                 pub fn unreached() {}\n",
            ),
        ]);
        let g = ItemGraph::build(&ws);
        let reached = g.reachable_fns(|f| f.crate_name == "cli");
        let by_name = |n: &str| {
            g.fns
                .iter()
                .position(|f| f.name == n)
                .map(|i| reached[i])
                .unwrap()
        };
        assert!(by_name("build_spec"));
        assert!(by_name("from_str"));
        assert!(!by_name("unreached"));
    }

    #[test]
    fn adversarial_streams_do_not_panic() {
        for src in [
            "enum",
            "enum E",
            "enum E {",
            "fn",
            "fn (",
            "fn f(",
            "impl < for {",
            "match { =>",
            "struct S { a: , }",
            "macro_rules! m { ($x:expr) => { enum Bogus { } } }",
            "r#\"raw \"# fn g() { x.lock() }",
            "fn h<T: Fn() -> u32>() -> Vec<Vec<u8>> { }",
        ] {
            let _ = graph(src);
        }
    }
}
