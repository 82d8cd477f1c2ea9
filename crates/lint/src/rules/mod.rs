//! The rule catalog and the shared token-analysis context.
//!
//! Each rule is a pure function from a [`FileCx`] to findings. Rules are
//! token-level heuristics, not type analysis: they track file-local
//! evidence (a `let` binding annotated `HashMap`, a field declared
//! `HashSet<…>`) and flag the patterns that have actually bitten this
//! codebase. Precision comes from the waiver system, not from trying to
//! out-clever rustc — see `docs/adr-determinism-lint.md`.

mod ambient_nondet;
mod iter_order;
mod lossy_cast;
mod unordered_par;

use crate::diag::Finding;
use crate::lexer::{Lexed, Tok, TokKind};

/// Name + one-line summary of a rule, for `--list-rules` and docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
}

/// The rule catalog. `bad-waiver` / `unused-waiver` are emitted by the
/// waiver machinery itself but listed here so waivers can name them and
/// `--list-rules` is complete.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "nondet-iter",
        summary: "iteration over HashMap/HashSet whose order can leak into results",
    },
    RuleInfo {
        name: "unordered-par",
        summary: "raw rayon use bypassing the order-preserving par_map seam",
    },
    RuleInfo {
        name: "lossy-cast",
        summary: "unchecked `as u8/u16/u32` narrowing of lengths, counts, ids and offsets",
    },
    RuleInfo {
        name: "ambient-nondet",
        summary: "wall-clock or entropy access outside bench/datagen code",
    },
    RuleInfo {
        name: "float-order",
        summary: "floating-point accumulation over an unordered iterator",
    },
    RuleInfo { name: "bad-waiver", summary: "malformed waiver comment (missing reason, bad rule)" },
    RuleInfo { name: "unused-waiver", summary: "waiver that no longer matches any finding" },
];

/// Whether `name` names a rule waivers may reference.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Crates whose output feeds results (paper pins, differential oracles):
/// the `nondet-iter`, `float-order` and `lossy-cast` rules apply here.
const RESULT_CRATE_PREFIXES: &[&str] = &[
    "crates/eventlog/src/",
    "crates/core/src/",
    "crates/constraints/src/",
    "crates/solver/src/",
    "crates/baselines/src/",
    "crates/discovery/src/",
];

/// Paths where ambient time/entropy is the point (measurement harnesses,
/// seeded data generators): `ambient-nondet` does not apply.
const AMBIENT_EXEMPT_PREFIXES: &[&str] = &["crates/bench/", "crates/datagen/"];

/// One file under analysis: its tokens plus precomputed evidence shared
/// by several rules.
pub struct FileCx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: &'a str,
    pub toks: &'a [Tok<'a>],
    /// Names with file-local evidence of being `HashMap`/`HashSet`-typed:
    /// `let` bindings whose statement mentions the type, and `name: …Hash…`
    /// field/parameter declarations.
    pub hash_names: Vec<&'a str>,
    /// Half-open token ranges `[start, end)` covering the iterated
    /// expression of each `for … in EXPR {` loop.
    pub for_expr_ranges: Vec<(usize, usize)>,
}

impl<'a> FileCx<'a> {
    pub fn new(rel_path: &'a str, lexed: &'a Lexed<'a>) -> Self {
        let toks = lexed.toks.as_slice();
        let mut cx = FileCx { rel_path, toks, hash_names: Vec::new(), for_expr_ranges: Vec::new() };
        cx.collect_hash_names();
        cx.collect_for_ranges();
        cx
    }

    pub fn in_result_crate(&self) -> bool {
        RESULT_CRATE_PREFIXES.iter().any(|p| self.rel_path.starts_with(p))
    }

    pub fn ambient_exempt(&self) -> bool {
        AMBIENT_EXEMPT_PREFIXES.iter().any(|p| self.rel_path.starts_with(p))
    }

    pub fn is_hash_name(&self, name: &str) -> bool {
        self.hash_names.contains(&name)
    }

    /// `let [mut] NAME … ;` statements that mention `HashMap`/`HashSet`
    /// anywhere (type annotation or constructor) bind `NAME` as a hash
    /// collection.
    fn collect_hash_names(&mut self) {
        let toks = self.toks;
        for i in 0..toks.len() {
            if toks[i].is_ident("let") {
                let mut j = i + 1;
                if j < toks.len() && toks[j].is_ident("mut") {
                    j += 1;
                }
                if j >= toks.len() || toks[j].kind != TokKind::Ident {
                    continue; // destructuring pattern — out of scope
                }
                let name = toks[j].text;
                if self.let_binds_hash(i, j) && !self.is_hash_name(name) {
                    self.hash_names.push(name);
                }
            }
            // Field / parameter declarations: `NAME : [&|mut|path|<]* HashMap`.
            if toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet") {
                if let Some(name) = declared_name_before(toks, i) {
                    if !self.is_hash_name(name) {
                        self.hash_names.push(name);
                    }
                }
            }
        }
    }

    /// Whether `let [mut] NAME …` binds a hash collection. An explicit
    /// type annotation is authoritative, and within it the *first*
    /// container head decides: `let missing: Vec<_> = { … a HashSet
    /// dedup guard … }` is a `Vec`, and `BTreeMap<&str, &HashMap<…>>`
    /// iterates in key order whatever its values are. Without an
    /// annotation the whole statement decides.
    fn let_binds_hash(&self, let_pos: usize, name_pos: usize) -> bool {
        let toks = self.toks;
        if name_pos + 1 >= toks.len() || !toks[name_pos + 1].is_punct(":") {
            return self.stmt_mentions_hash(let_pos);
        }
        let mut depth = 0i32;
        for tok in toks.iter().skip(name_pos + 2).take(MAX_STMT_TOKENS) {
            match tok.kind {
                TokKind::Punct => match tok.text {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" | ";" if depth <= 0 => return false,
                    _ => {}
                },
                TokKind::Ident => match tok.text {
                    "HashMap" | "HashSet" => return true,
                    "BTreeMap" | "BTreeSet" | "Vec" | "VecDeque" => return false,
                    _ => {}
                },
                _ => {}
            }
        }
        false
    }

    /// Whether the statement starting at token `start` (a `let`) mentions
    /// a hash-collection type before its terminating `;`.
    fn stmt_mentions_hash(&self, start: usize) -> bool {
        let mut depth = 0i32;
        for tok in self.toks.iter().skip(start).take(MAX_STMT_TOKENS) {
            match tok.kind {
                TokKind::Punct => match tok.text {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth <= 0 => return false,
                    _ => {}
                },
                TokKind::Ident if tok.text == "HashMap" || tok.text == "HashSet" => {
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// Records `[start, end)` expression ranges of `for PAT in EXPR {`.
    fn collect_for_ranges(&mut self) {
        let toks = self.toks;
        for i in 0..toks.len() {
            if !toks[i].is_ident("for") {
                continue;
            }
            // `impl Trait for Type` and `for<'a>` binders have no `in`
            // before the body brace; a real loop does.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut in_pos = None;
            while j < toks.len() && j - i < MAX_STMT_TOKENS {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth <= 0 => break,
                        _ => {}
                    }
                } else if depth <= 0 && t.is_ident("in") {
                    in_pos = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(in_pos) = in_pos else { continue };
            // Expression runs from after `in` to the body `{` at depth 0.
            let mut k = in_pos + 1;
            let mut depth = 0i32;
            while k < toks.len() && k - in_pos < MAX_STMT_TOKENS {
                let t = &toks[k];
                if t.kind == TokKind::Punct {
                    match t.text {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth <= 0 => break,
                        _ => {}
                    }
                }
                k += 1;
            }
            self.for_expr_ranges.push((in_pos + 1, k));
        }
    }

    /// Whether token index `i` sits inside a `for … in EXPR {` expression.
    pub fn in_for_expr(&self, i: usize) -> bool {
        self.for_expr_ranges.iter().any(|&(s, e)| s <= i && i < e)
    }
}

/// Upper bound on tokens scanned when walking a statement — a safety cap,
/// generously above any statement in this workspace.
pub const MAX_STMT_TOKENS: usize = 400;

/// Walks backwards from a `HashMap`/`HashSet` ident over type syntax
/// (`::`-paths, generics, references) to find a `NAME :` declaration.
fn declared_name_before<'a>(toks: &[Tok<'a>], hash_pos: usize) -> Option<&'a str> {
    let mut i = hash_pos;
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        let type_syntax = t.kind == TokKind::Ident
            || t.kind == TokKind::Lifetime
            || t.is_punct("::")
            || t.is_punct("<")
            || t.is_punct("&");
        if type_syntax {
            continue;
        }
        if t.is_punct(":") {
            return (i > 0 && toks[i - 1].kind == TokKind::Ident).then(|| toks[i - 1].text);
        }
        return None;
    }
    None
}

/// Runs every applicable rule over one file.
pub fn run_rules(cx: &FileCx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    if cx.in_result_crate() {
        iter_order::check(cx, &mut findings); // nondet-iter + float-order
        lossy_cast::check(cx, &mut findings);
    }
    unordered_par::check(cx, &mut findings);
    if !cx.ambient_exempt() {
        ambient_nondet::check(cx, &mut findings);
    }
    findings
}

/// Shared helper: scans forward from token `from` to the end of the
/// enclosing statement (a `;`, or a block `{` outside brackets), calling
/// `visit` on every token. Used for consumer analysis.
pub fn scan_statement_tail(toks: &[Tok<'_>], from: usize, mut visit: impl FnMut(&Tok<'_>)) {
    let mut depth = 0i32;
    for tok in toks.iter().skip(from).take(MAX_STMT_TOKENS) {
        if tok.kind == TokKind::Punct {
            match tok.text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" | "{" | "}" if depth <= 0 => return,
                _ => {}
            }
        }
        visit(tok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn hash_bindings_are_collected_from_lets_fields_and_params() {
        let src = r#"
            struct S { cache: RefCell<HashMap<u32, f64>>, plain: Vec<u32> }
            fn f(observed: &mut std::collections::HashMap<u8, u8>, n: usize) {
                let mut seen: HashSet<u32> = HashSet::new();
                let counts = std::collections::HashMap::new();
                let ordered: Vec<u32> = Vec::new();
                let deduped: Vec<u32> = { let g = HashSet::new(); g.len() as u32; Vec::new() };
                let ranked: BTreeMap<u32, HashMap<u8, u8>> = BTreeMap::new();
            }
        "#;
        let lexed = lex(src);
        let cx = FileCx::new("crates/core/src/x.rs", &lexed);
        for name in ["cache", "observed", "seen", "counts"] {
            assert!(cx.is_hash_name(name), "missing {name}: {:?}", cx.hash_names);
        }
        for name in ["plain", "n", "ordered", "deduped", "ranked", "f", "S"] {
            assert!(!cx.is_hash_name(name), "false positive {name}");
        }
    }

    #[test]
    fn for_ranges_cover_the_iterated_expression_only() {
        let src = "for (k, v) in &map { body(); } impl X for Y {} for<'a> fn(&'a u8);";
        let lexed = lex(src);
        let cx = FileCx::new("crates/core/src/x.rs", &lexed);
        assert_eq!(cx.for_expr_ranges.len(), 1);
        let (s, e) = cx.for_expr_ranges[0];
        let texts: Vec<_> = cx.toks[s..e].iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["&", "map"]);
    }

    #[test]
    fn path_scoping_matches_the_crate_lists() {
        let lexed = lex("");
        assert!(FileCx::new("crates/solver/src/x.rs", &lexed).in_result_crate());
        assert!(!FileCx::new("crates/bench/src/x.rs", &lexed).in_result_crate());
        assert!(FileCx::new("crates/datagen/src/x.rs", &lexed).ambient_exempt());
        assert!(!FileCx::new("crates/core/src/x.rs", &lexed).ambient_exempt());
    }
}
