//! `unordered-par`: raw rayon that bypasses the order-preserving seam.
//!
//! Every parallel path in this workspace must be bit-identical to its
//! serial form. The only approved way in is the one seam
//! (`gecco_eventlog::parallel::par_map`/`par_map_scoped`) plus the
//! sequenced-consumer pattern in streaming ingestion: ordered chunks in,
//! results combined in the exact serial order. Direct rayon combinators
//! (`par_iter` + `reduce`/`fold`/`for_each`, `rayon::spawn`,
//! `rayon::scope`) have no such guarantee — reduction trees and
//! work-stealing order are scheduler-dependent. The seam module itself
//! carries an `allow-file` waiver: it is where the ordering proof lives
//! (see `gecco-core`'s `tests/parallel_equivalence.rs` and
//! `gecco-eventlog`'s `tests/ingest_equivalence.rs`).

use super::FileCx;
use crate::diag::{Finding, Severity};
use crate::lexer::TokKind;

/// Parallel-iterator entry points (method or import position).
const PAR_METHODS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
    "par_chunks_mut",
    "par_drain",
    "par_extend",
    "par_sort",
    "par_sort_unstable",
    "prelude",
];

/// `rayon::<entry>` free functions that schedule unordered work.
const RAYON_FNS: &[&str] = &["spawn", "join", "scope", "scope_fifo", "ThreadPoolBuilder"];

pub(super) fn check(cx: &FileCx<'_>, findings: &mut Vec<Finding>) {
    let toks = cx.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let flagged = if PAR_METHODS.contains(&toks[i].text) {
            // `prelude` only counts under a `rayon::` path; the parallel
            // combinators count anywhere (method calls, `use` items).
            toks[i].text != "prelude"
                || (i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("rayon"))
        } else if RAYON_FNS.contains(&toks[i].text) {
            i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("rayon")
        } else {
            false
        };
        if flagged {
            findings.push(Finding {
                rule: "unordered-par",
                file: cx.rel_path.to_string(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!(
                    "raw rayon (`{}`) bypasses the order-preserving parallel seam",
                    toks[i].text
                ),
                note: "route through gecco_eventlog::parallel::par_map/par_map_scoped; \
                       parallel must stay bit-identical to serial",
                severity: Severity::Warning,
                waived: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::FileCx;

    fn run(src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let cx = FileCx::new("crates/core/src/x.rs", &lexed);
        let mut findings = Vec::new();
        check(&cx, &mut findings);
        findings
    }

    #[test]
    fn flags_par_combinators_and_rayon_fns() {
        let src = r#"
            use rayon::prelude::*;
            fn f(v: &[u32]) -> u32 {
                rayon::spawn(|| {});
                v.par_iter().map(|x| x + 1).reduce(|| 0, |a, b| a + b)
            }
        "#;
        let findings = run(src);
        let rules: Vec<_> = findings.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(rules, vec![(2, "unordered-par"), (4, "unordered-par"), (5, "unordered-par")]);
    }

    #[test]
    fn ordinary_code_and_other_preludes_are_clean() {
        let src = r#"
            use std::io::prelude::*;
            fn f(v: &[u32]) -> u32 {
                let n = rayon::current_num_threads();
                v.iter().sum::<u32>() + n as u32
            }
        "#;
        assert!(run(src).is_empty(), "{:?}", run(src));
    }
}
