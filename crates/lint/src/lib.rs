//! `gecco-lint` — the workspace determinism & safety analyzer.
//!
//! Every guarantee this reproduction makes (paper pins bit-for-bit,
//! serial == parallel, spliced == rebuilt, streamed == in-memory) is
//! enforced *dynamically* by differential tests. This crate enforces the
//! underlying coding discipline *statically*, at CI time: no hash-order
//! iteration in result paths, no rayon outside the order-preserving
//! seam, no silent integer truncation in binary formats, no ambient
//! clock/entropy in result code, no float accumulation over unordered
//! iterators.
//!
//! The pass is deliberately self-contained — a handwritten lexer and
//! token-level rules, no syntax-tree dependency — in the same vendored,
//! registry-free spirit as the rest of the workspace. Intentional sites
//! are acknowledged **in place** with waiver comments that must carry a
//! reason:
//!
//! ```text
//! // gecco-lint: allow(nondet-iter) — sorted into deterministic order on the next line
//! ```
//!
//! Run it with `cargo run -p gecco-lint -- --workspace` (see the README
//! "Static analysis" section and `docs/adr-determinism-lint.md`).

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod waiver;

pub use diag::{render_human, render_json, Finding, Severity};
pub use rules::{is_known_rule, RuleInfo, RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Analyzes one source file's text. `rel_path` is the workspace-relative,
/// `/`-separated path — rule scoping (result crates, bench/datagen
/// exemptions) keys off it. Returns all findings, waived ones flagged.
pub fn analyze_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let cx = rules::FileCx::new(rel_path, &lexed);
    let mut findings = rules::run_rules(&cx);
    let (mut waivers, mut bad) = waiver::collect_waivers(rel_path, &lexed);
    waiver::apply_waivers(rel_path, &mut findings, &mut waivers);
    findings.append(&mut bad);
    findings.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    findings
}

/// Collects the first-party sources the analyzer covers: the facade's
/// `src/` and every `crates/*/src/` tree (benches, examples, integration
/// tests and `vendor/` shims are out of scope — they never produce
/// results). Paths come back sorted for deterministic reports.
pub fn collect_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    push_rs_files(&root.join("src"), "src", &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                let name = member.file_name().and_then(|n| n.to_str()).unwrap_or_default();
                push_rs_files(&src, &format!("crates/{name}/src"), &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn push_rs_files(dir: &Path, rel: &str, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<(String, PathBuf)> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_str()?.to_string();
            Some((name, e.path()))
        })
        .collect();
    entries.sort();
    for (name, path) in entries {
        if path.is_dir() {
            push_rs_files(&path, &format!("{rel}/{name}"), out)?;
        } else if name.ends_with(".rs") {
            out.push((format!("{rel}/{name}"), path));
        }
    }
    Ok(())
}

/// Runs the analyzer over every covered file under the workspace root.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (rel, path) in collect_files(root)? {
        let src = fs::read_to_string(&path)?;
        findings.extend(analyze_source(&rel, &src));
    }
    Ok(findings)
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn workspace_root_from(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d.to_path_buf());
                }
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_waiver_flow() {
        let src = "\
fn f(m: HashMap<u32, u32>) {
    for k in m.keys() { use_it(k); }
    // gecco-lint: allow(nondet-iter) — demo: order folds into the digest
    for k in m.keys() { use_it(k); }
}
";
        let findings = analyze_source("crates/core/src/demo.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(!findings[0].waived && findings[0].line == 2);
        assert!(findings[1].waived && findings[1].line == 4);
    }

    #[test]
    fn findings_are_sorted_by_position() {
        let src = "\
fn f(m: HashMap<u32, u32>, v: &[u8]) {
    let x = v.len() as u32;
    for k in m.keys() { use_it(k, x); }
}
";
        let findings = analyze_source("crates/eventlog/src/demo.rs", src);
        let lines: Vec<_> = findings.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(lines, vec![(2, "lossy-cast"), (3, "nondet-iter")]);
    }

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let root = workspace_root_from(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        assert!(root.join("crates/lint/Cargo.toml").is_file());
    }
}
