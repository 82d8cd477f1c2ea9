//! Reproduces Table V: results of the exhaustive configuration (`Exh`) per
//! constraint set, averaged over solved problems.
//!
//! 121 abstraction problems: 13 logs × 10 constraint sets, minus the 9
//! logs BL3 does not apply to. Run with `--release`; `--smoke` uses tiny
//! logs and a small candidate budget.

use gecco_bench::report::{header, row, smoke_requested, PaperRow};
use gecco_bench::{
    applicable, constraint_dsl, run_gecco_shared, Aggregate, LogSession, RunConfig, ALL_SETS,
};
use gecco_core::{Budget, CandidateStrategy};
use gecco_datagen::{evaluation_collection, CollectionScale};

/// Paper Table V values (Solved, S.red, C.red, Sil., T in minutes).
fn paper_row(name: &str) -> Option<PaperRow> {
    let (solved, s_red, c_red, sil, t) = match name {
        "A" => (1.00, 0.68, 0.63, 0.15, 146.0),
        "M" => (0.31, 0.58, 0.55, 0.15, 75.0),
        "N" => (0.77, 0.68, 0.65, 0.12, 154.0),
        "Gr" => (1.00, 0.66, 0.61, 0.13, 144.0),
        "C1" => (0.54, 0.68, 0.59, 0.12, 134.0),
        "C2" => (0.23, 0.50, 0.40, 0.09, 100.0),
        "BL1" => (1.00, 0.67, 0.61, 0.12, 122.0),
        "BL2" => (1.00, 0.66, 0.61, 0.12, 121.0),
        "BL3" => (1.00, 0.38, 0.29, -0.02, 38.0),
        "BL4" => (1.00, 0.51, 0.46, 0.05, 147.0),
        _ => return None,
    };
    Some(PaperRow { solved, s_red, c_red, sil, t_minutes: t })
}

fn main() {
    let smoke = smoke_requested();
    let scale = if smoke { CollectionScale::Smoke } else { CollectionScale::Full };
    let budget = std::env::var("GECCO_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1_000 } else { 10_000 });
    let config = RunConfig {
        strategy: CandidateStrategy::Exhaustive,
        budget: Budget::max_checks(budget),
        ..Default::default()
    };
    let collection = evaluation_collection(scale);
    // One session per log: the occurrence index is built once and shared
    // across all ten constraint sets.
    let sessions: Vec<LogSession<'_>> =
        collection.iter().map(|generated| LogSession::new(&generated.log)).collect();
    println!("Table V — Exh configuration per constraint set (ours vs paper)");
    println!("(candidate budget: {budget} checks — the analogue of the paper's 5h timeout)\n");
    header("Const.");
    let mut total_problems = 0usize;
    for set in ALL_SETS {
        let mut outcomes = Vec::new();
        for (generated, session) in collection.iter().zip(&sessions) {
            if !applicable(set, &generated.log) {
                continue;
            }
            let dsl = constraint_dsl(set, &generated.log);
            match run_gecco_shared(session, &dsl, config) {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => eprintln!("  [skip] {} on {}: {e}", set.name(), generated.reference),
            }
        }
        total_problems += outcomes.len();
        row(set.name(), &Aggregate::from_outcomes(&outcomes), paper_row(set.name()));
    }
    println!("{}", "-".repeat(100));
    println!("{total_problems} abstraction problems solved or proven infeasible (paper: 121).");
    println!("T is seconds here vs minutes in the paper (logs scaled ~1/100, no Gurobi).");
}
