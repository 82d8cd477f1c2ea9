//! Reproduces Table VI: the three GECCO configurations (`Exh`, `DFG∞`,
//! `DFGk` with `k = 5·|C_L|`) over all solvable problems.

use gecco_bench::report::{header, row, smoke_requested, PaperRow};
use gecco_bench::{
    applicable, constraint_dsl, run_gecco_shared, Aggregate, LogSession, RunConfig, ALL_SETS,
};
use gecco_core::{BeamWidth, Budget, CandidateStrategy};
use gecco_datagen::{evaluation_collection, CollectionScale};

fn main() {
    let smoke = smoke_requested();
    let scale = if smoke { CollectionScale::Smoke } else { CollectionScale::Full };
    let budget = std::env::var("GECCO_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1_000 } else { 10_000 });
    let collection = evaluation_collection(scale);
    // One session per log: the occurrence index is built once and shared
    // across constraint sets and configurations.
    let sessions: Vec<LogSession<'_>> =
        collection.iter().map(|generated| LogSession::new(&generated.log)).collect();
    let configs: [(&str, CandidateStrategy, Option<PaperRow>); 3] = [
        (
            "Exh",
            CandidateStrategy::Exhaustive,
            Some(PaperRow { solved: 0.78, s_red: 0.63, c_red: 0.57, sil: 0.11, t_minutes: 130.0 }),
        ),
        (
            "DFGinf",
            CandidateStrategy::DfgUnbounded,
            Some(PaperRow { solved: 0.78, s_red: 0.62, c_red: 0.56, sil: 0.16, t_minutes: 108.0 }),
        ),
        (
            "DFGk",
            CandidateStrategy::DfgBeam { k: BeamWidth::PerClass(5) },
            Some(PaperRow { solved: 0.77, s_red: 0.56, c_red: 0.50, sil: 0.08, t_minutes: 49.0 }),
        ),
    ];
    println!("Table VI — Results per configuration over all problems (ours vs paper)\n");
    header("Conf.");
    for (name, strategy, paper) in configs {
        let config =
            RunConfig { strategy, budget: Budget::max_checks(budget), ..Default::default() };
        let mut outcomes = Vec::new();
        for (generated, session) in collection.iter().zip(&sessions) {
            for set in ALL_SETS {
                if !applicable(set, &generated.log) {
                    continue;
                }
                let dsl = constraint_dsl(set, &generated.log);
                if let Ok(outcome) = run_gecco_shared(session, &dsl, config) {
                    outcomes.push(outcome);
                }
            }
        }
        row(name, &Aggregate::from_outcomes(&outcomes), paper);
    }
    println!("{}", "-".repeat(100));
    println!("Expected shape: DFG-based configurations trade a little abstraction quality");
    println!("for large runtime gains; DFGk is the fastest and least complete.");
}
