//! A custom abstraction pipeline composed from the step functions.
//!
//! Joins two candidate sources that [`Gecco::run`] does not combine on its
//! own: DFG-derived candidates (Algorithm 2) are unioned with session-based
//! candidates (inactivity-gap segmentation), Algorithm 3 merges exclusive
//! alternatives into the union, and one selection weighs them all together.
//! An infeasible selection prints the constraint diagnostics instead of
//! aborting. A three-branch fan-out then compares alternative constraint
//! formulations over the same log.
//!
//! Run with `cargo run --example custom_pipeline`.

use gecco::constraints::{CompiledConstraintSet, Diagnostics};
use gecco::core::abstraction::{abstract_log, activity_names};
use gecco::core::candidates::dfg::{dfg_candidates, NoObserver};
use gecco::core::candidates::exclusive::extend_with_exclusive_candidates;
use gecco::core::candidates::session::session_candidates;
use gecco::core::{select_optimal, Budget, DistanceOracle, SelectionOptions};
use gecco::eventlog::{EvalContext, LogIndex, Segmenter};
use gecco::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let log = gecco::datagen::loan_log(60, 4);
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    println!("Input: {} classes, {} traces", log.num_classes(), log.traces().len());

    let constraints = ConstraintSet::parse("size(g) <= 4; distinct(instance, \"org:role\") <= 1;")?;
    let compiled = CompiledConstraintSet::compile(&constraints, &log)?;

    // ── Step 1 from two sources ──────────────────────────────────────────
    // Sessions: a burst of events separated by ≥ 30 minutes of inactivity
    // is offered as one candidate group.
    let mut pool = dfg_candidates(&ctx, &compiled, None, Budget::UNLIMITED, &mut NoObserver);
    pool.union(&session_candidates(&ctx, &compiled, &SessionConfig::gap(30 * 60 * 1000)));
    println!("Union of DFG + session candidates: {} groups", pool.len());
    extend_with_exclusive_candidates(&ctx, &compiled, &mut pool);

    // ── Step 2 over the joint pool, then Step 3 ──────────────────────────
    // The oracle starts from the distances the DFG search already scored.
    let oracle = DistanceOracle::seeded(&ctx, Segmenter::RepeatSplit, pool.distances());
    let bounds = compiled.group_count_bounds();
    match select_optimal(&log, pool.groups(), &oracle, bounds, SelectionOptions::default()) {
        Some(selection) => {
            let names = activity_names(&log, &selection.grouping, Some("org:role"));
            let (abstracted, _index) = abstract_log(
                &ctx,
                &selection.grouping,
                &names,
                AbstractionStrategy::Completion,
                Segmenter::RepeatSplit,
            );
            println!(
                "Abstracted to {} activities (dist = {:.2}, optimal: {}):",
                abstracted.num_classes(),
                selection.distance,
                selection.proven_optimal
            );
            for (group, name) in selection.grouping.iter().zip(&names) {
                println!("  {:<12} ← {}", name, log.format_group(group));
            }
        }
        None => {
            let diagnostics = Diagnostics::probe(&compiled, &ctx);
            println!("Infeasible:\n{}", diagnostics.render(&log));
        }
    }

    // ── Fan-out: three formulations over the same log, one call ─────────
    // Independent branches run through one `par_map`; under
    // `--features rayon` they run on separate cores, bit-identical to
    // serial execution.
    let scenarios = vec![
        constraints,
        ConstraintSet::parse("size(g) <= 2;")?,
        ConstraintSet::parse("size(g) >= 6; groups >= 4;")?, // infeasible
    ];
    let branches = run_fanout(&log, &scenarios, |g| {
        g.candidates(CandidateStrategy::DfgUnbounded).label_by("org:role")
    })?;
    println!("\nFan-out over {} constraint formulations:", branches.len());
    for branch in &branches {
        let r = branch.report();
        if r.feasible {
            println!(
                "  scenario {}: {} groups, dist = {:.2}, {} classes after abstraction",
                r.pass,
                r.groups,
                r.distance,
                branch.log().num_classes()
            );
        } else {
            println!("  scenario {}: infeasible — log passes through unchanged", r.pass);
        }
    }
    Ok(())
}
