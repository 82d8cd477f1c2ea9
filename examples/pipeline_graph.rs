//! Pipeline-as-graph: compose a custom abstraction pipeline from nodes.
//!
//! Builds a two-source topology the fixed Step 1→2→3 chain cannot express:
//! DFG-derived candidates (Algorithm 2) are unioned with session-based
//! candidates (inactivity-gap segmentation), one selector weighs them
//! together, and a conditional edge routes an infeasible selection to a
//! diagnostics emitter instead of aborting. A three-branch fan-out then
//! compares alternative constraint formulations in a single executor run.
//!
//! Run with `cargo run --example pipeline_graph`.

use gecco::constraints::CompiledConstraintSet;
use gecco::core::graph::{
    AbstractorNode, Artifact, ArtifactKind, CandidateSourceNode, DiagnosticsNode, EdgeCond,
    ExclusiveMergeNode, InputNode, PipelineGraph, SelectorNode, SessionCandidateSourceNode,
    UnionCandidatesNode,
};
use gecco::core::selection::SelectionOptions;
use gecco::core::{AbstractionStrategy, Budget};
use gecco::eventlog::{LogIndex, Segmenter};
use gecco::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let log = gecco::datagen::loan_log(60, 4);
    let index = LogIndex::build(&log);
    println!("Input: {} classes, {} traces", log.num_classes(), log.traces().len());

    let constraints = ConstraintSet::parse("size(g) <= 4; distinct(instance, \"org:role\") <= 1;")?;
    let compiled = Arc::new(CompiledConstraintSet::compile(&constraints, &log)?);

    // ── A custom graph: two candidate sources feeding one selector ──────
    //
    //        input ──► dfg ─────┐
    //          │ └───► session ─┴► union ─► exclusive ─► selector
    //          │                                            │ selection
    //          └────────────────────────────────► abstractor ◄┘
    //                                             diagnostics ◄┘ infeasible
    let mut graph = PipelineGraph::new();
    let input = graph.add_node(InputNode::new(Artifact::log(&log, &index)));
    let dfg = graph.add_node(CandidateSourceNode::new(
        CandidateStrategy::DfgUnbounded,
        Budget::UNLIMITED,
        Arc::clone(&compiled),
    ));
    // Sessions: a burst of events separated by ≥ 30 minutes of inactivity
    // is offered as one candidate group.
    let session = graph.add_node(SessionCandidateSourceNode::new(
        SessionConfig::gap(30 * 60 * 1000),
        Arc::clone(&compiled),
    ));
    let union = graph.add_node(UnionCandidatesNode);
    let exclusive = graph.add_node(ExclusiveMergeNode::new(Arc::clone(&compiled)));
    let selector = graph.add_node(SelectorNode::new(
        Arc::clone(&compiled),
        Segmenter::RepeatSplit,
        SelectionOptions::default(),
    ));
    let abstractor = graph.add_node(AbstractorNode::new(
        AbstractionStrategy::Completion,
        Segmenter::RepeatSplit,
        Some("org:role".to_string()),
    ));
    let diagnostics = graph.add_node(DiagnosticsNode::new(Arc::clone(&compiled)));

    graph.add_edge(input, dfg);
    graph.add_edge(input, session);
    graph.add_edge(dfg, union);
    graph.add_edge(session, union);
    graph.add_edge(input, exclusive);
    graph.add_edge(union, exclusive);
    graph.add_edge(input, selector);
    graph.add_edge(exclusive, selector);
    // Conditional routing: the selector emits either a selection or an
    // infeasibility marker; exactly one downstream branch runs.
    graph.add_edge(input, abstractor);
    graph.add_edge_when(selector, abstractor, EdgeCond::IfKind(ArtifactKind::Selection));
    graph.add_edge(input, diagnostics);
    graph.add_edge(exclusive, diagnostics);
    graph.add_edge_when(selector, diagnostics, EdgeCond::IfKind(ArtifactKind::Infeasible));

    let mut run = graph.execute()?;
    let merged = run.artifact(union).and_then(Artifact::as_candidates).expect("union ran");
    println!("Union of DFG + session candidates: {} groups", merged.len());

    match run.take_artifact(abstractor).and_then(Artifact::into_abstraction) {
        Some(out) => {
            println!(
                "Abstracted to {} activities (dist = {:.2}, optimal: {}):",
                out.grouping.len(),
                out.distance,
                out.proven_optimal
            );
            for (group, name) in out.grouping.iter().zip(&out.names) {
                println!("  {:<12} ← {}", name, log.format_group(group));
            }
        }
        None => {
            let report = run
                .take_artifact(diagnostics)
                .and_then(Artifact::into_report)
                .expect("diagnostics ran instead");
            println!("Infeasible:\n{}", report.summary);
        }
    }

    // ── Fan-out: three formulations over the same log, one run ──────────
    // Independent branches share one wave; under `--features rayon` they
    // run on separate cores, bit-identical to serial execution.
    let scenarios = vec![
        constraints,
        ConstraintSet::parse("size(g) <= 2;")?,
        ConstraintSet::parse("size(g) >= 6; groups >= 4;")?, // infeasible
    ];
    let branches = gecco::core::run_fanout(&log, &scenarios, |g| {
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
