//! Built-in nodes: the pipeline steps of Figure 4 plus pass composition
//! and the session-based segmentation scenario source.

use super::artifact::{AbstractionOutput, Artifact, ArtifactKind, InfeasibleSignal, LogArtifact};
use super::node::{GraphNode, InputKinds, NodeOutput};
use crate::abstraction::{abstract_log, activity_names, AbstractionStrategy};
use crate::candidates::{
    dfg::{dfg_candidates, NoObserver},
    exclusive::extend_with_exclusive_candidates,
    exhaustive::exhaustive_candidates,
    session::{session_candidates, SessionConfig},
    Budget, CandidateSet, CandidateStrategy,
};
use crate::distance::DistanceOracle;
use crate::pipeline::{GeccoError, InfeasibilityReport, PassReport};
use crate::selection::{
    select_optimal, select_optimal_colgen, use_column_generation, SelectionOptions,
};
use gecco_constraints::{CompiledConstraintSet, ConstraintSet, Diagnostics};
use gecco_eventlog::{EvalContext, Segmenter, TraceStore};
use std::sync::Arc;

/// A source node publishing a caller-supplied artifact — how a graph's
/// external inputs (the log under abstraction, a precomputed candidate
/// set, …) enter the executor.
pub struct InputNode<'a> {
    artifact: Artifact<'a>,
    kinds: [ArtifactKind; 1],
}

impl<'a> InputNode<'a> {
    /// Wraps `artifact` as a source node.
    pub fn new(artifact: Artifact<'a>) -> InputNode<'a> {
        let kinds = [artifact.kind()];
        InputNode { artifact, kinds }
    }
}

impl<'a> GraphNode<'a> for InputNode<'a> {
    fn name(&self) -> &str {
        "input"
    }

    fn input_kinds(&self) -> InputKinds {
        InputKinds::Exact(&[])
    }

    fn output_kinds(&self) -> &[ArtifactKind] {
        &self.kinds
    }

    fn run(&self, _inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
        Ok(self.artifact.clone().into())
    }
}

/// A source node publishing a log loaded from an on-disk
/// [`TraceStore`] — the graph entry point of the streaming ingestion
/// route. Loading happens once at construction (the store's batches are
/// decoded and the index built batch by batch); `run` then hands out the
/// shared artifact like [`InputNode`] does, so downstream nodes cannot
/// tell which route produced their input.
pub struct StoreInputNode {
    artifact: LogArtifact<'static>,
}

impl StoreInputNode {
    /// Opens the store at `dir` and materializes its log and index.
    pub fn open(dir: impl AsRef<std::path::Path>) -> gecco_eventlog::Result<StoreInputNode> {
        StoreInputNode::from_store(&TraceStore::open(dir)?)
    }

    /// Materializes `store`'s log and index into a source node.
    pub fn from_store(store: &TraceStore) -> gecco_eventlog::Result<StoreInputNode> {
        let log = store.load_log()?;
        let index = store.build_index()?;
        Ok(StoreInputNode { artifact: LogArtifact::owned(log, index) })
    }

    /// The loaded artifact, for callers that want the log outside a graph.
    pub fn artifact(&self) -> &LogArtifact<'static> {
        &self.artifact
    }
}

impl<'a> GraphNode<'a> for StoreInputNode {
    fn name(&self) -> &str {
        "store-input"
    }

    fn input_kinds(&self) -> InputKinds {
        InputKinds::Exact(&[])
    }

    fn output_kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::Log]
    }

    fn run(&self, _inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
        Ok(Artifact::Log(self.artifact.clone()).into())
    }
}

/// Step 1 as a node: computes the candidate set of its input log with one
/// of the paper's strategies (Algorithm 1 or 2).
pub struct CandidateSourceNode {
    strategy: CandidateStrategy,
    budget: Budget,
    constraints: Arc<CompiledConstraintSet>,
    name: String,
}

impl CandidateSourceNode {
    /// Creates the node; `constraints` must be compiled against the log
    /// this node will receive.
    pub fn new(
        strategy: CandidateStrategy,
        budget: Budget,
        constraints: Arc<CompiledConstraintSet>,
    ) -> CandidateSourceNode {
        let name = match strategy {
            CandidateStrategy::Exhaustive => "candidates:exhaustive".to_string(),
            CandidateStrategy::DfgUnbounded => "candidates:dfg".to_string(),
            CandidateStrategy::DfgBeam { .. } => "candidates:dfg-beam".to_string(),
        };
        CandidateSourceNode { strategy, budget, constraints, name }
    }
}

impl<'a> GraphNode<'a> for CandidateSourceNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_kinds(&self) -> InputKinds {
        InputKinds::Exact(&[ArtifactKind::Log])
    }

    fn output_kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::Candidates]
    }

    fn run(&self, inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
        let input = inputs[0].as_log().expect("validated port");
        let ctx = EvalContext::new(input.log(), input.index());
        let candidates = match self.strategy {
            CandidateStrategy::Exhaustive => {
                exhaustive_candidates(&ctx, &self.constraints, self.budget)
            }
            CandidateStrategy::DfgUnbounded => {
                dfg_candidates(&ctx, &self.constraints, None, self.budget, &mut NoObserver)
            }
            CandidateStrategy::DfgBeam { k } => {
                dfg_candidates(&ctx, &self.constraints, Some(k), self.budget, &mut NoObserver)
            }
        };
        Ok(Artifact::Candidates(Arc::new(candidates)).into())
    }
}

/// The session-based segmentation scenario source: candidate groups are
/// the class sets of gap- or attribute-window sessions (see
/// [`crate::candidates::session`]).
pub struct SessionCandidateSourceNode {
    config: SessionConfig,
    constraints: Arc<CompiledConstraintSet>,
}

impl SessionCandidateSourceNode {
    /// Creates the node.
    pub fn new(
        config: SessionConfig,
        constraints: Arc<CompiledConstraintSet>,
    ) -> SessionCandidateSourceNode {
        SessionCandidateSourceNode { config, constraints }
    }
}

impl<'a> GraphNode<'a> for SessionCandidateSourceNode {
    fn name(&self) -> &str {
        "candidates:session"
    }

    fn input_kinds(&self) -> InputKinds {
        InputKinds::Exact(&[ArtifactKind::Log])
    }

    fn output_kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::Candidates]
    }

    fn run(&self, inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
        let input = inputs[0].as_log().expect("validated port");
        let ctx = EvalContext::new(input.log(), input.index());
        let candidates = session_candidates(&ctx, &self.constraints, &self.config);
        Ok(Artifact::Candidates(Arc::new(candidates)).into())
    }
}

/// Algorithm 3 as a candidate-filter node: extends a candidate set with
/// merged exclusive alternatives. The incoming distance memo passes
/// through; the merged groups are scored in Step 2.
pub struct ExclusiveMergeNode {
    constraints: Arc<CompiledConstraintSet>,
}

impl ExclusiveMergeNode {
    /// Creates the node.
    pub fn new(constraints: Arc<CompiledConstraintSet>) -> ExclusiveMergeNode {
        ExclusiveMergeNode { constraints }
    }
}

impl<'a> GraphNode<'a> for ExclusiveMergeNode {
    fn name(&self) -> &str {
        "filter:exclusive-merge"
    }

    fn input_kinds(&self) -> InputKinds {
        InputKinds::Exact(&[ArtifactKind::Log, ArtifactKind::Candidates])
    }

    fn output_kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::Candidates]
    }

    fn run(&self, inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
        let input = inputs[0].as_log().expect("validated port");
        let ctx = EvalContext::new(input.log(), input.index());
        let mut candidates = inputs[1].as_candidates().expect("validated port").clone();
        extend_with_exclusive_candidates(&ctx, &self.constraints, &mut candidates);
        Ok(Artifact::Candidates(Arc::new(candidates)).into())
    }
}

/// Merges any number of candidate sets in edge-insertion order — groups
/// deduplicate on insertion, statistics accumulate field-wise, distance
/// memos merge — so several scenario sources can feed one selector. The
/// deterministic merge order keeps parallel branch execution
/// bit-identical to serial.
pub struct UnionCandidatesNode;

impl<'a> GraphNode<'a> for UnionCandidatesNode {
    fn name(&self) -> &str {
        "filter:union"
    }

    fn input_kinds(&self) -> InputKinds {
        InputKinds::Variadic(ArtifactKind::Candidates)
    }

    fn output_kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::Candidates]
    }

    fn run(&self, inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
        let mut union = CandidateSet::new();
        for input in inputs {
            let candidates = input.as_candidates().expect("validated port");
            for &group in candidates.groups() {
                union.insert(group);
            }
            union.stats.accumulate(&candidates.stats);
            if let Some(memo) = candidates.distances() {
                union.merge_distances(memo);
            }
        }
        Ok(Artifact::Candidates(Arc::new(union)).into())
    }
}

/// Step 2 as a node: solves the set-partitioning MIP over the incoming
/// candidates. Emits a [`ArtifactKind::Selection`] when feasible and an
/// [`ArtifactKind::Infeasible`] marker otherwise — pair it with
/// [`super::EdgeCond::IfKind`] edges to route the two cases. Its oracle
/// starts from the candidates' distance memo when that was scored under
/// the node's segmenter.
pub struct SelectorNode {
    constraints: Arc<CompiledConstraintSet>,
    segmenter: Segmenter,
    options: SelectionOptions,
}

impl SelectorNode {
    /// Creates the node.
    pub fn new(
        constraints: Arc<CompiledConstraintSet>,
        segmenter: Segmenter,
        options: SelectionOptions,
    ) -> SelectorNode {
        SelectorNode { constraints, segmenter, options }
    }
}

impl<'a> GraphNode<'a> for SelectorNode {
    fn name(&self) -> &str {
        "selector"
    }

    fn input_kinds(&self) -> InputKinds {
        InputKinds::Exact(&[ArtifactKind::Log, ArtifactKind::Candidates])
    }

    fn output_kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::Selection, ArtifactKind::Infeasible]
    }

    fn run(&self, inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
        let input = inputs[0].as_log().expect("validated port");
        let candidates = inputs[1].as_candidates().expect("validated port");
        let ctx = EvalContext::new(input.log(), input.index());
        let oracle = DistanceOracle::seeded(&ctx, self.segmenter, candidates.distances());
        let selected = if use_column_generation(&self.options, input.log(), input.index()) {
            select_optimal_colgen(
                input.log(),
                &self.constraints,
                &oracle,
                self.constraints.group_count_bounds(),
                self.options,
            )
        } else {
            select_optimal(
                input.log(),
                candidates.groups(),
                &oracle,
                self.constraints.group_count_bounds(),
                self.options,
            )
        };
        Ok(match selected {
            Some(selection) => Artifact::Selection(Arc::new(selection)).into(),
            None => Artifact::Infeasible(Arc::new(InfeasibleSignal::default())).into(),
        })
    }
}

/// Step 3 as a node: rewrites the incoming log under the incoming
/// selection, yielding the abstracted log with its spliced index.
pub struct AbstractorNode {
    strategy: AbstractionStrategy,
    segmenter: Segmenter,
    label_attribute: Option<String>,
}

impl AbstractorNode {
    /// Creates the node.
    pub fn new(
        strategy: AbstractionStrategy,
        segmenter: Segmenter,
        label_attribute: Option<String>,
    ) -> AbstractorNode {
        AbstractorNode { strategy, segmenter, label_attribute }
    }
}

impl<'a> GraphNode<'a> for AbstractorNode {
    fn name(&self) -> &str {
        "abstractor"
    }

    fn input_kinds(&self) -> InputKinds {
        InputKinds::Exact(&[ArtifactKind::Log, ArtifactKind::Selection])
    }

    fn output_kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::Abstraction]
    }

    fn run(&self, inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
        let input = inputs[0].as_log().expect("validated port");
        let selection = inputs[1].as_selection().expect("validated port");
        let ctx = EvalContext::new(input.log(), input.index());
        let names =
            activity_names(input.log(), &selection.grouping, self.label_attribute.as_deref());
        let (log, index) =
            abstract_log(&ctx, &selection.grouping, &names, self.strategy, self.segmenter);
        Ok(Artifact::Abstraction(Arc::new(AbstractionOutput {
            log,
            index,
            grouping: selection.grouping.clone(),
            names,
            distance: selection.distance,
            proven_optimal: selection.proven_optimal,
        }))
        .into())
    }
}

/// The diagnostics emitter infeasible selections route to: probes the
/// constraints against the log (§V-C "indicates possible causes") and
/// renders the same report the linear pipeline returns.
pub struct DiagnosticsNode {
    constraints: Arc<CompiledConstraintSet>,
}

impl DiagnosticsNode {
    /// Creates the node.
    pub fn new(constraints: Arc<CompiledConstraintSet>) -> DiagnosticsNode {
        DiagnosticsNode { constraints }
    }
}

impl<'a> GraphNode<'a> for DiagnosticsNode {
    fn name(&self) -> &str {
        "diagnostics"
    }

    fn input_kinds(&self) -> InputKinds {
        InputKinds::Exact(&[ArtifactKind::Log, ArtifactKind::Candidates, ArtifactKind::Infeasible])
    }

    fn output_kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::Report]
    }

    fn run(&self, inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
        let input = inputs[0].as_log().expect("validated port");
        let candidates = inputs[1].as_candidates().expect("validated port");
        let ctx = EvalContext::new(input.log(), input.index());
        let diagnostics = Diagnostics::probe(&self.constraints, &ctx);
        let summary = format!(
            "no feasible grouping over {} candidates (checked {} groups{}).\n{}",
            candidates.len(),
            candidates.stats.checked,
            if candidates.stats.budget_exhausted { ", budget exhausted" } else { "" },
            diagnostics.render(input.log())
        );
        Ok(Artifact::Report(Arc::new(InfeasibilityReport {
            diagnostics,
            candidate_stats: candidates.stats.clone(),
            summary,
        }))
        .into())
    }
}

/// One full abstraction pass as a node: takes a log, runs the default
/// single-pass graph over it (via [`crate::Gecco::run`]) under its own
/// constraint set, and emits the resulting log — unchanged when the pass
/// is infeasible, exactly like the linear loop of
/// [`crate::run_multipass`]. A [`PassReport`] rides along as the node's
/// report.
pub struct PassNode<F> {
    pass: usize,
    constraints: ConstraintSet,
    configure: Arc<F>,
    name: String,
}

impl<F> PassNode<F>
where
    F: for<'b> Fn(crate::Gecco<'b>) -> crate::Gecco<'b> + Send + Sync,
{
    /// Creates pass number `pass` applying `constraints`; `configure`
    /// customizes the pass's builder exactly as in [`crate::run_multipass`].
    pub fn new(pass: usize, constraints: ConstraintSet, configure: Arc<F>) -> PassNode<F> {
        PassNode { pass, constraints, configure, name: format!("pass:{pass}") }
    }
}

impl<'a, F> GraphNode<'a> for PassNode<F>
where
    F: for<'b> Fn(crate::Gecco<'b>) -> crate::Gecco<'b> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn input_kinds(&self) -> InputKinds {
        InputKinds::Exact(&[ArtifactKind::Log])
    }

    fn output_kinds(&self) -> &[ArtifactKind] {
        &[ArtifactKind::Log]
    }

    fn run(&self, inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
        let input = inputs[0].as_log().expect("validated port");
        let outcome = (self.configure)(crate::Gecco::new(input.log()))
            .constraints(self.constraints.clone())
            .with_index(input.index())
            .run()?;
        Ok(match outcome {
            crate::Outcome::Abstracted(result) => {
                let report = PassReport {
                    pass: self.pass,
                    feasible: true,
                    groups: result.grouping().len(),
                    distance: result.distance(),
                };
                let (log, index) = result.into_log_and_index();
                NodeOutput {
                    artifact: Artifact::Log(LogArtifact::owned(log, index)),
                    report: Some(report),
                }
            }
            crate::Outcome::Infeasible(_) => NodeOutput {
                artifact: inputs[0].clone(),
                report: Some(PassReport {
                    pass: self.pass,
                    feasible: false,
                    groups: 0,
                    distance: 0.0,
                }),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::session::SessionConfig;
    use crate::graph::{EdgeCond, PipelineGraph};
    use gecco_eventlog::{EventLog, LogBuilder, LogIndex};

    /// Keyboard/mouse-style traces whose timestamp bursts mirror two
    /// high-level tasks: ⟨open edit⟩ then — after a long gap — ⟨save mail⟩.
    fn burst_log() -> EventLog {
        let mut b = LogBuilder::new();
        for (case, events) in [
            ("c1", vec![("open", 0), ("edit", 100), ("save", 10_000), ("mail", 10_100)]),
            ("c2", vec![("open", 0), ("edit", 50), ("save", 10_000), ("mail", 10_050)]),
        ] {
            let mut tb = b.trace(case);
            for (cls, ts) in events {
                tb = tb
                    .event_with(cls, |e| {
                        e.timestamp("time:timestamp", ts);
                    })
                    .unwrap();
            }
            tb.done();
        }
        b.build()
    }

    /// A custom two-source topology: DFG and session candidates unioned
    /// into one selector, then abstracted — the scenario-composition shape
    /// the graph refactor exists for.
    #[test]
    fn session_and_dfg_sources_compose() {
        let log = burst_log();
        let index = LogIndex::build(&log);
        let compiled = Arc::new(
            CompiledConstraintSet::compile(&ConstraintSet::parse("size(g) >= 1;").unwrap(), &log)
                .unwrap(),
        );
        let mut graph = PipelineGraph::new();
        let input = graph.add_node(InputNode::new(Artifact::log(&log, &index)));
        let dfg = graph.add_node(CandidateSourceNode::new(
            CandidateStrategy::DfgUnbounded,
            Budget::UNLIMITED,
            Arc::clone(&compiled),
        ));
        let session = graph.add_node(SessionCandidateSourceNode::new(
            SessionConfig::gap(1_000),
            Arc::clone(&compiled),
        ));
        let union = graph.add_node(UnionCandidatesNode);
        let selector = graph.add_node(SelectorNode::new(
            Arc::clone(&compiled),
            Segmenter::RepeatSplit,
            SelectionOptions::default(),
        ));
        let abstractor = graph.add_node(AbstractorNode::new(
            AbstractionStrategy::Completion,
            Segmenter::RepeatSplit,
            None,
        ));
        graph.add_edge(input, dfg);
        graph.add_edge(input, session);
        graph.add_edge(dfg, union);
        graph.add_edge(session, union);
        graph.add_edge(input, selector);
        graph.add_edge(union, selector);
        graph.add_edge(input, abstractor);
        graph.add_edge_when(selector, abstractor, EdgeCond::IfKind(ArtifactKind::Selection));
        let mut run = graph.execute().unwrap();
        let merged = run.artifact(union).and_then(Artifact::as_candidates).unwrap();
        let burst = [log.class_by_name("open").unwrap(), log.class_by_name("edit").unwrap()]
            .into_iter()
            .collect();
        assert!(merged.contains(&burst), "session source contributed the burst group");
        let out = run.take_artifact(abstractor).and_then(Artifact::into_abstraction).unwrap();
        assert!(out.grouping.is_exact_cover(&log));
        assert_eq!(out.index, LogIndex::build(&out.log), "spliced index matches a rebuild");
    }

    /// A one-input union must report exactly its source's statistics —
    /// every field, `pruned_by_sketch` included — and carry its memo.
    #[test]
    fn union_reports_its_sources_stats_and_memo() {
        let mut b = LogBuilder::new();
        for (case, trace) in [("c1", ["a", "b"]), ("c2", ["b", "c"]), ("c3", ["a", "c"])] {
            b.trace(case).event(trace[0]).unwrap().event(trace[1]).unwrap().done();
        }
        let log = b.build();
        let index = LogIndex::build(&log);
        let compiled =
            Arc::new(CompiledConstraintSet::compile(&ConstraintSet::new(), &log).unwrap());
        for strategy in [CandidateStrategy::Exhaustive, CandidateStrategy::DfgUnbounded] {
            let mut graph = PipelineGraph::new();
            let input = graph.add_node(InputNode::new(Artifact::log(&log, &index)));
            let source = graph.add_node(CandidateSourceNode::new(
                strategy,
                Budget::UNLIMITED,
                Arc::clone(&compiled),
            ));
            let union = graph.add_node(UnionCandidatesNode);
            graph.add_edge(input, source);
            graph.add_edge(source, union);
            let run = graph.execute().unwrap();
            let source = run.artifact(source).and_then(Artifact::as_candidates).unwrap();
            let union = run.artifact(union).and_then(Artifact::as_candidates).unwrap();
            if strategy == CandidateStrategy::Exhaustive {
                // The sketch rejects {a, b, c}, which no trace holds.
                assert!(source.stats.pruned_by_sketch > 0);
            }
            assert_eq!(union.stats, source.stats, "{strategy:?}");
            assert_eq!(union.groups(), source.groups(), "{strategy:?}");
            assert_eq!(union.distances(), source.distances(), "{strategy:?}");
        }
    }

    /// A selector whose segmenter differs from the one the candidates'
    /// memo was scored under must score the pool afresh: its selection
    /// equals the one a fresh oracle under its own segmenter gives.
    #[test]
    fn selector_ignores_a_memo_of_another_segmenter() {
        let mut b = LogBuilder::new();
        let traces: &[&[&str]] = &[
            &["rcp", "ckc", "acc", "prio", "inf", "arv"],
            &["rcp", "ckt", "rej", "prio", "arv", "inf"],
            &["rcp", "ckc", "rej", "rcp", "ckt", "acc", "prio", "arv", "inf"],
        ];
        for (i, t) in traces.iter().enumerate() {
            let mut tb = b.trace(&format!("σ{i}"));
            for cls in *t {
                tb = tb.event(cls).unwrap();
            }
            tb.done();
        }
        let log = b.build();
        let index = LogIndex::build(&log);
        let spec = ConstraintSet::parse("size(g) <= 3;").unwrap();
        let compiled = Arc::new(
            CompiledConstraintSet::compile_with(&spec, &log, Segmenter::RepeatSplit).unwrap(),
        );
        let mut graph = PipelineGraph::new();
        let input = graph.add_node(InputNode::new(Artifact::log(&log, &index)));
        let source = graph.add_node(CandidateSourceNode::new(
            CandidateStrategy::DfgUnbounded,
            Budget::UNLIMITED,
            Arc::clone(&compiled),
        ));
        let selector = graph.add_node(SelectorNode::new(
            Arc::clone(&compiled),
            Segmenter::NoSplit,
            SelectionOptions::default(),
        ));
        graph.add_edge(input, source);
        graph.add_edge(input, selector);
        graph.add_edge(source, selector);
        let run = graph.execute().unwrap();
        let candidates = run.artifact(source).and_then(Artifact::as_candidates).unwrap();
        assert_eq!(candidates.distances().map(|m| m.segmenter()), Some(Segmenter::RepeatSplit));
        let selected = run.artifact(selector).and_then(Artifact::as_selection).unwrap();

        let ctx = EvalContext::new(&log, &index);
        let fresh = DistanceOracle::new(&ctx, Segmenter::NoSplit);
        let expect = select_optimal(
            &log,
            candidates.groups(),
            &fresh,
            compiled.group_count_bounds(),
            SelectionOptions::default(),
        )
        .unwrap();
        assert_eq!(selected.grouping, expect.grouping);
        assert_eq!(selected.distance.to_bits(), expect.distance.to_bits());
        // The two segmenters do score this pool differently.
        let seeded = DistanceOracle::seeded(&ctx, Segmenter::RepeatSplit, candidates.distances());
        let repeat = select_optimal(
            &log,
            candidates.groups(),
            &seeded,
            compiled.group_count_bounds(),
            SelectionOptions::default(),
        )
        .unwrap();
        assert_ne!(repeat.distance.to_bits(), expect.distance.to_bits());
    }

    /// The store-backed source must feed downstream nodes the same log
    /// and index the in-memory route produces.
    #[test]
    fn store_input_matches_in_memory_input() {
        let log = burst_log();
        let doc = gecco_eventlog::xes::write_string(&log);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-stores")
            .join(format!("core-node-{}", std::process::id()));
        let options = gecco_eventlog::IngestOptions {
            batch_traces: 1,
            ..gecco_eventlog::IngestOptions::default()
        };
        gecco_eventlog::ingest_to_store(doc.as_bytes(), &dir, &options).unwrap();
        let node = StoreInputNode::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // Oracle: the in-memory parse of the same document (the writer
        // synthesizes `concept:name` attributes the builder log lacks).
        let expect = gecco_eventlog::xes::parse_str(&doc).unwrap();
        assert_eq!(node.artifact().log().traces(), expect.traces());
        assert_eq!(node.artifact().index(), &LogIndex::build(&expect));
        let mut graph = PipelineGraph::new();
        let input = graph.add_node(node);
        let dfg = graph.add_node(CandidateSourceNode::new(
            CandidateStrategy::DfgUnbounded,
            Budget::UNLIMITED,
            Arc::new(
                CompiledConstraintSet::compile(
                    &ConstraintSet::parse("size(g) >= 1;").unwrap(),
                    &log,
                )
                .unwrap(),
            ),
        ));
        graph.add_edge(input, dfg);
        let run = graph.execute().unwrap();
        assert!(run.artifact(dfg).and_then(Artifact::as_candidates).is_some());
    }
}
