//! [`PipelineGraph`]: a validated DAG of [`GraphNode`]s and its
//! deterministic wave executor.
//!
//! ## Scheduling
//!
//! [`PipelineGraph::execute`] first validates the graph (acyclicity, input
//! arity, edge/port kind compatibility), then runs it in *waves*: each wave
//! is the set of unfinished nodes whose upstream nodes have all finished,
//! taken in ascending node-id order. The nodes of a wave are independent by
//! construction, so they run via [`gecco_eventlog::parallel::par_map`] —
//! in parallel under the `rayon` feature, serial otherwise — and their
//! outputs are committed in node-id order. Input artifacts are resolved in
//! edge-insertion order before the wave starts. Every source of
//! nondeterminism is thereby pinned: a parallel run is **bit-identical** to
//! a serial run of the same graph (asserted by the `graph_equivalence`
//! suite).
//!
//! ## Conditional edges
//!
//! An edge may carry an [`EdgeCond`]: [`EdgeCond::IfKind`] delivers only
//! when the upstream node produced an artifact of the given kind. A node
//! with an unfilled input port does not run — it is *skipped*, and skips
//! propagate: anything depending only on skipped nodes is skipped too.
//! This is how the default pipeline routes an infeasible selection to a
//! diagnostics emitter while the abstractor silently stands down (see
//! [`crate::graph`] docs).

use super::artifact::{Artifact, ArtifactKind};
use super::node::{GraphNode, InputKinds, NodeOutput};
use crate::pipeline::{GeccoError, PassReport};
use std::time::{Duration, Instant};

/// Identifier of a node within one [`PipelineGraph`], assigned densely in
/// [`PipelineGraph::add_node`] call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

/// When an edge delivers its upstream artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeCond {
    /// Deliver whatever the upstream node produced.
    Always,
    /// Deliver only an artifact of this kind; otherwise the edge stays
    /// silent and the downstream port remains unfilled.
    IfKind(ArtifactKind),
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    from: NodeId,
    cond: EdgeCond,
}

/// A structural problem detected by [`PipelineGraph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph contains a cycle through the named node.
    Cycle {
        /// A node on the cycle.
        node: String,
    },
    /// A node's incoming edge count does not match its declared ports.
    InputArity {
        /// The offending node.
        node: String,
        /// Ports the node declares.
        expected: usize,
        /// Edges the graph wires into it.
        got: usize,
    },
    /// An edge can never deliver the kind its target port expects.
    KindMismatch {
        /// The upstream node.
        from: String,
        /// The downstream node.
        to: String,
        /// What the downstream port expects.
        expected: ArtifactKind,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Cycle { node } => write!(f, "pipeline graph has a cycle through {node:?}"),
            GraphError::InputArity { node, expected, got } => write!(
                f,
                "node {node:?} declares {expected} input port(s) but has {got} incoming edge(s)"
            ),
            GraphError::KindMismatch { from, to, expected } => write!(
                f,
                "edge {from:?} -> {to:?} can never deliver the expected {expected} artifact"
            ),
        }
    }
}

/// What happened to one node during [`PipelineGraph::execute`].
#[derive(Debug)]
pub enum NodeState<'a> {
    /// The node ran and published this artifact.
    Produced(Artifact<'a>),
    /// The node did not run: a required input port stayed unfilled (its
    /// conditional edge did not fire, or an upstream node was skipped).
    Skipped,
}

/// The results of one graph execution, addressed by [`NodeId`].
pub struct GraphRun<'a> {
    states: Vec<NodeState<'a>>,
    reports: Vec<Option<PassReport>>,
    timings: Vec<Duration>,
}

impl<'a> GraphRun<'a> {
    /// The artifact `id` produced, or `None` if it was skipped.
    pub fn artifact(&self, id: NodeId) -> Option<&Artifact<'a>> {
        match &self.states[id.0] {
            NodeState::Produced(a) => Some(a),
            NodeState::Skipped => None,
        }
    }

    /// Removes and returns the artifact `id` produced (so terminal results
    /// can be extracted without cloning). `None` if skipped or taken.
    pub fn take_artifact(&mut self, id: NodeId) -> Option<Artifact<'a>> {
        match std::mem::replace(&mut self.states[id.0], NodeState::Skipped) {
            NodeState::Produced(a) => Some(a),
            NodeState::Skipped => None,
        }
    }

    /// Whether `id` was skipped (conditional input never arrived).
    pub fn was_skipped(&self, id: NodeId) -> bool {
        matches!(self.states[id.0], NodeState::Skipped)
    }

    /// The pass report `id` attached to its output, if any.
    pub fn report(&self, id: NodeId) -> Option<PassReport> {
        self.reports[id.0]
    }

    /// Wall-clock time `id` spent in [`GraphNode::run`] (zero if skipped).
    pub fn node_time(&self, id: NodeId) -> Duration {
        self.timings[id.0]
    }
}

/// A directed acyclic graph of [`GraphNode`]s over typed [`Artifact`]s.
///
/// See the [module docs](crate::graph) for the overall design and
/// [`crate::Gecco::run`] for the prebuilt default graph.
#[derive(Default)]
pub struct PipelineGraph<'a> {
    nodes: Vec<Box<dyn GraphNode<'a> + 'a>>,
    incoming: Vec<Vec<Edge>>,
}

impl<'a> PipelineGraph<'a> {
    /// An empty graph.
    pub fn new() -> PipelineGraph<'a> {
        PipelineGraph::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, node: impl GraphNode<'a> + 'a) -> NodeId {
        self.add_boxed(Box::new(node))
    }

    /// Adds an already-boxed node and returns its id.
    pub fn add_boxed(&mut self, node: Box<dyn GraphNode<'a> + 'a>) -> NodeId {
        self.nodes.push(node);
        self.incoming.push(Vec::new());
        NodeId(self.nodes.len() - 1)
    }

    /// Wires an unconditional edge; for [`InputKinds::Exact`] targets the
    /// edge fills the next unfilled port (ports fill in edge-insertion
    /// order).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.add_edge_when(from, to, EdgeCond::Always);
    }

    /// Wires an edge that only delivers under `cond`.
    pub fn add_edge_when(&mut self, from: NodeId, to: NodeId, cond: EdgeCond) {
        assert!(from.0 < self.nodes.len(), "unknown source node");
        assert!(to.0 < self.nodes.len(), "unknown target node");
        self.incoming[to.0].push(Edge { from, cond });
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Checks the graph's structure: every [`InputKinds::Exact`] node has
    /// exactly one edge per port and every edge can deliver the kind its
    /// port expects; the edge relation is acyclic. Returns a topological
    /// order on success.
    pub fn validate(&self) -> Result<Vec<NodeId>, GraphError> {
        // Arity and kind compatibility.
        for (i, node) in self.nodes.iter().enumerate() {
            let edges = &self.incoming[i];
            match node.input_kinds() {
                InputKinds::Exact(kinds) => {
                    if edges.len() != kinds.len() {
                        return Err(GraphError::InputArity {
                            node: node.name().to_string(),
                            expected: kinds.len(),
                            got: edges.len(),
                        });
                    }
                    for (edge, &want) in edges.iter().zip(kinds) {
                        self.check_edge(edge, i, want)?;
                    }
                }
                InputKinds::Variadic(kind) => {
                    for edge in edges {
                        self.check_edge(edge, i, kind)?;
                    }
                }
            }
        }
        // Kahn's algorithm for a topological order / cycle detection.
        let n = self.nodes.len();
        let mut outgoing: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        for (to, edges) in self.incoming.iter().enumerate() {
            for edge in edges {
                outgoing[edge.from.0].push(to);
                indegree[to] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(NodeId(i));
            for &to in &outgoing[i] {
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    ready.push(to);
                }
            }
        }
        if order.len() != n {
            let node = (0..n)
                .find(|&i| indegree[i] > 0)
                .map(|i| self.nodes[i].name().to_string())
                .unwrap_or_default();
            return Err(GraphError::Cycle { node });
        }
        Ok(order)
    }

    /// Whether `edge` could ever deliver an artifact of kind `want`.
    fn check_edge(&self, edge: &Edge, to: usize, want: ArtifactKind) -> Result<(), GraphError> {
        let source = &self.nodes[edge.from.0];
        let deliverable = match edge.cond {
            EdgeCond::Always => source.output_kinds().contains(&want),
            EdgeCond::IfKind(k) => k == want && source.output_kinds().contains(&k),
        };
        if deliverable {
            Ok(())
        } else {
            Err(GraphError::KindMismatch {
                from: source.name().to_string(),
                to: self.nodes[to].name().to_string(),
                expected: want,
            })
        }
    }

    /// Validates and runs the graph to completion.
    ///
    /// The first node error aborts the run (deterministically: errors are
    /// surfaced in node-id order within a wave).
    pub fn execute(&self) -> Result<GraphRun<'a>, GeccoError> {
        self.validate().map_err(GeccoError::Graph)?;
        let n = self.nodes.len();
        let mut states: Vec<Option<NodeState<'a>>> = (0..n).map(|_| None).collect();
        let mut reports: Vec<Option<PassReport>> = vec![None; n];
        let mut timings = vec![Duration::ZERO; n];
        let mut finished = 0usize;
        while finished < n {
            // The next wave: unfinished nodes whose upstreams all finished,
            // in ascending node-id order (`0..n` is already sorted).
            let wave: Vec<usize> = (0..n)
                .filter(|&i| {
                    states[i].is_none()
                        && self.incoming[i].iter().all(|e| states[e.from.0].is_some())
                })
                .collect();
            debug_assert!(!wave.is_empty(), "a validated DAG always has a ready node");
            // Resolve inputs up front; nodes with unfilled ports are
            // skipped without running.
            let mut jobs: Vec<(usize, Vec<Artifact<'a>>)> = Vec::with_capacity(wave.len());
            for &i in &wave {
                match self.resolve_inputs(i, &states) {
                    Some(inputs) => jobs.push((i, inputs)),
                    None => states[i] = Some(NodeState::Skipped),
                }
            }
            // Run the wave's independent nodes — in parallel under the
            // `rayon` feature — and commit outputs in node-id order.
            let results = gecco_eventlog::parallel::par_map(&jobs, 2, |(i, inputs)| {
                // gecco-lint: allow(ambient-nondet) — per-node timing for observability;
                // outputs are committed in node-id order regardless of when nodes finish
                let start = Instant::now();
                let out = self.nodes[*i].run(inputs);
                (out, start.elapsed())
            });
            for ((i, _), (out, elapsed)) in jobs.iter().zip(results) {
                let NodeOutput { artifact, report } = out?;
                timings[*i] = elapsed;
                reports[*i] = report;
                states[*i] = Some(NodeState::Produced(artifact));
            }
            finished += wave.len();
        }
        Ok(GraphRun {
            states: states.into_iter().map(|s| s.expect("all nodes finished")).collect(),
            reports,
            timings,
        })
    }

    /// The input artifacts of node `i`, or `None` if it must be skipped.
    fn resolve_inputs(
        &self,
        i: usize,
        states: &[Option<NodeState<'a>>],
    ) -> Option<Vec<Artifact<'a>>> {
        let edges = &self.incoming[i];
        match self.nodes[i].input_kinds() {
            InputKinds::Exact(kinds) => {
                let mut inputs = Vec::with_capacity(kinds.len());
                for (edge, &want) in edges.iter().zip(kinds) {
                    let artifact = delivered(edge, states)?;
                    if artifact.kind() != want {
                        return None;
                    }
                    inputs.push(artifact.clone());
                }
                Some(inputs)
            }
            InputKinds::Variadic(kind) => {
                let inputs: Vec<Artifact<'a>> = edges
                    .iter()
                    .filter_map(|edge| delivered(edge, states))
                    .filter(|a| a.kind() == kind)
                    .cloned()
                    .collect();
                if inputs.is_empty() {
                    None
                } else {
                    Some(inputs)
                }
            }
        }
    }
}

/// The artifact `edge` delivers given the current states, if any.
fn delivered<'s, 'a>(edge: &Edge, states: &'s [Option<NodeState<'a>>]) -> Option<&'s Artifact<'a>> {
    match states[edge.from.0].as_ref()? {
        NodeState::Skipped => None,
        NodeState::Produced(artifact) => match edge.cond {
            EdgeCond::Always => Some(artifact),
            EdgeCond::IfKind(k) if artifact.kind() == k => Some(artifact),
            EdgeCond::IfKind(_) => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateSet;
    use gecco_eventlog::{ClassId, ClassSet};
    use std::sync::Arc;

    /// Emits an empty candidate set; declares it *might* also emit a
    /// selection, so conditional-edge tests can wire a port that never
    /// fills at runtime.
    struct Source;

    impl<'a> GraphNode<'a> for Source {
        fn name(&self) -> &str {
            "source"
        }
        fn input_kinds(&self) -> InputKinds {
            InputKinds::Exact(&[])
        }
        fn output_kinds(&self) -> &[ArtifactKind] {
            &[ArtifactKind::Candidates, ArtifactKind::Selection]
        }
        fn run(&self, _inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
            Ok(Artifact::Candidates(Arc::new(CandidateSet::new())).into())
        }
    }

    /// Consumes one artifact of `expect` and re-emits its input.
    struct Relay(ArtifactKind);

    impl<'a> GraphNode<'a> for Relay {
        fn name(&self) -> &str {
            "relay"
        }
        fn input_kinds(&self) -> InputKinds {
            InputKinds::Exact(match self.0 {
                ArtifactKind::Candidates => &[ArtifactKind::Candidates],
                ArtifactKind::Selection => &[ArtifactKind::Selection],
                _ => unimplemented!("test relay supports candidates/selection"),
            })
        }
        fn output_kinds(&self) -> &[ArtifactKind] {
            match self.0 {
                ArtifactKind::Candidates => &[ArtifactKind::Candidates],
                ArtifactKind::Selection => &[ArtifactKind::Selection],
                _ => unimplemented!(),
            }
        }
        fn run(&self, inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
            Ok(inputs[0].clone().into())
        }
    }

    /// Variadic union counting its inputs into singleton groups.
    struct Count;

    impl<'a> GraphNode<'a> for Count {
        fn name(&self) -> &str {
            "count"
        }
        fn input_kinds(&self) -> InputKinds {
            InputKinds::Variadic(ArtifactKind::Candidates)
        }
        fn output_kinds(&self) -> &[ArtifactKind] {
            &[ArtifactKind::Candidates]
        }
        fn run(&self, inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
            let mut out = CandidateSet::new();
            for (i, _) in inputs.iter().enumerate() {
                out.insert(ClassSet::singleton(ClassId(i as u16)));
            }
            Ok(Artifact::Candidates(Arc::new(out)).into())
        }
    }

    /// Converts a selection into candidates — exists so tests can build a
    /// candidates-typed node that ends up skipped at runtime.
    struct SelToCand;

    impl<'a> GraphNode<'a> for SelToCand {
        fn name(&self) -> &str {
            "sel-to-cand"
        }
        fn input_kinds(&self) -> InputKinds {
            InputKinds::Exact(&[ArtifactKind::Selection])
        }
        fn output_kinds(&self) -> &[ArtifactKind] {
            &[ArtifactKind::Candidates]
        }
        fn run(&self, _inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError> {
            Ok(Artifact::Candidates(Arc::new(CandidateSet::new())).into())
        }
    }

    #[test]
    fn rejects_cycles() {
        let mut g = PipelineGraph::new();
        let a = g.add_node(Relay(ArtifactKind::Candidates));
        let b = g.add_node(Relay(ArtifactKind::Candidates));
        g.add_edge(a, b);
        g.add_edge(b, a);
        assert!(matches!(g.validate(), Err(GraphError::Cycle { .. })));
    }

    #[test]
    fn rejects_wrong_arity() {
        let mut g = PipelineGraph::new();
        g.add_node(Relay(ArtifactKind::Candidates));
        let err = g.validate().unwrap_err();
        assert!(matches!(err, GraphError::InputArity { expected: 1, got: 0, .. }), "{err}");
    }

    #[test]
    fn rejects_undeliverable_kinds() {
        let mut g = PipelineGraph::new();
        let src = g.add_node(Source);
        let sel = g.add_node(Relay(ArtifactKind::Selection));
        let bad = g.add_node(Relay(ArtifactKind::Candidates));
        g.add_edge(src, sel);
        // A selection-conditioned edge can never satisfy a candidates port.
        g.add_edge_when(sel, bad, EdgeCond::IfKind(ArtifactKind::Selection));
        let err = g.validate().unwrap_err();
        assert!(
            matches!(err, GraphError::KindMismatch { expected: ArtifactKind::Candidates, .. }),
            "{err}"
        );
    }

    #[test]
    fn conditional_skips_propagate() {
        let mut g = PipelineGraph::new();
        let src = g.add_node(Source);
        let taken = g.add_node(Relay(ArtifactKind::Candidates));
        let not_taken = g.add_node(Relay(ArtifactKind::Selection));
        let downstream = g.add_node(Relay(ArtifactKind::Selection));
        g.add_edge_when(src, taken, EdgeCond::IfKind(ArtifactKind::Candidates));
        g.add_edge_when(src, not_taken, EdgeCond::IfKind(ArtifactKind::Selection));
        g.add_edge(not_taken, downstream);
        let run = g.execute().unwrap();
        assert!(run.artifact(taken).is_some(), "matching branch ran");
        assert!(run.was_skipped(not_taken), "non-matching branch skipped");
        assert!(run.was_skipped(downstream), "skip propagates");
        assert_eq!(run.node_time(not_taken), Duration::ZERO);
    }

    #[test]
    fn variadic_collects_in_edge_order_and_skips_when_empty() {
        let mut g = PipelineGraph::new();
        let s1 = g.add_node(Source);
        let s2 = g.add_node(Source);
        let union = g.add_node(Count);
        g.add_edge(s1, union);
        g.add_edge(s2, union);
        // `conv` is skipped at runtime (the source emits candidates, not a
        // selection), starving the second union of every input.
        let conv = g.add_node(SelToCand);
        g.add_edge_when(s1, conv, EdgeCond::IfKind(ArtifactKind::Selection));
        let starved = g.add_node(Count);
        g.add_edge(conv, starved);
        let run = g.execute().unwrap();
        let merged = run.artifact(union).and_then(Artifact::as_candidates).unwrap();
        assert_eq!(merged.len(), 2, "both inputs delivered");
        assert!(run.was_skipped(starved), "variadic node without inputs is skipped");
    }
}
