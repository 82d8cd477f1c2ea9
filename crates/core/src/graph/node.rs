//! The [`GraphNode`] trait: the unit of work a pipeline graph schedules.

use super::artifact::{Artifact, ArtifactKind};
use crate::pipeline::{GeccoError, PassReport};

/// How a node declares its inputs.
#[derive(Debug, Clone, Copy)]
pub enum InputKinds {
    /// Exactly one input port per listed kind, filled by the node's
    /// incoming edges in edge-insertion order. An empty slice makes the
    /// node a source.
    Exact(&'static [ArtifactKind]),
    /// Any number (≥ 1) of inputs of one kind, delivered in edge-insertion
    /// order — the shape of merge nodes like
    /// [`crate::graph::UnionCandidatesNode`].
    Variadic(ArtifactKind),
}

/// What a node hands back to the executor.
pub struct NodeOutput<'a> {
    /// The artifact published on the node's outgoing edges.
    pub artifact: Artifact<'a>,
    /// An optional per-pass summary (set by pass-composition nodes,
    /// collected by [`crate::run_multipass`] / [`crate::run_fanout`]).
    pub report: Option<PassReport>,
}

impl<'a> From<Artifact<'a>> for NodeOutput<'a> {
    fn from(artifact: Artifact<'a>) -> NodeOutput<'a> {
        NodeOutput { artifact, report: None }
    }
}

/// One vertex of a pipeline graph.
///
/// Nodes are `Send + Sync` because the executor runs the independent nodes
/// of a scheduling wave in parallel under the `rayon` feature; anything a
/// node needs beyond its input artifacts (compiled constraints,
/// configuration) it captures at construction time. Results must not
/// depend on execution order — the executor guarantees inputs arrive in
/// edge-insertion order and commits outputs in node-id order, which keeps
/// parallel runs bit-identical to serial ones.
pub trait GraphNode<'a>: Send + Sync {
    /// A short label for validation errors and introspection.
    fn name(&self) -> &str;

    /// The input ports this node expects.
    fn input_kinds(&self) -> InputKinds;

    /// Every artifact kind this node can produce. Nodes with more than one
    /// entry (e.g. a selector emitting either a selection or an infeasible
    /// marker) pair with conditional edges downstream.
    fn output_kinds(&self) -> &[ArtifactKind];

    /// Runs the node over its resolved inputs (one per port, in port
    /// order for [`InputKinds::Exact`]; all delivered artifacts in edge
    /// order for [`InputKinds::Variadic`]).
    fn run(&self, inputs: &[Artifact<'a>]) -> Result<NodeOutput<'a>, GeccoError>;
}
