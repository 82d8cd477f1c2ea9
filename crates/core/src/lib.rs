//! The GECCO approach (§V): candidate-group computation, optimal selection
//! and log abstraction.
//!
//! The pipeline mirrors Figure 4 of the paper:
//!
//! 1. **Candidate computation** — either [`candidates::exhaustive`]
//!    (Algorithm 1, complete but exponential) or [`candidates::dfg`]
//!    (Algorithm 2, DFG-guided beam search), both exploiting constraint
//!    monotonicity and group co-occurrence pruning, followed by
//!    [`candidates::exclusive`] (Algorithm 3) which merges behavioral
//!    alternatives with identical DFG pre-/postsets.
//! 2. **Optimal grouping** — [`selection`] formulates the exact-cover MIP
//!    of §V-C over the bipartite candidate/class graph and solves it with
//!    the engines of [`gecco_solver`].
//! 3. **Abstraction** — [`abstraction`] rewrites every trace, replacing
//!    events by high-level activity instances (completion-only or
//!    start+complete strategies, §V-D).
//!
//! [`pipeline::Gecco`] ties the steps together behind a builder API, and
//! [`run_multipass`] and [`run_fanout`] chain or fan out whole runs. A
//! pipeline with another candidate source (e.g. [`candidates::session`])
//! calls the step functions itself and joins the sources with
//! [`CandidateSet::union`].

pub mod abstraction;
pub mod candidates;
pub mod distance;
pub mod grouping;
pub mod pipeline;
pub mod selection;

pub use abstraction::AbstractionStrategy;
pub use candidates::session::{SessionBoundary, SessionConfig};
pub use candidates::{BeamWidth, Budget, CandidateSet, CandidateStats, CandidateStrategy};
pub use distance::{
    group_distance, group_distance_scan, group_distances, grouping_distance, DistanceMemo,
    DistanceOracle,
};
pub use gecco_eventlog::{parallel_enabled, set_parallel};
pub use gecco_solver::MasterEngine;
pub use grouping::Grouping;
pub use pipeline::{
    run_fanout, run_multipass, AbstractionResult, BranchOutcome, Gecco, GeccoError,
    InfeasibilityReport, MultiPassResult, Outcome, PassReport,
};
pub use selection::{
    select_optimal, select_optimal_colgen, solve_set_partition, solve_set_partition_stats,
    use_column_generation, ColGenMode, LazyPricingStats, Selection, SelectionOptions,
    AUTO_COLGEN_BUDGET,
};
