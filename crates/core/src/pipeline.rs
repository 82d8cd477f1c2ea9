//! The end-to-end GECCO pipeline (Figure 4).
//!
//! There is one route through the three steps: [`Gecco::run`] computes the
//! candidates (Step 1, with Algorithm 3's merges), selects an optimal
//! grouping (Step 2) and rewrites the log (Step 3). When Step 2 takes the
//! column-generation route, Step 1 does not run: that route prices
//! candidates out of the implicit pool itself. [`run_multipass`]
//! chains such runs, seeding each pass with the index the previous pass
//! spliced, and [`run_fanout`] runs independent passes over one log through
//! [`gecco_eventlog::parallel::par_map`]. A pipeline with other candidate
//! sources calls the step functions itself and joins the sources with
//! [`CandidateSet::union`] (see `examples/custom_pipeline.rs`).

use crate::abstraction::{abstract_log, activity_names, AbstractionStrategy};
use crate::candidates::{
    dfg::{dfg_candidates, IterationObserver, NoObserver},
    exclusive::extend_with_exclusive_candidates,
    exhaustive::exhaustive_candidates,
    Budget, CandidateSet, CandidateStrategy,
};
use crate::distance::DistanceOracle;
use crate::grouping::Grouping;
use crate::selection::{
    select_optimal, select_optimal_colgen, use_column_generation, SelectionOptions,
};
use gecco_constraints::{CompileError, CompiledConstraintSet, ConstraintSet, Diagnostics};
use gecco_eventlog::parallel::par_map;
use gecco_eventlog::{EvalContext, EventLog, LogIndex, Segmenter};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors that abort the pipeline before it can produce an outcome.
#[derive(Debug)]
pub enum GeccoError {
    /// The constraint specification does not fit the log.
    Compile(CompileError),
}

impl fmt::Display for GeccoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeccoError::Compile(e) => write!(f, "constraint compilation failed: {e}"),
        }
    }
}

impl std::error::Error for GeccoError {}

impl From<CompileError> for GeccoError {
    fn from(e: CompileError) -> Self {
        GeccoError::Compile(e)
    }
}

/// Explanation returned when no feasible grouping exists (§V-C: GECCO
/// "returns the initial log" and "indicates possible causes").
#[derive(Debug, Clone)]
pub struct InfeasibilityReport {
    /// Per-constraint violation evidence.
    pub diagnostics: Diagnostics,
    /// Candidate statistics of the (failed) run: `CandidateStats::default()`
    /// on the column-generation route, where Step 1 does not run.
    pub candidate_stats: crate::candidates::CandidateStats,
    /// Pre-rendered human-readable summary.
    pub summary: String,
}

/// Result of a successful abstraction.
#[derive(Debug)]
pub struct AbstractionResult {
    log: EventLog,
    index: LogIndex,
    grouping: Grouping,
    names: Vec<String>,
    distance: f64,
    proven_optimal: bool,
    candidate_stats: crate::candidates::CandidateStats,
    timings: Timings,
}

/// Wall-clock breakdown of the three steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Step 1: candidate computation (incl. exclusive merging); zero on
    /// the column-generation route, where Step 1 does not run.
    pub candidates: Duration,
    /// Step 2: MIP selection, including the choice of its route.
    pub selection: Duration,
    /// Step 3: trace rewriting.
    pub abstraction: Duration,
}

impl Timings {
    /// Total across the steps.
    pub fn total(&self) -> Duration {
        self.candidates + self.selection + self.abstraction
    }
}

impl AbstractionResult {
    /// The abstracted log `L'`.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The [`LogIndex`] of `L'`, spliced incrementally during Step 3 —
    /// bit-identical to `LogIndex::build(result.log())`, available without
    /// paying for that rebuild. Feed it (via [`Gecco::with_index`]) to any
    /// follow-up evaluation over the abstracted log.
    pub fn index(&self) -> &LogIndex {
        &self.index
    }

    /// Consumes the result into the abstracted log and its index — the
    /// seed state of the next pass in iterative abstraction.
    pub fn into_log_and_index(self) -> (EventLog, LogIndex) {
        (self.log, self.index)
    }

    /// The selected grouping `G`.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// The activity name of each group (aligned with `grouping`).
    pub fn activity_names(&self) -> &[String] {
        &self.names
    }

    /// `dist(G, L)` of the selected grouping.
    pub fn distance(&self) -> f64 {
        self.distance
    }

    /// Whether the solver proved the grouping optimal (false when a search
    /// budget was hit and the incumbent was returned).
    pub fn proven_optimal(&self) -> bool {
        self.proven_optimal
    }

    /// Statistics from the candidate computation: `CandidateStats::default()`
    /// on the column-generation route, where Step 1 does not run.
    pub fn candidate_stats(&self) -> &crate::candidates::CandidateStats {
        &self.candidate_stats
    }

    /// Wall-clock timings of the steps.
    pub fn timings(&self) -> Timings {
        self.timings
    }
}

/// Outcome of a pipeline run.
// The size difference between variants is intentional: outcomes are
// produced once per run, never stored in bulk, so boxing the result would
// only complicate the public API.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Outcome {
    /// A feasible grouping was found and the log abstracted.
    Abstracted(AbstractionResult),
    /// No grouping satisfies the constraints; the original log stands.
    Infeasible(InfeasibilityReport),
}

impl Outcome {
    /// Unwraps the abstraction result.
    ///
    /// # Panics
    /// Panics with the infeasibility summary if the run was infeasible.
    pub fn expect_abstracted(self) -> AbstractionResult {
        match self {
            Outcome::Abstracted(r) => r,
            Outcome::Infeasible(rep) => {
                panic!("abstraction problem infeasible:\n{}", rep.summary)
            }
        }
    }

    /// The abstraction result, if feasible.
    pub fn abstracted(&self) -> Option<&AbstractionResult> {
        match self {
            Outcome::Abstracted(r) => Some(r),
            Outcome::Infeasible(_) => None,
        }
    }
}

/// Builder for a GECCO run; see the crate docs for an example.
pub struct Gecco<'a> {
    log: &'a EventLog,
    constraints: ConstraintSet,
    strategy: CandidateStrategy,
    abstraction: AbstractionStrategy,
    segmenter: Segmenter,
    budget: Budget,
    selection: SelectionOptions,
    merge_exclusive: bool,
    label_attribute: Option<String>,
    index: Option<&'a LogIndex>,
}

impl<'a> Gecco<'a> {
    /// Starts configuring a run over `log` with defaults: no constraints,
    /// DFG-based candidates with unlimited beam, completion abstraction.
    pub fn new(log: &'a EventLog) -> Self {
        Gecco {
            log,
            constraints: ConstraintSet::new(),
            strategy: CandidateStrategy::DfgUnbounded,
            abstraction: AbstractionStrategy::Completion,
            segmenter: Segmenter::RepeatSplit,
            budget: Budget::UNLIMITED,
            selection: SelectionOptions::default(),
            merge_exclusive: true,
            label_attribute: None,
            index: None,
        }
    }

    /// Sets the user constraints `R`.
    pub fn constraints(mut self, constraints: ConstraintSet) -> Self {
        self.constraints = constraints;
        self
    }

    /// Chooses the Step-1 instantiation (Exh / DFG∞ / DFGk). The
    /// column-generation route ([`SelectionOptions::column_generation`])
    /// runs no Step 1 and ignores it: it prices Algorithm 1's whole
    /// candidate lattice.
    pub fn candidates(mut self, strategy: CandidateStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Chooses the Step-3 strategy.
    pub fn abstraction(mut self, strategy: AbstractionStrategy) -> Self {
        self.abstraction = strategy;
        self
    }

    /// Sets the instance segmenter (default: recurrence splitting).
    pub fn segmenter(mut self, segmenter: Segmenter) -> Self {
        self.segmenter = segmenter;
        self
    }

    /// Bounds Step 1 (mirrors the paper's 5-hour candidate timeout).
    /// Ignored on the column-generation route, which runs no Step 1.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Configures the Step-2 solver.
    pub fn selection(mut self, options: SelectionOptions) -> Self {
        self.selection = options;
        self
    }

    /// Enables/disables Algorithm 3 (exclusive-alternative merging).
    /// Ignored on the column-generation route: its implicit pool holds no
    /// merged candidates.
    pub fn merge_exclusive(mut self, on: bool) -> Self {
        self.merge_exclusive = on;
        self
    }

    /// Names multi-class activities after this attribute when its value is
    /// constant within a group (e.g. `org:role` → `clerk1`, `clerk2`).
    pub fn label_by(mut self, attribute: &str) -> Self {
        self.label_attribute = Some(attribute.to_string());
        self
    }

    /// Reuses a pre-built [`LogIndex`] instead of building one per run.
    /// Callers running several constraint sets over the same log (the
    /// benchmark harness in particular) build the index once.
    ///
    /// The index must have been built from this run's log.
    pub fn with_index(mut self, index: &'a LogIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Runs the three steps like [`Gecco::run`], reporting every Step-1
    /// iteration of the DFG search to `observer` (used to render the
    /// paper's Figure 5). On the column-generation route Step 1 does not
    /// run, so the observer sees no iteration.
    pub fn run_observed(self, observer: &mut dyn IterationObserver) -> Result<Outcome, GeccoError> {
        let compiled =
            CompiledConstraintSet::compile_with(&self.constraints, self.log, self.segmenter)?;

        // The evaluation context every step shares: the log's occurrence
        // index, built once per run unless the caller provides one.
        let owned_index;
        let index: &LogIndex = match self.index {
            Some(index) => index,
            None => {
                owned_index = LogIndex::build(self.log);
                &owned_index
            }
        };
        let ctx = EvalContext::new(self.log, index);

        // Step 2's route is decided first: column generation prices
        // candidates lazily out of the implicit pool, so on that route
        // neither Step 1 nor Algorithm 3 runs.
        // gecco-lint: allow(ambient-nondet) — stage timing for diagnostics only; it is
        // reported in PipelineStats and never folds into results
        let t_route = Instant::now();
        let lazy = use_column_generation(&self.selection, self.log, index);
        let route_time = t_route.elapsed();

        // Step 1: candidate computation (enumerated route only).
        let (candidates, candidates_time): (Option<CandidateSet>, Duration) = if lazy {
            (None, Duration::ZERO)
        } else {
            // gecco-lint: allow(ambient-nondet) — stage timing for diagnostics only; it is
            // reported in PipelineStats and never folds into results
            let t0 = Instant::now();
            let mut candidates = match self.strategy {
                CandidateStrategy::Exhaustive => {
                    exhaustive_candidates(&ctx, &compiled, self.budget)
                }
                CandidateStrategy::DfgUnbounded => {
                    dfg_candidates(&ctx, &compiled, None, self.budget, observer)
                }
                CandidateStrategy::DfgBeam { k } => {
                    dfg_candidates(&ctx, &compiled, Some(k), self.budget, observer)
                }
            };
            if self.merge_exclusive {
                extend_with_exclusive_candidates(&ctx, &compiled, &mut candidates);
            }
            (Some(candidates), t0.elapsed())
        };

        // Step 2: optimal grouping. The enumerated route's oracle starts
        // from the distances Step 1 scored; the lazy route's starts empty.
        // gecco-lint: allow(ambient-nondet) — stage timing for diagnostics only; it is
        // reported in PipelineStats and never folds into results
        let t1 = Instant::now();
        let bounds = compiled.group_count_bounds();
        let selected = match &candidates {
            None => {
                let oracle = DistanceOracle::new(&ctx, self.segmenter);
                select_optimal_colgen(self.log, &compiled, &oracle, bounds, self.selection)
            }
            Some(candidates) => {
                let oracle = DistanceOracle::seeded(&ctx, self.segmenter, candidates.distances());
                select_optimal(self.log, candidates.groups(), &oracle, bounds, self.selection)
            }
        };
        let selection_time = route_time + t1.elapsed();
        let candidate_stats = candidates.as_ref().map(|c| c.stats.clone()).unwrap_or_default();

        let Some(selection) = selected else {
            let diagnostics = Diagnostics::probe(&compiled, &ctx);
            let cause = match &candidates {
                Some(candidates) => format!(
                    "no feasible grouping over {} candidates (checked {} groups{})",
                    candidates.len(),
                    candidate_stats.checked,
                    if candidate_stats.budget_exhausted { ", budget exhausted" } else { "" },
                ),
                None => "no feasible grouping: column generation found no exact cover of the \
                         implicit candidate pool"
                    .to_string(),
            };
            let summary = format!("{cause}.\n{}", diagnostics.render(self.log));
            return Ok(Outcome::Infeasible(InfeasibilityReport {
                diagnostics,
                candidate_stats,
                summary,
            }));
        };

        // Step 3: abstraction. The trace rewrite splices the new log's
        // index as it goes, so the result carries both.
        // gecco-lint: allow(ambient-nondet) — stage timing for diagnostics only; it is
        // reported in PipelineStats and never folds into results
        let t2 = Instant::now();
        let names = activity_names(self.log, &selection.grouping, self.label_attribute.as_deref());
        let (abstracted, abstracted_index) =
            abstract_log(&ctx, &selection.grouping, &names, self.abstraction, self.segmenter);
        let abstraction_time = t2.elapsed();

        Ok(Outcome::Abstracted(AbstractionResult {
            log: abstracted,
            index: abstracted_index,
            grouping: selection.grouping,
            names,
            distance: selection.distance,
            proven_optimal: selection.proven_optimal,
            candidate_stats,
            timings: Timings {
                candidates: candidates_time,
                selection: selection_time,
                abstraction: abstraction_time,
            },
        }))
    }

    /// Runs the three steps: candidates, selection, abstraction. An
    /// infeasible selection returns the diagnostics of §V-C instead of an
    /// abstracted log.
    pub fn run(self) -> Result<Outcome, GeccoError> {
        self.run_observed(&mut NoObserver)
    }
}

/// One pass's summary in an iterative [`run_multipass`] run.
#[derive(Debug, Clone, Copy)]
pub struct PassReport {
    /// Zero-based index of the constraint set this pass applied.
    pub pass: usize,
    /// Whether a feasible grouping was found (an infeasible pass leaves
    /// the log unchanged and the run continues).
    pub feasible: bool,
    /// Number of groups selected (0 when infeasible).
    pub groups: usize,
    /// `dist(G, L)` of the selected grouping (0.0 when infeasible).
    pub distance: f64,
}

/// Final state of an iterative abstraction run.
#[derive(Debug)]
pub struct MultiPassResult {
    log: EventLog,
    index: LogIndex,
    reports: Vec<PassReport>,
}

impl MultiPassResult {
    /// The log after the last feasible pass (the input log if none was).
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The final log's [`LogIndex`]. After at least one feasible pass this
    /// is the incrementally spliced index of the last abstraction, handed
    /// from pass to pass without ever rebuilding.
    pub fn index(&self) -> &LogIndex {
        &self.index
    }

    /// Per-pass summaries, in application order.
    pub fn reports(&self) -> &[PassReport] {
        &self.reports
    }

    /// Consumes the result into the final log and its index.
    pub fn into_log_and_index(self) -> (EventLog, LogIndex) {
        (self.log, self.index)
    }
}

/// Iterative abstraction — the paper's re-abstraction use case: applies
/// `constraint_sets` in order, each pass running [`Gecco::run`] over the
/// previous pass's abstracted log. Step 3 returns the rewritten log
/// *together with* its incrementally spliced index, and that index seeds
/// the next pass's evaluation context, so [`LogIndex::build`] runs exactly
/// once (for the input log) no matter how many passes execute.
///
/// `configure` customizes each pass's [`Gecco`] builder (strategy, budget,
/// labeling, …); the pass's constraint set and index are applied afterwards
/// and take precedence. Infeasible passes are recorded and skipped — the
/// log carries over unchanged, matching the single-run behavior of
/// returning the initial log (§V-C).
pub fn run_multipass(
    log: &EventLog,
    constraint_sets: &[ConstraintSet],
    configure: impl for<'b> Fn(Gecco<'b>) -> Gecco<'b>,
) -> Result<MultiPassResult, GeccoError> {
    let seed_index = LogIndex::build(log);
    let mut current: Option<(EventLog, LogIndex)> = None;
    let mut reports = Vec::with_capacity(constraint_sets.len());
    for (pass, constraints) in constraint_sets.iter().enumerate() {
        let (pass_log, pass_index) = match &current {
            Some((l, idx)) => (l, idx),
            None => (log, &seed_index),
        };
        let (report, abstracted) = run_pass(pass_log, pass_index, pass, constraints, &configure)?;
        reports.push(report);
        if abstracted.is_some() {
            current = abstracted;
        }
    }
    let (log, index) = current.unwrap_or_else(|| (log.clone(), seed_index));
    Ok(MultiPassResult { log, index, reports })
}

/// One pass of [`run_multipass`] or [`run_fanout`]: [`Gecco::run`] under
/// `constraints` over `log` and its `index`. Returns the pass report and,
/// when the pass was feasible, the abstracted log with its spliced index.
fn run_pass(
    log: &EventLog,
    index: &LogIndex,
    pass: usize,
    constraints: &ConstraintSet,
    configure: &impl for<'b> Fn(Gecco<'b>) -> Gecco<'b>,
) -> Result<(PassReport, Option<(EventLog, LogIndex)>), GeccoError> {
    let outcome =
        configure(Gecco::new(log)).constraints(constraints.clone()).with_index(index).run()?;
    Ok(match outcome {
        Outcome::Abstracted(result) => {
            let report = PassReport {
                pass,
                feasible: true,
                groups: result.grouping().len(),
                distance: result.distance(),
            };
            (report, Some(result.into_log_and_index()))
        }
        Outcome::Infeasible(_) => {
            (PassReport { pass, feasible: false, groups: 0, distance: 0.0 }, None)
        }
    })
}

/// The outcome of one independent branch of a [`run_fanout`] run.
#[derive(Debug)]
pub struct BranchOutcome {
    log: EventLog,
    index: LogIndex,
    report: PassReport,
}

impl BranchOutcome {
    /// The branch's abstracted log (the input log if the branch's
    /// constraint set was infeasible).
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// The branch log's [`LogIndex`] (spliced during abstraction — never
    /// rebuilt).
    pub fn index(&self) -> &LogIndex {
        &self.index
    }

    /// The branch's pass summary; `report().pass` is the index of the
    /// constraint set the branch applied.
    pub fn report(&self) -> &PassReport {
        &self.report
    }

    /// Consumes the branch into its log and index.
    pub fn into_log_and_index(self) -> (EventLog, LogIndex) {
        (self.log, self.index)
    }
}

/// Comparative abstraction — runs one independent pipeline pass per
/// constraint set over the *same* input log and returns every outcome, in
/// constraint-set order. This is the multi-branch counterpart of
/// [`run_multipass`]: the branches share only the input log and its index
/// (built once), so they run through [`par_map`] — on separate cores under
/// the `rayon` feature, bit-identical to serial execution. Use it to
/// compare alternative constraint formulations (e.g. the paper's `DFG∞`
/// vs. session-shaped scenarios) without `N` sequential runs.
///
/// `configure` plays the same role as in [`run_multipass`] and is applied
/// to every branch. An infeasible branch yields the input log unchanged with
/// `report.feasible == false` rather than failing the whole fan-out. The
/// first branch, in constraint-set order, whose constraints do not compile
/// fails the fan-out with its error.
pub fn run_fanout(
    log: &EventLog,
    constraint_sets: &[ConstraintSet],
    configure: impl for<'b> Fn(Gecco<'b>) -> Gecco<'b> + Send + Sync,
) -> Result<Vec<BranchOutcome>, GeccoError> {
    let seed_index = LogIndex::build(log);
    let branches: Vec<(usize, &ConstraintSet)> = constraint_sets.iter().enumerate().collect();
    par_map(&branches, 2, |&(pass, constraints)| {
        let (report, abstracted) = run_pass(log, &seed_index, pass, constraints, &configure)?;
        let (log, index) = abstracted.unwrap_or_else(|| (log.clone(), seed_index.clone()));
        Ok(BranchOutcome { log, index, report })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::BeamWidth;
    use gecco_eventlog::LogBuilder;

    fn running_example() -> EventLog {
        let role_of = |c: &str| match c {
            "acc" | "rej" => "manager",
            _ => "clerk",
        };
        let mut b = LogBuilder::new();
        let traces: &[&[&str]] = &[
            &["rcp", "ckc", "acc", "prio", "inf", "arv"],
            &["rcp", "ckt", "rej", "prio", "arv", "inf"],
            &["rcp", "ckc", "acc", "inf", "arv"],
            &["rcp", "ckc", "rej", "rcp", "ckt", "acc", "prio", "arv", "inf"],
        ];
        for (i, t) in traces.iter().enumerate() {
            let mut tb = b.trace(&format!("σ{}", i + 1));
            for cls in *t {
                tb = tb
                    .event_with(cls, |e| {
                        e.str("org:role", role_of(cls));
                    })
                    .unwrap();
            }
            tb.done();
        }
        b.build()
    }

    fn role_constraint() -> ConstraintSet {
        ConstraintSet::parse("distinct(instance, \"org:role\") <= 1;").unwrap()
    }

    #[test]
    fn end_to_end_running_example_dfg() {
        let log = running_example();
        let outcome = Gecco::new(&log)
            .constraints(role_constraint())
            .candidates(CandidateStrategy::DfgUnbounded)
            .label_by("org:role")
            .run()
            .unwrap();
        let result = outcome.expect_abstracted();
        assert_eq!(result.grouping().len(), 4, "paper: 4 groups");
        assert!((result.distance() - 37.0 / 12.0).abs() < 1e-9, "paper: dist = 3.08");
        assert!(result.proven_optimal());
        assert_eq!(result.activity_names(), &["clerk1", "acc", "clerk2", "rej"]);
        assert_eq!(result.log().format_trace(&result.log().traces()[0]), "⟨clerk1, acc, clerk2⟩");
    }

    #[test]
    fn exhaustive_at_least_as_good_as_dfg() {
        // The complete candidate set can only improve the optimum. On the
        // running example it genuinely does: the six clerk classes co-occur
        // in σ4, so the exhaustive search finds the coarser grouping
        // {all clerk steps}, {acc}, {rej} with dist = 911/360 ≈ 2.53, which
        // no role-pure DFG *path* can reach (every path from the intake
        // block to the closing block passes through acc or rej). This is
        // exactly why the paper scopes Fig. 7's dist = 3.08 as optimal
        // "given all candidates computed … using the DFG-based approach".
        let log = running_example();
        let exh = Gecco::new(&log)
            .constraints(role_constraint())
            .candidates(CandidateStrategy::Exhaustive)
            .run()
            .unwrap()
            .expect_abstracted();
        let dfg = Gecco::new(&log)
            .constraints(role_constraint())
            .candidates(CandidateStrategy::DfgUnbounded)
            .run()
            .unwrap()
            .expect_abstracted();
        assert!((dfg.distance() - 37.0 / 12.0).abs() < 1e-9);
        assert!(exh.distance() <= dfg.distance() + 1e-9);
        // The exhaustive optimum is strictly better (≈ 1.76: it may even
        // merge acc/rej, which co-occur in σ4's retry round — only the
        // DFG-path restriction keeps the manager decisions separate).
        assert!(exh.distance() < 2.0, "got {}", exh.distance());
        assert!(exh.grouping().is_exact_cover(&log));
    }

    #[test]
    fn beam_configuration_still_feasible() {
        let log = running_example();
        let out = Gecco::new(&log)
            .constraints(role_constraint())
            .candidates(CandidateStrategy::DfgBeam { k: BeamWidth::PerClass(5) })
            .run()
            .unwrap()
            .expect_abstracted();
        assert!(out.grouping().is_exact_cover(&log));
        // Beam k = 5·|C_L| is generous enough here to find the optimum too.
        assert!((out.distance() - 37.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_constraints_report_causes() {
        let log = running_example();
        // At least two groups of at least 5 classes each needs ≥ 10
        // classes, but the log has 8: structurally infeasible.
        let constraints = ConstraintSet::parse("size(g) >= 5; groups >= 2;").unwrap();
        let outcome = Gecco::new(&log).constraints(constraints).run().unwrap();
        match outcome {
            Outcome::Infeasible(rep) => {
                assert!(rep.summary.contains("no feasible grouping"));
                assert!(!rep.diagnostics.is_empty(), "singletons violate min-size");
            }
            Outcome::Abstracted(_) => panic!("expected infeasible"),
        }
    }

    fn colgen_on() -> SelectionOptions {
        SelectionOptions {
            column_generation: crate::selection::ColGenMode::On,
            ..SelectionOptions::default()
        }
    }

    /// Counts the Step-1 iterations a run reports.
    struct CountIterations(usize);

    impl IterationObserver for CountIterations {
        fn iteration(&mut self, _: usize, _: &[(crate::candidates::dfg::Path, bool)]) {
            self.0 += 1;
        }
    }

    #[test]
    fn lazy_route_runs_no_step_one() {
        let log = running_example();
        let mut observer = CountIterations(0);
        let result = Gecco::new(&log)
            .constraints(role_constraint())
            .selection(colgen_on())
            .run_observed(&mut observer)
            .unwrap()
            .expect_abstracted();
        // The run is exactly column generation from a fresh oracle.
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let compiled =
            CompiledConstraintSet::compile_with(&role_constraint(), &log, Segmenter::RepeatSplit)
                .unwrap();
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let direct = select_optimal_colgen(
            &log,
            &compiled,
            &oracle,
            compiled.group_count_bounds(),
            colgen_on(),
        )
        .unwrap();
        assert_eq!(result.grouping(), &direct.grouping);
        assert_eq!(result.distance().to_bits(), direct.distance.to_bits());
        assert_eq!(result.proven_optimal(), direct.proven_optimal);
        // And nothing of Step 1 ran.
        assert_eq!(result.candidate_stats(), &crate::candidates::CandidateStats::default());
        assert_eq!(result.timings().candidates, Duration::ZERO);
        assert_eq!(observer.0, 0, "the observer saw Step-1 iterations");
    }

    #[test]
    fn lazy_route_reports_infeasibility() {
        let log = running_example();
        let constraints = ConstraintSet::parse("size(g) >= 5; groups >= 2;").unwrap();
        let outcome =
            Gecco::new(&log).constraints(constraints).selection(colgen_on()).run().unwrap();
        match outcome {
            Outcome::Infeasible(rep) => {
                assert!(
                    rep.summary.starts_with(
                        "no feasible grouping: column generation found no exact cover of the \
                         implicit candidate pool."
                    ),
                    "{}",
                    rep.summary
                );
                assert_eq!(rep.candidate_stats, crate::candidates::CandidateStats::default());
                assert!(!rep.diagnostics.is_empty(), "singletons violate min-size");
            }
            Outcome::Abstracted(_) => panic!("expected infeasible"),
        }
    }

    #[test]
    fn grouping_constraints_bound_selection() {
        let log = running_example();
        let constraints = ConstraintSet::parse("groups >= 6;").unwrap();
        let out = Gecco::new(&log).constraints(constraints).run().unwrap().expect_abstracted();
        assert!(out.grouping().len() >= 6);
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let log = running_example();
        let constraints = ConstraintSet::parse("sum(\"no_such\") <= 1;").unwrap();
        let err = Gecco::new(&log).constraints(constraints).run().unwrap_err();
        assert!(matches!(err, GeccoError::Compile(_)));
        assert!(err.to_string().contains("no_such"));
    }

    #[test]
    fn result_index_matches_full_rebuild() {
        let log = running_example();
        let result =
            Gecco::new(&log).constraints(role_constraint()).run().unwrap().expect_abstracted();
        assert_eq!(result.index(), &LogIndex::build(result.log()));
        assert!(result.index().validate(result.log()).is_ok());
    }

    #[test]
    fn multipass_chains_spliced_indexes() {
        let log = running_example();
        let sets = vec![role_constraint(), ConstraintSet::parse("size(g) <= 2;").unwrap()];
        let out = run_multipass(&log, &sets, |g| g.label_by("org:role")).unwrap();
        assert_eq!(out.reports().len(), 2);
        assert!(out.reports()[0].feasible && out.reports()[1].feasible);
        // The index handed out of the last pass is bit-identical to a
        // from-scratch rebuild of the final log.
        assert_eq!(out.index(), &LogIndex::build(out.log()));
        // And the loop matches chaining two runs by hand.
        let first = Gecco::new(&log)
            .constraints(role_constraint())
            .label_by("org:role")
            .run()
            .unwrap()
            .expect_abstracted();
        let (mid_log, mid_index) = first.into_log_and_index();
        let second = Gecco::new(&mid_log)
            .constraints(sets[1].clone())
            .with_index(&mid_index)
            .label_by("org:role")
            .run()
            .unwrap()
            .expect_abstracted();
        assert_eq!(out.log().traces().len(), second.log().traces().len());
        for (a, b) in out.log().traces().iter().zip(second.log().traces()) {
            assert_eq!(out.log().format_trace(a), second.log().format_trace(b));
        }
    }

    #[test]
    fn multipass_skips_infeasible_passes() {
        let log = running_example();
        let sets =
            vec![ConstraintSet::parse("size(g) >= 5; groups >= 2;").unwrap(), role_constraint()];
        let out = run_multipass(&log, &sets, |g| g).unwrap();
        assert!(!out.reports()[0].feasible, "structurally infeasible pass is recorded");
        assert!(out.reports()[1].feasible, "the run continues over the unchanged log");
        assert_eq!(out.reports()[1].groups, 4);
        assert_eq!(out.index(), &LogIndex::build(out.log()));
    }

    #[test]
    fn multipass_without_sets_returns_the_input() {
        let log = running_example();
        let out = run_multipass(&log, &[], |g| g).unwrap();
        assert!(out.reports().is_empty());
        assert_eq!(out.log().traces().len(), log.traces().len());
        assert_eq!(out.index(), &LogIndex::build(out.log()));
    }

    #[test]
    fn timings_are_recorded() {
        let log = running_example();
        let out =
            Gecco::new(&log).constraints(role_constraint()).run().unwrap().expect_abstracted();
        assert!(out.timings().total() > Duration::ZERO);
    }

    #[test]
    fn disabling_exclusive_merging_changes_result() {
        let log = running_example();
        let with =
            Gecco::new(&log).constraints(role_constraint()).run().unwrap().expect_abstracted();
        let without = Gecco::new(&log)
            .constraints(role_constraint())
            .merge_exclusive(false)
            .run()
            .unwrap()
            .expect_abstracted();
        // Without Algorithm 3 the ckc/ckt alternatives cannot merge, so the
        // optimum is strictly worse.
        assert!(without.distance() > with.distance() + 1e-9);
    }

    /// Renders every trace of `log` — the strictest cheap log fingerprint.
    fn formatted(log: &EventLog) -> Vec<String> {
        log.traces().iter().map(|t| log.format_trace(t)).collect()
    }

    #[test]
    fn fanout_branches_match_independent_runs() {
        let log = running_example();
        let sets = vec![
            role_constraint(),
            ConstraintSet::parse("size(g) <= 2;").unwrap(),
            ConstraintSet::parse("size(g) >= 5; groups >= 2;").unwrap(), // infeasible
        ];
        let branches = run_fanout(&log, &sets, |g| g.label_by("org:role")).unwrap();
        assert_eq!(branches.len(), 3);
        for (i, branch) in branches.iter().enumerate() {
            assert_eq!(branch.report().pass, i);
            let single = run_multipass(&log, &sets[i..i + 1], |g| g.label_by("org:role")).unwrap();
            assert_eq!(branch.report().feasible, single.reports()[0].feasible);
            assert_eq!(branch.report().distance.to_bits(), single.reports()[0].distance.to_bits());
            assert_eq!(formatted(branch.log()), formatted(single.log()));
            assert_eq!(branch.index(), single.index());
        }
        assert!(!branches[2].report().feasible);
        assert_eq!(
            formatted(branches[2].log()),
            formatted(&log),
            "infeasible branch passes through"
        );
    }
}
