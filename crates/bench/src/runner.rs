//! Running abstraction problems and computing the paper's measures.

use gecco_constraints::ConstraintSet;
use gecco_core::{
    abstraction::{abstract_log, activity_names},
    AbstractionStrategy, Budget, CandidateStrategy, Gecco, Grouping, Outcome, SelectionOptions,
};
use gecco_discovery::DiscoveryOptions;
use gecco_eventlog::{ClassSet, EvalContext, EventLog, LogIndex, Segmenter};
use gecco_metrics::{complexity_reduction, silhouette_coefficient, size_reduction, ClassDistances};
use std::time::Instant;

/// Shared per-log evaluation state for a *series* of abstraction problems:
/// the log and its occurrence index, built once.
///
/// The evaluation harness runs the same log under up to ten constraint
/// sets (Tables V–VII), so sharing one session avoids re-indexing the log
/// per set. Every run still checks its candidates afresh: nothing the
/// session holds grows with the groups those runs touch.
#[derive(Debug)]
pub struct LogSession<'a> {
    log: &'a EventLog,
    index: LogIndex,
}

impl<'a> LogSession<'a> {
    /// Indexes `log`.
    pub fn new(log: &'a EventLog) -> LogSession<'a> {
        LogSession { log, index: LogIndex::build(log) }
    }

    /// Starts a session over a log whose index already exists — e.g. the
    /// spliced index returned by an abstraction pass
    /// (`AbstractionResult::into_log_and_index`) — skipping the rebuild.
    pub fn with_index(log: &'a EventLog, index: LogIndex) -> LogSession<'a> {
        LogSession { log, index }
    }

    /// The session's log.
    pub fn log(&self) -> &'a EventLog {
        self.log
    }

    /// An evaluation context over the session's log and index.
    pub fn context(&self) -> EvalContext<'_> {
        EvalContext::new(self.log, &self.index)
    }
}

/// Number of classes that actually occur in traces.
pub fn occurring_class_count(log: &EventLog) -> usize {
    gecco_core::grouping::occurring_classes(log).len()
}

/// One problem's results: the columns of Tables V–VII.
#[derive(Debug, Clone)]
pub struct ProblemOutcome {
    /// Whether a feasible grouping was found.
    pub solved: bool,
    /// `1 − |G|/|C_L|`.
    pub s_red: f64,
    /// `1 − CFC(L')/CFC(L)`.
    pub c_red: f64,
    /// Silhouette coefficient of the grouping.
    pub sil: f64,
    /// Wall-clock seconds for the full pipeline.
    pub seconds: f64,
    /// Number of groups in the grouping (0 when unsolved).
    pub groups: usize,
}

/// Shared run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Step-1 strategy.
    pub strategy: CandidateStrategy,
    /// Step-1 budget (mirrors the paper's candidate-computation timeout).
    pub budget: Budget,
    /// Step-2 node budget.
    pub selection_nodes: usize,
    /// Step-2 presolve + component decomposition (on by default; off is
    /// the seed single-solve path, kept for ablation).
    pub presolve: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            strategy: CandidateStrategy::Exhaustive,
            budget: Budget::max_checks(10_000),
            selection_nodes: 2_000_000,
            presolve: true,
        }
    }
}

/// Runs GECCO on `(log, dsl)` and measures the outcome. `Err` means the
/// constraints do not apply to this log (e.g. BL3 without class attributes).
///
/// Builds a throwaway [`LogSession`]; callers evaluating several
/// constraint sets over one log should build the session once and use
/// [`run_gecco_shared`].
pub fn run_gecco(log: &EventLog, dsl: &str, config: RunConfig) -> Result<ProblemOutcome, String> {
    let session = LogSession::new(log);
    run_gecco_shared(&session, dsl, config)
}

/// Like [`run_gecco`], but reuses a [`LogSession`], so the log index is
/// built once per log rather than once per constraint set.
///
/// Both entry points call [`Gecco::run`].
pub fn run_gecco_shared(
    session: &LogSession<'_>,
    dsl: &str,
    config: RunConfig,
) -> Result<ProblemOutcome, String> {
    let log = session.log();
    let constraints = ConstraintSet::parse(dsl).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let outcome = Gecco::new(log)
        .constraints(constraints)
        .candidates(config.strategy)
        .budget(config.budget)
        .selection(SelectionOptions {
            max_nodes: config.selection_nodes,
            presolve: config.presolve,
            ..Default::default()
        })
        .with_index(&session.index)
        .run()
        .map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    match outcome {
        Outcome::Abstracted(result) => {
            let (s_red, c_red, sil) = grouping_measures(log, result.grouping(), result.log());
            Ok(ProblemOutcome {
                solved: true,
                s_red,
                c_red,
                sil,
                seconds,
                groups: result.grouping().len(),
            })
        }
        Outcome::Infeasible(_) => Ok(ProblemOutcome {
            solved: false,
            s_red: 0.0,
            c_red: 0.0,
            sil: 0.0,
            seconds,
            groups: 0,
        }),
    }
}

/// Measures a grouping produced by a baseline (which bypasses the
/// pipeline): abstracts the log itself, then computes the measure triple.
///
/// Builds a throwaway index; callers that already hold an [`EvalContext`]
/// over the log should use [`evaluate_grouping_in`].
pub fn evaluate_grouping(log: &EventLog, groups: &[ClassSet]) -> (f64, f64, f64) {
    let index = LogIndex::build(log);
    let ctx = EvalContext::new(log, &index);
    evaluate_grouping_in(&ctx, groups)
}

/// Like [`evaluate_grouping`], but reuses an existing evaluation context —
/// the baseline runners (table VII) already hold one for their candidate
/// phase, so the log is not re-indexed just to measure the outcome.
pub fn evaluate_grouping_in(ctx: &EvalContext<'_>, groups: &[ClassSet]) -> (f64, f64, f64) {
    let log = ctx.log();
    let grouping = Grouping::new(groups.to_vec());
    let names = activity_names(log, &grouping, Some("org:role"));
    let (abstracted, _spliced) = abstract_log(
        ctx,
        &grouping,
        &names,
        AbstractionStrategy::Completion,
        Segmenter::RepeatSplit,
    );
    grouping_measures(log, &grouping, &abstracted)
}

fn grouping_measures(
    log: &EventLog,
    grouping: &Grouping,
    abstracted: &EventLog,
) -> (f64, f64, f64) {
    let s_red = size_reduction(grouping.len(), occurring_class_count(log));
    let c_red = complexity_reduction(log, abstracted, DiscoveryOptions::default());
    let distances = ClassDistances::compute(log);
    let sil = silhouette_coefficient(&distances, grouping.groups());
    (s_red, c_red, sil)
}

/// Mean measures over a series of problems, averaged over *solved* ones as
/// the paper does; `solved` is the fraction of solved problems.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Fraction of solved problems.
    pub solved: f64,
    /// Mean size reduction over solved problems.
    pub s_red: f64,
    /// Mean complexity reduction over solved problems.
    pub c_red: f64,
    /// Mean silhouette over solved problems.
    pub sil: f64,
    /// Mean runtime over solved problems (seconds).
    pub seconds: f64,
    /// Number of problems aggregated.
    pub problems: usize,
}

impl Aggregate {
    /// Aggregates outcomes (paper style: measures averaged over solved).
    pub fn from_outcomes(outcomes: &[ProblemOutcome]) -> Aggregate {
        let problems = outcomes.len();
        if problems == 0 {
            return Aggregate::default();
        }
        let solved: Vec<&ProblemOutcome> = outcomes.iter().filter(|o| o.solved).collect();
        let n = solved.len().max(1) as f64;
        Aggregate {
            solved: solved.len() as f64 / problems as f64,
            s_red: solved.iter().map(|o| o.s_red).sum::<f64>() / n,
            c_red: solved.iter().map(|o| o.c_red).sum::<f64>() / n,
            sil: solved.iter().map(|o| o.sil).sum::<f64>() / n,
            seconds: solved.iter().map(|o| o.seconds).sum::<f64>() / n,
            problems,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecco_datagen::running_example;

    #[test]
    fn run_gecco_measures_running_example() {
        let log = running_example();
        let out = run_gecco(
            &log,
            "size(g) <= 8; distinct(instance, \"org:role\") <= 1;",
            RunConfig { strategy: CandidateStrategy::DfgUnbounded, ..Default::default() },
        )
        .unwrap();
        assert!(out.solved);
        assert_eq!(out.groups, 4);
        assert!((out.s_red - 0.5).abs() < 1e-9, "8 classes → 4 groups");
        assert!(out.c_red > 0.0, "abstraction must simplify the model");
        assert!(out.seconds >= 0.0);
    }

    #[test]
    fn shared_session_matches_isolated_runs() {
        let log = running_example();
        let session = LogSession::new(&log);
        let config = RunConfig { strategy: CandidateStrategy::DfgUnbounded, ..Default::default() };
        let a =
            run_gecco_shared(&session, "distinct(instance, \"org:role\") <= 1;", config).unwrap();
        // A second constraint set over the same session.
        let b = run_gecco_shared(
            &session,
            "size(g) <= 8; distinct(instance, \"org:role\") <= 1;",
            config,
        )
        .unwrap();
        assert!(a.solved && b.solved);
        // Re-running the same specification over the session gives the
        // same groups.
        let a2 =
            run_gecco_shared(&session, "distinct(instance, \"org:role\") <= 1;", config).unwrap();
        assert_eq!(a2.groups, a.groups);
        // Shared-session outcomes match isolated runs.
        let isolated = run_gecco(&log, "distinct(instance, \"org:role\") <= 1;", config).unwrap();
        assert_eq!(a.groups, isolated.groups);
        assert!((a.s_red - isolated.s_red).abs() < 1e-12);
        assert!((a.sil - isolated.sil).abs() < 1e-12);
    }

    #[test]
    fn session_over_abstracted_log_reuses_spliced_index() {
        let log = running_example();
        let result = Gecco::new(&log)
            .constraints(ConstraintSet::parse("distinct(instance, \"org:role\") <= 1;").unwrap())
            .run()
            .unwrap()
            .expect_abstracted();
        // Re-abstraction session seeded by Step 3's spliced index: no
        // LogIndex::build for the abstracted log.
        let (abstracted, index) = result.into_log_and_index();
        let session = LogSession::with_index(&abstracted, index);
        let config = RunConfig { strategy: CandidateStrategy::DfgUnbounded, ..Default::default() };
        let out = run_gecco_shared(&session, "size(g) <= 2;", config).unwrap();
        assert!(out.solved);
    }

    #[test]
    fn infeasible_is_reported_not_crashed() {
        let log = running_example();
        let out = run_gecco(&log, "size(g) >= 5; groups >= 2;", RunConfig::default()).unwrap();
        assert!(!out.solved);
        assert_eq!(out.groups, 0);
    }

    #[test]
    fn aggregate_averages_over_solved() {
        let outcomes = vec![
            ProblemOutcome {
                solved: true,
                s_red: 0.6,
                c_red: 0.4,
                sil: 0.2,
                seconds: 1.0,
                groups: 3,
            },
            ProblemOutcome {
                solved: false,
                s_red: 0.0,
                c_red: 0.0,
                sil: 0.0,
                seconds: 9.0,
                groups: 0,
            },
            ProblemOutcome {
                solved: true,
                s_red: 0.4,
                c_red: 0.2,
                sil: 0.0,
                seconds: 3.0,
                groups: 5,
            },
        ];
        let agg = Aggregate::from_outcomes(&outcomes);
        assert!((agg.solved - 2.0 / 3.0).abs() < 1e-12);
        assert!((agg.s_red - 0.5).abs() < 1e-12);
        assert!((agg.seconds - 2.0).abs() < 1e-12, "unsolved runtimes excluded");
    }

    #[test]
    fn evaluate_grouping_matches_pipeline_measures() {
        let log = running_example();
        let set = |names: &[&str]| -> ClassSet {
            names.iter().map(|n| log.class_by_name(n).unwrap()).collect()
        };
        let groups = vec![
            set(&["rcp", "ckc", "ckt"]),
            set(&["acc"]),
            set(&["rej"]),
            set(&["prio", "inf", "arv"]),
        ];
        let (s_red, _c_red, sil) = evaluate_grouping(&log, &groups);
        assert!((s_red - 0.5).abs() < 1e-9);
        assert!(sil > -1.0 && sil < 1.0);
    }
}
