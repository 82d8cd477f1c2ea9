//! Candidate-group computation (Step 1 of GECCO, §V-B).

pub mod dfg;
pub mod exclusive;
pub mod exhaustive;
pub mod session;

use crate::distance::DistanceMemo;
use gecco_constraints::{CheckingMode, CompiledConstraintSet};
use gecco_eventlog::{parallel, ClassSet, EvalContext};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Which Step-1 instantiation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateStrategy {
    /// Algorithm 1: complete level-wise enumeration (configuration `Exh`).
    Exhaustive,
    /// Algorithm 2 with unlimited beam width (configuration `DFG∞`).
    DfgUnbounded,
    /// Algorithm 2 with a beam (configuration `DFGk`).
    DfgBeam {
        /// The beam width `k`.
        k: BeamWidth,
    },
}

/// Beam width for the DFG-based search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeamWidth {
    /// A fixed number of paths per iteration.
    Fixed(usize),
    /// `factor · |C_L|` paths, the paper's adaptive choice (`k = 5·|C_L|`).
    PerClass(usize),
}

impl BeamWidth {
    /// Resolves the width for a log with `num_classes` event classes.
    pub fn resolve(self, num_classes: usize) -> usize {
        match self {
            BeamWidth::Fixed(k) => k.max(1),
            BeamWidth::PerClass(f) => (f * num_classes).max(1),
        }
    }
}

/// Search budget for candidate computation, mirroring the paper's 5-hour
/// timeout after which GECCO "continues with the candidates identified so
/// far".
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Maximum number of constraint-checked groups.
    pub max_checks: Option<usize>,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// No limits.
    pub const UNLIMITED: Budget = Budget { max_checks: None, deadline: None };

    /// A budget bounded by the number of checked candidates.
    pub fn max_checks(n: usize) -> Budget {
        Budget { max_checks: Some(n), deadline: None }
    }

    /// A wall-clock budget from now.
    pub fn timeout(duration: std::time::Duration) -> Budget {
        // gecco-lint: allow(ambient-nondet) — a wall-clock budget is wall-clock by definition;
        // the no-budget path is bit-identical and is what the paper pins assert against
        Budget { max_checks: None, deadline: Some(Instant::now() + duration) }
    }

    /// Whether the budget is exhausted after `checks` candidate checks.
    pub fn exhausted(&self, checks: usize) -> bool {
        if self.max_checks.is_some_and(|m| checks >= m) {
            return true;
        }
        // Only consult the clock periodically; `Instant::now` is not free.
        if checks.is_multiple_of(256) {
            if let Some(d) = self.deadline {
                // gecco-lint: allow(ambient-nondet) — deadline check; results under a timeout
                // are explicitly time-dependent (that is the contract of Budget::timeout)
                return Instant::now() >= d;
            }
        }
        false
    }
}

/// Statistics about one candidate-computation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandidateStats {
    /// Groups whose constraints were actually evaluated.
    pub checked: usize,
    /// Groups admitted to the candidate set.
    pub satisfied: usize,
    /// Groups admitted via the monotonic subset shortcut without a check.
    pub monotonic_shortcuts: usize,
    /// Expansion products rejected because they do not co-occur in any trace.
    pub pruned_non_occurring: usize,
    /// Expansion products rejected by the co-occurrence sketches before
    /// the exact occurrence test ran (a subset of the non-occurring:
    /// sketch rejection is one-sided, so these never include a group that
    /// actually co-occurs).
    pub pruned_by_sketch: usize,
    /// Level-wise / beam iterations executed.
    pub iterations: usize,
    /// Whether the budget ran out before completion.
    pub budget_exhausted: bool,
    /// Additional candidates contributed by exclusive-alternative merging
    /// (Algorithm 3).
    pub exclusive_candidates: usize,
}

impl CandidateStats {
    /// Adds `other`'s counters to these field by field (`budget_exhausted`
    /// ORs) — how a union of candidate sets reports its sources.
    fn accumulate(&mut self, other: &CandidateStats) {
        // Destructured without `..`: a new field must be added here.
        let CandidateStats {
            checked,
            satisfied,
            monotonic_shortcuts,
            pruned_non_occurring,
            pruned_by_sketch,
            iterations,
            budget_exhausted,
            exclusive_candidates,
        } = other;
        self.checked += checked;
        self.satisfied += satisfied;
        self.monotonic_shortcuts += monotonic_shortcuts;
        self.pruned_non_occurring += pruned_non_occurring;
        self.pruned_by_sketch += pruned_by_sketch;
        self.iterations += iterations;
        self.budget_exhausted |= budget_exhausted;
        self.exclusive_candidates += exclusive_candidates;
    }
}

/// Constraint verdicts pre-evaluated in parallel for one enumeration level.
///
/// Which entries of a level the serial loops of Algorithms 1/2 actually
/// check is decided by budget and shortcut bookkeeping alone — never by a
/// check's outcome — so the checks can be evaluated up front, fanned out
/// over all cores, and the loop replayed against the stored verdicts with
/// bit-identical results and statistics.
#[derive(Debug, Default)]
pub(crate) struct PreevaluatedChecks {
    /// `group -> holds(group)` for every group the replay will check.
    holds: HashMap<ClassSet, bool>,
    /// `group -> holds_anti_monotonic(group)` for non-holding groups in
    /// anti-monotonic mode (the expansion gate's second question).
    anti: HashMap<ClassSet, bool>,
}

impl PreevaluatedChecks {
    /// Evaluates, in parallel, every constraint check the serial loop would
    /// perform on `entries` (each `(group, has_satisfied_subset)`), given
    /// `touched` budget units already consumed. Each chunk worker rebuilds
    /// a private [`EvalContext`] (its own scratch buffers) from the shared
    /// parts of `ctx`. Returns `None` when only one worker is available —
    /// callers then check inline as before.
    pub(crate) fn evaluate(
        ctx: &EvalContext<'_>,
        constraints: &CompiledConstraintSet,
        entries: impl Iterator<Item = (ClassSet, bool)>,
        budget: Budget,
        mut touched: usize,
    ) -> Option<Self> {
        if parallel::worker_count() <= 1 {
            return None;
        }
        let mode = constraints.mode();
        // Replay the loop's bookkeeping without performing any check, to
        // learn which groups will be checked before the budget runs out.
        let mut need: Vec<ClassSet> = Vec::new();
        let mut seen: HashSet<ClassSet> = HashSet::new();
        for (group, has_satisfied_subset) in entries {
            if budget.exhausted(touched) {
                break;
            }
            touched += 1;
            if mode == CheckingMode::Monotonic && has_satisfied_subset {
                continue; // shortcut: admitted without a check
            }
            if seen.insert(group) {
                need.push(group);
            }
        }
        let parts = ctx.parts();
        let verdicts = parallel::par_map_scoped(
            &need,
            2,
            || parts.context(),
            |worker_ctx, g| constraints.holds(g, worker_ctx),
        );
        let anti_need: Vec<ClassSet> = if mode == CheckingMode::AntiMonotonic {
            need.iter().zip(&verdicts).filter(|(_, &holds)| !holds).map(|(g, _)| *g).collect()
        } else {
            Vec::new()
        };
        let anti_verdicts = parallel::par_map_scoped(
            &anti_need,
            2,
            || parts.context(),
            |worker_ctx, g| constraints.holds_anti_monotonic(g, worker_ctx),
        );
        Some(PreevaluatedChecks {
            holds: need.into_iter().zip(verdicts).collect(),
            anti: anti_need.into_iter().zip(anti_verdicts).collect(),
        })
    }

    /// The stored `holds` verdict, falling back to an inline check.
    pub(crate) fn holds(
        &self,
        group: &ClassSet,
        ctx: &EvalContext<'_>,
        constraints: &CompiledConstraintSet,
    ) -> bool {
        self.holds.get(group).copied().unwrap_or_else(|| constraints.holds(group, ctx))
    }

    /// The stored anti-monotonic verdict, falling back to an inline check.
    pub(crate) fn holds_anti_monotonic(
        &self,
        group: &ClassSet,
        ctx: &EvalContext<'_>,
        constraints: &CompiledConstraintSet,
    ) -> bool {
        self.anti
            .get(group)
            .copied()
            .unwrap_or_else(|| constraints.holds_anti_monotonic(group, ctx))
    }
}

/// The output of Step 1: a deduplicated set of constraint-satisfying groups.
///
/// It may carry the distances Step 1 scored on the way (Algorithm 2 sorts
/// its frontier by `dist`), so that Step 2 scores only the groups Step 1
/// never saw. Like the groups themselves, that memo is meaningful only for
/// the log the set was computed from.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    groups: Vec<ClassSet>,
    index: HashSet<ClassSet>,
    distances: Option<DistanceMemo>,
    /// Run statistics.
    pub stats: CandidateStats,
}

impl CandidateSet {
    /// An empty candidate set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a group; returns whether it was new.
    pub fn insert(&mut self, group: ClassSet) -> bool {
        if self.index.insert(group) {
            self.groups.push(group);
            true
        } else {
            false
        }
    }

    /// Whether `group` is already a candidate.
    pub fn contains(&self, group: &ClassSet) -> bool {
        self.index.contains(group)
    }

    /// The candidate groups in insertion order.
    pub fn groups(&self) -> &[ClassSet] {
        &self.groups
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no candidate was found.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The distances scored while the set was computed, if any; seed
    /// Step 2's oracle with them ([`crate::DistanceOracle::seeded`]).
    pub fn distances(&self) -> Option<&DistanceMemo> {
        self.distances.as_ref()
    }

    /// Adds `other` to this set: its groups in order (a group already
    /// present keeps its place), its statistics field by field, and its
    /// distances into this set's memo ([`DistanceMemo::merge`]). This is
    /// how a second candidate source, such as
    /// [`session::session_candidates`], joins the DFG or exhaustive
    /// candidates before Step 2. Both sets must come from the same log.
    pub fn union(&mut self, other: &CandidateSet) {
        for &group in other.groups() {
            self.insert(group);
        }
        self.stats.accumulate(&other.stats);
        if let Some(memo) = other.distances() {
            match &mut self.distances {
                Some(own) => own.merge(memo),
                None => self.distances = Some(memo.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecco_eventlog::ClassId;

    #[test]
    fn beam_width_resolution() {
        assert_eq!(BeamWidth::Fixed(10).resolve(100), 10);
        assert_eq!(BeamWidth::Fixed(0).resolve(100), 1);
        assert_eq!(BeamWidth::PerClass(5).resolve(8), 40);
        assert_eq!(BeamWidth::PerClass(0).resolve(8), 1);
    }

    #[test]
    fn budget_limits_checks() {
        let b = Budget::max_checks(10);
        assert!(!b.exhausted(9));
        assert!(b.exhausted(10));
        assert!(!Budget::UNLIMITED.exhausted(usize::MAX - 1));
    }

    #[test]
    fn budget_deadline() {
        let b = Budget::timeout(std::time::Duration::from_secs(0));
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(b.exhausted(0), "deadline checks happen on multiples of 256 (incl. 0)");
    }

    #[test]
    fn stats_accumulate_every_field() {
        let one = CandidateStats {
            checked: 1,
            satisfied: 2,
            monotonic_shortcuts: 3,
            pruned_non_occurring: 4,
            pruned_by_sketch: 5,
            iterations: 6,
            budget_exhausted: true,
            exclusive_candidates: 7,
        };
        let mut sum = CandidateStats::default();
        sum.accumulate(&one);
        assert_eq!(sum, one);
        sum.accumulate(&one);
        assert_eq!(sum.pruned_by_sketch, 10);
        assert!(sum.budget_exhausted);
    }

    /// A union into an empty set must report exactly its source: the same
    /// groups, every statistics field (`pruned_by_sketch` included) and
    /// the same memo.
    #[test]
    fn union_of_one_source_equals_the_source() {
        use gecco_constraints::ConstraintSet;
        use gecco_eventlog::{LogBuilder, LogIndex};
        let mut b = LogBuilder::new();
        for (case, trace) in [("c1", ["a", "b"]), ("c2", ["b", "c"]), ("c3", ["a", "c"])] {
            b.trace(case).event(trace[0]).unwrap().event(trace[1]).unwrap().done();
        }
        let log = b.build();
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let compiled = CompiledConstraintSet::compile(&ConstraintSet::new(), &log).unwrap();
        let exhaustive = exhaustive::exhaustive_candidates(&ctx, &compiled, Budget::UNLIMITED);
        // The sketch rejects {a, b, c}, which no trace holds.
        assert!(exhaustive.stats.pruned_by_sketch > 0);
        let dfg =
            dfg::dfg_candidates(&ctx, &compiled, None, Budget::UNLIMITED, &mut dfg::NoObserver);
        assert!(dfg.distances().is_some());
        for source in [exhaustive, dfg] {
            let mut union = CandidateSet::new();
            union.union(&source);
            assert_eq!(union.stats, source.stats);
            assert_eq!(union.groups(), source.groups());
            assert_eq!(union.distances(), source.distances());
        }
    }

    #[test]
    fn candidate_set_dedupes() {
        let mut cs = CandidateSet::new();
        let g = ClassSet::singleton(ClassId(1));
        assert!(cs.insert(g));
        assert!(!cs.insert(g));
        assert!(cs.contains(&g));
        assert_eq!(cs.len(), 1);
    }
}
