//! Step 2: finding an optimal grouping (§V-C).
//!
//! Builds the bipartite candidate/class graph of Figure 7 and solves the
//! MIP of Eqs. 3–5: select a minimum-distance subset of candidates covering
//! every occurring event class exactly once, optionally bounding the number
//! of selected groups.
//!
//! By default the solve routes through [`mod@gecco_solver::presolve`]:
//! duplicate candidates collapse, classes covered by a single candidate
//! are fixed, dominated candidates disappear, and the residual
//! candidate/class graph decomposes into connected components that solve
//! independently — in parallel under the `rayon` feature, with results
//! bit-identical to the serial order (components assemble in a fixed
//! order and the final distance is recomputed canonically). The
//! un-presolved single solve stays available (`presolve: false`) as the
//! oracle for differential tests.

use crate::distance::DistanceOracle;
use crate::grouping::{occurring_classes, Grouping};
use gecco_constraints::{CheckingMode, CompiledConstraintSet};
use gecco_eventlog::parallel::par_map;
use gecco_eventlog::{ClassCoOccurrence, ClassId, ClassSet, EventLog};
use gecco_solver::{
    presolve, solve_column_generation, ColGenOptions, ColGenStats, ColumnSource, DualPrices,
    MasterEngine, PresolveOptions, PresolveOutcome, PresolveStats, PricingRequest,
    SetPartitionProblem, SetPartitionSolution, SolveEngine,
};
use std::collections::{HashMap, HashSet};

/// When Step 2 routes through column generation
/// ([`select_optimal_colgen`]) instead of the enumerated solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ColGenMode {
    /// Never: always the enumerated presolved route (the default — it is
    /// the differential oracle and the right choice for enumerable pools).
    #[default]
    Off,
    /// Always: price candidates lazily out of the implicit pool.
    On,
    /// Decide per run from a cheap sketch-driven pool estimate:
    /// [`ClassCoOccurrence::estimate_pool`] counts cliques of the exact
    /// pairwise co-occurrence graph (an upper bound on the enumerable
    /// pool — every occurring group is such a clique) with an early exit
    /// at [`AUTO_COLGEN_BUDGET`]. Below the budget, enumeration is proven
    /// small and the enumerated route runs; at the budget, the pool may be
    /// huge and column generation runs.
    Auto,
}

/// Options for the selection step.
#[derive(Debug, Clone, Copy)]
pub struct SelectionOptions {
    /// Which solver backend to use.
    pub engine: SolveEngine,
    /// Search budget (0 = backend default). With presolve on, the budget
    /// applies to each independent component rather than globally.
    pub max_nodes: usize,
    /// Route through presolve + component decomposition (the default).
    /// `false` is the seed single-solve path, kept as the oracle for
    /// differential tests and ablation benchmarks.
    pub presolve: bool,
    /// Solve Step 2 by column generation over the *implicit* candidate
    /// pool instead of enumerating it first ([`select_optimal_colgen`]):
    /// candidate groups are generated on demand by a pricing search driven
    /// by LP duals, so pools far past enumerable size stay solvable. The
    /// enumerated presolved route remains the differential oracle.
    pub column_generation: ColGenMode,
    /// Master LP engine for the column-generation route (default: the
    /// incremental revised simplex; the dense tableau rebuild is the
    /// differential oracle).
    pub colgen_master: MasterEngine,
}

impl Default for SelectionOptions {
    fn default() -> Self {
        SelectionOptions {
            engine: SolveEngine::default(),
            max_nodes: 0,
            presolve: true,
            column_generation: ColGenMode::default(),
            colgen_master: MasterEngine::default(),
        }
    }
}

/// Pool-size budget of [`ColGenMode::Auto`]: when the sketch-driven clique
/// estimate reaches this many groups, the run switches to column
/// generation.
pub const AUTO_COLGEN_BUDGET: usize = 50_000;

/// Resolves `options.column_generation` for a concrete log: `On`/`Off`
/// are literal, `Auto` consults the co-occurrence sketch (one cheap pass
/// over the postings) and flips column generation on exactly when the
/// clique estimate says enumeration could exceed [`AUTO_COLGEN_BUDGET`]
/// groups.
pub fn use_column_generation(
    options: &SelectionOptions,
    log: &EventLog,
    index: &gecco_eventlog::LogIndex,
) -> bool {
    match options.column_generation {
        ColGenMode::On => true,
        ColGenMode::Off => false,
        ColGenMode::Auto => {
            let universe = occurring_classes(log);
            let sketch = ClassCoOccurrence::build(index);
            sketch.estimate_pool(&universe, AUTO_COLGEN_BUDGET) >= AUTO_COLGEN_BUDGET
        }
    }
}

/// Solves a raw weighted set-partitioning instance through the configured
/// route: either the direct single solve (`presolve: false`), or presolve
/// → connected-component decomposition → per-component engines, fanning
/// the components out in parallel under the `rayon` feature. Component
/// order is fixed, so parallel and serial runs assemble bit-identical
/// solutions.
pub fn solve_set_partition(
    problem: &SetPartitionProblem,
    options: SelectionOptions,
) -> Option<SetPartitionSolution> {
    solve_set_partition_stats(problem, options).0
}

/// [`solve_set_partition`] plus the presolve statistics of the run —
/// what was fixed, removed, and how (or why not) the residual decomposed.
/// `None` stats on the un-presolved route.
pub fn solve_set_partition_stats(
    problem: &SetPartitionProblem,
    options: SelectionOptions,
) -> (Option<SetPartitionSolution>, Option<PresolveStats>) {
    // A non-zero option budget overrides the instance's own.
    let rebudgeted;
    let problem = if options.max_nodes != 0 && options.max_nodes != problem.max_nodes {
        rebudgeted = SetPartitionProblem { max_nodes: options.max_nodes, ..problem.clone() };
        &rebudgeted
    } else {
        problem
    };
    if !options.presolve {
        return (problem.solve(options.engine), None);
    }
    match presolve(problem, &PresolveOptions::default()) {
        PresolveOutcome::Infeasible => (None, None),
        PresolveOutcome::Solved(solution, stats) => (Some(solution), Some(stats)),
        PresolveOutcome::Reduced(reduced) => {
            let stats = reduced.stats();
            if reduced.is_coupled() {
                // Residual cardinality bounds couple the components: solve
                // the per-component exact-count frontier tasks (still
                // independent, so still parallel) and let the frontier DP
                // pick the cheapest admissible split.
                let tasks = reduced.frontier_tasks();
                let outcomes = par_map(&tasks, 2, |&(idx, k)| {
                    reduced.solve_frontier_task(idx, k, options.engine)
                });
                return (reduced.assemble_frontier(outcomes), Some(stats));
            }
            let ids: Vec<usize> = (0..reduced.components().len()).collect();
            let solutions = par_map(&ids, 2, |&i| reduced.solve_component(i, options.engine));
            (reduced.assemble(solutions), Some(stats))
        }
    }
}

/// The result of the selection step.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The chosen grouping.
    pub grouping: Grouping,
    /// Its total distance `dist(G, L)` (Eq. 2).
    pub distance: f64,
    /// Whether the solver proved optimality (false if the node budget ran
    /// out with a feasible incumbent).
    pub proven_optimal: bool,
    /// Presolve statistics of the enumerated route — including *why* (or
    /// why not) the residual instance decomposed. `None` on the
    /// un-presolved seed route and on the column-generation route.
    pub presolve: Option<PresolveStats>,
    /// Column-generation counters when the lazy route solved the instance.
    pub colgen: Option<ColGenStats>,
    /// Pricing-search counters when the lazy route solved the instance.
    pub pricing: Option<LazyPricingStats>,
}

/// Selects an optimal grouping from `candidates`, or `None` if no exact
/// cover satisfying the group-count bounds exists.
///
/// The whole pool is primed into `oracle` before the MIP is built, so
/// every distance the oracle lacks is scored in batched sweeps
/// ([`DistanceOracle::prime`]) rather than one group at a time.
pub fn select_optimal(
    log: &EventLog,
    candidates: &[ClassSet],
    oracle: &DistanceOracle<'_>,
    group_bounds: (Option<u32>, Option<u32>),
    options: SelectionOptions,
) -> Option<Selection> {
    let universe = occurring_classes(log);
    if universe.is_empty() {
        // Nothing to cover: the empty selection is the only option,
        // feasible unless a minimum group count demands otherwise.
        if group_bounds.0.is_some_and(|min| min > 0) {
            return None;
        }
        return Some(trivial_selection());
    }
    // Dense element ids for the occurring classes.
    let classes: Vec<ClassId> = universe.iter().collect();
    let index_of = |c: ClassId| classes.binary_search(&c).expect("class in universe");

    let mut problem = SetPartitionProblem::new(classes.len());
    problem.min_sets = group_bounds.0.map(|b| b as usize);
    problem.max_sets = group_bounds.1.map(|b| b as usize);
    problem.max_nodes = options.max_nodes;
    // Problem-set index → candidate index (empty or infinite-distance
    // candidates are skipped, so the two indexings can diverge).
    let mut kept: Vec<usize> = Vec::with_capacity(candidates.len());
    oracle.prime(candidates.iter().copied().filter(|group| !group.is_empty()));
    for (candidate, group) in candidates.iter().enumerate() {
        debug_assert!(group.is_subset(&universe), "candidate contains unknown class");
        let members: Vec<usize> = group.iter().map(index_of).collect();
        if members.is_empty() {
            continue;
        }
        let cost = oracle.distance(group);
        if cost.is_finite() {
            problem.add_set(members, cost);
            kept.push(candidate);
        }
    }
    let (solution, presolve_stats) = solve_set_partition_stats(&problem, options);
    let solution = solution?;
    let chosen: Vec<(ClassSet, f64)> =
        solution.selected.iter().map(|&i| (candidates[kept[i]], problem.sets[i].1)).collect();
    let (grouping, distance) = canonicalize(log, chosen);
    Some(Selection {
        grouping,
        distance,
        proven_optimal: solution.proven_optimal,
        presolve: presolve_stats,
        colgen: None,
        pricing: None,
    })
}

/// The empty-universe selection shared by every route.
fn trivial_selection() -> Selection {
    Selection {
        grouping: Grouping::new(vec![]),
        distance: 0.0,
        proven_optimal: true,
        presolve: None,
        colgen: None,
        pricing: None,
    }
}

/// Canonical grouping + distance: the selected `(group, cost)` pairs are
/// sorted by their [`ClassSet`] order and the costs summed in that order.
/// The groups of an exact cover are pairwise distinct, so the order — and
/// with it the floating-point sum — is unique for a given selection:
/// every route (enumerated or column generation, presolved or not, serial
/// or parallel) reports bit-identical totals for the same selection.
fn canonicalize(log: &EventLog, mut chosen: Vec<(ClassSet, f64)>) -> (Grouping, f64) {
    chosen.sort_by_key(|entry| entry.0);
    let distance = chosen.iter().map(|(_, cost)| *cost).sum();
    let grouping = Grouping::new(chosen.into_iter().map(|(group, _)| group).collect());
    debug_assert!(grouping.is_exact_cover(log));
    (grouping, distance)
}

/// Counters from the lazy pricing search ([`select_optimal_colgen`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyPricingStats {
    /// Pricing calls answered.
    pub pricing_calls: usize,
    /// Distinct groups whose verdict (dead / expandable / candidate) was
    /// established — the lazily-touched slice of the implicit pool.
    pub groups_examined: usize,
    /// Groups rejected by the co-occurrence sketches before any posting
    /// intersection or constraint check ran.
    pub sketch_pruned: usize,
    /// Groups rejected by the exact `occurs` test (sketch said maybe).
    pub non_occurring: usize,
    /// Groups rejected by the anti-monotonic constraint gate (their whole
    /// superset lattice is pruned with them).
    pub constraint_pruned: usize,
    /// Lattice subtrees cut by the dual-derived reduced-cost bound.
    pub bound_pruned_subtrees: usize,
    /// Columns handed to the master (candidates pricing below threshold).
    pub columns_emitted: usize,
}

/// Verdict on one group of the implicit candidate lattice.
#[derive(Debug, Clone, Copy)]
enum GroupVerdict {
    /// Does not occur in any trace, or fails the anti-monotonic constraint
    /// gate — no superset can recover, the subtree is dead.
    Dead,
    /// Occurs but violates the full constraint set; supersets may satisfy.
    Expandable,
    /// A candidate: occurs, satisfies all constraints, with its distance.
    Candidate(f64),
}

/// A [`ColumnSource`] over the *implicit* candidate pool: all
/// constraint-satisfying co-occurring groups, never enumerated up front.
///
/// Pricing runs a depth-first search over the canonical class lattice
/// (each group is extended only by classes above its maximum member, so
/// every group is visited along exactly one path). The search is complete
/// with respect to Algorithm 1's candidate space because each pruning
/// rule is sound along canonical prefixes:
///
/// * **sketch reject** — [`ClassCoOccurrence::may_occur`] never returns
///   `false` for a group that co-occurs (one-sided, property-tested);
/// * **occurs reject** — co-occurrence is anti-monotone, so prefixes of a
///   co-occurring group co-occur;
/// * **constraint gate** — only in anti-monotonic mode, where a failing
///   prefix proves every superset fails
///   ([`CompiledConstraintSet::holds_anti_monotonic`] is anti-monotone,
///   and in that mode `holds ⇒ holds_anti_monotonic`, so every prefix of
///   a full candidate survives the gate);
/// * **dual bound** — for a branch `g` with admissible extension set `U`,
///   every strict superset `h ⊆ g ∪ U` has
///   `rc(h) ≥ 1/|g ∪ U| − Σ_{e∈g} y_e − Σ_{c∈U} max(y_c, 0) − y_card`
///   (each instance of `h` contributes at least `1/|h| ≥ 1/|g ∪ U|` to
///   Eq. 1); when that bound clears the pricing threshold the subtree
///   cannot contain a useful column.
///
/// Verdicts and distances are cached across pricing calls, so each group
/// pays for its constraint checks at most once per solve.
struct CandidateColumnSource<'a> {
    /// Dense element id → class, ascending.
    classes: &'a [ClassId],
    universe: ClassSet,
    constraints: &'a CompiledConstraintSet,
    oracle: &'a DistanceOracle<'a>,
    sketch: ClassCoOccurrence,
    /// Anti-monotonic checking mode: the constraint gate may prune.
    anti_monotonic: bool,
    verdicts: HashMap<ClassSet, GroupVerdict>,
    emitted: HashSet<ClassSet>,
    stats: LazyPricingStats,
}

impl<'a> CandidateColumnSource<'a> {
    fn new(
        classes: &'a [ClassId],
        constraints: &'a CompiledConstraintSet,
        oracle: &'a DistanceOracle<'a>,
    ) -> Self {
        let universe: ClassSet = classes.iter().copied().collect();
        let sketch = ClassCoOccurrence::build(oracle.ctx().index());
        CandidateColumnSource {
            classes,
            universe,
            constraints,
            oracle,
            sketch,
            anti_monotonic: constraints.mode() == CheckingMode::AntiMonotonic,
            verdicts: HashMap::new(),
            emitted: HashSet::new(),
            stats: LazyPricingStats::default(),
        }
    }

    fn dense(&self, c: ClassId) -> usize {
        self.classes.binary_search(&c).expect("class in universe")
    }

    fn verdict(&mut self, group: &ClassSet) -> GroupVerdict {
        if let Some(&v) = self.verdicts.get(group) {
            return v;
        }
        self.stats.groups_examined += 1;
        let ctx = self.oracle.ctx();
        let v = if !self.sketch.may_occur(group) {
            self.stats.sketch_pruned += 1;
            GroupVerdict::Dead
        } else if !ctx.occurs(group) {
            self.stats.non_occurring += 1;
            GroupVerdict::Dead
        } else if self.constraints.holds(group, ctx) {
            let cost = self.oracle.distance(group);
            debug_assert!(cost.is_finite(), "occurring groups have instances");
            GroupVerdict::Candidate(cost)
        } else if self.anti_monotonic && !self.constraints.holds_anti_monotonic(group, ctx) {
            self.stats.constraint_pruned += 1;
            GroupVerdict::Dead
        } else {
            GroupVerdict::Expandable
        };
        self.verdicts.insert(*group, v);
        v
    }

    fn descend(
        &mut self,
        group: ClassSet,
        last: ClassId,
        prices: &DualPrices<'_>,
        request: &PricingRequest,
        out: &mut Vec<(Vec<usize>, f64)>,
    ) {
        if out.len() >= request.max_columns {
            return;
        }
        let verdict = self.verdict(&group);
        if matches!(verdict, GroupVerdict::Dead) {
            return;
        }
        let members: Vec<usize> = group.iter().map(|c| self.dense(c)).collect();
        if let GroupVerdict::Candidate(cost) = verdict {
            if !self.emitted.contains(&group)
                && prices.reduced_cost(&members, cost) < request.threshold
            {
                self.emitted.insert(group);
                self.stats.columns_emitted += 1;
                out.push((members.clone(), cost));
                if out.len() >= request.max_columns {
                    return;
                }
            }
        }
        // Canonical extensions: classes above the maximum member that
        // pairwise co-occur with every member (the sketch rows are exact
        // on pairs, so this loses nothing the full occurs test keeps).
        let mut cooc = self.universe;
        for c in group.iter() {
            cooc = cooc.intersection(self.sketch.cooccurring(c));
        }
        let ext: Vec<ClassId> = cooc.difference(&group).iter().filter(|&c| c > last).collect();
        if ext.is_empty() {
            return;
        }
        // Dual bound over the whole subtree (see the type-level docs).
        let closure = (group.len() + ext.len()) as f64;
        let mut bound = 1.0 / closure - prices.per_set;
        for &e in &members {
            bound -= prices.element[e];
        }
        for &c in &ext {
            bound -= prices.element[self.dense(c)].max(0.0);
        }
        if bound >= request.threshold {
            self.stats.bound_pruned_subtrees += 1;
            return;
        }
        for c in ext {
            let mut bigger = group;
            bigger.insert(c);
            self.descend(bigger, c, prices, request, out);
            if out.len() >= request.max_columns {
                return;
            }
        }
    }
}

impl ColumnSource for CandidateColumnSource<'_> {
    fn price(
        &mut self,
        prices: &DualPrices<'_>,
        request: &PricingRequest,
    ) -> Vec<(Vec<usize>, f64)> {
        self.stats.pricing_calls += 1;
        let mut out = Vec::new();
        for &c in self.classes {
            if out.len() >= request.max_columns {
                break;
            }
            self.descend(ClassSet::singleton(c), c, prices, request, &mut out);
        }
        out
    }
}

/// Selects an optimal grouping by column generation over the implicit
/// candidate pool (all constraint-satisfying co-occurring groups), or
/// `None` if no exact cover within the group-count bounds exists.
///
/// Where [`select_optimal`] needs the pool enumerated up front (Step 1),
/// this route generates candidates on demand: LP duals from the
/// restricted master steer a pricing search through the candidate
/// lattice, sketch / occurs / constraint / dual-bound pruning keeps the
/// touched slice small, and the gap-closing loop of
/// [`solve_column_generation`] makes the result exact. On enumerable
/// pools the selection matches the enumerated route bit for bit
/// (differential-tested); past enumerable sizes only this route finishes.
///
/// Note the implicit pool is Algorithm 1's: merged exclusive-alternative
/// candidates (Algorithm 3) only exist on the enumerated route.
pub fn select_optimal_colgen(
    log: &EventLog,
    constraints: &CompiledConstraintSet,
    oracle: &DistanceOracle<'_>,
    group_bounds: (Option<u32>, Option<u32>),
    options: SelectionOptions,
) -> Option<Selection> {
    let universe = occurring_classes(log);
    if universe.is_empty() {
        if group_bounds.0.is_some_and(|min| min > 0) {
            return None;
        }
        return Some(trivial_selection());
    }
    let classes: Vec<ClassId> = universe.iter().collect();
    let mut source = CandidateColumnSource::new(&classes, constraints, oracle);
    let colgen_options = ColGenOptions {
        engine: options.engine,
        max_nodes: options.max_nodes,
        master: options.colgen_master,
        ..ColGenOptions::default()
    };
    // No warm start: initial columns would have to be checked candidates,
    // and finding one is the pricer's job — the big-M artificial bootstrap
    // prices useful columns in on the first round.
    let solution = solve_column_generation(
        classes.len(),
        (group_bounds.0.map(|b| b as usize), group_bounds.1.map(|b| b as usize)),
        &[],
        &mut source,
        &colgen_options,
    )?;
    let chosen: Vec<(ClassSet, f64)> = solution
        .columns
        .iter()
        .map(|(members, cost)| (members.iter().map(|&e| classes[e]).collect(), *cost))
        .collect();
    let (grouping, distance) = canonicalize(log, chosen);
    Some(Selection {
        grouping,
        distance,
        proven_optimal: solution.proven_optimal,
        presolve: None,
        colgen: Some(solution.stats),
        pricing: Some(source.stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecco_eventlog::{LogBuilder, Segmenter};

    fn running_example() -> EventLog {
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
                tb = tb.event(cls).unwrap();
            }
            tb.done();
        }
        b.build()
    }

    fn set(log: &EventLog, names: &[&str]) -> ClassSet {
        names.iter().map(|n| log.class_by_name(n).unwrap()).collect()
    }

    /// The candidate pool of Figure 7.
    fn figure7_candidates(log: &EventLog) -> Vec<ClassSet> {
        vec![
            set(log, &["rcp", "ckt", "ckc"]),
            set(log, &["prio", "inf", "arv"]),
            set(log, &["rej"]),
            set(log, &["acc"]),
            set(log, &["ckt", "ckc"]),
            set(log, &["rcp"]),
            set(log, &["ckt"]),
            set(log, &["arv"]),
            set(log, &["prio"]),
            set(log, &["ckc"]),
            set(log, &["inf"]),
            set(log, &["inf", "arv"]),
            set(log, &["prio", "inf"]),
            set(log, &["prio", "arv"]),
            set(log, &["rcp", "ckc"]),
            set(log, &["rcp", "ckt"]),
        ]
    }

    #[test]
    fn figure7_selection_matches_paper() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let candidates = figure7_candidates(&log);
        let sel =
            select_optimal(&log, &candidates, &oracle, (None, None), SelectionOptions::default())
                .expect("feasible");
        assert!(sel.proven_optimal);
        assert!((sel.distance - 37.0 / 12.0).abs() < 1e-9, "Fig. 7: dist = 3.08");
        let expected = Grouping::new(vec![
            set(&log, &["rcp", "ckt", "ckc"]),
            set(&log, &["acc"]),
            set(&log, &["rej"]),
            set(&log, &["prio", "inf", "arv"]),
        ]);
        assert_eq!(sel.grouping, expected);
    }

    #[test]
    fn both_engines_agree() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let candidates = figure7_candidates(&log);
        let dlx = select_optimal(
            &log,
            &candidates,
            &oracle,
            (None, None),
            SelectionOptions { engine: SolveEngine::Dlx, ..Default::default() },
        )
        .unwrap();
        let bnb = select_optimal(
            &log,
            &candidates,
            &oracle,
            (None, None),
            SelectionOptions { engine: SolveEngine::SimplexBnb, ..Default::default() },
        )
        .unwrap();
        assert!((dlx.distance - bnb.distance).abs() < 1e-9);
    }

    #[test]
    fn figure7_presolved_routes_match_the_seed_solve() {
        // The Fig. 7 optimum is unique, so every route — presolved or
        // not, either engine — must return the *same* Selection, bit for
        // bit: same grouping, same distance, same optimality proof.
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let candidates = figure7_candidates(&log);
        let seed = select_optimal(
            &log,
            &candidates,
            &oracle,
            (None, None),
            SelectionOptions { presolve: false, ..Default::default() },
        )
        .unwrap();
        for engine in [SolveEngine::Dlx, SolveEngine::SimplexBnb] {
            let routed = select_optimal(
                &log,
                &candidates,
                &oracle,
                (None, None),
                SelectionOptions { engine, presolve: true, ..Default::default() },
            )
            .unwrap();
            assert_eq!(routed.grouping, seed.grouping, "{engine:?}");
            assert_eq!(routed.distance.to_bits(), seed.distance.to_bits(), "{engine:?}");
            assert!(routed.proven_optimal);
        }
    }

    #[test]
    fn presolve_handles_duplicate_candidates() {
        // The Fig. 7 pool with every candidate listed twice: dedup keeps
        // one copy of each; the selection is unchanged.
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let mut candidates = figure7_candidates(&log);
        candidates.extend(figure7_candidates(&log));
        let sel =
            select_optimal(&log, &candidates, &oracle, (None, None), SelectionOptions::default())
                .expect("feasible");
        assert!((sel.distance - 37.0 / 12.0).abs() < 1e-9);
        assert!(sel.proven_optimal);
        assert!(sel.grouping.is_exact_cover(&log));
    }

    #[test]
    fn group_bounds_change_selection() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let candidates = figure7_candidates(&log);
        // At most 3 groups: impossible (acc/rej are mandatory singletons
        // here and the other six classes split into at least two groups).
        let sel = select_optimal(
            &log,
            &candidates,
            &oracle,
            (None, Some(3)),
            SelectionOptions::default(),
        );
        assert!(sel.is_none());
        // At least 6 groups: forces a finer cover.
        let sel = select_optimal(
            &log,
            &candidates,
            &oracle,
            (Some(6), None),
            SelectionOptions::default(),
        )
        .unwrap();
        assert!(sel.grouping.len() >= 6);
        assert!(sel.distance > 37.0 / 12.0 - 1e-9, "coarser optimum is unreachable");
    }

    #[test]
    fn infeasible_without_covering_candidates() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        // Candidates that cannot cover `prio`.
        let candidates = vec![set(&log, &["rcp"]), set(&log, &["ckc"])];
        assert!(select_optimal(
            &log,
            &candidates,
            &oracle,
            (None, None),
            SelectionOptions::default()
        )
        .is_none());
    }

    #[test]
    fn empty_log_trivial_grouping() {
        let log = LogBuilder::new().build();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let sel =
            select_optimal(&log, &[], &oracle, (None, None), SelectionOptions::default()).unwrap();
        assert!(sel.grouping.is_empty());
        assert_eq!(sel.distance, 0.0);
        // A positive minimum group count makes the empty cover infeasible
        // — on both routes.
        assert!(select_optimal(&log, &[], &oracle, (Some(1), None), SelectionOptions::default())
            .is_none());
        let compiled = compile(&log, "");
        assert!(select_optimal_colgen(
            &log,
            &compiled,
            &oracle,
            (Some(1), None),
            SelectionOptions::default()
        )
        .is_none());
    }

    fn compile(log: &EventLog, dsl: &str) -> CompiledConstraintSet {
        let parsed = gecco_constraints::ConstraintSet::parse(dsl).unwrap();
        CompiledConstraintSet::compile(&parsed, log).unwrap()
    }

    #[test]
    fn colgen_route_matches_the_enumerated_route() {
        // Same implicit pool (Algorithm 1 under the constraints), two
        // solvers: the enumerated presolved route and lazy column
        // generation must return the same selection, bit for bit.
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        for dsl in ["", "size(g) <= 3;"] {
            let compiled = compile(&log, dsl);
            let pool = crate::candidates::exhaustive::exhaustive_candidates(
                &ctx,
                &compiled,
                crate::candidates::Budget::UNLIMITED,
            );
            let enumerated = select_optimal(
                &log,
                pool.groups(),
                &oracle,
                (None, None),
                SelectionOptions::default(),
            )
            .expect("feasible");
            let lazy = select_optimal_colgen(
                &log,
                &compiled,
                &oracle,
                (None, None),
                SelectionOptions::default(),
            )
            .expect("feasible");
            assert_eq!(lazy.grouping, enumerated.grouping, "{dsl:?}");
            assert_eq!(lazy.distance.to_bits(), enumerated.distance.to_bits(), "{dsl:?}");
            assert!(lazy.proven_optimal && enumerated.proven_optimal);
            // The routes surface their respective statistics.
            assert!(enumerated.presolve.is_some() && enumerated.colgen.is_none());
            let pricing = lazy.pricing.expect("lazy route reports pricing stats");
            assert!(lazy.colgen.is_some() && lazy.presolve.is_none());
            // The pricer touches the implicit pool lazily: every emitted
            // column is an enumerable candidate, and never more of them
            // than enumeration produced.
            assert!(pricing.columns_emitted <= pool.len(), "{pricing:?}");
            assert!(pricing.groups_examined > 0);
        }
    }

    #[test]
    fn auto_mode_follows_the_pool_estimate() {
        use gecco_datagen::{production_tree, simulate, SimulationOptions};
        let decide = |log: &EventLog, column_generation: ColGenMode| {
            let index = gecco_eventlog::LogIndex::build(log);
            let options = SelectionOptions { column_generation, ..Default::default() };
            use_column_generation(&options, log, &index)
        };
        let simulated = |classes: usize, len: usize| {
            let tree = production_tree(classes, len, 0xACE + classes as u64);
            simulate(&tree, &SimulationOptions { num_traces: 100, seed: 77, ..Default::default() })
        };
        // Literal modes ignore the estimate entirely.
        let log = running_example();
        assert!(decide(&log, ColGenMode::On));
        assert!(!decide(&log, ColGenMode::Off));
        // Below AUTO_COLGEN_BUDGET the enumerated route runs: on the
        // running example and on a 12-class production log.
        assert!(!decide(&log, ColGenMode::Auto));
        assert!(!decide(&simulated(12, 12), ColGenMode::Auto));
        // The 16-class `scale_dense` log's clique estimate reaches it.
        let dense = simulated(16, 16);
        assert!(decide(&dense, ColGenMode::Auto));
        assert!(!decide(&dense, ColGenMode::Off));
    }

    #[test]
    fn colgen_master_engines_return_identical_selections() {
        // The dense tableau oracle and the revised master must produce
        // the *same* Selection, bit for bit.
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        for dsl in ["", "size(g) <= 3;"] {
            let compiled = compile(&log, dsl);
            let mut selections = Vec::new();
            for colgen_master in [MasterEngine::Revised, MasterEngine::Dense] {
                let options = SelectionOptions { colgen_master, ..Default::default() };
                let sel = select_optimal_colgen(&log, &compiled, &oracle, (None, None), options)
                    .expect("feasible");
                assert!(sel.proven_optimal, "{colgen_master:?}");
                selections.push((format!("{colgen_master:?}"), sel));
            }
            let (ref base_label, ref base) = selections[0];
            for (label, sel) in &selections[1..] {
                assert_eq!(sel.grouping, base.grouping, "{label} vs {base_label} ({dsl:?})");
                assert_eq!(
                    sel.distance.to_bits(),
                    base.distance.to_bits(),
                    "{label} vs {base_label} ({dsl:?})"
                );
            }
        }
    }

    #[test]
    fn colgen_route_respects_group_bounds() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let compiled = compile(&log, "");
        // At least 6 groups forces a finer cover than the free optimum.
        let bounded = select_optimal_colgen(
            &log,
            &compiled,
            &oracle,
            (Some(6), None),
            SelectionOptions::default(),
        )
        .expect("feasible");
        assert!(bounded.grouping.len() >= 6);
        let free = select_optimal_colgen(
            &log,
            &compiled,
            &oracle,
            (None, None),
            SelectionOptions::default(),
        )
        .expect("feasible");
        assert!(bounded.distance > free.distance - 1e-9);
        // More groups than occurring classes is impossible.
        assert!(select_optimal_colgen(
            &log,
            &compiled,
            &oracle,
            (Some(9), None),
            SelectionOptions::default()
        )
        .is_none());
    }
}
