//! Differential cross-validation of the Step-2 selection routes: the
//! un-presolved single solve (the seed path, kept as the oracle) versus
//! the presolved → decomposed → per-component pipeline, on both engines,
//! serial and parallel.
//!
//! Random instances vary density, inject duplicate sets, toggle
//! cardinality bounds and include infeasible cases. Costs are continuous,
//! so equal-cost optima are limited to deliberately injected duplicates —
//! which presolve collapses to one representative — and the suites
//! therefore assert cost-level equivalence plus solution validity; the
//! bit-identity assertions (same selection, same cost bits) are reserved
//! for the serial-vs-parallel comparison of the *same* route, which is
//! deterministic by construction.
//!
//! Runs with and without `--features rayon` (the CI matrix covers both);
//! without the feature the parallel assertions hold trivially.

use gecco_constraints::{CompiledConstraintSet, ConstraintSet};
use gecco_core::candidates::dfg::{dfg_candidates, NoObserver};
use gecco_core::candidates::exclusive::extend_with_exclusive_candidates;
use gecco_core::candidates::exhaustive::exhaustive_candidates;
use gecco_core::{
    select_optimal, select_optimal_colgen, set_parallel, solve_set_partition, Budget,
    DistanceOracle, MasterEngine, SelectionOptions,
};
use gecco_eventlog::{
    ClassCoOccurrence, ClassSet, EvalContext, EventLog, LogBuilder, LogIndex, Segmenter,
};
use gecco_solver::{SetPartitionProblem, SetPartitionSolution, SolveEngine};
use proptest::prelude::*;
use std::collections::HashSet;

fn force_threads() {
    // Safe on edition 2021; tests that call this all set the same value.
    std::env::set_var("RAYON_NUM_THREADS", "4");
}

/// Serializes tests that flip the process-wide parallelism toggle.
static TOGGLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` twice — serially and in parallel — and returns both results.
fn both<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = TOGGLE_LOCK.lock().unwrap();
    force_threads();
    set_parallel(false);
    let serial = f();
    set_parallel(true);
    let parallel = f();
    set_parallel(true);
    (serial, parallel)
}

/// Random weighted set-partitioning instances: 2–10 elements, up to 16
/// sets of varying density, a slice of injected duplicate sets (same
/// members, possibly different cost), optional cardinality bounds.
/// Instances with uncovered elements or unsatisfiable bounds are kept —
/// infeasibility must cross-validate too.
fn arb_problem() -> impl Strategy<Value = SetPartitionProblem> {
    (2usize..=10, 1usize..=16).prop_flat_map(|(elements, num_sets)| {
        let sets = proptest::collection::vec(
            (proptest::collection::btree_set(0..elements, 1..=elements), 0.1f64..10.0),
            num_sets,
        );
        // Duplicates: indices into the set list re-added with a new cost.
        let duplicates =
            proptest::collection::vec((0..num_sets, 0.1f64..10.0), 0..=3.min(num_sets));
        (
            Just(elements),
            sets,
            duplicates,
            proptest::option::of(0usize..4),
            proptest::option::of(1usize..6),
        )
            .prop_map(|(elements, sets, duplicates, min, max)| {
                let mut p = SetPartitionProblem::new(elements);
                for (members, cost) in &sets {
                    p.add_set(members.iter().copied().collect(), *cost);
                }
                for (source, cost) in duplicates {
                    p.add_set(sets[source].0.iter().copied().collect(), cost);
                }
                p.min_sets = min;
                p.max_sets = max;
                p
            })
    })
}

/// Asserts `s` is an exact cover of `p` within its cardinality bounds,
/// with the cost matching its own selection.
fn assert_valid(p: &SetPartitionProblem, s: &SetPartitionSolution) {
    let mut covered = vec![0u8; p.num_elements];
    for &i in &s.selected {
        for &m in &p.sets[i].0 {
            covered[m] += 1;
        }
    }
    assert!(covered.iter().all(|&c| c == 1), "not an exact cover");
    if let Some(min) = p.min_sets {
        assert!(s.selected.len() >= min);
    }
    if let Some(max) = p.max_sets {
        assert!(s.selected.len() <= max);
    }
    let recomputed: f64 = s.selected.iter().map(|&i| p.sets[i].1).sum();
    assert!((s.cost - recomputed).abs() < 1e-9, "cost does not match selection");
}

fn options(engine: SolveEngine, presolve: bool) -> SelectionOptions {
    SelectionOptions { engine, presolve, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// DLX == SimplexBnb == presolved-DLX == presolved-SimplexBnb, in
    /// feasibility and (when feasible) in cost, with every presolved
    /// solution a valid exact cover and a proven optimum.
    #[test]
    fn all_selection_routes_agree(p in arb_problem()) {
        let oracle = p.solve(SolveEngine::Dlx);
        let routes = [
            ("bnb", p.solve(SolveEngine::SimplexBnb)),
            ("presolved-dlx", solve_set_partition(&p, options(SolveEngine::Dlx, true))),
            ("presolved-bnb", solve_set_partition(&p, options(SolveEngine::SimplexBnb, true))),
        ];
        for (name, solution) in routes {
            match (&oracle, &solution) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert!(
                        (a.cost - b.cost).abs() < 1e-9,
                        "{name}: {} vs oracle {}", b.cost, a.cost
                    );
                    prop_assert!(b.proven_optimal, "{name}: optimality not proven");
                    assert_valid(&p, b);
                }
                _ => prop_assert!(
                    false, "{name} disagrees on feasibility: {solution:?} vs {oracle:?}"
                ),
            }
        }
    }

    /// The presolved route is deterministic, and its parallel component
    /// fan-out is bit-identical to the serial order.
    #[test]
    fn presolved_route_is_deterministic_and_parallel_equivalent(p in arb_problem()) {
        for engine in [SolveEngine::Dlx, SolveEngine::SimplexBnb] {
            let opts = options(engine, true);
            let (serial, parallel) = both(|| solve_set_partition(&p, opts));
            let rerun = solve_set_partition(&p, opts);
            for (name, other) in [("parallel", &parallel), ("rerun", &rerun)] {
                match (&serial, other) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(&a.selected, &b.selected, "{} selection", name);
                        prop_assert_eq!(
                            a.cost.to_bits(), b.cost.to_bits(), "{} cost bits", name
                        );
                        prop_assert_eq!(a.proven_optimal, b.proven_optimal);
                    }
                    _ => prop_assert!(false, "{} feasibility flip: {:?} vs {:?}",
                        name, other, &serial),
                }
            }
        }
    }
}

/// Random small logs with optional group-count bounds and a constraint
/// toggle: `false` = unconstrained, `true` = the anti-monotonic
/// `size(g) <= 2` (exercising the pricer's constraint gate).
fn arb_selection_instance() -> impl Strategy<Value = (EventLog, Option<u32>, Option<u32>, bool)> {
    let trace = proptest::collection::vec(0usize..6, 0..=10);
    (
        proptest::collection::vec(trace, 1..=8),
        proptest::option::of(1u32..4),
        proptest::option::of(1u32..6),
        any::<bool>(),
    )
        .prop_map(|(traces, min, max, sized)| (build_log(traces), min, max, sized))
}

fn build_log(traces: Vec<Vec<usize>>) -> EventLog {
    let mut b = LogBuilder::new();
    for (i, t) in traces.iter().enumerate() {
        let mut tb = b.trace(&format!("case-{i}"));
        for &cls in t {
            tb = tb.event(&format!("c{cls}")).expect("within class limits");
        }
        tb.done();
    }
    b.build()
}

fn compile(log: &EventLog, sized: bool) -> CompiledConstraintSet {
    let dsl = if sized { "size(g) <= 2;" } else { "" };
    CompiledConstraintSet::compile(&ConstraintSet::parse(dsl).unwrap(), log).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Column generation over the implicit pool versus the enumerated
    /// presolved route over Algorithm 1's pool — the same candidate space
    /// solved two ways, on both engines. Feasibility must agree, costs
    /// must match, and when the optimum is unique (same grouping) the
    /// canonical distances are bit-identical.
    #[test]
    fn colgen_matches_the_enumerated_oracle(instance in arb_selection_instance()) {
        let (log, min, max, sized) = instance;
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let compiled = compile(&log, sized);
        let pool = exhaustive_candidates(&ctx, &compiled, Budget::UNLIMITED);
        for engine in [SolveEngine::Dlx, SolveEngine::SimplexBnb] {
            let opts = SelectionOptions { engine, ..Default::default() };
            let enumerated =
                select_optimal(&log, pool.groups(), &oracle, (min, max), opts);
            let lazy = select_optimal_colgen(&log, &compiled, &oracle, (min, max), opts);
            match (&enumerated, &lazy) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert!(
                        (a.distance - b.distance).abs() < 1e-9,
                        "{engine:?}: {} vs {}", b.distance, a.distance
                    );
                    prop_assert!(a.proven_optimal && b.proven_optimal, "{engine:?}");
                    prop_assert!(b.grouping.is_exact_cover(&log), "{engine:?}");
                    if let Some(lo) = min {
                        prop_assert!(b.grouping.len() >= lo as usize);
                    }
                    if let Some(hi) = max {
                        prop_assert!(b.grouping.len() <= hi as usize);
                    }
                    if a.grouping == b.grouping {
                        prop_assert_eq!(
                            a.distance.to_bits(), b.distance.to_bits(),
                            "{:?}: same selection, different bits", engine
                        );
                    }
                }
                _ => prop_assert!(
                    false,
                    "{engine:?} disagrees on feasibility: lazy {lazy:?} vs enumerated {enumerated:?}"
                ),
            }
        }
    }

    /// Step 2 seeded with Step 1's distance memo selects exactly what a
    /// fresh oracle selects, and scores only the pool groups the memo
    /// lacks (Algorithm 3's merges, here). A memo scored under another
    /// segmenter is ignored: the whole pool is scored again.
    #[test]
    fn seeded_selection_matches_a_fresh_oracle(instance in arb_selection_instance()) {
        let (log, min, max, sized) = instance;
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let compiled = compile(&log, sized);
        let mut pool = dfg_candidates(&ctx, &compiled, None, Budget::UNLIMITED, &mut NoObserver);
        extend_with_exclusive_candidates(&ctx, &compiled, &mut pool);
        let memo = pool.distances().expect("the beam sort leaves its memo");
        let distinct: HashSet<ClassSet> = pool.groups().iter().copied().collect();
        for segmenter in [Segmenter::RepeatSplit, Segmenter::NoSplit] {
            let fresh = DistanceOracle::new(&ctx, segmenter);
            let seeded = DistanceOracle::seeded(&ctx, segmenter, Some(memo));
            let opts = SelectionOptions::default();
            let expect = select_optimal(&log, pool.groups(), &fresh, (min, max), opts);
            let got = select_optimal(&log, pool.groups(), &seeded, (min, max), opts);
            let lacking = if segmenter == memo.segmenter() {
                distinct.iter().filter(|g| memo.get(g).is_none()).count()
            } else {
                distinct.len()
            };
            prop_assert_eq!(seeded.evaluations(), lacking, "{:?}", segmenter);
            prop_assert_eq!(fresh.evaluations(), distinct.len(), "{:?}", segmenter);
            match (expect, got) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(&a.grouping, &b.grouping, "{:?}", segmenter);
                    prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                    prop_assert_eq!(a.proven_optimal, b.proven_optimal);
                }
                (a, b) => prop_assert!(false, "feasibility differs: {a:?} vs {b:?}"),
            }
        }
    }

    /// The warm-started revised-simplex master against the dense tableau
    /// oracle, end to end: both routes must return the *same* `Selection`
    /// — same grouping, same canonical distance, bit for bit. Pricing trajectories and restricted
    /// pools may differ, but the implicit pool and its optimum do not.
    #[test]
    fn colgen_master_routes_return_identical_selections(instance in arb_selection_instance()) {
        let (log, min, max, sized) = instance;
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let compiled = compile(&log, sized);
        let mut runs: Vec<(String, Option<gecco_core::Selection>)> = Vec::new();
        for colgen_master in [MasterEngine::Revised, MasterEngine::Dense] {
            let opts = SelectionOptions { colgen_master, ..Default::default() };
            let sel = select_optimal_colgen(&log, &compiled, &oracle, (min, max), opts);
            runs.push((format!("{colgen_master:?}"), sel));
        }
        let (base_label, base) = &runs[0];
        for (label, sel) in &runs[1..] {
            match (base, sel) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert!(
                        (a.distance - b.distance).abs() < 1e-9,
                        "{} vs {}: {} vs {}", label, base_label, b.distance, a.distance
                    );
                    prop_assert!(b.proven_optimal, "{}", label);
                    prop_assert!(b.grouping.is_exact_cover(&log), "{}", label);
                    if a.grouping == b.grouping {
                        prop_assert_eq!(
                            a.distance.to_bits(), b.distance.to_bits(),
                            "{}: same grouping, different bits", label
                        );
                    }
                }
                _ => prop_assert!(
                    false, "{} vs {}: feasibility flip", label, base_label
                ),
            }
        }
    }

    /// The lazy route is deterministic and parallel-invariant: rerunning
    /// it — serially or with the rayon fan-outs enabled — reproduces the
    /// identical selection, bit for bit.
    #[test]
    fn colgen_is_deterministic_and_parallel_equivalent(instance in arb_selection_instance()) {
        let (log, min, max, sized) = instance;
        let compiled = compile(&log, sized);
        let run = || {
            let index = LogIndex::build(&log);
            let ctx = EvalContext::new(&log, &index);
            let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
            select_optimal_colgen(&log, &compiled, &oracle, (min, max), SelectionOptions::default())
        };
        let (serial, parallel) = both(run);
        match (&serial, &parallel) {
            (None, None) => {}
            (Some(s), Some(p)) => {
                prop_assert_eq!(&s.grouping, &p.grouping);
                prop_assert_eq!(s.distance.to_bits(), p.distance.to_bits());
                prop_assert_eq!(s.proven_optimal, p.proven_optimal);
            }
            _ => prop_assert!(false, "feasibility flip: {serial:?} vs {parallel:?}"),
        }
    }

    /// Sketch-pruning safety end to end: filtering the enumerated pool
    /// through `may_occur` removes nothing — every Algorithm-1 candidate
    /// co-occurs and the sketch is one-sided — so the pruned pool
    /// contains every group of every optimal selection and yields the
    /// same optimum.
    #[test]
    fn sketch_pruning_never_drops_optimal_groups(instance in arb_selection_instance()) {
        let (log, _, _, sized) = instance;
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let compiled = compile(&log, sized);
        let pool = exhaustive_candidates(&ctx, &compiled, Budget::UNLIMITED);
        let sketch = ClassCoOccurrence::build(&index);
        let pruned: Vec<ClassSet> =
            pool.groups().iter().copied().filter(|g| sketch.may_occur(g)).collect();
        prop_assert_eq!(pruned.len(), pool.len(), "sketch pruned a co-occurring candidate");
        let full = select_optimal(
            &log, pool.groups(), &oracle, (None, None), SelectionOptions::default(),
        );
        let over_pruned = select_optimal(
            &log, &pruned, &oracle, (None, None), SelectionOptions::default(),
        );
        match (&full, &over_pruned) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                // The pruned pool is the full pool, so the selected groups
                // of the optimum all survive pruning.
                for group in a.grouping.groups() {
                    prop_assert!(pruned.contains(group), "optimal group lost to pruning");
                }
                prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
            _ => prop_assert!(false, "pruning flipped feasibility"),
        }
    }
}

/// A deterministic many-component instance with unique costs: every
/// route must return the identical selection, not just the same cost.
#[test]
fn multi_component_instance_identical_across_routes() {
    // 6 independent blocks of 4 elements; each block offers an all-block
    // set, two pairs and four singletons with distinct costs, so each
    // block has a unique optimum.
    let blocks = 6;
    let mut p = SetPartitionProblem::new(4 * blocks);
    for b in 0..blocks {
        let base = 4 * b;
        let jitter = b as f64 * 0.013;
        p.add_set((base..base + 4).collect(), 2.1 + jitter);
        p.add_set(vec![base, base + 1], 1.3 + jitter);
        p.add_set(vec![base + 2, base + 3], 1.4 + jitter);
        for e in 0..4 {
            p.add_set(vec![base + e], 0.9 + 0.01 * e as f64 + jitter);
        }
    }
    let oracle = p.solve(SolveEngine::Dlx).unwrap();
    assert!(oracle.proven_optimal);
    let (serial, parallel) = both(|| {
        [SolveEngine::Dlx, SolveEngine::SimplexBnb]
            .map(|engine| solve_set_partition(&p, options(engine, true)).unwrap())
    });
    for routed in serial.iter().chain(parallel.iter()) {
        assert_eq!(routed.selected, oracle.selected);
        assert!((routed.cost - oracle.cost).abs() < 1e-9);
        assert!(routed.proven_optimal);
    }
    // The two presolved runs are bit-identical to each other.
    for (s, p2) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.selected, p2.selected);
        assert_eq!(s.cost.to_bits(), p2.cost.to_bits());
    }
}

/// Node-budget degradation end to end: with a tiny per-component budget
/// the presolved route still returns a feasible (unproven) cover when
/// the engines find an incumbent — on both engines, matching the
/// engine-consistency fix (`BnbResult::Feasible`).
#[test]
fn budget_exhaustion_degrades_gracefully() {
    // Two odd 3-cycle blocks (fractional relaxations, no singleton
    // shortcut for DLX's first dive) + enough extra sets to keep the
    // search from finishing instantly.
    let mut p = SetPartitionProblem::new(6);
    for block in 0..2usize {
        let base = 3 * block;
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            p.add_set(vec![base + a, base + b], 1.0);
        }
        for e in 0..3 {
            p.add_set(vec![base + e], 0.55 + 0.01 * (base + e) as f64);
        }
    }
    let optimum = solve_set_partition(&p, options(SolveEngine::Dlx, true)).unwrap();
    assert!(optimum.proven_optimal);
    for engine in [SolveEngine::Dlx, SolveEngine::SimplexBnb] {
        let mut saw_unproven = false;
        for budget in 1..=500 {
            let opts = SelectionOptions {
                engine,
                max_nodes: budget,
                presolve: true,
                ..Default::default()
            };
            match solve_set_partition(&p, opts) {
                None => continue,
                Some(s) => {
                    if !s.proven_optimal {
                        let mut covered = vec![0u8; p.num_elements];
                        for &i in &s.selected {
                            for &m in &p.sets[i].0 {
                                covered[m] += 1;
                            }
                        }
                        assert!(covered.iter().all(|&c| c == 1), "{engine:?}");
                        assert!(s.cost >= optimum.cost - 1e-9);
                        saw_unproven = true;
                        break;
                    }
                    assert!((s.cost - optimum.cost).abs() < 1e-9, "{engine:?}");
                    break;
                }
            }
        }
        assert!(saw_unproven, "{engine:?}: no budget exhausted with an incumbent");
    }
}
