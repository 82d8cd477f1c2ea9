//! Parallel candidate generation must be indistinguishable from serial —
//! same candidates, same statistics, bit-identical distances — and so must
//! `run_fanout`, whose branches fan out over the same seam.
//!
//! Only meaningful with the `rayon` feature; without it `set_parallel` is a
//! no-op and both runs are serial (the assertions then hold trivially).
//! `RAYON_NUM_THREADS` is forced above the machine's core count so real
//! thread fan-out happens even on single-core CI runners.

use gecco_constraints::ConstraintSet;
use gecco_core::candidates::dfg::{dfg_candidates, NoObserver};
use gecco_core::candidates::exclusive::extend_with_exclusive_candidates;
use gecco_core::candidates::exhaustive::exhaustive_candidates;
use gecco_core::{
    group_distance, run_fanout, run_multipass, set_parallel, BeamWidth, Budget, CandidateSet,
    DistanceMemo, DistanceOracle, GeccoError,
};
use gecco_datagen::loan_log;
use gecco_eventlog::{ClassSet, EvalContext, EventLog, LogBuilder, LogIndex, Segmenter};
use proptest::prelude::*;

fn compile(log: &EventLog, dsl: &str) -> gecco_constraints::CompiledConstraintSet {
    gecco_constraints::CompiledConstraintSet::compile(
        &gecco_constraints::ConstraintSet::parse(dsl).unwrap(),
        log,
    )
    .unwrap()
}

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

fn assert_same(serial: &CandidateSet, parallel: &CandidateSet) {
    assert_eq!(serial.groups(), parallel.groups(), "candidate sets diverge");
    assert_eq!(serial.stats, parallel.stats, "statistics diverge");
    assert_eq!(serial.distances(), parallel.distances(), "distance memos diverge");
}

#[test]
fn exhaustive_parallel_matches_serial() {
    let log = loan_log(40, 3);
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    for dsl in ["", "size(g) <= 3;", "distinct(instance, \"org:role\") <= 1;"] {
        let constraints = compile(&log, dsl);
        let (serial, parallel) =
            both(|| exhaustive_candidates(&ctx, &constraints, Budget::max_checks(3_000)));
        assert_same(&serial, &parallel);
    }
}

#[test]
fn dfg_parallel_matches_serial() {
    let log = loan_log(40, 3);
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    for dsl in ["", "size(g) <= 4;", "distinct(instance, \"org:role\") <= 1;"] {
        let constraints = compile(&log, dsl);
        for beam in [None, Some(BeamWidth::Fixed(8)), Some(BeamWidth::PerClass(5))] {
            let (serial, parallel) = both(|| {
                dfg_candidates(&ctx, &constraints, beam, Budget::max_checks(2_000), &mut NoObserver)
            });
            assert_same(&serial, &parallel);
        }
    }
}

#[test]
fn exclusive_parallel_matches_serial() {
    let log = loan_log(40, 3);
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    let constraints = compile(&log, "size(g) <= 3;");
    let ((serial_added, serial), (parallel_added, parallel)) = both(|| {
        let mut cands = exhaustive_candidates(&ctx, &constraints, Budget::max_checks(2_000));
        let added = extend_with_exclusive_candidates(&ctx, &constraints, &mut cands);
        (added, cands)
    });
    assert_eq!(serial_added, parallel_added);
    assert_same(&serial, &parallel);
}

#[test]
fn distance_is_bit_identical() {
    // Enough traces to cross the parallel threshold (64).
    let log = loan_log(120, 4);
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    let classes: Vec<_> = log.classes().ids().collect();
    let groups: Vec<gecco_eventlog::ClassSet> = (0..classes.len().saturating_sub(1))
        .map(|i| [classes[i], classes[i + 1]].into_iter().collect())
        .collect();
    for group in &groups {
        let (serial, parallel) = both(|| group_distance(&ctx, group, Segmenter::RepeatSplit));
        assert_eq!(
            serial.to_bits(),
            parallel.to_bits(),
            "distance of {group:?} differs between serial and parallel"
        );
    }
}

#[test]
fn budget_exhaustion_is_equivalent() {
    // Tiny budgets stop mid-level; replay must match serial exactly.
    let log = loan_log(30, 2);
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    let constraints = compile(&log, "");
    for max_checks in [1, 3, 7, 20, 95] {
        let (serial, parallel) =
            both(|| exhaustive_candidates(&ctx, &constraints, Budget::max_checks(max_checks)));
        assert_same(&serial, &parallel);
        let (serial, parallel) = both(|| {
            dfg_candidates(
                &ctx,
                &constraints,
                Some(BeamWidth::Fixed(5)),
                Budget::max_checks(max_checks),
                &mut NoObserver,
            )
        });
        assert_same(&serial, &parallel);
    }
}

#[test]
fn prime_leaves_bit_identical_memos_at_every_worker_count() {
    // Every pair and triple of neighbouring classes, with repeats: `prime`
    // sweeps one chunk of groups per worker, so 1, 2 and 4 workers split
    // the batch differently and must still fill the same memo.
    let log = loan_log(120, 4);
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    let classes: Vec<_> = log.classes().ids().collect();
    let mut groups: Vec<ClassSet> = Vec::new();
    for width in [1, 2, 3] {
        for window in classes.windows(width) {
            groups.push(window.iter().copied().collect());
        }
    }
    groups.extend(groups.clone().into_iter().step_by(3));
    for segmenter in [Segmenter::RepeatSplit, Segmenter::NoSplit] {
        let memos: Vec<DistanceMemo> = {
            let _guard = TOGGLE_LOCK.lock().unwrap();
            set_parallel(true);
            let memos = ["1", "2", "4"]
                .into_iter()
                .map(|threads| {
                    std::env::set_var("RAYON_NUM_THREADS", threads);
                    let oracle = DistanceOracle::new(&ctx, segmenter);
                    oracle.prime(groups.iter().copied());
                    oracle.into_memo()
                })
                .collect();
            force_threads();
            memos
        };
        for memo in &memos {
            assert_eq!(memo.len(), memos[0].len());
            for group in &groups {
                let expect = group_distance(&ctx, group, segmenter).to_bits();
                assert_eq!(memo.get(group).map(f64::to_bits), Some(expect), "{group:?}");
            }
        }
    }
}

#[test]
fn fanout_fails_with_the_first_failing_branch() {
    // Branches 1 and 2 both name an attribute the log lacks; the error
    // must be branch 1's whichever worker finishes first.
    let log = loan_log(20, 2);
    let sets: Vec<ConstraintSet> =
        ["size(g) <= 2;", "sum(\"no_such_1\") <= 1;", "sum(\"no_such_2\") <= 1;"]
            .iter()
            .map(|d| ConstraintSet::parse(d).unwrap())
            .collect();
    let _guard = TOGGLE_LOCK.lock().unwrap();
    set_parallel(true);
    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let err = run_fanout(&log, &sets, |g| g).unwrap_err();
        assert!(matches!(err, GeccoError::Compile(_)), "{threads} threads: {err}");
        let message = err.to_string();
        assert!(message.contains("no_such_1"), "{threads} threads: {message}");
        assert!(!message.contains("no_such_2"), "{threads} threads: {message}");
    }
    force_threads();
}

/// Random small logs: up to 5 classes, up to 8 traces of length ≤ 10, with
/// deterministic `v`/`time:timestamp`/`org:role` attributes.
fn arb_log() -> impl Strategy<Value = EventLog> {
    let trace = proptest::collection::vec(0usize..5, 0..=10);
    proptest::collection::vec(trace, 1..=8).prop_map(|traces| {
        let mut b = LogBuilder::new();
        for (i, t) in traces.iter().enumerate() {
            let mut tb = b.trace(&format!("case-{i}"));
            for (j, &cls) in t.iter().enumerate() {
                let role = if cls % 2 == 0 { "even" } else { "odd" };
                tb = tb
                    .event_with(&format!("c{cls}"), |e| {
                        e.str("org:role", role)
                            .timestamp("time:timestamp", (i as i64) * 10_000 + (j as i64) * 100)
                            .int("v", ((i * 31 + j * 7 + cls) % 100) as i64);
                    })
                    .expect("small logs stay within class limits");
            }
            tb.done();
        }
        b.build()
    })
}

/// Renders every trace — the strictest cheap fingerprint of a log.
fn formatted(log: &EventLog) -> Vec<String> {
    log.traces().iter().map(|t| log.format_trace(t)).collect()
}

fn parse_all(dsls: &[&str]) -> Vec<ConstraintSet> {
    dsls.iter().map(|d| ConstraintSet::parse(d).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fanout_matches_independent_passes(log in arb_log()) {
        // "size(g) >= 4; groups >= 3;" is often infeasible: the branch
        // must pass the input through, as a one-set multipass run does.
        let sets = parse_all(&["size(g) <= 2;", "size(g) >= 4; groups >= 3;"]);
        let branches = run_fanout(&log, &sets, |g| g).unwrap();
        prop_assert_eq!(branches.len(), sets.len());
        for (i, branch) in branches.iter().enumerate() {
            let single = run_multipass(&log, &sets[i..i + 1], |g| g).unwrap();
            prop_assert_eq!(branch.report().pass, i);
            prop_assert_eq!(branch.report().feasible, single.reports()[0].feasible);
            prop_assert_eq!(branch.report().groups, single.reports()[0].groups);
            prop_assert_eq!(
                branch.report().distance.to_bits(),
                single.reports()[0].distance.to_bits()
            );
            prop_assert_eq!(formatted(branch.log()), formatted(single.log()));
            prop_assert_eq!(branch.index(), single.index());
        }
    }

    #[test]
    fn parallel_branches_match_serial(log in arb_log()) {
        let sets =
            parse_all(&["size(g) <= 2;", "count(instance) >= 1;", "size(g) >= 4; groups >= 3;"]);
        let (serial, parallel) = both(|| run_fanout(&log, &sets, |g| g).unwrap());
        prop_assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert_eq!(s.report().pass, p.report().pass);
            prop_assert_eq!(s.report().feasible, p.report().feasible);
            prop_assert_eq!(s.report().groups, p.report().groups);
            prop_assert_eq!(s.report().distance.to_bits(), p.report().distance.to_bits());
            prop_assert_eq!(formatted(s.log()), formatted(p.log()));
            prop_assert_eq!(s.index(), p.index());
        }
    }
}
