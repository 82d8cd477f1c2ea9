//! Parallel candidate generation must be indistinguishable from serial —
//! same candidates, same statistics, bit-identical distances.
//!
//! Only meaningful with the `rayon` feature; without it `set_parallel` is a
//! no-op and both runs are serial (the assertions then hold trivially).
//! `RAYON_NUM_THREADS` is forced above the machine's core count so real
//! thread fan-out happens even on single-core CI runners.

use gecco_core::candidates::dfg::{dfg_candidates, NoObserver};
use gecco_core::candidates::exclusive::extend_with_exclusive_candidates;
use gecco_core::candidates::exhaustive::exhaustive_candidates;
use gecco_core::{
    group_distance, set_parallel, BeamWidth, Budget, CandidateSet, DistanceMemo, DistanceOracle,
};
use gecco_datagen::loan_log;
use gecco_eventlog::{ClassSet, EvalContext, EventLog, LogIndex, Segmenter};

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
