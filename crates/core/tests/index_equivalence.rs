//! Property-based equivalence of indexed and scan-based evaluation.
//!
//! The `LogIndex` k-way-merge materialization, the `EvalContext` instance
//! APIs, indexed constraint checking and indexed distance scoring must all
//! be **bit-identical** to the naive full-log scan, on arbitrary logs, for
//! arbitrary groups, under both `Segmenter` modes — and under the `rayon`
//! feature (CI runs this suite with `--features rayon`, where candidate
//! checks and distance accumulation fan out over worker threads).

use gecco_constraints::{CompiledConstraintSet, ConstraintSet};
use gecco_core::{group_distance, group_distance_scan, group_distances};
use gecco_eventlog::{
    instances, log_instances, ClassSet, EvalContext, EventLog, LogBuilder, LogIndex, Segmenter,
};
use proptest::prelude::*;

/// Random small logs: up to 6 classes, up to 10 traces of length ≤ 12.
/// Every event carries deterministic `v`/`time:timestamp` attributes (a
/// function of its coordinates) so aggregate constraints have data, and an
/// `org:role` drawn from the class parity.
fn arb_log() -> impl Strategy<Value = EventLog> {
    arb_traces().prop_map(|traces| build_log(&traces, false))
}

/// The class sequences behind [`arb_log`].
fn arb_traces() -> impl Strategy<Value = Vec<Vec<usize>>> {
    let trace = proptest::collection::vec(0usize..6, 0..=12);
    proptest::collection::vec(trace, 1..=10)
}

/// Builds an [`arb_log`] log; with `ghost`, one more class is registered
/// after the traces that no event has, so groups containing it lack
/// instances or classes.
fn build_log(traces: &[Vec<usize>], ghost: bool) -> EventLog {
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
    if ghost {
        b.class("ghost").expect("small logs stay within class limits");
    }
    b.build()
}

/// All non-empty groups over the log's registered classes (≤ 6 classes, so
/// at most 63 subsets — cheap enough to enumerate exhaustively per case).
fn all_groups(log: &EventLog) -> Vec<ClassSet> {
    let ids: Vec<_> = log.classes().ids().collect();
    (1u32..(1 << ids.len()))
        .map(|mask| {
            ids.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, c)| *c).collect()
        })
        .collect()
}

const CONSTRAINT_SETS: &[&str] = &[
    "count(instance) >= 2;",
    "sum(\"v\") <= 120;",
    "avg(\"v\") <= 50; size(g) <= 3;",
    "atleast 0.5 of instances: sum(\"v\") <= 80;",
    "distinct(instance, \"org:role\") <= 1;",
    "span(\"time:timestamp\") <= 500; gap(\"time:timestamp\") <= 300;",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_instances_match_scan(log in arb_log()) {
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        for segmenter in [Segmenter::RepeatSplit, Segmenter::NoSplit] {
            for group in all_groups(&log) {
                for (ti, trace) in log.traces().iter().enumerate() {
                    prop_assert_eq!(
                        ctx.instances_in(ti, &group, segmenter),
                        instances(trace, &group, segmenter),
                        "instances_in diverges on trace {} group {:?}", ti, group
                    );
                }
                let scan: Vec<_> = log_instances(&log, &group, segmenter).collect();
                prop_assert_eq!(ctx.log_instances(&group, segmenter), scan);
            }
        }
    }

    #[test]
    fn indexed_verdicts_match_scan(log in arb_log()) {
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let groups = all_groups(&log);
        for (dsl, segmenter) in CONSTRAINT_SETS
            .iter()
            .flat_map(|d| [(d, Segmenter::RepeatSplit), (d, Segmenter::NoSplit)])
        {
            let Ok(spec) = ConstraintSet::parse(dsl) else { unreachable!("fixed DSL parses") };
            // Logs whose traces never produced the attribute reject
            // compilation (UnknownAttribute) — nothing to compare there.
            let Ok(cs) = CompiledConstraintSet::compile_with(&spec, &log, segmenter) else {
                continue;
            };
            for group in &groups {
                let scan = cs.check_instances_scan(group, &log);
                prop_assert_eq!(cs.check_instances(group, &ctx), scan,
                    "indexed check diverges: {} on {:?}", dsl, group);
                prop_assert_eq!(cs.holds(group, &ctx), cs.holds_scan(group, &log));
            }
        }
    }

    #[test]
    fn indexed_occurs_matches_bitmap_scan(log in arb_log()) {
        let index = LogIndex::build(&log);
        // Every non-empty group over the registered classes — covering
        // single-class groups and groups no trace fully contains — plus the
        // empty group, must agree with the all-trace-bitmaps scan.
        for group in all_groups(&log) {
            prop_assert_eq!(
                index.occurs(&group),
                log.occurs(&group),
                "indexed occurs diverges on {:?}", group
            );
        }
        prop_assert_eq!(index.occurs(&ClassSet::EMPTY), log.occurs(&ClassSet::EMPTY));
    }

    #[test]
    fn indexed_distance_matches_scan(case in (arb_traces(), arb_batches())) {
        // The postings walk, the scan and the batched sweep agree bit for
        // bit, with a registered class no event has (its groups score
        // INFINITY or count it as missing).
        let (traces, batches) = case;
        let log = build_log(&traces, true);
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let ghost = log.class_by_name("ghost").expect("registered");
        let groups = all_groups(&log);
        for segmenter in [Segmenter::RepeatSplit, Segmenter::NoSplit] {
            let batched = group_distances(&log, &groups, segmenter);
            prop_assert_eq!(batched.len(), groups.len());
            for (group, swept) in groups.iter().zip(&batched) {
                let indexed = group_distance(&ctx, group, segmenter);
                let scan = group_distance_scan(&log, group, segmenter);
                prop_assert!(
                    indexed.to_bits() == scan.to_bits(),
                    "distance diverges on {:?}: {} vs {}", group, indexed, scan
                );
                prop_assert!(
                    swept.to_bits() == indexed.to_bits(),
                    "batched distance diverges on {:?}: {} vs {}", group, swept, indexed
                );
            }
            prop_assert_eq!(
                group_distances(&log, &[ClassSet::singleton(ghost)], segmenter),
                vec![f64::INFINITY]
            );
            // Sub-batches with repeats (the first pick always comes twice):
            // each entry is its group's distance, whatever shares the sweep.
            for picks in &batches {
                let mut batch: Vec<ClassSet> =
                    picks.iter().map(|&p| groups[p % groups.len()]).collect();
                batch.push(batch[0]);
                let swept = group_distances(&log, &batch, segmenter);
                for (group, d) in batch.iter().zip(&swept) {
                    let single = group_distance(&ctx, group, segmenter);
                    prop_assert!(
                        d.to_bits() == single.to_bits(),
                        "sub-batch distance diverges on {:?}: {} vs {}", group, d, single
                    );
                }
            }
        }
    }
}

/// Random sub-batches of group indexes (taken modulo the group count),
/// long enough to repeat groups.
fn arb_batches() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..1024, 1..=40), 1..=4)
}
