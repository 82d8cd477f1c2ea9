//! Instance segmentation (`inst`) and distance evaluation (Eq. 1) costs —
//! the inner loop of candidate checking — scan vs indexed, one group at a
//! time vs one batched sweep over a candidate pool, plus Step-3 index
//! maintenance: incremental splice vs full rebuild.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gecco_constraints::{CompiledConstraintSet, ConstraintSet};
use gecco_core::abstraction::{abstract_log, activity_names, AbstractionStrategy};
use gecco_core::candidates::dfg::{dfg_candidates, NoObserver};
use gecco_core::{group_distance, group_distance_scan, group_distances, Budget, Grouping};
use gecco_datagen::{evaluation_collection, loan_log, CollectionScale};
use gecco_eventlog::{instances, ClassSet, EvalContext, LogIndex, Segmenter};
use std::ops::ControlFlow;

fn bench_instances(c: &mut Criterion) {
    let log = loan_log(200, 3);
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    // A mid-sized group: the first 4 application-system classes.
    let group: ClassSet =
        log.classes().ids().filter(|&cid| log.class_name(cid).starts_with("A_")).take(4).collect();
    let mut g = c.benchmark_group("instances");
    g.bench_function("segment_log_scan", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for t in log.traces() {
                n += instances(t, &group, Segmenter::RepeatSplit).len();
            }
            n
        })
    });
    g.bench_function("segment_log_indexed", |b| {
        b.iter(|| {
            let mut n = 0usize;
            let _: Option<()> = ctx.visit_instances(&group, Segmenter::RepeatSplit, |_, _| {
                n += 1;
                ControlFlow::Continue(())
            });
            n
        })
    });
    g.bench_function("group_distance_scan", |b| {
        b.iter(|| group_distance_scan(&log, &group, Segmenter::RepeatSplit))
    });
    g.bench_function("group_distance_indexed", |b| {
        b.iter(|| group_distance(&ctx, &group, Segmenter::RepeatSplit))
    });
    // One candidate pool (Algorithm 2 under `size(g) <= 4`) scored two
    // ways: a postings walk per group, and one batched sweep over the log.
    let constraints = CompiledConstraintSet::compile(
        &ConstraintSet::parse("size(g) <= 4;").expect("fixed DSL parses"),
        &log,
    )
    .expect("compiles on the loan log");
    let pool = dfg_candidates(&ctx, &constraints, None, Budget::UNLIMITED, &mut NoObserver);
    let pool = pool.groups();
    g.bench_function(BenchmarkId::new("group_distances_batch", "one_at_a_time"), |b| {
        b.iter(|| {
            pool.iter()
                .map(|group| group_distance(&ctx, group, Segmenter::RepeatSplit))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function(BenchmarkId::new("group_distances_batch", "batch"), |b| {
        b.iter(|| group_distances(&log, pool, Segmenter::RepeatSplit))
    });
    g.finish();
    bench_abstraction_index(c);
}

/// Step-3 index maintenance on the 70-class collection log: ending up with
/// `(L', index)` by splicing during the rewrite (`incremental`) vs
/// rebuilding from scratch afterwards (`rebuild`, the pre-incremental
/// behavior of every pipeline pass). The `rebuild` configuration also pays
/// the (cheap) splice `abstract_log` now always performs, so the measured
/// gap *understates* the win slightly.
fn bench_abstraction_index(c: &mut Criterion) {
    let collection = evaluation_collection(CollectionScale::Full);
    let generated =
        collection.into_iter().max_by_key(|g| g.log.num_classes()).expect("collection non-empty");
    let log = generated.log;
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    // A deterministic mid-coarseness grouping: occurring classes chunked
    // five at a time (abstraction itself does not require an exact cover).
    let ids: Vec<_> = gecco_core::grouping::occurring_classes(&log).iter().collect();
    let groups: Vec<ClassSet> =
        ids.chunks(5).map(|chunk| chunk.iter().copied().collect()).collect();
    let grouping = Grouping::new(groups);
    let names = activity_names(&log, &grouping, None);
    let mut g = c.benchmark_group("abstraction_index");
    // The configurations differ by one `LogIndex::build` over the (small)
    // abstracted log; enough samples to keep the median stable against
    // container noise.
    g.sample_size(40);
    g.bench_function(BenchmarkId::new("config", "rebuild"), |b| {
        b.iter(|| {
            let (abstracted, _spliced) = abstract_log(
                &ctx,
                &grouping,
                &names,
                AbstractionStrategy::Completion,
                Segmenter::RepeatSplit,
            );
            LogIndex::build(&abstracted)
        })
    });
    g.bench_function(BenchmarkId::new("config", "incremental"), |b| {
        b.iter(|| {
            let (_abstracted, spliced) = abstract_log(
                &ctx,
                &grouping,
                &names,
                AbstractionStrategy::Completion,
                Segmenter::RepeatSplit,
            );
            spliced
        })
    });
    g.finish();
    // Sanity (debug aid for the bench): the two configurations agree.
    let (abstracted, spliced) = abstract_log(
        &ctx,
        &grouping,
        &names,
        AbstractionStrategy::Completion,
        Segmenter::RepeatSplit,
    );
    assert_eq!(spliced, LogIndex::build(&abstracted));
}

criterion_group!(benches, bench_instances);
criterion_main!(benches);
