//! Candidate-computation scaling: Algorithm 1 vs Algorithm 2, plus the
//! ablations DESIGN.md calls out (beam width sweep, pruning modes) and the
//! scan-vs-indexed candidate-check comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gecco_constraints::{CompiledConstraintSet, ConstraintSet};
use gecco_core::candidates::dfg::{dfg_candidates, NoObserver};
use gecco_core::candidates::exhaustive::exhaustive_candidates;
use gecco_core::{BeamWidth, Budget};
use gecco_datagen::{evaluation_collection, loan_log, CollectionScale};
use gecco_eventlog::{ClassSet, Dfg, EvalContext, EventLog, LogIndex};

fn compile(log: &EventLog, dsl: &str) -> CompiledConstraintSet {
    CompiledConstraintSet::compile(&ConstraintSet::parse(dsl).unwrap(), log).unwrap()
}

fn bench_candidates(c: &mut Criterion) {
    let log = loan_log(100, 4);
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    let anti = compile(&log, "size(g) <= 4; distinct(instance, \"org:role\") <= 1;");
    let budget = Budget::max_checks(2_000);
    let mut group = c.benchmark_group("candidates");
    group.sample_size(10);
    group.bench_function("exhaustive_anti_monotonic", |b| {
        b.iter(|| exhaustive_candidates(&ctx, &anti, budget))
    });
    group.bench_function("dfg_unbounded", |b| {
        b.iter(|| dfg_candidates(&ctx, &anti, None, budget, &mut NoObserver))
    });
    // Ablation: beam width sweep (the paper's k = 5·|C_L| vs narrower).
    for k in [1usize, 24, 120] {
        group.bench_with_input(BenchmarkId::new("dfg_beam", k), &k, |b, &k| {
            b.iter(|| {
                dfg_candidates(&ctx, &anti, Some(BeamWidth::Fixed(k)), budget, &mut NoObserver)
            })
        });
    }
    // Ablation: constraint-checking-mode pruning. The same size bound
    // expressed monotonically (>=1, trivially true) disables anti-monotonic
    // pruning and forces full expansion under the same budget.
    let no_prune = compile(&log, "size(g) >= 1;");
    group.bench_function("exhaustive_no_anti_pruning", |b| {
        b.iter(|| exhaustive_candidates(&ctx, &no_prune, budget))
    });
    // Serial vs chunk-parallel hot path (gecco-core feature `rayon`, on by
    // default for this crate): identical work and bit-identical output,
    // toggled at runtime. Thread count follows RAYON_NUM_THREADS/cores; on
    // a single-core host the parallel configuration falls back to serial.
    #[cfg(feature = "rayon")]
    {
        let heavy = loan_log(400, 4);
        let heavy_index = LogIndex::build(&heavy);
        let heavy_ctx = EvalContext::new(&heavy, &heavy_index);
        let heavy_anti = compile(&heavy, "size(g) <= 4; distinct(instance, \"org:role\") <= 1;");
        let heavy_budget = Budget::max_checks(4_000);
        for (label, enabled) in [("serial", false), ("parallel", true)] {
            group.bench_with_input(
                BenchmarkId::new("dfg_unbounded_mode", label),
                &enabled,
                |b, &enabled| {
                    gecco_core::set_parallel(enabled);
                    b.iter(|| {
                        dfg_candidates(&heavy_ctx, &heavy_anti, None, heavy_budget, &mut NoObserver)
                    });
                    gecco_core::set_parallel(true);
                },
            );
            group.bench_with_input(
                BenchmarkId::new("exhaustive_mode", label),
                &enabled,
                |b, &enabled| {
                    gecco_core::set_parallel(enabled);
                    b.iter(|| exhaustive_candidates(&heavy_ctx, &heavy_anti, heavy_budget));
                    gecco_core::set_parallel(true);
                },
            );
        }
    }
    group.finish();
    bench_dfg_build(c);
    bench_check_modes(c);
}

/// DFG construction: the event-by-event log scan vs the postings-based
/// rebuild from the `LogIndex` the pipeline already owns. The candidate
/// stage always has the index at hand, so `from_index` is what Step 1 now
/// calls; `from_log` remains for index-free callers and as the oracle.
fn bench_dfg_build(c: &mut Criterion) {
    let log = loan_log(400, 4);
    let index = LogIndex::build(&log);
    let mut group = c.benchmark_group("dfg_build");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("mode", "scan"), |b| b.iter(|| Dfg::from_log(&log)));
    group.bench_function(BenchmarkId::new("mode", "postings"), |b| {
        b.iter(|| Dfg::from_index(&log, &index))
    });
    group.finish();
}

/// Scan vs indexed per-candidate checks on a collection
/// workload: 70 event classes over 90 traces, so the typical candidate's
/// classes occur in only a small fraction of the traces — exactly the shape
/// where the full-log scan wastes its time on foreign traces.
fn bench_check_modes(c: &mut Criterion) {
    let collection = evaluation_collection(CollectionScale::Full);
    let generated =
        collection.into_iter().max_by_key(|g| g.log.num_classes()).expect("collection non-empty");
    let log = generated.log;
    let index = LogIndex::build(&log);
    let constraints =
        compile(&log, "size(g) <= 4; distinct(instance, \"org:role\") <= 1; count(instance) >= 1;");
    // A realistic candidate pool: every occurring singleton plus every
    // DFG-adjacent pair (what the first two beam iterations examine).
    let dfg = Dfg::from_log(&log);
    let mut pool: Vec<ClassSet> =
        gecco_core::grouping::occurring_classes(&log).iter().map(ClassSet::singleton).collect();
    for (a, b, _) in dfg.edges() {
        if a != b {
            pool.push([a, b].into_iter().collect());
        }
    }
    let mut group = c.benchmark_group("candidate_checks");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("mode", "scan"), |b| {
        b.iter(|| pool.iter().filter(|g| constraints.holds_scan(g, &log)).count())
    });
    group.bench_function(BenchmarkId::new("mode", "indexed"), |b| {
        let ctx = EvalContext::new(&log, &index);
        b.iter(|| pool.iter().filter(|g| constraints.holds(g, &ctx)).count())
    });
    group.finish();
    // Sanity: both modes agree (cheap here; a debug aid for the bench).
    let ctx = EvalContext::new(&log, &index);
    for g in &pool {
        assert_eq!(constraints.holds(g, &ctx), constraints.holds_scan(g, &log));
    }
    bench_occurs_modes(c, &log, &index);
}

/// `occurs(g, L)` on an expansion-shaped workload: all pairs over the
/// occurring classes — exactly what Algorithms 1/2 probe when growing
/// candidates. `scan` tests trace class bitmaps (early exit on the first
/// hit), `indexed` gallops through the classes' trace-id run lists,
/// `adaptive` is the `EvalContext::occurs` dispatch candidate expansion
/// actually uses.
///
/// Two regimes: the 90-trace collection log, where the scan's early exit
/// wins, and a sharded multi-process build (3 shards × 40 replications:
/// 210 shard-local classes over 10800 traces), where most pairs never
/// co-occur — the scan pays a full pass over every trace bitmap per such
/// pair while the galloping cursors detect the disjoint run blocks in a
/// few jumps. The adaptive mode must sit near the winner on both.
fn bench_occurs_modes(c: &mut Criterion, log: &EventLog, index: &LogIndex) {
    let sharded = sharded_log(log, 3, 40);
    let sharded_index = LogIndex::build(&sharded);
    for (label, log, index) in [("90tr", log, index), ("sharded_10800tr", &sharded, &sharded_index)]
    {
        let ctx = EvalContext::new(log, index);
        let classes: Vec<_> = gecco_core::grouping::occurring_classes(log).iter().collect();
        let mut pairs: Vec<ClassSet> = Vec::new();
        for (i, &a) in classes.iter().enumerate() {
            for &b in classes.iter().skip(i + 1) {
                pairs.push([a, b].into_iter().collect());
            }
        }
        let mut group = c.benchmark_group(format!("occurs_{label}"));
        group.sample_size(10);
        group.bench_function(BenchmarkId::new("mode", "scan"), |b| {
            b.iter(|| pairs.iter().filter(|g| log.occurs(g)).count())
        });
        group.bench_function(BenchmarkId::new("mode", "indexed"), |b| {
            b.iter(|| pairs.iter().filter(|g| index.occurs(g)).count())
        });
        group.bench_function(BenchmarkId::new("mode", "adaptive"), |b| {
            b.iter(|| pairs.iter().filter(|g| ctx.occurs(g)).count())
        });
        group.finish();
        // Sanity: all modes agree on every pair.
        for g in &pairs {
            assert_eq!(index.occurs(g), log.occurs(g));
            assert_eq!(ctx.occurs(g), log.occurs(g));
        }
    }
}

/// Builds a multi-process event store from `log`: `shards` copies with
/// shard-local class names (`rcp#0`, `rcp#1`, …), each shard's traces
/// replicated `reps` times. Classes never cross shards, so the trace count
/// grows `shards × reps`-fold while every class's selectivity stays
/// shard-local — the co-occurrence shape of a store serving many processes.
fn sharded_log(log: &EventLog, shards: usize, reps: usize) -> EventLog {
    let mut b = gecco_eventlog::LogBuilder::new();
    for rep in 0..reps {
        for shard in 0..shards {
            for (i, trace) in log.traces().iter().enumerate() {
                let mut tb = b.trace(&format!("s{shard}-r{rep}-c{i}"));
                for event in trace.events() {
                    tb = tb
                        .event(&format!("{}#{shard}", log.class_name(event.class())))
                        .expect("shards × classes stay within MAX_CLASSES");
                }
                tb.done();
            }
        }
    }
    b.build()
}

criterion_group!(benches, bench_candidates);
criterion_main!(benches);
