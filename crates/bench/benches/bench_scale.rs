//! Production-scale end-to-end bench: streaming log generation throughput
//! plus enumerated-vs-column-generation Step-2 selection as the candidate
//! pool outgrows enumeration.
//!
//! Four groups:
//! * `datagen_stream` — chunked simulate-and-serialize throughput
//!   ([`write_xes_stream`] into a sink), the path the `datagen` binary
//!   drives for million-trace logs;
//! * `scale_enumerated` — full pool enumeration + presolved solve, on
//!   production trees of growing class count (the route that stops
//!   scaling: its cost is proportional to the pool);
//! * `scale_colgen` — the lazy route on the same logs plus a class count
//!   past the enumerated sweep. The run prints `pool=` lines so the
//!   enumerated-pool / priced-columns ratio behind the ≥10× claim is
//!   visible in the output;
//! * `scale_dense` — the headline configs (`size(g) ≤ 6`, trace length
//!   scaled with the class count). On a 2-core VM the enumerated route
//!   needs 17.1 s on the 16-class instance (pool 11,541), where column
//!   generation takes 300 ms; the enumerated route did not finish a
//!   400 s calibration timeout on the 32-class one (pool 122,992), and
//!   column generation solves that pool — 10.7× the largest
//!   enumerated-handled pool — in 39.5 s with the warm-started revised
//!   master. The group also sweeps the master phase on the 16-class
//!   instance: `master/{dense,revised}` (1.04 s against 197 ms).
//!
//! `GECCO_SCALE=smoke` shrinks every size for CI (and skips the dense
//! group); `GECCO_SCALE=deep` additionally runs the 40-class instance
//! whose implicit pool holds 4.6M candidates (enumeration alone takes
//! ~158 s; the colgen solve runs for hours — budget accordingly).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gecco_constraints::{CompiledConstraintSet, ConstraintSet};
use gecco_core::candidates::exhaustive::exhaustive_candidates;
use gecco_core::{
    select_optimal, select_optimal_colgen, Budget, ColGenMode, DistanceOracle, MasterEngine,
    SelectionOptions,
};
use gecco_datagen::{production_tree, simulate, write_xes_stream, SimulationOptions};
use gecco_eventlog::{EvalContext, EventLog, LogIndex, Segmenter};

fn smoke() -> bool {
    std::env::var("GECCO_SCALE").is_ok_and(|v| v == "smoke")
}

fn sim_options(num_traces: usize) -> SimulationOptions {
    SimulationOptions { num_traces, seed: 77, ..Default::default() }
}

/// A production log over `classes` event classes.
fn production_log(classes: usize, traces: usize) -> EventLog {
    let tree = production_tree(classes, 12, 0xACE + classes as u64);
    simulate(&tree, &sim_options(traces))
}

fn compile(log: &EventLog) -> CompiledConstraintSet {
    // The paper-style shape constraint: bounded group size keeps both
    // routes on the same implicit pool (all co-occurring groups of ≤ 4
    // classes that hold), which still grows combinatorially in |C_L|.
    CompiledConstraintSet::compile(&ConstraintSet::parse("size(g) <= 4;").unwrap(), log).unwrap()
}

fn bench_datagen_stream(c: &mut Criterion) {
    let (traces, chunk) = if smoke() { (500, 100) } else { (5_000, 1_000) };
    let tree = production_tree(40, 12, 7);
    // Event count for throughput reporting (same seed as the measured run).
    let events = simulate(&tree, &sim_options(traces)).num_events() as u64;

    let mut group = c.benchmark_group("datagen_stream");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events));
    group.bench_function(BenchmarkId::new("production", traces), |b| {
        b.iter(|| {
            let mut sink = std::io::sink();
            write_xes_stream(&tree, &sim_options(traces), chunk, &mut sink).unwrap()
        })
    });
    group.finish();
}

fn bench_scale_selection(c: &mut Criterion) {
    // Class counts. The enumerated route materializes and prices the whole
    // pool, so it only gets the small end; colgen continues past it.
    let (enumerated_sizes, colgen_sizes, traces): (&[usize], &[usize], usize) = if smoke() {
        (&[8, 12], &[8, 12, 20], 60)
    } else {
        (&[8, 12, 16, 20], &[8, 12, 16, 20, 28], 100)
    };

    let mut group = c.benchmark_group("scale_enumerated");
    // Full-preset solves run whole seconds; a handful of samples is enough.
    group.sample_size(3);
    for &classes in enumerated_sizes {
        let log = production_log(classes, traces);
        let compiled = compile(&log);
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let pool = exhaustive_candidates(&ctx, &compiled, Budget::UNLIMITED);
        println!("pool= classes={classes} enumerated_pool={}", pool.len());
        group.bench_with_input(BenchmarkId::new("classes", classes), &log, |b, log| {
            b.iter(|| {
                let pool = exhaustive_candidates(&ctx, &compiled, Budget::UNLIMITED);
                select_optimal(
                    log,
                    pool.groups(),
                    &oracle,
                    compiled.group_count_bounds(),
                    SelectionOptions::default(),
                )
                .expect("feasible")
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scale_colgen");
    group.sample_size(3);
    for &classes in colgen_sizes {
        let log = production_log(classes, traces);
        let compiled = compile(&log);
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let options = SelectionOptions { column_generation: ColGenMode::On, ..Default::default() };
        let selection =
            select_optimal_colgen(&log, &compiled, &oracle, compiled.group_count_bounds(), options)
                .expect("feasible");
        let pricing = selection.pricing.expect("lazy route ran");
        println!(
            "pool= classes={classes} colgen_examined={} columns_emitted={} sketch_pruned={}",
            pricing.groups_examined, pricing.columns_emitted, pricing.sketch_pruned
        );
        group.bench_with_input(BenchmarkId::new("classes", classes), &log, |b, log| {
            b.iter(|| {
                select_optimal_colgen(
                    log,
                    &compiled,
                    &oracle,
                    compiled.group_count_bounds(),
                    options,
                )
                .expect("feasible")
            })
        });
    }
    group.finish();
}

/// The headline comparison: `size(g) ≤ 6` with trace length scaled to
/// the class count, the configuration where the enumerated route falls
/// over while the lazy route keeps pricing only the columns it needs.
fn bench_scale_dense(c: &mut Criterion) {
    if smoke() {
        return;
    }
    let deep = std::env::var("GECCO_SCALE").is_ok_and(|v| v == "deep");
    // (classes, target trace length). 16 → pool 11,541; 32 → 122,992;
    // 40 → 4,598,478 (enumeration alone takes ~158 s, hence deep-only).
    let enumerated_configs: &[(usize, usize)] = &[(16, 16)];
    let colgen_configs: &[(usize, usize)] =
        if deep { &[(16, 16), (32, 24), (40, 24)] } else { &[(16, 16), (32, 24)] };
    let traces = 100;

    let dense_log = |classes: usize, len: usize| {
        let tree = production_tree(classes, len, 0xACE + classes as u64);
        simulate(&tree, &sim_options(traces))
    };
    let dense_compile = |log: &EventLog| {
        CompiledConstraintSet::compile(&ConstraintSet::parse("size(g) <= 6;").unwrap(), log)
            .unwrap()
    };

    let mut group = c.benchmark_group("scale_dense");
    // Individual solves run for seconds to minutes; one calibrated sample
    // (plus the warmup call) is plenty for a median at this scale.
    group.sample_size(1);
    for &(classes, len) in enumerated_configs {
        let log = dense_log(classes, len);
        let compiled = dense_compile(&log);
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let pool = exhaustive_candidates(&ctx, &compiled, Budget::UNLIMITED);
        println!("pool= dense classes={classes} enumerated_pool={}", pool.len());
        group.bench_with_input(BenchmarkId::new("enumerated", classes), &log, |b, log| {
            b.iter(|| {
                let pool = exhaustive_candidates(&ctx, &compiled, Budget::UNLIMITED);
                select_optimal(
                    log,
                    pool.groups(),
                    &oracle,
                    compiled.group_count_bounds(),
                    SelectionOptions::default(),
                )
                .expect("feasible")
            })
        });
    }
    for &(classes, len) in colgen_configs {
        let log = dense_log(classes, len);
        let compiled = dense_compile(&log);
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let options = SelectionOptions { column_generation: ColGenMode::On, ..Default::default() };
        group.bench_with_input(BenchmarkId::new("colgen", classes), &log, |b, log| {
            b.iter(|| {
                select_optimal_colgen(
                    log,
                    &compiled,
                    &oracle,
                    compiled.group_count_bounds(),
                    options,
                )
                .expect("feasible")
            })
        });
        let selection =
            select_optimal_colgen(&log, &compiled, &oracle, compiled.group_count_bounds(), options)
                .expect("feasible");
        let pricing = selection.pricing.expect("lazy route ran");
        println!(
            "pool= dense classes={classes} colgen_examined={} columns_emitted={} sketch_pruned={}",
            pricing.groups_examined, pricing.columns_emitted, pricing.sketch_pruned
        );
    }
    // Master-phase sweep: dense tableau versus warm-started revised
    // simplex on the 16-class instance. (Both return bit-identical
    // selections — the equivalence suites assert that — so this isolates
    // the master solve cost; the 32-class dense master alone would
    // dominate the whole bench run, hence the small instance.)
    let (classes, len) = (16usize, 16usize);
    let log = dense_log(classes, len);
    let compiled = dense_compile(&log);
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
    for (name, master) in
        [("master/revised", MasterEngine::Revised), ("master/dense", MasterEngine::Dense)]
    {
        let options = SelectionOptions {
            column_generation: ColGenMode::On,
            colgen_master: master,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new(name, classes), &log, |b, log| {
            b.iter(|| {
                select_optimal_colgen(
                    log,
                    &compiled,
                    &oracle,
                    compiled.group_count_bounds(),
                    options,
                )
                .expect("feasible")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_datagen_stream, bench_scale_selection, bench_scale_dense);
criterion_main!(benches);
