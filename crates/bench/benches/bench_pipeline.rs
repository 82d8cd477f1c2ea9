//! End-to-end pipeline runs: one `Gecco::run` pass, and the multi-branch
//! fan-out serial vs parallel.
//!
//! A fan-out's parallel speed-up must come with bit-identical outputs —
//! gecco-core's `parallel_equivalence` suite asserts the identity, this
//! bench watches the speed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gecco_constraints::ConstraintSet;
use gecco_core::{run_fanout, CandidateStrategy, Gecco};
use gecco_datagen::loan_log;

fn role_constraints() -> ConstraintSet {
    ConstraintSet::parse("size(g) <= 4; distinct(instance, \"org:role\") <= 1;").unwrap()
}

fn bench_pipeline(c: &mut Criterion) {
    // Kept deliberately small: each iteration runs candidate generation,
    // MIP selection, and abstraction end to end, and selection cost grows
    // superlinearly with the log.
    let log = loan_log(40, 4);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(5);
    group.bench_function("single_pass", |b| {
        b.iter(|| {
            Gecco::new(&log)
                .constraints(role_constraints())
                .candidates(CandidateStrategy::DfgUnbounded)
                .label_by("org:role")
                .run()
                .unwrap()
        })
    });
    // A three-branch fan-out: independent constraint formulations abstract
    // the same log through one `par_map`. Under the `rayon` feature (on by
    // default here) the branches spread over cores; serial mode pins the
    // baseline. On a single-core host both configurations coincide.
    // Every branch keeps the role cap: without it the candidate pool (and
    // the selection MIP) explodes and the bench stops measuring the
    // fan-out.
    let sets = vec![
        role_constraints(),
        ConstraintSet::parse("size(g) <= 2; distinct(instance, \"org:role\") <= 1;").unwrap(),
        ConstraintSet::parse(
            "size(g) <= 3; count(instance) >= 2; distinct(instance, \"org:role\") <= 1;",
        )
        .unwrap(),
    ];
    #[cfg(feature = "rayon")]
    let modes: &[(&str, bool)] = &[("serial", false), ("parallel", true)];
    #[cfg(not(feature = "rayon"))]
    let modes: &[(&str, bool)] = &[("serial", false)];
    for &(label, enabled) in modes {
        group.bench_with_input(BenchmarkId::new("fanout_3_branches", label), &enabled, |b, &e| {
            gecco_core::set_parallel(e);
            b.iter(|| {
                run_fanout(&log, &sets, |g| {
                    g.candidates(CandidateStrategy::DfgUnbounded).label_by("org:role")
                })
                .unwrap()
            });
            gecco_core::set_parallel(false);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
