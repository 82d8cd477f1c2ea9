//! Ingestion throughput of the chunked XES and CSV pipelines, serial and
//! parallel, on a generated multi-MB log.
//!
//! `chunked_serial` / `chunked_rayon` run the live `gecco_eventlog`
//! pipeline with the process-wide parallelism toggle
//! ([`gecco_eventlog::set_parallel`]) off / on. The frozen pre-pipeline
//! parser these configs were first measured against is gone; its numbers
//! stay in the README's ingestion section.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gecco_datagen::loan_log;
use gecco_eventlog::{csv, set_parallel, xes};

fn bench_parse(c: &mut Criterion) {
    // ~1000 loan traces serialize to a multi-MB XES document.
    let log = loan_log(1000, 1);
    let text = xes::write_string(&log);
    let mb = text.len() as f64 / 1e6;

    let mut group = c.benchmark_group(format!("xes_parse_{mb:.1}MB"));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    set_parallel(false);
    group.bench_with_input("chunked_serial", &text, |b, text| {
        b.iter(|| xes::parse_str(text).expect("valid"));
    });
    set_parallel(true);
    group.bench_with_input("chunked_rayon", &text, |b, text| {
        b.iter(|| xes::parse_str(text).expect("valid"));
    });
    group.finish();
}

fn bench_csv(c: &mut Criterion) {
    let log = loan_log(1000, 1);
    let text = csv::write_string(&log);
    let mb = text.len() as f64 / 1e6;
    let options = csv::CsvOptions::default();

    let mut group = c.benchmark_group(format!("csv_read_{mb:.1}MB"));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    set_parallel(false);
    group.bench_with_input("chunked_serial", &text, |b, text| {
        b.iter(|| csv::read_str(text, &options).expect("valid"));
    });
    set_parallel(true);
    group.bench_with_input("chunked_rayon", &text, |b, text| {
        b.iter(|| csv::read_str(text, &options).expect("valid"));
    });
    group.finish();
}

criterion_group!(benches, bench_parse, bench_csv);
criterion_main!(benches);
