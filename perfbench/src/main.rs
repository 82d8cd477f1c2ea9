//! End-to-end benchmark: XES bytes in, abstracted XES bytes out.
//!
//! ```text
//! perfbench --workload bulk|store|dense --seed N --seconds S --trace 0|1
//! perfbench --workload NAME --print-pins
//! ```
//!
//! With `--trace 0` the workload's op runs untraced through `Gecco::run`,
//! each time on a freshly set-up input, until the ops have taken about `S`
//! seconds; every output is checked, and the last line of standard output
//! is the JSON result with the end-to-end metrics. With `--trace 1` the
//! same op calls each layer's public functions inside spans and the result
//! carries the per-layer metrics; the spans and counters are also written to
//! `.bench_work/trace-<workload>-seed<N>.json`. `--print-pins` prints the
//! default seed's result in `pins.txt` form. See README.md next to this
//! file.

mod check;
mod stats;
mod trace;
mod workload;

use check::{check_pin, parse_pins, Summary};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{export_json, self_seconds_by_name, total_seconds, Recorder, Span};
use workload::{run_op, set_up, Counters, Input, Scale, Setup, Workload, DEFAULT_SEED};

/// Each workload's result at the default seed.
const PINS: &str = include_str!("../pins.txt");
/// Iterations of the host calibration loop (about 0.1 s).
const CALIB_ITERS: u64 = 40_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Bulk,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        print_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or(format!("unknown workload {name:?} (bulk|store|dense)"))?,
                );
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--print-pins" => args.print_pins = true,
            "--help" | "-h" => {
                println!(
                    "usage: perfbench --workload bulk|store|dense [--seed N] \
                     [--seconds S] [--trace 0|1] [--print-pins]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {}", args.seconds));
    }
    Ok(args)
}

/// Formats a metric value for JSON (non-finite values have no JSON form).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The result line plus what goes to standard error.
struct Report {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    calib_s: (f64, f64),
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// A fixed CPU loop. Timed at the start and end of every run, it tells
/// host drift apart from a regression.
fn calibrate() -> f64 {
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(std::hint::black_box(i));
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The pinned result of `workload`, when `seed` is the default seed.
fn pin_for(workload: Workload, seed: u64) -> Result<Option<Summary>, String> {
    if seed != DEFAULT_SEED {
        return Ok(None);
    }
    let pin = parse_pins(PINS)?.into_iter().find(|p| p.workload == workload.name());
    pin.map(|p| Some(p.summary)).ok_or(format!("pins.txt has no {} line", workload.name()))
}

/// Runs one op, turning an `Err` or a panic into a failure message.
fn attempt(
    setup: &Setup,
    op: usize,
    trace: Option<(&Recorder, &mut Counters)>,
) -> Result<workload::OpRun, String> {
    match catch_unwind(AssertUnwindSafe(|| run_op(setup, trace))) {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err(format!("op {op}: {e}")),
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("op {op}: panicked: {message}"))
        }
    }
}

/// Runs op `op` untraced and checks it against the checks and `pin`.
/// A failure is pushed to `failures`; the op's seconds and result are
/// returned unless it returned `Err` or panicked.
fn untraced_op(
    setup: &Setup,
    op: usize,
    pin: Option<&Summary>,
    failures: &mut Vec<String>,
) -> Option<(f64, Summary)> {
    let run = match attempt(setup, op, None) {
        Ok(run) => run,
        Err(e) => {
            failures.push(e);
            return None;
        }
    };
    let verdict = run.check.and_then(|()| pin.map_or(Ok(()), |pin| check_pin(pin, &run.summary)));
    if let Err(e) = verdict {
        failures.push(format!("op {op}: {e}"));
    }
    Some((run.seconds, run.summary))
}

/// `--trace 0`: end-to-end metrics. Every op gets a freshly set-up input,
/// so the set-ups are spread over the whole run, and the set-ups are kept
/// out of the `--seconds` window.
fn run_untraced(args: &Args, work_dir: &Path) -> Result<Report, String> {
    let calib_start = calibrate();
    let pin = pin_for(args.workload, args.seed)?;
    let mut failures = Vec::new();
    let (mut attempted, mut events, mut measured) = (0, 0, 0.0);
    let (mut setup_seconds, mut op_seconds) = (Vec::new(), Vec::new());
    while attempted == 0 || measured < args.seconds {
        let started = Instant::now();
        let setup = set_up(args.workload, args.seed, &Scale::FULL, work_dir)?;
        setup_seconds.push(started.elapsed().as_secs_f64());
        events = setup.events;
        let started = Instant::now();
        if let Some((seconds, _)) = untraced_op(&setup, attempted, pin.as_ref(), &mut failures) {
            op_seconds.push(seconds);
        }
        measured += started.elapsed().as_secs_f64();
        attempted += 1;
    }
    let calib_end = calibrate();
    if op_seconds.is_empty() {
        return Err(format!("no op completed: {}", failures.join("; ")));
    }
    let total_s = stats::median(&op_seconds);
    eprintln!("setups: {setup_seconds:?}; ops: {} {op_seconds:?}", op_seconds.len());
    let metrics = vec![
        Metric { name: "setup_s", value: stats::mean(&setup_seconds), unit: "s" },
        Metric { name: "total_s", value: total_s, unit: "s" },
        Metric { name: "events_per_s", value: events as f64 / total_s, unit: "1/s" },
        Metric { name: "peak_rss_mb", value: peak_rss_mb()?, unit: "MB" },
    ];
    Ok(Report { attempted, failures, metrics, calib_s: (calib_start, calib_end) })
}

/// Numbers behind the per-layer metrics of one traced op.
struct TracedOp {
    spans: Vec<Span>,
    counters: Counters,
}

/// `--trace 1`: per-layer metrics from spans and stats structs.
fn run_traced(args: &Args, work_dir: &Path) -> Result<Report, String> {
    let calib_start = calibrate();
    let setup = set_up(args.workload, args.seed, &Scale::FULL, work_dir)?;
    let pin = pin_for(args.workload, args.seed)?;
    let mut failures = Vec::new();

    // The untraced reference: its output is what the traced ops must
    // reproduce, and its time is what tracing adds to.
    let reference = untraced_op(&setup, 0, pin.as_ref(), &mut failures);
    let mut attempted = 1;

    let mut ops: Vec<TracedOp> = Vec::new();
    let window = Instant::now();
    loop {
        let op = attempted;
        attempted += 1;
        let recorder = Recorder::new();
        recorder.set_op(u32::try_from(op).expect("op count fits u32"));
        let mut counters = Counters::default();
        let traced = attempt(&setup, op, Some((&recorder, &mut counters)))
            .and_then(|run| run.check.map(|()| run.summary).map_err(|e| format!("op {op}: {e}")));
        match (traced, reference) {
            (Ok(got), Some((_, want))) if got == want => {}
            (Ok(got), want) => failures.push(format!(
                "op {op}: traced result {got:?} differs from untraced {:?}",
                want.map(|(_, summary)| summary)
            )),
            (Err(e), _) => failures.push(format!("traced {e}")),
        }
        ops.push(TracedOp { spans: recorder.into_spans(), counters });
        if window.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let calib_end = calibrate();
    if ops.iter().any(|o| o.counters != ops[0].counters) {
        eprintln!("warning: layer counters differ between traced ops");
    }

    let op_seconds: Vec<BTreeMap<&str, f64>> =
        ops.iter().map(|o| self_seconds_by_name(&o.spans)).collect();
    // Median over traced ops of a layer's summed self time.
    let layer_s = |name: &str| {
        let per_op: Vec<f64> =
            op_seconds.iter().map(|m| m.get(name).copied().unwrap_or(0.0)).collect();
        stats::median(&per_op)
    };
    let traced_totals: Vec<f64> = ops.iter().map(|o| total_seconds(&o.spans, "op")).collect();
    let traced_total = stats::median(&traced_totals);
    eprintln!(
        "traced ops: {} totals {traced_totals:?}; untraced reference {:?}",
        ops.len(),
        reference.map(|(seconds, _)| seconds)
    );

    let c = &ops[0].counters;
    // Bytes read by `parse_bytes` and by `ingest_to_store`.
    let (parsed_bytes, input_bytes) = match &setup.input {
        Input::Bytes(_) => (setup.xes_bytes as f64, 0.0),
        Input::File(_) => (0.0, setup.xes_bytes as f64),
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mb = |bytes: f64| bytes / 1e6;
    let n = |v: usize| v as f64;
    let metrics = vec![
        Metric { name: "host.calib_s", value: (calib_start + calib_end) / 2.0, unit: "s" },
        Metric { name: "traced_total_s", value: traced_total, unit: "s" },
        Metric { name: "xes.parse_s", value: layer_s("xes.parse"), unit: "s" },
        Metric {
            name: "xes.parse_mb_per_s",
            value: ratio(mb(parsed_bytes), layer_s("xes.parse")),
            unit: "MB/s",
        },
        Metric { name: "xes.events", value: n(c.xes_events), unit: "count" },
        Metric { name: "store.ingest_s", value: layer_s("store.ingest"), unit: "s" },
        Metric {
            name: "store.ingest_mb_per_s",
            value: ratio(mb(input_bytes), layer_s("store.ingest")),
            unit: "MB/s",
        },
        Metric { name: "store.index_s", value: layer_s("store.index"), unit: "s" },
        Metric { name: "store.load_s", value: layer_s("store.load"), unit: "s" },
        Metric { name: "store.bytes_written", value: c.store_bytes_written as f64, unit: "bytes" },
        Metric {
            name: "store.bytes_per_input_byte",
            value: ratio(c.store_bytes_written as f64, input_bytes),
            unit: "ratio",
        },
        Metric { name: "store.batches", value: n(c.store_batches), unit: "count" },
        Metric { name: "index.build_s", value: layer_s("index.build"), unit: "s" },
        Metric { name: "constraints.compile_s", value: layer_s("constraints.compile"), unit: "s" },
        Metric { name: "candidates.s", value: layer_s("candidates"), unit: "s" },
        Metric { name: "candidates.checked", value: n(c.candidates_checked), unit: "count" },
        Metric { name: "candidates.satisfied", value: n(c.candidates_satisfied), unit: "count" },
        Metric {
            name: "candidates.yield",
            value: ratio(n(c.candidates_satisfied), n(c.candidates_checked)),
            unit: "ratio",
        },
        Metric {
            name: "candidates.budget_exhausted",
            value: n(c.candidates_budget_exhausted),
            unit: "count",
        },
        Metric { name: "exclusive.s", value: layer_s("exclusive"), unit: "s" },
        Metric { name: "exclusive.added", value: n(c.exclusive_added), unit: "count" },
        Metric { name: "distance.s", value: layer_s("distance"), unit: "s" },
        Metric { name: "distance.evaluations", value: n(c.distance_evaluations), unit: "count" },
        Metric { name: "selection.s", value: layer_s("selection"), unit: "s" },
        Metric { name: "selection.components", value: n(c.selection_components), unit: "count" },
        Metric { name: "selection.fixed_sets", value: n(c.selection_fixed_sets), unit: "count" },
        Metric { name: "selection.unproven", value: n(c.selection_unproven), unit: "count" },
        Metric { name: "colgen.decide_s", value: layer_s("colgen.decide"), unit: "s" },
        Metric { name: "colgen.s", value: layer_s("colgen"), unit: "s" },
        Metric { name: "colgen.lp_solves", value: n(c.colgen_lp_solves), unit: "count" },
        Metric { name: "colgen.pricing_calls", value: n(c.colgen_pricing_calls), unit: "count" },
        Metric { name: "colgen.master_pivots", value: n(c.colgen_master_pivots), unit: "count" },
        Metric {
            name: "colgen.columns_generated",
            value: n(c.colgen_columns_generated),
            unit: "count",
        },
        Metric { name: "colgen.mispricings", value: n(c.colgen_mispricings), unit: "count" },
        Metric {
            name: "pricing.groups_examined",
            value: n(c.pricing_groups_examined),
            unit: "count",
        },
        Metric {
            name: "pricing.columns_emitted",
            value: n(c.pricing_columns_emitted),
            unit: "count",
        },
        Metric {
            name: "pricing.yield",
            value: ratio(n(c.pricing_columns_emitted), n(c.pricing_groups_examined)),
            unit: "ratio",
        },
        Metric { name: "abstraction.s", value: layer_s("abstraction"), unit: "s" },
        Metric {
            name: "abstraction.events_out",
            value: n(c.abstraction_events_out),
            unit: "count",
        },
        Metric { name: "writer.s", value: layer_s("writer"), unit: "s" },
        Metric { name: "writer.bytes_out", value: n(c.writer_bytes_out), unit: "bytes" },
        Metric {
            name: "writer.mb_per_s",
            value: ratio(mb(n(c.writer_bytes_out)), layer_s("writer")),
            unit: "MB/s",
        },
    ];

    let counters: BTreeMap<String, f64> =
        metrics.iter().map(|m| (m.name.to_string(), m.value)).collect();
    let exported: Vec<Vec<Span>> = ops.into_iter().map(|o| o.spans).collect();
    let path = trace_path(args);
    std::fs::write(&path, export_json(args.workload.name(), args.seed, &exported, &counters))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(Report { attempted, failures, metrics, calib_s: (calib_start, calib_end) })
}

const WORK_ROOT: &str = ".bench_work";

fn trace_path(args: &Args) -> PathBuf {
    Path::new(WORK_ROOT).join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed))
}

/// `--print-pins`: the default seed's result as a `pins.txt` line.
fn print_pins(args: &Args, work_dir: &Path) -> Result<(), String> {
    let setup = set_up(args.workload, DEFAULT_SEED, &Scale::FULL, work_dir)?;
    let mut failures = Vec::new();
    let ran = untraced_op(&setup, 0, None, &mut failures);
    match ran {
        Some((_, summary)) if failures.is_empty() => {
            println!("{}", summary.pin_line(args.workload.name()));
            Ok(())
        }
        _ => Err(failures.join("\n")),
    }
}

fn run(args: &Args, work_dir: &Path) -> Result<Option<Report>, String> {
    if args.print_pins {
        return print_pins(args, work_dir).map(|()| None);
    }
    let report =
        if args.trace { run_traced(args, work_dir)? } else { run_untraced(args, work_dir)? };
    Ok(Some(report))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Every layer reads the worker count on each call, so pinning it here,
    // before any work starts, fixes it for the whole run.
    std::env::set_var("RAYON_NUM_THREADS", args.workload.threads().to_string());
    let work_dir =
        Path::new(WORK_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: creating {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &work_dir);
    if let Err(e) = std::fs::remove_dir_all(&work_dir) {
        eprintln!("perfbench: removing {}: {e}", work_dir.display());
    }
    match result {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(report)) => {
            for failure in &report.failures {
                eprintln!("failed: {failure}");
            }
            eprintln!(
                "perfbench: workload={} seed={} threads={} host.calib_s start={} end={}",
                args.workload.name(),
                args.seed,
                args.workload.threads(),
                report.calib_s.0,
                report.calib_s.1
            );
            if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("perfbench: metric {} is not finite", m.name);
                return ExitCode::FAILURE;
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::tests::{scratch_dir, SMALL};

    #[test]
    fn a_wrong_pin_fails_its_op() {
        let dir = scratch_dir("wrong-pin");
        let setup = set_up(Workload::Store, 1, &SMALL, &dir).unwrap();
        let mut failures = Vec::new();
        let (_, right) = untraced_op(&setup, 0, None, &mut failures).expect("op ran");
        assert!(failures.is_empty(), "{failures:?}");
        untraced_op(&setup, 1, Some(&right), &mut failures);
        assert!(failures.is_empty(), "the op's own result passes: {failures:?}");

        let mut wrong = right;
        wrong.digest ^= 1;
        let ran = untraced_op(&setup, 2, Some(&wrong), &mut failures);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("digest"), "{}", failures[0]);
        // The op still ran and was timed; only its verdict failed.
        assert!(ran.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_op_that_errs_counts_as_failed() {
        let dir = scratch_dir("erring-op");
        let setup = set_up(Workload::Store, 1, &SMALL, &dir).unwrap();
        let Input::File(path) = &setup.input else { panic!("store input is a file") };
        std::fs::remove_file(path).unwrap();
        let mut failures = Vec::new();
        assert_eq!(untraced_op(&setup, 0, None, &mut failures), None);
        assert_eq!(failures.len(), 1, "{failures:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_pins_cover_every_workload_once() {
        let pins = parse_pins(PINS).unwrap();
        let names: Vec<&str> = pins.iter().map(|p| p.workload).collect();
        assert_eq!(names, workload::ALL.map(Workload::name));
        for workload in workload::ALL {
            assert!(pin_for(workload, DEFAULT_SEED).unwrap().is_some());
            assert_eq!(pin_for(workload, DEFAULT_SEED + 1), Ok(None));
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failures: vec!["op 1: boom".into()],
            metrics: vec![Metric { name: "total_s", value: 1.25, unit: "s" }],
            calib_s: (0.1, 0.1),
        };
        assert_eq!(
            report.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"total_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
