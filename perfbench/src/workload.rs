//! The workloads: inputs made from a seed (set-up), and the op that turns
//! those XES bytes into abstracted XES bytes, untraced through the graph
//! route ([`Gecco::run`]) or traced layer by layer.

use crate::check::{check_grouping, check_infeasible, digest, Summary};
use crate::trace::Recorder;
use gecco_constraints::{CompiledConstraintSet, ConstraintSet, Diagnostics};
use gecco_core::abstraction::{abstract_log, activity_names};
use gecco_core::candidates::dfg::{dfg_candidates, NoObserver};
use gecco_core::candidates::exclusive::extend_with_exclusive_candidates;
use gecco_core::{
    select_optimal, select_optimal_colgen, use_column_generation, AbstractionStrategy, Budget,
    ColGenMode, DistanceOracle, Gecco, Grouping, Outcome, SelectionOptions,
};
use gecco_datagen::{production_tree, write_xes_stream, SimulationOptions};
use gecco_eventlog::xes::{parse_bytes, write_string};
use gecco_eventlog::{ingest_to_store, EvalContext, EventLog, IngestOptions, LogIndex, Segmenter};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed whose results `pins.txt` records.
pub const DEFAULT_SEED: u64 = 0;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 20,000 `production` traces parsed from memory: every layer of the
    /// in-memory route takes a real share.
    Bulk,
    /// 100,000 `lean` traces through the streaming ingest and the on-disk
    /// store.
    Store,
    /// The 16-class `scale_dense` instance, solved by column generation.
    Dense,
}

/// Every workload, in documentation order.
pub const ALL: [Workload; 3] = [Workload::Bulk, Workload::Store, Workload::Dense];

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Store => "store",
            Workload::Dense => "dense",
        }
    }

    /// Worker threads the workload pins (`RAYON_NUM_THREADS`).
    pub fn threads(self) -> usize {
        match self {
            Workload::Bulk | Workload::Store => 2,
            Workload::Dense => 1,
        }
    }
}

/// Input sizes. The benchmark runs [`Scale::FULL`]; tests use smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Traces of the `bulk` log.
    pub bulk_traces: usize,
    /// Traces of the `store` log.
    pub store_traces: usize,
    /// Traces of the `dense` log.
    pub dense_traces: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale { bulk_traces: 20_000, store_traces: 100_000, dense_traces: 100 };
}

/// Simulation seed of the `production` and `lean` logs at the default
/// seed: `datagen`'s default, so `--seed 0` reproduces
/// `datagen --preset production --traces 20000` byte for byte.
const DATAGEN_SEED: u64 = 7;
/// Simulation seed of the `scale_dense` log in `bench_scale`.
const DENSE_SEED: u64 = 77;
/// How far each `dense` seed moves the log's start date.
const DAY_MS: i64 = 86_400_000;
/// `dense` start dates cycle through this many days (about a century),
/// so every seed, however large, gives timestamps the XES reader accepts.
const DENSE_START_DAYS: u64 = 36_500;
/// Traces per ingest batch on `store`, as in the CI ingestion smoke.
const STORE_BATCH_TRACES: usize = 4096;

/// The constraints of one op. Step 1 always runs with
/// [`Budget::UNLIMITED`], `Gecco::run`'s default.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Constraint DSL.
    pub dsl: &'static str,
    /// Step-2 options.
    pub selection: SelectionOptions,
}

impl Problem {
    fn of(workload: Workload) -> Problem {
        match workload {
            Workload::Bulk | Workload::Store => {
                Problem { dsl: "size(g) <= 4;", selection: SelectionOptions::default() }
            }
            Workload::Dense => Problem {
                dsl: "size(g) <= 6;",
                selection: SelectionOptions {
                    column_generation: ColGenMode::Auto,
                    ..SelectionOptions::default()
                },
            },
        }
    }
}

/// The generated input of a workload.
pub enum Input {
    /// XES bytes in memory (`bulk`, `dense`).
    Bytes(Vec<u8>),
    /// An XES file (`store`).
    File(PathBuf),
}

/// A set-up workload.
pub struct Setup {
    /// Which workload.
    pub workload: Workload,
    /// Its input.
    pub input: Input,
    /// Events one op reads.
    pub events: usize,
    /// XES bytes one op reads.
    pub xes_bytes: u64,
    /// Where `store` writes its store directory.
    work_dir: PathBuf,
}

fn simulated_xes<W: Write>(
    classes: usize,
    target_len: usize,
    tree_seed: u64,
    options: &SimulationOptions,
    out: &mut W,
) -> std::io::Result<usize> {
    let tree = production_tree(classes, target_len, tree_seed);
    Ok(write_xes_stream(&tree, options, 10_000, out)?.events)
}

/// Generates `workload`'s input from `seed`. On `bulk` and `store` the
/// seed picks the simulated sample of a fixed process model; on `dense`
/// it moves the start date of a fixed sample.
pub fn set_up(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    work_dir: &Path,
) -> Result<Setup, String> {
    let sample = |base: u64, traces: usize, name: &str| SimulationOptions {
        num_traces: traces,
        seed: base.wrapping_add(seed),
        log_name: name.to_string(),
        ..SimulationOptions::default()
    };
    let work_dir = work_dir.to_path_buf();
    match workload {
        Workload::Bulk => {
            let traces = scale.bulk_traces;
            let options = sample(DATAGEN_SEED, traces, &format!("synthetic-production-{traces}"));
            let mut xes = Vec::new();
            let events = simulated_xes(40, 12, DATAGEN_SEED, &options, &mut xes)
                .map_err(|e| format!("generating bulk: {e}"))?;
            let xes_bytes = xes.len() as u64;
            Ok(Setup { workload, input: Input::Bytes(xes), events, xes_bytes, work_dir })
        }
        Workload::Dense => {
            // Column generation's path, and with it its cost, swings with
            // the sample and even with the order of the traces (the
            // distances' last bits steer pricing), so the sample is
            // `bench_scale`'s and the seed only moves its start date.
            let options = SimulationOptions {
                num_traces: scale.dense_traces,
                seed: DENSE_SEED,
                start_time: SimulationOptions::default().start_time
                    + DAY_MS * (seed % DENSE_START_DAYS) as i64,
                ..SimulationOptions::default()
            };
            let mut xes = Vec::new();
            let events = simulated_xes(16, 16, 0xACE + 16, &options, &mut xes)
                .map_err(|e| format!("generating dense: {e}"))?;
            let xes_bytes = xes.len() as u64;
            Ok(Setup { workload, input: Input::Bytes(xes), events, xes_bytes, work_dir })
        }
        Workload::Store => {
            let traces = scale.store_traces;
            let options = sample(DATAGEN_SEED, traces, &format!("synthetic-lean-{traces}"));
            let path = work_dir.join("store-input.xes");
            let write = || -> std::io::Result<usize> {
                let mut out = BufWriter::new(std::fs::File::create(&path)?);
                let events = simulated_xes(8, 3, DATAGEN_SEED, &options, &mut out)?;
                out.flush()?;
                Ok(events)
            };
            let events = write().map_err(|e| format!("writing {}: {e}", path.display()))?;
            let xes_bytes = std::fs::metadata(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?
                .len();
            Ok(Setup { workload, input: Input::File(path), events, xes_bytes, work_dir })
        }
    }
}

/// Counts read from the stats structs the layers return. They repeat
/// exactly from op to op.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub xes_events: usize,
    pub store_bytes_written: u64,
    pub store_batches: usize,
    pub candidates_checked: usize,
    pub candidates_satisfied: usize,
    pub candidates_budget_exhausted: usize,
    pub exclusive_added: usize,
    pub distance_evaluations: usize,
    pub selection_components: usize,
    pub selection_fixed_sets: usize,
    pub selection_unproven: usize,
    pub colgen_lp_solves: usize,
    pub colgen_pricing_calls: usize,
    pub colgen_master_pivots: usize,
    pub colgen_columns_generated: usize,
    pub colgen_mispricings: usize,
    pub pricing_groups_examined: usize,
    pub pricing_columns_emitted: usize,
    pub abstraction_events_out: usize,
    pub writer_bytes_out: usize,
}

/// The result of one op: its latency and what it produced, checked.
#[derive(Debug, Clone)]
pub struct OpRun {
    /// Seconds from XES bytes in to abstracted XES bytes out.
    pub seconds: f64,
    /// What the op produced.
    pub summary: Summary,
    /// The output checks' verdict (the pin is compared by the caller).
    pub check: Result<(), String>,
}

/// A feasible op's output, kept until the timer has stopped.
struct Produced {
    grouping: Grouping,
    distance: f64,
    proven: bool,
    xes: String,
}

/// Summarizes and checks an op's output; called after the op's timer
/// has stopped.
fn finish(
    seconds: f64,
    log: &EventLog,
    index: &LogIndex,
    problem: &Problem,
    produced: Option<Produced>,
) -> OpRun {
    let Some(out) = produced else {
        let check = check_infeasible(log, index, problem.dsl);
        return OpRun { seconds, summary: Summary::INFEASIBLE, check };
    };
    let summary = Summary {
        feasible: true,
        groups: out.grouping.len(),
        distance_bits: out.distance.to_bits(),
        proven: out.proven,
        digest: digest(out.xes.as_bytes()),
    };
    let check = check_grouping(log, index, problem.dsl, &out.grouping, out.distance);
    OpRun { seconds, summary, check }
}

/// Runs one op. With `trace`, the layers are called one by one inside
/// spans and their counts are added to `counters`; without, the op is one
/// [`Gecco::run`] through the graph executor.
pub fn run_op(setup: &Setup, trace: Option<(&Recorder, &mut Counters)>) -> Result<OpRun, String> {
    let problem = Problem::of(setup.workload);
    match &setup.input {
        Input::Bytes(xes) => parse_route(xes, &problem, trace),
        Input::File(path) => {
            let dir = setup.work_dir.join("store");
            let run = store_route(path, &dir, &problem, trace);
            // The store directory is removed after the op, off the clock.
            let removed = std::fs::remove_dir_all(&dir);
            let run = run?;
            removed.map_err(|e| format!("removing {}: {e}", dir.display()))?;
            Ok(run)
        }
    }
}

/// `bulk` and `dense`: parse the bytes, index, abstract, write.
fn parse_route(
    xes: &[u8],
    problem: &Problem,
    trace: Option<(&Recorder, &mut Counters)>,
) -> Result<OpRun, String> {
    match trace {
        None => {
            let started = Instant::now();
            let log = parse_bytes(xes).map_err(|e| format!("parse: {e}"))?;
            let index = LogIndex::build(&log);
            let produced = gecco_run(&log, &index, problem)?;
            let seconds = started.elapsed().as_secs_f64();
            Ok(finish(seconds, &log, &index, problem, produced))
        }
        Some((recorder, counters)) => {
            let started = Instant::now();
            let (log, index, produced) = recorder.span("op", || {
                let log = recorder
                    .span("xes.parse", || parse_bytes(xes))
                    .map_err(|e| format!("parse: {e}"))?;
                let index = recorder.span("index.build", || LogIndex::build(&log));
                counters.xes_events += log.num_events();
                let produced = traced_steps(recorder, counters, &log, &index, problem)?;
                Ok::<_, String>((log, index, produced))
            })?;
            let seconds = started.elapsed().as_secs_f64();
            Ok(finish(seconds, &log, &index, problem, produced))
        }
    }
}

/// `store`: stream the file into a fresh store, index and load it from
/// disk, abstract, write.
fn store_route(
    path: &Path,
    dir: &Path,
    problem: &Problem,
    trace: Option<(&Recorder, &mut Counters)>,
) -> Result<OpRun, String> {
    let options = IngestOptions { batch_traces: STORE_BATCH_TRACES, ..IngestOptions::default() };
    let ingest = || -> Result<_, String> {
        let file = std::fs::File::open(path).map_err(|e| format!("open: {e}"))?;
        ingest_to_store(BufReader::new(file), dir, &options).map_err(|e| format!("ingest: {e}"))
    };
    match trace {
        None => {
            let started = Instant::now();
            let store = ingest()?;
            let index = store.build_index().map_err(|e| format!("store index: {e}"))?;
            let log = store.load_log().map_err(|e| format!("store load: {e}"))?;
            let produced = gecco_run(&log, &index, problem)?;
            let seconds = started.elapsed().as_secs_f64();
            Ok(finish(seconds, &log, &index, problem, produced))
        }
        Some((recorder, counters)) => {
            let started = Instant::now();
            let (store, log, index, produced) = recorder.span("op", || {
                let store = recorder.span("store.ingest", ingest)?;
                let index = recorder
                    .span("store.index", || store.build_index())
                    .map_err(|e| format!("store index: {e}"))?;
                let log = recorder
                    .span("store.load", || store.load_log())
                    .map_err(|e| format!("store load: {e}"))?;
                counters.xes_events += log.num_events();
                let produced = traced_steps(recorder, counters, &log, &index, problem)?;
                Ok::<_, String>((store, log, index, produced))
            })?;
            let seconds = started.elapsed().as_secs_f64();
            counters.store_batches += store.num_batches();
            counters.store_bytes_written += dir_bytes(dir)?;
            Ok(finish(seconds, &log, &index, problem, produced))
        }
    }
}

/// Total size of the files in `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let meta = entry.and_then(|e| e.metadata()).map_err(|e| format!("store file: {e}"))?;
        total += meta.len();
    }
    Ok(total)
}

/// The untraced op body: one [`Gecco::run`] through the graph executor,
/// then the writer.
fn gecco_run(
    log: &EventLog,
    index: &LogIndex,
    problem: &Problem,
) -> Result<Option<Produced>, String> {
    let spec = ConstraintSet::parse(problem.dsl).map_err(|e| format!("constraints: {e}"))?;
    let run = Gecco::new(log).constraints(spec).selection(problem.selection).with_index(index);
    match run.run().map_err(|e| format!("run: {e}"))? {
        Outcome::Abstracted(result) => {
            let xes = write_string(result.log());
            let (distance, proven) = (result.distance(), result.proven_optimal());
            Ok(Some(Produced { grouping: result.grouping().clone(), distance, proven, xes }))
        }
        Outcome::Infeasible(_) => Ok(None),
    }
}

/// The traced op body: the layer calls [`Gecco::run`]'s graph makes, in
/// its order, each in its own span.
fn traced_steps(
    recorder: &Recorder,
    counters: &mut Counters,
    log: &EventLog,
    index: &LogIndex,
    problem: &Problem,
) -> Result<Option<Produced>, String> {
    let segmenter = Segmenter::RepeatSplit;
    let compiled = recorder
        .span("constraints.compile", || {
            let spec = ConstraintSet::parse(problem.dsl).map_err(|e| e.to_string())?;
            CompiledConstraintSet::compile_with(&spec, log, segmenter).map_err(|e| e.to_string())
        })
        .map_err(|e| format!("constraints: {e}"))?;
    let ctx = EvalContext::new(log, index);
    let mut candidates = recorder.span("candidates", || {
        dfg_candidates(&ctx, &compiled, None, Budget::UNLIMITED, &mut NoObserver)
    });
    let stats = &candidates.stats;
    counters.candidates_checked += stats.checked;
    counters.candidates_satisfied += stats.satisfied;
    counters.candidates_budget_exhausted += usize::from(stats.budget_exhausted);
    counters.exclusive_added += recorder
        .span("exclusive", || extend_with_exclusive_candidates(&ctx, &compiled, &mut candidates));
    let colgen =
        recorder.span("colgen.decide", || use_column_generation(&problem.selection, log, index));
    let bounds = compiled.group_count_bounds();
    let oracle = DistanceOracle::new(&ctx, segmenter);
    let selection = if colgen {
        recorder.span("colgen", || {
            select_optimal_colgen(log, &compiled, &oracle, bounds, problem.selection)
        })
    } else {
        recorder.span("distance", || {
            for group in candidates.groups() {
                oracle.distance(group);
            }
        });
        recorder.span("selection", || {
            select_optimal(log, candidates.groups(), &oracle, bounds, problem.selection)
        })
    };
    counters.distance_evaluations += oracle.evaluations();
    let Some(selection) = selection else {
        recorder.span("diagnostics", || Diagnostics::probe(&compiled, &ctx).render(log));
        return Ok(None);
    };
    counters.selection_unproven += usize::from(!selection.proven_optimal);
    if let Some(presolve) = &selection.presolve {
        counters.selection_components += presolve.components;
        counters.selection_fixed_sets += presolve.fixed_sets;
    }
    if let Some(stats) = &selection.colgen {
        counters.colgen_lp_solves += stats.lp_solves;
        counters.colgen_pricing_calls += stats.pricing_calls;
        counters.colgen_master_pivots += stats.master_pivots;
        counters.colgen_columns_generated += stats.columns_generated;
        counters.colgen_mispricings += stats.mispricings;
    }
    if let Some(pricing) = &selection.pricing {
        counters.pricing_groups_examined += pricing.groups_examined;
        counters.pricing_columns_emitted += pricing.columns_emitted;
    }
    let (abstracted, _spliced_index) = recorder.span("abstraction", || {
        let names = activity_names(log, &selection.grouping, None);
        abstract_log(&ctx, &selection.grouping, &names, AbstractionStrategy::Completion, segmenter)
    });
    counters.abstraction_events_out += abstracted.num_events();
    let xes = recorder.span("writer", || write_string(&abstracted));
    counters.writer_bytes_out += xes.len();
    let (grouping, distance, proven) =
        (selection.grouping, selection.distance, selection.proven_optimal);
    Ok(Some(Produced { grouping, distance, proven, xes }))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Small enough for debug-build tests.
    pub(crate) const SMALL: Scale = Scale { bulk_traces: 200, store_traces: 300, dense_traces: 12 };

    /// A fresh directory under the system temp dir, unique per test.
    pub(crate) fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Everything the program would read from a set-up input.
    fn input_bytes(setup: &Setup) -> Vec<u8> {
        match &setup.input {
            Input::Bytes(xes) => xes.clone(),
            Input::File(path) => std::fs::read(path).unwrap(),
        }
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_two_seeds_different_ones() {
        for workload in ALL {
            let dir = scratch_dir(&format!("seeds-{}", workload.name()));
            let bytes = |seed| input_bytes(&set_up(workload, seed, &SMALL, &dir).unwrap());
            let first = bytes(3);
            assert!(!first.is_empty());
            assert_eq!(first, bytes(3), "{}: same seed, same input", workload.name());
            assert_ne!(first, bytes(4), "{}: another seed, another input", workload.name());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn dense_seeds_move_one_sample_in_time() {
        let dir = scratch_dir("dense-dates");
        let log = |seed| {
            let setup = set_up(Workload::Dense, seed, &SMALL, &dir).unwrap();
            let Input::Bytes(xes) = &setup.input else { panic!("dense input is bytes") };
            parse_bytes(xes).unwrap()
        };
        let classes = |log: &EventLog| {
            log.traces()
                .iter()
                .map(|t| t.events().iter().map(|e| e.class()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        let (a, b) = (log(0), log(5));
        assert_eq!(classes(&a), classes(&b), "the same traces, class for class");
        // The largest seeds still give dates the reader accepts.
        assert_eq!(classes(&a), classes(&log(u64::MAX)));
        assert_eq!(classes(&a), classes(&log(1_234_567_890)));
        let names = |log: &EventLog| {
            log.classes().ids().map(|c| log.class_name(c).to_string()).collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wrong_infeasible_verdict_fails_its_op() {
        let log = gecco_datagen::running_example();
        let index = LogIndex::build(&log);
        // Size-only constraints: the all-singleton grouping satisfies
        // them, so "infeasible" is provably wrong.
        let run = finish(0.0, &log, &index, &Problem::of(Workload::Bulk), None);
        assert_eq!(run.summary, Summary::INFEASIBLE);
        assert!(run.check.unwrap_err().contains("singleton"));
    }
}
