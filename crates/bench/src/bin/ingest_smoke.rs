//! Round-trip ingestion smoke for CI: one process, one route.
//!
//! ```text
//! ingest_smoke --xes PATH --route store|memory [--store-dir DIR] [--batch N]
//! ```
//!
//! Both routes end in the same abstraction run (`size(g) <= 4` over DFG
//! candidates) and print FNV digests of the ingested log and of the
//! abstracted output, plus the process peak RSS (`VmHWM`). CI runs the
//! binary twice — once per route — asserts the digest lines match (the
//! bit-identity oracle) and that the store route stayed under its memory
//! ceiling. The routes must run in separate processes: `VmHWM` is a
//! high-water mark, so an in-memory parse in the same process would mask
//! the store route's footprint.
//!
//! `--batch` defaults to `IngestOptions::default().batch_traces`, the
//! library's own batch size. In-flight ingest memory is
//! `queue_depth = 2 × workers` batches, so the store route's peak grows
//! with both the batch size and `RAYON_NUM_THREADS`.

use gecco_constraints::ConstraintSet;
use gecco_core::Gecco;
use gecco_eventlog::{ingest_to_store, AttributeValue, EventLog, IngestOptions, LogIndex, Trace};
use std::io::BufReader;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    xes: String,
    route: String,
    store_dir: String,
    batch: usize,
    ingest_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut xes = None;
    let mut route = None;
    let mut store_dir = None;
    let mut batch = IngestOptions::default().batch_traces;
    let mut ingest_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--xes" => xes = Some(value("--xes")?),
            "--route" => route = Some(value("--route")?),
            "--store-dir" => store_dir = Some(value("--store-dir")?),
            "--batch" => {
                batch = value("--batch")?.parse().map_err(|e| format!("--batch: {e}"))?;
            }
            // Stop after the store is written: the path whose peak RSS is
            // bounded by the batch size at ANY trace count. (Both digests
            // and the abstraction need the materialized log, whose
            // footprint is proportional to the log itself.)
            "--ingest-only" => ingest_only = true,
            "--help" | "-h" => {
                println!(
                    "usage: ingest_smoke --xes PATH --route store|memory \
                     [--store-dir DIR] [--batch N] [--ingest-only]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let xes = xes.ok_or("--xes is required")?;
    let route = route.ok_or("--route is required")?;
    let store_dir = store_dir.unwrap_or_else(|| format!("{xes}.store"));
    Ok(Args { xes, route, store_dir, batch, ingest_only })
}

/// 64-bit FNV-1a, fed structured fields as little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn value(&mut self, v: &AttributeValue) {
        match v {
            AttributeValue::Str(s) => {
                self.u64(0);
                self.u64(s.0 as u64);
            }
            AttributeValue::Int(i) => {
                self.u64(1);
                self.u64(*i as u64);
            }
            AttributeValue::Float(f) => {
                self.u64(2);
                self.u64(f.to_bits());
            }
            AttributeValue::Bool(b) => {
                self.u64(3);
                self.u64(*b as u64);
            }
            AttributeValue::Timestamp(t) => {
                self.u64(4);
                self.u64(*t as u64);
            }
        }
    }

    fn traces(&mut self, traces: &[Trace]) {
        for trace in traces {
            self.u64(trace.attributes().len() as u64);
            for (k, v) in trace.attributes() {
                self.u64(k.0 as u64);
                self.value(v);
            }
            self.u64(trace.events().len() as u64);
            for event in trace.events() {
                self.u64(event.class().index() as u64);
                self.u64(event.attributes().len() as u64);
                for (k, v) in event.attributes() {
                    self.u64(k.0 as u64);
                    self.value(v);
                }
            }
        }
    }
}

/// Everything the event model observes, folded into one u64. Symbols are
/// hashed raw: the store route's bit-identity contract says they must
/// match the in-memory route's numbering exactly.
fn digest(log: &EventLog) -> u64 {
    let mut h = Fnv::new();
    for (sym, s) in log.interner().iter() {
        h.u64(sym.0 as u64);
        h.bytes(s.as_bytes());
        h.bytes(&[0xff]);
    }
    for id in log.classes().ids() {
        let info = log.classes().info(id);
        h.u64(info.name.0 as u64);
        h.u64(info.attributes.len() as u64);
        for (k, v) in &info.attributes {
            h.u64(k.0 as u64);
            h.value(v);
        }
    }
    h.u64(log.attributes().len() as u64);
    for (k, v) in log.attributes() {
        h.u64(k.0 as u64);
        h.value(v);
    }
    h.u64(log.traces().len() as u64);
    h.traces(log.traces());
    h.0
}

/// Peak resident set size of this process in kB, from `/proc/self/status`.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let started = Instant::now();
    let (log, index) = match args.route.as_str() {
        "store" => {
            let file = std::fs::File::open(&args.xes)
                .map_err(|e| format!("cannot open {}: {e}", args.xes))?;
            let options = IngestOptions { batch_traces: args.batch, ..IngestOptions::default() };
            let store = ingest_to_store(BufReader::new(file), &args.store_dir, &options)
                .map_err(|e| format!("store ingest failed: {e}"))?;
            if args.ingest_only {
                println!(
                    "route=store traces={} batches={} ingest_only=true",
                    store.num_traces(),
                    store.num_batches()
                );
                println!("ingest_seconds={:.2}", started.elapsed().as_secs_f64());
                match vm_hwm_kb() {
                    Some(kb) => println!("vm_hwm_kb={kb}"),
                    None => println!("vm_hwm_kb=unavailable"),
                }
                return Ok(());
            }
            let log = store.load_log().map_err(|e| format!("store load failed: {e}"))?;
            let index = store.build_index().map_err(|e| format!("store index failed: {e}"))?;
            (log, index)
        }
        "memory" => {
            let log = gecco_eventlog::xes::parse_file(&args.xes)
                .map_err(|e| format!("parse failed: {e}"))?;
            let index = LogIndex::build(&log);
            (log, index)
        }
        other => return Err(format!("unknown route {other:?} (store|memory)")),
    };
    let ingested = started.elapsed().as_secs_f64();
    let log_digest = digest(&log);

    let constraints =
        ConstraintSet::parse("size(g) <= 4;").map_err(|e| format!("constraints: {e}"))?;
    let outcome = Gecco::new(&log)
        .constraints(constraints)
        .with_index(&index)
        .run()
        .map_err(|e| format!("abstraction failed: {e}"))?;
    let out = outcome.expect_abstracted();
    let mut h = Fnv::new();
    h.u64(out.grouping().len() as u64);
    h.u64(out.log().traces().len() as u64);
    h.traces(out.log().traces());
    let abstraction_digest = h.0;

    println!(
        "route={} traces={} log_digest={log_digest:016x} \
         abstraction_digest={abstraction_digest:016x} groups={}",
        args.route,
        log.traces().len(),
        out.grouping().len()
    );
    println!("ingest_seconds={ingested:.2} total_seconds={:.2}", started.elapsed().as_secs_f64());
    match vm_hwm_kb() {
        Some(kb) => println!("vm_hwm_kb={kb}"),
        None => println!("vm_hwm_kb=unavailable"),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ingest_smoke: {e}");
            ExitCode::FAILURE
        }
    }
}
