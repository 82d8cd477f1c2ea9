//! The streaming store route must be indistinguishable from the in-memory
//! route — bit-identical logs (interner order, class ids, traces), equal
//! index postings and equal co-occurrence sketches — for every batch
//! size, read-chunk size and worker count, serially and under `rayon`.
//!
//! This is the oracle contract of the tentpole: `ingest_to_store` →
//! `load_log` must reproduce exactly what `parse_str` builds in memory,
//! and `build_index` (spliced batch by batch, log never materialized)
//! must equal `LogIndex::build` on that log.

mod common;

use common::{assert_logs_identical, build_log, xes_log_spec, xes_log_spec_large};
use gecco_eventlog::{
    ingest_stream, ingest_to_store, set_parallel, xes, BatchSink, ClassCoOccurrence, Error,
    EventLog, IngestOptions, LogBuilder, LogIndex, TraceStore,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// Unique store directory under the cargo-managed tmp dir.
fn store_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("stream-eq-{tag}-{}-{n}", std::process::id()))
}

/// Streams `doc` through an on-disk store and loads it back.
fn via_store(doc: &str, tag: &str, options: &IngestOptions) -> (EventLog, LogIndex) {
    let dir = store_dir(tag);
    ingest_to_store(doc.as_bytes(), &dir, options).unwrap();
    // Reopen from disk so the assertion covers the persisted form, not
    // the writer's in-process state.
    let store = TraceStore::open(&dir).unwrap();
    let log = store.load_log().unwrap();
    let index = store.build_index().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (log, index)
}

/// Asserts the store route reproduces the in-memory route bit for bit.
fn assert_routes_identical(doc: &str, tag: &str, options: &IngestOptions) {
    let expect = xes::parse_str(doc).unwrap();
    let expect_index = LogIndex::build(&expect);
    let (log, index) = via_store(doc, tag, options);
    assert_logs_identical(&expect, &log);
    assert_eq!(expect_index, index, "index postings diverge");
    assert_eq!(
        LogIndex::build_from_traces(log.num_classes(), log.traces()),
        index,
        "build_from_traces diverges from the spliced index"
    );
    assert_eq!(
        ClassCoOccurrence::build(&expect_index),
        ClassCoOccurrence::build(&index),
        "co-occurrence sketches diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn store_route_matches_in_memory(case in (xes_log_spec(), 1usize..20)) {
        let (spec, batch) = case;
        let doc = xes::write_string(&build_log(&spec));
        let options = IngestOptions { batch_traces: batch, ..IngestOptions::default() };
        assert_routes_identical(&doc, "prop", &options);
    }

    #[test]
    fn store_route_matches_in_memory_with_tiny_windows(spec in xes_log_spec_large()) {
        let doc = xes::write_string(&build_log(&spec));
        // A 7-byte read chunk forces the incremental scanner through its
        // refill/rescan path on essentially every construct.
        let options = IngestOptions { batch_traces: 3, read_chunk: 7, ..IngestOptions::default() };
        assert_routes_identical(&doc, "tiny", &options);
    }
}

/// A deterministic many-trace log, far past every fan-out threshold.
fn big_log() -> EventLog {
    let mut b = LogBuilder::new();
    for i in 0..600 {
        let mut tb = b.trace(&format!("case-{i}"));
        for j in 0..(1 + i % 5) {
            let class = format!("step-{}", (i + j) % 17);
            tb = tb
                .event_with(&class, |e| {
                    e.str("org:role", if i % 3 == 0 { "clerk" } else { "manager" })
                        .int("cost", (i * 31 + j) as i64)
                        .timestamp("time:timestamp", 1_600_000_000_000 + (i * 60_000 + j) as i64);
                })
                .unwrap();
        }
        tb.done();
    }
    b.build()
}

/// Serializes tests that flip the process-wide parallelism toggle.
static TOGGLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Every combination of batch size, read-chunk size and worker count on
/// the same 600-trace document must land on the same bytes.
#[test]
fn batch_and_worker_grid_is_bit_identical() {
    let doc = xes::write_string(&big_log());
    let expect = xes::parse_str(&doc).unwrap();
    let expect_index = LogIndex::build(&expect);
    let _guard = TOGGLE_LOCK.lock().unwrap();
    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for parallel in [false, true] {
            set_parallel(parallel);
            for batch_traces in [1, 16, 64, 1000] {
                for read_chunk in [64, 64 * 1024] {
                    let options =
                        IngestOptions { batch_traces, read_chunk, ..IngestOptions::default() };
                    let (log, index) = via_store(&doc, "grid", &options);
                    assert_logs_identical(&expect, &log);
                    assert_eq!(expect_index, index, "batch {batch_traces} chunk {read_chunk}");
                }
            }
        }
    }
    set_parallel(true);
    std::env::set_var("RAYON_NUM_THREADS", "4");
}

/// Log-level attributes interleaved between traces force batch flushes at
/// every boundary; interning order must survive them on the store route.
#[test]
fn interleaved_log_segments_survive_the_store() {
    let mut doc = String::from("<log>\n");
    for i in 0..120 {
        if i % 7 == 0 {
            doc.push_str(&format!("<string key=\"marker-{i}\" value=\"m{i}\"/>\n"));
        }
        doc.push_str(&format!(
            "<trace><string key=\"concept:name\" value=\"case-{i}\"/>\
             <event><string key=\"concept:name\" value=\"step-{}\"/></event></trace>\n",
            i % 9
        ));
    }
    doc.push_str("</log>");
    let options = IngestOptions { batch_traces: 5, ..IngestOptions::default() };
    assert_routes_identical(&doc, "interleaved", &options);
}

/// Errors on the streaming route carry document-absolute line numbers,
/// same as the in-memory route.
#[test]
fn streaming_errors_match_in_memory_errors() {
    let doc = "<log>\n<trace>\n<event>\n<string key=\"k\" value=\"v\"\n</event>\n</trace>\n</log>";
    let expect = xes::parse_str(doc).unwrap_err().to_string();
    let dir = store_dir("err");
    let options = IngestOptions { read_chunk: 5, ..IngestOptions::default() };
    let got = ingest_to_store(doc.as_bytes(), &dir, &options).unwrap_err().to_string();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(expect, got);
}

/// Where an ingest error comes from.
#[derive(Debug, Clone, Copy)]
enum ErrorSource {
    /// A stray end tag at log level: the streaming scanner rejects it.
    Scanner,
    /// An attribute without a value: the trace parser rejects it.
    TraceParse,
    /// The sink refuses a commit.
    Commit,
}

/// Which batch the error lands in.
#[derive(Debug, Clone, Copy)]
enum ErrorPosition {
    First,
    Middle,
    Last,
}

/// Batches per error-matrix document. Far more than the work queue, the
/// result queue and the workers hold together (`2 × 2w + w` batches at
/// `w = 4`), so an error in the first or middle batch leaves both queues
/// full behind it.
const MATRIX_BATCHES: usize = 64;

/// A sink that keeps everything in memory and refuses commit number
/// `fail_at` (1-based), if any.
struct RefusingSink {
    builder: LogBuilder,
    commits: usize,
    fail_at: Option<usize>,
}

impl BatchSink for RefusingSink {
    fn builder(&mut self) -> &mut LogBuilder {
        &mut self.builder
    }

    fn commit(&mut self) -> gecco_eventlog::Result<()> {
        self.commits += 1;
        if self.fail_at == Some(self.commits) {
            return Err(Error::Store(format!("commit {} refused", self.commits)));
        }
        Ok(())
    }
}

/// A document of `MATRIX_BATCHES * batch_traces` one-line traces, with the
/// scanner or trace-parse error (if any) in the batch `position` names.
fn error_document(source: ErrorSource, position: ErrorPosition, batch_traces: usize) -> String {
    let traces = MATRIX_BATCHES * batch_traces;
    let bad = match position {
        ErrorPosition::First => 0,
        ErrorPosition::Middle => MATRIX_BATCHES / 2 * batch_traces,
        ErrorPosition::Last => traces - 1,
    };
    let mut doc = String::from("<log>\n");
    for i in 0..traces {
        let value = match source {
            ErrorSource::TraceParse if i == bad => String::new(),
            _ => " value=\"a\"".to_string(),
        };
        if matches!(source, ErrorSource::Scanner) && i == bad {
            doc.push_str("</stray>\n");
        }
        doc.push_str(&format!(
            "<trace><string key=\"concept:name\" value=\"c{i}\"/>\
             <event><string key=\"concept:name\"{value}/></event></trace>\n"
        ));
    }
    doc.push_str("</log>");
    doc
}

/// Streams `doc` into a [`RefusingSink`] on a separate thread and returns
/// the error message, or panics if the ingest succeeds, panics or has not
/// returned within the watchdog timeout.
fn ingest_error_under_watchdog(
    doc: &Arc<str>,
    batch_traces: usize,
    fail_at: Option<usize>,
    label: &str,
) -> String {
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let doc = Arc::clone(doc);
    let ingest = std::thread::spawn(move || {
        let mut sink = RefusingSink { builder: LogBuilder::new(), commits: 0, fail_at };
        let options = IngestOptions { batch_traces, ..IngestOptions::default() };
        let result = ingest_stream(doc.as_bytes(), &mut sink, &options);
        done_tx.send(()).ok();
        result
    });
    // A panic drops `done_tx` (Disconnected) and surfaces at the join;
    // only a timeout means the ingest is stuck.
    let waited = done_rx.recv_timeout(Duration::from_secs(60));
    assert!(
        !matches!(waited, Err(RecvTimeoutError::Timeout)),
        "{label}: ingest did not return within 60 s (deadlock)"
    );
    match ingest.join().unwrap_or_else(|_| panic!("{label}: ingest panicked")) {
        Err(e) => e.to_string(),
        Ok(()) => panic!("{label}: ingest succeeded on a failing document"),
    }
}

/// An error in the first, a middle or the last batch, from the scanner,
/// the trace parser or the sink, must end the ingest at every batch size
/// and worker count with the message the 1-thread route returns. (Before
/// the consumer owned the result queue, an early error left workers and
/// producer blocked on full queues and the parallel route never returned.)
#[test]
fn ingest_errors_terminate_with_the_serial_message() {
    let _guard = TOGGLE_LOCK.lock().unwrap();
    set_parallel(true);
    for source in [ErrorSource::Scanner, ErrorSource::TraceParse, ErrorSource::Commit] {
        for position in [ErrorPosition::First, ErrorPosition::Middle, ErrorPosition::Last] {
            for batch_traces in [1, 16, 64] {
                let doc: Arc<str> = error_document(source, position, batch_traces).into();
                let fail_at = matches!(source, ErrorSource::Commit).then(|| match position {
                    ErrorPosition::First => 1,
                    ErrorPosition::Middle => MATRIX_BATCHES / 2 + 1,
                    ErrorPosition::Last => MATRIX_BATCHES,
                });
                let cause = match source {
                    ErrorSource::Scanner => "mismatched `</stray>`",
                    ErrorSource::TraceParse => "error at line",
                    ErrorSource::Commit => "refused",
                };
                let mut expect = None;
                for threads in ["1", "2", "4"] {
                    std::env::set_var("RAYON_NUM_THREADS", threads);
                    let label = format!("{source:?}/{position:?}/batch {batch_traces}/{threads}");
                    let got = ingest_error_under_watchdog(&doc, batch_traces, fail_at, &label);
                    assert!(got.contains(cause), "{label}: unexpected error {got:?}");
                    let expect = expect.get_or_insert_with(|| got.clone());
                    assert_eq!(&got, expect, "{label}");
                }
            }
        }
    }
    std::env::set_var("RAYON_NUM_THREADS", "4");
}
