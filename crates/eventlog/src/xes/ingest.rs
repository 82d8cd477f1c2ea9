//! Bounded-memory streaming ingestion: producer/consumer over the
//! windowed scanner.
//!
//! [`ingest_stream`] wires the pieces of the chunked pipeline into a
//! streaming one: a producer thread drives [`StreamScanner`] over a
//! [`Read`] source and hands out batches of owned trace chunks over a
//! *bounded* queue, worker threads parse each batch into a
//! [`LogFragment`] with a thread-local interner, and the consumer merges
//! the results strictly in document order into a [`BatchSink`]. Because
//! merging happens in document order — the same order a serial pass would
//! produce — the resulting builder state is bit-identical to
//! [`parse_bytes`](crate::xes::reader::parse_bytes) on the equivalent
//! in-memory document, for any batch size and worker count.
//!
//! Memory stays bounded by `queue_depth` batches of `batch_traces` traces
//! plus the scanner window: the document text is never held whole. What
//! the *sink* accumulates is its own business — [`LogBuilder`] keeps
//! everything (the in-memory route), while the on-disk store
//! ([`crate::store::StoreWriter`]) spills traces after every batch.

use crate::error::{Error, Result};
use crate::log::{LogBuilder, LogFragment};
use crate::parallel;
use crate::xes::reader::{parse_log_segment, parse_trace_into, shift_lines};
use crate::xes::stream::{OwnedSegment, StreamItem, StreamScanner, DEFAULT_READ_CHUNK};
use crate::EventLog;
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};

/// Where streamed batches end up. Everything funnels into one
/// [`LogBuilder`] — that is what keeps symbol numbering and class-id
/// assignment identical to the in-memory route — and [`BatchSink::commit`]
/// marks the points where a spilling sink may move the builder's
/// accumulated traces elsewhere.
pub trait BatchSink {
    /// The builder log-level segments are parsed into and trace fragments
    /// are merged into, in document order.
    fn builder(&mut self) -> &mut LogBuilder;

    /// Commit point, called after each merged trace batch. A spilling
    /// sink (the on-disk store) drains the builder's traces here; the
    /// in-memory sink does nothing and accumulates the whole log.
    fn commit(&mut self) -> Result<()>;
}

/// The in-memory route: keep every trace in the builder.
impl BatchSink for LogBuilder {
    fn builder(&mut self) -> &mut LogBuilder {
        self
    }

    fn commit(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Tuning knobs for [`ingest_stream`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Traces per parse batch (and per [`BatchSink::commit`]). Larger
    /// batches amortize merge overhead; smaller ones bound memory tighter.
    pub batch_traces: usize,
    /// Refill granularity of the scanner window, in bytes.
    pub read_chunk: usize,
    /// Maximum in-flight batches between producer and consumer; `0` means
    /// twice the worker count.
    pub queue_depth: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions { batch_traces: 512, read_chunk: DEFAULT_READ_CHUNK, queue_depth: 0 }
    }
}

impl IngestOptions {
    fn effective_queue_depth(&self, workers: usize) -> usize {
        if self.queue_depth == 0 {
            workers * 2
        } else {
            self.queue_depth
        }
    }
}

/// Streams an XES document from `source` into `sink` with bounded memory.
///
/// Equivalent to parsing the whole document with
/// [`parse_bytes`](crate::xes::reader::parse_bytes) into the sink's
/// builder, bit for bit, but the document text is only ever held one
/// window plus `queue_depth` batches at a time. Runs the producer /
/// worker / consumer pipeline on scoped threads when parallel ingestion
/// is enabled (`rayon` feature + [`crate::parallel::set_parallel`]), and
/// a single-threaded loop otherwise — the result is identical either way.
pub fn ingest_stream<R: Read + Send, S: BatchSink>(
    source: R,
    sink: &mut S,
    options: &IngestOptions,
) -> Result<()> {
    let workers = parallel::worker_count();
    if workers <= 1 {
        ingest_serial(source, sink, options)
    } else {
        ingest_parallel(source, sink, options, workers)
    }
}

/// Convenience: stream-parse into a fresh in-memory [`EventLog`].
pub fn parse_reader<R: Read + Send>(source: R, options: &IngestOptions) -> Result<EventLog> {
    let mut builder = LogBuilder::new();
    ingest_stream(source, &mut builder, options)?;
    Ok(builder.build())
}

/// Parses one batch of owned trace chunks into a fragment, shifting error
/// lines to document-absolute positions via each chunk's recorded line.
fn parse_batch(segments: &[OwnedSegment]) -> Result<LogFragment> {
    let mut fragment = LogFragment::new();
    for seg in segments {
        parse_trace_into(&mut fragment, &seg.bytes).map_err(|e| shift_lines(e, seg.line - 1))?;
    }
    Ok(fragment)
}

/// Applies one document-order item to the sink.
fn apply_log_segment<S: BatchSink>(sink: &mut S, seg: &OwnedSegment) -> Result<()> {
    parse_log_segment(sink.builder(), &seg.bytes).map_err(|e| shift_lines(e, seg.line - 1))
}

fn merge_batch<S: BatchSink>(sink: &mut S, fragment: LogFragment) -> Result<()> {
    sink.builder().merge_fragment(fragment)?;
    sink.commit()
}

fn ingest_serial<R: Read, S: BatchSink>(
    source: R,
    sink: &mut S,
    options: &IngestOptions,
) -> Result<()> {
    let mut scanner = StreamScanner::new(source, options.read_chunk);
    let mut batch: Vec<OwnedSegment> = Vec::new();
    while let Some(item) = scanner.next_item()? {
        match item {
            StreamItem::Log(seg) => {
                if !batch.is_empty() {
                    merge_batch(sink, parse_batch(&batch)?)?;
                    batch.clear();
                }
                apply_log_segment(sink, &seg)?;
            }
            StreamItem::Trace(seg) => {
                batch.push(seg);
                if batch.len() >= options.batch_traces.max(1) {
                    merge_batch(sink, parse_batch(&batch)?)?;
                    batch.clear();
                }
            }
        }
    }
    if !batch.is_empty() {
        merge_batch(sink, parse_batch(&batch)?)?;
    }
    Ok(())
}

/// Work items the producer hands to the worker pool, tagged with a
/// document-order sequence number.
enum Work {
    /// A log-level segment: nothing to parse in parallel, forwarded so it
    /// keeps its place in the document order.
    Log(OwnedSegment),
    /// A batch of trace chunks to parse into a fragment.
    Batch(Vec<OwnedSegment>),
    /// The scanner failed; surfaces to the consumer at this point of the
    /// document order.
    Fail(Error),
}

/// What workers hand the consumer.
enum Parsed {
    Log(OwnedSegment),
    Fragment(LogFragment),
}

fn ingest_parallel<R: Read + Send, S: BatchSink>(
    source: R,
    sink: &mut S,
    options: &IngestOptions,
    workers: usize,
) -> Result<()> {
    let queue_depth = options.effective_queue_depth(workers).max(1);
    let batch_traces = options.batch_traces.max(1);
    let (work_tx, work_rx) = sync_channel::<(u64, Work)>(queue_depth);
    let (done_tx, done_rx) = sync_channel::<(u64, Result<Parsed>)>(queue_depth);
    // The workers own the only handles to the work queue, and the consumer
    // owns the only handle to the result queue. When the consumer returns
    // early (an error), dropping `done_rx` fails every worker's next send;
    // the last worker to exit drops the work queue, which fails the
    // producer's next send. Every thread then exits and the scope joins.
    let work_rx = Arc::new(Mutex::new(work_rx));
    std::thread::scope(|scope| {
        // Producer: scan the source, batch traces, tag with seq numbers.
        // A send error means the consumer bailed out — just stop.
        let read_chunk = options.read_chunk;
        scope.spawn(move || {
            let mut scanner = StreamScanner::new(source, read_chunk);
            let mut seq = 0u64;
            let mut batch: Vec<OwnedSegment> = Vec::new();
            let send = |work: Work, seq: &mut u64| {
                let ok = work_tx.send((*seq, work)).is_ok();
                *seq += 1;
                ok
            };
            loop {
                match scanner.next_item() {
                    Ok(Some(StreamItem::Trace(seg))) => {
                        batch.push(seg);
                        if batch.len() >= batch_traces
                            && !send(Work::Batch(std::mem::take(&mut batch)), &mut seq)
                        {
                            return;
                        }
                    }
                    Ok(Some(StreamItem::Log(seg))) => {
                        if !batch.is_empty()
                            && !send(Work::Batch(std::mem::take(&mut batch)), &mut seq)
                        {
                            return;
                        }
                        if !send(Work::Log(seg), &mut seq) {
                            return;
                        }
                    }
                    Ok(None) => {
                        if !batch.is_empty() {
                            send(Work::Batch(std::mem::take(&mut batch)), &mut seq);
                        }
                        return;
                    }
                    Err(e) => {
                        send(Work::Fail(e), &mut seq);
                        return;
                    }
                }
            }
        });

        // Workers: parse batches into fragments; forward everything else.
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            let work_rx = Arc::clone(&work_rx);
            scope.spawn(move || loop {
                let next = work_rx.lock().expect("ingest worker poisoned").recv();
                let Ok((seq, work)) = next else { return };
                let parsed = match work {
                    Work::Log(seg) => Ok(Parsed::Log(seg)),
                    Work::Batch(segs) => parse_batch(&segs).map(Parsed::Fragment),
                    Work::Fail(e) => Err(e),
                };
                if done_tx.send((seq, parsed)).is_err() {
                    return; // consumer bailed out
                }
            });
        }
        drop(done_tx);
        drop(work_rx);
        consume(done_rx, sink)
    })
}

/// The consumer: applies results strictly in document order, stashing
/// out-of-order arrivals. Owns `done_rx`, so any return, the early ones
/// on an error included, closes the result queue.
fn consume<S: BatchSink>(done_rx: Receiver<(u64, Result<Parsed>)>, sink: &mut S) -> Result<()> {
    let mut next_seq = 0u64;
    let mut stash: BTreeMap<u64, Result<Parsed>> = BTreeMap::new();
    while let Ok((seq, parsed)) = done_rx.recv() {
        stash.insert(seq, parsed);
        while let Some(parsed) = stash.remove(&next_seq) {
            next_seq += 1;
            match parsed? {
                Parsed::Log(seg) => apply_log_segment(sink, &seg)?,
                Parsed::Fragment(fragment) => merge_batch(sink, fragment)?,
            }
        }
    }
    debug_assert!(stash.is_empty(), "gap in ingest sequence numbers");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xes::reader::parse_str;

    const DOC: &str = r#"<?xml version="1.0"?>
<log xes.version="1.0">
  <extension name="Concept" prefix="concept" uri="http://x"/>
  <string key="concept:name" value="demo"/>
  <trace>
    <string key="concept:name" value="c1"/>
    <event><string key="concept:name" value="a"/><int key="cost" value="3"/></event>
    <event><string key="concept:name" value="b"/></event>
  </trace>
  <trace>
    <string key="concept:name" value="c2"/>
    <event><string key="concept:name" value="a"/></event>
  </trace>
  <int key="count" value="2"/>
</log>"#;

    #[test]
    fn streamed_log_matches_in_memory_parse() {
        let expect = parse_str(DOC).unwrap();
        for batch_traces in [1, 2, 7] {
            for read_chunk in [3, 64, 1 << 20] {
                let options =
                    IngestOptions { batch_traces, read_chunk, ..IngestOptions::default() };
                let got = parse_reader(DOC.as_bytes(), &options).unwrap();
                assert_eq!(got.traces(), expect.traces());
                assert_eq!(got.attributes(), expect.attributes());
                let a: Vec<_> = got.interner().iter().collect();
                let b: Vec<_> = expect.interner().iter().collect();
                assert_eq!(a, b, "batch {batch_traces} chunk {read_chunk}");
            }
        }
    }

    #[test]
    fn parse_errors_carry_document_absolute_lines() {
        // Malformed event on line 7 of the streamed document.
        let doc = "<?xml version=\"1.0\"?>\n<log>\n<trace>\n<event>\
                   <string key=\"concept:name\" value=\"a\"/></event>\n</trace>\n<trace>\n\
                   <event><string key=\"concept:name\"/></event>\n</trace>\n</log>";
        let expect = parse_str(doc).unwrap_err().to_string();
        let got = parse_reader(
            doc.as_bytes(),
            &IngestOptions { read_chunk: 5, ..IngestOptions::default() },
        )
        .unwrap_err()
        .to_string();
        assert_eq!(got, expect);
        assert!(got.contains("line 7"), "got: {got}");
    }
}
