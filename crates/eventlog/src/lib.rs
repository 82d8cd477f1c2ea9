//! Event-log substrate for the GECCO log-abstraction approach (ICDE 2022).
//!
//! This crate provides everything the paper's §III-A event model requires:
//!
//! * an [`EventLog`] of [`Trace`]s of [`Event`]s, each event carrying an
//!   interned event class and a set of typed data attributes,
//! * a per-log [`Interner`] so classes, attribute keys and string values are
//!   compared as `u32`s on the hot paths,
//! * the [`ClassSet`] bitset used to represent groups of event classes,
//! * the per-class occurrence [`LogIndex`] with its [`EvalContext`], which
//!   make instance materialization proportional to a group's own
//!   occurrences instead of the log size,
//! * the directly-follows graph ([`Dfg`]) over event classes,
//! * trace [`variants`] and summary [`stats`],
//! * a hand-rolled [XES](crate::xes) reader/writer (own zero-copy XML pull
//!   parser — no external XML dependency) and a [CSV](crate::csv)
//!   importer/exporter, both built as chunked pipelines: a byte-level
//!   scanner splits the input, chunks parse into [`LogFragment`]s with
//!   thread-local interners (chunk-parallel under the `rayon` feature,
//!   see [`parallel`]), and a document-order merge makes the result
//!   bit-identical to a serial parse.
//!
//! The crate is dependency-free and forms the bottom layer of the workspace.

pub mod classes;
pub mod csv;
pub mod dfg;
pub mod error;
pub mod event;
pub mod index;
pub mod instances;
pub mod interner;
pub mod log;
pub mod parallel;
pub mod sketch;
pub mod stats;
pub mod store;
pub mod time;
pub mod trace;
pub mod value;
pub mod variants;
pub mod xes;

pub use classes::{ClassId, ClassInfo, ClassRegistry, ClassSet, MAX_CLASSES};
pub use dfg::Dfg;
pub use error::{Error, Result};
pub use event::Event;
pub use index::{ContextParts, EvalContext, IndexSplicer, LogIndex};
pub use instances::{instances, log_instances, GroupInstance, Segmenter};
pub use interner::{Interner, Symbol};
pub use log::{EventLog, FragmentTrace, LogBuilder, LogFragment, TraceBuilder};
pub use parallel::{parallel_enabled, set_parallel};
pub use sketch::{BloomFilter, ClassCoOccurrence, CountMinSketch};
pub use stats::LogStats;
pub use store::{ingest_to_store, StoreMeta, StoreWriter, TraceStore};
pub use trace::Trace;
pub use value::AttributeValue;
pub use variants::Variants;
pub use xes::{ingest_stream, parse_reader, BatchSink, IngestOptions, StreamScanner};
