//! XES deserialization into an [`EventLog`] — a chunked two-stage pipeline.
//!
//! Stage one ([`crate::xes::scan`]) splits the raw bytes into log-level
//! segments and per-`<trace>` chunks. Stage two groups contiguous chunks
//! into per-worker *batches*, parses each batch into one [`LogFragment`]
//! with a thread-local interner — chunk-parallel under the `rayon` feature
//! — and [`LogBuilder::merge_fragment`] folds the fragments back in
//! document order, interleaved with the serially parsed log-level
//! segments. Batches never span a log-level segment, so the merge order
//! makes the result bit-identical to a serial single-pass parse no matter
//! how many workers ran or where batch boundaries fell
//! (`tests/ingest_equivalence.rs`).

use crate::error::{Error, Result};
use crate::log::{EventLog, FragmentTrace, LogBuilder, LogFragment};
use crate::parallel;
use crate::time::parse_iso8601;
use crate::value::AttributeValue;
use crate::xes::scan::{scan_document, Segment};
use crate::xes::xml::{line_at, XmlEvent, XmlParser};
use std::borrow::Cow;
use std::ops::Range;

/// Log-level attribute key under which class-level attributes are persisted
/// (nested-attribute convention, see [`crate::xes::writer`]).
pub const CLASS_ATTR_KEY: &str = "gecco:classattr";

/// Minimum number of trace chunks in a run before it is split into more
/// than one batch; below this the per-worker setup costs more than the
/// serial loop.
const MIN_PARALLEL_CHUNKS: usize = 16;

/// Parses an XES document from a string.
pub fn parse_str(input: &str) -> Result<EventLog> {
    parse_bytes(input.as_bytes())
}

/// Groups the trace chunks into batches of contiguous chunks, one
/// [`LogFragment`] each. A *run* is a maximal sequence of trace segments
/// with no log-level segment in between; runs are split into at most
/// `worker_count` batches so per-fragment overhead (interner, remap table)
/// scales with the worker count, not the trace count. Batches never cross
/// a log-level segment — that keeps the document-order merge exact.
fn make_batches(segments: &[Segment]) -> Vec<Vec<Range<usize>>> {
    let workers = parallel::worker_count().max(1);
    let mut batches: Vec<Vec<Range<usize>>> = Vec::new();
    let mut run: Vec<Range<usize>> = Vec::new();
    let flush = |run: &mut Vec<Range<usize>>, batches: &mut Vec<Vec<Range<usize>>>| {
        if run.is_empty() {
            return;
        }
        let pieces = if run.len() < MIN_PARALLEL_CHUNKS { 1 } else { workers };
        let batch_size = run.len().div_ceil(pieces).max(1);
        let mut rest = std::mem::take(run);
        while !rest.is_empty() {
            let tail = rest.split_off(batch_size.min(rest.len()));
            batches.push(rest);
            rest = tail;
        }
    };
    for segment in segments {
        match segment {
            Segment::Trace(r) => run.push(r.clone()),
            Segment::Log(_) => flush(&mut run, &mut batches),
        }
    }
    flush(&mut run, &mut batches);
    batches
}

/// Parses an XES document from raw bytes — the zero-copy entry point with
/// **no** up-front UTF-8 validation pass: names are validated lazily and
/// attribute values / text are decoded lossily exactly where they are
/// read, so invalid bytes in values become U+FFFD. Callers that need
/// whole-document validation (like [`parse_file`]) should validate first.
pub fn parse_bytes(input: &[u8]) -> Result<EventLog> {
    let doc = scan_document(input)?;
    let batches = make_batches(&doc.segments);
    let fragments = parallel::par_map(&batches, 2, |ranges| parse_trace_batch(input, ranges));

    let mut builder = LogBuilder::new();
    let mut next_batch = fragments.into_iter().zip(&batches);
    // Trace segments already covered by the batch merged last.
    let mut covered = 0usize;
    for segment in &doc.segments {
        match segment {
            Segment::Log(r) => parse_log_segment(&mut builder, &input[r.clone()])
                .map_err(|e| rebase_lines(e, input, r.start))?,
            Segment::Trace(_) => {
                if covered > 0 {
                    covered -= 1;
                    continue;
                }
                let (fragment, ranges) =
                    next_batch.next().expect("one batch per run of trace segments");
                builder.merge_fragment(fragment?)?;
                covered = ranges.len() - 1;
            }
        }
    }
    Ok(builder.build())
}

/// Parses an XES file from disk. Reads raw bytes and validates them as
/// UTF-8 in place — rejecting Latin-1 or corrupted files loudly, exactly
/// like the importer always did (and like [`crate::csv::read_file`] still
/// does) — then runs the chunked pipeline. The validation is a single
/// cheap scan; unlike `read_to_string` there is no intermediate `String`
/// and the parse itself stays zero-copy over the byte buffer.
pub fn parse_file(path: impl AsRef<std::path::Path>) -> Result<EventLog> {
    let contents = std::fs::read(path)?;
    if let Err(e) = std::str::from_utf8(&contents) {
        return Err(Error::Xml {
            line: line_at(&contents, e.valid_up_to()),
            message: "file is not valid UTF-8".into(),
        });
    }
    parse_bytes(&contents)
}

/// Shifts chunk-relative line numbers in an error to document-absolute
/// ones. Only computed on the error path, so the happy path never counts
/// newlines.
fn rebase_lines(err: Error, input: &[u8], chunk_start: usize) -> Error {
    shift_lines(err, line_at(input, chunk_start) - 1)
}

/// Adds `base` lines to the positions in an error. The streaming path uses
/// this directly: it knows each chunk's document-absolute start line from
/// the window scanner instead of recounting the (long gone) document.
pub(crate) fn shift_lines(err: Error, base: usize) -> Error {
    match err {
        Error::Xml { line, message } => Error::Xml { line: line + base, message },
        Error::Xes { line, message } => Error::Xes { line: line + base, message },
        other => other,
    }
}

/// A typed attribute parsed from one XES attribute element, borrowing from
/// the chunk being parsed.
struct RawAttr<'a> {
    key: Cow<'a, str>,
    value: RawValue<'a>,
}

enum RawValue<'a> {
    Str(Cow<'a, str>),
    Int(i64),
    Float(f64),
    Bool(bool),
    Timestamp(i64),
}

fn xes_err(parser: &XmlParser<'_>, message: impl Into<String>) -> Error {
    Error::Xes { line: parser.line(), message: message.into() }
}

/// Interprets a start element as a typed XES attribute, if it is one.
/// Consumes the element's attribute list so key and value move out without
/// copies.
fn attr_from<'a>(
    parser: &XmlParser<'a>,
    tag: &str,
    attributes: Vec<(&'a str, Cow<'a, str>)>,
) -> Result<Option<RawAttr<'a>>> {
    let typed = matches!(tag, "string" | "date" | "int" | "float" | "boolean" | "id");
    if !typed {
        return Ok(None);
    }
    let mut key: Option<Cow<'a, str>> = None;
    let mut raw: Option<Cow<'a, str>> = None;
    for (k, v) in attributes {
        match k {
            "key" if key.is_none() => key = Some(v),
            "value" if raw.is_none() => raw = Some(v),
            _ => {}
        }
    }
    let key = key.ok_or_else(|| xes_err(parser, format!("<{tag}> without `key`")))?;
    let raw =
        raw.ok_or_else(|| xes_err(parser, format!("<{tag} key=\"{key}\"> without `value`")))?;
    let value = match tag {
        "string" | "id" => RawValue::Str(raw),
        "date" => RawValue::Timestamp(parse_iso8601(&raw)?),
        "int" => RawValue::Int(
            raw.parse()
                .map_err(|_| xes_err(parser, format!("bad int value {raw:?} for key {key:?}")))?,
        ),
        "float" => RawValue::Float(
            raw.parse()
                .map_err(|_| xes_err(parser, format!("bad float value {raw:?} for key {key:?}")))?,
        ),
        "boolean" => match raw.as_ref() {
            "true" | "True" | "TRUE" | "1" => RawValue::Bool(true),
            "false" | "False" | "FALSE" | "0" => RawValue::Bool(false),
            _ => return Err(xes_err(parser, format!("bad boolean value {raw:?} for key {key:?}"))),
        },
        _ => unreachable!(),
    };
    Ok(Some(RawAttr { key, value }))
}

/// Consumes events until the element opened last is closed. For a
/// self-closing element this consumes exactly its synthetic `EndElement`.
fn skip_subtree(parser: &mut XmlParser<'_>) -> Result<()> {
    let mut depth = 1usize;
    loop {
        match parser.next_event()? {
            Some(XmlEvent::StartElement { .. }) => {
                // Self-closing elements emit a synthetic EndElement next,
                // so counting them like open elements balances out.
                depth += 1;
            }
            Some(XmlEvent::EndElement { .. }) => {
                depth -= 1;
                if depth == 0 {
                    return Ok(());
                }
            }
            Some(XmlEvent::Text(_)) => {}
            None => return Err(xes_err(parser, "unexpected end of input while skipping element")),
        }
    }
}

// ---------------------------------------------------------------------------
// Stage two, log-level segments (serial).
// ---------------------------------------------------------------------------

/// Parses one log-level segment — typed log attributes, extensions,
/// classifiers and `gecco:classattr` wrappers — directly into the builder.
pub(crate) fn parse_log_segment(builder: &mut LogBuilder, segment: &[u8]) -> Result<()> {
    let mut parser = XmlParser::from_bytes(segment);
    while let Some(event) = parser.next_event()? {
        match event {
            XmlEvent::StartElement { name, attributes, self_closing } => match name {
                "extension" | "global" | "classifier" => {
                    if !self_closing {
                        skip_subtree(&mut parser)?;
                    }
                }
                _ => {
                    if let Some(attr) = attr_from(&parser, name, attributes)? {
                        if attr.key == CLASS_ATTR_KEY {
                            parse_class_attrs(builder, &mut parser, &attr, self_closing)?;
                        } else {
                            if !self_closing {
                                skip_subtree(&mut parser)?;
                            }
                            let value = intern_value(builder, attr.value);
                            builder.log_attr(&attr.key, value);
                        }
                    } else if !self_closing {
                        skip_subtree(&mut parser)?;
                    }
                }
            },
            XmlEvent::EndElement { .. } | XmlEvent::Text(_) => {}
        }
    }
    Ok(())
}

/// Restores class-level attributes from the nested-attribute convention:
/// `<string key="gecco:classattr" value="CLASS"> <k=v children/> </string>`.
///
/// The wrapper's own `EndElement` is tracked explicitly: every child —
/// self-closing or not — is fully consumed (including the synthetic
/// `EndElement` a self-closing child emits) before the loop looks at the
/// next event. The previous implementation returned on *any* `EndElement`,
/// so the synthetic one after a first self-closing child ended the wrapper
/// early and every following class attribute leaked to log level.
fn parse_class_attrs(
    builder: &mut LogBuilder,
    parser: &mut XmlParser<'_>,
    outer: &RawAttr<'_>,
    self_closing: bool,
) -> Result<()> {
    let class = match &outer.value {
        RawValue::Str(s) => s.clone(),
        _ => return Err(xes_err(parser, "gecco:classattr value must be the class name")),
    };
    if self_closing {
        // An empty wrapper still names a class; nothing to attach.
        return Ok(());
    }
    loop {
        match parser.next_event()? {
            Some(XmlEvent::StartElement { name, attributes, self_closing: _ }) => {
                if let Some(attr) = attr_from(parser, name, attributes)? {
                    match &attr.value {
                        RawValue::Str(s) => {
                            builder.class_attr_str(&class, &attr.key, s)?;
                        }
                        _ => return Err(xes_err(parser, "class-level attributes must be strings")),
                    }
                }
                // Consume the child subtree entirely — for a self-closing
                // child this eats exactly its synthetic EndElement.
                skip_subtree(parser)?;
            }
            Some(XmlEvent::EndElement { .. }) => return Ok(()), // the wrapper itself
            Some(XmlEvent::Text(_)) => {}
            None => return Err(xes_err(parser, "unexpected end of input in class attributes")),
        }
    }
}

fn intern_value(builder: &mut LogBuilder, raw: RawValue<'_>) -> AttributeValue {
    match raw {
        RawValue::Str(s) => AttributeValue::Str(builder.intern(&s)),
        RawValue::Int(i) => AttributeValue::Int(i),
        RawValue::Float(f) => AttributeValue::Float(f),
        RawValue::Bool(b) => AttributeValue::Bool(b),
        RawValue::Timestamp(t) => AttributeValue::Timestamp(t),
    }
}

// ---------------------------------------------------------------------------
// Stage two, trace batches (parallel under the `rayon` feature).
// ---------------------------------------------------------------------------

/// Parses one batch of contiguous trace chunks into a single
/// [`LogFragment`]: one thread-local interner and one eventual remap table
/// for the whole batch instead of per trace. Errors come back with
/// document-absolute line numbers.
fn parse_trace_batch(input: &[u8], ranges: &[Range<usize>]) -> Result<LogFragment> {
    let mut fragment = LogFragment::new();
    for range in ranges {
        parse_trace_into(&mut fragment, &input[range.clone()])
            .map_err(|e| rebase_lines(e, input, range.start))?;
    }
    Ok(fragment)
}

/// Parses one `<trace>…</trace>` chunk into the batch fragment, interning
/// strings into the fragment's thread-local interner as they are read —
/// no intermediate owned strings.
pub(crate) fn parse_trace_into(fragment: &mut LogFragment, chunk: &[u8]) -> Result<()> {
    let mut parser = XmlParser::from_bytes(chunk);
    match parser.next_event()? {
        Some(XmlEvent::StartElement { name: "trace", self_closing, .. }) => {
            if self_closing {
                fragment.push_trace(FragmentTrace { attributes: Vec::new(), events: Vec::new() });
                return Ok(());
            }
        }
        _ => return Err(xes_err(&parser, "trace chunk does not start with <trace>")),
    }
    let mut attributes: Vec<(crate::Symbol, AttributeValue)> = Vec::new();
    let mut events: Vec<(crate::Symbol, Vec<(crate::Symbol, AttributeValue)>)> = Vec::new();
    // Scratch for every event of the chunk: a buffer per event would add
    // an allocation, a growth and a free to each event's parse.
    let mut raw_attrs: Vec<RawAttr<'_>> = Vec::new();
    loop {
        match parser.next_event()? {
            Some(XmlEvent::StartElement { name, attributes: xattrs, self_closing }) => {
                if name == "event" {
                    if !self_closing {
                        parse_event_attrs(&mut parser, &mut raw_attrs)?;
                    }
                    let class = raw_attrs
                        .iter()
                        .find(|a| a.key == "concept:name")
                        .and_then(|a| match &a.value {
                            RawValue::Str(s) => Some(s.as_ref()),
                            _ => None,
                        })
                        .ok_or_else(|| xes_err(&parser, "event without string `concept:name`"))?;
                    let class = fragment.intern(class);
                    // Sized up front: boxing the event then keeps this
                    // allocation as it is, with no spare capacity to shrink.
                    let mut attrs = Vec::with_capacity(raw_attrs.len());
                    for a in raw_attrs.drain(..) {
                        let key = fragment.intern(&a.key);
                        attrs.push((key, fragment_value(fragment, a.value)));
                    }
                    events.push((class, attrs));
                } else if let Some(attr) = attr_from(&parser, name, xattrs)? {
                    if !self_closing {
                        skip_subtree(&mut parser)?;
                    }
                    let key = fragment.intern(&attr.key);
                    let value = fragment_value(fragment, attr.value);
                    attributes.push((key, value));
                } else if !self_closing {
                    skip_subtree(&mut parser)?;
                }
            }
            Some(XmlEvent::EndElement { name: "trace" }) => break,
            Some(_) => {}
            None => return Err(xes_err(&parser, "unexpected end of input inside <trace>")),
        }
    }
    fragment.push_trace(FragmentTrace { attributes, events });
    Ok(())
}

/// Parses the attribute children of one `<event>` element into `out`.
fn parse_event_attrs<'a>(parser: &mut XmlParser<'a>, out: &mut Vec<RawAttr<'a>>) -> Result<()> {
    loop {
        match parser.next_event()? {
            Some(XmlEvent::StartElement { name, attributes, self_closing }) => {
                if let Some(attr) = attr_from(parser, name, attributes)? {
                    out.push(attr);
                }
                if !self_closing {
                    skip_subtree(parser)?;
                }
            }
            Some(XmlEvent::EndElement { name: "event" }) => return Ok(()),
            Some(_) => {}
            None => return Err(xes_err(parser, "unexpected end of input inside <event>")),
        }
    }
}

fn fragment_value(fragment: &mut LogFragment, raw: RawValue<'_>) -> AttributeValue {
    match raw {
        RawValue::Str(s) => AttributeValue::Str(fragment.intern(&s)),
        RawValue::Int(i) => AttributeValue::Int(i),
        RawValue::Float(f) => AttributeValue::Float(f),
        RawValue::Bool(b) => AttributeValue::Bool(b),
        RawValue::Timestamp(t) => AttributeValue::Timestamp(t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xes.features="">
  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>
  <global scope="event">
    <string key="concept:name" value="__INVALID__"/>
  </global>
  <classifier name="Activity" keys="concept:name"/>
  <string key="concept:name" value="running-example"/>
  <trace>
    <string key="concept:name" value="case-1"/>
    <event>
      <string key="concept:name" value="rcp"/>
      <string key="org:role" value="clerk"/>
      <date key="time:timestamp" value="2021-03-01T08:00:00.000+00:00"/>
      <int key="cost" value="12"/>
      <float key="effort" value="0.5"/>
      <boolean key="rework" value="false"/>
    </event>
    <event>
      <string key="concept:name" value="acc"/>
      <string key="org:role" value="manager"/>
      <date key="time:timestamp" value="2021-03-01T09:30:00.000+00:00"/>
    </event>
  </trace>
  <trace>
    <string key="concept:name" value="case-2"/>
    <event><string key="concept:name" value="rcp"/></event>
  </trace>
</log>"#;

    #[test]
    fn parses_sample_log() {
        let log = parse_str(SAMPLE).unwrap();
        assert_eq!(log.traces().len(), 2);
        assert_eq!(log.num_classes(), 2);
        assert_eq!(log.num_events(), 3);
        let t0 = &log.traces()[0];
        let case = t0.attribute(log.std_keys().concept_name).unwrap();
        assert_eq!(log.resolve(case.as_symbol().unwrap()), "case-1");
        let e0 = &t0.events()[0];
        assert_eq!(log.class_name(e0.class()), "rcp");
        let role = e0.attribute(log.std_keys().role).unwrap().as_symbol().unwrap();
        assert_eq!(log.resolve(role), "clerk");
        assert_eq!(e0.attribute(log.key("cost").unwrap()), Some(&AttributeValue::Int(12)));
        assert_eq!(e0.attribute(log.key("effort").unwrap()), Some(&AttributeValue::Float(0.5)));
        assert_eq!(e0.attribute(log.key("rework").unwrap()), Some(&AttributeValue::Bool(false)));
        let ts = e0.timestamp(log.std_keys().timestamp).unwrap();
        assert_eq!(crate::time::format_iso8601(ts), "2021-03-01T08:00:00.000Z");
    }

    #[test]
    fn log_level_attributes_survive() {
        let log = parse_str(SAMPLE).unwrap();
        let key = log.key("concept:name").unwrap();
        let (_, v) = log.attributes().iter().find(|(k, _)| *k == key).unwrap();
        assert_eq!(log.resolve(v.as_symbol().unwrap()), "running-example");
    }

    #[test]
    fn event_without_class_is_an_error() {
        let doc = r#"<log><trace><event><int key="cost" value="1"/></event></trace></log>"#;
        let err = parse_str(doc).unwrap_err();
        assert!(err.to_string().contains("concept:name"), "{err}");
    }

    #[test]
    fn class_attr_convention_round_trip() {
        let doc = r#"<log>
          <string key="gecco:classattr" value="A_Submit">
            <string key="system" value="A"/>
          </string>
          <trace><event><string key="concept:name" value="A_Submit"/></event></trace>
        </log>"#;
        let log = parse_str(doc).unwrap();
        let id = log.class_by_name("A_Submit").unwrap();
        let key = log.key("system").unwrap();
        let v = log.classes().info(id).attribute(key).unwrap();
        assert_eq!(log.resolve(v.as_symbol().unwrap()), "A");
    }

    #[test]
    fn multiple_class_attrs_stay_on_the_class() {
        // Regression for the parse_class_attrs early-return bug: with two or
        // more self-closing children (the writer always emits self-closing
        // attribute elements), every attribute after the first used to be
        // misfiled as a log-level attribute.
        let doc = r#"<log>
          <string key="gecco:classattr" value="A">
            <string key="system" value="S1"/>
            <string key="department" value="D1"/>
            <string key="owner" value="O1"/>
          </string>
          <string key="gecco:classattr" value="B">
            <string key="system" value="S2"/>
            <string key="department" value="D2"/>
          </string>
          <trace>
            <event><string key="concept:name" value="A"/></event>
            <event><string key="concept:name" value="B"/></event>
          </trace>
        </log>"#;
        let log = parse_str(doc).unwrap();
        let a = log.class_by_name("A").unwrap();
        let b = log.class_by_name("B").unwrap();
        for (class, key, want) in [
            (a, "system", "S1"),
            (a, "department", "D1"),
            (a, "owner", "O1"),
            (b, "system", "S2"),
            (b, "department", "D2"),
        ] {
            let key = log.key(key).unwrap_or_else(|| panic!("key {key:?} not interned"));
            let v = log
                .classes()
                .info(class)
                .attribute(key)
                .unwrap_or_else(|| panic!("missing class attr"));
            assert_eq!(log.resolve(v.as_symbol().unwrap()), want);
        }
        // And nothing leaked to log level.
        assert!(log.attributes().is_empty(), "class attrs leaked: {:?}", log.attributes());
    }

    #[test]
    fn bad_typed_values_are_errors() {
        for (tag, val) in [("int", "xx"), ("float", "--"), ("boolean", "maybe"), ("date", "nope")] {
            let doc = format!(
                r#"<log><trace><event><string key="concept:name" value="a"/><{tag} key="k" value="{val}"/></event></trace></log>"#
            );
            assert!(parse_str(&doc).is_err(), "accepted bad {tag} value");
        }
    }

    #[test]
    fn missing_log_element_is_an_error() {
        assert!(parse_str("<notalog/>").is_err());
    }

    #[test]
    fn empty_and_self_closing_traces() {
        let log = parse_str("<log><trace/><trace></trace></log>").unwrap();
        assert_eq!(log.traces().len(), 2);
        assert_eq!(log.num_events(), 0);
    }

    #[test]
    fn errors_in_late_chunks_report_document_lines() {
        // The bad value sits inside the second trace; the reported line
        // must be document-absolute, not chunk-relative.
        let doc = "<log>\n<trace>\n<event><string key=\"concept:name\" value=\"a\"/></event>\n</trace>\n<trace>\n<event>\n<int key=\"k\" value=\"zz\"/>\n<string key=\"concept:name\" value=\"b\"/>\n</event>\n</trace>\n</log>";
        let err = parse_str(doc).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 7"), "got {msg}");
    }

    #[test]
    fn parse_bytes_accepts_raw_bytes() {
        let log = parse_bytes(SAMPLE.as_bytes()).unwrap();
        assert_eq!(log.num_events(), 3);
    }

    #[test]
    fn parse_file_rejects_invalid_utf8() {
        // parse_bytes is documented as lossy, but parse_file must keep the
        // old read_to_string behavior: a Latin-1 / corrupted file errors
        // instead of importing with U+FFFD mojibake.
        let dir = std::env::temp_dir().join("gecco-xes-utf8-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("latin1.xes");
        std::fs::write(
            &path,
            b"<log>\n<trace><event><string key=\"concept:name\" value=\"caf\xE9\"/></event></trace></log>",
        )
        .unwrap();
        let err = parse_file(&path).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
