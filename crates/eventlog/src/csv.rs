//! CSV import/export for event logs — chunked like the XES pipeline.
//!
//! Many real-world logs (including several 4TU datasets) ship as CSV with
//! one event per row. The importer expects a header row naming at least the
//! case and activity columns; remaining columns become event attributes.
//! Values are typed by sniffing: ISO-8601 → timestamp, integer → int,
//! float → float, `true`/`false` → bool, otherwise string.
//!
//! Import runs in three phases. Phase A splits the input into records with
//! a single quote-aware byte scan — unquoted fields are *borrowed* slices
//! of the input, only quoted fields (escape/newline normalization) ever
//! allocate. Phase B sniffs and locally interns record chunks — in parallel
//! under the `rayon` feature (type sniffing, i.e. the timestamp/number
//! parse attempts, dominates import time). Phase C merges the chunk
//! interners in order via [`LogBuilder::merge_interner`] — the same
//! fragment-merge machinery the XES reader uses — and groups rows into
//! traces by case, in first-seen order. Chunk boundaries never influence
//! the result: serial and parallel imports are bit-identical
//! (`tests/ingest_equivalence.rs`).

use crate::error::{Error, Result};
use crate::interner::{Interner, Symbol};
use crate::log::{remap_attr, EventLog, LogBuilder};
use crate::parallel;
use crate::time::parse_iso8601;
use crate::value::AttributeValue;
use std::borrow::Cow;

/// Column configuration for [`read_str`].
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Name of the case-id column.
    pub case_column: String,
    /// Name of the activity (event-class) column.
    pub activity_column: String,
    /// Field delimiter.
    pub delimiter: char,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            case_column: "case:concept:name".into(),
            activity_column: "concept:name".into(),
            delimiter: ',',
        }
    }
}

/// How one field ended: at a delimiter, or at the end of the record.
enum FieldEnd {
    Delim,
    Record,
}

/// Quote-aware record splitter over the raw input bytes. Unquoted fields
/// are borrowed slices; quoted fields allocate once for unescaping.
struct RecordSplitter<'a> {
    input: &'a str,
    bytes: &'a [u8],
    /// UTF-8 encoding of the delimiter (multi-byte delimiters supported).
    delim: [u8; 4],
    delim_len: usize,
    pos: usize,
    /// 1-based physical line number at `pos`.
    line: usize,
}

impl<'a> RecordSplitter<'a> {
    fn new(input: &'a str, delimiter: char) -> Self {
        let mut delim = [0u8; 4];
        let delim_len = delimiter.encode_utf8(&mut delim).len();
        RecordSplitter { input, bytes: input.as_bytes(), delim, delim_len, pos: 0, line: 1 }
    }

    fn at_delim(&self) -> bool {
        self.bytes[self.pos..].starts_with(&self.delim[..self.delim_len])
    }

    /// Consumes a record terminator (`\r\n`, `\n`, or end of input) at the
    /// current position, updating the line counter.
    fn consume_record_end(&mut self) {
        match self.bytes.get(self.pos) {
            Some(b'\r') if self.bytes.get(self.pos + 1) == Some(&b'\n') => {
                self.pos += 2;
                self.line += 1;
            }
            Some(b'\n') => {
                self.pos += 1;
                self.line += 1;
            }
            _ => {}
        }
    }

    /// Whether the current position starts a record terminator.
    fn at_record_end(&self) -> bool {
        match self.bytes.get(self.pos) {
            None | Some(b'\n') => true,
            Some(b'\r') => self.bytes.get(self.pos + 1) == Some(&b'\n'),
            _ => false,
        }
    }

    /// Parses one unquoted field: a borrowed slice up to the next
    /// delimiter or record end (quotes past the first byte are literal).
    fn unquoted_field(&mut self) -> (Cow<'a, str>, FieldEnd) {
        let start = self.pos;
        loop {
            if self.at_record_end() {
                return (Cow::Borrowed(&self.input[start..self.pos]), FieldEnd::Record);
            }
            if self.at_delim() {
                let field = Cow::Borrowed(&self.input[start..self.pos]);
                self.pos += self.delim_len;
                return (field, FieldEnd::Delim);
            }
            self.pos += 1;
        }
    }

    /// Parses one field that starts with a quote: quoted span with `""`
    /// escapes and embedded (normalized) newlines, then a literal tail up
    /// to the delimiter or record end.
    fn quoted_field(&mut self, record_line: usize) -> Result<(Cow<'a, str>, FieldEnd)> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        let mut seg_start = self.pos;
        // Inside quotes.
        loop {
            match self.bytes.get(self.pos) {
                None => {
                    return Err(Error::Csv {
                        line: record_line,
                        message: "unterminated quote".into(),
                    })
                }
                Some(b'"') => {
                    out.push_str(&self.input[seg_start..self.pos]);
                    if self.bytes.get(self.pos + 1) == Some(&b'"') {
                        out.push('"');
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        break; // closing quote
                    }
                    seg_start = self.pos;
                }
                Some(b'\r') if self.bytes.get(self.pos + 1) == Some(&b'\n') => {
                    out.push_str(&self.input[seg_start..self.pos]);
                    out.push('\n'); // normalize CRLF inside quotes
                    self.pos += 2;
                    self.line += 1;
                    seg_start = self.pos;
                }
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                }
                Some(_) => self.pos += 1,
            }
        }
        // Literal tail after the closing quote (quotes here are literal
        // characters, exactly as in the line-based splitter this replaces).
        let seg_start = self.pos;
        loop {
            if self.at_record_end() {
                out.push_str(&self.input[seg_start..self.pos]);
                return Ok((Cow::Owned(out), FieldEnd::Record));
            }
            if self.at_delim() {
                out.push_str(&self.input[seg_start..self.pos]);
                self.pos += self.delim_len;
                return Ok((Cow::Owned(out), FieldEnd::Delim));
            }
            self.pos += 1;
        }
    }

    /// Reads the next record. When `skip_blank` is set, whitespace-only
    /// lines before the record are skipped (matching the original
    /// line-based splitter, which only did this between body records).
    /// Returns the record's starting line and its fields.
    fn next_record(&mut self, skip_blank: bool) -> Result<Option<(usize, Vec<Cow<'a, str>>)>> {
        if skip_blank {
            while self.pos < self.bytes.len() {
                let line_end = self.bytes[self.pos..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(self.bytes.len(), |i| self.pos + i);
                if self.input[self.pos..line_end].trim().is_empty() {
                    self.pos = line_end;
                    self.consume_record_end();
                } else {
                    break;
                }
            }
        }
        if self.pos >= self.bytes.len() {
            return Ok(None);
        }
        let record_line = self.line;
        let mut fields = Vec::new();
        loop {
            let (field, end) = if self.bytes.get(self.pos) == Some(&b'"') {
                self.quoted_field(record_line)?
            } else {
                self.unquoted_field()
            };
            fields.push(field);
            match end {
                FieldEnd::Delim => {}
                FieldEnd::Record => {
                    self.consume_record_end();
                    return Ok(Some((record_line, fields)));
                }
            }
        }
    }
}

/// One split record: its starting (1-based) line plus its fields.
type Record<'a> = (usize, Vec<Cow<'a, str>>);

/// The events of one trace-in-progress: `(class symbol, attributes)`.
type CaseEvents = Vec<(Symbol, Vec<(Symbol, AttributeValue)>)>;

/// One sniffed row in a chunk fragment's local symbol space.
struct CsvRow {
    case: Symbol,
    class: Symbol,
    attrs: Vec<(Symbol, AttributeValue)>,
}

/// A chunk of sniffed rows with its thread-local interner.
struct CsvFragment {
    interner: Interner,
    rows: Vec<CsvRow>,
}

/// Phase B: types and locally interns one chunk of records.
fn sniff_chunk(
    records: &[Record<'_>],
    header: &[Cow<'_, str>],
    case_idx: usize,
    act_idx: usize,
) -> CsvFragment {
    let mut interner = Interner::new();
    let mut rows = Vec::with_capacity(records.len());
    let is_attr = |i: usize, value: &str| i != case_idx && i != act_idx && !value.is_empty();
    for (_, fields) in records {
        let case = interner.intern(&fields[case_idx]);
        let class = interner.intern(&fields[act_idx]);
        // Sized exactly: the vector reaches `Event::new` through an
        // in-place remap, and any spare capacity would cost a shrinking
        // `realloc` whose freed tail stays stranded next to the event.
        let len = fields.iter().enumerate().filter(|(i, v)| is_attr(*i, v)).count();
        let mut attrs = Vec::with_capacity(len);
        for (i, value) in fields.iter().enumerate() {
            if !is_attr(i, value) {
                continue;
            }
            let key = interner.intern(&header[i]);
            let typed = if let Ok(ts) = parse_iso8601(value) {
                AttributeValue::Timestamp(ts)
            } else if let Ok(i64v) = value.parse::<i64>() {
                AttributeValue::Int(i64v)
            } else if let Ok(f64v) = value.parse::<f64>() {
                AttributeValue::Float(f64v)
            } else if value.as_ref() == "true" || value.as_ref() == "false" {
                AttributeValue::Bool(value.as_ref() == "true")
            } else {
                AttributeValue::Str(interner.intern(value))
            };
            attrs.push((key, typed));
        }
        rows.push(CsvRow { case, class, attrs });
    }
    CsvFragment { interner, rows }
}

/// Minimum number of records before phase B fans out.
const MIN_PARALLEL_RECORDS: usize = 512;

/// Parses a CSV document into an event log. Rows are grouped into traces by
/// the case column, preserving row order within each case; traces appear in
/// first-seen case order.
pub fn read_str(input: &str, options: &CsvOptions) -> Result<EventLog> {
    let mut splitter = RecordSplitter::new(input, options.delimiter);
    // Header (blank lines before it are NOT skipped, matching the original
    // importer).
    let Some((_, header)) = splitter.next_record(false)? else {
        return Ok(LogBuilder::new().build());
    };
    let case_idx = header.iter().position(|h| *h == options.case_column).ok_or_else(|| {
        Error::Csv { line: 1, message: format!("missing case column {:?}", options.case_column) }
    })?;
    let act_idx =
        header.iter().position(|h| *h == options.activity_column).ok_or_else(|| Error::Csv {
            line: 1,
            message: format!("missing activity column {:?}", options.activity_column),
        })?;

    // Phase A: split every record (serial — this is a cheap byte scan) and
    // validate field counts in document order.
    let mut records: Vec<Record<'_>> = Vec::new();
    while let Some((line, fields)) = splitter.next_record(true)? {
        if fields.len() != header.len() {
            return Err(Error::Csv {
                line,
                message: format!("expected {} fields, found {}", header.len(), fields.len()),
            });
        }
        records.push((line, fields));
    }

    // Phase B: sniff + locally intern chunks, in parallel when enabled.
    let workers = parallel::worker_count();
    let chunk_size = records.len().div_ceil(workers.max(1)).max(1);
    let chunks: Vec<&[Record<'_>]> = records.chunks(chunk_size).collect();
    let min_chunks = if records.len() >= MIN_PARALLEL_RECORDS { 2 } else { usize::MAX };
    let fragments =
        parallel::par_map(&chunks, min_chunks, |c| sniff_chunk(c, &header, case_idx, act_idx));

    // Phase C: merge fragments in chunk order, group rows by case.
    let mut builder = LogBuilder::new();
    let concept_key = builder.intern("concept:name");
    let mut case_index: std::collections::HashMap<Symbol, usize> = std::collections::HashMap::new();
    let mut cases: Vec<(Symbol, CaseEvents)> = Vec::new();
    for fragment in fragments {
        let map = builder.merge_interner(&fragment.interner);
        for row in fragment.rows {
            let case = map[row.case.index()];
            let class = map[row.class.index()];
            let attrs: Vec<_> =
                row.attrs.into_iter().map(|(k, v)| remap_attr(&map, k, v)).collect();
            let slot = *case_index.entry(case).or_insert_with(|| {
                cases.push((case, Vec::new()));
                cases.len() - 1
            });
            cases[slot].1.push((class, attrs));
        }
    }
    for (case, events) in cases {
        let attributes = vec![(concept_key, AttributeValue::Str(case))];
        builder.push_trace_symbols(attributes, events)?;
    }
    Ok(builder.build())
}

/// Reads a CSV file from disk.
pub fn read_file(path: impl AsRef<std::path::Path>, options: &CsvOptions) -> Result<EventLog> {
    read_str(&std::fs::read_to_string(path)?, options)
}

fn quote(field: &str, delim: char) -> String {
    if field.contains(delim) || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serializes a log to CSV with columns
/// `case:concept:name, concept:name, <union of event attribute keys>`.
pub fn write_string(log: &EventLog) -> String {
    // Collect the union of event-attribute keys (excluding concept:name).
    let mut keys: Vec<crate::Symbol> = Vec::new();
    for trace in log.traces() {
        for event in trace.events() {
            for (k, _) in event.attributes() {
                if *k != log.std_keys().concept_name && !keys.contains(k) {
                    keys.push(*k);
                }
            }
        }
    }
    keys.sort_by_key(|k| log.resolve(*k).to_string());
    let mut out = String::new();
    out.push_str("case:concept:name,concept:name");
    for k in &keys {
        out.push(',');
        out.push_str(&quote(log.resolve(*k), ','));
    }
    out.push('\n');
    for (i, trace) in log.traces().iter().enumerate() {
        let case = trace
            .attribute(log.std_keys().concept_name)
            .and_then(|v| v.as_symbol())
            .map(|s| log.resolve(s).to_string())
            .unwrap_or_else(|| format!("case-{i}"));
        for event in trace.events() {
            out.push_str(&quote(&case, ','));
            out.push(',');
            out.push_str(&quote(log.class_name(event.class()), ','));
            for k in &keys {
                out.push(',');
                if let Some(v) = event.attribute(*k) {
                    out.push_str(&quote(&v.display(log.interner()).to_string(), ','));
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AttributeValue;

    #[test]
    fn basic_import_groups_by_case() {
        let csv = "case:concept:name,concept:name,cost\nc1,a,5\nc2,a,1\nc1,b,2\n";
        let log = read_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(log.traces().len(), 2);
        assert_eq!(log.traces()[0].len(), 2); // c1: a, b
        assert_eq!(log.traces()[1].len(), 1);
        let e = &log.traces()[0].events()[1];
        assert_eq!(log.class_name(e.class()), "b");
        assert_eq!(e.attribute(log.key("cost").unwrap()), Some(&AttributeValue::Int(2)));
    }

    #[test]
    fn type_sniffing() {
        let csv = "case:concept:name,concept:name,when,x,y,flag,label\n\
                   c,a,2021-01-01T00:00:00Z,3,2.5,true,hello\n";
        let log = read_str(csv, &CsvOptions::default()).unwrap();
        let e = &log.traces()[0].events()[0];
        assert!(matches!(
            e.attribute(log.key("when").unwrap()),
            Some(AttributeValue::Timestamp(_))
        ));
        assert_eq!(e.attribute(log.key("x").unwrap()), Some(&AttributeValue::Int(3)));
        assert_eq!(e.attribute(log.key("y").unwrap()), Some(&AttributeValue::Float(2.5)));
        assert_eq!(e.attribute(log.key("flag").unwrap()), Some(&AttributeValue::Bool(true)));
        let label = e.attribute(log.key("label").unwrap()).unwrap().as_symbol().unwrap();
        assert_eq!(log.resolve(label), "hello");
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let csv = "case:concept:name,concept:name,note\nc,\"a, really\",\"say \"\"hi\"\"\"\n";
        let log = read_str(csv, &CsvOptions::default()).unwrap();
        assert!(log.class_by_name("a, really").is_some());
        let e = &log.traces()[0].events()[0];
        let note = e.attribute(log.key("note").unwrap()).unwrap().as_symbol().unwrap();
        assert_eq!(log.resolve(note), "say \"hi\"");
    }

    #[test]
    fn quoted_field_spanning_lines() {
        let csv = "case:concept:name,concept:name,note\nc,a,\"two\nlines\"\n";
        let log = read_str(csv, &CsvOptions::default()).unwrap();
        let e = &log.traces()[0].events()[0];
        let note = e.attribute(log.key("note").unwrap()).unwrap().as_symbol().unwrap();
        assert_eq!(log.resolve(note), "two\nlines");
        // CRLF inside quotes normalizes to LF, like the line-based splitter.
        let csv = "case:concept:name,concept:name,note\r\nc,a,\"two\r\nlines\"\r\n";
        let log = read_str(csv, &CsvOptions::default()).unwrap();
        let e = &log.traces()[0].events()[0];
        let note = e.attribute(log.key("note").unwrap()).unwrap().as_symbol().unwrap();
        assert_eq!(log.resolve(note), "two\nlines");
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = read_str("case:concept:name,concept:name\nc,\"oops\n", &CsvOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("unterminated quote"), "{err}");
    }

    #[test]
    fn missing_columns_are_errors() {
        let err = read_str("a,b\n1,2\n", &CsvOptions::default()).unwrap_err();
        assert!(err.to_string().contains("case column"));
        let err = read_str("case:concept:name,b\n1,2\n", &CsvOptions::default()).unwrap_err();
        assert!(err.to_string().contains("activity column"));
    }

    #[test]
    fn field_count_mismatch_reports_line() {
        let err = read_str("case:concept:name,concept:name\nc1,a\nc1\n", &CsvOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn blank_lines_between_records_are_skipped() {
        let csv = "case:concept:name,concept:name\n\n  \nc1,a\n\nc1,b\n";
        let log = read_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(log.traces().len(), 1);
        assert_eq!(log.num_events(), 2);
    }

    #[test]
    fn round_trip() {
        let csv = "case:concept:name,concept:name,cost\nc1,a,5\nc1,b,7\nc2,a,1\n";
        let log = read_str(csv, &CsvOptions::default()).unwrap();
        let out = write_string(&log);
        let log2 = read_str(&out, &CsvOptions::default()).unwrap();
        assert_eq!(log2.traces().len(), 2);
        assert_eq!(log2.num_events(), 3);
        let e = &log2.traces()[0].events()[1];
        assert_eq!(e.attribute(log2.key("cost").unwrap()), Some(&AttributeValue::Int(7)));
    }

    #[test]
    fn empty_input_is_empty_log() {
        let log = read_str("", &CsvOptions::default()).unwrap();
        assert_eq!(log.traces().len(), 0);
    }

    #[test]
    fn sniffed_attributes_are_allocated_at_their_final_size() {
        // `read_str` remaps each row's attributes in place and hands them
        // to `Event::new`, which boxes them: spare capacity here would be
        // shrunk away by a `realloc` that strands the freed tail. Pushing
        // into `Vec::new()` left capacity 4 for 1 attribute and 8 for 5.
        let csv = "case,act,a,b,c,d,e\n\
                   c1,x,1,,,,\n\
                   c1,y,1,two,3.5,,true\n\
                   c1,z,1,two,3.5,2021-01-01T00:00:00Z,true\n";
        let mut splitter = RecordSplitter::new(csv, ',');
        let (_, header) = splitter.next_record(false).unwrap().unwrap();
        let mut records = Vec::new();
        while let Some(record) = splitter.next_record(true).unwrap() {
            records.push(record);
        }
        let fragment = sniff_chunk(&records, &header, 0, 1);
        let lens: Vec<usize> = fragment.rows.iter().map(|r| r.attrs.len()).collect();
        assert_eq!(lens, [1, 4, 5]);
        for row in &fragment.rows {
            assert_eq!(row.attrs.capacity(), row.attrs.len());
        }
    }

    #[test]
    fn custom_delimiter() {
        let csv = "case:concept:name;concept:name\nc;a\n";
        let opts = CsvOptions { delimiter: ';', ..CsvOptions::default() };
        let log = read_str(csv, &opts).unwrap();
        assert_eq!(log.num_events(), 1);
    }
}
