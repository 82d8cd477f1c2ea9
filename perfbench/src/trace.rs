//! Spans recorded around each layer call of the traced run.
//!
//! Spans live in memory until the run ends and are then exported as JSON.
//! Each span knows its parent, so a layer's *self* time is its duration
//! minus the part of it that child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `xes.parse`.
    pub name: &'static str,
    /// Identifier shared by every span of one op.
    pub op: u32,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; nesting follows the call structure.
pub struct Recorder {
    epoch: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), inner: RefCell::new(Inner::default()) }
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&self, op: u32) {
        self.inner.borrow_mut().op = op;
    }

    /// Runs `f` inside a span named `name`. The span is closed even when
    /// `f` unwinds, so a panicking op leaves the nesting intact.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.open(name);
        f()
    }

    fn open(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        let op = inner.op;
        inner.spans.push(Span { name, op, start_ns, end_ns: start_ns, parent });
        inner.open.push(index);
        SpanGuard { recorder: self, index }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

struct SpanGuard<'a> {
    recorder: &'a Recorder,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.recorder.now_ns();
        let mut inner = self.recorder.inner.borrow_mut();
        inner.spans[self.index].end_ns = end_ns;
        // Spans close in reverse order of opening, unwinding included.
        if let Some(position) = inner.open.iter().rposition(|&i| i == self.index) {
            inner.open.truncate(position);
        }
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Summed self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name = BTreeMap::new();
    for (span, ns) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(span.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    by_name
}

/// Summed duration of the spans named `name`, in seconds.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 * 1e-9).sum()
}

/// The spans of one traced run plus its counters, as a JSON document.
/// `ops` holds each op's spans; a span's `id` and `parent` number the
/// spans of its op.
pub fn export_json(
    workload: &str,
    seed: u64,
    ops: &[Vec<Span>],
    counters: &BTreeMap<String, f64>,
) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
    let mut first = true;
    for spans in ops {
        for (i, (span, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
                span.name, span.op, span.start_ns, span.end_ns
            );
        }
    }
    out.push_str("],\"counters\":{");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{}", crate::json_number(*value));
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, op: 0, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ parse [10,40) ⊃ scan [15,25); op ⊃ write [50,90).
        let spans = vec![
            span("op", 0, 100, None),
            span("parse", 10, 40, Some(0)),
            span("scan", 15, 25, Some(1)),
            span("write", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["op"] - 30e-9).abs() < 1e-18);
        assert!((by_name["scan"] - 10e-9).abs() < 1e-18);
        assert!((total_seconds(&spans, "op") - 100e-9).abs() < 1e-18);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10,70) and [90,100) = 70 ns.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_survives_a_panic() {
        let recorder = Recorder::new();
        recorder.set_op(3);
        recorder.span("op", || {
            recorder.span("inner", || std::hint::black_box(1 + 1));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                recorder.span("boom", || panic!("deliberate"))
            }));
            assert!(caught.is_err());
            recorder.span("after", || ());
        });
        let spans = recorder.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("op", None, 3),
                ("inner", Some(0), 3),
                ("boom", Some(0), 3),
                ("after", Some(0), 3)
            ]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        let self_ns = self_times_ns(&spans);
        let children: u64 = spans[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(self_ns[0], spans[0].duration_ns() - children);
    }
}
