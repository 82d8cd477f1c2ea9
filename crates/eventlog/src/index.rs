//! Indexed instance materialization: [`LogIndex`] and [`EvalContext`].
//!
//! GECCO's Step-1 search checks thousands of candidate groups against the
//! log, and the naive [`crate::instances()`] scan walks every event of every
//! trace per check — even when none of the group's classes occurs in a
//! trace. The [`LogIndex`] precomputes **per-class postings**: for every
//! event class, the sorted `(trace, position)` occurrences, stored as one
//! run per trace slicing into a flat position array. Instance
//! materialization then becomes a k-way merge over the postings of the
//! group's classes, so its cost is proportional to the group's own
//! occurrences rather than to the log size, and traces containing no group
//! class are never touched.
//!
//! The merge is **bit-identical** to the scan: it yields the same events in
//! the same order, and the shared segmentation logic produces exactly the
//! same [`GroupInstance`]s (asserted by the `index_equivalence` proptest
//! suite in `gecco-core`, which also covers the `rayon` feature).
//!
//! [`EvalContext`] bundles the log, its index and reusable scratch buffers
//! — the unit that constraint evaluation and candidate computation thread
//! through the stack. It holds nothing that grows with the groups it
//! evaluates. Contexts are cheap to create; parallel workers build one each
//! from [`EvalContext::parts`] so every thread gets its own scratch.
//!
//! Two further consumers of the postings live here: [`LogIndex::occurs`]
//! answers the `occurs(g, L)` co-occurrence test of Algorithms 1/2 by
//! intersecting per-class trace-id runs instead of scanning all trace
//! bitmaps, and [`IndexSplicer`] maintains the index *incrementally* while
//! Step-3 abstraction rewrites the log, so re-abstraction never pays a
//! from-scratch [`LogIndex::build`] per pass.

// gecco-lint: allow-file(lossy-cast) — trace ids, event positions and per-class counts are
// u32 by design throughout the postings; the store format rejects anything past u32 at the
// encoding boundary (format::u32_len), so these narrowings cannot wrap
use crate::classes::{ClassId, ClassSet, MAX_CLASSES};
use crate::instances::{GroupInstance, Segmenter};
use crate::log::EventLog;
use crate::trace::Trace;
use std::cell::RefCell;
use std::ops::ControlFlow;

/// One run of a class's postings: all its occurrences in one trace,
/// slicing `start .. start + len` of the flat position array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    trace: u32,
    start: u32,
    len: u32,
}

/// Per-class occurrence index over one [`EventLog`].
///
/// Built once per log (one pass over all events) and shared read-only by
/// any number of [`EvalContext`]s. For every class it stores the postings
/// runs (one per trace the class occurs in, ascending by trace id), the
/// total occurrence count, and — mirroring [`EventLog::trace_class_sets`] —
/// the per-trace class bitmaps used for cheap intersection tests.
/// Equality is structural and therefore *bit-exact*: two indexes compare
/// equal iff they hold identical runs, positions and counts — the property
/// the incremental-maintenance proptests assert between a spliced index
/// (see [`IndexSplicer`]) and a fresh [`LogIndex::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogIndex {
    class_runs: Vec<Vec<Run>>,
    positions: Vec<u32>,
    class_counts: Vec<u32>,
    num_traces: usize,
}

impl LogIndex {
    /// Builds the index with one pass over the log's events.
    pub fn build(log: &EventLog) -> LogIndex {
        let num_classes = log.num_classes();
        let mut per_class_pos: Vec<Vec<u32>> = vec![Vec::new(); num_classes];
        let mut per_class_runs: Vec<Vec<Run>> = vec![Vec::new(); num_classes];
        for (ti, trace) in log.traces().iter().enumerate() {
            for (pos, event) in trace.events().iter().enumerate() {
                let c = event.class().index();
                let plist = &mut per_class_pos[c];
                match per_class_runs[c].last_mut() {
                    Some(run) if run.trace == ti as u32 => run.len += 1,
                    _ => per_class_runs[c].push(Run {
                        trace: ti as u32,
                        start: plist.len() as u32,
                        len: 1,
                    }),
                }
                plist.push(pos as u32);
            }
        }
        flatten(per_class_pos, per_class_runs, log.traces().len())
    }

    /// Builds the index from trace batches without a finished
    /// [`EventLog`] — bit-identical to [`LogIndex::build`] on the log
    /// assembled from the same traces in the same order.
    ///
    /// `num_classes` is the final class-registry size: classes that never
    /// occur in any event still get (empty) postings rows, exactly as
    /// [`LogIndex::build`] allocates them from `log.num_classes()`. The
    /// streaming store feeds its batches through here so index
    /// construction never needs all traces in memory at once.
    pub fn build_from_traces<'a>(
        num_classes: usize,
        traces: impl IntoIterator<Item = &'a Trace>,
    ) -> LogIndex {
        let mut per_class_pos: Vec<Vec<u32>> = vec![Vec::new(); num_classes];
        let mut per_class_runs: Vec<Vec<Run>> = vec![Vec::new(); num_classes];
        let mut num_traces = 0usize;
        for trace in traces {
            let ti = num_traces;
            num_traces += 1;
            for (pos, event) in trace.events().iter().enumerate() {
                let c = event.class().index();
                let plist = &mut per_class_pos[c];
                match per_class_runs[c].last_mut() {
                    Some(run) if run.trace == ti as u32 => run.len += 1,
                    _ => per_class_runs[c].push(Run {
                        trace: ti as u32,
                        start: plist.len() as u32,
                        len: 1,
                    }),
                }
                plist.push(pos as u32);
            }
        }
        flatten(per_class_pos, per_class_runs, num_traces)
    }

    /// Total number of events of class `c`, `Σ_σ |σ↓{c}|`.
    #[inline]
    pub fn class_occurrences(&self, c: ClassId) -> usize {
        self.class_counts[c.index()] as usize
    }

    /// Number of traces class `c` occurs in.
    #[inline]
    pub fn trace_count(&self, c: ClassId) -> usize {
        self.class_runs[c.index()].len()
    }

    /// Number of traces of the log this index was built from. Per-trace
    /// class bitmaps are *not* duplicated here — read them from
    /// [`EventLog::trace_class_sets`].
    #[inline]
    pub fn num_traces(&self) -> usize {
        self.num_traces
    }

    /// The postings of class `c`: one `(trace id, positions)` pair per trace
    /// the class occurs in, ascending by trace id, with the positions sorted
    /// ascending within the trace. This is the raw per-class occurrence data
    /// the index stores; [`crate::Dfg::from_index`] rebuilds the
    /// directly-follows relation from it without touching any event struct.
    pub fn postings(&self, c: ClassId) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        // A spliced index may store fewer run lists than the log has
        // classes when the highest class ids never occur.
        let runs = self.class_runs.get(c.index()).map(Vec::as_slice).unwrap_or(&[]);
        runs.iter().map(move |run| {
            let start = run.start as usize;
            (run.trace, &self.positions[start..start + run.len as usize])
        })
    }

    /// Indexed `occurs(g, L)` (Algorithm 1 line 13): whether at least one
    /// trace contains *every* class of `group`.
    ///
    /// Equivalent to [`EventLog::occurs`], but instead of testing every
    /// trace's class bitmap it intersects the per-class trace-id run lists
    /// with galloping cursors, so the cost depends on the group's own
    /// occurrence structure — never on the log's trace count. Candidate
    /// expansion reaches this through the adaptive [`EvalContext::occurs`],
    /// which falls back to the bitmap scan on small logs where the scan's
    /// early exit wins.
    pub fn occurs(&self, group: &ClassSet) -> bool {
        // Fixed-size scratch on the stack: this runs once per expansion
        // product on the candidate hot path, so no per-call allocation.
        let mut classes = [ClassId(0); MAX_CLASSES];
        let mut k = 0usize;
        // Any class with no occurrences makes the group non-occurring.
        for c in group.iter() {
            if self.runs(c).is_empty() {
                return false;
            }
            classes[k] = c;
            k += 1;
        }
        if k == 0 {
            // ∅ ⊆ cs for every trace class set: matches the scan semantics.
            return self.num_traces > 0;
        }
        // Existence check on the k-way intersection, by galloping cursor
        // alignment: keep a target trace id (the largest under any cursor)
        // and advance every other cursor to it with exponential + binary
        // search. Co-occurring groups stop at the first common trace;
        // block-disjoint classes (e.g. different tenants of a multi-process
        // store) resolve in O(k log runs) instead of walking either list.
        let mut cursors = [0u32; MAX_CLASSES];
        let mut target = self.runs(classes[0])[0].trace;
        let mut aligned = 1; // how many consecutive lists currently sit on `target`
        let mut i = 1 % k;
        while aligned < k {
            let runs = self.runs(classes[i]);
            let cur = gallop_to(runs, cursors[i] as usize, target);
            cursors[i] = cur as u32;
            match runs.get(cur) {
                None => return false,
                Some(run) if run.trace == target => aligned += 1,
                Some(run) => {
                    target = run.trace;
                    aligned = 1;
                }
            }
            i = (i + 1) % k;
        }
        true
    }

    /// Checks every structural invariant of the index against `log`:
    /// matching trace/class counts, runs strictly ascending by trace,
    /// postings sorted, in-bounds and pointing at events of the right
    /// class. `Err` carries a description of the first violation.
    ///
    /// This is the oracle behind the [`EvalContext`] debug assertion: a
    /// stale index (e.g. one built before abstraction rewrote the log, or a
    /// botched splice) is rejected before it can evaluate constraints
    /// against the wrong events. O(number of events) — debug builds only on
    /// the context path; call it directly in tests.
    pub fn validate(&self, log: &EventLog) -> Result<(), String> {
        if self.num_traces != log.traces().len() {
            return Err(format!(
                "index covers {} traces, log has {}",
                self.num_traces,
                log.traces().len()
            ));
        }
        if self.class_runs.len() != log.num_classes() {
            return Err(format!(
                "index covers {} classes, log has {}",
                self.class_runs.len(),
                log.num_classes()
            ));
        }
        let mut total = 0usize;
        for (ci, runs) in self.class_runs.iter().enumerate() {
            let mut count = 0u32;
            let mut prev_trace: Option<u32> = None;
            for run in runs {
                if prev_trace.is_some_and(|p| p >= run.trace) {
                    return Err(format!("class {ci}: runs not strictly ascending by trace"));
                }
                prev_trace = Some(run.trace);
                if run.len == 0 {
                    return Err(format!("class {ci}: empty run for trace {}", run.trace));
                }
                let (start, end) = (run.start as usize, (run.start + run.len) as usize);
                if end > self.positions.len() {
                    return Err(format!("class {ci}: run exceeds the position array"));
                }
                let trace = log.traces().get(run.trace as usize).ok_or_else(|| {
                    format!("class {ci}: run for nonexistent trace {}", run.trace)
                })?;
                let mut prev_pos: Option<u32> = None;
                for &pos in &self.positions[start..end] {
                    if prev_pos.is_some_and(|p| p >= pos) {
                        return Err(format!(
                            "class {ci}, trace {}: postings not strictly ascending",
                            run.trace
                        ));
                    }
                    prev_pos = Some(pos);
                    let event = trace.events().get(pos as usize).ok_or_else(|| {
                        format!(
                            "class {ci}, trace {}: position {pos} out of bounds (len {})",
                            run.trace,
                            trace.len()
                        )
                    })?;
                    if event.class().index() != ci {
                        return Err(format!(
                            "class {ci}, trace {}: position {pos} holds class {}",
                            run.trace,
                            event.class().index()
                        ));
                    }
                }
                count += run.len;
            }
            if count != self.class_counts[ci] {
                return Err(format!(
                    "class {ci}: runs cover {count} events, count says {}",
                    self.class_counts[ci]
                ));
            }
            total += count as usize;
        }
        if total != log.num_events() {
            return Err(format!("index covers {total} events, log has {}", log.num_events()));
        }
        Ok(())
    }

    /// One step of the k-way trace merge behind
    /// [`EvalContext::visit_instances`]: finds the smallest trace id under
    /// the cursors (cursor `i` indexes class `i`'s run list), advances
    /// every cursor sitting on that trace, and reports each advanced run.
    /// `None` once all cursors are exhausted.
    fn next_merged_trace(
        &self,
        classes: &[ClassId],
        cursors: &mut [u32],
        mut on_run: impl FnMut(Run, ClassId),
    ) -> Option<u32> {
        // k = |g ∩ C_L| is small, so a linear scan beats a heap.
        let mut t_min = u32::MAX;
        for (i, &c) in classes.iter().enumerate() {
            let runs = self.runs(c);
            if (cursors[i] as usize) < runs.len() {
                t_min = t_min.min(runs[cursors[i] as usize].trace);
            }
        }
        if t_min == u32::MAX {
            return None;
        }
        for (i, &c) in classes.iter().enumerate() {
            let runs = self.runs(c);
            if (cursors[i] as usize) < runs.len() && runs[cursors[i] as usize].trace == t_min {
                on_run(runs[cursors[i] as usize], c);
                cursors[i] += 1;
            }
        }
        Some(t_min)
    }

    #[inline]
    fn runs(&self, c: ClassId) -> &[Run] {
        &self.class_runs[c.index()]
    }
}

/// First index `>= from` whose run's trace id is `>= target`, by galloping
/// (exponential probe, then binary search within the bracketed window).
/// Cheap when the answer is near `from`, logarithmic when it is far.
fn gallop_to(runs: &[Run], from: usize, target: u32) -> usize {
    if from >= runs.len() || runs[from].trace >= target {
        return from;
    }
    let mut step = 1usize;
    let mut lo = from;
    let mut hi = from + step;
    while hi < runs.len() && runs[hi].trace < target {
        lo = hi;
        step *= 2;
        hi = from + step;
    }
    let hi = hi.min(runs.len());
    lo + runs[lo..hi].partition_point(|r| r.trace < target)
}

/// Flattens per-class position lists into the packed [`LogIndex`] layout;
/// the runs' start offsets shift by the class's base. One implementation
/// shared by [`LogIndex::build`] and [`IndexSplicer::finish`] keeps the two
/// construction paths bit-identical by construction.
fn flatten(
    per_class_pos: Vec<Vec<u32>>,
    per_class_runs: Vec<Vec<Run>>,
    num_traces: usize,
) -> LogIndex {
    let num_events = per_class_pos.iter().map(Vec::len).sum();
    let mut positions = Vec::with_capacity(num_events);
    let mut class_runs = Vec::with_capacity(per_class_runs.len());
    let mut class_counts = Vec::with_capacity(per_class_pos.len());
    for (plist, mut runs) in per_class_pos.into_iter().zip(per_class_runs) {
        let base = positions.len() as u32;
        for run in &mut runs {
            run.start += base;
        }
        class_counts.push(plist.len() as u32);
        positions.extend_from_slice(&plist);
        class_runs.push(runs);
    }
    LogIndex { class_runs, positions, class_counts, num_traces }
}

/// Incremental [`LogIndex`] maintenance for a log that is being *rewritten*
/// trace by trace (Step-3 abstraction).
///
/// `abstract_log` replaces each activity-instance span with a single
/// high-level event; instead of throwing the old index away and paying a
/// full [`LogIndex::build`] pass over the rewritten log, the rewriter
/// reports each new trace and each emitted event as it goes, and the
/// splicer patches the postings directly: a replaced span collapses into
/// one posting appended to the abstracted class's current run, untouched
/// runs stay as-is, and occurrence counts grow with the pushes rather than
/// being recounted. [`IndexSplicer::finish`] packs the runs through the
/// same flattening as [`LogIndex::build`], so the result is **bit-identical**
/// to a fresh build on the finished log (asserted by the
/// `incremental_index_equivalence` proptest suite in `gecco-core`).
///
/// Contract: call [`Self::begin_trace`] once per trace of the new log —
/// including traces left empty by the rewrite — and [`Self::push`] with
/// strictly ascending positions within each trace, using the class ids of
/// the log under construction.
#[derive(Debug, Default)]
pub struct IndexSplicer {
    per_class_pos: Vec<Vec<u32>>,
    per_class_runs: Vec<Vec<Run>>,
    /// One class bitmap per spliced trace, maintained alongside the
    /// postings so the rewritten log's `trace_class_sets` never needs a
    /// rescan (see [`Self::finish_parts`]).
    trace_class_sets: Vec<ClassSet>,
    num_traces: usize,
    /// Debug guard: the last position pushed for the current trace.
    last_pos: Option<u32>,
}

impl IndexSplicer {
    /// Creates a splicer with no traces.
    pub fn new() -> IndexSplicer {
        IndexSplicer::default()
    }

    /// Pre-sizes the postings to `num_classes` rows so classes that never
    /// occur in any spliced trace still get empty rows, matching
    /// [`LogIndex::build`]'s allocation from the class registry.
    pub fn ensure_classes(&mut self, num_classes: usize) {
        if num_classes > self.per_class_pos.len() {
            self.per_class_pos.resize_with(num_classes, Vec::new);
            self.per_class_runs.resize_with(num_classes, Vec::new);
        }
    }

    /// Starts the next trace (trace ids are assigned 0, 1, … in call
    /// order). Must also be called for traces that end up with no events,
    /// so trace ids keep matching the log being built.
    pub fn begin_trace(&mut self) {
        self.num_traces += 1;
        self.trace_class_sets.push(ClassSet::new());
        self.last_pos = None;
    }

    /// Records the event at `position` of the current trace carrying
    /// `class`. Positions must be pushed in strictly ascending order within
    /// a trace.
    ///
    /// # Panics
    /// If called before [`Self::begin_trace`], or (debug builds) when
    /// `position` does not ascend.
    pub fn push(&mut self, class: ClassId, position: u32) {
        assert!(self.num_traces > 0, "IndexSplicer::push before begin_trace");
        debug_assert!(
            self.last_pos.is_none_or(|p| p < position),
            "IndexSplicer: positions must ascend within a trace"
        );
        self.last_pos = Some(position);
        self.trace_class_sets.last_mut().expect("begin_trace called").insert(class);
        let ci = class.index();
        if ci >= self.per_class_pos.len() {
            self.per_class_pos.resize_with(ci + 1, Vec::new);
            self.per_class_runs.resize_with(ci + 1, Vec::new);
        }
        let trace = (self.num_traces - 1) as u32;
        let plist = &mut self.per_class_pos[ci];
        match self.per_class_runs[ci].last_mut() {
            Some(run) if run.trace == trace => run.len += 1,
            _ => self.per_class_runs[ci].push(Run { trace, start: plist.len() as u32, len: 1 }),
        }
        plist.push(position);
    }

    /// Packs the spliced runs into a [`LogIndex`], identical to
    /// [`LogIndex::build`] on the log the pushes described.
    pub fn finish(self) -> LogIndex {
        self.finish_parts().0
    }

    /// Like [`Self::finish`], but also hands out the per-trace class
    /// bitmaps accumulated during splicing — bit-identical to calling
    /// [`crate::Trace::class_set`] on every rewritten trace. Step-3
    /// abstraction feeds them to
    /// [`crate::LogBuilder::build_with_trace_class_sets`] so finishing the
    /// rewritten log never rescans its events.
    pub fn finish_parts(self) -> (LogIndex, Vec<ClassSet>) {
        (flatten(self.per_class_pos, self.per_class_runs, self.num_traces), self.trace_class_sets)
    }
}

/// Scratch buffers reused across instance materializations; plain data so
/// one context can serve any number of candidate checks without
/// re-allocating.
#[derive(Debug, Default)]
struct Scratch {
    /// Run cursor per group class (parallel to `classes`).
    cursors: Vec<u32>,
    /// The group's classes that occur in the log at all.
    classes: Vec<ClassId>,
    /// Active merge sources of the current trace: `(cur, end)` into the
    /// index's flat position array, plus the source class.
    active: Vec<(u32, u32, u16)>,
    /// The merged `(position, class)` projection of the current trace.
    merged: Vec<(u32, u16)>,
}

/// Borrowed, `Copy` view of a context's shared parts. `Send + Sync`, so
/// parallel workers can each rebuild a private [`EvalContext`] (with its
/// own scratch) from one of these.
#[derive(Debug, Clone, Copy)]
pub struct ContextParts<'a> {
    log: &'a EventLog,
    index: &'a LogIndex,
}

impl<'a> ContextParts<'a> {
    /// Builds a fresh context (new scratch) over the shared parts.
    pub fn context(&self) -> EvalContext<'a> {
        EvalContext { log: self.log, index: self.index, scratch: RefCell::default() }
    }
}

/// Everything constraint evaluation needs for one log: the log itself, its
/// [`LogIndex`] and per-context scratch buffers.
///
/// Not `Sync` (the scratch is a [`RefCell`]); parallel code clones
/// [`EvalContext::parts`] across threads and builds one context per worker.
#[derive(Debug)]
pub struct EvalContext<'a> {
    log: &'a EventLog,
    index: &'a LogIndex,
    scratch: RefCell<Scratch>,
}

impl<'a> EvalContext<'a> {
    /// Creates a context over `log` and its `index`.
    ///
    /// # Panics
    /// In debug builds, panics if `index` is inconsistent with `log` (see
    /// [`LogIndex::validate`]): wrong trace/class counts, but also postings
    /// that are unsorted, out of bounds, or pointing at events of the wrong
    /// class — a stale index (e.g. one built before abstraction rewrote the
    /// log, or a botched splice) would otherwise evaluate constraints
    /// against the wrong events. Trace counts alone are not enough:
    /// abstraction preserves the trace count while changing every position.
    pub fn new(log: &'a EventLog, index: &'a LogIndex) -> EvalContext<'a> {
        #[cfg(debug_assertions)]
        if let Err(e) = index.validate(log) {
            panic!("EvalContext: index does not match the log ({e})");
        }
        EvalContext { log, index, scratch: RefCell::default() }
    }

    /// The underlying log.
    #[inline]
    pub fn log(&self) -> &'a EventLog {
        self.log
    }

    /// The log's index.
    #[inline]
    pub fn index(&self) -> &'a LogIndex {
        self.index
    }

    /// Adaptive `occurs(g, L)` over this context's log.
    ///
    /// Picks between the two oracle-equivalent implementations: the bitmap
    /// scan ([`EventLog::occurs`]) tests one tiny class bitset per trace and
    /// exits on the first hit, while the galloping postings intersection
    /// ([`LogIndex::occurs`]) costs a cursor setup plus `O(k log runs)`
    /// alignment steps. Per-trace bitset tests are sub-nanosecond, so up to
    /// roughly a thousand traces the scan wins even without an early exit;
    /// past that, the intersection's trace-count-independent alignment wins
    /// (orders of magnitude on sharded multi-process logs, where most
    /// expansion products never co-occur — see the `occurs_*` benches in
    /// `bench_candidates`). Candidate expansion calls this per product.
    pub fn occurs(&self, group: &ClassSet) -> bool {
        const SCAN_BEATS_INTERSECTION_BELOW: usize = 1024;
        if self.index.num_traces() < SCAN_BEATS_INTERSECTION_BELOW {
            self.log.occurs(group)
        } else {
            self.index.occurs(group)
        }
    }

    /// The shared (thread-safe) parts, for fanning work out over threads.
    #[inline]
    pub fn parts(&self) -> ContextParts<'a> {
        ContextParts { log: self.log, index: self.index }
    }

    /// Visits `inst(L, g)` — every `(trace index, instance)` pair, in
    /// exactly the order [`crate::log_instances`] yields them — using the
    /// postings merge, so traces without any group class are skipped
    /// entirely. `f` may stop the traversal early by returning
    /// [`ControlFlow::Break`]; the break value is returned.
    ///
    /// **Not reentrant**: the context's scratch buffers stay borrowed
    /// while `f` runs, so `f` must not call this context's instance APIs
    /// (`visit_instances`, `instances_in`, `log_instances`) — doing so
    /// panics. Use a second context from [`Self::parts`] for nested
    /// materialization.
    pub fn visit_instances<B>(
        &self,
        group: &ClassSet,
        segmenter: Segmenter,
        mut f: impl FnMut(usize, GroupInstance) -> ControlFlow<B>,
    ) -> Option<B> {
        let index = self.index;
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { cursors, classes, active, merged } = &mut *scratch;
        classes.clear();
        classes.extend(group.iter().filter(|c| !index.runs(*c).is_empty()));
        cursors.clear();
        cursors.resize(classes.len(), 0);
        loop {
            active.clear();
            let trace = index.next_merged_trace(classes, cursors, |run, class| {
                active.push((run.start, run.start + run.len, class.0));
            })?;
            merge_runs(&index.positions, active, merged);
            if let ControlFlow::Break(b) =
                segment_merged(merged, segmenter, |inst| f(trace as usize, inst))
            {
                return Some(b);
            }
        }
    }

    /// `inst(σ_ti, g)` via the index: identical to
    /// [`crate::instances()`]`(&log.traces()[ti], group, segmenter)` but only
    /// touching the group's own occurrences in that trace.
    pub fn instances_in(
        &self,
        ti: usize,
        group: &ClassSet,
        segmenter: Segmenter,
    ) -> Vec<GroupInstance> {
        let index = self.index;
        if !self.log.trace_class_sets()[ti].intersects(group) {
            return Vec::new();
        }
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { active, merged, .. } = &mut *scratch;
        active.clear();
        for c in group.iter() {
            let runs = index.runs(c);
            if let Ok(ri) = runs.binary_search_by_key(&(ti as u32), |r| r.trace) {
                let run = runs[ri];
                active.push((run.start, run.start + run.len, c.0));
            }
        }
        merge_runs(&index.positions, active, merged);
        let mut out = Vec::new();
        let _: ControlFlow<()> = segment_merged(merged, segmenter, |inst| {
            out.push(inst);
            ControlFlow::Continue(())
        });
        out
    }

    /// Collects `inst(L, g)` as `(trace index, instance)` pairs — the
    /// indexed equivalent of [`crate::log_instances`].
    pub fn log_instances(
        &self,
        group: &ClassSet,
        segmenter: Segmenter,
    ) -> Vec<(usize, GroupInstance)> {
        let mut out = Vec::new();
        let _: Option<()> = self.visit_instances(group, segmenter, |ti, inst| {
            out.push((ti, inst));
            ControlFlow::Continue(())
        });
        out
    }
}

/// Merges the active postings runs (each sorted, pairwise disjoint) into
/// `merged`, ascending by position. Exactly the subsequence of the trace's
/// events whose class belongs to the group.
fn merge_runs(positions: &[u32], active: &mut Vec<(u32, u32, u16)>, merged: &mut Vec<(u32, u16)>) {
    merged.clear();
    if let [(cur, end, class)] = active[..] {
        // Single-class fast path: the run is already the projection.
        merged.extend(positions[cur as usize..end as usize].iter().map(|&p| (p, class)));
        return;
    }
    while !active.is_empty() {
        let mut best = 0;
        for i in 1..active.len() {
            if positions[active[i].0 as usize] < positions[active[best].0 as usize] {
                best = i;
            }
        }
        let (cur, end, class) = &mut active[best];
        merged.push((positions[*cur as usize], *class));
        *cur += 1;
        if cur == end {
            active.swap_remove(best);
        }
    }
}

/// Runs the segmentation of [`crate::instances`] over a merged projection,
/// emitting each finished [`GroupInstance`]. Shared by every indexed path
/// so indexed and scan materialization cannot diverge.
fn segment_merged<B>(
    merged: &[(u32, u16)],
    segmenter: Segmenter,
    mut emit: impl FnMut(GroupInstance) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut current_positions: Vec<u32> = Vec::new();
    let mut current_classes = ClassSet::new();
    for &(pos, class) in merged {
        let class = ClassId(class);
        if segmenter == Segmenter::RepeatSplit && current_classes.contains(class) {
            let inst = GroupInstance::from_parts(
                std::mem::take(&mut current_positions),
                current_classes.len() as u16,
            );
            current_classes = ClassSet::new();
            emit(inst)?;
        }
        current_positions.push(pos);
        current_classes.insert(class);
    }
    if !current_positions.is_empty() {
        let distinct = current_classes.len() as u16;
        emit(GroupInstance::from_parts(current_positions, distinct))?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{instances, log_instances};
    use crate::log::LogBuilder;

    fn log_from(traces: &[&[&str]]) -> EventLog {
        let mut b = LogBuilder::new();
        for (i, t) in traces.iter().enumerate() {
            let mut tb = b.trace(&format!("c{i}"));
            for cls in *t {
                tb = tb.event(cls).unwrap();
            }
            tb.done();
        }
        b.build()
    }

    fn group(log: &EventLog, names: &[&str]) -> ClassSet {
        names.iter().map(|n| log.class_by_name(n).unwrap()).collect()
    }

    #[test]
    fn postings_count_occurrences_and_traces() {
        let log = log_from(&[&["a", "b", "a"], &["b"], &["c"]]);
        let index = LogIndex::build(&log);
        let a = log.class_by_name("a").unwrap();
        let b = log.class_by_name("b").unwrap();
        let c = log.class_by_name("c").unwrap();
        assert_eq!(index.class_occurrences(a), 2);
        assert_eq!(index.trace_count(a), 1);
        assert_eq!(index.class_occurrences(b), 2);
        assert_eq!(index.trace_count(b), 2);
        assert_eq!(index.trace_count(c), 1);
        assert_eq!(index.num_traces(), log.traces().len());
    }

    #[test]
    fn indexed_occurs_matches_bitmap_scan() {
        let log = log_from(&[&["a", "b", "a"], &["b", "c"], &["d"]]);
        let index = LogIndex::build(&log);
        for names in
            [&["a"][..], &["a", "b"], &["b", "c"], &["a", "c"], &["a", "b", "c"], &["c", "d"]]
        {
            let g = group(&log, names);
            assert_eq!(index.occurs(&g), log.occurs(&g), "occurs diverges on {names:?}");
        }
        // Empty group: occurs iff the log has at least one trace.
        assert!(index.occurs(&ClassSet::EMPTY));
        assert!(!LogIndex::build(&LogBuilder::new().build()).occurs(&ClassSet::EMPTY));
    }

    #[test]
    fn splicer_matches_build_and_counts_empty_traces() {
        let log = log_from(&[&["a", "b", "a"], &[], &["b"]]);
        let mut splicer = IndexSplicer::new();
        for trace in log.traces() {
            splicer.begin_trace();
            for (pos, event) in trace.events().iter().enumerate() {
                splicer.push(event.class(), pos as u32);
            }
        }
        let spliced = splicer.finish();
        assert_eq!(spliced, LogIndex::build(&log));
        assert_eq!(spliced.num_traces(), 3);
        assert!(spliced.validate(&log).is_ok());
    }

    #[test]
    #[should_panic(expected = "before begin_trace")]
    fn splicer_rejects_push_without_trace() {
        IndexSplicer::new().push(ClassId(0), 0);
    }

    #[test]
    fn validate_pinpoints_corruption() {
        let log = log_from(&[&["a", "b"], &["a"]]);
        let index = LogIndex::build(&log);
        assert!(index.validate(&log).is_ok());
        // A log with the same trace count and classes but different event
        // placement: the old index's postings point at the wrong events —
        // the stale-index shape the previous trace-count-only assertion
        // missed.
        let reshuffled = log_from(&[&["a"], &["b"]]);
        let err = index.validate(&reshuffled).unwrap_err();
        assert!(err.contains("out of bounds") || err.contains("holds class"), "{err}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "index does not match the log")]
    fn stale_index_is_rejected_by_context() {
        // Same trace count, same classes, different positions: exactly what
        // reusing a pre-abstraction index against the abstracted log looks
        // like. The old debug assertion (trace count only) let this through.
        let old = log_from(&[&["a", "b", "a"]]);
        let new = log_from(&[&["a", "b"]]);
        let index = LogIndex::build(&old);
        let _ = EvalContext::new(&new, &index);
    }

    #[test]
    fn indexed_instances_match_scan_on_paper_example() {
        let log = log_from(&[
            &["rcp", "ckc", "acc", "prio", "inf", "arv"],
            &["rcp", "ckt", "rej", "prio", "arv", "inf"],
            &["rcp", "ckc", "acc", "inf", "arv"],
            &["rcp", "ckc", "rej", "rcp", "ckt", "acc", "prio", "arv", "inf"],
        ]);
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let g = group(&log, &["rcp", "ckc", "ckt"]);
        for seg in [Segmenter::RepeatSplit, Segmenter::NoSplit] {
            for (ti, trace) in log.traces().iter().enumerate() {
                assert_eq!(ctx.instances_in(ti, &g, seg), instances(trace, &g, seg));
            }
            let scan: Vec<_> = log_instances(&log, &g, seg).collect();
            assert_eq!(ctx.log_instances(&g, seg), scan);
        }
    }

    #[test]
    fn visit_instances_breaks_early() {
        let log = log_from(&[&["a"], &["a"], &["a"]]);
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let g = group(&log, &["a"]);
        let mut seen = 0;
        let out = ctx.visit_instances(&g, Segmenter::RepeatSplit, |ti, _| {
            seen += 1;
            if ti == 1 {
                ControlFlow::Break("stop")
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(out, Some("stop"));
        assert_eq!(seen, 2);
    }

    #[test]
    fn scratch_is_reusable_across_groups() {
        let log = log_from(&[&["a", "b", "c", "a"], &["c", "b"], &["a"]]);
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        for names in [&["a"][..], &["a", "b"], &["b", "c"], &["a", "b", "c"]] {
            let g = group(&log, names);
            let scan: Vec<_> = log_instances(&log, &g, Segmenter::RepeatSplit).collect();
            assert_eq!(ctx.log_instances(&g, Segmenter::RepeatSplit), scan);
        }
    }

    #[test]
    fn parts_rebuild_equivalent_contexts() {
        let log = log_from(&[&["a", "b", "a"]]);
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let forked = ctx.parts().context();
        let g = group(&log, &["a", "b"]);
        assert_eq!(
            ctx.log_instances(&g, Segmenter::RepeatSplit),
            forked.log_instances(&g, Segmenter::RepeatSplit)
        );
    }
}
