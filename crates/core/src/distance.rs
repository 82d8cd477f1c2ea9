//! The distance measure of §IV-B (Eqs. 1 and 2).
//!
//! For a group `g` and log `L`:
//!
//! ```text
//!                Σ_{ξ ∈ inst(L,g)}  interrupts(ξ)/|ξ| + missing(ξ,g)/|g| + 1/|g|
//! dist(g, L) =  ─────────────────────────────────────────────────────────────────
//!                                   |inst(L, g)|
//! ```
//!
//! The three summands reward **cohesion** (few foreign events interleaved
//! within an instance), **correlation** (instances containing all classes of
//! the group) and **non-unary groups** (the `1/|g|` term strictly favors
//! larger groups at equal cohesion/correlation). The grouping distance
//! (Eq. 2) is the sum over its groups' distances.
//!
//! On the paper's running example the optimal grouping
//! `{{rcp,ckc,ckt}, {acc}, {rej}, {prio,inf,arv}}` scores exactly
//! `37/12 ≈ 3.08`, matching Figure 7 (see this module's tests).

use gecco_eventlog::{
    instances, parallel, ClassSet, EvalContext, EventLog, GroupInstance, Segmenter, Trace,
};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Computes `dist(g, L)` (Eq. 1) through the context's index: only traces
/// containing at least one class of the group are visited at all.
///
/// Returns `f64::INFINITY` for groups with no instance in the log — such
/// groups can never contribute to an abstraction.
///
/// One serial walk over the group's postings merge, accumulating a
/// per-trace subtotal so the floating-point summation order matches the
/// [`group_distance_scan`] oracle exactly. This is the kernel for one
/// group scored on its own (a memo miss, a pricing step); a known batch
/// of groups goes through [`group_distances`] instead.
pub fn group_distance(ctx: &EvalContext<'_>, group: &ClassSet, segmenter: Segmenter) -> f64 {
    debug_assert!(!group.is_empty(), "distance of the empty group is undefined");
    let group_size = group.len();
    let mut total = 0.0;
    let mut count = 0usize;
    let mut current_trace = usize::MAX;
    let mut sub = 0.0;
    let _: Option<()> = ctx.visit_instances(group, segmenter, |ti, inst| {
        if ti != current_trace {
            if current_trace != usize::MAX {
                total += sub;
            }
            sub = 0.0;
            current_trace = ti;
        }
        sub += terms_of(&inst, group_size);
        count += 1;
        std::ops::ControlFlow::Continue(())
    });
    if current_trace != usize::MAX {
        total += sub;
    }
    mean(total, count)
}

/// The naive full-log-scan evaluation of Eq. 1, kept as the oracle for the
/// index-equivalence suite and the scan-vs-indexed benchmarks.
/// Bit-identical to [`group_distance`].
pub fn group_distance_scan(log: &EventLog, group: &ClassSet, segmenter: Segmenter) -> f64 {
    let group_size = group.len();
    debug_assert!(group_size > 0, "distance of the empty group is undefined");
    let trace_sets = log.trace_class_sets();
    let mut total = 0.0;
    let mut count = 0usize;
    for (ti, trace) in log.traces().iter().enumerate() {
        if !trace_sets[ti].intersects(group) {
            continue;
        }
        let (sub, n) = trace_contribution(trace, group, group_size, segmenter);
        total += sub;
        count += n;
    }
    mean(total, count)
}

/// One trace's summands of Eq. 1 via the scan (oracle path).
fn trace_contribution(
    trace: &Trace,
    group: &ClassSet,
    group_size: usize,
    segmenter: Segmenter,
) -> (f64, usize) {
    let mut sub = 0.0;
    let mut n = 0usize;
    for inst in instances(trace, group, segmenter) {
        sub += terms_of(&inst, group_size);
        n += 1;
    }
    (sub, n)
}

/// Computes `dist(g, L)` (Eq. 1) for a whole batch of groups in one
/// trace-major sweep over the log; entry `i` is the distance of
/// `groups[i]`, bit-identical to [`group_distance`] on it.
///
/// Each trace's events are read once, and a class → groups table routes
/// every event to the batch's groups containing its class. Per group the
/// sweep tracks the open instance (first and last position, length,
/// classes seen) and a per-trace subtotal that joins the group's total
/// when the trace ends — the summation order of [`group_distance`].
/// Traces sharing no class with the batch are skipped. The sweep reads
/// every event of the traces it visits, so it pays off for a batch; a
/// single group is cheaper through its postings ([`group_distance`]).
pub fn group_distances(log: &EventLog, groups: &[ClassSet], segmenter: Segmenter) -> Vec<f64> {
    let mut groups_of: Vec<Vec<usize>> = vec![Vec::new(); log.classes().len()];
    let mut batch = ClassSet::new();
    for (gi, group) in groups.iter().enumerate() {
        debug_assert!(!group.is_empty(), "distance of the empty group is undefined");
        for c in group.iter() {
            // A class the log never registered has no events to route.
            if let Some(slot) = groups_of.get_mut(c.index()) {
                slot.push(gi);
            }
        }
        batch = batch.union(group);
    }
    let sizes: Vec<usize> = groups.iter().map(ClassSet::len).collect();
    let mut open = vec![OpenInstance::default(); groups.len()];
    let mut totals = vec![0.0; groups.len()];
    let mut counts = vec![0usize; groups.len()];
    let mut touched: Vec<usize> = Vec::new();
    for (trace, classes) in log.traces().iter().zip(log.trace_class_sets()) {
        if !classes.intersects(&batch) {
            continue;
        }
        for (pos, event) in trace.events().iter().enumerate() {
            let class = event.class();
            for &gi in &groups_of[class.index()] {
                let inst = &mut open[gi];
                if inst.len == 0 {
                    touched.push(gi);
                } else if segmenter == Segmenter::RepeatSplit && inst.classes.contains(class) {
                    inst.close(sizes[gi]);
                    counts[gi] += 1;
                }
                if inst.len == 0 {
                    inst.first = pos;
                }
                inst.last = pos;
                inst.len += 1;
                inst.classes.insert(class);
            }
        }
        for gi in touched.drain(..) {
            let inst = &mut open[gi];
            inst.close(sizes[gi]);
            counts[gi] += 1;
            totals[gi] += inst.sub;
            *inst = OpenInstance::default();
        }
    }
    totals.into_iter().zip(counts).map(|(total, count)| mean(total, count)).collect()
}

/// The open instance of one group in the current trace of a
/// [`group_distances`] sweep, plus the trace's subtotal so far.
#[derive(Debug, Clone, Copy, Default)]
struct OpenInstance {
    first: usize,
    last: usize,
    /// Events so far; 0 while the group has no instance open.
    len: usize,
    classes: ClassSet,
    sub: f64,
}

impl OpenInstance {
    /// Adds the open instance's summands to the subtotal and empties it.
    fn close(&mut self, group_size: usize) {
        let interrupts = self.last - self.first + 1 - self.len;
        self.sub +=
            instance_terms(interrupts, self.len, group_size - self.classes.len(), group_size);
        self.len = 0;
        self.classes = ClassSet::new();
    }
}

/// [`instance_terms`] of a materialized instance.
#[inline]
fn terms_of(inst: &GroupInstance, group_size: usize) -> f64 {
    instance_terms(inst.interrupts(), inst.len(), inst.missing(group_size), group_size)
}

/// The three summands of Eq. 1 for one instance — shared by every kernel
/// so their floating-point results cannot diverge.
#[inline]
fn instance_terms(interrupts: usize, len: usize, missing: usize, group_size: usize) -> f64 {
    interrupts as f64 / len as f64 + missing as f64 / group_size as f64 + 1.0 / group_size as f64
}

/// The mean over a group's instances; `INFINITY` when it has none.
#[inline]
fn mean(total: f64, count: usize) -> f64 {
    if count == 0 {
        f64::INFINITY
    } else {
        total / count as f64
    }
}

/// Computes `dist(G, L)` (Eq. 2): the sum of the group distances.
pub fn grouping_distance(
    ctx: &EvalContext<'_>,
    groups: impl IntoIterator<Item = ClassSet>,
    segmenter: Segmenter,
) -> f64 {
    groups.into_iter().map(|g| group_distance(ctx, &g, segmenter)).sum()
}

/// The distances one [`DistanceOracle`] scored, detached from its
/// evaluation context so that they can travel on a
/// [`crate::CandidateSet`] from Step 1 to Step 2.
///
/// The memo carries no log identity. Its keys are class ids, which mean
/// something only for the log that assigned them, and a candidate set is
/// only meaningful for the log it was computed from — the same log any
/// oracle seeded from its memo scores against. It does record the
/// segmenter its distances were scored under: an oracle with another
/// segmenter ignores it.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMemo {
    segmenter: Segmenter,
    distances: HashMap<ClassSet, f64>,
}

impl DistanceMemo {
    /// The segmenter the distances were scored under.
    pub fn segmenter(&self) -> Segmenter {
        self.segmenter
    }

    /// The memoized `dist(g, L)`, if `group` was scored.
    pub fn get(&self, group: &ClassSet) -> Option<f64> {
        self.distances.get(group).copied()
    }

    /// Number of memoized groups.
    pub fn len(&self) -> usize {
        self.distances.len()
    }

    /// Whether no group was scored.
    pub fn is_empty(&self) -> bool {
        self.distances.is_empty()
    }

    /// Adds `other`'s distances when they were scored under the same
    /// segmenter; a memo of another segmenter is ignored.
    pub fn merge(&mut self, other: &DistanceMemo) {
        if other.segmenter != self.segmenter {
            return;
        }
        // gecco-lint: allow(nondet-iter) — insertion order cannot show: both memos hold the
        // bit-identical dist(g, L) for any group they share (same log, same segmenter)
        for (group, &d) in other.distances.iter() {
            self.distances.entry(*group).or_insert(d);
        }
    }
}

/// Memoizing distance evaluator.
///
/// Candidate computation (the beam sort of Algorithm 2 in particular) and
/// selection evaluate `dist` for the same groups repeatedly; the oracle
/// caches per-[`ClassSet`] results. A known batch of groups is scored
/// ahead of time by [`Self::prime`], in batched sweeps
/// ([`group_distances`]) at every worker count; a single miss in
/// [`Self::distance`] walks the group's postings ([`group_distance`]).
/// Both kernels give bit-identical values, so the memo does not depend
/// on which one filled it.
///
/// The memo outlives the oracle: [`Self::into_memo`] detaches it, and
/// [`Self::seeded`] starts a new oracle from it, which is how Step 2
/// reuses the distances Step 1's beam sort already paid for.
pub struct DistanceOracle<'a> {
    ctx: &'a EvalContext<'a>,
    segmenter: Segmenter,
    cache: RefCell<HashMap<ClassSet, f64>>,
    /// Entries taken over from a seed memo rather than scored here.
    seeded: usize,
}

impl<'a> DistanceOracle<'a> {
    /// Creates an oracle over `ctx`'s log.
    pub fn new(ctx: &'a EvalContext<'a>, segmenter: Segmenter) -> Self {
        DistanceOracle::seeded(ctx, segmenter, None)
    }

    /// Creates an oracle over `ctx`'s log that starts from `memo`'s
    /// distances when they were scored under `segmenter` (a memo of
    /// another segmenter is ignored), so that only the groups the memo
    /// lacks are scored again. The memo must come from the same log — for
    /// a candidate set's memo, the log the set was computed from.
    pub fn seeded(
        ctx: &'a EvalContext<'a>,
        segmenter: Segmenter,
        memo: Option<&DistanceMemo>,
    ) -> Self {
        let cache = match memo {
            Some(memo) if memo.segmenter == segmenter => memo.distances.clone(),
            _ => HashMap::new(),
        };
        let seeded = cache.len();
        DistanceOracle { ctx, segmenter, cache: RefCell::new(cache), seeded }
    }

    /// `dist(g, L)`, memoized.
    pub fn distance(&self, group: &ClassSet) -> f64 {
        if let Some(&d) = self.cache.borrow().get(group) {
            return d;
        }
        let d = group_distance(self.ctx, group, self.segmenter);
        self.cache.borrow_mut().insert(*group, d);
        d
    }

    /// Fills the memo for `groups` ahead of time. The groups it lacks are
    /// scored in batched [`group_distances`] sweeps: a single sweep at one
    /// worker, and one sweep per worker otherwise, each over a contiguous
    /// chunk of the missing groups. Chunks split groups, never traces, so
    /// every distance is summed in the order [`group_distance`] uses and
    /// the memo is bit-identical at every worker count.
    pub fn prime(&self, groups: impl Iterator<Item = ClassSet>) {
        let missing: Vec<ClassSet> = {
            let cache = self.cache.borrow();
            let mut seen = HashSet::new();
            groups.filter(|g| !cache.contains_key(g) && seen.insert(*g)).collect()
        };
        let chunk = missing.len().div_ceil(parallel::worker_count()).max(1);
        let chunks: Vec<&[ClassSet]> = missing.chunks(chunk).collect();
        let log = self.ctx.log();
        let segmenter = self.segmenter;
        let scored = parallel::par_map(&chunks, 2, |part| group_distances(log, part, segmenter));
        self.cache.borrow_mut().extend(missing.into_iter().zip(scored.into_iter().flatten()));
    }

    /// Number of distinct groups this oracle scored; distances taken over
    /// from a seed memo ([`Self::seeded`]) do not count.
    pub fn evaluations(&self) -> usize {
        self.cache.borrow().len() - self.seeded
    }

    /// Detaches the memo: every distance this oracle holds, scored or
    /// seeded, under its segmenter.
    pub fn into_memo(self) -> DistanceMemo {
        DistanceMemo { segmenter: self.segmenter, distances: self.cache.into_inner() }
    }

    /// The evaluation context this oracle scores against.
    pub fn ctx(&self) -> &'a EvalContext<'a> {
        self.ctx
    }

    /// The log this oracle evaluates against.
    pub fn log(&self) -> &'a EventLog {
        self.ctx.log()
    }

    /// The segmenter used for instance computation.
    pub fn segmenter(&self) -> Segmenter {
        self.segmenter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecco_eventlog::LogBuilder;

    /// The paper's running example, Table I.
    pub(crate) fn running_example() -> EventLog {
        let mut b = LogBuilder::new();
        let traces: &[&[&str]] = &[
            &["rcp", "ckc", "acc", "prio", "inf", "arv"],
            &["rcp", "ckt", "rej", "prio", "arv", "inf"],
            &["rcp", "ckc", "acc", "inf", "arv"],
            &["rcp", "ckc", "rej", "rcp", "ckt", "acc", "prio", "arv", "inf"],
        ];
        for (i, t) in traces.iter().enumerate() {
            let mut tb = b.trace(&format!("σ{}", i + 1));
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
    fn figure7_optimal_grouping_scores_3_08() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let g1 = group(&log, &["rcp", "ckc", "ckt"]);
        let g2 = group(&log, &["acc"]);
        let g3 = group(&log, &["rej"]);
        let g4 = group(&log, &["prio", "inf", "arv"]);
        let seg = Segmenter::RepeatSplit;
        // Component values derived by hand in the paper's terms:
        assert!((group_distance(&ctx, &g1, seg) - 2.0 / 3.0).abs() < 1e-12);
        assert!((group_distance(&ctx, &g2, seg) - 1.0).abs() < 1e-12);
        assert!((group_distance(&ctx, &g3, seg) - 1.0).abs() < 1e-12);
        assert!((group_distance(&ctx, &g4, seg) - 5.0 / 12.0).abs() < 1e-12);
        let total = grouping_distance(&ctx, [g1, g2, g3, g4], seg);
        assert!((total - 37.0 / 12.0).abs() < 1e-12, "Fig. 7 reports dist = 3.08, got {total}");
        assert_eq!(format!("{total:.2}"), "3.08");
    }

    #[test]
    fn unary_groups_have_distance_at_least_one_over_size() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        for c in log.classes().ids() {
            let d = group_distance(&ctx, &ClassSet::singleton(c), Segmenter::RepeatSplit);
            assert!(d >= 1.0 - 1e-12, "singletons have perfect cohesion but pay 1/|g| = 1");
        }
    }

    #[test]
    fn interrupted_groups_cost_more() {
        // ⟨a,b,c,d,e⟩: {a,e} has 3 interruptions; {a,b} none.
        let mut b = LogBuilder::new();
        b.trace("t")
            .event("a")
            .unwrap()
            .event("b")
            .unwrap()
            .event("c")
            .unwrap()
            .event("d")
            .unwrap()
            .event("e")
            .unwrap()
            .done();
        let log = b.build();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let seg = Segmenter::RepeatSplit;
        let ae = group_distance(&ctx, &group(&log, &["a", "e"]), seg);
        let ab = group_distance(&ctx, &group(&log, &["a", "b"]), seg);
        assert!(ae > ab);
        // {a,e}: interrupts 3/2, missing 0, 1/2 → 2.0; {a,b}: 0 + 0 + 1/2.
        assert!((ae - 2.0).abs() < 1e-12);
        assert!((ab - 0.5).abs() < 1e-12);
    }

    #[test]
    fn missing_classes_cost_more() {
        // b occurs in only one of two traces → one instance of {a,b} is incomplete.
        let mut lb = LogBuilder::new();
        lb.trace("t1").event("a").unwrap().event("b").unwrap().done();
        lb.trace("t2").event("a").unwrap().done();
        let log = lb.build();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let d = group_distance(&ctx, &group(&log, &["a", "b"]), Segmenter::RepeatSplit);
        // Instance 1: 0 + 0 + 1/2; instance 2: 0 + 1/2 + 1/2 → avg = 3/4.
        assert!((d - 0.75).abs() < 1e-12);
    }

    #[test]
    fn absent_group_is_infinitely_distant() {
        let log = running_example();
        // A registered-but-unused class cannot happen via the builder, so
        // test with a group whose members never co-occur… they still have
        // instances individually; instead check the empty-instances path via
        // a class filtered out of all traces — emulate by a fresh log.
        let mut lb = LogBuilder::new();
        lb.trace("t").event("a").unwrap().done();
        let other = lb.build();
        let a = other.class_by_name("a").unwrap();
        drop(other);
        // Reuse id 'a' against the running example: class 0 exists there, so
        // instead assert on a log where the class never appears in traces.
        let mut lb2 = LogBuilder::new();
        lb2.class("ghost").unwrap();
        lb2.trace("t").event("real").unwrap().done();
        let log2 = lb2.build();
        let index2 = gecco_eventlog::LogIndex::build(&log2);
        let ctx2 = EvalContext::new(&log2, &index2);
        let ghost = log2.class_by_name("ghost").unwrap();
        assert_eq!(
            group_distance(&ctx2, &ClassSet::singleton(ghost), Segmenter::RepeatSplit),
            f64::INFINITY
        );
        assert_eq!(
            group_distances(&log2, &[ClassSet::singleton(ghost)], Segmenter::RepeatSplit),
            [f64::INFINITY]
        );
        let _ = (log, a);
    }

    #[test]
    fn batched_distances_match_the_single_group_kernel() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let ids: Vec<_> = log.classes().ids().collect();
        let groups: Vec<ClassSet> = (1u32..(1 << ids.len()))
            .map(|mask| {
                let members = ids.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0);
                members.map(|(_, c)| *c).collect()
            })
            .collect();
        for seg in [Segmenter::RepeatSplit, Segmenter::NoSplit] {
            let batched = group_distances(&log, &groups, seg);
            for (g, d) in groups.iter().zip(&batched) {
                let single = group_distance(&ctx, g, seg);
                assert_eq!(d.to_bits(), single.to_bits(), "{seg:?} {g:?}: {d} vs {single}");
            }
        }
        assert!(group_distances(&log, &[], Segmenter::RepeatSplit).is_empty());
    }

    #[test]
    fn seeded_oracle_scores_only_what_the_memo_lacks() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let seg = Segmenter::RepeatSplit;
        let first = [group(&log, &["rcp", "ckc"]), group(&log, &["acc"]), group(&log, &["rej"])];
        let second = [group(&log, &["acc"]), group(&log, &["prio", "inf", "arv"])];
        let step1 = DistanceOracle::new(&ctx, seg);
        step1.prime(first.into_iter());
        assert_eq!(step1.evaluations(), 3);
        let memo = step1.into_memo();
        assert_eq!((memo.len(), memo.segmenter()), (3, seg));

        let step2 = DistanceOracle::seeded(&ctx, seg, Some(&memo));
        assert_eq!(step2.evaluations(), 0, "seeded distances are not scored");
        step2.prime(second.into_iter());
        assert_eq!(step2.evaluations(), 1, "only {{prio, inf, arv}} was missing");
        for g in first.iter().chain(&second) {
            assert_eq!(step2.distance(g).to_bits(), group_distance(&ctx, g, seg).to_bits());
        }
        assert_eq!(step2.evaluations(), 1);

        // A memo scored under another segmenter is not taken over.
        let other = DistanceOracle::seeded(&ctx, Segmenter::NoSplit, Some(&memo));
        other.prime(second.into_iter());
        assert_eq!(other.evaluations(), 2);
    }

    #[test]
    fn memos_merge_only_under_the_same_segmenter() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let (a, b) = (group(&log, &["acc"]), group(&log, &["rej"]));
        let memo = |seg, g: ClassSet| {
            let oracle = DistanceOracle::new(&ctx, seg);
            oracle.distance(&g);
            oracle.into_memo()
        };
        let mut merged = memo(Segmenter::RepeatSplit, a);
        merged.merge(&memo(Segmenter::NoSplit, b));
        assert_eq!(merged.len(), 1);
        merged.merge(&memo(Segmenter::RepeatSplit, b));
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.get(&b), Some(1.0));
    }

    #[test]
    fn indexed_distance_matches_scan_oracle() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let ids: Vec<_> = log.classes().ids().collect();
        for seg in [Segmenter::RepeatSplit, Segmenter::NoSplit] {
            for mask in 1u32..(1 << ids.len()) {
                let g: ClassSet = ids
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, c)| *c)
                    .collect();
                let indexed = group_distance(&ctx, &g, seg);
                let scan = group_distance_scan(&log, &g, seg);
                assert!(
                    indexed == scan || (indexed.is_infinite() && scan.is_infinite()),
                    "dist mismatch on {g:?}: {indexed} vs {scan}"
                );
            }
        }
    }

    #[test]
    fn oracle_caches() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
        let g = group(&log, &["rcp", "ckc", "ckt"]);
        let d1 = oracle.distance(&g);
        let d2 = oracle.distance(&g);
        assert_eq!(d1, d2);
        assert_eq!(oracle.evaluations(), 1);
        assert!((d1 - 2.0 / 3.0).abs() < 1e-12);
    }
}
