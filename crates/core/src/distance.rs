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
/// [`group_distance_scan`] oracle exactly. Parallelism lives one level up,
/// over candidates ([`DistanceOracle::prime`]).
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
        sub += instance_terms(&inst, group_size);
        count += 1;
        std::ops::ControlFlow::Continue(())
    });
    if current_trace != usize::MAX {
        total += sub;
    }
    if count == 0 {
        f64::INFINITY
    } else {
        total / count as f64
    }
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
    if count == 0 {
        f64::INFINITY
    } else {
        total / count as f64
    }
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
        sub += instance_terms(&inst, group_size);
        n += 1;
    }
    (sub, n)
}

/// The three summands of Eq. 1 for one instance — shared by the indexed
/// and scan paths so their floating-point results cannot diverge.
#[inline]
fn instance_terms(inst: &GroupInstance, group_size: usize) -> f64 {
    inst.interrupts() as f64 / inst.len() as f64
        + inst.missing(group_size) as f64 / group_size as f64
        + 1.0 / group_size as f64
}

/// Computes `dist(G, L)` (Eq. 2): the sum of the group distances.
pub fn grouping_distance(
    ctx: &EvalContext<'_>,
    groups: impl IntoIterator<Item = ClassSet>,
    segmenter: Segmenter,
) -> f64 {
    groups.into_iter().map(|g| group_distance(ctx, &g, segmenter)).sum()
}

/// Memoizing distance evaluator.
///
/// Candidate computation (the beam sort of Algorithm 2 in particular) and
/// selection evaluate `dist` for the same groups repeatedly; the oracle
/// caches per-[`ClassSet`] results, scoring misses through its
/// [`EvalContext`]'s index.
pub struct DistanceOracle<'a> {
    ctx: &'a EvalContext<'a>,
    segmenter: Segmenter,
    cache: RefCell<HashMap<ClassSet, f64>>,
}

impl<'a> DistanceOracle<'a> {
    /// Creates an oracle over `ctx`'s log.
    pub fn new(ctx: &'a EvalContext<'a>, segmenter: Segmenter) -> Self {
        DistanceOracle { ctx, segmenter, cache: RefCell::new(HashMap::new()) }
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

    /// Fills the cache for `groups` ahead of time, scoring the uncached
    /// ones in parallel (one worker per chunk of candidates, each with its
    /// own private context).
    ///
    /// A no-op when only one worker is available — lazy evaluation in
    /// [`Self::distance`] is then strictly better. Each worker scores its
    /// candidates with [`group_distance`], so cached values are
    /// bit-identical to what [`Self::distance`] would have computed.
    pub fn prime(&self, groups: impl Iterator<Item = ClassSet>) {
        if parallel::worker_count() <= 1 {
            return;
        }
        let missing: Vec<ClassSet> = {
            let cache = self.cache.borrow();
            let mut seen = HashSet::new();
            groups.filter(|g| !cache.contains_key(g) && seen.insert(*g)).collect()
        };
        if missing.len() < 2 {
            return;
        }
        let segmenter = self.segmenter;
        let parts = self.ctx.parts();
        let distances = parallel::par_map_scoped(
            &missing,
            2,
            || parts.context(),
            |worker_ctx, g| group_distance(worker_ctx, g, segmenter),
        );
        let mut cache = self.cache.borrow_mut();
        for (g, d) in missing.into_iter().zip(distances) {
            cache.insert(g, d);
        }
    }

    /// Number of distinct groups evaluated so far.
    pub fn evaluations(&self) -> usize {
        self.cache.borrow().len()
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
        let _ = (log, a);
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
