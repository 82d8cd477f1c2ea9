//! Constraint compilation and evaluation against a concrete log.
//!
//! The `holds` predicate of §IV-A: class-based constraints are checked
//! before instance-based ones because the former need no pass over the log
//! (§V-B "we check constraints in R_C before ones in R_I, … minimizing the
//! validation cost per candidate").
//!
//! Evaluation runs against an [`EvalContext`]: instance-based checks
//! stream group instances through the log's [`gecco_eventlog::LogIndex`]
//! (touching only traces that contain a group class) and stop at the first
//! instance that decides a strict verdict. Nothing is memoized across
//! checks. The naive full-log scan survives as the
//! [`CompiledConstraintSet::holds_scan`] /
//! [`CompiledConstraintSet::check_instances_scan`] oracle used by the
//! equivalence test suites and the scan-vs-indexed benchmarks; both paths
//! are bit-identical by construction (they share the per-instance
//! accumulator).

use crate::monotonicity::{checking_mode, CheckingMode, Monotonicity};
use crate::spec::{ClassExpr, Cmp, Constraint, ConstraintSet, InstanceExpr};
use gecco_eventlog::{
    instances, ClassId, ClassSet, EvalContext, EventLog, GroupInstance, Segmenter, Symbol, Trace,
};
use std::collections::HashSet;
use std::fmt;
use std::ops::ControlFlow;

/// Error raised when a specification does not fit the log.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The named attribute never occurs in the log.
    UnknownAttribute(String),
    /// The named event class does not occur in the log.
    UnknownClass(String),
    /// A class-scope `distinct` constraint references an attribute that
    /// some class lacks — the constraint is inapplicable to this log
    /// (cf. the paper's footnote: `BL3` applies to 4 of 13 logs only).
    MissingClassAttribute {
        /// The attribute name.
        attribute: String,
        /// A class without it.
        class: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownAttribute(a) => write!(f, "unknown attribute {a:?}"),
            CompileError::UnknownClass(c) => write!(f, "unknown event class {c:?}"),
            CompileError::MissingClassAttribute { attribute, class } => {
                write!(f, "class {class:?} lacks class-level attribute {attribute:?}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A class-based constraint compiled to interned ids.
#[derive(Debug, Clone)]
pub(crate) enum ClassCheck {
    Size { cmp: Cmp, bound: f64 },
    DistinctAttr { key: Symbol, cmp: Cmp, bound: f64 },
    CannotLink(ClassId, ClassId),
    MustLink(ClassId, ClassId),
}

/// An instance-based expression compiled to interned ids.
#[derive(Debug, Clone)]
pub(crate) enum InstExpr {
    Count,
    CountClass(ClassId),
    Distinct(Symbol),
    Sum(Symbol),
    Avg(Symbol),
    Min(Symbol),
    Max(Symbol),
    Span(Symbol),
    MaxGap(Symbol),
}

#[derive(Debug, Clone)]
pub(crate) struct InstCheck {
    pub(crate) expr: InstExpr,
    pub(crate) cmp: Cmp,
    pub(crate) bound: f64,
    pub(crate) min_fraction: f64,
    pub(crate) monotonicity: Monotonicity,
    pub(crate) spec_index: usize,
}

/// A [`ConstraintSet`] compiled against one log, ready for evaluation.
#[derive(Debug, Clone)]
pub struct CompiledConstraintSet {
    spec: ConstraintSet,
    pub(crate) class_checks: Vec<(usize, ClassCheck, Monotonicity)>,
    pub(crate) inst_checks: Vec<InstCheck>,
    group_min: Option<u32>,
    group_max: Option<u32>,
    mode: CheckingMode,
    segmenter: Segmenter,
}

impl CompiledConstraintSet {
    /// Compiles `spec` against `log` using the default
    /// [`Segmenter::RepeatSplit`].
    pub fn compile(spec: &ConstraintSet, log: &EventLog) -> Result<Self, CompileError> {
        Self::compile_with(spec, log, Segmenter::RepeatSplit)
    }

    /// Compiles with an explicit instance segmenter.
    pub fn compile_with(
        spec: &ConstraintSet,
        log: &EventLog,
        segmenter: Segmenter,
    ) -> Result<Self, CompileError> {
        let mut class_checks = Vec::new();
        let mut inst_checks = Vec::new();
        let mut group_min: Option<u32> = None;
        let mut group_max: Option<u32> = None;

        let lookup_attr = |name: &str| {
            log.key(name).ok_or_else(|| CompileError::UnknownAttribute(name.to_string()))
        };
        let lookup_class = |name: &str| {
            log.class_by_name(name).ok_or_else(|| CompileError::UnknownClass(name.to_string()))
        };

        for (i, c) in spec.constraints().iter().enumerate() {
            let mono = c.monotonicity();
            match c {
                Constraint::GroupCount { cmp, bound } => match cmp {
                    Cmp::Le => group_max = Some(group_max.map_or(*bound, |b| b.min(*bound))),
                    Cmp::Ge => group_min = Some(group_min.map_or(*bound, |b| b.max(*bound))),
                    Cmp::Eq => {
                        group_min = Some(group_min.map_or(*bound, |b| b.max(*bound)));
                        group_max = Some(group_max.map_or(*bound, |b| b.min(*bound)));
                    }
                },
                Constraint::ClassBound { expr, cmp, bound } => {
                    let check = match expr {
                        ClassExpr::Size => ClassCheck::Size { cmp: *cmp, bound: *bound },
                        ClassExpr::DistinctAttr(attr) => {
                            let key = lookup_attr(attr)?;
                            // Every class must carry the attribute; otherwise
                            // the constraint is inapplicable to this log.
                            for id in log.classes().ids() {
                                if log.classes().info(id).attribute(key).is_none() {
                                    return Err(CompileError::MissingClassAttribute {
                                        attribute: attr.clone(),
                                        class: log.class_name(id).to_string(),
                                    });
                                }
                            }
                            ClassCheck::DistinctAttr { key, cmp: *cmp, bound: *bound }
                        }
                    };
                    class_checks.push((i, check, mono));
                }
                Constraint::CannotLink { a, b } => {
                    class_checks.push((
                        i,
                        ClassCheck::CannotLink(lookup_class(a)?, lookup_class(b)?),
                        mono,
                    ));
                }
                Constraint::MustLink { a, b } => {
                    class_checks.push((
                        i,
                        ClassCheck::MustLink(lookup_class(a)?, lookup_class(b)?),
                        mono,
                    ));
                }
                Constraint::InstanceBound { expr, cmp, bound, min_fraction } => {
                    let compiled = match expr {
                        InstanceExpr::Count => InstExpr::Count,
                        InstanceExpr::CountClass(c) => InstExpr::CountClass(lookup_class(c)?),
                        InstanceExpr::Distinct(a) => InstExpr::Distinct(lookup_attr(a)?),
                        InstanceExpr::Sum(a) => InstExpr::Sum(lookup_attr(a)?),
                        InstanceExpr::Avg(a) => InstExpr::Avg(lookup_attr(a)?),
                        InstanceExpr::Min(a) => InstExpr::Min(lookup_attr(a)?),
                        InstanceExpr::Max(a) => InstExpr::Max(lookup_attr(a)?),
                        InstanceExpr::Span(a) => InstExpr::Span(lookup_attr(a)?),
                        InstanceExpr::MaxGap(a) => InstExpr::MaxGap(lookup_attr(a)?),
                    };
                    inst_checks.push(InstCheck {
                        expr: compiled,
                        cmp: *cmp,
                        bound: *bound,
                        min_fraction: *min_fraction,
                        monotonicity: mono,
                        spec_index: i,
                    });
                }
            }
        }
        let mode = checking_mode(
            class_checks
                .iter()
                .map(|(_, _, m)| *m)
                .chain(inst_checks.iter().map(|c| c.monotonicity)),
        );
        Ok(CompiledConstraintSet {
            spec: spec.clone(),
            class_checks,
            inst_checks,
            group_min,
            group_max,
            mode,
            segmenter,
        })
    }

    /// The original specification.
    pub fn spec(&self) -> &ConstraintSet {
        &self.spec
    }

    /// The constraint-checking mode derived from `R \ R_G`
    /// (`setCheckingMode(R)`, Algorithm 1 line 1).
    pub fn mode(&self) -> CheckingMode {
        self.mode
    }

    /// The instance segmenter used for `R_I` evaluation.
    pub fn segmenter(&self) -> Segmenter {
        self.segmenter
    }

    /// Effective bounds on the number of groups `(min, max)` from `R_G`.
    pub fn group_count_bounds(&self) -> (Option<u32>, Option<u32>) {
        (self.group_min, self.group_max)
    }

    /// Whether a grouping of `k` groups satisfies `R_G`.
    pub fn group_count_ok(&self, k: usize) -> bool {
        self.group_min.is_none_or(|m| k >= m as usize)
            && self.group_max.is_none_or(|m| k <= m as usize)
    }

    /// Whether any instance-based constraints exist (they require a pass
    /// over the log per candidate).
    pub fn has_instance_constraints(&self) -> bool {
        !self.inst_checks.is_empty()
    }

    /// Checks `R_C` for one group; returns the spec index of the first
    /// violated constraint. Class-based checks never touch the traces, so
    /// only the context's log is consulted.
    pub fn check_class(&self, group: &ClassSet, ctx: &EvalContext<'_>) -> Result<(), usize> {
        self.check_class_filtered(group, ctx.log(), |_| true)
    }

    fn check_class_filtered(
        &self,
        group: &ClassSet,
        log: &EventLog,
        filter: impl Fn(Monotonicity) -> bool,
    ) -> Result<(), usize> {
        for (spec_index, check, mono) in &self.class_checks {
            if !filter(*mono) {
                continue;
            }
            let ok = match check {
                ClassCheck::Size { cmp, bound } => cmp.eval(group.len() as f64, *bound),
                ClassCheck::DistinctAttr { key, cmp, bound } => {
                    let mut seen = HashSet::new();
                    for c in group.iter() {
                        if let Some(v) = log.classes().info(c).attribute(*key) {
                            seen.insert(v.distinct_key());
                        }
                    }
                    cmp.eval(seen.len() as f64, *bound)
                }
                ClassCheck::CannotLink(a, b) => !(group.contains(*a) && group.contains(*b)),
                ClassCheck::MustLink(a, b) => group.contains(*a) == group.contains(*b),
            };
            if !ok {
                return Err(*spec_index);
            }
        }
        Ok(())
    }

    /// Checks `R_I` for one group over the whole log via the context's
    /// index; returns the spec index of the first violated constraint.
    pub fn check_instances(&self, group: &ClassSet, ctx: &EvalContext<'_>) -> Result<(), usize> {
        self.check_instances_filtered(group, ctx, |_| true)
    }

    fn check_instances_filtered(
        &self,
        group: &ClassSet,
        ctx: &EvalContext<'_>,
        filter: impl Fn(Monotonicity) -> bool,
    ) -> Result<(), usize> {
        let active: Vec<&InstCheck> =
            self.inst_checks.iter().filter(|c| filter(c.monotonicity)).collect();
        if active.is_empty() {
            return Ok(());
        }
        let mut acc = InstanceAccumulator::new(&active);
        let traces = ctx.log().traces();
        let early =
            ctx.visit_instances(group, self.segmenter, |ti, inst| acc.feed(&traces[ti], &inst));
        match early {
            Some(spec_index) => Err(spec_index),
            None => acc.finish(),
        }
    }

    /// The naive full-log-scan evaluation of `R_I`, kept as the oracle for
    /// the index-equivalence test suites and the scan-vs-indexed
    /// benchmarks. Bit-identical to [`Self::check_instances`].
    pub fn check_instances_scan(&self, group: &ClassSet, log: &EventLog) -> Result<(), usize> {
        let active: Vec<&InstCheck> = self.inst_checks.iter().collect();
        if active.is_empty() {
            return Ok(());
        }
        let mut acc = InstanceAccumulator::new(&active);
        for (ti, trace) in log.traces().iter().enumerate() {
            if !log.trace_class_sets()[ti].intersects(group) {
                continue; // vacuously satisfied for this trace
            }
            for inst in instances(trace, group, self.segmenter) {
                if let ControlFlow::Break(spec_index) = acc.feed(trace, &inst) {
                    return Err(spec_index);
                }
            }
        }
        acc.finish()
    }

    /// The full per-group `holds` predicate: `R_C` first, then `R_I`.
    pub fn holds(&self, group: &ClassSet, ctx: &EvalContext<'_>) -> bool {
        self.check_class(group, ctx).is_ok() && self.check_instances(group, ctx).is_ok()
    }

    /// Scan-oracle twin of [`Self::holds`]: evaluates against the raw log
    /// with no index.
    pub fn holds_scan(&self, group: &ClassSet, log: &EventLog) -> bool {
        self.check_class_filtered(group, log, |_| true).is_ok()
            && self.check_instances_scan(group, log).is_ok()
    }

    /// Like [`Self::holds`], but reports the violated spec index.
    pub fn holds_detailed(&self, group: &ClassSet, ctx: &EvalContext<'_>) -> Result<(), usize> {
        self.check_class(group, ctx)?;
        self.check_instances(group, ctx)
    }

    /// Checks only the **anti-monotonic** subset of the constraints. Used
    /// as the expansion gate in anti-monotonic checking mode: a group that
    /// fails any anti-monotonic constraint can never be repaired by growing
    /// it, while failures of monotonic/non-monotonic constraints can.
    pub fn holds_anti_monotonic(&self, group: &ClassSet, ctx: &EvalContext<'_>) -> bool {
        let anti = |m: Monotonicity| m == Monotonicity::AntiMonotonic;
        self.check_class_filtered(group, ctx.log(), anti).is_ok()
            && self.check_instances_filtered(group, ctx, anti).is_ok()
    }

    /// All must-link pairs (needed by baselines that merge rather than
    /// search).
    pub fn must_link_pairs(&self) -> Vec<(ClassId, ClassId)> {
        self.class_checks
            .iter()
            .filter_map(|(_, c, _)| match c {
                ClassCheck::MustLink(a, b) => Some((*a, *b)),
                _ => None,
            })
            .collect()
    }
}

/// The per-instance bookkeeping of `R_I` evaluation, shared by the indexed
/// path and the scan oracle so their verdicts cannot diverge: strict
/// constraints (min_fraction ≥ 1) fail fast on the first violating
/// instance, loose ones tally violations and compare fractions at the end.
struct InstanceAccumulator<'a, 'b> {
    active: &'a [&'b InstCheck],
    all_strict: bool,
    total_instances: usize,
    violations: Vec<usize>,
}

impl<'a, 'b> InstanceAccumulator<'a, 'b> {
    fn new(active: &'a [&'b InstCheck]) -> Self {
        InstanceAccumulator {
            active,
            all_strict: active.iter().all(|c| c.min_fraction >= 1.0),
            total_instances: 0,
            violations: vec![0usize; active.len()],
        }
    }

    /// Feeds one instance; breaks with the violated spec index when a
    /// strict evaluation can already conclude.
    fn feed(&mut self, trace: &Trace, inst: &GroupInstance) -> ControlFlow<usize> {
        self.total_instances += 1;
        for (ci, check) in self.active.iter().enumerate() {
            let ok = match eval_expr(&check.expr, trace, inst) {
                Some(v) => check.cmp.eval(v, check.bound),
                None => true, // vacuous: no values to aggregate
            };
            if !ok {
                if self.all_strict {
                    return ControlFlow::Break(check.spec_index);
                }
                self.violations[ci] += 1;
            }
        }
        ControlFlow::Continue(())
    }

    /// Final verdict once every instance has been fed.
    fn finish(self) -> Result<(), usize> {
        if !self.all_strict && self.total_instances > 0 {
            for (ci, check) in self.active.iter().enumerate() {
                let satisfied = (self.total_instances - self.violations[ci]) as f64;
                if satisfied / self.total_instances as f64 + 1e-12 < check.min_fraction {
                    return Err(check.spec_index);
                }
            }
        }
        Ok(())
    }
}

/// Evaluates one instance expression; `None` means "no values to aggregate"
/// (vacuously satisfied).
pub(crate) fn eval_expr(expr: &InstExpr, trace: &Trace, inst: &GroupInstance) -> Option<f64> {
    let events = trace.events();
    match expr {
        InstExpr::Count => Some(inst.len() as f64),
        InstExpr::CountClass(c) => {
            Some(inst.positions().iter().filter(|&&p| events[p as usize].class() == *c).count()
                as f64)
        }
        InstExpr::Distinct(key) => {
            let mut seen = HashSet::new();
            for &p in inst.positions() {
                if let Some(v) = events[p as usize].attribute(*key) {
                    seen.insert(v.distinct_key());
                }
            }
            Some(seen.len() as f64)
        }
        InstExpr::Sum(key) => {
            let mut sum = 0.0;
            let mut any = false;
            for &p in inst.positions() {
                if let Some(v) = events[p as usize].attribute(*key).and_then(|v| v.as_f64()) {
                    sum += v;
                    any = true;
                }
            }
            any.then_some(sum)
        }
        InstExpr::Avg(key) => {
            let mut sum = 0.0;
            let mut n = 0usize;
            for &p in inst.positions() {
                if let Some(v) = events[p as usize].attribute(*key).and_then(|v| v.as_f64()) {
                    sum += v;
                    n += 1;
                }
            }
            (n > 0).then(|| sum / n as f64)
        }
        InstExpr::Min(key) => inst
            .positions()
            .iter()
            .filter_map(|&p| events[p as usize].attribute(*key).and_then(|v| v.as_f64()))
            .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.min(v)))),
        InstExpr::Max(key) => inst
            .positions()
            .iter()
            .filter_map(|&p| events[p as usize].attribute(*key).and_then(|v| v.as_f64()))
            .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v)))),
        InstExpr::Span(key) => {
            let mut first = None;
            let mut last = None;
            for &p in inst.positions() {
                if let Some(v) = events[p as usize].attribute(*key).and_then(|v| v.as_f64()) {
                    if first.is_none() {
                        first = Some(v);
                    }
                    last = Some(v);
                }
            }
            match (first, last) {
                (Some(f), Some(l)) => Some(l - f),
                _ => None,
            }
        }
        InstExpr::MaxGap(key) => {
            let mut prev: Option<f64> = None;
            let mut max_gap: Option<f64> = None;
            for &p in inst.positions() {
                if let Some(v) = events[p as usize].attribute(*key).and_then(|v| v.as_f64()) {
                    if let Some(pv) = prev {
                        let gap = v - pv;
                        max_gap = Some(max_gap.map_or(gap, |g| g.max(gap)));
                    }
                    prev = Some(v);
                }
            }
            max_gap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecco_eventlog::LogBuilder;

    /// Builds the paper's running example with roles and simple durations.
    fn running_example() -> EventLog {
        let role_of = |c: &str| match c {
            "acc" | "rej" => "manager",
            _ => "clerk",
        };
        let mut b = LogBuilder::new();
        let traces: &[&[&str]] = &[
            &["rcp", "ckc", "acc", "prio", "inf", "arv"],
            &["rcp", "ckt", "rej", "prio", "arv", "inf"],
            &["rcp", "ckc", "acc", "inf", "arv"],
            &["rcp", "ckc", "rej", "rcp", "ckt", "acc", "prio", "arv", "inf"],
        ];
        for (i, t) in traces.iter().enumerate() {
            let mut tb = b.trace(&format!("σ{}", i + 1));
            for (j, cls) in t.iter().enumerate() {
                tb = tb
                    .event_with(cls, |e| {
                        e.str("org:role", role_of(cls))
                            .timestamp(
                                "time:timestamp",
                                (i as i64) * 1_000_000 + (j as i64) * 60_000,
                            )
                            .float("duration", 10.0 + j as f64)
                            .int("cost", 100 * (j as i64 + 1));
                    })
                    .unwrap();
            }
            tb.done();
        }
        b.build()
    }

    fn group(log: &EventLog, names: &[&str]) -> ClassSet {
        names.iter().map(|n| log.class_by_name(n).unwrap()).collect()
    }

    fn compile(log: &EventLog, dsl: &str) -> CompiledConstraintSet {
        CompiledConstraintSet::compile(&ConstraintSet::parse(dsl).unwrap(), log).unwrap()
    }

    #[test]
    fn role_constraint_separates_clerk_and_manager() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1;");
        assert!(cs.holds(&group(&log, &["rcp", "ckc", "ckt"]), &ctx));
        assert!(cs.holds(&group(&log, &["acc"]), &ctx));
        assert!(!cs.holds(&group(&log, &["ckc", "acc"]), &ctx), "mixes clerk and manager");
    }

    #[test]
    fn size_and_links() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let cs = compile(
            &log,
            "size(g) <= 2; cannot_link(\"rcp\", \"acc\"); must_link(\"inf\", \"arv\");",
        );
        assert!(cs.check_class(&group(&log, &["rcp", "ckc"]), &ctx).is_ok());
        // size violation
        assert_eq!(cs.check_class(&group(&log, &["rcp", "ckc", "ckt"]), &ctx), Err(0));
        // cannot-link violation
        assert_eq!(cs.check_class(&group(&log, &["rcp", "acc"]), &ctx), Err(1));
        // must-link violation: inf without arv
        assert_eq!(cs.check_class(&group(&log, &["inf", "prio"]), &ctx), Err(2));
        // both inf and arv: fine
        assert!(cs.check_class(&group(&log, &["inf", "arv"]), &ctx).is_ok());
    }

    #[test]
    fn grouping_bounds() {
        let log = running_example();
        let cs = compile(&log, "groups <= 4; groups >= 2;");
        assert_eq!(cs.group_count_bounds(), (Some(2), Some(4)));
        assert!(cs.group_count_ok(3));
        assert!(!cs.group_count_ok(1));
        assert!(!cs.group_count_ok(5));
        let cs = compile(&log, "groups == 4;");
        assert_eq!(cs.group_count_bounds(), (Some(4), Some(4)));
        assert!(cs.group_count_ok(4));
        assert!(!cs.group_count_ok(3));
    }

    #[test]
    fn instance_aggregates() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        // duration = 10 + position. Every instance of {rcp, ckc} contains at
        // least rcp (duration ≥ 10), so sum ≥ 10 holds; σ2's instance is just
        // ⟨rcp⟩ with duration exactly 10, so sum ≥ 11 fails.
        let cs = compile(&log, "sum(\"duration\") >= 10;");
        assert!(cs.holds(&group(&log, &["rcp", "ckc"]), &ctx));
        let cs = compile(&log, "sum(\"duration\") >= 11;");
        assert!(!cs.holds(&group(&log, &["rcp", "ckc"]), &ctx));
        // cost = 100·(position+1): rcp instances cost 100 except σ4's
        // restart at position 3 (cost 400); arv always occurs at position ≥ 4.
        let cs = compile(&log, "avg(\"cost\") <= 400;");
        assert!(cs.holds(&group(&log, &["rcp"]), &ctx));
        assert!(!cs.holds(&group(&log, &["arv"]), &ctx), "arv occurs late, cost high");
    }

    #[test]
    fn span_and_gap_use_timestamps() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        // Events are 60s apart; instance ⟨rcp,ckc⟩ spans 60_000ms.
        let cs = compile(&log, "span(\"time:timestamp\") <= 60000;");
        assert!(cs.holds(&group(&log, &["rcp", "ckc"]), &ctx));
        // {rcp, arv}: spans nearly the whole trace — violated.
        assert!(!cs.holds(&group(&log, &["rcp", "arv"]), &ctx));
        let cs = compile(&log, "gap(\"time:timestamp\") <= 60000;");
        assert!(cs.holds(&group(&log, &["rcp", "ckc"]), &ctx));
        assert!(!cs.holds(&group(&log, &["rcp", "prio"]), &ctx));
    }

    #[test]
    fn count_class_cardinality() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        // With RepeatSplit every instance has at most 1 event per class.
        let cs = compile(&log, "count(instance, \"rcp\") <= 1;");
        assert!(cs.holds(&group(&log, &["rcp", "ckc", "ckt"]), &ctx));
        // NoSplit: σ4's single instance contains rcp twice.
        let spec = ConstraintSet::parse("count(instance, \"rcp\") <= 1;").unwrap();
        let cs = CompiledConstraintSet::compile_with(&spec, &log, Segmenter::NoSplit).unwrap();
        assert!(!cs.holds(&group(&log, &["rcp", "ckc", "ckt"]), &ctx));
    }

    #[test]
    fn loose_constraints_tolerate_a_fraction() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        // Group {prio}: 3 instances (σ1, σ2, σ4), each cost depends on position.
        // σ1: prio at pos 3 → cost 400; σ2: pos 3 → 400; σ4: pos 6 → 700.
        let strict = compile(&log, "sum(\"cost\") <= 400;");
        assert!(!strict.holds(&group(&log, &["prio"]), &ctx));
        let loose = compile(&log, "atleast 0.6 of instances: sum(\"cost\") <= 400;");
        assert!(loose.holds(&group(&log, &["prio"]), &ctx), "2/3 instances satisfy");
        let too_tight = compile(&log, "atleast 0.7 of instances: sum(\"cost\") <= 400;");
        assert!(!too_tight.holds(&group(&log, &["prio"]), &ctx));
    }

    #[test]
    fn class_scope_distinct_requires_class_attributes() {
        let mut b = LogBuilder::new();
        b.class_attr_str("a", "system", "X").unwrap();
        b.class_attr_str("b", "system", "X").unwrap();
        b.class_attr_str("c", "system", "Y").unwrap();
        b.trace("t").event("a").unwrap().event("b").unwrap().event("c").unwrap().done();
        let log = b.build();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(class, \"system\") <= 1;");
        assert!(cs.holds(&group(&log, &["a", "b"]), &ctx));
        assert!(!cs.holds(&group(&log, &["a", "c"]), &ctx));
        // A log without the attribute on all classes: compile error.
        let mut b2 = LogBuilder::new();
        b2.class_attr_str("a", "system", "X").unwrap();
        b2.trace("t").event("a").unwrap().event("b").unwrap().done();
        let log2 = b2.build();
        let spec = ConstraintSet::parse("distinct(class, \"system\") <= 1;").unwrap();
        assert!(matches!(
            CompiledConstraintSet::compile(&spec, &log2),
            Err(CompileError::MissingClassAttribute { .. })
        ));
    }

    #[test]
    fn unknown_names_fail_compilation() {
        let log = running_example();
        let spec = ConstraintSet::parse("sum(\"nonexistent\") <= 1;").unwrap();
        assert_eq!(
            CompiledConstraintSet::compile(&spec, &log).unwrap_err(),
            CompileError::UnknownAttribute("nonexistent".into())
        );
        let spec = ConstraintSet::parse("cannot_link(\"zzz\", \"rcp\");").unwrap();
        assert_eq!(
            CompiledConstraintSet::compile(&spec, &log).unwrap_err(),
            CompileError::UnknownClass("zzz".into())
        );
    }

    #[test]
    fn mode_derivation_matches_paper() {
        let log = running_example();
        assert_eq!(compile(&log, "size(g) <= 8;").mode(), CheckingMode::AntiMonotonic);
        assert_eq!(compile(&log, "size(g) >= 2;").mode(), CheckingMode::Monotonic);
        assert_eq!(
            compile(&log, "size(g) >= 2; avg(\"cost\") <= 100;").mode(),
            CheckingMode::NonMonotonic
        );
        assert_eq!(
            compile(&log, "size(g) <= 8; avg(\"cost\") <= 100;").mode(),
            CheckingMode::AntiMonotonic
        );
        // Grouping constraints are excluded from the mode (R \ R_G).
        assert_eq!(compile(&log, "groups <= 3;").mode(), CheckingMode::Monotonic);
    }

    #[test]
    fn anti_monotonic_gate_ignores_other_constraints() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let cs = compile(&log, "size(g) <= 2; size(g) >= 2;");
        let singleton = group(&log, &["rcp"]);
        // Violates the monotonic (>= 2) constraint but not the anti-monotonic one.
        assert!(!cs.holds(&singleton, &ctx));
        assert!(cs.holds_anti_monotonic(&singleton, &ctx));
        let triple = group(&log, &["rcp", "ckc", "ckt"]);
        assert!(!cs.holds_anti_monotonic(&triple, &ctx));
    }

    #[test]
    fn indexed_checks_match_scan_oracle() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let sets = [
            "sum(\"duration\") >= 11;",
            "span(\"time:timestamp\") <= 60000;",
            "atleast 0.6 of instances: sum(\"cost\") <= 400;",
            "count(instance, \"rcp\") <= 1; size(g) <= 2;",
            "distinct(instance, \"org:role\") <= 1;",
        ];
        let ids: Vec<ClassId> = log.classes().ids().collect();
        for dsl in sets {
            let cs = compile(&log, dsl);
            for mask in 1u32..(1 << ids.len()) {
                let g: ClassSet = ids
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, c)| *c)
                    .collect();
                assert_eq!(cs.holds(&g, &ctx), cs.holds_scan(&g, &log), "{dsl} on {g:?}");
                assert_eq!(
                    cs.check_instances(&g, &ctx),
                    cs.check_instances_scan(&g, &log),
                    "{dsl} on {g:?}"
                );
            }
        }
    }

    #[test]
    fn vacuous_traces_do_not_count() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        // {prio} never occurs in σ3; constraint still evaluable.
        let cs = compile(&log, "count(instance) >= 1;");
        assert!(cs.holds(&group(&log, &["prio"]), &ctx));
    }

    #[test]
    fn monotonicity_soundness_on_running_example() {
        // For every anti-monotonic constraint: holds(g) implies holds(g')
        // for g' ⊂ g — checked over all pairs of nested groups up to size 3.
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let cs = compile(&log, "span(\"time:timestamp\") <= 120000; size(g) <= 2;");
        let ids: Vec<ClassId> = log.classes().ids().collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let pair: ClassSet = [ids[i], ids[j]].into_iter().collect();
                if !log.occurs(&pair) {
                    continue;
                }
                if cs.holds_anti_monotonic(&pair, &ctx) {
                    assert!(
                        cs.holds_anti_monotonic(&ClassSet::singleton(ids[i]), &ctx),
                        "anti-monotonicity violated for subset"
                    );
                    assert!(cs.holds_anti_monotonic(&ClassSet::singleton(ids[j]), &ctx));
                }
            }
        }
    }
}
