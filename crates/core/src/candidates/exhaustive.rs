//! Algorithm 1: exhaustive candidate computation.
//!
//! Level-wise enumeration of all constraint-satisfying groups that co-occur
//! in at least one trace, with the two pruning strategies of §V-B:
//!
//! * **monotonic mode** — a group with a known-satisfying subset is admitted
//!   without re-validation;
//! * **anti-monotonic mode** — only groups passing the anti-monotonic
//!   subset of the constraints are expanded (a violated anti-monotonic
//!   constraint can never be repaired by adding classes).
//!
//! The expansion gate deliberately checks only the *anti-monotonic*
//! constraints rather than full satisfaction: when anti-monotonic and
//! non-/monotonic constraints are mixed, the paper's literal "expand
//! `G_new`" would lose completeness (see DESIGN.md, interpretation 4);
//! both behaviors coincide when all constraints are anti-monotonic.

use super::{Budget, CandidateSet, PreevaluatedChecks};
use gecco_constraints::{CheckingMode, CompiledConstraintSet};
use gecco_eventlog::{ClassCoOccurrence, ClassSet, EvalContext};
use std::collections::HashMap;

/// Runs Algorithm 1 and returns the candidate set. Constraint checks go
/// through `ctx`, so each candidate only pays for its own occurrences.
pub fn exhaustive_candidates(
    ctx: &EvalContext<'_>,
    constraints: &CompiledConstraintSet,
    budget: Budget,
) -> CandidateSet {
    let log = ctx.log();
    let mode = constraints.mode();
    let mut out = CandidateSet::new();
    let occurring = crate::grouping::occurring_classes(log);

    // Co-occurrence sketches, built in one pass over the index postings.
    // The pairwise rows are exact — `cooccurring(c)` is precisely the set
    // of classes sharing a trace with c, the cheap necessary condition
    // checked before the full occurs() scan — and `may_occur` adds
    // higher-order (triple) filtering that is one-sided by construction:
    // it never rejects a group that actually co-occurs.
    let sketch = ClassCoOccurrence::build(ctx.index());

    // toCheck entries carry a witness flag: does the group have a subset
    // already admitted to G? (enables the monotonic-mode shortcut).
    let mut to_check: Vec<(ClassSet, bool)> =
        occurring.iter().map(|c| (ClassSet::singleton(c), false)).collect();

    while !to_check.is_empty() {
        out.stats.iterations += 1;
        // With parallelism on, evaluate this level's constraint checks over
        // all cores first; the loop below then replays the budget/shortcut
        // bookkeeping against the stored verdicts (identical results either
        // way — see `PreevaluatedChecks`).
        let pre = PreevaluatedChecks::evaluate(
            ctx,
            constraints,
            to_check.iter().copied(),
            budget,
            out.stats.checked + out.stats.monotonic_shortcuts,
        );
        let mut admitted: Vec<(ClassSet, bool)> = Vec::new(); // (group, expandable)
        for (group, has_satisfied_subset) in &to_check {
            if budget.exhausted(out.stats.checked + out.stats.monotonic_shortcuts) {
                out.stats.budget_exhausted = true;
                return out;
            }
            let holds = if mode == CheckingMode::Monotonic && *has_satisfied_subset {
                out.stats.monotonic_shortcuts += 1;
                true
            } else {
                out.stats.checked += 1;
                match &pre {
                    Some(pre) => pre.holds(group, ctx, constraints),
                    None => constraints.holds(group, ctx),
                }
            };
            if holds {
                out.stats.satisfied += 1;
                out.insert(*group);
            }
            let expandable = match mode {
                // Anti-monotonic mode: only expand groups that satisfy the
                // anti-monotonic constraint subset.
                CheckingMode::AntiMonotonic => {
                    holds
                        || match &pre {
                            Some(pre) => pre.holds_anti_monotonic(group, ctx, constraints),
                            None => constraints.holds_anti_monotonic(group, ctx),
                        }
                }
                // Monotonic / non-monotonic: expand everything (supergroups
                // of violating groups may still satisfy the constraints).
                CheckingMode::Monotonic | CheckingMode::NonMonotonic => true,
            };
            if expandable {
                admitted.push((*group, holds));
            }
        }
        // Group expansion: add one class to each expandable group. Under a
        // check budget the frontier is capped — groups beyond ~4× the
        // remaining budget can never be checked anyway.
        let touched = out.stats.checked + out.stats.monotonic_shortcuts;
        let frontier_cap = budget
            .max_checks
            .map(|m| m.saturating_sub(touched).saturating_mul(4).max(1024))
            .unwrap_or(usize::MAX);
        let mut next: HashMap<ClassSet, bool> = HashMap::new();
        'expand: for (group, in_g) in admitted {
            // Classes co-occurring with every member of the group.
            let mut cooc = occurring;
            for c in group.iter() {
                cooc = cooc.intersection(sketch.cooccurring(c));
            }
            for c in cooc.difference(&group).iter() {
                if next.len() >= frontier_cap {
                    break 'expand;
                }
                let mut bigger = group;
                bigger.insert(c);
                // Sketch fast-reject (pairwise passed, but a triple may
                // still prove the classes never share a trace) before the
                // exact co-occurrence check via the adaptive dispatch: a
                // galloping intersection of the classes' trace-id runs on
                // large logs, the early-exit bitmap scan on small ones.
                if !sketch.may_occur(&bigger) {
                    out.stats.pruned_by_sketch += 1;
                    continue;
                }
                if !ctx.occurs(&bigger) {
                    out.stats.pruned_non_occurring += 1;
                    continue;
                }
                let entry = next.entry(bigger).or_insert(false);
                *entry = *entry || in_g;
            }
        }
        // gecco-lint: allow(nondet-iter) — sorted into deterministic order on the next line
        to_check = next.into_iter().collect();
        // Deterministic order keeps runs reproducible.
        to_check.sort_by_key(|(g, _)| *g);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecco_constraints::ConstraintSet;
    use gecco_eventlog::{ClassId, EventLog, LogBuilder};

    fn role_log() -> EventLog {
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
            for cls in *t {
                tb = tb
                    .event_with(cls, |e| {
                        e.str("org:role", role_of(cls));
                    })
                    .unwrap();
            }
            tb.done();
        }
        b.build()
    }

    fn compile(log: &EventLog, dsl: &str) -> CompiledConstraintSet {
        CompiledConstraintSet::compile(&ConstraintSet::parse(dsl).unwrap(), log).unwrap()
    }

    fn names(log: &EventLog, g: &ClassSet) -> Vec<String> {
        let mut v: Vec<String> = g.iter().map(|c| log.class_name(c).to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn unconstrained_yields_all_co_occurring_groups() {
        let mut b = LogBuilder::new();
        b.trace("t1").event("a").unwrap().event("b").unwrap().done();
        b.trace("t2").event("c").unwrap().done();
        let log = b.build();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "");
        let out = exhaustive_candidates(&ctx, &cs, Budget::UNLIMITED);
        // {a}, {b}, {c}, {a,b} — but not {a,c}, {b,c}, {a,b,c}.
        assert_eq!(out.len(), 4);
        assert!(!out.stats.budget_exhausted);
    }

    #[test]
    fn role_constraint_excludes_mixed_groups() {
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1;");
        let out = exhaustive_candidates(&ctx, &cs, Budget::UNLIMITED);
        for g in out.groups() {
            let roles: std::collections::HashSet<&str> = g
                .iter()
                .map(|c| match log.class_name(c) {
                    "acc" | "rej" => "manager",
                    _ => "clerk",
                })
                .collect();
            assert_eq!(roles.len(), 1, "mixed-role group {:?}", names(&log, g));
        }
        // The paper's winning group {rcp, ckc, ckt} must be among them.
        let target: ClassSet =
            ["rcp", "ckc", "ckt"].iter().map(|n| log.class_by_name(n).unwrap()).collect();
        assert!(out.groups().contains(&target));
    }

    #[test]
    fn anti_monotonic_pruning_cuts_search() {
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let anti = compile(&log, "size(g) <= 2;");
        let pruned = exhaustive_candidates(&ctx, &anti, Budget::UNLIMITED);
        // No candidate exceeds the bound and nothing above level 3 was checked.
        assert!(pruned.groups().iter().all(|g| g.len() <= 2));
        assert!(pruned.stats.iterations <= 3);
        // Anti-monotonic pruning touches strictly fewer groups than full
        // enumeration (whose touched set is checks + monotonic shortcuts).
        let unconstrained = compile(&log, "");
        let full = exhaustive_candidates(&ctx, &unconstrained, Budget::UNLIMITED);
        let touched_full = full.stats.checked + full.stats.monotonic_shortcuts;
        let touched_pruned = pruned.stats.checked + pruned.stats.monotonic_shortcuts;
        assert!(touched_pruned < touched_full, "{touched_pruned} !< {touched_full}");
    }

    #[test]
    fn monotonic_shortcut_skips_validation() {
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "size(g) >= 1;"); // trivially monotonic
        let out = exhaustive_candidates(&ctx, &cs, Budget::UNLIMITED);
        assert!(out.stats.monotonic_shortcuts > 0);
        // Every co-occurring group satisfies size >= 1.
        assert_eq!(out.stats.satisfied, out.len());
    }

    #[test]
    fn budget_stops_early_with_partial_results() {
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "");
        let out = exhaustive_candidates(&ctx, &cs, Budget::max_checks(5));
        assert!(out.stats.budget_exhausted);
        assert!(out.len() <= 5);
        assert!(!out.is_empty(), "partial results are kept");
    }

    #[test]
    fn huge_check_budget_does_not_overflow() {
        // The frontier cap multiplies the remaining budget by 4; a budget
        // near usize::MAX must saturate, not overflow.
        let mut b = gecco_eventlog::LogBuilder::new();
        b.trace("t").event("a").unwrap().event("b").unwrap().event("c").unwrap().done();
        let log = b.build();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "");
        let huge = exhaustive_candidates(&ctx, &cs, Budget::max_checks(usize::MAX));
        let unlimited = exhaustive_candidates(&ctx, &cs, Budget::UNLIMITED);
        assert_eq!(huge.groups(), unlimited.groups());
        assert_eq!(huge.stats, unlimited.stats);
    }

    #[test]
    fn completeness_on_running_example() {
        // Cross-check against brute force: every subset of C_L up to size 8
        // that co-occurs and satisfies the constraints must be found.
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1; size(g) <= 3;");
        let out = exhaustive_candidates(&ctx, &cs, Budget::UNLIMITED);
        let ids: Vec<ClassId> = log.classes().ids().collect();
        let mut expected = Vec::new();
        for mask in 1u32..(1 << ids.len()) {
            let g: ClassSet = ids
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, c)| *c)
                .collect();
            if log.occurs(&g) && cs.holds(&g, &ctx) {
                expected.push(g);
            }
        }
        let mut found: Vec<ClassSet> = out.groups().to_vec();
        found.sort();
        expected.sort();
        assert_eq!(found, expected);
    }

    #[test]
    fn non_monotonic_mode_expands_violating_groups() {
        // avg-based constraint: singletons may violate while pairs satisfy.
        let mut b = LogBuilder::new();
        b.trace("t")
            .event_with("hi", |e| {
                e.int("v", 100);
            })
            .unwrap()
            .event_with("lo", |e| {
                e.int("v", 0);
            })
            .unwrap()
            .done();
        let log = b.build();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "avg(\"v\") <= 50;");
        assert_eq!(cs.mode(), CheckingMode::NonMonotonic);
        let out = exhaustive_candidates(&ctx, &cs, Budget::UNLIMITED);
        // {hi} violates (avg 100) but {hi, lo} satisfies (avg 50).
        let hi = log.class_by_name("hi").unwrap();
        let lo = log.class_by_name("lo").unwrap();
        let pair: ClassSet = [hi, lo].into_iter().collect();
        assert!(out.groups().contains(&pair));
        assert!(!out.groups().contains(&ClassSet::singleton(hi)));
        assert!(out.groups().contains(&ClassSet::singleton(lo)));
    }
}
