//! Algorithm 2: DFG-based candidate computation with beam search.
//!
//! Exploits the process-oriented structure of the log: cohesive groups
//! consist of classes that occur *near* each other, so candidates are grown
//! as paths through the directly-follows graph — extending a path by a
//! predecessor of its first or a successor of its last node — instead of by
//! arbitrary class additions. Each iteration keeps only the `k` paths with
//! the lowest group distance (the beam).

use super::{BeamWidth, Budget, CandidateSet, PreevaluatedChecks};
use crate::distance::DistanceOracle;
use gecco_constraints::{CheckingMode, CompiledConstraintSet};
use gecco_eventlog::{ClassId, ClassSet, Dfg, EvalContext};
use std::collections::HashMap;

/// A path through the DFG: the candidate group is `nodes(p)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Node sequence; `first()`/`last()` are the expansion points.
    pub nodes: Vec<ClassId>,
    /// The set of nodes, i.e. the candidate group.
    pub set: ClassSet,
}

impl Path {
    fn singleton(c: ClassId) -> Path {
        Path { nodes: vec![c], set: ClassSet::singleton(c) }
    }

    fn extended_back(&self, succ: ClassId) -> Path {
        let mut nodes = self.nodes.clone();
        nodes.push(succ);
        let mut set = self.set;
        set.insert(succ);
        Path { nodes, set }
    }

    fn extended_front(&self, pred: ClassId) -> Path {
        let mut nodes = Vec::with_capacity(self.nodes.len() + 1);
        nodes.push(pred);
        nodes.extend_from_slice(&self.nodes);
        let mut set = self.set;
        set.insert(pred);
        Path { nodes, set }
    }
}

/// Observation hook for the per-iteration state (used to reproduce the
/// paper's Figure 5).
pub trait IterationObserver {
    /// Called once per iteration with the paths examined inside the beam
    /// and whether each one's group satisfied the constraints.
    fn iteration(&mut self, iteration: usize, examined: &[(Path, bool)]);
}

/// A no-op observer.
pub struct NoObserver;

impl IterationObserver for NoObserver {
    fn iteration(&mut self, _: usize, _: &[(Path, bool)]) {}
}

/// Runs Algorithm 2 and returns the candidate set. Constraint checks and
/// distance scoring go through `ctx`. The distances the beam sort scored
/// stay on the result ([`CandidateSet::distances`]), under the
/// constraints' segmenter, also when the budget runs out.
pub fn dfg_candidates<'a>(
    ctx: &'a EvalContext<'a>,
    constraints: &CompiledConstraintSet,
    beam: Option<BeamWidth>,
    budget: Budget,
    observer: &mut dyn IterationObserver,
) -> CandidateSet {
    let log = ctx.log();
    let mode = constraints.mode();
    let dfg = Dfg::from_index(log, ctx.index());
    let oracle = DistanceOracle::new(ctx, constraints.segmenter());
    let mut out = CandidateSet::new();
    let occurring = crate::grouping::occurring_classes(log);
    let k = beam.map(|b| b.resolve(occurring.len())).unwrap_or(usize::MAX);

    let mut to_check: Vec<(Path, bool)> =
        occurring.iter().map(|c| (Path::singleton(c), false)).collect();

    while !to_check.is_empty() {
        out.stats.iterations += 1;
        // The sort below evaluates dist once per frontier path; score the
        // uncached groups first, in batched sweeps over all cores (see
        // `DistanceOracle::prime`).
        oracle.prime(to_check.iter().map(|(p, _)| p.set));
        // Sort by group distance, lowest first (most cohesive paths first).
        to_check.sort_by(|a, b| {
            oracle
                .distance(&a.0.set)
                .total_cmp(&oracle.distance(&b.0.set))
                .then_with(|| a.0.nodes.cmp(&b.0.nodes))
        });
        // Pre-evaluate the beam's constraint checks in parallel; the loop
        // replays its bookkeeping against the verdicts (see exhaustive.rs).
        let pre = PreevaluatedChecks::evaluate(
            ctx,
            constraints,
            to_check.iter().take(k).map(|(p, f)| (p.set, *f)),
            budget,
            out.stats.checked + out.stats.monotonic_shortcuts,
        );
        let mut to_expand: Vec<Path> = Vec::new();
        let mut examined: Vec<(Path, bool)> = Vec::new();
        for (path, has_satisfied_subset) in to_check.iter().take(k) {
            if budget.exhausted(out.stats.checked + out.stats.monotonic_shortcuts) {
                out.stats.budget_exhausted = true;
                observer.iteration(out.stats.iterations, &examined);
                out.distances = Some(oracle.into_memo());
                return out;
            }
            let group = path.set;
            let holds = if mode == CheckingMode::Monotonic && *has_satisfied_subset {
                out.stats.monotonic_shortcuts += 1;
                true
            } else {
                out.stats.checked += 1;
                match &pre {
                    Some(pre) => pre.holds(&group, ctx, constraints),
                    None => constraints.holds(&group, ctx),
                }
            };
            examined.push((path.clone(), holds));
            if holds {
                out.stats.satisfied += 1;
                out.insert(group);
            }
            let expandable = match mode {
                CheckingMode::AntiMonotonic => {
                    holds
                        || match &pre {
                            Some(pre) => pre.holds_anti_monotonic(&group, ctx, constraints),
                            None => constraints.holds_anti_monotonic(&group, ctx),
                        }
                }
                CheckingMode::Monotonic | CheckingMode::NonMonotonic => true,
            };
            if expandable {
                to_expand.push(path.clone());
            }
        }
        observer.iteration(out.stats.iterations, &examined);
        // Path expansion: successor of the last or predecessor of the first
        // node. Deduplicate by (set, endpoints) — further growth depends
        // only on those. Under a check budget, cap the frontier: paths
        // beyond ~4× the remaining budget can never be checked, and sorting
        // them (which evaluates dist per path) would dominate the runtime.
        let touched = out.stats.checked + out.stats.monotonic_shortcuts;
        let frontier_cap = budget
            .max_checks
            .map(|m| m.saturating_sub(touched).saturating_mul(4).max(1024))
            .unwrap_or(usize::MAX);
        let mut next: HashMap<(ClassSet, ClassId, ClassId), (Path, bool)> = HashMap::new();
        'expand: for path in to_expand {
            let in_g = out.contains(&path.set);
            let last = *path.nodes.last().expect("paths are non-empty");
            let first = path.nodes[0];
            for succ in dfg.successors(last) {
                if next.len() >= frontier_cap {
                    break 'expand;
                }
                if !path.set.contains(succ) {
                    let p = path.extended_back(succ);
                    consider(ctx, &mut out, &mut next, p, in_g);
                }
            }
            for pred in dfg.predecessors(first) {
                if next.len() >= frontier_cap {
                    break 'expand;
                }
                if !path.set.contains(pred) {
                    let p = path.extended_front(pred);
                    consider(ctx, &mut out, &mut next, p, in_g);
                }
            }
        }
        // Deterministic order keeps runs reproducible: hash order must not
        // pick which equal-scoring path survives downstream tie-breaks.
        // gecco-lint: allow(nondet-iter) — sorted by candidate key on the next line
        let mut frontier: Vec<_> = next.into_iter().collect();
        frontier.sort_unstable_by_key(|(key, _)| *key);
        to_check = frontier.into_iter().map(|(_, path)| path).collect();
    }
    out.distances = Some(oracle.into_memo());
    out
}

fn consider(
    ctx: &EvalContext<'_>,
    out: &mut CandidateSet,
    next: &mut HashMap<(ClassSet, ClassId, ClassId), (Path, bool)>,
    path: Path,
    parent_in_g: bool,
) {
    // Adaptive `occurs(g, L)`: a galloping intersection of the classes'
    // trace-id runs on large logs, the early-exit bitmap scan on small ones.
    if !ctx.occurs(&path.set) {
        out.stats.pruned_non_occurring += 1;
        return;
    }
    let key = (path.set, path.nodes[0], *path.nodes.last().expect("non-empty"));
    let entry = next.entry(key).or_insert_with(|| (path, parent_in_g));
    entry.1 = entry.1 || parent_in_g;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecco_constraints::ConstraintSet;
    use gecco_eventlog::{EventLog, LogBuilder};

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

    fn set(log: &EventLog, names: &[&str]) -> ClassSet {
        names.iter().map(|n| log.class_by_name(n).unwrap()).collect()
    }

    #[test]
    fn finds_connected_cohesive_candidates() {
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1;");
        let out = dfg_candidates(&ctx, &cs, None, Budget::UNLIMITED, &mut NoObserver);
        // Figure 5's iteration-2 group {prio, inf, arv} must be found, as
        // must the initial clerk block {rcp, ckc} / {rcp, ckt}.
        assert!(out.groups().contains(&set(&log, &["prio", "inf", "arv"])));
        assert!(out.groups().contains(&set(&log, &["rcp", "ckc"])));
        assert!(out.groups().contains(&set(&log, &["rcp", "ckt"])));
        // All candidates satisfy the constraint.
        for g in out.groups() {
            assert!(cs.holds(g, &ctx));
        }
    }

    #[test]
    fn avoids_distant_unconnected_pairs() {
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1;");
        let out = dfg_candidates(&ctx, &cs, None, Budget::UNLIMITED, &mut NoObserver);
        // {ckt, inf} are both clerk steps but never adjacent in the DFG; the
        // path-based search cannot produce that exact pair as a group.
        assert!(!out.groups().contains(&set(&log, &["ckt", "inf"])));
    }

    #[test]
    fn violating_paths_are_not_expanded_in_anti_monotonic_mode() {
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        // acc/inf mix roles → the pair violates; no supergroup of it may appear.
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1;");
        assert_eq!(cs.mode(), CheckingMode::AntiMonotonic);
        let out = dfg_candidates(&ctx, &cs, None, Budget::UNLIMITED, &mut NoObserver);
        let bad = set(&log, &["acc", "inf"]);
        for g in out.groups() {
            assert!(!bad.is_subset(g), "found supergroup of a violating pair: {g:?}");
        }
    }

    #[test]
    fn beam_restricts_and_is_subset_of_unbounded() {
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1;");
        let unbounded = dfg_candidates(&ctx, &cs, None, Budget::UNLIMITED, &mut NoObserver);
        let narrow = dfg_candidates(
            &ctx,
            &cs,
            Some(BeamWidth::Fixed(3)),
            Budget::UNLIMITED,
            &mut NoObserver,
        );
        assert!(narrow.len() <= unbounded.len());
        for g in narrow.groups() {
            assert!(unbounded.groups().contains(g), "beam invented a candidate");
        }
        // Even a width-1 beam keeps producing *valid* candidates.
        let tiny = dfg_candidates(
            &ctx,
            &cs,
            Some(BeamWidth::Fixed(1)),
            Budget::UNLIMITED,
            &mut NoObserver,
        );
        for g in tiny.groups() {
            assert!(cs.holds(g, &ctx));
        }
    }

    #[test]
    fn observer_sees_iterations() {
        struct Collect {
            iterations: Vec<(usize, usize)>,
        }
        impl IterationObserver for Collect {
            fn iteration(&mut self, it: usize, examined: &[(Path, bool)]) {
                self.iterations.push((it, examined.len()));
            }
        }
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1;");
        let mut obs = Collect { iterations: vec![] };
        dfg_candidates(&ctx, &cs, None, Budget::UNLIMITED, &mut obs);
        assert!(!obs.iterations.is_empty());
        // Iteration 1 examines all 8 singleton paths.
        assert_eq!(obs.iterations[0], (1, 8));
    }

    #[test]
    fn budget_degrades_gracefully() {
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "");
        let out = dfg_candidates(&ctx, &cs, None, Budget::max_checks(4), &mut NoObserver);
        assert!(out.stats.budget_exhausted);
        assert!(out.len() <= 4);
    }

    #[test]
    fn huge_check_budget_does_not_overflow() {
        // The frontier cap multiplies the remaining budget by 4; a budget
        // near usize::MAX must saturate, not overflow.
        let mut b = LogBuilder::new();
        b.trace("t").event("a").unwrap().event("b").unwrap().event("c").unwrap().done();
        let log = b.build();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "");
        let huge = dfg_candidates(&ctx, &cs, None, Budget::max_checks(usize::MAX), &mut NoObserver);
        let unlimited = dfg_candidates(&ctx, &cs, None, Budget::UNLIMITED, &mut NoObserver);
        assert_eq!(huge.groups(), unlimited.groups());
        assert_eq!(huge.stats, unlimited.stats);
    }

    #[test]
    fn beam_distances_stay_on_the_result() {
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1;");
        let out = dfg_candidates(&ctx, &cs, None, Budget::UNLIMITED, &mut NoObserver);
        let memo = out.distances().expect("the beam sort's memo");
        assert_eq!(memo.segmenter(), cs.segmenter());
        // Every candidate sat on a sorted frontier, so it was scored.
        for g in out.groups() {
            let d = memo.get(g).expect("candidate scored in Step 1");
            assert_eq!(d.to_bits(), crate::group_distance(&ctx, g, cs.segmenter()).to_bits());
        }
        // The early return on an exhausted budget keeps the memo too.
        let cut = dfg_candidates(&ctx, &cs, None, Budget::max_checks(4), &mut NoObserver);
        assert!(cut.stats.budget_exhausted);
        assert!(cut.distances().is_some_and(|m| !m.is_empty()));
    }

    #[test]
    fn subset_of_exhaustive() {
        // DFG candidates ⊆ exhaustive candidates (paths are a restriction).
        let log = role_log();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1;");
        let exh =
            crate::candidates::exhaustive::exhaustive_candidates(&ctx, &cs, Budget::UNLIMITED);
        let dfg = dfg_candidates(&ctx, &cs, None, Budget::UNLIMITED, &mut NoObserver);
        for g in dfg.groups() {
            assert!(exh.groups().contains(g), "{g:?} not in exhaustive set");
        }
    }
}
