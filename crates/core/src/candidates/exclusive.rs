//! Algorithm 3: merging exclusive behavioral alternatives.
//!
//! Exclusive event classes never co-occur in a trace, so the
//! `occurs(g, L)` pruning of Algorithms 1/2 — evaluated on the hot
//! expansion path via the postings-intersection
//! [`gecco_eventlog::LogIndex::occurs`] — deliberately skips groups
//! containing them. But when exclusive groups are *proper alternatives* —
//! identical presets and postsets in the DFG, like the two check variants
//! `ckc`/`ckt` of the running example (Fig. 6) — merging them reduces log
//! complexity without losing behavioral information. This pass extends the
//! candidate set with such merges, including combinations with shared
//! pre-/postsets, and with iteratively larger unions of three or more
//! alternatives.
//!
//! Only class-based constraints need re-checking for a merged group:
//! instances of an exclusive merge are exactly the instances of its parts,
//! so no instance-based constraint can become newly violated (§V-B).

use super::CandidateSet;
use gecco_constraints::CompiledConstraintSet;
use gecco_eventlog::{ClassSet, Dfg, EvalContext};
use std::collections::{HashMap, HashSet};

/// Runs Algorithm 3, extending `candidates` in place. Returns the number of
/// new candidates added.
pub fn extend_with_exclusive_candidates(
    ctx: &EvalContext<'_>,
    constraints: &CompiledConstraintSet,
    candidates: &mut CandidateSet,
) -> usize {
    let log = ctx.log();
    let dfg = Dfg::from_index(log, ctx.index());
    // Index the current candidates by (preset, postset). Computing the two
    // boundary sets walks every DFG edge per group, so fan the per-group
    // computation out over all cores (serial when parallelism is off).
    let snapshot: Vec<ClassSet> = candidates.groups().to_vec();
    let keys: Vec<(ClassSet, ClassSet)> =
        gecco_eventlog::parallel::par_map(&snapshot, 32, |g| (dfg.preset(g), dfg.postset(g)));
    let mut by_pre_post: HashMap<(ClassSet, ClassSet), Vec<ClassSet>> = HashMap::new();
    for (g, key) in snapshot.iter().zip(&keys) {
        by_pre_post.entry(*key).or_default().push(*g);
    }
    let mut added = 0usize;
    let mut seen: HashSet<ClassSet> = HashSet::new();
    for (g, key) in snapshot.iter().copied().zip(keys.iter().copied()) {
        if seen.contains(&g) {
            continue;
        }
        let mut equiv_groups: Vec<ClassSet> =
            by_pre_post.get(&key).cloned().unwrap_or_else(|| vec![g]);
        let mut pairs: Vec<(ClassSet, ClassSet)> = Vec::new();
        for (i, gi) in equiv_groups.iter().enumerate() {
            for gj in equiv_groups.iter().skip(i + 1) {
                pairs.push((*gi, *gj));
            }
        }
        while let Some((gi, gj)) = pairs.pop() {
            if gi.intersects(&gj) {
                continue;
            }
            let gij = gi.union(&gj);
            if !dfg.exclusive(&gi, &gj) || constraints.check_class(&gij, ctx).is_err() {
                continue;
            }
            if candidates.insert(gij) {
                added += 1;
            }
            // Combine the merge with its (shared) pre-/postset when those
            // combinations were already candidates for both parts.
            let pre = dfg.preset(&gi);
            let post = dfg.postset(&gi);
            let both = pre.union(&post);
            let combos: [ClassSet; 3] = [both, pre, post];
            for boundary in combos {
                if boundary.is_empty() {
                    continue;
                }
                let with_gi = boundary.union(&gi);
                let with_gj = boundary.union(&gj);
                if candidates.contains(&with_gi) && candidates.contains(&with_gj) {
                    let merged = boundary.union(&gij);
                    if constraints.check_class(&merged, ctx).is_ok() && candidates.insert(merged) {
                        added += 1;
                    }
                    break; // paper's if/else-if cascade: first applicable only
                }
            }
            // Larger unions: pair the merge with the remaining alternatives.
            for gk in &equiv_groups {
                if *gk != gi && *gk != gj && !gk.intersects(&gij) {
                    pairs.push((gij, *gk));
                }
            }
            equiv_groups.push(gij);
        }
        seen.extend(equiv_groups);
    }
    candidates.stats.exclusive_candidates += added;
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::exhaustive::exhaustive_candidates;
    use crate::candidates::Budget;
    use gecco_constraints::ConstraintSet;
    use gecco_eventlog::{EventLog, LogBuilder};

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

    fn set(log: &EventLog, names: &[&str]) -> ClassSet {
        names.iter().map(|n| log.class_by_name(n).unwrap()).collect()
    }

    fn compile(log: &EventLog, dsl: &str) -> CompiledConstraintSet {
        CompiledConstraintSet::compile(&ConstraintSet::parse(dsl).unwrap(), log).unwrap()
    }

    #[test]
    fn figure6_merges_proper_alternatives_only() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1;");
        // DFG-based candidates: {ckc, ckt} has no connecting path of length
        // 2 (no DFG edge between the alternatives), so it is absent before
        // the exclusive-merging pass.
        let mut cands = crate::candidates::dfg::dfg_candidates(
            &ctx,
            &cs,
            None,
            Budget::UNLIMITED,
            &mut crate::candidates::dfg::NoObserver,
        );
        assert!(!cands.groups().contains(&set(&log, &["ckc", "ckt"])));
        let added = extend_with_exclusive_candidates(&ctx, &cs, &mut cands);
        assert!(added > 0);
        // {ckc, ckt}: identical pre ({rcp}) and post ({acc, rej}) → merged.
        assert!(cands.groups().contains(&set(&log, &["ckc", "ckt"])));
        // {acc, rej}: post sets differ (rej loops back to rcp) → NOT merged.
        assert!(!cands.groups().contains(&set(&log, &["acc", "rej"])));
    }

    #[test]
    fn merge_with_preset_produces_winning_group() {
        // The paper: {rcp, ckc} and {rcp, ckt} in G ⟹ {rcp, ckc, ckt} added.
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "distinct(instance, \"org:role\") <= 1;");
        let mut cands = crate::candidates::dfg::dfg_candidates(
            &ctx,
            &cs,
            None,
            Budget::UNLIMITED,
            &mut crate::candidates::dfg::NoObserver,
        );
        extend_with_exclusive_candidates(&ctx, &cs, &mut cands);
        assert!(
            cands.groups().contains(&set(&log, &["rcp", "ckc", "ckt"])),
            "the optimal grouping's first group must be constructible"
        );
    }

    #[test]
    fn class_constraints_still_bind_merges() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "size(g) <= 1;");
        let mut cands = exhaustive_candidates(&ctx, &cs, Budget::UNLIMITED);
        let before = cands.len();
        let added = extend_with_exclusive_candidates(&ctx, &cs, &mut cands);
        assert_eq!(added, 0, "merges would violate size(g) <= 1");
        assert_eq!(cands.len(), before);
    }

    #[test]
    fn three_way_alternatives() {
        // Three exclusive variants with identical pre/post.
        let mut b = LogBuilder::new();
        for (i, variant) in ["v1", "v2", "v3"].iter().enumerate() {
            for r in 0..2 {
                b.trace(&format!("t{i}-{r}"))
                    .event("start")
                    .unwrap()
                    .event(variant)
                    .unwrap()
                    .event("end")
                    .unwrap()
                    .done();
            }
        }
        let log = b.build();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "");
        let mut cands = exhaustive_candidates(&ctx, &cs, Budget::UNLIMITED);
        extend_with_exclusive_candidates(&ctx, &cs, &mut cands);
        assert!(cands.groups().contains(&set(&log, &["v1", "v2"])));
        assert!(cands.groups().contains(&set(&log, &["v1", "v2", "v3"])), "iterative merging");
    }

    #[test]
    fn stats_track_added_candidates() {
        let log = running_example();
        let index = gecco_eventlog::LogIndex::build(&log);
        let ctx = gecco_eventlog::EvalContext::new(&log, &index);
        let cs = compile(&log, "");
        let mut cands = exhaustive_candidates(&ctx, &cs, Budget::UNLIMITED);
        let added = extend_with_exclusive_candidates(&ctx, &cs, &mut cands);
        assert_eq!(cands.stats.exclusive_candidates, added);
    }
}
