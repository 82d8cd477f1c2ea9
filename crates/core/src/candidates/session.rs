//! Session-based segmentation as a candidate source.
//!
//! Event abstraction work on user-interaction and sensor logs (e.g.
//! de Leoni & Dündar, "Event-log abstraction using batch session
//! identification and clustering", arXiv:1903.03993) segments each trace
//! into *sessions* — bursts of low-level events separated by inactivity
//! gaps or delimited by a change of a context attribute — and treats each
//! session as one high-level activity execution. This module transplants
//! that idea into GECCO's candidate stage: the class set of every observed
//! session becomes a candidate group (deduplicated, then admitted only if
//! the user constraints hold), so Step 2 can weigh session-shaped groups
//! against the DFG- or exhaustively-derived ones.
//!
//! The source is deliberately *not* a [`super::CandidateStrategy`]
//! variant: a caller unions its output with another source's through
//! [`CandidateSet::union`] and hands the union to Step 2
//! ([`crate::select_optimal`]), as `examples/custom_pipeline.rs` does.

use super::CandidateSet;
use gecco_constraints::CompiledConstraintSet;
use gecco_eventlog::{ClassSet, EvalContext};
use std::collections::HashSet;

/// What ends a session between two consecutive events of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionBoundary {
    /// A new session starts when the `time:timestamp` gap between two
    /// consecutive events exceeds this many milliseconds. Events without a
    /// timestamp never open a boundary (conservative: they extend the
    /// current session).
    Gap {
        /// Maximum intra-session gap in milliseconds.
        max_gap_millis: i64,
    },
    /// A new session starts whenever the value of this event attribute
    /// changes between consecutive events (a present↔missing transition
    /// counts as a change). An attribute unknown to the log yields no
    /// boundaries — each trace is one session.
    AttributeWindow {
        /// The attribute key, e.g. `org:resource`.
        key: String,
    },
}

/// Configuration of [`session_candidates`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// The boundary rule splitting traces into sessions.
    pub boundary: SessionBoundary,
    /// Also offer every occurring class as a singleton candidate (on by
    /// default): sessions rarely cover all classes, and selection needs
    /// enough candidates for an exact cover.
    pub include_singletons: bool,
}

impl SessionConfig {
    /// Gap-based sessions with the given maximum intra-session gap.
    pub fn gap(max_gap_millis: i64) -> SessionConfig {
        SessionConfig {
            boundary: SessionBoundary::Gap { max_gap_millis },
            include_singletons: true,
        }
    }

    /// Attribute-window sessions over the given event attribute.
    pub fn attribute_window(key: &str) -> SessionConfig {
        SessionConfig {
            boundary: SessionBoundary::AttributeWindow { key: key.to_string() },
            include_singletons: true,
        }
    }

    /// Disables the singleton top-up.
    pub fn without_singletons(mut self) -> SessionConfig {
        self.include_singletons = false;
        self
    }
}

/// Computes session-derived candidate groups over the context's log.
///
/// Each trace is split into sessions by `config.boundary`; the class set
/// of every session is collected in first-appearance order, deduplicated,
/// optionally topped up with the occurring singletons, and each distinct
/// group is admitted iff `constraints.holds` — so the output composes with
/// any other [`CandidateSet`] under the same constraint set. The sweep is
/// deterministic: same log, same config, same candidates in the same
/// order.
pub fn session_candidates(
    ctx: &EvalContext<'_>,
    constraints: &CompiledConstraintSet,
    config: &SessionConfig,
) -> CandidateSet {
    let log = ctx.log();
    let ts_key = log.std_keys().timestamp;
    let attr_key = match &config.boundary {
        SessionBoundary::AttributeWindow { key } => log.key(key),
        SessionBoundary::Gap { .. } => None,
    };
    let mut ordered: Vec<ClassSet> = Vec::new();
    let mut seen: HashSet<ClassSet> = HashSet::new();
    for trace in log.traces() {
        let mut current = ClassSet::new();
        let mut prev: Option<&gecco_eventlog::Event> = None;
        for event in trace.events() {
            let boundary = prev.is_some_and(|p| match &config.boundary {
                SessionBoundary::Gap { max_gap_millis } => {
                    match (p.timestamp(ts_key), event.timestamp(ts_key)) {
                        // Saturating: a gap past the `i64` range still
                        // exceeds every bound instead of wrapping negative.
                        (Some(a), Some(b)) => b.saturating_sub(a) > *max_gap_millis,
                        _ => false,
                    }
                }
                SessionBoundary::AttributeWindow { .. } => {
                    let before = attr_key.and_then(|k| p.attribute(k));
                    let after = attr_key.and_then(|k| event.attribute(k));
                    before != after
                }
            });
            if boundary && !current.is_empty() {
                if seen.insert(current) {
                    ordered.push(current);
                }
                current = ClassSet::new();
            }
            current.insert(event.class());
            prev = Some(event);
        }
        if !current.is_empty() && seen.insert(current) {
            ordered.push(current);
        }
    }
    if config.include_singletons {
        for class in crate::grouping::occurring_classes(log).iter() {
            let singleton = ClassSet::singleton(class);
            if seen.insert(singleton) {
                ordered.push(singleton);
            }
        }
    }
    let mut out = CandidateSet::new();
    out.stats.iterations = 1;
    for group in ordered {
        out.stats.checked += 1;
        if constraints.holds(&group, ctx) {
            out.stats.satisfied += 1;
            out.insert(group);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecco_constraints::ConstraintSet;
    use gecco_eventlog::{EventLog, LogBuilder, LogIndex, Segmenter};

    /// Two traces of keyboard/mouse-style events with burst timestamps:
    /// ⟨open edit | save mail⟩ (gap after "edit") and ⟨open edit save⟩.
    fn burst_log() -> EventLog {
        let mut b = LogBuilder::new();
        let mut tb = b.trace("c1");
        for (cls, ts, role) in [
            ("open", 0, "alice"),
            ("edit", 100, "alice"),
            ("save", 10_000, "bob"),
            ("mail", 10_100, "bob"),
        ] {
            tb = tb
                .event_with(cls, |e| {
                    e.str("org:resource", role).timestamp("time:timestamp", ts);
                })
                .unwrap();
        }
        tb.done();
        let mut tb = b.trace("c2");
        for (cls, ts, role) in [("open", 0, "alice"), ("edit", 50, "alice"), ("save", 90, "alice")]
        {
            tb = tb
                .event_with(cls, |e| {
                    e.str("org:resource", role).timestamp("time:timestamp", ts);
                })
                .unwrap();
        }
        tb.done();
        b.build()
    }

    fn set(log: &EventLog, names: &[&str]) -> ClassSet {
        names.iter().map(|n| log.class_by_name(n).unwrap()).collect()
    }

    fn candidates(log: &EventLog, dsl: &str, config: &SessionConfig) -> CandidateSet {
        let index = LogIndex::build(log);
        let ctx = EvalContext::new(log, &index);
        let compiled =
            CompiledConstraintSet::compile(&ConstraintSet::parse(dsl).unwrap(), log).unwrap();
        session_candidates(&ctx, &compiled, config)
    }

    #[test]
    fn gap_boundary_splits_bursts() {
        let log = burst_log();
        let out = candidates(&log, "size(g) >= 1;", &SessionConfig::gap(1_000));
        // c1 splits after "edit" (gap 9 900 ms); c2 is one session.
        assert!(out.contains(&set(&log, &["open", "edit"])));
        assert!(out.contains(&set(&log, &["save", "mail"])));
        assert!(out.contains(&set(&log, &["open", "edit", "save"])));
        // Singleton top-up covers every occurring class.
        for c in ["open", "edit", "save", "mail"] {
            assert!(out.contains(&set(&log, &[c])), "missing singleton {c}");
        }
    }

    #[test]
    fn wide_gap_keeps_whole_traces() {
        let log = burst_log();
        let out =
            candidates(&log, "size(g) >= 1;", &SessionConfig::gap(i64::MAX).without_singletons());
        assert_eq!(out.len(), 2, "one session per trace: {:?}", out.groups());
        assert!(out.contains(&set(&log, &["open", "edit", "save", "mail"])));
        assert!(out.contains(&set(&log, &["open", "edit", "save"])));
    }

    #[test]
    fn attribute_window_splits_on_value_change() {
        let log = burst_log();
        let out = candidates(
            &log,
            "size(g) >= 1;",
            &SessionConfig::attribute_window("org:resource").without_singletons(),
        );
        // c1 splits where org:resource flips alice→bob.
        assert!(out.contains(&set(&log, &["open", "edit"])));
        assert!(out.contains(&set(&log, &["save", "mail"])));
        assert!(out.contains(&set(&log, &["open", "edit", "save"])));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn unknown_attribute_means_no_boundaries() {
        let log = burst_log();
        let out = candidates(
            &log,
            "size(g) >= 1;",
            &SessionConfig::attribute_window("no:such").without_singletons(),
        );
        assert_eq!(out.len(), 2, "each trace is one session");
    }

    #[test]
    fn constraints_filter_sessions() {
        let log = burst_log();
        let out = candidates(&log, "size(g) <= 2;", &SessionConfig::gap(1_000));
        assert!(out.contains(&set(&log, &["open", "edit"])));
        assert!(!out.contains(&set(&log, &["open", "edit", "save"])), "violates size bound");
        assert_eq!(out.stats.checked, out.stats.satisfied + 1, "exactly one group rejected");
    }

    #[test]
    fn deterministic_order_and_dedup() {
        let log = burst_log();
        let a = candidates(&log, "size(g) >= 1;", &SessionConfig::gap(1_000));
        let b = candidates(&log, "size(g) >= 1;", &SessionConfig::gap(1_000));
        assert_eq!(a.groups(), b.groups());
        let distinct: HashSet<_> = a.groups().iter().collect();
        assert_eq!(distinct.len(), a.len(), "no duplicates");
    }

    #[test]
    fn gap_past_the_i64_range_opens_a_session() {
        // `i64::MAX - i64::MIN` overflows: it must still read as a gap
        // wider than any bound, not panic or wrap to -1 ms.
        let mut b = LogBuilder::new();
        let mut tb = b.trace("c1");
        for (cls, ts) in [("start", i64::MIN), ("end", i64::MAX)] {
            tb = tb
                .event_with(cls, |e| {
                    e.timestamp("time:timestamp", ts);
                })
                .unwrap();
        }
        tb.done();
        let log = b.build();
        let out =
            candidates(&log, "size(g) >= 1;", &SessionConfig::gap(1_000).without_singletons());
        assert_eq!(out.groups(), &[set(&log, &["start"]), set(&log, &["end"])]);
    }

    /// DFG candidates unioned with session candidates, then selected and
    /// abstracted by the step functions: the union holds every session
    /// group, and the result is an exact cover whose spliced index equals
    /// a rebuild.
    #[test]
    fn session_and_dfg_sources_compose() {
        use crate::abstraction::{abstract_log, activity_names, AbstractionStrategy};
        use crate::candidates::{dfg, Budget};
        use crate::{select_optimal, DistanceOracle, SelectionOptions};
        let log = burst_log();
        let index = LogIndex::build(&log);
        let ctx = EvalContext::new(&log, &index);
        let compiled =
            CompiledConstraintSet::compile(&ConstraintSet::parse("size(g) >= 1;").unwrap(), &log)
                .unwrap();
        let mut pool =
            dfg::dfg_candidates(&ctx, &compiled, None, Budget::UNLIMITED, &mut dfg::NoObserver);
        let sessions = session_candidates(&ctx, &compiled, &SessionConfig::gap(1_000));
        let dfg_checked = pool.stats.checked;
        pool.union(&sessions);
        assert!(sessions.groups().iter().all(|g| pool.contains(g)), "session source joined");
        assert_eq!(pool.stats.checked, dfg_checked + sessions.stats.checked);
        let oracle = DistanceOracle::seeded(&ctx, Segmenter::RepeatSplit, pool.distances());
        let selection = select_optimal(
            &log,
            pool.groups(),
            &oracle,
            compiled.group_count_bounds(),
            SelectionOptions::default(),
        )
        .expect("singletons make the pool feasible");
        assert!(selection.grouping.is_exact_cover(&log));
        let names = activity_names(&log, &selection.grouping, None);
        let (abstracted, spliced) = abstract_log(
            &ctx,
            &selection.grouping,
            &names,
            AbstractionStrategy::Completion,
            Segmenter::RepeatSplit,
        );
        assert_eq!(spliced, LogIndex::build(&abstracted), "spliced index matches a rebuild");
    }
}
