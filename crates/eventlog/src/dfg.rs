//! Directly-follows graphs.
//!
//! The DFG of a log (§III-A) has the event classes as vertices and an edge
//! `a → b` iff some trace contains an event of class `a` immediately
//! followed by one of class `b`. Edge and node frequencies are kept because
//! the discovery substrate and the spectral baseline weight by them.

use crate::classes::{ClassId, ClassSet};
use crate::index::LogIndex;
use crate::log::EventLog;

/// A frequency-annotated directly-follows graph over `|C_L|` classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfg {
    n: usize,
    /// Row-major `n × n` matrix of directly-follows counts.
    counts: Vec<u64>,
    /// Number of occurrences per class.
    class_counts: Vec<u64>,
    /// How often each class starts a trace.
    start_counts: Vec<u64>,
    /// How often each class ends a trace.
    end_counts: Vec<u64>,
}

impl Dfg {
    /// Builds the DFG of `log`.
    pub fn from_log(log: &EventLog) -> Dfg {
        let n = log.num_classes();
        let mut dfg = Dfg {
            n,
            counts: vec![0; n * n],
            class_counts: vec![0; n],
            start_counts: vec![0; n],
            end_counts: vec![0; n],
        };
        for trace in log.traces() {
            let events = trace.events();
            if let Some(first) = events.first() {
                dfg.start_counts[first.class().index()] += 1;
            }
            if let Some(last) = events.last() {
                dfg.end_counts[last.class().index()] += 1;
            }
            for e in events {
                dfg.class_counts[e.class().index()] += 1;
            }
            for pair in events.windows(2) {
                let (a, b) = (pair[0].class().index(), pair[1].class().index());
                dfg.counts[a * n + b] += 1;
            }
        }
        dfg
    }

    /// Builds the DFG from `log`'s [`LogIndex`] postings instead of
    /// rescanning the traces, bit-identical to [`Dfg::from_log`] (asserted
    /// by the tests below).
    ///
    /// The postings already carry every `(trace, position, class)` triple,
    /// so the class sequence of each trace is reconstructed by scattering
    /// class ids into a dense per-log array — one pass over the postings
    /// plus one pass over that array, never touching an event struct or its
    /// attribute vector. On the Step-1 hot path (Algorithms 2 and 3 both
    /// build a DFG per run) this replaces the cache-unfriendly event walk
    /// of [`Dfg::from_log`]; `bench_candidates`'s `dfg_build` group
    /// compares the two.
    ///
    /// `index` must have been built from `log`.
    pub fn from_index(log: &EventLog, index: &LogIndex) -> Dfg {
        let n = log.num_classes();
        // Prefix-sum the trace lengths so every (trace, position) posting
        // maps to one slot of a flat class-sequence array.
        let traces = log.traces();
        let mut offsets = Vec::with_capacity(traces.len() + 1);
        let mut total = 0usize;
        for t in traces {
            offsets.push(total);
            total += t.len();
        }
        offsets.push(total);
        let mut seq = vec![0u16; total];
        let mut class_counts = vec![0u64; n];
        for (c, count) in class_counts.iter_mut().enumerate() {
            let id = ClassId(c as u16);
            *count = index.class_occurrences(id) as u64;
            for (trace, positions) in index.postings(id) {
                let base = offsets[trace as usize];
                for &p in positions {
                    seq[base + p as usize] = c as u16;
                }
            }
        }
        let mut dfg = Dfg {
            n,
            counts: vec![0; n * n],
            class_counts,
            start_counts: vec![0; n],
            end_counts: vec![0; n],
        };
        for t in 0..traces.len() {
            let classes = &seq[offsets[t]..offsets[t + 1]];
            if let Some(&first) = classes.first() {
                dfg.start_counts[first as usize] += 1;
            }
            if let Some(&last) = classes.last() {
                dfg.end_counts[last as usize] += 1;
            }
            for pair in classes.windows(2) {
                dfg.counts[pair[0] as usize * n + pair[1] as usize] += 1;
            }
        }
        dfg
    }

    /// Number of vertices (event classes).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Directly-follows count of the edge `a → b`.
    #[inline]
    pub fn count(&self, a: ClassId, b: ClassId) -> u64 {
        self.counts[a.index() * self.n + b.index()]
    }

    /// Whether `a >_L b` holds.
    #[inline]
    pub fn follows(&self, a: ClassId, b: ClassId) -> bool {
        self.count(a, b) > 0
    }

    /// Total occurrences of class `c` in the log.
    #[inline]
    pub fn class_count(&self, c: ClassId) -> u64 {
        self.class_counts[c.index()]
    }

    /// How often `c` starts a trace.
    pub fn start_count(&self, c: ClassId) -> u64 {
        self.start_counts[c.index()]
    }

    /// How often `c` ends a trace.
    pub fn end_count(&self, c: ClassId) -> u64 {
        self.end_counts[c.index()]
    }

    /// All vertices.
    pub fn nodes(&self) -> impl Iterator<Item = ClassId> {
        (0..self.n as u16).map(ClassId)
    }

    /// Direct successors of `a` (classes `b` with `a >_L b`).
    pub fn successors(&self, a: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        let row = a.index() * self.n;
        (0..self.n).filter(move |&j| self.counts[row + j] > 0).map(|j| ClassId(j as u16))
    }

    /// Direct predecessors of `a`.
    pub fn predecessors(&self, a: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        let col = a.index();
        (0..self.n).filter(move |&i| self.counts[i * self.n + col] > 0).map(|i| ClassId(i as u16))
    }

    /// All edges `(a, b, count)` with positive count.
    pub fn edges(&self) -> impl Iterator<Item = (ClassId, ClassId, u64)> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n).filter_map(move |j| {
                let c = self.counts[i * self.n + j];
                (c > 0).then_some((ClassId(i as u16), ClassId(j as u16), c))
            })
        })
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// The *preset* of a group: classes outside `group` with an edge into it
    /// (Algorithm 3, `DFG.pre(g)`).
    pub fn preset(&self, group: &ClassSet) -> ClassSet {
        let mut pre = ClassSet::new();
        for member in group.iter() {
            for p in self.predecessors(member) {
                if !group.contains(p) {
                    pre.insert(p);
                }
            }
        }
        pre
    }

    /// The *postset* of a group: classes outside `group` reachable by one
    /// edge from it (Algorithm 3, `DFG.post(g)`).
    pub fn postset(&self, group: &ClassSet) -> ClassSet {
        let mut post = ClassSet::new();
        for member in group.iter() {
            for s in self.successors(member) {
                if !group.contains(s) {
                    post.insert(s);
                }
            }
        }
        post
    }

    /// Whether two groups are *exclusive*: no DFG edge connects them in
    /// either direction (Algorithm 3, `exclusive(g_i, g_j)`).
    pub fn exclusive(&self, a: &ClassSet, b: &ClassSet) -> bool {
        for x in a.iter() {
            for y in b.iter() {
                if self.follows(x, y) || self.follows(y, x) {
                    return false;
                }
            }
        }
        true
    }

    /// Renders the graph in Graphviz DOT format with frequency labels.
    pub fn to_dot(&self, log: &EventLog) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph dfg {\n  rankdir=LR;\n  node [shape=box];\n");
        for c in self.nodes() {
            if self.class_count(c) > 0 {
                let _ = writeln!(
                    out,
                    "  \"{}\" [label=\"{}\\n{}\"];",
                    log.class_name(c),
                    log.class_name(c),
                    self.class_count(c)
                );
            }
        }
        for (a, b, cnt) in self.edges() {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}\"];",
                log.class_name(a),
                log.class_name(b),
                cnt
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn counts_and_follows() {
        let log = log_from(&[&["a", "b", "c"], &["a", "b", "b"]]);
        let dfg = Dfg::from_log(&log);
        let (a, b, c) = (
            log.class_by_name("a").unwrap(),
            log.class_by_name("b").unwrap(),
            log.class_by_name("c").unwrap(),
        );
        assert_eq!(dfg.count(a, b), 2);
        assert_eq!(dfg.count(b, c), 1);
        assert_eq!(dfg.count(b, b), 1);
        assert!(!dfg.follows(c, a));
        assert_eq!(dfg.class_count(b), 3);
        assert_eq!(dfg.start_count(a), 2);
        assert_eq!(dfg.end_count(c), 1);
        assert_eq!(dfg.end_count(b), 1);
        assert_eq!(dfg.num_edges(), 3);
    }

    #[test]
    fn successors_predecessors() {
        let log = log_from(&[&["a", "b"], &["a", "c"]]);
        let dfg = Dfg::from_log(&log);
        let a = log.class_by_name("a").unwrap();
        let succ: Vec<_> = dfg.successors(a).map(|c| log.class_name(c).to_string()).collect();
        assert_eq!(succ, vec!["b", "c"]);
        let b = log.class_by_name("b").unwrap();
        let pred: Vec<_> = dfg.predecessors(b).map(|c| log.class_name(c).to_string()).collect();
        assert_eq!(pred, vec!["a"]);
    }

    #[test]
    fn group_pre_post_and_exclusive() {
        // Running-example fragment: rcp -> {ckc|ckt} -> acc
        let log = log_from(&[&["rcp", "ckc", "acc"], &["rcp", "ckt", "acc"]]);
        let dfg = Dfg::from_log(&log);
        let ckc = log.class_by_name("ckc").unwrap();
        let ckt = log.class_by_name("ckt").unwrap();
        let rcp = log.class_by_name("rcp").unwrap();
        let acc = log.class_by_name("acc").unwrap();
        let checks: ClassSet = [ckc, ckt].into_iter().collect();
        assert_eq!(dfg.preset(&checks), ClassSet::singleton(rcp));
        assert_eq!(dfg.postset(&checks), ClassSet::singleton(acc));
        assert!(dfg.exclusive(&ClassSet::singleton(ckc), &ClassSet::singleton(ckt)));
        assert!(!dfg.exclusive(&ClassSet::singleton(rcp), &ClassSet::singleton(ckc)));
    }

    #[test]
    fn preset_excludes_internal_edges() {
        let log = log_from(&[&["a", "b", "c", "a"]]);
        let dfg = Dfg::from_log(&log);
        let a = log.class_by_name("a").unwrap();
        let b = log.class_by_name("b").unwrap();
        let c = log.class_by_name("c").unwrap();
        let ab: ClassSet = [a, b].into_iter().collect();
        // c -> a is the only incoming edge from outside {a, b}.
        assert_eq!(dfg.preset(&ab), ClassSet::singleton(c));
        assert_eq!(dfg.postset(&ab), ClassSet::singleton(c));
    }

    #[test]
    fn from_index_matches_from_log() {
        let logs = [
            log_from(&[&["a", "b", "c"], &["a", "b", "b"]]),
            log_from(&[&["rcp", "ckc", "rej", "rcp", "ckt", "acc", "prio", "arv", "inf"]]),
            log_from(&[&["x"], &[], &["y", "x", "y", "y"]]),
            log_from(&[]),
        ];
        for log in &logs {
            let index = crate::index::LogIndex::build(log);
            assert_eq!(Dfg::from_index(log, &index), Dfg::from_log(log));
        }
    }

    #[test]
    fn from_index_on_spliced_index() {
        // The index handed out of an incremental splice must drive the
        // same DFG as a scan of the rewritten log.
        let log = log_from(&[&["a"], &["a"]]);
        let mut splicer = crate::index::IndexSplicer::new();
        let a = log.class_by_name("a").unwrap();
        splicer.begin_trace();
        splicer.push(a, 0);
        splicer.begin_trace();
        splicer.push(a, 0);
        let spliced = splicer.finish();
        assert_eq!(Dfg::from_index(&log, &spliced), Dfg::from_log(&log));
    }

    #[test]
    fn dot_rendering_mentions_all_nodes() {
        let log = log_from(&[&["a", "b"]]);
        let dfg = Dfg::from_log(&log);
        let dot = dfg.to_dot(&log);
        assert!(dot.contains("\"a\" -> \"b\""));
        assert!(dot.starts_with("digraph dfg {"));
    }
}
