//! The event log and its builder.

use crate::classes::{ClassId, ClassRegistry, ClassSet};
use crate::error::Result;
use crate::event::Event;
use crate::interner::{Interner, Symbol};
use crate::trace::Trace;
use crate::value::AttributeValue;

/// Standard XES attribute keys, interned eagerly into every log.
#[derive(Debug, Clone, Copy)]
pub struct StdKeys {
    /// `concept:name` — activity / case name.
    pub concept_name: Symbol,
    /// `time:timestamp` — event completion time.
    pub timestamp: Symbol,
    /// `org:role` — executing role.
    pub role: Symbol,
    /// `org:resource` — executing resource.
    pub resource: Symbol,
    /// `lifecycle:transition` — start/complete marker.
    pub lifecycle: Symbol,
}

/// An event log `L` (§III-A): a collection of traces over a shared class
/// registry and interner. Immutable once built; construct via [`LogBuilder`].
#[derive(Debug, Clone)]
pub struct EventLog {
    interner: Interner,
    classes: ClassRegistry,
    traces: Vec<Trace>,
    trace_class_sets: Vec<ClassSet>,
    attributes: Vec<(Symbol, AttributeValue)>,
    std_keys: StdKeys,
}

impl EventLog {
    /// The per-log string interner.
    #[inline]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Resolves an interned symbol.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// The class registry (`C_L` plus metadata).
    #[inline]
    pub fn classes(&self) -> &ClassRegistry {
        &self.classes
    }

    /// Number of distinct event classes, `|C_L|`.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The traces of the log.
    #[inline]
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Cached per-trace class sets (used by co-occurrence pruning).
    #[inline]
    pub fn trace_class_sets(&self) -> &[ClassSet] {
        &self.trace_class_sets
    }

    /// Log-level attributes.
    pub fn attributes(&self) -> &[(Symbol, AttributeValue)] {
        &self.attributes
    }

    /// Symbols of the standard XES keys.
    #[inline]
    pub fn std_keys(&self) -> StdKeys {
        self.std_keys
    }

    /// Looks up an attribute key by name without interning.
    pub fn key(&self, name: &str) -> Option<Symbol> {
        self.interner.get(name)
    }

    /// The name of an event class.
    pub fn class_name(&self, id: ClassId) -> &str {
        self.interner.resolve(self.classes.info(id).name)
    }

    /// Looks up a class id by its name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.interner.get(name).and_then(|sym| self.classes.get(sym))
    }

    /// Total number of events, `Σ_σ |σ|`.
    pub fn num_events(&self) -> usize {
        self.traces.iter().map(Trace::len).sum()
    }

    /// Whether at least one trace contains every class of `group`
    /// (`occurs(g, L)`, Algorithm 1 line 13), by scanning every trace's
    /// class bitmap. Hot paths with an index at hand use the
    /// postings-intersection [`crate::LogIndex::occurs`] instead; this scan
    /// stays as its oracle.
    pub fn occurs(&self, group: &ClassSet) -> bool {
        self.trace_class_sets.iter().any(|cs| group.is_subset(cs))
    }

    /// Renders a trace's class sequence for debugging and examples.
    pub fn format_trace(&self, trace: &Trace) -> String {
        let names: Vec<&str> = trace.events().iter().map(|e| self.class_name(e.class())).collect();
        format!("⟨{}⟩", names.join(", "))
    }

    /// Renders a group as `{a, b, c}` using class names.
    pub fn format_group(&self, group: &ClassSet) -> String {
        let mut names: Vec<&str> = group.iter().map(|c| self.class_name(c)).collect();
        names.sort_unstable();
        format!("{{{}}}", names.join(", "))
    }
}

/// Builder for [`EventLog`]. Interns all strings and assigns dense class ids.
#[derive(Debug)]
pub struct LogBuilder {
    interner: Interner,
    classes: ClassRegistry,
    traces: Vec<Trace>,
    attributes: Vec<(Symbol, AttributeValue)>,
    std_keys: StdKeys,
}

impl Default for LogBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl LogBuilder {
    /// Creates an empty builder with the standard XES keys pre-interned.
    pub fn new() -> Self {
        let mut interner = Interner::new();
        let std_keys = StdKeys {
            concept_name: interner.intern("concept:name"),
            timestamp: interner.intern("time:timestamp"),
            role: interner.intern("org:role"),
            resource: interner.intern("org:resource"),
            lifecycle: interner.intern("lifecycle:transition"),
        };
        LogBuilder {
            interner,
            classes: ClassRegistry::new(),
            traces: Vec::new(),
            attributes: Vec::new(),
            std_keys,
        }
    }

    /// Interns a string (exposed for writers that need symbols up front).
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Adds a log-level string attribute.
    pub fn log_attr_str(&mut self, key: &str, value: &str) -> &mut Self {
        let k = self.interner.intern(key);
        let v = AttributeValue::Str(self.interner.intern(value));
        self.attributes.push((k, v));
        self
    }

    /// Adds a log-level attribute with an already-typed value.
    pub fn log_attr(&mut self, key: &str, value: AttributeValue) -> &mut Self {
        let k = self.interner.intern(key);
        self.attributes.push((k, value));
        self
    }

    /// Registers (or fetches) the class named `name`.
    pub fn class(&mut self, name: &str) -> Result<ClassId> {
        let sym = self.interner.intern(name);
        self.classes.get_or_insert(sym)
    }

    /// Attaches a class-level string attribute (e.g. the originating system
    /// of the paper's case study) to class `name`.
    pub fn class_attr_str(&mut self, class: &str, key: &str, value: &str) -> Result<&mut Self> {
        let id = self.class(class)?;
        let k = self.interner.intern(key);
        let v = AttributeValue::Str(self.interner.intern(value));
        let info = self.classes.info_mut(id);
        if let Some(slot) = info.attributes.iter_mut().find(|(ek, _)| *ek == k) {
            slot.1 = v;
        } else {
            info.attributes.push((k, v));
        }
        Ok(self)
    }

    /// Starts a new trace with the given case id (stored as `concept:name`).
    pub fn trace(&mut self, case_id: &str) -> TraceBuilder<'_> {
        let key = self.std_keys.concept_name;
        let val = AttributeValue::Str(self.interner.intern(case_id));
        TraceBuilder { log: self, attributes: vec![(key, val)], events: Vec::new() }
    }

    /// Starts a new trace with no pre-set attributes (used by the XES
    /// reader, which parses the case id like any other attribute).
    pub fn trace_raw(&mut self) -> TraceBuilder<'_> {
        TraceBuilder { log: self, attributes: Vec::new(), events: Vec::new() }
    }

    /// Appends a trace already expressed in **this builder's interner**:
    /// case attributes plus events given as `(class-name symbol, attrs)`.
    /// Classes are registered (or fetched) in event order. This is the
    /// low-level sink shared by [`LogBuilder::merge_fragment`] and the
    /// chunked CSV importer.
    pub fn push_trace_symbols(
        &mut self,
        attributes: Vec<(Symbol, AttributeValue)>,
        events: Vec<(Symbol, Vec<(Symbol, AttributeValue)>)>,
    ) -> Result<()> {
        let mut out = Vec::with_capacity(events.len());
        for (class_name, attrs) in events {
            let class = self.classes.get_or_insert(class_name)?;
            out.push(Event::new(class, attrs));
        }
        self.traces.push(Trace::new(attributes, out));
        Ok(())
    }

    /// Interns every string of `other` into this builder's interner (in
    /// `other`'s symbol order) and returns the remap table; see
    /// [`Interner::merge_from`].
    pub fn merge_interner(&mut self, other: &Interner) -> Vec<Symbol> {
        self.interner.merge_from(other)
    }

    /// Merges a chunk-parsed [`LogFragment`] into this builder: the
    /// fragment's thread-local interner is folded into the builder's (one
    /// intern per *distinct* string), every symbol is remapped through the
    /// resulting table, and the fragment's traces are appended in order.
    ///
    /// Merging fragments in document order reproduces, bit for bit, the
    /// symbol numbering and class-id assignment of a serial document-order
    /// parse — regardless of how the document was chunked or how many
    /// workers parsed the chunks.
    pub fn merge_fragment(&mut self, fragment: LogFragment) -> Result<()> {
        let map = self.merge_interner(&fragment.interner);
        for trace in fragment.traces {
            let attributes =
                trace.attributes.into_iter().map(|(k, v)| remap_attr(&map, k, v)).collect();
            let events = trace
                .events
                .into_iter()
                .map(|(class, attrs)| {
                    let attrs = attrs.into_iter().map(|(k, v)| remap_attr(&map, k, v)).collect();
                    (map[class.index()], attrs)
                })
                .collect();
            self.push_trace_symbols(attributes, events)?;
        }
        Ok(())
    }

    /// Takes the traces accumulated so far out of the builder, leaving the
    /// interner, class registry and log attributes in place.
    ///
    /// This is the spill primitive of the streaming store: the store
    /// writer merges fragments into a real builder (so symbol numbering
    /// and class-id assignment stay bit-identical to the in-memory route)
    /// and drains the materialized traces to disk after every batch,
    /// keeping the builder's memory bounded by one batch.
    pub fn drain_traces(&mut self) -> Vec<Trace> {
        std::mem::take(&mut self.traces)
    }

    /// Number of traces currently buffered in the builder.
    pub fn num_buffered_traces(&self) -> usize {
        self.traces.len()
    }

    /// Read access to the builder's interner (the store writer persists
    /// the string table in symbol order from here).
    pub(crate) fn interner_ref(&self) -> &Interner {
        &self.interner
    }

    /// Read access to the registered classes.
    pub(crate) fn classes_ref(&self) -> &ClassRegistry {
        &self.classes
    }

    /// Read access to the log-level attributes.
    pub(crate) fn attributes_ref(&self) -> &[(Symbol, AttributeValue)] {
        &self.attributes
    }

    /// Mutable access to the class registry (the store loader re-registers
    /// classes in stored id order).
    pub(crate) fn classes_mut(&mut self) -> &mut ClassRegistry {
        &mut self.classes
    }

    /// Appends a log-level attribute whose symbols already live in this
    /// builder's interner.
    pub(crate) fn push_log_attr_raw(&mut self, key: Symbol, value: AttributeValue) {
        self.attributes.push((key, value));
    }

    /// Appends an already-constructed trace whose symbols and class ids
    /// belong to this builder.
    pub(crate) fn push_raw_trace(&mut self, trace: Trace) {
        self.traces.push(trace);
    }

    /// Finishes the log.
    pub fn build(self) -> EventLog {
        let trace_class_sets = self.traces.iter().map(Trace::class_set).collect();
        self.build_inner(trace_class_sets)
    }

    /// Builds the log with caller-supplied per-trace class bitmaps instead
    /// of rescanning every event. The caller guarantees `sets[i]` equals
    /// `traces[i].class_set()` — Step-3 abstraction maintains the bitmaps
    /// during the index splice (see
    /// [`crate::IndexSplicer::finish_parts`]), so the rewritten log's
    /// metadata comes for free. Debug builds verify the claim against the
    /// scan.
    ///
    /// # Panics
    /// If `sets.len()` differs from the number of traces.
    pub fn build_with_trace_class_sets(self, sets: Vec<ClassSet>) -> EventLog {
        assert_eq!(sets.len(), self.traces.len(), "one class set per trace required");
        debug_assert!(
            self.traces.iter().zip(&sets).all(|(t, s)| t.class_set() == *s),
            "supplied trace class sets diverge from the traces"
        );
        self.build_inner(sets)
    }

    fn build_inner(self, trace_class_sets: Vec<ClassSet>) -> EventLog {
        EventLog {
            interner: self.interner,
            classes: self.classes,
            traces: self.traces,
            trace_class_sets,
            attributes: self.attributes,
            std_keys: self.std_keys,
        }
    }
}

/// Remaps one `(key, value)` attribute pair from a fragment's local symbol
/// space through `map` into the merged builder's symbol space.
pub fn remap_attr(map: &[Symbol], key: Symbol, value: AttributeValue) -> (Symbol, AttributeValue) {
    let value = match value {
        AttributeValue::Str(s) => AttributeValue::Str(map[s.index()]),
        other => other,
    };
    (map[key.index()], value)
}

/// One chunk of parsed log content, expressed against its own thread-local
/// [`Interner`]. Chunk workers (XES trace chunks, CSV row chunks) fill a
/// fragment each; [`LogBuilder::merge_fragment`] folds them into the final
/// log in deterministic document order.
#[derive(Debug, Default)]
pub struct LogFragment {
    interner: Interner,
    traces: Vec<FragmentTrace>,
}

/// One trace inside a [`LogFragment`], in fragment-local symbols.
#[derive(Debug)]
pub struct FragmentTrace {
    /// Case-level attributes in document order.
    pub attributes: Vec<(Symbol, AttributeValue)>,
    /// Events as `(class-name symbol, attributes)` in document order.
    pub events: Vec<(Symbol, Vec<(Symbol, AttributeValue)>)>,
}

impl LogFragment {
    /// Creates an empty fragment with a fresh local interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a string in the fragment's local interner.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Appends a trace to the fragment.
    pub fn push_trace(&mut self, trace: FragmentTrace) {
        self.traces.push(trace);
    }
}

/// Builder for one trace; finish with [`TraceBuilder::done`].
#[derive(Debug)]
pub struct TraceBuilder<'a> {
    log: &'a mut LogBuilder,
    attributes: Vec<(Symbol, AttributeValue)>,
    events: Vec<Event>,
}

impl TraceBuilder<'_> {
    /// Adds a case-level string attribute.
    pub fn attr_str(mut self, key: &str, value: &str) -> Self {
        let k = self.log.interner.intern(key);
        let v = AttributeValue::Str(self.log.interner.intern(value));
        self.attributes.push((k, v));
        self
    }

    /// Adds a case-level attribute with a pre-typed value. Any `Str` symbol
    /// must come from this builder's interner (see [`TraceBuilder::intern`]).
    pub fn attr(mut self, key: &str, value: AttributeValue) -> Self {
        let k = self.log.interner.intern(key);
        self.attributes.push((k, value));
        self
    }

    /// Interns a string in the owning log's interner.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.log.interner.intern(s)
    }

    /// Registers (or fetches) the class named `name` in the owning log,
    /// returning the id a subsequent [`TraceBuilder::event_with`] for that
    /// name will use. Incremental index maintenance needs the id *while*
    /// emitting events (see [`crate::IndexSplicer`]); registration order —
    /// and therefore id assignment — is unchanged, because the event
    /// emitted right after registers the same class anyway.
    pub fn class(&mut self, name: &str) -> Result<ClassId> {
        self.log.class(name)
    }

    /// Appends an event of class `class` with no attributes.
    pub fn event(self, class: &str) -> Result<Self> {
        self.event_with(class, |_| {})
    }

    /// Appends an event of class `class`, configuring attributes in `f`.
    pub fn event_with(
        mut self,
        class: &str,
        f: impl FnOnce(&mut AttrsBuilder<'_>),
    ) -> Result<Self> {
        let id = self.log.class(class)?;
        let mut attrs = AttrsBuilder { interner: &mut self.log.interner, out: Vec::new() };
        f(&mut attrs);
        self.events.push(Event::new(id, attrs.out));
        Ok(self)
    }

    /// Appends an already-constructed event (classes/symbols must belong to
    /// this builder's interner).
    pub fn push_event(mut self, event: Event) -> Self {
        self.events.push(event);
        self
    }

    /// Commits the trace to the log.
    pub fn done(self) {
        self.log.traces.push(Trace::new(self.attributes, self.events));
    }
}

/// Typed attribute construction for one event.
#[derive(Debug)]
pub struct AttrsBuilder<'a> {
    interner: &'a mut Interner,
    out: Vec<(Symbol, AttributeValue)>,
}

impl AttrsBuilder<'_> {
    /// String attribute.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let k = self.interner.intern(key);
        let v = AttributeValue::Str(self.interner.intern(value));
        self.out.push((k, v));
        self
    }

    /// Integer attribute.
    pub fn int(&mut self, key: &str, value: i64) -> &mut Self {
        let k = self.interner.intern(key);
        self.out.push((k, AttributeValue::Int(value)));
        self
    }

    /// Float attribute.
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        let k = self.interner.intern(key);
        self.out.push((k, AttributeValue::Float(value)));
        self
    }

    /// Boolean attribute.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        let k = self.interner.intern(key);
        self.out.push((k, AttributeValue::Bool(value)));
        self
    }

    /// Timestamp attribute (epoch milliseconds).
    pub fn timestamp(&mut self, key: &str, millis: i64) -> &mut Self {
        let k = self.interner.intern(key);
        self.out.push((k, AttributeValue::Timestamp(millis)));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_log() -> EventLog {
        let mut b = LogBuilder::new();
        b.log_attr_str("concept:name", "toy");
        b.trace("c1")
            .event_with("a", |e| {
                e.str("org:role", "clerk").int("cost", 5);
            })
            .unwrap()
            .event("b")
            .unwrap()
            .done();
        b.trace("c2").event("a").unwrap().event("c").unwrap().done();
        b.build()
    }

    #[test]
    fn builder_produces_consistent_log() {
        let log = toy_log();
        assert_eq!(log.num_classes(), 3);
        assert_eq!(log.traces().len(), 2);
        assert_eq!(log.num_events(), 4);
        let a = log.class_by_name("a").unwrap();
        assert_eq!(log.class_name(a), "a");
        assert!(log.class_by_name("zzz").is_none());
    }

    #[test]
    fn occurs_checks_co_occurrence() {
        let log = toy_log();
        let a = log.class_by_name("a").unwrap();
        let b = log.class_by_name("b").unwrap();
        let c = log.class_by_name("c").unwrap();
        let ab: ClassSet = [a, b].into_iter().collect();
        let bc: ClassSet = [b, c].into_iter().collect();
        assert!(log.occurs(&ab));
        assert!(!log.occurs(&bc), "b and c never co-occur in one trace");
    }

    #[test]
    fn event_attributes_are_interned() {
        let log = toy_log();
        let role_key = log.std_keys().role;
        let first = &log.traces()[0].events()[0];
        let role = first.attribute(role_key).unwrap().as_symbol().unwrap();
        assert_eq!(log.resolve(role), "clerk");
        let cost_key = log.key("cost").unwrap();
        assert_eq!(first.attribute(cost_key), Some(&AttributeValue::Int(5)));
    }

    #[test]
    fn format_helpers() {
        let log = toy_log();
        let t = &log.traces()[0];
        assert_eq!(log.format_trace(t), "⟨a, b⟩");
        let g: ClassSet = [log.class_by_name("b").unwrap(), log.class_by_name("a").unwrap()]
            .into_iter()
            .collect();
        assert_eq!(log.format_group(&g), "{a, b}");
    }

    #[test]
    fn merge_fragment_matches_direct_building() {
        // Build the same two-trace log once directly and once via a
        // fragment; symbol numbering and class ids must be identical.
        let build_direct = || {
            let mut b = LogBuilder::new();
            b.trace("c1")
                .event_with("a", |e| {
                    e.str("org:role", "clerk").int("cost", 5);
                })
                .unwrap()
                .event("b")
                .unwrap()
                .done();
            b.trace("c2").event("a").unwrap().done();
            b.build()
        };
        let direct = build_direct();

        let mut frag = LogFragment::new();
        let concept = frag.intern("concept:name");
        let c1 = frag.intern("c1");
        let a = frag.intern("a");
        let role_k = frag.intern("org:role");
        let clerk = frag.intern("clerk");
        let cost_k = frag.intern("cost");
        let b_cls = frag.intern("b");
        let c2 = frag.intern("c2");
        frag.push_trace(FragmentTrace {
            attributes: vec![(concept, AttributeValue::Str(c1))],
            events: vec![
                (a, vec![(role_k, AttributeValue::Str(clerk)), (cost_k, AttributeValue::Int(5))]),
                (b_cls, vec![]),
            ],
        });
        frag.push_trace(FragmentTrace {
            attributes: vec![(concept, AttributeValue::Str(c2))],
            events: vec![(a, vec![])],
        });
        let mut builder = LogBuilder::new();
        builder.merge_fragment(frag).unwrap();
        let merged = builder.build();

        assert_eq!(merged.traces(), direct.traces());
        assert_eq!(merged.num_classes(), direct.num_classes());
        let merged_syms: Vec<_> =
            merged.interner().iter().map(|(s, w)| (s, w.to_string())).collect();
        let direct_syms: Vec<_> =
            direct.interner().iter().map(|(s, w)| (s, w.to_string())).collect();
        assert_eq!(merged_syms, direct_syms);
    }

    #[test]
    fn parsed_event_attributes_are_allocated_at_their_final_size() {
        // `Event::new` boxes each attribute vector; any spare capacity is
        // shrunk away by a `realloc` that leaves the freed tail stranded
        // next to the event. An in-place `collect` of the parsed
        // attributes would reuse the larger scratch buffer of raw
        // attributes (capacity 8, 8, 16 and 32 here), so every event
        // would pay for one.
        let chunk = br#"<trace>
          <event><string key="concept:name" value="a"/></event>
          <event>
            <string key="concept:name" value="b"/>
            <int key="cost" value="-3"/>
            <float key="effort" value="0.5"/>
            <boolean key="rework" value="true"/>
          </event>
          <event>
            <string key="concept:name" value="c"/>
            <date key="time:timestamp" value="2021-03-01T08:00:00.000Z"/>
            <string key="org:role" value="clerk"/>
            <string key="org:resource" value="r1"/>
            <int key="cost" value="7"/>
          </event>
          <event>
            <string key="concept:name" value="d"/>
            <date key="time:timestamp" value="2021-03-01T09:00:00.000Z"/>
            <string key="org:role" value="manager"/>
            <string key="org:resource" value="r2"/>
            <string key="lifecycle:transition" value="complete"/>
            <int key="cost" value="1"/>
            <float key="effort" value="1.25"/>
            <boolean key="rework" value="false"/>
            <id key="ref" value="x-9"/>
          </event>
        </trace>"#;
        let mut frag = LogFragment::new();
        crate::xes::reader::parse_trace_into(&mut frag, chunk).unwrap();
        let events = &frag.traces[0].events;
        let lens: Vec<usize> = events.iter().map(|(_, attrs)| attrs.len()).collect();
        assert_eq!(lens, [1, 4, 5, 9]);
        for (class, attrs) in events {
            assert_eq!(
                attrs.capacity(),
                attrs.len(),
                "event {:?} carries spare attribute capacity",
                frag.interner.resolve(*class)
            );
        }
    }

    #[test]
    fn class_attr_overwrites() {
        let mut b = LogBuilder::new();
        b.class_attr_str("a", "system", "X").unwrap();
        b.class_attr_str("a", "system", "Y").unwrap();
        let log = b.build();
        let a = log.class_by_name("a").unwrap();
        let key = log.key("system").unwrap();
        let v = log.classes().info(a).attribute(key).unwrap();
        assert_eq!(log.resolve(v.as_symbol().unwrap()), "Y");
    }
}
