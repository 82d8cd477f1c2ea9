//! XES serialization of an [`EventLog`].

use crate::error::Result;
use crate::interner::Symbol;
use crate::log::EventLog;
use crate::time::push_iso8601;
use crate::value::AttributeValue;
use crate::xes::reader::CLASS_ATTR_KEY;
use crate::xes::xml::push_escaped;
use std::fmt::Write as _;

/// Indentation of the deepest attribute line (an event's, three levels
/// down); shallower lines take a prefix.
const PAD: &str = "      ";

/// Serializes `log` to an XES string.
pub fn write_string(log: &EventLog) -> String {
    let mut out = String::with_capacity(1024 + log.num_events() * 128);
    write_header(&mut out, log);
    write_traces(&mut out, log);
    write_footer(&mut out);
    out
}

/// Writes the XES prolog: declaration, extensions, classifier, log-level
/// attributes and the class-level attribute blocks. Streaming writers
/// emit this once (from the first chunk, whose builder registers every
/// class up front) and then [`write_traces`] per chunk.
pub fn write_header(out: &mut String, log: &EventLog) {
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<log xes.version=\"1.0\" xes.features=\"nested-attributes\">\n");
    out.push_str(
        "  <extension name=\"Concept\" prefix=\"concept\" uri=\"http://www.xes-standard.org/concept.xesext\"/>\n",
    );
    out.push_str(
        "  <extension name=\"Time\" prefix=\"time\" uri=\"http://www.xes-standard.org/time.xesext\"/>\n",
    );
    out.push_str(
        "  <extension name=\"Organizational\" prefix=\"org\" uri=\"http://www.xes-standard.org/org.xesext\"/>\n",
    );
    out.push_str("  <classifier name=\"Activity\" keys=\"concept:name\"/>\n");
    for (k, v) in log.attributes() {
        write_attr(out, log, 1, *k, v);
    }
    // Persist class-level attributes via the nested-attribute convention.
    for id in log.classes().ids() {
        let info = log.classes().info(id);
        if info.attributes.is_empty() {
            continue;
        }
        out.push_str("  <string key=\"");
        out.push_str(CLASS_ATTR_KEY);
        out.push_str("\" value=\"");
        push_escaped(out, log.resolve(info.name));
        out.push_str("\">\n");
        for (k, v) in &info.attributes {
            write_attr(out, log, 2, *k, v);
        }
        out.push_str("  </string>\n");
    }
}

/// Writes the `<trace>` elements of `log` (no prolog, no closing tag).
pub fn write_traces(out: &mut String, log: &EventLog) {
    for trace in log.traces() {
        out.push_str("  <trace>\n");
        for (k, v) in trace.attributes() {
            write_attr(out, log, 2, *k, v);
        }
        for event in trace.events() {
            out.push_str("    <event>\n");
            let class_name = log.class_name(event.class());
            let has_concept_name =
                event.attributes().iter().any(|(k, _)| *k == log.std_keys().concept_name);
            if !has_concept_name {
                out.push_str("      <string key=\"concept:name\" value=\"");
                push_escaped(out, class_name);
                out.push_str("\"/>\n");
            }
            for (k, v) in event.attributes() {
                write_attr(out, log, 3, *k, v);
            }
            out.push_str("    </event>\n");
        }
        out.push_str("  </trace>\n");
    }
}

/// Closes the XES document.
pub fn write_footer(out: &mut String) {
    out.push_str("</log>\n");
}

/// Serializes `log` to a file.
pub fn write_file(log: &EventLog, path: impl AsRef<std::path::Path>) -> Result<()> {
    std::fs::write(path, write_string(log))?;
    Ok(())
}

/// Appends one self-closing typed attribute element at nesting depth
/// `indent` (1–3).
fn write_attr(
    out: &mut String,
    log: &EventLog,
    indent: usize,
    key: Symbol,
    value: &AttributeValue,
) {
    let tag = match value {
        AttributeValue::Str(_) => "string",
        AttributeValue::Int(_) => "int",
        AttributeValue::Float(_) => "float",
        AttributeValue::Bool(_) => "boolean",
        AttributeValue::Timestamp(_) => "date",
    };
    out.push_str(&PAD[..2 * indent]);
    out.push('<');
    out.push_str(tag);
    out.push_str(" key=\"");
    push_escaped(out, log.resolve(key));
    out.push_str("\" value=\"");
    match value {
        AttributeValue::Str(s) => push_escaped(out, log.resolve(*s)),
        AttributeValue::Int(i) => {
            let _ = write!(out, "{i}");
        }
        AttributeValue::Float(f) => {
            let _ = write!(out, "{f}");
        }
        AttributeValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        AttributeValue::Timestamp(t) => push_iso8601(out, *t),
    }
    out.push_str("\"/>\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogBuilder;
    use crate::xes::reader::parse_str;

    fn sample_log() -> EventLog {
        let mut b = LogBuilder::new();
        b.log_attr_str("concept:name", "sample <log> & co");
        b.class_attr_str("a", "system", "S1").unwrap();
        b.trace("case-1")
            .event_with("a", |e| {
                e.str("org:role", "clerk")
                    .timestamp("time:timestamp", 1_485_938_415_250)
                    .int("cost", -3)
                    .float("effort", 1.25)
                    .bool("rework", true);
            })
            .unwrap()
            .event("b \"quoted\"")
            .unwrap()
            .done();
        b.trace("case-2").event("a").unwrap().done();
        b.build()
    }

    /// Every attribute type at every level, the five XML specials in keys,
    /// values, class names and log attributes, a class-attribute block,
    /// events with and without their own `concept:name`, and the float and
    /// date renderings that are easiest to change by accident.
    fn golden_log() -> EventLog {
        let mut b = LogBuilder::new();
        b.log_attr_str("concept:name", "golden <log> & \"co\" 'n'");
        b.log_attr("k&<>\"'", AttributeValue::Int(-42));
        b.log_attr("created", AttributeValue::Timestamp(-1));
        b.log_attr("ratio", AttributeValue::Float(0.1));
        b.log_attr("open", AttributeValue::Bool(false));
        b.class_attr_str("a<&>", "sys\"'", "S<1> & 'x'").unwrap();
        b.class_attr_str("a<&>", "owner", "O1").unwrap();
        b.trace("case <1> & \"q\"")
            .attr("priority", AttributeValue::Int(-7))
            .attr("weight", AttributeValue::Float(-2.5))
            .attr("opened", AttributeValue::Timestamp(0))
            .attr("urgent", AttributeValue::Bool(true))
            .event_with("a<&>", |e| {
                e.str("concept:name", "a<&>")
                    .str("org:role", "clerk & 'boss'")
                    .str("k<\"'>&", "v")
                    .timestamp("time:timestamp", 1_485_938_415_250)
                    .int("cost", -3)
                    .int("floor", i64::MIN)
                    .float("f_tenth", 0.1)
                    .float("f_neg", -2.5)
                    .float("f_tiny", 1e-7)
                    .float("f_huge", 1e21)
                    .float("f_three", 3.0)
                    .bool("rework", true)
                    .bool("skip", false);
            })
            .unwrap()
            .event_with("b \"quoted\" 'x' > y", |e| {
                e.timestamp("time:timestamp", 253_402_300_800_000)
                    .timestamp("t_before_zero", -62_167_219_200_001)
                    .timestamp("t_last", 253_402_300_799_999);
            })
            .unwrap()
            .done();
        b.trace("case-2").event("a<&>").unwrap().done();
        b.build()
    }

    /// `write_string(&golden_log())`, byte for byte, as recorded from the
    /// `writeln!`-based writer that the appending one replaced: every
    /// written log, and every digest taken of one, depends on these bytes.
    const GOLDEN: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xes.features="nested-attributes">
  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>
  <extension name="Time" prefix="time" uri="http://www.xes-standard.org/time.xesext"/>
  <extension name="Organizational" prefix="org" uri="http://www.xes-standard.org/org.xesext"/>
  <classifier name="Activity" keys="concept:name"/>
  <string key="concept:name" value="golden &lt;log&gt; &amp; &quot;co&quot; &apos;n&apos;"/>
  <int key="k&amp;&lt;&gt;&quot;&apos;" value="-42"/>
  <date key="created" value="1969-12-31T23:59:59.999Z"/>
  <float key="ratio" value="0.1"/>
  <boolean key="open" value="false"/>
  <string key="gecco:classattr" value="a&lt;&amp;&gt;">
    <string key="sys&quot;&apos;" value="S&lt;1&gt; &amp; &apos;x&apos;"/>
    <string key="owner" value="O1"/>
  </string>
  <trace>
    <string key="concept:name" value="case &lt;1&gt; &amp; &quot;q&quot;"/>
    <int key="priority" value="-7"/>
    <float key="weight" value="-2.5"/>
    <date key="opened" value="1970-01-01T00:00:00.000Z"/>
    <boolean key="urgent" value="true"/>
    <event>
      <string key="concept:name" value="a&lt;&amp;&gt;"/>
      <date key="time:timestamp" value="2017-02-01T08:40:15.250Z"/>
      <string key="org:role" value="clerk &amp; &apos;boss&apos;"/>
      <string key="k&lt;&quot;&apos;&gt;&amp;" value="v"/>
      <int key="cost" value="-3"/>
      <int key="floor" value="-9223372036854775808"/>
      <float key="f_tenth" value="0.1"/>
      <float key="f_neg" value="-2.5"/>
      <float key="f_tiny" value="0.0000001"/>
      <float key="f_huge" value="1000000000000000000000"/>
      <float key="f_three" value="3"/>
      <boolean key="rework" value="true"/>
      <boolean key="skip" value="false"/>
    </event>
    <event>
      <string key="concept:name" value="b &quot;quoted&quot; &apos;x&apos; &gt; y"/>
      <date key="time:timestamp" value="10000-01-01T00:00:00.000Z"/>
      <date key="t_before_zero" value="-001-12-31T23:59:59.999Z"/>
      <date key="t_last" value="9999-12-31T23:59:59.999Z"/>
    </event>
  </trace>
  <trace>
    <string key="concept:name" value="case-2"/>
    <event>
      <string key="concept:name" value="a&lt;&amp;&gt;"/>
    </event>
  </trace>
</log>
"#;

    #[test]
    fn writer_output_is_pinned() {
        assert_eq!(write_string(&golden_log()), GOLDEN);
    }

    #[test]
    fn written_log_reads_back_to_the_same_bytes() {
        // Write → parse → write is a fixed point, the dates of years 10000
        // and -1 included.
        let back = parse_str(GOLDEN).unwrap();
        assert_eq!(write_string(&back), GOLDEN);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let log = sample_log();
        let xes = write_string(&log);
        let back = parse_str(&xes).unwrap();
        assert_eq!(back.traces().len(), log.traces().len());
        assert_eq!(back.num_classes(), log.num_classes());
        assert_eq!(back.num_events(), log.num_events());
        // Trace 0, event 0 attributes survive with types.
        let e = &back.traces()[0].events()[0];
        assert_eq!(back.class_name(e.class()), "a");
        assert_eq!(e.attribute(back.key("cost").unwrap()), Some(&AttributeValue::Int(-3)));
        assert_eq!(e.attribute(back.key("effort").unwrap()), Some(&AttributeValue::Float(1.25)));
        assert_eq!(e.attribute(back.key("rework").unwrap()), Some(&AttributeValue::Bool(true)));
        assert_eq!(e.timestamp(back.std_keys().timestamp), Some(1_485_938_415_250));
        // Special characters in class names survive.
        assert!(back.class_by_name("b \"quoted\"").is_some());
    }

    #[test]
    fn round_trip_preserves_class_attributes() {
        let log = sample_log();
        let back = parse_str(&write_string(&log)).unwrap();
        let a = back.class_by_name("a").unwrap();
        let key = back.key("system").unwrap();
        let v = back.classes().info(a).attribute(key).unwrap();
        assert_eq!(back.resolve(v.as_symbol().unwrap()), "S1");
    }

    #[test]
    fn round_trip_preserves_case_ids() {
        let log = sample_log();
        let back = parse_str(&write_string(&log)).unwrap();
        let case = back.traces()[1].attribute(back.std_keys().concept_name).unwrap();
        assert_eq!(back.resolve(case.as_symbol().unwrap()), "case-2");
    }

    #[test]
    fn file_round_trip() {
        let log = sample_log();
        let dir = std::env::temp_dir().join("gecco-xes-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.xes");
        write_file(&log, &path).unwrap();
        let back = crate::xes::parse_file(&path).unwrap();
        assert_eq!(back.num_events(), log.num_events());
        std::fs::remove_file(&path).ok();
    }
}
