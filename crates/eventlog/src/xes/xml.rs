//! A minimal, dependency-free, zero-copy XML pull parser.
//!
//! Supports exactly what XES serializations of event logs need: elements
//! with attributes, self-closing tags, character data (skipped by the XES
//! reader), comments, processing instructions, DOCTYPE, CDATA and the five
//! predefined entities plus numeric character references. It does **not**
//! implement namespaces-aware processing, DTD expansion or validation — XES
//! files do not require them.
//!
//! The parser operates on `&[u8]` and yields events that *borrow* from the
//! input: element and attribute names are `&str` slices of the document, and
//! attribute values / character data are [`Cow`]s that only allocate when an
//! entity reference has to be decoded. Element and attribute names must be
//! valid UTF-8 (malformed bytes are a parse error); attribute values and
//! text tolerate invalid UTF-8 via lossy decoding, matching what the old
//! allocating parser did. Line numbers for errors are computed lazily, so
//! the hot path never counts newlines.

use crate::error::{Error, Result};
use std::borrow::Cow;

/// One event yielded by [`XmlParser::next_event`], borrowing from the input
/// document.
#[derive(Debug, Clone, PartialEq)]
pub enum XmlEvent<'a> {
    /// `<name a="v" …>` or `<name … />`.
    StartElement {
        /// Element name (namespace prefixes retained verbatim).
        name: &'a str,
        /// Attributes in document order, entity-decoded.
        attributes: Vec<(&'a str, Cow<'a, str>)>,
        /// Whether the element was self-closing.
        self_closing: bool,
    },
    /// `</name>`. Also emitted synthetically after self-closing elements.
    EndElement {
        /// Element name.
        name: &'a str,
    },
    /// Character data between tags (entity-decoded, whitespace preserved).
    Text(Cow<'a, str>),
}

/// Streaming pull parser over a byte document.
#[derive(Debug)]
pub struct XmlParser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Name to synthesize an `EndElement` for after a self-closing tag.
    pending_end: Option<&'a str>,
    open: Vec<&'a str>,
}

impl<'a> XmlParser<'a> {
    /// Creates a parser over a string document.
    pub fn new(input: &'a str) -> Self {
        Self::from_bytes(input.as_bytes())
    }

    /// Creates a parser over a byte document (zero-copy entry point used by
    /// the chunked XES reader).
    pub fn from_bytes(input: &'a [u8]) -> Self {
        XmlParser { input, pos: 0, pending_end: None, open: Vec::new() }
    }

    /// Current 1-based line number (for error reporting). Computed lazily by
    /// counting newlines up to the current position — errors are rare, the
    /// hot path should not pay for line tracking.
    pub fn line(&self) -> usize {
        line_at(self.input, self.pos)
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::Xml { line: self.line(), message: message.into() }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Reborrows a sub-slice of the input with the *input's* lifetime.
    #[inline]
    fn slice(&self, start: usize, end: usize) -> &'a [u8] {
        &self.input[start..end]
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => {
                Err(self.err(format!("expected `{}`, found `{}`", b as char, got as char)))
            }
            None => Err(self.err(format!("expected `{}`, found end of input", b as char))),
        }
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    /// Skips until (and over) the byte sequence `until`.
    fn skip_until(&mut self, until: &[u8]) -> Result<()> {
        if skip_past(self.input, &mut self.pos, until) {
            return Ok(());
        }
        Err(self
            .err(format!("unterminated construct; expected `{}`", String::from_utf8_lossy(until))))
    }

    fn read_name(&mut self) -> Result<&'a str> {
        let name = take_name_bytes(self.input, &mut self.pos);
        if name.is_empty() {
            return Err(self.err("expected a name"));
        }
        std::str::from_utf8(name).map_err(|_| self.err("name is not valid UTF-8"))
    }

    /// Lossily decodes `raw` and expands entity references; borrows the
    /// input when no entity (and no invalid UTF-8) is present.
    fn decode_entities(&self, raw: &'a [u8]) -> Result<Cow<'a, str>> {
        if !raw.contains(&b'&') {
            return Ok(String::from_utf8_lossy(raw));
        }
        let src = String::from_utf8_lossy(raw);
        let mut out = String::with_capacity(src.len());
        let mut rest: &str = &src;
        while let Some(amp) = rest.find('&') {
            out.push_str(&rest[..amp]);
            rest = &rest[amp..];
            let semi = rest.find(';').ok_or_else(|| self.err("unterminated entity reference"))?;
            let ent = &rest[1..semi];
            match ent {
                "amp" => out.push('&'),
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                    let code = u32::from_str_radix(&ent[2..], 16)
                        .map_err(|_| self.err(format!("bad character reference `&{ent};`")))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| self.err(format!("invalid code point &{ent};")))?,
                    );
                }
                _ if ent.starts_with('#') => {
                    let code = ent[1..]
                        .parse::<u32>()
                        .map_err(|_| self.err(format!("bad character reference `&{ent};`")))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| self.err(format!("invalid code point &{ent};")))?,
                    );
                }
                _ => return Err(self.err(format!("unknown entity `&{ent};`"))),
            }
            rest = &rest[semi + 1..];
        }
        out.push_str(rest);
        Ok(Cow::Owned(out))
    }

    fn read_attribute_value(&mut self) -> Result<Cow<'a, str>> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        let start = self.pos;
        while self.pos < self.input.len() {
            let b = self.input[self.pos];
            if b == quote {
                let raw = self.slice(start, self.pos);
                self.pos += 1;
                return self.decode_entities(raw);
            }
            if b == b'<' {
                return Err(self.err("`<` not allowed in attribute value"));
            }
            self.pos += 1;
        }
        Err(self.err("unterminated attribute value"))
    }

    /// Pulls the next event, or `None` at end of document.
    pub fn next_event(&mut self) -> Result<Option<XmlEvent<'a>>> {
        if let Some(name) = self.pending_end.take() {
            return Ok(Some(XmlEvent::EndElement { name }));
        }
        loop {
            if self.pos >= self.input.len() {
                if let Some(open) = self.open.last() {
                    return Err(self.err(format!("unexpected end of input; `<{open}>` not closed")));
                }
                return Ok(None);
            }
            if self.peek() != Some(b'<') {
                // Character data.
                let start = self.pos;
                let len = self.input[self.pos..]
                    .iter()
                    .position(|&b| b == b'<')
                    .unwrap_or(self.input.len() - self.pos);
                self.pos += len;
                let raw = self.slice(start, self.pos);
                // Fast path: inter-element whitespace is skipped without
                // decoding (an entity could still decode to whitespace, so
                // raw bytes containing `&` go through the slow path).
                if raw.iter().all(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n')) {
                    continue;
                }
                let text = self.decode_entities(raw)?;
                if text.chars().all(char::is_whitespace) {
                    continue; // inter-element whitespace (via entities)
                }
                return Ok(Some(XmlEvent::Text(text)));
            }
            // A `<…>` construct.
            if self.starts_with(b"<?") {
                self.skip_until(b"?>")?;
                continue;
            }
            if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
                continue;
            }
            if self.starts_with(b"<![CDATA[") {
                self.pos += b"<![CDATA[".len();
                let start = self.pos;
                while self.pos < self.input.len() && !self.starts_with(b"]]>") {
                    self.pos += 1;
                }
                let raw = self.slice(start, self.pos);
                self.skip_until(b"]]>")?;
                return Ok(Some(XmlEvent::Text(String::from_utf8_lossy(raw))));
            }
            if self.starts_with(b"<!") {
                // DOCTYPE etc. — the internal subset may contain `>`.
                if !skip_markup_decl(self.input, &mut self.pos) {
                    return Err(self.err("unterminated markup declaration"));
                }
                continue;
            }
            if self.starts_with(b"</") {
                self.pos += 2;
                let name = self.read_name()?;
                self.skip_whitespace();
                self.expect(b'>')?;
                match self.open.pop() {
                    Some(expected) if expected == name => {}
                    Some(expected) => {
                        return Err(
                            self.err(format!("mismatched `</{name}>`; expected `</{expected}>`"))
                        )
                    }
                    None => {
                        return Err(self.err(format!("closing `</{name}>` with no open element")))
                    }
                }
                return Ok(Some(XmlEvent::EndElement { name }));
            }
            // Start tag.
            self.expect(b'<')?;
            let name = self.read_name()?;
            let mut attributes = Vec::new();
            loop {
                self.skip_whitespace();
                match self.peek() {
                    Some(b'>') => {
                        self.pos += 1;
                        self.open.push(name);
                        return Ok(Some(XmlEvent::StartElement {
                            name,
                            attributes,
                            self_closing: false,
                        }));
                    }
                    Some(b'/') => {
                        self.pos += 1;
                        self.expect(b'>')?;
                        self.pending_end = Some(name);
                        return Ok(Some(XmlEvent::StartElement {
                            name,
                            attributes,
                            self_closing: true,
                        }));
                    }
                    Some(_) => {
                        let key = self.read_name()?;
                        self.skip_whitespace();
                        self.expect(b'=')?;
                        self.skip_whitespace();
                        let value = self.read_attribute_value()?;
                        attributes.push((key, value));
                    }
                    None => return Err(self.err("unterminated start tag")),
                }
            }
        }
    }
}

/// 1-based line number of byte offset `pos` in `input`.
pub(crate) fn line_at(input: &[u8], pos: usize) -> usize {
    1 + input[..pos.min(input.len())].iter().filter(|&&b| b == b'\n').count()
}

/// Whether `b` may appear in an element or attribute name. Shared with the
/// chunk scanner so both stages agree on where a name ends.
#[inline]
pub(crate) fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80
}

/// Consumes the name bytes at `*pos`, returning the (possibly empty) range
/// as a slice. Shared with the chunk scanner.
#[inline]
pub(crate) fn take_name_bytes<'a>(input: &'a [u8], pos: &mut usize) -> &'a [u8] {
    let start = *pos;
    while let Some(&b) = input.get(*pos) {
        if !is_name_byte(b) {
            break;
        }
        *pos += 1;
    }
    &input[start..*pos]
}

/// Advances `*pos` to just past the next occurrence of `until`. Returns
/// `false` (with `*pos` at end of input) when the sequence never occurs.
/// Shared with the chunk scanner so skipping of comments / PIs / CDATA is
/// identical in both stages.
pub(crate) fn skip_past(input: &[u8], pos: &mut usize, until: &[u8]) -> bool {
    let first = until[0];
    while *pos < input.len() {
        match input[*pos..].iter().position(|&b| b == first) {
            Some(i) => {
                *pos += i;
                if input[*pos..].starts_with(until) {
                    *pos += until.len();
                    return true;
                }
                *pos += 1;
            }
            None => break,
        }
    }
    *pos = input.len();
    false
}

/// Skips a markup declaration (`<!DOCTYPE …>`, `<!ENTITY …>`, …) whose
/// `<!` starts at `*pos`, leaving `*pos` just past the closing `>`.
///
/// A DOCTYPE may carry an `[ … ]` internal subset holding nested `<!…>`
/// declarations, comments, processing instructions and quoted literals —
/// a `>` inside any of those does not end the DOCTYPE, so a bare
/// skip-to-`>` would leak the remainder of the subset into the token
/// stream. Tracked here: quoted literals (`"…"` / `'…'`), embedded
/// comments and PIs (via [`skip_past`]), nested declaration depth and the
/// subset bracket. Returns `false` (with `*pos` at end of input) when the
/// declaration never terminates. Shared by the real parser and the chunk
/// scanner so both stages skip identical byte ranges.
pub(crate) fn skip_markup_decl(input: &[u8], pos: &mut usize) -> bool {
    debug_assert!(input[*pos..].starts_with(b"<!"));
    *pos += 2;
    let mut decls = 1usize; // open `<!…` declarations
    let mut subset = 0usize; // `[ … ]` bracket depth
    while *pos < input.len() {
        match input[*pos] {
            quote @ (b'"' | b'\'') => {
                *pos += 1;
                match input[*pos..].iter().position(|&b| b == quote) {
                    Some(i) => *pos += i + 1,
                    None => {
                        *pos = input.len();
                        return false;
                    }
                }
            }
            b'<' if input[*pos..].starts_with(b"<!--") => {
                if !skip_past(input, pos, b"-->") {
                    return false;
                }
            }
            b'<' if input[*pos..].starts_with(b"<?") => {
                if !skip_past(input, pos, b"?>") {
                    return false;
                }
            }
            b'<' if input[*pos..].starts_with(b"<!") => {
                decls += 1;
                *pos += 2;
            }
            b'[' => {
                subset += 1;
                *pos += 1;
            }
            b']' => {
                subset = subset.saturating_sub(1);
                *pos += 1;
            }
            b'>' => {
                *pos += 1;
                if decls > 1 {
                    decls -= 1;
                } else if subset == 0 {
                    return true;
                }
                // else: a stray `>` inside the internal subset — the
                // DOCTYPE's own `>` still comes after the closing `]`.
            }
            _ => *pos += 1,
        }
    }
    false
}

/// Appends `s` to `out`, escaped for an XML attribute value or text.
/// Runs of bytes that need no escaping are copied as one slice, so a
/// string with nothing to escape is a single `push_str`.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&apos;",
            _ => continue,
        };
        // The five specials are ASCII, so `i` is a char boundary.
        out.push_str(&s[copied..i]);
        out.push_str(entity);
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events(s: &str) -> Vec<XmlEvent<'_>> {
        let mut p = XmlParser::new(s);
        let mut out = Vec::new();
        while let Some(e) = p.next_event().unwrap() {
            out.push(e);
        }
        out
    }

    #[test]
    fn parses_nested_elements() {
        let events = all_events(r#"<log a="1"><trace><event/></trace></log>"#);
        assert_eq!(events.len(), 6);
        match &events[0] {
            XmlEvent::StartElement { name, attributes, self_closing } => {
                assert_eq!(*name, "log");
                assert_eq!(attributes, &[("a", Cow::Borrowed("1"))]);
                assert!(!self_closing);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            matches!(&events[2], XmlEvent::StartElement { name, self_closing: true, .. } if *name == "event")
        );
        assert!(matches!(&events[3], XmlEvent::EndElement { name } if *name == "event"));
        assert!(matches!(&events[5], XmlEvent::EndElement { name } if *name == "log"));
    }

    #[test]
    fn skips_prolog_comments_doctype() {
        let doc = "<?xml version=\"1.0\"?><!DOCTYPE log><!-- hi --><log></log>";
        let events = all_events(doc);
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn doctype_internal_subset_does_not_leak() {
        // The `>` inside the entity declarations, the comment and the
        // quoted literal must all stay inside the DOCTYPE: the old
        // skip-to-`>` stopped at the first one and leaked ` ]>` (and the
        // rest of the subset) into the token stream as text.
        for doc in [
            "<!DOCTYPE log [ <!ENTITY auth \"Bob\"> ]><log></log>",
            "<!DOCTYPE log [ <!ENTITY gt2 \"x > y\"> <!ENTITY b 'c'> ]><log></log>",
            "<!DOCTYPE log [ <!-- > inside comment --> <!ELEMENT log ANY> ]><log></log>",
            "<!DOCTYPE log [ <?pi with > inside?> ]><log></log>",
            "<!DOCTYPE log SYSTEM \"http://a/b>c.dtd\"><log></log>",
        ] {
            let events = all_events(doc);
            assert_eq!(events.len(), 2, "subset leaked in {doc:?}: {events:?}");
            assert!(matches!(&events[0], XmlEvent::StartElement { name: "log", .. }));
        }
    }

    #[test]
    fn unterminated_doctype_subset_is_an_error() {
        for bad in ["<!DOCTYPE log [ <!ENTITY a \"b\"> <log></log>", "<!DOCTYPE log [ ]"] {
            let mut p = XmlParser::new(bad);
            let mut saw_err = false;
            loop {
                match p.next_event() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(e) => {
                        saw_err = true;
                        assert!(e.to_string().contains("markup declaration"), "{e}");
                        break;
                    }
                }
            }
            assert!(saw_err, "accepted {bad:?}");
        }
    }

    #[test]
    fn skip_markup_decl_lands_after_the_real_close() {
        let doc = b"<!DOCTYPE log [ <!ENTITY a \"]>\"> ]><log/>";
        let mut pos = 0usize;
        assert!(skip_markup_decl(doc, &mut pos));
        assert_eq!(&doc[pos..], b"<log/>");
    }

    #[test]
    fn decodes_entities_in_attributes_and_text() {
        let events = all_events(r#"<a k="x &amp; y &lt; &#65; &#x42;">T &gt; 1</a>"#);
        match &events[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].1, "x & y < A B");
            }
            _ => panic!(),
        }
        assert!(matches!(&events[1], XmlEvent::Text(t) if t == "T > 1"));
    }

    #[test]
    fn plain_values_borrow_from_the_input() {
        let events = all_events(r#"<a k="plain">body text</a>"#);
        match &events[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert!(matches!(&attributes[0].1, Cow::Borrowed("plain")));
            }
            _ => panic!(),
        }
        assert!(matches!(&events[1], XmlEvent::Text(Cow::Borrowed("body text"))));
    }

    #[test]
    fn whitespace_only_text_is_skipped() {
        let events = all_events("<a>\n   <b/>\n</a>");
        assert_eq!(events.len(), 4); // a, b, /b, /a
        let entity_ws = all_events("<a>&#32;&#9;</a>");
        assert_eq!(entity_ws.len(), 2, "entity-encoded whitespace is still whitespace");
    }

    #[test]
    fn cdata_is_text() {
        let events = all_events("<a><![CDATA[1 < 2 & 3]]></a>");
        assert!(matches!(&events[1], XmlEvent::Text(t) if t == "1 < 2 & 3"));
    }

    #[test]
    fn single_quoted_attributes() {
        let events = all_events("<a k='v'/>");
        match &events[0] {
            XmlEvent::StartElement { attributes, .. } => assert_eq!(attributes[0].1, "v"),
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "<a><b></a>",
            "<a",
            "<a k=>",
            "<a k=\"v>",
            "</a>",
            "<a>&bogus;</a>",
            "<a>&#xZZ;</a>",
            "<a><b>",
        ] {
            let mut p = XmlParser::new(bad);
            let mut result = Ok(());
            loop {
                match p.next_event() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            assert!(result.is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn invalid_utf8_in_names_is_an_error() {
        let mut p = XmlParser::from_bytes(b"<a\xFFb k=\"v\"/>");
        let mut saw_err = false;
        loop {
            match p.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    saw_err = true;
                    assert!(e.to_string().contains("UTF-8"), "{e}");
                    break;
                }
            }
        }
        assert!(saw_err);
    }

    #[test]
    fn invalid_utf8_in_values_is_lossy() {
        let mut p = XmlParser::from_bytes(b"<a k=\"x\xFFy\"/>");
        match p.next_event().unwrap().unwrap() {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].1, "x\u{FFFD}y");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_reports_line_numbers() {
        let mut p = XmlParser::new("<a>\n<b>\n</c>");
        let mut last = None;
        loop {
            match p.next_event() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    last = Some(e);
                    break;
                }
            }
        }
        let msg = last.unwrap().to_string();
        assert!(msg.contains("line 3"), "got {msg}");
    }

    #[test]
    fn escape_round_trips() {
        let s = "a<b>&\"'c, naïve ü";
        let mut doc = String::from("<a k=\"");
        push_escaped(&mut doc, s);
        doc.push_str("\"/>");
        let mut p = XmlParser::new(&doc);
        match p.next_event().unwrap().unwrap() {
            XmlEvent::StartElement { attributes, .. } => assert_eq!(attributes[0].1, s),
            _ => panic!(),
        }
    }
}
