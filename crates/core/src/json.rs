//! JSON fragment rendering for answers and statistics.
//!
//! The network front-end (`banks-server`) streams [`RankedAnswer`]s over
//! server-sent events and reports [`SearchStats`] in its responses.  The
//! workspace carries no serialization dependency, so the JSON encoding is
//! hand-rolled here — next to the types it renders — and shared by every
//! consumer, which is what makes "the HTTP stream is byte-identical to the
//! in-process stream" a checkable property: both sides render through this
//! one module.
//!
//! Both halves of the JSON story live here: the renderers below and
//! [`parse`], a strict recursive-descent parser over the full value
//! grammar.  Sharing one module keeps the round-trip property — what any
//! crate in the workspace renders, any other crate can parse back — a
//! local invariant instead of a cross-crate convention.  The server uses
//! [`parse`] for request bodies; the service uses it for SLO config files.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::answer::AnswerTree;
use crate::engine::RankedAnswer;
use crate::stats::{AnswerTiming, SearchStats};

/// Appends `s` to `buf` as a JSON string literal (quotes included).
///
/// Control characters, quotes and backslashes are escaped; everything else
/// passes through verbatim (the output is UTF-8, which JSON permits).
pub fn push_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            '\u{08}' => buf.push_str("\\b"),
            '\u{0c}' => buf.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Renders `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut buf = String::with_capacity(s.len() + 2);
    push_string(&mut buf, s);
    buf
}

/// Renders a float as a JSON number.  JSON has no NaN/Infinity, so
/// non-finite values render as `null`.
pub fn number(f: f64) -> String {
    if f.is_finite() {
        format!("{f}")
    } else {
        "null".to_string()
    }
}

/// A duration as integer microseconds (the unit every timing field in this
/// module uses; micros keep sub-millisecond TTFA observable without
/// floating-point noise).
pub fn duration_us(d: Duration) -> u128 {
    d.as_micros()
}

/// Renders an [`AnswerTree`] as a JSON object.
///
/// Node ids render as plain integers (ids are dense `u32`s); `paths[i]` is
/// the root-to-leaf node sequence for keyword `i`, exactly as stored.
pub fn answer_tree(tree: &AnswerTree) -> String {
    let mut buf = String::with_capacity(128);
    buf.push_str("{\"root\":");
    buf.push_str(&tree.root.0.to_string());
    buf.push_str(",\"score\":");
    buf.push_str(&number(tree.score));
    buf.push_str(",\"aggregate_edge_weight\":");
    buf.push_str(&number(tree.aggregate_edge_weight));
    buf.push_str(",\"node_prestige\":");
    buf.push_str(&number(tree.node_prestige));
    buf.push_str(",\"paths\":[");
    for (i, path) in tree.paths.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push('[');
        for (j, node) in path.iter().enumerate() {
            if j > 0 {
                buf.push(',');
            }
            buf.push_str(&node.0.to_string());
        }
        buf.push(']');
    }
    buf.push_str("],\"nodes\":[");
    for (i, node) in tree.nodes().iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&node.0.to_string());
    }
    buf.push_str("]}");
    buf
}

/// Renders an [`AnswerTiming`] as a JSON object (durations in µs).
pub fn answer_timing(timing: &AnswerTiming) -> String {
    format!(
        "{{\"generated_at_us\":{},\"output_at_us\":{},\
         \"explored_at_generation\":{},\"explored_at_output\":{}}}",
        duration_us(timing.generated_at),
        duration_us(timing.output_at),
        timing.explored_at_generation,
        timing.explored_at_output,
    )
}

/// Renders a [`RankedAnswer`] as a JSON object: rank, timing, tree.
///
/// This is the exact payload of one `answer` server-sent event, so a client
/// replaying an SSE stream and a caller holding the in-process
/// `QueryHandle` see byte-identical answer encodings.
pub fn ranked_answer(answer: &RankedAnswer) -> String {
    format!(
        "{{\"rank\":{},\"timing\":{},\"tree\":{}}}",
        answer.rank,
        answer_timing(&answer.timing),
        answer_tree(&answer.tree),
    )
}

/// Renders [`SearchStats`] as a JSON object (duration in µs).
pub fn search_stats(stats: &SearchStats) -> String {
    format!(
        "{{\"nodes_explored\":{},\"nodes_touched\":{},\"edges_traversed\":{},\
         \"answers_generated\":{},\"duplicates_discarded\":{},\
         \"non_minimal_discarded\":{},\"answers_output\":{},\
         \"duration_us\":{},\"truncated\":{},\"cancelled\":{}}}",
        stats.nodes_explored,
        stats.nodes_touched,
        stats.edges_traversed,
        stats.answers_generated,
        stats.duplicates_discarded,
        stats.non_minimal_discarded,
        stats.answers_output,
        duration_us(stats.duration),
        stats.truncated,
        stats.cancelled,
    )
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object.  Keys are unique (last occurrence wins), sorted by the
    /// map, which is fine for documents where member order carries no
    /// meaning.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= usize::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// Member `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

/// Nesting bound: the documents this workspace parses are flat; anything
/// deeper than this is an attack or a bug, and a recursion bound beats a
/// stack overflow.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at offset {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // high surrogate: a \uXXXX *low* surrogate
                                // must follow; anything else is malformed
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let second = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&second) {
                                        char::from_u32(
                                            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00),
                                        )
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(first)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid \\u escape at offset {}", self.pos)
                            })?);
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at offset {}", self.pos))
                }
                Some(_) => {
                    // copy the whole run up to the next quote, escape or
                    // control byte; it ends at an ASCII byte of a `&str`,
                    // so it is whole UTF-8, and each byte is looked at once
                    let start = self.pos;
                    while let Some(b' '..=b'!' | b'#'..=b'[' | b']'..) = self.peek() {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::ScoreModel;
    use banks_graph::builder::graph_from_weighted_edges;
    use banks_graph::NodeId;
    use banks_prestige::PrestigeVector;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(string("\u{01}"), "\"\\u0001\"");
        assert_eq!(string("ünïcode"), "\"ünïcode\"");
    }

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(number(1.0), "1");
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn answer_tree_renders_structure() {
        let g = graph_from_weighted_edges(3, &[(2, 0, 1.0), (2, 1, 2.0)]);
        let p = PrestigeVector::uniform_for(&g);
        let m = ScoreModel::paper_default();
        let tree = AnswerTree::new(
            NodeId(2),
            vec![vec![NodeId(2), NodeId(0)], vec![NodeId(2), NodeId(1)]],
            &g,
            &p,
            &m,
        );
        let json = answer_tree(&tree);
        assert!(json.starts_with("{\"root\":2,"));
        assert!(json.contains("\"paths\":[[2,0],[2,1]]"));
        assert!(json.contains("\"nodes\":[0,1,2]"));
        assert!(json.contains("\"aggregate_edge_weight\":3"));
    }

    #[test]
    fn ranked_answer_embeds_timing_and_tree() {
        let g = graph_from_weighted_edges(3, &[(2, 0, 1.0), (2, 1, 2.0)]);
        let p = PrestigeVector::uniform_for(&g);
        let m = ScoreModel::paper_default();
        let tree = AnswerTree::new(
            NodeId(2),
            vec![vec![NodeId(2), NodeId(0)], vec![NodeId(2), NodeId(1)]],
            &g,
            &p,
            &m,
        );
        let answer = RankedAnswer {
            rank: 3,
            tree,
            timing: AnswerTiming {
                generated_at: Duration::from_micros(12),
                output_at: Duration::from_micros(40),
                explored_at_generation: 5,
                explored_at_output: 9,
            },
        };
        let json = ranked_answer(&answer);
        assert!(json.starts_with("{\"rank\":3,"));
        assert!(json.contains("\"generated_at_us\":12"));
        assert!(json.contains("\"output_at_us\":40"));
        assert!(json.contains("\"tree\":{\"root\":2,"));
    }

    #[test]
    fn search_stats_render_flags_and_duration() {
        let stats = SearchStats {
            nodes_explored: 7,
            nodes_touched: 11,
            duration: Duration::from_micros(1234),
            truncated: true,
            ..SearchStats::default()
        };
        let json = search_stats(&stats);
        assert!(json.contains("\"nodes_explored\":7"));
        assert!(json.contains("\"duration_us\":1234"));
        assert!(json.contains("\"truncated\":true"));
        assert!(json.contains("\"cancelled\":false"));
    }

    #[test]
    fn parses_flat_request_bodies() {
        let v = parse(r#"{"q":"jim gray","top_k":5,"engine":"si-backward"}"#).unwrap();
        assert_eq!(v.get("q").and_then(JsonValue::as_str), Some("jim gray"));
        assert_eq!(v.get("top_k").and_then(JsonValue::as_usize), Some(5));
        assert_eq!(
            v.get("engine").and_then(JsonValue::as_str),
            Some("si-backward")
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_values_and_arrays() {
        let v =
            parse(r#"{"keywords":["jim","gray"],"opts":{"deep":[1,2.5,-3]},"b":true,"n":null}"#)
                .unwrap();
        match v.get("keywords") {
            Some(JsonValue::Array(items)) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].as_str(), Some("jim"));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            v.get("opts").and_then(|o| o.get("deep")),
            Some(&JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(2.5),
                JsonValue::Number(-3.0)
            ]))
        );
        assert_eq!(v.get("b"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
    }

    #[test]
    fn parses_string_escapes() {
        let v = parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        // surrogate pair for U+1F600, raw and escaped
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        let v = parse(r#""\uD83D\uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_surrogates() {
        for bad in [
            r#""\uD800""#,       // lone high surrogate
            r#""\uD800A""#,      // high surrogate + non-surrogate (not U+10041!)
            r#""\uDC00""#,       // lone low surrogate
            r#""\uD800\uD800""#, // high + high
        ] {
            assert!(parse(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            "[1 2]",
            r#""unterminated"#,
            "tru",
            "01a",
            r#"{"a":1} trailing"#,
            r#""bad \x escape""#,
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = format!("{{\"q\":\"{}é\"}}", "a".repeat(1 << 20));
        let started = std::time::Instant::now();
        let value = parse(&body).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(
            value.get("q").and_then(JsonValue::as_str).map(str::len),
            Some((1 << 20) + 2)
        );
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn parser_roundtrips_this_modules_encodings() {
        // what the renderers above emit, the parser accepts — the two
        // halves of the wire agree
        let stats = SearchStats {
            nodes_explored: 42,
            truncated: true,
            ..Default::default()
        };
        let v = parse(&search_stats(&stats)).unwrap();
        assert_eq!(
            v.get("nodes_explored").and_then(JsonValue::as_usize),
            Some(42)
        );
        assert_eq!(v.get("truncated"), Some(&JsonValue::Bool(true)));
    }
}
