//! The HTTP/1.1 message-head grammar, both directions.
//!
//! The front-end reads request heads and the follower reads response
//! heads through this one grammar; only the start line is each caller's
//! own.  [`read_line`] charges every byte to one budget, so a peer that
//! never ends its head costs the reader the budget and no more.
//! [`content_length`] is the RFC 9112 §6.3 rule: every `Content-Length`
//! is plain ASCII digits (`u64::from_str` alone would take `+5`), and
//! repeated ones agree — otherwise the body boundary, and with it the next
//! message on the connection, would be ambiguous.

use std::io::{self, BufRead};

/// Why a message head could not be read.
#[derive(Debug)]
pub enum HeadError {
    /// The stream ended before the head's first byte: the peer closed
    /// without sending anything.
    Closed,
    /// The head exceeds its byte budget.
    TooLarge,
    /// The bytes are not a valid HTTP/1.x head.
    Malformed(String),
    /// The transport failed.
    Io(io::Error),
}

impl std::fmt::Display for HeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeadError::Closed => write!(f, "connection closed before the head"),
            HeadError::TooLarge => write!(f, "message head over its byte budget"),
            HeadError::Malformed(msg) => write!(f, "malformed head: {msg}"),
            HeadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HeadError {}

impl From<HeadError> for io::Error {
    fn from(e: HeadError) -> Self {
        match e {
            HeadError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

fn malformed(msg: impl Into<String>) -> HeadError {
    HeadError::Malformed(msg.into())
}

/// Reads one line up to its LF and returns it without the CRLF/LF,
/// charging every byte consumed to `budget`.  [`HeadError::Closed`] when
/// the stream ends before the line's first byte.
pub fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, HeadError> {
    let mut raw = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HeadError::Io(e)),
        };
        if available.is_empty() {
            return Err(if raw.is_empty() {
                HeadError::Closed
            } else {
                malformed("connection closed mid-line")
            });
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let taken = newline.map_or(available.len(), |i| i + 1);
        if taken > *budget {
            return Err(HeadError::TooLarge);
        }
        *budget -= taken;
        raw.extend_from_slice(&available[..taken]);
        reader.consume(taken);
        if newline.is_some() {
            break;
        }
    }
    raw.pop();
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw).map_err(|_| malformed("non-utf8 header line"))
}

/// Reads header fields up to the blank line that ends the head: `(name,
/// value)` pairs in arrival order, names lower-cased, values trimmed.
pub fn read_fields(
    reader: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Vec<(String, String)>, HeadError> {
    let mut fields = Vec::new();
    loop {
        let line = match read_line(reader, budget) {
            Err(HeadError::Closed) => return Err(malformed("connection closed mid-line")),
            line => line?,
        };
        if line.is_empty() {
            return Ok(fields);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed(format!("header without colon: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(malformed(format!("bad header name {name:?}")));
        }
        fields.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// The first value of field `name` (case-insensitive).
pub fn header<'a>(fields: &'a [(String, String)], name: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// The declared body length, `None` without a `Content-Length` field:
/// every such field must be plain ASCII digits, and repeated fields must
/// carry the same value.
pub fn content_length(fields: &[(String, String)]) -> Result<Option<u64>, HeadError> {
    let bad = |raw: &str| malformed(format!("bad content-length {raw:?}"));
    let mut declared: Option<&str> = None;
    for (_, raw) in fields.iter().filter(|(name, _)| name == "content-length") {
        if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad(raw));
        }
        if let Some(first) = declared.filter(|first| *first != raw) {
            return Err(malformed(format!(
                "conflicting content-length headers {first:?} and {raw:?}"
            )));
        }
        declared = Some(raw);
    }
    declared
        .map(|raw| raw.parse().map_err(|_| bad(raw)))
        .transpose()
}
