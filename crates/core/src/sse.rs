//! Server-sent events (the `text/event-stream` wire format), both halves.
//!
//! The front-end streams answers as SSE and the follower tails the
//! leader's WAL as SSE, so one module owns the framing: [`SseWriter`]
//! renders frames and [`SseParser`] reads them back.  Keeping them together
//! makes "what the server writes, every client reads back exactly" a local
//! invariant, checked by the round-trip property test below.  Binary
//! payloads (the WAL record bytes of replication `record` events) travel
//! as hex: [`to_hex`] and [`from_hex`] are that pair.
//!
//! Two properties of the writer matter for time-to-first-answer — the
//! paper's headline metric — to survive the network hop:
//!
//! * **one write + flush per event** — an answer leaves the process the
//!   moment the engine emits it, never parked in a userspace buffer behind
//!   the next answer;
//! * **correct boundaries** — every event is terminated by a blank line,
//!   and payload newlines are split across `data:` lines per the SSE spec,
//!   so a conforming client (`EventSource`, `curl -N`, [`SseParser`])
//!   reassembles exactly the payload the server rendered.

use std::io::Write;

/// Writes SSE frames to an underlying writer, flushing per event.
pub struct SseWriter<W: Write> {
    writer: W,
}

impl<W: Write> SseWriter<W> {
    /// Wraps `writer`.  The caller has already sent the response head.
    pub fn new(writer: W) -> Self {
        SseWriter { writer }
    }

    /// Writes one event frame and flushes it.
    ///
    /// The frame is assembled in memory and sent with a single `write_all`,
    /// so a frame is never interleaved with another thread's bytes and the
    /// transport sees exactly one packet burst per answer.
    pub fn event(&mut self, name: &str, data: &str) -> std::io::Result<()> {
        self.frame(name, None, data)
    }

    /// Writes one event frame carrying an `id:` field and flushes it.
    ///
    /// The id is what makes a stream *resumable*: a conforming client
    /// remembers the last id it saw and offers it back on reconnect as the
    /// `Last-Event-ID` header, and the server replays only what follows.
    pub fn event_with_id(&mut self, name: &str, id: u64, data: &str) -> std::io::Result<()> {
        self.frame(name, Some(id), data)
    }

    fn frame(&mut self, name: &str, id: Option<u64>, data: &str) -> std::io::Result<()> {
        let mut frame = String::with_capacity(data.len() + name.len() + 32);
        frame.push_str("event: ");
        frame.push_str(name);
        frame.push('\n');
        if let Some(id) = id {
            frame.push_str("id: ");
            frame.push_str(&id.to_string());
            frame.push('\n');
        }
        for line in data.split('\n') {
            frame.push_str("data: ");
            frame.push_str(line);
            frame.push('\n');
        }
        frame.push('\n');
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()
    }

    /// Writes a comment frame (`: text`) — the SSE keep-alive idiom; a
    /// client parser ignores it, but the write proves the peer is still
    /// there.
    pub fn comment(&mut self, text: &str) -> std::io::Result<()> {
        self.writer.write_all(format!(": {text}\n\n").as_bytes())?;
        self.writer.flush()
    }

    /// The underlying writer.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.writer
    }
}

/// One parsed SSE frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SseEvent {
    /// The `event:` name (empty when the frame never named one).
    pub name: String,
    /// The `id:` field, when present and numeric.
    pub id: Option<u64>,
    /// All `data:` lines, joined with `\n`.
    pub data: String,
}

/// An incremental SSE parser: accumulates lines into [`SseEvent`]s.
///
/// Feed it one line at a time (trailing `\r`/`\n` stripped or not — it
/// normalizes); a blank line dispatches the accumulated frame.  Comment
/// lines (leading `:`, the keep-alive idiom) are ignored, multi-`data:`
/// frames join with `\n`, and `id:` values that parse as integers ride
/// along — the replication stream uses them to carry record epochs.
#[derive(Default)]
pub struct SseParser {
    name: String,
    id: Option<u64>,
    data: Vec<String>,
}

impl SseParser {
    /// A parser with no partial frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one line; returns a frame when `line` completes one.
    pub fn push_line(&mut self, line: &str) -> Option<SseEvent> {
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            if self.name.is_empty() && self.data.is_empty() {
                return None; // stray separator, nothing accumulated
            }
            let event = SseEvent {
                name: std::mem::take(&mut self.name),
                id: self.id.take(),
                data: std::mem::take(&mut self.data).join("\n"),
            };
            return Some(event);
        }
        if line.starts_with(':') {
            return None; // comment / keep-alive
        }
        let (field, value) = match line.split_once(':') {
            Some((field, value)) => (field, value.strip_prefix(' ').unwrap_or(value)),
            None => (line, ""),
        };
        match field {
            "event" => self.name = value.to_string(),
            "data" => self.data.push(value.to_string()),
            "id" => self.id = value.trim().parse().ok(),
            _ => {} // per spec: ignore unknown fields
        }
        None
    }
}

/// Every complete frame of a stream body (a trailing frame without its
/// blank line is not yet complete, and is left out).
pub fn parse(body: &str) -> Vec<SseEvent> {
    let mut parser = SseParser::new();
    body.lines()
        .filter_map(|line| parser.push_line(line))
        .collect()
}

/// Lowercase hex of `bytes`.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0f) as usize] as char);
    }
    out
}

/// Decodes hex of either case back into bytes.  Only an even number of
/// `[0-9a-fA-F]` bytes decodes; anything else is an error naming the
/// offending byte offset, never a panic.
pub fn from_hex(text: impl AsRef<[u8]>) -> Result<Vec<u8>, String> {
    let digits = text.as_ref();
    if !digits.len().is_multiple_of(2) {
        return Err(format!("odd hex length {}", digits.len()));
    }
    let nibble = |digit: u8| (digit as char).to_digit(16);
    digits
        .chunks_exact(2)
        .enumerate()
        .map(|(i, pair)| match (nibble(pair[0]), nibble(pair[1])) {
            (Some(high), Some(low)) => Ok((high << 4 | low) as u8),
            _ => Err(format!("invalid hex at offset {}", 2 * i)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hex_round_trips_and_refuses_everything_else() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(to_hex(&[0x00, 0xff, 0x10, 0xab]), "00ff10ab");
        assert_eq!(from_hex("00FF10Ab").unwrap(), vec![0x00, 0xff, 0x10, 0xab]);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert!(from_hex("0").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "non-hex digits");
        // A multi-byte character straddling a digit pair, and a sign that
        // `u8::from_str_radix` would accept.
        assert_eq!(from_hex("aéb").unwrap_err(), "invalid hex at offset 0");
        assert_eq!(from_hex("+f").unwrap_err(), "invalid hex at offset 0");
        assert_eq!(from_hex("00-1").unwrap_err(), "invalid hex at offset 2");
    }

    /// A writer recording both the bytes and the flush boundaries.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        flushes: usize,
        writes: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    fn written(sse: &mut SseWriter<Recorder>) -> String {
        String::from_utf8(sse.get_mut().bytes.clone()).unwrap()
    }

    #[test]
    fn events_are_framed_with_blank_line_boundaries() {
        let mut sse = SseWriter::new(Recorder::default());
        sse.event("answer", "{\"rank\":0}").unwrap();
        sse.event("finished", "{\"ok\":true}").unwrap();
        assert_eq!(
            written(&mut sse),
            "event: answer\ndata: {\"rank\":0}\n\n\
             event: finished\ndata: {\"ok\":true}\n\n"
        );
    }

    #[test]
    fn each_event_is_one_write_and_one_flush() {
        let mut sse = SseWriter::new(Recorder::default());
        for i in 0..5 {
            sse.event("answer", &format!("{{\"rank\":{i}}}")).unwrap();
        }
        sse.event_with_id("answer", 6, "{}").unwrap();
        assert_eq!(sse.get_mut().writes, 6, "one write_all per event");
        assert_eq!(sse.get_mut().flushes, 6, "flush-per-answer");
    }

    #[test]
    fn multiline_payloads_split_across_data_lines() {
        let mut sse = SseWriter::new(Recorder::default());
        sse.event("answer", "line one\nline two").unwrap();
        assert_eq!(
            written(&mut sse),
            "event: answer\ndata: line one\ndata: line two\n\n"
        );
    }

    #[test]
    fn id_carrying_events_put_the_id_before_the_data() {
        let mut sse = SseWriter::new(Recorder::default());
        sse.event_with_id("answer", 3, "{\"rank\":2}").unwrap();
        assert_eq!(
            written(&mut sse),
            "event: answer\nid: 3\ndata: {\"rank\":2}\n\n"
        );
    }

    #[test]
    fn comments_frame_as_keepalives() {
        let mut sse = SseWriter::new(Recorder::default());
        sse.comment("ping").unwrap();
        assert_eq!(written(&mut sse), ": ping\n\n");
        assert_eq!(sse.get_mut().flushes, 1);
    }

    #[test]
    fn frames_dispatch_on_blank_lines() {
        let mut p = SseParser::new();
        assert_eq!(p.push_line(": keep-alive"), None);
        assert_eq!(p.push_line("event: record"), None);
        assert_eq!(p.push_line("id: 42"), None);
        assert_eq!(p.push_line("data: {\"a\":1,"), None);
        assert_eq!(p.push_line("data: \"b\":2}"), None);
        let event = p.push_line("").expect("frame");
        assert_eq!(event.name, "record");
        assert_eq!(event.id, Some(42));
        assert_eq!(event.data, "{\"a\":1,\n\"b\":2}");

        // The parser reset: the next frame starts clean, ids do not leak.
        assert_eq!(p.push_line("event: head"), None);
        assert_eq!(p.push_line("data: {}"), None);
        let event = p.push_line("\r\n").expect("frame");
        assert_eq!(event.name, "head");
        assert_eq!(event.id, None);
        assert_eq!(event.data, "{}");
    }

    #[test]
    fn stray_separators_and_unknown_fields_are_ignored() {
        let mut p = SseParser::new();
        assert_eq!(p.push_line(""), None);
        assert_eq!(p.push_line("retry: 1000"), None);
        assert_eq!(p.push_line("data: x"), None);
        let event = p.push_line("").expect("frame");
        assert_eq!(event.name, "");
        assert_eq!(event.data, "x");
    }

    #[test]
    fn parse_leaves_an_unterminated_frame_out() {
        let events = parse("event: a\ndata: 1\n\n: ping\n\nevent: b\ndata: 2\n");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "a");
    }

    /// Characters the generator draws from: SSE syntax (`:`, spaces,
    /// newlines), JSON punctuation, digits and a multi-byte character.
    const ALPHABET: &[char] = &[
        'a', 'z', 'Q', '0', '9', ':', ' ', '\n', '{', '}', '"', ',', '\\', 'é', '\t',
    ];

    fn text(indices: &[u8], allow_newline: bool) -> String {
        indices
            .iter()
            .map(|&i| ALPHABET[i as usize % ALPHABET.len()])
            .filter(|&c| allow_newline || c != '\n')
            .collect()
    }

    type Frame = (Vec<u8>, Option<u64>, Vec<u8>);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever frames the writer renders — names with colons and
        /// spaces, payloads with newlines or empty, with and without ids,
        /// interleaved with keep-alive comments — the parser reads back
        /// exactly those frames, in order.
        #[test]
        fn writer_output_parses_back_to_the_same_frames(frames in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..255, 1..8),
                (0u8..2, 0u64..u64::MAX),
                proptest::collection::vec(0u8..255, 0..24),
            )
                .prop_map(|(name, (has_id, id), data)| -> Frame {
                    (name, (has_id == 1).then_some(id), data)
                }),
            0..8,
        )) {
            let mut sse = SseWriter::new(Vec::new());
            let mut expected = Vec::new();
            for (i, (name, id, data)) in frames.iter().enumerate() {
                // A name is one line and never empty ("x" keeps it so).
                let name = format!("x{}", text(name, false));
                let data = text(data, true);
                match id {
                    Some(id) => sse.event_with_id(&name, *id, &data).unwrap(),
                    None => sse.event(&name, &data).unwrap(),
                }
                if i % 3 == 0 {
                    sse.comment("keepalive").unwrap();
                }
                expected.push(SseEvent { name, id: *id, data });
            }
            let body = String::from_utf8(sse.get_mut().clone()).unwrap();
            prop_assert_eq!(parse(&body), expected);
        }
    }
}
