//! The client side of the wire: request bytes out, an incremental
//! HTTP/1.1 + SSE response parser in.
//!
//! The parser is fed whatever a `read` returned — a frame may arrive
//! split at any byte — and reports each completed piece exactly once.
//! It understands the two response shapes the server produces: an SSE
//! stream that ends with the connection (`POST /query`) and a
//! `Content-Length` body on a connection that may be kept alive
//! (`POST /admin/mutate`, `GET /metrics`).

/// One completed piece of a response.
#[derive(Debug, PartialEq, Eq)]
pub enum Piece {
    /// The response head was read: status code.
    Head(u16),
    /// One SSE event (multi-line `data:` joined with `\n`).
    Event { name: String, data: String },
    /// A complete `Content-Length` body; the parser is ready for the next
    /// response on the same connection.
    Body(Vec<u8>),
}

enum State {
    Head,
    Sse,
    Body(usize),
}

/// Incremental response parser; see the module docs.
pub struct ResponseParser {
    buf: Vec<u8>,
    state: State,
    /// Total bytes fed, head included.
    pub bytes: usize,
}

impl Default for ResponseParser {
    fn default() -> Self {
        Self::new()
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl ResponseParser {
    pub fn new() -> Self {
        ResponseParser {
            buf: Vec::new(),
            state: State::Head,
            bytes: 0,
        }
    }

    /// Feeds `bytes`, calling `on` for every piece they complete.  A
    /// malformed head is an `Err` (the exchange counts as failed).
    pub fn feed(&mut self, bytes: &[u8], mut on: impl FnMut(Piece)) -> Result<(), String> {
        self.bytes += bytes.len();
        self.buf.extend_from_slice(bytes);
        loop {
            match self.state {
                State::Head => {
                    let Some(end) = find(&self.buf, b"\r\n\r\n") else {
                        return Ok(());
                    };
                    let head = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                    self.buf.drain(..end + 4);
                    let mut lines = head.split("\r\n");
                    let status = lines
                        .next()
                        .and_then(|l| l.split(' ').nth(1))
                        .and_then(|s| s.parse::<u16>().ok())
                        .ok_or_else(|| format!("bad status line in {head:?}"))?;
                    let mut length = 0usize;
                    let mut sse = false;
                    for line in lines {
                        let Some((name, value)) = line.split_once(':') else {
                            continue;
                        };
                        let value = value.trim();
                        if name.eq_ignore_ascii_case("content-length") {
                            length = value
                                .parse()
                                .map_err(|_| format!("bad content-length {value:?}"))?;
                        } else if name.eq_ignore_ascii_case("content-type") {
                            sse = value.starts_with("text/event-stream");
                        }
                    }
                    self.state = if sse { State::Sse } else { State::Body(length) };
                    on(Piece::Head(status));
                }
                State::Sse => {
                    let Some(end) = find(&self.buf, b"\n\n") else {
                        return Ok(());
                    };
                    let frame = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                    self.buf.drain(..end + 2);
                    let mut name = String::new();
                    let mut data = String::new();
                    let mut has_data = false;
                    for line in frame.split('\n') {
                        if let Some(v) = line.strip_prefix("event: ") {
                            name = v.to_string();
                        } else if let Some(v) = line.strip_prefix("data: ") {
                            if has_data {
                                data.push('\n');
                            }
                            data.push_str(v);
                            has_data = true;
                        }
                        // `id:` lines and `:` comments (keep-alives) carry
                        // nothing the harness measures.
                    }
                    if !name.is_empty() {
                        on(Piece::Event { name, data });
                    }
                }
                State::Body(length) => {
                    if self.buf.len() < length {
                        return Ok(());
                    }
                    let body: Vec<u8> = self.buf.drain(..length).collect();
                    self.state = State::Head;
                    on(Piece::Body(body));
                }
            }
        }
    }
}

/// `POST /query` request bytes for a JSON body; `traced` adds the
/// `X-Banks-Trace` header.
pub fn query_request(body: &str, traced: bool) -> Vec<u8> {
    let trace = if traced {
        "X-Banks-Trace: bench\r\n"
    } else {
        ""
    };
    format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\n{trace}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `POST /admin/mutate` request bytes on a kept-alive connection.
pub fn mutate_request(body: &str) -> Vec<u8> {
    format!(
        "POST /admin/mutate HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The JSON body of a keyword query.
pub fn query_body(keywords: &[String], top_k: usize) -> String {
    let quoted: Vec<String> = keywords
        .iter()
        .map(|k| banks_core::json::string(k))
        .collect();
    format!("{{\"keywords\":[{}],\"top_k\":{top_k}}}", quoted.join(","))
}

/// An `answer` payload without its wall-clock `timing` object: what is
/// left (`rank` and `tree`) is a pure function of graph, query and engine
/// and must match the in-process oracle byte for byte.
pub fn strip_timing(answer: &str) -> String {
    match (answer.find(",\"timing\":{"), answer.find(",\"tree\":")) {
        (Some(start), Some(end)) if start < end => {
            format!("{}{}", &answer[..start], &answer[end..])
        }
        _ => answer.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: &str = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
        Connection: close\r\n\r\n\
        event: answer\nid: 1\ndata: {\"rank\":0}\n\n\
        : keepalive\n\n\
        event: answer\nid: 2\ndata: line one\ndata: line two\n\n\
        event: finished\ndata: {\"cache_hit\":false}\n\n";

    fn parse_in_chunks(chunk: usize) -> Vec<Piece> {
        let mut parser = ResponseParser::new();
        let mut pieces = Vec::new();
        for part in STREAM.as_bytes().chunks(chunk) {
            parser.feed(part, |p| pieces.push(p)).unwrap();
        }
        assert_eq!(parser.bytes, STREAM.len());
        pieces
    }

    #[test]
    fn frames_split_across_reads_parse_like_one_read() {
        let whole = parse_in_chunks(STREAM.len());
        assert_eq!(
            whole,
            vec![
                Piece::Head(200),
                Piece::Event {
                    name: "answer".into(),
                    data: "{\"rank\":0}".into()
                },
                Piece::Event {
                    name: "answer".into(),
                    data: "line one\nline two".into()
                },
                Piece::Event {
                    name: "finished".into(),
                    data: "{\"cache_hit\":false}".into()
                },
            ]
        );
        for chunk in [1, 2, 3, 7, 16, 64] {
            assert_eq!(parse_in_chunks(chunk), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn content_length_bodies_on_a_kept_alive_connection() {
        let one = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                   Content-Length: 8\r\n\r\n{\"a\":12}";
        let two = format!("{one}{one}");
        let mut parser = ResponseParser::new();
        let mut pieces = Vec::new();
        for part in two.as_bytes().chunks(5) {
            parser.feed(part, |p| pieces.push(p)).unwrap();
        }
        assert_eq!(
            pieces,
            vec![
                Piece::Head(200),
                Piece::Body(b"{\"a\":12}".to_vec()),
                Piece::Head(200),
                Piece::Body(b"{\"a\":12}".to_vec()),
            ]
        );
    }

    #[test]
    fn strip_timing_keeps_rank_and_tree() {
        let a = "{\"rank\":0,\"timing\":{\"generated_at_us\":5,\"output_at_us\":9,\
                 \"explored_at_generation\":1,\"explored_at_output\":2},\"tree\":{\"root\":3}}";
        assert_eq!(strip_timing(a), "{\"rank\":0,\"tree\":{\"root\":3}}");
        assert_eq!(strip_timing("{\"x\":1}"), "{\"x\":1}");
    }
}
