//! A minimal HTTP/1.1 GET client over `std::net` — just enough to speak
//! to `banks-server`'s replication endpoints: absolute-path GETs with a
//! handful of headers, `Connection: close` framing, status + header + body
//! parsing, and a streaming mode that hands back the socket positioned at
//! the start of an SSE body.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use banks_core::http;

/// A parsed `http://host:port[/base]` leader address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeaderUrl {
    host: String,
    port: u16,
    base: String,
}

impl LeaderUrl {
    /// Parses `http://host:port`, with an optional base path and trailing
    /// slash; a bare `host:port` is accepted too.  `https` is rejected —
    /// this client speaks plaintext HTTP only.
    pub fn parse(url: &str) -> Result<Self, String> {
        let url = url.trim();
        if let Some(rest) = url.strip_prefix("https://") {
            return Err(format!("https is not supported: {rest:?} unreachable"));
        }
        let rest = url.strip_prefix("http://").unwrap_or(url);
        let (authority, base) = match rest.find('/') {
            Some(i) => (&rest[..i], rest[i..].trim_end_matches('/')),
            None => (rest, ""),
        };
        let (host, port) = match authority.rsplit_once(':') {
            Some((host, port)) => (
                host,
                port.parse::<u16>()
                    .map_err(|_| format!("invalid port in {url:?}"))?,
            ),
            None => (authority, 80),
        };
        if host.is_empty() {
            return Err(format!("missing host in {url:?}"));
        }
        Ok(LeaderUrl {
            host: host.to_string(),
            port,
            base: base.to_string(),
        })
    }

    /// `host:port`, for `Host:` headers and [`TcpStream::connect`].
    pub fn authority(&self) -> String {
        format!("{}:{}", self.host, self.port)
    }

    /// The absolute request path for `suffix` (which must start with `/`).
    pub fn path(&self, suffix: &str) -> String {
        format!("{}{suffix}", self.base)
    }

    /// The base URL in display form (no trailing slash).
    pub fn display(&self) -> String {
        format!("http://{}:{}{}", self.host, self.port, self.base)
    }

    fn connect(&self, timeout: Duration) -> std::io::Result<TcpStream> {
        // Resolve + connect with a bound: a black-holed leader address
        // must not hang the follower thread indefinitely.
        let mut last_err = None;
        for addr in std::net::ToSocketAddrs::to_socket_addrs(&(self.host.as_str(), self.port))? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "address resolved to nothing")
        }))
    }
}

/// A fully-read HTTP response.
#[derive(Debug)]
pub struct Response {
    /// The status code from the status line.
    pub status: u16,
    /// Response headers, in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (by `Content-Length` when present, else to EOF).
    pub body: Vec<u8>,
}

impl Response {
    /// The first header named `name` (case-insensitive), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        http::header(&self.headers, name)
    }
}

/// Bound on a response's status line and headers together: the budget
/// the server grants a request head, so a peer that never ends its head
/// costs the follower 16 KiB, not its memory.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Most of an announced body length reserved before its bytes arrive —
/// enough for a snapshot of a ~400k-node graph in one allocation, too
/// little for a hostile `Content-Length` to exhaust memory.
const MAX_BODY_RESERVE: u64 = 64 * 1024 * 1024;

/// Sends a GET and reads the response head: the status code from the
/// status line, then the header fields under the shared grammar.  The
/// body is left unread, in the returned reader.
fn send(
    url: &LeaderUrl,
    path: &str,
    extra_headers: &[(&str, String)],
    timeout: Duration,
) -> std::io::Result<(Response, BufReader<TcpStream>)> {
    let mut stream = url.connect(timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut request = format!(
        "GET {} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n",
        url.path(path),
        url.authority()
    );
    for (name, value) in extra_headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str("\r\n");
    stream.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD_BYTES;
    let line = http::read_line(&mut reader, &mut budget)?;
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line: {line:?}"),
            )
        })?;
    let headers = http::read_fields(&mut reader, &mut budget)?;
    let response = Response {
        status,
        headers,
        body: Vec::new(),
    };
    Ok((response, reader))
}

/// One whole GET: connect, send, read status + headers + body, close.
pub(crate) fn get(
    url: &LeaderUrl,
    path: &str,
    extra_headers: &[(&str, String)],
    timeout: Duration,
) -> std::io::Result<Response> {
    let (mut response, mut reader) = send(url, path, extra_headers, timeout)?;
    let body = &mut response.body;
    match http::content_length(&response.headers)? {
        // The peer's `Content-Length` is a claim: it sizes the buffer up
        // to `MAX_BODY_RESERVE`, and past that the body grows only as its
        // bytes arrive.
        Some(length) => {
            body.reserve_exact(length.min(MAX_BODY_RESERVE) as usize);
            let read = reader.take(length).read_to_end(body)?;
            if (read as u64) < length {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("response body ended after {read} of {length} announced bytes"),
                ));
            }
        }
        None => {
            reader.read_to_end(body)?;
        }
    }
    Ok(response)
}

/// Opens a streaming GET and returns the reader positioned at the body,
/// with `read_timeout` set on the socket so callers can poll a stop flag
/// between SSE lines.  A non-200 response is an error carrying at most
/// [`MAX_HEAD_BYTES`] of its body.
pub(crate) fn open_stream(
    url: &LeaderUrl,
    path: &str,
    extra_headers: &[(&str, String)],
    connect_timeout: Duration,
    read_timeout: Duration,
) -> std::io::Result<BufReader<TcpStream>> {
    let (Response { status, .. }, reader) = send(url, path, extra_headers, connect_timeout)?;
    if status != 200 {
        // The message lands in a `replication-disconnect` event on every
        // retry, so the peer's error body is read only up to a bound.
        let mut body = Vec::new();
        let _ = reader.take(MAX_HEAD_BYTES as u64).read_to_end(&mut body);
        return Err(std::io::Error::other(format!(
            "leader answered {status} on {}: {}",
            path,
            String::from_utf8_lossy(&body)
        )));
    }
    reader.get_ref().set_read_timeout(Some(read_timeout))?;
    Ok(reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-shot stub leader: accepts one connection, reads the request
    /// head, writes `response`, and closes.
    fn stub(response: Vec<u8>) -> LeaderUrl {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = BufReader::new(stream.try_clone().unwrap());
            let mut budget = MAX_HEAD_BYTES;
            http::read_line(&mut request, &mut budget).unwrap();
            http::read_fields(&mut request, &mut budget).unwrap();
            // The client may hang up first; that is what is under test.
            let _ = stream.write_all(&response);
        });
        LeaderUrl::parse(&format!("http://127.0.0.1:{port}")).unwrap()
    }

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn an_announced_body_larger_than_what_arrives_is_a_typed_error() {
        let url = stub(b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nshort".to_vec());
        let err = get(&url, "/replication/snapshot", &[], WAIT).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");

        let url = stub(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nexact".to_vec());
        let response = get(&url, "/healthz", &[], WAIT).unwrap();
        assert_eq!((response.status, response.body), (200, b"exact".to_vec()));
    }

    #[test]
    fn an_ambiguous_content_length_is_refused() {
        for head in [
            "Content-Length: +5\r\n",
            "Content-Length: 5\r\nContent-Length: 50\r\n",
        ] {
            let url = stub(format!("HTTP/1.1 200 OK\r\n{head}\r\nhello").into_bytes());
            let err = get(&url, "/healthz", &[], WAIT).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "{head:?}: {err}"
            );
        }
    }

    #[test]
    fn a_response_head_past_the_budget_is_refused() {
        let endless = format!(
            "HTTP/1.1 200 OK\r\n{}",
            "X-Padding: abcdefgh\r\n".repeat(4096)
        );
        let err = get(&stub(endless.into_bytes()), "/healthz", &[], WAIT).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");

        let url = stub(vec![b'H'; 4 * MAX_HEAD_BYTES]);
        let err = open_stream(&url, "/replication/stream", &[], WAIT, WAIT).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn a_refused_stream_reads_a_bounded_error_body() {
        let mut answer = b"HTTP/1.1 500 Internal Server Error\r\n\r\n".to_vec();
        answer.resize(answer.len() + (4 << 20), b'x');
        let err = open_stream(&stub(answer), "/replication/stream", &[], WAIT, WAIT).unwrap_err();
        let message = err.to_string();
        assert!(message.starts_with("leader answered 500"), "{message:.80}");
        assert!(message.len() < 64 * 1024, "{} bytes", message.len());
    }

    #[test]
    fn urls_parse_with_and_without_scheme_base_and_port() {
        let url = LeaderUrl::parse("http://127.0.0.1:7878").unwrap();
        assert_eq!(url.authority(), "127.0.0.1:7878");
        assert_eq!(url.path("/replication/stream"), "/replication/stream");
        assert_eq!(url.display(), "http://127.0.0.1:7878");

        let url = LeaderUrl::parse("http://leader.example:8080/banks/").unwrap();
        assert_eq!(url.authority(), "leader.example:8080");
        assert_eq!(url.path("/healthz"), "/banks/healthz");

        let url = LeaderUrl::parse("localhost:9000").unwrap();
        assert_eq!(url.authority(), "localhost:9000");

        let url = LeaderUrl::parse("http://bare.example").unwrap();
        assert_eq!(url.authority(), "bare.example:80");

        assert!(LeaderUrl::parse("https://secure.example").is_err());
        assert!(LeaderUrl::parse("http://:7878").is_err());
        assert!(LeaderUrl::parse("http://host:notaport").is_err());
    }
}
