//! Request dispatch: one static route table over [`banks_service::Service`].
//!
//! Each row of the `ROUTES` table names the methods a path accepts and the
//! handler that serves it (the endpoints themselves are listed in the
//! crate docs).  Every handler has one signature, so dispatch, the
//! 404-versus-405 answer and keep-alive all follow from the table: a
//! handler returns whether the connection stays open — the non-streaming
//! ones honour the client's `Connection: keep-alive` for up to
//! [`KEEPALIVE_MAX_REQUESTS`] requests with [`KEEPALIVE_IDLE`] between
//! them, while SSE streams and error responses always close.  A row that
//! lists `GET` also serves `HEAD`: the `GET` handler answers through a
//! `Conn` that sends the status line and headers without the body, except
//! on the SSE routes, which send the stream header and close without
//! starting a stream.  The handlers live by resource in `query`, `admin`,
//! `debug` and `replication`.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use banks_core::sse::SseWriter;
use banks_service::{GraphSnapshot, PersistError, Service};

use crate::http::{self, Limits, ParseError, Request, STREAM_HEADER};
use crate::json::{self, JsonValue};

mod admin;
mod debug;
mod query;
mod replication;

use self::admin::{respond_checkpoint, respond_mutate, respond_slo_update, respond_swap};
use self::debug::{
    respond_events, respond_events_tail, respond_healthz, respond_metrics, respond_slo,
    respond_slow, respond_trace,
};
use self::query::respond_query;
use self::replication::{respond_replication_stream, respond_snapshot};

/// Bound on requests served over one kept-alive connection before the
/// server closes it (defence against a connection monopolised forever).
pub const KEEPALIVE_MAX_REQUESTS: usize = 64;

/// Idle time allowed between requests on a kept-alive connection (also
/// advertised in the `Keep-Alive` response header — one constant,
/// [`http::KEEPALIVE_IDLE_SECS`], drives both).
pub const KEEPALIVE_IDLE: Duration = Duration::from_secs(http::KEEPALIVE_IDLE_SECS);

/// A callback producing the next serving snapshot for `POST /admin/swap`
/// (e.g. re-extracting the graph from the system of record).
pub type GraphSource = Box<dyn Fn() -> GraphSnapshot + Send + Sync>;

/// Everything a connection handler needs, shared across the handler pool.
pub(crate) struct ServerContext {
    pub(crate) service: Arc<Service>,
    pub(crate) graph_source: Option<GraphSource>,
    /// Where writes live when this process is a follower — the `Location`
    /// a rejected `POST /admin/mutate` points at.
    pub(crate) leader_url: Option<String>,
    /// Set by [`crate::Server::shutdown`]: the two open-ended streams
    /// (replication, event tail) end at their next wake instead of
    /// outliving the server.
    pub(crate) shutdown: Arc<AtomicBool>,
}

/// An error destined for the wire: status, machine-readable code, message,
/// extra envelope members and extra headers.
struct HttpError {
    status: u16,
    code: &'static str,
    message: String,
    extras: Vec<(&'static str, String)>,
    headers: Vec<(&'static str, String)>,
}

impl HttpError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        HttpError {
            status,
            code,
            message: message.into(),
            extras: Vec::new(),
            headers: Vec::new(),
        }
    }

    fn bad_request(message: impl Into<String>) -> Self {
        HttpError::new(400, "bad_request", message)
    }

    /// A store error: 409 without a data directory, else a 500 named
    /// `failed`.
    fn persist(error: PersistError, failed: &'static str) -> Self {
        match error {
            PersistError::Disabled => HttpError::new(
                409,
                "persistence_disabled",
                "service is running without a data directory",
            ),
            error => HttpError::new(500, failed, error.to_string()),
        }
    }
}

/// Serves one connection: parse, dispatch, respond — looping while the
/// client asked for (and the endpoint allows) keep-alive, closing
/// otherwise.
pub(crate) fn handle_connection(ctx: &ServerContext, stream: TcpStream) {
    // TTFA survives the hop: answers must not sit in Nagle's buffer.
    let _ = stream.set_nodelay(true);
    // A peer that stops sending mid-request cannot pin a handler forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    // Nor can one that stops *reading*: a full send buffer (suspended
    // client, zero TCP window) fails the blocked write after this bound,
    // which the stream loop treats as a disconnect and cancels the query.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader_stream);

    let limits = Limits::default();
    let mut served = 0usize;
    loop {
        let request = match http::read_request(&mut reader, &limits) {
            Ok(request) => request,
            Err(error) => {
                let error = match error {
                    // Idle keep-alive connections end here: either an
                    // orderly close or the idle read timeout surfacing as
                    // an I/O error.
                    ParseError::ConnectionClosed | ParseError::Io(_) => return,
                    ParseError::BadRequest(msg) => HttpError::bad_request(msg),
                    ParseError::HeadTooLarge => {
                        HttpError::new(431, "headers_too_large", "request head too large")
                    }
                    ParseError::BodyTooLarge => {
                        HttpError::new(413, "body_too_large", "request body too large")
                    }
                };
                respond_error(&Conn::new(&stream, false), error);
                return;
            }
        };
        served += 1;

        // Opt-in persistence: the client must say `Connection: keep-alive`,
        // and the request budget bounds how long one connection can
        // monopolise a handler.  The handler has the last word — streams
        // and error responses close whatever was asked.
        let keep = served < KEEPALIVE_MAX_REQUESTS
            && request.header("connection").is_some_and(|v| {
                v.split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("keep-alive"))
            });
        if !dispatch(ctx, &request, &stream, keep) {
            return;
        }
        // The next request gets the (shorter) keep-alive idle budget.
        let _ = stream.set_read_timeout(Some(KEEPALIVE_IDLE));
    }
}

/// Every endpoint's signature: the request, the connection it arrived on,
/// and whether the client may keep that connection; returns whether it
/// stays open.
type Handler = fn(&ServerContext, &Request, &Conn, bool) -> bool;

/// The connection a handler answers on.
pub(crate) struct Conn<'s> {
    pub(crate) stream: &'s TcpStream,
    /// Whether the request was `HEAD`: responses then carry no body.
    head: bool,
}

impl<'s> Conn<'s> {
    fn new(stream: &'s TcpStream, head: bool) -> Self {
        Conn { stream, head }
    }

    /// Writes one complete response, without its body when answering
    /// `HEAD`, and returns `keep_alive`.
    fn respond(
        &self,
        status: u16,
        headers: &[(&str, &str)],
        content_type: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> bool {
        let mut w = self.stream;
        let _ = if self.head {
            let head = http::response_head(status, headers, content_type, body.len(), keep_alive);
            w.write_all(head.as_bytes()).and_then(|()| w.flush())
        } else {
            http::write_response(&mut w, status, headers, content_type, body, keep_alive)
        };
        keep_alive
    }
}

/// The one prefix route; its handler reads the query id after it.
const TRACE_ROUTE: &str = "/debug/trace/";

/// The endpoints: `(methods, path, handler)`.  A path ending in `/`
/// matches every path under it; any other path matches exactly.
static ROUTES: &[(&[&str], &str, Handler)] = &[
    (&["POST", "GET"], "/query", respond_query),
    (&["GET"], "/metrics", respond_metrics),
    (&["GET"], "/debug/slow", respond_slow),
    (&["GET"], TRACE_ROUTE, respond_trace),
    (&["GET"], "/debug/slo", respond_slo),
    (&["GET"], "/debug/events", respond_events),
    (&["GET"], "/debug/events/tail", respond_events_tail),
    (&["POST"], "/admin/swap", respond_swap),
    (&["POST"], "/admin/mutate", respond_mutate),
    (&["POST"], "/admin/checkpoint", respond_checkpoint),
    (&["POST"], "/admin/slo", respond_slo_update),
    (&["GET"], "/replication/stream", respond_replication_stream),
    (&["GET"], "/replication/snapshot", respond_snapshot),
    (&["GET"], "/healthz", respond_healthz),
];

/// The routes whose `GET` answer is an SSE stream.
const STREAM_ROUTES: [&str; 3] = ["/query", "/debug/events/tail", "/replication/stream"];

/// Serves `request` from its row of [`ROUTES`]: 404 when no row has its
/// path, 405 (with the row's methods, and `HEAD` after `GET`, as `Allow`)
/// when the row does not list its method.  `HEAD` is served where `GET`
/// is, by the `GET` handler without the body; on a [`STREAM_ROUTES`] path
/// it gets the stream header alone.
fn dispatch(ctx: &ServerContext, request: &Request, stream: &TcpStream, keep: bool) -> bool {
    let path = request.path.as_str();
    let head = request.method == "HEAD";
    let conn = Conn::new(stream, head);
    let row = ROUTES.iter().find(|(_, route, _)| {
        if route.ends_with('/') {
            path.starts_with(route)
        } else {
            path == *route
        }
    });
    let Some((methods, route, handler)) = row else {
        return respond_error(
            &conn,
            HttpError::new(404, "not_found", format!("no route for {path}")),
        );
    };
    let serves_get = methods.contains(&"GET");
    if !(methods.contains(&request.method.as_str()) || head && serves_get) {
        let mut error = HttpError::new(
            405,
            "method_not_allowed",
            format!("{} not allowed on {path}", request.method),
        );
        let mut allow = methods.to_vec();
        if serves_get {
            allow.push("HEAD");
        }
        error.headers.push(("Allow", allow.join(", ")));
        return respond_error(&conn, error);
    }
    if head && STREAM_ROUTES.contains(route) {
        let mut w = stream;
        let _ = w.write_all(STREAM_HEADER.as_bytes());
        return false;
    }
    handler(ctx, request, &conn, keep)
}

/// Writes `error` as its JSON envelope and returns `false`: an error
/// response always closes the connection.
fn respond_error(w: &Conn, error: HttpError) -> bool {
    let body = json::error_body(error.status, error.code, &error.message, &error.extras);
    let headers: Vec<(&str, &str)> = error
        .headers
        .iter()
        .map(|(n, v)| (*n, v.as_str()))
        .collect();
    w.respond(
        error.status,
        &headers,
        "application/json",
        body.as_bytes(),
        false,
    )
}

/// Writes a 200 JSON response and returns whether the connection stays
/// open: `keep_alive`.
fn reply_json(w: &Conn, body: &str, keep_alive: bool) -> bool {
    w.respond(200, &[], "application/json", body.as_bytes(), keep_alive)
}

/// The request body as text and as JSON, or the 400 to send back: a body
/// that is not UTF-8, is empty (`expected` says what belongs there) or is
/// not JSON.
fn json_body<'r>(request: &'r Request, expected: &str) -> Result<(&'r str, JsonValue), HttpError> {
    let body = request.body_utf8().map_err(HttpError::bad_request)?;
    if body.trim().is_empty() {
        return Err(HttpError::bad_request(format!(
            "empty body (expected {expected})"
        )));
    }
    let value =
        json::parse(body).map_err(|e| HttpError::bad_request(format!("invalid JSON body: {e}")))?;
    Ok((body, value))
}

/// The query parameter `name`, when present and parseable as a `T`.
fn param<T: std::str::FromStr>(request: &Request, name: &str) -> Option<T> {
    request.query_param(name)?.parse().ok()
}

/// Opens an SSE stream: writes [`STREAM_HEADER`] and returns the resume
/// cursor with the writer, or `None` when the peer is already gone.  The
/// cursor is `Last-Event-ID` (the header wins), else the query parameter
/// `name`, else 0.
fn open_stream<'s>(
    request: &Request,
    stream: &'s TcpStream,
    name: Option<&str>,
) -> Option<(u64, SseWriter<&'s TcpStream>)> {
    let cursor = request
        .header("last-event-id")
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .or_else(|| param(request, name?))
        .unwrap_or(0);
    let mut writer = stream;
    writer.write_all(STREAM_HEADER.as_bytes()).ok()?;
    Some((cursor, SseWriter::new(writer)))
}

/// How long an idle stream (replication or event tail) blocks before it
/// probes its peer and sends a keep-alive.
const STREAM_KEEPALIVE: Duration = Duration::from_secs(1);

/// Whether the SSE peer has gone away.
///
/// SSE clients send nothing after the request, so any readable state is
/// either EOF / reset (peer closed — the signal we want) or stray pipelined
/// bytes (ignored).  A non-blocking one-byte `peek` distinguishes the
/// cases without consuming anything.  A peer that parked stray bytes in
/// the buffer and *then* vanished defeats the peek (it keeps returning
/// the buffered byte); the periodic keep-alive write in the stream loop
/// catches that case through its write error.
fn peer_disconnected(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let verdict = match stream.peek(&mut probe) {
        Ok(0) => true,                                                 // orderly FIN
        Ok(_) => false,                                                // stray bytes
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false, // healthy and idle
        Err(_) => true,                                                // reset
    };
    if stream.set_nonblocking(false).is_err() {
        return true;
    }
    verdict
}
