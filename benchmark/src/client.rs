//! The load generator: one exchange state machine, driven either by
//! blocking closed-loop clients or by the single-threaded open loop that
//! multiplexes non-blocking sockets over `ppoll`.
//!
//! Every latency is client-observed.  A closed-loop request is timed from
//! the instant before `connect`; an open-loop request from the instant it
//! was **due**, so a stall makes every request scheduled behind it late
//! instead of silently thinning the load.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use banks_core::json::{self, JsonValue};

use crate::sys::{self, PollFd};
use crate::wire::{self, strip_timing, Piece, ResponseParser};

/// What the service reported about one query in its `finished` frame and,
/// when the request was traced, its `trace` frame (µs; absent → 0).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerSide {
    pub cache_hit: bool,
    pub epoch: u64,
    pub queue_wait_us: f64,
    /// Service-side time to first answer; `None` when no answer.
    pub engine_ttfa_us: Option<f64>,
    /// Spans of the `trace` frame, when one was sent.
    pub trace: Option<TraceSpans>,
}

/// Durations (and the total) of one query's phase trace, µs.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceSpans {
    pub admit: f64,
    pub resolve: f64,
    pub queue: f64,
    pub expand: f64,
    pub total: f64,
}

/// One query as the client saw it.
#[derive(Clone, Debug)]
pub struct QuerySample {
    /// Position in the run's request sequence.
    pub seq: usize,
    /// Index into the workload's query pool.
    pub query: usize,
    pub traced: bool,
    /// Why the request failed: anything but 200 + `finished` read + (where
    /// checked inline) oracle-identical answers.
    pub error: Option<String>,
    /// Completion time, seconds since the window opened.
    pub end_s: f64,
    /// Open loop: how long after its due time the request was sent.
    pub late_ms: f64,
    pub connect_us: f64,
    pub ttfa_ms: Option<f64>,
    pub done_ms: f64,
    pub bytes: usize,
    pub server: ServerSide,
    /// The timing-stripped answer payloads, kept only for requests the
    /// open loop samples for the post-run oracle check.
    pub answers: Option<String>,
}

impl QuerySample {
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// One `POST /admin/mutate` as the client saw it.
#[derive(Clone, Debug)]
pub struct MutateSample {
    pub batch: usize,
    /// Why the batch failed: anything but 200 + fully applied.
    pub error: Option<String>,
    /// Due → durable acknowledgement read.
    pub ack_ms: f64,
    pub acked_at: Instant,
    pub epoch: u64,
}

impl MutateSample {
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// State of one in-flight response.
struct Exchange {
    parser: ResponseParser,
    start: Instant,
    status: u16,
    ttfa: Option<Duration>,
    done: Option<Duration>,
    answers: String,
    finished: String,
    trace: String,
    body: Option<Vec<u8>>,
}

impl Exchange {
    fn new(start: Instant) -> Self {
        Exchange {
            parser: ResponseParser::new(),
            start,
            status: 0,
            ttfa: None,
            done: None,
            answers: String::new(),
            finished: String::new(),
            trace: String::new(),
            body: None,
        }
    }

    fn on_bytes(&mut self, bytes: &[u8]) -> Result<(), String> {
        let Exchange {
            parser,
            start,
            status,
            ttfa,
            done,
            answers,
            finished,
            trace,
            body,
        } = self;
        parser.feed(bytes, |piece| match piece {
            Piece::Head(code) => *status = code,
            Piece::Event { name, data } => match name.as_str() {
                "answer" => {
                    ttfa.get_or_insert_with(|| start.elapsed());
                    if !answers.is_empty() {
                        answers.push('\n');
                    }
                    answers.push_str(&strip_timing(&data));
                }
                "finished" => {
                    *done = Some(start.elapsed());
                    *finished = data;
                }
                "trace" => *trace = data,
                _ => {}
            },
            Piece::Body(bytes) => {
                *done = Some(start.elapsed());
                *body = Some(bytes);
            }
        })
    }

    /// Folds the finished exchange into a sample.  `expected` is the
    /// oracle's answer text when the caller checks inline.
    fn into_sample(
        self,
        meta: RequestMeta,
        connect: Duration,
        window: Instant,
        expected: Option<&str>,
    ) -> QuerySample {
        let mut error = None;
        if self.status != 200 {
            error = Some(format!("status {}", self.status));
        } else if self.done.is_none() {
            error = Some("stream ended without a finished frame".to_string());
        } else if expected.is_some_and(|e| e != self.answers) {
            error = Some(format!("query {} differs from the oracle", meta.query));
        }
        let server = parse_server_side(&self.finished, &self.trace);
        let done = self.done.unwrap_or_else(|| self.start.elapsed());
        QuerySample {
            seq: meta.seq,
            query: meta.query,
            traced: meta.traced,
            error,
            end_s: (self.start + done)
                .saturating_duration_since(window)
                .as_secs_f64(),
            late_ms: meta.late.as_secs_f64() * 1e3,
            connect_us: connect.as_secs_f64() * 1e6,
            ttfa_ms: self.ttfa.map(|d| d.as_secs_f64() * 1e3),
            done_ms: done.as_secs_f64() * 1e3,
            bytes: self.parser.bytes,
            server,
            answers: meta.keep_answers.then_some(self.answers),
        }
    }
}

#[derive(Clone, Copy)]
struct RequestMeta {
    seq: usize,
    query: usize,
    traced: bool,
    late: Duration,
    keep_answers: bool,
}

fn failed_sample(meta: RequestMeta, window: Instant, error: String) -> QuerySample {
    QuerySample {
        seq: meta.seq,
        query: meta.query,
        traced: meta.traced,
        error: Some(error),
        end_s: window.elapsed().as_secs_f64(),
        late_ms: meta.late.as_secs_f64() * 1e3,
        connect_us: 0.0,
        ttfa_ms: None,
        done_ms: 0.0,
        bytes: 0,
        server: ServerSide::default(),
        answers: None,
    }
}

fn num(value: Option<&JsonValue>) -> f64 {
    value.and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn parse_server_side(finished: &str, trace: &str) -> ServerSide {
    let mut side = ServerSide::default();
    if let Ok(v) = json::parse(finished) {
        side.cache_hit = v.get("cache_hit") == Some(&JsonValue::Bool(true));
        side.epoch = num(v.get("epoch")) as u64;
        side.queue_wait_us = num(v.get("queue_wait_us"));
        side.engine_ttfa_us = v.get("time_to_first_answer_us").and_then(JsonValue::as_f64);
    }
    if let Ok(v) = json::parse(trace) {
        let mut spans = TraceSpans {
            total: num(v.get("total_us")),
            ..TraceSpans::default()
        };
        if let Some(JsonValue::Array(items)) = v.get("spans") {
            for item in items {
                let d = num(item.get("end_us")) - num(item.get("start_us"));
                match item.get("name").and_then(JsonValue::as_str) {
                    Some("admit") => spans.admit = d,
                    Some("resolve") => spans.resolve = d,
                    Some("queue") => spans.queue = d,
                    Some("expand") => spans.expand = d,
                    _ => {}
                }
            }
        }
        side.trace = Some(spans);
    }
    side
}

/// The request bytes of a query pool, untraced and traced, built once.
pub struct RequestSet {
    plain: Vec<Vec<u8>>,
    traced: Vec<Vec<u8>>,
}

impl RequestSet {
    pub fn new(pool: &[Vec<String>], top_k: usize) -> RequestSet {
        let bytes = |traced| {
            pool.iter()
                .map(|k| wire::query_request(&wire::query_body(k, top_k), traced))
                .collect()
        };
        RequestSet {
            plain: bytes(false),
            traced: bytes(true),
        }
    }

    /// The untraced requests (what the parse probes time).
    pub fn plain(&self) -> &[Vec<u8>] {
        &self.plain
    }

    fn get(&self, query: usize, traced: bool) -> &[u8] {
        if traced {
            &self.traced[query]
        } else {
            &self.plain[query]
        }
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // Requests are one small write; without this the kernel may hold it
    // back waiting to coalesce.
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Blocking reads into `exchange` until EOF — or, with `stop_at_body`,
/// until a `Content-Length` body is complete.
fn read_blocking(
    stream: &mut TcpStream,
    exchange: &mut Exchange,
    stop_at_body: bool,
) -> Result<(), String> {
    // A wedged server must fail the run, not hang it.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut buf = [0u8; 16 * 1024];
    while !(stop_at_body && exchange.body.is_some()) {
        match stream.read(&mut buf) {
            Ok(0) if stop_at_body => return Err("connection closed before the body".to_string()),
            Ok(0) => break,
            Ok(n) => exchange.on_bytes(&buf[..n])?,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    Ok(())
}

/// One blocking round-trip: connect, send, read to EOF.
fn blocking_query(
    addr: SocketAddr,
    request: &[u8],
    meta: RequestMeta,
    window: Instant,
    expected: Option<&str>,
) -> QuerySample {
    let start = Instant::now();
    let mut stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => return failed_sample(meta, window, format!("connect: {e}")),
    };
    let connected = start.elapsed();
    if let Err(e) = stream.write_all(request) {
        return failed_sample(meta, window, format!("send: {e}"));
    }
    let mut exchange = Exchange::new(start);
    if let Err(e) = read_blocking(&mut stream, &mut exchange, false) {
        return failed_sample(meta, window, e);
    }
    exchange.into_sample(meta, connected, window, expected)
}

/// A closed loop: `clients` threads share one cursor over the cyclic
/// request sequence; each sends its next request only after the previous
/// response ended.
pub struct ClosedLoop<'a> {
    pub addr: SocketAddr,
    pub clients: usize,
    pub requests: &'a RequestSet,
    /// Oracle answer text per pool entry: every response is checked
    /// (`None` only for warm-up traffic nobody measures).
    pub expected: Option<&'a [String]>,
    /// The cycle: request `n` of the run is pool entry `order[n % len]`.
    pub order: &'a [usize],
    /// Trace every other request, starting one later each cycle, so every
    /// pool entry is sent traced and untraced equally often.
    pub trace: bool,
}

impl ClosedLoop<'_> {
    /// Runs until `deadline` or until `max_requests` were started,
    /// whichever comes first; returns the samples in sequence order.
    pub fn run(&self, window: Instant, deadline: Instant, max_requests: usize) -> Vec<QuerySample> {
        let cursor = AtomicUsize::new(0);
        let mut samples: Vec<QuerySample> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let seq = cursor.fetch_add(1, Ordering::Relaxed);
                            if seq >= max_requests || Instant::now() >= deadline {
                                return mine;
                            }
                            let query = self.order[seq % self.order.len()];
                            let traced = self.trace && (seq + seq / self.order.len()) % 2 == 1;
                            let meta = RequestMeta {
                                seq,
                                query,
                                traced,
                                late: Duration::ZERO,
                                keep_answers: false,
                            };
                            mine.push(blocking_query(
                                self.addr,
                                self.requests.get(query, traced),
                                meta,
                                window,
                                self.expected.map(|e| e[query].as_str()),
                            ));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("closed-loop client panicked"))
                .collect()
        });
        samples.sort_by_key(|s| s.seq);
        samples
    }
}

/// What an open loop sends at one due time.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Pool index; `check` keeps the answers for the oracle.
    Query { query: usize, check: bool },
    /// Ingest batch index.
    Mutate { batch: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Due {
    pub at: Duration,
    pub op: Op,
}

/// Requests a kept-alive mutate connection carries before the client
/// reconnects (the server closes at 64).
const MUTATE_CONN_REQUESTS: usize = 60;

/// An open loop: one thread sends each request at its due time whether or
/// not earlier ones have completed, and reads all responses through
/// non-blocking sockets.
pub struct OpenLoop<'a> {
    pub addr: SocketAddr,
    pub schedule: &'a [Due],
    pub requests: &'a RequestSet,
    /// Send every query traced (the offered load is fixed, so there is
    /// no untraced throughput to compare with).
    pub trace: bool,
    pub mutate_requests: &'a [Vec<u8>],
    /// Queries in flight beyond this are failed, not sent.
    pub inflight_cap: usize,
    /// How long after the last due time unfinished requests may run.
    pub grace: Duration,
}

struct InflightQuery {
    stream: TcpStream,
    exchange: Exchange,
    meta: RequestMeta,
    connect: Duration,
}

#[derive(Default)]
struct MutateConn {
    stream: Option<TcpStream>,
    served: usize,
    /// (batch, due) waiting for the connection.
    queue: VecDeque<(usize, Instant)>,
    /// The request whose response is being read.
    current: Option<(usize, Exchange)>,
}

/// Reads whatever is available; `Ok(true)` at EOF.
fn drain_socket(stream: &mut TcpStream, exchange: &mut Exchange) -> Result<bool, String> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(true),
            Ok(n) => exchange.on_bytes(&buf[..n])?,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

impl OpenLoop<'_> {
    pub fn run(&self, window: Instant) -> (Vec<QuerySample>, Vec<MutateSample>) {
        let mut queries = Vec::new();
        let mut mutates = Vec::new();
        let mut inflight: Vec<InflightQuery> = Vec::new();
        let mut writer = MutateConn::default();
        let mut next = 0usize;
        let last_due = self.schedule.last().map_or(Duration::ZERO, |d| d.at);
        loop {
            // 1. send everything that is due
            while next < self.schedule.len() && self.schedule[next].at <= window.elapsed() {
                let due = self.schedule[next];
                let due_at = window + due.at;
                match due.op {
                    Op::Query { query, check } => {
                        let meta = RequestMeta {
                            seq: next,
                            query,
                            traced: self.trace,
                            late: Instant::now().saturating_duration_since(due_at),
                            keep_answers: check,
                        };
                        match self.send_query(meta, due_at, inflight.len()) {
                            Ok(q) => inflight.push(q),
                            Err(e) => queries.push(failed_sample(meta, window, e)),
                        }
                    }
                    Op::Mutate { batch } => writer.queue.push_back((batch, due_at)),
                }
                next += 1;
            }
            self.pump_writer(&mut writer, &mut mutates);

            let idle = inflight.is_empty() && writer.current.is_none() && writer.queue.is_empty();
            if next == self.schedule.len() && idle {
                break;
            }
            if window.elapsed() > last_due + self.grace {
                for q in inflight.drain(..) {
                    queries.push(failed_sample(q.meta, window, "timed out".to_string()));
                }
                let stuck = writer.current.take().map(|(batch, _)| batch);
                for batch in stuck.into_iter().chain(writer.queue.drain(..).map(|q| q.0)) {
                    mutates.push(failed_mutate(batch, "timed out".to_string()));
                }
                break;
            }

            // 2. sleep until the next due time or the next readable socket
            let timeout = match self.schedule.get(next) {
                Some(due) => due.at.saturating_sub(window.elapsed()),
                None => Duration::from_millis(100),
            };
            let mut fds: Vec<PollFd> = inflight
                .iter()
                .map(|q| q.stream.as_raw_fd())
                .chain(
                    writer
                        .current
                        .as_ref()
                        .and(writer.stream.as_ref())
                        .map(|s| s.as_raw_fd()),
                )
                .map(|fd| PollFd {
                    fd,
                    events: sys::POLLIN,
                    revents: 0,
                })
                .collect();
            if sys::wait_readable(&mut fds, timeout) == 0 {
                continue;
            }

            // 3. read what arrived
            let mut i = 0;
            while i < inflight.len() {
                if fds[i].revents == 0 {
                    i += 1;
                    continue;
                }
                let q = &mut inflight[i];
                match drain_socket(&mut q.stream, &mut q.exchange) {
                    Ok(false) => i += 1,
                    Ok(true) => {
                        let q = inflight.swap_remove(i);
                        fds.swap_remove(i);
                        queries.push(q.exchange.into_sample(q.meta, q.connect, window, None));
                    }
                    Err(e) => {
                        let q = inflight.swap_remove(i);
                        fds.swap_remove(i);
                        queries.push(failed_sample(q.meta, window, e));
                    }
                }
            }
            self.read_writer(&mut writer, &mut mutates);
        }
        queries.sort_by_key(|s| s.seq);
        (queries, mutates)
    }

    fn send_query(
        &self,
        meta: RequestMeta,
        due_at: Instant,
        inflight: usize,
    ) -> Result<InflightQuery, String> {
        if inflight >= self.inflight_cap {
            return Err(format!("over the in-flight cap of {}", self.inflight_cap));
        }
        let started = Instant::now();
        let mut stream = connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let connect = started.elapsed();
        stream
            .write_all(self.requests.get(meta.query, meta.traced))
            .map_err(|e| format!("send: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        Ok(InflightQuery {
            stream,
            exchange: Exchange::new(due_at),
            meta,
            connect,
        })
    }

    /// Sends the next queued batch when the connection is free.
    fn pump_writer(&self, writer: &mut MutateConn, out: &mut Vec<MutateSample>) {
        if writer.current.is_some() {
            return;
        }
        let Some((batch, due_at)) = writer.queue.pop_front() else {
            return;
        };
        if writer.served >= MUTATE_CONN_REQUESTS {
            writer.stream = None;
        }
        if writer.stream.is_none() {
            writer.served = 0;
            match connect(self.addr).and_then(|s| s.set_nonblocking(true).map(|()| s)) {
                Ok(s) => writer.stream = Some(s),
                Err(e) => {
                    out.push(failed_mutate(batch, format!("connect: {e}")));
                    return;
                }
            }
        }
        let stream = writer.stream.as_mut().expect("connected above");
        // The request fits the socket buffer, so a non-blocking write
        // either takes all of it or the connection is broken.
        match stream.write(&self.mutate_requests[batch]) {
            Ok(n) if n == self.mutate_requests[batch].len() => {
                writer.served += 1;
                writer.current = Some((batch, Exchange::new(due_at)));
            }
            other => {
                writer.stream = None;
                out.push(failed_mutate(batch, format!("send: {other:?}")));
            }
        }
    }

    fn read_writer(&self, writer: &mut MutateConn, out: &mut Vec<MutateSample>) {
        let (Some(stream), Some((batch, exchange))) =
            (writer.stream.as_mut(), writer.current.as_mut())
        else {
            return;
        };
        let batch = *batch;
        match drain_socket(stream, exchange) {
            Ok(false) if exchange.body.is_none() => {}
            Ok(_) => {
                let (_, exchange) = writer.current.take().expect("checked above");
                if exchange.body.is_none() {
                    writer.stream = None;
                    out.push(failed_mutate(batch, "connection closed".to_string()));
                    return;
                }
                out.push(mutate_sample(batch, exchange));
            }
            Err(e) => {
                writer.current = None;
                writer.stream = None;
                out.push(failed_mutate(batch, e));
            }
        }
    }
}

fn failed_mutate(batch: usize, error: String) -> MutateSample {
    MutateSample {
        batch,
        error: Some(error),
        ack_ms: 0.0,
        acked_at: Instant::now(),
        epoch: 0,
    }
}

fn mutate_sample(batch: usize, exchange: Exchange) -> MutateSample {
    let done = exchange.done.expect("body implies done");
    let body = exchange.body.expect("caller checked");
    let text = String::from_utf8_lossy(&body);
    let value = json::parse(&text).ok();
    let swapped = value
        .as_ref()
        .is_some_and(|v| v.get("swapped") == Some(&JsonValue::Bool(true)));
    let rejected = num(value.as_ref().and_then(|v| v.get("rejected")));
    let error = if exchange.status != 200 {
        Some(format!("status {}: {text}", exchange.status))
    } else if !swapped || rejected > 0.0 {
        Some(format!("batch {batch} not fully applied: {text}"))
    } else {
        None
    };
    MutateSample {
        batch,
        error,
        ack_ms: done.as_secs_f64() * 1e3,
        acked_at: exchange.start + done,
        epoch: num(value.as_ref().and_then(|v| v.get("epoch"))) as u64,
    }
}

/// One blocking `GET` (used for `/metrics` scrapes); returns
/// (status, body, elapsed).
pub fn http_get(
    addr: SocketAddr,
    path: &str,
    headers: &str,
) -> Result<(u16, Vec<u8>, Duration), String> {
    let start = Instant::now();
    let mut stream = connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n{headers}\r\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut exchange = Exchange::new(start);
    read_blocking(&mut stream, &mut exchange, true)?;
    let elapsed = exchange.done.expect("body implies done");
    Ok((exchange.status, exchange.body.expect("loop exit"), elapsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A one-thread server that answers every request with a minimal SSE
    /// stream, but stalls `stall` before serving request number
    /// `stall_on`.
    fn stub_server(stall_on: usize, stall: Duration, requests: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for n in 0..requests {
                let (mut stream, _) = listener.accept().unwrap();
                if n == stall_on {
                    std::thread::sleep(stall);
                }
                let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 2 {
                    line.clear();
                }
                stream
                    .write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\r\n\
                          event: answer\nid: 1\ndata: {\"rank\":0,\"tree\":{}}\n\n\
                          event: finished\ndata: {\"cache_hit\":false,\"epoch\":1}\n\n",
                    )
                    .unwrap();
            }
        });
        addr
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Ten requests 10 ms apart; the single-threaded stub stalls
        // 200 ms on the third.  Requests scheduled behind the stall were
        // sent on time but served late: their latency must include the
        // wait, which a send-time clock on a blocked sender would hide.
        let addr = stub_server(2, Duration::from_millis(200), 10);
        let request = RequestSet {
            plain: vec![b"GET /x HTTP/1.1\r\n\r\n".to_vec()],
            traced: Vec::new(),
        };
        let schedule: Vec<Due> = (0..10)
            .map(|i| Due {
                at: Duration::from_millis(10 * i),
                op: Op::Query {
                    query: 0,
                    check: true,
                },
            })
            .collect();
        let open = OpenLoop {
            addr,
            schedule: &schedule,
            requests: &request,
            trace: false,
            mutate_requests: &[],
            inflight_cap: 64,
            grace: Duration::from_secs(5),
        };
        let (samples, _) = open.run(Instant::now());
        assert_eq!(samples.len(), 10);
        assert!(samples.iter().all(QuerySample::ok), "{samples:?}");
        assert!(samples[0].done_ms < 100.0 && samples[1].done_ms < 100.0);
        // request 3 (due at 30 ms) waits out the stall that began ~20 ms
        for later in &samples[3..6] {
            assert!(later.done_ms > 120.0, "inflated by the stall: {later:?}");
            assert!(later.late_ms < 50.0, "but sent on time: {later:?}");
        }
        assert_eq!(
            samples[0].answers.as_deref(),
            Some("{\"rank\":0,\"tree\":{}}")
        );
    }

    #[test]
    fn open_loop_fails_requests_beyond_the_inflight_cap() {
        let addr = stub_server(0, Duration::from_millis(300), 2);
        let request = RequestSet {
            plain: vec![b"GET /x HTTP/1.1\r\n\r\n".to_vec()],
            traced: Vec::new(),
        };
        let schedule: Vec<Due> = (0..4)
            .map(|i| Due {
                at: Duration::from_millis(i),
                op: Op::Query {
                    query: 0,
                    check: false,
                },
            })
            .collect();
        let open = OpenLoop {
            addr,
            schedule: &schedule,
            requests: &request,
            trace: false,
            mutate_requests: &[],
            inflight_cap: 2,
            grace: Duration::from_secs(5),
        };
        let (samples, _) = open.run(Instant::now());
        let failed: Vec<_> = samples.iter().filter(|s| !s.ok()).collect();
        assert_eq!(failed.len(), 2, "{samples:?}");
        assert!(failed[0]
            .error
            .as_deref()
            .unwrap()
            .contains("in-flight cap"));
    }
}
