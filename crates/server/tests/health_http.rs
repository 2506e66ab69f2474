//! Loopback tests for the judgment surface: `/debug/slo`, the structured
//! event endpoints (JSON page + live SSE tail with `Last-Event-ID`
//! resume), resumable `/query` answer streams, and the end-to-end
//! acceptance path — an induced latency regression flips `/healthz` via
//! burn rate and the paired alert events flow out over HTTP.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use banks_core::sse::{self, SseEvent};
use banks_graph::{DataGraph, GraphBuilder};
use banks_server::json::{self, JsonValue};
use banks_server::Server;
use banks_service::{Service, SloSpec};

mod common;
use common::{body_of, get, header_of, send, status_of};

fn tiny_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    let a = b.add_node("author", "Jim Gray");
    let p0 = b.add_node("paper", "Granularity of locks");
    let p1 = b.add_node("paper", "Locks in shared databases");
    let p2 = b.add_node("paper", "Notes on locks and latches");
    for (i, p) in [p0, p1, p2].into_iter().enumerate() {
        let w = b.add_node("writes", format!("w{i}"));
        b.add_edge(w, a).unwrap();
        b.add_edge(w, p).unwrap();
    }
    b.build_default()
}

fn get_json(addr: std::net::SocketAddr, path: &str) -> JsonValue {
    let response = get(addr, path);
    let (head, body) = response.split_once("\r\n\r\n").expect("header split");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    json::parse(body).expect("JSON body")
}

/// Opens the event tail (optionally resuming from `last_event_id`) and
/// reads until `want` event frames arrived or the deadline passed, then
/// drops the connection — the server notices through its peer probe.
fn read_tail(
    addr: std::net::SocketAddr,
    last_event_id: Option<u64>,
    want: usize,
    deadline: Duration,
) -> Vec<SseEvent> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let resume = last_event_id.map_or_else(String::new, |id| format!("Last-Event-ID: {id}\r\n"));
    conn.write_all(
        format!("GET /debug/events/tail HTTP/1.1\r\nHost: t\r\n{resume}\r\n").as_bytes(),
    )
    .expect("send request");
    let start = Instant::now();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    while start.elapsed() < deadline {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("tail read failed: {e}"),
        }
        let text = String::from_utf8_lossy(&raw);
        if let Some((_, body)) = text.split_once("\r\n\r\n") {
            if sse::parse(body)
                .iter()
                .filter(|f| f.name == "event")
                .count()
                >= want
            {
                break;
            }
        }
    }
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("stream header");
    assert!(head.contains("text/event-stream"), "head: {head}");
    sse::parse(body)
        .into_iter()
        .filter(|f| f.name == "event")
        .collect()
}

fn wait_for(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    pred()
}

#[test]
fn debug_slo_serves_the_stored_report() {
    let service = Arc::new(
        Service::builder(tiny_graph())
            .workers(1)
            .collector_cadence(Duration::from_millis(20))
            .slos(SloSpec::defaults())
            .build(),
    );
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    // The report is written by the collector: give it a tick.
    assert!(
        wait_for(Duration::from_secs(5), || {
            service.time_series().latest().is_some()
        }),
        "collector never ticked"
    );
    let v = get_json(addr, "/debug/slo");
    assert_eq!(v.get("health").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(
        v.get("collector_cadence_ms").and_then(JsonValue::as_usize),
        Some(20)
    );
    let rows = match v.get("slos") {
        Some(JsonValue::Array(rows)) => rows,
        other => panic!("expected slos array, got {other:?}"),
    };
    assert_eq!(rows.len(), 3, "the three stock objectives");
    let names: Vec<&str> = rows
        .iter()
        .map(|r| r.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(names, vec!["ttfa_p99", "error_ratio", "queue_wait_p90"]);
    for row in rows {
        assert_eq!(row.get("state").and_then(JsonValue::as_str), Some("ok"));
        assert!(row.get("threshold").and_then(JsonValue::as_f64).is_some());
        for field in ["metric", "value", "burn_fast", "burn_slow"] {
            assert!(row.get(field).is_some(), "row must include {field}");
        }
    }

    // The health verdict also rides /healthz next to the liveness status.
    let health = get_json(addr, "/healthz");
    assert_eq!(health.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(health.get("health").and_then(JsonValue::as_str), Some("ok"));
    server.shutdown();
}

#[test]
fn debug_events_pages_by_id() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    // Two swaps produce two events with increasing ids.
    for _ in 0..2 {
        let response = send(addr, "POST /admin/swap HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200"));
    }
    let v = get_json(addr, "/debug/events");
    let events = match v.get("events") {
        Some(JsonValue::Array(events)) => events,
        other => panic!("expected events array, got {other:?}"),
    };
    assert!(events.len() >= 2, "got {} events", events.len());
    let ids: Vec<u64> = events
        .iter()
        .map(|e| e.get("id").and_then(JsonValue::as_usize).unwrap() as u64)
        .collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend: {ids:?}");
    let last_id = v.get("last_id").and_then(JsonValue::as_usize).unwrap() as u64;
    assert_eq!(last_id, *ids.last().unwrap());
    assert_eq!(
        v.get("count").and_then(JsonValue::as_usize),
        Some(events.len())
    );
    assert_eq!(v.get("dropped").and_then(JsonValue::as_usize), Some(0));
    for event in events {
        assert!(event.get("at_unix_ms").is_some());
        assert!(event.get("level").and_then(JsonValue::as_str).is_some());
        assert!(event.get("message").and_then(JsonValue::as_str).is_some());
    }
    assert!(events
        .iter()
        .any(|e| e.get("kind").and_then(JsonValue::as_str) == Some("swap")));

    // `since` pages strictly after the cursor; `limit` caps the page.
    let mid = ids[ids.len() / 2 - 1];
    let page = get_json(addr, &format!("/debug/events?since={mid}"));
    match page.get("events") {
        Some(JsonValue::Array(tail)) => {
            assert!(tail
                .iter()
                .all(|e| e.get("id").and_then(JsonValue::as_usize).unwrap() as u64 > mid));
            assert_eq!(tail.len(), ids.iter().filter(|&&i| i > mid).count());
        }
        other => panic!("expected events array, got {other:?}"),
    }
    let capped = get_json(addr, "/debug/events?limit=1");
    assert_eq!(capped.get("count").and_then(JsonValue::as_usize), Some(1));
    let drained = get_json(addr, &format!("/debug/events?since={last_id}"));
    assert_eq!(drained.get("count").and_then(JsonValue::as_usize), Some(0));
    server.shutdown();
}

#[test]
fn events_tail_streams_live_and_resumes_with_last_event_id() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    // Seed two events, then read them off the tail.
    for _ in 0..2 {
        send(addr, "POST /admin/swap HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    let first = read_tail(addr, None, 2, Duration::from_secs(5));
    assert!(first.len() >= 2, "tail replayed {} frames", first.len());
    let cursor = first[0].id.expect("frame id");
    let seen: Vec<u64> = first.iter().map(|f| f.id.unwrap()).collect();
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "ids ascend: {seen:?}");
    for frame in &first {
        let v = json::parse(&frame.data).expect("event JSON");
        assert!(v.get("kind").and_then(JsonValue::as_str).is_some());
    }

    // Emit one more while disconnected, then resume after the *first*
    // frame: the reconnect replays everything we did not acknowledge,
    // without duplicating the acknowledged one.
    send(addr, "POST /admin/swap HTTP/1.1\r\nHost: t\r\n\r\n");
    let resumed = read_tail(addr, Some(cursor), seen.len(), Duration::from_secs(5));
    let resumed_ids: Vec<u64> = resumed.iter().map(|f| f.id.unwrap()).collect();
    assert!(
        resumed_ids.iter().all(|&id| id > cursor),
        "resume must not replay acknowledged ids: {resumed_ids:?}"
    );
    assert!(
        resumed_ids.len() >= seen.len(),
        "resume sees the missed event: {resumed_ids:?}"
    );
    server.shutdown();
}

/// Opens an event tail and returns once it is attached (its stream
/// header is back), with a 5 s read timeout on the connection.
fn attach_tail(addr: std::net::SocketAddr) -> TcpStream {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(b"GET /debug/events/tail HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send request");
    let mut head = [0u8; 16];
    conn.read_exact(&mut head).expect("stream header");
    assert!(head.starts_with(b"HTTP/1.1 200"), "head: {head:?}");
    conn
}

#[test]
fn shutdown_closes_an_attached_event_tail() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let mut conn = attach_tail(server.local_addr());

    // The peer stays; the handler must not wait for it to leave.
    let asked = Instant::now();
    server.shutdown();
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    let mut rest = String::new();
    conn.read_to_string(&mut rest).expect("EOF, not a timeout");
    let last = sse::parse(rest.split_once("\r\n\r\n").expect("header end").1)
        .pop()
        .expect("the shutdown event");
    assert!(
        last.data.contains("\"kind\":\"shutdown\""),
        "last: {last:?}"
    );
}

/// With every handler held by a stream, a new connection waits in the
/// accept backlog — no byte comes back — until one stream ends; shutdown
/// then returns promptly and closes the streams still attached.
#[test]
fn held_handlers_park_new_connections_and_shutdown_closes_the_rest() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();
    let mut tails: Vec<TcpStream> = (0..banks_server::server::HANDLER_THREADS)
        .map(|_| attach_tail(addr))
        .collect();

    let mut ninth = TcpStream::connect(addr).expect("the kernel still completes the handshake");
    ninth
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send request");
    ninth
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut byte = [0u8; 1];
    let err = ninth
        .read(&mut byte)
        .expect_err("no handler is free to answer");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "{err}"
    );

    // Closing one tail frees its handler at its next peer probe (one
    // keep-alive interval), and that handler accepts the waiting request.
    drop(tails.pop());
    ninth
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    ninth
        .read_to_string(&mut response)
        .expect("answered once a handler is free");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response:?}");
    assert!(response.contains("\"status\":\"ok\""), "{response:?}");

    let asked = Instant::now();
    server.shutdown();
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
    for mut tail in tails {
        let mut rest = Vec::new();
        tail.read_to_end(&mut rest).expect("EOF, not a timeout");
    }
}

#[test]
fn query_answers_carry_ids_and_resume_skips_what_was_delivered() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();

    let response = get(addr, "/query?q=gray+locks&top_k=3");
    let frames = sse::parse(response.split_once("\r\n\r\n").unwrap().1);
    let answers: Vec<&SseEvent> = frames.iter().filter(|f| f.name == "answer").collect();
    assert!(answers.len() >= 2, "need 2+ answers to test resume");
    for (i, answer) in answers.iter().enumerate() {
        assert_eq!(answer.id, Some(i as u64 + 1), "answers carry 1-based ids");
    }

    // Reconnect claiming the first answer was delivered: the replayed
    // stream starts at id 2 and carries the same payloads from there.
    let resumed = send(
        addr,
        "GET /query?q=gray+locks&top_k=3 HTTP/1.1\r\nHost: t\r\nLast-Event-ID: 1\r\n\r\n",
    );
    let resumed_frames = sse::parse(resumed.split_once("\r\n\r\n").unwrap().1);
    let resumed_answers: Vec<&SseEvent> = resumed_frames
        .iter()
        .filter(|f| f.name == "answer")
        .collect();
    assert_eq!(resumed_answers.len(), answers.len() - 1);
    for (original, replayed) in answers.iter().skip(1).zip(&resumed_answers) {
        assert_eq!(original.id, replayed.id, "ids line up across reconnects");
        assert_eq!(original.data, replayed.data, "payloads line up");
    }
    assert!(
        resumed_frames.iter().any(|f| f.name == "finished"),
        "resumed stream still finishes"
    );
    server.shutdown();
}

/// `HEAD` is `GET` without the body: the same status and headers, and
/// nothing after the blank line.  On an SSE route it is the stream header
/// alone, and no query runs.  A 405 lists `HEAD` wherever it lists `GET`.
#[test]
fn head_is_get_without_the_body() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();
    let head = |path: &str| send(addr, &format!("HEAD {path} HTTP/1.1\r\nHost: t\r\n\r\n"));
    let head_of = |response: &str| response.split_once("\r\n\r\n").unwrap().0.to_string();

    let got = get(addr, "/healthz");
    let headed = head("/healthz");
    assert_eq!(head_of(&headed), head_of(&got));
    assert_eq!(body_of(&headed), "");
    let length: usize = header_of(&headed, "Content-Length")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(length, body_of(&got).len());

    for path in ["/metrics", "/metrics?format=prometheus"] {
        let got = get(addr, path);
        let headed = head(path);
        assert_eq!(status_of(&headed), 200, "{path}");
        assert_eq!(body_of(&headed), "", "{path}");
        for name in ["Content-Type", "Connection"] {
            assert_eq!(header_of(&headed, name), header_of(&got, name), "{path}");
        }
        let length: usize = header_of(&headed, "Content-Length")
            .unwrap()
            .parse()
            .unwrap();
        assert!(length > 0, "{path}");
    }

    let headed = head("/query?q=gray+locks");
    assert_eq!(status_of(&headed), 200);
    assert_eq!(
        header_of(&headed, "Content-Type"),
        Some("text/event-stream")
    );
    assert_eq!(body_of(&headed), "");
    assert_eq!(service.metrics().submitted, 0, "HEAD /query runs no query");

    let refused = send(addr, "POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&refused), 405);
    assert_eq!(header_of(&refused, "Allow"), Some("GET, HEAD"));
    let refused = head("/admin/swap");
    assert_eq!(status_of(&refused), 405);
    assert_eq!(header_of(&refused, "Allow"), Some("POST"));
    assert_eq!(body_of(&refused), "");
    server.shutdown();
}

#[test]
fn induced_regression_flips_healthz_and_alerts_flow_over_http() {
    // A zero-microsecond TTFA objective at a 20 ms collector cadence:
    // every executed query violates, the fast window saturates within a
    // few ticks, and once traffic stops the windowed percentile decays to
    // NaN and the alert resolves — all observed through HTTP only.
    let slo = SloSpec::upper_bound("ttfa_p99", "ttfa_p99_us", 0.0)
        .with_windows(200, 30_000)
        .with_burns(10.0, 1.0);
    let service = Arc::new(
        Service::builder(tiny_graph())
            .workers(1)
            .collector_cadence(Duration::from_millis(20))
            .slos(vec![slo])
            .build(),
    );
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();

    let health_of = |addr| {
        get_json(addr, "/healthz")
            .get("health")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .expect("health field")
    };
    let fired = wait_for(Duration::from_secs(10), || {
        let response = get(addr, "/query?q=gray+locks");
        assert!(response.contains("event: finished"), "query must finish");
        health_of(addr) != "ok"
    });
    assert!(fired, "healthz never left ok under a 0us TTFA objective");
    let v = get_json(addr, "/debug/slo");
    assert_ne!(v.get("health").and_then(JsonValue::as_str), Some("ok"));

    let resolved = wait_for(Duration::from_secs(10), || health_of(addr) == "ok");
    assert!(resolved, "healthz never recovered after traffic stopped");

    let v = get_json(addr, "/debug/events");
    let events = match v.get("events") {
        Some(JsonValue::Array(events)) => events,
        other => panic!("expected events array, got {other:?}"),
    };
    let kind_of = |e: &JsonValue| {
        e.get("kind")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
    };
    let fire_id = events
        .iter()
        .find(|e| kind_of(e) == Some("alert-fire".into()))
        .and_then(|e| e.get("id").and_then(JsonValue::as_usize))
        .expect("alert-fire event") as u64;
    assert!(
        events
            .iter()
            .any(|e| kind_of(e) == Some("alert-resolve".into())),
        "no alert-resolve event"
    );

    // Paging from the fire id yields the resolve but not the fire itself.
    let page = get_json(addr, &format!("/debug/events?since={fire_id}"));
    match page.get("events") {
        Some(JsonValue::Array(tail)) => {
            assert!(tail.iter().all(|e| kind_of(e) != Some("alert-fire".into())
                || e.get("id").and_then(JsonValue::as_usize).unwrap() as u64 > fire_id));
            assert!(
                tail.iter()
                    .any(|e| kind_of(e) == Some("alert-resolve".into())),
                "resolve pages out after the fire cursor"
            );
        }
        other => panic!("expected events array, got {other:?}"),
    }
    server.shutdown();
}
