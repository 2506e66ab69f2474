//! Loopback tests for the observability surface: the `trace` SSE event,
//! the debug trace endpoints and Prometheus exposition.

use std::sync::Arc;
use std::time::Duration;

use banks_core::sse;
use banks_server::json::JsonValue;
use banks_server::Server;
use banks_service::Service;

mod common;
use common::{body_of, get, header_of, send, status_of, tiny_graph};

fn span_of(trace: &JsonValue, name: &str) -> Option<(u64, u64)> {
    match trace.get("spans") {
        Some(JsonValue::Array(spans)) => spans.iter().find_map(|s| {
            (s.get("name").and_then(JsonValue::as_str) == Some(name)).then(|| {
                (
                    s.get("start_us").and_then(JsonValue::as_usize).unwrap() as u64,
                    s.get("end_us").and_then(JsonValue::as_usize).unwrap() as u64,
                )
            })
        }),
        _ => None,
    }
}

#[test]
fn traced_query_emits_a_trace_event_and_debug_endpoint_agrees() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    let body = r#"{"q":"gray locks","top_k":3}"#;
    let response = send(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nX-Banks-Trace: corr-7\r\n\
             X-Banks-Tenant: ui\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status_of(&response), 200);
    let events = sse::parse(body_of(&response));
    let finished = events
        .iter()
        .find(|e| e.name == "finished")
        .expect("finished event");
    let trace_event = events
        .iter()
        .find(|e| e.name == "trace")
        .expect("trace event after finished");
    assert!(
        events.iter().position(|e| e.name == "trace")
            > events.iter().position(|e| e.name == "finished"),
        "trace rides after finished"
    );

    let trace = banks_server::json::parse(&trace_event.data).expect("trace JSON");
    assert_eq!(
        trace.get("client_ref").and_then(JsonValue::as_str),
        Some("corr-7")
    );
    assert_eq!(trace.get("tenant").and_then(JsonValue::as_str), Some("ui"));
    let total_us = trace.get("total_us").and_then(JsonValue::as_usize).unwrap() as u64;

    // Span timings sum consistently: queue + expand fit in the total, and
    // the first-answer span equals the finished event's TTFA.
    let (q0, q1) = span_of(&trace, "queue").expect("queue span");
    let (e0, e1) = span_of(&trace, "expand").expect("expand span");
    assert!(q0 <= q1 && e0 <= e1 && q1 <= e0 + 1);
    assert!((q1 - q0) + (e1 - e0) <= total_us);
    let finished_json = banks_server::json::parse(&finished.data).unwrap();
    let ttfa = finished_json
        .get("time_to_first_answer_us")
        .and_then(JsonValue::as_usize)
        .expect("the query answers") as u64;
    let (f0, f1) = span_of(&trace, "first-answer").expect("first-answer span");
    assert_eq!(f1 - f0, ttfa, "first-answer span equals reported TTFA");

    // The same trace is retrievable by id — numeric and display forms.
    let id = trace.get("id").and_then(JsonValue::as_usize).unwrap();
    for path in [format!("/debug/trace/{id}"), format!("/debug/trace/q{id}")] {
        let response = get(addr, &path);
        assert_eq!(status_of(&response), 200, "GET {path}");
        let fetched = banks_server::json::parse(body_of(&response)).unwrap();
        assert_eq!(
            fetched.get("client_ref").and_then(JsonValue::as_str),
            Some("corr-7")
        );
        assert_eq!(
            fetched.get("total_us").and_then(JsonValue::as_usize),
            Some(total_us as usize)
        );
    }
    server.shutdown();
}

#[test]
fn untraced_queries_emit_no_trace_event() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let response = get(server.local_addr(), "/query?q=gray+locks&top_k=3");
    assert_eq!(status_of(&response), 200);
    let events = sse::parse(body_of(&response));
    assert!(events.iter().any(|e| e.name == "finished"));
    assert!(!events.iter().any(|e| e.name == "trace"));
    server.shutdown();
}

#[test]
fn debug_trace_maps_bad_and_missing_ids() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();
    assert_eq!(status_of(&get(addr, "/debug/trace/999")), 404);
    assert_eq!(status_of(&get(addr, "/debug/trace/not-a-number")), 400);
    let response = send(
        addr,
        "POST /debug/trace/7 HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&response), 405);
    let response = send(
        addr,
        "POST /debug/slow HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&response), 405);
    server.shutdown();
}

#[test]
fn slow_ring_serves_zero_threshold_queries() {
    let service = Arc::new(
        Service::builder(tiny_graph())
            .workers(1)
            .slow_query_threshold(Duration::ZERO)
            .build(),
    );
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();
    for _ in 0..2 {
        // distinct top_k dodges the cache; hits are near-instant anyway
        let _ = get(addr, "/query?q=gray+locks&top_k=3");
        let _ = get(addr, "/query?q=gray+locks&top_k=2");
    }
    let response = get(addr, "/debug/slow?limit=10");
    assert_eq!(status_of(&response), 200);
    let v = banks_server::json::parse(body_of(&response)).unwrap();
    assert_eq!(
        v.get("slow_query_threshold_us")
            .and_then(JsonValue::as_usize),
        Some(0)
    );
    let count = v.get("count").and_then(JsonValue::as_usize).unwrap();
    assert!(count >= 2, "zero threshold marks every query slow");
    match v.get("traces") {
        Some(JsonValue::Array(traces)) => {
            assert_eq!(traces.len(), count);
            for t in traces {
                assert_eq!(t.get("slow"), Some(&JsonValue::Bool(true)));
            }
        }
        other => panic!("expected traces array, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn prometheus_exposition_passes_the_scrape_grammar() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();
    let body = r#"{"q":"gray locks","top_k":3}"#;
    let _ = send(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nX-Banks-Tenant: acme\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );

    let response = get(addr, "/metrics?format=prometheus");
    assert_eq!(status_of(&response), 200);
    assert!(
        response.contains("Content-Type: text/plain; version=0.0.4"),
        "Prometheus content type: {response:?}"
    );
    let text = body_of(&response);
    assert!(text.ends_with('\n'));
    assert!(text.contains("# TYPE banks_queries_submitted_total counter"));
    assert!(text.contains("# HELP banks_queue_wait_seconds"));
    assert!(text.contains("banks_queries_submitted_total 1"));
    assert!(text.contains("banks_tenant_executed_total{tenant=\"acme\"} 1"));
    assert!(text.contains("banks_calibration_correction{engine="));

    let mut series = std::collections::HashSet::new();
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "bad comment: {line}"
            );
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        assert!(series.insert(name.to_string()), "duplicate series {name}");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "bad sample value: {line}"
        );
    }
    server.shutdown();
}

#[test]
fn metrics_answer_identity_whatever_accept_encoding_says() {
    let service = Arc::new(Service::builder(tiny_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();

    for (path, marker) in [
        (
            "/metrics?format=prometheus",
            "# TYPE banks_queries_submitted_total counter",
        ),
        ("/metrics", "\"submitted\":"),
    ] {
        let asked = send(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: t\r\nAccept-Encoding: gzip, deflate\r\n\r\n"),
        );
        assert_eq!(status_of(&asked), 200);
        assert_eq!(header_of(&asked, "content-encoding"), None, "{path}");
        assert!(body_of(&asked).contains(marker), "{path}: {asked:?}");
    }
    server.shutdown();
}
