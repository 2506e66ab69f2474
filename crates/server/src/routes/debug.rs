//! Health, metrics and the `/debug/*` reads: slow and retained traces, the
//! SLO report, the event log and its live tail.

use std::sync::atomic::Ordering;

use banks_core::json as corejson;

use super::{
    open_stream, param, peer_disconnected, reply_json, respond_error, Conn, HttpError,
    ServerContext, STREAM_KEEPALIVE, TRACE_ROUTE,
};
use crate::http::Request;
use crate::json;

pub(super) fn respond_healthz(
    ctx: &ServerContext,
    _: &Request,
    w: &Conn,
    keep_alive: bool,
) -> bool {
    let engines = json::string_array(&ctx.service.engine_names());
    // Durability fields are all-zero (and `persistence` false) when the
    // service runs without a data directory, so probes read one shape
    // either way.
    let durability = ctx.service.durability();
    // `status` stays the liveness verdict ("the process answers");
    // `health` is the SLO judgment ("the process answers *well*") — a
    // probe that only checks reachability keeps working unchanged.
    let body = format!(
        "{{\"status\":\"ok\",\"health\":\"{}\",\"epoch\":{},\"workers\":{},\
         \"engines\":{},\
         \"persistence\":{},\"last_checkpoint_epoch\":{},\"wal_records\":{},\
         \"wal_bytes\":{},\"replication\":{}}}",
        ctx.service.health().as_str(),
        ctx.service.epoch(),
        ctx.service.workers(),
        engines,
        durability.enabled,
        durability.last_checkpoint_epoch,
        durability.wal_records,
        durability.wal_bytes,
        json::replication(&ctx.service.replication_status()),
    );
    reply_json(w, &body, keep_alive)
}

/// `GET /metrics`: JSON by default, Prometheus text format 0.0.4 with
/// `?format=prometheus`.  The body is always identity-encoded: HTTP lets a
/// server ignore `Accept-Encoding`, and scrapers accept that.
pub(super) fn respond_metrics(
    ctx: &ServerContext,
    request: &Request,
    w: &Conn,
    keep_alive: bool,
) -> bool {
    let metrics = ctx.service.metrics();
    let (body, content_type) = match request.query_param("format").as_deref() {
        Some("prometheus") => (
            crate::prom::render(&metrics),
            "text/plain; version=0.0.4; charset=utf-8",
        ),
        _ => (json::metrics(&metrics), "application/json"),
    };
    w.respond(200, &[], content_type, body.as_bytes(), keep_alive)
}

/// `GET /debug/slow`: the retained slow-query traces, newest first.
pub(super) fn respond_slow(
    ctx: &ServerContext,
    request: &Request,
    w: &Conn,
    keep_alive: bool,
) -> bool {
    let limit = param(request, "limit").unwrap_or(32);
    let traces = ctx.service.slow_traces(limit);
    let body = format!(
        "{{\"slow_query_threshold_us\":{},\"count\":{},\"traces\":{}}}",
        ctx.service.slow_query_threshold().as_micros(),
        traces.len(),
        json::array(&traces, |trace| json::query_trace(trace)),
    );
    reply_json(w, &body, keep_alive)
}

/// `GET /debug/slo`: the stored burn-rate report — overall health, the
/// collector cadence that produced it, and one row per objective.  The
/// report is the one the collector wrote on its last tick (evaluation
/// happens on the collector thread, where transitions become events), so
/// this endpoint is a read, never a judgment.
pub(super) fn respond_slo(ctx: &ServerContext, _: &Request, w: &Conn, keep_alive: bool) -> bool {
    let report = ctx.service.slo_report();
    let body = format!(
        "{{\"health\":\"{}\",\"collector_cadence_ms\":{},\"slos\":{}}}",
        report.health.as_str(),
        ctx.service.collector_cadence().as_millis(),
        json::array(&report.rows, json::slo_row),
    );
    reply_json(w, &body, keep_alive)
}

/// One event as the JSON object both `/debug/events` and the SSE tail
/// serve (same shape on both transports, like answers on `/query`).
fn event_json(event: &banks_service::Event) -> String {
    format!(
        "{{\"id\":{},\"at_unix_ms\":{},\"level\":\"{}\",\"kind\":{},\"message\":{}}}",
        event.id,
        event.at_unix_ms,
        event.level.as_str(),
        corejson::string(event.kind),
        corejson::string(&event.message),
    )
}

/// Cap on one `/debug/events` page (and one tail drain batch).
const EVENTS_PAGE_LIMIT: usize = 1024;

/// `GET /debug/events?since=<id>&limit=N`: a page of the structured event
/// log, oldest first, ids strictly greater than `since`.  The envelope
/// carries `last_id` (the newest id ever assigned — the cursor for the
/// next poll) and `dropped` (ring evictions), so a poller can both page
/// and detect loss.
pub(super) fn respond_events(
    ctx: &ServerContext,
    request: &Request,
    w: &Conn,
    keep_alive: bool,
) -> bool {
    let since: u64 = param(request, "since").unwrap_or(0);
    let limit = param(request, "limit")
        .unwrap_or(256)
        .min(EVENTS_PAGE_LIMIT);
    let events = ctx.service.events().since(since, limit);
    let body = format!(
        "{{\"since\":{since},\"last_id\":{},\"dropped\":{},\"count\":{},\"events\":{}}}",
        ctx.service.events().last_id(),
        ctx.service.events().dropped(),
        events.len(),
        json::array(&events, |event| event_json(event)),
    );
    reply_json(w, &body, keep_alive)
}

/// `GET /debug/events/tail`: live SSE tail of the event log.
///
/// Every frame is an `event` event whose SSE `id:` is the log id, so a
/// conforming client that reconnects with `Last-Event-ID` resumes exactly
/// where it left off (a `?since=<id>` query parameter does the same for
/// hand-rolled clients; the header wins when both are present).  History
/// after the cursor is replayed first, then the handler blocks in
/// [`banks_service::EventLog::wait_since`] and is woken by the next
/// `emit`; each second without one it probes the peer and sends a
/// keep-alive comment, so an abandoned tail releases its handler.  Server
/// shutdown emits a `shutdown` event, which ends the tail after it.
pub(super) fn respond_events_tail(
    ctx: &ServerContext,
    request: &Request,
    conn: &Conn,
    _: bool,
) -> bool {
    let Some((mut cursor, mut sse)) = open_stream(request, conn.stream, Some("since")) else {
        return false;
    };
    // Shutdown sets the flag and then emits its `shutdown` event, so a
    // tail that sees the flag still waits for that event and delivers it;
    // only a tail already past it ends at its first idle wait.
    loop {
        let stopping = ctx.shutdown.load(Ordering::SeqCst);
        let batch = ctx
            .service
            .events()
            .wait_since(cursor, EVENTS_PAGE_LIMIT, STREAM_KEEPALIVE);
        if batch.is_empty()
            && (stopping || peer_disconnected(conn.stream) || sse.comment("keepalive").is_err())
        {
            return false;
        }
        for event in batch {
            if sse
                .event_with_id("event", event.id, &event_json(&event))
                .is_err()
            {
                return false;
            }
            cursor = event.id;
            if event.kind == "shutdown" && ctx.shutdown.load(Ordering::SeqCst) {
                return false;
            }
        }
    }
}

/// `GET /debug/trace/<id>`: one retained trace by query id (`7` and the
/// display form `q7` both work).  404 once the ring has evicted it (or if
/// it was never retained — traces are kept only when requested or slow).
pub(super) fn respond_trace(
    ctx: &ServerContext,
    request: &Request,
    w: &Conn,
    keep_alive: bool,
) -> bool {
    let raw = request.path.trim_start_matches(TRACE_ROUTE);
    let id = raw.strip_prefix('q').unwrap_or(raw).parse::<u64>();
    let trace = match id {
        Ok(id) => ctx.service.trace(banks_service::QueryId(id)),
        Err(_) => {
            return respond_error(
                w,
                HttpError::bad_request(format!("bad query id {raw:?} (expected 7 or q7)")),
            )
        }
    };
    match trace {
        Some(trace) => reply_json(w, &json::query_trace(&trace), keep_alive),
        None => respond_error(
            w,
            HttpError::new(
                404,
                "trace_not_found",
                format!("no retained trace for query {raw} (evicted, or never traced)"),
            ),
        ),
    }
}
