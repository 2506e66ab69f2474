//! `/query`: the query spec a request describes, its submission, and the
//! SSE answer stream.

use std::time::Duration;

use banks_core::json as corejson;
use banks_core::EmissionPolicy;
use banks_service::{Priority, QueryEvent, QueryResult, QuerySpec, RecvTimeout, SubmitError};

use super::{
    json_body, open_stream, peer_disconnected, respond_error, Conn, HttpError, ServerContext,
};
use crate::http::Request;
use crate::json::{self, JsonValue};

/// Builds the [`QuerySpec`] a request describes, or the error to send back.
fn build_spec(request: &Request) -> Result<QuerySpec, HttpError> {
    let mut spec = if request.method == "GET" {
        spec_from_query_string(request)?
    } else {
        spec_from_json_body(request)?
    };
    if let Some(tenant) = request.header("x-banks-tenant") {
        spec = spec.tenant(tenant);
    }
    if let Some(raw) = request.header("x-banks-priority") {
        let priority: Priority = raw.parse().map_err(|e: String| HttpError::bad_request(e))?;
        spec = spec.priority(priority);
    }
    if let Some(reference) = request.header("x-banks-trace") {
        spec = spec.trace(reference);
    }
    Ok(spec)
}

fn spec_from_query_string(request: &Request) -> Result<QuerySpec, HttpError> {
    let q = request
        .query_param("q")
        .filter(|q| !q.trim().is_empty())
        .ok_or_else(|| HttpError::bad_request("missing query parameter \"q\""))?;
    let mut spec = QuerySpec::parse(&q);
    if let Some(raw) = request.query_param("top_k") {
        let top_k: usize = raw
            .parse()
            .map_err(|_| HttpError::bad_request(format!("top_k is not an integer: {raw:?}")))?;
        spec = spec.top_k(top_k);
    }
    if let Some(raw) = request.query_param("answer_work_budget") {
        let budget: usize = raw.parse().map_err(|_| {
            HttpError::bad_request(format!("answer_work_budget is not an integer: {raw:?}"))
        })?;
        spec = spec.answer_work_budget(budget);
    }
    if let Some(raw) = request.query_param("emission") {
        let mut params = spec.params;
        params.emission = parse_emission(&raw)?;
        spec = spec.params(params);
    }
    if let Some(engine) = request.query_param("engine") {
        spec = spec.engine(engine);
    }
    Ok(spec)
}

/// The wire names of [`EmissionPolicy`]: how eagerly buffered answers are
/// released.  `immediate` gives the lowest time-to-first-answer; the
/// default `exact-bound` is the paper's no-better-answer-possible gate.
fn parse_emission(raw: &str) -> Result<EmissionPolicy, HttpError> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "immediate" => Ok(EmissionPolicy::Immediate),
        "heuristic" => Ok(EmissionPolicy::Heuristic),
        "exact-bound" | "exact" | "" => Ok(EmissionPolicy::ExactBound),
        other => Err(HttpError::bad_request(format!(
            "unknown emission policy {other:?} (expected immediate, heuristic or exact-bound)"
        ))),
    }
}

fn spec_from_json_body(request: &Request) -> Result<QuerySpec, HttpError> {
    let (_, value) = json_body(request, "a JSON object with \"q\" or \"keywords\"")?;
    if !matches!(value, JsonValue::Object(_)) {
        return Err(HttpError::bad_request("body must be a JSON object"));
    }

    let mut spec = match (value.get("q"), value.get("keywords")) {
        (Some(q), _) => {
            let q = q
                .as_str()
                .ok_or_else(|| HttpError::bad_request("\"q\" must be a string"))?;
            if q.trim().is_empty() {
                return Err(HttpError::bad_request("\"q\" must not be empty"));
            }
            QuerySpec::parse(q)
        }
        (None, Some(JsonValue::Array(items))) => {
            let keywords: Vec<&str> = items
                .iter()
                .map(|item| {
                    item.as_str()
                        .ok_or_else(|| HttpError::bad_request("\"keywords\" must be strings"))
                })
                .collect::<Result<_, _>>()?;
            if keywords.is_empty() {
                return Err(HttpError::bad_request("\"keywords\" must not be empty"));
            }
            QuerySpec::keywords(keywords)
        }
        (None, Some(_)) => {
            return Err(HttpError::bad_request("\"keywords\" must be an array"));
        }
        (None, None) => {
            return Err(HttpError::bad_request(
                "body must contain \"q\" (string) or \"keywords\" (array)",
            ));
        }
    };

    if let Some(raw) = value.get("top_k") {
        let top_k = raw
            .as_usize()
            .ok_or_else(|| HttpError::bad_request("\"top_k\" must be a non-negative integer"))?;
        spec = spec.top_k(top_k);
    }
    if let Some(raw) = value.get("answer_work_budget") {
        let budget = raw.as_usize().ok_or_else(|| {
            HttpError::bad_request("\"answer_work_budget\" must be a non-negative integer")
        })?;
        spec = spec.answer_work_budget(budget);
    }
    if let Some(raw) = value.get("emission") {
        let raw = raw
            .as_str()
            .ok_or_else(|| HttpError::bad_request("\"emission\" must be a string"))?;
        let mut params = spec.params;
        params.emission = parse_emission(raw)?;
        spec = spec.params(params);
    }
    if let Some(raw) = value.get("engine") {
        let engine = raw
            .as_str()
            .ok_or_else(|| HttpError::bad_request("\"engine\" must be a string"))?;
        spec = spec.engine(engine);
    }
    Ok(spec)
}

/// Maps a [`SubmitError`] onto the wire: status, code, retry hints.
fn submit_error(err: SubmitError) -> HttpError {
    let message = err.to_string();
    match err {
        SubmitError::UnknownEngine(e) => {
            let mut error = HttpError::new(404, "unknown_engine", message);
            error.extras.push(("known", json::string_array(&e.known)));
            error.extras.push((
                "suggestion",
                e.suggestion
                    .map_or_else(|| "null".to_string(), corejson::string),
            ));
            error
        }
        SubmitError::QuotaExceeded {
            tenant,
            retry_after,
        } => {
            let mut error = HttpError::new(
                429,
                "quota_exceeded",
                format!("tenant {tenant:?} is over its admission quota"),
            );
            let secs = retry_after.as_secs_f64().ceil().max(1.0) as u64;
            error.headers.push(("Retry-After", secs.to_string()));
            error
                .extras
                .push(("retry_after_ms", retry_after.as_millis().to_string()));
            error.extras.push(("tenant", corejson::string(&tenant)));
            error
        }
        SubmitError::QueueFull { capacity } => {
            let mut error = HttpError::new(503, "queue_full", message);
            error.headers.push(("Retry-After", "1".to_string()));
            error.extras.push(("capacity", capacity.to_string()));
            error
        }
        SubmitError::ShuttingDown => HttpError::new(503, "shutting_down", message),
    }
}

/// `POST /query`: submit and stream.
pub(super) fn respond_query(ctx: &ServerContext, request: &Request, conn: &Conn, _: bool) -> bool {
    let handle =
        match build_spec(request).and_then(|spec| ctx.service.submit(spec).map_err(submit_error)) {
            Ok(handle) => handle,
            Err(error) => return respond_error(conn, error),
        };
    // Answer frames carry their 1-based rank as the SSE `id:`.  A client
    // reconnecting with `Last-Event-ID: K` has already consumed the first
    // K answers of this stream; the engine is deterministic for a fixed
    // epoch (and the result cache makes the re-run cheap), so the handler
    // re-executes and suppresses what was already delivered.
    let Some((skip, mut sse)) = open_stream(request, conn.stream, None) else {
        handle.cancel();
        return false;
    };
    let mut delivered = 0u64;
    // A dead client must cancel the query even when the engine emits
    // nothing for a long stretch (or nothing at all), so the receive is
    // *bounded*: on every timeout tick the handler probes the peer — a
    // cheap nonblocking peek, plus an SSE keep-alive comment whose write
    // failure catches what the peek cannot (e.g. a peer that left stray
    // bytes in the receive buffer before vanishing).
    loop {
        match handle.recv_timeout(Duration::from_millis(250)) {
            Ok(QueryEvent::Answer(answer)) => {
                delivered += 1;
                if delivered <= skip {
                    continue;
                }
                // The SSE payload is rendered by the same banks-core
                // function an in-process consumer would use: the stream is
                // byte-identical to the in-process encoding.
                if peer_disconnected(conn.stream)
                    || sse
                        .event_with_id("answer", delivered, &corejson::ranked_answer(&answer))
                        .is_err()
                {
                    // The client is gone: cancel cooperatively so the
                    // engine stops within one expansion step instead of
                    // computing answers nobody will read.
                    handle.cancel();
                    break;
                }
            }
            Ok(QueryEvent::Finished(result)) => {
                let _ = sse.event("finished", &result_json(&result));
                // The phase trace, when the submission asked for one
                // (X-Banks-Trace), rides the same stream after `finished`
                // so clients correlate latency without a second request.
                if let Some(trace) = &result.trace {
                    let _ = sse.event("trace", &json::query_trace(trace));
                }
                break;
            }
            Err(RecvTimeout::Closed) => break,
            Err(RecvTimeout::TimedOut) => {
                if peer_disconnected(conn.stream) || sse.comment("keepalive").is_err() {
                    handle.cancel();
                    break;
                }
            }
        }
    }
    false
}

/// The `finished` event payload.
fn result_json(result: &QueryResult) -> String {
    let ttfa = result
        .time_to_first_answer
        .map_or_else(|| "null".to_string(), |d| d.as_micros().to_string());
    format!(
        "{{\"cache_hit\":{},\"epoch\":{},\"queue_wait_us\":{},\
         \"time_to_first_answer_us\":{ttfa},\"stats\":{}}}",
        result.cache_hit,
        result.epoch,
        result.queue_wait.as_micros(),
        corejson::search_stats(&result.stats),
    )
}
