//! Per-layer probes: each times one layer's public function directly, on
//! the workload's own inputs, single-threaded, after the traced pass and
//! with the server idle.  They answer "what does this layer cost per
//! call" where the client-side spans can only say "what did the request
//! cost".

use std::hint::black_box;
use std::io::Cursor;
use std::net::SocketAddr;
use std::time::Instant;

use banks_core::{json, RankedAnswer};
use banks_graph::DataGraph;
use banks_server::http::{read_request, Limits};
use banks_server::SseWriter;
use banks_service::GraphSnapshot;
use banks_textindex::{KeywordMatches, Query};

use crate::client::http_get;
use crate::stats;

/// Inner repetitions per input: enough that one timing is well above the
/// clock's resolution for calls that take tens of nanoseconds.
const REPS: usize = 32;

/// Median over `inputs` of the mean time of `REPS` calls of `f`, in ns.
fn median_ns<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut per_input: Vec<f64> = inputs
        .iter()
        .map(|input| {
            let started = Instant::now();
            for _ in 0..REPS {
                f(black_box(input));
            }
            started.elapsed().as_nanos() as f64 / REPS as f64
        })
        .collect();
    stats::median(&mut per_input).unwrap_or(0.0)
}

/// `server.parse_request_ns`, `server.parse_body_ns`: the HTTP head +
/// body parse and the JSON body parse of the workload's own requests.
pub fn request_parse(requests: &[Vec<u8>]) -> (f64, f64) {
    let limits = Limits::default();
    let head = median_ns(requests, |bytes| {
        let request = read_request(&mut Cursor::new(bytes.as_slice()), &limits);
        black_box(request.expect("the harness's own request parses"));
    });
    let bodies: Vec<String> = requests
        .iter()
        .map(|bytes| {
            let text = String::from_utf8_lossy(bytes);
            let at = text.find("\r\n\r\n").expect("request has a head") + 4;
            text[at..].to_string()
        })
        .collect();
    let body = median_ns(&bodies, |body| {
        black_box(banks_server::json::parse(body).expect("the harness's own body parses"));
    });
    (head, body)
}

/// `core.encode_answer_ns`, `server.sse_frame_ns`: rendering one answer to
/// JSON, and framing that JSON as an SSE event into a sink.
pub fn answer_encode(answers: &[RankedAnswer]) -> (f64, f64) {
    let encode = median_ns(answers, |answer| {
        black_box(json::ranked_answer(answer));
    });
    let payloads: Vec<String> = answers.iter().map(json::ranked_answer).collect();
    let mut sse = SseWriter::new(std::io::sink());
    let frame = median_ns(&payloads, |payload| {
        sse.event_with_id("answer", 1, payload)
            .expect("a sink cannot fail");
    });
    (encode, frame)
}

/// `textindex.resolve_ns_p50`, `textindex.origins_per_keyword`: keyword
/// resolution of the pool's queries against the serving index.
pub fn resolve(snapshot: &GraphSnapshot, pool: &[Vec<String>]) -> (f64, f64) {
    let queries: Vec<Query> = pool
        .iter()
        .map(|k| Query::from_keywords(k.iter().cloned()).normalized(snapshot.index().tokenizer()))
        .collect();
    let ns = median_ns(&queries, |query| {
        black_box(KeywordMatches::resolve_normalized(
            snapshot.graph(),
            snapshot.index(),
            query,
        ));
    });
    let sizes: Vec<f64> = queries
        .iter()
        .flat_map(|query| {
            KeywordMatches::resolve_normalized(snapshot.graph(), snapshot.index(), query)
                .origin_sizes()
        })
        .map(|n| n as f64)
        .collect();
    (ns, stats::mean(&sizes).unwrap_or(0.0))
}

/// `graph.row_scan_ns_per_edge`: a full pass over every node's out-edges.
pub fn row_scan(graph: &DataGraph) -> f64 {
    let mut per_pass = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let mut edges = 0usize;
        let mut weight = 0.0f64;
        for node in graph.nodes() {
            for edge in graph.out_edges(node) {
                edges += 1;
                weight += edge.weight;
            }
        }
        black_box(weight);
        per_pass.push(started.elapsed().as_nanos() as f64 / edges.max(1) as f64);
    }
    stats::median(&mut per_pass).unwrap_or(0.0)
}

/// `server.metrics_scrape_us`, `server.metrics_gzip_ratio`: a Prometheus
/// scrape over HTTP, and how much the server's DEFLATE shrinks it.
pub fn metrics_scrape(addr: SocketAddr) -> Result<(f64, f64), String> {
    let path = "/metrics?format=prometheus";
    let mut times = Vec::new();
    let mut plain_len = 0usize;
    for _ in 0..5 {
        let (status, body, elapsed) = http_get(addr, path, "")?;
        if status != 200 {
            return Err(format!("{path} answered {status}"));
        }
        plain_len = body.len();
        times.push(elapsed.as_secs_f64() * 1e6);
    }
    let (status, gz, _) = http_get(addr, path, "Accept-Encoding: gzip\r\n")?;
    if status != 200 {
        return Err(format!("{path} (gzip) answered {status}"));
    }
    Ok((
        stats::median(&mut times).unwrap_or(0.0),
        gz.len() as f64 / plain_len.max(1) as f64,
    ))
}
