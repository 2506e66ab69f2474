//! # banks-server
//!
//! The network front-end over [`banks_service::Service`]: a
//! dependency-free HTTP/1.1 server on [`std::net::TcpListener`] that turns
//! the service's handle/event model into **server-sent events**, so remote
//! clients get the same incrementally-streamed answers — and the same
//! time-to-first-answer — an in-process caller gets.  This is the
//! deployment mode BANKS-style systems assume: interactive keyword search
//! over a database, served to browsers.
//!
//! Everything is hand-rolled over `std` (the workspace vendors no HTTP or
//! JSON dependency): request parsing with strict resource limits
//! ([`http`]), the response encodings ([`json`]), SSE framing with
//! flush-per-answer ([`banks_core::sse`], shared with the follower), and a
//! pool of handler threads accepting on one listener, with graceful drain
//! ([`Server`]).
//!
//! ## Endpoints
//!
//! | method + path | behaviour |
//! |---------------|-----------|
//! | `POST /query` (also `GET`) | submit a query; stream `answer` SSE events incrementally (each with its 1-based rank as the SSE id, so `Last-Event-ID` resumes without duplicates), then one `finished` event — plus a `trace` event when `X-Banks-Trace` was sent |
//! | `GET /metrics` | [`banks_service::ServiceMetrics`] as JSON (per-tenant rows, latency percentiles, calibration table, SLO rows, overflow counters); `?format=prometheus` for text format 0.0.4; always identity-encoded |
//! | `GET /debug/slow` | recent slow-query traces, newest first (`?limit=N`) |
//! | `GET /debug/trace/<id>` | one retained [`banks_service::QueryTrace`] by query id |
//! | `GET /debug/slo` | the SLO burn-rate report: three-state health + per-objective value/burn/state rows |
//! | `GET /debug/events` | a page of the structured event log (`?since=<id>&limit=N`), with `last_id`/`dropped` cursors |
//! | `GET /debug/events/tail` | live SSE tail of the event log; reconnect with `Last-Event-ID` (or `?since=`) to resume |
//! | `POST /admin/swap` | rebuild and atomically swap the served [`banks_service::GraphSnapshot`] |
//! | `POST /admin/mutate` | apply a JSON [`banks_graph::MutationBatch`] incrementally: delta snapshot, fresh epoch, per-op accept/reject counts — on a follower, **409** with a `Location` pointing at the leader |
//! | `POST /admin/checkpoint` | force a durable snapshot + WAL truncation (409 when persistence is off) |
//! | `POST /admin/slo` | reconfigure SLOs at runtime: a `{"slos":[…]}` body replaces the set, a single spec object upserts one objective |
//! | `GET /replication/stream` | SSE tail of the mutation WAL for followers: `record` events carry hex WAL record bytes with the record epoch as the SSE id (`Last-Event-ID` / `?from_epoch=` resumes); `head` events (always the first frame, then before each batch and once a second while idle) announce leader epoch + pending records; the stream wakes on each epoch publish; a cursor behind the truncation horizon gets a terminal `bootstrap` event |
//! | `GET /replication/snapshot` | the newest on-disk snapshot verbatim (epoch in `X-Banks-Snapshot-Epoch`) — follower bootstrap seed |
//! | `GET /healthz` | liveness: status, SLO `health` verdict, serving epoch, worker count, engine names, durability (`last_checkpoint_epoch`, `wal_records`, `wal_bytes`), replication role + lag |
//!
//! Each row is one row of the static route table in [`routes`]: a path no
//! row names gets **404**, a method its row does not list gets **405**.
//! Every `GET` row also answers `HEAD` with the `GET` status and headers
//! and no body; on the three SSE routes that is the stream header alone,
//! and no query or stream starts.
//!
//! `POST /query` takes a JSON body — `{"q":"jim gray","top_k":5}` or
//! `{"keywords":["jim","gray"],"engine":"si-backward"}` — while `GET
//! /query?q=jim+gray&top_k=5` serves the same stream to `EventSource`-style
//! clients.  Scheduling identity rides in headers: `X-Banks-Tenant` names
//! the tenant for fair share and quotas, `X-Banks-Priority`
//! (`interactive` / `normal` / `batch`) the class — remote traffic is
//! governed by the same scheduler and token buckets as in-process
//! submissions.
//!
//! The non-streaming endpoints honour `Connection: keep-alive` (bounded
//! request count, 5 s idle timeout), so metrics scrapers and mutation
//! ingest pipelines can reuse one connection; SSE streams and error
//! responses always close.
//!
//! ## Error surface
//!
//! Every failure is a structured JSON envelope
//! (`{"error":{"status":…,"code":…,"message":…}}`) with the right status:
//! malformed requests **400**, unknown engines **404** (carrying the
//! registry's known names and its "did you mean" suggestion), per-tenant
//! quota rejections **429** with `Retry-After`, a full admission queue or
//! a shutting-down service **503**.
//!
//! ## Cancellation and shutdown
//!
//! A client that drops its connection mid-stream cancels the query: the
//! handler notices the dead peer, cancels the
//! [`banks_core::CancelToken`], and the engine stops within one expansion
//! step — remote disconnects cost one step of wasted work, not a full
//! query.  [`Server::shutdown`] (or drop) stops accepting, lets in-flight
//! query streams finish, and drains the service.  The two streams with no
//! end of their own — `GET /replication/stream` and
//! `GET /debug/events/tail`, which block until the service publishes an
//! epoch or logs an event — are woken by the shutdown and close at once:
//! the peer reads EOF (a follower reconnects with backoff).

#![deny(missing_docs)]

pub mod http;
pub mod json;
pub mod prom;
pub mod routes;
pub mod server;

pub use banks_core::sse::SseWriter;
pub use http::{Limits, ParseError, Request};
pub use json::JsonValue;
pub use routes::GraphSource;
pub use server::{Server, ServerBuilder};
