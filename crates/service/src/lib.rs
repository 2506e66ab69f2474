//! # banks-service
//!
//! A concurrent query **serving tier** over the BANKS search engines: the
//! layering move the OLAP literature makes between the query engine and the
//! tier that fields traffic.  `banks-core` executes one search on the
//! caller's thread; this crate owns a serving [`GraphSnapshot`] (graph +
//! prestige + keyword index) plus an engine registry, and executes many
//! queries concurrently on a pool of `std` worker threads — channels and
//! mutexes only, no external runtime.
//!
//! ## The moving parts
//!
//! * **[`Service`]** — built with
//!   `Service::builder(graph).workers(4).cache_capacity(256).build()`;
//!   owns the shared read-only search state and the worker pool.
//! * **[`QuerySpec`]** — keywords + [`banks_core::SearchParams`] + optional
//!   engine name, plus the scheduling identity: [`QuerySpec::tenant`] and
//!   [`QuerySpec::priority`].  Normalized by the same single function the
//!   `Banks` facade uses, so cache keys agree byte for byte.
//! * **Priority scheduling** — admission is not FIFO: queries are ordered
//!   shortest-expected-work-first from an a priori cost estimate
//!   ([`banks_core::QueryCost`]), with per-tenant fair share and built-in
//!   aging so an expensive query is delayed but never starved.  Interactive
//!   traffic stops queueing behind batch trawls.
//! * **Online graph swapping** — [`Service::swap_graph`] atomically
//!   replaces the served snapshot.  Every query is pinned at admission to
//!   the snapshot it resolved against: in-flight work finishes on the old
//!   version, new admissions see the new epoch, and the epoch-keyed result
//!   cache can never serve stale answers.
//! * **Incremental mutations** — [`Service::apply_mutations`] applies a
//!   [`banks_graph::MutationBatch`] to the served snapshot as a *delta*:
//!   copy-on-write adjacency, index delta (only touched labels
//!   re-tokenized), prestige carried forward — built outside the
//!   serving lock and swapped in through the same epoch-pinning machinery
//!   as a wholesale swap, at O(touched rows) instead of O(V + E).
//! * **[`QueryHandle`]** — returned by [`Service::submit`]: stream answers
//!   as the engine emits them ([`QueryHandle::recv`] /
//!   [`QueryHandle::next_answer`]), watch live
//!   [`banks_core::SearchStats`], [`QueryHandle::cancel`] at any time, or
//!   [`QueryHandle::wait`] for the batch outcome.
//! * **Cancellation** — every query carries a [`banks_core::CancelToken`]
//!   checked before each expansion step, so aborts land within one step
//!   without tearing down the worker.
//! * **Admission control** — a bounded queue; a full queue rejects with
//!   [`SubmitError::QueueFull`] instead of buffering without limit.
//! * **Per-tenant quotas** — optional token buckets, one flat rate and
//!   burst for every tenant ([`ServiceBuilder::tenant_quota`]): each
//!   submission takes one token, each tenant may burst up to the bucket
//!   capacity, then is limited to the refill rate; an empty bucket rejects
//!   with [`SubmitError::QuotaExceeded`] (carrying a retry-after hint),
//!   counted per tenant in [`TenantMetrics::quota_rejected`].
//! * **Graceful drain** — [`Service::drain`] blocks until the queue is
//!   empty and no worker is mid-query, the hook a network front-end uses
//!   to finish in-flight streams before shutting down.
//! * **Result cache** — the service's own [`banks_core::ResultCache`]
//!   keyed by `(graph epoch, normalized keywords, params/engine
//!   fingerprint)`; hits complete at submit time with zero engine work.
//!   Engine names are canonicalised at admission, so `"BIDIR"` and
//!   `"bidirectional"` share entries.
//! * **Deterministic deadlines** — per-answer budgets are *work-based*
//!   ([`banks_core::SearchParams::answer_work_budget`], nodes explored per
//!   answer), so they cut at the same node whether the pool is idle or
//!   saturated.
//! * **[`ServiceMetrics`]** — aggregate counters (submitted / rejected /
//!   executed / cancelled / cache hits / swaps), queue-wait percentiles
//!   ([`LatencySummary`]) and per-tenant outcomes ([`TenantMetrics`]).
//!
//! ## Configuration
//!
//! [`ServiceBuilder`] has eleven setters: [`workers`], [`queue_capacity`],
//! [`cache_capacity`], [`prestige`], [`index`], [`registry`],
//! [`tenant_quota`], [`persistence`], [`slow_query_threshold`],
//! [`collector_cadence`] and [`slos`].  The rest is fixed: a query naming
//! no engine runs `"bidirectional"`, the event log keeps the newest 1024
//! events, and the watchdog flags a query that explores 8× its a priori
//! estimate.
//!
//! [`workers`]: ServiceBuilder::workers
//! [`queue_capacity`]: ServiceBuilder::queue_capacity
//! [`cache_capacity`]: ServiceBuilder::cache_capacity
//! [`prestige`]: ServiceBuilder::prestige
//! [`index`]: ServiceBuilder::index
//! [`registry`]: ServiceBuilder::registry
//! [`tenant_quota`]: ServiceBuilder::tenant_quota
//! [`persistence`]: ServiceBuilder::persistence
//! [`slow_query_threshold`]: ServiceBuilder::slow_query_threshold
//! [`collector_cadence`]: ServiceBuilder::collector_cadence
//! [`slos`]: ServiceBuilder::slos
//!
//! ## Example
//!
//! ```
//! use banks_graph::GraphBuilder;
//! use banks_service::{Priority, QueryEvent, QuerySpec, Service};
//!
//! let mut b = GraphBuilder::new();
//! let author = b.add_node("author", "Jim Gray");
//! let paper = b.add_node("paper", "Granularity of locks");
//! let writes = b.add_node("writes", "w0");
//! b.add_edge(writes, author).unwrap();
//! b.add_edge(writes, paper).unwrap();
//!
//! let service = Service::builder(b.build_default())
//!     .workers(2)
//!     .cache_capacity(64)
//!     .build();
//!
//! // Stream answers as they arrive; interactive traffic can say so.
//! let spec = QuerySpec::parse("gray locks")
//!     .top_k(3)
//!     .tenant("ui")
//!     .priority(Priority::Interactive);
//! let handle = service.submit(spec).unwrap();
//! while let Some(event) = handle.recv() {
//!     match event {
//!         QueryEvent::Answer(answer) => assert_eq!(answer.tree.root, writes),
//!         QueryEvent::Finished(result) => assert!(!result.cache_hit),
//!     }
//! }
//!
//! // The identical query now hits the cache: zero engine work.
//! let spec = QuerySpec::parse("gray locks").top_k(3);
//! let (outcome, result) = service.submit(spec).unwrap().wait();
//! assert!(result.cache_hit);
//! assert_eq!(outcome.answers.len(), 1);
//!
//! // Swap in a new graph version online: the epoch changes, the cache is
//! // cold for it, and new submissions run against the new data.
//! let mut b2 = GraphBuilder::new();
//! let author2 = b2.add_node("author", "Jim Gray");
//! let paper2 = b2.add_node("paper", "Granularity of locks, 2nd ed");
//! let writes2 = b2.add_node("writes", "w0");
//! b2.add_edge(writes2, author2).unwrap();
//! b2.add_edge(writes2, paper2).unwrap();
//! let new_epoch = service.swap_graph(b2.build_default());
//! assert_eq!(service.epoch(), new_epoch);
//! let (_, result) = service
//!     .submit(QuerySpec::parse("gray locks").top_k(3))
//!     .unwrap()
//!     .wait();
//! assert!(!result.cache_hit, "new epoch starts cold");
//! assert_eq!(result.epoch, new_epoch);
//! ```

#![deny(missing_docs)]

mod admission;
mod collector;
mod epoch;
pub mod handle;
pub mod metrics;
pub mod persistence;
mod quota;
pub mod replication;
mod sched;
pub mod service;
pub mod snapshot;
pub mod spec;
mod worker;

pub use banks_obs::{
    CalibrationRow, Event, EventLevel, EventLog, Health, LatencySummary, QueryTrace, SloReport,
    SloRow, SloSpec, TimeSample, TimeSeriesRing, TraceSpan,
};
pub use banks_persist::{
    decode_record, encode_record, FsyncPolicy, PersistError, WalPosition, WalRecord,
};
pub use collector::parse_slo_specs;
pub use epoch::MutationReport;
pub use handle::{QueryEvent, QueryHandle, QueryId, QueryResult, RecvTimeout};
pub use metrics::{ServiceMetrics, TenantMetrics, OVERFLOW_TENANT};
pub use persistence::DurabilityStatus;
pub use replication::{
    ReplicatedApply, ReplicationApplyError, ReplicationRole, ReplicationStatus, WalTail,
};
pub use service::{Service, ServiceBuilder, SubmitError};
pub use snapshot::GraphSnapshot;
pub use spec::{Priority, QuerySpec};
