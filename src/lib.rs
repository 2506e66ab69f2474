//! # banks — Bidirectional Expansion for Keyword Search on Graph Databases
//!
//! A from-scratch Rust reproduction of Kacholia et al., *Bidirectional
//! Expansion For Keyword Search on Graph Databases* (VLDB 2005, the
//! "BANKS-II" system).
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`graph`] — the weighted directed data-graph substrate,
//! * [`textindex`] — the keyword index and query model,
//! * [`prestige`] — node-prestige computation (biased PageRank),
//! * [`relational`] — the in-memory relational engine, graph extraction and
//!   the Sparse candidate-network baseline,
//! * [`datagen`] — synthetic DBLP/IMDB/Patents datasets and query workloads,
//! * [`core`] — the search engines behind the streaming query API:
//!   Bidirectional expansion, Backward expansion (multi- and
//!   single-iterator), answer trees and ranking,
//! * [`service`] — the concurrent query service: a worker-pool executor
//!   with cancellation tokens, an LRU result cache keyed by graph epoch,
//!   priority scheduling, per-tenant admission quotas and deterministic
//!   work-based deadlines,
//! * [`persist`] — durable persistence: epoch-versioned binary snapshots,
//!   a mutation write-ahead log and crash recovery (snapshot + WAL replay),
//! * [`server`] — the HTTP/SSE network front-end over the service:
//!   hand-rolled HTTP/1.1 on `std::net`, answers streamed as server-sent
//!   events, structured JSON errors, graceful drain,
//! * [`replica`] — the read-replica follower: bootstraps from a leader's
//!   snapshot over HTTP, tails its mutation WAL as an SSE stream, and
//!   applies records through the service's replication path so follower
//!   answers are byte-identical to the leader's at every shared epoch.
//!
//! ## Quick start
//!
//! The [`core::Banks`] builder owns keyword resolution, prestige and engine
//! selection; searches run in batch or as lazy answer streams:
//!
//! ```
//! use banks::prelude::*;
//!
//! // Build a tiny graph: a `writes` tuple connecting an author and a paper.
//! let mut builder = GraphBuilder::new();
//! let author = builder.add_node("author", "Jim Gray");
//! let paper = builder.add_node("paper", "Granularity of locks and degrees of consistency");
//! let writes = builder.add_node("writes", "w0");
//! builder.add_edge(writes, author).unwrap();
//! builder.add_edge(writes, paper).unwrap();
//! let graph = builder.build_default();
//!
//! // Open the graph and query it: the facade indexes node labels, applies
//! // uniform prestige, and runs Bidirectional search by default.
//! let banks = Banks::open(&graph);
//! let session = banks.query(["gray", "locks"]).top_k(10);
//!
//! // Batch: run to completion.
//! let outcome = session.run();
//! assert_eq!(outcome.answers[0].tree.root, writes);
//!
//! // Streaming: answers arrive lazily — stop as soon as you have enough.
//! let first = session.stream().next().unwrap();
//! assert_eq!(first.tree.root, writes);
//!
//! // Engines are selected by registry name.
//! let outcome_si = banks.query(["gray", "locks"]).engine("si-backward").run();
//! assert_eq!(outcome_si.answers[0].tree.root, writes);
//! ```
//!
//! ## Serving many queries at once
//!
//! For concurrent traffic, hand the graph to the [`service::Service`]
//! worker pool instead of querying on the caller's thread:
//!
//! ```
//! use banks::prelude::*;
//!
//! let mut builder = GraphBuilder::new();
//! let author = builder.add_node("author", "Jim Gray");
//! let paper = builder.add_node("paper", "Granularity of locks");
//! let writes = builder.add_node("writes", "w0");
//! builder.add_edge(writes, author).unwrap();
//! builder.add_edge(writes, paper).unwrap();
//!
//! let service = Service::builder(builder.build_default())
//!     .workers(4)
//!     .cache_capacity(256)
//!     .build();
//! let handle = service.submit(QuerySpec::parse("gray locks")).unwrap();
//! let (outcome, result) = handle.wait();
//! assert_eq!(outcome.answers[0].tree.root, writes);
//! assert!(!result.cache_hit); // a resubmission would hit the cache
//! ```

pub use banks_core as core;
pub use banks_datagen as datagen;
pub use banks_graph as graph;
pub use banks_persist as persist;
pub use banks_prestige as prestige;
pub use banks_relational as relational;
pub use banks_replica as replica;
pub use banks_server as server;
pub use banks_service as service;
pub use banks_textindex as textindex;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use banks_core::{
        build_label_index, drain, AnswerStream, AnswerTree, BackwardExpandingSearch, Banks,
        BidirectionalConfig, BidirectionalSearch, CacheKey, CancelToken, EmissionPolicy,
        EngineRegistry, GroundTruth, QueryContext, QueryCost, QuerySession, RankedAnswer,
        ResultCache, ScoreModel, SearchEngine, SearchOutcome, SearchParams, SearchStats,
        SingleIteratorBackwardSearch, UnknownEngine,
    };
    pub use banks_datagen::{
        figure4_example, DblpConfig, DblpDataset, ImdbConfig, ImdbDataset, KeywordCategory,
        PatentsConfig, PatentsDataset, QueryCase, WorkloadConfig, WorkloadGenerator,
    };
    pub use banks_graph::{
        BatchOutcome, DataGraph, EdgeKind, GraphBuilder, GraphMutation, GraphStats, MutationBatch,
        NodeId,
    };
    pub use banks_persist::{read_snapshot, recover, write_snapshot, SnapshotContents};
    pub use banks_prestige::{compute_pagerank, PrestigeVector};
    pub use banks_relational::{Database, DatabaseSchema, GraphExtraction, SparseSearch, TupleId};
    pub use banks_replica::Follower;
    pub use banks_server::Server;
    pub use banks_service::{
        DurabilityStatus, Event, EventLevel, EventLog, FsyncPolicy, GraphSnapshot, Health,
        LatencySummary, MutationReport, PersistError, Priority, QueryEvent, QueryHandle, QueryId,
        QueryResult, QuerySpec, ReplicationRole, ReplicationStatus, Service, ServiceBuilder,
        ServiceMetrics, SloReport, SloRow, SloSpec, SubmitError, TenantMetrics, TimeSeriesRing,
    };
    pub use banks_textindex::{IndexBuilder, InvertedIndex, KeywordMatches, Query, Tokenizer};
}
