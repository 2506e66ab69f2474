//! # banks-core
//!
//! The search algorithms of "Bidirectional Expansion For Keyword Search on
//! Graph Databases" (VLDB 2005), reimplemented in Rust around a **streaming
//! query API**: searches are lazily evaluated answer streams, and the
//! public entry point is a builder facade rather than positional arguments.
//!
//! ## The query facade
//!
//! [`Banks`] owns everything a query needs — the graph, node prestige, the
//! keyword index (built on demand from node labels when not supplied), and
//! an [`EngineRegistry`] mapping engine names to factories:
//!
//! ```
//! use banks_core::Banks;
//! use banks_graph::GraphBuilder;
//!
//! let mut builder = GraphBuilder::new();
//! let author = builder.add_node("author", "Jim Gray");
//! let paper = builder.add_node("paper", "Granularity of locks");
//! let writes = builder.add_node("writes", "w0");
//! builder.add_edge(writes, author).unwrap();
//! builder.add_edge(writes, paper).unwrap();
//! let graph = builder.build_default();
//!
//! let banks = Banks::open(&graph);
//! let session = banks.query(["gray", "locks"]).top_k(10);
//!
//! // Batch: run to completion.
//! let outcome = session.run();
//! assert_eq!(outcome.answers[0].tree.root, writes);
//!
//! // Streaming: answers arrive lazily; stop whenever you have enough.
//! let first = session.stream().next().unwrap();
//! assert_eq!(first.tree.root, writes);
//! ```
//!
//! ## The streaming execution model
//!
//! Every engine implements [`SearchEngine::start`], returning an
//! [`AnswerStream`] — an iterator over [`RankedAnswer`]s that drives the
//! expansion machinery *only* as far as the next emission:
//!
//! * `stream.next()` measures true time-to-first-answer (the paper's
//!   headline metric: Bidirectional expansion emits its first relevant
//!   answers orders of magnitude sooner than backward search),
//! * `stream.take(k)` or dropping the stream terminates the search early,
//! * [`AnswerStream::stats`] exposes live work counters,
//! * [`SearchParams::answer_work_budget`] bounds the nodes explored between
//!   emissions (a deterministic, load-independent deadline),
//! * a [`CancelToken`] attached via [`QueryContext::with_cancel`] (or
//!   [`QuerySession::cancel_token`]) aborts a running search from another
//!   thread within one expansion step.
//!
//! The batch [`SearchEngine::search`] is a default method that drains the
//! stream, so both paths share one implementation.
//!
//! ## Serving-tier building blocks
//!
//! [`ResultCache`] is a thread-safe LRU over completed [`SearchOutcome`]s,
//! keyed by `(graph epoch, normalized keywords, params/engine fingerprint)`;
//! the concurrent query service (`banks-service`) keeps its answers there
//! and shares the same cancellation tokens and work-budget deadlines.  The
//! wire codecs the front-end and the follower share live here too:
//! [`json`] renders and parses JSON, [`sse`] writes and parses server-sent
//! events and hex-codes binary payloads, and [`http`] reads HTTP/1.1
//! message heads.
//!
//! ## The engines
//!
//! * [`BidirectionalSearch`] — the paper's contribution (Section 4): a
//!   single *incoming* iterator expanding backward from keyword nodes, a
//!   concurrent *outgoing* iterator expanding forward from potential answer
//!   roots, and a spreading-activation prioritisation of the combined
//!   frontier,
//! * [`BackwardExpandingSearch`] — the BANKS-I baseline (Section 3): one
//!   Dijkstra iterator per keyword node, scheduled by shortest distance
//!   ("MI-Backward" in the evaluation),
//! * [`SingleIteratorBackwardSearch`] — the intermediate "SI-Backward"
//!   variant of Section 4.6: a single merged backward iterator prioritised
//!   by distance, with no forward iterator and no activation.
//!
//! All three are registered in [`EngineRegistry::with_default_engines`] and
//! selectable by name (`"bidirectional"`, `"si-backward"`,
//! `"mi-backward"`, plus the ablation configurations), which is how the
//! benchmark harness and examples pick engines.
//!
//! Supporting structure: the answer-tree model and ranking of Section 2
//! ([`AnswerTree`], [`ScoreModel`]), the output buffering / top-k emission
//! logic of Section 4.5 ([`output::OutputHeap`]), the indexed frontier
//! queue the expansion engine keeps its per-query state around
//! ([`pq::IndexedMaxHeap`]), a priori cost estimation
//! for admission scheduling ([`QueryCost`]), and instrumentation
//! ([`SearchStats`], [`SearchOutcome::time_to_first_answer`]) exposing the
//! paper's metrics.

#![deny(missing_docs)]

pub mod answer;
mod arena;
pub mod backward;
pub mod bidirectional;
pub mod cache;
pub mod cancel;
pub mod cost;
pub mod engine;
pub mod http;
pub mod json;
pub mod output;
pub mod params;
pub mod pq;
pub mod registry;
pub mod relevance;
pub mod score;
pub mod session;
pub mod si_backward;
pub mod sse;
pub mod stats;
pub mod stream;

pub use answer::AnswerTree;
pub use backward::BackwardExpandingSearch;
pub use bidirectional::{BidirectionalConfig, BidirectionalSearch};
pub use cache::{CacheKey, ResultCache};
pub use cancel::CancelToken;
pub use cost::QueryCost;
pub use engine::{RankedAnswer, SearchEngine, SearchOutcome};
pub use params::{EmissionPolicy, SearchParams};
pub use registry::{EngineRegistry, UnknownEngine};
pub use relevance::{GroundTruth, RecallPrecision};
pub use score::ScoreModel;
pub use session::{build_label_index, label_index_delta, Banks, QuerySession};
pub use si_backward::SingleIteratorBackwardSearch;
pub use stats::{AnswerTiming, SearchStats};
pub use stream::{drain, AnswerStream, QueryContext};
