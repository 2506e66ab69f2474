//! The streaming execution model: lazily evaluated answer streams.
//!
//! The paper's headline result is *incremental* emission — Bidirectional
//! expansion produces its first relevant answers long before the search
//! completes (Figures 5 and 6 measure time to the last relevant answer, but
//! Section 4.5's output heap exists precisely so answers can leave the
//! engine early).  A batch API hides that property: callers only see a
//! finished [`SearchOutcome`] and can neither observe
//! time-to-first-answer directly nor terminate a search early.
//!
//! [`AnswerStream`] makes emission the primitive.  Engines are resumable
//! step machines: [`crate::SearchEngine::start`] returns a stream, and each
//! [`Iterator::next`] call advances the underlying expansion *only* until
//! the next answer clears the emission policy.  Consequences:
//!
//! * `stream.next()` measures true time-to-first-answer,
//! * `stream.take(k)` / dropping the stream terminates the search early
//!   without exploring the rest of the graph,
//! * [`AnswerStream::stats`] exposes live work counters while the search
//!   runs,
//! * a per-answer **work budget**
//!   ([`crate::SearchParams::answer_work_budget`]) bounds the number of
//!   nodes the engine may explore between consecutive emissions: when the
//!   budget is exceeded, the engine stops expanding, flushes the answers it
//!   has already generated, and ends the stream (marking
//!   [`SearchStats::truncated`]).  Work budgets are deterministic — unlike
//!   the wall-clock gap accounting they replaced, they behave identically
//!   whether the process is idle or saturated by a hundred concurrent
//!   queries,
//! * a cooperative [`crate::CancelToken`] carried by the [`QueryContext`]
//!   is checked before every expansion step, so another thread can abort
//!   the search without dropping the stream (marking
//!   [`SearchStats::cancelled`]; the stream is *not* exhausted).
//!
//! The batch entry point [`crate::SearchEngine::search`] is now a default
//! method that drains the stream, so both paths share one implementation
//! and produce identical answer sequences.

use std::collections::VecDeque;
use std::time::Instant;

use banks_graph::DataGraph;
use banks_prestige::PrestigeVector;
use banks_textindex::KeywordMatches;

use crate::answer::AnswerTree;
use crate::cancel::CancelToken;
use crate::engine::{RankedAnswer, SearchOutcome};
use crate::params::SearchParams;
use crate::stats::{AnswerTiming, SearchStats};

/// Everything an engine needs to start a search: the borrowed inputs plus
/// an owned copy of the parameters.
///
/// `QueryContext` replaces the four positional arguments of the legacy
/// `search(graph, prestige, matches, params)` call; the
/// [`crate::Banks`] facade assembles it from a query builder.
#[derive(Clone, Copy)]
pub struct QueryContext<'a> {
    /// The data graph to search.
    pub graph: &'a DataGraph,
    /// Node prestige (uniform or biased PageRank).
    pub prestige: &'a PrestigeVector,
    /// Per-keyword origin sets.
    pub matches: &'a KeywordMatches,
    /// Search parameters (owned copy: `SearchParams` is `Copy`).
    pub params: SearchParams,
    /// Cooperative cancellation flag, checked before every expansion step.
    /// `None` means the search cannot be cancelled externally.
    pub cancel: Option<&'a CancelToken>,
}

impl<'a> QueryContext<'a> {
    /// Bundles the search inputs (no cancellation token; attach one with
    /// [`QueryContext::with_cancel`]).
    pub fn new(
        graph: &'a DataGraph,
        prestige: &'a PrestigeVector,
        matches: &'a KeywordMatches,
        params: SearchParams,
    ) -> Self {
        QueryContext {
            graph,
            prestige,
            matches,
            params,
            cancel: None,
        }
    }

    /// Attaches a cancellation token: the engine checks it before every
    /// expansion step and stops (without exhausting) once it is cancelled.
    pub fn with_cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether the attached token (if any) has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }
}

/// A lazily evaluated stream of ranked answers.
///
/// Produced by [`crate::SearchEngine::start`].  Each `next()` call resumes
/// the engine's expansion state machine until the next answer is released
/// by the emission policy (or the search exhausts / hits a cap / misses its
/// per-answer deadline).  Dropping the stream terminates the search.
pub trait AnswerStream: Iterator<Item = RankedAnswer> {
    /// Snapshot of the work counters so far.  While the stream is live the
    /// duration field reflects elapsed time; after exhaustion it is the
    /// total search duration.
    fn stats(&self) -> SearchStats;

    /// The engine variant driving this stream.
    fn engine_name(&self) -> &'static str;

    /// True once the stream can produce no further answers (every
    /// subsequent `next()` returns `None`).
    fn is_exhausted(&self) -> bool;
}

/// The stream-driver state shared by every engine's step machine: the
/// ready queue, emission bookkeeping, lifecycle flags and work counters.
/// Engines own one `StreamCore` and contribute only their expansion logic
/// through [`ExpansionMachine`].
pub(crate) struct StreamCore {
    /// Answers released by the emission policy but not yet consumed by the
    /// stream's caller.
    pub ready: VecDeque<RankedAnswer>,
    /// Total answers ever pushed into `ready` (the batch API's
    /// `outputs.len()`): ranks and the `top_k` cutoff derive from it.
    pub produced: usize,
    /// Whether the engine has seeded its frontier (done lazily on the
    /// first `next()` call so `started` reflects the consumer's first
    /// poll).
    pub seeded: bool,
    /// Whether the search has finished (frontier exhausted, caps hit,
    /// `top_k` reached, or work budget exceeded) and flushed its buffer.
    pub done: bool,
    pub started: Instant,
    /// `nodes_explored` when the previous answer left the stream (work
    /// budget bookkeeping).
    pub last_emission_explored: usize,
    pub stats: SearchStats,
}

impl StreamCore {
    pub fn new() -> Self {
        StreamCore {
            ready: VecDeque::new(),
            produced: 0,
            seeded: false,
            done: false,
            started: Instant::now(),
            last_emission_explored: 0,
            stats: SearchStats::default(),
        }
    }

    /// Marks the lazy-initialisation point: the consumer's first poll.
    pub fn begin(&mut self) {
        self.seeded = true;
        self.started = Instant::now();
        self.last_emission_explored = 0;
    }

    /// Moves policy-released answers into the ready queue, assigning ranks.
    pub fn push_released(&mut self, top_k: usize, released: Vec<(AnswerTree, AnswerTiming)>) {
        for (tree, timing) in released {
            // The heap's lifetime budget (initialized to top_k) already
            // caps total releases; assert that invariant instead of
            // silently re-enforcing it.
            debug_assert!(
                self.produced < top_k,
                "OutputHeap released more than top_k answers"
            );
            let rank = self.produced;
            self.produced += 1;
            self.stats.answers_output = self.produced;
            self.ready.push_back(RankedAnswer { rank, tree, timing });
        }
    }

    /// Seals the final statistics and marks the stream done.
    pub fn seal(&mut self, duplicates_discarded: usize, non_minimal_discarded: usize) {
        self.stats.answers_output = self.produced;
        self.stats.duplicates_discarded = duplicates_discarded;
        self.stats.non_minimal_discarded = non_minimal_discarded;
        self.stats.duration = self.started.elapsed();
        self.done = true;
    }

    /// Snapshot for [`AnswerStream::stats`]: live elapsed time while
    /// running, sealed duration once done.
    pub fn live_stats(&self) -> SearchStats {
        let mut stats = self.stats.clone();
        if self.seeded && !self.done {
            stats.duration = self.started.elapsed();
        }
        stats
    }

    pub fn is_exhausted(&self) -> bool {
        self.done && self.ready.is_empty()
    }
}

/// An engine's resumable expansion logic, plugged into the shared
/// [`next_answer`] driver.
pub(crate) trait ExpansionMachine {
    fn core(&self) -> &StreamCore;
    fn core_mut(&mut self) -> &mut StreamCore;
    /// The per-answer work budget (nodes explored between emissions) from
    /// the engine's parameters.
    fn answer_work_budget(&self) -> Option<usize>;
    /// Whether the query's cancellation token has been triggered.
    fn is_cancelled(&self) -> bool;
    /// One unit of work: seed on the first call, then one expansion step;
    /// must call `finish` when the search ends.
    fn advance(&mut self);
    /// Ends the search: flush buffered answers and seal the statistics.
    fn finish(&mut self);
}

/// The shared `Iterator::next` body: pump the ready queue, honour
/// cancellation and the per-answer work budget, and otherwise advance the
/// machine one step.
pub(crate) fn next_answer<M: ExpansionMachine>(machine: &mut M) -> Option<RankedAnswer> {
    loop {
        if let Some(answer) = machine.core_mut().ready.pop_front() {
            let core = machine.core_mut();
            core.last_emission_explored = core.stats.nodes_explored;
            return Some(answer);
        }
        if machine.core().done {
            return None;
        }
        if machine.is_cancelled() {
            // Cooperative abort: stop immediately without flushing or
            // sealing.  The stream is not exhausted — the engine never
            // proved there were no further answers — and the live stats
            // stay consistent (monotone counters, live duration).
            machine.core_mut().stats.cancelled = true;
            return None;
        }
        if let Some(budget) = machine.answer_work_budget() {
            let core = machine.core_mut();
            let spent = core
                .stats
                .nodes_explored
                .saturating_sub(core.last_emission_explored);
            if core.seeded && spent > budget {
                // Out of work budget for this answer: stop expanding, hand
                // out whatever was already generated, and end the stream.
                // Node counts (unlike wall-clock gaps) are deterministic, so
                // the cut-off point is identical under any load.
                core.stats.truncated = true;
                machine.finish();
                continue;
            }
        }
        machine.advance();
    }
}

/// Runs a stream to completion and packages the batch result.
///
/// This is the bridge from the streaming model back to the legacy batch
/// API: [`crate::SearchEngine::search`] is default-implemented as
/// `drain(self.start(ctx))`, which guarantees the two paths emit identical
/// answer sequences.
pub fn drain(mut stream: Box<dyn AnswerStream + '_>) -> SearchOutcome {
    let mut answers = Vec::new();
    for answer in stream.by_ref() {
        answers.push(answer);
    }
    SearchOutcome {
        answers,
        stats: stream.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidirectional::BidirectionalSearch;
    use crate::engine::SearchEngine;
    use banks_graph::builder::graph_from_edges;
    use banks_graph::NodeId;

    #[test]
    fn query_context_is_copy() {
        let g = graph_from_edges(3, &[(2, 0), (2, 1)]);
        let p = PrestigeVector::uniform_for(&g);
        let m = KeywordMatches::from_sets(vec![("a", vec![NodeId(0)]), ("b", vec![NodeId(1)])]);
        let ctx = QueryContext::new(&g, &p, &m, SearchParams::default());
        let ctx2 = ctx; // Copy
        assert_eq!(ctx.params.top_k, ctx2.params.top_k);
    }

    /// Cancelling a token mid-stream stops the engine within one
    /// `advance()` step: no further nodes are explored, the partial stats
    /// stay consistent (monotone counters), and the stream is *not*
    /// exhausted — cancellation is an abort, not a completed search.
    #[test]
    fn cancellation_mid_stream_stops_within_one_step() {
        // A cycle of writes-nodes with alternating keywords: many answers,
        // so the stream is genuinely mid-flight after the first emission.
        let g = graph_from_edges(
            12,
            &[
                (6, 0),
                (6, 1),
                (7, 1),
                (7, 2),
                (8, 2),
                (8, 3),
                (9, 3),
                (9, 4),
                (10, 4),
                (10, 5),
                (11, 5),
                (11, 0),
            ],
        );
        let p = PrestigeVector::uniform_for(&g);
        let m = KeywordMatches::from_sets(vec![
            ("a", vec![NodeId(0), NodeId(2), NodeId(4)]),
            ("b", vec![NodeId(1), NodeId(3), NodeId(5)]),
        ]);
        // Immediate emission keeps the stream live after the first answer
        // (ExactBound could complete the whole search before releasing).
        let params =
            SearchParams::with_top_k(64).emission(crate::params::EmissionPolicy::Immediate);
        let token = crate::CancelToken::new();
        let engine = BidirectionalSearch::new();
        let mut stream = engine.start(QueryContext::new(&g, &p, &m, params).with_cancel(&token));
        assert!(!stream.is_exhausted());

        let first = stream.next().expect("at least one answer before cancel");
        assert_eq!(first.rank, 0);
        let live_before = stream.stats();
        assert!(!live_before.cancelled);

        token.cancel();
        // Any buffered answers may still drain (they are already paid for),
        // but no further expansion happens.
        while stream.next().is_some() {}
        let live_after = stream.stats();
        assert!(live_after.cancelled, "cancel flag must be recorded");
        assert!(
            !stream.is_exhausted(),
            "a cancelled stream is aborted, not exhausted"
        );
        assert_eq!(
            live_after.nodes_explored, live_before.nodes_explored,
            "no expansion step may run after cancellation"
        );
        // live_stats stay monotone and consistent with the pre-cancel view
        assert!(live_after.nodes_touched >= live_before.nodes_touched);
        assert!(live_after.edges_traversed >= live_before.edges_traversed);
        assert!(live_after.answers_output >= live_before.answers_output);
        // ...and repeated polling stays put.
        assert!(stream.next().is_none());
        assert_eq!(stream.stats().nodes_explored, live_after.nodes_explored);
    }

    /// A token cancelled before the first poll prevents any work at all.
    #[test]
    fn cancellation_before_start_explores_nothing() {
        let g = graph_from_edges(3, &[(2, 0), (2, 1)]);
        let p = PrestigeVector::uniform_for(&g);
        let m = KeywordMatches::from_sets(vec![("a", vec![NodeId(0)]), ("b", vec![NodeId(1)])]);
        let token = crate::CancelToken::new();
        token.cancel();
        let mut stream = BidirectionalSearch::new()
            .start(QueryContext::new(&g, &p, &m, SearchParams::default()).with_cancel(&token));
        assert!(stream.next().is_none());
        let stats = stream.stats();
        assert!(stats.cancelled);
        assert_eq!(stats.nodes_explored, 0);
        assert!(!stream.is_exhausted());
    }

    /// All three engines honour cancellation through the shared driver.
    #[test]
    fn every_engine_honours_cancellation() {
        use crate::backward::BackwardExpandingSearch;
        use crate::si_backward::SingleIteratorBackwardSearch;

        let g = graph_from_edges(50, &(0..49).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let p = PrestigeVector::uniform_for(&g);
        let m = KeywordMatches::from_sets(vec![("a", vec![NodeId(0)]), ("b", vec![NodeId(49)])]);
        let params = SearchParams::default();
        let engines: Vec<Box<dyn crate::SearchEngine>> = vec![
            Box::new(BidirectionalSearch::new()),
            Box::new(SingleIteratorBackwardSearch::new()),
            Box::new(BackwardExpandingSearch::new()),
        ];
        for engine in engines {
            let token = crate::CancelToken::new();
            token.cancel();
            let mut stream =
                engine.start(QueryContext::new(&g, &p, &m, params).with_cancel(&token));
            assert!(stream.next().is_none(), "{}", engine.name());
            assert!(stream.stats().cancelled, "{}", engine.name());
            assert!(!stream.is_exhausted(), "{}", engine.name());
        }
    }

    #[test]
    fn drain_matches_manual_iteration() {
        let g = graph_from_edges(3, &[(2, 0), (2, 1)]);
        let p = PrestigeVector::uniform_for(&g);
        let m = KeywordMatches::from_sets(vec![("a", vec![NodeId(0)]), ("b", vec![NodeId(1)])]);
        let params = SearchParams::default();
        let engine = BidirectionalSearch::new();

        let outcome = drain(engine.start(QueryContext::new(&g, &p, &m, params)));

        let mut stream = engine.start(QueryContext::new(&g, &p, &m, params));
        let mut manual = Vec::new();
        for a in stream.by_ref() {
            manual.push(a);
        }
        assert!(stream.is_exhausted());
        assert_eq!(outcome.answers.len(), manual.len());
        for (a, b) in outcome.answers.iter().zip(&manual) {
            assert_eq!(a.tree.signature(), b.tree.signature());
            assert_eq!(a.rank, b.rank);
        }
        assert_eq!(outcome.stats.nodes_explored, stream.stats().nodes_explored);
    }
}
