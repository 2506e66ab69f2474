//! The streaming execution model: lazily evaluated answer streams, and the
//! one driver that runs every engine.
//!
//! The paper's headline result is *incremental* emission — Bidirectional
//! expansion produces its first relevant answers long before the search
//! completes (Figures 5 and 6 measure time to the last relevant answer, but
//! Section 4.5's output heap exists precisely so answers can leave the
//! engine early).  A batch API hides that property: callers only see a
//! finished [`SearchOutcome`] and can neither observe
//! time-to-first-answer directly nor terminate a search early.
//!
//! [`AnswerStream`] makes emission the primitive.
//! [`crate::SearchEngine::start`] returns a stream, and each
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
//!   wall-clock gaps, they behave identically whether the process is idle
//!   or saturated by a hundred concurrent queries,
//! * a cooperative [`crate::CancelToken`] carried by the [`QueryContext`]
//!   is checked before every expansion step, so another thread can abort
//!   the search without dropping the stream (marking
//!   [`SearchStats::cancelled`]; the stream is *not* exhausted).
//!
//! # One driver, many engines
//!
//! The three algorithms differ only in how they expand, so an engine is
//! just its expansion: an `Expansion` that can
//!
//! * **seed** its frontier with the keyword nodes,
//! * say whether its **frontier is exhausted**,
//! * take one **step** — expand one frontier node, hand the candidates it
//!   generates to the output heap in its `StreamCore`, and release what
//!   its bound on future answers allows (`StreamCore::release`).
//!
//! Everything around that is the driver's, written once here: lazy
//! seeding on the first poll (so the stats' clock starts at the consumer's
//! first `next()`), the ready queue and ranks, cancellation, the work
//! budget, the stop rules and the final flush.  Each `next()` hands out a
//! ready answer if there is one; otherwise it checks, in this order,
//!
//! 1. the search has ended — `None`;
//! 2. the token is cancelled — `None`, [`SearchStats::cancelled`], no
//!    flush (a cancelled stream is not exhausted);
//! 3. more than `answer_work_budget` nodes explored since the last answer
//!    left — truncated, then the finish;
//!
//! and otherwise advances the engine: the first advance seeds it (or
//! finishes at once when there is no keyword or one matches nothing), and
//! every later one first checks
//!
//! 4. the frontier is exhausted,
//! 5. `top_k` answers are out,
//! 6. `max_explored` nodes are explored — truncated,
//! 7. `max_generated` answers are generated — truncated,
//!
//! finishing on the first that holds, and otherwise takes one step.  The
//! finish flushes the output heap once — whatever is still buffered is the
//! best known, even if the search stopped early — and seals the stats.
//!
//! The batch entry point [`crate::SearchEngine::search`] is a default
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
use crate::output::{CandidatePool, OutputHeap};
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
/// the engine's expansion until the next answer is released by the
/// emission policy (or the search exhausts / hits a cap / runs out of its
/// per-answer work budget).  Dropping the stream terminates the search.
pub trait AnswerStream: Iterator<Item = RankedAnswer> {
    /// Snapshot of the work counters so far.  While the stream is live the
    /// duration field reflects elapsed time; after exhaustion it is the
    /// total search duration.
    fn stats(&self) -> SearchStats;

    /// True once the stream can produce no further answers (every
    /// subsequent `next()` returns `None`).
    fn is_exhausted(&self) -> bool;
}

/// What an engine's expansion writes to: the work counters, the clock its
/// answer timings read, and the output heap (Section 4.5) its candidates
/// wait in.  The lifecycle — ranks, the ready queue, whether the search
/// has started or ended — is the driver's alone.
pub(crate) struct StreamCore {
    /// Buffered candidates, released as the engine's bound allows and
    /// flushed once when the search ends.
    pub heap: OutputHeap,
    /// The consumer's first poll (reset when the engine is seeded).
    pub started: Instant,
    pub stats: SearchStats,
    top_k: usize,
    max_generated: Option<usize>,
    /// Answers released by the emission policy but not yet consumed by the
    /// stream's caller.
    ready: VecDeque<RankedAnswer>,
    /// Total answers ever pushed into `ready` (the batch API's
    /// `outputs.len()`): ranks and the `top_k` cutoff derive from it.
    produced: usize,
    /// Whether the engine has been seeded (on the first poll).
    seeded: bool,
    /// Whether the search has ended and flushed its output heap.
    done: bool,
    /// `nodes_explored` when the previous answer left the stream (work
    /// budget bookkeeping).
    last_emission_explored: usize,
}

impl StreamCore {
    /// State for one search, its output heap built on `pool` (storage an
    /// earlier query used, or a fresh one).
    pub fn new(ctx: &QueryContext<'_>, pool: CandidatePool) -> Self {
        let params = &ctx.params;
        StreamCore {
            heap: OutputHeap::with_pool(
                pool,
                params.score_model(),
                params.emission,
                ctx.matches.num_keywords(),
                ctx.prestige.max(),
                params.top_k,
            ),
            started: Instant::now(),
            stats: SearchStats::default(),
            top_k: params.top_k,
            max_generated: params.max_generated,
            ready: VecDeque::new(),
            produced: 0,
            seeded: false,
            done: false,
            last_emission_explored: 0,
        }
    }

    /// Whether `max_generated` still allows another answer to be
    /// generated.  Engines ask before each candidate; the driver ends the
    /// search, truncated, once it does not.
    #[inline]
    pub fn may_generate(&self) -> bool {
        self.max_generated
            .is_none_or(|cap| self.stats.answers_generated < cap)
    }

    /// Releases every buffered answer the emission policy lets out given
    /// `min_future_edge_weight`, the engine's bound on the aggregate edge
    /// weight of any answer not yet generated.
    pub fn release(&mut self, min_future_edge_weight: f64) {
        if !self.heap.can_release(min_future_edge_weight) {
            return;
        }
        let released = self.heap.release(
            min_future_edge_weight,
            self.started.elapsed(),
            self.stats.nodes_explored,
        );
        self.push_released(released);
    }

    /// Ends the search: flushes the output heap once and seals the stats.
    fn finish(&mut self) {
        self.release(f64::INFINITY);
        self.stats.answers_output = self.produced;
        self.stats.duplicates_discarded = self.heap.duplicates_discarded();
        self.stats.non_minimal_discarded = self.heap.non_minimal_discarded();
        self.stats.duration = self.started.elapsed();
        self.done = true;
    }

    /// Moves released answers into the ready queue, assigning ranks.
    fn push_released(&mut self, released: Vec<(AnswerTree, AnswerTiming)>) {
        for (tree, timing) in released {
            // The heap's lifetime budget (initialized to top_k) already
            // caps total releases; assert that invariant instead of
            // silently re-enforcing it.
            debug_assert!(
                self.produced < self.top_k,
                "OutputHeap released more than top_k answers"
            );
            let rank = self.produced;
            self.produced += 1;
            self.stats.answers_output = self.produced;
            self.ready.push_back(RankedAnswer { rank, tree, timing });
        }
    }
}

/// An engine's expansion, run by [`Stream`] (see the module docs for the
/// contract and what the driver does around it).
pub(crate) trait Expansion {
    fn core(&self) -> &StreamCore;
    fn core_mut(&mut self) -> &mut StreamCore;
    /// Puts the keyword nodes on the frontier.  Called once, on the first
    /// poll, and only when every keyword matches some node.
    fn seed(&mut self);
    /// Whether no frontier node is left to expand.
    fn frontier_exhausted(&self) -> bool;
    /// Expands one frontier node and releases what the engine's bound
    /// allows.  Called only while the frontier is not exhausted.
    fn step(&mut self);
}

/// The answer stream of every engine: the driver around an [`Expansion`].
pub(crate) struct Stream<'a, E> {
    ctx: QueryContext<'a>,
    engine: E,
}

impl<'a, E: Expansion + 'a> Stream<'a, E> {
    pub fn new(ctx: QueryContext<'a>, engine: E) -> Self {
        Stream { ctx, engine }
    }

    /// The stream, boxed as [`crate::SearchEngine::start`] returns it.
    pub fn boxed(ctx: QueryContext<'a>, engine: E) -> Box<dyn AnswerStream + 'a> {
        Box::new(Self::new(ctx, engine))
    }

    /// The engine behind the stream, for tests that inspect its state.
    #[cfg(test)]
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Seeds the engine on the first call; afterwards finishes the search
    /// if a stop rule holds (checks 4–7 of the module docs, in order) and
    /// otherwise takes one step.
    fn advance(&mut self) {
        let params = &self.ctx.params;
        let core = self.engine.core_mut();
        if !core.seeded {
            core.seeded = true;
            core.started = Instant::now();
            let matches = self.ctx.matches;
            if matches.num_keywords() == 0 || !matches.all_keywords_matched() {
                core.finish();
            } else {
                self.engine.seed();
            }
            return;
        }
        let exhausted = self.engine.frontier_exhausted();
        let core = self.engine.core_mut();
        if exhausted || core.produced >= params.top_k {
            core.finish();
            return;
        }
        let explored_cap = params
            .max_explored
            .is_some_and(|cap| core.stats.nodes_explored >= cap);
        if explored_cap || !core.may_generate() {
            core.stats.truncated = true;
            core.finish();
            return;
        }
        self.engine.step();
    }
}

impl<'a, E: Expansion + 'a> Iterator for Stream<'a, E> {
    type Item = RankedAnswer;

    /// Hands out a ready answer, or runs checks 1–3 of the module docs and
    /// advances the engine until one is ready or the search ends.
    fn next(&mut self) -> Option<RankedAnswer> {
        loop {
            let core = self.engine.core_mut();
            if let Some(answer) = core.ready.pop_front() {
                core.last_emission_explored = core.stats.nodes_explored;
                return Some(answer);
            }
            if core.done {
                return None;
            }
            if self.ctx.is_cancelled() {
                // Cooperative abort: stop immediately without flushing or
                // sealing.  The stream is not exhausted — the engine never
                // proved there were no further answers — and the live stats
                // stay consistent (monotone counters, live duration).
                core.stats.cancelled = true;
                return None;
            }
            // Nothing is spent before the engine is seeded.
            let spent = core.stats.nodes_explored - core.last_emission_explored;
            if self
                .ctx
                .params
                .answer_work_budget
                .is_some_and(|budget| spent > budget)
            {
                // Out of work budget for this answer: stop expanding, hand
                // out whatever was already generated, and end the stream.
                // Node counts (unlike wall-clock gaps) are deterministic, so
                // the cut-off point is identical under any load.
                core.stats.truncated = true;
                core.finish();
                continue;
            }
            self.advance();
        }
    }
}

impl<'a, E: Expansion + 'a> AnswerStream for Stream<'a, E> {
    /// Live elapsed time while running, the sealed duration once done.
    fn stats(&self) -> SearchStats {
        let core = self.engine.core();
        let mut stats = core.stats.clone();
        if core.seeded && !core.done {
            stats.duration = core.started.elapsed();
        }
        stats
    }

    fn is_exhausted(&self) -> bool {
        let core = self.engine.core();
        core.done && core.ready.is_empty()
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

    /// Every registry engine stops for the same reasons, checked in the
    /// same order by the one stream driver.  Each row is one stop case run
    /// on every engine; each cell is `(answers_output, nodes_explored,
    /// flags)`, the flags naming which of `truncated` (`t`), `cancelled`
    /// (`c`) and `is_exhausted()` (`x`) hold.  `tests/engine_golden.tsv`
    /// pins answers and counters but not `truncated`, so this table is what
    /// holds the order of the checks.
    #[test]
    fn every_engine_honours_cancellation() {
        use crate::params::EmissionPolicy;
        use crate::registry::EngineRegistry;

        type Cell = (usize, usize, &'static str);
        const ENGINES: [&str; 5] = [
            "bidirectional",
            "si-backward",
            "mi-backward",
            "bidirectional-no-activation",
            "backward-activation",
        ];
        // The cycle of `cancellation_mid_stream_stops_within_one_step`: six
        // answers (eighteen for MI-Backward), so every stop rule can trip
        // before the end.
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
        let wide = SearchParams::with_top_k(64);
        // (case, params, answers taken before the token is cancelled, one
        // cell per engine in `ENGINES` order)
        #[rustfmt::skip]
        let cases: [(&str, SearchParams, Option<usize>, [Cell; 5]); 10] = [
            ("cancel before the first poll", wide, Some(0),
                [(0, 0, "c"), (0, 0, "c"), (0, 0, "c"), (0, 0, "c"), (0, 0, "c")]),
            ("cancel after the first answer", wide.emission(EmissionPolicy::Immediate), Some(1),
                [(1, 2, "c"), (1, 2, "c"), (1, 13, "c"), (1, 2, "c"), (1, 2, "c")]),
            ("top_k reached", SearchParams::with_top_k(2), None,
                [(2, 6, "x"), (2, 6, "x"), (2, 14, "x"), (2, 6, "x"), (2, 6, "x")]),
            ("frontier exhausted", wide, None,
                [(6, 24, "x"), (6, 12, "x"), (18, 72, "x"), (6, 24, "x"), (6, 12, "x")]),
            ("max_explored", wide.max_explored(4), None,
                [(3, 4, "tx"), (3, 4, "tx"), (0, 4, "tx"), (3, 4, "tx"), (3, 4, "tx")]),
            ("max_generated", wide.max_generated(2), None,
                [(2, 3, "tx"), (2, 3, "tx"), (2, 14, "tx"), (2, 3, "tx"), (2, 3, "tx")]),
            ("answer_work_budget(0)", wide.answer_work_budget(0), None,
                [(0, 1, "tx"), (0, 1, "tx"), (0, 1, "tx"), (0, 1, "tx"), (0, 1, "tx")]),
            ("budget and cap on one step", wide.answer_work_budget(0).max_explored(1), None,
                [(0, 1, "tx"), (0, 1, "tx"), (0, 1, "tx"), (0, 1, "tx"), (0, 1, "tx")]),
            // The two backward-only frontiers empty on their 12th node:
            // exhausted is checked before the cap, so they are not truncated.
            ("cap at the frontier's end", wide.max_explored(12), None,
                [(6, 12, "tx"), (6, 12, "x"), (0, 12, "tx"), (6, 12, "tx"), (6, 12, "x")]),
            // The second answer leaves on the 6th node: `top_k` is checked
            // before the cap, so only MI-Backward is truncated.
            ("top_k and a cap", SearchParams::with_top_k(2).max_explored(6), None,
                [(2, 6, "x"), (2, 6, "x"), (0, 6, "tx"), (2, 6, "x"), (2, 6, "x")]),
        ];
        let registry = EngineRegistry::with_default_engines();
        let mut failures = Vec::new();
        for (case, params, cancel_after, cells) in cases {
            for (name, expected) in ENGINES.into_iter().zip(cells) {
                let engine = registry.resolve(name).expect("a registry engine");
                let token = crate::CancelToken::new();
                let mut stream =
                    engine.start(QueryContext::new(&g, &p, &m, params).with_cancel(&token));
                if let Some(taken) = cancel_after {
                    for _ in 0..taken {
                        stream.next().expect("an answer before the cancel");
                    }
                    token.cancel();
                }
                while stream.next().is_some() {}
                let stats = stream.stats();
                let flags: String = [
                    (stats.truncated, 't'),
                    (stats.cancelled, 'c'),
                    (stream.is_exhausted(), 'x'),
                ]
                .into_iter()
                .filter_map(|(holds, flag)| holds.then_some(flag))
                .collect();
                let cell = (stats.answers_output, stats.nodes_explored, flags.as_str());
                if cell != expected {
                    failures.push(format!("{case} / {name}: {cell:?}, recorded {expected:?}"));
                }
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
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
