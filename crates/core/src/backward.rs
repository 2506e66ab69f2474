//! The multi-iterator Backward expanding search baseline (Section 3 of the
//! paper; "MI-Backward" in the evaluation).
//!
//! One single-source-shortest-path iterator is created for every node that
//! matches a keyword.  Each iterator runs Dijkstra's algorithm over the
//! *incoming* edges of the expanded graph (it explores the nodes that can
//! reach its origin).  At every step the globally smallest frontier distance
//! decides which iterator advances.  When a node has been visited by at
//! least one iterator of every keyword, each combination of one iterator per
//! keyword that reached it defines an answer tree rooted at that node.
//!
//! `MiExpander` is only the expansion: it seeds one iterator per keyword
//! node, and a step advances the iterator with the smallest next distance
//! and releases answers against the bound `k ·` that distance.  The stream
//! around it — lazy seeding, cancellation, the work budget, `top_k`, the
//! safety caps and the final flush — is the driver in `stream.rs`, shared
//! with Bidirectional and SI-Backward.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use banks_graph::{DataGraph, NodeId};

use crate::answer::AnswerTree;
use crate::engine::SearchEngine;
use crate::pq::{order_key, priority_of};
use crate::score::ScoreModel;
use crate::stream::{AnswerStream, Expansion, QueryContext, Stream, StreamCore};

/// Upper bound on the number of answer-tree combinations generated when a
/// single node is reached by many iterators of the same keyword, protecting
/// against the cross-product blow-up inherent to the multi-iterator design.
const MAX_COMBINATIONS_PER_VISIT: usize = 256;

/// The MI-Backward search engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct BackwardExpandingSearch;

impl BackwardExpandingSearch {
    /// Creates the engine.
    pub fn new() -> Self {
        BackwardExpandingSearch
    }
}

/// One single-source shortest-path iterator (one per keyword node).
struct SsspIterator {
    keyword: usize,
    origin: NodeId,
    /// Tentative distance labels.
    tentative: HashMap<NodeId, f64>,
    /// Finalised nodes.
    visited: HashMap<NodeId, f64>,
    /// `pred[u]` is the next node on the best path from `u` towards the
    /// origin (i.e. the node whose expansion relaxed `u`).
    pred: HashMap<NodeId, NodeId>,
    /// Hop depth of each labelled node.
    depth: HashMap<NodeId, u32>,
    /// Tentative distances by [`order_key`], smallest first.
    frontier: BinaryHeap<Reverse<(i64, NodeId)>>,
}

impl SsspIterator {
    fn new(keyword: usize, origin: NodeId) -> Self {
        let mut it = SsspIterator {
            keyword,
            origin,
            tentative: HashMap::new(),
            visited: HashMap::new(),
            pred: HashMap::new(),
            depth: HashMap::new(),
            frontier: BinaryHeap::new(),
        };
        it.tentative.insert(origin, 0.0);
        it.depth.insert(origin, 0);
        it.frontier.push(Reverse((order_key(0.0), origin)));
        it
    }

    /// Distance of the next node this iterator would visit, if any.
    fn peek_dist(&mut self) -> Option<f64> {
        while let Some(&Reverse((key, node))) = self.frontier.peek() {
            let d = priority_of(key);
            let stale = self.visited.contains_key(&node)
                || self
                    .tentative
                    .get(&node)
                    .map(|t| (t - d).abs() > 1e-12)
                    .unwrap_or(true);
            if stale {
                self.frontier.pop();
            } else {
                return Some(d);
            }
        }
        None
    }

    /// Runs one `getnext()` step: finalises the closest frontier node and
    /// relaxes its incoming edges.  Returns the finalised node, its
    /// distance, and the number of nodes newly labelled (touched).
    fn step(&mut self, graph: &DataGraph, dmax: usize) -> Option<(NodeId, f64, usize)> {
        self.peek_dist()?;
        let Reverse((key, m)) = self.frontier.pop()?;
        let d = priority_of(key);
        self.visited.insert(m, d);
        let depth_m = *self.depth.get(&m).unwrap_or(&0);
        let mut newly_touched = 0usize;
        if (depth_m as usize) < dmax {
            for e in graph.in_edges(m) {
                let u = e.from;
                if self.visited.contains_key(&u) {
                    continue;
                }
                let candidate = d + e.weight;
                let better = self
                    .tentative
                    .get(&u)
                    .map(|t| candidate < *t - 1e-12)
                    .unwrap_or(true);
                if better {
                    if !self.tentative.contains_key(&u) {
                        newly_touched += 1;
                    }
                    self.tentative.insert(u, candidate);
                    self.pred.insert(u, m);
                    self.depth.insert(u, depth_m + 1);
                    self.frontier.push(Reverse((order_key(candidate), u)));
                }
            }
        }
        Some((m, d, newly_touched))
    }

    /// Path from `root` to this iterator's origin, following the relaxation
    /// predecessors.  `root` must have been visited.
    fn path_to_origin(&self, root: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![root];
        let mut cur = root;
        let mut guard = 0usize;
        while cur != self.origin {
            cur = *self.pred.get(&cur)?;
            path.push(cur);
            guard += 1;
            if guard > 10_000 {
                return None;
            }
        }
        Some(path)
    }
}

impl SearchEngine for BackwardExpandingSearch {
    fn name(&self) -> &'static str {
        "MI-Backward"
    }

    fn start<'a>(&self, ctx: QueryContext<'a>) -> Box<dyn AnswerStream + 'a> {
        Stream::boxed(ctx, MiExpander::new(ctx))
    }
}

/// The multi-iterator expansion machinery, run by the stream driver one
/// step at a time (see `stream.rs`): each step finalises one node of one
/// iterator.
struct MiExpander<'a> {
    ctx: QueryContext<'a>,
    model: ScoreModel,
    num_keywords: usize,
    /// One SSSP iterator per keyword node.
    iterators: Vec<SsspIterator>,
    /// Global scheduler over iterators, keyed by the [`order_key`] of
    /// their next frontier distance, smallest first.  An iterator has at
    /// most one entry, pushed after its last step, so the key is current
    /// when it is popped.
    scheduler: BinaryHeap<Reverse<(i64, usize)>>,
    /// `visited_by[node][keyword]` = iterator indices that have visited it.
    visited_by: HashMap<NodeId, Vec<Vec<usize>>>,
    /// Work counters and the output heap.
    core: StreamCore,
}

impl<'a> MiExpander<'a> {
    fn new(ctx: QueryContext<'a>) -> Self {
        MiExpander {
            model: ctx.params.score_model(),
            num_keywords: ctx.matches.num_keywords(),
            iterators: Vec::new(),
            scheduler: BinaryHeap::new(),
            visited_by: HashMap::new(),
            core: StreamCore::new(&ctx, Default::default()),
            ctx,
        }
    }
}

impl Expansion for MiExpander<'_> {
    fn core(&self) -> &StreamCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut StreamCore {
        &mut self.core
    }

    /// One iterator per keyword node, each scheduled at distance 0.
    fn seed(&mut self) {
        for i in 0..self.num_keywords {
            for origin in self.ctx.matches.origin_set(i) {
                self.iterators.push(SsspIterator::new(i, *origin));
            }
        }
        self.core.stats.nodes_touched = self.iterators.len(); // every origin is labelled once
        for (idx, it) in self.iterators.iter_mut().enumerate() {
            if let Some(d) = it.peek_dist() {
                self.scheduler.push(Reverse((order_key(d), idx)));
            }
        }
    }

    fn frontier_exhausted(&self) -> bool {
        self.scheduler.is_empty()
    }

    /// Advances the iterator with the globally smallest frontier distance,
    /// generates the answers its new node completes, and releases what the
    /// bound allows.
    fn step(&mut self) {
        let Some(Reverse((key, idx))) = self.scheduler.pop() else {
            return;
        };
        debug_assert_eq!(
            self.iterators[idx].peek_dist().map(order_key),
            Some(key),
            "a scheduler entry is its iterator's current frontier distance"
        );
        let graph = self.ctx.graph;
        let Some((m, dist_m, newly_touched)) =
            self.iterators[idx].step(graph, self.ctx.params.dmax)
        else {
            return;
        };
        self.core.stats.nodes_explored += 1;
        self.core.stats.nodes_touched += newly_touched;
        self.core.stats.edges_traversed += graph.in_degree(m);
        if let Some(next) = self.iterators[idx].peek_dist() {
            self.scheduler.push(Reverse((order_key(next), idx)));
        }

        // Record the visit and generate answers for new combinations.
        let keyword = self.iterators[idx].keyword;
        let lists = self
            .visited_by
            .entry(m)
            .or_insert_with(|| vec![Vec::new(); self.num_keywords]);
        lists[keyword].push(idx);
        let all_reached = lists.iter().all(|l| !l.is_empty());
        if all_reached {
            let combos = enumerate_combinations(lists, keyword, idx, MAX_COMBINATIONS_PER_VISIT);
            for combo in combos {
                if !self.core.may_generate() {
                    break;
                }
                let mut paths = Vec::with_capacity(self.num_keywords);
                let mut ok = true;
                for iter_idx in &combo {
                    match self.iterators[*iter_idx].path_to_origin(m) {
                        Some(p) => paths.push(p),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let tree = AnswerTree::new(m, paths, graph, self.ctx.prestige, &self.model);
                self.core.stats.answers_generated += 1;
                let explored = self.core.stats.nodes_explored;
                self.core
                    .heap
                    .insert(tree, self.core.started.elapsed(), explored);
            }
        }

        // Release answers using the coarse bound of Section 4.5: because
        // the iterators run Dijkstra, distances are finalised in
        // non-decreasing order, so any answer generated in the future
        // pays at least the globally smallest frontier distance `dist_m`
        // for every keyword path still to be discovered — the paper's
        // `h(m_1..m_k) = k · dist_m`.
        self.core.release(self.num_keywords as f64 * dist_m);
    }
}

/// Enumerates combinations of one iterator per keyword that include the
/// newly arrived iterator `new_idx` for keyword `new_keyword` (so that every
/// combination is generated exactly once over the lifetime of the search).
fn enumerate_combinations(
    lists: &[Vec<usize>],
    new_keyword: usize,
    new_idx: usize,
    cap: usize,
) -> Vec<Vec<usize>> {
    let mut result = Vec::new();
    let mut current = vec![0usize; lists.len()];
    fn recurse(
        lists: &[Vec<usize>],
        new_keyword: usize,
        new_idx: usize,
        cap: usize,
        keyword: usize,
        current: &mut Vec<usize>,
        result: &mut Vec<Vec<usize>>,
    ) {
        if result.len() >= cap {
            return;
        }
        if keyword == lists.len() {
            result.push(current.clone());
            return;
        }
        if keyword == new_keyword {
            current[keyword] = new_idx;
            recurse(
                lists,
                new_keyword,
                new_idx,
                cap,
                keyword + 1,
                current,
                result,
            );
        } else {
            for idx in &lists[keyword] {
                current[keyword] = *idx;
                recurse(
                    lists,
                    new_keyword,
                    new_idx,
                    cap,
                    keyword + 1,
                    current,
                    result,
                );
                if result.len() >= cap {
                    return;
                }
            }
        }
    }
    recurse(
        lists,
        new_keyword,
        new_idx,
        cap,
        0,
        &mut current,
        &mut result,
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidirectional::BidirectionalSearch;
    use crate::engine::SearchOutcome;
    use crate::params::SearchParams;
    use crate::si_backward::SingleIteratorBackwardSearch;
    use banks_graph::builder::graph_from_edges;
    use banks_prestige::PrestigeVector;
    use banks_textindex::KeywordMatches;

    fn uniform(graph: &DataGraph) -> PrestigeVector {
        PrestigeVector::uniform_for(graph)
    }

    #[test]
    fn enumerate_combinations_includes_new_iterator() {
        let lists = vec![vec![1, 2], vec![3], vec![4, 5]];
        let combos = enumerate_combinations(&lists, 1, 3, 100);
        assert_eq!(combos.len(), 4);
        for c in &combos {
            assert_eq!(c[1], 3);
            assert!(lists[0].contains(&c[0]));
            assert!(lists[2].contains(&c[2]));
        }
        let capped = enumerate_combinations(&lists, 1, 3, 2);
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn finds_simple_join_tree() {
        let g = graph_from_edges(3, &[(2, 0), (2, 1)]);
        let p = uniform(&g);
        let matches = KeywordMatches::from_sets(vec![
            ("gray", vec![NodeId(0)]),
            ("transaction", vec![NodeId(1)]),
        ]);
        let outcome =
            BackwardExpandingSearch::new().search(&g, &p, &matches, &SearchParams::default());
        assert_eq!(outcome.answers.len(), 1);
        assert_eq!(outcome.answers[0].tree.root, NodeId(2));
        assert!(outcome.stats.nodes_explored > 0);
    }

    #[test]
    fn agrees_with_single_iterator_variants_on_answer_sets() {
        let g = graph_from_edges(
            9,
            &[
                (4, 0),
                (4, 1),
                (5, 1),
                (5, 2),
                (6, 2),
                (6, 3),
                (7, 3),
                (7, 0),
                (8, 0),
                (8, 2),
            ],
        );
        let p = uniform(&g);
        let matches =
            KeywordMatches::from_sets(vec![("a", vec![NodeId(0)]), ("b", vec![NodeId(2)])]);
        let params = SearchParams::with_top_k(100);
        let mi = BackwardExpandingSearch::new().search(&g, &p, &matches, &params);
        let si = SingleIteratorBackwardSearch::new().search(&g, &p, &matches, &params);
        let bidir = BidirectionalSearch::new().search(&g, &p, &matches, &params);
        let mut a = mi.signatures();
        let mut b = si.signatures();
        let mut c = bidir.signatures();
        a.sort();
        b.sort();
        c.sort();
        assert_eq!(a, b, "MI-Backward vs SI-Backward answer sets differ");
        assert_eq!(b, c, "SI-Backward vs Bidirectional answer sets differ");
    }

    #[test]
    fn multi_iterator_touches_more_nodes_than_single_iterator() {
        // A keyword with many matching nodes forces MI-Backward to run many
        // iterators over the same region.
        let mut edges = Vec::new();
        // star of 30 "database" papers all written by author 30 via writes nodes 31..61
        for i in 0..30u32 {
            edges.push((31 + i, i)); // writes -> paper_i
            edges.push((31 + i, 61)); // writes -> author
        }
        let g = graph_from_edges(62, &edges);
        let p = uniform(&g);
        let matches = KeywordMatches::from_sets(vec![
            ("database", (0..30).map(NodeId).collect()),
            ("author", vec![NodeId(61)]),
        ]);
        let params = SearchParams::with_top_k(1);
        let mi = BackwardExpandingSearch::new().search(&g, &p, &matches, &params);
        let si = SingleIteratorBackwardSearch::new().search(&g, &p, &matches, &params);
        assert!(!mi.answers.is_empty());
        assert!(!si.answers.is_empty());
        assert!(
            mi.stats.nodes_touched > si.stats.nodes_touched,
            "MI touched {} <= SI touched {}",
            mi.stats.nodes_touched,
            si.stats.nodes_touched
        );
    }

    /// 30 papers under one author hub plus a second hub over half of them:
    /// 32 iterators whose frontiers interleave at equal distances.
    fn busy_graph() -> (DataGraph, KeywordMatches) {
        let mut edges = Vec::new();
        for i in 0..30u32 {
            edges.push((31 + i, i));
            edges.push((31 + i, 61));
        }
        for i in 0..15u32 {
            edges.push((62 + i, 2 * i));
            edges.push((62 + i, 77));
        }
        let g = graph_from_edges(78, &edges);
        let m = KeywordMatches::from_sets(vec![
            ("database", (0..30).map(NodeId).collect()),
            ("author", vec![NodeId(61), NodeId(77)]),
        ]);
        (g, m)
    }

    /// Each capped run emits a rank-and-signature prefix of the uncapped
    /// run and stops where its cap says: (explored, touched, generated,
    /// output, truncated) are exact.
    #[test]
    fn capped_runs_are_prefixes_of_the_uncapped_run_and_stop_at_their_cap() {
        let (g, m) = busy_graph();
        let p = uniform(&g);
        let run = |params: SearchParams| BackwardExpandingSearch::new().search(&g, &p, &m, &params);
        let counters = |o: &SearchOutcome| {
            let s = &o.stats;
            (
                s.nodes_explored,
                s.nodes_touched,
                s.answers_generated,
                s.answers_output,
                s.truncated,
            )
        };
        let wide = SearchParams::with_top_k(50);
        let full = run(wide);
        assert_eq!(counters(&full), (247, 1329, 175, 50, false));
        for (params, expected) in [
            (SearchParams::with_top_k(3), (80, 170, 3, 3, false)),
            (wide.max_explored(17), (17, 58, 0, 0, true)),
            (wide.max_generated(5), (82, 172, 5, 5, true)),
            (wide.answer_work_budget(9), (10, 47, 0, 0, true)),
            (wide.dmax(2), (212, 212, 135, 45, false)),
        ] {
            let capped = run(params);
            assert_eq!(counters(&capped), expected, "{params:?}");
            assert_eq!(capped.answers.len(), expected.3, "{params:?}");
            for (a, b) in capped.answers.iter().zip(&full.answers) {
                assert_eq!(a.rank, b.rank, "{params:?}");
                assert_eq!(a.tree.signature(), b.tree.signature(), "{params:?}");
            }
        }
    }

    #[test]
    fn respects_dmax() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = uniform(&g);
        let matches =
            KeywordMatches::from_sets(vec![("k1", vec![NodeId(0)]), ("k2", vec![NodeId(4)])]);
        let none = BackwardExpandingSearch::new().search(
            &g,
            &p,
            &matches,
            &SearchParams::default().dmax(1),
        );
        assert!(none.answers.is_empty());
        let found =
            BackwardExpandingSearch::new().search(&g, &p, &matches, &SearchParams::default());
        assert!(!found.answers.is_empty());
    }

    #[test]
    fn unmatched_keyword_returns_no_answers() {
        let g = graph_from_edges(3, &[(2, 0), (2, 1)]);
        let p = uniform(&g);
        let matches = KeywordMatches::from_sets(vec![("a", vec![NodeId(0)]), ("b", vec![])]);
        let outcome =
            BackwardExpandingSearch::new().search(&g, &p, &matches, &SearchParams::default());
        assert!(outcome.answers.is_empty());
    }
}
