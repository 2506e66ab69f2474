//! The multi-iterator Backward expanding search baseline (Section 3 of the
//! paper; "MI-Backward" in the evaluation).
//!
//! One single-source-shortest-path iterator runs from every node that
//! matches a keyword: Dijkstra's algorithm over the *incoming* edges of the
//! expanded graph, so it explores the nodes that can reach its origin.  The
//! paper always advances the iterator whose next distance is globally
//! smallest.  Here that schedule is one frontier heap of
//! `(distance, iterator, node)` entries: popping the smallest entry
//! finalises the closest node of the iterator that should move next, ties
//! going to the lower iterator, then to the lower node.  One label map,
//! keyed by `(iterator, node)`, holds each iterator's tentative distance,
//! predecessor, hop depth and whether the node is finalised.  An entry
//! whose label has since improved or been finalised is stale; stale entries
//! are dropped from the top of the heap after every step, so the top is
//! always live and the frontier is exhausted exactly when the heap is
//! empty.  A finalised label is never relabelled, so predecessor chains
//! cannot cycle: a path is the label's own `depth` hops of `pred`.
//!
//! When a node has been finalised by at least one iterator of every
//! keyword, each combination of one such iterator per keyword defines an
//! answer tree rooted at that node.  A visit generates the combinations
//! that contain its own iterator, walked in place with the last keyword
//! varying fastest, at most `MAX_COMBINATIONS_PER_VISIT` (256) of them; a
//! visit that leaves combinations ungenerated marks the search truncated.
//!
//! `MiExpander` is only the expansion: it seeds one iterator per keyword
//! node, and a step finalises one entry and releases answers against the
//! bound `k ·` its distance.  The stream around it — lazy seeding,
//! cancellation, the work budget, `top_k`, the safety caps and the final
//! flush — is the driver in `stream.rs`, shared with Bidirectional and
//! SI-Backward.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

use banks_graph::NodeId;

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

impl SearchEngine for BackwardExpandingSearch {
    fn name(&self) -> &'static str {
        "MI-Backward"
    }

    fn start<'a>(&self, ctx: QueryContext<'a>) -> Box<dyn AnswerStream + 'a> {
        Stream::boxed(ctx, MiExpander::new(ctx))
    }
}

/// What one iterator knows about one node it has reached.
struct Label {
    /// Best distance to the iterator's origin found so far.
    dist: f64,
    /// The next node on that path towards the origin (the origin's own
    /// label points at itself).
    pred: NodeId,
    /// Hops on that path.
    depth: u32,
    /// Whether `dist` is final.
    done: bool,
}

/// The multi-iterator expansion machinery, run by the stream driver one
/// step at a time (see `stream.rs`): each step finalises one node of one
/// iterator.
struct MiExpander<'a> {
    ctx: QueryContext<'a>,
    model: ScoreModel,
    num_keywords: usize,
    /// The keyword of each iterator; an iterator is its index here.
    keyword_of: Vec<usize>,
    /// `(order_key(dist), iterator, node)`, smallest first; the top entry
    /// is live.
    frontier: BinaryHeap<Reverse<(i64, usize, NodeId)>>,
    /// The label of every `(iterator, node)` pair reached.
    labels: HashMap<(usize, NodeId), Label>,
    /// `visited_by[node][keyword]` = iterators that finalised the node.
    visited_by: HashMap<NodeId, Vec<Vec<usize>>>,
    /// Work counters and the output heap.
    core: StreamCore,
}

impl<'a> MiExpander<'a> {
    fn new(ctx: QueryContext<'a>) -> Self {
        MiExpander {
            model: ctx.params.score_model(),
            num_keywords: ctx.matches.num_keywords(),
            keyword_of: Vec::new(),
            frontier: BinaryHeap::new(),
            labels: HashMap::new(),
            visited_by: HashMap::new(),
            core: StreamCore::new(&ctx, Default::default()),
            ctx,
        }
    }

    /// Whether `entry` no longer carries its label's current distance.
    fn is_stale(&self, &Reverse((key, it, node)): &Reverse<(i64, usize, NodeId)>) -> bool {
        let label = &self.labels[&(it, node)];
        label.done || order_key(label.dist) != key
    }
}

/// The path from `root` to the origin of iterator `it`, which finalised
/// `root`.
fn path_to_origin(
    labels: &HashMap<(usize, NodeId), Label>,
    it: usize,
    root: NodeId,
) -> Vec<NodeId> {
    let depth = labels[&(it, root)].depth as usize;
    let mut path = Vec::with_capacity(depth + 1);
    let mut cur = root;
    path.push(cur);
    for _ in 0..depth {
        cur = labels[&(it, cur)].pred;
        path.push(cur);
    }
    path
}

impl Expansion for MiExpander<'_> {
    fn core(&self) -> &StreamCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut StreamCore {
        &mut self.core
    }

    /// One iterator per keyword node, each labelling its origin at 0.
    fn seed(&mut self) {
        for keyword in 0..self.num_keywords {
            for &origin in self.ctx.matches.origin_set(keyword) {
                let it = self.keyword_of.len();
                self.keyword_of.push(keyword);
                let label = Label {
                    dist: 0.0,
                    pred: origin,
                    depth: 0,
                    done: false,
                };
                self.labels.insert((it, origin), label);
                self.frontier.push(Reverse((order_key(0.0), it, origin)));
            }
        }
        self.core.stats.nodes_touched = self.keyword_of.len(); // every origin is labelled once
    }

    fn frontier_exhausted(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Finalises the globally closest frontier entry, relaxes its node's
    /// in-edges for its iterator, generates the answers the visit
    /// completes, and releases what the bound allows.
    fn step(&mut self) {
        let Some(Reverse((key, it, m))) = self.frontier.pop() else {
            return;
        };
        let dist = priority_of(key);
        let label = self
            .labels
            .get_mut(&(it, m))
            .expect("a frontier entry has a label");
        label.done = true;
        let depth = label.depth;
        let graph = self.ctx.graph;
        self.core.stats.nodes_explored += 1;
        self.core.stats.edges_traversed += graph.in_degree(m);
        if (depth as usize) < self.ctx.params.dmax {
            for e in graph.in_edges(m) {
                let candidate = dist + e.weight;
                let relabel = Label {
                    dist: candidate,
                    pred: m,
                    depth: depth + 1,
                    done: false,
                };
                match self.labels.entry((it, e.from)) {
                    Entry::Vacant(slot) => {
                        slot.insert(relabel);
                        self.core.stats.nodes_touched += 1;
                    }
                    Entry::Occupied(mut slot) => {
                        let old = slot.get_mut();
                        if old.done || candidate >= old.dist - 1e-12 {
                            continue;
                        }
                        *old = relabel;
                    }
                }
                self.frontier
                    .push(Reverse((order_key(candidate), it, e.from)));
            }
        }
        while self.frontier.peek().is_some_and(|top| self.is_stale(top)) {
            self.frontier.pop();
        }

        // Record the visit and generate the combinations that contain `it`.
        let keyword = self.keyword_of[it];
        let k = self.num_keywords;
        let lists = self
            .visited_by
            .entry(m)
            .or_insert_with(|| vec![Vec::new(); k]);
        lists[keyword].push(it);
        if lists.iter().all(|l| !l.is_empty()) {
            // `pick[j]` indexes `lists[j]`; `pick[keyword]` stays 0 unused.
            let mut pick = vec![0usize; k];
            for generated in 0.. {
                if generated == MAX_COMBINATIONS_PER_VISIT {
                    // Combinations are left: the answer set is incomplete.
                    self.core.stats.truncated = true;
                    break;
                }
                if !self.core.may_generate() {
                    break;
                }
                let paths = (0..k)
                    .map(|j| {
                        let iter = if j == keyword { it } else { lists[j][pick[j]] };
                        path_to_origin(&self.labels, iter, m)
                    })
                    .collect();
                let tree = AnswerTree::new(m, paths, graph, self.ctx.prestige, &self.model);
                self.core.stats.answers_generated += 1;
                let explored = self.core.stats.nodes_explored;
                self.core
                    .heap
                    .insert(tree, self.core.started.elapsed(), explored);
                let Some(j) = (0..k).rfind(|&j| j != keyword && pick[j] + 1 < lists[j].len())
                else {
                    break;
                };
                pick[j] += 1;
                pick[j + 1..].fill(0);
            }
        }

        // Release answers using the coarse bound of Section 4.5: because
        // the iterators run Dijkstra, distances are finalised in
        // non-decreasing order, so any answer generated in the future
        // pays at least the globally smallest frontier distance `dist`
        // for every keyword path still to be discovered — the paper's
        // `h(m_1..m_k) = k · dist`.
        self.core.release(k as f64 * dist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidirectional::BidirectionalSearch;
    use crate::engine::SearchOutcome;
    use crate::params::SearchParams;
    use crate::si_backward::SingleIteratorBackwardSearch;
    use banks_graph::builder::graph_from_edges;
    use banks_graph::DataGraph;
    use banks_prestige::PrestigeVector;
    use banks_textindex::KeywordMatches;

    fn uniform(graph: &DataGraph) -> PrestigeVector {
        PrestigeVector::uniform_for(graph)
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

    /// Hub 35 points at 17 `a` papers (0..17), 17 `b` papers (17..34) and
    /// the one `c` node 34.  With `dmax(1)` every iterator reaches the hub
    /// and stops there, and the `c` iterator, the last of the ties at
    /// distance 1, finalises it last: 17 × 17 = 289 combinations complete
    /// in that one visit, and the first 256 of them in (a, b) order are
    /// generated, each an answer of its own; the 33 dropped mark the search
    /// truncated.
    #[test]
    fn one_visit_generates_at_most_the_combination_cap() {
        let edges: Vec<(u32, u32)> = (0..35).map(|i| (35, i)).collect();
        let g = graph_from_edges(36, &edges);
        let p = uniform(&g);
        let m = KeywordMatches::from_sets(vec![
            ("a", (0..17).map(NodeId).collect()),
            ("b", (17..34).map(NodeId).collect()),
            ("c", vec![NodeId(34)]),
        ]);
        let params = SearchParams::with_top_k(300).dmax(1);
        let out = BackwardExpandingSearch::new().search(&g, &p, &m, &params);
        assert_eq!(out.stats.answers_generated, 256);
        assert_eq!(out.stats.nodes_explored, 70);
        assert_eq!(out.stats.nodes_touched, 70);
        assert!(out.stats.truncated);
        let mut signatures: Vec<Vec<NodeId>> =
            out.answers.iter().map(|a| a.tree.signature()).collect();
        signatures.sort();
        let first_256: Vec<Vec<NodeId>> = (0..17)
            .flat_map(|a| (17..34).map(move |b| [a, b, 34, 35].map(NodeId).to_vec()))
            .take(256)
            .collect();
        assert_eq!(signatures, first_256);
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
