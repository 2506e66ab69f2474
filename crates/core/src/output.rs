//! The output heap of Section 4.2.3 / 4.5.
//!
//! Answer trees are not generated in relevance order, so they are buffered
//! and re-ordered: "Results are output from the OutputHeap when we determine
//! that no better result can be generated".  The heap also discards
//! duplicates — "it is also possible for the same tree to appear in more
//! than one result, but with different roots; such duplicates with lower
//! score are discarded".

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use banks_graph::NodeId;

use crate::answer::AnswerTree;
use crate::params::EmissionPolicy;
use crate::score::ScoreModel;
use crate::stats::AnswerTiming;

/// What happened to an answer handed to [`OutputHeap::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The answer was new and is now buffered.
    Buffered,
    /// The answer replaced a lower-scoring duplicate (same node set).
    ReplacedDuplicate,
    /// The answer was discarded because a duplicate with an equal or higher
    /// score is already buffered (or was already output).
    DiscardedDuplicate,
    /// The answer was discarded because it is not minimal (its root has a
    /// single child and does not itself match a keyword).
    DiscardedNonMinimal,
}

#[derive(Clone, Debug)]
struct Buffered {
    tree: AnswerTree,
    generated_at: Duration,
    explored_at_generation: usize,
}

/// Buffers generated answers until the emission policy allows their release.
#[derive(Debug)]
pub struct OutputHeap {
    model: ScoreModel,
    policy: EmissionPolicy,
    num_keywords: usize,
    max_node_prestige: f64,
    /// Remaining output budget (`top_k` minus answers already released).
    /// Guards the degenerate `top_k == 0` request: such a heap buffers and
    /// deduplicates but never releases anything.
    remaining_budget: usize,
    buffered: HashMap<Vec<NodeId>, Buffered>,
    /// No buffered answer scores higher than this.  Exact after every
    /// insert; only removals can leave it loose, and the scan that removes
    /// re-tightens it.
    score_ceiling: f64,
    /// No buffered answer has a smaller aggregate edge weight than this
    /// (loose after a removal or a replacement, like `score_ceiling`).
    weight_floor: f64,
    /// Signatures already output, so later re-discoveries of the same tree
    /// are suppressed.
    emitted: HashSet<Vec<NodeId>>,
    duplicates_discarded: usize,
    non_minimal_discarded: usize,
}

impl OutputHeap {
    /// Creates an output heap releasing at most `top_k` answers over its
    /// lifetime.  `top_k == 0` is valid: the heap then never releases.
    pub fn new(
        model: ScoreModel,
        policy: EmissionPolicy,
        num_keywords: usize,
        max_node_prestige: f64,
        top_k: usize,
    ) -> Self {
        OutputHeap {
            model,
            policy,
            num_keywords,
            max_node_prestige,
            remaining_budget: top_k,
            buffered: HashMap::new(),
            score_ceiling: f64::NEG_INFINITY,
            weight_floor: f64::INFINITY,
            emitted: HashSet::new(),
            duplicates_discarded: 0,
            non_minimal_discarded: 0,
        }
    }

    /// Number of answers currently buffered.
    pub fn buffered_len(&self) -> usize {
        self.buffered.len()
    }

    /// Number of answers the heap may still release before hitting `top_k`.
    pub fn remaining_budget(&self) -> usize {
        self.remaining_budget
    }

    /// Number of duplicate answers discarded so far.
    pub fn duplicates_discarded(&self) -> usize {
        self.duplicates_discarded
    }

    /// Number of non-minimal answers discarded so far.
    pub fn non_minimal_discarded(&self) -> usize {
        self.non_minimal_discarded
    }

    /// Inserts a freshly generated answer tree.
    pub fn insert(
        &mut self,
        tree: AnswerTree,
        generated_at: Duration,
        explored_at_generation: usize,
    ) -> InsertOutcome {
        if !tree.is_minimal() {
            return self.discard_non_minimal();
        }
        let (signature, score) = (tree.signature(), tree.score);
        self.insert_judged(&signature, score, explored_at_generation, || {
            (tree, generated_at)
        })
    }

    /// Counts a candidate its generator found to be non-minimal (its root
    /// has a single child and does not itself match a keyword).
    pub fn discard_non_minimal(&mut self) -> InsertOutcome {
        self.non_minimal_discarded += 1;
        InsertOutcome::DiscardedNonMinimal
    }

    /// Judges a *minimal* candidate by its signature and score alone and
    /// calls `build` — for the tree and its generation time — only when the
    /// candidate is kept (`Buffered` / `ReplacedDuplicate`).  This is the
    /// one decision path; [`OutputHeap::insert`] feeds it a finished tree.
    ///
    /// A better-scoring version of an already *output* tree is discarded
    /// like any other duplicate: the paper does not retract answers.
    pub fn insert_judged(
        &mut self,
        signature: &[NodeId],
        score: f64,
        explored_at_generation: usize,
        build: impl FnOnce() -> (AnswerTree, Duration),
    ) -> InsertOutcome {
        let outcome = if self.emitted.contains(signature) {
            InsertOutcome::DiscardedDuplicate
        } else {
            match self.buffered.get(signature) {
                Some(existing) if existing.tree.score >= score => InsertOutcome::DiscardedDuplicate,
                Some(_) => InsertOutcome::ReplacedDuplicate,
                None => InsertOutcome::Buffered,
            }
        };
        if outcome != InsertOutcome::Buffered {
            self.duplicates_discarded += 1;
        }
        if outcome != InsertOutcome::DiscardedDuplicate {
            let (tree, generated_at) = build();
            debug_assert!(tree.score == score && tree.signature() == signature);
            self.score_ceiling = self.score_ceiling.max(tree.score);
            self.weight_floor = self.weight_floor.min(tree.aggregate_edge_weight);
            self.buffered.insert(
                signature.to_vec(),
                Buffered {
                    tree,
                    generated_at,
                    explored_at_generation,
                },
            );
        }
        outcome
    }

    /// Whether [`OutputHeap::release`] could return anything for this
    /// bound — O(1), and `false` on almost every expansion step, which
    /// lets the engine skip the release scan and its clock read.  May say
    /// `true` when the scan then finds nothing (the cached extremes are
    /// bounds, not exact, after a removal); never `false` wrongly.
    pub fn can_release(&self, min_future_edge_weight: f64) -> bool {
        if self.remaining_budget == 0 || self.buffered.is_empty() {
            return false;
        }
        if min_future_edge_weight.is_infinite() {
            return true;
        }
        match self.policy {
            EmissionPolicy::Immediate => true,
            EmissionPolicy::ExactBound => {
                self.score_ceiling >= self.score_bar(min_future_edge_weight)
            }
            EmissionPolicy::Heuristic => self.weight_floor <= min_future_edge_weight + 1e-12,
        }
    }

    /// The score a buffered answer must reach under `ExactBound`.
    fn score_bar(&self, min_future_edge_weight: f64) -> f64 {
        self.model.score_upper_bound(
            min_future_edge_weight,
            self.max_node_prestige,
            self.num_keywords,
        ) - 1e-12
    }

    /// Releases every buffered answer whose score clears the emission
    /// policy's bar, given a lower bound on the aggregate edge weight of any
    /// answer not yet generated.  Released answers are returned in
    /// descending score order.  At most [`OutputHeap::remaining_budget`]
    /// answers are released; answers that clear the bar beyond the budget
    /// stay buffered (and can never be released, since the budget only
    /// shrinks).
    pub fn release(
        &mut self,
        min_future_edge_weight: f64,
        now: Duration,
        explored_now: usize,
    ) -> Vec<(AnswerTree, AnswerTiming)> {
        if !self.can_release(min_future_edge_weight) {
            return Vec::new();
        }
        let release_all = min_future_edge_weight.is_infinite();
        let ready: Vec<Vec<NodeId>> = match self.policy {
            EmissionPolicy::Immediate => self.buffered.keys().cloned().collect(),
            EmissionPolicy::ExactBound => {
                let bar = self.score_bar(min_future_edge_weight);
                self.buffered
                    .iter()
                    .filter(|(_, b)| release_all || b.tree.score >= bar)
                    .map(|(sig, _)| sig.clone())
                    .collect()
            }
            EmissionPolicy::Heuristic => self
                .buffered
                .iter()
                .filter(|(_, b)| {
                    release_all || b.tree.aggregate_edge_weight <= min_future_edge_weight + 1e-12
                })
                .map(|(sig, _)| sig.clone())
                .collect(),
        };

        let mut released: Vec<(AnswerTree, AnswerTiming)> = ready
            .into_iter()
            .filter_map(|sig| self.buffered.remove(&sig))
            .map(|b| {
                let timing = AnswerTiming {
                    generated_at: b.generated_at,
                    output_at: now,
                    explored_at_generation: b.explored_at_generation,
                    explored_at_output: explored_now,
                };
                (b.tree, timing)
            })
            .collect();
        released.sort_by(|a, b| {
            b.0.score
                .total_cmp(&a.0.score)
                .then_with(|| a.0.signature().cmp(&b.0.signature()))
        });
        // Enforce the lifetime output budget: overflow answers return to the
        // buffer untouched.
        for (tree, timing) in released.split_off(released.len().min(self.remaining_budget)) {
            self.buffered.insert(
                tree.signature(),
                Buffered {
                    tree,
                    generated_at: timing.generated_at,
                    explored_at_generation: timing.explored_at_generation,
                },
            );
        }
        self.remaining_budget -= released.len();
        for (tree, _) in &released {
            self.emitted.insert(tree.signature());
        }
        // What is left decides the next `can_release`: make the cached
        // extremes exact again.
        self.score_ceiling = f64::NEG_INFINITY;
        self.weight_floor = f64::INFINITY;
        for b in self.buffered.values() {
            self.score_ceiling = self.score_ceiling.max(b.tree.score);
            self.weight_floor = self.weight_floor.min(b.tree.aggregate_edge_weight);
        }
        released
    }

    /// Releases everything that is still buffered (used when the search
    /// frontier is exhausted: no better answer can possibly be generated).
    pub fn flush(&mut self, now: Duration, explored_now: usize) -> Vec<(AnswerTree, AnswerTiming)> {
        self.release(f64::INFINITY, now, explored_now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EmissionPolicy;
    use banks_graph::builder::graph_from_weighted_edges;
    use banks_graph::DataGraph;
    use banks_prestige::PrestigeVector;

    fn setup() -> (DataGraph, PrestigeVector, ScoreModel) {
        // root 4 with two arms of different lengths, plus a rotation edge.
        let g = graph_from_weighted_edges(
            5,
            &[
                (4, 0, 1.0),
                (4, 1, 1.0),
                (4, 2, 1.0),
                (2, 3, 1.0),
                (0, 4, 1.0),
            ],
        );
        let p = PrestigeVector::uniform_for(&g);
        (g, p, ScoreModel::paper_default())
    }

    fn tree(
        g: &DataGraph,
        p: &PrestigeVector,
        m: &ScoreModel,
        root: u32,
        paths: Vec<Vec<u32>>,
    ) -> AnswerTree {
        AnswerTree::new(
            NodeId(root),
            paths
                .into_iter()
                .map(|p| p.into_iter().map(NodeId).collect())
                .collect(),
            g,
            p,
            m,
        )
    }

    /// Budget large enough to never interfere (the legacy engine-side cap).
    const UNCAPPED: usize = usize::MAX;

    #[test]
    fn immediate_policy_releases_everything_in_score_order() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), UNCAPPED);
        let short = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]);
        let long = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 2, 3]]);
        assert_eq!(
            heap.insert(long.clone(), Duration::ZERO, 1),
            InsertOutcome::Buffered
        );
        assert_eq!(
            heap.insert(short.clone(), Duration::ZERO, 2),
            InsertOutcome::Buffered
        );
        let out = heap.release(0.0, Duration::from_millis(5), 10);
        assert_eq!(out.len(), 2);
        assert!(out[0].0.score >= out[1].0.score);
        assert_eq!(out[0].0.signature(), short.signature());
        assert_eq!(out[0].1.output_at, Duration::from_millis(5));
        assert_eq!(out[0].1.explored_at_output, 10);
        assert_eq!(heap.buffered_len(), 0);
    }

    #[test]
    fn exact_bound_holds_answers_back() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::ExactBound, 2, p.max(), UNCAPPED);
        let short = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]); // E = 2
        heap.insert(short.clone(), Duration::ZERO, 1);
        // Future answers could still have aggregate weight 0 -> bound is high,
        // nothing is released.
        assert!(heap.release(0.0, Duration::ZERO, 1).is_empty());
        assert_eq!(heap.buffered_len(), 1);
        // Once any future answer must weigh at least as much as ours (and
        // could at best tie our prestige), ours is safe to release.
        let out = heap.release(2.0, Duration::from_millis(1), 2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.signature(), short.signature());
    }

    #[test]
    fn heuristic_releases_on_edge_weight_alone() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::Heuristic, 2, p.max(), UNCAPPED);
        let short = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]); // E = 2
        let long = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 2, 3]]); // E = 3
        heap.insert(short.clone(), Duration::ZERO, 1);
        heap.insert(long, Duration::ZERO, 1);
        let out = heap.release(2.0, Duration::ZERO, 1);
        assert_eq!(out.len(), 1, "only the E<=2 answer is released");
        assert_eq!(out[0].0.signature(), short.signature());
        assert_eq!(heap.buffered_len(), 1);
    }

    #[test]
    fn duplicates_keep_best_score() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), UNCAPPED);
        // Same node set {0, 2, 3, 4} reached with different path splits:
        // a cheaper and a costlier version.
        let costly = tree(&g, &p, &m, 4, vec![vec![4, 2, 3], vec![4, 2, 3]]);
        let cheap = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 2, 3]]);
        // different node sets -> not duplicates
        assert_ne!(costly.signature(), cheap.signature());

        // true duplicates: same paths inserted twice
        assert_eq!(
            heap.insert(cheap.clone(), Duration::ZERO, 1),
            InsertOutcome::Buffered
        );
        assert_eq!(
            heap.insert(cheap.clone(), Duration::ZERO, 2),
            InsertOutcome::DiscardedDuplicate
        );
        assert_eq!(heap.duplicates_discarded(), 1);

        // a higher-scoring tree over the same node set replaces the buffered
        // one: the rotation rooted at 0 covers {0, 1, 4} with lower prestige
        // than the version rooted at 4.
        let rotation_worse = tree(&g, &p, &m, 0, vec![vec![0], vec![0, 4, 1]]);
        let rooted_better = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]);
        assert_eq!(rotation_worse.signature(), rooted_better.signature());
        assert!(rooted_better.score > rotation_worse.score);
        let mut heap2 = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), UNCAPPED);
        assert_eq!(
            heap2.insert(rotation_worse, Duration::ZERO, 1),
            InsertOutcome::Buffered
        );
        assert_eq!(
            heap2.insert(rooted_better.clone(), Duration::ZERO, 2),
            InsertOutcome::ReplacedDuplicate
        );
        let out = heap2.release(f64::INFINITY, Duration::ZERO, 3);
        assert_eq!(out.len(), 1);
        assert!((out[0].0.score - rooted_better.score).abs() < 1e-12);
    }

    #[test]
    fn already_output_trees_are_not_re_emitted() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), UNCAPPED);
        let t = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]);
        heap.insert(t.clone(), Duration::ZERO, 1);
        assert_eq!(heap.release(0.0, Duration::ZERO, 1).len(), 1);
        assert_eq!(
            heap.insert(t, Duration::ZERO, 2),
            InsertOutcome::DiscardedDuplicate
        );
        assert!(heap.release(0.0, Duration::ZERO, 2).is_empty());
    }

    #[test]
    fn non_minimal_trees_are_rejected() {
        let g = graph_from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let p = PrestigeVector::uniform_for(&g);
        let m = ScoreModel::paper_default();
        let t = AnswerTree::new(
            NodeId(0),
            vec![
                vec![NodeId(0), NodeId(1)],
                vec![NodeId(0), NodeId(1), NodeId(2)],
            ],
            &g,
            &p,
            &m,
        );
        let mut heap = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), UNCAPPED);
        assert_eq!(
            heap.insert(t, Duration::ZERO, 1),
            InsertOutcome::DiscardedNonMinimal
        );
        assert_eq!(heap.non_minimal_discarded(), 1);
        assert_eq!(heap.buffered_len(), 0);
    }

    #[test]
    fn flush_empties_the_heap() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::ExactBound, 2, p.max(), UNCAPPED);
        heap.insert(
            tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]),
            Duration::ZERO,
            1,
        );
        heap.insert(
            tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 2, 3]]),
            Duration::ZERO,
            1,
        );
        let out = heap.flush(Duration::from_millis(9), 99);
        assert_eq!(out.len(), 2);
        assert_eq!(heap.buffered_len(), 0);
        assert!(out[0].0.score >= out[1].0.score);
    }

    /// `top_k == 0`: the heap accepts inserts (including duplicates) but
    /// never releases, even on flush — no panics, no output.
    #[test]
    fn zero_top_k_never_releases() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), 0);
        assert_eq!(heap.remaining_budget(), 0);
        let t = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]);
        assert_eq!(
            heap.insert(t.clone(), Duration::ZERO, 1),
            InsertOutcome::Buffered
        );
        assert_eq!(
            heap.insert(t, Duration::ZERO, 2),
            InsertOutcome::DiscardedDuplicate
        );
        assert!(heap.release(0.0, Duration::ZERO, 1).is_empty());
        assert!(heap.flush(Duration::ZERO, 1).is_empty());
        assert_eq!(
            heap.buffered_len(),
            1,
            "buffered answers survive, they just never leave"
        );
        assert_eq!(heap.remaining_budget(), 0);
    }

    /// A small budget truncates release in score order and parks the
    /// overflow back in the buffer; the budget never goes negative.
    #[test]
    fn budget_caps_release_and_preserves_overflow() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), 1);
        let short = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]);
        let long = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 2, 3]]);
        heap.insert(long.clone(), Duration::ZERO, 1);
        heap.insert(short.clone(), Duration::ZERO, 1);
        let out = heap.flush(Duration::ZERO, 1);
        assert_eq!(out.len(), 1, "budget of one releases exactly one answer");
        assert_eq!(
            out[0].0.signature(),
            short.signature(),
            "the best answer wins the budget"
        );
        assert_eq!(heap.remaining_budget(), 0);
        assert_eq!(
            heap.buffered_len(),
            1,
            "the overflow answer returns to the buffer"
        );
        assert!(
            heap.flush(Duration::ZERO, 2).is_empty(),
            "an exhausted budget stays exhausted"
        );
    }

    /// Pathological duplicate pressure: many inserts of the same signature
    /// (before and after emission) are absorbed without panicking and are
    /// all counted.
    #[test]
    fn repeated_duplicate_signatures_never_panic() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), UNCAPPED);
        let t = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]);
        assert_eq!(
            heap.insert(t.clone(), Duration::ZERO, 1),
            InsertOutcome::Buffered
        );
        for i in 0..50 {
            assert_eq!(
                heap.insert(t.clone(), Duration::ZERO, i),
                InsertOutcome::DiscardedDuplicate
            );
        }
        assert_eq!(heap.release(f64::INFINITY, Duration::ZERO, 50).len(), 1);
        for i in 0..50 {
            assert_eq!(
                heap.insert(t.clone(), Duration::ZERO, i),
                InsertOutcome::DiscardedDuplicate,
                "post-emission duplicates are suppressed"
            );
        }
        assert_eq!(heap.duplicates_discarded(), 100);
        assert_eq!(heap.buffered_len(), 0);
    }

    /// `insert_judged` asks for the tree only when it keeps the candidate.
    #[test]
    fn judged_insert_builds_only_what_it_keeps() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), UNCAPPED);
        let worse = tree(&g, &p, &m, 0, vec![vec![0], vec![0, 4, 1]]);
        let better = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]);
        let signature = better.signature();
        let mut built = 0;
        let mut judge = |heap: &mut OutputHeap, t: &AnswerTree| {
            heap.insert_judged(&signature, t.score, 1, || {
                built += 1;
                (t.clone(), Duration::ZERO)
            })
        };
        assert_eq!(judge(&mut heap, &worse), InsertOutcome::Buffered);
        assert_eq!(judge(&mut heap, &worse), InsertOutcome::DiscardedDuplicate);
        assert_eq!(judge(&mut heap, &better), InsertOutcome::ReplacedDuplicate);
        assert_eq!(heap.release(0.0, Duration::ZERO, 2).len(), 1);
        assert_eq!(
            judge(&mut heap, &better),
            InsertOutcome::DiscardedDuplicate,
            "already output"
        );
        assert_eq!(built, 2, "one build per kept candidate");
        assert_eq!(heap.duplicates_discarded(), 3);
    }

    /// `can_release` agrees with what `release` then does, for every
    /// policy, and a scan leaves the cached extremes exact for what stays
    /// buffered.
    #[test]
    fn can_release_gates_exactly_after_inserts_and_scans() {
        let (g, p, m) = setup();
        let short = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]); // E = 2
        let long = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 2, 3]]); // E = 3
        for policy in [
            EmissionPolicy::ExactBound,
            EmissionPolicy::Heuristic,
            EmissionPolicy::Immediate,
        ] {
            let mut heap = OutputHeap::new(m, policy, 2, p.max(), UNCAPPED);
            assert!(!heap.can_release(f64::INFINITY), "nothing buffered");
            heap.insert(long.clone(), Duration::ZERO, 1);
            heap.insert(short.clone(), Duration::ZERO, 1);
            for bound in [0.0, 1.0, 2.0, 2.5, 3.0, 10.0, f64::INFINITY] {
                let mut probe = OutputHeap::new(m, policy, 2, p.max(), UNCAPPED);
                probe.insert(long.clone(), Duration::ZERO, 1);
                probe.insert(short.clone(), Duration::ZERO, 1);
                let said = probe.can_release(bound);
                let released = probe.release(bound, Duration::ZERO, 1).len();
                assert_eq!(said, released > 0, "{policy:?} at bound {bound}");
                if released == 1 {
                    // The extremes were re-tightened to the survivor.
                    assert!(!probe.can_release(bound), "{policy:?} at {bound}");
                }
            }
            assert_eq!(heap.flush(Duration::ZERO, 2).len(), 2);
            assert!(!heap.can_release(f64::INFINITY), "drained");
        }
    }

    /// A zero budget closes the gate whatever is buffered.
    #[test]
    fn can_release_is_false_without_budget() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), 0);
        heap.insert(
            tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]),
            Duration::ZERO,
            1,
        );
        assert!(!heap.can_release(f64::INFINITY));
    }
}
