//! The output heap of Section 4.2.3 / 4.5.
//!
//! Answer trees are not generated in relevance order, so they are buffered
//! and re-ordered: "Results are output from the OutputHeap when we determine
//! that no better result can be generated".  The heap also discards
//! duplicates — "it is also possible for the same tree to appear in more
//! than one result, but with different roots; such duplicates with lower
//! score are discarded".
//!
//! # How a candidate is stored
//!
//! A search keeps some 150 candidates for every answer it outputs, so a kept
//! candidate is not an [`AnswerTree`].  It is one 64-byte `Entry` — scores,
//! generation marks, offsets — whose variable-length parts (its signature,
//! then its `k` paths back to back) are appended to one node pool, and
//! whose per-keyword path ends and weights sit at `index · k` in two more.
//! Entries are found through an open-addressing table of entry indices
//! keyed by a 64-bit hash of the signature that the *caller* computes, once
//! (`signature_hash`); equality is always decided on the stored signature.
//! Nothing is ever removed: an answer that was output stays in the table
//! flagged `emitted`, which is exactly the "already output" set duplicate
//! detection needs.  An [`AnswerTree`] is built only for an entry that
//! leaves through [`OutputHeap::release`].
//!
//! All of it is a `CandidatePool` of five `Vec`s that is cleared, not
//! dropped, between queries: the expansion engine parks it in its
//! pooled arena (`arena.rs`).

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

/// A *minimal* candidate answer, described by slices its generator owns:
/// what [`OutputHeap::insert_candidate`] judges and, if it keeps the
/// candidate, copies.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Candidate<'a> {
    /// [`signature_hash`] of `signature`.
    pub hash: u64,
    /// The sorted distinct node set ([`AnswerTree::signature`]).
    pub signature: &'a [NodeId],
    pub root: NodeId,
    /// The `k` root-to-leaf paths back to back; `path_ends[i]` is where
    /// path `i` ends in `path_nodes`, `path_weights[i]` its edge-weight sum.
    pub path_nodes: &'a [NodeId],
    pub path_ends: &'a [usize],
    pub path_weights: &'a [f64],
    pub aggregate_edge_weight: f64,
    pub node_prestige: f64,
    pub score: f64,
}

/// The hash [`Candidate::hash`] carries: cheap, and good in its low bits,
/// which index the table.  Signatures are node sets the engine derived
/// from the graph, not keys a client chooses.
pub(crate) fn signature_hash(signature: &[NodeId]) -> u64 {
    let mut hash = signature.len() as u64;
    for node in signature {
        hash = (hash.rotate_left(5) ^ u64::from(node.0)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    // A multiplication only carries upward: fold the high half down.
    hash ^ (hash >> 32)
}

/// One kept candidate.  Its signature and paths are in
/// [`CandidatePool::nodes`] from `nodes_at`; its path ends and weights at
/// `index * k` in [`CandidatePool::ends`] / [`CandidatePool::weights`].
#[derive(Clone, Copy, Debug)]
struct Entry {
    score: f64,
    aggregate_edge_weight: f64,
    node_prestige: f64,
    hash: u64,
    /// Time of generation since the search started, in nanoseconds (a
    /// `Duration` is 16 bytes; 2^64 ns is 584 years).
    generated_at_nanos: u64,
    explored_at_generation: usize,
    root: NodeId,
    nodes_at: u32,
    signature_len: u32,
    /// Already output: kept only so that re-discoveries are recognised.
    emitted: bool,
}

const _: () = assert!(std::mem::size_of::<Entry>() <= 64);

/// Table value of a bucket nobody occupies.
const VACANT: u32 = u32::MAX;

/// The output heap's storage (see the module docs).  Reusable: a heap
/// built on a used pool clears it and keeps its capacity.
#[derive(Debug, Default)]
pub(crate) struct CandidatePool {
    entries: Vec<Entry>,
    /// Per entry, in its current version: the signature, then `k` paths.
    /// A replaced duplicate's old version stays behind as garbage.
    nodes: Vec<NodeId>,
    /// `k` per entry: where each path ends, counted from the first path's
    /// start.
    ends: Vec<u32>,
    /// `k` per entry: each path's edge-weight sum.
    weights: Vec<f64>,
    /// Open addressing, linear probing, a power of two long and at most
    /// half full: entry indices, or [`VACANT`].
    table: Vec<u32>,
}

/// Where a signature is, or would go, in the table.
enum Probe {
    Found(usize),
    Vacant(usize),
}

impl CandidatePool {
    fn clear(&mut self) {
        self.entries.clear();
        self.nodes.clear();
        self.ends.clear();
        self.weights.clear();
        self.table.fill(VACANT);
    }

    fn signature(&self, entry: &Entry) -> &[NodeId] {
        &self.nodes[entry.nodes_at as usize..][..entry.signature_len as usize]
    }

    /// Makes room for one more entry, then looks `signature` up.
    fn probe(&mut self, hash: u64, signature: &[NodeId]) -> Probe {
        if (self.entries.len() + 1) * 2 > self.table.len() {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let index = self.table[at];
            if index == VACANT {
                return Probe::Vacant(at);
            }
            let entry = &self.entries[index as usize];
            if entry.hash == hash && self.signature(entry) == signature {
                return Probe::Found(index as usize);
            }
            at = (at + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let buckets = (self.table.len() * 2).max(64);
        self.table.clear();
        self.table.resize(buckets, VACANT);
        let mask = buckets - 1;
        for (index, entry) in self.entries.iter().enumerate() {
            let mut at = entry.hash as usize & mask;
            while self.table[at] != VACANT {
                at = (at + 1) & mask;
            }
            self.table[at] = index as u32;
        }
    }

    /// Makes `candidate` entry `index` — a new one if `index` is one past
    /// the last, else in place of the duplicate there: appends its
    /// signature and paths to the node pool and writes its per-keyword
    /// data and its entry at `index`.
    fn store(
        &mut self,
        index: usize,
        candidate: &Candidate<'_>,
        generated_at: Duration,
        explored_at_generation: usize,
    ) {
        let k = candidate.path_ends.len();
        let nodes_at = self.nodes.len();
        self.nodes.extend_from_slice(candidate.signature);
        self.nodes.extend_from_slice(candidate.path_nodes);
        // Every offset stored below is at most the pool's length.
        assert!(
            self.nodes.len() <= u32::MAX as usize,
            "fewer than 2^32 buffered path nodes"
        );
        if self.ends.len() < (index + 1) * k {
            self.ends.resize((index + 1) * k, 0);
            self.weights.resize((index + 1) * k, 0.0);
        }
        for (slot, end) in self.ends[index * k..][..k]
            .iter_mut()
            .zip(candidate.path_ends)
        {
            *slot = *end as u32;
        }
        self.weights[index * k..][..k].copy_from_slice(candidate.path_weights);
        let entry = Entry {
            score: candidate.score,
            aggregate_edge_weight: candidate.aggregate_edge_weight,
            node_prestige: candidate.node_prestige,
            hash: candidate.hash,
            generated_at_nanos: u64::try_from(generated_at.as_nanos())
                .expect("a search shorter than 584 years"),
            explored_at_generation,
            root: candidate.root,
            nodes_at: nodes_at as u32,
            signature_len: candidate.signature.len() as u32,
            emitted: false,
        };
        if index == self.entries.len() {
            self.entries.push(entry);
        } else {
            self.entries[index] = entry;
        }
    }

    /// Builds the tree of entry `index`.
    fn tree(&self, index: usize, k: usize) -> AnswerTree {
        let entry = &self.entries[index];
        let nodes = &self.nodes[(entry.nodes_at + entry.signature_len) as usize..];
        let mut start = 0;
        let paths = self.ends[index * k..][..k]
            .iter()
            .map(|end| {
                let path = nodes[start..*end as usize].to_vec();
                start = *end as usize;
                path
            })
            .collect();
        AnswerTree {
            root: entry.root,
            paths,
            keyword_edge_scores: self.weights[index * k..][..k].to_vec(),
            aggregate_edge_weight: entry.aggregate_edge_weight,
            node_prestige: entry.node_prestige,
            score: entry.score,
        }
    }
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
    /// Every candidate ever kept: the buffered ones and, flagged, the ones
    /// already output.
    pool: CandidatePool,
    /// Entries of `pool` not yet output.
    buffered: usize,
    /// No buffered answer scores higher than this.  Exact after every
    /// insert; only removals can leave it loose, and the scan that removes
    /// re-tightens it.
    score_ceiling: f64,
    /// No buffered answer has a smaller aggregate edge weight than this
    /// (loose after a removal or a replacement, like `score_ceiling`).
    weight_floor: f64,
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
        Self::with_pool(
            CandidatePool::default(),
            model,
            policy,
            num_keywords,
            max_node_prestige,
            top_k,
        )
    }

    /// [`OutputHeap::new`] on storage that served an earlier query: its
    /// contents are forgotten, its capacity is kept.
    pub(crate) fn with_pool(
        mut pool: CandidatePool,
        model: ScoreModel,
        policy: EmissionPolicy,
        num_keywords: usize,
        max_node_prestige: f64,
        top_k: usize,
    ) -> Self {
        pool.clear();
        OutputHeap {
            model,
            policy,
            num_keywords,
            max_node_prestige,
            remaining_budget: top_k,
            pool,
            buffered: 0,
            score_ceiling: f64::NEG_INFINITY,
            weight_floor: f64::INFINITY,
            duplicates_discarded: 0,
            non_minimal_discarded: 0,
        }
    }

    /// Takes the storage out for the next query, leaving the heap empty.
    pub(crate) fn take_pool(&mut self) -> CandidatePool {
        self.buffered = 0;
        std::mem::take(&mut self.pool)
    }

    /// Number of answers currently buffered.
    pub fn buffered_len(&self) -> usize {
        self.buffered
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

    /// Inserts a freshly generated answer tree: takes it apart and judges
    /// it as `insert_candidate` judges any candidate.
    pub fn insert(
        &mut self,
        tree: AnswerTree,
        generated_at: Duration,
        explored_at_generation: usize,
    ) -> InsertOutcome {
        if !tree.is_minimal() {
            return self.discard_non_minimal();
        }
        let signature = tree.signature();
        let hash = signature_hash(&signature);
        self.insert_tree_as(&tree, &signature, hash, explored_at_generation, || {
            generated_at
        })
    }

    /// [`OutputHeap::insert`] of a minimal tree whose signature is filed
    /// under `hash`.
    fn insert_tree_as(
        &mut self,
        tree: &AnswerTree,
        signature: &[NodeId],
        hash: u64,
        explored_at_generation: usize,
        now: impl FnOnce() -> Duration,
    ) -> InsertOutcome {
        let mut path_nodes = Vec::with_capacity(tree.paths.iter().map(Vec::len).sum());
        let mut path_ends = Vec::with_capacity(tree.paths.len());
        for path in &tree.paths {
            path_nodes.extend_from_slice(path);
            path_ends.push(path_nodes.len());
        }
        self.insert_candidate(
            Candidate {
                hash,
                signature,
                root: tree.root,
                path_nodes: &path_nodes,
                path_ends: &path_ends,
                path_weights: &tree.keyword_edge_scores,
                aggregate_edge_weight: tree.aggregate_edge_weight,
                node_prestige: tree.node_prestige,
                score: tree.score,
            },
            explored_at_generation,
            now,
        )
    }

    /// Counts a candidate its generator found to be non-minimal (its root
    /// has a single child and does not itself match a keyword).
    pub(crate) fn discard_non_minimal(&mut self) -> InsertOutcome {
        self.non_minimal_discarded += 1;
        InsertOutcome::DiscardedNonMinimal
    }

    /// Judges a *minimal* candidate by its signature and score and copies
    /// it into the pool — reading the clock through `now` — only when it is
    /// kept (`Buffered` / `ReplacedDuplicate`).  This is the one decision
    /// path; [`OutputHeap::insert`] feeds it a tree taken apart.
    ///
    /// A better-scoring version of an already *output* tree is discarded
    /// like any other duplicate: the paper does not retract answers.
    pub(crate) fn insert_candidate(
        &mut self,
        candidate: Candidate<'_>,
        explored_at_generation: usize,
        now: impl FnOnce() -> Duration,
    ) -> InsertOutcome {
        let k = self.num_keywords;
        assert!(
            candidate.path_ends.len() == k && candidate.path_weights.len() == k,
            "a candidate has one path per keyword"
        );
        let (index, outcome) = match self.pool.probe(candidate.hash, candidate.signature) {
            Probe::Found(index) => {
                self.duplicates_discarded += 1;
                let existing = &self.pool.entries[index];
                if existing.emitted || existing.score >= candidate.score {
                    return InsertOutcome::DiscardedDuplicate;
                }
                (index, InsertOutcome::ReplacedDuplicate)
            }
            Probe::Vacant(bucket) => {
                let index = self.pool.entries.len();
                self.pool.table[bucket] =
                    u32::try_from(index).expect("fewer than 2^32 buffered candidates");
                self.buffered += 1;
                (index, InsertOutcome::Buffered)
            }
        };
        self.pool
            .store(index, &candidate, now(), explored_at_generation);
        self.score_ceiling = self.score_ceiling.max(candidate.score);
        self.weight_floor = self.weight_floor.min(candidate.aggregate_edge_weight);
        outcome
    }

    /// Whether [`OutputHeap::release`] could return anything for this
    /// bound — O(1), and `false` on almost every expansion step, which
    /// lets the engine skip the release scan and its clock read.  May say
    /// `true` when the scan then finds nothing (the cached extremes are
    /// bounds, not exact, after a removal); never `false` wrongly.
    pub fn can_release(&self, min_future_edge_weight: f64) -> bool {
        if self.remaining_budget == 0 || self.buffered == 0 {
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
    /// descending score order (ties: ascending signature).  At most
    /// [`OutputHeap::remaining_budget`] answers are released; answers that
    /// clear the bar beyond the budget stay buffered (and can never be
    /// released, since the budget only shrinks).
    pub fn release(
        &mut self,
        min_future_edge_weight: f64,
        now: Duration,
        explored_now: usize,
    ) -> Vec<(AnswerTree, AnswerTiming)> {
        if !self.can_release(min_future_edge_weight) {
            return Vec::new();
        }
        let k = self.num_keywords;
        let release_all = min_future_edge_weight.is_infinite();
        let bar = self.score_bar(min_future_edge_weight);
        let clears = |entry: &Entry| match self.policy {
            EmissionPolicy::Immediate => true,
            EmissionPolicy::ExactBound => entry.score >= bar,
            EmissionPolicy::Heuristic => {
                entry.aggregate_edge_weight <= min_future_edge_weight + 1e-12
            }
        };
        let pool = &self.pool;
        let mut ready: Vec<usize> = (0..pool.entries.len())
            .filter(|index| {
                let entry = &pool.entries[*index];
                !entry.emitted && (release_all || clears(entry))
            })
            .collect();
        ready.sort_by(|a, b| {
            let (left, right) = (&pool.entries[*a], &pool.entries[*b]);
            right
                .score
                .total_cmp(&left.score)
                .then_with(|| pool.signature(left).cmp(pool.signature(right)))
        });
        // Enforce the lifetime output budget: what is beyond it stays
        // buffered, untouched.
        ready.truncate(self.remaining_budget);
        self.remaining_budget -= ready.len();
        self.buffered -= ready.len();
        let released = ready
            .into_iter()
            .map(|index| {
                let entry = &mut self.pool.entries[index];
                entry.emitted = true;
                let timing = AnswerTiming {
                    generated_at: Duration::from_nanos(entry.generated_at_nanos),
                    output_at: now,
                    explored_at_generation: entry.explored_at_generation,
                    explored_at_output: explored_now,
                };
                (self.pool.tree(index, k), timing)
            })
            .collect();
        // What is left decides the next `can_release`: make the cached
        // extremes exact again.
        self.score_ceiling = f64::NEG_INFINITY;
        self.weight_floor = f64::INFINITY;
        for entry in self.pool.entries.iter().filter(|entry| !entry.emitted) {
            self.score_ceiling = self.score_ceiling.max(entry.score);
            self.weight_floor = self.weight_floor.min(entry.aggregate_edge_weight);
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
    use proptest::prelude::*;

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

    /// Inserts a minimal tree under a hash of the test's choosing.
    fn insert_parts(
        heap: &mut OutputHeap,
        tree: &AnswerTree,
        hash: u64,
        explored: usize,
        now: impl FnOnce() -> Duration,
    ) -> InsertOutcome {
        heap.insert_tree_as(tree, &tree.signature(), hash, explored, now)
    }

    /// `insert_candidate` reads the clock only when it keeps the candidate.
    #[test]
    fn candidate_insert_reads_the_clock_only_for_what_it_keeps() {
        let (g, p, m) = setup();
        let mut heap = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), UNCAPPED);
        let worse = tree(&g, &p, &m, 0, vec![vec![0], vec![0, 4, 1]]);
        let better = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]);
        let hash = signature_hash(&better.signature());
        let mut clock_reads = 0;
        let mut judge = |heap: &mut OutputHeap, t: &AnswerTree| {
            insert_parts(heap, t, hash, 1, || {
                clock_reads += 1;
                Duration::ZERO
            })
        };
        assert_eq!(judge(&mut heap, &worse), InsertOutcome::Buffered);
        assert_eq!(judge(&mut heap, &worse), InsertOutcome::DiscardedDuplicate);
        assert_eq!(judge(&mut heap, &better), InsertOutcome::ReplacedDuplicate);
        let out = heap.release(0.0, Duration::ZERO, 2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, better, "the tree comes back whole");
        assert_eq!(
            judge(&mut heap, &better),
            InsertOutcome::DiscardedDuplicate,
            "already output"
        );
        assert_eq!(clock_reads, 2, "one read per kept candidate");
        assert_eq!(heap.duplicates_discarded(), 3);
    }

    /// Two different signatures under one hash value are two answers; the
    /// same signature under it is a duplicate.  Equality is decided on the
    /// stored signature, never on the hash.
    #[test]
    fn colliding_hashes_do_not_merge_different_signatures() {
        let (g, p, m) = setup();
        let short = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 1]]);
        let long = tree(&g, &p, &m, 4, vec![vec![4, 0], vec![4, 2, 3]]);
        assert_ne!(short.signature(), long.signature());
        for hash in [0, 63, u64::MAX] {
            let mut heap = OutputHeap::new(m, EmissionPolicy::Immediate, 2, p.max(), UNCAPPED);
            let put = |heap: &mut OutputHeap, t: &AnswerTree| {
                insert_parts(heap, t, hash, 1, || Duration::ZERO)
            };
            assert_eq!(put(&mut heap, &short), InsertOutcome::Buffered);
            assert_eq!(put(&mut heap, &long), InsertOutcome::Buffered);
            assert_eq!(put(&mut heap, &long), InsertOutcome::DiscardedDuplicate);
            assert_eq!(put(&mut heap, &short), InsertOutcome::DiscardedDuplicate);
            assert_eq!(heap.buffered_len(), 2);
            let out = heap.flush(Duration::ZERO, 1);
            assert_eq!(out.len(), 2);
            assert_eq!((&out[0].0, &out[1].0), (&short, &long));
            assert_eq!(
                put(&mut heap, &long),
                InsertOutcome::DiscardedDuplicate,
                "found again behind its collision partner once both are output"
            );
        }
    }

    /// Enough distinct signatures to grow the table several times, half of
    /// them sharing one hash: all are found again afterwards.
    #[test]
    fn table_growth_keeps_every_entry_findable() {
        let m = ScoreModel::paper_default();
        let mut heap = OutputHeap::new(m, EmissionPolicy::ExactBound, 2, 1.0, UNCAPPED);
        let make = |i: u32| AnswerTree {
            root: NodeId(i),
            paths: vec![vec![NodeId(i)], vec![NodeId(i), NodeId(i + 1_000)]],
            keyword_edge_scores: vec![0.0, 1.0],
            aggregate_edge_weight: 1.0,
            node_prestige: 2.0,
            score: 1.0 / f64::from(i + 1),
        };
        let hash_of = |t: &AnswerTree| {
            if t.root.0.is_multiple_of(2) {
                7
            } else {
                signature_hash(&t.signature())
            }
        };
        for i in 0..500 {
            let t = make(i);
            let outcome = insert_parts(&mut heap, &t, hash_of(&t), 1, || Duration::ZERO);
            assert_eq!(outcome, InsertOutcome::Buffered);
        }
        assert_eq!(heap.buffered_len(), 500);
        for i in 0..500 {
            let t = make(i);
            let outcome = insert_parts(&mut heap, &t, hash_of(&t), 2, || Duration::ZERO);
            assert_eq!(outcome, InsertOutcome::DiscardedDuplicate, "entry {i}");
        }
        let out = heap.flush(Duration::ZERO, 3);
        assert_eq!(out.len(), 500);
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, (t, _))| *t == make(i as u32)));
    }

    /// A pool that served a 2-keyword heap serves a 3-keyword one, and the
    /// other way round, with nothing of the earlier query readable.
    #[test]
    fn a_reused_pool_is_empty_whatever_it_held() {
        let m = ScoreModel::paper_default();
        let make = |k: u32, i: u32| AnswerTree {
            root: NodeId(i),
            // The root matches keyword 0, so the tree is minimal for any k.
            paths: (0..k)
                .map(|j| match j {
                    0 => vec![NodeId(i)],
                    _ => vec![NodeId(i), NodeId(100 * j + i)],
                })
                .collect(),
            keyword_edge_scores: vec![1.0; k as usize],
            aggregate_edge_weight: f64::from(k),
            node_prestige: 1.0,
            score: 1.0 / f64::from(i + 1),
        };
        let mut pool = CandidatePool::default();
        for k in [2, 3, 2, 5, 1] {
            let mut heap = OutputHeap::with_pool(
                pool,
                m,
                EmissionPolicy::Immediate,
                k as usize,
                1.0,
                UNCAPPED,
            );
            assert_eq!(heap.buffered_len(), 0);
            for i in 0..40 {
                // `Buffered`, not a duplicate of what an earlier heap held.
                assert_eq!(
                    heap.insert(make(k, i), Duration::ZERO, 1),
                    InsertOutcome::Buffered,
                    "k = {k}, tree {i}"
                );
            }
            let out = heap.release(0.0, Duration::ZERO, 1);
            assert_eq!(out.len(), 40);
            assert!(out
                .iter()
                .enumerate()
                .all(|(i, (t, _))| *t == make(k, i as u32)));
            // Leave something buffered behind as well.
            heap.insert(make(k, 77), Duration::ZERO, 2);
            pool = heap.take_pool();
            assert_eq!(heap.buffered_len(), 0);
        }
    }

    /// The heap as a specification: trees in a `Vec`, signatures compared
    /// by linear search.  What `OutputHeap` must be indistinguishable from.
    struct NaiveHeap {
        policy: EmissionPolicy,
        model: ScoreModel,
        max_node_prestige: f64,
        budget: usize,
        buffered: Vec<(AnswerTree, Duration, usize)>,
        emitted: Vec<Vec<NodeId>>,
        duplicates: usize,
        non_minimal: usize,
    }

    impl NaiveHeap {
        fn insert(&mut self, tree: AnswerTree, at: Duration, explored: usize) -> InsertOutcome {
            if !tree.is_minimal() {
                self.non_minimal += 1;
                return InsertOutcome::DiscardedNonMinimal;
            }
            let signature = tree.signature();
            let twin = self
                .buffered
                .iter()
                .position(|(t, _, _)| t.signature() == signature);
            let outcome = match twin {
                _ if self.emitted.contains(&signature) => InsertOutcome::DiscardedDuplicate,
                Some(i) if self.buffered[i].0.score >= tree.score => {
                    InsertOutcome::DiscardedDuplicate
                }
                Some(i) => {
                    self.buffered[i] = (tree, at, explored);
                    InsertOutcome::ReplacedDuplicate
                }
                None => {
                    self.buffered.push((tree, at, explored));
                    InsertOutcome::Buffered
                }
            };
            if outcome != InsertOutcome::Buffered {
                self.duplicates += 1;
            }
            outcome
        }

        fn release(
            &mut self,
            bound: f64,
            now: Duration,
            explored_now: usize,
        ) -> Vec<(AnswerTree, AnswerTiming)> {
            let bar = self
                .model
                .score_upper_bound(bound, self.max_node_prestige, 2)
                - 1e-12;
            let clears = |t: &AnswerTree| {
                bound.is_infinite()
                    || match self.policy {
                        EmissionPolicy::Immediate => true,
                        EmissionPolicy::ExactBound => t.score >= bar,
                        EmissionPolicy::Heuristic => t.aggregate_edge_weight <= bound + 1e-12,
                    }
            };
            let (mut ready, held): (Vec<_>, Vec<_>) = std::mem::take(&mut self.buffered)
                .into_iter()
                .partition(|(t, _, _)| clears(t));
            self.buffered = held;
            ready.sort_by(|a, b| {
                b.0.score
                    .total_cmp(&a.0.score)
                    .then_with(|| a.0.signature().cmp(&b.0.signature()))
            });
            let overflow = ready.split_off(ready.len().min(self.budget));
            self.buffered.extend(overflow);
            self.budget -= ready.len();
            ready
                .into_iter()
                .map(|(tree, generated_at, explored_at_generation)| {
                    self.emitted.push(tree.signature());
                    let timing = AnswerTiming {
                        generated_at,
                        output_at: now,
                        explored_at_generation,
                        explored_at_output: explored_now,
                    };
                    (tree, timing)
                })
                .collect()
        }
    }

    /// A 2-keyword tree over a tiny node universe, so that equal
    /// signatures, equal scores and both at once are all common.  `variant`
    /// picks among shapes over the same node set (which a replacement must
    /// carry over) and a non-minimal one.
    fn small_tree(
        (root, leaf, extra): (u32, u32, u32),
        variant: u8,
        score_level: u8,
        weight_level: u8,
    ) -> AnswerTree {
        let (root, leaf, extra) = (NodeId(root), NodeId(10 + leaf), NodeId(20 + extra));
        let paths = match variant {
            0 => vec![vec![root], vec![root, leaf]],
            1 => vec![vec![root, leaf], vec![root]],
            2 => vec![vec![root], vec![root, leaf, extra]],
            3 => vec![vec![root, leaf, extra], vec![root]],
            _ => vec![vec![root, leaf], vec![root, leaf, extra]], // one child
        };
        AnswerTree {
            root,
            paths,
            keyword_edge_scores: vec![f64::from(weight_level), 0.5],
            aggregate_edge_weight: f64::from(weight_level),
            node_prestige: 1.0,
            score: 0.1 + 0.125 * f64::from(score_level),
        }
    }

    #[derive(Clone, Debug)]
    enum HeapOp {
        Insert(AnswerTree),
        Release(f64),
    }

    fn arb_heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
        // Bounds under which `ExactBound`'s bar (3^0.2 / (1 + bound)) falls
        // between, below and above the score levels, and `Heuristic`'s
        // between the weight levels.
        const BOUNDS: [f64; 6] = [0.0, 1.0, 2.0, 3.0, 6.0, f64::INFINITY];
        proptest::collection::vec(
            (0u8..5, (0u32..3, 0u32..3, 0u32..2), 0u8..5, 0u8..5, 0u8..4),
            1..120,
        )
        .prop_map(|steps| {
            steps
                .into_iter()
                .map(|(kind, nodes, variant, score_level, weight_level)| {
                    if kind == 0 {
                        HeapOp::Release(BOUNDS[(score_level + weight_level) as usize % 6])
                    } else {
                        HeapOp::Insert(small_tree(nodes, variant, score_level, weight_level))
                    }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random inserts and releases, every policy and budget: a heap fed
        /// whole trees and a heap fed candidates under a four-valued hash
        /// (so almost every probe collides) both do what the naive heap
        /// does — outcomes, counters, released trees, their timing and
        /// their order, including what a budget leaves behind.
        #[test]
        fn behaves_like_a_vec_of_trees(ops in arb_heap_ops()) {
            let model = ScoreModel::paper_default();
            for policy in [
                EmissionPolicy::ExactBound,
                EmissionPolicy::Heuristic,
                EmissionPolicy::Immediate,
            ] {
                for budget in [0, 1, 3, UNCAPPED] {
                    let mut naive = NaiveHeap {
                        policy,
                        model,
                        max_node_prestige: 1.0,
                        budget,
                        buffered: Vec::new(),
                        emitted: Vec::new(),
                        duplicates: 0,
                        non_minimal: 0,
                    };
                    let mut by_tree = OutputHeap::new(model, policy, 2, 1.0, budget);
                    let mut by_parts = OutputHeap::new(model, policy, 2, 1.0, budget);
                    for (step, op) in ops.iter().enumerate() {
                        match op {
                            HeapOp::Insert(tree) => {
                                let at = Duration::from_nanos(7 * step as u64 + 1);
                                let expected = naive.insert(tree.clone(), at, step);
                                prop_assert_eq!(by_tree.insert(tree.clone(), at, step), expected);
                                let outcome = if tree.is_minimal() {
                                    let hash = signature_hash(&tree.signature()) & 3;
                                    insert_parts(&mut by_parts, tree, hash, step, || at)
                                } else {
                                    by_parts.discard_non_minimal()
                                };
                                prop_assert_eq!(outcome, expected);
                            }
                            HeapOp::Release(bound) => {
                                let now = Duration::from_micros(step as u64);
                                let expected = naive.release(*bound, now, step + 1000);
                                for heap in [&mut by_tree, &mut by_parts] {
                                    prop_assert!(
                                        heap.can_release(*bound) || expected.is_empty(),
                                        "the gate may not hold back a releasable answer"
                                    );
                                    let released = heap.release(*bound, now, step + 1000);
                                    prop_assert_eq!(&released, &expected);
                                }
                            }
                        }
                        for heap in [&by_tree, &by_parts] {
                            prop_assert_eq!(heap.buffered_len(), naive.buffered.len());
                            prop_assert_eq!(heap.remaining_budget(), naive.budget);
                            prop_assert_eq!(heap.duplicates_discarded(), naive.duplicates);
                            prop_assert_eq!(heap.non_minimal_discarded(), naive.non_minimal);
                        }
                    }
                    // Whatever is left comes out on a flush, in order.
                    let expected = naive.release(f64::INFINITY, Duration::MAX / 2, 0);
                    prop_assert_eq!(&by_tree.flush(Duration::MAX / 2, 0), &expected);
                    prop_assert_eq!(&by_parts.flush(Duration::MAX / 2, 0), &expected);
                }
            }
        }
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
