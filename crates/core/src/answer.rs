//! The answer-tree model (Section 2.2 of the paper).
//!
//! An answer to a keyword query is "a minimal rooted directed tree,
//! embedded in the data graph, and containing at least one node from each
//! `S_i`".  We represent the tree as its root plus, for every keyword, the
//! root-to-leaf path that connects the root to a node matching that
//! keyword; the tree itself is the union of those paths.

use std::collections::BTreeSet;

use banks_graph::{DataGraph, NodeId};
use banks_prestige::PrestigeVector;

use crate::score::ScoreModel;

/// A scored answer tree.
#[derive(Clone, Debug, PartialEq)]
pub struct AnswerTree {
    /// The answer root (the "information node" connecting the keywords).
    pub root: NodeId,
    /// `paths[i]` is the node sequence from the root (inclusive) to the leaf
    /// matching keyword `i` (inclusive).  A keyword matched by the root
    /// itself has the single-element path `[root]`.
    pub paths: Vec<Vec<NodeId>>,
    /// Per-keyword path edge-weight sums `s(T, t_i)`.
    pub keyword_edge_scores: Vec<f64>,
    /// Aggregate edge score `E = Σ_i s(T, t_i)`.
    pub aggregate_edge_weight: f64,
    /// Tree node prestige `N` (root plus distinct keyword leaves).
    pub node_prestige: f64,
    /// Overall tree score (higher is better).
    pub score: f64,
}

/// `(E, N, score)` of a tree from its per-keyword path weights, its root
/// and its keyword leaves: `E = Σ_i s(T, t_i)`, `N` the prestige of the root
/// plus the *distinct* leaves (summed in ascending node order).  `leaves`
/// is scratch: on return it holds that sorted node set.
///
/// The one scoring routine: [`AnswerTree::new`] uses it on a finished tree,
/// the expansion engine on a candidate it has not built yet.
pub(crate) fn score_tree(
    root: NodeId,
    leaves: &mut Vec<NodeId>,
    keyword_edge_scores: &[f64],
    prestige: &PrestigeVector,
    model: &ScoreModel,
) -> (f64, f64, f64) {
    let aggregate_edge_weight: f64 = keyword_edge_scores.iter().sum();
    leaves.push(root);
    leaves.sort_unstable();
    leaves.dedup();
    let node_prestige: f64 = leaves.iter().map(|n| prestige.get(*n)).sum();
    let score = model.tree_score(aggregate_edge_weight, node_prestige);
    (aggregate_edge_weight, node_prestige, score)
}

impl AnswerTree {
    /// Builds and scores an answer tree from its root and per-keyword paths.
    ///
    /// Edge weights are looked up in the graph (taking the cheapest edge for
    /// every consecutive pair), so the stored scores always describe the
    /// tree that is actually reported, even if the search engine's internal
    /// distance labels were momentarily stale.
    ///
    /// # Panics
    /// Panics if a path is empty, does not start at the root, or uses an
    /// edge that does not exist in the graph.
    pub fn new(
        root: NodeId,
        paths: Vec<Vec<NodeId>>,
        graph: &DataGraph,
        prestige: &PrestigeVector,
        model: &ScoreModel,
    ) -> Self {
        assert!(
            !paths.is_empty(),
            "an answer tree needs at least one keyword path"
        );
        let mut keyword_edge_scores = Vec::with_capacity(paths.len());
        for path in &paths {
            assert!(!path.is_empty(), "keyword path must not be empty");
            assert_eq!(path[0], root, "keyword path must start at the root");
            let mut sum = 0.0;
            for pair in path.windows(2) {
                let w = graph.edge_weight(pair[0], pair[1]).unwrap_or_else(|| {
                    panic!("answer path uses missing edge {} -> {}", pair[0], pair[1])
                });
                sum += w;
            }
            keyword_edge_scores.push(sum);
        }
        let mut leaves: Vec<NodeId> = paths
            .iter()
            .map(|path| *path.last().expect("path non-empty"))
            .collect();
        let (aggregate_edge_weight, node_prestige, score) =
            score_tree(root, &mut leaves, &keyword_edge_scores, prestige, model);
        AnswerTree {
            root,
            paths,
            keyword_edge_scores,
            aggregate_edge_weight,
            node_prestige,
            score,
        }
    }

    /// Number of keywords the tree connects.
    pub fn num_keywords(&self) -> usize {
        self.paths.len()
    }

    /// The leaf node for keyword `i`.
    pub fn leaf(&self, i: usize) -> NodeId {
        *self.paths[i].last().expect("paths are non-empty")
    }

    /// All leaves in keyword order.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.paths.len()).map(|i| self.leaf(i)).collect()
    }

    /// The distinct nodes of the tree, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> = self.paths.iter().flatten().copied().collect();
        set.into_iter().collect()
    }

    /// The distinct directed edges of the tree, sorted.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let set: BTreeSet<(NodeId, NodeId)> = self
            .paths
            .iter()
            .flat_map(|p| p.windows(2).map(|w| (w[0], w[1])))
            .collect();
        set.into_iter().collect()
    }

    /// Number of distinct nodes (the paper's "answer size" column counts
    /// nodes of the relevant answers).
    pub fn size(&self) -> usize {
        self.nodes().len()
    }

    /// Depth of the tree: the longest keyword path, in edges.
    pub fn depth(&self) -> usize {
        self.paths.iter().map(|p| p.len() - 1).max().unwrap_or(0)
    }

    /// Canonical duplicate-detection signature: the sorted distinct node
    /// set.  Rotations of the same tree (same nodes, different root — the
    /// situation Section 4.6 describes) share a signature and are
    /// deduplicated by the output heap, which keeps the higher-scoring one.
    pub fn signature(&self) -> Vec<NodeId> {
        self.nodes()
    }

    /// Children of the root within the tree (first hop of every non-trivial
    /// keyword path, deduplicated).
    pub fn root_children(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> = self
            .paths
            .iter()
            .filter(|p| p.len() > 1)
            .map(|p| p[1])
            .collect();
        set.into_iter().collect()
    }

    /// The minimality test of Section 3: a tree whose root has only one
    /// child, while no keyword is matched by the root itself, is redundant
    /// (removing the root yields another, higher-scoring answer).  For a
    /// single-keyword query this means the only minimal answers are the
    /// matching nodes themselves.
    pub fn is_minimal(&self) -> bool {
        let root_matches_keyword = self.paths.iter().any(|p| p.len() == 1);
        root_matches_keyword || self.root_children().len() >= 2
    }

    /// Checks the structural invariants of the tree against the graph and
    /// the keyword origin sets: every path starts at the root, consecutive
    /// nodes are joined by graph edges, every leaf belongs to its keyword's
    /// origin set and the depth respects `dmax`.  Returns a human-readable
    /// error description on failure.  Used by integration tests and
    /// property tests.
    pub fn validate(
        &self,
        graph: &DataGraph,
        origin_sets: &[Vec<NodeId>],
        dmax: usize,
    ) -> Result<(), String> {
        if self.paths.len() != origin_sets.len() {
            return Err(format!(
                "tree has {} paths but query has {} keywords",
                self.paths.len(),
                origin_sets.len()
            ));
        }
        for (i, path) in self.paths.iter().enumerate() {
            if path.is_empty() {
                return Err(format!("path {i} is empty"));
            }
            if path[0] != self.root {
                return Err(format!("path {i} does not start at the root"));
            }
            if path.len() - 1 > dmax {
                return Err(format!(
                    "path {i} has {} edges, exceeding dmax {dmax}",
                    path.len() - 1
                ));
            }
            for pair in path.windows(2) {
                if !graph.has_edge(pair[0], pair[1]) {
                    return Err(format!(
                        "path {i} uses missing edge {} -> {}",
                        pair[0], pair[1]
                    ));
                }
            }
            let leaf = *path.last().expect("non-empty");
            if !origin_sets[i].contains(&leaf) {
                return Err(format!(
                    "leaf {leaf} of path {i} does not match keyword {i}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::builder::graph_from_weighted_edges;

    /// writes(2) -> author(0), writes(2) -> paper(1); root 2 connects both.
    fn tiny() -> (DataGraph, PrestigeVector) {
        let g = graph_from_weighted_edges(3, &[(2, 0, 1.0), (2, 1, 2.0)]);
        let p = PrestigeVector::uniform_for(&g);
        (g, p)
    }

    #[test]
    fn scores_simple_tree() {
        let (g, p) = tiny();
        let model = ScoreModel::paper_default();
        let t = AnswerTree::new(
            NodeId(2),
            vec![vec![NodeId(2), NodeId(0)], vec![NodeId(2), NodeId(1)]],
            &g,
            &p,
            &model,
        );
        assert_eq!(t.keyword_edge_scores, vec![1.0, 2.0]);
        assert_eq!(t.aggregate_edge_weight, 3.0);
        // N = prestige(root) + prestige(leaf0) + prestige(leaf1) = 3
        assert_eq!(t.node_prestige, 3.0);
        let expected = (1.0 / 4.0) * 3f64.powf(0.2);
        assert!((t.score - expected).abs() < 1e-12);
        assert_eq!(t.num_keywords(), 2);
        assert_eq!(t.leaves(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(t.nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(
            t.edges(),
            vec![(NodeId(2), NodeId(0)), (NodeId(2), NodeId(1))]
        );
        assert_eq!(t.size(), 3);
        assert_eq!(t.depth(), 1);
        assert!(t.is_minimal());
    }

    #[test]
    fn root_matching_keyword_has_trivial_path() {
        let (g, p) = tiny();
        let model = ScoreModel::paper_default();
        let t = AnswerTree::new(
            NodeId(2),
            vec![vec![NodeId(2)], vec![NodeId(2), NodeId(1)]],
            &g,
            &p,
            &model,
        );
        assert_eq!(t.keyword_edge_scores, vec![0.0, 2.0]);
        assert_eq!(t.leaf(0), NodeId(2));
        // prestige nodes: {2, 1}
        assert_eq!(t.node_prestige, 2.0);
        assert!(
            t.is_minimal(),
            "root matching a keyword keeps single-child trees minimal"
        );
    }

    #[test]
    fn shared_leaf_counted_once_in_prestige() {
        let (g, p) = tiny();
        let model = ScoreModel::paper_default();
        let t = AnswerTree::new(
            NodeId(2),
            vec![vec![NodeId(2), NodeId(0)], vec![NodeId(2), NodeId(0)]],
            &g,
            &p,
            &model,
        );
        // distinct prestige nodes: {2, 0}
        assert_eq!(t.node_prestige, 2.0);
        assert_eq!(t.aggregate_edge_weight, 2.0);
    }

    #[test]
    fn non_minimal_tree_detected() {
        // chain 0 -> 1 -> 2 with root 0 having a single child; keywords at 1 and 2.
        let g = graph_from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let p = PrestigeVector::uniform_for(&g);
        let model = ScoreModel::paper_default();
        let t = AnswerTree::new(
            NodeId(0),
            vec![
                vec![NodeId(0), NodeId(1)],
                vec![NodeId(0), NodeId(1), NodeId(2)],
            ],
            &g,
            &p,
            &model,
        );
        assert!(!t.is_minimal());
        assert_eq!(t.root_children(), vec![NodeId(1)]);
    }

    #[test]
    fn signature_ignores_root_rotation() {
        let g = graph_from_weighted_edges(3, &[(2, 0, 1.0), (2, 1, 1.0), (0, 2, 1.0)]);
        let p = PrestigeVector::uniform_for(&g);
        let model = ScoreModel::paper_default();
        let a = AnswerTree::new(
            NodeId(2),
            vec![vec![NodeId(2), NodeId(0)], vec![NodeId(2), NodeId(1)]],
            &g,
            &p,
            &model,
        );
        let b = AnswerTree::new(
            NodeId(0),
            vec![vec![NodeId(0)], vec![NodeId(0), NodeId(2), NodeId(1)]],
            &g,
            &p,
            &model,
        );
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn validate_catches_bad_trees() {
        let (g, _p) = tiny();
        let p = PrestigeVector::uniform_for(&g);
        let model = ScoreModel::paper_default();
        let t = AnswerTree::new(
            NodeId(2),
            vec![vec![NodeId(2), NodeId(0)], vec![NodeId(2), NodeId(1)]],
            &g,
            &p,
            &model,
        );
        let origin_ok = vec![vec![NodeId(0)], vec![NodeId(1)]];
        assert!(t.validate(&g, &origin_ok, 8).is_ok());
        // wrong leaf
        let origin_bad = vec![vec![NodeId(1)], vec![NodeId(1)]];
        assert!(t.validate(&g, &origin_bad, 8).is_err());
        // dmax too small
        assert!(t.validate(&g, &origin_ok, 0).is_err());
        // keyword count mismatch
        assert!(t.validate(&g, &origin_ok[..1], 8).is_err());
    }

    #[test]
    #[should_panic(expected = "missing edge")]
    fn construction_panics_on_missing_edge() {
        let (g, p) = tiny();
        let model = ScoreModel::paper_default();
        let _ = AnswerTree::new(NodeId(0), vec![vec![NodeId(0), NodeId(1)]], &g, &p, &model);
    }
}
