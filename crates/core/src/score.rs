//! Answer-tree ranking (Section 2.3 of the paper).
//!
//! The paper scores an answer tree `T` for query terms `t_1 .. t_n` by
//!
//! * `s(T, t_i)` — the sum of edge weights on the path from the root of `T`
//!   to the leaf containing `t_i`,
//! * the aggregate edge score `E = Σ_i s(T, t_i)` (smaller is better),
//! * the tree node prestige `N` — the sum of the node prestiges of the leaf
//!   nodes and the answer root (larger is better),
//! * the overall tree score `E·N^λ` with `λ = 0.2` by default.
//!
//! Because `E` *decreases* with relevance while the overall score must
//! *increase* with relevance (answers with higher scores are output first),
//! the edge weight sum has to pass through a monotone decreasing map before
//! being multiplied with `N^λ` — exactly as in BANKS-I, which uses
//! `1/(1+E)`; this reproduction applies that map everywhere.

/// The full scoring model: the `1/(1+E)` edge map and the prestige
/// exponent `λ`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreModel {
    lambda: f64,
}

impl ScoreModel {
    /// Creates a score model.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda >= 0.0, "λ must be non-negative");
        ScoreModel { lambda }
    }

    /// The paper's default, `λ = 0.2`.
    pub fn paper_default() -> Self {
        ScoreModel::new(0.2)
    }

    /// The prestige exponent.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Overall tree score from the aggregate edge weight `E = Σ_i s(T, t_i)`
    /// and tree node prestige `N`.
    #[inline]
    pub fn tree_score(&self, aggregate_edge_weight: f64, node_prestige: f64) -> f64 {
        debug_assert!(aggregate_edge_weight >= 0.0);
        debug_assert!(node_prestige >= 0.0);
        1.0 / (1.0 + aggregate_edge_weight) * node_prestige.powf(self.lambda)
    }

    /// Upper bound on the overall score of any answer whose aggregate edge
    /// weight is at least `min_aggregate_edge_weight`, given the largest node
    /// prestige in the graph and the number of keywords (the tree node
    /// prestige of an `n`-keyword answer involves at most `n + 1` distinct
    /// nodes: the root and one leaf per keyword).
    #[inline]
    pub fn score_upper_bound(
        &self,
        min_aggregate_edge_weight: f64,
        max_node_prestige: f64,
        num_keywords: usize,
    ) -> f64 {
        let max_n = max_node_prestige * (num_keywords as f64 + 1.0);
        self.tree_score(min_aggregate_edge_weight, max_n)
    }
}

impl Default for ScoreModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reciprocal_map_is_monotone_decreasing() {
        let m = ScoreModel::new(0.0);
        assert_eq!(m.tree_score(0.0, 1.0), 1.0);
        assert!(m.tree_score(1.0, 1.0) > m.tree_score(2.0, 1.0));
        assert!(m.tree_score(2.0, 1.0) > m.tree_score(10.0, 1.0));
        assert!(m.tree_score(10.0, 1.0) > 0.0);
    }

    #[test]
    fn tree_score_prefers_short_trees_and_high_prestige() {
        let m = ScoreModel::paper_default();
        // shorter tree wins at equal prestige
        assert!(m.tree_score(2.0, 1.0) > m.tree_score(4.0, 1.0));
        // higher prestige wins at equal length
        assert!(m.tree_score(2.0, 2.0) > m.tree_score(2.0, 1.0));
        assert_eq!(m.lambda(), 0.2);
    }

    #[test]
    fn lambda_zero_ignores_prestige() {
        let m = ScoreModel::new(0.0);
        assert_eq!(m.tree_score(3.0, 0.5), m.tree_score(3.0, 100.0));
    }

    #[test]
    fn upper_bound_dominates_any_consistent_answer() {
        let m = ScoreModel::paper_default();
        let max_prestige = 0.3;
        let n = 3;
        let bound = m.score_upper_bound(4.0, max_prestige, n);
        // any answer with aggregate edge weight >= 4 and <= n+1 leaves of
        // prestige <= max_prestige must score below the bound
        for e in [4.0, 4.5, 6.0, 10.0] {
            for leaves in 1..=n + 1 {
                let score = m.tree_score(e, max_prestige * leaves as f64);
                assert!(
                    score <= bound + 1e-12,
                    "score {score} exceeds bound {bound}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_lambda() {
        let _ = ScoreModel::new(-1.0);
    }
}
