//! The per-node prestige vector handed to the search algorithms.

use banks_graph::{DataGraph, NodeId};

/// Immutable prestige assignment: one non-negative score per node.
///
/// The vector also caches its maximum, which the Bidirectional search needs
/// when computing upper bounds on the scores of answers not yet generated
/// (Section 4.5).
#[derive(Clone, Debug, PartialEq)]
pub struct PrestigeVector {
    values: Vec<f64>,
    max: f64,
}

impl PrestigeVector {
    /// Wraps a raw score vector.
    ///
    /// # Panics
    /// Panics if any score is negative or non-finite.
    pub fn from_values(values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "prestige scores must be finite and non-negative"
        );
        let max = values.iter().copied().fold(0.0_f64, f64::max);
        PrestigeVector { values, max }
    }

    /// Uniform prestige `1.0` for every node — the setting of the paper's
    /// Figure 4 walk-through ("assume all node prestiges and edge weights to
    /// be unity").
    pub fn uniform(num_nodes: usize) -> Self {
        PrestigeVector {
            values: vec![1.0; num_nodes],
            max: if num_nodes == 0 { 0.0 } else { 1.0 },
        }
    }

    /// Uniform prestige sized for a graph.
    pub fn uniform_for(graph: &DataGraph) -> Self {
        Self::uniform(graph.num_nodes())
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the vector covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Prestige of a node.
    #[inline]
    pub fn get(&self, node: NodeId) -> f64 {
        self.values[node.index()]
    }

    /// Largest prestige over all nodes.
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all prestige values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `k` nodes with highest prestige, in descending prestige order
    /// (ties broken by node id for determinism).
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        let mut ranked: Vec<(NodeId, f64)> = self
            .values
            .iter()
            .enumerate()
            .map(|(i, v)| (NodeId::from_index(i), *v))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_vector() {
        let p = PrestigeVector::uniform(4);
        assert_eq!(p.len(), 4);
        assert_eq!(p.get(NodeId(2)), 1.0);
        assert_eq!(p.max(), 1.0);
        assert_eq!(p.sum(), 4.0);
        assert!(!p.is_empty());
        assert!(PrestigeVector::uniform(0).is_empty());
    }

    #[test]
    fn from_values_tracks_max() {
        let p = PrestigeVector::from_values(vec![0.1, 0.5, 0.4]);
        assert_eq!(p.max(), 0.5);
        assert_eq!(p.values(), &[0.1, 0.5, 0.4]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_values() {
        let _ = PrestigeVector::from_values(vec![0.1, -0.5]);
    }

    #[test]
    fn top_k_orders_by_prestige() {
        let p = PrestigeVector::from_values(vec![0.2, 0.5, 0.5, 0.1]);
        let top = p.top_k(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, NodeId(1)); // tie broken by id
        assert_eq!(top[1].0, NodeId(2));
        assert_eq!(top[2].0, NodeId(0));
    }
}
