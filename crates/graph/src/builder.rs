//! Incremental construction of a [`DataGraph`].

use std::collections::HashMap;

use crate::error::GraphError;
use crate::graph::DataGraph;
use crate::ids::{KindId, NodeId};
use crate::node::NodeMeta;
use crate::Result;

/// Builder that accumulates typed nodes and *original* (forward) edges and
/// freezes them into an immutable [`DataGraph`].
///
/// ```
/// use banks_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let paper = b.add_node("paper", "Transaction Recovery");
/// let author = b.add_node("author", "Gray");
/// let writes = b.add_node("writes", "w1");
/// b.add_edge(writes, paper).unwrap();
/// b.add_edge(writes, author).unwrap();
/// let g = b.build_default();
/// assert_eq!(g.num_nodes(), 3);
/// // two forward + two backward edges
/// assert_eq!(g.num_directed_edges(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    kinds: Vec<String>,
    kind_lookup: HashMap<String, KindId>,
    nodes: Vec<NodeMeta>,
    /// Original forward edges with their weights.
    edges: Vec<(NodeId, NodeId, f64)>,
    allow_self_loops: bool,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with pre-reserved capacity for `nodes` nodes and
    /// `edges` forward edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            kinds: Vec::new(),
            kind_lookup: HashMap::new(),
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            allow_self_loops: false,
        }
    }

    /// Permits self-loop edges (disabled by default, as tuple graphs never
    /// contain them and they only create degenerate one-node "trees").
    pub fn allow_self_loops(mut self, allow: bool) -> Self {
        self.allow_self_loops = allow;
        self
    }

    /// Interns a node kind (relation name) and returns its id.
    pub fn kind(&mut self, name: &str) -> KindId {
        if let Some(id) = self.kind_lookup.get(name) {
            return *id;
        }
        assert!(self.kinds.len() <= u16::MAX as usize, "too many node kinds");
        let id = KindId::from_index(self.kinds.len());
        self.kinds.push(name.to_string());
        self.kind_lookup.insert(name.to_string(), id);
        id
    }

    /// Adds a node of the given kind with a display label; returns its id.
    pub fn add_node(&mut self, kind: &str, label: impl Into<String>) -> NodeId {
        let kind = self.kind(kind);
        self.add_node_with_kind(kind, label)
    }

    /// Adds a node given an already-interned kind id.
    pub fn add_node_with_kind(&mut self, kind: KindId, label: impl Into<String>) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeMeta::new(kind, label));
        id
    }

    /// Adds an original forward edge `from -> to` with the default weight
    /// 1 (the paper: "defined by the schema, and default to 1").
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        self.push_edge(from, to, 1.0)
    }

    /// Adds an original forward edge with an explicit weight.
    pub fn add_edge_weighted(&mut self, from: NodeId, to: NodeId, weight: f64) -> Result<()> {
        if !weight.is_finite() || weight <= 0.0 {
            return Err(GraphError::InvalidEdgeWeight { from, to, weight });
        }
        self.push_edge(from, to, weight)
    }

    fn push_edge(&mut self, from: NodeId, to: NodeId, weight: f64) -> Result<()> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to && !self.allow_self_loops {
            return Err(GraphError::SelfLoop { node: from });
        }
        self.edges.push((from, to, weight));
        Ok(())
    }

    fn check_node(&self, node: NodeId) -> Result<()> {
        if node.index() >= self.nodes.len() {
            return Err(GraphError::NodeOutOfBounds {
                node,
                len: self.nodes.len(),
            });
        }
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of forward edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into an immutable [`DataGraph`]: every forward
    /// edge gets its backward twin, weighted as the paper's Section 2.3
    /// says.
    pub fn build_default(self) -> DataGraph {
        DataGraph::from_parts(self.kinds, self.nodes, self.edges)
    }
}

/// Convenience constructor used pervasively in unit tests: builds a graph
/// from plain `(from, to)` pairs over `n` nodes, all of kind `"node"` with
/// labels `"v{i}"` and default weights.
pub fn graph_from_edges(n: usize, edges: &[(u32, u32)]) -> DataGraph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for i in 0..n {
        b.add_node("node", format!("v{i}"));
    }
    for (u, v) in edges {
        b.add_edge(NodeId(*u), NodeId(*v))
            .expect("edge endpoints must exist");
    }
    b.build_default()
}

/// Convenience constructor with explicit weights.
pub fn graph_from_weighted_edges(n: usize, edges: &[(u32, u32, f64)]) -> DataGraph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for i in 0..n {
        b.add_node("node", format!("v{i}"));
    }
    for (u, v, w) in edges {
        b.add_edge_weighted(NodeId(*u), NodeId(*v), *w)
            .expect("edge must be valid");
    }
    b.build_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::EdgeKind;

    #[test]
    fn builds_simple_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("author", "Gray");
        let p = b.add_node("paper", "Transactions");
        b.add_edge_weighted(p, a, 1.0).unwrap();
        let g = b.build_default();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_original_edges(), 1);
        assert_eq!(g.num_directed_edges(), 2); // forward + backward
        assert!(g.has_edge(p, a));
        assert!(g.has_edge(a, p)); // backward edge
    }

    #[test]
    fn kind_interning_is_stable() {
        let mut b = GraphBuilder::new();
        let k1 = b.kind("paper");
        let k2 = b.kind("author");
        let k1_again = b.kind("paper");
        assert_eq!(k1, k1_again);
        assert_ne!(k1, k2);
    }

    #[test]
    fn rejects_dangling_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("x", "a");
        let err = b.add_edge(a, NodeId(5)).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }

    #[test]
    fn rejects_bad_weights() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("x", "a");
        let c = b.add_node("x", "c");
        assert!(matches!(
            b.add_edge_weighted(a, c, 0.0),
            Err(GraphError::InvalidEdgeWeight { .. })
        ));
        assert!(matches!(
            b.add_edge_weighted(a, c, f64::NAN),
            Err(GraphError::InvalidEdgeWeight { .. })
        ));
        assert!(matches!(
            b.add_edge_weighted(a, c, -3.0),
            Err(GraphError::InvalidEdgeWeight { .. })
        ));
    }

    #[test]
    fn rejects_self_loops_by_default() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("x", "a");
        assert!(matches!(b.add_edge(a, a), Err(GraphError::SelfLoop { .. })));

        let mut b = GraphBuilder::new().allow_self_loops(true);
        let a = b.add_node("x", "a");
        assert!(b.add_edge(a, a).is_ok());
    }

    #[test]
    fn backward_edge_weight_uses_head_indegree() {
        // Three papers point at one conference; backward edges from the
        // conference must be log2(1 + 3) = 2 times the forward weight.
        let mut b = GraphBuilder::new();
        let conf = b.add_node("conference", "VLDB");
        let papers: Vec<NodeId> = (0..3)
            .map(|i| b.add_node("paper", format!("p{i}")))
            .collect();
        for p in &papers {
            b.add_edge_weighted(*p, conf, 1.0).unwrap();
        }
        let g = b.build_default();
        for p in &papers {
            let back = g
                .out_edges(conf)
                .find(|e| e.to == *p)
                .expect("backward edge must exist");
            assert_eq!(back.kind, EdgeKind::Backward);
            assert!(
                (back.weight - 2.0).abs() < 1e-12,
                "weight was {}",
                back.weight
            );
            let fwd = g.out_edges(*p).find(|e| e.to == conf).unwrap();
            assert_eq!(fwd.kind, EdgeKind::Forward);
            assert!((fwd.weight - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn helper_constructors() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_original_edges(), 2);

        let g = graph_from_weighted_edges(2, &[(0, 1, 2.5)]);
        assert_eq!(g.forward_edge_weight(NodeId(0), NodeId(1)), Some(2.5));
    }
}
