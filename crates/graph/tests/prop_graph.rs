//! Property-based tests for the graph substrate.

use banks_graph::builder::GraphBuilder;
use banks_graph::{EdgeKind, NodeId};
use proptest::prelude::*;

/// Strategy producing a random edge list over `n` nodes.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.25f64..4.0), 0..(n * 3));
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32, f64)]) -> banks_graph::DataGraph {
    let mut b = GraphBuilder::with_capacity(n, edges.len()).allow_self_loops(false);
    for i in 0..n {
        b.add_node("node", format!("v{i}"));
    }
    for (u, v, w) in edges {
        if u != v {
            b.add_edge_weighted(NodeId(*u), NodeId(*v), *w).unwrap();
        }
    }
    b.build_default()
}

proptest! {
    /// Every out-edge appears as an in-edge of its target with the same
    /// weight and kind, and vice versa.
    #[test]
    fn adjacency_directions_are_mirrors((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        for u in g.nodes() {
            let outs: Vec<_> = g.out_edges(u).collect();
            for e in outs {
                prop_assert!(g.in_edges(e.to).any(|b| b.from == u && (b.weight - e.weight).abs() < 1e-12 && b.kind == e.kind));
            }
            let ins: Vec<_> = g.in_edges(u).collect();
            for e in ins {
                prop_assert!(g.out_edges(e.from).any(|b| b.to == u && (b.weight - e.weight).abs() < 1e-12 && b.kind == e.kind));
            }
        }
    }

    /// Every original edge has exactly one backward twin, so the number of
    /// directed edges is exactly twice the number of original edges.
    #[test]
    fn directed_edges_are_twice_the_original_edges((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        prop_assert_eq!(g.num_directed_edges(), 2 * g.num_original_edges());
        prop_assert_eq!(g.num_original_edges(), edges.iter().filter(|(u, v, _)| u != v).count());
    }

    /// Backward edges are never cheaper than their forward counterpart under
    /// the paper's indegree-log rule.
    #[test]
    fn backward_edges_at_least_forward_weight((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        for u in g.nodes() {
            for e in g.out_edges(u).filter(|e| e.kind == EdgeKind::Backward) {
                // the matching forward edge goes e.to -> e.from
                let fwd = g.forward_edge_weight(e.to, e.from).expect("forward twin must exist");
                prop_assert!(e.weight >= fwd - 1e-12,
                    "backward edge {:?} cheaper than forward {}", e, fwd);
            }
        }
    }
}
