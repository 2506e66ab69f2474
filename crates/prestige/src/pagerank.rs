//! Biased PageRank prestige (the paper's default).

use banks_graph::{DataGraph, NodeId};

use crate::vector::PrestigeVector;

/// Probability of following an edge rather than teleporting (the classic
/// damping factor; Brin & Page use 0.85).
const DAMPING: f64 = 0.85;
/// Maximum number of power-iteration sweeps.
const MAX_ITERATIONS: usize = 200;
/// Convergence threshold on the L1 change between successive sweeps.
const TOLERANCE: f64 = 1e-9;

/// Convergence diagnostics of a PageRank run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageRankStats {
    /// Number of sweeps actually performed.
    pub iterations: usize,
    /// L1 change of the last sweep.
    pub final_delta: f64,
    /// Whether the tolerance was reached before `max_iterations`.
    pub converged: bool,
}

/// Computes the paper's biased PageRank prestige.
///
/// At each step the walker at node `u` follows edge `u -> v` with probability
/// proportional to `1 / w(u, v)` (cheap edges are strong endorsements), or
/// teleports to a uniformly random node with probability 0.15.  The walk
/// runs on the data graph, forward and backward edges alike, which also
/// makes it ergodic on weakly connected graphs.  Nodes with no outgoing
/// edges teleport with probability 1.  The power iteration stops after 200
/// sweeps or once a sweep changes the ranks by less than 1e-9 in L1.
///
/// The result is normalised to sum to 1 over all nodes.
pub fn compute_pagerank(graph: &DataGraph) -> (PrestigeVector, PageRankStats) {
    power_iteration(graph, MAX_ITERATIONS, TOLERANCE)
}

/// The power iteration behind [`compute_pagerank`], with its stop rule as
/// parameters so that a test can cap it.
fn power_iteration(
    graph: &DataGraph,
    max_iterations: usize,
    tolerance: f64,
) -> (PrestigeVector, PageRankStats) {
    let n = graph.num_nodes();
    if n == 0 {
        return (
            PrestigeVector::from_values(Vec::new()),
            PageRankStats {
                iterations: 0,
                final_delta: 0.0,
                converged: true,
            },
        );
    }

    // Precompute, for every node, its transition targets and probabilities.
    let mut targets: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
    for u in graph.nodes() {
        let edges: Vec<(NodeId, f64)> =
            graph.out_edges(u).map(|e| (e.to, 1.0 / e.weight)).collect();
        let total: f64 = edges.iter().map(|(_, p)| p).sum();
        if total > 0.0 {
            targets.push(edges.into_iter().map(|(v, p)| (v.0, p / total)).collect());
        } else {
            targets.push(Vec::new());
        }
    }

    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    let mut iterations = 0usize;
    let mut final_delta = f64::INFINITY;
    let mut converged = false;

    for _ in 0..max_iterations {
        iterations += 1;
        // Mass from teleportation and dangling nodes.
        let dangling_mass: f64 = (0..n)
            .filter(|i| targets[*i].is_empty())
            .map(|i| rank[i])
            .sum();
        let base = (1.0 - DAMPING) * uniform + DAMPING * dangling_mass * uniform;
        next.iter_mut().for_each(|x| *x = base);
        for u in 0..n {
            if targets[u].is_empty() {
                continue;
            }
            let share = DAMPING * rank[u];
            for (v, p) in &targets[u] {
                next[*v as usize] += share * p;
            }
        }
        final_delta = rank
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(&mut rank, &mut next);
        if final_delta < tolerance {
            converged = true;
            break;
        }
    }

    // Normalise defensively (floating point drift).
    let sum: f64 = rank.iter().sum();
    if sum > 0.0 {
        rank.iter_mut().for_each(|x| *x /= sum);
    }

    (
        PrestigeVector::from_values(rank),
        PageRankStats {
            iterations,
            final_delta,
            converged,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::builder::{graph_from_edges, graph_from_weighted_edges};
    use banks_graph::GraphBuilder;

    #[test]
    fn ranks_sum_to_one_and_converge() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 1), (4, 1), (5, 4)]);
        let (p, stats) = compute_pagerank(&g);
        assert!((p.sum() - 1.0).abs() < 1e-9);
        assert!(stats.converged, "did not converge: {stats:?}");
        assert!(stats.iterations > 1);
        assert!(p.values().iter().all(|v| *v > 0.0));
    }

    #[test]
    fn heavily_cited_node_has_higher_prestige() {
        // Many papers cite node 0; node 5 is cited by nobody.
        let g = graph_from_edges(6, &[(1, 0), (2, 0), (3, 0), (4, 0), (1, 5)]);
        let (p, _) = compute_pagerank(&g);
        assert!(p.get(NodeId(0)) > p.get(NodeId(5)));
        assert!(p.get(NodeId(0)) > p.get(NodeId(2)));
    }

    #[test]
    fn cheaper_edges_carry_more_endorsement() {
        // Node 0 points to 1 with a cheap edge and to 2 with an expensive
        // edge; the walk should favour node 1.
        let g = {
            let mut b = GraphBuilder::new();
            for i in 0..3 {
                b.add_node("node", format!("v{i}"));
            }
            b.add_edge_weighted(NodeId(0), NodeId(1), 1.0).unwrap();
            b.add_edge_weighted(NodeId(0), NodeId(2), 10.0).unwrap();
            b.build_default()
        };
        let (p, _) = compute_pagerank(&g);
        assert!(p.get(NodeId(1)) > p.get(NodeId(2)));
    }

    #[test]
    fn dangling_nodes_do_not_lose_mass() {
        // Every edge has a backward twin, so only the isolated node 3 is
        // dangling; its mass is spread by teleportation, not lost.
        let g = graph_from_edges(4, &[(0, 1), (1, 2)]);
        let (p, _) = compute_pagerank(&g);
        assert!((p.sum() - 1.0).abs() < 1e-9);
        assert!(p.get(NodeId(3)) > 0.0);
        // Nodes that receive edges outrank the one that receives none.
        assert!(p.get(NodeId(3)) < p.get(NodeId(0)));
        assert!(p.get(NodeId(0)) < p.get(NodeId(1)));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build_default();
        let (p, stats) = compute_pagerank(&g);
        assert!(p.is_empty());
        assert!(stats.converged);
    }

    #[test]
    fn respects_iteration_cap() {
        let g = graph_from_weighted_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let (_, stats) = power_iteration(&g, 2, 0.0);
        assert_eq!(stats.iterations, 2);
        assert!(!stats.converged);
    }
}
