//! Randomized mutate-vs-rebuild equivalence suite.
//!
//! The contract of the mutation-first data layer is that applying a
//! [`MutationBatch`] produces *exactly* the world a from-scratch rebuild of
//! the same final state would produce — adjacency rows, derived
//! backward-edge weights, keyword index and prestige included — so the
//! search engines cannot tell the difference.  This suite generates random
//! graphs and random op batches (valid and invalid ops mixed), maintains
//! an independent shadow model of the intended final state, and asserts:
//!
//! * structural equality (per-node metadata, degrees, out/in rows with
//!   bit-exact weights),
//! * **byte-identical query results** for all three engines, comparing the
//!   canonical JSON rendering of every ranked answer between the mutated
//!   snapshot chain and a snapshot rebuilt from scratch,
//! * index equivalence term by term over the whole vocabulary.

use banks::core::{json as corejson, Banks};
use banks::prelude::*;

/// Deterministic xorshift64* — no dependency, stable across platforms.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

const VOCAB: &[&str] = &[
    "database", "recovery", "keyword", "search", "graph", "locks", "stream", "index", "query",
    "prestige", "vldb", "banks",
];
const KINDS: &[&str] = &["author", "paper", "writes", "venue"];

/// Independent model of the intended final graph, updated with the same
/// semantics the mutation layer promises.
#[derive(Clone)]
struct Model {
    nodes: Vec<(String, String)>,
    edges: Vec<(u32, u32, f64)>,
}

impl Model {
    fn random(rng: &mut Rng) -> Self {
        let n = 10 + rng.below(20) as usize;
        let nodes: Vec<(String, String)> = (0..n)
            .map(|_| {
                (
                    KINDS[rng.below(KINDS.len() as u64) as usize].to_string(),
                    random_label(rng),
                )
            })
            .collect();
        let m = n + rng.below(2 * n as u64) as usize;
        let mut edges = Vec::new();
        for _ in 0..m {
            let u = rng.below(n as u64) as u32;
            let v = rng.below(n as u64) as u32;
            if u != v {
                edges.push((u, v, 1.0));
            }
        }
        Model { nodes, edges }
    }

    fn rebuild(&self) -> DataGraph {
        let mut b = GraphBuilder::new();
        for (kind, label) in &self.nodes {
            b.add_node(kind, label.clone());
        }
        for (u, v, w) in &self.edges {
            b.add_edge_weighted(NodeId(*u), NodeId(*v), *w)
                .expect("model edges are valid");
        }
        b.build_default()
    }
}

fn random_label(rng: &mut Rng) -> String {
    let a = VOCAB[rng.below(VOCAB.len() as u64) as usize];
    let b = VOCAB[rng.below(VOCAB.len() as u64) as usize];
    format!("{a} {b}")
}

/// Generates one random batch and applies its intended effect to `model`
/// (mirroring the documented semantics: RemoveEdge / SetWeight hit every
/// parallel edge; invalid ops — also generated — change nothing).
fn random_batch(rng: &mut Rng, model: &mut Model) -> MutationBatch {
    let mut batch = MutationBatch::new();
    let ops = 8 + rng.below(10);
    for _ in 0..ops {
        let n = model.nodes.len() as u64;
        match rng.below(12) {
            0 | 1 => {
                let kind = KINDS[rng.below(KINDS.len() as u64) as usize].to_string();
                let label = random_label(rng);
                batch = batch.add_node(kind.clone(), label.clone());
                model.nodes.push((kind, label));
            }
            2..=4 => {
                let u = rng.below(n) as u32;
                let v = rng.below(n) as u32;
                if u == v {
                    // generated self-loop: must be rejected, model untouched
                    batch = batch.add_edge(NodeId(u), NodeId(v));
                } else if rng.below(2) == 0 {
                    let w = 0.5 + rng.below(16) as f64 / 4.0;
                    batch = batch.add_edge_weighted(NodeId(u), NodeId(v), w);
                    model.edges.push((u, v, w));
                } else {
                    batch = batch.add_edge(NodeId(u), NodeId(v));
                    model.edges.push((u, v, 1.0));
                }
            }
            5 | 6 => {
                if model.edges.is_empty() {
                    continue;
                }
                let (u, v, _) = model.edges[rng.below(model.edges.len() as u64) as usize];
                batch = batch.remove_edge(NodeId(u), NodeId(v));
                model.edges.retain(|(a, b, _)| !(*a == u && *b == v));
            }
            7 | 8 => {
                let node = rng.below(n) as u32;
                let label = random_label(rng);
                batch = batch.set_label(NodeId(node), label.clone());
                model.nodes[node as usize].1 = label;
            }
            9 | 10 => {
                if model.edges.is_empty() {
                    continue;
                }
                let (u, v, _) = model.edges[rng.below(model.edges.len() as u64) as usize];
                let w = 0.25 + rng.below(20) as f64 / 4.0;
                batch = batch.set_weight(NodeId(u), NodeId(v), w);
                for edge in &mut model.edges {
                    if edge.0 == u && edge.1 == v {
                        edge.2 = w;
                    }
                }
            }
            _ => {
                // deliberately invalid ops: out-of-bounds endpoint or a
                // missing edge — must be rejected without side effects
                match rng.below(3) {
                    0 => batch = batch.add_edge(NodeId(rng.below(n) as u32), NodeId(u32::MAX)),
                    1 => batch = batch.set_label(NodeId(n as u32 + 100), "ghost"),
                    _ => {
                        batch = batch.remove_edge(NodeId(n as u32 + 7), NodeId(rng.below(n) as u32))
                    }
                }
            }
        }
    }
    batch
}

fn assert_graphs_identical(mutated: &DataGraph, rebuilt: &DataGraph, ctx: &str) {
    assert_eq!(mutated.num_nodes(), rebuilt.num_nodes(), "{ctx}: num_nodes");
    assert_eq!(
        mutated.num_original_edges(),
        rebuilt.num_original_edges(),
        "{ctx}: num_original_edges"
    );
    assert_eq!(
        mutated.num_directed_edges(),
        rebuilt.num_directed_edges(),
        "{ctx}: num_directed_edges"
    );
    for u in mutated.nodes() {
        assert_eq!(
            mutated.node_kind_name(u),
            rebuilt.node_kind_name(u),
            "{ctx}: kind of {u:?}"
        );
        assert_eq!(
            mutated.node_label(u),
            rebuilt.node_label(u),
            "{ctx}: label of {u:?}"
        );
        assert_eq!(
            mutated.forward_indegree(u),
            rebuilt.forward_indegree(u),
            "{ctx}: forward indegree of {u:?}"
        );
        assert_eq!(
            mutated.forward_outdegree(u),
            rebuilt.forward_outdegree(u),
            "{ctx}: forward outdegree of {u:?}"
        );
        let a: Vec<(u32, u64, EdgeKind)> = mutated
            .out_edges(u)
            .map(|e| (e.to.0, e.weight.to_bits(), e.kind))
            .collect();
        let b: Vec<(u32, u64, EdgeKind)> = rebuilt
            .out_edges(u)
            .map(|e| (e.to.0, e.weight.to_bits(), e.kind))
            .collect();
        assert_eq!(a, b, "{ctx}: out row of {u:?}");
        let a: Vec<(u32, u64, EdgeKind)> = mutated
            .in_edges(u)
            .map(|e| (e.from.0, e.weight.to_bits(), e.kind))
            .collect();
        let b: Vec<(u32, u64, EdgeKind)> = rebuilt
            .in_edges(u)
            .map(|e| (e.from.0, e.weight.to_bits(), e.kind))
            .collect();
        assert_eq!(a, b, "{ctx}: in row of {u:?}");
    }
}

/// Runs the same query through one engine on both worlds and asserts the
/// rendered answers are byte-identical.
fn assert_queries_identical(
    mutated: &GraphSnapshot,
    rebuilt: &GraphSnapshot,
    keywords: &[String],
    ctx: &str,
) {
    for engine in ["bidirectional", "si-backward", "mi-backward"] {
        let run = |snap: &GraphSnapshot| -> Vec<String> {
            let banks = Banks::open(snap.graph())
                .with_prestige(snap.prestige().clone())
                .with_index(snap.index().clone());
            banks
                .query(keywords.iter().cloned())
                .top_k(5)
                .engine(engine)
                .run()
                .answers
                .iter()
                // rank + canonical tree rendering: everything about the
                // answer except the wall-clock timing fields, which no two
                // runs (even of the same graph) share
                .map(|a| format!("{}:{}", a.rank, corejson::answer_tree(&a.tree)))
                .collect()
        };
        let a = run(mutated);
        let b = run(rebuilt);
        assert_eq!(
            a, b,
            "{ctx}: engine {engine} answers diverged for {keywords:?}"
        );
    }
}

#[test]
fn randomized_batches_match_a_from_scratch_rebuild() {
    for seed in 1..=6u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E3779B97F4A7C15));
        let mut model = Model::random(&mut rng);
        // the mutated world advances by deltas; the rebuilt world is
        // reconstructed from the shadow model every round
        let mut snapshot = GraphSnapshot::with_defaults(model.rebuild());
        assert_graphs_identical(snapshot.graph(), &model.rebuild(), "seed setup");

        for round in 0..3 {
            let ctx = format!("seed {seed} round {round}");
            let batch = random_batch(&mut rng, &mut model);
            let (next, outcome) = snapshot.apply_batch(&batch);
            assert!(
                outcome.accepted() + outcome.rejected() == batch.len(),
                "{ctx}: every op must be accounted for"
            );
            snapshot = next;

            let rebuilt = GraphSnapshot::with_defaults(model.rebuild());
            assert_graphs_identical(snapshot.graph(), rebuilt.graph(), &ctx);

            // index equivalence over the whole vocabulary (plus relation
            // names, which double as keywords)
            for term in VOCAB.iter().chain(KINDS.iter()) {
                assert_eq!(
                    snapshot.index().matching_nodes(snapshot.graph(), term),
                    rebuilt.index().matching_nodes(rebuilt.graph(), term),
                    "{ctx}: matches for {term:?}"
                );
            }
            assert_eq!(
                snapshot.index().num_terms(),
                rebuilt.index().num_terms(),
                "{ctx}: vocabulary size"
            );

            // byte-identical answers across all three engines
            for _ in 0..3 {
                let keywords: Vec<String> = (0..2)
                    .map(|_| VOCAB[rng.below(VOCAB.len() as u64) as usize].to_string())
                    .collect();
                assert_queries_identical(&snapshot, &rebuilt, &keywords, &ctx);
            }
        }
    }
}

/// Compaction must be invisible to queries: same epoch, same rows, same
/// answers.
#[test]
fn compaction_is_query_invisible() {
    let mut rng = Rng::new(0xDEADBEEF);
    let mut model = Model::random(&mut rng);
    let mut mutated = model.rebuild();
    for _ in 0..3 {
        let batch = random_batch(&mut rng, &mut model);
        mutated = mutated.apply_batch(&batch).0;
    }
    assert!(mutated.has_overlay());
    let flat = mutated.compacted();
    assert_eq!(flat.epoch(), mutated.epoch(), "contents identical");
    assert!(!flat.has_overlay());
    assert_graphs_identical(&flat, &mutated, "compaction");
    assert_graphs_identical(&flat, &model.rebuild(), "compaction vs model");
}
