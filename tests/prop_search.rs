//! Property-based tests over the search engines: on random graphs and
//! random keyword assignments, every emitted answer must satisfy the answer
//! model of Section 2, and the three engines must agree on the set of
//! reported answers when allowed to exhaust the graph.

use banks::prelude::*;
use proptest::prelude::*;

/// A random small graph plus 1–6 random keyword sets: the keyword counts
/// the engine is compiled for on their own (2 and 3) and the runtime-width
/// code that runs every other count.
fn arb_instance() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, Vec<Vec<u32>>)> {
    (4usize..20).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 3..(n * 2));
        let keywords = (1usize..=6).prop_flat_map(move |k| {
            proptest::collection::vec(proptest::collection::vec(0..n as u32, 1..4), k..=k)
        });
        (Just(n), edges, keywords)
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> DataGraph {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_node("node", format!("v{i}"));
    }
    for (u, v) in edges {
        if u != v {
            b.add_edge(NodeId(*u), NodeId(*v)).unwrap();
        }
    }
    b.build_default()
}

fn to_matches(keywords: &[Vec<u32>]) -> KeywordMatches {
    KeywordMatches::from_sets(
        keywords
            .iter()
            .enumerate()
            .map(|(i, set)| (format!("k{i}"), set.iter().map(|n| NodeId(*n)).collect())),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every emitted answer is a valid, minimal tree within dmax, and no
    /// duplicate node sets are emitted.
    #[test]
    fn answers_satisfy_the_answer_model((n, edges, keywords) in arb_instance()) {
        let graph = build(n, &edges);
        let matches = to_matches(&keywords);
        let prestige = PrestigeVector::uniform_for(&graph);
        let params = SearchParams::with_top_k(16);
        let origin_sets: Vec<Vec<NodeId>> = (0..matches.num_keywords())
            .map(|i| matches.origin_set(i).to_vec())
            .collect();

        for engine in [
            Box::new(BidirectionalSearch::new()) as Box<dyn SearchEngine>,
            Box::new(SingleIteratorBackwardSearch::new()),
            Box::new(BackwardExpandingSearch::new()),
        ] {
            let outcome = engine.search(&graph, &prestige, &matches, &params);
            let mut signatures = Vec::new();
            for answer in &outcome.answers {
                prop_assert!(answer.tree.validate(&graph, &origin_sets, params.dmax).is_ok(),
                    "{}: {:?}", engine.name(),
                    answer.tree.validate(&graph, &origin_sets, params.dmax));
                prop_assert!(answer.tree.is_minimal());
                prop_assert!(answer.tree.score.is_finite() && answer.tree.score > 0.0);
                signatures.push(answer.tree.signature());
            }
            let before = signatures.len();
            signatures.sort();
            signatures.dedup();
            prop_assert_eq!(before, signatures.len(), "{} emitted duplicates", engine.name());
            prop_assert!(outcome.stats.answers_output == outcome.answers.len());
        }
    }

    /// With a top-k large enough to exhaust the graph, Bidirectional and
    /// SI-Backward agree on whether answers exist and on the best achievable
    /// answer score, and each engine's best answer is also reported by the
    /// other.  (The complete answer *lists* may differ slightly: the paper's
    /// single-iterator design emits alternative rotations of the same
    /// connection depending on exploration order, see Section 4.6.)
    #[test]
    fn bidirectional_and_si_backward_agree_when_exhaustive((n, edges, keywords) in arb_instance()) {
        let graph = build(n, &edges);
        let matches = to_matches(&keywords);
        let prestige = PrestigeVector::uniform_for(&graph);
        let params = SearchParams::with_top_k(10_000);

        let a = BidirectionalSearch::new().search(&graph, &prestige, &matches, &params);
        let b = SingleIteratorBackwardSearch::new().search(&graph, &prestige, &matches, &params);
        prop_assert_eq!(a.answers.is_empty(), b.answers.is_empty());
        if a.answers.is_empty() {
            return Ok(());
        }
        // Output order (and therefore which tree of a duplicate-signature
        // pair gets reported) is approximate in both engines, so best scores
        // may differ slightly; they must agree within a factor of two and
        // every best answer of one engine must connect nodes the other
        // engine also connects (signature coverage by supersets).
        let best_a = a.best_score().unwrap();
        let best_b = b.best_score().unwrap();
        let ratio = best_a.max(best_b) / best_a.min(best_b);
        prop_assert!(ratio < 2.0, "best scores differ too much: {} vs {}", best_a, best_b);

        let covered = |sig: &Vec<NodeId>, outcome: &SearchOutcome| {
            outcome.answers.iter().any(|x| sig.iter().all(|n| x.tree.nodes().contains(n)))
                || outcome.answers.iter().any(|x| x.tree.nodes().iter().all(|n| sig.contains(n)))
        };
        let top_a: Vec<_> = a.answers.iter().filter(|x| (x.tree.score - best_a).abs() < 1e-9)
            .map(|x| x.tree.signature()).collect();
        for sig in &top_a {
            prop_assert!(covered(sig, &b), "SI-Backward misses a best answer {:?}", sig);
        }
        let top_b: Vec<_> = b.answers.iter().filter(|x| (x.tree.score - best_b).abs() < 1e-9)
            .map(|x| x.tree.signature()).collect();
        for sig in &top_b {
            prop_assert!(covered(sig, &a), "Bidirectional misses a best answer {:?}", sig);
        }
    }

    /// The output bound of Section 4.5 is read off per-keyword heaps of
    /// distance snapshots, pushed only when a queued node's distance
    /// changes.  In a debug build the engine compares that bound with a
    /// plain scan of `Q_in` after every step (`check_frontier_bound`; the
    /// frontiers of these graphs are always small enough to be scanned), so
    /// a snapshot missed or wrongly kept alive anywhere fails here.
    #[cfg(debug_assertions)]
    #[test]
    fn frontier_bound_equals_a_scan_of_the_frontier((n, edges, keywords) in arb_instance()) {
        let graph = build(n, &edges);
        let matches = to_matches(&keywords);
        let prestige = PrestigeVector::uniform_for(&graph);
        for policy in [EmissionPolicy::ExactBound, EmissionPolicy::Heuristic, EmissionPolicy::Immediate] {
            for top_k in [1, 10_000] {
                let params = SearchParams::with_top_k(top_k).emission(policy);
                for engine in [
                    Box::new(BidirectionalSearch::new()) as Box<dyn SearchEngine>,
                    Box::new(SingleIteratorBackwardSearch::new()),
                ] {
                    let outcome = engine.search(&graph, &prestige, &matches, &params);
                    prop_assert!(outcome.answers.len() <= top_k);
                    prop_assert!(!outcome.stats.truncated);
                }
            }
        }
    }

    /// Output scores are consistent with recomputation from the graph.
    #[test]
    fn scores_match_recomputation((n, edges, keywords) in arb_instance()) {
        let graph = build(n, &edges);
        let matches = to_matches(&keywords);
        let prestige = PrestigeVector::uniform_for(&graph);
        let params = SearchParams::with_top_k(8);
        let model = params.score_model();

        let outcome = BidirectionalSearch::new().search(&graph, &prestige, &matches, &params);
        for answer in &outcome.answers {
            let rebuilt = AnswerTree::new(
                answer.tree.root,
                answer.tree.paths.clone(),
                &graph,
                &prestige,
                &model,
            );
            prop_assert!((rebuilt.score - answer.tree.score).abs() < 1e-9);
            prop_assert!((rebuilt.aggregate_edge_weight - answer.tree.aggregate_edge_weight).abs() < 1e-9);
        }
    }
}
