//! Cross-engine consistency on generated DBLP workloads: all three search
//! algorithms must report the same relevant answers (the paper: "In all
//! cases we found that Bidirectional, SI-Backward and MI-Backward return the
//! same sets of relevant answers"), and every returned answer tree must be
//! structurally valid.

use banks::prelude::*;

fn dataset() -> DblpDataset {
    DblpDataset::generate(DblpConfig {
        num_authors: 200,
        num_papers: 400,
        num_conferences: 6,
        seed: 123,
        ..DblpConfig::default()
    })
}

fn workload(data: &DblpDataset, num_keywords: usize, num_queries: usize) -> Vec<QueryCase> {
    let mut generator = WorkloadGenerator::new(data, 1000 + num_keywords as u64);
    generator.generate(&WorkloadConfig {
        num_queries,
        num_keywords,
        ..WorkloadConfig::default()
    })
}

#[test]
fn every_engine_reaches_full_recall_on_planted_answers() {
    let data = dataset();
    let graph = data.dataset.graph();
    let (prestige, _) = compute_pagerank(graph);
    let cases = workload(&data, 2, 6);
    assert!(!cases.is_empty());

    for case in &cases {
        let matches = KeywordMatches::resolve(graph, data.dataset.index(), &case.query());
        let ground_truth = GroundTruth::from_sets(case.relevant.clone());
        // The paper examines the top 20-30 results per query; because output
        // ordering is only approximate (Section 4.5), we give the engines a
        // generous output budget so every relevant answer can surface.
        let params = SearchParams::with_top_k(1_000);
        for engine in [
            Box::new(BidirectionalSearch::new()) as Box<dyn SearchEngine>,
            Box::new(SingleIteratorBackwardSearch::new()),
            Box::new(BackwardExpandingSearch::new()),
        ] {
            let outcome = engine.search(graph, &prestige, &matches, &params);
            let rp = ground_truth.evaluate(&outcome);
            assert!(
                (rp.recall - 1.0).abs() < 1e-9,
                "{} recall {:.2} on query {:?} (found {}/{})",
                engine.name(),
                rp.recall,
                case.keywords,
                rp.relevant_found,
                rp.relevant_total
            );
        }
    }
}

#[test]
fn answer_trees_are_structurally_valid() {
    let data = dataset();
    let graph = data.dataset.graph();
    let (prestige, _) = compute_pagerank(graph);
    let cases = workload(&data, 3, 4);

    for case in &cases {
        let matches = KeywordMatches::resolve(graph, data.dataset.index(), &case.query());
        let origin_sets: Vec<Vec<NodeId>> = (0..matches.num_keywords())
            .map(|i| matches.origin_set(i).to_vec())
            .collect();
        let params = SearchParams::with_top_k(10);
        for engine in [
            Box::new(BidirectionalSearch::new()) as Box<dyn SearchEngine>,
            Box::new(SingleIteratorBackwardSearch::new()),
            Box::new(BackwardExpandingSearch::new()),
        ] {
            let outcome = engine.search(graph, &prestige, &matches, &params);
            for answer in &outcome.answers {
                answer
                    .tree
                    .validate(graph, &origin_sets, params.dmax)
                    .unwrap_or_else(|e| panic!("{}: invalid answer tree: {e}", engine.name()));
                assert!(
                    answer.tree.is_minimal(),
                    "{}: non-minimal answer emitted",
                    engine.name()
                );
                assert!(answer.tree.score > 0.0);
                assert!(answer.timing.generated_at <= answer.timing.output_at);
            }
            // answers are unique by signature
            let mut signatures = outcome.signatures();
            let before = signatures.len();
            signatures.sort();
            signatures.dedup();
            assert_eq!(
                before,
                signatures.len(),
                "{} emitted duplicate answers",
                engine.name()
            );
        }
    }
}

#[test]
fn bidirectional_never_does_dramatically_more_work() {
    // Across a small mixed workload Bidirectional should on average explore
    // no more nodes than SI-Backward (individual queries may go either way —
    // the paper's own "C. Mohan Rothermel" anomaly).
    let data = dataset();
    let graph = data.dataset.graph();
    let (prestige, _) = compute_pagerank(graph);
    let cases = workload(&data, 3, 6);

    let mut total_bidir = 0usize;
    let mut total_si = 0usize;
    for case in &cases {
        let matches = KeywordMatches::resolve(graph, data.dataset.index(), &case.query());
        let params = SearchParams::with_top_k(5);
        total_bidir += BidirectionalSearch::new()
            .search(graph, &prestige, &matches, &params)
            .stats
            .nodes_explored;
        total_si += SingleIteratorBackwardSearch::new()
            .search(graph, &prestige, &matches, &params)
            .stats
            .nodes_explored;
    }
    assert!(
        total_bidir <= total_si * 2,
        "bidirectional explored {total_bidir} vs SI-backward {total_si}"
    );
}

#[test]
fn sparse_oracle_and_graph_search_agree() {
    // Every Sparse result (relational join) corresponds to an answer the
    // graph engines can find, and vice versa for the best answers.
    let data = dataset();
    let graph = data.dataset.graph();
    let (prestige, _) = compute_pagerank(graph);
    let cases = workload(&data, 2, 3);

    for case in &cases {
        let keywords: Vec<&str> = case.keywords.iter().map(String::as_str).collect();
        let sparse = SparseSearch::with_max_size(case.answer_size).run(&data.dataset.db, &keywords);
        let matches = KeywordMatches::resolve(graph, data.dataset.index(), &case.query());
        let outcome = BidirectionalSearch::new().search(
            graph,
            &prestige,
            &matches,
            &SearchParams::with_top_k(sparse.results.len() + 20),
        );
        let answer_nodes: Vec<Vec<NodeId>> =
            outcome.answers.iter().map(|a| a.tree.nodes()).collect();
        for result in &sparse.results {
            let nodes: Vec<NodeId> = result
                .distinct_tuples()
                .into_iter()
                .map(|t| data.dataset.extraction.node_of(t))
                .collect();
            let covered = answer_nodes
                .iter()
                .any(|answer| nodes.iter().all(|n| answer.contains(n)));
            assert!(
                covered,
                "Sparse result {:?} not covered by any graph answer for query {:?}",
                nodes, case.keywords
            );
        }
    }
}
