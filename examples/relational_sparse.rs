//! Relational integration: graph extraction and the Sparse baseline.
//!
//! ```text
//! cargo run --release --example relational_sparse
//! ```
//!
//! Shows the other half of the paper's pipeline: a relational database is
//! extracted into a data graph, and the same keyword query is answered both
//! by the Sparse candidate-network algorithm (relational joins) and by
//! Bidirectional search over the extracted graph, reproducing the
//! `Sparse-LB` comparison of Figure 5.

use banks::prelude::*;

fn main() {
    let data = DblpDataset::generate(DblpConfig {
        num_papers: 2_000,
        num_authors: 1_200,
        seed: 5,
        ..DblpConfig::default()
    });
    let db = &data.dataset.db;
    let graph = data.dataset.graph();
    println!(
        "relational database: {} tables, {} tuples -> graph with {} nodes / {} edges",
        db.schema().num_tables(),
        db.total_rows(),
        graph.num_nodes(),
        graph.num_directed_edges()
    );

    // A query with one rare keyword (an author) and one selective title word
    // from one of their papers, like DQ1/DQ3 in the paper.
    let mut workload = WorkloadGenerator::new(&data, 31);
    let case = workload
        .generate(&WorkloadConfig {
            num_queries: 1,
            num_keywords: 2,
            ..WorkloadConfig::default()
        })
        .into_iter()
        .next()
        .expect("query");
    println!("\nquery: {}", case.query());
    println!(
        "relevant answers (relational oracle): {}",
        case.relevant.len()
    );

    // --- Sparse baseline over the relational database --------------------
    let keywords: Vec<&str> = case.keywords.iter().map(String::as_str).collect();
    let sparse = SparseSearch::with_max_size(case.answer_size);
    let sparse_outcome = sparse.run(db, &keywords);
    println!(
        "\nSparse: {} candidate networks, {} results, {:.1?}",
        sparse_outcome.num_candidate_networks,
        sparse_outcome.results.len(),
        sparse_outcome.duration
    );
    for result in sparse_outcome.results.iter().take(3) {
        let tables: Vec<&str> = result
            .tuples
            .iter()
            .map(|t| db.schema().table(t.table).name.as_str())
            .collect();
        println!(
            "  CN#{} size {}: {}",
            result.candidate_network,
            result.size,
            tables.join(" - ")
        );
    }

    // --- Bidirectional search over the extracted graph -------------------
    let (prestige, _) = compute_pagerank(graph);
    let banks = Banks::open(graph)
        .with_prestige(prestige)
        .with_index(data.dataset.index().clone());
    let outcome = banks.query_parsed(&case.query()).top_k(10).run();
    println!(
        "\nBidirectional: explored {} nodes, {} answers, {:.1?}",
        outcome.stats.nodes_explored,
        outcome.answers.len(),
        outcome.stats.duration
    );

    let ground_truth = GroundTruth::from_sets(case.relevant.clone());
    let rp = ground_truth.evaluate(&outcome);
    println!(
        "recall {:.0}%  precision {:.0}%  (relevant answers found: {}/{})",
        rp.recall * 100.0,
        rp.precision * 100.0,
        rp.relevant_found,
        rp.relevant_total
    );

    // Cross-check: both sides agree on the connecting tuples.
    if let (Some(sparse_best), Some(graph_best)) =
        (sparse_outcome.results.first(), outcome.answers.first())
    {
        let sparse_nodes: Vec<NodeId> = sparse_best
            .distinct_tuples()
            .into_iter()
            .map(|t| data.dataset.extraction.node_of(t))
            .collect();
        let graph_nodes = graph_best.tree.nodes();
        let agree = sparse_nodes.iter().all(|n| graph_nodes.contains(n));
        println!("best Sparse result covered by best graph answer: {agree}");
    }
}
