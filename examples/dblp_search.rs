//! Keyword search over a synthetic DBLP-scale bibliography.
//!
//! ```text
//! cargo run --release --example dblp_search
//! ```
//!
//! Generates a DBLP-like dataset (authors, papers, conferences, citations),
//! computes biased-PageRank node prestige, and answers a mixed-frequency
//! query (two rare author names plus the ubiquitous `database` term) with
//! all three engines, printing the paper's metrics for each.

use banks::prelude::*;

fn main() {
    let config = DblpConfig {
        num_authors: 2_000,
        num_papers: 4_000,
        seed: 2026,
        ..DblpConfig::default()
    };
    println!(
        "generating synthetic DBLP dataset ({} papers)...",
        config.num_papers
    );
    let data = DblpDataset::generate(config);
    let graph = data.dataset.graph();
    let stats = GraphStats::compute(graph);
    print!("{}", stats.report(graph));

    println!("computing node prestige (biased PageRank)...");
    let (prestige, pr_stats) = compute_pagerank(graph);
    println!(
        "  converged after {} iterations (delta {:.2e})",
        pr_stats.iterations, pr_stats.final_delta
    );

    // Build a query the way the paper does: two author names from a
    // co-authored paper plus the most frequent title word.
    let mut workload = WorkloadGenerator::new(&data, 99);
    let config = WorkloadConfig {
        num_queries: 1,
        num_keywords: 3,
        origin_bias: banks::datagen::workload::OriginBias::Frequent,
        ..WorkloadConfig::default()
    };
    let case = workload
        .generate(&config)
        .into_iter()
        .next()
        .expect("workload query");
    println!("\nquery: {}", case.query());
    println!("origin sizes: {:?}", case.origin_sizes);

    // The facade owns keyword resolution (against the dataset's index) and
    // prestige; engines are selected by registry name.
    let banks = Banks::open(graph)
        .with_prestige(prestige)
        .with_index(data.dataset.index().clone());

    println!(
        "\n{:<16} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "engine", "explored", "touched", "answers", "recall", "time"
    );
    let ground_truth = GroundTruth::from_sets(case.relevant.clone());
    for engine in ["bidirectional", "si-backward", "mi-backward"] {
        let outcome = banks
            .query_parsed(&case.query())
            .engine(engine)
            .top_k(10)
            .run();
        let rp = ground_truth.evaluate(&outcome);
        println!(
            "{:<16} {:>9} {:>9} {:>9} {:>9.0}% {:>7.1?}",
            engine,
            outcome.stats.nodes_explored,
            outcome.stats.nodes_touched,
            outcome.answers.len(),
            rp.recall * 100.0,
            outcome.stats.duration
        );
    }

    // Stream the winning engine: answers surface incrementally, long before
    // the search would have finished.
    println!("\ntop answers (Bidirectional, streamed):");
    let session = banks.query_parsed(&case.query()).top_k(10);
    let mut stream = session.stream();
    while let Some(answer) = stream.next() {
        println!(
            "  #{} score {:.5} root [{}] {} (explored {} so far)",
            answer.rank + 1,
            answer.tree.score,
            graph.node_kind_name(answer.tree.root),
            graph.node_label(answer.tree.root),
            stream.stats().nodes_explored
        );
        if answer.rank + 1 >= 3 {
            break; // early termination: the rest of the search never runs
        }
    }
}
