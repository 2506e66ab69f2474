//! Keyword search over a synthetic IMDB-like movie graph.
//!
//! ```text
//! cargo run --release --example imdb_search
//! ```
//!
//! Mirrors the paper's IQ1 query ("Keanu Matrix Thomas"): a rare actor name,
//! a movie title word and a frequent character name.  The example picks an
//! actor from the generated data, one of their movies and a title word, then
//! compares Bidirectional search against SI-Backward.

use banks::prelude::*;
use banks::relational::TupleId;

fn main() {
    let config = ImdbConfig {
        num_persons: 3_000,
        num_movies: 2_500,
        seed: 7,
        ..ImdbConfig::default()
    };
    println!(
        "generating synthetic IMDB dataset ({} movies)...",
        config.num_movies
    );
    let data = ImdbDataset::generate(config);
    let graph = data.dataset.graph();
    println!(
        "graph: {} nodes, {} directed edges",
        graph.num_nodes(),
        graph.num_directed_edges()
    );

    let (prestige, _) = compute_pagerank(graph);

    // Build an IQ1-style query: an actor who appears in a movie, one word of
    // that movie's title, and the relation name "movie" as the frequent term.
    let db = &data.dataset.db;
    let casts_row = 0u32;
    let actor_row = db.referenced_row(data.casts, casts_row, 1).expect("actor");
    let movie_row = db.referenced_row(data.casts, casts_row, 2).expect("movie");
    let actor_name = db.row_text(data.person, actor_row).to_lowercase();
    let title_word = db
        .row_text(data.movie, movie_row)
        .to_lowercase()
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();
    let query_text = format!("\"{actor_name}\" {title_word} movie");
    let query = Query::parse(&query_text);
    println!("\nquery: {query}");

    let banks = Banks::open(graph)
        .with_prestige(prestige)
        .with_index(data.dataset.index().clone());
    let session = banks.query_parsed(&query).top_k(5);
    println!("origin sizes: {:?}", session.matches().origin_sizes());

    for engine in ["bidirectional", "si-backward"] {
        let outcome = banks.query_parsed(&query).engine(engine).top_k(5).run();
        println!(
            "{:<16} explored {:>7} touched {:>7} answers {:>2} time {:.1?}",
            engine,
            outcome.stats.nodes_explored,
            outcome.stats.nodes_touched,
            outcome.answers.len(),
            outcome.stats.duration
        );
    }

    let outcome = session.run();
    println!("\ntop answers (Bidirectional):");
    for answer in outcome.answers.iter().take(3) {
        let tree = &answer.tree;
        println!(
            "  #{} score {:.5} root [{}] {}",
            answer.rank + 1,
            tree.score,
            graph.node_kind_name(tree.root),
            graph.node_label(tree.root)
        );
    }

    // Sanity: the expected movie connects the actor and the title word.
    let expected_movie = data
        .dataset
        .extraction
        .node_of(TupleId::new(data.movie, movie_row));
    let found = outcome
        .answers
        .iter()
        .any(|a| a.tree.nodes().contains(&expected_movie));
    println!("\nexpected movie node {expected_movie} present in some answer: {found}");
}
