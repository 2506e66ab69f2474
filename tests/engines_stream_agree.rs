//! Streaming/batch consistency: for every engine, draining the
//! [`AnswerStream`] must reproduce the legacy batch `search()` results
//! exactly (same signatures, same order), and lazy consumption must do no
//! more work than a full drain.

use banks::prelude::*;

fn dataset() -> DblpDataset {
    DblpDataset::generate(DblpConfig {
        num_authors: 150,
        num_papers: 300,
        num_conferences: 5,
        seed: 321,
        ..DblpConfig::default()
    })
}

fn engine_names() -> Vec<&'static str> {
    vec!["bidirectional", "si-backward", "mi-backward"]
}

#[test]
fn engines_stream_agree_with_batch() {
    let data = dataset();
    let graph = data.dataset.graph();
    let (prestige, _) = compute_pagerank(graph);
    let mut generator = WorkloadGenerator::new(&data, 77);
    let cases = generator.generate(&WorkloadConfig {
        num_queries: 4,
        num_keywords: 2,
        ..WorkloadConfig::default()
    });
    assert!(!cases.is_empty());

    let registry = EngineRegistry::with_default_engines();
    for case in &cases {
        let matches = KeywordMatches::resolve(graph, data.dataset.index(), &case.query());
        let params = SearchParams::with_top_k(25);
        for name in engine_names() {
            let engine = registry.create(name).expect("registered engine");

            let batch = engine.search(graph, &prestige, &matches, &params);

            let stream = engine.start(QueryContext::new(graph, &prestige, &matches, params));
            let streamed = drain(stream);

            assert_eq!(
                batch.signatures(),
                streamed.signatures(),
                "{name}: stream drain differs from batch on query {:?}",
                case.keywords
            );
            let batch_ranks: Vec<usize> = batch.answers.iter().map(|a| a.rank).collect();
            let stream_ranks: Vec<usize> = streamed.answers.iter().map(|a| a.rank).collect();
            assert_eq!(batch_ranks, stream_ranks, "{name}: ranks differ");
            assert_eq!(
                batch.stats.answers_output, streamed.stats.answers_output,
                "{name}: output counts differ"
            );
        }
    }
}

#[test]
fn take_one_explores_no_more_nodes_than_full_drain() {
    let data = dataset();
    let graph = data.dataset.graph();
    let (prestige, _) = compute_pagerank(graph);
    let mut generator = WorkloadGenerator::new(&data, 78);
    let cases = generator.generate(&WorkloadConfig {
        num_queries: 3,
        num_keywords: 3,
        ..WorkloadConfig::default()
    });

    let registry = EngineRegistry::with_default_engines();
    for case in &cases {
        let matches = KeywordMatches::resolve(graph, data.dataset.index(), &case.query());
        let params = SearchParams::with_top_k(25);
        for name in engine_names() {
            let engine = registry.create(name).expect("registered engine");

            let mut stream = engine.start(QueryContext::new(graph, &prestige, &matches, params));
            let first = stream.next();
            let explored_after_first = stream.stats().nodes_explored;
            drop(stream);

            let full = engine.search(graph, &prestige, &matches, &params);
            assert_eq!(
                first.is_some(),
                !full.answers.is_empty(),
                "{name}: stream and batch disagree on answer existence"
            );
            assert!(
                explored_after_first <= full.stats.nodes_explored,
                "{name}: take(1) explored {} nodes, full drain only {}",
                explored_after_first,
                full.stats.nodes_explored
            );
        }
    }
}

/// The acceptance bar for the bidirectional engine is strict: one `next()`
/// on a multi-keyword query must explore *strictly fewer* nodes than a
/// full drain.
#[test]
fn bidirectional_single_next_is_strictly_lazier() {
    let example = figure4_example(100, 48);
    let prestige = PrestigeVector::uniform_for(&example.graph);
    let params = SearchParams::with_top_k(10).emission(EmissionPolicy::Immediate);
    let engine = BidirectionalSearch::new();

    let mut stream = engine.start(QueryContext::new(
        &example.graph,
        &prestige,
        &example.matches,
        params,
    ));
    let first = stream.next().expect("the planted answer exists");
    assert!(first.tree.nodes().contains(&example.target_paper) || first.tree.score > 0.0);
    let explored_after_first = stream.stats().nodes_explored;
    assert!(!stream.is_exhausted());

    let full = engine.search(&example.graph, &prestige, &example.matches, &params);
    assert!(
        explored_after_first < full.stats.nodes_explored,
        "one next() explored {} nodes, full drain {}",
        explored_after_first,
        full.stats.nodes_explored
    );
}

#[test]
fn facade_builder_matches_manual_wiring() {
    let data = dataset();
    let graph = data.dataset.graph();
    let (prestige, _) = compute_pagerank(graph);
    let mut generator = WorkloadGenerator::new(&data, 79);
    let case = generator
        .generate(&WorkloadConfig {
            num_queries: 1,
            num_keywords: 2,
            ..WorkloadConfig::default()
        })
        .into_iter()
        .next()
        .expect("workload query");

    // Manual wiring (legacy style).
    let matches = KeywordMatches::resolve(graph, data.dataset.index(), &case.query());
    let params = SearchParams::with_top_k(15);
    let manual = BidirectionalSearch::new().search(graph, &prestige, &matches, &params);

    // The builder facade.
    let banks = Banks::open(graph)
        .with_prestige(prestige)
        .with_index(data.dataset.index().clone());
    let facade = banks.query_parsed(&case.query()).top_k(15).run();

    assert_eq!(manual.signatures(), facade.signatures());
}

#[test]
fn work_budget_streams_terminate() {
    let data = dataset();
    let graph = data.dataset.graph();
    let banks = Banks::open(graph).with_index(data.dataset.index().clone());
    let mut generator = WorkloadGenerator::new(&data, 80);
    let case = generator
        .generate(&WorkloadConfig {
            num_queries: 1,
            num_keywords: 2,
            ..WorkloadConfig::default()
        })
        .into_iter()
        .next()
        .expect("workload query");

    let session = banks
        .query_parsed(&case.query())
        .params(SearchParams::with_top_k(1000).answer_work_budget(0));
    let mut stream = session.stream();
    let mut count = 0usize;
    while stream.next().is_some() {
        count += 1;
        assert!(count < 10_000, "budgeted stream failed to terminate");
    }
    assert!(stream.is_exhausted());
    assert!(
        stream.stats().truncated,
        "exhausted work budget must mark truncation"
    );
}
