//! Integration tests for the mutation-first update path:
//! [`Service::apply_mutations`] end-to-end (epoch advance, index/prestige
//! deltas, cache behaviour), mutations landing under live query load, and
//! the configured / cost-weighted quota variants.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use banks_graph::{DataGraph, GraphBuilder, MutationBatch, NodeId};
use banks_service::{QuerySpec, Service, SubmitError};

fn tiny() -> DataGraph {
    let mut b = GraphBuilder::new();
    let a = b.add_node("author", "Jim Gray");
    let p = b.add_node("paper", "Granularity of locks");
    let w = b.add_node("writes", "w0");
    b.add_edge(w, a).unwrap();
    b.add_edge(w, p).unwrap();
    b.build_default()
}

/// A bigger corpus for the under-load test: `chains` three-node
/// author–writes–paper clusters sharing a conference hub.
fn corpus(chains: usize) -> DataGraph {
    let mut b = GraphBuilder::new();
    let conf = b.add_node("conference", "VLDB");
    for i in 0..chains {
        let a = b.add_node("author", format!("author{i} keyword"));
        let p = b.add_node("paper", format!("paper{i} search"));
        let w = b.add_node("writes", format!("w{i}"));
        b.add_edge(w, a).unwrap();
        b.add_edge(w, p).unwrap();
        b.add_edge(p, conf).unwrap();
    }
    b.build_default()
}

#[test]
fn apply_mutations_advances_epoch_and_serves_new_data() {
    let service = Service::builder(tiny()).workers(2).build();
    let epoch0 = service.epoch();

    // Warm the cache with the original query.
    let (outcome, result) = service
        .submit(QuerySpec::parse("gray locks"))
        .unwrap()
        .wait();
    assert_eq!(outcome.answers.len(), 1);
    assert!(!result.cache_hit);
    let (_, result) = service
        .submit(QuerySpec::parse("gray locks"))
        .unwrap()
        .wait();
    assert!(result.cache_hit, "second ask hits the cache");

    // Mutate: a new paper by Gray, plus a relabel.
    let batch = MutationBatch::new()
        .add_node("paper", "Transaction recovery")
        .add_node("writes", "w1")
        .add_edge(NodeId(4), NodeId(0))
        .add_edge(NodeId(4), NodeId(3))
        .set_label(NodeId(1), "Granularity of locking");
    let report = service.apply_mutations(&batch);
    assert!(report.swapped);
    assert_eq!(report.previous_epoch, epoch0);
    assert_ne!(report.epoch, epoch0);
    assert_eq!(report.outcome.accepted(), 5);
    assert_eq!(service.epoch(), report.epoch);

    // The new node's text is searchable through the delta'd index.
    let (outcome, result) = service
        .submit(QuerySpec::parse("gray recovery"))
        .unwrap()
        .wait();
    assert_eq!(result.epoch, report.epoch);
    assert_eq!(outcome.answers.len(), 1);
    assert_eq!(outcome.answers[0].tree.root, NodeId(4));

    // The old cached entry is keyed to the dead epoch: same query misses,
    // and the relabel is visible.
    let (_, result) = service
        .submit(QuerySpec::parse("gray locking"))
        .unwrap()
        .wait();
    assert!(!result.cache_hit, "new epoch starts cold");

    let metrics = service.metrics();
    assert_eq!(metrics.mutation_batches, 1);
    assert_eq!(metrics.mutation_ops_accepted, 5);
    assert_eq!(metrics.mutation_ops_rejected, 0);
    assert_eq!(metrics.swaps, 1, "a mutation batch is a swap");
}

#[test]
fn fully_rejected_batches_swap_nothing() {
    let service = Service::builder(tiny()).workers(1).build();
    let epoch0 = service.epoch();
    let batch = MutationBatch::new()
        .remove_edge(NodeId(0), NodeId(1)) // no such forward edge
        .add_edge(NodeId(0), NodeId(99)); // out of bounds
    let report = service.apply_mutations(&batch);
    assert!(!report.swapped);
    assert_eq!(report.epoch, epoch0);
    assert_eq!(report.outcome.accepted(), 0);
    assert_eq!(report.outcome.rejected(), 2);
    assert_eq!(service.epoch(), epoch0, "serving snapshot untouched");
    let metrics = service.metrics();
    assert_eq!(metrics.mutation_batches, 0);
    assert_eq!(metrics.mutation_ops_rejected, 2);
    assert_eq!(metrics.swaps, 0);
}

/// Queries stream concurrently while mutation batches land: every query
/// completes, every reported epoch is a real serving epoch, and data added
/// mid-flight becomes searchable.
#[test]
fn mutations_land_under_live_query_load() {
    let chains = 60;
    let service = Arc::new(
        Service::builder(corpus(chains))
            .workers(4)
            .queue_capacity(512)
            .cache_capacity(64)
            .build(),
    );
    let stop = Arc::new(AtomicBool::new(false));

    let mut query_threads = Vec::new();
    for t in 0..3 {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        query_threads.push(std::thread::spawn(move || {
            let mut completed = 0usize;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let q = match i % 3 {
                    0 => format!("author{} keyword", (i * 7 + t) % chains),
                    1 => format!("paper{} search", (i * 5 + t) % chains),
                    _ => "keyword search".to_string(),
                };
                match service.submit(QuerySpec::parse(&q).top_k(3)) {
                    Ok(handle) => {
                        let (_, result) = handle.wait();
                        assert!(result.epoch > 0);
                        completed += 1;
                    }
                    Err(SubmitError::QueueFull { .. }) => {
                        std::thread::sleep(Duration::from_millis(1))
                    }
                    Err(other) => panic!("unexpected submit error: {other}"),
                }
                i += 1;
            }
            completed
        }));
    }

    // Land a stream of batches while the queries fly.
    let mut epochs = vec![service.epoch()];
    let base_nodes = service.snapshot().graph().num_nodes() as u32;
    for (round, new_node) in (base_nodes..base_nodes + 8).enumerate() {
        let batch = MutationBatch::new()
            .add_node("paper", format!("fresh{round} mutation"))
            .add_edge(NodeId(new_node), NodeId(0))
            .set_label(NodeId(1), format!("author0 keyword r{round}"));
        let report = service.apply_mutations(&batch);
        assert!(report.swapped, "round {round} must accept");
        assert_eq!(report.outcome.accepted(), 3);
        epochs.push(report.epoch);
        std::thread::sleep(Duration::from_millis(10));
    }

    stop.store(true, Ordering::Relaxed);
    let mut total = 0usize;
    for thread in query_threads {
        total += thread.join().expect("query thread");
    }
    assert!(total > 0, "queries must have completed under mutation load");

    // Post-mutation data is fully searchable.
    let (outcome, result) = service
        .submit(QuerySpec::parse("\"fresh7 mutation\""))
        .unwrap()
        .wait();
    assert_eq!(outcome.answers.len(), 1);
    assert_eq!(result.epoch, *epochs.last().unwrap());

    let metrics = service.metrics();
    assert_eq!(metrics.mutation_batches, 8);
    assert_eq!(metrics.epoch, *epochs.last().unwrap());
    // every epoch in the sequence was distinct
    let mut unique = epochs.clone();
    unique.dedup();
    assert_eq!(unique.len(), epochs.len());
}

/// Long mutation chains must not accumulate overlay indirection forever:
/// once enough rows are overlaid, `apply_mutations` flattens the successor
/// (same epoch, same contents) before swapping it in.
#[test]
fn apply_mutations_compacts_long_overlay_chains() {
    let service = Service::builder(tiny()).workers(1).build();
    // touching 2 of 3 nodes overlays >25% of the rows: the swapped-in
    // snapshot must already be flattened
    let report = service.apply_mutations(&MutationBatch::new().add_edge(NodeId(0), NodeId(1)));
    assert!(report.swapped);
    let snap = service.snapshot();
    assert!(
        !snap.graph().has_overlay(),
        "successor past the overlay threshold must be compacted"
    );
    assert_eq!(snap.epoch(), report.epoch, "compaction keeps the epoch");
    // contents survived the flattening: the new edge answers queries
    let (outcome, result) = service
        .submit(QuerySpec::parse("gray locks"))
        .unwrap()
        .wait();
    assert!(!outcome.answers.is_empty());
    assert_eq!(result.epoch, report.epoch);

    // many chained batches never leave the graph above the threshold
    for i in 0..10u32 {
        let n = service.snapshot().graph().num_nodes() as u32;
        let report = service.apply_mutations(
            &MutationBatch::new()
                .add_node("paper", format!("chain paper {i}"))
                .add_edge(NodeId(n), NodeId(0)),
        );
        assert!(report.swapped);
    }
    assert!(service.snapshot().graph().overlay_ratio() <= 0.25);
}
