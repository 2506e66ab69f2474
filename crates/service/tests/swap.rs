//! Integration tests for online graph swapping.
//!
//! The contract under test: queries admitted before a swap — running *or
//! still queued* — finish on the snapshot they were pinned to at admission;
//! queries admitted after the swap resolve and execute against the new
//! version and find a cold cache (epoch-keyed, so stale hits are
//! structurally impossible).

use banks_core::{EmissionPolicy, SearchParams};
use banks_graph::{DataGraph, GraphBuilder};
use banks_service::{QuerySpec, Service};

/// A graph with `stars` copies of the `gray -> locks` answer pattern: the
/// query `gray locks` returns exactly `stars` answers, so two versions with
/// different `stars` are distinguishable from answers alone.
fn version(stars: usize) -> DataGraph {
    let mut b = GraphBuilder::new();
    for i in 0..stars {
        let a = b.add_node("author", format!("Jim Gray {i}"));
        let p = b.add_node("paper", format!("Granularity of locks {i}"));
        let w = b.add_node("writes", format!("w{i}"));
        b.add_edge(w, a).unwrap();
        b.add_edge(w, p).unwrap();
    }
    b.build_default()
}

fn spec() -> QuerySpec {
    QuerySpec::parse("gray locks").top_k(10)
}

#[test]
fn post_swap_queries_see_the_new_graph_and_a_cold_cache() {
    let service = Service::builder(version(1)).workers(2).build();
    let epoch_v1 = service.epoch();

    // Warm the cache on v1.
    let (out1, r1) = service.submit(spec()).expect("submit").wait();
    assert_eq!(out1.answers.len(), 1);
    assert_eq!(r1.epoch, epoch_v1);
    let (_, r1_again) = service.submit(spec()).expect("submit").wait();
    assert!(r1_again.cache_hit);
    assert_eq!(r1_again.epoch, epoch_v1);

    // Swap in v2 (two answer stars instead of one).
    let epoch_v2 = service.swap_graph(version(2));
    assert_ne!(epoch_v2, epoch_v1);
    assert_eq!(service.epoch(), epoch_v2);
    assert_eq!(service.snapshot().epoch(), epoch_v2);

    // The same keywords now resolve against v2: two answers, new epoch,
    // and — critically — no cache hit from the v1 entry.
    let (out2, r2) = service.submit(spec()).expect("submit").wait();
    assert!(!r2.cache_hit, "the new epoch must start cold");
    assert_eq!(r2.epoch, epoch_v2);
    assert_eq!(out2.answers.len(), 2);

    // v2 results cache under the v2 epoch as usual.
    let (_, r2_again) = service.submit(spec()).expect("submit").wait();
    assert!(r2_again.cache_hit);
    assert_eq!(r2_again.epoch, epoch_v2);

    let metrics = service.metrics();
    assert_eq!(metrics.swaps, 1);
    assert_eq!(metrics.epoch, epoch_v2);
    assert_eq!(metrics.executed, 2, "one real execution per version");
}

#[test]
fn queued_queries_finish_on_their_pinned_snapshot() {
    // One worker, parked on a blocker: the probe query sits in the
    // scheduler across the swap, and must still answer from v1.
    let n = 20_000;
    let mut b = GraphBuilder::new();
    for i in 0..n {
        let a = b.add_node("alpha", format!("alpha {i}"));
        let z = b.add_node("beta", format!("beta {i}"));
        let root = b.add_node("writes", format!("w{i}"));
        b.add_edge(root, a).unwrap();
        b.add_edge(root, z).unwrap();
    }
    let g = b.add_node("author", "Jim Gray");
    let p = b.add_node("paper", "Granularity of locks");
    let w = b.add_node("writes", "w");
    b.add_edge(w, g).unwrap();
    b.add_edge(w, p).unwrap();
    let v1 = b.build_default();

    let service = Service::builder(v1).workers(1).cache_capacity(0).build();
    let epoch_v1 = service.epoch();

    let blocker = service
        .submit(
            QuerySpec::keywords(["alpha", "beta"])
                .params(SearchParams::with_top_k(n + 10).emission(EmissionPolicy::Immediate)),
        )
        .expect("submit blocker");
    assert!(blocker.next_answer().is_some(), "worker parked on blocker");

    // Admitted (and resolved) under v1, then left waiting in the queue.
    let pinned = service.submit(spec()).expect("submit probe");

    // Swap to v2 while the probe is still queued.
    let epoch_v2 = service.swap_graph(version(2));
    assert_ne!(epoch_v2, epoch_v1);

    blocker.cancel();
    let (_, blocker_result) = blocker.wait();
    assert_eq!(blocker_result.epoch, epoch_v1);

    // The queued probe ran *after* the swap, but on its pinned v1
    // snapshot: one answer (v2 would give two), old epoch.
    let (pinned_outcome, pinned_result) = pinned.wait();
    assert_eq!(pinned_result.epoch, epoch_v1, "pinned to admission epoch");
    assert_eq!(pinned_outcome.answers.len(), 1, "answered from v1 data");

    // A fresh submission is admitted under v2.
    let (fresh_outcome, fresh_result) = service.submit(spec()).expect("submit").wait();
    assert_eq!(fresh_result.epoch, epoch_v2);
    assert_eq!(fresh_outcome.answers.len(), 2);
}

#[test]
fn swapping_a_clone_of_the_served_graph_still_changes_epoch() {
    let service = Service::builder(version(1)).workers(1).build();
    let before = service.epoch();
    let (_, first) = service.submit(spec()).expect("submit").wait();
    assert!(!first.cache_hit);

    // Same bytes, same epoch — the swap contract still promises a cold
    // cache, so the service must assign a fresh epoch itself.
    let clone = service.snapshot().graph().clone();
    assert_eq!(clone.epoch(), before);
    let after = service.swap_graph(clone);
    assert_ne!(after, before);
    assert_eq!(service.epoch(), after);

    let (_, second) = service.submit(spec()).expect("submit").wait();
    assert!(!second.cache_hit, "cold cache even for identical data");
    assert_eq!(second.epoch, after);
}

#[test]
fn swap_evicts_the_superseded_epoch_from_the_cache() {
    // The superseded epoch's entries are reclaimed eagerly.
    let service = Service::builder(version(1)).workers(1).build();
    let (_, r) = service.submit(spec()).expect("submit").wait();
    assert!(!r.cache_hit);
    assert_eq!(service.cache().len(), 1);
    service.swap_graph(version(2));
    assert_eq!(
        service.cache().len(),
        0,
        "the cache must drop the dead epoch's entries"
    );
}

#[test]
fn pinned_queries_completing_after_a_swap_do_not_repopulate_a_private_cache() {
    // One worker parked on a blocker; a probe queued behind it is pinned
    // to v1 and completes only after the swap evicted v1 from the private
    // cache.  Its outcome must not be re-inserted: the entry could never
    // be hit again (all future lookups carry newer epochs) and would only
    // waste a slot.
    let n = 20_000;
    let mut b = GraphBuilder::new();
    for i in 0..n {
        let a = b.add_node("alpha", format!("alpha {i}"));
        let z = b.add_node("beta", format!("beta {i}"));
        let root = b.add_node("writes", format!("w{i}"));
        b.add_edge(root, a).unwrap();
        b.add_edge(root, z).unwrap();
    }
    let g = b.add_node("author", "Jim Gray");
    let p = b.add_node("paper", "Granularity of locks");
    let w = b.add_node("writes", "w");
    b.add_edge(w, g).unwrap();
    b.add_edge(w, p).unwrap();

    let service = Service::builder(b.build_default())
        .workers(1)
        .cache_capacity(64)
        .build();

    let blocker = service
        .submit(
            QuerySpec::keywords(["alpha", "beta"])
                .params(SearchParams::with_top_k(n + 10).emission(EmissionPolicy::Immediate)),
        )
        .expect("submit blocker");
    assert!(blocker.next_answer().is_some(), "worker parked on blocker");

    let pinned = service.submit(spec()).expect("submit probe");
    service.swap_graph(version(2));
    assert!(service.cache().is_empty(), "swap evicted the old epoch");

    blocker.cancel();
    let (_, _) = blocker.wait();
    let (_, pinned_result) = pinned.wait();
    assert!(!pinned_result.stats.cancelled);
    assert!(
        service.cache().is_empty(),
        "a stale-epoch outcome must not occupy a private cache slot"
    );

    // Current-epoch outcomes still cache normally.
    let (_, fresh) = service.submit(spec()).expect("submit").wait();
    assert!(!fresh.cache_hit);
    assert_eq!(service.cache().len(), 1);
}

#[test]
fn old_snapshot_stays_usable_for_holders_across_a_swap() {
    let service = Service::builder(version(1)).workers(1).build();
    let held = service.snapshot();
    let epoch_v1 = held.epoch();
    service.swap_graph(version(3));
    // The Arc taken before the swap still points at intact v1 state.
    assert_eq!(held.epoch(), epoch_v1);
    assert_eq!(held.graph().num_nodes(), 3);
    assert!(!held.index().matching_nodes(held.graph(), "gray").is_empty());
    assert_eq!(service.snapshot().graph().num_nodes(), 9);
}
