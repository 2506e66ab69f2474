//! Integration tests for the priority scheduler.
//!
//! The exact pop order of the scheduler is proved deterministically by the
//! unit tests in `src/sched.rs` (pure push/pop sequences, no threads).
//! These tests drive the full service instead: one worker is parked on a
//! long-running blocker query so subsequent submissions pile up in the
//! scheduler, then the blocker is released and the recorded
//! [`QueryResult::queue_wait`] values reveal the order the worker picked
//! the queued jobs up in.

use banks_core::{EmissionPolicy, SearchParams};
use banks_graph::{DataGraph, GraphBuilder};
use banks_service::{Priority, QueryResult, QuerySpec, Service};

/// A wide forest of `root -> {alpha, beta}` stars (expensive to exhaust)
/// plus a single `root -> {gamma, delta}` star (cheap to answer).
fn forest(n: usize) -> DataGraph {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        let a = b.add_node("alpha", format!("alpha {i}"));
        let z = b.add_node("beta", format!("beta {i}"));
        let root = b.add_node("writes", format!("w{i}"));
        b.add_edge(root, a).unwrap();
        b.add_edge(root, z).unwrap();
    }
    let g = b.add_node("gamma", "gamma solo");
    let d = b.add_node("delta", "delta solo");
    let root = b.add_node("writes", "gd");
    b.add_edge(root, g).unwrap();
    b.add_edge(root, d).unwrap();
    b.build_default()
}

/// The blocker: exhaustive scan over every star — a worker that picks this
/// up is busy until cancelled.
fn expensive_spec(n: usize) -> QuerySpec {
    QuerySpec::keywords(["alpha", "beta"])
        .params(SearchParams::with_top_k(n + 10).emission(EmissionPolicy::Immediate))
}

/// Two origin nodes, one answer: the estimator prices this near zero.
fn cheap_spec() -> QuerySpec {
    QuerySpec::keywords(["gamma", "delta"]).top_k(1)
}

/// Parks the single worker on a blocker and returns its handle once the
/// worker has demonstrably picked it up (first answer received) — every
/// submission after this point queues in the scheduler.
fn park_worker(service: &Service, n: usize) -> banks_service::QueryHandle {
    let blocker = service.submit(expensive_spec(n)).expect("submit blocker");
    let first = blocker.next_answer();
    assert!(first.is_some(), "blocker must stream at least one answer");
    blocker
}

#[test]
fn cheap_query_admitted_behind_expensive_one_completes_first() {
    let n = 20_000;
    let service = Service::builder(forest(n))
        .workers(1)
        .queue_capacity(256)
        .cache_capacity(0)
        .build();
    let blocker = park_worker(&service, n);

    // FIFO would run these in submission order; the scheduler must not.
    let expensive = service.submit(expensive_spec(n)).expect("submit");
    let cheap = service.submit(cheap_spec()).expect("submit");
    assert_eq!(service.metrics().queued, 2);

    // Cancel the queued expensive query now: when the worker eventually
    // pops it, it aborts within one step — queue_wait is still recorded at
    // pickup, which is all this test needs.
    expensive.cancel();
    blocker.cancel();
    let (_, _) = blocker.wait();

    let (cheap_outcome, cheap_result) = cheap.wait();
    let (_, expensive_result) = expensive.wait();
    assert_eq!(cheap_outcome.answers.len(), 1);
    assert!(!cheap_result.stats.cancelled);
    assert!(
        cheap_result.queue_wait < expensive_result.queue_wait,
        "the worker must pick the cheap query up first \
         (cheap waited {:?}, expensive waited {:?})",
        cheap_result.queue_wait,
        expensive_result.queue_wait
    );
}

#[test]
fn interactive_priority_overtakes_normal_at_equal_cost() {
    let n = 20_000;
    let service = Service::builder(forest(n))
        .workers(1)
        .queue_capacity(256)
        .cache_capacity(0)
        .build();
    let blocker = park_worker(&service, n);

    // Identical queries, identical estimates — the later submission wins
    // purely on its priority class (charged a quarter of the estimate).
    let normal = service.submit(cheap_spec()).expect("submit");
    let interactive = service
        .submit(cheap_spec().priority(Priority::Interactive))
        .expect("submit");

    blocker.cancel();
    let (_, _) = blocker.wait();
    let (_, normal_result) = normal.wait();
    let (_, interactive_result) = interactive.wait();
    assert!(
        interactive_result.queue_wait < normal_result.queue_wait,
        "interactive (waited {:?}) must overtake normal (waited {:?})",
        interactive_result.queue_wait,
        normal_result.queue_wait
    );
}

#[test]
fn tenant_fair_share_shields_a_solo_tenant_from_a_flood() {
    let n = 20_000;
    let flood_size = 30usize;
    let service = Service::builder(forest(n))
        .workers(1)
        .queue_capacity(256)
        .cache_capacity(0)
        .build();
    let blocker = park_worker(&service, n);

    // One tenant floods the queue; another submits a single query last.
    let flood: Vec<_> = (0..flood_size)
        .map(|_| {
            service
                .submit(cheap_spec().tenant("flood"))
                .expect("submit flood")
        })
        .collect();
    let solo = service
        .submit(cheap_spec().tenant("solo"))
        .expect("submit solo");

    blocker.cancel();
    let (_, _) = blocker.wait();
    let (_, solo_result) = solo.wait();
    let flood_results: Vec<QueryResult> = flood.into_iter().map(|h| h.wait().1).collect();

    // Fair share: at most one flood job may precede the solo tenant's —
    // FIFO would have put all thirty ahead of it.
    let ahead = flood_results
        .iter()
        .filter(|r| r.queue_wait < solo_result.queue_wait)
        .count();
    assert!(
        ahead <= 1,
        "{ahead} flood jobs ran before the solo tenant's single query"
    );

    // Per-tenant metrics observed the same story.
    let metrics = service.metrics();
    let flood_row = metrics.tenant("flood").expect("flood tenant row");
    let solo_row = metrics.tenant("solo").expect("solo tenant row");
    assert_eq!(flood_row.executed, flood_size as u64);
    assert_eq!(solo_row.executed, 1);
    assert!(solo_row.max_queue_wait < flood_row.max_queue_wait);
    // the blocker ran under the anonymous tenant
    assert_eq!(metrics.tenant("").expect("anonymous row").executed, 1);
    assert_eq!(metrics.queue_wait.count, 2 + flood_size as u64);
    assert!(metrics.queue_wait.max >= metrics.queue_wait.p99);
}
