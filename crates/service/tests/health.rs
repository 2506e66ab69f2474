//! The retention-and-judgment layer end to end: the collector thread
//! populating the time-series ring, SLO burn-rate health, the structured
//! event log, and the watchdog counters — all at a fast test cadence.

use std::time::{Duration, Instant};

use banks_graph::{DataGraph, GraphBuilder, MutationBatch};
use banks_service::{EventLevel, Health, QuerySpec, Service, SloSpec};

fn dblp_like() -> DataGraph {
    let mut b = GraphBuilder::new();
    let soumen = b.add_node("author", "Soumen Chakrabarti");
    let shashank = b.add_node("author", "Shashank Pandit");
    let banks = b.add_node(
        "paper",
        "Keyword searching and browsing in databases using BANKS",
    );
    let bidir = b.add_node(
        "paper",
        "Bidirectional expansion for keyword search on graph databases",
    );
    let w0 = b.add_node("writes", "w0");
    let w1 = b.add_node("writes", "w1");
    let w2 = b.add_node("writes", "w2");
    b.add_edge(w0, soumen).unwrap();
    b.add_edge(w0, banks).unwrap();
    b.add_edge(w1, shashank).unwrap();
    b.add_edge(w1, bidir).unwrap();
    b.add_edge(w2, soumen).unwrap();
    b.add_edge(w2, bidir).unwrap();
    b.build_default()
}

/// Spin until `pred` holds or the deadline passes; returns whether it held.
fn wait_for(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    pred()
}

#[test]
fn collector_populates_the_time_series_ring() {
    let service = Service::builder(dblp_like())
        .workers(2)
        .collector_cadence(Duration::from_millis(10))
        .build();
    for _ in 0..3 {
        let (outcome, _) = service
            .submit(QuerySpec::parse("soumen banks"))
            .unwrap()
            .wait();
        assert!(!outcome.answers.is_empty());
    }
    assert!(
        wait_for(Duration::from_secs(5), || service
            .time_series()
            .latest()
            .is_some_and(|s| s.seq >= 3)),
        "collector never recorded 3 ticks"
    );
    let series = service.time_series();
    let idx = series.index_of("submitted").expect("schema entry");
    let latest = series.latest().expect("at least one tick");
    assert_eq!(latest.values[idx], 3.0, "cumulative submitted snapshot");
    assert!(series.index_of("queue_saturation").is_some());
    assert_eq!(series.schema().len(), latest.values.len());
    // Health defaults to ok: nothing in a healthy run fires the SLOs.
    assert_eq!(service.health(), Health::Ok);
}

#[test]
fn an_induced_regression_flips_health_and_emits_paired_alerts() {
    // An absurd objective (TTFA over a zero-microsecond bound) turns every
    // executed query into a violation, so the burn rate saturates within a
    // couple of collector ticks; once traffic stops, the windowed
    // percentile goes NaN, the fast window cools, and the alert resolves.
    let slo = SloSpec::upper_bound("ttfa_p99", "ttfa_p99_us", 0.0)
        .with_windows(100, 10_000)
        .with_burns(10.0, 1.0);
    let service = Service::builder(dblp_like())
        .workers(2)
        .collector_cadence(Duration::from_millis(10))
        .slos(vec![slo])
        .build();

    let fired = wait_for(Duration::from_secs(10), || {
        let (outcome, _) = service
            .submit(QuerySpec::parse("soumen banks"))
            .unwrap()
            .wait();
        assert!(!outcome.answers.is_empty());
        service.health() != Health::Ok
    });
    assert!(fired, "health never left ok under a 0us TTFA objective");
    let report = service.slo_report();
    assert_ne!(report.health, Health::Ok);
    assert_eq!(report.rows.len(), 1);
    assert_eq!(report.rows[0].name, "ttfa_p99");
    assert!(report.rows[0].burn_fast >= 10.0);

    // Stop submitting: the 100 ms fast window empties of finite samples
    // and the alert resolves.
    let resolved = wait_for(Duration::from_secs(10), || service.health() == Health::Ok);
    assert!(resolved, "alert never resolved after traffic stopped");

    let events = service.events().since(0, 10_000);
    let fires: Vec<_> = events.iter().filter(|e| e.kind == "alert-fire").collect();
    let resolves: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "alert-resolve")
        .collect();
    assert!(!fires.is_empty(), "no alert-fire event");
    assert!(!resolves.is_empty(), "no alert-resolve event");
    assert_eq!(fires[0].level, EventLevel::Warn);
    assert_eq!(resolves[0].level, EventLevel::Info);
    assert!(
        fires[0].id < resolves[resolves.len() - 1].id,
        "fire precedes resolve"
    );
    assert!(fires[0].message.contains("ttfa_p99"));

    // The metrics snapshot carries the judgment surface.
    let metrics = service.metrics();
    assert_eq!(metrics.health, service.health());
    assert_eq!(metrics.slo.len(), 1);
    assert!(metrics.event_log_last_id >= fires[0].id);
}

#[test]
fn operational_paths_emit_structured_events() {
    let service = Service::builder(dblp_like()).workers(2).build();
    // Mutations: an applied batch logs mutation-batch.
    let batch = MutationBatch::new().add_node("author", "Gaurav Bhalotia");
    let report = service.apply_mutations(&batch);
    assert!(report.swapped);
    // Swap: a wholesale graph swap logs swap.
    service.swap_graph(dblp_like());

    let events = service.events().since(0, 1000);
    let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"mutation-batch"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"swap"), "kinds: {kinds:?}");
    // Ids are strictly increasing and paging by id works.
    let ids: Vec<u64> = events.iter().map(|e| e.id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(ids, sorted, "monotone ids");
    let mid = ids[ids.len() / 2];
    let tail = service.events().since(mid, 1000);
    assert!(tail.iter().all(|e| e.id > mid));
    assert_eq!(tail.len(), ids.iter().filter(|&&i| i > mid).count());

    // Quota rejection: a drained bucket logs quota-reject.
    drop(service);
    let service = Service::builder(dblp_like())
        .workers(1)
        .tenant_quota(0.001, 1)
        .build();
    let _ = service.submit(QuerySpec::parse("soumen").tenant("t"));
    let denied = service.submit(QuerySpec::parse("banks").tenant("t"));
    assert!(denied.is_err());
    let events = service.events().since(0, 1000);
    assert!(
        events.iter().any(|e| e.kind == "quota-reject"),
        "kinds: {:?}",
        events.iter().map(|e| e.kind).collect::<Vec<_>>()
    );
}

#[test]
fn watchdog_flags_queries_that_blow_past_their_estimate() {
    // Two keywords 600 hops apart: the origin sets are single nodes, so the
    // a priori estimate is tiny (2 × (1 + top_k × 16) = 34), but connecting
    // them forces the engine down the whole chain — hundreds of explored
    // nodes, comfortably past the watchdog's 8× (272).
    let mut b = GraphBuilder::new();
    let start = b.add_node("endpoint", "alphastart");
    let mut prev = start;
    for i in 0..600 {
        let link = b.add_node("link", format!("hop {i}"));
        b.add_edge(prev, link).unwrap();
        prev = link;
    }
    let end = b.add_node("endpoint", "omegaend");
    b.add_edge(prev, end).unwrap();

    let service = Service::builder(b.build_default()).workers(1).build();
    let (outcome, _) = service
        .submit(
            QuerySpec::parse("alphastart omegaend")
                .params(banks_core::SearchParams::with_top_k(1).dmax(800)),
        )
        .unwrap()
        .wait();
    assert!(!outcome.answers.is_empty(), "chain query found no answer");
    assert!(
        outcome.stats.nodes_explored >= 400,
        "expected a long exploration, got {}",
        outcome.stats.nodes_explored
    );
    let overran = wait_for(Duration::from_secs(5), || {
        service.metrics().watchdog_overruns >= 1
    });
    assert!(overran, "watchdog never tripped on a 600-hop exploration");
    let events = service.events().since(0, 1000);
    assert!(events.iter().any(|e| e.kind == "watchdog-overrun"));
}
