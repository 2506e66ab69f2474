//! Online graph swapping demo: reindex mid-workload, without downtime.
//!
//! ```text
//! cargo run --release --example service_swap
//! ```
//!
//! The service starts on a small synthetic DBLP corpus (v1) and fields a
//! wave of mixed queries with repeats, so the result cache warms up.  Then
//! — while a deliberately slow probe query admitted under v1 is still in
//! flight — a larger corpus (v2) is swapped in with `Service::swap_graph`.
//! The probe finishes on its pinned v1 snapshot; the same wave re-fired
//! against v2 starts with a cold cache and warms it again.  The demo prints
//! the epoch, cache hit rate and time-to-first-answer percentiles before
//! and after the swap.

use std::time::{Duration, Instant};

use banks::prelude::*;

/// A query wave: every case fired twice (interactive traffic repeats), so
/// the cache hit rate has meaning.  Returns (TTFA samples, answers).
fn fire_wave(service: &Service, cases: &[QueryCase]) -> (Vec<Duration>, usize) {
    let mut ttfa = Vec::new();
    let mut answers = 0usize;
    for _ in 0..2 {
        let handles: Vec<_> = cases
            .iter()
            .map(|case| {
                let spec = QuerySpec::new(case.query())
                    .params(SearchParams::with_top_k(10))
                    .tenant("wave")
                    .priority(Priority::Interactive);
                service.submit(spec).expect("submit")
            })
            .collect();
        for handle in handles {
            let (outcome, result) = handle.wait();
            answers += outcome.answers.len();
            if let Some(t) = result.time_to_first_answer {
                ttfa.push(t);
            }
        }
    }
    ttfa.sort_unstable();
    (ttfa, answers)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

fn corpus(num_authors: usize, num_papers: usize, seed: u64) -> DblpDataset {
    DblpDataset::generate(DblpConfig {
        num_authors,
        num_papers,
        num_conferences: 8,
        seed,
        ..DblpConfig::default()
    })
}

fn report(label: &str, service: &Service, ttfa: &[Duration], answers: usize) {
    let metrics = service.metrics();
    println!("\n[{label}] epoch {}", metrics.epoch);
    println!("  answers         {answers}");
    println!(
        "  cache hit rate  {:.1}% ({} of {})",
        100.0 * metrics.cache_hit_rate(),
        metrics.cache_hits,
        metrics.submitted
    );
    println!(
        "  ttfa p50 {:?}  p90 {:?}  max {:?}",
        percentile(ttfa, 0.50),
        percentile(ttfa, 0.90),
        percentile(ttfa, 1.0),
    );
    println!(
        "  queue wait p50 {:?}  p99 {:?} (over {} executed)",
        metrics.queue_wait.p50, metrics.queue_wait.p99, metrics.queue_wait.count
    );
}

fn main() {
    // ------------------------------------------------------------- version 1
    let v1 = corpus(600, 1200, 7);
    let mut generator = WorkloadGenerator::new(&v1, 21);
    let cases = generator.generate(&WorkloadConfig {
        num_queries: 24,
        num_keywords: 2,
        answer_size: 4,
        compute_ground_truth: false,
        ..WorkloadConfig::default()
    });
    let graph_v1 = v1.dataset.graph().clone();
    println!(
        "v1 graph: {} nodes, {} directed edges",
        graph_v1.num_nodes(),
        graph_v1.num_directed_edges()
    );

    let service = Service::builder(graph_v1)
        .workers(4)
        .queue_capacity(1024)
        .cache_capacity(512)
        .index(v1.dataset.index().clone())
        .build();
    let epoch_v1 = service.epoch();

    let (ttfa_v1, answers_v1) = fire_wave(&service, &cases);
    report("before swap", &service, &ttfa_v1, answers_v1);

    // ------------------------------------------------- swap, with work in flight
    // A slow exhaustive probe admitted under v1 (a known-answerable v1
    // query, asked exhaustively)...
    let probe = service
        .submit(
            QuerySpec::new(cases[0].query())
                .params(SearchParams::with_top_k(200))
                .tenant("probe")
                .priority(Priority::Batch),
        )
        .expect("submit probe");

    // ...and the reindexed corpus swapped in while it runs.  Building the
    // new snapshot (prestige + index) happens before the atomic pointer
    // swap, so serving never pauses.
    let v2 = corpus(900, 2000, 8);
    let swap_started = Instant::now();
    let epoch_v2 = service.swap_snapshot(GraphSnapshot::new(
        v2.dataset.graph().clone(),
        PrestigeVector::uniform_for(v2.dataset.graph()),
        v2.dataset.index().clone(),
    ));
    println!(
        "\nswapped v1 (epoch {epoch_v1}) -> v2 (epoch {epoch_v2}) in {:?} \
         ({} nodes now served)",
        swap_started.elapsed(),
        service.snapshot().graph().num_nodes()
    );

    let (probe_outcome, probe_result) = probe.wait();
    println!(
        "in-flight probe finished on its pinned snapshot: epoch {} \
         (current {}), {} answers",
        probe_result.epoch,
        service.epoch(),
        probe_outcome.answers.len()
    );
    assert_eq!(probe_result.epoch, epoch_v1, "probe pinned to v1");

    // ------------------------------------------------------------- version 2
    // A wave drawn from the v2 corpus (its vocabulary, its join patterns):
    // the first pass misses — the new epoch starts cold — and the repeat
    // pass warms the cache back up.
    let mut generator_v2 = WorkloadGenerator::new(&v2, 22);
    let cases_v2 = generator_v2.generate(&WorkloadConfig {
        num_queries: 24,
        num_keywords: 2,
        answer_size: 4,
        compute_ground_truth: false,
        ..WorkloadConfig::default()
    });
    let (ttfa_v2, answers_v2) = fire_wave(&service, &cases_v2);
    report("after swap", &service, &ttfa_v2, answers_v2);

    let metrics = service.metrics();
    assert_eq!(metrics.swaps, 1);
    assert_eq!(metrics.epoch, epoch_v2);
    println!(
        "\ntenants: {}",
        metrics
            .tenants
            .iter()
            .map(|t| format!(
                "{}={} (mean wait {:?})",
                if t.tenant.is_empty() {
                    "<anon>"
                } else {
                    &t.tenant
                },
                t.executed,
                t.mean_queue_wait
            ))
            .collect::<Vec<_>>()
            .join("  ")
    );
}
