//! Service throughput demo: a mixed workload against the worker pool.
//!
//! ```text
//! cargo run --release --example service_qps
//! ```
//!
//! Part 1 serves the paper's Figure 4 graph through the new
//! `Service::builder(graph).workers(4).cache_capacity(256).build()` API.
//! Part 2 loads a synthetic DBLP corpus, generates a mixed workload with
//! `datagen::workload` (co-authorship, citation-pair and repeated queries
//! across rare and frequent keywords), fires it at the service, and prints
//! QPS, the cache hit rate and time-to-first-answer percentiles.
//!
//! `--obs-gate` instead runs the observability overhead gate: the same
//! workload with the observability stack off and on — per-query tracing
//! plus the 100 ms collector / SLO / event-log retention layer — in pairs
//! that alternate which side runs first; writes `BENCH_obs.json` and exits
//! non-zero if the median per-pair regression exceeds 5% QPS.

use std::time::{Duration, Instant};

use banks::prelude::*;

fn main() {
    if std::env::args().any(|a| a == "--obs-gate") {
        obs_gate();
        return;
    }
    figure4_demo();
    dblp_workload();
}

/// The observability overhead gate.
///
/// Runs the DBLP workload alternately with the full observability stack
/// off and on.  "On" is the worst case across the whole layer: every
/// submission carries `QuerySpec::trace` (work counters, a `QueryTrace`,
/// a ring push per query) *and* the retention layer runs hot — a 100 ms
/// collector cadence snapshotting the time series, evaluating the stock
/// SLOs, and feeding the event log.  Rounds run on fresh services so
/// cache state is identical.  Gates the median per-pair QPS regression
/// on the <5% budget.
fn obs_gate() {
    const PAIRS: usize = 9;
    const BUDGET_PCT: f64 = 5.0;

    let data = DblpDataset::generate(DblpConfig {
        num_authors: 800,
        num_papers: 1500,
        num_conferences: 10,
        seed: 11,
        ..DblpConfig::default()
    });
    let mut generator = WorkloadGenerator::new(&data, 42);
    let cases = generator.generate(&WorkloadConfig {
        num_queries: 60,
        num_keywords: 2,
        answer_size: 5,
        origin_bias: banks::datagen::OriginBias::Any,
        compute_ground_truth: false,
        ..WorkloadConfig::default()
    });
    println!(
        "obs gate: {} queries x {PAIRS} pairs, traced vs untraced",
        cases.len()
    );

    let run = |traced: bool| -> f64 {
        let mut builder = Service::builder(data.dataset.graph().clone())
            .workers(4)
            .queue_capacity(1024)
            .cache_capacity(256)
            .index(data.dataset.index().clone());
        if traced {
            builder = builder.collector_cadence(Duration::from_millis(100));
        }
        let service = builder.build();
        let started = Instant::now();
        let handles: Vec<_> = cases
            .iter()
            .map(|case| {
                let mut spec = QuerySpec::new(case.query()).params(SearchParams::with_top_k(10));
                if traced {
                    spec = spec.trace("gate");
                }
                service.submit(spec).expect("submit")
            })
            .collect();
        for handle in handles {
            let (_, result) = handle.wait();
            assert_eq!(result.trace.is_some(), traced, "trace presence matches");
        }
        cases.len() as f64 / started.elapsed().as_secs_f64()
    };

    // Each pair runs both sides back to back, alternating which goes
    // first, so drift (thermal, page cache, neighbours) and the cost of
    // going second land on both sides alike; the gate reads the median of
    // the per-pair regressions, which one noisy run cannot move.
    run(false); // warm-up, discarded
    let mut regressions: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let (off, on) = if pair % 2 == 0 {
                let off = run(false);
                (off, run(true))
            } else {
                let on = run(true);
                (run(false), on)
            };
            100.0 * (off - on) / off
        })
        .collect();
    let per_pair = regressions
        .iter()
        .map(|r| format!("{r:.2}"))
        .collect::<Vec<_>>()
        .join(",");
    regressions.sort_by(f64::total_cmp);
    let quantile = |q: f64| regressions[((PAIRS - 1) as f64 * q).round() as usize];
    let regression_pct = quantile(0.5);
    let iqr_pct = quantile(0.75) - quantile(0.25);
    println!("  per-pair regression: [{per_pair}] %");
    println!(
        "  median regression:   {regression_pct:.2}% (IQR {iqr_pct:.2}, budget {BUDGET_PCT}%)"
    );

    let report = format!(
        "{{\"bench\":\"obs_overhead_gate\",\"queries\":{},\"pairs\":{PAIRS},\
         \"regression_pct_per_pair\":[{per_pair}],\"regression_pct\":{regression_pct:.2},\
         \"regression_iqr_pct\":{iqr_pct:.2},\"budget_pct\":{BUDGET_PCT}}}\n",
        cases.len()
    );
    std::fs::write("BENCH_obs.json", &report).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");

    if regression_pct > BUDGET_PCT {
        eprintln!("FAIL: tracing overhead {regression_pct:.2}% exceeds the {BUDGET_PCT}% budget");
        std::process::exit(1);
    }
    println!("PASS: tracing overhead within budget");
}

/// Part 1: the Figure 4 walk-through, served concurrently.
fn figure4_demo() {
    let example = figure4_example(100, 48);
    println!(
        "figure-4 graph: {} nodes, {} directed edges",
        example.graph.num_nodes(),
        example.graph.num_directed_edges()
    );

    let service = Service::builder(example.graph)
        .workers(4)
        .cache_capacity(256)
        .build();

    // Fire the same query through every engine at once.
    let handles: Vec<_> = ["bidirectional", "si-backward", "mi-backward"]
        .into_iter()
        .map(|engine| {
            let spec = QuerySpec::parse("database james john")
                .top_k(3)
                .engine(engine);
            (engine, service.submit(spec).expect("submit"))
        })
        .collect();
    println!("\nquery: Database James John (all engines concurrently)");
    for (engine, handle) in handles {
        let (outcome, result) = handle.wait();
        println!(
            "  {:<14} answers {:>2}  explored {:>5}  ttfa {:?}",
            engine,
            outcome.answers.len(),
            outcome.stats.nodes_explored,
            result.time_to_first_answer.unwrap_or_default()
        );
    }

    // The repeat is served from the cache: zero engine work.
    let spec = QuerySpec::parse("database james john")
        .top_k(3)
        .engine("bidirectional");
    let (_, result) = service.submit(spec).expect("submit").wait();
    println!(
        "repeat submission: cache_hit = {} (executed {} of {} submitted)",
        result.cache_hit,
        service.metrics().executed,
        service.metrics().submitted
    );
}

/// Part 2: a mixed DBLP workload, measured.
fn dblp_workload() {
    let data = DblpDataset::generate(DblpConfig {
        num_authors: 800,
        num_papers: 1500,
        num_conferences: 10,
        seed: 11,
        ..DblpConfig::default()
    });
    let graph = data.dataset.graph().clone();
    println!(
        "\ndblp graph: {} nodes, {} directed edges",
        graph.num_nodes(),
        graph.num_directed_edges()
    );

    // A mixed workload: 2-keyword co-authorship queries, 4-keyword citation
    // queries, rare- and frequent-origin title words.
    let mut generator = WorkloadGenerator::new(&data, 42);
    let mut cases = Vec::new();
    for (num_keywords, answer_size, bias) in [
        (2, 5, banks::datagen::OriginBias::Any),
        (3, 5, banks::datagen::OriginBias::Rare),
        (4, 3, banks::datagen::OriginBias::Frequent),
    ] {
        cases.extend(generator.generate(&WorkloadConfig {
            num_queries: 12,
            num_keywords,
            answer_size,
            origin_bias: bias,
            compute_ground_truth: false,
            ..WorkloadConfig::default()
        }));
    }
    // Interactive traffic repeats itself: a second wave re-asks half of the
    // first wave's queries, so the result cache has something to do.
    let repeats: Vec<_> = cases.iter().step_by(2).cloned().collect();
    println!(
        "workload: {} fresh queries + {} repeats",
        cases.len(),
        repeats.len()
    );

    let service = Service::builder(graph)
        .workers(4)
        .queue_capacity(1024)
        .cache_capacity(256)
        .index(data.dataset.index().clone())
        .build();

    let mut ttfa: Vec<Duration> = Vec::new();
    let mut answers = 0usize;
    let total = cases.len() + repeats.len();
    let started = Instant::now();
    for wave in [&cases, &repeats] {
        let handles: Vec<_> = wave
            .iter()
            .map(|case| {
                let spec = QuerySpec::new(case.query()).params(SearchParams::with_top_k(10));
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
    let elapsed = started.elapsed();

    let metrics = service.metrics();
    let qps = total as f64 / elapsed.as_secs_f64();
    println!("\nserved {total} queries in {elapsed:.2?}");
    println!("  QPS             {qps:.0}");
    println!("  answers         {answers}");
    println!(
        "  cache hit rate  {:.1}% ({} of {})",
        100.0 * metrics.cache_hit_rate(),
        metrics.cache_hits,
        metrics.submitted
    );
    println!("  nodes explored  {}", metrics.nodes_explored);
    ttfa.sort_unstable();
    if !ttfa.is_empty() {
        let pct = |p: f64| ttfa[((ttfa.len() - 1) as f64 * p) as usize];
        println!(
            "  ttfa p50 {:?}  p90 {:?}  p99 {:?}",
            pct(0.50),
            pct(0.90),
            pct(0.99)
        );
    }
}
