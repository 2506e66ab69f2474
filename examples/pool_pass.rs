//! In-process replay of `search_saturate`'s query pool: the engine's cost
//! without HTTP, scheduler or cache around it.
//!
//! ```text
//! cargo run --release --example pool_pass [-- PASSES] [--check]
//! ```
//!
//! Rebuilds the benchmark's 13,073-node corpus and its 96-query pool (72
//! two-keyword, 12 three-keyword `Rare`, 12 three-keyword `Frequent`; see
//! `benchmark/src/corpus.rs`), runs every query sequentially through
//! `Banks::open` — engine `bidirectional`, uniform prestige, `top_k` 10,
//! `ExactBound` — `PASSES` times (default 10), and prints the best and
//! median pass time next to the work counters summed over one pass.
//!
//! The sums are machine-independent and must not move unless the engine's
//! behaviour is meant to change; `--check` exits 1 if they differ from the
//! values in [`EXPECTED`] (CI runs `pool_pass 1 --check`).  The time is
//! printed, never gated.

use std::collections::BTreeSet;
use std::time::Instant;

use banks::datagen::OriginBias;
use banks::prelude::*;

/// The work counters summed over one pass of the pool, and what they must
/// be.
const EXPECTED: [(&str, usize); 6] = [
    ("nodes_explored", 250_777),
    ("edges_traversed", 2_148_749),
    ("answers_generated", 1_445_489),
    ("non_minimal_discarded", 1_283_050),
    ("duplicates_discarded", 23_233),
    ("answers", 951),
];

/// The pool of `benchmark/src/corpus.rs::query_pool` (same generator seed,
/// same over-ask-and-dedup loop), in class order: the benchmark interleaves
/// the classes, which changes neither the set nor the sums.
fn query_pool(data: &DblpDataset) -> Vec<Vec<String>> {
    let mut generator = WorkloadGenerator::new(data, 42);
    let mut seen = BTreeSet::new();
    let mut pool = Vec::new();
    for (count, num_keywords, origin_bias) in [
        (72, 2, OriginBias::Any),
        (12, 3, OriginBias::Rare),
        (12, 3, OriginBias::Frequent),
    ] {
        let mut have = 0;
        for _ in 0..8 {
            if have == count {
                break;
            }
            let cases = generator.generate(&WorkloadConfig {
                num_queries: 2 * (count - have),
                num_keywords,
                answer_size: 5,
                origin_bias,
                compute_ground_truth: false,
                ..WorkloadConfig::default()
            });
            for case in cases {
                if have < count && seen.insert(case.keywords.clone()) {
                    pool.push(case.keywords);
                    have += 1;
                }
            }
        }
        assert_eq!(have, count, "corpus too small for {count} distinct queries");
    }
    pool
}

fn main() {
    let mut passes = 10usize;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            n => {
                passes = n.parse().unwrap_or_else(|_| {
                    eprintln!("usage: pool_pass [PASSES] [--check]");
                    std::process::exit(2);
                })
            }
        }
    }

    let data = DblpDataset::generate(DblpConfig {
        num_authors: 1000,
        num_papers: 2000,
        num_conferences: 12,
        seed: 7,
        ..DblpConfig::default()
    });
    let graph = data.dataset.graph();
    let pool = query_pool(&data);
    let banks = Banks::open(graph).with_index(data.dataset.index().clone());
    println!(
        "{} nodes, {} queries, {passes} pass(es)",
        graph.num_nodes(),
        pool.len()
    );

    let mut times = Vec::with_capacity(passes);
    let mut sums = [0usize; 6];
    for pass in 0..passes.max(1) {
        let mut now = [0usize; 6];
        let started = Instant::now();
        for keywords in &pool {
            let outcome = banks
                .query(keywords.iter().map(String::as_str))
                .engine("bidirectional")
                .top_k(10)
                .run();
            let stats = &outcome.stats;
            for (sum, value) in now.iter_mut().zip([
                stats.nodes_explored,
                stats.edges_traversed,
                stats.answers_generated,
                stats.non_minimal_discarded,
                stats.duplicates_discarded,
                outcome.answers.len(),
            ]) {
                *sum += value;
            }
        }
        times.push(started.elapsed().as_secs_f64());
        assert!(pass == 0 || now == sums, "a pass must repeat exactly");
        sums = now;
    }

    times.sort_by(f64::total_cmp);
    println!(
        "pass time: best {:.3} s, median {:.3} s",
        times[0],
        times[times.len() / 2]
    );
    let mut moved = false;
    for (sum, (name, expected)) in sums.into_iter().zip(EXPECTED) {
        let verdict = if sum == expected {
            String::new()
        } else {
            format!("  <-- recorded {expected}")
        };
        moved |= sum != expected;
        println!("{name:>24} {sum:>10}{verdict}");
    }
    if check && moved {
        eprintln!("work counters differ from the recorded sums");
        std::process::exit(1);
    }
}
