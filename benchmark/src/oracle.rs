//! The correctness oracle: the in-process, sequential `Banks` run every
//! HTTP response must agree with, byte for byte, once the wall-clock
//! `timing` object is taken out of both (see `wire::strip_timing`).
//!
//! The same runs are the source of the exact work counts (`core.*_per_query`)
//! and of the per-engine probes, which only differ in the engine name.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use banks_core::{json, Banks, RankedAnswer, SearchOutcome};
use banks_service::GraphSnapshot;

use crate::wire::strip_timing;

/// The text an HTTP response's answers must concatenate to.
pub fn answers_text(answers: &[RankedAnswer]) -> String {
    let stripped: Vec<String> = answers
        .iter()
        .map(|a| strip_timing(&json::ranked_answer(a)))
        .collect();
    stripped.join("\n")
}

/// One query's sequential run.
pub struct OracleRow {
    pub text: String,
    pub outcome: SearchOutcome,
    pub elapsed: Duration,
}

/// Runs `queries` (indices into `pool`) on `snapshot` with `engine`,
/// spreading them over `threads` independent sequential sessions.  Rows
/// come back in the order of `queries`.
pub fn run(
    snapshot: &GraphSnapshot,
    pool: &[Vec<String>],
    queries: &[usize],
    top_k: usize,
    engine: &str,
    threads: usize,
) -> Vec<OracleRow> {
    let cursor = AtomicUsize::new(0);
    let mut rows: Vec<(usize, OracleRow)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let banks = Banks::open(snapshot.graph())
                        .with_prestige(snapshot.prestige().clone())
                        .with_index(snapshot.index().clone());
                    let mut mine = Vec::new();
                    loop {
                        let at = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&query) = queries.get(at) else {
                            return mine;
                        };
                        let started = Instant::now();
                        let outcome = banks
                            .query(pool[query].iter().map(String::as_str))
                            .engine(engine)
                            .top_k(top_k)
                            .run();
                        let elapsed = started.elapsed();
                        mine.push((
                            at,
                            OracleRow {
                                text: answers_text(&outcome.answers),
                                outcome,
                                elapsed,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    rows.sort_by_key(|(at, _)| *at);
    rows.into_iter().map(|(_, row)| row).collect()
}
