//! Golden net for the expansion engines: answers, emission order and every
//! work counter, pinned to the values the engines produced *before* the
//! inner loop was rebuilt on dense per-query state (recorded on commit
//! 8634be1).  The equivalence suites compare execution modes with each
//! other; this file compares the engines with their own past.
//!
//! `tests/engine_golden.tsv` holds one row per (engine, emission policy,
//! query): the six work counters, `explored_at_generation:explored_at_output`
//! of every answer, and an FNV-1a hash of the canonical answer JSON
//! (`rank:tree`, wall-clock timing left out) in emission order.  After the
//! base grid (24 queries, default parameters) come the extra rows,
//! recorded on commit 455a53a: query shapes and parameters the base grid
//! does not reach — 1, 4 and 5 keywords, `top_k` 0 / 1 / 50 — and,
//! appended after them, a `max_explored` cap that truncates.
//!
//! Re-record (only when a change is *meant* to alter engine behaviour):
//!
//! ```sh
//! cargo test --release --test engine_golden -- --ignored record
//! ```
//!
//! Two corners were located on the parent commit with temporary counters
//! and are named in [`CORNER_QUERIES`]: a candidate whose `sp` chain is
//! longer than `dmax + 2` hops and is dropped before `answers_generated`
//! is bumped, and a buffered answer replaced by a higher-scoring rotation
//! of the same node set (`InsertOutcome::ReplacedDuplicate`).

use std::fmt::Write as _;
use std::sync::OnceLock;

use banks::core::json;
use banks::datagen::OriginBias;
use banks::prelude::*;

const GOLDEN: &str = include_str!("engine_golden.tsv");

const ENGINES: [&str; 3] = ["bidirectional", "si-backward", "mi-backward"];

const POLICIES: [(&str, EmissionPolicy); 3] = [
    ("exact", EmissionPolicy::ExactBound),
    ("heuristic", EmissionPolicy::Heuristic),
    ("immediate", EmissionPolicy::Immediate),
];

/// Pool indices (see [`Fixture::queries`]) of the queries that exercise,
/// under `bidirectional`, a `trace_path` failure and a `ReplacedDuplicate`
/// respectively.  `corner_queries_are_in_the_pool` keeps the indices valid.
const CORNER_QUERIES: [(usize, &str); 2] = [
    (TRACE_FAILURE_QUERY, "trace_path failure"),
    (REPLACED_DUPLICATE_QUERY, "ReplacedDuplicate"),
];
const TRACE_FAILURE_QUERY: usize = 20;
const REPLACED_DUPLICATE_QUERY: usize = 0;

struct Fixture {
    data: DblpDataset,
    prestige: PrestigeVector,
    /// 12 two-keyword queries, then 6 three-keyword `Rare`, then 6
    /// three-keyword `Frequent`.
    queries: Vec<Vec<String>>,
    /// Runs outside the base grid.
    extras: Vec<Case>,
}

/// One run per emission policy; `label` goes in the row's query column.
struct Case {
    label: String,
    keywords: Vec<String>,
    params: SearchParams,
    truncates: bool,
}

impl Fixture {
    /// The base grid: every pool query under default parameters, labelled
    /// by its index.
    fn base(&self) -> Vec<Case> {
        self.queries
            .iter()
            .enumerate()
            .map(|(index, keywords)| Case {
                label: index.to_string(),
                keywords: keywords.clone(),
                params: SearchParams::default(),
                truncates: false,
            })
            .collect()
    }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = DblpDataset::generate(DblpConfig {
            num_authors: 300,
            num_papers: 600,
            num_conferences: 6,
            seed: 20250925,
            ..DblpConfig::default()
        });
        let (prestige, _) = compute_pagerank(data.dataset.graph());
        let mut generator = WorkloadGenerator::new(&data, 4242);
        let mut queries: Vec<Vec<String>> = Vec::new();
        for (count, num_keywords, origin_bias) in [
            (12, 2, OriginBias::Any),
            (6, 3, OriginBias::Rare),
            (6, 3, OriginBias::Frequent),
        ] {
            let mut class: Vec<Vec<String>> = Vec::new();
            // The generator may repeat itself; over-ask until `count` are
            // distinct.
            for _ in 0..8 {
                let cases = generator.generate(&WorkloadConfig {
                    num_queries: 2 * (count - class.len()),
                    num_keywords,
                    answer_size: 5,
                    origin_bias,
                    compute_ground_truth: false,
                    ..WorkloadConfig::default()
                });
                for case in cases {
                    if class.len() < count
                        && !class.contains(&case.keywords)
                        && !queries.contains(&case.keywords)
                    {
                        class.push(case.keywords);
                    }
                }
                if class.len() == count {
                    break;
                }
            }
            assert_eq!(class.len(), count, "corpus too small for {count} queries");
            queries.extend(class);
        }
        let mut extras = Vec::new();
        // Drawn after the base pool, so the base pool is what it always was.
        for (label, num_keywords, answer_size) in [("k1", 1, 1), ("k4", 4, 5), ("k5", 5, 5)] {
            let case = generator
                .generate(&WorkloadConfig {
                    num_queries: 1,
                    num_keywords,
                    answer_size,
                    compute_ground_truth: false,
                    ..WorkloadConfig::default()
                })
                .pop()
                .unwrap_or_else(|| panic!("corpus too small for a {num_keywords}-keyword query"));
            extras.push(Case {
                label: label.to_string(),
                keywords: case.keywords,
                params: SearchParams::default(),
                truncates: false,
            });
        }
        for (label, index, params, truncates) in [
            ("top0", 2, SearchParams::with_top_k(0), false),
            (
                "top1",
                REPLACED_DUPLICATE_QUERY,
                SearchParams::with_top_k(1),
                false,
            ),
            (
                "top50",
                TRACE_FAILURE_QUERY,
                SearchParams::with_top_k(50),
                false,
            ),
            (
                "maxexp",
                1,
                SearchParams::with_top_k(50).max_explored(300),
                true,
            ),
        ] {
            extras.push(Case {
                label: label.to_string(),
                keywords: queries[index].clone(),
                params,
                truncates,
            });
        }
        Fixture {
            data,
            prestige,
            queries,
            extras,
        }
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One golden row: everything about a run that must not change.
fn row(engine: &str, policy: &str, index: &str, outcome: &SearchOutcome) -> String {
    let stats = &outcome.stats;
    let mut canonical = String::new();
    let mut marks = String::new();
    for answer in &outcome.answers {
        writeln!(
            canonical,
            "{}:{}",
            answer.rank,
            json::answer_tree(&answer.tree)
        )
        .expect("writing to a String cannot fail");
        if !marks.is_empty() {
            marks.push(',');
        }
        write!(
            marks,
            "{}:{}",
            answer.timing.explored_at_generation, answer.timing.explored_at_output
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{engine}\t{policy}\t{index}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
        stats.nodes_explored,
        stats.nodes_touched,
        stats.edges_traversed,
        stats.answers_generated,
        stats.duplicates_discarded,
        stats.non_minimal_discarded,
        if marks.is_empty() { "-" } else { &marks },
        fnv1a(canonical.as_bytes()),
    )
}

/// One engine's rows for `cases`, in (policy, case) order.
fn rows_for(engine: &str, cases: &[Case]) -> Vec<String> {
    let fixture = fixture();
    let banks = Banks::open(fixture.data.dataset.graph())
        .with_prestige(fixture.prestige.clone())
        .with_index(fixture.data.dataset.index().clone());
    let mut rows = Vec::new();
    for (policy_name, policy) in POLICIES {
        for case in cases {
            let outcome = banks
                .query(case.keywords.iter().map(String::as_str))
                .engine(engine)
                .params(case.params.emission(policy))
                .run();
            assert_eq!(outcome.stats.truncated, case.truncates, "{}", case.label);
            assert!(!outcome.stats.cancelled);
            rows.push(row(engine, policy_name, &case.label, &outcome));
        }
    }
    rows
}

const HEADER: &str = "# engine\tpolicy\tquery\texplored\ttouched\tedges\tgenerated\tduplicates\tnon_minimal\tgen:out per answer\tfnv1a(rank:tree per answer)";

fn assert_engine_matches_golden(engine: &str) {
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|line| line.starts_with(engine) && line[engine.len()..].starts_with('\t'))
        .collect();
    let fixture = fixture();
    let mut actual = rows_for(engine, &fixture.base());
    actual.extend(rows_for(engine, &fixture.extras));
    assert_eq!(
        expected.len(),
        actual.len(),
        "{engine}: golden file has {} rows, the run produced {}",
        expected.len(),
        actual.len()
    );
    let mismatches: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(want, got)| *want != got)
        .take(8)
        .map(|(want, got)| format!("  recorded {want}\n  now      {got}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{engine} diverged from the recorded behaviour\n{HEADER}\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn bidirectional_matches_golden() {
    assert_engine_matches_golden("bidirectional");
}

#[test]
fn si_backward_matches_golden() {
    assert_engine_matches_golden("si-backward");
}

#[test]
fn mi_backward_matches_golden() {
    assert_engine_matches_golden("mi-backward");
}

#[test]
fn golden_covers_the_promised_grid() {
    let fixture = fixture();
    assert!(fixture.queries.len() >= 24);
    assert!(fixture.queries.iter().any(|q| q.len() == 2));
    assert!(fixture.queries.iter().any(|q| q.len() == 3));
    let rows = GOLDEN.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(
        rows,
        ENGINES.len() * POLICIES.len() * (fixture.queries.len() + fixture.extras.len())
    );
    for keywords in [1, 4, 5] {
        assert!(fixture.extras.iter().any(|e| e.keywords.len() == keywords));
    }
    for top_k in [0, 1, 50] {
        assert!(fixture.extras.iter().any(|e| e.params.top_k == top_k));
    }
    assert!(fixture.extras.iter().any(|e| e.truncates));
}

/// The corner queries must stay in the pool, and — what can be seen from
/// outside — the `ReplacedDuplicate` one must have collapsed a duplicate
/// and the trace-failure one must have generated candidates.
#[test]
fn corner_queries_are_in_the_pool() {
    let fixture = fixture();
    for (index, what) in CORNER_QUERIES {
        assert!(index < fixture.queries.len(), "{what}: query {index}");
        let line = GOLDEN
            .lines()
            .find(|l| l.starts_with(&format!("bidirectional\texact\t{index}\t")))
            .unwrap_or_else(|| panic!("{what}: no golden row for query {index}"));
        let fields: Vec<&str> = line.split('\t').collect();
        let generated: usize = fields[6].parse().expect("generated column");
        let duplicates: usize = fields[7].parse().expect("duplicates column");
        assert!(generated > 0, "{what}: query {index} generated nothing");
        if index == REPLACED_DUPLICATE_QUERY {
            assert!(duplicates > 0, "{what}: query {index} saw no duplicate");
        }
    }
}

/// Writes `tests/engine_golden.tsv` from the current engines.
#[test]
#[ignore = "re-records the golden file; run only when engine behaviour is meant to change"]
fn record() {
    let mut out = String::from(HEADER);
    out.push('\n');
    // Base grid first, extras after: appending extras leaves every earlier
    // row where it was.
    let fixture = fixture();
    for cases in [&fixture.base(), &fixture.extras] {
        for engine in ENGINES {
            for line in rows_for(engine, cases) {
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/engine_golden.tsv");
    std::fs::write(path, out).expect("write the golden file");
}
