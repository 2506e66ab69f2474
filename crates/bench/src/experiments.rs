//! The experiments of Section 5, one function per table/figure.

use banks_core::{EmissionPolicy, SearchParams};
use banks_datagen::workload::OriginBias;
use banks_datagen::{
    DblpConfig, DblpDataset, ImdbConfig, ImdbDataset, KeywordCategory, PatentsConfig,
    PatentsDataset, QueryCase, WorkloadConfig, WorkloadGenerator,
};
use banks_graph::GraphStats;
use banks_prestige::{compute_pagerank, PrestigeVector};
use banks_relational::SparseSearch;

use crate::metrics::{average, run_engine_on_case, EngineKind, QueryMetrics};
use crate::table::{fmt_ms, fmt_ratio, Table};

/// Dataset scale used by the experiments.  The paper runs on the full DBLP /
/// IMDB / US-Patents dumps (millions of nodes); the reproduction defaults to
/// laptop-scale synthetic graphs with the same structure, and the scale can
/// be raised for closer-to-paper sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchScale {
    /// A few thousand nodes: used by unit tests and the Criterion benches.
    Tiny,
    /// Tens of thousands of nodes (default for the `reproduce` binary).
    Small,
    /// Hundreds of thousands of nodes.
    Medium,
}

impl BenchScale {
    /// Parses from a command-line string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tiny" => Some(BenchScale::Tiny),
            "small" => Some(BenchScale::Small),
            "medium" => Some(BenchScale::Medium),
            _ => None,
        }
    }

    /// DBLP generator configuration at this scale.
    pub fn dblp_config(&self) -> DblpConfig {
        match self {
            BenchScale::Tiny => DblpConfig {
                num_authors: 400,
                num_papers: 800,
                num_conferences: 8,
                seed: 71,
                ..DblpConfig::default()
            },
            BenchScale::Small => DblpConfig {
                num_authors: 3_000,
                num_papers: 6_000,
                num_conferences: 25,
                seed: 71,
                ..DblpConfig::default()
            },
            BenchScale::Medium => DblpConfig {
                num_authors: 20_000,
                num_papers: 40_000,
                num_conferences: 60,
                seed: 71,
                ..DblpConfig::default()
            },
        }
    }

    /// Queries per experiment cell at this scale.
    pub fn queries_per_cell(&self) -> usize {
        match self {
            BenchScale::Tiny => 2,
            BenchScale::Small => 5,
            BenchScale::Medium => 8,
        }
    }
}

/// A prepared evaluation environment: the DBLP-like dataset plus its
/// precomputed prestige.
pub struct Environment {
    /// The dataset.
    pub data: DblpDataset,
    /// Precomputed biased-PageRank prestige (Section 2.3).
    pub prestige: PrestigeVector,
}

impl Environment {
    /// Generates the environment for a scale.
    pub fn prepare(scale: BenchScale) -> Self {
        let data = DblpDataset::generate(scale.dblp_config());
        let (prestige, _) = compute_pagerank(data.dataset.graph());
        Environment { data, prestige }
    }

    /// One-line description of the graph.
    pub fn describe(&self) -> String {
        let stats = GraphStats::compute(self.data.dataset.graph());
        format!(
            "DBLP-like graph: {} nodes, {} directed edges, max fan-in {}",
            stats.num_nodes, stats.num_directed_edges, stats.max_forward_indegree
        )
    }

    fn measure(&self, kind: EngineKind, case: &QueryCase, params: &SearchParams) -> QueryMetrics {
        run_engine_on_case(
            kind,
            self.data.dataset.graph(),
            &self.prestige,
            self.data.dataset.index(),
            case,
            params,
        )
    }
}

/// Default measurement parameters: top-10 answers (the paper measures to the
/// last relevant or the tenth relevant result) with a safety cap so that the
/// multi-iterator baseline cannot run away on large-origin queries.
fn measurement_params() -> SearchParams {
    SearchParams::with_top_k(10).max_explored(500_000)
}

// ===================================================================
// Figure 5 — sample queries
// ===================================================================

/// Reproduces the Figure 5 table: a set of sample queries with mixed keyword
/// frequencies over the DBLP-, IMDB- and Patents-like datasets, reporting
/// the MI/SI time ratio, the SI/Bidirectional ratios (nodes explored, nodes
/// touched, generation time, output time), the absolute times and the
/// Sparse lower bound.
pub fn figure5(scale: BenchScale) -> String {
    let env = Environment::prepare(scale);
    let mut out = String::new();
    out.push_str(&format!("{}\n\n", env.describe()));

    let mut table = Table::new([
        "query",
        "#kw",
        "origin-sizes",
        "RelAns",
        "MI/SI time",
        "SI/Bidir expl",
        "SI/Bidir touch",
        "SI/Bidir gen",
        "SI/Bidir out",
        "SI ms",
        "Bidir ms",
        "Bidir TTFA ms",
        "Sparse-LB ms",
        "#CN",
    ]);

    let cases = figure5_cases(&env, scale);
    for (label, case) in &cases {
        let params = measurement_params();
        let mi = env.measure(EngineKind::MiBackward, case, &params);
        let si = env.measure(EngineKind::SiBackward, case, &params);
        let bi = env.measure(EngineKind::Bidirectional, case, &params);

        // Sparse lower bound: evaluate all candidate networks up to the
        // relevant answer size over the relational database.
        let keywords: Vec<&str> = case.keywords.iter().map(String::as_str).collect();
        let sparse = SparseSearch::with_max_size(case.answer_size.max(3))
            .run(&env.data.dataset.db, &keywords);

        table.add_row([
            label.clone(),
            case.num_keywords().to_string(),
            format!("{:?}", case.origin_sizes),
            case.relevant.len().to_string(),
            fmt_ratio(QueryMetrics::time_ratio(mi.output_time, si.output_time)),
            fmt_ratio(ratio(si.nodes_explored, bi.nodes_explored)),
            fmt_ratio(ratio(si.nodes_touched, bi.nodes_touched)),
            fmt_ratio(QueryMetrics::time_ratio(
                si.generation_time,
                bi.generation_time,
            )),
            fmt_ratio(QueryMetrics::time_ratio(si.output_time, bi.output_time)),
            fmt_ms(si.output_time),
            fmt_ms(bi.output_time),
            fmt_ms(bi.time_to_first),
            fmt_ms(sparse.duration),
            sparse.num_candidate_networks.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\nIMDB- and Patents-like spot checks (SI/Bidir nodes-explored ratio):\n");
    out.push_str(&figure5_other_datasets(scale));
    out
}

fn ratio(numerator: usize, denominator: usize) -> Option<f64> {
    if denominator == 0 {
        None
    } else {
        Some(numerator as f64 / denominator as f64)
    }
}

/// Builds DQ-style sample queries with controlled keyword frequency mixes.
fn figure5_cases(env: &Environment, scale: BenchScale) -> Vec<(String, QueryCase)> {
    let mut generator = WorkloadGenerator::new(&env.data, 501);
    let mut cases = Vec::new();

    // DQ1/DQ3-style: two keywords, one rare author + one selective word.
    for (i, case) in generator
        .generate(&WorkloadConfig {
            num_queries: 2,
            num_keywords: 2,
            origin_bias: OriginBias::Rare,
            ..WorkloadConfig::default()
        })
        .into_iter()
        .enumerate()
    {
        cases.push((format!("DQ{} (rare,rare)", i * 2 + 1), case));
    }
    // DQ5/DQ7-style: 4 keywords mixing rare authors with frequent terms.
    for (i, case) in generator
        .generate(&WorkloadConfig {
            num_queries: 2,
            num_keywords: 4,
            origin_bias: OriginBias::Frequent,
            ..WorkloadConfig::default()
        })
        .into_iter()
        .enumerate()
    {
        cases.push((format!("DQ{} (rare+freq)", i * 2 + 5), case));
    }
    // DQ9-style: 6 keywords.
    for case in generator.generate(&WorkloadConfig {
        num_queries: 1,
        num_keywords: 6,
        origin_bias: OriginBias::Any,
        ..WorkloadConfig::default()
    }) {
        cases.push(("DQ9 (6 keywords)".to_string(), case));
    }
    // Anomaly-style symmetric rare query appears in figure5 as well.
    if scale != BenchScale::Tiny {
        if let Some(case) = generator.symmetric_rare_query(10) {
            cases.push(("DQx (C.Mohan-like)".to_string(), case));
        }
    }
    cases
}

/// IMDB- and Patents-like spot checks corresponding to the IQ/UQ rows.
fn figure5_other_datasets(scale: BenchScale) -> String {
    let (imdb_cfg, patents_cfg) = match scale {
        BenchScale::Tiny => (
            ImdbConfig {
                num_persons: 400,
                num_movies: 300,
                seed: 5,
                ..ImdbConfig::default()
            },
            PatentsConfig {
                num_inventors: 300,
                num_patents: 500,
                seed: 5,
                ..PatentsConfig::default()
            },
        ),
        _ => (ImdbConfig::default(), PatentsConfig::default()),
    };

    let mut table = Table::new([
        "query",
        "SI expl",
        "Bidir expl",
        "SI/Bidir expl",
        "SI ms",
        "Bidir ms",
    ]);

    // IQ1-style: actor name + movie title word + frequent term.
    let imdb = ImdbDataset::generate(imdb_cfg);
    let prestige = PrestigeVector::uniform_for(imdb.dataset.graph());
    let db = &imdb.dataset.db;
    let actor = db.referenced_row(imdb.casts, 0, 1).unwrap_or(0);
    let movie = db.referenced_row(imdb.casts, 0, 2).unwrap_or(0);
    let title_word = db
        .row_text(imdb.movie, movie)
        .to_lowercase()
        .split_whitespace()
        .next()
        .unwrap_or("database")
        .to_string();
    let case = QueryCase {
        keywords: vec![
            db.row_text(imdb.person, actor).to_lowercase(),
            title_word,
            "database".into(),
        ],
        planted_nodes: vec![imdb
            .dataset
            .extraction
            .node_of(banks_relational::TupleId::new(imdb.movie, movie))],
        relevant: vec![vec![imdb
            .dataset
            .extraction
            .node_of(banks_relational::TupleId::new(imdb.movie, movie))]],
        origin_sizes: vec![1, 1, 1],
        answer_size: 3,
    };
    let params = measurement_params();
    let si = run_engine_on_case(
        EngineKind::SiBackward,
        imdb.dataset.graph(),
        &prestige,
        imdb.dataset.index(),
        &case,
        &params,
    );
    let bi = run_engine_on_case(
        EngineKind::Bidirectional,
        imdb.dataset.graph(),
        &prestige,
        imdb.dataset.index(),
        &case,
        &params,
    );
    table.add_row([
        "IQ1 (actor+title+freq)".to_string(),
        si.nodes_explored.to_string(),
        bi.nodes_explored.to_string(),
        fmt_ratio(ratio(si.nodes_explored, bi.nodes_explored)),
        fmt_ms(si.total_time),
        fmt_ms(bi.total_time),
    ]);

    // UQ1-style: company name + frequent technical term.
    let patents = PatentsDataset::generate(patents_cfg);
    let prestige = PrestigeVector::uniform_for(patents.dataset.graph());
    let db = &patents.dataset.db;
    let company_word = db
        .row_text(patents.assignee, 0)
        .to_lowercase()
        .split_whitespace()
        .next()
        .unwrap_or("corporation")
        .to_string();
    let case = QueryCase {
        keywords: vec![company_word, "recovery".into()],
        planted_nodes: vec![patents
            .dataset
            .extraction
            .node_of(banks_relational::TupleId::new(patents.assignee, 0))],
        relevant: vec![vec![patents
            .dataset
            .extraction
            .node_of(banks_relational::TupleId::new(patents.assignee, 0))]],
        origin_sizes: vec![1, 1],
        answer_size: 2,
    };
    let si = run_engine_on_case(
        EngineKind::SiBackward,
        patents.dataset.graph(),
        &prestige,
        patents.dataset.index(),
        &case,
        &params,
    );
    let bi = run_engine_on_case(
        EngineKind::Bidirectional,
        patents.dataset.graph(),
        &prestige,
        patents.dataset.index(),
        &case,
        &params,
    );
    table.add_row([
        "UQ1 (company+freq)".to_string(),
        si.nodes_explored.to_string(),
        bi.nodes_explored.to_string(),
        fmt_ratio(ratio(si.nodes_explored, bi.nodes_explored)),
        fmt_ms(si.total_time),
        fmt_ms(bi.total_time),
    ]);

    table.render()
}

// ===================================================================
// Figure 6(a) and 6(b) — keyword-count sweeps
// ===================================================================

fn keyword_sweep(
    env: &Environment,
    scale: BenchScale,
    numerator: EngineKind,
    denominator: EngineKind,
) -> Table {
    let mut table = Table::new([
        "#keywords",
        "small-origin ratio",
        "large-origin ratio",
        "small-origin expl ratio",
        "large-origin expl ratio",
    ]);
    let per_cell = scale.queries_per_cell();
    let params = measurement_params();
    for num_keywords in 2..=7usize {
        let mut row = vec![num_keywords.to_string()];
        let mut explored_ratios = Vec::new();
        for bias in [OriginBias::Rare, OriginBias::Frequent] {
            let mut generator = WorkloadGenerator::new(&env.data, 600 + num_keywords as u64);
            let cases = generator.generate(&WorkloadConfig {
                num_queries: per_cell,
                num_keywords,
                origin_bias: bias,
                ..WorkloadConfig::default()
            });
            let num_metrics: Vec<QueryMetrics> = cases
                .iter()
                .map(|c| env.measure(numerator, c, &params))
                .collect();
            let den_metrics: Vec<QueryMetrics> = cases
                .iter()
                .map(|c| env.measure(denominator, c, &params))
                .collect();
            let num_avg = average(&num_metrics);
            let den_avg = average(&den_metrics);
            row.push(fmt_ratio(QueryMetrics::time_ratio(
                num_avg.output_time,
                den_avg.output_time,
            )));
            explored_ratios.push(fmt_ratio(ratio(
                num_avg.nodes_explored,
                den_avg.nodes_explored,
            )));
        }
        row.extend(explored_ratios);
        table.add_row(row);
    }
    table
}

/// Figure 6(a): MI-Backward / SI-Backward average time ratio vs number of
/// keywords, split into small-origin and large-origin query classes.
pub fn figure6a(scale: BenchScale) -> String {
    let env = Environment::prepare(scale);
    let mut out = format!(
        "{}\nMI-Bkwd / SI-Bkwd ratios (higher = SI wins bigger)\n\n",
        env.describe()
    );
    out.push_str(
        &keyword_sweep(&env, scale, EngineKind::MiBackward, EngineKind::SiBackward).render(),
    );
    out
}

/// Figure 6(b): SI-Backward / Bidirectional average time ratio vs number of
/// keywords.
pub fn figure6b(scale: BenchScale) -> String {
    let env = Environment::prepare(scale);
    let mut out = format!(
        "{}\nSI-Bkwd / Bidirectional ratios (higher = Bidirectional wins bigger)\n\n",
        env.describe()
    );
    out.push_str(
        &keyword_sweep(
            &env,
            scale,
            EngineKind::SiBackward,
            EngineKind::Bidirectional,
        )
        .render(),
    );
    out
}

// ===================================================================
// Figure 6(c) — join-order experiment over keyword categories
// ===================================================================

/// Figure 6(c): time and nodes-explored ratios of SI-Backward over
/// Bidirectional for 4-keyword queries whose keyword frequencies follow
/// fixed category combinations (tiny/small/medium/large).
pub fn figure6c(scale: BenchScale) -> String {
    let env = Environment::prepare(scale);
    let combos: Vec<(&str, [KeywordCategory; 4])> = vec![
        (
            "A=(T,T,T,L)",
            [
                KeywordCategory::Tiny,
                KeywordCategory::Tiny,
                KeywordCategory::Tiny,
                KeywordCategory::Large,
            ],
        ),
        (
            "B=(T,T,L,L)",
            [
                KeywordCategory::Tiny,
                KeywordCategory::Tiny,
                KeywordCategory::Large,
                KeywordCategory::Large,
            ],
        ),
        (
            "C=(T,S,S,S)",
            [
                KeywordCategory::Tiny,
                KeywordCategory::Small,
                KeywordCategory::Small,
                KeywordCategory::Small,
            ],
        ),
        (
            "D=(T,M,M,M)",
            [
                KeywordCategory::Tiny,
                KeywordCategory::Medium,
                KeywordCategory::Medium,
                KeywordCategory::Medium,
            ],
        ),
        (
            "E=(S,S,S,S)",
            [
                KeywordCategory::Small,
                KeywordCategory::Small,
                KeywordCategory::Small,
                KeywordCategory::Small,
            ],
        ),
        (
            "F=(M,M,M,M)",
            [
                KeywordCategory::Medium,
                KeywordCategory::Medium,
                KeywordCategory::Medium,
                KeywordCategory::Medium,
            ],
        ),
        (
            "G=(M,L,L,L)",
            [
                KeywordCategory::Medium,
                KeywordCategory::Large,
                KeywordCategory::Large,
                KeywordCategory::Large,
            ],
        ),
        (
            "H=(L,L,L,L)",
            [
                KeywordCategory::Large,
                KeywordCategory::Large,
                KeywordCategory::Large,
                KeywordCategory::Large,
            ],
        ),
    ];

    let mut table = Table::new([
        "combo",
        "queries",
        "SI/Bidir time",
        "SI/Bidir expl",
        "SI expl",
        "Bidir expl",
    ]);
    let per_cell = scale.queries_per_cell();
    let params = measurement_params();
    for (label, combo) in &combos {
        let mut generator = WorkloadGenerator::new(&env.data, 700);
        let cases = generator.generate_categorised(combo, per_cell);
        if cases.is_empty() {
            table.add_row([
                label.to_string(),
                "0".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let si: Vec<QueryMetrics> = cases
            .iter()
            .map(|c| env.measure(EngineKind::SiBackward, c, &params))
            .collect();
        let bi: Vec<QueryMetrics> = cases
            .iter()
            .map(|c| env.measure(EngineKind::Bidirectional, c, &params))
            .collect();
        let si_avg = average(&si);
        let bi_avg = average(&bi);
        table.add_row([
            label.to_string(),
            cases.len().to_string(),
            fmt_ratio(QueryMetrics::time_ratio(
                si_avg.output_time,
                bi_avg.output_time,
            )),
            fmt_ratio(ratio(si_avg.nodes_explored, bi_avg.nodes_explored)),
            si_avg.nodes_explored.to_string(),
            bi_avg.nodes_explored.to_string(),
        ]);
    }
    format!(
        "{}\nJoin-order experiment: 4 keywords, planted answer size 3\n\n{}",
        env.describe(),
        table.render()
    )
}

// ===================================================================
// Section 5.7 — recall / precision
// ===================================================================

/// Section 5.7: recall and precision of MI-Backward and Bidirectional
/// against the relationally derived ground truth.
pub fn recall(scale: BenchScale) -> String {
    let env = Environment::prepare(scale);
    let per_cell = scale.queries_per_cell() * 2;
    let mut table = Table::new([
        "#keywords",
        "engine",
        "recall",
        "precision@full-recall",
        "relevant found",
    ]);
    // A generous output budget so ordering effects do not mask recall.
    let params = SearchParams::with_top_k(50).max_explored(500_000);
    for num_keywords in [2usize, 4] {
        let mut generator = WorkloadGenerator::new(&env.data, 800 + num_keywords as u64);
        let cases = generator.generate(&WorkloadConfig {
            num_queries: per_cell,
            num_keywords,
            ..WorkloadConfig::default()
        });
        for kind in [EngineKind::MiBackward, EngineKind::Bidirectional] {
            let metrics: Vec<QueryMetrics> = cases
                .iter()
                .map(|c| env.measure(kind, c, &params))
                .collect();
            let avg = average(&metrics);
            table.add_row([
                num_keywords.to_string(),
                kind.name().to_string(),
                format!("{:.2}", avg.recall),
                format!("{:.2}", avg.precision),
                avg.relevant_found.to_string(),
            ]);
        }
    }
    format!("{}\n\n{}", env.describe(), table.render())
}

// ===================================================================
// Section 5.5 — symmetric rare-keyword anomaly
// ===================================================================

/// Section 5.5: the "C. Mohan Rothermel" anomaly — two rare keywords with
/// large fan-in, where forward search cannot help and Bidirectional may do
/// slightly more work than SI-Backward.
pub fn anomaly(scale: BenchScale) -> String {
    let env = Environment::prepare(scale);
    let mut generator = WorkloadGenerator::new(&env.data, 900);
    let Some(case) = generator.symmetric_rare_query(10) else {
        return "anomaly: could not build the symmetric rare query".to_string();
    };
    let params = measurement_params();
    let si = env.measure(EngineKind::SiBackward, &case, &params);
    let bi = env.measure(EngineKind::Bidirectional, &case, &params);
    let mut table = Table::new(["engine", "explored", "touched", "time ms"]);
    table.add_row([
        EngineKind::SiBackward.name().to_string(),
        si.nodes_explored.to_string(),
        si.nodes_touched.to_string(),
        fmt_ms(si.total_time),
    ]);
    table.add_row([
        EngineKind::Bidirectional.name().to_string(),
        bi.nodes_explored.to_string(),
        bi.nodes_touched.to_string(),
        fmt_ms(bi.total_time),
    ]);
    format!(
        "{}\nquery: {:?} (both keywords rare, both authors prolific)\n\n{}",
        env.describe(),
        case.keywords,
        table.render()
    )
}

// ===================================================================
// Ablations — µ, dmax, λ, emission policy
// ===================================================================

/// Ablation sweeps over the design knobs DESIGN.md calls out: the activation
/// attenuation µ, the depth cutoff dmax, the prestige exponent λ, and the
/// emission policy (exact bound vs heuristic vs immediate).
pub fn ablation(scale: BenchScale) -> String {
    let env = Environment::prepare(scale);
    let mut generator = WorkloadGenerator::new(&env.data, 950);
    let cases = generator.generate(&WorkloadConfig {
        num_queries: scale.queries_per_cell() * 2,
        num_keywords: 3,
        ..WorkloadConfig::default()
    });
    let run = |params: &SearchParams| -> QueryMetrics {
        let metrics: Vec<QueryMetrics> = cases
            .iter()
            .map(|c| env.measure(EngineKind::Bidirectional, c, params))
            .collect();
        average(&metrics)
    };

    let mut out = format!("{}\n\n", env.describe());

    let mut table = Table::new(["µ", "explored", "gen ms", "out ms", "recall"]);
    for mu in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let avg = run(&measurement_params().mu(mu));
        table.add_row([
            format!("{mu:.1}"),
            avg.nodes_explored.to_string(),
            fmt_ms(avg.generation_time),
            fmt_ms(avg.output_time),
            format!("{:.2}", avg.recall),
        ]);
    }
    out.push_str("µ sweep (activation attenuation):\n");
    out.push_str(&table.render());

    let mut table = Table::new(["dmax", "explored", "out ms", "recall"]);
    for dmax in [2usize, 4, 6, 8, 10] {
        let avg = run(&measurement_params().dmax(dmax));
        table.add_row([
            dmax.to_string(),
            avg.nodes_explored.to_string(),
            fmt_ms(avg.output_time),
            format!("{:.2}", avg.recall),
        ]);
    }
    out.push_str("\ndmax sweep (depth cutoff):\n");
    out.push_str(&table.render());

    let mut table = Table::new(["λ", "explored", "out ms", "recall"]);
    for lambda in [0.0, 0.2, 0.5, 1.0] {
        let avg = run(&measurement_params().lambda(lambda));
        table.add_row([
            format!("{lambda:.1}"),
            avg.nodes_explored.to_string(),
            fmt_ms(avg.output_time),
            format!("{:.2}", avg.recall),
        ]);
    }
    out.push_str("\nλ sweep (prestige exponent):\n");
    out.push_str(&table.render());

    let mut table = Table::new(["emission", "gen ms", "out ms", "recall"]);
    for (label, policy) in [
        ("exact-bound", EmissionPolicy::ExactBound),
        ("heuristic", EmissionPolicy::Heuristic),
        ("immediate", EmissionPolicy::Immediate),
    ] {
        let avg = run(&measurement_params().emission(policy));
        table.add_row([
            label.to_string(),
            fmt_ms(avg.generation_time),
            fmt_ms(avg.output_time),
            format!("{:.2}", avg.recall),
        ]);
    }
    out.push_str("\nemission policy (generation vs output time):\n");
    out.push_str(&table.render());
    out
}

/// Default wall-clock budget note appended by the `reproduce` binary.
pub fn scale_note(scale: BenchScale) -> String {
    format!(
        "(scale = {scale:?}; absolute numbers are hardware- and scale-dependent, the paper's \
claims concern the ratios and their trends)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole experiment suite runs end-to-end at tiny scale.  This keeps
    /// every experiment covered by `cargo test` without taking minutes.
    #[test]
    fn experiments_run_at_tiny_scale() {
        let f5 = figure5(BenchScale::Tiny);
        assert!(f5.contains("DQ1"));
        assert!(f5.contains("IQ1"));
        assert!(f5.contains("UQ1"));

        let f6c = figure6c(BenchScale::Tiny);
        assert!(f6c.contains("A=(T,T,T,L)"));

        let rec = recall(BenchScale::Tiny);
        assert!(rec.contains("Bidirectional"));

        let ano = anomaly(BenchScale::Tiny);
        assert!(ano.contains("explored"));
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(BenchScale::parse("tiny"), Some(BenchScale::Tiny));
        assert_eq!(BenchScale::parse("small"), Some(BenchScale::Small));
        assert_eq!(BenchScale::parse("medium"), Some(BenchScale::Medium));
        assert_eq!(BenchScale::parse("bogus"), None);
        assert!(BenchScale::Tiny.queries_per_cell() < BenchScale::Medium.queries_per_cell());
    }
}
