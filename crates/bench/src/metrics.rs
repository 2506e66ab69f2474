//! Per-query measurement helpers shared by all experiments.

use std::time::Duration;

use banks_core::{EngineRegistry, GroundTruth, SearchEngine, SearchOutcome, SearchParams};
use banks_datagen::QueryCase;
use banks_graph::DataGraph;
use banks_prestige::PrestigeVector;
use banks_textindex::{InvertedIndex, KeywordMatches};

/// The three engines compared throughout the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Multi-iterator Backward expanding search (BANKS-I).
    MiBackward,
    /// Single-iterator Backward search (Section 4.6).
    SiBackward,
    /// Bidirectional expanding search (the paper's contribution).
    Bidirectional,
}

impl EngineKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::MiBackward => "MI-Bkwd",
            EngineKind::SiBackward => "SI-Bkwd",
            EngineKind::Bidirectional => "Bidirectional",
        }
    }

    /// The engine's name in [`EngineRegistry::with_default_engines`].
    pub fn registry_name(&self) -> &'static str {
        match self {
            EngineKind::MiBackward => "mi-backward",
            EngineKind::SiBackward => "si-backward",
            EngineKind::Bidirectional => "bidirectional",
        }
    }

    /// Instantiates the engine through the default registry (built once —
    /// this runs inside timed loops).
    pub fn engine(&self) -> Box<dyn SearchEngine> {
        static REGISTRY: std::sync::OnceLock<EngineRegistry> = std::sync::OnceLock::new();
        REGISTRY
            .get_or_init(EngineRegistry::with_default_engines)
            .create(self.registry_name())
            .expect("default registry covers every EngineKind")
    }
}

/// The paper's per-query metrics (Section 5.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryMetrics {
    /// Nodes popped from the frontier queues.
    pub nodes_explored: usize,
    /// Nodes inserted into the frontier queues.
    pub nodes_touched: usize,
    /// Wall-clock time of the whole search.
    pub total_time: Duration,
    /// Time at which the last relevant answer (or the tenth, whichever is
    /// earlier) was *generated*.
    pub generation_time: Duration,
    /// Time at which that answer was *output*.
    pub output_time: Duration,
    /// Time at which the very first answer was output (the paper's
    /// Figure 5/6 time-to-first-answer metric; the full search duration
    /// when no answer was produced).
    pub time_to_first: Duration,
    /// Number of relevant answers found.
    pub relevant_found: usize,
    /// Recall against the case's ground truth.
    pub recall: f64,
    /// Precision over the produced output.
    pub precision: f64,
}

impl QueryMetrics {
    /// Extracts the metrics from a finished search, measuring times at the
    /// last relevant answer exactly as the paper does (falling back to the
    /// full search duration if no relevant answer was produced).
    pub fn from_outcome(outcome: &SearchOutcome, ground_truth: &GroundTruth) -> Self {
        let rp = ground_truth.evaluate(outcome);
        let mut generation_time = outcome.stats.duration;
        let mut output_time = outcome.stats.duration;
        // Identify relevant answers in output order and take the tenth (or
        // last) one as the measurement point.
        let mut relevant_seen = 0usize;
        for answer in &outcome.answers {
            if ground_truth.is_relevant(&answer.tree.nodes()) {
                relevant_seen += 1;
                generation_time = answer.timing.generated_at;
                output_time = answer.timing.output_at;
                if relevant_seen >= 10 {
                    break;
                }
            }
        }
        QueryMetrics {
            nodes_explored: outcome.stats.nodes_explored,
            nodes_touched: outcome.stats.nodes_touched,
            total_time: outcome.stats.duration,
            generation_time,
            output_time,
            time_to_first: outcome
                .time_to_first_answer()
                .unwrap_or(outcome.stats.duration),
            relevant_found: rp.relevant_found,
            recall: rp.recall,
            precision: rp.precision,
        }
    }

    /// Ratio of two durations (other / self), `None` if degenerate.
    pub fn time_ratio(numerator: Duration, denominator: Duration) -> Option<f64> {
        let d = denominator.as_secs_f64();
        if d <= 0.0 {
            None
        } else {
            Some(numerator.as_secs_f64() / d)
        }
    }
}

/// Runs one engine on one workload case and measures it.
pub fn run_engine_on_case(
    kind: EngineKind,
    graph: &DataGraph,
    prestige: &PrestigeVector,
    index: &InvertedIndex,
    case: &QueryCase,
    params: &SearchParams,
) -> QueryMetrics {
    let matches = KeywordMatches::resolve(graph, index, &case.query());
    let ground_truth = GroundTruth::from_sets(case.relevant.clone());
    let outcome = kind.engine().search(graph, prestige, &matches, params);
    QueryMetrics::from_outcome(&outcome, &ground_truth)
}

/// Averages a slice of per-query metrics (times averaged arithmetically).
pub fn average(metrics: &[QueryMetrics]) -> QueryMetrics {
    if metrics.is_empty() {
        return QueryMetrics::default();
    }
    let n = metrics.len() as f64;
    let avg_duration = |f: fn(&QueryMetrics) -> Duration| {
        Duration::from_secs_f64(metrics.iter().map(|m| f(m).as_secs_f64()).sum::<f64>() / n)
    };
    QueryMetrics {
        nodes_explored: (metrics.iter().map(|m| m.nodes_explored).sum::<usize>() as f64 / n)
            as usize,
        nodes_touched: (metrics.iter().map(|m| m.nodes_touched).sum::<usize>() as f64 / n) as usize,
        total_time: avg_duration(|m| m.total_time),
        generation_time: avg_duration(|m| m.generation_time),
        output_time: avg_duration(|m| m.output_time),
        time_to_first: avg_duration(|m| m.time_to_first),
        relevant_found: (metrics.iter().map(|m| m.relevant_found).sum::<usize>() as f64 / n).round()
            as usize,
        recall: metrics.iter().map(|m| m.recall).sum::<f64>() / n,
        precision: metrics.iter().map(|m| m.precision).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_datagen::{DblpConfig, DblpDataset, WorkloadConfig, WorkloadGenerator};

    #[test]
    fn engine_kinds_instantiate_through_the_registry() {
        assert_eq!(EngineKind::MiBackward.name(), "MI-Bkwd");
        assert_eq!(EngineKind::SiBackward.name(), "SI-Bkwd");
        assert_eq!(EngineKind::Bidirectional.name(), "Bidirectional");
        let expected = ["MI-Backward", "SI-Backward", "Bidirectional"];
        for (kind, engine_name) in [
            EngineKind::MiBackward,
            EngineKind::SiBackward,
            EngineKind::Bidirectional,
        ]
        .iter()
        .zip(expected)
        {
            assert_eq!(kind.engine().name(), engine_name);
        }
    }

    #[test]
    fn metrics_from_a_real_query() {
        let data = DblpDataset::generate(DblpConfig::tiny());
        let prestige = PrestigeVector::uniform_for(data.dataset.graph());
        let mut generator = WorkloadGenerator::new(&data, 9);
        let case = generator
            .generate(&WorkloadConfig {
                num_queries: 1,
                num_keywords: 2,
                ..Default::default()
            })
            .into_iter()
            .next()
            .unwrap();
        let metrics = run_engine_on_case(
            EngineKind::Bidirectional,
            data.dataset.graph(),
            &prestige,
            data.dataset.index(),
            &case,
            &SearchParams::with_top_k(20),
        );
        assert!(metrics.nodes_explored > 0);
        assert!(metrics.recall > 0.0);
        assert!(metrics.generation_time <= metrics.output_time);
        assert!(metrics.output_time <= metrics.total_time + Duration::from_millis(1));
        assert!(
            metrics.time_to_first <= metrics.output_time,
            "the first answer cannot be output after the measured relevant answer"
        );
    }

    #[test]
    fn averaging() {
        let a = QueryMetrics {
            nodes_explored: 10,
            recall: 1.0,
            ..Default::default()
        };
        let b = QueryMetrics {
            nodes_explored: 30,
            recall: 0.5,
            ..Default::default()
        };
        let avg = average(&[a, b]);
        assert_eq!(avg.nodes_explored, 20);
        assert!((avg.recall - 0.75).abs() < 1e-12);
        assert_eq!(average(&[]).nodes_explored, 0);
        assert_eq!(
            QueryMetrics::time_ratio(Duration::from_secs(2), Duration::from_secs(1)),
            Some(2.0)
        );
        assert_eq!(
            QueryMetrics::time_ratio(Duration::from_secs(2), Duration::ZERO),
            None
        );
    }
}
