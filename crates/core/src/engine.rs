//! The common engine interface shared by all three search algorithms.
//!
//! Engines are *streaming*: the primitive operation is
//! [`SearchEngine::start`], which returns a lazily evaluated
//! [`AnswerStream`].  The batch entry point [`SearchEngine::search`] is a
//! default method that drains the stream, so existing batch callers keep
//! working unchanged while streaming callers gain early termination and
//! live statistics.

use std::time::Duration;

use banks_graph::DataGraph;
use banks_prestige::PrestigeVector;
use banks_textindex::KeywordMatches;

use crate::answer::AnswerTree;
use crate::params::SearchParams;
use crate::stats::{AnswerTiming, SearchStats};
use crate::stream::{drain, AnswerStream, QueryContext};

/// An answer together with its emission timing.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedAnswer {
    /// Rank in output order (0-based).
    pub rank: usize,
    /// The answer tree.
    pub tree: AnswerTree,
    /// When/at what cost the answer was generated and output.
    pub timing: AnswerTiming,
}

/// The result of one search run: the answers in output order plus the
/// instrumentation counters.
#[derive(Clone, Debug, Default)]
pub struct SearchOutcome {
    /// Output answers in emission order (best effort score order, subject to
    /// the emission policy).
    pub answers: Vec<RankedAnswer>,
    /// Aggregate work counters.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// Signatures (distinct node sets) of the output answers, useful for
    /// comparing the answer sets of different algorithms.
    pub fn signatures(&self) -> Vec<Vec<banks_graph::NodeId>> {
        self.answers.iter().map(|a| a.tree.signature()).collect()
    }

    /// The best (highest) score among output answers.
    pub fn best_score(&self) -> Option<f64> {
        self.answers
            .iter()
            .map(|a| a.tree.score)
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s))))
    }

    /// Wall-clock time from the start of the search until the first answer
    /// was output (the paper's Figure 5/6 time-to-first-answer metric).
    /// `None` when the search produced no answers.
    pub fn time_to_first_answer(&self) -> Option<Duration> {
        self.answers.first().map(|a| a.timing.output_at)
    }
}

/// A keyword-search engine over a data graph.
///
/// Implementors provide [`SearchEngine::start`], a resumable step machine
/// behind an [`AnswerStream`]; the batch [`SearchEngine::search`] falls out
/// as "drain the stream" and needs no separate implementation.
pub trait SearchEngine {
    /// Short name used in benchmark tables ("Bidirectional", "SI-Backward",
    /// "MI-Backward").
    fn name(&self) -> &'static str;

    /// Starts a search and returns the lazy answer stream driving it.
    ///
    /// Each [`Iterator::next`] call on the stream advances expansion only
    /// until the next answer clears the emission policy, so callers can
    /// stop early (`take(1)`, drop) without paying for the full search.
    fn start<'a>(&self, ctx: QueryContext<'a>) -> Box<dyn AnswerStream + 'a>;

    /// Runs the search to completion and returns the top answers plus
    /// statistics (the legacy batch entry point, kept so existing callers
    /// migrate mechanically).
    fn search(
        &self,
        graph: &DataGraph,
        prestige: &PrestigeVector,
        matches: &KeywordMatches,
        params: &SearchParams,
    ) -> SearchOutcome {
        drain(self.start(QueryContext::new(graph, prestige, matches, *params)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::ScoreModel;
    use banks_graph::NodeId;
    use banks_prestige::PrestigeVector;
    use std::time::Duration;

    fn dummy_outcome() -> SearchOutcome {
        let g = banks_graph::builder::graph_from_edges(3, &[(2, 0), (2, 1)]);
        let p = PrestigeVector::uniform_for(&g);
        let model = ScoreModel::paper_default();
        let tree = AnswerTree::new(
            NodeId(2),
            vec![vec![NodeId(2), NodeId(0)], vec![NodeId(2), NodeId(1)]],
            &g,
            &p,
            &model,
        );
        let timing = AnswerTiming {
            generated_at: Duration::from_millis(1),
            output_at: Duration::from_millis(2),
            explored_at_generation: 3,
            explored_at_output: 4,
        };
        SearchOutcome {
            answers: vec![RankedAnswer {
                rank: 0,
                tree,
                timing,
            }],
            stats: SearchStats::default(),
        }
    }

    #[test]
    fn outcome_accessors() {
        let o = dummy_outcome();
        assert_eq!(o.signatures(), vec![vec![NodeId(0), NodeId(1), NodeId(2)]]);
        assert!(o.best_score().unwrap() > 0.0);
        let empty = SearchOutcome::default();
        assert!(empty.best_score().is_none());
    }

    #[test]
    fn time_to_answer_helpers() {
        let o = dummy_outcome();
        assert_eq!(o.time_to_first_answer(), Some(Duration::from_millis(2)));
        assert_eq!(SearchOutcome::default().time_to_first_answer(), None);
    }
}
