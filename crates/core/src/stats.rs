//! Search instrumentation.
//!
//! The paper's evaluation (Section 5.2) compares algorithms on three
//! metrics: the *nodes explored* (popped from `Q_in`/`Q_out` and processed),
//! the *nodes touched* (inserted into the queues), and the *time taken*.
//! It further distinguishes, per answer, the *generation time* (when the
//! answer tree was first built) from the *output time* (when the upper-bound
//! logic finally allowed it to be released).  [`SearchStats`] carries all of
//! these, and it is the one record of engine work: a query trace's
//! counters are read from it, so a new engine counter belongs here.

use std::time::Duration;

/// Timing/work marks recorded for a single emitted answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnswerTiming {
    /// Wall-clock time from the start of the search until the answer tree
    /// was generated (inserted into the output heap).
    pub generated_at: Duration,
    /// Wall-clock time until the answer was output (released by the
    /// emission policy).
    pub output_at: Duration,
    /// Number of nodes explored when the answer was generated.
    pub explored_at_generation: usize,
    /// Number of nodes explored when the answer was output.
    pub explored_at_output: usize,
}

/// Aggregate counters of one search run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchStats {
    /// Nodes popped from a frontier queue and processed.
    pub nodes_explored: usize,
    /// Nodes inserted into a frontier queue (the paper's "nodes touched").
    pub nodes_touched: usize,
    /// Directed edges traversed while exploring.
    pub edges_traversed: usize,
    /// Answer trees generated (inserted into the output heap, after
    /// minimality filtering but before deduplication).
    pub answers_generated: usize,
    /// Duplicate answer trees that the output heap collapsed.
    pub duplicates_discarded: usize,
    /// Non-minimal answer trees discarded before reaching the output heap.
    pub non_minimal_discarded: usize,
    /// Answers actually output.
    pub answers_output: usize,
    /// Total wall-clock duration of the search.
    pub duration: Duration,
    /// Whether the search stopped because a safety cap
    /// (`max_explored` / `max_generated`) or the per-answer work budget
    /// (`answer_work_budget`) was hit, or MI-Backward left combinations of
    /// one visit ungenerated past its per-visit cap.
    pub truncated: bool,
    /// Whether the search stopped because its [`crate::CancelToken`] was
    /// cancelled.  A cancelled stream is *not* exhausted: the engine simply
    /// stopped advancing.
    pub cancelled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stats_are_zeroed() {
        let s = SearchStats::default();
        assert_eq!(s.nodes_explored, 0);
        assert_eq!(s.answers_output, 0);
        assert!(!s.truncated);
        assert!(!s.cancelled);
    }
}
