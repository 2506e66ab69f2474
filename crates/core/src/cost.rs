//! A priori query cost estimation for admission scheduling.
//!
//! The BANKS paper targets *interactive* keyword search: the user is waiting,
//! and a two-keyword author query should never sit behind a four-keyword
//! citation trawl that happens to have been submitted first.  A serving tier
//! that wants shortest-expected-work-first scheduling therefore needs a cost
//! estimate **before** any engine runs — after execution the true cost is
//! known ([`crate::SearchStats::nodes_explored`]), but by then the queueing
//! decision is history.
//!
//! [`QueryCost::estimate`] predicts the work of a query from exactly the
//! information available at admission time:
//!
//! * the **resolved origin sets** (`S_i`) — frequent keywords seed wide
//!   frontiers; the paper's own evaluation (Section 5.6) classifies queries
//!   by origin size for the same reason,
//! * the **search parameters** — `top_k` scales how long the engine keeps
//!   expanding, and the explicit work caps (`max_explored`,
//!   `answer_work_budget`) bound the worst case outright,
//! * the **engine** — the multi-iterator Backward search explores a
//!   multiple of what Bidirectional explores on the same query (Figures 5
//!   and 6 of the paper measure precisely this ratio).
//!
//! The estimate is measured in *expected nodes explored*, the same unit as
//! [`crate::SearchStats::nodes_explored`] and
//! [`crate::SearchParams::answer_work_budget`], so schedulers can mix
//! estimates, budgets and measurements freely.  It is deterministic (pure
//! integer arithmetic over the inputs) — two identical submissions always
//! produce the same estimate, which keeps scheduler tests and replayed
//! workloads reproducible.

use banks_textindex::KeywordMatches;

use crate::params::SearchParams;

/// Per-answer expansion factor assumed when no tighter bound is available:
/// each requested answer is expected to cost about this many node
/// explorations beyond the initial frontier.
const WORK_PER_ANSWER: u64 = 16;

/// An a priori estimate of the work a query will perform, computed at
/// admission time from the resolved keyword matches, the search parameters
/// and the engine choice.
///
/// ```
/// use banks_core::{QueryCost, SearchParams};
/// use banks_graph::NodeId;
/// use banks_textindex::KeywordMatches;
///
/// let narrow = KeywordMatches::from_sets(vec![("gray", vec![NodeId(0)])]);
/// let wide = KeywordMatches::from_sets(vec![(
///     "database",
///     (0..500).map(NodeId).collect(),
/// )]);
/// let params = SearchParams::default();
/// let cheap = QueryCost::estimate(&narrow, &params, "bidirectional");
/// let dear = QueryCost::estimate(&wide, &params, "bidirectional");
/// assert!(cheap.estimated_work < dear.estimated_work);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryCost {
    /// Total size of the origin sets (`Σ |S_i|`), the seed frontier the
    /// engine starts from.  At least 1 even for queries matching nothing, so
    /// downstream ratios never divide by zero.
    pub origin_nodes: u64,
    /// Expected nodes explored, in the same unit as
    /// [`crate::SearchStats::nodes_explored`].  Always at least 1.
    pub estimated_work: u64,
}

impl QueryCost {
    /// Estimates the cost of running `matches` under `params` on the engine
    /// registered as `engine` (its [`crate::EngineRegistry::canonical`]
    /// name; any other name, an alias included, is treated like the
    /// mid-cost single-iterator backward search).
    ///
    /// The model, in order:
    ///
    /// 1. `origin = Σ |S_i|` (clamped to ≥ 1) — the seed frontier.
    /// 2. `work = origin × (1 + top_k × 16)` — expansion grows with the
    ///    number of answers the engine must keep producing.
    /// 3. Multiply by the engine factor: ×1 for `bidirectional` (and its
    ///    ablations), ×2 for `si-backward`, ×4 for `mi-backward` — the
    ///    coarse shape of the paper's measured exploration ratios.
    /// 4. Clamp to the explicit caps when present: `max_explored`, and
    ///    `origin + top_k × answer_work_budget` (the budget bounds the work
    ///    *between* emissions, so `top_k` budgets plus the seed frontier
    ///    bound the whole run).
    pub fn estimate(matches: &KeywordMatches, params: &SearchParams, engine: &str) -> Self {
        let origin_nodes = matches
            .origin_sizes()
            .iter()
            .map(|&s| s as u64)
            .sum::<u64>()
            .max(1);
        let answers = params.top_k as u64;
        let mut work = origin_nodes.saturating_mul(1 + answers.saturating_mul(WORK_PER_ANSWER));
        work = work.saturating_mul(engine_factor(engine));
        if let Some(cap) = params.max_explored {
            work = work.min((cap as u64).max(1));
        }
        if let Some(budget) = params.answer_work_budget {
            let budgeted = origin_nodes.saturating_add(answers.saturating_mul(budget as u64));
            work = work.min(budgeted.max(1));
        }
        QueryCost {
            origin_nodes,
            estimated_work: work.max(1),
        }
    }
}

/// Relative exploration cost of the registered engines, normalised to
/// Bidirectional = 1.  Matches the coarse shape of the paper's Figure 6
/// ratios (MI-Backward ≫ SI-Backward > Bidirectional).  Takes the
/// registry's canonical name ([`crate::EngineRegistry::canonical`]);
/// anything else prices like the middle of the range.
fn engine_factor(engine: &str) -> u64 {
    match engine {
        "bidirectional" | "bidirectional-no-activation" => 1,
        "si-backward" | "backward-activation" => 2,
        "mi-backward" => 4,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::NodeId;

    fn matches(sizes: &[usize]) -> KeywordMatches {
        KeywordMatches::from_sets(sizes.iter().enumerate().map(|(i, &n)| {
            (
                format!("k{i}"),
                (0..n).map(|j| NodeId((i * 10_000 + j) as u32)).collect(),
            )
        }))
    }

    #[test]
    fn monotone_in_origin_sizes_and_top_k() {
        let params = SearchParams::default();
        let small = QueryCost::estimate(&matches(&[2, 3]), &params, "bidirectional");
        let large = QueryCost::estimate(&matches(&[200, 300]), &params, "bidirectional");
        assert_eq!(small.origin_nodes, 5);
        assert_eq!(large.origin_nodes, 500);
        assert!(small.estimated_work < large.estimated_work);

        let k1 = QueryCost::estimate(
            &matches(&[10]),
            &SearchParams::with_top_k(1),
            "bidirectional",
        );
        let k50 = QueryCost::estimate(
            &matches(&[10]),
            &SearchParams::with_top_k(50),
            "bidirectional",
        );
        assert!(k1.estimated_work < k50.estimated_work);
    }

    #[test]
    fn engine_ordering_matches_the_paper() {
        let params = SearchParams::default();
        let m = matches(&[20, 20]);
        let bidir = QueryCost::estimate(&m, &params, "bidirectional").estimated_work;
        let si = QueryCost::estimate(&m, &params, "si-backward").estimated_work;
        let mi = QueryCost::estimate(&m, &params, "mi-backward").estimated_work;
        assert!(bidir < si && si < mi, "{bidir} {si} {mi}");
        // only canonical names are priced: an alias or an unknown engine
        // prices like the middle of the range
        for other in ["MI_Backward", "mi", "quantum"] {
            assert_eq!(
                QueryCost::estimate(&m, &params, other).estimated_work,
                si,
                "{other}"
            );
        }
    }

    #[test]
    fn explicit_caps_bound_the_estimate() {
        let m = matches(&[1000, 1000]);
        let capped = QueryCost::estimate(
            &m,
            &SearchParams::default().max_explored(777),
            "mi-backward",
        );
        assert_eq!(capped.estimated_work, 777);

        let budgeted = QueryCost::estimate(
            &m,
            &SearchParams::with_top_k(10).answer_work_budget(5),
            "mi-backward",
        );
        // origin (2000) + top_k * budget (50)
        assert_eq!(budgeted.estimated_work, 2050);
    }

    #[test]
    fn degenerate_queries_cost_at_least_one_unit() {
        let empty = KeywordMatches::from_sets(Vec::<(String, Vec<NodeId>)>::new());
        let cost = QueryCost::estimate(&empty, &SearchParams::with_top_k(0), "bidirectional");
        assert_eq!(cost.origin_nodes, 1);
        assert!(cost.estimated_work >= 1);
        let zero_cap = QueryCost::estimate(
            &matches(&[5]),
            &SearchParams::default().max_explored(0),
            "bidirectional",
        );
        assert!(zero_cap.estimated_work >= 1);
    }

    #[test]
    fn estimates_are_deterministic() {
        let m = matches(&[17, 3]);
        let p = SearchParams::with_top_k(7).answer_work_budget(100);
        assert_eq!(
            QueryCost::estimate(&m, &p, "si-backward"),
            QueryCost::estimate(&m, &p, "si-backward")
        );
    }
}
