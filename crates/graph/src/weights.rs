//! Policies controlling how the expanded search graph is derived from the
//! original forward edges.

/// How the weight of a derived backward edge `v -> u` is computed from the
/// weight `w` of the original forward edge `u -> v`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum BackwardWeightPolicy {
    /// The paper's default (Section 2.3):
    /// `w(v -> u) = w(u -> v) * log2(1 + indegree(v))`.
    ///
    /// `indegree(v)` is the in-degree of `v` counting only original forward
    /// edges.  Hubs with many incident edges therefore hand out expensive
    /// backward edges, which discourages spurious shortcut answers through
    /// metadata nodes such as DBLP's "conference" node.
    #[default]
    IndegreeLog,
    /// Backward edges copy the forward weight unchanged.  Corresponds to
    /// treating the graph as undirected (the DBXplorer / Discover model).
    Mirror,
    /// Backward edges get a fixed constant weight regardless of the forward
    /// weight or the indegree.
    Constant(f64),
    /// `w(v -> u) = w(u -> v) * factor * log2(1 + indegree(v))` — the paper's
    /// rule with an additional multiplicative knob, useful for ablations.
    ScaledIndegreeLog(f64),
}

impl BackwardWeightPolicy {
    /// Computes the backward-edge weight for a forward edge of weight
    /// `forward_weight` whose head node has `indegree` incoming forward
    /// edges.
    #[inline]
    pub fn backward_weight(&self, forward_weight: f64, indegree: usize) -> f64 {
        match self {
            BackwardWeightPolicy::IndegreeLog => {
                forward_weight * (1.0 + indegree as f64).log2().max(1.0)
            }
            BackwardWeightPolicy::Mirror => forward_weight,
            BackwardWeightPolicy::Constant(w) => *w,
            BackwardWeightPolicy::ScaledIndegreeLog(factor) => {
                forward_weight * factor * (1.0 + indegree as f64).log2().max(1.0)
            }
        }
    }
}

/// Full set of options used when freezing a [`crate::GraphBuilder`] into a
/// [`crate::DataGraph`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpansionPolicy {
    /// Whether backward edges are materialised at all.  The paper's model
    /// requires them; disabling is useful for experiments on strictly
    /// directed reachability.
    pub add_backward_edges: bool,
    /// How the backward weights are derived.
    pub backward_weight: BackwardWeightPolicy,
    /// Default weight assigned to forward edges added without an explicit
    /// weight (the paper: "defined by the schema, and default to 1").
    pub default_forward_weight: f64,
}

impl Default for ExpansionPolicy {
    fn default() -> Self {
        ExpansionPolicy {
            add_backward_edges: true,
            backward_weight: BackwardWeightPolicy::IndegreeLog,
            default_forward_weight: 1.0,
        }
    }
}

impl ExpansionPolicy {
    /// The paper's configuration (backward edges weighted by
    /// `log2(1 + indegree)`).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// A strictly directed configuration with no backward edges.
    pub fn directed_only() -> Self {
        ExpansionPolicy {
            add_backward_edges: false,
            backward_weight: BackwardWeightPolicy::IndegreeLog,
            default_forward_weight: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indegree_log_grows_with_indegree() {
        let p = BackwardWeightPolicy::IndegreeLog;
        let w1 = p.backward_weight(1.0, 1);
        let w3 = p.backward_weight(1.0, 3);
        let w100 = p.backward_weight(1.0, 100);
        assert!(w1 <= w3 && w3 < w100);
        // log2(1 + 3) = 2
        assert!((w3 - 2.0).abs() < 1e-12);
        // log2(101) ~ 6.658
        assert!((w100 - (101f64).log2()).abs() < 1e-12);
    }

    #[test]
    fn indegree_log_never_cheaper_than_forward() {
        // With indegree 0 the log would be 0; the policy clamps at 1 so a
        // backward edge is never cheaper than its forward counterpart.
        let p = BackwardWeightPolicy::IndegreeLog;
        assert!((p.backward_weight(2.5, 0) - 2.5).abs() < 1e-12);
        assert!((p.backward_weight(2.5, 1) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mirror_and_constant_policies() {
        assert_eq!(BackwardWeightPolicy::Mirror.backward_weight(3.0, 1000), 3.0);
        assert_eq!(
            BackwardWeightPolicy::Constant(7.5).backward_weight(3.0, 1000),
            7.5
        );
    }

    #[test]
    fn scaled_policy_multiplies() {
        let p = BackwardWeightPolicy::ScaledIndegreeLog(2.0);
        let base = BackwardWeightPolicy::IndegreeLog.backward_weight(1.5, 7);
        assert!((p.backward_weight(1.5, 7) - 2.0 * base).abs() < 1e-12);
    }

    #[test]
    fn default_policy_matches_paper() {
        let policy = ExpansionPolicy::default();
        assert!(policy.add_backward_edges);
        assert_eq!(policy.backward_weight, BackwardWeightPolicy::IndegreeLog);
        assert_eq!(policy.default_forward_weight, 1.0);
        assert_eq!(ExpansionPolicy::paper_default(), policy);
    }

    #[test]
    fn preset_policies() {
        assert!(!ExpansionPolicy::directed_only().add_backward_edges);
    }
}
