//! The weight of the backward edge the paper derives from every original
//! forward edge (Section 2.3).

/// The weight of the backward edge `v -> u` derived from a forward edge
/// `u -> v` of weight `forward_weight` whose head `v` has `indegree`
/// incoming forward edges: `forward_weight · log2(1 + indegree)`.
///
/// Hubs with many incident edges therefore hand out expensive backward
/// edges, which discourages spurious shortcut answers through metadata
/// nodes such as DBLP's "conference" node.  The logarithm is clamped at 1,
/// so a backward edge is never cheaper than its forward edge.
#[inline]
pub fn backward_weight(forward_weight: f64, indegree: usize) -> f64 {
    forward_weight * (1.0 + indegree as f64).log2().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indegree_log_grows_with_indegree() {
        let w1 = backward_weight(1.0, 1);
        let w3 = backward_weight(1.0, 3);
        let w100 = backward_weight(1.0, 100);
        assert!(w1 <= w3 && w3 < w100);
        // log2(1 + 3) = 2
        assert!((w3 - 2.0).abs() < 1e-12);
        // log2(101) ~ 6.658
        assert!((w100 - (101f64).log2()).abs() < 1e-12);
    }

    #[test]
    fn indegree_log_never_cheaper_than_forward() {
        // With indegree 0 the log would be 0; the rule clamps at 1 so a
        // backward edge is never cheaper than its forward counterpart.
        assert!((backward_weight(2.5, 0) - 2.5).abs() < 1e-12);
        assert!((backward_weight(2.5, 1) - 2.5).abs() < 1e-12);
    }
}
