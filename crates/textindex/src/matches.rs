//! Per-keyword origin sets (`S_i`) — the interface between the index and the
//! search algorithms.

use banks_graph::{DataGraph, NodeId};

use crate::index::InvertedIndex;
use crate::query::Query;

/// The resolved matches of a query against an index: for every keyword `t_i`
/// the origin set `S_i` of nodes matching it.
///
/// The search algorithms only ever consume this structure, so alternative
/// match sources (e.g. the relational layer's selections, or hand-built sets
/// in unit tests) can construct it directly with
/// [`KeywordMatches::from_sets`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeywordMatches {
    /// The (normalised) keywords, in query order.
    keywords: Vec<String>,
    /// `sets[i]` is the sorted, deduplicated origin set of keyword `i`.
    sets: Vec<Vec<NodeId>>,
}

impl KeywordMatches {
    /// Resolves a query against an inverted index and graph.  The query is
    /// normalized with the index's tokenizer first — callers that already
    /// normalized (to compute a cache key, say) should use
    /// [`KeywordMatches::resolve_normalized`] so normalization happens in
    /// exactly one place.
    pub fn resolve(graph: &DataGraph, index: &InvertedIndex, query: &Query) -> Self {
        Self::resolve_normalized(graph, index, &query.normalized(index.tokenizer()))
    }

    /// Resolves an **already-normalized** query against an inverted index
    /// and graph, without normalizing again.
    pub fn resolve_normalized(graph: &DataGraph, index: &InvertedIndex, query: &Query) -> Self {
        let mut keywords = Vec::with_capacity(query.len());
        let mut sets = Vec::with_capacity(query.len());
        for keyword in query.keywords() {
            keywords.push(keyword.clone());
            sets.push(index.matching_nodes(graph, keyword));
        }
        KeywordMatches { keywords, sets }
    }

    /// Builds matches directly from keyword → node-set pairs (sets are
    /// sorted and deduplicated here).
    pub fn from_sets<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, Vec<NodeId>)>,
        S: Into<String>,
    {
        let mut keywords = Vec::new();
        let mut sets = Vec::new();
        for (k, mut nodes) in pairs {
            nodes.sort_unstable();
            nodes.dedup();
            keywords.push(k.into());
            sets.push(nodes);
        }
        KeywordMatches { keywords, sets }
    }

    /// Number of keywords.
    pub fn num_keywords(&self) -> usize {
        self.keywords.len()
    }

    /// True when the query had no keywords.
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }

    /// The normalised keyword strings.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// Origin set `S_i`.
    pub fn origin_set(&self, i: usize) -> &[NodeId] {
        &self.sets[i]
    }

    /// Sizes of every origin set, in keyword order.
    pub fn origin_sizes(&self) -> Vec<usize> {
        self.sets.iter().map(Vec::len).collect()
    }

    /// True when every keyword matched at least one node (a necessary
    /// condition for any answer to exist).
    pub fn all_keywords_matched(&self) -> bool {
        !self.is_empty() && self.sets.iter().all(|s| !s.is_empty())
    }

    /// Union of all origin sets, deduplicated (the paper's `S`).
    pub fn all_origin_nodes(&self) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.sets.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Largest origin-set size (used by the workload classifier: the paper's
    /// "large origin" queries are those where some keyword matches more than
    /// 8000 records).
    pub fn max_origin_size(&self) -> usize {
        self.sets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Smallest origin-set size.
    pub fn min_origin_size(&self) -> usize {
        self.sets.iter().map(Vec::len).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use banks_graph::GraphBuilder;

    fn setup() -> (DataGraph, InvertedIndex) {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node("author", "James Smith");
        let a2 = b.add_node("author", "John Doe");
        let p1 = b.add_node("paper", "Database systems");
        let p2 = b.add_node("paper", "Database recovery");
        b.add_edge(p1, a1).unwrap();
        b.add_edge(p2, a2).unwrap();
        let g = b.build_default();
        let mut ib = IndexBuilder::new();
        for n in g.nodes() {
            ib.add_text(n, g.node_label(n));
        }
        (g, ib.build())
    }

    #[test]
    fn resolve_produces_per_keyword_sets() {
        let (g, idx) = setup();
        let q = Query::parse("Database James John");
        let m = KeywordMatches::resolve(&g, &idx, &q);
        assert_eq!(m.num_keywords(), 3);
        assert_eq!(m.origin_set(0), &[NodeId(2), NodeId(3)]);
        assert_eq!(m.origin_set(1), &[NodeId(0)]);
        assert_eq!(m.origin_set(2), &[NodeId(1)]);
        assert_eq!(m.origin_sizes(), vec![2, 1, 1]);
        assert!(m.all_keywords_matched());
        assert_eq!(m.max_origin_size(), 2);
        assert_eq!(m.min_origin_size(), 1);
        assert_eq!(
            m.all_origin_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn unmatched_keyword_detected() {
        let (g, idx) = setup();
        let q = Query::parse("Database nonexistentterm");
        let m = KeywordMatches::resolve(&g, &idx, &q);
        assert!(!m.all_keywords_matched());
        assert_eq!(m.min_origin_size(), 0);
    }

    #[test]
    fn from_sets_sorts_and_dedups() {
        let m = KeywordMatches::from_sets(vec![("a", vec![NodeId(5), NodeId(1), NodeId(5)])]);
        assert_eq!(m.origin_set(0), &[NodeId(1), NodeId(5)]);
    }

    #[test]
    fn empty_matches() {
        let m = KeywordMatches::from_sets(Vec::<(String, Vec<NodeId>)>::new());
        assert!(m.is_empty());
        assert!(!m.all_keywords_matched());
        assert_eq!(m.max_origin_size(), 0);
    }
}
