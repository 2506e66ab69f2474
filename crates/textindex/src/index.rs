//! The inverted index mapping terms to node posting lists.
//!
//! The index is an immutable value, but not a dead end: mutations to the
//! graph propagate through [`InvertedIndex::apply_delta`], which
//! re-tokenizes only the nodes whose text actually changed and rebuilds
//! only the posting lists of affected terms.  Untouched lists are shared
//! (`Arc`) between the old and new index, so a delta costs
//! O(touched terms + map clone), not O(total postings).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use banks_graph::{DataGraph, KindId, NodeId};

use crate::tokenizer::Tokenizer;

/// Statistics about a single indexed term.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TermStats {
    /// Number of distinct nodes whose text contains the term.
    pub node_frequency: usize,
    /// Total number of occurrences posted (before per-node deduplication this
    /// equals the collection frequency; we post each node once, so this is
    /// the same as `node_frequency`).
    pub postings: usize,
}

/// Builder accumulating postings before freezing into an [`InvertedIndex`].
#[derive(Debug, Default)]
pub struct IndexBuilder {
    postings: HashMap<String, Vec<NodeId>>,
    /// Relation-name pseudo terms: term -> kind ids whose *entire* node set
    /// matches the term.
    kind_terms: HashMap<String, Vec<KindId>>,
    /// The lower-casing buffer [`IndexBuilder::add_text`] reuses per token.
    term: String,
}

impl IndexBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes one attribute text for a node.  May be called repeatedly for
    /// the same node (e.g. one call per string attribute).
    ///
    /// Each token is lower-cased into one reused buffer and looked up by
    /// `&str`; a key is allocated only for a term seen for the first time.
    /// A node already at the end of the term's list is not pushed again,
    /// and [`IndexBuilder::build`] removes whatever repeats remain.
    pub fn add_text(&mut self, node: NodeId, text: &str) {
        for raw in Tokenizer::raw_tokens(text) {
            Tokenizer::normalize_into(raw, &mut self.term);
            match self.postings.get_mut(self.term.as_str()) {
                Some(list) => {
                    if list.last() != Some(&node) {
                        list.push(node);
                    }
                }
                None => {
                    self.postings.insert(self.term.clone(), vec![node]);
                }
            }
        }
    }

    /// Registers a relation (kind) name so that a query term equal to the
    /// name matches every node of that kind, as in the paper's query model.
    pub fn add_relation_name(&mut self, name: &str, kind: KindId) {
        for term in Tokenizer.tokenize_unique(name) {
            self.kind_terms.entry(term).or_default().push(kind);
        }
    }

    /// Number of distinct terms accumulated so far (excluding relation-name
    /// pseudo terms).
    pub fn num_terms(&self) -> usize {
        self.postings.len()
    }

    /// Freezes the builder: posting lists are sorted, deduplicated and
    /// frozen behind `Arc`s (so index deltas can share untouched lists).
    pub fn build(self) -> InvertedIndex {
        let IndexBuilder {
            postings,
            kind_terms,
            term: _,
        } = self;
        let mut index: HashMap<Arc<str>, Arc<[NodeId]>> = HashMap::with_capacity(postings.len());
        for (term, mut nodes) in postings {
            nodes.sort_unstable();
            nodes.dedup();
            index.insert(Arc::from(term.as_str()), nodes.into());
        }
        let mut kinds: HashMap<String, Box<[KindId]>> = HashMap::with_capacity(kind_terms.len());
        for (term, mut ids) in kind_terms {
            ids.sort_unstable();
            ids.dedup();
            kinds.insert(term, ids.into_boxed_slice());
        }
        InvertedIndex {
            postings: index,
            kind_terms: kinds,
        }
    }
}

fn is_strictly_ascending(nodes: &[NodeId]) -> bool {
    nodes.windows(2).all(|w| w[0] < w[1])
}

/// Immutable inverted index: term → sorted, deduplicated posting list.
///
/// Posting lists — and the term strings keying them — are `Arc`-shared,
/// so cloning the index (and producing a successor via
/// [`InvertedIndex::apply_delta`]) shares every untouched posting list
/// and term string structurally.  The term → list map itself is copied,
/// though: a delta allocates a fresh table the size of the vocabulary and
/// bumps one refcount pair per term, so its cost is O(vocabulary) plus
/// the touched terms' lists, however small the delta.
#[derive(Clone, Debug)]
pub struct InvertedIndex {
    postings: HashMap<Arc<str>, Arc<[NodeId]>>,
    kind_terms: HashMap<String, Box<[KindId]>>,
}

/// One node's text change, in the form [`InvertedIndex::apply_delta`]
/// consumes: what the index currently holds for the node (`old`) and what
/// it should hold (`new`).  `old` must be exactly the texts originally
/// indexed for the node — for the label indexes the serving tier builds,
/// that is the node's pre-mutation label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextChange {
    /// The node whose text changed.
    pub node: NodeId,
    /// The texts previously indexed for this node (empty for new nodes).
    pub old: Vec<String>,
    /// The texts to index now (empty to remove the node's text).
    pub new: Vec<String>,
}

/// The input to [`InvertedIndex::apply_delta`]: per-node text changes plus
/// any relation names the mutation introduced.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TextDelta {
    /// Per-node text changes.
    pub changes: Vec<TextChange>,
    /// Newly-registered relation (kind) names, matched as pseudo terms.
    pub new_relations: Vec<(String, KindId)>,
}

impl InvertedIndex {
    /// The tokenizer the index was built with (queries must use the same
    /// normalisation).
    pub fn tokenizer(&self) -> &Tokenizer {
        &Tokenizer
    }

    /// Number of distinct indexed terms (excluding relation-name pseudo
    /// terms).
    pub fn num_terms(&self) -> usize {
        self.postings.len()
    }

    /// Direct posting-list lookup for an already-normalised single term.
    /// Does not include relation-name expansion.
    pub fn postings(&self, term: &str) -> &[NodeId] {
        self.postings.get(term).map(|b| &**b).unwrap_or(&[])
    }

    /// Kinds whose relation name matches the term.
    pub fn kinds_for_term(&self, term: &str) -> &[KindId] {
        self.kind_terms.get(term).map(|b| &**b).unwrap_or(&[])
    }

    /// Statistics for a term (`None` if the term is not in the vocabulary).
    pub fn term_stats(&self, term: &str) -> Option<TermStats> {
        self.postings.get(term).map(|p| TermStats {
            node_frequency: p.len(),
            postings: p.len(),
        })
    }

    /// Iterates over the vocabulary in arbitrary order.
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.postings.keys().map(|s| &**s)
    }

    /// Iterates over the relation-name pseudo terms and the kinds they
    /// match, in arbitrary order.  (Serialization surface — the regular
    /// query path goes through [`InvertedIndex::kinds_for_term`].)
    pub fn kind_terms(&self) -> impl Iterator<Item = (&str, &[KindId])> {
        self.kind_terms.iter().map(|(term, ids)| (&**term, &**ids))
    }

    /// Reassembles an index from lists previously obtained via
    /// [`InvertedIndex::terms`] / [`InvertedIndex::postings`] /
    /// [`InvertedIndex::kind_terms`], skipping tokenization entirely.
    ///
    /// Posting lists arrive in their final shared form and are kept as
    /// they are when strictly ascending — what every real index produced.
    /// Anything else is sorted and deduplicated into a fresh list, empty
    /// lists are dropped, and a repeated term keeps its last non-empty
    /// list, so malformed input degrades to a valid index rather than
    /// breaking the sorted-list invariants lookups rely on.
    pub fn from_raw_parts(
        postings: Vec<(Arc<str>, Arc<[NodeId]>)>,
        kind_terms: Vec<(String, Vec<KindId>)>,
    ) -> InvertedIndex {
        let mut index: HashMap<Arc<str>, Arc<[NodeId]>> = HashMap::with_capacity(postings.len());
        for (term, mut nodes) in postings {
            if !is_strictly_ascending(&nodes) {
                let mut sorted = nodes.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                nodes = sorted.into();
            }
            if !nodes.is_empty() {
                index.insert(term, nodes);
            }
        }
        let mut kinds: HashMap<String, Box<[KindId]>> = HashMap::with_capacity(kind_terms.len());
        for (term, mut ids) in kind_terms {
            ids.sort_unstable();
            ids.dedup();
            if !ids.is_empty() {
                kinds.insert(term, ids.into_boxed_slice());
            }
        }
        InvertedIndex {
            postings: index,
            kind_terms: kinds,
        }
    }

    /// Computes the set of nodes matching a (possibly multi-word / phrase)
    /// keyword.  A phrase keyword such as `"david fernandez"` matches nodes
    /// that contain *all* of its words (conjunctive semantics, which is how
    /// the paper's sample queries like DQ1 are phrased).  If the keyword also
    /// matches a relation name, every node of that relation is added
    /// (requires the `graph` to enumerate the kind's nodes).
    pub fn matching_nodes(&self, graph: &DataGraph, keyword: &str) -> Vec<NodeId> {
        let terms = Tokenizer.tokenize(keyword);
        if terms.is_empty() {
            return Vec::new();
        }

        // Conjunction over the phrase's words: intersect posting lists,
        // starting with the smallest (the classic IR trick the paper cites).
        let mut lists: Vec<&[NodeId]> = terms.iter().map(|t| self.postings(t)).collect();
        lists.sort_by_key(|l| l.len());
        let mut result: Vec<NodeId> = if lists.iter().any(|l| l.is_empty()) {
            Vec::new()
        } else {
            let mut acc: Vec<NodeId> = lists[0].to_vec();
            for list in &lists[1..] {
                acc = intersect_sorted(&acc, list);
                if acc.is_empty() {
                    break;
                }
            }
            acc
        };

        // Relation-name matches: single-word keywords only (the paper's
        // example is a term equal to a table name).
        if terms.len() == 1 {
            for kind in self.kinds_for_term(&terms[0]) {
                result.extend(graph.nodes_of_kind(*kind));
            }
        }
        result.sort_unstable();
        result.dedup();
        result
    }

    /// Approximate memory footprint of the posting lists in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.postings
            .iter()
            .map(|(term, nodes)| term.len() + nodes.len() * std::mem::size_of::<NodeId>())
            .sum()
    }

    /// Applies a text delta, producing a successor index equivalent to
    /// rebuilding from scratch over the post-change texts.
    ///
    /// Only the nodes named in the delta are re-tokenized, and only the
    /// posting lists of terms whose membership actually changed are
    /// rebuilt; every other list is `Arc`-shared with `self`.  The
    /// equivalence contract — `apply_delta` result == full rebuild — holds
    /// as long as each change's `old` texts match what was originally
    /// indexed for that node (see [`TextChange`]); it is asserted by the
    /// randomized mutation-equivalence suite.
    pub fn apply_delta(&self, delta: &TextDelta) -> InvertedIndex {
        // Per term: nodes leaving and nodes entering the posting list.
        let mut removals: BTreeMap<String, BTreeSet<NodeId>> = BTreeMap::new();
        let mut additions: BTreeMap<String, BTreeSet<NodeId>> = BTreeMap::new();
        for change in &delta.changes {
            let old_terms: BTreeSet<String> = change
                .old
                .iter()
                .flat_map(|text| Tokenizer.tokenize_unique(text))
                .collect();
            let new_terms: BTreeSet<String> = change
                .new
                .iter()
                .flat_map(|text| Tokenizer.tokenize_unique(text))
                .collect();
            for term in old_terms.difference(&new_terms) {
                removals
                    .entry(term.clone())
                    .or_default()
                    .insert(change.node);
            }
            for term in new_terms.difference(&old_terms) {
                additions
                    .entry(term.clone())
                    .or_default()
                    .insert(change.node);
            }
        }

        let mut postings = self.postings.clone();
        let affected: BTreeSet<&String> = removals.keys().chain(additions.keys()).collect();
        for term in affected {
            let removed = removals.get(term);
            let added = additions.get(term);
            let old_list = postings.get(term.as_str()).map(|l| &**l).unwrap_or(&[]);
            let mut list: Vec<NodeId> = old_list
                .iter()
                .filter(|n| removed.is_none_or(|r| !r.contains(n)))
                .copied()
                .collect();
            if let Some(added) = added {
                list.extend(added.iter().copied());
                list.sort_unstable();
                list.dedup();
            }
            if list.is_empty() {
                postings.remove(term.as_str());
            } else {
                postings.insert(Arc::from(term.as_str()), list.into());
            }
        }

        let mut kind_terms = self.kind_terms.clone();
        for (name, kind) in &delta.new_relations {
            for term in Tokenizer.tokenize_unique(name) {
                let mut ids: Vec<KindId> = kind_terms
                    .get(&term)
                    .map(|k| k.to_vec())
                    .unwrap_or_default();
                ids.push(*kind);
                ids.sort_unstable();
                ids.dedup();
                kind_terms.insert(term, ids.into_boxed_slice());
            }
        }

        InvertedIndex {
            postings,
            kind_terms,
        }
    }
}

/// Intersects two sorted, deduplicated node lists.
fn intersect_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::GraphBuilder;

    fn tiny_graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node("author", "David Fernandez");
        let a2 = b.add_node("author", "Giora Fernandez");
        let p1 = b.add_node("paper", "Parametric query optimization");
        let p2 = b.add_node("paper", "Database recovery");
        b.add_edge(p1, a1).unwrap();
        b.add_edge(p2, a2).unwrap();
        b.build_default()
    }

    fn build_index(graph: &DataGraph) -> InvertedIndex {
        let mut ib = IndexBuilder::new();
        for node in graph.nodes() {
            ib.add_text(node, graph.node_label(node));
        }
        for kind_name in ["author", "paper"] {
            let kind = graph.kind_by_name(kind_name).unwrap();
            ib.add_relation_name(kind_name, kind);
        }
        ib.build()
    }

    #[test]
    fn single_term_lookup() {
        let g = tiny_graph();
        let idx = build_index(&g);
        assert_eq!(idx.postings("fernandez"), &[NodeId(0), NodeId(1)]);
        assert_eq!(idx.postings("recovery"), &[NodeId(3)]);
        assert!(idx.postings("nonexistent").is_empty());
        assert_eq!(idx.term_stats("fernandez").unwrap().node_frequency, 2);
        assert!(idx.term_stats("nonexistent").is_none());
    }

    #[test]
    fn phrase_keywords_intersect() {
        let g = tiny_graph();
        let idx = build_index(&g);
        assert_eq!(
            idx.matching_nodes(&g, "\"David Fernandez\""),
            vec![NodeId(0)]
        );
        assert_eq!(idx.matching_nodes(&g, "Giora Fernandez"), vec![NodeId(1)]);
        assert!(idx.matching_nodes(&g, "David Giora").is_empty());
    }

    #[test]
    fn relation_name_matches_all_tuples() {
        let g = tiny_graph();
        let idx = build_index(&g);
        let papers = idx.matching_nodes(&g, "paper");
        assert_eq!(papers, vec![NodeId(2), NodeId(3)]);
        // 'author' matches both author tuples via the kind pseudo-term
        let authors = idx.matching_nodes(&g, "author");
        assert_eq!(authors, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn relation_and_text_matches_are_merged() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node("paper", "a paper about papers");
        let _n1 = b.add_node("author", "someone");
        let g = b.build_default();
        let mut ib = IndexBuilder::new();
        ib.add_text(n0, g.node_label(n0));
        ib.add_relation_name("paper", g.kind_by_name("paper").unwrap());
        let idx = ib.build();
        // 'paper' matches node 0 both via text and via the relation name;
        // result must be deduplicated.
        assert_eq!(idx.matching_nodes(&g, "paper"), vec![NodeId(0)]);
    }

    #[test]
    fn duplicate_postings_are_deduplicated() {
        let mut ib = IndexBuilder::new();
        ib.add_text(NodeId(5), "database systems");
        ib.add_text(NodeId(5), "database recovery");
        ib.add_text(NodeId(2), "database theory");
        let idx = ib.build();
        assert_eq!(idx.postings("database"), &[NodeId(2), NodeId(5)]);
    }

    #[test]
    fn empty_keyword_matches_nothing() {
        let g = tiny_graph();
        let idx = build_index(&g);
        assert!(idx.matching_nodes(&g, "").is_empty());
        assert!(idx.matching_nodes(&g, "  ... ").is_empty());
    }

    #[test]
    fn vocabulary_and_memory() {
        let g = tiny_graph();
        let idx = build_index(&g);
        assert!(idx.num_terms() >= 6);
        assert!(idx.terms().any(|t| t == "parametric"));
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn apply_delta_matches_full_rebuild() {
        let g = tiny_graph();
        let idx = build_index(&g);
        // relabel node 0, add a new node 4 with fresh text, clear node 3
        let delta = TextDelta {
            changes: vec![
                TextChange {
                    node: NodeId(0),
                    old: vec!["David Fernandez".to_string()],
                    new: vec!["Maria Sanchez".to_string()],
                },
                TextChange {
                    node: NodeId(4),
                    old: vec![],
                    new: vec!["Streaming recovery".to_string()],
                },
                TextChange {
                    node: NodeId(3),
                    old: vec!["Database recovery".to_string()],
                    new: vec![],
                },
            ],
            new_relations: vec![],
        };
        let updated = idx.apply_delta(&delta);

        let mut ib = IndexBuilder::new();
        for (node, text) in [
            (NodeId(0), "Maria Sanchez"),
            (NodeId(1), "Giora Fernandez"),
            (NodeId(2), "Parametric query optimization"),
            (NodeId(4), "Streaming recovery"),
        ] {
            ib.add_text(node, text);
        }
        for kind_name in ["author", "paper"] {
            ib.add_relation_name(kind_name, g.kind_by_name(kind_name).unwrap());
        }
        let rebuilt = ib.build();

        assert_eq!(updated.num_terms(), rebuilt.num_terms());
        for term in rebuilt.terms() {
            assert_eq!(
                updated.postings(term),
                rebuilt.postings(term),
                "term {term}"
            );
        }
        assert_eq!(updated.postings("fernandez"), &[NodeId(1)]);
        assert_eq!(updated.postings("recovery"), &[NodeId(4)]);
        assert!(updated.postings("database").is_empty(), "emptied term gone");
        assert_eq!(updated.postings("sanchez"), &[NodeId(0)]);
        // the source index is untouched
        assert_eq!(idx.postings("fernandez"), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn apply_delta_shares_untouched_posting_lists() {
        let g = tiny_graph();
        let idx = build_index(&g);
        let delta = TextDelta {
            changes: vec![TextChange {
                node: NodeId(3),
                old: vec!["Database recovery".to_string()],
                new: vec!["Database theory".to_string()],
            }],
            new_relations: vec![],
        };
        let updated = idx.apply_delta(&delta);
        // "parametric" was untouched: the very same allocation is shared
        assert!(std::ptr::eq(
            idx.postings("parametric").as_ptr(),
            updated.postings("parametric").as_ptr()
        ));
        // "recovery" was touched: lists diverge
        assert!(updated.postings("recovery").is_empty());
        assert_eq!(idx.postings("recovery"), &[NodeId(3)]);
    }

    #[test]
    fn apply_delta_registers_new_relation_names() {
        let g = tiny_graph();
        let idx = build_index(&g);
        let delta = TextDelta {
            changes: vec![],
            new_relations: vec![("venue".to_string(), KindId(7))],
        };
        let updated = idx.apply_delta(&delta);
        assert_eq!(updated.kinds_for_term("venue"), &[KindId(7)]);
        assert!(idx.kinds_for_term("venue").is_empty());
    }

    #[test]
    fn apply_delta_handles_overlapping_terms() {
        // old and new text share a term: the node must stay posted exactly
        // once, not be removed or duplicated.
        let mut ib = IndexBuilder::new();
        ib.add_text(NodeId(0), "database recovery");
        ib.add_text(NodeId(1), "database theory");
        let idx = ib.build();
        let delta = TextDelta {
            changes: vec![TextChange {
                node: NodeId(0),
                old: vec!["database recovery".to_string()],
                new: vec!["database locking".to_string()],
            }],
            new_relations: vec![],
        };
        let updated = idx.apply_delta(&delta);
        assert_eq!(updated.postings("database"), &[NodeId(0), NodeId(1)]);
        assert_eq!(updated.postings("locking"), &[NodeId(0)]);
        assert!(updated.postings("recovery").is_empty());
    }

    /// Word pieces for random texts: mixed case, digits, stop words and
    /// non-ASCII whose lower case differs in length (`İ`), in context (a
    /// final `Σ`) or not at all (CJK), plus an `ß` stop word.
    const PIECES: &[&str] = &[
        "Data",
        "base",
        "DATABASE",
        "x1",
        "2005",
        "a",
        "An",
        "The",
        "of",
        "ß",
        "Straße",
        "İstanbul",
        "ΟΔΟΣ",
        "σοφός",
        "ΣΑΣ",
        "数据库",
        "検索",
        "Émile",
        "ǅ",
        "İİ",
    ];
    const SEPARATORS: &[&str] = &["", " ", "-", ", ", "!", "\t", "·", "_"];

    /// The path `add_text` replaced, kept as the oracle: one `String` per
    /// token, a deduplicating pass per text, every survivor pushed.
    fn oracle_postings(calls: &[(NodeId, String)]) -> HashMap<String, Vec<NodeId>> {
        let mut postings: HashMap<String, Vec<NodeId>> = HashMap::new();
        for (node, text) in calls {
            for term in Tokenizer.tokenize_unique(text) {
                postings.entry(term).or_default().push(*node);
            }
        }
        for list in postings.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        postings
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Several `add_text` calls per node, interleaved across nodes: the
        /// built index equals the oracle's term by term.
        #[test]
        fn add_text_builds_what_tokenize_unique_built(
            calls in proptest::collection::vec(
                (
                    0u32..6,
                    proptest::collection::vec((0usize..PIECES.len(), 0usize..SEPARATORS.len()), 0..10),
                ),
                0..16,
            )
        ) {
            let calls: Vec<(NodeId, String)> = calls
                .into_iter()
                .map(|(node, words)| {
                    let text: String = words
                        .into_iter()
                        .map(|(piece, sep)| format!("{}{}", PIECES[piece], SEPARATORS[sep]))
                        .collect();
                    (NodeId(node), text)
                })
                .collect();

            let oracle = oracle_postings(&calls);
            let mut builder = IndexBuilder::new();
            for (node, text) in &calls {
                builder.add_text(*node, text);
            }
            proptest::prop_assert_eq!(builder.num_terms(), oracle.len());
            let index = builder.build();
            proptest::prop_assert_eq!(index.num_terms(), oracle.len());
            for (term, list) in &oracle {
                proptest::prop_assert_eq!(index.postings(term), &list[..], "term {:?}", term);
            }
        }
    }

    #[test]
    fn raw_parts_keep_ascending_lists_and_repair_the_rest() {
        let list = |ids: &[u32]| -> Arc<[NodeId]> { ids.iter().copied().map(NodeId).collect() };
        let ascending = list(&[1, 4, 9]);
        let index = InvertedIndex::from_raw_parts(
            vec![
                (Arc::from("kept"), Arc::clone(&ascending)),
                (Arc::from("repaired"), list(&[9, 1, 4, 4])),
                (Arc::from("empty"), list(&[])),
                (Arc::from("twice"), list(&[3])),
                (Arc::from("twice"), list(&[])),
                (Arc::from("twice"), list(&[2, 1])),
            ],
            vec![],
        );
        assert!(std::ptr::eq(
            index.postings("kept").as_ptr(),
            ascending.as_ptr()
        ));
        assert_eq!(index.postings("repaired"), &*ascending);
        assert_eq!(index.num_terms(), 3, "empty lists are dropped");
        assert_eq!(index.postings("twice"), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn intersect_sorted_basic() {
        let a = [NodeId(1), NodeId(3), NodeId(5)];
        let b = [NodeId(2), NodeId(3), NodeId(5), NodeId(9)];
        assert_eq!(intersect_sorted(&a, &b), vec![NodeId(3), NodeId(5)]);
        assert!(intersect_sorted(&a, &[]).is_empty());
    }
}
