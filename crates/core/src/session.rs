//! The query facade: [`Banks`] and [`QuerySession`].
//!
//! The legacy entry point took four positional arguments —
//! `search(graph, prestige, matches, params)` — and pushed keyword
//! resolution, prestige selection and parameter assembly onto every caller.
//! The facade owns those concerns:
//!
//! ```
//! use banks_core::Banks;
//! use banks_graph::builder::graph_from_edges;
//!
//! let graph = graph_from_edges(3, &[(2, 0), (2, 1)]);
//! let banks = Banks::open(&graph);
//! let outcome = banks.query(["v0", "v1"]).top_k(10).run();
//! # let _ = outcome;
//! ```
//!
//! `Banks::open` borrows the graph; node prestige defaults to uniform and
//! the keyword index is built lazily from node labels and kind names unless
//! supplied with [`Banks::with_prestige`] / [`Banks::with_index`].  Engines
//! are selected by registry name ([`QuerySession::engine`]), and each
//! session can either [`QuerySession::run`] to completion or stream
//! answers lazily via [`QuerySession::stream`].

use std::sync::OnceLock;

use banks_graph::{DataGraph, KindId};
use banks_prestige::PrestigeVector;
use banks_textindex::{IndexBuilder, InvertedIndex, KeywordMatches, Query};

use crate::engine::{SearchEngine, SearchOutcome};
use crate::params::SearchParams;
use crate::registry::EngineRegistry;
use crate::stream::{drain, AnswerStream, QueryContext};

/// Builds the default keyword index of a graph: every node's label plus the
/// node-kind names, so relation names like `"writes"` are searchable exactly
/// as in the paper's DBLP examples.  Shared by the lazily-initialising
/// [`Banks`] facade and the concurrent query service (which builds the index
/// eagerly at start-up).
pub fn build_label_index(graph: &DataGraph) -> InvertedIndex {
    let mut builder = IndexBuilder::new();
    for node in graph.nodes() {
        builder.add_text(node, graph.node_label(node));
    }
    for kind in 0..graph.num_kinds() {
        let kind = KindId(kind as u16);
        builder.add_relation_name(graph.kind_name(kind), kind);
    }
    builder.build()
}

/// Translates a mutation-batch outcome into the text delta that keeps a
/// [`build_label_index`]-style index current: each added or relabelled
/// node contributes its pre-batch label (what the index holds) and its
/// post-batch label (read from `graph`, which must be the **successor**
/// graph the batch produced), and newly-interned kinds are registered as
/// relation-name pseudo terms.
///
/// Feeding the result to [`InvertedIndex::apply_delta`] yields an index
/// equivalent to rebuilding with [`build_label_index`] over the successor
/// graph — the bridge the serving tier uses to avoid full reindexing on
/// every mutation.  It is only correct for indexes whose per-node text is
/// exactly the node label; indexes built over richer external text should
/// be rebuilt through the wholesale swap path instead.
pub fn label_index_delta(
    graph: &DataGraph,
    outcome: &banks_graph::BatchOutcome,
) -> banks_textindex::TextDelta {
    banks_textindex::TextDelta {
        changes: outcome
            .label_changes
            .iter()
            .map(|change| banks_textindex::TextChange {
                node: change.node,
                old: change.old_label.clone().into_iter().collect(),
                new: vec![graph.node_label(change.node).to_string()],
            })
            .collect(),
        new_relations: outcome.new_kinds.clone(),
    }
}

/// A search handle over one graph: prestige, keyword index and engine
/// registry in one place.
pub struct Banks<'g> {
    graph: &'g DataGraph,
    prestige: Option<PrestigeVector>,
    index: Option<InvertedIndex>,
    registry: EngineRegistry,
    uniform_prestige: OnceLock<PrestigeVector>,
    label_index: OnceLock<InvertedIndex>,
}

impl<'g> Banks<'g> {
    /// Opens a graph for querying with uniform prestige, a lazily built
    /// label index, and the default engine registry.
    pub fn open(graph: &'g DataGraph) -> Self {
        Banks {
            graph,
            prestige: None,
            index: None,
            registry: EngineRegistry::with_default_engines(),
            uniform_prestige: OnceLock::new(),
            label_index: OnceLock::new(),
        }
    }

    /// Uses a precomputed prestige vector (e.g. biased PageRank) instead of
    /// the uniform default.
    pub fn with_prestige(mut self, prestige: PrestigeVector) -> Self {
        self.prestige = Some(prestige);
        self
    }

    /// Uses a prebuilt keyword index instead of the lazily built label
    /// index (datasets extracted from relational databases carry one).
    pub fn with_index(mut self, index: InvertedIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// The engine names this handle can instantiate.
    pub fn engine_names(&self) -> Vec<&'static str> {
        self.registry.names()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g DataGraph {
        self.graph
    }

    /// The prestige vector queries will use.
    pub fn prestige(&self) -> &PrestigeVector {
        match &self.prestige {
            Some(p) => p,
            None => self
                .uniform_prestige
                .get_or_init(|| PrestigeVector::uniform_for(self.graph)),
        }
    }

    /// The keyword index queries will resolve against.  When none was
    /// supplied, one is built (once) by [`build_label_index`].
    pub fn index(&self) -> &InvertedIndex {
        match &self.index {
            Some(index) => index,
            None => self
                .label_index
                .get_or_init(|| build_label_index(self.graph)),
        }
    }

    /// The single normalization point for every query path.
    ///
    /// [`Banks::query`] and [`Banks::query_str`] both go through this one
    /// function: each keyword is run through the index's
    /// tokenizer (lower-cased, punctuation stripped, whitespace collapsed)
    /// and keywords that normalize to nothing are dropped.
    pub fn normalize_query(&self, query: &Query) -> Query {
        query.normalized(self.index().tokenizer())
    }

    /// Starts a query from individual keywords.
    pub fn query<I, S>(&self, keywords: I) -> QuerySession<'_, 'g>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.query_parsed(&Query::from_keywords(keywords))
    }

    /// Starts a query from a raw string, honouring quoted phrases
    /// (`"\"C. Mohan\" Rothermel"`).
    pub fn query_str(&self, raw: &str) -> QuerySession<'_, 'g> {
        self.query_parsed(&Query::parse(raw))
    }

    /// Starts a query from an already-parsed [`Query`].
    pub fn query_parsed(&self, query: &Query) -> QuerySession<'_, 'g> {
        let normalized = self.normalize_query(query);
        let matches = KeywordMatches::resolve_normalized(self.graph, self.index(), &normalized);
        self.session(matches)
    }

    fn session(&self, matches: KeywordMatches) -> QuerySession<'_, 'g> {
        QuerySession {
            banks: self,
            matches,
            params: SearchParams::default(),
            engine: "bidirectional".to_string(),
        }
    }
}

/// One prepared query: resolved keyword matches plus parameters, ready to
/// run in batch or as a stream (both can be called repeatedly).
pub struct QuerySession<'b, 'g> {
    banks: &'b Banks<'g>,
    matches: KeywordMatches,
    params: SearchParams,
    engine: String,
}

impl<'b, 'g> QuerySession<'b, 'g> {
    /// Selects the engine by registry name (`"bidirectional"`,
    /// `"si-backward"`, `"mi-backward"`, ...).
    ///
    /// # Panics
    /// Panics when the name resolves to no registered engine; the message
    /// lists the known engines and the nearest alias.
    pub fn engine(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        if self.banks.registry.canonical(&name).is_none() {
            panic!("{}", self.banks.registry.unknown(&name));
        }
        self.engine = name;
        self
    }

    /// Number of answers requested.
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.params.top_k = top_k;
        self
    }

    /// Replaces the whole parameter set at once.
    pub fn params(mut self, params: SearchParams) -> Self {
        self.params = params;
        self
    }

    /// The resolved per-keyword origin sets.
    pub fn matches(&self) -> &KeywordMatches {
        &self.matches
    }

    /// The engine instance this session will run.
    pub fn build_engine(&self) -> Box<dyn SearchEngine> {
        self.banks
            .registry
            .resolve(&self.engine)
            .unwrap_or_else(|e| panic!("engine disappeared from the registry: {e}"))
    }

    /// Starts the search and returns the lazy answer stream.
    pub fn stream(&self) -> Box<dyn AnswerStream + '_> {
        self.build_engine().start(QueryContext::new(
            self.banks.graph,
            self.banks.prestige(),
            &self.matches,
            self.params,
        ))
    }

    /// Runs the search to completion (drains the stream).
    pub fn run(&self) -> SearchOutcome {
        drain(self.stream())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::{GraphBuilder, NodeId};

    /// writes -> {author, paper} with searchable labels.
    fn tiny_graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let author = b.add_node("author", "Jim Gray");
        let paper = b.add_node("paper", "Granularity of locks");
        let writes = b.add_node("writes", "w0");
        b.add_edge(writes, author).unwrap();
        b.add_edge(writes, paper).unwrap();
        b.build_default()
    }

    #[test]
    fn builder_resolves_keywords_and_finds_answers() {
        let graph = tiny_graph();
        let banks = Banks::open(&graph);
        let session = banks.query(["gray", "locks"]).top_k(5);
        assert_eq!(session.matches().num_keywords(), 2);
        assert!(session.matches().all_keywords_matched());
        let outcome = session.run();
        assert_eq!(outcome.answers[0].tree.root, NodeId(2));
    }

    #[test]
    fn query_str_honours_phrases() {
        let graph = tiny_graph();
        let banks = Banks::open(&graph);
        let session = banks.query_str("\"jim gray\" locks");
        assert_eq!(session.matches().num_keywords(), 2);
        assert!(session.matches().all_keywords_matched());
        assert!(!session.run().answers.is_empty());
    }

    #[test]
    fn relation_names_are_searchable() {
        let graph = tiny_graph();
        let banks = Banks::open(&graph);
        let session = banks.query(["writes"]);
        assert!(session.matches().all_keywords_matched());
        assert_eq!(session.matches().origin_set(0), &[NodeId(2)]);
    }

    #[test]
    fn engine_selection_by_name_matches_defaults() {
        let graph = tiny_graph();
        let banks = Banks::open(&graph);
        let batch = banks.query(["gray", "locks"]).top_k(50);
        let a = batch.run();
        for name in ["si-backward", "mi-backward"] {
            let b = banks.query(["gray", "locks"]).top_k(50).engine(name).run();
            let mut sa = a.signatures();
            let mut sb = b.signatures();
            sa.sort();
            sb.sort();
            assert_eq!(sa, sb, "{name} disagrees with bidirectional");
        }
    }

    #[test]
    #[should_panic(expected = "unknown engine")]
    fn unknown_engine_panics_with_candidates() {
        let graph = tiny_graph();
        let _ = Banks::open(&graph).query(["gray"]).engine("quantum");
    }

    #[test]
    fn streaming_and_batch_agree() {
        let graph = tiny_graph();
        let banks = Banks::open(&graph);
        let session = banks.query(["gray", "locks"]).top_k(5);
        let batch = session.run();
        let streamed: Vec<_> = session.stream().collect();
        assert_eq!(batch.answers.len(), streamed.len());
        for (a, b) in batch.answers.iter().zip(&streamed) {
            assert_eq!(a.tree.signature(), b.tree.signature());
        }
    }

    #[test]
    fn explicit_prestige_and_index_are_used() {
        let graph = tiny_graph();
        let prestige = PrestigeVector::uniform_for(&graph);
        let mut builder = IndexBuilder::new();
        builder.add_text(NodeId(0), "custom-token");
        let banks = Banks::open(&graph)
            .with_prestige(prestige)
            .with_index(builder.build());
        assert!(banks.query(["custom"]).matches().all_keywords_matched());
        // the custom index knows nothing about "gray"
        assert!(!banks.query(["gray"]).matches().all_keywords_matched());
    }

    #[test]
    fn all_query_paths_share_one_normalization() {
        let graph = tiny_graph();
        let banks = Banks::open(&graph);
        // query(): pre-split keywords with stray case/whitespace.
        let a = banks.query(["  Jim   GRAY ", "Locks!"]);
        // query_str(): raw string with a quoted phrase.
        let b = banks.query_str("\"jim gray\" locks");
        // Both resolve the same normalized keywords to the same sets.
        let canonical = vec!["jim gray".to_string(), "locks".to_string()];
        for session in [&a, &b] {
            assert_eq!(session.matches().keywords(), canonical);
            assert_eq!(session.matches().origin_set(0), &[NodeId(0)]);
            assert_eq!(session.matches().origin_set(1), &[NodeId(1)]);
        }
        // Hand-built set names normalize through the same function.
        let names = Query::from_keywords(["Jim Gray", " LOCKS "]);
        assert_eq!(banks.normalize_query(&names).keywords(), canonical);
    }

    #[test]
    fn label_index_delta_tracks_a_rebuild() {
        use banks_graph::{MutationBatch, NodeId};
        let graph = tiny_graph();
        let index = build_label_index(&graph);
        let batch = MutationBatch::new()
            .add_node("venue", "VLDB 2005")
            .set_label(NodeId(0), "James Gray");
        let (successor, outcome) = graph.apply_batch(&batch);
        let updated = index.apply_delta(&label_index_delta(&successor, &outcome));
        let rebuilt = build_label_index(&successor);
        assert_eq!(updated.num_terms(), rebuilt.num_terms());
        for term in rebuilt.terms() {
            assert_eq!(
                updated.postings(term),
                rebuilt.postings(term),
                "term {term}"
            );
        }
        // new kind name matches as a relation pseudo-term
        assert_eq!(
            updated.matching_nodes(&successor, "venue"),
            rebuilt.matching_nodes(&successor, "venue")
        );
    }
}
