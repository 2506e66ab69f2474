//! The immutable serving version: one graph plus everything derived from it.
//!
//! Online graph swapping needs a single unit of atomicity.  The service does
//! not serve a bare [`DataGraph`]: every query also consults the node
//! prestige vector and the keyword index, and the three must agree — a
//! query resolved against version N's index but expanded over version N+1's
//! adjacency would produce garbage.  [`GraphSnapshot`] bundles the three
//! into one immutable value; the service holds the *current* snapshot
//! behind an `Arc` and every query pins (clones) that `Arc` at admission
//! time.  [`crate::Service::swap_graph`] replaces the `Arc` atomically:
//!
//! * queries admitted **before** the swap — including ones still waiting in
//!   the scheduler — run to completion on their pinned snapshot, which stays
//!   alive until the last such query drops its reference;
//! * queries admitted **after** the swap resolve, expand and cache against
//!   the new version;
//! * the result cache needs no flush: keys carry the graph
//!   [epoch](DataGraph::epoch), so entries for the old version simply stop
//!   matching (the service also evicts them eagerly).

use banks_core::{build_label_index, label_index_delta};
use banks_graph::{BatchOutcome, DataGraph, MutationBatch};
use banks_persist::{
    decode_snapshot_with, encode_snapshot_with, Derivation, IndexDerivation, Keep, PersistError,
    PrestigeDerivation, SnapshotContents,
};
use banks_prestige::PrestigeVector;
use banks_textindex::{InvertedIndex, TextDelta};

/// Overlay fraction beyond which [`GraphSnapshot::maybe_compact`] flattens
/// a graph.
const COMPACT_OVERLAY_RATIO: f64 = 0.25;

/// One immutable serving version: the data graph together with the prestige
/// vector and keyword index derived from it.
///
/// Constructed once per version ([`GraphSnapshot::new`] for precomputed
/// parts, [`GraphSnapshot::with_defaults`] to derive them) and then shared
/// read-only behind an `Arc` — in-flight queries keep the version they were
/// admitted under alive for exactly as long as they need it.
///
/// Versions advance one of two ways: wholesale replacement
/// ([`crate::Service::swap_snapshot`]) or incrementally via
/// [`GraphSnapshot::apply_batch`], which derives the successor's index and
/// prestige as *deltas* instead of rebuilding them.
#[derive(Clone, Debug)]
pub struct GraphSnapshot {
    graph: DataGraph,
    prestige: PrestigeVector,
    index: InvertedIndex,
    /// How the prestige is kept current when the graph mutates under it
    /// ([`GraphSnapshot::apply_batch`]): `Uniform` successors stay
    /// uniform; `Pinned` (caller-supplied, not re-derivable) successors
    /// keep the existing values, and nodes a mutation appends get the
    /// current maximum until the caller swaps in a fresh vector.
    prestige_mode: PrestigeDerivation,
    /// How the index is kept current: `Labels` (built by
    /// [`build_label_index`]) applies label deltas in full and stays
    /// equivalent to a rebuild; `External` (caller-supplied, may cover
    /// text the graph never sees) applies additive changes only — a
    /// relabel leaves the old terms matching rather than corrupting
    /// postings built from richer text.
    index_mode: IndexDerivation,
}

impl GraphSnapshot {
    /// Bundles an already-prepared graph, prestige vector and keyword index
    /// into one serving version.  The caller asserts the three describe the
    /// same graph revision.
    ///
    /// Prestige and index supplied this way are treated as *external* by
    /// [`GraphSnapshot::apply_batch`] — the snapshot cannot re-derive
    /// them, so mutation successors carry the prestige forward unchanged
    /// (appended nodes get the current maximum) and apply only *additive*
    /// index changes (new nodes' labels become searchable; relabels never
    /// remove postings, since the index may cover richer text than the
    /// labels).  Use [`GraphSnapshot::with_defaults`] for derivations
    /// that refresh exactly.
    pub fn new(graph: DataGraph, prestige: PrestigeVector, index: InvertedIndex) -> Self {
        GraphSnapshot {
            graph,
            prestige,
            index,
            prestige_mode: PrestigeDerivation::Pinned,
            index_mode: IndexDerivation::External,
        }
    }

    /// Builds a serving version with the default derivations: uniform
    /// prestige and the label index built from the graph's node labels —
    /// the same defaults [`crate::ServiceBuilder::build`] applies.
    pub fn with_defaults(graph: DataGraph) -> Self {
        Self::assemble(graph, None, None)
    }

    /// Decodes a snapshot file (every CRC checked) and serves it as it was
    /// persisted: the graph, and the index and prestige beside it under
    /// the modes its derivation record names — how a follower takes over
    /// its leader's serving version, supplied parts and all, without
    /// deriving anything.  What the file cannot vouch for — no derivation
    /// record (then index and prestige are not even decoded), a part that
    /// is missing, a prestige vector of the wrong length, an index naming a
    /// node or kind the graph lacks — is derived as
    /// [`GraphSnapshot::with_defaults`] derives it.
    pub(crate) fn decode_persisted(bytes: &[u8]) -> Result<Self, PersistError> {
        let contents = decode_snapshot_with(bytes, |derivation| {
            if derivation.is_some() {
                Keep::ALL
            } else {
                Keep::GRAPH
            }
        })?;
        let (graph, prestige, index) = persisted_parts(contents);
        Ok(Self::assemble(graph, prestige, index))
    }

    /// Builder-internal constructor: derives the parts the caller did not
    /// supply, tracking per part whether it can be refreshed exactly on
    /// mutation (derived) or must be treated as external (supplied).
    pub(crate) fn from_optional(
        graph: DataGraph,
        prestige: Option<PrestigeVector>,
        index: Option<InvertedIndex>,
    ) -> Self {
        Self::assemble(
            graph,
            prestige.map(|p| (p, PrestigeDerivation::Pinned)),
            index.map(|i| (i, IndexDerivation::External)),
        )
    }

    /// Builder-internal constructor for recovery, over `contents` whose
    /// graph has already been replayed to the end of the WAL.  Parts the
    /// builder supplied win, as in [`GraphSnapshot::from_optional`].  Of
    /// the rest, the file's copies are adopted when `adopt` (nothing was
    /// replayed, so they describe this very graph) and its derivation
    /// record names the builder's own defaults — the label index, uniform
    /// prestige; everything else is derived.
    pub(crate) fn recovered(
        contents: SnapshotContents,
        adopt: bool,
        prestige: Option<PrestigeVector>,
        index: Option<InvertedIndex>,
    ) -> Self {
        let (graph, persisted_prestige, persisted_index) = if adopt {
            persisted_parts(contents)
        } else {
            (contents.graph, None, None)
        };
        let prestige = prestige
            .map(|p| (p, PrestigeDerivation::Pinned))
            .or(persisted_prestige.filter(|(_, mode)| *mode == PrestigeDerivation::Uniform));
        let index = index
            .map(|i| (i, IndexDerivation::External))
            .or(persisted_index.filter(|(_, mode)| *mode == IndexDerivation::Labels));
        Self::assemble(graph, prestige, index)
    }

    /// The parts of a snapshot file [`GraphSnapshot::recovered`] may
    /// adopt, given what the builder supplied: an unsupplied part whose
    /// derivation record names the builder's default.  Recovery decodes
    /// only those.
    pub(crate) fn adoptable(
        prestige_supplied: bool,
        index_supplied: bool,
    ) -> impl Fn(Option<Derivation>) -> Keep {
        move |derivation| Keep {
            prestige: !prestige_supplied
                && derivation.is_some_and(|d| d.prestige == PrestigeDerivation::Uniform),
            index: !index_supplied
                && derivation.is_some_and(|d| d.index == IndexDerivation::Labels),
        }
    }

    /// Bundles `graph` with the given parts, deriving a missing one by
    /// default: the label index, uniform prestige.
    fn assemble(
        graph: DataGraph,
        prestige: Option<(PrestigeVector, PrestigeDerivation)>,
        index: Option<(InvertedIndex, IndexDerivation)>,
    ) -> Self {
        let (index, index_mode) =
            index.unwrap_or_else(|| (build_label_index(&graph), IndexDerivation::Labels));
        let (prestige, prestige_mode) = prestige.unwrap_or_else(|| {
            (
                PrestigeVector::uniform_for(&graph),
                PrestigeDerivation::Uniform,
            )
        });
        GraphSnapshot {
            graph,
            prestige,
            index,
            prestige_mode,
            index_mode,
        }
    }

    /// This version as a snapshot file: graph, prestige, index and the
    /// derivation record that lets a reader serve the last two as they
    /// are.
    pub(crate) fn encode(&self) -> Vec<u8> {
        encode_snapshot_with(
            &self.graph,
            Some(&self.prestige),
            Some(&self.index),
            Some(self.derivation()),
        )
    }

    /// How this version's index and prestige were derived.
    fn derivation(&self) -> Derivation {
        Derivation {
            index: self.index_mode,
            prestige: self.prestige_mode,
        }
    }

    /// Applies a [`MutationBatch`], producing the successor serving
    /// version and the per-op outcome — the incremental analogue of
    /// rebuilding a snapshot from scratch:
    ///
    /// * the **graph** advances via [`DataGraph::apply_batch`]
    ///   (structurally-shared, fresh epoch, O(touched rows)),
    /// * the **keyword index** advances via
    ///   [`InvertedIndex::apply_delta`] — only nodes whose label changed
    ///   are re-tokenized.  Label indexes (built by the snapshot itself)
    ///   apply the delta in full and stay equivalent to a from-scratch
    ///   rebuild; a caller-supplied index applies **additive** changes
    ///   only (see [`GraphSnapshot::new`]),
    /// * the **prestige vector** refreshes according to how it was
    ///   derived: uniform stays uniform, and pinned external vectors are
    ///   carried forward (see [`GraphSnapshot::new`]).
    ///
    /// `self` is untouched; queries pinned to it are unaffected.
    pub fn apply_batch(&self, batch: &MutationBatch) -> (GraphSnapshot, BatchOutcome) {
        let (graph, outcome) = self.graph.apply_batch(batch);
        let full_delta = label_index_delta(&graph, &outcome);
        let index_delta = match self.index_mode {
            IndexDerivation::Labels => full_delta,
            // External index: keep every existing posting (the index may
            // know text the graph does not); only additions — labels of
            // nodes that did not exist before, and new relation names —
            // are safe to merge in.
            IndexDerivation::External => TextDelta {
                changes: full_delta
                    .changes
                    .into_iter()
                    .filter(|change| change.old.is_empty())
                    .collect(),
                new_relations: full_delta.new_relations,
            },
        };
        let index = self.index.apply_delta(&index_delta);
        let prestige = match self.prestige_mode {
            PrestigeDerivation::Uniform => PrestigeVector::uniform_for(&graph),
            PrestigeDerivation::Pinned => {
                let mut values = self.prestige.values().to_vec();
                let fill = if values.is_empty() {
                    1.0
                } else {
                    self.prestige.max()
                };
                values.resize(graph.num_nodes(), fill);
                PrestigeVector::from_values(values)
            }
        };
        (
            GraphSnapshot {
                graph,
                prestige,
                index,
                prestige_mode: self.prestige_mode,
                index_mode: self.index_mode,
            },
            outcome,
        )
    }

    /// Flattens the graph's copy-on-write overlay back into flat CSR
    /// storage when more than a quarter of its nodes carry overlay rows.  Contents (and the epoch) are unchanged — only the
    /// representation — so pinned queries, caches and metrics are
    /// unaffected.  Returns whether compaction ran.  Every committed
    /// successor passes through here, so long mutation chains do not pay
    /// the overlay indirection forever — on a leader and its followers
    /// alike.
    pub fn maybe_compact(&mut self) -> bool {
        if self.graph.overlay_ratio() > COMPACT_OVERLAY_RATIO {
            self.graph = self.graph.compacted();
            true
        } else {
            false
        }
    }

    /// The graph of this serving version.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The node prestige of this serving version.
    pub fn prestige(&self) -> &PrestigeVector {
        &self.prestige
    }

    /// The keyword index of this serving version.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The graph's epoch — the cache-key component that distinguishes this
    /// version from every other.
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// Assigns the underlying graph a fresh epoch.  Used by the swap path
    /// when a caller swaps in a clone of the currently-served graph: the
    /// contents may be identical, but the swap contract promises a cold
    /// cache, so the epochs must differ.
    pub(crate) fn bump_epoch(&mut self) {
        self.graph.bump_epoch();
    }

    /// Overwrites the graph's epoch with a leader-assigned one
    /// ([`DataGraph::restore_epoch`]): a follower applying a replicated
    /// batch must serve at exactly the epoch the leader produced, not a
    /// locally drawn value, so shared-epoch reads on leader and follower
    /// are reads of the same version.
    pub(crate) fn restore_epoch(&mut self, epoch: u64) {
        self.graph.restore_epoch(epoch);
    }
}

/// A decoded file's graph, and its index and prestige paired with the
/// modes the derivation record names; a part is `None` where the file
/// cannot vouch for it (see [`GraphSnapshot::decode_persisted`]).
type PersistedParts = (
    DataGraph,
    Option<(PrestigeVector, PrestigeDerivation)>,
    Option<(InvertedIndex, IndexDerivation)>,
);

fn persisted_parts(contents: SnapshotContents) -> PersistedParts {
    let SnapshotContents {
        graph,
        prestige,
        index,
        derivation,
    } = contents;
    let Some(derivation) = derivation else {
        return (graph, None, None);
    };
    let index = index
        .filter(|index| fits(index, &graph))
        .map(|index| (index, derivation.index));
    let prestige = prestige
        .filter(|p| p.len() == graph.num_nodes())
        .map(|p| (p, derivation.prestige));
    (graph, prestige, index)
}

/// Whether every node and kind `index` names exists in `graph`.  A file
/// whose CRCs all pass can still hold an index that does not belong to its
/// graph, and the first query to reach a missing node would panic; such an
/// index is derived again instead.  Posting lists are strictly ascending,
/// so each is checked by its last entry.
fn fits(index: &InvertedIndex, graph: &DataGraph) -> bool {
    let (nodes, kinds) = (graph.num_nodes(), graph.num_kinds());
    index.terms().all(|term| {
        index
            .postings(term)
            .last()
            .is_none_or(|n| n.index() < nodes)
    }) && index
        .kind_terms()
        .all(|(_, ids)| ids.iter().all(|k| k.index() < kinds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::GraphBuilder;

    fn tiny() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("author", "Jim Gray");
        let p = b.add_node("paper", "Granularity of locks");
        let w = b.add_node("writes", "w0");
        b.add_edge(w, a).unwrap();
        b.add_edge(w, p).unwrap();
        b.build_default()
    }

    #[test]
    fn defaults_derive_prestige_and_index() {
        let graph = tiny();
        let epoch = graph.epoch();
        let snap = GraphSnapshot::with_defaults(graph);
        assert_eq!(snap.epoch(), epoch, "construction must not change epoch");
        assert_eq!(snap.prestige().len(), snap.graph().num_nodes());
        assert!(
            !snap.index().matching_nodes(snap.graph(), "gray").is_empty(),
            "label index must cover node labels"
        );
    }

    #[test]
    fn bump_epoch_distinguishes_cloned_versions() {
        let mut snap = GraphSnapshot::with_defaults(tiny());
        let before = snap.epoch();
        snap.bump_epoch();
        assert_ne!(snap.epoch(), before);
    }

    #[test]
    fn apply_batch_advances_graph_index_and_prestige_together() {
        use banks_graph::{MutationBatch, NodeId};
        let snap = GraphSnapshot::with_defaults(tiny());
        let before_epoch = snap.epoch();
        let batch = MutationBatch::new()
            .add_node("paper", "Recovery techniques")
            .add_edge(NodeId(2), NodeId(3));
        let (next, outcome) = snap.apply_batch(&batch);
        assert_eq!(outcome.accepted(), 2);
        assert_ne!(next.epoch(), before_epoch);
        assert_eq!(next.prestige().len(), next.graph().num_nodes());
        // the new node's label is searchable through the delta'd index
        assert_eq!(
            next.index().matching_nodes(next.graph(), "recovery"),
            vec![NodeId(3)]
        );
        // the ancestor snapshot still serves the old world
        assert_eq!(snap.graph().num_nodes(), 3);
        assert!(snap
            .index()
            .matching_nodes(snap.graph(), "recovery")
            .is_empty());
    }

    #[test]
    fn apply_batch_never_removes_postings_from_an_external_index() {
        use banks_graph::{MutationBatch, NodeId};
        use banks_textindex::IndexBuilder;
        let graph = tiny();
        // the external index covers richer text than the labels: node 1's
        // abstract also contains "locks"
        let mut ib = IndexBuilder::with_default_tokenizer();
        for node in graph.nodes() {
            ib.add_text(node, graph.node_label(node));
        }
        ib.add_text(NodeId(1), "a study of locks in databases");
        let snap = GraphSnapshot::new(
            graph,
            banks_prestige::PrestigeVector::uniform(3),
            ib.build(),
        );

        // relabel node 1 away from "locks": a label-index delta would
        // remove the posting, but the abstract still contains the term —
        // an external index must keep it
        let batch = MutationBatch::new()
            .set_label(NodeId(1), "Granularity of latching")
            .add_node("paper", "Recovery protocols");
        let (next, outcome) = snap.apply_batch(&batch);
        assert_eq!(outcome.accepted(), 2);
        assert!(
            next.index().postings("locks").contains(&NodeId(1)),
            "external index postings must survive a relabel"
        );
        assert!(
            next.index().postings("databases").contains(&NodeId(1)),
            "richer-text postings untouched"
        );
        // additive changes still land: the new node is searchable
        assert_eq!(next.index().postings("recovery"), &[NodeId(3)]);
        // ...but the new label's terms are NOT added for the relabel
        // (external indexes advance additively only, documented staleness)
        assert!(next.index().postings("latching").is_empty());
    }

    #[test]
    fn service_defaults_via_from_optional_refresh_exactly() {
        use banks_graph::{MutationBatch, NodeId};
        // from_optional with nothing supplied behaves like with_defaults:
        // label deltas apply in full (removals included)
        let snap = GraphSnapshot::from_optional(tiny(), None, None);
        let (next, _) = snap.apply_batch(&MutationBatch::new().set_label(NodeId(0), "Edgar Codd"));
        assert!(next.index().postings("gray").is_empty(), "relabel removes");
        assert_eq!(next.index().postings("codd"), &[NodeId(0)]);
    }

    #[test]
    fn maybe_compact_flattens_without_changing_epoch_or_contents() {
        use banks_graph::{GraphBuilder, MutationBatch, NodeId};
        // One relabel of nine nodes leaves every adjacency row shared.
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..9)
            .map(|i| b.add_node("author", format!("A{i}")))
            .collect();
        let snap = GraphSnapshot::with_defaults(b.build_default());
        let (mut next, _) = snap.apply_batch(&MutationBatch::new().set_label(nodes[0], "Codd"));
        assert!(!next.maybe_compact(), "below the ratio: untouched");
        // An edge add rewrites the rows of both ends: 2 of 9 nodes, then 4.
        let (mut next, _) = next.apply_batch(&MutationBatch::new().add_edge(nodes[1], nodes[2]));
        assert!(!next.maybe_compact(), "2/9 is below the ratio");
        let (mut next, _) = next.apply_batch(&MutationBatch::new().add_edge(nodes[3], nodes[4]));
        let epoch = next.epoch();
        assert!(next.maybe_compact(), "above the ratio: flattened");
        assert!(!next.graph().has_overlay());
        assert_eq!(next.epoch(), epoch, "same contents, same epoch");
        assert!(next.graph().has_edge(nodes[1], nodes[2]));
        assert!(next.graph().has_edge(nodes[3], nodes[4]));
    }

    #[test]
    fn apply_batch_carries_pinned_prestige_forward() {
        use banks_graph::{MutationBatch, NodeId};
        use banks_prestige::PrestigeVector;
        let graph = tiny();
        let prestige = PrestigeVector::from_values(vec![0.5, 0.25, 0.125]);
        let index = banks_core::build_label_index(&graph);
        let snap = GraphSnapshot::new(graph, prestige, index);
        let (next, _) = snap.apply_batch(&MutationBatch::new().add_node("author", "Mohan"));
        assert_eq!(next.prestige().len(), 4);
        assert_eq!(next.prestige().get(NodeId(0)), 0.5, "existing kept");
        assert_eq!(next.prestige().get(NodeId(3)), 0.5, "new node gets max");
    }
}
