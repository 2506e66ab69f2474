//! The immutable, queryable data graph.
//!
//! Since the mutation-first redesign, a [`DataGraph`] is a *persistent*
//! (structurally shared) value: the bulk CSR storage lives behind an `Arc`
//! in a private `BaseStorage`, and a small copy-on-write `Overlay` carries
//! everything a [`crate::MutationBatch`] changed — patched adjacency rows,
//! appended nodes and kinds, relabelled metadata, adjusted degrees.
//! Applying a batch therefore costs O(touched rows), not O(V + E), and the
//! successor graph shares the untouched base with its ancestor byte for
//! byte.  Freshly built graphs have an empty overlay and behave exactly as
//! the flat representation did.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::csr::{CsrAdjacency, CsrRow};
use crate::error::GraphError;
use crate::ids::{KindId, NodeId};
use crate::node::{EdgeKind, NodeMeta};
use crate::weights::backward_weight;
use crate::Result;

/// Process-wide epoch source: every constructed graph (and every
/// [`DataGraph::bump_epoch`] call) draws a fresh, never-reused value.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

pub(crate) fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// A single directed edge of the *expanded* search graph, as returned by the
/// adjacency iterators.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRef {
    /// Tail of the edge.
    pub from: NodeId,
    /// Head of the edge.
    pub to: NodeId,
    /// Traversal weight of the edge (lower is better / closer).
    pub weight: f64,
    /// Whether this is an original forward edge or a derived backward edge.
    pub kind: EdgeKind,
}

/// One stored adjacency entry of an overlay row: `(neighbour, weight, kind)`
/// in the same shape the CSR rows use.
pub(crate) type OverlayEdge = (u32, f64, EdgeKind);

/// The bulk, immutable storage a family of structurally-shared graphs is
/// built over.  Shared behind an `Arc`; never modified after construction.
#[derive(Debug)]
pub(crate) struct BaseStorage {
    pub(crate) kinds: Vec<String>,
    pub(crate) meta: Vec<NodeMeta>,
    pub(crate) out: CsrAdjacency,
    pub(crate) inc: CsrAdjacency,
    pub(crate) forward_indegree: Vec<u32>,
    pub(crate) forward_outdegree: Vec<u32>,
    /// Ids removed by `RemoveNode`, sorted ascending.  Tombstoned nodes
    /// keep their dense id (never remapped, never reused) but have empty
    /// adjacency rows and an empty label, and are skipped by kind scans.
    pub(crate) tombstones: Vec<u32>,
}

impl BaseStorage {
    /// Heap footprint of the adjacency structures (the quantity
    /// [`DataGraph::memory_bytes`] historically reported).
    fn memory_bytes(&self) -> usize {
        self.out.memory_bytes()
            + self.inc.memory_bytes()
            + self.forward_indegree.len() * 4
            + self.forward_outdegree.len() * 4
            + self.tombstones.len() * 4
    }
}

/// Copy-on-write delta on top of a [`BaseStorage`]: everything mutations
/// changed relative to the shared base.  Cloning an overlay is cheap — the
/// patched rows themselves are `Arc`-shared.
#[derive(Clone, Debug, Default)]
pub(crate) struct Overlay {
    /// Kind names appended beyond `base.kinds`.
    pub(crate) extra_kinds: Vec<String>,
    /// Nodes appended beyond `base.meta` (ids continue the dense range).
    pub(crate) extra_meta: Vec<NodeMeta>,
    /// Metadata overrides for base nodes (relabels).
    pub(crate) meta_patch: HashMap<u32, NodeMeta>,
    /// Out-adjacency rows that replace the base row of a node (also the
    /// only rows appended nodes have).
    pub(crate) out_rows: HashMap<u32, Arc<Vec<OverlayEdge>>>,
    /// In-adjacency rows, mirroring `out_rows`.
    pub(crate) inc_rows: HashMap<u32, Arc<Vec<OverlayEdge>>>,
    /// Forward in-degree overrides.
    pub(crate) indegree_patch: HashMap<u32, u32>,
    /// Forward out-degree overrides.
    pub(crate) outdegree_patch: HashMap<u32, u32>,
    /// Nodes tombstoned since the base was built (ordered for
    /// deterministic iteration).
    pub(crate) tombstones: BTreeSet<u32>,
}

impl Overlay {
    pub(crate) fn is_empty(&self) -> bool {
        self.extra_kinds.is_empty()
            && self.extra_meta.is_empty()
            && self.meta_patch.is_empty()
            && self.out_rows.is_empty()
            && self.inc_rows.is_empty()
            && self.indegree_patch.is_empty()
            && self.outdegree_patch.is_empty()
            && self.tombstones.is_empty()
    }

    /// Approximate heap footprint of the overlay itself (owned, not
    /// shared with the base).
    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let row_bytes = |rows: &HashMap<u32, Arc<Vec<OverlayEdge>>>| {
            rows.values()
                .map(|row| {
                    size_of::<(u32, Arc<Vec<OverlayEdge>>)>() + row.len() * size_of::<OverlayEdge>()
                })
                .sum::<usize>()
        };
        self.extra_kinds.iter().map(|k| k.len()).sum::<usize>()
            + self
                .extra_meta
                .iter()
                .map(|m| size_of::<NodeMeta>() + m.label.len())
                .sum::<usize>()
            + self
                .meta_patch
                .values()
                .map(|m| size_of::<(u32, NodeMeta)>() + m.label.len())
                .sum::<usize>()
            + row_bytes(&self.out_rows)
            + row_bytes(&self.inc_rows)
            + (self.indegree_patch.len() + self.outdegree_patch.len()) * size_of::<(u32, u32)>()
            + self.tombstones.len() * size_of::<u32>()
    }
}

/// Breakdown of a graph's resident memory: the `Arc`-shared base versus the
/// bytes this graph value owns alone.  See [`DataGraph::memory_bytes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphMemory {
    /// Bytes of the shared base storage (adjacency CSRs + degree arrays).
    /// Every graph in a structural-sharing family reports the same number.
    pub shared_bytes: usize,
    /// Bytes owned by this graph alone (its copy-on-write overlay).
    pub owned_bytes: usize,
    /// How many live graph values currently share the base storage.
    pub sharers: usize,
}

impl GraphMemory {
    /// The resident bytes attributable to this graph: its owned overlay
    /// plus an equal share of the base.  Summing this over every sharer
    /// approximates the true resident total without double-counting.
    pub fn attributed_bytes(&self) -> usize {
        self.owned_bytes + self.shared_bytes / self.sharers.max(1)
    }
}

/// One adjacency row: either the shared CSR row or a copy-on-write patch.
enum RowIter<'a> {
    Base(CsrRow<'a>),
    Patch(std::slice::Iter<'a, OverlayEdge>),
    Empty,
}

impl Iterator for RowIter<'_> {
    type Item = (NodeId, f64, EdgeKind);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RowIter::Base(it) => it.next(),
            RowIter::Patch(it) => it.next().map(|(to, w, k)| (NodeId(*to), *w, *k)),
            RowIter::Empty => None,
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RowIter::Base(it) => it.size_hint(),
            RowIter::Patch(it) => it.size_hint(),
            RowIter::Empty => (0, Some(0)),
        }
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// Immutable weighted directed graph over which the BANKS search algorithms
/// run.
///
/// The graph stores the *expanded* edge set: every original forward edge
/// `u -> v` and the derived backward edge `v -> u` whose weight penalises
/// hub nodes (see [`crate::weights::backward_weight`]).  Both the
/// out-adjacency and the in-adjacency are materialised in CSR form, because
/// the backward expanding iterators traverse edges "against the arrow"
/// while the outgoing iterator follows them.
///
/// Graphs are *persistent values*: [`DataGraph::apply_batch`] produces a
/// structurally-shared successor (new epoch, shared base storage, small
/// copy-on-write overlay) instead of a rebuild, and `clone()` is cheap.
#[derive(Clone, Debug)]
pub struct DataGraph {
    pub(crate) base: Arc<BaseStorage>,
    pub(crate) overlay: Overlay,
    pub(crate) num_original_edges: usize,
    pub(crate) num_directed_edges: usize,
    /// Identity/version marker used by result caches: two graphs with the
    /// same epoch hold identical data.  Fresh per construction; clones share
    /// the epoch of the original (same contents).
    pub(crate) epoch: u64,
}

impl DataGraph {
    /// Assembles a graph from already-validated parts.  Used by
    /// [`crate::GraphBuilder::build_default`] and by compaction; prefer the
    /// builder in user code.
    pub fn from_parts(
        kinds: Vec<String>,
        meta: Vec<NodeMeta>,
        forward_edges: Vec<(NodeId, NodeId, f64)>,
    ) -> Self {
        let n = meta.len();
        let mut forward_indegree = vec![0u32; n];
        let mut forward_outdegree = vec![0u32; n];
        for (u, v, _) in &forward_edges {
            forward_outdegree[u.index()] += 1;
            forward_indegree[v.index()] += 1;
        }

        let mut expanded: Vec<(NodeId, NodeId, f64, EdgeKind)> =
            Vec::with_capacity(forward_edges.len() * 2);
        for (u, v, w) in &forward_edges {
            expanded.push((*u, *v, *w, EdgeKind::Forward));
        }
        for (u, v, w) in &forward_edges {
            let bw = backward_weight(*w, forward_indegree[v.index()] as usize);
            expanded.push((*v, *u, bw, EdgeKind::Backward));
        }

        let out = CsrAdjacency::from_edges(n, &expanded);
        let reversed: Vec<(NodeId, NodeId, f64, EdgeKind)> = expanded
            .iter()
            .map(|(u, v, w, k)| (*v, *u, *w, *k))
            .collect();
        let inc = CsrAdjacency::from_edges(n, &reversed);
        let num_directed_edges = out.num_edges();

        DataGraph {
            base: Arc::new(BaseStorage {
                kinds,
                meta,
                out,
                inc,
                forward_indegree,
                forward_outdegree,
                tombstones: Vec::new(),
            }),
            overlay: Overlay::default(),
            num_original_edges: forward_edges.len(),
            num_directed_edges,
            epoch: fresh_epoch(),
        }
    }

    // ----------------------------------------------------------------- epoch

    /// The graph's epoch: an identity/version marker for result caches and
    /// for online version handoff.
    ///
    /// Each constructed graph gets a unique epoch; clones keep the epoch of
    /// the original (their contents are identical), and
    /// [`DataGraph::bump_epoch`] assigns a fresh one.  Epochs are drawn
    /// from a process-wide counter and **never reused**, which is the
    /// property the layers above build on:
    ///
    /// * result caches fold the epoch into every key, so entries for one
    ///   graph version can never answer for another — invalidation after a
    ///   version change is structural, not a flush;
    /// * the serving tier (`banks-service`) swaps graph versions online by
    ///   replacing an `Arc`-held snapshot: queries pinned to the old
    ///   version keep reporting (and caching under) the old epoch while
    ///   new admissions carry the new one, and the two interleave safely
    ///   in one shared cache precisely because epochs never collide;
    /// * every accepted [`crate::MutationBatch`] produces a successor graph
    ///   under a fresh epoch, so incremental updates invalidate caches with
    ///   exactly the machinery wholesale swaps use.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Assigns the graph a fresh epoch, invalidating every cache entry keyed
    /// on the old one.  Call after out-of-band changes the graph abstraction
    /// cannot see (e.g. rebuilding from mutated source tables while reusing
    /// the same node ids).
    pub fn bump_epoch(&mut self) {
        self.epoch = fresh_epoch();
    }

    /// Restores a previously persisted epoch onto this graph and advances
    /// the process-wide epoch counter past it, so the restored value is
    /// served verbatim across a restart while freshly constructed graphs
    /// can never collide with it.
    ///
    /// Used by crash recovery (`banks-persist`): the epoch counter resets
    /// with the process, but cache keys and the serving tier rely on epochs
    /// never being reused.
    pub fn restore_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        NEXT_EPOCH.fetch_max(epoch.saturating_add(1), Ordering::Relaxed);
    }

    // ----------------------------------------------------------------- sizes

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.base.meta.len() + self.overlay.extra_meta.len()
    }

    /// Number of nodes in the shared base storage (ids below this bound may
    /// have patched rows; ids at or above it live entirely in the overlay).
    #[inline]
    pub(crate) fn base_nodes(&self) -> usize {
        self.base.meta.len()
    }

    /// Number of *original* forward edges the graph was built from.
    #[inline]
    pub fn num_original_edges(&self) -> usize {
        self.num_original_edges
    }

    /// Number of directed edges in the expanded search graph (forward +
    /// backward).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.num_directed_edges
    }

    /// Returns true when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_nodes() == 0
    }

    // ------------------------------------------------------------- node data

    /// Validates a node id.
    #[inline]
    pub fn check_node(&self, node: NodeId) -> Result<()> {
        if node.index() >= self.num_nodes() {
            Err(GraphError::NodeOutOfBounds {
                node,
                len: self.num_nodes(),
            })
        } else {
            Ok(())
        }
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Metadata of a node.
    #[inline]
    pub fn node_meta(&self, node: NodeId) -> &NodeMeta {
        let i = node.index();
        let base_len = self.base.meta.len();
        if i >= base_len {
            return &self.overlay.extra_meta[i - base_len];
        }
        if !self.overlay.meta_patch.is_empty() {
            if let Some(patched) = self.overlay.meta_patch.get(&node.0) {
                return patched;
            }
        }
        &self.base.meta[i]
    }

    /// Kind id of a node.
    #[inline]
    pub fn node_kind(&self, node: NodeId) -> KindId {
        self.node_meta(node).kind
    }

    /// Kind name of a node (e.g. `"paper"`).
    #[inline]
    pub fn node_kind_name(&self, node: NodeId) -> &str {
        self.kind_name(self.node_kind(node))
    }

    /// Display label of a node.
    #[inline]
    pub fn node_label(&self, node: NodeId) -> &str {
        &self.node_meta(node).label
    }

    /// Number of distinct node kinds.
    #[inline]
    pub fn num_kinds(&self) -> usize {
        self.base.kinds.len() + self.overlay.extra_kinds.len()
    }

    /// Name of a kind.
    #[inline]
    pub fn kind_name(&self, kind: KindId) -> &str {
        let i = kind.index();
        let base_len = self.base.kinds.len();
        if i >= base_len {
            &self.overlay.extra_kinds[i - base_len]
        } else {
            &self.base.kinds[i]
        }
    }

    /// Looks up a kind id by name.
    pub fn kind_by_name(&self, name: &str) -> Option<KindId> {
        self.base
            .kinds
            .iter()
            .chain(self.overlay.extra_kinds.iter())
            .position(|k| k == name)
            .map(KindId::from_index)
    }

    /// All node ids belonging to a given kind, tombstoned nodes excluded.
    /// Linear scan — intended for index construction and tests, not hot
    /// paths.
    pub fn nodes_of_kind(&self, kind: KindId) -> Vec<NodeId> {
        self.nodes()
            .filter(|n| self.node_kind(*n) == kind && !self.is_tombstoned(*n))
            .collect()
    }

    // ------------------------------------------------------------ tombstones

    /// Whether `node` was removed by a [`crate::GraphMutation::RemoveNode`].
    /// Tombstoned nodes keep their id (ids are never remapped or reused —
    /// caches, WAL records and replicas all key on them) but have no edges,
    /// an empty label, and are skipped by [`DataGraph::nodes_of_kind`].
    #[inline]
    pub fn is_tombstoned(&self, node: NodeId) -> bool {
        if !self.overlay.tombstones.is_empty() && self.overlay.tombstones.contains(&node.0) {
            return true;
        }
        self.base.tombstones.binary_search(&node.0).is_ok()
    }

    /// All tombstoned node ids, sorted ascending.
    pub fn tombstoned_nodes(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self.base.tombstones.clone();
        all.extend(self.overlay.tombstones.iter().copied());
        all.sort_unstable();
        all
    }

    // ------------------------------------------------------------- adjacency

    #[inline]
    fn out_row(&self, u: NodeId) -> RowIter<'_> {
        if !self.overlay.out_rows.is_empty() {
            if let Some(row) = self.overlay.out_rows.get(&u.0) {
                return RowIter::Patch(row.iter());
            }
        }
        if u.index() < self.base.meta.len() {
            RowIter::Base(self.base.out.neighbours(u))
        } else {
            RowIter::Empty
        }
    }

    #[inline]
    fn inc_row(&self, v: NodeId) -> RowIter<'_> {
        if !self.overlay.inc_rows.is_empty() {
            if let Some(row) = self.overlay.inc_rows.get(&v.0) {
                return RowIter::Patch(row.iter());
            }
        }
        if v.index() < self.base.meta.len() {
            RowIter::Base(self.base.inc.neighbours(v))
        } else {
            RowIter::Empty
        }
    }

    /// Outgoing edges of `u` in the expanded graph.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.out_row(u).map(move |(to, weight, kind)| EdgeRef {
            from: u,
            to,
            weight,
            kind,
        })
    }

    /// Incoming edges of `v` in the expanded graph: every returned
    /// [`EdgeRef`] has `e.to == v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.inc_row(v).map(move |(from, weight, kind)| EdgeRef {
            from,
            to: v,
            weight,
            kind,
        })
    }

    /// Out-degree in the expanded graph.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_row(u).len()
    }

    /// In-degree in the expanded graph.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.inc_row(v).len()
    }

    /// In-degree counting only original forward edges (this is the quantity
    /// used for backward-edge weighting and for indegree prestige).
    #[inline]
    pub fn forward_indegree(&self, v: NodeId) -> usize {
        if !self.overlay.indegree_patch.is_empty() {
            if let Some(d) = self.overlay.indegree_patch.get(&v.0) {
                return *d as usize;
            }
        }
        if v.index() < self.base.forward_indegree.len() {
            self.base.forward_indegree[v.index()] as usize
        } else {
            0
        }
    }

    /// Out-degree counting only original forward edges.
    #[inline]
    pub fn forward_outdegree(&self, u: NodeId) -> usize {
        if !self.overlay.outdegree_patch.is_empty() {
            if let Some(d) = self.overlay.outdegree_patch.get(&u.0) {
                return *d as usize;
            }
        }
        if u.index() < self.base.forward_outdegree.len() {
            self.base.forward_outdegree[u.index()] as usize
        } else {
            0
        }
    }

    /// Whether a directed edge `u -> v` exists in the expanded graph.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_row(u).any(|(to, _, _)| to == v)
    }

    /// Weight of the cheapest directed edge `u -> v` in the expanded graph.
    #[inline]
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.out_row(u)
            .filter(|(to, _, _)| *to == v)
            .map(|(_, w, _)| w)
            .fold(None, |acc, w| Some(acc.map_or(w, |a: f64| a.min(w))))
    }

    /// Weight of the cheapest *forward* edge `u -> v`.
    pub fn forward_edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.out_edges(u)
            .filter(|e| e.to == v && e.kind == EdgeKind::Forward)
            .map(|e| e.weight)
            .fold(None, |acc, w| Some(acc.map_or(w, |a: f64| a.min(w))))
    }

    // --------------------------------------------------------------- memory

    /// Approximate resident heap footprint attributable to this graph, in
    /// bytes.
    ///
    /// The adjacency base is structurally shared between a graph and its
    /// mutation successors (and clones), so naively reporting the full base
    /// from every version would double-count what is resident once.  This
    /// method therefore reports the graph's *attributed* bytes: its owned
    /// copy-on-write overlay plus an equal share of the `Arc`-shared base —
    /// summing `memory_bytes()` across all live sharers approximates the
    /// true resident total.  A graph that shares with nobody reports
    /// exactly its full footprint, matching the historical behaviour.
    ///
    /// Use [`DataGraph::memory_breakdown`] for the shared/owned split.
    pub fn memory_bytes(&self) -> usize {
        self.memory_breakdown().attributed_bytes()
    }

    /// The shared/owned memory split behind [`DataGraph::memory_bytes`].
    pub fn memory_breakdown(&self) -> GraphMemory {
        GraphMemory {
            shared_bytes: self.base.memory_bytes(),
            owned_bytes: self.overlay.memory_bytes(),
            sharers: Arc::strong_count(&self.base),
        }
    }

    /// Whether this graph carries a copy-on-write overlay (true after
    /// mutations; false for freshly built or compacted graphs).
    pub fn has_overlay(&self) -> bool {
        !self.overlay.is_empty()
    }

    /// Fraction of nodes whose adjacency rows live in the overlay rather
    /// than the shared base — the signal the serving and persistence tiers
    /// use to decide when compaction pays.
    pub fn overlay_ratio(&self) -> f64 {
        let n = self.num_nodes();
        if n == 0 {
            return 0.0;
        }
        self.overlay.out_rows.len() as f64 / n as f64
    }

    /// Rebuilds this graph into flat CSR storage with an empty overlay,
    /// **keeping the epoch** — contents are identical, and equal epochs
    /// promise equal data, so caches keyed on the epoch stay valid.  An
    /// overlay-free graph is returned as a cheap clone.
    pub fn compacted(&self) -> DataGraph {
        if !self.has_overlay() {
            return self.clone();
        }
        let kinds: Vec<String> = (0..self.num_kinds())
            .map(|k| self.kind_name(KindId::from_index(k)).to_string())
            .collect();
        let meta: Vec<NodeMeta> = self.nodes().map(|n| self.node_meta(n).clone()).collect();
        let mut forward: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(self.num_original_edges());
        for u in self.nodes() {
            for e in self.out_edges(u) {
                if e.kind == EdgeKind::Forward {
                    forward.push((u, e.to, e.weight));
                }
            }
        }
        let mut flat = DataGraph::from_parts(kinds, meta, forward);
        // Tombstones survive compaction verbatim: the flat base keeps the
        // removed ids (with empty rows and labels) so the dense id space —
        // which WAL records and replicas key on — never shifts.
        let tombstones = self.tombstoned_nodes();
        if !tombstones.is_empty() {
            Arc::get_mut(&mut flat.base)
                .expect("freshly built base has one owner")
                .tombstones = tombstones;
        }
        flat.epoch = self.epoch;
        flat
    }

    // ----------------------------------------------------------- raw storage

    /// Borrows the flat storage arrays of an overlay-free graph, or `None`
    /// when a copy-on-write overlay is present (call
    /// [`DataGraph::compacted`] first).
    ///
    /// This is the serialization surface used by `banks-persist`: the
    /// returned arrays, written verbatim and fed back through
    /// [`DataGraph::from_storage_parts`], reproduce the graph bit for bit —
    /// no re-sorting, no weight recomputation.
    pub fn flat_storage(&self) -> Option<StorageRef<'_>> {
        if self.has_overlay() {
            return None;
        }
        Some(StorageRef {
            kinds: &self.base.kinds,
            meta: &self.base.meta,
            out: &self.base.out,
            inc: &self.base.inc,
            forward_indegree: &self.base.forward_indegree,
            forward_outdegree: &self.base.forward_outdegree,
            tombstones: &self.base.tombstones,
            num_original_edges: self.num_original_edges,
            num_directed_edges: self.num_directed_edges,
            epoch: self.epoch,
        })
    }

    /// Reassembles a graph from owned storage parts previously obtained via
    /// [`DataGraph::flat_storage`], without rebuilding or re-sorting
    /// anything.  The result carries a fresh epoch; callers restoring a
    /// persisted graph follow up with [`DataGraph::restore_epoch`].
    ///
    /// Structural invariants are validated and violations reported as
    /// [`GraphError::InvalidStorage`] — corrupt input never panics.
    pub fn from_storage_parts(parts: StorageParts) -> Result<Self> {
        let invalid = |message: String| GraphError::InvalidStorage { message };
        let n = parts.meta.len();
        if parts.out.num_nodes() != n || parts.inc.num_nodes() != n {
            return Err(invalid(format!(
                "adjacency covers {} / {} nodes but {} metadata rows are stored",
                parts.out.num_nodes(),
                parts.inc.num_nodes(),
                n
            )));
        }
        if parts.out.num_edges() != parts.inc.num_edges() {
            return Err(invalid(format!(
                "out adjacency has {} edges but in adjacency has {}",
                parts.out.num_edges(),
                parts.inc.num_edges()
            )));
        }
        if parts.forward_indegree.len() != n || parts.forward_outdegree.len() != n {
            return Err(invalid(format!(
                "degree arrays cover {} / {} nodes, expected {}",
                parts.forward_indegree.len(),
                parts.forward_outdegree.len(),
                n
            )));
        }
        if parts.kinds.len() > u16::MAX as usize {
            return Err(invalid(format!(
                "{} kinds exceed u16 ids",
                parts.kinds.len()
            )));
        }
        let num_kinds = parts.kinds.len();
        if let Some(bad) = parts.meta.iter().find(|m| m.kind.index() >= num_kinds) {
            return Err(invalid(format!(
                "node kind {} out of bounds for {} kinds",
                bad.kind.index(),
                num_kinds
            )));
        }
        if !parts.tombstones.windows(2).all(|w| w[0] < w[1]) {
            return Err(invalid(
                "tombstone list is not strictly ascending".to_string(),
            ));
        }
        if let Some(&bad) = parts.tombstones.iter().find(|&&t| t as usize >= n) {
            return Err(invalid(format!(
                "tombstoned node {bad} out of bounds for {n} nodes"
            )));
        }
        let num_directed_edges = parts.out.num_edges();
        Ok(DataGraph {
            base: Arc::new(BaseStorage {
                kinds: parts.kinds,
                meta: parts.meta,
                out: parts.out,
                inc: parts.inc,
                forward_indegree: parts.forward_indegree,
                forward_outdegree: parts.forward_outdegree,
                tombstones: parts.tombstones,
            }),
            overlay: Overlay::default(),
            num_original_edges: parts.num_original_edges,
            num_directed_edges,
            epoch: fresh_epoch(),
        })
    }
}

/// Borrowed view of an overlay-free graph's flat storage, as returned by
/// [`DataGraph::flat_storage`].  The arrays are exactly what a
/// [`StorageParts`] reassembly expects back.
#[derive(Clone, Copy, Debug)]
pub struct StorageRef<'a> {
    /// Kind names, indexed by [`KindId`].
    pub kinds: &'a [String],
    /// Node metadata, indexed by [`NodeId`].
    pub meta: &'a [NodeMeta],
    /// Out-adjacency of the expanded graph.
    pub out: &'a CsrAdjacency,
    /// In-adjacency of the expanded graph (exact mirror of `out`).
    pub inc: &'a CsrAdjacency,
    /// Forward in-degree per node.
    pub forward_indegree: &'a [u32],
    /// Forward out-degree per node.
    pub forward_outdegree: &'a [u32],
    /// Tombstoned (removed) node ids, sorted ascending; usually empty.
    pub tombstones: &'a [u32],
    /// Number of original forward edges.
    pub num_original_edges: usize,
    /// Number of directed edges in the expanded graph.
    pub num_directed_edges: usize,
    /// The graph's epoch at serialization time.
    pub epoch: u64,
}

/// Owned storage parts accepted by [`DataGraph::from_storage_parts`].
#[derive(Clone, Debug)]
pub struct StorageParts {
    /// Kind names, indexed by [`KindId`].
    pub kinds: Vec<String>,
    /// Node metadata, indexed by [`NodeId`].
    pub meta: Vec<NodeMeta>,
    /// Out-adjacency of the expanded graph.
    pub out: CsrAdjacency,
    /// In-adjacency of the expanded graph (exact mirror of `out`).
    pub inc: CsrAdjacency,
    /// Forward in-degree per node.
    pub forward_indegree: Vec<u32>,
    /// Forward out-degree per node.
    pub forward_outdegree: Vec<u32>,
    /// Tombstoned (removed) node ids, sorted ascending; usually empty.
    pub tombstones: Vec<u32>,
    /// Number of original forward edges.
    pub num_original_edges: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, GraphBuilder};

    /// The in- and out-adjacency must be exact mirrors of each other.
    #[test]
    fn in_and_out_adjacency_are_consistent() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 2), (3, 2), (2, 4)]);
        for u in g.nodes() {
            for e in g.out_edges(u) {
                assert!(
                    g.in_edges(e.to)
                        .any(|b| b.from == u && b.weight == e.weight && b.kind == e.kind),
                    "out edge {e:?} missing from in-adjacency"
                );
            }
            for e in g.in_edges(u) {
                assert!(
                    g.out_edges(e.from)
                        .any(|b| b.to == u && b.weight == e.weight && b.kind == e.kind),
                    "in edge {e:?} missing from out-adjacency"
                );
            }
        }
    }

    #[test]
    fn degrees_match_paper_expansion() {
        // star: 3 papers -> 1 conference
        let g = graph_from_edges(4, &[(1, 0), (2, 0), (3, 0)]);
        // expanded: forward in-degree of node 0 is 3, and it also has 3
        // outgoing backward edges.
        assert_eq!(g.forward_indegree(NodeId(0)), 3);
        assert_eq!(g.in_degree(NodeId(0)), 3);
        assert_eq!(g.out_degree(NodeId(0)), 3);
        assert_eq!(g.out_degree(NodeId(1)), 1);
        assert_eq!(g.in_degree(NodeId(1)), 1);
    }

    #[test]
    fn kind_lookup_and_metadata() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("author", "Gray");
        let p = b.add_node("paper", "Transactions");
        b.add_edge(p, a).unwrap();
        let g = b.build_default();
        assert_eq!(g.num_kinds(), 2);
        assert_eq!(g.node_kind_name(a), "author");
        assert_eq!(g.node_label(p), "Transactions");
        let k = g.kind_by_name("paper").unwrap();
        assert_eq!(g.kind_name(k), "paper");
        assert_eq!(g.nodes_of_kind(k), vec![p]);
        assert!(g.kind_by_name("movie").is_none());
    }

    #[test]
    fn check_node_bounds() {
        let g = graph_from_edges(2, &[(0, 1)]);
        assert!(g.check_node(NodeId(1)).is_ok());
        assert!(g.check_node(NodeId(2)).is_err());
    }

    #[test]
    fn forward_edge_weight_ignores_backward_edges() {
        let g = graph_from_edges(3, &[(0, 1), (2, 1)]);
        assert_eq!(g.forward_edge_weight(NodeId(0), NodeId(1)), Some(1.0));
        // 1 -> 0 exists only as a backward edge
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(g.forward_edge_weight(NodeId(1), NodeId(0)), None);
    }

    #[test]
    fn empty_graph_is_empty() {
        let g = GraphBuilder::new().build_default();
        assert!(g.is_empty());
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_directed_edges(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn memory_bytes_positive_for_nonempty() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn memory_is_attributed_across_sharers() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let solo = g.memory_bytes();
        let breakdown = g.memory_breakdown();
        assert_eq!(breakdown.sharers, 1);
        assert_eq!(breakdown.owned_bytes, 0, "fresh graph owns no overlay");
        assert_eq!(solo, breakdown.shared_bytes);

        // A clone shares the base: each copy reports roughly half, and the
        // sum stays near the true resident footprint instead of doubling.
        let clone = g.clone();
        let summed = g.memory_bytes() + clone.memory_bytes();
        assert!(summed <= solo + 1, "sum {summed} must not exceed {solo}+1");
        assert_eq!(g.memory_breakdown().sharers, 2);
        drop(clone);
        assert_eq!(g.memory_bytes(), solo, "sole owner reports everything");
    }

    #[test]
    fn epochs_are_unique_per_construction() {
        let a = graph_from_edges(2, &[(0, 1)]);
        let b = graph_from_edges(2, &[(0, 1)]);
        assert_ne!(a.epoch(), b.epoch(), "distinct graphs get distinct epochs");
        let clone = a.clone();
        assert_eq!(a.epoch(), clone.epoch(), "clones share the epoch");
    }

    #[test]
    fn bump_epoch_assigns_a_fresh_value() {
        let mut g = graph_from_edges(2, &[(0, 1)]);
        let before = g.epoch();
        g.bump_epoch();
        assert_ne!(g.epoch(), before);
    }
}
