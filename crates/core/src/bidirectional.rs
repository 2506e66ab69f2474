//! The Bidirectional expanding search algorithm (Section 4 of the paper).
//!
//! Two iterators share a single pool of per-node state:
//!
//! * the **incoming** iterator (`Q_in`) expands backward from keyword nodes
//!   — when a node `v` is popped, every edge `u -> v` is explored so that
//!   `u` learns (shorter) distances to the keywords `v` can reach;
//! * the **outgoing** iterator (`Q_out`) expands forward from *potential
//!   answer roots* (every node the incoming iterator has popped) — when a
//!   node `u` is popped, every edge `u -> v` is explored so that `u` learns
//!   distances through `v` and `v` itself becomes a new forward-frontier
//!   node.
//!
//! Both frontiers are prioritised by **spreading activation** (Section 4.3):
//! keyword nodes are seeded with `prestige / |S_i|`, every node retains
//! `1 - µ` of what it receives and spreads `µ` to its neighbours in inverse
//! proportion to edge weights, per-keyword activations combine by `max` and
//! the scheduling priority of a node is the sum over keywords.
//!
//! Setting [`BidirectionalConfig::enable_outgoing`] and
//! [`BidirectionalConfig::use_activation`] to `false` turns the engine into
//! the paper's SI-Backward baseline (single backward iterator prioritised by
//! distance), which is exactly how
//! [`crate::SingleIteratorBackwardSearch`] is implemented.
//!
//! # How a step is paid for
//!
//! A step pops one queue entry, scans one adjacency row, and neither
//! hashes, allocates nor walks a chain for a candidate it then drops:
//!
//! * **State** lives in a per-query arena (`arena.rs`) on loan from the
//!   process-wide pool: node → slot through a generation-stamped array;
//!   per (slot, keyword) one label of distance, `sp` pointer and hop
//!   weight, so a relaxation or a chain hop reads one cache line, and
//!   activations beside them, with their folds (`min`, `Σ`, finite count)
//!   cached per slot; explored parents in one edge pool, with each slot's
//!   `Activate` normaliser `Σ 1/w` kept as its list grows.  `Q_in`/`Q_out`
//!   are [`crate::pq::IndexedMaxHeap`]s keyed by slot, whose entries carry
//!   the priority as the integer `total_cmp` orders by, so a priority
//!   change is a sift of integer comparisons from the entry's position,
//!   nothing stale is ever queued, and a re-push that changes nothing
//!   costs a comparison.  `Attach` changes distances only, so under
//!   activation priority it re-pushes nothing — until an `Activate` cut
//!   short by `PROPAGATION_CAP` leaves raised activations un-keyed;
//!   from then on it re-pushes every node it visits.
//! * **The keyword count is a constant.**  `Expander` is generic over
//!   the query's width; [`BidirectionalSearch`] starts a copy compiled
//!   for two or for three keywords (what the benchmark's query pools
//!   send), so every per-keyword loop of a step (`relax`, `spread`, the
//!   fold refreshes, the snapshot on entering `Q_in`, `emit`'s aggregate
//!   and minimality test, the chain walks, the frontier bound) has a
//!   length the compiler knows; any other count runs the runtime-width
//!   copy.  There is one source for all widths.
//! * **Candidates are judged where they lie.**  `Attach` reaches a
//!   complete node some six times per explored node, and nine in ten of
//!   the trees rooted there are non-minimal — which the root's own row
//!   shows: no `dist` is zero and every `sp` is the same slot.  Those only
//!   have their `sp` chains measured (an overlong chain makes them no
//!   candidate at all).  The minimal tenth is traced into scratch buffers —
//!   each hop carries the weight a tree would report for it, so no
//!   adjacency row is re-scanned — scored, hashed once, and handed to
//!   `OutputHeap::insert_candidate`, which copies what it keeps into
//!   pooled storage.  No [`crate::AnswerTree`] exists until one is
//!   released.
//! * **The output bound is kept by change.**  The per-keyword heaps of
//!   frontier-distance snapshots get a node's finite distances when it
//!   enters `Q_in`, and afterwards exactly the distances `Arena::relax`
//!   changes while the node is queued.
//! * **Release is gated.**  The output heap caches its best buffered score
//!   and smallest aggregate weight; a step whose frontier bound cannot
//!   clear them returns without scanning the buffer or reading the clock.
//!
//! None of this changes what is computed: answers, their order and every
//! [`SearchStats`] counter are pinned by `tests/engine_golden.rs` to the
//! values of the hash-map implementation the arena replaced, and
//! `examples/pool_pass.rs --check` pins the work counters of the
//! benchmark's query pool.

use std::cmp::Reverse;

use banks_graph::NodeId;

use crate::answer::score_tree;
use crate::arena::{snapshot_parts, Arena, Fixed, Lease, ParentEdge, Runtime, Width, NO_SLOT};
use crate::engine::{RankedAnswer, SearchEngine};
use crate::output::{signature_hash, Candidate, OutputHeap};
use crate::score::ScoreModel;
use crate::stats::SearchStats;
use crate::stream::{next_answer, AnswerStream, ExpansionMachine, QueryContext, StreamCore};

/// Configuration switches that turn the full Bidirectional algorithm into
/// its ablated variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BidirectionalConfig {
    /// Run the outgoing (forward) iterator.  Disabling it restricts the
    /// search to backward expansion only.
    pub enable_outgoing: bool,
    /// Prioritise the frontier by spreading activation.  When disabled, the
    /// frontier is ordered by distance from the nearest keyword node (the
    /// SI-Backward prioritisation).
    pub use_activation: bool,
}

impl Default for BidirectionalConfig {
    fn default() -> Self {
        BidirectionalConfig {
            enable_outgoing: true,
            use_activation: true,
        }
    }
}

/// The Bidirectional expanding search engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct BidirectionalSearch {
    config: BidirectionalConfig,
}

impl BidirectionalSearch {
    /// Creates the engine with the paper's configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the engine with explicit configuration switches (used for
    /// ablations and to implement SI-Backward).
    pub fn with_config(config: BidirectionalConfig) -> Self {
        BidirectionalSearch { config }
    }

    /// The active configuration.
    pub fn config(&self) -> BidirectionalConfig {
        self.config
    }
}

/// Display name of a configuration.
fn config_name(config: BidirectionalConfig) -> &'static str {
    match (config.enable_outgoing, config.use_activation) {
        (true, true) => "Bidirectional",
        (true, false) => "Bidirectional(no-activation)",
        (false, true) => "Backward(activation)",
        (false, false) => "SI-Backward",
    }
}

impl SearchEngine for BidirectionalSearch {
    fn name(&self) -> &'static str {
        config_name(self.config)
    }

    fn start<'a>(&self, ctx: QueryContext<'a>) -> Box<dyn AnswerStream + 'a> {
        let config = self.config;
        match ctx.matches.num_keywords() {
            2 => Box::new(Expander::new(config, ctx, Fixed::<2>)),
            3 => Box::new(Expander::new(config, ctx, Fixed::<3>)),
            k => Box::new(Expander::new(config, ctx, Runtime(k))),
        }
    }
}

/// Most nodes one `Attach` or `Activate` propagation may visit.  Both are
/// monotone (distances only fall, activations only rise, each by more than
/// a tolerance) and so end on their own; the cap bounds what one update of a
/// hub with a huge explored neighbourhood can cost a single step.  Cutting
/// a propagation short leaves some labels stale, so the answers may differ
/// from an uncapped run: the search is then reported as truncated.
const PROPAGATION_CAP: usize = if cfg!(test) { 1_000 } else { 100_000 };

/// Which queue an expansion step came from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Incoming,
    Outgoing,
}

/// The shared expansion machinery for Bidirectional and SI-Backward search,
/// structured as a resumable step machine: [`Expander::advance`] performs
/// one unit of work, and the [`Iterator`] implementation calls it until the
/// next answer is released.  `W` is the query's keyword count, fixed at
/// compile time for the common counts (see `arena.rs`).
struct Expander<'a, W: Width> {
    config: BidirectionalConfig,
    ctx: QueryContext<'a>,
    model: ScoreModel,
    width: W,
    /// Per-node state, both frontier queues and every scratch buffer, on
    /// loan from the process-wide arena pool until the stream drops.
    state: Lease,
    heap: OutputHeap,
    /// Shared stream-driver state (ready queue, counters, lifecycle).
    core: StreamCore,
}

impl<'a, W: Width> Expander<'a, W> {
    fn new(config: BidirectionalConfig, ctx: QueryContext<'a>, width: W) -> Self {
        let num_keywords = ctx.matches.num_keywords();
        assert_eq!(width.get(), num_keywords, "the width is the keyword count");
        let model = ctx.params.score_model();
        let mut state = Lease::checkout(ctx.graph.num_nodes(), num_keywords);
        Expander {
            config,
            model,
            width,
            heap: OutputHeap::with_pool(
                std::mem::take(&mut state.candidates),
                model,
                ctx.params.emission,
                num_keywords,
                ctx.prestige.max(),
                ctx.params.top_k,
            ),
            state,
            core: StreamCore::new(),
            ctx,
        }
    }

    fn priority(&self, slot: u32) -> f64 {
        let record = &self.state.slots[slot as usize];
        if self.config.use_activation {
            record.total_act
        } else {
            // Distance prioritisation: smaller distance = higher priority.
            -record.min_dist
        }
    }

    /// Performs one unit of work: seeding on the first call, then exactly
    /// one frontier expansion (plus the release check) per call, finishing
    /// the search when the frontier is exhausted, `top_k` is produced, or a
    /// safety cap trips.  The control flow replicates the pre-streaming
    /// batch loop exactly, so draining the stream reproduces the batch
    /// results answer for answer.
    fn advance(&mut self) {
        if !self.core.seeded {
            self.core.begin();
            if self.width.get() == 0 || !self.ctx.matches.all_keywords_matched() {
                self.finish();
                return;
            }
            self.seed();
            return;
        }

        if self.state.q_in.is_empty() && self.state.q_out.is_empty() {
            self.finish();
            return;
        }
        if self.core.produced >= self.ctx.params.top_k {
            self.finish();
            return;
        }
        if let Some(cap) = self.ctx.params.max_explored {
            if self.core.stats.nodes_explored >= cap {
                self.core.stats.truncated = true;
                self.finish();
                return;
            }
        }
        if let Some(cap) = self.ctx.params.max_generated {
            if self.core.stats.answers_generated >= cap {
                self.core.stats.truncated = true;
                self.finish();
                return;
            }
        }

        match self.pick_side() {
            Some(Side::Incoming) => self.expand_incoming(),
            Some(Side::Outgoing) => self.expand_outgoing(),
            None => {
                self.finish();
                return;
            }
        }
        self.release();
        #[cfg(debug_assertions)]
        self.check_frontier_bound();
    }

    /// Ends the search: whatever is still buffered can safely be flushed
    /// (if we stopped early the remaining answers are still the best known
    /// ones), and the final statistics are sealed.
    fn finish(&mut self) {
        if self.core.done {
            return;
        }
        self.flush_remaining();
        self.core.seal(
            self.heap.duplicates_discarded(),
            self.heap.non_minimal_discarded(),
        );
    }

    /// Inserts all keyword nodes into `Q_in` with their seed activation
    /// (Equation 1 of the paper).
    fn seed(&mut self) {
        let matches = self.ctx.matches;
        let w = self.width;
        for i in 0..w.get() {
            let origin = matches.origin_set(i);
            let origin_size = origin.len().max(1) as f64;
            for &u in origin {
                let prestige = self.ctx.prestige.get(u);
                let state = &mut *self.state;
                let slot = state.slot_for(u);
                let at = slot as usize * w.get() + i;
                state.labels[at].dist = 0.0;
                state.labels[at].sp = NO_SLOT;
                state.act[at] = state.act[at].max(prestige / origin_size);
                state.slots[slot as usize].depth = 0;
                state.refresh_dist(w, slot);
                state.refresh_act(w, slot);
            }
        }
        for u in matches.all_origin_nodes() {
            let slot = self.state.slot_for(u);
            self.enqueue_incoming(slot);
            // Keyword nodes that already match every keyword are answers on
            // their own (single-keyword queries, or one node containing all
            // terms).
            if self.state.is_complete(w, slot) {
                self.emit(slot);
            }
        }
    }

    /// Puts a node into `Q_in`, snapshotting its finite distances.
    fn enqueue_incoming(&mut self, slot: u32) {
        let priority = self.priority(slot);
        let record = &mut self.state.slots[slot as usize];
        if !record.touched_in {
            record.touched_in = true;
            self.core.stats.nodes_touched += 1;
        }
        self.state.enqueue_incoming(self.width, slot, priority);
    }

    /// Puts a node into `Q_out`.
    fn enqueue_outgoing(&mut self, slot: u32) {
        let priority = self.priority(slot);
        let state = &mut *self.state;
        let record = &mut state.slots[slot as usize];
        if !record.touched_out {
            record.touched_out = true;
            self.core.stats.nodes_touched += 1;
        }
        state.q_out.push(slot, record.node, priority);
    }

    /// Chooses the iterator whose best frontier node has the highest
    /// priority (Figure 3, the `switch` at line 5).
    fn pick_side(&self) -> Option<Side> {
        let best_in = self.state.q_in.peek();
        let best_out = if self.config.enable_outgoing {
            self.state.q_out.peek()
        } else {
            None
        };
        match (best_in, best_out) {
            (None, None) => None,
            (Some(_), None) => Some(Side::Incoming),
            (None, Some(_)) => Some(Side::Outgoing),
            (Some((_, _, p_in)), Some((_, _, p_out))) => {
                if p_in >= p_out {
                    Some(Side::Incoming)
                } else {
                    Some(Side::Outgoing)
                }
            }
        }
    }

    /// One expansion step of the incoming iterator (Figure 3, lines 6–14).
    fn expand_incoming(&mut self) {
        let Some((v, node_v, _)) = self.state.q_in.pop() else {
            return;
        };
        self.state.slots[v as usize].in_xin = true;
        self.core.stats.nodes_explored += 1;

        if self.state.is_complete(self.width, v) {
            self.emit(v);
        }

        let depth_v = self.state.slots[v as usize].depth;
        if (depth_v as usize) < self.ctx.params.dmax {
            // Normalisation constant for backward activation spreading: the
            // received activation of v is split over its in-neighbours in
            // inverse proportion to the edge weights u -> v.
            let graph = self.ctx.graph;
            let mut row = std::mem::take(&mut self.state.row);
            row.clear();
            row.extend(graph.in_edges(node_v).map(|e| (e.from, e.weight)));
            let z: f64 = row.iter().map(|(_, w)| 1.0 / w).sum();
            let mut runs = ParallelRuns::default();
            for (at, &(node_u, _)) in row.iter().enumerate() {
                self.core.stats.edges_traversed += 1;
                let u = self.state.slot_for(node_u);
                self.explore_edge(u, v, runs.edge(&row, at), Side::Incoming, z);
                let state = &mut *self.state;
                let record = &mut state.slots[u as usize];
                if !record.in_xin {
                    if record.depth == u32::MAX {
                        record.depth = depth_v + 1;
                    }
                    if !state.q_in.contains(u) {
                        self.enqueue_incoming(u);
                    }
                }
            }
            self.state.row = row;
        }

        // Every node explored by the incoming iterator is a potential answer
        // root: hand it to the outgoing iterator (Figure 3, line 14).
        let record = &self.state.slots[v as usize];
        if self.config.enable_outgoing && !record.in_xout && !record.touched_out {
            self.enqueue_outgoing(v);
        }
    }

    /// One expansion step of the outgoing iterator (Figure 3, lines 15–23).
    fn expand_outgoing(&mut self) {
        let Some((u, node_u, _)) = self.state.q_out.pop() else {
            return;
        };
        self.state.slots[u as usize].in_xout = true;
        self.core.stats.nodes_explored += 1;

        if self.state.is_complete(self.width, u) {
            self.emit(u);
        }

        let depth_u = self.state.slots[u as usize].depth;
        if (depth_u as usize) < self.ctx.params.dmax {
            let graph = self.ctx.graph;
            let mut row = std::mem::take(&mut self.state.row);
            row.clear();
            row.extend(graph.out_edges(node_u).map(|e| (e.to, e.weight)));
            let z: f64 = row.iter().map(|(_, w)| 1.0 / w).sum();
            let mut runs = ParallelRuns::default();
            for (at, &(node_v, _)) in row.iter().enumerate() {
                self.core.stats.edges_traversed += 1;
                let v = self.state.slot_for(node_v);
                self.explore_edge(u, v, runs.edge(&row, at), Side::Outgoing, z);
                let state = &mut *self.state;
                let record = &mut state.slots[v as usize];
                if !record.in_xout {
                    if record.depth == u32::MAX {
                        record.depth = depth_u + 1;
                    }
                    if !state.q_out.contains(v) {
                        self.enqueue_outgoing(v);
                    }
                }
            }
            self.state.row = row;
        }
    }

    /// `ExploreEdge(u, v)` of Figure 3: the edge `u -> v` propagates keyword
    /// distances from `v` to `u` and spreads activation.
    ///
    /// `normalisation` is the sum of inverse edge weights over which the
    /// spreading node divides the spread fraction `µ` of its activation
    /// (in-edges of `v` for the incoming side, out-edges of `u` for the
    /// outgoing side).
    fn explore_edge(&mut self, u: u32, v: u32, edge: RowEdge, side: Side, normalisation: f64) {
        let RowEdge {
            weight,
            tree_weight,
            repeat,
        } = edge;
        // Register u as an explored parent of v so later improvements of
        // dist_v can be propagated to u (the Attach procedure) — once per
        // pair, first registration wins.  The pair was explored before iff
        // a parallel edge came earlier in this row, or the other iterator
        // has already scanned the row at the far end of the edge: a node is
        // expanded at most once per side, its depth is fixed before that,
        // and a scanned row holds every edge of the pair.  No list walk.
        let dmax = self.ctx.params.dmax;
        let slots = &self.state.slots;
        let known = repeat
            || match side {
                Side::Incoming => {
                    let far = &slots[u as usize];
                    far.in_xout && (far.depth as usize) < dmax
                }
                Side::Outgoing => {
                    let far = &slots[v as usize];
                    far.in_xin && (far.depth as usize) < dmax
                }
            };
        if !known {
            self.state.add_parent(v, u, weight, tree_weight);
        }

        // Distance updates: u reaches keyword i through v.
        if self.state.relax(self.width, u, v, weight, tree_weight) {
            self.attach(u);
        }

        // Activation spreading (Section 4.3): backward along in-edges for
        // the incoming iterator, forward along out-edges for the outgoing
        // iterator.  Per-keyword activations combine by max.
        if self.config.use_activation && normalisation > 0.0 {
            let (spreader, receiver) = match side {
                Side::Incoming => (v, u),
                Side::Outgoing => (u, v),
            };
            let share = (1.0 / weight) / normalisation;
            if self
                .state
                .spread(self.width, spreader, receiver, self.ctx.params.mu, share)
            {
                self.activate(receiver);
            }
        }
    }

    /// `Attach`: re-prioritise `u` and propagate its improved distances to
    /// all explored parents, best-first; emit any node that becomes (or
    /// remains) complete with a strictly better tree.
    fn attach(&mut self, start: u32) {
        let mut work = std::mem::take(&mut self.state.work);
        work.clear();
        work.push(start);
        let mut visited = 0usize;
        while let Some(node) = work.pop() {
            visited += 1;
            if visited > PROPAGATION_CAP {
                self.core.stats.truncated = true;
                break;
            }
            // A distance change moves the key only under distance
            // priority.  Under activation priority the re-push finds the
            // key the node already has, unless an `Activate` cut short by
            // the cap left raised activations un-keyed: from then on it
            // re-keys as well.
            if !self.config.use_activation || self.core.stats.truncated {
                self.reprioritise(node);
            }
            if self.state.is_complete(self.width, node) {
                self.emit(node);
            }
            let state = &mut *self.state;
            let mut at = state.slots[node as usize].parents_head;
            while at != NO_SLOT {
                let ParentEdge {
                    parent,
                    next,
                    weight,
                    tree_weight,
                } = state.parents[at as usize];
                if state.relax(self.width, parent, node, weight, tree_weight) {
                    work.push(parent);
                }
                at = next;
            }
        }
        self.state.work = work;
    }

    /// `Activate`: re-prioritise the receiver and propagate increased
    /// activation backward to explored parents (attenuated by `µ` at every
    /// hop, so the propagation dies out geometrically).
    fn activate(&mut self, start: u32) {
        let mu = self.ctx.params.mu;
        let mut work = std::mem::take(&mut self.state.work);
        work.clear();
        work.push(start);
        let mut visited = 0usize;
        while let Some(node) = work.pop() {
            visited += 1;
            if visited > PROPAGATION_CAP {
                self.core.stats.truncated = true;
                break;
            }
            self.reprioritise(node);
            let state = &mut *self.state;
            let record = &state.slots[node as usize];
            let z = record.parents_inverse_weight;
            if z <= 0.0 {
                continue; // no explored parents
            }
            let mut at = record.parents_head;
            while at != NO_SLOT {
                let ParentEdge {
                    parent,
                    next,
                    weight,
                    ..
                } = state.parents[at as usize];
                if state.spread(self.width, node, parent, mu, (1.0 / weight) / z) {
                    work.push(parent);
                }
                at = next;
            }
        }
        self.state.work = work;
    }

    /// Updates a node's queue priorities after its state changed.
    fn reprioritise(&mut self, slot: u32) {
        let priority = self.priority(slot);
        let state = &mut *self.state;
        let node = state.slots[slot as usize].node;
        if state.q_in.contains(slot) {
            state.q_in.push(slot, node, priority);
        }
        if state.q_out.contains(slot) {
            state.q_out.push(slot, node, priority);
        }
    }

    /// `Emit`: judge the answer tree rooted at `root` where it lies — in
    /// the `sp` pointers — and copy it into the output heap only if the
    /// heap keeps it.  About nine candidates in ten are non-minimal and
    /// are never traced at all; of the rest one in seven is a duplicate.
    fn emit(&mut self, root: u32) {
        if let Some(cap) = self.ctx.params.max_generated {
            if self.core.stats.answers_generated >= cap {
                return;
            }
        }
        let w = self.width;
        let labels = self.state.labels(w, root);
        let aggregate: f64 = labels.iter().map(|l| l.dist).sum();
        if aggregate >= self.state.slots[root as usize].best_emitted_weight - 1e-12 {
            return; // nothing better than what this root already produced
        }
        // Minimality (Section 3): the root matches a keyword itself, or its
        // paths leave through at least two different children.  Both read
        // off the root's own labels.
        let minimal =
            labels.iter().any(|l| l.dist <= 0.0) || labels.iter().any(|l| l.sp != labels[0].sp);

        let dmax = self.ctx.params.dmax;
        let state = &mut *self.state;
        // A chain longer than `dmax + 2` hops makes this no candidate at
        // all (see `Arena::trace_path`): nothing is counted and the root's
        // `best_emitted_weight` stays, so it is tried again whenever `emit`
        // next reaches it.  A non-minimal tree is only measured, not traced.
        if !minimal {
            if (0..w.get()).all(|keyword| state.chain_fits(w, root, keyword, dmax)) {
                state.slots[root as usize].best_emitted_weight = aggregate;
                self.core.stats.answers_generated += 1;
                self.heap.discard_non_minimal();
            }
            return;
        }
        state.path_nodes.clear();
        state.path_ends.clear();
        state.path_weights.clear();
        if !(0..w.get()).all(|keyword| state.trace_path(w, root, keyword, dmax)) {
            return;
        }
        state.slots[root as usize].best_emitted_weight = aggregate;
        self.core.stats.answers_generated += 1;

        let Arena {
            slots,
            path_nodes,
            path_ends,
            path_weights,
            signature,
            prestige_nodes,
            ..
        } = state;
        signature.clear();
        signature.extend_from_slice(path_nodes);
        signature.sort_unstable();
        signature.dedup();
        prestige_nodes.clear();
        prestige_nodes.extend(path_ends.iter().map(|end| path_nodes[end - 1]));
        let root_node = slots[root as usize].node;
        let (aggregate_edge_weight, node_prestige, score) = score_tree(
            root_node,
            prestige_nodes,
            path_weights,
            self.ctx.prestige,
            &self.model,
        );

        let started = self.core.started;
        self.heap.insert_candidate(
            Candidate {
                hash: signature_hash(signature),
                signature,
                root: root_node,
                path_nodes,
                path_ends,
                path_weights,
                aggregate_edge_weight,
                node_prestige,
                score,
            },
            self.core.stats.nodes_explored,
            || started.elapsed(),
        );
    }

    /// Estimate of the aggregate edge weight of any answer not yet
    /// generated, derived from the frontier distance labels (Section 4.5):
    /// the paper's `h(m_1, ..., m_k) = Σ_i m_i`, where `m_i` is the
    /// smallest distance label to keyword `i` among nodes still waiting in
    /// `Q_in` (keywords with an empty frontier fall back to the global
    /// minimum label).  Both emission policies consume this estimate; like
    /// the paper's own bound it is an approximation — nodes that already
    /// left the frontier may still complete into slightly better answers.
    fn min_future_edge_weight(&mut self) -> f64 {
        let w = self.width;
        let state = &mut *self.state;
        let frontier = &mut state.frontier[..w.get()];
        let mut global_min = f64::INFINITY;
        for (i, heap) in frontier.iter_mut().enumerate() {
            // Drop snapshots of nodes that left `Q_in` or whose distance
            // has improved since; what is then on top is the live minimum.
            while let Some(&Reverse(top)) = heap.peek() {
                let (snapshot, slot) = snapshot_parts(top);
                let live = state.q_in.contains(slot)
                    && (state.labels[slot as usize * w.get() + i].dist - snapshot).abs() <= 1e-12;
                if live {
                    global_min = global_min.min(snapshot);
                    break;
                }
                heap.pop();
            }
        }
        if global_min.is_infinite() {
            return 0.0;
        }
        frontier
            .iter()
            .map(|heap| {
                heap.peek()
                    .map_or(global_min, |Reverse(top)| snapshot_parts(*top).0)
            })
            .sum()
    }

    /// Debug builds, small frontiers: the bound read off the snapshot heaps
    /// must be what a scan of `Q_in` gives.  (`tests/prop_search.rs` drives
    /// this after every step of searches on random graphs; on a large
    /// frontier the scan would make debug runs quadratic.)
    #[cfg(debug_assertions)]
    fn check_frontier_bound(&mut self) {
        const SCANNED_FRONTIER: usize = 64;
        if self.state.q_in.len() > SCANNED_FRONTIER {
            return;
        }
        let mut minima = vec![f64::INFINITY; self.width.get()];
        for slot in self.state.q_in.slots() {
            for (min, label) in minima.iter_mut().zip(self.state.labels(self.width, slot)) {
                *min = min.min(label.dist);
            }
        }
        let global_min = minima.iter().copied().fold(f64::INFINITY, f64::min);
        let scanned: f64 = if global_min.is_infinite() {
            0.0
        } else {
            minima
                .iter()
                .map(|min| if min.is_finite() { *min } else { global_min })
                .sum()
        };
        let bound = self.min_future_edge_weight();
        assert!(
            bound.to_bits() == scanned.to_bits(),
            "frontier bound {bound} but Q_in scans to {scanned} ({minima:?})"
        );
    }

    /// Releases buffered answers allowed by the emission policy.
    fn release(&mut self) {
        // Nothing buffered or no budget left: no bound could release anything.
        if !self.heap.can_release(f64::INFINITY) {
            return;
        }
        // Both emission policies use the paper's h(m_1..m_k) = Σ_i m_i
        // estimate; the ExactBound policy additionally folds in the maximum
        // node prestige (Section 4.5).  Output order is best-effort (the
        // recall/precision experiment quantifies this).
        let bound = self.min_future_edge_weight();
        if !self.heap.can_release(bound) {
            return;
        }
        let elapsed = self.core.started.elapsed();
        let explored = self.core.stats.nodes_explored;
        let released = self.heap.release(bound, elapsed, explored);
        self.core.push_released(self.ctx.params.top_k, released);
    }

    /// Flushes the heap at the end of the search.
    fn flush_remaining(&mut self) {
        let elapsed = self.core.started.elapsed();
        let explored = self.core.stats.nodes_explored;
        let released = self.heap.flush(elapsed, explored);
        self.core.push_released(self.ctx.params.top_k, released);
    }
}

impl<W: Width> Drop for Expander<'_, W> {
    /// The candidate pool goes back into the arena, and with it to the
    /// process-wide arena pool (or nowhere, if the thread is panicking).
    fn drop(&mut self) {
        self.state.candidates = self.heap.take_pool();
    }
}

/// One entry of the adjacency row being expanded.
#[derive(Clone, Copy)]
struct RowEdge {
    weight: f64,
    /// Weight of the cheapest edge parallel to this one — what a tree using
    /// the hop reports, as `DataGraph::edge_weight` would.
    tree_weight: f64,
    /// Whether a parallel edge came earlier in the row.
    repeat: bool,
}

/// Finds the runs of parallel edges in an adjacency row.  Rows are sorted
/// by neighbour (`CsrAdjacency::sort_rows`, and overlay rows likewise), so
/// parallel edges are adjacent; the minimum of a run is computed once, when
/// the scan enters it.
#[derive(Default)]
struct ParallelRuns {
    run_end: usize,
    run_min: f64,
}

impl ParallelRuns {
    #[inline]
    fn edge(&mut self, row: &[(NodeId, f64)], at: usize) -> RowEdge {
        let (neighbour, weight) = row[at];
        let repeat = at < self.run_end;
        if !repeat {
            self.run_min = weight;
            self.run_end = at + 1;
            while self.run_end < row.len() && row[self.run_end].0 == neighbour {
                self.run_min = self.run_min.min(row[self.run_end].1);
                self.run_end += 1;
            }
        }
        RowEdge {
            weight,
            tree_weight: self.run_min,
            repeat,
        }
    }
}

impl<W: Width> ExpansionMachine for Expander<'_, W> {
    fn core(&self) -> &StreamCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut StreamCore {
        &mut self.core
    }

    fn answer_work_budget(&self) -> Option<usize> {
        self.ctx.params.answer_work_budget
    }

    fn is_cancelled(&self) -> bool {
        self.ctx.is_cancelled()
    }

    fn advance(&mut self) {
        Expander::advance(self)
    }

    fn finish(&mut self) {
        Expander::finish(self)
    }
}

impl<W: Width> Iterator for Expander<'_, W> {
    type Item = RankedAnswer;

    fn next(&mut self) -> Option<RankedAnswer> {
        next_answer(self)
    }
}

impl<W: Width> AnswerStream for Expander<'_, W> {
    fn stats(&self) -> SearchStats {
        self.core.live_stats()
    }

    fn engine_name(&self) -> &'static str {
        config_name(self.config)
    }

    fn is_exhausted(&self) -> bool {
        self.core.is_exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Pool;
    use crate::params::{EmissionPolicy, SearchParams};
    use banks_graph::builder::graph_from_edges;
    use banks_graph::{DataGraph, GraphBuilder};
    use banks_prestige::PrestigeVector;
    use banks_textindex::KeywordMatches;

    fn uniform(graph: &DataGraph) -> PrestigeVector {
        PrestigeVector::uniform_for(graph)
    }

    /// writes -> {author, paper}: querying the two leaf labels must find the
    /// tree rooted at the `writes` node.
    #[test]
    fn finds_simple_join_tree() {
        let g = graph_from_edges(3, &[(2, 0), (2, 1)]);
        let p = uniform(&g);
        let matches = KeywordMatches::from_sets(vec![
            ("gray", vec![NodeId(0)]),
            ("transaction", vec![NodeId(1)]),
        ]);
        let outcome = BidirectionalSearch::new().search(&g, &p, &matches, &SearchParams::default());
        assert_eq!(outcome.answers.len(), 1, "expected exactly one answer");
        let tree = &outcome.answers[0].tree;
        assert_eq!(tree.root, NodeId(2));
        assert_eq!(tree.leaves(), vec![NodeId(0), NodeId(1)]);
        assert!(tree
            .validate(&g, &[vec![NodeId(0)], vec![NodeId(1)]], 8)
            .is_ok());
        assert!(outcome.stats.nodes_explored > 0);
        assert!(outcome.stats.nodes_touched >= 2);
    }

    /// A single keyword query returns the matching nodes themselves.
    #[test]
    fn single_keyword_returns_matching_nodes() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = uniform(&g);
        let matches = KeywordMatches::from_sets(vec![("x", vec![NodeId(1), NodeId(3)])]);
        let outcome = BidirectionalSearch::new().search(&g, &p, &matches, &SearchParams::default());
        assert_eq!(outcome.answers.len(), 2);
        for a in &outcome.answers {
            assert_eq!(a.tree.paths.len(), 1);
            assert_eq!(a.tree.paths[0].len(), 1);
            assert!(matches.origin_set(0).contains(&a.tree.root));
        }
    }

    /// Queries with an unmatched keyword return no answers.
    #[test]
    fn unmatched_keyword_yields_nothing() {
        let g = graph_from_edges(3, &[(2, 0), (2, 1)]);
        let p = uniform(&g);
        let matches =
            KeywordMatches::from_sets(vec![("gray", vec![NodeId(0)]), ("missing", vec![])]);
        let outcome = BidirectionalSearch::new().search(&g, &p, &matches, &SearchParams::default());
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.stats.nodes_explored, 0);
    }

    /// Keywords on two co-cited papers: the answer must route through the
    /// citing paper via backward edges.
    #[test]
    fn co_citation_answer_uses_backward_edges() {
        // paper 0 cites paper 1 and paper 2
        let g = graph_from_edges(3, &[(0, 1), (0, 2)]);
        let p = uniform(&g);
        let matches =
            KeywordMatches::from_sets(vec![("left", vec![NodeId(1)]), ("right", vec![NodeId(2)])]);
        let outcome = BidirectionalSearch::new().search(&g, &p, &matches, &SearchParams::default());
        assert!(!outcome.answers.is_empty());
        assert_eq!(outcome.answers[0].tree.root, NodeId(0));
    }

    /// dmax cuts off answers that would need longer paths.
    #[test]
    fn dmax_limits_answer_depth() {
        // chain: k1 - a - b - c - k2  (undirected thanks to backward edges)
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = uniform(&g);
        let matches =
            KeywordMatches::from_sets(vec![("k1", vec![NodeId(0)]), ("k2", vec![NodeId(4)])]);
        let found = BidirectionalSearch::new().search(&g, &p, &matches, &SearchParams::default());
        assert!(
            !found.answers.is_empty(),
            "dmax=8 must allow the 4-edge connection"
        );

        let none =
            BidirectionalSearch::new().search(&g, &p, &matches, &SearchParams::default().dmax(1));
        assert!(
            none.answers.is_empty(),
            "dmax=1 must forbid the 4-edge connection"
        );
    }

    /// The same answer set is produced with and without the forward
    /// iterator / activation (SI-Backward equivalence on a small graph).
    #[test]
    fn ablated_configurations_agree_on_answers() {
        let g = graph_from_edges(7, &[(3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 0), (6, 0)]);
        let p = uniform(&g);
        let matches =
            KeywordMatches::from_sets(vec![("a", vec![NodeId(0)]), ("b", vec![NodeId(1)])]);
        // top_k larger than the number of possible answers so both engines
        // exhaust the graph and report their complete answer sets.
        let params = SearchParams::with_top_k(64);
        let full = BidirectionalSearch::new().search(&g, &p, &matches, &params);
        let ablated = BidirectionalSearch::with_config(BidirectionalConfig {
            enable_outgoing: false,
            use_activation: false,
        })
        .search(&g, &p, &matches, &params);
        let mut sig_full = full.signatures();
        let mut sig_ablated = ablated.signatures();
        sig_full.sort();
        sig_ablated.sort();
        assert_eq!(sig_full, sig_ablated);
    }

    /// Figure-4 style scenario: a frequent keyword with a large origin set
    /// and two rare keywords.  Bidirectional must explore far fewer nodes
    /// than the distance-prioritised backward-only variant.
    #[test]
    fn frequent_keyword_scenario_explores_fewer_nodes() {
        // Build: 100 "database" papers (0..100) each written-by John (node 101)
        // via writes nodes, plus one paper co-authored by James (node 100).
        let mut b = GraphBuilder::new();
        let mut paper_ids = Vec::new();
        for i in 0..100 {
            paper_ids.push(b.add_node("paper", format!("database paper {i}")));
        }
        let james = b.add_node("author", "james");
        let john = b.add_node("author", "john");
        let mut writes = Vec::new();
        for (i, paper) in paper_ids.iter().enumerate() {
            let w = b.add_node("writes", format!("w{i}"));
            b.add_edge(w, *paper).unwrap();
            b.add_edge(w, john).unwrap();
            writes.push(w);
        }
        // paper 0 is also written by James
        let w_james = b.add_node("writes", "wj");
        b.add_edge(w_james, paper_ids[0]).unwrap();
        b.add_edge(w_james, james).unwrap();
        let g = b.build_default();
        let p = uniform(&g);

        let database_set: Vec<NodeId> = paper_ids.clone();
        let matches = KeywordMatches::from_sets(vec![
            ("database", database_set),
            ("james", vec![james]),
            ("john", vec![john]),
        ]);
        let params = SearchParams::with_top_k(1);
        let bidir = BidirectionalSearch::new().search(&g, &p, &matches, &params);
        let backward = BidirectionalSearch::with_config(BidirectionalConfig {
            enable_outgoing: false,
            use_activation: false,
        })
        .search(&g, &p, &matches, &params);

        assert!(!bidir.answers.is_empty());
        assert!(!backward.answers.is_empty());
        // Both find an answer containing paper 0, James and John.
        let best = &bidir.answers[0].tree;
        let nodes = best.nodes();
        assert!(nodes.contains(&james));
        assert!(nodes.contains(&john));
        assert!(
            bidir.stats.nodes_explored < backward.stats.nodes_explored,
            "bidirectional explored {} nodes, backward {}",
            bidir.stats.nodes_explored,
            backward.stats.nodes_explored
        );
    }

    /// Emission policies only change output timing, not the answer set.
    #[test]
    fn emission_policy_does_not_change_answer_set() {
        let g = graph_from_edges(
            8,
            &[
                (4, 0),
                (4, 1),
                (5, 1),
                (5, 2),
                (6, 2),
                (6, 3),
                (7, 3),
                (7, 0),
            ],
        );
        let p = uniform(&g);
        let matches = KeywordMatches::from_sets(vec![
            ("a", vec![NodeId(0), NodeId(2)]),
            ("b", vec![NodeId(1), NodeId(3)]),
        ]);
        let exact = BidirectionalSearch::new().search(
            &g,
            &p,
            &matches,
            &SearchParams::default().emission(EmissionPolicy::ExactBound),
        );
        let heuristic = BidirectionalSearch::new().search(
            &g,
            &p,
            &matches,
            &SearchParams::default().emission(EmissionPolicy::Heuristic),
        );
        let immediate = BidirectionalSearch::new().search(
            &g,
            &p,
            &matches,
            &SearchParams::default().emission(EmissionPolicy::Immediate),
        );
        let mut a = exact.signatures();
        let mut b = heuristic.signatures();
        let mut c = immediate.signatures();
        a.sort();
        b.sort();
        c.sort();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    /// The explored-nodes safety cap truncates the search.
    #[test]
    fn explored_cap_truncates() {
        let g = graph_from_edges(50, &(0..49).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let p = uniform(&g);
        let matches =
            KeywordMatches::from_sets(vec![("a", vec![NodeId(0)]), ("b", vec![NodeId(49)])]);
        let outcome = BidirectionalSearch::new().search(
            &g,
            &p,
            &matches,
            &SearchParams::default().max_explored(3),
        );
        assert!(outcome.stats.truncated);
        assert!(outcome.stats.nodes_explored <= 4);
    }

    /// One `next()` call on a multi-keyword stream explores strictly fewer
    /// nodes than draining the search to completion.
    #[test]
    fn single_next_explores_fewer_nodes_than_full_drain() {
        let g = graph_from_edges(
            12,
            &[
                (6, 0),
                (6, 1),
                (7, 1),
                (7, 2),
                (8, 2),
                (8, 3),
                (9, 3),
                (9, 4),
                (10, 4),
                (10, 5),
                (11, 5),
                (11, 0),
            ],
        );
        let p = uniform(&g);
        let matches = KeywordMatches::from_sets(vec![
            ("a", vec![NodeId(0), NodeId(2), NodeId(4)]),
            ("b", vec![NodeId(1), NodeId(3), NodeId(5)]),
        ]);
        let params = SearchParams::with_top_k(64).emission(EmissionPolicy::Immediate);
        let engine = BidirectionalSearch::new();

        let mut stream = engine.start(crate::stream::QueryContext::new(&g, &p, &matches, params));
        assert!(stream.next().is_some(), "expected at least one answer");
        let after_first = stream.stats().nodes_explored;
        assert!(!stream.is_exhausted());

        let full = engine.search(&g, &p, &matches, &params);
        assert!(
            after_first < full.stats.nodes_explored,
            "one next() explored {} nodes, full drain {}",
            after_first,
            full.stats.nodes_explored
        );
    }

    /// `top_k == 0` streams end immediately without panicking.
    #[test]
    fn zero_top_k_yields_no_answers() {
        let g = graph_from_edges(3, &[(2, 0), (2, 1)]);
        let p = uniform(&g);
        let matches =
            KeywordMatches::from_sets(vec![("a", vec![NodeId(0)]), ("b", vec![NodeId(1)])]);
        let params = SearchParams::with_top_k(0);
        let outcome = BidirectionalSearch::new().search(&g, &p, &matches, &params);
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.stats.answers_output, 0);

        let mut stream = BidirectionalSearch::new()
            .start(crate::stream::QueryContext::new(&g, &p, &matches, params));
        assert!(stream.next().is_none());
        assert!(stream.is_exhausted());
    }

    /// An exhausted work budget flushes generated answers and ends the
    /// stream with the truncation flag set — deterministically, at the same
    /// node count on every run.
    #[test]
    fn exhausted_work_budget_truncates_the_stream() {
        let g = graph_from_edges(50, &(0..49).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let p = uniform(&g);
        let matches =
            KeywordMatches::from_sets(vec![("a", vec![NodeId(0)]), ("b", vec![NodeId(49)])]);
        let params = SearchParams::default().answer_work_budget(0);
        let mut stream = BidirectionalSearch::new()
            .start(crate::stream::QueryContext::new(&g, &p, &matches, params));
        // Drain whatever the budget lets through; the stream must end.
        while stream.next().is_some() {}
        assert!(stream.is_exhausted());
        assert!(
            stream.stats().truncated,
            "exhausted work budget must set the truncation flag"
        );
        assert!(
            stream.stats().nodes_explored <= 2,
            "a zero budget must stop expansion almost immediately, explored {}",
            stream.stats().nodes_explored
        );

        // Determinism: a second run truncates at exactly the same point.
        let rerun = BidirectionalSearch::new().search(&g, &p, &matches, &params);
        assert_eq!(rerun.stats.nodes_explored, stream.stats().nodes_explored);
    }

    /// Live statistics grow monotonically while the stream runs.
    #[test]
    fn stream_stats_are_live() {
        let g = graph_from_edges(
            8,
            &[
                (4, 0),
                (4, 1),
                (5, 1),
                (5, 2),
                (6, 2),
                (6, 3),
                (7, 3),
                (7, 0),
            ],
        );
        let p = uniform(&g);
        let matches = KeywordMatches::from_sets(vec![
            ("a", vec![NodeId(0), NodeId(2)]),
            ("b", vec![NodeId(1), NodeId(3)]),
        ]);
        let params = SearchParams::with_top_k(64).emission(EmissionPolicy::Immediate);
        let mut stream = BidirectionalSearch::new()
            .start(crate::stream::QueryContext::new(&g, &p, &matches, params));
        assert_eq!(
            stream.stats().nodes_explored,
            0,
            "nothing explored before the first poll"
        );
        let mut previous = 0usize;
        while stream.next().is_some() {
            let now = stream.stats().nodes_explored;
            assert!(now >= previous);
            previous = now;
        }
        assert_eq!(stream.engine_name(), "Bidirectional");
        let sealed = stream.stats();
        assert_eq!(sealed.answers_output, sealed.answers_output.max(1));
    }

    /// Generated timings never exceed output timings.
    #[test]
    fn generation_never_after_output() {
        let g = graph_from_edges(6, &[(3, 0), (3, 1), (4, 1), (4, 2), (5, 0), (5, 2)]);
        let p = uniform(&g);
        let matches = KeywordMatches::from_sets(vec![
            ("a", vec![NodeId(0)]),
            ("b", vec![NodeId(1)]),
            ("c", vec![NodeId(2)]),
        ]);
        let outcome = BidirectionalSearch::new().search(&g, &p, &matches, &SearchParams::default());
        for a in &outcome.answers {
            assert!(a.timing.generated_at <= a.timing.output_at);
            assert!(a.timing.explored_at_generation <= a.timing.explored_at_output);
        }
    }

    /// The chain `0 – 1 – … – len-1` with a keyword at each end: what every
    /// run below searches.
    fn chain(len: usize) -> (DataGraph, KeywordMatches) {
        let edges: Vec<(u32, u32)> = (0..len as u32 - 1).map(|i| (i, i + 1)).collect();
        let g = graph_from_edges(len, &edges);
        let m = KeywordMatches::from_sets(vec![
            ("left", vec![NodeId(0)]),
            ("right", vec![NodeId(len as u32 - 1)]),
        ]);
        (g, m)
    }

    /// `trace_path` gives up on `sp` chains longer than `dmax + 2` hops —
    /// not an inconsistency but the normal fate of a node near one keyword
    /// whose distance to the other arrived through `Attach`, which has no
    /// depth cap.  Such a root is complete, `emit` reaches it, and the
    /// candidate is dropped without being counted or remembered.
    ///
    /// On a 17-chain the two sides meet at node 8 (depth 8 from either
    /// end); `Attach` then carries the far keyword's distance back down
    /// each side, and from 11 hops on the candidates are dropped.
    #[test]
    fn overlong_sp_chain_is_dropped_before_it_is_counted() {
        let (g, m) = chain(17);
        let p = uniform(&g);
        let params = SearchParams::with_top_k(64);
        let w = Fixed::<2>;
        let mut expander = Expander::new(
            BidirectionalConfig::default(),
            QueryContext::new(&g, &p, &m, params),
            w,
        );
        while !expander.core.done {
            expander.advance();
        }
        let state = &mut *expander.state;
        let complete: Vec<u32> = (0..state.slots.len() as u32)
            .filter(|slot| state.is_complete(w, *slot))
            .collect();
        let generated = complete
            .iter()
            .filter(|slot| state.slots[**slot as usize].best_emitted_weight.is_finite())
            .count();
        // Every root generated exactly once here (a chain has one tree per
        // root), so the counter equals the roots that remember a tree.
        assert_eq!(expander.core.stats.answers_generated, generated);
        let dropped: Vec<u32> = complete
            .iter()
            .copied()
            .filter(|slot| {
                state.slots[*slot as usize]
                    .best_emitted_weight
                    .is_infinite()
            })
            .collect();
        assert!(
            !dropped.is_empty(),
            "a complete root whose chain is too long must exist on a 17-chain"
        );
        for root in dropped {
            state.path_nodes.clear();
            state.path_ends.clear();
            state.path_weights.clear();
            let traced = (0..2).all(|keyword| state.trace_path(w, root, keyword, params.dmax));
            assert!(!traced, "root {} traces", state.slots[root as usize].node);
            // The chain is overlong, not broken: it does reach the keyword.
            let hops = (0..2)
                .map(|keyword| {
                    let (mut cur, mut hops) = (root, 0);
                    while state.labels(w, cur)[keyword].dist > 0.0 {
                        cur = state.labels(w, cur)[keyword].sp;
                        assert_ne!(cur, NO_SLOT);
                        hops += 1;
                    }
                    hops
                })
                .max();
            assert!(hops > Some(params.dmax + 2));
        }
    }

    /// A hub that matches one keyword, `spokes` nodes pointing at it, and one
    /// edge from the hub to the node matching the other keyword.  The hub is
    /// expanded first (every spoke becomes its explored parent); when the
    /// far keyword's distance then reaches the hub, one `Attach` has to
    /// carry it to every spoke.
    fn star(spokes: u32) -> (DataGraph, KeywordMatches) {
        let mut edges = vec![(0, 1)];
        edges.extend((2..spokes + 2).map(|spoke| (spoke, 0)));
        let g = graph_from_edges(spokes as usize + 2, &edges);
        let m = KeywordMatches::from_sets(vec![("hub", vec![NodeId(0)]), ("far", vec![NodeId(1)])]);
        (g, m)
    }

    /// Two hubs with more parents each than [`PROPAGATION_CAP`], over a
    /// sparse random remainder (xorshift, from `seed`).  Each keyword
    /// matches one hub and two other nodes, so the activation a hub takes
    /// in has to spread to more explored parents than the cap lets through.
    fn hubbed(seed: u64) -> (DataGraph, KeywordMatches) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |bound: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(bound)) as u32
        };
        let (n, hubs) = (3 * PROPAGATION_CAP as u32 / 2, 2);
        let mut edges = Vec::new();
        for hub in 0..hubs {
            for _ in 0..PROPAGATION_CAP + PROPAGATION_CAP / 4 {
                edges.push((hubs + next(n - hubs), hub));
            }
        }
        for node in hubs..n {
            let target = next(n);
            if target != node {
                edges.push((node, target));
            }
        }
        let sets: Vec<_> = (0..hubs)
            .map(|hub| {
                (
                    format!("k{hub}"),
                    vec![NodeId(hub), NodeId(next(n)), NodeId(next(n))],
                )
            })
            .collect();
        (
            graph_from_edges(n as usize, &edges),
            KeywordMatches::from_sets(sets),
        )
    }

    /// A propagation that runs into [`PROPAGATION_CAP`] (lowered for unit
    /// tests) is cut short as before, but the search says so.
    #[test]
    fn capped_propagation_reports_truncation() {
        let params = SearchParams::with_top_k(4);
        for config in [
            BidirectionalConfig::default(),
            BidirectionalConfig {
                enable_outgoing: false,
                use_activation: false,
            },
        ] {
            let engine = BidirectionalSearch::with_config(config);
            let run = |spokes: usize| {
                let (g, m) = star(spokes as u32);
                engine.search(&g, &uniform(&g), &m, &params)
            };
            let small = run(PROPAGATION_CAP / 2);
            assert!(!small.stats.truncated, "{config:?}: under the cap");
            assert!(!small.answers.is_empty());
            let big = run(PROPAGATION_CAP + PROPAGATION_CAP / 2);
            assert!(big.stats.truncated, "{config:?}: the hub update was cut");
            assert!(!big.answers.is_empty(), "what was found still comes out");
        }
    }

    /// An `Activate` cut short by the cap leaves nodes with raised
    /// activations that were never re-keyed in their queue; `Attach`
    /// re-keys every node it reaches from then on.  Skipping that re-key
    /// moves these runs' explored counts and marks, so their counters,
    /// answers and marks are pinned to values recorded with it in place.
    #[test]
    fn capped_activation_runs_match_recorded() {
        // (seed, nodes explored, FNV-1a of `fingerprint`)
        const RECORDED: [(u64, usize, u64); 3] = [
            (70, 11, 0xabc1_adcf_d8ff_c13a),
            (110, 11, 0xa4ae_1b85_e77c_3092),
            (162, 11, 0x8ad5_40be_1e4e_f604),
        ];
        for (seed, explored, digest) in RECORDED {
            let (g, m) = hubbed(seed);
            let run = BidirectionalSearch::new().search(
                &g,
                &uniform(&g),
                &m,
                &SearchParams::with_top_k(10),
            );
            assert!(run.stats.truncated, "seed {seed}: a propagation was cut");
            assert_eq!(run.answers.len(), 10, "seed {seed}");
            let mut fnv = crate::params::Fnv1a::new();
            fnv.write_bytes(fingerprint(&run).as_bytes());
            assert_eq!(
                (run.stats.nodes_explored, fnv.finish()),
                (explored, digest),
                "seed {seed}: {}",
                fingerprint(&run)
            );
        }
    }

    /// Everything about a run that must not depend on which arena ran it.
    fn fingerprint(outcome: &crate::SearchOutcome) -> String {
        let mut out = format!(
            "{} {} {} {} {} {}",
            outcome.stats.nodes_explored,
            outcome.stats.nodes_touched,
            outcome.stats.edges_traversed,
            outcome.stats.answers_generated,
            outcome.stats.duplicates_discarded,
            outcome.stats.non_minimal_discarded
        );
        for a in &outcome.answers {
            out.push_str(&format!(
                " | {} {:?} {:?} {}:{}",
                a.rank,
                a.tree.paths,
                a.tree.score.to_bits(),
                a.timing.explored_at_generation,
                a.timing.explored_at_output
            ));
        }
        out
    }

    /// The same search on a fresh arena: on a thread of its own, drawing
    /// from a pool of its own.
    fn on_fresh_arena(g: &DataGraph, m: &KeywordMatches, params: SearchParams) -> String {
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let pool = Pool::private();
                    let run = search(g, m, params);
                    assert_eq!(pool.generations(), [1], "one new arena ran it");
                    run
                })
                .join()
                .expect("reference search panicked")
        })
    }

    fn search(g: &DataGraph, m: &KeywordMatches, params: SearchParams) -> String {
        let p = uniform(g);
        fingerprint(&BidirectionalSearch::new().search(g, &p, m, &params))
    }

    /// One arena serves a small graph, then a successor epoch with more
    /// nodes — including overlay-only ids past the base storage — and then
    /// the small graph again.
    #[test]
    fn arena_is_reused_across_graphs_of_different_size() {
        use banks_graph::MutationBatch;
        let pool = Pool::private();
        let params = SearchParams::with_top_k(64);
        let (small, small_matches) = chain(6);
        assert_eq!(
            search(&small, &small_matches, params),
            on_fresh_arena(&small, &small_matches, params)
        );
        assert_eq!(pool.len(), 1);

        // Nodes 6 and 7 exist only in the overlay: 5 -> 6 -> 7.
        let (grown, outcome) = small.apply_batch(
            &MutationBatch::new()
                .add_node("node", "v6")
                .add_node("node", "v7")
                .add_edge(NodeId(5), NodeId(6))
                .add_edge(NodeId(6), NodeId(7)),
        );
        assert_eq!(outcome.rejected(), 0);
        assert_eq!(grown.num_nodes(), 8);
        let grown_matches =
            KeywordMatches::from_sets(vec![("left", vec![NodeId(0)]), ("right", vec![NodeId(7)])]);
        assert_eq!(
            search(&grown, &grown_matches, params),
            on_fresh_arena(&grown, &grown_matches, params)
        );
        assert_eq!(
            search(&small, &small_matches, params),
            on_fresh_arena(&small, &small_matches, params)
        );
        assert_eq!(pool.generations(), [3], "one arena did all three");
    }

    /// One arena — and in it one candidate pool, whose per-keyword arrays
    /// are laid out by `k` — serves queries of two, three, one and two
    /// keywords in turn.
    #[test]
    fn arena_is_reused_across_keyword_counts() {
        let pool = Pool::private();
        let params = SearchParams::with_top_k(64);
        let (g, two) = chain(9);
        let three = KeywordMatches::from_sets(vec![
            ("left", vec![NodeId(0)]),
            ("middle", vec![NodeId(3), NodeId(5)]),
            ("right", vec![NodeId(8)]),
        ]);
        let one = KeywordMatches::from_sets(vec![("any", vec![NodeId(2), NodeId(6)])]);
        for matches in [&two, &three, &two, &one, &three, &two] {
            assert_eq!(
                search(&g, matches, params),
                on_fresh_arena(&g, matches, params),
                "{} keyword(s)",
                matches.num_keywords()
            );
            assert_eq!(pool.len(), 1);
        }
        assert_eq!(pool.generations(), [6], "one arena ran all six");
    }

    /// When the generation counter wraps, stamps of the query that ran
    /// 2^32 generations ago must not read as live.
    #[test]
    fn generation_wrap_does_not_resurrect_old_state() {
        let pool = Pool::private();
        let params = SearchParams::with_top_k(64);
        let (g, m) = chain(12);
        let expected = on_fresh_arena(&g, &m, params);
        assert_eq!(search(&g, &m, params), expected); // a new arena: stamps carry generation 1
        assert_eq!(pool.generations(), [1]);
        pool.set_generation(u32::MAX); // next begin() wraps to 0 -> 1
        let (other, other_matches) = chain(9);
        assert_eq!(
            search(&other, &other_matches, params),
            on_fresh_arena(&other, &other_matches, params)
        );
        assert_eq!(pool.generations(), [1], "the wrap happened");
        assert_eq!(search(&g, &m, params), expected);
    }

    /// Two streams polled alternately on one thread hold two arenas.
    #[test]
    fn interleaved_streams_on_one_thread_do_not_share_state() {
        let pool = Pool::private();
        let params = SearchParams::with_top_k(64).emission(EmissionPolicy::Immediate);
        let (g1, m1) = chain(10);
        let (g2, m2) = chain(7);
        let (p1, p2) = (uniform(&g1), uniform(&g2));
        let engine = BidirectionalSearch::new();
        let mut first = engine.start(QueryContext::new(&g1, &p1, &m1, params));
        let mut second = engine.start(QueryContext::new(&g2, &p2, &m2, params));
        let (mut answers1, mut answers2) = (Vec::new(), Vec::new());
        loop {
            let (a, b) = (first.next(), second.next());
            if a.is_none() && b.is_none() {
                break;
            }
            answers1.extend(a);
            answers2.extend(b);
        }
        let interleaved = |answers, stream: &dyn AnswerStream| {
            fingerprint(&crate::SearchOutcome {
                answers,
                stats: stream.stats(),
            })
        };
        assert_eq!(
            interleaved(answers1, first.as_ref()),
            on_fresh_arena(&g1, &m1, params)
        );
        assert_eq!(
            interleaved(answers2, second.as_ref()),
            on_fresh_arena(&g2, &m2, params)
        );
        drop((first, second));
        assert_eq!(pool.len(), 2);
    }

    /// A client that disconnects (`take(1)`, drop) hands back an arena the
    /// next query can use as if it were new.
    #[test]
    fn stream_dropped_mid_search_returns_a_clean_arena() {
        let pool = Pool::private();
        let params = SearchParams::with_top_k(64).emission(EmissionPolicy::Immediate);
        let (g, m) = chain(14);
        let p = uniform(&g);
        {
            let mut stream =
                BidirectionalSearch::new().start(QueryContext::new(&g, &p, &m, params));
            assert!(stream.next().is_some());
            assert!(!stream.is_exhausted(), "dropped with work left");
        }
        assert_eq!(pool.len(), 1);
        let (other, other_matches) = chain(9);
        assert_eq!(
            search(&other, &other_matches, params),
            on_fresh_arena(&other, &other_matches, params)
        );
        assert_eq!(pool.generations(), [2], "the dropped stream's arena ran it");
    }

    /// A stream started on one thread and dropped on another hands its
    /// arena back to the pool it came from, not to the dropping thread's.
    /// (That the stream may move at all is `Arena: Send`, checked by the
    /// compiler.)
    #[test]
    fn stream_dropped_on_another_thread_returns_its_arena() {
        let pool = Pool::private();
        let params = SearchParams::with_top_k(64).emission(EmissionPolicy::Immediate);
        let (g, m) = chain(14);
        let p = uniform(&g);
        let mut stream = Expander::new(
            BidirectionalConfig::default(),
            QueryContext::new(&g, &p, &m, params),
            Fixed::<2>,
        );
        assert!(stream.next().is_some());
        std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    assert!(!stream.is_exhausted(), "dropped with work left");
                    drop(stream);
                })
                .join()
                .expect("dropping the stream panicked");
        });
        assert_eq!(pool.len(), 1);
        let (other, other_matches) = chain(9);
        assert_eq!(
            search(&other, &other_matches, params),
            on_fresh_arena(&other, &other_matches, params)
        );
        assert_eq!(pool.generations(), [2], "the moved stream's arena ran it");
    }

    /// Queries run one after another on short-lived threads share one
    /// arena: a thread's exit takes nothing out of the pool.
    #[test]
    fn queries_on_short_lived_threads_share_one_arena() {
        const THREADS: u32 = 8;
        let pool = Pool::private();
        let params = SearchParams::with_top_k(64);
        let (g, m) = chain(12);
        let expected = on_fresh_arena(&g, &m, params);
        for _ in 0..THREADS {
            let run = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        pool.install();
                        search(&g, &m, params)
                    })
                    .join()
                    .expect("query thread panicked")
            });
            assert_eq!(run, expected);
        }
        assert_eq!(pool.generations(), [THREADS], "one arena ran every query");
    }

    /// A `next()` that panics does not put its arena back.
    #[test]
    fn panicking_search_does_not_return_its_arena() {
        let pool = Pool::private();
        let params = SearchParams::with_top_k(64);
        let (g, m) = chain(8);
        assert_eq!(search(&g, &m, params), on_fresh_arena(&g, &m, params));
        assert_eq!(pool.len(), 1);

        // A prestige vector for a smaller graph: seeding node 7 indexes
        // past its end.
        let short = uniform(&chain(4).0);
        let result = std::panic::catch_unwind(|| {
            let mut stream =
                BidirectionalSearch::new().start(QueryContext::new(&g, &short, &m, params));
            stream.next()
        });
        assert!(result.is_err(), "the search must have panicked");
        assert_eq!(
            pool.len(),
            0,
            "the arena the panicking search held is gone, not pooled"
        );
        assert_eq!(search(&g, &m, params), on_fresh_arena(&g, &m, params));
    }
}
