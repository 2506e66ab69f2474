//! Dense, generation-stamped per-query state for the expansion engine.
//!
//! A search touches most of a graph it runs on (the 13k-node benchmark
//! corpus sees ~15k queue insertions per query), so per-node state is laid
//! out positionally, not in a hash table — but sized by the nodes a query
//! *touches*, not by the graph:
//!
//! * `stamps[NodeId]` is the only array as long as the graph (8 B/node).
//!   It maps a node to its **slot** and carries the generation that wrote
//!   it; bumping the arena's generation forgets every mapping in O(1).
//! * Slots are handed out in first-touch order.  Per-slot scalars live in
//!   one [`Slot`] record.  Per keyword `i`, a slot has one [`Label`] at
//!   `labels[slot * k + i]` — its distance, its `sp` pointer and the tree
//!   weight of that hop side by side, because `Arena::relax` writes the
//!   three together and a hop of an `sp` chain reads the three together —
//!   and one activation at `act[slot * k + i]`, which only activation
//!   spreading touches.  The folds the scheduler asks for on every
//!   priority computation (`min_dist`, `Σ act`, number of finite
//!   distances) are cached in the slot and refreshed where the labels or
//!   activations change.
//! * Every loop over a slot's `k` entries is generic over a [`Width`]: the
//!   engine is compiled once each for 2 and 3 keywords, the counts the
//!   benchmark's query pools send ([`Fixed`]), where `k` is a constant
//!   the compiler unrolls those loops by and checks a slot's bounds
//!   against once, and once for a count known only at run time
//!   ([`Runtime`]), which runs every other count.
//!   `BidirectionalSearch::start` picks the copy.  The source is the same
//!   for all of them.
//! * Explored-parent lists (`P_u` of Figure 2) are singly linked through
//!   one shared edge pool, in registration order; each slot also keeps the
//!   activation normaliser `Σ 1/w` over its list, added to as the list
//!   grows.
//! * The two frontier queues, the per-keyword frontier-distance heaps, the
//!   scratch buffers of `emit` / `attach` / the row scan and the output
//!   heap's candidate pool (`output.rs`) live here too, so a warmed-up
//!   arena runs a query without allocating.  A query of `k` keywords uses
//!   the first `k` frontier heaps and leaves the others empty, with their
//!   capacity, for the next query that needs them.
//!
//! Arenas are checked out of **one process-wide pool** by
//! [`Lease::checkout`] and handed back when the lease drops, on whatever
//! thread that happens.  The pool is a `Mutex<Vec<Arena>>` touched twice a
//! query, so a process holds as many arenas as it ever had searches live at
//! once — not one per thread that ever ran a query: service workers, a
//! follower's workers and short-lived threads all draw on the same arenas.
//! Only a live lease can return an arena, so the pool needs no cap.
//! [`Arena::begin`] resets *everything* a query can read, so even an arena
//! abandoned mid-search is clean on its next checkout; a lease dropped
//! while its thread is panicking is thrown away regardless, and a pool lock
//! poisoned by a panic elsewhere is used as it is (a `Vec` push or pop
//! leaves nothing half done).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Deref, DerefMut, Range};
use std::sync::{Mutex, MutexGuard, PoisonError};

use banks_graph::NodeId;

use crate::output::CandidatePool;
use crate::pq::IndexedMaxHeap;

/// "No slot": end of a parent list, or an `sp` pointer not yet set.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A query's keyword count `k`, as the loops over a slot's per-keyword
/// entries see it.  See the module docs.
pub(crate) trait Width: Copy {
    /// The keyword count.
    fn get(self) -> usize;
}

/// A keyword count fixed when the engine is compiled.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fixed<const K: usize>;

impl<const K: usize> Width for Fixed<K> {
    #[inline(always)]
    fn get(self) -> usize {
        K
    }
}

/// A keyword count known when the query starts.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Runtime(pub usize);

impl Width for Runtime {
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }
}

/// Where a slot's `k` entries sit in [`Arena::labels`] and [`Arena::act`].
#[inline(always)]
fn span(w: impl Width, slot: u32) -> Range<usize> {
    let at = slot as usize * w.get();
    at..at + w.get()
}

#[derive(Clone, Copy, Default)]
struct Stamp {
    /// Generation that wrote `slot`; `0` is never a live generation.
    generation: u32,
    slot: u32,
}

/// Per-node scalars (Figure 2 of the paper, plus bookkeeping).
pub(crate) struct Slot {
    pub node: NodeId,
    /// Depth (in edges) from the nearest keyword node, assigned on first
    /// insertion into a queue.
    pub depth: u32,
    /// How many of the node's `k` distances are finite.
    pub finite: u32,
    /// First and last entry of the explored-parent list in
    /// [`Arena::parents`], or [`NO_SLOT`].
    pub parents_head: u32,
    parents_tail: u32,
    /// `Σ 1/weight` over the parent list, added in list order: what
    /// `Activate` divides the spread fraction by.
    pub parents_inverse_weight: f64,
    /// Already expanded by the incoming iterator (`X_in`).
    pub in_xin: bool,
    /// Already expanded by the outgoing iterator (`X_out`).
    pub in_xout: bool,
    /// Ever inserted into `Q_in` (for the touched-nodes metric).
    pub touched_in: bool,
    /// Ever inserted into `Q_out`.
    pub touched_out: bool,
    /// `min_i dist_i`, as `dist.iter().fold(INFINITY, f64::min)` gives it.
    pub min_dist: f64,
    /// `Σ_i act_i`, as `act.iter().sum()` gives it.
    pub total_act: f64,
    /// Aggregate edge weight of the best candidate already generated with
    /// this node as root (avoids re-emitting unchanged trees).
    pub best_emitted_weight: f64,
}

/// What a node knows about one keyword `i` (Figure 2 of the paper).
#[derive(Clone, Copy)]
pub(crate) struct Label {
    /// `dist_{u,i}`: best known path length from the node to a node in
    /// `S_i`.
    pub dist: f64,
    /// Tree weight of the `sp` hop: the cheapest parallel edge.
    pub sp_weight: f64,
    /// `sp_{u,i}`: slot of the child to follow for the best known path to
    /// `t_i`, or [`NO_SLOT`].
    pub sp: u32,
}

impl Label {
    const UNREACHED: Label = Label {
        dist: f64::INFINITY,
        sp_weight: 0.0,
        sp: NO_SLOT,
    };
}

/// One explored edge `parent -> child`, in the child's parent list.
#[derive(Clone, Copy)]
pub(crate) struct ParentEdge {
    pub parent: u32,
    pub next: u32,
    /// Weight of the edge that registered the parent: what `Attach` and
    /// `Activate` propagate with.
    pub weight: f64,
    /// Weight of the cheapest parallel edge `parent -> child`: what an
    /// answer tree using the hop reports (`DataGraph::edge_weight`).
    pub tree_weight: f64,
}

/// The reusable state of one search.  See the module docs.
#[derive(Default)]
pub(crate) struct Arena {
    generation: u32,
    stamps: Vec<Stamp>,
    /// Number of keywords of the current query.
    pub k: usize,
    pub slots: Vec<Slot>,
    /// One [`Label`] per (slot, keyword), at `slot * k + keyword`.
    pub labels: Vec<Label>,
    /// `a_{u,i}`: activation received from keyword `i`, at `slot * k + i`.
    pub act: Vec<f64>,
    pub parents: Vec<ParentEdge>,
    pub q_in: IndexedMaxHeap,
    pub q_out: IndexedMaxHeap,
    /// Per keyword, a lazy min-heap of snapshots of nodes in `Q_in` (the
    /// output bound of Section 4.5).  A snapshot is one integer, the
    /// distance's bits above the slot ([`snapshot_parts`]): distances are
    /// non-negative, so their bit patterns order as the values do, and one
    /// comparison orders by `(distance, slot)`.  At least `k` long: heaps
    /// past the first `k` are empty and kept for their capacity.
    pub frontier: Vec<BinaryHeap<Reverse<u128>>>,
    /// Scratch: the adjacency row being expanded.
    pub row: Vec<(NodeId, f64)>,
    /// Scratch: work stack of `Attach` / `Activate`.
    pub work: Vec<u32>,
    /// Scratch of `emit`: the candidate's `k` root-to-leaf paths back to
    /// back, the end offset and the edge-weight sum of each.
    pub path_nodes: Vec<NodeId>,
    pub path_ends: Vec<usize>,
    pub path_weights: Vec<f64>,
    /// Scratch of `emit`: the candidate's sorted distinct node set, and its
    /// root plus leaves.
    pub signature: Vec<NodeId>,
    pub prestige_nodes: Vec<NodeId>,
    /// The output heap's storage between queries: the search that holds the
    /// lease takes it, and puts it back when it ends.
    pub candidates: CandidatePool,
}

impl Arena {
    /// Forgets the previous query and sizes the arena for a `k`-keyword
    /// search over a graph of `num_nodes` nodes.
    fn begin(&mut self, num_nodes: usize, k: usize) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The counter wrapped: stamps written 2^32 queries ago would
            // read as live.  Clear for real, once.
            self.stamps.fill(Stamp::default());
            self.generation = 1;
        }
        if self.stamps.len() < num_nodes {
            self.stamps.resize(num_nodes, Stamp::default());
        }
        self.k = k;
        self.slots.clear();
        self.labels.clear();
        self.act.clear();
        self.parents.clear();
        self.q_in.clear();
        self.q_out.clear();
        self.frontier.iter_mut().for_each(BinaryHeap::clear);
        if self.frontier.len() < k {
            self.frontier.resize_with(k, BinaryHeap::new);
        }
    }

    /// The node's slot, claimed on first touch.
    #[inline]
    pub fn slot_for(&mut self, node: NodeId) -> u32 {
        match self.stamps.get(node.index()) {
            Some(stamp) if stamp.generation == self.generation => stamp.slot,
            _ => self.claim(node),
        }
    }

    fn claim(&mut self, node: NodeId) -> u32 {
        if self.stamps.len() <= node.index() {
            // An id beyond the graph the lease was sized for (a caller's
            // stale match set): grow rather than index out of bounds.
            self.stamps.resize(node.index() + 1, Stamp::default());
        }
        let slot = u32::try_from(self.slots.len()).expect("node ids are u32, so slots fit");
        self.stamps[node.index()] = Stamp {
            generation: self.generation,
            slot,
        };
        self.slots.push(Slot {
            node,
            depth: u32::MAX,
            finite: 0,
            parents_head: NO_SLOT,
            parents_tail: NO_SLOT,
            parents_inverse_weight: 0.0,
            in_xin: false,
            in_xout: false,
            touched_in: false,
            touched_out: false,
            min_dist: f64::INFINITY,
            total_act: 0.0,
            best_emitted_weight: f64::INFINITY,
        });
        let len = self.slots.len() * self.k;
        self.labels.resize(len, Label::UNREACHED);
        self.act.resize(len, 0.0);
        slot
    }

    /// A slot's labels, one per keyword.
    #[inline]
    pub fn labels(&self, w: impl Width, slot: u32) -> &[Label] {
        debug_assert_eq!(w.get(), self.k);
        &self.labels[span(w, slot)]
    }

    /// Recomputes the cached folds over a slot's distances.
    #[inline]
    pub fn refresh_dist(&mut self, w: impl Width, slot: u32) {
        let labels = &self.labels[span(w, slot)];
        let record = &mut self.slots[slot as usize];
        record.min_dist = labels.iter().map(|l| l.dist).fold(f64::INFINITY, f64::min);
        record.finite = labels.iter().filter(|l| l.dist.is_finite()).count() as u32;
    }

    /// Recomputes the cached sum over a slot's activations.
    #[inline]
    pub fn refresh_act(&mut self, w: impl Width, slot: u32) {
        self.slots[slot as usize].total_act = self.act[span(w, slot)].iter().sum();
    }

    /// Whether the node has a finite distance to every keyword.
    #[inline]
    pub fn is_complete(&self, w: impl Width, slot: u32) -> bool {
        self.slots[slot as usize].finite as usize == w.get()
    }

    /// Distance update along an explored edge `to -> via` of weight
    /// `weight`: wherever going through `via` is shorter, `to` adopts the
    /// distance and points its `sp` at `via`.  Returns whether anything
    /// improved.
    ///
    /// A node waiting in `Q_in` also gets the new distance snapshotted into
    /// that keyword's frontier heap.  Together with the snapshot of every
    /// finite distance taken when a node enters `Q_in`, this keeps the
    /// invariant the output bound reads: each `(node in Q_in, keyword)`
    /// with a finite distance has a snapshot of its *current* value.  (An
    /// improvement is by more than the staleness tolerance, so the
    /// snapshot it supersedes reads as stale.)
    pub fn relax(
        &mut self,
        w: impl Width,
        to: u32,
        via: u32,
        weight: f64,
        tree_weight: f64,
    ) -> bool {
        debug_assert!(weight > 0.0, "graph edge weights are positive");
        // A self-loop shortens no path: with a positive weight the
        // candidate is never below the distance it would replace.
        if to == via {
            return false;
        }
        let [to_labels, via_labels] = self
            .labels
            .get_disjoint_mut([span(w, to), span(w, via)])
            .expect("two distinct claimed slots");
        let mut improved = false;
        let mut queued = false;
        for (i, (label, via_label)) in to_labels.iter_mut().zip(via_labels.iter()).enumerate() {
            let candidate = via_label.dist + weight;
            if candidate < label.dist - 1e-12 {
                if !improved {
                    improved = true;
                    queued = self.q_in.contains(to);
                }
                *label = Label {
                    dist: candidate,
                    sp_weight: tree_weight,
                    sp: via,
                };
                if queued {
                    snapshot(&mut self.frontier, i, candidate, to);
                }
            }
        }
        if improved {
            self.refresh_dist(w, to);
        }
        improved
    }

    /// Activation spreading: `receiver` takes, per keyword, the larger of
    /// what it has and `share · µ` of the spreader's activation.  Returns
    /// whether anything rose.
    pub fn spread(
        &mut self,
        w: impl Width,
        spreader: u32,
        receiver: u32,
        mu: f64,
        share: f64,
    ) -> bool {
        // By index, not by two slices: a node spreads to itself over a
        // self-loop.
        let (to, from) = (span(w, receiver).start, span(w, spreader).start);
        let act = &mut self.act[..];
        let mut changed = false;
        for i in 0..w.get() {
            let candidate = act[from + i] * mu * share;
            if candidate > act[to + i] {
                act[to + i] = candidate;
                changed = true;
            }
        }
        if changed {
            self.refresh_act(w, receiver);
        }
        changed
    }

    /// Puts a node into `Q_in` with `priority` and snapshots its finite
    /// distances for the output bound (from here on `Arena::relax`
    /// snapshots what changes).
    pub fn enqueue_incoming(&mut self, w: impl Width, slot: u32, priority: f64) {
        self.q_in
            .push(slot, self.slots[slot as usize].node, priority);
        for (keyword, label) in self.labels[span(w, slot)].iter().enumerate() {
            if label.dist.is_finite() {
                snapshot(&mut self.frontier, keyword, label.dist, slot);
            }
        }
    }

    /// Whether the `sp` chain from `root` towards `keyword` is short enough
    /// for [`Arena::trace_path`] to succeed — the same walk, recording
    /// nothing.
    pub fn chain_fits(&self, w: impl Width, root: u32, keyword: usize, dmax: usize) -> bool {
        walk_chain(&self.labels, w, root, keyword, dmax, |_| {})
    }

    /// Follows the `sp` pointers from `root` to a node matching `keyword`,
    /// appending the path to the `path_*` scratch buffers.
    ///
    /// Returns `false` — the buffers are then garbage — when the chain is
    /// longer than `dmax + 2` edges.  That is not an inconsistency: only a
    /// node's depth from its *nearest* keyword is capped at `dmax` when it
    /// is expanded, and `Attach` propagates improved distances through
    /// explored parents without any depth check, so the chain towards a
    /// *far* keyword can outgrow the cap (thousands of times per query on
    /// frequent-keyword workloads).  A tree over such a chain would break
    /// the `dmax` bound of the answer model, so the caller drops the
    /// candidate, and because no tree was generated it does not count one.
    /// (The two edges of slack are historical; chains of `dmax + 1` and
    /// `dmax + 2` edges pass.)  The walk cannot cycle: every hop strictly
    /// decreases the distance.
    pub fn trace_path(&mut self, w: impl Width, root: u32, keyword: usize, dmax: usize) -> bool {
        let Arena {
            labels,
            slots,
            path_nodes,
            ..
        } = self;
        let mut weight = 0.0;
        path_nodes.push(slots[root as usize].node);
        let reached = walk_chain(labels, w, root, keyword, dmax, |hop| {
            weight += hop.sp_weight;
            path_nodes.push(slots[hop.sp as usize].node);
        });
        if reached {
            self.path_ends.push(self.path_nodes.len());
            self.path_weights.push(weight);
        }
        reached
    }

    /// Appends `parent` to `child`'s explored-parent list.  The caller
    /// registers each pair once.
    pub fn add_parent(&mut self, child: u32, parent: u32, weight: f64, tree_weight: f64) {
        let new = u32::try_from(self.parents.len()).expect("fewer than 2^32 explored edges");
        self.parents.push(ParentEdge {
            parent,
            next: NO_SLOT,
            weight,
            tree_weight,
        });
        let record = &mut self.slots[child as usize];
        match record.parents_tail {
            NO_SLOT => record.parents_head = new,
            tail => self.parents[tail as usize].next = new,
        }
        record.parents_tail = new;
        record.parents_inverse_weight += 1.0 / weight;
    }
}

/// Records that `slot`, waiting in `Q_in`, is `dist` away from `keyword`.
#[inline]
fn snapshot(frontier: &mut [BinaryHeap<Reverse<u128>>], keyword: usize, dist: f64, slot: u32) {
    debug_assert!(dist >= 0.0, "bit order needs non-negative distances");
    frontier[keyword].push(Reverse(u128::from(dist.to_bits()) << 32 | u128::from(slot)));
}

/// The distance and the slot of a frontier snapshot.
#[inline]
pub(crate) fn snapshot_parts(snapshot: u128) -> (f64, u32) {
    (f64::from_bits((snapshot >> 32) as u64), snapshot as u32)
}

/// Follows the `sp` pointers from `root` until a node matching `keyword`
/// (distance zero), calling `hop` with the label of every node left (its
/// `sp` is the slot entered).  `false` if the chain takes more than
/// `dmax + 2` hops (or breaks off, which a complete root's does not).
#[inline]
fn walk_chain(
    labels: &[Label],
    w: impl Width,
    root: u32,
    keyword: usize,
    dmax: usize,
    mut hop: impl FnMut(&Label),
) -> bool {
    let mut cur = root;
    let mut hops = 0usize;
    loop {
        let label = &labels[span(w, cur).start + keyword];
        if label.dist <= 0.0 {
            return true;
        }
        if label.sp == NO_SLOT {
            return false; // no finite distance: the caller checked completeness
        }
        hop(label);
        cur = label.sp;
        hops += 1;
        if hops > dmax + 2 {
            return false;
        }
    }
}

/// The arenas of the process that are not on loan.
static POOL: Pool = Pool::new();

/// A free list of arenas.  Production code has exactly one, [`POOL`]; tests
/// make their own so that they can count what comes back.
pub(crate) struct Pool {
    free: Mutex<Vec<Arena>>,
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// The free list, also after a panic while it was held: a `Vec` push
    /// or pop cannot leave it half-changed.
    fn lock(&self) -> MutexGuard<'_, Vec<Arena>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a pooled arena (or a new one) and resets it for a `k`-keyword
    /// search over a graph of `num_nodes` nodes.
    fn lease(&'static self, num_nodes: usize, k: usize) -> Lease {
        let mut arena = self.lock().pop().unwrap_or_default();
        arena.begin(num_nodes, k);
        Lease { arena, pool: self }
    }
}

/// The pool [`Lease::checkout`] draws from: [`POOL`].
#[cfg(not(test))]
fn pool() -> &'static Pool {
    &POOL
}

#[cfg(test)]
thread_local! {
    /// A test's own pool, for the thread it installed it on.
    static TEST_POOL: std::cell::Cell<Option<&'static Pool>> =
        const { std::cell::Cell::new(None) };
}

/// The pool [`Lease::checkout`] draws from: the one the test installed on
/// this thread, else [`POOL`].
#[cfg(test)]
fn pool() -> &'static Pool {
    TEST_POOL.with(std::cell::Cell::get).unwrap_or(&POOL)
}

#[cfg(test)]
impl Pool {
    /// A new, empty pool that `Lease::checkout` on the calling thread draws
    /// from from now on.  Leaked, because a lease may outlive the test's
    /// stack frame on another thread.
    pub fn private() -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool::new()));
        pool.install();
        pool
    }

    /// Makes `Lease::checkout` on the calling thread draw from this pool.
    pub fn install(&'static self) {
        TEST_POOL.with(|installed| installed.set(Some(self)));
    }

    /// Number of arenas not on loan.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// The generation counter of every pooled arena: a fresh arena reads 1
    /// after its first query, so the sum counts the queries they ran.
    pub fn generations(&self) -> Vec<u32> {
        self.lock().iter().map(|arena| arena.generation).collect()
    }

    /// Sets the generation counter of every pooled arena (to provoke a
    /// wrap).
    pub fn set_generation(&self, generation: u32) {
        for arena in self.lock().iter_mut() {
            arena.generation = generation;
        }
    }
}

/// An [`Arena`] on loan from a [`Pool`]; handed back on drop.
pub(crate) struct Lease {
    arena: Arena,
    pool: &'static Pool,
}

impl Lease {
    /// Takes a pooled arena (or a new one) and resets it for a `k`-keyword
    /// search over a graph of `num_nodes` nodes.
    pub fn checkout(num_nodes: usize, k: usize) -> Lease {
        pool().lease(num_nodes, k)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // A search that panicked may have stopped anywhere; `begin` would
        // reset the arena, but there is no reason to trust it with that.
        if std::thread::panicking() {
            return;
        }
        let arena = std::mem::take(&mut self.arena);
        self.pool.lock().push(arena);
    }
}

impl Deref for Lease {
    type Target = Arena;

    fn deref(&self) -> &Arena {
        &self.arena
    }
}

impl DerefMut for Lease {
    fn deref_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_claimed_in_first_touch_order_and_forgotten_by_begin() {
        let two = Fixed::<2>;
        let mut lease = Lease::checkout(10, 2);
        assert_eq!(lease.slot_for(NodeId(7)), 0);
        assert_eq!(lease.slot_for(NodeId(3)), 1);
        assert_eq!(lease.slot_for(NodeId(7)), 0);
        assert_eq!(lease.labels.len(), 4);
        assert!(lease.labels.iter().all(|l| l.dist.is_infinite()));
        assert!(!lease.is_complete(two, 0));
        lease.labels[0].dist = 1.5;
        lease.labels[1].dist = 0.5;
        lease.refresh_dist(two, 0);
        assert!(lease.is_complete(two, 0));
        assert_eq!(lease.slots[0].min_dist, 0.5);

        lease.begin(10, 3);
        assert!(lease.slots.is_empty() && lease.labels.is_empty());
        assert_eq!(lease.slot_for(NodeId(3)), 0, "old mappings are gone");
        assert_eq!(lease.labels.len(), 3);
        assert_eq!(lease.frontier.len(), 3);
    }

    /// A query with fewer keywords than the last one leaves the extra
    /// frontier heaps in place, empty, with their capacity.
    #[test]
    fn begin_keeps_frontier_heaps_past_k_empty() {
        let mut lease = Lease::checkout(10, 3);
        let slot = lease.slot_for(NodeId(4));
        lease.labels[2].dist = 1.0;
        lease.enqueue_incoming(Fixed::<3>, slot, 1.0);
        assert_eq!(lease.frontier[2].len(), 1);
        let capacity = lease.frontier[2].capacity();
        lease.begin(10, 1);
        assert_eq!(lease.frontier.len(), 3);
        assert!(lease.frontier.iter().all(BinaryHeap::is_empty));
        assert_eq!(lease.frontier[2].capacity(), capacity);
    }

    /// Every hop of an `sp` chain reads one label: distance, pointer and
    /// the weight a tree reports for the hop.
    #[test]
    fn trace_path_follows_labels_to_the_keyword() {
        let w = Runtime(2);
        let mut lease = Lease::checkout(10, 2);
        let (root, mid, leaf) = (
            lease.slot_for(NodeId(9)),
            lease.slot_for(NodeId(5)),
            lease.slot_for(NodeId(1)),
        );
        lease.labels[leaf as usize * 2 + 1].dist = 0.0;
        assert!(lease.relax(w, mid, leaf, 2.0, 1.5));
        assert!(lease.relax(w, root, mid, 1.0, 1.0));
        assert!(!lease.relax(w, root, mid, 1.0, 1.0), "nothing shorter");
        assert!(!lease.relax(w, root, root, 1.0, 1.0), "a self-loop");
        assert_eq!(lease.labels(w, root)[1].dist, 3.0);
        assert!(lease.chain_fits(w, root, 1, 8));
        assert!(lease.trace_path(w, root, 1, 8));
        assert_eq!(lease.path_nodes, [NodeId(9), NodeId(5), NodeId(1)]);
        assert_eq!(lease.path_weights, [2.5]);
        assert!(lease.chain_fits(w, root, 1, 0), "dmax + 2 hops pass");
        assert!(!lease.chain_fits(w, root, 0, 8), "no path to keyword 0");
    }

    #[test]
    fn ids_beyond_the_sized_graph_grow_the_stamp_array() {
        let mut lease = Lease::checkout(4, 1);
        assert_eq!(lease.slot_for(NodeId(1000)), 0);
        assert_eq!(lease.slot_for(NodeId(1000)), 0);
        assert_eq!(lease.slot_for(NodeId(2)), 1);
    }

    #[test]
    fn parent_lists_keep_registration_order() {
        let mut lease = Lease::checkout(8, 1);
        let child = lease.slot_for(NodeId(0));
        let other = lease.slot_for(NodeId(1));
        let (a, b) = (lease.slot_for(NodeId(5)), lease.slot_for(NodeId(6)));
        lease.add_parent(child, b, 2.0, 2.0);
        lease.add_parent(other, a, 9.0, 9.0);
        lease.add_parent(child, a, 3.0, 1.0);
        let mut seen = Vec::new();
        let mut at = lease.slots[child as usize].parents_head;
        while at != NO_SLOT {
            let edge = &lease.parents[at as usize];
            seen.push((edge.parent, edge.weight, edge.tree_weight));
            at = edge.next;
        }
        assert_eq!(seen, vec![(b, 2.0, 2.0), (a, 3.0, 1.0)]);
    }

    #[test]
    fn generation_wrap_clears_the_stamps_for_real() {
        let mut lease = Lease::checkout(4, 1);
        lease.generation = u32::MAX - 1;
        lease.begin(4, 1);
        assert_eq!(lease.generation, u32::MAX);
        lease.slot_for(NodeId(2));
        // Plant a stamp that the post-wrap generation would mistake for
        // its own if the wrap did not clear.
        lease.stamps[3] = Stamp {
            generation: 1,
            slot: 0,
        };
        lease.begin(4, 1);
        assert_eq!(lease.generation, 1);
        assert_eq!(lease.slot_for(NodeId(3)), 0);
        assert_eq!(lease.slots.len(), 1, "node 3 had to claim a fresh slot");
        assert_eq!(lease.slots[0].node, NodeId(3));
    }

    #[test]
    fn leases_return_to_the_pool_and_two_live_leases_are_distinct() {
        let pool = Pool::private();
        assert_eq!(pool.len(), 0, "a test's pool starts empty");
        {
            let mut first = Lease::checkout(4, 1);
            let mut second = Lease::checkout(4, 1);
            first.slot_for(NodeId(1));
            assert!(second.slots.is_empty(), "live leases share nothing");
            second.slot_for(NodeId(2));
            assert_eq!(first.slots.len(), 1);
        }
        assert_eq!(pool.len(), 2);
        let reused = Lease::checkout(4, 1);
        assert!(reused.slots.is_empty(), "a pooled arena comes back reset");
    }

    /// `k` leases live at once, on `k` threads, leave `k` pooled arenas —
    /// round after round, never more, and none lost: every checkout ran on
    /// one of them.
    #[test]
    fn k_live_leases_leave_exactly_k_pooled_arenas() {
        const ROUNDS: u32 = 50;
        for k in [1, 3, 6] {
            let pool = Pool::private();
            let all_live = std::sync::Barrier::new(k);
            for round in 1..=ROUNDS {
                std::thread::scope(|scope| {
                    for _ in 0..k {
                        scope.spawn(|| {
                            let mut lease = pool.lease(16, 2);
                            lease.slot_for(NodeId(3));
                            all_live.wait();
                            assert_eq!(lease.slots.len(), 1, "no other thread wrote here");
                        });
                    }
                });
                assert_eq!(pool.len(), k, "round {round}, {k} live leases");
            }
            let runs: u32 = pool.generations().iter().sum();
            assert_eq!(runs, ROUNDS * k as u32, "no arena was lost or lent twice");
        }
    }

    /// A panic while the pool lock is held poisons it; checkouts and
    /// returns go on as before.
    #[test]
    fn a_poisoned_pool_still_lends_and_takes_back() {
        let pool = Pool::private();
        drop(Lease::checkout(4, 1));
        let poisoned = std::panic::catch_unwind(|| {
            let _free = pool.free.lock().unwrap();
            panic!("poison the pool lock");
        });
        assert!(poisoned.is_err() && pool.free.is_poisoned());
        let mut lease = Lease::checkout(4, 1);
        assert!(lease.slots.is_empty());
        lease.slot_for(NodeId(2));
        drop(lease);
        assert_eq!(pool.generations(), [2], "the pooled arena was reused");
    }
}
