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
//!   one [`Slot`] record; the per-keyword vectors are struct-of-arrays,
//!   `dist[slot * k + i]` / `act[..]` / `sp[..]` / `sp_weight[..]`.  The
//!   folds the scheduler asks for on every priority computation
//!   (`min_dist`, `Σ act`, number of finite distances) are cached in the
//!   slot and refreshed where the vectors change.
//! * Explored-parent lists (`P_u` of Figure 2) are singly linked through
//!   one shared edge pool, in registration order.
//! * The two frontier queues, the per-keyword frontier-distance heaps, the
//!   scratch buffers of `emit` / `attach` / the row scan and the output
//!   heap's candidate pool (`output.rs`) live here too, so a warmed-up
//!   arena runs a query without allocating.
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
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

use banks_graph::NodeId;

use crate::output::CandidatePool;
use crate::pq::IndexedMaxHeap;

/// "No slot": end of a parent list, or an `sp` pointer not yet set.
pub(crate) const NO_SLOT: u32 = u32::MAX;

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
    /// `dist_{u,i}`: best known path length from the node to a node in
    /// `S_i`.
    pub dist: Vec<f64>,
    /// `a_{u,i}`: activation received from keyword `i`.
    pub act: Vec<f64>,
    /// `sp_{u,i}`: slot of the child to follow for the best known path to
    /// `t_i`, with the tree weight of that hop.
    pub sp: Vec<u32>,
    pub sp_weight: Vec<f64>,
    pub parents: Vec<ParentEdge>,
    pub q_in: IndexedMaxHeap,
    pub q_out: IndexedMaxHeap,
    /// Per keyword, a lazy min-heap of `(dist bits, slot)` snapshots of
    /// nodes in `Q_in` (the output bound of Section 4.5).  Distances are
    /// non-negative, so their bit patterns order as the values do.
    pub frontier: Vec<BinaryHeap<Reverse<(u64, u32)>>>,
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
        self.dist.clear();
        self.act.clear();
        self.sp.clear();
        self.sp_weight.clear();
        self.parents.clear();
        self.q_in.clear();
        self.q_out.clear();
        self.frontier.truncate(k);
        self.frontier.iter_mut().for_each(BinaryHeap::clear);
        self.frontier.resize_with(k, BinaryHeap::new);
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
            in_xin: false,
            in_xout: false,
            touched_in: false,
            touched_out: false,
            min_dist: f64::INFINITY,
            total_act: 0.0,
            best_emitted_weight: f64::INFINITY,
        });
        let len = self.slots.len() * self.k;
        self.dist.resize(len, f64::INFINITY);
        self.act.resize(len, 0.0);
        self.sp.resize(len, NO_SLOT);
        self.sp_weight.resize(len, 0.0);
        slot
    }

    /// Recomputes the cached folds over a slot's distances.
    #[inline]
    pub fn refresh_dist(&mut self, slot: u32) {
        let at = slot as usize * self.k;
        let dist = &self.dist[at..at + self.k];
        let record = &mut self.slots[slot as usize];
        record.min_dist = dist.iter().copied().fold(f64::INFINITY, f64::min);
        record.finite = dist.iter().filter(|d| d.is_finite()).count() as u32;
    }

    /// Recomputes the cached sum over a slot's activations.
    #[inline]
    pub fn refresh_act(&mut self, slot: u32) {
        let at = slot as usize * self.k;
        self.slots[slot as usize].total_act = self.act[at..at + self.k].iter().sum();
    }

    /// Whether the node has a finite distance to every keyword.
    #[inline]
    pub fn is_complete(&self, slot: u32) -> bool {
        self.slots[slot as usize].finite as usize == self.k
    }

    /// The parent list starting at entry `head`, in registration order.
    pub fn parent_edges(&self, head: u32) -> impl Iterator<Item = &ParentEdge> {
        let mut at = head;
        std::iter::from_fn(move || {
            let edge = self.parents.get(at as usize)?;
            at = edge.next;
            Some(edge)
        })
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
    pub fn relax(&mut self, to: u32, via: u32, weight: f64, tree_weight: f64) -> bool {
        let (to_at, via_at) = (to as usize * self.k, via as usize * self.k);
        let mut improved = false;
        let mut queued = false;
        for i in 0..self.k {
            let candidate = self.dist[via_at + i] + weight;
            if candidate < self.dist[to_at + i] - 1e-12 {
                if !improved {
                    improved = true;
                    queued = self.q_in.contains(to);
                }
                self.dist[to_at + i] = candidate;
                self.sp[to_at + i] = via;
                self.sp_weight[to_at + i] = tree_weight;
                if queued {
                    self.snapshot(i, candidate, to);
                }
            }
        }
        if improved {
            self.refresh_dist(to);
        }
        improved
    }

    /// Activation spreading: `receiver` takes, per keyword, the larger of
    /// what it has and `share · µ` of the spreader's activation.  Returns
    /// whether anything rose.
    pub fn spread(&mut self, spreader: u32, receiver: u32, mu: f64, share: f64) -> bool {
        let (from_at, to_at) = (spreader as usize * self.k, receiver as usize * self.k);
        let mut changed = false;
        for i in 0..self.k {
            let candidate = self.act[from_at + i] * mu * share;
            if candidate > self.act[to_at + i] {
                self.act[to_at + i] = candidate;
                changed = true;
            }
        }
        if changed {
            self.refresh_act(receiver);
        }
        changed
    }

    /// Records that `slot`, waiting in `Q_in`, is `dist` away from
    /// `keyword`.
    #[inline]
    pub fn snapshot(&mut self, keyword: usize, dist: f64, slot: u32) {
        debug_assert!(dist >= 0.0, "bit order needs non-negative distances");
        self.frontier[keyword].push(Reverse((dist.to_bits(), slot)));
    }

    /// Whether the `sp` chain from `root` towards `keyword` is short enough
    /// for [`Arena::trace_path`] to succeed — the same walk, recording
    /// nothing.
    pub fn chain_fits(&self, root: u32, keyword: usize, dmax: usize) -> bool {
        walk_chain(&self.dist, &self.sp, self.k, root, keyword, dmax, |_, _| {})
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
    pub fn trace_path(&mut self, root: u32, keyword: usize, dmax: usize) -> bool {
        let Arena {
            dist,
            sp,
            sp_weight,
            slots,
            path_nodes,
            ..
        } = self;
        let mut weight = 0.0;
        path_nodes.push(slots[root as usize].node);
        let reached = walk_chain(dist, sp, self.k, root, keyword, dmax, |at, next| {
            weight += sp_weight[at];
            path_nodes.push(slots[next as usize].node);
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
    }
}

/// Follows the `sp` pointers from `root` until a node matching `keyword`
/// (distance zero), calling `hop(at, next)` for every edge taken, where `at`
/// indexes the per-keyword arrays of the node being left and `next` is the
/// slot entered.  `false` if the chain takes more than `dmax + 2` hops (or
/// breaks off, which a complete root's does not).
#[inline]
fn walk_chain(
    dist: &[f64],
    sp: &[u32],
    k: usize,
    root: u32,
    keyword: usize,
    dmax: usize,
    mut hop: impl FnMut(usize, u32),
) -> bool {
    let mut cur = root;
    let mut hops = 0usize;
    loop {
        let at = cur as usize * k + keyword;
        if dist[at] <= 0.0 {
            return true;
        }
        cur = sp[at];
        if cur == NO_SLOT {
            return false; // no finite distance: the caller checked completeness
        }
        hop(at, cur);
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
        let mut lease = Lease::checkout(10, 2);
        assert_eq!(lease.slot_for(NodeId(7)), 0);
        assert_eq!(lease.slot_for(NodeId(3)), 1);
        assert_eq!(lease.slot_for(NodeId(7)), 0);
        assert_eq!(lease.dist.len(), 4);
        assert!(lease.dist.iter().all(|d| d.is_infinite()));
        assert!(!lease.is_complete(0));
        lease.dist[0] = 1.5;
        lease.dist[1] = 0.5;
        lease.refresh_dist(0);
        assert!(lease.is_complete(0));
        assert_eq!(lease.slots[0].min_dist, 0.5);

        lease.begin(10, 3);
        assert!(lease.slots.is_empty() && lease.dist.is_empty());
        assert_eq!(lease.slot_for(NodeId(3)), 0, "old mappings are gone");
        assert_eq!(lease.dist.len(), 3);
        assert_eq!(lease.frontier.len(), 3);
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
