//! An indexed 4-ary max-heap over the slots of a per-query arena (`arena.rs`).
//!
//! The incoming and outgoing iterators of Bidirectional search order their
//! frontiers by node activation, and activation values change while a node
//! is queued (the `Activate` propagation of Figure 3).  The heap therefore
//! keeps, next to the entry array, a **position array** indexed by arena
//! slot: changing a queued node's priority is a true increase/decrease-key
//! (sift from its current position), membership is one array read, and the
//! heap never holds a stale entry — what `peek` returns is live.
//!
//! Order is `(priority, lower NodeId first)`, a total order with no equal
//! keys (a node is queued at most once), so the pop sequence is fully
//! determined by the pushed keys and does not depend on the heap's shape.
//! Priorities compare as [`f64::total_cmp`] orders them; an entry stores
//! the integer that order compares (`order_key`), computed once per push,
//! so a sift compares integers.
//!
//! Memory is proportional to the slots pushed, not to the graph:
//! [`IndexedMaxHeap::clear`] truncates both arrays in O(1) and keeps their
//! capacity for the next query.

use banks_graph::NodeId;

/// Children per heap node.  Four keeps the tree half as deep as a binary
/// heap; the extra comparisons per level stay within one cache line of
/// 16-byte entries.
const ARITY: usize = 4;

/// Position-array value of a slot that is not queued.
const ABSENT: u32 = u32::MAX;

/// The integer whose order is [`f64::total_cmp`]'s order of `priority`:
/// the bits, with the magnitude bits flipped for negative values.  The map
/// is its own inverse ([`priority_of`]).
#[inline]
fn order_key(priority: f64) -> i64 {
    let bits = priority.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The priority whose [`order_key`] is `key`.
#[inline]
fn priority_of(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

#[derive(Clone, Copy)]
struct Entry {
    /// [`order_key`] of the priority.
    key: i64,
    node: NodeId,
    slot: u32,
}

impl Entry {
    /// Max-heap order on priority; ties broken on node id (lower id first)
    /// so that runs are fully deterministic.
    #[inline]
    fn beats(&self, other: &Entry) -> bool {
        self.key > other.key || (self.key == other.key && self.node < other.node)
    }

    #[inline]
    fn unpack(&self) -> (u32, NodeId, f64) {
        (self.slot, self.node, priority_of(self.key))
    }
}

/// Updatable max-priority queue keyed by arena slot.
#[derive(Default)]
pub struct IndexedMaxHeap {
    entries: Vec<Entry>,
    /// `position[slot]` is the index of the slot's entry in `entries`, or
    /// [`ABSENT`].  Grown on demand, so slots never pushed cost nothing.
    position: Vec<u32>,
}

impl IndexedMaxHeap {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the queue in O(1), keeping the allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.position.clear();
    }

    /// Number of queued slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when the slot is currently queued.
    #[inline]
    pub fn contains(&self, slot: u32) -> bool {
        self.position
            .get(slot as usize)
            .is_some_and(|at| *at != ABSENT)
    }

    /// Inserts a slot, or raises/lowers the priority of a queued one.
    /// `node` is the slot's node id, used only to break priority ties.
    /// Returns `true` if the slot was not previously queued.
    pub fn push(&mut self, slot: u32, node: NodeId, priority: f64) -> bool {
        let entry = Entry {
            key: order_key(priority),
            node,
            slot,
        };
        if self.contains(slot) {
            let at = self.position[slot as usize] as usize;
            if self.entries[at].key == entry.key {
                // Same key: the entry is where it belongs.  Under distance
                // priority `Attach` re-pushes every node it visits, and an
                // update of any distance but the smallest changes nothing
                // here.
                return false;
            }
            let raised = entry.beats(&self.entries[at]);
            self.entries[at] = entry;
            if raised {
                self.sift_up(at);
            } else {
                self.sift_down(at);
            }
            return false;
        }
        if self.position.len() <= slot as usize {
            self.position.resize(slot as usize + 1, ABSENT);
        }
        self.entries.push(entry);
        self.sift_up(self.entries.len() - 1);
        true
    }

    /// The queued `(slot, node, priority)` with the highest priority.
    #[inline]
    pub fn peek(&self) -> Option<(u32, NodeId, f64)> {
        self.entries.first().map(Entry::unpack)
    }

    /// Removes and returns the entry with the highest priority.
    pub fn pop(&mut self) -> Option<(u32, NodeId, f64)> {
        let top = *self.entries.first()?;
        let last = self.entries.pop().expect("the heap has a first entry");
        self.position[top.slot as usize] = ABSENT;
        if !self.entries.is_empty() {
            self.entries[0] = last;
            self.sift_down(0);
        }
        Some(top.unpack())
    }

    /// Moves the entry at `at` towards the root until its parent beats it.
    fn sift_up(&mut self, mut at: usize) {
        let entry = self.entries[at];
        while at > 0 {
            let parent = (at - 1) / ARITY;
            if !entry.beats(&self.entries[parent]) {
                break;
            }
            self.place(at, self.entries[parent]);
            at = parent;
        }
        self.place(at, entry);
    }

    /// Moves the entry at `at` towards the leaves until it beats every
    /// child.
    fn sift_down(&mut self, mut at: usize) {
        let entry = self.entries[at];
        let len = self.entries.len();
        loop {
            let first = at * ARITY + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for child in first + 1..(first + ARITY).min(len) {
                if self.entries[child].beats(&self.entries[best]) {
                    best = child;
                }
            }
            if !self.entries[best].beats(&entry) {
                break;
            }
            self.place(at, self.entries[best]);
            at = best;
        }
        self.place(at, entry);
    }

    #[inline]
    fn place(&mut self, at: usize, entry: Entry) {
        self.position[entry.slot as usize] = at as u32;
        self.entries[at] = entry;
    }

    /// The queued slots, in no particular order.
    #[cfg(debug_assertions)]
    pub(crate) fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|e| e.slot)
    }

    /// Panics unless the heap property holds and the position array and the
    /// entry array describe each other.
    #[cfg(test)]
    fn assert_consistent(&self) {
        for (at, entry) in self.entries.iter().enumerate() {
            assert_eq!(self.position[entry.slot as usize] as usize, at);
            assert!(at == 0 || !entry.beats(&self.entries[(at - 1) / ARITY]));
        }
        let queued = self.position.iter().filter(|at| **at != ABSENT).count();
        assert_eq!(queued, self.entries.len());
    }
}

impl std::fmt::Debug for IndexedMaxHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexedMaxHeap")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Slot and node id coincide in these tests.
    fn push(q: &mut IndexedMaxHeap, id: u32, priority: f64) -> bool {
        q.push(id, NodeId(id), priority)
    }

    fn pop_node(q: &mut IndexedMaxHeap) -> u32 {
        q.pop().expect("queue is not empty").0
    }

    #[test]
    fn pops_in_priority_order() {
        let mut q = IndexedMaxHeap::new();
        assert!(push(&mut q, 1, 0.5));
        assert!(push(&mut q, 2, 0.9));
        assert!(push(&mut q, 3, 0.1));
        assert_eq!(q.len(), 3);
        assert_eq!(pop_node(&mut q), 2);
        assert_eq!(pop_node(&mut q), 1);
        assert_eq!(pop_node(&mut q), 3);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn priority_updates_take_effect_in_both_directions() {
        let mut q = IndexedMaxHeap::new();
        push(&mut q, 1, 0.2);
        push(&mut q, 2, 0.5);
        assert!(!push(&mut q, 1, 0.9), "a re-push is an update");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(), Some((1, NodeId(1), 0.9)));
        push(&mut q, 1, 0.1);
        assert_eq!(q.pop(), Some((2, NodeId(2), 0.5)));
        assert_eq!(q.pop(), Some((1, NodeId(1), 0.1)));
    }

    /// Re-pushing a queued slot with the priority it already has changes
    /// nothing: not its place, not anyone else's, not the pop order.
    #[test]
    fn same_key_push_is_a_no_op() {
        let mut q = IndexedMaxHeap::new();
        for (id, priority) in [(1, 0.5), (2, 0.9), (3, 0.1), (4, 0.5), (5, 0.7), (6, 0.3)] {
            push(&mut q, id, priority);
        }
        let before: Vec<(u32, i64)> = q.entries.iter().map(|e| (e.slot, e.key)).collect();
        let positions = q.position.clone();
        for (id, priority) in [(4, 0.5), (2, 0.9), (3, 0.1)] {
            assert!(!push(&mut q, id, priority));
        }
        let after: Vec<(u32, i64)> = q.entries.iter().map(|e| (e.slot, e.key)).collect();
        assert_eq!(before, after);
        assert_eq!(positions, q.position);
        q.assert_consistent();
        // -0.0 and 0.0 are different keys to `total_cmp`, so not a no-op.
        push(&mut q, 7, 0.0);
        push(&mut q, 8, 0.0);
        push(&mut q, 8, -0.0);
        q.assert_consistent();
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.0)).collect();
        assert_eq!(order, vec![2, 5, 1, 4, 6, 3, 7, 8]);
    }

    #[test]
    fn ties_break_on_node_id_not_slot() {
        let mut q = IndexedMaxHeap::new();
        q.push(0, NodeId(7), 1.0);
        q.push(1, NodeId(3), 1.0);
        assert_eq!(q.pop().unwrap().1, NodeId(3));
        assert_eq!(q.pop().unwrap().1, NodeId(7));
    }

    /// Priorities closer than `f64::EPSILON` are still distinct keys (the
    /// lazy-deletion queue this heap replaced compared them with an
    /// absolute epsilon and read such neighbours as one).
    #[test]
    fn priorities_below_epsilon_apart_stay_ordered() {
        let mut q = IndexedMaxHeap::new();
        push(&mut q, 1, 1e-20);
        push(&mut q, 2, 3e-20);
        push(&mut q, 1, 2e-20);
        assert_eq!(q.pop(), Some((2, NodeId(2), 3e-20)));
        assert_eq!(q.pop(), Some((1, NodeId(1), 2e-20)));
    }

    #[test]
    fn contains_tracks_membership_and_clear_forgets_everything() {
        let mut q = IndexedMaxHeap::new();
        push(&mut q, 5, 0.3);
        push(&mut q, 2, 0.8);
        assert!(q.contains(2) && q.contains(5));
        assert!(!q.contains(3) && !q.contains(99));
        assert_eq!(pop_node(&mut q), 2);
        assert!(!q.contains(2));
        q.clear();
        assert!(q.is_empty() && !q.contains(5));
        assert!(push(&mut q, 5, 0.1), "a cleared slot is fresh again");
    }

    /// One step of the random walk: push/raise/lower a slot, or pop.
    #[derive(Clone, Debug)]
    enum Op {
        Push { slot: u32, level: u8 },
        Pop,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        // Few slots and few priority levels, so re-pushes (raises and
        // lowers) and priority ties are the common case.
        proptest::collection::vec((0u32..24, 0u8..6, 0u8..4), 1..200).prop_map(|steps| {
            steps
                .into_iter()
                .map(|(slot, level, kind)| {
                    if kind == 0 {
                        Op::Pop
                    } else {
                        Op::Push { slot, level }
                    }
                })
                .collect()
        })
    }

    /// The integer image orders as `total_cmp` does, and gives the
    /// priority back bit for bit.
    #[test]
    fn order_keys_follow_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            1e-20,
            0.25,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in values {
            assert_eq!(priority_of(order_key(a)).to_bits(), a.to_bits());
            for b in values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a naive model — a `Vec` scanned for its maximum under
        /// the same `(priority, lower NodeId first)` order — every push
        /// reports freshness alike, and peek, pop, len and contains agree
        /// after every step.  Node ids run opposite to slots, so a heap
        /// that broke ties on the slot would be caught.  With six priority
        /// levels over 24 slots about one re-push in six carries the key
        /// the slot already has: the early return must leave the position
        /// array and the heap order as a sift would have.
        #[test]
        fn behaves_like_a_sorted_vec(ops in arb_ops()) {
            let node_of = |slot: u32| NodeId(1000 - slot);
            let mut heap = IndexedMaxHeap::new();
            let mut model: Vec<(u32, f64)> = Vec::new();
            for op in ops {
                match op {
                    Op::Push { slot, level } => {
                        let priority = f64::from(level) * 0.25;
                        let fresh = match model.iter_mut().find(|(s, _)| *s == slot) {
                            Some(entry) => {
                                entry.1 = priority;
                                false
                            }
                            None => {
                                model.push((slot, priority));
                                true
                            }
                        };
                        prop_assert_eq!(heap.push(slot, node_of(slot), priority), fresh);
                    }
                    Op::Pop => {
                        model.sort_by(|a, b| {
                            b.1.total_cmp(&a.1).then_with(|| node_of(a.0).cmp(&node_of(b.0)))
                        });
                        let expected = if model.is_empty() {
                            None
                        } else {
                            let (slot, priority) = model.remove(0);
                            Some((slot, node_of(slot), priority))
                        };
                        prop_assert_eq!(heap.peek(), expected);
                        prop_assert_eq!(heap.pop(), expected);
                    }
                }
                heap.assert_consistent();
                prop_assert_eq!(heap.len(), model.len());
                for slot in 0..24 {
                    prop_assert_eq!(
                        heap.contains(slot),
                        model.iter().any(|(s, _)| *s == slot)
                    );
                }
            }
        }
    }
}
