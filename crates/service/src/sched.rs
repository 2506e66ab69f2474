//! The admission scheduler: shortest-expected-work-first with per-tenant
//! fair share and aging.
//!
//! PR 2's admission queue was strictly FIFO, which is exactly wrong for the
//! paper's workload: interactive keyword queries are tiny (a two-keyword
//! author lookup explores a few hundred nodes) but occasionally a frequent-
//! keyword, high-`top_k` query costs five orders of magnitude more, and
//! FIFO parks every interactive user behind it.  [`WorkQueue`] replaces the
//! `VecDeque` with a two-level scheduler:
//!
//! * **Across tenants — fair share.**  Each tenant carries a *virtual
//!   finish time*: the charged cost of the work already popped for it.  The
//!   next job is always taken from the backlogged tenant with the smallest
//!   virtual time (ties broken by name), so a tenant flooding the queue
//!   advances its own clock and other tenants' single jobs slip ahead of
//!   the flood's tail.  A tenant becoming backlogged (first job, or again
//!   after an idle period) enters at the *system virtual time* — the clock
//!   of the tenant currently being served — so a newcomer starts level
//!   with the incumbents no matter how much history the service has:
//!   fairness debt is not banked across idle periods, and credit never
//!   accumulates.
//!
//! * **Within a tenant — shortest work first, with aging.**  Jobs are keyed
//!   by `virtual clock at admission + charged cost` and popped in key
//!   order.  With an idle clock this is pure shortest-job-first: the cheap
//!   query admitted *after* an expensive one has the smaller key and runs
//!   first.  Because the global clock advances by the charged cost of every
//!   popped job, a parked expensive job's key is eventually undercut by no
//!   newcomer — once the clock has advanced past its cost, even a
//!   zero-cost arrival keys behind it.  The wait of a job costing `C` is
//!   therefore bounded by `C` units of queue throughput no matter how many
//!   cheap queries keep arriving: aging is built into the key, not a
//!   separate escalation pass.
//!
//! Costs are *charged* in the estimator's unit (expected nodes explored,
//! [`banks_core::QueryCost`]) after scaling by the submitter's
//! [`Priority`](crate::Priority): high-priority work is under-charged and
//! so sorts earlier and debits its tenant less.  Everything is integer
//! arithmetic on explicit inputs — pop order is a pure function of the
//! push/pop sequence, which is what makes the scheduler tests (and replayed
//! production workloads) deterministic.

use std::collections::{BTreeMap, BinaryHeap};

/// One queued entry: the static scheduling key plus the payload.
struct Entry<T> {
    /// `virtual clock at push + charged cost`; smaller pops first.
    key: u64,
    /// Global admission sequence number: FIFO tie-break for equal keys.
    seq: u64,
    /// The charged cost, re-read at pop time to advance the clocks.
    charged: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    /// Reversed so the std max-heap pops the smallest `(key, seq)` first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

/// Per-tenant state: the virtual finish time and the tenant's own
/// shortest-work-first heap.
struct TenantQueue<T> {
    vtime: u64,
    heap: BinaryHeap<Entry<T>>,
}

/// The two-level work queue described in the [module docs](self).
///
/// Generic over the payload so the scheduling policy is testable without
/// spinning up worker threads: the unit tests drive `push`/`pop` directly
/// and assert on the exact pop order.
pub(crate) struct WorkQueue<T> {
    /// `BTreeMap` so tenant iteration (and thus tie-breaking) is
    /// deterministic by name.
    tenants: BTreeMap<String, TenantQueue<T>>,
    /// Global virtual clock: total charged cost popped so far.  Drives the
    /// within-tenant aging keys.
    drained: u64,
    /// System virtual time for *fair share*: the virtual time of the tenant
    /// most recently selected for service (monotone).  A newly backlogged
    /// tenant enters here, i.e. level with the currently-served tenants —
    /// NOT at `drained`, which is the *sum* over all tenants and would
    /// penalise a newcomer by the service's entire history.
    vnow: u64,
    seq: u64,
    len: usize,
}

impl<T> WorkQueue<T> {
    pub(crate) fn new() -> Self {
        WorkQueue {
            tenants: BTreeMap::new(),
            drained: 0,
            vnow: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Number of queued jobs across all tenants.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no job is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues a job for `tenant` at `charged` cost (clamped to ≥ 1 so a
    /// zero-cost flood still advances the clock and cannot starve anyone).
    pub(crate) fn push(&mut self, tenant: &str, charged: u64, item: T) {
        let charged = charged.max(1);
        let entry = Entry {
            key: self.drained.saturating_add(charged),
            seq: self.seq,
            charged,
            item,
        };
        self.seq += 1;
        // Probed by `&str`: the name is copied only when the tenant becomes
        // active.
        if !self.tenants.contains_key(tenant) {
            let queue = TenantQueue {
                vtime: 0,
                heap: BinaryHeap::new(),
            };
            self.tenants.insert(tenant.to_owned(), queue);
        }
        let tenant = self.tenants.get_mut(tenant).expect("inserted above");
        if tenant.heap.is_empty() {
            // Reactivation: an idle tenant re-enters at the system virtual
            // time — level with whoever is being served right now.  No
            // banked credit from the past, no stale debt either.
            tenant.vtime = tenant.vtime.max(self.vnow);
        }
        tenant.heap.push(entry);
        self.len += 1;
    }

    /// Pops the next job: the cheapest-keyed job of the backlogged tenant
    /// with the smallest virtual time.  Advances both clocks by the job's
    /// charged cost.
    pub(crate) fn pop(&mut self) -> Option<T> {
        // BTreeMap iterates in name order, so the first minimum wins ties
        // deterministically.  Tenant counts are small; the scan is O(T).
        let (name, tenant) = self
            .tenants
            .iter_mut()
            .filter(|(_, t)| !t.heap.is_empty())
            .min_by_key(|(_, t)| t.vtime)?;
        let entry = tenant.heap.pop().expect("tenant backlogged");
        // System virtual time = virtual time of the tenant entering service
        // (monotone): the fair-share baseline newcomers start from.
        self.vnow = self.vnow.max(tenant.vtime);
        tenant.vtime = tenant.vtime.saturating_add(entry.charged);
        self.drained = self.drained.saturating_add(entry.charged);
        if tenant.heap.is_empty() {
            // Drop drained tenants so the map tracks the active set, not
            // every tenant name ever seen.
            let name = name.clone();
            self.tenants.remove(&name);
        }
        self.len -= 1;
        Some(entry.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pop every queued item, in order.
    fn pop_all(q: &mut WorkQueue<&'static str>) -> Vec<&'static str> {
        let mut out = Vec::new();
        while let Some(item) = q.pop() {
            out.push(item);
        }
        out
    }

    #[test]
    fn shortest_expected_work_pops_first() {
        let mut q = WorkQueue::new();
        q.push("", 1_000, "expensive");
        q.push("", 10, "cheap");
        q.push("", 100, "medium");
        assert_eq!(q.len(), 3);
        // The cheap query was admitted *behind* the expensive one and still
        // runs first — the FIFO starvation PR 2 suffered from is gone.
        assert_eq!(pop_all(&mut q), vec!["cheap", "medium", "expensive"]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_costs_fall_back_to_fifo() {
        let mut q = WorkQueue::new();
        q.push("", 50, "first");
        q.push("", 50, "second");
        q.push("", 50, "third");
        assert_eq!(pop_all(&mut q), vec!["first", "second", "third"]);
    }

    /// Aging: under a sustained stream of cheap arrivals, the parked
    /// expensive job surfaces after a *bounded* amount of queue throughput
    /// (its own cost), not never.
    #[test]
    fn aging_prevents_starvation_under_sustained_cheap_load() {
        let mut q = WorkQueue::new();
        q.push("", 1_000, "expensive");
        let mut pops = 0usize;
        loop {
            // one cheap arrival per pop: the adversarial steady state
            q.push("", 10, "cheap");
            let popped = q.pop().expect("non-empty");
            pops += 1;
            if popped == "expensive" {
                break;
            }
            assert!(
                pops <= 110,
                "expensive job must pop within cost/cheap-cost (+slack) pops"
            );
        }
        // key = 1000; each cheap pop advances the clock by 10, so the job
        // surfaces once new arrivals key at/past 1000 (the FIFO seq breaks
        // the tie in the older job's favour): exactly 100 pops.
        assert_eq!(pops, 100);
    }

    /// The bound scales with the job's cost: cheaper parked work surfaces
    /// proportionally sooner.
    #[test]
    fn aging_bound_is_proportional_to_cost() {
        for (cost, expected) in [(100u64, 10usize), (500, 50)] {
            let mut q = WorkQueue::new();
            q.push("", cost, "parked");
            let mut pops = 0usize;
            loop {
                q.push("", 10, "cheap");
                pops += 1;
                if q.pop().expect("non-empty") == "parked" {
                    break;
                }
            }
            assert_eq!(pops, expected, "cost {cost}");
        }
    }

    #[test]
    fn tenant_flood_cannot_monopolise_the_queue() {
        let mut q = WorkQueue::new();
        for _ in 0..100 {
            q.push("flood", 10, "flood");
        }
        q.push("solo", 10, "solo");
        // Fair share: the solo tenant's job runs after at most one job of
        // the flooding tenant, not after all hundred.
        let order = pop_all(&mut q);
        let solo_at = order.iter().position(|&j| j == "solo").unwrap();
        assert!(solo_at <= 1, "solo popped at {solo_at}");
    }

    /// A tenant arriving late on a long-running service starts level with
    /// the incumbents — not behind the *sum* of their history.
    #[test]
    fn late_arriving_tenant_is_not_penalised_by_global_history() {
        let mut q = WorkQueue::new();
        for _ in 0..50 {
            q.push("a", 100, "a");
            q.push("b", 100, "b");
        }
        // Drain most of the backlog: a and b each consume ~3000 units, so
        // the global drained total is ~6000 while each tenant's own clock
        // is ~3000.
        for _ in 0..60 {
            q.pop();
        }
        q.push("c", 10, "c");
        let mut pops = 0usize;
        loop {
            pops += 1;
            if q.pop().expect("non-empty") == "c" {
                break;
            }
            assert!(
                pops <= 2,
                "newcomer must start level with incumbents, not wait out \
                 their combined history"
            );
        }
    }

    #[test]
    fn backlogged_tenants_alternate() {
        let mut q = WorkQueue::new();
        for _ in 0..3 {
            q.push("a", 10, "a");
            q.push("b", 10, "b");
        }
        assert_eq!(pop_all(&mut q), vec!["a", "b", "a", "b", "a", "b"]);
    }

    /// A tenant charged more (lower priority / bigger jobs) yields the
    /// floor to a lightly-charged tenant proportionally more often.
    #[test]
    fn fair_share_is_weighted_by_charged_cost() {
        let mut q = WorkQueue::new();
        for _ in 0..2 {
            q.push("heavy", 40, "heavy");
        }
        for _ in 0..5 {
            q.push("light", 10, "light");
        }
        let order = pop_all(&mut q);
        // heavy pops once (vtime 0 -> 40), then light catches up with four
        // pops (vtime 10,20,30,40), then names tie-break.
        assert_eq!(
            order,
            vec!["heavy", "light", "light", "light", "light", "heavy", "light"]
        );
    }

    #[test]
    fn idle_tenants_bank_no_credit() {
        let mut q = WorkQueue::new();
        // "busy" consumes 1000 units of throughput while "idler" is idle.
        q.push("busy", 1_000, "busy");
        assert_eq!(q.pop(), Some("busy"));
        // Had "idler" banked credit while idle, it could now flood ahead of
        // everything; instead it re-enters at the current clock and shares.
        q.push("idler", 10, "i1");
        q.push("busy", 10, "b1");
        q.push("idler", 10, "i2");
        // Both re-enter at the system virtual time — level — so neither
        // banked credit nor debt survives the idle gap; names tie-break.
        assert_eq!(pop_all(&mut q), vec!["b1", "i1", "i2"]);
    }

    #[test]
    fn zero_cost_is_clamped_and_pops_in_order() {
        let mut q = WorkQueue::new();
        q.push("", 0, "a");
        q.push("", 0, "b");
        assert_eq!(pop_all(&mut q), vec!["a", "b"]);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
