//! [`MutationLog`]: a bounded record of the batches that produced the
//! current graph version.
//!
//! A [`crate::DataGraph`] is a persistent value —
//! [`crate::DataGraph::apply_batch`] never modifies its receiver — so
//! whoever owns "the" graph and advances it as batches land (the serving
//! tier) keeps this log beside it, epoch to epoch.

/// Default cap on retained [`AppliedBatch`] log entries; older entries are
/// dropped from the front (and counted — see
/// [`MutationLog::dropped`]).  The log is an audit/debugging surface, not a
/// redo log — the current graph is always authoritative.
pub const DEFAULT_LOG_CAPACITY: usize = 1024;

/// A bounded, oldest-first log of [`AppliedBatch`] records.
///
/// The serving tier needs "what batches landed recently" with an explicit
/// record of how many entries the bound silently evicted, so truncation is
/// observable instead of invisible.
#[derive(Clone, Debug)]
pub struct MutationLog {
    entries: Vec<AppliedBatch>,
    capacity: usize,
    dropped: u64,
}

impl MutationLog {
    /// An empty log retaining at most `capacity` entries (a capacity of 0
    /// records nothing and counts every push as dropped).
    pub fn new(capacity: usize) -> Self {
        MutationLog {
            entries: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends a record, evicting from the front once past capacity.
    pub fn push(&mut self, record: AppliedBatch) {
        self.entries.push(record);
        if self.entries.len() > self.capacity {
            let excess = self.entries.len() - self.capacity;
            self.entries.drain(..excess);
            self.dropped += excess as u64;
        }
    }

    /// The retained records, oldest first.
    pub fn entries(&self) -> &[AppliedBatch] {
        &self.entries
    }

    /// How many records the capacity bound has evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for MutationLog {
    fn default() -> Self {
        MutationLog::new(DEFAULT_LOG_CAPACITY)
    }
}

/// One applied batch, as recorded in a [`MutationLog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppliedBatch {
    /// Epoch of the graph the batch was applied to.
    pub parent_epoch: u64,
    /// Epoch of the successor graph the batch produced.
    pub epoch: u64,
    /// Total ops in the batch.
    pub ops: usize,
    /// Ops accepted.
    pub accepted: usize,
    /// Ops rejected (validation failures; they changed nothing).
    pub rejected: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64) -> AppliedBatch {
        AppliedBatch {
            parent_epoch: epoch - 1,
            epoch,
            ops: 1,
            accepted: 1,
            rejected: 0,
        }
    }

    #[test]
    fn capacity_bound_keeps_the_newest_and_counts_drops() {
        let mut log = MutationLog::new(2);
        assert_eq!(log.capacity(), 2);
        for epoch in 1..=5 {
            log.push(record(epoch));
        }
        assert_eq!(log.len(), 2, "log is bounded");
        assert_eq!(log.dropped(), 3, "evictions are counted");
        assert_eq!(log.entries().last(), Some(&record(5)));
    }

    #[test]
    fn zero_capacity_log_records_nothing_but_counts_everything() {
        let mut log = MutationLog::new(0);
        log.push(record(1));
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 1);
    }
}
