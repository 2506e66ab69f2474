//! The structured event log: a bounded ring of leveled operational events.
//!
//! Counters say *how often*, traces say *how long* — the event log says
//! *what happened*: admission rejects, quota 429s, mutation batches,
//! checkpoints, snapshot swaps, crash recovery, SLO alert
//! fire/resolve, and watchdog trips, each stamped with a monotonically
//! increasing id so HTTP clients can page (`GET /debug/events?since=<id>`)
//! or tail live over SSE and resume after a disconnect with
//! `Last-Event-ID`.  The ring is bounded; evictions are counted, never
//! silent.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::bounded::BoundedRing;

/// Severity of an [`Event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventLevel {
    /// Routine lifecycle: swaps, checkpoints, mutation batches, recovery.
    Info,
    /// Something degraded: rejects, quota 429s, watchdog trips, alerts.
    Warn,
    /// Something failed outright.
    Error,
}

impl EventLevel {
    /// The lowercase wire name (`"info"` / `"warn"` / `"error"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            EventLevel::Info => "info",
            EventLevel::Warn => "warn",
            EventLevel::Error => "error",
        }
    }
}

/// One structured operational event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonically increasing id, 1-based; ids are never reused, so a
    /// client holding id `n` can ask for everything after it even if the
    /// ring has wrapped in between.
    pub id: u64,
    /// Wall-clock milliseconds since the Unix epoch at emission.
    pub at_unix_ms: u64,
    /// Severity.
    pub level: EventLevel,
    /// Machine-readable kind from the fixed taxonomy (e.g.
    /// `"quota-reject"`, `"checkpoint"`, `"alert-fire"`).
    pub kind: &'static str,
    /// Human-readable detail line.
    pub message: String,
}

/// A bounded, shareable ring of [`Event`]s whose ring ids are the event
/// ids.
///
/// `emit` is cheap (one mutex push); overflow evicts the oldest event and
/// bumps [`BoundedRing::dropped`] so the loss is visible on `/metrics`.  A
/// live tail blocks in [`EventLog::wait_since`] and is woken by the `emit`
/// that gives it something to read.
pub type EventLog = BoundedRing<Event>;

/// Events with id above `since`, oldest first, at most `limit`.
fn page(events: &VecDeque<Arc<Event>>, since: u64, limit: usize) -> Vec<Arc<Event>> {
    let first = events.partition_point(|e| e.id <= since);
    events.range(first..).take(limit).cloned().collect()
}

impl EventLog {
    /// Appends an event, assigning it the next id (returned).  Evicts the
    /// oldest retained event when full.
    pub fn emit(&self, level: EventLevel, kind: &'static str, message: String) -> u64 {
        let at_unix_ms = unix_ms();
        self.push(|id| {
            Arc::new(Event {
                id,
                at_unix_ms,
                level,
                kind,
                message,
            })
        })
    }

    /// Retained events with id strictly greater than `since`, oldest first,
    /// capped at `limit`.  `since = 0` pages from the beginning of the ring.
    pub fn since(&self, since: u64, limit: usize) -> Vec<Arc<Event>> {
        self.read(|events| page(events, since, limit))
    }

    /// [`EventLog::since`], blocking until there is at least one such
    /// event or `timeout` has passed (then the page is empty).
    pub fn wait_since(&self, since: u64, limit: usize, timeout: Duration) -> Vec<Arc<Event>> {
        self.read_after(since, timeout, |events| page(events, since, limit))
    }
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotone_and_survive_eviction() {
        let log = EventLog::new(3);
        for i in 0..5 {
            let id = log.emit(EventLevel::Info, "swap", format!("epoch {i}"));
            assert_eq!(id, i + 1);
        }
        assert_eq!(log.last_id(), 5);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.len(), 3);
        let ids: Vec<u64> = log.since(0, 10).iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn since_pages_strictly_after_the_cursor() {
        let log = EventLog::new(16);
        for _ in 0..6 {
            log.emit(EventLevel::Warn, "quota-reject", "tenant scraper".into());
        }
        let page = log.since(4, 10);
        assert_eq!(
            page.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![5, 6],
            "only events after the cursor"
        );
        assert_eq!(log.since(6, 10).len(), 0);
        assert_eq!(log.since(0, 2).len(), 2, "limit caps the page");
    }

    #[test]
    fn events_carry_level_kind_and_message() {
        let log = EventLog::new(4);
        log.emit(EventLevel::Error, "recovery", "replayed 3 records".into());
        let e = log.since(0, 1).pop().unwrap();
        assert_eq!(e.level, EventLevel::Error);
        assert_eq!(e.level.as_str(), "error");
        assert_eq!(e.kind, "recovery");
        assert!(e.message.contains("3 records"));
        assert!(e.at_unix_ms > 0);
    }

    #[test]
    fn empty_log_reports_cleanly() {
        let log = EventLog::new(4);
        assert!(log.is_empty());
        assert_eq!(log.last_id(), 0);
        assert_eq!(log.dropped(), 0);
    }
}
