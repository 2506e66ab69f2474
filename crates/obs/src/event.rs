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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

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

/// A bounded, shareable ring of [`Event`]s with monotone ids.
///
/// `emit` is cheap (one mutex push); overflow evicts the oldest event and
/// bumps [`EventLog::dropped`] so the loss is visible on `/metrics`.  A
/// live tail blocks in [`EventLog::wait_since`] and is woken by the `emit`
/// that gives it something to read; with nobody waiting, `emit` signals
/// nothing.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    /// Advanced only under the ring's lock, so ids enter the ring in
    /// ascending order; atomic so [`EventLog::last_id`] need not lock.
    next_id: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
    appended: Condvar,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Arc<Event>>,
    /// Threads blocked in [`EventLog::wait_since`].
    waiters: usize,
}

impl Ring {
    /// Events with id above `since`, oldest first, at most `limit`.
    fn page(&self, since: u64, limit: usize) -> Vec<Arc<Event>> {
        let first = self.events.partition_point(|e| e.id <= since);
        self.events.range(first..).take(limit).cloned().collect()
    }
}

impl EventLog {
    /// A log retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EventLog {
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring::default()),
            appended: Condvar::new(),
        }
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().expect("event ring lock")
    }

    /// Appends an event, assigning it the next id (returned).  Evicts the
    /// oldest retained event when full.
    pub fn emit(&self, level: EventLevel, kind: &'static str, message: String) -> u64 {
        let at_unix_ms = unix_ms();
        let mut ring = self.ring();
        // The id is taken under the lock: taken before it, two emitters
        // could append out of id order, and a pager whose cursor had
        // reached the larger id would never see the smaller one.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.events.push_back(Arc::new(Event {
            id,
            at_unix_ms,
            level,
            kind,
            message,
        }));
        // `notify_all` is a system call even with nobody to wake, and
        // `emit` sits on the admission-reject path.
        if ring.waiters > 0 {
            self.appended.notify_all();
        }
        id
    }

    /// Retained events with id strictly greater than `since`, oldest first,
    /// capped at `limit`.  `since = 0` pages from the beginning of the ring.
    pub fn since(&self, since: u64, limit: usize) -> Vec<Arc<Event>> {
        self.ring().page(since, limit)
    }

    /// [`EventLog::since`], blocking until there is at least one such
    /// event or `timeout` has passed (then the page is empty).  The check
    /// and the wait happen under one lock, so an event emitted in between
    /// is never slept through.
    pub fn wait_since(&self, since: u64, limit: usize, timeout: Duration) -> Vec<Arc<Event>> {
        let deadline = Instant::now() + timeout;
        let mut ring = self.ring();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if ring.events.back().is_some_and(|e| e.id > since) || left.is_zero() {
                return ring.page(since, limit);
            }
            ring.waiters += 1;
            ring = self
                .appended
                .wait_timeout(ring, left)
                .expect("event ring lock")
                .0;
            ring.waiters -= 1;
        }
    }

    /// The id of the most recently emitted event (0 before the first one).
    pub fn last_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed) - 1
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring().events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Four emitters race while a reader pages: whatever the ring still
    /// holds reaches the reader exactly once and in id order, and an id
    /// the reader never saw was evicted, which `dropped` counted.
    #[test]
    fn concurrent_emitters_never_reorder_ids_under_a_pager() {
        const THREADS: u64 = 4;
        const EACH: u64 = 2_000;
        for capacity in [THREADS * EACH, 64] {
            let log = EventLog::new(capacity as usize);
            let seen = std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        for i in 0..EACH {
                            log.emit(EventLevel::Info, "swap", format!("epoch {i}"));
                        }
                    });
                }
                let mut seen: Vec<u64> = Vec::new();
                let mut cursor = 0;
                while cursor < THREADS * EACH {
                    let page = if seen.len().is_multiple_of(2) {
                        log.wait_since(cursor, 100, Duration::from_secs(10))
                    } else {
                        log.since(cursor, 100)
                    };
                    for event in page {
                        assert!(event.id > cursor, "id {} after {cursor}", event.id);
                        cursor = event.id;
                        seen.push(event.id);
                    }
                }
                seen
            });
            assert_eq!(log.last_id(), THREADS * EACH);
            let missed = THREADS * EACH - seen.len() as u64;
            assert!(
                missed <= log.dropped(),
                "{missed} missed, {}",
                log.dropped()
            );
            if capacity == THREADS * EACH {
                assert_eq!((missed, log.dropped()), (0, 0));
            }
        }
    }

    #[test]
    fn wait_since_returns_on_emit_or_on_timeout() {
        let log = EventLog::new(8);
        let started = Instant::now();
        assert!(log.wait_since(0, 10, Duration::from_millis(30)).is_empty());
        assert!(started.elapsed() >= Duration::from_millis(30));

        log.emit(EventLevel::Info, "swap", "already there".into());
        assert_eq!(log.wait_since(0, 10, Duration::from_secs(10)).len(), 1);

        // The emit happens only once the waiter is registered, so the
        // wake-up is what ends the wait, not the timeout.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| log.wait_since(1, 10, Duration::from_secs(10)));
            while log.ring().waiters == 0 {
                std::thread::yield_now();
            }
            log.emit(EventLevel::Warn, "alert-fire", "woken".into());
            let page = waiter.join().unwrap();
            assert_eq!(page.iter().map(|e| e.id).collect::<Vec<_>>(), vec![2]);
        });
        assert_eq!(log.ring().waiters, 0);
    }

    #[test]
    fn empty_log_reports_cleanly() {
        let log = EventLog::new(4);
        assert!(log.is_empty());
        assert_eq!(log.last_id(), 0);
        assert_eq!(log.dropped(), 0);
    }
}
