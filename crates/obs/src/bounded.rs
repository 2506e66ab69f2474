//! The one bounded retention ring: events, traces and time samples are
//! all kept in a [`BoundedRing`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A bounded, shareable FIFO of `Arc<T>` that numbers what it retains.
///
/// Every push is given the next id (1-based, never reused) under the
/// ring's lock, so items enter in id order.  Once the ring is full, a push
/// evicts the oldest item and counts it in [`BoundedRing::dropped`], so
/// retention loss is visible on `/metrics` instead of silent; `last_id`
/// and `dropped` are atomics, so reading them never takes the lock.  A
/// reader blocked for a newer item (the event tail's
/// [`EventLog::wait_since`](crate::EventLog::wait_since)) is woken by the
/// push that gives it something to read; with nobody waiting, a push
/// signals nothing.
///
/// [`EventLog`](crate::EventLog), [`TraceRing`](crate::TraceRing) and
/// [`TimeSeriesRing`](crate::TimeSeriesRing) are its three uses.
#[derive(Debug)]
pub struct BoundedRing<T> {
    capacity: usize,
    /// Advanced only under the lock; atomic so it can be read without it.
    last_id: AtomicU64,
    dropped: AtomicU64,
    state: Mutex<State<T>>,
    pushed: Condvar,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<Arc<T>>,
    /// Threads blocked in [`BoundedRing::read_after`].
    waiters: usize,
}

impl<T> BoundedRing<T> {
    /// A ring retaining at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedRing {
            capacity: capacity.max(1),
            last_id: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            state: Mutex::new(State {
                items: VecDeque::new(),
                waiters: 0,
            }),
            pushed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("ring lock")
    }

    /// Appends the item `make` builds from its id, evicting the oldest
    /// item when the ring is full, and returns the id.
    pub fn push(&self, make: impl FnOnce(u64) -> Arc<T>) -> u64 {
        let mut state = self.lock();
        // The id is taken under the lock: taken before it, two pushers
        // could append out of id order, and a pager whose cursor had
        // reached the larger id would never see the smaller one.
        let id = self.last_id.load(Ordering::Relaxed) + 1;
        if state.items.len() == self.capacity {
            state.items.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        state.items.push_back(make(id));
        self.last_id.store(id, Ordering::Relaxed);
        // `notify_all` is a system call even with nobody to wake, and
        // event pushes sit on the admission-reject path.
        if state.waiters > 0 {
            self.pushed.notify_all();
        }
        id
    }

    /// Runs `read` over the retained items, oldest first, under the lock.
    pub(crate) fn read<R>(&self, read: impl FnOnce(&VecDeque<Arc<T>>) -> R) -> R {
        read(&self.lock().items)
    }

    /// [`BoundedRing::read`], once an item with id above `since` has been
    /// pushed or `timeout` has passed.  The check and the wait happen
    /// under one lock, so a push in between is never slept through.
    pub(crate) fn read_after<R>(
        &self,
        since: u64,
        timeout: Duration,
        read: impl FnOnce(&VecDeque<Arc<T>>) -> R,
    ) -> R {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if self.last_id() > since || left.is_zero() {
                return read(&state.items);
            }
            state.waiters += 1;
            state = self.pushed.wait_timeout(state, left).expect("ring lock").0;
            state.waiters -= 1;
        }
    }

    /// The id of the most recent push (0 before the first one).
    pub fn last_id(&self) -> u64 {
        self.last_id.load(Ordering::Relaxed)
    }

    /// Items evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Items that carry their own ring id, like events and time samples.
    fn after(items: &VecDeque<Arc<u64>>, since: u64, limit: usize) -> Vec<u64> {
        let first = items.partition_point(|id| **id <= since);
        items.range(first..).take(limit).map(|id| **id).collect()
    }

    /// Four pushers race while a reader pages: whatever the ring still
    /// holds reaches the reader exactly once and in id order, and an id
    /// the reader never saw was evicted, which `dropped` counted.
    #[test]
    fn concurrent_emitters_never_reorder_ids_under_a_pager() {
        const THREADS: u64 = 4;
        const EACH: u64 = 2_000;
        for capacity in [THREADS * EACH, 64] {
            let ring = BoundedRing::new(capacity as usize);
            let seen = std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        for _ in 0..EACH {
                            ring.push(Arc::new);
                        }
                    });
                }
                let mut seen: Vec<u64> = Vec::new();
                let mut cursor = 0;
                while cursor < THREADS * EACH {
                    let page = if seen.len().is_multiple_of(2) {
                        ring.read_after(cursor, Duration::from_secs(10), |items| {
                            after(items, cursor, 100)
                        })
                    } else {
                        ring.read(|items| after(items, cursor, 100))
                    };
                    for id in page {
                        assert!(id > cursor, "id {id} after {cursor}");
                        cursor = id;
                        seen.push(id);
                    }
                }
                seen
            });
            assert_eq!(ring.last_id(), THREADS * EACH);
            let missed = THREADS * EACH - seen.len() as u64;
            assert!(
                missed <= ring.dropped(),
                "{missed} missed, {}",
                ring.dropped()
            );
            if capacity == THREADS * EACH {
                assert_eq!((missed, ring.dropped()), (0, 0));
            }
        }
    }

    #[test]
    fn read_after_returns_on_push_or_on_timeout() {
        let ring = BoundedRing::new(8);
        let page = |since| move |items: &VecDeque<Arc<u64>>| after(items, since, 10);
        let started = Instant::now();
        assert!(ring
            .read_after(0, Duration::from_millis(30), page(0))
            .is_empty());
        assert!(started.elapsed() >= Duration::from_millis(30));

        ring.push(Arc::new);
        assert_eq!(ring.read_after(0, Duration::from_secs(10), page(0)), [1]);

        // The push happens only once the waiter is registered, so the
        // wake-up is what ends the wait, not the timeout.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| ring.read_after(1, Duration::from_secs(10), page(1)));
            while ring.lock().waiters == 0 {
                std::thread::yield_now();
            }
            ring.push(Arc::new);
            assert_eq!(waiter.join().unwrap(), [2]);
        });
        assert_eq!(ring.lock().waiters, 0);
    }
}
