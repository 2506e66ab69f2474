//! The caller's side of a submitted query.

use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use banks_core::{CancelToken, RankedAnswer, SearchOutcome, SearchStats};

/// Identifier of a submitted query, unique within one service instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Why [`QueryHandle::recv_timeout`] returned without an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvTimeout {
    /// No event arrived within the timeout; the query is still running (or
    /// still queued).  Call again.
    TimedOut,
    /// The stream is over: the terminal event was already consumed, or the
    /// service dropped the query during shutdown.  No further events will
    /// ever arrive.
    Closed,
}

/// Progress events delivered to a [`QueryHandle`], in order: zero or more
/// [`QueryEvent::Answer`]s followed by exactly one [`QueryEvent::Finished`].
#[derive(Clone, Debug)]
pub enum QueryEvent {
    /// One ranked answer, streamed as soon as the engine emits it.
    Answer(RankedAnswer),
    /// The query ended (completed, truncated, cancelled, or served from the
    /// cache).  No further events follow.
    Finished(QueryResult),
}

/// Terminal summary of a query.
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    /// Final engine statistics (for a cache hit: the stats of the original
    /// execution).
    pub stats: SearchStats,
    /// Whether the answers were replayed from the result cache (zero engine
    /// work happened).
    pub cache_hit: bool,
    /// Time from submission to the first answer leaving the worker (`None`
    /// when no answer was produced; approximately zero for cache hits).
    pub time_to_first_answer: Option<Duration>,
    /// Time the query waited in the admission scheduler before a worker
    /// picked it up — the scheduler-induced share of the latency (zero for
    /// cache hits, which never queue).
    pub queue_wait: Duration,
    /// Epoch of the graph version this query ran against (for a cache hit:
    /// the epoch the entry was cached under).  After a
    /// [`crate::Service::swap_graph`], in-flight queries report the old
    /// epoch and new admissions the new one.
    pub epoch: u64,
    /// The phase trace, present only when the submission requested one
    /// ([`crate::QuerySpec::trace`]).  Shared with the service's trace
    /// ring, hence the `Arc`.
    pub trace: Option<Arc<banks_obs::QueryTrace>>,
}

/// State shared between the executing worker and the handle, so live
/// statistics are observable while the query runs.
#[derive(Debug, Default)]
pub(crate) struct HandleState {
    pub(crate) live_stats: Mutex<SearchStats>,
    /// The terminal result, stashed when a `Finished` event passes through
    /// `recv` so that `wait` can report it even after `next_answer`
    /// consumed (and discarded) the event.
    pub(crate) finished: Mutex<Option<QueryResult>>,
}

impl HandleState {
    pub(crate) fn publish(&self, stats: SearchStats) {
        *self.live_stats.lock().expect("stats lock") = stats;
    }
}

/// A submitted query: poll or block for answers, watch live statistics,
/// cancel at any time.
///
/// Dropping the handle cancels the query: the worker notices the closed
/// channel (or the cancelled token) and stops expanding.
pub struct QueryHandle {
    pub(crate) id: QueryId,
    pub(crate) token: CancelToken,
    pub(crate) events: Receiver<QueryEvent>,
    pub(crate) state: Arc<HandleState>,
}

impl QueryHandle {
    /// The query's service-unique id.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Requests cooperative cancellation: the executing engine stops within
    /// one expansion step.  Already-produced answers remain receivable.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Snapshot of the work counters published by the worker so far (zeros
    /// while the query waits in the admission queue).
    pub fn live_stats(&self) -> SearchStats {
        self.state.live_stats.lock().expect("stats lock").clone()
    }

    /// Blocks until the next event.  Returns `None` once the stream is over
    /// (after [`QueryEvent::Finished`], or if the service dropped the query
    /// during shutdown).
    pub fn recv(&self) -> Option<QueryEvent> {
        let event = self.events.recv().ok()?;
        self.stash_if_finished(&event);
        Some(event)
    }

    /// Blocks for at most `timeout` waiting for the next event.
    ///
    /// The bounded-wait receive loop a network front-end needs: between
    /// events it can time out, probe its client for liveness, and call
    /// again — instead of blocking indefinitely on a query that may emit
    /// nothing for a long stretch.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<QueryEvent, RecvTimeout> {
        match self.events.recv_timeout(timeout) {
            Ok(event) => {
                self.stash_if_finished(&event);
                Ok(event)
            }
            Err(RecvTimeoutError::Timeout) => Err(RecvTimeout::TimedOut),
            Err(RecvTimeoutError::Disconnected) => Err(RecvTimeout::Closed),
        }
    }

    /// Records the terminal result so it stays observable (via
    /// [`QueryHandle::result`] and [`QueryHandle::wait`]) no matter which
    /// receive path consumed the event.
    fn stash_if_finished(&self, event: &QueryEvent) {
        if let QueryEvent::Finished(result) = event {
            *self.state.finished.lock().expect("result lock") = Some(result.clone());
        }
    }

    /// The terminal [`QueryResult`], once any receive path has seen the
    /// `Finished` event.
    pub fn result(&self) -> Option<QueryResult> {
        self.state.finished.lock().expect("result lock").clone()
    }

    /// Blocks until the next *answer*: returns `None` once the query
    /// finished (the terminal [`QueryResult`] then remains available via
    /// [`QueryHandle::result`] or [`QueryHandle::wait`]).
    pub fn next_answer(&self) -> Option<RankedAnswer> {
        match self.recv()? {
            QueryEvent::Answer(answer) => Some(answer),
            QueryEvent::Finished(_) => None,
        }
    }

    /// Drains the query to completion and packages the batch outcome.
    ///
    /// Works regardless of how much was already consumed: a `Finished`
    /// event seen earlier (e.g. through [`QueryHandle::next_answer`]) is
    /// reused.  Only when the service dropped the query before it ran —
    /// shutdown — does the result fall back to `cancelled` stats.
    pub fn wait(self) -> (SearchOutcome, QueryResult) {
        let answers = std::iter::from_fn(|| self.next_answer()).collect();
        let result = self.result().unwrap_or_else(|| QueryResult {
            stats: SearchStats {
                cancelled: true,
                ..SearchStats::default()
            },
            ..QueryResult::default()
        });
        (
            SearchOutcome {
                answers,
                stats: result.stats.clone(),
            },
            result,
        )
    }
}
