//! Per-query phase traces.
//!
//! A [`QueryTrace`] is one query's post-mortem timeline: a handful of
//! named [`TraceSpan`]s whose endpoints are microsecond offsets from the
//! moment the service first saw the query, plus a small table of engine
//! work counters taken from its final statistics.  Offsets (rather than absolute
//! timestamps) make traces cheap to record, trivially serializable, and
//! self-consistent: every span is bounded by `[0, total_us]`.  A
//! [`TraceRing`] retains the traced and slow ones.

use std::sync::Arc;

use crate::bounded::BoundedRing;

/// One named phase of a query's lifecycle.
///
/// `start_us`/`end_us` are offsets in microseconds from the query's
/// admission instant (the top of `Service::submit`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Phase name (`admit`, `queue`, `resolve`, `expand`, `first-answer`,
    /// `finish`).
    pub name: &'static str,
    /// Offset of the phase start, µs since admission.
    pub start_us: u64,
    /// Offset of the phase end, µs since admission.
    pub end_us: u64,
}

impl TraceSpan {
    /// Duration of the span in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// The full trace of one query, assembled by the service as the query
/// moves through admission, queueing and execution.
#[derive(Clone, Debug, Default)]
pub struct QueryTrace {
    /// Service-assigned query id (the numeric part of `q<N>`).
    pub id: u64,
    /// Client-supplied trace reference (the `X-Banks-Trace` header value),
    /// echoed back verbatim.
    pub client_ref: Option<String>,
    /// Tenant the query was accounted to, if any.
    pub tenant: Option<String>,
    /// Engine that executed the query.
    pub engine: String,
    /// Whether the result was served from the answer cache.
    pub cache_hit: bool,
    /// Whether the query crossed the configured slow-query threshold.
    pub slow: bool,
    /// Snapshot epoch the query ran against.
    pub epoch: u64,
    /// End-to-end wall time in microseconds (admission to finish).
    pub total_us: u64,
    /// Phase spans, in the order they were recorded.
    pub spans: Vec<TraceSpan>,
    /// Engine work counters from the query's final statistics
    /// (`heap_pops`, `rows_expanded`, …; all zero for a cache hit).
    pub counters: Vec<(&'static str, u64)>,
}

impl QueryTrace {
    /// Appends a span.
    pub fn push_span(&mut self, name: &'static str, start_us: u64, end_us: u64) {
        self.spans.push(TraceSpan {
            name,
            start_us,
            end_us,
        });
    }

    /// Appends a work counter.
    pub fn push_counter(&mut self, name: &'static str, value: u64) {
        self.counters.push((name, value));
    }

    /// Looks up a span by name.
    pub fn span(&self, name: &str) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// A bounded ring of recently retained [`QueryTrace`]s.
///
/// The service pushes every explicitly traced query plus every query that
/// crossed the slow threshold; the oldest trace is dropped when the ring
/// is full, and counted.  Lookups by query id serve
/// `GET /debug/trace/<id>`; the recent-slow view serves `GET /debug/slow`.
pub type TraceRing = BoundedRing<QueryTrace>;

impl TraceRing {
    /// The trace for query `id`, if still retained.
    pub fn get(&self, id: u64) -> Option<Arc<QueryTrace>> {
        self.read(|traces| traces.iter().rev().find(|t| t.id == id).cloned())
    }

    /// The most recent retained traces, newest first, capped at `limit`.
    /// When `slow_only` is set, only traces that crossed the slow
    /// threshold are returned.
    pub fn recent(&self, limit: usize, slow_only: bool) -> Vec<Arc<QueryTrace>> {
        self.read(|traces| {
            traces
                .iter()
                .rev()
                .filter(|t| !slow_only || t.slow)
                .take(limit)
                .cloned()
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, slow: bool) -> Arc<QueryTrace> {
        Arc::new(QueryTrace {
            id,
            slow,
            ..QueryTrace::default()
        })
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let ring = TraceRing::new(3);
        for id in 1..=5 {
            ring.push(|_| trace(id, false));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2, "evictions are counted");
        assert!(ring.get(1).is_none());
        assert!(ring.get(2).is_none());
        assert!(ring.get(3).is_some());
        assert!(ring.get(5).is_some());
    }

    #[test]
    fn recent_is_newest_first_and_filters_slow() {
        let ring = TraceRing::new(10);
        ring.push(|_| trace(1, true));
        ring.push(|_| trace(2, false));
        ring.push(|_| trace(3, true));

        let all: Vec<u64> = ring.recent(10, false).iter().map(|t| t.id).collect();
        assert_eq!(all, vec![3, 2, 1]);

        let slow: Vec<u64> = ring.recent(10, true).iter().map(|t| t.id).collect();
        assert_eq!(slow, vec![3, 1]);

        assert_eq!(ring.recent(1, false).len(), 1);
    }

    #[test]
    fn duplicate_ids_resolve_to_the_newest() {
        let ring = TraceRing::new(4);
        for total_us in [100, 200] {
            ring.push(|_| {
                Arc::new(QueryTrace {
                    id: 9,
                    total_us,
                    ..QueryTrace::default()
                })
            });
        }
        assert_eq!(ring.get(9).unwrap().total_us, 200);
    }

    #[test]
    fn spans_and_counters_are_retrievable_by_name() {
        let mut t = QueryTrace {
            id: 7,
            engine: "bidirectional".to_string(),
            total_us: 1500,
            ..QueryTrace::default()
        };
        t.push_span("queue", 100, 400);
        t.push_span("expand", 400, 1500);
        t.push_counter("heap_pops", 42);

        assert_eq!(t.span("queue").unwrap().duration_us(), 300);
        assert_eq!(t.span("expand").unwrap().end_us, 1500);
        assert!(t.span("missing").is_none());
        assert_eq!(t.counter("heap_pops"), Some(42));
        assert_eq!(t.counter("missing"), None);
    }

    #[test]
    fn span_duration_saturates_rather_than_underflows() {
        let s = TraceSpan {
            name: "odd",
            start_us: 10,
            end_us: 5,
        };
        assert_eq!(s.duration_us(), 0);
    }
}
