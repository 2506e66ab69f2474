//! Admission: a submission becomes a [`Ticket`] — the query's identity
//! from here to its `Finished` event — and is either answered from the
//! cache at once or queued as a [`Job`] for a worker.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use banks_core::cache::CacheKey;
use banks_core::registry::UnknownEngine;
use banks_core::{CancelToken, QueryCost, RankedAnswer};
use banks_obs::EventLevel;
use banks_textindex::KeywordMatches;

use crate::handle::{HandleState, QueryEvent, QueryHandle, QueryId};
use crate::metrics::Counters;
use crate::service::Service;
use crate::snapshot::GraphSnapshot;
use crate::spec::QuerySpec;
use crate::worker::finish;
#[cfg(doc)]
use {crate::ServiceBuilder, banks_obs::QueryTrace};

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// Admission control: the bounded queue is full.  Back off and retry —
    /// accepting the query anyway would only grow an unbounded backlog.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The requested engine is not registered; the error lists the known
    /// engines and the nearest alias.
    UnknownEngine(UnknownEngine),
    /// The tenant's token bucket is empty (see
    /// [`ServiceBuilder::tenant_quota`]).  Quota rejection happens before
    /// any work — no snapshot pin, no cache lookup, no queue slot.
    QuotaExceeded {
        /// The tenant whose bucket rejected the submission.
        tenant: String,
        /// Time until the bucket refills enough for one submission — the
        /// value an HTTP front-end surfaces as `Retry-After`.
        retry_after: Duration,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} queries waiting)")
            }
            SubmitError::UnknownEngine(e) => write!(f, "{e}"),
            SubmitError::QuotaExceeded {
                tenant,
                retry_after,
            } => write!(
                f,
                "tenant {tenant:?} is over its admission quota (retry in {retry_after:?})"
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Phase timestamps collected while a query moves through admission and
/// execution, as microsecond offsets from `t0` (the top of
/// [`Service::submit`]).  Built for *every* query — a handful of `Instant`
/// reads — so slow queries produce a trace even when the caller did not
/// ask for one; the [`QueryTrace`] itself is only assembled when tracing
/// was requested or the query crossed the slow threshold.
pub(crate) struct TraceCtx {
    /// The client correlation reference when the submission explicitly
    /// requested a trace ([`QuerySpec::trace`]).
    pub(crate) requested: Option<String>,
    pub(crate) t0: Instant,
    pub(crate) admit_us: u64,
    pub(crate) resolve_start_us: u64,
    pub(crate) resolve_end_us: u64,
    pub(crate) enqueued_us: u64,
}

impl TraceCtx {
    pub(crate) fn elapsed_us(&self) -> u64 {
        self.t0.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

/// A query's identity from admission to finish: built once in
/// [`Service::submit`], carried by the [`Job`] to a worker, and read by
/// [`finish`] for the trace, the counters and the `Finished` event.
pub(crate) struct Ticket {
    pub(crate) id: QueryId,
    /// The registry's canonical name for the requested engine.
    pub(crate) engine: &'static str,
    pub(crate) tenant: String,
    /// The epoch of the snapshot pinned at admission: the query resolves,
    /// expands and caches against it, unaffected by later swaps.
    pub(crate) epoch: u64,
    pub(crate) trace: TraceCtx,
    pub(crate) events: Sender<QueryEvent>,
    pub(crate) submitted_at: Instant,
}

impl Ticket {
    /// Sends one answer to the handle and counts it delivered; returns
    /// whether the handle is still there to read it.
    pub(crate) fn deliver(&self, counters: &Counters, answer: RankedAnswer) -> bool {
        let sent = self.events.send(QueryEvent::Answer(answer)).is_ok();
        if sent {
            Counters::bump(&counters.answers_delivered);
        }
        sent
    }
}

/// One unit of queued work: the [`Ticket`] plus what execution needs.
pub(crate) struct Job {
    pub(crate) ticket: Ticket,
    /// The graph version pinned at admission (`ticket.epoch`'s).
    pub(crate) snapshot: Arc<GraphSnapshot>,
    pub(crate) matches: KeywordMatches,
    pub(crate) cache_key: CacheKey,
    pub(crate) spec_params: banks_core::SearchParams,
    /// The a priori cost estimate the scheduler charged (calibration
    /// feedback compares it with the measured `nodes_explored`).
    pub(crate) cost: QueryCost,
    pub(crate) token: CancelToken,
    pub(crate) state: Arc<HandleState>,
}

impl Service {
    /// Submits a query.  Returns immediately: on a cache hit the handle is
    /// already fully populated (zero engine work), otherwise the query
    /// enters the bounded priority scheduler at its estimated cost
    /// ([`banks_core::QueryCost`], scaled by [`QuerySpec::priority`]) and
    /// waits for a worker.
    pub fn submit(&self, spec: impl Into<QuerySpec>) -> Result<QueryHandle, SubmitError> {
        let t0 = Instant::now();
        let spec = spec.into();
        let inner = &self.inner;
        // One spelling per engine from here on: the canonical name keys
        // the cache, the calibration table, the trace and the metrics, so
        // "BIDIR" and "bidirectional" share all of them.
        let engine = match &spec.engine {
            None => inner.default_engine,
            Some(name) => inner
                .registry
                .canonical(name)
                .ok_or_else(|| SubmitError::UnknownEngine(inner.registry.unknown(name)))?,
        };
        let tenant = spec.tenant.unwrap_or_default();
        let mut trace = TraceCtx {
            requested: spec.trace,
            t0,
            admit_us: 0,
            resolve_start_us: 0,
            resolve_end_us: 0,
            enqueued_us: 0,
        };

        // Admission quota: one token per submission, taken before any work
        // happens — an over-quota tenant is rejected without keyword
        // normalization, origin-set resolution or a cache probe.
        if let Some(quota) = &inner.quota {
            let verdict = quota
                .lock()
                .expect("quota lock")
                .try_take(&tenant, Instant::now());
            if let Err(retry_after) = verdict {
                Counters::bump(&inner.counters.quota_rejected);
                inner
                    .waits
                    .lock()
                    .expect("waits lock")
                    .record_quota_rejection(&tenant);
                inner.events.emit(
                    EventLevel::Warn,
                    "quota-reject",
                    format!("tenant {tenant:?} over quota, retry in {retry_after:?}"),
                );
                return Err(SubmitError::QuotaExceeded {
                    tenant,
                    retry_after,
                });
            }
        }
        trace.admit_us = trace.elapsed_us();

        // Pin the serving snapshot: everything below — keyword resolution,
        // cache key, execution — consistently uses this version, no matter
        // how many swaps happen while the query waits or runs.
        let snapshot = self.snapshot();

        // The same single normalization point as the `Banks` facade: the
        // normalized keywords feed both origin-set resolution and the cache
        // key.  Resolution must precede the cache lookup because the
        // resolved origin sets participate in the key (two indexes can give
        // the same keywords different sets); it is cheap next to expansion.
        trace.resolve_start_us = trace.elapsed_us();
        let normalized = spec.query.normalized(snapshot.index().tokenizer());
        let matches =
            KeywordMatches::resolve_normalized(snapshot.graph(), snapshot.index(), &normalized);
        let cache_key = CacheKey::new(
            snapshot.epoch(),
            normalized.keywords().to_vec(),
            &spec.params,
            engine,
            &matches,
        );
        trace.resolve_end_us = trace.elapsed_us();

        let (events, rx) = channel();
        let handle = QueryHandle {
            id: QueryId(inner.next_id.fetch_add(1, Ordering::Relaxed)),
            token: CancelToken::new(),
            events: rx,
            state: Arc::new(HandleState::default()),
        };
        let mut ticket = Ticket {
            id: handle.id,
            engine,
            tenant,
            epoch: snapshot.epoch(),
            trace,
            events,
            submitted_at: Instant::now(),
        };

        if let Some(hit) = inner.cache.get(&cache_key) {
            // Served entirely from the cache: no queue slot, no worker, no
            // engine — the handle is complete before `submit` returns.
            Counters::bump(&inner.counters.submitted);
            Counters::bump(&inner.counters.cache_hits);
            Counters::bump(&inner.counters.completed);
            handle.state.publish(hit.stats.clone());
            let mut first_answer = None;
            for answer in &hit.answers {
                ticket.deliver(&inner.counters, answer.clone());
                first_answer.get_or_insert_with(|| ticket.submitted_at.elapsed());
            }
            finish(
                inner,
                &ticket,
                None,
                first_answer,
                hit.stats.clone(),
                Duration::ZERO,
            );
            return Ok(handle);
        }

        // Shortest-expected-work-first: the scheduler charges the a priori
        // estimate, scaled by the submission's priority class.  The static
        // model is blended with the online calibration table — the EMA of
        // measured/estimated `nodes_explored` for this (engine,
        // origin-size) cell — so systematic over- or under-estimation
        // corrects itself as queries complete.
        let mut cost = QueryCost::estimate(&matches, &spec.params, engine);
        cost.estimated_work =
            inner
                .calibration
                .corrected(engine, cost.origin_nodes as usize, cost.estimated_work);
        let charged = spec.priority.charge(cost.estimated_work);

        ticket.trace.enqueued_us = ticket.trace.elapsed_us();
        let job = Job {
            ticket,
            snapshot,
            matches,
            cache_key,
            spec_params: spec.params,
            cost,
            token: handle.token.clone(),
            state: Arc::clone(&handle.state),
        };
        let tenant = job.ticket.tenant.clone();
        {
            let mut queue = inner.queue.lock().expect("queue lock");
            if queue.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if queue.jobs.len() >= inner.queue_capacity {
                Counters::bump(&inner.counters.rejected);
                inner.events.emit(
                    EventLevel::Warn,
                    "admission-reject",
                    format!(
                        "queue full ({} waiting), rejected a {} submission",
                        inner.queue_capacity,
                        if tenant.is_empty() {
                            "anonymous".to_string()
                        } else {
                            format!("tenant {tenant:?}")
                        }
                    ),
                );
                return Err(SubmitError::QueueFull {
                    capacity: inner.queue_capacity,
                });
            }
            queue.jobs.push(&tenant, charged, job);
            Counters::bump(&inner.counters.submitted);
        }
        inner.work_available.notify_one();
        Ok(handle)
    }
}
