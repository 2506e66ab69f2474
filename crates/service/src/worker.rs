//! The worker pool: each worker pops the cheapest job, runs its engine
//! against the pinned snapshot, streams the answers, and ends the query
//! in [`finish`] — the one finish step a cache hit ends in too.

use std::sync::Arc;
use std::time::Duration;

use banks_core::{QueryContext, SearchOutcome, SearchStats};
use banks_obs::{EventLevel, QueryTrace};

use crate::admission::{Job, Ticket};
use crate::handle::{QueryEvent, QueryResult};
use crate::metrics::Counters;
use crate::service::Inner;
#[cfg(doc)]
use crate::{
    metrics::ServiceMetrics,
    service::{QueueState, Service},
};

/// Nodes-explored multiple of the scheduler's a priori estimate at which a
/// finished query trips the watchdog: the overrun is counted in
/// [`ServiceMetrics::watchdog_overruns`] and logged as a
/// `watchdog-overrun` event.
const WATCHDOG_OVERRUN_FACTOR: u64 = 8;

/// Decrements [`QueueState::executing`] when dropped — including on an
/// unwind out of `execute` — so a panicking engine cannot leave the count
/// permanently raised and wedge [`Service::drain`] forever.
struct ExecutingGuard<'a> {
    inner: &'a Inner,
}

impl Drop for ExecutingGuard<'_> {
    fn drop(&mut self) {
        let mut queue = self.inner.queue.lock().expect("queue lock");
        queue.executing -= 1;
        if queue.executing == 0 && queue.jobs.is_empty() {
            self.inner.idle.notify_all();
        }
    }
}

/// Worker thread body: pop jobs (priority order) until shutdown, then drain
/// and exit.
pub(crate) fn worker_loop(inner: Arc<Inner>) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.jobs.pop() {
                    queue.executing += 1;
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = inner.work_available.wait(queue).expect("queue lock");
            }
        };
        let guard = ExecutingGuard { inner: &inner };
        let queue_wait = job.ticket.submitted_at.elapsed();
        inner
            .waits
            .lock()
            .expect("waits lock")
            .record(&job.ticket.tenant, queue_wait);
        execute(&inner, job, queue_wait);
        drop(guard);
    }
}

/// Runs one query to completion (or cancellation) on the calling worker,
/// against the snapshot the job was pinned to at admission.
fn execute(inner: &Inner, job: Job, queue_wait: Duration) {
    Counters::bump(&inner.counters.executed);
    let pickup_us = job.ticket.trace.elapsed_us();
    let snapshot = &job.snapshot;
    let ctx = QueryContext::new(
        snapshot.graph(),
        snapshot.prestige(),
        &job.matches,
        job.spec_params,
    )
    .with_cancel(&job.token);
    let engine = inner
        .registry
        .create(job.ticket.engine)
        .expect("engine validated at submit time");
    let mut stream = engine.start(ctx);

    let mut answers = Vec::new();
    let mut first_answer = None;
    let mut receiver_gone = false;
    #[allow(clippy::while_let_on_iterator)] // stats() borrows between polls
    while let Some(answer) = stream.next() {
        first_answer.get_or_insert_with(|| job.ticket.submitted_at.elapsed());
        job.state.publish(stream.stats());
        if !receiver_gone && !job.ticket.deliver(&inner.counters, answer.clone()) {
            // The handle is gone: nobody will read further answers.
            // Cancel cooperatively so the engine stops within one step.
            receiver_gone = true;
            job.token.cancel();
        }
        answers.push(answer);
    }
    let expand_end_us = job.ticket.trace.elapsed_us();

    let stats = stream.stats();
    job.state.publish(stats.clone());
    Counters::bump(&inner.counters.completed);
    if stats.cancelled {
        Counters::bump(&inner.counters.cancelled);
    }
    if stats.truncated {
        Counters::bump(&inner.counters.truncated);
    }
    Counters::add(&inner.counters.nodes_explored, stats.nodes_explored as u64);
    if let Some(ttfa) = first_answer {
        inner.ttfa_hist.record(ttfa);
    }
    // Calibration feedback: a completed (even truncated) run measures what
    // the estimate predicted; a cancelled one measures only where the
    // abort happened to land, so it is not a sample.
    if !stats.cancelled {
        inner.calibration.record(
            job.ticket.engine,
            job.cost.origin_nodes as usize,
            job.cost.estimated_work,
            stats.nodes_explored as u64,
        );
        // Watchdog: a query that blew far past its a priori work estimate
        // is either a bad estimate or a pathological input — flag it.
        let measured = stats.nodes_explored as u64;
        if job.cost.estimated_work > 0
            && measured >= WATCHDOG_OVERRUN_FACTOR.saturating_mul(job.cost.estimated_work)
        {
            Counters::bump(&inner.counters.watchdog_overruns);
            inner.events.emit(
                EventLevel::Warn,
                "watchdog-overrun",
                format!(
                    "query {} explored {} nodes, >= {}x its estimate of {}",
                    job.ticket.id.0, measured, WATCHDOG_OVERRUN_FACTOR, job.cost.estimated_work
                ),
            );
        }
    }

    // Only completed searches are cached: a cancelled run's answer set is
    // whatever happened to be emitted before the abort, not a reproducible
    // result.  (Work-budget truncation, by contrast, is deterministic and
    // safe to cache.)  The key carries the job's pinned epoch, so a result
    // computed on a superseded snapshot can never serve post-swap queries —
    // and such an entry could never be hit at all (swap already evicted
    // its epoch; all future lookups use newer ones), so storing it would
    // only waste a slot: skip it.  The epoch check and the insert happen
    // under the serving lock so a concurrent swap cannot slip between them
    // and evict before we insert; `swap_snapshot` takes the same lock
    // first and evicts after releasing it, so the lock order (serving →
    // cache) is acyclic.
    if !stats.cancelled {
        let serving = inner.serving.lock().expect("serving lock");
        if job.ticket.epoch == serving.epoch() {
            inner.cache.insert(
                job.cache_key.clone(),
                Arc::new(SearchOutcome {
                    answers,
                    stats: stats.clone(),
                }),
            );
        }
    }
    finish(
        inner,
        &job.ticket,
        Some((pickup_us, expand_end_us)),
        first_answer,
        stats,
        queue_wait,
    );
}

/// The one finish step of every query, cache hit or executed: the slow
/// check, the trace (assembled only when requested or slow) and its
/// retention, the `slow_queries` bump, and the `Finished` event.  `ran`
/// holds the `(pickup, expand_end)` offsets of an executed query and is
/// `None` for a cache hit, which never queues or runs.
pub(crate) fn finish(
    inner: &Inner,
    ticket: &Ticket,
    ran: Option<(u64, u64)>,
    time_to_first_answer: Option<Duration>,
    stats: SearchStats,
    queue_wait: Duration,
) {
    let ctx = &ticket.trace;
    let total_us = ctx.elapsed_us();
    let slow = Duration::from_micros(total_us) >= inner.slow_threshold;
    let retained = (ctx.requested.is_some() || slow).then(|| {
        let mut trace = QueryTrace {
            id: ticket.id.0,
            client_ref: ctx.requested.clone(),
            tenant: (!ticket.tenant.is_empty()).then(|| ticket.tenant.clone()),
            engine: ticket.engine.to_string(),
            cache_hit: ran.is_none(),
            slow,
            epoch: ticket.epoch,
            total_us,
            ..QueryTrace::default()
        };
        trace.push_span("admit", 0, ctx.admit_us);
        trace.push_span("resolve", ctx.resolve_start_us, ctx.resolve_end_us);
        if let Some((pickup, expand_end)) = ran {
            trace.push_span("queue", ctx.enqueued_us, pickup);
            trace.push_span("expand", pickup, expand_end);
        }
        if let Some(ttfa) = time_to_first_answer {
            let us = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
            let submitted = us(ticket.submitted_at.duration_since(ctx.t0));
            trace.push_span("first-answer", submitted, submitted + us(ttfa));
        }
        trace.push_span("finish", 0, total_us);
        // The engine work of this request: the final statistics of an
        // executed query, nothing for a cache hit (which ran no engine).
        let none = SearchStats::default();
        let work = if ran.is_some() { &stats } else { &none };
        trace.push_counter("heap_pops", work.nodes_explored as u64);
        trace.push_counter("nodes_touched", work.nodes_touched as u64);
        trace.push_counter("rows_expanded", work.edges_traversed as u64);
        trace.push_counter("answers_emitted", work.answers_output as u64);
        let trace = Arc::new(trace);
        inner.traces.push(|_| Arc::clone(&trace));
        trace
    });
    if slow {
        Counters::bump(&inner.counters.slow_queries);
    }
    let _ = ticket.events.send(QueryEvent::Finished(QueryResult {
        stats,
        cache_hit: ran.is_none(),
        time_to_first_answer,
        queue_wait,
        epoch: ticket.epoch,
        trace: retained.filter(|_| ctx.requested.is_some()),
    }));
}
