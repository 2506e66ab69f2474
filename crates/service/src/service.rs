//! The worker-pool query service: priority admission, pinned snapshots,
//! online graph swapping.  This module holds the shared state, the
//! builder, the accessors and shutdown; a submission's path runs through
//! `admission.rs` and `worker.rs`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use banks_core::{EngineRegistry, ResultCache};
use banks_graph::DataGraph;
use banks_obs::{
    CostCalibration, EventLog, Health, Histogram, QueryTrace, SloEngine, SloReport, SloSpec,
    TimeSeriesRing, TraceRing,
};
use banks_persist::{FsyncPolicy, PersistError};
use banks_prestige::PrestigeVector;
use banks_textindex::InvertedIndex;

use crate::admission::Job;
pub use crate::admission::SubmitError;
use crate::collector::{collector_loop, timeseries_schema};
use crate::epoch::Epochs;
use crate::handle::QueryId;
use crate::metrics::{Counters, WaitStats};
use crate::quota::{QuotaConfig, QuotaState};
use crate::replication::{ReplicationRole, ReplicationState, ReplicationStatus};
use crate::sched::WorkQueue;
use crate::snapshot::GraphSnapshot;
use crate::worker::worker_loop;
#[cfg(doc)]
use crate::{handle::QueryHandle, metrics::ServiceMetrics, spec::QuerySpec};

/// Capacity of the trace retention ring ([`Service::trace`] /
/// [`Service::slow_traces`] look traces up in it).
const TRACE_RING_CAPACITY: usize = 256;

/// Slots in the metrics time-series ring: at the default 10 s collector
/// cadence this retains one hour of history.
const TIMESERIES_CAPACITY: usize = 360;

/// The engine run when a [`QuerySpec`] names none.  A custom
/// [`ServiceBuilder::registry`] must resolve it.
const DEFAULT_ENGINE: &str = "bidirectional";

/// Capacity of the structured event-log ring; once full, the oldest events
/// are evicted and counted in [`ServiceMetrics::event_log_dropped`].
const EVENT_LOG_CAPACITY: usize = 1024;

/// Wall-clock milliseconds since the Unix epoch (the time base of the
/// time-series ring and SLO evaluation).
pub(crate) fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

pub(crate) struct QueueState {
    pub(crate) jobs: WorkQueue<Job>,
    /// Jobs currently running on a worker (popped but not finished) — the
    /// other half of the quiescence test [`Service::drain`] waits on.
    pub(crate) executing: usize,
    pub(crate) shutdown: bool,
}

/// Everything the workers share.
pub(crate) struct Inner {
    /// The currently-served snapshot; the epoch pipeline replaces the
    /// `Arc` while in-flight queries keep their pinned clones alive.
    pub(crate) serving: Mutex<Arc<GraphSnapshot>>,
    /// Counts what a replication stream must look at again: every publish
    /// of a serving epoch, every checkpoint (the WAL truncation horizon
    /// moved) and every [`Service::wake_publish_waiters`].  Advanced only
    /// under `serving`, which is what [`Service::wait_for_publish`] waits
    /// on — so no advance is slept through.
    pub(crate) publish_generation: AtomicU64,
    /// Signalled after every `publish_generation` advance.
    pub(crate) published: Condvar,
    pub(crate) registry: EngineRegistry,
    /// The canonical name [`DEFAULT_ENGINE`] resolves to in `registry`.
    pub(crate) default_engine: &'static str,
    /// This service's own result cache: a swap evicts the superseded
    /// epoch's entries.
    pub(crate) cache: ResultCache,
    pub(crate) queue: Mutex<QueueState>,
    pub(crate) queue_capacity: usize,
    pub(crate) work_available: Condvar,
    /// Signalled whenever the queue empties *and* the last executing job
    /// finishes; [`Service::drain`] waits on it.
    pub(crate) idle: Condvar,
    /// Per-tenant token buckets (`None`: quotas disabled).
    pub(crate) quota: Option<Mutex<QuotaState>>,
    /// The writers' lock and the durability state: every new serving
    /// version is made through it (see [`crate::epoch`]).
    pub(crate) epochs: Epochs,
    pub(crate) counters: Counters,
    pub(crate) waits: Mutex<WaitStats>,
    pub(crate) next_id: AtomicU64,
    /// Retained phase traces (explicitly traced + slow queries).
    pub(crate) traces: TraceRing,
    /// End-to-end latency beyond which a query counts as *slow*: its trace
    /// is retained and [`ServiceMetrics::slow_queries`] is bumped.
    pub(crate) slow_threshold: Duration,
    /// Time-to-first-answer distribution across executed queries.
    pub(crate) ttfa_hist: Histogram,
    /// Apply-latency distribution of successful mutation batches.
    pub(crate) mutation_apply_hist: Histogram,
    /// Online correction of the a priori cost model from measured
    /// `nodes_explored`, per (engine, origin-size bucket).
    pub(crate) calibration: CostCalibration,
    /// The structured operational event log (admission rejects, mutation
    /// batches, checkpoints, swaps, alerts, watchdog trips).
    pub(crate) events: EventLog,
    /// Retained metric snapshots, written by the collector thread.
    pub(crate) series: TimeSeriesRing,
    /// The burn-rate judge over [`Inner::series`].
    pub(crate) slo: SloEngine,
    /// The most recent collector-pass verdict, served on `GET /debug/slo`
    /// and folded into `/healthz` and `/metrics`.
    pub(crate) slo_report: Mutex<SloReport>,
    /// Replication role and follower progress (see
    /// [`crate::replication`]).
    pub(crate) replication: Mutex<ReplicationState>,
    /// Collector cadence (also reported on `GET /debug/slo`).
    collector_cadence: Duration,
}

impl Inner {
    /// Jobs waiting in the admission queue, and that count as a fraction
    /// of the queue bound (the `queue_saturation` gauge and the
    /// collector's watchdog input).
    pub(crate) fn queue_occupancy(&self) -> (usize, f64) {
        let queued = self.queue.lock().expect("queue lock").jobs.len();
        (queued, queued as f64 / self.queue_capacity.max(1) as f64)
    }
}

/// Configures and spawns a [`Service`].
pub struct ServiceBuilder {
    graph: DataGraph,
    workers: usize,
    queue_capacity: usize,
    cache_capacity: usize,
    prestige: Option<PrestigeVector>,
    index: Option<InvertedIndex>,
    registry: Option<EngineRegistry>,
    quota: Option<QuotaConfig>,
    persistence: Option<(PathBuf, FsyncPolicy)>,
    slow_query_threshold: Duration,
    collector_cadence: Duration,
    slos: Option<Vec<SloSpec>>,
}

impl ServiceBuilder {
    /// Number of worker threads (default: available parallelism, capped at
    /// 8; always at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Bound of the admission queue (default 64).  A full queue rejects new
    /// submissions with [`SubmitError::QueueFull`] instead of buffering
    /// without limit — backpressure is explicit.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Capacity of the LRU result cache (default 256; 0 disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Uses a precomputed prestige vector instead of the uniform default.
    pub fn prestige(mut self, prestige: PrestigeVector) -> Self {
        self.prestige = Some(prestige);
        self
    }

    /// Uses a prebuilt keyword index instead of the label index built from
    /// the graph.
    pub fn index(mut self, index: InvertedIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Replaces the engine registry (default: the paper's engines).  It
    /// must resolve `"bidirectional"`, the engine a [`QuerySpec`] naming
    /// none runs.
    pub fn registry(mut self, registry: EngineRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Enables per-tenant admission quotas: every tenant owns a token
    /// bucket of capacity `burst` refilled at `rate_per_sec` tokens per
    /// second, and each submission — cache hit or miss — takes one token.
    /// An empty bucket rejects with [`SubmitError::QuotaExceeded`], whose
    /// `retry_after` says when the next token arrives.
    ///
    /// Quotas complement the scheduler's fair share: fair share decides
    /// *who runs next* among admitted work, the quota decides *whether a
    /// tenant may submit at all*.  Submissions naming no tenant share the
    /// anonymous tenant `""` (and therefore one bucket).  Rejections are
    /// counted per tenant in [`crate::TenantMetrics::quota_rejected`].
    ///
    /// Default: no quota (every submission admitted subject to queue
    /// capacity).  `rate_per_sec` is floored at one token per day and
    /// `burst` at 1.
    pub fn tenant_quota(mut self, rate_per_sec: f64, burst: u64) -> Self {
        self.quota = Some(QuotaConfig::new(rate_per_sec, burst));
        self
    }

    /// Enables durable persistence in `data_dir` with the given fsync
    /// policy.  The WAL is checkpointed away once it passes 8 MiB, and
    /// each checkpoint keeps the two newest snapshot files.
    ///
    /// With persistence enabled, [`Service::build`](ServiceBuilder::build)
    /// first tries to **recover**: if `data_dir` holds a usable snapshot,
    /// it is loaded, the WAL suffix is replayed, and the builder's graph is
    /// ignored — the service boots serving exactly the pre-crash state.
    /// On a fresh directory the builder's graph is used and an initial
    /// checkpoint is written immediately.  Thereafter every accepted
    /// mutation batch is WAL-appended *before* its snapshot swap, and
    /// checkpoints run on demand ([`Service::checkpoint`]), on compaction,
    /// on WAL rotation, and after a wholesale [`Service::swap_graph`].
    ///
    /// Recovery serves the builder defaults for the keyword index and
    /// prestige (label index, uniform).  After a clean shutdown — no WAL
    /// record to replay — it adopts the snapshot's own copies when the
    /// snapshot says they are those defaults; otherwise it derives them
    /// from the recovered graph.  A deployment that supplies its own
    /// [`ServiceBuilder::index`] / [`ServiceBuilder::prestige`] must
    /// re-supply them on restart — they are treated as external state, and
    /// the persisted copies are available to the caller via
    /// [`banks_persist::read_snapshot`].
    pub fn persistence(mut self, data_dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> Self {
        self.persistence = Some((data_dir.into(), fsync));
        self
    }

    /// End-to-end latency beyond which a query counts as **slow** (default
    /// 250 ms): its phase trace is retained in the bounded trace ring —
    /// retrievable via [`Service::slow_traces`] / [`Service::trace`], and
    /// over HTTP at `GET /debug/slow` — even when the submission did not
    /// request tracing, and [`ServiceMetrics::slow_queries`] is bumped.
    pub fn slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.slow_query_threshold = threshold;
        self
    }

    /// Cadence of the metrics collector thread (default 10 s, floored at
    /// 10 ms).  Every tick snapshots the time-series schema into the
    /// bounded retention ring, re-evaluates the SLO burn rates, and runs
    /// the queue-saturation watchdog.  Tests shrink this to ~100 ms so an
    /// induced regression flips health within a fraction of a second.
    pub fn collector_cadence(mut self, cadence: Duration) -> Self {
        self.collector_cadence = cadence.max(Duration::from_millis(10));
        self
    }

    /// Replaces the stock SLO set ([`SloSpec::defaults`]: `ttfa_p99 <
    /// 250 ms`, `error_ratio < 1%`, `queue_wait_p90 < 50 ms`).  An empty
    /// vector disables SLO judgment — health stays `ok` and `GET
    /// /debug/slo` reports no specs.  A JSON config parses into specs
    /// with [`crate::parse_slo_specs`].
    pub fn slos(mut self, specs: Vec<SloSpec>) -> Self {
        self.slos = Some(specs);
        self
    }

    /// Validates the configuration, builds the initial serving snapshot
    /// (prestige and keyword index included) and spawns the worker threads.
    ///
    /// # Panics
    /// Panics when persistence is enabled and recovery or the initial
    /// checkpoint fails — use [`ServiceBuilder::try_build`] to handle
    /// those errors.  (Without persistence this never fails, except when
    /// a custom [`ServiceBuilder::registry`] lacks `"bidirectional"`, the
    /// engine run when a [`QuerySpec`] names none.)
    pub fn build(self) -> Service {
        match self.try_build() {
            Ok(service) => service,
            Err(e) => panic!("service persistence initialisation failed: {e}"),
        }
    }

    /// Fallible [`ServiceBuilder::build`]: persistence errors (unreadable
    /// data directory, corrupt state beyond recovery, failed initial
    /// checkpoint) are returned instead of panicking.
    pub fn try_build(self) -> Result<Service, PersistError> {
        // Derived parts (uniform prestige, label index) refresh exactly on
        // `apply_mutations`; caller-supplied parts are treated as external
        // (prestige carried forward, index updated additively only).
        let events = EventLog::new(EVENT_LOG_CAPACITY);
        let (snapshot, epochs) = Epochs::boot(
            self.graph,
            self.prestige,
            self.index,
            self.persistence,
            &events,
        )?;
        let registry = self.registry.unwrap_or_default();
        let Some(default_engine) = registry.canonical(DEFAULT_ENGINE) else {
            panic!("{}", registry.unknown(DEFAULT_ENGINE));
        };
        let inner = Arc::new(Inner {
            serving: Mutex::new(Arc::new(snapshot)),
            publish_generation: AtomicU64::new(0),
            published: Condvar::new(),
            registry,
            default_engine,
            cache: ResultCache::new(self.cache_capacity),
            queue: Mutex::new(QueueState {
                jobs: WorkQueue::new(),
                executing: 0,
                shutdown: false,
            }),
            queue_capacity: self.queue_capacity,
            work_available: Condvar::new(),
            idle: Condvar::new(),
            quota: self.quota.map(|config| Mutex::new(QuotaState::new(config))),
            epochs,
            counters: Counters::default(),
            waits: Mutex::new(WaitStats::default()),
            next_id: AtomicU64::new(0),
            traces: TraceRing::new(TRACE_RING_CAPACITY),
            slow_threshold: self.slow_query_threshold,
            ttfa_hist: Histogram::new(),
            mutation_apply_hist: Histogram::new(),
            calibration: CostCalibration::default(),
            events,
            series: TimeSeriesRing::new(timeseries_schema(), TIMESERIES_CAPACITY),
            slo: SloEngine::new(self.slos.unwrap_or_else(SloSpec::defaults)),
            slo_report: Mutex::new(SloReport::default()),
            replication: Mutex::new(ReplicationState::default()),
            collector_cadence: self.collector_cadence,
        });
        let workers = (0..self.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("banks-worker-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn worker thread")
            })
            .collect();
        let collector_stop = Arc::new((Mutex::new(false), Condvar::new()));
        let collector = {
            let inner = Arc::clone(&inner);
            let stop = Arc::clone(&collector_stop);
            let cadence = self.collector_cadence;
            Some(
                std::thread::Builder::new()
                    .name("banks-collector".to_string())
                    .spawn(move || collector_loop(inner, stop, cadence))
                    .expect("spawn collector thread"),
            )
        };
        Ok(Service {
            inner,
            workers,
            collector,
            collector_stop,
        })
    }
}

/// A multi-threaded query service owning one *serving snapshot* (graph,
/// prestige, keyword index — see [`GraphSnapshot`]) plus an engine registry
/// and result cache.
///
/// Queries are submitted as [`QuerySpec`]s and executed by a pool of worker
/// threads; the returned [`QueryHandle`] streams answers as the engine
/// emits them and supports cooperative cancellation and live statistics.
/// Admission is a bounded **priority scheduler** — shortest expected work
/// first ([`banks_core::QueryCost`]), per-tenant fair share, aging so
/// nothing starves (see [`QuerySpec::tenant`] / [`QuerySpec::priority`]) —
/// repeated queries are served from the service's LRU [`ResultCache`], and
/// per-answer deadlines are deterministic work budgets
/// ([`banks_core::SearchParams::answer_work_budget`]).  The served graph
/// can be replaced online with [`Service::swap_graph`].
///
/// ```
/// use banks_graph::GraphBuilder;
/// use banks_service::{QuerySpec, Service};
///
/// let mut b = GraphBuilder::new();
/// let author = b.add_node("author", "Jim Gray");
/// let paper = b.add_node("paper", "Granularity of locks");
/// let writes = b.add_node("writes", "w0");
/// b.add_edge(writes, author).unwrap();
/// b.add_edge(writes, paper).unwrap();
///
/// let service = Service::builder(b.build_default())
///     .workers(4)
///     .cache_capacity(256)
///     .build();
/// let handle = service.submit(QuerySpec::parse("gray locks")).unwrap();
/// let (outcome, result) = handle.wait();
/// assert_eq!(outcome.answers[0].tree.root, writes);
/// assert!(!result.cache_hit);
/// assert_eq!(result.epoch, service.epoch());
/// ```
pub struct Service {
    pub(crate) inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// The metrics collector thread (time-series snapshots, SLO passes,
    /// queue watchdog); joined on shutdown via `collector_stop`.
    collector: Option<JoinHandle<()>>,
    collector_stop: Arc<(Mutex<bool>, Condvar)>,
}

impl Service {
    /// Starts configuring a service over `graph`.
    pub fn builder(graph: DataGraph) -> ServiceBuilder {
        let default_workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2);
        ServiceBuilder {
            graph,
            workers: default_workers,
            queue_capacity: 64,
            cache_capacity: 256,
            prestige: None,
            index: None,
            registry: None,
            quota: None,
            persistence: None,
            slow_query_threshold: Duration::from_millis(250),
            collector_cadence: Duration::from_secs(10),
            slos: None,
        }
    }

    /// Declares this service's replication role (default
    /// [`ReplicationRole::Standalone`]).  The role is descriptive state —
    /// it feeds [`ReplicationStatus::role`], the `replication_lag_ms`
    /// series (followers only) and the front-end's mutation-rejection
    /// policy — it does not itself start or stop any replication thread.
    pub fn set_replication_role(&self, role: ReplicationRole) {
        self.inner
            .replication
            .lock()
            .expect("replication lock")
            .set_role(role);
    }

    /// This service's replication role and follower progress, as of now.
    pub fn replication_status(&self) -> ReplicationStatus {
        self.inner
            .replication
            .lock()
            .expect("replication lock")
            .status(unix_ms())
    }

    /// Records a leader head announcement: the leader's newest epoch and
    /// how many WAL records lie beyond this follower's applied position.
    /// The follower's stream client calls this on every head/keepalive
    /// event so [`ReplicationStatus::lag_ms`] measures real staleness
    /// even while no records arrive.
    pub fn note_replication_head(&self, leader_epoch: u64, lag_records: u64) {
        self.inner
            .replication
            .lock()
            .expect("replication lock")
            .note_head(leader_epoch, lag_records, unix_ms());
    }

    /// The current publish generation: read it *before* looking for
    /// records, pass it to [`Service::wait_for_publish`] after finding
    /// none.
    pub fn publish_generation(&self) -> u64 {
        self.inner.publish_generation.load(Ordering::SeqCst)
    }

    /// Blocks while the publish generation is still `seen`, for at most
    /// `timeout`, and returns the generation then current.  The generation
    /// advances when a serving epoch is published (leader writes,
    /// replicated applies, installed snapshots, wholesale swaps), when a
    /// checkpoint moves the WAL truncation horizon, and on
    /// [`Service::wake_publish_waiters`] — everything a replication stream
    /// reacts to, so it needs no timer to notice any of it.
    pub fn wait_for_publish(&self, seen: u64, timeout: Duration) -> u64 {
        let serving = self.inner.serving.lock().expect("serving lock");
        let (_serving, _) = self
            .inner
            .published
            .wait_timeout_while(serving, timeout, |_| self.publish_generation() == seen)
            .expect("serving lock");
        self.publish_generation()
    }

    /// Ends every [`Service::wait_for_publish`] in progress by advancing
    /// the generation without publishing anything: the truncation horizon
    /// moved, or a front-end is shutting down and wants its stream
    /// handlers to look at their stop flag.
    pub fn wake_publish_waiters(&self) {
        {
            let _serving = self.inner.serving.lock().expect("serving lock");
            self.inner.publish_generation.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.published.notify_all();
    }

    /// Replaces the full SLO spec set at runtime (the online equivalent of
    /// [`ServiceBuilder::slos`]).  All burn-rate states reset to `Ok`; the
    /// next collector tick judges the new set.
    pub fn replace_slos(&self, specs: Vec<SloSpec>) {
        self.inner.slo.replace_specs(specs);
    }

    /// Adds one SLO spec, replacing any existing spec of the same name
    /// (the `POST /admin/slo` path).  Other specs keep their burn-rate
    /// history.
    pub fn upsert_slo(&self, spec: SloSpec) {
        self.inner.slo.upsert_spec(spec);
    }

    /// The currently configured SLO specs.
    pub fn slo_specs(&self) -> Vec<SloSpec> {
        self.inner.slo.specs()
    }

    /// The service's current three-state health — the worst SLO verdict of
    /// the latest collector pass (`ok` until the first pass completes).
    pub fn health(&self) -> Health {
        self.inner
            .slo_report
            .lock()
            .expect("slo report lock")
            .health
    }

    /// The latest SLO evaluation: overall health plus one row per spec
    /// (latest value, fast/slow burn rates, hysteretic state).  Point in
    /// time as of the last collector tick.
    pub fn slo_report(&self) -> SloReport {
        self.inner
            .slo_report
            .lock()
            .expect("slo report lock")
            .clone()
    }

    /// The structured operational event log (see
    /// [`banks_obs::EventLog`]) — page it with
    /// [`EventLog::since`](banks_obs::EventLog::since).
    pub fn events(&self) -> &EventLog {
        &self.inner.events
    }

    /// The retained metric time series the collector thread writes
    /// ([`ServiceBuilder::collector_cadence`] sets the tick).
    pub fn time_series(&self) -> &TimeSeriesRing {
        &self.inner.series
    }

    /// The configured collector cadence.
    pub fn collector_cadence(&self) -> Duration {
        self.inner.collector_cadence
    }

    /// The retained phase trace for query `id`, if it is still in the
    /// bounded trace ring (explicitly traced and slow queries are
    /// retained; capacity 256, oldest evicted first).
    pub fn trace(&self, id: QueryId) -> Option<Arc<QueryTrace>> {
        self.inner.traces.get(id.0)
    }

    /// The most recently retained **slow** query traces (end-to-end
    /// latency over [`ServiceBuilder::slow_query_threshold`]), newest
    /// first, capped at `limit`.
    pub fn slow_traces(&self, limit: usize) -> Vec<Arc<QueryTrace>> {
        self.inner.traces.recent(limit, true)
    }

    /// The most recently retained traces of any kind (explicitly traced
    /// and slow), newest first, capped at `limit`.
    pub fn recent_traces(&self, limit: usize) -> Vec<Arc<QueryTrace>> {
        self.inner.traces.recent(limit, false)
    }

    /// The configured slow-query threshold.
    pub fn slow_query_threshold(&self) -> Duration {
        self.inner.slow_threshold
    }

    /// This service's result cache (hit/miss counters included).
    pub fn cache(&self) -> &ResultCache {
        &self.inner.cache
    }

    /// The snapshot currently being served: new submissions are pinned to
    /// it.  The returned `Arc` stays valid across swaps (it simply stops
    /// being current).
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        Arc::clone(&self.inner.serving.lock().expect("serving lock"))
    }

    /// The epoch of the graph currently being served (the cache-key
    /// component).
    pub fn epoch(&self) -> u64 {
        self.inner.serving.lock().expect("serving lock").epoch()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Engine names this service can run.
    pub fn engine_names(&self) -> Vec<&'static str> {
        self.inner.registry.names()
    }

    /// Blocks until the service is *quiescent*: the admission queue is
    /// empty and no worker is mid-query.  The drain hook for graceful
    /// shutdown of a front-end — stop accepting requests, `drain()`, then
    /// drop the service.
    ///
    /// Quiescence is a point-in-time property: a query submitted after
    /// `drain` returns starts the clock again.  A query whose handle is
    /// blocked on a slow consumer still counts as executing until the
    /// worker finishes it.
    pub fn drain(&self) {
        // A front-end that drains is winding down: its streams should look
        // at their stop flag now, not at the next keep-alive.
        self.wake_publish_waiters();
        let mut queue = self.inner.queue.lock().expect("queue lock");
        while !queue.jobs.is_empty() || queue.executing > 0 {
            queue = self.inner.idle.wait(queue).expect("queue lock");
        }
    }

    /// Stops accepting new queries, drains the admission queue and joins
    /// the workers.  Equivalent to dropping the service, but explicit.
    pub fn shutdown(self) {}

    fn begin_shutdown(&mut self) {
        {
            let mut queue = self.inner.queue.lock().expect("queue lock");
            queue.shutdown = true;
        }
        self.inner.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        {
            let (flag, signal) = &*self.collector_stop;
            *flag.lock().expect("collector stop lock") = true;
            signal.notify_all();
        }
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}
