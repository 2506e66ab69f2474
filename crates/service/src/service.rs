//! The worker-pool query service: priority admission, pinned snapshots,
//! online graph swapping.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use banks_core::cache::CacheKey;
use banks_core::registry::UnknownEngine;
use banks_core::{
    CancelToken, EngineRegistry, QueryContext, QueryCost, ResultCache, SearchOutcome, SearchStats,
};
use banks_graph::DataGraph;
use banks_obs::{
    CostCalibration, EventLevel, EventLog, Health, Histogram, QueryTrace, SloEngine, SloReport,
    SloSpec, TimeSeriesRing, TraceRing,
};
use banks_persist::{FsyncPolicy, PersistError};
use banks_prestige::PrestigeVector;
use banks_textindex::{InvertedIndex, KeywordMatches};

use crate::collector::{collector_loop, timeseries_schema};
use crate::epoch::Epochs;
use crate::handle::{HandleState, QueryEvent, QueryHandle, QueryId, QueryResult};
use crate::metrics::{Counters, ServiceMetrics, WaitStats};
use crate::quota::{QuotaConfig, QuotaState};
use crate::replication::{ReplicationRole, ReplicationState, ReplicationStatus};
use crate::sched::WorkQueue;
use crate::snapshot::GraphSnapshot;
use crate::spec::QuerySpec;

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

/// Nodes-explored multiple of the scheduler's a priori estimate at which a
/// finished query trips the watchdog: the overrun is counted in
/// [`ServiceMetrics::watchdog_overruns`] and logged as a
/// `watchdog-overrun` event.
const WATCHDOG_OVERRUN_FACTOR: u64 = 8;

/// Wall-clock milliseconds since the Unix epoch (the time base of the
/// time-series ring and SLO evaluation).
pub(crate) fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Phase timestamps collected while a query moves through admission and
/// execution, as microsecond offsets from `t0` (the top of
/// [`Service::submit`]).  Built for *every* query — a handful of `Instant`
/// reads — so slow queries produce a trace even when the caller did not
/// ask for one; the [`QueryTrace`] itself is only assembled when tracing
/// was requested or the query crossed the slow threshold.
struct TraceCtx {
    /// The client correlation reference when the submission explicitly
    /// requested a trace ([`QuerySpec::trace`]).
    requested: Option<String>,
    t0: Instant,
    admit_us: u64,
    resolve_start_us: u64,
    resolve_end_us: u64,
    enqueued_us: u64,
    submitted_off_us: u64,
}

impl TraceCtx {
    fn new(requested: Option<String>, t0: Instant) -> Self {
        TraceCtx {
            requested,
            t0,
            admit_us: 0,
            resolve_start_us: 0,
            resolve_end_us: 0,
            enqueued_us: 0,
            submitted_off_us: 0,
        }
    }

    fn elapsed_us(&self) -> u64 {
        self.t0.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

/// One unit of queued work, pinned to the serving snapshot it was admitted
/// under.
pub(crate) struct Job {
    id: QueryId,
    /// The graph version this query resolves, expands and caches against —
    /// fixed at admission, unaffected by later swaps.
    snapshot: Arc<GraphSnapshot>,
    matches: KeywordMatches,
    cache_key: CacheKey,
    spec_params: banks_core::SearchParams,
    /// The registry's canonical name for the requested engine.
    engine: &'static str,
    tenant: String,
    token: CancelToken,
    events: Sender<QueryEvent>,
    state: Arc<HandleState>,
    submitted_at: Instant,
    /// The a priori cost estimate the scheduler charged (calibration
    /// feedback compares it with the measured `nodes_explored`).
    cost: QueryCost,
    trace: TraceCtx,
}

pub(crate) struct QueueState {
    pub(crate) jobs: WorkQueue<Job>,
    /// Jobs currently running on a worker (popped but not finished) — the
    /// other half of the quiescence test [`Service::drain`] waits on.
    executing: usize,
    shutdown: bool,
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
    registry: EngineRegistry,
    /// The canonical name [`DEFAULT_ENGINE`] resolves to in `registry`.
    default_engine: &'static str,
    /// This service's own result cache: a swap evicts the superseded
    /// epoch's entries.
    pub(crate) cache: ResultCache,
    pub(crate) queue: Mutex<QueueState>,
    pub(crate) queue_capacity: usize,
    work_available: Condvar,
    /// Signalled whenever the queue empties *and* the last executing job
    /// finishes; [`Service::drain`] waits on it.
    idle: Condvar,
    /// Per-tenant token buckets (`None`: quotas disabled).
    quota: Option<Mutex<QuotaState>>,
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
    slow_threshold: Duration,
    /// Time-to-first-answer distribution across executed queries.
    pub(crate) ttfa_hist: Histogram,
    /// Apply-latency distribution of successful mutation batches.
    pub(crate) mutation_apply_hist: Histogram,
    /// Online correction of the a priori cost model from measured
    /// `nodes_explored`, per (engine, origin-size bucket).
    calibration: CostCalibration,
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
        let mut trace = TraceCtx::new(spec.trace, t0);

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

        let id = QueryId(inner.next_id.fetch_add(1, Ordering::Relaxed));
        let token = CancelToken::new();
        let state = Arc::new(HandleState::default());
        let (tx, rx) = channel();
        let submitted_at = Instant::now();
        trace.submitted_off_us = trace.elapsed_us();

        if let Some(hit) = inner.cache.get(&cache_key) {
            // Served entirely from the cache: no queue slot, no worker, no
            // engine — the handle is complete before `submit` returns.
            Counters::bump(&inner.counters.submitted);
            Counters::bump(&inner.counters.cache_hits);
            Counters::bump(&inner.counters.completed);
            state.publish(hit.stats.clone());
            let mut first_answer = None;
            for answer in &hit.answers {
                let _ = tx.send(QueryEvent::Answer(answer.clone()));
                first_answer.get_or_insert_with(|| submitted_at.elapsed());
                Counters::bump(&inner.counters.answers_delivered);
            }
            finish(
                inner,
                &tx,
                &trace,
                id,
                engine,
                &tenant,
                cache_key.epoch,
                None,
                first_answer,
                hit.stats.clone(),
                Duration::ZERO,
            );
            return Ok(QueryHandle {
                id,
                token,
                events: rx,
                state,
            });
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

        trace.enqueued_us = trace.elapsed_us();
        let job = Job {
            id,
            snapshot,
            matches,
            cache_key,
            spec_params: spec.params,
            engine,
            tenant: tenant.clone(),
            token: token.clone(),
            events: tx,
            state: Arc::clone(&state),
            submitted_at,
            cost,
            trace,
        };
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
        Ok(QueryHandle {
            id,
            token,
            events: rx,
            state,
        })
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

    /// A point-in-time snapshot of the aggregate counters, queue-wait
    /// percentiles, per-tenant scheduling outcomes and durability state.
    pub fn metrics(&self) -> ServiceMetrics {
        let queued = self.inner.queue.lock().expect("queue lock").jobs.len();
        let epoch = self.epoch();
        let mut metrics = {
            let waits = self.inner.waits.lock().expect("waits lock");
            ServiceMetrics::snapshot(&self.inner.counters, &waits, queued, epoch)
        };
        let durability = self.durability();
        metrics.persistence_enabled = durability.enabled;
        metrics.last_checkpoint_epoch = durability.last_checkpoint_epoch;
        metrics.wal_records = durability.wal_records;
        metrics.wal_bytes = durability.wal_bytes;
        metrics.checkpoints = durability.checkpoints;
        metrics.checkpoint_latency = durability.checkpoint_latency;
        metrics.wal_fsync = durability.wal_fsync;
        metrics.ttfa = self.inner.ttfa_hist.summary();
        metrics.mutation_apply = self.inner.mutation_apply_hist.summary();
        metrics.calibration = self.inner.calibration.rows();
        {
            let report = self.inner.slo_report.lock().expect("slo report lock");
            metrics.health = report.health;
            metrics.slo = report.rows.clone();
        }
        metrics.trace_ring_dropped = self.inner.traces.dropped();
        metrics.event_log_dropped = self.inner.events.dropped();
        metrics.event_log_last_id = self.inner.events.last_id();
        metrics.queue_saturation = queued as f64 / self.inner.queue_capacity.max(1) as f64;
        metrics.replication = self.replication_status();
        metrics
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
fn worker_loop(inner: Arc<Inner>) {
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
        let queue_wait = job.submitted_at.elapsed();
        inner
            .waits
            .lock()
            .expect("waits lock")
            .record(&job.tenant, queue_wait);
        execute(&inner, job, queue_wait);
        drop(guard);
    }
}

/// Runs one query to completion (or cancellation) on the calling worker,
/// against the snapshot the job was pinned to at admission.
fn execute(inner: &Inner, job: Job, queue_wait: std::time::Duration) {
    Counters::bump(&inner.counters.executed);
    let pickup_us = job.trace.elapsed_us();
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
        .create(job.engine)
        .expect("engine validated at submit time");
    let mut stream = engine.start(ctx);

    let mut answers = Vec::new();
    let mut first_answer = None;
    let mut receiver_gone = false;
    #[allow(clippy::while_let_on_iterator)] // stats() borrows between polls
    while let Some(answer) = stream.next() {
        first_answer.get_or_insert_with(|| job.submitted_at.elapsed());
        job.state.publish(stream.stats());
        if !receiver_gone {
            if job.events.send(QueryEvent::Answer(answer.clone())).is_err() {
                // The handle is gone: nobody will read further answers.
                // Cancel cooperatively so the engine stops within one step.
                receiver_gone = true;
                job.token.cancel();
            } else {
                Counters::bump(&inner.counters.answers_delivered);
            }
        }
        answers.push(answer);
    }
    let expand_end_us = job.trace.elapsed_us();

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
            job.engine,
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
                    job.id.0, measured, WATCHDOG_OVERRUN_FACTOR, job.cost.estimated_work
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
        if job.cache_key.epoch == serving.epoch() {
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
        &job.events,
        &job.trace,
        job.id,
        job.engine,
        &job.tenant,
        job.cache_key.epoch,
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
#[allow(clippy::too_many_arguments)]
fn finish(
    inner: &Inner,
    events: &Sender<QueryEvent>,
    ctx: &TraceCtx,
    id: QueryId,
    engine: &str,
    tenant: &str,
    epoch: u64,
    ran: Option<(u64, u64)>,
    time_to_first_answer: Option<Duration>,
    stats: SearchStats,
    queue_wait: Duration,
) {
    let total_us = ctx.elapsed_us();
    let slow = Duration::from_micros(total_us) >= inner.slow_threshold;
    let retained = (ctx.requested.is_some() || slow).then(|| {
        let mut trace = QueryTrace {
            id: id.0,
            client_ref: ctx.requested.clone(),
            tenant: (!tenant.is_empty()).then(|| tenant.to_string()),
            engine: engine.to_string(),
            cache_hit: ran.is_none(),
            slow,
            epoch,
            total_us,
            spans: Vec::new(),
            counters: Vec::new(),
        };
        trace.push_span("admit", 0, ctx.admit_us);
        trace.push_span("resolve", ctx.resolve_start_us, ctx.resolve_end_us);
        if let Some((pickup, expand_end)) = ran {
            trace.push_span("queue", ctx.enqueued_us, pickup);
            trace.push_span("expand", pickup, expand_end);
        }
        if let Some(ttfa) = time_to_first_answer {
            let ttfa_us = ttfa.as_micros().min(u64::MAX as u128) as u64;
            trace.push_span(
                "first-answer",
                ctx.submitted_off_us,
                ctx.submitted_off_us + ttfa_us,
            );
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
    let _ = events.send(QueryEvent::Finished(QueryResult {
        stats,
        cache_hit: ran.is_none(),
        time_to_first_answer,
        queue_wait,
        epoch,
        trace: retained.filter(|_| ctx.requested.is_some()),
    }));
}
