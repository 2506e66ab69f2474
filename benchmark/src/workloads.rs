//! The four workloads.  Sizes, rates and pools are frozen here; the
//! names, units and bounds of what they report are in `BENCHMARK.json`.
//!
//! A run is: set the system up (several times, for a steady `setup_s`),
//! build the query pool from the seed, warm up, measure for `--seconds`,
//! verify against the oracle, and — in a traced run — probe the layers.
//! An untraced run yields the end-to-end metrics.  A traced run yields
//! the per-layer metrics; on the closed loops it alternates untraced and
//! traced passes of the same request sequence, so
//! `obs.trace_overhead_pct` compares like with like inside one run.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use banks_core::label_index_delta;
use banks_service::{GraphSnapshot, QuerySpec, Service};

use crate::client::{ClosedLoop, Due, MutateSample, Op, OpenLoop, QuerySample, RequestSet};
use crate::corpus::{self, CorpusSize, IngestBatch, PoolMix};
use crate::oracle::{self, OracleRow};
use crate::probes;
use crate::rng::{poisson_schedule, Rng};
use crate::stack::{self, nproc, Stack, StackConfig};
use crate::stats;
use crate::sys;
use crate::wire;

/// The dataset and the query log are fixed data, as the paper's DBLP dump
/// and query set were: every run serves the same corpus per size and
/// draws on the same pools.  `--seed` drives the *replay* — the order of a
/// closed loop's cycle, an open loop's arrival times, popularity draws and
/// oracle sample, and what the ingest batches contain.  With corpus and
/// pools built from the seed as well, seed-to-seed spread on this box was
/// 10–12 % for `qps` and 20–38 % for the latency medians — wider than any
/// bound the repeat check allows (README, "What the seed changes").
const DATASET_SEED: u64 = 7;
const QUERY_LOG_SEED: u64 = 42;

/// `slo_ok_ratio` limits: time to first answer and time to `finished`.
const SLO_TTFA_MS: f64 = 100.0;
const SLO_DONE_MS: f64 = 1000.0;
/// Times the whole system is set up in one run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Open loops check one response in this many against the oracle.
const ORACLE_SAMPLE: usize = 8;
/// Open loops: requests in flight beyond this are failed, not sent.
const INFLIGHT_CAP: usize = 64;
/// Probe queries compared between follower and leader after ingest.
const REPLICA_PROBES: usize = 16;
/// Queries per engine and corpus size in the scaling probe: the first
/// eight of a 6 : 1 : 1 pool, so six light, one `Rare`, one `Frequent`.
const ENGINE_PROBE_QUERIES: usize = 8;

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: one set-up, relaxed percentile rule, same shape.
    pub quick: bool,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub queries_attempted: usize,
    pub queries_failed: usize,
    pub mutations_attempted: usize,
    pub mutations_failed: usize,
    /// The first few failure reasons, for the operator.
    pub errors: Vec<String>,
    /// Sample counts behind the percentiles, and anything else worth a
    /// line on stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn fail(&mut self, reason: impl Into<String>) {
        if self.errors.len() < 8 {
            self.errors.push(reason.into());
        }
    }

    /// A check outside any counted request failed (follower divergence,
    /// recovery at the wrong epoch): the run is incorrect.
    fn violation(&mut self, reason: impl Into<String>) {
        self.queries_failed += 1;
        self.fail(reason);
    }
}

enum Shape {
    /// `clients` = nproc; a pass is `pass_len` consecutive requests
    /// (a whole number of cycles through the pool).
    Closed { pass_len: usize, warmup: usize },
    /// Poisson arrivals at fixed rates; the reads walk the pool.
    Open {
        read_rate: f64,
        write_rate: f64,
        warmup: usize,
    },
}

struct Def {
    stack: StackConfig,
    mix: PoolMix,
    top_k: usize,
    shape: Shape,
}

pub const NAMES: [&str; 4] = [
    "search_saturate",
    "search_paced",
    "frontend_hot",
    "ingest_mixed",
];

/// The frozen shape of a workload.  A smoke run (`quick`) quarters pools,
/// passes and warm-ups so the oracle and the cache fill fit its budget.
fn def(name: &str, quick: bool) -> Option<Def> {
    let scale = |n: usize| if quick { n / 4 } else { n };
    Some(match name {
        "search_saturate" => Def {
            stack: StackConfig {
                size: CorpusSize::N13K,
                cache_capacity: 0,
                durable: false,
            },
            mix: PoolMix::standard(scale(96)),
            top_k: 10,
            shape: Shape::Closed {
                pass_len: scale(96),
                warmup: scale(32),
            },
        },
        "search_paced" => Def {
            stack: StackConfig {
                size: CorpusSize::N8K,
                cache_capacity: scale(64),
                durable: false,
            },
            mix: PoolMix::standard(scale(256)),
            top_k: 10,
            shape: Shape::Open {
                // Calibrated once on the seed box to a third of this mix's
                // closed-loop capacity (README, "Calibration"), then frozen.
                read_rate: 18.0,
                write_rate: 0.0,
                // The reads walk the pool, which is four times the cache:
                // every request misses.  Under a popularity skew the
                // median request was a sub-millisecond cache hit, and the
                // latency medians timed the host's vCPU wake-ups (README).
                warmup: 16,
            },
        },
        "frontend_hot" => Def {
            stack: StackConfig {
                size: CorpusSize::N8K,
                cache_capacity: 256,
                durable: false,
            },
            mix: PoolMix::two_keyword(32),
            top_k: 20,
            shape: Shape::Closed {
                pass_len: scale(2048),
                warmup: scale(1024),
            },
        },
        "ingest_mixed" => Def {
            stack: StackConfig {
                size: CorpusSize::N8K,
                cache_capacity: 256,
                durable: true,
            },
            mix: PoolMix::standard(scale(256)),
            top_k: 10,
            shape: Shape::Open {
                read_rate: 16.0,
                write_rate: 20.0,
                warmup: 16,
            },
        },
        _ => return None,
    })
}

/// Sets the system up [`SETUP_REPS`] times, keeps the last one, and
/// reports the median set-up time.
fn setup(config: StackConfig, opt: &Options) -> Result<(Stack, f64), String> {
    let reps = if opt.quick { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take()); // tear the previous system down before the next boots
        let stack = stack::boot(config, DATASET_SEED)?;
        times.push(stack.setup.as_secs_f64());
        kept = Some(stack);
    }
    let median = stats::median(&mut times).expect("at least one set-up");
    Ok((kept.expect("at least one set-up"), median))
}

/// `p` of `values` under the percentile rule: a percentile above the
/// median without [`stats::MIN_BEYOND`] samples beyond it — and anything
/// of a layer nobody exercised — reads 0 (README, "Zero means …").
fn pct(values: &mut [f64], p: f64) -> f64 {
    stats::sort(values);
    stats::supported_percentile(values, p).unwrap_or(0.0)
}

/// The client-observed latency metrics of `sent` (closed loops: the
/// untraced passes; open loops: every request of the window).
fn latency(out: &mut Outcome, sent: &[&QuerySample]) -> Result<(), String> {
    let ok: Vec<&&QuerySample> = sent.iter().filter(|s| s.ok()).collect();
    let mut ttfa: Vec<f64> = ok.iter().filter_map(|s| s.ttfa_ms).collect();
    let mut done: Vec<f64> = ok.iter().map(|s| s.done_ms).collect();
    if ttfa.is_empty() {
        return Err("no request produced an answer: nothing to time".to_string());
    }
    out.set("ttfa_ms_p50", pct(&mut ttfa, 0.5));
    out.set("ttfa_ms_p95", pct(&mut ttfa, 0.95));
    out.set("done_ms_p50", pct(&mut done, 0.5));
    out.set("done_ms_p95", pct(&mut done, 0.95));
    // Of the requests *sent*: a failed one misses every limit; one with no
    // answer has no first answer to be late.
    let within = ok
        .iter()
        .filter(|s| s.ttfa_ms.unwrap_or(0.0) <= SLO_TTFA_MS && s.done_ms <= SLO_DONE_MS)
        .count();
    out.set("slo_ok_ratio", within as f64 / sent.len().max(1) as f64);
    out.notes.push(format!(
        "latency samples: {} done, {} with a first answer, of {} sent",
        done.len(),
        ttfa.len(),
        sent.len()
    ));
    Ok(())
}

/// Per-layer metrics every workload derives from its query samples: the
/// `finished` frame of every response, the `trace` frame of traced ones,
/// and the client's own spans.
fn query_layers(out: &mut Outcome, samples: &[&QuerySample]) {
    let ok: Vec<&&QuerySample> = samples.iter().filter(|s| s.ok()).collect();
    let col = |f: &dyn Fn(&QuerySample) -> Option<f64>| -> Vec<f64> {
        ok.iter().filter_map(|s| f(s)).collect()
    };
    out.set(
        "server.connect_us_p50",
        pct(&mut col(&|s| Some(s.connect_us)), 0.5),
    );
    out.set(
        "server.bytes_per_query",
        stats::mean(&col(&|s| Some(s.bytes as f64))).unwrap_or(0.0),
    );
    let mut wait = col(&|s| Some(s.server.queue_wait_us));
    out.set("service.queue_wait_us_p50", pct(&mut wait, 0.5));
    out.set("service.queue_wait_us_p95", pct(&mut wait, 0.95));
    out.set(
        "service.cache_hit_ratio",
        ok.iter().filter(|s| s.server.cache_hit).count() as f64 / ok.len().max(1) as f64,
    );
    let refused = samples
        .iter()
        .filter(|s| matches!(s.error.as_deref(), Some("status 429" | "status 503")))
        .count();
    out.set(
        "service.rejected_ratio",
        refused as f64 / samples.len().max(1) as f64,
    );
    out.set(
        "core.engine_ttfa_us_p50",
        pct(&mut col(&|s| s.server.engine_ttfa_us), 0.5),
    );
    // A span a traced request did not have (no queueing or expansion on a
    // cache hit) counts as zero time in that layer.
    let traced = |f: &dyn Fn(&crate::client::TraceSpans) -> f64| -> Vec<f64> {
        col(&|s| s.server.trace.as_ref().map(f))
    };
    out.set("service.admit_us_p50", pct(&mut traced(&|t| t.admit), 0.5));
    out.set(
        "service.resolve_us_p50",
        pct(&mut traced(&|t| t.resolve), 0.5),
    );
    let mut expand = traced(&|t| t.expand);
    out.set("core.expand_us_p50", pct(&mut expand, 0.5));
    out.set("core.expand_us_p95", pct(&mut expand, 0.95));
    out.set(
        "server.overhead_us_p50",
        pct(
            &mut col(&|s| s.server.trace.map(|t| s.done_ms * 1e3 - t.total)),
            0.5,
        ),
    );
    out.set(
        "loadgen.late_ms_p95",
        pct(&mut col(&|s| Some(s.late_ms)), 0.95),
    );
    out.set(
        "loadgen.connect_errors",
        samples
            .iter()
            .filter(|s| s.error.as_deref().is_some_and(|e| e.starts_with("connect")))
            .count() as f64,
    );
}

/// Exact work counts and the probes that run on every workload.
fn common_layers(
    out: &mut Outcome,
    stack: &Stack,
    pool: &[Vec<String>],
    requests: &[Vec<u8>],
    rows: &[OracleRow],
) -> Result<(), String> {
    let per_query = |f: &dyn Fn(&OracleRow) -> Option<usize>| -> f64 {
        let v: Vec<f64> = rows.iter().filter_map(f).map(|n| n as f64).collect();
        stats::mean(&v).unwrap_or(0.0)
    };
    out.set(
        "core.nodes_explored_per_query",
        per_query(&|r| Some(r.outcome.stats.nodes_explored)),
    );
    out.set(
        "core.nodes_touched_per_query",
        per_query(&|r| Some(r.outcome.stats.nodes_touched)),
    );
    out.set(
        "core.edges_traversed_per_query",
        per_query(&|r| Some(r.outcome.stats.edges_traversed)),
    );
    out.set(
        "core.explored_to_first_answer",
        per_query(&|r| {
            r.outcome
                .answers
                .first()
                .map(|a| a.timing.explored_at_output)
        }),
    );

    let (parse_request, parse_body) = probes::request_parse(requests);
    out.set("server.parse_request_ns", parse_request);
    out.set("server.parse_body_ns", parse_body);
    let answers: Vec<_> = rows
        .iter()
        .flat_map(|r| r.outcome.answers.iter().take(2).cloned())
        .take(256)
        .collect();
    let (encode, frame) = probes::answer_encode(&answers);
    out.set("core.encode_answer_ns", encode);
    out.set("server.sse_frame_ns", frame);
    let snapshot = stack.service.snapshot();
    let (resolve, origins) = probes::resolve(&snapshot, pool);
    out.set("textindex.resolve_ns_p50", resolve);
    out.set("textindex.origins_per_keyword", origins);
    out.set(
        "graph.row_scan_ns_per_edge",
        probes::row_scan(stack.data.dataset.graph()),
    );
    let (scrape, gzip) = probes::metrics_scrape(stack.addr())?;
    out.set("server.metrics_scrape_us", scrape);
    out.set("server.metrics_gzip_ratio", gzip);
    Ok(())
}

/// One line per span of every traced request, written when the run ends.
/// Client spans are on the client's clock (µs since the request was due
/// or sent); the service's spans are on the service's (µs since
/// admission) and hang under `service`.
fn write_spans(workload: &str, samples: &[QuerySample]) -> Result<(), String> {
    let path = stack::out_dir().join(format!("{workload}.spans.jsonl"));
    std::fs::create_dir_all(stack::out_dir()).map_err(|e| format!("create out dir: {e}"))?;
    let file = std::fs::File::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let mut emit = |request: usize,
                    name: &str,
                    parent: &str,
                    start: f64,
                    end: f64,
                    self_us: f64|
     -> std::io::Result<()> {
        writeln!(
            w,
            "{{\"request\":{request},\"span\":\"{name}\",\"parent\":{parent},\
             \"start_us\":{start:.1},\"end_us\":{end:.1},\"self_us\":{self_us:.1}}}"
        )
    };
    for s in samples.iter().filter(|s| s.ok()) {
        let Some(t) = s.server.trace else { continue };
        let done = s.done_ms * 1e3;
        let io = |e: std::io::Error| format!("write {path:?}: {e}");
        // A span's self time is its duration minus what its children cover.
        emit(
            s.seq,
            "request",
            "null",
            0.0,
            done,
            done - s.connect_us - t.total,
        )
        .map_err(io)?;
        emit(
            s.seq,
            "connect",
            "\"request\"",
            0.0,
            s.connect_us,
            s.connect_us,
        )
        .map_err(io)?;
        let inner = t.admit + t.resolve + t.queue + t.expand;
        emit(
            s.seq,
            "service",
            "\"request\"",
            0.0,
            t.total,
            t.total - inner,
        )
        .map_err(io)?;
        for (name, d) in [
            ("admit", t.admit),
            ("resolve", t.resolve),
            ("queue", t.queue),
            ("expand", t.expand),
        ] {
            emit(s.seq, name, "\"service\"", 0.0, d, d).map_err(io)?;
        }
    }
    w.flush().map_err(|e| format!("flush {path:?}: {e}"))
}

fn tally_queries(out: &mut Outcome, samples: &[QuerySample]) {
    out.queries_attempted += samples.len();
    for s in samples.iter().filter(|s| !s.ok()) {
        out.queries_failed += 1;
        out.fail(s.error.clone().unwrap_or_default());
    }
}

pub fn run(name: &str, opt: &Options) -> Result<Outcome, String> {
    let def = def(name, opt.quick).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut out = Outcome::default();
    let (stack, setup_s) = setup(def.stack, opt)?;
    out.set("setup_s", setup_s);
    let pool = corpus::query_pool(&stack.data, QUERY_LOG_SEED, def.mix);
    match def.shape {
        Shape::Closed { .. } => closed(name, &def, &stack, &pool, opt, &mut out)?,
        Shape::Open { .. } => open(name, &def, stack, &pool, opt, &mut out)?,
    }
    out.set(
        "peak_rss_mb",
        sys::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    Ok(out)
}

// ------------------------------------------------------------ closed loops

fn closed(
    name: &str,
    def: &Def,
    stack: &Stack,
    pool: &[Vec<String>],
    opt: &Options,
    out: &mut Outcome,
) -> Result<(), String> {
    let Shape::Closed { pass_len, warmup } = def.shape else {
        unreachable!("closed() is called for closed shapes");
    };
    let requests = RequestSet::new(pool, def.top_k);
    let all: Vec<usize> = (0..pool.len()).collect();
    let snapshot = stack.service.snapshot();
    let rows = oracle::run(&snapshot, pool, &all, def.top_k, "bidirectional", nproc());
    let expected: Vec<String> = rows.iter().map(|r| r.text.clone()).collect();

    // The seed's part: the order in which a pass walks the pool.
    let order = Rng::new(opt.seed).permutation(pool.len());
    let load = ClosedLoop {
        addr: stack.addr(),
        clients: nproc(),
        requests: &requests,
        expected: Some(&expected),
        order: &order,
        trace: false,
    };
    let far = Instant::now() + Duration::from_secs(120);
    tally_queries(out, &load.run(Instant::now(), far, warmup));

    let load = ClosedLoop {
        trace: opt.trace,
        ..load
    };
    let window = Instant::now();
    let samples = load.run(
        window,
        window + Duration::from_secs_f64(opt.seconds),
        usize::MAX,
    );
    tally_queries(out, &samples);

    if opt.trace {
        let refs: Vec<&QuerySample> = samples.iter().collect();
        query_layers(out, &refs);
        common_layers(out, stack, pool, requests.plain(), &rows)?;
        // A closed loop completes clients ÷ mean latency requests per
        // second, so tracing everything would cost this share of qps.
        // Over an even number of whole cycles both means cover every
        // pool entry equally often.
        let cycles = (samples.len() / pool.len()) & !1;
        let mean_done = |traced: bool| {
            let v: Vec<f64> = samples[..cycles * pool.len()]
                .iter()
                .filter(|s| s.ok() && s.traced == traced)
                .map(|s| s.done_ms)
                .collect();
            stats::mean(&v)
        };
        if let (Some(untraced), Some(traced)) = (mean_done(false), mean_done(true)) {
            out.set("obs.trace_overhead_pct", 100.0 * (1.0 - untraced / traced));
        }
        if name == "search_saturate" {
            engine_probes(out, stack, pool);
        }
        write_spans(name, &samples)?;
        let untraced: Vec<&QuerySample> = samples.iter().filter(|s| !s.traced).collect();
        return latency(out, &untraced);
    }

    // Passes: identical stretches of work, so their median duration is
    // robust against a stall in one of them.  Only complete passes count.
    let complete = samples.len() / pass_len;
    let mut durations = Vec::with_capacity(complete);
    let mut previous_end = 0.0f64;
    for pass in samples.chunks_exact(pass_len) {
        let end = pass.iter().map(|s| s.end_s).fold(0.0, f64::max);
        durations.push(end - previous_end);
        previous_end = end;
    }
    out.notes
        .push(format!("{complete} complete passes of {pass_len} requests"));
    let counted = match stats::median(&mut durations) {
        Some(pass_s) => {
            out.set("qps", pass_len as f64 / pass_s);
            &samples[..complete * pass_len]
        }
        None => {
            // Not one pass fit the window (a smoke run, or a far slower
            // box): fall back to everything that completed.
            out.notes
                .push("no complete pass: qps over the whole window".to_string());
            let elapsed = samples.iter().map(|s| s.end_s).fold(0.0, f64::max);
            out.set("qps", samples.len() as f64 / elapsed.max(1e-9));
            &samples[..]
        }
    };
    let sent: Vec<&QuerySample> = counted.iter().collect();
    latency(out, &sent)
}

/// The per-engine scaling probe: nanoseconds per explored node for each
/// engine on the first [`ENGINE_PROBE_QUERIES`] queries of the same kind
/// of pool at 13k and at 26k nodes, and the explored-node ratios between
/// engines at 13k (the shape of the paper's Figures 5 and 6).
/// Single-threaded: these are timings, unlike the oracle's answers.
fn engine_probes(out: &mut Outcome, stack: &Stack, pool: &[Vec<String>]) {
    fn ns_per_explored(rows: &[OracleRow]) -> f64 {
        let ns: f64 = rows.iter().map(|r| r.elapsed.as_nanos() as f64).sum();
        ns / explored(rows).max(1.0)
    }
    fn explored(rows: &[OracleRow]) -> f64 {
        let nodes: usize = rows.iter().map(|r| r.outcome.stats.nodes_explored).sum();
        nodes as f64
    }
    let big = corpus::generate(CorpusSize::N26K, DATASET_SEED);
    let big_pool = corpus::query_pool(
        &big,
        QUERY_LOG_SEED,
        PoolMix::standard(ENGINE_PROBE_QUERIES),
    );
    let big_snapshot = GraphSnapshot::with_defaults(big.dataset.graph().clone());
    let queries: Vec<usize> = (0..ENGINE_PROBE_QUERIES).collect();
    let probe = |engine: &str, big: bool| {
        if big {
            oracle::run(&big_snapshot, &big_pool, &queries, 10, engine, 1)
        } else {
            oracle::run(&stack.service.snapshot(), pool, &queries, 10, engine, 1)
        }
    };
    let (bidir, si, mi) = (
        probe("bidirectional", false),
        probe("si-backward", false),
        probe("mi-backward", false),
    );
    out.set(
        "core.bidirectional.ns_per_explored.13k",
        ns_per_explored(&bidir),
    );
    out.set("core.si-backward.ns_per_explored.13k", ns_per_explored(&si));
    out.set("core.mi-backward.ns_per_explored.13k", ns_per_explored(&mi));
    out.set(
        "core.explored_ratio_si_over_bidir",
        explored(&si) / explored(&bidir).max(1.0),
    );
    out.set(
        "core.explored_ratio_mi_over_si",
        explored(&mi) / explored(&si).max(1.0),
    );
    for (engine, metric) in [
        ("bidirectional", "core.bidirectional.ns_per_explored.26k"),
        ("si-backward", "core.si-backward.ns_per_explored.26k"),
        ("mi-backward", "core.mi-backward.ns_per_explored.26k"),
    ] {
        out.set(metric, ns_per_explored(&probe(engine, true)));
    }
}

// -------------------------------------------------------------- open loops

/// What a [`Watcher`] saw: when each epoch first became visible on the
/// follower, and samples of how many records it was behind.
#[derive(Default)]
struct FollowerView {
    seen: Vec<(u64, Instant)>,
    lag_records: Vec<f64>,
}

/// Polls the follower beside the open loop.
struct Watcher {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<FollowerView>,
}

impl Watcher {
    fn start(follower: Arc<Service>) -> Watcher {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut view = FollowerView::default();
            let mut last = follower.epoch();
            let mut polls = 0u64;
            while !flag.load(Ordering::SeqCst) {
                let epoch = follower.epoch();
                if epoch != last {
                    view.seen.push((epoch, Instant::now()));
                    last = epoch;
                }
                polls += 1;
                if polls.is_multiple_of(10) {
                    view.lag_records
                        .push(follower.replication_status().lag_records as f64);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            view
        });
        Watcher { stop, thread }
    }

    fn finish(self) -> FollowerView {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("follower watcher panicked")
    }
}

fn open(
    name: &str,
    def: &Def,
    stack: Stack,
    pool: &[Vec<String>],
    opt: &Options,
    out: &mut Outcome,
) -> Result<(), String> {
    let Shape::Open {
        read_rate,
        write_rate,
        warmup,
    } = def.shape
    else {
        unreachable!("open() is called for open shapes");
    };
    let requests = RequestSet::new(pool, def.top_k);
    let horizon = Duration::from_secs_f64(opt.seconds);
    // The reads walk the pool — every query equally often, whatever the
    // seed — in an order the seed shuffles, at times the seed draws.
    let count = |rate: f64| (rate * opt.seconds).round() as usize;
    let order = Rng::new(opt.seed).permutation(count(read_rate));
    let warm_queries: Vec<usize> = (0..warmup).collect();
    let warm = ClosedLoop {
        addr: stack.addr(),
        clients: nproc(),
        requests: &requests,
        expected: None,
        order: &warm_queries,
        trace: false,
    };
    let far = Instant::now() + Duration::from_secs(120);
    tally_queries(out, &warm.run(Instant::now(), far, warmup));

    // The schedule: independent Poisson streams of reads and writes.
    let mut read_rng = Rng::new(opt.seed ^ 0x0EAD_0EAD);
    let mut schedule: Vec<Due> = poisson_schedule(&mut read_rng, order.len(), horizon)
        .into_iter()
        .enumerate()
        .map(|(n, at)| Due {
            at,
            op: Op::Query {
                query: order[n] % pool.len(),
                check: n % ORACLE_SAMPLE == 0,
            },
        })
        .collect();
    let mut batches: Vec<IngestBatch> = Vec::new();
    if write_rate > 0.0 {
        let mut write_rng = Rng::new(opt.seed ^ 0x3217E);
        let due = poisson_schedule(&mut write_rng, count(write_rate), horizon);
        batches = corpus::ingest_batches(stack.service.snapshot().graph(), opt.seed, due.len());
        schedule.extend(due.into_iter().enumerate().map(|(batch, at)| Due {
            at,
            op: Op::Mutate { batch },
        }));
        schedule.sort_by_key(|d| d.at);
    }
    let mutate_requests: Vec<Vec<u8>> = batches
        .iter()
        .map(|b| wire::mutate_request(&b.body))
        .collect();

    let base = stack.service.snapshot();
    let watcher = stack
        .replica
        .as_ref()
        .map(|r| Watcher::start(Arc::clone(&r.service)));
    let mut mutation_spans = MutationSpans::default();
    let stop = AtomicBool::new(false);
    let window = Instant::now();
    let (samples, mutates) = std::thread::scope(|scope| {
        // Mutation traces live in a 256-entry ring; collect them while
        // the loop runs so none is evicted unread.
        let collector = (write_rate > 0.0 && opt.trace).then(|| {
            let (stop, service, spans) = (&stop, &stack.service, &mut mutation_spans);
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    spans.collect(service);
                    std::thread::sleep(Duration::from_millis(500));
                }
                spans.collect(service);
            })
        });
        let result = OpenLoop {
            addr: stack.addr(),
            schedule: &schedule,
            requests: &requests,
            trace: opt.trace,
            mutate_requests: &mutate_requests,
            inflight_cap: INFLIGHT_CAP,
            grace: Duration::from_secs(20),
        }
        .run(window);
        stop.store(true, Ordering::SeqCst);
        if let Some(c) = collector {
            c.join().expect("trace collector panicked");
        }
        result
    });
    tally_queries(out, &samples);
    out.mutations_attempted += mutates.len();
    for m in mutates.iter().filter(|m| !m.ok()) {
        out.mutations_failed += 1;
        out.fail(m.error.clone().unwrap_or_default());
    }

    // The oracle: every sampled read, on the graph version it ran against.
    let walk = verify_sampled(
        out, &base, &batches, &mutates, &samples, pool, def.top_k, opt,
    );

    let sent: Vec<&QuerySample> = samples.iter().collect();
    if opt.trace {
        query_layers(out, &sent);
        common_layers(out, &stack, pool, requests.plain(), &walk.rows)?;
        write_spans(name, &samples)?;
    }
    // Goodput: the schedule fixes what is offered, so this moves only
    // when requests fail or the tail of the window drains slowly.
    let ok = sent.iter().filter(|s| s.ok()).count();
    let drained = samples.iter().map(|s| s.end_s).fold(opt.seconds, f64::max);
    out.set("qps", ok as f64 / drained);
    latency(out, &sent)?;
    if write_rate > 0.0 {
        let visible = watcher.expect("durable stacks have a follower").finish();
        ingest_epilogue(
            out,
            stack,
            &batches,
            &mutates,
            visible,
            &mutation_spans,
            &walk,
            pool,
            def.top_k,
            opt,
        )?;
    }
    Ok(())
}

/// What the oracle's walk over the acknowledged batches measured.
#[derive(Default)]
struct Walk {
    /// Oracle rows of the sampled reads (work counts, answers to encode).
    rows: Vec<OracleRow>,
    graph_apply_us: Vec<f64>,
    index_delta_us: Vec<f64>,
}

/// Replays the acknowledged batches in order on a private copy of the
/// graph, and checks every sampled read on the version whose epoch its
/// `finished` frame named.
#[allow(clippy::too_many_arguments)]
fn verify_sampled(
    out: &mut Outcome,
    base: &Arc<GraphSnapshot>,
    batches: &[IngestBatch],
    mutates: &[MutateSample],
    samples: &[QuerySample],
    pool: &[Vec<String>],
    top_k: usize,
    opt: &Options,
) -> Walk {
    let mut walk = Walk::default();
    let mut by_epoch: BTreeMap<u64, Vec<&QuerySample>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.ok() && s.answers.is_some()) {
        by_epoch.entry(s.server.epoch).or_default().push(s);
    }
    let mut acked: Vec<&MutateSample> = mutates.iter().filter(|m| m.ok()).collect();
    acked.sort_by_key(|m| m.epoch);

    // The oracle's chain has private epochs, so the leader's are matched
    // by position: the base version, then one version per acknowledgement.
    let mut current: GraphSnapshot = (**base).clone();
    let leader_epochs = std::iter::once(base.epoch()).chain(acked.iter().map(|m| m.epoch));
    for (position, leader_epoch) in leader_epochs.enumerate() {
        if position > 0 {
            let batch = &batches[acked[position - 1].batch].batch;
            if opt.trace {
                // The same step, layer by layer, for the per-layer rows.
                let started = Instant::now();
                let (graph, outcome) = current.graph().apply_batch(batch);
                walk.graph_apply_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
                let delta = label_index_delta(&graph, &outcome);
                let started = Instant::now();
                std::hint::black_box(current.index().apply_delta(&delta));
                walk.index_delta_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
            }
            current = current.apply_batch(batch).0;
        }
        let Some(reads) = by_epoch.remove(&leader_epoch) else {
            continue;
        };
        let queries: Vec<usize> = reads.iter().map(|s| s.query).collect();
        let rows = oracle::run(&current, pool, &queries, top_k, "bidirectional", nproc());
        for (read, row) in reads.iter().zip(&rows) {
            if read.answers.as_deref() != Some(row.text.as_str()) {
                out.queries_failed += 1;
                out.fail(format!(
                    "query {} at epoch {leader_epoch} differs from the oracle",
                    read.query
                ));
            }
        }
        walk.rows.extend(rows);
    }
    for (epoch, reads) in by_epoch {
        out.queries_failed += reads.len();
        out.fail(format!(
            "{} reads at epoch {epoch}, which no acknowledgement named",
            reads.len()
        ));
    }
    walk
}

/// Spans of the service's mutation traces, read through
/// `Service::recent_traces` (µs).
#[derive(Default)]
struct MutationSpans {
    seen: std::collections::BTreeSet<u64>,
    apply: Vec<f64>,
    swap: Vec<f64>,
    wal_append: Vec<f64>,
    wal_fsync: Vec<f64>,
}

impl MutationSpans {
    fn collect(&mut self, service: &Service) {
        for trace in service.recent_traces(256) {
            if trace.engine != "mutation" || !self.seen.insert(trace.id) {
                continue;
            }
            for (name, into) in [
                ("apply", &mut self.apply),
                ("swap", &mut self.swap),
                ("wal-append", &mut self.wal_append),
                ("wal-fsync", &mut self.wal_fsync),
            ] {
                if let Some(span) = trace.span(name) {
                    into.push(span.duration_us() as f64);
                }
            }
        }
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// In-process answers of `service` for `queries`, as oracle text.
fn service_answers(
    service: &Service,
    pool: &[Vec<String>],
    queries: &[usize],
    top_k: usize,
) -> Vec<String> {
    queries
        .iter()
        .map(|&q| {
            let spec = QuerySpec::keywords(pool[q].iter().cloned()).top_k(top_k);
            match service.submit(spec) {
                Ok(handle) => oracle::answers_text(&handle.wait().0.answers),
                Err(e) => format!("submit failed: {e}"),
            }
        })
        .collect()
}

/// After the ingest window: replication and durability checks, the
/// write-path metrics, then checkpoint, shut down and recover.
#[allow(clippy::too_many_arguments)]
fn ingest_epilogue(
    out: &mut Outcome,
    stack: Stack,
    batches: &[IngestBatch],
    mutates: &[MutateSample],
    follower_view: FollowerView,
    spans: &MutationSpans,
    walk: &Walk,
    pool: &[Vec<String>],
    top_k: usize,
    opt: &Options,
) -> Result<(), String> {
    let Stack {
        replica,
        server,
        service,
        leader_dir,
        ..
    } = stack;
    let replica = replica.expect("durable stacks have a follower");
    let leader_dir = leader_dir.expect("durable stacks have a data dir");
    let acked: Vec<&MutateSample> = mutates.iter().filter(|m| m.ok()).collect();
    let last_epoch = acked
        .iter()
        .map(|m| m.epoch)
        .max()
        .unwrap_or(service.epoch());

    // 1. the follower converges and answers like the leader
    let begun = Instant::now();
    while replica.service.epoch() != service.epoch() {
        if begun.elapsed() > Duration::from_secs(15) {
            out.violation(format!(
                "follower stuck at epoch {} while the leader serves {}",
                replica.service.epoch(),
                service.epoch()
            ));
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let probe_queries: Vec<usize> = (0..REPLICA_PROBES.min(pool.len())).collect();
    let on_leader = service_answers(&service, pool, &probe_queries, top_k);
    let on_follower = service_answers(&replica.service, pool, &probe_queries, top_k);
    if on_leader != on_follower {
        out.violation("follower answers differ from the leader's on the probe queries");
    }

    if opt.trace {
        let mut ack: Vec<f64> = acked.iter().map(|m| m.ack_ms).collect();
        out.set("mutate_ack_ms_p50", pct(&mut ack, 0.5));
        out.set("mutate_ack_ms_p95", pct(&mut ack, 0.95));
        // Ack of epoch E → first poll at which the follower served ≥ E.
        let mut visible: Vec<f64> = acked
            .iter()
            .filter_map(|m| {
                let at = follower_view
                    .seen
                    .iter()
                    .find(|(epoch, _)| *epoch >= m.epoch)?
                    .1;
                Some(at.saturating_duration_since(m.acked_at).as_secs_f64() * 1e3)
            })
            .collect();
        out.notes.push(format!(
            "{} acks, {} seen on the follower during the window",
            acked.len(),
            visible.len()
        ));
        out.set("visible_ms_p50", pct(&mut visible, 0.5));
        out.set("visible_ms_p95", pct(&mut visible, 0.95));
        out.set(
            "replica.bootstrap_ms",
            replica.bootstrap.as_secs_f64() * 1e3,
        );
        out.set(
            "replica.lag_records_p95",
            pct(&mut follower_view.lag_records.clone(), 0.95),
        );
        // The boot bootstrap is the first; anything more is a re-seed.
        let bootstraps = replica
            .service
            .events()
            .since(0, 100_000)
            .iter()
            .filter(|e| e.kind == "replication-bootstrap")
            .count();
        out.set("replica.reseeds", bootstraps.saturating_sub(1) as f64);

        out.set("service.apply_us_p50", pct(&mut spans.apply.clone(), 0.5));
        out.set("service.swap_us_p50", pct(&mut spans.swap.clone(), 0.5));
        out.set(
            "persist.wal_append_us_p50",
            pct(&mut spans.wal_append.clone(), 0.5),
        );
        out.set(
            "persist.wal_fsync_us_p50",
            pct(&mut spans.wal_fsync.clone(), 0.5),
        );
        out.set(
            "graph.apply_batch_us",
            pct(&mut walk.graph_apply_us.clone(), 0.5),
        );
        out.set(
            "textindex.apply_delta_us",
            pct(&mut walk.index_delta_us.clone(), 0.5),
        );
        out.set(
            "graph.row_scan_overlay_ns_per_edge",
            probes::row_scan(service.snapshot().graph()),
        );
        let durability = service.durability();
        out.set(
            "persist.wal_bytes_per_batch",
            durability.wal_bytes as f64 / durability.wal_records.max(1) as f64,
        );
        // Recovery, measured on the directory as a crash would leave it:
        // newest snapshot plus the WAL written since.
        let started = Instant::now();
        let recovery = banks_persist::recover(leader_dir.path())
            .map_err(|e| format!("recover probe: {e}"))?
            .ok_or("recover probe: no snapshot in the leader's directory")?;
        let load_ms = started.elapsed().as_secs_f64() * 1e3;
        out.set("persist.snapshot_load_ms", load_ms);
        let records = recovery.wal.records.len();
        let started = Instant::now();
        banks_persist::replay_wal(recovery.contents.graph, &recovery.wal.records)
            .map_err(|e| format!("replay probe: {e}"))?;
        out.set(
            "persist.wal_replay_us_per_record",
            started.elapsed().as_secs_f64() * 1e6 / records.max(1) as f64,
        );
    }

    // 2. checkpoint, then what the leader's directory holds
    let started = Instant::now();
    service
        .checkpoint()
        .map_err(|e| format!("final checkpoint: {e}"))?;
    let checkpoint_ms = started.elapsed().as_secs_f64() * 1e3;
    let nodes = service.snapshot().graph().num_nodes();
    if opt.trace {
        out.set("persist.checkpoint_ms", checkpoint_ms);
        let user_bytes: usize = acked.iter().map(|m| batches[m.batch].body.len()).sum();
        out.set(
            "bytes_per_user_byte",
            dir_bytes(leader_dir.path()) as f64 / user_bytes.max(1) as f64,
        );
        let newest = service
            .newest_snapshot_file()
            .map_err(|e| format!("newest snapshot: {e}"))?
            .ok_or("no snapshot after the final checkpoint")?;
        let bytes = std::fs::metadata(&newest.1).map_or(0, |m| m.len());
        out.set(
            "persist.snapshot_bytes_per_node",
            bytes as f64 / nodes.max(1) as f64,
        );
    }

    // 3. stop everything, reopen the leader from its directory
    drop(replica);
    server.shutdown();
    let service = Arc::try_unwrap(service)
        .map_err(|_| "the leader service is still shared after shutdown".to_string())?;
    drop(service);
    let started = Instant::now();
    let mut boot = banks_graph::GraphBuilder::new();
    boot.add_node("boot", "ignored: the directory wins");
    let reopened = stack::durable_service(boot.build_default(), leader_dir.path());
    if opt.trace {
        out.set("persist.recover_ms", started.elapsed().as_secs_f64() * 1e3);
    }
    if reopened.epoch() != last_epoch {
        out.violation(format!(
            "reopened at epoch {}, last acknowledged epoch was {last_epoch}",
            reopened.epoch()
        ));
    }
    if let Some(last) = acked.iter().max_by_key(|m| m.epoch) {
        let token = &batches[last.batch].token;
        let (outcome, _) = reopened
            .submit(QuerySpec::keywords([token.as_str()]).top_k(1))
            .map_err(|e| format!("query the reopened leader: {e}"))?
            .wait();
        if outcome.answers.is_empty() {
            out.violation(format!("{token:?} is not queryable after recovery"));
        }
    }
    Ok(())
}
