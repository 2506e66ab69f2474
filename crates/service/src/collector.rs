//! The metrics collector thread: time-series snapshots, SLO burn-rate
//! passes and the queue-saturation watchdog, plus the SLO configuration
//! parser that names the series it records.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use banks_obs::{EventLevel, Health, Histogram, SloSpec, HISTOGRAM_BUCKETS};

use crate::metrics::Counters;
use crate::replication::ReplicationRole;
use crate::service::{unix_ms, Inner};

/// Queue occupancy (fraction of capacity) at which the watchdog flags
/// saturation, and the lower fraction at which the flag clears.
const QUEUE_SATURATION_TRIP: f64 = 0.8;
const QUEUE_SATURATION_CLEAR: f64 = 0.5;

/// The fixed schema of series the collector snapshots every tick.
/// Cumulative counters and gauges keep their counter names and are
/// sampled as they stand; `*_p*_us` series are **windowed** percentiles — computed from the
/// histogram-bucket delta of the tick, `NaN` when the tick saw no samples —
/// so they decay when a latency regression ends, which is what lets an SLO
/// alert resolve.
pub(crate) fn timeseries_schema() -> Vec<&'static str> {
    vec![
        "submitted",
        "executed",
        "completed",
        "rejected",
        "quota_rejected",
        "cancelled",
        "cache_hits",
        "answers_delivered",
        "slow_queries",
        "queued",
        "error_ratio",
        "ttfa_p50_us",
        "ttfa_p90_us",
        "ttfa_p99_us",
        "queue_wait_p50_us",
        "queue_wait_p90_us",
        "queue_saturation",
        "replication_lag_ms",
    ]
}

/// Parses a JSON SLO configuration: either a top-level array of spec
/// objects or an object with a `"slos"` array member.  Each spec requires
/// `"name"`, `"metric"` and `"threshold"`; the optional `"budget"`,
/// `"fast_window_ms"`, `"slow_window_ms"`, `"fire_burn"` and
/// `"resolve_burn"` members override the [`SloSpec::upper_bound`]
/// defaults.  Unknown members, and a `"metric"` the collector records no
/// series for, are rejected — a typo must not silently weaken an objective.
///
/// ```
/// let specs = banks_service::parse_slo_specs(
///     r#"{"slos":[{"name":"replication_lag","metric":"replication_lag_ms",
///                  "threshold":5000}]}"#,
/// )
/// .unwrap();
/// assert_eq!(specs.len(), 1);
/// assert_eq!(specs[0].metric, "replication_lag_ms");
/// ```
pub fn parse_slo_specs(text: &str) -> Result<Vec<SloSpec>, String> {
    use banks_core::json::JsonValue;

    let doc = banks_core::json::parse(text)?;
    let entries: &[JsonValue] = match &doc {
        JsonValue::Array(items) => items,
        JsonValue::Object(map) => match map.get("slos") {
            Some(JsonValue::Array(items)) => items,
            Some(_) => return Err("\"slos\" must be an array".to_string()),
            None => {
                return Err(
                    "expected a top-level array or an object with a \"slos\" array".to_string(),
                )
            }
        },
        _ => return Err("expected a top-level array or object".to_string()),
    };
    let known_metrics = timeseries_schema();
    let mut specs = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let JsonValue::Object(map) = entry else {
            return Err(format!("slo #{i}: expected an object"));
        };
        for key in map.keys() {
            if ![
                "name",
                "metric",
                "threshold",
                "budget",
                "fast_window_ms",
                "slow_window_ms",
                "fire_burn",
                "resolve_burn",
            ]
            .contains(&key.as_str())
            {
                return Err(format!("slo #{i}: unknown member {key:?}"));
            }
        }
        let string_field = |key: &str| -> Result<String, String> {
            match map.get(key) {
                Some(JsonValue::String(s)) if !s.is_empty() => Ok(s.clone()),
                Some(JsonValue::String(_)) => Err(format!("slo #{i}: {key:?} must be non-empty")),
                Some(_) => Err(format!("slo #{i}: {key:?} must be a string")),
                None => Err(format!("slo #{i}: missing {key:?}")),
            }
        };
        let number_field = |key: &str| -> Result<Option<f64>, String> {
            match map.get(key) {
                Some(JsonValue::Number(n)) if n.is_finite() => Ok(Some(*n)),
                Some(_) => Err(format!("slo #{i}: {key:?} must be a finite number")),
                None => Ok(None),
            }
        };
        let window_field = |key: &str| -> Result<Option<u64>, String> {
            match number_field(key)? {
                Some(n) if n >= 1.0 && n.fract() == 0.0 => Ok(Some(n as u64)),
                Some(_) => Err(format!(
                    "slo #{i}: {key:?} must be a positive integer of ms"
                )),
                None => Ok(None),
            }
        };
        let threshold =
            number_field("threshold")?.ok_or_else(|| format!("slo #{i}: missing \"threshold\""))?;
        let name = string_field("name")?;
        let metric = string_field("metric")?;
        // `burn_over` finds no samples for a series the collector does not
        // record, so such an objective would read `ok` and never fire.
        if !known_metrics.contains(&metric.as_str()) {
            return Err(format!(
                "slo #{i}: unknown metric {metric:?}; known metrics: {}",
                known_metrics.join(", ")
            ));
        }
        let mut spec = SloSpec::upper_bound(name, metric, threshold);
        if let Some(budget) = number_field("budget")? {
            if !(budget > 0.0 && budget <= 1.0) {
                return Err(format!("slo #{i}: \"budget\" must be in (0, 1]"));
            }
            spec.budget = budget;
        }
        if let Some(fast) = window_field("fast_window_ms")? {
            spec.fast_window_ms = fast;
        }
        if let Some(slow) = window_field("slow_window_ms")? {
            spec.slow_window_ms = slow;
        }
        if let Some(fire) = number_field("fire_burn")? {
            spec.fire_burn = fire;
        }
        if let Some(resolve) = number_field("resolve_burn")? {
            spec.resolve_burn = resolve;
        }
        if spec.fast_window_ms > spec.slow_window_ms {
            return Err(format!(
                "slo #{i}: fast window must not exceed the slow window"
            ));
        }
        if let Some(dup) = specs
            .iter()
            .map(|s: &SloSpec| &s.name)
            .find(|n| **n == spec.name)
        {
            return Err(format!("slo #{i}: duplicate name {dup:?}"));
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// Cross-tick state the collector carries: previous cumulative counter and
/// histogram-bucket values (differenced into per-tick rates and windowed
/// percentiles) plus the queue-saturation hysteresis flag.
struct CollectorState {
    prev_submitted: u64,
    prev_rejected: u64,
    prev_quota_rejected: u64,
    prev_ttfa: [u64; HISTOGRAM_BUCKETS],
    prev_wait: [u64; HISTOGRAM_BUCKETS],
    saturated: bool,
}

/// Collector thread body: on every cadence tick, snapshot the service's
/// counters, gauges and windowed latency percentiles into the time-series
/// ring, run the SLO burn-rate evaluation over it, publish the report, and
/// emit alert-fire / alert-resolve / queue-saturation events.  Exits when
/// the stop flag is raised (signalled through the paired condvar).
pub(crate) fn collector_loop(
    inner: Arc<Inner>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    cadence: Duration,
) {
    let (flag, signal) = &*stop;
    let mut state = CollectorState {
        prev_submitted: 0,
        prev_rejected: 0,
        prev_quota_rejected: 0,
        prev_ttfa: [0; HISTOGRAM_BUCKETS],
        prev_wait: [0; HISTOGRAM_BUCKETS],
        saturated: false,
    };
    // First tick up front: the report and the ring are populated right
    // after boot instead of one full cadence in (which, at the production
    // default of 10 s, would leave /debug/slo empty against every early
    // probe).
    collector_tick(&inner, &mut state, unix_ms());
    loop {
        {
            // The predicate, not the signal, decides: a stop raised while
            // the first tick ran must not wait out a whole cadence.
            let stopped = flag.lock().expect("collector stop lock");
            let (stopped, _) = signal
                .wait_timeout_while(stopped, cadence, |stopped| !*stopped)
                .expect("collector stop lock");
            if *stopped {
                return;
            }
        }
        collector_tick(&inner, &mut state, unix_ms());
    }
}

/// One collector pass at `now_ms`: record a tick and judge the SLOs.
/// Split from [`collector_loop`] so the pass itself has no sleeping and a
/// deterministic time base.
fn collector_tick(inner: &Inner, state: &mut CollectorState, now_ms: u64) {
    let c = &inner.counters;
    let submitted = c.submitted.load(Ordering::Relaxed);
    let rejected = c.rejected.load(Ordering::Relaxed);
    let quota_rejected = c.quota_rejected.load(Ordering::Relaxed);

    // Per-tick error ratio: this tick's rejections over this tick's
    // submission attempts (accepted + rejected), NaN when there were none —
    // a cumulative ratio would never recover from a burst of rejects.
    let d_accepted = submitted.saturating_sub(state.prev_submitted);
    let d_rejected = rejected.saturating_sub(state.prev_rejected)
        + quota_rejected.saturating_sub(state.prev_quota_rejected);
    let attempts = d_accepted + d_rejected;
    let error_ratio = if attempts == 0 {
        f64::NAN
    } else {
        d_rejected as f64 / attempts as f64
    };

    // Windowed percentiles from histogram-bucket deltas: the latency of
    // *this tick's* samples only, NaN on idle ticks.  Unlike the cumulative
    // summaries, these decay once a regression ends — which is what lets a
    // fired SLO alert resolve.
    let ttfa_now = inner.ttfa_hist.bucket_counts();
    let ttfa_delta: [u64; HISTOGRAM_BUCKETS] =
        std::array::from_fn(|i| ttfa_now[i].saturating_sub(state.prev_ttfa[i]));
    let wait_now = inner.waits.lock().expect("waits lock").bucket_counts();
    let wait_delta: [u64; HISTOGRAM_BUCKETS] =
        std::array::from_fn(|i| wait_now[i].saturating_sub(state.prev_wait[i]));
    let pct = |delta: &[u64; HISTOGRAM_BUCKETS], p: f64| -> f64 {
        Histogram::percentile_of(delta, p)
            .map(|d| d.as_micros().min(u64::MAX as u128) as f64)
            .unwrap_or(f64::NAN)
    };

    let (queued, saturation) = inner.queue_occupancy();

    // Replication lag is a follower-only signal: standalone services and
    // leaders record NaN (no sample) so a `replication_lag` SLO judges
    // only actual followers.
    let replication_lag_ms = {
        let replication = inner.replication.lock().expect("replication lock");
        if replication.role() == ReplicationRole::Follower {
            replication.status(now_ms).lag_ms as f64
        } else {
            f64::NAN
        }
    };

    // Values in timeseries_schema() order.
    inner.series.record(
        now_ms,
        &[
            submitted as f64,
            c.executed.load(Ordering::Relaxed) as f64,
            c.completed.load(Ordering::Relaxed) as f64,
            rejected as f64,
            quota_rejected as f64,
            c.cancelled.load(Ordering::Relaxed) as f64,
            c.cache_hits.load(Ordering::Relaxed) as f64,
            c.answers_delivered.load(Ordering::Relaxed) as f64,
            c.slow_queries.load(Ordering::Relaxed) as f64,
            queued as f64,
            error_ratio,
            pct(&ttfa_delta, 0.50),
            pct(&ttfa_delta, 0.90),
            pct(&ttfa_delta, 0.99),
            pct(&wait_delta, 0.50),
            pct(&wait_delta, 0.90),
            saturation,
            replication_lag_ms,
        ],
    );

    let (report, transitions) = inner.slo.evaluate(&inner.series, now_ms);
    for t in &transitions {
        if t.to == Health::Ok {
            inner.events.emit(
                EventLevel::Info,
                "alert-resolve",
                format!("slo {} recovered ({} -> ok)", t.slo, t.from.as_str()),
            );
        } else {
            inner.events.emit(
                EventLevel::Warn,
                "alert-fire",
                format!(
                    "slo {} is {} ({} -> {})",
                    t.slo,
                    t.to.as_str(),
                    t.from.as_str(),
                    t.to.as_str()
                ),
            );
        }
    }
    *inner.slo_report.lock().expect("slo report lock") = report;

    // Queue-saturation watchdog with hysteresis: trip crossing 80%
    // occupancy, clear only once it falls back under 50%.
    if !state.saturated && saturation >= QUEUE_SATURATION_TRIP {
        state.saturated = true;
        Counters::bump(&c.watchdog_queue_trips);
        inner.events.emit(
            EventLevel::Warn,
            "watchdog-queue",
            format!(
                "admission queue saturated: {queued}/{} slots occupied",
                inner.queue_capacity
            ),
        );
    } else if state.saturated && saturation < QUEUE_SATURATION_CLEAR {
        state.saturated = false;
        inner.events.emit(
            EventLevel::Info,
            "watchdog-queue",
            format!(
                "admission queue drained back under {}%",
                (QUEUE_SATURATION_CLEAR * 100.0) as u64
            ),
        );
    }

    state.prev_submitted = submitted;
    state.prev_rejected = rejected;
    state.prev_quota_rejected = quota_rejected;
    state.prev_ttfa = ttfa_now;
    state.prev_wait = wait_now;
}
