//! # banks-obs
//!
//! The observability kit underneath every BANKS tier: the measurement
//! substrate the paper's whole evaluation (time-to-first-answer, nodes
//! explored per engine) needs in a *running service*, not a benchmark
//! harness.  `std`-only, dependency-free, and designed so the instruments
//! themselves stay off the hot path:
//!
//! * [`Histogram`] — a lock-free log₂-microsecond latency histogram with
//!   [`LatencySummary`] percentiles (p50/p90/p99), generalized from the
//!   service's original queue-wait histogram so one implementation serves
//!   queue wait, TTFA, mutation apply, checkpoint and WAL-fsync latencies;
//! * [`QueryTrace`] / [`TraceSpan`] — one query's phase timeline
//!   (admit → queue → resolve → expand → first-answer → finish);
//! * [`BoundedRing`] — the one bounded retention ring: a mutex-guarded
//!   queue that numbers its items, counts evictions, and wakes blocked
//!   readers on push;
//! * [`TraceRing`] — its use retaining traced and slow queries for
//!   `GET /debug/slow` and `GET /debug/trace/<id>`;
//! * [`CostCalibration`] — an online EMA correction of the a priori cost
//!   model from measured `nodes_explored`, per (engine, origin-size
//!   bucket);
//! * [`PromText`] — a Prometheus text-format (version 0.0.4) writer with
//!   `# HELP`/`# TYPE` bookkeeping and a duplicate-series guard.
//!
//! Beyond measurement, the kit retains and judges:
//!
//! * [`TimeSeriesRing`] — a fixed schema of series beside a bounded ring
//!   of their samples, snapshotted by a collector thread on a fixed
//!   cadence and read in time windows by the SLO engine;
//! * [`SloEngine`] / [`SloSpec`] — declarative objectives judged by
//!   multi-window (5 m / 1 h) burn rate with hysteresis, yielding the
//!   three-state [`Health`] surfaced on `/healthz` and `GET /debug/slo`;
//! * [`EventLog`] / [`Event`] — the ring's use for leveled events with
//!   monotone ids, served as JSON pages and a live SSE tail that honors
//!   `Last-Event-ID`.

#![deny(missing_docs)]

mod bounded;
mod calib;
mod event;
mod hist;
mod prom;
mod slo;
mod timeseries;
mod trace;

pub use bounded::BoundedRing;
pub use calib::{origin_bucket, CalibrationRow, CostCalibration, ORIGIN_BUCKETS};
pub use event::{Event, EventLevel, EventLog};
pub use hist::{Histogram, LatencySummary, HISTOGRAM_BUCKETS};
pub use prom::PromText;
pub use slo::{Health, SloEngine, SloReport, SloRow, SloSpec, SloTransition};
pub use timeseries::{TimeSample, TimeSeriesRing};
pub use trace::{QueryTrace, TraceRing, TraceSpan};
