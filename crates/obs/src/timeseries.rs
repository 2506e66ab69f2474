//! Bounded in-process time-series retention.
//!
//! `/metrics` answers "what is the state *now*"; the [`TimeSeriesRing`]
//! answers "what changed over the last five minutes".  A collector thread
//! snapshots a fixed schema of scalar series (cumulative counters, gauges,
//! windowed latency percentiles) on a fixed cadence — default 10 s buckets
//! retained in a 360-slot window, i.e. one hour — and the SLO engine reads
//! windows of those samples on the same thread.  Values are `f64`; `NaN`
//! means "no observation this tick" (e.g. a windowed percentile over an
//! idle interval).

use std::sync::Arc;

use crate::bounded::BoundedRing;

/// One materialized tick of every series in the schema.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSample {
    /// 1-based tick number (total `record` calls when this was written).
    pub seq: u64,
    /// Collector-supplied timestamp in milliseconds.  Any monotone base
    /// works; the service uses wall-clock Unix ms.
    pub at_ms: u64,
    /// Values aligned with [`TimeSeriesRing::schema`]; `NaN` = no data.
    pub values: Vec<f64>,
}

/// A fixed schema of series beside a bounded ring of their samples.
#[derive(Debug)]
pub struct TimeSeriesRing {
    schema: Vec<&'static str>,
    samples: BoundedRing<TimeSample>,
}

impl TimeSeriesRing {
    /// A ring retaining `capacity` ticks (minimum 2) of the given series.
    pub fn new(schema: Vec<&'static str>, capacity: usize) -> Self {
        TimeSeriesRing {
            schema,
            samples: BoundedRing::new(capacity.max(2)),
        }
    }

    /// The series names, in value order.
    pub fn schema(&self) -> &[&'static str] {
        &self.schema
    }

    /// The value index of a series name, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.schema.iter().position(|s| *s == name)
    }

    /// Records one tick.  `values` must match the schema width; the oldest
    /// tick is evicted once the ring is full.  Returns the 1-based tick
    /// number.
    pub fn record(&self, at_ms: u64, values: &[f64]) -> u64 {
        assert_eq!(values.len(), self.schema.len(), "schema width mismatch");
        let values = values.to_vec();
        self.samples
            .push(|seq| Arc::new(TimeSample { seq, at_ms, values }))
    }

    /// The latest tick, if any.
    pub fn latest(&self) -> Option<Arc<TimeSample>> {
        self.samples.read(|samples| samples.back().cloned())
    }

    /// Retained ticks with `at_ms >= now_ms - window_ms`, oldest first.
    pub fn window(&self, window_ms: u64, now_ms: u64) -> Vec<Arc<TimeSample>> {
        let cutoff = now_ms.saturating_sub(window_ms);
        self.samples.read(|samples| {
            samples
                .iter()
                .filter(|s| s.at_ms >= cutoff)
                .cloned()
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> TimeSeriesRing {
        TimeSeriesRing::new(vec!["submitted", "queued", "ttfa_p99_us"], 4)
    }

    /// Every retained tick, oldest first.
    fn all(r: &TimeSeriesRing) -> Vec<Arc<TimeSample>> {
        r.window(u64::MAX, u64::MAX)
    }

    #[test]
    fn records_and_reads_back_in_order() {
        let r = ring();
        assert!(r.latest().is_none());
        r.record(1000, &[1.0, 0.0, 50.0]);
        r.record(2000, &[3.0, 1.0, 60.0]);
        let samples = all(&r);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].seq, 1);
        assert_eq!(samples[1].at_ms, 2000);
        assert_eq!(samples[1].values, vec![3.0, 1.0, 60.0]);
        assert_eq!(r.latest().unwrap().seq, 2);
    }

    #[test]
    fn wraparound_keeps_the_newest_capacity_ticks() {
        let r = ring();
        for i in 0..10u64 {
            r.record(i * 1000, &[i as f64, 0.0, 0.0]);
        }
        let seqs: Vec<u64> = all(&r).iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest first, post-wrap");
    }

    #[test]
    fn window_filters_by_timestamp() {
        let r = TimeSeriesRing::new(vec!["v"], 16);
        for i in 0..5u64 {
            r.record(i * 1000, &[i as f64]);
        }
        let w = r.window(1_500, 4_000);
        assert_eq!(w.len(), 2, "ticks at 3000 and 4000 ms");
        assert_eq!(w[0].at_ms, 3000);
    }
}
