//! Declarative SLOs judged by multi-window burn rate.
//!
//! An [`SloSpec`] names a retained time series (see [`TimeSeriesRing`]),
//! an upper bound, and an error budget: the fraction of ticks allowed to
//! violate the bound.  The
//! [`SloEngine`] evaluates every spec over a *fast* and a *slow* window
//! (default 5 min / 1 h, the classic multi-window pair): the **burn rate**
//! of a window is its bad-tick ratio divided by the budget, so burn 1.0
//! means "spending the budget exactly as fast as allowed" and burn 10
//! means the budget disappears in a tenth of the period.
//!
//! Health is three-state: the fast window burning hot marks the SLO
//! `degraded`; both windows burning marks it `breached` (sustained, not a
//! blip); the worst spec is the service's overall health on `/healthz`.
//! Resolution is hysteretic — a degraded SLO only returns to `ok` once the
//! fast burn drops *below* the resolve threshold, not merely below the
//! fire threshold — so health does not flap at the boundary.
//!
//! Evaluation is a pure function of the ring contents and a
//! caller-supplied `now_ms`, which makes the engine fully deterministic
//! under test: feed synthetic ticks with synthetic timestamps, no sleeps.

use std::sync::Mutex;

use crate::timeseries::TimeSeriesRing;

/// Three-state health verdict.  `Ord` ranks by severity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Within objective.
    #[default]
    Ok,
    /// The fast window is burning budget past the fire threshold.
    Degraded,
    /// Both windows are burning: the violation is sustained.
    Breached,
}

impl Health {
    /// The lowercase wire name (`"ok"` / `"degraded"` / `"breached"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Health::Ok => "ok",
            Health::Degraded => "degraded",
            Health::Breached => "breached",
        }
    }
}

/// One declarative objective over a retained series.
///
/// Names and metrics are owned strings so specs can come from operator
/// configuration (a JSON file, `POST /admin/slo`) as well as from the
/// built-in [`SloSpec::defaults`].
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// Short stable name (`"ttfa_p99"`), used in events and metric labels.
    pub name: String,
    /// The time-series schema entry the objective constrains.
    pub metric: String,
    /// Upper bound: a tick violates when `value > threshold`.
    pub threshold: f64,
    /// Error budget: allowed fraction of violating ticks (default 1%).
    pub budget: f64,
    /// Fast evaluation window in ms (default 5 min).
    pub fast_window_ms: u64,
    /// Slow evaluation window in ms (default 1 h).
    pub slow_window_ms: u64,
    /// Burn rate at or above which the SLO fires (default 10).
    pub fire_burn: f64,
    /// Fast burn rate at or below which a fired SLO resolves (default 1).
    pub resolve_burn: f64,
}

impl SloSpec {
    /// An upper-bound objective with the default windows and burn
    /// thresholds: 1% budget, 5 m / 1 h windows, fire ≥ 10, resolve ≤ 1.
    pub fn upper_bound(name: impl Into<String>, metric: impl Into<String>, threshold: f64) -> Self {
        SloSpec {
            name: name.into(),
            metric: metric.into(),
            threshold,
            budget: 0.01,
            fast_window_ms: 5 * 60 * 1000,
            slow_window_ms: 60 * 60 * 1000,
            fire_burn: 10.0,
            resolve_burn: 1.0,
        }
    }

    /// Overrides both evaluation windows (test cadences shrink these).
    pub fn with_windows(mut self, fast_ms: u64, slow_ms: u64) -> Self {
        self.fast_window_ms = fast_ms;
        self.slow_window_ms = slow_ms;
        self
    }

    /// Overrides the fire/resolve burn thresholds.
    pub fn with_burns(mut self, fire: f64, resolve: f64) -> Self {
        self.fire_burn = fire;
        self.resolve_burn = resolve;
        self
    }

    /// The stock objectives the service ships with: `ttfa_p99 < 250 ms`,
    /// `error_ratio < 1%` and `queue_wait_p90 < 50 ms`.
    pub fn defaults() -> Vec<SloSpec> {
        vec![
            SloSpec::upper_bound("ttfa_p99", "ttfa_p99_us", 250_000.0),
            SloSpec::upper_bound("error_ratio", "error_ratio", 0.01),
            SloSpec::upper_bound("queue_wait_p90", "queue_wait_p90_us", 50_000.0),
        ]
    }

    /// The replication objective a follower adds on top of the defaults:
    /// applied-epoch lag behind the leader stays under 5 s.  The metric is
    /// the `replication_lag_ms` series the follower's collector feeds.
    pub fn replication_lag() -> Self {
        SloSpec::upper_bound("replication_lag", "replication_lag_ms", 5_000.0)
    }
}

/// The evaluated state of one spec, as served on `GET /debug/slo` and
/// exported as `banks_slo_*` gauges.
#[derive(Clone, Debug, PartialEq)]
pub struct SloRow {
    /// Spec name.
    pub name: String,
    /// Constrained series.
    pub metric: String,
    /// Upper bound.
    pub threshold: f64,
    /// Latest finite sample of the series (`NaN` when the window is idle).
    pub value: f64,
    /// Burn rate over the fast window.
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// Current (hysteretic) verdict for this spec.
    pub state: Health,
}

/// A state change produced by one evaluation, for the event log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloTransition {
    /// Spec name.
    pub slo: String,
    /// Verdict before this evaluation.
    pub from: Health,
    /// Verdict after.
    pub to: Health,
}

/// The full verdict of one evaluation pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloReport {
    /// Worst spec state — the service's overall health.
    pub health: Health,
    /// Per-spec rows, in spec order.
    pub rows: Vec<SloRow>,
}

/// Evaluates a set of [`SloSpec`]s against a [`TimeSeriesRing`], keeping
/// per-spec hysteretic state between passes.
///
/// The spec set itself is behind the same lock as the states so operators
/// can swap objectives at runtime ([`SloEngine::replace_specs`]) without
/// an evaluation pass observing half an update.
#[derive(Debug)]
pub struct SloEngine {
    inner: Mutex<EngineState>,
}

#[derive(Debug)]
struct EngineState {
    specs: Vec<SloSpec>,
    states: Vec<Health>,
}

impl SloEngine {
    /// An engine over `specs`, all starting `ok`.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let states = vec![Health::Ok; specs.len()];
        SloEngine {
            inner: Mutex::new(EngineState { specs, states }),
        }
    }

    /// A copy of the configured specs.
    pub fn specs(&self) -> Vec<SloSpec> {
        self.inner.lock().unwrap().specs.clone()
    }

    /// Replaces the whole spec set.  All hysteretic states restart at
    /// `ok` — the old burn history does not carry meaning for objectives
    /// with different thresholds or windows.
    pub fn replace_specs(&self, specs: Vec<SloSpec>) {
        let mut inner = self.inner.lock().unwrap();
        inner.states = vec![Health::Ok; specs.len()];
        inner.specs = specs;
    }

    /// Appends one spec (dropping any existing spec with the same name
    /// first); its state starts at `ok`, others keep their history.
    pub fn upsert_spec(&self, spec: SloSpec) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(i) = inner.specs.iter().position(|s| s.name == spec.name) {
            inner.specs.remove(i);
            inner.states.remove(i);
        }
        inner.specs.push(spec);
        inner.states.push(Health::Ok);
    }

    /// The current health without re-evaluating.
    pub fn health(&self) -> Health {
        self.inner
            .lock()
            .unwrap()
            .states
            .iter()
            .copied()
            .max()
            .unwrap_or(Health::Ok)
    }

    /// One evaluation pass at `now_ms`.  Updates the per-spec states and
    /// returns the report plus every state transition this pass caused.
    pub fn evaluate(&self, ring: &TimeSeriesRing, now_ms: u64) -> (SloReport, Vec<SloTransition>) {
        let inner = &mut *self.inner.lock().unwrap();
        let mut rows = Vec::with_capacity(inner.specs.len());
        let mut transitions = Vec::new();
        for (spec, state) in inner.specs.iter().zip(inner.states.iter_mut()) {
            let (burn_fast, value) = burn_over(ring, spec, spec.fast_window_ms, now_ms);
            let (burn_slow, _) = burn_over(ring, spec, spec.slow_window_ms, now_ms);
            let candidate = if burn_fast >= spec.fire_burn && burn_slow >= spec.fire_burn {
                Health::Breached
            } else if burn_fast >= spec.fire_burn {
                Health::Degraded
            } else {
                Health::Ok
            };
            // Hysteresis: improvement requires the fast burn to actually
            // cool past the resolve threshold, not just dip under fire.
            let next = if candidate < *state && burn_fast > spec.resolve_burn {
                *state
            } else {
                candidate
            };
            if next != *state {
                transitions.push(SloTransition {
                    slo: spec.name.clone(),
                    from: *state,
                    to: next,
                });
                *state = next;
            }
            rows.push(SloRow {
                name: spec.name.clone(),
                metric: spec.metric.clone(),
                threshold: spec.threshold,
                value,
                burn_fast,
                burn_slow,
                state: next,
            });
        }
        let health = inner.states.iter().copied().max().unwrap_or(Health::Ok);
        (SloReport { health, rows }, transitions)
    }
}

/// Burn rate of `spec` over one window, plus the latest finite value seen
/// (NaN when the window holds no finite samples).  Idle windows burn 0.
fn burn_over(ring: &TimeSeriesRing, spec: &SloSpec, window_ms: u64, now_ms: u64) -> (f64, f64) {
    let idx = match ring.index_of(&spec.metric) {
        Some(i) => i,
        None => return (0.0, f64::NAN),
    };
    let mut total = 0u64;
    let mut bad = 0u64;
    let mut latest = f64::NAN;
    for sample in ring.window(window_ms, now_ms) {
        let v = sample.values[idx];
        if !v.is_finite() {
            continue;
        }
        total += 1;
        if v > spec.threshold {
            bad += 1;
        }
        latest = v;
    }
    if total == 0 {
        return (0.0, latest);
    }
    let bad_ratio = bad as f64 / total as f64;
    (bad_ratio / spec.budget.max(1e-9), latest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        // 1 s fast / 10 s slow windows, fire at burn 10 (≥10% bad ticks
        // with the 1% budget), resolve at burn ≤ 1.
        SloSpec::upper_bound("ttfa_p99", "ttfa_p99_us", 100.0).with_windows(1_000, 10_000)
    }

    fn ring() -> TimeSeriesRing {
        TimeSeriesRing::new(vec!["ttfa_p99_us"], 256)
    }

    #[test]
    fn quiet_series_stays_ok() {
        let engine = SloEngine::new(vec![spec()]);
        let r = ring();
        for i in 0..20u64 {
            r.record(i * 100, &[50.0]);
        }
        let (report, transitions) = engine.evaluate(&r, 2_000);
        assert_eq!(report.health, Health::Ok);
        assert_eq!(report.rows[0].state, Health::Ok);
        assert_eq!(report.rows[0].value, 50.0);
        assert!(transitions.is_empty());
    }

    #[test]
    fn empty_ring_is_ok_not_breached() {
        let engine = SloEngine::new(vec![spec()]);
        let (report, transitions) = engine.evaluate(&ring(), 1_000_000);
        assert_eq!(report.health, Health::Ok);
        assert_eq!(report.rows[0].burn_fast, 0.0);
        assert!(report.rows[0].value.is_nan());
        assert!(transitions.is_empty());
    }

    #[test]
    fn fast_only_burn_degrades_sustained_burn_breaches() {
        let engine = SloEngine::new(vec![spec()]);
        let r = ring();
        // 9 s of good history, then 1 s of violations: the fast window is
        // 100% bad but the slow window is ~10% bad — burn_fast 100 fires,
        // burn_slow 10 also fires... use a longer good history so the slow
        // window stays under fire: 95 good ticks, 5 bad = 5% bad, burn 5.
        for i in 0..95u64 {
            r.record(i * 100, &[50.0]);
        }
        for i in 95..100u64 {
            r.record(i * 100, &[500.0]);
        }
        let now = 100 * 100;
        let (report, transitions) = engine.evaluate(&r, now);
        assert_eq!(report.health, Health::Degraded);
        assert!(report.rows[0].burn_fast >= 10.0);
        assert!(report.rows[0].burn_slow < 10.0);
        assert_eq!(
            transitions,
            vec![SloTransition {
                slo: "ttfa_p99".to_string(),
                from: Health::Ok,
                to: Health::Degraded
            }]
        );

        // Keep violating long enough for the slow window to burn too.
        for i in 100..200u64 {
            r.record(i * 100, &[500.0]);
        }
        let (report, transitions) = engine.evaluate(&r, 200 * 100);
        assert_eq!(report.health, Health::Breached);
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].to, Health::Breached);
    }

    #[test]
    fn resolution_is_hysteretic() {
        let engine = SloEngine::new(vec![spec()]);
        let r = ring();
        for i in 0..20u64 {
            r.record(i * 100, &[500.0]);
        }
        let (report, _) = engine.evaluate(&r, 2_000);
        assert_eq!(report.health, Health::Breached);

        // Mixed ticks: fast burn drops under fire (10) but stays over
        // resolve (1) — 1 bad of 10 fast ticks = burn 10... make it 0 bad
        // in fast but 2 bad lingering in slow: still must resolve only via
        // fast. First: fast window half bad → burn 50, holds.
        for i in 20..30u64 {
            r.record(i * 100, &[if i % 2 == 0 { 500.0 } else { 50.0 }]);
        }
        let (report, transitions) = engine.evaluate(&r, 3_000);
        assert_eq!(report.rows[0].state, Health::Breached, "burn still hot");
        assert!(transitions.is_empty());

        // Fully clean fast window: burn_fast 0 ≤ resolve → back to ok.
        for i in 30..45u64 {
            r.record(i * 100, &[50.0]);
        }
        let (report, transitions) = engine.evaluate(&r, 4_400);
        assert_eq!(report.health, Health::Ok);
        assert_eq!(
            transitions,
            vec![SloTransition {
                slo: "ttfa_p99".to_string(),
                from: Health::Breached,
                to: Health::Ok
            }]
        );
    }

    #[test]
    fn idle_ticks_do_not_count_against_the_budget() {
        let engine = SloEngine::new(vec![spec()]);
        let r = ring();
        for i in 0..5u64 {
            r.record(i * 100, &[500.0]);
        }
        // Load stops: the collector keeps ticking NaN (no observations).
        for i in 5..60u64 {
            r.record(i * 100, &[f64::NAN]);
        }
        // Fast window (1 s) holds only NaN ticks → burn 0 → never fires.
        let (report, _) = engine.evaluate(&r, 6_000);
        assert_eq!(report.health, Health::Ok);
        assert!(report.rows[0].value.is_nan());
    }

    #[test]
    fn overall_health_is_the_worst_spec() {
        let good = SloSpec::upper_bound("errs", "error_ratio", 0.5).with_windows(1_000, 10_000);
        let engine = SloEngine::new(vec![spec(), good]);
        let r = TimeSeriesRing::new(vec!["ttfa_p99_us", "error_ratio"], 256);
        for i in 0..20u64 {
            r.record(i * 100, &[500.0, 0.0]);
        }
        let (report, transitions) = engine.evaluate(&r, 2_000);
        assert_eq!(report.health, Health::Breached);
        assert_eq!(report.rows[1].state, Health::Ok);
        assert_eq!(transitions.len(), 1);
        assert_eq!(engine.health(), Health::Breached);
    }

    #[test]
    fn replace_and_upsert_swap_specs_and_reset_state() {
        let engine = SloEngine::new(vec![spec()]);
        let r = ring();
        for i in 0..20u64 {
            r.record(i * 100, &[500.0]);
        }
        let (report, _) = engine.evaluate(&r, 2_000);
        assert_eq!(report.health, Health::Breached);

        // Same metric, looser bound: states restart ok and stay there.
        engine.replace_specs(vec![SloSpec::upper_bound(
            "ttfa_p99",
            "ttfa_p99_us",
            1_000.0,
        )
        .with_windows(1_000, 10_000)]);
        assert_eq!(engine.health(), Health::Ok);
        let (report, transitions) = engine.evaluate(&r, 2_000);
        assert_eq!(report.health, Health::Ok);
        assert!(transitions.is_empty());

        // Upsert replaces by name without disturbing other specs.
        engine.upsert_spec(SloSpec::replication_lag());
        engine.upsert_spec(SloSpec::upper_bound("ttfa_p99", "ttfa_p99_us", 2_000.0));
        let specs = engine.specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "replication_lag");
        assert_eq!(specs[1].threshold, 2_000.0);
    }

    #[test]
    fn default_specs_cover_the_stock_objectives() {
        let specs = SloSpec::defaults();
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["ttfa_p99", "error_ratio", "queue_wait_p90"]);
        for s in &specs {
            assert_eq!(s.fast_window_ms, 300_000);
            assert_eq!(s.slow_window_ms, 3_600_000);
            assert!(s.fire_burn > s.resolve_burn);
        }
    }
}
