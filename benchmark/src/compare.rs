//! `benchmark compare A.json B.json`: applies the bounds in
//! `BENCHMARK.json` to two files of result rows (as `run --workload all`
//! prints them; several run-sets may be concatenated in one file).
//!
//! Per (end-to-end metric, workload): `within` when B's median is no
//! worse than A's by more than the bound, `worse` when it is, and
//! `unresolved` when either side's own spread (interquartile range over
//! median, needs ≥ 4 rows) is wider than the bound — a difference that
//! small cannot be told from noise.

use std::collections::BTreeMap;

use banks_core::json::{self, JsonValue};

use crate::spec::{MetricDef, Spec};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Unresolved,
}

/// (workload, metric) → values, from the untraced rows of a results file.
type Table = BTreeMap<(String, String), Vec<f64>>;

pub fn parse_rows(text: &str) -> Result<Table, String> {
    let mut table = Table::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let row = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let Some(workload) = row.get("workload").and_then(JsonValue::as_str) else {
            return Err(format!("line {}: row without \"workload\"", n + 1));
        };
        let Some(JsonValue::Object(metrics)) = row.get("metrics") else {
            return Err(format!("line {}: row without \"metrics\"", n + 1));
        };
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(JsonValue::as_f64) {
                table
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(table)
}

/// Interquartile range over median; `None` below four values.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut v = values.to_vec();
    stats::sort(&mut v);
    let q = |p: f64| -> f64 {
        // linear interpolation between closest ranks
        let at = p * (v.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
    };
    let median = q(0.5);
    (median != 0.0).then(|| (q(0.75) - q(0.25)) / median.abs())
}

pub fn verdict(metric: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    if spread(a).into_iter().chain(spread(b)).any(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let (Some(a), Some(b)) = (
        stats::median(&mut a.to_vec()),
        stats::median(&mut b.to_vec()),
    ) else {
        return Verdict::Unresolved;
    };
    let worsened = if metric.higher_is_better {
        a - b
    } else {
        b - a
    };
    if worsened > bound * a.abs() {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Prints one line per (metric, workload); `Ok(true)` when every pair is
/// `within`.
pub fn run(spec: &Spec, a_text: &str, b_text: &str) -> Result<bool, String> {
    let (a, b) = (parse_rows(a_text)?, parse_rows(b_text)?);
    let mut all_within = true;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let key = (workload.clone(), metric.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                return Err(format!(
                    "{} on {workload}: missing from a file",
                    metric.name
                ));
            };
            let verdict = verdict(metric, va, vb);
            all_within &= verdict == Verdict::Within;
            let (ma, mb) = (
                stats::median(&mut va.clone()).unwrap_or(f64::NAN),
                stats::median(&mut vb.clone()).unwrap_or(f64::NAN),
            );
            println!(
                "{:<10} {:<16} {:<14} {:>12.4} -> {:>12.4} {:<5} ({:+.1}%, bound {:.0}%, n={}/{})",
                format!("{verdict:?}").to_lowercase(),
                workload,
                metric.name,
                ma,
                mb,
                metric.unit,
                100.0 * (mb - ma) / ma,
                100.0 * metric.bound.unwrap_or(0.0),
                va.len(),
                vb.len(),
            );
        }
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "done_ms_p50".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let m = lower(0.1);
        assert_eq!(verdict(&m, &[100.0], &[109.0]), Verdict::Within);
        assert_eq!(verdict(&m, &[100.0], &[111.0]), Verdict::Worse);
        assert_eq!(verdict(&m, &[100.0], &[50.0]), Verdict::Within);
        let higher = MetricDef {
            higher_is_better: true,
            ..lower(0.1)
        };
        assert_eq!(verdict(&higher, &[100.0], &[89.0]), Verdict::Worse);
        assert_eq!(verdict(&higher, &[100.0], &[120.0]), Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = lower(0.1);
        let noisy = [70.0, 85.0, 100.0, 115.0, 130.0];
        assert_eq!(verdict(&m, &noisy, &[100.0; 5]), Verdict::Unresolved);
        let steady = [99.0, 100.0, 100.0, 101.0, 100.5];
        assert_eq!(verdict(&m, &steady, &[100.0; 5]), Verdict::Within);
    }

    #[test]
    fn rows_group_by_workload_and_metric() {
        let text = "noise\n\
            {\"workload\":\"w\",\"metrics\":{\"qps\":{\"value\":10,\"unit\":\"1/s\"}}}\n\
            {\"workload\":\"w\",\"metrics\":{\"qps\":{\"value\":12,\"unit\":\"1/s\"}}}\n";
        let table = parse_rows(text).unwrap();
        assert_eq!(
            table[&("w".to_string(), "qps".to_string())],
            vec![10.0, 12.0]
        );
    }
}
