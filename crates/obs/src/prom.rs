//! Prometheus text-format (version 0.0.4) rendering.
//!
//! A tiny writer for the exposition format: `# HELP`/`# TYPE` emitted once
//! per metric family, every line of a family in one group (samples are
//! buffered per family, so a caller may interleave families), label values
//! escaped per the spec, and a duplicate-series guard so a renderer bug can
//! never produce output a scraper would reject.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::time::Duration;

/// A Prometheus text-format (0.0.4) document under construction.
///
/// ```
/// use banks_obs::PromText;
///
/// let mut p = PromText::new();
/// p.counter("banks_queries_submitted_total", "Queries accepted.", 42);
/// p.gauge_labeled(
///     "banks_tenant_executed_total",
///     "Per-tenant executed queries.",
///     &[("tenant", "acme")],
///     7.0,
/// );
/// let text = p.render();
/// assert!(text.contains("# TYPE banks_queries_submitted_total counter"));
/// assert!(text.contains("banks_tenant_executed_total{tenant=\"acme\"} 7"));
/// ```
#[derive(Debug, Default)]
pub struct PromText {
    /// Each family's `# HELP`/`# TYPE` lines and samples, in the order the
    /// families were first seen.
    families: Vec<String>,
    /// Family name → its index in `families`.
    index: HashMap<String, usize>,
    series: BTreeSet<String>,
}

impl PromText {
    /// An empty document.
    pub fn new() -> Self {
        PromText::default()
    }

    /// The index of family `name`, opened with its `# HELP`/`# TYPE` lines
    /// the first time it is seen.
    fn family(&mut self, name: &str, kind: &str, help: &str) -> usize {
        if let Some(&family) = self.index.get(name) {
            return family;
        }
        let family = self.families.len();
        self.families
            .push(format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        self.index.insert(name.to_string(), family);
        family
    }

    /// Appends one `name{labels} value` sample line to `family`.  Duplicate
    /// series (same name + label set) are dropped rather than emitted
    /// twice — Prometheus rejects expositions containing them.
    fn sample(&mut self, family: usize, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut series = name.to_string();
        if !labels.is_empty() {
            series.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    series.push(',');
                }
                let _ = write!(series, "{k}=\"{}\"", escape_label(v));
            }
            series.push('}');
        }
        if !self.series.insert(series.clone()) {
            return;
        }
        let _ = writeln!(self.families[family], "{series} {}", format_value(value));
    }

    /// A label-free counter family with one sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        let family = self.family(name, "counter", help);
        self.sample(family, name, &[], value as f64);
    }

    /// A label-free gauge family with one sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        let family = self.family(name, "gauge", help);
        self.sample(family, name, &[], value);
    }

    /// A labeled counter sample (`# HELP`/`# TYPE` emitted once per family).
    pub fn counter_labeled(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let family = self.family(name, "counter", help);
        self.sample(family, name, labels, value as f64);
    }

    /// A labeled gauge sample (`# HELP`/`# TYPE` emitted once per family).
    pub fn gauge_labeled(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let family = self.family(name, "gauge", help);
        self.sample(family, name, labels, value);
    }

    /// A latency distribution as a Prometheus `summary` in seconds:
    /// quantile samples for p50/p90/p99, plus `_sum` and `_count`.
    /// `name` should end in `_seconds` by convention.
    pub fn summary_seconds(
        &mut self,
        name: &str,
        help: &str,
        count: u64,
        mean: Duration,
        quantiles: &[(&str, Duration)],
    ) {
        let family = self.family(name, "summary", help);
        for (q, d) in quantiles {
            self.sample(family, name, &[("quantile", q)], d.as_secs_f64());
        }
        self.sample(
            family,
            &format!("{name}_sum"),
            &[],
            mean.as_secs_f64() * count as f64,
        );
        self.sample(family, &format!("{name}_count"), &[], count as f64);
    }

    /// The finished exposition text, one group of lines per family.
    /// Prometheus requires the body to end with a newline (or be empty).
    pub fn render(self) -> String {
        self.families.concat()
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_type_emitted_once_per_family() {
        let mut p = PromText::new();
        p.counter_labeled("banks_x_total", "X.", &[("tenant", "a")], 1);
        p.counter_labeled("banks_x_total", "X.", &[("tenant", "b")], 2);
        let text = p.render();
        assert_eq!(text.matches("# HELP banks_x_total").count(), 1);
        assert_eq!(text.matches("# TYPE banks_x_total counter").count(), 1);
        assert!(text.contains("banks_x_total{tenant=\"a\"} 1"));
        assert!(text.contains("banks_x_total{tenant=\"b\"} 2"));
    }

    #[test]
    fn interleaved_families_render_grouped() {
        let mut p = PromText::new();
        for tenant in ["a", "b"] {
            p.counter_labeled("banks_x_total", "X.", &[("tenant", tenant)], 1);
            p.gauge_labeled("banks_y", "Y.", &[("tenant", tenant)], 2.0);
        }
        assert_eq!(
            p.render(),
            "# HELP banks_x_total X.\n# TYPE banks_x_total counter\n\
             banks_x_total{tenant=\"a\"} 1\nbanks_x_total{tenant=\"b\"} 1\n\
             # HELP banks_y Y.\n# TYPE banks_y gauge\n\
             banks_y{tenant=\"a\"} 2\nbanks_y{tenant=\"b\"} 2\n"
        );
    }

    #[test]
    fn duplicate_series_are_dropped() {
        let mut p = PromText::new();
        p.counter("banks_dup_total", "D.", 1);
        p.counter("banks_dup_total", "D.", 99);
        let text = p.render();
        assert_eq!(text.matches("banks_dup_total 1").count(), 1);
        assert!(!text.contains("banks_dup_total 99"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut p = PromText::new();
        p.gauge_labeled("banks_g", "G.", &[("tenant", "a\"b\\c\nd")], 1.0);
        assert!(p.render().contains("{tenant=\"a\\\"b\\\\c\\nd\"}"));
    }

    #[test]
    fn summary_emits_quantiles_sum_and_count() {
        let mut p = PromText::new();
        p.summary_seconds(
            "banks_wait_seconds",
            "Wait.",
            4,
            Duration::from_millis(250),
            &[
                ("0.5", Duration::from_millis(200)),
                ("0.99", Duration::from_millis(900)),
            ],
        );
        let text = p.render();
        assert!(text.contains("# TYPE banks_wait_seconds summary"));
        assert!(text.contains("banks_wait_seconds{quantile=\"0.5\"} 0.2"));
        assert!(text.contains("banks_wait_seconds{quantile=\"0.99\"} 0.9"));
        assert!(text.contains("banks_wait_seconds_sum 1"));
        assert!(text.contains("banks_wait_seconds_count 4"));
    }

    #[test]
    fn values_format_cleanly() {
        assert_eq!(format_value(3.0), "3");
        assert_eq!(format_value(0.25), "0.25");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NAN), "NaN");
    }

    #[test]
    fn document_ends_with_newline() {
        let mut p = PromText::new();
        p.counter("banks_t_total", "T.", 1);
        assert!(p.render().ends_with('\n'));
    }
}
