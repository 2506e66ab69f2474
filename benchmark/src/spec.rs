//! `BENCHMARK.json`, compiled into the binary: the one place metric and
//! workload names, units, directions and regression bounds are written
//! down.  The runner emits exactly these names; `compare` applies exactly
//! these bounds.

use banks_core::json::{self, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metric_list(root: &JsonValue, key: &str) -> Vec<MetricDef> {
    let Some(JsonValue::Array(items)) = root.get(key) else {
        panic!("BENCHMARK.json: {key} must be an array");
    };
    items
        .iter()
        .map(|item| {
            let text = |field: &str| {
                item.get(field)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without {field}"))
                    .to_string()
            };
            MetricDef {
                name: text("name"),
                unit: text("unit"),
                higher_is_better: text("better") == "higher",
                bound: item.get("bound").and_then(JsonValue::as_f64),
            }
        })
        .collect()
}

impl Spec {
    /// Parses the embedded file.  It is part of the source tree, so a
    /// malformed one is a build defect and panics.
    pub fn load() -> Spec {
        let root = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let Some(JsonValue::Array(workloads)) = root.get("workloads") else {
            panic!("BENCHMARK.json: workloads must be an array");
        };
        Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: workloads
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("BENCHMARK.json: workload name")
                        .to_string()
                })
                .collect(),
            end_to_end: metric_list(&root, "end_to_end"),
            per_layer: metric_list(&root, "per_layer"),
        }
    }

    /// The metrics a run in this mode must emit.
    pub fn emitted(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let spec = Spec::load();
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(String::as_str)
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        for name in &names {
            assert!(well_formed(name), "{name:?} must match [A-Za-z0-9_.-]+");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }

    #[test]
    fn end_to_end_metrics_carry_bounds_and_setup_s() {
        let spec = Spec::load();
        for m in &spec.end_to_end {
            let bound = m
                .bound
                .unwrap_or_else(|| panic!("{} needs a bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    }
}
