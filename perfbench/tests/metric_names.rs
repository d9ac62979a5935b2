//! The metric and workload names the benchmark prints are the names
//! `BENCHMARK.json` declares, with the same units.

use ghs_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use ghs_perfbench::{Run, WORKLOADS};
use std::collections::BTreeMap;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"key": "value"` strings inside the `[...]` array stored under
/// `section`, in order.
fn field_values(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    let pattern = format!("\"{key}\": \"");
    body.match_indices(&pattern)
        .map(|(i, _)| {
            let rest = &body[i + pattern.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn declared(table: &[(&str, &str)]) -> (Vec<String>, Vec<String>) {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .unzip()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let json = benchmark_json();
    for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let (names, units) = declared(table);
        assert_eq!(
            field_values(&json, section, "name"),
            names,
            "{section} names"
        );
        assert_eq!(
            field_values(&json, section, "unit"),
            units,
            "{section} units"
        );
    }
}

#[test]
fn workloads_match_benchmark_json() {
    assert_eq!(
        field_values(&benchmark_json(), "workloads", "name"),
        WORKLOADS
    );
}

#[test]
fn result_line_prints_every_metric_by_name_and_unit() {
    let run = Run {
        attempted: 3,
        failed: 1,
        ..Run::default()
    };
    let values = BTreeMap::from([("wall_s", 1.5)]);
    let line = result_line(&run, END_TO_END, &values);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {")
    );
    assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(
            line.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing"
        );
    }
}
