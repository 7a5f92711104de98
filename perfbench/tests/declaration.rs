//! `BENCHMARK.json` declares what the benchmark reports; the metric tables
//! and workload list in the code must say the same.

use footprint_perfbench::json::{parse, Value};
use footprint_perfbench::plan::Workload;
use footprint_perfbench::run::{MetricDef, END_TO_END, PER_LAYER};

fn declaration() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

fn declared(v: &Value, section: &str) -> Vec<(String, String, String)> {
    v.get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            (
                field(m, "name").into(),
                field(m, "unit").into(),
                field(m, "better").into(),
            )
        })
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
        .collect()
}

#[test]
fn declared_metrics_match_the_reported_ones() {
    let v = declaration();
    assert_eq!(declared(&v, "end_to_end"), table(&END_TO_END));
    assert_eq!(declared(&v, "per_layer"), table(&PER_LAYER));
}

#[test]
fn declared_workloads_match_the_runnable_ones() {
    let v = declaration();
    let names: Vec<&str> = v
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
