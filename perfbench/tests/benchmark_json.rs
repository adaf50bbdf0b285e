//! `BENCHMARK.json` states the benchmark's catalogue, and
//! `predictions.json` the expected effect of every per-layer metric;
//! both must match what the code measures.

use std::collections::HashSet;
use std::path::Path;

use perfbench::catalog::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::json::Json;

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark() -> Json {
    load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing {key}"))
}

fn check_metrics(listed: &[Json], defs: &[MetricDef], keys: &[&str]) {
    assert_eq!(listed.len(), defs.len());
    for (m, def) in listed.iter().zip(defs) {
        assert_eq!(m.keys(), keys, "keys of {}", def.name);
        assert_eq!(str_of(m, "name"), def.name);
        assert_eq!(str_of(m, "unit"), def.unit, "unit of {}", def.name);
        assert_eq!(str_of(m, "better"), def.better, "direction of {}", def.name);
        assert_eq!(
            m.get("bound").and_then(Json::as_f64),
            def.bound,
            "bound of {}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let b = benchmark();
    assert_eq!(
        b.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = b
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, def) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(w.keys(), ["name", "why"]);
        assert_eq!(str_of(w, "name"), def.name);
        assert_eq!(str_of(w, "why"), def.why);
    }
    check_metrics(
        b.get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end"),
        &END_TO_END,
        &["name", "unit", "better", "bound"],
    );
    check_metrics(
        b.get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer"),
        &PER_LAYER,
        &["name", "unit", "better"],
    );
    // The contract: set-up time is bounded, and no bound exceeds 25%.
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn every_per_layer_metric_has_exactly_one_prediction_row() {
    let p = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("predictions.json"));
    let rows = p.get("rows").and_then(Json::as_array).expect("rows");
    let workloads: HashSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let e2e: HashSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let mut seen = HashSet::new();
    for row in rows {
        assert!(!str_of(row, "call").is_empty());
        for m in row
            .get("metrics")
            .and_then(Json::as_array)
            .expect("metrics")
        {
            let name = m.as_str().expect("metric name");
            assert!(
                PER_LAYER.iter().any(|d| d.name == name),
                "unknown metric {name}"
            );
            assert!(seen.insert(name), "{name} predicted twice");
        }
        for key in ["moves", "flat"] {
            for pair in row.get(key).and_then(Json::as_array).expect(key) {
                let (w, m) = pair
                    .as_str()
                    .and_then(|s| s.split_once(':'))
                    .expect("workload:metric");
                assert!(workloads.contains(w), "unknown workload {w}");
                assert!(m == "*" || e2e.contains(m), "unknown end-to-end metric {m}");
            }
        }
    }
    for def in &PER_LAYER {
        assert!(
            seen.contains(def.name),
            "{} has no prediction row",
            def.name
        );
    }
}
