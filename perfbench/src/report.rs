//! What one run produces: the correctness verdict, request counts, the
//! metric values, and the detail (sample counts, host noise, spans) kept
//! beside them.

use std::collections::BTreeMap;

use crate::catalog::{metric, END_TO_END, PER_LAYER};
use crate::fixture::BuildTimeline;
use crate::json::Json;
use crate::quiet::{describe, StealLog, Timed};
use crate::stats::{median, Percentiles};
use crate::trace::Span;

/// The median latency (µs) of the operations that started in each second
/// of the phase, so drift of the host within a run shows in the record.
fn p50_by_second(ops: &[Timed]) -> Vec<Json> {
    let mut by_second: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for op in ops {
        by_second
            .entry(op.start / 1_000_000_000)
            .or_default()
            .push(op.us());
    }
    by_second
        .values()
        .filter_map(|v| median(v))
        .map(Json::from)
        .collect()
}

/// Settings of one run, from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks; empty means correct.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    detail: Vec<(String, Json)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Sets a catalogued metric.
    ///
    /// # Panics
    /// Panics on a name the catalogue does not define.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = metric(name).unwrap_or_else(|| panic!("uncatalogued metric {name}"));
        self.metrics.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Keeps a named piece of detail for the result file.
    pub fn detail(&mut self, key: &str, value: impl Into<Json>) {
        self.detail.push((key.to_string(), value.into()));
    }

    /// Sets `latency_p50_us`/`latency_p99_us` from exact samples (µs) and
    /// keeps their sample count and the percentile the tail really is.
    fn set_latency(&mut self, samples_us: &[f64]) {
        match crate::stats::percentiles(samples_us) {
            Some(Percentiles {
                count,
                p50,
                high_quantile,
                high,
            }) => {
                self.set("latency_p50_us", p50);
                self.set("latency_p99_us", high);
                self.detail(
                    "latency",
                    Json::obj()
                        .with("samples", count)
                        .with("p50_us", p50)
                        .with("high_quantile", high_quantile)
                        .with("high_us", high),
                );
            }
            None => self.problems.push(format!(
                "only {} latency samples; a tail percentile needs more",
                samples_us.len()
            )),
        }
    }

    /// Sets the latency percentiles of a timed phase over the operations
    /// that ran in quiet windows (see [`crate::quiet`]); the raw figures
    /// and the steal correction go to the detail.
    pub fn set_timed_latency(&mut self, ops: &[Timed], steal: &StealLog) {
        let quiet = steal.quiet(ops);
        let kept: Vec<f64> = quiet.filter(ops).into_iter().map(Timed::us).collect();
        self.set_latency(&kept);
        let mut d = describe(ops, steal, &quiet);
        let all: Vec<f64> = ops.iter().map(Timed::us).collect();
        if let Some(p) = crate::stats::percentiles(&all) {
            d.push("raw_p50_us", p.p50);
            d.push("raw_high_us", p.high);
        }
        self.detail("steal", d);
        self.detail("p50_us_by_second", p50_by_second(ops));
    }

    /// Sets `qerror_p50`/`qerror_p95` from per-query q-errors.
    pub fn set_qerrors(&mut self, qerrors: &[f64]) {
        if let (Some(p50), Some(p95)) = (
            crate::stats::quantile(qerrors, 500),
            crate::stats::quantile(qerrors, 950),
        ) {
            self.set("qerror_p50", p50);
            self.set("qerror_p95", p95);
            self.detail("qerror_queries", qerrors.len());
        } else {
            self.problems.push("no q-errors were computed".to_string());
        }
    }

    /// Sets the build-step layer metrics from the medians over `builds`,
    /// and `define_s` from their times net of host steal.
    pub fn set_builds(&mut self, builds: &[BuildTimeline], serialize_s: &[f64]) {
        let med = |f: &dyn Fn(&BuildTimeline) -> f64| {
            median(&builds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        self.set("define_s", med(&|b| b.net_s()));
        self.set("storage.sample_generate_s", med(&|b| b.sample_generate_s()));
        self.set("storage.execute_s", med(&|b| b.execute_s()));
        self.set(
            "storage.execute_queries_per_s",
            med(&|b| b.labels as f64 / b.execute_s()),
        );
        self.set("core.train_s", med(&|b| b.train_s()));
        self.set(
            "core.train_rows_per_s",
            med(&|b| b.train_rows / b.train_s()),
        );
        self.set("core.freeze_s", med(&|b| b.freeze_s()));
        self.set("core.serialize_s", median(serialize_s).unwrap_or(0.0));
        self.detail(
            "builds",
            builds
                .iter()
                .map(|b| {
                    Json::obj()
                        .with("seconds", b.total_s())
                        .with("net_s", b.net_s())
                        .with("steal_jiffies", b.steal_jiffies)
                        .with("cpu_s", b.cpu_s)
                })
                .collect::<Vec<_>>(),
        );
    }

    /// The final result line: `correct`, `attempted`, `failed` and every
    /// metric of the requested kind with its unit.
    ///
    /// # Panics
    /// Panics when an end-to-end metric was never set — every workload
    /// defines all of them.
    pub fn result_line(&self, trace: bool) -> Json {
        let mut metrics = Json::obj();
        if trace {
            for def in &PER_LAYER {
                let v = self.get(def.name).unwrap_or(0.0);
                metrics.push(
                    def.name,
                    Json::obj().with("value", v).with("unit", def.unit),
                );
            }
        } else {
            for def in &END_TO_END {
                let v = self
                    .get(def.name)
                    .unwrap_or_else(|| panic!("workload did not set {}", def.name));
                metrics.push(
                    def.name,
                    Json::obj().with("value", v).with("unit", def.unit),
                );
            }
        }
        Json::obj()
            .with("correct", self.problems.is_empty())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// Per-layer metrics this workload does not exercise (reported as 0).
    pub fn not_exercised(&self) -> Vec<Json> {
        PER_LAYER
            .iter()
            .filter(|d| self.get(d.name).is_none())
            .map(|d| Json::from(d.name))
            .collect()
    }

    /// Everything else the run recorded, for the result file.
    pub fn detail_json(&self) -> Json {
        let mut all = Json::obj();
        for (k, v) in &self.detail {
            all.push(k, v.clone());
        }
        let mut values = Json::obj();
        for (k, v) in &self.metrics {
            values.push(k, *v);
        }
        all.push("all_metrics", values);
        all.push(
            "problems",
            self.problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect::<Vec<_>>(),
        );
        all
    }
}
