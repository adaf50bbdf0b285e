//! The benchmark's names: workloads and metrics, with units, direction
//! and bounds. `BENCHMARK.json` at the repository root states the same
//! catalogue; a test keeps the two identical.

/// A workload and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric: its unit, which direction is better, and for end-to-end
/// metrics the share of the parent's median by which it may worsen.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

pub const WORKLOADS: [WorkloadDef; 2] = [
    WorkloadDef {
        name: "adhoc",
        why: "fresh never-repeating ESTIMATEs over the wire miss the cache, so SQL parse, the batcher and the model forward do the work",
    },
    WorkloadDef {
        name: "planner",
        why: "an optimizer plans JOB-light over the wire with FEEDBACK; repeated sub-plans hit the cache, so wire, protocol, cache and DP dominate",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_rps", "1/s", "higher", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("latency_p99_us", "us", "lower", 0.25),
    e2e("ok_frac", "ratio", "higher", 0.01),
    e2e("define_s", "s", "lower", 0.25),
    e2e("qerror_p50", "ratio", "lower", 0.1),
    e2e("qerror_p95", "ratio", "lower", 0.1),
    e2e("sketch_bytes", "bytes", "lower", 0.05),
    e2e("peak_rss_mb", "MiB", "lower", 0.2),
];

pub const PER_LAYER: [MetricDef; 29] = [
    layer("serve.roundtrip_us", "us", "lower"),
    layer("serve.protocol_us", "us", "lower"),
    layer("query.parse_us", "us", "lower"),
    layer("query.sqlgen_us", "us", "lower"),
    layer("serve.cache_probe_us", "us", "lower"),
    layer("serve.cache_hit_ratio", "ratio", "higher"),
    layer("serve.cache_invalidations", "count", "lower"),
    layer("serve.batcher_us", "us", "lower"),
    layer("serve.mean_batch", "count", "higher"),
    layer("serve.shed", "count", "lower"),
    layer("serve.timeouts", "count", "lower"),
    layer("core.featurize_us", "us", "lower"),
    layer("nn.forward_us", "us", "lower"),
    layer("nn.forward_flops", "flop", "lower"),
    layer("nn.forward_gflops", "GFLOP/s", "higher"),
    layer("core.estimate_batch_us", "us", "lower"),
    layer("core.estimate_us", "us", "lower"),
    layer("serve.unattributed_us", "us", "lower"),
    layer("plan.dp_self_us", "us", "lower"),
    layer("plan.estimates_per_plan", "count", "lower"),
    layer("serve.feedback_roundtrip_us", "us", "lower"),
    layer("storage.sample_generate_s", "s", "lower"),
    layer("storage.execute_s", "s", "lower"),
    layer("storage.execute_queries_per_s", "1/s", "higher"),
    layer("core.train_s", "s", "lower"),
    layer("core.train_rows_per_s", "1/s", "higher"),
    layer("core.freeze_s", "s", "lower"),
    layer("core.serialize_s", "s", "lower"),
    layer("trace.overhead_us", "us", "lower"),
];

/// The per-layer metrics whose self times, with `serve.unattributed_us`,
/// add up to `serve.roundtrip_us` on the serving workloads.
pub const ROUNDTRIP_LEDGER: [&str; 6] = [
    "serve.protocol_us",
    "query.parse_us",
    "serve.cache_probe_us",
    "serve.batcher_us",
    "core.estimate_batch_us",
    "serve.unattributed_us",
];

/// Looks a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
