//! A built sketch carries no thread count: whatever `.threads(n)` it was
//! trained with, serving a batch runs every kernel on the calling thread
//! and answers exactly what a single-threaded build answers. This test
//! lives alone in its own binary because it reads the process-global
//! kernel dispatch counters.

use ds_core::builder::SketchBuilder;
use ds_core::sketch::DeepSketch;
use ds_est::CardinalityEstimator;
use ds_query::query::Query;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};

/// The server's default `max_batch`.
const SERVED_BATCH: usize = 64;
/// Past three 256-query serving chunks, with a ragged tail.
const LARGE_BATCH: usize = 3 * 256 + 7;

fn build(db: &Database, threads: usize) -> DeepSketch {
    SketchBuilder::new(db, imdb_predicate_columns(db))
        .training_queries(200)
        .epochs(3)
        .sample_size(16)
        .hidden_units(32)
        .threads(threads)
        .seed(0x5E1A)
        .build()
        .expect("build sketch")
}

fn batch(queries: &[Query], n: usize) -> Vec<Query> {
    queries.iter().cycle().take(n).cloned().collect()
}

#[test]
fn a_sketch_built_with_threads_serves_serially() {
    let db = imdb_database(&ImdbConfig::tiny(5));
    let queries = job_light_workload(&db, 2);
    let threaded = build(&db, 4);
    let serial = build(&db, 1);

    let obs = ds_obs::global();
    assert!(!obs.is_enabled(), "tracer must start disabled");
    obs.enable();
    for n in [SERVED_BATCH, LARGE_BATCH] {
        let qs = batch(&queries, n);
        let parallel_before = obs.counter_value("nn/dispatch/parallel");
        let serial_before = obs.counter_value("nn/dispatch/serial");
        let got = threaded.try_estimate_batch(&qs);
        assert_eq!(
            obs.counter_value("nn/dispatch/parallel"),
            parallel_before,
            "a {n}-query batch fanned out across kernel threads"
        );
        // The kernels did run, and were counted: the check above is not
        // vacuous.
        assert!(
            obs.counter_value("nn/dispatch/serial") > serial_before,
            "a {n}-query batch dispatched no kernel"
        );
        assert_eq!(got, serial.try_estimate_batch(&qs), "{n}-query batch");
        assert!(got.iter().all(Result::is_ok));
    }
    obs.disable();
}
