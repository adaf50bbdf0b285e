//! The wire estimator and the in-process replay agree with the sketch the
//! server answers with, bit for bit.

use std::sync::Arc;
use std::time::Instant;

use ds_core::builder::SketchBuilder;
use ds_core::store::SketchStore;
use ds_est::CardinalityEstimator;
use ds_plan::dp::Optimizer;
use ds_query::generator::{GeneratorConfig, QueryGenerator};
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;
use ds_serve::protocol::format_request;
use ds_serve::{ServeConfig, Server};
use ds_storage::gen::{imdb_database, ImdbConfig};
use perfbench::catalog::ROUNDTRIP_LEDGER;
use perfbench::fixture::SKETCH;
use perfbench::report::Outcome;
use perfbench::serving::same_plan;
use perfbench::trace::Tracer;
use perfbench::wire::{
    connect, estimate_request, replay_parts, ReplayState, Replayer, WireEstimator,
};

#[test]
fn wire_answers_and_plans_equal_the_in_process_sketch() {
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(4)));
    let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(300)
        .epochs(3)
        .sample_size(24)
        .hidden_units(16)
        .max_tables(5)
        .seed(9)
        .build()
        .expect("sketch builds");
    let store = Arc::new(SketchStore::new());
    store.insert(SKETCH, sketch).expect("insert");
    let (served, generation) = store.get_with_generation(SKETCH).expect("stored");
    let server = Server::start(Arc::clone(&db), Arc::clone(&store), ServeConfig::default())
        .expect("server starts");

    // Spans are timed from an epoch that precedes every recorded call.
    let epoch = Instant::now();
    let wire = WireEstimator::new(&db, connect(server.local_addr()).expect("connect"), true);
    let queries = job_light_workload(&db, 1);
    for q in &queries {
        assert_eq!(wire.estimate(q).to_bits(), served.estimate_one(q).to_bits());
        let over_wire = Optimizer::new(&wire).optimize(q);
        let in_process = Optimizer::new(&*served).optimize(q);
        assert!(same_plan(&over_wire, &in_process));
    }
    assert_eq!(wire.failed(), 0);

    // Replaying the recorded calls reproduces every wire answer, and the
    // ledger of a traced request stream adds up to its round trips.
    let calls = wire.take_calls();
    assert!(!calls.is_empty());
    let (cache, batcher) = replay_parts();
    let replayer = Replayer::new(&db, &served, generation, &cache, &batcher);
    let mut tr = Tracer::new(epoch, 0, 1);
    let mut state = ReplayState::default();
    for call in &calls {
        let req = tr.next_id();
        let rt = tr.record(
            "serve.roundtrip",
            0,
            req,
            call.roundtrip.0,
            call.roundtrip.1,
        );
        let line = format_request(&estimate_request(call.sql.clone()));
        replayer.replay(&mut tr, &mut state, &line, &call.response, rt, req);
    }
    assert_eq!(state.mismatches, 0);
    let mut out = Outcome::default();
    perfbench::serving::set_roundtrip_ledger(
        &mut out,
        &tr.into_spans(),
        state.forwarded,
        state.flops,
    );
    assert!(out.problems.is_empty(), "{:?}", out.problems);
    let sum: f64 = ROUNDTRIP_LEDGER.iter().map(|m| out.get(m).unwrap()).sum();
    let roundtrip = out.get("serve.roundtrip_us").unwrap();
    assert!((sum - roundtrip).abs() <= 1e-6 * roundtrip);
    batcher.shutdown();

    // Fresh generated queries, sent as SQL, come back bit-identical too.
    let mut cfg = GeneratorConfig::new(imdb_predicate_columns(&db), 3);
    cfg.max_tables = 4;
    let mut generator = QueryGenerator::new(&db, cfg);
    let mut conn = wire.into_connection();
    for q in generator.generate_batch(200) {
        let resp = conn
            .roundtrip(&estimate_request(to_sql(&db, &q)), true)
            .expect("roundtrip");
        assert_eq!(resp, ds_serve::Response::Estimate(served.estimate_one(&q)));
    }
    drop(conn);
    server.shutdown();
}
