//! End-to-end tests for the serving front end: a real `DeepSketch` behind a
//! real TCP server, hammered by concurrent clients.

use std::sync::Arc;
use std::time::Duration;

use ds_core::store::SketchStore;
use ds_query::parser::parse_query;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::{Connection, ErrorCode, Response, ServeConfig, Server};
use ds_storage::gen::{imdb_database, ImdbConfig};

mod common;

use common::{fixture, tiny_sketch};

const WORKLOAD: &[&str] = &[
    "SELECT COUNT(*) FROM title",
    "SELECT COUNT(*) FROM title WHERE title.kind_id = 1",
    "SELECT COUNT(*) FROM title WHERE title.production_year > 1990",
    "SELECT COUNT(*) FROM title WHERE title.production_year > 2000",
    "SELECT COUNT(*) FROM title t, movie_keyword mk \
     WHERE mk.movie_id = t.id AND mk.keyword_id = 11",
    "SELECT COUNT(*) FROM title t, movie_keyword mk \
     WHERE mk.movie_id = t.id AND t.production_year > 1995",
];

/// The tentpole guarantee: 64 concurrent clients, coalesced on the server,
/// every answer bit-identical to a local per-query `estimate_one`.
#[test]
fn concurrent_coalesced_estimates_match_estimate_one() {
    let (db, store) = fixture();
    let sketch = store.get("imdb").unwrap();
    let expected: Vec<f64> = WORKLOAD
        .iter()
        .map(|sql| sketch.estimate_one(&parse_query(&db, sql).unwrap()))
        .collect();

    let server = Server::start(
        Arc::clone(&db),
        Arc::clone(&store),
        ServeConfig::builder()
            .workers(4)
            .max_batch(32)
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..64)
            .map(|i| {
                let expected = &expected;
                s.spawn(move || {
                    let mut client =
                        Connection::connect_timeout(addr, Duration::from_secs(60)).unwrap();
                    // Each client walks the workload from a different offset
                    // so distinct queries are in flight simultaneously.
                    for k in 0..WORKLOAD.len() {
                        let j = (i + k) % WORKLOAD.len();
                        let got = client.estimate_value("imdb", WORKLOAD[j]).unwrap();
                        assert_eq!(
                            got.to_bits(),
                            expected[j].to_bits(),
                            "client {i} query {j}: {got} != {}",
                            expected[j]
                        );
                    }
                    client.quit().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let snap = server.shutdown();
    assert_eq!(snap.ok, 64 * WORKLOAD.len() as u64);
    assert_eq!(snap.errors, 0);
    // With 64 clients against 4 workers, coalescing must have kicked in:
    // strictly fewer forward passes than requests.
    assert!(snap.batches > 0);
    assert!(
        snap.batches < snap.ok,
        "no coalescing: {} batches for {} requests",
        snap.batches,
        snap.ok
    );
    assert!(snap.max_batch > 1);
}

#[test]
fn protocol_commands_and_typed_errors() {
    let (db, store) = fixture();
    let server = Server::start(db, store, ServeConfig::default()).unwrap();
    let mut c = Connection::connect_timeout(server.local_addr(), Duration::from_secs(10)).unwrap();

    // LIST names the sketch and its status.
    match c.list().unwrap() {
        Response::Text(t) => assert!(t.contains("imdb=Ready"), "{t}"),
        other => panic!("{other:?}"),
    }
    // INFO returns the summary card.
    match c.info("imdb").unwrap() {
        Response::Text(t) => assert!(!t.is_empty()),
        other => panic!("{other:?}"),
    }
    // METRICS is parseable key=value.
    match c.metrics().unwrap() {
        Response::Text(t) => assert!(t.contains("requests=") && t.contains("p99_us="), "{t}"),
        other => panic!("{other:?}"),
    }

    // Typed errors, one per failure class — and the connection survives
    // every one of them.
    match c.estimate("nope", "SELECT COUNT(*) FROM title").unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSketch),
        other => panic!("{other:?}"),
    }
    match c
        .estimate("imdb", "SELECT COUNT(*) FROM bogus_table")
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Parse),
        other => panic!("{other:?}"),
    }
    match c.info("nope").unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSketch),
        other => panic!("{other:?}"),
    }
    for raw in ["FROBNICATE", "ESTIMATE", "ESTIMATE imdb", "INFO", "???"] {
        let line = c.send_raw(raw).unwrap();
        assert!(line.starts_with("ERR proto "), "{raw:?} -> {line}");
    }
    // Still alive after all that abuse.
    match c.estimate("imdb", "SELECT COUNT(*) FROM title").unwrap() {
        Response::Estimate(v) => assert!(v.is_finite() && v >= 1.0),
        other => panic!("{other:?}"),
    }
    c.quit().unwrap();
    let snap = server.shutdown();
    assert!(snap.errors >= 8);
}

/// A zero-length deadline forces every request down the timeout path; the
/// server answers `ERR timeout` instead of hanging or panicking.
#[test]
fn zero_deadline_requests_time_out_cleanly() {
    let (db, store) = fixture();
    let server = Server::start(
        db,
        store,
        ServeConfig::builder()
            .request_timeout(Duration::from_nanos(1))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Connection::connect_timeout(server.local_addr(), Duration::from_secs(10)).unwrap();
    match c.estimate("imdb", "SELECT COUNT(*) FROM title").unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Timeout),
        other => panic!("{other:?}"),
    }
    c.quit().unwrap();
    let snap = server.shutdown();
    assert_eq!(snap.timeouts, 1);
    assert_eq!(snap.ok, 0);
}

/// Beyond `max_connections`, new connections get one `BUSY` line.
#[test]
fn connection_cap_sheds_with_busy() {
    let (db, store) = fixture();
    let server = Server::start(
        db,
        store,
        ServeConfig::builder().max_connections(2).build().unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();
    let a = Connection::connect_timeout(addr, Duration::from_secs(10)).unwrap();
    let b = Connection::connect_timeout(addr, Duration::from_secs(10)).unwrap();
    // The two admitted connections occupy the cap; the third is shed. Give
    // the acceptor a moment to register both.
    std::thread::sleep(Duration::from_millis(100));
    let mut shed = Connection::connect_timeout(addr, Duration::from_secs(10)).unwrap();
    let line = shed
        .send_raw("LIST")
        .unwrap_or_else(|e| format!("ERR io {e}"));
    assert!(
        line.starts_with("BUSY") || line.starts_with("ERR io"),
        "expected shed, got {line}"
    );
    drop(a);
    drop(b);
    let snap = server.shutdown();
    assert!(snap.shed >= 1);
}

/// The store stays consistent under concurrent insert/estimate/remove from
/// many threads (the serving scenario: queries racing retraining swaps).
#[test]
fn sketch_store_survives_concurrent_mutation() {
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(11)));
    let store = Arc::new(SketchStore::new());
    store.insert("stable", tiny_sketch(&db, 1)).unwrap();
    let churn_sketch = tiny_sketch(&db, 2);
    let q = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();

    std::thread::scope(|s| {
        // Readers hammer the stable sketch and the churning one.
        for _ in 0..4 {
            let store = Arc::clone(&store);
            let q = q.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    assert!(store.estimate("stable", &q).unwrap() >= 1.0);
                    // "churn" may or may not exist right now — either a
                    // value or a typed error, never a panic.
                    match store.estimate("churn", &q) {
                        Ok(v) => assert!(v >= 1.0),
                        Err(e) => {
                            let _ = e.to_string();
                        }
                    }
                    let _ = store.list();
                }
            });
        }
        // One writer inserts and removes "churn" in a loop.
        let store2 = Arc::clone(&store);
        s.spawn(move || {
            for _ in 0..50 {
                let _ = store2.insert("churn", churn_sketch.clone());
                std::thread::yield_now();
                store2.remove("churn");
            }
        });
    });
    assert!(store.estimate("stable", &q).unwrap() >= 1.0);
}

/// The observability surface end to end: STATS exposition, TRACE stage
/// decomposition, typed client accessors, and the FEEDBACK ↔ ESTIMATE
/// bit-identity.
#[test]
fn stats_trace_and_feedback_expose_the_request_timeline() {
    let (db, store) = fixture();
    let server = Server::start(
        Arc::clone(&db),
        Arc::clone(&store),
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            // Keep every request as a TRACE exemplar.
            .slow_threshold(Duration::ZERO)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Connection::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    // FEEDBACK answers through the same batcher path as ESTIMATE: the
    // returned estimate is bit-identical.
    let joined = WORKLOAD[4];
    let est = c.estimate_value("imdb", joined).unwrap();
    let fed = c.feedback_value("imdb", 123, joined).unwrap();
    assert_eq!(est.to_bits(), fed.to_bits());
    for sql in WORKLOAD {
        c.estimate_value("imdb", sql).unwrap();
    }
    let answered = 2 + WORKLOAD.len() as u64;

    // Typed METRICS and INFO.
    let snap = c.metrics_snapshot().unwrap();
    assert_eq!(snap.ok, answered);
    assert_eq!(snap.errors, 0);
    let card = c.info_card("imdb").unwrap();
    assert_eq!(card.tables, 6);
    assert!(card.model_params > 0 && card.footprint_mib > 0.0);

    // STATS: the Prometheus exposition carries the counters, the stage
    // summaries, and the feedback monitor's rolling q-error histogram.
    let samples = c.stats().unwrap();
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .unwrap_or_else(|| panic!("missing sample {name}"))
    };
    assert_eq!(value("ds_serve_ok"), answered as f64);
    assert!(value("ds_serve_requests") >= answered as f64);
    for stage in ["parse", "queue", "batch_wait", "forward", "write"] {
        let count = value(&format!("ds_serve_stage_{stage}_us_count"));
        assert_eq!(count, answered as f64, "stage {stage}");
    }
    assert!(samples.iter().any(|s| {
        s.name == "ds_serve_stage_forward_us"
            && s.labels.iter().any(|(k, v)| k == "quantile" && v == "0.95")
    }));
    assert_eq!(value("ds_feedback_imdb_qerror_scaled_count"), 1.0);

    // TRACE: every exemplar's stages sum to its wall time within 5%
    // (plus sub-µs truncation slack per stage).
    let traces = c.trace().unwrap();
    assert_eq!(traces.len(), answered as usize);
    for t in &traces {
        assert_eq!(t.sketch, "imdb");
        assert!(!t.template.is_empty());
        let diff = t.stage_sum_us().abs_diff(t.total_us) as f64;
        assert!(
            diff <= 0.05 * t.total_us as f64 + 6.0,
            "stages {} vs total {} in {t:?}",
            t.stage_sum_us(),
            t.total_us
        );
    }
    // Templates are structural: the joined query names both tables and
    // elides literals.
    let tpl = &traces
        .iter()
        .find(|t| t.template.contains("movie_keyword"))
        .expect("joined-query exemplar")
        .template;
    assert!(
        tpl.contains("title") && tpl.contains('?') && !tpl.contains('1'),
        "{tpl}"
    );

    c.quit().unwrap();
    server.shutdown();
}

/// Timelines can be switched off entirely — the baseline side of the
/// traced-overhead budget — without touching the wire responses.
#[test]
fn timeline_off_serves_identically_but_records_no_stages() {
    let (db, store) = fixture();
    let server = Server::start(
        db,
        store,
        ServeConfig::builder()
            .timeline(false)
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Connection::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    assert!(c.estimate_value("imdb", WORKLOAD[0]).unwrap() >= 1.0);
    assert!(c.trace().unwrap().is_empty());
    let samples = c.stats().unwrap();
    let forward_count = samples
        .iter()
        .find(|s| s.name == "ds_serve_stage_forward_us_count")
        .map(|s| s.value);
    assert_eq!(forward_count, Some(0.0));
    // FEEDBACK still grades the estimate — the monitor works without
    // timelines.
    c.feedback_value("imdb", 50, WORKLOAD[1]).unwrap();
    assert_eq!(server.monitors().get("imdb").unwrap().samples(), 1);
    c.quit().unwrap();
    server.shutdown();
}

/// Satellite 3: replaying FEEDBACK with actuals from a shifted-skew,
/// grown database drives the rolling q-error window away from the
/// training-time holdout baseline and raises the staleness signal; the
/// same replay with stationary actuals stays silent.
#[test]
fn injected_drift_fires_and_stationary_feedback_stays_silent() {
    use ds_core::advisor::recommend_retraining;
    use ds_core::maintain::{accuracy_drift, DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES};
    use ds_est::oracle::TrueCardinalityOracle;
    use ds_query::sqlgen::to_sql;
    use ds_query::{GeneratorConfig, QueryGenerator};

    let db = Arc::new(imdb_database(&ImdbConfig::tiny(42)));
    let store = Arc::new(SketchStore::new());
    store.insert("imdb", tiny_sketch(&db, 7)).unwrap();
    let sketch = store.get("imdb").unwrap();
    let baseline = sketch
        .baseline()
        .expect("builder attaches the holdout baseline")
        .clone();

    // Feedback queries drawn from the same uniform generator family the
    // builder trains on, so a stationary replay matches the holdout.
    let mut generator =
        QueryGenerator::new(&db, GeneratorConfig::new(imdb_predicate_columns(&db), 4242));
    let queries = generator.generate_batch(60);
    let sqls: Vec<String> = queries.iter().map(|q| to_sql(&db, q)).collect();
    let stationary_oracle = TrueCardinalityOracle::new(&db);
    // The drifted world: 10x the movies, a third of the keywords — the
    // sketch still answers from its training-time snapshot.
    let evolved = imdb_database(&ImdbConfig {
        movies: 5000,
        keywords: 40,
        companies: 40,
        persons: 300,
        seed: 777,
    });
    let evolved_oracle = TrueCardinalityOracle::new(&evolved);

    let server = Server::start(
        Arc::clone(&db),
        Arc::clone(&store),
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let monitors = server.monitors();
    let mut c = Connection::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    // Phase 1: stationary — actuals from the database the sketch was
    // trained on. The drift detector must stay silent.
    for (q, sql) in queries.iter().zip(&sqls) {
        let actual = stationary_oracle.cardinality(q).unwrap();
        c.feedback_value("imdb", actual, sql).unwrap();
    }
    let monitor = monitors.get("imdb").expect("feedback created a monitor");
    let drift = accuracy_drift(&baseline, &monitor.rolling()).expect("baseline present");
    assert!(drift.samples >= DEFAULT_MIN_SAMPLES);
    assert!(
        !drift.is_stale(DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES),
        "stationary feedback must not raise staleness: {drift}"
    );
    assert!(
        recommend_retraining(&store, &monitors, DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES)
            .is_empty()
    );

    // Phase 2: the database evolves under the sketch. Same queries, but
    // the observed actuals now come from the evolved data.
    monitor.reset();
    for (q, sql) in queries.iter().zip(&sqls) {
        let actual = evolved_oracle.cardinality(q).unwrap();
        c.feedback_value("imdb", actual, sql).unwrap();
    }
    let drift = accuracy_drift(&baseline, &monitor.rolling()).expect("baseline present");
    assert!(
        drift.is_stale(DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES),
        "injected drift must raise staleness: {drift}"
    );
    let advice = recommend_retraining(&store, &monitors, DEFAULT_DRIFT_RATIO, DEFAULT_MIN_SAMPLES);
    assert_eq!(advice.len(), 1, "{advice:?}");
    assert_eq!(advice[0].sketch, "imdb");
    assert!(advice[0].drift.severity() > DEFAULT_DRIFT_RATIO);

    c.quit().unwrap();
    server.shutdown();
}

/// Regression test for the remove/swap-during-batch race: while clients
/// hammer "churn" through the server's coalescing path, a writer keeps
/// removing it and re-inserting alternating model versions. Batches are
/// keyed by store generation (plus an `Arc::ptr_eq` sweep guard), so every
/// answer must be bit-identical to ONE of the two versions' local
/// estimates — a mixed batch would hand version A's request to version B.
#[test]
fn estimates_stay_version_consistent_under_store_churn() {
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(11)));
    let store = Arc::new(SketchStore::new());
    let version_a = tiny_sketch(&db, 1);
    let version_b = tiny_sketch(&db, 2);
    let sql = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";
    let q = parse_query(&db, sql).unwrap();
    let bits_a = version_a.estimate_one(&q).to_bits();
    let bits_b = version_b.estimate_one(&q).to_bits();
    assert_ne!(bits_a, bits_b, "fixture must distinguish the versions");
    store.insert("churn", version_a.clone()).unwrap();

    let server = Server::start(
        Arc::clone(&db),
        Arc::clone(&store),
        ServeConfig::builder()
            .workers(2)
            .max_batch(16)
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                let mut c = Connection::connect_timeout(addr, Duration::from_secs(30)).unwrap();
                for _ in 0..100 {
                    match c.estimate("churn", sql).unwrap() {
                        Response::Estimate(v) => {
                            let bits = v.to_bits();
                            assert!(
                                bits == bits_a || bits == bits_b,
                                "answer {v} from neither model version"
                            );
                        }
                        // Mid-swap the name can briefly be missing; typed
                        // errors are fine, mixed models are not.
                        Response::Error { code, .. } => {
                            assert!(
                                matches!(code, ErrorCode::UnknownSketch | ErrorCode::NotReady),
                                "{code:?}"
                            );
                        }
                        other => panic!("{other:?}"),
                    }
                }
                c.quit().unwrap();
            });
        }
        let store = Arc::clone(&store);
        s.spawn(move || {
            for i in 0..50 {
                store.remove("churn");
                std::thread::yield_now();
                let next = if i % 2 == 0 {
                    version_b.clone()
                } else {
                    version_a.clone()
                };
                store.insert("churn", next).unwrap();
                std::thread::yield_now();
            }
        });
    });
    server.shutdown();
}

/// Graceful shutdown: requests in flight when shutdown starts still get
/// answers; the queue drains rather than drops.
#[test]
fn shutdown_drains_in_flight_work() {
    let (db, store) = fixture();
    let server = Server::start(
        db,
        store,
        ServeConfig::builder()
            .workers(1)
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = server.local_addr();
    let answered = std::thread::spawn(move || {
        let mut c = Connection::connect_timeout(addr, Duration::from_secs(30)).unwrap();
        let mut n = 0;
        for _ in 0..20 {
            if c.estimate_value("imdb", "SELECT COUNT(*) FROM title")
                .is_ok()
            {
                n += 1;
            } else {
                break;
            }
        }
        n
    });
    std::thread::sleep(Duration::from_millis(50));
    let snap = server.shutdown();
    let n = answered.join().unwrap();
    // Every request the server acknowledged with OK was really answered.
    assert_eq!(snap.ok, n);
}
