//! The shift-sweep drill: a live server fed `FEEDBACK` from controlled
//! CEB-style workload sweeps ([`ds_query::shift`]).
//!
//! The contract under test:
//!
//! * a **stationary** sweep point — templates and literals drawn from the
//!   training distribution — must leave the drift advisor **silent**;
//! * a **shifted** sweep point (operator-granularity coarsening into
//!   `IN`/`LIKE`, plus selectivity migration into the distribution tails)
//!   must make [`ds_core::advisor::recommend_retraining`] **fire** for the
//!   served sketch;
//! * a schema-v2 sketch trained with the extended operator vocabulary
//!   answers an `IN`/`LIKE`-bearing holdout over the wire with a median
//!   q-error within 1.5× of its comparison-only holdout — the new
//!   operators ride along without wrecking accuracy.
//!
//! Everything is seeded: databases, sketches, sweeps. The drill is a
//! deterministic artifact, not a flaky sample.

use std::sync::Arc;
use std::time::Duration;

use ds_core::advisor::recommend_retraining;
use ds_core::builder::SketchBuilder;
use ds_core::store::SketchStore;
use ds_query::query::Query;
use ds_query::shift::{ShiftKind, ShiftSweep, SweepConfig};
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_serve::{Connection, ServeConfig, Server};
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};
use ds_storage::predicate::PredOpKind;

/// Advisor knobs for the drill: fire when either rolling q-error quantile
/// exceeds 3× its training baseline over at least 24 graded queries.
const DRIFT_RATIO: f64 = 3.0;
const DRIFT_MIN_SAMPLES: u64 = 24;

/// True cardinalities for a workload, floored at 1 (the estimate floor).
fn true_counts(db: &Database, queries: &[Query]) -> Vec<u64> {
    let execs: Vec<_> = queries.iter().map(Query::to_exec).collect();
    ds_storage::exec::count_batch(db, &execs, 1)
        .expect("workload executes")
        .into_iter()
        .map(|c| c.max(1))
        .collect()
}

/// Grades one sweep point through the server: a `FEEDBACK` line per query
/// with its true cardinality. Every line must be answered `OK`.
fn feedback_point(c: &mut Connection, db: &Database, queries: &[Query]) {
    let counts = true_counts(db, queries);
    for (q, actual) in queries.iter().zip(counts) {
        let line = c
            .send_raw(&format!("FEEDBACK imdb {actual} {}", to_sql(db, q)))
            .expect("feedback answered");
        assert!(line.starts_with("OK "), "feedback line: {line}");
    }
}

/// Predicate vocabulary for the drift drill: a narrow, low-cardinality
/// column set on which the bitmap-less paper model trains *tight*
/// (stationary median q-error < 2). A tight baseline is what makes the
/// drill honest — operator-granularity shift must register as *relative*
/// degradation, and a sloppy baseline would absorb it.
fn drill_columns(db: &Database) -> Vec<ds_storage::catalog::ColRef> {
    [
        "title.kind_id",
        "title.production_year",
        "movie_companies.company_type_id",
        "cast_info.role_id",
    ]
    .iter()
    .map(|q| db.resolve(q).expect("drill column"))
    .collect()
}

#[test]
fn advisor_fires_under_shift_and_stays_silent_when_stationary() {
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(77)));
    let sketch = SketchBuilder::new(&db, drill_columns(&db))
        .training_queries(4000)
        .epochs(20)
        .sample_size(64)
        .hidden_units(64)
        .use_bitmaps(false)
        .seed(3)
        .build()
        .expect("drill sketch");
    assert!(sketch.baseline().is_some(), "drift needs a baseline");
    let store = Arc::new(SketchStore::new());
    store.insert("imdb", sketch).unwrap();

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

    let sweep = ShiftSweep::new(&db, drill_columns(&db), 12, 31);

    // Phase A — stationary: the sweep reproduces the training
    // distribution, so the rolling q-error window must stay within the
    // training baseline and the advisor must stay silent.
    let stationary =
        sweep.instantiate(&SweepConfig::new(ShiftKind::Stationary, 0.0, 5).queries(60));
    feedback_point(&mut c, &db, &stationary);
    let advice = recommend_retraining(&store, &monitors, DRIFT_RATIO, DRIFT_MIN_SAMPLES);
    assert!(
        advice.is_empty(),
        "stationary sweep must not trigger the advisor: {advice:?}"
    );

    // Phase B — shift: operator granularity coarsens into IN/LIKE (a
    // vocabulary this v1 sketch never trained on) and selectivity
    // migrates into the tails. The advisor must fire for the sketch.
    for cfg in [
        SweepConfig::new(ShiftKind::Selectivity, 1.0, 7).queries(60),
        SweepConfig::new(ShiftKind::Granularity, 1.0, 6).queries(200),
    ] {
        feedback_point(&mut c, &db, &sweep.instantiate(&cfg));
    }
    let advice = recommend_retraining(&store, &monitors, DRIFT_RATIO, DRIFT_MIN_SAMPLES);
    assert_eq!(advice.len(), 1, "shifted sweep must trigger the advisor");
    assert_eq!(advice[0].sketch, "imdb");
    assert!(
        advice[0].drift.is_stale(DRIFT_RATIO, DRIFT_MIN_SAMPLES),
        "{}",
        advice[0].drift
    );
    println!("shift-sweep drift evidence: {}", advice[0].drift);

    let m = server.shutdown();
    assert_eq!(m.errors, 0, "every sweep line must be answered OK");
}

#[test]
fn v2_sketch_answers_in_like_holdout_within_budget_over_the_wire() {
    let db = Arc::new(imdb_database(&ImdbConfig::tiny(78)));
    let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(1500)
        .epochs(10)
        .sample_size(48)
        .hidden_units(48)
        .extended_ops(0.25, 0.25)
        .feature_schema_v2(16)
        .seed(9)
        .build()
        .expect("v2 sketch");
    let store = Arc::new(SketchStore::new());
    store.insert("imdb", sketch).unwrap();
    let server = Server::start(
        Arc::clone(&db),
        Arc::clone(&store),
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Connection::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    // Held-out workload from the same extended-operator distribution but a
    // disjoint seed; split into the IN/LIKE-bearing part and the
    // comparison-only part.
    let mut gen_cfg = GeneratorConfig::new(imdb_predicate_columns(&db), 0xBEEF).with_extended_ops();
    gen_cfg.max_in_list = 4;
    let holdout = QueryGenerator::new(&db, gen_cfg).generate_batch(300);
    let (ext, cmp): (Vec<Query>, Vec<Query>) = holdout.into_iter().partition(|q| {
        q.predicates
            .iter()
            .any(|(_, p)| matches!(p.op_kind(), PredOpKind::In | PredOpKind::Like))
    });
    assert!(ext.len() >= 40, "holdout must carry IN/LIKE: {}", ext.len());
    assert!(cmp.len() >= 40, "holdout must carry cmp: {}", cmp.len());

    let median_qerror = |queries: &[Query], c: &mut Connection| -> f64 {
        let truths = true_counts(&db, queries);
        let mut qs: Vec<f64> = queries
            .iter()
            .zip(truths)
            .map(|(q, t)| {
                let e = c
                    .estimate_value("imdb", &to_sql(&db, q))
                    .expect("estimate over the wire");
                let t = t as f64;
                (e / t).max(t / e)
            })
            .collect();
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        qs[qs.len() / 2]
    };
    let ext_median = median_qerror(&ext, &mut c);
    let cmp_median = median_qerror(&cmp, &mut c);
    println!(
        "holdout medians: IN/LIKE={ext_median:.3} ({} queries), cmp-only={cmp_median:.3} ({} queries)",
        ext.len(),
        cmp.len()
    );
    assert!(
        ext_median <= cmp_median * 1.5,
        "IN/LIKE holdout median {ext_median:.3} exceeds 1.5x of cmp-only median {cmp_median:.3}"
    );

    let m = server.shutdown();
    assert_eq!(m.errors, 0);
}
