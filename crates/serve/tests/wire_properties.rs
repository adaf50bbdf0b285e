//! Wire-compatibility property: a sketch trained on the **old** operator
//! vocabulary (`{=, <, >}` only, feature-schema v1) must answer
//! comparison-only workloads **byte-identically** on the wire —
//!
//! * repeated sends of one `ESTIMATE` line return the same bytes (the
//!   canonical cache key added for `IN`/`LIKE` must not perturb
//!   comparison-only keys);
//! * a server loading the sketch from its serialized blob answers every
//!   line with the same bytes as the server holding the original — the
//!   widened `DSKT` format preserves v1 inference bit-exactly.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use ds_core::builder::SketchBuilder;
use ds_core::sketch::DeepSketch;
use ds_core::store::SketchStore;
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_serve::{Connection, ServeConfig, Server};
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};
use proptest::prelude::*;

struct Fixture {
    db: Arc<Database>,
    original: Mutex<Connection>,
    reloaded: Mutex<Connection>,
}

/// Two live servers for the whole test process: one holding the freshly
/// trained v1 sketch, one holding its `to_bytes` → `from_bytes` reload.
/// (Leaked deliberately — the process exits when the tests do.)
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = Arc::new(imdb_database(&ImdbConfig::tiny(21)));
        let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(400)
            .epochs(3)
            .sample_size(16)
            .hidden_units(16)
            .seed(5)
            .build()
            .expect("v1 sketch");
        let blob = sketch.to_bytes();
        let reloaded = DeepSketch::from_bytes(&blob).expect("blob decodes");
        assert_eq!(reloaded.to_bytes(), blob, "serialization is a fixed point");

        let serve = |sketch| {
            let store = Arc::new(SketchStore::new());
            store.insert("imdb", sketch).unwrap();
            let server = Server::start(
                Arc::clone(&db),
                store,
                ServeConfig::builder()
                    .request_timeout(Duration::from_secs(30))
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let client =
                Connection::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
            std::mem::forget(server);
            Mutex::new(client)
        };
        let original = serve(sketch);
        let reloaded = serve(reloaded);
        Fixture {
            db,
            original,
            reloaded,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Comparison-only workload batches: every `ESTIMATE` answered with
    /// identical bytes by the original and the reloaded sketch, and a
    /// repeated send (served from the estimate cache) is byte-identical
    /// to the first.
    #[test]
    fn cmp_only_estimates_are_byte_identical(seed in 0u64..u64::MAX) {
        let f = fixture();
        let cfg = GeneratorConfig::new(imdb_predicate_columns(&f.db), seed);
        let batch = QueryGenerator::new(&f.db, cfg).generate_batch(8);
        let mut original = f.original.lock().unwrap();
        let mut reloaded = f.reloaded.lock().unwrap();
        for q in &batch {
            for (_, p) in &q.predicates {
                prop_assert!(p.as_cmp().is_some(), "old vocabulary only");
            }
            let line = format!("ESTIMATE imdb {}", to_sql(&f.db, q));
            let first = original.send_raw(&line).unwrap();
            prop_assert!(first.starts_with("OK "), "estimate answered: {first}");
            let repeat = original.send_raw(&line).unwrap();
            prop_assert_eq!(&first, &repeat, "cache hit must not change bytes");
            let other = reloaded.send_raw(&line).unwrap();
            prop_assert_eq!(&first, &other, "reloaded sketch must answer identically");
        }
    }

    /// `FEEDBACK` grading over the old vocabulary: both servers return the
    /// same bytes (the echoed q-error is computed from bit-identical
    /// estimates).
    #[test]
    fn cmp_only_feedback_is_byte_identical(seed in 0u64..u64::MAX, actual in 1u64..100_000) {
        let f = fixture();
        let cfg = GeneratorConfig::new(imdb_predicate_columns(&f.db), seed.wrapping_add(1));
        let batch = QueryGenerator::new(&f.db, cfg).generate_batch(4);
        let mut original = f.original.lock().unwrap();
        let mut reloaded = f.reloaded.lock().unwrap();
        for q in &batch {
            let line = format!("FEEDBACK imdb {actual} {}", to_sql(&f.db, q));
            let a = original.send_raw(&line).unwrap();
            let b = reloaded.send_raw(&line).unwrap();
            prop_assert!(a.starts_with("OK "), "feedback answered: {a}");
            prop_assert_eq!(&a, &b, "feedback must grade identically");
        }
    }
}
