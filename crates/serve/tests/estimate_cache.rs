//! Estimate-cache integration tests: a real server with the default
//! template-keyed cache, proving that
//!
//! * a warm hit returns the byte-identical wire line a cold estimate
//!   produced (memoization is invisible on the wire);
//! * a sketch swap (remove + re-insert) invalidates: stale generations can
//!   never answer, and the purge is counted;
//! * sustained `FEEDBACK`-detected accuracy drift purges the drifting
//!   template's entries, whatever their IN-list or LIKE-pattern lengths;
//! * degraded responses are never cached, and a warm cache never masks an
//!   unhealthy sketch (fault-dependent, so `debug_assertions`-only).

use std::sync::Arc;
use std::time::Duration;

use ds_query::parser::parse_query;
use ds_serve::{Connection, ServeConfig, Server};

mod common;

use common::{fixture, stat, tiny_sketch};

const SQL: &str = "SELECT COUNT(*) FROM title WHERE title.kind_id = 1";

/// A cache hit must be invisible on the wire: the second raw `ESTIMATE`
/// line is byte-for-byte the cold line, which itself carries the same bits
/// a local `estimate_one` produces.
#[test]
fn cache_hit_returns_bit_identical_wire_bytes() {
    let (db, store) = fixture();
    let expected = store
        .get("imdb")
        .unwrap()
        .estimate_one(&parse_query(&db, SQL).unwrap());
    let server = Server::start(
        Arc::clone(&db),
        store,
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Connection::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    let cold = c.send_raw(&format!("ESTIMATE imdb {SQL}")).unwrap();
    assert_eq!(cold, format!("OK {expected:?}"), "cold line");
    let warm = c.send_raw(&format!("ESTIMATE imdb {SQL}")).unwrap();
    assert_eq!(warm, cold, "warm line must be byte-identical");

    assert_eq!(stat(&mut c, "ds_serve_cache_misses"), 1.0);
    assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 1.0);
    assert_eq!(stat(&mut c, "ds_serve_cache_len"), 1.0);
    c.quit().unwrap();
    server.shutdown();
}

/// `cache_capacity: 0` disables caching entirely: no counters, every
/// request runs the forward pass, and the wire bytes are unchanged.
#[test]
fn zero_capacity_disables_the_cache() {
    let (db, store) = fixture();
    let expected = store
        .get("imdb")
        .unwrap()
        .estimate_one(&parse_query(&db, SQL).unwrap());
    let server = Server::start(
        Arc::clone(&db),
        store,
        ServeConfig::builder()
            .cache_capacity(0)
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Connection::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    for _ in 0..2 {
        let line = c.send_raw(&format!("ESTIMATE imdb {SQL}")).unwrap();
        assert_eq!(line, format!("OK {expected:?}"));
    }
    assert!(
        !c.stats()
            .unwrap()
            .iter()
            .any(|s| s.name.starts_with("ds_serve_cache")),
        "disabled cache must not export counters"
    );
    c.quit().unwrap();
    server.shutdown();
}

/// Removing and re-inserting a sketch bumps its store generation; the old
/// entries are purged (counted as invalidations) and the next answer comes
/// from the new model, never the stale cache.
#[test]
fn swap_invalidates_stale_generations() {
    let (db, store) = fixture();
    let query = parse_query(&db, SQL).unwrap();
    let old_expected = store.get("imdb").unwrap().estimate_one(&query);
    let replacement = tiny_sketch(&db, 21);
    let new_expected = replacement.estimate_one(&query);
    assert_ne!(
        old_expected.to_bits(),
        new_expected.to_bits(),
        "fixture must distinguish the two models"
    );
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

    // Warm the cache against the original model.
    for _ in 0..2 {
        assert_eq!(
            c.estimate_value("imdb", SQL).unwrap().to_bits(),
            old_expected.to_bits()
        );
    }
    assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 1.0);

    // Swap: the live server resolves by name, the generation changes.
    assert!(store.remove("imdb"));
    store.insert("imdb", replacement).unwrap();
    assert_eq!(
        c.estimate_value("imdb", SQL).unwrap().to_bits(),
        new_expected.to_bits(),
        "post-swap answer must come from the new model, not the cache"
    );
    assert!(
        stat(&mut c, "ds_serve_cache_invalidations") >= 1.0,
        "the stale generation's entry must be purged"
    );
    // The new generation caches independently.
    assert_eq!(
        c.estimate_value("imdb", SQL).unwrap().to_bits(),
        new_expected.to_bits()
    );
    assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 2.0);
    c.quit().unwrap();
    server.shutdown();
}

/// Sustained terrible feedback for one template crosses the accuracy-drift
/// threshold and purges that template's cached entries.
#[test]
fn feedback_drift_purges_the_template() {
    let (db, store) = fixture();
    assert!(
        store.get("imdb").unwrap().baseline().is_some(),
        "drift detection needs the training-time baseline"
    );
    let server = Server::start(
        Arc::clone(&db),
        store,
        ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut c = Connection::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

    let v = c.estimate_value("imdb", SQL).unwrap();
    // Report a true cardinality ~10⁶× off: the rolling q-error dwarfs the
    // training baseline once the min-sample gate (50) is met.
    let actual = (v * 1e6).max(1e6) as u64;
    for _ in 0..60 {
        let fb = c.feedback_value("imdb", actual, SQL).unwrap();
        assert_eq!(fb.to_bits(), v.to_bits(), "feedback is served consistently");
    }
    assert!(
        stat(&mut c, "ds_serve_cache_invalidations") >= 1.0,
        "drift past the threshold must purge the template"
    );
    c.quit().unwrap();
    server.shutdown();
}

/// IN-list and LIKE-pattern lengths are literals, not template: bad
/// `FEEDBACK` on one length drives accuracy drift that purges the cached
/// entries of every length of the template, so the next ESTIMATE of a
/// warm sibling misses the cache and still answers the same bits.
#[test]
fn feedback_drift_purges_every_in_and_like_length() {
    for (warm, drive) in [
        ("kind_id IN (1, 2)", "kind_id IN (1, 2, 3)"),
        ("production_year LIKE '19%'", "production_year LIKE '199%'"),
    ] {
        let warm = format!("SELECT COUNT(*) FROM title WHERE title.{warm}");
        let drive = format!("SELECT COUNT(*) FROM title WHERE title.{drive}");
        let (db, store) = fixture();
        let cfg = ServeConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .build()
            .unwrap();
        let server = Server::start(Arc::clone(&db), store, cfg).unwrap();
        let addr = server.local_addr();
        let mut c = Connection::connect_timeout(addr, Duration::from_secs(30)).unwrap();
        let est = |c: &mut Connection, sql: &str| c.estimate_value("imdb", sql).unwrap();

        let v = est(&mut c, &warm).to_bits();
        assert_eq!(est(&mut c, &warm).to_bits(), v);
        assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 1.0, "warm {warm}");
        let actual = (est(&mut c, &drive) * 1e6).max(1e6) as u64;
        for _ in 0..60 {
            c.feedback_value("imdb", actual, &drive).unwrap();
        }
        assert!(stat(&mut c, "ds_serve_cache_invalidations") >= 1.0);

        let hits = stat(&mut c, "ds_serve_cache_hits");
        let misses = stat(&mut c, "ds_serve_cache_misses");
        assert_eq!(est(&mut c, &warm).to_bits(), v);
        let hits_after = stat(&mut c, "ds_serve_cache_hits");
        assert_eq!(hits_after, hits, "drift on {drive} left {warm} cached");
        assert_eq!(stat(&mut c, "ds_serve_cache_misses"), misses + 1.0);
        c.quit().unwrap();
        server.shutdown();
    }
}

#[cfg(debug_assertions)]
mod faulted {
    use super::*;
    use ds_est::postgres::PostgresEstimator;
    use ds_est::CardinalityEstimator;
    use ds_serve::{BreakerConfig, FaultInjector, SharedEstimator};

    /// A warm cache must never mask an unhealthy sketch, and degraded
    /// answers must never enter the cache.
    #[test]
    fn degraded_answers_are_never_cached_or_served_from_cache() {
        let (db, store) = fixture();
        let query = parse_query(&db, SQL).unwrap();
        let sketch_expected = store.get("imdb").unwrap().estimate_one(&query);
        let fallback_est = PostgresEstimator::build(&db);
        let fallback_expected = fallback_est.try_estimate(&query).unwrap();
        assert_ne!(sketch_expected.to_bits(), fallback_expected.to_bits());
        let faults = Arc::new(FaultInjector::new(42));
        let server = Server::start(
            Arc::clone(&db),
            store,
            ServeConfig::builder()
                .fallback(Some(Arc::new(fallback_est) as SharedEstimator))
                .breaker(BreakerConfig {
                    // Keep the breaker closed throughout: this test pins the
                    // cache's own behavior under faults, not the breaker's.
                    failure_threshold: 100,
                    cooldown: Duration::from_secs(300),
                })
                .faults(Some(Arc::clone(&faults)))
                .request_timeout(Duration::from_secs(30))
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut c =
            Connection::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();

        // Warm the cache while healthy.
        for _ in 0..2 {
            let (v, degraded) = c.estimate_flagged("imdb", SQL).unwrap();
            assert!(!degraded);
            assert_eq!(v.to_bits(), sketch_expected.to_bits());
        }
        assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 1.0);
        assert_eq!(stat(&mut c, "ds_serve_cache_len"), 1.0);

        // Poison the model: every answer degrades to the fallback even
        // though a warm, bit-correct entry sits in the cache.
        faults.poison("imdb");
        for i in 0..3 {
            let (v, degraded) = c.estimate_flagged("imdb", SQL).unwrap();
            assert!(degraded, "request {i} while poisoned must degrade");
            assert_eq!(v.to_bits(), fallback_expected.to_bits(), "request {i}");
        }
        assert_eq!(
            stat(&mut c, "ds_serve_cache_hits"),
            1.0,
            "poisoned requests must not read the cache"
        );
        assert_eq!(
            stat(&mut c, "ds_serve_cache_len"),
            1.0,
            "degraded answers must not be inserted"
        );

        // Healed: the healthy entry serves again, bit-identically.
        faults.heal("imdb");
        let (v, degraded) = c.estimate_flagged("imdb", SQL).unwrap();
        assert!(!degraded);
        assert_eq!(v.to_bits(), sketch_expected.to_bits());
        assert_eq!(stat(&mut c, "ds_serve_cache_hits"), 2.0);
        c.quit().unwrap();
        server.shutdown();
    }
}
