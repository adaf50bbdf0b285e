//! The workload seed decides the inputs, and only the seed does.

use std::collections::HashSet;

use ds_query::parser::parse_query;
use ds_serve::EstimateKey;
use ds_storage::gen::{imdb_database, ImdbConfig};
use perfbench::fixture::{adhoc_inputs, job_light_inputs, shuffle, SKETCH};

#[test]
fn same_seed_replays_identical_inputs() {
    let db = imdb_database(&ImdbConfig::tiny(3));
    assert_eq!(adhoc_inputs(&db, 7, 300).0, adhoc_inputs(&db, 7, 300).0);
    assert_eq!(job_light_inputs(&db, 7), job_light_inputs(&db, 7));
}

#[test]
fn another_seed_changes_the_inputs() {
    let db = imdb_database(&ImdbConfig::tiny(3));
    assert_ne!(adhoc_inputs(&db, 7, 300).0, adhoc_inputs(&db, 8, 300).0);
    let (a, b) = (job_light_inputs(&db, 7), job_light_inputs(&db, 8));
    assert_ne!(a, b, "the seed orders the JOB-light queries");
    // ... but the query set is the same, so q-error compares across seeds.
    let set = |qs: &[ds_query::query::Query]| -> HashSet<EstimateKey> {
        qs.iter().map(|q| EstimateKey::new(SKETCH, 0, q)).collect()
    };
    assert_eq!(set(&a), set(&b));
}

#[test]
fn adhoc_queries_never_repeat_in_cache_key() {
    let db = imdb_database(&ImdbConfig::tiny(3));
    let (sql, _) = adhoc_inputs(&db, 11, 2_000);
    let keys: HashSet<EstimateKey> = sql
        .iter()
        .map(|s| {
            EstimateKey::new(
                SKETCH,
                0,
                &parse_query(&db, s).expect("generated SQL parses"),
            )
        })
        .collect();
    assert_eq!(keys.len(), sql.len());
}

#[test]
fn shuffle_is_a_seeded_permutation() {
    let mut a: Vec<u32> = (0..100).collect();
    let mut b = a.clone();
    shuffle(&mut a, 5);
    shuffle(&mut b, 5);
    assert_eq!(a, b);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    assert_ne!(a, sorted);
}
