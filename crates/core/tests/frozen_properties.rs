//! Property tests for the frozen inference artifact: across random model
//! shapes, weight seeds, and query batches, the fused
//! featurize-and-forward path must agree with the training-shape reference
//! forward — **bit-exactly** in [`QuantMode::F32`], and within a stated
//! tolerance in [`QuantMode::Int8`] — from every thread count we serve
//! with.

use std::sync::OnceLock;

use ds_core::featurize::{Featurizer, QueryIndexFeatures};
use ds_core::mscn::{ForwardCache, MscnConfig, MscnModel};
use ds_core::QuantMode;
use ds_nn::frozen::{FrozenModel, FrozenScratch};
use ds_nn::pool::PoolConfig;
use ds_query::query::Query;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::{GeneratorConfig, QueryGenerator};
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};
use ds_storage::sample::{sample_all, TableSample};
use proptest::prelude::*;

/// Worst absolute disagreement allowed between the int8 artifact and the
/// f32 reference, in normalized (post-sigmoid) output space. Per-row
/// scales bound each weight's quantization error by `max_abs/254`
/// (≈0.4 % relative), and the sigmoid is 1/4-Lipschitz, so accumulated
/// drift through the three set modules and the output MLP stays far
/// below this.
const INT8_TOLERANCE: f32 = 0.05;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn fixture() -> &'static (Database, Vec<TableSample>, Featurizer) {
    static FIXTURE: OnceLock<(Database, Vec<TableSample>, Featurizer)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let samples = sample_all(&db, 16, 7);
        let featurizer = Featurizer::build(&db, &imdb_predicate_columns(&db), 16);
        (db, samples, featurizer)
    })
}

/// The training-shape reference forward of `queries`, batched and serial.
fn reference_forward(
    model: &MscnModel,
    featurizer: &Featurizer,
    queries: &[Query],
    samples: &[TableSample],
) -> Vec<f32> {
    let mut cache = ForwardCache::new();
    let batch = featurizer.batch_queries(queries, samples);
    model.forward_into(&batch, PoolConfig::single(), &mut cache);
    cache.output().data().to_vec()
}

/// Fused forward of every query on `threads` worker threads, each with its
/// own scratch (the serving setup). Returns per-thread output vectors.
fn fused_on_threads(frozen: &FrozenModel, queries: &[Query], threads: usize) -> Vec<Vec<f32>> {
    let (_, samples, featurizer) = fixture();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut feats = QueryIndexFeatures::default();
                    let mut scratch = FrozenScratch::new();
                    queries
                        .iter()
                        .map(|q| {
                            featurizer.featurize_indices(q, samples, &mut feats);
                            frozen.forward_query(
                                &feats.tables,
                                &feats.joins,
                                &feats.preds,
                                &mut scratch,
                            )
                        })
                        .collect::<Vec<f32>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frozen_f32_forward_is_bit_identical_to_reference(
        hidden in 4usize..24,
        model_seed in 0u64..1_000_000,
        query_seed in 0u64..1_000_000,
        batch in 1usize..6,
    ) {
        let (db, samples, featurizer) = fixture();
        let model = MscnModel::new(
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
            MscnConfig { hidden, seed: model_seed },
        );
        let queries = QueryGenerator::new(
            db,
            GeneratorConfig::new(imdb_predicate_columns(db), query_seed),
        )
        .generate_batch(batch);
        let reference = reference_forward(&model, featurizer, &queries, samples);

        let frozen = model.freeze(QuantMode::F32);
        for threads in THREAD_COUNTS {
            for outputs in fused_on_threads(&frozen, &queries, threads) {
                for (i, (fused, reference)) in outputs.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        fused.to_bits(),
                        reference.to_bits(),
                        "query {} diverged on {} threads: fused {} vs reference {}",
                        i, threads, fused, reference
                    );
                }
            }
        }
    }

    #[test]
    fn frozen_int8_forward_tracks_reference_within_tolerance(
        hidden in 4usize..24,
        model_seed in 0u64..1_000_000,
        query_seed in 0u64..1_000_000,
        batch in 1usize..6,
    ) {
        let (db, samples, featurizer) = fixture();
        let model = MscnModel::new(
            featurizer.table_dim(),
            featurizer.join_dim(),
            featurizer.pred_dim(),
            MscnConfig { hidden, seed: model_seed },
        );
        let queries = QueryGenerator::new(
            db,
            GeneratorConfig::new(imdb_predicate_columns(db), query_seed),
        )
        .generate_batch(batch);
        let reference = reference_forward(&model, featurizer, &queries, samples);

        let frozen = model.freeze(QuantMode::Int8);
        for threads in THREAD_COUNTS {
            for outputs in fused_on_threads(&frozen, &queries, threads) {
                for (i, (fused, reference)) in outputs.iter().zip(&reference).enumerate() {
                    prop_assert!(
                        (fused - reference).abs() <= INT8_TOLERANCE,
                        "query {} drifted on {} threads: int8 {} vs reference {}",
                        i, threads, fused, reference
                    );
                }
            }
        }
    }
}
